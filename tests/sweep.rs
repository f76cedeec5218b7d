//! Integration tests for the sharded sweep runner against real `System`
//! simulations: the determinism contract across worker-thread counts, panic
//! isolation, and cycle-budget timeout classification.

use skipit::prelude::*;

/// A twelve-point grid of real simulations: (cores, skip_it, clean or
/// flush) ablation of a writeback-heavy program, with the per-point seed
/// folded into the stored data.
fn simulation_sweep() -> Sweep {
    let mut sweep = Sweep::new("sim_grid").unit("cycles").seed(0xD15C);
    for cores in [1usize, 2, 4] {
        for (skip_it, clean) in [(false, false), (false, true), (true, false), (true, true)] {
            let label = format!("c{cores}/skip={}/clean={}", skip_it as u8, clean as u8);
            sweep.push(
                Point::new(label, move |ctx| {
                    let mut sys = SystemBuilder::new().cores(cores).skip_it(skip_it).build();
                    let programs: Vec<Vec<Op>> = (0..cores as u64)
                        .map(|core| {
                            let mut p = Vec::new();
                            for i in 0..6 {
                                let addr = 0x8000 + (core * 6 + i) * 64;
                                p.push(Op::Store {
                                    addr,
                                    value: ctx.seed ^ i,
                                });
                                p.push(if clean {
                                    Op::Clean { addr }
                                } else {
                                    Op::Flush { addr }
                                });
                            }
                            p.push(Op::Fence);
                            p
                        })
                        .collect();
                    let cycles = sys.run(Programs(programs)).cycles;
                    sys.quiesce();
                    PointOutput::from_system(&sys).value("program_cycles", cycles as f64)
                })
                .param("cores", cores)
                .param("skip_it", skip_it)
                .param("clean", clean)
                .budget(1_000_000),
            );
        }
    }
    sweep
}

#[test]
fn result_table_is_bit_identical_at_1_2_and_8_threads() {
    let serial = SweepRunner::serial().run(simulation_sweep());
    assert!(
        serial.all_ok(),
        "baseline sweep failed:\n{}",
        serial.table()
    );
    assert_eq!(serial.rows().len(), 12);
    for threads in [2, 8] {
        let sharded = SweepRunner::new().threads(threads).run(simulation_sweep());
        assert_eq!(
            serial.rows(),
            sharded.rows(),
            "rows diverge at {threads} worker threads"
        );
        assert_eq!(
            serial.to_json(),
            sharded.to_json(),
            "JSON export diverges at {threads} worker threads"
        );
    }
}

#[test]
fn poisoned_point_becomes_error_row_and_rest_complete() {
    let mut sweep = simulation_sweep();
    sweep.push(Point::new("poisoned", |_| -> PointOutput {
        panic!("injected failure: invalid system configuration")
    }));
    let report = SweepRunner::new().threads(2).run(sweep);
    assert_eq!(report.rows().len(), 13);
    assert_eq!(report.failed_rows().count(), 1);
    let bad = report.get("poisoned").expect("poisoned row present");
    match &bad.status {
        PointStatus::Error { message } => {
            assert!(message.contains("injected failure"), "{message}");
        }
        other => panic!("expected error row, got {other:?}"),
    }
    // Every real simulation point still completed with its normal output.
    for row in report.rows().iter().filter(|r| r.label != "poisoned") {
        assert!(row.is_ok(), "{} ended {:?}", row.label, row.status);
        assert!(row.output.cycles > 0);
        assert!(row.output.stats.is_some());
    }
}

#[test]
fn budget_overrun_on_a_real_simulation_is_classified_timeout() {
    let run = |budget: u64| {
        let sweep = Sweep::new("budgeted").point(
            Point::new("flushes", move |_| {
                let mut sys = SystemBuilder::new().cores(1).build();
                let mut p = Vec::new();
                for i in 0..8u64 {
                    p.push(Op::Store {
                        addr: 0x9000 + i * 64,
                        value: i,
                    });
                    p.push(Op::Flush {
                        addr: 0x9000 + i * 64,
                    });
                }
                p.push(Op::Fence);
                sys.run(Programs(vec![p]));
                PointOutput::from_system(&sys)
            })
            .budget(budget),
        );
        SweepRunner::serial().run(sweep)
    };
    // A generous budget passes…
    let ok = run(1_000_000);
    assert!(ok.all_ok(), "{}", ok.table());
    let cycles = ok.rows()[0].output.cycles;
    assert!(cycles > 10, "workload too trivial to test budgets");
    // …and a budget below the measured consumption is reported as a
    // timeout, with the full output still recorded.
    let tight = run(cycles - 1);
    let row = &tight.rows()[0];
    assert_eq!(
        row.status,
        PointStatus::Timeout {
            budget: cycles - 1,
            cycles
        }
    );
    assert_eq!(row.output.cycles, cycles);
    assert!(row.output.stats.is_some());
}

#[test]
fn json_export_matches_bench_shape() {
    let report = SweepRunner::new().threads(2).run(simulation_sweep());
    let json = report.to_json();
    assert!(json.starts_with("{\n  \"bench\": \"sim_grid\""));
    assert!(json.contains("\"unit\": \"cycles\""));
    assert!(json.contains("\"points\": ["));
    assert!(json
        .contains("\"params\": {\"cores\": \"1\", \"skip_it\": \"false\", \"clean\": \"false\"}"));
    assert!(json.contains("\"status\": \"ok\""));
    assert!(json.contains("\"program_cycles\""));
    assert!(
        !json.contains("wall") && !json.contains("threads"),
        "host-side timing leaked into the export"
    );
}
