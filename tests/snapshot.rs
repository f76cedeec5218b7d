//! Snapshot round trips on real runs, checked from the public surface: a
//! traced mid-run restore finishes as the uninterrupted run does (event
//! stream included), and a warm-started sweep equals its cold twin.

use skipit::prelude::*;
use skipit::{prefill_snapshot, run_set_benchmark, run_set_benchmark_warm, warm_key};
use skipit::{DsKind, OptKind, PersistMode, WarmSet, WorkloadCfg};

/// Two cores storing and flushing 16 interleaved lines each, then reading
/// them back.
fn programs() -> Vec<Vec<Op>> {
    (0..2u64)
        .map(|core| {
            let line = |i: u64| 0x6000 + (core * 16 + i) * 64;
            let mut p = Vec::new();
            for i in 0..16 {
                p.push(Op::Store {
                    addr: line(i),
                    value: core << 32 | i,
                });
                p.push(Op::Flush { addr: line(i) });
            }
            p.push(Op::Fence);
            p.extend((0..16).map(|i| Op::Load { addr: line(i) }));
            p
        })
        .collect()
}

/// What the restore must reproduce: cycles, statistics, the durable words
/// and the `(cycle, order, event)` trace stream from cycle `since` on. A
/// restored system's trace starts empty with fresh per-sink sequence
/// numbers, so absolute `seq` values differ by design.
fn fingerprint(sys: &System, since: u64) -> (u64, SystemStats, Vec<u64>, Vec<String>) {
    let image = sys.durable_image();
    let words = (0..32u64)
        .map(|i| image.read_word_direct(0x6000 + i * 64))
        .collect();
    let tail = sys
        .trace_events()
        .into_iter()
        .filter(|e| e.cycle >= since)
        .map(|e| format!("{}/{}/{:?}", e.cycle, e.order, e.event))
        .collect();
    (sys.now(), sys.stats(), words, tail)
}

/// A traced 2-core run snapshotted at cycle 200, with stores in flight,
/// restores and finishes bit-identically to the uninterrupted run,
/// post-snapshot event stream included.
#[test]
fn traced_mid_run_restore_resumes_the_event_stream() {
    let trace = || TraceConfig::new().events(1 << 14);
    let mut sys = SystemBuilder::new().cores(2).skip_it(true).build();
    sys.set_trace(trace());
    let mut snap = None;
    sys.run_programs_observed(programs(), |s: &System| {
        if snap.is_none() && s.now() >= 200 {
            snap = Some(s.snapshot().expect("mid-run snapshot"));
        }
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap();
    sys.quiesce();

    let snap = snap.expect("run reached cycle 200");
    let mut resumed = System::restore(&snap, sys.config()).expect("snapshot restores");
    let restored_at = resumed.now();
    resumed.set_trace(trace()); // observers are host-side: reinstall
    resumed.resume_programs();
    resumed.quiesce();
    let replayed = fingerprint(&resumed, restored_at);
    assert!(!replayed.3.is_empty(), "no events after the snapshot");
    assert_eq!(replayed, fingerprint(&sys, restored_at));
}

/// One List fill shared by four measured update ratios.
fn set_cfg(update_pct: u32) -> WorkloadCfg {
    WorkloadCfg {
        ds: DsKind::List,
        mode: PersistMode::NvTraverse,
        opt: OptKind::SkipIt,
        threads: 2,
        key_range: 64,
        prefill: 16,
        update_pct,
        budget_cycles: 15_000,
        seed: 7,
        hash_buckets: 32,
        ..WorkloadCfg::default()
    }
}

/// The 4-point set grid, cold (each point simulates its own fill) or warm
/// (one snapshotted fill restored into every point).
fn set_grid(warm: bool) -> Sweep {
    let mut sweep = Sweep::new("set_grid").unit("ops_per_mcycle").seed(7);
    if warm {
        let fill = set_cfg(0);
        sweep = sweep.prefill(warm_key(&fill), move || {
            let ws = prefill_snapshot(&fill);
            let bytes = ws.encoded_bytes();
            WarmState::new(ws, bytes)
        });
    }
    for update_pct in [0u32, 10, 20, 50] {
        let cfg = set_cfg(update_pct);
        let point = Point::new(format!("list/{update_pct}%"), move |ctx: &PointCtx| {
            let r = if warm {
                run_set_benchmark_warm(&cfg, ctx.warm::<WarmSet>().expect("fill registered"))
            } else {
                run_set_benchmark(&cfg)
            };
            PointOutput::new()
                .with_cycles(r.cycles)
                .value("ops_per_mcycle", r.throughput())
                .value("ops", r.ops as f64)
        })
        .param("update_pct", update_pct);
        sweep.push(if warm {
            point.warm(warm_key(&cfg))
        } else {
            point
        });
    }
    sweep
}

/// A warm-started grid exports the same table as the cold grid, byte for
/// byte, and every point of both completes.
#[test]
fn warm_started_grid_matches_cold() {
    let cold = SweepRunner::serial().run(set_grid(false));
    let warm = SweepRunner::serial().run(set_grid(true));
    assert!(
        cold.all_ok() && warm.all_ok(),
        "{}{}",
        cold.table(),
        warm.table()
    );
    assert_eq!(warm.warm_sizes().len(), 1, "the four points share one fill");
    assert_eq!(cold.to_json(), warm.to_json());
}
