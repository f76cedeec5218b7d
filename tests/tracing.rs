//! Per-op latency tracing: the tool behind the paper's median/σ
//! methodology (§7.1), checked end to end.

use skipit::prelude::*;

#[test]
fn trace_records_op_latencies() {
    let mut sys = SystemBuilder::new().cores(1).build();
    sys.set_trace(TraceConfig::new().latency(1024));
    sys.run(Programs(vec![vec![
        Op::Store {
            addr: 0x1000,
            value: 1,
        },
        Op::Load { addr: 0x1000 },
        Op::Flush { addr: 0x1000 },
        Op::Fence,
    ]]));
    let recs = sys.trace_records();
    assert_eq!(recs.len(), 4);
    // Load hit after the store: short latency (hit path + queueing).
    let load = recs
        .iter()
        .find(|r| matches!(r.op, Op::Load { .. }))
        .expect("load traced");
    assert!(
        (1..=30).contains(&load.latency()),
        "hit-load latency {} out of band",
        load.latency()
    );
    // The store missed: its completion (acceptance) is still fast, but the
    // fence must wait for the flush to fully complete.
    let fence = recs
        .iter()
        .find(|r| matches!(r.op, Op::Fence))
        .expect("fence traced");
    assert!(
        fence.latency() >= 30,
        "fence must wait for the writeback (latency {})",
        fence.latency()
    );
}

#[test]
fn trace_is_bounded_and_clearable() {
    let mut sys = SystemBuilder::new().cores(1).build();
    sys.set_trace(TraceConfig::new().latency(4));
    let prog: Vec<Op> = (0..10)
        .map(|i| Op::Store {
            addr: 0x2000 + i * 8,
            value: i,
        })
        .collect();
    sys.run(Programs(vec![prog]));
    assert_eq!(sys.trace_records().len(), 4, "log must stay bounded");
    sys.clear_traces();
    assert!(sys.trace_records().is_empty());
}

#[test]
fn skip_it_drop_is_visibly_cheaper_in_traces() {
    // The mechanism behind Fig. 13, observed per op: the redundant clean's
    // completion latency is similar (commit at buffering) but the following
    // fence is far cheaper when the writeback was dropped.
    let mut fence_latency = [0u64; 2];
    for (i, skip_it) in [false, true].into_iter().enumerate() {
        let mut sys = SystemBuilder::new().cores(1).skip_it(skip_it).build();
        sys.run(Programs(vec![vec![
            Op::Store {
                addr: 0x3000,
                value: 1,
            },
            Op::Clean { addr: 0x3000 },
            Op::Fence,
        ]]));
        sys.set_trace(TraceConfig::new().latency(16));
        sys.run(Programs(vec![vec![Op::Clean { addr: 0x3000 }, Op::Fence]]));
        let recs = sys.trace_records();
        fence_latency[i] = recs
            .iter()
            .find(|r| matches!(r.op, Op::Fence))
            .expect("fence traced")
            .latency();
    }
    assert!(
        fence_latency[1] * 3 < fence_latency[0],
        "dropped writeback must make the fence much cheaper \
         (naive {} vs skip-it {})",
        fence_latency[0],
        fence_latency[1]
    );
}

#[test]
fn trace_records_merge_cores_by_completion_cycle() {
    // Two cores completing ops concurrently: the merged log must come back
    // in one global completion-cycle order, not per-core concatenation.
    let mut sys = SystemBuilder::new().cores(2).build();
    sys.set_trace(TraceConfig::new().latency(1024));
    let prog = |base: u64| -> Vec<Op> {
        let mut p = Vec::new();
        for i in 0..8u64 {
            p.push(Op::Store {
                addr: base + i * 64,
                value: i + 1,
            });
            p.push(Op::Load {
                addr: base + i * 64,
            });
        }
        p.push(Op::Fence);
        p
    };
    // Overlapping line pools so the cores contend and interleave.
    sys.run(Programs(vec![prog(0x9000), prog(0x9100)]));
    let recs = sys.trace_records();
    assert_eq!(recs.len(), 34);
    assert!(
        recs.windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at),
        "records must be sorted by completion cycle"
    );
    // Both cores really did complete ops in between each other: the merged
    // stream must switch cores somewhere strictly inside the run.
    let first_core = recs.first().expect("nonempty").core;
    let switches = recs.windows(2).filter(|w| w[0].core != w[1].core).count();
    assert!(
        switches >= 2,
        "expected interleaved cores in the merged log (first core \
         {first_core}, {switches} switches)"
    );
}

#[test]
fn latency_histograms_match_trace_records() {
    let mut sys = SystemBuilder::new().cores(1).build();
    sys.set_trace(TraceConfig::new().latency(1024));
    let mut prog = Vec::new();
    for i in 0..16u64 {
        prog.push(Op::Store {
            addr: 0xa000 + i * 64,
            value: i,
        });
    }
    for i in 0..16u64 {
        prog.push(Op::Clean {
            addr: 0xa000 + i * 64,
        });
    }
    prog.push(Op::Fence);
    sys.run(Programs(vec![prog]));
    let hists = sys.latency_histograms();
    assert_eq!(hists["store"].count(), 16);
    assert_eq!(hists["clean"].count(), 16);
    assert_eq!(hists["fence"].count(), 1);
    // Percentiles bracket the observed latencies.
    let recs = sys.trace_records();
    let max_store = recs
        .iter()
        .filter(|r| matches!(r.op, Op::Store { .. }))
        .map(|r| r.latency())
        .max()
        .unwrap();
    assert!(hists["store"].p99().unwrap() <= max_store.max(1) * 2);
    assert!(hists["store"].p50().unwrap() <= hists["store"].p99().unwrap());
}

/// Event + latency tracing are independent aspects of one `TraceConfig`:
/// enabling one must not clobber the other, and both activate through the
/// same `set_trace` path.
#[test]
fn event_and_latency_tracing_compose() {
    let mut sys = SystemBuilder::new().cores(1).build();
    sys.set_trace(TraceConfig::new().latency(64).events(1 << 12));
    assert_eq!(sys.trace_config().latency_capacity(), Some(64));
    assert_eq!(sys.trace_config().event_capacity(), Some(1 << 12));
    sys.run(Programs(vec![vec![
        Op::Store {
            addr: 0x3000,
            value: 7,
        },
        Op::Flush { addr: 0x3000 },
        Op::Fence,
    ]]));
    assert_eq!(sys.trace_records().len(), 3, "latency tracing inactive");
    assert!(!sys.trace_events().is_empty(), "event tracing inactive");
}

const TELEMETRY_CORES: usize = 4;

/// A fig. 9-shaped run with telemetry sampling every 256 cycles: all cores
/// store and clean 64 lines, fence, then reload and clean them again so
/// skip-bit drops fire. Returns the quiesced system and the run's cycles.
fn telemetry_run() -> (System, u64) {
    let programs = (0..TELEMETRY_CORES as u64)
        .map(|t| {
            let line = |i: u64| 0x30_0000 + t * 0x1_0000 + i * 64;
            let mut p: Vec<Op> = (0..64)
                .map(|i| Op::Store {
                    addr: line(i),
                    value: t << 32 | i,
                })
                .collect();
            p.extend((0..64).map(|i| Op::Clean { addr: line(i) }));
            p.push(Op::Fence);
            for i in 0..64 {
                p.extend([Op::Load { addr: line(i) }, Op::Clean { addr: line(i) }]);
            }
            p.push(Op::Fence);
            p
        })
        .collect();
    let mut sys = SystemBuilder::new()
        .cores(TELEMETRY_CORES)
        .skip_it(true)
        .build();
    sys.set_trace(TraceConfig::new().events(1 << 15).telemetry(256));
    let cycles = sys.run(Programs(programs)).cycles;
    sys.quiesce();
    (sys, cycles)
}

/// The per-interval deltas of every sampled series, summed over the run,
/// equal the end-of-run `MetricsSnapshot` totals exactly, the samples tile
/// the run, and the JSON and CSV exports hold every sample.
#[test]
fn telemetry_deltas_sum_to_the_run_totals() {
    let (sys, cycles) = telemetry_run();
    let tel = sys.telemetry_snapshot().expect("telemetry was configured");
    assert!(tel.len() >= 4, "run too short to exercise sampling");
    assert_eq!(tel.dropped(), 0, "ring too small for the run");
    let snap = MetricsSnapshot::capture(&sys);
    let total = |key: String| snap.get(&key).unwrap_or_else(|| panic!("no metric {key}"));
    let sum = |f: &dyn Fn(&TelemetrySample) -> u64| tel.samples().map(f).sum::<u64>();
    assert_eq!(sum(&|s| s.dram_reads), total("dram.reads".into()));
    assert_eq!(sum(&|s| s.dram_writes), total("dram.writes".into()));
    for i in 0..TELEMETRY_CORES {
        let l1 = |name: &str| total(format!("l1.{i}.{name}"));
        assert_eq!(
            sum(&|s| s.cores[i].ops),
            l1("loads") + l1("stores") + l1("amos"),
            "core {i} ops"
        );
        assert_eq!(sum(&|s| s.cores[i].skips), l1("writebacks_skipped"));
        assert_eq!(sum(&|s| s.cores[i].enqueued), l1("writebacks_enqueued"));
        for (ch_idx, ch) in ['a', 'b', 'c', 'd', 'e'].into_iter().enumerate() {
            assert_eq!(
                sum(&|s| s.cores[i].link_beats[ch_idx]),
                total(format!("link.{ch}.{i}.pushed")),
                "core {i} channel {ch} beats"
            );
        }
    }
    // The final (partial) sample ends exactly at the last simulated cycle.
    let first = tel.samples().next().expect("run is long enough to sample");
    assert_eq!(
        first.cycle - first.span + sum(&|s| s.span),
        cycles,
        "telemetry samples do not tile the run"
    );
    assert_eq!(tel.to_json().matches("\"cycle\":").count(), tel.len());
    assert_eq!(
        tel.to_csv().lines().count(),
        1 + tel.len() * TELEMETRY_CORES
    );
}

/// The Perfetto counter tracks of the Chrome-trace export are well formed:
/// 6 per-core and 2 system-wide `"ph":"C"` events per boundary-aligned
/// sample, each with `pid` and `args`, each stamped on the sampling grid.
#[test]
fn telemetry_counter_tracks_are_well_formed() {
    let (sys, _) = telemetry_run();
    let tel = sys.telemetry().expect("live sampler");
    let json = sys.export_chrome_trace();
    assert!(
        json.starts_with(r#"{"displayTimeUnit":"ms","traceEvents":["#) && json.ends_with("]}"),
        "chrome trace envelope malformed"
    );
    let counters: Vec<&str> = json
        .split("},{")
        .filter(|e| e.contains(r#""ph":"C""#))
        .collect();
    let grid: Vec<u64> = tel
        .samples()
        .filter(|s| s.cycle % tel.interval() == 0)
        .map(|s| s.cycle)
        .collect();
    assert_eq!(counters.len(), grid.len() * (6 * TELEMETRY_CORES + 2));
    for c in &counters {
        assert!(
            c.contains(r#""args":{"#) && c.contains(r#""pid":"#),
            "counter event missing pid/args: {c}"
        );
        let ts: u64 = c
            .split(r#""ts":"#)
            .nth(1)
            .and_then(|r| r.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("counter event without numeric ts: {c}"));
        assert!(
            grid.contains(&ts),
            "counter event off the sampling grid: {c}"
        );
    }
}
