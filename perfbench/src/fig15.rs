//! `fig15_warm_grid`: the 16-point reduced Fig. 15 grid (List + BST ×
//! update 0/5/20/50 % × {plain, skip-it}, NvTraverse), warm-started from
//! four fill snapshots and run by `SweepRunner`.
//!
//! Chosen because it is the committed grid's wall clock: `sweep`, `snap`
//! restore and `pds` traversal, with `dcache` seeing writes beside reads
//! and flush-on-traverse (Fig. 9 is all writebacks, the service 95 %
//! reads).

use crate::affinity::{self, Spread};
use crate::out::{current_span, span, span_in, Json};
use crate::{fnv1a, hex, percentile, Args, EngineAcc, Report, Unit};
use skipit_bench::sweeps::{fig15_label, fig15_reduced_sweep};
use skipit_core::EngineKind;
use skipit_pds::{
    prefill_snapshot, run_set_benchmark, run_set_benchmark_warm, warm_key, BenchResult, DsKind,
    OptKind, PersistMode, WarmSet, WorkloadCfg,
};
use skipit_sweep::{Point, PointOutput, Sweep, SweepRunner, WarmState};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker cores (= simulated threads) of every point.
const THREADS: usize = 2;
/// Grid runs measured on the fills of one set-up.
const GRIDS_PER_SETUP: usize = 3;
/// The point the held-out warm-versus-cold check reruns cold.
const COLD_CHECK: (DsKind, u32, &str) = (DsKind::Bst, 20, "skip-it");

/// The grid's points in `fig15_reduced_sweep` order: label, method name
/// and configuration.
fn points(seed: u64, tiny: bool, engine: EngineKind) -> Vec<(String, &'static str, WorkloadCfg)> {
    let mut out = Vec::new();
    for ds in [DsKind::List, DsKind::Bst] {
        for update_pct in [0u32, 5, 20, 50] {
            for (name, opt) in [("plain", OptKind::Plain), ("skip-it", OptKind::SkipIt)] {
                let cfg = WorkloadCfg {
                    ds,
                    mode: PersistMode::NvTraverse,
                    opt,
                    threads: THREADS,
                    key_range: if tiny { 128 } else { 1024 },
                    prefill: if tiny { 64 } else { 512 },
                    update_pct,
                    budget_cycles: if tiny { 10_000 } else { 60_000 },
                    seed,
                    hash_buckets: 256,
                    engine,
                };
                out.push((fig15_label(ds, update_pct, name), name, cfg));
            }
        }
    }
    out
}

/// What the point closures record for the benchmark, by point index.
struct PointRecord {
    wall_s: f64,
    result: BenchResult,
}

type Records = Arc<Mutex<BTreeMap<usize, PointRecord>>>;

/// The grid as a sweep whose prefills hand out the already-built fills and
/// whose points time their own `run_set_benchmark_warm` call.
fn sweep(
    seed: u64,
    grid: &[(String, &'static str, WorkloadCfg)],
    fills: &BTreeMap<String, WarmSet>,
    records: &Records,
    spread: &Arc<Spread>,
) -> Sweep {
    let mut sweep = Sweep::new("fig15_sweep_16pt")
        .unit("ops_per_mcycle")
        .seed(seed);
    for (key, ws) in fills {
        let ws = ws.clone();
        sweep = sweep.prefill(key.clone(), move || {
            let bytes = ws.encoded_bytes();
            WarmState::new(ws.clone(), bytes)
        });
    }
    let parent = current_span();
    for (index, (label, method, cfg)) in grid.iter().enumerate() {
        let (cfg, records, spread) = (*cfg, Arc::clone(records), Arc::clone(spread));
        sweep.push(
            Point::new(label.clone(), move |ctx| {
                spread.pin();
                let warm = ctx
                    .warm::<WarmSet>()
                    .expect("every point's fill is registered");
                let t = Instant::now();
                let result = span_in(parent, "pds.run_set_benchmark_warm", || {
                    run_set_benchmark_warm(&cfg, warm)
                });
                let wall_s = t.elapsed().as_secs_f64();
                let out = PointOutput::new()
                    .with_cycles(result.cycles)
                    .value("ops_per_mcycle", result.throughput());
                records
                    .lock()
                    .expect("a point panicked while recording")
                    .insert(index, PointRecord { wall_s, result });
                out
            })
            .warm(warm_key(&cfg))
            .param("structure", cfg.ds.name())
            .param("update_pct", cfg.update_pct)
            .param("method", *method),
        );
    }
    sweep
}

/// The distinct fills of `grid`, simulated and snapshotted on `workers`
/// host threads, each pinned to a CPU of its own (each fill is
/// independent of the others).
fn fills(
    grid: &[(String, &'static str, WorkloadCfg)],
    workers: usize,
    cpus: &[usize],
) -> BTreeMap<String, WarmSet> {
    let spread = Spread::new(cpus);
    let mut cfgs: Vec<WorkloadCfg> = Vec::new();
    for (_, _, cfg) in grid {
        if !cfgs.iter().any(|c| warm_key(c) == warm_key(cfg)) {
            cfgs.push(*cfg);
        }
    }
    let next = AtomicUsize::new(0);
    let done = Mutex::new(BTreeMap::new());
    let parent = current_span();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                spread.pin();
                while let Some(cfg) = cfgs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let ws = span_in(parent, "pds.prefill_snapshot", || prefill_snapshot(cfg));
                    done.lock()
                        .expect("a fill panicked")
                        .insert(warm_key(cfg), ws);
                }
            });
        }
    });
    done.into_inner().expect("a fill panicked")
}

pub fn run(args: &Args) -> Report {
    let grid = points(args.seed, args.tiny, args.engine);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut rep = Report::default();
    let mut engine = EngineAcc::default();
    let (mut snapshot_s, mut snap_bytes, mut points_s, mut idle_s, mut set_ops) =
        (0.0, 0u64, 0.0, 0.0, 0u64);
    let mut first_rows: BTreeMap<usize, PointRecord> = BTreeMap::new();
    // Each point's threads hand the simulation to each other, so each
    // worker is pinned to a host CPU of its own (see `affinity`).
    let cpus = affinity::allowed();
    let start = Instant::now();
    while !args.done(start) || rep.units.is_empty() {
        // Set-up: simulate and snapshot the four fills.
        let t = Instant::now();
        let fills = fills(&grid, workers, &cpus);
        let setup_s = t.elapsed().as_secs_f64();
        rep.setup_s.push((setup_s, None));
        if args.traced {
            snapshot_s += setup_s;
            snap_bytes += fills.values().map(WarmSet::encoded_bytes).sum::<u64>();
        }

        // A set-up costs several grid runs, so each serves a few of them.
        for _ in 0..GRIDS_PER_SETUP {
            let records: Records = Arc::default();
            let t = Instant::now();
            let spread = Arc::new(Spread::new(&cpus));
            let report = span("sweep.SweepRunner::run", || {
                SweepRunner::new()
                    .threads(workers)
                    .run(sweep(args.seed, &grid, &fills, &records, &spread))
            });
            let wall_s = t.elapsed().as_secs_f64();
            // A one-worker runner runs its points on this thread.
            affinity::set(&cpus);
            let records = std::mem::take(&mut *records.lock().expect("sweep finished"));
            let failed = report.failed_rows().count() as u64;
            rep.units.push(Unit {
                wall_s,
                cpu: None,
                sim_total_cycles: report.total_sim_cycles(),
                attempted: grid.len() as u64,
                failed,
                outputs: Json::obj([("sweep_json_fnv64", hex(fnv1a(report.to_json().as_bytes())))]),
            });
            if args.traced {
                let rep_points_s: f64 = records.values().map(|r| r.wall_s).sum();
                points_s += rep_points_s;
                idle_s += workers as f64 * wall_s - rep_points_s;
                for r in records.values() {
                    engine.add(&Default::default(), &r.result.engine, r.wall_s);
                    set_ops += r.result.ops;
                }
            }
            if first_rows.is_empty() {
                rep.check(
                    "all_points_ok",
                    report.all_ok(),
                    format!("{failed} error rows"),
                );
                first_rows = records;
            }
            if args.done(start) {
                break;
            }
        }
    }

    let (ops, cycles): (u64, u64) = first_rows
        .values()
        .fold((0, 0), |(o, c), r| (o + r.result.ops, c + r.result.cycles));
    let op_latency: Vec<f64> = first_rows
        .values()
        .map(|r| r.result.cycles as f64 * THREADS as f64 / r.result.ops.max(1) as f64)
        .collect();
    rep.sim_cycles = cycles as f64;
    rep.sim_p50_cycles = percentile(&op_latency, 0.5);
    rep.sim_p999_cycles = percentile(&op_latency, 0.999);
    rep.sim_ops_per_mcycle = ops as f64 * 1e6 / cycles.max(1) as f64;

    // The cold rerun is a thread-mode run as well: keep its threads together.
    affinity::pin_turn(&cpus, 0);
    warm_equals_cold(&grid, &first_rows, &mut rep);
    affinity::set(&cpus);
    if args.reference {
        let committed = SweepRunner::new()
            .threads(workers)
            .run(fig15_reduced_sweep(true));
        rep.outputs.push((
            "fig15_reduced_sweep_json_fnv64",
            hex(fnv1a(committed.to_json().as_bytes())),
        ));
    }
    if args.traced {
        rep.layers.extend(engine.layers());
        rep.layers.extend([
            ("snap.snapshot_s", snapshot_s),
            ("snap.bytes", snap_bytes as f64),
            ("sweep.points_s", points_s),
            ("sweep.idle_s", idle_s),
            ("pds.set_ops", set_ops as f64),
            ("service.gen_s", 0.0),
            ("replay.encode_s", 0.0),
            ("replay.decode_s", 0.0),
            ("replay.run_s", 0.0),
        ]);
        let owned = "run_set_benchmark_warm builds, restores and drops its System inside \
                     the call, so this is not observable from outside the program";
        let mut unmeasured: Vec<&'static str> =
            vec!["boom.frontend.rendezvous_s", "snap.restore_s"];
        unmeasured.extend(crate::COUNTER_NAMES);
        for name in unmeasured {
            rep.layers.push((name, 0.0));
            rep.unmeasured.push((name, owned.to_string()));
        }
    }
    rep
}

/// Held-out invariant: one point's warm-started result equals a cold run
/// of the same configuration (ops, cycles, statistics, engine counters).
fn warm_equals_cold(
    grid: &[(String, &'static str, WorkloadCfg)],
    rows: &BTreeMap<usize, PointRecord>,
    rep: &mut Report,
) {
    let (ds, update_pct, method) = COLD_CHECK;
    let label = fig15_label(ds, update_pct, method);
    let Some((index, (_, _, cfg))) = grid.iter().enumerate().find(|(_, p)| p.0 == label) else {
        return;
    };
    let cold = span("pds.run_set_benchmark", || run_set_benchmark(cfg));
    let ok = rows.get(&index).is_some_and(|w| {
        w.result.ops == cold.ops
            && w.result.cycles == cold.cycles
            && w.result.stats == cold.stats
            && w.result.engine == cold.engine
    });
    rep.check(
        "warm_equals_cold",
        ok,
        format!("{label}: cold ops {} cycles {}", cold.ops, cold.cycles),
    );
}
