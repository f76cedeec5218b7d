//! The paper's §7 figure grids described as [`skipit_sweep::Sweep`]s.
//!
//! Each builder returns the full parameter grid of one figure as a sweep of
//! independent points, so the `figures` bench (through
//! [`crate::figures`]) and `simspeed`'s sweep wall-clock section all
//! execute through the same sharded [`skipit_sweep::SweepRunner`]. Every
//! point builds its own `System` inside its closure, which is what makes the
//! grids relocatable across worker threads, and runs its sample once: the
//! simulation is deterministic, so repetitions would only repeat the same
//! number. Builders whose grid shrinks under `SKIPIT_BENCH_QUICK=1` take
//! `quick` as an argument; none reads the environment.
//!
//! The §7.4 set grids (Figs. 15–16) are **warm-started**: each distinct
//! fill phase ([`skipit_pds::warm_key`]) is registered once as a sweep
//! prefill that snapshots the filled platform
//! ([`skipit_pds::prefill_snapshot`]), and every grid point restores that
//! shared snapshot and runs only its measured phase
//! ([`skipit_pds::run_set_benchmark_warm`]). Fig. 15's four update ratios
//! of one structure × method cell share a single simulated fill, and the
//! results are bit-identical to the cold path (the pds crate's
//! `warm_benchmark_matches_cold_exactly` test and `simspeed`'s
//! `warm_sweep` section both enforce this).

use crate::micro::{
    dirty_region, fig10_sample, fig13_sample, fig9_sample, region_lines, system, writeback_region,
};
use crate::{fmt_size, size_sweep};
use skipit_core::{DramConfig, L2Config, Op, PerturbConfig, Programs, SystemBuilder, SystemStats};
use skipit_pds::{
    prefill_snapshot, run_set_benchmark, run_set_benchmark_warm, warm_key, BenchResult, DsKind,
    OptKind, PersistMode, WarmSet, WorkloadCfg,
};
use skipit_replay::{MemTrace, TraceReplay};
use skipit_service::{Arrivals, KeyDist, ServiceCfg, ServiceWorkload, Stress};
use skipit_sweep::{Point, PointCtx, PointOutput, Sweep, WarmState};
use std::collections::BTreeSet;

/// Base address of the FliT counter table used by Figs. 14–16.
pub const FLIT_TABLE: u64 = 0x0800_0000;

/// The redundant-flush-elimination methods of Figs. 14 and 15, in figure
/// order.
pub fn fig15_opts() -> Vec<(&'static str, OptKind)> {
    vec![
        ("plain", OptKind::Plain),
        ("flit-adjacent", OptKind::FlitAdjacent),
        (
            "flit-hash",
            OptKind::FlitHash {
                base: FLIT_TABLE,
                slots: 4096,
            },
        ),
        ("link-and-persist", OptKind::LinkAndPersist),
        ("skip-it", OptKind::SkipIt),
    ]
}

/// Row label of one Fig. 15 grid point.
pub fn fig15_label(ds: DsKind, update_pct: u32, method: &str) -> String {
    format!("{}/{update_pct}%/{method}", ds.name())
}

/// Snapshots the fill phase of `cfg` as a [`WarmState`] (the closure a
/// sweep prefill runs once per distinct [`warm_key`]).
fn fill_state(cfg: WorkloadCfg) -> WarmState {
    let ws = prefill_snapshot(&cfg);
    let bytes = ws.encoded_bytes();
    WarmState::new(ws, bytes)
}

/// Registers the fill phase of `cfg` as a prefill of `sweep` unless an
/// identical fill (same [`warm_key`]) is already registered, and returns
/// the key to tag the point with via [`Point::warm`].
fn register_fill(sweep: Sweep, seen: &mut BTreeSet<String>, cfg: WorkloadCfg) -> (Sweep, String) {
    let key = warm_key(&cfg);
    if seen.insert(key.clone()) {
        (sweep.prefill(key.clone(), move || fill_state(cfg)), key)
    } else {
        (sweep, key)
    }
}

/// Restores the shared fill snapshot delivered to a warm point and runs
/// `cfg`'s measured phase on it.
fn warm_result(ctx: &PointCtx, cfg: &WorkloadCfg) -> BenchResult {
    let warm = ctx
        .warm::<WarmSet>()
        .expect("a fill was registered for this point's warm key");
    run_set_benchmark_warm(cfg, warm)
}

/// The full Fig. 15 grid (structure × update% × applicable method) as a
/// sweep. `quick` shrinks key ranges and budgets. Warm-started: the
/// four update ratios of each structure × method cell share one simulated
/// fill.
pub fn fig15_sweep(quick: bool) -> Sweep {
    let mut sweep = Sweep::new("fig15_update_sweep")
        .unit("ops_per_mcycle")
        .seed(11);
    let mut fills = BTreeSet::new();
    for ds in DsKind::ALL {
        for update_pct in [0u32, 5, 20, 50] {
            for (name, opt) in fig15_opts() {
                if !opt.applicable_to(ds) {
                    continue;
                }
                let (key_range, prefill) = if quick {
                    match ds {
                        DsKind::List => (128, 64),
                        _ => (1024, 512),
                    }
                } else {
                    match ds {
                        DsKind::List => (1024, 512),
                        _ => (16384, 8192),
                    }
                };
                let cfg = WorkloadCfg {
                    ds,
                    mode: PersistMode::NvTraverse,
                    opt,
                    threads: 2,
                    key_range,
                    prefill,
                    update_pct,
                    budget_cycles: if quick { 30_000 } else { 200_000 },
                    seed: 11,
                    hash_buckets: if quick { 256 } else { 1024 },
                    ..WorkloadCfg::default()
                };
                let (warmed, key) = register_fill(sweep, &mut fills, cfg);
                sweep = warmed;
                sweep.push(
                    Point::new(fig15_label(ds, update_pct, name), move |ctx| {
                        set_output(&warm_result(ctx, &cfg))
                    })
                    .warm(key)
                    .param("structure", ds.name())
                    .param("update_pct", update_pct)
                    .param("method", name),
                );
            }
        }
    }
    sweep
}

/// A 16-point reduction of the Fig. 15 grid (List + Bst, plain vs skip-it)
/// sized for `simspeed`'s sweep wall-clock comparison: long enough per
/// point to measure, short enough to run twice (serial + parallel) in CI.
///
/// `warm` selects between the cold path (every point simulates its own
/// fill) and the warm path (the grid's four distinct fills are snapshotted
/// once and shared). Both produce bit-identical result tables —
/// `simspeed`'s `warm_sweep` section measures the wall-clock gap and
/// cross-checks the identity.
pub fn fig15_reduced_sweep(warm: bool) -> Sweep {
    let mut sweep = Sweep::new("fig15_sweep_16pt")
        .unit("ops_per_mcycle")
        .seed(11);
    let mut fills = BTreeSet::new();
    for ds in [DsKind::List, DsKind::Bst] {
        for update_pct in [0u32, 5, 20, 50] {
            for (name, opt) in [("plain", OptKind::Plain), ("skip-it", OptKind::SkipIt)] {
                let cfg = WorkloadCfg {
                    ds,
                    mode: PersistMode::NvTraverse,
                    opt,
                    threads: 2,
                    key_range: 1024,
                    prefill: 512,
                    update_pct,
                    budget_cycles: 60_000,
                    seed: 11,
                    hash_buckets: 256,
                    ..WorkloadCfg::default()
                };
                let point = Point::new(fig15_label(ds, update_pct, name), move |ctx| {
                    let r = if warm {
                        warm_result(ctx, &cfg)
                    } else {
                        run_set_benchmark(&cfg)
                    };
                    PointOutput::new()
                        .with_cycles(r.cycles)
                        .value("ops_per_mcycle", r.throughput())
                })
                .param("structure", ds.name())
                .param("update_pct", update_pct)
                .param("method", name);
                if warm {
                    let (warmed, key) = register_fill(sweep, &mut fills, cfg);
                    sweep = warmed;
                    sweep.push(point.warm(key));
                } else {
                    sweep.push(point);
                }
            }
        }
    }
    sweep
}

/// A point's measured `cycles` plus the counters every figure point
/// records: writebacks dropped at the L1s (Skip It), root releases whose
/// DRAM write the L2 skipped, and lines written to DRAM.
fn counters(cycles: u64, stats: &SystemStats) -> PointOutput {
    let l1_skipped: u64 = stats.l1.iter().map(|s| s.writebacks_skipped).sum();
    PointOutput::new()
        .with_cycles(cycles)
        .value("l1_skipped", l1_skipped as f64)
        .value("l2_dram_skips", stats.l2.root_release_dram_skipped as f64)
        .value("dram_writes", stats.mem.writes as f64)
}

/// What a persistent-set point (Figs. 14–16) records: its counters and
/// ops/Mcycle.
fn set_output(r: &BenchResult) -> PointOutput {
    counters(r.cycles, &r.stats).value("ops_per_mcycle", r.throughput())
}

/// Row label of one point of the writeback-microbenchmark grids
/// (Figs. 9, 10 and 13): thread count, region size, variant.
pub fn micro_label(threads: u64, size: u64, variant: &str) -> String {
    format!("{threads}t/{}/{variant}", fmt_size(size))
}

/// A thread count × writeback size × variant grid of the writeback
/// microbenchmark, skipping combos with fewer lines than threads like the
/// paper. Each point runs `sample(threads, size, variant)` once: the
/// simulator is deterministic, so a repeated sample on a fresh or a reused
/// system returns the same cycles (`micro::tests::samples_repeat_exactly`).
fn micro_sweep(
    name: &str,
    seed: u64,
    thread_counts: &[u64],
    variants: [&'static str; 2],
    sample: fn(u64, u64, &str) -> PointOutput,
) -> Sweep {
    let mut sweep = Sweep::new(name).unit("cycles").seed(seed);
    for &threads in thread_counts {
        for size in size_sweep() {
            if size / 64 < threads {
                continue;
            }
            for variant in variants {
                sweep.push(
                    Point::new(micro_label(threads, size, variant), move |_ctx| {
                        sample(threads, size, variant)
                    })
                    .param("threads", threads)
                    .param("size", fmt_size(size))
                    .param("variant", variant),
                );
            }
        }
    }
    sweep
}

/// The Fig. 9 grid: CBO.FLUSH and CBO.CLEAN writeback latency over 1/2/4/8
/// threads × 64 B … 32 KiB. Its 1- and 8-thread rows are also the
/// SonicBOOM columns of Figs. 11 and 12.
pub fn fig9_sweep() -> Sweep {
    micro_sweep(
        "fig09_cbo_scaling",
        9,
        &[1, 2, 4, 8],
        ["flush", "clean"],
        |threads, size, variant| {
            let mut sys = system(threads as usize, false);
            let cycles = fig9_sample(&mut sys, threads, size, variant == "clean");
            counters(cycles, &sys.stats())
        },
    )
}

/// The Fig. 10 grid: ten write + writeback rounds, fence, re-read, with
/// CBO.CLEAN vs CBO.FLUSH on 1 and 8 threads.
pub fn fig10_sweep() -> Sweep {
    micro_sweep(
        "fig10_clean_vs_flush",
        10,
        &[1, 8],
        ["clean", "flush"],
        |threads, size, variant| {
            let mut sys = system(threads as usize, false);
            let cycles = fig10_sample(&mut sys, threads, size, variant == "clean");
            counters(cycles, &sys.stats())
        },
    )
}

/// The Fig. 13 grid: store + writeback + 10 redundant writebacks per line
/// on the naive flush unit vs Skip It, 1 and 8 threads. Each point also
/// checks that DRAM holds every stored word, so a lost write is an error
/// row.
pub fn fig13_sweep() -> Sweep {
    micro_sweep(
        "fig13_skipit_micro",
        13,
        &[1, 8],
        ["naive", "skip-it"],
        |threads, size, variant| {
            let mut sys = system(threads as usize, variant == "skip-it");
            let cycles = fig13_sample(&mut sys, threads, size, 10);
            for t in 0..threads {
                for a in region_lines(t, threads, size) {
                    assert_eq!(sys.dram().read_word_direct(a), a, "line {a:#x} not durable");
                }
            }
            counters(cycles, &sys.stats())
        },
    )
}

/// The persistence disciplines of Fig. 14, in figure order.
const FIG14_MODES: [(&str, PersistMode); 3] = [
    ("automatic", PersistMode::Automatic),
    ("nvtraverse", PersistMode::NvTraverse),
    ("manual", PersistMode::Manual),
];

/// Row label of one Fig. 14 cell; the non-persistent baseline is
/// `{structure}/none/baseline`.
pub fn fig14_label(ds: DsKind, mode: &str, method: &str) -> String {
    format!("{}/{mode}/{method}", ds.name())
}

/// The Fig. 14 grid: every structure × persistence discipline × applicable
/// method at 5 % updates on 2 threads, plus each structure's
/// non-persistent baseline (the figure's dotted line). Inapplicable cells
/// (Link-and-Persist on the BST) have no row.
pub fn fig14_sweep(quick: bool) -> Sweep {
    let mut sweep = Sweep::new("fig14_pds_throughput")
        .unit("ops_per_mcycle")
        .seed(7);
    for ds in DsKind::ALL {
        // Working sets sized like the paper's (§7.4): large enough that
        // the structures thrash the 544 KiB cache hierarchy, which is what
        // exposes FliT's auxiliary-memory cost on this platform.
        let (key_range, prefill) = match (quick, ds) {
            (true, DsKind::List) => (128, 64),
            (true, _) => (2048, 1024),
            (false, DsKind::List) => (1024, 512),
            (false, _) => (16384, 8192),
        };
        let base = WorkloadCfg {
            ds,
            threads: 2,
            key_range,
            prefill,
            update_pct: 5,
            budget_cycles: if quick { 40_000 } else { 250_000 },
            seed: 7,
            hash_buckets: if quick { 256 } else { 1024 },
            ..WorkloadCfg::default()
        };
        let baseline = ("none", "baseline", PersistMode::None, OptKind::Plain);
        let cells = FIG14_MODES.into_iter().flat_map(|(mode_name, mode)| {
            fig15_opts()
                .into_iter()
                .filter(move |(_, opt)| opt.applicable_to(ds))
                .map(move |(name, opt)| (mode_name, name, mode, opt))
        });
        for (mode_name, method, mode, opt) in std::iter::once(baseline).chain(cells) {
            let cfg = WorkloadCfg { mode, opt, ..base };
            sweep.push(
                Point::new(fig14_label(ds, mode_name, method), move |_ctx| {
                    set_output(&run_set_benchmark(&cfg))
                })
                .param("structure", ds.name())
                .param("algorithm", mode_name)
                .param("method", method),
            );
        }
    }
    sweep
}

/// The hardware variants the ablation compares.
const HARDWARE: [(&str, bool); 2] = [("naive", false), ("skip-it", true)];

/// The flush-unit ablation (beyond the paper's figures) as one grid of
/// four sub-grids, told apart by the first label segment:
///
/// - `fshrs/{n}/q{depth}`: a 32 KiB single-thread flush vs FSHR count ×
///   flush-queue depth (the paper fixes 8 FSHRs and a 16-deep queue, §5.2);
/// - `redundant/{n}/{hw}`: one line, store + clean + fence, then `n`
///   redundant clean + fence pairs;
/// - `write_latency/{cy}/{hw}`: the Fig. 13 microbenchmark (4 KiB, 1
///   thread) vs the persistence medium's write latency;
/// - `llc_access/{cy}/{hw}`: the same vs the L2 access latency, the
///   stand-in for the deeper hierarchies §7.4 predicts benefit more.
pub fn ablation_sweep() -> Sweep {
    let mut sweep = Sweep::new("ablation_flush_unit").unit("cycles").seed(17);
    let one_core = SystemBuilder::new().cores(1);
    for fshrs in [1usize, 2, 4, 8, 16] {
        for depth in [4usize, 16, 64] {
            let builder = one_core.fshrs(fshrs).flush_queue_depth(depth);
            sweep.push(
                Point::new(format!("fshrs/{fshrs}/q{depth}"), move |_ctx| {
                    let mut sys = builder.build();
                    dirty_region(&mut sys, 1, 32 * 1024);
                    let cycles = writeback_region(&mut sys, 1, 32 * 1024, false);
                    counters(cycles, &sys.stats())
                })
                .param("fshrs", fshrs)
                .param("queue_depth", depth),
            );
        }
    }
    for redundant in [0usize, 1, 2, 5, 10, 20] {
        let (line, value) = (0x9000, 1);
        let mut prog = vec![
            Op::Store { addr: line, value },
            Op::Clean { addr: line },
            Op::Fence,
        ];
        for _ in 0..redundant {
            prog.extend([Op::Clean { addr: line }, Op::Fence]);
        }
        for (hw, skip_it) in HARDWARE {
            let prog = prog.clone();
            sweep.push(
                Point::new(format!("redundant/{redundant}/{hw}"), move |_ctx| {
                    let mut sys = one_core.skip_it(skip_it).build();
                    let cycles = sys.run(Programs(vec![prog])).cycles;
                    counters(cycles, &sys.stats())
                })
                .param("hardware", hw),
            );
        }
    }
    let write_latency = [30u64, 60, 120, 300, 600].map(|write_latency| {
        let dram = DramConfig {
            write_latency,
            ..DramConfig::default()
        };
        (
            format!("write_latency/{write_latency}"),
            one_core.dram(dram),
        )
    });
    let llc_access = [6u64, 12, 24, 48, 96].map(|access_latency| {
        let l2 = L2Config {
            access_latency,
            ..L2Config::default()
        };
        (format!("llc_access/{access_latency}"), one_core.l2(l2))
    });
    for (cell, builder) in write_latency.into_iter().chain(llc_access) {
        for (hw, skip_it) in HARDWARE {
            sweep.push(
                Point::new(format!("{cell}/{hw}"), move |_ctx| {
                    let mut sys = builder.skip_it(skip_it).build();
                    let cycles = fig13_sample(&mut sys, 1, 4096, 10);
                    counters(cycles, &sys.stats())
                })
                .param("hardware", hw),
            );
        }
    }
    sweep
}

/// The Fig. 16 FliT-table-size sensitivity grid (BST workload) as a sweep.
///
/// Warm-started like Fig. 15. Every point here has a *distinct* fill (the
/// counter-table geometry is part of the fill identity), so warming buys
/// no sharing — it exercises the per-point snapshot path.
pub fn fig16_sweep(quick: bool) -> Sweep {
    let slot_sweep: &[usize] = if quick {
        &[64, 4096, 262_144]
    } else {
        &[64, 256, 1024, 4096, 16_384, 65_536, 262_144, 1_048_576]
    };
    let mut sweep = Sweep::new("fig16_flit_size").unit("ops_per_mcycle").seed(5);
    let mut fills = BTreeSet::new();
    for &slots in slot_sweep {
        let cfg = WorkloadCfg {
            ds: DsKind::Bst,
            mode: PersistMode::Automatic,
            opt: OptKind::FlitHash {
                base: FLIT_TABLE,
                slots,
            },
            threads: 2,
            // The paper's Fig. 16 uses a 10k-key BST: big enough that
            // the counter table competes with the tree for the small
            // caches.
            key_range: if quick { 2048 } else { 20_000 },
            prefill: if quick { 1024 } else { 10_000 },
            update_pct: 20,
            budget_cycles: if quick { 30_000 } else { 200_000 },
            seed: 5,
            hash_buckets: 256,
            ..WorkloadCfg::default()
        };
        let (warmed, key) = register_fill(sweep, &mut fills, cfg);
        sweep = warmed;
        sweep.push(
            Point::new(format!("{slots}"), move |ctx| {
                set_output(&warm_result(ctx, &cfg))
            })
            .warm(key)
            .param("slots", slots)
            .param("table_bytes", slots * 8),
        );
    }
    sweep
}

/// A trace-replay grid: one point per perturbation seed, every point
/// replaying the same captured [`MemTrace`] on a fresh platform.
///
/// Seed `0` replays unperturbed (the reference timing); every other seed
/// replays under [`PerturbConfig::exploring`] jitter, which answers "how
/// sensitive is this recorded workload's cycle count to arbitration
/// order?" without re-running the original (possibly worker-mode, possibly
/// expensive) workload. Like every other grid here the points are
/// independent and relocatable across [`skipit_sweep::SweepRunner`] worker
/// threads, so the table is bit-identical at any thread count.
pub fn replay_sweep(name: impl Into<String>, trace: MemTrace, seeds: &[u64]) -> Sweep {
    let mut sweep = Sweep::new(name).unit("cycles").seed(11);
    for &seed in seeds {
        let trace = trace.clone();
        sweep.push(
            Point::new(format!("seed{seed}"), move |_ctx| {
                let cores = trace.cores() as usize;
                let mut builder = SystemBuilder::new().cores(cores);
                if seed != 0 {
                    builder = builder.perturb(PerturbConfig::exploring(seed));
                }
                let mut sys = builder.build();
                let report = sys.run(TraceReplay::new(trace));
                PointOutput::from_system(&sys).with_cycles(report.cycles)
            })
            .param("seed", seed),
        );
    }
    sweep
}

/// SLO thresholds (cycles) every service grid point evaluates its goodput
/// curve at. The base service latency of the platform is ~265 cycles, so
/// the ladder spans "comfortable" to "only met when unloaded".
pub const SERVICE_SLOS: [u64; 4] = [400, 800, 1600, 6400];

/// The two service frontends compared by the grid: the plain software on
/// plain hardware, and the same software on Skip It hardware.
pub fn service_methods() -> [(&'static str, OptKind); 2] {
    [("baseline", OptKind::Plain), ("skip-it", OptKind::SkipIt)]
}

/// Row label of one service grid point.
pub fn service_label(traffic: &str, gap: u64, method: &str) -> String {
    format!("{traffic}/g{gap}/{method}")
}

/// One service grid configuration: `quick` shrinks the per-point request
/// count the same way the other grids shrink under `SKIPIT_BENCH_QUICK=1`.
fn service_cfg(quick: bool, skew: f64, gap: u64, opt: OptKind, stress: Stress) -> ServiceCfg {
    ServiceCfg {
        cores: 2,
        requests_per_core: if quick { 300 } else { 24_000 },
        key_range: if quick { 256 } else { 2048 },
        prefill: if quick { 128 } else { 1024 },
        dist: KeyDist::from_skew(skew),
        arrivals: Arrivals::Poisson { mean_gap: gap },
        stress,
        opt,
        seed: 23,
        hash_buckets: if quick { 64 } else { 512 },
        ..ServiceCfg::default()
    }
}

/// Lowers one service configuration to a sweep point reporting SLO
/// percentiles and the goodput curve.
fn service_point(label: String, cfg: ServiceCfg) -> Point {
    Point::new(label, move |_ctx| {
        let mut sys = cfg.builder().build();
        let r = sys.run(ServiceWorkload::new(cfg.clone())).output;
        let slo = r.slo(&SERVICE_SLOS);
        let mut out = PointOutput::new()
            .with_cycles(r.cycles)
            .value("requests", r.requests as f64)
            .value("fill_cycles", r.fill_cycles as f64)
            .value("kreq_per_mcycle", r.throughput())
            .value("mean", slo.mean)
            .value("p50", slo.p50 as f64)
            .value("p99", slo.p99 as f64)
            .value("p999", slo.p999 as f64)
            .value("digest_lo", (r.digest & 0xffff_ffff) as f64);
        for g in &slo.goodput {
            out = out
                .value(format!("met_{}", g.slo), g.met)
                .value(format!("goodput_{}", g.slo), g.goodput);
        }
        out
    })
}

/// The service-frontend grid: Zipf skew × open-loop arrival rate ×
/// {baseline, skip-it}, plus stampede and synchronized-expiration-storm
/// stress points at the middle rate. Full size executes ≥ 1 M simulated
/// requests across the grid; every point reports p50/p99/p999 and the
/// goodput-under-SLO curve at [`SERVICE_SLOS`].
///
/// The arrival-rate axis brackets the platform's saturation knee (mean
/// per-lane service time is ~300–400 cycles depending on skew): the
/// fastest rate drives the uniform-key points past the knee, so the grid
/// shows both the stable regime and open-loop queueing collapse.
pub fn service_sweep(quick: bool) -> Sweep {
    let mut sweep = Sweep::new("service_grid").unit("cycles").seed(23);
    for skew in [0.0, 0.99, 1.2] {
        for gap in [400u64, 560, 880] {
            for (method, opt) in service_methods() {
                let cfg = service_cfg(quick, skew, gap, opt, Stress::None);
                sweep.push(
                    service_point(service_label(&format!("s{skew}"), gap, method), cfg)
                        .param("skew", skew)
                        .param("mean_gap", gap)
                        .param("method", method)
                        .param("stress", "none"),
                );
            }
        }
    }
    let stresses = [
        (
            "stampede",
            Stress::Stampede {
                every: 40,
                herd: 12,
            },
        ),
        (
            "storm",
            Stress::ExpirationStorm {
                every_cycles: if quick { 2_000 } else { 20_000 },
                lines: if quick { 4 } else { 16 },
            },
        ),
    ];
    for (name, stress) in stresses {
        for (method, opt) in service_methods() {
            let cfg = service_cfg(quick, 0.99, 560, opt, stress);
            sweep.push(
                service_point(service_label(name, 560, method), cfg)
                    .param("skew", 0.99)
                    .param("mean_gap", 560)
                    .param("method", method)
                    .param("stress", name),
            );
        }
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_grid_covers_every_applicable_combo() {
        let sweep = fig15_sweep(true);
        let applicable: usize = DsKind::ALL
            .iter()
            .map(|&ds| {
                4 * fig15_opts()
                    .iter()
                    .filter(|(_, o)| o.applicable_to(ds))
                    .count()
            })
            .sum();
        assert_eq!(sweep.len(), applicable);
        // One fill per structure × method cell: the four update ratios of a
        // cell share a single snapshotted prefill.
        assert_eq!(sweep.prefill_count(), applicable / 4);
    }

    #[test]
    fn fig15_reduced_is_16_points() {
        assert_eq!(fig15_reduced_sweep(false).len(), 16);
        let warm = fig15_reduced_sweep(true);
        assert_eq!(warm.len(), 16);
        assert_eq!(warm.prefill_count(), 4); // {list,bst} × {plain,skip-it}
        assert_eq!(fig15_reduced_sweep(false).prefill_count(), 0);
    }

    #[test]
    fn micro_grids_skip_thread_heavy_small_sizes() {
        // 10 sizes at 1t, 9 at 2t, 8 at 4t, 7 at 8t; two variants each.
        assert_eq!(fig9_sweep().len(), 2 * (10 + 9 + 8 + 7));
        assert_eq!(fig10_sweep().len(), 2 * (10 + 7));
        assert_eq!(fig13_sweep().len(), 2 * (10 + 7));
    }

    #[test]
    fn fig14_grid_has_no_bst_link_and_persist_cells() {
        // 4 structures × (baseline + 3 disciplines × 5 methods), minus
        // Link-and-Persist on the BST in each discipline.
        let sweep = fig14_sweep(true);
        assert_eq!(sweep.len(), 4 * (1 + 3 * 5) - 3);
        assert!(sweep
            .points()
            .iter()
            .all(|p| !p.label().starts_with("bst/") || !p.label().ends_with("/link-and-persist")));
    }

    #[test]
    fn ablation_grid_has_four_sub_grids() {
        assert_eq!(ablation_sweep().len(), 5 * 3 + 6 * 2 + 5 * 2 + 5 * 2);
    }

    #[test]
    fn fig16_quick_grid() {
        let sweep = fig16_sweep(true);
        assert_eq!(sweep.len(), 3);
        // Every FliT-table size is its own fill identity.
        assert_eq!(sweep.prefill_count(), 3);
    }

    #[test]
    fn service_grid_shape_and_request_floor() {
        let sweep = service_sweep(true);
        // 3 skews x 3 rates x 2 methods + 2 stresses x 2 methods.
        assert_eq!(sweep.len(), 3 * 3 * 2 + 2 * 2);
        // The full-size grid executes at least a million base requests.
        let full_points = 3 * 3 * 2 + 2 * 2;
        assert!(full_points as u64 * 2 * 24_000 >= 1_000_000);
    }

    #[test]
    fn service_grid_runs_and_reports_slo_values() {
        let mut sweep = Sweep::new("service_probe").unit("cycles").seed(23);
        let cfg = service_cfg(true, 0.99, 560, OptKind::Plain, Stress::None);
        let requests = (cfg.requests_per_core * cfg.cores) as f64;
        sweep.push(service_point("probe".into(), cfg));
        let report = skipit_sweep::SweepRunner::new().threads(1).run(sweep);
        assert!(report.all_ok());
        let row = report.get("probe").unwrap();
        assert_eq!(row.value("requests"), Some(requests));
        let (p50, p999) = (row.value("p50").unwrap(), row.value("p999").unwrap());
        assert!(p50 > 0.0 && p50 <= p999);
        for slo in SERVICE_SLOS {
            let met = row.value(&format!("met_{slo}")).unwrap();
            assert!((0.0..=1.0).contains(&met), "met_{slo} = {met}");
        }
    }

    #[test]
    fn replay_grid_is_one_point_per_seed_and_seed0_is_reference() {
        use skipit_core::{Op, System, SystemConfig};
        let mut sys = System::new(SystemConfig {
            cores: 2,
            ..SystemConfig::default()
        });
        sys.start_capture();
        let ref_cycles = sys
            .run(skipit_core::Programs(vec![
                vec![
                    Op::Store {
                        addr: 0x100,
                        value: 1,
                    },
                    Op::Flush { addr: 0x100 },
                    Op::Fence,
                ],
                vec![Op::Load { addr: 0x100 }],
            ]))
            .cycles;
        let trace = MemTrace::from_capture(2, 0, &sys.take_capture());

        let sweep = replay_sweep("replay_jitter", trace, &[0, 1, 2]);
        assert_eq!(sweep.len(), 3);
        let report = skipit_sweep::SweepRunner::new().threads(1).run(sweep);
        assert!(report.all_ok());
        // Seed 0 replays unperturbed: exactly the captured run's timing.
        assert_eq!(report.get("seed0").unwrap().output.cycles, ref_cycles);
    }
}
