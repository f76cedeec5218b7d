//! `fig09_flush_8c`: the Fig. 9 shape in program mode on 8 cores — each
//! core dirties its share of a 128 KiB region (half its L1, so the flush
//! unit does the work, not evictions), then `CBO.FLUSH`es every line and
//! fences; samples repeat on one system.
//!
//! Chosen because every core is due almost every cycle: the busy-cycle
//! path (L1 + flush unit + FSHRs, TileLink, the serial L2 + DRAM phase,
//! the LSU) with no threads, no rendezvous and no snapshots.

use crate::out::{span, Json};
use crate::{add_counter_delta, affinity, counters, percentile, Args, EngineAcc, Report, Unit};
use skipit_bench::micro::{fig9_sample, region_lines};
use skipit_core::{EngineKind, Op, Programs, System, SystemBuilder};
use skipit_service::{splitmix64, SplitMix64};
use std::time::Instant;

/// The seed whose inputs are exactly `skipit_bench::micro::fig9_sample`'s
/// (sequential line order, each line storing its own address).
pub const DEFAULT_SEED: u64 = 9;
const CORES: u64 = 8;
/// Measured samples per system; each system's first sample is set-up.
const SAMPLES_PER_SYSTEM: u64 = 40;
/// Samples the pin and the reference-engine check cover.
const CHECKED_SAMPLES: u64 = 3;

/// The per-core line order and store values a seed generates.
struct Plan {
    seed: u64,
    lines: Vec<Vec<u64>>,
}

impl Plan {
    fn new(seed: u64, total_bytes: u64) -> Plan {
        let lines = (0..CORES)
            .map(|t| {
                let mut lines: Vec<u64> = region_lines(t, CORES, total_bytes).collect();
                if seed != DEFAULT_SEED {
                    let mut rng = SplitMix64::new(splitmix64(seed ^ (t << 32)));
                    for i in (1..lines.len()).rev() {
                        lines.swap(i, rng.gen_range(i as u64 + 1) as usize);
                    }
                }
                lines
            })
            .collect();
        Plan { seed, lines }
    }

    /// The value sample `sample` stores to `addr`.
    fn value(&self, addr: u64, sample: u64) -> u64 {
        if self.seed == DEFAULT_SEED {
            addr
        } else {
            splitmix64(self.seed ^ addr ^ (sample << 48))
        }
    }

    /// One sample: dirty every line, then flush them all and fence.
    /// Returns the writeback phase's cycles, like `fig9_sample`.
    fn sample(&self, sys: &mut System, sample: u64) -> u64 {
        let dirty = self
            .lines
            .iter()
            .map(|lines| {
                lines
                    .iter()
                    .map(|&a| Op::Store {
                        addr: a,
                        value: self.value(a, sample),
                    })
                    .collect()
            })
            .collect();
        sys.run(Programs(dirty));
        let flush = self
            .lines
            .iter()
            .map(|lines| {
                let mut p: Vec<Op> = lines.iter().map(|&a| Op::Flush { addr: a }).collect();
                p.push(Op::Fence);
                p
            })
            .collect();
        sys.run(Programs(flush)).cycles
    }

    /// Whether DRAM holds every value `sample` stored (the fence returned,
    /// so every flush must have reached memory).
    fn persisted(&self, sys: &System, sample: u64) -> bool {
        self.lines
            .iter()
            .flatten()
            .all(|&a| sys.dram().read_word_direct(a) == self.value(a, sample))
    }
}

fn system(engine: EngineKind) -> System {
    SystemBuilder::new()
        .cores(CORES as usize)
        .engine(engine)
        .build()
}

pub fn run(args: &Args) -> Report {
    let total_bytes = if args.tiny { 16 * 1024 } else { 128 * 1024 };
    let plan = Plan::new(args.seed, total_bytes);
    let line_count = plan.lines.iter().map(Vec::len).sum::<usize>() as f64;
    let mut rep = Report::default();
    let mut engine = EngineAcc::default();
    let mut deltas = Vec::new();
    let mut first_cycles = Vec::new();
    let mut sample_cycles = Vec::new();
    // Single-threaded throughout, so each system runs pinned to the next
    // host CPU in turn (see `affinity`).
    let cpus = affinity::allowed();
    let start = Instant::now();
    for round in 0.. {
        let cpu = affinity::pin_turn(&cpus, round);
        // Set-up: build the system and run one unmeasured sample, so the
        // measured samples start from the steady state.
        let t = Instant::now();
        let mut sys = span("core.SystemBuilder::build", || system(args.engine));
        let warm = span("boom.System::run(Programs)", || plan.sample(&mut sys, 0));
        rep.setup_s.push((t.elapsed().as_secs_f64(), cpu));
        let first_system = rep.units.is_empty();
        if first_system {
            rep.outputs.push(("warmup_cycles", warm.into()));
            rep.check(
                "warmup_sample_persisted",
                plan.persisted(&sys, 0),
                "DRAM holds every stored value after the fence",
            );
            first_cycles.push(warm);
        }
        let (engine_before, counters_before) = (sys.engine_stats(), counters(&sys));
        let mut measured_s = 0.0;
        for sample in 1..=SAMPLES_PER_SYSTEM {
            let now = sys.now();
            let t = Instant::now();
            let cycles = span("boom.System::run(Programs)", || {
                plan.sample(&mut sys, sample)
            });
            let wall_s = t.elapsed().as_secs_f64();
            let ok = plan.persisted(&sys, sample);
            if first_system && sample < CHECKED_SAMPLES {
                first_cycles.push(cycles);
            }
            rep.units.push(Unit {
                wall_s,
                cpu,
                sim_total_cycles: sys.now() - now,
                attempted: 1,
                failed: u64::from(!ok),
                outputs: Json::obj([("cycles", cycles.into())]),
            });
            measured_s += wall_s;
            sample_cycles.push(cycles as f64);
        }
        if args.traced {
            engine.add(&engine_before, &sys.engine_stats(), measured_s);
            add_counter_delta(&mut deltas, &counters_before, &counters(&sys));
        }
        if args.done(start) && round + 1 >= cpus.len() {
            break;
        }
    }
    affinity::set(&cpus);
    held_out_checks(args, &plan, &first_cycles, &mut rep);

    rep.sim_cycles = percentile(&sample_cycles, 0.5);
    rep.sim_p50_cycles = rep.sim_cycles;
    rep.sim_p999_cycles = percentile(&sample_cycles, 0.999);
    rep.sim_ops_per_mcycle = line_count * 1e6 / rep.sim_cycles;
    if args.traced {
        rep.layers.extend(engine.layers());
        rep.layers
            .extend(deltas.into_iter().map(|(k, v)| (k, v as f64)));
        // No threads, generator, snapshots, sweep, set operations or
        // replay in this workload: those layers do no work here.
        for name in [
            "boom.frontend.rendezvous_s",
            "service.gen_s",
            "snap.snapshot_s",
            "snap.restore_s",
            "snap.bytes",
            "sweep.points_s",
            "sweep.idle_s",
            "pds.set_ops",
            "replay.encode_s",
            "replay.decode_s",
            "replay.run_s",
        ] {
            rep.layers.push((name, 0.0));
        }
    }
    rep
}

/// Checks that hold on every seed: the reference engine reproduces the
/// first samples' cycles, and (with `--reference`) the default seed's
/// inputs match `fig9_sample`'s.
fn held_out_checks(args: &Args, plan: &Plan, first_cycles: &[u64], rep: &mut Report) {
    let mut naive = system(EngineKind::Naive);
    let reference: Vec<u64> = (0..first_cycles.len() as u64)
        .map(|s| plan.sample(&mut naive, s))
        .collect();
    rep.check(
        "naive_engine_agrees",
        reference == first_cycles,
        format!("wheel {first_cycles:?} naive {reference:?}"),
    );
    if args.reference {
        let mut sys = system(EngineKind::Naive);
        let total_bytes = plan.lines.iter().map(Vec::len).sum::<usize>() as u64 * 64;
        let committed: Vec<Json> = (0..first_cycles.len())
            .map(|_| fig9_sample(&mut sys, CORES, total_bytes, false).into())
            .collect();
        rep.outputs
            .push(("fig9_sample_naive_cycles", Json::Arr(committed)));
    }
}
