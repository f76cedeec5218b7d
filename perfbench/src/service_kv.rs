//! `service_kv`: the committed `storm/g560/skip-it` service grid point — an
//! open-loop KV service in thread mode, 2 lanes, Zipf 0.99 keys, Poisson
//! mean gap 560, YCSB-B, synchronized expiration storms, Skip It hardware.
//!
//! Chosen because the thread-mode rendezvous, the `pds` host logic and
//! wheel jumps over think-time gaps dominate its host time, while the flush
//! unit does little (Skip It elides most storm flushes) and the program
//! frontend, `snap` and `sweep` do nothing.

use crate::out::{span, Json};
use crate::{affinity, counters, hex, Args, EngineAcc, Report, Unit};
use skipit_core::{LineAddr, System, SystemBuilder};
use skipit_pds::alloc::{FieldStride, SimAlloc};
use skipit_pds::{HashTable, OptKind};
use skipit_replay::{MemTrace, TraceReplay};
use skipit_service::{
    build_lanes, Arrivals, KeyDist, ReqKind, Request, ServiceCfg, ServiceWorkload, Stress,
    CACHE_BASE,
};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per measured unit.
const SETUPS_PER_UNIT: usize = 8;

/// The workload's configuration (`tiny` is the self-test size).
pub fn cfg(seed: u64, tiny: bool) -> ServiceCfg {
    ServiceCfg {
        cores: 2,
        requests_per_core: if tiny { 300 } else { 24_000 },
        key_range: if tiny { 256 } else { 2048 },
        prefill: if tiny { 128 } else { 1024 },
        dist: KeyDist::from_skew(0.99),
        arrivals: Arrivals::Poisson { mean_gap: 560 },
        stress: Stress::ExpirationStorm {
            every_cycles: if tiny { 2_000 } else { 20_000 },
            lines: if tiny { 4 } else { 16 },
        },
        opt: OptKind::SkipIt,
        seed,
        hash_buckets: if tiny { 64 } else { 512 },
        ..ServiceCfg::default()
    }
}

fn generate(cfg: &ServiceCfg) -> Vec<Vec<Request>> {
    build_lanes(
        cfg.cores,
        cfg.requests_per_core,
        cfg.key_range,
        cfg.dist,
        cfg.arrivals,
        cfg.mix,
        &cfg.tenants,
        cfg.stress,
        cfg.seed,
    )
}

/// Set operations the generated lanes issue (expiries touch only the
/// cache slot).
fn set_ops(lanes: &[Vec<Request>]) -> u64 {
    lanes
        .iter()
        .flatten()
        .map(|r| match r.kind {
            ReqKind::Read | ReqKind::Insert | ReqKind::Remove => 1,
            ReqKind::Scan { len } => len as u64,
            ReqKind::Expire => 0,
        })
        .sum()
}

fn poke(sys: &mut System, addr: u64, value: u64) {
    let line = LineAddr::containing(addr);
    let mut data = sys.dram().read_direct(line);
    data.set_word(LineAddr::word_index(addr), value);
    sys.dram_mut().write_direct(line, data);
}

/// Writes the memory image `ServiceWorkload` sets up before its first
/// simulated cycle (the hash table's bucket array and every key's cache
/// slot), so a replay of its captured traffic starts from the same data.
/// The replay check below proves the image right: any difference shows up
/// as diverging statistics.
fn service_preimage(sys: &mut System, cfg: &ServiceCfg) {
    let alloc = Arc::new(SimAlloc::new(0x1000_0000, 1 << 28, FieldStride::Word));
    HashTable::new(cfg.hash_buckets, alloc, |a, v| poke(sys, a, v));
    for key in 1..=cfg.key_range {
        poke(sys, CACHE_BASE + key * 64, key);
    }
}

pub fn run(args: &Args) -> Report {
    let cfg = cfg(args.seed, args.tiny);
    let builder = || cfg.builder().engine(args.engine);
    let mut rep = Report::default();
    let mut gen_s = Vec::new();
    // The lanes hand the simulation to each other, so each run's threads
    // share one host CPU, the next one in turn (see `affinity`).
    let cpus = affinity::allowed();
    let start = Instant::now();
    for round in 0.. {
        let cpu = affinity::pin_turn(&cpus, round);
        // Set-up: generate the request lanes (the benchmark needs their
        // length to check the report) and build the system. It takes
        // milliseconds, so it is timed several times per unit; the unit
        // uses the last one.
        let mut setup = None;
        for _ in 0..SETUPS_PER_UNIT {
            let t = Instant::now();
            let lanes = span("service.build_lanes", || generate(&cfg));
            gen_s.push(t.elapsed().as_secs_f64());
            let sys = span("core.SystemBuilder::build", || builder().build());
            rep.setup_s.push((t.elapsed().as_secs_f64(), cpu));
            setup = Some((lanes, sys));
        }
        let (lanes, mut sys) = setup.expect("at least one set-up per unit");

        let first = rep.units.is_empty();
        if args.traced && first {
            sys.start_capture();
        }
        let t = Instant::now();
        let run = span("boom.System::run(ServiceWorkload)", || {
            sys.run(ServiceWorkload::new(cfg.clone()))
        });
        let wall_s = t.elapsed().as_secs_f64();
        let r = &run.output;

        let expected: u64 = lanes.iter().map(|l| l.len() as u64).sum();
        let slo = r.slo(&[]);
        let ok = r.hist.count() == r.requests
            && r.requests == expected
            && slo.p50 <= slo.p99
            && slo.p99 <= slo.p999;
        rep.units.push(Unit {
            wall_s,
            cpu,
            sim_total_cycles: run.cycles,
            attempted: 1,
            failed: u64::from(!ok),
            outputs: Json::obj([
                ("digest", hex(r.digest)),
                ("requests", r.requests.into()),
                ("cycles", r.cycles.into()),
                ("fill_cycles", r.fill_cycles.into()),
                ("p50", slo.p50.into()),
                ("p99", slo.p99.into()),
                ("p999", slo.p999.into()),
                ("mean", slo.mean.into()),
                (
                    "stats",
                    Json::obj(counters(&sys).into_iter().map(|(k, v)| (k, v.into()))),
                ),
            ]),
        });
        if first {
            rep.check(
                "histogram_count_equals_requests",
                ok,
                format!(
                    "hist {} requests {} generated {expected}",
                    r.hist.count(),
                    r.requests
                ),
            );
            rep.sim_cycles = r.cycles as f64;
            rep.sim_p50_cycles = slo.p50 as f64;
            rep.sim_p999_cycles = slo.p999 as f64;
            rep.sim_ops_per_mcycle = r.throughput();
            if args.traced {
                let mut engine = EngineAcc::default();
                engine.add(&Default::default(), &sys.engine_stats(), wall_s);
                rep.layers.extend(engine.layers());
                rep.layers
                    .extend(counters(&sys).into_iter().map(|(k, v)| (k, v as f64)));
                rep.layers.push(("pds.set_ops", set_ops(&lanes) as f64));
                replay_layers(&mut rep, &mut sys, &cfg, builder(), wall_s);
            }
        }
        if args.done(start) && round + 1 >= cpus.len() {
            break;
        }
    }
    affinity::set(&cpus);
    if args.traced {
        let median = crate::percentile(&gen_s, 0.5);
        rep.layers.push(("service.gen_s", median));
        for name in ["snap.snapshot_s", "snap.restore_s", "snap.bytes"] {
            rep.layers.push((name, 0.0));
        }
        for name in ["sweep.points_s", "sweep.idle_s"] {
            rep.layers.push((name, 0.0));
        }
    }
    rep
}

/// Replays the captured traffic of the first run without worker threads:
/// the thread-mode wall minus the replay wall is the rendezvous cost.
fn replay_layers(
    rep: &mut Report,
    sys: &mut System,
    cfg: &ServiceCfg,
    builder: SystemBuilder,
    thread_wall_s: f64,
) {
    let trace = MemTrace::from_capture(cfg.cores as u32, 0, &sys.take_capture());
    let t = Instant::now();
    let bytes = span("replay.MemTrace::to_bytes", || trace.to_bytes());
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decoded = span("replay.MemTrace::from_bytes", || {
        MemTrace::from_bytes(&bytes)
    });
    let decode_s = t.elapsed().as_secs_f64();
    let mut replayed = builder.build();
    service_preimage(&mut replayed, cfg);
    let t = Instant::now();
    let same_trace = decoded.as_ref() == Ok(&trace);
    let report = span("boom.System::run(TraceReplay)", || {
        replayed.run(TraceReplay::new(trace))
    });
    let run_s = t.elapsed().as_secs_f64();
    rep.layers.extend([
        ("replay.encode_s", encode_s),
        ("replay.decode_s", decode_s),
        ("replay.run_s", run_s),
    ]);
    let reproduced = same_trace && report.cycles == sys.now() && replayed.stats() == sys.stats();
    if reproduced {
        rep.layers
            .push(("boom.frontend.rendezvous_s", thread_wall_s - run_s));
    } else {
        rep.layers.push(("boom.frontend.rendezvous_s", 0.0));
        rep.unmeasured.push((
            "boom.frontend.rendezvous_s",
            format!(
                "replay did not reproduce the captured run (decoded equal: {same_trace}, \
                 cycles {} vs {}, stats equal: {})",
                report.cycles,
                sys.now(),
                replayed.stats() == sys.stats()
            ),
        ));
    }
}
