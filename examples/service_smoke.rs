//! Service-frontend smoke: the open-loop SLO workload must be bit-identical
//! on both engines, perturbed or not, and its SLO report must be
//! internally consistent.
//!
//! Run with `cargo run --release --example service_smoke` (part of
//! `ci.sh --quick`). Exercises:
//!
//! 1. One Zipfian Poisson workload executed under the naive and
//!    component-wheel engines: request digests, cycle counts and system
//!    stats must agree exactly.
//! 2. The same cross-engine identity under deterministic schedule
//!    perturbation (`PerturbConfig::exploring`).
//! 3. Both stress patterns (cache stampede, synchronized expiration
//!    storm) execute and add their requests.
//! 4. SLO summary sanity: monotone percentiles, met fractions in `[0, 1]`
//!    and monotone in the threshold, goodput bounded by throughput.

use skipit::core::{EngineKind, PerturbConfig};
use skipit::service::{
    Arrivals, KeyDist, OpMix, ServiceCfg, ServiceReport, ServiceWorkload, Stress,
};

const ENGINES: [EngineKind; 2] = [EngineKind::Naive, EngineKind::ComponentWheel];

fn smoke_cfg(stress: Stress) -> ServiceCfg {
    ServiceCfg {
        cores: 2,
        requests_per_core: 300,
        key_range: 192,
        prefill: 64,
        dist: KeyDist::Zipfian { s: 0.99 },
        arrivals: Arrivals::Poisson { mean_gap: 450 },
        mix: OpMix {
            read_pct: 90,
            update_pct: 6,
            scan_pct: 4,
            scan_len: 4,
        },
        stress,
        hash_buckets: 32,
        seed: 31,
        ..ServiceCfg::default()
    }
}

fn run_with(cfg: &ServiceCfg, engine: EngineKind, perturb: bool) -> ServiceReport {
    let mut b = cfg.builder().engine(engine);
    if perturb {
        b = b.perturb(PerturbConfig::exploring(9));
    }
    b.build().run(ServiceWorkload::new(cfg.clone())).output
}

fn assert_identical(cfg: &ServiceCfg, perturb: bool, what: &str) -> ServiceReport {
    let reference = run_with(cfg, ENGINES[0], perturb);
    for engine in &ENGINES[1..] {
        let r = run_with(cfg, *engine, perturb);
        assert_eq!(
            r.digest, reference.digest,
            "{what}: request digest diverged under {engine:?}"
        );
        assert_eq!(
            r.cycles, reference.cycles,
            "{what}: cycles diverged under {engine:?}"
        );
        assert_eq!(
            r.stats, reference.stats,
            "{what}: stats diverged under {engine:?}"
        );
    }
    reference
}

fn main() {
    let base = smoke_cfg(Stress::None);
    let r = assert_identical(&base, false, "base");
    assert_eq!(r.requests, 600, "base request count");
    println!(
        "service smoke: base workload bit-identical on {} engines \
         ({} requests, {} cycles)",
        ENGINES.len(),
        r.requests,
        r.cycles
    );

    let p = assert_identical(&base, true, "perturbed");
    assert_ne!(
        p.digest, r.digest,
        "perturbation should change the schedule (and therefore latencies)"
    );
    println!("service smoke: perturbed workload bit-identical on both engines");

    for (name, stress) in [
        ("stampede", Stress::Stampede { every: 30, herd: 8 }),
        (
            "storm",
            Stress::ExpirationStorm {
                every_cycles: 2_000,
                lines: 6,
            },
        ),
    ] {
        let sr = assert_identical(&smoke_cfg(stress), false, name);
        assert!(
            sr.requests > 600,
            "{name}: stress added no requests ({})",
            sr.requests
        );
        println!(
            "service smoke: {name} stress bit-identical ({} requests)",
            sr.requests
        );
    }

    let slos = [200u64, 400, 1600, 1 << 24];
    let slo = r.slo(&slos);
    assert_eq!(slo.count, r.requests);
    assert!(slo.p50 <= slo.p99 && slo.p99 <= slo.p999 && slo.p999 <= slo.max);
    let mut prev = -1.0;
    for g in &slo.goodput {
        assert!((0.0..=1.0).contains(&g.met), "met fraction {}", g.met);
        assert!(g.met >= prev, "met fractions must be monotone in the SLO");
        assert!(g.goodput <= slo.throughput() + 1e-9);
        prev = g.met;
    }
    assert_eq!(
        slo.goodput.last().unwrap().met,
        1.0,
        "every request meets a 16M-cycle SLO"
    );
    println!(
        "service smoke: SLO report consistent (p50={} p99={} p999={} \
         goodput@400={:.1} req/Mcycle)",
        slo.p50, slo.p99, slo.p999, slo.goodput[1].goodput
    );
    println!("service smoke passed");
}
