//! Engine-invariance properties of the service traffic frontend
//! (`skipit-service`, DESIGN.md §13).
//!
//! The load-bearing invariant: a [`ServiceWorkload`] is a pure function of
//! its configuration. For any key distribution, arrival process, operation
//! mix, tenant split and stress pattern — perturbed or not — both engines
//! must produce the same request digest, the same cycle count, the same
//! system statistics and the same final architectural state.

use proptest::prelude::*;
use skipit::core::PerturbConfig;
use skipit::prelude::*;
use skipit::service::{build_lanes, ReqKind, CACHE_BASE};

fn arb_dist() -> impl Strategy<Value = KeyDist> {
    prop_oneof![
        Just(KeyDist::Uniform),
        (1u32..150).prop_map(|s| KeyDist::Zipfian {
            s: s as f64 / 100.0
        }),
        (1u64..8, 50u32..95).prop_map(|(hot, hot_pct)| KeyDist::HotSet { hot, hot_pct }),
    ]
}

fn arb_arrivals() -> impl Strategy<Value = Arrivals> {
    prop_oneof![
        (20u64..200).prop_map(|gap| Arrivals::Fixed { gap }),
        (20u64..200).prop_map(|mean_gap| Arrivals::Poisson { mean_gap }),
        (20u64..120, 2u32..8, 200u64..800).prop_map(|(mean_gap, burst, idle)| {
            Arrivals::Bursty {
                mean_gap,
                burst,
                idle,
            }
        }),
    ]
}

fn arb_mix() -> impl Strategy<Value = OpMix> {
    // read + update + scan must sum to 100.
    (0u32..=30, 0u32..=10, 2u32..6).prop_map(|(update_pct, scan_pct, scan_len)| OpMix {
        read_pct: 100 - update_pct - scan_pct,
        update_pct,
        scan_pct,
        scan_len,
    })
}

fn arb_stress() -> impl Strategy<Value = Stress> {
    prop_oneof![
        Just(Stress::None),
        (10u32..40, 2u32..10).prop_map(|(every, herd)| Stress::Stampede { every, herd }),
        (1_000u64..5_000, 1u32..6).prop_map(|(every_cycles, lines)| Stress::ExpirationStorm {
            every_cycles,
            lines,
        }),
    ]
}

fn arb_cfg() -> impl Strategy<Value = ServiceCfg> {
    (
        (1usize..=3, arb_dist(), arb_arrivals(), 0u64..1_000),
        arb_mix(),
        arb_stress(),
        prop_oneof![Just(vec![1u32]), Just(vec![3, 1]), Just(vec![1, 1, 2])],
    )
        .prop_map(
            |((cores, dist, arrivals, seed), mix, stress, tenants)| ServiceCfg {
                cores,
                requests_per_core: 80,
                key_range: 96,
                prefill: 24,
                dist,
                arrivals,
                mix,
                tenants,
                stress,
                hash_buckets: 16,
                seed,
                ..ServiceCfg::default()
            },
        )
}

/// Everything an engine could plausibly get wrong: the latency digest, the
/// elapsed cycles, the hardware counters and the final architectural state.
fn fingerprint(
    cfg: &ServiceCfg,
    engine: EngineKind,
    perturb: PerturbConfig,
) -> (u64, u64, u64, SystemStats, u64) {
    let mut sys = cfg.builder().engine(engine).perturb(perturb).build();
    let report = sys.run(ServiceWorkload::new(cfg.clone()));
    let out = report.output;
    (
        out.digest,
        out.requests,
        report.cycles,
        sys.stats(),
        sys.state_digest(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Same configuration, same seed → bit-identical service report on
    /// both engines, with and without adversarial schedule perturbation.
    #[test]
    fn service_workload_is_engine_invariant(
        cfg in arb_cfg(),
        perturb_seed in 0u64..3,
    ) {
        let perturb = if perturb_seed == 0 {
            PerturbConfig::default()
        } else {
            PerturbConfig::exploring(perturb_seed)
        };
        prop_assert_eq!(
            fingerprint(&cfg, EngineKind::ComponentWheel, perturb),
            fingerprint(&cfg, EngineKind::Naive, perturb),
            "service run diverged from the naive engine"
        );
    }

    /// The request stream itself (pre-hardware) is a pure function of the
    /// configuration: regenerating lanes yields the same arrivals, and
    /// changing the seed changes them.
    #[test]
    fn lane_generation_is_deterministic(cfg in arb_cfg()) {
        let lanes = |seed| build_lanes(
            cfg.cores,
            cfg.requests_per_core,
            cfg.key_range,
            cfg.dist,
            cfg.arrivals,
            cfg.mix,
            &cfg.tenants,
            cfg.stress,
            seed,
        );
        let a = lanes(cfg.seed);
        prop_assert_eq!(&a, &lanes(cfg.seed));
        prop_assert_ne!(&a, &lanes(cfg.seed ^ 0xDEAD_BEEF));
        for lane in &a {
            for req in lane {
                prop_assert!(req.key >= 1 && req.key <= cfg.key_range);
            }
        }
    }
}

/// Expiration storms land on the hottest cache lines: every storm target
/// must sit inside the service cache region.
#[test]
fn storm_targets_stay_in_cache_region() {
    let cfg = ServiceCfg {
        requests_per_core: 60,
        stress: Stress::ExpirationStorm {
            every_cycles: 1_000,
            lines: 4,
        },
        ..ServiceCfg::default()
    };
    let lanes = build_lanes(
        cfg.cores,
        cfg.requests_per_core,
        cfg.key_range,
        cfg.dist,
        cfg.arrivals,
        cfg.mix,
        &cfg.tenants,
        cfg.stress,
        cfg.seed,
    );
    let mut storms = 0;
    for lane in &lanes {
        for req in lane {
            if matches!(req.kind, ReqKind::Expire) {
                storms += 1;
                let slot = CACHE_BASE + req.key * 64;
                assert!(slot >= CACHE_BASE && slot < CACHE_BASE + (cfg.key_range + 1) * 64);
            }
        }
    }
    assert!(storms > 0, "storm pattern generated no expirations");
}

/// The lockstep oracle in worker mode: a small open-loop workload under
/// synchronized expiration storms (worker-command wake edges, CBO.FLUSH
/// bursts) with every wheel jump re-executed naively and every skipped
/// slot's bound recomputed each executed cycle (a missed wake edge
/// panics) takes real jumps and reports exactly what the oracle-off run
/// does.
#[test]
fn lockstep_oracle_accepts_expiration_storm_service() {
    let cfg = ServiceCfg {
        cores: 2,
        requests_per_core: 12,
        key_range: 32,
        prefill: 4,
        hash_buckets: 8,
        arrivals: Arrivals::Poisson { mean_gap: 150 },
        stress: Stress::ExpirationStorm {
            every_cycles: 600,
            lines: 4,
        },
        ..ServiceCfg::default()
    };
    let run = |oracle: bool| {
        let mut sys = cfg.builder().lockstep_oracle(oracle).build();
        let report = sys.run(ServiceWorkload::new(cfg.clone()));
        (
            report.output.digest,
            report.cycles,
            sys.stats(),
            sys.engine_stats(),
        )
    };
    let (digest, cycles, stats, engine) = run(true);
    assert!(engine.jumps > 0, "oracle run took no jumps: {engine:?}");
    let (ref_digest, ref_cycles, ref_stats, _) = run(false);
    assert_eq!(digest, ref_digest, "oracle changed the request digest");
    assert_eq!(cycles, ref_cycles, "oracle changed the cycle count");
    assert_eq!(stats, ref_stats, "oracle changed the statistics");
}

/// A two-core Zipfian/Poisson read-mostly workload of 600 base requests.
fn zipf_cfg(stress: Stress) -> ServiceCfg {
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

fn run_service_cfg(cfg: &ServiceCfg, perturb: PerturbConfig) -> ServiceReport {
    let mut sys = cfg.builder().perturb(perturb).build();
    sys.run(ServiceWorkload::new(cfg.clone())).output
}

/// Perturbation reaches the service run (it moves the latency digest),
/// and both stress patterns add requests to the 600 base ones.
#[test]
fn perturbation_and_stress_change_the_service_run() {
    let base = run_service_cfg(&zipf_cfg(Stress::None), PerturbConfig::default());
    assert_eq!(base.requests, 600, "base request count");
    let perturbed = run_service_cfg(&zipf_cfg(Stress::None), PerturbConfig::exploring(9));
    assert_ne!(
        perturbed.digest, base.digest,
        "perturbation did not change the schedule"
    );
    for stress in [
        Stress::Stampede { every: 30, herd: 8 },
        Stress::ExpirationStorm {
            every_cycles: 2_000,
            lines: 6,
        },
    ] {
        let report = run_service_cfg(&zipf_cfg(stress), PerturbConfig::default());
        assert!(
            report.requests > 600,
            "{stress:?} added no requests ({})",
            report.requests
        );
    }
}

/// The SLO summary of a real run is consistent: it counts every request,
/// its percentiles are monotone, and the met fractions lie in `[0, 1]`,
/// grow with the threshold, reach 1 at a 16M-cycle SLO and never lift
/// goodput above throughput.
#[test]
fn slo_summary_is_internally_consistent() {
    let report = run_service_cfg(&zipf_cfg(Stress::None), PerturbConfig::default());
    let slo = report.slo(&[200, 400, 1600, 1 << 24]);
    assert_eq!(slo.count, report.requests);
    assert!(slo.p50 <= slo.p99 && slo.p99 <= slo.p999 && slo.p999 <= slo.max);
    let mut prev = -1.0;
    for g in &slo.goodput {
        assert!((0.0..=1.0).contains(&g.met), "met fraction {}", g.met);
        assert!(g.met >= prev, "met fractions must be monotone in the SLO");
        assert!(g.goodput <= slo.throughput() + 1e-9);
        prev = g.met;
    }
    assert_eq!(slo.goodput.last().unwrap().met, 1.0);
}

/// A fresh serial run of the quick service grid reproduces the committed
/// `BENCH_service_quick.json` byte for byte: every point's cycles,
/// percentiles, goodput curve and request digest are pinned.
#[test]
fn quick_service_table_matches_committed_json() {
    let fresh = SweepRunner::serial().run(skipit_bench::sweeps::service_sweep(true));
    skipit_bench::assert_matches_committed(
        "BENCH_service_quick.json",
        &fresh.to_json(),
        &[],
        "`SKIPIT_BENCH_QUICK=1 cargo bench -p skipit-bench --bench figures`",
    );
}
