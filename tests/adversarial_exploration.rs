//! The exploration harness's own contracts, end to end: perturbation off is
//! bit-identical to an unperturbed build, perturbation on is engine-
//! invariant and schedule-changing, campaigns are thread-count-invariant,
//! and a failing run reproduces from its printed `(scenario, seed)` alone.

use skipit::core::{EngineKind, PerturbConfig};
use skipit::explore::{
    build_system, campaign_sweep, explore_one, run_with_check, run_with_oracle, shrink_programs,
    ExploreConfig, Scenario, Violation,
};
use skipit::prelude::*;

fn contended_programs() -> Vec<Vec<Op>> {
    Scenario::SharedLines.programs(17, 2)
}

/// An inert `PerturbConfig` (even with a nonzero seed) must leave the
/// system bit-identical to one that never heard of perturbation: same
/// cycle counts, same stats, same full state digest.
#[test]
fn inert_perturbation_is_bit_identical() {
    let progs = contended_programs();
    let mut base = SystemBuilder::new().cores(2).skip_it(true).build();
    let inert = PerturbConfig {
        seed: 12345,
        ..PerturbConfig::default()
    };
    assert!(!inert.is_active());
    let mut cfgd = SystemBuilder::new()
        .cores(2)
        .skip_it(true)
        .perturb(inert)
        .build();
    let c0 = base.run(Programs(progs.clone())).cycles;
    let c1 = cfgd.run(Programs(progs)).cycles;
    base.quiesce();
    cfgd.quiesce();
    assert_eq!(c0, c1, "inert perturbation changed the cycle count");
    assert_eq!(base.stats(), cfgd.stats());
    assert_eq!(base.state_digest(), cfgd.state_digest());
}

/// The engine-invariance contract under *active* perturbation: every draw
/// is keyed on per-site event counters (pushes, dispatches, allocations),
/// never on per-cycle probing, so the naive and component-wheel engines
/// must produce bit-identical perturbed runs.
#[test]
fn engines_agree_under_active_perturbation() {
    for seed in [1u64, 7, 23] {
        let progs = Scenario::FlushStorm.programs(seed, 2);
        let mut results = Vec::new();
        for engine in [EngineKind::Naive, EngineKind::ComponentWheel] {
            let mut sys = SystemBuilder::new()
                .cores(2)
                .skip_it(true)
                .engine(engine)
                .perturb(PerturbConfig::exploring(seed))
                .build();
            let cycles = sys.run(Programs(progs.clone())).cycles;
            sys.quiesce();
            results.push((engine, cycles, sys.now(), sys.stats(), sys.state_digest()));
        }
        for pair in results.windows(2) {
            assert_eq!(
                (pair[0].1, pair[0].2, &pair[0].3, pair[0].4),
                (pair[1].1, pair[1].2, &pair[1].3, pair[1].4),
                "seed {seed}: {:?} and {:?} diverged under perturbation",
                pair[0].0,
                pair[1].0,
            );
        }
    }
}

/// Active perturbation must actually perturb: across a handful of seeds,
/// at least one contended run must differ in cycle count from the
/// unperturbed baseline (otherwise the harness explores nothing).
#[test]
fn active_perturbation_changes_schedules() {
    let progs = contended_programs();
    let mut base = SystemBuilder::new().cores(2).skip_it(true).build();
    let baseline = base.run(Programs(progs.clone())).cycles;
    let mut changed = false;
    for seed in 0..6u64 {
        let mut sys = SystemBuilder::new()
            .cores(2)
            .skip_it(true)
            .perturb(PerturbConfig::exploring(seed))
            .build();
        if sys.run(Programs(progs.clone())).cycles != baseline {
            changed = true;
            break;
        }
    }
    assert!(changed, "no seed changed the schedule of a contended run");
}

/// The acceptance-criterion round trip: a failing exploration is
/// reproducible from its `(scenario, seed)` coordinates alone, and the
/// minimized reproducer hits the identical violation at the identical
/// cycle on every replay.
///
/// The repository's invariants hold on this workload (see the campaign
/// record in EXPERIMENTS.md), so the failure is induced by an *injected*
/// oracle rule — "the 10th DRAM write is forbidden" — which exercises the
/// identical run/minimize/replay machinery as a real protocol violation.
#[test]
fn minimized_reproducer_replays_identically() {
    let scenario = Scenario::PersistLog;
    let seed = 5u64;
    let cfg = ExploreConfig::default();
    let check_of = || {
        move |s: &skipit::System| -> Result<(), Violation> {
            if s.stats().mem.writes >= 10 {
                Err(Violation {
                    rule: "injected_write_limit",
                    cycle: s.now(),
                    detail: format!("{} DRAM writes", s.stats().mem.writes),
                })
            } else {
                Ok(())
            }
        }
    };
    let run = |progs: &[Vec<Op>]| -> Option<Violation> {
        let mut sys = build_system(cfg, seed);
        run_with_check(&mut sys, progs.to_vec(), check_of()).1
    };

    // The full-size run fails under the injected rule...
    let programs = scenario.programs(seed, cfg.cores);
    let original = run(&programs).expect("injected rule must fire");

    // ...shrinks to something strictly smaller...
    let minimized = shrink_programs(programs.clone(), |p| {
        run(p).is_some_and(|v| v.rule == original.rule)
    });
    let full: usize = programs.iter().map(Vec::len).sum();
    let small: usize = minimized.iter().map(Vec::len).sum();
    assert!(
        small < full,
        "shrinking removed nothing ({full} -> {small})"
    );

    // ...and the minimized reproducer is cycle-exactly deterministic.
    let first = run(&minimized).expect("minimized reproducer must still fail");
    for _ in 0..3 {
        let again = run(&minimized).expect("replay must fail");
        assert_eq!(
            (again.rule, again.cycle),
            (first.rule, first.cycle),
            "replay diverged from the minimized reproducer"
        );
    }
}

/// `explore_one` is a pure function of `(scenario, seed, config)` — the
/// printed coordinates of any campaign point fully reproduce it.
#[test]
fn exploration_points_reproduce_from_coordinates() {
    let cfg = ExploreConfig::default();
    for scenario in Scenario::ALL {
        let a = explore_one(scenario, 3, cfg);
        let b = explore_one(scenario, 3, cfg);
        assert_eq!(a.cycles, b.cycles, "{}", scenario.name());
        assert_eq!(a.violation, b.violation, "{}", scenario.name());
    }
}

/// The two contended scenarios the campaign tests share.
const CAMPAIGN: [Scenario; 2] = [Scenario::FlushStorm, Scenario::SharedLines];

/// Campaign tables are bit-identical at any worker-thread count.
#[test]
fn campaigns_are_thread_count_invariant() {
    let cfg = ExploreConfig::default();
    let serial = SweepRunner::serial().run(campaign_sweep("c", &CAMPAIGN, 0..16, cfg));
    let threaded = SweepRunner::new()
        .threads(4)
        .run(campaign_sweep("c", &CAMPAIGN, 0..16, cfg));
    assert_eq!(serial.to_json(), threaded.to_json());
    assert!(
        serial.all_ok(),
        "campaign found a violation: {:?}",
        serial.failed_rows().map(|r| &r.label).collect::<Vec<_>>()
    );
}

/// The lockstep oracle on the 16 campaign points of `scenario`: rerunning
/// each with every wheel jump re-executed naively (a state change inside
/// a jump panics) finds no violation and ends on the cycle of the point's
/// campaign row (`explore_one`).
fn lockstep_oracle_accepts_campaign(scenario: Scenario) {
    let cfg = ExploreConfig::default();
    for seed in 0..16 {
        let mut sys = SystemBuilder::new()
            .cores(cfg.cores)
            .skip_it(cfg.skip_it)
            .perturb(PerturbConfig::exploring(seed))
            .lockstep_oracle(true)
            .build();
        let (cycles, violation) = run_with_oracle(&mut sys, scenario.programs(seed, cfg.cores));
        assert_eq!(violation, None, "{}/{seed}", scenario.name());
        assert_eq!(
            cycles,
            explore_one(scenario, seed, cfg).cycles,
            "{}/{seed} ends on another cycle under the lockstep oracle",
            scenario.name()
        );
    }
}

#[test]
fn lockstep_oracle_accepts_flush_storm_campaign() {
    lockstep_oracle_accepts_campaign(Scenario::FlushStorm);
}

#[test]
fn lockstep_oracle_accepts_shared_lines_campaign() {
    lockstep_oracle_accepts_campaign(Scenario::SharedLines);
}
