//! One exploration = one `(scenario, seed)` point: build a perturbed
//! system, run the scenario's programs under the invariant oracle, drain,
//! and report.

use crate::oracle::{InvariantOracle, Violation};
use crate::scenario::Scenario;
use skipit_core::{Op, PerturbConfig, System, SystemBuilder};

/// How exploration systems are built. `Copy` so campaign points can carry
/// it across worker threads. Every exploration runs under
/// [`PerturbConfig::exploring`] with the run's seed.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Cores in the simulated system.
    pub cores: usize,
    /// Whether the §6 Skip It optimization is on (the skip-bit invariant is
    /// only interesting when it is).
    pub skip_it: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            cores: 2,
            skip_it: true,
        }
    }
}

/// The outcome of one exploration run.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Which workload family ran.
    pub scenario: Scenario,
    /// The seed that generated both the programs and the perturbation.
    pub seed: u64,
    /// Cycle count at completion (or at the violation).
    pub cycles: u64,
    /// First invariant violation, if the oracle rejected a state.
    pub violation: Option<Violation>,
}

/// Builds the system an exploration of `seed` runs on.
pub fn build_system(cfg: ExploreConfig, seed: u64) -> System {
    SystemBuilder::new()
        .cores(cfg.cores)
        .skip_it(cfg.skip_it)
        .perturb(PerturbConfig::exploring(seed))
        .build()
}

/// Runs `programs` to completion (then quiesces) under `check`, observing
/// every executed cycle. Returns the end cycle and the first rejection.
pub fn run_with_check<F>(
    sys: &mut System,
    programs: Vec<Vec<Op>>,
    mut check: F,
) -> (u64, Option<Violation>)
where
    F: FnMut(&System) -> Result<(), Violation>,
{
    if let Err((cycle, v)) = sys.run_programs_observed(programs, &mut check) {
        return (cycle, Some(v));
    }
    if let Err((cycle, v)) = sys.quiesce_observed(&mut check) {
        return (cycle, Some(v));
    }
    (sys.now(), None)
}

/// Runs `programs` under a fresh [`InvariantOracle`].
pub fn run_with_oracle(sys: &mut System, programs: Vec<Vec<Op>>) -> (u64, Option<Violation>) {
    let mut oracle = InvariantOracle::new();
    run_with_check(sys, programs, move |s| oracle.observe(s))
}

/// Explores one `(scenario, seed)` point: deterministic, bit-reproducible
/// from its arguments alone.
pub fn explore_one(scenario: Scenario, seed: u64, cfg: ExploreConfig) -> Exploration {
    let mut sys = build_system(cfg, seed);
    let programs = scenario.programs(seed, cfg.cores);
    let (cycles, violation) = run_with_oracle(&mut sys, programs);
    Exploration {
        scenario,
        seed,
        cycles,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exploration_is_bit_reproducible() {
        let cfg = ExploreConfig::default();
        let a = explore_one(Scenario::FlushStorm, 42, cfg);
        let b = explore_one(Scenario::FlushStorm, 42, cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.violation, b.violation);
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let cfg = ExploreConfig::default();
        let cycles: Vec<u64> = (0..4)
            .map(|seed| explore_one(Scenario::SharedLines, seed, cfg).cycles)
            .collect();
        // Distinct seeds change programs *and* arbitration; at least two of
        // four runs must differ in length or the harness explores nothing.
        assert!(
            cycles.windows(2).any(|w| w[0] != w[1]),
            "all seeds produced identical runs: {cycles:?}"
        );
    }
}
