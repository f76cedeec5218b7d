//! CI smoke campaign for the adversarial exploration harness
//! (`./ci.sh --quick`).
//!
//! Runs 16 seeds of two contended scenarios under full perturbation
//! (arbitration jitter on every TileLink channel, flush-dispatch hold-off,
//! L2 MSHR rotation) with the invariant oracle watching every executed
//! cycle, serially and again across 2 worker threads. A third pass reruns
//! every point with the lockstep oracle, which re-executes each wheel jump
//! naively and panics on any state change inside it. Exits nonzero if
//!
//! * any point reports an invariant violation (the error row carries the
//!   `(scenario, seed)` pair that reproduces it via
//!   `explore_one(scenario, seed, cfg)`), or
//! * any reported failure is not bit-reproducible from its coordinates, or
//! * the serial and 2-thread result tables are not bit-identical, or
//! * a lockstep-oracle rerun ends on a different cycle than its row.
//!
//! ```text
//! cargo run --release --example explore_smoke
//! ```

use skipit::explore::{explore_one, run_campaign, run_with_oracle, ExploreConfig, Scenario};
use skipit::prelude::*;

const SEEDS: u64 = 16;
const SCENARIOS: [Scenario; 2] = [Scenario::FlushStorm, Scenario::SharedLines];

fn main() {
    let cfg = ExploreConfig::default();
    let serial = run_campaign(
        "explore_smoke",
        &SCENARIOS,
        0..SEEDS,
        cfg,
        &SweepRunner::serial(),
    );
    let threaded = run_campaign(
        "explore_smoke",
        &SCENARIOS,
        0..SEEDS,
        cfg,
        &SweepRunner::new().threads(2),
    );

    let mut failed = false;
    for row in serial.failed_rows() {
        eprintln!("FAIL: {} -> {:?}", row.label, row.status);
        failed = true;
        // Re-derive the coordinates from the label and check the failure
        // reproduces from them alone (the acceptance contract: the printed
        // pair is all that is needed).
        let (name, seed) = row
            .label
            .split_once('/')
            .expect("campaign labels are scenario/seed");
        let scenario = Scenario::from_name(name).expect("known scenario");
        let seed: u64 = seed.parse().expect("numeric seed");
        let a = explore_one(scenario, seed, cfg);
        let b = explore_one(scenario, seed, cfg);
        if a.violation.is_none() {
            eprintln!("FAIL: {} not reproducible from its coordinates", row.label);
        }
        if a.violation != b.violation || a.cycles != b.cycles {
            eprintln!("FAIL: {} replays are not bit-identical", row.label);
        }
    }
    if serial.to_json() != threaded.to_json() {
        eprintln!("FAIL: campaign tables diverge between 1 and 2 worker threads");
        failed = true;
    }
    for scenario in SCENARIOS {
        for seed in 0..SEEDS {
            let label = format!("{}/{seed}", scenario.name());
            let mut sys = SystemBuilder::new()
                .cores(cfg.cores)
                .skip_it(cfg.skip_it)
                .perturb(cfg.perturb.with_seed(seed))
                .lockstep_oracle(true)
                .build();
            let (cycles, _) = run_with_oracle(&mut sys, scenario.programs(seed, cfg.cores));
            let row = serial.get(&label).expect("every point has a row");
            if cycles != row.output.cycles {
                eprintln!(
                    "FAIL: {label} ends at cycle {cycles} under the lockstep oracle, \
                     {} in the campaign",
                    row.output.cycles
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "explore smoke ok: {} points ({} scenarios x {SEEDS} seeds), zero \
         invariant violations, serial and 2-thread tables bit-identical, \
         lockstep-oracle reruns cycle-identical",
        serial.rows().len(),
        SCENARIOS.len(),
    );
}
