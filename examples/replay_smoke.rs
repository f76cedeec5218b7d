//! CI smoke for the trace capture / replay subsystem (`ci.sh --quick`).
//!
//! 1. Captures a quickstart-shaped 2-core run and replays the trace on
//!    fresh systems under both engines, asserting bit-identical cycles,
//!    statistics and durable memory.
//! 2. Replays the two committed traces under `traces/` — the captured
//!    `persistent_kv.trace` and the hand-written `litmus_sb.txt` — and
//!    checks their architectural outcomes.
//! 3. Corrupts trace bytes and checks the decoder fails with typed
//!    errors, never a panic.
//! 4. Runs the `replay_sweep` perturbation grid serially and at 2 worker
//!    threads and asserts the two result tables are bit-identical.

use skipit::prelude::*;
use std::path::Path;

const ENGINES: [EngineKind; 2] = [EngineKind::Naive, EngineKind::ComponentWheel];

fn build(engine: EngineKind, skip_it: bool) -> skipit::System {
    SystemBuilder::new()
        .cores(2)
        .skip_it(skip_it)
        .engine(engine)
        .build()
}

/// Replays `trace` under both engines and asserts all runs agree on
/// cycles, stats and durable image. Returns the agreed (cycles, stats).
fn replay_everywhere(trace: &MemTrace, skip_it: bool, what: &str) -> (u64, SystemStats) {
    let mut reference: Option<(u64, SystemStats, String)> = None;
    for engine in ENGINES {
        let mut sys = build(engine, skip_it);
        let cycles = sys.run(TraceReplay::new(trace.clone())).cycles;
        let got = (cycles, sys.stats(), format!("{:?}", sys.durable_image()));
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{what}: replay diverged under {engine:?}"),
        }
    }
    let (cycles, stats, _) = reference.unwrap();
    (cycles, stats)
}

fn main() {
    // ---- 1. capture → replay round trip on a quickstart-shaped run ----
    let mut sys = build(EngineKind::ComponentWheel, true);
    sys.start_capture();
    let ref_cycles = sys
        .run(Programs(vec![
            vec![
                Op::Store {
                    addr: 0x1000,
                    value: 42,
                },
                Op::Flush { addr: 0x1000 },
                Op::Fence,
                Op::Load { addr: 0x1000 },
                Op::Clean { addr: 0x1000 },
                Op::Fence,
            ],
            vec![
                Op::Load { addr: 0x1000 },
                Op::FetchAdd {
                    addr: 0x2000,
                    operand: 5,
                },
                Op::Flush { addr: 0x2000 },
                Op::Fence,
            ],
        ]))
        .cycles;
    let ref_stats = sys.stats();
    let ref_image = format!("{:?}", sys.durable_image());
    let trace = MemTrace::from_capture(2, 0, &sys.take_capture());

    // Byte-level round trip, then replay under both engines.
    let trace = MemTrace::from_bytes(&trace.to_bytes()).expect("fresh bytes decode");
    let (cycles, stats) = replay_everywhere(&trace, true, "captured run");
    assert_eq!(cycles, ref_cycles, "replay must reproduce the cycle count");
    assert_eq!(stats, ref_stats, "replay must reproduce the statistics");
    let mut sys = build(EngineKind::ComponentWheel, true);
    sys.run(TraceReplay::new(trace.clone()));
    assert_eq!(
        format!("{:?}", sys.durable_image()),
        ref_image,
        "replay must reproduce the durable image"
    );
    println!("capture/replay round trip: {cycles} cycles bit-identical on both engines");

    // ---- 2. the committed traces ----
    let traces = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");

    let kv = MemTrace::from_file(traces.join("persistent_kv.trace"))
        .expect("committed persistent_kv.trace decodes");
    let (kv_cycles, _) = replay_everywhere(&kv, true, "persistent_kv");
    // The workload's final installs (see examples/capture_trace.rs): the
    // last update of each key persisted value 100 + i.
    let mut sys = build(EngineKind::ComponentWheel, true);
    sys.run(TraceReplay::new(kv.clone()));
    for key in 0..4u64 {
        assert_eq!(
            sys.dram().read_word_direct(0x8_0000 + key * 64),
            100 + 8 + key,
            "kv slot {key} must hold its last installed value"
        );
    }
    println!(
        "persistent_kv.trace: {} records replayed in {kv_cycles} cycles",
        kv.len()
    );

    let text = std::fs::read_to_string(traces.join("litmus_sb.txt")).expect("read litmus");
    let litmus = MemTrace::from_text(&text).expect("committed litmus_sb.txt parses");
    let (sb_cycles, _) = replay_everywhere(&litmus, false, "litmus_sb");
    let mut sys = build(EngineKind::ComponentWheel, false);
    sys.run(TraceReplay::new(litmus.clone()));
    assert_eq!(sys.dram().read_word_direct(0x40000), 1);
    assert_eq!(sys.dram().read_word_direct(0x40040), 1);
    println!(
        "litmus_sb.txt: {} records replayed in {sb_cycles} cycles",
        litmus.len()
    );

    // ---- 3. corruption is a typed error, never a panic ----
    let bytes = kv.to_bytes();
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        MemTrace::from_bytes(&bad).unwrap_err(),
        TraceError::BadMagic
    ));
    let mut bad = bytes.clone();
    bad[4] = 0x7f; // version varint
    assert!(matches!(
        MemTrace::from_bytes(&bad).unwrap_err(),
        TraceError::BadVersion { found: 0x7f, .. }
    ));
    assert!(matches!(
        MemTrace::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err(),
        TraceError::Truncated | TraceError::Corrupt(_)
    ));
    println!("corrupt traces decode to typed errors");

    // ---- 4. the replay sweep is relocatable across worker threads ----
    let sweep = |name: &str| skipit_bench::sweeps::replay_sweep(name, kv.clone(), &[0, 1, 2, 3]);
    let serial = SweepRunner::serial().run(sweep("replay_jitter"));
    let threaded = SweepRunner::new().threads(2).run(sweep("replay_jitter"));
    assert!(serial.all_ok() && threaded.all_ok());
    assert_eq!(
        serial.table(),
        threaded.table(),
        "replay sweep tables must be bit-identical at any thread count"
    );
    assert_eq!(
        serial.get("seed0").unwrap().output.cycles,
        kv_cycles,
        "seed 0 replays unperturbed"
    );
    println!("replay sweep: 4-seed grid bit-identical serial vs 2 threads");
    println!("replay smoke passed");
}
