//! End-to-end checks of the trace capture / replay subsystem
//! (`skipit-replay`, DESIGN.md §12).
//!
//! The load-bearing invariant: capturing the committed memory-op stream of
//! any run and replaying it on a fresh system reproduces that run
//! bit-identically — same cycles, same statistics, same durable image —
//! under both engines, with or without adversarial
//! perturbation. Corrupt or truncated trace bytes decode to typed errors,
//! never panics, and the text format round-trips through the binary one.

use proptest::prelude::*;
use skipit::core::PerturbConfig;
use skipit::prelude::*;

const ENGINES: [EngineKind; 2] = [EngineKind::Naive, EngineKind::ComponentWheel];

fn build(cores: usize, engine: EngineKind, perturb: PerturbConfig) -> skipit::System {
    SystemBuilder::new()
        .cores(cores)
        .engine(engine)
        .perturb(perturb)
        .build()
}

/// Everything a run leaves behind that replay must reproduce.
fn fingerprint(cycles: u64, sys: &skipit::System) -> (u64, SystemStats, String, u64) {
    (
        cycles,
        sys.stats(),
        format!("{:?}", sys.durable_image()),
        sys.state_digest(),
    )
}

/// Captures `programs` on a fresh system, returning the reference
/// fingerprint and the trace after a byte-level round trip.
fn capture(
    programs: Vec<Vec<Op>>,
    perturb: PerturbConfig,
) -> ((u64, SystemStats, String, u64), MemTrace) {
    let mut sys = build(2, EngineKind::ComponentWheel, perturb);
    sys.start_capture();
    let cycles = sys.run(Programs(programs)).cycles;
    let trace = MemTrace::from_capture(2, 0, &sys.take_capture());
    // The committed stream must survive encode → decode unchanged.
    let trace = MemTrace::from_bytes(&trace.to_bytes()).expect("fresh trace bytes decode");
    (fingerprint(cycles, &sys), trace)
}

/// A small contended address pool (same shape as the snapshot properties).
fn arb_op() -> impl Strategy<Value = Op> {
    let addr = || (0u64..24).prop_map(|i| 0x4_0000 + i * 8);
    let line = || (0u64..24).prop_map(|i| 0x4_0000 + (i / 8) * 64);
    prop_oneof![
        addr().prop_map(|addr| Op::Load { addr }),
        (addr(), 1u64..100).prop_map(|(addr, value)| Op::Store { addr, value }),
        (addr(), 0u64..4, 1u64..4).prop_map(|(addr, expected, new)| Op::Cas {
            addr,
            expected,
            new
        }),
        (addr(), 1u64..10).prop_map(|(addr, operand)| Op::FetchAdd { addr, operand }),
        (addr(), 1u64..10).prop_map(|(addr, operand)| Op::Swap { addr, operand }),
        line().prop_map(|addr| Op::Clean { addr }),
        line().prop_map(|addr| Op::Flush { addr }),
        line().prop_map(|addr| Op::Inval { addr }),
        Just(Op::Fence),
        (1u64..30).prop_map(|cycles| Op::Nop { cycles }),
    ]
}

fn arb_programs() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(arb_op(), 1..24), 2)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// The round-trip invariant: `capture(run(W))` replayed on a fresh
    /// system reproduces the run bit-identically under both engines,
    /// unperturbed and under adversarial jitter.
    #[test]
    fn capture_replay_is_bit_identical_on_every_engine(
        programs in arb_programs(),
        seed in 0u64..3,
    ) {
        let perturb = if seed == 0 {
            PerturbConfig::default()
        } else {
            PerturbConfig::exploring(seed)
        };
        let (reference, trace) = capture(programs, perturb);

        for engine in ENGINES {
            let mut sys = build(2, engine, perturb);
            let report = sys.run(TraceReplay::new(trace.clone()));
            let replayed = fingerprint(report.cycles, &sys);
            prop_assert_eq!(
                &replayed.0, &reference.0,
                "cycles diverged under {:?}", engine
            );
            prop_assert_eq!(
                &replayed.1, &reference.1,
                "stats diverged under {:?}", engine
            );
            prop_assert_eq!(
                &replayed.2, &reference.2,
                "durable image diverged under {:?}", engine
            );
        }

        // Same engine as the capture run: the full state digest matches too.
        let mut sys = build(2, EngineKind::ComponentWheel, perturb);
        let report = sys.run(TraceReplay::new(trace));
        prop_assert_eq!(fingerprint(report.cycles, &sys), reference);
    }
}

/// A worker-mode run replays bit-identically — cycles included. The
/// capture records each worker's end as a zero-cycle think time, so the
/// replay executes the same final cycle the worker run did (the drain
/// window is part of the trace).
#[test]
fn thread_mode_capture_replays_bit_identically() {
    let mut sys = skipit::paper_platform(true);
    sys.start_capture();
    let report = sys.run(Workers::new(vec![
        |h: CoreHandle| async move {
            let mut sum = 0;
            for i in 0..8u64 {
                if h.core_id() == 0 {
                    h.store(0x6000 + i * 64, i + 1).await;
                    h.flush(0x6000 + i * 64).await;
                    sum += h.load(0x6000 + i * 64).await;
                } else {
                    sum += h.fetch_add(0x6000 + i * 64, 10).await;
                    h.work(5).await;
                }
            }
            h.fence().await;
            sum
        };
        2
    ]));
    assert_eq!(report.output.len(), 2);
    let cycles = report.cycles;
    let cap = sys.take_capture();
    assert!(!cap.is_empty(), "worker-mode ops must be captured");
    let trace = MemTrace::from_capture(2, 0, &cap);
    let reference = sys.stats();
    let image = format!("{:?}", sys.durable_image());

    for engine in ENGINES {
        let mut replayed = build(2, engine, PerturbConfig::default());
        let rcycles = replayed.run(TraceReplay::new(trace.clone())).cycles;
        assert_eq!(
            rcycles, cycles,
            "end-of-run cycle diverged under {engine:?}"
        );
        let rstats = replayed.stats();
        assert_eq!(rstats.l1, reference.l1, "L1 traffic diverged");
        assert_eq!(rstats.l2, reference.l2, "L2 traffic diverged");
        assert_eq!(rstats.mem, reference.mem, "memory traffic diverged");
        assert_eq!(
            format!("{:?}", replayed.durable_image()),
            image,
            "durable image diverged"
        );
    }
}

/// The drain window matters most when a core's *last* interaction is a
/// think-time expiry (the old end condition could be satisfied at a
/// fast-forward jump target without executing the final handshake
/// cycle): budgeted spin-until-halted workers — the benchmark measure
/// loop's shape — replay to the exact cycle count.
#[test]
fn budgeted_thread_capture_replays_to_exact_cycles() {
    for budget in [50u64, 1000, 5000] {
        let worker = |tid: u64| {
            move |h: CoreHandle| async move {
                let mut i = 0u64;
                while !h.halted() {
                    let a = 0x6000 + ((i * 7 + tid * 13) % 32) * 64;
                    h.store(a, i + 1).await;
                    h.flush(a).await;
                    h.load(a).await;
                    if i.is_multiple_of(3) {
                        h.work(3 + tid).await;
                    }
                    i += 1;
                }
                i
            }
        };
        let mut sys = skipit::paper_platform(true);
        sys.start_capture();
        let report = sys.run(Workers::new(vec![worker(0), worker(1)]).budget(budget));
        let trace = MemTrace::from_capture(2, 0, &sys.take_capture());
        let reference = fingerprint(report.cycles, &sys);

        let mut replayed = skipit::paper_platform(true);
        let rep = replayed.run(TraceReplay::new(trace));
        assert_eq!(
            fingerprint(rep.cycles, &replayed),
            reference,
            "budget {budget}"
        );
    }
}

/// Decoding never panics, and each malformation maps to its typed error.
#[test]
fn corrupt_traces_decode_to_typed_errors() {
    let (_, trace) = capture(
        vec![
            vec![
                Op::Store {
                    addr: 0x4_0000,
                    value: 3,
                },
                Op::Flush { addr: 0x4_0000 },
                Op::Fence,
            ],
            vec![Op::Load { addr: 0x4_0000 }],
        ],
        PerturbConfig::default(),
    );
    let bytes = trace.to_bytes();

    // Every truncation point fails with a typed error, never a panic.
    for cut in 0..bytes.len() {
        let err = MemTrace::from_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Truncated | TraceError::BadMagic | TraceError::Corrupt(_)
            ),
            "cut at {cut} produced unexpected error {err}"
        );
    }

    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(matches!(
        MemTrace::from_bytes(&bad).unwrap_err(),
        TraceError::BadMagic
    ));

    let mut bad = bytes.clone();
    bad[4] = 9; // version varint
    assert!(matches!(
        MemTrace::from_bytes(&bad).unwrap_err(),
        TraceError::BadVersion { found: 9, .. }
    ));

    let mut bad = bytes.clone();
    bad.push(0);
    assert!(matches!(
        MemTrace::from_bytes(&bad).unwrap_err(),
        TraceError::TrailingBytes { .. }
    ));
}

/// A hand-written text trace means exactly what its binary encoding means:
/// parse → encode → decode → render is the identity (modulo comments), and
/// both forms replay identically.
#[test]
fn text_and_binary_forms_are_equivalent() {
    let text = "\
# store-buffering shape: both cores store then read the other's line
cores 2
0 store 0x40000 1
1 store 0x40040 1
0 +3 load 0x40040
1 +3 load 0x40000
0 flush 0x40000
1 flush 0x40040
0 +1 fence
1 +1 fence
";
    let trace = MemTrace::from_text(text).expect("text parses");
    assert_eq!(trace.cores(), 2);
    assert_eq!(trace.len(), 8);

    // Binary round trip preserves the records exactly.
    let binary = MemTrace::from_bytes(&trace.to_bytes()).unwrap();
    assert_eq!(binary.records(), trace.records());

    // Rendering back to text and re-parsing is the identity too.
    let reparsed = MemTrace::from_text(&trace.to_text()).expect("rendered text parses");
    assert_eq!(reparsed.records(), trace.records());

    // Both forms drive the machine identically.
    let mut a = skipit::paper_platform(false);
    let ca = a.run(TraceReplay::new(trace)).cycles;
    let mut b = skipit::paper_platform(false);
    let cb = b.run(TraceReplay::new(binary)).cycles;
    assert_eq!(ca, cb);
    assert_eq!(a.state_digest(), b.state_digest());
    assert_eq!(a.dram().read_word_direct(0x40000), 1);
    assert_eq!(a.dram().read_word_direct(0x40040), 1);
}

/// Replay is a plain [`Workload`]: a captured system can itself be
/// captured while replaying, and the re-capture is the same trace
/// (replay is idempotent).
#[test]
fn recapturing_a_replay_reproduces_the_trace() {
    let (_, trace) = capture(
        vec![
            vec![
                Op::Store {
                    addr: 0x4_0000,
                    value: 1,
                },
                Op::Nop { cycles: 7 },
                Op::Clean { addr: 0x4_0000 },
                Op::Fence,
            ],
            vec![
                Op::FetchAdd {
                    addr: 0x4_0000,
                    operand: 2,
                },
                Op::Fence,
            ],
        ],
        PerturbConfig::default(),
    );

    let mut sys = skipit::paper_platform(false);
    sys.start_capture();
    sys.run(TraceReplay::new(trace.clone()));
    let recaptured = MemTrace::from_capture(2, 0, &sys.take_capture());
    assert_eq!(recaptured.records(), trace.records());
}

/// The lockstep oracle on the replay frontend: replaying the committed
/// `traces/persistent_kv.trace` with every wheel jump re-executed naively
/// and every skipped slot's bound recomputed each executed cycle (a missed
/// wake edge panics) takes real jumps and ends exactly where the
/// oracle-off replay does.
#[test]
fn lockstep_oracle_accepts_committed_trace_replay() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces/persistent_kv.trace");
    let trace = MemTrace::from_file(path).expect("committed persistent_kv.trace decodes");
    let run = |oracle: bool| {
        let mut sys = SystemBuilder::new()
            .cores(2)
            .skip_it(true)
            .lockstep_oracle(oracle)
            .build();
        let cycles = sys.run(TraceReplay::new(trace.clone())).cycles;
        (cycles, sys.stats(), sys.engine_stats())
    };
    let (cycles, stats, engine) = run(true);
    assert!(engine.jumps > 0, "oracle run took no jumps: {engine:?}");
    let (ref_cycles, ref_stats, _) = run(false);
    assert_eq!(cycles, ref_cycles, "oracle changed the replay's cycles");
    assert_eq!(stats, ref_stats, "oracle changed the replay's statistics");
}

/// The committed traces replay identically on both engines to their
/// architectural outcomes: each kv slot holds the last value installed
/// for it (`100 + 8 + key`), and both stores of the store-buffering
/// litmus are durable. The replay sweep over the kv trace gives the same
/// table at 1 and 2 worker threads, and its seed-0 point is the
/// unperturbed replay.
#[test]
fn committed_traces_replay_to_their_outcomes() {
    let replay = |trace: &MemTrace, skip_it: bool, addrs: &[u64]| {
        let runs = ENGINES.map(|engine| {
            let mut sys = SystemBuilder::new()
                .cores(2)
                .skip_it(skip_it)
                .engine(engine)
                .build();
            let cycles = sys.run(TraceReplay::new(trace.clone())).cycles;
            let words: Vec<u64> = addrs
                .iter()
                .map(|&a| sys.dram().read_word_direct(a))
                .collect();
            let image = format!("{:?}", sys.durable_image());
            (cycles, sys.stats(), image, words)
        });
        assert_eq!(runs[0], runs[1], "replay diverged between engines");
        let [(cycles, _, _, words), _] = runs;
        (cycles, words)
    };
    let kv = MemTrace::from_bytes(&committed_trace_bytes()).expect("committed trace decodes");
    let slots: Vec<u64> = (0..4).map(|key| 0x8_0000 + key * 64).collect();
    let (kv_cycles, words) = replay(&kv, true, &slots);
    assert_eq!(
        words,
        [108, 109, 110, 111],
        "kv slots miss their last value"
    );
    let litmus = MemTrace::from_text(&committed_trace_text()).expect("committed text parses");
    let (_, words) = replay(&litmus, false, &[0x40000, 0x40040]);
    assert_eq!(words, [1, 1], "litmus stores are not durable");

    let sweep = || skipit_bench::sweeps::replay_sweep("replay_jitter", kv.clone(), &[0, 1, 2, 3]);
    let serial = SweepRunner::serial().run(sweep());
    let threaded = SweepRunner::new().threads(2).run(sweep());
    assert!(serial.all_ok() && threaded.all_ok(), "{}", serial.table());
    assert_eq!(serial.table(), threaded.table(), "tables depend on threads");
    assert_eq!(
        serial.get("seed0").unwrap().output.cycles,
        kv_cycles,
        "seed 0 replays unperturbed"
    );
}

/// Byte-level oracle for the worker frontend: capturing the persistent-KV
/// workload `examples/capture_trace.rs` regenerates must reproduce the
/// committed `traces/persistent_kv.trace` byte for byte — same op stream,
/// same issue cycles, same end-of-run markers.
#[test]
fn persistent_kv_capture_matches_committed_trace_bytes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces/persistent_kv.trace");
    let committed = std::fs::read(path).expect("committed persistent_kv.trace is readable");
    let mut sys = skipit::paper_platform(true);
    sys.start_capture();
    let results = skipit_bench::traces::kv_workload(&mut sys);
    assert_eq!(results[0], 12, "writer must install all updates");
    let trace = MemTrace::from_capture(2, 0, &sys.take_capture());
    assert!(
        trace.to_bytes() == committed,
        "fresh capture ({} records) differs from the committed trace",
        trace.len()
    );
}

/// A system whose clock is past 0, so a lane's stamps are offset from a
/// nonzero base.
fn clock_past_zero() -> skipit::System {
    let mut sys = build(1, EngineKind::ComponentWheel, PerturbConfig::default());
    sys.run(Programs(vec![vec![Op::Store {
        addr: 0x40,
        value: 1,
    }]]));
    assert!(sys.now() > 0);
    sys
}

/// Hand-built lanes bypass `MemTrace::push`'s watchdog bound. A stamp
/// past `u64::MAX` must panic by name rather than wrap (a wrapped stamp
/// let the op issue at once in release builds).
#[test]
#[should_panic(expected = "script lane cycle overflow")]
fn stamp_overflow_in_a_hand_built_lane_panics_by_name() {
    clock_past_zero().run(ReplaySchedule {
        lanes: vec![vec![TimedOp {
            at: u64::MAX,
            op: Op::Fence,
        }]],
    });
}

/// Same for a think time whose end is past `u64::MAX`.
#[test]
#[should_panic(expected = "script lane cycle overflow")]
fn think_time_overflow_in_a_hand_built_lane_panics_by_name() {
    clock_past_zero().run(ReplaySchedule {
        lanes: vec![vec![TimedOp {
            at: 0,
            op: Op::Nop { cycles: u64::MAX },
        }]],
    });
}

/// The committed traces, in binary and text form: real inputs to mutate.
fn committed_trace_bytes() -> Vec<u8> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read(root.join("traces/persistent_kv.trace")).expect("committed trace is readable")
}

fn committed_trace_text() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join("traces/litmus_sb.txt")).expect("committed text is readable")
}

/// What every decoded trace guarantees: it re-encodes losslessly and its
/// lanes end inside the run watchdog.
fn assert_decoded_trace_is_sound(trace: &MemTrace) {
    assert_eq!(MemTrace::from_bytes(&trace.to_bytes()).as_ref(), Ok(trace));
    for lane in trace.schedule().lanes {
        for t in lane {
            let think = match t.op {
                Op::Nop { cycles } => cycles,
                _ => 0,
            };
            assert!(t.at + think < skipit::core::RUN_WATCHDOG_CYCLES);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// Arbitrary bytes reach `MemTrace::from_bytes` — pure noise, or the
    /// committed binary trace truncated, bit-flipped or extended: decoding
    /// returns a sound trace or a typed error, never a panic, and its
    /// allocations stay bounded (the record count is capped before it
    /// sizes a buffer).
    #[test]
    fn arbitrary_trace_bytes_decode_or_fail_typed(
        mode in 0u64..4,
        pos in any::<usize>(),
        flip in 1u64..256,
        noise in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut bytes = committed_trace_bytes();
        match mode {
            0 => bytes = noise,
            1 => bytes.truncate(pos % bytes.len()),
            2 => {
                let at = pos % bytes.len();
                bytes[at] ^= flip as u8;
            }
            _ => {
                let at = pos % (bytes.len() + 1);
                bytes.splice(at..at, noise);
            }
        }
        if let Ok(trace) = MemTrace::from_bytes(&bytes) {
            assert_decoded_trace_is_sound(&trace);
        }
    }

    /// The same for `MemTrace::from_text`: the committed litmus trace cut
    /// short, with one byte replaced, or with characters spliced in — drawn
    /// mostly from the grammar's own alphabet, so that many mutants parse.
    #[test]
    fn arbitrary_trace_text_parses_or_fails_typed(
        mode in 0u64..3,
        pos in any::<usize>(),
        noise in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        const ALPHABET: &[u8] = b"0123456789abcdefx+ \n#nopstoreloadfence";
        let noise: Vec<u8> = noise
            .into_iter()
            .map(|b| if b < 224 { ALPHABET[usize::from(b) % ALPHABET.len()] } else { b })
            .collect();
        let mut bytes = committed_trace_text().into_bytes();
        let at = pos % (bytes.len() + 1);
        match mode {
            0 => bytes.truncate(at),
            1 => {
                let at = at.min(bytes.len() - 1);
                bytes[at] = noise[0];
            }
            _ => {
                bytes.splice(at..at, noise);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(trace) = MemTrace::from_text(&text) {
            assert_decoded_trace_is_sound(&trace);
        }
    }
}
