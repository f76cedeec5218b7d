//! Property-based tests over the whole stack.
//!
//! Random op sequences are checked against a functional memory model:
//! loads must always see the latest store (coherence), fenced writebacks
//! must be durable (persistence, §4), and no word may ever hold a value
//! that was never written (no corruption anywhere in the hierarchy).

use proptest::prelude::*;
use skipit::core::{PerturbConfig, StreamEvent};
use skipit::prelude::*;
use std::collections::HashMap;

/// A compact generator for op scripts over a small line pool.
#[derive(Clone, Debug)]
enum POp {
    Store {
        line: u8,
        word: u8,
        tag: u16,
    },
    Load {
        line: u8,
        word: u8,
    },
    /// Store to a same-set alias of line 0 (see [`conflict_addr_of`]):
    /// touching more aliases than the L1 has ways forces evictions, and two
    /// cores doing so forces probe/eviction/writeback-coalescing races.
    StoreConflict {
        way: u8,
        word: u8,
        tag: u16,
    },
    LoadConflict {
        way: u8,
        word: u8,
    },
    Clean {
        line: u8,
    },
    FlushConflict {
        way: u8,
    },
    Flush {
        line: u8,
    },
    Fence,
    Nop {
        cycles: u8,
    },
}

fn pop_strategy() -> impl Strategy<Value = POp> {
    prop_oneof![
        (0..12u8, 0..8u8, 1..u16::MAX).prop_map(|(line, word, tag)| POp::Store { line, word, tag }),
        (0..12u8, 0..8u8).prop_map(|(line, word)| POp::Load { line, word }),
        (0..12u8, 0..8u8, 1..u16::MAX).prop_map(|(way, word, tag)| POp::StoreConflict {
            way,
            word,
            tag
        }),
        (0..12u8, 0..8u8).prop_map(|(way, word)| POp::LoadConflict { way, word }),
        (0..12u8).prop_map(|line| POp::Clean { line }),
        (0..12u8).prop_map(|way| POp::FlushConflict { way }),
        (0..12u8).prop_map(|line| POp::Flush { line }),
        Just(POp::Fence),
        (1..200u8).prop_map(|cycles| POp::Nop { cycles }),
    ]
}

fn addr_of(line: u8, word: u8) -> u64 {
    0x4_0000 + line as u64 * 64 + word as u64 * 8
}

/// Same-L1-set aliases: the default L1 has 64 sets of 64 B lines, so
/// addresses 0x1000 apart land in the same set. Twelve aliases overflow the
/// 8 ways and keep the set churning.
fn conflict_addr_of(way: u8, word: u8) -> u64 {
    0x8_0000 + way as u64 * 0x1000 + word as u64 * 8
}

fn to_prog(ops: &[POp]) -> Vec<Op> {
    ops.iter()
        .map(|op| match *op {
            POp::Store { line, word, tag } => Op::Store {
                addr: addr_of(line, word),
                value: tag as u64,
            },
            POp::Load { line, word } => Op::Load {
                addr: addr_of(line, word),
            },
            POp::StoreConflict { way, word, tag } => Op::Store {
                addr: conflict_addr_of(way, word),
                value: tag as u64,
            },
            POp::LoadConflict { way, word } => Op::Load {
                addr: conflict_addr_of(way, word),
            },
            POp::Clean { line } => Op::Clean {
                addr: addr_of(line, 0),
            },
            POp::FlushConflict { way } => Op::Flush {
                addr: conflict_addr_of(way, 0),
            },
            POp::Flush { line } => Op::Flush {
                addr: addr_of(line, 0),
            },
            POp::Fence => Op::Fence,
            POp::Nop { cycles } => Op::Nop {
                cycles: cycles as u64,
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Single-core sequential consistency: every load sees the latest
    /// same-thread store, regardless of interleaved cleans/flushes/fences.
    #[test]
    fn loads_always_see_latest_store(ops in prop::collection::vec(pop_strategy(), 1..60),
                                     skip_it in any::<bool>()) {
        let mut sys = SystemBuilder::new().cores(1).skip_it(skip_it).build();
        let mut model: HashMap<u64, u64> = HashMap::new();
        // Run in worker mode so load values are observable.
        let ops2 = ops.clone();
        let (_, mismatches) = sys.run(Workers::new(vec![move |h: CoreHandle| async move {
            let mut model_t: HashMap<u64, u64> = HashMap::new();
            let mut bad = Vec::new();
            for op in &ops2 {
                match *op {
                    POp::Store { line, word, tag } => {
                        h.store(addr_of(line, word), tag as u64).await;
                        model_t.insert(addr_of(line, word), tag as u64);
                    }
                    POp::Load { line, word } => {
                        let got = h.load(addr_of(line, word)).await;
                        let want = model_t.get(&addr_of(line, word)).copied().unwrap_or(0);
                        if got != want {
                            bad.push((addr_of(line, word), got, want));
                        }
                    }
                    POp::StoreConflict { way, word, tag } => {
                        h.store(conflict_addr_of(way, word), tag as u64).await;
                        model_t.insert(conflict_addr_of(way, word), tag as u64);
                    }
                    POp::LoadConflict { way, word } => {
                        let got = h.load(conflict_addr_of(way, word)).await;
                        let want = model_t.get(&conflict_addr_of(way, word)).copied().unwrap_or(0);
                        if got != want {
                            bad.push((conflict_addr_of(way, word), got, want));
                        }
                    }
                    POp::Clean { line } => h.clean(addr_of(line, 0)).await,
                    POp::FlushConflict { way } => h.flush(conflict_addr_of(way, 0)).await,
                    POp::Flush { line } => h.flush(addr_of(line, 0)).await,
                    POp::Fence => h.fence().await,
                    POp::Nop { cycles } => h.work(cycles as u64).await,
                }
            }
            bad
        }])).into_parts();
        // Keep the host-side model in sync for the durability check below.
        for op in &ops {
            if let POp::Store { line, word, tag } = *op {
                model.insert(addr_of(line, word), tag as u64);
            }
        }
        prop_assert!(mismatches[0].is_empty(), "stale loads: {:?}", mismatches[0]);

        // No-corruption: every durable word holds 0 or some written value.
        sys.quiesce();
        let dram = sys.durable_image();
        for line in 0..12u8 {
            for word in 0..8u8 {
                let a = addr_of(line, word);
                let v = dram.read_word_direct(a);
                let written = model.get(&a).copied();
                prop_assert!(
                    v == 0 || Some(v) == written || v <= u16::MAX as u64,
                    "corrupt word at {a:#x}: {v:#x}"
                );
            }
        }
    }

    /// Durability: everything flushed before the final fence is in DRAM.
    #[test]
    fn fenced_writebacks_are_durable(stores in prop::collection::vec((0..8u8, 0..8u8, 1..u16::MAX), 1..30),
                                     use_clean in any::<bool>(),
                                     skip_it in any::<bool>()) {
        let mut sys = SystemBuilder::new().cores(1).skip_it(skip_it).build();
        let mut prog = Vec::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for &(line, word, tag) in &stores {
            prog.push(Op::Store { addr: addr_of(line, word), value: tag as u64 });
            model.insert(addr_of(line, word), tag as u64);
        }
        for line in 0..8u8 {
            let addr = addr_of(line, 0);
            prog.push(if use_clean { Op::Clean { addr } } else { Op::Flush { addr } });
        }
        prog.push(Op::Fence);
        sys.run(Programs(vec![prog]));
        let dram = sys.durable_image();
        for (&a, &v) in &model {
            prop_assert_eq!(dram.read_word_direct(a), v, "addr {:#x}", a);
        }
    }

    /// Two-core determinism: the same scripts produce the same cycle count
    /// and the same durable image on every run (the simulator is
    /// deterministic even through worker mode).
    #[test]
    fn simulation_is_deterministic(ops in prop::collection::vec(pop_strategy(), 1..40)) {
        let mut results = Vec::new();
        for _run in 0..2 {
            let mut sys = SystemBuilder::new().cores(2).skip_it(true).build();
            let cycles = sys.run(Programs(vec![to_prog(&ops), to_prog(&ops)])).cycles;
            sys.quiesce();
            let dram = sys.durable_image();
            let image: Vec<u64> = (0..12 * 8)
                .map(|w| dram.read_word_direct(0x4_0000 + w * 8))
                .collect();
            results.push((cycles, image));
        }
        prop_assert_eq!(&results[0], &results[1]);
    }

    /// Engine equivalence (DESIGN.md §5): both engines — naive and
    /// component-wheel — produce bit-identical elapsed cycles, statistics,
    /// durable memory *and* trace-event streams (modulo the wheel's own
    /// jump markers) for random contending four-core programs, including
    /// the same-set conflict ops that force probe/eviction/coalescing
    /// races.
    #[test]
    fn all_engines_are_cycle_exact(ops0 in prop::collection::vec(pop_strategy(), 1..40),
                                   ops1 in prop::collection::vec(pop_strategy(), 1..40),
                                   skip_it in any::<bool>()) {
        const CORES: usize = 4;
        let run = |engine: EngineKind| {
            let mut sys = SystemBuilder::new()
                .cores(CORES)
                .skip_it(skip_it)
                .engine(engine)
                .build();
            sys.set_trace(TraceConfig::new().events(1 << 15));
            // Four cores, two scripts: adjacent cores share a script so
            // same-line contention still happens across the larger system.
            let progs = (0..CORES)
                .map(|i| to_prog(if i % 2 == 0 { &ops0 } else { &ops1 }))
                .collect();
            let cycles = sys.run(Programs(progs)).cycles;
            sys.quiesce();
            let stats = sys.stats();
            let events: Vec<StreamEvent> = sys
                .trace_events()
                .into_iter()
                .filter(|se| !se.event.is_engine_event())
                .collect();
            let dram = sys.durable_image();
            let image: Vec<u64> = (0..12 * 8)
                .map(|w| dram.read_word_direct(0x4_0000 + w * 8))
                .chain((0..12 * 8).map(|w| dram.read_word_direct(0x8_0000 + (w / 8) * 0x1000 + (w % 8) * 8)))
                .collect();
            (cycles, stats, image, events)
        };
        prop_assert_eq!(
            &run(EngineKind::Naive),
            &run(EngineKind::ComponentWheel),
            "component-wheel diverges from naive"
        );
    }

    /// Perturbed runs are engine-invariant and bit-reproducible: a
    /// `(seed, config)` pair gives the same cycles/stats/events under the
    /// naive engine and the component wheel, and again on a second wheel
    /// run, because perturbation counters are keyed per site (per link,
    /// per component), never per step.
    #[test]
    fn perturbed_runs_are_engine_invariant_and_reproducible(
        ops in prop::collection::vec(pop_strategy(), 1..30),
        seed in any::<u64>()) {
        const CORES: usize = 4;
        let perturb = PerturbConfig::exploring(seed);
        let run = |engine: EngineKind| {
            let mut sys = SystemBuilder::new()
                .cores(CORES)
                .skip_it(true)
                .engine(engine)
                .perturb(perturb)
                .build();
            sys.set_trace(TraceConfig::new().events(1 << 14));
            let cycles = sys.run(Programs(vec![to_prog(&ops); CORES])).cycles;
            sys.quiesce();
            let stats = sys.stats();
            let events: Vec<StreamEvent> = sys
                .trace_events()
                .into_iter()
                .filter(|se| !se.event.is_engine_event())
                .collect();
            (cycles, stats, events)
        };
        let wheel = run(EngineKind::ComponentWheel);
        prop_assert_eq!(
            &run(EngineKind::Naive),
            &wheel,
            "perturbed component-wheel diverges from naive"
        );
        // Same (seed, config) twice under the wheel: identical.
        prop_assert_eq!(
            &wheel,
            &run(EngineKind::ComponentWheel),
            "perturbed component-wheel run is not reproducible"
        );
    }

    /// Telemetry sampling is observation-only: enabling it changes nothing
    /// the simulation can see — cycles, statistics, durable memory and the
    /// non-engine trace-event stream are bit-identical to a telemetry-off
    /// run, on both engines, with and without link perturbation. The
    /// sample series itself is also engine-independent: the jump-taking
    /// wheel, whose sampler materializes one sample per crossed boundary on
    /// landing, reports the same samples as the naive engine.
    #[test]
    fn telemetry_is_observation_only_on_all_engines(
        ops in prop::collection::vec(pop_strategy(), 1..30),
        interval in 16..400u64,
        perturbed in any::<bool>(),
        seed in any::<u64>()) {
        const CORES: usize = 4;
        let perturb_seed = perturbed.then_some(seed);
        let run = |engine: EngineKind, telemetry: bool| {
            let mut b = SystemBuilder::new()
                .cores(CORES)
                .skip_it(true)
                .engine(engine);
            if let Some(seed) = perturb_seed {
                b = b.perturb(PerturbConfig::exploring(seed));
            }
            let mut sys = b.build();
            let mut cfg = TraceConfig::new().events(1 << 14);
            if telemetry {
                cfg = cfg.telemetry(interval);
            }
            sys.set_trace(cfg);
            let cycles = sys.run(Programs(vec![to_prog(&ops); CORES])).cycles;
            sys.quiesce();
            let stats = sys.stats();
            let events: Vec<StreamEvent> = sys
                .trace_events()
                .into_iter()
                .filter(|se| !se.event.is_engine_event())
                .collect();
            let samples = sys
                .telemetry_snapshot()
                .map(|t| t.samples().cloned().collect::<Vec<_>>());
            let dram = sys.durable_image();
            let image: Vec<u64> = (0..12 * 8)
                .map(|w| dram.read_word_direct(0x4_0000 + w * 8))
                .collect();
            ((cycles, stats, image, events), samples)
        };
        const ENGINES: [EngineKind; 2] = [EngineKind::Naive, EngineKind::ComponentWheel];
        let mut sampled = Vec::new();
        for engine in ENGINES {
            let (off, none) = run(engine, false);
            let (on, samples) = run(engine, true);
            prop_assert_eq!(none, None);
            prop_assert_eq!(
                &off, &on,
                "telemetry sampling perturbed the simulation under {:?}", engine
            );
            sampled.push(samples.expect("telemetry-on run must produce a sampler"));
        }
        for (engine, samples) in ENGINES.iter().zip(&sampled) {
            prop_assert_eq!(
                &sampled[0], samples,
                "telemetry samples diverge between naive and {:?}", engine
            );
        }
    }
}

/// Wake-edge regression (DESIGN.md §5): core 1 dirties a line and then goes
/// to sleep in a long `Nop`; core 0 stores to the same line mid-sleep,
/// forcing the L2 to probe core 1's L1 while the wheel considers that core
/// idle. The B-channel push must wake the slept component the very cycle
/// the message arrives — cycles, statistics and the non-engine event stream
/// all match naive stepping, and the probe demonstrably happened.
#[test]
fn probe_wakes_slept_core_same_cycle_as_naive() {
    let run = |engine: EngineKind| {
        let mut sys = SystemBuilder::new().cores(2).engine(engine).build();
        sys.set_trace(TraceConfig::new().events(1 << 14));
        let prog0 = vec![
            Op::Nop { cycles: 60 },
            Op::Store {
                addr: 0x4_0000,
                value: 2,
            },
            Op::Fence,
        ];
        let prog1 = vec![
            Op::Store {
                addr: 0x4_0000,
                value: 1,
            },
            Op::Nop { cycles: 400 },
            Op::Load { addr: 0x4_0000 },
        ];
        let cycles = sys.run(Programs(vec![prog0, prog1])).cycles;
        let stats = sys.stats();
        assert!(
            stats.l1[1].probes_handled > 0,
            "core 1 was never probed; the scenario lost its race"
        );
        let events: Vec<StreamEvent> = sys
            .trace_events()
            .into_iter()
            .filter(|se| !se.event.is_engine_event())
            .collect();
        (cycles, stats, events)
    };
    let naive = run(EngineKind::Naive);
    let wheel = run(EngineKind::ComponentWheel);
    assert_eq!(
        naive, wheel,
        "component-wheel handled the mid-sleep probe differently from naive"
    );
}
