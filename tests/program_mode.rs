//! Program-mode (script-driven) edge cases and an assembler round-trip
//! property.

use proptest::prelude::*;
use skipit::core::{asm, DramConfig, L2Config, RUN_WATCHDOG_CYCLES};
use skipit::prelude::*;

#[test]
fn empty_programs_finish_immediately() {
    let mut sys = SystemBuilder::new().cores(2).build();
    let cycles = sys.run(Programs(vec![vec![], vec![]])).cycles;
    assert!(cycles <= 2, "empty programs took {cycles} cycles");
}

#[test]
fn nop_only_program_consumes_its_cycles() {
    let mut sys = SystemBuilder::new().cores(1).build();
    let cycles = sys
        .run(Programs(vec![vec![
            Op::Nop { cycles: 100 },
            Op::Nop { cycles: 50 },
        ]]))
        .cycles;
    assert!(
        (150..200).contains(&cycles),
        "nop program took {cycles} cycles"
    );
}

#[test]
fn uneven_program_lengths_complete() {
    let mut sys = SystemBuilder::new().cores(3).build();
    let long: Vec<Op> = (0..200)
        .map(|i| Op::Store {
            addr: 0x1000 + i * 8,
            value: i,
        })
        .collect();
    let cycles = sys
        .run(Programs(vec![long, vec![Op::Fence], vec![]]))
        .cycles;
    assert!(cycles > 0);
    sys.quiesce();
    assert_eq!(sys.l1(0).peek_word(0x1000 + 199 * 8), Some(199));
}

#[test]
fn repeated_phases_accumulate_state() {
    let mut sys = SystemBuilder::new().cores(1).build();
    for i in 0..20u64 {
        sys.run(Programs(vec![vec![Op::FetchAdd {
            addr: 0x2000,
            operand: 1,
        }]]));
        let _ = i;
    }
    sys.run(Programs(vec![vec![Op::Flush { addr: 0x2000 }, Op::Fence]]));
    assert_eq!(sys.dram().read_word_direct(0x2000), 20);
}

#[test]
fn stq_saturation_makes_progress() {
    // 500 dependent ops through a 32-deep STQ: pure back-pressure test.
    let mut sys = SystemBuilder::new().cores(1).build();
    let mut prog = Vec::new();
    for i in 0..500u64 {
        prog.push(Op::Store {
            addr: 0x3000,
            value: i,
        });
    }
    prog.push(Op::Clean { addr: 0x3000 });
    prog.push(Op::Fence);
    sys.run(Programs(vec![prog]));
    assert_eq!(sys.dram().read_word_direct(0x3000), 499);
}

/// Every configurable latency is bounded by the run watchdog: each field
/// at `u64::MAX` and one past the bound is rejected by name with a typed
/// error, and each field at the bound builds.
#[test]
fn latencies_past_the_run_watchdog_are_typed_errors() {
    let dram = |dram| SystemBuilder::new().dram(dram);
    let cases: [(&str, &dyn Fn(u64) -> SystemBuilder); 4] = [
        ("dram.read_latency", &|v| {
            dram(DramConfig {
                read_latency: v,
                ..DramConfig::default()
            })
        }),
        ("dram.write_latency", &|v| {
            dram(DramConfig {
                write_latency: v,
                ..DramConfig::default()
            })
        }),
        ("dram.issue_interval", &|v| {
            dram(DramConfig {
                issue_interval: v,
                ..DramConfig::default()
            })
        }),
        ("l2.access_latency", &|v| {
            SystemBuilder::new().l2(L2Config {
                access_latency: v,
                ..L2Config::default()
            })
        }),
    ];
    let max = RUN_WATCHDOG_CYCLES;
    for (what, builder) in cases {
        for got in [u64::MAX, max + 1] {
            let err = builder(got).try_build().err();
            assert_eq!(
                err,
                Some(ConfigError::LatencyTooLong { what, max, got }),
                "{what} = {got}"
            );
        }
        assert!(builder(max).try_build().is_ok(), "{what} at the bound");
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64, 1u64..1000).prop_map(|(w, v)| Op::Store {
            addr: 0x4000 + w * 8,
            value: v
        }),
        (0u64..64).prop_map(|w| Op::Load {
            addr: 0x4000 + w * 8
        }),
        (0u64..64, 1u64..100, 1u64..100).prop_map(|(w, e, n)| Op::Cas {
            addr: 0x4000 + w * 8,
            expected: e,
            new: n
        }),
        (0u64..64, 1u64..50).prop_map(|(w, o)| Op::FetchAdd {
            addr: 0x4000 + w * 8,
            operand: o
        }),
        (0u64..64, 1u64..50).prop_map(|(w, o)| Op::Swap {
            addr: 0x4000 + w * 8,
            operand: o
        }),
        (0u64..64).prop_map(|w| Op::Clean {
            addr: 0x4000 + w * 8
        }),
        (0u64..64).prop_map(|w| Op::Flush {
            addr: 0x4000 + w * 8
        }),
        (0u64..64).prop_map(|w| Op::Inval {
            addr: 0x4000 + w * 8
        }),
        Just(Op::Fence),
        (1u64..20).prop_map(|c| Op::Nop { cycles: c }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// disassemble ∘ assemble is the identity on every op sequence.
    #[test]
    fn assembler_roundtrip(ops in prop::collection::vec(arb_op(), 0..40)) {
        let text = asm::disassemble(&ops);
        let back = asm::assemble(&text).expect("disassembly must reassemble");
        prop_assert_eq!(ops, back);
    }
}
