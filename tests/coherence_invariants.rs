//! Structural coherence invariants checked after random multicore traffic:
//! inclusion (every L1-resident line is L2-resident), single-writer (at most
//! one Modified/Exclusive copy), and value propagation litmus tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipit::core::ClientState;
use skipit::prelude::*;

fn random_program(rng: &mut StdRng, lines: u64, ops: usize) -> Vec<Op> {
    let mut prog = Vec::with_capacity(ops);
    for _ in 0..ops {
        let addr = 0x20_000 + rng.gen_range(0..lines) * 64 + rng.gen_range(0..8) * 8;
        prog.push(match rng.gen_range(0..12) {
            0..=4 => Op::Store {
                addr,
                value: rng.gen(),
            },
            5..=8 => Op::Load { addr },
            9 => Op::Clean { addr },
            10 => Op::Flush { addr },
            _ => Op::Fence,
        });
    }
    prog.push(Op::Fence);
    prog
}

#[test]
fn inclusion_and_single_writer_hold_under_random_traffic() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = SystemBuilder::new().cores(4).skip_it(seed % 2 == 0).build();
        for _round in 0..4 {
            let progs = (0..4).map(|_| random_program(&mut rng, 48, 80)).collect();
            s.run(Programs(progs));
            s.quiesce();
            // Inclusion: anything in an L1 is in the L2.
            for core in 0..4 {
                for (line, state, _skip) in s.l1(core).resident_lines() {
                    assert!(
                        s.l2().peek_valid(line),
                        "core {core}: {line:?} ({state}) violates inclusion"
                    );
                }
            }
            // Single-writer: a line writable in one L1 is writable nowhere
            // else and readable nowhere else.
            for core in 0..4 {
                for (line, state, _skip) in s.l1(core).resident_lines() {
                    if state.can_write() {
                        for other in 0..4 {
                            if other == core {
                                continue;
                            }
                            assert_eq!(
                                s.l1(other).peek_state(line.base()),
                                ClientState::Invalid,
                                "line {line:?} writable in core {core} but \
                                 present in core {other}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Message-passing litmus: data written before a fence must be visible to
/// another worker that observes the flag (worker-mode sequential reads give
/// the per-worker ordering; coherence gives the cross-worker edge).
#[test]
fn message_passing_litmus() {
    for round in 0..10u64 {
        let mut s = SystemBuilder::new().cores(2).build();
        let data = 0x30_000;
        let flag = 0x30_400; // different line
        let (_, got) = s
            .run(
                Workers::new(vec![
                    move |h: CoreHandle| async move {
                        if h.core_id() == 0 {
                            h.store(data, 1000 + round).await;
                            h.fence().await;
                            h.store(flag, 1).await;
                            return 0u64;
                        }
                        while h.load(flag).await == 0 {
                            if h.halted() {
                                return 0;
                            }
                        }
                        h.load(data).await
                    };
                    2
                ])
                .budget(1_000_000),
            )
            .into_parts();
        assert_eq!(got[1], 1000 + round, "round {round}: stale data after flag");
    }
}

/// Store buffering litmus with fences: both workers store then read the
/// other's location; with fences between, at least one must see the other's
/// store (no "both read 0" outcome).
#[test]
fn store_buffer_litmus_with_fences() {
    for round in 0..10u64 {
        let mut s = SystemBuilder::new().cores(2).build();
        let x = 0x40_000 + round * 128;
        let y = 0x41_000 + round * 128;
        let (_, got) = s
            .run(Workers::new(vec![
                move |h: CoreHandle| async move {
                    let (mine, theirs) = if h.core_id() == 0 { (x, y) } else { (y, x) };
                    h.store(mine, 1).await;
                    h.fence().await;
                    h.load(theirs).await
                };
                2
            ]))
            .into_parts();
        assert!(
            got[0] == 1 || got[1] == 1,
            "round {round}: SB litmus forbidden outcome (0, 0)"
        );
    }
}

/// A flush on one core makes a value durable that another core wrote and
/// never flushed — through the full probe-collect-writeback path (§5.5).
#[test]
fn cross_core_flush_chain() {
    let mut s = SystemBuilder::new().cores(4).build();
    // Core 0 writes, core 1 reads (spreads Shared copies), core 2 writes
    // again (revokes), core 3 flushes.
    s.run(Programs(vec![
        vec![Op::Store {
            addr: 0x50_000,
            value: 1,
        }],
        vec![],
        vec![],
        vec![],
    ]));
    s.run(Programs(vec![
        vec![],
        vec![Op::Load { addr: 0x50_000 }],
        vec![],
        vec![],
    ]));
    s.run(Programs(vec![
        vec![],
        vec![],
        vec![Op::Store {
            addr: 0x50_000,
            value: 2,
        }],
        vec![],
    ]));
    s.run(Programs(vec![
        vec![],
        vec![],
        vec![],
        vec![Op::Flush { addr: 0x50_000 }, Op::Fence],
    ]));
    assert_eq!(s.dram().read_word_direct(0x50_000), 2);
    for core in 0..4 {
        assert_eq!(
            s.l1(core).peek_state(0x50_000),
            ClientState::Invalid,
            "flush must invalidate every copy (core {core})"
        );
    }
    assert!(!s
        .l2()
        .peek_valid(skipit::core::LineAddr::containing(0x50_000)));
}
