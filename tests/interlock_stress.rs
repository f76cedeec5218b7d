//! Deadlock-freedom stress for the §5.4 interlocks
//! (`probe_rdy`/`flush_rdy`/`wb_rdy`): tiny caches, tiny flush unit, four
//! cores hammering few lines maximizes probe/eviction/FSHR interactions.
//! The oracle is the run watchdog (a deadlock hangs the simulation) plus
//! final durability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipit::core::{L1Config, L2Config};
use skipit::prelude::*;

fn tiny_system(seed: u64) -> skipit::System {
    SystemBuilder::new()
        .cores(4)
        .skip_it(seed.is_multiple_of(2))
        .l1(L1Config {
            sets: 4,
            ways: 2,
            mshrs: 2,
            rpq_depth: 2,
            flush_queue_depth: 2,
            fshrs: 2,
            skip_it: seed.is_multiple_of(2),
            cross_kind_coalescing: seed.is_multiple_of(3),
        })
        .l2(L2Config {
            sets: 8,
            ways: 2,
            mshrs: 3,
            access_latency: 6,
            list_buffer_depth: 64,
        })
        .build()
}

#[test]
fn tiny_geometry_survives_random_storms() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sys = tiny_system(seed);
        for _round in 0..3 {
            let progs = (0..4)
                .map(|_| {
                    let mut p = Vec::new();
                    for _ in 0..120 {
                        // 24 lines >> 8-line L1s and barely-fitting L2.
                        let addr =
                            0x10_000 + rng.gen_range(0..24u64) * 64 + rng.gen_range(0..8u64) * 8;
                        p.push(match rng.gen_range(0..12) {
                            0..=4 => Op::Store {
                                addr,
                                value: rng.gen_range(1..u32::MAX as u64),
                            },
                            5..=7 => Op::Load { addr },
                            8 => Op::Clean { addr },
                            9 => Op::Flush { addr },
                            10 => Op::Inval { addr },
                            _ => Op::Fence,
                        });
                    }
                    p.push(Op::Fence);
                    p
                })
                .collect();
            // Program-mode runs have a watchdog: a deadlock panics rather than
            // hanging forever.
            sys.run(Programs(progs));
            sys.quiesce();
        }
        // The system drained completely; stats stay self-consistent.
        let st = sys.stats();
        let enq: u64 = st.l1.iter().map(|s| s.writebacks_enqueued).sum();
        let sent: u64 = st.l1.iter().map(|s| s.root_releases_sent).sum();
        assert_eq!(enq, sent, "every enqueued writeback must reach the L2");
        assert_eq!(
            sent,
            st.l2.root_release_flush + st.l2.root_release_clean + st.l2.root_release_inval,
            "L2 must account for every RootRelease"
        );
        // The LSU holds what the L1 would refuse, so no fired request is
        // ever nacked, even where the queues are this small.
        for (core, l1) in st.l1.iter().enumerate() {
            assert_eq!(l1.nacks, 0, "seed {seed}: core {core} was nacked");
        }
    }
}

#[test]
fn single_fshr_single_queue_slot_still_drains() {
    // The most constrained flush unit possible.
    let mut sys = SystemBuilder::new()
        .cores(1)
        .flush_queue_depth(1)
        .fshrs(1)
        .build();
    let mut prog = Vec::new();
    for i in 0..64u64 {
        prog.push(Op::Store {
            addr: 0x20_000 + i * 64,
            value: i + 1,
        });
        prog.push(Op::Flush {
            addr: 0x20_000 + i * 64,
        });
    }
    prog.push(Op::Fence);
    sys.run(Programs(vec![prog]));
    for i in 0..64u64 {
        assert_eq!(sys.dram().read_word_direct(0x20_000 + i * 64), i + 1);
    }
}
