//! Regression tests for the protocol bugs the adversarial explorer flushed
//! out in its first campaign (see EXPERIMENTS.md "Adversarial seed
//! campaigns"). Each test replays the ddmin-minimized reproducer the
//! harness emitted, under the exact `(scenario, seed)` perturbation that
//! originally exposed the bug, with the invariant oracle watching every
//! cycle.
//!
//! Bug 1 — store admitted past a shadowed CBO.FLUSH FSHR (inclusion break):
//! `store_flush_conflict` consulted only the *first* FSHR active on the
//! line. A missed `CBO.CLEAN` still awaiting its ack occupies an earlier
//! FSHR slot and permits stores; a `CBO.FLUSH` for the same line dispatched
//! behind it was invisible to the check, so the store refilled the line
//! while the flush's RootRelease sat deferred in the L2 ListBuffer. When
//! the stale flush replayed, it invalidated the freshly filled L2 entry
//! with the L1 still holding the line Modified — an L1-resident line no
//! longer tracked anywhere in the L2.
//!
//! Bug 2 — premature ack-time skip-bit set (§6.2 violation): a `CBO.CLEAN`
//! that missed writes back nothing, but its `RootReleaseAck` still set the
//! skip bit whenever the line happened to be valid+clean at ack time — even
//! while a *second* FSHR was mid-flight carrying the line's current data.
//! In that window the skip bit asserted "persisted" for data the
//! persistence domain did not yet hold (L2 dirty).
//!
//! Bug 3 — skip bit set from a stale snapshot (§6.2 violation, cross-core):
//! a §5.3 store admitted past a buffer-captured `CBO.CLEAN` re-dirtied the
//! line *after* the FSHR's snapshot; a probe downgrade (another core's
//! load) then moved the new data into the L2 and left the L1 line
//! valid+clean. The clean's late ack found the line valid+clean and set the
//! skip bit — for data that only existed dirty in the L2. Fixed by the
//! per-FSHR `skip_ok` eligibility flag, cleared whenever the line is
//! stored to or invalidated while the FSHR is in flight.
//!
//! Bug 4 — same-line ack misattribution: with a `CBO.CLEAN` and a
//! `CBO.FLUSH` for one line both in `WaitAck` (legal, §5.2), `complete_ack`
//! freed the first matching FSHR by scan order. The clean's ack (the L2
//! serves same-line transactions in arrival order) freed the *flush's*
//! FSHR, dropping the §5.3 store interlock while the flush's invalidating
//! RootRelease was still deferred in the L2 ListBuffer. A store/AMO then
//! refilled the line, and the stale flush replayed and invalidated the L2
//! entry behind the L1's back. Fixed by matching acks to the oldest
//! same-line `WaitAck` FSHR (dispatch order = ack order over FIFO links).

use skipit::core::Op;
use skipit::explore::{build_system, run_with_oracle, ExploreConfig, Scenario};

/// Replays minimized programs under the originating seed's perturbation and
/// asserts every invariant holds at every executed cycle.
fn assert_clean(seed: u64, programs: Vec<Vec<Op>>) {
    let mut sys = build_system(ExploreConfig::default(), seed);
    let (_, violation) = run_with_oracle(&mut sys, programs);
    assert_eq!(violation, None, "replay of minimized reproducer violated");
}

/// Bug 1: flush_storm seed 2, minimized to four single-core ops. The
/// `Clean` of a non-resident line parks an FSHR in wait-ack; the `Flush`
/// of the same line dispatches into a second FSHR the same cycle the store
/// issues. The fixed interlock nacks the store until *every* same-line
/// FSHR permits it, so the flush's RootRelease can no longer invalidate a
/// refilled line behind the L1's back.
#[test]
fn store_blocked_by_every_same_line_fshr() {
    assert_clean(
        2,
        vec![
            vec![
                Op::Clean { addr: 262512 },
                Op::Clean { addr: 262224 },
                Op::Flush { addr: 262496 },
                Op::Store {
                    addr: 262504,
                    value: 15165722852443597895,
                },
            ],
            vec![],
        ],
    );
}

/// Bug 2: flush_storm seed 0, minimized to three single-core ops on one
/// line. The first `Clean` misses and completes late (dispatch jitter);
/// the store refills and dirties the line; the second `Clean` snapshots
/// the new data into a second FSHR. The fixed `complete_ack` refuses to
/// set the skip bit while another FSHR is still flushing the line, so the
/// stale first ack can no longer mark unpersisted data skippable.
#[test]
fn stale_clean_ack_does_not_set_skip_bit() {
    assert_clean(
        0,
        vec![
            vec![
                Op::Clean { addr: 262448 },
                Op::Store {
                    addr: 262432,
                    value: 2988993038003801051,
                },
                Op::Clean { addr: 262424 },
            ],
            vec![],
        ],
    );
}

/// Bug 3: shared_lines seed 178. Core 0's `Clean { 327872 }` captures its
/// buffer; the later same-line store (327928) is §5.3-admitted and
/// re-dirties the line; core 1's `Load { 327888 }` probe-downgrades core 0
/// (new dirty data moves to the L2) leaving the line valid+clean; the
/// clean's ack must NOT set the skip bit for it.
#[test]
fn stale_snapshot_ack_does_not_set_skip_bit() {
    assert_clean(
        178,
        vec![
            vec![
                Op::Cas {
                    addr: 327792,
                    expected: 0,
                    new: 17000834770063510799,
                },
                Op::Store {
                    addr: 327848,
                    value: 1121949586410295777,
                },
                Op::Clean { addr: 327784 },
                Op::Fence,
                Op::Store {
                    addr: 327680,
                    value: 1535580291866362175,
                },
                Op::Store {
                    addr: 327896,
                    value: 2145584512524875599,
                },
                Op::Flush { addr: 327808 },
                Op::Clean { addr: 327872 },
                Op::Store {
                    addr: 327688,
                    value: 6932315703216876180,
                },
                Op::Store {
                    addr: 327928,
                    value: 9954850963853786980,
                },
                Op::Store {
                    addr: 327768,
                    value: 3603478034736138454,
                },
                Op::Flush { addr: 327840 },
            ],
            vec![
                Op::Store {
                    addr: 327832,
                    value: 18074548555412271854,
                },
                Op::Cas {
                    addr: 327688,
                    expected: 0,
                    new: 11006637672507140697,
                },
                Op::Store {
                    addr: 327752,
                    value: 5689429904576454684,
                },
                Op::Cas {
                    addr: 327904,
                    expected: 0,
                    new: 17972647076526853515,
                },
                Op::Clean { addr: 327688 },
                Op::Fence,
                Op::Load { addr: 327888 },
            ],
        ],
    );
}

/// Bug 4: shared_lines seed 833. A `Clean` and a `Flush` for line 0x50080
/// are both in `WaitAck`; the clean's ack must free the clean's FSHR, not
/// the flush's, so the final same-line `Cas` stays nacked until the
/// flush's deferred invalidation has fully run at the L2.
#[test]
fn ack_matches_oldest_same_line_fshr() {
    assert_clean(
        833,
        vec![
            vec![
                Op::Cas {
                    addr: 327760,
                    expected: 0,
                    new: 14479839224334027765,
                },
                Op::Clean { addr: 327912 },
                Op::Flush { addr: 327784 },
                Op::Clean { addr: 327832 },
                Op::Store {
                    addr: 327720,
                    value: 2809660974957170621,
                },
                Op::Cas {
                    addr: 327824,
                    expected: 0,
                    new: 9045082182196363701,
                },
                Op::Clean { addr: 327736 },
                Op::Store {
                    addr: 327792,
                    value: 14015033049797959946,
                },
                Op::Flush { addr: 327864 },
                Op::Flush { addr: 327680 },
                Op::Flush { addr: 327928 },
                Op::Cas {
                    addr: 327872,
                    expected: 0,
                    new: 2623614070582292241,
                },
                Op::Clean { addr: 327776 },
                Op::Clean { addr: 327864 },
                Op::Clean { addr: 327680 },
                Op::Flush { addr: 327872 },
                Op::Cas {
                    addr: 327896,
                    expected: 0,
                    new: 10738933427804139087,
                },
                Op::Flush { addr: 327864 },
                Op::Store {
                    addr: 327856,
                    value: 1114326487994014724,
                },
                Op::Flush { addr: 327920 },
                Op::Clean { addr: 327816 },
                Op::Flush { addr: 327872 },
                Op::Store {
                    addr: 327928,
                    value: 1946791192929897662,
                },
                Op::Store {
                    addr: 327752,
                    value: 10549187838515398535,
                },
                Op::Flush { addr: 327776 },
                Op::Flush { addr: 327832 },
                Op::Cas {
                    addr: 327824,
                    expected: 0,
                    new: 14929760587166579203,
                },
            ],
            vec![
                Op::Store {
                    addr: 327720,
                    value: 42727630884370236,
                },
                Op::Cas {
                    addr: 327760,
                    expected: 0,
                    new: 4088113854857918651,
                },
                Op::Store {
                    addr: 327832,
                    value: 1894924934932151884,
                },
                Op::Store {
                    addr: 327688,
                    value: 13193059689220349254,
                },
                Op::Clean { addr: 327688 },
                Op::Fence,
                Op::Load { addr: 327888 },
                Op::Store {
                    addr: 327752,
                    value: 10062540246687293622,
                },
                Op::Flush { addr: 327864 },
                Op::Store {
                    addr: 327824,
                    value: 8558203286435787094,
                },
            ],
        ],
    );
}

/// The full original coordinates stay clean too: the exact `(scenario,
/// seed)` pairs whose campaigns first reported the violations.
#[test]
fn originating_campaign_points_are_clean() {
    use skipit::explore::explore_one;
    for (scenario, seed) in [
        (Scenario::FlushStorm, 0u64),
        (Scenario::FlushStorm, 2),
        (Scenario::FlushStorm, 3),
        (Scenario::FlushStorm, 643),
        (Scenario::FlushStorm, 720),
        (Scenario::FlushStorm, 932),
        (Scenario::FlushStorm, 958),
        (Scenario::SharedLines, 3),
        (Scenario::SharedLines, 178),
        (Scenario::SharedLines, 833),
    ] {
        let ex = explore_one(scenario, seed, ExploreConfig::default());
        assert_eq!(
            ex.violation,
            None,
            "{} seed {seed} regressed",
            scenario.name()
        );
    }
}
