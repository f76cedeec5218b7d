//! Property-based tests of the full-system snapshot (DESIGN.md §11):
//! for arbitrary 2-core programs, a mid-run snapshot restores to a system
//! that is bit-identical going forward — same digests, cycles, statistics
//! and durable image — on both engines and across them, and survives
//! adversarial perturbation with the jitter-draw counters intact. Corrupt
//! inputs decode to typed errors, never panics.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use skipit_boom::{EngineKind, Op, Programs, Snapshot, SnapshotError, System, SystemConfig};
use skipit_tilelink::PerturbConfig;

/// A small address pool keeps cores contending on the same lines.
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

const ENGINES: [EngineKind; 2] = [EngineKind::Naive, EngineKind::ComponentWheel];

/// Runs `programs` under `cfg`, snapshotting at the first observed cycle
/// `>= at`; restores the snapshot under `cfg` with its engine replaced by
/// `resume_engine` and resumes; checks the resumed run reaches the
/// reference's exact final state. Returns `false` if the run finished
/// before `at` (no mid-run boundary to snapshot).
fn check_roundtrip(
    cfg: SystemConfig,
    resume_engine: EngineKind,
    programs: Vec<Vec<Op>>,
    at: u64,
) -> Result<bool, TestCaseError> {
    let mut reference = System::new(cfg);
    let ref_cycles = reference.run(Programs(programs.clone())).cycles;

    let mut s = System::new(cfg);
    let mut snap: Option<Snapshot> = None;
    s.run_programs_observed(programs, |sys| {
        if sys.now() >= at && snap.is_none() {
            snap = Some(sys.snapshot().expect("program-mode snapshot"));
        }
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap();
    let Some(snap) = snap else {
        return Ok(false); // run ended before `at`
    };

    // The snapshot must survive a byte-level round trip.
    let snap = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();

    let resume_cfg = SystemConfig {
        engine: resume_engine,
        ..cfg
    };
    let mut resumed = System::restore(&snap, &resume_cfg).unwrap();
    let at_restore = resumed.now();
    prop_assert_eq!(
        resumed.state_digest(),
        System::restore(&snap, &resume_cfg).unwrap().state_digest(),
        "restore is deterministic"
    );
    let tail = resumed.resume_programs();
    prop_assert_eq!(at_restore + tail, ref_cycles, "cycle counts agree");
    prop_assert_eq!(
        resumed.state_digest(),
        reference.state_digest(),
        "final digests agree"
    );
    prop_assert_eq!(resumed.stats(), reference.stats(), "stats agree");
    prop_assert_eq!(
        format!("{:?}", resumed.durable_image()),
        format!("{:?}", reference.durable_image()),
        "durable images agree"
    );
    Ok(true)
}

/// The bytes of a real mid-run snapshot: both cores' replay frontends
/// still hold ops (a think time among them), with misses and writebacks
/// in flight.
fn mid_run_snapshot_bytes(cfg: SystemConfig) -> Vec<u8> {
    let script = |base: u64| {
        let mut ops: Vec<Op> = (0..6)
            .flat_map(|i| {
                let addr = base + i * 64;
                [Op::Store { addr, value: i + 1 }, Op::Clean { addr }]
            })
            .collect();
        ops.extend([Op::Nop { cycles: 40 }, Op::Fence, Op::Load { addr: base }]);
        ops
    };
    let mut s = System::new(cfg);
    let mut bytes = None;
    s.run_programs_observed(vec![script(0x4_0000), script(0x5_0000)], |sys| {
        if sys.now() >= 60 && bytes.is_none() {
            bytes = Some(
                sys.snapshot()
                    .expect("script frontends snapshot")
                    .into_bytes(),
            );
        }
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap();
    bytes.expect("the run lasts past cycle 60")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Snapshot → restore → resume is bit-identical on both engines, and
    /// a snapshot taken under one engine resumes exactly under the other.
    #[test]
    fn mid_run_roundtrip_on_every_engine(
        programs in arb_programs(),
        at in 10u64..120,
    ) {
        for engine in ENGINES {
            for resume_engine in ENGINES {
                let cfg = SystemConfig {
                    cores: 2,
                    engine,
                    ..SystemConfig::default()
                };
                check_roundtrip(cfg, resume_engine, programs.clone(), at)?;
            }
        }
    }

    /// Under adversarial perturbation the jitter-draw counters (link
    /// pushes, flush dispatch sequence, L2 allocation sequence) are part
    /// of the snapshot, so a resumed run draws the exact jitter sequence
    /// the uninterrupted run would have seen.
    #[test]
    fn mid_run_roundtrip_survives_perturbation(
        programs in arb_programs(),
        at in 10u64..120,
        seed in 0u64..1000,
    ) {
        let cfg = SystemConfig {
            cores: 2,
            perturb: PerturbConfig::exploring(seed),
            ..SystemConfig::default()
        };
        check_roundtrip(cfg, EngineKind::ComponentWheel, programs, at)?;
    }

    /// Arbitrary corruption of a valid snapshot decodes to a typed error
    /// (or restores cleanly, if the flip lands in a byte whose meaning is
    /// unchanged) — never a panic, never an out-of-bounds allocation.
    #[test]
    fn corrupted_snapshots_fail_typed(
        flip_pos in 0u64..10_000,
        flip_bits in 1u64..256,
        truncate in any::<bool>(),
    ) {
        let cfg = SystemConfig { cores: 2, ..SystemConfig::default() };
        let mut s = System::new(cfg);
        s.run(Programs(vec![
            vec![Op::Store { addr: 0x4000, value: 1 }, Op::Flush { addr: 0x4000 }],
            vec![Op::Load { addr: 0x4000 }],
        ]));
        let mut bytes = s.snapshot().unwrap().into_bytes();
        let idx = (flip_pos as usize) % bytes.len();
        if truncate {
            bytes.truncate(idx);
        } else {
            bytes[idx] ^= flip_bits as u8;
        }
        // Every outcome must be a typed error or a clean restore; panics
        // and unbounded allocations abort the test process and fail here.
        restore_or_fail_typed(bytes, &cfg);
    }
}

/// Restores `bytes` under `cfg`, asserting only that nothing panics: the
/// outcome is a typed error or a system that snapshots again.
fn restore_or_fail_typed(bytes: Vec<u8>, cfg: &SystemConfig) {
    match Snapshot::from_bytes(bytes) {
        Err(_) => {}
        Ok(snap) => match System::restore(&snap, cfg) {
            Ok(restored) => {
                // A benign flip must still produce a snapshottable system.
                drop(restored.snapshot().unwrap());
            }
            Err(e) => {
                let _: SnapshotError = e; // typed decode error
            }
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Arbitrary bytes reach `System::restore` from a real mid-run snapshot
    /// holding live replay frontends, truncated, bit-flipped or extended:
    /// restore returns a system or a typed error, never a panic, and its
    /// allocations stay bounded (every decoded count is capped before it
    /// sizes a buffer).
    #[test]
    fn mutated_mid_run_snapshots_restore_or_fail_typed(
        mode in 0u64..3,
        pos in any::<usize>(),
        flip in 1u64..256,
        tail in prop::collection::vec(any::<u8>(), 1..48),
    ) {
        let cfg = SystemConfig { cores: 2, ..SystemConfig::default() };
        let mut bytes = mid_run_snapshot_bytes(cfg);
        match mode {
            0 => bytes.truncate(pos % bytes.len()),
            1 => {
                let at = pos % bytes.len();
                bytes[at] ^= flip as u8;
            }
            _ => {
                let at = pos % (bytes.len() + 1);
                bytes.splice(at..at, tail);
            }
        }
        restore_or_fail_typed(bytes, &cfg);
    }
}
