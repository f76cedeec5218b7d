//! Correctness of the four §7.4 data structures on the simulated platform:
//! model-checked against `BTreeSet` single-threaded, and invariant-checked
//! under genuine two-core concurrency.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipit::core::LineAddr;
use skipit::pds::alloc::{FieldStride, SimAlloc};
use skipit::pds::{
    AnySet, Bst, ConcurrentSet, HarrisList, HashTable, OptKind, PHandle, PersistMode, SkipList,
};
use skipit::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const HEAP: u64 = 0x1000_0000;

fn poke(sys: &mut System, addr: u64, value: u64) {
    let line = LineAddr::containing(addr);
    let mut d = sys.dram().read_direct(line);
    d.set_word(LineAddr::word_index(addr), value);
    sys.dram_mut().write_direct(line, d);
}

enum Ds {
    List,
    Hash,
    Bst,
    Skip,
}

fn build(sys: &mut System, ds: &Ds, stride: FieldStride) -> (Arc<SimAlloc>, AnySet) {
    let alloc = Arc::new(SimAlloc::new(HEAP, 1 << 26, stride));
    let set = {
        let mut w = |a, v| poke(sys, a, v);
        match ds {
            Ds::List => AnySet::List(HarrisList::new(Arc::clone(&alloc), &mut w)),
            Ds::Hash => AnySet::Hash(HashTable::new(16, Arc::clone(&alloc), &mut w)),
            Ds::Bst => AnySet::Bst(Bst::new(Arc::clone(&alloc), &mut w)),
            Ds::Skip => AnySet::Skip(SkipList::new(Arc::clone(&alloc), &mut w)),
        }
    };
    (alloc, set)
}

/// Single-threaded model check: random insert/remove/contains against
/// `BTreeSet`, for every structure and every (mode, opt) that matters.
fn model_check(ds: Ds, mode: PersistMode, opt: OptKind, seed: u64, steps: usize) {
    let skip_hw = opt.wants_skip_it_hardware();
    let mut sys = SystemBuilder::new().cores(1).skip_it(skip_hw).build();
    let stride = if matches!(opt, OptKind::FlitAdjacent) {
        FieldStride::WordPlusCounter
    } else {
        FieldStride::Word
    };
    let (_alloc, set) = build(&mut sys, &ds, stride);
    let set_ref = &set;
    sys.run(Workers::new(vec![move |h: CoreHandle| async move {
        let ph = PHandle::new(&h, mode, opt);
        let mut model = BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..steps {
            let k = rng.gen_range(1..40u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(set_ref.insert(&ph, k).await, model.insert(k), "insert {k}"),
                1 => assert_eq!(set_ref.remove(&ph, k).await, model.remove(&k), "remove {k}"),
                _ => assert_eq!(
                    set_ref.contains(&ph, k).await,
                    model.contains(&k),
                    "contains {k}"
                ),
            }
        }
        // Final sweep: membership must match exactly.
        for k in 1..40u64 {
            assert_eq!(
                set_ref.contains(&ph, k).await,
                model.contains(&k),
                "final {k}"
            );
        }
    }]));
}

#[test]
fn list_model_check_plain() {
    model_check(Ds::List, PersistMode::None, OptKind::Plain, 1, 300);
}

#[test]
fn list_model_check_automatic_skipit() {
    model_check(Ds::List, PersistMode::Automatic, OptKind::SkipIt, 2, 120);
}

#[test]
fn list_model_check_lap() {
    model_check(
        Ds::List,
        PersistMode::Automatic,
        OptKind::LinkAndPersist,
        3,
        120,
    );
}

#[test]
fn list_model_check_flit_adjacent() {
    model_check(
        Ds::List,
        PersistMode::Automatic,
        OptKind::FlitAdjacent,
        4,
        100,
    );
}

#[test]
fn list_model_check_flit_hash() {
    model_check(
        Ds::List,
        PersistMode::NvTraverse,
        OptKind::FlitHash {
            base: 0x0800_0000,
            slots: 64,
        },
        5,
        120,
    );
}

#[test]
fn hash_model_check_plain() {
    model_check(Ds::Hash, PersistMode::None, OptKind::Plain, 6, 300);
}

#[test]
fn hash_model_check_manual_lap() {
    model_check(
        Ds::Hash,
        PersistMode::Manual,
        OptKind::LinkAndPersist,
        7,
        150,
    );
}

#[test]
fn bst_model_check_plain() {
    model_check(Ds::Bst, PersistMode::None, OptKind::Plain, 8, 300);
}

#[test]
fn bst_model_check_nvtraverse_skipit() {
    model_check(Ds::Bst, PersistMode::NvTraverse, OptKind::SkipIt, 9, 120);
}

#[test]
fn skiplist_model_check_plain() {
    model_check(Ds::Skip, PersistMode::None, OptKind::Plain, 10, 300);
}

#[test]
fn skiplist_model_check_manual_plain() {
    model_check(Ds::Skip, PersistMode::Manual, OptKind::Plain, 11, 150);
}

/// Two cores hammer disjoint key ranges; both ranges must be fully present
/// at the end (checks cross-core coherence of the structures, determinism
/// aside).
fn disjoint_ranges(ds: Ds) {
    let mut sys = SystemBuilder::new().cores(2).build();
    let (_alloc, set) = build(&mut sys, &ds, FieldStride::Word);
    let set_ref = &set;
    let worker = |range: std::ops::Range<u64>| {
        move |h: CoreHandle| async move {
            let ph = PHandle::new(&h, PersistMode::Manual, OptKind::Plain);
            for k in range.clone() {
                assert!(set_ref.insert(&ph, k).await);
            }
            // Delete the even keys again.
            for k in range.clone().filter(|k| k % 2 == 0) {
                assert!(set_ref.remove(&ph, k).await, "remove {k}");
            }
        }
    };
    sys.run(Workers::new(vec![worker(1..30), worker(100..130)]));
    // Verify on core 0.
    sys.run(Workers::new(vec![move |h: CoreHandle| async move {
        let ph = PHandle::new(&h, PersistMode::None, OptKind::Plain);
        for k in (1..30u64).chain(100..130) {
            assert_eq!(set_ref.contains(&ph, k).await, k % 2 == 1, "key {k}");
        }
    }]))
    .into_parts();
}

#[test]
fn list_disjoint_two_cores() {
    disjoint_ranges(Ds::List);
}

#[test]
fn hash_disjoint_two_cores() {
    disjoint_ranges(Ds::Hash);
}

#[test]
fn bst_disjoint_two_cores() {
    disjoint_ranges(Ds::Bst);
}

#[test]
fn skiplist_disjoint_two_cores() {
    disjoint_ranges(Ds::Skip);
}

/// Two cores race on the SAME keys; afterwards every key's membership must
/// be consistent (insert-only phase ⇒ all present).
fn contended_inserts(ds: Ds) {
    let mut sys = SystemBuilder::new().cores(2).build();
    let (_alloc, set) = build(&mut sys, &ds, FieldStride::Word);
    let set_ref = &set;
    let worker = |seed: u64| {
        move |h: CoreHandle| async move {
            let ph = PHandle::new(&h, PersistMode::Manual, OptKind::Plain);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wins = 0u64;
            for _ in 0..60 {
                let k = rng.gen_range(1..20u64);
                if set_ref.insert(&ph, k).await {
                    wins += 1;
                }
            }
            wins
        }
    };
    let (_, _wins) = sys
        .run(Workers::new(vec![worker(1), worker(2)]))
        .into_parts();
    sys.run(Workers::new(vec![move |h: CoreHandle| async move {
        let ph = PHandle::new(&h, PersistMode::None, OptKind::Plain);
        // Every key 1..20 was inserted by someone with high probability;
        // at minimum, no key may be "half-present": a contains followed
        // by a failing insert must agree.
        for k in 1..20u64 {
            let present = set_ref.contains(&ph, k).await;
            let inserted = set_ref.insert(&ph, k).await;
            assert_eq!(present, !inserted, "key {k} inconsistent");
        }
    }]));
}

#[test]
fn list_contended_inserts() {
    contended_inserts(Ds::List);
}

#[test]
fn hash_contended_inserts() {
    contended_inserts(Ds::Hash);
}

#[test]
fn bst_contended_inserts() {
    contended_inserts(Ds::Bst);
}

#[test]
fn skiplist_contended_inserts() {
    contended_inserts(Ds::Skip);
}

/// Contended insert/delete mix on a tiny key space — the hardest case for
/// the lock-free algorithms (helping, marked-node cleanup).
fn contended_mixed(ds: Ds, seed: u64) {
    let mut sys = SystemBuilder::new().cores(2).build();
    let (_alloc, set) = build(&mut sys, &ds, FieldStride::Word);
    let set_ref = &set;
    let worker = |seed: u64| {
        move |h: CoreHandle| async move {
            let ph = PHandle::new(&h, PersistMode::Manual, OptKind::Plain);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut balance = 0i64; // our net inserts
            for _ in 0..80 {
                let k = rng.gen_range(1..8u64);
                if rng.gen_bool(0.5) {
                    if set_ref.insert(&ph, k).await {
                        balance += 1;
                    }
                } else if set_ref.remove(&ph, k).await {
                    balance -= 1;
                }
            }
            balance
        }
    };
    let (_, balances) = sys
        .run(Workers::new(vec![worker(seed), worker(seed + 77)]))
        .into_parts();
    let net: i64 = balances.iter().sum();
    // The number of present keys must equal the net insertions.
    sys.run(Workers::new(vec![move |h: CoreHandle| async move {
        let ph = PHandle::new(&h, PersistMode::None, OptKind::Plain);
        let mut present = 0i64;
        for k in 1..8u64 {
            present += i64::from(set_ref.contains(&ph, k).await);
        }
        assert_eq!(present, net, "net inserts vs present keys");
    }]))
    .into_parts();
}

#[test]
fn list_contended_mixed() {
    contended_mixed(Ds::List, 100);
}

#[test]
fn hash_contended_mixed() {
    contended_mixed(Ds::Hash, 200);
}

#[test]
fn bst_contended_mixed() {
    contended_mixed(Ds::Bst, 300);
}

#[test]
fn skiplist_contended_mixed() {
    contended_mixed(Ds::Skip, 400);
}
