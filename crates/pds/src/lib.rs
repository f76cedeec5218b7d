//! Persistent lock-free data structures over the simulated Skip It platform.
//!
//! This crate reproduces the workload side of §7.4 of *Skip It: Take Control
//! of Your Cache!*: persistent lock-free versions of four data structures —
//! a Harris linked list, a hash table, an external (Natarajan–Mittal-style)
//! binary search tree and a skiplist — whose every shared-memory access goes
//! through the simulated memory hierarchy of [`skipit_core`].
//!
//! Three **persistence disciplines** decide *where* writebacks are placed
//! (§7.4):
//!
//! * [`PersistMode::Automatic`] — flush + fence after every shared access;
//! * [`PersistMode::NvTraverse`] — traversal reads unflushed, critical reads
//!   and all updates persisted (the NVTraverse framework);
//! * [`PersistMode::Manual`] — hand-placed persists on updates only
//!   (log-free-data-structures style);
//! * [`PersistMode::None`] — the non-persistent baseline (the dotted line in
//!   Fig. 14).
//!
//! Five **redundant-flush eliminations** decide *how* each persist executes:
//!
//! * [`OptKind::Plain`] — always issue the writeback;
//! * [`OptKind::FlitAdjacent`] — a FliT counter next to every word;
//! * [`OptKind::FlitHash`] — FliT counters in a global hash table;
//! * [`OptKind::LinkAndPersist`] — a dirty-mark in bit 63 of the word;
//! * [`OptKind::SkipIt`] — identical software to `Plain`; the elision
//!   happens in hardware (run it on a system built with `skip_it(true)`).

pub mod alloc;
pub mod bst;
pub mod hash;
pub mod list;
pub mod persist;
pub mod ptr;
pub mod skiplist;
pub mod workload;

pub use alloc::SimAlloc;
pub use bst::Bst;
pub use hash::HashTable;
pub use list::HarrisList;
pub use persist::{OptKind, PHandle, PersistMode};
pub use skiplist::SkipList;
pub use workload::{
    prefill_snapshot, run_set_benchmark, run_set_benchmark_warm, warm_key, AnySet, BenchResult,
    DsKind, WarmSet, WorkloadCfg,
};

use std::future::Future;

/// A concurrent set keyed by `u64`, driven through a persistence handle.
///
/// All three operations are linearizable and lock-free; keys must be below
/// [`ptr::MAX_KEY`]. They are `async`: each simulated memory access awaits
/// the worker's [`skipit_core::CoreHandle`], so call them from a worker
/// future (see `skipit_core::Workers`). Implementations write them as
/// `async fn`.
pub trait ConcurrentSet {
    /// Inserts `key`; returns `false` if already present.
    fn insert(&self, ph: &PHandle<'_>, key: u64) -> impl Future<Output = bool>;
    /// Removes `key`; returns `false` if absent.
    fn remove(&self, ph: &PHandle<'_>, key: u64) -> impl Future<Output = bool>;
    /// Membership test.
    fn contains(&self, ph: &PHandle<'_>, key: u64) -> impl Future<Output = bool>;
}
