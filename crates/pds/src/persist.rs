//! The persistence instrumentation layer.
//!
//! Data-structure code performs every shared access through a [`PHandle`],
//! which applies the selected persistence discipline ([`PersistMode`] —
//! *where* writebacks go) and redundant-flush elimination ([`OptKind`] —
//! *how* each writeback executes), reproducing the §7.4 software stack:
//!
//! | OptKind | mechanism | cost profile |
//! |---|---|---|
//! | `Plain` | always flush | full writeback latency every time |
//! | `FlitAdjacent` | counter word next to each field | extra AMOs + doubled node size |
//! | `FlitHash` | counter in a global table | extra loads/AMOs + cache pollution, aliasing |
//! | `LinkAndPersist` | dirty-mark in bit 63 of the word | near-free reads; writers mark |
//! | `SkipIt` | identical software to `Plain` | hardware drops persisted-line writebacks |

use crate::ptr::{val, LP_MARK};
use skipit_core::CoreHandle;

/// Where writebacks are placed (the persistence discipline, §7.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistMode {
    /// Non-persistent baseline — no writebacks, no fences (the dotted line
    /// of Fig. 14).
    None,
    /// Writeback + fence after *every* shared access, reads included
    /// (the "automatic" transform).
    Automatic,
    /// NVTraverse: traversal reads are unflushed; critical reads and all
    /// updates persist.
    NvTraverse,
    /// Hand-placed persists on updates only (log-free style).
    Manual,
}

/// How each persist executes (the redundant-flush elimination, §7.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptKind {
    /// Issue the writeback unconditionally.
    Plain,
    /// FliT with a counter adjacent to every word (field stride 16 B).
    FlitAdjacent,
    /// FliT with counters in a global table of `slots` words at `base`.
    FlitHash {
        /// Simulated base address of the counter table.
        base: u64,
        /// Number of 8-byte counter slots (Fig. 16 sweeps this).
        slots: usize,
    },
    /// Link-and-Persist: dirty-mark in bit 63 of the data word.
    LinkAndPersist,
    /// Software-identical to [`OptKind::Plain`]; pair with a system built
    /// with `skip_it(true)` so the hardware performs the elision (§6).
    SkipIt,
}

impl OptKind {
    /// Whether this optimization can be applied to a data structure that
    /// itself uses high pointer bits. The paper notes Link-and-Persist "is
    /// not applicable for algorithms that make use of unused bits (such as
    /// the BST)" (§7.4).
    pub fn applicable_to(self, ds: crate::DsKind) -> bool {
        !(matches!(self, OptKind::LinkAndPersist) && matches!(ds, crate::DsKind::Bst))
    }

    /// Whether the paired system must have Skip It enabled.
    pub fn wants_skip_it_hardware(self) -> bool {
        matches!(self, OptKind::SkipIt)
    }
}

/// Per-worker persistence handle: a [`CoreHandle`] plus the instrumentation
/// policy. See the [module docs](self).
#[derive(Debug)]
pub struct PHandle<'a> {
    h: &'a CoreHandle,
    mode: PersistMode,
    opt: OptKind,
}

impl<'a> PHandle<'a> {
    /// Wraps `h` with the given policy.
    pub fn new(h: &'a CoreHandle, mode: PersistMode, opt: OptKind) -> Self {
        PHandle { h, mode, opt }
    }

    /// The underlying core handle.
    pub fn core(&self) -> &CoreHandle {
        self.h
    }

    /// The persistence discipline in effect.
    pub fn mode(&self) -> PersistMode {
        self.mode
    }

    /// The flush-elimination strategy in effect.
    pub fn opt(&self) -> OptKind {
        self.opt
    }

    /// Whether the run's cycle budget is exhausted (soft halt).
    pub fn halted(&self) -> bool {
        self.h.halted()
    }

    /// Non-memory software work (mask/test instructions etc.).
    pub async fn work(&self, cycles: u64) {
        self.h.work(cycles).await;
    }

    fn counter_addr(&self, addr: u64) -> Option<u64> {
        match self.opt {
            OptKind::FlitAdjacent => Some(addr + 8),
            OptKind::FlitHash { base, slots } => {
                let h = (addr / 8).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
                Some(base + 8 * (h % slots as u64))
            }
            _ => None,
        }
    }

    /// Issues the writeback + fence for `addr` unconditionally
    /// (policy-independent primitive).
    async fn raw_persist(&self, addr: u64) {
        self.h.flush(addr).await;
        self.h.fence().await;
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Plain load with the strategy's per-access software overhead:
    /// Link-and-Persist must mask/test its bit on *every* access (§7.4).
    async fn plain_load(&self, addr: u64) -> u64 {
        let v = self.h.load(addr).await;
        if matches!(self.opt, OptKind::LinkAndPersist) && self.mode != PersistMode::None {
            self.h.work(1).await;
        }
        val(v)
    }

    /// Traversal read: unflushed except under
    /// [`PersistMode::Automatic`]. Strips the Link-and-Persist mark.
    pub async fn read_traverse(&self, addr: u64) -> u64 {
        match self.mode {
            PersistMode::Automatic => self.read_persist(addr).await,
            _ => self.plain_load(addr).await,
        }
    }

    /// Critical read (near the linearization point): persisted under
    /// `Automatic` and `NvTraverse`.
    pub async fn read(&self, addr: u64) -> u64 {
        match self.mode {
            PersistMode::Automatic | PersistMode::NvTraverse => self.read_persist(addr).await,
            _ => self.plain_load(addr).await,
        }
    }

    /// A read that guarantees the observed value is persisted before use,
    /// applying the elision strategy.
    async fn read_persist(&self, addr: u64) -> u64 {
        match self.opt {
            OptKind::Plain | OptKind::SkipIt => {
                let v = self.h.load(addr).await;
                // With Skip It hardware, a persisted line's flush is dropped
                // at the L1 (§6.1); the software is identical.
                self.raw_persist(addr).await;
                val(v)
            }
            OptKind::FlitAdjacent | OptKind::FlitHash { .. } => {
                let v = self.h.load(addr).await;
                let ctr = self.counter_addr(addr).expect("flit has counters");
                if self.h.load(ctr).await != 0 {
                    self.raw_persist(addr).await;
                }
                val(v)
            }
            OptKind::LinkAndPersist => {
                let v = self.h.load(addr).await;
                // "All accesses to this address must first mask this
                // occupied bit before it performs a memory operation"
                // (§7.4): a cycle of mask/test ALU work per access.
                self.h.work(1).await;
                if v & LP_MARK != 0 {
                    self.raw_persist(addr).await;
                    // Clear the mark so later readers skip the flush; a lost
                    // race just leaves the mark for the next reader.
                    self.h.cas(addr, v, v & !LP_MARK).await;
                }
                val(v)
            }
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Persistent store.
    pub async fn write(&self, addr: u64, value: u64) {
        if self.mode == PersistMode::None {
            self.h.store(addr, value).await;
            return;
        }
        match self.opt {
            OptKind::Plain | OptKind::SkipIt => {
                self.h.store(addr, value).await;
                self.raw_persist(addr).await;
            }
            OptKind::FlitAdjacent | OptKind::FlitHash { .. } => {
                let ctr = self.counter_addr(addr).expect("flit has counters");
                self.h.fetch_add(ctr, 1).await;
                self.h.store(addr, value).await;
                self.raw_persist(addr).await;
                self.h.fetch_add(ctr, u64::MAX).await; // -1
            }
            OptKind::LinkAndPersist => {
                self.h.store(addr, value | LP_MARK).await;
                self.raw_persist(addr).await;
                // Leave the mark set-cleared lazily by readers? The writer
                // clears it eagerly: the line was just persisted.
                self.h.store(addr, value).await;
            }
        }
    }

    /// Persistent compare-and-swap on the value bits (the Link-and-Persist
    /// mark is transparent). Returns `true` on success.
    pub async fn cas(&self, addr: u64, expected: u64, new: u64) -> bool {
        if self.mode == PersistMode::None {
            return self.cas_raw_transparent(addr, expected, new).await;
        }
        match self.opt {
            OptKind::Plain | OptKind::SkipIt => {
                let ok = self.cas_raw_transparent(addr, expected, new).await;
                if ok {
                    self.raw_persist(addr).await;
                }
                ok
            }
            OptKind::FlitAdjacent | OptKind::FlitHash { .. } => {
                let ctr = self.counter_addr(addr).expect("flit has counters");
                self.h.fetch_add(ctr, 1).await;
                let ok = self.cas_raw_transparent(addr, expected, new).await;
                if ok {
                    self.raw_persist(addr).await;
                }
                self.h.fetch_add(ctr, u64::MAX).await;
                ok
            }
            OptKind::LinkAndPersist => {
                let ok = self
                    .cas_transparent_store(addr, expected, new | LP_MARK)
                    .await;
                if ok {
                    self.raw_persist(addr).await;
                    // Eagerly clear the mark (already persisted).
                    self.h.cas(addr, new | LP_MARK, new).await;
                }
                ok
            }
        }
    }

    /// CAS whose *comparison* ignores the LP mark but whose stored value is
    /// exactly `new`.
    async fn cas_raw_transparent(&self, addr: u64, expected: u64, new: u64) -> bool {
        self.cas_transparent_store(addr, expected, new).await
    }

    async fn cas_transparent_store(&self, addr: u64, expected: u64, new: u64) -> bool {
        let mut attempt = expected;
        for _ in 0..4 {
            let old = self.h.cas(addr, attempt, new).await;
            if old == attempt {
                return true;
            }
            if val(old) == expected {
                // Same value, different LP mark: retry against the marked
                // representation.
                attempt = old;
                continue;
            }
            return false;
        }
        false
    }

    // ------------------------------------------------------------------
    // Node initialization
    // ------------------------------------------------------------------

    /// Store into a not-yet-published node: no instrumentation.
    pub async fn init_write(&self, addr: u64, value: u64) {
        self.h.store(addr, value).await;
    }

    /// Persists a freshly initialized node (every cache line the byte range
    /// `[node, node + bytes)` touches) before it is published, so a crash
    /// after the publishing CAS finds the node contents durable. No-op for
    /// [`PersistMode::None`].
    pub async fn persist_node(&self, node: u64, bytes: u64) {
        if self.mode == PersistMode::None {
            return;
        }
        let first = node / 64;
        let last = (node + bytes.max(1) - 1) / 64;
        for l in first..=last {
            self.h.flush(l * 64).await;
        }
        self.h.fence().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsKind;

    #[test]
    fn lap_not_applicable_to_bst() {
        assert!(!OptKind::LinkAndPersist.applicable_to(DsKind::Bst));
        assert!(OptKind::LinkAndPersist.applicable_to(DsKind::List));
        assert!(OptKind::SkipIt.applicable_to(DsKind::Bst));
    }

    #[test]
    fn skip_it_wants_hardware() {
        assert!(OptKind::SkipIt.wants_skip_it_hardware());
        assert!(!OptKind::Plain.wants_skip_it_hardware());
    }
}
