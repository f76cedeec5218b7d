//! Core-side (LSU → D-cache) request and response types.

use skipit_tilelink::WritebackKind;

/// Identifier the LSU attaches to every request so responses can be matched
/// to LDQ/STQ entries.
pub type ReqId = u64;

/// Atomic memory operation flavours used by the workloads in this repository.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmoOp {
    /// Compare-and-swap: store `operand` iff the current value equals
    /// `expected`; always returns the old value.
    Cas {
        /// Value the word must currently hold for the swap to happen.
        expected: u64,
    },
    /// Fetch-and-add: add `operand`, return the old value.
    Add,
    /// Swap: store `operand`, return the old value.
    Swap,
}

/// A request fired from the LSU into the data cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DcReq {
    /// Matching tag for the response.
    pub id: ReqId,
    /// The operation.
    pub kind: DcReqKind,
}

/// The operation carried by a [`DcReq`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DcReqKind {
    /// A 64-bit load. `addr` must be 8-byte aligned.
    Load {
        /// Byte address of the word.
        addr: u64,
    },
    /// A 64-bit store. `addr` must be 8-byte aligned.
    Store {
        /// Byte address of the word.
        addr: u64,
        /// Value to store.
        value: u64,
    },
    /// An atomic memory operation (performed in the cache with write
    /// permission, like RISC-V AMOs).
    Amo {
        /// Byte address of the word.
        addr: u64,
        /// Operation flavour.
        op: AmoOp,
        /// Operand (addend / swap value).
        operand: u64,
    },
    /// A `CBO.CLEAN` / `CBO.FLUSH` user-controlled writeback (§2.6). Encoded
    /// as an STQ request by the LSU (§5.1) and handled by the flush unit.
    Writeback {
        /// Any byte address within the target line.
        addr: u64,
        /// Clean (non-invalidating) or flush (invalidating).
        kind: WritebackKind,
    },
}

impl DcReqKind {
    /// The byte address this request targets.
    pub fn addr(&self) -> u64 {
        match *self {
            DcReqKind::Load { addr }
            | DcReqKind::Store { addr, .. }
            | DcReqKind::Amo { addr, .. }
            | DcReqKind::Writeback { addr, .. } => addr,
        }
    }

    /// Whether this request requires write (Trunk) permission.
    pub fn needs_write(&self) -> bool {
        matches!(self, DcReqKind::Store { .. } | DcReqKind::Amo { .. })
    }
}

/// Immediate outcome of presenting a request to the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqOutcome {
    /// The request was accepted; a [`DcResp`] will be produced (possibly in
    /// the same cycle's response queue for hits, possibly much later for
    /// misses). Stores and writebacks accepted into MSHRs / the flush queue
    /// respond immediately even though their effect completes later —
    /// matching the BOOM commit semantics (§3.3, §5.2).
    Accepted,
    /// Negative acknowledgement (§3.3): the request was refused and changed
    /// nothing. Issued when MSHRs / replay queues / the flush queue are
    /// full, or when the flush unit's consistency rules (§5.3) forbid the
    /// access. The LSU never sees one: it fires only what
    /// [`DataCache::would_accept`](crate::DataCache::would_accept) admits.
    Nack,
}

/// A response delivered by the cache to the LSU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DcResp {
    /// A load completed with the given value.
    LoadDone {
        /// Matches [`DcReq::id`].
        id: ReqId,
        /// Loaded value.
        value: u64,
    },
    /// A store has been accepted by the memory system (BOOM treats it as
    /// complete once it is in the cache or an MSHR, §3.3).
    StoreDone {
        /// Matches [`DcReq::id`].
        id: ReqId,
    },
    /// An atomic operation completed, returning the previous value.
    AmoDone {
        /// Matches [`DcReq::id`].
        id: ReqId,
        /// Value of the word before the operation.
        old: u64,
    },
    /// A `CBO.X` was buffered by the flush unit (or dropped by Skip It /
    /// coalescing) — the instruction is ready to commit (§5.2).
    WritebackAccepted {
        /// Matches [`DcReq::id`].
        id: ReqId,
    },
}

impl DcResp {
    /// The request this response answers.
    pub fn id(&self) -> ReqId {
        match *self {
            DcResp::LoadDone { id, .. }
            | DcResp::StoreDone { id }
            | DcResp::AmoDone { id, .. }
            | DcResp::WritebackAccepted { id } => id,
        }
    }
}

// --- snapshot codec (DESIGN.md §11) ---

skipit_snap::codec!(AmoOp, "amo op" {
    0 => Cas { expected },
    1 => Add,
    2 => Swap,
});

skipit_snap::codec!(DcReqKind, "dcache request kind" {
    0 => Load { addr },
    1 => Store { addr, value },
    2 => Amo { addr, op, operand },
    3 => Writeback { addr, kind },
});

skipit_snap::codec!(DcReq { id, kind });

skipit_snap::codec!(DcResp, "dcache response kind" {
    0 => LoadDone { id, value },
    1 => StoreDone { id },
    2 => AmoDone { id, old },
    3 => WritebackAccepted { id },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_and_needs_write() {
        assert_eq!(DcReqKind::Load { addr: 8 }.addr(), 8);
        assert!(!DcReqKind::Load { addr: 8 }.needs_write());
        assert!(DcReqKind::Store { addr: 8, value: 1 }.needs_write());
        assert!(DcReqKind::Amo {
            addr: 8,
            op: AmoOp::Add,
            operand: 1
        }
        .needs_write());
        assert!(!DcReqKind::Writeback {
            addr: 8,
            kind: WritebackKind::Clean
        }
        .needs_write());
    }

    #[test]
    fn resp_id() {
        assert_eq!(DcResp::LoadDone { id: 7, value: 0 }.id(), 7);
        assert_eq!(DcResp::WritebackAccepted { id: 9 }.id(), 9);
    }
}
