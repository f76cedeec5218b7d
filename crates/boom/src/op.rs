//! Core-level operations.

use skipit_dcache::req::DcReqKind;
use skipit_dcache::AmoOp;
use skipit_tilelink::WritebackKind;

/// Token identifying an operation submitted to a core (frontend-level, as
/// opposed to the cache-level request ids).
pub type OpToken = u64;

/// One dynamic instruction as seen by the memory system.
///
/// All addresses are byte addresses; loads/stores/AMOs must be 8-byte
/// aligned, writebacks may name any byte of the target line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// 64-bit load.
    Load {
        /// Word address.
        addr: u64,
    },
    /// 64-bit store.
    Store {
        /// Word address.
        addr: u64,
        /// Value to store.
        value: u64,
    },
    /// Compare-and-swap; result is the old value.
    Cas {
        /// Word address.
        addr: u64,
        /// Expected current value.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// Atomic fetch-and-add; result is the old value.
    FetchAdd {
        /// Word address.
        addr: u64,
        /// Addend.
        operand: u64,
    },
    /// Atomic swap; result is the old value.
    Swap {
        /// Word address.
        addr: u64,
        /// Replacement value.
        operand: u64,
    },
    /// `CBO.CLEAN` — asynchronous non-invalidating writeback (§2.6).
    Clean {
        /// Any byte of the target line.
        addr: u64,
    },
    /// `CBO.FLUSH` — asynchronous invalidating writeback (§2.6).
    Flush {
        /// Any byte of the target line.
        addr: u64,
    },
    /// `CBO.INVAL` — invalidate every cached copy *without* writing dirty
    /// data back (the CMO extension's discard operation).
    Inval {
        /// Any byte of the target line.
        addr: u64,
    },
    /// `FENCE RW, RW`, extended per §5.3 to also wait for all pending
    /// writebacks (the flush counter).
    Fence,
    /// Non-memory work: occupies the frontend for the given number of
    /// cycles. Used to model computation between memory operations.
    Nop {
        /// Cycles of frontend occupancy.
        cycles: u64,
    },
}

impl Op {
    /// Whether the LSU routes this op through the STQ (in-order commit-time
    /// firing): stores, AMOs, writebacks (§5.1) and fences (§3.2).
    pub fn is_stq(&self) -> bool {
        !matches!(self, Op::Load { .. } | Op::Nop { .. })
    }

    /// Stable lower-case kind name, used to key per-op-kind latency
    /// histograms and metrics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Load { .. } => "load",
            Op::Store { .. } => "store",
            Op::Cas { .. } => "cas",
            Op::FetchAdd { .. } => "fetch_add",
            Op::Swap { .. } => "swap",
            Op::Clean { .. } => "clean",
            Op::Flush { .. } => "flush",
            Op::Inval { .. } => "inval",
            Op::Fence => "fence",
            Op::Nop { .. } => "nop",
        }
    }

    /// The line-relevant address, if the op touches memory.
    pub fn addr(&self) -> Option<u64> {
        match *self {
            Op::Load { addr }
            | Op::Store { addr, .. }
            | Op::Cas { addr, .. }
            | Op::FetchAdd { addr, .. }
            | Op::Swap { addr, .. }
            | Op::Clean { addr }
            | Op::Flush { addr }
            | Op::Inval { addr } => Some(addr),
            Op::Fence | Op::Nop { .. } => None,
        }
    }

    /// Lowers the op to a data-cache request kind (`None` for fences/nops,
    /// which never reach the cache).
    pub fn to_dcache(self) -> Option<DcReqKind> {
        match self {
            Op::Load { addr } => Some(DcReqKind::Load { addr }),
            Op::Store { addr, value } => Some(DcReqKind::Store { addr, value }),
            Op::Cas {
                addr,
                expected,
                new,
            } => Some(DcReqKind::Amo {
                addr,
                op: AmoOp::Cas { expected },
                operand: new,
            }),
            Op::FetchAdd { addr, operand } => Some(DcReqKind::Amo {
                addr,
                op: AmoOp::Add,
                operand,
            }),
            Op::Swap { addr, operand } => Some(DcReqKind::Amo {
                addr,
                op: AmoOp::Swap,
                operand,
            }),
            Op::Clean { addr } => Some(DcReqKind::Writeback {
                addr,
                kind: WritebackKind::Clean,
            }),
            Op::Flush { addr } => Some(DcReqKind::Writeback {
                addr,
                kind: WritebackKind::Flush,
            }),
            Op::Inval { addr } => Some(DcReqKind::Writeback {
                addr,
                kind: WritebackKind::Inval,
            }),
            Op::Fence | Op::Nop { .. } => None,
        }
    }
}

skipit_snap::codec!(Op, "op opcode" {
    0 => Load { addr },
    1 => Store { addr, value },
    2 => Cas { addr, expected, new },
    3 => FetchAdd { addr, operand },
    4 => Swap { addr, operand },
    5 => Clean { addr },
    6 => Flush { addr },
    7 => Inval { addr },
    8 => Fence,
    9 => Nop { cycles },
});

#[cfg(test)]
mod tests {
    use super::*;
    use skipit_snap::{Codec, SnapReader, SnapWriter};

    #[test]
    fn stq_routing() {
        assert!(!Op::Load { addr: 0 }.is_stq());
        assert!(Op::Store { addr: 0, value: 1 }.is_stq());
        assert!(Op::Clean { addr: 0 }.is_stq());
        assert!(Op::Flush { addr: 0 }.is_stq());
        assert!(Op::Fence.is_stq());
        assert!(!Op::Nop { cycles: 1 }.is_stq());
    }

    #[test]
    fn lowering() {
        assert!(Op::Fence.to_dcache().is_none());
        assert!(matches!(
            Op::Flush { addr: 64 }.to_dcache(),
            Some(DcReqKind::Writeback {
                kind: WritebackKind::Flush,
                ..
            })
        ));
        assert!(matches!(
            Op::Cas {
                addr: 8,
                expected: 1,
                new: 2
            }
            .to_dcache(),
            Some(DcReqKind::Amo {
                op: AmoOp::Cas { expected: 1 },
                operand: 2,
                ..
            })
        ));
    }

    /// Each op's encoding against its literal wire bytes, then decoded
    /// back.
    #[test]
    fn every_op_roundtrips() {
        let cases: [(Op, &[u8]); 10] = [
            (Op::Load { addr: 0x40 }, &[0, 0x40]),
            (
                Op::Store {
                    addr: 0x48,
                    value: 7,
                },
                &[1, 0x48, 7],
            ),
            (
                Op::Cas {
                    addr: 0x50,
                    expected: 1,
                    new: 2,
                },
                &[2, 0x50, 1, 2],
            ),
            (
                Op::FetchAdd {
                    addr: 0x58,
                    operand: 3,
                },
                &[3, 0x58, 3],
            ),
            (
                Op::Swap {
                    addr: 0x60,
                    operand: 4,
                },
                &[4, 0x60, 4],
            ),
            (Op::Clean { addr: 0x68 }, &[5, 0x68]),
            (Op::Flush { addr: 0x70 }, &[6, 0x70]),
            (Op::Inval { addr: 0x78 }, &[7, 0x78]),
            (Op::Fence, &[8]),
            (Op::Nop { cycles: 300 }, &[9, 0xac, 0x02]),
        ];
        for (op, bytes) in cases {
            let mut w = SnapWriter::new();
            op.encode(&mut w);
            assert_eq!(w.into_bytes(), bytes, "{op:?}");
            let mut r = SnapReader::new(bytes);
            assert_eq!(Op::decode(&mut r).unwrap(), op);
            r.finish().unwrap();
        }
    }
}
