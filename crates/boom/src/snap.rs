//! [`Codec`] implementations for core-level types (DESIGN.md §11).
//!
//! The per-component state codecs live next to their structs
//! ([`crate::lsu`], the cache crates); this module covers the plain-data
//! types shared across the system snapshot: [`Op`], [`TimedOp`] and
//! [`EngineStats`].

use crate::op::Op;
use crate::system::{EngineStats, PhaseProfile};
use crate::workload::TimedOp;
use skipit_snap::{Codec, SnapError, SnapReader, SnapWriter};

impl Codec for Op {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            Op::Load { addr } => {
                w.put_u8(0);
                addr.encode(w);
            }
            Op::Store { addr, value } => {
                w.put_u8(1);
                addr.encode(w);
                value.encode(w);
            }
            Op::Cas {
                addr,
                expected,
                new,
            } => {
                w.put_u8(2);
                addr.encode(w);
                expected.encode(w);
                new.encode(w);
            }
            Op::FetchAdd { addr, operand } => {
                w.put_u8(3);
                addr.encode(w);
                operand.encode(w);
            }
            Op::Swap { addr, operand } => {
                w.put_u8(4);
                addr.encode(w);
                operand.encode(w);
            }
            Op::Clean { addr } => {
                w.put_u8(5);
                addr.encode(w);
            }
            Op::Flush { addr } => {
                w.put_u8(6);
                addr.encode(w);
            }
            Op::Inval { addr } => {
                w.put_u8(7);
                addr.encode(w);
            }
            Op::Fence => w.put_u8(8),
            Op::Nop { cycles } => {
                w.put_u8(9);
                cycles.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => Op::Load {
                addr: u64::decode(r)?,
            },
            1 => Op::Store {
                addr: u64::decode(r)?,
                value: u64::decode(r)?,
            },
            2 => Op::Cas {
                addr: u64::decode(r)?,
                expected: u64::decode(r)?,
                new: u64::decode(r)?,
            },
            3 => Op::FetchAdd {
                addr: u64::decode(r)?,
                operand: u64::decode(r)?,
            },
            4 => Op::Swap {
                addr: u64::decode(r)?,
                operand: u64::decode(r)?,
            },
            5 => Op::Clean {
                addr: u64::decode(r)?,
            },
            6 => Op::Flush {
                addr: u64::decode(r)?,
            },
            7 => Op::Inval {
                addr: u64::decode(r)?,
            },
            8 => Op::Fence,
            9 => Op::Nop {
                cycles: u64::decode(r)?,
            },
            _ => return Err(SnapError::Corrupt("op opcode")),
        })
    }
}

impl Codec for TimedOp {
    fn encode(&self, w: &mut SnapWriter) {
        self.at.encode(w);
        self.op.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TimedOp {
            at: u64::decode(r)?,
            op: Op::decode(r)?,
        })
    }
}

/// [`EngineStats::phase`] is host wall-time attribution, not simulated
/// state; it is not serialized and decodes to zero (matching the
/// `PartialEq` contract, which ignores it).
impl Codec for EngineStats {
    fn encode(&self, w: &mut SnapWriter) {
        self.skipped_cycles.encode(w);
        self.jumps.encode(w);
        self.component_steps.encode(w);
        self.component_slots.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(EngineStats {
            skipped_cycles: u64::decode(r)?,
            jumps: u64::decode(r)?,
            component_steps: u64::decode(r)?,
            component_slots: u64::decode(r)?,
            phase: PhaseProfile::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_roundtrips() {
        let ops = [
            Op::Load { addr: 0x40 },
            Op::Store {
                addr: 0x48,
                value: 7,
            },
            Op::Cas {
                addr: 0x50,
                expected: 1,
                new: 2,
            },
            Op::FetchAdd {
                addr: 0x58,
                operand: 3,
            },
            Op::Swap {
                addr: 0x60,
                operand: 4,
            },
            Op::Clean { addr: 0x68 },
            Op::Flush { addr: 0x70 },
            Op::Inval { addr: 0x78 },
            Op::Fence,
            Op::Nop { cycles: 12 },
        ];
        let mut w = SnapWriter::new();
        for op in &ops {
            op.encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for op in &ops {
            assert_eq!(Op::decode(&mut r).unwrap(), *op);
        }
        r.finish().unwrap();
    }

    #[test]
    fn engine_stats_roundtrip_zeroes_phase() {
        let stats = EngineStats {
            skipped_cycles: 10,
            jumps: 2,
            component_steps: 30,
            component_slots: 99,
            phase: PhaseProfile {
                serial_ns: 123,
                ..PhaseProfile::default()
            },
        };
        let mut w = SnapWriter::new();
        stats.encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = EngineStats::decode(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(decoded, stats); // PartialEq ignores phase
        assert_eq!(decoded.phase, PhaseProfile::default());
    }
}
