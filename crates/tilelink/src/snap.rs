//! [`Codec`] implementations for the TileLink vocabulary types and the
//! link FIFOs — the protocol layer of the full-system snapshot format
//! (DESIGN.md §11).
//!
//! Lines use a word-presence bitmask so the dominant all-zero payload
//! costs one byte; enums use one-byte discriminants; a [`Link`]'s
//! serialized state is exactly its simulated state (the arrival-stamped
//! queue, bandwidth cursor, and cumulative push/pop counters — the push
//! counter keys perturbation draws, so it must survive a round trip).
//! Host-side trace sinks and the perturbation installation are excluded:
//! both are re-created from the configuration on restore.

use crate::line::{LineAddr, LineData, WORDS_PER_LINE};
use crate::link::{Beats, Link};
use crate::msg::{ChannelA, ChannelB, ChannelC, ChannelD, ChannelE, GrantFlavor, WritebackKind};
use crate::perm::{Cap, ClientState, Grow, Shrink};
use skipit_snap::{Codec, SnapError, SnapReader, SnapWriter};
use std::fmt;

impl Codec for LineAddr {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.base());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let base = r.get_u64()?;
        if base % crate::line::LINE_BYTES as u64 != 0 {
            return Err(SnapError::Corrupt("unaligned line address"));
        }
        Ok(LineAddr::new(base))
    }
}

/// Word-presence bitmask + varint words: an all-zero line is one byte, a
/// typical one-field node line is a few.
impl Codec for LineData {
    fn encode(&self, w: &mut SnapWriter) {
        let mut mask = 0u8;
        for (i, &word) in self.0.iter().enumerate() {
            if word != 0 {
                mask |= 1 << i;
            }
        }
        w.put_u8(mask);
        for &word in self.0.iter().filter(|&&word| word != 0) {
            w.put_u64(word);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mask = r.get_u8()?;
        let mut words = [0u64; WORDS_PER_LINE];
        for (i, word) in words.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *word = r.get_u64()?;
            }
        }
        Ok(LineData(words))
    }
}

/// One-byte discriminant enums, written/matched via a macro so encode and
/// decode cannot drift apart. Unit variants only: a path is usable as both
/// a pattern and a constructor expression.
macro_rules! codec_enum {
    ($ty:ty, $site:literal, { $($variant:path => $tag:literal),+ $(,)? }) => {
        impl Codec for $ty {
            fn encode(&self, w: &mut SnapWriter) {
                w.put_u8(match self {
                    $($variant => $tag),+
                });
            }
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(match r.get_u8()? {
                    $($tag => $variant),+,
                    _ => return Err(SnapError::Corrupt($site)),
                })
            }
        }
    };
}

codec_enum!(ClientState, "client state", {
    ClientState::Invalid => 0,
    ClientState::Shared => 1,
    ClientState::Exclusive => 2,
    ClientState::Modified => 3,
});

codec_enum!(Grow, "grow param", {
    Grow::NtoB => 0,
    Grow::NtoT => 1,
    Grow::BtoT => 2,
});

codec_enum!(Cap, "cap param", {
    Cap::ToN => 0,
    Cap::ToB => 1,
    Cap::ToT => 2,
});

codec_enum!(Shrink, "shrink param", {
    Shrink::TtoB => 0,
    Shrink::TtoN => 1,
    Shrink::BtoN => 2,
    Shrink::TtoT => 3,
    Shrink::BtoB => 4,
    Shrink::NtoN => 5,
});

codec_enum!(WritebackKind, "writeback kind", {
    WritebackKind::Clean => 0,
    WritebackKind::Flush => 1,
    WritebackKind::Inval => 2,
});

codec_enum!(GrantFlavor, "grant flavor", {
    GrantFlavor::Clean => 0,
    GrantFlavor::Dirty => 1,
});

impl Codec for ChannelA {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            ChannelA::AcquireBlock { source, addr, grow } => {
                w.put_u8(0);
                source.encode(w);
                addr.encode(w);
                grow.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(ChannelA::AcquireBlock {
                source: usize::decode(r)?,
                addr: LineAddr::decode(r)?,
                grow: Grow::decode(r)?,
            }),
            _ => Err(SnapError::Corrupt("channel A opcode")),
        }
    }
}

impl Codec for ChannelB {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            ChannelB::Probe { target, addr, cap } => {
                w.put_u8(0);
                target.encode(w);
                addr.encode(w);
                cap.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(ChannelB::Probe {
                target: usize::decode(r)?,
                addr: LineAddr::decode(r)?,
                cap: Cap::decode(r)?,
            }),
            _ => Err(SnapError::Corrupt("channel B opcode")),
        }
    }
}

impl Codec for ChannelC {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            ChannelC::ProbeAck {
                source,
                addr,
                shrink,
                data,
            } => {
                w.put_u8(0);
                source.encode(w);
                addr.encode(w);
                shrink.encode(w);
                data.encode(w);
            }
            ChannelC::Release {
                source,
                addr,
                shrink,
                data,
            } => {
                w.put_u8(1);
                source.encode(w);
                addr.encode(w);
                shrink.encode(w);
                data.encode(w);
            }
            ChannelC::RootRelease {
                source,
                addr,
                kind,
                data,
            } => {
                w.put_u8(2);
                source.encode(w);
                addr.encode(w);
                kind.encode(w);
                data.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(ChannelC::ProbeAck {
                source: usize::decode(r)?,
                addr: LineAddr::decode(r)?,
                shrink: Shrink::decode(r)?,
                data: Option::decode(r)?,
            }),
            1 => Ok(ChannelC::Release {
                source: usize::decode(r)?,
                addr: LineAddr::decode(r)?,
                shrink: Shrink::decode(r)?,
                data: Option::decode(r)?,
            }),
            2 => Ok(ChannelC::RootRelease {
                source: usize::decode(r)?,
                addr: LineAddr::decode(r)?,
                kind: WritebackKind::decode(r)?,
                data: Option::decode(r)?,
            }),
            _ => Err(SnapError::Corrupt("channel C opcode")),
        }
    }
}

impl Codec for ChannelD {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            ChannelD::Grant {
                target,
                addr,
                is_trunk,
                data,
                flavor,
            } => {
                w.put_u8(0);
                target.encode(w);
                addr.encode(w);
                is_trunk.encode(w);
                data.encode(w);
                flavor.encode(w);
            }
            ChannelD::ReleaseAck { target, addr, root } => {
                w.put_u8(1);
                target.encode(w);
                addr.encode(w);
                root.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(ChannelD::Grant {
                target: usize::decode(r)?,
                addr: LineAddr::decode(r)?,
                is_trunk: bool::decode(r)?,
                data: LineData::decode(r)?,
                flavor: GrantFlavor::decode(r)?,
            }),
            1 => Ok(ChannelD::ReleaseAck {
                target: usize::decode(r)?,
                addr: LineAddr::decode(r)?,
                root: bool::decode(r)?,
            }),
            _ => Err(SnapError::Corrupt("channel D opcode")),
        }
    }
}

impl Codec for ChannelE {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            ChannelE::GrantAck { source, addr } => {
                w.put_u8(0);
                source.encode(w);
                addr.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(ChannelE::GrantAck {
                source: usize::decode(r)?,
                addr: LineAddr::decode(r)?,
            }),
            _ => Err(SnapError::Corrupt("channel E opcode")),
        }
    }
}

impl<T: Beats + fmt::Debug + Codec> Link<T> {
    /// Encodes the link's simulated state: the arrival-stamped FIFO, the
    /// bandwidth cursor and the cumulative counters. Latency, capacity and
    /// the core tag come from the configuration, trace sinks and
    /// perturbation installation are host-side — none of those are written.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(0x4c);
        let (queue, next_free, pushed, popped) = self.snap_parts();
        w.put_u64(queue.len() as u64);
        for (ready, msg) in queue {
            ready.encode(w);
            msg.encode(w);
        }
        next_free.encode(w);
        pushed.encode(w);
        popped.encode(w);
    }

    /// Overwrites the link's simulated state from `r` (the inverse of
    /// [`Link::encode_state`]); the queue must fit the configured capacity.
    pub fn decode_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(0x4c, "link section")?;
        let len = r.get_count(skipit_snap::MAX_ELEMS, "link queue length")?;
        let mut queue = std::collections::VecDeque::with_capacity(len.min(1 << 12));
        for _ in 0..len {
            queue.push_back((u64::decode(r)?, T::decode(r)?));
        }
        let next_free = u64::decode(r)?;
        let pushed = u64::decode(r)?;
        let popped = u64::decode(r)?;
        self.snap_restore(queue, next_free, pushed, popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn line_data_is_sparse() {
        let mut w = SnapWriter::new();
        LineData::zeroed().encode(&mut w);
        assert_eq!(w.len(), 1, "an all-zero line must cost one byte");
        let mut dense = LineData::zeroed();
        dense.0[3] = 500;
        roundtrip(dense);
        roundtrip(LineData([u64::MAX; WORDS_PER_LINE]));
    }

    #[test]
    fn message_roundtrips() {
        roundtrip(ChannelA::AcquireBlock {
            source: 1,
            addr: LineAddr::new(0x1c0),
            grow: Grow::BtoT,
        });
        roundtrip(ChannelB::Probe {
            target: 0,
            addr: LineAddr::new(0x40),
            cap: Cap::ToB,
        });
        roundtrip(ChannelC::RootRelease {
            source: 3,
            addr: LineAddr::new(0x80),
            kind: WritebackKind::Flush,
            data: Some(LineData([1, 0, 0, 7, 0, 0, 0, 9])),
        });
        roundtrip(ChannelD::Grant {
            target: 2,
            addr: LineAddr::new(0xc0),
            is_trunk: true,
            data: LineData::zeroed(),
            flavor: GrantFlavor::Dirty,
        });
        roundtrip(ChannelD::ReleaseAck {
            target: 1,
            addr: LineAddr::new(0x100),
            root: true,
        });
        roundtrip(ChannelE::GrantAck {
            source: 0,
            addr: LineAddr::new(0x140),
        });
    }

    #[test]
    fn unaligned_line_addr_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(0x41);
        let bytes = w.into_bytes();
        assert_eq!(
            LineAddr::decode(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("unaligned line address"))
        );
    }

    #[test]
    fn link_state_roundtrips_with_inflight_messages() {
        let mut l: Link<ChannelE> = Link::new(2, 8);
        for i in 0..3u64 {
            l.push(
                i,
                ChannelE::GrantAck {
                    source: 0,
                    addr: LineAddr::new(i * 64),
                },
            );
        }
        assert!(l.pop(10).is_some());
        let mut w = SnapWriter::new();
        l.encode_state(&mut w);
        let bytes = w.into_bytes();

        let mut fresh: Link<ChannelE> = Link::new(2, 8);
        let mut r = SnapReader::new(&bytes);
        fresh.decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(format!("{l:?}"), format!("{fresh:?}"));
        assert_eq!(fresh.pushed(), 3);
        assert_eq!(fresh.popped(), 1);
        assert_eq!(fresh.next_ready(), l.next_ready());
    }

    #[test]
    fn link_decode_rejects_overfull_queue() {
        let mut big: Link<ChannelE> = Link::new(1, 8);
        for i in 0..5u64 {
            big.push(
                0,
                ChannelE::GrantAck {
                    source: 0,
                    addr: LineAddr::new(i * 64),
                },
            );
        }
        let mut w = SnapWriter::new();
        big.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut small: Link<ChannelE> = Link::new(1, 2);
        assert_eq!(
            small.decode_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("link queue exceeds capacity"))
        );
    }
}
