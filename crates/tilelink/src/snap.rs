//! [`Codec`] implementations for the TileLink vocabulary types and the
//! link FIFOs — the protocol layer of the full-system snapshot format
//! (DESIGN.md §11).
//!
//! The permission enums and channel messages are declared with
//! [`codec!`]: a one-byte tag per variant, then its fields in the listed
//! order. Three codecs check more than a tag and stay hand-written: a
//! [`LineAddr`] must be line-aligned, [`LineData`] uses a word-presence
//! bitmask so the dominant all-zero payload costs one byte, and a
//! [`Link`]'s state must fit its configured capacity. That state is
//! exactly the link's simulated state (the arrival-stamped queue,
//! bandwidth cursor, and cumulative push/pop counters — the push counter
//! keys perturbation draws, so it must survive a round trip). Host-side
//! trace sinks and the perturbation installation are excluded: both are
//! re-created from the configuration on restore.

use crate::line::{LineAddr, LineData, WORDS_PER_LINE};
use crate::link::{Beats, Link};
use crate::msg::{ChannelA, ChannelB, ChannelC, ChannelD, ChannelE, GrantFlavor, WritebackKind};
use crate::perm::{Cap, ClientState, Grow, Shrink};
use skipit_snap::{codec, Codec, SnapError, SnapReader, SnapWriter};
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

codec!(ClientState, "client state" {
    0 => Invalid,
    1 => Shared,
    2 => Exclusive,
    3 => Modified,
});

codec!(Grow, "grow param" {
    0 => NtoB,
    1 => NtoT,
    2 => BtoT,
});

codec!(Cap, "cap param" {
    0 => ToN,
    1 => ToB,
    2 => ToT,
});

codec!(Shrink, "shrink param" {
    0 => TtoB,
    1 => TtoN,
    2 => BtoN,
    3 => TtoT,
    4 => BtoB,
    5 => NtoN,
});

codec!(WritebackKind, "writeback kind" {
    0 => Clean,
    1 => Flush,
    2 => Inval,
});

codec!(GrantFlavor, "grant flavor" {
    0 => Clean,
    1 => Dirty,
});

codec!(ChannelA, "channel A opcode" {
    0 => AcquireBlock { source, addr, grow },
});

codec!(ChannelB, "channel B opcode" {
    0 => Probe { target, addr, cap },
});

codec!(ChannelC, "channel C opcode" {
    0 => ProbeAck { source, addr, shrink, data },
    1 => Release { source, addr, shrink, data },
    2 => RootRelease { source, addr, kind, data },
});

codec!(ChannelD, "channel D opcode" {
    0 => Grant { target, addr, is_trunk, data, flavor },
    1 => ReleaseAck { target, addr, root },
});

codec!(ChannelE, "channel E opcode" {
    0 => GrantAck { source, addr },
});

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

    /// Encodes `v`, compares the bytes with the literal wire format, and
    /// decodes them back.
    fn pinned<T: Codec + PartialEq + fmt::Debug>(v: T, bytes: &[u8]) {
        let mut w = SnapWriter::new();
        v.encode(&mut w);
        assert_eq!(w.into_bytes(), bytes, "{v:?}");
        roundtrip(v);
    }

    #[test]
    fn message_roundtrips() {
        pinned(
            ChannelA::AcquireBlock {
                source: 1,
                addr: LineAddr::new(0x1c0),
                grow: Grow::BtoT,
            },
            &[0, 1, 0xc0, 0x03, 2],
        );
        pinned(
            ChannelB::Probe {
                target: 0,
                addr: LineAddr::new(0x40),
                cap: Cap::ToB,
            },
            &[0, 0, 0x40, 1],
        );
        pinned(
            ChannelC::ProbeAck {
                source: 2,
                addr: LineAddr::new(0x200),
                shrink: Shrink::TtoB,
                data: Some(LineData([0, 5, 0, 0, 0, 0, 0, 0])),
            },
            &[0, 2, 0x80, 0x04, 0, 1, 0x02, 5],
        );
        pinned(
            ChannelC::Release {
                source: 1,
                addr: LineAddr::new(0x240),
                shrink: Shrink::BtoN,
                data: None,
            },
            &[1, 1, 0xc0, 0x04, 2, 0],
        );
        pinned(
            ChannelC::RootRelease {
                source: 3,
                addr: LineAddr::new(0x80),
                kind: WritebackKind::Flush,
                data: Some(LineData([1, 0, 0, 7, 0, 0, 0, 9])),
            },
            &[2, 3, 0x80, 0x01, 1, 1, 0x89, 1, 7, 9],
        );
        pinned(
            ChannelD::Grant {
                target: 2,
                addr: LineAddr::new(0xc0),
                is_trunk: true,
                data: LineData::zeroed(),
                flavor: GrantFlavor::Dirty,
            },
            &[0, 2, 0xc0, 0x01, 1, 0, 1],
        );
        pinned(
            ChannelD::ReleaseAck {
                target: 1,
                addr: LineAddr::new(0x100),
                root: true,
            },
            &[1, 1, 0x80, 0x02, 1],
        );
        pinned(
            ChannelE::GrantAck {
                source: 0,
                addr: LineAddr::new(0x140),
            },
            &[0, 0, 0xc0, 0x02],
        );
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
