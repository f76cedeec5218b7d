//! [`Codec`] implementations for the memory controller — the persistence
//! domain's slice of the full-system snapshot (DESIGN.md §11).
//!
//! The resident-line map is a `HashMap`, whose iteration order is
//! per-instance; lines are therefore written in ascending address order so
//! the same durable image always encodes to the same bytes, which
//! `System::state_digest` hashes.
//! All-zero lines collapse to two bytes via the [`LineData`] word mask.
//! The trace sink is host-side and excluded.

use crate::{Dram, MemReq, MemResp, MemStats};
use skipit_snap::{codec, Codec, SnapError, SnapReader, SnapWriter, MAX_ELEMS};
use skipit_tilelink::LineData;
use std::collections::{HashMap, VecDeque};

codec!(MemReq, "mem request opcode" {
    0 => Read { addr, token },
    1 => Write { addr, data, token },
});

codec!(MemResp, "mem response opcode" {
    0 => ReadDone { addr, data, token },
    1 => WriteDone { addr, token },
});

impl Dram {
    /// Encodes the controller's simulated state: resident lines (sorted by
    /// address), in-flight requests, queued responses, the issue-bandwidth
    /// cursor and service counters. Timing configuration and the trace
    /// sink are host-side and excluded.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(0x44);
        let mut lines: Vec<(&u64, &LineData)> = self.lines.iter().collect();
        lines.sort_by_key(|&(addr, _)| *addr);
        w.put_u64(lines.len() as u64);
        for (addr, data) in lines {
            addr.encode(w);
            data.encode(w);
        }
        self.inflight.encode(w);
        self.ready.encode(w);
        self.next_issue.encode(w);
        self.stats.encode(w);
    }

    /// Overwrites the controller's simulated state from `r` (the inverse
    /// of [`Dram::encode_state`]).
    pub fn decode_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(0x44, "dram section")?;
        let n = r.get_count(MAX_ELEMS, "dram line count")?;
        let mut lines = HashMap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let addr = u64::decode(r)?;
            if addr % skipit_tilelink::LINE_BYTES as u64 != 0 {
                return Err(SnapError::Corrupt("dram line key alignment"));
            }
            if lines.insert(addr, LineData::decode(r)?).is_some() {
                return Err(SnapError::Corrupt("duplicate dram line"));
            }
        }
        self.lines = lines;
        self.inflight = VecDeque::decode(r)?;
        self.ready = VecDeque::decode(r)?;
        self.next_issue = u64::decode(r)?;
        self.stats = MemStats::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;
    use skipit_tilelink::LineAddr;

    #[test]
    fn dram_state_roundtrips_mid_flight() {
        let mut d = Dram::new(DramConfig::default());
        d.write_direct(LineAddr::new(0x1c0), LineData([9, 0, 0, 0, 0, 0, 0, 1]));
        d.request(
            0,
            MemReq::Write {
                addr: LineAddr::new(0x40),
                data: LineData([1; 8]),
                token: 7,
            },
        );
        d.request(
            1,
            MemReq::Read {
                addr: LineAddr::new(0x1c0),
                token: 8,
            },
        );
        d.step(200); // both complete; responses stay queued
        d.request(
            201,
            MemReq::Read {
                addr: LineAddr::new(0x80),
                token: 9,
            },
        ); // still in flight

        let mut w = SnapWriter::new();
        d.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = Dram::new(DramConfig::default());
        let mut r = SnapReader::new(&bytes);
        fresh.decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(format!("{d:?}"), format!("{fresh:?}"));
        assert_eq!(fresh.stats(), d.stats());
        assert_eq!(fresh.pop_response(), d.pop_response());
    }

    #[test]
    fn encoding_is_sorted_and_deterministic() {
        // Insert in two different orders; the bytes must match.
        let mut a = Dram::default();
        let mut b = Dram::default();
        for addr in [0x1000u64, 0x40, 0x880] {
            a.write_direct(LineAddr::new(addr), LineData([addr; 8]));
        }
        for addr in [0x880u64, 0x1000, 0x40] {
            b.write_direct(LineAddr::new(addr), LineData([addr; 8]));
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.encode_state(&mut wa);
        b.encode_state(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn duplicate_line_rejected() {
        let mut w = SnapWriter::new();
        w.tag(0x44);
        w.put_u64(2);
        for _ in 0..2 {
            0x40u64.encode(&mut w);
            LineData::zeroed().encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut d = Dram::default();
        assert_eq!(
            d.decode_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("duplicate dram line"))
        );
    }
}
