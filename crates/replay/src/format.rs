//! The [`MemTrace`] container and its binary codec.

use crate::TraceError;
use skipit_boom::workload::{CapturedOp, ReplaySchedule, TimedOp};
use skipit_boom::{Op, RUN_WATCHDOG_CYCLES};
use skipit_snap::{Codec, SnapReader, SnapWriter, MAX_ELEMS};

/// Binary-form header magic (`b"SKTR"` — **SK**ip-it **TR**ace).
pub const TRACE_MAGIC: [u8; 4] = *b"SKTR";

/// Binary-form version this build reads and writes.
pub const TRACE_VERSION: u64 = 1;

/// One trace record: which core issues what, and how many cycles after the
/// core's previous record it becomes eligible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Issuing core (must be below the trace's declared core count).
    pub core: u32,
    /// Inter-op gap: cycles since this core's previous record issued (for
    /// the core's first record: cycles since the trace's start).
    pub gap: u64,
    /// The operation.
    pub op: Op,
}

/// A portable memory trace: a declared core count plus an ordered stream
/// of [`TraceRecord`]s. Produced by capture mode
/// ([`MemTrace::from_capture`]), the text parser
/// ([`MemTrace::from_text`]) or by hand; consumed by
/// [`crate::TraceReplay`] and the binary/text encoders.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemTrace {
    cores: u32,
    records: Vec<TraceRecord>,
    /// Per-core cumulative gap (the stamp of the core's last record);
    /// [`MemTrace::push`] keeps every entry below
    /// [`RUN_WATCHDOG_CYCLES`], so [`MemTrace::schedule`] can sum without
    /// checks.
    ends: Vec<u64>,
}

impl MemTrace {
    /// An empty trace for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero (a trace must name at least one lane).
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0, "a trace needs at least one core");
        MemTrace {
            cores,
            records: Vec::new(),
            ends: vec![0; cores as usize],
        }
    }

    /// The declared core count.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// The record stream, in trace order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// [`TraceError::CoreOutOfRange`] if the record names a core the trace
    /// does not declare; [`TraceError::Unaligned`] if a load, store or
    /// AMO names a word address that is not 8-byte aligned;
    /// [`TraceError::PastWatchdog`] if the record's stamp (the core's gaps
    /// so far) plus its `Nop` think time reaches [`RUN_WATCHDOG_CYCLES`] —
    /// a replay of it could only end in the run watchdog's panic.
    pub fn push(&mut self, record: TraceRecord) -> Result<(), TraceError> {
        if record.core >= self.cores {
            return Err(TraceError::CoreOutOfRange {
                core: record.core,
                cores: self.cores,
            });
        }
        if let Op::Load { addr }
        | Op::Store { addr, .. }
        | Op::Cas { addr, .. }
        | Op::FetchAdd { addr, .. }
        | Op::Swap { addr, .. } = record.op
        {
            if addr % 8 != 0 {
                return Err(TraceError::Unaligned {
                    core: record.core,
                    addr,
                });
            }
        }
        let think = match record.op {
            Op::Nop { cycles } => cycles,
            _ => 0,
        };
        let end = &mut self.ends[record.core as usize];
        let stamp = end.saturating_add(record.gap);
        if stamp.saturating_add(think) >= RUN_WATCHDOG_CYCLES {
            return Err(TraceError::PastWatchdog { core: record.core });
        }
        *end = stamp;
        self.records.push(record);
        Ok(())
    }

    /// Builds a trace from a capture-mode buffer
    /// (`System::take_capture`). `start` is the absolute cycle the captured
    /// run began at — each record's gap is computed against the core's
    /// previous record (or `start` for its first), so the trace is
    /// position-independent: replaying it on a fresh system at cycle 0
    /// reproduces the captured run's relative timing exactly.
    ///
    /// # Panics
    ///
    /// Panics if a captured op names a core `>= cores`, was captured
    /// before `start`, or ends [`RUN_WATCHDOG_CYCLES`] or more after it
    /// (all caller error, not corrupt input: no script run lasts that long).
    pub fn from_capture(cores: u32, start: u64, captured: &[CapturedOp]) -> Self {
        let mut trace = MemTrace::new(cores);
        let mut last = vec![start; cores as usize];
        for c in captured {
            assert!(c.core < cores, "captured op on undeclared core {}", c.core);
            let prev = &mut last[c.core as usize];
            assert!(c.cycle >= *prev, "captured op stream is not monotonic");
            trace
                .push(TraceRecord {
                    core: c.core,
                    gap: c.cycle - *prev,
                    op: c.op,
                })
                .expect("a captured op ends within the run watchdog of `start`");
            *prev = c.cycle;
        }
        trace
    }

    /// Lowers the trace to per-core cycle-stamped lanes — the
    /// [`ReplaySchedule`] workload the replay frontend executes. Each
    /// core's stamps are the cumulative sum of its gaps, which
    /// [`MemTrace::push`] keeps below [`RUN_WATCHDOG_CYCLES`].
    pub fn schedule(&self) -> ReplaySchedule {
        let mut lanes = vec![Vec::new(); self.cores as usize];
        let mut at = vec![0u64; self.cores as usize];
        for r in &self.records {
            let t = &mut at[r.core as usize];
            *t += r.gap;
            lanes[r.core as usize].push(TimedOp { at: *t, op: r.op });
        }
        ReplaySchedule { lanes }
    }

    /// Encodes the trace to the versioned binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_raw(&TRACE_MAGIC);
        w.put_u64(TRACE_VERSION);
        w.put_u64(u64::from(self.cores));
        w.put_u64(self.records.len() as u64);
        for r in &self.records {
            w.put_u64(u64::from(r.core));
            w.put_u64(r.gap);
            r.op.encode(&mut w);
        }
        w.into_bytes()
    }

    /// Decodes a trace from the versioned binary form.
    ///
    /// # Errors
    ///
    /// A typed [`TraceError`] for anything malformed: wrong magic, a
    /// version this build does not read, truncation anywhere, records
    /// naming undeclared cores or ending past the run watchdog, or
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = SnapReader::new(bytes);
        if r.get_raw(4).map_err(|_| TraceError::Truncated)? != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = r.get_u64()?;
        if version != TRACE_VERSION {
            return Err(TraceError::BadVersion {
                found: version,
                expected: TRACE_VERSION,
            });
        }
        let cores = u32::decode(&mut r).map_err(|_| TraceError::Corrupt("core count"))?;
        if cores == 0 || cores > 32 {
            return Err(TraceError::Corrupt("core count"));
        }
        let count = r.get_count(MAX_ELEMS, "record count")?;
        let mut trace = MemTrace::new(cores);
        trace.records.reserve(count.min(1 << 16));
        for _ in 0..count {
            let core = u32::decode(&mut r).map_err(|_| TraceError::Corrupt("record core"))?;
            let gap = r.get_u64()?;
            let op = Op::decode(&mut r)?;
            trace.push(TraceRecord { core, gap, op })?;
        }
        r.finish()?;
        Ok(trace)
    }

    /// Writes the binary form to a file.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on any filesystem failure.
    pub fn to_file<P: AsRef<std::path::Path>>(&self, path: P) -> Result<(), TraceError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Reads the binary form from a file.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on any filesystem failure; otherwise as
    /// [`MemTrace::from_bytes`].
    pub fn from_file<P: AsRef<std::path::Path>>(path: P) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?;
        MemTrace::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemTrace {
        let mut t = MemTrace::new(2);
        for r in [
            TraceRecord {
                core: 0,
                gap: 0,
                op: Op::Store {
                    addr: 0x1000,
                    value: 42,
                },
            },
            TraceRecord {
                core: 1,
                gap: 3,
                op: Op::Load { addr: 0x1000 },
            },
            TraceRecord {
                core: 0,
                gap: 7,
                op: Op::Flush { addr: 0x1000 },
            },
            TraceRecord {
                core: 0,
                gap: 0,
                op: Op::Fence,
            },
            TraceRecord {
                core: 1,
                gap: 100,
                op: Op::Nop { cycles: 25 },
            },
        ] {
            t.push(r).unwrap();
        }
        t
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let bytes = t.to_bytes();
        assert_eq!(MemTrace::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = MemTrace::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated | TraceError::BadMagic | TraceError::Corrupt(_)
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            MemTrace::from_bytes(&bytes).unwrap_err(),
            TraceError::BadMagic
        );
        let mut bytes = sample().to_bytes();
        bytes[4] = 9; // version varint
        assert_eq!(
            MemTrace::from_bytes(&bytes).unwrap_err(),
            TraceError::BadVersion {
                found: 9,
                expected: TRACE_VERSION
            }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            MemTrace::from_bytes(&bytes).unwrap_err(),
            TraceError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn out_of_range_core_rejected() {
        let mut t = MemTrace::new(1);
        assert_eq!(
            t.push(TraceRecord {
                core: 1,
                gap: 0,
                op: Op::Fence
            }),
            Err(TraceError::CoreOutOfRange { core: 1, cores: 1 })
        );
        // And on decode: hand-craft a trace whose record names core 7.
        let mut w = SnapWriter::new();
        w.put_raw(&TRACE_MAGIC);
        w.put_u64(TRACE_VERSION);
        w.put_u64(1); // cores
        w.put_u64(1); // records
        w.put_u64(7); // core out of range
        w.put_u64(0);
        Op::Fence.encode(&mut w);
        assert_eq!(
            MemTrace::from_bytes(&w.into_bytes()).unwrap_err(),
            TraceError::CoreOutOfRange { core: 7, cores: 1 }
        );
    }

    /// Two records on one core whose gaps sum past the run watchdog: the
    /// second would be stamped where no replay can reach it.
    const HALF_PLUS_ONE: u64 = RUN_WATCHDOG_CYCLES / 2 + 1;

    #[test]
    fn gaps_past_the_watchdog_are_rejected_in_binary_form() {
        let mut w = SnapWriter::new();
        w.put_raw(&TRACE_MAGIC);
        w.put_u64(TRACE_VERSION);
        w.put_u64(1); // cores
        w.put_u64(2); // records
        for _ in 0..2 {
            w.put_u64(0); // core
            w.put_u64(HALF_PLUS_ONE);
            Op::Fence.encode(&mut w);
        }
        assert_eq!(
            MemTrace::from_bytes(&w.into_bytes()).unwrap_err(),
            TraceError::PastWatchdog { core: 0 }
        );
        // The same gaps split across two cores are fine.
        let mut t = MemTrace::new(2);
        for core in 0..2 {
            t.push(TraceRecord {
                core,
                gap: HALF_PLUS_ONE,
                op: Op::Fence,
            })
            .unwrap();
        }
        assert_eq!(t.schedule().lanes[1][0].at, HALF_PLUS_ONE);
    }

    #[test]
    fn gaps_past_the_watchdog_are_rejected_in_text_form() {
        let text = format!("cores 1\n0 +{HALF_PLUS_ONE} fence\n0 +{HALF_PLUS_ONE} fence\n");
        let err = MemTrace::from_text(&text).unwrap_err();
        assert!(
            matches!(err, TraceError::Text { line: 3, ref msg } if msg.contains("watchdog")),
            "{err:?}"
        );
    }

    /// Think time counts: a `Nop` whose end reaches the watchdog, or a gap
    /// that would wrap the clock, is rejected where the trace enters.
    #[test]
    fn think_time_and_wrapping_gaps_past_the_watchdog_are_rejected() {
        for text in [
            "cores 1\n0 nop 18446744073709551615\n",
            "cores 1\n0 +18446744073709551615 fence\n",
            "cores 1\n0 +1 fence\n0 nop 1999999999\n",
        ] {
            let err = MemTrace::from_text(text).unwrap_err();
            assert!(
                matches!(err, TraceError::Text { ref msg, .. } if msg.contains("watchdog")),
                "{text:?}: {err:?}"
            );
        }
        let mut t = MemTrace::new(1);
        let nop = |gap, cycles| TraceRecord {
            core: 0,
            gap,
            op: Op::Nop { cycles },
        };
        t.push(nop(1, RUN_WATCHDOG_CYCLES - 2)).unwrap();
        assert_eq!(
            t.push(nop(0, RUN_WATCHDOG_CYCLES - 1)),
            Err(TraceError::PastWatchdog { core: 0 })
        );
        assert_eq!(t.len(), 1, "a rejected record is not appended");
    }

    #[test]
    fn schedule_accumulates_per_core_gaps() {
        let s = sample().schedule();
        assert_eq!(s.lanes.len(), 2);
        let at0: Vec<u64> = s.lanes[0].iter().map(|t| t.at).collect();
        let at1: Vec<u64> = s.lanes[1].iter().map(|t| t.at).collect();
        assert_eq!(at0, vec![0, 7, 7]);
        assert_eq!(at1, vec![3, 103]);
    }

    #[test]
    fn from_capture_computes_gaps_against_start() {
        use skipit_boom::workload::CapturedOp;
        let cap = [
            CapturedOp {
                cycle: 100,
                core: 0,
                op: Op::Fence,
            },
            CapturedOp {
                cycle: 105,
                core: 1,
                op: Op::Fence,
            },
            CapturedOp {
                cycle: 107,
                core: 0,
                op: Op::Fence,
            },
        ];
        let t = MemTrace::from_capture(2, 100, &cap);
        let gaps: Vec<u64> = t.records().iter().map(|r| r.gap).collect();
        assert_eq!(gaps, vec![0, 5, 7]);
    }
}
