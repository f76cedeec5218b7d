//! Trace capture & replay: a versioned, compact memory-trace format and
//! the [`Workload`] that feeds a trace back through the simulated SoC.
//!
//! The simulator's workloads were historically all *generators* — built-in
//! figure-shaped op scripts. This crate makes arbitrary programs runnable
//! at near-zero marginal cost: any run (program, worker or replay mode, any
//! engine) can be recorded with [`System::start_capture`], the recorded
//! stream converts to a portable [`MemTrace`], and a trace replays through
//! [`TraceReplay`] — bit-identically to the original run when the trace was
//! captured (see the round-trip contract below), or as a best-effort
//! schedule for hand-written traces.
//!
//! # Formats
//!
//! * **Binary** ([`MemTrace::to_bytes`] / [`MemTrace::from_bytes`]): a
//!   `SKTR`-magic, versioned LEB128 stream built on `skipit-snap`'s
//!   [`SnapWriter`](skipit_snap::SnapWriter)/[`SnapReader`](skipit_snap::SnapReader)
//!   primitives. Per record: issuing core,
//!   inter-op gap (cycles since the core's previous record), and the op
//!   (kind tag + varint operands). Corrupt, truncated or future-versioned
//!   input decodes to a typed [`TraceError`], never a panic.
//! * **Text** ([`MemTrace::to_text`] / [`MemTrace::from_text`]): a
//!   line-oriented form for hand-written litmus-style traces —
//!   `<core> [+gap] <kind> [operands…]` with `#` comments (see
//!   [`MemTrace::from_text`] for the grammar). Text and binary forms of
//!   the same trace are interconvertible without loss.
//!
//! # Round-trip contract
//!
//! `capture(run(W))` replayed on a fresh system with the same
//! configuration reproduces the original run bit-identically — same
//! cycles, statistics and durable image — under any engine at any thread
//! count, including under schedule perturbation. The capture records the
//! exact cycle each op entered its core's LSU; the replay frontend issues
//! each op no earlier than that cycle under the same issue-width and
//! LSU-room rules, so by induction the replayed machine passes through the
//! identical state sequence.
//!
//! ```
//! use skipit_boom::{Op, Programs, System, SystemConfig};
//! use skipit_replay::{MemTrace, TraceReplay};
//!
//! // Capture a run…
//! let mut sys = System::new(SystemConfig::default());
//! sys.start_capture();
//! let cycles = sys
//!     .run(Programs(vec![vec![
//!         Op::Store { addr: 0x1000, value: 42 },
//!         Op::Flush { addr: 0x1000 },
//!         Op::Fence,
//!     ]]))
//!     .cycles;
//! let trace = MemTrace::from_capture(2, 0, &sys.take_capture());
//!
//! // …and replay it bit-identically on a fresh system.
//! let mut replayed = System::new(SystemConfig::default());
//! let report = replayed.run(TraceReplay::new(trace));
//! assert_eq!(report.cycles, cycles);
//! assert_eq!(replayed.state_digest(), sys.state_digest());
//! ```

mod format;
mod text;

pub use format::{MemTrace, TraceRecord, TRACE_MAGIC, TRACE_VERSION};

use skipit_boom::workload::{RunReport, Workload};
use skipit_boom::{System, RUN_WATCHDOG_CYCLES};
use skipit_snap::SnapError;
use std::fmt;

/// Typed trace decode/validation failure. Everything the format layer can
/// reject — truncated input, a foreign or future format, a malformed text
/// line, a record naming a core the trace's header does not declare, a
/// record ending past the run watchdog — reports as one of these
/// variants, never as a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The input ended before the decoder was done.
    Truncated,
    /// The header magic did not match — not a memory trace at all.
    BadMagic,
    /// The header version is one this build does not understand.
    BadVersion {
        /// Version found in the header.
        found: u64,
        /// Version this build writes.
        expected: u64,
    },
    /// A structural invariant failed; the payload names the decode site.
    Corrupt(&'static str),
    /// Trailing bytes after a complete decode (foreign or corrupt input).
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// A record named a core outside the trace's declared core count.
    CoreOutOfRange {
        /// Core named by the record.
        core: u32,
        /// Cores the trace declares.
        cores: u32,
    },
    /// A core's record would end — its stamp (the sum of the core's gaps)
    /// plus its `Nop` think time — at or past [`RUN_WATCHDOG_CYCLES`]:
    /// replaying it could only end in the run watchdog's panic.
    PastWatchdog {
        /// The core whose record ends too late.
        core: u32,
    },
    /// A load, store or AMO names a word address that is not 8-byte
    /// aligned (`CBO.X` ops may name any byte of their line).
    Unaligned {
        /// The core whose record names the address.
        core: u32,
        /// The unaligned byte address.
        addr: u64,
    },
    /// The trace declares more cores than the system it is replayed on
    /// has; nothing is run.
    WiderThanSystem {
        /// Cores the trace declares.
        cores: u32,
        /// Cores the system has.
        system_cores: usize,
    },
    /// A text-form parse failure, with the 1-based source line.
    Text {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A filesystem failure while reading or writing a trace file.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "trace truncated: unexpected end of input"),
            TraceError::BadMagic => write!(f, "not a memory trace: bad magic"),
            TraceError::BadVersion { found, expected } => {
                write!(f, "unsupported trace version {found} (expected {expected})")
            }
            TraceError::Corrupt(site) => write!(f, "corrupt trace at {site}"),
            TraceError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after trace decode")
            }
            TraceError::CoreOutOfRange { core, cores } => {
                write!(f, "record names core {core}, but the trace has {cores}")
            }
            TraceError::PastWatchdog { core } => write!(
                f,
                "core {core}'s records end past the {RUN_WATCHDOG_CYCLES}-cycle run watchdog"
            ),
            TraceError::Unaligned { core, addr } => write!(
                f,
                "core {core}'s word access at {addr:#x} is not 8-byte aligned"
            ),
            TraceError::WiderThanSystem {
                cores,
                system_cores,
            } => write!(
                f,
                "trace declares {cores} cores, but the system has {system_cores}"
            ),
            TraceError::Text { line, msg } => write!(f, "trace text line {line}: {msg}"),
            TraceError::Io(msg) => write!(f, "trace file i/o: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<SnapError> for TraceError {
    fn from(e: SnapError) -> Self {
        match e {
            SnapError::UnexpectedEof => TraceError::Truncated,
            SnapError::Corrupt(site) => TraceError::Corrupt(site),
            SnapError::TrailingBytes { remaining } => TraceError::TrailingBytes { remaining },
            // The remaining variants are snapshot-layer concerns that the
            // trace header parsing never produces.
            _ => TraceError::Corrupt("snap layer"),
        }
    }
}

/// A captured or hand-written [`MemTrace`] as a [`Workload`]: replaying it
/// feeds each core's recorded op lane through the replay frontend (see
/// `skipit_boom::workload::ReplaySchedule`).
///
/// The trace may declare fewer cores than the target system (the extra
/// cores idle). A trace that declares more is outside input the system
/// cannot run: the output is [`TraceError::WiderThanSystem`] and no cycle
/// runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceReplay {
    trace: MemTrace,
}

impl TraceReplay {
    /// Wraps a trace for replay.
    pub fn new(trace: MemTrace) -> Self {
        TraceReplay { trace }
    }

    /// The wrapped trace.
    pub fn trace(&self) -> &MemTrace {
        &self.trace
    }
}

impl Workload for TraceReplay {
    type Output = Result<(), TraceError>;

    fn run(self, sys: &mut System) -> RunReport<Self::Output> {
        let system_cores = sys.config().cores;
        let cores = self.trace.cores();
        if cores as usize > system_cores {
            return RunReport {
                cycles: 0,
                output: Err(TraceError::WiderThanSystem {
                    cores,
                    system_cores,
                }),
                budget_expired: false,
            };
        }
        let report = sys.run(self.trace.schedule());
        RunReport {
            cycles: report.cycles,
            output: Ok(()),
            budget_expired: report.budget_expired,
        }
    }
}
