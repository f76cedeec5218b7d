//! Unified cycle-stamped event tracing for the Skip It simulator.
//!
//! Every simulated subsystem (LSU, L1 D-cache, flush unit, TileLink links,
//! L2, DRAM, the fast-forward engine itself) owns an optional
//! [`TraceSink`] — a bounded ring buffer of [`TraceEvent`]s stamped with the
//! cycle they occurred on. Sinks are installed by
//! `System::set_trace` and harvested into one deterministically
//! merged stream for export (Chrome-trace JSON for Perfetto, or a
//! human-readable text dump).
//!
//! # The engine-invariance contract
//!
//! Events are emitted **only from state-mutating code paths** (an FSHR
//! changing state, a message entering or leaving a link, an MSHR being
//! allocated…), never from the pure `next_event` bounds or the L1's
//! admission decision (`would_accept`) the fast-forward engine plans with.
//! Since the fast engine only skips cycles on which no component mutates
//! state, the emitted stream — modulo
//! the engine's own [`TraceEvent::FastForwardJump`] markers — is
//! bit-identical between the naive and fast-forward engines. Tracing can
//! therefore never perturb (or even observe a difference in) simulation.
//!
//! # Cost when off
//!
//! Tracing has no compile-time switch. A component without an installed
//! sink (the default at run time) pays one `Option` discriminant test per
//! emission site: the [`trace!`] macro builds the event only inside
//! `if let Some(sink) = …`.

use std::collections::VecDeque;

mod telemetry;

pub use telemetry::{
    CoreCounters, CoreSample, Telemetry, TelemetryCounters, TelemetrySample,
    DEFAULT_TELEMETRY_CAPACITY,
};

/// Emits an event into an `Option<TraceSink>`-typed place.
///
/// ```
/// use skipit_trace::{trace, TraceEvent, TraceSink};
///
/// let mut sink = Some(TraceSink::new(16));
/// trace!(sink, 42, TraceEvent::DramRead { addr: 0x1000 });
/// assert_eq!(sink.unwrap().len(), 1);
/// ```
#[macro_export]
macro_rules! trace {
    ($sink:expr, $now:expr, $ev:expr) => {
        if let ::core::option::Option::Some(s) = ($sink).as_mut() {
            s.emit($now, $ev);
        }
    };
}

/// A single cycle-stamped simulator event. Variants carry the originating
/// core where one exists, so exporters can assign tracks without extra
/// bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An FSHR moved between two Fig. 7 states (`free`, `meta_write`,
    /// `fill_buffer`, `root_release_data`, `root_release`,
    /// `root_release_ack`).
    FshrTransition {
        /// Originating core.
        core: usize,
        /// FSHR index within the flush unit.
        fshr: usize,
        /// Line the FSHR is operating on.
        addr: u64,
        /// State left.
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// A CBO.X request entered the flush queue.
    FlushEnqueue {
        /// Originating core.
        core: usize,
        /// Requested line.
        addr: u64,
        /// `CBO.CLEAN` / `CBO.FLUSH` / `CBO.INVAL`.
        kind: &'static str,
    },
    /// An arriving CBO.X merged into an already-queued same-line entry
    /// (§5.3) instead of occupying a new slot.
    FlushCoalesce {
        /// Originating core.
        core: usize,
        /// Requested line.
        addr: u64,
        /// Kind of the arriving (absorbed) request.
        kind: &'static str,
    },
    /// A queued flush entry was downgraded to a miss-kind entry because a
    /// probe or an eviction took the line away first (§5.4).
    FlushInvalidate {
        /// Originating core.
        core: usize,
        /// Affected line.
        addr: u64,
        /// `"probe"` or `"evict"`.
        by: &'static str,
    },
    /// A writeback was dropped at the L1 by the Skip It check
    /// (hit ∧ clean ∧ skip bit, §6).
    WritebackDropped {
        /// Originating core.
        core: usize,
        /// Line whose writeback was dropped.
        addr: u64,
    },
    /// A message entered a TileLink channel (producer side).
    TlBegin {
        /// Channel name: `'A'`–`'E'`.
        channel: char,
        /// Core index of the per-core link the message travels on.
        core: usize,
        /// Message opcode (e.g. `"AcquireBlock"`, `"RootRelease"`).
        opcode: &'static str,
        /// Message parameter (grow/shrink/kind/flavor), `""` when none.
        param: &'static str,
        /// Line address the message concerns.
        addr: u64,
    },
    /// The message at the head of a TileLink channel was consumed. Channels
    /// are FIFOs, so the n-th `TlEnd` of a (channel, core) pair closes the
    /// n-th [`TraceEvent::TlBegin`].
    TlEnd {
        /// Channel name: `'A'`–`'E'`.
        channel: char,
        /// Core index of the per-core link.
        core: usize,
        /// Message opcode.
        opcode: &'static str,
        /// Message parameter, `""` when none.
        param: &'static str,
        /// Line address.
        addr: u64,
    },
    /// An L1 MSHR was allocated for a miss.
    L1MshrAlloc {
        /// Originating core.
        core: usize,
        /// MSHR slot index.
        slot: usize,
        /// Missing line.
        addr: u64,
    },
    /// An L1 MSHR finished its transaction and returned to the free pool.
    L1MshrFree {
        /// Originating core.
        core: usize,
        /// MSHR slot index.
        slot: usize,
        /// Line the MSHR serviced.
        addr: u64,
    },
    /// An L2 MSHR was allocated (for an Acquire or a RootRelease).
    L2MshrAlloc {
        /// MSHR slot index.
        slot: usize,
        /// Line the transaction concerns.
        addr: u64,
        /// `"Acquire"` or `"RootRelease"`.
        op: &'static str,
    },
    /// An L2 MSHR completed and was freed.
    L2MshrFree {
        /// MSHR slot index.
        slot: usize,
        /// Line the transaction concerned.
        addr: u64,
    },
    /// The L1 set a line's skip bit (line known persisted, §6).
    SkipBitSet {
        /// Originating core.
        core: usize,
        /// Line address.
        addr: u64,
    },
    /// The L1 cleared a line's skip bit.
    SkipBitClear {
        /// Originating core.
        core: usize,
        /// Line address.
        addr: u64,
        /// What invalidated the skip knowledge (`"store"`, `"grant"`,
        /// `"probe"`, `"evict"`…).
        why: &'static str,
    },
    /// DRAM completed a line read.
    DramRead {
        /// Line address.
        addr: u64,
    },
    /// DRAM completed a line write (the persistence event).
    DramWrite {
        /// Line address.
        addr: u64,
    },
    /// The L2 skipped a RootRelease DRAM write because nothing was dirty
    /// (§5.5 "trivial skip").
    DramWriteSkipped {
        /// Line address.
        addr: u64,
    },
    /// A fence entered the LSU and began gating retirement (it completes
    /// only when older ops are done and the flush counter is zero, §5.3).
    FenceStallBegin {
        /// Originating core.
        core: usize,
        /// Op token of the fence.
        token: u64,
    },
    /// The fence completed.
    FenceStallEnd {
        /// Originating core.
        core: usize,
        /// Op token of the fence.
        token: u64,
    },
    /// The fast-forward engine jumped the clock over a provably idle
    /// window. `l2` / `cores` / `frontend` attribute the wheel slot(s) due
    /// at the jump target.
    FastForwardJump {
        /// First skipped cycle.
        from: u64,
        /// Jump target (next cycle with work).
        to: u64,
        /// The L2/DRAM gate is due at the target.
        l2: bool,
        /// Bitmask of cores whose gate is due at the target.
        cores: u64,
        /// A frontend issue or worker-poll event is due at the target.
        frontend: bool,
    },
}

impl TraceEvent {
    /// The core an event belongs to, when it has one (its exporter track).
    pub fn core(&self) -> Option<usize> {
        use TraceEvent::*;
        match *self {
            FshrTransition { core, .. }
            | FlushEnqueue { core, .. }
            | FlushCoalesce { core, .. }
            | FlushInvalidate { core, .. }
            | WritebackDropped { core, .. }
            | TlBegin { core, .. }
            | TlEnd { core, .. }
            | L1MshrAlloc { core, .. }
            | L1MshrFree { core, .. }
            | SkipBitSet { core, .. }
            | SkipBitClear { core, .. }
            | FenceStallBegin { core, .. }
            | FenceStallEnd { core, .. } => Some(core),
            _ => None,
        }
    }

    /// `true` for the fast-forward engine's own jump markers — the one
    /// event class excluded from the naive-vs-fast equality contract.
    pub fn is_engine_event(&self) -> bool {
        matches!(self, TraceEvent::FastForwardJump { .. })
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use TraceEvent::*;
        match *self {
            FshrTransition {
                core,
                fshr,
                addr,
                from,
                to,
            } => write!(f, "core{core} fshr{fshr} {from} -> {to} @{addr:#x}"),
            FlushEnqueue { core, addr, kind } => {
                write!(f, "core{core} flush-queue enqueue {kind} @{addr:#x}")
            }
            FlushCoalesce { core, addr, kind } => {
                write!(f, "core{core} flush-queue coalesce {kind} @{addr:#x}")
            }
            FlushInvalidate { core, addr, by } => {
                write!(f, "core{core} flush-entry invalidated by {by} @{addr:#x}")
            }
            WritebackDropped { core, addr } => {
                write!(f, "core{core} writeback skip-dropped @{addr:#x}")
            }
            TlBegin {
                channel,
                core,
                opcode,
                param,
                addr,
            } => write!(f, "core{core} TL-{channel} + {opcode}{param} @{addr:#x}"),
            TlEnd {
                channel,
                core,
                opcode,
                param,
                addr,
            } => write!(f, "core{core} TL-{channel} - {opcode}{param} @{addr:#x}"),
            L1MshrAlloc { core, slot, addr } => {
                write!(f, "core{core} L1 mshr{slot} alloc @{addr:#x}")
            }
            L1MshrFree { core, slot, addr } => {
                write!(f, "core{core} L1 mshr{slot} free @{addr:#x}")
            }
            L2MshrAlloc { slot, addr, op } => {
                write!(f, "L2 mshr{slot} alloc {op} @{addr:#x}")
            }
            L2MshrFree { slot, addr } => write!(f, "L2 mshr{slot} free @{addr:#x}"),
            SkipBitSet { core, addr } => write!(f, "core{core} skip-bit set @{addr:#x}"),
            SkipBitClear { core, addr, why } => {
                write!(f, "core{core} skip-bit clear ({why}) @{addr:#x}")
            }
            DramRead { addr } => write!(f, "DRAM read @{addr:#x}"),
            DramWrite { addr } => write!(f, "DRAM write @{addr:#x}"),
            DramWriteSkipped { addr } => write!(f, "DRAM write trivially skipped @{addr:#x}"),
            FenceStallBegin { core, token } => {
                write!(f, "core{core} fence#{token} stall begin")
            }
            FenceStallEnd { core, token } => write!(f, "core{core} fence#{token} done"),
            FastForwardJump {
                from,
                to,
                l2,
                cores,
                frontend,
            } => write!(
                f,
                "engine jump {from} -> {to} (l2:{l2} cores:{cores:#x} fe:{frontend})"
            ),
        }
    }
}

/// An event with the cycle it occurred on and its position in the emitting
/// sink's stream (`seq` is per-sink and strictly increasing, so merged
/// streams can be ordered deterministically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Cycle the event occurred on.
    pub cycle: u64,
    /// Per-sink emission index.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Builder-style description of a system's complete tracing setup: what
/// `System::set_trace` consumes. One value describes all three tracing
/// facilities —
///
/// * **event tracing**: cycle-stamped [`TraceEvent`] ring buffers on every
///   component ([`TraceConfig::events`]),
/// * **op-latency tracing**: per-core completion records and latency
///   histograms ([`TraceConfig::latency`]), and
/// * **telemetry sampling**: interval-aligned counter-series samples
///   ([`TraceConfig::telemetry`], see the [`Telemetry`] sampler).
///
/// The default ([`TraceConfig::off`]) disables all three, so
/// `set_trace(TraceConfig::off())` returns a system to the untraced state
/// (one `Option` test per emission site).
///
/// # Example
///
/// ```
/// use skipit_trace::TraceConfig;
///
/// let cfg = TraceConfig::new()
///     .events(1 << 16)
///     .latency(1024)
///     .telemetry(4096);
/// assert_eq!(cfg.event_capacity(), Some(1 << 16));
/// assert_eq!(cfg.latency_capacity(), Some(1024));
/// assert_eq!(cfg.telemetry_interval(), Some(4096));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    event_capacity: Option<usize>,
    latency_capacity: Option<usize>,
    telemetry_interval: Option<u64>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Everything disabled (the untraced state).
    pub fn off() -> Self {
        TraceConfig {
            event_capacity: None,
            latency_capacity: None,
            telemetry_interval: None,
        }
    }

    /// Starts from everything-disabled; chain [`TraceConfig::events`],
    /// [`TraceConfig::latency`] and [`TraceConfig::telemetry`] to enable
    /// facilities.
    pub fn new() -> Self {
        TraceConfig::off()
    }

    /// Enables component event tracing with ring buffers of `capacity`
    /// events per component sink.
    pub fn events(mut self, capacity: usize) -> Self {
        self.event_capacity = Some(capacity);
        self
    }

    /// Enables per-core op-latency tracing, keeping up to `capacity`
    /// completion records per core (histograms keep counting past the
    /// bound).
    pub fn latency(mut self, capacity: usize) -> Self {
        self.latency_capacity = Some(capacity);
        self
    }

    /// Enables telemetry sampling: one [`TelemetrySample`] every
    /// `interval` simulated cycles, cycle-aligned and engine-independent.
    ///
    /// # Panics
    ///
    /// A zero `interval` panics when the config is installed.
    pub fn telemetry(mut self, interval: u64) -> Self {
        self.telemetry_interval = Some(interval);
        self
    }

    /// Per-sink event capacity, `None` when event tracing is off.
    pub fn event_capacity(&self) -> Option<usize> {
        self.event_capacity
    }

    /// Per-core latency-record capacity, `None` when op-latency tracing is
    /// off.
    pub fn latency_capacity(&self) -> Option<usize> {
        self.latency_capacity
    }

    /// Sampling interval in cycles, `None` when telemetry is off.
    pub fn telemetry_interval(&self) -> Option<u64> {
        self.telemetry_interval
    }
}

/// A bounded ring buffer of [`TimedEvent`]s owned by one simulated
/// component. When full, the **oldest** events are discarded (`dropped`
/// counts them), so a sink always holds the most recent window — the
/// useful half when diagnosing why a run *ended* the way it did.
#[derive(Clone)]
pub struct TraceSink {
    events: VecDeque<TimedEvent>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

// Sinks appear inside components' derived `Debug` output; a summary keeps
// that readable. Sinks are host-side: the lockstep oracle compares each
// installed sink's `len()` and `dropped()` beside the state digest.
impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TraceSink(len={}, seq={}, dropped={})",
            self.events.len(),
            self.seq,
            self.dropped
        )
    }
}

impl TraceSink {
    /// A sink holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceSink {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            seq: 0,
            dropped: 0,
        }
    }

    /// Records `event` at `cycle` (applying the capacity bound). Prefer
    /// the [`trace!`] macro at emission sites — it adds the `Option` guard.
    pub fn emit(&mut self, cycle: u64, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.events.push_back(TimedEvent { cycle, seq, event });
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the capacity bound since the last clear.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Capacity the sink was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Discards buffered events and resets the drop counter (the sequence
    /// counter keeps running, so merged orderings stay stable across
    /// clears).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

/// Static description of a TileLink message for tracing (what `trace!`
/// records at link push/pop). Produced by the message types themselves so
/// the generic `Link` can emit without knowing its channel's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgDesc {
    /// Opcode name (`"AcquireBlock"`, `"Grant"`, …).
    pub opcode: &'static str,
    /// Parameter rendering (grow/shrink/kind/flavor), `""` when none.
    pub param: &'static str,
    /// Line address the message concerns.
    pub addr: u64,
}

/// An event tagged with a global track index for deterministic merging:
/// streams are ordered by `(cycle, order, seq)` where `order` is a fixed
/// component enumeration chosen by the system. Equal streams (the
/// engine-invariance contract) compare equal as `Vec<StreamEvent>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamEvent {
    /// Cycle the event occurred on.
    pub cycle: u64,
    /// Fixed component enumeration index (ties broken by `seq`).
    pub order: u32,
    /// Per-sink emission index.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Merges per-sink streams (each already cycle-ordered) into one
/// deterministic stream ordered by `(cycle, order, seq)`.
pub fn merge_streams(mut events: Vec<StreamEvent>) -> Vec<StreamEvent> {
    events.sort_by_key(|e| (e.cycle, e.order, e.seq));
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut s = TraceSink::new(2);
        for cycle in 0..5 {
            s.emit(cycle, TraceEvent::DramRead { addr: cycle });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let cycles: Vec<u64> = s.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
    }

    #[test]
    fn merge_is_deterministic_and_cycle_ordered() {
        let ev = |cycle, order, seq| StreamEvent {
            cycle,
            order,
            seq,
            event: TraceEvent::DramRead { addr: 0 },
        };
        let merged = merge_streams(vec![ev(5, 1, 0), ev(3, 2, 0), ev(3, 1, 1), ev(3, 1, 0)]);
        let key: Vec<(u64, u32, u64)> = merged.iter().map(|e| (e.cycle, e.order, e.seq)).collect();
        assert_eq!(key, vec![(3, 1, 0), (3, 1, 1), (3, 2, 0), (5, 1, 0)]);
    }

    #[test]
    fn macro_skips_none_and_emits_into_some() {
        let mut none: Option<TraceSink> = None;
        trace!(none, 0, TraceEvent::DramRead { addr: 0 });
        assert!(none.is_none());
        let mut some = Some(TraceSink::new(4));
        trace!(some, 7, TraceEvent::DramRead { addr: 1 });
        assert_eq!(some.as_ref().unwrap().len(), 1);
    }
}
