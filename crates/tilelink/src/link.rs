//! Latency- and bandwidth-modeled unidirectional channels.
//!
//! A [`Link`] is a FIFO whose entries become visible to the receiver only
//! after a configurable wire latency, and which serializes multi-beat
//! (data-bearing) messages: while one message's beats are on the wire, the
//! next message cannot complete earlier. This reproduces the paper's timing
//! observation that releasing a 64 B line over the 16 B system bus takes four
//! cycles (§5.2).

use skipit_trace::{MsgDesc, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::fmt;

/// Trait implemented by channel message types to report how many bus beats
/// they occupy and to describe themselves to the tracing layer. Headers-only
/// messages take one beat; a full line takes [`crate::LINE_BEATS`].
pub trait Beats {
    /// Number of cycles the message occupies the link.
    fn beats(&self) -> u64;

    /// Opcode/param/address description for trace events.
    fn describe(&self) -> MsgDesc;

    /// The channel this message type travels on (`'A'`–`'E'`), for trace
    /// track naming.
    fn channel() -> char;
}

impl Beats for crate::msg::ChannelA {
    fn beats(&self) -> u64 {
        1
    }

    fn describe(&self) -> MsgDesc {
        crate::msg::ChannelA::describe(self)
    }

    fn channel() -> char {
        'A'
    }
}

impl Beats for crate::msg::ChannelB {
    fn beats(&self) -> u64 {
        1
    }

    fn describe(&self) -> MsgDesc {
        crate::msg::ChannelB::describe(self)
    }

    fn channel() -> char {
        'B'
    }
}

impl Beats for crate::msg::ChannelC {
    fn beats(&self) -> u64 {
        if self.has_data() {
            crate::LINE_BEATS
        } else {
            1
        }
    }

    fn describe(&self) -> MsgDesc {
        crate::msg::ChannelC::describe(self)
    }

    fn channel() -> char {
        'C'
    }
}

impl Beats for crate::msg::ChannelD {
    fn beats(&self) -> u64 {
        if self.has_data() {
            crate::LINE_BEATS
        } else {
            1
        }
    }

    fn describe(&self) -> MsgDesc {
        crate::msg::ChannelD::describe(self)
    }

    fn channel() -> char {
        'D'
    }
}

impl Beats for crate::msg::ChannelE {
    fn beats(&self) -> u64 {
        1
    }

    fn describe(&self) -> MsgDesc {
        crate::msg::ChannelE::describe(self)
    }

    fn channel() -> char {
        'E'
    }
}

/// A unidirectional, latency-stamped, bandwidth-limited FIFO channel.
///
/// Messages pushed at cycle `t` become poppable at
/// `max(t + latency, previous message end + 1) + beats - 1`.
///
/// A link carries no interior synchronization: it belongs to exactly one
/// simulated system, which steps it from one host thread. The compile-time
/// assertion below keeps the links (with their trace sinks and
/// perturbation state) `Send`, so a whole system can move to another host
/// thread (the sweep runner's workers).
///
/// # Example
///
/// ```
/// use skipit_tilelink::{Link, ChannelE, LineAddr};
///
/// let mut e: Link<ChannelE> = Link::new(1, 4);
/// e.push(10, ChannelE::GrantAck { source: 0, addr: LineAddr::new(0) });
/// assert!(e.pop(10).is_none());
/// assert!(e.pop(11).is_some());
/// ```
#[derive(Debug)]
pub struct Link<T> {
    queue: VecDeque<(u64, T)>,
    latency: u64,
    capacity: usize,
    next_free: u64,
    /// Cumulative messages pushed (metrics; engine-invariant by the PR 1
    /// guarantee, since pushes only happen from state-mutating steps).
    pushed: u64,
    /// Cumulative messages popped (metrics; with `pushed` this gives
    /// consumed traffic and, by difference, in-flight occupancy without
    /// walking the queue).
    popped: u64,
    /// The core this per-core link belongs to (see [`Link::for_core`]);
    /// tags its trace events.
    core: usize,
    /// Event sink, installed by `System::set_trace`. `None` (the default)
    /// keeps push/pop at a single branch of overhead.
    trace: Option<TraceSink>,
    /// Adversarial-exploration jitter: `(site key, config)` installed by
    /// `System::new` when perturbation is configured (see
    /// [`crate::perturb`]). `None` (the default) adds zero overhead and
    /// leaves timing bit-identical to an unperturbed link.
    perturb: Option<(u64, crate::perturb::PerturbConfig)>,
}

/// A link must be movable to whichever host thread owns its system.
#[allow(dead_code)]
fn _assert_links_send() {
    fn send<T: Send>() {}
    send::<Link<crate::msg::ChannelA>>();
    send::<Link<crate::msg::ChannelB>>();
    send::<Link<crate::msg::ChannelC>>();
    send::<Link<crate::msg::ChannelD>>();
    send::<Link<crate::msg::ChannelE>>();
}

impl<T: Beats + fmt::Debug> Link<T> {
    /// Creates a link with the given wire `latency` (cycles) and buffering
    /// `capacity` (messages).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(latency: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "link capacity must be nonzero");
        Link {
            queue: VecDeque::with_capacity(capacity),
            latency,
            capacity,
            next_free: 0,
            pushed: 0,
            popped: 0,
            core: 0,
            trace: None,
            perturb: None,
        }
    }

    /// Installs seeded delivery jitter: every subsequent push's wire delay
    /// is stretched by `cfg.draw(site, message index, cfg.link_jitter)`
    /// cycles. Keyed on the cumulative push counter — a state-changing event
    /// count — so the jitter sequence is identical under every simulation
    /// engine. Per-link FIFO order is preserved (the link stays a strict
    /// FIFO); reordering arises only *across* channels.
    pub fn set_perturb(&mut self, site: u64, cfg: crate::perturb::PerturbConfig) {
        self.perturb = (cfg.link_jitter > 0).then_some((site, cfg));
    }

    /// Tags this link as core `core`'s: its trace events carry that core
    /// index (default 0).
    pub fn for_core(mut self, core: usize) -> Self {
        self.core = core;
        self
    }

    /// The installed event sink, if any.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// The event-sink slot; messages entering and leaving the link emit
    /// [`TraceEvent::TlBegin`] / [`TraceEvent::TlEnd`], tagged with the
    /// link's core and channel letter, into the sink installed here.
    pub fn trace_slot(&mut self) -> &mut Option<TraceSink> {
        &mut self.trace
    }

    /// Cumulative number of messages ever pushed (metrics counter).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Cumulative number of messages ever popped (metrics counter).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Both cumulative counters at once, `(pushed, popped)` — the shape
    /// telemetry capture wants.
    pub fn counters(&self) -> (u64, u64) {
        (self.pushed, self.popped)
    }

    /// Whether a message can be pushed this cycle.
    pub fn can_push(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Enqueues `msg` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the link is full — callers must check [`Link::can_push`]
    /// first, mirroring hardware ready/valid handshakes.
    pub fn push(&mut self, now: u64, msg: T) {
        assert!(self.can_push(), "push on full link: {msg:?}");
        self.pushed += 1;
        if let Some(sink) = self.trace.as_mut() {
            let d = msg.describe();
            sink.emit(
                now,
                TraceEvent::TlBegin {
                    channel: T::channel(),
                    core: self.core,
                    opcode: d.opcode,
                    param: d.param,
                    addr: d.addr,
                },
            );
        }
        let mut start = (now + self.latency).max(self.next_free);
        if let Some((site, cfg)) = self.perturb {
            start += cfg.draw(site, self.pushed, cfg.link_jitter);
        }
        let ready = start + msg.beats() - 1;
        self.next_free = ready + 1;
        self.queue.push_back((ready, msg));
    }

    /// Removes and returns the head message if it has fully arrived by `now`.
    pub fn pop(&mut self, now: u64) -> Option<T> {
        if self.queue.front().is_some_and(|&(ready, _)| ready <= now) {
            let msg = self.queue.pop_front().map(|(_, m)| m);
            self.popped += 1;
            if let (Some(m), Some(sink)) = (msg.as_ref(), self.trace.as_mut()) {
                let d = m.describe();
                sink.emit(
                    now,
                    TraceEvent::TlEnd {
                        channel: T::channel(),
                        core: self.core,
                        opcode: d.opcode,
                        param: d.param,
                        addr: d.addr,
                    },
                );
            }
            msg
        } else {
            None
        }
    }

    /// Peeks at the head message if it has fully arrived by `now`.
    pub fn peek(&self, now: u64) -> Option<&T> {
        match self.queue.front() {
            Some(&(ready, ref m)) if ready <= now => Some(m),
            _ => None,
        }
    }

    /// Number of messages buffered (arrived or in flight).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterates over all buffered messages (in flight included), front first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queue.iter().map(|(_, m)| m)
    }

    /// The cycle at which the head message becomes poppable, if any message
    /// is buffered. Because the link is a strict FIFO, this is the earliest
    /// cycle at which the receiving side can observe any state change from
    /// this link — the link's contribution to the event-driven scheduler's
    /// next-event bound.
    pub fn next_ready(&self) -> Option<u64> {
        self.queue.front().map(|&(ready, _)| ready)
    }

    /// The link's simulated state, for snapshot encoding (see
    /// [`crate::snap`]): the arrival-stamped queue, the bandwidth cursor,
    /// and the cumulative push/pop counters.
    pub(crate) fn snap_parts(&self) -> (&VecDeque<(u64, T)>, u64, u64, u64) {
        (&self.queue, self.next_free, self.pushed, self.popped)
    }

    /// Overwrites the simulated state from decoded parts, keeping the
    /// host-side configuration (latency, capacity, trace, perturbation).
    pub(crate) fn snap_restore(
        &mut self,
        queue: VecDeque<(u64, T)>,
        next_free: u64,
        pushed: u64,
        popped: u64,
    ) -> Result<(), skipit_snap::SnapError> {
        if queue.len() > self.capacity {
            return Err(skipit_snap::SnapError::Corrupt(
                "link queue exceeds capacity",
            ));
        }
        self.queue = queue;
        self.next_free = next_free;
        self.pushed = pushed;
        self.popped = popped;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ChannelC, ChannelE, WritebackKind};
    use crate::{LineAddr, LineData, LINE_BEATS};

    fn ack(n: u64) -> ChannelE {
        ChannelE::GrantAck {
            source: 0,
            addr: LineAddr::new(n * 64),
        }
    }

    #[test]
    fn respects_latency() {
        let mut l: Link<ChannelE> = Link::new(3, 8);
        l.push(5, ack(0));
        assert!(l.pop(7).is_none());
        assert!(l.peek(8).is_some());
        assert!(l.pop(8).is_some());
        assert!(l.pop(9).is_none());
    }

    #[test]
    fn preserves_fifo_order() {
        let mut l: Link<ChannelE> = Link::new(1, 8);
        l.push(0, ack(1));
        l.push(0, ack(2));
        assert_eq!(l.pop(100), Some(ack(1)));
        assert_eq!(l.pop(100), Some(ack(2)));
        assert!(l.pop(100).is_none());
    }

    #[test]
    fn serializes_back_to_back_messages() {
        let mut l: Link<ChannelE> = Link::new(1, 8);
        l.push(0, ack(1)); // ready at 1
        l.push(0, ack(2)); // cannot also be ready at 1; ready at 2
        assert!(l.pop(1).is_some());
        assert!(l.pop(1).is_none());
        assert!(l.pop(2).is_some());
    }

    #[test]
    fn data_messages_take_line_beats() {
        let mut l: Link<ChannelC> = Link::new(0, 8);
        let msg = ChannelC::RootRelease {
            source: 0,
            addr: LineAddr::new(0),
            kind: WritebackKind::Flush,
            data: Some(LineData::zeroed()),
        };
        l.push(0, msg);
        // 4 beats starting at cycle 0 => ready at cycle 3.
        assert!(l.pop(LINE_BEATS - 2).is_none());
        assert!(l.pop(LINE_BEATS - 1).is_some());
    }

    #[test]
    fn headerless_root_release_single_beat() {
        let mut l: Link<ChannelC> = Link::new(0, 8);
        let msg = ChannelC::RootRelease {
            source: 0,
            addr: LineAddr::new(0),
            kind: WritebackKind::Clean,
            data: None,
        };
        l.push(0, msg);
        assert!(l.pop(0).is_some());
    }

    #[test]
    fn capacity_enforced() {
        let mut l: Link<ChannelE> = Link::new(1, 2);
        l.push(0, ack(0));
        l.push(0, ack(1));
        assert!(!l.can_push());
    }

    #[test]
    #[should_panic(expected = "push on full link")]
    fn push_on_full_panics() {
        let mut l: Link<ChannelE> = Link::new(1, 1);
        l.push(0, ack(0));
        l.push(0, ack(1));
    }

    #[test]
    fn next_ready_tracks_head_arrival() {
        let mut l: Link<ChannelE> = Link::new(3, 8);
        assert_eq!(l.next_ready(), None);
        l.push(5, ack(0));
        assert_eq!(l.next_ready(), Some(8));
        l.push(5, ack(1)); // serialized behind the first
        assert_eq!(l.next_ready(), Some(8), "head governs the bound");
        assert!(l.pop(8).is_some());
        assert_eq!(l.next_ready(), Some(9));
    }

    #[test]
    fn iter_sees_in_flight() {
        let mut l: Link<ChannelE> = Link::new(10, 4);
        l.push(0, ack(0));
        assert_eq!(l.iter().count(), 1);
        assert_eq!(l.len(), 1);
        assert!(!l.is_empty());
    }

    #[test]
    fn perturbed_link_is_deterministic_and_fifo() {
        use crate::perturb::{link_site, PerturbConfig};
        let cfg = PerturbConfig {
            seed: 7,
            link_jitter: 5,
            ..PerturbConfig::default()
        };
        let run = || {
            let mut l: Link<ChannelE> = Link::new(1, 32);
            l.set_perturb(link_site('E', 0), cfg);
            for i in 0..16 {
                l.push(i, ack(i));
            }
            let mut readies = Vec::new();
            while let Some(t) = l.next_ready() {
                readies.push(t);
                assert!(l.pop(t).is_some());
            }
            readies
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same (seed, site) must reproduce identical timing");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "FIFO order violated");
        // Some message must actually have been delayed beyond base timing.
        let mut base: Link<ChannelE> = Link::new(1, 32);
        for i in 0..16 {
            base.push(i, ack(i));
        }
        let mut base_readies = Vec::new();
        while let Some(t) = base.next_ready() {
            base_readies.push(t);
            assert!(base.pop(t).is_some());
        }
        assert_ne!(a, base_readies, "jitter amplitude 5 never fired");
    }

    #[test]
    fn zero_amplitude_perturbation_is_inert() {
        use crate::perturb::{link_site, PerturbConfig};
        let mut l: Link<ChannelE> = Link::new(2, 8);
        l.set_perturb(
            link_site('E', 1),
            PerturbConfig {
                seed: 99,
                ..PerturbConfig::default()
            },
        );
        l.push(0, ack(0));
        assert_eq!(l.next_ready(), Some(2), "zero amplitude must not delay");
    }
}
