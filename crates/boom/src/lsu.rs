//! The load-store unit (§3.2) with the paper's flush-unit integration.
//!
//! * Loads live in the LDQ and fire out of order as soon as their
//!   dependencies allow; they forward from older STQ stores to the same word.
//! * Stores, AMOs, `CBO.X` (§5.1) and fences live in the STQ and fire in
//!   program order from the head.
//! * A fence blocks younger loads, completes only after all older memory
//!   operations are done **and** the L1 flush counter is zero (§5.3).
//! * Where the L1 would refuse a request (a nack, §3.3), the request is
//!   held in its queue: the LSU fires through [`DataCache::offer`], which
//!   decides admission once and changes nothing on a refusal, and offers
//!   it again on a later cycle.

use crate::op::{Op, OpToken};
use crate::trace::{TraceLog, TraceRecord};
use skipit_dcache::{DataCache, DcReq, DcResp, ReqId};
use skipit_snap::HostOnly;
use skipit_tilelink::LineAddr;
use skipit_trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;

/// LDQ capacity (SonicBOOM: 32, Fig. 2).
const LDQ_DEPTH: usize = 32;

/// STQ capacity (SonicBOOM: 32, Fig. 2).
const STQ_DEPTH: usize = 32;

/// Loads fired per cycle (the LSU fires two requests per cycle, §3.2).
const FIRE_WIDTH: usize = 2;

#[derive(Clone, Copy, Debug)]
struct Entry {
    token: OpToken,
    seq: u64,
    op: Op,
    req_id: ReqId,
    fired: bool,
    done: bool,
    value: u64,
    issued_at: u64,
}

impl Entry {
    fn line(&self) -> Option<LineAddr> {
        self.op.addr().map(LineAddr::containing)
    }
}

/// One core's load-store unit.
#[derive(Debug)]
pub struct Lsu {
    stq: VecDeque<Entry>,
    ldq: VecDeque<Entry>,
    seq: u64,
    next_req: ReqId,
    finished: VecDeque<(OpToken, u64)>,
    core: usize,
    trace: Option<TraceLog>,
    /// Event sink for fence-stall begin/end events (see [`skipit_trace`]).
    events: Option<TraceSink>,
    /// The STQ head's last refusal, `(seq, L1 mutations)`: while neither
    /// moves, the L1 would refuse it again (see [`Lsu::next_event`]).
    /// Host-only, cleared on decode.
    held: HostOnly<Option<(u64, u64)>>,
    /// Whether an entry became done since the last retire; while false
    /// there is nothing to retire. Host-only, rebuilt on decode.
    retire_due: HostOnly<bool>,
}

impl Lsu {
    /// Creates an empty LSU for core `core`.
    pub fn new(core: usize) -> Self {
        Lsu {
            stq: VecDeque::with_capacity(STQ_DEPTH),
            ldq: VecDeque::with_capacity(LDQ_DEPTH),
            seq: 0,
            next_req: 0,
            finished: VecDeque::with_capacity(STQ_DEPTH + LDQ_DEPTH),
            core,
            trace: None,
            events: None,
            held: HostOnly(None),
            retire_due: HostOnly(false),
        }
    }

    /// The installed event sink, if any.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.events.as_ref()
    }

    /// The event-sink slot; fences emit [`TraceEvent::FenceStallBegin`] at
    /// enqueue and [`TraceEvent::FenceStallEnd`] when they commit into the
    /// sink installed here.
    pub fn trace_slot(&mut self) -> &mut Option<TraceSink> {
        &mut self.events
    }

    /// Starts recording per-op latencies (bounded to `capacity` records).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(TraceLog::new(capacity));
    }

    /// Stops op-latency recording and discards the log.
    pub fn disable_tracing(&mut self) {
        self.trace = None;
    }

    /// The trace log, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Clears any recorded trace.
    pub fn clear_trace(&mut self) {
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }

    /// Whether `op` can be enqueued this cycle.
    pub fn has_room(&self, op: Op) -> bool {
        if op.is_stq() {
            self.stq.len() < STQ_DEPTH
        } else {
            self.ldq.len() < LDQ_DEPTH
        }
    }

    /// Enqueues `op` under `token`. The result (when the op completes) is
    /// retrievable via [`Lsu::take_finished`].
    ///
    /// # Panics
    ///
    /// Panics on overflow (check [`Lsu::has_room`]) or on [`Op::Nop`], which
    /// is frontend-level and never enters the LSU.
    pub fn enqueue(&mut self, token: OpToken, op: Op, now: u64) {
        assert!(
            !matches!(op, Op::Nop { .. }),
            "Nop is handled by the frontend, not the LSU"
        );
        assert!(self.has_room(op), "LSU queue overflow for {op:?}");
        if op == Op::Fence {
            skipit_trace::trace!(
                self.events,
                now,
                TraceEvent::FenceStallBegin {
                    core: self.core,
                    token,
                }
            );
        }
        self.seq += 1;
        self.next_req += 1;
        let entry = Entry {
            token,
            seq: self.seq,
            op,
            req_id: self.next_req,
            fired: false,
            done: false,
            value: 0,
            issued_at: now,
        };
        if op.is_stq() {
            self.stq.push_back(entry);
        } else {
            self.ldq.push_back(entry);
        }
    }

    /// Whether both queues are empty.
    pub fn is_empty(&self) -> bool {
        self.stq.is_empty() && self.ldq.is_empty()
    }

    /// Takes the result of a completed op, if available.
    pub fn take_finished(&mut self, token: OpToken) -> Option<u64> {
        let idx = self.finished.iter().position(|&(t, _)| t == token)?;
        self.finished.remove(idx).map(|(_, v)| v)
    }

    /// Whether `token`'s result is ready for [`Lsu::take_finished`].
    pub fn has_finished(&self, token: OpToken) -> bool {
        self.finished.iter().any(|&(t, _)| t == token)
    }

    /// Discards all buffered results (program mode does not consume them).
    pub fn drain_finished(&mut self) {
        self.finished.clear();
    }

    /// Advances the LSU one cycle against its L1 cache. Returns whether an
    /// op retired: only a retire frees queue room or adds a result, the two
    /// things a frontend reads.
    pub fn step(&mut self, now: u64, l1: &mut DataCache) -> bool {
        self.collect_responses(now, l1);
        let retired = self.retire(now);
        self.commit_fence(now, l1);
        self.fire_stq_head(now, l1);
        self.fire_loads(now, l1);
        self.retire(now) || retired
    }

    fn collect_responses(&mut self, now: u64, l1: &mut DataCache) {
        while let Some(resp) = l1.pop_response(now) {
            let id = resp.id();
            let entry = self
                .stq
                .iter_mut()
                .chain(self.ldq.iter_mut())
                .find(|e| e.req_id == id);
            let Some(e) = entry else {
                panic!("response {resp:?} for unknown request {id}");
            };
            match resp {
                DcResp::LoadDone { value, .. } | DcResp::AmoDone { old: value, .. } => {
                    e.value = value;
                    e.done = true;
                }
                DcResp::StoreDone { .. } | DcResp::WritebackAccepted { .. } => {
                    e.done = true;
                }
            }
            self.retire_due.0 = true;
        }
    }

    /// Pops completed entries: the STQ retires in order from the head; loads
    /// retire as they complete. Only the STQ head ever fires, so after a
    /// retire no entry is done until the next `retire_due`. Returns whether
    /// any entry retired.
    fn retire(&mut self, now: u64) -> bool {
        if !self.retire_due.0 {
            return false;
        }
        self.retire_due.0 = false;
        let before = self.finished.len();
        while self.stq.front().is_some_and(|e| e.done) {
            let e = self.stq.pop_front().expect("nonempty");
            self.record(&e, now);
            self.finished.push_back((e.token, e.value));
        }
        let mut i = 0;
        while i < self.ldq.len() {
            if self.ldq[i].done {
                let e = self.ldq.remove(i).expect("index valid");
                self.record(&e, now);
                self.finished.push_back((e.token, e.value));
            } else {
                i += 1;
            }
        }
        self.finished.len() > before
    }

    fn record(&mut self, e: &Entry, now: u64) {
        if let Some(t) = &mut self.trace {
            t.push(TraceRecord {
                core: self.core,
                token: e.token,
                op: e.op,
                issued_at: e.issued_at,
                completed_at: now,
            });
        }
    }

    /// Fences commit only at the STQ head, with no older loads outstanding
    /// and the flush counter at zero (§5.3).
    fn commit_fence(&mut self, now: u64, l1: &DataCache) {
        let Some(head) = self.stq.front() else { return };
        if !matches!(head.op, Op::Fence) || head.done {
            return;
        }
        let token = head.token;
        if self.fence_may_commit(head.seq, l1) {
            self.stq.front_mut().expect("nonempty").done = true;
            self.retire_due.0 = true;
            skipit_trace::trace!(
                self.events,
                now,
                TraceEvent::FenceStallEnd {
                    core: self.core,
                    token,
                }
            );
        }
    }

    /// Whether the fence with sequence number `fence_seq` may commit: no
    /// older load is outstanding and the flush counter is zero (§5.3).
    fn fence_may_commit(&self, fence_seq: u64, l1: &DataCache) -> bool {
        !self.ldq.iter().any(|e| e.seq < fence_seq) && !l1.is_flushing()
    }

    fn fire_stq_head(&mut self, now: u64, l1: &mut DataCache) {
        let Some(head) = self.stq.front_mut() else {
            return;
        };
        if head.fired || head.done || matches!(head.op, Op::Fence) {
            return;
        }
        // Hold the head while the cache refuses it: the request stays
        // pending at zero cost and fires on the exact cycle the blocking
        // condition clears. Admission is a function of L1 state alone, so a
        // refusal stands until the L1 changes.
        if self.held.0 == Some((head.seq, l1.mutations())) {
            debug_assert!(
                !l1.would_accept(head.op.to_dcache().expect("STQ op lowers")),
                "held refusal flipped"
            );
            return;
        }
        let kind = head.op.to_dcache().expect("STQ op lowers to a request");
        if l1.offer(
            now,
            DcReq {
                id: head.req_id,
                kind,
            },
        ) {
            head.fired = true;
        } else {
            self.held.0 = Some((head.seq, l1.mutations()));
        }
    }

    fn fire_loads(&mut self, now: u64, l1: &mut DataCache) {
        let mut fired = 0;
        for i in 0..self.ldq.len() {
            if fired >= FIRE_WIDTH {
                break;
            }
            let e = self.ldq[i];
            if e.fired || e.done {
                continue;
            }
            match self.load_dependency(&e) {
                LoadDep::Blocked => continue,
                LoadDep::Forward(value) => {
                    let le = &mut self.ldq[i];
                    le.value = value;
                    le.done = true;
                    self.retire_due.0 = true;
                    fired += 1;
                }
                LoadDep::Clear => {
                    let kind = e.op.to_dcache().expect("load lowers");
                    // Hold the load while the cache refuses it (see
                    // fire_stq_head); a held load consumes no fire slot.
                    if !l1.offer(now, DcReq { id: e.req_id, kind }) {
                        continue;
                    }
                    self.ldq[i].fired = true;
                    fired += 1;
                }
            }
        }
    }

    /// Conservative lower bound on the next cycle at which this LSU can make
    /// progress on its own (the event-driven scheduler's contract). Waits
    /// that only an external completion can end — an in-flight L1 request, a
    /// blocked load dependency, a fence held by older loads or a nonzero
    /// flush counter — report nothing: the L1's pending responses and flush
    /// unit are evented separately, and the blocking STQ entries' own
    /// progress is evented through the head (stores retire strictly in
    /// order, so every unblocking transition happens at an evented tick).
    pub fn next_event(&self, now: u64, l1: &DataCache) -> Option<u64> {
        if self.retire_due.0 {
            return Some(now); // retire work pending
        }
        if let Some(head) = self.stq.front() {
            if matches!(head.op, Op::Fence) {
                // A fence that could commit this cycle is an event; a
                // blocked one is woken by the evented load completions /
                // flush-counter drain.
                if self.fence_may_commit(head.seq, l1) {
                    return Some(now);
                }
            } else if !head.fired
                && self.held.0 != Some((head.seq, l1.mutations()))
                && l1.would_accept(head.op.to_dcache().expect("STQ op lowers"))
            {
                // (A refusal the L1 has not mutated since is not re-asked.)
                return Some(now); // fire_stq_head fires this cycle
            }
            // Otherwise the head is held; the L1 transition that flips
            // `would_accept` is evented by the cache itself.
        }
        for e in self.ldq.iter().filter(|e| !e.fired && !e.done) {
            match self.load_dependency(e) {
                LoadDep::Blocked => {}
                LoadDep::Forward(_) => return Some(now),
                LoadDep::Clear => {
                    if l1.would_accept(e.op.to_dcache().expect("load lowers")) {
                        return Some(now);
                    }
                }
            }
        }
        None
    }

    /// Dependency check for a load against older STQ entries (§3.2): fences
    /// block all younger loads; same-line stores/AMOs/writebacks block unless
    /// an exact-word store can forward its data.
    fn load_dependency(&self, load: &Entry) -> LoadDep {
        let load_addr = load.op.addr().expect("loads have addresses");
        let load_line = LineAddr::containing(load_addr);
        let mut forward: Option<u64> = None;
        for s in self.stq.iter().filter(|s| s.seq < load.seq && !s.done) {
            match s.op {
                Op::Fence => return LoadDep::Blocked,
                Op::Store { addr, value } => {
                    if addr == load_addr {
                        forward = Some(value);
                    } else if LineAddr::containing(addr) == load_line {
                        return LoadDep::Blocked;
                    }
                }
                _ => {
                    if s.line() == Some(load_line) {
                        return LoadDep::Blocked;
                    }
                }
            }
        }
        match forward {
            Some(v) => LoadDep::Forward(v),
            None => LoadDep::Clear,
        }
    }
}

enum LoadDep {
    Blocked,
    Forward(u64),
    Clear,
}

// --- snapshot codec (DESIGN.md §11) ---

use skipit_snap::{codec, Codec, SnapError, SnapReader, SnapWriter};

codec!(Entry {
    token,
    seq,
    op,
    req_id,
    fired,
    done,
    value,
    issued_at,
});

impl Lsu {
    /// Encodes the LSU's simulated state: both queues, the sequence and
    /// request-id allocators, and buffered results. Config, core index and
    /// the trace facilities are host-side and excluded.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(0x55);
        self.stq.encode(w);
        self.ldq.encode(w);
        self.seq.encode(w);
        self.next_req.encode(w);
        self.finished.encode(w);
    }

    /// Overwrites the LSU's simulated state from `r` (the inverse of
    /// [`Lsu::encode_state`]).
    pub fn decode_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(0x55, "lsu section")?;
        let stq = VecDeque::<Entry>::decode(r)?;
        let ldq = VecDeque::<Entry>::decode(r)?;
        if stq.len() > STQ_DEPTH || ldq.len() > LDQ_DEPTH {
            return Err(SnapError::Corrupt("lsu queue exceeds depth"));
        }
        self.stq = stq;
        self.ldq = ldq;
        self.seq = u64::decode(r)?;
        self.next_req = ReqId::decode(r)?;
        self.finished = VecDeque::decode(r)?;
        self.held.0 = None;
        self.retire_due.0 = self.stq.iter().chain(&self.ldq).any(|e| e.done);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipit_dcache::L1Config;

    fn lsu() -> Lsu {
        Lsu::new(0)
    }

    /// Test bench: the LSU against a real L1 backed by a trivial always-
    /// grant L2, with a persistent clock.
    struct Bench {
        q: Lsu,
        l1: DataCache,
        a: skipit_tilelink::Link<skipit_tilelink::ChannelA>,
        b: skipit_tilelink::Link<skipit_tilelink::ChannelB>,
        c: skipit_tilelink::Link<skipit_tilelink::ChannelC>,
        d: skipit_tilelink::Link<skipit_tilelink::ChannelD>,
        e: skipit_tilelink::Link<skipit_tilelink::ChannelE>,
        now: u64,
    }

    impl Bench {
        fn new() -> Self {
            use skipit_tilelink::Link;
            Bench {
                q: lsu(),
                l1: DataCache::new(0, L1Config::default()),
                a: Link::new(1, 8),
                b: Link::new(1, 8),
                c: Link::new(1, 8),
                d: Link::new(1, 8),
                e: Link::new(1, 8),
                now: 0,
            }
        }

        fn run(&mut self, cycles: u64) {
            use skipit_tilelink::*;
            for _ in 0..cycles {
                let now = self.now;
                {
                    let mut ports = skipit_dcache::L1Ports {
                        a: &mut self.a,
                        b: &mut self.b,
                        c: &mut self.c,
                        d: &mut self.d,
                        e: &mut self.e,
                    };
                    self.l1.step(now, &mut ports);
                }
                while let Some(ChannelA::AcquireBlock { addr, grow, .. }) = self.a.pop(now) {
                    self.d.push(
                        now,
                        ChannelD::Grant {
                            target: 0,
                            addr,
                            is_trunk: grow.wants_write(),
                            data: LineData::zeroed(),
                            flavor: GrantFlavor::Clean,
                        },
                    );
                }
                while let Some(m) = self.c.pop(now) {
                    match m {
                        ChannelC::Release { addr, .. } => self.d.push(
                            now,
                            ChannelD::ReleaseAck {
                                target: 0,
                                addr,
                                root: false,
                            },
                        ),
                        ChannelC::RootRelease { addr, .. } => self.d.push(
                            now,
                            ChannelD::ReleaseAck {
                                target: 0,
                                addr,
                                root: true,
                            },
                        ),
                        ChannelC::ProbeAck { .. } => {}
                    }
                }
                while self.e.pop(now).is_some() {}
                self.q.step(now, &mut self.l1);
                self.now += 1;
            }
        }
    }

    #[test]
    fn store_then_load_same_word_forwards() {
        let mut b = Bench::new();
        b.q.enqueue(
            1,
            Op::Store {
                addr: 0x100,
                value: 7,
            },
            b.now,
        );
        b.q.enqueue(2, Op::Load { addr: 0x100 }, b.now);
        b.run(50);
        assert_eq!(b.q.take_finished(2), Some(7));
        assert!(b.q.is_empty());
    }

    #[test]
    fn load_blocked_by_same_line_writeback_until_buffered() {
        let mut b = Bench::new();
        b.q.enqueue(
            1,
            Op::Store {
                addr: 0x200,
                value: 1,
            },
            b.now,
        );
        b.run(50);
        b.q.enqueue(2, Op::Flush { addr: 0x200 }, b.now);
        b.q.enqueue(3, Op::Load { addr: 0x208 }, b.now);
        b.run(200);
        assert_eq!(b.q.take_finished(3), Some(0));
        assert!(b.q.is_empty());
    }

    #[test]
    fn fence_waits_for_flush_counter() {
        let mut b = Bench::new();
        b.q.enqueue(
            1,
            Op::Store {
                addr: 0x300,
                value: 5,
            },
            b.now,
        );
        b.q.enqueue(2, Op::Clean { addr: 0x300 }, b.now);
        b.q.enqueue(3, Op::Fence, b.now);
        // The clean must commit at buffering time (while the FSHR is still
        // working — l1.is_flushing()), and the fence only after the flush
        // counter drains: clean_done < flushing_end <= fence_done.
        let mut clean_done = None;
        let mut fence_done = None;
        let mut flushing_end = None;
        let mut was_flushing = false;
        for t in 0..400 {
            b.run(1);
            if b.l1.is_flushing() {
                was_flushing = true;
            } else if was_flushing && flushing_end.is_none() {
                flushing_end = Some(t);
            }
            if clean_done.is_none() && b.q.take_finished(2).is_some() {
                clean_done = Some(t);
            }
            if fence_done.is_none() && b.q.take_finished(3).is_some() {
                fence_done = Some(t);
            }
        }
        let clean_done = clean_done.expect("clean completed");
        let fence_done = fence_done.expect("fence completed");
        let flushing_end = flushing_end.expect("flush counter drained");
        assert!(
            clean_done < flushing_end,
            "clean must commit at buffering, before the writeback finishes \
             (clean {clean_done}, drain {flushing_end})"
        );
        assert!(
            fence_done >= flushing_end,
            "fence must wait for the flush counter (fence {fence_done}, \
             drain {flushing_end})"
        );
    }

    #[test]
    fn loads_after_fence_wait() {
        let mut b = Bench::new();
        b.q.enqueue(
            1,
            Op::Store {
                addr: 0x400,
                value: 9,
            },
            b.now,
        );
        b.q.enqueue(2, Op::Fence, b.now);
        b.q.enqueue(3, Op::Load { addr: 0x500 }, b.now);
        b.run(3);
        assert!(
            b.q.take_finished(3).is_none(),
            "load must not complete while the fence is pending"
        );
        b.run(300);
        assert!(b.q.take_finished(2).is_some());
        assert_eq!(b.q.take_finished(3), Some(0));
    }

    #[test]
    fn independent_loads_fire_out_of_order() {
        let mut b = Bench::new();
        // Warm one line so the second load (to the warm line) completes
        // before the first (cold) one.
        b.q.enqueue(
            1,
            Op::Store {
                addr: 0x600,
                value: 3,
            },
            b.now,
        );
        b.run(100);
        b.q.drain_finished();
        b.q.enqueue(2, Op::Load { addr: 0x700 }, b.now); // cold
        b.q.enqueue(3, Op::Load { addr: 0x600 }, b.now); // warm
        b.run(6);
        assert!(b.q.take_finished(2).is_none());
        assert_eq!(b.q.take_finished(3), Some(3), "warm load completes first");
        b.run(200);
        assert_eq!(b.q.take_finished(2), Some(0));
    }

    #[test]
    #[should_panic(expected = "Nop is handled by the frontend")]
    fn nop_rejected() {
        lsu().enqueue(1, Op::Nop { cycles: 1 }, 0);
    }

    #[test]
    fn has_room_tracks_depths() {
        let mut q = lsu();
        for tok in 0..STQ_DEPTH as u64 {
            assert!(q.has_room(Op::Fence));
            q.enqueue(tok, Op::Fence, 0);
        }
        assert!(!q.has_room(Op::Store { addr: 0, value: 0 }));
        assert!(q.has_room(Op::Load { addr: 0 }));
        for tok in 0..LDQ_DEPTH as u64 {
            assert!(q.has_room(Op::Load { addr: 0 }));
            q.enqueue(STQ_DEPTH as u64 + tok, Op::Load { addr: 0x40 }, 0);
        }
        assert!(!q.has_room(Op::Load { addr: 0 }));
        assert!(!q.has_room(Op::Fence));
    }
}
