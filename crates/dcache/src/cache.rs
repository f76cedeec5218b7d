//! The L1 data cache proper: front-end request handling, MSHRs, writeback
//! unit, probe unit, and orchestration of the flush unit.
//!
//! The request-acceptance rules implement §3.3 (MSHR secondary-request
//! permissions, nacks) and §5.3 (loads/stores/fences against pending
//! writebacks); [`DataCache::step`] wires the units together with the
//! `probe_rdy` / `flush_rdy` / `wb_rdy` interlocks of §5.4.
//!
//! One deliberate, documented strengthening relative to the paper's text: a
//! `CBO.X` presented while an MSHR is in flight for the same line is nacked.
//! The flush queue snapshots line metadata at enqueue time, and an in-flight
//! MSHR (e.g. a committed store still waiting for its refill, which BOOM
//! already counts as complete, §3.3) would make that snapshot unreliable in a
//! way none of the paper's three interference mechanisms (§5.4) covers. The
//! LSU holds the request until the cache would accept it, exactly as it
//! does for a full flush queue.

use crate::config::L1Config;
use crate::flush::{FlushEntry, FlushUnit};
use crate::meta::MetaEntry;
use crate::req::{AmoOp, DcReq, DcReqKind, DcResp, ReqOutcome};
use crate::stats::L1Stats;
use skipit_tilelink::array::SetAssocArray;
use skipit_tilelink::slots::{SlotFile, SlotState, Slots};
use skipit_tilelink::{
    AgentId, ChannelA, ChannelB, ChannelC, ChannelD, ChannelE, ClientState, GrantFlavor, Grow,
    LineAddr, LineData, Link, Shrink,
};
use skipit_trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;

/// Cycles from accepting a hitting request to its response.
const HIT_LATENCY: u64 = 3;

/// Lower-case `CBO.X` kind name for trace events.
fn wb_kind_name(kind: skipit_tilelink::WritebackKind) -> &'static str {
    match kind {
        skipit_tilelink::WritebackKind::Clean => "clean",
        skipit_tilelink::WritebackKind::Flush => "flush",
        skipit_tilelink::WritebackKind::Inval => "inval",
    }
}

/// Clears `m`'s skip bit (§6.2) and traces the clear, if it was set.
pub(crate) fn clear_skip(
    sink: &mut Option<TraceSink>,
    now: u64,
    core: AgentId,
    addr: LineAddr,
    m: &mut MetaEntry,
    why: &'static str,
) {
    if std::mem::take(&mut m.skip) {
        let addr = addr.base();
        skipit_trace::trace!(sink, now, TraceEvent::SkipBitClear { core, addr, why });
    }
}

/// The five TileLink channel endpoints the cache drives each cycle.
///
/// The `System` owns the links; the cache borrows them per [`DataCache::step`]
/// call.
#[derive(Debug)]
pub struct L1Ports<'a> {
    /// Channel A (to L2): Acquires.
    pub a: &'a mut Link<ChannelA>,
    /// Channel B (from L2): Probes.
    pub b: &'a mut Link<ChannelB>,
    /// Channel C (to L2): ProbeAcks, Releases, RootReleases.
    pub c: &'a mut Link<ChannelC>,
    /// Channel D (from L2): Grants, ReleaseAcks.
    pub d: &'a mut Link<ChannelD>,
    /// Channel E (to L2): GrantAcks.
    pub e: &'a mut Link<ChannelE>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum MshrState {
    #[default]
    Free,
    /// Waiting for the writeback unit to take the victim line (§5.4.2: held
    /// while `flush_rdy` is low or the WBU is busy).
    EvictWait,
    /// Waiting for channel A to accept the Acquire.
    SendAcquire,
    /// Acquire sent; waiting for the Grant on channel D.
    WaitGrant,
    /// Grant received and installed; replaying the RPQ one entry per cycle.
    Replay,
    /// RPQ drained; waiting for channel E to accept the GrantAck.
    SendGrantAck,
}

#[derive(Debug, Default)]
struct Mshr {
    state: MshrState,
    addr: LineAddr,
    way: usize,
    /// Primary request needs write (Trunk) permission.
    write: bool,
    rpq: VecDeque<DcReq>,
}

/// MSHR class `acting`: not `Free` or `WaitGrant` (class 0, `live`: not `Free`).
const ACTING: usize = 1;

impl SlotState for Mshr {
    type State = MshrState;
    const CLASSES: &'static [&'static str] = &["l1 mshr live", "l1 mshr acting"];
    fn classes(&self) -> u32 {
        let acting = !matches!(self.state, MshrState::Free | MshrState::WaitGrant);
        u32::from(self.state != MshrState::Free) | u32::from(acting) << ACTING
    }
    fn set_state(&mut self, state: MshrState) {
        self.state = state;
    }
}

#[derive(Debug)]
struct WbJob {
    addr: LineAddr,
    data: Option<LineData>,
    shrink: Shrink,
    sent: bool,
}

#[derive(Debug, Default)]
struct Wbu {
    job: Option<WbJob>,
}

impl Wbu {
    /// The `wb_rdy` signal: the WBU can accept a victim.
    fn ready(&self) -> bool {
        self.job.is_none()
    }
}

#[derive(Debug, Default)]
enum ProbePhase {
    #[default]
    Idle,
    /// Cycle 1: invalidate matching flush-queue entries (§5.4.1).
    Invalidate(ChannelB),
    /// Cycle 2+: wait for `flush_rdy` / `wb_rdy`, then perform the downgrade
    /// and send the ProbeAck.
    Waiting(ChannelB),
}

/// The path a request takes through [`DataCache::try_request`], as decided
/// by [`DataCache::admit`].
#[derive(Clone, Copy, Debug)]
enum Admit {
    /// Refused (a nack): a queue is full or a §3.3 / §5.3 rule forbids the
    /// access this cycle.
    Refuse,
    /// Skip It (§6.1): the line is persisted; drop the writeback.
    SkipDrop,
    /// A queued same-kind request for the line absorbs this one (§5.3).
    Coalesce,
    /// The queued other-kind entry at this flush-queue index absorbs this
    /// one (cross-kind coalescing).
    CrossCoalesce(usize),
    /// Buffer in the flush queue with the line's hit/dirty snapshot.
    Enqueue { hit: bool, dirty: bool },
    /// Load hit in this way.
    LoadHit(usize),
    /// Load forwarded this word from a filled FSHR data buffer (§5.3).
    FshrForward(u64),
    /// Store or AMO hit on a writable line in this way.
    WriteHit(usize),
    /// Join this MSHR's replay queue as a secondary request (§3.3).
    Secondary(usize),
    /// Allocate MSHR `slot` for the line in `way`.
    Primary { slot: usize, way: usize },
}

/// A BOOM-style L1 data cache with the paper's flush unit and Skip It.
///
/// # Example
///
/// A store hit followed by a `CBO.CLEAN` buffered by the flush unit:
///
/// ```
/// use skipit_dcache::{DataCache, L1Config, DcReq, ReqOutcome};
/// use skipit_dcache::req::DcReqKind;
/// use skipit_tilelink::WritebackKind;
///
/// let mut l1 = DataCache::new(0, L1Config::default());
/// let out = l1.try_request(0, DcReq { id: 1, kind: DcReqKind::Writeback {
///     addr: 0x1000, kind: WritebackKind::Clean } });
/// assert_eq!(out, ReqOutcome::Accepted); // buffered; instruction may commit
/// assert!(l1.is_flushing());
/// ```
///
/// A `DataCache` communicates with its neighbors only through the
/// [`L1Ports`] links passed into [`DataCache::step`] — it holds no shared
/// references into other components, so a whole system (L1s included)
/// can move to another host thread, which the assertion below keeps
/// honest at compile time.
#[derive(Debug)]
pub struct DataCache {
    cfg: L1Config,
    core: AgentId,
    arrays: SetAssocArray<MetaEntry>,
    mshrs: SlotFile<Mshr>,
    wbu: Wbu,
    probe: ProbePhase,
    flush: FlushUnit,
    resp: VecDeque<(u64, DcResp)>,
    stats: L1Stats,
    /// Event sink for front-end, MSHR, and skip-bit events; the flush unit
    /// carries its own sink for FSHR FSM transitions.
    sink: Option<TraceSink>,
}

/// Parallel-stepping audit: the L1 (trace sink and perturbation state
/// included) must be movable to whichever host thread owns its slot.
#[allow(dead_code)]
fn _assert_l1_send() {
    fn send<T: Send>() {}
    send::<DataCache>();
}

impl DataCache {
    /// Creates a cache for agent `core` with configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`L1Config::validate`].
    pub fn new(core: AgentId, cfg: L1Config) -> Self {
        cfg.validate();
        DataCache {
            core,
            arrays: SetAssocArray::new(cfg.sets, cfg.ways),
            mshrs: SlotFile::new(cfg.mshrs),
            wbu: Wbu::default(),
            probe: ProbePhase::Idle,
            flush: FlushUnit::new(cfg.flush_queue_depth, cfg.fshrs),
            resp: VecDeque::with_capacity(16),
            stats: L1Stats::default(),
            sink: None,
            cfg,
        }
    }

    /// The installed event sinks, if any: this cache's own (front-end,
    /// MSHR, flush-queue and skip-bit events), then the flush unit's (FSHR
    /// FSM transitions and ack-time skip-bit sets).
    pub fn trace_sinks(&self) -> [Option<&TraceSink>; 2] {
        [self.sink.as_ref(), self.flush.trace_sink()]
    }

    /// The two event-sink slots, in [`DataCache::trace_sinks`] order.
    pub fn trace_slots(&mut self) -> [&mut Option<TraceSink>; 2] {
        [&mut self.sink, self.flush.trace_slot()]
    }

    /// Installs seeded flush-dispatch jitter (adversarial exploration; see
    /// [`skipit_tilelink::perturb`]). The site key is derived from this
    /// cache's core id, so every core draws an independent sequence.
    pub fn set_perturb(&mut self, cfg: skipit_tilelink::PerturbConfig) {
        self.flush
            .set_perturb(skipit_tilelink::perturb::flush_site(self.core), cfg);
    }

    /// Read-only view of the flush unit (invariant oracles, tests): queue
    /// occupancy, FSHR states and data buffers, flush counter.
    pub fn flush_unit(&self) -> &FlushUnit {
        &self.flush
    }

    /// The `flushing` signal for fences (§5.3): true while any `CBO.X` is
    /// pending in the flush queue or an FSHR.
    pub fn is_flushing(&self) -> bool {
        self.flush.is_flushing()
    }

    /// Cumulative event counters.
    pub fn stats(&self) -> L1Stats {
        self.stats
    }

    /// MSHRs currently mid-transaction (telemetry gauge).
    pub fn mshr_occupancy(&self) -> usize {
        self.mshrs.occupancy()
    }

    /// FSHRs currently executing a writeback (telemetry gauge).
    pub fn fshr_occupancy(&self) -> usize {
        self.flush.fshr_occupancy()
    }

    /// Requests buffered in the flush queue (telemetry gauge).
    pub fn flush_queue_depth(&self) -> usize {
        self.flush.queue_len()
    }

    /// Configuration this cache was built with.
    pub fn config(&self) -> &L1Config {
        &self.cfg
    }

    /// Whether the cache has no in-flight work (tests / quiesce detection).
    pub fn is_quiescent(&self) -> bool {
        self.mshrs.occupancy() == 0
            && self.wbu.ready()
            && matches!(self.probe, ProbePhase::Idle)
            && !self.flush.is_flushing()
    }

    /// Checks the MSHR and FSHR masks and the flush queue's line index
    /// against scans (the invariant oracle's `slot_masks` rule).
    pub fn check_slot_masks(&self) -> Result<(), String> {
        self.mshrs.check_masks()?;
        self.flush.check_slot_masks()
    }

    /// Direct read of a resident word (test/debug helper; `None` on miss).
    pub fn peek_word(&self, addr: u64) -> Option<u64> {
        let line = LineAddr::containing(addr);
        let way = self.arrays.lookup(line)?;
        let set = self.arrays.set_index(line);
        Some(self.arrays.line(set, way).word(LineAddr::word_index(addr)))
    }

    /// Coherence state of a line (test/debug helper).
    pub fn peek_state(&self, addr: u64) -> ClientState {
        let line = LineAddr::containing(addr);
        match self.arrays.lookup(line) {
            Some(way) => self.arrays.meta(self.arrays.set_index(line), way).state,
            None => ClientState::Invalid,
        }
    }

    /// Snapshot of every valid line: `(line, state, skip)` — used by
    /// invariant checkers.
    pub fn resident_lines(&self) -> Vec<(LineAddr, ClientState, bool)> {
        self.arrays
            .iter_valid()
            .map(|(_, _, addr, m)| (addr, m.state, m.skip))
            .collect()
    }

    /// Skip bit of a line (test/debug helper; `false` on miss).
    pub fn peek_skip(&self, addr: u64) -> bool {
        let line = LineAddr::containing(addr);
        match self.arrays.lookup(line) {
            Some(way) => self.arrays.meta(self.arrays.set_index(line), way).skip,
            None => false,
        }
    }

    /// Pops the next response that is ready at cycle `now`.
    pub fn pop_response(&mut self, now: u64) -> Option<DcResp> {
        let idx = self.resp.iter().position(|&(ready, _)| ready <= now)?;
        self.resp.remove(idx).map(|(_, r)| r)
    }

    /// Whether the probe unit is idle (the `probe_rdy` signal, §5.4.1). The
    /// scheduler gates channel B head events on this: a probe sitting at the
    /// head of B is consumed only while the unit is idle.
    pub fn probe_rdy(&self) -> bool {
        matches!(self.probe, ProbePhase::Idle)
    }

    /// Conservative lower bound on the next cycle at which this cache can
    /// change state on its own (the event-driven scheduler's contract): the
    /// earliest pending-response delivery, or `now` whenever any internal
    /// unit would actually make progress this cycle.
    ///
    /// `a_rdy`/`c_rdy`/`e_rdy` say whether the outbound channel A/C/E links
    /// have room. A sender blocked on a full link is *not* an event: the
    /// consumer's pop that frees the slot is evented through that link's
    /// head, and the L2 drains C and E greedily before the L1s step, so a
    /// slot freed at cycle `t` is usable at `t`. States that only a TileLink
    /// arrival can advance (`WaitGrant`, a sent-but-unacked writeback,
    /// `WaitAck` FSHRs) report nothing — the scheduler events the channel D
    /// link separately.
    pub fn next_event(&self, now: u64, a_rdy: bool, c_rdy: bool, e_rdy: bool) -> Option<u64> {
        let probe_rdy = matches!(self.probe, ProbePhase::Idle);
        let wb_rdy = self.wbu.ready();
        let flush_rdy = self.flush.flush_rdy();
        for i in Slots(self.mshrs.mask(ACTING)) {
            let m = &self.mshrs[i];
            match m.state {
                MshrState::Free | MshrState::WaitGrant => unreachable!("MSHR {i} not acting"),
                MshrState::EvictWait => {
                    // Held by the §5.4.2 interlocks; while they are low the
                    // unit holding them low reports its own work below.
                    if flush_rdy && wb_rdy {
                        return Some(now);
                    }
                }
                MshrState::SendAcquire => {
                    if a_rdy {
                        return Some(now);
                    }
                }
                MshrState::Replay => return Some(now),
                MshrState::SendGrantAck => {
                    // A secondary request in the RPQ flips the MSHR back to
                    // Replay this cycle even when channel E is full.
                    if e_rdy || !m.rpq.is_empty() {
                        return Some(now);
                    }
                }
            }
        }
        match &self.probe {
            ProbePhase::Idle => {}
            // The invalidate half-cycle always progresses.
            ProbePhase::Invalidate(_) => return Some(now),
            ProbePhase::Waiting(ChannelB::Probe { addr, .. }) => {
                // Every blocking input is evented on its own (FSHRs above,
                // WBU via channel D, replaying MSHRs above, channel C via
                // the L2 drain).
                if self.probe_may_downgrade(*addr, c_rdy) {
                    return Some(now);
                }
            }
        }
        if c_rdy && self.wbu.job.as_ref().is_some_and(|j| !j.sent) {
            return Some(now);
        }
        if self.flush.has_work(probe_rdy, wb_rdy, c_rdy) {
            return Some(now);
        }
        let mut next: Option<u64> = None;
        for &(ready, _) in &self.resp {
            if ready <= now {
                return Some(now);
            }
            next = Some(next.map_or(ready, |n: u64| n.min(ready)));
        }
        next
    }

    fn respond(&mut self, ready: u64, resp: DcResp) {
        self.resp.push_back((ready, resp));
    }

    /// Whether [`DataCache::try_request`] would accept `kind` this cycle.
    /// The LSU holds a request at its queue head while this is false
    /// instead of re-offering it: every transition that can flip the
    /// answer is an L1 state change, which the event-driven scheduler
    /// already observes, so a held head needs no self-event.
    pub fn would_accept(&self, kind: DcReqKind) -> bool {
        !matches!(self.admit(kind), Admit::Refuse)
    }

    /// A count that moves whenever the answer of
    /// [`DataCache::would_accept`] may have changed: a refusal seen at one
    /// value holds for the same request while the count stays put.
    /// Admission reads only the configuration, the array's tags, metadata
    /// and LRU stamps, the MSHRs and the flush unit's queue and FSHRs, and
    /// each of those counts its own writes, so their sum moves on every
    /// write that can matter. Not simulated state: no snapshot carries it
    /// and its value means nothing across caches.
    pub fn mutations(&self) -> u64 {
        self.arrays.changes() + self.mshrs.changes() + self.flush.changes()
    }

    /// The one admission decision: the path `kind` takes this cycle, or
    /// [`Admit::Refuse`]. It emits no trace event and changes no stat, so
    /// [`DataCache::would_accept`] can ask it for the LSU and the wheel's
    /// due bounds (DESIGN.md §8); [`DataCache::offer`] acts on it.
    fn admit(&self, kind: DcReqKind) -> Admit {
        let line = LineAddr::containing(kind.addr());
        let set = self.arrays.set_index(line);
        match kind {
            DcReqKind::Writeback { kind, .. } => {
                // See module docs: metadata snapshots cannot be kept
                // consistent across an in-flight MSHR refill for the line.
                if self.mshrs_on(line).next().is_some() {
                    return Admit::Refuse;
                }
                let (hit, dirty, skip) = match self.arrays.lookup(line) {
                    Some(way) => {
                        let m = self.arrays.meta(set, way);
                        (true, m.state.is_dirty(), m.skip)
                    }
                    None => (false, false, false),
                };
                // Skip It (§6.1): hit ∧ ¬dirty ∧ skip ⇒ the line is
                // persisted; drop the request before it ever enters the
                // flush queue. CBO.INVAL is never droppable — its local
                // invalidation is architecturally required even when the
                // line is persisted.
                if self.cfg.skip_it && hit && !dirty && skip && kind.writes_back() {
                    return Admit::SkipDrop;
                }
                if self.flush.can_coalesce(line, kind) {
                    return Admit::Coalesce;
                }
                // Cross-kind coalescing — the future work §5.3 names, behind
                // a config switch (off reproduces the paper's hardware).
                if self.cfg.cross_kind_coalescing {
                    if let Some(idx) = self.flush.cross_kind_partner(line, kind) {
                        return Admit::CrossCoalesce(idx);
                    }
                }
                if self.flush.queue_full() {
                    Admit::Refuse
                } else {
                    Admit::Enqueue { hit, dirty }
                }
            }
            DcReqKind::Load { addr } => {
                // A write MSHR on this line holds newer data than the
                // (possibly still readable, stale Shared) array copy: the
                // load must order behind it through the replay queue (§3.3's
                // stronger-than-RVWMO same-line ordering).
                if self
                    .mshrs_on(line)
                    .any(|m| m.write && m.state != MshrState::SendGrantAck)
                {
                    return self.admit_miss(line, false);
                }
                if let Some(way) = self.arrays.lookup(line) {
                    // Load hits proceed even against pending flush requests:
                    // a hit changes no line state (§5.3).
                    if self.arrays.meta(set, way).state.can_read() {
                        return Admit::LoadHit(way);
                    }
                }
                // Miss: FSHR forwarding (§5.3) — a filled data buffer serves
                // the load directly; an unfilled one postpones it.
                if let Some(fshr) = self.flush.fshr_for(line) {
                    return match fshr.buffer {
                        Some(buf) => Admit::FshrForward(buf.word(LineAddr::word_index(addr))),
                        None => Admit::Refuse,
                    };
                }
                // A queued flush entry's metadata snapshot must not be
                // invalidated by our own miss handling (§5.3).
                if self.flush.queued_entry(line).is_some() {
                    return Admit::Refuse;
                }
                self.admit_miss(line, false)
            }
            DcReqKind::Store { .. } | DcReqKind::Amo { .. } => {
                // The §5.3 store rules against pending writebacks. Every FSHR
                // active on the line must permit the store, not just the
                // first one in scan order: a line can occupy several FSHRs at
                // once (e.g. a missed CBO.CLEAN still awaiting its ack plus a
                // just-dispatched CBO.FLUSH), and a disallowed flush shadowed
                // behind an allowed clean must still block the store —
                // otherwise the refilled line is later invalidated at the L2
                // by the stale flush's RootRelease while the L1 holds it
                // dirty, breaking inclusion.
                if self.flush.queued_entry(line).is_some() || self.flush.fshr_blocks_store(line) {
                    return Admit::Refuse;
                }
                if self.mshr_orders_line(line) {
                    return self.admit_miss(line, true);
                }
                if let Some(way) = self.arrays.lookup(line) {
                    if self.arrays.meta(set, way).state.can_write() {
                        return Admit::WriteHit(way);
                    }
                }
                // Miss or upgrade: the request becomes MSHR traffic.
                self.admit_miss(line, true)
            }
        }
    }

    /// The MSHR half of [`DataCache::admit`]: join the line's MSHR as a
    /// secondary request, or allocate a free MSHR and a way.
    fn admit_miss(&self, line: LineAddr, write: bool) -> Admit {
        // Secondary request (§3.3): permissions required must not exceed the
        // primary's — "if the MSHR was allocated as a result of a load, it
        // is unable to accept a store as a secondary request" — and the
        // replay queue must have room.
        if let Some(slot) = Slots(self.mshrs.occupied()).find(|&i| self.mshrs[i].addr == line) {
            let m = &self.mshrs[slot];
            return if (write && !m.write) || m.rpq.len() >= self.cfg.rpq_depth {
                Admit::Refuse
            } else {
                Admit::Secondary(slot)
            };
        }
        // No free MSHR refuses before any array access: a held LSU head
        // asks this every cycle while the file is full.
        let Some(slot) = self.mshrs.first_free(0) else {
            return Admit::Refuse;
        };
        // Upgrade in place if the line is already resident (Shared); fresh
        // victim otherwise.
        match self
            .arrays
            .lookup(line)
            .or_else(|| self.arrays.victim_way(line))
        {
            Some(way) => Admit::Primary { slot, way },
            None => Admit::Refuse,
        }
    }

    /// Presents one LSU request to the cache. See [`ReqOutcome`] for the
    /// accept/nack contract; accepted requests answer through
    /// [`DataCache::pop_response`]. A refusal counts a nack.
    pub fn try_request(&mut self, now: u64, req: DcReq) -> ReqOutcome {
        if self.offer(now, req) {
            ReqOutcome::Accepted
        } else {
            self.stats.nacks += 1;
            ReqOutcome::Nack
        }
    }

    /// Decides admission once and acts on it: an accepted request takes
    /// its path and answers through [`DataCache::pop_response`] (returns
    /// `true`); a refused one changes nothing, not even the nack count
    /// (returns `false`). The LSU fires through this, so the decision it
    /// holds a request on and the one the cache acts on are the same call.
    pub fn offer(&mut self, now: u64, req: DcReq) -> bool {
        let path = self.admit(req.kind);
        if matches!(path, Admit::Refuse) {
            return false;
        }
        let id = req.id;
        let line = LineAddr::containing(req.kind.addr());
        let set = self.arrays.set_index(line);
        match (path, req.kind) {
            (Admit::SkipDrop, _) => {
                self.stats.writebacks_skipped += 1;
                skipit_trace::trace!(
                    self.sink,
                    now,
                    TraceEvent::WritebackDropped {
                        core: self.core,
                        addr: line.base(),
                    }
                );
                self.respond(now + 1, DcResp::WritebackAccepted { id });
            }
            (Admit::Coalesce | Admit::CrossCoalesce(_), DcReqKind::Writeback { kind, .. }) => {
                if let Admit::CrossCoalesce(idx) = path {
                    self.flush.cross_kind_absorb(idx, kind);
                }
                self.stats.writebacks_coalesced += 1;
                skipit_trace::trace!(
                    self.sink,
                    now,
                    TraceEvent::FlushCoalesce {
                        core: self.core,
                        addr: line.base(),
                        kind: wb_kind_name(kind),
                    }
                );
                self.respond(now + 1, DcResp::WritebackAccepted { id });
            }
            (Admit::Enqueue { hit, dirty }, DcReqKind::Writeback { kind, .. }) => {
                self.flush.enqueue(FlushEntry {
                    addr: line,
                    is_hit: hit,
                    is_dirty: dirty,
                    kind,
                });
                self.stats.writebacks_enqueued += 1;
                skipit_trace::trace!(
                    self.sink,
                    now,
                    TraceEvent::FlushEnqueue {
                        core: self.core,
                        addr: line.base(),
                        kind: wb_kind_name(kind),
                    }
                );
                self.respond(now + 1, DcResp::WritebackAccepted { id });
            }
            (Admit::LoadHit(way), DcReqKind::Load { addr }) => {
                let value = self.arrays.line(set, way).word(LineAddr::word_index(addr));
                self.arrays.touch(set, way);
                self.stats.loads += 1;
                self.stats.load_hits += 1;
                self.respond(now + HIT_LATENCY, DcResp::LoadDone { id, value });
            }
            (Admit::FshrForward(value), _) => {
                self.stats.loads += 1;
                self.stats.load_fshr_forwards += 1;
                self.respond(now + HIT_LATENCY, DcResp::LoadDone { id, value });
            }
            (Admit::WriteHit(way), DcReqKind::Store { addr, value }) => {
                self.write_word(now, way, addr, value, "store");
                self.arrays.touch(set, way);
                self.stats.stores += 1;
                self.stats.store_hits += 1;
                self.respond(now + HIT_LATENCY, DcResp::StoreDone { id });
            }
            (Admit::WriteHit(way), DcReqKind::Amo { .. }) => {
                let old = self.execute_amo(now, line, way, req);
                self.stats.amos += 1;
                self.respond(now + HIT_LATENCY, DcResp::AmoDone { id, old });
            }
            (Admit::Secondary(slot), _) => {
                self.mshrs.slot_mut(slot).rpq.push_back(req);
                self.stats.mshr_secondaries += 1;
                self.count_buffered(now, req);
            }
            (Admit::Primary { slot, way }, _) => {
                self.allocate_mshr(now, req, line, slot, way);
                self.count_buffered(now, req);
            }
            (path, kind) => unreachable!("admission path {path:?} for {kind:?}"),
        }
        true
    }

    /// Whether an MSHR on `line` may still hold buffered (unreplayed)
    /// requests — in which case *all* new same-line traffic must order
    /// through its replay queue, or a held young op could slip ahead of an
    /// older buffered one.
    fn mshr_orders_line(&self, line: LineAddr) -> bool {
        self.mshrs_on(line)
            .any(|m| m.state != MshrState::SendGrantAck)
    }

    /// The live MSHRs holding `line`, lowest slot first.
    fn mshrs_on(&self, line: LineAddr) -> impl Iterator<Item = &Mshr> {
        self.mshrs.live().filter(move |m| m.addr == line)
    }

    /// Traces `n` flush-queue entries for `addr` invalidated by a probe or
    /// an eviction (`by`), if any were.
    fn note_invalidated(&mut self, now: u64, addr: LineAddr, n: u64, by: &'static str) {
        if n > 0 {
            let (core, addr) = (self.core, addr.base());
            skipit_trace::trace!(
                self.sink,
                now,
                TraceEvent::FlushInvalidate { core, addr, by }
            );
        }
    }

    /// Applies an AMO to a resident, writable line; returns the old value.
    fn execute_amo(&mut self, now: u64, line: LineAddr, way: usize, req: DcReq) -> u64 {
        let DcReqKind::Amo { addr, op, operand } = req.kind else {
            panic!("execute_amo on non-AMO request {req:?}");
        };
        let set = self.arrays.set_index(line);
        let word = LineAddr::word_index(addr);
        let old = self.arrays.line(set, way).word(word);
        let new = match op {
            AmoOp::Cas { expected } => (old == expected).then_some(operand),
            AmoOp::Add => Some(old.wrapping_add(operand)),
            AmoOp::Swap => Some(operand),
        };
        if let Some(new) = new {
            self.write_word(now, way, addr, new, "amo");
        }
        self.arrays.touch(set, way);
        old
    }

    /// Writes `value` to the word at `addr` in way `way`: the line turns
    /// Modified, loses its skip bit (`why`) and taints in-flight FSHRs.
    fn write_word(&mut self, now: u64, way: usize, addr: u64, value: u64, why: &'static str) {
        let line = LineAddr::containing(addr);
        let set = self.arrays.set_index(line);
        let word = LineAddr::word_index(addr);
        self.arrays.line_mut(set, way).set_word(word, value);
        let m = self.arrays.meta_mut(set, way);
        m.state = ClientState::Modified;
        clear_skip(&mut self.sink, now, self.core, line, m, why);
        self.flush.note_line_touched(line);
    }

    /// Accounting for a request buffered in an MSHR: a store is complete
    /// from the core's perspective the moment it is buffered (§3.3); a load
    /// or AMO answers when its replay executes.
    fn count_buffered(&mut self, now: u64, req: DcReq) {
        match req.kind {
            DcReqKind::Store { .. } => {
                self.stats.stores += 1;
                self.respond(now + 1, DcResp::StoreDone { id: req.id });
            }
            DcReqKind::Amo { .. } => self.stats.amos += 1,
            DcReqKind::Load { .. } | DcReqKind::Writeback { .. } => {}
        }
    }

    /// Allocates MSHR `slot` for `line` in `way` with `req` as its primary
    /// request.
    fn allocate_mshr(&mut self, now: u64, req: DcReq, line: LineAddr, slot: usize, way: usize) {
        let set = self.arrays.set_index(line);
        let victim_valid = {
            let m = self.arrays.meta(set, way);
            m.state != ClientState::Invalid && self.arrays.addr_of(set, way) != line
        };
        self.arrays.meta_mut(set, way).reserved = true;
        let m = self.mshrs.slot_mut(slot);
        m.addr = line;
        m.way = way;
        m.write = req.kind.needs_write();
        m.rpq.clear();
        m.rpq.push_back(req);
        self.mshrs.set_state(
            slot,
            if victim_valid {
                MshrState::EvictWait
            } else {
                MshrState::SendAcquire
            },
        );
        self.stats.mshr_allocs += 1;
        skipit_trace::trace!(
            self.sink,
            now,
            TraceEvent::L1MshrAlloc {
                core: self.core,
                slot,
                addr: line.base(),
            }
        );
    }

    /// Advances the cache by one cycle against its TileLink ports.
    pub fn step(&mut self, now: u64, ports: &mut L1Ports<'_>) {
        self.drain_channel_d(now, ports);
        self.step_mshrs(now, ports);
        self.step_wbu(now, ports);
        self.step_probe(now, ports);
        // Flush-queue dequeue honours probe_rdy (probe unit idle) and wb_rdy
        // (WBU free) — §5.4.
        let probe_rdy = matches!(self.probe, ProbePhase::Idle);
        let wb_rdy = self.wbu.ready();
        self.flush.try_allocate(now, self.core, probe_rdy, wb_rdy);
        self.flush
            .step_fshrs(now, self.core, &mut self.arrays, ports.c, &mut self.stats);
    }

    fn drain_channel_d(&mut self, now: u64, ports: &mut L1Ports<'_>) {
        while let Some(msg) = ports.d.pop(now) {
            match msg {
                ChannelD::Grant {
                    addr,
                    is_trunk,
                    data,
                    flavor,
                    ..
                } => {
                    let waiting = self.mshrs.occupied() & !self.mshrs.mask(ACTING);
                    let Some(i) = Slots(waiting).find(|&i| self.mshrs[i].addr == addr) else {
                        panic!("Grant for {addr:?} without a waiting MSHR");
                    };
                    let way = self.mshrs[i].way;
                    self.mshrs.set_state(i, MshrState::Replay);
                    let state = if is_trunk {
                        ClientState::Exclusive
                    } else {
                        ClientState::Shared
                    };
                    // Skip It (§6.1): GrantData sets the skip bit,
                    // GrantDataDirty clears it.
                    let skip = self.cfg.skip_it && flavor == GrantFlavor::Clean;
                    self.arrays
                        .install(addr, way, MetaEntry::filled(state, skip), data);
                    if skip {
                        skipit_trace::trace!(
                            self.sink,
                            now,
                            TraceEvent::SkipBitSet {
                                core: self.core,
                                addr: addr.base(),
                            }
                        );
                    }
                    // Keep the way pinned until the MSHR retires so replayed
                    // writes cannot race an eviction.
                    let set = self.arrays.set_index(addr);
                    self.arrays.meta_mut(set, way).reserved = true;
                }
                ChannelD::ReleaseAck { addr, root, .. } => {
                    if root {
                        let done = self.flush.complete_ack(
                            now,
                            self.core,
                            addr,
                            &mut self.arrays,
                            self.cfg.skip_it,
                        );
                        assert!(done, "RootReleaseAck for {addr:?} without a waiting FSHR");
                    } else {
                        let job = self.wbu.job.take();
                        assert!(
                            matches!(job, Some(WbJob { addr: a, .. }) if a == addr),
                            "ReleaseAck for {addr:?} without a matching WBU job"
                        );
                    }
                }
            }
        }
    }

    fn step_mshrs(&mut self, now: u64, ports: &mut L1Ports<'_>) {
        // Nothing allocates an MSHR in this phase and only the visited one
        // changes state, so the mask as it stood on entry names exactly the
        // MSHRs a full scan would advance.
        for i in Slots(self.mshrs.mask(ACTING)) {
            match self.mshrs[i].state {
                MshrState::Free | MshrState::WaitGrant => unreachable!("MSHR {i} not acting"),
                MshrState::EvictWait => {
                    // §5.4.2: evictions wait for flush_rdy (no FSHR between
                    // allocation and release) and a free WBU.
                    if !self.flush.flush_rdy() || !self.wbu.ready() {
                        continue;
                    }
                    let (set, way) = (self.arrays.set_index(self.mshrs[i].addr), self.mshrs[i].way);
                    let victim = self.arrays.addr_of(set, way);
                    let old = self.arrays.meta(set, way).state;
                    if old == ClientState::Invalid {
                        // Victim vanished (probed away) while we waited.
                        self.mshrs.set_state(i, MshrState::SendAcquire);
                        continue;
                    }
                    let dirty = old.is_dirty();
                    let data = dirty.then(|| self.arrays.line(set, way));
                    {
                        let m = self.arrays.meta_mut(set, way);
                        m.state = ClientState::Invalid;
                        clear_skip(&mut self.sink, now, self.core, victim, m, "evict");
                    }
                    // §5.4.2: the WBU invalidates flush-queue entries for
                    // evicted lines.
                    self.flush.note_line_touched(victim);
                    let invalidated = self.flush.evict_invalidate(victim);
                    self.note_invalidated(now, victim, invalidated, "evict");
                    self.stats.flush_entries_evict_invalidated += invalidated;
                    self.stats.evictions += 1;
                    if dirty {
                        self.stats.dirty_evictions += 1;
                    }
                    self.wbu.job = Some(WbJob {
                        addr: victim,
                        data,
                        shrink: Shrink::from_transition(old, ClientState::Invalid),
                        sent: false,
                    });
                    self.mshrs.set_state(i, MshrState::SendAcquire);
                }
                MshrState::SendAcquire => {
                    if ports.a.can_push() {
                        let m = &self.mshrs[i];
                        let grow = if m.write { Grow::NtoT } else { Grow::NtoB };
                        ports.a.push(
                            now,
                            ChannelA::AcquireBlock {
                                source: self.core,
                                addr: m.addr,
                                grow,
                            },
                        );
                        self.mshrs.set_state(i, MshrState::WaitGrant);
                    }
                }
                MshrState::Replay => {
                    let addr = self.mshrs[i].addr;
                    let way = self.mshrs[i].way;
                    if let Some(req) = self.mshrs.slot_mut(i).rpq.pop_front() {
                        self.replay(now, addr, way, req);
                    }
                    if self.mshrs[i].rpq.is_empty() {
                        self.mshrs.set_state(i, MshrState::SendGrantAck);
                    }
                }
                MshrState::SendGrantAck => {
                    // A secondary request may have slipped in after the RPQ
                    // drained; serve it before retiring.
                    if !self.mshrs[i].rpq.is_empty() {
                        self.mshrs.set_state(i, MshrState::Replay);
                        continue;
                    }
                    if ports.e.can_push() {
                        let addr = self.mshrs[i].addr;
                        ports.e.push(
                            now,
                            ChannelE::GrantAck {
                                source: self.core,
                                addr,
                            },
                        );
                        let set = self.arrays.set_index(addr);
                        let way = self.mshrs[i].way;
                        self.arrays.meta_mut(set, way).reserved = false;
                        skipit_trace::trace!(
                            self.sink,
                            now,
                            TraceEvent::L1MshrFree {
                                core: self.core,
                                slot: i,
                                addr: addr.base(),
                            }
                        );
                        self.mshrs.free(i);
                    }
                }
            }
        }
    }

    /// Replays one buffered request after a refill (§3.3: drained in arrival
    /// order).
    fn replay(&mut self, now: u64, line: LineAddr, way: usize, req: DcReq) {
        let set = self.arrays.set_index(line);
        match req.kind {
            DcReqKind::Load { addr } => {
                let value = self.arrays.line(set, way).word(LineAddr::word_index(addr));
                self.arrays.touch(set, way);
                self.stats.loads += 1;
                self.respond(now + 1, DcResp::LoadDone { id: req.id, value });
            }
            DcReqKind::Store { addr, value } => {
                // StoreDone was already delivered at acceptance (§3.3).
                self.write_word(now, way, addr, value, "store");
                self.arrays.touch(set, way);
                self.stats.store_hits += 1;
            }
            DcReqKind::Amo { .. } => {
                let old = self.execute_amo(now, line, way, req);
                self.respond(now + 1, DcResp::AmoDone { id: req.id, old });
            }
            DcReqKind::Writeback { .. } => {
                unreachable!("CBO.X never enters an MSHR replay queue")
            }
        }
    }

    fn step_wbu(&mut self, now: u64, ports: &mut L1Ports<'_>) {
        if let Some(job) = &mut self.wbu.job {
            if !job.sent && ports.c.can_push() {
                ports.c.push(
                    now,
                    ChannelC::Release {
                        source: self.core,
                        addr: job.addr,
                        shrink: job.shrink,
                        data: job.data,
                    },
                );
                job.sent = true;
            }
        }
    }

    /// The downgrade gate of a probe for `addr` in its `Waiting` phase:
    /// held while an FSHR is mid-flight (`flush_rdy`), the WBU is busy
    /// (`wb_rdy`), an MSHR is replaying this line, or channel C is full
    /// (`c_rdy`).
    fn probe_may_downgrade(&self, addr: LineAddr, c_rdy: bool) -> bool {
        c_rdy
            && self.flush.flush_rdy()
            && self.wbu.ready()
            && !self
                .mshrs_on(addr)
                .any(|m| matches!(m.state, MshrState::Replay | MshrState::SendGrantAck))
    }

    fn step_probe(&mut self, now: u64, ports: &mut L1Ports<'_>) {
        match std::mem::take(&mut self.probe) {
            ProbePhase::Idle => {
                if let Some(p) = ports.b.pop(now) {
                    // probe_rdy drops the moment the probe arrives (§5.4.1);
                    // flush-queue invalidation happens this cycle, the
                    // flush_rdy check only the next — the paper's
                    // deadlock-freedom argument.
                    self.probe = ProbePhase::Invalidate(p);
                }
            }
            ProbePhase::Invalidate(p) => {
                let ChannelB::Probe { addr, cap, .. } = p;
                let invalidated = self.flush.probe_invalidate(addr, cap);
                self.note_invalidated(now, addr, invalidated, "probe");
                self.stats.flush_entries_probe_invalidated += invalidated;
                self.probe = ProbePhase::Waiting(p);
            }
            ProbePhase::Waiting(p) => {
                let ChannelB::Probe { addr, cap, .. } = p;
                if !self.probe_may_downgrade(addr, ports.c.can_push()) {
                    self.probe = ProbePhase::Waiting(p);
                    return;
                }
                // Entries enqueued after the Invalidate phase but before
                // this downgrade would otherwise snapshot stale metadata —
                // re-run the invalidation at the downgrade point.
                let invalidated = self.flush.probe_invalidate(addr, cap);
                self.note_invalidated(now, addr, invalidated, "probe");
                self.stats.flush_entries_probe_invalidated += invalidated;
                let (old, slot) = match self.arrays.lookup(addr) {
                    Some(way) => {
                        let set = self.arrays.set_index(addr);
                        (self.arrays.meta(set, way).state, Some((set, way)))
                    }
                    None => (ClientState::Invalid, None),
                };
                let new = old.probed_to(cap);
                let data = (old == ClientState::Modified && new != old).then(|| {
                    let (set, way) = slot.expect("modified line must be resident");
                    self.arrays.line(set, way)
                });
                if let Some((set, way)) = slot {
                    let m = self.arrays.meta_mut(set, way);
                    m.state = new;
                    // Invalidation clears the bit with the line; a dirty
                    // downgrade clears it because our data just moved into
                    // the L2: the line is now dirty *there*, hence not
                    // persisted (§6.2).
                    if new == ClientState::Invalid || data.is_some() {
                        clear_skip(&mut self.sink, now, self.core, addr, m, "probe");
                    }
                }
                if new == ClientState::Invalid || data.is_some() {
                    // Same reasoning for in-flight FSHRs on the line: their
                    // snapshot no longer covers what the L2 now holds.
                    self.flush.note_line_touched(addr);
                }
                ports.c.push(
                    now,
                    ChannelC::ProbeAck {
                        source: self.core,
                        addr,
                        shrink: Shrink::from_transition(old, new),
                        data,
                    },
                );
                self.stats.probes_handled += 1;
                if data.is_some() {
                    self.stats.probes_with_data += 1;
                }
            }
        }
    }
}

// --- snapshot codec (DESIGN.md §11) ---

use skipit_snap::{codec, Codec, SnapError, SnapReader, SnapWriter};

codec!(MshrState, "l1 mshr state" {
    0 => Free,
    1 => EvictWait,
    2 => SendAcquire,
    3 => WaitGrant,
    4 => Replay,
    5 => SendGrantAck,
});

codec!(Mshr {
    state,
    addr,
    way,
    write,
    rpq
});

codec!(WbJob {
    addr,
    data,
    shrink,
    sent
});

codec!(ProbePhase, "probe phase" {
    0 => Idle,
    1 => Invalidate { 0: b },
    2 => Waiting { 0: b },
});

impl DataCache {
    /// Encodes the cache's complete simulated state: tag/data/LRU arrays,
    /// every MSHR with its replay queue, the writeback unit, the probe FSM,
    /// the flush unit (queue + FSHRs + perturbation bookkeeping), the
    /// pending-response queue and the statistics counters. Configuration,
    /// core identity, trace sinks and the perturbation installation are
    /// host-side and excluded — they are re-created from the configuration
    /// on restore.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(0x43);
        self.arrays.encode_state(w);
        self.mshrs.encode_state(w);
        self.wbu.job.encode(w);
        self.probe.encode(w);
        self.flush.encode_state(w);
        self.resp.encode(w);
        self.stats.encode(w);
    }

    /// Overwrites the cache's simulated state from `r` (the inverse of
    /// [`DataCache::encode_state`]); array geometry, MSHR count and flush
    /// unit shape must match the configuration this cache was built with.
    pub fn decode_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(0x43, "l1 section")?;
        self.arrays.decode_state(r)?;
        self.mshrs.decode_state(r, "l1 mshr count")?;
        for m in self.mshrs.iter() {
            let set = self.arrays.set_index(m.addr);
            self.arrays
                .check_way(set, m.way, "l1 mshr way out of range")?;
        }
        self.wbu.job = Option::decode(r)?;
        self.probe = ProbePhase::decode(r)?;
        self.flush.decode_state(r, &self.arrays)?;
        self.resp = VecDeque::decode(r)?;
        self.stats = L1Stats::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipit_tilelink::{Cap, WritebackKind};

    struct Harness {
        l1: DataCache,
        a: Link<ChannelA>,
        b: Link<ChannelB>,
        c: Link<ChannelC>,
        d: Link<ChannelD>,
        e: Link<ChannelE>,
        now: u64,
    }

    impl Harness {
        fn new(skip_it: bool) -> Self {
            Harness {
                l1: DataCache::new(
                    0,
                    L1Config {
                        skip_it,
                        ..L1Config::default()
                    },
                ),
                a: Link::new(1, 8),
                b: Link::new(1, 8),
                c: Link::new(1, 8),
                d: Link::new(1, 8),
                e: Link::new(1, 8),
                now: 0,
            }
        }

        fn step(&mut self) {
            let mut ports = L1Ports {
                a: &mut self.a,
                b: &mut self.b,
                c: &mut self.c,
                d: &mut self.d,
                e: &mut self.e,
            };
            self.l1.step(self.now, &mut ports);
            self.l1.check_slot_masks().unwrap();
            self.now += 1;
        }

        /// Acts as a trivial L2: answers every Acquire with a Grant and every
        /// Release/RootRelease with the matching ack, while channel D has
        /// room.
        fn serve_l2(&mut self, flavor: GrantFlavor) {
            while self.d.can_push() {
                let Some(msg) = self.a.pop(self.now) else {
                    break;
                };
                let ChannelA::AcquireBlock { addr, grow, .. } = msg;
                self.d.push(
                    self.now,
                    ChannelD::Grant {
                        target: 0,
                        addr,
                        is_trunk: grow.wants_write(),
                        data: LineData::zeroed(),
                        flavor,
                    },
                );
            }
            while self.d.can_push() {
                let Some(msg) = self.c.pop(self.now) else {
                    break;
                };
                match msg {
                    ChannelC::Release { addr, .. } => self.d.push(
                        self.now,
                        ChannelD::ReleaseAck {
                            target: 0,
                            addr,
                            root: false,
                        },
                    ),
                    ChannelC::RootRelease { addr, .. } => self.d.push(
                        self.now,
                        ChannelD::ReleaseAck {
                            target: 0,
                            addr,
                            root: true,
                        },
                    ),
                    ChannelC::ProbeAck { .. } => {}
                }
            }
            while self.e.pop(self.now).is_some() {}
        }

        fn run_until_quiescent(&mut self, flavor: GrantFlavor) {
            for _ in 0..2000 {
                self.step();
                self.serve_l2(flavor);
                if self.l1.is_quiescent() {
                    return;
                }
            }
            panic!("cache failed to quiesce");
        }

        fn do_op(&mut self, kind: DcReqKind, flavor: GrantFlavor) -> Vec<DcResp> {
            let mut id = 0;
            loop {
                id += 1;
                match self.l1.try_request(self.now, DcReq { id, kind }) {
                    ReqOutcome::Accepted => break,
                    ReqOutcome::Nack => {
                        self.step();
                        self.serve_l2(flavor);
                    }
                }
            }
            self.run_until_quiescent(flavor);
            // Let late-scheduled responses (hit latency) become visible.
            for _ in 0..8 {
                self.step();
            }
            let mut out = Vec::new();
            while let Some(r) = self.l1.pop_response(self.now) {
                out.push(r);
            }
            out
        }
    }

    fn state_bytes(l1: &DataCache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        l1.encode_state(&mut w);
        w.into_bytes()
    }

    /// A store whose refill is in flight and a `CBO.CLEAN` of the same
    /// line, which the cache refuses (see the module docs).
    fn refused_clean() -> (Harness, DcReq) {
        let mut h = Harness::new(false);
        let store = DcReqKind::Store {
            addr: 0x9000,
            value: 1,
        };
        assert!(h.l1.offer(0, DcReq { id: 1, kind: store }));
        let clean = DcReqKind::Writeback {
            addr: 0x9000,
            kind: WritebackKind::Clean,
        };
        (h, DcReq { id: 2, kind: clean })
    }

    #[test]
    fn refused_offer_changes_nothing() {
        let (mut h, clean) = refused_clean();
        let (stats, bytes, mutations) = (h.l1.stats(), state_bytes(&h.l1), h.l1.mutations());
        assert!(!h.l1.offer(0, clean));
        assert_eq!(
            h.l1.stats(),
            stats,
            "a refusal counts nothing, not even a nack"
        );
        assert_eq!(state_bytes(&h.l1), bytes);
        assert_eq!(h.l1.mutations(), mutations);
        assert!(h.l1.pop_response(100).is_some_and(|r| r.id() == 1));
        assert!(
            h.l1.pop_response(100).is_none(),
            "the refused clean never answers"
        );
    }

    #[test]
    fn try_request_counts_a_nack() {
        let (mut h, clean) = refused_clean();
        let stats = h.l1.stats();
        assert_eq!(h.l1.try_request(0, clean), ReqOutcome::Nack);
        assert_eq!(
            h.l1.stats(),
            L1Stats {
                nacks: stats.nacks + 1,
                ..stats
            }
        );
    }

    /// A scripted stream of loads, stores, AMOs and writebacks over a few
    /// conflicting sets, offered three per cycle to two caches: one asks
    /// `would_accept` and then calls `try_request`, the other calls `offer`
    /// once. Both take the same decisions, answer the same responses and
    /// end with the same state and stats. While the second cache's
    /// mutation count stays where a refusal saw it, the refusal holds.
    #[test]
    fn offer_matches_would_accept_then_try_request() {
        let (mut asked, mut offered) = (Harness::new(true), Harness::new(true));
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut pending: VecDeque<DcReq> = (1..=400)
            .map(|id| {
                let k = rand(40);
                let addr = 0x4_0000 + (k % 4) * 64 + (k / 4) * 4096 + rand(8) * 8;
                let kind = match rand(6) {
                    0 | 1 => DcReqKind::Load { addr },
                    2 => DcReqKind::Store { addr, value: id },
                    3 => DcReqKind::Amo {
                        addr,
                        op: AmoOp::Add,
                        operand: id,
                    },
                    4 => DcReqKind::Writeback {
                        addr,
                        kind: WritebackKind::Clean,
                    },
                    _ => DcReqKind::Writeback {
                        addr,
                        kind: WritebackKind::Flush,
                    },
                };
                DcReq { id, kind }
            })
            .collect();
        let (mut responses, mut refusals, mut held) = (Vec::new(), 0, Vec::new());
        let mut unchanged = 0;
        while !pending.is_empty() {
            assert!(asked.now < 20_000, "script stalled");
            for (kind, mutations) in held.drain(..) {
                if offered.l1.mutations() == mutations {
                    assert!(!offered.l1.would_accept(kind), "a held refusal flipped");
                    unchanged += 1;
                }
            }
            let mut i = 0;
            while i < pending.len().min(3) {
                let req = pending[i];
                let accept = asked.l1.would_accept(req.kind);
                if accept {
                    assert_eq!(asked.l1.try_request(asked.now, req), ReqOutcome::Accepted);
                }
                assert_eq!(offered.l1.offer(offered.now, req), accept, "{req:?}");
                if accept {
                    pending.remove(i);
                } else {
                    refusals += 1;
                    held.push((req.kind, offered.l1.mutations()));
                    i += 1;
                }
            }
            for h in [&mut asked, &mut offered] {
                h.step();
                h.serve_l2(GrantFlavor::Clean);
            }
            let now = asked.now;
            while let Some(r) = asked.l1.pop_response(now) {
                assert_eq!(offered.l1.pop_response(now), Some(r));
                responses.push(r);
            }
            assert_eq!(offered.l1.pop_response(now), None);
            assert_eq!(state_bytes(&offered.l1), state_bytes(&asked.l1));
        }
        assert!(
            refusals > 100,
            "the script must exercise refusals: {refusals}"
        );
        assert!(
            unchanged > 10,
            "the script must hold refusals over idle cycles: {unchanged}"
        );
        assert!(responses.len() > 300, "{} responses", responses.len());
        assert_eq!(offered.l1.stats(), asked.l1.stats());
        assert_eq!(asked.l1.stats().nacks, 0);
    }

    #[test]
    fn store_miss_acquires_and_installs_modified() {
        let mut h = Harness::new(false);
        let resp = h.do_op(
            DcReqKind::Store {
                addr: 0x1000,
                value: 99,
            },
            GrantFlavor::Clean,
        );
        assert!(resp.iter().any(|r| matches!(r, DcResp::StoreDone { .. })));
        assert_eq!(h.l1.peek_word(0x1000), Some(99));
        assert_eq!(h.l1.peek_state(0x1000), ClientState::Modified);
    }

    #[test]
    fn load_after_store_hits() {
        let mut h = Harness::new(false);
        h.do_op(
            DcReqKind::Store {
                addr: 0x2000,
                value: 7,
            },
            GrantFlavor::Clean,
        );
        let resp = h.do_op(DcReqKind::Load { addr: 0x2000 }, GrantFlavor::Clean);
        assert!(resp
            .iter()
            .any(|r| matches!(r, DcResp::LoadDone { value: 7, .. })));
        assert_eq!(h.l1.stats().load_hits, 1);
    }

    #[test]
    fn flush_invalidates_and_releases_dirty_data() {
        let mut h = Harness::new(false);
        h.do_op(
            DcReqKind::Store {
                addr: 0x3000,
                value: 5,
            },
            GrantFlavor::Clean,
        );
        let resp = h.do_op(
            DcReqKind::Writeback {
                addr: 0x3000,
                kind: WritebackKind::Flush,
            },
            GrantFlavor::Clean,
        );
        assert!(resp
            .iter()
            .any(|r| matches!(r, DcResp::WritebackAccepted { .. })));
        assert_eq!(h.l1.peek_state(0x3000), ClientState::Invalid);
        assert_eq!(h.l1.stats().root_releases_with_data, 1);
        assert!(!h.l1.is_flushing());
    }

    #[test]
    fn clean_keeps_line_valid() {
        let mut h = Harness::new(false);
        h.do_op(
            DcReqKind::Store {
                addr: 0x3000,
                value: 5,
            },
            GrantFlavor::Clean,
        );
        h.do_op(
            DcReqKind::Writeback {
                addr: 0x3000,
                kind: WritebackKind::Clean,
            },
            GrantFlavor::Clean,
        );
        assert_eq!(h.l1.peek_state(0x3000), ClientState::Exclusive);
        assert_eq!(h.l1.peek_word(0x3000), Some(5));
    }

    #[test]
    fn skip_it_drops_redundant_writeback_after_clean() {
        let mut h = Harness::new(true);
        h.do_op(
            DcReqKind::Store {
                addr: 0x4000,
                value: 1,
            },
            GrantFlavor::Clean,
        );
        h.do_op(
            DcReqKind::Writeback {
                addr: 0x4000,
                kind: WritebackKind::Clean,
            },
            GrantFlavor::Clean,
        );
        assert!(h.l1.peek_skip(0x4000), "completed clean must set skip bit");
        let before = h.l1.stats().root_releases_sent;
        h.do_op(
            DcReqKind::Writeback {
                addr: 0x4000,
                kind: WritebackKind::Clean,
            },
            GrantFlavor::Clean,
        );
        assert_eq!(h.l1.stats().writebacks_skipped, 1);
        assert_eq!(
            h.l1.stats().root_releases_sent,
            before,
            "skipped writeback must not reach the L2"
        );
    }

    #[test]
    fn naive_cache_does_not_skip() {
        let mut h = Harness::new(false);
        h.do_op(
            DcReqKind::Store {
                addr: 0x4000,
                value: 1,
            },
            GrantFlavor::Clean,
        );
        for _ in 0..3 {
            h.do_op(
                DcReqKind::Writeback {
                    addr: 0x4000,
                    kind: WritebackKind::Clean,
                },
                GrantFlavor::Clean,
            );
        }
        assert_eq!(h.l1.stats().writebacks_skipped, 0);
        assert_eq!(h.l1.stats().root_releases_sent, 3);
    }

    #[test]
    fn grant_data_dirty_leaves_skip_unset() {
        let mut h = Harness::new(true);
        h.do_op(DcReqKind::Load { addr: 0x5000 }, GrantFlavor::Dirty);
        assert!(!h.l1.peek_skip(0x5000));
        // And a skip-eligible writeback is therefore not dropped.
        h.do_op(
            DcReqKind::Writeback {
                addr: 0x5000,
                kind: WritebackKind::Clean,
            },
            GrantFlavor::Dirty,
        );
        assert_eq!(h.l1.stats().writebacks_skipped, 0);
    }

    #[test]
    fn grant_data_clean_sets_skip_and_skips_writeback() {
        let mut h = Harness::new(true);
        h.do_op(DcReqKind::Load { addr: 0x5000 }, GrantFlavor::Clean);
        assert!(h.l1.peek_skip(0x5000));
        h.do_op(
            DcReqKind::Writeback {
                addr: 0x5000,
                kind: WritebackKind::Flush,
            },
            GrantFlavor::Clean,
        );
        assert_eq!(h.l1.stats().writebacks_skipped, 1);
    }

    #[test]
    fn store_clears_skip_bit() {
        let mut h = Harness::new(true);
        h.do_op(DcReqKind::Load { addr: 0x5000 }, GrantFlavor::Clean);
        assert!(h.l1.peek_skip(0x5000));
        // Upgrade to write: skip must drop with the dirty data.
        h.do_op(
            DcReqKind::Store {
                addr: 0x5000,
                value: 2,
            },
            GrantFlavor::Clean,
        );
        assert!(!h.l1.peek_skip(0x5000));
    }

    #[test]
    fn amo_cas_success_and_failure() {
        let mut h = Harness::new(false);
        h.do_op(
            DcReqKind::Store {
                addr: 0x6000,
                value: 10,
            },
            GrantFlavor::Clean,
        );
        let resp = h.do_op(
            DcReqKind::Amo {
                addr: 0x6000,
                op: AmoOp::Cas { expected: 10 },
                operand: 20,
            },
            GrantFlavor::Clean,
        );
        assert!(resp
            .iter()
            .any(|r| matches!(r, DcResp::AmoDone { old: 10, .. })));
        assert_eq!(h.l1.peek_word(0x6000), Some(20));
        let resp = h.do_op(
            DcReqKind::Amo {
                addr: 0x6000,
                op: AmoOp::Cas { expected: 10 },
                operand: 30,
            },
            GrantFlavor::Clean,
        );
        assert!(resp
            .iter()
            .any(|r| matches!(r, DcResp::AmoDone { old: 20, .. })));
        assert_eq!(
            h.l1.peek_word(0x6000),
            Some(20),
            "failed CAS must not write"
        );
    }

    #[test]
    fn probe_to_n_invalidates_and_returns_dirty_data() {
        let mut h = Harness::new(false);
        h.do_op(
            DcReqKind::Store {
                addr: 0x7000,
                value: 42,
            },
            GrantFlavor::Clean,
        );
        h.b.push(
            h.now,
            ChannelB::Probe {
                target: 0,
                addr: LineAddr::containing(0x7000),
                cap: Cap::ToN,
            },
        );
        for _ in 0..10 {
            h.step();
        }
        assert_eq!(h.l1.peek_state(0x7000), ClientState::Invalid);
        let mut saw_data = false;
        while let Some(m) = h.c.pop(h.now) {
            if let ChannelC::ProbeAck {
                shrink: Shrink::TtoN,
                data: Some(d),
                ..
            } = m
            {
                assert_eq!(d.word(0), 42);
                saw_data = true;
            }
        }
        assert!(saw_data, "probe of a modified line must carry data");
        assert_eq!(h.l1.stats().probes_with_data, 1);
    }

    #[test]
    fn probe_invalidates_queued_flush_entry() {
        let mut h = Harness::new(false);
        h.do_op(
            DcReqKind::Store {
                addr: 0x8000,
                value: 9,
            },
            GrantFlavor::Clean,
        );
        // Launch a probe so it is in flight, then enqueue the writeback the
        // cycle the probe lands: probe_rdy drops before the flush queue can
        // dequeue, so the entry must be invalidated in place (§5.4.1).
        h.b.push(
            h.now,
            ChannelB::Probe {
                target: 0,
                addr: LineAddr::containing(0x8000),
                cap: Cap::ToN,
            },
        );
        h.step(); // probe now ready on channel B
        let out = h.l1.try_request(
            h.now,
            DcReq {
                id: 900,
                kind: DcReqKind::Writeback {
                    addr: 0x8000,
                    kind: WritebackKind::Flush,
                },
            },
        );
        assert_eq!(out, ReqOutcome::Accepted);
        h.run_until_quiescent(GrantFlavor::Clean);
        assert_eq!(h.l1.stats().flush_entries_probe_invalidated, 1);
        // The flush proceeded as a miss (RootRelease without data from us).
        assert_eq!(h.l1.stats().root_releases_sent, 1);
        assert_eq!(h.l1.stats().root_releases_with_data, 0);
    }

    #[test]
    fn writeback_nacked_while_mshr_in_flight() {
        let mut h = Harness::new(false);
        let out = h.l1.try_request(
            0,
            DcReq {
                id: 1,
                kind: DcReqKind::Store {
                    addr: 0x9000,
                    value: 1,
                },
            },
        );
        assert_eq!(out, ReqOutcome::Accepted);
        // MSHR outstanding; a CBO.X to the same line must nack.
        let out = h.l1.try_request(
            0,
            DcReq {
                id: 2,
                kind: DcReqKind::Writeback {
                    addr: 0x9000,
                    kind: WritebackKind::Clean,
                },
            },
        );
        assert_eq!(out, ReqOutcome::Nack);
    }

    #[test]
    fn store_nacked_against_queued_flush_entry() {
        let mut h = Harness::new(false);
        h.do_op(
            DcReqKind::Store {
                addr: 0xa000,
                value: 1,
            },
            GrantFlavor::Clean,
        );
        let out = h.l1.try_request(
            h.now,
            DcReq {
                id: 50,
                kind: DcReqKind::Writeback {
                    addr: 0xa000,
                    kind: WritebackKind::Flush,
                },
            },
        );
        assert_eq!(out, ReqOutcome::Accepted);
        let out = h.l1.try_request(
            h.now,
            DcReq {
                id: 51,
                kind: DcReqKind::Store {
                    addr: 0xa000,
                    value: 2,
                },
            },
        );
        assert_eq!(out, ReqOutcome::Nack);
    }

    #[test]
    fn coalescing_drops_back_to_back_same_kind_writebacks() {
        let mut h = Harness::new(false);
        h.do_op(
            DcReqKind::Store {
                addr: 0xb000,
                value: 1,
            },
            GrantFlavor::Clean,
        );
        let out = h.l1.try_request(
            h.now,
            DcReq {
                id: 60,
                kind: DcReqKind::Writeback {
                    addr: 0xb000,
                    kind: WritebackKind::Flush,
                },
            },
        );
        assert_eq!(out, ReqOutcome::Accepted);
        let out = h.l1.try_request(
            h.now,
            DcReq {
                id: 61,
                kind: DcReqKind::Writeback {
                    addr: 0xb000,
                    kind: WritebackKind::Flush,
                },
            },
        );
        assert_eq!(out, ReqOutcome::Accepted);
        assert_eq!(h.l1.stats().writebacks_coalesced, 1);
        h.run_until_quiescent(GrantFlavor::Clean);
        assert_eq!(h.l1.stats().root_releases_sent, 1);
    }

    #[test]
    fn eviction_releases_dirty_victim() {
        let mut h = Harness::new(false);
        // Fill one set (stride = sets * line = 4096) beyond its ways.
        for i in 0..9u64 {
            h.do_op(
                DcReqKind::Store {
                    addr: 0x10_0000 + i * 4096,
                    value: i,
                },
                GrantFlavor::Clean,
            );
        }
        assert_eq!(h.l1.stats().evictions, 1);
        assert_eq!(h.l1.stats().dirty_evictions, 1);
    }

    #[test]
    fn decoded_state_rebuilds_the_mshr_masks() {
        let mut h = Harness::new(false);
        let load = |id, addr| DcReq {
            id,
            kind: DcReqKind::Load { addr },
        };
        for (id, addr) in [(1, 0x1000), (2, 0x2000), (3, 0x3000)] {
            assert_eq!(
                h.l1.try_request(h.now, load(id, addr)),
                ReqOutcome::Accepted
            );
        }
        h.step();
        // Grant only the first Acquire: its MSHR replays and waits to send
        // the GrantAck while the other two wait for their Grants.
        let Some(ChannelA::AcquireBlock { addr, .. }) = h.a.pop(h.now) else {
            panic!("no Acquire sent");
        };
        h.d.push(
            h.now,
            ChannelD::Grant {
                target: 0,
                addr,
                is_trunk: false,
                data: LineData::zeroed(),
                flavor: GrantFlavor::Clean,
            },
        );
        while h.l1.mshrs[0].state == MshrState::WaitGrant {
            assert!(h.now < 20, "Grant never arrived");
            h.step();
        }
        assert_eq!(
            h.l1.try_request(h.now, load(4, 0x4000)),
            ReqOutcome::Accepted
        );
        let states: Vec<_> = h.l1.mshrs[..5].iter().map(|m| m.state).collect();
        assert_eq!(
            states,
            [
                MshrState::SendGrantAck,
                MshrState::WaitGrant,
                MshrState::WaitGrant,
                MshrState::SendAcquire,
                MshrState::Free
            ]
        );
        h.l1.check_slot_masks().unwrap();

        let mut w = SnapWriter::new();
        h.l1.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = DataCache::new(0, L1Config::default());
        fresh.decode_state(&mut SnapReader::new(&bytes)).unwrap();
        fresh.check_slot_masks().unwrap();
        let masks = |l1: &DataCache| (l1.mshrs.occupied(), l1.mshrs.mask(ACTING));
        assert_eq!(masks(&fresh), masks(&h.l1));
        assert_eq!(masks(&fresh), (0b1111, 0b1001));
    }

    /// A live MSHR's way past the array's ways would alias another set's
    /// way when its Grant installs.
    #[test]
    fn decode_rejects_an_mshr_way_out_of_range() {
        let mut l1 = DataCache::new(0, L1Config::default());
        let load = DcReq {
            id: 1,
            kind: DcReqKind::Load { addr: 0x1000 },
        };
        assert_eq!(l1.try_request(0, load), ReqOutcome::Accepted);
        let decode = |l1: &DataCache| {
            let mut w = SnapWriter::new();
            l1.encode_state(&mut w);
            let bytes = w.into_bytes();
            DataCache::new(0, L1Config::default()).decode_state(&mut SnapReader::new(&bytes))
        };
        assert_eq!(decode(&l1), Ok(()));
        l1.mshrs.slot_mut(0).way = L1Config::default().ways;
        assert_eq!(
            decode(&l1),
            Err(SnapError::Corrupt("l1 mshr way out of range"))
        );
    }

    #[test]
    fn load_secondary_merges_into_mshr() {
        let mut h = Harness::new(false);
        let out = h.l1.try_request(
            0,
            DcReq {
                id: 1,
                kind: DcReqKind::Load { addr: 0xc000 },
            },
        );
        assert_eq!(out, ReqOutcome::Accepted);
        let out = h.l1.try_request(
            0,
            DcReq {
                id: 2,
                kind: DcReqKind::Load { addr: 0xc008 },
            },
        );
        assert_eq!(out, ReqOutcome::Accepted);
        assert_eq!(h.l1.stats().mshr_allocs, 1);
        assert_eq!(h.l1.stats().mshr_secondaries, 1);
        h.run_until_quiescent(GrantFlavor::Clean);
        let mut loads = 0;
        while let Some(r) = h.l1.pop_response(h.now) {
            if matches!(r, DcResp::LoadDone { .. }) {
                loads += 1;
            }
        }
        assert_eq!(loads, 2);
    }

    #[test]
    fn store_secondary_into_load_mshr_nacks() {
        let mut h = Harness::new(false);
        h.l1.try_request(
            0,
            DcReq {
                id: 1,
                kind: DcReqKind::Load { addr: 0xd000 },
            },
        );
        let out = h.l1.try_request(
            0,
            DcReq {
                id: 2,
                kind: DcReqKind::Store {
                    addr: 0xd000,
                    value: 1,
                },
            },
        );
        assert_eq!(out, ReqOutcome::Nack, "§3.3: load MSHR cannot take a store");
    }
}
