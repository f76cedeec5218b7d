//! The **Flush Unit** (§5.2): flush queue, FSHRs, and flush counter.
//!
//! The flush unit buffers incoming `CBO.X` requests in the *flush queue*
//! (letting the LSU commit them immediately, §5.2), executes them
//! asynchronously in *Flush Status Holding Registers* (FSHRs) that step
//! through the state machine of the paper's Fig. 7, and tracks completion in
//! the *flush counter* that gates fences.
//!
//! Queue entries snapshot the line's bookkeeping bits at enqueue time
//! (`is_hit`, `is_dirty`, kind) so that dequeuing needs no metadata-array
//! access; the snapshots are kept consistent by the probe unit
//! ([`FlushUnit::probe_invalidate`], §5.4.1) and the writeback unit
//! ([`FlushUnit::evict_invalidate`], §5.4.2), while dependent loads/stores
//! are blocked by the cache front-end (§5.3).

use crate::cache::clear_skip;
use crate::config::L1Config;
use crate::meta::MetaEntry;
use crate::stats::L1Stats;
use skipit_snap::HostOnly;
use skipit_tilelink::array::SetAssocArray;
use skipit_tilelink::slots::{SlotFile, SlotState, Slots};
use skipit_tilelink::{
    AgentId, Cap, ChannelC, ClientState, LineAddr, LineData, Link, PerturbConfig, WritebackKind,
    LINE_BYTES,
};
use skipit_trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;

/// Line buckets the flush queue counts its entries in.
const BUCKETS: usize = 64;

/// The count bucket of `addr`: its line number mod [`BUCKETS`], which is
/// its L1 set at the default geometry.
fn bucket(addr: LineAddr) -> usize {
    (addr.base() / LINE_BYTES as u64) as usize % BUCKETS
}

// A full queue of one line must fit its bucket's count.
const _: () = assert!(L1Config::MAX_QUEUE_DEPTH <= u16::MAX as usize);

/// One buffered `CBO.X` request (§5.2: "relevant fields of a flush request").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushEntry {
    /// The line to be written back.
    pub addr: LineAddr,
    /// Did the line hit in the L1 at enqueue time (kept up to date by
    /// probe/evict invalidation)?
    pub is_hit: bool,
    /// Was the line dirty (only meaningful when `is_hit`)?
    pub is_dirty: bool,
    /// `CBO.CLEAN` or `CBO.FLUSH`.
    pub kind: WritebackKind,
}

/// The Fig. 7 FSHR state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FshrState {
    /// No request; ready to accept (`invalid` in Fig. 7).
    #[default]
    Free,
    /// Modify the line's metadata: invalidate (flush) or clear dirty (clean).
    MetaWrite,
    /// Fill the data buffer from the data array — a single cycle thanks to
    /// the widened data-array read port (§5.2).
    FillBuffer,
    /// Send `RootRelease` *with* data (four beats on the 16 B bus).
    SendReleaseData,
    /// Send `RootRelease` without data (one beat).
    SendRelease,
    /// Wait for `RootReleaseAck` (`root_release_ack` in Fig. 7).
    WaitAck,
}

impl FshrState {
    /// The Fig. 7 state name, used by [`TraceEvent::FshrTransition`].
    pub fn name(self) -> &'static str {
        match self {
            FshrState::Free => "free",
            FshrState::MetaWrite => "meta_write",
            FshrState::FillBuffer => "fill_buffer",
            FshrState::SendReleaseData => "root_release_data",
            FshrState::SendRelease => "root_release",
            FshrState::WaitAck => "root_release_ack",
        }
    }
}

/// One Flush Status Holding Register.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fshr {
    /// The request being executed (meaningful unless `state == Free`).
    pub entry: FlushEntry,
    /// Current FSM state.
    pub state: FshrState,
    /// Data buffer for dirty lines (§5.2); also the forwarding source for
    /// loads that miss while the line is being flushed (§5.3).
    pub buffer: Option<LineData>,
    /// `(set, way)` latched at `meta_write` time so `fill_buffer` can read
    /// the data array even after a flush invalidated the tag.
    slot: Option<(usize, usize)>,
    /// Whether this FSHR's eventual ack may still set the skip bit (§6.2).
    /// True from allocation; cleared by [`FlushUnit::note_line_touched`]
    /// when a store/AMO dirties the line or a probe/eviction invalidates it
    /// while the FSHR is in flight — in either case the line's *current*
    /// data is no longer the snapshot this FSHR persisted, so a late ack
    /// must not mark it skippable.
    skip_ok: bool,
    /// Dispatch order stamp (monotone per flush unit). Same-line
    /// transactions are serialized by the L2 in arrival order and their
    /// acks return over FIFO links, so acks for a line always land in
    /// dispatch order: ack completion matches the *oldest* same-line
    /// `WaitAck` FSHR by this stamp.
    seq: u64,
}

/// FSHR classes `WaitAck` and `SendRelease*` (class 0, `busy`: not `Free`).
const WAIT_ACK: usize = 1;
const SENDING: usize = 2;

impl SlotState for Fshr {
    type State = FshrState;
    const CLASSES: &'static [&'static str] = &["fshr busy", "fshr wait_ack", "fshr sending"];
    fn classes(&self) -> u32 {
        use FshrState::*;
        let sending = matches!(self.state, SendReleaseData | SendRelease);
        u32::from(self.state != Free)
            | u32::from(self.state == WaitAck) << WAIT_ACK
            | u32::from(sending) << SENDING
    }
    fn set_state(&mut self, state: FshrState) {
        self.state = state;
    }
}

impl Default for FlushEntry {
    fn default() -> Self {
        FlushEntry {
            addr: LineAddr::new(0),
            is_hit: false,
            is_dirty: false,
            kind: WritebackKind::Clean,
        }
    }
}

/// The flush unit. See [module docs](self).
#[derive(Debug)]
pub struct FlushUnit {
    queue: VecDeque<FlushEntry>,
    /// Queued entries per line [`bucket`], so a walk of the queue for one
    /// line returns at once when that line's bucket is empty. Kept in step
    /// by [`FlushUnit::enqueue`] and the dispatch in
    /// [`FlushUnit::try_allocate`]; rebuilt on decode, never serialized.
    queued: [u16; BUCKETS],
    depth: usize,
    fshrs: SlotFile<Fshr>,
    /// Round-robin allocation pointer (§5.2).
    next_fshr: usize,
    /// The flush counter (§5.2): pending requests in the queue or in FSHRs.
    counter: u64,
    /// Event sink for FSHR FSM transitions and ack-time skip-bit updates.
    sink: Option<TraceSink>,
    /// Adversarial dispatch jitter: `(site key, config)` installed by the
    /// cache when perturbation is configured (see
    /// [`skipit_tilelink::perturb`]).
    perturb: Option<(u64, PerturbConfig)>,
    /// Count of queue → FSHR dispatches — the state-changing event index
    /// the jitter draws are keyed on (engine-invariant, unlike call counts).
    dispatch_seq: u64,
    /// Pending hold-off: the head dispatch may not happen before this
    /// cycle. Anchored at the first cycle the dispatch became possible.
    hold_until: Option<u64>,
    /// Monotone FSHR allocation counter backing [`Fshr`]'s dispatch-order
    /// stamp (always incremented, unlike the perturbation-only
    /// `dispatch_seq`).
    alloc_seq: u64,
    /// Writes of the queue so far (see [`FlushUnit::changes`]). Host-only.
    queue_changes: HostOnly<u64>,
}

impl FlushUnit {
    /// Creates a flush unit with the given queue depth and FSHR count.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds [`L1Config::MAX_QUEUE_DEPTH`].
    pub fn new(depth: usize, fshrs: usize) -> Self {
        assert!(
            depth <= L1Config::MAX_QUEUE_DEPTH,
            "flush queue depth must be at most {}",
            L1Config::MAX_QUEUE_DEPTH
        );
        FlushUnit {
            queue: VecDeque::with_capacity(depth),
            queued: [0; BUCKETS],
            depth,
            fshrs: SlotFile::new(fshrs),
            next_fshr: 0,
            counter: 0,
            sink: None,
            perturb: None,
            dispatch_seq: 0,
            hold_until: None,
            alloc_seq: 0,
            queue_changes: HostOnly(0),
        }
    }

    /// Installs seeded dispatch jitter: each queue → FSHR dispatch is held
    /// off by `cfg.draw(site, dispatch index, cfg.dispatch_jitter)` cycles
    /// from the first cycle it became possible. A stalled dispatch is a
    /// schedule real arbitration could produce (the flush unit merely loses
    /// arbitration for a few cycles), so every explored schedule is legal.
    pub fn set_perturb(&mut self, site: u64, cfg: PerturbConfig) {
        self.perturb = (cfg.dispatch_jitter > 0).then_some((site, cfg));
    }

    /// The installed event sink, if any.
    pub(crate) fn trace_sink(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    /// The event-sink slot; FSHR state transitions
    /// ([`TraceEvent::FshrTransition`]) and ack-time skip-bit sets emit
    /// into the sink installed here.
    pub(crate) fn trace_slot(&mut self) -> &mut Option<TraceSink> {
        &mut self.sink
    }

    /// The `flushing` signal (Fig. 6): true while any writeback is pending.
    /// Fences may commit only when this is false (§5.3).
    pub fn is_flushing(&self) -> bool {
        self.counter > 0
    }

    /// The `flush_rdy` signal (§5.4.1): false while any FSHR is between
    /// allocation and reaching `root_release_ack`. Probes and MSHR evictions
    /// are held while low.
    pub fn flush_rdy(&self) -> bool {
        self.fshrs.occupied() & !self.fshrs.mask(WAIT_ACK) == 0
    }

    /// Moves FSHR `i` to `to`, tracing the Fig. 7 transition.
    fn transition(&mut self, now: u64, core: AgentId, i: usize, to: FshrState) {
        let Fshr { entry, state, .. } = self.fshrs[i];
        let (addr, from) = (entry.addr.base(), state.name());
        let (fshr, to_name) = (i, to.name());
        let event = TraceEvent::FshrTransition {
            core,
            fshr,
            addr,
            from,
            to: to_name,
        };
        skipit_trace::trace!(self.sink, now, event);
        self.fshrs.set_state(i, to);
    }

    /// Whether the queue has no free slot.
    pub fn queue_full(&self) -> bool {
        self.queue.len() >= self.depth
    }

    /// A count that moves on every write of the queue or of an FSHR: while
    /// it stays put, so does everything the cache's admission reads here.
    /// Not simulated state.
    pub fn changes(&self) -> u64 {
        self.queue_changes.0 + self.fshrs.changes()
    }

    /// Number of requests currently buffered in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// FSHRs currently executing a writeback (telemetry gauge).
    pub fn fshr_occupancy(&self) -> usize {
        self.fshrs.occupancy()
    }

    /// How much of the queue, from the head, a walk for `addr`'s entries
    /// must read: all of it, or none when `addr`'s bucket is empty.
    fn scan_len(&self, addr: LineAddr) -> usize {
        if self.queued[bucket(addr)] == 0 {
            0
        } else {
            self.queue.len()
        }
    }

    /// The queued entries for `addr`, oldest first.
    fn queued_on(&self, addr: LineAddr) -> impl Iterator<Item = &FlushEntry> {
        self.queue
            .range(..self.scan_len(addr))
            .filter(move |e| e.addr == addr)
    }

    /// The queued entries for `addr`, oldest first, mutably.
    fn queued_on_mut(&mut self, addr: LineAddr) -> impl Iterator<Item = &mut FlushEntry> {
        self.queue_changes.0 += 1;
        let scan = self.scan_len(addr);
        self.queue.range_mut(..scan).filter(move |e| e.addr == addr)
    }

    /// The queued entry for `addr`, if any.
    pub fn queued_entry(&self, addr: LineAddr) -> Option<&FlushEntry> {
        self.queued_on(addr).next()
    }

    /// The FSHR handling `addr`, if any.
    pub fn fshr_for(&self, addr: LineAddr) -> Option<&Fshr> {
        self.fshrs.live().find(|f| f.entry.addr == addr)
    }

    /// The §5.3 store-admission test against *all* FSHRs active on `addr`:
    /// a store may proceed only if every one of them is a `CBO.CLEAN` that
    /// has already captured its data (or never had dirty data to capture).
    /// A line can occupy several FSHRs at once, so checking only the first
    /// match would let a disallowed flush hide behind an allowed clean.
    /// Records that `addr`'s cache line was written (store/AMO) or
    /// invalidated (probe, eviction) while FSHRs may be in flight for it:
    /// their snapshots no longer match the line's current data, so their
    /// acks must not set the skip bit (§6.2). Clears the per-FSHR
    /// `skip_ok` eligibility flag.
    pub fn note_line_touched(&mut self, addr: LineAddr) {
        for i in Slots(self.fshrs.occupied()) {
            let f = self.fshrs.slot_mut(i);
            if f.entry.addr == addr {
                f.skip_ok = false;
            }
        }
    }

    pub fn fshr_blocks_store(&self, addr: LineAddr) -> bool {
        self.fshrs.live().filter(|f| f.entry.addr == addr).any(|f| {
            !(f.entry.kind == WritebackKind::Clean && (!f.entry.is_dirty || f.buffer.is_some()))
        })
    }

    /// Whether a same-kind request for `addr` is pending *in the flush
    /// queue* — the coalescing test of §5.3. A `CBO.CLEAN` may coalesce with
    /// a pending `CBO.CLEAN` but not with a pending `CBO.FLUSH` (and vice
    /// versa). Requests already being executed by an FSHR are not
    /// coalescible ("pending flush request" = queued): the FSHR may already
    /// have released the line, so a later writeback must take its own trip —
    /// which is exactly the redundancy Skip It eliminates (§7.4).
    pub fn can_coalesce(&self, addr: LineAddr, kind: WritebackKind) -> bool {
        self.queued_on(addr).any(|e| e.kind == kind)
    }

    /// The §5.3 future-work optimization: the queue index of a queued entry
    /// of the *other* kind that absorbs a `kind` request for `addr`. An
    /// arriving `CBO.FLUSH` upgrades a queued `CBO.CLEAN` in place (flush
    /// subsumes clean — it writes back the same data and additionally
    /// invalidates; see [`FlushUnit::cross_kind_absorb`]); an arriving
    /// `CBO.CLEAN` is absorbed by a queued `CBO.FLUSH` (whose writeback
    /// already covers every store ordered before the clean, since dependent
    /// stores are blocked while the entry is queued). `CBO.INVAL` discards
    /// data, so it never absorbs or is absorbed by a writeback-carrying
    /// request.
    pub(crate) fn cross_kind_partner(&self, addr: LineAddr, kind: WritebackKind) -> Option<usize> {
        if kind == WritebackKind::Inval {
            return None;
        }
        self.queue
            .range(..self.scan_len(addr))
            .position(|e| e.addr == addr && e.kind != kind && e.kind != WritebackKind::Inval)
    }

    /// Absorbs a `kind` request into the queued entry at `idx`, as found by
    /// [`FlushUnit::cross_kind_partner`]: a `CBO.FLUSH` upgrades the queued
    /// clean to a flush.
    pub(crate) fn cross_kind_absorb(&mut self, idx: usize, kind: WritebackKind) {
        self.queue_changes.0 += 1;
        if kind == WritebackKind::Flush {
            self.queue[idx].kind = WritebackKind::Flush;
        }
    }

    /// Buffers a request; increments the flush counter.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — callers must check
    /// [`FlushUnit::queue_full`] and refuse the request instead (§5.2).
    pub fn enqueue(&mut self, entry: FlushEntry) {
        assert!(!self.queue_full(), "flush queue overflow");
        self.queue_changes.0 += 1;
        self.queued[bucket(entry.addr)] += 1;
        self.queue.push_back(entry);
        self.counter += 1;
    }

    /// Probe invalidation (§5.4.1): a coherence probe for `addr` with
    /// capability `cap` updates the bookkeeping bits of matching queued
    /// entries so they are executed with valid metadata. Returns the number
    /// of entries adjusted.
    pub fn probe_invalidate(&mut self, addr: LineAddr, cap: Cap) -> u64 {
        let mut n = 0;
        for e in self.queued_on_mut(addr) {
            match cap {
                Cap::ToN => {
                    if e.is_hit || e.is_dirty {
                        e.is_hit = false;
                        e.is_dirty = false;
                        n += 1;
                    }
                }
                Cap::ToB => {
                    // The dirty data travels upward with the ProbeAck; the
                    // entry keeps its hit bit (a readable copy remains).
                    if e.is_dirty {
                        e.is_dirty = false;
                        n += 1;
                    }
                }
                Cap::ToT => {}
            }
        }
        n
    }

    /// Eviction invalidation (§5.4.2): the writeback unit evicted `addr`, so
    /// matching queued entries no longer hit. Returns entries adjusted.
    pub fn evict_invalidate(&mut self, addr: LineAddr) -> u64 {
        let mut n = 0;
        for e in self.queued_on_mut(addr) {
            if e.is_hit || e.is_dirty {
                e.is_hit = false;
                e.is_dirty = false;
                n += 1;
            }
        }
        n
    }

    /// Dequeues the head request into a free FSHR (round-robin, §5.2) if
    /// permitted: the queue is non-empty, an FSHR is free, and the
    /// `probe_rdy` / `wb_rdy` interlocks are high (§5.4). At most one
    /// allocation per cycle.
    pub fn try_allocate(&mut self, now: u64, core: AgentId, probe_rdy: bool, wb_rdy: bool) -> bool {
        if self.queue.is_empty() || !probe_rdy || !wb_rdy {
            return false;
        }
        // Same-line requests may occupy several FSHRs concurrently: each
        // completed its metadata write before releasing, the L2 serializes
        // them through its per-line MSHR conflict rules, and ack-completion
        // re-checks line state before touching the skip bit. This is what
        // lets a burst of redundant writebacks each take a full round trip
        // on the baseline — the cost Skip It removes (§7.4).
        let Some(idx) = self.fshrs.first_free(self.next_fshr as u32) else {
            return false;
        };
        // Adversarial hold-off (set_perturb): the first cycle the dispatch
        // becomes possible anchors a drawn delay; until it elapses the
        // dispatch loses arbitration. `has_work` keeps reporting the
        // pending dispatch, so every engine keeps stepping the cache here
        // and observes the same hold.
        if let Some((site, cfg)) = self.perturb {
            let until = *self.hold_until.get_or_insert_with(|| {
                now + cfg.draw(site, self.dispatch_seq, cfg.dispatch_jitter)
            });
            if now < until {
                return false;
            }
            self.hold_until = None;
            self.dispatch_seq += 1;
        }
        self.queue_changes.0 += 1;
        let entry = self.queue.pop_front().expect("nonempty");
        self.queued[bucket(entry.addr)] -= 1;
        let state = Self::initial_state(&entry);
        self.fshrs.put(
            idx,
            Fshr {
                entry,
                state: FshrState::Free,
                buffer: None,
                slot: None,
                skip_ok: true,
                seq: self.alloc_seq,
            },
        );
        self.transition(now, core, idx, state);
        self.alloc_seq += 1;
        self.next_fshr = (idx + 1) % self.fshrs.len();
        true
    }

    /// The first state after `invalid` per Fig. 7: a miss goes straight to
    /// `root_release` (the line may still be dirty elsewhere, §5.2); a hit on
    /// a dirty line or an invalidating operation must write metadata first;
    /// a `CBO.CLEAN` hit on a clean line releases without touching metadata.
    fn initial_state(entry: &FlushEntry) -> FshrState {
        if !entry.is_hit {
            FshrState::SendRelease
        } else if entry.is_dirty || entry.kind.invalidates() {
            FshrState::MetaWrite
        } else {
            FshrState::SendRelease
        }
    }

    /// Advances every FSHR that is busy and not in `WaitAck` by one state
    /// transition (one cycle).
    ///
    /// `core` is this cache's agent id for outgoing messages; `arrays` is the
    /// L1 metadata/data array the FSHR reads and writes.
    #[allow(clippy::too_many_arguments)]
    pub fn step_fshrs(
        &mut self,
        now: u64,
        core: AgentId,
        arrays: &mut SetAssocArray<MetaEntry>,
        c: &mut Link<ChannelC>,
        stats: &mut L1Stats,
    ) {
        // Nothing allocates or frees an FSHR in this phase and only the
        // visited one changes state, so the mask as it stood on entry names
        // exactly the FSHRs a full scan would step.
        for i in Slots(self.fshrs.occupied() & !self.fshrs.mask(WAIT_ACK)) {
            let state = self.fshrs[i].state;
            let entry = self.fshrs[i].entry;
            match state {
                FshrState::Free | FshrState::WaitAck => unreachable!("FSHR {i} not stepping"),
                FshrState::MetaWrite => {
                    let way = arrays.lookup(entry.addr).unwrap_or_else(|| {
                        panic!(
                            "FSHR meta_write: entry says hit but {:?} is absent — \
                             interlock violation",
                            entry.addr
                        )
                    });
                    let set = arrays.set_index(entry.addr);
                    self.fshrs.slot_mut(i).slot = Some((set, way));
                    let m = arrays.meta_mut(set, way);
                    match entry.kind {
                        WritebackKind::Flush | WritebackKind::Inval => {
                            m.state = ClientState::Invalid;
                            clear_skip(&mut self.sink, now, core, entry.addr, m, "flush");
                        }
                        WritebackKind::Clean => {
                            if m.state == ClientState::Modified {
                                m.state = ClientState::Exclusive;
                            }
                        }
                    }
                    // Keep later queued same-line entries (necessarily of
                    // the *other* kind — same-kind ones coalesced, §5.3)
                    // consistent with the metadata we just changed.
                    for e in self.queued_on_mut(entry.addr) {
                        match entry.kind {
                            WritebackKind::Flush | WritebackKind::Inval => {
                                e.is_hit = false;
                                e.is_dirty = false;
                            }
                            WritebackKind::Clean => e.is_dirty = false,
                        }
                    }
                    // CBO.INVAL discards dirty data: never fill the buffer.
                    let next = if entry.is_dirty && entry.kind.writes_back() {
                        FshrState::FillBuffer
                    } else {
                        FshrState::SendRelease
                    };
                    self.transition(now, core, i, next);
                }
                FshrState::FillBuffer => {
                    // The widened data array serves the whole line in one
                    // cycle (§5.2), addressed by the (set, way) latched at
                    // meta_write time — the SRAM bits survive a metadata
                    // invalidation.
                    let (set, way) = self.fshrs[i]
                        .slot
                        .expect("fill_buffer without a latched slot");
                    self.fshrs.slot_mut(i).buffer = Some(arrays.line(set, way));
                    self.transition(now, core, i, FshrState::SendReleaseData);
                }
                FshrState::SendReleaseData | FshrState::SendRelease => {
                    if c.can_push() {
                        let data = if state == FshrState::SendReleaseData {
                            Some(self.fshrs[i].buffer.expect("buffer filled"))
                        } else {
                            None
                        };
                        c.push(
                            now,
                            ChannelC::RootRelease {
                                source: core,
                                addr: entry.addr,
                                kind: entry.kind,
                                data,
                            },
                        );
                        stats.root_releases_sent += 1;
                        if data.is_some() {
                            stats.root_releases_with_data += 1;
                        }
                        self.transition(now, core, i, FshrState::WaitAck);
                    }
                }
            }
        }
    }

    /// Completes the FSHR waiting on `addr` after a `RootReleaseAck`
    /// (§5.2 state 6). For a completed `CBO.CLEAN` with Skip It enabled, the
    /// line is now persisted, so its skip bit is set — provided the line is
    /// still valid and clean (§6.2).
    ///
    /// Returns `true` if an FSHR was completed.
    pub fn complete_ack(
        &mut self,
        now: u64,
        core: AgentId,
        addr: LineAddr,
        arrays: &mut SetAssocArray<MetaEntry>,
        skip_it: bool,
    ) -> bool {
        // When several FSHRs for the same line are in `WaitAck` (§5.2
        // allows this), the ack belongs to the *oldest* dispatch: the L2
        // serializes same-line transactions in arrival order and the links
        // are FIFOs, so acks come back in dispatch order. Matching by scan
        // position instead would credit the ack to an arbitrary slot — e.g.
        // free an invalidating CBO.FLUSH on a completed CBO.CLEAN's ack,
        // dropping the store interlock while the flush's RootRelease is
        // still queued at the L2 (an inclusion violation once a refill
        // races the deferred invalidation).
        let Some(i) = Slots(self.fshrs.mask(WAIT_ACK))
            .filter(|&i| self.fshrs[i].entry.addr == addr)
            .min_by_key(|&i| self.fshrs[i].seq)
        else {
            return false;
        };
        let kind = self.fshrs[i].entry.kind;
        let skip_ok = self.fshrs[i].skip_ok;
        self.transition(now, core, i, FshrState::Free);
        self.fshrs.free(i);
        debug_assert!(self.counter > 0, "flush counter underflow");
        self.counter -= 1;
        // §6.2: the skip bit asserts "this line's current data is persisted".
        // That is only true if *this* ack is the last word on the line:
        //
        // * when another FSHR is still flushing the same line, the completed
        //   clean predates that FSHR's snapshot (e.g. a clean that missed,
        //   raced by a store and a second clean), and the line's current
        //   data is still in flight;
        // * when `skip_ok` was cleared, the line was stored to or
        //   invalidated after this FSHR captured its snapshot — e.g. a §5.3
        //   store admitted past a buffer-captured clean, whose new data then
        //   moved into the L2 via a probe downgrade, leaving the line
        //   valid+clean here but dirty (unpersisted) at the L2.
        //
        // Setting skip in either case would let a later CBO drop a
        // writeback whose data the persistence domain does not yet hold.
        let line_still_flushing = self.fshrs.live().any(|f| f.entry.addr == addr);
        if skip_it && kind == WritebackKind::Clean && skip_ok && !line_still_flushing {
            if let Some(way) = arrays.lookup(addr) {
                let set = arrays.set_index(addr);
                let m = arrays.meta_mut(set, way);
                if !m.state.is_dirty() {
                    m.skip = true;
                    skipit_trace::trace!(
                        self.sink,
                        now,
                        TraceEvent::SkipBitSet {
                            core,
                            addr: addr.base(),
                        }
                    );
                }
            }
        }
        true
    }

    /// Whether the flush unit would do work *this* cycle: an FSHR is in a
    /// self-advancing state (`MetaWrite`/`FillBuffer` always progress;
    /// `SendRelease*` pushes only while channel C has room, `c_rdy`), or a
    /// queued entry can be allocated under the given interlocks. FSHRs in
    /// `WaitAck` are woken by channel D traffic, and a `SendRelease*` facing
    /// a full channel C by the L2's drain of that channel — both evented
    /// separately by the scheduler, so they contribute no work here.
    pub fn has_work(&self, probe_rdy: bool, wb_rdy: bool, c_rdy: bool) -> bool {
        let sending = self.fshrs.mask(SENDING);
        let advancing = self.fshrs.occupied() & !self.fshrs.mask(WAIT_ACK) & !sending;
        let free = self.fshrs.first_free(0).is_some();
        advancing != 0
            || (c_rdy && sending != 0)
            || (!self.queue.is_empty() && probe_rdy && wb_rdy && free)
    }

    /// The flush counter (§5.2): `CBO.X` requests queued or executing in an
    /// FSHR. A fence commits only once it reads zero (§5.3).
    #[doc(hidden)]
    pub fn counter_value(&self) -> u64 {
        self.counter
    }

    /// View of all FSHRs (tests and forwarding logic).
    pub fn fshrs(&self) -> &[Fshr] {
        &self.fshrs
    }

    /// Queued entries per line bucket, counted from the queue.
    fn bucket_counts(&self) -> [u16; BUCKETS] {
        let mut counts = [0; BUCKETS];
        self.queue.iter().for_each(|e| counts[bucket(e.addr)] += 1);
        counts
    }

    /// Checks the FSHR state masks against a scan of the FSHRs and the
    /// bucket counts against the queue.
    pub fn check_slot_masks(&self) -> Result<(), String> {
        self.fshrs.check_masks()?;
        (self.queued == self.bucket_counts())
            .then_some(())
            .ok_or_else(|| "flush queue bucket counts disagree with the queue".into())
    }
}

/// A dirty, unreserved way, as the unit tests below install their lines.
#[cfg(test)]
const DIRTY: MetaEntry = MetaEntry::filled(ClientState::Modified, false);

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> FlushUnit {
        FlushUnit::new(4, 2)
    }

    fn entry(addr: u64, hit: bool, dirty: bool, kind: WritebackKind) -> FlushEntry {
        FlushEntry {
            addr: LineAddr::new(addr),
            is_hit: hit,
            is_dirty: dirty,
            kind,
        }
    }

    #[test]
    fn counter_tracks_enqueue_and_ack() {
        let mut fu = unit();
        assert!(!fu.is_flushing());
        fu.enqueue(entry(0x40, false, false, WritebackKind::Flush));
        assert!(fu.is_flushing());
        assert_eq!(fu.counter_value(), 1);
    }

    #[test]
    fn queue_full_detection() {
        let mut fu = unit();
        for i in 0..4 {
            fu.enqueue(entry(0x40 * (i + 1), false, false, WritebackKind::Flush));
        }
        assert!(fu.queue_full());
    }

    #[test]
    #[should_panic(expected = "flush queue overflow")]
    fn enqueue_past_capacity_panics() {
        let mut fu = unit();
        for i in 0..5 {
            fu.enqueue(entry(0x40 * (i + 1), false, false, WritebackKind::Flush));
        }
    }

    #[test]
    fn initial_state_paths_match_fig7() {
        // Miss → root_release regardless of kind.
        assert_eq!(
            FlushUnit::initial_state(&entry(0, false, false, WritebackKind::Flush)),
            FshrState::SendRelease
        );
        // Hit dirty → meta_write (then fill_buffer → release_data).
        assert_eq!(
            FlushUnit::initial_state(&entry(0, true, true, WritebackKind::Clean)),
            FshrState::MetaWrite
        );
        // Hit clean flush → meta_write (invalidate) then release w/o data.
        assert_eq!(
            FlushUnit::initial_state(&entry(0, true, false, WritebackKind::Flush)),
            FshrState::MetaWrite
        );
        // Hit clean clean → straight to release (metadata unchanged).
        assert_eq!(
            FlushUnit::initial_state(&entry(0, true, false, WritebackKind::Clean)),
            FshrState::SendRelease
        );
    }

    #[test]
    fn coalescing_same_kind_only() {
        let mut fu = unit();
        fu.enqueue(entry(0x40, true, true, WritebackKind::Clean));
        assert!(fu.can_coalesce(LineAddr::new(0x40), WritebackKind::Clean));
        assert!(!fu.can_coalesce(LineAddr::new(0x40), WritebackKind::Flush));
        assert!(!fu.can_coalesce(LineAddr::new(0x80), WritebackKind::Clean));
    }

    #[test]
    fn probe_invalidate_to_n_clears_hit_and_dirty() {
        let mut fu = unit();
        fu.enqueue(entry(0x40, true, true, WritebackKind::Flush));
        assert_eq!(fu.probe_invalidate(LineAddr::new(0x40), Cap::ToN), 1);
        let e = fu.queued_entry(LineAddr::new(0x40)).unwrap();
        assert!(!e.is_hit && !e.is_dirty);
    }

    #[test]
    fn probe_invalidate_to_b_clears_only_dirty() {
        let mut fu = unit();
        fu.enqueue(entry(0x40, true, true, WritebackKind::Clean));
        assert_eq!(fu.probe_invalidate(LineAddr::new(0x40), Cap::ToB), 1);
        let e = fu.queued_entry(LineAddr::new(0x40)).unwrap();
        assert!(e.is_hit && !e.is_dirty);
    }

    #[test]
    fn evict_invalidate_clears_entry() {
        let mut fu = unit();
        fu.enqueue(entry(0x40, true, false, WritebackKind::Clean));
        assert_eq!(fu.evict_invalidate(LineAddr::new(0x40)), 1);
        let e = fu.queued_entry(LineAddr::new(0x40)).unwrap();
        assert!(!e.is_hit);
    }

    #[test]
    fn allocation_respects_interlocks() {
        let mut fu = unit();
        fu.enqueue(entry(0x40, false, false, WritebackKind::Flush));
        assert!(
            !fu.try_allocate(0, 0, false, true),
            "probe_rdy low must block"
        );
        assert!(!fu.try_allocate(0, 0, true, false), "wb_rdy low must block");
        assert!(fu.try_allocate(0, 0, true, true));
        assert!(fu.fshr_for(LineAddr::new(0x40)).is_some());
    }

    #[test]
    fn same_line_requests_may_occupy_multiple_fshrs() {
        let mut fu = unit();
        fu.enqueue(entry(0x40, true, true, WritebackKind::Clean));
        fu.enqueue(entry(0x40, true, false, WritebackKind::Flush));
        assert!(fu.try_allocate(0, 0, true, true));
        // Round-robin allocation does not serialize same-line requests;
        // the L2's per-line MSHR conflict rules order them.
        assert!(fu.try_allocate(0, 0, true, true));
        assert_eq!(
            fu.fshrs()
                .iter()
                .filter(|f| f.state != FshrState::Free)
                .count(),
            2
        );
    }

    #[test]
    fn flush_rdy_low_while_fshr_mid_flight() {
        let mut fu = unit();
        assert!(fu.flush_rdy());
        fu.enqueue(entry(0x40, true, true, WritebackKind::Clean));
        fu.try_allocate(0, 0, true, true);
        assert!(!fu.flush_rdy(), "MetaWrite state must hold flush_rdy low");
    }

    #[test]
    fn fshr_full_dirty_clean_path_and_ack_sets_skip() {
        let cfg = L1Config::default();
        let mut arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        let addr = LineAddr::new(0x40);
        let mut data = LineData::zeroed();
        data.set_word(0, 0xabcd);
        arrays.install(addr, 0, DIRTY, data);

        let mut fu = FlushUnit::new(4, 2);
        let mut c: Link<ChannelC> = Link::new(0, 8);
        let mut stats = L1Stats::default();
        fu.enqueue(entry(0x40, true, true, WritebackKind::Clean));
        fu.try_allocate(0, 0, true, true);

        // MetaWrite: Modified → Exclusive.
        fu.step_fshrs(0, 0, &mut arrays, &mut c, &mut stats);
        let set = arrays.set_index(addr);
        let way = arrays.lookup(addr).unwrap();
        assert_eq!(arrays.meta(set, way).state, ClientState::Exclusive);

        // FillBuffer.
        fu.step_fshrs(1, 0, &mut arrays, &mut c, &mut stats);
        assert!(fu.fshr_for(addr).unwrap().buffer.is_some());

        // SendReleaseData.
        fu.step_fshrs(2, 0, &mut arrays, &mut c, &mut stats);
        assert_eq!(stats.root_releases_sent, 1);
        assert_eq!(stats.root_releases_with_data, 1);
        let msg = c.pop(100).expect("RootRelease on C");
        match msg {
            ChannelC::RootRelease {
                kind,
                data: Some(d),
                ..
            } => {
                assert_eq!(kind, WritebackKind::Clean);
                assert_eq!(d.word(0), 0xabcd);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Ack completes and sets the skip bit (Skip It enabled).
        assert!(fu.complete_ack(99, 0, addr, &mut arrays, true));
        assert!(arrays.meta(set, way).skip);
        assert!(!fu.is_flushing());
    }

    #[test]
    fn ack_completes_oldest_same_line_fshr() {
        let cfg = L1Config::default();
        let mut arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        let addr = LineAddr::new(0x40);
        let other = LineAddr::new(0x80);
        arrays.install(addr, 0, DIRTY, LineData::zeroed());

        let mut fu = FlushUnit::new(4, 2);
        let mut c: Link<ChannelC> = Link::new(0, 8);
        let mut stats = L1Stats::default();

        // Occupy slot 0 with a release for another line so the clean for
        // `addr` lands in slot 1.
        fu.enqueue(entry(0x80, false, false, WritebackKind::Clean));
        fu.try_allocate(0, 0, true, true);
        fu.enqueue(entry(0x40, true, true, WritebackKind::Clean));
        fu.try_allocate(0, 0, true, true);
        for now in 0..4 {
            fu.step_fshrs(now, 0, &mut arrays, &mut c, &mut stats);
        }
        assert!(fu.complete_ack(4, 0, other, &mut arrays, true));

        // Slot 0 is free again: the same-line flush lands *below* the clean
        // in scan order while the older clean dispatch sits in slot 1.
        fu.enqueue(entry(0x40, true, false, WritebackKind::Flush));
        fu.try_allocate(5, 0, true, true);
        for now in 5..8 {
            fu.step_fshrs(now, 0, &mut arrays, &mut c, &mut stats);
        }
        let waiting = fu
            .fshrs()
            .iter()
            .filter(|f| f.state != FshrState::Free && f.entry.addr == addr);
        assert!(waiting.clone().all(|f| f.state == FshrState::WaitAck));
        assert_eq!(waiting.count(), 2);

        // Acks for a line arrive in dispatch order, so the first one is the
        // clean's: it must free the clean and leave the flush, which keeps
        // blocking stores until its own ack.
        assert!(fu.complete_ack(8, 0, addr, &mut arrays, true));
        let left = fu.fshr_for(addr).expect("flush still active");
        assert_eq!(left.entry.kind, WritebackKind::Flush);
        assert!(fu.fshr_blocks_store(addr));
    }

    #[test]
    fn touched_line_ack_does_not_set_skip() {
        let cfg = L1Config::default();
        let mut arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        let addr = LineAddr::new(0x40);
        arrays.install(addr, 0, DIRTY, LineData::zeroed());

        let mut fu = FlushUnit::new(4, 2);
        let mut c: Link<ChannelC> = Link::new(0, 8);
        let mut stats = L1Stats::default();
        fu.enqueue(entry(0x40, true, true, WritebackKind::Clean));
        fu.try_allocate(0, 0, true, true);
        for now in 0..3 {
            fu.step_fshrs(now, 0, &mut arrays, &mut c, &mut stats);
        }
        // A §5.3-admitted store dirtied the line mid-flight: the snapshot
        // this FSHR persisted is stale, so even though the line is
        // valid+clean again at ack time (MetaWrite made it Exclusive), the
        // ack must not set the skip bit.
        fu.note_line_touched(addr);
        assert!(fu.complete_ack(3, 0, addr, &mut arrays, true));
        let (set, way) = (arrays.set_index(addr), arrays.lookup(addr).unwrap());
        assert!(!arrays.meta(set, way).skip);
        assert!(!fu.is_flushing());
    }

    #[test]
    fn fshr_flush_invalidates_metadata() {
        let cfg = L1Config::default();
        let mut arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        let addr = LineAddr::new(0x80);
        arrays.install(addr, 1, DIRTY, LineData::zeroed());

        let mut fu = FlushUnit::new(4, 2);
        let mut c: Link<ChannelC> = Link::new(0, 8);
        let mut stats = L1Stats::default();
        fu.enqueue(entry(0x80, true, true, WritebackKind::Flush));
        fu.try_allocate(0, 0, true, true);
        fu.step_fshrs(0, 0, &mut arrays, &mut c, &mut stats); // MetaWrite
        assert_eq!(arrays.lookup(addr), None, "flush must invalidate");
        fu.step_fshrs(1, 0, &mut arrays, &mut c, &mut stats); // FillBuffer (data still readable)
        fu.step_fshrs(2, 0, &mut arrays, &mut c, &mut stats); // SendReleaseData
        assert!(matches!(
            c.pop(100),
            Some(ChannelC::RootRelease {
                kind: WritebackKind::Flush,
                data: Some(_),
                ..
            })
        ));
        assert!(fu.complete_ack(99, 0, addr, &mut arrays, true));
    }

    #[test]
    fn miss_sends_release_without_data() {
        let cfg = L1Config::default();
        let mut arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        let mut fu = FlushUnit::new(4, 2);
        let mut c: Link<ChannelC> = Link::new(0, 8);
        let mut stats = L1Stats::default();
        fu.enqueue(entry(0xc0, false, false, WritebackKind::Flush));
        fu.try_allocate(0, 0, true, true);
        fu.step_fshrs(0, 0, &mut arrays, &mut c, &mut stats);
        assert!(matches!(
            c.pop(100),
            Some(ChannelC::RootRelease { data: None, .. })
        ));
    }

    #[test]
    fn clean_ack_does_not_set_skip_when_redirtied() {
        // A store allowed through (§5.3 conditions) re-dirties the line
        // before the ack arrives: skip must stay unset.
        let cfg = L1Config::default();
        let mut arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        let addr = LineAddr::new(0x40);
        arrays.install(addr, 0, DIRTY, LineData::zeroed());
        let mut fu = FlushUnit::new(4, 2);
        let mut c: Link<ChannelC> = Link::new(0, 8);
        let mut stats = L1Stats::default();
        fu.enqueue(entry(0x40, true, true, WritebackKind::Clean));
        fu.try_allocate(0, 0, true, true);
        for t in 0..3 {
            fu.step_fshrs(t, 0, &mut arrays, &mut c, &mut stats);
        }
        // Re-dirty while waiting for the ack.
        let set = arrays.set_index(addr);
        let way = arrays.lookup(addr).unwrap();
        arrays.meta_mut(set, way).state = ClientState::Modified;
        assert!(fu.complete_ack(99, 0, addr, &mut arrays, true));
        assert!(!arrays.meta(set, way).skip);
    }
}

#[cfg(test)]
mod decode_tests {
    use super::*;
    use skipit_snap::{SnapReader, SnapWriter};

    #[test]
    fn decoded_state_rebuilds_the_fshr_masks() {
        let cfg = L1Config::default();
        let mut arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        for (n, way) in [(1, 0), (3, 1)] {
            arrays.install(LineAddr::new(0x40 * n), way, DIRTY, LineData::zeroed());
        }
        let mut fu = FlushUnit::new(4, 4);
        let mut c: Link<ChannelC> = Link::new(0, 8);
        let mut stats = L1Stats::default();
        let entry = |n: u64, hit| FlushEntry {
            addr: LineAddr::new(0x40 * n),
            is_hit: hit,
            is_dirty: hit,
            kind: WritebackKind::Clean,
        };
        fu.enqueue(entry(1, true));
        fu.try_allocate(0, 0, true, true);
        fu.step_fshrs(0, 0, &mut arrays, &mut c, &mut stats);
        fu.enqueue(entry(2, false));
        fu.try_allocate(1, 0, true, true);
        fu.step_fshrs(1, 0, &mut arrays, &mut c, &mut stats);
        fu.enqueue(entry(3, true));
        fu.try_allocate(2, 0, true, true);
        // Two entries stay queued, lines 5 and 69 sharing a bucket.
        fu.enqueue(entry(5, false));
        fu.enqueue(entry(69, false));
        fu.check_slot_masks().unwrap();
        let states: Vec<_> = fu.fshrs().iter().map(|f| f.state).collect();
        assert_eq!(
            states,
            [
                FshrState::SendReleaseData,
                FshrState::WaitAck,
                FshrState::MetaWrite,
                FshrState::Free
            ]
        );

        let mut w = SnapWriter::new();
        fu.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = FlushUnit::new(4, 4);
        fresh
            .decode_state(&mut SnapReader::new(&bytes), &arrays)
            .unwrap();
        fresh.check_slot_masks().unwrap();
        let masks = |fu: &FlushUnit| {
            let f = &fu.fshrs;
            (f.occupied(), f.mask(WAIT_ACK), f.mask(SENDING))
        };
        assert_eq!(masks(&fresh), masks(&fu));
        assert_eq!(masks(&fresh), (0b111, 0b010, 0b001));
        assert_eq!(fresh.queued, fu.queued);
        assert_eq!((fresh.queued[5], fresh.queued.iter().sum::<u16>()), (2, 2));
        assert!(fresh.queued_entry(LineAddr::new(0x40 * 69)).is_some());
        assert!(fresh.queued_entry(LineAddr::new(0x40 * 6)).is_none());
    }

    /// A latched `(set, way)` past the array would make `fill_buffer` read
    /// another set's line or index past the array.
    #[test]
    fn decode_rejects_a_latched_way_out_of_range() {
        let cfg = L1Config::default();
        let arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        let mut fu = FlushUnit::new(4, 2);
        fu.enqueue(FlushEntry {
            addr: LineAddr::new(0x40),
            is_hit: true,
            is_dirty: true,
            kind: WritebackKind::Flush,
        });
        fu.try_allocate(0, 0, true, true);
        let mut decode = |slot| {
            fu.fshrs.slot_mut(0).slot = Some(slot);
            let mut w = SnapWriter::new();
            fu.encode_state(&mut w);
            let bytes = w.into_bytes();
            FlushUnit::new(4, 2).decode_state(&mut SnapReader::new(&bytes), &arrays)
        };
        assert_eq!(decode((cfg.sets - 1, cfg.ways - 1)), Ok(()));
        let corrupt = Err(SnapError::Corrupt("fshr way out of range"));
        assert_eq!(decode((0, cfg.ways)), corrupt);
        assert_eq!(decode((cfg.sets, 0)), corrupt);
    }
}

#[cfg(test)]
mod inval_tests {
    use super::*;
    use crate::stats::L1Stats;
    use skipit_tilelink::{ChannelC, LineAddr, LineData, Link};

    fn entry(addr: u64, hit: bool, dirty: bool) -> FlushEntry {
        FlushEntry {
            addr: LineAddr::new(addr),
            is_hit: hit,
            is_dirty: dirty,
            kind: WritebackKind::Inval,
        }
    }

    #[test]
    fn inval_hit_dirty_invalidates_without_filling_buffer() {
        let cfg = L1Config::default();
        let mut arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        let addr = LineAddr::new(0x40);
        let mut data = LineData::zeroed();
        data.set_word(0, 0xdead);
        arrays.install(addr, 0, DIRTY, data);

        let mut fu = FlushUnit::new(4, 2);
        let mut c: Link<ChannelC> = Link::new(0, 8);
        let mut stats = L1Stats::default();
        fu.enqueue(entry(0x40, true, true));
        assert!(fu.try_allocate(0, 0, true, true));
        // MetaWrite invalidates; the dirty data is discarded (no FillBuffer).
        fu.step_fshrs(0, 0, &mut arrays, &mut c, &mut stats);
        assert_eq!(arrays.lookup(addr), None, "inval must invalidate");
        fu.step_fshrs(1, 0, &mut arrays, &mut c, &mut stats);
        match c.pop(100) {
            Some(ChannelC::RootRelease {
                kind: WritebackKind::Inval,
                data: None,
                ..
            }) => {}
            other => panic!("expected dataless RootRelease(Inval), got {other:?}"),
        }
        assert!(fu.complete_ack(99, 0, addr, &mut arrays, true));
        assert!(!fu.is_flushing());
    }

    #[test]
    fn inval_miss_still_sends_release() {
        let cfg = L1Config::default();
        let mut arrays = SetAssocArray::new(cfg.sets, cfg.ways);
        let mut fu = FlushUnit::new(4, 2);
        let mut c: Link<ChannelC> = Link::new(0, 8);
        let mut stats = L1Stats::default();
        fu.enqueue(entry(0x80, false, false));
        assert!(fu.try_allocate(0, 0, true, true));
        fu.step_fshrs(0, 0, &mut arrays, &mut c, &mut stats);
        assert!(matches!(
            c.pop(100),
            Some(ChannelC::RootRelease {
                kind: WritebackKind::Inval,
                data: None,
                ..
            })
        ));
    }

    #[test]
    fn inval_never_cross_kind_coalesces() {
        let mut fu = FlushUnit::new(4, 2);
        fu.enqueue(FlushEntry {
            addr: LineAddr::new(0x40),
            is_hit: true,
            is_dirty: true,
            kind: WritebackKind::Clean,
        });
        let partner = |fu: &FlushUnit, addr, kind| fu.cross_kind_partner(LineAddr::new(addr), kind);
        assert_eq!(partner(&fu, 0x40, WritebackKind::Inval), None);
        fu.enqueue(entry(0x80, true, false));
        assert_eq!(partner(&fu, 0x80, WritebackKind::Flush), None);
        assert_eq!(partner(&fu, 0x80, WritebackKind::Clean), None);
    }
}

// --- snapshot codec (DESIGN.md §11) ---

use skipit_snap::{codec, Codec, SnapError, SnapReader, SnapWriter};

codec!(FlushEntry {
    addr,
    is_hit,
    is_dirty,
    kind,
});

codec!(FshrState, "fshr state" {
    0 => Free,
    1 => MetaWrite,
    2 => FillBuffer,
    3 => SendReleaseData,
    4 => SendRelease,
    5 => WaitAck,
});

codec!(Fshr {
    entry,
    state,
    buffer,
    slot,
    skip_ok,
    seq,
});

impl FlushUnit {
    /// Encodes the flush unit's simulated state: the flush queue, every
    /// FSHR (including the private skip-eligibility and dispatch-order
    /// stamps), the round-robin pointer, the §5.2 flush counter, and the
    /// perturbation bookkeeping (`dispatch_seq` keys jitter draws,
    /// `hold_until` is a drawn-but-unexpired delay — both must survive a
    /// round trip for perturbed runs to continue bit-identically).
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(0x46);
        self.queue.encode(w);
        self.fshrs.encode_state(w);
        self.next_fshr.encode(w);
        self.counter.encode(w);
        self.dispatch_seq.encode(w);
        self.hold_until.encode(w);
        self.alloc_seq.encode(w);
    }

    /// Overwrites the flush unit's simulated state from `r` (the inverse
    /// of [`FlushUnit::encode_state`]); queue depth and FSHR count must
    /// match the configured geometry, and every latched `(set, way)` must
    /// lie inside `arrays`, the cache's decoded array.
    pub fn decode_state(
        &mut self,
        r: &mut SnapReader<'_>,
        arrays: &SetAssocArray<MetaEntry>,
    ) -> Result<(), SnapError> {
        r.expect_tag(0x46, "flush unit section")?;
        let queue: VecDeque<FlushEntry> = VecDeque::decode(r)?;
        if queue.len() > self.depth {
            return Err(SnapError::Corrupt("flush queue exceeds depth"));
        }
        self.fshrs.decode_state(r, "fshr count")?;
        for &(set, way) in self.fshrs.iter().filter_map(|f| f.slot.as_ref()) {
            arrays.check_way(set, way, "fshr way out of range")?;
        }
        let next = usize::decode(r)?;
        self.next_fshr = self.fshrs.check_index(next, "fshr pointer out of range")?;
        self.queue = queue;
        self.queue_changes.0 += 1;
        self.queued = self.bucket_counts();
        self.counter = u64::decode(r)?;
        self.dispatch_seq = u64::decode(r)?;
        self.hold_until = Option::decode(r)?;
        self.alloc_seq = u64::decode(r)?;
        Ok(())
    }
}
