//! The inclusive L2 transaction engine.
//!
//! Structure follows the SiFive inclusive cache of §3.4 / Fig. 4: TL-C
//! requests arrive through *SinkC* (here: per-core channel C links), are
//! allocated to MSHRs immediately or deferred through the *ListBuffer*;
//! probes go out on channel B; responses leave through *SourceD* (channel D);
//! DRAM traffic leaves through *SourceC* (the [`skipit_mem::Dram`] port).

use crate::arrays::DirEntry;
use crate::config::L2Config;
use crate::stats::L2Stats;
use skipit_mem::{Dram, MemReq, MemResp};
use skipit_snap::HostOnly;
use skipit_tilelink::array::SetAssocArray;
use skipit_tilelink::perturb::L2_MSHR_SITE;
use skipit_tilelink::slots::{SlotFile, SlotState, Slots};
use skipit_tilelink::{
    AgentId, Cap, ChannelA, ChannelB, ChannelC, ChannelD, ChannelE, GrantFlavor, Grow, LineAddr,
    LineData, Link, PerturbConfig, Shrink, WritebackKind,
};
use skipit_trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;

/// Channel endpoints the L2 drives each cycle, one link of each kind per
/// core, plus the memory port.
#[derive(Debug)]
pub struct L2Ports<'a> {
    /// Channel A from each core's L1.
    pub a: &'a mut [Link<ChannelA>],
    /// Channel B to each core's L1.
    pub b: &'a mut [Link<ChannelB>],
    /// Channel C from each core's L1.
    pub c: &'a mut [Link<ChannelC>],
    /// Channel D to each core's L1.
    pub d: &'a mut [Link<ChannelD>],
    /// Channel E from each core's L1.
    pub e: &'a mut [Link<ChannelE>],
    /// Main memory.
    pub mem: &'a mut Dram,
}

/// The request an L2 MSHR is serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum L2Req {
    Acquire {
        source: AgentId,
        grow: Grow,
    },
    RootRelease {
        source: AgentId,
        kind: WritebackKind,
        /// Dirty data carried by the request (merged at MSHR allocation).
        data: Option<LineData>,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum L2MshrState {
    /// Directory/banked-store access latency.
    Access { until: u64 },
    /// Sending/awaiting probes that evict the inclusive victim.
    VictimProbe,
    /// Waiting to issue the dirty victim's DRAM write.
    VictimWrite,
    /// Waiting for the victim write's durability ack.
    VictimWriteWait,
    /// Waiting to issue the fill read.
    MemRead,
    /// Waiting for fill data.
    MemReadWait,
    /// Sending/awaiting probes of the request line's owners.
    OwnerProbe,
    /// RootRelease: waiting to issue the line's DRAM write.
    DramWrite,
    /// RootRelease: waiting for the durability ack.
    DramWriteWait,
    /// Ready to push the Grant / RootReleaseAck.
    SendResp,
    /// Grant pushed; waiting for the client's GrantAck.
    WaitGrantAck,
}

impl L2MshrState {
    /// Whether only an arrival (a memory response or a GrantAck) can
    /// advance this state: the MSHR step and `next_event` skip it.
    fn parked(self) -> bool {
        matches!(
            self,
            L2MshrState::VictimWriteWait
                | L2MshrState::MemReadWait
                | L2MshrState::DramWriteWait
                | L2MshrState::WaitGrantAck
        )
    }
}

#[derive(Clone, Copy, Debug)]
struct L2Mshr {
    addr: LineAddr,
    req: L2Req,
    state: L2MshrState,
    /// Probes sent but not yet acknowledged.
    pending_acks: usize,
    /// Probe targets not yet sent (agent ids).
    to_probe: u32,
    /// Capability the outstanding probes demand.
    probe_cap: Cap,
    /// Reserved L2 way for the request line (Acquire fills).
    way: Option<usize>,
    /// Victim line being evicted for inclusion.
    victim: Option<LineAddr>,
    /// Token of the outstanding memory request.
    token: u64,
    /// Snapshot written by an in-flight RootRelease DRAM write; the dirty
    /// bit is cleared on completion only if the banked store still holds
    /// exactly this data (newer merges must stay dirty).
    wrote: Option<LineData>,
}

/// An L2 MSHR slot: free (`None`) or live. Its codec writes the bytes of
/// the `Option<L2Mshr>` it wraps.
#[derive(Clone, Copy, Debug, Default)]
struct L2Slot(Option<L2Mshr>);

impl L2Slot {
    fn mshr(&self) -> &L2Mshr {
        self.0.as_ref().expect("occupied slot is live")
    }

    fn mshr_mut(&mut self) -> &mut L2Mshr {
        self.0.as_mut().expect("occupied slot is live")
    }
}

/// Slot class of a [parked](L2MshrState::parked) MSHR (class 0: live).
const PARKED: usize = 1;

impl SlotState for L2Slot {
    type State = L2MshrState;
    const CLASSES: &'static [&'static str] = &["l2 mshr occupied", "l2 mshr parked"];
    fn classes(&self) -> u32 {
        let parked = self.0.as_ref().is_some_and(|m| m.state.parked());
        u32::from(self.0.is_some()) | u32::from(parked) << PARKED
    }
    fn set_state(&mut self, state: L2MshrState) {
        self.mshr_mut().state = state;
    }
}

/// A TL-C request deferred because of an MSHR conflict or MSHR exhaustion
/// (the ListBuffer of §3.4).
#[derive(Clone, Copy, Debug)]
struct Deferred(ChannelC);

/// The inclusive L2 cache. See [module docs](self).
///
/// The L2 communicates with the L1s only through the [`L2Ports`] links —
/// no shared references into other components; the assertion below keeps
/// it movable across host threads, so a whole system can move to another
/// host thread.
#[derive(Debug)]
pub struct InclusiveCache {
    cfg: L2Config,
    arrays: SetAssocArray<DirEntry>,
    /// Stepped unparked; [`PARKED`] slots wait for a memory response or a
    /// GrantAck.
    mshrs: SlotFile<L2Slot>,
    /// One mask per L2 set: bit `i` of `set_claims[s]` is set iff live
    /// slot `i`'s line maps to set `s`. A slot's victim is always taken
    /// from its own line's set ([`Self::plan`]), so the one bit covers
    /// both addresses the slot can claim, and every per-line match walks
    /// only its set's bits. Kept in step by [`Self::occupy`] and
    /// [`Self::release`]; rebuilt on decode, never serialized.
    set_claims: Vec<u64>,
    /// The slots waiting for a memory response, in request order: the
    /// memory completes requests in acceptance order, so the front is the
    /// next response's slot. Host-only, rebuilt on decode (request order is
    /// token order).
    mem_order: HostOnly<VecDeque<usize>>,
    list_buffer: VecDeque<Deferred>,
    next_token: u64,
    stats: L2Stats,
    cores: usize,
    /// Event sink for MSHR allocation/retirement and §5.5 DRAM-write skips.
    sink: Option<TraceSink>,
    /// Adversarial MSHR-scheduling perturbation (None when rotation is off).
    perturb: Option<PerturbConfig>,
    /// Count of MSHR allocations; keys the rotation draw so it depends only
    /// on simulated state transitions, never on how often a cycle is probed.
    alloc_seq: u64,
}

/// Parallel-stepping audit: the L2 must be movable across host threads.
#[allow(dead_code)]
fn _assert_l2_send() {
    fn send<T: Send>() {}
    send::<InclusiveCache>();
}

impl InclusiveCache {
    /// Creates an L2 managing `cores` L1 clients.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or `cores` is 0 or exceeds 32 (the
    /// directory owner bitmask width).
    pub fn new(cores: usize, cfg: L2Config) -> Self {
        cfg.validate();
        assert!((1..=32).contains(&cores), "1..=32 cores supported");
        InclusiveCache {
            arrays: SetAssocArray::new(cfg.sets, cfg.ways),
            mshrs: SlotFile::new(cfg.mshrs),
            set_claims: vec![0; cfg.sets],
            mem_order: HostOnly(VecDeque::with_capacity(cfg.mshrs)),
            list_buffer: VecDeque::with_capacity(cfg.list_buffer_depth),
            next_token: 0,
            stats: L2Stats::default(),
            cores,
            sink: None,
            perturb: None,
            alloc_seq: 0,
            cfg,
        }
    }

    /// Enables seeded MSHR-scheduling perturbation: each allocation picks its
    /// slot starting from a pseudo-random rotation of the free-slot scan,
    /// which reorders the MSHR service walk relative to the deterministic
    /// lowest-free-slot policy. A no-op unless `cfg.mshr_rotation` is set.
    pub fn set_perturb(&mut self, cfg: PerturbConfig) {
        self.perturb = cfg.mshr_rotation.then_some(cfg);
    }

    /// The installed event sink, if any.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    /// The event-sink slot; MSHR lifecycle and §5.5 trivial-completion
    /// events emit into the sink installed here.
    pub fn trace_slot(&mut self) -> &mut Option<TraceSink> {
        &mut self.sink
    }

    /// Cumulative counters.
    pub fn stats(&self) -> L2Stats {
        self.stats
    }

    /// MSHRs currently live (telemetry gauge).
    pub fn mshr_occupancy(&self) -> usize {
        self.mshrs.occupancy()
    }

    /// Configuration.
    pub fn config(&self) -> &L2Config {
        &self.cfg
    }

    /// Whether no transaction is in flight (tests / quiesce detection).
    pub fn is_quiescent(&self) -> bool {
        self.mshrs.occupancy() == 0 && self.list_buffer.is_empty()
    }

    /// The live slots whose line (and so whose victim) maps to `addr`'s
    /// set: a superset of the slots that can hold `addr`.
    fn claims(&self, addr: LineAddr) -> u64 {
        self.set_claims[self.arrays.set_index(addr)]
    }

    /// Allocates free slot `slot` to `req` for `addr`, starting in its
    /// (unparked) `Access` state.
    fn occupy(&mut self, now: u64, slot: usize, addr: LineAddr, req: L2Req) {
        self.set_claims[self.arrays.set_index(addr)] |= 1 << slot;
        self.alloc_seq += 1;
        skipit_trace::trace!(
            self.sink,
            now,
            TraceEvent::L2MshrAlloc {
                slot,
                addr: addr.base(),
                op: match req {
                    L2Req::Acquire { .. } => "Acquire",
                    L2Req::RootRelease { .. } => "RootRelease",
                },
            }
        );
        let until = now + self.cfg.access_latency;
        self.mshrs.put(
            slot,
            L2Slot(Some(L2Mshr {
                addr,
                req,
                state: L2MshrState::Access { until },
                pending_acks: 0,
                to_probe: 0,
                probe_cap: Cap::ToN,
                way: None,
                victim: None,
                token: u64::MAX,
                wrote: None,
            })),
        );
    }

    /// Retires live slot `idx`.
    fn release(&mut self, now: u64, idx: usize) {
        let addr = self.mshrs[idx].mshr().addr;
        let event = TraceEvent::L2MshrFree {
            slot: idx,
            addr: addr.base(),
        };
        skipit_trace::trace!(self.sink, now, event);
        let set = self.arrays.set_index(addr);
        self.set_claims[set] &= !(1 << idx);
        self.mshrs.free(idx);
    }

    /// The set claims a scan of the live slots derives: each slot's bit in
    /// its line's set and in its victim's (the same set, see `plan`).
    fn scan_claims(&self) -> Vec<u64> {
        let mut claims = vec![0; self.set_claims.len()];
        for i in Slots(self.mshrs.occupied()) {
            let m = self.mshrs[i].mshr();
            for addr in std::iter::once(m.addr).chain(m.victim) {
                claims[self.arrays.set_index(addr)] |= 1 << i;
            }
        }
        claims
    }

    /// The memory-response order a scan of the slots derives: every slot
    /// waiting for memory, by token.
    fn scan_mem_order(&self) -> VecDeque<usize> {
        let mut waiting: Vec<(u64, usize)> = Slots(self.mshrs.mask(PARKED))
            .filter_map(|i| {
                let m = self.mshrs[i].mshr();
                (m.state != L2MshrState::WaitGrantAck).then_some((m.token, i))
            })
            .collect();
        waiting.sort_unstable();
        waiting.into_iter().map(|(_, i)| i).collect()
    }

    /// Checks the MSHR state masks against a scan of the slots, the set
    /// claims against the live slots' lines, and the memory-response order
    /// against the slots waiting for memory.
    pub fn check_slot_masks(&self) -> Result<(), String> {
        self.mshrs.check_masks()?;
        if self.set_claims != self.scan_claims() {
            return Err("l2 set claims disagree with the live mshrs".into());
        }
        if self.mem_order.0 != self.scan_mem_order() {
            return Err("l2 memory order disagrees with the slots waiting for memory".into());
        }
        Ok(())
    }

    /// Dirty bit of a resident line (`false` if absent) — test/debug helper.
    pub fn peek_dirty(&self, addr: LineAddr) -> bool {
        self.arrays
            .lookup(addr)
            .map(|w| self.arrays.meta(self.arrays.set_index(addr), w).dirty)
            .unwrap_or(false)
    }

    /// Whether a line is resident — test/debug helper.
    pub fn peek_valid(&self, addr: LineAddr) -> bool {
        self.arrays.lookup(addr).is_some()
    }

    /// Whether a line is resident *or* referenced by an active MSHR (as the
    /// transaction address or as an inclusive-eviction victim) — the
    /// invariant-oracle's notion of "the L2 still accounts for this line".
    /// Mid-transaction a line can be directory-invalid yet fully tracked
    /// (e.g. a victim between its last probe ack and the fill's
    /// re-installation); such a line is not an inclusion violation.
    pub fn peek_tracked(&self, addr: LineAddr) -> bool {
        self.peek_valid(addr) || self.mshr_conflict(addr)
    }

    fn mshr_conflict(&self, addr: LineAddr) -> bool {
        Slots(self.claims(addr)).any(|idx| {
            let m = self.mshrs[idx].mshr();
            m.addr == addr || m.victim == Some(addr)
        })
    }

    /// First free MSHR slot under the current scan rotation. A pure function
    /// of simulated state (`alloc_seq` advances only when a slot is actually
    /// allocated), so repeated calls within a cycle — including the
    /// [`Self::can_accept_acquire`] pre-check — agree on the answer.
    fn free_mshr(&self) -> Option<usize> {
        let start = match self.perturb {
            Some(cfg) => cfg.draw(L2_MSHR_SITE, self.alloc_seq, self.mshrs.len() as u64 - 1) as u32,
            None => 0,
        };
        self.mshrs.first_free(start)
    }

    /// Whether an Acquire for `addr` arriving this cycle would be sunk into
    /// an MSHR (rather than left in the channel A link by back-pressure).
    /// The event-driven scheduler uses this to avoid busy-waiting on a
    /// blocked Acquire: the MSHR transition that clears the conflict is an
    /// event of its own.
    pub fn can_accept_acquire(&self, addr: LineAddr) -> bool {
        self.mshr_for(addr).is_some()
    }

    /// The MSHR a request for `addr` would be allocated this cycle: none
    /// while another MSHR holds `addr` (as its line or its victim) or while
    /// every MSHR is busy.
    fn mshr_for(&self, addr: LineAddr) -> Option<usize> {
        if self.mshr_conflict(addr) {
            None
        } else {
            self.free_mshr()
        }
    }

    /// Conservative lower bound on the next cycle at which the L2 can change
    /// state on its own: directory-access completions, probe/response/DRAM
    /// issue work due now, or the memory controller's issue gate for MSHRs
    /// waiting to talk to DRAM. Wait states advanced only by TileLink or
    /// memory arrivals report nothing — the scheduler events those sources
    /// separately (channel C/E links, [`Dram::next_event`]).
    ///
    /// `b`/`d` are the outbound per-core links: a sender blocked on a full
    /// one is not an event (the L1's pop that frees the slot is evented
    /// through that link's head; the freed slot becomes usable at the next
    /// tick, which a re-evaluation then reports as `now`).
    pub fn next_event(
        &self,
        now: u64,
        mem: &Dram,
        b: &[Link<ChannelB>],
        d: &[Link<ChannelD>],
    ) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut merge = |t: u64| next = Some(next.map_or(t, |n| n.min(t)));
        for idx in Slots(self.mshrs.occupied() & !self.mshrs.mask(PARKED)) {
            let m = self.mshrs[idx].mshr();
            match m.state {
                L2MshrState::Access { until } => {
                    if until <= now {
                        return Some(now);
                    }
                    merge(until);
                }
                L2MshrState::VictimProbe | L2MshrState::OwnerProbe => {
                    // A fully acknowledged phase completes this cycle; unsent
                    // probes progress iff some target's channel B has room.
                    // Outstanding acks arrive on channel C (evented
                    // separately).
                    if m.to_probe == 0 && m.pending_acks == 0 {
                        return Some(now);
                    }
                    if Slots(u64::from(m.to_probe)).any(|a| b[a].can_push()) {
                        return Some(now);
                    }
                }
                // MemRead invalidates its victim unconditionally before
                // consulting the memory issue gate — that is progress even
                // while DRAM is busy.
                L2MshrState::MemRead if m.victim.is_some() => return Some(now),
                L2MshrState::VictimWrite | L2MshrState::MemRead | L2MshrState::DramWrite => {
                    let t = mem.next_accept(now);
                    if t <= now {
                        return Some(now);
                    }
                    merge(t);
                }
                L2MshrState::SendResp => {
                    let (L2Req::Acquire { source, .. } | L2Req::RootRelease { source, .. }) = m.req;
                    if d[source].can_push() {
                        return Some(now);
                    }
                }
                L2MshrState::VictimWriteWait
                | L2MshrState::MemReadWait
                | L2MshrState::DramWriteWait
                | L2MshrState::WaitGrantAck => unreachable!("parked slots are not walked"),
            }
        }
        if self
            .list_buffer
            .iter()
            .any(|&Deferred(msg)| self.can_accept_acquire(msg.addr()))
        {
            return Some(now);
        }
        next
    }

    /// Advances the L2 by one cycle.
    pub fn step(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        self.drain_mem(now, ports);
        self.drain_grant_acks(now, ports);
        self.drain_channel_c(now, ports);
        self.drain_list_buffer(now);
        self.accept_acquires(now, ports);
        self.step_mshrs(now, ports);
    }

    fn drain_mem(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        ports.mem.step(now);
        while let Some(resp) = ports.mem.pop_response() {
            let token = resp.token();
            let idx = match self.mem_order.0.pop_front() {
                Some(idx) if self.mshrs[idx].0.is_some_and(|m| m.token == token) => idx,
                _ => panic!("memory response with unknown token {token}"),
            };
            let m = self.mshrs[idx].mshr();
            let next = match (resp, m.state) {
                (MemResp::ReadDone { data, .. }, L2MshrState::MemReadWait) => {
                    let way = m.way.expect("fill way reserved");
                    let set = self.arrays.set_index(m.addr);
                    let reserved = self.arrays.meta(set, way).reserved;
                    self.arrays
                        .install(m.addr, way, DirEntry::filled(reserved), data);
                    self.stats.mem_fills += 1;
                    // A fresh fill has no owners to probe.
                    L2MshrState::SendResp
                }
                (MemResp::WriteDone { .. }, L2MshrState::VictimWriteWait) => L2MshrState::MemRead,
                (MemResp::WriteDone { .. }, L2MshrState::DramWriteWait) => {
                    // The written snapshot is durable; clear the dirty bit
                    // (§5.5) — unless newer dirty data was merged into the
                    // banked store while the write was in flight (a deferred
                    // same-line RootRelease's arrival merge): that data
                    // still needs its own trip.
                    if let Some(w) = self.arrays.lookup(m.addr) {
                        let set = self.arrays.set_index(m.addr);
                        if m.wrote == Some(self.arrays.line(set, w)) {
                            self.arrays.meta_mut(set, w).dirty = false;
                        }
                    }
                    L2MshrState::SendResp
                }
                (resp, state) => panic!("memory response {resp:?} in state {state:?}"),
            };
            self.mshrs.set_state(idx, next);
        }
    }

    fn drain_grant_acks(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        for core in 0..self.cores {
            while let Some(ChannelE::GrantAck { addr, .. }) = ports.e[core].pop(now) {
                let Some(idx) = Slots(self.claims(addr) & self.mshrs.mask(PARKED)).find(|&idx| {
                    let m = self.mshrs[idx].mshr();
                    m.addr == addr && m.state == L2MshrState::WaitGrantAck
                }) else {
                    panic!("GrantAck for {addr:?} without a waiting MSHR");
                };
                self.release(now, idx);
            }
        }
    }

    fn drain_channel_c(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        for core in 0..self.cores {
            // Process every arrived message unless the ListBuffer would
            // overflow (back-pressure stays in the link).
            // Not a `while let`: RootRelease may leave its message in the
            // link (back-pressure) and break out explicitly.
            #[allow(clippy::while_let_loop)]
            loop {
                let Some(&msg) = ports.c[core].peek(now) else {
                    break;
                };
                match msg {
                    ChannelC::ProbeAck {
                        source,
                        addr,
                        shrink,
                        data,
                    } => {
                        ports.c[core].pop(now);
                        self.handle_probe_ack(source, addr, shrink, data);
                    }
                    ChannelC::Release {
                        source,
                        addr,
                        shrink,
                        data,
                    } => {
                        ports.c[core].pop(now);
                        self.handle_release(source, addr, shrink, data);
                        ports.d[core].push(
                            now,
                            ChannelD::ReleaseAck {
                                target: source,
                                addr,
                                root: false,
                            },
                        );
                    }
                    ChannelC::RootRelease {
                        source,
                        addr,
                        kind,
                        data,
                    } => {
                        // §5.5: "If it contains dirty data, it is
                        // simultaneously written back to the BankedStore"
                        // — immediately on arrival, even if the request is
                        // buffered, so a racing Acquire can never grant
                        // stale data. The requester's directory state is
                        // updated at the same moment (a flush self-
                        // invalidated before sending).
                        let mut msg = msg;
                        if let Some(w) = self.arrays.lookup(addr) {
                            let set = self.arrays.set_index(addr);
                            if let Some(d) = data {
                                *self.arrays.line_mut(set, w) = d;
                                self.arrays.meta_mut(set, w).dirty = true;
                                msg = ChannelC::RootRelease {
                                    source,
                                    addr,
                                    kind,
                                    data: None,
                                };
                            }
                            if kind.invalidates() {
                                self.arrays.meta_mut(set, w).remove_owner(source);
                            } else if data.is_some() {
                                // Clean with data: the requester's copy is
                                // now clean; it keeps ownership.
                            }
                        }
                        if let Some(slot) = self.mshr_for(addr) {
                            ports.c[core].pop(now);
                            self.allocate_root_release(now, slot, msg);
                            continue;
                        }
                        if self.list_buffer.len() < self.cfg.list_buffer_depth {
                            ports.c[core].pop(now);
                            self.list_buffer.push_back(Deferred(msg));
                            self.stats.list_buffered += 1;
                        }
                        // ListBuffer full: leave the message in the link.
                        break;
                    }
                }
            }
        }
    }

    fn drain_list_buffer(&mut self, now: u64) {
        // Schedule, in order, every deferred request that an MSHR takes.
        let mut i = 0;
        while i < self.list_buffer.len() {
            let Deferred(msg) = self.list_buffer[i];
            if let Some(slot) = self.mshr_for(msg.addr()) {
                self.list_buffer.remove(i);
                self.allocate_root_release(now, slot, msg);
                continue;
            }
            i += 1;
        }
    }

    fn handle_probe_ack(
        &mut self,
        source: AgentId,
        addr: LineAddr,
        shrink: Shrink,
        data: Option<LineData>,
    ) {
        if let Some(w) = self.arrays.lookup(addr) {
            self.apply_shrink(addr, w, source, shrink, data);
        }
        // Route to the waiting MSHR: probes for a line come from exactly one
        // MSHR (per-line conflict serialization).
        let Some(idx) = Slots(self.claims(addr)).find(|&idx| {
            let m = self.mshrs[idx].mshr();
            (m.addr == addr || m.victim == Some(addr)) && m.pending_acks > 0
        }) else {
            panic!("ProbeAck for {addr:?} with no probing MSHR");
        };
        self.mshrs.slot_mut(idx).mshr_mut().pending_acks -= 1;
    }

    fn handle_release(
        &mut self,
        source: AgentId,
        addr: LineAddr,
        shrink: Shrink,
        data: Option<LineData>,
    ) {
        self.stats.releases += 1;
        let Some(w) = self.arrays.lookup(addr) else {
            // Inclusion means a released line is resident — unless the race
            // window where we just evicted it (the client's release crossed
            // our victim probe). Data, if any, was already captured by the
            // ProbeAck path of the victim flow; a voluntary release with
            // dirty data for a non-resident line cannot occur because the
            // victim flow waits for all acks before invalidating.
            assert!(
                data.is_none(),
                "dirty Release for non-resident line {addr:?}"
            );
            return;
        };
        self.apply_shrink(addr, w, source, shrink, data);
    }

    /// Updates the directory entry of resident line `addr` (way `w`) with a
    /// client's ProbeAck or Release: dirty data lands in the line, and the
    /// client loses its copy or its trunk as `shrink` says.
    fn apply_shrink(
        &mut self,
        addr: LineAddr,
        w: usize,
        source: AgentId,
        shrink: Shrink,
        data: Option<LineData>,
    ) {
        let set = self.arrays.set_index(addr);
        if let Some(d) = data {
            *self.arrays.line_mut(set, w) = d;
            self.arrays.meta_mut(set, w).dirty = true;
        }
        let e = self.arrays.meta_mut(set, w);
        if !shrink.keeps_copy() {
            e.remove_owner(source);
        } else if !shrink.keeps_trunk() && e.trunk == Some(source) {
            e.trunk = None;
        }
    }

    fn accept_acquires(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        for core in 0..self.cores {
            let Some(&ChannelA::AcquireBlock { source, addr, grow }) = ports.a[core].peek(now)
            else {
                continue;
            };
            let Some(slot) = self.mshr_for(addr) else {
                continue;
            };
            ports.a[core].pop(now);
            self.occupy(now, slot, addr, L2Req::Acquire { source, grow });
        }
    }

    fn allocate_root_release(&mut self, now: u64, slot: usize, msg: ChannelC) {
        let ChannelC::RootRelease {
            source,
            addr,
            kind,
            data,
        } = msg
        else {
            panic!("ListBuffer held a non-RootRelease message: {msg:?}");
        };
        self.occupy(now, slot, addr, L2Req::RootRelease { source, kind, data });
    }

    fn step_mshrs(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        // Nothing allocates a slot in this phase and only the visited slot
        // can change state or retire, so walking the mask as it stood on
        // entry visits exactly the slots a full scan would find live and
        // unparked; a parked slot has nothing to do until an arrival.
        for idx in Slots(self.mshrs.occupied() & !self.mshrs.mask(PARKED)) {
            match self.mshrs[idx].mshr().state {
                L2MshrState::Access { until } => {
                    if now >= until {
                        self.plan(now, idx);
                    }
                }
                L2MshrState::VictimProbe | L2MshrState::OwnerProbe => {
                    self.send_probes(now, idx, ports);
                    let m = self.mshrs.slot_mut(idx).mshr_mut();
                    if m.to_probe == 0 && m.pending_acks == 0 {
                        self.probes_complete(now, idx);
                    }
                }
                L2MshrState::VictimWrite => {
                    if ports.mem.can_accept(now) {
                        let m = self.mshrs.slot_mut(idx).mshr_mut();
                        let victim = m.victim.expect("victim set");
                        let set = self.arrays.set_index(victim);
                        let Some(w) = self.arrays.lookup(victim) else {
                            // Vanished between VictimProbe and here (another
                            // transaction wrote it out): skip to the fill.
                            self.mshrs.set_state(idx, L2MshrState::MemRead);
                            continue;
                        };
                        let data = self.arrays.line(set, w);
                        let wait = L2MshrState::VictimWriteWait;
                        self.request_mem(now, idx, ports.mem, wait, |token| MemReq::Write {
                            addr: victim,
                            data,
                            token,
                        });
                        self.stats.dirty_evictions += 1;
                    }
                }
                L2MshrState::MemRead => {
                    let m = self.mshrs.slot_mut(idx).mshr_mut();
                    // The victim (if any) is finished with: invalidate it so
                    // the fill can take the way.
                    if let Some(victim) = m.victim.take() {
                        if let Some(w) = self.arrays.lookup(victim) {
                            let set = self.arrays.set_index(victim);
                            let e = self.arrays.meta_mut(set, w);
                            e.valid = false;
                            e.dirty = false;
                            e.owners = 0;
                            e.trunk = None;
                        }
                    }
                    if ports.mem.can_accept(now) {
                        let addr = m.addr;
                        let wait = L2MshrState::MemReadWait;
                        self.request_mem(now, idx, ports.mem, wait, |token| MemReq::Read {
                            addr,
                            token,
                        });
                    }
                }
                L2MshrState::DramWrite => {
                    if ports.mem.can_accept(now) {
                        let m = self.mshrs.slot_mut(idx).mshr_mut();
                        // Resident: banked-store contents. Not resident (the
                        // eviction race): the data carried by the request.
                        let data = match self.arrays.lookup(m.addr) {
                            Some(w) => self.arrays.line(self.arrays.set_index(m.addr), w),
                            None => match m.req {
                                L2Req::RootRelease { data: Some(d), .. } => d,
                                _ => panic!("DramWrite for non-resident {:?} without data", m.addr),
                            },
                        };
                        m.wrote = Some(data);
                        let addr = m.addr;
                        let wait = L2MshrState::DramWriteWait;
                        self.request_mem(now, idx, ports.mem, wait, |token| MemReq::Write {
                            addr,
                            data,
                            token,
                        });
                        self.stats.root_release_dram_writes += 1;
                    }
                }
                L2MshrState::SendResp => self.send_response(now, idx, ports),
                L2MshrState::VictimWriteWait
                | L2MshrState::MemReadWait
                | L2MshrState::DramWriteWait
                | L2MshrState::WaitGrantAck => unreachable!("parked slots are not walked"),
            }
        }
    }

    /// Issues slot `idx`'s memory request (`req` of its token) under the
    /// next token and parks the slot in `wait` until the response.
    fn request_mem(
        &mut self,
        now: u64,
        idx: usize,
        mem: &mut Dram,
        wait: L2MshrState,
        req: impl FnOnce(u64) -> MemReq,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        self.mshrs.slot_mut(idx).mshr_mut().token = token;
        self.mshrs.set_state(idx, wait);
        self.mem_order.0.push_back(idx);
        mem.request(now, req(token));
    }

    /// First directory decision after the access latency.
    fn plan(&mut self, now: u64, idx: usize) {
        let m = self.mshrs[idx].mshr();
        let addr = m.addr;
        match m.req {
            L2Req::Acquire { source, grow } => {
                if let Some(w) = self.arrays.lookup(addr) {
                    let set = self.arrays.set_index(addr);
                    self.arrays.meta_mut(set, w).reserved = true;
                    self.arrays.touch(set, w);
                    let e = *self.arrays.meta(set, w);
                    let mm = self.mshrs.slot_mut(idx).mshr_mut();
                    mm.way = Some(w);
                    // Probe strategy (§2.2): writes revoke every other copy;
                    // reads only downgrade a foreign Trunk owner.
                    let (targets, cap) = if grow.wants_write() {
                        (e.owners & !(1 << source), Cap::ToN)
                    } else if let Some(t) = e.trunk.filter(|&t| t != source) {
                        (1 << t, Cap::ToB)
                    } else {
                        (0, Cap::ToB)
                    };
                    mm.to_probe = targets;
                    mm.probe_cap = cap;
                    self.mshrs.set_state(idx, L2MshrState::OwnerProbe);
                } else {
                    // Miss: reserve a way, evicting inclusively if needed.
                    let Some(w) = self.arrays.victim_way(addr) else {
                        return; // every way reserved; retry next cycle
                    };
                    let set = self.arrays.set_index(addr);
                    let victim_entry = *self.arrays.meta(set, w);
                    if victim_entry.valid && self.mshr_conflict(self.arrays.addr_of(set, w)) {
                        // The candidate victim is mid-transaction in another
                        // MSHR (e.g. a RootRelease about to invalidate it);
                        // retry once that transaction completes.
                        return;
                    }
                    self.arrays.meta_mut(set, w).reserved = true;
                    let mm = self.mshrs.slot_mut(idx).mshr_mut();
                    mm.way = Some(w);
                    if victim_entry.valid {
                        let victim = self.arrays.addr_of(set, w);
                        mm.victim = Some(victim);
                        mm.to_probe = victim_entry.owners;
                        mm.probe_cap = Cap::ToN;
                        self.mshrs.set_state(idx, L2MshrState::VictimProbe);
                        self.stats.evictions += 1;
                    } else {
                        self.mshrs.set_state(idx, L2MshrState::MemRead);
                    }
                }
            }
            L2Req::RootRelease { source, kind, data } => {
                let resident = self.arrays.lookup(addr);
                if let Some(w) = resident {
                    let set = self.arrays.set_index(addr);
                    if let Some(d) = data {
                        // Dirty data travels with the request and is written
                        // to the BankedStore (§5.5).
                        *self.arrays.line_mut(set, w) = d;
                        self.arrays.meta_mut(set, w).dirty = true;
                    }
                    if kind == WritebackKind::Flush {
                        // The requester invalidated its own copy before
                        // sending (§5.2 meta_write).
                        self.arrays.meta_mut(set, w).remove_owner(source);
                    } else if data.is_some() {
                        // Clean: the requester keeps the (now clean) copy;
                        // it no longer holds dirty data but retains Trunk.
                    }
                    let e = *self.arrays.meta(set, w);
                    // Probe strategy of §5.5: flush revokes every remaining
                    // owner; clean only downgrades a *foreign* write-
                    // permission owner.
                    let (targets, cap) = match kind {
                        WritebackKind::Flush | WritebackKind::Inval => (e.owners, Cap::ToN),
                        WritebackKind::Clean => {
                            if let Some(t) = e.trunk.filter(|&t| t != source) {
                                (1u32 << t, Cap::ToB)
                            } else {
                                (0, Cap::ToB)
                            }
                        }
                    };
                    let mm = self.mshrs.slot_mut(idx).mshr_mut();
                    mm.to_probe = targets;
                    mm.probe_cap = cap;
                    self.mshrs.set_state(idx, L2MshrState::OwnerProbe);
                } else if data.is_some() {
                    // Not resident but carrying dirty data: the L2 evicted
                    // the line while this RootRelease was in flight (the
                    // victim probe crossed it on the wire). The carried data
                    // is newer than the eviction's writeback — send it
                    // straight to DRAM.
                    self.mshrs.set_state(idx, L2MshrState::DramWrite);
                } else {
                    // Not resident, no data ⇒ (inclusion) no L1 holds it
                    // dirty ⇒ memory is already up to date: trivially
                    // complete (§5.5).
                    self.skip_dram_write(now, addr);
                    self.mshrs.set_state(idx, L2MshrState::SendResp);
                }
            }
        }
    }

    /// Completes a RootRelease for `addr` without its DRAM write (§5.5).
    fn skip_dram_write(&mut self, now: u64, addr: LineAddr) {
        self.stats.root_release_dram_skipped += 1;
        skipit_trace::trace!(
            self.sink,
            now,
            TraceEvent::DramWriteSkipped { addr: addr.base() }
        );
    }

    fn send_probes(&mut self, now: u64, idx: usize, ports: &mut L2Ports<'_>) {
        let m = self.mshrs.slot_mut(idx).mshr_mut();
        let addr = m.victim.unwrap_or(m.addr);
        for a in Slots(u64::from(m.to_probe)) {
            if !ports.b[a].can_push() {
                continue;
            }
            ports.b[a].push(
                now,
                ChannelB::Probe {
                    target: a,
                    addr,
                    cap: m.probe_cap,
                },
            );
            m.to_probe &= !(1 << a);
            m.pending_acks += 1;
            self.stats.probes_sent += 1;
        }
    }

    /// All probes for the current phase acknowledged.
    fn probes_complete(&mut self, now: u64, idx: usize) {
        let m = self.mshrs[idx].mshr();
        let next = match m.state {
            L2MshrState::VictimProbe => {
                let victim = m.victim.expect("victim set");
                // The victim may have been removed by a concurrent
                // transaction while we probed; nothing left to write back.
                let dirty = self
                    .arrays
                    .lookup(victim)
                    .is_some_and(|w| self.arrays.meta(self.arrays.set_index(victim), w).dirty);
                if dirty {
                    L2MshrState::VictimWrite
                } else {
                    L2MshrState::MemRead
                }
            }
            L2MshrState::OwnerProbe => match m.req {
                L2Req::Acquire { .. } => L2MshrState::SendResp,
                L2Req::RootRelease { kind, .. } => {
                    let addr = m.addr;
                    let set = self.arrays.set_index(addr);
                    let w = self.arrays.lookup(addr).expect("resident");
                    let dirty = self.arrays.meta(set, w).dirty;
                    // "The last level cache already catches and eliminates
                    // unnecessary writebacks by trivially checking its dirty
                    // bit" (§5.5). CBO.INVAL never writes back — collected
                    // dirty data is discarded.
                    if dirty && kind.writes_back() {
                        L2MshrState::DramWrite
                    } else {
                        if kind.writes_back() {
                            self.skip_dram_write(now, addr);
                        }
                        L2MshrState::SendResp
                    }
                }
            },
            other => panic!("probes_complete in state {other:?}"),
        };
        self.mshrs.set_state(idx, next);
    }

    fn send_response(&mut self, now: u64, idx: usize, ports: &mut L2Ports<'_>) {
        let m = self.mshrs[idx].mshr();
        let (addr, way) = (m.addr, m.way);
        match m.req {
            L2Req::Acquire { source, grow } => {
                if !ports.d[source].can_push() {
                    return;
                }
                let set = self.arrays.set_index(addr);
                let w = way.expect("way reserved");
                let e = *self.arrays.meta(set, w);
                let others = e.owners & !(1 << source);
                // Grant Trunk for writes, and opportunistically for sole
                // readers (MESI Exclusive).
                let is_trunk = grow.wants_write() || others == 0;
                let flavor = if e.dirty {
                    GrantFlavor::Dirty
                } else {
                    GrantFlavor::Clean
                };
                ports.d[source].push(
                    now,
                    ChannelD::Grant {
                        target: source,
                        addr,
                        is_trunk,
                        data: self.arrays.line(set, w),
                        flavor,
                    },
                );
                let e = self.arrays.meta_mut(set, w);
                e.add_owner(source, is_trunk);
                if !is_trunk && e.trunk == Some(source) {
                    e.trunk = None;
                }
                e.reserved = false;
                self.stats.acquires += 1;
                match flavor {
                    GrantFlavor::Clean => self.stats.grants_clean += 1,
                    GrantFlavor::Dirty => self.stats.grants_dirty += 1,
                }
                self.mshrs.set_state(idx, L2MshrState::WaitGrantAck);
            }
            L2Req::RootRelease { source, kind, .. } => {
                if !ports.d[source].can_push() {
                    return;
                }
                // A flush or inval removes the line from the whole coherent
                // hierarchy (§2.6) — unless a racing same-line RootRelease
                // merged newer dirty data while we completed (it sits
                // deferred in the ListBuffer and needs the entry to survive
                // until its own writeback; the invalidation is then its
                // job).
                if kind.invalidates() {
                    if let Some(w) = self.arrays.lookup(addr) {
                        let set = self.arrays.set_index(addr);
                        let keep_dirty = kind.writes_back() && self.arrays.meta(set, w).dirty;
                        if !keep_dirty {
                            let e = self.arrays.meta_mut(set, w);
                            debug_assert_eq!(e.owners, 0, "flush left owners behind");
                            e.valid = false;
                            e.dirty = false;
                            e.trunk = None;
                        }
                    }
                }
                ports.d[source].push(
                    now,
                    ChannelD::ReleaseAck {
                        target: source,
                        addr,
                        root: true,
                    },
                );
                match kind {
                    WritebackKind::Flush => self.stats.root_release_flush += 1,
                    WritebackKind::Clean => self.stats.root_release_clean += 1,
                    WritebackKind::Inval => self.stats.root_release_inval += 1,
                }
                self.release(now, idx);
            }
        }
    }
}

// --- snapshot codec (DESIGN.md §11) ---

use skipit_snap::{codec, Codec, SnapError, SnapReader, SnapWriter};

codec!(L2Req, "l2 request kind" {
    0 => Acquire { source, grow },
    1 => RootRelease { source, kind, data },
});

codec!(L2MshrState, "l2 mshr state" {
    0 => Access { until },
    1 => VictimProbe,
    2 => VictimWrite,
    3 => VictimWriteWait,
    4 => MemRead,
    5 => MemReadWait,
    6 => OwnerProbe,
    7 => DramWrite,
    8 => DramWriteWait,
    9 => SendResp,
    10 => WaitGrantAck,
});

codec!(L2Mshr {
    addr,
    req,
    state,
    pending_acks,
    to_probe,
    probe_cap,
    way,
    victim,
    token,
    wrote,
});

codec!(L2Slot { 0 });

codec!(Deferred { 0 });

impl InclusiveCache {
    /// Encodes the L2's complete simulated state: directory/data/LRU
    /// arrays, every live MSHR (the occupancy, parked and set-claim masks
    /// are re-derived on decode), the §3.4 list buffer, the memory-request
    /// token counter, the statistics, and the MSHR-allocation stamp that
    /// keys adversarial rotation draws. Configuration, trace sink and perturbation
    /// installation are host-side and excluded.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(0x4d);
        self.arrays.encode_state(w);
        self.mshrs.encode_state(w);
        self.list_buffer.encode(w);
        self.next_token.encode(w);
        self.stats.encode(w);
        self.alloc_seq.encode(w);
    }

    /// Overwrites the L2's simulated state from `r` (the inverse of
    /// [`InclusiveCache::encode_state`]); array geometry and MSHR count
    /// must match the configuration this cache was built with.
    pub fn decode_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(0x4d, "l2 section")?;
        self.arrays.decode_state(r)?;
        // An agent id indexes the per-core links and is shifted into the
        // `u32` probe masks: one at or past `cores` would index past the
        // links or overflow the shift.
        let out_of_range = |e: &DirEntry| {
            u64::from(e.owners) >> self.cores != 0 || e.trunk.is_some_and(|t| t >= self.cores)
        };
        if self.arrays.iter_valid().any(|(_, _, _, e)| out_of_range(e)) {
            return Err(SnapError::Corrupt("l2 directory agent out of range"));
        }
        self.mshrs.decode_state(r, "l2 mshr count")?;
        for m in self.mshrs.iter().flat_map(|s| &s.0) {
            let set = self.arrays.set_index(m.addr);
            if m.victim.is_some_and(|v| self.arrays.set_index(v) != set) {
                return Err(SnapError::Corrupt("l2 mshr victim outside its line's set"));
            }
            if let Some(way) = m.way {
                self.arrays
                    .check_way(set, way, "l2 mshr way out of range")?;
            }
            let (L2Req::Acquire { source, .. } | L2Req::RootRelease { source, .. }) = m.req;
            if source >= self.cores || u64::from(m.to_probe) >> self.cores != 0 {
                return Err(SnapError::Corrupt("l2 mshr agent out of range"));
            }
        }
        self.set_claims = self.scan_claims();
        self.mem_order.0 = self.scan_mem_order();
        self.list_buffer = VecDeque::decode(r)?;
        if self.list_buffer.iter().any(|d| d.0.source() >= self.cores) {
            return Err(SnapError::Corrupt("l2 list buffer agent out of range"));
        }
        self.next_token = u64::decode(r)?;
        self.stats = L2Stats::decode(r)?;
        self.alloc_seq = u64::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipit_mem::DramConfig;

    struct Harness {
        l2: InclusiveCache,
        a: Vec<Link<ChannelA>>,
        b: Vec<Link<ChannelB>>,
        c: Vec<Link<ChannelC>>,
        d: Vec<Link<ChannelD>>,
        e: Vec<Link<ChannelE>>,
        mem: Dram,
        now: u64,
    }

    impl Harness {
        fn new(cores: usize) -> Self {
            Harness {
                l2: InclusiveCache::new(cores, L2Config::default()),
                a: (0..cores).map(|_| Link::new(1, 8)).collect(),
                b: (0..cores).map(|_| Link::new(1, 8)).collect(),
                c: (0..cores).map(|_| Link::new(1, 8)).collect(),
                d: (0..cores).map(|_| Link::new(1, 8)).collect(),
                e: (0..cores).map(|_| Link::new(1, 8)).collect(),
                mem: Dram::new(DramConfig {
                    read_latency: 10,
                    write_latency: 10,
                    issue_interval: 1,
                }),
                now: 0,
            }
        }

        fn step(&mut self) {
            let mut ports = L2Ports {
                a: &mut self.a,
                b: &mut self.b,
                c: &mut self.c,
                d: &mut self.d,
                e: &mut self.e,
                mem: &mut self.mem,
            };
            self.l2.step(self.now, &mut ports);
            self.l2.check_slot_masks().unwrap();
            self.now += 1;
        }

        /// Steps until core `core` receives a D message, auto-answering any
        /// probes with `probe_reply`.
        fn await_d(
            &mut self,
            core: usize,
            mut probe_reply: impl FnMut(ChannelB) -> ChannelC,
        ) -> ChannelD {
            for _ in 0..500 {
                self.step();
                for b_core in 0..self.b.len() {
                    while let Some(p) = self.b[b_core].pop(self.now) {
                        let reply = probe_reply(p);
                        self.c[b_core].push(self.now, reply);
                    }
                }
                if let Some(msg) = self.d[core].pop(self.now) {
                    return msg;
                }
            }
            panic!("no D response for core {core}");
        }

        fn acquire(&mut self, core: usize, addr: LineAddr, grow: Grow) -> ChannelD {
            self.a[core].push(
                self.now,
                ChannelA::AcquireBlock {
                    source: core,
                    addr,
                    grow,
                },
            );
            let resp = self.await_d(core, |p| {
                let ChannelB::Probe { target, addr, cap } = p;
                ChannelC::ProbeAck {
                    source: target,
                    addr,
                    shrink: match cap {
                        Cap::ToN => Shrink::BtoN,
                        Cap::ToB => Shrink::TtoB,
                        Cap::ToT => Shrink::TtoT,
                    },
                    data: None,
                }
            });
            self.e[core].push(self.now, ChannelE::GrantAck { source: core, addr });
            self.step();
            self.step();
            resp
        }

        fn root_release(
            &mut self,
            core: usize,
            addr: LineAddr,
            kind: WritebackKind,
            data: Option<LineData>,
        ) -> ChannelD {
            self.c[core].push(
                self.now,
                ChannelC::RootRelease {
                    source: core,
                    addr,
                    kind,
                    data,
                },
            );
            self.await_d(core, |p| {
                let ChannelB::Probe { target, addr, cap } = p;
                ChannelC::ProbeAck {
                    source: target,
                    addr,
                    shrink: match cap {
                        Cap::ToN => Shrink::BtoN,
                        Cap::ToB => Shrink::BtoB,
                        Cap::ToT => Shrink::TtoT,
                    },
                    data: None,
                }
            })
        }
    }

    #[test]
    fn decoded_state_rebuilds_the_occupancy_and_parked_masks() {
        let mut h = Harness::new(2);
        h.acquire(0, line(6), Grow::NtoT);
        // Fill every way of line 100's set with lines core 0 holds.
        let sets = L2Config::default().sets as u64;
        for k in 0..8 {
            h.acquire(0, line(100 + k * sets), Grow::NtoT);
        }
        // An Acquire held on an unanswered probe and a miss evicting one of
        // those lines, its victim probe unanswered (both unparked), a fill
        // waiting on DRAM and a RootRelease waiting on its DRAM write
        // (parked).
        h.a[1].push(
            h.now,
            ChannelA::AcquireBlock {
                source: 1,
                addr: line(6),
                grow: Grow::NtoB,
            },
        );
        h.a[0].push(
            h.now,
            ChannelA::AcquireBlock {
                source: 0,
                addr: line(9),
                grow: Grow::NtoB,
            },
        );
        h.a[0].push(
            h.now,
            ChannelA::AcquireBlock {
                source: 0,
                addr: line(100 + 8 * sets),
                grow: Grow::NtoB,
            },
        );
        h.c[0].push(
            h.now,
            ChannelC::RootRelease {
                source: 0,
                addr: line(40),
                kind: WritebackKind::Flush,
                data: Some(data(3)),
            },
        );
        for _ in 0..14 {
            h.step();
        }
        let states: Vec<_> =
            h.l2.mshrs
                .iter()
                .flat_map(|s| s.0)
                .map(|m| m.state)
                .collect();
        assert_eq!(
            states,
            [
                L2MshrState::MemReadWait,
                L2MshrState::OwnerProbe,
                L2MshrState::VictimProbe,
                L2MshrState::DramWriteWait
            ]
        );
        let mut w = SnapWriter::new();
        h.l2.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = InclusiveCache::new(2, L2Config::default());
        fresh.decode_state(&mut SnapReader::new(&bytes)).unwrap();
        fresh.check_slot_masks().unwrap();
        let masks = |l2: &InclusiveCache| (l2.mshrs.occupied(), l2.mshrs.mask(PARKED));
        assert_eq!(masks(&fresh), masks(&h.l2));
        assert_eq!(masks(&fresh), (0b1111, 0b1001));
        assert_eq!(fresh.set_claims, h.l2.set_claims);
        assert_eq!(fresh.claims(line(100)), 0b0100);
    }

    /// Runs a script that leaves one slot waiting on a DRAM read and three
    /// part-way through their access latency: two Acquires and, between
    /// them, a RootRelease whose data took four beats on channel C.
    fn mid_access_harness() -> Harness {
        let mut h = Harness::new(2);
        let acquire = |h: &mut Harness, core: usize, n: u64| {
            let msg = ChannelA::AcquireBlock {
                source: core,
                addr: line(n),
                grow: Grow::NtoT,
            };
            h.a[core].push(h.now, msg);
        };
        acquire(&mut h, 0, 1);
        for _ in 0..8 {
            h.step();
        }
        acquire(&mut h, 1, 2);
        h.c[0].push(
            h.now,
            ChannelC::RootRelease {
                source: 0,
                addr: line(3),
                kind: WritebackKind::Flush,
                data: Some(data(3)),
            },
        );
        for _ in 0..4 {
            h.step();
        }
        acquire(&mut h, 0, 4);
        for _ in 0..2 {
            h.step();
        }
        h
    }

    /// A snapshot taken while slots wait out their access latency decodes
    /// into the same memory order, and the decoded L2 then steps exactly
    /// like the original.
    #[test]
    fn decoded_mid_access_l2_steps_alongside_the_original() {
        let mut h = mid_access_harness();
        let access = |l2: &InclusiveCache| {
            Slots(l2.mshrs.occupied())
                .filter_map(|i| match l2.mshrs[i].mshr().state {
                    L2MshrState::Access { until } => Some((until, i)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(access(&h.l2), [(15, 1), (18, 2), (19, 3)]);
        assert_eq!(h.l2.mem_order.0, [0]);
        let mut w = SnapWriter::new();
        h.l2.encode_state(&mut w);
        let mut twin = mid_access_harness();
        twin.l2 = InclusiveCache::new(2, L2Config::default());
        twin.l2
            .decode_state(&mut SnapReader::new(&w.into_bytes()))
            .unwrap();
        twin.l2.check_slot_masks().unwrap();
        assert_eq!(access(&twin.l2), access(&h.l2));
        assert_eq!(twin.l2.mem_order.0, h.l2.mem_order.0);
        let state = |h: &Harness| {
            let mut w = SnapWriter::new();
            h.l2.encode_state(&mut w);
            (w.into_bytes(), format!("{:?}{:?}{:?}", h.b, h.d, h.mem))
        };
        for _ in 0..40 {
            let next = h.l2.next_event(h.now, &h.mem, &h.b, &h.d);
            assert_eq!(
                twin.l2.next_event(twin.now, &twin.mem, &twin.b, &twin.d),
                next
            );
            h.step();
            twin.step();
            assert_eq!(state(&twin), state(&h), "decoded L2 diverged at {}", h.now);
        }
        assert!(access(&h.l2).is_empty(), "every access came due");
    }

    /// The memory order's mirror check names an order that disagrees with
    /// the slots waiting for memory.
    #[test]
    fn check_slot_masks_catches_a_stale_memory_order() {
        let mut h = mid_access_harness();
        h.l2.mem_order.0.clear();
        assert!(h
            .l2
            .check_slot_masks()
            .unwrap_err()
            .contains("memory order"));
    }

    /// The set-claim masks rely on a slot's victim sharing its line's set,
    /// so a snapshot that breaks the rule is refused, not decoded into
    /// masks that miss the victim.
    #[test]
    fn decode_rejects_a_victim_outside_its_lines_set() {
        let mut l2 = InclusiveCache::new(1, L2Config::default());
        l2.occupy(
            0,
            0,
            line(1),
            L2Req::Acquire {
                source: 0,
                grow: Grow::NtoB,
            },
        );
        l2.mshrs.slot_mut(0).mshr_mut().victim = Some(line(2));
        let mut w = SnapWriter::new();
        l2.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = InclusiveCache::new(1, L2Config::default());
        assert_eq!(
            fresh.decode_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("l2 mshr victim outside its line's set"))
        );
    }

    /// Probe targets and deferred requests naming a core past the L2 are
    /// refused as an MSHR's own source is (tier-1 `tests/snapshot.rs`).
    #[test]
    fn decode_rejects_probe_targets_and_deferred_sources_out_of_range() {
        let decode = |l2: &InclusiveCache| {
            let mut w = SnapWriter::new();
            l2.encode_state(&mut w);
            let bytes = w.into_bytes();
            InclusiveCache::new(2, L2Config::default()).decode_state(&mut SnapReader::new(&bytes))
        };
        let mut l2 = InclusiveCache::new(2, L2Config::default());
        let req = L2Req::Acquire {
            source: 1,
            grow: Grow::NtoB,
        };
        l2.occupy(0, 0, line(1), req);
        l2.mshrs.slot_mut(0).mshr_mut().to_probe = 0b11;
        assert_eq!(decode(&l2), Ok(()));
        l2.mshrs.slot_mut(0).mshr_mut().to_probe = 0b100;
        let corrupt = |site| Err(SnapError::Corrupt(site));
        assert_eq!(decode(&l2), corrupt("l2 mshr agent out of range"));
        l2.release(0, 0);
        l2.list_buffer.push_back(Deferred(ChannelC::RootRelease {
            source: 2,
            addr: line(3),
            kind: WritebackKind::Flush,
            data: None,
        }));
        assert_eq!(decode(&l2), corrupt("l2 list buffer agent out of range"));
    }

    /// Decodes into a fresh 2-core L2 the snapshot of one whose line 1
    /// has the directory entry `dir` leaves it with.
    fn decode_directory(dir: impl FnOnce(&mut DirEntry)) -> Result<(), SnapError> {
        let mut l2 = InclusiveCache::new(2, L2Config::default());
        let set = l2.arrays.set_index(line(1));
        l2.arrays
            .install(line(1), 0, DirEntry::filled(false), LineData::zeroed());
        dir(l2.arrays.meta_mut(set, 0));
        let mut w = SnapWriter::new();
        l2.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = InclusiveCache::new(2, L2Config::default());
        fresh.decode_state(&mut SnapReader::new(&bytes))
    }

    #[test]
    fn decode_accepts_directory_agents_in_range() {
        let both = |e: &mut DirEntry| {
            e.add_owner(0, false);
            e.add_owner(1, true);
        };
        assert_eq!(decode_directory(both), Ok(()));
    }

    /// A Trunk agent past the cores would overflow the read-Acquire and
    /// clean-RootRelease probe shift.
    #[test]
    fn decode_rejects_a_trunk_agent_out_of_range() {
        assert_eq!(
            decode_directory(|e| e.trunk = Some(40)),
            Err(SnapError::Corrupt("l2 directory agent out of range"))
        );
    }

    /// An owner bit past the cores would enter a probe mask that no probe
    /// walk sends, so its MSHR would never drain.
    #[test]
    fn decode_rejects_an_owner_bit_out_of_range() {
        assert_eq!(
            decode_directory(|e| e.owners |= 1 << 5),
            Err(SnapError::Corrupt("l2 directory agent out of range"))
        );
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n * 64)
    }

    fn data(seed: u64) -> LineData {
        let mut d = LineData::zeroed();
        d.set_word(0, seed);
        d
    }

    #[test]
    fn acquire_miss_fills_from_memory_and_grants_trunk() {
        let mut h = Harness::new(1);
        h.mem.write_direct(line(5), data(77));
        let resp = h.acquire(0, line(5), Grow::NtoB);
        match resp {
            ChannelD::Grant {
                is_trunk,
                data: d,
                flavor,
                ..
            } => {
                assert!(is_trunk, "sole reader gets Exclusive");
                assert_eq!(d.word(0), 77);
                assert_eq!(flavor, GrantFlavor::Clean, "fresh fill is persisted");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.l2.stats().mem_fills, 1);
        assert!(h.l2.is_quiescent());
    }

    #[test]
    fn second_reader_gets_branch() {
        let mut h = Harness::new(2);
        h.acquire(0, line(5), Grow::NtoB);
        let resp = h.acquire(1, line(5), Grow::NtoB);
        match resp {
            ChannelD::Grant { is_trunk, .. } => {
                assert!(!is_trunk, "second sharer must get Branch")
            }
            other => panic!("unexpected {other:?}"),
        }
        // Core 0 held Trunk (E) → must have been probed ToB.
        assert!(h.l2.stats().probes_sent >= 1);
    }

    #[test]
    fn write_acquire_revokes_other_owner() {
        let mut h = Harness::new(2);
        h.acquire(0, line(9), Grow::NtoB);
        let resp = h.acquire(1, line(9), Grow::NtoT);
        match resp {
            ChannelD::Grant { is_trunk, .. } => assert!(is_trunk),
            other => panic!("unexpected {other:?}"),
        }
        assert!(h.l2.stats().probes_sent >= 1);
    }

    #[test]
    fn root_release_clean_with_data_writes_dram_and_keeps_line() {
        let mut h = Harness::new(1);
        h.acquire(0, line(7), Grow::NtoT);
        let resp = h.root_release(0, line(7), WritebackKind::Clean, Some(data(42)));
        assert!(matches!(resp, ChannelD::ReleaseAck { root: true, .. }));
        assert_eq!(h.mem.read_direct(line(7)), data(42), "data must be durable");
        assert!(h.l2.peek_valid(line(7)), "clean keeps the L2 copy");
        assert!(!h.l2.peek_dirty(line(7)));
        assert_eq!(h.l2.stats().root_release_clean, 1);
        assert_eq!(h.l2.stats().root_release_dram_writes, 1);
    }

    #[test]
    fn root_release_flush_invalidates_l2_copy() {
        let mut h = Harness::new(1);
        h.acquire(0, line(8), Grow::NtoT);
        let resp = h.root_release(0, line(8), WritebackKind::Flush, Some(data(13)));
        assert!(matches!(resp, ChannelD::ReleaseAck { root: true, .. }));
        assert_eq!(h.mem.read_direct(line(8)), data(13));
        assert!(!h.l2.peek_valid(line(8)), "flush removes the L2 copy");
        assert_eq!(h.l2.stats().root_release_flush, 1);
    }

    #[test]
    fn redundant_root_release_trivially_skips_dram() {
        let mut h = Harness::new(1);
        h.acquire(0, line(7), Grow::NtoT);
        h.root_release(0, line(7), WritebackKind::Clean, Some(data(1)));
        let writes_before = h.mem.stats().writes;
        // Second clean: nothing dirty anywhere → no DRAM write (§5.5).
        h.root_release(0, line(7), WritebackKind::Clean, None);
        assert_eq!(h.mem.stats().writes, writes_before);
        assert_eq!(h.l2.stats().root_release_dram_skipped, 1);
    }

    #[test]
    fn root_release_for_unknown_line_acks_without_memory_traffic() {
        let mut h = Harness::new(1);
        let resp = h.root_release(0, line(100), WritebackKind::Flush, None);
        assert!(matches!(resp, ChannelD::ReleaseAck { root: true, .. }));
        assert_eq!(h.mem.stats().writes, 0);
        assert_eq!(h.l2.stats().root_release_dram_skipped, 1);
    }

    #[test]
    fn grant_flavor_tracks_l2_dirty_bit() {
        let mut h = Harness::new(2);
        // Core 0 writes the line and evicts it dirty into L2.
        h.acquire(0, line(3), Grow::NtoT);
        h.c[0].push(
            h.now,
            ChannelC::Release {
                source: 0,
                addr: line(3),
                shrink: Shrink::TtoN,
                data: Some(data(9)),
            },
        );
        // Wait for the ReleaseAck.
        let ack = h.await_d(0, |_| panic!("no probes expected"));
        assert!(matches!(ack, ChannelD::ReleaseAck { root: false, .. }));
        assert!(h.l2.peek_dirty(line(3)));
        // Core 1 acquires: line is dirty in L2 → GrantDataDirty (§6.1).
        let resp = h.acquire(1, line(3), Grow::NtoB);
        match resp {
            ChannelD::Grant {
                flavor, data: d, ..
            } => {
                assert_eq!(flavor, GrantFlavor::Dirty);
                assert_eq!(d.word(0), 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.l2.stats().grants_dirty, 1);
    }

    #[test]
    fn release_updates_directory_and_data() {
        let mut h = Harness::new(1);
        h.acquire(0, line(4), Grow::NtoT);
        h.c[0].push(
            h.now,
            ChannelC::Release {
                source: 0,
                addr: line(4),
                shrink: Shrink::TtoN,
                data: Some(data(5)),
            },
        );
        let ack = h.await_d(0, |_| panic!("no probes expected"));
        assert!(matches!(ack, ChannelD::ReleaseAck { root: false, .. }));
        assert!(h.l2.peek_dirty(line(4)));
        assert_eq!(h.l2.stats().releases, 1);
    }

    #[test]
    fn inclusive_eviction_probes_owner_and_writes_back() {
        // Tiny L2 (2 sets × 1 way) forces an eviction on the second line.
        let mut h = Harness {
            l2: InclusiveCache::new(
                1,
                L2Config {
                    sets: 2,
                    ways: 1,
                    ..L2Config::default()
                },
            ),
            ..Harness::new(1)
        };
        h.acquire(0, line(0), Grow::NtoT);
        // Same set (stride 2 lines), forces eviction of line 0, which core 0
        // owns dirty: the probe reply carries data.
        h.a[0].push(
            h.now,
            ChannelA::AcquireBlock {
                source: 0,
                addr: line(2),
                grow: Grow::NtoT,
            },
        );
        let resp = h.await_d(0, |p| {
            let ChannelB::Probe { target, addr, cap } = p;
            assert_eq!(addr, line(0), "victim line must be probed");
            assert_eq!(cap, Cap::ToN);
            ChannelC::ProbeAck {
                source: target,
                addr,
                shrink: Shrink::TtoN,
                data: Some(data(66)),
            }
        });
        assert!(matches!(resp, ChannelD::Grant { .. }));
        assert_eq!(h.mem.read_direct(line(0)), data(66));
        assert_eq!(h.l2.stats().evictions, 1);
        assert_eq!(h.l2.stats().dirty_evictions, 1);
    }

    #[test]
    fn conflicting_root_release_defers_to_list_buffer() {
        let mut h = Harness::new(2);
        h.acquire(0, line(6), Grow::NtoT);
        // Start an acquire from core 1 (will probe core 0) but do not answer
        // the probe yet; meanwhile a RootRelease for the same line arrives.
        h.a[1].push(
            h.now,
            ChannelA::AcquireBlock {
                source: 1,
                addr: line(6),
                grow: Grow::NtoB,
            },
        );
        for _ in 0..30 {
            h.step();
        }
        h.c[0].push(
            h.now,
            ChannelC::RootRelease {
                source: 0,
                addr: line(6),
                kind: WritebackKind::Clean,
                data: None,
            },
        );
        for _ in 0..10 {
            h.step();
        }
        assert_eq!(h.l2.stats().list_buffered, 1);
        // Now answer the probe; both transactions must complete.
        while let Some(ChannelB::Probe { target, addr, .. }) = h.b[0].pop(h.now) {
            h.c[0].push(
                h.now,
                ChannelC::ProbeAck {
                    source: target,
                    addr,
                    shrink: Shrink::TtoB,
                    data: Some(data(2)),
                },
            );
        }
        let g = h.await_d(1, |_| panic!("probe already answered"));
        assert!(matches!(g, ChannelD::Grant { .. }));
        h.e[1].push(
            h.now,
            ChannelE::GrantAck {
                source: 1,
                addr: line(6),
            },
        );
        let ack = h.await_d(0, |p| {
            let ChannelB::Probe { target, addr, cap } = p;
            ChannelC::ProbeAck {
                source: target,
                addr,
                shrink: match cap {
                    Cap::ToB => Shrink::BtoB,
                    Cap::ToN => Shrink::BtoN,
                    Cap::ToT => Shrink::TtoT,
                },
                data: None,
            }
        });
        assert!(matches!(ack, ChannelD::ReleaseAck { root: true, .. }));
    }
}
