//! The cycle-stepped multicore system: N BOOM-style cores with private L1
//! data caches, a shared inclusive L2, and DRAM (the §7.1 platform).

use crate::handle::{Cmd, CoreHandle, Mailbox, Resp};
use crate::lsu::Lsu;
use crate::op::{Op, OpToken};
use crate::workload::{CapturedOp, Programs, RunReport, TimedOp, Workload};
use skipit_dcache::{DataCache, L1Config, L1Stats};
use skipit_llc::{InclusiveCache, L2Config, L2Ports, L2Stats};
use skipit_mem::{Dram, DramConfig, MemStats};
use skipit_tilelink::perturb::link_site;
use skipit_tilelink::{ChannelA, ChannelB, ChannelC, ChannelD, ChannelE, Link, PerturbConfig};
use skipit_trace::{
    CoreCounters, StreamEvent, Telemetry, TelemetryCounters, TraceConfig, TraceEvent, TraceSink,
    DEFAULT_TELEMETRY_CAPACITY,
};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Which simulation engine advances the clock. Both engines produce
/// bit-identical elapsed cycles, statistics, durable memory images and
/// trace-event streams (modulo [`TraceEvent::is_engine_event`] jump
/// markers); they differ only in host time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// One full component sweep per simulated cycle — the reference engine.
    Naive,
    /// Per-component delta-stepping: every subsystem registers its own
    /// due-cycle in an event wheel and is stepped only when due, even while
    /// other components are busy. Cross-component handoffs (TileLink
    /// pushes/pops, probe interlocks, frontend issue) re-arm the receiver's
    /// slot as they happen, so no planning pass walks idle components. See
    /// DESIGN.md §5 "Clocking".
    #[default]
    ComponentWheel,
}

/// Configuration of the whole simulated SoC.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Number of cores (each with a private L1 D-cache).
    pub cores: usize,
    /// Per-core L1 configuration (including the Skip It switch).
    pub l1: L1Config,
    /// Shared L2 configuration.
    pub l2: L2Config,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Simulation engine. Elapsed cycles and statistics are bit-identical
    /// across all variants; [`EngineKind::Naive`] reproduces the reference
    /// one-cycle-at-a-time stepping.
    pub engine: EngineKind,
    /// Debug aid for the component wheel: re-verify every claimed-idle
    /// window with the naive engine (panicking on the first cycle whose
    /// state differs from the window start), and recheck every skipped
    /// component's due-bound each executed cycle (a missed wake edge
    /// panics). Expensive — intended for tests.
    pub lockstep_oracle: bool,
    /// Seeded adversarial perturbation (arbitration jitter on the TileLink
    /// channels, flush-dispatch hold-off, L2 MSHR rotation). The default is
    /// inert: every delay amplitude zero, rotation off — the system is then
    /// bit-identical to an unperturbed one. See
    /// [`skipit_tilelink::PerturbConfig`].
    pub perturb: PerturbConfig,
}

impl Default for SystemConfig {
    /// The paper's evaluation platform (§7.1): dual-core, 32 KiB L1s,
    /// 512 KiB shared L2.
    fn default() -> Self {
        SystemConfig {
            cores: 2,
            l1: L1Config::default(),
            l2: L2Config::default(),
            dram: DramConfig::default(),
            engine: EngineKind::default(),
            lockstep_oracle: false,
            perturb: PerturbConfig::default(),
        }
    }
}

/// Counters of the event-driven engine itself (host-side bookkeeping, not
/// part of the simulated machine's statistics — [`SystemStats`] is identical
/// whether or not fast-forwarding is enabled).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Simulated cycles the engine never executed (jumped over).
    pub skipped_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub jumps: u64,
    /// Component steps the wheel actually executed (the L2+DRAM pair
    /// counts as one component, each core's L1+LSU pair as one; frontends
    /// are excluded — they run every executed cycle).
    pub component_steps: u64,
    /// Component-step opportunities the naive engine would have burned:
    /// `1 + cores` per simulated cycle, jumped-over cycles included.
    pub component_slots: u64,
    /// Host wall-time attribution of the wheel's per-cycle phases (all
    /// zero unless the `profile` feature is compiled in).
    pub phase: PhaseProfile,
}

/// Equality deliberately ignores [`EngineStats::phase`]: wall-time
/// attribution is a property of the *host run*, not of the simulated
/// machine, and the cross-engine bit-identity contracts compare
/// `EngineStats` values.
impl PartialEq for EngineStats {
    fn eq(&self, other: &Self) -> bool {
        (
            self.skipped_cycles,
            self.jumps,
            self.component_steps,
            self.component_slots,
        ) == (
            other.skipped_cycles,
            other.jumps,
            other.component_steps,
            other.component_slots,
        )
    }
}

impl Eq for EngineStats {}

/// Per-phase host wall-time attribution of the component wheel (the
/// `profile` feature; see [`crate::prof`]). An executed wheel cycle has
/// three phases in fixed order — the L2+DRAM step, the core slots, and the
/// frontend sweep.
///
/// All fields are zero when the `profile` feature is compiled out (the
/// default), when the naive engine ran, or before any cycle executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Wall nanoseconds in the L2 + DRAM phase (includes the wake-edge
    /// scan and the L2 slot re-arm).
    pub serial_ns: u64,
    /// Wall nanoseconds in the core-slot loop.
    pub core_ns: u64,
    /// Wall nanoseconds in the frontend sweep + slot re-arms.
    pub frontend_ns: u64,
}

impl PhaseProfile {
    /// Total attributed busy-cycle wall time.
    pub fn total_ns(&self) -> u64 {
        self.serial_ns + self.core_ns + self.frontend_ns
    }

    /// Share of the busy-cycle loop spent outside the core slots:
    /// `(serial_ns + frontend_ns) / total_ns`. `None` until any phase time
    /// was recorded.
    pub fn serial_fraction(&self) -> Option<f64> {
        let total = self.total_ns();
        (total > 0).then(|| (self.serial_ns + self.frontend_ns) as f64 / total as f64)
    }
}

impl EngineStats {
    /// Percentage of component-step work skipped — the per-component
    /// generalization of whole-cycle `skipped_cycles`: a cycle where only
    /// the L2 steps on an 8-core system skips 8 of 9 slots even though the
    /// cycle itself executed. `None` until the component wheel has run.
    pub fn component_skipped_pct(&self) -> Option<f64> {
        (self.component_slots > 0)
            .then(|| 100.0 * (1.0 - self.component_steps as f64 / self.component_slots as f64))
    }
}

/// Due-cycle sentinel: no self-driven event; only a wake edge (or an
/// external worker command) can re-arm the slot.
const NEVER: u64 = u64::MAX;

/// A busy-streaking slot recomputes its real `next_event` bound on each of
/// its first `WHEEL_EAGER_PROBES` consecutive steps (so a slot that wakes,
/// acts once and has nothing further to do goes straight back to sleep) …
const WHEEL_EAGER_PROBES: u32 = 2;

/// … and every `WHEEL_PROBE_PERIOD` steps thereafter. Between probes the
/// slot is simply re-armed for the next cycle, which is always safe —
/// stepping a component with nothing to do is exactly what the naive
/// engine does everywhere, every cycle — and skips the expensive bound
/// walk that would otherwise be paid per step while the component is
/// genuinely busy. The cost is at most `WHEEL_PROBE_PERIOD - 1` redundant
/// steps when a streaking component goes idle.
const WHEEL_PROBE_PERIOD: u32 = 4;

/// The component-wheel scheduler's state (host-side bookkeeping only — never
/// part of the simulated machine's state or the oracle digest). One due
/// cycle per component slot; a slot is stepped only on cycles where its due
/// value has been reached, and re-armed from its own `next_event` bound
/// after stepping plus explicit wake edges from its neighbors (see
/// [`System::tick_wheel`]).
#[derive(Default)]
struct Wheel {
    /// Whether the due values below describe the current state. Cleared by
    /// every code path that mutates simulated state outside the wheel's
    /// view (naive ticks, direct DRAM pokes, frontend installs).
    valid: bool,
    /// Due cycle of the L2 + DRAM slot.
    due_l2: u64,
    /// Due cycle of each core's L1 + LSU slot.
    due_comp: Vec<u64>,
    /// Due cycle of each core's frontend (tracked separately so a
    /// worker-paced frontend does not force its whole core slot — and
    /// the L1 `next_event` walk that re-arms it — every executed cycle).
    due_fe: Vec<u64>,
    /// Consecutive executed steps of each core slot since it last slept or
    /// was woken; drives the [`WHEEL_PROBE_PERIOD`] bound-walk hysteresis.
    streak_comp: Vec<u32>,
    /// Same, for the L2 + DRAM slot.
    streak_l2: u32,
}

impl Wheel {
    /// Earliest due cycle across every slot ([`NEVER`] when all slots are
    /// blocked on external input).
    fn next_due(&self) -> u64 {
        let mut t = self.due_l2;
        for &d in &self.due_comp {
            t = t.min(d);
        }
        for &d in &self.due_fe {
            t = t.min(d);
        }
        t
    }
}

/// A [`System`] must stay movable across host threads — the sweep runner
/// depends on it.
#[allow(dead_code)]
fn _assert_system_send() {
    fn send<T: Send>() {}
    send::<System>();
}

/// Aggregated counters of a system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemStats {
    /// Current cycle.
    pub cycles: u64,
    /// Per-core L1 counters.
    pub l1: Vec<L1Stats>,
    /// L2 counters.
    pub l2: L2Stats,
    /// Memory counters.
    pub mem: MemStats,
}

impl SystemStats {
    /// Renders the counters as a human-readable report (used by examples
    /// and benchmark summaries).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycles: {}", self.cycles);
        for (i, l1) in self.l1.iter().enumerate() {
            let _ = writeln!(
                out,
                "core {i}: loads {} (hits {}), stores {} (hits {}), amos {}, nacks {}",
                l1.loads, l1.load_hits, l1.stores, l1.store_hits, l1.amos, l1.nacks
            );
            let _ = writeln!(
                out,
                "  writebacks: enqueued {}, skipped(SkipIt) {}, coalesced {}, \
                 RootReleases {} ({} with data)",
                l1.writebacks_enqueued,
                l1.writebacks_skipped,
                l1.writebacks_coalesced,
                l1.root_releases_sent,
                l1.root_releases_with_data
            );
            let _ = writeln!(
                out,
                "  probes {} ({} with data), evictions {} ({} dirty), \
                 flush-entry fixups: probe {} / evict {}",
                l1.probes_handled,
                l1.probes_with_data,
                l1.evictions,
                l1.dirty_evictions,
                l1.flush_entries_probe_invalidated,
                l1.flush_entries_evict_invalidated
            );
        }
        let _ = writeln!(
            out,
            "L2: acquires {} (clean {}, dirty {}), RootRelease flush {} / clean {}, \
             DRAM writes {} (trivially skipped {}), probes {}, releases {}, \
             evictions {} ({} dirty), list-buffered {}",
            self.l2.acquires,
            self.l2.grants_clean,
            self.l2.grants_dirty,
            self.l2.root_release_flush,
            self.l2.root_release_clean,
            self.l2.root_release_dram_writes,
            self.l2.root_release_dram_skipped,
            self.l2.probes_sent,
            self.l2.releases,
            self.l2.evictions,
            self.l2.dirty_evictions,
            self.l2.list_buffered
        );
        let _ = writeln!(
            out,
            "DRAM: reads {}, writes {}",
            self.mem.reads, self.mem.writes
        );
        out
    }
}

enum Frontend {
    Idle,
    /// Worker mode (see [`crate::workload::Workers`]): the core follows
    /// the commands of a worker future the frontend phase polls. The
    /// future itself lives in the run loop's frame as a [`WorkerLane`].
    Worker {
        busy: Option<OpToken>,
        nop_until: Option<u64>,
        finished: bool,
    },
    /// The op-script frontend (see [`crate::workload::ReplaySchedule`];
    /// [`crate::workload::Programs`] runs through it with every stamp 0):
    /// issues `ops` in order, each no earlier than its cycle
    /// `base + ops[next].at`.
    Replay {
        ops: Vec<TimedOp>,
        next: usize,
        nop_until: u64,
        /// Absolute cycle the run started at; stamps are relative to it.
        base: u64,
    },
}

/// One live worker of a [`crate::workload::Workers`] run: the future the
/// frontend phase polls and the mailbox its [`CoreHandle`] posts into.
/// Owned by the run loop's frame, never by the [`System`] (which must stay
/// `Send`), and handed down to the frontend phase each step.
pub(crate) struct WorkerLane<'a> {
    mailbox: Rc<Mailbox>,
    fut: Pin<Box<dyn Future<Output = ()> + 'a>>,
}

impl WorkerLane<'_> {
    /// Polls the worker on core `core` once, at the point where the
    /// frontend phase needs its next command; `None` once the worker has
    /// completed.
    ///
    /// # Panics
    ///
    /// A panicking worker's panic propagates. Panics, naming the core, if
    /// the worker suspends without posting a command (it awaited something
    /// that is not a [`CoreHandle`] op, which nothing would ever wake).
    fn next_cmd(&mut self, core: usize) -> Option<Cmd> {
        let mut cx = Context::from_waker(Waker::noop());
        match self.fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => None,
            Poll::Pending => Some(self.mailbox.take_cmd().unwrap_or_else(|| {
                panic!(
                    "worker on core {core} suspended without awaiting a CoreHandle op \
                     (workers may only await their handle's operations)"
                )
            })),
        }
    }
}

/// `base + delta` for an op-script frontend's stamps and think times,
/// panicking by name past `u64::MAX` (only hand-built lanes get there:
/// decoded traces and snapshots are bounds-checked).
fn script_cycle(base: u64, delta: u64) -> u64 {
    base.checked_add(delta)
        .unwrap_or_else(|| panic!("script lane cycle overflow: {base} + {delta} is past u64::MAX"))
}

/// Cycle budget of every op-script run (programs, replay, resume): one
/// still going this many cycles after its call panics (an interlock bug).
/// `skipit_replay::MemTrace::push` rejects traces that would end past it.
pub const RUN_WATCHDOG_CYCLES: u64 = 2_000_000_000;

/// Wire latency of every TileLink channel hop, in cycles.
const LINK_LATENCY: u64 = 1;

/// Buffering of every TileLink channel, in messages.
const LINK_CAPACITY: usize = 8;

/// Ops an op-script frontend issues into its core's LSU per cycle.
const ISSUE_WIDTH: usize = 2;

/// [`System::quiesce`]'s cycle budget: draining writebacks is short.
const QUIESCE_WATCHDOG_CYCLES: u64 = 1_000_000;

/// The observer of a run nobody observes.
pub(crate) fn unobserved(_: &System) -> Result<(), std::convert::Infallible> {
    Ok(())
}

/// The simulated SoC. See the [crate docs](crate) for the drive modes.
pub struct System {
    cfg: SystemConfig,
    now: u64,
    lsus: Vec<Lsu>,
    l1s: Vec<DataCache>,
    l2: InclusiveCache,
    dram: Dram,
    frontends: Vec<Frontend>,
    next_token: OpToken,
    // Per-core channel links (L1 side index == core index).
    a: Vec<Link<ChannelA>>,
    b: Vec<Link<ChannelB>>,
    c: Vec<Link<ChannelC>>,
    d: Vec<Link<ChannelD>>,
    e: Vec<Link<ChannelE>>,
    /// Absolute cycle after which worker responses carry `halted`.
    deadline: u64,
    /// Fast-forward engine bookkeeping.
    engine: EngineStats,
    /// Component-wheel scheduler state (see [`Wheel`]).
    wheel: Wheel,
    /// Event sink of the fast-forward engine itself
    /// ([`TraceEvent::FastForwardJump`] markers). Installed by
    /// [`System::set_trace`]; host-side, never part of simulated
    /// state.
    engine_sink: Option<TraceSink>,
    /// Interval telemetry sampler ([`TraceConfig::telemetry`]); host-side
    /// observation only, never part of simulated state or digests.
    telemetry: Option<Telemetry>,
    /// The tracing setup currently installed (see [`System::set_trace`]).
    trace_cfg: TraceConfig,
    /// Capture-mode buffer ([`System::start_capture`]): the committed
    /// memory-op stream of every frontend, in issue order. Host-side
    /// observation only — never part of simulated state, digests or
    /// snapshots, and recording changes nothing the simulation can see.
    capture: Option<Vec<CapturedOp>>,
}

/// Lists a system's event sinks in track order — the engine; per core the
/// LSU, L1 front end, flush unit and links A–E; then the L2 and DRAM. A
/// sink's index in the list is its `order` in [`System::trace_events`].
/// This is the only place the order is written: [`System::trace_sinks`]
/// expands it over shared accessors, [`System::trace_slots`] over `&mut`
/// slots.
macro_rules! tracks {
    ($sys:expr, $engine:expr, $iter:ident, $one:ident, $l1:ident) => {{
        let mut tracks = vec![$engine];
        let links = $sys.a.$iter().zip($sys.b.$iter());
        let links = links
            .zip($sys.c.$iter())
            .zip($sys.d.$iter())
            .zip($sys.e.$iter());
        let cores = $sys.lsus.$iter().zip($sys.l1s.$iter()).zip(links);
        for ((lsu, l1), ((((a, b), c), d), e)) in cores {
            let [front, flush] = l1.$l1();
            tracks.extend([lsu.$one(), front, flush]);
            tracks.extend([a.$one(), b.$one(), c.$one(), d.$one(), e.$one()]);
        }
        tracks.extend([$sys.l2.$one(), $sys.dram.$one()]);
        tracks
    }};
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cfg.cores)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a quiesced system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is 0 or exceeds 32, or a sub-config is invalid.
    pub fn new(cfg: SystemConfig) -> Self {
        assert!((1..=32).contains(&cfg.cores), "1..=32 cores supported");
        macro_rules! links {
            () => {
                (0..cfg.cores)
                    .map(|i| Link::new(LINK_LATENCY, LINK_CAPACITY).for_core(i))
                    .collect()
            };
        }
        let mut sys = System {
            now: 0,
            lsus: (0..cfg.cores).map(Lsu::new).collect(),
            l1s: (0..cfg.cores).map(|i| DataCache::new(i, cfg.l1)).collect(),
            l2: InclusiveCache::new(cfg.cores, cfg.l2),
            dram: Dram::new(cfg.dram),
            frontends: (0..cfg.cores).map(|_| Frontend::Idle).collect(),
            next_token: 0,
            a: links!(),
            b: links!(),
            c: links!(),
            d: links!(),
            e: links!(),
            deadline: u64::MAX,
            engine: EngineStats::default(),
            wheel: Wheel::default(),
            engine_sink: None,
            telemetry: None,
            trace_cfg: TraceConfig::off(),
            capture: None,
            cfg,
        };
        if cfg.perturb.is_active() {
            for i in 0..cfg.cores {
                sys.a[i].set_perturb(link_site('A', i), cfg.perturb);
                sys.b[i].set_perturb(link_site('B', i), cfg.perturb);
                sys.c[i].set_perturb(link_site('C', i), cfg.perturb);
                sys.d[i].set_perturb(link_site('D', i), cfg.perturb);
                sys.e[i].set_perturb(link_site('E', i), cfg.perturb);
                sys.l1s[i].set_perturb(cfg.perturb);
            }
            sys.l2.set_perturb(cfg.perturb);
        }
        sys
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Aggregated counters.
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            cycles: self.now,
            l1: self.l1s.iter().map(|c| c.stats()).collect(),
            l2: self.l2.stats(),
            mem: self.dram.stats(),
        }
    }

    /// Counters of the fast-forward engine (cycles skipped, jumps taken,
    /// component steps/slots). All zero under [`EngineKind::Naive`].
    /// With the `profile` feature compiled in, [`EngineStats::phase`]
    /// carries the wheel's wall-time phase attribution.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
    }

    /// The persisted memory image (what a crash-recovery procedure sees).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Direct (test/bench setup) access to memory. Invalidates the
    /// component wheel: a direct poke mutates state behind the scheduler's
    /// back, so its due bounds must be recomputed.
    pub fn dram_mut(&mut self) -> &mut Dram {
        self.wheel.valid = false;
        &mut self.dram
    }

    /// Per-core L1 peek helpers for tests and examples.
    pub fn l1(&self, core: usize) -> &DataCache {
        &self.l1s[core]
    }

    /// L2 peek helpers for tests and examples.
    pub fn l2(&self) -> &InclusiveCache {
        &self.l2
    }

    /// The persisted memory image a power failure *right now* would leave
    /// behind: every cache's contents are lost; only writes that DRAM has
    /// completed survive (§2.5). Non-consuming — the live system is
    /// untouched, so a crash-point explorer can snapshot many candidate
    /// failure instants from one simulation.
    pub fn durable_image(&self) -> Dram {
        self.dram.durable_image()
    }

    /// Starts capture mode: from now on every committed memory operation —
    /// from any frontend (program, worker or replay mode), on any engine —
    /// is recorded as a [`CapturedOp`] with its issuing core and the exact
    /// cycle it entered the LSU ([`Op::Nop`] think time included, so a
    /// replay reproduces trailing idle cycles too). This is the capture
    /// hook the trace-replay subsystem builds on: feed the buffer to
    /// `skipit_replay::MemTrace::from_capture` to obtain a portable trace.
    ///
    /// Capture is host-side observation only — it changes nothing the
    /// simulation can see, is excluded from digests and snapshots, and
    /// restarting it discards any previous buffer. Stop and harvest with
    /// [`System::take_capture`].
    pub fn start_capture(&mut self) {
        self.capture = Some(Vec::new());
    }

    /// Stops capture mode and returns the recorded op stream, in issue
    /// order (empty if capture was never started).
    pub fn take_capture(&mut self) -> Vec<CapturedOp> {
        self.capture.take().unwrap_or_default()
    }

    /// Installs the tracing setup described by `cfg` — the single entry
    /// point for all three tracing facilities:
    ///
    /// * [`TraceConfig::events`] installs cycle-stamped event-ring sinks on
    ///   every component (each LSU, L1 front end + flush unit, per-core
    ///   TileLink links, L2, DRAM, and the fast-forward engine). Harvest with
    ///   [`System::trace_events`] or the exporters in [`crate::export`].
    /// * [`TraceConfig::latency`] starts per-op completion-latency
    ///   recording on every core (see [`crate::trace`],
    ///   [`System::trace_records`], [`System::latency_histograms`]).
    /// * [`TraceConfig::telemetry`] installs the interval counter-series
    ///   sampler (see [`Telemetry`], [`System::telemetry`],
    ///   [`System::telemetry_snapshot`]).
    ///
    /// Facilities absent from `cfg` are uninstalled, so
    /// `set_trace(TraceConfig::off())` returns the system to the untraced
    /// state. The call is idempotent: re-applying
    /// the currently installed setup leaves buffered events and records in
    /// place (use [`System::clear_event_trace`] / [`System::clear_traces`]
    /// to discard those).
    ///
    /// # Example
    ///
    /// ```
    /// use skipit_boom::{System, SystemConfig};
    /// use skipit_trace::TraceConfig;
    ///
    /// let mut sys = System::new(SystemConfig::default());
    /// sys.set_trace(TraceConfig::new().events(1 << 14).latency(1024));
    /// ```
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        let cur = self.trace_cfg;
        if cfg.event_capacity() != cur.event_capacity() {
            let capacity = cfg.event_capacity();
            for slot in self.trace_slots() {
                *slot = capacity.map(TraceSink::new);
            }
        }
        if cfg.latency_capacity() != cur.latency_capacity() {
            match cfg.latency_capacity() {
                Some(capacity) => {
                    for lsu in &mut self.lsus {
                        lsu.enable_tracing(capacity);
                    }
                }
                None => {
                    for lsu in &mut self.lsus {
                        lsu.disable_tracing();
                    }
                }
            }
        }
        if cfg.telemetry_interval() != cur.telemetry_interval() {
            self.telemetry = cfg.telemetry_interval().map(|interval| {
                Telemetry::new(
                    interval,
                    DEFAULT_TELEMETRY_CAPACITY,
                    self.now,
                    self.telemetry_counters(),
                )
            });
        }
        self.trace_cfg = cfg;
    }

    /// The tracing setup currently installed.
    pub fn trace_config(&self) -> TraceConfig {
        self.trace_cfg
    }

    /// Cumulative counters + gauges in the shape the telemetry sampler
    /// consumes. Pure observation of existing counters.
    fn telemetry_counters(&self) -> TelemetryCounters {
        TelemetryCounters {
            cores: (0..self.cfg.cores)
                .map(|i| {
                    let l1 = &self.l1s[i];
                    let s = l1.stats();
                    CoreCounters {
                        ops: s.loads + s.stores + s.amos,
                        mshr_occupancy: l1.mshr_occupancy() as u64,
                        fshr_occupancy: l1.fshr_occupancy() as u64,
                        flush_queue_depth: l1.flush_queue_depth() as u64,
                        skips: s.writebacks_skipped,
                        enqueued: s.writebacks_enqueued,
                        link_pushed: [
                            self.a[i].pushed(),
                            self.b[i].pushed(),
                            self.c[i].pushed(),
                            self.d[i].pushed(),
                            self.e[i].pushed(),
                        ],
                    }
                })
                .collect(),
            l2_mshr_occupancy: self.l2.mshr_occupancy() as u64,
            dram_reads: self.dram.stats().reads,
            dram_writes: self.dram.stats().writes,
        }
    }

    /// Samples every telemetry boundary the clock has reached. Called at
    /// the top of each tick variant and right after fast-forward landings,
    /// so boundary `B` always captures the machine state at the start of
    /// cycle `B` — for jumped-over boundaries that state is provably the
    /// window-start state, which is exactly what the call passes (no
    /// counter changes inside a skipped window), keeping the sample series
    /// engine-independent. Idempotent; one branch when nothing is due.
    #[inline]
    fn poll_telemetry(&mut self) {
        if self.telemetry.as_ref().is_some_and(|t| t.due(self.now)) {
            let counters = self.telemetry_counters();
            if let Some(t) = self.telemetry.as_mut() {
                t.record_up_to(self.now, &counters);
            }
        }
    }

    /// The installed telemetry sampler, synced to every boundary the clock
    /// has reached. `None` unless [`TraceConfig::telemetry`] is installed.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// A copy of the sampler with a final partial sample appended covering
    /// the tail `(last boundary, now]` — so the samples' deltas sum
    /// exactly to the end-of-run cumulative totals. The live sampler is
    /// left untouched (still boundary-aligned). `None` unless telemetry is
    /// installed.
    pub fn telemetry_snapshot(&self) -> Option<Telemetry> {
        let t = self.telemetry.as_ref()?;
        let counters = self.telemetry_counters();
        let mut snap = t.clone();
        snap.record_up_to(self.now, &counters);
        snap.finish(self.now, &counters);
        Some(snap)
    }

    /// All trace records across cores, merged into one stream ordered by
    /// completion cycle (ties broken by core, then token, so the merge is
    /// deterministic regardless of per-core log layout).
    pub fn trace_records(&self) -> Vec<crate::trace::TraceRecord> {
        let mut records: Vec<crate::trace::TraceRecord> = self
            .lsus
            .iter()
            .filter_map(|l| l.trace())
            .flat_map(|t| t.records().iter().copied())
            .collect();
        records.sort_by_key(|r| (r.completed_at, r.core, r.token));
        records
    }

    /// Per-op-kind completion-latency histograms merged across all cores
    /// (empty unless op-latency tracing is installed via
    /// [`System::set_trace`]). Histograms keep
    /// counting after the bounded record logs fill, so the percentiles
    /// cover every completion of the run.
    pub fn latency_histograms(
        &self,
    ) -> std::collections::BTreeMap<&'static str, crate::trace::LatencyHistogram> {
        let mut out = std::collections::BTreeMap::new();
        for lsu in &self.lsus {
            if let Some(t) = lsu.trace() {
                for (kind, h) in t.histograms() {
                    out.entry(*kind)
                        .or_insert_with(crate::trace::LatencyHistogram::new)
                        .merge(h);
                }
            }
        }
        out
    }

    /// Clears every core's trace log.
    pub fn clear_traces(&mut self) {
        for lsu in &mut self.lsus {
            lsu.clear_trace();
        }
    }

    /// Every event-sink slot, in track order.
    fn trace_slots(&mut self) -> Vec<&mut Option<TraceSink>> {
        tracks!(
            self,
            &mut self.engine_sink,
            iter_mut,
            trace_slot,
            trace_slots
        )
    }

    /// Every installed event sink, in track order.
    fn trace_sinks(&self) -> Vec<Option<&TraceSink>> {
        tracks!(
            self,
            self.engine_sink.as_ref(),
            iter,
            trace_sink,
            trace_sinks
        )
    }

    /// Discards all buffered events, keeping the sinks installed. Sequence
    /// counters keep running, so orderings stay stable across clears.
    pub fn clear_event_trace(&mut self) {
        for sink in self.trace_slots().into_iter().flatten() {
            sink.clear();
        }
    }

    /// Harvests every sink into one deterministic stream ordered by
    /// `(cycle, track, seq)` where `track` follows a fixed component
    /// enumeration (engine; per core LSU, L1, flush unit, links A–E; L2;
    /// DRAM). Under the engine-invariance contract the stream — with
    /// [`TraceEvent::is_engine_event`] markers filtered out — is identical
    /// between the naive and fast-forward engines.
    pub fn trace_events(&self) -> Vec<StreamEvent> {
        let mut out = Vec::new();
        for (order, sink) in (0..).zip(self.trace_sinks()) {
            for e in sink.into_iter().flat_map(TraceSink::events) {
                out.push(StreamEvent {
                    cycle: e.cycle,
                    order,
                    seq: e.seq,
                    event: e.event,
                });
            }
        }
        skipit_trace::merge_streams(out)
    }

    /// Total events dropped by ring-buffer bounds across all sinks (a
    /// nonzero value means the exported timeline has holes; enlarge the
    /// capacity passed to [`System::set_trace`]).
    pub fn trace_events_dropped(&self) -> u64 {
        self.trace_sinks()
            .into_iter()
            .flatten()
            .map(TraceSink::dropped)
            .sum()
    }

    /// Cumulative messages pushed per channel (`'A'`–`'E'`) and core, for
    /// the metrics registry.
    ///
    /// # Panics
    ///
    /// Panics on a channel letter outside `'A'`–`'E'`.
    pub fn link_pushed(&self, channel: char, core: usize) -> u64 {
        match channel {
            'A' => self.a[core].pushed(),
            'B' => self.b[core].pushed(),
            'C' => self.c[core].pushed(),
            'D' => self.d[core].pushed(),
            'E' => self.e[core].pushed(),
            _ => panic!("unknown TileLink channel {channel:?}"),
        }
    }

    /// Cumulative messages popped per channel (`'A'`–`'E'`) and core, for
    /// the metrics registry.
    ///
    /// # Panics
    ///
    /// Panics on a channel letter outside `'A'`–`'E'`.
    pub fn link_popped(&self, channel: char, core: usize) -> u64 {
        match channel {
            'A' => self.a[core].popped(),
            'B' => self.b[core].popped(),
            'C' => self.c[core].popped(),
            'D' => self.d[core].popped(),
            'E' => self.e[core].popped(),
            _ => panic!("unknown TileLink channel {channel:?}"),
        }
    }

    /// Advances the system by one cycle.
    pub fn tick(&mut self) {
        self.tick_workers(&mut []);
    }

    /// [`System::tick`] with the live workers of a worker-mode run.
    fn tick_workers(&mut self, workers: &mut [WorkerLane<'_>]) {
        self.poll_telemetry();
        // A full sweep may step components the wheel believed idle, so its
        // due bounds are stale afterwards.
        self.wheel.valid = false;
        let now = self.now;
        {
            let mut ports = L2Ports {
                a: &mut self.a,
                b: &mut self.b,
                c: &mut self.c,
                d: &mut self.d,
                e: &mut self.e,
                mem: &mut self.dram,
            };
            self.l2.step(now, &mut ports);
        }
        for i in 0..self.cfg.cores {
            let mut ports = skipit_dcache::L1Ports {
                a: &mut self.a[i],
                b: &mut self.b[i],
                c: &mut self.c[i],
                d: &mut self.d[i],
                e: &mut self.e[i],
            };
            self.l1s[i].step(now, &mut ports);
            self.lsus[i].step(now, &mut self.l1s[i]);
        }
        self.step_frontends(workers, u64::MAX);
        self.now += 1;
    }

    /// (Re)computes every wheel slot's due cycle from scratch. Needed on
    /// entry to a run loop and after any state mutation outside the wheel's
    /// view; steady-state operation re-arms slots incrementally instead.
    fn wheel_rebuild(&mut self) {
        let cores = self.cfg.cores;
        self.wheel.due_comp.resize(cores, NEVER);
        self.wheel.due_fe.resize(cores, NEVER);
        self.wheel.streak_comp.clear();
        self.wheel.streak_comp.resize(cores, 0);
        self.wheel.streak_l2 = 0;
        self.wheel.due_l2 = self.l2_due();
        for i in 0..cores {
            self.wheel.due_comp[i] = self.core_comp_due(i);
            self.wheel.due_fe[i] = self.fe_due(i);
        }
        self.wheel.valid = true;
    }

    /// Self-contained due bound of core `i`'s L1 + LSU slot: the earliest
    /// cycle the pair can change state given only its own timers and the
    /// *current* link endpoints. State changes caused by neighbors acting
    /// later (an L2 push/pop, a frontend enqueue) are injected as wake
    /// edges when they happen, so this bound deliberately ignores them.
    fn core_comp_due(&self, i: usize) -> u64 {
        let now = self.now;
        let l1 = &self.l1s[i];
        let mut due = NEVER;
        // An inbound Grant wakes the core at head arrival.
        if let Some(t) = self.d[i].next_ready() {
            due = due.min(t);
        }
        // An inbound Probe only while the probe unit can sink it; the
        // L1 transition freeing the unit re-raises the head on re-arm.
        // Not collapsible into the arm guard: an arrived-but-unsinkable head
        // must arm *nothing* (the L1 transition freeing the probe unit
        // re-raises it), while the guard's fallthrough would arm `t`.
        #[allow(clippy::collapsible_match)]
        match self.b[i].next_ready() {
            Some(t) if t <= now => {
                if l1.probe_rdy() {
                    due = due.min(t);
                }
            }
            Some(t) => due = due.min(t),
            None => {}
        }
        // Outbound readiness is plain `can_push`: a head the L2 pops this
        // cycle frees a slot usable the same cycle, but that arrives as an
        // explicit pop wake edge from the L2 phase (the wheel never
        // speculates about a neighbor's step).
        if let Some(t) = l1.next_event(
            now,
            self.a[i].can_push(),
            self.c[i].can_push(),
            self.e[i].can_push(),
        ) {
            due = due.min(t);
        }
        if let Some(t) = self.lsus[i].next_event(now, l1) {
            due = due.min(t);
        }
        due
    }

    /// Self-contained due bound of the L2 + DRAM slot (same wake-edge
    /// caveat as [`System::core_comp_due`]).
    fn l2_due(&self) -> u64 {
        let now = self.now;
        let mut due = NEVER;
        for i in 0..self.cfg.cores {
            if let Some(t) = self.c[i].next_ready() {
                due = due.min(t);
            }
            if let Some(t) = self.e[i].next_ready() {
                due = due.min(t);
            }
            // An arrived Acquire is only an event while the L2 can sink
            // it; the L2 transition clearing the backpressure re-raises
            // the head on re-arm.
            match self.a[i].next_ready() {
                Some(t) if t <= now => {
                    if let Some(&ChannelA::AcquireBlock { addr, .. }) = self.a[i].peek(now) {
                        if self.l2.can_accept_acquire(addr) {
                            due = due.min(t);
                        }
                    }
                }
                Some(t) => due = due.min(t),
                None => {}
            }
        }
        if let Some(t) = self.l2.next_event(now, &self.dram, &self.b, &self.d) {
            due = due.min(t);
        }
        if let Some(t) = self.dram.next_event(now) {
            due = due.min(t);
        }
        due
    }

    /// The frontend's due bound as a wheel slot value.
    fn fe_due(&self, i: usize) -> u64 {
        self.frontend_next_event(i).unwrap_or(NEVER)
    }

    /// Executes one cycle stepping only the wheel slots that are due,
    /// re-arming each stepped slot from its own bound and propagating wake
    /// edges to neighbors (the explicit cross-component handoffs of
    /// DESIGN.md §5): an L2 B/D push arms the receiving core at head
    /// arrival (possibly this very cycle — the L2 steps before the L1s,
    /// matching naive tick order); an L2 A/C/E pop frees a sender slot
    /// usable the same cycle; a core's A/C/E push arms the L2 at head
    /// arrival and its B/D pop at the next cycle (the L2 steps first, so it
    /// cannot observe either before then); a frontend enqueue arms its core
    /// for the next cycle. The link edges come from the links' own stamps
    /// ([`Link::filled_at`], [`Link::freed_at`]). A frontend runs when its
    /// own slot is due or its LSU retired an op this cycle (only a retire
    /// can finish its op or free room for its next one); any other
    /// frontend's step would change nothing. Each frontend that ran with a
    /// stepped core, or changed state, is re-armed once, after the
    /// frontend phase.
    fn tick_wheel(&mut self, workers: &mut [WorkerLane<'_>]) {
        self.poll_telemetry();
        let mut lap = crate::prof::Timer::start();
        let now = self.now;
        let cores = self.cfg.cores;
        self.engine.component_slots += 1 + cores as u64;
        if self.wheel.due_l2 <= now {
            {
                let mut ports = L2Ports {
                    a: &mut self.a,
                    b: &mut self.b,
                    c: &mut self.c,
                    d: &mut self.d,
                    e: &mut self.e,
                    mem: &mut self.dram,
                };
                self.l2.step(now, &mut ports);
            }
            self.engine.component_steps += 1;
            // The L2's link edges this cycle are wake edges (the L2 is the
            // only B/D pusher and A/C/E popper, and it steps first, so each
            // link's stamp for `now` is an edge of this step): a B/D that
            // went non-empty has a head the core's bound never saw; an
            // A/C/E that went non-full re-opens a slot a blocked sender's
            // bound ignored. (A push behind an existing head leaves the
            // head, and thus the receiver's bound, unchanged; a pop from a
            // non-full link leaves `can_push` true, which the sender's
            // bound already assumed.) A core already due this cycle needs
            // no wake edge: it steps regardless and re-arms from full
            // current state.
            for i in 0..cores {
                if self.wheel.due_comp[i] <= now {
                    continue;
                }
                let mut wake = NEVER;
                if self.b[i].filled_at(now) {
                    if let Some(t) = self.b[i].next_ready() {
                        wake = wake.min(t);
                    }
                }
                if self.d[i].filled_at(now) {
                    if let Some(t) = self.d[i].next_ready() {
                        wake = wake.min(t);
                    }
                }
                if self.a[i].freed_at(now) || self.c[i].freed_at(now) || self.e[i].freed_at(now) {
                    // The freed slot is usable this very cycle: the L2
                    // steps before the L1s, matching naive tick order.
                    wake = now;
                }
                if wake != NEVER {
                    let wake = wake.max(now);
                    if wake < self.wheel.due_comp[i] {
                        // A genuinely sleeping slot is being rescued: its
                        // first post-wake steps should probe their real
                        // bound eagerly. (A busy slot already due next
                        // cycle keeps its streak — B/D heads churn every
                        // cycle in a burst, and resetting here would defeat
                        // the probe hysteresis.)
                        self.wheel.due_comp[i] = wake;
                        self.wheel.streak_comp[i] = 0;
                    }
                }
            }
            self.wheel.streak_l2 += 1;
            let streak = self.wheel.streak_l2;
            self.wheel.due_l2 =
                if streak <= WHEEL_EAGER_PROBES || streak.is_multiple_of(WHEEL_PROBE_PERIOD) {
                    let due = self.l2_due().max(now + 1);
                    if due > now + 1 {
                        self.wheel.streak_l2 = 0;
                    }
                    due
                } else {
                    now + 1
                };
        }
        lap.lap(&mut self.engine.phase.serial_ns);
        // Mirror guard: wake edges toward the L2 can never arrive before
        // `now + 1` (the L2 steps first), so when the L2 is already due by
        // then the edge scan below is skipped entirely.
        let l2_sleeping = self.wheel.due_l2 > now + 1;
        let mut l2_wake = NEVER;
        let (mut stepped, mut retired) = (0u64, 0u64);
        for i in 0..cores {
            if self.wheel.due_comp[i] <= now {
                let (wake, retire) = self.step_core_slot(i, now, l2_sleeping);
                l2_wake = l2_wake.min(wake);
                self.engine.component_steps += 1;
                stepped |= 1 << i;
                retired |= u64::from(retire) << i;
            }
        }
        if l2_wake != NEVER {
            let l2_wake = l2_wake.max(now + 1);
            if l2_wake < self.wheel.due_l2 {
                self.wheel.due_l2 = l2_wake;
                self.wheel.streak_l2 = 0;
            }
        }
        lap.lap(&mut self.engine.phase.core_ns);
        let mut run = retired;
        for (i, &t) in self.wheel.due_fe.iter().enumerate() {
            if t <= now {
                run |= 1 << i;
            }
        }
        let (enqueued, active) = self.step_frontends(workers, run);
        // A frontend that did not run kept its state, and so did its LSU
        // as far as it reads (nothing retired): its bound stands.
        let mut m = active | (stepped & run);
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            self.wheel.due_fe[i] = self.fe_due(i).max(now + 1);
        }
        let mut m = enqueued;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if now + 1 < self.wheel.due_comp[i] {
                self.wheel.due_comp[i] = now + 1;
                self.wheel.streak_comp[i] = 0;
            }
        }
        lap.lap(&mut self.engine.phase.frontend_ns);
        self.now += 1;
    }

    /// Steps one due core slot (L1 + LSU + the five per-core link
    /// endpoints) and re-arms its due bound; returns the slot's wake edge
    /// toward the L2 ([`NEVER`] when none) and whether an op retired.
    fn step_core_slot(&mut self, i: usize, now: u64, l2_sleeping: bool) -> (u64, bool) {
        {
            let mut ports = skipit_dcache::L1Ports {
                a: &mut self.a[i],
                b: &mut self.b[i],
                c: &mut self.c[i],
                d: &mut self.d[i],
                e: &mut self.e[i],
            };
            self.l1s[i].step(now, &mut ports);
        }
        let retired = self.lsus[i].step(now, &mut self.l1s[i]);
        // Mirror image of the L2 phase's edges (the core is the only A/C/E
        // pusher and B/D popper of its links); the L2 cannot act on either
        // before the next cycle (it steps first), so an L2 already due by
        // then needs none.
        let mut wake = NEVER;
        if l2_sleeping {
            if self.a[i].filled_at(now) {
                if let Some(t) = self.a[i].next_ready() {
                    wake = wake.min(t);
                }
            }
            if self.c[i].filled_at(now) {
                if let Some(t) = self.c[i].next_ready() {
                    wake = wake.min(t);
                }
            }
            if self.e[i].filled_at(now) {
                if let Some(t) = self.e[i].next_ready() {
                    wake = wake.min(t);
                }
            }
            if self.b[i].freed_at(now) || self.d[i].freed_at(now) {
                wake = wake.min(now + 1);
            }
        }
        self.wheel.streak_comp[i] += 1;
        let streak = self.wheel.streak_comp[i];
        self.wheel.due_comp[i] =
            if streak <= WHEEL_EAGER_PROBES || streak.is_multiple_of(WHEEL_PROBE_PERIOD) {
                let next = self.core_comp_due(i).max(now + 1);
                if next > now + 1 {
                    self.wheel.streak_comp[i] = 0;
                }
                next
            } else {
                now + 1
            };
        (wake, retired)
    }

    /// One step of the [`EngineKind::ComponentWheel`] engine: jump the
    /// clock to the earliest due slot, then execute that cycle stepping
    /// only the due slots. Under [`SystemConfig::lockstep_oracle`], every
    /// jumped window is naively re-verified *and* every skipped slot's due
    /// bound is recomputed from scratch each executed cycle — a component
    /// that would have acted while its slot claimed idle panics.
    fn step_wheel<F: Fn(&Self) -> bool>(
        &mut self,
        done: F,
        workers: &mut [WorkerLane<'_>],
    ) -> bool {
        if !self.wheel.valid {
            self.wheel_rebuild();
        }
        let target = self.wheel.next_due();
        if target == NEVER {
            // Every slot is blocked on an external command (a worker's
            // next op): full sweep so workers and watchdogs still run,
            // every slot burned. `tick` invalidates the wheel; the next
            // step rebuilds.
            let slots = 1 + self.cfg.cores as u64;
            self.engine.component_slots += slots;
            self.engine.component_steps += slots;
            self.tick_workers(workers);
            return false;
        }
        if target > self.now {
            let window = target - self.now;
            self.engine.skipped_cycles += window;
            self.engine.jumps += 1;
            self.engine.component_slots += (1 + self.cfg.cores as u64) * window;
            if self.engine_sink.is_some() {
                let mut cores_mask = 0u64;
                let mut frontend = false;
                for i in 0..self.cfg.cores {
                    if self.wheel.due_comp[i] == target {
                        cores_mask |= 1 << i;
                    }
                    frontend |= self.wheel.due_fe[i] == target;
                }
                skipit_trace::trace!(
                    self.engine_sink,
                    self.now,
                    TraceEvent::FastForwardJump {
                        from: self.now,
                        to: target,
                        l2: self.wheel.due_l2 == target,
                        cores: cores_mask,
                        frontend,
                    }
                );
            }
            if self.cfg.lockstep_oracle {
                self.verify_window(target, workers);
                // `verify_window` ticks naively, invalidating the wheel —
                // but it also proved no state changed, so a rebuild
                // reproduces (at worst tightens) the due values.
                self.wheel_rebuild();
            } else {
                self.now = target;
            }
            // Sample boundaries the jump crossed before `done` can end the
            // run (window is state-change-free, so current counters are
            // each boundary's counters).
            self.poll_telemetry();
            if done(self) {
                return true;
            }
        }
        if self.cfg.lockstep_oracle {
            self.oracle_check_wheel();
        }
        self.tick_wheel(workers);
        false
    }

    /// Component-granular half of the lockstep oracle: on an executed
    /// cycle, any slot the wheel is about to skip must also be not-due per
    /// a from-scratch recomputation of its bound. Catches missed wake
    /// edges (a neighbor handed the component work without re-arming it)
    /// at the cycle they would first diverge from the naive engine.
    fn oracle_check_wheel(&self) {
        let now = self.now;
        if self.wheel.due_l2 > now {
            assert!(
                self.l2_due() > now,
                "lockstep oracle: L2 slot skipped at cycle {now} but its \
                 recomputed bound is due (missed wake edge)"
            );
        }
        for i in 0..self.cfg.cores {
            if self.wheel.due_comp[i] > now {
                assert!(
                    self.core_comp_due(i) > now,
                    "lockstep oracle: core {i} slot skipped at cycle {now} \
                     but its recomputed bound is due (missed wake edge)"
                );
            }
            if self.wheel.due_fe[i] > now {
                assert!(
                    self.fe_due(i) > now,
                    "lockstep oracle: frontend {i} slot skipped at cycle \
                     {now} but its recomputed bound is due (missed wake edge)"
                );
            }
        }
    }

    /// Lockstep oracle: instead of trusting a claimed idle window
    /// `[self.now, target)`, run it with the naive engine and panic on the
    /// first cycle whose state — components, links, statistics, frontends,
    /// everything but the clock — differs from the window start.
    fn verify_window(&mut self, target: u64, workers: &mut [WorkerLane<'_>]) {
        let reference = (self.state_digest(), self.sink_fill());
        while self.now < target {
            self.tick_workers(workers);
            assert_eq!(
                (self.state_digest(), self.sink_fill()),
                reference,
                "lockstep oracle: state changed at cycle {} inside a window \
                 the fast engine claimed idle (next event {})",
                self.now - 1,
                target
            );
        }
    }

    /// `(len, dropped)` of every installed event sink, in track order: an
    /// event emitted inside a claimed-idle window changes it.
    fn sink_fill(&self) -> Vec<Option<(usize, u64)>> {
        self.trace_sinks()
            .into_iter()
            .map(|s| s.map(|s| (s.len(), s.dropped())))
            .collect()
    }

    /// Hash of every piece of simulated state except the clock, used by the
    /// lockstep oracle to detect work inside a claimed-idle window and by
    /// engine-equivalence tests to compare whole machines: the token
    /// counter plus the machine sections [`System::snapshot`] writes after
    /// its header. The header, the clock, the deadline and the engine
    /// counters are left out, so the two engines compare equal.
    pub fn state_digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut w = SnapWriter::new();
        self.next_token.encode(&mut w);
        self.encode_machine(&mut w);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write(&w.into_bytes());
        h.finish()
    }

    /// The frontend's contribution to the next-event bound. `None` means
    /// only an LSU completion (evented through the cache) can wake it.
    fn frontend_next_event(&self, i: usize) -> Option<u64> {
        let now = self.now;
        match &self.frontends[i] {
            Frontend::Idle => None,
            Frontend::Worker {
                busy,
                nop_until,
                finished,
            } => {
                if *finished {
                    return None;
                }
                if let Some(tok) = *busy {
                    return self.lsus[i].has_finished(tok).then_some(now);
                }
                if let Some(until) = *nop_until {
                    return Some(until.max(now));
                }
                // About to poll the worker for its next command: its host
                // computation takes zero simulated time and must run this
                // cycle.
                Some(now)
            }
            Frontend::Replay {
                ops,
                next,
                nop_until,
                base,
            } => {
                if *next >= ops.len() {
                    // Nothing left to issue, but a trailing Nop delay still
                    // has to elapse before `frontend_done` holds.
                    return (now < *nop_until).then_some(*nop_until);
                }
                // The head op can only issue once both its recorded cycle
                // and any pending think time have elapsed — the exact gate
                // is the max, so that is the next self-driven event.
                let gate = (*nop_until).max(script_cycle(*base, ops[*next].at));
                if now < gate {
                    return Some(gate);
                }
                match ops[*next].op {
                    Op::Nop { .. } => Some(now),
                    op => self.lsus[i].has_room(op).then_some(now),
                }
            }
        }
    }

    /// Steps the frontends of the cores set in `which` (the naive engine
    /// passes every core). Returns two per-core bitmasks for the wheel's
    /// wake edges: `enqueued` — cores whose LSU received an op this cycle
    /// (the core slot must run next cycle); `active` — cores whose frontend
    /// changed state at all (its due bound must be recomputed). The naive
    /// engine ignores both. `workers` holds the live worker futures of a
    /// worker-mode run (empty otherwise).
    fn step_frontends(&mut self, workers: &mut [WorkerLane<'_>], which: u64) -> (u64, u64) {
        let now = self.now;
        // A worker's response, flagged once its run's budget expired.
        let deadline = self.deadline;
        let resp = |value| Resp {
            value,
            halted: now >= deadline,
        };
        let mut enqueued = 0u64;
        let mut active = 0u64;
        // Disjoint field borrows: each frontend is stepped in place instead
        // of being moved out and back every tick.
        let System {
            frontends,
            lsus,
            next_token,
            capture,
            ..
        } = self;
        // Capture mode records every committed op with its issue cycle;
        // recording is observation only and must not influence issue.
        let mut record = |core: usize, op: Op| {
            if let Some(cap) = capture.as_mut() {
                cap.push(CapturedOp {
                    cycle: now,
                    core: core as u32,
                    op,
                });
            }
        };
        for (i, fe) in frontends.iter_mut().enumerate() {
            let bit = 1u64 << i;
            if which & bit == 0 {
                continue;
            }
            match fe {
                Frontend::Idle => {}
                Frontend::Replay {
                    ops,
                    next,
                    nop_until,
                    base,
                } => {
                    lsus[i].drain_finished();
                    let mut issued = 0;
                    while issued < ISSUE_WIDTH
                        && *next < ops.len()
                        && now >= *nop_until
                        && now >= script_cycle(*base, ops[*next].at)
                    {
                        match ops[*next].op {
                            Op::Nop { cycles } => {
                                *nop_until = script_cycle(now, cycles);
                                *next += 1;
                                issued += 1;
                                record(i, Op::Nop { cycles });
                            }
                            op => {
                                if !lsus[i].has_room(op) {
                                    break;
                                }
                                let tok = *next_token + 1;
                                *next_token = tok;
                                lsus[i].enqueue(tok, op, now);
                                *next += 1;
                                issued += 1;
                                enqueued |= bit;
                                record(i, op);
                            }
                        }
                    }
                    if issued > 0 {
                        active |= bit;
                    }
                }
                Frontend::Worker {
                    busy,
                    nop_until,
                    finished,
                } => {
                    if *finished {
                        continue;
                    }
                    // A worker lane is missing only after a worker-mode run
                    // unwound; its frontend reads as finished.
                    let Some(lane) = workers.get_mut(i) else {
                        *finished = true;
                        active |= bit;
                        continue;
                    };
                    // Deliver a completed op's or think time's result.
                    if let Some(tok) = *busy {
                        match lsus[i].take_finished(tok) {
                            Some(value) => {
                                *busy = None;
                                active |= bit;
                                lane.mailbox.respond(resp(value));
                            }
                            None => continue,
                        }
                    }
                    if let Some(until) = *nop_until {
                        if now < until {
                            continue;
                        }
                        *nop_until = None;
                        active |= bit;
                        lane.mailbox.respond(resp(0));
                    }
                    // Poll the worker for its next command (its host-side
                    // computation takes zero simulated time).
                    loop {
                        active |= bit;
                        match lane.next_cmd(i) {
                            Some(Cmd::RdCycle) => lane.mailbox.respond(resp(now)),
                            Some(Cmd::Op(Op::Nop { cycles })) => {
                                *nop_until = Some(now + cycles);
                                record(i, Op::Nop { cycles });
                                break;
                            }
                            Some(Cmd::Op(op)) => {
                                let tok = *next_token + 1;
                                *next_token = tok;
                                // A worker has at most one op in flight;
                                // room is guaranteed.
                                lsus[i].enqueue(tok, op, now);
                                *busy = Some(tok);
                                enqueued |= bit;
                                record(i, op);
                                break;
                            }
                            None => {
                                // Capture the end of the worker as a
                                // zero-cycle think time: the worker run
                                // executes this cycle to retire the worker,
                                // so a replay must execute it too for the
                                // final cycle count to match (a trailing
                                // Nop's expiry alone is a pure time bound a
                                // fast-forward engine can satisfy without
                                // executing the cycle).
                                *finished = true;
                                record(i, Op::Nop { cycles: 0 });
                                break;
                            }
                        }
                    }
                }
            }
        }
        (enqueued, active)
    }

    /// Whether core `core`'s frontend has nothing left to do: its script
    /// drained (trailing think time included) or its worker returned, and
    /// its LSU is empty.
    fn frontend_done(&self, core: usize) -> bool {
        let drained = match &self.frontends[core] {
            Frontend::Idle => return true,
            Frontend::Worker { finished, .. } => *finished,
            Frontend::Replay {
                ops,
                next,
                nop_until,
                ..
            } => *next >= ops.len() && self.now >= *nop_until,
        };
        drained && self.lsus[core].is_empty()
    }

    /// Every frontend is done — the end of a programs, replay or worker run.
    fn frontends_done(&self) -> bool {
        (0..self.cfg.cores).all(|i| self.frontend_done(i))
    }

    /// Runs any [`Workload`] to completion — the single entry point for
    /// every drive mode. See [`crate::workload`] for the first-party
    /// workloads ([`crate::workload::Programs`],
    /// [`crate::workload::Workers`], [`crate::workload::ReplaySchedule`])
    /// and the [`RunReport`] contract. Callable repeatedly — cache and
    /// memory state persists between runs, which is how benchmarks separate
    /// warm-up from the measured phase.
    ///
    /// ```
    /// use skipit_boom::{Op, Programs, System, SystemConfig};
    ///
    /// let mut sys = System::new(SystemConfig::default());
    /// let cycles = sys
    ///     .run(Programs(vec![vec![
    ///         Op::Store { addr: 0x1000, value: 42 },
    ///         Op::Flush { addr: 0x1000 },
    ///         Op::Fence,
    ///     ]]))
    ///     .cycles;
    /// assert!(cycles > 0);
    /// ```
    ///
    /// # Panics
    ///
    /// As the workload: see its type-level docs.
    pub fn run<W: Workload>(&mut self, workload: W) -> RunReport<W::Output> {
        workload.run(self)
    }

    /// The op-script run behind [`Programs`] and
    /// [`crate::workload::ReplaySchedule`]: one script frontend per lane,
    /// stamped from the current cycle, driven under `observe`. Panics,
    /// naming `what`, on more lanes than cores or past the watchdog.
    pub(crate) fn run_script<E>(
        &mut self,
        lanes: Vec<Vec<TimedOp>>,
        what: &str,
        observe: impl FnMut(&System) -> Result<(), E>,
    ) -> Result<u64, (u64, E)> {
        assert!(
            lanes.len() <= self.cfg.cores,
            "{} {what} lanes for {} cores",
            lanes.len(),
            self.cfg.cores
        );
        for (i, ops) in lanes.into_iter().enumerate() {
            self.frontends[i] = Frontend::Replay {
                ops,
                next: 0,
                nop_until: 0,
                base: self.now,
            };
        }
        let watchdog = Some((RUN_WATCHDOG_CYCLES, what));
        self.drive(Self::frontends_done, &mut [], watchdog, observe)
    }

    /// The one engine loop behind every run entry point: steps the engine
    /// until `done` holds, calling `observe` before every step, then resets
    /// every frontend to idle. `done` is re-checked after every clock
    /// movement — crucially also right after a fast-forward jump, before
    /// the tick at the jump target, since predicates such as a trailing
    /// Nop's expiry are conditions on `now`. A run still going `budget`
    /// cycles after the call panics with "`what` run exceeded watchdog
    /// budget"; worker runs pass `None` (their budget is a soft stop).
    /// Returns the elapsed cycles, or the observer's first error and cycle.
    fn drive<E>(
        &mut self,
        done: impl Fn(&Self) -> bool + Copy,
        workers: &mut [WorkerLane<'_>],
        watchdog: Option<(u64, &str)>,
        mut observe: impl FnMut(&System) -> Result<(), E>,
    ) -> Result<u64, (u64, E)> {
        let start = self.now;
        // Installed frontends (or a restore) changed state outside the
        // wheel's view.
        self.wheel.valid = false;
        let result = loop {
            if let Err(e) = observe(self) {
                break Err((self.now, e));
            }
            let finished = done(self)
                || match self.cfg.engine {
                    EngineKind::Naive => {
                        self.tick_workers(workers);
                        false
                    }
                    EngineKind::ComponentWheel => self.step_wheel(done, workers),
                };
            if finished {
                break Ok(self.now - start);
            }
            if let Some((budget, what)) = watchdog {
                assert!(
                    self.now - start < budget,
                    "{what} run exceeded watchdog budget"
                );
            }
        };
        for fe in &mut self.frontends {
            *fe = Frontend::Idle;
        }
        self.wheel.valid = false;
        result
    }

    /// Program mode ([`run(Programs(…))`](Self::run)) with a continuous
    /// observer: `observe` is called
    /// at every executed cycle boundary (before the cycle runs, and once more
    /// at completion). Cycles the fast-forward engines skip are provably free
    /// of state changes, so observing only executed boundaries sees every
    /// distinct machine state the run passes through — this is the hook the
    /// exploration harness uses for its always-on invariant oracle and
    /// crash-point snapshots.
    ///
    /// The first `Err(e)` aborts the run (frontends reset to idle) and
    /// returns `Err((cycle, e))` with the cycle at which the observer
    /// rejected the state; otherwise returns `Ok(elapsed_cycles)`.
    ///
    /// # Panics
    ///
    /// Panics if more programs than cores are supplied, or if the programs
    /// fail to finish within [`RUN_WATCHDOG_CYCLES`] (an interlock bug).
    pub fn run_programs_observed<E>(
        &mut self,
        programs: Vec<Vec<Op>>,
        observe: impl FnMut(&System) -> Result<(), E>,
    ) -> Result<u64, (u64, E)> {
        self.run_script(Programs(programs).into_lanes(), "program", observe)
    }

    /// Runs the system until every cache and the L2 are quiescent (drains
    /// asynchronous writebacks that no fence waited for). Frontends end
    /// idle, like after any run.
    pub fn quiesce(&mut self) {
        let Ok(()) = self.quiesce_observed(unobserved);
    }

    /// [`Self::quiesce`] with a continuous observer, under the same contract
    /// as [`Self::run_programs_observed`].
    pub fn quiesce_observed<E>(
        &mut self,
        observe: impl FnMut(&System) -> Result<(), E>,
    ) -> Result<(), (u64, E)> {
        let quiescent = |s: &Self| s.l1s.iter().all(|c| c.is_quiescent()) && s.l2.is_quiescent();
        let watchdog = Some((QUIESCE_WATCHDOG_CYCLES, "quiesce"));
        self.drive(quiescent, &mut [], watchdog, observe)
            .map(|_| ())
    }

    /// Worker mode's engine loop ([`crate::workload::Workers`]): runs one
    /// worker future per core (missing cores idle), each driving its core
    /// through a [`CoreHandle`], and polls them in place from the frontend
    /// phase; returns `(elapsed_cycles, results, budget_expired)`.
    ///
    /// **Budget semantics** (preserved by [`RunReport`]): `budget` is a
    /// *soft* stop measured from the call. Once `budget` cycles have
    /// elapsed, every [`CoreHandle`] response carries `halted = true` and
    /// well-behaved workers wind down — but the run continues until every
    /// worker actually returns, so the elapsed cycles *include* the
    /// post-deadline drain and every worker's result is present in the
    /// returned `Vec` (in worker order). Expiry never truncates results.
    ///
    /// # Panics
    ///
    /// Panics if more workers than cores are supplied, or if a worker
    /// panics or suspends on anything but a [`CoreHandle`] op.
    pub(crate) fn run_workers_inner<R, F, Fut>(
        &mut self,
        workers: Vec<F>,
        budget: Option<u64>,
    ) -> (u64, Vec<R>, bool)
    where
        F: FnOnce(CoreHandle) -> Fut,
        Fut: Future<Output = R>,
    {
        assert!(
            workers.len() <= self.cfg.cores,
            "{} workers for {} cores",
            workers.len(),
            self.cfg.cores
        );
        self.deadline = budget.map_or(u64::MAX, |b| self.now + b);
        let mut results: Vec<Option<R>> = workers.iter().map(|_| None).collect();
        let cycles = {
            let mut lanes = Vec::with_capacity(workers.len());
            for (i, (worker, slot)) in workers.into_iter().zip(&mut results).enumerate() {
                let mailbox = Rc::new(Mailbox::default());
                let fut = worker(CoreHandle::new(Rc::clone(&mailbox), i));
                self.frontends[i] = Frontend::Worker {
                    busy: None,
                    nop_until: None,
                    finished: false,
                };
                lanes.push(WorkerLane {
                    mailbox,
                    fut: Box::pin(async move { *slot = Some(fut.await) }),
                });
            }
            let Ok(cycles) = self.drive(Self::frontends_done, &mut lanes, None, unobserved);
            cycles
        };
        let expired = self.deadline != u64::MAX && self.now >= self.deadline;
        self.deadline = u64::MAX;
        let results = results
            .into_iter()
            .map(|r| r.expect("a finished worker has produced its result"))
            .collect();
        (cycles, results, expired)
    }
}

// --- snapshot & restore (DESIGN.md §11) ---

use crate::snapshot::Snapshot;
use skipit_snap::{Codec, SnapError, SnapReader, SnapWriter};

/// [`EngineStats::phase`] is host wall-time attribution, not simulated
/// state; it is not serialized and decodes to zero (matching the
/// `PartialEq` contract, which ignores it).
impl Codec for EngineStats {
    fn encode(&self, w: &mut SnapWriter) {
        self.skipped_cycles.encode(w);
        self.jumps.encode(w);
        self.component_steps.encode(w);
        self.component_slots.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(EngineStats {
            skipped_cycles: u64::decode(r)?,
            jumps: u64::decode(r)?,
            component_steps: u64::decode(r)?,
            component_slots: u64::decode(r)?,
            phase: PhaseProfile::default(),
        })
    }
}

impl Frontend {
    /// A worker frontend follows a live host future that no byte encoding
    /// can capture: [`System::snapshot`] refuses it before encoding, and
    /// the state digest writes its mailbox state under tag 3, which
    /// [`Frontend::decode`] rejects.
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            Frontend::Idle => w.put_u8(0),
            Frontend::Worker {
                busy,
                nop_until,
                finished,
            } => {
                w.put_u8(3);
                busy.encode(w);
                nop_until.encode(w);
                finished.encode(w);
            }
            Frontend::Replay {
                ops,
                next,
                nop_until,
                base,
            } => {
                w.put_u8(2);
                ops.encode(w);
                next.encode(w);
                nop_until.encode(w);
                base.encode(w);
            }
        }
    }

    /// Decodes a frontend of a system whose clock reads `now`. Tag 1, the
    /// program frontend of snapshot version 1, no longer exists.
    fn decode(r: &mut SnapReader<'_>, now: u64) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(Frontend::Idle),
            2 => {
                let ops = Vec::<TimedOp>::decode(r)?;
                let next = usize::decode(r)?;
                if next > ops.len() {
                    return Err(SnapError::Corrupt("frontend replay cursor"));
                }
                let nop_until = u64::decode(r)?;
                let base = u64::decode(r)?;
                // Every cycle the frontend will still compute must fit the
                // clock: each pending op's stamp `base + at` and, for think
                // time, the end it sets (issued no earlier than the stamp,
                // the current cycle and the pending think time's end).
                let representable = ops[next..].iter().all(|t| {
                    base.checked_add(t.at).is_some_and(|stamp| match t.op {
                        Op::Nop { cycles } => {
                            stamp.max(now).max(nop_until).checked_add(cycles).is_some()
                        }
                        _ => true,
                    })
                });
                if !representable {
                    return Err(SnapError::Corrupt("frontend replay cycle"));
                }
                Ok(Frontend::Replay {
                    ops,
                    next,
                    nop_until,
                    base,
                })
            }
            _ => Err(SnapError::Corrupt("frontend tag")),
        }
    }
}

/// Fingerprint of the configuration fields that shape simulated state:
/// geometry, latencies, queue depths and the perturbation setup. The
/// engine choice and the lockstep oracle are deliberately *excluded* —
/// they are host-side scheduling decisions whose observable behaviour is
/// bit-identical by contract, so a snapshot taken under one engine
/// restores under the other. Every field is named, so a new one does not
/// compile until it is hashed or excluded here.
fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    use std::hash::{Hash, Hasher};
    let SystemConfig {
        cores,
        l1,
        l2,
        dram,
        perturb,
        engine: _,
        lockstep_oracle: _,
    } = cfg;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{cores}|{l1:?}|{l2:?}|{dram:?}|{perturb:?}").hash(&mut h);
    h.finish()
}

impl System {
    /// Captures every piece of simulated state into a versioned,
    /// self-describing [`Snapshot`]: per-core frontends and LSUs, L1
    /// arrays + flush units + MSHRs, all five TileLink links per core, the
    /// L2, DRAM, the clock, token allocator, deadline and engine counters
    /// (including the perturbation draw positions, so a perturbed run
    /// resumes on the exact jitter sequence it would have seen).
    ///
    /// Host-side observation machinery — trace sinks, telemetry, the wheel
    /// scheduler — is not captured; [`System::restore`]
    /// rebuilds it from the offered configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError::LiveThreads`] if any core is in worker mode (inside a
    /// [`crate::workload::Workers`] run): a live worker future cannot be
    /// encoded. Snapshot between runs, or from
    /// [`System::run_programs_observed`]'s observer hook.
    pub fn snapshot(&self) -> Result<Snapshot, SnapError> {
        if self
            .frontends
            .iter()
            .any(|fe| matches!(fe, Frontend::Worker { .. }))
        {
            return Err(SnapError::LiveThreads);
        }
        let mut w = SnapWriter::new();
        Snapshot::write_header(&mut w, config_fingerprint(&self.cfg));
        w.put_u64(self.cfg.cores as u64);
        self.now.encode(&mut w);
        self.next_token.encode(&mut w);
        self.deadline.encode(&mut w);
        self.engine.encode(&mut w);
        self.encode_machine(&mut w);
        Ok(Snapshot::from_writer(w))
    }

    /// The machine sections shared by [`System::snapshot`] and
    /// [`System::state_digest`]: per-core frontends, LSUs and L1s, the L2,
    /// DRAM, then links A–E of each core.
    fn encode_machine(&self, w: &mut SnapWriter) {
        for fe in &self.frontends {
            fe.encode(w);
        }
        for lsu in &self.lsus {
            lsu.encode_state(w);
        }
        for l1 in &self.l1s {
            l1.encode_state(w);
        }
        self.l2.encode_state(w);
        self.dram.encode_state(w);
        for i in 0..self.cfg.cores {
            self.a[i].encode_state(w);
            self.b[i].encode_state(w);
            self.c[i].encode_state(w);
            self.d[i].encode_state(w);
            self.e[i].encode_state(w);
        }
    }

    /// Rebuilds a live system from `snap` under `cfg`. The restored system
    /// is bit-identical to the snapshotted one going forward — same cycle
    /// count, statistics, durable image, state digests and trace streams —
    /// on either engine: `cfg` may differ from the snapshotting
    /// configuration in [`SystemConfig::engine`] and
    /// [`SystemConfig::lockstep_oracle`] (host-side scheduling choices),
    /// but in nothing that shapes simulated state.
    ///
    /// Tracing and telemetry come up uninstalled (the snapshot carries no
    /// host-side observers); call [`System::set_trace`] afterwards.
    ///
    /// # Errors
    ///
    /// [`SnapError::ConfigMismatch`] if `cfg` disagrees with the
    /// snapshot's fingerprint; any other [`SnapError`] for corrupt,
    /// truncated, foreign or wrong-version bytes. Never panics on bad
    /// input.
    pub fn restore(snap: &Snapshot, cfg: &SystemConfig) -> Result<System, SnapError> {
        let mut r = snap.payload_reader()?;
        if r.get_u64()? != config_fingerprint(cfg) {
            return Err(SnapError::ConfigMismatch);
        }
        if r.get_u64()? != cfg.cores as u64 {
            return Err(SnapError::ConfigMismatch);
        }
        let mut sys = System::new(*cfg);
        sys.now = u64::decode(&mut r)?;
        sys.next_token = OpToken::decode(&mut r)?;
        sys.deadline = u64::decode(&mut r)?;
        sys.engine = EngineStats::decode(&mut r)?;
        for fe in &mut sys.frontends {
            *fe = Frontend::decode(&mut r, sys.now)?;
        }
        for lsu in &mut sys.lsus {
            lsu.decode_state(&mut r)?;
        }
        for l1 in &mut sys.l1s {
            l1.decode_state(&mut r)?;
        }
        sys.l2.decode_state(&mut r)?;
        sys.dram.decode_state(&mut r)?;
        for i in 0..cfg.cores {
            sys.a[i].decode_state(&mut r)?;
            sys.b[i].decode_state(&mut r)?;
            sys.c[i].decode_state(&mut r)?;
            sys.d[i].decode_state(&mut r)?;
            sys.e[i].decode_state(&mut r)?;
        }
        r.finish()?;
        // The fresh wheel has never seen this state; force a replan.
        sys.wheel.valid = false;
        Ok(sys)
    }

    /// Continues a run restored mid-flight: steps the system until every
    /// script frontend — a [`crate::workload::Programs`] or
    /// [`crate::workload::ReplaySchedule`] lane — has drained (immediately
    /// returning `0` if all cores are idle), then resets frontends to idle:
    /// exactly the tail of the run the snapshot interrupted, so a
    /// restore-then-resume reaches the same final state, cycle count and
    /// statistics as the uninterrupted run.
    ///
    /// # Panics
    ///
    /// As a program-mode run ([`RUN_WATCHDOG_CYCLES`]).
    pub fn resume_programs(&mut self) -> u64 {
        let watchdog = Some((RUN_WATCHDOG_CYCLES, "program"));
        let Ok(cycles) = self.drive(Self::frontends_done, &mut [], watchdog, unobserved);
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Programs, Workers};

    fn sys(cores: usize, skip_it: bool) -> System {
        System::new(SystemConfig {
            cores,
            l1: L1Config {
                skip_it,
                ..L1Config::default()
            },
            ..SystemConfig::default()
        })
    }

    #[test]
    #[ignore = "diagnostic: host-side cost breakdown of an idle tick"]
    fn time_idle_tick_components() {
        use std::time::Instant;
        for cores in [1usize, 8] {
            let mut s = sys(cores, false);
            // Warm the system up with one store per core, then quiesce so
            // every component is idle but internally non-trivial.
            let progs = (0..cores as u64)
                .map(|t| {
                    vec![Op::Store {
                        addr: 0x100_0000 + t * 0x10_0000,
                        value: t,
                    }]
                })
                .collect();
            s.run(Programs(progs));
            const N: u64 = 1_000_000;
            let t0 = Instant::now();
            for _ in 0..N {
                s.tick();
            }
            let tick_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..N {
                acc = acc.wrapping_add(s.l2_due());
                for i in 0..cores {
                    acc = acc.wrapping_add(s.core_comp_due(i));
                }
            }
            let bounds_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let now = s.now;
            let t0 = Instant::now();
            for _ in 0..N {
                let mut ports = skipit_dcache::L1Ports {
                    a: &mut s.a[0],
                    b: &mut s.b[0],
                    c: &mut s.c[0],
                    d: &mut s.d[0],
                    e: &mut s.e[0],
                };
                s.l1s[0].step(now, &mut ports);
            }
            let l1_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let t0 = Instant::now();
            for _ in 0..N {
                s.lsus[0].step(now, &mut s.l1s[0]);
            }
            let lsu_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let t0 = Instant::now();
            for _ in 0..N {
                let mut ports = L2Ports {
                    a: &mut s.a,
                    b: &mut s.b,
                    c: &mut s.c,
                    d: &mut s.d,
                    e: &mut s.e,
                    mem: &mut s.dram,
                };
                s.l2.step(now, &mut ports);
            }
            let l2_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let t0 = Instant::now();
            for _ in 0..N {
                s.step_frontends(&mut [], u64::MAX);
            }
            let fe_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            eprintln!(
                "cores={cores}: tick {tick_ns:.0}ns, wheel bounds {bounds_ns:.0}ns, \
                 l1.step {l1_ns:.0}ns, lsu.step {lsu_ns:.0}ns, l2.step \
                 {l2_ns:.0}ns, frontends {fe_ns:.0}ns (acc {acc})"
            );
        }
    }

    #[test]
    fn single_core_store_flush_fence_persists() {
        let mut s = sys(1, false);
        let cycles = s
            .run(Programs(vec![vec![
                Op::Store {
                    addr: 0x1000,
                    value: 0xdead,
                },
                Op::Flush { addr: 0x1000 },
                Op::Fence,
            ]]))
            .cycles;
        assert!(cycles > 0);
        assert_eq!(s.dram().read_word_direct(0x1000), 0xdead);
    }

    #[test]
    fn store_without_writeback_is_not_persisted() {
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![Op::Store {
            addr: 0x1000,
            value: 7,
        }]]));
        s.quiesce();
        let dram = s.durable_image();
        assert_eq!(
            dram.read_word_direct(0x1000),
            0,
            "unwritten-back data must be lost on crash"
        );
    }

    #[test]
    fn clean_persists_but_keeps_line() {
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![
            Op::Store {
                addr: 0x2000,
                value: 3,
            },
            Op::Clean { addr: 0x2000 },
            Op::Fence,
            Op::Load { addr: 0x2000 },
        ]]));
        assert_eq!(s.dram().read_word_direct(0x2000), 3);
        assert_eq!(s.stats().l1[0].load_hits, 1, "clean must not invalidate");
    }

    #[test]
    fn flush_forces_refetch() {
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![
            Op::Store {
                addr: 0x3000,
                value: 4,
            },
            Op::Flush { addr: 0x3000 },
            Op::Fence,
            Op::Load { addr: 0x3000 },
        ]]));
        let st = s.stats();
        assert_eq!(st.l1[0].load_hits, 0, "flush must invalidate the line");
        assert_eq!(st.l1[0].loads, 1);
        assert_eq!(s.dram().read_word_direct(0x3000), 4);
    }

    #[test]
    fn cross_core_coherence_transfers_value() {
        let mut s = sys(2, false);
        s.run(Programs(vec![
            vec![Op::Store {
                addr: 0x4000,
                value: 11,
            }],
            vec![],
        ]));
        let (_, vals) = s
            .run(Workers::new(vec![|h: CoreHandle| async move {
                let v = h.load(0x4000).await;
                h.finish();
                v
            }]))
            .into_parts();
        // Core 0 wrote; core 1 must read 11 through coherence... but note
        // the worker ran on core 0 here (workers map to cores in order), so
        // run a proper 2-core variant below. This checks basic re-read.
        assert_eq!(vals[0], 11);
    }

    #[test]
    fn two_workers_communicate_through_simulated_memory() {
        let mut s = sys(2, false);
        let (_, results) = s
            .run(
                Workers::new(vec![
                    |h: CoreHandle| async move {
                        if h.core_id() == 0 {
                            h.store(0x5000, 21).await;
                            // Signal readiness through another line.
                            h.store(0x5040, 1).await;
                            h.finish();
                            return 0u64;
                        }
                        // Spin on the flag (coherent read).
                        while h.load(0x5040).await == 0 {
                            if h.halted() {
                                return u64::MAX;
                            }
                        }
                        let v = h.load(0x5000).await;
                        h.finish();
                        v
                    };
                    2
                ])
                .budget(2_000_000),
            )
            .into_parts();
        assert_eq!(results[1], 21);
    }

    #[test]
    fn skip_it_system_drops_redundant_writebacks() {
        let mut s = sys(1, true);
        let mut prog = vec![
            Op::Store {
                addr: 0x6000,
                value: 1,
            },
            Op::Clean { addr: 0x6000 },
            Op::Fence,
        ];
        for _ in 0..10 {
            prog.push(Op::Clean { addr: 0x6000 });
            prog.push(Op::Fence);
        }
        s.run(Programs(vec![prog]));
        let st = s.stats();
        assert_eq!(st.l1[0].writebacks_skipped, 10);
        assert_eq!(st.l1[0].writebacks_enqueued, 1);
    }

    #[test]
    fn naive_system_sends_all_writebacks_but_l2_skips_dram() {
        let mut s = sys(1, false);
        let mut prog = vec![
            Op::Store {
                addr: 0x6000,
                value: 1,
            },
            Op::Clean { addr: 0x6000 },
            Op::Fence,
        ];
        for _ in 0..10 {
            prog.push(Op::Clean { addr: 0x6000 });
            prog.push(Op::Fence);
        }
        s.run(Programs(vec![prog]));
        let st = s.stats();
        assert_eq!(st.l1[0].writebacks_skipped, 0);
        assert_eq!(st.l1[0].writebacks_enqueued, 11);
        // The L2 dirty-bit check eliminates the redundant DRAM writes
        // (§5.5): only the first clean writes memory.
        assert_eq!(st.l2.root_release_dram_writes, 1);
        assert_eq!(st.l2.root_release_dram_skipped, 10);
    }

    #[test]
    fn fence_after_many_flushes_waits_for_all() {
        let mut s = sys(1, false);
        let mut prog = Vec::new();
        for i in 0..32u64 {
            prog.push(Op::Store {
                addr: 0x8000 + i * 64,
                value: i + 1,
            });
        }
        for i in 0..32u64 {
            prog.push(Op::Flush {
                addr: 0x8000 + i * 64,
            });
        }
        prog.push(Op::Fence);
        s.run(Programs(vec![prog]));
        for i in 0..32u64 {
            assert_eq!(s.dram().read_word_direct(0x8000 + i * 64), i + 1);
        }
    }

    #[test]
    fn flush_latency_is_near_paper_calibration() {
        // §7.2: a single-line clean/flush has a median latency of ≈100
        // cycles. Allow a generous band; EXPERIMENTS.md tracks the value.
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![Op::Store {
            addr: 0x9000,
            value: 1,
        }]]));
        let cycles = s
            .run(Programs(vec![vec![Op::Flush { addr: 0x9000 }, Op::Fence]]))
            .cycles;
        assert!(
            (40..=250).contains(&cycles),
            "single-line flush+fence took {cycles} cycles"
        );
    }

    #[test]
    fn rdcycle_advances() {
        let mut s = sys(1, false);
        let (_, vals) = s
            .run(Workers::new(vec![|h: CoreHandle| async move {
                let t0 = h.rdcycle().await;
                h.store(0x100, 1).await;
                let t1 = h.rdcycle().await;
                h.finish();
                (t0, t1)
            }]))
            .into_parts();
        assert!(vals[0].1 > vals[0].0);
    }

    #[test]
    fn work_occupies_cycles() {
        let mut s = sys(1, false);
        let (_, vals) = s
            .run(Workers::new(vec![|h: CoreHandle| async move {
                let t0 = h.rdcycle().await;
                h.work(100).await;
                let t1 = h.rdcycle().await;
                h.finish();
                t1 - t0
            }]))
            .into_parts();
        assert!(vals[0] >= 100, "work(100) took only {} cycles", vals[0]);
    }

    #[test]
    fn budget_halts_workers() {
        let mut s = sys(1, false);
        let (_, ops) = s
            .run(
                Workers::new(vec![|h: CoreHandle| async move {
                    let mut n = 0u64;
                    while !h.halted() {
                        h.store(0x100, n).await;
                        n += 1;
                    }
                    h.finish();
                    n
                }])
                .budget(10_000),
            )
            .into_parts();
        assert!(ops[0] > 0);
    }

    /// Two contending cores with long idle stretches — plenty of windows for
    /// the fast engine to skip, plenty of races it must not reorder.
    fn contended_programs() -> Vec<Vec<Op>> {
        let line = |i: u64| 0x1_0000 + i * 64;
        let mut p0 = Vec::new();
        for i in 0..8 {
            p0.push(Op::Store {
                addr: line(i),
                value: i + 1,
            });
        }
        for i in 0..8 {
            p0.push(Op::Clean { addr: line(i) });
        }
        p0.push(Op::Fence);
        p0.push(Op::Nop { cycles: 500 });
        p0.push(Op::Load { addr: line(0) });
        let mut p1 = vec![Op::Nop { cycles: 37 }];
        for i in 0..8 {
            p1.push(Op::Store {
                addr: line(i),
                value: 100 + i,
            });
            p1.push(Op::Flush { addr: line(i) });
        }
        p1.push(Op::Fence);
        vec![p0, p1]
    }

    fn engine_run(kind: EngineKind) -> (u64, SystemStats, Vec<u64>, EngineStats) {
        let mut s = System::new(SystemConfig {
            cores: 2,
            engine: kind,
            ..SystemConfig::default()
        });
        let cycles = s.run(Programs(contended_programs())).cycles;
        s.quiesce();
        let words = (0..8)
            .map(|i| s.dram().read_word_direct(0x1_0000 + i * 64))
            .collect();
        (cycles, s.stats(), words, s.engine_stats())
    }

    #[test]
    fn wheel_engine_matches_naive_engine_exactly() {
        let (naive_cycles, naive_stats, naive_mem, naive_engine) = engine_run(EngineKind::Naive);
        let (cycles, stats, mem, engine) = engine_run(EngineKind::ComponentWheel);
        assert_eq!(naive_cycles, cycles, "elapsed cycles diverge");
        assert_eq!(naive_stats, stats, "statistics diverge");
        assert_eq!(naive_mem, mem, "DRAM contents diverge");
        assert!(
            engine.jumps > 0 && engine.skipped_cycles > 0,
            "wheel never skipped on an idle-heavy workload: {engine:?}"
        );
        assert!(
            engine.component_steps < engine.component_slots,
            "wheel skipped no component work: {engine:?}"
        );
        assert_eq!(
            naive_engine,
            EngineStats::default(),
            "naive engine must not count jumps"
        );
    }

    #[test]
    fn wheel_skips_idle_cores_inside_busy_cycles() {
        // Four cores, only core 0 busy: even on executed (non-jumped)
        // cycles the wheel must leave the three idle core slots asleep, so
        // well over half of all component slots go unstepped.
        let mut s = System::new(SystemConfig {
            cores: 4,
            ..SystemConfig::default()
        });
        let mut prog = Vec::new();
        for i in 0..16u64 {
            prog.push(Op::Store {
                addr: 0x2_0000 + i * 64,
                value: i + 1,
            });
        }
        for i in 0..16u64 {
            prog.push(Op::Clean {
                addr: 0x2_0000 + i * 64,
            });
        }
        prog.push(Op::Fence);
        s.run(Programs(vec![prog]));
        let e = s.engine_stats();
        let pct = e.component_skipped_pct().unwrap();
        assert!(
            pct > 50.0,
            "wheel burned idle-core slots: {pct:.1}% skipped, {e:?}"
        );
    }

    #[test]
    fn lockstep_oracle_accepts_real_windows() {
        let mut s = System::new(SystemConfig {
            cores: 2,
            lockstep_oracle: true,
            ..SystemConfig::default()
        });
        s.run(Programs(contended_programs()));
        assert!(
            s.engine_stats().jumps > 0,
            "oracle mode must still take (verified) jumps"
        );
    }

    #[test]
    fn worker_mode_matches_naive_engine() {
        let run = |kind: EngineKind| {
            let mut s = System::new(SystemConfig {
                cores: 2,
                engine: kind,
                ..SystemConfig::default()
            });
            s.run(Workers::new(vec![
                |h: CoreHandle| async move {
                    if h.core_id() == 1 {
                        h.work(50).await;
                        let v = h.fetch_add(0x7000, 10).await;
                        h.fence().await;
                        h.finish();
                        return v;
                    }
                    for i in 0..6u64 {
                        h.store(0x7000 + i * 64, i + 1).await;
                    }
                    h.work(200).await;
                    let v = h.load(0x7000).await;
                    h.flush(0x7000).await;
                    h.fence().await;
                    h.finish();
                    v
                };
                2
            ]))
            .into_parts()
        };
        assert_eq!(run(EngineKind::Naive), run(EngineKind::ComponentWheel));
    }

    #[test]
    #[should_panic(expected = "injected workload failure")]
    fn worker_panic_propagates_instead_of_wedging() {
        let mut s = sys(2, false);
        let _ = s
            .run(
                Workers::new(vec![
                    |h: CoreHandle| async move {
                        if h.core_id() == 0 {
                            h.store(0x100, 1).await;
                            panic!("injected workload failure");
                        }
                        h.store(0x140, 2).await;
                        h.finish();
                        0u64
                    };
                    2
                ])
                .budget(1_000_000),
            )
            .into_parts();
    }

    /// A worker that suspends on something other than a `CoreHandle` op
    /// would never be woken; the frontend phase must fail loudly, naming
    /// the core, instead of spinning on it forever.
    #[test]
    #[should_panic(expected = "worker on core 1 suspended without awaiting a CoreHandle op")]
    fn worker_awaiting_foreign_future_panics_naming_the_core() {
        let mut s = sys(2, false);
        let _ = s.run(Workers::new(vec![
            |h: CoreHandle| async move {
                h.store(0x100 + 64 * h.core_id() as u64, 1).await;
                if h.core_id() == 1 {
                    std::future::pending::<()>().await;
                }
            };
            2
        ]));
    }

    /// Snapshots the contended 2-core run at the first observed cycle
    /// `>= at`, restores it under `restore_cfg`, resumes, and checks the
    /// resumed tail reaches the exact final state of the uninterrupted
    /// run (digest, cycles, stats, engine counters, durable words).
    fn snapshot_resume_matches(at: u64, restore_cfg: SystemConfig) {
        let base_cfg = SystemConfig {
            cores: 2,
            ..SystemConfig::default()
        };
        // Uninterrupted reference.
        let mut reference = System::new(base_cfg);
        let ref_cycles = reference.run(Programs(contended_programs())).cycles;
        let ref_digest = reference.state_digest();

        // Interrupted run: snapshot mid-flight, discard the original.
        let mut s = System::new(base_cfg);
        let mut snap = None;
        s.run_programs_observed(contended_programs(), |sys| {
            if sys.now() >= at && snap.is_none() {
                snap = Some(sys.snapshot().expect("program mode snapshots"));
            }
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        let snap = snap.expect("observer fired");
        let pre_cycles = {
            let r = System::restore(&snap, &base_cfg).unwrap();
            assert!(r.now() >= at, "snapshot taken at the requested cycle");
            r.now()
        };

        let mut resumed = System::restore(&snap, &restore_cfg).unwrap();
        let tail = resumed.resume_programs();
        assert_eq!(pre_cycles + tail, ref_cycles, "cycle counts agree");
        assert_eq!(resumed.state_digest(), ref_digest, "digests agree");
        assert_eq!(resumed.stats(), reference.stats(), "stats agree");
        // Engine counters are per-engine-kind bookkeeping; they only track
        // the reference when the tail runs under the same engine. Even
        // then, exact `component_steps` may differ by a step or two at the
        // resume boundary — the fresh wheel's replan can prove idle a
        // component the continuous run's incrementally-armed wheel stepped
        // as a no-op. Wheel arming history is host-side, not simulated
        // state; the cycle-derived slot count must agree exactly.
        if restore_cfg.engine == base_cfg.engine {
            assert_eq!(
                resumed.engine_stats().component_slots,
                reference.engine_stats().component_slots,
                "component slots agree"
            );
        }
        for i in 0..8 {
            let addr = 0x1_0000 + i * 64;
            assert_eq!(
                resumed.durable_image().read_word_direct(addr),
                reference.durable_image().read_word_direct(addr)
            );
        }
    }

    #[test]
    fn snapshot_restore_resume_is_bit_identical() {
        snapshot_resume_matches(
            40,
            SystemConfig {
                cores: 2,
                ..SystemConfig::default()
            },
        );
    }

    #[test]
    fn snapshot_restores_under_the_naive_engine() {
        // Snapshot under the default wheel engine; resume under the naive
        // engine — the simulated tail must be bit-identical.
        snapshot_resume_matches(
            60,
            SystemConfig {
                cores: 2,
                engine: EngineKind::Naive,
                ..SystemConfig::default()
            },
        );
    }

    #[test]
    fn quiesced_snapshot_roundtrips_exactly() {
        let mut s = sys(2, true);
        s.run(Programs(contended_programs()));
        s.quiesce();
        let snap = s.snapshot().unwrap();
        let restored = System::restore(&snap, s.config()).unwrap();
        assert_eq!(restored.state_digest(), s.state_digest());
        assert_eq!(restored.now(), s.now());
        assert_eq!(restored.stats(), s.stats());
        // And the restored image re-snapshots to the same bytes.
        assert_eq!(restored.snapshot().unwrap(), snap);
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![Op::Store {
            addr: 0x40,
            value: 1,
        }]]));
        let snap = s.snapshot().unwrap();
        let other = SystemConfig {
            cores: 2,
            ..SystemConfig::default()
        };
        assert!(matches!(
            System::restore(&snap, &other),
            Err(SnapError::ConfigMismatch)
        ));
    }

    #[test]
    fn restore_rejects_truncated_and_trailing_bytes() {
        let s = sys(1, false);
        let bytes = s.snapshot().unwrap().into_bytes();

        let truncated = Snapshot::from_bytes(bytes[..bytes.len() - 1].to_vec()).unwrap();
        assert!(System::restore(&truncated, s.config()).is_err());

        let mut padded = bytes.clone();
        padded.push(0);
        let padded = Snapshot::from_bytes(padded).unwrap();
        assert!(matches!(
            System::restore(&padded, s.config()),
            Err(SnapError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn live_worker_frontends_refuse_to_snapshot() {
        let mut s = sys(1, false);
        s.frontends[0] = Frontend::Worker {
            busy: None,
            nop_until: None,
            finished: false,
        };
        assert_eq!(s.snapshot().unwrap_err(), SnapError::LiveThreads);
    }

    /// The machine state written a second way, through each component's
    /// `Debug` output, with frontends summarized by hand. It cross-checks
    /// the snapshot codec: a field some `encode_state` forgets still shows
    /// up here.
    fn debug_digest(s: &System) -> u64 {
        use std::fmt::Write as _;
        use std::hash::{Hash, Hasher};
        let mut text = String::new();
        for (i, fe) in s.frontends.iter().enumerate() {
            let _ = match fe {
                Frontend::Idle => write!(text, "[{i} idle]"),
                Frontend::Worker {
                    busy,
                    nop_until,
                    finished,
                } => write!(text, "[{i} wkr {busy:?} {nop_until:?} {finished}]"),
                Frontend::Replay {
                    next,
                    nop_until,
                    base,
                    ..
                } => write!(text, "[{i} rpl {next} {nop_until} {base}]"),
            };
        }
        let _ = write!(
            text,
            "{:?}{:?}{:?}{:?}{}",
            s.lsus, s.l1s, s.l2, s.dram, s.next_token
        );
        let _ = write!(text, "{:?}{:?}{:?}{:?}{:?}", s.a, s.b, s.c, s.d, s.e);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        text.hash(&mut h);
        h.finish()
    }

    fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let addr = || (0u64..24).prop_map(|i| 0x4_0000 + i * 8);
        let line = || (0u64..24).prop_map(|i| 0x4_0000 + (i / 8) * 64);
        prop_oneof![
            addr().prop_map(|addr| Op::Load { addr }),
            (addr(), 1u64..100).prop_map(|(addr, value)| Op::Store { addr, value }),
            (addr(), 0u64..4, 1u64..4).prop_map(|(addr, expected, new)| Op::Cas {
                addr,
                expected,
                new
            }),
            (addr(), 1u64..10).prop_map(|(addr, operand)| Op::FetchAdd { addr, operand }),
            line().prop_map(|addr| Op::Clean { addr }),
            line().prop_map(|addr| Op::Flush { addr }),
            line().prop_map(|addr| Op::Inval { addr }),
            Just(Op::Fence),
            (1u64..30).prop_map(|cycles| Op::Nop { cycles }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig { cases: 24 })]

        /// Snapshot mid-run and restore: the restored machine's `Debug`
        /// digest equals the original's, so the codec carries every field
        /// `Debug` shows.
        #[test]
        fn restore_reproduces_the_debug_digest(
            programs in proptest::collection::vec(
                proptest::collection::vec(arb_op(), 1..24),
                2,
            ),
            at in 1u64..200,
        ) {
            let mut s = sys(2, true);
            let mut taken = None;
            s.run_programs_observed(programs, |sys| {
                if sys.now() >= at && taken.is_none() {
                    taken = Some((sys.snapshot().unwrap(), debug_digest(sys)));
                }
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
            if let Some((snap, digest)) = taken {
                let restored = System::restore(&snap, s.config()).unwrap();
                proptest::prop_assert_eq!(
                    debug_digest(&restored),
                    digest,
                    "restore lost state at cycle {}",
                    restored.now()
                );
            }
        }
    }

    #[test]
    fn engine_stats_roundtrip_zeroes_phase() {
        let stats = EngineStats {
            skipped_cycles: 10,
            jumps: 2,
            component_steps: 30,
            component_slots: 99,
            phase: PhaseProfile {
                serial_ns: 123,
                ..PhaseProfile::default()
            },
        };
        let mut w = SnapWriter::new();
        stats.encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = EngineStats::decode(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(decoded, stats); // PartialEq ignores phase
        assert_eq!(decoded.phase, PhaseProfile::default());
    }
}
