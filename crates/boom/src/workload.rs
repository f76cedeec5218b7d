//! The unified workload abstraction: one [`System::run`] entry point for
//! every way of driving the simulated SoC.
//!
//! Historically the simulator grew one `run_*` method per drive mode —
//! `run_programs` for fixed op scripts, `run_threads` for value-dependent
//! host code (both removed) — and each new frontend would have added
//! another. A [`Workload`] is the value-level unification: anything
//! that knows how to drive a [`System`] to completion implements the trait,
//! and `System::run(workload)` returns a [`RunReport`] carrying the elapsed
//! cycles, the workload's own output, and whether a cycle budget expired.
//!
//! Three first-party workloads over two frontends:
//!
//! * [`ReplaySchedule`] — one cycle-stamped [`TimedOp`] lane per core, run
//!   by the op-script frontend (`skipit-replay`'s `TraceReplay` lowers a
//!   decoded trace to this);
//! * [`Programs`] — one fixed [`Op`] script per core (program mode): the
//!   same frontend with every stamp 0;
//! * [`Workers`] — one host future per core, driving its core by awaiting
//!   [`CoreHandle`] ops; the frontend phase polls it in place at the
//!   cycle each op completes (worker mode), with an optional soft cycle
//!   budget.
//!
//! Every run steps the engine through one loop inside [`System`].
//!
//! ```
//! use skipit_boom::{Op, Programs, System, SystemConfig};
//!
//! let mut sys = System::new(SystemConfig::default());
//! let report = sys.run(Programs(vec![vec![
//!     Op::Store { addr: 0x1000, value: 7 },
//!     Op::Flush { addr: 0x1000 },
//!     Op::Fence,
//! ]]));
//! assert!(report.cycles > 0);
//! assert!(!report.budget_expired);
//! ```

use crate::handle::CoreHandle;
use crate::op::Op;
use crate::system::{unobserved, System};
use std::future::Future;

/// Anything that can drive a [`System`] to completion.
///
/// Implementations install their frontends, step the engine until done, and
/// reset the system to the idle, between-runs state — exactly the contract
/// the old `run_*` methods had. The trait consumes `self`: a workload is a
/// one-shot description of a run (re-running means re-building it, which
/// keeps determinism questions out of the trait).
pub trait Workload {
    /// What the workload hands back besides timing: per-worker results for
    /// worker mode, `()` for the script-driven modes.
    type Output;

    /// Runs `self` on `sys` to completion. Prefer calling
    /// [`System::run`], which reads better at call sites.
    fn run(self, sys: &mut System) -> RunReport<Self::Output>;
}

/// What a completed [`Workload`] run reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport<T = ()> {
    /// Simulated cycles elapsed from the call to completion. When a
    /// [`Workers`] budget expired mid-run this *includes* the post-deadline
    /// drain: the budget is a soft stop (workers are told to wind down via
    /// `halted` responses, and the run lasts until they do), not a hard
    /// clock halt.
    pub cycles: u64,
    /// The workload's own output ([`Workload::Output`]).
    pub output: T,
    /// Whether a cycle budget expired during the run. Always `false` for
    /// budget-less workloads. When `true`, every worker's result is still
    /// present in `output` — expiry only flips the `halted` flag workers
    /// observe; it never discards results.
    pub budget_expired: bool,
}

impl<T> RunReport<T> {
    /// Splits the report into `(cycles, output)`, for call sites that want
    /// to destructure both in one binding.
    pub fn into_parts(self) -> (u64, T) {
        (self.cycles, self.output)
    }
}

/// Program mode as a [`Workload`]: one fixed [`Op`] script per core
/// (missing cores idle). It runs as a [`ReplaySchedule`] whose stamps are
/// all 0, so each op issues as early as the issue width, think time and
/// LSU room allow. Output is `()`; the interesting result is
/// [`RunReport::cycles`].
///
/// # Panics
///
/// Running panics if more programs than cores are supplied, or if the
/// programs fail to finish within
/// [`RUN_WATCHDOG_CYCLES`](crate::RUN_WATCHDOG_CYCLES) (an interlock bug).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Programs(pub Vec<Vec<Op>>);

impl Programs {
    /// Lowers the scripts to replay lanes with every stamp 0: the replay
    /// frontend's stamp gate then always holds, so it issues exactly as a
    /// plain script would.
    pub(crate) fn into_lanes(self) -> Vec<Vec<TimedOp>> {
        self.0
            .into_iter()
            .map(|ops| ops.into_iter().map(|op| TimedOp { at: 0, op }).collect())
            .collect()
    }
}

impl Workload for Programs {
    type Output = ();

    fn run(self, sys: &mut System) -> RunReport {
        let Ok(cycles) = sys.run_programs_observed(self.0, unobserved);
        RunReport {
            cycles,
            output: (),
            budget_expired: false,
        }
    }
}

/// Worker mode as a [`Workload`]: one host worker per core (missing cores
/// idle). Each worker is a closure that receives its core's [`CoreHandle`]
/// and returns a future — typically an `async move` block — that drives
/// the core by awaiting the handle's ops. The frontend phase polls every
/// worker in place on the simulator's thread, so workers need not be
/// `Send`. Output is the per-worker results, in worker order.
///
/// ```
/// use skipit_boom::{CoreHandle, System, SystemConfig, Workers};
///
/// let mut sys = System::new(SystemConfig::default());
/// let report = sys.run(Workers::new(vec![|h: CoreHandle| async move {
///     h.store(0x1000, 7).await;
///     h.load(0x1000).await
/// }]));
/// assert_eq!(report.output, vec![7]);
/// ```
///
/// An optional [`Workers::budget`] (cycles, measured from the call)
/// soft-stops the run: once `budget` cycles have elapsed, every response a
/// worker receives carries `halted = true` and well-behaved workloads
/// return. The run itself continues until every worker has finished — see
/// [`RunReport::budget_expired`] for the exact semantics.
///
/// # Panics
///
/// Running panics if more workers than cores are supplied, if a worker
/// panics (with the worker's own panic), or if a worker suspends on
/// anything but a [`CoreHandle`] op — nothing would ever wake it — with a
/// message naming the core.
#[derive(Debug)]
pub struct Workers<F> {
    workers: Vec<F>,
    budget: Option<u64>,
}

impl<F> Workers<F> {
    /// A worker-mode workload with no cycle budget.
    pub fn new(workers: Vec<F>) -> Self {
        Workers {
            workers,
            budget: None,
        }
    }

    /// Sets the soft cycle budget (see the type docs).
    pub fn budget(mut self, cycles: u64) -> Self {
        self.budget = Some(cycles);
        self
    }
}

impl<R, F, Fut> Workload for Workers<F>
where
    F: FnOnce(CoreHandle) -> Fut,
    Fut: Future<Output = R>,
{
    type Output = Vec<R>;

    fn run(self, sys: &mut System) -> RunReport<Vec<R>> {
        let (cycles, output, budget_expired) = sys.run_workers_inner(self.workers, self.budget);
        RunReport {
            cycles,
            output,
            budget_expired,
        }
    }
}

/// One replay-frontend operation: an [`Op`] and the cycle (relative to the
/// run's first cycle) at which it becomes eligible to issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedOp {
    /// Earliest issue cycle, relative to the cycle the run started.
    pub at: u64,
    /// The operation.
    pub op: Op,
}

skipit_snap::codec!(TimedOp { at, op });

/// The op-script frontend as a [`Workload`]: one cycle-stamped lane per
/// core.
///
/// Each lane issues in order, and each [`TimedOp`] no earlier than its
/// recorded cycle — subject to the issue-width, `Nop` think-time and
/// LSU-room rules that also pace [`Programs`]. For a lane captured from a
/// real run (see [`System::start_capture`]) those constraints are satisfiable at
/// exactly the recorded cycles, so the replay reproduces the original run
/// bit-identically; for hand-written or perturbed schedules the stamps are
/// lower bounds and the frontend issues as early as the machine allows.
///
/// # Panics
///
/// Running panics if more lanes than cores are supplied, if the replay
/// fails to finish within [`RUN_WATCHDOG_CYCLES`](crate::RUN_WATCHDOG_CYCLES),
/// or if a stamp or think time would put a cycle past `u64::MAX` (only a
/// hand-built lane can: decoded traces are bounded by the watchdog).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplaySchedule {
    /// Per-core op lanes (missing cores idle). Stamps within a lane must be
    /// non-decreasing.
    pub lanes: Vec<Vec<TimedOp>>,
}

impl Workload for ReplaySchedule {
    type Output = ();

    fn run(self, sys: &mut System) -> RunReport {
        let Ok(cycles) = sys.run_script(self.lanes, "replay", unobserved);
        RunReport {
            cycles,
            output: (),
            budget_expired: false,
        }
    }
}

/// One committed memory operation recorded by capture mode
/// ([`System::start_capture`]): which core issued what, and at which
/// absolute cycle it entered the core's LSU (for [`Op::Nop`]: the cycle
/// the frontend began the think time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapturedOp {
    /// Absolute cycle of issue.
    pub cycle: u64,
    /// Issuing core.
    pub core: u32,
    /// The operation.
    pub op: Op,
}
