//! Umbrella crate for the *Skip It: Take Control of Your Cache!* (ASPLOS
//! 2024) reproduction.
//!
//! Re-exports the public API of the core library ([`skipit_core`]) and the
//! persistent data structures ([`skipit_pds`]); hosts the workspace-wide
//! integration tests (`tests/`) and the runnable examples (`examples/`).
//!
//! Start with the [`skipit_core`] crate docs, the repository README, and
//! `examples/quickstart.rs`.

pub use skipit_core as core;
pub use skipit_explore as explore;
pub use skipit_pds as pds;
pub use skipit_replay as replay;
pub use skipit_service as service;
pub use skipit_sweep as sweep;

pub use skipit_core::{
    paper_platform, CoreHandle, Op, Programs, RunReport, System, SystemBuilder, SystemConfig,
    SystemStats, Workers, Workload,
};
pub use skipit_pds::{
    prefill_snapshot, run_set_benchmark, run_set_benchmark_warm, warm_key, ConcurrentSet, DsKind,
    OptKind, PersistMode, WarmSet, WorkloadCfg,
};
pub use skipit_service::{run_service, ServiceCfg, ServiceReport, ServiceWorkload, SloSummary};

/// The one-stop import for programs driving the simulator.
///
/// Brings in the system construction surface ([`SystemBuilder`],
/// [`System`], [`SystemConfig`], typed [`ConfigError`]), the simulation
/// vocabulary ([`Op`], [`CoreHandle`], [`EngineKind`], [`TraceConfig`]),
/// the unified workload surface ([`Workload`], [`Programs`], [`Workers`],
/// [`RunReport`], the trace-replay types [`MemTrace`] / [`TraceReplay`]),
/// and the sweep-execution types ([`Sweep`], [`SweepRunner`], …):
///
/// ```
/// use skipit::prelude::*;
///
/// let mut sys = SystemBuilder::new().cores(1).skip_it(true).build();
/// let report = sys.run(Programs(vec![vec![
///     Op::Store { addr: 0x100, value: 1 },
///     Op::Fence,
/// ]]));
/// assert!(report.cycles > 0);
/// ```
///
/// [`ConfigError`]: prelude::ConfigError
/// [`EngineKind`]: prelude::EngineKind
/// [`TraceConfig`]: prelude::TraceConfig
/// [`MemTrace`]: prelude::MemTrace
/// [`TraceReplay`]: prelude::TraceReplay
/// [`Sweep`]: prelude::Sweep
/// [`SweepRunner`]: prelude::SweepRunner
pub mod prelude {
    pub use skipit_core::{
        paper_platform, CapturedOp, ConfigError, CoreHandle, EngineKind, EngineStats,
        MetricsSnapshot, Op, PhaseProfile, Programs, ReplaySchedule, RunReport, Snapshot,
        SnapshotError, System, SystemBuilder, SystemConfig, SystemStats, Telemetry,
        TelemetrySample, TimedOp, TraceConfig, Workers, Workload,
    };
    pub use skipit_explore::{
        explore_one, minimize, scan_crash_points, CrashPoint, ExploreConfig, InvariantOracle,
        Reproducer, Scenario, Violation,
    };
    pub use skipit_replay::{MemTrace, TraceError, TraceReplay};
    pub use skipit_service::{
        run_service, Arrivals, KeyDist, OpMix, ServiceCfg, ServiceCfgError, ServiceReport,
        ServiceWorkload, SloSummary, Stress,
    };
    pub use skipit_sweep::{
        Point, PointCtx, PointOutput, PointStatus, Sweep, SweepReport, SweepRow, SweepRunner,
        WarmState,
    };
}
