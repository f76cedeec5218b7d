//! BOOM-style core model and the cycle-stepped multicore `System`.
//!
//! This crate supplies the processor-side machinery of the paper's
//! evaluation platform (§3, §7.1): per-core load/store units with the
//! LDQ/STQ semantics the flush-unit design relies on (§3.2, §5.1), fences
//! extended to wait on the flush counter (§5.3), requests held until the L1
//! would accept them (in place of BOOM's nack and retry, §3.3), and a
//! [`System`] that ties N cores, their L1 data caches, the shared inclusive
//! L2 and DRAM into one deterministic cycle-stepped simulation.
//!
//! Every way of driving a simulated core is a [`Workload`] run through the
//! single [`System::run`] entry point, and every run steps the engine
//! through one loop. Two frontends feed the cores:
//!
//! * **The op-script frontend** runs a fixed op lane per core.
//!   [`ReplaySchedule`] stamps each op with the cycle it may issue — the
//!   replay half of the trace capture/replay subsystem (see
//!   [`System::start_capture`] and the `skipit-replay` crate).
//!   [`Programs`] is the same with every stamp 0: a plain [`Op`] sequence
//!   per core, loads firing out of order and stores/writebacks in order —
//!   ideal for the paper's microbenchmarks (Figs. 9–13).
//! * **Worker mode** ([`Workers`]): each core is driven by a host future
//!   that awaits [`CoreHandle`] ops, polled in place by the frontend phase
//!   on the simulator's own thread, so value-dependent workloads (the
//!   persistent lock-free data structures of §7.4) run as ordinary `async`
//!   Rust code while simulated time stays deterministic.

pub mod export;
pub mod handle;
pub mod lsu;
pub mod op;
pub mod prof;
pub mod snapshot;
pub mod system;
pub mod trace;
pub mod workload;

pub use handle::CoreHandle;
pub use lsu::Lsu;
pub use op::{Op, OpToken};
pub use prof::PROFILE_COMPILED;
pub use snapshot::{Snapshot, SnapshotError};
pub use system::{
    EngineKind, EngineStats, PhaseProfile, System, SystemConfig, SystemStats, RUN_WATCHDOG_CYCLES,
};
pub use trace::{LatencyHistogram, TraceLog, TraceRecord};
pub use workload::{CapturedOp, Programs, ReplaySchedule, RunReport, TimedOp, Workers, Workload};
