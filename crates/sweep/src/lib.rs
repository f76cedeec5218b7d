//! Sharded parallel execution of independent simulation sweeps.
//!
//! The paper's evaluation (§7, Figs. 9–16) is a grid of *independent*
//! parameter points — CBO scaling sizes, update-ratio steps, FliT table
//! sizes, skip-it on/off ablations — each a complete simulation of its own.
//! This crate turns such a grid into a [`Sweep`] of [`Point`]s and executes
//! it with a [`SweepRunner`] across a pool of worker threads pulling from a
//! shared task queue (`std::sync::Mutex` over the task list, rows returned
//! over `std::sync::mpsc`), collecting a deterministic, insertion-ordered
//! [`SweepReport`].
//!
//! # Contract
//!
//! * **Determinism.** The result table (and its JSON export) is
//!   bit-identical at any worker-thread count: every point's RNG seed is
//!   derived from the sweep seed and the point's *index* (not from
//!   scheduling), points share no state, and rows are collected by index
//!   regardless of completion order. Host-side timing ([`SweepReport::wall`])
//!   is deliberately excluded from the table and the JSON.
//! * **Failure isolation.** A panicking point is captured per shard and
//!   reported as a [`PointStatus::Error`] row; every other point still
//!   runs. The sweep itself never aborts.
//! * **Budget classification.** A point built with [`Point::budget`] whose
//!   reported simulated-cycle consumption exceeds the budget is classified
//!   [`PointStatus::Timeout`] (its output is still recorded).
//! * **Serial fallback.** One worker thread (or a single-point sweep) runs
//!   inline on the calling thread — no pool, no channels — producing the
//!   same table.
//! * **Warm starts.** A [`Sweep::prefill`] closure registered under a key
//!   runs at most once per execution; every point referencing the key via
//!   [`Point::warm`] shares its [`WarmState`] read-only through
//!   [`PointCtx::warm`]. Grids whose points differ only in their measured
//!   phase simulate the common fill phase once (snapshot it with
//!   `System::snapshot`) instead of once per point.
//!
//! # Example
//!
//! ```
//! use skipit_sweep::{Point, PointOutput, Sweep, SweepRunner};
//! use skipit_core::{Op, Programs, SystemBuilder};
//!
//! let mut sweep = Sweep::new("skip_it_ablation").unit("cycles");
//! for (label, skip_it) in [("off", false), ("on", true)] {
//!     sweep.push(
//!         Point::new(label, move |_ctx| {
//!             let mut sys = SystemBuilder::new().cores(1).skip_it(skip_it).build();
//!             let cycles = sys.run(Programs(vec![vec![
//!                 Op::Store { addr: 0x100, value: 1 },
//!                 Op::Flush { addr: 0x100 },
//!                 Op::Fence,
//!             ]])).cycles;
//!             PointOutput::from_system(&sys).value("flush_cycles", cycles as f64)
//!         })
//!         .param("skip_it", skip_it),
//!     );
//! }
//! let report = SweepRunner::new().threads(2).run(sweep);
//! assert!(report.all_ok());
//! assert_eq!(report.rows().len(), 2);
//! let json = report.to_json();
//! assert!(json.contains("\"bench\": \"skip_it_ablation\""));
//! ```

mod point;
mod report;
mod runner;

pub use point::{Point, PointCtx, PointOutput, PointStatus, WarmState};
pub use report::{SweepReport, SweepRow};
pub use runner::{Sweep, SweepRunner};
