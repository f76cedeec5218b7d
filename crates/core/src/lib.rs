//! **Skip It** — user-controlled cache writebacks on a simulated BOOM-style
//! multicore.
//!
//! This crate is the public face of a full reproduction of *Skip It: Take
//! Control of Your Cache!* (Anand, Friedman, Giardino, Alonso — ASPLOS
//! 2024). The paper adds two RISC-V cache-management instructions
//! (`CBO.CLEAN`, `CBO.FLUSH`) to the SonicBOOM out-of-order core, builds the
//! *flush unit* microarchitecture that executes them asynchronously, extends
//! the SiFive inclusive L2 with `RootRelease` transactions, and introduces
//! **Skip It**: a per-line *skip bit* that lets the L1 drop writebacks of
//! lines already persisted in main memory.
//!
//! Because the original artifact is RTL on FPGA, this reproduction is a
//! cycle-level software simulator with the same protocol structure (see
//! DESIGN.md at the repository root for the fidelity contract). Everything
//! the paper's evaluation exercises is here: the flush queue and FSHR state
//! machine (§5.2), probe/eviction interference handling (§5.4), the L2
//! dirty-bit "trivial skip" (§5.5), `GrantDataDirty` and the skip bit (§6),
//! and fence integration (§5.3).
//!
//! # Quickstart
//!
//! ```
//! use skipit_core::{Op, Programs, SystemBuilder};
//!
//! // A dual-core SoC with Skip It enabled.
//! let mut sys = SystemBuilder::new().cores(2).skip_it(true).build();
//!
//! // Persist a value: store, flush, fence (§4 scenario (c)).
//! let report = sys.run(Programs(vec![vec![
//!     Op::Store { addr: 0x1000, value: 42 },
//!     Op::Flush { addr: 0x1000 },
//!     Op::Fence,
//! ]]));
//! assert!(report.cycles > 0);
//! assert_eq!(sys.dram().read_word_direct(0x1000), 42);
//!
//! // Load the line back and clean it twice: the second clean finds the
//! // line valid + clean + skip bit set, and is dropped in hardware.
//! sys.run(Programs(vec![vec![
//!     Op::Load { addr: 0x1000 },
//!     Op::Clean { addr: 0x1000 },
//!     Op::Fence,
//! ]]));
//! let before = sys.stats().l1[0].writebacks_skipped;
//! sys.run(Programs(vec![vec![Op::Clean { addr: 0x1000 }, Op::Fence]]));
//! assert_eq!(sys.stats().l1[0].writebacks_skipped, before + 1);
//! ```
//!
//! # Crash consistency
//!
//! The DRAM model is the persistence domain: [`System::durable_image`]
//! hands back what a power failure *right now* would leave behind (caches
//! and in-flight traffic lost), which is how the crash-consistency tests
//! verify the §4 memory semantics end to end.
//!
//! # Checkpoint / restore
//!
//! [`System::snapshot`] serializes the *complete* simulated state — LSUs,
//! frontends, both cache levels with their MSHRs and flush units, the
//! TileLink FIFOs, DRAM, clock and perturbation counters — into a
//! versioned [`Snapshot`]; [`System::restore`] turns it back into a live
//! system that is bit-identical going forward, on either engine. The
//! sweep layer builds warm-started parameter sweeps and resumable
//! campaigns on top of this (see `skipit-sweep`).

pub mod asm;
pub mod builder;
pub mod check;
pub mod metrics;

pub use builder::{ConfigError, SystemBuilder};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use skipit_boom::{
    CapturedOp, CoreHandle, EngineKind, EngineStats, LatencyHistogram, Op, PhaseProfile, Programs,
    ReplaySchedule, RunReport, Snapshot, SnapshotError, System, SystemConfig, SystemStats, TimedOp,
    TraceLog, TraceRecord, Workers, Workload, PROFILE_COMPILED, RUN_WATCHDOG_CYCLES,
};
pub use skipit_dcache::{DataCache, FlushEntry, FlushUnit, Fshr, FshrState, L1Config, L1Stats};
pub use skipit_llc::{InclusiveCache, L2Config, L2Stats};
pub use skipit_mem::{Dram, DramConfig, MemStats};
pub use skipit_tilelink::perturb::splitmix64;
pub use skipit_tilelink::{
    ClientState, LineAddr, LineData, PerturbConfig, WritebackKind, LINE_BYTES, WORDS_PER_LINE,
};
pub use skipit_trace::{
    CoreCounters, CoreSample, MsgDesc, StreamEvent, Telemetry, TelemetryCounters, TelemetrySample,
    TimedEvent, TraceConfig, TraceEvent, TraceSink,
};

/// Convenience: builds the paper's §7.1 evaluation platform (dual-core,
/// 32 KiB L1s, 512 KiB shared inclusive L2) with Skip It on or off.
///
/// # Example
///
/// ```
/// let sys = skipit_core::paper_platform(true);
/// assert_eq!(sys.config().cores, 2);
/// assert!(sys.config().l1.skip_it);
/// ```
pub fn paper_platform(skip_it: bool) -> System {
    SystemBuilder::new().cores(2).skip_it(skip_it).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_geometry() {
        let sys = paper_platform(false);
        assert_eq!(sys.config().l1.capacity_bytes(), 32 * 1024);
        assert_eq!(sys.config().l2.capacity_bytes(), 512 * 1024);
        assert!(!sys.config().l1.skip_it);
    }
}
