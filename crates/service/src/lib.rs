//! Service-scale open-loop traffic frontend for the simulated Skip It
//! platform.
//!
//! The paper evaluates Skip It with throughput-oriented benchmarks; this
//! crate asks the question a *service operator* would: what happens to
//! **tail latency** and **goodput under an SLO** when the persistent KV
//! store behind a request frontend runs with and without Skip It's
//! flush elision? It layers three pieces over the existing stack:
//!
//! * **Generators** ([`gen`]): deterministic request streams — Zipfian /
//!   hot-set key skew, open-loop Poisson and bursty on/off arrivals,
//!   weighted tenant shards, read/update/scan mixes, plus two stress
//!   patterns that lower to CBO storms: cache [`Stress::Stampede`] herds
//!   and synchronized [`Stress::ExpirationStorm`]s. Every lane is a pure
//!   function of the seed ([`SplitMix64`]-derived), generated host-side
//!   before the simulation starts, so the same seed yields a bit-identical
//!   stream on both engines at any host thread count.
//! * **Execution** ([`workload`]): [`ServiceWorkload`] implements the
//!   unified [`Workload`](skipit_core::Workload) trait, driving the PDS
//!   [`HashTable`](skipit_pds::HashTable) in worker mode. Workers pace
//!   open-loop against scheduled arrival cycles, so queueing delay lands in
//!   the recorded latency; per-request latencies go into the simulator's
//!   [`LatencyHistogram`](skipit_core::LatencyHistogram).
//! * **SLO reporting** ([`slo`]): [`SloSummary`] condenses a histogram to
//!   p50/p99/p999 and a goodput-under-SLO curve.
//!
//! ```
//! use skipit_service::{run_service, Arrivals, KeyDist, ServiceCfg};
//!
//! let report = run_service(&ServiceCfg {
//!     requests_per_core: 100,
//!     key_range: 64,
//!     prefill: 32,
//!     dist: KeyDist::Zipfian { s: 0.99 },
//!     arrivals: Arrivals::Poisson { mean_gap: 50 },
//!     ..ServiceCfg::default()
//! });
//! assert_eq!(report.requests, 200); // 2 lanes x 100
//! let slo = report.slo(&[500]);
//! assert!(slo.p50 <= slo.p999);
//! ```

pub mod gen;
pub mod rng;
pub mod slo;
pub mod workload;

pub use gen::{build_lanes, Arrivals, KeyDist, OpMix, ReqKind, Request, Stress};
pub use rng::{splitmix64, SplitMix64};
pub use slo::{GoodputPoint, SloSummary};
pub use workload::{
    run_service, LaneReport, ServiceCfg, ServiceCfgError, ServiceReport, ServiceWorkload,
    CACHE_BASE,
};
