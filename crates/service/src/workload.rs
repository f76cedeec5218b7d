//! The service frontend as a [`Workload`]: open-loop request execution
//! against the PDS hash table, with per-request latency capture.
//!
//! A [`ServiceWorkload`] lowers a [`ServiceCfg`] to pre-generated request
//! lanes ([`build_lanes`]), builds and prefills a [`HashTable`] in the
//! target system's simulated memory, then executes the lanes open-loop in
//! worker mode: each worker paces itself against the *scheduled* arrival
//! cycle of every request (`RDCYCLE` + think time), so a request that finds
//! the server behind schedule is charged its queueing delay — the latency
//! distribution degrades the way a real overloaded service's does, instead
//! of the arrival process politely slowing down.
//!
//! Because it is an ordinary [`Workload`], the service frontend composes
//! with everything `System::run` composes with: capture/replay, snapshots,
//! schedule perturbation, and both simulation engines — and the report
//! is bit-identical across engines and runs because the streams are
//! pre-generated and worker mode's command/response protocol decouples
//! simulated time from host computation.

use crate::gen::{build_lanes, shard_table, Arrivals, KeyDist, OpMix, ReqKind, Request, Stress};
use crate::rng::{splitmix64, SplitMix64};
use crate::slo::SloSummary;
use skipit_core::{
    CoreHandle, LatencyHistogram, LineAddr, RunReport, System, SystemBuilder, SystemStats, Workers,
    Workload,
};
use skipit_pds::alloc::{FieldStride, SimAlloc};
use skipit_pds::{ConcurrentSet, HashTable, OptKind, PHandle, PersistMode};
use std::sync::Arc;

/// Simulated heap base for hash-table nodes.
const HEAP_BASE: u64 = 0x1000_0000;
/// Simulated heap size.
const HEAP_SIZE: u64 = 1 << 28;
/// Base of the service's materialized-response cache: key `k`'s slot is
/// the line at `CACHE_BASE + k * 64`. Reads load it, updates dirty it, and
/// [`Stress::ExpirationStorm`] `CBO.FLUSH`es the hot slots.
pub const CACHE_BASE: u64 = 0x4000_0000;

/// Full configuration of one service run.
#[derive(Clone, Debug)]
pub struct ServiceCfg {
    /// Worker lanes (= simulated cores driven).
    pub cores: usize,
    /// Base arrivals generated per lane (stress patterns add their own
    /// requests on top).
    pub requests_per_core: usize,
    /// Keys are `1..=key_range`.
    pub key_range: u64,
    /// Distinct keys inserted before measurement.
    pub prefill: u64,
    /// Key-popularity distribution within each tenant shard.
    pub dist: KeyDist,
    /// Open-loop arrival process (per lane).
    pub arrivals: Arrivals,
    /// Operation mix.
    pub mix: OpMix,
    /// Tenant weights; the key space is partitioned into one contiguous
    /// shard per tenant, proportional to weight.
    pub tenants: Vec<u32>,
    /// Injected stress pattern.
    pub stress: Stress,
    /// Persistence discipline for the set operations.
    pub mode: PersistMode,
    /// Flush-elimination strategy. [`OptKind::SkipIt`] requires a system
    /// built with `skip_it(true)` — use [`ServiceCfg::builder`].
    pub opt: OptKind,
    /// Master seed: the entire request stream is a pure function of it.
    pub seed: u64,
    /// Hash-table buckets.
    pub hash_buckets: usize,
}

impl Default for ServiceCfg {
    fn default() -> Self {
        ServiceCfg {
            cores: 2,
            requests_per_core: 400,
            key_range: 256,
            prefill: 128,
            dist: KeyDist::Zipfian { s: 0.99 },
            arrivals: Arrivals::Poisson { mean_gap: 60 },
            mix: OpMix::default(),
            tenants: vec![1],
            stress: Stress::None,
            mode: PersistMode::Automatic,
            opt: OptKind::Plain,
            seed: 42,
            hash_buckets: 64,
        }
    }
}

impl ServiceCfg {
    /// A [`SystemBuilder`] matching this configuration (core count and
    /// Skip It hardware); set the engine/perturbation on top.
    pub fn builder(&self) -> SystemBuilder {
        SystemBuilder::new()
            .cores(self.cores)
            .skip_it(self.opt.wants_skip_it_hardware())
    }

    /// Checks every rule a runnable configuration obeys, the op mix's
    /// included ([`OpMix::validate`]).
    ///
    /// # Errors
    ///
    /// The first broken rule, as a [`ServiceCfgError`].
    pub fn validate(&self) -> Result<(), ServiceCfgError> {
        if self.cores == 0 {
            return Err(ServiceCfgError::NoLanes);
        }
        if self.tenants.is_empty() {
            return Err(ServiceCfgError::NoTenants);
        }
        if self.key_range < self.tenants.len() as u64 {
            return Err(ServiceCfgError::FewerKeysThanTenants {
                key_range: self.key_range,
                tenants: self.tenants.len(),
            });
        }
        if self.prefill > self.key_range {
            return Err(ServiceCfgError::PrefillExceedsKeyRange {
                prefill: self.prefill,
                key_range: self.key_range,
            });
        }
        if self.key_range > MAX_KEY_RANGE {
            return Err(ServiceCfgError::KeyRangeTooLarge {
                key_range: self.key_range,
            });
        }
        self.mix.validate()
    }
}

/// Largest key range whose cache slots fit the cache region.
const MAX_KEY_RANGE: u64 = 1 << 20;

/// Why a [`ServiceCfg`] is not runnable ([`ServiceCfg::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceCfgError {
    /// `cores` is zero.
    NoLanes,
    /// `tenants` is empty.
    NoTenants,
    /// Some tenant shard would be empty.
    FewerKeysThanTenants {
        /// The configured key range.
        key_range: u64,
        /// The number of tenants.
        tenants: usize,
    },
    /// More distinct prefill keys than keys.
    PrefillExceedsKeyRange {
        /// The configured prefill.
        prefill: u64,
        /// The configured key range.
        key_range: u64,
    },
    /// The keys' cache slots would run past the cache region.
    KeyRangeTooLarge {
        /// The configured key range.
        key_range: u64,
    },
    /// The op mix's percentages do not sum to 100.
    MixNotHundred(OpMix),
    /// The mix has scans, but each touches zero keys.
    ZeroLengthScans,
}

impl std::fmt::Display for ServiceCfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceCfgError::NoLanes => write!(f, "at least one lane"),
            ServiceCfgError::NoTenants => write!(f, "at least one tenant"),
            ServiceCfgError::FewerKeysThanTenants { key_range, tenants } => {
                write!(f, "fewer keys than tenants ({key_range} < {tenants})")
            }
            ServiceCfgError::PrefillExceedsKeyRange { prefill, key_range } => {
                write!(f, "prefill exceeds key range ({prefill} > {key_range})")
            }
            ServiceCfgError::KeyRangeTooLarge { key_range } => write!(
                f,
                "key range too large for the cache region ({key_range} > {MAX_KEY_RANGE})"
            ),
            ServiceCfgError::MixNotHundred(mix) => write!(f, "op mix must sum to 100%: {mix:?}"),
            ServiceCfgError::ZeroLengthScans => write!(f, "zero-length scans"),
        }
    }
}

impl std::error::Error for ServiceCfgError {}

/// Per-lane execution result.
#[derive(Clone, Debug)]
pub struct LaneReport {
    /// Requests executed (base + stress).
    pub requests: u64,
    /// Latency histogram over every request of the lane.
    pub hist: LatencyHistogram,
    /// Latency histogram over the read-class requests (reads and scans)
    /// only — the histogram SLOs are usually quoted on.
    pub reads: LatencyHistogram,
    /// Exact fold of every `(index, latency)` pair of the lane, for cheap
    /// bit-identity checks across engines and runs.
    pub digest: u64,
}

/// What a completed service run reports.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Total requests executed across all lanes.
    pub requests: u64,
    /// Cycles the (unmeasured) build-and-prefill phase took.
    pub fill_cycles: u64,
    /// Cycles the measured open-loop phase took.
    pub cycles: u64,
    /// Latency histogram over every request.
    pub hist: LatencyHistogram,
    /// Latency histogram over read-class requests only.
    pub reads: LatencyHistogram,
    /// Per-lane reports, in lane order.
    pub lanes: Vec<LaneReport>,
    /// Order-independent fold of the lane digests with the phase cycle
    /// counts — two runs with equal digests executed identical requests at
    /// identical latencies.
    pub digest: u64,
    /// System counters at the end of the run.
    pub stats: SystemStats,
}

impl ServiceReport {
    /// SLO condensation of the full-traffic histogram; see
    /// [`SloSummary::from_histogram`].
    pub fn slo(&self, slos: &[u64]) -> SloSummary {
        SloSummary::from_histogram(&self.hist, self.cycles, slos)
    }

    /// Offered throughput in requests per million measured cycles.
    pub fn throughput(&self) -> f64 {
        self.requests as f64 * 1_000_000.0 / self.cycles.max(1) as f64
    }
}

/// The service frontend as a one-shot [`Workload`]; see the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct ServiceWorkload {
    cfg: ServiceCfg,
}

impl ServiceWorkload {
    /// Wraps `cfg` for [`System::run`].
    ///
    /// # Panics
    ///
    /// Panics with the error's text if `cfg` is invalid (see
    /// [`ServiceWorkload::try_new`]); running panics if the system has
    /// fewer cores than `cfg.cores`.
    pub fn new(cfg: ServiceCfg) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Wraps `cfg` for [`System::run`] after validating it.
    ///
    /// # Errors
    ///
    /// The first rule `cfg` breaks ([`ServiceCfg::validate`]).
    pub fn try_new(cfg: ServiceCfg) -> Result<Self, ServiceCfgError> {
        cfg.validate()?;
        Ok(ServiceWorkload { cfg })
    }

    /// The wrapped configuration.
    pub fn cfg(&self) -> &ServiceCfg {
        &self.cfg
    }
}

/// Functional (zero-simulated-time) word write used for pre-run setup.
fn poke(sys: &mut System, addr: u64, value: u64) {
    let line = LineAddr::containing(addr);
    let mut data = sys.dram().read_direct(line);
    data.set_word(LineAddr::word_index(addr), value);
    sys.dram_mut().write_direct(line, data);
}

/// Simulated address of key `k`'s cache slot.
#[inline]
fn cache_slot(key: u64) -> u64 {
    CACHE_BASE + key * 64
}

/// Chains `value` into a running SplitMix64 digest.
#[inline]
fn fold(digest: u64, value: u64) -> u64 {
    splitmix64(digest ^ value.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Executes one lane against the shared set. Returns the lane report.
async fn run_lane(
    h: &CoreHandle,
    set: &HashTable,
    lane: &[Request],
    shards: &[(u64, u64)],
    mode: PersistMode,
    opt: OptKind,
) -> LaneReport {
    let ph = PHandle::new(h, mode, opt);
    let mut hist = LatencyHistogram::new();
    let mut reads = LatencyHistogram::new();
    let mut digest = 0u64;
    let base = h.rdcycle().await;
    for (idx, req) in lane.iter().enumerate() {
        let due = base + req.at;
        let now = h.rdcycle().await;
        if now < due {
            h.work(due - now).await;
        }
        match req.kind {
            ReqKind::Read => {
                set.contains(&ph, req.key).await;
                h.load(cache_slot(req.key)).await;
            }
            ReqKind::Insert => {
                set.insert(&ph, req.key).await;
                h.store(cache_slot(req.key), req.at).await;
            }
            ReqKind::Remove => {
                set.remove(&ph, req.key).await;
                h.store(cache_slot(req.key), req.at).await;
            }
            ReqKind::Scan { len } => {
                let (lo, span) = shards[req.tenant as usize];
                for i in 0..len as u64 {
                    let k = lo + (req.key - lo + i) % span;
                    set.contains(&ph, k).await;
                    h.load(cache_slot(k)).await;
                }
            }
            ReqKind::Expire => {
                h.flush(cache_slot(req.key)).await;
            }
        }
        let done = h.rdcycle().await;
        // Latency is measured from the *scheduled* arrival, so time spent
        // behind schedule (queueing delay) is charged to the request.
        let lat = done - due;
        hist.record(lat);
        if matches!(req.kind, ReqKind::Read | ReqKind::Scan { .. }) {
            reads.record(lat);
        }
        digest = fold(digest, (idx as u64) << 1 ^ lat);
    }
    LaneReport {
        requests: lane.len() as u64,
        hist,
        reads,
        digest,
    }
}

impl Workload for ServiceWorkload {
    type Output = ServiceReport;

    fn run(self, sys: &mut System) -> RunReport<ServiceReport> {
        let cfg = &self.cfg;
        let lanes = build_lanes(
            cfg.cores,
            cfg.requests_per_core,
            cfg.key_range,
            cfg.dist,
            cfg.arrivals,
            cfg.mix,
            &cfg.tenants,
            cfg.stress,
            cfg.seed,
        );
        let shards = shard_table(cfg.key_range, &cfg.tenants);

        // Build the table, seed every cache slot functionally (clean,
        // DRAM-resident — zero simulated time), then prefill the set
        // persistently on core 0 so measurement starts from a fully
        // persisted structure.
        let alloc = Arc::new(SimAlloc::new(HEAP_BASE, HEAP_SIZE, FieldStride::Word));
        let table = {
            let mut w = |a, v| poke(sys, a, v);
            HashTable::new(cfg.hash_buckets, Arc::clone(&alloc), &mut w)
        };
        for key in 1..=cfg.key_range {
            poke(sys, cache_slot(key), key);
        }
        let fill_cycles = {
            let set = &table;
            let (seed, prefill, key_range, opt) = (cfg.seed, cfg.prefill, cfg.key_range, cfg.opt);
            sys.run(Workers::new(vec![move |h: CoreHandle| async move {
                let ph = PHandle::new(&h, PersistMode::Manual, opt);
                let mut rng = SplitMix64::new(splitmix64(seed ^ 0xF111_F111));
                let mut inserted = 0;
                while inserted < prefill {
                    let k = 1 + rng.gen_range(key_range);
                    if set.insert(&ph, k).await {
                        inserted += 1;
                    }
                }
            }]))
            .cycles
        };

        let (cycles, lane_reports): (u64, Vec<LaneReport>) = {
            let set = &table;
            let workers: Vec<_> =
                lanes
                    .iter()
                    .map(|lane| {
                        let lane = lane.as_slice();
                        let shards = shards.as_slice();
                        let (mode, opt) = (cfg.mode, cfg.opt);
                        move |h: CoreHandle| async move {
                            run_lane(&h, set, lane, shards, mode, opt).await
                        }
                    })
                    .collect();
            sys.run(Workers::new(workers)).into_parts()
        };

        let mut hist = LatencyHistogram::new();
        let mut reads = LatencyHistogram::new();
        let mut digest = fold(fold(0, fill_cycles), cycles);
        let mut requests = 0;
        for lr in &lane_reports {
            hist.merge(&lr.hist);
            reads.merge(&lr.reads);
            digest = fold(digest, lr.digest);
            requests += lr.requests;
        }
        RunReport {
            cycles: fill_cycles + cycles,
            output: ServiceReport {
                requests,
                fill_cycles,
                cycles,
                hist,
                reads,
                lanes: lane_reports,
                digest,
                stats: sys.stats(),
            },
            budget_expired: false,
        }
    }
}

/// Builds a system from [`ServiceCfg::builder`] with the default engine and
/// runs `cfg` on it — the one-call entry point for grids and examples.
pub fn run_service(cfg: &ServiceCfg) -> ServiceReport {
    let mut sys = cfg.builder().build();
    sys.run(ServiceWorkload::new(cfg.clone())).output
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipit_core::EngineKind;

    fn tiny() -> ServiceCfg {
        ServiceCfg {
            cores: 2,
            requests_per_core: 80,
            key_range: 64,
            prefill: 24,
            hash_buckets: 16,
            arrivals: Arrivals::Poisson { mean_gap: 40 },
            ..ServiceCfg::default()
        }
    }

    #[test]
    fn runs_and_counts_every_request() {
        let r = run_service(&tiny());
        assert_eq!(r.requests, 160);
        assert_eq!(r.hist.count(), 160);
        assert_eq!(r.lanes.len(), 2);
        assert!(r.cycles > 0 && r.fill_cycles > 0);
        assert!(r.throughput() > 0.0);
        let slo = r.slo(&[200, 10_000_000]);
        assert!(slo.p50 <= slo.p99 && slo.p99 <= slo.p999);
        assert_eq!(slo.goodput[1].met, 1.0);
    }

    #[test]
    fn report_is_engine_invariant() {
        let reference = run_service(&tiny());
        let mut sys = tiny().builder().engine(EngineKind::Naive).build();
        let r = sys.run(ServiceWorkload::new(tiny())).output;
        assert_eq!(r.digest, reference.digest);
        assert_eq!(r.cycles, reference.cycles);
        assert_eq!(r.stats, reference.stats);
    }

    #[test]
    fn stress_patterns_execute() {
        for stress in [
            Stress::Stampede { every: 20, herd: 6 },
            Stress::ExpirationStorm {
                every_cycles: 800,
                lines: 4,
            },
        ] {
            let cfg = ServiceCfg { stress, ..tiny() };
            let r = run_service(&cfg);
            assert!(
                r.requests > 160,
                "{stress:?} added no requests ({})",
                r.requests
            );
        }
    }

    #[test]
    fn scans_stay_inside_tenant_shards() {
        // Two tenants, scan-heavy mix: must not panic and must count scans.
        let cfg = ServiceCfg {
            tenants: vec![1, 1],
            mix: OpMix {
                read_pct: 40,
                update_pct: 10,
                scan_pct: 50,
                scan_len: 6,
            },
            ..tiny()
        };
        let r = run_service(&cfg);
        assert_eq!(r.requests, 160);
        assert!(r.reads.count() > 0);
    }

    fn rejected(cfg: ServiceCfg) -> ServiceCfgError {
        ServiceWorkload::try_new(cfg).expect_err("invalid configuration accepted")
    }

    #[test]
    fn zero_lanes_rejected() {
        let cfg = ServiceCfg {
            cores: 0,
            ..ServiceCfg::default()
        };
        assert_eq!(rejected(cfg), ServiceCfgError::NoLanes);
    }

    #[test]
    fn no_tenants_rejected() {
        let cfg = ServiceCfg {
            tenants: vec![],
            ..ServiceCfg::default()
        };
        assert_eq!(rejected(cfg), ServiceCfgError::NoTenants);
    }

    #[test]
    fn fewer_keys_than_tenants_rejected() {
        let cfg = ServiceCfg {
            key_range: 2,
            prefill: 1,
            tenants: vec![1, 1, 1],
            ..ServiceCfg::default()
        };
        assert_eq!(
            rejected(cfg),
            ServiceCfgError::FewerKeysThanTenants {
                key_range: 2,
                tenants: 3
            }
        );
    }

    #[test]
    fn prefill_beyond_key_range_rejected() {
        let cfg = ServiceCfg {
            prefill: 11,
            key_range: 10,
            ..ServiceCfg::default()
        };
        assert_eq!(
            rejected(cfg),
            ServiceCfgError::PrefillExceedsKeyRange {
                prefill: 11,
                key_range: 10
            }
        );
    }

    #[test]
    fn key_range_past_cache_region_rejected() {
        let cfg = ServiceCfg {
            key_range: MAX_KEY_RANGE + 1,
            ..ServiceCfg::default()
        };
        assert_eq!(
            rejected(cfg),
            ServiceCfgError::KeyRangeTooLarge {
                key_range: MAX_KEY_RANGE + 1
            }
        );
    }

    #[test]
    fn mix_not_summing_to_100_rejected() {
        let mix = OpMix {
            read_pct: 50,
            update_pct: 0,
            scan_pct: 0,
            scan_len: 1,
        };
        let cfg = ServiceCfg {
            mix,
            ..ServiceCfg::default()
        };
        let err = rejected(cfg);
        assert_eq!(err, ServiceCfgError::MixNotHundred(mix));
        assert!(err.to_string().contains("sum to 100"), "{err}");
    }

    #[test]
    fn zero_length_scans_rejected() {
        let cfg = ServiceCfg {
            mix: OpMix {
                read_pct: 50,
                update_pct: 0,
                scan_pct: 50,
                scan_len: 0,
            },
            ..ServiceCfg::default()
        };
        assert_eq!(rejected(cfg), ServiceCfgError::ZeroLengthScans);
    }

    #[test]
    #[should_panic(expected = "prefill exceeds key range")]
    fn bad_cfg_rejected() {
        ServiceWorkload::new(ServiceCfg {
            prefill: 1000,
            key_range: 10,
            ..ServiceCfg::default()
        });
    }
}
