//! Deterministic request-stream generators: key skew, open-loop arrival
//! processes, tenant mixes, operation mixes and stress patterns.
//!
//! Everything here runs host-side before the simulation starts: a
//! [`ServiceCfg`](crate::ServiceCfg) is lowered to one [`Request`] lane per
//! simulated core by [`build_lanes`], a pure function of the seed. The
//! simulated workers then merely *execute* their lanes, so the request
//! streams are bit-identical on every engine at any host thread count.

use crate::rng::{splitmix64, SplitMix64};
use crate::workload::ServiceCfgError;

/// How keys are drawn within a tenant's shard of the key space.
///
/// Rank 0 is the hottest key of the shard; the rank→key mapping is the
/// identity (the PDS hash table scatters adjacent keys across buckets
/// anyway, so popularity-adjacency costs nothing).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with exponent `s` (`s = 0` degenerates to uniform;
    /// `s = 0.99` is the YCSB default; `s = 1.2` is hotter-than-YCSB
    /// celebrity skew).
    Zipfian {
        /// The Zipf exponent.
        s: f64,
    },
    /// `hot_pct` percent of draws go uniformly to the `hot` lowest-ranked
    /// keys, the rest uniformly to the whole shard — the classic
    /// hot-set/cold-set model.
    HotSet {
        /// Number of hot keys.
        hot: u64,
        /// Percent of draws served from the hot set.
        hot_pct: u32,
    },
}

impl KeyDist {
    /// The distribution a scalar `skew` shorthand denotes (used by the
    /// sweep grids): `0` is uniform, anything else Zipfian with that
    /// exponent.
    pub fn from_skew(skew: f64) -> KeyDist {
        if skew == 0.0 {
            KeyDist::Uniform
        } else {
            KeyDist::Zipfian { s: skew }
        }
    }
}

/// A sampler for one tenant shard: draws ranks in `[0, n)`, hottest first.
#[derive(Clone, Debug)]
enum RankSampler {
    Uniform {
        n: u64,
    },
    /// Cumulative Zipf weights, normalized to end at 1.0; sampled by
    /// binary search over a unit draw.
    Cdf {
        cum: Vec<f64>,
    },
    HotSet {
        n: u64,
        hot: u64,
        hot_pct: u32,
    },
}

impl RankSampler {
    fn new(dist: KeyDist, n: u64) -> RankSampler {
        assert!(n > 0, "empty key shard");
        match dist {
            KeyDist::Uniform => RankSampler::Uniform { n },
            KeyDist::Zipfian { s } => {
                assert!(s >= 0.0 && s.is_finite(), "zipf exponent {s}");
                let mut cum = Vec::with_capacity(n as usize);
                let mut total = 0.0;
                for r in 0..n {
                    total += 1.0 / ((r + 1) as f64).powf(s);
                    cum.push(total);
                }
                for c in &mut cum {
                    *c /= total;
                }
                RankSampler::Cdf { cum }
            }
            KeyDist::HotSet { hot, hot_pct } => {
                assert!(hot_pct <= 100, "hot_pct {hot_pct}");
                RankSampler::HotSet {
                    n,
                    hot: hot.clamp(1, n),
                    hot_pct,
                }
            }
        }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            RankSampler::Uniform { n } => rng.gen_range(*n),
            RankSampler::Cdf { cum } => {
                let u = rng.next_f64();
                cum.partition_point(|&c| c < u) as u64
            }
            RankSampler::HotSet { n, hot, hot_pct } => {
                if rng.gen_range(100) < *hot_pct as u64 {
                    rng.gen_range(*hot)
                } else {
                    rng.gen_range(*n)
                }
            }
        }
    }
}

/// The open-loop arrival process: how far apart consecutive requests of one
/// lane are scheduled, in simulated cycles. Open-loop means the schedule is
/// fixed up front — a slow server does not slow the arrivals down, it
/// builds a queue (and the queueing delay lands in the recorded latency).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// Deterministic arrivals every `gap` cycles.
    Fixed {
        /// Interarrival gap in cycles.
        gap: u64,
    },
    /// Poisson arrivals: exponential interarrival times with the given
    /// mean, rounded to whole cycles.
    Poisson {
        /// Mean interarrival gap in cycles.
        mean_gap: u64,
    },
    /// On/off bursts (the renewal model of synchronized client retries):
    /// `burst` Poisson arrivals at `mean_gap`, then one idle period of
    /// `idle` cycles, repeating.
    Bursty {
        /// Mean intra-burst interarrival gap in cycles.
        mean_gap: u64,
        /// Arrivals per burst.
        burst: u32,
        /// Idle cycles between bursts.
        idle: u64,
    },
}

impl Arrivals {
    /// Mean interarrival gap in cycles (the lane's long-run offered rate is
    /// its reciprocal).
    pub fn mean_gap(self) -> f64 {
        match self {
            Arrivals::Fixed { gap } => gap as f64,
            Arrivals::Poisson { mean_gap } => mean_gap as f64,
            Arrivals::Bursty {
                mean_gap,
                burst,
                idle,
            } => (burst as f64 * mean_gap as f64 + idle as f64) / burst.max(1) as f64,
        }
    }
}

/// One lane's arrival clock.
#[derive(Clone, Debug)]
struct ArrivalClock {
    arrivals: Arrivals,
    now: u64,
    in_burst: u32,
}

impl ArrivalClock {
    fn new(arrivals: Arrivals) -> Self {
        ArrivalClock {
            arrivals,
            now: 0,
            in_burst: 0,
        }
    }

    /// Exponential draw with mean `mean`, rounded to whole cycles (min 1).
    fn exp(rng: &mut SplitMix64, mean: u64) -> u64 {
        let u = rng.next_f64();
        (-(1.0 - u).ln() * mean as f64).round().max(1.0) as u64
    }

    fn next(&mut self, rng: &mut SplitMix64) -> u64 {
        let gap = match self.arrivals {
            Arrivals::Fixed { gap } => gap.max(1),
            Arrivals::Poisson { mean_gap } => Self::exp(rng, mean_gap),
            Arrivals::Bursty {
                mean_gap,
                burst,
                idle,
            } => {
                self.in_burst += 1;
                if self.in_burst > burst.max(1) {
                    self.in_burst = 1;
                    idle.max(1) + Self::exp(rng, mean_gap)
                } else {
                    Self::exp(rng, mean_gap)
                }
            }
        };
        self.now += gap;
        self.now
    }
}

/// Operation mix in percent. `read + update + scan` must equal 100;
/// updates split evenly between inserts and removes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpMix {
    /// Percent of requests that are point lookups.
    pub read_pct: u32,
    /// Percent of requests that are updates (half inserts, half removes).
    pub update_pct: u32,
    /// Percent of requests that are short range scans.
    pub scan_pct: u32,
    /// Keys touched by one scan.
    pub scan_len: u32,
}

impl Default for OpMix {
    /// YCSB-B shape: 95 % reads, 5 % updates, no scans.
    fn default() -> Self {
        OpMix {
            read_pct: 95,
            update_pct: 5,
            scan_pct: 0,
            scan_len: 8,
        }
    }
}

impl OpMix {
    /// Checks the mix: the percentages sum to 100 and scans, if any, touch
    /// at least one key.
    ///
    /// # Errors
    ///
    /// [`ServiceCfgError::MixNotHundred`] or
    /// [`ServiceCfgError::ZeroLengthScans`].
    pub fn validate(&self) -> Result<(), ServiceCfgError> {
        if self.read_pct + self.update_pct + self.scan_pct != 100 {
            return Err(ServiceCfgError::MixNotHundred(*self));
        }
        if self.scan_pct > 0 && self.scan_len == 0 {
            return Err(ServiceCfgError::ZeroLengthScans);
        }
        Ok(())
    }
}

/// Stress patterns layered over the base stream — both are service-cache
/// failure modes that lower to CBO storms on the simulated platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stress {
    /// No injected stress.
    None,
    /// Cache-stampede: every `every` base arrivals, a herd of `herd`
    /// simultaneous reads of the shard's hottest key (the thundering herd
    /// after a hot entry misses).
    Stampede {
        /// Base arrivals between herds.
        every: u32,
        /// Reads per herd.
        herd: u32,
    },
    /// Synchronized expiration storm: at every multiple of `every_cycles`,
    /// **every** lane issues `CBO.FLUSH` over the `lines` hottest cache
    /// lines at the same simulated cycle — TTL expiry synchronized across
    /// frontends, the worst case the Skip It hardware elides (clean lines
    /// flush for free).
    ExpirationStorm {
        /// Storm period in cycles.
        every_cycles: u64,
        /// Hot cache lines flushed per storm per lane.
        lines: u32,
    },
}

/// What one simulated request does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// Point lookup: set `contains` plus a cache-slot load.
    Read,
    /// Insert: set `insert` plus a dirtying cache-slot store.
    Insert,
    /// Remove: set `remove` plus a dirtying cache-slot store.
    Remove,
    /// Short range scan of `len` consecutive keys within the tenant shard.
    Scan {
        /// Keys touched.
        len: u32,
    },
    /// TTL expiry of one cache slot: `CBO.FLUSH` of the key's line.
    Expire,
}

/// One scheduled request of a lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Scheduled arrival cycle, relative to the measured phase's start.
    pub at: u64,
    /// Target key (`1..=key_range`).
    pub key: u64,
    /// Operation.
    pub kind: ReqKind,
    /// Issuing tenant (an index into the tenant-weight table).
    pub tenant: u32,
}

/// A tenant's contiguous shard of the key space.
#[derive(Clone, Copy, Debug)]
struct Shard {
    lo: u64,
    len: u64,
}

/// The tenant shard table as `(lo, len)` pairs — the workload executor
/// needs it to keep scans inside the issuing tenant's shard.
pub(crate) fn shard_table(key_range: u64, weights: &[u32]) -> Vec<(u64, u64)> {
    shards(key_range, weights)
        .into_iter()
        .map(|s| (s.lo, s.len))
        .collect()
}

/// Splits `1..=key_range` into one contiguous shard per tenant,
/// proportional to the weights (every shard gets at least one key).
fn shards(key_range: u64, weights: &[u32]) -> Vec<Shard> {
    assert!(!weights.is_empty(), "at least one tenant");
    let total: u64 = weights.iter().map(|&w| w.max(1) as u64).sum();
    let mut out = Vec::with_capacity(weights.len());
    let mut lo = 1u64;
    let mut used = 0u64;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w.max(1) as u64;
        let end = if i + 1 == weights.len() {
            key_range
        } else {
            (key_range * acc / total).min(key_range)
        };
        let len = (end.saturating_sub(used)).max(1);
        out.push(Shard { lo, len });
        lo += len;
        used += len;
    }
    out
}

/// Per-lane generation context shared by [`build_lanes`].
struct LaneGen {
    samplers: Vec<RankSampler>,
    shards: Vec<Shard>,
    weights_cum: Vec<u64>,
    mix: OpMix,
}

impl LaneGen {
    fn pick_tenant(&self, rng: &mut SplitMix64) -> u32 {
        let total = *self.weights_cum.last().unwrap();
        let draw = rng.gen_range(total);
        self.weights_cum.partition_point(|&c| c <= draw) as u32
    }

    fn pick_key(&self, tenant: u32, rng: &mut SplitMix64) -> u64 {
        let rank = self.samplers[tenant as usize].sample(rng);
        self.shards[tenant as usize].lo + rank
    }

    fn pick_kind(&self, rng: &mut SplitMix64) -> ReqKind {
        let dice = rng.gen_range(100) as u32;
        if dice < self.mix.read_pct {
            ReqKind::Read
        } else if dice < self.mix.read_pct + self.mix.update_pct {
            // Updates split evenly between inserts and removes.
            if dice.is_multiple_of(2) {
                ReqKind::Insert
            } else {
                ReqKind::Remove
            }
        } else {
            ReqKind::Scan {
                len: self.mix.scan_len,
            }
        }
    }
}

/// Lowers the generator parameters to one request lane per core — a pure
/// function of `seed` (see the [module docs](self)).
///
/// `requests` counts *base* arrivals per lane; stress patterns append their
/// own requests on top (stamped at already-scheduled cycles, so they model
/// extra load at the same instants, not a stretched schedule).
#[allow(clippy::too_many_arguments)]
pub fn build_lanes(
    cores: usize,
    requests: usize,
    key_range: u64,
    dist: KeyDist,
    arrivals: Arrivals,
    mix: OpMix,
    tenants: &[u32],
    stress: Stress,
    seed: u64,
) -> Vec<Vec<Request>> {
    if let Err(e) = mix.validate() {
        panic!("{e}");
    }
    assert!(cores > 0, "at least one lane");
    assert!(key_range > 0, "empty key space");
    let shard_table = shards(key_range, tenants);
    let gen = LaneGen {
        samplers: shard_table
            .iter()
            .map(|s| RankSampler::new(dist, s.len))
            .collect(),
        shards: shard_table,
        weights_cum: tenants
            .iter()
            .scan(0u64, |acc, &w| {
                *acc += w.max(1) as u64;
                Some(*acc)
            })
            .collect(),
        mix,
    };
    let mut lanes = Vec::with_capacity(cores);
    for lane in 0..cores {
        let mut rng = SplitMix64::new(splitmix64(
            seed ^ (lane as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
        ));
        let mut clock = ArrivalClock::new(arrivals);
        let mut out = Vec::with_capacity(requests);
        for n in 0..requests {
            let at = clock.next(&mut rng);
            let tenant = gen.pick_tenant(&mut rng);
            out.push(Request {
                at,
                key: gen.pick_key(tenant, &mut rng),
                kind: gen.pick_kind(&mut rng),
                tenant,
            });
            if let Stress::Stampede { every, herd } = stress {
                if every > 0 && (n as u32 + 1).is_multiple_of(every) {
                    for _ in 0..herd {
                        out.push(Request {
                            at,
                            key: gen.shards[0].lo,
                            kind: ReqKind::Read,
                            tenant: 0,
                        });
                    }
                }
            }
        }
        lanes.push(out);
    }
    // Expiration storms fire at absolute multiples of the period up to a
    // horizon common to every lane, so all lanes carry identical storm
    // stamps — the cross-frontend synchronization *is* the stress.
    if let Stress::ExpirationStorm {
        every_cycles,
        lines,
    } = stress
    {
        let period = every_cycles.max(1);
        let horizon = lanes
            .iter()
            .filter_map(|l| l.last())
            .map(|r| r.at)
            .max()
            .unwrap_or(0);
        let (lo, len) = {
            let s = &gen.shards[0];
            (s.lo, s.len)
        };
        for lane in &mut lanes {
            let mut t = period;
            while t <= horizon {
                for r in 0..lines as u64 {
                    lane.push(Request {
                        at: t,
                        key: lo + (r % len),
                        kind: ReqKind::Expire,
                        tenant: 0,
                    });
                }
                t += period;
            }
            // Stable, so co-stamped base requests keep generation order
            // and storm flushes land after them.
            lane.sort_by_key(|r| r.at);
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_lanes(dist: KeyDist, stress: Stress, seed: u64) -> Vec<Vec<Request>> {
        build_lanes(
            2,
            500,
            256,
            dist,
            Arrivals::Poisson { mean_gap: 30 },
            OpMix::default(),
            &[1],
            stress,
            seed,
        )
    }

    #[test]
    fn lanes_are_deterministic_per_seed() {
        let a = base_lanes(KeyDist::Zipfian { s: 0.99 }, Stress::None, 7);
        let b = base_lanes(KeyDist::Zipfian { s: 0.99 }, Stress::None, 7);
        assert_eq!(a, b);
        let c = base_lanes(KeyDist::Zipfian { s: 0.99 }, Stress::None, 8);
        assert_ne!(a, c);
        // Lanes are mutually distinct streams.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn arrival_stamps_are_monotonic_and_positive() {
        for arrivals in [
            Arrivals::Fixed { gap: 10 },
            Arrivals::Poisson { mean_gap: 25 },
            Arrivals::Bursty {
                mean_gap: 5,
                burst: 16,
                idle: 400,
            },
        ] {
            let lanes = build_lanes(
                1,
                300,
                64,
                KeyDist::Uniform,
                arrivals,
                OpMix::default(),
                &[1],
                Stress::None,
                3,
            );
            let mut prev = 0;
            for r in &lanes[0] {
                assert!(r.at >= prev, "{arrivals:?}: stamps regressed");
                assert!(r.at > 0);
                prev = r.at;
            }
        }
    }

    #[test]
    fn poisson_mean_gap_tracks_request() {
        let lanes = build_lanes(
            1,
            4000,
            64,
            KeyDist::Uniform,
            Arrivals::Poisson { mean_gap: 40 },
            OpMix::default(),
            &[1],
            Stress::None,
            11,
        );
        let span = lanes[0].last().unwrap().at as f64;
        let mean = span / lanes[0].len() as f64;
        assert!((mean - 40.0).abs() < 4.0, "measured mean gap {mean}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let lanes = base_lanes(KeyDist::Zipfian { s: 0.99 }, Stress::None, 5);
        let hot: usize = lanes.iter().flatten().filter(|r| r.key <= 256 / 10).count();
        let total: usize = lanes.iter().map(Vec::len).sum();
        // Under s≈1 the top decile of keys draws roughly half the traffic;
        // uniform would give it 10 %.
        assert!(
            hot as f64 > total as f64 * 0.3,
            "top-decile share {hot}/{total}"
        );
    }

    #[test]
    fn hotset_hits_hot_keys() {
        let lanes = base_lanes(
            KeyDist::HotSet {
                hot: 4,
                hot_pct: 90,
            },
            Stress::None,
            5,
        );
        let hot: usize = lanes.iter().flatten().filter(|r| r.key <= 4).count();
        let total: usize = lanes.iter().map(Vec::len).sum();
        assert!(hot as f64 > total as f64 * 0.8, "hot share {hot}/{total}");
    }

    #[test]
    fn tenants_partition_the_key_space() {
        let lanes = build_lanes(
            2,
            800,
            300,
            KeyDist::Uniform,
            Arrivals::Fixed { gap: 5 },
            OpMix::default(),
            &[3, 1],
            Stress::None,
            9,
        );
        let mut seen = [0usize; 2];
        for r in lanes.iter().flatten() {
            match r.tenant {
                0 => assert!(r.key <= 225, "tenant 0 escaped its shard: {}", r.key),
                1 => assert!(r.key > 225, "tenant 1 escaped its shard: {}", r.key),
                t => panic!("unknown tenant {t}"),
            }
            seen[r.tenant as usize] += 1;
        }
        // 3:1 weights: tenant 0 should carry roughly three quarters.
        assert!(seen[0] > seen[1] * 2, "weights ignored: {seen:?}");
    }

    #[test]
    fn storms_are_synchronized_across_lanes() {
        let stress = Stress::ExpirationStorm {
            every_cycles: 1000,
            lines: 3,
        };
        let lanes = base_lanes(KeyDist::Uniform, stress, 13);
        let stamps = |lane: &[Request]| -> Vec<u64> {
            lane.iter()
                .filter(|r| r.kind == ReqKind::Expire)
                .map(|r| r.at)
                .collect()
        };
        let (a, b) = (stamps(&lanes[0]), stamps(&lanes[1]));
        assert!(!a.is_empty(), "no storms fired");
        assert_eq!(a, b, "storm stamps differ between lanes");
        assert!(a.iter().all(|&t| t % 1000 == 0), "off-period storm");
    }

    #[test]
    fn stampede_herds_share_a_stamp_on_the_hottest_key() {
        let stress = Stress::Stampede {
            every: 50,
            herd: 10,
        };
        let lanes = base_lanes(KeyDist::Zipfian { s: 0.99 }, stress, 17);
        let herd: Vec<_> = lanes[0]
            .iter()
            .filter(|r| r.kind == ReqKind::Read && r.key == 1)
            .collect();
        assert!(herd.len() >= 10 * (500 / 50), "missing herd reads");
        // 500 base arrivals at every=50 ⇒ 10 herds of 10 co-stamped reads.
        let mut by_stamp = std::collections::BTreeMap::new();
        for r in &herd {
            *by_stamp.entry(r.at).or_insert(0usize) += 1;
        }
        assert!(
            by_stamp.values().any(|&n| n >= 10),
            "no herd shares a stamp"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_rejected() {
        build_lanes(
            1,
            1,
            8,
            KeyDist::Uniform,
            Arrivals::Fixed { gap: 1 },
            OpMix {
                read_pct: 50,
                update_pct: 0,
                scan_pct: 0,
                scan_len: 1,
            },
            &[1],
            Stress::None,
            1,
        );
    }
}
