//! Per-operation latency tracing.
//!
//! When enabled (see [`System::set_trace`]), the LSU records one
//! [`TraceRecord`] per completed operation: what it was, when the frontend
//! issued it, and when it completed. This is how the latency distributions
//! behind the paper's medians/σ (§7.1: "we repeat all microbenchmarks 50
//! times and report the median") are extracted from a run, and it is the
//! first tool to reach for when a workload's cycle count looks wrong.
//!
//! Tracing is bounded: once `capacity` records exist, further completions
//! are counted but not stored (check [`TraceLog::dropped`]).
//!
//! [`System::set_trace`]: crate::System::set_trace

use crate::op::{Op, OpToken};
use std::collections::BTreeMap;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantization
/// error of any percentile to `2^-SUB_BITS` (3.125%).
const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS; // sub-buckets per octave
/// Values below `SUBS` get one exact bucket each; each wider bit-length
/// (SUB_BITS+1 ..= 64) contributes `SUBS` sub-buckets.
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A log-linear (HDR-style) latency histogram: values below 2^5 have one
/// exact bucket each; every wider power-of-two octave is split into 32
/// linear sub-buckets, so any recorded value is representable to within
/// 3.125%. Constant-size, O(1) insertion, and — with the within-bucket
/// rank interpolation in [`LatencyHistogram::percentile`] — accurate
/// enough for the p999 SLO summaries the service reports need, replacing
/// the raw latency vector so percentile queries stay cheap even on
/// multi-million-op runs.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    // 1920 raw bucket counts are noise in a debug dump; print the summary
    // the buckets exist to answer.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("p999", &self.p999())
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(latency: u64) -> usize {
        if latency < SUBS as u64 {
            return latency as usize;
        }
        let bits = u64::BITS - latency.leading_zeros(); // >= SUB_BITS + 1
        let shift = bits - 1 - SUB_BITS;
        let sub = ((latency >> shift) as usize) & (SUBS - 1);
        SUBS * (bits - SUB_BITS) as usize + sub
    }

    /// Inclusive `[lo, hi]` value range of bucket `idx` (the inverse of
    /// [`Self::bucket_of`]).
    fn bucket_range(idx: usize) -> (u64, u64) {
        if idx < SUBS {
            return (idx as u64, idx as u64);
        }
        let shift = (idx / SUBS - 1) as u32;
        let lo = ((SUBS + idx % SUBS) as u64) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        self.buckets[Self::bucket_of(latency)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(latency);
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded latencies (for exact means; saturates at
    /// `u64::MAX` rather than overflowing on extreme samples).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded latency (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded latency (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean latency (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimate of the `p`-th percentile sample (`0.0 < p <= 100.0`),
    /// `None` when empty. The rank is located in its sub-bucket, the value
    /// linearly interpolated by rank position within that sub-bucket, and
    /// the result clamped to the observed `[min, max]` — so the estimate is
    /// within 3.125% of the true order statistic (exact for values below
    /// 32, and exact at the extremes, which land on `min`/`max`).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = Self::bucket_range(i);
                // Interpolate by rank position within the sub-bucket:
                // rank-in-bucket 1..=n maps onto the value span [lo, hi].
                let frac = (rank - seen) as f64 / n as f64;
                // Saturating: in the top octave `(hi - lo) as f64` can
                // round up past the exact span and overflow the add.
                let v = lo.saturating_add(((hi - lo) as f64 * frac).round() as u64);
                return Some(v.min(self.max).max(self.min));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// Estimated fraction of samples with latency `<= value` (the
    /// goodput-under-SLO curve's y-axis), linearly interpolated within the
    /// sub-bucket `value` lands in; `0.0` when empty.
    pub fn fraction_le(&self, value: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if value >= self.max {
            return 1.0;
        }
        let idx = Self::bucket_of(value);
        let mut below = 0u64;
        for &n in &self.buckets[..idx] {
            below += n;
        }
        let (lo, hi) = Self::bucket_range(idx);
        let within = self.buckets[idx] as f64 * (value - lo + 1) as f64 / (hi - lo + 1) as f64;
        (below as f64 + within) / self.count as f64
    }

    /// Median (50th percentile) estimate.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(90.0)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// 99.9th percentile estimate (the service SLO tail).
    pub fn p999(&self) -> Option<u64> {
        self.percentile(99.9)
    }

    /// Folds `other` into `self` (for cross-core aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One completed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Core that executed the op.
    pub core: usize,
    /// Frontend token.
    pub token: OpToken,
    /// The operation.
    pub op: Op,
    /// Cycle the op entered the LSU.
    pub issued_at: u64,
    /// Cycle the op completed (result available / committed).
    pub completed_at: u64,
}

impl TraceRecord {
    /// Completion latency in cycles.
    pub fn latency(&self) -> u64 {
        self.completed_at - self.issued_at
    }
}

/// A bounded log of completed operations, plus unbounded-cost-free latency
/// histograms per op kind (histograms keep counting even after the record
/// buffer fills, so percentiles cover *every* completion).
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
    capacity: usize,
    /// Completions that arrived after the log filled.
    pub dropped: u64,
    histograms: BTreeMap<&'static str, LatencyHistogram>,
}

impl TraceLog {
    /// Creates a log bounded to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            records: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
            histograms: BTreeMap::new(),
        }
    }

    pub(crate) fn push(&mut self, rec: TraceRecord) {
        self.histograms
            .entry(rec.op.kind_name())
            .or_default()
            .record(rec.latency());
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Latency histogram for one op kind (see [`Op::kind_name`]), if any
    /// op of that kind has completed.
    pub fn histogram(&self, kind: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(kind)
    }

    /// All per-op-kind latency histograms, keyed by [`Op::kind_name`].
    pub fn histograms(&self) -> &BTreeMap<&'static str, LatencyHistogram> {
        &self.histograms
    }

    /// The recorded operations, in completion order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Latencies of all records matching `pred`, sorted ascending.
    pub fn latencies_where(&self, pred: impl Fn(&TraceRecord) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .records
            .iter()
            .filter(|r| pred(r))
            .map(TraceRecord::latency)
            .collect();
        v.sort_unstable();
        v
    }

    /// Median latency of records matching `pred` (`None` when no record
    /// matches).
    pub fn median_where(&self, pred: impl Fn(&TraceRecord) -> bool) -> Option<u64> {
        let v = self.latencies_where(pred);
        (!v.is_empty()).then(|| v[v.len() / 2])
    }

    /// Clears the log and histograms (keeping the capacity).
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
        self.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, lat: u64) -> TraceRecord {
        TraceRecord {
            core: 0,
            token: t,
            op: Op::Fence,
            issued_at: 100,
            completed_at: 100 + lat,
        }
    }

    #[test]
    fn bounded_capacity_counts_drops() {
        let mut log = TraceLog::new(2);
        log.push(rec(1, 5));
        log.push(rec(2, 7));
        log.push(rec(3, 9));
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.dropped, 1);
        log.clear();
        assert!(log.records().is_empty());
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p50(), None);
        for l in [0u64, 1, 2, 3, 100, 100, 100, 100, 100, 1000] {
            h.record(l);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.sum(), 1506);
        // p50 is the 5th sorted sample (100); its sub-bucket [100, 101]
        // resolves it exactly.
        assert_eq!(h.p50(), Some(100));
        // p99 is the lone 1000 sample, clamped to the observed max.
        assert_eq!(h.p99(), Some(1000));
        assert_eq!(h.p999(), Some(1000));
        let mut other = LatencyHistogram::new();
        other.record(5);
        other.merge(&h);
        assert_eq!(other.count(), 11);
        assert_eq!(other.min(), Some(0));
        assert_eq!(other.max(), Some(1000));
    }

    #[test]
    fn empty_histogram_reports_none_everywhere() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for p in [0.001, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), None);
        }
        // Merging an empty histogram into an empty histogram stays empty
        // (the `u64::MAX` min sentinel must not leak into observables).
        let mut a = LatencyHistogram::new();
        a.merge(&h);
        assert_eq!(a.min(), None);
        assert_eq!(a.p50(), None);
    }

    #[test]
    fn top_bucket_saturation() {
        // u64::MAX lands in the last sub-bucket without indexing past the
        // array, the bucket bound arithmetic does not overflow, and every
        // percentile clamps to the observed range.
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(1u64 << 63));
        assert_eq!(h.max(), Some(u64::MAX));
        // Exact p50 is u64::MAX - 1; the estimate stays in range and
        // within the sub-bucket error bound.
        let p50 = h.p50().unwrap();
        assert!(p50 >= 1u64 << 63);
        assert_eq!(h.p99(), Some(u64::MAX));
        assert_eq!(h.p999(), Some(u64::MAX));
        // A merge on saturated top buckets keeps the counts.
        let mut other = LatencyHistogram::new();
        other.record(0);
        other.merge(&h);
        assert_eq!(other.count(), 4);
        assert_eq!(other.min(), Some(0));
        assert_eq!(other.max(), Some(u64::MAX));
    }

    /// Exact reference percentile: the rank-`ceil(p/100*n)` order
    /// statistic of the sorted samples (matching the histogram's rank
    /// definition).
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    /// Accuracy pin: on adversarial distributions (bucket-edge spikes,
    /// bimodal far-apart modes, heavy log-uniform tails, huge outlier
    /// masses) every percentile estimate — p999 included — is within the
    /// documented 3.125% sub-bucket bound of the exact sorted reference.
    #[test]
    fn percentiles_track_exact_reference_on_adversarial_distributions() {
        // SplitMix64, so the adversarial samples are reproducible.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };

        let mut cases: Vec<(&str, Vec<u64>)> = Vec::new();
        // All mass at the low edge of one coarse octave: the old log2
        // bound would report 2x the truth here.
        cases.push(("low-edge spike", vec![1 << 13; 1000]));
        // And at the high edge, where the old bound was nearly exact.
        cases.push(("high-edge spike", vec![(1 << 14) - 1; 1000]));
        // Bimodal with the tail crossing between modes near p99.
        let mut bimodal = vec![40u64; 990];
        bimodal.extend([1_000_000; 10]);
        cases.push(("bimodal", bimodal));
        // Log-uniform heavy tail: latencies spanning 12 octaves.
        cases.push((
            "log-uniform",
            (0..5000).map(|_| 1u64 << (next() % 40)).collect(),
        ));
        // Dense linear ramp (the smooth case interpolation must not hurt).
        cases.push(("ramp", (1..=10_000u64).collect()));
        // A p999-shaped storm: 1 in 1000 requests is 100x slower.
        let mut storm: Vec<u64> = (0..10_000).map(|_| 200 + next() % 100).collect();
        for slot in storm.iter_mut().step_by(1000) {
            *slot = 20_000 + next() % 10_000;
        }
        cases.push(("storm", storm));

        for (name, samples) in cases {
            let mut h = LatencyHistogram::new();
            let mut sorted = samples.clone();
            for s in samples {
                h.record(s);
            }
            sorted.sort_unstable();
            for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let exact = exact_percentile(&sorted, p);
                let est = h.percentile(p).unwrap();
                let bound = (exact as f64 / 32.0).ceil() + 1.0;
                assert!(
                    (est as f64 - exact as f64).abs() <= bound,
                    "{name}: p{p} estimate {est} vs exact {exact} (bound {bound})"
                );
            }
            assert_eq!(h.p999(), h.percentile(99.9));
            // The goodput curve agrees with the exact CDF to the same
            // resolution: check at every decile of the exact samples.
            for i in (0..sorted.len()).step_by(sorted.len() / 10) {
                let v = sorted[i];
                let exact_frac =
                    sorted.iter().filter(|&&s| s <= v).count() as f64 / sorted.len() as f64;
                let est = h.fraction_le(v);
                assert!(
                    (est - exact_frac).abs() <= 0.05,
                    "{name}: fraction_le({v}) {est} vs exact {exact_frac}"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        // Every latency below 32 has its own bucket: percentiles on small
        // values are not estimates at all.
        let mut h = LatencyHistogram::new();
        let samples: Vec<u64> = (0..31).flat_map(|v| [v; 3]).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for s in samples {
            h.record(s);
        }
        for p in [1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), Some(exact_percentile(&sorted, p)));
        }
    }

    #[test]
    fn fraction_le_endpoints() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.fraction_le(0), 0.0);
        for l in [10u64, 20, 30, 40] {
            h.record(l);
        }
        assert_eq!(h.fraction_le(40), 1.0);
        assert_eq!(h.fraction_le(u64::MAX), 1.0);
        assert!((h.fraction_le(20) - 0.5).abs() < 1e-9);
        assert!(h.fraction_le(9) < 0.25);
    }

    #[test]
    fn histograms_survive_record_drops() {
        let mut log = TraceLog::new(1);
        log.push(rec(1, 5));
        log.push(rec(2, 7));
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.dropped, 1);
        let h = log.histogram("fence").expect("fence histogram");
        assert_eq!(h.count(), 2, "drops must still be counted in histograms");
        log.clear();
        assert!(log.histogram("fence").is_none());
    }

    #[test]
    fn median_and_filters() {
        let mut log = TraceLog::new(16);
        for (t, l) in [(1, 10), (2, 30), (3, 20)] {
            log.push(rec(t, l));
        }
        assert_eq!(log.median_where(|_| true), Some(20));
        assert_eq!(log.median_where(|r| r.token == 2), Some(30));
        assert_eq!(log.median_where(|r| r.token == 99), None);
        assert_eq!(log.latencies_where(|_| true), vec![10, 20, 30]);
    }
}
