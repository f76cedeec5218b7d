//! Simulated-time telemetry: interval-sampled counter series.
//!
//! Event tracing (the rest of this crate) answers *what happened, in
//! order*; telemetry answers *how behaviour evolved over simulated time*.
//! A [`Telemetry`] sampler records, every N simulated cycles, the
//! per-interval **deltas** of the simulator's cumulative counters (ops
//! retired, TileLink beats, skip-bit drops, DRAM traffic) alongside
//! instantaneous **gauges** (MSHR/FSHR occupancy, flush-queue depth) into a
//! bounded drop-oldest ring of [`TelemetrySample`]s.
//!
//! The sampler is observation-only and cycle-aligned: samples land at exact
//! multiples of the interval regardless of which engine advances the clock
//! (fast-forwarded windows are provably free of counter changes, so
//! boundaries inside a jumped window record zero deltas and unchanged
//! gauges — exactly what the naive engine would have recorded). Enabling it
//! is bit-identical to leaving it off, for every engine.
//!
//! The system feeds the sampler cumulative [`TelemetryCounters`]; delta
//! computation, ring bounds and the flat JSON / CSV renderings live here.
//! Perfetto counter-track export lives next to the event exporter in the
//! system crate.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Default bound on buffered samples when none is configured.
pub const DEFAULT_TELEMETRY_CAPACITY: usize = 4096;

/// Cumulative per-core counters and instantaneous gauges, as captured by
/// the system at one instant. Counter fields only ever grow; gauge fields
/// (`*_occupancy`, `flush_queue_depth`) are point-in-time readings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Memory ops accepted by the L1 (loads + stores + AMOs), cumulative.
    pub ops: u64,
    /// L1 MSHRs currently mid-transaction (gauge).
    pub mshr_occupancy: u64,
    /// FSHRs currently executing a writeback (gauge).
    pub fshr_occupancy: u64,
    /// Requests buffered in the flush queue (gauge).
    pub flush_queue_depth: u64,
    /// CBO.X requests dropped by the Skip It check, cumulative.
    pub skips: u64,
    /// CBO.X requests that entered the flush queue, cumulative.
    pub enqueued: u64,
    /// Messages pushed per TileLink channel A–E, cumulative.
    pub link_pushed: [u64; 5],
}

/// One full cumulative counter capture: what the system hands
/// [`Telemetry::record_up_to`]. See [`CoreCounters`] for the
/// counter-vs-gauge split.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryCounters {
    /// Per-core counters, indexed by core.
    pub cores: Vec<CoreCounters>,
    /// L2 MSHRs currently live (gauge).
    pub l2_mshr_occupancy: u64,
    /// Line reads DRAM has serviced, cumulative.
    pub dram_reads: u64,
    /// Line writes DRAM has serviced (lines persisted), cumulative.
    pub dram_writes: u64,
}

/// One core's share of a sampled interval: counter fields are **deltas
/// over the covered span**, gauge fields are readings at the sample
/// instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreSample {
    /// Memory ops the L1 accepted during the span.
    pub ops: u64,
    /// L1 MSHR occupancy at the sample instant.
    pub mshr_occupancy: u64,
    /// FSHR occupancy at the sample instant.
    pub fshr_occupancy: u64,
    /// Flush-queue depth at the sample instant.
    pub flush_queue_depth: u64,
    /// Writebacks dropped by Skip It during the span.
    pub skips: u64,
    /// Writebacks enqueued during the span.
    pub enqueued: u64,
    /// Messages pushed per TileLink channel A–E during the span.
    pub link_beats: [u64; 5],
}

impl CoreSample {
    /// Memory ops per cycle over `span` (the per-core IPC series).
    pub fn ipc(&self, span: u64) -> f64 {
        if span == 0 {
            0.0
        } else {
            self.ops as f64 / span as f64
        }
    }

    /// Fraction of this span's CBO.X requests eliminated by the skip bit
    /// (`skips / (skips + enqueued)`); `None` when the span saw none.
    pub fn skip_drop_rate(&self) -> Option<f64> {
        let total = self.skips + self.enqueued;
        (total > 0).then(|| self.skips as f64 / total as f64)
    }
}

/// One sampled interval. `cycle` is the sample instant (the end of the
/// covered span); `span` is how many simulated cycles the deltas cover —
/// the configured interval for aligned samples, possibly less for the
/// final partial sample taken by [`Telemetry::finish`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Sample instant (end of the covered span).
    pub cycle: u64,
    /// Simulated cycles the deltas cover.
    pub span: u64,
    /// Per-core deltas and gauges.
    pub cores: Vec<CoreSample>,
    /// L2 MSHR occupancy at the sample instant.
    pub l2_mshr_occupancy: u64,
    /// DRAM line reads during the span.
    pub dram_reads: u64,
    /// DRAM line writes (lines persisted) during the span.
    pub dram_writes: u64,
}

impl TelemetrySample {
    /// DRAM read bandwidth in lines per kilocycle over the span.
    pub fn dram_read_bw(&self) -> f64 {
        per_kcycle(self.dram_reads, self.span)
    }

    /// DRAM write bandwidth in lines per kilocycle over the span.
    pub fn dram_write_bw(&self) -> f64 {
        per_kcycle(self.dram_writes, self.span)
    }
}

fn per_kcycle(n: u64, span: u64) -> f64 {
    if span == 0 {
        0.0
    } else {
        n as f64 * 1000.0 / span as f64
    }
}

/// The interval sampler: a bounded drop-oldest ring of
/// [`TelemetrySample`]s plus the cumulative baseline the next delta is
/// computed against.
///
/// The owner (the system) calls [`Telemetry::record_up_to`] whenever the
/// simulated clock has reached or crossed [`Telemetry::next_cycle`] *and
/// the state at the current instant equals the state at every crossed
/// boundary* — true at every executed-cycle boundary and at fast-forward
/// landing points, since skipped windows contain no state changes. Each
/// crossed boundary gets its own sample, so the series is identical
/// whichever engine advanced the clock.
#[derive(Clone)]
pub struct Telemetry {
    interval: u64,
    capacity: usize,
    /// Next boundary cycle to sample.
    next: u64,
    /// Cycle of the previous sample (or the install baseline).
    last_cycle: u64,
    /// Cumulative counters at `last_cycle`.
    prev: TelemetryCounters,
    samples: VecDeque<TelemetrySample>,
    dropped: u64,
}

// Summary-only, mirroring `TraceSink`: keep any accidental inclusion in a
// state digest cheap and layout-independent.
impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry(interval={}, len={}, dropped={})",
            self.interval,
            self.samples.len(),
            self.dropped
        )
    }
}

impl Telemetry {
    /// A sampler recording every `interval` cycles into a ring of at most
    /// `capacity` samples, with `baseline` as the cumulative state at
    /// install time (`now`). The first sample lands at the next multiple
    /// of `interval` strictly after `now`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` or `capacity` is zero.
    pub fn new(interval: u64, capacity: usize, now: u64, baseline: TelemetryCounters) -> Self {
        assert!(interval > 0, "telemetry interval must be nonzero");
        assert!(capacity > 0, "telemetry capacity must be nonzero");
        Telemetry {
            interval,
            capacity,
            next: (now / interval + 1) * interval,
            last_cycle: now,
            prev: baseline,
            samples: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The configured sampling interval (cycles).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The ring capacity (samples).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The next boundary cycle a sample will land on.
    pub fn next_cycle(&self) -> u64 {
        self.next
    }

    /// Whether the clock having reached `now` means samples are due.
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        now >= self.next
    }

    /// Records one sample per boundary in `(last, now]`, with `counters`
    /// as the cumulative state at `now`. The first crossed boundary
    /// carries the deltas since the previous sample; further boundaries
    /// (inside a fast-forwarded window) record zero deltas and repeated
    /// gauges — the caller guarantees no counter changed between the first
    /// crossed boundary and `now`.
    pub fn record_up_to(&mut self, now: u64, counters: &TelemetryCounters) {
        while self.next <= now {
            let cycle = self.next;
            self.push(cycle, counters);
            self.next += self.interval;
        }
    }

    /// Takes a final partial sample covering `(last, now]` — the tail of a
    /// run that ended between boundaries. A no-op when `now` is already
    /// sampled. Boundary alignment of future samples is unaffected.
    pub fn finish(&mut self, now: u64, counters: &TelemetryCounters) {
        if now > self.last_cycle {
            self.push(now, counters);
        }
    }

    fn push(&mut self, cycle: u64, counters: &TelemetryCounters) {
        let sample = TelemetrySample {
            cycle,
            span: cycle - self.last_cycle,
            cores: counters
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let p = self.prev.cores.get(i).copied().unwrap_or_default();
                    let mut beats = [0u64; 5];
                    for (b, (cur, prev)) in beats
                        .iter_mut()
                        .zip(c.link_pushed.iter().zip(p.link_pushed.iter()))
                    {
                        *b = cur.saturating_sub(*prev);
                    }
                    CoreSample {
                        ops: c.ops.saturating_sub(p.ops),
                        mshr_occupancy: c.mshr_occupancy,
                        fshr_occupancy: c.fshr_occupancy,
                        flush_queue_depth: c.flush_queue_depth,
                        skips: c.skips.saturating_sub(p.skips),
                        enqueued: c.enqueued.saturating_sub(p.enqueued),
                        link_beats: beats,
                    }
                })
                .collect(),
            l2_mshr_occupancy: counters.l2_mshr_occupancy,
            dram_reads: counters.dram_reads.saturating_sub(self.prev.dram_reads),
            dram_writes: counters.dram_writes.saturating_sub(self.prev.dram_writes),
        };
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
        self.prev = counters.clone();
        self.last_cycle = cycle;
    }

    /// The buffered samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TelemetrySample> {
        self.samples.iter()
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been taken (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flat JSON rendering: the interval, the drop count, and one object
    /// per sample (per-core deltas/gauges under `"cores"`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"interval\": {},", self.interval);
        let _ = writeln!(out, "  \"dropped\": {},", self.dropped);
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "    {{\"cycle\": {}, \"span\": {}, \"dram_reads\": {}, \"dram_writes\": {}, \
                 \"l2_mshr_occupancy\": {}, \"cores\": [",
                s.cycle, s.span, s.dram_reads, s.dram_writes, s.l2_mshr_occupancy
            );
            for (j, c) in s.cores.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"ops\": {}, \"mshr_occupancy\": {}, \"fshr_occupancy\": {}, \
                     \"flush_queue_depth\": {}, \"skips\": {}, \"enqueued\": {}, \
                     \"link_beats\": [{}, {}, {}, {}, {}]}}",
                    c.ops,
                    c.mshr_occupancy,
                    c.fshr_occupancy,
                    c.flush_queue_depth,
                    c.skips,
                    c.enqueued,
                    c.link_beats[0],
                    c.link_beats[1],
                    c.link_beats[2],
                    c.link_beats[3],
                    c.link_beats[4]
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// CSV rendering: one row per `(sample, core)` pair, system-wide
    /// columns repeated on each of a sample's rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "cycle,span,core,ops,mshr_occupancy,fshr_occupancy,flush_queue_depth,\
             skips,enqueued,beats_a,beats_b,beats_c,beats_d,beats_e,\
             l2_mshr_occupancy,dram_reads,dram_writes\n",
        );
        for s in &self.samples {
            for (i, c) in s.cores.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    s.cycle,
                    s.span,
                    i,
                    c.ops,
                    c.mshr_occupancy,
                    c.fshr_occupancy,
                    c.flush_queue_depth,
                    c.skips,
                    c.enqueued,
                    c.link_beats[0],
                    c.link_beats[1],
                    c.link_beats[2],
                    c.link_beats[3],
                    c.link_beats[4],
                    s.l2_mshr_occupancy,
                    s.dram_reads,
                    s.dram_writes
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(ops: u64, reads: u64) -> TelemetryCounters {
        TelemetryCounters {
            cores: vec![CoreCounters {
                ops,
                mshr_occupancy: 1,
                fshr_occupancy: 2,
                flush_queue_depth: 3,
                skips: ops / 2,
                enqueued: ops,
                link_pushed: [ops, 0, ops * 2, 0, 0],
            }],
            l2_mshr_occupancy: 4,
            dram_reads: reads,
            dram_writes: reads * 2,
        }
    }

    #[test]
    fn samples_land_on_boundaries_with_deltas() {
        let mut t = Telemetry::new(100, 16, 0, counters(0, 0));
        assert_eq!(t.next_cycle(), 100);
        assert!(!t.due(99));
        assert!(t.due(100));
        t.record_up_to(100, &counters(10, 3));
        let s: Vec<_> = t.samples().collect();
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].cycle, s[0].span), (100, 100));
        assert_eq!(s[0].cores[0].ops, 10);
        assert_eq!(s[0].cores[0].link_beats, [10, 0, 20, 0, 0]);
        assert_eq!((s[0].dram_reads, s[0].dram_writes), (3, 6));
        // Gauges are instantaneous, not deltas.
        assert_eq!(s[0].cores[0].mshr_occupancy, 1);
        assert_eq!(s[0].l2_mshr_occupancy, 4);
    }

    #[test]
    fn jumped_windows_emit_zero_delta_samples() {
        let mut t = Telemetry::new(100, 16, 0, counters(0, 0));
        // Clock lands at 350 after a jump: boundaries 100, 200, 300.
        t.record_up_to(350, &counters(5, 1));
        let s: Vec<_> = t.samples().collect();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].cores[0].ops, 5, "first boundary carries the delta");
        assert_eq!(s[1].cores[0].ops, 0);
        assert_eq!(s[2].cores[0].ops, 0);
        assert_eq!(s[2].cores[0].mshr_occupancy, 1, "gauges repeat");
        assert_eq!(t.next_cycle(), 400);
    }

    #[test]
    fn finish_takes_partial_tail_sample() {
        let mut t = Telemetry::new(100, 16, 0, counters(0, 0));
        t.record_up_to(200, &counters(4, 2));
        t.finish(250, &counters(9, 2));
        let s: Vec<_> = t.samples().collect();
        assert_eq!(s.len(), 3);
        assert_eq!((s[2].cycle, s[2].span), (250, 50));
        assert_eq!(s[2].cores[0].ops, 5);
        // Already-sampled instants are a no-op.
        t.finish(250, &counters(9, 2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut t = Telemetry::new(10, 2, 0, counters(0, 0));
        t.record_up_to(40, &counters(8, 0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        let first = t.samples().next().unwrap();
        assert_eq!(first.cycle, 30, "oldest samples evicted");
    }

    #[test]
    fn deltas_sum_to_cumulative_totals() {
        let mut t = Telemetry::new(64, 64, 0, counters(0, 0));
        for (now, ops) in [(64, 3), (128, 3), (300, 17), (301, 17)] {
            t.record_up_to(now, &counters(ops, ops));
        }
        t.finish(333, &counters(20, 20));
        let ops: u64 = t.samples().map(|s| s.cores[0].ops).sum();
        let reads: u64 = t.samples().map(|s| s.dram_reads).sum();
        assert_eq!(ops, 20);
        assert_eq!(reads, 20);
        let spans: u64 = t.samples().map(|s| s.span).sum();
        assert_eq!(spans, 333, "spans tile the run without gaps");
    }

    #[test]
    fn rates_and_ratios() {
        let c = CoreSample {
            ops: 500,
            skips: 3,
            enqueued: 1,
            ..CoreSample::default()
        };
        assert!((c.ipc(1000) - 0.5).abs() < 1e-12);
        assert_eq!(c.ipc(0), 0.0);
        assert_eq!(c.skip_drop_rate(), Some(0.75));
        assert_eq!(CoreSample::default().skip_drop_rate(), None);
        let s = TelemetrySample {
            span: 2000,
            dram_reads: 4,
            dram_writes: 6,
            ..TelemetrySample::default()
        };
        assert!((s.dram_read_bw() - 2.0).abs() < 1e-12);
        assert!((s.dram_write_bw() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_and_csv_shapes() {
        let mut t = Telemetry::new(100, 4, 0, counters(0, 0));
        t.record_up_to(100, &counters(10, 3));
        let json = t.to_json();
        assert!(json.contains("\"interval\": 100"));
        assert!(json.contains("\"cycle\": 100"));
        assert!(json.contains("\"link_beats\": [10, 0, 20, 0, 0]"));
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("cycle,span,core,ops"));
        assert_eq!(
            lines.next().unwrap(),
            "100,100,0,10,1,2,3,5,10,10,0,20,0,0,4,3,6"
        );
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn mid_run_install_aligns_to_absolute_boundaries() {
        let t = Telemetry::new(100, 4, 150, counters(0, 0));
        assert_eq!(t.next_cycle(), 200, "boundaries are absolute multiples");
        let t = Telemetry::new(100, 4, 200, counters(0, 0));
        assert_eq!(t.next_cycle(), 300, "strictly after the install instant");
    }
}
