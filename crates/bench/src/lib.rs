//! Shared harness utilities for the figure-regeneration benches.
//!
//! Each `benches/figNN_*.rs` target reproduces one figure of the paper's
//! evaluation (§7). Run them all with `cargo bench -p skipit-bench`, or
//! one with `cargo bench -p skipit-bench --bench fig09_cbo_scaling`. Set
//! `SKIPIT_BENCH_QUICK=1` to shrink repetition counts and budgets for smoke
//! runs.
//!
//! The binaries print plot-ready series (one CSV-ish line per point) plus a
//! human-readable summary comparing the measured shape against what the
//! paper reports; EXPERIMENTS.md records the mapping.

pub mod commercial;
pub mod micro;
pub mod sweeps;
pub mod traces;

/// Whether quick mode is requested (`SKIPIT_BENCH_QUICK=1`).
pub fn quick() -> bool {
    std::env::var("SKIPIT_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Writeback sizes swept by Figs. 9–13: 64 B … 32 KiB, powers of two.
pub fn size_sweep() -> Vec<u64> {
    (0..=9).map(|i| 64u64 << i).collect()
}

/// Median of a sample set.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &mut [u64]) -> u64 {
    assert!(!samples.is_empty(), "median of empty sample set");
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Population standard deviation.
pub fn stddev(samples: &[u64]) -> f64 {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<u64>() as f64 / n;
    (samples
        .iter()
        .map(|&s| (s as f64 - mean).powi(2))
        .sum::<f64>()
        / n)
        .sqrt()
}

/// Formats a byte count the way the paper's x-axes do.
pub fn fmt_size(bytes: u64) -> String {
    if bytes >= 1024 {
        format!("{}KiB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_64b_to_32kib() {
        let s = size_sweep();
        assert_eq!(s.first(), Some(&64));
        assert_eq!(s.last(), Some(&(32 * 1024)));
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn median_and_stddev() {
        let mut v = [5, 1, 9, 3, 7];
        assert_eq!(median(&mut v), 5);
        assert!(stddev(&[2, 2, 2]).abs() < 1e-9);
        assert!(stddev(&[1, 3]) > 0.9);
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(64), "64B");
        assert_eq!(fmt_size(32 * 1024), "32KiB");
    }
}
