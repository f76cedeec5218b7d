//! Shared harness for the paper's figures and the simulator-speed bench.
//!
//! The figures of the paper's evaluation (§7) are grids of
//! [`skipit_sweep::Sweep`] points ([`sweeps`]), run together by
//! [`figures::Figures`] into one deterministic table. Regenerate them with
//! `cargo bench -p skipit-bench --bench figures`, which prints each
//! figure's rows, checks the paper's shapes on them and writes
//! `BENCH_figures.json` at the repository root. `SKIPIT_BENCH_QUICK=1`
//! shrinks the Figs. 14–16 key ranges and budgets and writes
//! `BENCH_figures_quick.json` instead, the copy `tests/figure_shapes.rs`
//! compares byte for byte. EXPERIMENTS.md cites the table's keys.
//! `cargo bench -p skipit-bench --bench simspeed` measures host-side
//! simulation speed.

pub mod commercial;
pub mod figures;
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
    fn size_formatting() {
        assert_eq!(fmt_size(64), "64B");
        assert_eq!(fmt_size(32 * 1024), "32KiB");
    }
}
