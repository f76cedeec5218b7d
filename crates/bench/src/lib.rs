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

/// Panics at the first line where `fresh` differs from the committed table
/// `file` at the repository root, naming `regen`, the command that rewrites
/// it. Lines that start (after indentation) with one of `host_keys` are not
/// compared; everything else must be equal byte for byte.
pub fn assert_matches_committed(file: &str, fresh: &str, host_keys: &[&str], regen: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let simulated = |text: &str| -> String {
        text.split_inclusive('\n')
            .map(|l| {
                let host = host_keys.iter().any(|k| l.trim_start().starts_with(k));
                if host {
                    "\n"
                } else {
                    l
                }
            })
            .collect()
    };
    let (want, got) = (simulated(&committed), simulated(fresh));
    if want == got {
        return;
    }
    let same = want
        .lines()
        .zip(got.lines())
        .take_while(|(w, g)| w == g)
        .count();
    panic!(
        "{} differs from a fresh run at line {}:\n  committed: {}\n  fresh:     {}\n\
         regenerate it with {regen}",
        path.display(),
        same + 1,
        want.lines().nth(same).unwrap_or("<end of file>"),
        got.lines().nth(same).unwrap_or("<end of file>"),
    );
}

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
