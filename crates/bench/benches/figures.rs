//! Regenerates every figure of the paper's evaluation (§7).
//!
//! Runs each figure grid of `skipit_bench::sweeps` through
//! `skipit_sweep::SweepRunner` (worker threads: `SKIPIT_SWEEP_THREADS` or
//! the host's parallelism; the numbers do not depend on it), prints each
//! figure's rows, checks the paper's shapes on them, and writes the table to
//! `BENCH_figures.json` at the repository root. Any failed point or shape
//! panics before the file is written.
//!
//! `SKIPIT_BENCH_QUICK=1` shrinks the Figs. 14–16 grids and writes
//! `BENCH_figures_quick.json` instead, the table `tests/figure_shapes.rs`
//! compares byte for byte. A quick run also writes the quick service grid
//! (`skipit_bench::sweeps::service_sweep`) to `BENCH_service_quick.json`,
//! which `tests/service.rs` compares byte for byte.
//!
//! Run with `cargo bench -p skipit-bench --bench figures`.

use skipit_bench::figures::Figures;
use skipit_bench::sweeps::service_sweep;
use skipit_sweep::SweepRunner;

fn main() {
    let quick = skipit_bench::quick();
    let figures = Figures::run(quick);
    for report in figures.reports() {
        println!(
            "# {} [{} sweep workers, {:.2}s wall]",
            report.name(),
            report.threads(),
            report.wall().as_secs_f64()
        );
        print!("{}", report.table());
    }
    figures.check_shapes();
    println!("# every paper-shape check holds");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join(figures.file_name());
    std::fs::write(&path, figures.to_json()).expect("write the figure table");
    println!("# wrote {}", path.display());
    if quick {
        let service = SweepRunner::serial().run(service_sweep(true));
        assert!(service.all_ok(), "service grid has a failing point");
        let path = root.join("BENCH_service_quick.json");
        std::fs::write(&path, service.to_json()).expect("write the service table");
        println!("# wrote {}", path.display());
    }
}
