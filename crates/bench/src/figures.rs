//! Every figure of the paper's evaluation (§7) as one deterministic table,
//! and the paper's shapes checked on its rows.
//!
//! Every number in the table is simulated, so it is the same on any host
//! and at any worker-thread count. Figs. 11 and 12 have no grid of their
//! own: their SonicBOOM columns are Fig. 9's 1- and 8-thread rows, and
//! their commercial columns are the closed-form models of
//! [`crate::commercial`]. The `figures` bench runs every `check_*` through
//! [`Figures::check_shapes`]; `tests/figure_shapes.rs` runs each alone.

use crate::commercial::Machine;
use crate::micro::region_lines;
use crate::size_sweep;
use crate::sweeps::{
    ablation_sweep, fig10_sweep, fig13_sweep, fig14_label, fig14_sweep, fig15_label, fig15_sweep,
    fig16_sweep, fig9_sweep, micro_label,
};
use skipit_pds::DsKind;
use skipit_sweep::{SweepReport, SweepRow, SweepRunner};
use std::fmt::Write as _;

// Figure (sweep) names: the keys of the JSON table's `figures` object.
const FIG9: &str = "fig09_cbo_scaling";
const FIG10: &str = "fig10_clean_vs_flush";
const FIG13: &str = "fig13_skipit_micro";
const FIG14: &str = "fig14_pds_throughput";
const FIG15: &str = "fig15_update_sweep";
const FIG16: &str = "fig16_flit_size";
const ABLATION: &str = "ablation_flush_unit";

/// The executed figure table.
#[derive(Debug)]
pub struct Figures {
    quick: bool,
    reports: Vec<SweepReport>,
}

impl Figures {
    /// Runs every figure grid in figure order, each across the runner's
    /// worker threads (`SKIPIT_SWEEP_THREADS` or the host's parallelism;
    /// the table does not depend on it). `quick` shrinks the Figs. 14–16
    /// key ranges and budgets; the other grids are the same at both sizes.
    pub fn run(quick: bool) -> Self {
        let runner = SweepRunner::new();
        let sweeps = [
            fig9_sweep(),
            fig10_sweep(),
            fig13_sweep(),
            fig14_sweep(quick),
            fig15_sweep(quick),
            fig16_sweep(quick),
            ablation_sweep(),
        ];
        let reports = sweeps.into_iter().map(|s| runner.run(s)).collect();
        Figures { quick, reports }
    }

    /// The per-figure reports, in figure order.
    pub fn reports(&self) -> &[SweepReport] {
        &self.reports
    }

    /// The report of the figure named `name` (panics if there is none).
    fn figure(&self, name: &str) -> &SweepReport {
        self.reports
            .iter()
            .find(|r| r.name() == name)
            .unwrap_or_else(|| panic!("no figure {name}"))
    }

    /// The file the table is committed as, at the repository root.
    pub fn file_name(&self) -> &'static str {
        if self.quick {
            "BENCH_figures_quick.json"
        } else {
            "BENCH_figures.json"
        }
    }

    /// The table as one JSON document: each figure's
    /// [`SweepReport::to_json`] under its name. The full-size table also
    /// records `host_cpus` and each figure's sweep wall time (`wall_s`);
    /// the quick one holds only simulated values, so its bytes are stable.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"bench\": \"figures\",\n  \"quick\": {},\n",
            self.quick
        );
        if !self.quick {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            let walls: Vec<String> = self
                .reports
                .iter()
                .map(|r| format!("\"{}\": {:.3}", r.name(), r.wall().as_secs_f64()))
                .collect();
            let _ = writeln!(out, "  \"host_cpus\": {cpus},");
            let _ = writeln!(out, "  \"wall_s\": {{{}}},", walls.join(", "));
        }
        out.push_str("  \"figures\": {\n");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let body = r.to_json().trim_end().replace('\n', "\n    ");
            let _ = write!(out, "    \"{}\": {body}", r.name());
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Every shape check, in figure order; panics at the first that fails.
    pub fn check_shapes(&self) {
        self.check_rows_ok();
        self.check_fig9_thread_scaling();
        self.check_fig10_flush_over_clean();
        self.check_fig11_graviton_crossover();
        self.check_fig13_mechanism();
        self.check_fig14_skipit_vs_flit_and_plain();
        self.check_fig14_baseline_and_na_cells();
        self.check_fig15_skipit_on_top();
        self.check_fig16_falloff();
        self.check_ablation_deeper_hierarchy();
    }

    /// Every point of every figure completed.
    pub fn check_rows_ok(&self) {
        let failed: Vec<String> = self
            .reports
            .iter()
            .flat_map(|r| r.failed_rows().map(move |row| (r.name(), row)))
            .map(|(fig, row)| format!("{fig} {}: {:?}", row.label, row.status))
            .collect();
        assert!(failed.is_empty(), "failed points:\n{}", failed.join("\n"));
    }

    /// Fig. 9: eight threads write back 32 KiB more than 5× faster than
    /// one (paper: 7.2×), and 32 KiB costs far more than one line.
    pub fn check_fig9_thread_scaling(&self) {
        let c = |t, size| self.cycles(FIG9, &micro_label(t, size, "flush"));
        let speedup = c(1, 32 * 1024) / c(8, 32 * 1024);
        assert!(speedup > 5.0, "8-thread speedup {speedup:.2} (paper: 7.2x)");
        assert!(c(1, 32 * 1024) > 10.0 * c(1, 64), "32 KiB vs one line");
    }

    /// Fig. 10: averaged over every size and thread count, the flush
    /// sequence is more than 1.5× slower than the clean one (paper: ≈2×).
    pub fn check_fig10_flush_over_clean(&self) {
        let ratios: Vec<f64> = self
            .figure(FIG10)
            .rows()
            .iter()
            .filter_map(|r| r.label.strip_suffix("/clean"))
            .map(|cell| {
                self.cycles(FIG10, &format!("{cell}/flush"))
                    / self.cycles(FIG10, &format!("{cell}/clean"))
            })
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean > 1.5, "mean flush/clean {mean:.2} (paper: ≈2x)");
    }

    /// Fig. 11: the modeled Graviton `dccivac` is slower than the
    /// simulated single-thread CBO.FLUSH up to 8 KiB and faster from
    /// 16 KiB on.
    pub fn check_fig11_graviton_crossover(&self) {
        for size in size_sweep() {
            let boom = self.cycles(FIG9, &micro_label(1, size, "flush"));
            let graviton = Machine::GravitonDcCivac.cycles_1t(size);
            let slower = size <= 8 * 1024;
            assert_eq!(graviton > boom, slower, "{size} B: {graviton} vs {boom}");
        }
    }

    /// Fig. 13: Skip It is more than 1.2× faster than the naive flush unit
    /// in every cell, because it drops exactly the 10 redundant writebacks
    /// of every line at the L1 (the naive unit drops none) while DRAM
    /// receives the same writes. That every stored word is durable is
    /// checked inside each point (a lost word is an error row).
    pub fn check_fig13_mechanism(&self) {
        for threads in [1u64, 8] {
            for size in size_sweep().into_iter().filter(|s| s / 64 >= threads) {
                let lines: usize = (0..threads)
                    .map(|t| region_lines(t, threads, size).count())
                    .sum();
                let naive = micro_label(threads, size, "naive");
                let skip = micro_label(threads, size, "skip-it");
                let v = |label: &str, key| self.value(FIG13, label, key);
                assert_eq!(v(&skip, "l1_skipped"), 10.0 * lines as f64, "{skip}");
                assert_eq!(v(&naive, "l1_skipped"), 0.0, "{naive}");
                assert_eq!(v(&skip, "dram_writes"), v(&naive, "dram_writes"), "{skip}");
                let speedup = self.cycles(FIG13, &naive) / self.cycles(FIG13, &skip);
                assert!(speedup > 1.2, "{skip}: speedup {speedup:.2}");
            }
        }
    }

    /// Fig. 14: in every automatic and NVTraverse cell Skip It is at or
    /// above both FliT variants, and in every automatic cell it is more
    /// than 1.5× plain.
    pub fn check_fig14_skipit_vs_flit_and_plain(&self) {
        for ds in DsKind::ALL {
            for mode in ["automatic", "nvtraverse"] {
                let t = |method| self.ops(FIG14, &fig14_label(ds, mode, method));
                let skip = t("skip-it");
                for flit in ["flit-adjacent", "flit-hash"] {
                    assert!(skip >= t(flit), "{mode} {ds:?}: {skip} vs {flit}");
                }
                let plain = t("plain");
                assert!(
                    mode != "automatic" || skip > 1.5 * plain,
                    "{ds:?}: {skip} vs {plain}"
                );
            }
        }
    }

    /// Fig. 14: each structure's non-persistent baseline is its highest
    /// row, and Link-and-Persist has no BST cells (it does not apply).
    pub fn check_fig14_baseline_and_na_cells(&self) {
        let fig = self.figure(FIG14);
        for ds in DsKind::ALL {
            let baseline_label = fig14_label(ds, "none", "baseline");
            let baseline = self.ops(FIG14, &baseline_label);
            let prefix = format!("{}/", ds.name());
            for row in fig.rows().iter().filter(|r| r.label.starts_with(&prefix)) {
                let t = self.ops(FIG14, &row.label);
                assert!(
                    row.label == baseline_label || baseline > t,
                    "{}: {t}",
                    row.label
                );
            }
            for mode in ["automatic", "nvtraverse", "manual"] {
                let lap = fig.get(&fig14_label(ds, mode, "link-and-persist"));
                assert_eq!(lap.is_none(), ds == DsKind::Bst, "{} {mode}", ds.name());
            }
        }
    }

    /// Fig. 15: in every structure × update-ratio cell Skip It is within
    /// 1 % of the best method (on the list several methods tie within a
    /// fraction of a percent, so a strict "on top" would flip on one
    /// simulated cycle), and its throughput at 50 % updates is below its
    /// throughput at 0 %.
    pub fn check_fig15_skipit_on_top(&self) {
        let fig = self.figure(FIG15);
        for ds in DsKind::ALL {
            let skip = |pct| self.ops(FIG15, &fig15_label(ds, pct, "skip-it"));
            for pct in [0u32, 5, 20, 50] {
                let cell = format!("{}/{pct}%/", ds.name());
                for row in fig.rows().iter().filter(|r| r.label.starts_with(&cell)) {
                    let other = self.ops(FIG15, &row.label);
                    assert!(
                        skip(pct) >= 0.99 * other,
                        "{}: {other} vs {}",
                        row.label,
                        skip(pct)
                    );
                }
            }
            assert!(
                skip(50) < skip(0),
                "{ds:?}: {} at 50 % vs {} at 0 %",
                skip(50),
                skip(0)
            );
        }
    }

    /// Fig. 16: the largest FliT table runs at most half as fast as the
    /// best one.
    pub fn check_fig16_falloff(&self) {
        let rows = self.figure(FIG16).rows();
        let t: Vec<f64> = rows.iter().map(|r| self.ops(FIG16, &r.label)).collect();
        let (best, largest) = (t.iter().cloned().fold(0.0, f64::max), t[t.len() - 1]);
        assert!(
            largest <= best / 2.0,
            "largest table {largest} vs best {best}"
        );
    }

    /// Ablation (§7.4's deeper-hierarchy prediction): Skip It's Fig. 13
    /// speedup grows with every step of the LLC access latency, by more
    /// than 0.3 from 6 to 48 cycles.
    pub fn check_ablation_deeper_hierarchy(&self) {
        let speedup = |access: u64| {
            self.cycles(ABLATION, &format!("llc_access/{access}/naive"))
                / self.cycles(ABLATION, &format!("llc_access/{access}/skip-it"))
        };
        let s: Vec<f64> = [6, 12, 24, 48, 96].into_iter().map(speedup).collect();
        assert!(s.windows(2).all(|w| w[1] > w[0]), "speedups {s:?}");
        assert!(speedup(48) > speedup(6) + 0.3, "speedups {s:?}");
    }

    /// The completed row `label` of figure `fig`.
    fn row(&self, fig: &str, label: &str) -> &SweepRow {
        let row = self
            .figure(fig)
            .get(label)
            .unwrap_or_else(|| panic!("{fig} has no row {label}"));
        assert!(row.is_ok(), "{fig} {label}: {:?}", row.status);
        row
    }

    /// The measured cycles of a row.
    fn cycles(&self, fig: &str, label: &str) -> f64 {
        self.row(fig, label).output.cycles as f64
    }

    /// A named value of a row.
    fn value(&self, fig: &str, label: &str, key: &str) -> f64 {
        self.row(fig, label)
            .value(key)
            .unwrap_or_else(|| panic!("{fig} {label} has no value {key}"))
    }

    /// The ops/Mcycle of a persistent-set row.
    fn ops(&self, fig: &str, label: &str) -> f64 {
        self.value(fig, label, "ops_per_mcycle")
    }
}
