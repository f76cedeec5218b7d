//! The paper's headline figure *shapes*, asserted on the rows of the
//! quick-sized figure table. The table is run once, shared by every test,
//! and must equal the committed `BENCH_figures_quick.json` byte for byte:
//! a change that moves any simulated figure number fails here before any
//! benchmark is run.

use skipit::prelude::*;
use skipit_bench::commercial::Machine;
use skipit_bench::figures::Figures;
use skipit_bench::micro::{fig9_sample, fig9_serialized_sample};
use std::sync::OnceLock;

/// The quick-sized figure table, run by whichever test asks first.
fn table() -> &'static Figures {
    static TABLE: OnceLock<Figures> = OnceLock::new();
    TABLE.get_or_init(|| Figures::run(true))
}

/// A fresh quick run reproduces the committed table exactly.
#[test]
fn quick_table_matches_committed_json() {
    assert_matches_committed(table(), &[]);
}

/// A fresh full-size run reproduces the committed `BENCH_figures.json` on
/// every line but the host-dependent `host_cpus` and `wall_s`, so a change
/// that moves only full-size numbers (Figs. 14–16) fails too.
#[test]
#[ignore = "runs the full-size figure table (about 33 s); `ci.sh --quick` runs it"]
fn full_table_matches_committed_json() {
    assert_matches_committed(&Figures::run(false), &["\"host_cpus\": ", "\"wall_s\": "]);
}

/// Panics at the first line where `figures` differs from its committed
/// file, outside the lines that start with one of `host_keys`.
fn assert_matches_committed(figures: &Figures, host_keys: &[&str]) {
    skipit_bench::assert_matches_committed(
        figures.file_name(),
        &figures.to_json(),
        host_keys,
        "`cargo bench -p skipit-bench --bench figures` \
         (`SKIPIT_BENCH_QUICK=1` for the quick table)",
    );
}

/// Fig. 9: eight threads write back 32 KiB several times faster than one.
#[test]
fn fig9_shape_thread_scaling() {
    table().check_fig9_thread_scaling();
}

/// The lockstep oracle at the paper's cache sizes: the serialized Fig. 9
/// run on 8 cores, every wheel jump re-executed naively and every skipped
/// slot's bound recomputed each executed cycle (a missed wake edge
/// panics), takes real jumps and ends exactly where the oracle-off run
/// does.
#[test]
fn lockstep_oracle_accepts_serialized_fig9() {
    let run = |oracle: bool| {
        let mut sys = SystemBuilder::new()
            .cores(8)
            .lockstep_oracle(oracle)
            .build();
        let cycles = fig9_serialized_sample(&mut sys, 8, 4 * 1024);
        (cycles, sys.stats(), sys.engine_stats())
    };
    let (cycles, stats, engine) = run(true);
    assert!(engine.jumps > 0, "oracle run took no jumps: {engine:?}");
    let (ref_cycles, ref_stats, _) = run(false);
    assert_eq!(cycles, ref_cycles, "oracle changed the Fig. 9 cycles");
    assert_eq!(stats, ref_stats, "oracle changed the Fig. 9 statistics");
}

/// The wheel's work on two 8-core Fig. 9 shapes, pinned as exact cycles
/// and engine counters: the dense one (the `fig09_flush_8c` benchmark's
/// inputs, two samples on one system), where every core is due almost
/// every cycle and the wheel never jumps, and the serialized 4 KiB one,
/// where most of each round trip is quiescent and the wheel jumps. A
/// host-speed change to a component must leave the schedule alone, so each
/// field is compared on its own and a failure names the one that moved.
#[test]
fn fig9_engine_work_is_pinned() {
    let mut sys = SystemBuilder::new().cores(8).build();
    let cycles: Vec<u64> = (0..2)
        .map(|_| fig9_sample(&mut sys, 8, 128 * 1024, false))
        .collect();
    let engine = sys.engine_stats();
    let mut serial_sys = SystemBuilder::new().cores(8).build();
    let serial_cycles = fig9_serialized_sample(&mut serial_sys, 8, 4 * 1024);
    let serial = serial_sys.engine_stats();
    let pins = [
        ("first sample cycles", cycles[0], 2469),
        ("second sample cycles", cycles[1], 2469),
        ("component_steps", engine.component_steps, 42_472),
        ("component_slots", engine.component_slots, 86_922),
        ("jumps", engine.jumps, 0),
        ("skipped_cycles", engine.skipped_cycles, 0),
        ("serialized cycles", serial_cycles, 1216),
        ("serialized component_steps", serial.component_steps, 1256),
        ("serialized component_slots", serial.component_slots, 10_944),
        ("serialized jumps", serial.jumps, 16),
        ("serialized skipped_cycles", serial.skipped_cycles, 791),
    ];
    for (field, got, pinned) in pins {
        assert_eq!(got, pinned, "fig9 engine work moved: {field}");
    }
}

/// Fig. 10: the flush variant is substantially slower than clean.
#[test]
fn fig10_shape_clean_vs_flush() {
    table().check_fig10_flush_over_clean();
}

/// Figs. 11/12 model shapes (the commercial substitution contract).
#[test]
fn fig11_12_shape_commercial_models() {
    // Intel clflush diverges at 4 KiB, single thread.
    assert!(Machine::IntelClflush.cycles_1t(4096) > 4.0 * Machine::IntelClflushOpt.cycles_1t(4096));
    // Graviton overtakes AMD's linear model at 32 KiB.
    assert!(
        Machine::GravitonDcCivac.cycles_1t(32 * 1024) < Machine::AmdClflush.cycles_1t(32 * 1024)
    );
    // The clflush gap narrows at eight threads.
    let g1 = Machine::IntelClflush.cycles_1t(8192) / Machine::IntelClflushOpt.cycles_1t(8192);
    let g8 = Machine::IntelClflush.cycles_8t(8192) / Machine::IntelClflushOpt.cycles_8t(8192);
    assert!(g8 < g1);
}

/// Fig. 11: Graviton is slower than the simulated SonicBOOM up to 8 KiB
/// and faster from 16 KiB on.
#[test]
fn fig11_shape_graviton_crossover() {
    table().check_fig11_graviton_crossover();
}

/// Fig. 13: Skip It beats the naive flush unit on redundant writebacks,
/// the win comes from L1 drops (not from doing less real work), and both
/// durable images hold every stored word.
#[test]
fn fig13_shape_skipit_beats_naive() {
    table().check_fig13_mechanism();
}

/// Fig. 14: Skip It ≥ both FliT variants in every automatic and
/// NVTraverse cell and > 1.5× plain in every automatic cell.
#[test]
fn fig14_shape_skipit_vs_plain() {
    table().check_fig14_skipit_vs_flit_and_plain();
}

/// Fig. 14: the non-persistent baseline tops each structure, and the BST
/// has no Link-and-Persist cells.
#[test]
fn fig14_shape_baseline_on_top() {
    table().check_fig14_baseline_and_na_cells();
}

/// Fig. 15: Skip It is within 1 % of the top of every cell and slows as
/// updates grow.
#[test]
fn fig15_shape_skipit_on_top() {
    table().check_fig15_skipit_on_top();
}

/// Fig. 16: the largest FliT table runs at most half as fast as the best.
#[test]
fn fig16_shape_falloff() {
    table().check_fig16_falloff();
}

/// §7.4 ablation shape: the Skip It advantage grows with the LLC trip cost.
#[test]
fn ablation_shape_deeper_hierarchy_helps_more() {
    table().check_ablation_deeper_hierarchy();
}

/// Every point of every figure completed within budget.
#[test]
fn every_figure_point_completes() {
    table().check_rows_ok();
}

/// Every citation in EXPERIMENTS.md (`` [`figure / label / value`] ``)
/// names a value of the committed full-size `BENCH_figures.json`, and a
/// number written right before it (an optional `cy` or `ops/Mcycle` unit
/// between them) equals that value to the decimals written.
#[test]
fn experiments_md_quotes_the_committed_table() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let json =
        std::fs::read_to_string(root.join("BENCH_figures.json")).expect("read BENCH_figures.json");
    let mut cited = 0;
    let mut pieces = doc.split("[`");
    let mut before = pieces.next().unwrap_or_default();
    for piece in pieces {
        let (citation, after) = piece.split_once("`]").expect("unclosed citation");
        let [fig, label, key]: [&str; 3] = citation
            .split(" / ")
            .collect::<Vec<_>>()
            .try_into()
            .unwrap_or_else(|_| panic!("malformed citation `{citation}`"));
        let value = table_value(&json, fig, label, key)
            .unwrap_or_else(|| panic!("`{citation}` is not in BENCH_figures.json"));
        let lead = before.trim_end();
        let lead = ["cy", "ops/Mcycle"]
            .iter()
            .find_map(|unit| lead.strip_suffix(unit))
            .unwrap_or(lead)
            .trim_end();
        let digits = lead.len()
            - lead
                .trim_end_matches(|c: char| c.is_ascii_digit() || c == '.')
                .len();
        let quoted = &lead[lead.len() - digits..];
        if !quoted.is_empty() {
            let decimals = quoted.split_once('.').map_or(0, |(_, d)| d.len());
            let actual = format!("{value:.decimals$}");
            assert_eq!(
                quoted, actual,
                "EXPERIMENTS.md quotes {quoted} for `{citation}`"
            );
        }
        cited += 1;
        before = after;
    }
    assert!(cited > 0, "EXPERIMENTS.md cites nothing");
}

/// The value `key` (`cycles` or a named value) of row `label` in figure
/// `fig` of a figure-table JSON document.
fn table_value(json: &str, fig: &str, label: &str, key: &str) -> Option<f64> {
    let figure = &json[json.find(&format!("\"{fig}\": {{"))?..];
    let row = figure
        .lines()
        .find(|l| l.contains(&format!("{{\"label\": \"{label}\",")))?;
    let field = format!("\"{key}\": ");
    let rest = &row[row.find(&field)? + field.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}
