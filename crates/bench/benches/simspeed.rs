//! Host-side simulation speed of the engines (not a paper figure).
//!
//! Runs a Fig. 9-shaped writeback microbenchmark and a Fig. 14-shaped
//! persistent-set workload under naive cycle-by-cycle stepping and the
//! component-wheel engine; reports kilo-simulated-cycles per host second
//! for each, asserts the engines agree cycle-for-cycle, and writes the
//! numbers to `BENCH_simspeed.json` at the repository root. Every section
//! records `host_cpus` so committed numbers are interpretable. A tracing
//! section (full runs only) measures the overhead of event rings,
//! Chrome-trace export, and telemetry sampling (and asserts the traced
//! modes recorded events); a
//! phase section records the wheel's wall-time breakdown (L2+DRAM, core
//! slots, frontends).
//! Phase data needs `--features profile`, whose per-cycle timers deflate
//! the throughput sections — so regeneration is two-step: run
//! `cargo bench -p skipit-bench --bench simspeed --features profile` to
//! record real phase data, then run it again without the feature; the
//! plain run restores honest throughput numbers and carries the committed
//! phase section forward instead of zeroing it.
//!
//! Every timing is the median of [`THROUGHPUT_BLOCKS`] (engine rows and
//! tracing section) or [`MEASURE_BLOCKS`] (sweep sections) repeated blocks after
//! one discarded warm-up block, and the blocks of the variants being
//! compared are interleaved round-robin rather than run back to back.
//! Single-shot sequential timings were noisy enough to report *negative*
//! tracing overheads: first-touch page faults and cold allocator state
//! land on whichever variant runs first, and slow host drift (frequency
//! scaling, noisy neighbors) biases whichever variant runs last. The
//! warm-up kills the cold-start bias, interleaving makes drift hit every
//! variant's median equally, and the median rejects one-off spikes.
//!
//! Run with `cargo bench -p skipit-bench --bench simspeed` (release; debug
//! numbers are meaningless). Environment knobs:
//!
//! - `SKIPIT_BENCH_QUICK=1` shrinks the workloads, skips the tracing
//!   section, and writes JSON only to `SKIPIT_BENCH_OUT`, never to the
//!   committed full-size file.
//! - `SKIPIT_BENCH_OUT=<path>` overrides the JSON output path.
//! - `SKIPIT_BENCH_BASELINE=<path>` compares this run's speedups against a
//!   previously committed `BENCH_simspeed.json` and exits nonzero if any
//!   workload's speedup falls below 0.8× its baseline value (the CI
//!   regression gate; 20 % headroom absorbs host noise), or if the file
//!   is a quick run's output.

use skipit_bench::micro::{fig9_sample, fig9_serialized_sample};
use skipit_bench::quick;
use skipit_bench::sweeps::{fig15_reduced_sweep, service_sweep, SERVICE_SLOS};
use skipit_core::{EngineKind, SystemBuilder, TraceConfig};
use skipit_pds::{run_set_benchmark, DsKind, OptKind, PersistMode, WorkloadCfg};
use skipit_sweep::SweepRunner;
use std::time::Instant;

/// Timed blocks per variant in the sweep sections; the reported figure is
/// the median.
const MEASURE_BLOCKS: usize = 3;

/// Timed blocks per engine per throughput row (`fig09_*`, `fig14_*`) and per
/// tracing variant. More than [`MEASURE_BLOCKS`]: these speedups gate CI,
/// and `fig09_8t_32k` runs near 1.0×, where a median of three quick-run
/// blocks spread 0.77–1.06 against a 0.88 floor on a 2-vCPU host; a quick
/// tracing block lasts a few milliseconds, and a median of three read a
/// negative telemetry overhead.
const THROUGHPUT_BLOCKS: usize = 9;

/// Median of per-block kilo-simulated-cycles-per-second figures.
fn median_kcps(mut blocks: Vec<f64>) -> f64 {
    assert!(!blocks.is_empty());
    blocks.sort_by(f64::total_cmp);
    blocks[blocks.len() / 2]
}

/// Host CPUs available to this process; every JSON section records it so
/// wall-clock figures committed from one host are interpretable on another.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Row {
    name: &'static str,
    sim_cycles: u64,
    /// Component-weighted share of per-cycle component slots the wheel
    /// engine never stepped (includes idle components inside busy cycles).
    skipped_pct: f64,
    naive_kcps: f64,
    wheel_kcps: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.wheel_kcps / self.naive_kcps.max(1e-9)
    }
}

/// The two engines every throughput row times, reference first.
const ENGINES: [EngineKind; 2] = [EngineKind::Naive, EngineKind::ComponentWheel];

/// Fig. 9 shape: dirty a region, write it back sequentially, fence.
/// `serialized` switches to the §7.2 per-op-fenced latency form of the
/// experiment (one writeback in flight at a time).
fn fig09_shaped(name: &'static str, threads: usize, size: u64, reps: u32, serialized: bool) -> Row {
    // One block = one fresh system running `reps` samples.
    let exec = |kind: EngineKind, reps: u32| {
        let mut sys = SystemBuilder::new().cores(threads).engine(kind).build();
        let wall = Instant::now();
        let samples: Vec<u64> = (0..reps)
            .map(|_| {
                if serialized {
                    fig9_serialized_sample(&mut sys, threads as u64, size)
                } else {
                    fig9_sample(&mut sys, threads as u64, size, false)
                }
            })
            .collect();
        let secs = wall.elapsed().as_secs_f64();
        (samples, sys.stats().cycles, sys.engine_stats(), secs)
    };
    for kind in ENGINES {
        exec(kind, 1); // warm-up, discarded
    }
    let mut blocks: [Vec<f64>; 2] = Default::default();
    let mut runs = Vec::new();
    for block in 0..THROUGHPUT_BLOCKS {
        // Round-robin over the engines so host drift cannot systematically
        // favor one of them.
        for (e, kind) in ENGINES.into_iter().enumerate() {
            let (samples, cycles, engine, secs) = exec(kind, reps);
            blocks[e].push(cycles as f64 / secs / 1e3);
            if block == 0 {
                runs.push((samples, cycles, engine));
            }
        }
    }
    let [naive_b, wheel_b] = blocks;
    let (wheel_samples, wheel_cycles, wheel_engine) = runs.pop().expect("wheel block");
    let (naive_samples, naive_cycles, _) = runs.pop().expect("naive block");
    assert_eq!(
        naive_samples, wheel_samples,
        "{name}: per-sample cycle counts diverge between naive and component-wheel"
    );
    assert_eq!(
        naive_cycles, wheel_cycles,
        "{name}: total cycle counts diverge between naive and component-wheel"
    );
    Row {
        name,
        sim_cycles: wheel_cycles,
        skipped_pct: wheel_engine.component_skipped_pct().unwrap_or(f64::NAN),
        naive_kcps: median_kcps(naive_b),
        wheel_kcps: median_kcps(wheel_b),
    }
}

/// Fig. 14 shape: two threads on a persistent set at 5 % updates.
fn fig14_shaped(name: &'static str, ds: DsKind, budget: u64) -> Row {
    let cfg = |engine: EngineKind| WorkloadCfg {
        ds,
        mode: PersistMode::Automatic,
        opt: OptKind::SkipIt,
        threads: 2,
        key_range: 512,
        prefill: 256,
        update_pct: 5,
        budget_cycles: budget,
        seed: 7,
        engine,
        ..WorkloadCfg::default()
    };
    for kind in ENGINES {
        run_set_benchmark(&cfg(kind)); // warm-up, discarded
    }
    let mut blocks: [Vec<f64>; 2] = Default::default();
    let mut results = Vec::new();
    for block in 0..THROUGHPUT_BLOCKS {
        // Round-robin across engines; see `fig09_shaped`.
        for (e, kind) in ENGINES.into_iter().enumerate() {
            let wall = Instant::now();
            let r = run_set_benchmark(&cfg(kind));
            let secs = wall.elapsed().as_secs_f64();
            blocks[e].push(r.stats.cycles as f64 / secs / 1e3);
            if block == 0 {
                results.push(r);
            }
        }
    }
    let [naive_b, wheel_b] = blocks;
    let wheel = results.pop().expect("wheel block");
    let naive = results.pop().expect("naive block");
    assert_eq!(
        naive.cycles, wheel.cycles,
        "{name}: measured-phase cycles diverge between naive and component-wheel"
    );
    assert_eq!(
        naive.ops, wheel.ops,
        "{name}: completed op counts diverge between naive and component-wheel"
    );
    assert_eq!(
        naive.stats, wheel.stats,
        "{name}: system statistics diverge between naive and component-wheel"
    );
    Row {
        name,
        sim_cycles: wheel.stats.cycles,
        skipped_pct: wheel.engine.component_skipped_pct().unwrap_or(f64::NAN),
        naive_kcps: median_kcps(naive_b),
        wheel_kcps: median_kcps(wheel_b),
    }
}

/// Tracing overhead on the wheel engine: the same Fig. 9 workload with the
/// event trace compiled in but off, with the ring buffers live, with a
/// Chrome-trace export after every rep, and with telemetry sampling only.
struct TraceRow {
    workload: &'static str,
    off_kcps: f64,
    ring_kcps: f64,
    export_kcps: f64,
    telemetry_kcps: f64,
}

impl TraceRow {
    fn overhead_pct(base: f64, with: f64) -> f64 {
        (base / with.max(1e-9) - 1.0) * 100.0
    }
}

fn tracing_overhead(workload: &'static str, threads: usize, size: u64, reps: u32) -> TraceRow {
    // mode 0: tracing off; 1: ring buffers on; 2: ring on + export each
    // rep; 3: telemetry sampling only (1 Ki-cycle interval, no events).
    let exec = |mode: u8, reps: u32| {
        let mut sys = SystemBuilder::new().cores(threads).build();
        match mode {
            0 => {}
            3 => sys.set_trace(TraceConfig::new().telemetry(1024)),
            _ => sys.set_trace(TraceConfig::new().events(1 << 16)),
        }
        let mut exported = String::new();
        let wall = Instant::now();
        for _ in 0..reps {
            fig9_sample(&mut sys, threads as u64, size, false);
            if mode == 2 {
                exported = sys.export_chrome_trace();
                sys.clear_event_trace();
            }
        }
        let secs = wall.elapsed().as_secs_f64();
        // An overhead row is only meaningful if the traced modes traced:
        // a build without emission sites would time three untraced runs.
        match mode {
            1 => assert!(
                !sys.trace_events().is_empty(),
                "ring mode recorded no events"
            ),
            2 => assert!(
                exported.contains(r#""ph":"X""#),
                "export mode wrote no spans"
            ),
            _ => {}
        }
        let cycles = sys.stats().cycles;
        (cycles as f64 / secs / 1e3, cycles)
    };
    for mode in 0..4u8 {
        exec(mode, 1); // warm-up, discarded
    }
    let mut blocks: [Vec<f64>; 4] = Default::default();
    let mut cycles = [0u64; 4];
    for _ in 0..THROUGHPUT_BLOCKS {
        // Round-robin across modes; see `fig09_shaped`.
        for (m, b) in blocks.iter_mut().enumerate() {
            let (kcps, c) = exec(m as u8, reps);
            b.push(kcps);
            cycles[m] = c;
        }
    }
    // Tracing observes and never steers: every variant simulates the
    // same run, so each overhead compares equal work.
    assert!(
        cycles.iter().all(|&c| c == cycles[0]),
        "tracing variants simulated different cycle counts: {cycles:?}"
    );
    let [off_b, ring_b, export_b, telemetry_b] = blocks;
    TraceRow {
        workload,
        off_kcps: median_kcps(off_b),
        ring_kcps: median_kcps(ring_b),
        export_kcps: median_kcps(export_b),
        telemetry_kcps: median_kcps(telemetry_b),
    }
}

/// Host wall-time phase breakdown of the component wheel on a saturated
/// fig09 shape (`cores` simulated cores) — where host time goes inside a
/// busy cycle. All zeros unless built with `--features profile`.
fn phase_profile(cores: usize, size: u64) -> skipit_core::PhaseProfile {
    let mut sys = SystemBuilder::new()
        .cores(cores)
        .engine(EngineKind::ComponentWheel)
        .build();
    fig9_sample(&mut sys, cores as u64, size, true); // warm-up
    let before = sys.engine_stats().phase;
    fig9_sample(&mut sys, cores as u64, size, true);
    let after = sys.engine_stats().phase;
    skipit_core::PhaseProfile {
        serial_ns: after.serial_ns - before.serial_ns,
        core_ns: after.core_ns - before.core_ns,
        frontend_ns: after.frontend_ns - before.frontend_ns,
    }
}

/// The wheel sub-object of the `"phase"` JSON section. Keys deliberately
/// avoid `"workload"`/`"speedup"` so `baseline_speedups` keeps scanning
/// correctly.
fn phase_json(p: &skipit_core::PhaseProfile) -> String {
    format!(
        "{{\"serial_ns\": {}, \"core_ns\": {}, \"frontend_ns\": {}, \
         \"serial_fraction\": {}}}",
        p.serial_ns,
        p.core_ns,
        p.frontend_ns,
        p.serial_fraction()
            .map_or("null".into(), |f| format!("{f:.4}")),
    )
}

/// Wall-clock of the reduced Fig. 15 sweep executed serially vs across the
/// sharded worker pool, plus the determinism cross-check (the two result
/// tables must export bit-identical JSON).
struct SweepWall {
    workload: &'static str,
    points: usize,
    host_cpus: usize,
    threads: usize,
    serial_secs: f64,
    parallel_secs: f64,
    identical: bool,
}

impl SweepWall {
    fn wall_speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs.max(1e-9)
    }
}

/// Times the 16-point reduced Fig. 15 grid under `SweepRunner::serial()`
/// and under a `threads`-wide pool, interleaved round-robin with one
/// discarded warm-up pair (same protocol as the engine rows). The parallel
/// speedup is bounded by the host's core count — `host_cpus` is recorded
/// alongside so a 1-CPU CI container's ≈1× is interpretable.
fn sweep_wall(threads: usize) -> SweepWall {
    let serial = SweepRunner::serial();
    let pool = SweepRunner::new().threads(threads);
    let exec = |runner: &SweepRunner| {
        let report = runner.run(fig15_reduced_sweep(false));
        assert!(
            report.all_ok(),
            "sweep wall-clock workload has a failing point"
        );
        (report.wall().as_secs_f64(), report.to_json())
    };
    exec(&serial); // warm-up, discarded
    exec(&pool);
    let mut serial_b = Vec::new();
    let mut parallel_b = Vec::new();
    let mut jsons = (String::new(), String::new());
    for _ in 0..MEASURE_BLOCKS {
        // Round-robin serial/parallel; see `fig09_shaped`.
        let (s, sj) = exec(&serial);
        let (p, pj) = exec(&pool);
        serial_b.push(s);
        parallel_b.push(p);
        jsons = (sj, pj);
    }
    serial_b.sort_by(f64::total_cmp);
    parallel_b.sort_by(f64::total_cmp);
    SweepWall {
        workload: "fig15_sweep_16pt",
        points: fig15_reduced_sweep(false).len(),
        host_cpus: host_cpus(),
        threads,
        serial_secs: serial_b[serial_b.len() / 2],
        parallel_secs: parallel_b[parallel_b.len() / 2],
        identical: jsons.0 == jsons.1,
    }
}

/// Wall-clock of the reduced Fig. 15 sweep executed cold (every point
/// simulates its own fill) vs warm-started (the grid's four distinct fills
/// are snapshotted once and shared), plus the determinism cross-check: the
/// two result tables must export bit-identical JSON, row by row.
struct WarmWall {
    name: &'static str,
    points: usize,
    fills: usize,
    host_cpus: usize,
    cold_secs: f64,
    warm_secs: f64,
    /// Total encoded bytes of the shared fill snapshots.
    warm_bytes: u64,
    identical: bool,
}

impl WarmWall {
    /// Cold wall-clock over warm wall-clock (>1 means warming wins).
    fn wall_ratio(&self) -> f64 {
        self.cold_secs / self.warm_secs.max(1e-9)
    }
}

/// Interleaved cold/warm pairs behind the warm-start wall ratio. More than
/// [`MEASURE_BLOCKS`]: the ratio gates CI, and a median of three ~1 s
/// timings swung past the gate's floor on a 2-vCPU host.
const WARM_WALL_PAIRS: usize = 9;

/// Times the 16-point reduced Fig. 15 grid cold vs warm-started, both under
/// `SweepRunner::serial()` so the comparison isolates fill sharing from
/// host parallelism. Same protocol as `sweep_wall`, with
/// [`WARM_WALL_PAIRS`] pairs: one discarded warm-up pair, then interleaved
/// pairs, medians. The warm timing includes the prefill snapshots
/// themselves — the honest campaign cost.
fn warm_wall() -> WarmWall {
    let runner = SweepRunner::serial();
    let exec = |warm: bool| {
        let report = runner.run(fig15_reduced_sweep(warm));
        assert!(
            report.all_ok(),
            "warm wall-clock workload has a failing point"
        );
        let bytes: u64 = report.warm_sizes().iter().map(|(_, b)| b).sum();
        (report.wall().as_secs_f64(), report.to_json(), bytes)
    };
    exec(false); // warm-up, discarded
    exec(true);
    let mut cold_b = Vec::new();
    let mut warm_b = Vec::new();
    let mut jsons = (String::new(), String::new());
    let mut warm_bytes = 0;
    let mut fills = 0;
    for _ in 0..WARM_WALL_PAIRS {
        let (c, cj, _) = exec(false);
        let (w, wj, bytes) = exec(true);
        cold_b.push(c);
        warm_b.push(w);
        jsons = (cj, wj);
        warm_bytes = bytes;
        fills = fig15_reduced_sweep(true).prefill_count();
    }
    cold_b.sort_by(f64::total_cmp);
    warm_b.sort_by(f64::total_cmp);
    WarmWall {
        name: "fig15_sweep_16pt",
        points: fig15_reduced_sweep(false).len(),
        fills,
        host_cpus: host_cpus(),
        cold_secs: cold_b[cold_b.len() / 2],
        warm_secs: warm_b[warm_b.len() / 2],
        warm_bytes,
        identical: jsons.0 == jsons.1,
    }
}

/// The service-frontend SLO grid: executed once serially and once across a
/// 2-thread worker pool (the determinism cross-check — the tables must be
/// bit-identical), with the serial table's SLO percentiles and goodput
/// curves recorded row by row. Unlike the engine rows these are committed
/// *results*, not host-speed figures, so single-shot wall times suffice.
struct ServiceWall {
    points: usize,
    total_requests: u64,
    host_cpus: usize,
    serial_secs: f64,
    threaded_secs: f64,
    identical: bool,
    /// Pre-rendered JSON rows of the serial table.
    grid_json: String,
}

fn service_grid(quick: bool) -> ServiceWall {
    let serial = SweepRunner::serial().run(service_sweep(quick));
    let threaded = SweepRunner::new().threads(2).run(service_sweep(quick));
    assert!(serial.all_ok(), "service grid has a failing point");
    let identical = serial.to_json() == threaded.to_json();
    let total_requests: u64 = serial
        .rows()
        .iter()
        .map(|r| r.value("requests").unwrap_or(0.0) as u64)
        .sum();
    let mut grid_json = String::new();
    for (i, row) in serial.rows().iter().enumerate() {
        let v = |name: &str| row.value(name).unwrap_or(f64::NAN);
        let param = |key: &str| {
            row.params
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .unwrap_or("?")
        };
        let mut slos = String::new();
        for slo in SERVICE_SLOS {
            slos.push_str(&format!(
                ", \"met_{slo}\": {:.4}, \"goodput_{slo}\": {:.1}",
                v(&format!("met_{slo}")),
                v(&format!("goodput_{slo}"))
            ));
        }
        grid_json.push_str(&format!(
            "      {{\"point\": \"{}\", \"skew\": {}, \"mean_gap\": {}, \"method\": \"{}\", \
             \"stress\": \"{}\", \"requests\": {:.0}, \"cycles\": {}, \"mean\": {:.1}, \
             \"p50\": {:.0}, \"p99\": {:.0}, \"p999\": {:.0}{}}}{}\n",
            row.label,
            param("skew"),
            param("mean_gap"),
            param("method"),
            param("stress"),
            v("requests"),
            row.output.cycles,
            v("mean"),
            v("p50"),
            v("p99"),
            v("p999"),
            slos,
            if i + 1 == serial.rows().len() {
                ""
            } else {
                ","
            }
        ));
    }
    ServiceWall {
        points: serial.rows().len(),
        total_requests,
        host_cpus: host_cpus(),
        serial_secs: serial.wall().as_secs_f64(),
        threaded_secs: threaded.wall().as_secs_f64(),
        identical,
        grid_json,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".into()
    }
}

/// The `"phase"` line of `SKIPIT_BENCH_BASELINE` when it is set, else of
/// the previously written output file, if one with real
/// (`profile_compiled`) data exists — see the carry-forward note in `main`.
fn committed_phase_section() -> Option<String> {
    let path = std::env::var_os("SKIPIT_BENCH_BASELINE").map_or_else(out_path, Into::into);
    let text = std::fs::read_to_string(path).ok()?;
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("\"phase\": {"))?;
    line.contains("\"profile_compiled\": true")
        .then(|| line.to_string())
}

/// Output path of the JSON report (`SKIPIT_BENCH_OUT` or the committed
/// `BENCH_simspeed.json` at the repository root).
fn out_path() -> std::path::PathBuf {
    match std::env::var("SKIPIT_BENCH_OUT") {
        Ok(p) => std::path::PathBuf::from(p),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_simspeed.json"),
    }
}

/// Extracts `(workload, speedup)` pairs from a previously written
/// `BENCH_simspeed.json` without a JSON parser: scans for
/// `"workload": "<name>"` and takes the next `"speedup": <number>`.
fn baseline_speedups(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("\"workload\": \"") {
        rest = &rest[i + "\"workload\": \"".len()..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_string();
        let Some(j) = rest.find("\"speedup\": ") else {
            break;
        };
        rest = &rest[j + "\"speedup\": ".len()..];
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

/// Extracts the committed warm-start wall ratio from a previous
/// `BENCH_simspeed.json`, if it has a `warm_sweep` section.
fn baseline_warm_wall(text: &str) -> Option<f64> {
    let i = text.find("\"warm_sweep\": {")?;
    let rest = &text[i..];
    let j = rest.find("\"warm_wall_ratio\": ")?;
    let num: String = rest[j + "\"warm_wall_ratio\": ".len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// The CI regression gate: fails the run if any workload's speedup, or the
/// warm-start wall ratio, dropped more than 20 % below the committed
/// baseline. The warm-start ratio is host-parallelism-independent (both
/// sides run serially), so it is gated on every host.
fn check_against_baseline(rows: &[Row], warm: &WarmWall, path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("SKIPIT_BENCH_BASELINE {path}: {e}"));
    if text.contains("\"quick\": true") {
        eprintln!("{path} is a quick run's output, not a simspeed baseline");
        std::process::exit(1);
    }
    let baseline = baseline_speedups(&text);
    let mut failed = false;
    match baseline_warm_wall(&text) {
        None => println!("# baseline: no warm-start wall ratio committed, skipping"),
        Some(base) => {
            let floor = base * 0.8;
            let got = warm.wall_ratio();
            if got < floor {
                eprintln!(
                    "FAIL {}: warm-start wall ratio {got:.2} is below 0.8x the \
                     baseline {base:.2} (floor {floor:.2})",
                    warm.name
                );
                failed = true;
            } else {
                println!(
                    "# baseline ok {}: warm-start wall ratio {got:.2} vs committed {base:.2}",
                    warm.name
                );
            }
        }
    }
    for r in rows {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == r.name) else {
            println!("# baseline: {} not in {path}, skipping", r.name);
            continue;
        };
        let floor = base * 0.8;
        let got = r.speedup();
        if got < floor {
            eprintln!(
                "FAIL {}: speedup {got:.2} is below 0.8x the baseline {base:.2} (floor {floor:.2})",
                r.name
            );
            failed = true;
        } else {
            println!(
                "# baseline ok {}: speedup {got:.2} vs committed {base:.2} (floor {floor:.2})",
                r.name
            );
        }
    }
    if failed {
        eprintln!("simspeed regression gate failed against {path}");
        std::process::exit(1);
    }
}

fn main() {
    let quick = quick();
    let reps = if quick { 3 } else { 10 };
    let rows = vec![
        fig09_shaped("fig09_1t_32k", 1, 32 * 1024, reps, false),
        fig09_shaped("fig09_8t_32k", 8, 32 * 1024, reps, false),
        fig09_shaped("fig09_1t_32k_serialized", 1, 32 * 1024, reps, true),
        fig14_shaped(
            "fig14_list_skipit",
            DsKind::List,
            if quick { 30_000 } else { 100_000 },
        ),
    ];

    println!("# simspeed: host kilo-simulated-cycles per second, per engine");
    println!("workload,sim_cycles,skipped_pct,naive_kcps,wheel_kcps,speedup");
    let mut entries = Vec::new();
    for r in &rows {
        println!(
            "{},{},{:.1},{:.0},{:.0},{:.2}",
            r.name,
            r.sim_cycles,
            r.skipped_pct,
            r.naive_kcps,
            r.wheel_kcps,
            r.speedup()
        );
        entries.push(format!(
            "    {{\"workload\": \"{}\", \"sim_cycles\": {}, \"skipped_pct\": {}, \
             \"naive_kcycles_per_sec\": {}, \"fast_kcycles_per_sec\": {}, \"speedup\": {}}}",
            r.name,
            r.sim_cycles,
            json_num(r.skipped_pct),
            json_num(r.naive_kcps),
            json_num(r.wheel_kcps),
            json_num(r.speedup())
        ));
    }

    // A quick tracing block lasts a few milliseconds, and quick runs read
    // telemetry overheads from -23 % to +26 % at equal simulated cycles: only
    // full runs resolve the row, so quick runs leave it out.
    let tracing_json = if quick {
        println!("# tracing overhead: measured by full runs only");
        String::new()
    } else {
        let tr = tracing_overhead("fig09_1t_32k", 1, 32 * 1024, reps);
        println!("# tracing overhead on {} (wheel engine)", tr.workload);
        println!(
            "tracing_off_kcps,ring_on_kcps,ring_plus_export_kcps,telemetry_kcps,\
             ring_overhead_pct,export_overhead_pct,telemetry_overhead_pct"
        );
        println!(
            "{:.0},{:.0},{:.0},{:.0},{:.1},{:.1},{:.1}",
            tr.off_kcps,
            tr.ring_kcps,
            tr.export_kcps,
            tr.telemetry_kcps,
            TraceRow::overhead_pct(tr.off_kcps, tr.ring_kcps),
            TraceRow::overhead_pct(tr.off_kcps, tr.export_kcps),
            TraceRow::overhead_pct(tr.off_kcps, tr.telemetry_kcps)
        );
        format!(
            "  \"tracing\": {{\"workload\": \"{}\", \"host_cpus\": {host}, \"off_kcycles_per_sec\": {}, \
             \"ring_kcycles_per_sec\": {}, \"export_kcycles_per_sec\": {}, \
             \"telemetry_kcycles_per_sec\": {}, \"ring_overhead_pct\": {}, \
             \"export_overhead_pct\": {}, \"telemetry_overhead_pct\": {}}},",
            tr.workload,
            json_num(tr.off_kcps),
            json_num(tr.ring_kcps),
            json_num(tr.export_kcps),
            json_num(tr.telemetry_kcps),
            json_num(TraceRow::overhead_pct(tr.off_kcps, tr.ring_kcps)),
            json_num(TraceRow::overhead_pct(tr.off_kcps, tr.export_kcps)),
            json_num(TraceRow::overhead_pct(tr.off_kcps, tr.telemetry_kcps)),
            host = host_cpus()
        ) + "\n"
    };

    const PHASE_CORES: usize = 8;
    let ph = phase_profile(PHASE_CORES, 32 * 1024);
    println!(
        "# engine phase profile on fig09_8t_32k (profile feature {})",
        if skipit_core::PROFILE_COMPILED {
            "on"
        } else {
            "off — all zeros"
        }
    );
    println!("engine,serial_ns,core_ns,frontend_ns,serial_fraction");
    println!(
        "wheel,{},{},{},{}",
        ph.serial_ns,
        ph.core_ns,
        ph.frontend_ns,
        ph.serial_fraction()
            .map_or("-".into(), |f| format!("{f:.4}")),
    );
    let mut phase_json = format!(
        "  \"phase\": {{\"name\": \"fig09_8t_32k\", \"profile_compiled\": {}, \
         \"host_cpus\": {}, \"sim_cores\": {}, \"wheel\": {}}},",
        skipit_core::PROFILE_COMPILED,
        host_cpus(),
        PHASE_CORES,
        phase_json(&ph),
    );
    // A non-profile build measures all-zero phases; carry the committed
    // phase section forward instead of clobbering it, so the two-step
    // regeneration recipe works: `--features profile` records real phase
    // data (its per-cycle timers deflate the throughput sections), then a
    // plain run restores honest throughput and keeps the phase section.
    if !skipit_core::PROFILE_COMPILED {
        if let Some(committed) = committed_phase_section() {
            println!("# phase: profile feature off, keeping committed phase section");
            phase_json = committed;
        }
    }

    let sw = sweep_wall(8);
    assert!(
        sw.identical,
        "sweep result tables diverge between serial and parallel execution"
    );
    println!(
        "# sharded sweep wall-clock on {} ({} points, host has {} CPUs)",
        sw.workload, sw.points, sw.host_cpus
    );
    println!("sweep_threads,serial_secs,parallel_secs,wall_speedup,identical");
    println!(
        "{},{:.3},{:.3},{:.2},{}",
        sw.threads,
        sw.serial_secs,
        sw.parallel_secs,
        sw.wall_speedup(),
        sw.identical
    );
    // Keys deliberately avoid "workload"/"speedup" so `baseline_speedups`'s
    // naive scanner keeps pairing engine rows correctly.
    let sweep_json = format!(
        "  \"sweep\": {{\"name\": \"{}\", \"points\": {}, \"host_cpus\": {}, \
         \"threads\": {}, \"serial_secs\": {}, \"parallel_secs\": {}, \
         \"wall_speedup\": {}, \"identical\": {}}},",
        sw.workload,
        sw.points,
        sw.host_cpus,
        sw.threads,
        format_args!("{:.3}", sw.serial_secs),
        format_args!("{:.3}", sw.parallel_secs),
        json_num(sw.wall_speedup()),
        sw.identical
    );

    let ww = warm_wall();
    assert!(
        ww.identical,
        "sweep result tables diverge between cold and warm-started execution"
    );
    println!(
        "# warm-started sweep wall-clock on {} ({} points sharing {} fills)",
        ww.name, ww.points, ww.fills
    );
    println!("cold_secs,warm_secs,warm_wall_ratio,warm_bytes,identical");
    println!(
        "{:.3},{:.3},{:.2},{},{}",
        ww.cold_secs,
        ww.warm_secs,
        ww.wall_ratio(),
        ww.warm_bytes,
        ww.identical
    );
    // Keys deliberately avoid "workload"/"speedup" (see the sweep section);
    // "warm_wall_ratio" is the warm-start gain the regression gate tracks.
    let warm_json = format!(
        "  \"warm_sweep\": {{\"name\": \"{}\", \"points\": {}, \"fills\": {}, \
         \"host_cpus\": {}, \"cold_secs\": {}, \"warm_secs\": {}, \
         \"warm_wall_ratio\": {}, \"warm_bytes\": {}, \"identical\": {}}},",
        ww.name,
        ww.points,
        ww.fills,
        ww.host_cpus,
        format_args!("{:.3}", ww.cold_secs),
        format_args!("{:.3}", ww.warm_secs),
        json_num(ww.wall_ratio()),
        ww.warm_bytes,
        ww.identical
    );

    let sv = service_grid(quick);
    assert!(
        sv.identical,
        "service grid tables diverge between serial and threaded execution"
    );
    println!(
        "# service SLO grid: {} points, {} total requests (host has {} CPUs)",
        sv.points, sv.total_requests, sv.host_cpus
    );
    println!("serial_secs,threaded_secs,identical");
    println!(
        "{:.3},{:.3},{}",
        sv.serial_secs, sv.threaded_secs, sv.identical
    );
    // Keys deliberately avoid "workload"/"speedup" (see the sweep section);
    // grid rows use "point" for the same reason.
    let service_json = format!(
        "  \"service\": {{\"name\": \"service_grid\", \"points\": {}, \"total_requests\": {}, \
         \"host_cpus\": {}, \"serial_secs\": {}, \"threaded_secs\": {}, \"identical\": {}, \
         \"grid\": [\n{}    ]}},",
        sv.points,
        sv.total_requests,
        sv.host_cpus,
        format_args!("{:.3}", sv.serial_secs),
        format_args!("{:.3}", sv.threaded_secs),
        sv.identical,
        sv.grid_json
    );

    let json = format!(
        "{{\n  \"bench\": \"simspeed\",\n  \"unit\": \"kilo-simulated-cycles per host second\",\n  \
         \"quick\": {},\n  \"host_cpus\": {},\n{}{}\n{}\n{}\n{}\n  \"workloads\": [\n{}\n  ]\n}}\n",
        quick,
        host_cpus(),
        tracing_json,
        phase_json,
        sweep_json,
        warm_json,
        service_json,
        entries.join(",\n")
    );
    if let Ok(path) = std::env::var("SKIPIT_BENCH_BASELINE") {
        check_against_baseline(&rows, &ww, &path);
    }
    if quick && std::env::var_os("SKIPIT_BENCH_OUT").is_none() {
        println!("# quick run: no JSON written (set SKIPIT_BENCH_OUT to keep it)");
        return;
    }
    let path = out_path();
    std::fs::write(&path, json).expect("write benchmark JSON");
    println!("# wrote {}", path.display());
}
