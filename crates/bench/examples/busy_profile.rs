//! Quick busy-path profiling harness for the engines.
//!
//! Runs the fig09-shaped saturated-writeback workload (all cores busy every
//! cycle — the workload where cycle skipping is useless and raw per-cycle
//! step cost dominates) under one engine and emits one machine-readable
//! JSON object on stdout. Used for before/after numbers when optimising
//! the busy path; not part of the committed benchmark protocol (see
//! `benches/simspeed.rs` for that).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p skipit-bench --example busy_profile -- \
//!     [--engine naive|wheel] [--reps N] [--cores N] \
//!     [--kib N] [--min-wall-ms N]
//! ```
//!
//! `--min-wall-ms` keeps repeating (beyond `--reps`) until the measured
//! phase has accumulated at least that much wall time, so short runs on
//! fast hosts still produce stable rates. Compile with
//! `--features profile` to populate the `"phase"` object with the wheel's
//! wall-time breakdown (all zeros otherwise).

use skipit_bench::micro;
use skipit_core::{EngineKind, SystemBuilder, PROFILE_COMPILED};
use std::time::Instant;

struct Cli {
    engine: EngineKind,
    reps: u32,
    cores: u64,
    kib: u64,
    min_wall_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: busy_profile [--engine naive|wheel] [--reps N] \
         [--cores N] [--kib N] [--min-wall-ms N]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        engine: EngineKind::ComponentWheel,
        reps: 6,
        cores: 8,
        kib: 4096,
        min_wall_ms: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--engine" => {
                cli.engine = match value().as_str() {
                    "naive" => EngineKind::Naive,
                    "wheel" => EngineKind::ComponentWheel,
                    other => {
                        eprintln!("unknown engine {other:?}");
                        usage()
                    }
                }
            }
            "--reps" => cli.reps = value().parse().unwrap_or_else(|_| usage()),
            "--cores" => cli.cores = value().parse().unwrap_or_else(|_| usage()),
            "--kib" => cli.kib = value().parse().unwrap_or_else(|_| usage()),
            "--min-wall-ms" => cli.min_wall_ms = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if cli.reps == 0 || cli.cores == 0 || cli.kib == 0 {
        usage()
    }
    cli
}

fn main() {
    let cli = parse_cli();
    let bytes = cli.kib * 1024;

    let mut sys = SystemBuilder::new()
        .cores(cli.cores as usize)
        .skip_it(true)
        .engine(cli.engine)
        .build();
    // Warm-up rep, then the measured reps; report best (least-noise) and
    // median kcycles/sec over all of them.
    micro::fig9_sample(&mut sys, cli.cores, bytes, true);
    let phase_before = sys.engine_stats().phase;

    let mut rates = Vec::new();
    let mut total_cycles = 0u64;
    let mut wall = 0.0f64;
    let t_all = Instant::now();
    while rates.len() < cli.reps as usize
        || t_all.elapsed().as_millis() < u128::from(cli.min_wall_ms)
    {
        let t0 = Instant::now();
        let cycles = micro::fig9_sample(&mut sys, cli.cores, bytes, true);
        let dt = t0.elapsed().as_secs_f64();
        total_cycles += cycles;
        wall += dt;
        rates.push(cycles as f64 / dt / 1000.0);
    }
    rates.sort_by(|a, b| a.total_cmp(b));

    let after = sys.engine_stats();
    let p = after.phase;
    let serial_ns = p.serial_ns - phase_before.serial_ns;
    let core_ns = p.core_ns - phase_before.core_ns;
    let frontend_ns = p.frontend_ns - phase_before.frontend_ns;
    let measured = serial_ns + core_ns + frontend_ns;
    let serial_fraction = if measured > 0 {
        format!("{:.4}", (serial_ns + frontend_ns) as f64 / measured as f64)
    } else {
        "null".into()
    };

    println!("{{");
    println!("  \"engine\": \"{:?}\",", cli.engine);
    println!("  \"cores\": {},", cli.cores);
    println!("  \"kib\": {},", cli.kib);
    println!("  \"reps\": {},", rates.len());
    println!(
        "  \"cycles_per_rep\": {},",
        total_cycles / rates.len() as u64
    );
    println!("  \"wall_s\": {wall:.3},");
    println!("  \"median_kcps\": {:.1},", rates[rates.len() / 2]);
    println!("  \"best_kcps\": {:.1},", rates[rates.len() - 1]);
    println!(
        "  \"component_skipped_pct\": {},",
        after
            .component_skipped_pct()
            .map_or_else(|| "null".into(), |p| format!("{p:.1}"))
    );
    println!("  \"profile_compiled\": {PROFILE_COMPILED},");
    println!("  \"phase\": {{");
    println!("    \"serial_ns\": {serial_ns},");
    println!("    \"core_ns\": {core_ns},");
    println!("    \"frontend_ns\": {frontend_ns},");
    println!("    \"serial_fraction\": {serial_fraction}");
    println!("  }}");
    println!("}}");
}
