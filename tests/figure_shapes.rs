//! The paper's headline figure *shapes*, guarded as tests (quick-sized):
//! if a refactor breaks who-wins or a crossover, these fail before any
//! benchmark is run.

use skipit::pds::{run_set_benchmark, DsKind, OptKind, PersistMode, WorkloadCfg};
use skipit::prelude::*;
use skipit_bench::commercial::Machine;
use skipit_bench::micro::{
    fig10_sample, fig13_sample, fig9_sample, fig9_serialized_sample, system,
};

/// Fig. 9: eight threads write back 32 KiB several times faster than one.
#[test]
fn fig9_shape_thread_scaling() {
    let mut s1 = system(1, false);
    let mut s8 = system(8, false);
    let t1 = fig9_sample(&mut s1, 1, 32 * 1024, false);
    let t8 = fig9_sample(&mut s8, 8, 32 * 1024, false);
    let speedup = t1 as f64 / t8.max(1) as f64;
    assert!(
        speedup > 5.0,
        "8-thread speedup {speedup:.2} too low (paper: 7.2x)"
    );
    // And latency grows with size.
    let small = fig9_sample(&mut s1, 1, 64, false);
    assert!(t1 > 10 * small, "32KiB must cost far more than one line");
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

/// Fig. 10: the flush variant is substantially slower than clean.
#[test]
fn fig10_shape_clean_vs_flush() {
    let mut sc = system(1, false);
    let mut sf = system(1, false);
    let clean = fig10_sample(&mut sc, 1, 4096, true);
    let flush = fig10_sample(&mut sf, 1, 4096, false);
    let ratio = flush as f64 / clean.max(1) as f64;
    assert!(
        ratio > 1.3,
        "flush/clean ratio {ratio:.2} too small (paper: ≈2x)"
    );
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

/// Fig. 13: Skip It beats the naive flush unit on redundant writebacks,
/// and the win comes from L1 drops (not from doing less real work).
#[test]
fn fig13_shape_skipit_beats_naive() {
    let mut naive = system(1, false);
    let mut skip = system(1, true);
    let n = fig13_sample(&mut naive, 1, 2048, 10);
    let s = fig13_sample(&mut skip, 1, 2048, 10);
    assert!(
        n as f64 / s as f64 > 1.2,
        "Skip It speedup too small: naive {n}, skip {s}"
    );
    let dropped: u64 = skip.stats().l1.iter().map(|x| x.writebacks_skipped).sum();
    assert_eq!(
        dropped,
        32 * 10,
        "every redundant writeback must be dropped"
    );
    // The durable images are identical.
    assert_eq!(naive.dram().read_word_direct(0x100_0000), 0x100_0000);
    assert_eq!(skip.dram().read_word_direct(0x100_0000), 0x100_0000);
}

/// Fig. 14 (one cell, quick size): Skip It ≥ plain under the automatic
/// discipline, and the baseline non-persistent run beats both.
#[test]
fn fig14_shape_skipit_vs_plain() {
    let cfg = WorkloadCfg {
        ds: DsKind::Hash,
        mode: PersistMode::Automatic,
        threads: 2,
        key_range: 512,
        prefill: 256,
        update_pct: 5,
        budget_cycles: 50_000,
        seed: 3,
        hash_buckets: 64,
        ..WorkloadCfg::default()
    };
    let plain = run_set_benchmark(&WorkloadCfg {
        opt: OptKind::Plain,
        ..cfg
    });
    let skipit = run_set_benchmark(&WorkloadCfg {
        opt: OptKind::SkipIt,
        ..cfg
    });
    let baseline = run_set_benchmark(&WorkloadCfg {
        mode: PersistMode::None,
        opt: OptKind::Plain,
        ..cfg
    });
    assert!(
        skipit.throughput() > 1.5 * plain.throughput(),
        "skip-it {} vs plain {}",
        skipit.throughput(),
        plain.throughput()
    );
    assert!(baseline.throughput() > skipit.throughput());
}

/// §7.4 ablation shape: the Skip It advantage grows with the LLC trip cost.
#[test]
fn ablation_shape_deeper_hierarchy_helps_more() {
    let run = |access: u64| {
        let l2 = skipit::core::L2Config {
            access_latency: access,
            ..skipit::core::L2Config::default()
        };
        let mut naive = SystemBuilder::new().cores(1).l2(l2).build();
        let mut skip = SystemBuilder::new().cores(1).skip_it(true).l2(l2).build();
        let n = fig13_sample(&mut naive, 1, 2048, 10);
        let s = fig13_sample(&mut skip, 1, 2048, 10);
        n as f64 / s as f64
    };
    let shallow = run(6);
    let deep = run(48);
    assert!(
        deep > shallow + 0.3,
        "speedup must grow with trip cost: shallow {shallow:.2}, deep {deep:.2}"
    );
}
