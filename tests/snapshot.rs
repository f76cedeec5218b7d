//! Snapshot round trips on real runs, checked from the public surface: a
//! traced mid-run restore finishes as the uninterrupted run does (event
//! stream included), a warm-started sweep equals its cold twin, and the
//! bytes of every snapshot of a small perturbed run match pinned
//! constants. An L2 snapshot that names a core or a way past the L2 it is
//! decoded into is refused as corrupt.

use skipit::prelude::*;
use skipit::{prefill_snapshot, run_set_benchmark, run_set_benchmark_warm, warm_key};
use skipit::{DsKind, OptKind, PersistMode, WarmSet, WorkloadCfg};

/// Two cores storing and flushing 16 interleaved lines each, then reading
/// them back.
fn programs() -> Vec<Vec<Op>> {
    (0..2u64)
        .map(|core| {
            let line = |i: u64| 0x6000 + (core * 16 + i) * 64;
            let mut p = Vec::new();
            for i in 0..16 {
                p.push(Op::Store {
                    addr: line(i),
                    value: core << 32 | i,
                });
                p.push(Op::Flush { addr: line(i) });
            }
            p.push(Op::Fence);
            p.extend((0..16).map(|i| Op::Load { addr: line(i) }));
            p
        })
        .collect()
}

/// What the restore must reproduce: cycles, statistics, the durable words
/// and the `(cycle, order, event)` trace stream from cycle `since` on. A
/// restored system's trace starts empty with fresh per-sink sequence
/// numbers, so absolute `seq` values differ by design.
fn fingerprint(sys: &System, since: u64) -> (u64, SystemStats, Vec<u64>, Vec<String>) {
    let image = sys.durable_image();
    let words = (0..32u64)
        .map(|i| image.read_word_direct(0x6000 + i * 64))
        .collect();
    let tail = sys
        .trace_events()
        .into_iter()
        .filter(|e| e.cycle >= since)
        .map(|e| format!("{}/{}/{:?}", e.cycle, e.order, e.event))
        .collect();
    (sys.now(), sys.stats(), words, tail)
}

/// A traced 2-core run snapshotted at cycle 200, with stores in flight,
/// restores and finishes bit-identically to the uninterrupted run,
/// post-snapshot event stream included.
#[test]
fn traced_mid_run_restore_resumes_the_event_stream() {
    let trace = || TraceConfig::new().events(1 << 14);
    let mut sys = SystemBuilder::new().cores(2).skip_it(true).build();
    sys.set_trace(trace());
    let mut snap = None;
    sys.run_programs_observed(programs(), |s: &System| {
        if snap.is_none() && s.now() >= 200 {
            snap = Some(s.snapshot().expect("mid-run snapshot"));
        }
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap();
    sys.quiesce();

    let snap = snap.expect("run reached cycle 200");
    let mut resumed = System::restore(&snap, sys.config()).expect("snapshot restores");
    let restored_at = resumed.now();
    resumed.set_trace(trace()); // observers are host-side: reinstall
    resumed.resume_programs();
    resumed.quiesce();
    let replayed = fingerprint(&resumed, restored_at);
    assert!(!replayed.3.is_empty(), "no events after the snapshot");
    assert_eq!(replayed, fingerprint(&sys, restored_at));
}

/// One List fill shared by four measured update ratios.
fn set_cfg(update_pct: u32) -> WorkloadCfg {
    WorkloadCfg {
        ds: DsKind::List,
        mode: PersistMode::NvTraverse,
        opt: OptKind::SkipIt,
        threads: 2,
        key_range: 64,
        prefill: 16,
        update_pct,
        budget_cycles: 15_000,
        seed: 7,
        hash_buckets: 32,
        ..WorkloadCfg::default()
    }
}

/// The 4-point set grid, cold (each point simulates its own fill) or warm
/// (one snapshotted fill restored into every point).
fn set_grid(warm: bool) -> Sweep {
    let mut sweep = Sweep::new("set_grid").unit("ops_per_mcycle").seed(7);
    if warm {
        let fill = set_cfg(0);
        sweep = sweep.prefill(warm_key(&fill), move || {
            let ws = prefill_snapshot(&fill);
            let bytes = ws.encoded_bytes();
            WarmState::new(ws, bytes)
        });
    }
    for update_pct in [0u32, 10, 20, 50] {
        let cfg = set_cfg(update_pct);
        let point = Point::new(format!("list/{update_pct}%"), move |ctx: &PointCtx| {
            let r = if warm {
                run_set_benchmark_warm(&cfg, ctx.warm::<WarmSet>().expect("fill registered"))
            } else {
                run_set_benchmark(&cfg)
            };
            PointOutput::new()
                .with_cycles(r.cycles)
                .value("ops_per_mcycle", r.throughput())
                .value("ops", r.ops as f64)
        })
        .param("update_pct", update_pct);
        sweep.push(if warm {
            point.warm(warm_key(&cfg))
        } else {
            point
        });
    }
    sweep
}

/// A warm-started grid exports the same table as the cold grid, byte for
/// byte, and every point of both completes.
#[test]
fn warm_started_grid_matches_cold() {
    let cold = SweepRunner::serial().run(set_grid(false));
    let warm = SweepRunner::serial().run(set_grid(true));
    assert!(
        cold.all_ok() && warm.all_ok(),
        "{}{}",
        cold.table(),
        warm.table()
    );
    assert_eq!(warm.warm_sizes().len(), 1, "the four points share one fill");
    assert_eq!(cold.to_json(), warm.to_json());
}

/// FNV-1a over `bytes`, folded into `h`. Computed here rather than with
/// `DefaultHasher`, whose output Rust does not promise to keep across
/// releases.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The snapshot bytes minus the header's configuration fingerprint: that
/// varint hashes the configs' `Debug` text with `DefaultHasher`, so it is
/// neither part of the wire format nor stable across toolchains.
fn without_fingerprint(bytes: &[u8]) -> (&[u8], &[u8]) {
    let (head, rest) = bytes.split_at(4 + 1); // magic, one-byte version
    let len = rest.iter().position(|b| b & 0x80 == 0).expect("varint") + 1;
    (head, &rest[len..])
}

/// Pins the snapshot wire format: every byte of a snapshot taken at every
/// cycle of a small, perturbed, 4-core Skip It run. The programs use every
/// `Op` kind on shared lines, and the tiny caches make the run evict,
/// probe and defer through the L2's list buffer, so every codec section
/// carries live state. The naive engine executes every cycle, so the pin
/// does not move with the wheel's skipping decisions. A mismatch means the
/// encoding changed.
#[test]
fn snapshot_wire_format_is_pinned() {
    use skipit::core::{L1Config, L2Config, PerturbConfig};

    let seed = 3;
    let mut programs = Scenario::SharedLines.programs(seed, 4);
    for (core, (p, storm)) in programs
        .iter_mut()
        .zip(Scenario::FlushStorm.programs(seed, 4))
        .enumerate()
    {
        p.extend(storm.into_iter().take(40));
        let addr = 0x5_0000 + 64 * core as u64;
        p.extend([
            Op::FetchAdd { addr, operand: 3 },
            Op::Swap { addr, operand: 9 },
            Op::Nop { cycles: 5 },
            Op::Inval { addr },
            Op::Fence,
        ]);
    }
    let mut sys = SystemBuilder::new()
        .cores(4)
        .engine(EngineKind::Naive)
        .l1(L1Config {
            sets: 4,
            ways: 2,
            mshrs: 2,
            rpq_depth: 2,
            flush_queue_depth: 2,
            fshrs: 2,
            skip_it: true,
            ..L1Config::default()
        })
        .l2(L2Config {
            sets: 4,
            ways: 2,
            mshrs: 4,
            list_buffer_depth: 4,
            ..L2Config::default()
        })
        .perturb(PerturbConfig::exploring(seed))
        .build();
    let (mut count, mut total, mut hash) = (0u64, 0u64, 0xcbf2_9ce4_8422_2325u64);
    sys.run_programs_observed(programs, |s: &System| {
        let snap = s.snapshot().expect("program-mode snapshot");
        let (head, body) = without_fingerprint(snap.as_bytes());
        count += 1;
        total += (head.len() + body.len()) as u64;
        hash = fnv1a(fnv1a(hash, head), body);
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap();

    let stats = sys.stats();
    assert!(stats.l2.evictions > 0 && stats.l2.probes_sent > 0 && stats.l2.list_buffered > 0);
    assert!(stats.l1.iter().any(|l1| l1.evictions > 0));
    assert_eq!(
        (count, total, hash),
        (5325, 52_109_115, 0xe206_b266_66b2_72e7),
        "snapshot wire format changed: bump SNAPSHOT_VERSION and re-pin"
    );
}

/// The L2 section of a `cores`-core L2 whose MSHR 0 serves a read Acquire
/// of line 0x1000 from `source`, stepped until its fill waits on DRAM
/// (way 0 of the line's set reserved).
fn l2_awaiting_a_fill(cores: usize, source: usize) -> Vec<u8> {
    use skipit::core::{Dram, DramConfig, L2Config};
    use skipit_llc::{InclusiveCache, L2Ports};
    use skipit_snap::SnapWriter;
    use skipit_tilelink::{ChannelA, ChannelB, ChannelC, ChannelD, ChannelE, Grow, LineAddr, Link};

    let mut a: Vec<Link<ChannelA>> = (0..cores).map(|_| Link::new(1, 8)).collect();
    let mut b: Vec<Link<ChannelB>> = (0..cores).map(|_| Link::new(1, 8)).collect();
    let mut c: Vec<Link<ChannelC>> = (0..cores).map(|_| Link::new(1, 8)).collect();
    let mut d: Vec<Link<ChannelD>> = (0..cores).map(|_| Link::new(1, 8)).collect();
    let mut e: Vec<Link<ChannelE>> = (0..cores).map(|_| Link::new(1, 8)).collect();
    let mut mem = Dram::new(DramConfig {
        read_latency: 1000,
        ..DramConfig::default()
    });
    let mut l2 = InclusiveCache::new(cores, L2Config::default());
    a[source].push(
        0,
        ChannelA::AcquireBlock {
            source,
            addr: LineAddr::new(0x1000),
            grow: Grow::NtoB,
        },
    );
    for now in 0..20 {
        let mut ports = L2Ports {
            a: &mut a,
            b: &mut b,
            c: &mut c,
            d: &mut d,
            e: &mut e,
            mem: &mut mem,
        };
        l2.step(now, &mut ports);
    }
    assert_eq!(l2.mshr_occupancy(), 1);
    let mut w = SnapWriter::new();
    l2.encode_state(&mut w);
    w.into_bytes()
}

/// Decodes an L2 section into a fresh `cores`-core L2 of the default
/// configuration.
fn decode_l2(cores: usize, bytes: &[u8]) -> Result<(), skipit_snap::SnapError> {
    let mut l2 = skipit_llc::InclusiveCache::new(cores, skipit::core::L2Config::default());
    l2.decode_state(&mut skipit_snap::SnapReader::new(bytes))
}

/// An 8-core L2's MSHR serving core 5, restored into a 2-core L2 with the
/// same configuration, would send its Grant down a channel D link that
/// does not exist.
#[test]
fn l2_snapshot_naming_a_core_past_the_l2_is_corrupt() {
    let bytes = l2_awaiting_a_fill(8, 5);
    assert_eq!(decode_l2(8, &bytes), Ok(()));
    assert_eq!(
        decode_l2(2, &bytes),
        Err(skipit_snap::SnapError::Corrupt(
            "l2 mshr agent out of range"
        ))
    );
}

/// An L2 MSHR's reserved way past the L2's ways would alias a way of the
/// next set (or index past the array) when the fill installs.
#[test]
fn l2_snapshot_naming_a_way_past_the_array_is_corrupt() {
    use skipit_snap::{Codec, SnapWriter};
    use skipit_tilelink::{Grow, LineAddr};

    let mut bytes = l2_awaiting_a_fill(1, 0);
    assert_eq!(decode_l2(1, &bytes), Ok(()));
    // MSHR 0 as the wire format lays it out: the slot count (64), `Some`,
    // the line, `Acquire { source: 0, grow: NtoB }`, `MemReadWait` (5),
    // then no pending acks, no probe targets and the probe cap, then the
    // reserved way, `Some(0)`.
    let mut w = SnapWriter::new();
    w.put_u64(64);
    w.put_u8(1);
    LineAddr::new(0x1000).encode(&mut w);
    w.put_u8(0);
    w.put_u64(0);
    Grow::NtoB.encode(&mut w);
    w.put_u8(5);
    let slot = w.into_bytes();
    let starts: Vec<usize> = (0..bytes.len() - slot.len())
        .filter(|&i| bytes[i..].starts_with(&slot))
        .collect();
    assert_eq!(starts.len(), 1, "MSHR 0 not found in the snapshot");
    let way = starts[0] + slot.len() + 3;
    assert_eq!(bytes[way..way + 2], [1, 0], "MSHR 0 reserves way 0");
    // Way 1000, a two-byte varint.
    bytes.splice(way + 1..way + 2, [0xe8, 0x07]);
    assert_eq!(
        decode_l2(1, &bytes),
        Err(skipit_snap::SnapError::Corrupt("l2 mshr way out of range"))
    );
}
