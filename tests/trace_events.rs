//! System-wide event tracing, checked end to end: FSHR FSM event legality
//! against the paper's Fig. 7 transition relation, engine invariance of the
//! event stream, and the exporters.

use proptest::prelude::*;
use skipit::core::{StreamEvent, TraceEvent};
use skipit::prelude::*;
use std::collections::{HashMap, HashSet};

/// A flush-heavy two-core workload: contended stores, every CBO kind,
/// fences, and idle gaps for the fast engine to skip.
fn flush_heavy_programs() -> Vec<Vec<Op>> {
    let line = |i: u64| 0x2_0000 + i * 64;
    let mut p0 = Vec::new();
    for i in 0..12 {
        p0.push(Op::Store {
            addr: line(i),
            value: i + 1,
        });
    }
    for i in 0..12 {
        p0.push(if i % 3 == 0 {
            Op::Flush { addr: line(i) }
        } else {
            Op::Clean { addr: line(i) }
        });
    }
    p0.push(Op::Fence);
    p0.push(Op::Nop { cycles: 300 });
    p0.push(Op::Clean { addr: line(0) });
    p0.push(Op::Fence);
    let mut p1 = vec![Op::Nop { cycles: 23 }];
    for i in 0..12 {
        p1.push(Op::Store {
            addr: line(i),
            value: 100 + i,
        });
        if i % 4 == 0 {
            p1.push(Op::Flush { addr: line(i) });
        }
    }
    p1.push(Op::Inval { addr: line(11) });
    p1.push(Op::Fence);
    vec![p0, p1]
}

/// The Fig. 7 transition relation (state names as the trace events render
/// them).
fn legal_transition(from: &str, to: &str) -> bool {
    matches!(
        (from, to),
        ("free", "meta_write")
            | ("free", "root_release")
            | ("meta_write", "fill_buffer")
            | ("meta_write", "root_release")
            | ("fill_buffer", "root_release_data")
            | ("root_release_data", "root_release_ack")
            | ("root_release", "root_release_ack")
            | ("root_release_ack", "free")
    )
}

#[test]
fn fshr_event_sequences_follow_fig7() {
    let mut sys = SystemBuilder::new().cores(2).build();
    sys.set_trace(TraceConfig::new().events(1 << 16));
    sys.run(Programs(flush_heavy_programs()));
    sys.quiesce();
    let events = sys.trace_events();
    assert_eq!(sys.trace_events_dropped(), 0, "ring buffers overflowed");

    // Chain the transitions per (core, fshr): no state may be skipped, and
    // an FSHR returns to `free` only through the ack (completion) edge.
    let mut state: HashMap<(usize, usize), &'static str> = HashMap::new();
    let mut transitions = 0u64;
    for se in &events {
        if let TraceEvent::FshrTransition {
            core,
            fshr,
            from,
            to,
            ..
        } = se.event
        {
            transitions += 1;
            let cur = state.entry((core, fshr)).or_insert("free");
            assert_eq!(
                *cur, from,
                "core {core} fshr {fshr}: event leaves state {from:?} but the \
                 FSHR was last seen in {cur:?}"
            );
            assert!(
                legal_transition(from, to),
                "core {core} fshr {fshr}: illegal Fig. 7 transition {from:?} -> {to:?}"
            );
            assert!(
                to != "free" || from == "root_release_ack",
                "core {core} fshr {fshr}: reached free from {from:?}, not via the ack"
            );
            *cur = to;
        }
    }
    assert!(
        transitions > 0,
        "flush-heavy run emitted no FSHR transitions"
    );
    for ((core, fshr), s) in state {
        assert_eq!(
            s, "free",
            "core {core} fshr {fshr} left in {s:?} after quiesce"
        );
    }
}

fn event_run(engine: EngineKind, progs: Vec<Vec<Op>>) -> Vec<StreamEvent> {
    let mut sys = SystemBuilder::new().cores(2).engine(engine).build();
    sys.set_trace(TraceConfig::new().events(1 << 16));
    sys.run(Programs(progs));
    sys.quiesce();
    sys.trace_events()
        .into_iter()
        .filter(|se| !se.event.is_engine_event())
        .collect()
}

#[test]
fn event_stream_is_engine_invariant_on_flush_heavy_run() {
    let naive = event_run(EngineKind::Naive, flush_heavy_programs());
    let fast = event_run(EngineKind::ComponentWheel, flush_heavy_programs());
    assert!(!naive.is_empty());
    assert_eq!(naive, fast, "event streams diverge between engines");
}

#[test]
fn fast_engine_emits_jump_markers() {
    let mut sys = SystemBuilder::new()
        .cores(2)
        .engine(EngineKind::ComponentWheel)
        .build();
    sys.set_trace(TraceConfig::new().events(1 << 16));
    sys.run(Programs(flush_heavy_programs()));
    let jumps: Vec<_> = sys
        .trace_events()
        .into_iter()
        .filter(|se| se.event.is_engine_event())
        .collect();
    assert_eq!(
        jumps.len() as u64,
        sys.engine_stats().jumps,
        "one FastForwardJump marker per counted jump"
    );
    for se in &jumps {
        let TraceEvent::FastForwardJump { from, to, .. } = se.event else {
            panic!("engine sink carried a non-jump event: {:?}", se.event);
        };
        assert!(from < to, "jump {from} -> {to} goes backwards");
    }
}

#[test]
fn chrome_export_contains_fshr_and_tilelink_spans() {
    let mut sys = SystemBuilder::new().cores(2).build();
    sys.set_trace(TraceConfig::new().events(1 << 16));
    sys.run(Programs(flush_heavy_programs()));
    sys.quiesce();
    let json = sys.export_chrome_trace();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains(r#""ph":"X""#), "no duration events");
    assert!(
        json.contains(r#""name":"root_release_ack""#) || json.contains(r#""name":"root_release""#),
        "no FSHR state spans in export"
    );
    assert!(
        json.contains(r#""name":"RootRelease"#),
        "no TileLink RootRelease spans in export"
    );
    assert!(
        json.contains(r#""name":"thread_name""#) && json.contains(r#""name":"core 1""#),
        "missing track metadata"
    );
    let text = sys.export_text_trace();
    assert!(text.lines().count() > 100);
    assert!(text.contains("fshr"), "text dump lacks FSHR lines");
}

/// Generator for short random per-core programs over a small line pool.
fn op_strategy() -> impl Strategy<Value = Op> {
    let addr = |line: u8, word: u8| 0x6_0000 + line as u64 * 64 + word as u64 * 8;
    prop_oneof![
        (0..8u8, 0..4u8, 1..u16::MAX).prop_map(move |(l, w, v)| Op::Store {
            addr: addr(l, w),
            value: v as u64,
        }),
        (0..8u8, 0..4u8).prop_map(move |(l, w)| Op::Load { addr: addr(l, w) }),
        (0..8u8).prop_map(move |l| Op::Clean { addr: addr(l, 0) }),
        (0..8u8).prop_map(move |l| Op::Flush { addr: addr(l, 0) }),
        (0..8u8).prop_map(move |l| Op::Inval { addr: addr(l, 0) }),
        Just(Op::Fence),
        (1..150u8).prop_map(|c| Op::Nop { cycles: c as u64 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// The headline invariant: on random multicore programs the emitted
    /// event stream (modulo fast-forward jump markers) is identical between
    /// the naive and fast-forward engines.
    #[test]
    fn random_programs_emit_identical_event_streams(
        p0 in prop::collection::vec(op_strategy(), 1..40),
        p1 in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let progs = vec![p0, p1];
        let naive = event_run(EngineKind::Naive, progs.clone());
        let fast = event_run(EngineKind::ComponentWheel, progs);
        prop_assert_eq!(naive, fast);
    }
}

/// Pins the track each event source is harvested from: `order` is 0 for
/// the engine, `1 + 8c + k` for core `c`'s LSU (k = 0), L1 (1), flush unit
/// (2) and links A–E (3–7), then the L2 and DRAM after the last core.
#[test]
fn event_order_follows_the_track_enumeration() {
    let mut sys = SystemBuilder::new()
        .cores(2)
        .engine(EngineKind::ComponentWheel)
        .build();
    sys.set_trace(TraceConfig::new().events(1 << 16));
    sys.run(Programs(flush_heavy_programs()));
    sys.quiesce();
    let events = sys.trace_events();
    assert_eq!(sys.trace_events_dropped(), 0, "ring buffers overflowed");
    let track = |c: usize, k: u32| 1 + 8 * c as u32 + k;
    let (l2, dram) = (17, 18);
    let mut seen = HashSet::new();
    for se in &events {
        let want = match se.event {
            TraceEvent::FastForwardJump { .. } => 0,
            TraceEvent::FenceStallBegin { core, .. } | TraceEvent::FenceStallEnd { core, .. } => {
                track(core, 0)
            }
            TraceEvent::L1MshrAlloc { core, .. }
            | TraceEvent::L1MshrFree { core, .. }
            | TraceEvent::FlushEnqueue { core, .. } => track(core, 1),
            TraceEvent::FshrTransition { core, .. } => track(core, 2),
            TraceEvent::TlBegin { channel, core, .. } | TraceEvent::TlEnd { channel, core, .. } => {
                track(core, 3 + (channel as u32 - 'A' as u32))
            }
            TraceEvent::L2MshrAlloc { .. }
            | TraceEvent::L2MshrFree { .. }
            | TraceEvent::DramWriteSkipped { .. } => l2,
            TraceEvent::DramRead { .. } | TraceEvent::DramWrite { .. } => dram,
            _ => continue,
        };
        assert_eq!(se.order, want, "{} came from track {}", se.event, se.order);
        seen.insert(want);
    }
    // Every source kind carried traffic on some core, as did the engine,
    // the L2 and DRAM, so the test covers the whole enumeration.
    for k in 0..8 {
        assert!(
            (0..2).any(|c| seen.contains(&track(c, k))),
            "no per-core event of kind {k}"
        );
    }
    for order in [0, l2, dram] {
        assert!(seen.contains(&order), "no event on track {order}");
    }
}
