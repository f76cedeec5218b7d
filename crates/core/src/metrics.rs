//! Flat metrics registry: every counter the simulator keeps — per-core
//! [`L1Stats`], [`L2Stats`], DRAM, per-channel link pushes, the
//! fast-forward [`EngineStats`] and (when op tracing is on) the per-op-kind
//! latency percentiles — snapshotted into one key→value document that can
//! be diffed across phases and rendered as a single JSON object.
//!
//! Keys are dotted paths (`"l1.0.writebacks_skipped"`, `"link.c.1.pushed"`,
//! `"latency.flush.p99"`), sorted, so two snapshots of the same system
//! always enumerate the same keys in the same order.
//!
//! [`L1Stats`]: skipit_dcache::L1Stats
//! [`L2Stats`]: skipit_llc::L2Stats
//! [`EngineStats`]: skipit_boom::EngineStats

use skipit_boom::System;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One flat snapshot of every simulator counter, keyed by dotted path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Captures every stats struct of `sys` into one flat snapshot.
    pub fn capture(sys: &System) -> Self {
        let mut e = BTreeMap::new();
        let stats = sys.stats();
        e.insert("cycles".to_string(), stats.cycles);
        for (i, l1) in stats.l1.iter().enumerate() {
            for (field, value) in l1.fields() {
                e.insert(format!("l1.{i}.{field}"), value);
            }
        }
        for (field, value) in stats.l2.fields() {
            e.insert(format!("l2.{field}"), value);
        }
        for (field, value) in stats.mem.fields() {
            e.insert(format!("dram.{field}"), value);
        }
        let engine = sys.engine_stats();
        e.insert("engine.skipped_cycles".to_string(), engine.skipped_cycles);
        e.insert("engine.jumps".to_string(), engine.jumps);
        e.insert("engine.component_steps".to_string(), engine.component_steps);
        e.insert("engine.component_slots".to_string(), engine.component_slots);
        for core in 0..sys.config().cores {
            for ch in ['A', 'B', 'C', 'D', 'E'] {
                let ch_lower = ch.to_ascii_lowercase();
                e.insert(
                    format!("link.{ch_lower}.{core}.pushed"),
                    sys.link_pushed(ch, core),
                );
                e.insert(
                    format!("link.{ch_lower}.{core}.popped"),
                    sys.link_popped(ch, core),
                );
            }
        }
        for (kind, h) in sys.latency_histograms() {
            e.insert(format!("latency.{kind}.count"), h.count());
            e.insert(format!("latency.{kind}.sum"), h.sum());
            for (p, v) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
                if let Some(v) = v {
                    e.insert(format!("latency.{kind}.{p}"), v);
                }
            }
        }
        MetricsSnapshot { entries: e }
    }

    /// The sorted key→value pairs.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Value of one key.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries.get(key).copied()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Per-key saturating difference `self - earlier` — what happened
    /// between two snapshots. Keys missing from `earlier` count from zero.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .map(|(k, &v)| {
                    let before = earlier.get(k).unwrap_or(0);
                    (k.clone(), v.saturating_sub(before))
                })
                .collect(),
        }
    }

    /// Renders the snapshot as one flat JSON object with sorted keys.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n  \"{k}\": {v}");
        }
        out.push_str("\n}");
        out
    }
}

/// Named snapshots of one run: capture at phase boundaries, diff phases
/// against each other, render everything as one JSON document.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    snapshots: BTreeMap<String, MetricsSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures the current counters of `sys` under `name` (replacing any
    /// previous snapshot of that name).
    pub fn snapshot(&mut self, name: &str, sys: &System) -> &MetricsSnapshot {
        self.snapshots
            .insert(name.to_string(), MetricsSnapshot::capture(sys));
        &self.snapshots[name]
    }

    /// A stored snapshot.
    pub fn get(&self, name: &str) -> Option<&MetricsSnapshot> {
        self.snapshots.get(name)
    }

    /// Difference `to - from` between two stored snapshots, when both exist.
    pub fn diff(&self, from: &str, to: &str) -> Option<MetricsSnapshot> {
        Some(self.snapshots.get(to)?.diff(self.snapshots.get(from)?))
    }

    /// Renders every stored snapshot as one JSON document
    /// (`{"name": {flat object}, …}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, snap)) in self.snapshots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let body = snap.to_json().replace('\n', "\n  ");
            let _ = write!(out, "\n  \"{name}\": {body}");
        }
        out.push_str("\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;
    use skipit_boom::{Op, Programs};

    #[test]
    fn capture_diff_and_json() {
        let mut sys = SystemBuilder::new().cores(1).build();
        sys.set_trace(skipit_trace::TraceConfig::new().latency(1024));
        let mut reg = MetricsRegistry::new();
        reg.snapshot("start", &sys);
        sys.run(Programs(vec![vec![
            Op::Store {
                addr: 0x1000,
                value: 1,
            },
            Op::Flush { addr: 0x1000 },
            Op::Fence,
        ]]));
        reg.snapshot("end", &sys);
        let d = reg.diff("start", "end").expect("both snapshots exist");
        assert_eq!(d.get("l1.0.stores"), Some(1));
        assert_eq!(d.get("l1.0.writebacks_enqueued"), Some(1));
        assert_eq!(d.get("dram.writes"), Some(1));
        assert!(d.get("cycles").unwrap() > 0);
        assert!(
            d.get("link.a.0.pushed").unwrap() > 0,
            "the store must have sent an Acquire"
        );
        assert_eq!(d.get("latency.flush.count"), Some(1));
        let json = reg.to_json();
        assert!(json.contains("\"end\""));
        assert!(json.contains("\"l2.acquires\""));
        // Same-system snapshots enumerate identical key sets.
        let keys: Vec<&str> = reg
            .get("start")
            .unwrap()
            .entries()
            .map(|(k, _)| k)
            .collect();
        let keys_end: Vec<&str> = d.entries().map(|(k, _)| k).collect();
        let missing: Vec<&&str> = keys.iter().filter(|k| !keys_end.contains(k)).collect();
        assert!(missing.is_empty(), "start-only keys: {missing:?}");
    }

    #[test]
    fn diff_across_disjoint_key_sets() {
        // Snapshots of differently-shaped systems (1 vs 2 cores) have
        // disjoint per-core keys: `diff` keeps `self`'s key set, counts
        // keys missing from `earlier` from zero, and never underflows on
        // keys where `earlier` is ahead.
        let one = MetricsSnapshot::capture(&SystemBuilder::new().cores(1).build());
        let mut two = SystemBuilder::new().cores(2).build();
        two.run(Programs(vec![
            vec![Op::Store {
                addr: 0x2000,
                value: 9,
            }],
            vec![],
        ]));
        let two = MetricsSnapshot::capture(&two);
        assert_eq!(
            one.get("l1.1.stores"),
            None,
            "1-core snapshot has no core 1"
        );

        let d = two.diff(&one);
        let keys: Vec<&str> = d.entries().map(|(k, _)| k).collect();
        let keys_two: Vec<&str> = two.entries().map(|(k, _)| k).collect();
        assert_eq!(keys, keys_two, "diff must keep self's key set verbatim");
        // Core-1 keys exist only in `two`; they count from zero.
        assert_eq!(d.get("l1.1.stores"), Some(0));
        assert_eq!(d.get("l1.0.stores"), Some(1));
        // The reverse diff drops the core-1 keys entirely and saturates
        // (rather than underflows) where `two` ran ahead.
        let r = one.diff(&two);
        assert_eq!(r.get("l1.1.stores"), None);
        assert_eq!(r.get("cycles"), Some(0));
        assert_eq!(r.get("l1.0.stores"), Some(0));
    }

    #[test]
    fn snapshot_json_is_flat_and_sorted() {
        let sys = SystemBuilder::new().cores(2).build();
        let snap = MetricsSnapshot::capture(&sys);
        assert!(!snap.is_empty());
        let keys: Vec<&str> = snap.entries().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(snap.get("engine.jumps"), Some(0));
        // cycles, 2 × 20 L1, 14 L2, 2 DRAM, 4 engine, 2 cores × 5 links × 2.
        assert_eq!(snap.len(), 81);
        assert_eq!(snap.len(), keys.len());
        assert!(snap.to_json().starts_with('{'));
    }
}
