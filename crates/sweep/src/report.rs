//! The deterministic result table of an executed sweep, and its flat-JSON
//! export (same shape family as the repository's `BENCH_*.json` files).

use crate::point::{PointOutput, PointStatus};
use std::fmt::Write as _;
use std::time::Duration;

/// One row of a [`SweepReport`]: the point's identity, how it ended, and
/// what it reported. Rows compare equal across runs at different worker
/// thread counts (host timing is deliberately not part of a row).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// The point's insertion index within the sweep.
    pub index: usize,
    /// The point's label.
    pub label: String,
    /// Display parameters, in insertion order.
    pub params: Vec<(String, String)>,
    /// How the point ended.
    pub status: PointStatus,
    /// What the point reported (empty on a captured panic).
    pub output: PointOutput,
}

impl SweepRow {
    /// `true` when the point completed within budget.
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }

    /// Convenience passthrough to [`PointOutput::get_value`].
    pub fn value(&self, name: &str) -> Option<f64> {
        self.output.get_value(name)
    }
}

/// The insertion-ordered result table of one executed sweep.
///
/// Everything observable through [`SweepReport::rows`] and
/// [`SweepReport::to_json`] is bit-identical at any worker-thread count;
/// the host-side [`SweepReport::wall`] and [`SweepReport::threads`] are
/// kept out of both so the determinism contract is checkable with plain
/// equality.
#[derive(Debug)]
pub struct SweepReport {
    pub(crate) name: String,
    pub(crate) unit: Option<String>,
    pub(crate) threads: usize,
    pub(crate) wall: Duration,
    pub(crate) warm: Vec<(String, u64)>,
    pub(crate) rows: Vec<SweepRow>,
}

impl SweepReport {
    /// The sweep's name (the `"bench"` key of the JSON export).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unit annotation, if one was set.
    pub fn unit(&self) -> Option<&str> {
        self.unit.as_deref()
    }

    /// Worker threads the run actually used (after clamping to the point
    /// count).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Host wall-clock time of the whole sweep.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Encoded byte size of every warm-start artifact the run actually
    /// built, in prefill-evaluation order (`(key, bytes)` pairs). Empty
    /// when no point referenced a prefill, or every referenced prefill
    /// panicked. Like
    /// [`SweepReport::wall`], this describes the *execution*, not the
    /// result table, so it stays out of [`SweepReport::to_json`].
    pub fn warm_sizes(&self) -> &[(String, u64)] {
        &self.warm
    }

    /// The rows, in point insertion order.
    pub fn rows(&self) -> &[SweepRow] {
        &self.rows
    }

    /// The first row with the given label.
    pub fn get(&self, label: &str) -> Option<&SweepRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Rows that did not end [`PointStatus::Ok`].
    pub fn failed_rows(&self) -> impl Iterator<Item = &SweepRow> {
        self.rows.iter().filter(|r| !r.is_ok())
    }

    /// Whether every point completed within budget.
    pub fn all_ok(&self) -> bool {
        self.rows.iter().all(|r| r.is_ok())
    }

    /// Total simulated cycles across all rows.
    pub fn total_sim_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.output.cycles).sum()
    }

    /// A human-readable CSV-ish rendering (label, params, status, cycles,
    /// values), one line per row.
    pub fn table(&self) -> String {
        let mut out = String::from("label,params,status,cycles,values\n");
        for r in &self.rows {
            let params: Vec<String> = r.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let values: Vec<String> = r
                .output
                .values
                .iter()
                .map(|(k, v)| format!("{k}={v:.1}"))
                .collect();
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                r.label,
                params.join(";"),
                r.status.as_str(),
                r.output.cycles,
                values.join(";")
            );
        }
        out
    }

    /// A host-side wall-time phase breakdown, one line per row that
    /// captured engine stats: per-phase nanoseconds and the serial
    /// fraction of the component wheel (`skipit_core::PhaseProfile`).
    ///
    /// All zeros unless the simulator was compiled with the `profile`
    /// feature. Like [`SweepReport::wall`], this is a property of the
    /// host run — it is deliberately **not** part of
    /// [`SweepReport::to_json`], so the JSON export stays bit-identical
    /// at any worker-thread count and with profiling on or off.
    pub fn phase_table(&self) -> String {
        let mut out = String::from("label,serial_ns,core_ns,frontend_ns,serial_fraction\n");
        for r in &self.rows {
            let Some(engine) = &r.output.engine else {
                continue;
            };
            let p = engine.phase;
            let frac = p
                .serial_fraction()
                .map_or_else(|| "-".into(), |f| format!("{f:.3}"));
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                r.label, p.serial_ns, p.core_ns, p.frontend_ns, frac
            );
        }
        out
    }

    /// Renders the table as one JSON document in the repository's
    /// `BENCH_*.json` shape: a `"bench"` name, an optional `"unit"`, and a
    /// `"points"` array of flat row objects (params, status, cycles, named
    /// values, and — when captured — the flat metrics snapshot).
    ///
    /// Deliberately excludes host timing and thread count, so the export
    /// is bit-identical at any worker-thread count.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": \"{}\",", esc(&self.name));
        if let Some(u) = &self.unit {
            let _ = writeln!(out, "  \"unit\": \"{}\",", esc(u));
        }
        out.push_str("  \"points\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(out, "    {{\"label\": \"{}\"", esc(&r.label));
            if !r.params.is_empty() {
                out.push_str(", \"params\": {");
                for (j, (k, v)) in r.params.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": \"{}\"", esc(k), esc(v));
                }
                out.push('}');
            }
            let _ = write!(out, ", \"status\": \"{}\"", r.status.as_str());
            match &r.status {
                PointStatus::Error { message } => {
                    let _ = write!(out, ", \"error\": \"{}\"", esc(message));
                }
                PointStatus::Timeout { budget, .. } => {
                    let _ = write!(out, ", \"budget\": {budget}");
                }
                PointStatus::Ok => {}
            }
            let _ = write!(out, ", \"cycles\": {}", r.output.cycles);
            if !r.output.values.is_empty() {
                out.push_str(", \"values\": {");
                for (j, (k, v)) in r.output.values.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": {}", esc(k), json_num(*v));
                }
                out.push('}');
            }
            if let Some(m) = &r.output.metrics {
                let body = m.to_json().replace('\n', "\n    ");
                let _ = write!(out, ", \"metrics\": {body}");
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Finite floats in shortest-roundtrip form, everything else `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SweepReport {
        SweepReport {
            name: "t".into(),
            unit: Some("cycles".into()),
            threads: 2,
            wall: Duration::from_millis(5),
            warm: Vec::new(),
            rows: vec![
                SweepRow {
                    index: 0,
                    label: "a".into(),
                    params: vec![("k".into(), "1".into())],
                    status: PointStatus::Ok,
                    output: PointOutput::new().with_cycles(10).value("v", 1.25),
                },
                SweepRow {
                    index: 1,
                    label: "b".into(),
                    params: vec![],
                    status: PointStatus::Error {
                        message: "boom \"quoted\"".into(),
                    },
                    output: PointOutput::new(),
                },
            ],
        }
    }

    #[test]
    fn json_shape_and_escaping() {
        let j = report().to_json();
        assert!(j.contains("\"bench\": \"t\""));
        assert!(j.contains("\"unit\": \"cycles\""));
        assert!(j.contains("\"params\": {\"k\": \"1\"}"));
        assert!(j.contains("\"values\": {\"v\": 1.25}"));
        assert!(j.contains("\"status\": \"error\""));
        assert!(j.contains("boom \\\"quoted\\\""));
        assert!(!j.contains("wall"), "host timing must stay out of the JSON");
    }

    #[test]
    fn lookups_and_aggregates() {
        let r = report();
        assert!(!r.all_ok());
        assert_eq!(r.failed_rows().count(), 1);
        assert_eq!(r.get("a").unwrap().value("v"), Some(1.25));
        assert_eq!(r.total_sim_cycles(), 10);
        assert!(r.table().contains("a,k=1,ok,10,v=1.2"));
    }

    #[test]
    fn phase_table_is_host_side_only() {
        let mut r = report();
        let mut engine = skipit_core::EngineStats::default();
        engine.phase.serial_ns = 30;
        engine.phase.core_ns = 60;
        engine.phase.frontend_ns = 10;
        r.rows[0].output.engine = Some(engine);
        let t = r.phase_table();
        assert!(t.contains("a,30,60,10,0.400"), "table was:\n{t}");
        // Row "b" captured no engine stats and is skipped.
        assert_eq!(t.lines().count(), 2);
        // Phase wall-times never leak into the deterministic JSON export.
        assert!(!r.to_json().contains("serial_ns"));
    }

    #[test]
    fn esc_handles_control_chars() {
        assert_eq!(esc("a\u{1}b"), "a\\u0001b");
        assert_eq!(esc("n\nl"), "n\\nl");
    }

    #[test]
    fn non_finite_values_render_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(0.5), "0.5");
    }
}
