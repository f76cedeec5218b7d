//! Regenerates the committed example traces under `traces/`.
//!
//! `traces/persistent_kv.trace` is *captured*: a small persistent
//! key-value-store workload (log-then-install updates on one core,
//! concurrent readers/CAS traffic on the other) runs in worker mode on the
//! paper platform with capture on, and the committed memory-op stream is
//! written out in the versioned binary format. Worker mode is
//! deterministic, so re-running this example reproduces the committed
//! bytes exactly.
//!
//! `traces/litmus_sb.txt` is hand-written; this example only checks that
//! it still parses and that its binary round trip is the identity.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --example capture_trace
//! ```

use skipit::prelude::*;
use skipit_bench::traces::kv_workload;
use std::path::Path;

fn main() {
    let traces = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&traces).expect("create traces/");

    // ---- persistent_kv.trace: captured from a live worker-mode run ----
    let mut sys = skipit::paper_platform(true);
    sys.start_capture();
    let results = kv_workload(&mut sys);
    assert_eq!(results[0], 12, "writer must install all updates");
    let trace = MemTrace::from_capture(2, 0, &sys.take_capture());
    assert!(!trace.is_empty());

    let path = traces.join("persistent_kv.trace");
    trace.to_file(&path).expect("write persistent_kv.trace");
    // Paranoia: the file decodes back to the identical trace.
    assert_eq!(MemTrace::from_file(&path).unwrap(), trace);
    println!(
        "wrote {} ({} records, {} cores)",
        path.display(),
        trace.len(),
        trace.cores()
    );

    // ---- litmus_sb.txt: hand-written, just validate it ----
    let path = traces.join("litmus_sb.txt");
    let text = std::fs::read_to_string(&path).expect("read litmus_sb.txt");
    let litmus = MemTrace::from_text(&text).expect("litmus trace parses");
    assert_eq!(
        MemTrace::from_bytes(&litmus.to_bytes()).unwrap(),
        litmus,
        "litmus binary round trip"
    );
    println!(
        "validated {} ({} records, {} cores)",
        path.display(),
        litmus.len(),
        litmus.cores()
    );
}
