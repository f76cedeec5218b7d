//! Workloads behind the committed example traces under `traces/`.
//!
//! `examples/capture_trace.rs` regenerates the files from these functions,
//! and `tests/replay.rs` checks that a fresh capture still equals the
//! committed bytes, so the two can never drift apart.

use skipit_core::{CoreHandle, System, Workers};

/// Key-value slots: key `k` lives at `KV_BASE + k * 64` (one line per key).
const KV_BASE: u64 = 0x8_0000;
/// The redo-log region the writer appends to before installing.
const LOG_BASE: u64 = 0x9_0000;

/// The small persistent key-value-store workload captured as
/// `traces/persistent_kv.trace`, run on cores 0 and 1 of `sys`. Returns the
/// per-worker results: the writer's install count (always 12) and the
/// reader's checksum.
pub fn kv_workload(sys: &mut System) -> Vec<u64> {
    let report = sys.run(Workers::new(vec![
        |h: CoreHandle| async move {
            if h.core_id() == 0 {
                kv_writer(&h).await
            } else {
                kv_reader(&h).await
            }
        };
        2
    ]));
    report.output
}

/// Writer: log-then-install. Each update appends (key, value) to the log,
/// persists the log entry, installs the value in place, and persists the
/// install — the classic redo-log persistence pattern the paper's §4
/// semantics are built for.
async fn kv_writer(h: &CoreHandle) -> u64 {
    let mut installed = 0;
    for i in 0..12u64 {
        let key = i % 4;
        let value = 100 + i;
        let entry = LOG_BASE + i * 64;
        h.store(entry, (key << 32) | value).await;
        h.flush(entry).await;
        h.fence().await;
        h.store(KV_BASE + key * 64, value).await;
        h.flush(KV_BASE + key * 64).await;
        h.fence().await;
        installed += 1;
    }
    installed
}

/// Reader: scans the live slots and bumps a shared version counter,
/// contending with the writer for line ownership.
async fn kv_reader(h: &CoreHandle) -> u64 {
    let mut sum = 0u64;
    for round in 0..6u64 {
        for key in 0..4u64 {
            sum = sum.wrapping_add(h.load(KV_BASE + key * 64).await);
        }
        h.fetch_add(KV_BASE + 4 * 64, 1).await;
        h.work(10 + round).await;
    }
    h.fence().await;
    sum
}
