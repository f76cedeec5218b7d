//! Worker-mode edge cases: degenerate workloads, mixed program/worker
//! phases, budget semantics, and determinism of the scheduler itself.

use skipit::prelude::*;

#[test]
fn worker_that_does_nothing_terminates() {
    let mut sys = SystemBuilder::new().cores(2).build();
    let (cycles, _) = sys
        .run(Workers::new(vec![
            |h: CoreHandle| async move {
                // Core 0 finishes explicitly, core 1 by dropping its handle.
                if h.core_id() == 0 {
                    h.finish();
                }
            };
            2
        ]))
        .into_parts();
    assert!(cycles < 100);
}

#[test]
fn worker_using_only_rdcycle_terminates() {
    let mut sys = SystemBuilder::new().cores(1).build();
    let (_, v) = sys
        .run(Workers::new(vec![|h: CoreHandle| async move {
            let a = h.rdcycle().await;
            let b = h.rdcycle().await;
            (a, b)
        }]))
        .into_parts();
    // rdcycle consumes no simulated time.
    assert_eq!(v[0].0, v[0].1);
}

#[test]
fn fewer_workers_than_cores_is_fine() {
    let mut sys = SystemBuilder::new().cores(4).build();
    let (_, v) = sys
        .run(Workers::new(vec![|h: CoreHandle| async move {
            h.store(0x100, 5).await;
            h.load(0x100).await
        }]))
        .into_parts();
    assert_eq!(v[0], 5);
}

#[test]
fn program_and_thread_phases_interleave_on_shared_state() {
    let mut sys = SystemBuilder::new().cores(2).build();
    sys.run(Programs(vec![
        vec![Op::Store {
            addr: 0x200,
            value: 7,
        }],
        vec![],
    ]));
    sys.quiesce();
    let (_, v) = sys
        .run(Workers::new(vec![|h: CoreHandle| async move {
            h.load(0x200).await
        }]))
        .into_parts();
    assert_eq!(v[0], 7);
    sys.run(Programs(vec![
        vec![],
        vec![Op::Store {
            addr: 0x200,
            value: 8,
        }],
    ]));
    // Without quiescing, core 0 may legally still hit its stale Shared copy
    // (store propagation is asynchronous); quiesce() drains the coherence
    // traffic, after which the new value must be visible.
    sys.quiesce();
    let (_, v) = sys
        .run(Workers::new(vec![|h: CoreHandle| async move {
            h.load(0x200).await
        }]))
        .into_parts();
    assert_eq!(v[0], 8);
}

#[test]
fn budget_halts_all_workers_eventually() {
    let mut sys = SystemBuilder::new().cores(3).build();
    let worker = |h: CoreHandle| async move {
        let mut n = 0u64;
        while !h.halted() {
            h.store(0x300 + h.core_id() as u64 * 64, n).await;
            n += 1;
        }
        n
    };
    let (cycles, counts) = sys
        .run(Workers::new(vec![worker, worker, worker]).budget(5_000))
        .into_parts();
    assert!(cycles >= 5_000);
    assert!(
        cycles < 50_000,
        "halt must propagate promptly, took {cycles}"
    );
    for c in counts {
        assert!(c > 0);
    }
}

/// The documented budget contract, end to end: expiry is a *soft* stop.
/// `RunReport::cycles` includes the post-deadline drain (so it can exceed
/// the budget), `budget_expired` reports the expiry, and every worker's
/// result is present — expiry flips the `halted` flag workers observe, it
/// never truncates `output`.
#[test]
fn budget_expiry_is_reported_and_preserves_every_result() {
    let mut sys = SystemBuilder::new().cores(2).build();
    let worker = |h: CoreHandle| async move {
        let mut n = 0u64;
        while !h.halted() {
            h.fetch_add(0x500, 1).await;
            h.work(20).await;
            n += 1;
        }
        // Post-halt work still executes: the run drains past the deadline.
        h.store(0x600 + h.core_id() as u64 * 64, n).await;
        h.flush(0x600 + h.core_id() as u64 * 64).await;
        h.fence().await;
        n
    };
    let report = sys.run(Workers::new(vec![worker, worker]).budget(4_000));
    assert!(report.budget_expired, "budget must be reported as expired");
    assert!(
        report.cycles >= 4_000,
        "cycles include the drain, got {}",
        report.cycles
    );
    assert_eq!(report.output.len(), 2, "no result may be dropped");
    for (i, &n) in report.output.iter().enumerate() {
        assert!(n > 0);
        // The post-halt store + fence committed: the drain really ran.
        assert_eq!(sys.dram().read_word_direct(0x600 + i as u64 * 64), n);
    }

    // Control: a budget that never expires reports `budget_expired: false`,
    // as does a budget-less run.
    let mut sys = SystemBuilder::new().cores(1).build();
    let report = sys.run(
        Workers::new(vec![|h: CoreHandle| async move { h.load(0x500).await }]).budget(u64::MAX / 2),
    );
    assert!(!report.budget_expired);
    let report = sys.run(Workers::new(vec![|h: CoreHandle| async move {
        h.load(0x500).await
    }]));
    assert!(!report.budget_expired);
}

#[test]
fn worker_results_are_deterministic_across_runs() {
    let run = || {
        let mut sys = SystemBuilder::new().cores(2).build();
        let worker = |seed: u64| {
            move |h: CoreHandle| async move {
                let mut acc = 0u64;
                for i in 0..40 {
                    let addr = 0x400 + ((seed * 31 + i) % 8) * 64;
                    h.fetch_add(addr, 1).await;
                    acc = acc
                        .wrapping_add(h.load(addr).await)
                        .wrapping_add(h.rdcycle().await);
                }
                acc
            }
        };
        let (cycles, v) = sys
            .run(Workers::new(vec![worker(1), worker(2)]))
            .into_parts();
        (cycles, v)
    };
    assert_eq!(run(), run(), "worker scheduling must be deterministic");
}

#[test]
fn handles_expose_core_ids_in_order() {
    let mut sys = SystemBuilder::new().cores(3).build();
    let (_, ids) = sys
        .run(Workers::new(vec![
            |h: CoreHandle| async move { h.core_id() };
            3
        ]))
        .into_parts();
    assert_eq!(ids, vec![0, 1, 2]);
}
