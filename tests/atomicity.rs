//! Cross-core atomicity stress: CAS/fetch-add counters must never lose
//! updates; two-core message passing must respect coherence.

use skipit::prelude::*;

#[test]
fn cas_increments_are_never_lost() {
    let mut sys = SystemBuilder::new().cores(2).build();
    let n = 200u64;
    let worker = move |h: CoreHandle| async move {
        for _ in 0..n {
            loop {
                let cur = h.load(0x100).await;
                if h.cas(0x100, cur, cur + 1).await == cur {
                    break;
                }
            }
        }
    };
    sys.run(Workers::new(vec![worker, worker]));
    let (_, v) = sys
        .run(Workers::new(vec![|h: CoreHandle| async move {
            h.load(0x100).await
        }]))
        .into_parts();
    assert_eq!(v[0], 2 * n);
}

#[test]
fn fetch_add_is_atomic_across_cores() {
    let mut sys = SystemBuilder::new().cores(2).build();
    let n = 300u64;
    let worker = move |h: CoreHandle| async move {
        for _ in 0..n {
            h.fetch_add(0x200, 1).await;
        }
    };
    sys.run(Workers::new(vec![worker, worker]));
    let (_, v) = sys
        .run(Workers::new(vec![|h: CoreHandle| async move {
            h.load(0x200).await
        }]))
        .into_parts();
    assert_eq!(v[0], 2 * n);
}

#[test]
fn store_then_load_other_core_sees_value() {
    let mut sys = SystemBuilder::new().cores(2).build();
    for round in 0..50u64 {
        let (_, v) = sys
            .run(Workers::new(vec![
                move |h: CoreHandle| async move {
                    if h.core_id() == 0 {
                        h.store(0x300, round + 1).await;
                        return 0u64;
                    }
                    // Spin until we see this round's value.
                    loop {
                        let v = h.load(0x300).await;
                        if v == round + 1 {
                            return v;
                        }
                    }
                };
                2
            ]))
            .into_parts();
        assert_eq!(v[1], round + 1);
    }
}
