//! Litmus-test suite for the §4 memory semantics: runs the classic
//! two-worker shapes plus the paper's three writeback scenarios (Fig. 5)
//! and prints observed outcomes against the model's guarantees.
//!
//! ```text
//! cargo run --release --example litmus
//! ```

use skipit::prelude::*;

fn check(name: &str, ok: bool, detail: String) {
    println!("{:45} {} {detail}", name, if ok { "PASS" } else { "FAIL" });
    assert!(ok, "{name} violated");
}

pub fn main() {
    // MP: message passing with a fence — the receiver never sees the flag
    // without the data.
    {
        let mut forbidden = 0;
        for round in 0..8u64 {
            let mut sys = SystemBuilder::new().cores(2).build();
            let data = 0x1000 + round * 128;
            let flag = 0x2000 + round * 128;
            let (_, r) = sys
                .run(
                    Workers::new(vec![
                        move |h: CoreHandle| async move {
                            if h.core_id() == 0 {
                                h.store(data, 1).await;
                                h.fence().await;
                                h.store(flag, 1).await;
                                return 0u64;
                            }
                            while h.load(flag).await == 0 {
                                if h.halted() {
                                    return 1;
                                }
                            }
                            h.load(data).await
                        };
                        2
                    ])
                    .budget(500_000),
                )
                .into_parts();
            if r[1] == 0 {
                forbidden += 1;
            }
        }
        check(
            "MP (fence): flag ⇒ data",
            forbidden == 0,
            format!("0/{forbidden} forbidden"),
        );
    }

    // SB: store buffering with fences — (0, 0) is forbidden.
    {
        let mut forbidden = 0;
        for round in 0..8u64 {
            let mut sys = SystemBuilder::new().cores(2).build();
            let x = 0x3000 + round * 128;
            let y = 0x4000 + round * 128;
            let (_, r) = sys
                .run(Workers::new(vec![
                    move |h: CoreHandle| async move {
                        let (mine, theirs) = if h.core_id() == 0 { (x, y) } else { (y, x) };
                        h.store(mine, 1).await;
                        h.fence().await;
                        h.load(theirs).await
                    };
                    2
                ]))
                .into_parts();
            if r[0] == 0 && r[1] == 0 {
                forbidden += 1;
            }
        }
        check(
            "SB (fences): ¬(0,0)",
            forbidden == 0,
            format!("0/{forbidden} forbidden"),
        );
    }

    // CoRR: coherence read-read — two reads of the same location by the
    // same worker never go backwards.
    {
        let mut sys = SystemBuilder::new().cores(2).build();
        let (_, r) = sys
            .run(Workers::new(vec![
                |h: CoreHandle| async move {
                    if h.core_id() == 0 {
                        for v in 1..100u64 {
                            h.store(0x5000, v).await;
                        }
                        return 0u64;
                    }
                    let mut last = 0;
                    let mut violations = 0u64;
                    for _ in 0..200 {
                        let v = h.load(0x5000).await;
                        if v < last {
                            violations += 1;
                        }
                        last = v;
                    }
                    violations
                };
                2
            ]))
            .into_parts();
        check(
            "CoRR: same-location reads monotone",
            r[1] == 0,
            format!("{} regressions", r[1]),
        );
    }

    // Fig. 5 (a): without writebacks, store order says nothing about
    // persistence order (we only check that nothing is guaranteed durable).
    {
        let mut sys = SystemBuilder::new().cores(1).build();
        sys.run(Programs(vec![vec![
            Op::Store {
                addr: 0x6000,
                value: 1,
            },
            Op::Store {
                addr: 0x6040,
                value: 2,
            },
        ]]));
        sys.quiesce();
        let dram = sys.durable_image();
        let persisted = (dram.read_word_direct(0x6000) != 0) as u32
            + (dram.read_word_direct(0x6040) != 0) as u32;
        check(
            "Fig5(a): unflushed stores volatile",
            persisted == 0,
            format!("{persisted} persisted"),
        );
    }

    // Fig. 5 (b): writeback(x) orders against earlier writes to x's line —
    // after fence, x is durable regardless of what happened to y.
    {
        let mut sys = SystemBuilder::new().cores(1).build();
        sys.run(Programs(vec![vec![
            Op::Store {
                addr: 0x7000,
                value: 10,
            },
            Op::Flush { addr: 0x7000 },
            Op::Store {
                addr: 0x7040,
                value: 20,
            },
            Op::Fence,
        ]]));
        let x = sys.dram().read_word_direct(0x7000);
        check(
            "Fig5(b): writeback covers prior writes",
            x == 10,
            format!("x={x}"),
        );
    }

    // Fig. 5 (c): writeback + fence ⇒ durable before the next instruction.
    {
        let mut sys = SystemBuilder::new().cores(1).build();
        sys.run(Programs(vec![vec![
            Op::Store {
                addr: 0x8000,
                value: 33,
            },
            Op::Flush { addr: 0x8000 },
            Op::Fence,
        ]]));
        let x = sys.dram().read_word_direct(0x8000);
        check("Fig5(c): flush+fence durable", x == 33, format!("x={x}"));
    }

    println!("\nall litmus shapes conform to the §4 semantics");
}
