//! A crash-consistent append-only log — the NVMM use case from the paper's
//! introduction (§1, §2.5).
//!
//! Protocol: each entry is written to its own cache line and flushed; only
//! after a fence confirms durability is the header's `count` word updated
//! and flushed. A crash can therefore lose at most the *in-flight* entry,
//! never corrupt the committed prefix — exactly the ordering discipline the
//! paper's writeback + fence semantics enable (§4).
//!
//! The example appends entries, crashes the machine at a random point, and
//! runs recovery against the surviving DRAM image.
//!
//! ```text
//! cargo run --release --example persistent_log
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipit::prelude::*;

const HEADER: u64 = 0x1_0000; // header line: [count]
const ENTRIES: u64 = 0x1_0040; // entry i at HEADER + 64 * (i + 1)

fn entry_addr(i: u64) -> u64 {
    ENTRIES + i * 64
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..5 {
        let crash_after = rng.gen_range(1..30u64);
        let mut sys = SystemBuilder::new().cores(1).skip_it(true).build();

        // Writer: append entries until the budget "crashes" us mid-stream.
        let (_, appended) = sys
            .run(Workers::new(vec![move |h: CoreHandle| async move {
                let mut committed = 0u64;
                for i in 0..40u64 {
                    // 1. Write and persist the entry payload.
                    let payload = 0xAB00_0000 + i;
                    h.store(entry_addr(i), payload).await;
                    h.flush(entry_addr(i)).await;
                    h.fence().await;
                    // Simulated crash point: stop *between* entry persist
                    // and header update for odd trials (worst case).
                    if i == crash_after {
                        return committed;
                    }
                    // 2. Commit: bump the header count and persist it.
                    h.store(HEADER, i + 1).await;
                    h.flush(HEADER).await;
                    h.fence().await;
                    committed = i + 1;
                }
                committed
            }]))
            .into_parts();

        // Power failure: all caches gone, only DRAM (the persistence
        // domain) survives.
        let dram = sys.durable_image();

        // Recovery: trust only the committed prefix.
        let count = dram.read_word_direct(HEADER);
        assert_eq!(
            count, appended[0],
            "trial {trial}: header must reflect exactly the committed prefix"
        );
        for i in 0..count {
            let v = dram.read_word_direct(entry_addr(i));
            assert_eq!(v, 0xAB00_0000 + i, "trial {trial}: entry {i} corrupt");
        }
        println!(
            "trial {trial}: crashed after entry {crash_after}, recovered \
             {count} committed entries — all intact"
        );
    }
    println!("crash-consistent log: all trials recovered cleanly");
}
