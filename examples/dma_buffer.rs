//! The DMA scenario from the paper's introduction (§1): "modifications to a
//! locally cached copy must reach memory before subsequent accesses" by a
//! device.
//!
//! A producer core fills a buffer and issues `CBO.CLEAN` + fence before
//! ringing the device's doorbell. The (non-coherent) DMA engine is modeled
//! as a direct reader of main memory — exactly what it sees on a platform
//! without cache-coherent I/O. Without the cleans, the device would read
//! stale zeroes; with them, it sees every byte.
//!
//! ```text
//! cargo run --release --example dma_buffer
//! ```

use skipit::prelude::*;

const BUF: u64 = 0x8_0000;
const BUF_LINES: u64 = 16; // 1 KiB buffer

fn run(with_clean: bool) -> (u64, u64) {
    let mut sys = SystemBuilder::new().cores(1).skip_it(true).build();
    sys.run(Workers::new(vec![move |h: CoreHandle| async move {
        // Fill the buffer (word per slot, recognisable pattern).
        for i in 0..BUF_LINES * 8 {
            h.store(BUF + i * 8, 0xD0_0000 + i).await;
        }
        if with_clean {
            // Make the buffer visible to the device: clean every line
            // (non-invalidating — we may keep using the cached copy),
            // then fence so the doorbell write below cannot pass the
            // writebacks (§4).
            for l in 0..BUF_LINES {
                h.clean(BUF + l * 64).await;
            }
            h.fence().await;
        }
    }]));
    sys.quiesce();
    // The DMA engine reads main memory directly.
    let dram = sys.durable_image();
    let mut good = 0;
    for i in 0..BUF_LINES * 8 {
        if dram.read_word_direct(BUF + i * 8) == 0xD0_0000 + i {
            good += 1;
        }
    }
    (good, BUF_LINES * 8)
}

fn main() {
    let (stale_good, total) = run(false);
    println!("without CBO.CLEAN: device sees {stale_good}/{total} fresh words (stale DMA!)");
    let (good, total) = run(true);
    println!("with CBO.CLEAN + fence: device sees {good}/{total} fresh words");
    assert_eq!(good, total);
    assert!(stale_good < total, "without cleans some data must be stale");
    println!("DMA consistency established by user-controlled writebacks");
}
