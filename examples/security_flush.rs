//! The security use case from the paper's introduction (§1, §8): flushing a
//! security domain's cache footprint on a context switch to close
//! cache-based timing channels.
//!
//! A "victim" fills a working set; we measure an "attacker" probe of the
//! same addresses with and without a domain flush in between. Without the
//! flush, the probe's hit latencies leak which lines the victim touched;
//! after `CBO.FLUSH`-ing the region and fencing, every probe misses — the
//! channel is closed. The run also reports what the flush itself costs
//! (the §7.2 numbers in action).
//!
//! ```text
//! cargo run --release --example security_flush
//! ```

use skipit::prelude::*;

const DOMAIN: u64 = 0x10_0000;
const LINES: u64 = 64; // 4 KiB secret-dependent footprint

async fn probe_latencies(h: &CoreHandle) -> Vec<u64> {
    let mut lat = Vec::with_capacity(LINES as usize);
    for l in 0..LINES {
        let t0 = h.rdcycle().await;
        h.load(DOMAIN + l * 64).await;
        lat.push(h.rdcycle().await - t0);
    }
    lat
}

fn main() {
    for flush_on_switch in [false, true] {
        let mut sys = SystemBuilder::new().cores(1).build();
        // Victim: touch every even line (the "secret" = parity).
        sys.run(Workers::new(vec![move |h: CoreHandle| async move {
            for l in (0..LINES).step_by(2) {
                h.store(DOMAIN + l * 64, l).await;
            }
        }]))
        .into_parts();
        // Context switch: optionally scrub the domain.
        let scrub_cycles = if flush_on_switch {
            let mut prog: Vec<Op> = (0..LINES)
                .map(|l| Op::Flush {
                    addr: DOMAIN + l * 64,
                })
                .collect();
            prog.push(Op::Fence);
            sys.run(Programs(vec![prog])).cycles
        } else {
            0
        };
        // Attacker probe: time every line.
        let (_, lat) = sys
            .run(Workers::new(vec![|h: CoreHandle| async move {
                probe_latencies(&h).await
            }]))
            .into_parts();
        let lat = &lat[0];
        let threshold = 20; // hit/miss discriminator (hits ≈ 5-8 cycles)
        let leaked: usize = (0..LINES as usize)
            .filter(|&l| (lat[l] < threshold) == (l % 2 == 0) && lat[l] < threshold)
            .count();
        println!(
            "flush_on_switch={flush_on_switch:5}  scrub cost: {scrub_cycles:>5} cycles; \
             attacker classifies {leaked}/{} victim lines by timing",
            LINES / 2
        );
        if flush_on_switch {
            assert_eq!(leaked, 0, "the flush must close the timing channel");
        } else {
            assert!(
                leaked > 20,
                "without flushing the channel must be wide open"
            );
        }
    }
    println!("\nCBO.FLUSH + FENCE closes the probe channel at a bounded, known cost");
}
