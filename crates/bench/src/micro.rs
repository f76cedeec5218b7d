//! Microbenchmark building blocks shared by Figs. 9–13 and the ablation.

use skipit_core::{Op, Programs, System, SystemBuilder};

/// Per-thread region base (each thread writes back a disjoint region — the
/// non-contended setup of §7.2).
pub fn region_base(thread: u64) -> u64 {
    0x100_0000 + thread * 0x10_0000
}

/// Line addresses of thread `t`'s share of a `total_bytes` region split
/// across `threads`.
pub fn region_lines(t: u64, threads: u64, total_bytes: u64) -> impl Iterator<Item = u64> {
    let per = (total_bytes / threads).max(64);
    (0..per / 64).map(move |i| region_base(t) + i * 64)
}

/// Builds a system with `threads` cores.
pub fn system(threads: usize, skip_it: bool) -> System {
    SystemBuilder::new().cores(threads).skip_it(skip_it).build()
}

/// Dirties every line of the split region (unmeasured warm-up phase).
pub fn dirty_region(sys: &mut System, threads: u64, total_bytes: u64) {
    let progs = (0..threads)
        .map(|t| {
            region_lines(t, threads, total_bytes)
                .map(|a| Op::Store { addr: a, value: a })
                .collect()
        })
        .collect();
    sys.run(Programs(progs));
}

/// Measured phase of Fig. 9: each thread writes back its region
/// sequentially and fences once at the end.
pub fn writeback_region(sys: &mut System, threads: u64, total_bytes: u64, clean: bool) -> u64 {
    let progs = (0..threads)
        .map(|t| {
            let mut p: Vec<Op> = region_lines(t, threads, total_bytes)
                .map(|a| {
                    if clean {
                        Op::Clean { addr: a }
                    } else {
                        Op::Flush { addr: a }
                    }
                })
                .collect();
            p.push(Op::Fence);
            p
        })
        .collect();
    sys.run(Programs(progs)).cycles
}

/// One Fig. 9 sample: dirty then measure the writeback+fence.
pub fn fig9_sample(sys: &mut System, threads: u64, total_bytes: u64, clean: bool) -> u64 {
    dirty_region(sys, threads, total_bytes);
    writeback_region(sys, threads, total_bytes, clean)
}

/// The serialized (per-op latency) form of the Fig. 9 experiment — the
/// §7.2 calibration methodology, as in the single-line flush-latency
/// check: per line, a store (a full miss round trip, since the line is
/// cold or evicted), then `CBO.CLEAN` + fence, so exactly one transaction
/// is in flight at a time and its full round-trip latency (miss fill, then
/// flush queue → FSHR → DRAM write → ack) is exposed instead of being
/// hidden by pipelining. Most of each round trip is quiescent wait — the
/// workload the event-driven engine is built for.
pub fn fig9_serialized_sample(sys: &mut System, threads: u64, total_bytes: u64) -> u64 {
    let progs = (0..threads)
        .map(|t| {
            region_lines(t, threads, total_bytes)
                .flat_map(|a| {
                    [
                        Op::Store { addr: a, value: a },
                        Op::Clean { addr: a },
                        Op::Fence,
                    ]
                })
                .collect()
        })
        .collect();
    sys.run(Programs(progs)).cycles
}

/// One Fig. 10 sample: ten rounds of (write region, writeback region),
/// then a fence and a re-read of every line.
///
/// The round structure is what separates the two writeback flavours
/// (Fig. 10's ≈2× gap): after a `CBO.CLEAN` the next round's writes still
/// hit; after a `CBO.FLUSH` every subsequent write *and* the final read
/// must refetch the invalidated line from memory.
pub fn fig10_sample(sys: &mut System, threads: u64, total_bytes: u64, clean: bool) -> u64 {
    let progs = (0..threads)
        .map(|t| {
            let mut p = Vec::new();
            for rep in 0..10u64 {
                for a in region_lines(t, threads, total_bytes) {
                    p.push(Op::Store {
                        addr: a,
                        value: a + rep,
                    });
                }
                for a in region_lines(t, threads, total_bytes) {
                    p.push(if clean {
                        Op::Clean { addr: a }
                    } else {
                        Op::Flush { addr: a }
                    });
                }
            }
            p.push(Op::Fence);
            for a in region_lines(t, threads, total_bytes) {
                p.push(Op::Load { addr: a });
            }
            p
        })
        .collect();
    sys.run(Programs(progs)).cycles
}

/// One Fig. 13 sample: per line, store + writeback + `redundant` redundant
/// writebacks issued back-to-back (asynchronously, as in the paper's
/// microbenchmark), with a fence after the first writeback (so the
/// redundancy is established) and one at the end of each line's burst.
///
/// The writeback flavour is CBO.CLEAN — the paper notes the Skip It
/// comparison "is identical for CBO.CLEAN" and only clean leaves the line
/// resident so redundancy is detectable at the L1 (see DESIGN.md §2).
pub fn fig13_sample(sys: &mut System, threads: u64, total_bytes: u64, redundant: usize) -> u64 {
    let progs = (0..threads)
        .map(|t| {
            let mut p = Vec::new();
            for a in region_lines(t, threads, total_bytes) {
                p.push(Op::Store { addr: a, value: a });
                p.push(Op::Clean { addr: a });
                // One fence so the first writeback completes (arming the
                // skip bit) before the redundant burst — see EXPERIMENTS.md
                // for the interpretation band this choice sits in.
                p.push(Op::Fence);
                for _ in 0..redundant {
                    p.push(Op::Clean { addr: a });
                    // Loop body between the microbenchmark's redundant
                    // writebacks (address generation, branch) — spaces the
                    // requests like the paper's instruction stream does.
                    p.push(Op::Nop { cycles: 16 });
                }
                p.push(Op::Fence);
            }
            p
        })
        .collect();
    sys.run(Programs(progs)).cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_across_threads() {
        let a: Vec<u64> = region_lines(0, 2, 4096).collect();
        let b: Vec<u64> = region_lines(1, 2, 4096).collect();
        assert_eq!(a.len(), 32);
        assert!(a.iter().all(|x| !b.contains(x)));
    }

    #[test]
    fn fig9_sample_runs() {
        let mut sys = system(1, false);
        let c = fig9_sample(&mut sys, 1, 64, false);
        assert!(c > 0);
    }

    /// One run per figure point is enough: at 1 and 8 threads, two fresh
    /// systems running the same Fig. 10 or Fig. 13 sample return the same
    /// cycles, and so do two consecutive Fig. 9 samples, or two consecutive
    /// dirty-then-writeback pairs, on one reused system.
    #[test]
    fn samples_repeat_exactly() {
        let size = 2048;
        for threads in [1u64, 8] {
            let n = threads as usize;
            for flag in [false, true] {
                let fresh_fig10 = || fig10_sample(&mut system(n, false), threads, size, flag);
                assert_eq!(
                    fresh_fig10(),
                    fresh_fig10(),
                    "fig10 {threads}t clean={flag}"
                );
                let fresh_fig13 = || fig13_sample(&mut system(n, flag), threads, size, 10);
                assert_eq!(
                    fresh_fig13(),
                    fresh_fig13(),
                    "fig13 {threads}t skip_it={flag}"
                );
            }
            let mut sys = system(n, false);
            let first = fig9_sample(&mut sys, threads, size, false);
            assert_eq!(
                first,
                fig9_sample(&mut sys, threads, size, false),
                "fig9 {threads}t"
            );
            let mut pair = || {
                dirty_region(&mut sys, threads, size);
                writeback_region(&mut sys, threads, size, false)
            };
            assert_eq!(pair(), pair(), "dirty + writeback {threads}t");
        }
    }
}
