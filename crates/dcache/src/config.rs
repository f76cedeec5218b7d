//! L1 data-cache configuration.

use skipit_tilelink::slots::MAX_SLOTS;

/// Geometry and timing of one L1 data cache.
///
/// The default matches the SonicBOOM configuration the paper evaluates
/// (§3.3, §7.1): a 32 KiB, 8-way, 64 B-line writeback cache with eight FSHRs
/// in the flush unit (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Config {
    /// Number of sets (default 64 → 64 sets × 8 ways × 64 B = 32 KiB).
    pub sets: usize,
    /// Associativity (default 8).
    pub ways: usize,
    /// Number of miss status holding registers.
    pub mshrs: usize,
    /// Replay-queue depth per MSHR (§3.3).
    pub rpq_depth: usize,
    /// Flush-queue depth (§5.2).
    pub flush_queue_depth: usize,
    /// Number of flush status holding registers (the paper uses 8, §5.2).
    pub fshrs: usize,
    /// Enables the Skip It optimization (§6). When disabled the cache is the
    /// paper's baseline ("naïve") flush-unit design.
    pub skip_it: bool,
    /// Enables coalescing of *different* CBO.X kinds to the same line — the
    /// future-work optimization §5.3 names: a queued `CBO.CLEAN` is upgraded
    /// in place by an arriving `CBO.FLUSH` (flush subsumes clean), and an
    /// arriving `CBO.CLEAN` is absorbed by a queued `CBO.FLUSH`.
    pub cross_kind_coalescing: bool,
}

impl Default for L1Config {
    fn default() -> Self {
        L1Config {
            sets: 64,
            ways: 8,
            mshrs: 8,
            rpq_depth: 8,
            flush_queue_depth: 16,
            fshrs: 8,
            skip_it: false,
            cross_kind_coalescing: false,
        }
    }
}

impl L1Config {
    /// Largest supported replay-queue and flush-queue depth: far above
    /// any modelled design, and small enough that the flush queue's
    /// per-bucket entry counts fit a `u16`.
    pub const MAX_QUEUE_DEPTH: usize = 4096;

    /// Largest supported cache, in lines (`sets * ways`): 64 MiB of data,
    /// far above any modelled L1.
    pub const MAX_LINES: usize = 1 << 20;

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * skipit_tilelink::LINE_BYTES
    }

    /// Validates invariants the cache model relies on.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero, `sets` is not a power of two, or a
    /// size exceeds its bound: `mshrs` and `fshrs` [`MAX_SLOTS`], either
    /// queue depth
    /// [`L1Config::MAX_QUEUE_DEPTH`], `sets * ways`
    /// [`L1Config::MAX_LINES`].
    pub fn validate(&self) {
        assert!(self.sets.is_power_of_two(), "sets must be a power of two");
        assert!(self.ways > 0, "ways must be nonzero");
        assert!(self.mshrs > 0, "mshrs must be nonzero");
        assert!(self.rpq_depth > 0, "rpq_depth must be nonzero");
        assert!(
            self.flush_queue_depth > 0,
            "flush_queue_depth must be nonzero"
        );
        assert!(self.fshrs > 0, "fshrs must be nonzero");
        assert!(self.mshrs <= MAX_SLOTS, "mshrs must be at most {MAX_SLOTS}");
        assert!(self.fshrs <= MAX_SLOTS, "fshrs must be at most {MAX_SLOTS}");
        assert!(
            self.rpq_depth <= Self::MAX_QUEUE_DEPTH
                && self.flush_queue_depth <= Self::MAX_QUEUE_DEPTH,
            "queue depths must be at most {}",
            Self::MAX_QUEUE_DEPTH
        );
        assert!(
            self.sets.saturating_mul(self.ways) <= Self::MAX_LINES,
            "sets * ways must be at most {}",
            Self::MAX_LINES
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_32kib_sonicboom_geometry() {
        let c = L1Config::default();
        c.validate();
        assert_eq!(c.capacity_bytes(), 32 * 1024);
        assert_eq!(c.fshrs, 8);
        assert!(!c.skip_it);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn validate_rejects_non_power_of_two_sets() {
        L1Config {
            sets: 3,
            ..L1Config::default()
        }
        .validate();
    }
}
