//! L2 configuration.

use skipit_tilelink::slots::MAX_SLOTS;

/// Geometry and timing of the inclusive L2.
///
/// The default matches the evaluation platform of §7.1: a 512 KiB shared
/// inclusive L2 over 64 B lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Config {
    /// Number of sets (default 1024 → 1024 × 8 × 64 B = 512 KiB).
    pub sets: usize,
    /// Associativity (default 8).
    pub ways: usize,
    /// Number of L2 MSHRs.
    pub mshrs: usize,
    /// Directory/banked-store access latency in cycles, applied once per
    /// MSHR allocation.
    pub access_latency: u64,
    /// Capacity of the ListBuffer holding deferred TL-C requests (§3.4).
    pub list_buffer_depth: usize,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            sets: 1024,
            ways: 8,
            mshrs: 64,
            access_latency: 6,
            list_buffer_depth: 64,
        }
    }
}

impl L2Config {
    /// Largest supported ListBuffer: far above any modelled design.
    pub const MAX_LIST_BUFFER_DEPTH: usize = 4096;

    /// Largest supported cache, in lines (`sets * ways`): 64 MiB of data,
    /// far above any modelled L2.
    pub const MAX_LINES: usize = 1 << 20;

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * skipit_tilelink::LINE_BYTES
    }

    /// Validates invariants the model relies on.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero, `sets` is not a power of two, or a
    /// size exceeds its bound: `mshrs` [`MAX_SLOTS`],
    /// `list_buffer_depth` [`L2Config::MAX_LIST_BUFFER_DEPTH`],
    /// `sets * ways` [`L2Config::MAX_LINES`].
    pub fn validate(&self) {
        assert!(self.sets.is_power_of_two(), "sets must be a power of two");
        assert!(self.ways > 0, "ways must be nonzero");
        assert!(self.mshrs > 0, "mshrs must be nonzero");
        assert!(self.mshrs <= MAX_SLOTS, "mshrs must be at most {MAX_SLOTS}");
        assert!(
            self.list_buffer_depth > 0,
            "list_buffer_depth must be nonzero"
        );
        assert!(
            self.list_buffer_depth <= Self::MAX_LIST_BUFFER_DEPTH,
            "list_buffer_depth must be at most {}",
            Self::MAX_LIST_BUFFER_DEPTH
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
    fn default_is_512kib() {
        let c = L2Config::default();
        c.validate();
        assert_eq!(c.capacity_bytes(), 512 * 1024);
    }
}
