//! SplitMix64: the crate's one source of randomness.
//!
//! Every request stream is generated host-side from a [`SplitMix64`] stream
//! seeded as a pure function of the workload seed and the lane index, so the
//! same seed yields a bit-identical stream on every simulation engine at any
//! host thread count — determinism is by construction, not by synchronizing
//! generators at run time.

pub use skipit_core::splitmix64;

/// A SplitMix64 pseudo-random stream.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream whose outputs are a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = self.state;
        self.state = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(z)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)` via the widening-multiply reduction (biased by
    /// at most `n / 2^64`, which is irrelevant at workload scale and —
    /// unlike rejection sampling — consumes exactly one draw, keeping
    /// streams alignable).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_is_bounded_and_covers() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.gen_range(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
    }
}
