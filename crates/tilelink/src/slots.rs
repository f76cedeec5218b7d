//! Bitmask walks over small slot files (MSHRs, FSHRs).
//!
//! The L1 and the L2 keep `u64` state masks beside each slot file, one bit
//! per slot, so a walk visits only the slots whose bit is set and a
//! free-slot pick reads one word. Every walk is lowest slot first, the
//! order a linear scan of the file visits them in.

/// Indices of the set bits of a slot mask, lowest first. Holds a copy of
/// the mask, so the walk borrows nothing and a caller may change the file
/// (including freeing the slot it is visiting) while walking.
#[derive(Clone, Copy, Debug)]
pub struct Slots(pub u64);

impl Iterator for Slots {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let idx = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(idx)
    }
}

/// Sets bit `slot` of `mask` when `on`, clears it otherwise.
#[inline]
pub fn set_bit(mask: &mut u64, slot: usize, on: bool) {
    if on {
        *mask |= 1 << slot;
    } else {
        *mask &= !(1 << slot);
    }
}

/// The mask with one bit set for each slot of an `n`-slot file. `n` must
/// be in `1..=64`; the cache configurations bound every slot file so.
#[inline]
pub fn file_mask(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// The first free slot of an `n`-slot file with occupancy `occupied`,
/// scanning upward from `start` and wrapping: the rotation scan
/// `(start..n).chain(0..start)`, computed on the mask.
#[inline]
pub fn first_free(occupied: u64, n: usize, start: u32) -> Option<usize> {
    let free = !occupied & file_mask(n);
    let at_or_after = free & (u64::MAX << start);
    let pick = if at_or_after != 0 { at_or_after } else { free };
    (pick != 0).then(|| pick.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_walk_set_bits_lowest_first() {
        assert_eq!(Slots(0).collect::<Vec<_>>(), Vec::<usize>::new());
        assert_eq!(Slots(0b1010_0101).collect::<Vec<_>>(), [0, 2, 5, 7]);
        assert_eq!(Slots(1 << 63).collect::<Vec<_>>(), [63]);
    }

    /// The free-slot pick as a linear scan: start at `start`, wrap once.
    fn reference_rotation_scan(occupied: u64, n: usize, start: usize) -> Option<usize> {
        (0..n)
            .map(|k| (start + k) % n)
            .find(|&i| occupied & (1 << i) == 0)
    }

    #[test]
    fn first_free_matches_the_rotation_scan() {
        let mut x = 0x5eed_u64;
        let mut rand = || {
            x = crate::perturb::splitmix64(x);
            x
        };
        for n in [1usize, 7, 64] {
            let file = file_mask(n);
            let mut masks = vec![0, file];
            masks.extend((0..n).map(|i| file & !(1 << i)));
            for _ in 0..64 {
                let (a, b) = (rand(), rand());
                masks.extend([a, a | b, a & b, a | b | rand()].map(|m| m & file));
            }
            for &occupied in &masks {
                for start in 0..n {
                    assert_eq!(
                        first_free(occupied, n, start as u32),
                        reference_rotation_scan(occupied, n, start),
                        "n={n} start={start} occupied={occupied:#x}"
                    );
                }
            }
        }
    }
}
