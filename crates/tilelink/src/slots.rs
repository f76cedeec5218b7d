//! The slot file of the L1 MSHRs, the FSHRs and the L2 MSHRs.
//!
//! A [`SlotFile`] keeps one `u64` mask per state class beside its slots, one
//! bit per slot, so a walk visits only the slots whose bit is set and a
//! free-slot pick reads one word. Each slot type names its classes through
//! [`SlotState`]. Every walk is lowest slot first, the order a linear scan
//! of the file visits them in.

use skipit_snap::{Codec, SnapError, SnapReader, SnapWriter};

/// Largest slot file: one bit per slot in a `u64` mask.
pub const MAX_SLOTS: usize = 64;

/// A slot of a [`SlotFile`]. Class 0 is occupancy: a slot is in it unless
/// it is free, and a free slot is the [`Default`] one.
pub trait SlotState: Codec + Default {
    /// What [`SlotFile::set_state`] moves a slot to.
    type State;
    /// The class names (at most three), for [`SlotFile::check_masks`].
    const CLASSES: &'static [&'static str];
    /// The slot's class bits: bit `k` is set iff it is in class `k`.
    fn classes(&self) -> u32;
    /// Moves the slot to `state`.
    fn set_state(&mut self, state: Self::State);
}

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

/// The first free slot of an `n`-slot file (`n` in `1..=MAX_SLOTS`) with
/// occupancy `occupied`, scanning upward from `start` and wrapping: the
/// rotation scan `(start..n).chain(0..start)`, computed on the mask.
#[inline]
pub fn first_free(occupied: u64, n: usize, start: u32) -> Option<usize> {
    let free = !occupied & u64::MAX >> (MAX_SLOTS - n);
    let at_or_after = free & (u64::MAX << start);
    let pick = if at_or_after != 0 { at_or_after } else { free };
    (pick != 0).then(|| pick.trailing_zeros() as usize)
}

/// A fixed-size file of slots and their class masks.
#[derive(Debug)]
pub struct SlotFile<S> {
    slots: Vec<S>,
    /// Bit `i` of `masks[k]` is set iff `slots[i]` is in class `k`. Kept in
    /// step by every write of a slot; rebuilt on decode, never serialized.
    masks: [u64; 3],
}

/// Reading the slots: `file[i]`, `file.len()`, `file.iter()`.
impl<S> std::ops::Deref for SlotFile<S> {
    type Target = [S];
    fn deref(&self) -> &[S] {
        &self.slots
    }
}

impl<S: SlotState> SlotFile<S> {
    /// A file of `n` free slots, `n` in `1..=MAX_SLOTS`.
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=MAX_SLOTS).contains(&n),
            "{n} slots: not in 1..={MAX_SLOTS}"
        );
        let slots = (0..n).map(|_| S::default()).collect();
        SlotFile {
            slots,
            masks: [0; 3],
        }
    }

    /// Slot `i`, to change what its class bits do not depend on.
    pub fn slot_mut(&mut self, i: usize) -> &mut S {
        &mut self.slots[i]
    }

    /// The mask of class `k`.
    pub fn mask(&self, k: usize) -> u64 {
        self.masks[k]
    }

    /// The mask of occupied slots (class 0).
    pub fn occupied(&self) -> u64 {
        self.masks[0]
    }

    /// The occupied slots, lowest first.
    pub fn live(&self) -> impl Iterator<Item = &S> {
        Slots(self.masks[0]).map(|i| &self.slots[i])
    }

    /// How many slots are occupied.
    pub fn occupancy(&self) -> usize {
        self.masks[0].count_ones() as usize
    }

    /// The first free slot at or after `start`, wrapping ([`first_free`]).
    pub fn first_free(&self, start: u32) -> Option<usize> {
        first_free(self.masks[0], self.slots.len(), start)
    }

    /// Moves slot `i` to `state`: the one state setter.
    pub fn set_state(&mut self, i: usize, state: S::State) {
        self.slots[i].set_state(state);
        self.refresh(i);
    }

    /// Overwrites slot `i` with `slot`.
    pub fn put(&mut self, i: usize, slot: S) {
        self.slots[i] = slot;
        self.refresh(i);
    }

    /// Frees slot `i`.
    pub fn free(&mut self, i: usize) {
        self.put(i, S::default());
    }

    /// Re-derives slot `i`'s bit in every mask, without a branch.
    fn refresh(&mut self, i: usize) {
        let classes = self.slots[i].classes();
        for (k, mask) in self.masks.iter_mut().enumerate() {
            *mask = *mask & !(1 << i) | u64::from(classes >> k & 1) << i;
        }
    }

    /// Checks every mask against a scan of the slots, naming the first
    /// class whose mask disagrees.
    pub fn check_masks(&self) -> Result<(), String> {
        for (k, &mask) in self.masks.iter().enumerate() {
            let in_class = |&i: &usize| self.slots[i].classes() >> k & 1 != 0;
            let scan = (0..self.slots.len())
                .filter(in_class)
                .fold(0, |m, i| m | 1 << i);
            if mask != scan {
                let class = S::CLASSES.get(k).unwrap_or(&"undeclared class");
                return Err(format!("{class} mask {mask:#x}, slots {scan:#x}"));
            }
        }
        Ok(())
    }

    /// A decoded slot index, checked to lie inside the file.
    pub fn check_index(&self, i: usize, site: &'static str) -> Result<usize, SnapError> {
        (i < self.slots.len())
            .then_some(i)
            .ok_or(SnapError::Corrupt(site))
    }

    /// Encodes the slot count, then every slot.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        self.slots.encode(w);
    }

    /// Overwrites every slot from `r` and rebuilds the masks. A count past
    /// [`MAX_SLOTS`] is `Corrupt(site)`, another file length is
    /// `ConfigMismatch`; after an error the slots are unspecified.
    pub fn decode_state(
        &mut self,
        r: &mut SnapReader,
        site: &'static str,
    ) -> Result<(), SnapError> {
        if r.get_count(MAX_SLOTS, site)? != self.slots.len() {
            return Err(SnapError::ConfigMismatch);
        }
        for i in 0..self.slots.len() {
            self.slots[i] = S::decode(r)?;
            self.refresh(i);
        }
        Ok(())
    }
}
