//! The set-associative cache array both cache levels are built on.
//!
//! Per way it stores a tag, the level's own line metadata, the line data
//! and an LRU stamp. The L1 and the L2 differ only in that metadata (the
//! L1's MESI state and skip bit, the L2's directory entry), which plugs in
//! through [`WayMeta`]; the address split, lookup, victim choice, install
//! and the snapshot section exist once, here.

use crate::line::{LineAddr, LineData, LINE_BYTES};
use skipit_snap::{Codec, SnapError, SnapReader, SnapWriter};

/// One way's metadata, as the array reads it.
pub trait WayMeta: Codec + Copy + Default + PartialEq {
    /// Tag byte of the array's snapshot section.
    const SECTION_TAG: u8;
    /// `Corrupt` site of a wrong section tag.
    const SECTION_SITE: &'static str;
    /// `Corrupt` site of a way flag byte other than 0 or 1.
    const FLAG_SITE: &'static str;

    /// Whether the way holds a line.
    fn valid(&self) -> bool;
    /// Whether an in-flight MSHR holds the way, so it is never a victim.
    fn reserved(&self) -> bool;
    /// The stored tag.
    fn tag(&self) -> u64;
    /// Overwrites the stored tag.
    fn set_tag(&mut self, tag: u64);
}

/// log2 of the line size, for shift-based address splitting.
const LINE_SHIFT: u32 = (LINE_BYTES as u64).trailing_zeros();

/// Tags, metadata, data and LRU stamps of a `sets × ways` cache.
#[derive(Debug)]
pub struct SetAssocArray<M> {
    sets: usize,
    ways: usize,
    /// `log2(sets)`. Set counts are power-of-two, so index/tag extraction
    /// is a shift and mask instead of two 64-bit divides — the divides
    /// dominated `lookup`, which runs several times per busy cycle (hit
    /// checks, victim picks, probe, flush and directory walks).
    set_bits: u32,
    meta: Vec<M>,
    data: Vec<LineData>,
    /// Monotonic last-use stamps for LRU victim selection.
    lru: Vec<u64>,
    tick: u64,
}

impl<M: WayMeta> SetAssocArray<M> {
    /// Allocates empty arrays. Panics unless `sets` is a power of two.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        let n = sets * ways;
        SetAssocArray {
            sets,
            ways,
            set_bits: sets.trailing_zeros(),
            meta: vec![M::default(); n],
            data: vec![LineData::zeroed(); n],
            lru: vec![0; n],
            tick: 0,
        }
    }

    /// Set index for a line address.
    pub fn set_index(&self, addr: LineAddr) -> usize {
        ((addr.base() >> LINE_SHIFT) & (self.sets as u64 - 1)) as usize
    }

    fn tag(&self, addr: LineAddr) -> u64 {
        addr.base() >> (LINE_SHIFT + self.set_bits)
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Reconstructs the line address stored in `(set, way)` (meaningful
    /// when the way is valid).
    pub fn addr_of(&self, set: usize, way: usize) -> LineAddr {
        let tag = self.meta[self.slot(set, way)].tag();
        LineAddr::new((tag << self.set_bits | set as u64) << LINE_SHIFT)
    }

    /// Looks up `addr`; returns its way if a valid way holds it.
    pub fn lookup(&self, addr: LineAddr) -> Option<usize> {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        (0..self.ways).find(|&w| {
            let e = &self.meta[self.slot(set, w)];
            e.valid() && e.tag() == tag
        })
    }

    /// Metadata of `(set, way)`.
    pub fn meta(&self, set: usize, way: usize) -> &M {
        &self.meta[self.slot(set, way)]
    }

    /// Mutable metadata of `(set, way)`.
    pub fn meta_mut(&mut self, set: usize, way: usize) -> &mut M {
        let s = self.slot(set, way);
        &mut self.meta[s]
    }

    /// Reads a full line from the data array.
    pub fn line(&self, set: usize, way: usize) -> LineData {
        self.data[self.slot(set, way)]
    }

    /// A line's data, for a whole-line write or in-place word updates.
    pub fn line_mut(&mut self, set: usize, way: usize) -> &mut LineData {
        let s = self.slot(set, way);
        &mut self.data[s]
    }

    /// Marks `(set, way)` as most recently used.
    pub fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        let s = self.slot(set, way);
        self.lru[s] = self.tick;
    }

    /// Chooses an eviction victim in `addr`'s set: an invalid, unreserved
    /// way if one exists, otherwise the least-recently-used unreserved way.
    /// Returns `None` if every way is reserved by an MSHR.
    pub fn victim_way(&self, addr: LineAddr) -> Option<usize> {
        let set = self.set_index(addr);
        let mut best: Option<(usize, u64)> = None;
        for w in 0..self.ways {
            let s = self.slot(set, w);
            let e = &self.meta[s];
            if e.reserved() {
                continue;
            }
            if !e.valid() {
                return Some(w);
            }
            let stamp = self.lru[s];
            if best.is_none_or(|(_, b)| stamp < b) {
                best = Some((w, stamp));
            }
        }
        best.map(|(w, _)| w)
    }

    /// Installs `addr` into `(set, way)` with metadata `meta` (its tag is
    /// overwritten with `addr`'s) and line `data`, and marks it most
    /// recently used.
    pub fn install(&mut self, addr: LineAddr, way: usize, mut meta: M, data: LineData) {
        let set = self.set_index(addr);
        meta.set_tag(self.tag(addr));
        let s = self.slot(set, way);
        self.meta[s] = meta;
        self.data[s] = data;
        self.touch(set, way);
    }

    /// A decoded `(set, way)` reference, checked against the geometry: past
    /// it, a way would alias another set's way or lie outside the array.
    pub fn check_way(&self, set: usize, way: usize, site: &'static str) -> Result<(), SnapError> {
        if set < self.sets && way < self.ways {
            Ok(())
        } else {
            Err(SnapError::Corrupt(site))
        }
    }

    /// Iterates over all valid `(set, way, addr, metadata)` tuples.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, usize, LineAddr, &M)> + '_ {
        (0..self.sets).flat_map(move |set| {
            (0..self.ways).filter_map(move |way| {
                let e = &self.meta[self.slot(set, way)];
                e.valid().then(|| (set, way, self.addr_of(set, way), e))
            })
        })
    }

    // --- snapshot codec (DESIGN.md §11) ---

    /// Whether way slot `i` carries no information at all: pristine
    /// metadata, zero data, zero LRU stamp. Such ways (the vast majority in
    /// a warm-up-phase snapshot) collapse to one flag byte.
    fn way_is_pristine(&self, i: usize) -> bool {
        self.meta[i] == M::default() && self.lru[i] == 0 && self.data[i].0 == [0u64; 8]
    }

    /// Encodes the arrays' simulated state: per-way metadata + line data +
    /// LRU stamp (pristine ways collapse to a flag byte) and the LRU tick.
    /// Geometry travels along and is validated on decode. Note the data of
    /// *invalid but previously used* ways is preserved bit-for-bit: stale
    /// array contents are microarchitecturally observable (victim fills,
    /// state digests), so a round trip must not launder them.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(M::SECTION_TAG);
        self.sets.encode(w);
        self.ways.encode(w);
        for i in 0..self.meta.len() {
            if self.way_is_pristine(i) {
                w.put_u8(0);
            } else {
                w.put_u8(1);
                self.meta[i].encode(w);
                self.data[i].encode(w);
                self.lru[i].encode(w);
            }
        }
        self.tick.encode(w);
    }

    /// Overwrites the arrays' simulated state from `r` (the inverse of
    /// [`SetAssocArray::encode_state`]); geometry must match.
    pub fn decode_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(M::SECTION_TAG, M::SECTION_SITE)?;
        if usize::decode(r)? != self.sets || usize::decode(r)? != self.ways {
            return Err(SnapError::ConfigMismatch);
        }
        for i in 0..self.meta.len() {
            match r.get_u8()? {
                0 => {
                    self.meta[i] = M::default();
                    self.data[i] = LineData::zeroed();
                    self.lru[i] = 0;
                }
                1 => {
                    self.meta[i] = M::decode(r)?;
                    self.data[i] = LineData::decode(r)?;
                    self.lru[i] = u64::decode(r)?;
                }
                _ => return Err(SnapError::Corrupt(M::FLAG_SITE)),
            }
        }
        self.tick = u64::decode(r)?;
        Ok(())
    }
}
