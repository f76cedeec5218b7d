//! The L1 metadata and data arrays.
//!
//! The metadata array stores, per line: tag, MESI coherence state, and — the
//! paper's §6 extension — the **skip bit**. (The dirty bit is folded into the
//! `Modified` state.) The data array in the paper was widened so a full line
//! can be read in one cycle (§5.2); here reads are naturally whole-line.

use crate::config::L1Config;
use skipit_tilelink::{ClientState, LineAddr, LineData, LINE_BYTES};

/// One metadata entry (one way of one set).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaEntry {
    /// Tag (the line base address shifted past index bits).
    pub tag: u64,
    /// MESI state; `Invalid` means the way is empty.
    pub state: ClientState,
    /// Skip It's per-line persistence hint (§6): when the line is valid and
    /// clean, `skip == !dirty_in_L2`, so a set skip bit proves the line is
    /// persisted and its writeback may be dropped.
    pub skip: bool,
    /// The way is reserved by an in-flight MSHR refill and must not be chosen
    /// as an eviction victim.
    pub reserved: bool,
}

/// log2 of the line size, for shift-based address splitting.
const LINE_SHIFT: u32 = (LINE_BYTES as u64).trailing_zeros();

/// Combined metadata + data arrays with LRU tracking.
#[derive(Debug)]
pub struct CacheArrays {
    sets: usize,
    ways: usize,
    /// `log2(sets)`. Set counts are validated power-of-two, so index/tag
    /// extraction is a shift and mask instead of two 64-bit divides — the
    /// divides dominated `lookup`, which runs several times per busy cycle
    /// (hit checks, victim picks, probe and flush FSM walks).
    set_bits: u32,
    meta: Vec<MetaEntry>,
    data: Vec<LineData>,
    /// Monotonic last-use stamps for LRU victim selection.
    lru: Vec<u64>,
    tick: u64,
}

/// Identifies a way within a set.
pub type Way = usize;

impl CacheArrays {
    /// Allocates empty arrays for `cfg`.
    pub fn new(cfg: &L1Config) -> Self {
        assert!(cfg.sets.is_power_of_two(), "l1.sets must be a power of two");
        let n = cfg.sets * cfg.ways;
        CacheArrays {
            sets: cfg.sets,
            ways: cfg.ways,
            set_bits: cfg.sets.trailing_zeros(),
            meta: vec![MetaEntry::default(); n],
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

    fn slot(&self, set: usize, way: Way) -> usize {
        set * self.ways + way
    }

    /// Reconstructs the line address stored in `(set, way)`.
    pub fn addr_of(&self, set: usize, way: Way) -> LineAddr {
        let e = &self.meta[self.slot(set, way)];
        LineAddr::new((e.tag << self.set_bits | set as u64) << LINE_SHIFT)
    }

    /// Looks up `addr`; returns its way if present (any valid state).
    pub fn lookup(&self, addr: LineAddr) -> Option<Way> {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        (0..self.ways).find(|&w| {
            let e = &self.meta[self.slot(set, w)];
            e.state != ClientState::Invalid && e.tag == tag
        })
    }

    /// Immutable metadata access.
    pub fn meta(&self, set: usize, way: Way) -> &MetaEntry {
        &self.meta[self.slot(set, way)]
    }

    /// Mutable metadata access.
    pub fn meta_mut(&mut self, set: usize, way: Way) -> &mut MetaEntry {
        let s = self.slot(set, way);
        &mut self.meta[s]
    }

    /// Reads a full line from the data array (single cycle per §5.2).
    pub fn line(&self, set: usize, way: Way) -> LineData {
        self.data[self.slot(set, way)]
    }

    /// Reference to a line's data for in-place word updates.
    pub fn line_mut(&mut self, set: usize, way: Way) -> &mut LineData {
        let s = self.slot(set, way);
        &mut self.data[s]
    }

    /// Marks `(set, way)` as most recently used.
    pub fn touch(&mut self, set: usize, way: Way) {
        self.tick += 1;
        let s = self.slot(set, way);
        self.lru[s] = self.tick;
    }

    /// Chooses an eviction victim in `addr`'s set: an invalid, unreserved way
    /// if one exists, otherwise the least-recently-used unreserved way.
    /// Returns `None` if every way is reserved by an MSHR.
    pub fn victim_way(&self, addr: LineAddr) -> Option<Way> {
        let set = self.set_index(addr);
        let mut best: Option<(Way, u64)> = None;
        for w in 0..self.ways {
            let e = &self.meta[self.slot(set, w)];
            if e.reserved {
                continue;
            }
            if e.state == ClientState::Invalid {
                return Some(w);
            }
            let stamp = self.lru[self.slot(set, w)];
            if best.is_none_or(|(_, s)| stamp < s) {
                best = Some((w, stamp));
            }
        }
        best.map(|(w, _)| w)
    }

    /// Installs a line into `(set, way)` (an MSHR refill).
    pub fn install(
        &mut self,
        addr: LineAddr,
        way: Way,
        state: ClientState,
        skip: bool,
        data: LineData,
    ) {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let s = self.slot(set, way);
        self.meta[s] = MetaEntry {
            tag,
            state,
            skip,
            reserved: false,
        };
        self.data[s] = data;
        self.touch(set, way);
    }

    /// Number of valid lines currently resident (test/debug helper).
    pub fn valid_lines(&self) -> usize {
        self.meta
            .iter()
            .filter(|e| e.state != ClientState::Invalid)
            .count()
    }

    /// Iterates over all valid `(set, way, addr, state)` tuples.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, Way, LineAddr, ClientState)> + '_ {
        (0..self.sets).flat_map(move |set| {
            (0..self.ways).filter_map(move |way| {
                let e = &self.meta[self.slot(set, way)];
                (e.state != ClientState::Invalid)
                    .then(|| (set, way, self.addr_of(set, way), e.state))
            })
        })
    }
}

// --- snapshot codec (DESIGN.md §11) ---

use skipit_snap::{codec, Codec, SnapError, SnapReader, SnapWriter};

codec!(MetaEntry {
    tag,
    state,
    skip,
    reserved,
});

impl CacheArrays {
    /// Whether way slot `i` carries no information at all: pristine
    /// metadata, zero data, zero LRU stamp. Such ways (the vast majority in
    /// a warm-up-phase snapshot) collapse to one flag byte.
    fn way_is_pristine(&self, i: usize) -> bool {
        self.meta[i] == MetaEntry::default() && self.lru[i] == 0 && self.data[i].0 == [0u64; 8]
    }

    /// Encodes the arrays' simulated state: per-way metadata + line data +
    /// LRU stamp (pristine ways collapse to a flag byte) and the LRU tick.
    /// Geometry travels along and is validated on decode. Note the data of
    /// *invalid but previously used* ways is preserved bit-for-bit: stale
    /// array contents are microarchitecturally observable (victim fills,
    /// state digests), so a round trip must not launder them.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(0x41);
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
    /// [`CacheArrays::encode_state`]); geometry must match.
    pub fn decode_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(0x41, "cache arrays section")?;
        if usize::decode(r)? != self.sets || usize::decode(r)? != self.ways {
            return Err(SnapError::ConfigMismatch);
        }
        for i in 0..self.meta.len() {
            match r.get_u8()? {
                0 => {
                    self.meta[i] = MetaEntry::default();
                    self.data[i] = LineData::zeroed();
                    self.lru[i] = 0;
                }
                1 => {
                    self.meta[i] = MetaEntry::decode(r)?;
                    self.data[i] = LineData::decode(r)?;
                    self.lru[i] = u64::decode(r)?;
                }
                _ => return Err(SnapError::Corrupt("cache way flag")),
            }
        }
        self.tick = u64::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrays() -> CacheArrays {
        CacheArrays::new(&L1Config::default())
    }

    #[test]
    fn lookup_miss_on_empty() {
        let a = arrays();
        assert_eq!(a.lookup(LineAddr::new(0x1000)), None);
    }

    #[test]
    fn install_then_lookup() {
        let mut a = arrays();
        let addr = LineAddr::new(0x4_0000);
        a.install(addr, 3, ClientState::Exclusive, true, LineData::zeroed());
        let w = a.lookup(addr).expect("installed line must hit");
        assert_eq!(w, 3);
        let set = a.set_index(addr);
        assert_eq!(a.meta(set, w).state, ClientState::Exclusive);
        assert!(a.meta(set, w).skip);
        assert_eq!(a.addr_of(set, w), addr);
    }

    #[test]
    fn same_set_different_tag_does_not_alias() {
        let mut a = arrays();
        let sets = 64u64;
        let addr1 = LineAddr::new(0);
        let addr2 = LineAddr::new(sets * 64); // same set 0, different tag
        assert_eq!(a.set_index(addr1), a.set_index(addr2));
        a.install(addr1, 0, ClientState::Shared, false, LineData::zeroed());
        assert_eq!(a.lookup(addr2), None);
    }

    #[test]
    fn victim_prefers_invalid_way() {
        let mut a = arrays();
        let addr = LineAddr::new(0x40);
        a.install(addr, 0, ClientState::Modified, false, LineData::zeroed());
        let v = a.victim_way(addr).unwrap();
        assert_ne!(v, 0, "an invalid way must be preferred over a valid one");
    }

    #[test]
    fn victim_is_lru_when_set_full() {
        let mut a = arrays();
        let base = LineAddr::new(0);
        // Fill set 0 entirely; way filled first is least recently used.
        for w in 0..8 {
            let addr = base.offset_lines(64 * w as u64); // stride = sets → same set
            a.install(addr, w, ClientState::Shared, false, LineData::zeroed());
        }
        assert_eq!(a.victim_way(base), Some(0));
        a.touch(0, 0);
        assert_eq!(a.victim_way(base), Some(1));
    }

    #[test]
    fn reserved_ways_are_not_victims() {
        let mut a = arrays();
        let addr = LineAddr::new(0);
        for w in 0..8 {
            a.install(
                addr.offset_lines(64 * w as u64),
                w,
                ClientState::Shared,
                false,
                LineData::zeroed(),
            );
        }
        for w in 0..8 {
            a.meta_mut(0, w).reserved = true;
        }
        assert_eq!(a.victim_way(addr), None);
        a.meta_mut(0, 5).reserved = false;
        assert_eq!(a.victim_way(addr), Some(5));
    }

    #[test]
    fn iter_valid_counts() {
        let mut a = arrays();
        assert_eq!(a.valid_lines(), 0);
        a.install(
            LineAddr::new(0x40),
            0,
            ClientState::Modified,
            false,
            LineData::zeroed(),
        );
        assert_eq!(a.valid_lines(), 1);
        assert_eq!(a.iter_valid().count(), 1);
    }
}
