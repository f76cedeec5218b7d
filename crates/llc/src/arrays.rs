//! L2 directory and banked data store.
//!
//! Each line's metadata carries the full-map directory bits the SiFive
//! inclusive cache keeps (§3.4): validity, the dirty bit, the set of L1
//! owners, and which owner (if any) holds write (Trunk) permission.

use crate::config::L2Config;
use skipit_tilelink::{AgentId, LineAddr, LineData, LINE_BYTES};

/// Directory entry for one L2 line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Tag bits.
    pub tag: u64,
    /// Whether the way holds a line.
    pub valid: bool,
    /// The line differs from main memory — the bit Skip It mirrors into the
    /// L1 skip bit (§6) and the bit that lets the L2 "trivially skip"
    /// redundant writebacks (§5.5).
    pub dirty: bool,
    /// Bitmask of client (L1) agents holding a copy.
    pub owners: u32,
    /// The single agent holding Trunk (write) permission, if any.
    pub trunk: Option<AgentId>,
    /// Reserved by an in-flight MSHR; excluded from victim selection.
    pub reserved: bool,
}

impl DirEntry {
    /// Whether agent `a` holds a copy.
    pub fn owns(&self, a: AgentId) -> bool {
        self.owners & (1 << a) != 0
    }

    /// Adds agent `a` as an owner, with Trunk permission if `trunk`.
    pub fn add_owner(&mut self, a: AgentId, trunk: bool) {
        self.owners |= 1 << a;
        if trunk {
            self.trunk = Some(a);
        }
    }

    /// Removes agent `a` as an owner (clearing Trunk if it held it).
    pub fn remove_owner(&mut self, a: AgentId) {
        self.owners &= !(1 << a);
        if self.trunk == Some(a) {
            self.trunk = None;
        }
    }

    /// Iterates over owner agent ids.
    pub fn owner_ids(&self) -> impl Iterator<Item = AgentId> + '_ {
        (0..32).filter(|&a| self.owns(a))
    }

    /// Number of owners.
    pub fn owner_count(&self) -> usize {
        self.owners.count_ones() as usize
    }
}

/// log2 of the line size, for shift-based address splitting.
const LINE_SHIFT: u32 = (LINE_BYTES as u64).trailing_zeros();

/// The L2 directory + banked store.
#[derive(Debug)]
pub struct L2Arrays {
    sets: usize,
    ways: usize,
    /// `log2(sets)` — same shift/mask address split as the L1 arrays: set
    /// counts are validated power-of-two, and the two 64-bit divides per
    /// `lookup` showed up on every directory walk of the busy path.
    set_bits: u32,
    dir: Vec<DirEntry>,
    data: Vec<LineData>,
    lru: Vec<u64>,
    tick: u64,
}

impl L2Arrays {
    /// Allocates empty arrays.
    pub fn new(cfg: &L2Config) -> Self {
        assert!(cfg.sets.is_power_of_two(), "l2.sets must be a power of two");
        let n = cfg.sets * cfg.ways;
        L2Arrays {
            sets: cfg.sets,
            ways: cfg.ways,
            set_bits: cfg.sets.trailing_zeros(),
            dir: vec![DirEntry::default(); n],
            data: vec![LineData::zeroed(); n],
            lru: vec![0; n],
            tick: 0,
        }
    }

    /// Set index of `addr`.
    pub fn set_index(&self, addr: LineAddr) -> usize {
        ((addr.base() >> LINE_SHIFT) & (self.sets as u64 - 1)) as usize
    }

    fn tag(&self, addr: LineAddr) -> u64 {
        addr.base() >> (LINE_SHIFT + self.set_bits)
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Line address stored in `(set, way)` (meaningful when valid).
    pub fn addr_of(&self, set: usize, way: usize) -> LineAddr {
        let e = &self.dir[self.slot(set, way)];
        LineAddr::new((e.tag << self.set_bits | set as u64) << LINE_SHIFT)
    }

    /// Looks up `addr`, returning its way if resident.
    pub fn lookup(&self, addr: LineAddr) -> Option<usize> {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        (0..self.ways).find(|&w| {
            let e = &self.dir[self.slot(set, w)];
            e.valid && e.tag == tag
        })
    }

    /// Directory access.
    pub fn dir(&self, set: usize, way: usize) -> &DirEntry {
        &self.dir[self.slot(set, way)]
    }

    /// Mutable directory access.
    pub fn dir_mut(&mut self, set: usize, way: usize) -> &mut DirEntry {
        let s = self.slot(set, way);
        &mut self.dir[s]
    }

    /// Banked-store read.
    pub fn line(&self, set: usize, way: usize) -> LineData {
        self.data[self.slot(set, way)]
    }

    /// Banked-store write.
    pub fn set_line(&mut self, set: usize, way: usize, data: LineData) {
        let s = self.slot(set, way);
        self.data[s] = data;
    }

    /// Marks `(set, way)` most recently used.
    pub fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        let s = self.slot(set, way);
        self.lru[s] = self.tick;
    }

    /// Chooses a victim way in `addr`'s set (invalid preferred, else LRU),
    /// skipping reserved ways. `None` when every way is reserved.
    pub fn victim_way(&self, addr: LineAddr) -> Option<usize> {
        let set = self.set_index(addr);
        let mut best: Option<(usize, u64)> = None;
        for w in 0..self.ways {
            let e = &self.dir[self.slot(set, w)];
            if e.reserved {
                continue;
            }
            if !e.valid {
                return Some(w);
            }
            let stamp = self.lru[self.slot(set, w)];
            if best.is_none_or(|(_, s)| stamp < s) {
                best = Some((w, stamp));
            }
        }
        best.map(|(w, _)| w)
    }

    /// Installs a fresh line (from memory), with no owners and clean.
    pub fn install(&mut self, addr: LineAddr, way: usize, data: LineData) {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let s = self.slot(set, way);
        self.dir[s] = DirEntry {
            tag,
            valid: true,
            dirty: false,
            owners: 0,
            trunk: None,
            reserved: self.dir[s].reserved,
        };
        self.data[s] = data;
        self.touch(set, way);
    }

    /// Number of valid lines (test/debug helper).
    pub fn valid_lines(&self) -> usize {
        self.dir.iter().filter(|e| e.valid).count()
    }
}

// --- snapshot codec (DESIGN.md §11) ---

use skipit_snap::{codec, Codec, SnapError, SnapReader, SnapWriter};

codec!(DirEntry {
    tag,
    valid,
    dirty,
    owners,
    trunk,
    reserved,
});

impl L2Arrays {
    /// Whether way slot `i` carries no information: pristine directory
    /// entry, zero data, zero LRU stamp (collapses to one flag byte).
    fn way_is_pristine(&self, i: usize) -> bool {
        self.dir[i] == DirEntry::default() && self.lru[i] == 0 && self.data[i].0 == [0u64; 8]
    }

    /// Encodes the L2 arrays' simulated state; same shape and rationale as
    /// the L1 `CacheArrays::encode_state` (stale data of invalid ways is
    /// preserved bit-for-bit, pristine ways collapse to a flag byte).
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(0x32);
        self.sets.encode(w);
        self.ways.encode(w);
        for i in 0..self.dir.len() {
            if self.way_is_pristine(i) {
                w.put_u8(0);
            } else {
                w.put_u8(1);
                self.dir[i].encode(w);
                self.data[i].encode(w);
                self.lru[i].encode(w);
            }
        }
        self.tick.encode(w);
    }

    /// Overwrites the arrays' simulated state from `r`; geometry must
    /// match.
    pub fn decode_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(0x32, "l2 arrays section")?;
        if usize::decode(r)? != self.sets || usize::decode(r)? != self.ways {
            return Err(SnapError::ConfigMismatch);
        }
        for i in 0..self.dir.len() {
            match r.get_u8()? {
                0 => {
                    self.dir[i] = DirEntry::default();
                    self.data[i] = LineData::zeroed();
                    self.lru[i] = 0;
                }
                1 => {
                    self.dir[i] = DirEntry::decode(r)?;
                    self.data[i] = LineData::decode(r)?;
                    self.lru[i] = u64::decode(r)?;
                }
                _ => return Err(SnapError::Corrupt("l2 way flag")),
            }
        }
        self.tick = u64::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_entry_owner_tracking() {
        let mut e = DirEntry::default();
        e.add_owner(0, false);
        e.add_owner(3, true);
        assert!(e.owns(0) && e.owns(3) && !e.owns(1));
        assert_eq!(e.trunk, Some(3));
        assert_eq!(e.owner_count(), 2);
        assert_eq!(e.owner_ids().collect::<Vec<_>>(), vec![0, 3]);
        e.remove_owner(3);
        assert_eq!(e.trunk, None);
        assert!(!e.owns(3));
    }

    #[test]
    fn install_lookup_roundtrip() {
        let cfg = L2Config::default();
        let mut a = L2Arrays::new(&cfg);
        let addr = LineAddr::new(0x123 * 64);
        let mut d = LineData::zeroed();
        d.set_word(1, 5);
        a.install(addr, 2, d);
        let w = a.lookup(addr).unwrap();
        assert_eq!(w, 2);
        let set = a.set_index(addr);
        assert_eq!(a.line(set, w).word(1), 5);
        assert_eq!(a.addr_of(set, w), addr);
        assert!(!a.dir(set, w).dirty);
    }

    #[test]
    fn victim_selection_prefers_invalid_then_lru() {
        let cfg = L2Config {
            sets: 4,
            ways: 2,
            ..L2Config::default()
        };
        let mut a = L2Arrays::new(&cfg);
        let addr = LineAddr::new(0);
        a.install(addr, 0, LineData::zeroed());
        assert_eq!(a.victim_way(addr), Some(1));
        a.install(addr.offset_lines(4), 1, LineData::zeroed()); // same set
        assert_eq!(a.victim_way(addr), Some(0));
        a.touch(a.set_index(addr), 0);
        assert_eq!(a.victim_way(addr), Some(1));
    }
}
