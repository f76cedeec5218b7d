//! The L2's per-way metadata: the directory entry its [`SetAssocArray`](skipit_tilelink::array::SetAssocArray)
//! (the directory and banked data store) keeps beside each tag.
//!
//! Each line's metadata carries the full-map directory bits the SiFive
//! inclusive cache keeps (§3.4): validity, the dirty bit, the set of L1
//! owners, and which owner (if any) holds write (Trunk) permission.

use skipit_snap::codec;
use skipit_tilelink::array::WayMeta;
use skipit_tilelink::AgentId;

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

    /// A line fresh from memory: valid, clean, no owners. `reserved` is
    /// the way's MSHR reservation, which the fill keeps (the tag is set by
    /// [`SetAssocArray::install`](skipit_tilelink::array::SetAssocArray::install)).
    pub fn filled(reserved: bool) -> Self {
        DirEntry {
            valid: true,
            reserved,
            ..DirEntry::default()
        }
    }
}

impl WayMeta for DirEntry {
    const SECTION_TAG: u8 = 0x32;
    const SECTION_SITE: &'static str = "l2 arrays section";
    const FLAG_SITE: &'static str = "l2 way flag";

    fn valid(&self) -> bool {
        self.valid
    }
    fn reserved(&self) -> bool {
        self.reserved
    }
    fn tag(&self) -> u64 {
        self.tag
    }
    fn set_tag(&mut self, tag: u64) {
        self.tag = tag;
    }
}

// --- snapshot codec (DESIGN.md §11) ---

codec!(DirEntry {
    tag,
    valid,
    dirty,
    owners,
    trunk,
    reserved,
});

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
    fn a_fill_is_clean_and_unowned_and_keeps_the_reservation() {
        for reserved in [false, true] {
            let e = DirEntry::filled(reserved);
            assert!(e.valid && !e.dirty && e.owner_count() == 0 && e.trunk.is_none());
            assert_eq!(e.reserved, reserved);
        }
    }
}
