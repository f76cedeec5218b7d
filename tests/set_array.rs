//! The set-associative array both cache levels are built on
//! (`skipit_tilelink::array`), checked as one table of cases run over the
//! L1's `MetaEntry` and the L2's `DirEntry`, each at its level's default
//! geometry.

use skipit_dcache::meta::MetaEntry;
use skipit_dcache::L1Config;
use skipit_llc::arrays::DirEntry;
use skipit_llc::L2Config;
use skipit_snap::{Codec, SnapError, SnapReader, SnapWriter};
use skipit_tilelink::array::{SetAssocArray, WayMeta};
use skipit_tilelink::{ClientState, LineAddr, LineData};
use std::fmt::Debug;

/// What the cases need of a cache level beyond [`WayMeta`].
trait Level: WayMeta + Debug {
    /// `(sets, ways)` of the level's default configuration.
    fn geometry() -> (usize, usize);
    /// The `Corrupt` sites of a wrong section tag and of a bad way flag,
    /// as earlier snapshots reported them.
    const SITES: (&'static str, &'static str);
    /// A valid, unreserved entry with non-default line state.
    fn line() -> Self;
    fn set_reserved(&mut self, on: bool);
    /// Invalidates the way as the level's eviction does, leaving the
    /// rest of the entry stale.
    fn invalidate(&mut self);
}

impl Level for MetaEntry {
    fn geometry() -> (usize, usize) {
        let cfg = L1Config::default();
        (cfg.sets, cfg.ways)
    }
    const SITES: (&'static str, &'static str) = ("cache arrays section", "cache way flag");
    fn line() -> Self {
        MetaEntry::filled(ClientState::Exclusive, true)
    }
    fn set_reserved(&mut self, on: bool) {
        self.reserved = on;
    }
    fn invalidate(&mut self) {
        self.state = ClientState::Invalid;
    }
}

impl Level for DirEntry {
    fn geometry() -> (usize, usize) {
        let cfg = L2Config::default();
        (cfg.sets, cfg.ways)
    }
    const SITES: (&'static str, &'static str) = ("l2 arrays section", "l2 way flag");
    fn line() -> Self {
        let mut e = DirEntry::filled(false);
        e.dirty = true;
        e.add_owner(1, true);
        e
    }
    fn set_reserved(&mut self, on: bool) {
        self.reserved = on;
    }
    fn invalidate(&mut self) {
        self.valid = false;
    }
}

fn arrays<M: Level>() -> SetAssocArray<M> {
    let (sets, ways) = M::geometry();
    SetAssocArray::new(sets, ways)
}

/// The `n`th line of set 0: a stride of `sets` lines keeps the set.
fn set0<M: Level>(n: usize) -> LineAddr {
    LineAddr::new(0).offset_lines((n * M::geometry().0) as u64)
}

/// Fills every way `w` of set 0 with line `set0(w)`, way 0 first.
fn fill_set0<M: Level>(a: &mut SetAssocArray<M>) {
    for w in 0..M::geometry().1 {
        a.install(set0::<M>(w), w, M::line(), LineData::zeroed());
    }
}

fn encode<M: Level>(a: &SetAssocArray<M>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    a.encode_state(&mut w);
    w.into_bytes()
}

fn decode<M: Level>(a: &mut SetAssocArray<M>, bytes: &[u8]) -> Result<(), SnapError> {
    let mut r = SnapReader::new(bytes);
    a.decode_state(&mut r)?;
    r.finish()
}

fn lookup_misses_on_empty<M: Level>() {
    assert_eq!(arrays::<M>().lookup(LineAddr::new(0x1000)), None);
}

fn install_then_lookup<M: Level>() {
    let mut a = arrays::<M>();
    let addr = LineAddr::new(0x123 * 64);
    let mut data = LineData::zeroed();
    data.set_word(1, 5);
    a.install(addr, 3, M::line(), data);
    assert_eq!(a.lookup(addr), Some(3));
    let set = a.set_index(addr);
    let mut meta = *a.meta(set, 3);
    assert_eq!(a.addr_of(set, 3), addr);
    meta.set_tag(M::line().tag());
    assert_eq!(meta, M::line(), "install writes the metadata it is given");
    assert_eq!(a.line(set, 3).word(1), 5);
}

/// Install writes the given reserved bit whatever the way held: the L1
/// passes an unreserved entry, the L2 passes the way's own reservation.
fn install_writes_the_given_reserved_bit<M: Level>() {
    let mut a = arrays::<M>();
    let addr = LineAddr::new(0x40);
    let set = a.set_index(addr);
    a.meta_mut(set, 0).set_reserved(true);
    a.install(addr, 0, M::line(), LineData::zeroed());
    assert!(!a.meta(set, 0).reserved());
    let mut kept = M::line();
    kept.set_reserved(true);
    a.install(addr, 0, kept, LineData::zeroed());
    assert!(a.meta(set, 0).reserved());
}

fn same_set_different_tag_does_not_alias<M: Level>() {
    let mut a = arrays::<M>();
    assert_eq!(a.set_index(set0::<M>(0)), a.set_index(set0::<M>(1)));
    a.install(set0::<M>(0), 0, M::line(), LineData::zeroed());
    assert_eq!(a.lookup(set0::<M>(1)), None);
}

fn victim_prefers_invalid_way<M: Level>() {
    let mut a = arrays::<M>();
    a.install(set0::<M>(0), 0, M::line(), LineData::zeroed());
    assert_eq!(a.victim_way(set0::<M>(0)), Some(1));
}

fn victim_is_lru_when_set_full<M: Level>() {
    let mut a = arrays::<M>();
    fill_set0(&mut a);
    assert_eq!(a.victim_way(set0::<M>(0)), Some(0));
    a.touch(0, 0);
    assert_eq!(a.victim_way(set0::<M>(0)), Some(1));
}

fn reserved_ways_are_not_victims<M: Level>() {
    let mut a = arrays::<M>();
    fill_set0(&mut a);
    for w in 0..M::geometry().1 {
        a.meta_mut(0, w).set_reserved(true);
    }
    assert_eq!(a.victim_way(set0::<M>(0)), None);
    a.meta_mut(0, 5).set_reserved(false);
    assert_eq!(a.victim_way(set0::<M>(0)), Some(5));
}

fn iter_valid_yields_each_valid_way<M: Level>() {
    let mut a = arrays::<M>();
    assert_eq!(a.iter_valid().count(), 0);
    a.install(set0::<M>(0), 0, M::line(), LineData::zeroed());
    a.install(set0::<M>(1), 1, M::line(), LineData::zeroed());
    a.meta_mut(0, 0).invalidate();
    let valid: Vec<_> = a
        .iter_valid()
        .map(|(s, w, addr, m)| (s, w, addr, *m))
        .collect();
    assert_eq!(valid, [(0, 1, set0::<M>(1), *a.meta(0, 1))]);
}

/// A way that was filled, touched and invalidated keeps its stale tag,
/// metadata, data and LRU stamp through a snapshot round trip.
fn stale_way_round_trips_bit_for_bit<M: Level>() {
    let mut a = arrays::<M>();
    let pristine = encode(&a);
    let mut data = LineData::zeroed();
    data.set_word(7, 0xdead_beef);
    a.install(set0::<M>(2), 4, M::line(), data);
    a.touch(0, 4);
    a.meta_mut(0, 4).invalidate();
    let bytes = encode(&a);
    assert!(
        bytes.len() > pristine.len(),
        "the stale way must not collapse"
    );

    let mut b = arrays::<M>();
    decode(&mut b, &bytes).expect("round trip decodes");
    assert_eq!(encode(&b), bytes);
    assert_eq!(b.lookup(set0::<M>(2)), None);
    assert_eq!(b.meta(0, 4), a.meta(0, 4));
    assert_eq!(b.line(0, 4), data);
    assert_eq!(b.addr_of(0, 4), set0::<M>(2));
}

fn geometry_mismatch_is_config_mismatch<M: Level>() {
    let bytes = encode(&arrays::<M>());
    let (sets, ways) = M::geometry();
    for (s, w) in [(sets / 2, ways), (sets, ways / 2)] {
        let mut other = SetAssocArray::<M>::new(s, w);
        assert_eq!(decode(&mut other, &bytes), Err(SnapError::ConfigMismatch));
    }
}

fn bad_section_and_way_flag_are_corrupt<M: Level>() {
    let (sets, ways) = M::geometry();
    let section = |tag: u8, flag: u8| {
        let mut w = SnapWriter::new();
        w.tag(tag);
        sets.encode(&mut w);
        ways.encode(&mut w);
        w.put_u8(flag);
        w.into_bytes()
    };
    let mut a = arrays::<M>();
    let (section_site, flag_site) = M::SITES;
    let wrong_tag = section(M::SECTION_TAG ^ 0xff, 0);
    assert_eq!(
        decode(&mut a, &wrong_tag),
        Err(SnapError::Corrupt(section_site))
    );
    let bad_flag = section(M::SECTION_TAG, 2);
    assert_eq!(
        decode(&mut a, &bad_flag),
        Err(SnapError::Corrupt(flag_site))
    );
}

/// One `#[test]` per case and level.
macro_rules! cases {
    ($($case:ident),* $(,)?) => {
        mod l1 {
            $(#[test]
            fn $case() {
                super::$case::<super::MetaEntry>();
            })*
        }
        mod l2 {
            $(#[test]
            fn $case() {
                super::$case::<super::DirEntry>();
            })*
        }
    };
}

cases!(
    lookup_misses_on_empty,
    install_then_lookup,
    install_writes_the_given_reserved_bit,
    same_set_different_tag_does_not_alias,
    victim_prefers_invalid_way,
    victim_is_lru_when_set_full,
    reserved_ways_are_not_victims,
    iter_valid_yields_each_valid_way,
    stale_way_round_trips_bit_for_bit,
    geometry_mismatch_is_config_mismatch,
    bad_section_and_way_flag_are_corrupt,
);
