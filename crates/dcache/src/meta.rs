//! The L1's per-way metadata, the line state its
//! [`SetAssocArray`](skipit_tilelink::array::SetAssocArray) keeps beside each tag.
//!
//! The metadata array stores, per line: tag, MESI coherence state, and — the
//! paper's §6 extension — the **skip bit**. (The dirty bit is folded into the
//! `Modified` state.) The data array in the paper was widened so a full line
//! can be read in one cycle (§5.2); here reads are naturally whole-line.

use skipit_snap::codec;
use skipit_tilelink::array::WayMeta;
use skipit_tilelink::ClientState;

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

impl MetaEntry {
    /// A way as an MSHR refill installs it: `state` and `skip`, unreserved
    /// (the tag is set by [`SetAssocArray::install`](skipit_tilelink::array::SetAssocArray::install)).
    pub const fn filled(state: ClientState, skip: bool) -> Self {
        MetaEntry {
            tag: 0,
            state,
            skip,
            reserved: false,
        }
    }
}

impl WayMeta for MetaEntry {
    const SECTION_TAG: u8 = 0x41;
    const SECTION_SITE: &'static str = "cache arrays section";
    const FLAG_SITE: &'static str = "cache way flag";

    fn valid(&self) -> bool {
        self.state != ClientState::Invalid
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

codec!(MetaEntry {
    tag,
    state,
    skip,
    reserved,
});
