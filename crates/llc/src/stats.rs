//! L2 event counters.

skipit_snap::counters! {
    /// Counters maintained by the inclusive L2.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct L2Stats {
        /// `Acquire` transactions completed.
        pub acquires: u64,
        /// Grants answered with `GrantData` (line persisted — skip bit set).
        pub grants_clean: u64,
        /// Grants answered with `GrantDataDirty` (line dirty in L2, §6).
        pub grants_dirty: u64,
        /// `RootReleaseFlush` transactions completed (§5.5).
        pub root_release_flush: u64,
        /// `RootReleaseClean` transactions completed.
        pub root_release_clean: u64,
        /// `RootReleaseInval` transactions completed (CMO extension, beyond the
        /// paper's two instructions).
        pub root_release_inval: u64,
        /// RootReleases whose DRAM write was *trivially skipped* because the line
        /// was clean everywhere (§5.5 / §7.4).
        pub root_release_dram_skipped: u64,
        /// Lines written back to DRAM on behalf of RootReleases.
        pub root_release_dram_writes: u64,
        /// Probes sent to L1 caches.
        pub probes_sent: u64,
        /// Voluntary `Release` transactions (L1 evictions) absorbed.
        pub releases: u64,
        /// Inclusive victim evictions (capacity) performed.
        pub evictions: u64,
        /// Victim evictions that wrote dirty data to DRAM.
        pub dirty_evictions: u64,
        /// Line fills from DRAM.
        pub mem_fills: u64,
        /// TL-C requests deferred through the ListBuffer.
        pub list_buffered: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        assert_eq!(L2Stats::default().acquires, 0);
    }
}
