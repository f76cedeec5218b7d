//! Per-cache event counters.

skipit_snap::counters! {
    /// Counters maintained by one L1 data cache. All counters are cumulative
    /// since construction.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct L1Stats {
        /// Loads accepted.
        pub loads: u64,
        /// Load hits served from the arrays.
        pub load_hits: u64,
        /// Loads forwarded from an FSHR data buffer (§5.3).
        pub load_fshr_forwards: u64,
        /// Stores accepted.
        pub stores: u64,
        /// Store hits performed in place.
        pub store_hits: u64,
        /// Atomic operations accepted.
        pub amos: u64,
        /// Negative acknowledgements returned to the LSU.
        pub nacks: u64,
        /// CBO.X requests enqueued into the flush queue.
        pub writebacks_enqueued: u64,
        /// CBO.X requests dropped by Skip It (hit ∧ clean ∧ skip bit, §6.1).
        pub writebacks_skipped: u64,
        /// CBO.X requests coalesced with a pending same-kind request (§5.3).
        pub writebacks_coalesced: u64,
        /// `RootRelease` messages sent to the L2.
        pub root_releases_sent: u64,
        /// `RootRelease` messages that carried dirty data.
        pub root_releases_with_data: u64,
        /// Coherence probes handled.
        pub probes_handled: u64,
        /// Probes that pushed dirty data upward.
        pub probes_with_data: u64,
        /// Lines evicted through the writeback unit.
        pub evictions: u64,
        /// Evictions that carried dirty data.
        pub dirty_evictions: u64,
        /// MSHR allocations (primary misses).
        pub mshr_allocs: u64,
        /// Requests buffered as MSHR secondaries (replay queue).
        pub mshr_secondaries: u64,
        /// Flush-queue entries invalidated by probes (§5.4.1).
        pub flush_entries_probe_invalidated: u64,
        /// Flush-queue entries invalidated by evictions (§5.4.2).
        pub flush_entries_evict_invalidated: u64,
    }
}

impl L1Stats {
    /// Total CBO.X requests that were eliminated before reaching the L2
    /// (Skip It drops plus coalesced requests).
    pub fn writebacks_eliminated(&self) -> u64 {
        self.writebacks_skipped + self.writebacks_coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eliminated_sums_skips_and_coalesces() {
        let s = L1Stats {
            writebacks_skipped: 3,
            writebacks_coalesced: 4,
            ..L1Stats::default()
        };
        assert_eq!(s.writebacks_eliminated(), 7);
    }
}
