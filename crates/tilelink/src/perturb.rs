//! Deterministic adversarial schedule perturbation (see DESIGN.md §10).
//!
//! The simulator's arbitration is fully fixed: link FIFOs, the flush queue
//! and the L2 MSHR file always pick the same winner, so one program explores
//! exactly one schedule. A [`PerturbConfig`] injects bounded, seeded jitter
//! at the three arbitration points — TileLink channel delivery, flush-queue
//! → FSHR dispatch, and L2 MSHR slot selection — so the *same* program
//! explores many *legal* schedules (every perturbation is a delay or a
//! priority rotation real hardware arbitration could produce).
//!
//! # Determinism contract
//!
//! Every draw is a pure function of `(seed, site, event_index)` where
//! `site` identifies the perturbation point ([`link_site`], [`flush_site`],
//! [`L2_MSHR_SITE`]) and `event_index` is a per-site counter advanced only
//! by *state-changing* events (a message pushed, a flush dispatched, an MSHR
//! allocated). Per-cycle call counts are never used: the fast engines step
//! components at different per-cycle rates than the naive engine, and a
//! call-count key would make the explored schedule engine-dependent. With
//! this keying the whole run is bit-reproducible from `(seed, config)` and
//! identical under `EngineKind::Naive` and `ComponentWheel`.
//!
//! A default (all-zero) config draws nothing at all: the simulation is
//! bit-identical to an unperturbed one.

/// SplitMix64 — the stateless mixing function behind every perturbation
/// draw, the sweep runner's per-point seeds, the service request streams
/// and the skiplist's tower heights.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Site key of TileLink channel `channel` (`'A'`–`'E'`) on core `core`'s
/// link pair.
///
/// # Panics
///
/// Panics on a channel letter outside `'A'`–`'E'`.
pub fn link_site(channel: char, core: usize) -> u64 {
    assert!(('A'..='E').contains(&channel), "channel {channel:?}");
    (1 << 32) | ((channel as u64 - 'A' as u64) << 8) | core as u64
}

/// Site key of core `core`'s flush-queue → FSHR dispatch point.
pub fn flush_site(core: usize) -> u64 {
    (2 << 32) | core as u64
}

/// Site key of the shared L2's MSHR slot selector.
pub const L2_MSHR_SITE: u64 = 3 << 32;

/// Seeded arbitration-jitter configuration, threaded through
/// `SystemBuilder::perturb`. The default is fully off (no draws, behavior
/// bit-identical to an unperturbed system).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerturbConfig {
    /// Base seed every draw is derived from.
    pub seed: u64,
    /// Maximum extra wire delay (cycles) added per message on each TileLink
    /// channel. Delays messages (and thus reorders deliveries *across*
    /// channels — priority inversion between, say, a probe and a grant)
    /// while preserving per-channel FIFO order.
    pub link_jitter: u64,
    /// Maximum extra hold-off (cycles) before the flush unit dispatches the
    /// flush-queue head into a free FSHR.
    pub dispatch_jitter: u64,
    /// Rotate the L2's free-MSHR scan start per allocation instead of
    /// always picking the lowest free index. MSHR index is service priority
    /// in the L2 step loop, so rotation inverts MSHR arbitration order.
    pub mshr_rotation: bool,
}

impl PerturbConfig {
    /// A config with the given seed and all perturbations at their default
    /// exploration amplitudes.
    pub fn exploring(seed: u64) -> Self {
        PerturbConfig {
            seed,
            link_jitter: 7,
            dispatch_jitter: 11,
            mshr_rotation: true,
        }
    }

    /// Whether any perturbation can ever fire. An inactive config draws
    /// nothing and is bit-identical to no config at all.
    pub fn is_active(&self) -> bool {
        self.link_jitter > 0 || self.dispatch_jitter > 0 || self.mshr_rotation
    }

    /// Draws a value in `0..=bound` for event number `event` at `site`.
    /// Pure: same `(seed, site, event, bound)` → same value, regardless of
    /// engine, call count or host.
    #[inline]
    pub fn draw(&self, site: u64, event: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        splitmix64(self.seed ^ splitmix64(site) ^ event.wrapping_mul(0xd134_2543_de82_ef95))
            % (bound + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inactive() {
        assert!(!PerturbConfig::default().is_active());
        assert_eq!(PerturbConfig::default().draw(link_site('A', 0), 3, 0), 0);
    }

    #[test]
    fn draws_are_pure_and_bounded() {
        let p = PerturbConfig::exploring(42);
        for event in 0..256 {
            let d = p.draw(link_site('C', 1), event, 7);
            assert!(d <= 7);
            assert_eq!(d, p.draw(link_site('C', 1), event, 7), "draw not pure");
        }
    }

    #[test]
    fn sites_and_seeds_decorrelate() {
        let p = PerturbConfig::exploring(1);
        let a: Vec<u64> = (0..64).map(|e| p.draw(link_site('A', 0), e, 63)).collect();
        let b: Vec<u64> = (0..64).map(|e| p.draw(link_site('B', 0), e, 63)).collect();
        let a2: Vec<u64> = (0..64)
            .map(|e| PerturbConfig::exploring(2).draw(link_site('A', 0), e, 63))
            .collect();
        assert_ne!(a, b, "different sites must draw different sequences");
        assert_ne!(a, a2, "different seeds must draw different sequences");
    }

    #[test]
    fn site_keys_are_distinct() {
        let mut keys = vec![L2_MSHR_SITE];
        for core in 0..4 {
            keys.push(flush_site(core));
            for ch in ['A', 'B', 'C', 'D', 'E'] {
                keys.push(link_site(ch, core));
            }
        }
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "site keys collide");
    }
}
