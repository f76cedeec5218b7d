//! The always-on invariant oracle.
//!
//! [`InvariantOracle::observe`] is designed to run at every executed cycle
//! boundary of a simulation (the
//! [`skipit_core::System::run_programs_observed`] hook). The fast-forward
//! engines skip only provably idle windows, so observing executed
//! boundaries sees every distinct machine state, and the first violating
//! cycle an exploration reports is identical under every
//! [`skipit_core::EngineKind`].

use skipit_core::{ClientState, FshrState, System};

/// One invariant violation: which rule broke, when, and a human-readable
/// account of the offending state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier (`"skip_bit"`, `"single_writer"`,
    /// `"inclusion"`, `"fshr_legality"`, `"flush_counter"`,
    /// `"slot_masks"`).
    pub rule: &'static str,
    /// Cycle at which the violating state was observed.
    pub cycle: u64,
    /// What exactly was wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] cycle {}: {}", self.rule, self.cycle, self.detail)
    }
}

/// Single-cycle FSHR transitions of the Fig. 7 state machine. Within one
/// executed cycle an FSHR can chain up to three of these (RootReleaseAck
/// completion, flush-queue dispatch, and one FSM step all happen in the
/// same `DataCache::step`), so legality between two observed states is
/// reachability in at most three hops.
fn fshr_successors(s: FshrState) -> &'static [FshrState] {
    match s {
        FshrState::Free => &[FshrState::MetaWrite, FshrState::SendRelease],
        FshrState::MetaWrite => &[FshrState::FillBuffer, FshrState::SendRelease],
        FshrState::FillBuffer => &[FshrState::SendReleaseData],
        FshrState::SendReleaseData => &[FshrState::WaitAck],
        FshrState::SendRelease => &[FshrState::WaitAck],
        FshrState::WaitAck => &[FshrState::Free],
    }
}

fn fshr_reachable(from: FshrState, to: FshrState, hops: usize) -> bool {
    from == to
        || hops > 0
            && fshr_successors(from)
                .iter()
                .any(|&mid| fshr_reachable(mid, to, hops - 1))
}

/// Stateful invariant checker. Construct one per run; feed it every
/// observed state in order (it tracks FSHR states between observations to
/// judge transition legality).
#[derive(Clone, Debug, Default)]
pub struct InvariantOracle {
    /// Last observed FSHR states, per core (empty until first observation).
    fshr_last: Vec<Vec<FshrState>>,
    /// Observations performed (diagnostics).
    observations: u64,
}

impl InvariantOracle {
    /// A fresh oracle with no observation history.
    pub fn new() -> Self {
        InvariantOracle::default()
    }

    /// Number of states this oracle has checked.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Checks every invariant against the current state, returning the
    /// first violation found. Intended as the observer closure of
    /// [`System::run_programs_observed`] /
    /// [`System::quiesce_observed`].
    pub fn observe(&mut self, s: &System) -> Result<(), Violation> {
        self.observations += 1;
        let now = s.now();
        let cores = s.config().cores;

        // §6.2: a valid, clean L1 line with its skip bit set must be clean
        // (persisted) in the L2 — otherwise Skip It would drop a required
        // writeback. Also: coherence single-writer and inclusion.
        for core in 0..cores {
            for (line, state, skip) in s.l1(core).resident_lines() {
                if skip
                    && !state.is_dirty()
                    && state != ClientState::Invalid
                    && s.l2().peek_dirty(line)
                {
                    return Err(Violation {
                        rule: "skip_bit",
                        cycle: now,
                        detail: format!(
                            "core {core}: line {line:?} valid+clean with skip set but dirty in L2"
                        ),
                    });
                }
                // Inclusion: an L1-resident line must be accounted for by
                // the L2 — in the directory, or mid-transaction in an MSHR
                // (an inclusive-eviction victim is directory-invalid between
                // its last probe ack and the fill, yet fully tracked).
                if !s.l2().peek_tracked(line) {
                    return Err(Violation {
                        rule: "inclusion",
                        cycle: now,
                        detail: format!(
                            "core {core}: line {line:?} ({state}) resident in L1 but \
                             neither resident nor MSHR-tracked in L2"
                        ),
                    });
                }
                if state.can_write() {
                    for other in 0..cores {
                        if other != core
                            && s.l1(other).peek_state(line.base()) != ClientState::Invalid
                        {
                            return Err(Violation {
                                rule: "single_writer",
                                cycle: now,
                                detail: format!(
                                    "line {line:?} writable in core {core} but present in core {other}"
                                ),
                            });
                        }
                    }
                }
            }
        }

        // Flush-counter conservation (§5.3: the fence waits on this counter,
        // so a drift would either hang fences or let them retire early):
        // counter == queued entries + busy FSHRs, always.
        for core in 0..cores {
            let fu = s.l1(core).flush_unit();
            let busy = fu
                .fshrs()
                .iter()
                .filter(|f| f.state != FshrState::Free)
                .count() as u64;
            let expect = fu.queue_len() as u64 + busy;
            if fu.counter_value() != expect {
                return Err(Violation {
                    rule: "flush_counter",
                    cycle: now,
                    detail: format!(
                        "core {core}: flush counter {} but queue {} + busy FSHRs {busy}",
                        fu.counter_value(),
                        fu.queue_len(),
                    ),
                });
            }
        }

        // Slot masks: every L1 MSHR, FSHR and L2 MSHR state mask equals a
        // scan of its slot file, and the owner indices beside them (the
        // flush queue's bucket counts, the L2's per-set claims) match what
        // they index. A stale bit would hide a slot from every walk.
        for core in 0..cores {
            if let Err(e) = s.l1(core).check_slot_masks() {
                return Err(Violation {
                    rule: "slot_masks",
                    cycle: now,
                    detail: format!("core {core}: {e}"),
                });
            }
        }
        if let Err(detail) = s.l2().check_slot_masks() {
            return Err(Violation {
                rule: "slot_masks",
                cycle: now,
                detail,
            });
        }

        // Fig. 7 FSHR transition legality between consecutive observations.
        if self.fshr_last.len() != cores {
            self.fshr_last = (0..cores)
                .map(|c| {
                    s.l1(c)
                        .flush_unit()
                        .fshrs()
                        .iter()
                        .map(|f| f.state)
                        .collect()
                })
                .collect();
        } else {
            for core in 0..cores {
                let fshrs = s.l1(core).flush_unit().fshrs();
                for (i, f) in fshrs.iter().enumerate() {
                    let prev = self.fshr_last[core][i];
                    if !fshr_reachable(prev, f.state, 3) {
                        return Err(Violation {
                            rule: "fshr_legality",
                            cycle: now,
                            detail: format!(
                                "core {core} FSHR {i}: illegal transition {} -> {}",
                                prev.name(),
                                f.state.name(),
                            ),
                        });
                    }
                    self.fshr_last[core][i] = f.state;
                }
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipit_core::SystemBuilder;

    #[test]
    fn legality_closure_matches_fig7() {
        // Direct edges and the in-cycle compound chains.
        assert!(fshr_reachable(FshrState::Free, FshrState::Free, 3));
        assert!(fshr_reachable(FshrState::Free, FshrState::MetaWrite, 3));
        assert!(fshr_reachable(FshrState::Free, FshrState::SendRelease, 3));
        assert!(fshr_reachable(FshrState::Free, FshrState::FillBuffer, 3));
        assert!(fshr_reachable(
            FshrState::WaitAck,
            FshrState::SendRelease,
            3
        ));
        assert!(fshr_reachable(FshrState::WaitAck, FshrState::WaitAck, 3));
        // Impossible in one cycle: entering meta_write from anywhere but
        // free, or stepping backwards through the FSM.
        assert!(!fshr_reachable(
            FshrState::FillBuffer,
            FshrState::MetaWrite,
            3
        ));
        assert!(!fshr_reachable(
            FshrState::SendRelease,
            FshrState::FillBuffer,
            3
        ));
        assert!(!fshr_reachable(
            FshrState::WaitAck,
            FshrState::SendReleaseData,
            3
        ));
    }

    #[test]
    fn clean_run_produces_no_violations() {
        use skipit_core::Op;
        let mut sys = SystemBuilder::new().cores(2).skip_it(true).build();
        let mut oracle = InvariantOracle::new();
        let prog = vec![
            Op::Store {
                addr: 0x1000,
                value: 7,
            },
            Op::Flush { addr: 0x1000 },
            Op::Fence,
            Op::Load { addr: 0x1000 },
            Op::Clean { addr: 0x1000 },
            Op::Fence,
        ];
        sys.run_programs_observed(vec![prog], |s| oracle.observe(s))
            .expect("clean run must not violate invariants");
        sys.quiesce_observed(|s| oracle.observe(s)).unwrap();
        assert!(oracle.observations() > 0);
    }
}
