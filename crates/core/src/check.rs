//! Differential checking utilities: run op sequences against a flat
//! functional memory model and report divergences.
//!
//! The checker is the library form of the repository's property tests: it
//! executes a single-core program twice — once on the simulated SoC, once
//! on an ideal sequential memory — and compares every load value plus the
//! post-fence durable image. It is deliberately single-core (multicore
//! interleavings admit many correct outcomes; see the litmus example for
//! those).
//!
//! # Example
//!
//! ```
//! use skipit_core::check::ModelChecker;
//! use skipit_core::{Op, SystemBuilder};
//!
//! let mut checker = ModelChecker::new(SystemBuilder::new().cores(1).build());
//! let report = checker.run(&[
//!     Op::Store { addr: 0x100, value: 9 },
//!     Op::Load { addr: 0x100 },
//!     Op::Flush { addr: 0x100 },
//!     Op::Fence,
//! ]);
//! assert!(report.is_consistent(), "{report}");
//! ```

use skipit_boom::{CoreHandle, Op, System, Workers};
use std::collections::HashMap;
use std::fmt;

/// One observed divergence between the simulator and the reference model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Divergence {
    /// A load returned a value different from the model's.
    StaleLoad {
        /// Index of the op in the program.
        op_index: usize,
        /// Word address.
        addr: u64,
        /// Value the simulator returned.
        got: u64,
        /// Value the model expected.
        want: u64,
    },
    /// After the program's writebacks and fences, a word that the model
    /// says must be durable holds something else in DRAM.
    NotDurable {
        /// Word address.
        addr: u64,
        /// Durable value observed.
        got: u64,
        /// Value the model expected.
        want: u64,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::StaleLoad {
                op_index,
                addr,
                got,
                want,
            } => write!(
                f,
                "op {op_index}: load {addr:#x} returned {got:#x}, model says {want:#x}"
            ),
            Divergence::NotDurable { addr, got, want } => write!(
                f,
                "durability: {addr:#x} holds {got:#x} in DRAM, model says {want:#x}"
            ),
        }
    }
}

/// Result of one differential run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Divergences found (empty = consistent).
    pub divergences: Vec<Divergence>,
    /// Ops executed.
    pub ops: usize,
    /// Simulated cycles consumed.
    pub cycles: u64,
}

impl Report {
    /// Whether the run matched the model exactly.
    pub fn is_consistent(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_consistent() {
            write!(f, "consistent ({} ops, {} cycles)", self.ops, self.cycles)
        } else {
            writeln!(
                f,
                "{} divergence(s) over {} ops:",
                self.divergences.len(),
                self.ops
            )?;
            for d in &self.divergences {
                writeln!(f, "  {d}")?;
            }
            Ok(())
        }
    }
}

/// The flat reference model: word values plus, per word, what must be
/// durable after the last completed fence.
#[derive(Clone, Debug, Default)]
struct Model {
    mem: HashMap<u64, u64>,
    /// Lines with writes not yet covered by a completed writeback+fence.
    durable: HashMap<u64, u64>,
    /// Lines with an issued (but unfenced) writeback of some snapshot.
    pending_wb: HashMap<u64, Vec<(u64, u64)>>,
}

impl Model {
    fn line_words(addr: u64) -> impl Iterator<Item = u64> {
        let base = addr & !63;
        (0..8).map(move |i| base + i * 8)
    }

    fn apply(&mut self, op: &Op) -> Option<u64> {
        match *op {
            Op::Store { addr, value } => {
                self.mem.insert(addr, value);
                None
            }
            Op::Load { addr } => Some(self.mem.get(&addr).copied().unwrap_or(0)),
            Op::Cas {
                addr,
                expected,
                new,
            } => {
                let old = self.mem.get(&addr).copied().unwrap_or(0);
                if old == expected {
                    self.mem.insert(addr, new);
                }
                Some(old)
            }
            Op::FetchAdd { addr, operand } => {
                let old = self.mem.get(&addr).copied().unwrap_or(0);
                self.mem.insert(addr, old.wrapping_add(operand));
                Some(old)
            }
            Op::Swap { addr, operand } => {
                let old = self.mem.get(&addr).copied().unwrap_or(0);
                self.mem.insert(addr, operand);
                Some(old)
            }
            Op::Clean { addr } | Op::Flush { addr } => {
                // Snapshot the line's current values: they are durable once
                // a later fence completes.
                let snap: Vec<(u64, u64)> = Self::line_words(addr)
                    .map(|w| (w, self.mem.get(&w).copied().unwrap_or(0)))
                    .collect();
                self.pending_wb.entry(addr & !63).or_default().extend(snap);
                None
            }
            Op::Inval { addr } => {
                // Discard semantics: cached values revert to the durable
                // image (conservatively: to whatever was last made durable,
                // else zero).
                for w in Self::line_words(addr) {
                    let durable = self.durable.get(&w).copied().unwrap_or(0);
                    self.mem.insert(w, durable);
                }
                self.pending_wb.remove(&(addr & !63));
                None
            }
            Op::Fence => {
                for (_, snaps) in self.pending_wb.drain() {
                    for (w, v) in snaps {
                        self.durable.insert(w, v);
                    }
                }
                None
            }
            Op::Nop { .. } => None,
        }
    }
}

/// Differential checker over a single-core [`System`]. See
/// [module docs](self).
#[derive(Debug)]
pub struct ModelChecker {
    sys: System,
}

impl ModelChecker {
    /// Wraps a system (must have at least one core; only core 0 is driven).
    pub fn new(sys: System) -> Self {
        ModelChecker { sys }
    }

    /// Runs `program` on core 0 and on the reference model; returns the
    /// divergence report. Callable repeatedly — simulator state persists
    /// across calls, the model is rebuilt fresh each call, so each call's
    /// program should be self-contained (start from stores).
    pub fn run(&mut self, program: &[Op]) -> Report {
        let mut model = Model::default();
        let expectations: Vec<Option<u64>> = program.iter().map(|op| model.apply(op)).collect();
        let prog: Vec<Op> = program.to_vec();
        let start = self.sys.now();
        let (_, loads) = self
            .sys
            .run(Workers::new(vec![move |h: CoreHandle| async move {
                let mut out = Vec::new();
                for op in &prog {
                    let v = match *op {
                        Op::Load { addr } => Some(h.load(addr).await),
                        Op::Store { addr, value } => {
                            h.store(addr, value).await;
                            None
                        }
                        Op::Cas {
                            addr,
                            expected,
                            new,
                        } => Some(h.cas(addr, expected, new).await),
                        Op::FetchAdd { addr, operand } => Some(h.fetch_add(addr, operand).await),
                        Op::Swap { addr, operand } => Some(h.swap(addr, operand).await),
                        Op::Clean { addr } => {
                            h.clean(addr).await;
                            None
                        }
                        Op::Flush { addr } => {
                            h.flush(addr).await;
                            None
                        }
                        Op::Inval { addr } => {
                            h.inval(addr).await;
                            None
                        }
                        Op::Fence => {
                            h.fence().await;
                            None
                        }
                        Op::Nop { cycles } => {
                            h.work(cycles).await;
                            None
                        }
                    };
                    out.push(v);
                }
                out
            }]))
            .into_parts();
        let mut report = Report {
            ops: program.len(),
            cycles: self.sys.now() - start,
            ..Report::default()
        };
        for (i, (got, want)) in loads[0].iter().zip(&expectations).enumerate() {
            if let (Some(got), Some(want)) = (got, want) {
                if got != want {
                    report.divergences.push(Divergence::StaleLoad {
                        op_index: i,
                        addr: program[i].addr().unwrap_or(0),
                        got: *got,
                        want: *want,
                    });
                }
            }
        }
        // Durability check against the live DRAM image.
        for (&addr, &want) in &model.durable {
            let got = self.sys.dram().read_word_direct(addr);
            if got != want {
                report
                    .divergences
                    .push(Divergence::NotDurable { addr, got, want });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;

    #[test]
    fn consistent_program_reports_clean() {
        let mut c = ModelChecker::new(SystemBuilder::new().cores(1).build());
        let r = c.run(&[
            Op::Store {
                addr: 0x100,
                value: 1,
            },
            Op::Load { addr: 0x100 },
            Op::FetchAdd {
                addr: 0x100,
                operand: 4,
            },
            Op::Load { addr: 0x100 },
            Op::Clean { addr: 0x100 },
            Op::Fence,
        ]);
        assert!(r.is_consistent(), "{r}");
        assert_eq!(r.ops, 6);
        assert!(r.cycles > 0);
    }

    #[test]
    fn inval_model_matches_simulator() {
        let mut c = ModelChecker::new(SystemBuilder::new().cores(1).skip_it(true).build());
        let r = c.run(&[
            Op::Store {
                addr: 0x200,
                value: 7,
            },
            Op::Flush { addr: 0x200 },
            Op::Fence,
            Op::Store {
                addr: 0x200,
                value: 8,
            },
            Op::Inval { addr: 0x200 },
            Op::Fence,
            Op::Load { addr: 0x200 }, // must see the durable 7, not 8
        ]);
        assert!(r.is_consistent(), "{r}");
    }

    #[test]
    fn report_display_nonempty() {
        let r = Report {
            divergences: vec![Divergence::StaleLoad {
                op_index: 1,
                addr: 8,
                got: 2,
                want: 3,
            }],
            ops: 2,
            cycles: 10,
        };
        assert!(!r.is_consistent());
        assert!(format!("{r}").contains("stale") || format!("{r}").contains("load"));
    }
}
