//! Line-granular main-memory model — the persistence domain.
//!
//! In the paper's setting (§2.5) caches are volatile and main memory is the
//! durable medium (NVMM / CXL-attached / DMA-visible memory). A word is
//! *persisted* exactly when its line has been written into this model. A
//! crash (power failure) destroys all cache contents but leaves this model's
//! contents intact — which is what the crash-consistency tests in this
//! repository exploit: they run a workload, simulate a crash by discarding
//! every cache, and assert invariants on the [`Dram`] image alone.
//!
//! Timing: the model is a pipelined memory controller. It accepts at most one
//! request every [`DramConfig::issue_interval`] cycles (bank-level
//! bandwidth), and completes each request a fixed latency later. Requests
//! complete in acceptance order.

use skipit_tilelink::{LineAddr, LineData};
use std::collections::{HashMap, VecDeque};

/// Opaque request token used by the caller (the L2) to match responses to
/// its MSHRs.
pub type MemToken = u64;

/// Timing parameters of the memory controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Cycles from accepting a read to delivering its data.
    pub read_latency: u64,
    /// Cycles from accepting a write to acknowledging durability.
    pub write_latency: u64,
    /// Minimum cycles between accepted requests (inverse bandwidth).
    pub issue_interval: u64,
}

impl Default for DramConfig {
    /// Defaults calibrated so a single-line `CBO.X` round trip lands near the
    /// paper's ≈100-cycle median (§7.2); see EXPERIMENTS.md.
    fn default() -> Self {
        DramConfig {
            read_latency: 60,
            write_latency: 60,
            issue_interval: 1,
        }
    }
}

/// A memory request, addressed at line granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemReq {
    /// Fetch a line.
    Read {
        /// Line to read.
        addr: LineAddr,
        /// Caller-chosen token echoed in the response.
        token: MemToken,
    },
    /// Durably write a line.
    Write {
        /// Line to write.
        addr: LineAddr,
        /// New contents.
        data: LineData,
        /// Caller-chosen token echoed in the response.
        token: MemToken,
    },
}

impl MemReq {
    /// The line this request concerns.
    pub fn addr(&self) -> LineAddr {
        match *self {
            MemReq::Read { addr, .. } | MemReq::Write { addr, .. } => addr,
        }
    }
}

/// A completed memory request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemResp {
    /// A read completed.
    ReadDone {
        /// Line that was read.
        addr: LineAddr,
        /// Contents at the time the read was serviced.
        data: LineData,
        /// Token from the matching [`MemReq::Read`].
        token: MemToken,
    },
    /// A write is durable.
    WriteDone {
        /// Line that was written.
        addr: LineAddr,
        /// Token from the matching [`MemReq::Write`].
        token: MemToken,
    },
}

impl MemResp {
    /// Token of the originating request.
    pub fn token(&self) -> MemToken {
        match *self {
            MemResp::ReadDone { token, .. } | MemResp::WriteDone { token, .. } => token,
        }
    }
}

skipit_snap::counters! {
    /// Counters exposed for benchmarking and assertions.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct MemStats {
        /// Number of line reads serviced.
        pub reads: u64,
        /// Number of line writes serviced (i.e. lines actually persisted).
        pub writes: u64,
    }
}

/// The main-memory model. See the [crate docs](crate) for semantics.
pub struct Dram {
    cfg: DramConfig,
    lines: HashMap<u64, LineData>,
    inflight: VecDeque<(u64, MemReq)>,
    ready: VecDeque<MemResp>,
    next_issue: u64,
    stats: MemStats,
    sink: Option<skipit_trace::TraceSink>,
}

impl std::fmt::Debug for Dram {
    /// Deterministic rendering: `lines` is a `HashMap`, whose derived Debug
    /// order varies per instance, but two `Dram`s holding the same state
    /// must format identically — a test-side digest compares the Debug text
    /// of a system and its snapshot-restored copy, cross-checking the
    /// codec. Lines are therefore printed in address order.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut lines: Vec<(&u64, &LineData)> = self.lines.iter().collect();
        lines.sort_by_key(|&(addr, _)| *addr);
        f.debug_struct("Dram")
            .field("cfg", &self.cfg)
            .field("lines", &lines)
            .field("inflight", &self.inflight)
            .field("ready", &self.ready)
            .field("next_issue", &self.next_issue)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Dram {
    /// Snapshot of the *durable* memory image: exactly the lines whose
    /// writes have completed. In-flight requests and queued responses are
    /// dropped — a power failure loses them (§2.5) — so the returned `Dram`
    /// is what a crash at this instant would leave for recovery. The live
    /// memory is untouched; simulation can continue afterwards.
    pub fn durable_image(&self) -> Dram {
        Dram {
            cfg: self.cfg,
            lines: self.lines.clone(),
            inflight: VecDeque::new(),
            ready: VecDeque::new(),
            next_issue: 0,
            stats: self.stats,
            sink: None,
        }
    }

    /// Creates an empty (all-zero) memory with the given timing.
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            cfg,
            lines: HashMap::new(),
            inflight: VecDeque::new(),
            ready: VecDeque::new(),
            next_issue: 0,
            stats: MemStats::default(),
            sink: None,
        }
    }

    /// The installed event sink, if any.
    pub fn trace_sink(&self) -> Option<&skipit_trace::TraceSink> {
        self.sink.as_ref()
    }

    /// The event-sink slot; a sink installed here records
    /// [`skipit_trace::TraceEvent::DramRead`] /
    /// [`skipit_trace::TraceEvent::DramWrite`] at request *completion* time
    /// (the persistence event).
    pub fn trace_slot(&mut self) -> &mut Option<skipit_trace::TraceSink> {
        &mut self.sink
    }

    /// Whether the controller can accept a request at cycle `now`.
    pub fn can_accept(&self, now: u64) -> bool {
        now >= self.next_issue
    }

    /// Accepts a request at cycle `now`.
    ///
    /// The functional effect of a write is applied at *completion* time, not
    /// acceptance time, so data is durable exactly when the caller sees
    /// [`MemResp::WriteDone`] — the property the paper's `RootReleaseAck`
    /// relies on (§5.5).
    ///
    /// # Panics
    ///
    /// Panics if called while [`Dram::can_accept`] is false.
    pub fn request(&mut self, now: u64, req: MemReq) {
        assert!(self.can_accept(now), "DRAM request while controller busy");
        self.next_issue = now + self.cfg.issue_interval;
        let latency = match req {
            MemReq::Read { .. } => self.cfg.read_latency,
            MemReq::Write { .. } => self.cfg.write_latency,
        };
        // Completion order equals acceptance order: enforce monotone
        // completion times even if latencies differ by request kind.
        let done_at = (now + latency).max(self.inflight.back().map(|&(t, _)| t + 1).unwrap_or(0));
        self.inflight.push_back((done_at, req));
    }

    /// Advances to cycle `now`, completing due requests.
    pub fn step(&mut self, now: u64) {
        while let Some(&(done_at, _)) = self.inflight.front() {
            if done_at > now {
                break;
            }
            let (_, req) = self.inflight.pop_front().expect("nonempty");
            let resp = match req {
                MemReq::Read { addr, token } => {
                    self.stats.reads += 1;
                    skipit_trace::trace!(
                        self.sink,
                        now,
                        skipit_trace::TraceEvent::DramRead { addr: addr.base() }
                    );
                    MemResp::ReadDone {
                        addr,
                        data: self.read_direct(addr),
                        token,
                    }
                }
                MemReq::Write { addr, data, token } => {
                    self.stats.writes += 1;
                    skipit_trace::trace!(
                        self.sink,
                        now,
                        skipit_trace::TraceEvent::DramWrite { addr: addr.base() }
                    );
                    self.lines.insert(addr.base(), data);
                    MemResp::WriteDone { addr, token }
                }
            };
            self.ready.push_back(resp);
        }
    }

    /// Pops the next completed response, if any.
    pub fn pop_response(&mut self) -> Option<MemResp> {
        self.ready.pop_front()
    }

    /// Whether any request is still in flight or unconsumed.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.ready.is_empty()
    }

    /// Earliest cycle at which the controller can change externally visible
    /// state on its own: `now` if a completed response is waiting to be
    /// popped, otherwise the completion time of the oldest in-flight request
    /// (requests complete strictly in order). `None` when fully idle — only
    /// a new request can create future work.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if !self.ready.is_empty() {
            return Some(now);
        }
        self.inflight.front().map(|&(done_at, _)| done_at.max(now))
    }

    /// Earliest cycle at which [`Dram::can_accept`] will hold — the issue
    /// bandwidth gate callers (L2 MSHRs) block on.
    pub fn next_accept(&self, now: u64) -> u64 {
        self.next_issue.max(now)
    }

    /// Functional (zero-time) read of a line — the *persisted* image.
    ///
    /// This is the view a crash-recovery procedure sees: it bypasses all
    /// caches and in-flight traffic.
    pub fn read_direct(&self, addr: LineAddr) -> LineData {
        self.lines.get(&addr.base()).copied().unwrap_or_default()
    }

    /// Functional read of one persisted 64-bit word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn read_word_direct(&self, addr: u64) -> u64 {
        self.read_direct(LineAddr::containing(addr))
            .word(LineAddr::word_index(addr))
    }

    /// Functional (zero-time) write, used only for test/bench setup.
    pub fn write_direct(&mut self, addr: LineAddr, data: LineData) {
        self.lines.insert(addr.base(), data);
    }

    /// Service counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Number of distinct lines ever persisted.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }
}

impl Default for Dram {
    fn default() -> Self {
        Dram::new(DramConfig::default())
    }
}

mod snap;

#[cfg(test)]
mod tests {
    use super::*;

    fn line(addr: u64) -> LineAddr {
        LineAddr::new(addr)
    }

    fn data(seed: u64) -> LineData {
        let mut d = LineData::zeroed();
        for i in 0..skipit_tilelink::WORDS_PER_LINE {
            d.set_word(i, seed + i as u64);
        }
        d
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = Dram::default();
        assert_eq!(m.read_direct(line(0x4000)), LineData::zeroed());
        assert_eq!(m.read_word_direct(0x4008), 0);
    }

    #[test]
    fn write_completes_after_latency() {
        let cfg = DramConfig {
            read_latency: 10,
            write_latency: 20,
            issue_interval: 1,
        };
        let mut m = Dram::new(cfg);
        m.request(
            0,
            MemReq::Write {
                addr: line(0x40),
                data: data(7),
                token: 1,
            },
        );
        m.step(19);
        assert!(m.pop_response().is_none());
        // Not durable until completion.
        assert_eq!(m.read_direct(line(0x40)), LineData::zeroed());
        m.step(20);
        assert_eq!(
            m.pop_response(),
            Some(MemResp::WriteDone {
                addr: line(0x40),
                token: 1
            })
        );
        assert_eq!(m.read_direct(line(0x40)), data(7));
    }

    #[test]
    fn read_returns_persisted_data() {
        let mut m = Dram::new(DramConfig {
            read_latency: 5,
            write_latency: 5,
            issue_interval: 1,
        });
        m.write_direct(line(0x80), data(3));
        m.request(
            0,
            MemReq::Read {
                addr: line(0x80),
                token: 9,
            },
        );
        m.step(5);
        match m.pop_response() {
            Some(MemResp::ReadDone {
                addr,
                data: d,
                token,
            }) => {
                assert_eq!(addr, line(0x80));
                assert_eq!(d, data(3));
                assert_eq!(token, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bandwidth_limits_acceptance() {
        let mut m = Dram::new(DramConfig {
            read_latency: 5,
            write_latency: 5,
            issue_interval: 4,
        });
        assert!(m.can_accept(0));
        m.request(
            0,
            MemReq::Read {
                addr: line(0),
                token: 0,
            },
        );
        assert!(!m.can_accept(3));
        assert!(m.can_accept(4));
    }

    #[test]
    #[should_panic(expected = "controller busy")]
    fn over_issue_panics() {
        let mut m = Dram::new(DramConfig {
            read_latency: 5,
            write_latency: 5,
            issue_interval: 4,
        });
        m.request(
            0,
            MemReq::Read {
                addr: line(0),
                token: 0,
            },
        );
        m.request(
            1,
            MemReq::Read {
                addr: line(64),
                token: 1,
            },
        );
    }

    #[test]
    fn stats_count_serviced_requests() {
        let mut m = Dram::new(DramConfig {
            read_latency: 1,
            write_latency: 1,
            issue_interval: 1,
        });
        m.request(
            0,
            MemReq::Write {
                addr: line(0),
                data: data(1),
                token: 0,
            },
        );
        m.step(50);
        m.request(
            51,
            MemReq::Read {
                addr: line(0),
                token: 1,
            },
        );
        m.step(100);
        assert_eq!(
            m.stats(),
            MemStats {
                reads: 1,
                writes: 1
            }
        );
        assert_eq!(m.resident_lines(), 1);
        assert!(m.pop_response().is_some());
        assert!(m.pop_response().is_some());
        assert!(m.is_idle());
    }

    #[test]
    fn next_event_tracks_completion_and_ready_queues() {
        let mut m = Dram::new(DramConfig {
            read_latency: 10,
            write_latency: 10,
            issue_interval: 4,
        });
        assert_eq!(m.next_event(0), None);
        assert_eq!(m.next_accept(3), 3);
        m.request(
            0,
            MemReq::Read {
                addr: line(0),
                token: 0,
            },
        );
        assert_eq!(m.next_event(1), Some(10), "oldest in-flight completion");
        assert_eq!(m.next_accept(1), 4, "issue-interval gate");
        m.step(10);
        assert_eq!(
            m.next_event(11),
            Some(11),
            "unconsumed response is work now"
        );
        assert!(m.pop_response().is_some());
        assert_eq!(m.next_event(12), None);
    }

    #[test]
    fn pipelined_requests_complete_in_order() {
        let mut m = Dram::new(DramConfig {
            read_latency: 10,
            write_latency: 10,
            issue_interval: 2,
        });
        m.request(
            0,
            MemReq::Read {
                addr: line(0),
                token: 0,
            },
        );
        m.request(
            2,
            MemReq::Read {
                addr: line(64),
                token: 1,
            },
        );
        m.step(12);
        assert_eq!(m.pop_response().map(|r| r.token()), Some(0));
        assert_eq!(m.pop_response().map(|r| r.token()), Some(1));
    }

    #[test]
    fn mixed_latency_requests_stay_ordered() {
        // A short-latency request accepted after a long one must not
        // complete first.
        let mut m = Dram::new(DramConfig {
            read_latency: 50,
            write_latency: 5,
            issue_interval: 1,
        });
        m.request(
            0,
            MemReq::Read {
                addr: line(0),
                token: 0,
            },
        );
        m.request(
            1,
            MemReq::Write {
                addr: line(64),
                data: data(2),
                token: 1,
            },
        );
        m.step(1000);
        assert_eq!(m.pop_response().map(|r| r.token()), Some(0));
        assert_eq!(m.pop_response().map(|r| r.token()), Some(1));
    }
}
