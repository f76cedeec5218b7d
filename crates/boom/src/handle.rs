//! Worker-mode core handle: the `async` API worker futures use to drive a
//! simulated core.
//!
//! A worker is an ordinary Rust future that the frontend phase polls in
//! place, on the simulator's own thread. Each op posts one command into the
//! core's mailbox and suspends; the frontend phase takes the command,
//! executes it, writes the response back and polls the worker again at the
//! cycle the op completes. At every simulated cycle each core is therefore
//! in a well-defined state, and simulated time is independent of how long
//! the worker's own host computation takes.
//!
//! Workers must only await [`CoreHandle`] ops, and must not synchronize
//! with each other through host-side primitives — all shared state belongs
//! in simulated memory. A worker that suspends on anything else panics the
//! run (nothing would ever wake it).

use crate::op::Op;
use std::cell::Cell;
use std::rc::Rc;
use std::task::Poll;

#[derive(Clone, Copy, Debug)]
pub(crate) enum Cmd {
    Op(Op),
    RdCycle,
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Resp {
    pub value: u64,
    /// The run's cycle budget is exhausted; the workload should wind down.
    pub halted: bool,
}

/// One core's exchange between its worker future and the frontend phase:
/// at most one command in flight, and its response.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    cmd: Cell<Option<Cmd>>,
    resp: Cell<Option<Resp>>,
}

impl Mailbox {
    /// Takes the command the worker posted since the last call, if any.
    pub(crate) fn take_cmd(&self) -> Option<Cmd> {
        self.cmd.take()
    }

    /// Delivers the response to the worker's pending command.
    pub(crate) fn respond(&self, resp: Resp) {
        self.resp.set(Some(resp));
    }
}

/// Async driver for one simulated core (worker mode).
///
/// The core's workload is done when its worker's future completes.
#[derive(Debug)]
pub struct CoreHandle {
    mailbox: Rc<Mailbox>,
    core: usize,
    halted: Cell<bool>,
}

impl CoreHandle {
    pub(crate) fn new(mailbox: Rc<Mailbox>, core: usize) -> Self {
        CoreHandle {
            mailbox,
            core,
            halted: Cell::new(false),
        }
    }

    /// The simulated core this handle drives.
    pub fn core_id(&self) -> usize {
        self.core
    }

    /// Posts `cmd` and suspends until the frontend phase responds.
    async fn exchange(&self, cmd: Cmd) -> u64 {
        self.mailbox.cmd.set(Some(cmd));
        let resp = std::future::poll_fn(|_| match self.mailbox.resp.take() {
            Some(resp) => Poll::Ready(resp),
            None => Poll::Pending,
        })
        .await;
        if resp.halted {
            self.halted.set(true);
        }
        resp.value
    }

    async fn exec(&self, op: Op) -> u64 {
        self.exchange(Cmd::Op(op)).await
    }

    /// Performs a 64-bit load; completes when the value is available.
    pub async fn load(&self, addr: u64) -> u64 {
        self.exec(Op::Load { addr }).await
    }

    /// Performs a 64-bit store; completes when the store is accepted by
    /// the memory system (BOOM commit semantics, §3.3).
    pub async fn store(&self, addr: u64, value: u64) {
        self.exec(Op::Store { addr, value }).await;
    }

    /// Compare-and-swap; returns the old value (success iff it equals
    /// `expected`).
    pub async fn cas(&self, addr: u64, expected: u64, new: u64) -> u64 {
        self.exec(Op::Cas {
            addr,
            expected,
            new,
        })
        .await
    }

    /// Atomic fetch-and-add; returns the old value.
    pub async fn fetch_add(&self, addr: u64, operand: u64) -> u64 {
        self.exec(Op::FetchAdd { addr, operand }).await
    }

    /// Atomic swap; returns the old value.
    pub async fn swap(&self, addr: u64, operand: u64) -> u64 {
        self.exec(Op::Swap { addr, operand }).await
    }

    /// Issues `CBO.CLEAN`; completes once the flush unit buffers it
    /// (§5.2) — the writeback itself proceeds asynchronously.
    pub async fn clean(&self, addr: u64) {
        self.exec(Op::Clean { addr }).await;
    }

    /// Issues `CBO.FLUSH`; completes once the flush unit buffers it.
    pub async fn flush(&self, addr: u64) {
        self.exec(Op::Flush { addr }).await;
    }

    /// Issues `CBO.INVAL` — discards every cached copy without writing
    /// dirty data back (dangerous; exposes whatever main memory holds).
    pub async fn inval(&self, addr: u64) {
        self.exec(Op::Inval { addr }).await;
    }

    /// `FENCE RW, RW` extended with writeback completion (§5.3): completes
    /// once every older memory op *and every pending writeback* is done.
    pub async fn fence(&self) {
        self.exec(Op::Fence).await;
    }

    /// Occupies the core for `cycles` of non-memory work (think time).
    pub async fn work(&self, cycles: u64) {
        if cycles > 0 {
            self.exec(Op::Nop { cycles }).await;
        }
    }

    /// Reads the cycle CSR (`RDCYCLE`, §7.1) without consuming simulated
    /// time.
    pub async fn rdcycle(&self) -> u64 {
        self.exchange(Cmd::RdCycle).await
    }

    /// Whether the run's cycle budget has been exhausted — workload loops
    /// should poll this and return.
    pub fn halted(&self) -> bool {
        self.halted.get()
    }

    /// Gives up the handle, ending the workload explicitly: with no handle
    /// left the worker can issue no further op, so the core finishes on
    /// the cycle the worker's future then completes — the same cycle.
    pub fn finish(self) {}
}
