//! Persistent lock-free linked list (Harris, DISC '01 \[31\]) over simulated
//! memory — one of the four §7.4 data structures.
//!
//! Nodes are `[key, next]`; the `next` word carries the logical-deletion
//! mark in bit 0 ([`crate::ptr::DEL`]). Traversal unlinks marked nodes with
//! a CAS on the predecessor, exactly as in Harris's algorithm.

use crate::alloc::SimAlloc;
use crate::persist::PHandle;
use crate::ptr::{addr, is_del, DEL};
use crate::ConcurrentSet;
use std::sync::Arc;

const KEY: usize = 0;
const NEXT: usize = 1;
/// Sentinel above every legal key.
const TAIL_KEY: u64 = 1 << 62;

/// A sorted lock-free set. See [module docs](self).
#[derive(Clone, Debug)]
pub struct HarrisList {
    head: u64,
    alloc: Arc<SimAlloc>,
}

impl HarrisList {
    /// Builds an empty list, emitting sentinel initialization through
    /// `poke(addr, value)` (functional pre-run writes to simulated memory).
    pub fn new(alloc: Arc<SimAlloc>, mut poke: impl FnMut(u64, u64)) -> Self {
        let tail = alloc.alloc(2);
        let head = alloc.alloc(2);
        poke(alloc.field(tail, KEY), TAIL_KEY);
        poke(alloc.field(tail, NEXT), 0);
        poke(alloc.field(head, KEY), 0);
        poke(alloc.field(head, NEXT), tail);
        HarrisList { head, alloc }
    }

    /// Builds a list whose head pointer lives at a caller-chosen node (used
    /// by the hash table to share one allocator across buckets).
    pub(crate) fn with_head(head: u64, alloc: Arc<SimAlloc>) -> Self {
        HarrisList { head, alloc }
    }

    /// Simulated address of the head sentinel — lets recovery code walk the
    /// persisted image directly after a crash.
    pub fn head_addr(&self) -> u64 {
        self.head
    }

    /// Allocates and initializes the sentinels for an embedded list head.
    pub(crate) fn init_sentinels(alloc: &SimAlloc, poke: &mut impl FnMut(u64, u64)) -> u64 {
        let tail = alloc.alloc(2);
        let head = alloc.alloc(2);
        poke(alloc.field(tail, KEY), TAIL_KEY);
        poke(alloc.field(tail, NEXT), 0);
        poke(alloc.field(head, KEY), 0);
        poke(alloc.field(head, NEXT), tail);
        head
    }

    fn f(&self, node: u64, i: usize) -> u64 {
        self.alloc.field(node, i)
    }

    /// Finds `(pred, curr, curr_key)` with `curr` the first unmarked node
    /// with `curr_key >= key`, unlinking marked nodes on the way.
    async fn search(&self, ph: &PHandle<'_>, key: u64) -> (u64, u64, u64) {
        'retry: loop {
            let mut pred = self.head;
            let mut curr = addr(ph.read_traverse(self.f(pred, NEXT)).await);
            loop {
                debug_assert_ne!(curr, 0, "ran past the tail sentinel");
                let curr_next = ph.read_traverse(self.f(curr, NEXT)).await;
                if is_del(curr_next) {
                    // Unlink the logically deleted node.
                    if !ph.cas(self.f(pred, NEXT), curr, addr(curr_next)).await {
                        continue 'retry;
                    }
                    curr = addr(curr_next);
                    continue;
                }
                let curr_key = ph.read_traverse(self.f(curr, KEY)).await;
                if curr_key >= key {
                    return (pred, curr, curr_key);
                }
                pred = curr;
                curr = addr(curr_next);
            }
        }
    }
}

impl ConcurrentSet for HarrisList {
    async fn insert(&self, ph: &PHandle<'_>, key: u64) -> bool {
        assert!((1..TAIL_KEY).contains(&key), "key out of range");
        loop {
            let (pred, curr, curr_key) = self.search(ph, key).await;
            if curr_key == key {
                return false;
            }
            let node = self.alloc.alloc(2);
            ph.init_write(self.f(node, KEY), key).await;
            ph.init_write(self.f(node, NEXT), curr).await;
            // The node must be durable before it becomes reachable.
            ph.persist_node(node, 2 * self.alloc.stride().bytes()).await;
            if ph.cas(self.f(pred, NEXT), curr, node).await {
                return true;
            }
        }
    }

    async fn remove(&self, ph: &PHandle<'_>, key: u64) -> bool {
        loop {
            let (pred, curr, curr_key) = self.search(ph, key).await;
            if curr_key != key {
                return false;
            }
            // Critical read of the victim's next pointer.
            let next = ph.read(self.f(curr, NEXT)).await;
            if is_del(next) {
                continue;
            }
            // Logical deletion is the linearization (and persist) point.
            if !ph
                .cas(self.f(curr, NEXT), addr(next), addr(next) | DEL)
                .await
            {
                continue;
            }
            // Physical unlink, best effort.
            ph.cas(self.f(pred, NEXT), curr, addr(next)).await;
            return true;
        }
    }

    async fn contains(&self, ph: &PHandle<'_>, key: u64) -> bool {
        let mut curr = addr(ph.read_traverse(self.f(self.head, NEXT)).await);
        loop {
            let curr_key = ph.read_traverse(self.f(curr, KEY)).await;
            if curr_key >= key {
                if curr_key != key {
                    return false;
                }
                // Critical read: the result must reflect persisted state in
                // NVTraverse/Automatic modes.
                let next = ph.read(self.f(curr, NEXT)).await;
                return !is_del(next);
            }
            curr = addr(ph.read_traverse(self.f(curr, NEXT)).await);
        }
    }
}
