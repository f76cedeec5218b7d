//! Persistent lock-free skiplist (David et al. \[23\] style) — the fourth
//! §7.4 data structure.
//!
//! A node is `[key, level, next₀ … next₇]`. Level-0 links define set
//! membership (linearization point); upper levels are a best-effort index.
//! Deletion marks `next` pointers with [`crate::ptr::DEL`] from the top
//! level downward, then unlinks during later traversals.
//!
//! Tower heights are a deterministic function of the key (a geometric
//! distribution derived from a hash), which keeps simulated runs
//! reproducible.

use crate::alloc::SimAlloc;
use crate::persist::PHandle;
use crate::ptr::{addr, is_del, DEL};
use crate::ConcurrentSet;
use std::sync::Arc;

const KEY: usize = 0;
const LVL: usize = 1;
const NEXT0: usize = 2;

/// Maximum tower height.
pub const MAX_LEVEL: usize = 8;

const TAIL_KEY: u64 = 1 << 62;

/// Deterministic tower height for `key` (1..=MAX_LEVEL, geometric).
pub fn level_of(key: u64) -> usize {
    ((skipit_core::splitmix64(key).trailing_ones() as usize) + 1).min(MAX_LEVEL)
}

/// The lock-free skiplist. See [module docs](self).
#[derive(Clone, Debug)]
pub struct SkipList {
    head: u64,
    alloc: Arc<SimAlloc>,
}

impl SkipList {
    /// Builds head/tail towers of full height, emitting initialization
    /// through `poke`.
    pub fn new(alloc: Arc<SimAlloc>, mut poke: impl FnMut(u64, u64)) -> Self {
        let tail = alloc.alloc(NEXT0 + MAX_LEVEL);
        let head = alloc.alloc(NEXT0 + MAX_LEVEL);
        poke(alloc.field(tail, KEY), TAIL_KEY);
        poke(alloc.field(tail, LVL), MAX_LEVEL as u64);
        poke(alloc.field(head, KEY), 0);
        poke(alloc.field(head, LVL), MAX_LEVEL as u64);
        for l in 0..MAX_LEVEL {
            poke(alloc.field(tail, NEXT0 + l), 0);
            poke(alloc.field(head, NEXT0 + l), tail);
        }
        SkipList { head, alloc }
    }

    /// Rebuilds a skiplist over an existing head tower (warm restarts: the
    /// towers already live in restored simulated memory; node levels are a
    /// pure function of the key hash, so no per-node state is needed).
    pub(crate) fn with_head(head: u64, alloc: Arc<SimAlloc>) -> Self {
        SkipList { head, alloc }
    }

    /// Simulated address of the head tower.
    pub(crate) fn head_addr(&self) -> u64 {
        self.head
    }

    fn f(&self, node: u64, i: usize) -> u64 {
        self.alloc.field(node, i)
    }

    /// Finds per-level predecessors/successors of `key`, unlinking marked
    /// nodes encountered on the way (Harris-style per level).
    async fn find(
        &self,
        ph: &PHandle<'_>,
        key: u64,
    ) -> ([u64; MAX_LEVEL], [u64; MAX_LEVEL], Option<u64>) {
        'retry: loop {
            let mut preds = [0u64; MAX_LEVEL];
            let mut succs = [0u64; MAX_LEVEL];
            let mut pred = self.head;
            let mut found = None;
            for lvl in (0..MAX_LEVEL).rev() {
                let mut curr = addr(ph.read_traverse(self.f(pred, NEXT0 + lvl)).await);
                loop {
                    let curr_next = ph.read_traverse(self.f(curr, NEXT0 + lvl)).await;
                    if is_del(curr_next) {
                        if !ph
                            .cas(self.f(pred, NEXT0 + lvl), curr, addr(curr_next))
                            .await
                        {
                            continue 'retry;
                        }
                        curr = addr(curr_next);
                        continue;
                    }
                    let curr_key = ph.read_traverse(self.f(curr, KEY)).await;
                    if curr_key < key {
                        pred = curr;
                        curr = addr(curr_next);
                        continue;
                    }
                    if lvl == 0 && curr_key == key {
                        found = Some(curr);
                    }
                    preds[lvl] = pred;
                    succs[lvl] = curr;
                    break;
                }
            }
            return (preds, succs, found);
        }
    }
}

impl ConcurrentSet for SkipList {
    async fn insert(&self, ph: &PHandle<'_>, key: u64) -> bool {
        assert!((1..TAIL_KEY).contains(&key), "key out of range");
        let height = level_of(key);
        loop {
            let (preds, succs, found) = self.find(ph, key).await;
            if found.is_some() {
                return false;
            }
            let node = self.alloc.alloc(NEXT0 + height);
            ph.init_write(self.f(node, KEY), key).await;
            ph.init_write(self.f(node, LVL), height as u64).await;
            for (l, succ) in succs.iter().enumerate().take(height) {
                ph.init_write(self.f(node, NEXT0 + l), *succ).await;
            }
            ph.persist_node(node, (NEXT0 + height) as u64 * self.alloc.stride().bytes())
                .await;
            // Level-0 link is the linearization point.
            if !ph.cas(self.f(preds[0], NEXT0), succs[0], node).await {
                continue;
            }
            // Upper levels: link in bottom-up; abandon on concurrent delete.
            for l in 1..height {
                let mut pred = preds[l];
                let mut succ = succs[l];
                loop {
                    let cur_w = ph.read_traverse(self.f(node, NEXT0 + l)).await;
                    if is_del(cur_w) {
                        return true; // node is being deleted; stop indexing
                    }
                    if addr(cur_w) != succ
                        && !ph.cas(self.f(node, NEXT0 + l), addr(cur_w), succ).await
                    {
                        continue; // marked concurrently; re-check
                    }
                    if ph.cas(self.f(pred, NEXT0 + l), succ, node).await {
                        break;
                    }
                    let (np, ns, still_there) = self.find(ph, key).await;
                    if still_there != Some(node) {
                        return true; // removed (and maybe re-inserted) already
                    }
                    pred = np[l];
                    succ = ns[l];
                }
            }
            return true;
        }
    }

    async fn remove(&self, ph: &PHandle<'_>, key: u64) -> bool {
        loop {
            let (_, _, found) = self.find(ph, key).await;
            let Some(node) = found else { return false };
            let height = ph.read_traverse(self.f(node, LVL)).await as usize;
            // Mark upper levels (idempotent, helping-friendly).
            for l in (1..height).rev() {
                loop {
                    let w = ph.read_traverse(self.f(node, NEXT0 + l)).await;
                    if is_del(w) {
                        break;
                    }
                    if ph
                        .cas(self.f(node, NEXT0 + l), addr(w), addr(w) | DEL)
                        .await
                    {
                        break;
                    }
                }
            }
            // Level 0 mark is the linearization point; only the thread whose
            // CAS succeeds returns true.
            loop {
                let w = ph.read(self.f(node, NEXT0)).await;
                if is_del(w) {
                    break; // someone else deleted it; retry the outer find
                }
                if ph.cas(self.f(node, NEXT0), addr(w), addr(w) | DEL).await {
                    // Physical unlink via a fresh traversal.
                    let _ = self.find(ph, key).await;
                    return true;
                }
            }
        }
    }

    async fn contains(&self, ph: &PHandle<'_>, key: u64) -> bool {
        let mut pred = self.head;
        for lvl in (0..MAX_LEVEL).rev() {
            loop {
                let w = ph.read_traverse(self.f(pred, NEXT0 + lvl)).await;
                let curr = addr(w);
                if curr == 0 {
                    break;
                }
                let curr_key = ph.read_traverse(self.f(curr, KEY)).await;
                if curr_key < key {
                    pred = curr;
                    continue;
                }
                if lvl == 0 && curr_key == key {
                    let next = ph.read(self.f(curr, NEXT0)).await;
                    return !is_del(next);
                }
                break;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_deterministic_and_bounded() {
        for k in 1..200u64 {
            let l = level_of(k);
            assert!((1..=MAX_LEVEL).contains(&l));
            assert_eq!(l, level_of(k));
        }
        // The distribution must not be degenerate.
        let tall = (1..1000u64).filter(|&k| level_of(k) > 1).count();
        assert!(tall > 100, "only {tall} towers above level 1");
    }
}
