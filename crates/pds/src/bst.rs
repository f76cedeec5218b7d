//! Persistent lock-free external binary search tree, after Natarajan &
//! Mittal (PPoPP '14 \[53\]) — the BST of §7.4.
//!
//! The tree is *external*: internal nodes `[key, left, right]` only route;
//! leaves `[key]` hold the set's elements. Child-pointer words carry the
//! NM *flag* (bit 0, [`crate::ptr::DEL`]) and *tag* (bit 1,
//! [`crate::ptr::TAG`]) plus a leaf marker (bit 2, [`crate::ptr::LEAF`]).
//! Deletion is two-phase: *injection* flags the parent→leaf edge, then
//! *cleanup* tags the sibling edge and splices the whole parent out with one
//! CAS on the ancestor.
//!
//! Note the paper's observation that Link-and-Persist cannot be applied to
//! this structure because it uses spare pointer bits (§7.4); the workload
//! driver enforces that via [`crate::OptKind::applicable_to`].

use crate::alloc::SimAlloc;
use crate::persist::PHandle;
use crate::ptr::{addr, is_del, is_leaf, is_tag, DEL, LEAF, TAG};
use crate::ConcurrentSet;
use std::sync::Arc;

const KEY: usize = 0;
const LEFT: usize = 1;
const RIGHT: usize = 2;

/// ∞₂ sentinel (root key).
const INF2: u64 = (1 << 62) - 1;
/// ∞₁ sentinel.
const INF1: u64 = (1 << 62) - 2;

/// Seek record (the NM paper's `SeekRecord`).
#[derive(Clone, Copy, Debug)]
struct Seek {
    ancestor: u64,
    successor: u64,
    parent: u64,
    /// Leaf node address (tag bits stripped).
    leaf: u64,
    leaf_key: u64,
}

/// The lock-free external BST. See [module docs](self).
#[derive(Clone, Debug)]
pub struct Bst {
    root: u64,
    alloc: Arc<SimAlloc>,
}

impl Bst {
    /// Builds the sentinel skeleton: `R(∞₂)` → `S(∞₁)` with sentinel
    /// leaves, emitting initialization through `poke`.
    pub fn new(alloc: Arc<SimAlloc>, mut poke: impl FnMut(u64, u64)) -> Self {
        let leaf_inf1 = alloc.alloc(1);
        let leaf_inf2a = alloc.alloc(1);
        let leaf_inf2b = alloc.alloc(1);
        let s = alloc.alloc(3);
        let r = alloc.alloc(3);
        poke(alloc.field(leaf_inf1, KEY), INF1);
        poke(alloc.field(leaf_inf2a, KEY), INF2);
        poke(alloc.field(leaf_inf2b, KEY), INF2);
        poke(alloc.field(s, KEY), INF1);
        poke(alloc.field(s, LEFT), leaf_inf1 | LEAF);
        poke(alloc.field(s, RIGHT), leaf_inf2a | LEAF);
        poke(alloc.field(r, KEY), INF2);
        poke(alloc.field(r, LEFT), s);
        poke(alloc.field(r, RIGHT), leaf_inf2b | LEAF);
        Bst { root: r, alloc }
    }

    /// Rebuilds a tree over an existing root (warm restarts: the sentinel
    /// skeleton already lives in restored simulated memory).
    pub(crate) fn with_root(root: u64, alloc: Arc<SimAlloc>) -> Self {
        Bst { root, alloc }
    }

    /// Simulated address of the `R(∞₂)` sentinel root.
    pub(crate) fn root_addr(&self) -> u64 {
        self.root
    }

    fn f(&self, node: u64, i: usize) -> u64 {
        self.alloc.field(node, i)
    }

    /// Child-field address of `node` on the side `key` routes to.
    async fn child_field(&self, ph: &PHandle<'_>, node: u64, key: u64) -> u64 {
        let nk = ph.read_traverse(self.f(node, KEY)).await;
        if key < nk {
            self.f(node, LEFT)
        } else {
            self.f(node, RIGHT)
        }
    }

    async fn seek(&self, ph: &PHandle<'_>, key: u64) -> Seek {
        let mut ancestor = self.root;
        let mut successor = addr(ph.read_traverse(self.f(self.root, LEFT)).await);
        let mut parent = successor; // = S
        let mut cur_w = ph.read_traverse(self.f(parent, LEFT)).await;
        // Invariant: ancestor→successor is the deepest untagged edge above
        // parent on the search path.
        while !is_leaf(cur_w) {
            let cur = addr(cur_w);
            if !is_tag(cur_w) {
                ancestor = parent;
                successor = cur;
            }
            parent = cur;
            cur_w = ph.read_traverse(self.child_field(ph, cur, key).await).await;
        }
        let leaf = addr(cur_w);
        let leaf_key = ph.read(self.f(leaf, KEY)).await;
        Seek {
            ancestor,
            successor,
            parent,
            leaf,
            leaf_key,
        }
    }

    /// NM cleanup: tags the sibling edge and splices the parent out via the
    /// ancestor. Returns `true` when the splice CAS succeeds.
    async fn cleanup(&self, ph: &PHandle<'_>, key: u64, s: &Seek) -> bool {
        // Which of parent's children the search key routes to.
        let pk = ph.read_traverse(self.f(s.parent, KEY)).await;
        let (mut child_f, mut sibling_f) = if key < pk {
            (self.f(s.parent, LEFT), self.f(s.parent, RIGHT))
        } else {
            (self.f(s.parent, RIGHT), self.f(s.parent, LEFT))
        };
        if !is_del(ph.read_traverse(child_f).await) {
            // The flag sits on the other side (we are helping a delete of
            // the sibling leaf).
            std::mem::swap(&mut child_f, &mut sibling_f);
        }
        // Tag the sibling edge so it cannot change under the splice.
        loop {
            let sw = ph.read_traverse(sibling_f).await;
            if is_tag(sw) {
                break;
            }
            if ph.cas(sibling_f, sw, sw | TAG).await {
                break;
            }
        }
        let sw = ph.read_traverse(sibling_f).await;
        // Splice: ancestor's edge toward key moves from successor to the
        // sibling subtree (tag cleared, leaf bit preserved). The NM *flag*
        // of the sibling edge must survive the splice: it is a concurrent
        // delete's injection on the sibling leaf, and dropping it strands
        // that delete in its cleanup loop forever (no edge left flagged).
        let anc_f = self.child_field(ph, s.ancestor, key).await;
        let new_w = (addr(sw)) | (sw & (LEAF | DEL));
        ph.cas(anc_f, s.successor, new_w).await
    }
}

impl ConcurrentSet for Bst {
    async fn insert(&self, ph: &PHandle<'_>, key: u64) -> bool {
        assert!((1..INF1).contains(&key), "key out of range");
        loop {
            let s = self.seek(ph, key).await;
            if s.leaf_key == key {
                return false;
            }
            // Build the replacement subtree: new internal routing between
            // the existing leaf and the new leaf.
            let new_leaf = self.alloc.alloc(1);
            let internal = self.alloc.alloc(3);
            ph.init_write(self.f(new_leaf, KEY), key).await;
            let (ik, lw, rw) = if key < s.leaf_key {
                (s.leaf_key, new_leaf | LEAF, s.leaf | LEAF)
            } else {
                (key, s.leaf | LEAF, new_leaf | LEAF)
            };
            ph.init_write(self.f(internal, KEY), ik).await;
            ph.init_write(self.f(internal, LEFT), lw).await;
            ph.init_write(self.f(internal, RIGHT), rw).await;
            ph.persist_node(new_leaf, self.alloc.stride().bytes()).await;
            ph.persist_node(internal, 3 * self.alloc.stride().bytes())
                .await;
            let parent_f = self.child_field(ph, s.parent, key).await;
            if ph.cas(parent_f, s.leaf | LEAF, internal).await {
                return true;
            }
            // Failed: if the edge is flagged/tagged for this leaf, help the
            // pending delete before retrying.
            let w = ph.read_traverse(parent_f).await;
            if addr(w) == s.leaf && (is_del(w) || is_tag(w)) {
                self.cleanup(ph, key, &s).await;
            }
        }
    }

    async fn remove(&self, ph: &PHandle<'_>, key: u64) -> bool {
        let mut injected: Option<u64> = None; // flagged leaf
        loop {
            let s = self.seek(ph, key).await;
            match injected {
                None => {
                    if s.leaf_key != key {
                        return false;
                    }
                    let parent_f = self.child_field(ph, s.parent, key).await;
                    // Injection: flag the parent→leaf edge (linearization).
                    if ph.cas(parent_f, s.leaf | LEAF, s.leaf | LEAF | DEL).await {
                        injected = Some(s.leaf);
                        if self.cleanup(ph, key, &s).await {
                            return true;
                        }
                    } else {
                        // Help whatever operation owns the edge.
                        let w = ph.read_traverse(parent_f).await;
                        if addr(w) == s.leaf && (is_del(w) || is_tag(w)) {
                            self.cleanup(ph, key, &s).await;
                        }
                    }
                }
                Some(leaf) => {
                    if s.leaf != leaf {
                        // Someone else finished our cleanup.
                        return true;
                    }
                    if self.cleanup(ph, key, &s).await {
                        return true;
                    }
                }
            }
        }
    }

    async fn contains(&self, ph: &PHandle<'_>, key: u64) -> bool {
        let s = self.seek(ph, key).await;
        s.leaf_key == key
    }
}
