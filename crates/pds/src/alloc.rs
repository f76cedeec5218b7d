//! Simulated-memory node allocator.
//!
//! Nodes live in simulated physical memory; this allocator is a host-side
//! bump allocator that hands out simulated addresses. Every node is
//! cache-line (64 B) aligned so that pointer words have their low bits free
//! for tags ([`crate::ptr`]) and so nodes do not share lines (as the
//! cache-line-granular persistence reasoning of the paper assumes).
//!
//! The allocator is shared between a run's workers through an atomic bump
//! pointer; allocation itself costs no simulated time (it is not the object
//! of any reproduced figure — see DESIGN.md §5.7).

use skipit_core::LINE_BYTES;
use std::sync::atomic::{AtomicU64, Ordering};

/// Field width multiplier: [`crate::OptKind::FlitAdjacent`] doubles every
/// field to make room for the adjacent counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldStride {
    /// One 8-byte word per field.
    Word,
    /// 16 bytes per field: value + adjacent FliT counter.
    WordPlusCounter,
}

impl FieldStride {
    /// Bytes per field.
    pub fn bytes(self) -> u64 {
        match self {
            FieldStride::Word => 8,
            FieldStride::WordPlusCounter => 16,
        }
    }
}

/// Bump allocator over a simulated address range.
#[derive(Debug)]
pub struct SimAlloc {
    next: AtomicU64,
    base: u64,
    limit: u64,
    stride: FieldStride,
}

impl SimAlloc {
    /// Creates an allocator over `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not line-aligned or the range is empty.
    pub fn new(base: u64, size: u64, stride: FieldStride) -> Self {
        assert_eq!(base % LINE_BYTES as u64, 0, "base must be line-aligned");
        assert!(size >= LINE_BYTES as u64, "allocator range too small");
        SimAlloc {
            next: AtomicU64::new(base),
            base,
            limit: base + size,
            stride,
        }
    }

    /// The field stride (how far apart consecutive node fields sit).
    pub fn stride(&self) -> FieldStride {
        self.stride
    }

    /// Simulated address of field `i` of the node at `node`.
    pub fn field(&self, node: u64, i: usize) -> u64 {
        node + i as u64 * self.stride.bytes()
    }

    /// Allocates a node with `fields` fields.
    ///
    /// Nodes are packed (several small nodes share a cache line, like a
    /// real allocator) — this is what makes FliT-adjacent's doubled field
    /// stride cost real cache capacity, the effect §7.4 measures. A node
    /// never straddles a line boundary unless it is larger than a line, in
    /// which case it starts line-aligned.
    ///
    /// # Panics
    ///
    /// Panics when the simulated arena is exhausted.
    pub fn alloc(&self, fields: usize) -> u64 {
        let bytes = (fields as u64 * self.stride.bytes()).max(8);
        let line = LINE_BYTES as u64;
        let node = self
            .next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                let start = if bytes >= line || cur % line + bytes > line {
                    // Start at the next line boundary.
                    cur.next_multiple_of(line)
                } else {
                    cur
                };
                Some(start + bytes)
            })
            .expect("fetch_update closure always returns Some");
        let start = if bytes >= line || node % line + bytes > line {
            node.next_multiple_of(line)
        } else {
            node
        };
        assert!(
            start + bytes <= self.limit,
            "simulated arena exhausted at {start:#x}"
        );
        start
    }

    /// Bytes handed out so far.
    pub fn used(&self) -> u64 {
        self.next.load(Ordering::Relaxed) - self.base
    }

    /// Current bump pointer (the next unallocated simulated address) — the
    /// one piece of allocator state a warm restart must carry over.
    pub fn next_addr(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Rebuilds an allocator whose bump pointer is already at `next`, as
    /// captured from [`SimAlloc::next_addr`] of a prefilled run. New
    /// allocations continue exactly where the captured run stopped, so a
    /// restored workload allocates the same addresses the uninterrupted
    /// one would have.
    ///
    /// # Panics
    ///
    /// Panics if `next` lies outside `[base, base + size]` (a bump pointer
    /// this allocator could never have produced), or on the same geometry
    /// violations as [`SimAlloc::new`].
    pub fn resume(base: u64, size: u64, stride: FieldStride, next: u64) -> Self {
        let a = SimAlloc::new(base, size, stride);
        assert!(
            (base..=a.limit).contains(&next),
            "resumed bump pointer {next:#x} outside arena [{base:#x}, {:#x}]",
            a.limit
        );
        a.next.store(next, Ordering::Relaxed);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_nodes_pack_within_a_line() {
        let a = SimAlloc::new(0x10_0000, 1 << 20, FieldStride::Word);
        let n1 = a.alloc(2); // 16 B
        let n2 = a.alloc(2);
        let n3 = a.alloc(2);
        assert_eq!(n2, n1 + 16, "small nodes must share cache lines");
        assert_eq!(n3, n2 + 16);
    }

    #[test]
    fn nodes_never_straddle_line_boundaries() {
        let a = SimAlloc::new(0x10_0000, 1 << 20, FieldStride::Word);
        for _ in 0..100 {
            let n = a.alloc(3); // 24 B
            assert_eq!(n / 64, (n + 23) / 64, "node straddles a line");
        }
    }

    #[test]
    fn wide_nodes_start_line_aligned() {
        let a = SimAlloc::new(0x10_0000, 1 << 20, FieldStride::WordPlusCounter);
        a.alloc(1); // perturb the bump pointer
        let n1 = a.alloc(10); // 160 bytes: > 1 line
        assert_eq!(n1 % 64, 0);
        assert_eq!(a.field(n1, 2), n1 + 32);
    }

    #[test]
    fn doubled_stride_consumes_more_lines() {
        let w = SimAlloc::new(0x10_0000, 1 << 20, FieldStride::Word);
        let f = SimAlloc::new(0x10_0000, 1 << 20, FieldStride::WordPlusCounter);
        for _ in 0..64 {
            w.alloc(2);
            f.alloc(2);
        }
        assert!(
            f.used() >= 2 * w.used(),
            "FliT-adjacent stride must cost real capacity"
        );
    }

    #[test]
    fn word_stride_field_addresses() {
        let a = SimAlloc::new(0, 1 << 16, FieldStride::Word);
        assert_eq!(a.field(0x100, 0), 0x100);
        assert_eq!(a.field(0x100, 3), 0x118);
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn exhaustion_panics() {
        let a = SimAlloc::new(0, 64, FieldStride::Word);
        for _ in 0..9 {
            a.alloc(1); // 9 × 8 B > 64 B
        }
    }
}
