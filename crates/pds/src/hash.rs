//! Persistent lock-free hash table (David et al., ATC '18 \[23\] style):
//! a fixed array of buckets, each an independent Harris list.

use crate::alloc::SimAlloc;
use crate::list::HarrisList;
use crate::persist::PHandle;
use crate::ConcurrentSet;
use std::sync::Arc;

/// Fixed-size lock-free hash set.
#[derive(Clone, Debug)]
pub struct HashTable {
    buckets: Vec<HarrisList>,
}

impl HashTable {
    /// Builds a table with `buckets` chains (each with its own sentinels),
    /// emitting initialization through `poke`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize, alloc: Arc<SimAlloc>, mut poke: impl FnMut(u64, u64)) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let chains = (0..buckets)
            .map(|_| {
                let head = HarrisList::init_sentinels(&alloc, &mut poke);
                HarrisList::with_head(head, Arc::clone(&alloc))
            })
            .collect();
        HashTable { buckets: chains }
    }

    /// Rebuilds a table over existing bucket chains (warm restarts: the
    /// sentinels already live in restored simulated memory).
    pub(crate) fn with_heads(heads: &[u64], alloc: Arc<SimAlloc>) -> Self {
        assert!(!heads.is_empty(), "need at least one bucket");
        HashTable {
            buckets: heads
                .iter()
                .map(|&h| HarrisList::with_head(h, Arc::clone(&alloc)))
                .collect(),
        }
    }

    /// Simulated addresses of every bucket's head sentinel, in bucket
    /// order.
    pub(crate) fn bucket_heads(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.head_addr()).collect()
    }

    fn bucket(&self, key: u64) -> &HarrisList {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
        &self.buckets[(h % self.buckets.len() as u64) as usize]
    }
}

impl ConcurrentSet for HashTable {
    async fn insert(&self, ph: &PHandle<'_>, key: u64) -> bool {
        self.bucket(key).insert(ph, key).await
    }

    async fn remove(&self, ph: &PHandle<'_>, key: u64) -> bool {
        self.bucket(key).remove(ph, key).await
    }

    async fn contains(&self, ph: &PHandle<'_>, key: u64) -> bool {
        self.bucket(key).contains(ph, key).await
    }
}
