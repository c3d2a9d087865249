//! The sharded page worklist behind the parallel concurrent sweep (§7.1).
//!
//! The paper observes that background sweeping "parallelizes naturally"
//! across revoker cores. We model that literally: the pending page set of
//! a concurrent phase is dealt round-robin into one deque per configured
//! revoker core, each core consumes its own shard (charging its own cache
//! and DRAM traffic), and a core whose shard drains *steals* from the next
//! non-empty shard in deterministic round-robin order. Because the deal,
//! the per-core consumption order, and the steal order are all functions
//! of the (sorted) input page set and the core count alone, a sweep is
//! bit-for-bit reproducible — and the *revocation result* is independent
//! of the core count, since every pending page is visited exactly once.
//!
//! Removal (a load-barrier fault healing a page before the sweep reaches
//! it) is lazy: pages leave the membership set immediately and are skipped
//! when their queue entry surfaces, so `remove` is O(1) instead of a
//! deque scan.

use cheri_mem::{PageMap, PAGE_SIZE};
use std::collections::VecDeque;

/// A page worklist sharded across revoker cores.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardedWorklist {
    /// One FIFO of page addresses per shard (per revoker core).
    queues: Vec<VecDeque<u64>>,
    /// Pages still awaiting a visit, by page number (the source of truth;
    /// queue entries not present here are stale and skipped).
    pending: PageMap<()>,
}

impl ShardedWorklist {
    /// Deals page addresses `pages` round-robin into `shards` queues,
    /// deduplicating.
    /// Feed pages in a deterministic (e.g. ascending) order: the deal
    /// order defines each shard's visit order.
    pub(crate) fn new(pages: impl IntoIterator<Item = u64>, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut queues = vec![VecDeque::new(); shards];
        let mut pending = PageMap::default();
        for page in pages {
            if pending.insert(page / PAGE_SIZE, ()).is_none() {
                queues[(pending.len() - 1) % shards].push_back(page);
            }
        }
        ShardedWorklist { queues, pending }
    }

    /// Pages still awaiting a visit.
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether any page still awaits a visit.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `page` still awaits a visit.
    pub(crate) fn contains(&self, page: u64) -> bool {
        self.pending.contains(page / PAGE_SIZE)
    }

    /// Removes `page` from whichever shard owns it (lazy: the stale queue
    /// entry is dropped when it surfaces). Returns whether it was pending.
    pub(crate) fn remove(&mut self, page: u64) -> bool {
        self.pending.remove(page / PAGE_SIZE).is_some()
    }

    /// Pops the next page for `shard`: its own queue first, then — when it
    /// drains — the next non-empty shard in round-robin order.
    pub(crate) fn pop_for(&mut self, shard: usize) -> Option<u64> {
        let n = self.queues.len();
        for k in 0..n {
            let q = (shard + k) % n;
            while let Some(page) = self.queues[q].pop_front() {
                if self.remove(page) {
                    return Some(page);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Address of page `n`.
    const fn pg(n: u64) -> u64 {
        n * PAGE_SIZE
    }

    #[test]
    fn deals_round_robin_and_drains_everything() {
        let mut w = ShardedWorklist::new([1, 2, 3, 4, 5].map(pg), 2);
        assert_eq!(w.len(), 5);
        // Shard 0 got pages 1, 3, 5; shard 1 got 2, 4.
        assert_eq!(w.pop_for(0), Some(pg(1)));
        assert_eq!(w.pop_for(1), Some(pg(2)));
        assert_eq!(w.pop_for(0), Some(pg(3)));
        assert_eq!(w.pop_for(1), Some(pg(4)));
        assert_eq!(w.pop_for(1), Some(pg(5)), "shard 1 drained: steals from shard 0");
        assert!(w.is_empty());
        assert_eq!(w.pop_for(0), None);
    }

    #[test]
    fn removal_is_lazy_and_skipped_on_pop() {
        let mut w = ShardedWorklist::new([1, 2, 3].map(pg), 1);
        assert!(w.remove(pg(2)));
        assert!(!w.remove(pg(2)), "double remove is a no-op");
        assert!(!w.contains(pg(2)));
        assert_eq!(w.pop_for(0), Some(pg(1)));
        assert_eq!(w.pop_for(0), Some(pg(3)), "removed page is skipped");
        assert_eq!(w.pop_for(0), None);
    }

    #[test]
    fn duplicates_are_dealt_once() {
        let mut w = ShardedWorklist::new([7, 7, 7].map(pg), 3);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_for(2), Some(pg(7)), "any shard can steal the only page");
        assert!(w.is_empty());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let mut w = ShardedWorklist::new([pg(5)], 0);
        assert_eq!(w.pop_for(0), Some(pg(5)));
    }
}
