//! A deterministic cache hierarchy and DRAM-traffic meter.
//!
//! Geometry loosely follows the Morello SoC's Neoverse-N1-derived cores:
//! per-core 64 KiB L1D and a shared 1 MiB last-level cache. Caches are
//! direct-mapped for determinism and speed; the evaluation cares about
//! *relative* DRAM traffic between revocation strategies, for which a
//! direct-mapped model preserves ordering.

/// Whether an access reads or writes (writes mark lines dirty; dirty
/// evictions cost a write-back transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (allocate-on-write policy).
    Write,
}

/// Cache geometry and latency parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Per-core L1 lines (64-byte lines). Default 1024 (64 KiB).
    pub l1_lines: usize,
    /// Shared L2 lines. Default 16384 (1 MiB).
    pub l2_lines: usize,
    /// Cycles for an L1 hit.
    pub l1_hit_cycles: u64,
    /// Additional cycles for an L2 hit.
    pub l2_hit_cycles: u64,
    /// Additional cycles for a DRAM access.
    pub dram_cycles: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { l1_lines: 1024, l2_lines: 16384, l1_hit_cycles: 2, l2_hit_cycles: 12, dram_cycles: 120 }
    }
}

/// Per-core traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Line accesses that hit the core's L1.
    pub l1_hits: u64,
    /// Line accesses that missed L1 but hit the shared L2.
    pub l2_hits: u64,
    /// DRAM transactions (fills + dirty write-backs) attributed to the core.
    pub dram_transactions: u64,
}

const LINE: u64 = 64;

#[derive(Debug, Clone)]
struct DirectCache {
    /// Packed per-set state: `(line_tag + 1) << 1 | dirty`; 0 = invalid.
    /// One word per set keeps the line walk to a single array touch.
    state: Vec<u64>,
    /// `lines - 1` when `lines` is a power of two (the default geometries
    /// are), letting set selection be a mask instead of an integer divide;
    /// `usize::MAX` otherwise.
    mask: usize,
}

impl DirectCache {
    fn new(lines: usize) -> Self {
        let mask = if lines.is_power_of_two() { lines - 1 } else { usize::MAX };
        DirectCache { state: vec![0; lines], mask }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.mask != usize::MAX {
            (line as usize) & self.mask
        } else {
            (line as usize) % self.state.len()
        }
    }

    /// Marks the resident line of `set` dirty (caller must know the set
    /// holds a valid line — the streak fast path does).
    #[inline]
    fn mark_dirty(&mut self, set: usize) {
        self.state[set] |= 1;
    }

    /// Access with a precomputed set index (`set == line % self.state.len()`;
    /// batched range walks keep the index incrementally instead of dividing
    /// per line). Returns `(hit, evicted_dirty)`.
    #[inline]
    fn access_at(&mut self, set: usize, line: u64, write: bool) -> (bool, bool) {
        debug_assert_eq!(set, (line as usize) % self.state.len());
        let cur = self.state[set];
        if cur >> 1 == line + 1 {
            if write {
                self.state[set] = cur | 1;
            }
            (true, false)
        } else {
            // An invalid set (0) has its dirty bit clear, so no guard needed.
            let evicted_dirty = cur & 1 == 1;
            self.state[set] = (line + 1) << 1 | u64::from(write);
            (false, evicted_dirty)
        }
    }
}

#[derive(Debug)]
pub(crate) struct Hierarchy {
    l1: Vec<DirectCache>,
    l2: DirectCache,
    stats: Vec<TrafficStats>,
    config: CacheConfig,
    /// Per-core memo of the two most recently accessed lines and their L1
    /// sets, MRU first. Only a core's own accesses mutate its L1, and a
    /// memoized line is by construction the most recent access to its
    /// direct-mapped set — so a repeat access is a guaranteed L1 hit and
    /// can skip the lookup machinery entirely while producing identical
    /// stats. Two entries (kept set-disjoint) serve the ping-pong access
    /// pairs the revoker's bitmap probes produce (summary word / bitmap
    /// word). `(u64::MAX, 0)` = empty.
    hot: Vec<[(u64, usize); 2]>,
}

/// Maintains a core's two-entry memo after a single-line access to `line`
/// (occupying L1 `set`): the new line becomes MRU, and any older entry
/// mapping to the same set is dropped (it was just evicted).
#[inline]
fn note_access(hot: &mut [(u64, usize); 2], line: u64, set: usize) {
    if hot[0].1 == set && hot[0].0 != u64::MAX {
        // Same set as the old MRU: that entry was just evicted; the LRU
        // entry's set differs (invariant) and stays valid.
        hot[0] = (line, set);
    } else {
        hot[1] = hot[0];
        hot[0] = (line, set);
    }
}

impl Hierarchy {
    pub(crate) fn new(cores: usize, config: CacheConfig) -> Self {
        Hierarchy {
            l1: (0..cores).map(|_| DirectCache::new(config.l1_lines)).collect(),
            l2: DirectCache::new(config.l2_lines),
            stats: vec![TrafficStats::default(); cores],
            config,
            hot: vec![[(u64::MAX, 0); 2]; cores],
        }
    }

    /// Walks every 64-byte line touched by `[addr, addr+len)` and returns
    /// the total cycle cost.
    #[inline]
    pub(crate) fn access(&mut self, core: usize, addr: u64, len: u64, kind: AccessKind) -> u64 {
        assert!(core < self.l1.len(), "unknown core {core}");
        let first = addr / LINE;
        let last = addr.saturating_add(len.max(1) - 1) / LINE;
        if first == last {
            let hot = &mut self.hot[core];
            let set = if hot[0].0 == first {
                hot[0].1
            } else if hot[1].0 == first {
                hot.swap(0, 1);
                hot[0].1
            } else {
                usize::MAX
            };
            if set != usize::MAX {
                // Streak fast path: one of this core's two most recent
                // lines — a guaranteed L1 hit.
                if kind == AccessKind::Write {
                    self.l1[core].mark_dirty(set);
                }
                self.stats[core].l1_hits += 1;
                return self.config.l1_hit_cycles;
            }
        }
        self.access_range(core, first, last, kind)
    }

    /// Batched line walk for `[first..=last]` (line numbers, not byte
    /// addresses): the set indices of both cache levels are computed once
    /// and advanced incrementally, instead of dividing per line.
    pub(crate) fn access_range(
        &mut self,
        core: usize,
        first: u64,
        last: u64,
        kind: AccessKind,
    ) -> u64 {
        assert!(core < self.l1.len(), "unknown core {core}");
        let write = kind == AccessKind::Write;
        let Hierarchy { l1, l2, stats, config, hot } = self;
        let l1 = &mut l1[core];
        let st = &mut stats[core];
        let (l1_len, l2_len) = (l1.state.len(), l2.state.len());
        let mut s1 = l1.set_of(first);
        let mut s2 = l2.set_of(first);
        let mut cycles = 0;
        let mut line = first;
        loop {
            cycles += config.l1_hit_cycles;
            let (l1_hit, _) = l1.access_at(s1, line, write);
            if l1_hit {
                st.l1_hits += 1;
            } else {
                cycles += config.l2_hit_cycles;
                let (l2_hit, l2_evicted_dirty) = l2.access_at(s2, line, write);
                if l2_hit {
                    st.l2_hits += 1;
                } else {
                    // L2 miss: one fill transaction, plus a write-back if the
                    // victim was dirty.
                    cycles += config.dram_cycles;
                    st.dram_transactions += 1 + u64::from(l2_evicted_dirty);
                }
            }
            if line == last {
                break;
            }
            line += 1;
            s1 += 1;
            if s1 == l1_len {
                s1 = 0;
            }
            s2 += 1;
            if s2 == l2_len {
                s2 = 0;
            }
        }
        if first == last {
            note_access(&mut hot[core], last, s1);
        } else {
            // A multi-line walk may have evicted anything the memo held;
            // only the final line is still guaranteed resident.
            hot[core] = [(last, s1), (u64::MAX, 0)];
        }
        cycles
    }

    pub(crate) fn stats(&self, core: usize) -> TrafficStats {
        self.stats[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits_l1() {
        let mut h = Hierarchy::new(1, CacheConfig::default());
        h.access(0, 0x1000, 8, AccessKind::Read);
        let miss_cost = h.access(0, 0x4000_0000, 8, AccessKind::Read);
        let hit_cost = h.access(0, 0x1000, 8, AccessKind::Read);
        assert!(hit_cost < miss_cost);
        assert_eq!(h.stats(0).l1_hits, 1);
    }

    #[test]
    fn dirty_eviction_costs_writeback() {
        let cfg = CacheConfig { l1_lines: 1, l2_lines: 1, ..CacheConfig::default() };
        let mut h = Hierarchy::new(1, cfg);
        h.access(0, 0, 8, AccessKind::Write); // fill, dirty
        h.access(0, 64, 8, AccessKind::Read); // evicts dirty line from both
        // fill(1) + fill(1) + writeback(1)
        assert_eq!(h.stats(0).dram_transactions, 3);
    }

    #[test]
    fn multi_line_access_counts_each_line() {
        let mut h = Hierarchy::new(1, CacheConfig::default());
        h.access(0, 0, 256, AccessKind::Read);
        assert_eq!(h.stats(0).dram_transactions, 4);
    }

    #[test]
    fn zero_length_access_touches_one_line() {
        let mut h = Hierarchy::new(1, CacheConfig::default());
        h.access(0, 100, 0, AccessKind::Read);
        assert_eq!(h.stats(0).dram_transactions, 1);
    }

    /// The same-line streak memo must be invisible in stats and cycle
    /// costs: drive one hierarchy through the public `access` (memo
    /// engaged) and one through `access_range` (memo bypassed) with the
    /// same trace, and compare everything.
    #[test]
    fn streak_memo_is_stats_transparent() {
        let cfg = CacheConfig::default();
        let (mut fast, mut slow) = (Hierarchy::new(2, cfg), Hierarchy::new(2, cfg));
        // Streaks, alternating cores, read/write mixes, an eviction, and a
        // re-touch of the evicted line.
        let trace: &[(usize, u64, u64, AccessKind)] = &[
            (0, 0x1000, 8, AccessKind::Read),
            (0, 0x1000, 8, AccessKind::Write),
            (0, 0x1008, 8, AccessKind::Read),
            (1, 0x1000, 8, AccessKind::Read),
            (0, 0x1000 + 64 * 1024, 8, AccessKind::Read), // evicts 0x1000 from L1[0]
            (0, 0x1000, 8, AccessKind::Read),
            (0, 0x1000, 128, AccessKind::Write),
            (0, 0x1000, 8, AccessKind::Read),
        ];
        for &(core, addr, len, kind) in trace {
            let a = fast.access(core, addr, len, kind);
            let b = slow.access_range(core, addr / LINE, addr.saturating_add(len.max(1) - 1) / LINE, kind);
            assert_eq!(a, b, "cycle cost diverged at {addr:#x}");
        }
        for core in 0..2 {
            assert_eq!(fast.stats(core), slow.stats(core), "core {core} stats diverged");
        }
    }
}
