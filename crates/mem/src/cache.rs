//! A deterministic cache hierarchy and DRAM-traffic meter.
//!
//! Geometry loosely follows the Morello SoC's Neoverse-N1-derived cores:
//! per-core 64 KiB L1D and a shared 1 MiB last-level cache. Caches are
//! direct-mapped for determinism and speed; the evaluation cares about
//! *relative* DRAM traffic between revocation strategies, for which a
//! direct-mapped model preserves ordering.
//!
//! # Block summaries
//!
//! Every data access, painted bitmap word and swept page is charged here,
//! mostly as page-sized or longer ranges, so a range costs O(blocks touched)
//! plus O(exceptions), not O(lines). Lines are grouped in aligned *chunks*
//! of [`BLOCK`] (`chunk = line / BLOCK`) and a level's sets in aligned
//! *blocks* of as many; a level is a power-of-two number of blocks, so the
//! lines of chunk `c` fall, in order, on the sets of block `c % blocks`.
//! Per block:
//!
//! 1. **Residency.** Set `s` holds line `s` of chunk `tags[s]` if bit `s`
//!    of `except` is set, and of chunk `base` otherwise (`tags[s]` is then
//!    stale and never read). [`INVALID`] is the chunk of an empty set.
//! 2. **Dirty bits** are one mask per block, set only for sets that hold a
//!    line: a fill overwrites its set's bit with the access kind.
//! 3. **No conflict within a chunk.** A chunk's lines occupy distinct sets
//!    of one block, so a mask of them is answered at once: hits are the
//!    unexcepted sets if `base` is the chunk, plus the excepted sets whose
//!    tag is; misses write their tags and `except` bits — or, for a whole
//!    block, just `base = chunk, except = 0`, with no per-set store.
//!
//! A range is split into per-chunk masks, ascending; each goes to the L1
//! and its miss mask on to the L2. That is the per-line walk's access
//! sequence: the L1s and the L2 are separate structures, an L1's answers
//! never depend on the L2, and the L2 sees exactly the L1-missed lines in
//! ascending order either way. Chunks keep their order, so a range longer
//! than a level wraps and evicts its own head as the line walk would.
//!
//! The per-line algorithm survives as the reference model of
//! `tests/cache_reference.rs`, which this module must match cycle for cycle.

/// Whether an access reads or writes (writes mark lines dirty; dirty
/// evictions cost a write-back transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (allocate-on-write policy).
    Write,
}

/// Cycles for an L1 hit.
pub const L1_HIT_CYCLES: u64 = 2;
/// Additional cycles for an L2 hit.
pub const L2_HIT_CYCLES: u64 = 12;
/// Additional cycles for a DRAM access.
pub const DRAM_CYCLES: u64 = 120;

/// Cache geometry (the latencies are the constants [`L1_HIT_CYCLES`],
/// [`L2_HIT_CYCLES`] and [`DRAM_CYCLES`]).
///
/// Each level holds a power of two of lines, at least 64 (a level of the
/// model is a whole number of 64-set blocks): [`MemSystem::with_config`]
/// panics on anything else.
///
/// [`MemSystem::with_config`]: crate::MemSystem::with_config
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Per-core L1 lines (64-byte lines). Default 1024 (64 KiB).
    pub l1_lines: usize,
    /// Shared L2 lines. Default 16384 (1 MiB).
    pub l2_lines: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { l1_lines: 1024, l2_lines: 16384 }
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

/// Lines per block of sets (see the module docs): one bit of a `u64` mask
/// each. 64 beat 32 by 4 % on `pgbench-tx`, `churn-sweep` and
/// `churn-nosweep` alike, 10 of 10 alternating pairs each.
const BLOCK: usize = 64;
const SHIFT: u32 = BLOCK.trailing_zeros();
/// The mask of a whole block.
const ALL: u64 = u64::MAX >> (64 - BLOCK);

/// `BLOCK` adjacent sets. Set `s` of the block holds the line of chunk
/// `tags[s]` if bit `s` of `except` is set and of chunk `base` otherwise.
#[derive(Debug, Clone)]
struct Block {
    base: u64,
    except: u64,
    /// Bit `s`: the line in set `s` was written since it was filled. Never
    /// set for an invalid set.
    dirty: u64,
    tags: [u64; BLOCK],
}

/// No address has this chunk number: `base` of a block nothing has filled.
const INVALID: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct DirectCache {
    blocks: Vec<Block>,
    /// `blocks.len() - 1`; the length is a power of two.
    mask: usize,
}

impl DirectCache {
    fn new(lines: usize, field: &str) -> Self {
        assert!(
            lines.is_power_of_two() && lines >= BLOCK,
            "CacheConfig::{field} is {lines}: a level holds a power of two of lines, at least {BLOCK}"
        );
        let empty = Block { base: INVALID, except: 0, dirty: 0, tags: [INVALID; BLOCK] };
        DirectCache { blocks: vec![empty; lines / BLOCK], mask: lines / BLOCK - 1 }
    }

    /// One line. Returns `(hit, evicted_dirty)`.
    #[inline]
    fn access_line(&mut self, line: u64, write: bool) -> (bool, bool) {
        let chunk = line >> SHIFT;
        let s = line as usize % BLOCK;
        let bit = 1u64 << s;
        let blk = &mut self.blocks[chunk as usize & self.mask];
        let resident = if blk.except & bit != 0 { blk.tags[s] } else { blk.base };
        if resident == chunk {
            if write {
                blk.dirty |= bit;
            }
            return (true, false);
        }
        let evicted_dirty = blk.dirty & bit != 0;
        blk.tags[s] = chunk;
        blk.except |= bit;
        blk.dirty = if write { blk.dirty | bit } else { blk.dirty & !bit };
        (false, evicted_dirty)
    }

    /// The lines of `chunk` selected by `mask` (bit `s` = line
    /// `chunk * BLOCK + s`), as if probed one by one. Returns the masks of
    /// the lines that hit and of the missed lines whose victim was dirty.
    #[inline]
    fn access_block(&mut self, chunk: u64, mask: u64, write: bool) -> (u64, u64) {
        let blk = &mut self.blocks[chunk as usize & self.mask];
        let mut hit = if blk.base == chunk { mask & !blk.except } else { 0 };
        let mut probe = mask & blk.except;
        while probe != 0 {
            let s = probe.trailing_zeros() as usize;
            probe &= probe - 1;
            if blk.tags[s] == chunk {
                hit |= 1 << s;
            }
        }
        let miss = mask & !hit;
        let evicted_dirty = blk.dirty & miss;
        if mask == ALL {
            blk.base = chunk;
            blk.except = 0;
        } else if blk.base == chunk {
            // The missed sets return to `base`: no tag to write.
            blk.except &= !mask;
        } else {
            let mut fill = miss;
            while fill != 0 {
                blk.tags[fill.trailing_zeros() as usize] = chunk;
                fill &= fill - 1;
            }
            blk.except |= miss;
        }
        blk.dirty = if write { blk.dirty | mask } else { blk.dirty & !miss };
        (hit, evicted_dirty)
    }
}

/// `bits.count_ones()` for a subset `bits` of a mask with `n` bits set.
/// The baseline x86-64 target has no population-count instruction, and
/// all-or-nothing is the common answer for a block.
#[inline]
fn count_within(bits: u64, of: u64, n: u64) -> u64 {
    if bits == of {
        n
    } else if bits == 0 {
        0
    } else {
        u64::from(bits.count_ones())
    }
}

#[derive(Debug)]
pub(crate) struct Hierarchy {
    l1: Vec<DirectCache>,
    l2: DirectCache,
    stats: Vec<TrafficStats>,
}

impl Hierarchy {
    /// Panics if a level of `config` is not a power of two of at least
    /// [`BLOCK`] lines.
    pub(crate) fn new(cores: usize, config: CacheConfig) -> Self {
        Hierarchy {
            l1: (0..cores).map(|_| DirectCache::new(config.l1_lines, "l1_lines")).collect(),
            l2: DirectCache::new(config.l2_lines, "l2_lines"),
            stats: vec![TrafficStats::default(); cores],
        }
    }

    /// Charges every 64-byte line touched by `[addr, addr+len)` (one line
    /// when `len` is 0) and returns the total cycle cost.
    #[inline]
    pub(crate) fn access(&mut self, core: usize, addr: u64, len: u64, kind: AccessKind) -> u64 {
        assert!(core < self.l1.len(), "unknown core {core}");
        let first = addr / LINE;
        let last = addr.saturating_add(len.max(1) - 1) / LINE;
        if first != last {
            return self.access_range(core, first, last, kind);
        }
        // Four calls in five are one line.
        let Hierarchy { l1, l2, stats } = self;
        let st = &mut stats[core];
        // The L1s are probed as reads: nothing consumes an L1 victim's
        // dirty bit, so they keep none.
        if l1[core].access_line(first, false).0 {
            st.l1_hits += 1;
            return L1_HIT_CYCLES;
        }
        let (l2_hit, evicted_dirty) = l2.access_line(first, kind == AccessKind::Write);
        if l2_hit {
            st.l2_hits += 1;
            return L1_HIT_CYCLES + L2_HIT_CYCLES;
        }
        // L2 miss: one fill transaction, plus a write-back if the victim
        // was dirty.
        st.dram_transactions += 1 + u64::from(evicted_dirty);
        L1_HIT_CYCLES + L2_HIT_CYCLES + DRAM_CYCLES
    }

    /// Lines `first..=last` (line numbers, not byte addresses), a chunk at
    /// a time: each chunk's L1 misses go to the L2 as one mask.
    fn access_range(&mut self, core: usize, first: u64, last: u64, kind: AccessKind) -> u64 {
        let write = kind == AccessKind::Write;
        let Hierarchy { l1, l2, stats } = self;
        let l1 = &mut l1[core];
        let (first_chunk, last_chunk) = (first >> SHIFT, last >> SHIFT);
        let (mut l1_misses, mut fills, mut write_backs) = (0, 0, 0);
        let mut chunk = first_chunk;
        loop {
            let lo = if chunk == first_chunk { first as usize % BLOCK } else { 0 };
            let hi = if chunk == last_chunk { last as usize % BLOCK } else { BLOCK - 1 };
            let mask = ALL >> (BLOCK - 1 - (hi - lo)) << lo;
            let (l1_hit, _) = l1.access_block(chunk, mask, false);
            if l1_hit != mask {
                let miss = mask & !l1_hit;
                let n = count_within(miss, mask, (hi - lo + 1) as u64);
                let (l2_hit, evicted_dirty) = l2.access_block(chunk, miss, write);
                l1_misses += n;
                fills += n - count_within(l2_hit, miss, n);
                write_backs += count_within(evicted_dirty, miss, n);
            }
            if chunk == last_chunk {
                break;
            }
            chunk += 1;
        }
        let lines = last - first + 1;
        let st = &mut stats[core];
        st.l1_hits += lines - l1_misses;
        st.l2_hits += l1_misses - fills;
        st.dram_transactions += fills + write_backs;
        lines * L1_HIT_CYCLES + l1_misses * L2_HIT_CYCLES + fills * DRAM_CYCLES
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
        // The smallest legal geometry: one block per level.
        let cfg = CacheConfig { l1_lines: BLOCK, l2_lines: BLOCK };
        let mut h = Hierarchy::new(1, cfg);
        h.access(0, 0, 8, AccessKind::Write); // fill, dirty
        h.access(0, BLOCK as u64 * LINE, 8, AccessKind::Read); // evicts dirty line from both
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

    #[test]
    #[should_panic(expected = "CacheConfig::l1_lines is 0")]
    fn zero_line_level_is_rejected() {
        let _ = Hierarchy::new(1, CacheConfig { l1_lines: 0, ..CacheConfig::default() });
    }

    #[test]
    #[should_panic(expected = "CacheConfig::l2_lines is 1")]
    fn level_smaller_than_a_block_is_rejected() {
        let _ = Hierarchy::new(1, CacheConfig { l2_lines: 1, ..CacheConfig::default() });
    }

    #[test]
    #[should_panic(expected = "CacheConfig::l1_lines is 96")]
    fn non_power_of_two_level_is_rejected() {
        let _ = Hierarchy::new(1, CacheConfig { l1_lines: 96, ..CacheConfig::default() });
    }
}
