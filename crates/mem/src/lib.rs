//! Tagged physical memory and a bus-traffic model.
//!
//! CHERI requires "machinery to associate tags with memory words,
//! distinguishing well-formed capabilities from mere bit sequences" (paper
//! §2.1, citing Joannou et al.). This crate provides that substrate for the
//! simulation:
//!
//! * [`PhysMem`] — a sparse, demand-zero physical memory with one validity
//!   tag per naturally-aligned 16-byte granule. It holds what capability
//!   stores put there and no bytes besides: a data write is a
//!   [`PhysMem::clear_tag_range`] over the granules it touches, and an
//!   untagged granule loads as the address last stored to it. A page costs
//!   the host what it holds: a frame's capability shadow has one entry per
//!   granule stored to it, and its colours are allocated on first recolor.
//!   A frame is never released (nothing unmaps memory), so residency only
//!   grows and [`PhysMem::resident_bytes`] is also its peak.
//! * [`MemSystem`] — wraps [`PhysMem`] with per-core L1 caches and a shared
//!   L2, metering DRAM transactions per core. The paper's Figures 4 and 6
//!   report revocation's *bus traffic* overheads; this model is what lets
//!   the reproduction count the same quantity. (Morello stores tags in ECC
//!   bits, so tag traffic rides along with data traffic and is not counted
//!   separately.)
//!
//! # Example
//!
//! ```
//! use cheri_cap::{Capability, Perms};
//! use cheri_mem::PhysMem;
//!
//! let mut mem = PhysMem::new();
//! let cap = Capability::new_root(0x1000, 64, Perms::rw());
//! mem.store_cap(0x2000, cap);
//! assert!(mem.tag(0x2000));
//! // A data write over any byte of the granule clears the tag; the
//! // address stays readable, the capability does not.
//! mem.clear_tag_range(0x2008, 1);
//! assert!(!mem.tag(0x2000));
//! assert_eq!(mem.load_cap(0x2000), Capability::null().set_addr(0x1000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod hash;
mod pagemap;
mod phys;

pub use cache::{AccessKind, CacheConfig, TrafficStats, DRAM_CYCLES, L1_HIT_CYCLES, L2_HIT_CYCLES};
pub use hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use pagemap::PageMap;
pub use phys::{PhysMem, GRANULES_PER_PAGE, PAGE_SIZE};

use cheri_cap::Capability;

/// Identifies a CPU core for cache and traffic accounting.
pub type CoreId = usize;

/// Physical memory behind a modelled cache hierarchy.
///
/// All accesses are attributed to a [`CoreId`]; misses in that core's L1 and
/// the shared L2 are charged as DRAM transactions to that core. Cycle costs
/// for the simulator's clock are returned from each access.
#[derive(Debug)]
pub struct MemSystem {
    mem: PhysMem,
    caches: cache::Hierarchy,
}

impl MemSystem {
    /// Creates a memory system with `cores` cores and the default Morello-
    /// inspired cache geometry.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        MemSystem::with_config(cores, CacheConfig::default())
    }

    /// Creates a memory system with an explicit cache geometry.
    ///
    /// # Panics
    ///
    /// If a level of `config` is not a power of two of lines of at least
    /// one block (see [`CacheConfig`]); the message names the field.
    #[must_use]
    pub fn with_config(cores: usize, config: CacheConfig) -> Self {
        MemSystem { mem: PhysMem::new(), caches: cache::Hierarchy::new(cores, config) }
    }

    /// Direct access to the underlying physical memory, bypassing the cache
    /// model (used by test assertions and debug dumps, never by simulated
    /// cores).
    #[must_use]
    #[inline]
    pub fn phys(&self) -> &PhysMem {
        &self.mem
    }

    /// Mutable access to the underlying physical memory, bypassing the
    /// cache model.
    #[inline]
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.mem
    }

    /// Stores a capability at 16-byte-aligned `addr`, setting the granule
    /// tag iff the capability is tagged.
    #[inline]
    pub fn store_cap(&mut self, core: CoreId, addr: u64, cap: Capability) -> u64 {
        let cost = self.caches.access(core, addr, cheri_cap::CAP_SIZE, AccessKind::Write);
        self.mem.store_cap(addr, cap);
        cost
    }

    /// Charges the cache/bus cost of reading `[addr, addr+len)`. Memory
    /// holds no bytes to move, so this is all a data read costs; a
    /// capability load pairs it with [`PhysMem::load_granule`], and a sweep
    /// with [`PhysMem::tagged_caps_in_page`].
    #[inline]
    pub fn touch_read(&mut self, core: CoreId, addr: u64, len: u64) -> u64 {
        self.caches.access(core, addr, len, AccessKind::Read)
    }

    /// Charges the cache/bus cost of a write to `[addr, addr+len)` without
    /// moving data.
    #[inline]
    pub fn touch_write(&mut self, core: CoreId, addr: u64, len: u64) -> u64 {
        self.caches.access(core, addr, len, AccessKind::Write)
    }

    /// Per-core traffic statistics.
    #[must_use]
    pub fn traffic(&self, core: CoreId) -> TrafficStats {
        self.caches.stats(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::Perms;

    #[test]
    fn cached_rereads_do_not_hit_dram() {
        let mut ms = MemSystem::new(1);
        ms.touch_read(0, 0x1000, 64);
        let first = ms.traffic(0).dram_transactions;
        assert!(first > 0);
        for _ in 0..10 {
            ms.touch_read(0, 0x1000, 64);
        }
        assert_eq!(ms.traffic(0).dram_transactions, first);
    }

    #[test]
    fn distinct_cores_have_distinct_l1s() {
        let mut ms = MemSystem::new(2);
        ms.touch_read(0, 0x1000, 64);
        let before = ms.traffic(1).dram_transactions;
        // Core 1 misses its own L1 but hits the shared L2: no new DRAM.
        ms.touch_read(1, 0x1000, 64);
        assert_eq!(ms.traffic(1).dram_transactions, before);
        assert!(ms.traffic(1).l2_hits > 0);
    }

    #[test]
    fn cap_roundtrip_through_memsystem() {
        let mut ms = MemSystem::new(1);
        let cap = Capability::new_root(0x4000, 128, Perms::rw());
        ms.store_cap(0, 0x9000, cap);
        assert_eq!(ms.phys().load_cap(0x9000), cap);
    }

    #[test]
    fn streaming_sweep_costs_dram() {
        let mut ms = MemSystem::new(1);
        // Touch 4 MiB: far larger than L2, so most lines are DRAM misses.
        let mut cost = 0;
        for page in 0..1024u64 {
            cost += ms.touch_read(0, page * 4096, 4096);
        }
        let stats = ms.traffic(0);
        assert!(stats.dram_transactions >= 1024 * 64 / 2);
        assert!(cost > stats.l1_hits);
    }
}
