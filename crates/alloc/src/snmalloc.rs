//! `SnmallocLite`: a size-class slab allocator over the simulated VM.
//!
//! Carves 64 KiB slabs out of the malloc arena, dedicates each slab to one
//! size class, and keeps all metadata out-of-band (as CheriBSD allocators
//! must once quarantine forbids reusing freed objects for free lists;
//! paper §6.3 contrast). Every returned pointer carries exact CHERI bounds
//! (padded to representability where required).
//!
//! The metadata is one region table: every stretch ever carved from the
//! bump pointer (a slab, or a large chunk holding one object) with a live
//! bit per object, found through a [`PageMap`] from page number to
//! region. Regions are page-aligned and never un-carved, so the index is
//! written once per region and a `free` is one page lookup, one division
//! and one bit test, for small and large objects alike.

use crate::size_class::{size_class_for, NUM_SIZE_CLASSES};
use crate::HeapLayout;
use cheri_cap::{compress, Capability, Perms};
use cheri_mem::{CoreId, PageMap, PAGE_SIZE};
use cheri_vm::{Machine, MapFlags};
use std::collections::BTreeMap;
use std::fmt;

const SLAB_SIZE: u64 = 64 * 1024;

/// Allocation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocError {
    /// The arena is exhausted (including quarantined space not yet
    /// returned).
    OutOfMemory,
    /// `free` was passed a pointer the allocator does not own (wrong base,
    /// double free, or foreign memory).
    BadFree,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory => f.write_str("heap arena exhausted"),
            AllocError::BadFree => f.write_str("free of unowned or already-free pointer"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A successful allocation: the bounded capability plus the cycle cost of
/// the allocator's own work (metadata + zeroing traffic).
#[derive(Debug, Clone, Copy)]
pub struct Allocation {
    /// The bounded, tagged pointer handed to the application.
    pub cap: Capability,
    /// Cycles spent inside the allocator.
    pub cycles: u64,
}

/// What a `free` resolved to — needed by the quarantine layer to recycle
/// the right structure later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreedRegion {
    /// Base address of the underlying storage.
    pub base: u64,
    /// Length of the underlying storage (class size or chunk length).
    pub len: u64,
    /// Size class index, or `None` for a large (chunk) allocation.
    pub class: Option<usize>,
}

/// One stretch of arena carved from the bump pointer: a size-class slab,
/// or a large chunk (one object, `class: None`).
#[derive(Debug)]
struct Region {
    base: u64,
    object_size: u64,
    /// Objects the region holds: `SLAB_SIZE / object_size`, or 1.
    objects: u32,
    /// Index of the region's first word in `SnmallocLite::live`.
    first_word: u32,
    class: Option<usize>,
}

/// The slab allocator. See the module docs.
#[derive(Debug)]
pub struct SnmallocLite {
    layout: HeapLayout,
    root: Capability,
    bump: u64,
    /// Free objects per size class (out-of-band free lists).
    free_lists: Vec<Vec<u64>>,
    /// Every region carved so far, in carving order.
    regions: Vec<Region>,
    /// Page number -> index into `regions`, for every page of every region.
    region_of: PageMap<u32>,
    /// One bit per object of every region, set while it is allocated.
    live: Vec<u64>,
    /// Recycled large chunks: length -> bases (best fit needs the range).
    large_free: BTreeMap<u64, Vec<u64>>,
    allocated_bytes: u64,
    /// Whether reused memory is zeroed on allocation (deferred zeroing,
    /// paper §2.2.2: poisoning/zeroing happens at reuse, not at free).
    zero_on_reuse: bool,
}

impl SnmallocLite {
    /// Creates an allocator over the malloc region of `layout`.
    #[must_use]
    pub fn new(layout: HeapLayout) -> Self {
        let root = Capability::new_root(layout.base, layout.malloc_len, Perms::rw());
        SnmallocLite {
            layout,
            root,
            bump: layout.base,
            free_lists: vec![Vec::new(); NUM_SIZE_CLASSES],
            regions: Vec::new(),
            region_of: PageMap::default(),
            live: Vec::new(),
            large_free: BTreeMap::new(),
            allocated_bytes: 0,
            zero_on_reuse: true,
        }
    }

    /// Disables zero-on-reuse (for cost-model ablations).
    pub fn set_zero_on_reuse(&mut self, value: bool) {
        self.zero_on_reuse = value;
    }

    /// Bytes currently allocated to the application (live objects).
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Arena bytes consumed from the bump pointer so far.
    #[must_use]
    pub fn arena_used(&self) -> u64 {
        self.bump - self.layout.base
    }

    /// Allocates `size` bytes, returning a bounded capability.
    pub fn alloc(&mut self, machine: &mut Machine, core: CoreId, size: u64) -> Result<Allocation, AllocError> {
        let mut cycles = 60; // fast-path bookkeeping
        let (base, grant) = if let Some(c) = size_class_for(size) {
            let base = match self.free_lists[c.index].pop() {
                Some(b) => b,
                None => {
                    cycles += 400; // slab carve slow path
                    self.carve_slab(machine, c.index, c.size)?;
                    self.free_lists[c.index].pop().expect("fresh slab must yield objects")
                }
            };
            (base, c.size)
        } else {
            let len = chunk_len(size).ok_or(AllocError::OutOfMemory)?;
            // Best-fit reuse: the smallest recycled chunk that fits with at
            // most 2x waste (chunk lengths are quantized by `chunk_len` to
            // keep the bucket count small).
            let reuse = self
                .large_free
                .range(len..=len.saturating_mul(2))
                .find(|(_, v)| !v.is_empty())
                .map(|(&l, _)| l);
            match reuse {
                Some(l) => {
                    let b = self.large_free.get_mut(&l).and_then(Vec::pop).expect("bucket nonempty");
                    (b, l)
                }
                None => {
                    cycles += 800;
                    let align = compress::representable_alignment(len).max(PAGE_SIZE);
                    (self.carve(machine, len, align, len, None)?, len)
                }
            }
        };
        let (_, word, bit) = self.object_at(base).expect("allocator hands out object bases");
        self.live[word] |= bit;
        self.allocated_bytes += grant;
        // Deferred zeroing happens at reuse time (and on first touch).
        if self.zero_on_reuse {
            let w = self.root.set_addr(base);
            cycles += machine.write_data(core, &w, grant).expect("arena must be mapped");
        }
        let cap = self
            .root
            .set_bounds(base, size.max(1).min(grant))
            .expect("class storage must be representable");
        Ok(Allocation { cap, cycles })
    }

    /// Frees the allocation `cap` points at, returning its underlying
    /// region so the caller can quarantine (or immediately recycle) it.
    ///
    /// The allocator demonstrates its progenitor claim by owning a
    /// superset capability for the whole heap (paper §2.2); here that
    /// reduces to checking the base is a live allocation of ours and the
    /// bounds fit within it (a forged or widened capability is rejected
    /// even if its base matches).
    pub fn free_lookup(&mut self, cap: Capability) -> Result<FreedRegion, AllocError> {
        if !cap.is_tagged() {
            return Err(AllocError::BadFree);
        }
        let base = cap.base();
        let (r, word, bit) = self.object_at(base).ok_or(AllocError::BadFree)?;
        if self.live[word] & bit == 0 || cap.len() > r.object_size {
            return Err(AllocError::BadFree);
        }
        let freed = FreedRegion { base, len: r.object_size, class: r.class };
        self.live[word] &= !bit;
        self.allocated_bytes -= freed.len;
        Ok(freed)
    }

    /// The region of the object whose base is `addr`, if `addr` is one
    /// (live or not), with the word of `live` and the bit in it that hold
    /// the object's live bit.
    #[inline]
    fn object_at(&self, addr: u64) -> Option<(&Region, usize, u64)> {
        let r = &self.regions[*self.region_of.get(addr / PAGE_SIZE)? as usize];
        let offset = addr - r.base;
        let i = offset / r.object_size;
        if !offset.is_multiple_of(r.object_size) || i >= u64::from(r.objects) {
            return None;
        }
        Some((r, r.first_word as usize + (i / 64) as usize, 1 << (i % 64)))
    }

    /// Returns a region (from quarantine release, or directly for a
    /// non-quarantining baseline) to the free lists.
    pub fn recycle(&mut self, region: FreedRegion) {
        match region.class {
            Some(c) => self.free_lists[c].push(region.base),
            None => self.large_free.entry(region.len).or_default().push(region.base),
        }
    }

    fn carve_slab(&mut self, machine: &mut Machine, class: usize, object_size: u64) -> Result<(), AllocError> {
        let base = self.carve(machine, SLAB_SIZE, 1, object_size, Some(class))?;
        // Push in reverse so allocation proceeds address-ascending.
        for i in (0..SLAB_SIZE / object_size).rev() {
            self.free_lists[class].push(base + i * object_size);
        }
        Ok(())
    }

    /// Takes `len` bytes at `align` from the bump pointer, maps them, and
    /// records them as a region of `object_size` objects, every page of it
    /// indexed. Returns the region's base.
    fn carve(
        &mut self,
        machine: &mut Machine,
        len: u64,
        align: u64,
        object_size: u64,
        class: Option<usize>,
    ) -> Result<u64, AllocError> {
        let base = self.bump.div_ceil(align) * align;
        let end = base.checked_add(len).ok_or(AllocError::OutOfMemory)?;
        if end > self.layout.base + self.layout.malloc_len {
            return Err(AllocError::OutOfMemory);
        }
        self.bump = end;
        machine.map_range(base, len, MapFlags::user_rw()).expect("arena mapping");
        // Page-aligned regions own whole pages, so one page names one region.
        debug_assert!(base.is_multiple_of(PAGE_SIZE) && len.is_multiple_of(PAGE_SIZE), "{base:#x}+{len:#x}");
        let index = u32::try_from(self.regions.len()).expect("region count fits u32");
        for page in base / PAGE_SIZE..end / PAGE_SIZE {
            self.region_of.insert(page, index);
        }
        let objects = u32::try_from(len / object_size).expect("object count fits u32");
        let first_word = u32::try_from(self.live.len()).expect("live words fit u32");
        self.live.resize(self.live.len() + objects.div_ceil(64) as usize, 0);
        self.regions.push(Region { base, object_size, objects, first_word, class });
        Ok(base)
    }
}

/// Rounds a large request to whole pages, quantized to 16 KiB buckets
/// (limiting the number of distinct free-chunk sizes), and to CHERI
/// representability; `None` when the rounding overflows the address space.
fn chunk_len(size: u64) -> Option<u64> {
    let quantum = (16 * 1024).max(PAGE_SIZE);
    let quantized = size.checked_next_multiple_of(quantum)?;
    Some(compress::representable_length(quantized)).filter(|&len| len >= quantized)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, SnmallocLite) {
        let layout = HeapLayout::new(0x4000_0000, 16 << 20);
        (Machine::new(1), SnmallocLite::new(layout))
    }

    #[test]
    fn a_size_whose_rounding_overflows_is_out_of_memory() {
        let (mut m, mut a) = setup();
        for size in [u64::MAX, u64::MAX - (16 << 10) + 1, u64::MAX - (1 << 40)] {
            assert_eq!(a.alloc(&mut m, 0, size).unwrap_err(), AllocError::OutOfMemory, "{size:#x}");
        }
        assert_eq!(a.alloc(&mut m, 0, 100).unwrap().cap.len(), 100);
    }

    #[test]
    fn alloc_returns_bounded_tagged_caps() {
        let (mut m, mut a) = setup();
        let p = a.alloc(&mut m, 0, 100).unwrap().cap;
        assert!(p.is_tagged());
        assert_eq!(p.len(), 100);
        assert_eq!(p.addr(), p.base());
        assert!(p.check_access(Perms::LOAD | Perms::STORE, 100).is_ok());
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let (mut m, mut a) = setup();
        let mut caps = Vec::new();
        for size in [1u64, 16, 100, 128, 4000, 20000, 100000] {
            caps.push(a.alloc(&mut m, 0, size).unwrap().cap);
        }
        for (i, x) in caps.iter().enumerate() {
            for y in &caps[i + 1..] {
                assert!(
                    x.top() <= y.base() || y.top() <= x.base(),
                    "{x} overlaps {y}"
                );
            }
        }
    }

    #[test]
    fn free_then_recycle_reuses_storage() {
        let (mut m, mut a) = setup();
        let p = a.alloc(&mut m, 0, 64).unwrap().cap;
        let region = a.free_lookup(p).unwrap();
        assert_eq!(region.base, p.base());
        a.recycle(region);
        let q = a.alloc(&mut m, 0, 64).unwrap().cap;
        assert_eq!(q.base(), p.base(), "LIFO reuse of the recycled object");
    }

    #[test]
    fn double_free_is_rejected() {
        let (mut m, mut a) = setup();
        let p = a.alloc(&mut m, 0, 64).unwrap().cap;
        a.free_lookup(p).unwrap();
        assert_eq!(a.free_lookup(p), Err(AllocError::BadFree));
    }

    #[test]
    fn foreign_and_untagged_frees_are_rejected() {
        let (mut m, mut a) = setup();
        let p = a.alloc(&mut m, 0, 64).unwrap().cap;
        assert_eq!(a.free_lookup(p.with_tag_cleared()), Err(AllocError::BadFree));
        let stray = Capability::new_root(0x4000_0000 + 8, 8, Perms::rw());
        assert_eq!(a.free_lookup(stray), Err(AllocError::BadFree));
    }

    #[test]
    fn a_widened_capability_frees_neither_a_small_object_nor_a_large_chunk() {
        let (mut m, mut a) = setup();
        for size in [64, 100_000] {
            let p = a.alloc(&mut m, 0, size).unwrap().cap;
            let wide = Capability::new_root(p.base(), 8 << 20, Perms::rw());
            assert_eq!(a.free_lookup(wide), Err(AllocError::BadFree), "{size}");
            assert_eq!(a.free_lookup(p).unwrap().base, p.base(), "{size}");
        }
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn large_allocations_round_to_pages() {
        let (mut m, mut a) = setup();
        let p = a.alloc(&mut m, 0, 100_000).unwrap().cap;
        let region = a.free_lookup(p).unwrap();
        assert!(region.class.is_none());
        assert_eq!(region.len % PAGE_SIZE, 0);
        assert!(region.len >= 100_000);
    }

    #[test]
    fn allocated_bytes_tracks_live_set() {
        let (mut m, mut a) = setup();
        assert_eq!(a.allocated_bytes(), 0);
        let p = a.alloc(&mut m, 0, 64).unwrap().cap;
        let q = a.alloc(&mut m, 0, 20000).unwrap().cap;
        assert!(a.allocated_bytes() >= 64 + 20000);
        a.free_lookup(p).unwrap();
        a.free_lookup(q).unwrap();
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn arena_exhaustion_reports_oom() {
        let layout = HeapLayout::new(0x4000_0000, 1 << 20); // 1 MiB arena
        let mut m = Machine::new(1);
        let mut a = SnmallocLite::new(layout);
        let mut n = 0;
        loop {
            match a.alloc(&mut m, 0, 16 * 1024) {
                Ok(_) => n += 1,
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(n < 1000);
        }
        assert!(n > 10);
    }

    #[test]
    fn allocation_zeroes_reused_memory() {
        let (mut m, mut a) = setup();
        let p = a.alloc(&mut m, 0, 64).unwrap().cap;
        // Scribble a capability into it.
        m.store_cap(0, &p, p).unwrap();
        assert!(m.mem().phys().tag(p.base()));
        let r = a.free_lookup(p).unwrap();
        a.recycle(r);
        let q = a.alloc(&mut m, 0, 64).unwrap().cap;
        assert_eq!(q.base(), p.base());
        // Reuse zeroing killed the stale tag inside the object.
        assert!(!m.mem().phys().tag(q.base()));
    }
}
