//! Sparse, demand-zero tagged physical memory.
//!
//! Host performance: a page costs the host what it holds. Frames live in
//! a dense slab (`Vec<Frame>`) behind a page-number → slot [`PageMap`],
//! and each of a frame's two planes — capability shadow and colours — is
//! allocated on first need: a page that is only ever touched owns no box
//! at all. A released frame parks on a free list and is reset (not
//! reallocated) on reuse; a dropped memory leaves its shadows, as they
//! are, to the process's next memories. None of this is visible to the
//! simulation: counters, tags and loaded capabilities are bit-identical
//! to a naive map of granules. Two invariants keep it so:
//!
//! * a shadow entry is read only under its `tags` or `written` bit, so a
//!   recycled shadow needs no zeroing;
//! * an untagged granule loads as a null capability whose address is its
//!   shadow entry's (its residue), or zero where `written` is clear.

use cheri_cap::{Capability, CAP_SIZE};
use crate::pagemap::PageMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Page size in bytes (Morello and CheriBSD use 4 KiB base pages).
pub const PAGE_SIZE: u64 = 4096;

/// Tagged 16-byte granules per page.
pub const GRANULES_PER_PAGE: usize = (PAGE_SIZE / CAP_SIZE) as usize;

const TAG_WORDS: usize = GRANULES_PER_PAGE / 64;

/// One frame's capability plane: the last capability stored to each granule.
type Shadow = Box<[Capability]>;

/// Most shadows kept for the process's next memories (2¹³ × 8 KiB = 64 MiB).
const SHADOW_POOL_MAX: usize = 1 << 13;

/// Shadows of dropped memories, handed on unzeroed (the taker's `written`
/// mask starts clear). Keeping them stops the host allocator from
/// returning a short cell's heap to the OS and faulting it back in for
/// the next cell. One pool for the process, not one per thread: a matrix
/// run's workers die with the run, and N of them must not each park the
/// bound.
static SHADOW_POOL: Mutex<Vec<Shadow>> = Mutex::new(Vec::new());

fn shadow_pool() -> MutexGuard<'static, Vec<Shadow>> {
    // A push or a pop leaves the list valid at every step, so the lock of
    // a thread that panicked (a poisoned cell's) guards nothing broken.
    SHADOW_POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn take_shadow() -> Shadow {
    let pooled = shadow_pool().pop();
    pooled.unwrap_or_else(|| vec![Capability::null(); GRANULES_PER_PAGE].into_boxed_slice())
}

/// Moves `shadows` into `pool` until it holds [`SHADOW_POOL_MAX`]; the
/// rest stay with their owner.
fn park_shadows(pool: &mut Vec<Shadow>, shadows: impl Iterator<Item = Shadow>) {
    let room = SHADOW_POOL_MAX.saturating_sub(pool.len());
    pool.extend(shadows.take(room));
}

/// The set bits of a page-wide mask, ascending.
#[derive(Debug)]
struct SetBits {
    words: [u64; TAG_WORDS],
    /// Word whose remaining set bits are in `bits`.
    cur: usize,
    bits: u64,
    next_word: usize,
}

impl SetBits {
    fn new(words: [u64; TAG_WORDS]) -> SetBits {
        SetBits { words, cur: 0, bits: 0, next_word: 0 }
    }
}

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            if self.next_word >= TAG_WORDS {
                return None;
            }
            self.cur = self.next_word;
            self.bits = self.words[self.next_word];
            self.next_word += 1;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.cur * 64 + b)
    }
}

#[inline]
fn bit(words: &[u64; TAG_WORDS], granule: usize) -> bool {
    words[granule / 64] >> (granule % 64) & 1 == 1
}

/// One physical page frame: a 256-bit tag vector, a 256-bit written
/// vector and, each allocated on first need, the shadow of the
/// capabilities stored to it and its granules' colours.
///
/// The simulator holds full (decompressed) capabilities out-of-band rather
/// than implementing a bit-exact 128-bit codec. No simulated access moves
/// bytes: a frame holds what capability stores put there, and a data
/// write only clears tags. An untagged granule still shows the address of
/// the last capability stored to it (programs do inspect pointer values).
#[derive(Debug, Default)]
struct Frame {
    /// One bit per granule; bit set ⇒ the granule holds a valid capability.
    tags: [u64; TAG_WORDS],
    /// One bit per granule; bit set ⇒ `caps[g]` was stored in this frame's
    /// lifetime. A superset of `tags`.
    written: [u64; TAG_WORDS],
    /// The last capability stored to each granule, tagged or not. Entries
    /// whose `written` bit is clear are whatever the box last held.
    caps: Option<Shadow>,
    /// Per-granule memory colors (paper §7.3), allocated on first recolor.
    colors: Option<Box<[u8]>>,
}

impl Frame {
    /// Returns the frame to its demand-zero state. The shadow stays (slab
    /// slots are recycled across release/materialize): with `written`
    /// clear, nothing reads it.
    fn reset(&mut self) {
        self.tags = [0; TAG_WORDS];
        self.written = [0; TAG_WORDS];
        self.colors = None;
    }

    fn tag(&self, granule: usize) -> bool {
        bit(&self.tags, granule)
    }

    /// Clears the tags of granules `g0..=g1` with word-masked stores.
    fn clear_tag_span(&mut self, g0: usize, g1: usize) {
        let (w0, w1) = (g0 / 64, g1 / 64);
        for w in w0..=w1 {
            let lo = if w == w0 { g0 % 64 } else { 0 };
            let hi = if w == w1 { g1 % 64 } else { 63 };
            let mask = if hi - lo == 63 { !0u64 } else { ((1u64 << (hi - lo + 1)) - 1) << lo };
            self.tags[w] &= !mask;
        }
    }

    /// Records `cap` as the content of `granule`.
    fn store(&mut self, granule: usize, cap: Capability) {
        self.caps.get_or_insert_with(take_shadow)[granule] = cap;
        let (w, b) = (granule / 64, granule % 64);
        self.written[w] |= 1 << b;
        self.tags[w] = self.tags[w] & !(1 << b) | u64::from(cap.is_tagged()) << b;
    }

    /// The address last stored to `granule`, or zero if none was: what a
    /// data load of a pointer sees.
    fn residue(&self, granule: usize) -> u64 {
        match &self.caps {
            Some(caps) if bit(&self.written, granule) => caps[granule].addr(),
            _ => 0,
        }
    }

    /// The capability in `granule`, or its untagged residue.
    fn load(&self, granule: usize) -> Capability {
        if self.tag(granule) {
            self.caps.as_ref().expect("tagged granule must have shadow storage")[granule]
        } else {
            Capability::null().set_addr(self.residue(granule))
        }
    }

    fn color(&self, granule: usize) -> u8 {
        self.colors.as_ref().map_or(0, |c| c[granule])
    }

    fn any_tag(&self) -> bool {
        self.tags.iter().any(|&w| w != 0)
    }
}

/// Sparse physical memory with per-granule capability tags.
///
/// Frames materialize (zero-filled) on first touch and are accounted toward
/// the resident-set size, which the evaluation's Figure 3 reports. The
/// peak-residency watermark is maintained only when a frame is actually
/// inserted — never on plain accesses.
#[derive(Debug, Default)]
pub struct PhysMem {
    /// Dense frame storage; slots are stable for the life of the memory.
    slab: Vec<Frame>,
    /// Page number → slab slot for materialized pages.
    index: PageMap<u32>,
    /// Slots whose pages were released, available for reuse.
    free_slots: Vec<u32>,
    peak_resident: u64,
}

impl Drop for PhysMem {
    fn drop(&mut self) {
        park_shadows(&mut shadow_pool(), self.slab.iter_mut().filter_map(|frame| frame.caps.take()));
    }
}

impl PhysMem {
    /// Creates an empty memory; every granule loads as null until stored to.
    #[must_use]
    pub fn new() -> Self {
        PhysMem::default()
    }

    #[inline]
    fn frame(&self, addr: u64) -> Option<&Frame> {
        self.index.get(addr / PAGE_SIZE).map(|&s| &self.slab[s as usize])
    }

    #[inline]
    fn frame_mut_existing(&mut self, addr: u64) -> Option<&mut Frame> {
        self.index.get(addr / PAGE_SIZE).map(|&s| &mut self.slab[s as usize])
    }

    /// Locates (materializing on demand) the frame backing `addr`. The
    /// residency watermark moves only on the insertion path.
    fn frame_mut(&mut self, addr: u64) -> &mut Frame {
        let fno = addr / PAGE_SIZE;
        if let Some(&s) = self.index.get(fno) {
            return &mut self.slab[s as usize];
        }
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slab[s as usize].reset();
                s
            }
            None => {
                assert!(self.slab.len() < u32::MAX as usize, "slab full");
                self.slab.push(Frame::default());
                (self.slab.len() - 1) as u32
            }
        };
        self.index.insert(fno, slot);
        self.peak_resident = self.peak_resident.max(self.resident_bytes());
        &mut self.slab[slot as usize]
    }

    /// Materializes (demand-zeroes) the frame backing `addr`, as a store
    /// through the MMU would. Counts toward residency.
    pub fn materialize_page(&mut self, addr: u64) {
        let _ = self.frame_mut(addr);
    }

    /// Loads the capability at 16-byte-aligned `addr`. If the granule's tag
    /// is clear, the result is a null capability whose address is the last
    /// one stored there, or zero (what a data load of a pointer would see).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 16-byte aligned (the ISA requires natural
    /// alignment for capability accesses).
    #[must_use]
    #[inline]
    pub fn load_cap(&self, addr: u64) -> Capability {
        self.load_granule(addr).2
    }

    /// [`PhysMem::tag`], [`PhysMem::granule_color`] and
    /// [`PhysMem::load_cap`] of one granule in one walk to its frame: what
    /// a checked capability load needs. The tag comes from the frame's
    /// mask, so the load barrier's branch does not wait for the shadow
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 16-byte aligned.
    #[must_use]
    #[inline]
    pub fn load_granule(&self, addr: u64) -> (bool, u8, Capability) {
        assert_eq!(addr % CAP_SIZE, 0, "capability load must be 16-byte aligned");
        let g = (addr % PAGE_SIZE / CAP_SIZE) as usize;
        self.frame(addr).map_or((false, 0, Capability::null()), |f| (f.tag(g), f.color(g), f.load(g)))
    }

    /// Stores `cap` at 16-byte-aligned `addr`. The granule's tag follows the
    /// capability's tag; its cursor address stays the granule's residue
    /// until the next store (see [`PhysMem::load_cap`]).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 16-byte aligned.
    #[inline]
    pub fn store_cap(&mut self, addr: u64, cap: Capability) {
        assert_eq!(addr % CAP_SIZE, 0, "capability store must be 16-byte aligned");
        self.frame_mut(addr).store((addr % PAGE_SIZE / CAP_SIZE) as usize, cap);
    }

    /// The tag of the granule containing `addr`.
    #[must_use]
    #[inline]
    pub fn tag(&self, addr: u64) -> bool {
        self.frame(addr).is_some_and(|f| f.tag((addr % PAGE_SIZE / CAP_SIZE) as usize))
    }

    /// Clears the tag of the granule containing `addr` (revocation's
    /// in-place invalidation).
    #[inline]
    pub fn clear_tag(&mut self, addr: u64) {
        if let Some(f) = self.frame_mut_existing(addr) {
            let g = (addr % PAGE_SIZE / CAP_SIZE) as usize;
            f.tags[g / 64] &= !(1 << (g % 64));
        }
    }

    /// Clears the tag of every granule overlapping `[addr, addr+len)` with
    /// word-masked stores — the bulk form of [`PhysMem::clear_tag`] that
    /// data writes use. Unmaterialized pages are skipped (their tags are
    /// already clear). A no-op when `len == 0`.
    pub fn clear_tag_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = addr.saturating_add(len);
        let mut a = addr;
        while a < end {
            let page = a / PAGE_SIZE * PAGE_SIZE;
            let chunk_end = end.min(page + PAGE_SIZE);
            if let Some(f) = self.frame_mut_existing(a) {
                let g0 = ((a - page) / CAP_SIZE) as usize;
                let g1 = ((chunk_end - 1 - page) / CAP_SIZE) as usize;
                f.clear_tag_span(g0, g1);
            }
            a = chunk_end;
        }
    }

    /// Whether the page containing `addr` holds any tagged granule.
    #[must_use]
    #[inline]
    pub fn page_has_tags(&self, addr: u64) -> bool {
        self.frame(addr).is_some_and(Frame::any_tag)
    }

    /// Iterates the tagged capabilities on the page at `page_addr`, as
    /// `(granule_addr, capability)` pairs in ascending granule order. This
    /// is the revoker's page-visit primitive; it performs no allocation.
    ///
    /// `page_addr` must be page-aligned — callers name the page they mean,
    /// rather than having an off-by-page bug silently rounded away.
    pub fn tagged_caps_in_page(&self, page_addr: u64) -> TaggedCapsInPage<'_> {
        debug_assert_eq!(
            page_addr % PAGE_SIZE,
            0,
            "tagged_caps_in_page requires a page-aligned address"
        );
        let (tags, caps) = match self.frame(page_addr).and_then(|f| f.caps.as_ref().map(|c| (f.tags, c))) {
            Some((tags, caps)) => (tags, &caps[..]),
            None => ([0; TAG_WORDS], &[][..]),
        };
        TaggedCapsInPage { base: page_addr, caps, tagged: SetBits::new(tags) }
    }

    /// Releases the frame backing `page_addr` (munmap / page reclaim). The
    /// page's contents and tags are discarded; subsequent loads see null.
    pub fn release_page(&mut self, page_addr: u64) {
        if let Some(slot) = self.index.remove(page_addr / PAGE_SIZE) {
            self.free_slots.push(slot);
        }
    }

    /// The memory color of the granule containing `addr` (0 if never
    /// recolored; paper §7.3).
    #[must_use]
    #[inline]
    pub fn granule_color(&self, addr: u64) -> u8 {
        self.frame(addr).map_or(0, |f| f.color((addr % PAGE_SIZE / CAP_SIZE) as usize))
    }

    /// Recolors every granule overlapping `[base, base+len)` (the
    /// allocator's free-time recoloring; paper §7.3). `base` is
    /// granule-aligned; a `len` that is not recolors the granule its tail
    /// falls in, as [`PhysMem::clear_tag_range`] clears that granule's tag.
    pub fn set_color_range(&mut self, base: u64, len: u64, color: u8) {
        assert_eq!(base % CAP_SIZE, 0, "recolor must be granule-aligned");
        let end = base.saturating_add(len);
        let mut addr = base;
        while addr < end {
            let page = addr / PAGE_SIZE * PAGE_SIZE;
            let chunk_end = end.min(page + PAGE_SIZE);
            let colors = self
                .frame_mut(addr)
                .colors
                .get_or_insert_with(|| vec![0u8; GRANULES_PER_PAGE].into_boxed_slice());
            let g0 = ((addr - page) / CAP_SIZE) as usize;
            let g1 = ((chunk_end - 1 - page) / CAP_SIZE) as usize;
            colors[g0..=g1].fill(color);
            addr = chunk_end;
        }
    }

    /// Currently resident bytes (materialized frames only).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.index.len() as u64 * PAGE_SIZE
    }

    /// High-water mark of [`PhysMem::resident_bytes`]; the evaluation's
    /// peak-RSS metric (Figure 3).
    #[must_use]
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident
    }
}

/// Zero-allocation iterator over a page's tagged capabilities, from
/// [`PhysMem::tagged_caps_in_page`]. Snapshots the page's tag words at
/// creation; capability payloads are read from the frame's shadow storage.
#[derive(Debug)]
pub struct TaggedCapsInPage<'a> {
    base: u64,
    caps: &'a [Capability],
    tagged: SetBits,
}

impl Iterator for TaggedCapsInPage<'_> {
    type Item = (u64, Capability);

    #[inline]
    fn next(&mut self) -> Option<(u64, Capability)> {
        let g = self.tagged.next()?;
        Some((self.base + g as u64 * CAP_SIZE, self.caps[g]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::Perms;

    fn cap(base: u64) -> Capability {
        Capability::new_root(base, 64, Perms::rw())
    }

    #[test]
    fn unmapped_memory_reads_zero() {
        let mem = PhysMem::new();
        assert!(!mem.tag(0xdead_0000));
        assert_eq!(mem.load_cap(0xdead_0000), Capability::null());
    }

    #[test]
    fn pages_of_a_dropped_memory_come_back_zeroed() {
        // Sibling tests draw on the same pool and can take the shadow this
        // one parked: every round checks what a memory may see, and one
        // undisturbed round shows the shadow did travel.
        let recycled = (0..64).any(|_| {
            let mut mem = PhysMem::new();
            mem.store_cap(0x4000, cap(0xabab_0000).with_tag_cleared());
            mem.store_cap(0x4040, cap(0x1234_0000));
            drop(mem);
            // The next memory takes the shadow and sees none of it.
            let mut mem = PhysMem::new();
            mem.materialize_page(0x4000);
            assert!(!mem.page_has_tags(0x4000));
            // A recycled shadow shows no capability and no residue.
            mem.store_cap(0x4080, Capability::null());
            for a in (0x4000..0x4080).step_by(CAP_SIZE as usize) {
                assert_eq!(mem.load_cap(a), Capability::null(), "granule {a:#x}");
            }
            assert_eq!(mem.tagged_caps_in_page(0x4000).count(), 0);
            let shadow = mem.slab[0].caps.as_ref().expect("a capability store makes the shadow");
            shadow[4] == cap(0x1234_0000)
        });
        assert!(recycled, "the dropped memory's shadow was not kept, or not handed on as it was");
        assert!(shadow_pool().len() <= SHADOW_POOL_MAX);
    }

    #[test]
    fn the_pool_is_bounded_once() {
        // `park_shadows` never looks inside a shadow: empty ones do.
        let mut pool = Vec::new();
        for _ in 0..3 {
            park_shadows(&mut pool, (0..SHADOW_POOL_MAX).map(|_| Shadow::default()));
            assert_eq!(pool.len(), SHADOW_POOL_MAX);
        }
        let mut last = vec![Shadow::default()].into_iter();
        park_shadows(&mut pool, &mut last);
        assert_eq!(last.len(), 1, "a full pool leaves a shadow with its owner");
    }

    #[test]
    fn touched_pages_own_no_box() {
        let mut mem = PhysMem::new();
        for page in 0..1000 {
            mem.materialize_page(page * PAGE_SIZE);
            mem.clear_tag_range(page * PAGE_SIZE + 8, 100);
            assert_eq!(mem.load_cap(page * PAGE_SIZE), Capability::null());
        }
        assert_eq!(mem.resident_bytes(), 1000 * PAGE_SIZE);
        // No shadow to park, no plane to free: the frame is all a page costs.
        assert!(mem.slab.iter().all(|f| f.caps.is_none() && f.colors.is_none()));
    }

    #[test]
    fn recolor_of_a_ragged_length_covers_every_overlapped_granule() {
        for len in [1, 8, 24, PAGE_SIZE + 8] {
            let mem = simtest::within_3s(move || {
                let mut mem = PhysMem::new();
                mem.set_color_range(0x8000, len, 3);
                mem
            });
            let recolored = len.div_ceil(CAP_SIZE);
            for g in 0..recolored + 2 {
                let want = if g < recolored { 3 } else { 0 };
                assert_eq!(mem.granule_color(0x8000 + g * CAP_SIZE), want, "len {len}, granule {g}");
            }
            assert_eq!(mem.resident_bytes(), (0x8000 + len).div_ceil(PAGE_SIZE) * PAGE_SIZE - 0x8000);
        }
    }

    #[test]
    fn cap_store_sets_tag_and_roundtrips() {
        let mut mem = PhysMem::new();
        let c = cap(0x1234_0000);
        mem.store_cap(0x8000, c);
        assert!(mem.tag(0x8000));
        assert_eq!(mem.load_cap(0x8000), c);
        // An untagged store leaves only the address.
        mem.store_cap(0x8000, c.with_tag_cleared());
        assert_eq!(mem.load_cap(0x8000), Capability::null().set_addr(0x1234_0000));
    }

    #[test]
    fn data_write_clears_overlapping_tags() {
        let mut mem = PhysMem::new();
        mem.store_cap(0x8000, cap(0x1000));
        mem.store_cap(0x8010, cap(0x2000));
        // A single byte write into the second granule clears only its tag.
        mem.clear_tag_range(0x8017, 1);
        assert!(mem.tag(0x8000));
        assert!(!mem.tag(0x8010));
        // A spanning write clears both.
        mem.clear_tag_range(0x8008, 16);
        assert!(!mem.tag(0x8000));
    }

    #[test]
    fn untagged_store_clears_tag() {
        let mut mem = PhysMem::new();
        mem.store_cap(0x8000, cap(0x1000));
        mem.store_cap(0x8000, cap(0x1000).with_tag_cleared());
        assert!(!mem.tag(0x8000));
    }

    #[test]
    fn tagged_caps_in_page_enumerates_exactly_tags() {
        let mut mem = PhysMem::new();
        let addrs = [0x8000u64, 0x8040, 0x8ff0];
        for (i, &a) in addrs.iter().enumerate() {
            mem.store_cap(a, cap(0x1000 * (i as u64 + 1)));
        }
        mem.clear_tag_range(0x8040, 1); // kill the middle one
        let got_addrs: Vec<u64> = mem.tagged_caps_in_page(0x8000).map(|(a, _)| a).collect();
        assert_eq!(got_addrs, vec![0x8000, 0x8ff0]);
    }

    #[test]
    fn tagged_caps_iteration_is_zero_alloc_for_empty_pages() {
        let mem = PhysMem::new();
        assert_eq!(mem.tagged_caps_in_page(0x8000).count(), 0);
    }

    #[test]
    fn clear_tag_range_masks_whole_words() {
        let mut mem = PhysMem::new();
        for g in 0..GRANULES_PER_PAGE as u64 {
            mem.store_cap(0x8000 + g * CAP_SIZE, cap(0x1000));
        }
        // Clear an interior span and verify exact boundaries.
        mem.clear_tag_range(0x8000 + 3 * CAP_SIZE, 130 * CAP_SIZE);
        for g in 0..GRANULES_PER_PAGE as u64 {
            let a = 0x8000 + g * CAP_SIZE;
            assert_eq!(mem.tag(a), !(3..133).contains(&g), "granule {g}");
        }
        // A partial-granule overlap still clears the granule it touches.
        mem.clear_tag_range(0x8000 + 7, 1);
        assert!(!mem.tag(0x8000));
        mem.clear_tag_range(0x9000, 0); // len 0: no-op, no panic
    }

    #[test]
    fn clear_tag_revokes_in_place() {
        let mut mem = PhysMem::new();
        mem.store_cap(0x8000, cap(0x1000));
        mem.clear_tag(0x8000);
        assert!(!mem.load_cap(0x8000).is_tagged());
        // The address residue is still readable as data (paper §2.2.2: we
        // tolerate address extraction, not dereference).
        assert_eq!(mem.load_cap(0x8000).addr(), 0x1000);
    }

    #[test]
    fn release_page_drops_residency_and_contents() {
        let mut mem = PhysMem::new();
        mem.store_cap(0x8000, Capability::null().set_addr(7));
        let peak = mem.peak_resident_bytes();
        mem.release_page(0x8000);
        assert_eq!(mem.resident_bytes(), 0);
        assert_eq!(mem.peak_resident_bytes(), peak);
        assert_eq!(mem.load_cap(0x8000), Capability::null());
    }

    #[test]
    fn released_slots_are_recycled_and_demand_zero() {
        let mut mem = PhysMem::new();
        mem.store_cap(0x8000, cap(0x1000));
        mem.set_color_range(0x8000, 64, 3);
        mem.release_page(0x8000);
        // A different page reuses the slot; nothing leaks through.
        mem.store_cap(0x2_0010, Capability::null().set_addr(9));
        assert_eq!(mem.load_cap(0x8000), Capability::null());
        assert_eq!(mem.load_cap(0x2_0000), Capability::null());
        assert_eq!(mem.load_cap(0x2_0010).addr(), 9);
        assert!(!mem.tag(0x2_0000));
        assert_eq!(mem.granule_color(0x2_0000), 0);
        assert_eq!(mem.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn peak_watermark_moves_only_on_materialization() {
        let mut mem = PhysMem::new();
        mem.materialize_page(0x8000);
        mem.materialize_page(0x9000);
        let peak = mem.peak_resident_bytes();
        assert_eq!(peak, 2 * PAGE_SIZE);
        mem.release_page(0x8000);
        // Accesses to the survivor never move the watermark.
        for _ in 0..100 {
            mem.store_cap(0x9000, cap(0x1000));
            mem.clear_tag_range(0x9000, 8);
        }
        assert_eq!(mem.peak_resident_bytes(), peak);
        // Rematerializing the released page only restores the old level.
        mem.store_cap(0x8000, cap(0x1000));
        assert_eq!(mem.peak_resident_bytes(), peak);
        mem.materialize_page(0xa000);
        assert_eq!(mem.peak_resident_bytes(), 3 * PAGE_SIZE);
    }

    #[test]
    fn page_has_tags_tracks_population() {
        let mut mem = PhysMem::new();
        assert!(!mem.page_has_tags(0x8000));
        mem.store_cap(0x8000, cap(0x1000));
        assert!(mem.page_has_tags(0x8abc));
        mem.clear_tag(0x8000);
        assert!(!mem.page_has_tags(0x8000));
    }
}
