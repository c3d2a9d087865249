//! Sparse, demand-zero tagged physical memory.
//!
//! Host performance: a page costs the host what it holds. Frames live in
//! a slab of fixed-size chunks behind a page-number → slot [`PageMap`];
//! a chunk is written whole when it is added, so the slab never holds
//! the untouched capacity a doubling `Vec<Frame>` leaves behind, whose
//! residency would turn on where the host allocator happened to put it.
//! A frame's capability shadow is packed: one entry per granule stored
//! in the frame's lifetime, in first-store order, found through a
//! per-granule byte index; its colours are allocated on first recolor.
//! A page that is only ever touched owns no allocation at all. A frame,
//! once materialized, is never released: nothing in the simulated process
//! unmaps memory, so there is no free list and residency only grows (its
//! peak is its current value). None of this is visible to the simulation:
//! counters, tags and loaded capabilities are bit-identical to a naive
//! map of granules. Two invariants keep it so:
//!
//! * a granule's index byte, and the shadow entry it names, are read only
//!   under the granule's `written` bit, so a new frame needs no zeroing
//!   beyond its masks;
//! * an untagged granule loads as a null capability whose address is its
//!   shadow entry's (its residue), or zero where `written` is clear.

use cheri_cap::{Capability, CAP_SIZE};
use crate::pagemap::PageMap;

/// Page size in bytes (Morello and CheriBSD use 4 KiB base pages).
pub const PAGE_SIZE: u64 = 4096;

/// Tagged 16-byte granules per page.
pub const GRANULES_PER_PAGE: usize = (PAGE_SIZE / CAP_SIZE) as usize;

const TAG_WORDS: usize = GRANULES_PER_PAGE / 64;

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
/// vector, the capabilities stored to it (packed, with a per-granule
/// index into them) and, allocated on first need, its granules' colours.
///
/// The simulator holds full (decompressed) capabilities out-of-band rather
/// than implementing a bit-exact 128-bit codec. No simulated access moves
/// bytes: a frame holds what capability stores put there, and a data
/// write only clears tags. An untagged granule still shows the address of
/// the last capability stored to it (programs do inspect pointer values).
#[derive(Debug)]
struct Frame {
    /// One bit per granule; bit set ⇒ the granule holds a valid capability.
    tags: [u64; TAG_WORDS],
    /// One bit per granule; bit set ⇒ the granule was stored in this
    /// frame's lifetime and `slot[g]` names its entry in `caps`. A
    /// superset of `tags`.
    written: [u64; TAG_WORDS],
    /// Per granule, the index of its entry in `caps`. Read only where the
    /// granule's `written` bit is set.
    slot: [u8; GRANULES_PER_PAGE],
    /// The last capability stored to each written granule, tagged or not,
    /// one entry per granule in the order of their first stores.
    caps: Vec<Capability>,
    /// Per-granule memory colors (paper §7.3), allocated on first recolor.
    colors: Option<Box<[u8]>>,
}

/// The frame of a page never materialized: no tags, nothing written.
static UNTOUCHED: Frame = Frame::new();

impl Frame {
    const fn new() -> Frame {
        Frame {
            tags: [0; TAG_WORDS],
            written: [0; TAG_WORDS],
            slot: [0; GRANULES_PER_PAGE],
            caps: Vec::new(),
            colors: None,
        }
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

    /// The shadow entry of a written `granule`.
    #[inline]
    fn entry(&self, granule: usize) -> Capability {
        self.caps[usize::from(self.slot[granule])]
    }

    /// Records `cap` as the content of `granule`: a granule's first store
    /// appends its entry, later ones overwrite it.
    fn store(&mut self, granule: usize, cap: Capability) {
        let (w, b) = (granule / 64, granule % 64);
        if bit(&self.written, granule) {
            self.caps[usize::from(self.slot[granule])] = cap;
        } else {
            // At most one entry per granule: the index fits a byte.
            self.slot[granule] = self.caps.len() as u8;
            self.caps.push(cap);
            self.written[w] |= 1 << b;
        }
        self.tags[w] = self.tags[w] & !(1 << b) | u64::from(cap.is_tagged()) << b;
    }

    /// The address last stored to `granule`, or zero if none was: what a
    /// data load of a pointer sees.
    fn residue(&self, granule: usize) -> u64 {
        if bit(&self.written, granule) {
            self.entry(granule).addr()
        } else {
            0
        }
    }

    /// The capability in `granule`, or its untagged residue.
    fn load(&self, granule: usize) -> Capability {
        if self.tag(granule) {
            self.entry(granule)
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

/// Frames per slab chunk (64 × 360 B ≈ 23 KiB).
const CHUNK_FRAMES: usize = 64;

/// Sparse physical memory with per-granule capability tags.
///
/// Frames materialize (zero-filled) on first touch and are accounted toward
/// the resident-set size, which the evaluation's Figure 3 reports. No
/// frame is ever released, so residency is monotone: its peak is its
/// current value.
#[derive(Debug, Default)]
pub struct PhysMem {
    /// Frame storage: slot `s` is frame `s % CHUNK_FRAMES` of chunk
    /// `s / CHUNK_FRAMES`. Slots are stable for the life of the memory.
    slab: Vec<Box<[Frame; CHUNK_FRAMES]>>,
    /// Slots handed out so far; the last chunk's frames past it are unused.
    slots: u32,
    /// Page number → slab slot for materialized pages.
    index: PageMap<u32>,
}

impl PhysMem {
    /// Creates an empty memory; every granule loads as null until stored to.
    #[must_use]
    pub fn new() -> Self {
        PhysMem::default()
    }

    #[inline]
    fn slot(&self, s: u32) -> &Frame {
        &self.slab[s as usize / CHUNK_FRAMES][s as usize % CHUNK_FRAMES]
    }

    #[inline]
    fn slot_mut(&mut self, s: u32) -> &mut Frame {
        &mut self.slab[s as usize / CHUNK_FRAMES][s as usize % CHUNK_FRAMES]
    }

    #[inline]
    fn frame(&self, addr: u64) -> Option<&Frame> {
        self.index.get(addr / PAGE_SIZE).map(|&s| self.slot(s))
    }

    #[inline]
    fn frame_mut_existing(&mut self, addr: u64) -> Option<&mut Frame> {
        let s = *self.index.get(addr / PAGE_SIZE)?;
        Some(self.slot_mut(s))
    }

    /// Locates (materializing on demand) the frame backing `addr`.
    fn frame_mut(&mut self, addr: u64) -> &mut Frame {
        let fno = addr / PAGE_SIZE;
        if let Some(&s) = self.index.get(fno) {
            return self.slot_mut(s);
        }
        assert!(self.slots < u32::MAX, "slab full");
        if (self.slots as usize).is_multiple_of(CHUNK_FRAMES) {
            self.slab.push(Box::new([const { Frame::new() }; CHUNK_FRAMES]));
        }
        let slot = self.slots;
        self.slots += 1;
        self.index.insert(fno, slot);
        self.slot_mut(slot)
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
        let frame = self.frame(page_addr).unwrap_or(&UNTOUCHED);
        TaggedCapsInPage { base: page_addr, frame, tagged: SetBits::new(frame.tags) }
    }

    /// The memory color of the granule containing `addr` (0 if never
    /// recolored; paper §7.3).
    #[must_use]
    #[inline]
    pub fn granule_color(&self, addr: u64) -> u8 {
        self.frame(addr).map_or(0, |f| f.color((addr % PAGE_SIZE / CAP_SIZE) as usize))
    }

    /// Recolors every granule overlapping `[base, base+len)` (the
    /// allocator's free-time recoloring; paper §7.3): a ragged head or
    /// tail recolors the granule it falls in, as
    /// [`PhysMem::clear_tag_range`] clears that granule's tag.
    pub fn set_color_range(&mut self, base: u64, len: u64, color: u8) {
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

    /// Resident bytes (materialized frames): never falls, so it is also
    /// the peak the evaluation reports (Figure 3).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.index.len() as u64 * PAGE_SIZE
    }
}

/// Zero-allocation iterator over a page's tagged capabilities, from
/// [`PhysMem::tagged_caps_in_page`]. Snapshots the page's tag words at
/// creation; capability payloads are read through the frame's shadow
/// index.
#[derive(Debug)]
pub struct TaggedCapsInPage<'a> {
    base: u64,
    frame: &'a Frame,
    tagged: SetBits,
}

impl Iterator for TaggedCapsInPage<'_> {
    type Item = (u64, Capability);

    #[inline]
    fn next(&mut self) -> Option<(u64, Capability)> {
        let g = self.tagged.next()?;
        Some((self.base + g as u64 * CAP_SIZE, self.frame.entry(g)))
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
        let mut mem = PhysMem::new();
        mem.store_cap(0x4000, cap(0xabab_0000).with_tag_cleared());
        mem.store_cap(0x4040, cap(0x1234_0000));
        mem.set_color_range(0x4000, 64, 5);
        drop(mem);
        // A new memory owns none of the old one's frames: the same page
        // materializes demand-zero, with no tag, residue or colour.
        let mut mem = PhysMem::new();
        mem.materialize_page(0x4000);
        assert!(!mem.page_has_tags(0x4000));
        assert_eq!(mem.tagged_caps_in_page(0x4000).count(), 0);
        for a in (0x4000..0x4080).step_by(CAP_SIZE as usize) {
            assert_eq!(mem.load_cap(a), Capability::null(), "granule {a:#x}");
            assert_eq!(mem.granule_color(a), 0, "granule {a:#x}");
        }
        assert!(mem.slot(0).caps.is_empty() && mem.slot(0).colors.is_none());
    }

    #[test]
    fn shadow_entries_grow_with_the_granules_stored_not_the_pages() {
        // One capability store on each of P pages: a whole-page shadow
        // would hold 256·P entries.
        const P: u64 = 1000;
        let mut mem = PhysMem::new();
        for page in 0..P {
            mem.store_cap(page * PAGE_SIZE + (page % 256) * CAP_SIZE, cap(0x1000 * page));
        }
        let entries: usize = mem.slab.iter().flat_map(|c| c.iter()).map(|f| f.caps.capacity()).sum();
        assert!(entries as u64 <= 4 * P, "{entries} shadow entries for {P} stored granules");
        // A full page holds one entry per granule, whatever the order of
        // its stores and however often each is re-stored.
        for round in 0..3 {
            for g in (0..GRANULES_PER_PAGE as u64).rev() {
                mem.store_cap(0x80_0000 + g * CAP_SIZE, cap(0x1000 * round));
            }
        }
        assert_eq!(mem.frame(0x80_0000).expect("stored").caps.len(), GRANULES_PER_PAGE);
    }

    #[test]
    fn the_slab_grows_one_chunk_at_a_time() {
        // A doubling `Vec<Frame>` would hold up to twice the frames in use;
        // the chunks hold at most one chunk's worth beyond them.
        let mut mem = PhysMem::new();
        for page in 0..1000 {
            mem.materialize_page(page * PAGE_SIZE);
            assert_eq!(mem.slab.len(), (page as usize + 1).div_ceil(CHUNK_FRAMES));
        }
        assert_eq!((mem.slots, mem.slab.len()), (1000, 16));
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
        // No shadow, no colour plane: the frame is all a page costs.
        assert!(mem.slab.iter().flat_map(|c| c.iter()).all(|f| f.caps.capacity() == 0 && f.colors.is_none()));
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
    fn peak_watermark_moves_only_on_materialization() {
        let mut mem = PhysMem::new();
        mem.materialize_page(0x8000);
        mem.materialize_page(0x9000);
        let peak = mem.resident_bytes();
        assert_eq!(peak, 2 * PAGE_SIZE);
        // Accesses to resident pages never move it.
        for _ in 0..100 {
            mem.store_cap(0x9000, cap(0x1000));
            mem.clear_tag_range(0x9000, 8);
            mem.clear_tag_range(0xb000, 8);
        }
        mem.store_cap(0x8000, cap(0x1000));
        assert_eq!(mem.resident_bytes(), peak);
        mem.materialize_page(0xa000);
        assert_eq!(mem.resident_bytes(), 3 * PAGE_SIZE);
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
