//! Sparse, demand-zero tagged physical memory.
//!
//! Host performance: frames live in a dense slab (`Vec<Frame>`) behind a
//! page-number → slot [`PageMap`]. A released frame parks on a free list
//! and is reset (not reallocated) on reuse; a dropped memory leaves its
//! data pages to the next one built on the same thread. None of this is
//! visible to the simulation: counters, tags, and data are bit-identical
//! to a naive map of pages.

use cheri_cap::{Capability, CAP_SIZE};
use crate::pagemap::PageMap;
use std::cell::RefCell;

/// Page size in bytes (Morello and CheriBSD use 4 KiB base pages).
pub const PAGE_SIZE: u64 = 4096;

/// Tagged 16-byte granules per page.
pub const GRANULES_PER_PAGE: usize = (PAGE_SIZE / CAP_SIZE) as usize;

const TAG_WORDS: usize = GRANULES_PER_PAGE / 64;

/// Most data pages kept for the thread's next [`PhysMem`] (64 MiB).
const SPARE_PAGES_MAX: usize = 1 << 14;

thread_local! {
    /// Data pages of dropped memories, zeroed when taken. Handing them on
    /// keeps the host allocator from returning a short cell's heap to the
    /// OS and faulting it back in for the next cell.
    static SPARE_PAGES: RefCell<Vec<Box<[u8]>>> = const { RefCell::new(Vec::new()) };
}

/// One physical page frame: 4 KiB of data, a 256-bit tag vector, and shadow
/// storage for the decompressed capabilities whose encodings live in the
/// data bytes.
///
/// The simulator holds full (decompressed) capabilities out-of-band rather
/// than implementing a bit-exact 128-bit codec; the data bytes still carry
/// the capability's address so that *data* reads of a pointer see a
/// plausible integer (programs do inspect pointer values).
#[derive(Debug)]
struct Frame {
    data: Box<[u8]>,
    /// One bit per granule; bit set ⇒ the granule holds a valid capability.
    tags: [u64; TAG_WORDS],
    /// Shadow capability storage, allocated on first capability store.
    caps: Option<Box<[Capability]>>,
    /// Per-granule memory colors (paper §7.3), allocated on first recolor.
    colors: Option<Box<[u8]>>,
}

impl Frame {
    fn new() -> Frame {
        Frame {
            data: match SPARE_PAGES.with(|spare| spare.borrow_mut().pop()) {
                Some(mut data) => {
                    data.fill(0);
                    data
                }
                None => vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
            },
            tags: [0; TAG_WORDS],
            caps: None,
            colors: None,
        }
    }

    /// Returns the frame to its demand-zero state, keeping the data
    /// allocation (slab slots are recycled across release/materialize).
    fn reset(&mut self) {
        self.data.fill(0);
        self.tags = [0; TAG_WORDS];
        self.caps = None;
        self.colors = None;
    }

    fn tag(&self, granule: usize) -> bool {
        self.tags[granule / 64] >> (granule % 64) & 1 == 1
    }

    fn set_tag(&mut self, granule: usize, value: bool) {
        let (w, b) = (granule / 64, granule % 64);
        if value {
            self.tags[w] |= 1 << b;
        } else {
            self.tags[w] &= !(1 << b);
        }
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

    fn caps_mut(&mut self) -> &mut [Capability] {
        self.caps.get_or_insert_with(|| vec![Capability::null(); GRANULES_PER_PAGE].into_boxed_slice())
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
        // `try_with`: a memory dropped during thread teardown just frees.
        let _ = SPARE_PAGES.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let room = SPARE_PAGES_MAX.saturating_sub(spare.len());
            spare.extend(self.slab.drain(..).take(room).map(|frame| frame.data));
        });
    }
}

impl PhysMem {
    /// Creates an empty memory; every page reads as zero until written.
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
                self.slab.push(Frame::new());
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

    /// Reads bytes starting at `addr`. Unmaterialized memory reads as zero.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let in_page = (PAGE_SIZE - a % PAGE_SIZE) as usize;
            let n = in_page.min(buf.len() - off);
            match self.frame(a) {
                Some(f) => {
                    let s = (a % PAGE_SIZE) as usize;
                    buf[off..off + n].copy_from_slice(&f.data[s..s + n]);
                }
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// Writes bytes starting at `addr`, clearing the tag of every granule
    /// the write overlaps (data stores never preserve capability validity).
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let in_page = (PAGE_SIZE - a % PAGE_SIZE) as usize;
            let n = in_page.min(buf.len() - off);
            let frame = self.frame_mut(a);
            let s = (a % PAGE_SIZE) as usize;
            frame.data[s..s + n].copy_from_slice(&buf[off..off + n]);
            frame.clear_tag_span(s / CAP_SIZE as usize, (s + n - 1) / CAP_SIZE as usize);
            off += n;
        }
    }

    /// Convenience: reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Convenience: writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Loads the capability at 16-byte-aligned `addr`. If the granule's tag
    /// is clear, the result is an untagged capability whose address is the
    /// granule's first 8 data bytes (what a data load would see).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 16-byte aligned (the ISA requires natural
    /// alignment for capability accesses).
    #[must_use]
    #[inline]
    pub fn load_cap(&self, addr: u64) -> Capability {
        assert_eq!(addr % CAP_SIZE, 0, "capability load must be 16-byte aligned");
        let Some(frame) = self.frame(addr) else {
            return Capability::null();
        };
        let g = (addr % PAGE_SIZE / CAP_SIZE) as usize;
        if frame.tag(g) {
            frame.caps.as_ref().expect("tagged granule must have shadow storage")[g]
        } else {
            let s = (addr % PAGE_SIZE) as usize;
            let mut b = [0u8; 8];
            b.copy_from_slice(&frame.data[s..s + 8]);
            Capability::null().set_addr(u64::from_le_bytes(b))
        }
    }

    /// Stores `cap` at 16-byte-aligned `addr`. The granule's tag follows the
    /// capability's tag; the data bytes record the cursor address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 16-byte aligned.
    #[inline]
    pub fn store_cap(&mut self, addr: u64, cap: Capability) {
        assert_eq!(addr % CAP_SIZE, 0, "capability store must be 16-byte aligned");
        let frame = self.frame_mut(addr);
        let s = (addr % PAGE_SIZE) as usize;
        let g = s / CAP_SIZE as usize;
        frame.data[s..s + 8].copy_from_slice(&cap.addr().to_le_bytes());
        frame.data[s + 8..s + 16].fill(0);
        frame.set_tag(g, cap.is_tagged());
        if cap.is_tagged() {
            frame.caps_mut()[g] = cap;
        }
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
            f.set_tag((addr % PAGE_SIZE / CAP_SIZE) as usize, false);
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
        match self.frame(page_addr).and_then(|f| f.caps.as_ref().map(|c| (f.tags, c))) {
            Some((words, caps)) => TaggedCapsInPage {
                base: page_addr,
                caps,
                words,
                cur: 0,
                bits: 0,
                next_word: 0,
            },
            None => TaggedCapsInPage {
                base: page_addr,
                caps: &[],
                words: [0; TAG_WORDS],
                cur: 0,
                bits: 0,
                next_word: TAG_WORDS,
            },
        }
    }

    /// Releases the frame backing `page_addr` (munmap / page reclaim). The
    /// page's contents and tags are discarded; subsequent reads see zero.
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
        self.frame(addr)
            .and_then(|f| f.colors.as_ref())
            .map_or(0, |c| c[(addr % PAGE_SIZE / CAP_SIZE) as usize])
    }

    /// Recolors every granule of `[base, base+len)` (the allocator's
    /// free-time recoloring; paper §7.3). Granule-aligned.
    pub fn set_color_range(&mut self, base: u64, len: u64, color: u8) {
        assert_eq!(base % CAP_SIZE, 0, "recolor must be granule-aligned");
        let mut addr = base;
        let end = base.saturating_add(len);
        while addr < end {
            let frame = self.frame_mut(addr);
            let colors = frame
                .colors
                .get_or_insert_with(|| vec![0u8; GRANULES_PER_PAGE].into_boxed_slice());
            let g0 = (addr % PAGE_SIZE / CAP_SIZE) as usize;
            let in_page = GRANULES_PER_PAGE - g0;
            let n = (((end - addr) / CAP_SIZE) as usize).min(in_page);
            colors[g0..g0 + n].fill(color);
            addr += (n as u64) * CAP_SIZE;
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
    words: [u64; TAG_WORDS],
    /// Word whose remaining set bits are in `bits`.
    cur: usize,
    bits: u64,
    next_word: usize,
}

impl Iterator for TaggedCapsInPage<'_> {
    type Item = (u64, Capability);

    #[inline]
    fn next(&mut self) -> Option<(u64, Capability)> {
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
        let g = self.cur * 64 + b;
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
        assert_eq!(mem.read_u64(0xdead_0000), 0);
        assert!(!mem.tag(0xdead_0000));
        assert!(!mem.load_cap(0xdead_0000).is_tagged());
    }

    #[test]
    fn pages_of_a_dropped_memory_come_back_zeroed() {
        let mut mem = PhysMem::new();
        mem.write_bytes(0x4000, &[0xab; 64]);
        mem.store_cap(0x4040, cap(0x1234_0000));
        drop(mem);
        let spare = SPARE_PAGES.with(|s| s.borrow().len());
        assert!(spare >= 1, "the dropped memory's data page was not kept");
        // The next memory on this thread takes the page and sees none of it.
        let mut mem = PhysMem::new();
        mem.materialize_page(0x4000);
        assert_eq!(SPARE_PAGES.with(|s| s.borrow().len()), spare - 1);
        let mut back = [0xffu8; 128];
        mem.read_bytes(0x4000, &mut back);
        assert_eq!(back, [0u8; 128]);
        assert!(!mem.page_has_tags(0x4000));
    }

    #[test]
    fn data_roundtrip_across_page_boundary() {
        let mut mem = PhysMem::new();
        let data: Vec<u8> = (0..100u8).collect();
        mem.write_bytes(PAGE_SIZE - 50, &data);
        let mut back = vec![0u8; 100];
        mem.read_bytes(PAGE_SIZE - 50, &mut back);
        assert_eq!(back, data);
        assert_eq!(mem.resident_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn cap_store_sets_tag_and_roundtrips() {
        let mut mem = PhysMem::new();
        let c = cap(0x1234_0000);
        mem.store_cap(0x8000, c);
        assert!(mem.tag(0x8000));
        assert_eq!(mem.load_cap(0x8000), c);
        // Data view of the granule shows the address.
        assert_eq!(mem.read_u64(0x8000), 0x1234_0000);
    }

    #[test]
    fn data_write_clears_overlapping_tags() {
        let mut mem = PhysMem::new();
        mem.store_cap(0x8000, cap(0x1000));
        mem.store_cap(0x8010, cap(0x2000));
        // A single byte write into the second granule clears only its tag.
        mem.write_bytes(0x8017, &[1]);
        assert!(mem.tag(0x8000));
        assert!(!mem.tag(0x8010));
        // A spanning write clears both.
        mem.write_bytes(0x8008, &[0u8; 16]);
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
        mem.write_bytes(0x8040, &[0]); // kill the middle one
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
        assert_eq!(mem.read_u64(0x8000), 0x1000);
    }

    #[test]
    fn release_page_drops_residency_and_contents() {
        let mut mem = PhysMem::new();
        mem.write_u64(0x8000, 7);
        let peak = mem.peak_resident_bytes();
        mem.release_page(0x8000);
        assert_eq!(mem.resident_bytes(), 0);
        assert_eq!(mem.peak_resident_bytes(), peak);
        assert_eq!(mem.read_u64(0x8000), 0);
    }

    #[test]
    fn released_slots_are_recycled_and_demand_zero() {
        let mut mem = PhysMem::new();
        mem.store_cap(0x8000, cap(0x1000));
        mem.set_color_range(0x8000, 64, 3);
        mem.release_page(0x8000);
        // A different page reuses the slot; nothing leaks through.
        mem.write_u64(0x2_0000, 9);
        assert_eq!(mem.read_u64(0x8000), 0);
        assert_eq!(mem.read_u64(0x2_0000 + 8), 0);
        assert!(!mem.tag(0x2_0000));
        assert_eq!(mem.granule_color(0x2_0000), 0);
        assert_eq!(mem.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn peak_watermark_moves_only_on_materialization() {
        let mut mem = PhysMem::new();
        mem.write_u64(0x8000, 7);
        mem.write_u64(0x9000, 7);
        let peak = mem.peak_resident_bytes();
        assert_eq!(peak, 2 * PAGE_SIZE);
        mem.release_page(0x8000);
        // Accesses to the survivor never move the watermark.
        for _ in 0..100 {
            mem.write_u64(0x9000, 7);
        }
        assert_eq!(mem.peak_resident_bytes(), peak);
        // Rematerializing the released page only restores the old level.
        mem.write_u64(0x8000, 7);
        assert_eq!(mem.peak_resident_bytes(), peak);
        mem.write_u64(0xa000, 7);
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
