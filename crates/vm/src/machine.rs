//! The simulated multicore machine: MMU + TLBs + register files + memory.

use crate::pte::{MapFlags, Pte};
use crate::VmFault;
use cheri_cap::{Capability, Perms, CAP_SIZE};
use cheri_mem::{CoreId, MemSystem, PageMap, PAGE_SIZE};

/// Registers per simulated thread (Morello has 31 general-purpose
/// capability registers; we round to 32).
pub const NUM_REGS: usize = 32;

/// Identifies a simulated thread (owner of a register file).
pub type ThreadId = usize;

/// A thread's capability register file.
///
/// Registers are one of the "hoards" outside sweepable memory that an epoch
/// must scan at its start (paper §3.2, §4.4): a to-be-revoked capability
/// sitting in a register would otherwise break the load-barrier invariant.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    regs: [Capability; NUM_REGS],
}

impl Default for RegisterFile {
    fn default() -> Self {
        RegisterFile { regs: [Capability::null(); NUM_REGS] }
    }
}

impl RegisterFile {
    /// Reads register `r`.
    #[must_use]
    pub fn get(&self, r: usize) -> Capability {
        self.regs[r]
    }

    /// Writes register `r`.
    pub fn set(&mut self, r: usize, cap: Capability) {
        self.regs[r] = cap;
    }

    /// Iterates over all registers mutably (the revoker's register scan).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Capability> {
        self.regs.iter_mut()
    }

    /// Iterates over all registers.
    pub fn iter(&self) -> impl Iterator<Item = &Capability> {
        self.regs.iter()
    }
}

/// MMU and fault counters, exposed for the evaluation harness.
#[derive(Debug, Default, Clone, Copy)]
pub struct VmStats {
    /// TLB misses that required a page-table walk.
    pub tlb_misses: u64,
    /// TLB invalidations broadcast to other cores.
    pub tlb_shootdowns: u64,
    /// PTE updates written back (the quantity §4.1's design halves).
    pub pte_writes: u64,
    /// Capability-dirty transitions (store-barrier events, §4.2).
    pub cap_dirty_sets: u64,
    /// Capability load-generation faults taken (§4.1).
    pub load_generation_faults: u64,
    /// Loads refused because of a memory-color mismatch (§7.3).
    pub color_faults: u64,
    /// Stores silently discarded because of a memory-color mismatch (§7.3).
    pub discarded_stores: u64,
}

/// A typed MMU event, recorded (when event recording is enabled) for the
/// telemetry layer. Events carry no timestamps — the machine has no wall
/// clock; the driving simulator stamps them as it drains the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmEvent {
    /// A TLB invalidation was broadcast for `page`.
    TlbShootdown {
        /// Page-aligned virtual address invalidated.
        page: u64,
    },
    /// Every core's load-generation bit flipped (Reloaded epoch entry).
    GenerationFlip {
        /// The new space generation.
        generation: bool,
    },
    /// A capability load-generation fault was taken (§4.1).
    LoadGenerationFault {
        /// Faulting virtual address.
        vaddr: u64,
        /// Core that took the fault.
        core: CoreId,
    },
}

/// One core's TLB: cached PTE snapshots keyed by page number, each
/// stamped with the flush count at which it was filled. A flush bumps the
/// count, so it is O(1) and every older entry simply stops matching.
#[derive(Debug, Clone, Default)]
struct Tlb {
    entries: PageMap<(u64, Pte)>,
    /// Flushes so far; only entries carrying this stamp are cached.
    flushes: u64,
}

impl Tlb {
    /// Cached translation for the page of `vaddr`, if present.
    #[inline]
    fn lookup(&self, vaddr: u64) -> Option<Pte> {
        self.entries.get(vaddr / PAGE_SIZE).filter(|e| e.0 == self.flushes).map(|e| e.1)
    }

    fn insert(&mut self, vaddr: u64, pte: Pte) {
        self.entries.insert(vaddr / PAGE_SIZE, (self.flushes, pte));
    }

    /// Invalidates the page of `vaddr`; returns whether it was cached.
    /// The entry is restamped, not removed: the re-walk after a load fault
    /// refills it in place.
    fn remove(&mut self, vaddr: u64) -> bool {
        let entry = self.entries.get_mut(vaddr / PAGE_SIZE);
        entry.map(|e| std::mem::replace(&mut e.0, u64::MAX)) == Some(self.flushes)
    }

    fn clear(&mut self) {
        self.flushes += 1;
    }

    /// Marks the cached translation of `vaddr` capability-dirty (the
    /// store-barrier's local TLB update; other cores keep stale copies).
    fn set_cap_dirty(&mut self, vaddr: u64) {
        if let Some((_, pte)) = self.entries.get_mut(vaddr / PAGE_SIZE) {
            pte.cap_dirty = true;
        }
    }
}

/// The simulated machine: a small SMP of cores sharing one address space,
/// as in the paper's single-process evaluation setup.
///
/// All accesses go through architectural checks (capability, PTE, barrier)
/// and are charged to a core's cache hierarchy. The revoker drives the
/// `*_generation`, `*_cap_dirty`, and sweep primitives; the allocator and
/// workloads drive the load/store primitives.
#[derive(Debug)]
pub struct Machine {
    mem: MemSystem,
    /// The page table, keyed by page number. The revoker's sweep-set
    /// enumerations rely on its ascending iteration.
    ptes: PageMap<Pte>,
    tlbs: Vec<Tlb>,
    core_gen: Vec<bool>,
    /// Generation adopted by newly created PTEs and newly arriving cores.
    space_gen: bool,
    threads: Vec<RegisterFile>,
    stats: VmStats,
    /// Cycle cost of a page-table walk on TLB miss.
    walk_cycles: u64,
    /// Whether MMU events are appended to `events` (off by default: the
    /// telemetry-off configuration must not allocate on any path).
    log_events: bool,
    events: Vec<VmEvent>,
}

impl Machine {
    /// Creates a machine with `cores` cores (each with an initially empty
    /// register file for its pinned thread) and default cache geometry.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        assert!(cores >= 1, "a machine needs at least one core");
        Machine {
            mem: MemSystem::new(cores),
            ptes: PageMap::default(),
            tlbs: vec![Tlb::default(); cores],
            core_gen: vec![false; cores],
            space_gen: false,
            threads: vec![RegisterFile::default(); cores],
            stats: VmStats::default(),
            walk_cycles: 20,
            log_events: false,
            events: Vec::new(),
        }
    }

    /// Enables or disables MMU event recording. Disabled (the default),
    /// the machine never touches its event buffer; simulated counters are
    /// identical either way.
    pub fn set_event_recording(&mut self, on: bool) {
        self.log_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// Drains the recorded events, oldest first, clearing the internal log.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, VmEvent> {
        self.events.drain(..)
    }

    /// Number of cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.core_gen.len()
    }

    /// The memory system (for traffic statistics).
    #[must_use]
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Mutable memory system access (used by the revoker's bulk charging).
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// MMU statistics.
    #[must_use]
    pub fn vm_stats(&self) -> VmStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Mapping management
    // ------------------------------------------------------------------

    /// Maps `[vaddr, vaddr+len)` with `flags`. Both must be page-aligned.
    /// Remapping an existing page replaces its permissions. A range may
    /// end at 2^64 exactly; one that runs past it is refused with
    /// [`VmFault::NotMapped`] before any PTE changes.
    pub fn map_range(&mut self, vaddr: u64, len: u64, flags: MapFlags) -> Result<(), VmFault> {
        assert_eq!(vaddr % PAGE_SIZE, 0, "map_range: unaligned vaddr");
        assert_eq!(len % PAGE_SIZE, 0, "map_range: unaligned length");
        let pages = len / PAGE_SIZE;
        if pages > PAGES_IN_SPACE - vaddr / PAGE_SIZE {
            return Err(VmFault::NotMapped { vaddr });
        }
        for page in (0..pages).map(|i| vaddr + i * PAGE_SIZE) {
            let mut pte = Pte::new(flags, self.space_gen);
            // A *remapping* (e.g. mprotect to read-only) must not lose the
            // revoker's view of the page: the capability-dirty bit and the
            // load generation carry over, or a capability-bearing page
            // could silently drop out of the sweep set / load barrier.
            if let Some(old) = self.pte(page) {
                pte.cap_dirty = old.cap_dirty;
                pte.load_gen = old.load_gen;
            }
            self.ptes.insert(page / PAGE_SIZE, pte);
            self.stats.pte_writes += 1;
            self.shootdown(page);
        }
        Ok(())
    }

    fn pte(&self, vaddr: u64) -> Option<&Pte> {
        self.ptes.get(vaddr / PAGE_SIZE)
    }

    fn pte_mut(&mut self, vaddr: u64) -> Option<&mut Pte> {
        self.ptes.get_mut(vaddr / PAGE_SIZE)
    }

    fn shootdown(&mut self, page: u64) {
        let mut any = false;
        for tlb in &mut self.tlbs {
            any |= tlb.remove(page);
        }
        if any {
            self.stats.tlb_shootdowns += 1;
            if self.log_events {
                self.events.push(VmEvent::TlbShootdown { page });
            }
        }
    }

    /// Translates on behalf of `core`, filling the TLB. Returns a PTE
    /// snapshot and the cycle cost of any walk.
    fn translate(&mut self, core: CoreId, vaddr: u64) -> Result<(Pte, u64), VmFault> {
        if let Some(pte) = self.tlbs[core].lookup(vaddr) {
            return Ok((pte, 0));
        }
        self.stats.tlb_misses += 1;
        let pte = *self.pte(vaddr).ok_or(VmFault::NotMapped { vaddr })?;
        self.tlbs[core].insert(vaddr, pte);
        Ok((pte, self.walk_cycles))
    }

    /// Re-walks the page table after a suspected-stale TLB entry (paper
    /// §4.3: a faulting thread first checks whether another core already
    /// completed revocation of the page).
    fn refresh_tlb(&mut self, core: CoreId, vaddr: u64) -> Result<(Pte, u64), VmFault> {
        self.tlbs[core].remove(vaddr);
        self.translate(core, vaddr)
    }

    // ------------------------------------------------------------------
    // Application-visible accesses (architecturally checked)
    // ------------------------------------------------------------------

    /// Loads the capability at `auth.addr()`. Applies the load barrier: a
    /// tag-asserted load from a page whose generation mismatches the core's
    /// faults with [`VmFault::CapLoadGeneration`]. Returns the capability
    /// and the cycle cost.
    #[inline]
    pub fn load_cap(&mut self, core: CoreId, auth: &Capability) -> Result<(Capability, u64), VmFault> {
        auth.check_access(Perms::LOAD | Perms::LOAD_CAP, CAP_SIZE)?;
        let vaddr = auth.addr();
        let (pte, mut cycles) = self.translate(core, vaddr)?;
        if !pte.read {
            return Err(VmFault::NotMapped { vaddr });
        }
        // One walk to the frame answers for the granule's tag, colour and
        // value; the cache is charged once the load is known to happen.
        let granule = vaddr & !(CAP_SIZE - 1);
        let (tag, color, cap) = self.mem.phys().load_granule(granule);
        // The barrier conditions the trap on the *loaded* tag (§4.1): only
        // valid capabilities flowing into the register file matter.
        if tag && pte.load_gen != self.core_gen[core] {
            // TLB may be stale: re-walk before declaring a fault.
            let (fresh, walk) = self.refresh_tlb(core, vaddr)?;
            cycles += walk;
            if fresh.load_gen != self.core_gen[core] {
                self.stats.load_generation_faults += 1;
                if self.log_events {
                    self.events.push(VmEvent::LoadGenerationFault { vaddr, core });
                }
                return Err(VmFault::CapLoadGeneration { vaddr });
            }
        }
        if color != auth.color() {
            self.stats.color_faults += 1;
            return Err(VmFault::ColorMismatch { vaddr });
        }
        Ok((cap, cycles + self.mem.touch_read(core, granule, CAP_SIZE)))
    }

    /// Stores `cap` at `auth.addr()`. A tagged store to a capability-clean
    /// page sets the page's CD bit (the store barrier, §4.2). Returns the
    /// cycle cost.
    pub fn store_cap(&mut self, core: CoreId, auth: &Capability, cap: Capability) -> Result<u64, VmFault> {
        let need = if cap.is_tagged() { Perms::STORE | Perms::STORE_CAP } else { Perms::STORE };
        auth.check_access(need, CAP_SIZE)?;
        let vaddr = auth.addr();
        let (pte, mut cycles) = self.translate(core, vaddr)?;
        if !pte.write {
            return Err(VmFault::ReadOnly { vaddr });
        }
        if cap.is_tagged() && !pte.cap_store {
            return Err(VmFault::CapStoreDisallowed { vaddr });
        }
        if self.mem.phys().granule_color(vaddr) != auth.color() {
            // §7.3: stores through mis-colored capabilities are discarded,
            // not trapped — the client could never read them back anyway.
            self.stats.discarded_stores += 1;
            return Ok(cycles + 4);
        }
        if cap.is_tagged() && !pte.cap_dirty {
            if let Some(p) = self.pte_mut(vaddr) {
                p.cap_dirty = true;
            }
            self.tlbs[core].set_cap_dirty(vaddr);
            self.stats.cap_dirty_sets += 1;
            self.stats.pte_writes += 1;
            cycles += 10; // hardware A/D-bit style update
        }
        cycles += self.mem.store_cap(core, vaddr & !(CAP_SIZE - 1), cap);
        Ok(cycles)
    }

    /// Reads `len` bytes of data at `auth.addr()` (no tag semantics for
    /// data loads). Only traffic is modelled; no buffer is produced. A
    /// zero-length load is a no-op once the capability check has passed.
    pub fn read_data(&mut self, core: CoreId, auth: &Capability, len: u64) -> Result<u64, VmFault> {
        auth.check_access(Perms::LOAD, len)?;
        if len == 0 {
            return Ok(0);
        }
        let vaddr = auth.addr();
        let mut cycles = 0;
        for page in pages_spanned(vaddr, len) {
            let (pte, c) = self.translate(core, page.max(vaddr))?;
            cycles += c;
            if !pte.read {
                return Err(VmFault::NotMapped { vaddr: page });
            }
        }
        if self.mem.phys().granule_color(vaddr) != auth.color() {
            self.stats.color_faults += 1;
            return Err(VmFault::ColorMismatch { vaddr });
        }
        Ok(cycles + self.mem.touch_read(core, vaddr, len))
    }

    /// Writes `len` bytes of data at `auth.addr()`, clearing every
    /// overlapped granule tag (data stores never carry tags). A zero-length
    /// store is a no-op once the capability check has passed: with the
    /// cursor at `top` it would otherwise reach the first granule past the
    /// bounds.
    pub fn write_data(&mut self, core: CoreId, auth: &Capability, len: u64) -> Result<u64, VmFault> {
        auth.check_access(Perms::STORE, len)?;
        if len == 0 {
            return Ok(0);
        }
        let vaddr = auth.addr();
        let mut cycles = 0;
        for page in pages_spanned(vaddr, len) {
            let (pte, c) = self.translate(core, page.max(vaddr))?;
            cycles += c;
            if !pte.write {
                return Err(VmFault::ReadOnly { vaddr: page });
            }
            self.mem.phys_mut().materialize_page(page);
        }
        if self.mem.phys().granule_color(vaddr) != auth.color() {
            self.stats.discarded_stores += 1;
            return Ok(cycles + 4);
        }
        cycles += self.mem.touch_write(core, vaddr, len);
        // Bulk word-masked tag clear over every overlapped granule.
        self.mem.phys_mut().clear_tag_range(vaddr, len);
        Ok(cycles)
    }

    // ------------------------------------------------------------------
    // Register files
    // ------------------------------------------------------------------

    /// The register file of thread `t`.
    #[must_use]
    pub fn regs(&self, t: ThreadId) -> &RegisterFile {
        &self.threads[t]
    }

    /// Mutable register file of thread `t`.
    pub fn regs_mut(&mut self, t: ThreadId) -> &mut RegisterFile {
        &mut self.threads[t]
    }

    /// Number of threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    // ------------------------------------------------------------------
    // Revoker-facing primitives (kernel mode)
    // ------------------------------------------------------------------

    /// The capability load generation currently held by `core`.
    #[must_use]
    pub fn core_generation(&self, core: CoreId) -> bool {
        self.core_gen[core]
    }

    /// The generation new PTEs inherit.
    #[must_use]
    pub fn space_generation(&self) -> bool {
        self.space_gen
    }

    /// Flips every core's in-core generation bit and the space generation —
    /// the "fast global enablement" that starts a Reloaded epoch (§4.1).
    /// PTEs are *not* touched; every tag-asserted load now traps until the
    /// revoker visits the page.
    ///
    /// The synchronizing IPI also invalidates all TLBs: with a single
    /// generation bit, a TLB entry stale by exactly two epochs would alias
    /// the current generation and let an unswept tagged load through
    /// (found by this crate's property tests). Flushing once per epoch
    /// start makes the one-bit scheme sound.
    pub fn flip_core_generations(&mut self) {
        self.space_gen = !self.space_gen;
        for g in &mut self.core_gen {
            *g = !*g;
        }
        for tlb in &mut self.tlbs {
            tlb.clear();
        }
        self.stats.tlb_shootdowns += 1;
        if self.log_events {
            self.events.push(VmEvent::GenerationFlip { generation: self.space_gen });
        }
    }

    /// The load generation recorded in the PTE mapping `vaddr`, if mapped.
    #[must_use]
    pub fn page_generation(&self, vaddr: u64) -> Option<bool> {
        self.pte(vaddr).map(|p| p.load_gen)
    }

    /// Sets the PTE load generation for the page at `vaddr` (the revoker's
    /// page-visit completion; idempotent, one PTE write, no shootdown —
    /// stale TLB copies cause only a spurious re-walk).
    pub fn set_page_generation(&mut self, vaddr: u64, gen: bool) {
        if let Some(p) = self.pte_mut(vaddr) {
            if p.load_gen != gen {
                p.load_gen = gen;
                self.stats.pte_writes += 1;
            }
        }
    }

    /// Whether the page at `vaddr` is capability-dirty.
    #[must_use]
    pub fn page_cap_dirty(&self, vaddr: u64) -> bool {
        self.pte(vaddr).is_some_and(|p| p.cap_dirty)
    }

    /// Clears the CD bit on the page at `vaddr` (revoker marking a page
    /// clean). Requires a shootdown so other cores' cached CD state cannot
    /// mask subsequent store-barrier events.
    pub fn clear_page_cap_dirty(&mut self, vaddr: u64) {
        let page = vaddr / PAGE_SIZE * PAGE_SIZE;
        if let Some(p) = self.pte_mut(page) {
            if p.cap_dirty {
                p.cap_dirty = false;
                self.stats.pte_writes += 1;
            }
        }
        self.shootdown(page);
    }

    /// Addresses of the mapped pages whose PTE satisfies `keep`, ascending.
    fn pages_where<'a>(&'a self, keep: impl Fn(&Pte) -> bool + 'a) -> impl Iterator<Item = u64> + 'a {
        self.ptes.iter().filter(move |(_, p)| keep(p)).map(|(n, _)| n * PAGE_SIZE)
    }

    /// All mapped pages (ascending).
    pub fn mapped_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages_where(|_| true)
    }

    /// All capability-dirty pages (ascending).
    pub fn cap_dirty_pages(&self) -> Vec<u64> {
        self.pages_where(|p| p.cap_dirty).collect()
    }

    /// All pages whose PTE generation differs from the space generation
    /// (i.e. not yet visited in the current Reloaded epoch).
    pub fn stale_generation_pages(&self) -> Vec<u64> {
        self.pages_where(|p| p.load_gen != self.space_gen).collect()
    }

    /// Kernel-mode peek at the tagged capabilities on a page, with no
    /// architectural checks and no traffic (the revoker charges traffic
    /// separately via [`Machine::charge_page_scan`]): clears `out` and
    /// fills it with the page's tagged capabilities. The sweep loop reuses
    /// one scratch buffer across every page it visits.
    pub fn peek_tagged_caps_into(&self, page_addr: u64, out: &mut Vec<(u64, Capability)>) {
        out.clear();
        out.extend(self.mem.phys().tagged_caps_in_page(page_addr));
    }

    /// Charges `core` the bus cost of scanning one page.
    pub fn charge_page_scan(&mut self, core: CoreId, page_addr: u64) -> u64 {
        let page = page_addr / PAGE_SIZE * PAGE_SIZE;
        self.mem.touch_read(core, page, PAGE_SIZE)
    }

    /// Whether the page at `vaddr` is writable by user space. The
    /// revoker's sweep uses this for §4.3's read-only heuristic: a page
    /// that needs no revocations is put back into service untouched, and
    /// only a page that *must* be mutated goes through the upgrade path.
    #[must_use]
    pub fn page_user_writable(&self, vaddr: u64) -> bool {
        self.pte(vaddr).is_some_and(|p| p.write)
    }

    /// Upgrades a read-only page to writable through the full page-fault
    /// machinery (§4.3: required only when a capability on the page must
    /// be revoked). Returns the cycle cost.
    pub fn upgrade_page_writable(&mut self, vaddr: u64) -> u64 {
        let page = vaddr / PAGE_SIZE * PAGE_SIZE;
        if let Some(p) = self.pte_mut(page) {
            if !p.write {
                p.write = true;
                self.stats.pte_writes += 1;
                self.shootdown(page);
                return 4_000; // full fault + pmap upgrade
            }
        }
        0
    }

    /// Revokes the capability at `addr` in place: clears its memory tag and
    /// charges `core` for the granule write-back.
    pub fn revoke_granule(&mut self, core: CoreId, addr: u64) -> u64 {
        let g = addr & !(CAP_SIZE - 1);
        self.mem.phys_mut().clear_tag(g);
        self.mem.touch_write(core, g, CAP_SIZE)
    }

    /// Recolors `[auth.addr(), +len)` to `color` (paper §7.3). Requires
    /// [`Perms::RECOLOR`] and write authority over the range; charges
    /// `core` the color-store traffic (colors ride the tag path: 4 bits
    /// per granule). Returns the cycle cost.
    pub fn recolor(&mut self, core: CoreId, auth: &Capability, len: u64, color: u8) -> Result<u64, VmFault> {
        auth.check_access(Perms::STORE | Perms::RECOLOR, len)?;
        let vaddr = auth.addr();
        let mut cycles = 0;
        for page in pages_spanned(vaddr, len) {
            let (pte, c) = self.translate(core, page.max(vaddr))?;
            cycles += c;
            if !pte.write {
                return Err(VmFault::ReadOnly { vaddr: page });
            }
        }
        self.mem.phys_mut().set_color_range(vaddr, len, color);
        // Color metadata traffic: 4 bits/granule = len/32 bytes.
        cycles += self.mem.touch_write(core, vaddr, (len / 32).max(1));
        // 1 cycle per granule recolored: every one the range overlaps.
        cycles += (vaddr % CAP_SIZE).saturating_add(len).div_ceil(CAP_SIZE);
        Ok(cycles)
    }

    /// The memory color of the granule at `vaddr` (kernel peek; used by
    /// the revoker's architectural mis-color test, §7.3).
    #[must_use]
    pub fn granule_color(&self, vaddr: u64) -> u8 {
        self.mem.phys().granule_color(vaddr)
    }

    /// Resident-set size in bytes (materialized frames).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.mem.phys().resident_bytes()
    }

    /// Peak resident-set size in bytes: no frame is ever released, so
    /// residency never falls and its peak is [`Machine::resident_bytes`].
    /// Kept as a name because the standalone `benchmark/` crate reads it.
    #[must_use]
    pub fn peak_resident_bytes(&self) -> u64 {
        self.resident_bytes()
    }
}

/// Pages in the 64-bit address space.
const PAGES_IN_SPACE: u64 = u64::MAX / PAGE_SIZE + 1;

fn pages_spanned(vaddr: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = vaddr / PAGE_SIZE * PAGE_SIZE;
    let last = (vaddr + len.max(1) - 1) / PAGE_SIZE * PAGE_SIZE;
    (first..=last).step_by(PAGE_SIZE as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, Capability) {
        let mut m = Machine::new(2);
        m.map_range(0x1_0000, 0x4000, MapFlags::user_rw()).unwrap();
        let heap = Capability::new_root(0x1_0000, 0x4000, Perms::rw());
        (m, heap)
    }

    #[test]
    fn unmapped_access_faults() {
        let (mut m, _) = setup();
        let stray = Capability::new_root(0x9_0000, 0x1000, Perms::rw());
        assert!(matches!(m.load_cap(0, &stray), Err(VmFault::NotMapped { .. })));
    }

    #[test]
    fn untagged_auth_faults_failstop() {
        let (mut m, heap) = setup();
        let dead = heap.with_tag_cleared();
        assert!(matches!(m.load_cap(0, &dead), Err(VmFault::Capability(_))));
        assert!(matches!(m.store_cap(0, &dead, heap), Err(VmFault::Capability(_))));
    }

    #[test]
    fn store_barrier_sets_cap_dirty_once() {
        let (mut m, heap) = setup();
        assert!(!m.page_cap_dirty(0x1_0000));
        m.store_cap(0, &heap.set_addr(0x1_0000), heap).unwrap();
        assert!(m.page_cap_dirty(0x1_0000));
        let sets = m.vm_stats().cap_dirty_sets;
        m.store_cap(0, &heap.set_addr(0x1_0010), heap).unwrap();
        assert_eq!(m.vm_stats().cap_dirty_sets, sets, "second store is barrier-free");
    }

    #[test]
    fn untagged_store_does_not_dirty() {
        let (mut m, heap) = setup();
        m.store_cap(0, &heap.set_addr(0x1_0000), Capability::null()).unwrap();
        assert!(!m.page_cap_dirty(0x1_0000));
    }

    #[test]
    fn load_generation_fault_only_for_tagged_granules() {
        let (mut m, heap) = setup();
        m.store_cap(0, &heap.set_addr(0x1_0000), heap).unwrap();
        m.flip_core_generations();
        // Untagged granule: no trap even though generation mismatches.
        assert!(m.load_cap(0, &heap.set_addr(0x1_0100)).is_ok());
        // Tagged granule: traps.
        assert!(matches!(
            m.load_cap(0, &heap.set_addr(0x1_0000)),
            Err(VmFault::CapLoadGeneration { vaddr: 0x1_0000 })
        ));
        assert_eq!(m.vm_stats().load_generation_faults, 1);
    }

    #[test]
    fn page_visit_heals_barrier_for_all_cores() {
        let (mut m, heap) = setup();
        m.store_cap(0, &heap.set_addr(0x1_0000), heap).unwrap();
        m.load_cap(1, &heap.set_addr(0x1_0000)).unwrap(); // warm core 1 TLB
        m.flip_core_generations();
        m.set_page_generation(0x1_0000, m.space_generation());
        // Core 1's TLB is stale but the re-walk finds the updated PTE: no fault.
        assert!(m.load_cap(1, &heap.set_addr(0x1_0000)).is_ok());
        assert_eq!(m.vm_stats().load_generation_faults, 0);
    }

    #[test]
    fn new_mappings_inherit_current_generation() {
        let (mut m, _) = setup();
        m.flip_core_generations();
        m.map_range(0x8_0000, 0x1000, MapFlags::user_rw()).unwrap();
        assert_eq!(m.page_generation(0x8_0000), Some(m.space_generation()));
    }

    #[test]
    fn cap_store_disallowed_on_nocap_mappings() {
        let (mut m, _) = setup();
        m.map_range(0x8_0000, 0x1000, MapFlags::user_rw_nocap()).unwrap();
        let file = Capability::new_root(0x8_0000, 0x1000, Perms::rw());
        assert!(matches!(m.store_cap(0, &file, file), Err(VmFault::CapStoreDisallowed { .. })));
        // Data stores are fine.
        assert!(m.write_data(0, &file, 64).is_ok());
    }

    #[test]
    fn data_write_clears_tags() {
        let (mut m, heap) = setup();
        m.store_cap(0, &heap.set_addr(0x1_0000), heap).unwrap();
        m.write_data(0, &heap.set_addr(0x1_0008), 4).unwrap();
        assert!(!m.mem().phys().tag(0x1_0000));
    }

    #[test]
    fn zero_length_data_access_is_a_no_op() {
        let (mut m, heap) = setup();
        let obj = heap.set_bounds_exact(0x1_0000, 0x1000).unwrap();
        let past = obj.set_addr(obj.top());
        assert!(past.is_tagged());
        // A neighbour's capability in the first granule past `obj`.
        m.store_cap(0, &heap.set_addr(obj.top()), heap).unwrap();
        assert_eq!(m.write_data(0, &past, 0), Ok(0));
        assert_eq!(m.read_data(0, &past, 0), Ok(0));
        assert!(m.mem().phys().tag(obj.top()), "a store of nothing cleared a tag it had no authority over");
        // Nothing translated, nothing materialised: the page past this
        // object was never touched and stays that way.
        let obj = heap.set_bounds_exact(0x1_2000, 0x1000).unwrap();
        let (resident, misses) = (m.resident_bytes(), m.vm_stats().tlb_misses);
        assert_eq!(m.write_data(0, &obj.set_addr(obj.top()), 0), Ok(0));
        assert_eq!((m.resident_bytes(), m.vm_stats().tlb_misses), (resident, misses));
        // The capability is still checked.
        assert!(matches!(m.write_data(0, &past.with_tag_cleared(), 0), Err(VmFault::Capability(_))));
    }

    #[test]
    fn recolor_charges_every_granule_it_overlaps() {
        let (mut m, _) = setup();
        let auth = Capability::new_root(0x1_0000, 0x4000, Perms::rw() | Perms::RECOLOR);
        m.recolor(0, &auth, 32, 1).unwrap(); // warm the TLB and the cache line
        let even = m.recolor(0, &auth, 32, 2).unwrap();
        let ragged = m.recolor(0, &auth, 24, 3).unwrap();
        assert_eq!(ragged, even, "24 bytes overlap two granules, as 32 do");
        assert_eq!((m.granule_color(0x1_0000), m.granule_color(0x1_0010), m.granule_color(0x1_0020)), (3, 3, 0));
        // A cursor 8 bytes into a granule: 16 bytes overlap two granules.
        let unaligned = m.recolor(0, &auth.set_addr(0x1_0008), 16, 4).unwrap();
        assert_eq!(unaligned, even, "16 bytes from a ragged cursor overlap two granules");
        assert_eq!((m.granule_color(0x1_0000), m.granule_color(0x1_0010), m.granule_color(0x1_0020)), (4, 4, 0));
        let one_byte = m.recolor(0, &auth.set_addr(0x1_001f), 1, 5).unwrap();
        assert_eq!((m.granule_color(0x1_0000), m.granule_color(0x1_0010)), (4, 5));
        assert!(one_byte < even);
    }

    #[test]
    fn a_range_that_ends_at_the_top_of_the_address_space_maps() {
        let mut m = Machine::new(1);
        let top = u64::MAX - PAGE_SIZE + 1;
        m.map_range(top - PAGE_SIZE, 2 * PAGE_SIZE, MapFlags::user_rw()).unwrap();
        assert!([top - PAGE_SIZE, top, u64::MAX].iter().all(|&a| m.page_generation(a).is_some()));
        let cap = Capability::new_root(top, PAGE_SIZE - 16, Perms::rw());
        m.store_cap(0, &cap, cap).unwrap();
        assert!(m.mem().phys().tag(top));
    }

    #[test]
    fn a_range_that_runs_past_the_top_of_the_address_space_is_refused_whole() {
        let mut m = Machine::new(1);
        let top = u64::MAX - PAGE_SIZE + 1;
        let writes = m.vm_stats().pte_writes;
        for (vaddr, len) in [(top, 2 * PAGE_SIZE), (top - PAGE_SIZE, 3 * PAGE_SIZE), (2 * PAGE_SIZE, top)] {
            assert_eq!(m.map_range(vaddr, len, MapFlags::user_rw()), Err(VmFault::NotMapped { vaddr }));
            assert!(m.page_generation(vaddr).is_none() && m.page_generation(top).is_none());
        }
        assert_eq!(m.vm_stats().pte_writes, writes, "a refused range changed a PTE");
    }

    #[test]
    fn revoke_granule_clears_tag_in_place() {
        let (mut m, heap) = setup();
        m.store_cap(0, &heap.set_addr(0x1_0000), heap).unwrap();
        m.revoke_granule(1, 0x1_0000);
        let (got, _) = m.load_cap(0, &heap.set_addr(0x1_0000)).unwrap();
        assert!(!got.is_tagged());
    }

    #[test]
    fn stale_generation_pages_shrink_as_visited() {
        let (mut m, heap) = setup();
        m.store_cap(0, &heap.set_addr(0x1_0000), heap).unwrap();
        m.flip_core_generations();
        let stale = m.stale_generation_pages();
        assert_eq!(stale.len(), 4);
        for p in &stale {
            m.set_page_generation(*p, m.space_generation());
        }
        assert!(m.stale_generation_pages().is_empty());
    }
}
