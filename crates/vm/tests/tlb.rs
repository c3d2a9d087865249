//! Unit tests for the per-core TLBs.
//!
//! A TLB is a page-keyed table of PTE snapshots, flushed in O(1) by
//! bumping a stamp. Every invalidation edge — shootdown, remap,
//! generation flip — must reach it. These tests observe it
//! through architectural behavior (faults) and the `VmStats`
//! miss/shootdown counters, which would drift if a core were ever served
//! a translation that had been invalidated.

use cheri_cap::{Capability, Perms, CAP_SIZE};
use cheri_mem::PAGE_SIZE;
use cheri_vm::{Machine, MapFlags, VmFault};

const BASE: u64 = 0x10_0000;

fn setup(pages: u64) -> (Machine, Capability) {
    let mut m = Machine::new(2);
    m.map_range(BASE, pages * PAGE_SIZE, MapFlags::user_rw()).unwrap();
    (m, Capability::new_root(BASE, pages * PAGE_SIZE, Perms::rw()))
}

#[test]
fn same_page_streak_walks_once() {
    let (mut m, cap) = setup(1);
    for i in 0..32 {
        m.read_data(0, &cap.set_addr(BASE + i * 8), 8).unwrap();
    }
    assert_eq!(m.vm_stats().tlb_misses, 1, "streak must be served by the cached translation");
}

#[test]
fn shootdown_while_cached_forces_a_rewalk() {
    let (mut m, cap) = setup(1);
    m.read_data(0, &cap.set_addr(BASE), 8).unwrap();
    assert_eq!(m.vm_stats().tlb_misses, 1);
    let shootdowns_before = m.vm_stats().tlb_shootdowns;
    // Remapping the page invalidates every core's cached copy; the remap
    // is visible on the very next access.
    m.map_range(BASE, PAGE_SIZE, MapFlags::user_ro()).unwrap();
    assert_eq!(m.vm_stats().tlb_shootdowns, shootdowns_before + 1, "cached entry must be shot down");
    assert_eq!(
        m.write_data(0, &cap.set_addr(BASE), 8),
        Err(VmFault::ReadOnly { vaddr: BASE }),
        "stale writable translation must not survive the remap"
    );
    m.read_data(0, &cap.set_addr(BASE), 8).unwrap();
    assert_eq!(m.vm_stats().tlb_misses, 2, "post-shootdown access must re-walk");
}

#[test]
fn generation_flip_invalidates_cached_translations() {
    let (mut m, cap) = setup(1);
    let slot = cap.set_addr(BASE);
    let payload = cap.set_bounds(BASE, CAP_SIZE).unwrap();
    m.store_cap(0, &slot, payload).unwrap();
    m.load_cap(0, &slot).unwrap();
    let misses = m.vm_stats().tlb_misses;
    // Epoch start: only the in-core generation registers flip; the page's
    // PTE generation is now stale, so a tag-asserted load must trap even
    // though the translation sat in the TLB moments ago.
    m.flip_core_generations();
    assert_eq!(
        m.load_cap(0, &slot).map(|_| ()),
        Err(VmFault::CapLoadGeneration { vaddr: BASE }),
        "stale-generation load must trap, not be served from the TLB"
    );
    assert!(m.vm_stats().tlb_misses > misses, "the flip's IPI must flush cached translations");
    // Revoker visits the page: loads flow again.
    m.set_page_generation(BASE, m.space_generation());
    m.load_cap(0, &slot).unwrap();
}

#[test]
fn cores_cache_translations_independently() {
    let (mut m, cap) = setup(1);
    m.read_data(0, &cap.set_addr(BASE), 8).unwrap();
    assert_eq!(m.vm_stats().tlb_misses, 1);
    // Core 1's first touch is its own compulsory miss; core 0's cached
    // entry is not shared.
    m.read_data(1, &cap.set_addr(BASE), 8).unwrap();
    assert_eq!(m.vm_stats().tlb_misses, 2);
    // Further streaks on either core stay hit.
    m.read_data(0, &cap.set_addr(BASE + 64), 8).unwrap();
    m.read_data(1, &cap.set_addr(BASE + 64), 8).unwrap();
    assert_eq!(m.vm_stats().tlb_misses, 2);
}

#[test]
fn store_barrier_updates_only_the_storing_cores_tlb() {
    let (mut m, cap) = setup(1);
    let slot = cap.set_addr(BASE);
    let payload = cap.set_bounds(BASE, CAP_SIZE).unwrap();
    // Warm both cores' translations (capability-clean page).
    m.read_data(0, &slot, 8).unwrap();
    m.read_data(1, &slot, 8).unwrap();
    // First tagged store on core 0 fires the store barrier once; core 0's
    // cached PTE now carries CD, so a repeat store on core 0 must not fire
    // it again.
    m.store_cap(0, &slot, payload).unwrap();
    assert_eq!(m.vm_stats().cap_dirty_sets, 1);
    m.store_cap(0, &slot, payload).unwrap();
    assert_eq!(m.vm_stats().cap_dirty_sets, 1, "the local TLB entry must see CD set");
    // Core 1 still holds its stale capability-clean copy (the barrier's
    // A/D-bit-style update is local, §4.2) and redundantly re-fires.
    m.store_cap(1, &slot, payload).unwrap();
    assert_eq!(m.vm_stats().cap_dirty_sets, 2, "remote stale CD copies are tolerated");
}

#[test]
fn alternating_pages_never_rewalk() {
    // The TLB has no capacity or associativity to miss on: two pages
    // touched in turn (here 16 apart, a stride that aliased in the old
    // direct-mapped front) each walk once and never again.
    let pages = 64;
    let (mut m, cap) = setup(pages);
    let a = BASE;
    let b = BASE + 16 * PAGE_SIZE;
    m.read_data(0, &cap.set_addr(a), 8).unwrap();
    m.read_data(0, &cap.set_addr(b), 8).unwrap();
    assert_eq!(m.vm_stats().tlb_misses, 2);
    for _ in 0..8 {
        m.read_data(0, &cap.set_addr(a), 8).unwrap();
        m.read_data(0, &cap.set_addr(b), 8).unwrap();
    }
    assert_eq!(m.vm_stats().tlb_misses, 2, "cached pages must not cause spurious walks");
}

#[test]
fn entry_cached_two_flips_ago_is_never_served() {
    let (mut m, cap) = setup(1);
    let slot = cap.set_addr(BASE);
    let payload = cap.set_bounds(BASE, CAP_SIZE).unwrap();
    m.store_cap(0, &slot, payload).unwrap();
    m.load_cap(0, &slot).unwrap(); // cached: PTE generation == core generation
    // Epoch 1: flip, and the revoker visits the page. The visit writes the
    // PTE without a shootdown, so only the flip's flush can retire core
    // 0's snapshot.
    m.flip_core_generations();
    m.set_page_generation(BASE, m.space_generation());
    // Epoch 2: the one-bit core generation is back where it was when the
    // snapshot was taken. The snapshot would match it and let the load
    // through unswept; the page table says the page is stale.
    m.flip_core_generations();
    let misses = m.vm_stats().tlb_misses;
    assert_eq!(
        m.load_cap(0, &slot).map(|_| ()),
        Err(VmFault::CapLoadGeneration { vaddr: BASE }),
        "a translation from two flushes back aliased the current generation"
    );
    assert!(m.vm_stats().tlb_misses > misses, "the load must have walked the page table");
    // Entries filled after the flushes are served normally.
    m.set_page_generation(BASE, m.space_generation());
    m.load_cap(0, &slot).unwrap();
    let misses = m.vm_stats().tlb_misses;
    m.load_cap(0, &slot).unwrap();
    assert_eq!(m.vm_stats().tlb_misses, misses);
}
