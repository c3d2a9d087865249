//! Property tests for tagged physical memory: tags, capabilities and
//! residues under arbitrary interleavings of data writes, capability
//! stores and tag clears.

use cheri_cap::{Capability, Perms, CAP_SIZE};
use cheri_mem::{PhysMem, GRANULES_PER_PAGE, PAGE_SIZE};
use simtest::check::{vec_of, CaseResult, Gen, GenExt, Just};
use simtest::{oneof, sim_assert, sim_assert_eq, Rng};
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone)]
enum MemOp {
    WriteData { addr: u64, len: u8 },
    StoreCap { slot: u64, base: u64 },
    StoreUntagged { slot: u64 },
    ClearTag { slot: u64 },
}

fn op_strategy() -> impl Gen<Value = MemOp> {
    oneof![
        (0u64..0x8000, 1u8..64).gmap(|(addr, len)| MemOp::WriteData { addr, len }),
        (0u64..0x800, 0x1000u64..0x9000).gmap(|(slot, base)| MemOp::StoreCap { slot, base }),
        (0u64..0x800).gmap(|slot| MemOp::StoreUntagged { slot }),
        (0u64..0x800).gmap(|slot| MemOp::ClearTag { slot }),
    ]
}

/// What `Machine::write_data` does to memory: it materializes every page
/// the write spans, then clears the tags of every granule it overlaps.
/// Memory holds no bytes, so nothing else changes.
fn write_data(mem: &mut PhysMem, addr: u64, len: u64) {
    for page in addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE {
        mem.materialize_page(page * PAGE_SIZE);
    }
    mem.clear_tag_range(addr, len);
}

/// One step against the per-granule capability model. Four pages, so
/// whole-memory comparisons after every step stay cheap and collisions
/// are frequent.
#[derive(Debug, Clone)]
enum CapOp {
    WriteData { addr: u64, len: u64 },
    StoreTagged { slot: u64, base: u64 },
    /// An untagged capability whose cursor is not zero: only the address
    /// survives the store, as the granule's residue.
    StoreUntagged { slot: u64, addr: u64 },
    StoreNull { slot: u64 },
    ClearTag { slot: u64 },
    ClearTagRange { addr: u64, len: u64 },
    Touch { page: u64 },
    /// Drops the memory and starts a new one: whatever its frames held
    /// goes wherever dropped frames go, and must not come back.
    Rebuild,
}

const MODEL_PAGES: u64 = 4;
const MODEL_BYTES: u64 = MODEL_PAGES * PAGE_SIZE;
const MODEL_SLOTS: u64 = MODEL_BYTES / CAP_SIZE;

fn cap_op_strategy() -> impl Gen<Value = CapOp> {
    oneof![
        1 => (0u64..MODEL_BYTES - 48, 1u64..48).gmap(|(addr, len)| CapOp::WriteData { addr, len }),
        2 => (0u64..MODEL_SLOTS, 0x1000u64..0x9000).gmap(|(slot, base)| CapOp::StoreTagged { slot, base }),
        1 => (0u64..MODEL_SLOTS, 1u64..=u64::MAX).gmap(|(slot, addr)| CapOp::StoreUntagged { slot, addr }),
        1 => (0u64..MODEL_SLOTS).gmap(|slot| CapOp::StoreNull { slot }),
        1 => (0u64..MODEL_SLOTS).gmap(|slot| CapOp::ClearTag { slot }),
        1 => (0u64..MODEL_BYTES, 0u64..600).gmap(|(addr, len)| CapOp::ClearTagRange { addr, len }),
        1 => (0u64..MODEL_PAGES).gmap(|page| CapOp::Touch { page }),
        1 => Just(CapOp::Rebuild),
    ]
}

/// What a naive memory would hold, per granule: the capability if its tag
/// is set, and the residue — the address of the last capability stored
/// there, which an untagged load sees. Plus the set of resident pages.
#[derive(Default)]
struct CapModel {
    granules: HashMap<u64, (Option<Capability>, u64)>,
    resident: BTreeSet<u64>,
}

impl CapModel {
    fn store(&mut self, a: u64, cap: Capability) {
        self.granules.insert(a, (cap.is_tagged().then_some(cap), cap.addr()));
        self.resident.insert(a / PAGE_SIZE);
    }

    fn clear_tags(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        for g in addr / CAP_SIZE..=(addr + len - 1) / CAP_SIZE {
            if let Some(e) = self.granules.get_mut(&(g * CAP_SIZE)) {
                e.0 = None;
            }
        }
    }

    /// Every observation the memory offers, against the model.
    fn check(&self, mem: &PhysMem) -> CaseResult {
        sim_assert_eq!(mem.resident_bytes(), self.resident.len() as u64 * PAGE_SIZE);
        for page in 0..MODEL_PAGES {
            let mut tagged = Vec::new();
            for a in (page * PAGE_SIZE..(page + 1) * PAGE_SIZE).step_by(CAP_SIZE as usize) {
                let (cap, residue) = self.granules.get(&a).copied().unwrap_or((None, 0));
                sim_assert_eq!(mem.tag(a), cap.is_some(), "tag at {:#x}", a);
                let loaded = cap.unwrap_or_else(|| Capability::null().set_addr(residue));
                sim_assert_eq!(mem.load_cap(a), loaded, "load_cap at {:#x}", a);
                tagged.extend(cap.map(|c| (a, c)));
            }
            sim_assert_eq!(mem.page_has_tags(page * PAGE_SIZE), !tagged.is_empty());
            let swept: Vec<_> = mem.tagged_caps_in_page(page * PAGE_SIZE).collect();
            sim_assert_eq!(swept, tagged, "tagged_caps_in_page {}", page);
        }
        Ok(())
    }
}

simtest::props! {
    /// Tags, capabilities, residues and residency agree with a naive
    /// per-granule capability model after every step of any interleaving
    /// of what simulated accesses do to memory — across re-touch, and in a
    /// memory built after another was dropped.
    fn every_observation_follows_the_byte_model(ops in vec_of(cap_op_strategy(), 1..60)) {
        let mut mem = PhysMem::new();
        let mut model = CapModel::default();
        for op in ops {
            match op {
                CapOp::WriteData { addr, len } => {
                    write_data(&mut mem, addr, len);
                    model.clear_tags(addr, len);
                    model.resident.extend(addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE);
                }
                CapOp::StoreTagged { slot, base } => {
                    let cap = Capability::new_root(base, 64, Perms::rw()).set_addr(base + slot % 64);
                    mem.store_cap(slot * CAP_SIZE, cap);
                    model.store(slot * CAP_SIZE, cap);
                }
                CapOp::StoreUntagged { slot, addr } => {
                    let cap = Capability::new_root(0x1000, 64, Perms::rw()).with_tag_cleared().set_addr(addr);
                    mem.store_cap(slot * CAP_SIZE, cap);
                    model.store(slot * CAP_SIZE, cap);
                }
                CapOp::StoreNull { slot } => {
                    mem.store_cap(slot * CAP_SIZE, Capability::null());
                    model.store(slot * CAP_SIZE, Capability::null());
                }
                CapOp::ClearTag { slot } => {
                    mem.clear_tag(slot * CAP_SIZE + slot % CAP_SIZE);
                    model.clear_tags(slot * CAP_SIZE, 1);
                }
                CapOp::ClearTagRange { addr, len } => {
                    mem.clear_tag_range(addr, len);
                    model.clear_tags(addr, len);
                }
                CapOp::Touch { page } => {
                    mem.materialize_page(page * PAGE_SIZE + 24);
                    model.resident.insert(page);
                }
                CapOp::Rebuild => {
                    mem = PhysMem::new();
                    model = CapModel::default();
                }
            }
            model.check(&mem)?;
        }
    }

    /// A page filled to its last granule agrees with the same model, in
    /// every phase of its life: all 256 granules stored in a shuffled
    /// order, re-stored (tagged, untagged or null) in another, tags
    /// cleared, re-touched and half-filled again, and the memory rebuilt.
    fn a_dense_page_follows_the_model(seed in 0u64..=u64::MAX, page in 0u64..MODEL_PAGES) {
        let mut rng = Rng::seed_from_u64(seed);
        let base = page * PAGE_SIZE;
        let mut order: Vec<u64> = (0..GRANULES_PER_PAGE as u64).collect();
        let mut mem = PhysMem::new();
        let mut model = CapModel::default();
        let store = |mem: &mut PhysMem, model: &mut CapModel, g: u64, cap: Capability| {
            mem.store_cap(base + g * CAP_SIZE, cap);
            model.store(base + g * CAP_SIZE, cap);
        };
        // Distinct per granule and per phase, so a misplaced entry shows.
        let tagged = |g: u64, phase: u64| {
            let root = 0x10_0000 * (phase + 1) + g * 0x100;
            Capability::new_root(root, 64, Perms::rw()).set_addr(root + g % 64)
        };
        rng.shuffle(&mut order);
        for &g in &order {
            store(&mut mem, &mut model, g, tagged(g, 0));
        }
        model.check(&mem)?;
        rng.shuffle(&mut order);
        for &g in &order {
            let cap = match rng.gen_range(0..3u8) {
                0 => tagged(g, 1),
                1 => tagged(g, 1).with_tag_cleared().set_addr(0xdead_0000 + g),
                _ => Capability::null(),
            };
            store(&mut mem, &mut model, g, cap);
        }
        model.check(&mem)?;
        let (from, len) = (rng.gen_range(0..PAGE_SIZE), rng.gen_range(1..PAGE_SIZE));
        mem.clear_tag_range(base + from, len);
        model.clear_tags(base + from, len);
        for _ in 0..16 {
            let a = base + rng.gen_range(0..PAGE_SIZE);
            mem.clear_tag(a);
            model.clear_tags(a, 1);
        }
        model.check(&mem)?;
        mem.materialize_page(base + rng.gen_range(0..PAGE_SIZE));
        model.resident.insert(page);
        model.check(&mem)?;
        rng.shuffle(&mut order);
        for &g in &order[..GRANULES_PER_PAGE / 2] {
            store(&mut mem, &mut model, g, tagged(g, 2));
        }
        model.check(&mem)?;
        mem = PhysMem::new();
        model = CapModel::default();
        for &g in &order[GRANULES_PER_PAGE / 2..] {
            store(&mut mem, &mut model, g, tagged(g, 3));
        }
        model.check(&mem)?;
    }

    /// A shadow model of tag state agrees with the memory after any op
    /// sequence: tags are set only by tagged capability stores and are
    /// cleared by data writes (materialize plus a ranged tag clear),
    /// untagged stores and clear_tag.
    fn tags_follow_the_shadow_model(ops in vec_of(op_strategy(), 1..120)) {
        let mut mem = PhysMem::new();
        let mut shadow: HashMap<u64, Option<Capability>> = HashMap::new();
        for op in ops {
            match op {
                MemOp::WriteData { addr, len } => {
                    write_data(&mut mem, addr, u64::from(len));
                    let first = addr / CAP_SIZE;
                    let last = (addr + len as u64 - 1) / CAP_SIZE;
                    for g in first..=last {
                        shadow.insert(g * CAP_SIZE, None);
                    }
                }
                MemOp::StoreCap { slot, base } => {
                    let a = slot * CAP_SIZE;
                    let cap = Capability::new_root(base, 64, Perms::rw());
                    mem.store_cap(a, cap);
                    shadow.insert(a, Some(cap));
                }
                MemOp::StoreUntagged { slot } => {
                    let a = slot * CAP_SIZE;
                    mem.store_cap(a, Capability::null());
                    shadow.insert(a, None);
                }
                MemOp::ClearTag { slot } => {
                    let a = slot * CAP_SIZE;
                    mem.clear_tag(a);
                    if let Some(e) = shadow.get_mut(&a) {
                        *e = None;
                    }
                }
            }
        }
        for (&addr, expected) in &shadow {
            match expected {
                Some(cap) => {
                    sim_assert!(mem.tag(addr), "tag lost at {addr:#x}");
                    sim_assert_eq!(mem.load_cap(addr), *cap);
                }
                None => sim_assert!(!mem.tag(addr), "phantom tag at {addr:#x}"),
            }
        }
        // The page enumeration agrees with the shadow's tagged set.
        for page in 0..8u64 {
            let base = page * PAGE_SIZE;
            let expected: usize = shadow
                .iter()
                .filter(|(&a, c)| a / PAGE_SIZE == page && c.is_some())
                .count();
            sim_assert_eq!(mem.tagged_caps_in_page(base).count(), expected, "page {}", page);
        }
    }

    /// Residency accounting: resident bytes equal the number of distinct
    /// pages ever materialized, wherever in the page, so they never
    /// decrease. A tag clear alone materializes nothing.
    fn residency_counts_touched_pages(writes in vec_of((0u64..64, 0u64..PAGE_SIZE), 1..40)) {
        let mut mem = PhysMem::new();
        let mut pages = std::collections::HashSet::new();
        let mut last = 0;
        for (page, offset) in writes {
            mem.clear_tag_range((page + 64) * PAGE_SIZE + offset, 2 * PAGE_SIZE);
            mem.materialize_page(page * PAGE_SIZE + offset);
            pages.insert(page);
            sim_assert_eq!(mem.resident_bytes(), pages.len() as u64 * PAGE_SIZE);
            sim_assert!(mem.resident_bytes() >= last);
            last = mem.resident_bytes();
        }
    }
}
