//! Property tests for tagged physical memory: data/tag coherence under
//! arbitrary interleavings of reads, writes, and capability stores.

use cheri_cap::{Capability, Perms, CAP_SIZE};
use cheri_mem::{MemSystem, PhysMem, PAGE_SIZE};
use simtest::check::{vec_of, CaseResult, Gen, GenExt, Just};
use simtest::{oneof, sim_assert, sim_assert_eq};
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone)]
enum MemOp {
    WriteBytes { addr: u64, len: u8 },
    StoreCap { slot: u64, base: u64 },
    StoreUntagged { slot: u64 },
    ClearTag { slot: u64 },
    ReleasePage { page: u64 },
}

fn op_strategy() -> impl Gen<Value = MemOp> {
    oneof![
        (0u64..0x8000, 1u8..64).gmap(|(addr, len)| MemOp::WriteBytes { addr, len }),
        (0u64..0x800, 0x1000u64..0x9000).gmap(|(slot, base)| MemOp::StoreCap { slot, base }),
        (0u64..0x800).gmap(|slot| MemOp::StoreUntagged { slot }),
        (0u64..0x800).gmap(|slot| MemOp::ClearTag { slot }),
        (0u64..8).gmap(|page| MemOp::ReleasePage { page }),
    ]
}

/// One step against the byte-level model. Four pages, so whole-memory
/// comparisons after every step stay cheap and collisions are frequent.
#[derive(Debug, Clone)]
enum ByteOp {
    WriteBytes { addr: u64, data: Vec<u8> },
    StoreTagged { slot: u64, base: u64 },
    /// An untagged capability whose cursor is not zero: only the address
    /// survives the store, as the granule's first eight bytes.
    StoreUntagged { slot: u64, addr: u64 },
    StoreNull { slot: u64 },
    ClearTag { slot: u64 },
    ClearTagRange { addr: u64, len: u64 },
    Touch { page: u64 },
    ReleasePage { page: u64 },
    /// Drops the memory and starts a new one: whatever its frames held
    /// goes wherever dropped frames go, and must not come back.
    Rebuild,
}

const MODEL_PAGES: u64 = 4;
const MODEL_BYTES: u64 = MODEL_PAGES * PAGE_SIZE;
const MODEL_SLOTS: u64 = MODEL_BYTES / CAP_SIZE;

fn byte_op_strategy() -> impl Gen<Value = ByteOp> {
    oneof![
        1 => (0u64..MODEL_BYTES - 48, vec_of(0u8..=u8::MAX, 1..48))
            .gmap(|(addr, data)| ByteOp::WriteBytes { addr, data }),
        2 => (0u64..MODEL_SLOTS, 0x1000u64..0x9000).gmap(|(slot, base)| ByteOp::StoreTagged { slot, base }),
        1 => (0u64..MODEL_SLOTS, 1u64..=u64::MAX).gmap(|(slot, addr)| ByteOp::StoreUntagged { slot, addr }),
        1 => (0u64..MODEL_SLOTS).gmap(|slot| ByteOp::StoreNull { slot }),
        1 => (0u64..MODEL_SLOTS).gmap(|slot| ByteOp::ClearTag { slot }),
        1 => (0u64..MODEL_BYTES, 0u64..600).gmap(|(addr, len)| ByteOp::ClearTagRange { addr, len }),
        1 => (0u64..MODEL_PAGES).gmap(|page| ByteOp::Touch { page }),
        1 => (0u64..MODEL_PAGES).gmap(|page| ByteOp::ReleasePage { page }),
        1 => Just(ByteOp::Rebuild),
    ]
}

/// What a naive memory would hold: per granule its sixteen bytes and, if
/// its tag is set, the capability; plus the set of resident pages.
#[derive(Default)]
struct ByteModel {
    granules: HashMap<u64, ([u8; 16], Option<Capability>)>,
    resident: BTreeSet<u64>,
}

impl ByteModel {
    fn store(&mut self, a: u64, cap: Capability) {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&cap.addr().to_le_bytes());
        self.granules.insert(a, (bytes, cap.is_tagged().then_some(cap)));
        self.resident.insert(a / PAGE_SIZE);
    }

    fn clear_tags(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        for g in addr / CAP_SIZE..=(addr + len - 1) / CAP_SIZE {
            if let Some(e) = self.granules.get_mut(&(g * CAP_SIZE)) {
                e.1 = None;
            }
        }
    }

    /// Every observation the memory offers, against the model.
    fn check(&self, mem: &PhysMem) -> CaseResult {
        sim_assert_eq!(mem.resident_bytes(), self.resident.len() as u64 * PAGE_SIZE);
        let mut bytes = vec![0xeeu8; MODEL_BYTES as usize];
        mem.read_bytes(0, &mut bytes);
        for page in 0..MODEL_PAGES {
            let mut tagged = Vec::new();
            for a in (page * PAGE_SIZE..(page + 1) * PAGE_SIZE).step_by(CAP_SIZE as usize) {
                let (want, cap) = self.granules.get(&a).copied().unwrap_or(([0; 16], None));
                sim_assert_eq!(bytes[a as usize..a as usize + 16], want, "bytes at {:#x}", a);
                sim_assert_eq!(mem.tag(a), cap.is_some(), "tag at {:#x}", a);
                let residue = u64::from_le_bytes(want[..8].try_into().expect("eight bytes"));
                let loaded = cap.unwrap_or_else(|| Capability::null().set_addr(residue));
                sim_assert_eq!(mem.load_cap(a), loaded, "load_cap at {:#x}", a);
                tagged.extend(cap.map(|c| (a, c)));
            }
            sim_assert_eq!(mem.page_has_tags(page * PAGE_SIZE), !tagged.is_empty());
            let swept: Vec<_> = mem.tagged_caps_in_page(page * PAGE_SIZE).collect();
            sim_assert_eq!(swept, tagged, "tagged_caps_in_page {}", page);
        }
        // An unaligned read straddling two pages sees the same bytes.
        let mut window = [0u8; 40];
        mem.read_bytes(PAGE_SIZE - 19, &mut window);
        sim_assert_eq!(window[..], bytes[PAGE_SIZE as usize - 19..PAGE_SIZE as usize + 21]);
        Ok(())
    }
}

simtest::props! {
    /// Bytes, tags, capabilities, residues and residency agree with a
    /// naive per-granule model after every step of any interleaving —
    /// whether a page's bytes were ever written as bytes or only as
    /// capabilities, across page release and re-touch, and in a memory
    /// built after another was dropped.
    fn every_observation_follows_the_byte_model(ops in vec_of(byte_op_strategy(), 1..60)) {
        let mut mem = PhysMem::new();
        let mut model = ByteModel::default();
        for op in ops {
            match op {
                ByteOp::WriteBytes { addr, data } => {
                    mem.write_bytes(addr, &data);
                    for (i, &b) in data.iter().enumerate() {
                        let a = addr + i as u64;
                        let e = model.granules.entry(a / CAP_SIZE * CAP_SIZE).or_insert(([0; 16], None));
                        e.0[(a % CAP_SIZE) as usize] = b;
                        e.1 = None;
                        model.resident.insert(a / PAGE_SIZE);
                    }
                }
                ByteOp::StoreTagged { slot, base } => {
                    let cap = Capability::new_root(base, 64, Perms::rw()).set_addr(base + slot % 64);
                    mem.store_cap(slot * CAP_SIZE, cap);
                    model.store(slot * CAP_SIZE, cap);
                }
                ByteOp::StoreUntagged { slot, addr } => {
                    let cap = Capability::new_root(0x1000, 64, Perms::rw()).with_tag_cleared().set_addr(addr);
                    mem.store_cap(slot * CAP_SIZE, cap);
                    model.store(slot * CAP_SIZE, cap);
                }
                ByteOp::StoreNull { slot } => {
                    mem.store_cap(slot * CAP_SIZE, Capability::null());
                    model.store(slot * CAP_SIZE, Capability::null());
                }
                ByteOp::ClearTag { slot } => {
                    mem.clear_tag(slot * CAP_SIZE + slot % CAP_SIZE);
                    model.clear_tags(slot * CAP_SIZE, 1);
                }
                ByteOp::ClearTagRange { addr, len } => {
                    mem.clear_tag_range(addr, len);
                    model.clear_tags(addr, len);
                }
                ByteOp::Touch { page } => {
                    mem.materialize_page(page * PAGE_SIZE + 24);
                    model.resident.insert(page);
                }
                ByteOp::ReleasePage { page } => {
                    mem.release_page(page * PAGE_SIZE);
                    model.granules.retain(|&a, _| a / PAGE_SIZE != page);
                    model.resident.remove(&page);
                }
                ByteOp::Rebuild => {
                    mem = PhysMem::new();
                    model = ByteModel::default();
                }
            }
            model.check(&mem)?;
        }
    }

    /// A shadow model of tag state agrees with the memory after any op
    /// sequence: tags are set only by tagged capability stores and are
    /// cleared by data writes, untagged stores, clear_tag, and page
    /// release.
    fn tags_follow_the_shadow_model(ops in vec_of(op_strategy(), 1..120)) {
        let mut mem = PhysMem::new();
        let mut shadow: HashMap<u64, Option<Capability>> = HashMap::new();
        for op in ops {
            match op {
                MemOp::WriteBytes { addr, len } => {
                    mem.write_bytes(addr, &vec![0xabu8; len as usize]);
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
                MemOp::ReleasePage { page } => {
                    mem.release_page(page * PAGE_SIZE);
                    shadow.retain(|&a, _| a / PAGE_SIZE != page);
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

    /// Data written is data read back, across arbitrary page-crossing
    /// extents.
    fn data_roundtrip(addr in 0u64..0x10000, data in vec_of(0u8..=u8::MAX, 1..512)) {
        let mut mem = PhysMem::new();
        mem.write_bytes(addr, &data);
        let mut back = vec![0u8; data.len()];
        mem.read_bytes(addr, &mut back);
        sim_assert_eq!(back, data);
    }

    /// Residency accounting: resident bytes equal the number of distinct
    /// pages ever touched by a write (and peak never decreases).
    fn residency_counts_touched_pages(writes in vec_of((0u64..64, 1u8..255), 1..40)) {
        let mut mem = PhysMem::new();
        let mut pages = std::collections::HashSet::new();
        let mut last_peak = 0;
        for (page, byte) in writes {
            mem.write_bytes(page * PAGE_SIZE + 8, &[byte]);
            pages.insert(page);
            sim_assert_eq!(mem.resident_bytes(), pages.len() as u64 * PAGE_SIZE);
            sim_assert!(mem.peak_resident_bytes() >= last_peak);
            last_peak = mem.peak_resident_bytes();
        }
    }

    /// The cache hierarchy never changes what memory returns — only the
    /// traffic accounting differs between hot and cold accesses.
    fn caching_is_semantically_transparent(
        addrs in vec_of(0u64..0x4000, 1..60),
    ) {
        let mut sys = MemSystem::new(2);
        let cap = Capability::new_root(0x100, 32, Perms::rw());
        for (i, &a) in addrs.iter().enumerate() {
            let slot = (a / CAP_SIZE) * CAP_SIZE;
            sys.store_cap(i % 2, slot, cap);
            let (got, _) = sys.load_cap((i + 1) % 2, slot);
            sim_assert_eq!(got, cap);
        }
    }
}
