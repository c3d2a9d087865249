//! `SnmallocLite`'s region table against a naive reference: the same
//! allocator with its bookkeeping kept in ordered maps (slab base ->
//! class, live small base -> class, live large base -> length), searched
//! on every op. Both are driven through one random stream of allocations,
//! frees, recycles and forged frees, and must agree on every result, every
//! returned capability and the live byte count after every op.

use cheri_alloc::{size_class_for, AllocError, FreedRegion, HeapLayout, SnmallocLite, LARGE_THRESHOLD};
use cheri_cap::{compress, Capability, Perms};
use cheri_mem::PAGE_SIZE;
use cheri_vm::Machine;
use simtest::check::{vec_of, Gen, GenExt, Just};
use simtest::{oneof, sim_assert_eq};
use std::collections::BTreeMap;

const SLAB_SIZE: u64 = 64 * 1024;

/// The allocator with one ordered map per question `free` asks.
struct Reference {
    root: Capability,
    bump: u64,
    end: u64,
    free_lists: Vec<Vec<u64>>,
    /// Slab base -> (class, object size).
    slabs: BTreeMap<u64, (usize, u64)>,
    /// Live small/medium object base -> class.
    live: BTreeMap<u64, usize>,
    /// Live large chunk base -> length.
    large_live: BTreeMap<u64, u64>,
    /// Recycled large chunks: length -> bases.
    large_free: BTreeMap<u64, Vec<u64>>,
    allocated_bytes: u64,
}

impl Reference {
    fn new(layout: HeapLayout) -> Self {
        Reference {
            root: Capability::new_root(layout.base, layout.malloc_len, Perms::rw()),
            bump: layout.base,
            end: layout.base + layout.malloc_len,
            free_lists: vec![Vec::new(); cheri_alloc::NUM_SIZE_CLASSES],
            slabs: BTreeMap::new(),
            live: BTreeMap::new(),
            large_live: BTreeMap::new(),
            large_free: BTreeMap::new(),
            allocated_bytes: 0,
        }
    }

    fn bump_take(&mut self, len: u64, align: u64) -> Result<u64, AllocError> {
        let base = self.bump.div_ceil(align) * align;
        let end = base.checked_add(len).filter(|&e| e <= self.end).ok_or(AllocError::OutOfMemory)?;
        self.bump = end;
        Ok(base)
    }

    fn alloc(&mut self, size: u64) -> Result<Capability, AllocError> {
        let (base, grant) = if let Some(c) = size_class_for(size) {
            if self.free_lists[c.index].is_empty() {
                let slab = self.bump_take(SLAB_SIZE, 1)?;
                self.slabs.insert(slab, (c.index, c.size));
                let objects = (0..SLAB_SIZE / c.size).rev().map(|i| slab + i * c.size);
                self.free_lists[c.index].extend(objects);
            }
            let base = self.free_lists[c.index].pop().unwrap();
            self.live.insert(base, c.index);
            (base, c.size)
        } else {
            let quantized = size.checked_next_multiple_of(16 * 1024).ok_or(AllocError::OutOfMemory)?;
            let len = compress::representable_length(quantized);
            if len < quantized {
                return Err(AllocError::OutOfMemory);
            }
            let reuse = self.large_free.range(len..=len.saturating_mul(2)).find(|(_, v)| !v.is_empty());
            let (base, len) = match reuse.map(|(&l, _)| l) {
                Some(l) => (self.large_free.get_mut(&l).unwrap().pop().unwrap(), l),
                None => {
                    let align = compress::representable_alignment(len).max(PAGE_SIZE);
                    (self.bump_take(len, align)?, len)
                }
            };
            self.large_live.insert(base, len);
            (base, len)
        };
        self.allocated_bytes += grant;
        Ok(self.root.set_bounds(base, size.max(1).min(grant)).unwrap())
    }

    fn free(&mut self, cap: Capability) -> Result<FreedRegion, AllocError> {
        if !cap.is_tagged() {
            return Err(AllocError::BadFree);
        }
        let base = cap.base();
        let (len, class) = if let Some(&class) = self.live.get(&base) {
            let (_, &(slab_class, size)) = self.slabs.range(..=base).next_back().unwrap();
            assert_eq!(slab_class, class);
            (size, Some(class))
        } else if let Some(&len) = self.large_live.get(&base) {
            (len, None)
        } else {
            return Err(AllocError::BadFree);
        };
        if cap.len() > len {
            return Err(AllocError::BadFree);
        }
        if class.is_some() {
            self.live.remove(&base);
        } else {
            self.large_live.remove(&base);
        }
        self.allocated_bytes -= len;
        Ok(FreedRegion { base, len, class })
    }

    fn recycle(&mut self, region: FreedRegion) {
        match region.class {
            Some(c) => self.free_lists[c].push(region.base),
            None => self.large_free.entry(region.len).or_default().push(region.base),
        }
    }
}

/// How a free's capability is derived from one the allocator returned.
#[derive(Debug, Clone)]
enum Forge {
    /// The capability itself: a double free once it has been freed, and a
    /// free of a recycled object once recycled but not reallocated.
    Same,
    /// The base moved up by this many bytes: an interior pointer, or a base
    /// inside a large chunk.
    Interior(u64),
    /// The bounds grown by this many bytes.
    Widened(u64),
    /// The bounds shrunk by this many bytes (to one byte at least).
    Narrowed(u64),
    Untagged,
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocates this size this many times.
    Alloc(u64, u32),
    /// Frees the live capability picked by this index, as returned.
    Free(usize),
    /// Recycles the freed region picked by this index.
    Recycle(usize),
    /// Frees a forgery of the returned capability picked by this index.
    Forged(usize, Forge),
    /// Frees a 16-byte capability at this offset from 1 MiB below the arena.
    Stray(u64),
}

fn size() -> impl Gen<Value = u64> {
    oneof![
        3 => 1u64..=128,
        3 => 129u64..=LARGE_THRESHOLD,
        // The 16th object of this class sits on its slab's last page.
        1 => Just(4096u64),
        1 => Just(LARGE_THRESHOLD),
        1 => Just(LARGE_THRESHOLD + 1),
        2 => LARGE_THRESHOLD + 2..400_000,
        1 => 400_000u64..2 << 20,
    ]
}

fn forge() -> impl Gen<Value = Forge> {
    oneof![
        2 => Just(Forge::Same),
        1 => (1u64..16).gmap(|k| Forge::Interior(k * 16)),
        1 => (1u64..300_000).gmap(Forge::Interior),
        1 => (1u64..32).gmap(|k| Forge::Interior(k * PAGE_SIZE)),
        1 => (1u64..8 << 20).gmap(Forge::Widened),
        1 => (1u64..64).gmap(Forge::Narrowed),
        1 => Just(Forge::Untagged),
    ]
}

fn op() -> impl Gen<Value = Op> {
    let pick = 0usize..=usize::MAX;
    oneof![
        5 => size().gmap(|size| Op::Alloc(size, 1)),
        1 => (size(), 2u32..20).gmap(|(size, times)| Op::Alloc(size, times)),
        4 => pick.clone().gmap(Op::Free),
        3 => pick.clone().gmap(Op::Recycle),
        4 => (pick, forge()).gmap(|(i, f)| Op::Forged(i, f)),
        1 => (0u64..8 << 20).gmap(Op::Stray),
    ]
}

simtest::props! {
    #![config(simtest::Config { cases: 64, ..Default::default() })]

    /// After every op the region table and the ordered-map reference
    /// return equal results and capabilities and count equal live bytes.
    fn region_table_matches_the_ordered_map_reference(ops in vec_of(op(), 1..160)) {
        let layout = HeapLayout::new(0x4000_0000, 8 << 20);
        let mut machine = Machine::new(1);
        let mut table = SnmallocLite::new(layout);
        let mut reference = Reference::new(layout);
        let mut live: Vec<Capability> = Vec::new();
        let mut returned: Vec<Capability> = Vec::new();
        let mut freed: Vec<FreedRegion> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let freeing = match op {
                Op::Alloc(size, times) => {
                    for _ in 0..times {
                        let got = table.alloc(&mut machine, 0, size).map(|a| a.cap);
                        sim_assert_eq!(got, reference.alloc(size), "step {step}: alloc({size})");
                        if let Ok(cap) = got {
                            live.push(cap);
                            returned.push(cap);
                        }
                    }
                    None
                }
                Op::Free(i) if !live.is_empty() => Some(live.swap_remove(i % live.len())),
                Op::Recycle(i) if !freed.is_empty() => {
                    let region = freed.swap_remove(i % freed.len());
                    table.recycle(region);
                    reference.recycle(region);
                    None
                }
                Op::Forged(i, ref forge) if !returned.is_empty() => {
                    let cap = returned[i % returned.len()];
                    Some(match *forge {
                        Forge::Same => cap,
                        Forge::Interior(by) => Capability::new_root(cap.base() + by, cap.len(), Perms::rw()),
                        Forge::Widened(by) => Capability::new_root(cap.base(), cap.len() + by, Perms::rw()),
                        Forge::Narrowed(by) => {
                            Capability::new_root(cap.base(), cap.len().saturating_sub(by).max(1), Perms::rw())
                        }
                        Forge::Untagged => cap.with_tag_cleared(),
                    })
                }
                Op::Stray(offset) => Some(Capability::new_root(layout.base - (1 << 20) + offset, 16, Perms::rw())),
                Op::Free(_) | Op::Recycle(_) | Op::Forged(..) => None,
            };
            if let Some(cap) = freeing {
                let got = table.free_lookup(cap);
                sim_assert_eq!(got, reference.free(cap), "step {step}: free({cap:?})");
                if let Ok(region) = got {
                    freed.push(region);
                }
            }
            sim_assert_eq!(table.allocated_bytes(), reference.allocated_bytes, "step {step}: {op:?}");
        }
    }
}
