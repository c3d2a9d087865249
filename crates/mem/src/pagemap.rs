//! A radix table keyed by page number — the simulator's one page directory
//! (PTEs, per-core TLBs, frame slots and the revoker's page sets all live
//! in one; see DESIGN.md, "Host performance architecture").
//!
//! A page number splits into a region (1 GiB of address space), a slot in
//! that region's 512-entry table, and a slot in a 512-entry leaf covering
//! one 2 MiB chunk. Regions sit in a short sorted vector — an arena spans
//! one or two — so a lookup is a search over a handful of keys plus two
//! direct indexes, whatever the map's size. A leaf exists only while its
//! chunk holds an entry and a region only while it holds a leaf, so host
//! memory is O(entries) for any 64-bit page number. Iteration ascends by
//! page number (the revoker's worklist deal order depends on it); nothing
//! hashes, so no layout detail can leak into simulated results.

/// Page-number bits resolved by a leaf, and by a region's table.
const BITS: u32 = 9;
const FANOUT: usize = 1 << BITS;

/// Splits a page number into (region, table slot, leaf slot).
#[inline]
fn split(page: u64) -> (u64, usize, usize) {
    (page >> (2 * BITS), (page >> BITS) as usize % FANOUT, page as usize % FANOUT)
}

/// One level of the table: [`Leaf`] or [`Table`].
#[derive(Debug, Clone)]
struct Node<T> {
    /// Occupied slots; the node is freed when this reaches zero.
    live: u32,
    slots: [Option<T>; FANOUT],
}

impl<T> Node<T> {
    fn empty() -> Box<Self> {
        Box::new(Node { live: 0, slots: std::array::from_fn(|_| None) })
    }
}

/// The entries of one 2 MiB chunk.
type Leaf<V> = Box<Node<V>>;
/// The leaves of one 1 GiB region.
type Table<V> = Box<Node<Leaf<V>>>;

/// A map from page number to `V` with O(1) point operations and
/// ascending iteration (see the module docs).
#[derive(Debug, Clone)]
pub struct PageMap<V> {
    /// `(region number, its table)` of every region holding a leaf, ascending.
    regions: Vec<(u64, Table<V>)>,
    len: usize,
}

impl<V> Default for PageMap<V> {
    fn default() -> Self {
        PageMap { regions: Vec::new(), len: 0 }
    }
}

impl<V> PageMap<V> {
    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated leaves: the map's host footprint in 2 MiB chunks.
    #[must_use]
    pub fn leaves(&self) -> usize {
        self.regions.iter().map(|(_, table)| table.live as usize).sum()
    }

    /// The entry for `page`, if present.
    #[must_use]
    #[inline]
    pub fn get(&self, page: u64) -> Option<&V> {
        let (region, t, l) = split(page);
        let r = self.regions.binary_search_by_key(&region, |r| r.0).ok()?;
        self.regions[r].1.slots[t].as_ref()?.slots[l].as_ref()
    }

    /// Mutable access to the entry for `page`, if present.
    #[inline]
    pub fn get_mut(&mut self, page: u64) -> Option<&mut V> {
        let (region, t, l) = split(page);
        let r = self.regions.binary_search_by_key(&region, |r| r.0).ok()?;
        self.regions[r].1.slots[t].as_mut()?.slots[l].as_mut()
    }

    /// Whether `page` has an entry.
    #[must_use]
    #[inline]
    pub fn contains(&self, page: u64) -> bool {
        self.get(page).is_some()
    }

    /// Sets the entry for `page`, returning the one it replaces.
    pub fn insert(&mut self, page: u64, value: V) -> Option<V> {
        let (region, t, l) = split(page);
        let r = self.regions.binary_search_by_key(&region, |r| r.0).unwrap_or_else(|at| {
            self.regions.insert(at, (region, Node::empty()));
            at
        });
        let table = &mut *self.regions[r].1;
        let leaf = table.slots[t].get_or_insert_with(|| {
            table.live += 1;
            Node::empty()
        });
        let old = leaf.slots[l].replace(value);
        if old.is_none() {
            leaf.live += 1;
            self.len += 1;
        }
        old
    }

    /// Removes and returns the entry for `page`, freeing the leaf (and
    /// region) it leaves empty.
    pub fn remove(&mut self, page: u64) -> Option<V> {
        let (region, t, l) = split(page);
        let r = self.regions.binary_search_by_key(&region, |r| r.0).ok()?;
        let table = &mut *self.regions[r].1;
        let leaf = table.slots[t].as_mut()?;
        let old = leaf.slots[l].take()?;
        self.len -= 1;
        leaf.live -= 1;
        if leaf.live == 0 {
            table.slots[t] = None;
            table.live -= 1;
            if table.live == 0 {
                self.regions.remove(r);
            }
        }
        Some(old)
    }

    /// All entries as `(page, value)`, ascending by page number.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.regions.iter().flat_map(|(region, table)| {
            let leaves = table.slots.iter().enumerate();
            leaves.filter_map(|(t, leaf)| Some((t, leaf.as_ref()?))).flat_map(move |(t, leaf)| {
                let base = (region << BITS | t as u64) << BITS;
                let slots = leaf.slots.iter().enumerate();
                slots.filter_map(move |(l, v)| Some((base | l as u64, v.as_ref()?)))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Behaviour against a `BTreeMap` model is in `tests/pagemap.rs`; this one
    // looks at the private region list.
    #[test]
    fn empty_leaves_and_regions_are_freed() {
        let mut m = PageMap::default();
        for p in 0..1024 {
            m.insert(p, ());
        }
        m.insert(1 << 30, ());
        assert_eq!(m.leaves(), 3);
        for p in 0..512 {
            m.remove(p);
        }
        assert_eq!(m.leaves(), 2);
        m.remove(1 << 30);
        assert_eq!((m.leaves(), m.regions.len(), m.len()), (1, 1, 512));
    }
}
