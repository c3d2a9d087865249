//! Model test of `PageMap` against `BTreeMap`: same answers to every
//! point operation, same ascending iteration, and host memory bounded by
//! the entries held rather than by the size of their keys.

use cheri_mem::PageMap;
use simtest::check::{vec_of, Gen, GenExt};
use simtest::{oneof, sim_assert_eq};
use std::collections::BTreeMap;

/// Page numbers the generated keys cluster around: the bottom of the
/// address space, a 4 GiB arena, a 4 PiB one, and the last page of all.
const ANCHORS: [u64; 4] = [0, 1 << 20, 1 << 40, u64::MAX / 4096];

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
}

/// Keys within ±1100 pages of an anchor: enough to straddle leaf (512)
/// and region boundaries while colliding often.
fn key() -> impl Gen<Value = u64> {
    (0usize..ANCHORS.len(), 0u64..1100).gmap(|(a, off)| {
        if a == ANCHORS.len() - 1 {
            ANCHORS[a] - off
        } else {
            ANCHORS[a] + off
        }
    })
}

fn op() -> impl Gen<Value = MapOp> {
    oneof![
        (key(), 0u32..1000).gmap(|(k, v)| MapOp::Insert(k, v)),
        key().gmap(MapOp::Remove),
        key().gmap(MapOp::Get),
    ]
}

simtest::props! {
    /// Every operation returns what a `BTreeMap` returns, and the two
    /// iterate identically after any op sequence.
    fn pagemap_agrees_with_btreemap(ops in vec_of(op(), 1..400)) {
        let mut map = PageMap::default();
        let mut model = BTreeMap::new();
        for &a in &ANCHORS {
            sim_assert_eq!(map.insert(a, 0), model.insert(a, 0));
        }
        for op in ops {
            match op {
                MapOp::Insert(k, v) => sim_assert_eq!(map.insert(k, v), model.insert(k, v)),
                MapOp::Remove(k) => sim_assert_eq!(map.remove(k), model.remove(&k)),
                MapOp::Get(k) => {
                    sim_assert_eq!(map.get(k), model.get(&k));
                    sim_assert_eq!(map.get_mut(k), model.get_mut(&k));
                    sim_assert_eq!(map.contains(k), model.contains_key(&k));
                }
            }
            sim_assert_eq!(map.len(), model.len());
        }
        let got: Vec<(u64, u32)> = map.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        sim_assert_eq!(got, want);
        // Never more leaves than entries, whatever the keys.
        simtest::sim_assert!(map.leaves() <= map.len());
    }
}

#[test]
fn far_apart_keys_cost_one_leaf_each() {
    let mut map = PageMap::default();
    for &a in &ANCHORS {
        map.insert(a, ());
    }
    assert_eq!(map.leaves(), ANCHORS.len(), "storage must not be sized by the largest key");
    // A dense 4 MiB run shares leaves: 512 pages apiece.
    for p in 0..1024 {
        map.insert((1 << 30) + p, ());
    }
    assert_eq!(map.leaves(), ANCHORS.len() + 2);
    for &a in &ANCHORS {
        map.remove(a);
    }
    assert_eq!(map.leaves(), 2, "emptied leaves are freed");
}
