//! A fixed-seed hasher for the simulator's and the analyzer's id-keyed
//! tables.
//!
//! The default `HashMap` state is SipHash with a per-process random key:
//! slow for small-integer keys probed on every simulated op (the
//! simulator's live-object set and in-flight transaction table), and a
//! latent determinism hazard. This Fibonacci-multiply hasher is
//! fixed-seed and a handful of cycles. Use it only for maps that are
//! never iterated, or whose entries are sorted before any order is
//! observed (point lookups cannot see bucket order, nor can a walk that
//! removes every entry it visits, so the hash function cannot influence
//! results; the static analyzer sorts a free's dangling-link holders and
//! its far object ids before they reach a report); hash-flooding
//! resistance is irrelevant inside a simulator. Dense small ids are
//! better indexed than hashed: the analyzer's object table is a vector
//! by id, with one of these maps only for ids far past it. Anything keyed
//! by *page* belongs in [`crate::PageMap`] instead, which indexes rather
//! than hashes and iterates in page order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fixed-seed multiplicative hasher (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using the fixed-seed fast hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` using the fixed-seed fast hasher.
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearby_ids_spread_across_buckets() {
        // Consecutive ids must not collide in the low bits the table
        // actually uses.
        let low_bits: HashSet<u64> = (0..64u64)
            .map(|id| {
                let mut h = FastHasher::default();
                h.write_u64(id);
                h.finish() & 0x7f
            })
            .collect();
        assert!(low_bits.len() > 48, "only {} distinct buckets", low_bits.len());
    }

    #[test]
    fn map_roundtrips() {
        let mut m = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 3);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
    }
}
