//! The CHERI-enlightened user-space heap (paper §2.1, §5).
//!
//! Three pieces, mirroring the paper's evaluation stack:
//!
//! * [`SnmallocLite`] — a size-class slab allocator in the spirit of
//!   snmalloc (Liétar et al., ISMM'19), which CheriBSD's evaluation used
//!   via an `LD_PRELOAD` shim. It applies CHERI bounds (with
//!   representability padding) to every returned pointer.
//! * [`Mrs`] — a model of the *malloc revocation shim* (`mrs`): it
//!   interposes on `free`, paints the revocation bitmap, holds freed
//!   address space in **quarantine**, and triggers revocation when
//!   quarantine exceeds 1/4 of the total heap (equivalently 1/3 of the
//!   allocated heap), with an 8 MiB floor — the exact policy of §5's
//!   experiments (scaled). With [`MrsConfig::colors`] set it composes
//!   CHERI with memory colouring (§7.3): `free` recolours and recycles at
//!   once, and only regions out of colours are quarantined.
//!
//! There is no `mmap` path: §6.2's reservation-backed `munmap`, which the
//! paper implements but does not evaluate, is not modelled (DESIGN.md,
//! "Findings").
//!
//! # Example
//!
//! ```
//! use cheri_alloc::{HeapLayout, Mrs, MrsConfig};
//! use cheri_vm::Machine;
//! use cornucopia::{Revoker, RevokerConfig, Strategy};
//!
//! let mut machine = Machine::new(2);
//! let layout = HeapLayout::new(0x4000_0000, 64 << 20);
//! let mut revoker = Revoker::new(
//!     RevokerConfig { strategy: Strategy::Reloaded, ..RevokerConfig::default() },
//!     layout.base,
//!     layout.total_len,
//! );
//! let mut heap = Mrs::new(layout, MrsConfig::default());
//!
//! let p = heap.alloc(&mut machine, 0, 100).unwrap().cap;
//! assert!(p.is_tagged());
//! assert!(p.len() >= 100);
//! let effect = heap.free(&mut machine, &mut revoker, 0, p).unwrap();
//! // Freed memory sits in quarantine until an epoch completes.
//! assert!(heap.quarantine_bytes() > 0);
//! assert!(!effect.trigger_revocation); // far below the 8 MiB floor
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mrs;
mod size_class;
mod snmalloc;

pub use mrs::{AllocEvent, FreeEffect, Mrs, MrsConfig, MrsStats, RevocationReason};
pub use size_class::{size_class_for, SizeClass, LARGE_THRESHOLD, NUM_SIZE_CLASSES};
pub use snmalloc::{AllocError, Allocation, FreedRegion, SnmallocLite};

/// Address-space layout of the simulated process heap.
///
/// One contiguous arena, covered by one revocation bitmap. The malloc
/// region is its bottom three quarters; the top quarter is address space
/// that no allocator hands out. The revoker's bitmap spans the whole
/// arena, and every pinned simulated number depends on that span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapLayout {
    /// Arena base address.
    pub base: u64,
    /// Total arena length: the span the revoker's bitmap covers.
    pub total_len: u64,
    /// Length of the malloc region (from `base`).
    pub malloc_len: u64,
}

impl HeapLayout {
    /// Gives the bottom 3/4 of `total_len` to the malloc heap.
    ///
    /// # Panics
    ///
    /// Panics unless `base` and `total_len` are 64 KiB aligned.
    #[must_use]
    pub fn new(base: u64, total_len: u64) -> Self {
        assert_eq!(base % 0x1_0000, 0, "arena base must be 64 KiB aligned");
        assert_eq!(total_len % 0x1_0000, 0, "arena length must be 64 KiB aligned");
        let malloc_len = total_len / 4 * 3;
        HeapLayout { base, total_len, malloc_len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_splits_arena() {
        let l = HeapLayout::new(0x4000_0000, 64 << 20);
        assert_eq!((l.base, l.total_len, l.malloc_len), (0x4000_0000, 64 << 20, 48 << 20));
        assert_eq!(l.malloc_len % 0x1_0000, 0);
    }
}
