//! Virtual memory with capability load barriers (paper §4.1–4.2).
//!
//! This crate models the architectural feature Cornucopia Reloaded depends
//! on, as added to Morello and CHERI-RISC-V for the paper:
//!
//! * **Per-PTE capability load generations** (§4.1): each PTE carries a
//!   generation bit that is compared against a per-core control register on
//!   every *tag-asserted* capability load. A mismatch traps. Revocation
//!   begins by flipping only the in-core bits — a fast global enablement —
//!   and ends when every PTE has been visited and updated, so PTEs are
//!   written once per epoch instead of twice.
//! * **Per-PTE capability-dirty tracking** (§4.2, §2.2.4): hardware sets a
//!   CD bit on the first tagged capability store to a page, the store
//!   barrier Cornucopia uses to find pages to (re)visit.
//!
//! The [`Machine`] couples the MMU with [`cheri_mem::MemSystem`], per-core
//! TLBs, and per-thread register files; it is the "hardware + pmap layer"
//! that the revoker in the `cornucopia` crate drives.
//!
//! # Example
//!
//! ```
//! use cheri_cap::{Capability, Perms};
//! use cheri_vm::{Machine, MapFlags, VmFault};
//!
//! let mut m = Machine::new(2);
//! m.map_range(0x1_0000, 0x2000, MapFlags::user_rw()).unwrap();
//! let heap = Capability::new_root(0x1_0000, 0x2000, Perms::rw());
//!
//! // Store a capability, then flip the core generation: the next load traps.
//! m.store_cap(0, &heap.set_addr(0x1_0000), heap).unwrap();
//! assert!(m.load_cap(0, &heap.set_addr(0x1_0000)).is_ok());
//! m.flip_core_generations();
//! match m.load_cap(0, &heap.set_addr(0x1_0000)) {
//!     Err(VmFault::CapLoadGeneration { vaddr }) => assert_eq!(vaddr, 0x1_0000),
//!     other => panic!("expected a load-generation fault, got {other:?}"),
//! }
//! // The revoker visits the page and updates its PTE; loads flow again.
//! let gen = m.core_generation(0);
//! m.set_page_generation(0x1_0000, gen);
//! assert!(m.load_cap(0, &heap.set_addr(0x1_0000)).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod pte;

pub use machine::{Machine, RegisterFile, ThreadId, VmEvent, VmStats, NUM_REGS};
pub use pte::{MapFlags, Pte};

use core::fmt;

/// Faults delivered by the simulated MMU / capability hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmFault {
    /// The authorizing capability failed its architectural checks
    /// (untagged, out of bounds, or missing permissions). Fail-stop.
    Capability(cheri_cap::CapError),
    /// No mapping at `vaddr`.
    NotMapped {
        /// Faulting virtual address.
        vaddr: u64,
    },
    /// The page is mapped read-only and a write was attempted.
    ReadOnly {
        /// Faulting virtual address.
        vaddr: u64,
    },
    /// Capability stores are disallowed on this mapping (e.g. shared file
    /// mappings; paper footnote 13).
    CapStoreDisallowed {
        /// Faulting virtual address.
        vaddr: u64,
    },
    /// A tag-asserted capability load hit a PTE whose load generation does
    /// not match the core's — the Reloaded load barrier (paper §4.1).
    CapLoadGeneration {
        /// Faulting virtual address (of the loaded granule).
        vaddr: u64,
    },
    /// The authorizing capability's color does not match the memory's
    /// (paper §7.3). Loads fail-stop; stores are silently discarded and do
    /// not raise this.
    ColorMismatch {
        /// Faulting virtual address.
        vaddr: u64,
    },
}

impl fmt::Display for VmFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmFault::Capability(e) => write!(f, "capability fault: {e}"),
            VmFault::NotMapped { vaddr } => write!(f, "no mapping at {vaddr:#x}"),
            VmFault::ReadOnly { vaddr } => write!(f, "write to read-only page at {vaddr:#x}"),
            VmFault::CapStoreDisallowed { vaddr } => {
                write!(f, "capability store disallowed at {vaddr:#x}")
            }
            VmFault::CapLoadGeneration { vaddr } => {
                write!(f, "capability load generation mismatch at {vaddr:#x}")
            }
            VmFault::ColorMismatch { vaddr } => {
                write!(f, "memory color mismatch at {vaddr:#x}")
            }
        }
    }
}

impl std::error::Error for VmFault {}

impl From<cheri_cap::CapError> for VmFault {
    fn from(e: cheri_cap::CapError) -> Self {
        VmFault::Capability(e)
    }
}
