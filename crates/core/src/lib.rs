//! Sweeping CHERI capability revocation — the paper's contribution.
//!
//! This crate is the in-kernel half of CHERI heap temporal safety (paper
//! §2.2, §3, §4): given a [`RevocationBitmap`] painted by user-space
//! allocators, a revocation **epoch** guarantees that every capability whose
//! base lies in memory marked *before* the epoch began has been expunged
//! from the process — heap memory, thread register files, and kernel
//! hoards — by the epoch's end.
//!
//! Four strategies are provided (all drop-in behind [`Revoker`]):
//!
//! | Strategy | Phases | Barrier used |
//! |---|---|---|
//! | [`Strategy::CheriVoke`] | one stop-the-world sweep | none (snapshot) |
//! | [`Strategy::Cornucopia`] | concurrent sweep + STW re-sweep of re-dirtied pages | per-page capability **store** barrier (§2.2.4) |
//! | [`Strategy::Reloaded`] | brief STW (flip generations, scan registers/hoards) + concurrent sweep with on-demand faults | per-page capability **load** barrier (§3.2, §4.1) |
//! | [`Strategy::PaintSync`] | none — quarantine bookkeeping only, **no temporal safety** | n/a |
//!
//! plus [`Strategy::CheriotFilter`], the CHERIoT-style non-trapping load
//! filter (§6.3), as an ablation.
//!
//! The revoker is a state machine driven by a simulator: the caller invokes
//! [`Revoker::start_epoch`] (synchronous STW work), then interleaves
//! application execution with [`Revoker::background_step`] and routes
//! [`cheri_vm::VmFault::CapLoadGeneration`] faults to
//! [`Revoker::handle_load_fault`]. All cycle costs are returned to the
//! caller for time accounting; all memory traffic is charged through the
//! [`cheri_vm::Machine`]'s cache model.
//!
//! # Example
//!
//! ```
//! use cheri_cap::{Capability, Perms};
//! use cheri_vm::{Machine, MapFlags};
//! use cornucopia::{Revoker, RevokerConfig, Strategy};
//!
//! let mut m = Machine::new(2);
//! m.map_range(0x4000_0000, 0x10000, MapFlags::user_rw()).unwrap();
//! let heap = Capability::new_root(0x4000_0000, 0x10000, Perms::rw());
//! let obj = heap.set_bounds(0x4000_1000, 64).unwrap();
//! // A stale pointer to `obj` sits in memory...
//! m.store_cap(0, &heap.set_addr(0x4000_0000), obj).unwrap();
//!
//! let mut rev = Revoker::new(
//!     RevokerConfig { strategy: Strategy::Reloaded, ..RevokerConfig::default() },
//!     0x4000_0000,
//!     0x10000,
//! );
//! // free(obj): the allocator paints its granules.
//! rev.paint(&mut m, 0, 0x4000_1000, 64);
//! // Run a full epoch to completion.
//! rev.start_epoch(&mut m);
//! while rev.is_revoking() {
//!     rev.background_step(&mut m, 100_000);
//! }
//! // The stale copy is gone.
//! let (stale, _) = m.load_cap(0, &heap.set_addr(0x4000_0000)).unwrap();
//! assert!(!stale.is_tagged());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod epoch;
mod hoards;
mod revoker;
mod worklist;

pub use bitmap::{RevocationBitmap, BITMAP_SUMMARY_VA_BASE, BITMAP_VA_BASE};
pub use epoch::EpochClock;
pub use hoards::{HoardKind, KernelHoards};
pub use revoker::{
    PhaseKind, PhaseRecord, PhaseRole, PteUpdateMode, RevStats, Revoker, RevokerConfig,
    RevokerEvent, StepOutcome, Strategy,
};
