//! Reservation-backed `mmap`/`munmap` (paper §6.2).
//!
//! `snmalloc` never returns address space, but other `mmap` consumers do,
//! opening an inter-allocator UAF/UAR channel. The fix the paper describes
//! (implemented but not evaluated there) has two parts, both modelled here:
//!
//! 1. every `mmap` is backed by a **reservation** padded for CHERI bounds
//!    representability; partial `munmap`s become **guard mappings**, so
//!    holes can never be refilled by unrelated mappings;
//! 2. fully-unmapped reservations are **quarantined** — painted in the
//!    revocation bitmap and recycled only after a revocation pass.

use cheri_cap::{compress, Capability, Perms};
use cheri_mem::{CoreId, PAGE_SIZE};
use cheri_vm::{MapFlags, Machine, VmFault};
use cornucopia::{EpochClock, Revoker};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Reservation {
    len: u64,
    /// Pages still mapped (not yet replaced by guards).
    live_pages: u64,
}

#[derive(Debug, Clone, Copy)]
struct QuarantinedReservation {
    base: u64,
    len: u64,
    sealed_epoch: u64,
}

/// The `mmap` space: reservations, guard holes, and reservation quarantine.
#[derive(Debug)]
pub struct MmapSpace {
    base: u64,
    len: u64,
    bump: u64,
    reservations: BTreeMap<u64, Reservation>,
    quarantined: Vec<QuarantinedReservation>,
    free: Vec<(u64, u64)>,
}

impl MmapSpace {
    /// Creates an mmap space over `[base, base+len)` (page aligned).
    #[must_use]
    pub fn new(base: u64, len: u64) -> Self {
        assert_eq!(base % PAGE_SIZE, 0);
        assert_eq!(len % PAGE_SIZE, 0);
        MmapSpace { base, len, bump: base, reservations: BTreeMap::new(), quarantined: Vec::new(), free: Vec::new() }
    }

    /// Maps `len` bytes of anonymous memory, returning a bounded capability
    /// over a fresh (or recycled, post-revocation) reservation. The
    /// reservation is padded to CHERI representability; padding is guard-
    /// backed so it can never alias another mapping (footnote 26).
    /// A length whose rounding overflows the address space, like one the
    /// space cannot fit, is a [`VmFault::NotMapped`] at the bump pointer.
    pub fn mmap(&mut self, machine: &mut Machine, len: u64) -> Result<Capability, VmFault> {
        let exhausted = VmFault::NotMapped { vaddr: self.bump };
        let span = len.checked_next_multiple_of(PAGE_SIZE).ok_or(exhausted)?;
        let rlen = compress::representable_length(span);
        if rlen < span {
            return Err(exhausted);
        }
        let align = compress::representable_alignment(rlen).max(PAGE_SIZE);
        let base = self
            .free
            .iter()
            .position(|&(b, l)| l == rlen && b % align == 0)
            .map(|i| self.free.swap_remove(i).0)
            .map_or_else(
                || {
                    let b = self.bump.checked_next_multiple_of(align)?;
                    let end = b.checked_add(rlen).filter(|&end| end <= self.base + self.len)?;
                    self.bump = end;
                    Some(b)
                },
                Some,
            )
            .ok_or(exhausted)?;
        machine.map_range(base, span, MapFlags::user_rw())?;
        if rlen > span {
            machine.map_range(base + span, rlen - span, MapFlags::guard())?;
        }
        self.reservations.insert(base, Reservation { len: rlen, live_pages: span / PAGE_SIZE });
        let root = Capability::new_root(base, rlen, Perms::rw());
        Ok(root.set_bounds(base, len).expect("reservation sized for representability"))
    }

    /// Unmaps `[addr, addr+len)` (page aligned) within one reservation.
    /// The hole becomes a guard mapping; when the whole reservation is
    /// unmapped it enters quarantine: painted and recycled only after a
    /// revocation pass (call [`MmapSpace::poll_release`]).
    pub fn munmap(
        &mut self,
        machine: &mut Machine,
        revoker: &mut Revoker,
        core: CoreId,
        addr: u64,
        len: u64,
    ) -> Result<(), VmFault> {
        assert_eq!(addr % PAGE_SIZE, 0, "munmap: unaligned address");
        let span = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let (&rbase, resv) = self
            .reservations
            .range_mut(..=addr)
            .next_back()
            .filter(|(&b, r)| addr >= b && addr + span <= b + r.len)
            .ok_or(VmFault::NotMapped { vaddr: addr })?;
        // Guard the hole: subsequent access faults, and no later mmap can
        // land inside the reservation.
        let mut newly_guarded = 0;
        for page in (addr..addr + span).step_by(PAGE_SIZE as usize) {
            if machine.is_mapped(page) {
                newly_guarded += 1;
            }
        }
        machine.unmap_range(addr, span);
        machine.map_range(addr, span, MapFlags::guard())?;
        resv.live_pages = resv.live_pages.saturating_sub(newly_guarded);
        if resv.live_pages == 0 {
            let len = resv.len;
            self.reservations.remove(&rbase);
            revoker.paint(machine, core, rbase, len);
            self.quarantined.push(QuarantinedReservation { base: rbase, len, sealed_epoch: revoker.epoch() });
        }
        Ok(())
    }

    /// Unmaps `[addr, addr+len)` with **immediate** address-space reuse —
    /// the unsafe pre-reservation behaviour of a conventional `munmap`,
    /// used only for no-temporal-safety baseline runs.
    pub fn munmap_immediate(
        &mut self,
        machine: &mut Machine,
        addr: u64,
        len: u64,
    ) -> Result<(), VmFault> {
        assert_eq!(addr % PAGE_SIZE, 0, "munmap: unaligned address");
        let span = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let (&rbase, resv) = self
            .reservations
            .range_mut(..=addr)
            .next_back()
            .filter(|(&b, r)| addr >= b && addr + span <= b + r.len)
            .ok_or(VmFault::NotMapped { vaddr: addr })?;
        machine.unmap_range(addr, span);
        resv.live_pages = resv.live_pages.saturating_sub(span / PAGE_SIZE);
        if resv.live_pages == 0 {
            let rlen = resv.len;
            self.reservations.remove(&rbase);
            self.free.push((rbase, rlen));
        }
        Ok(())
    }

    /// Recycles quarantined reservations whose release epoch has passed:
    /// unpaints and returns their address space to the free pool.
    pub fn poll_release(&mut self, machine: &mut Machine, revoker: &mut Revoker, core: CoreId) {
        let epoch = revoker.epoch();
        let mut i = 0;
        while i < self.quarantined.len() {
            let q = self.quarantined[i];
            if epoch >= EpochClock::release_epoch(q.sealed_epoch) {
                revoker.unpaint(machine, core, q.base, q.len);
                machine.unmap_range(q.base, q.len); // drop the guards
                self.free.push((q.base, q.len));
                self.quarantined.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Bytes of address space currently quarantined.
    #[must_use]
    pub fn quarantined_bytes(&self) -> u64 {
        self.quarantined.iter().map(|q| q.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornucopia::{RevokerConfig, StepOutcome, Strategy};

    fn setup() -> (Machine, Revoker, MmapSpace) {
        let machine = Machine::new(2);
        let revoker = Revoker::new(
            RevokerConfig { strategy: Strategy::Reloaded, ..RevokerConfig::default() },
            0x4000_0000,
            64 << 20,
        );
        (machine, revoker, MmapSpace::new(0x4000_0000, 64 << 20))
    }

    fn drain(m: &mut Machine, rev: &mut Revoker) {
        rev.start_epoch(m);
        while rev.is_revoking() {
            if matches!(rev.background_step(m, 1_000_000), StepOutcome::NeedsFinalStw { .. }) {
                rev.finish_stw(m, 1);
            }
        }
    }

    #[test]
    fn an_mmap_whose_rounding_overflows_faults_instead_of_panicking() {
        let (mut m, _, mut sp) = setup();
        for len in [u64::MAX, u64::MAX - PAGE_SIZE + 1, u64::MAX - (1 << 40)] {
            assert!(matches!(sp.mmap(&mut m, len), Err(VmFault::NotMapped { .. })), "{len:#x}");
        }
        assert_eq!(sp.mmap(&mut m, 10_000).unwrap().len(), 10_000);
    }

    #[test]
    fn mmap_returns_usable_bounded_memory() {
        let (mut m, _, mut sp) = setup();
        let c = sp.mmap(&mut m, 10_000).unwrap();
        assert!(c.is_tagged());
        assert_eq!(c.len(), 10_000);
        m.write_data(0, &c, 10_000).unwrap();
        m.store_cap(0, &c, c).unwrap();
    }

    #[test]
    fn partial_munmap_leaves_guard_hole() {
        let (mut m, mut rev, mut sp) = setup();
        let c = sp.mmap(&mut m, 4 * PAGE_SIZE).unwrap();
        sp.munmap(&mut m, &mut rev, 0, c.base() + PAGE_SIZE, PAGE_SIZE).unwrap();
        // The hole faults; the rest still works.
        let hole = c.set_addr(c.base() + PAGE_SIZE);
        assert!(matches!(m.read_data(0, &hole, 8), Err(VmFault::NotMapped { .. })));
        assert!(m.read_data(0, &c, 8).is_ok());
        // The hole is NOT quarantined yet (reservation still live).
        assert_eq!(sp.quarantined_bytes(), 0);
        // A new mmap can never land in the hole.
        let d = sp.mmap(&mut m, PAGE_SIZE).unwrap();
        assert!(d.base() >= c.top() || d.top() <= c.base());
    }

    #[test]
    fn full_unmap_quarantines_reservation_until_revocation() {
        let (mut m, mut rev, mut sp) = setup();
        let c = sp.mmap(&mut m, 2 * PAGE_SIZE).unwrap();
        sp.munmap(&mut m, &mut rev, 0, c.base(), 2 * PAGE_SIZE).unwrap();
        assert!(sp.quarantined_bytes() > 0);
        assert!(rev.bitmap().probe(c.base()));
        // Before revocation: address space is not recycled.
        let d = sp.mmap(&mut m, 2 * PAGE_SIZE).unwrap();
        assert_ne!(d.base(), c.base());
        // After a pass: recycled.
        drain(&mut m, &mut rev);
        sp.poll_release(&mut m, &mut rev, 0);
        assert_eq!(sp.quarantined_bytes(), 0);
        let e = sp.mmap(&mut m, 2 * PAGE_SIZE).unwrap();
        assert_eq!(e.base(), c.base(), "reservation recycled post-revocation");
    }

    #[test]
    fn stale_cap_to_unmapped_reservation_is_revoked() {
        let (mut m, mut rev, mut sp) = setup();
        // A second mapping holds a stale pointer to the first.
        let keeper = sp.mmap(&mut m, PAGE_SIZE).unwrap();
        let victim = sp.mmap(&mut m, PAGE_SIZE).unwrap();
        m.store_cap(0, &keeper, victim).unwrap();
        sp.munmap(&mut m, &mut rev, 0, victim.base(), PAGE_SIZE).unwrap();
        drain(&mut m, &mut rev);
        let (stale, _) = m.load_cap(0, &keeper).unwrap();
        assert!(!stale.is_tagged(), "sweep must revoke caps to unmapped reservations");
    }
}
