//! The malloc revocation shim (`mrs`, paper §5).
//!
//! `mrs` interposes between the application and [`SnmallocLite`]:
//!
//! * `free` paints the object's granules in the revocation bitmap and
//!   appends the region to the **accumulating quarantine buffer**;
//! * when quarantine exceeds the policy bound — 1/4 of the total heap,
//!   i.e. 1/3 of the allocated heap, with an 8 MiB (scaled) floor — and no
//!   pass is in flight, it asks for a revocation pass;
//! * the quarantine is double-buffered: frees continue into a fresh buffer
//!   while sealed buffers wait out their release epochs (§2.2.3);
//! * if the accumulating buffer *also* exceeds policy while a pass is in
//!   flight, allocation blocks until the pass completes (the §5.3
//!   tail-latency pathology).
//!
//! **Colour mode** (§7.3, [`MrsConfig::colors`] > 0) composes CHERI with
//! memory colouring: each allocation's capability carries its storage's
//! colour, and `free` recolours the storage and recycles it at once, so
//! every stale copy dies at free time (loads trap, stores are discarded)
//! and quarantine pressure falls by roughly the colour count. Only a
//! region that has used all its colours enters the quarantine above; its
//! release resets it to colour 0.

use crate::snmalloc::{AllocError, Allocation, FreedRegion, SnmallocLite};
use crate::HeapLayout;
use cheri_cap::{Capability, Perms};
use cheri_mem::{CoreId, FastMap};
use cheri_vm::Machine;
use cornucopia::{EpochClock, Revoker};
use std::collections::VecDeque;

/// Quarantine policy knobs (paper §5 defaults, §7.2 tuning surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrsConfig {
    /// Trigger revocation when quarantine exceeds `allocated / divisor`
    /// (the paper's policy: divisor 3 ⇒ 1/3 of allocated = 1/4 of total).
    pub quarantine_divisor: u64,
    /// Do not trigger below this many quarantined bytes (paper: 8 MiB;
    /// scale it with the workload's memory scale).
    pub min_quarantine_bytes: u64,
    /// Memory colours per region (§7.3): 0 is plain quarantine, 2..=16
    /// enables colour mode (the paper imagines ~16 from a 4-bit tag).
    pub colors: u8,
}

impl Default for MrsConfig {
    fn default() -> Self {
        MrsConfig {
            quarantine_divisor: 3,
            min_quarantine_bytes: 8 << 20,
            colors: 0,
        }
    }
}

/// Why a revocation pass was requested — the tag on
/// [`AllocEvent::RevocationRequested`], so the telemetry journal can
/// distinguish the free-path policy trigger from the simulator's forced
/// paths (which [`MrsStats::revocations_requested`] has always counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RevocationReason {
    /// The free path crossed the quarantine policy bound.
    FreePolicy,
    /// Allocation hit out-of-memory and forced quarantine turnover.
    OomForced,
    /// An external driver sealed the buffer directly (tests, Paint+sync
    /// pseudo-passes).
    External,
}

impl RevocationReason {
    /// Stable label used in exported telemetry documents.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RevocationReason::FreePolicy => "free_policy",
            RevocationReason::OomForced => "oom_forced",
            RevocationReason::External => "external",
        }
    }
}

/// Statistics the evaluation reports (Table 2 and Figure 3 inputs).
#[derive(Debug, Default, Clone, Copy)]
pub struct MrsStats {
    /// Total bytes passed through `free` (Table 2 "Sum Freed").
    pub total_freed_bytes: u64,
    /// Number of revocation requests made (Table 2 "Revocations").
    pub revocations_requested: u64,
    /// Sum of allocated-heap sizes sampled at each revocation request
    /// (Table 2 "Mean Alloc" numerator).
    pub allocated_at_revocation_sum: u64,
    /// Sum of quarantine sizes sampled at each revocation request.
    pub quarantine_at_revocation_sum: u64,
    /// Number of `free` calls.
    pub frees: u64,
    /// Number of allocations.
    pub allocs: u64,
    /// Times allocation had to block on an in-flight pass.
    pub blocked_allocs: u64,
    /// Frees recycled at once under a fresh colour (colour mode; the
    /// other `frees` had exhausted their region's colours).
    pub recolored_frees: u64,
}

/// A typed allocator event, recorded (when event recording is enabled)
/// for the telemetry layer. Untimestamped: the driving simulator owns the
/// wall clock and stamps events as it drains the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocEvent {
    /// A revocation pass was requested (every [`Mrs::seal_for`] caller
    /// emits one, so the journal count always equals
    /// [`MrsStats::revocations_requested`]).
    RevocationRequested {
        /// Why the pass was requested.
        reason: RevocationReason,
        /// Live heap bytes at the request.
        allocated_bytes: u64,
        /// Total quarantined bytes at the request.
        quarantine_bytes: u64,
    },
    /// The open quarantine buffer was sealed against an epoch.
    BatchSealed {
        /// Bytes in the sealed batch.
        bytes: u64,
        /// Epoch counter observed at sealing.
        epoch: u64,
    },
    /// A sealed batch passed its release epoch and was recycled.
    BatchReleased {
        /// Bytes returned to the allocator's free lists.
        bytes: u64,
        /// Epoch the batch had been sealed against.
        sealed_epoch: u64,
    },
}

/// Effect of a `free` call, surfaced to the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreeEffect {
    /// Cycles spent in the shim (painting + bookkeeping).
    pub cycles: u64,
    /// The shim wants a revocation pass started now.
    pub trigger_revocation: bool,
}

#[derive(Debug)]
struct SealedBatch {
    regions: Vec<FreedRegion>,
    bytes: u64,
    /// Epoch counter observed when the batch was sealed; reusable at
    /// [`EpochClock::release_epoch`] of this.
    sealed_epoch: u64,
}

/// The quarantining heap: [`SnmallocLite`] + quarantine + policy.
#[derive(Debug)]
pub struct Mrs {
    alloc: SnmallocLite,
    cfg: MrsConfig,
    /// Accumulating (open) quarantine buffer.
    open: Vec<FreedRegion>,
    open_bytes: u64,
    /// Sealed buffers awaiting their release epoch.
    sealed: VecDeque<SealedBatch>,
    sealed_bytes: u64,
    stats: MrsStats,
    /// Whether allocator events are appended to `events` (off by default).
    log_events: bool,
    events: Vec<AllocEvent>,
    /// Colour mode: the allocator-private authority to recolour the heap.
    recolor_root: Capability,
    /// Colour mode: the current colour of each region (absent = 0).
    region_colors: FastMap<u64, u8>,
}

impl Mrs {
    /// Creates the shimmed heap over `layout`.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.colors` is 0 or in `2..=16`.
    #[must_use]
    pub fn new(layout: HeapLayout, cfg: MrsConfig) -> Self {
        assert!(
            cfg.colors == 0 || (2..=16).contains(&cfg.colors),
            "colors must be 0 or in 2..=16"
        );
        let mut alloc = SnmallocLite::new(layout);
        // In colour mode zeroing must go through a matching-colour
        // capability, so the shim takes it over from the allocator.
        alloc.set_zero_on_reuse(cfg.colors == 0);
        Mrs {
            alloc,
            cfg,
            open: Vec::new(),
            open_bytes: 0,
            sealed: VecDeque::new(),
            sealed_bytes: 0,
            stats: MrsStats::default(),
            log_events: false,
            events: Vec::new(),
            recolor_root: Capability::new_root(
                layout.base,
                layout.malloc_len,
                Perms::rw() | Perms::RECOLOR,
            ),
            region_colors: FastMap::default(),
        }
    }

    /// Enables or disables allocator event recording. Disabled (the
    /// default), the shim never touches its event buffer; simulated
    /// counters are identical either way.
    pub fn set_event_recording(&mut self, on: bool) {
        self.log_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// Drains the recorded events, oldest first, clearing the internal log.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, AllocEvent> {
        self.events.drain(..)
    }

    /// Live heap bytes.
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.alloc.allocated_bytes()
    }

    /// Total quarantined bytes (open + sealed buffers).
    #[must_use]
    pub fn quarantine_bytes(&self) -> u64 {
        self.open_bytes + self.sealed_bytes
    }

    /// Shim statistics.
    #[must_use]
    pub fn stats(&self) -> MrsStats {
        self.stats
    }

    /// The policy bound above which the open buffer requests revocation.
    #[must_use]
    pub fn policy_bound(&self) -> u64 {
        (self.alloc.allocated_bytes() / self.cfg.quarantine_divisor).max(self.cfg.min_quarantine_bytes)
    }

    /// Whether allocation must block right now: the *accumulating* (open)
    /// buffer has itself exceeded the policy bound while a pass is still
    /// in flight, i.e. the application freed a whole quarantine's worth of
    /// memory faster than the revoker could finish one pass (§5.3's
    /// 99.9th-percentile pathology). Sealed batches merely waiting out
    /// their release epochs do not count: they are the double-buffering
    /// steady state, not backpressure.
    #[must_use]
    pub fn must_block(&self, revoker: &Revoker) -> bool {
        revoker.is_revoking() && self.open_bytes > self.policy_bound()
    }

    /// Allocates `size` bytes. In colour mode the capability carries its
    /// storage's current colour and no RECOLOR authority.
    pub fn alloc(&mut self, machine: &mut Machine, core: CoreId, size: u64) -> Result<Allocation, AllocError> {
        self.stats.allocs += 1;
        let inner = self.alloc.alloc(machine, core, size)?;
        if self.cfg.colors == 0 {
            return Ok(inner);
        }
        let (base, len) = (inner.cap.base(), inner.cap.len());
        let color = self.region_colors.get(&base).copied().unwrap_or(0);
        let cap =
            self.recolor_authority(base, len).with_color_sealed(color).expect("shim root holds RECOLOR");
        // Deferred zeroing, through the matching-colour view.
        let zeroing = machine.write_data(core, &cap, len).expect("heap is mapped writable");
        Ok(Allocation { cap, cycles: inner.cycles + zeroing })
    }

    /// Frees `cap`: paints the bitmap, quarantines the region, and reports
    /// whether policy wants a revocation pass. In colour mode a stale
    /// (previous-colour) `cap` is a [`AllocError::BadFree`], and a region
    /// with colours left is recoloured and recycled at once instead — the
    /// caller's capability, and every copy of it, is already dead.
    pub fn free(
        &mut self,
        machine: &mut Machine,
        revoker: &mut Revoker,
        core: CoreId,
        cap: Capability,
    ) -> Result<FreeEffect, AllocError> {
        if self.cfg.colors > 0 {
            if let Some(cycles) = self.recycle_recolored(machine, core, cap)? {
                return Ok(FreeEffect { cycles, trigger_revocation: false });
            }
        }
        let region = self.alloc.free_lookup(cap)?;
        self.stats.frees += 1;
        self.stats.total_freed_bytes += region.len;
        let mut cycles = 40;
        cycles += revoker.paint(machine, core, region.base, region.len);
        self.open.push(region);
        self.open_bytes += region.len;
        let mut trigger = false;
        if !revoker.is_revoking() && self.quarantine_bytes() > self.policy_bound() {
            trigger = true;
            self.seal_for(revoker, RevocationReason::FreePolicy);
        }
        Ok(FreeEffect { cycles, trigger_revocation: trigger })
    }

    /// Colour mode's half of `free`: rejects a stale `cap`, and if its
    /// region has colours left, recolours and recycles it, returning the
    /// cycles. `None` means the colours ran out: quarantine it.
    fn recycle_recolored(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        cap: Capability,
    ) -> Result<Option<u64>, AllocError> {
        let current = self.region_colors.get(&cap.base()).copied().unwrap_or(0);
        if cap.color() != current {
            // A stale capability: a double free through a dangling copy.
            return Err(AllocError::BadFree);
        }
        let next = current + 1;
        if next == self.cfg.colors {
            return Ok(None);
        }
        let region = self.alloc.free_lookup(cap)?;
        let auth = self.recolor_authority(region.base, region.len);
        let cycles = 40 + machine.recolor(core, &auth, region.len, next).expect("heap is mapped writable");
        self.stats.frees += 1;
        self.stats.total_freed_bytes += region.len;
        self.stats.recolored_frees += 1;
        self.region_colors.insert(region.base, next);
        self.alloc.recycle(region);
        Ok(Some(cycles))
    }

    /// The shim's RECOLOR authority over `[base, base + len)`.
    fn recolor_authority(&self, base: u64, len: u64) -> Capability {
        self.recolor_root.set_bounds(base, len).expect("region within heap")
    }

    /// Frees `cap` with immediate reuse — **no quarantine, no painting, no
    /// temporal safety**. This is the no-revocation baseline configuration
    /// (plain snmalloc without mrs). Returns the cycle cost.
    pub fn free_immediate(
        &mut self,
        _machine: &mut Machine,
        _core: CoreId,
        cap: Capability,
    ) -> Result<u64, AllocError> {
        let region = self.alloc.free_lookup(cap)?;
        self.stats.frees += 1;
        self.stats.total_freed_bytes += region.len;
        self.alloc.recycle(region);
        Ok(40)
    }

    /// Seals the open buffer against the current epoch (called when a
    /// revocation pass is about to start). Public so external drivers
    /// (e.g. a Paint+sync pseudo-pass) can cycle quarantine too.
    /// Equivalent to [`Mrs::seal_for`] with
    /// [`RevocationReason::External`].
    pub fn seal(&mut self, revoker: &Revoker) {
        self.seal_for(revoker, RevocationReason::External);
    }

    /// Seals the open buffer, tagging the journal entry with why the pass
    /// was requested. Statistics and the (optional) event journal move in
    /// lockstep: every seal of a non-empty buffer bumps
    /// [`MrsStats::revocations_requested`] *and* emits
    /// [`AllocEvent::RevocationRequested`] followed by
    /// [`AllocEvent::BatchSealed`].
    pub fn seal_for(&mut self, revoker: &Revoker, reason: RevocationReason) {
        if self.open.is_empty() {
            return;
        }
        self.stats.revocations_requested += 1;
        self.stats.allocated_at_revocation_sum += self.alloc.allocated_bytes();
        self.stats.quarantine_at_revocation_sum += self.quarantine_bytes();
        if self.log_events {
            self.events.push(AllocEvent::RevocationRequested {
                reason,
                allocated_bytes: self.alloc.allocated_bytes(),
                quarantine_bytes: self.quarantine_bytes(),
            });
        }
        let batch = SealedBatch {
            regions: std::mem::take(&mut self.open),
            bytes: std::mem::take(&mut self.open_bytes),
            sealed_epoch: revoker.epoch(),
        };
        if self.log_events {
            self.events.push(AllocEvent::BatchSealed { bytes: batch.bytes, epoch: batch.sealed_epoch });
        }
        self.sealed_bytes += batch.bytes;
        self.sealed.push_back(batch);
    }

    /// Releases every sealed batch whose release epoch has passed:
    /// unpaints the bitmap and recycles storage to the allocator's free
    /// lists. Returns the cycle cost. Call after epochs advance.
    pub fn poll_release(&mut self, machine: &mut Machine, revoker: &mut Revoker, core: CoreId) -> u64 {
        let mut cycles = 0;
        while let Some(front) = self.sealed.front() {
            if revoker.epoch() < EpochClock::release_epoch(front.sealed_epoch) {
                break;
            }
            let batch = self.sealed.pop_front().expect("front exists");
            self.sealed_bytes -= batch.bytes;
            if self.log_events {
                self.events.push(AllocEvent::BatchReleased {
                    bytes: batch.bytes,
                    sealed_epoch: batch.sealed_epoch,
                });
            }
            for region in batch.regions {
                cycles += revoker.unpaint(machine, core, region.base, region.len);
                cycles += 20;
                if self.cfg.colors > 0 {
                    // The pass killed every holder: the colour cycle restarts.
                    let auth = self.recolor_authority(region.base, region.len);
                    cycles += machine.recolor(core, &auth, region.len, 0).expect("heap is mapped writable");
                    self.region_colors.remove(&region.base);
                }
                self.alloc.recycle(region);
            }
        }
        cycles
    }

    /// Notes that an allocation blocked on revocation (for statistics).
    pub fn note_blocked_alloc(&mut self) {
        self.stats.blocked_allocs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornucopia::{RevokerConfig, StepOutcome, Strategy};

    fn setup_with(strategy: Strategy, cfg: MrsConfig) -> (Machine, Revoker, Mrs) {
        let layout = HeapLayout::new(0x4000_0000, 64 << 20);
        let machine = Machine::new(2);
        let revoker = Revoker::new(
            RevokerConfig { strategy, ..RevokerConfig::default() },
            layout.base,
            layout.total_len,
        );
        (machine, revoker, Mrs::new(layout, cfg))
    }

    fn setup(strategy: Strategy, min_q: u64) -> (Machine, Revoker, Mrs) {
        setup_with(strategy, MrsConfig { min_quarantine_bytes: min_q, ..MrsConfig::default() })
    }

    /// A colour-mode heap under Reloaded with a 4 KiB floor.
    fn colored(colors: u8) -> (Machine, Revoker, Mrs) {
        let cfg = MrsConfig { min_quarantine_bytes: 4 << 10, colors, ..MrsConfig::default() };
        setup_with(Strategy::Reloaded, cfg)
    }

    fn drain(machine: &mut Machine, revoker: &mut Revoker) {
        while revoker.is_revoking() {
            if matches!(revoker.background_step(machine, 1_000_000), StepOutcome::NeedsFinalStw { .. }) {
                revoker.finish_stw(machine, 1);
            }
        }
    }

    #[test]
    fn freed_memory_is_painted_and_quarantined() {
        let (mut m, mut rev, mut mrs) = setup(Strategy::Reloaded, 8 << 20);
        let p = mrs.alloc(&mut m, 0, 256).unwrap().cap;
        mrs.free(&mut m, &mut rev, 0, p).unwrap();
        assert!(rev.bitmap().probe(p.base()));
        assert_eq!(mrs.quarantine_bytes(), 256);
    }

    #[test]
    fn policy_triggers_at_floor() {
        let (mut m, mut rev, mut mrs) = setup(Strategy::Reloaded, 64 << 10);
        let mut triggered = false;
        for _ in 0..20 {
            let p = mrs.alloc(&mut m, 0, 8 << 10).unwrap().cap;
            let e = mrs.free(&mut m, &mut rev, 0, p).unwrap();
            if e.trigger_revocation {
                triggered = true;
                break;
            }
        }
        assert!(triggered, "quarantine passed the floor but never triggered");
        assert_eq!(mrs.stats().revocations_requested, 1);
    }

    #[test]
    fn quarantined_memory_is_not_reused_before_epoch() {
        let (mut m, mut rev, mut mrs) = setup(Strategy::Reloaded, 1 << 10);
        let p = mrs.alloc(&mut m, 0, 2048).unwrap().cap;
        let e = mrs.free(&mut m, &mut rev, 0, p).unwrap();
        assert!(e.trigger_revocation);
        // Before any epoch completes, a same-size allocation must not alias
        // the quarantined object.
        let q = mrs.alloc(&mut m, 0, 2048).unwrap().cap;
        assert_ne!(q.base(), p.base());
    }

    #[test]
    fn release_happens_only_after_full_epoch() {
        let (mut m, mut rev, mut mrs) = setup(Strategy::Reloaded, 1 << 10);
        let p = mrs.alloc(&mut m, 0, 2048).unwrap().cap;
        let e = mrs.free(&mut m, &mut rev, 0, p).unwrap();
        assert!(e.trigger_revocation);
        rev.start_epoch(&mut m);
        mrs.poll_release(&mut m, &mut rev, 0);
        assert_eq!(mrs.quarantine_bytes(), 2048, "in-flight epoch must not release");
        drain(&mut m, &mut rev);
        mrs.poll_release(&mut m, &mut rev, 0);
        assert_eq!(mrs.quarantine_bytes(), 0);
        assert!(!rev.bitmap().probe(p.base()), "bitmap unpainted on release");
        // Now the storage may be reused.
        let q = mrs.alloc(&mut m, 0, 2048).unwrap().cap;
        assert_eq!(q.base(), p.base());
    }

    #[test]
    fn frees_during_revocation_wait_an_extra_epoch() {
        let (mut m, mut rev, mut mrs) = setup(Strategy::Reloaded, 1 << 10);
        let p = mrs.alloc(&mut m, 0, 2048).unwrap().cap;
        let q = mrs.alloc(&mut m, 0, 2048).unwrap().cap;
        mrs.free(&mut m, &mut rev, 0, p).unwrap();
        rev.start_epoch(&mut m);
        // Freed while epoch 1 is odd/in flight.
        mrs.free(&mut m, &mut rev, 0, q).unwrap();
        mrs.seal(&rev);
        drain(&mut m, &mut rev);
        mrs.poll_release(&mut m, &mut rev, 0);
        // p (sealed at epoch 0) is out; q (sealed at epoch 1) must wait.
        assert_eq!(mrs.quarantine_bytes(), 2048);
        rev.start_epoch(&mut m);
        drain(&mut m, &mut rev);
        mrs.poll_release(&mut m, &mut rev, 0);
        assert_eq!(mrs.quarantine_bytes(), 0);
    }

    #[test]
    fn must_block_kicks_in_when_open_buffer_overflows_during_pass() {
        let (mut m, mut rev, mut mrs) = setup(Strategy::Cornucopia, 1 << 10);
        // Keep freeing into the accumulating buffer while a pass is in
        // flight until it alone exceeds the policy bound.
        let caps: Vec<_> = (0..40).map(|_| mrs.alloc(&mut m, 0, 4096).unwrap().cap).collect();
        let mut started = false;
        for c in caps {
            let e = mrs.free(&mut m, &mut rev, 0, c).unwrap();
            if e.trigger_revocation && !started {
                rev.start_epoch(&mut m);
                started = true;
            }
        }
        assert!(started);
        assert!(mrs.must_block(&rev));
        drain(&mut m, &mut rev);
        assert!(!mrs.must_block(&rev));
    }

    /// Pins the §5.3 predicate: blocking gates on the *accumulating*
    /// buffer, not on sealed batches waiting out their release epochs.
    #[test]
    fn blocking_gates_on_open_buffer_not_sealed_backlog() {
        let (mut m, mut rev, mut mrs) = setup(Strategy::Cornucopia, 1 << 10);
        // This test cycles quarantine by hand: it ignores the triggers.
        let caps: Vec<_> = (0..10).map(|_| mrs.alloc(&mut m, 0, 4096).unwrap().cap).collect();
        for c in caps {
            mrs.free(&mut m, &mut rev, 0, c).unwrap();
        }
        mrs.seal(&rev);
        rev.start_epoch(&mut m);
        // A large sealed backlog alone (40 KiB ≫ the 1 KiB bound) is the
        // double-buffering steady state — it must NOT block.
        assert!(rev.is_revoking());
        assert_eq!(mrs.quarantine_bytes(), 10 * 4096);
        assert!(!mrs.must_block(&rev));
        // But once the open buffer itself crosses the bound mid-pass,
        // allocation blocks.
        let extra = mrs.alloc(&mut m, 0, 4096).unwrap().cap;
        mrs.free(&mut m, &mut rev, 0, extra).unwrap();
        assert!(mrs.must_block(&rev));
        drain(&mut m, &mut rev);
        assert!(!mrs.must_block(&rev));
    }

    /// Journal/stats agreement: every seal — free-path or external —
    /// produces exactly one reason-tagged `RevocationRequested` event, so
    /// the telemetry journal count always equals
    /// `MrsStats::revocations_requested`.
    #[test]
    fn every_seal_reason_reaches_the_journal() {
        let (mut m, mut rev, mut mrs) = setup(Strategy::Reloaded, 1 << 10);
        mrs.set_event_recording(true);
        // Free-path policy trigger.
        let p = mrs.alloc(&mut m, 0, 2048).unwrap().cap;
        let e = mrs.free(&mut m, &mut rev, 0, p).unwrap();
        assert!(e.trigger_revocation);
        rev.start_epoch(&mut m);
        // Externally driven seal while the pass is in flight (the shape of
        // the simulator's OOM-forced seal).
        let q = mrs.alloc(&mut m, 0, 2048).unwrap().cap;
        mrs.free(&mut m, &mut rev, 0, q).unwrap();
        mrs.seal(&rev);
        // Sealing an empty buffer is a no-op in both stats and journal.
        mrs.seal_for(&rev, RevocationReason::OomForced);
        let events: Vec<AllocEvent> = mrs.drain_events().collect();
        let requested: Vec<RevocationReason> = events
            .iter()
            .filter_map(|ev| match ev {
                AllocEvent::RevocationRequested { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(requested.len() as u64, mrs.stats().revocations_requested);
        assert_eq!(requested, vec![RevocationReason::FreePolicy, RevocationReason::External]);
        // Each request is immediately followed by its BatchSealed entry.
        for pair in events.windows(2) {
            if matches!(pair[0], AllocEvent::RevocationRequested { .. }) {
                assert!(matches!(pair[1], AllocEvent::BatchSealed { .. }));
            }
        }
    }

    #[test]
    fn use_after_free_is_dead_after_epoch_for_every_safe_strategy() {
        for strategy in [Strategy::CheriVoke, Strategy::Cornucopia, Strategy::Reloaded] {
            let (mut m, mut rev, mut mrs) = setup(strategy, 1 << 10);
            let heap_slot = mrs.alloc(&mut m, 0, 64).unwrap().cap;
            let p = mrs.alloc(&mut m, 0, 2048).unwrap().cap;
            // Stash a copy of p in memory (the UAF primitive).
            m.store_cap(0, &heap_slot, p).unwrap();
            mrs.free(&mut m, &mut rev, 0, p).unwrap();
            mrs.seal(&rev);
            rev.start_epoch(&mut m);
            drain(&mut m, &mut rev);
            let (stale, _) = m.load_cap(0, &heap_slot).unwrap();
            assert!(!stale.is_tagged(), "{strategy:?} left a stale cap alive");
        }
    }

    // Colour mode (§7.3).

    #[test]
    fn free_kills_stale_caps_immediately() {
        let (mut m, mut rev, mut heap) = colored(16);
        let keeper = heap.alloc(&mut m, 0, 64).unwrap().cap;
        let p = heap.alloc(&mut m, 0, 256).unwrap().cap;
        m.store_cap(0, &keeper, p).unwrap();
        heap.free(&mut m, &mut rev, 0, p).unwrap();
        // NO revocation pass has run, yet the stale pointer is already dead.
        let (stale, _) = m.load_cap(0, &keeper).unwrap();
        assert!(stale.is_tagged(), "the capability itself survives in memory...");
        assert!(
            matches!(m.read_data(0, &stale, 8), Err(cheri_vm::VmFault::ColorMismatch { .. })),
            "...but dereference must fail on color mismatch"
        );
        // Stores through it are silently discarded.
        let before = m.vm_stats().discarded_stores;
        m.write_data(0, &stale, 8).unwrap();
        assert_eq!(m.vm_stats().discarded_stores, before + 1);
    }

    #[test]
    fn storage_reuses_immediately_with_fresh_color() {
        let (mut m, mut rev, mut heap) = colored(16);
        let p = heap.alloc(&mut m, 0, 256).unwrap().cap;
        assert_eq!(p.color(), 0);
        heap.free(&mut m, &mut rev, 0, p).unwrap();
        let q = heap.alloc(&mut m, 0, 256).unwrap().cap;
        assert_eq!(q.base(), p.base(), "no quarantine: instant reuse");
        assert_eq!(q.color(), 1);
        // The new owner works; the old capability does not.
        m.write_data(0, &q, 256).unwrap();
        assert!(m.read_data(0, &p, 8).is_err());
        assert_eq!(heap.quarantine_bytes(), 0);
    }

    #[test]
    fn client_cannot_forge_colors() {
        let (mut m, mut rev, mut heap) = colored(16);
        let p = heap.alloc(&mut m, 0, 256).unwrap().cap;
        assert!(p.with_color(3).is_err(), "client caps lack RECOLOR");
        heap.free(&mut m, &mut rev, 0, p).unwrap();
        assert!(m.recolor(0, &p, 256, 1).is_err(), "client cannot recolor memory");
    }

    #[test]
    fn double_free_with_stale_color_is_rejected() {
        let (mut m, mut rev, mut heap) = colored(16);
        let p = heap.alloc(&mut m, 0, 256).unwrap().cap;
        heap.free(&mut m, &mut rev, 0, p).unwrap();
        assert!(matches!(heap.free(&mut m, &mut rev, 0, p), Err(AllocError::BadFree)));
    }

    #[test]
    fn exhausted_colors_fall_back_to_revocation() {
        let (mut m, mut rev, mut heap) = colored(2); // tiny color space
        let p0 = heap.alloc(&mut m, 0, 2048).unwrap().cap;
        heap.free(&mut m, &mut rev, 0, p0).unwrap(); // color 0 -> 1
        let p1 = heap.alloc(&mut m, 0, 2048).unwrap().cap;
        assert_eq!(p1.base(), p0.base());
        assert_eq!(p1.color(), 1);
        // Freeing at the last color quarantines instead of recycling.
        let e = heap.free(&mut m, &mut rev, 0, p1).unwrap();
        assert!(heap.quarantine_bytes() > 0);
        assert_eq!(heap.stats().frees - heap.stats().recolored_frees, 1, "one exhausted free");
        let p2 = heap.alloc(&mut m, 0, 2048).unwrap().cap;
        assert_ne!(p2.base(), p0.base(), "exhausted region must not be reused yet");
        // A pass resets the region to color 0 and recycles it.
        if !e.trigger_revocation {
            heap.seal(&rev);
        }
        rev.start_epoch(&mut m);
        drain(&mut m, &mut rev);
        heap.poll_release(&mut m, &mut rev, 0);
        assert_eq!(heap.quarantine_bytes(), 0);
        // Eventually the region comes back at color 0.
        let mut seen = false;
        for _ in 0..4 {
            let c = heap.alloc(&mut m, 0, 2048).unwrap().cap;
            if c.base() == p0.base() {
                assert_eq!(c.color(), 0);
                seen = true;
                break;
            }
        }
        assert!(seen, "exhausted region must return to service after the pass");
    }

    #[test]
    fn revocation_pressure_drops_with_color_count() {
        // Same churn; count how many frees would need revocation.
        for (colors, expected_max) in [(2u8, 60u64), (16, 8)] {
            let (mut m, mut rev, mut heap) = colored(colors);
            for _ in 0..100 {
                let p = heap.alloc(&mut m, 0, 4096).unwrap().cap;
                heap.free(&mut m, &mut rev, 0, p).unwrap();
            }
            let s = heap.stats();
            let exhausted = s.frees - s.recolored_frees;
            assert!(exhausted <= expected_max, "{colors} colors: {exhausted} exhausted frees (cap {expected_max})");
            assert_eq!(s.frees, 100);
        }
    }
}
