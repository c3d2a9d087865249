//! The revoker state machines: CHERIvoke, Cornucopia, Cornucopia Reloaded,
//! Paint+sync, and the CHERIoT-style load filter.
//!
//! The revoker is deliberately *driven* rather than threaded: a simulator
//! (or test) interleaves application work with [`Revoker::background_step`]
//! slices and routes load-barrier faults to
//! [`Revoker::handle_load_fault`]. Every operation returns its cycle cost,
//! and all memory traffic goes through the machine's cache model, so the
//! evaluation can account wall time, CPU time, and DRAM traffic exactly as
//! the paper does (§5).

use crate::bitmap::RevocationBitmap;
use crate::epoch::EpochClock;
use crate::hoards::KernelHoards;
use crate::worklist::ShardedWorklist;
use cheri_cap::Capability;
use cheri_mem::{CoreId, PageMap, PAGE_SIZE};
use cheri_vm::Machine;

/// Which revocation algorithm to run (paper §5: the four studied systems,
/// plus the CHERIoT-style filter of §6.3 as an ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Single stop-the-world sweep per epoch (Xia et al., MICRO'19).
    CheriVoke,
    /// Concurrent sweep + stop-the-world re-sweep of re-dirtied pages
    /// (Filardo et al., Oakland'20), using the capability store barrier.
    Cornucopia,
    /// Cornucopia Reloaded: brief STW (generation flip + register/hoard
    /// scan) + concurrent sweep with on-demand load-barrier faults.
    Reloaded,
    /// Quarantine bookkeeping only; **no revocation, no temporal safety**.
    /// Used to characterize the prerequisite overheads (paper §5).
    PaintSync,
    /// CHERIoT-style non-trapping load filter: every capability load probes
    /// the revocation bitmap and clears the tag of revoked capabilities on
    /// their way into the register file (§6.3).
    CheriotFilter,
}

impl Strategy {
    /// Every strategy, in declaration order.
    pub const ALL: [Strategy; 5] = [
        Strategy::CheriVoke,
        Strategy::Cornucopia,
        Strategy::Reloaded,
        Strategy::PaintSync,
        Strategy::CheriotFilter,
    ];

    /// The phase this strategy records for `role`, or `None`. This is the
    /// one declaration of which phases an epoch records; the revoker,
    /// Figure 9, the ablations and [`PhaseKind::from_label`] all read it.
    /// A strategy with an exit phase ends each epoch world-stopped
    /// ([`Revoker::finish_stw`]).
    #[must_use]
    pub fn phase(self, role: PhaseRole) -> Option<PhaseKind> {
        use PhaseKind as K;
        // [entry, concurrent, exit, faults], the order of `PhaseRole`.
        let row = match self {
            Strategy::CheriVoke => [Some(K::CheriVokeStw), None, None, None],
            Strategy::Cornucopia => [None, Some(K::CornucopiaConcurrent), Some(K::CornucopiaStw), None],
            Strategy::Reloaded => {
                [Some(K::ReloadedStw), Some(K::ReloadedConcurrent), None, Some(K::ReloadedFaults)]
            }
            Strategy::PaintSync => [None; 4],
            Strategy::CheriotFilter => {
                [Some(K::CheriotFilterScan), Some(K::CheriotFilterConcurrent), None, None]
            }
        };
        row[role as usize]
    }

    /// The phases one epoch records, in record order.
    pub fn phases(self) -> impl Iterator<Item = PhaseKind> {
        use PhaseRole::*;
        [Entry, Concurrent, Exit, Faults].into_iter().filter_map(move |role| self.phase(role))
    }

    /// Whether the strategy actually expunges stale capabilities.
    #[must_use]
    pub fn provides_safety(&self) -> bool {
        !matches!(self, Strategy::PaintSync)
    }

    /// Short display name matching the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::CheriVoke => "CHERIvoke",
            Strategy::Cornucopia => "Cornucopia",
            Strategy::Reloaded => "Reloaded",
            Strategy::PaintSync => "Paint+sync",
            Strategy::CheriotFilter => "CHERIoT-filter",
        }
    }
}

/// How PTE load-generation state is maintained per epoch (§4.1 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PteUpdateMode {
    /// The paper's design: flip only the in-core generation registers at
    /// epoch start; each PTE is written once, when visited.
    #[default]
    Generation,
    /// The strawman rejected in §4.1: rewrite every PTE (clearing a
    /// load-permission flag) at epoch start, with TLB shootdowns, and again
    /// on visit — twice per epoch.
    RewriteEachEpoch,
}

/// Revoker configuration.
#[derive(Debug, Clone)]
pub struct RevokerConfig {
    /// The algorithm to run.
    pub strategy: Strategy,
    /// Core(s) executing background revocation work (§7.1: more than one
    /// enables parallel background sweeping).
    pub revoker_cores: Vec<CoreId>,
    /// PTE maintenance mode (§4.1 ablation).
    pub pte_mode: PteUpdateMode,
}

/// Cycles to synchronize/quiesce the requesting thread's own core
/// (~16 us at 2.5 GHz).
const STW_SYNC_BASE_CYCLES: u64 = 40_000;
/// Additional cycles per *other* busy application thread that must be
/// interrupted and quiesced (syscall completion/abort; §4.4, §5.4):
/// ~300 us of `thread_single()` + syscalls.
const STW_SYNC_PER_BUSY_THREAD: u64 = 760_000;
/// Trap entry/exit overhead for a load-barrier fault (~1.2 us).
const FAULT_TRAP_CYCLES: u64 = 3_000;

impl Default for RevokerConfig {
    fn default() -> Self {
        RevokerConfig {
            strategy: Strategy::Reloaded,
            revoker_cores: vec![1],
            pte_mode: PteUpdateMode::Generation,
        }
    }
}

/// The parts of the one epoch skeleton a phase can measure, in the order
/// an epoch records them: entry, concurrent sweep, exit, and the load
/// faults summed over the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseRole {
    /// The synchronous work of [`Revoker::start_epoch`].
    Entry,
    /// The background sweep: the critical path of its slices.
    Concurrent,
    /// The world-stopped end of the epoch ([`Revoker::finish_stw`]).
    Exit,
    /// Load-barrier fault handling in application threads.
    Faults,
}

/// Phases whose durations the evaluation reports (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// CHERIvoke's single world-stopped sweep.
    CheriVokeStw,
    /// Cornucopia's concurrent sweep.
    CornucopiaConcurrent,
    /// Cornucopia's world-stopped re-sweep.
    CornucopiaStw,
    /// Reloaded's world-stopped entry (generation flip + register scan).
    ReloadedStw,
    /// Reloaded's background concurrent sweep.
    ReloadedConcurrent,
    /// Cumulative load-barrier fault handling in application threads
    /// during one Reloaded epoch.
    ReloadedFaults,
    /// The CHERIoT filter's register and hoard scan at epoch entry.
    CheriotFilterScan,
    /// The CHERIoT filter's background sweep.
    CheriotFilterConcurrent,
}

impl PhaseKind {
    /// Display label matching Figure 9's legend.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PhaseKind::CheriVokeStw => "CHERIvoke STW",
            PhaseKind::CornucopiaConcurrent => "Cornucopia concurrent",
            PhaseKind::CornucopiaStw => "Cornucopia STW",
            PhaseKind::ReloadedStw => "Reloaded STW",
            PhaseKind::ReloadedConcurrent => "Reloaded concurrent",
            PhaseKind::ReloadedFaults => "Reloaded faults (cum.)",
            PhaseKind::CheriotFilterScan => "CHERIoT-filter scan",
            PhaseKind::CheriotFilterConcurrent => "CHERIoT-filter concurrent",
        }
    }

    /// Inverse of [`PhaseKind::label`], for consumers deserializing phase
    /// records from exported documents (e.g. the bench orchestrator's
    /// checkpoint files).
    #[must_use]
    pub fn from_label(label: &str) -> Option<PhaseKind> {
        Strategy::ALL.into_iter().flat_map(Strategy::phases).find(|k| k.label() == label)
    }
}

/// One phase duration observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// The revocation passes completed when the phase ended. An entry
    /// phase that leaves a sweep behind (Reloaded's STW, the filter's
    /// scan) therefore carries the previous epoch's ordinal.
    pub epoch_index: u64,
    /// Which phase.
    pub kind: PhaseKind,
    /// Duration in cycles.
    pub cycles: u64,
}

/// A typed revoker event, recorded (when event recording is enabled) for
/// the telemetry layer. Untimestamped: the driving simulator owns the wall
/// clock and stamps events as it drains the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RevokerEvent {
    /// A revocation pass began; the epoch counter is now odd (§2.2.3).
    EpochBegin {
        /// The epoch counter value after entry.
        epoch: u64,
    },
    /// A revocation pass completed; the epoch counter is now even.
    EpochEnd {
        /// The epoch counter value after completion.
        epoch: u64,
        /// Pages content-scanned during this pass (lifetime counter).
        pages_swept: u64,
        /// Capabilities revoked so far (lifetime counter).
        caps_revoked: u64,
    },
    /// An application thread took (and the kernel healed) a load-barrier
    /// fault (§4.3).
    LoadFaultHandled {
        /// Faulting virtual address.
        vaddr: u64,
        /// Core that faulted.
        core: CoreId,
        /// Cycles charged to the faulting thread.
        cycles: u64,
    },
}

/// Aggregate revoker statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct RevStats {
    /// Completed revocation passes.
    pub epochs: u64,
    /// Page content scans performed (all phases).
    pub pages_swept: u64,
    /// Cheap page visits (generation update only, no content scan).
    pub pages_visited_clean: u64,
    /// Capabilities tested against the bitmap.
    pub caps_checked: u64,
    /// Capabilities revoked (tags cleared), including registers/hoards.
    pub caps_revoked: u64,
    /// Load-barrier faults handled.
    pub load_faults: u64,
    /// Cycles spent handling load-barrier faults (application threads).
    pub fault_cycles: u64,
    /// Total background (concurrent) cycles.
    pub concurrent_cycles: u64,
    /// Capabilities filtered by the CHERIoT-style load filter.
    pub filtered_loads: u64,
    /// Read-only pages upgraded to writable because a capability on them
    /// had to be revoked (§4.3's heuristic; pages needing no writes are
    /// put back into service untouched).
    pub ro_pages_upgraded: u64,
}

/// Result of a [`Revoker::background_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// No revocation is in flight.
    Idle,
    /// Background work consumed `used` cycles; more remains.
    Working {
        /// Cycles consumed on the revoker core(s).
        used: u64,
    },
    /// Concurrent work is done but the strategy needs a final
    /// stop-the-world phase — call [`Revoker::finish_stw`]. Reported in
    /// the same step that drains the last page, so `used` carries that
    /// step's critical-path cycles (0 when re-polled while waiting).
    NeedsFinalStw {
        /// Cycles consumed on the revoker core(s) in this step.
        used: u64,
    },
    /// The epoch completed during this step. `used` cycles were consumed.
    Finished {
        /// Cycles consumed on the revoker core(s).
        used: u64,
    },
}

/// Where an epoch is in the skeleton every strategy shares: entry (in
/// [`Revoker::start_epoch`]), concurrent sweep, exit.
#[derive(Debug)]
enum State {
    Idle,
    /// The concurrent sweep over the pages the entry left for it.
    Sweeping { work: ShardedWorklist },
    /// The sweep is done; the epoch ends in [`Revoker::finish_stw`].
    AwaitStw,
}

/// The in-kernel revocation subsystem.
///
/// Owns the [`RevocationBitmap`], the [`EpochClock`], the [`KernelHoards`],
/// and the sticky set of pages known to (have) hold capabilities. See the
/// crate docs for the driving protocol.
#[derive(Debug)]
pub struct Revoker {
    cfg: RevokerConfig,
    bitmap: RevocationBitmap,
    epoch: EpochClock,
    hoards: KernelHoards,
    state: State,
    /// Pages ever observed capability-dirty. Our re-implementation (like
    /// the paper's, §4.5) never un-tracks a page that becomes clean.
    tracked: PageMap<()>,
    stats: RevStats,
    phases: Vec<PhaseRecord>,
    /// Cycles of fault handling accumulated in the current epoch.
    epoch_fault_cycles: u64,
    /// Concurrent-phase critical-path cycles accumulated in the current
    /// epoch (max across revoker cores per step).
    epoch_concurrent_cycles: u64,
    /// Lifetime concurrent-sweep cycles per configured revoker core,
    /// aligned with `cfg.revoker_cores`.
    core_concurrent_cycles: Vec<u64>,
    /// Reusable per-core cycle tally of one `parallel_sweep` slice.
    step_used: Vec<u64>,
    /// Reusable page-visit buffer: `sweep_page_contents` snapshots each
    /// page's tagged capabilities here instead of allocating a `Vec` per
    /// page (the sweep visits every mapped page each epoch).
    scratch: Vec<(u64, Capability)>,
    /// Whether revoker events are appended to `events` (off by default).
    log_events: bool,
    events: Vec<RevokerEvent>,
}

impl Revoker {
    /// Creates a revoker whose bitmap covers `[heap_base, heap_base+len)`.
    #[must_use]
    pub fn new(cfg: RevokerConfig, heap_base: u64, heap_len: u64) -> Self {
        assert!(!cfg.revoker_cores.is_empty(), "need at least one revoker core");
        Revoker {
            bitmap: RevocationBitmap::new(heap_base, heap_len),
            core_concurrent_cycles: vec![0; cfg.revoker_cores.len()],
            step_used: vec![0; cfg.revoker_cores.len()],
            cfg,
            epoch: EpochClock::new(),
            hoards: KernelHoards::new(),
            state: State::Idle,
            tracked: PageMap::default(),
            stats: RevStats::default(),
            phases: Vec::new(),
            epoch_fault_cycles: 0,
            epoch_concurrent_cycles: 0,
            scratch: Vec::new(),
            log_events: false,
            events: Vec::new(),
        }
    }

    /// Enables or disables revoker event recording. Disabled (the
    /// default), the revoker never touches its event buffer; simulated
    /// counters are identical either way.
    pub fn set_event_recording(&mut self, on: bool) {
        self.log_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// Drains the recorded events, oldest first, clearing the internal log.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, RevokerEvent> {
        self.events.drain(..)
    }

    /// The publicly readable epoch counter value (§2.2.3).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.value()
    }

    /// Whether a revocation pass is in flight.
    #[must_use]
    pub fn is_revoking(&self) -> bool {
        self.epoch.is_revoking()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> RevStats {
        self.stats
    }

    /// Recorded phase durations (Figure 9's raw data).
    #[must_use]
    pub fn phase_records(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// The configured revoker cores, in shard order.
    #[must_use]
    pub fn cores(&self) -> &[CoreId] {
        &self.cfg.revoker_cores
    }

    /// Lifetime concurrent-sweep cycles accumulated by each revoker core,
    /// aligned with [`Revoker::cores`]. The critical path of one step is
    /// the max entry's growth; the sum is total CPU time spent sweeping.
    #[must_use]
    pub fn per_core_concurrent_cycles(&self) -> &[u64] {
        &self.core_concurrent_cycles
    }

    /// The kernel hoards (workloads deposit/divulge through these).
    pub fn hoards_mut(&mut self) -> &mut KernelHoards {
        &mut self.hoards
    }

    /// Read-only view of the bitmap.
    #[must_use]
    pub fn bitmap(&self) -> &RevocationBitmap {
        &self.bitmap
    }

    /// User-space shim painting `[base, base+len)` into quarantine.
    /// Returns the cycle cost, charged to `core`.
    pub fn paint(&mut self, machine: &mut Machine, core: CoreId, base: u64, len: u64) -> u64 {
        self.bitmap.paint(machine, core, base, len)
    }

    /// User-space shim clearing quarantine marks after a completed epoch.
    pub fn unpaint(&mut self, machine: &mut Machine, core: CoreId, base: u64, len: u64) -> u64 {
        self.bitmap.unpaint(machine, core, base, len)
    }

    // ------------------------------------------------------------------
    // Epoch driving
    // ------------------------------------------------------------------

    /// Begins a revocation pass. Performs the strategy's *initial*
    /// synchronous work and returns the stop-the-world pause in cycles,
    /// which the caller must charge to all application threads.
    ///
    /// `busy_threads` is the number of runnable application threads; each
    /// one beyond the requester must be interrupted and quiesced (§4.4).
    ///
    /// # Panics
    ///
    /// Panics if a pass is already in flight.
    pub fn start_epoch(&mut self, machine: &mut Machine) -> u64 {
        self.start_epoch_with_busy_threads(machine, 1)
    }

    /// [`Revoker::start_epoch`] with an explicit busy-thread count.
    pub fn start_epoch_with_busy_threads(&mut self, machine: &mut Machine, busy_threads: usize) -> u64 {
        self.epoch.begin();
        if self.log_events {
            self.events.push(RevokerEvent::EpochBegin { epoch: self.epoch.value() });
        }
        self.epoch_fault_cycles = 0;
        self.epoch_concurrent_cycles = 0;
        // Union newly capability-dirty pages into the sticky tracked set.
        for p in machine.cap_dirty_pages() {
            self.tracked.insert(p / PAGE_SIZE, ());
        }
        let sync = self.sync_cost(busy_threads);
        // The entry's cycles, and the sweep it leaves for the background
        // (`None` when the entry did the whole epoch).
        let (cycles, sweep) = match self.cfg.strategy {
            // One no-op "syscall"; the epoch ends immediately.
            Strategy::PaintSync => (2_000, None),
            Strategy::CheriVoke => {
                // Everything happens with the world stopped.
                let mut cycles = sync;
                cycles += self.scan_registers_and_hoards(machine);
                let pages: Vec<u64> = self.tracked_pages().collect();
                for page in pages {
                    cycles += self.sweep_page_contents(machine, self.cfg.revoker_cores[0], page);
                }
                (cycles, None)
            }
            // No initial STW: snapshot the tracked pages and go
            // concurrent. Clear CD bits as pages are visited so
            // re-dirtying is observable.
            Strategy::Cornucopia => (0, Some(self.shard(self.tracked_pages()))),
            Strategy::Reloaded => {
                let mut cycles = sync;
                // Fast global enablement: flip only in-core generation bits.
                machine.flip_core_generations();
                cycles += 1_000; // IPI broadcast
                if self.cfg.pte_mode == PteUpdateMode::RewriteEachEpoch {
                    // Strawman: touch every PTE up front, with shootdowns.
                    let pages: Vec<u64> = machine.mapped_pages().collect();
                    for p in &pages {
                        machine.set_page_generation(*p, !machine.space_generation());
                        machine.set_page_generation(*p, machine.space_generation());
                    }
                    // Undo: leave them stale so the sweep still visits them.
                    for p in &pages {
                        machine.set_page_generation(*p, !machine.space_generation());
                    }
                    cycles += pages.len() as u64 * 150;
                }
                cycles += self.scan_registers_and_hoards(machine);
                // `stale_generation_pages` is already ascending and
                // duplicate-free; deal it straight into the shards.
                (cycles, Some(self.shard(machine.stale_generation_pages())))
            }
            Strategy::CheriotFilter => {
                // No traps, no thread quiescence: the load filter already
                // protects the mutator. Scan registers/hoards (the
                // cycle-stealing engine does this too) and sweep in the
                // background so bitmap bits can eventually be recycled.
                let cycles = self.scan_registers_and_hoards(machine);
                (cycles, Some(self.shard(self.tracked_pages())))
            }
        };
        match sweep {
            Some(work) => self.state = State::Sweeping { work },
            None => self.finish_epoch(0),
        }
        self.record_phase(PhaseRole::Entry, cycles);
        cycles
    }

    /// Runs up to `budget` cycles of background revocation **per core** on
    /// the configured revoker core(s). Each core consumes its own worklist
    /// shard (stealing round-robin once it drains), charges its own cache
    /// and DRAM traffic, and accumulates its own cycle count; the returned
    /// `used` is the max across cores — the step's critical path.
    pub fn background_step(&mut self, machine: &mut Machine, budget: u64) -> StepOutcome {
        match std::mem::replace(&mut self.state, State::Idle) {
            State::Idle => StepOutcome::Idle,
            State::AwaitStw => {
                self.state = State::AwaitStw;
                StepOutcome::NeedsFinalStw { used: 0 }
            }
            State::Sweeping { mut work } => {
                let used = self.parallel_sweep(machine, &mut work, budget);
                if !work.is_empty() {
                    self.state = State::Sweeping { work };
                    StepOutcome::Working { used }
                } else if self.sweep_drained() {
                    StepOutcome::Finished { used }
                } else {
                    StepOutcome::NeedsFinalStw { used }
                }
            }
        }
    }

    /// One budgeted slice of the parallel concurrent sweep. Pages are
    /// handed out round-robin, one per core per round, so the simulated
    /// cores advance in lockstep; a core that exhausts `budget` sits out
    /// the rest of the slice. Page visits commute (each sweep touches only
    /// its own page's tags; the bitmap is read-only here), so the
    /// revocation result is independent of the core count even though
    /// cycle and traffic attribution are not.
    fn parallel_sweep(
        &mut self,
        machine: &mut Machine,
        work: &mut ShardedWorklist,
        budget: u64,
    ) -> u64 {
        let mut used = std::mem::take(&mut self.step_used);
        used.fill(0);
        'slice: loop {
            let mut progressed = false;
            for (shard, spent) in used.iter_mut().enumerate() {
                if *spent >= budget {
                    continue;
                }
                let Some(page) = work.pop_for(shard) else { break 'slice };
                let core = self.cfg.revoker_cores[shard];
                let cycles = self.visit_page(machine, core, page);
                *spent += cycles;
                self.core_concurrent_cycles[shard] += cycles;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        let critical_path = used.iter().copied().max().unwrap_or(0);
        self.step_used = used;
        self.epoch_concurrent_cycles += critical_path;
        self.stats.concurrent_cycles += critical_path;
        critical_path
    }

    /// Deals an ascending page sequence into the per-core worklist shards.
    fn shard(&self, pages: impl IntoIterator<Item = u64>) -> ShardedWorklist {
        ShardedWorklist::new(pages, self.cfg.revoker_cores.len())
    }

    /// Executes Cornucopia's final stop-the-world phase (re-sweep of pages
    /// re-dirtied during the concurrent phase, plus the register and hoard
    /// scan) and ends the epoch. Returns the pause in cycles.
    ///
    /// # Panics
    ///
    /// Panics unless [`Revoker::background_step`] returned
    /// [`StepOutcome::NeedsFinalStw`].
    pub fn finish_stw(&mut self, machine: &mut Machine, busy_threads: usize) -> u64 {
        assert!(matches!(self.state, State::AwaitStw), "finish_stw called out of phase");
        let mut cycles = self.sync_cost(busy_threads);
        cycles += self.scan_registers_and_hoards(machine);
        // Pages dirtied *for the first time* during the concurrent phase
        // must join the sweep too, not just re-dirtied ones.
        for p in machine.cap_dirty_pages() {
            self.tracked.insert(p / PAGE_SIZE, ());
        }
        // Re-dirtied pages have their CD bit set again.
        let redirtied: Vec<u64> =
            self.tracked_pages().filter(|&p| machine.page_cap_dirty(p)).collect();
        let core = self.cfg.revoker_cores[0];
        for page in redirtied {
            cycles += self.visit_page(machine, core, page);
        }
        self.finish_epoch(cycles);
        cycles
    }

    /// Handles a [`cheri_vm::VmFault::CapLoadGeneration`] fault taken by an
    /// application thread on `core` at `vaddr` (Reloaded's foreground
    /// self-healing path, §4.3). Sweeps the page, updates its PTE, and
    /// returns the cycles to charge to the faulting thread. The faulted
    /// load can then be retried.
    pub fn handle_load_fault(&mut self, machine: &mut Machine, core: CoreId, vaddr: u64) -> u64 {
        let page = vaddr / PAGE_SIZE * PAGE_SIZE;
        let mut cycles = FAULT_TRAP_CYCLES;
        // Re-check under the pmap lock: another thread may have already
        // revoked this page (§4.3).
        if machine.page_generation(page) == Some(machine.space_generation())
            && !matches!(self.state, State::Sweeping { ref work } if work.contains(page))
        {
            return cycles;
        }
        cycles += self.visit_page(machine, core, page);
        let mut drained = false;
        if let State::Sweeping { work } = &mut self.state {
            // Cancel the page in whichever shard owns it (lazy removal).
            work.remove(page);
            drained = work.is_empty();
        }
        self.stats.load_faults += 1;
        self.stats.fault_cycles += cycles;
        self.epoch_fault_cycles += cycles;
        if self.log_events {
            self.events.push(RevokerEvent::LoadFaultHandled { vaddr, core, cycles });
        }
        if drained {
            self.sweep_drained();
        }
        cycles
    }

    /// CHERIoT-style load filter (§6.3): applied to every capability load
    /// when [`Strategy::CheriotFilter`] is active. Returns the (possibly
    /// detagged) capability and the filter's cycle cost.
    pub fn filter_loaded(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        cap: Capability,
    ) -> (Capability, u64) {
        if self.cfg.strategy != Strategy::CheriotFilter || !cap.is_tagged() {
            return (cap, 0);
        }
        self.stats.filtered_loads += 1;
        // The probe is architectural and rides the load pipeline; its cost
        // is a tightly-coupled-memory lookup, not a cache miss.
        let (painted, _) = self.bitmap.probe_charged(machine, core, cap.base());
        if painted {
            self.stats.caps_revoked += 1;
            (cap.with_tag_cleared(), 1)
        } else {
            (cap, 1)
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Addresses of the tracked pages, ascending.
    fn tracked_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.tracked.iter().map(|(n, ())| n * PAGE_SIZE)
    }

    fn sync_cost(&self, busy_threads: usize) -> u64 {
        STW_SYNC_BASE_CYCLES + STW_SYNC_PER_BUSY_THREAD * busy_threads.saturating_sub(1) as u64
    }

    /// Ends the concurrent sweep: on to the exit if the strategy declares
    /// one, else to the epoch's end. Returns whether the epoch ended.
    fn sweep_drained(&mut self) -> bool {
        if self.cfg.strategy.phase(PhaseRole::Exit).is_some() {
            self.state = State::AwaitStw;
            false
        } else {
            self.finish_epoch(0);
            true
        }
    }

    /// Ends the in-flight epoch: bumps the counters, (when enabled) logs
    /// the completion event, and records the concurrent, exit and fault
    /// phases. `exit` is the exit's cycles, 0 for a strategy without one.
    fn finish_epoch(&mut self, exit: u64) {
        self.state = State::Idle;
        self.epoch.end();
        self.stats.epochs += 1;
        if self.log_events {
            self.events.push(RevokerEvent::EpochEnd {
                epoch: self.epoch.value(),
                pages_swept: self.stats.pages_swept,
                caps_revoked: self.stats.caps_revoked,
            });
        }
        self.record_phase(PhaseRole::Concurrent, self.epoch_concurrent_cycles);
        self.record_phase(PhaseRole::Exit, exit);
        self.record_phase(PhaseRole::Faults, self.epoch_fault_cycles);
    }

    /// Records the strategy's phase for `role`, if it declares one.
    fn record_phase(&mut self, role: PhaseRole, cycles: u64) {
        if let Some(kind) = self.cfg.strategy.phase(role) {
            self.phases.push(PhaseRecord { epoch_index: self.stats.epochs, kind, cycles });
        }
    }

    /// Scans all thread register files and kernel hoards, revoking painted
    /// capabilities. Returns the cycle cost.
    fn scan_registers_and_hoards(&mut self, machine: &mut Machine) -> u64 {
        let mut cycles = 0;
        let bitmap = &self.bitmap;
        let mut checked = 0u64;
        let mut revoked = 0u64;
        for t in 0..machine.num_threads() {
            for cap in machine.regs_mut(t).iter_mut() {
                checked += 1;
                if cap.is_tagged() && bitmap.probe(cap.base()) {
                    *cap = cap.with_tag_cleared();
                    revoked += 1;
                }
            }
        }
        cycles += checked * 6;
        let (scanned, hrevoked) = self.hoards.scan(|c| bitmap.probe(c.base()));
        cycles += scanned * 6;
        self.stats.caps_checked += checked + scanned;
        self.stats.caps_revoked += revoked + hrevoked;
        cycles
    }

    /// Scans the contents of one page, revoking painted capabilities in
    /// place. Returns the cycle cost (traffic charged to `core`).
    fn sweep_page_contents(&mut self, machine: &mut Machine, core: CoreId, page: u64) -> u64 {
        // Morello-calibrated fixed visit cost: pmap locking, page
        // quiescing, and per-visit kernel accounting dominate the raw
        // 4 KiB read (§4.3; CheriBSD page visits measure ~3-5 us).
        let mut cycles = machine.charge_page_scan(core, page) + 12_000;
        self.stats.pages_swept += 1;
        // §4.3 read-only heuristic: scan without write intent; only a page
        // that actually needs a revocation is upgraded (full page fault).
        let mut writable = machine.page_user_writable(page);
        // Move the scratch buffer out so the visit loop can mutate both
        // `self` and `machine`; the snapshot semantics (and visit order)
        // are identical to collecting a fresh Vec.
        let mut caps = std::mem::take(&mut self.scratch);
        machine.peek_tagged_caps_into(page, &mut caps);
        self.stats.caps_checked += caps.len() as u64;
        for &(addr, cap) in &caps {
            // §7.3: a capability whose color no longer matches its target
            // memory is permanently useless and may be revoked on sight —
            // a purely architectural test, no bitmap consultation needed.
            let revoke = if cap.color() != machine.granule_color(cap.base()) {
                cycles += 2;
                true
            } else {
                let (painted, c) = self.bitmap.probe_charged(machine, core, cap.base());
                cycles += c + 4;
                painted
            };
            if revoke {
                if !writable {
                    cycles += machine.upgrade_page_writable(page);
                    writable = true;
                    self.stats.ro_pages_upgraded += 1;
                }
                cycles += machine.revoke_granule(core, addr);
                self.stats.caps_revoked += 1;
            }
        }
        self.scratch = caps;
        cycles
    }

    /// One page visit (a concurrent sweep's, Cornucopia's re-sweep's or a
    /// load fault's), the strategy's way. Cornucopia clears the page's CD
    /// bit first, so stores during or after the scan re-dirty it for the
    /// STW re-sweep.
    ///
    /// Reloaded (and the filter) content-scan pages that may hold
    /// capabilities and cheaply refresh the generation of clean pages.
    /// Idempotent.
    ///
    /// Unlike the Cornucopia/CHERIvoke sweep sets (sticky per §4.5), the
    /// Reloaded implementation *does* detect pages that have become
    /// capability-clean: a scan that leaves no tagged granule un-tracks
    /// the page (and clears its CD bit so a later capability store
    /// re-tracks it through the store barrier). This is safe under the
    /// load-barrier invariant — any capability stored after the scan was
    /// already revocation-checked — and is where Reloaded's bus-traffic
    /// advantage on churn-heavy workloads comes from (Figure 6).
    fn visit_page(&mut self, machine: &mut Machine, core: CoreId, page: u64) -> u64 {
        if self.cfg.strategy == Strategy::Cornucopia {
            machine.clear_page_cap_dirty(page);
            return 120 + self.sweep_page_contents(machine, core, page); // PTE write + shootdown
        }
        let mut cycles = 0;
        if self.tracked.contains(page / PAGE_SIZE) || machine.page_cap_dirty(page) {
            cycles += self.sweep_page_contents(machine, core, page);
            if !machine.mem().phys().page_has_tags(page) {
                self.tracked.remove(page / PAGE_SIZE);
                machine.clear_page_cap_dirty(page);
                cycles += 120;
            }
        } else {
            // Capability-clean page: maintain its generation bit without a
            // content scan (§4.1 footnote 19).
            self.stats.pages_visited_clean += 1;
            cycles += 200;
        }
        machine.set_page_generation(page, machine.space_generation());
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::Perms;
    use cheri_vm::MapFlags;

    const HEAP: u64 = 0x4000_0000;
    const HLEN: u64 = 0x4_0000; // 256 KiB

    fn setup(strategy: Strategy) -> (Machine, Revoker, Capability) {
        let mut m = Machine::new(2);
        m.map_range(HEAP, HLEN, MapFlags::user_rw()).unwrap();
        let rev = Revoker::new(RevokerConfig { strategy, ..RevokerConfig::default() }, HEAP, HLEN);
        let heap = Capability::new_root(HEAP, HLEN, Perms::rw());
        (m, rev, heap)
    }

    /// Plants a stale capability to `[HEAP+0x1000, +64)` in memory, a
    /// register, and a hoard; paints it; returns the object cap.
    #[allow(unused_variables)]
    fn plant(m: &mut Machine, rev: &mut Revoker, heap: &Capability) -> Capability {
        let obj = heap.set_bounds(HEAP + 0x1000, 64).unwrap();
        m.store_cap(0, &heap.set_addr(HEAP), obj).unwrap();
        m.regs_mut(0).set(5, obj);
        rev.hoards_mut().deposit(crate::hoards::HoardKind::Aio, obj);
        rev.paint(m, 0, HEAP + 0x1000, 64);
        obj
    }

    fn run_to_completion(m: &mut Machine, rev: &mut Revoker) {
        rev.start_epoch(m);
        let mut guard = 0;
        while rev.is_revoking() {
            match rev.background_step(m, 1_000_000) {
                StepOutcome::NeedsFinalStw { .. } => {
                    rev.finish_stw(m, 1);
                }
                StepOutcome::Idle => break,
                _ => {}
            }
            guard += 1;
            assert!(guard < 10_000, "revocation did not terminate");
        }
    }

    fn assert_expunged(m: &mut Machine, _rev: &Revoker, heap: &Capability) {
        let (mem_copy, _) = m.load_cap(0, &heap.set_addr(HEAP)).unwrap();
        assert!(!mem_copy.is_tagged(), "stale cap survived in memory");
        assert!(!m.regs(0).get(5).is_tagged(), "stale cap survived in a register");
    }

    #[test]
    fn cherivoke_expunges_everything_in_one_stw() {
        let (mut m, mut rev, heap) = setup(Strategy::CheriVoke);
        plant(&mut m, &mut rev, &heap);
        let pause = rev.start_epoch(&mut m);
        assert!(pause > 0);
        assert!(!rev.is_revoking(), "CHERIvoke completes synchronously");
        assert_expunged(&mut m, &rev, &heap);
        assert_eq!(rev.epoch(), 2);
    }

    #[test]
    fn cornucopia_expunges_after_concurrent_plus_stw() {
        let (mut m, mut rev, heap) = setup(Strategy::Cornucopia);
        plant(&mut m, &mut rev, &heap);
        run_to_completion(&mut m, &mut rev);
        assert_expunged(&mut m, &rev, &heap);
        let kinds: Vec<PhaseKind> = rev.phase_records().iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&PhaseKind::CornucopiaConcurrent));
        assert!(kinds.contains(&PhaseKind::CornucopiaStw));
    }

    #[test]
    fn reloaded_expunges_with_background_only() {
        let (mut m, mut rev, heap) = setup(Strategy::Reloaded);
        plant(&mut m, &mut rev, &heap);
        run_to_completion(&mut m, &mut rev);
        assert_expunged(&mut m, &rev, &heap);
        assert_eq!(rev.stats().load_faults, 0, "no app loads, so no faults");
    }

    #[test]
    fn reloaded_register_scan_happens_at_entry() {
        let (mut m, mut rev, heap) = setup(Strategy::Reloaded);
        plant(&mut m, &mut rev, &heap);
        rev.start_epoch(&mut m);
        // Before any background work, registers and hoards are clean.
        assert!(!m.regs(0).get(5).is_tagged());
        // ...but memory still holds the (unreachable-via-load) stale cap.
        assert!(m.mem().phys().tag(HEAP));
    }

    #[test]
    fn reloaded_fault_heals_page_and_load_retries() {
        let (mut m, mut rev, heap) = setup(Strategy::Reloaded);
        let _obj = plant(&mut m, &mut rev, &heap);
        // A *live* cap on the same page as the stale one.
        let live = heap.set_bounds(HEAP + 0x2000, 64).unwrap();
        m.store_cap(0, &heap.set_addr(HEAP + 0x10), live).unwrap();
        rev.start_epoch(&mut m);
        // App loads the live cap: the barrier faults, the handler heals.
        let auth = heap.set_addr(HEAP + 0x10);
        let err = m.load_cap(0, &auth).unwrap_err();
        let cheri_vm::VmFault::CapLoadGeneration { vaddr } = err else {
            panic!("expected load-generation fault, got {err:?}");
        };
        let cycles = rev.handle_load_fault(&mut m, 0, vaddr);
        assert!(cycles > 0);
        // Retry succeeds and the live cap is intact...
        let (got, _) = m.load_cap(0, &auth).unwrap();
        assert!(got.is_tagged());
        assert_eq!(got.base(), HEAP + 0x2000);
        // ...while the stale cap on the same page is already gone.
        assert!(!m.mem().phys().tag(HEAP));
        assert_eq!(rev.stats().load_faults, 1);
    }

    #[test]
    fn paint_sync_provides_no_safety() {
        let (mut m, mut rev, heap) = setup(Strategy::PaintSync);
        plant(&mut m, &mut rev, &heap);
        let pause = rev.start_epoch(&mut m);
        assert!(pause < 10_000);
        assert!(!rev.is_revoking());
        // The stale capability survives: Paint+sync is overhead-only.
        let (mem_copy, _) = m.load_cap(0, &heap.set_addr(HEAP)).unwrap();
        assert!(mem_copy.is_tagged());
        assert!(!Strategy::PaintSync.provides_safety());
    }

    #[test]
    fn cheriot_filter_blocks_loads_without_epochs() {
        let (mut m, mut rev, heap) = setup(Strategy::CheriotFilter);
        let _obj = plant(&mut m, &mut rev, &heap);
        // No epoch has run at all; the filter alone protects loads.
        let (raw, _) = m.load_cap(0, &heap.set_addr(HEAP)).unwrap();
        assert!(raw.is_tagged(), "raw memory still tagged");
        let (filtered, _) = rev.filter_loaded(&mut m, 0, raw);
        assert!(!filtered.is_tagged(), "filter must detag painted caps");
        assert_eq!(rev.stats().filtered_loads, 1);
    }

    #[test]
    fn cornucopia_restw_covers_redirtied_pages() {
        let (mut m, mut rev, heap) = setup(Strategy::Cornucopia);
        let _obj = plant(&mut m, &mut rev, &heap);
        rev.start_epoch(&mut m);
        // Drain the concurrent phase.
        while !matches!(rev.background_step(&mut m, 1_000_000), StepOutcome::NeedsFinalStw { .. }) {}
        // Application now stores a *stale* cap to a cleaned page (it still
        // holds one in a register-like variable: simulate via direct store
        // of the painted cap).
        let stale = heap.set_bounds(HEAP + 0x1000, 64).unwrap();
        m.store_cap(0, &heap.set_addr(HEAP + 0x3000), stale).unwrap();
        let pause = rev.finish_stw(&mut m, 1);
        assert!(pause > 0);
        // The re-dirtied page was re-swept: the stale copy is gone.
        assert!(!m.mem().phys().tag(HEAP + 0x3000));
    }

    #[test]
    fn reloaded_stw_is_orders_of_magnitude_shorter_than_cherivoke() {
        // Populate many capability-bearing pages, then compare pauses.
        let mut pauses = Vec::new();
        for strategy in [Strategy::CheriVoke, Strategy::Reloaded] {
            let (mut m, mut rev, heap) = setup(strategy);
            for page in 0..32u64 {
                for slot in 0..8u64 {
                    let a = HEAP + page * 4096 + slot * 128;
                    let c = heap.set_bounds(a, 64).unwrap();
                    m.store_cap(0, &heap.set_addr(a), c).unwrap();
                }
            }
            rev.paint(&mut m, 0, HEAP + 0x1000, 64);
            let pause = rev.start_epoch(&mut m);
            pauses.push(pause);
            while rev.is_revoking() {
                if matches!(rev.background_step(&mut m, 1_000_000), StepOutcome::NeedsFinalStw { .. }) {
                    rev.finish_stw(&mut m, 1);
                }
            }
        }
        assert!(
            pauses[0] > pauses[1] * 4,
            "CHERIvoke pause {} should dwarf Reloaded pause {}",
            pauses[0],
            pauses[1]
        );
    }

    #[test]
    fn cornucopia_drain_reports_needs_stw_in_same_step() {
        let (mut m, mut rev, heap) = setup(Strategy::Cornucopia);
        plant(&mut m, &mut rev, &heap);
        rev.start_epoch(&mut m);
        // One pending page, ample budget: the step that drains it must
        // say so, carrying the cycles it consumed — no extra poll.
        match rev.background_step(&mut m, 1_000_000) {
            StepOutcome::NeedsFinalStw { used } => assert!(used > 0),
            other => panic!("expected same-step NeedsFinalStw, got {other:?}"),
        }
        // Re-polling while awaiting the STW consumes nothing.
        assert_eq!(
            rev.background_step(&mut m, 1_000_000),
            StepOutcome::NeedsFinalStw { used: 0 }
        );
        rev.finish_stw(&mut m, 1);
        assert!(!rev.is_revoking());
    }

    #[test]
    fn parallel_sweep_attributes_traffic_to_each_core() {
        let mut m = Machine::new(4);
        m.map_range(HEAP, HLEN, MapFlags::user_rw()).unwrap();
        let heap = Capability::new_root(HEAP, HLEN, Perms::rw());
        let cfg = RevokerConfig {
            strategy: Strategy::Reloaded,
            revoker_cores: vec![1, 2, 3],
            ..RevokerConfig::default()
        };
        let mut rev = Revoker::new(cfg, HEAP, HLEN);
        // Plenty of cap-bearing pages so every core sweeps several.
        for page in 0..24u64 {
            let a = HEAP + page * 4096;
            let c = heap.set_bounds(a, 64).unwrap();
            m.store_cap(0, &heap.set_addr(a + 16), c).unwrap();
        }
        rev.paint(&mut m, 0, HEAP + 0x1000, 64);
        rev.start_epoch(&mut m);
        while matches!(rev.background_step(&mut m, 1_000_000), StepOutcome::Working { .. }) {}
        assert_eq!(rev.cores(), &[1, 2, 3]);
        for &core in rev.cores() {
            assert!(
                m.mem().traffic(core).dram_transactions > 0,
                "core {core} swept pages but shows no DRAM traffic"
            );
        }
        for (i, &cycles) in rev.per_core_concurrent_cycles().iter().enumerate() {
            assert!(cycles > 0, "shard {i} accumulated no sweep cycles");
        }
        // The critical path is the max shard, not the sum or the average.
        let max = *rev.per_core_concurrent_cycles().iter().max().unwrap();
        assert_eq!(rev.stats().concurrent_cycles, max);
    }

    #[test]
    fn epoch_counter_follows_protocol() {
        let (mut m, mut rev, heap) = setup(Strategy::Reloaded);
        plant(&mut m, &mut rev, &heap);
        assert_eq!(rev.epoch(), 0);
        rev.start_epoch(&mut m);
        assert_eq!(rev.epoch(), 1);
        assert!(rev.is_revoking());
        while rev.is_revoking() {
            rev.background_step(&mut m, 1_000_000);
        }
        assert_eq!(rev.epoch(), 2);
    }

    #[test]
    fn clean_pages_get_cheap_visits() {
        let (mut m, mut rev, heap) = setup(Strategy::Reloaded);
        // One page with caps, the rest only data.
        let obj = heap.set_bounds(HEAP + 0x1000, 64).unwrap();
        m.store_cap(0, &heap.set_addr(HEAP + 0x1000), obj).unwrap();
        m.write_data(0, &heap.set_addr(HEAP + 0x8000), 4096).unwrap();
        rev.paint(&mut m, 0, HEAP + 0x1000, 64);
        run_to_completion(&mut m, &mut rev);
        let s = rev.stats();
        assert!(s.pages_visited_clean > 0, "data pages should be cheap visits");
        assert_eq!(s.pages_swept, 1, "only the cap-bearing page is content-scanned");
    }
}
