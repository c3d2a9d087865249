//! The simulated system: machine + revoker + heap, driven by an op stream.

use crate::config::{Condition, SimConfig};
use crate::ops::{for_each_batch, ObjId, Op, OpSource};
use crate::report::RunReport;
use crate::stats::RunStats;
use crate::telemetry::{
    Recorder, Sample, Span, SpanKind, StaleChaseOutcome, TelemetryEvent, TimedEvent,
    SERIES_CAPACITY,
};
use cheri_cap::{Capability, CAP_SIZE};
use cheri_mem::{CoreId, FastMap, FastSet};
use cheri_vm::{Machine, ThreadId, VmFault};
use cheri_alloc::{AllocError, HeapLayout, Mrs, MrsConfig};
use cornucopia::{Revoker, RevokerConfig, StepOutcome, Strategy};
use std::collections::BTreeMap;
use std::fmt;

/// Heap arena base address.
const HEAP_BASE: u64 = 0x4000_0000;
/// Core running the application thread (§5.1: the app is pinned to core 3).
const APP_CORE: CoreId = 3;
/// Core running the (first) background revoker thread (§5.1: core 2).
const REV_CORE: CoreId = 2;
/// Extra application cycles per revoker DRAM transaction (§5.6 bus
/// contention model).
const BUS_PENALTY_PER_REV_TXN: u64 = 210;
/// The wall clock an op may start at, and may carry it to with the cycles
/// it names itself (`Compute`, `ThinkIdle`, a `TxBegin`'s wait for its
/// arrival). The 2^48 cycles above it are headroom for what one op costs
/// the simulation besides (a sweep, a pause, a bus penalty), so no clock
/// can wrap. `app_cpu` never runs ahead of `wall`, so it is bounded too.
const CLOCK_LIMIT: u64 = u64::MAX - (1 << 48);

/// Simulation failures (workload or configuration bugs; a correct run
/// never produces one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// An architectural fault that is not a handleable barrier fault.
    Vm(VmFault),
    /// Allocator error (bad free).
    Alloc(AllocError),
    /// The arena is exhausted even after forcing revocation.
    OutOfMemory,
    /// Operation referenced a slot with no live object.
    UnknownObj(ObjId),
    /// Alloc targeted a slot that already holds a live object.
    SlotBusy(ObjId),
    /// The op would carry the wall clock past its limit (2^64 − 2^48
    /// cycles); refused before any clock moved.
    ClockOverflow,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Vm(e) => write!(f, "vm fault: {e}"),
            SimError::Alloc(e) => write!(f, "allocator: {e}"),
            SimError::OutOfMemory => f.write_str("arena exhausted after forced revocation"),
            SimError::UnknownObj(o) => write!(f, "operation on dead object {o}"),
            SimError::SlotBusy(o) => write!(f, "alloc into live slot {o}"),
            SimError::ClockOverflow => f.write_str("op would carry the wall clock past 2^64 - 2^48 cycles"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<VmFault> for SimError {
    fn from(e: VmFault) -> Self {
        SimError::Vm(e)
    }
}

impl From<AllocError> for SimError {
    fn from(e: AllocError) -> Self {
        SimError::Alloc(e)
    }
}

/// Wall-clock bookkeeping for the revocation pass in flight, kept only
/// when telemetry is on (spans cover each phase, Figure 9).
#[derive(Debug)]
struct EpochTrace {
    /// Epoch counter value during the pass (odd, §2.2.3).
    epoch: u64,
    /// Wall cycle the pass began (before the entry pause).
    start: u64,
    /// Wall cycle the concurrent phase began (after the entry pause).
    concurrent_start: u64,
    /// `per_core_concurrent_cycles` snapshot at pass start, for per-core
    /// attribution of the sweep.
    core_marks: Vec<u64>,
}

/// What the application sees of a revoker step ([`System::revoker_step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    /// The revoker runs beside the application, over wall time the
    /// application already spent. While it was busy, the sweep's DRAM
    /// traffic stalls it and a final pause stops it; idle time hides both.
    Pump { app_busy: bool },
    /// The application waits for the pass: every revoker cycle on the
    /// critical path is wall time and blocked time.
    Block,
    /// After the last op: the pass drains off the application's clocks.
    Finish,
}

/// One interior capability slot written by `LinkPtr`, tracked (by slot
/// address) by the telemetry-gated dangling-pointer instrument.
#[derive(Debug, Clone, Copy)]
struct LinkEntry {
    /// The object the stored pointer referred to.
    to: ObjId,
    /// That object's identity generation when the link was written, so a
    /// later reuse of the same root slot id is recognized as stale.
    to_gen: u64,
}

/// The simulated system. Construct with [`System::new`], execute with
/// [`System::run_stream`], or drive op-by-op with [`System::exec`] and finish
/// with [`System::finish`].
#[derive(Debug)]
pub struct System {
    cfg: SimConfig,
    machine: Machine,
    revoker: Revoker,
    heap: Mrs,
    root: Capability,
    app_thread: ThreadId,
    live: FastSet<ObjId>,
    // Clocks and ledgers.
    wall: u64,
    app_cpu: u64,
    rev_cpu: u64,
    /// Wall point up to which background revoker progress was applied.
    rev_mark: u64,
    stats: RunStats,
    tx_start: FastMap<u64, u64>,
    next_arrival: u64,
    last_release_epoch: u64,
    reg_rr: usize,
    // Telemetry (all dormant, and the recorder empty, while it is off).
    recorder: Recorder,
    /// Whether the config turned telemetry on: one branch guards every hook.
    telemetry_on: bool,
    /// Sampling period (`u64::MAX` sentinel disables the sampler).
    next_sample: u64,
    sample_interval: u64,
    epoch_trace: Option<EpochTrace>,
    // Dangling-pointer instrument (telemetry-gated, zero simulated cost).
    // Why a side table instead of inspecting heap memory: recycled storage
    // is never scrubbed, so physical tags alone cannot distinguish "the
    // program stored this pointer here" from allocator leftovers. The
    // table mirrors the written links exactly: inserts at `LinkPtr`,
    // address-range removal wherever the physical slot's tag is destroyed
    // (data writes) or the region gains a new owner (allocator reuse).
    link_table: BTreeMap<u64, LinkEntry>,
    /// Identity generation per root slot, bumped on `Alloc`, so a
    /// freed-then-reused slot id does not masquerade as its old object.
    obj_gen: FastMap<ObjId, u64>,
}

impl System {
    /// Builds a system: maps the arena, allocates the root table, and
    /// configures the revoker per `cfg`. Component event recording,
    /// span tracing and sampling are switched on iff `cfg`'s telemetry is.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        let layout = HeapLayout::new(HEAP_BASE, cfg.heap_len);
        let strategy = match cfg.condition {
            Condition::Baseline => Strategy::PaintSync, // unused
            Condition::Safe(s) => s,
        };
        // Distinct revoker cores (never the app core): `REV_CORE` first, then
        // the lowest free core ids. Each shard of the parallel sweep charges
        // its own core's caches, so duplicates would fold traffic together.
        let mut revoker_cores = vec![REV_CORE];
        let mut candidate: CoreId = 0;
        while revoker_cores.len() < cfg.revoker_threads.max(1) {
            if candidate != APP_CORE && !revoker_cores.contains(&candidate) {
                revoker_cores.push(candidate);
            }
            candidate += 1;
        }
        let num_cores = revoker_cores
            .iter()
            .copied()
            .chain([APP_CORE])
            .max()
            .unwrap_or(0)
            .max(3)
            + 1;
        let mut machine = Machine::new(num_cores);
        let revoker = Revoker::new(
            RevokerConfig {
                strategy,
                revoker_cores,
                pte_mode: cfg.pte_mode,
            },
            layout.base,
            layout.total_len,
        );
        let mut heap = Mrs::new(
            layout,
            MrsConfig {
                min_quarantine_bytes: cfg.min_quarantine,
                quarantine_divisor: cfg.quarantine_divisor,
                colors: cfg.colors,
            },
        );
        // The root table: one permanently-live large allocation holding one
        // capability slot per object id.
        let root = heap
            .alloc(&mut machine, APP_CORE, cfg.max_objects * CAP_SIZE)
            .expect("arena must fit the root table")
            .cap;
        let app_thread = APP_CORE; // threads are created per core
        let interval = cfg.telemetry.sample_interval();
        let telemetry_on = interval.is_some();
        let mut revoker = revoker;
        if telemetry_on {
            // Component logging never charges cycles, so counters stay
            // bit-identical with it on; it is gated anyway so the default
            // path never touches the buffers.
            machine.set_event_recording(true);
            revoker.set_event_recording(true);
            heap.set_event_recording(true);
        }
        System {
            cfg,
            machine,
            revoker,
            heap,
            root,
            app_thread,
            live: FastSet::default(),
            wall: 0,
            app_cpu: 0,
            rev_cpu: 0,
            rev_mark: 0,
            stats: RunStats::default(),
            tx_start: FastMap::default(),
            next_arrival: 0,
            last_release_epoch: 0,
            reg_rr: 0,
            recorder: Recorder::new(),
            telemetry_on,
            next_sample: interval.unwrap_or(u64::MAX),
            sample_interval: interval.unwrap_or(0),
            epoch_trace: None,
            link_table: BTreeMap::new(),
            obj_gen: FastMap::default(),
        }
    }

    /// The simulated machine (for assertions in tests and examples).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The revoker (phase records, stats).
    #[must_use]
    pub fn revoker(&self) -> &Revoker {
        &self.revoker
    }

    /// The heap shim.
    #[must_use]
    pub fn heap(&self) -> &Mrs {
        &self.heap
    }

    /// Current wall clock in cycles.
    #[must_use]
    pub fn wall(&self) -> u64 {
        self.wall
    }

    /// Runs an op stream to completion and returns the [`RunReport`]
    /// (statistics + telemetry; derefs to [`RunStats`]). Batches are
    /// pulled from `source` into one reused buffer, so the resident
    /// footprint is O([`OP_BATCH`](crate::OP_BATCH) + generator state); a
    /// literal op list runs as `&mut ops.into_iter()`.
    pub fn run_stream<S: OpSource + ?Sized>(
        mut self,
        source: &mut S,
    ) -> Result<RunReport, SimError> {
        for_each_batch(source, |batch| self.exec_batch(batch))?;
        Ok(self.finish())
    }

    /// Executes a batch of operations: the one dispatch path, traced or
    /// not.
    ///
    /// Semantically identical to calling [`System::exec`] per op — the
    /// goldens and `tests/telemetry_paths.rs` pin this — but cheaper: runs
    /// of consecutive `Compute` (and separately `ThinkIdle`) ops collapse
    /// into one `advance` while the revoker is idle. That fusion is exact
    /// because the idle `pump_revoker` path only syncs `rev_mark` to the
    /// wall clock (and `maybe_release` is a no-op at any op boundary with
    /// no pass in flight), so N idle advances and one summed advance
    /// produce the same state. It is exact for telemetry too: an idle
    /// advance emits no event and moves no sampled counter, so draining
    /// and sampling after the fused run records what per-op hooks would.
    /// While a pass *is* in flight the per-op path is kept: sweep budgets
    /// overshoot at page granularity, so `background_step(a)` then
    /// `background_step(b)` is not `background_step(a + b)`. Data ops are
    /// never fused across op boundaries — each performs an architecturally
    /// visible capability load through the barrier — but each already
    /// issues its byte traffic as a single ranged access internally.
    /// A run stops before the op that would carry the clock past
    /// [`CLOCK_LIMIT`], which then fails alone, as it would per op.
    pub fn exec_batch(&mut self, ops: &[Op]) -> Result<(), SimError> {
        let mut i = 0;
        while i < ops.len() {
            let op = ops[i];
            i += 1;
            let result = match own_cycles(op) {
                Some((mut total, busy)) if !self.revoker.is_revoking() => {
                    while let Some((cycles, _)) =
                        ops.get(i).and_then(|&next| own_cycles(next)).filter(|&(_, b)| b == busy)
                    {
                        match total.checked_add(cycles) {
                            Some(t) if self.clock_check(t).is_ok() => total = t,
                            _ => break,
                        }
                        i += 1;
                    }
                    self.advance_op(total, busy)
                }
                _ => self.exec_op(op),
            };
            if self.telemetry_on {
                self.journal_component_events();
                self.poll_sample();
            }
            result?;
        }
        Ok(())
    }

    /// Moves the stamped event journal recorded so far into `out`, oldest
    /// first. Called between batches, it keeps the journal's ring from
    /// ever filling, so a run of any length is handed out whole; the
    /// final report's [`TelemetryData::events`](crate::TelemetryData)
    /// then holds only what was journaled after the last drain, and its
    /// `dropped_events` still counts every eviction. Empty while
    /// telemetry is off.
    pub fn drain_events(&mut self, out: &mut Vec<TimedEvent>) {
        self.recorder.drain_events(out);
    }

    /// Finalizes the run: drains any in-flight revocation and collects
    /// statistics plus whatever telemetry was recorded.
    #[must_use]
    pub fn finish(mut self) -> RunReport {
        // Let an in-flight pass finish (without charging the app).
        while self.revoker.is_revoking() && self.revoker_step(10_000_000, Drive::Finish) {}
        if self.telemetry_on {
            self.note_pass_progress();
            self.journal_component_events();
        }
        let condition = self.cfg.condition.label();
        let stats = self.collect_stats();
        RunReport::new(condition, stats, self.recorder.into_data())
    }

    fn collect_stats(&mut self) -> RunStats {
        let mut s = std::mem::take(&mut self.stats);
        s.wall_cycles = self.wall;
        s.app_cpu_cycles = self.app_cpu;
        s.revoker_cpu_cycles = self.rev_cpu;
        let rev_cores = self.revoker.cores().to_vec();
        let mut app_dram = 0;
        for core in 0..self.machine.num_cores() {
            let d = self.machine.mem().traffic(core).dram_transactions;
            if rev_cores.contains(&core) {
                s.revoker_dram += d;
            } else {
                app_dram += d;
            }
        }
        s.revoker_dram_per_core = rev_cores
            .iter()
            .map(|&core| self.machine.mem().traffic(core).dram_transactions)
            .collect();
        s.revoker_cores = rev_cores;
        s.app_dram = app_dram;
        s.peak_rss = self.machine.resident_bytes();
        let vs = self.machine.vm_stats();
        s.tlb_misses = vs.tlb_misses;
        s.tlb_shootdowns = vs.tlb_shootdowns;
        s.pte_writes = vs.pte_writes;
        let rs = self.revoker.stats();
        s.faults = rs.load_faults;
        s.fault_cycles = rs.fault_cycles;
        s.revocations = rs.epochs;
        s.pages_swept = rs.pages_swept;
        let ms = self.heap.stats();
        s.total_freed_bytes = ms.total_freed_bytes;
        s.allocs = ms.allocs;
        s.frees = ms.frees;
        s.mean_alloc_at_revocation = ms
            .allocated_at_revocation_sum
            .checked_div(ms.revocations_requested)
            .unwrap_or(0);
        s.blocked_allocs = ms.blocked_allocs;
        s.phases = self.revoker.phase_records().to_vec();
        s
    }

    /// Executes one operation (a batch of one: nothing to fuse).
    pub fn exec(&mut self, op: Op) -> Result<(), SimError> {
        self.exec_batch(std::slice::from_ref(&op))
    }

    fn exec_op(&mut self, op: Op) -> Result<(), SimError> {
        self.clock_check(0)?;
        match op {
            Op::Alloc { obj, size } => self.op_alloc(obj, size),
            Op::Free { obj } => self.op_free(obj),
            Op::LoadObj { obj } => self.op_load(obj),
            Op::ReadData { obj, len } => self.op_data(obj, len, false),
            Op::WriteData { obj, len } => self.op_data(obj, len, true),
            Op::LinkPtr { from, slot, to } => self.op_link(from, slot, to),
            Op::ChasePtr { from, slot } => self.op_chase(from, slot),
            Op::Compute { cycles } => self.advance_op(cycles, true),
            Op::ThinkIdle { cycles } => self.advance_op(cycles, false),
            Op::SyscallHoard { obj } => self.op_hoard(obj),
            Op::TxBegin { id } => {
                let mut start = self.wall;
                if let Some(interval) = self.cfg.tx_interval {
                    // The schedule starts at the first transaction, not at
                    // boot: warmup happens before the benchmark window.
                    let arrival = if self.next_arrival == 0 { self.wall } else { self.next_arrival };
                    // An arrival past 2^64 saturates, and the transaction
                    // that would wait for it is refused below.
                    let idle = arrival.saturating_sub(self.wall);
                    self.clock_check(idle)?;
                    self.next_arrival = arrival.saturating_add(interval);
                    if idle > 0 {
                        // Early: idle until the scheduled arrival.
                        self.advance(idle, false);
                        start = self.wall;
                    } else if self.cfg.latency_from_arrival {
                        // Late: the request queued while the server was
                        // behind; its latency includes the wait.
                        start = arrival;
                    }
                }
                self.tx_start.insert(id, start);
                Ok(())
            }
            Op::TxEnd { id } => {
                if let Some(start) = self.tx_start.remove(&id) {
                    self.stats.tx_latencies.push(self.wall - start);
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Time accounting
    // ------------------------------------------------------------------

    /// Refuses an op whose own `charge` would carry the wall clock past
    /// [`CLOCK_LIMIT`]; `clock_check(0)` refuses one that starts past it.
    fn clock_check(&self, charge: u64) -> Result<(), SimError> {
        match self.wall.checked_add(charge) {
            Some(end) if end <= CLOCK_LIMIT => Ok(()),
            _ => Err(SimError::ClockOverflow),
        }
    }

    /// [`System::advance`] by the cycles an op names itself, refused whole
    /// if they would carry the wall clock past [`CLOCK_LIMIT`].
    fn advance_op(&mut self, cycles: u64, busy: bool) -> Result<(), SimError> {
        let charged = self.wall_charge(cycles, busy);
        self.clock_check(charged)?;
        self.advance_charged(cycles, charged, busy);
        Ok(())
    }

    /// Advances the wall clock by `cycles` of application activity
    /// (`busy`: CPU-consuming) and pumps the background revoker across the
    /// same interval.
    fn advance(&mut self, cycles: u64, busy: bool) {
        self.advance_charged(cycles, self.wall_charge(cycles, busy), busy);
    }

    /// The wall cycles that `cycles` of application activity take. While
    /// the revoker competes for the application cores, busy time runs
    /// 1.5x (3 runnable threads on 2 cores). Saturates, so a charge past
    /// 2^64 fails [`System::clock_check`].
    fn wall_charge(&self, cycles: u64, busy: bool) -> u64 {
        if busy && !self.cfg.spare_revoker_core && self.revoker.is_revoking() {
            cycles.saturating_add(cycles / 2)
        } else {
            cycles
        }
    }

    /// [`System::advance`] with its wall charge already computed.
    fn advance_charged(&mut self, cycles: u64, charged: u64, busy: bool) {
        self.wall += charged;
        if busy {
            self.app_cpu += cycles;
        }
        self.pump_revoker(busy);
    }

    /// DRAM transactions issued so far across all revoker cores.
    fn revoker_dram_now(&self) -> u64 {
        self.revoker
            .cores()
            .iter()
            .map(|&core| self.machine.mem().traffic(core).dram_transactions)
            .sum()
    }

    /// Gives the background revoker the wall time that elapsed since its
    /// last pump. `app_busy` affects whether a final STW pause extends the
    /// wall clock (a pause inside idle time is hidden; §5.2 discussion).
    fn pump_revoker(&mut self, app_busy: bool) {
        if self.revoker.is_revoking() {
            let elapsed = self.wall.saturating_sub(self.rev_mark);
            // Without a spare core the revoker only gets a share of wall time.
            let budget = if self.cfg.spare_revoker_core { elapsed } else { elapsed * 2 / 3 };
            if budget == 0 {
                return;
            }
            self.revoker_step(budget, Drive::Pump { app_busy });
        }
        self.rev_mark = self.wall;
        if !self.revoker.is_revoking() {
            self.maybe_release();
        }
    }

    /// Blocks the application until the in-flight pass completes (mrs's
    /// hard-full behaviour).
    fn block_on_revocation(&mut self) {
        self.heap.note_blocked_alloc();
        let block_start = self.wall;
        let block_epoch = self.revoker.epoch();
        while self.revoker.is_revoking() && self.revoker_step(1_000_000, Drive::Block) {}
        if self.telemetry_on && self.wall > block_start {
            self.recorder.record_span(Span {
                kind: SpanKind::BlockedAlloc,
                epoch: block_epoch,
                start: block_start,
                end: self.wall,
                core: Some(APP_CORE),
                busy_cycles: self.wall - block_start,
            });
        }
        self.rev_mark = self.wall;
        self.maybe_release();
    }

    /// Runs one slice of at most `budget` cycles per revoker core, and
    /// the final stop-the-world phase if that slice drained Cornucopia's
    /// concurrent sweep. This is the one place a [`StepOutcome`] is read,
    /// so every revoker cycle is booked here: the slice's `used` whatever
    /// the outcome, then the pause. `drive` says what the application
    /// sees of either. Returns `false` if no pass was in flight.
    fn revoker_step(&mut self, budget: u64, drive: Drive) -> bool {
        let bus_stall = matches!(drive, Drive::Pump { app_busy: true }) && self.cfg.spare_revoker_core;
        let rev_dram_before = if bus_stall { self.revoker_dram_now() } else { 0 };
        let outcome = self.revoker.background_step(&mut self.machine, budget);
        if bus_stall {
            // Shared-bus contention: the sweep's DRAM traffic stalls the
            // application (§5.6). Only with a spare revoker core — when the
            // revoker time-slices with the application, its traffic is
            // serialized inside its own quantum and the CPU contention
            // factor already accounts for the slowdown.
            let penalty = (self.revoker_dram_now() - rev_dram_before) * BUS_PENALTY_PER_REV_TXN;
            self.wall += penalty;
            self.app_cpu += penalty;
        }
        let (used, final_stw) = match outcome {
            StepOutcome::Idle => return false,
            StepOutcome::Working { used } | StepOutcome::Finished { used } => (used, false),
            StepOutcome::NeedsFinalStw { used } => (used, true),
        };
        self.rev_cpu += used;
        if drive == Drive::Block {
            self.wall += used;
            self.stats.blocked_cycles += used;
        }
        if final_stw {
            let pause = self.revoker.finish_stw(&mut self.machine, self.cfg.app_threads);
            self.book_pause(pause);
            match drive {
                // The world (including the app) stops.
                Drive::Pump { app_busy: true } => self.wall += pause,
                Drive::Block => {
                    self.wall += pause;
                    self.stats.blocked_cycles += pause;
                }
                Drive::Pump { app_busy: false } | Drive::Finish => {}
            }
        }
        true
    }

    /// Starts a revocation pass now (policy fired during `free`).
    fn start_revocation(&mut self) {
        let pause = self.revoker.start_epoch_with_busy_threads(&mut self.machine, self.cfg.app_threads);
        self.book_pause(pause);
        if self.telemetry_on {
            self.epoch_trace = Some(EpochTrace {
                epoch: self.revoker.epoch(),
                start: self.wall,
                concurrent_start: self.wall + pause,
                core_marks: self.revoker.per_core_concurrent_cycles().to_vec(),
            });
        }
        self.wall += pause;
        self.rev_mark = self.wall;
        self.maybe_release();
    }

    /// Books a stop-the-world pause: to the pause list, to revoker CPU,
    /// and as a span starting at the *current* wall position. Callers book
    /// before adding the pause to the wall clock, so the span covers the
    /// world-stopped window itself; a pause hidden inside idle time (or
    /// after the last op, in [`System::finish`]) still gets its true width
    /// even though the wall does not move.
    fn book_pause(&mut self, pause: u64) {
        self.stats.pauses.push(pause);
        self.rev_cpu += pause;
        if self.telemetry_on {
            self.recorder.record_span(Span {
                kind: SpanKind::StwPause,
                epoch: self.revoker.epoch(),
                start: self.wall,
                end: self.wall + pause,
                core: None,
                busy_cycles: pause,
            });
        }
    }

    /// Releases quarantine batches if the epoch advanced.
    fn maybe_release(&mut self) {
        if self.telemetry_on {
            self.note_pass_progress();
        }
        let e = self.revoker.epoch();
        if e != self.last_release_epoch {
            self.last_release_epoch = e;
            let c = self.heap.poll_release(&mut self.machine, &mut self.revoker, APP_CORE);
            self.wall += c;
            self.app_cpu += c;
        }
    }

    // ------------------------------------------------------------------
    // Telemetry plumbing (dormant while telemetry is off: every entry
    // point is behind the `telemetry_on` flag or the
    // `next_sample == u64::MAX` sentinel)
    // ------------------------------------------------------------------

    /// If the traced pass has completed, emits its per-core concurrent
    /// sweep spans and the whole-epoch span (Figure 9's per-phase data).
    fn note_pass_progress(&mut self) {
        if self.revoker.is_revoking() {
            return;
        }
        let Some(trace) = self.epoch_trace.take() else { return };
        let per_core = self.revoker.per_core_concurrent_cycles();
        let mut busy_total = 0;
        for (i, &core) in self.revoker.cores().iter().enumerate() {
            let before = trace.core_marks.get(i).copied().unwrap_or(0);
            let delta = per_core.get(i).copied().unwrap_or(0).saturating_sub(before);
            if delta > 0 {
                busy_total += delta;
                self.recorder.record_span(Span {
                    kind: SpanKind::ConcurrentSweep,
                    epoch: trace.epoch,
                    start: trace.concurrent_start,
                    end: self.wall,
                    core: Some(core),
                    busy_cycles: delta,
                });
            }
        }
        self.recorder.record_span(Span {
            kind: SpanKind::Epoch,
            epoch: trace.epoch,
            start: trace.start,
            end: self.wall,
            core: None,
            busy_cycles: busy_total,
        });
    }

    /// Moves component event logs into the recorder, stamped with the
    /// current wall cycle (components have no clock of their own; op
    /// granularity is the journal's resolution).
    fn journal_component_events(&mut self) {
        let (at, rec) = (self.wall, &mut self.recorder);
        for e in self.machine.drain_events() {
            rec.record_event(at, TelemetryEvent::Vm(e));
        }
        for e in self.revoker.drain_events() {
            rec.record_event(at, TelemetryEvent::Revoker(e));
        }
        for e in self.heap.drain_events() {
            rec.record_event(at, TelemetryEvent::Alloc(e));
        }
    }

    /// Emits a counter snapshot for every sampling boundary the wall
    /// clock crossed since the last poll. The counters do not move
    /// between those boundaries, so past the series ring's capacity only
    /// the last `SERIES_CAPACITY` are taken and the earlier ones are
    /// counted as dropped: the ring ends as a per-boundary loop would
    /// leave it, at a cost bounded by the ring, not by the cycles crossed.
    fn poll_sample(&mut self) {
        if self.wall < self.next_sample {
            return;
        }
        let crossed = (self.wall - self.next_sample) / self.sample_interval + 1;
        let skipped = crossed.saturating_sub(SERIES_CAPACITY as u64);
        self.recorder.skip_samples(skipped);
        self.next_sample += skipped * self.sample_interval;
        while self.wall >= self.next_sample {
            let at = self.next_sample;
            self.take_sample(at);
            self.next_sample = self.next_sample.saturating_add(self.sample_interval);
        }
    }

    fn take_sample(&mut self, at: u64) {
        let revoker_dram = self.revoker_dram_now();
        let mut total_dram = 0;
        for core in 0..self.machine.num_cores() {
            total_dram += self.machine.mem().traffic(core).dram_transactions;
        }
        let vs = self.machine.vm_stats();
        self.recorder.record_sample(Sample {
            at,
            rss_bytes: self.machine.resident_bytes(),
            allocated_bytes: self.heap.allocated_bytes(),
            quarantine_bytes: self.heap.quarantine_bytes(),
            app_dram: total_dram - revoker_dram,
            revoker_dram,
            faults: self.revoker.stats().load_faults,
            fault_cycles: self.revoker.stats().fault_cycles,
            blocked_cycles: self.stats.blocked_cycles,
            tlb_misses: vs.tlb_misses,
            epochs: self.revoker.stats().epochs,
        });
    }

    // ------------------------------------------------------------------
    // Capability plumbing
    // ------------------------------------------------------------------

    fn slot_auth(&self, obj: ObjId) -> Capability {
        self.root.set_addr(self.root.base() + (obj % self.cfg.max_objects) * CAP_SIZE)
    }

    /// Drops every instrument link entry whose slot address falls in
    /// `[base, base + len)`. Matches the physical tag-destruction range
    /// exactly: slots are 16-aligned, and `clear_tag_range` clears every
    /// granule overlapping the written bytes, so a slot at `base + 16*e`
    /// loses its tag iff `base + 16*e < base + len`.
    fn instrument_clear_range(&mut self, base: u64, len: u64) {
        if len == 0 {
            return;
        }
        let doomed: Vec<u64> =
            self.link_table.range(base..base.saturating_add(len)).map(|(&a, _)| a).collect();
        for addr in doomed {
            self.link_table.remove(&addr);
        }
    }

    /// Notes that `obj` just became a fresh object (`Alloc` of
    /// `cap`): bumps its identity generation and forgets links stored in
    /// the reused storage (the allocator never scrubs, but the previous
    /// owner's links are not the new object's).
    fn instrument_new_object(&mut self, obj: ObjId, cap: Capability) {
        *self.obj_gen.entry(obj).or_insert(0) += 1;
        self.instrument_clear_range(cap.base(), cap.len());
    }

    /// Classifies and journals a pointer chase that dereferenced a link
    /// whose target is no longer the object it was stored for.
    fn instrument_stale_chase(&mut self, from: ObjId, slot: u64, to: ObjId, loaded: Capability) {
        let outcome = if !loaded.is_tagged() {
            StaleChaseOutcome::Revoked
        } else if self.revoker.bitmap().probe(loaded.base()) {
            StaleChaseOutcome::Quarantined
        } else {
            StaleChaseOutcome::Escaped
        };
        self.recorder.record_event(self.wall, TelemetryEvent::StaleChase { from, slot, to, outcome });
    }

    /// Loads a capability through the load barrier, handling (and
    /// charging) generation faults.
    fn barrier_load(&mut self, auth: &Capability) -> Result<(Capability, u64), SimError> {
        let mut cycles = 0;
        loop {
            match self.machine.load_cap(APP_CORE, auth) {
                Ok((cap, c)) => {
                    cycles += c;
                    let (cap, fc) = self.revoker.filter_loaded(&mut self.machine, APP_CORE, cap);
                    cycles += fc;
                    // Stash in a register so epoch entry has hoards to scan.
                    self.reg_rr = (self.reg_rr + 1) % 24;
                    self.machine.regs_mut(self.app_thread).set(4 + self.reg_rr, cap);
                    return Ok((cap, cycles));
                }
                Err(VmFault::CapLoadGeneration { vaddr }) => {
                    let fc = self.revoker.handle_load_fault(&mut self.machine, APP_CORE, vaddr);
                    cycles += fc;
                    self.maybe_release();
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn load_obj(&mut self, obj: ObjId) -> Result<(Capability, u64), SimError> {
        if !self.live.contains(&obj) {
            return Err(SimError::UnknownObj(obj));
        }
        let auth = self.slot_auth(obj);
        let (cap, cycles) = self.barrier_load(&auth)?;
        if !cap.is_tagged() {
            return Err(SimError::UnknownObj(obj));
        }
        Ok((cap, cycles))
    }

    // ------------------------------------------------------------------
    // Op implementations
    // ------------------------------------------------------------------

    fn op_alloc(&mut self, obj: ObjId, size: u64) -> Result<(), SimError> {
        if self.live.contains(&obj) {
            return Err(SimError::SlotBusy(obj));
        }
        if matches!(self.cfg.condition, Condition::Safe(_)) && self.heap.must_block(&self.revoker) {
            self.block_on_revocation();
        }
        let allocation = match self.heap.alloc(&mut self.machine, APP_CORE, size) {
            Ok(a) => a,
            Err(AllocError::OutOfMemory) => {
                // Force quarantine turnover, then retry once.
                if matches!(self.cfg.condition, Condition::Safe(_)) {
                    if !self.revoker.is_revoking() {
                        self.heap.seal_for(&self.revoker, cheri_alloc::RevocationReason::OomForced);
                        self.start_revocation();
                    }
                    self.block_on_revocation();
                    self.heap
                        .alloc(&mut self.machine, APP_CORE, size)
                        .map_err(|_| SimError::OutOfMemory)?
                } else {
                    return Err(SimError::OutOfMemory);
                }
            }
            Err(e) => return Err(e.into()),
        };
        let auth = self.slot_auth(obj);
        let c = self.machine.store_cap(APP_CORE, &auth, allocation.cap)?;
        self.live.insert(obj);
        if self.telemetry_on {
            self.instrument_new_object(obj, allocation.cap);
        }
        self.advance(allocation.cycles + c + 20, true);
        Ok(())
    }

    fn op_free(&mut self, obj: ObjId) -> Result<(), SimError> {
        let (cap, c1) = self.load_obj(obj)?;
        let effect = match self.cfg.condition {
            Condition::Baseline => {
                let c = self.heap.free_immediate(&mut self.machine, APP_CORE, cap)?;
                cheri_alloc::FreeEffect { cycles: c, trigger_revocation: false }
            }
            Condition::Safe(_) => self.heap.free(&mut self.machine, &mut self.revoker, APP_CORE, cap)?,
        };
        let auth = self.slot_auth(obj);
        let c2 = self.machine.store_cap(APP_CORE, &auth, Capability::null())?;
        self.live.remove(&obj);
        self.advance(c1 + effect.cycles + c2 + 20, true);
        if effect.trigger_revocation {
            self.start_revocation();
        }
        Ok(())
    }

    fn op_load(&mut self, obj: ObjId) -> Result<(), SimError> {
        let (_, c) = self.load_obj(obj)?;
        self.advance(c + 4, true);
        Ok(())
    }

    fn op_data(&mut self, obj: ObjId, len: u64, write: bool) -> Result<(), SimError> {
        let (cap, c1) = self.load_obj(obj)?;
        let len = len.clamp(1, cap.len().max(1));
        let c2 = if write {
            self.machine.write_data(APP_CORE, &cap, len)?
        } else {
            self.machine.read_data(APP_CORE, &cap, len)?
        };
        if write && self.telemetry_on {
            // The write destroyed the tags of every granule it overlapped.
            self.instrument_clear_range(cap.base(), len);
        }
        self.advance(c1 + c2 + len / 8, true);
        Ok(())
    }

    fn op_link(&mut self, from: ObjId, slot: u64, to: ObjId) -> Result<(), SimError> {
        let (fcap, c1) = self.load_obj(from)?;
        let (tcap, c2) = self.load_obj(to)?;
        let Some(auth) = cap_slot(&fcap, slot) else {
            self.advance(c1 + c2, true);
            return Ok(());
        };
        let c3 = self.machine.store_cap(APP_CORE, &auth, tcap)?;
        if self.telemetry_on {
            let to_gen = self.obj_gen.get(&to).copied().unwrap_or(0);
            self.link_table.insert(auth.addr(), LinkEntry { to, to_gen });
        }
        self.advance(c1 + c2 + c3 + 8, true);
        Ok(())
    }

    fn op_chase(&mut self, from: ObjId, slot: u64) -> Result<(), SimError> {
        let (fcap, c1) = self.load_obj(from)?;
        let Some(auth) = cap_slot(&fcap, slot) else {
            self.advance(c1, true);
            return Ok(());
        };
        let (loaded, c2) = self.barrier_load(&auth)?;
        if self.telemetry_on {
            if let Some(entry) = self.link_table.get(&auth.addr()).copied() {
                let target_alive = self.live.contains(&entry.to)
                    && self.obj_gen.get(&entry.to).copied().unwrap_or(0) == entry.to_gen;
                if !target_alive {
                    self.instrument_stale_chase(from, slot, entry.to, loaded);
                }
            }
        }
        self.advance(c1 + c2 + 4, true);
        Ok(())
    }

    fn op_hoard(&mut self, obj: ObjId) -> Result<(), SimError> {
        let (cap, c) = self.load_obj(obj)?;
        let kind = match obj % 3 {
            0 => cornucopia::HoardKind::Kqueue,
            1 => cornucopia::HoardKind::Aio,
            _ => cornucopia::HoardKind::SavedContext,
        };
        self.revoker.hoards_mut().deposit(kind, cap);
        self.advance(c + 500, true); // syscall overhead
        Ok(())
    }
}

/// The cycles `Compute` (busy) and `ThinkIdle` (idle) name themselves:
/// the ops [`System::exec_batch`] fuses.
fn own_cycles(op: Op) -> Option<(u64, bool)> {
    match op {
        Op::Compute { cycles } => Some((cycles, true)),
        Op::ThinkIdle { cycles } => Some((cycles, false)),
        _ => None,
    }
}

/// The authority for 16-byte capability slot `slot` within `obj`, if the
/// object has room for capability slots.
fn cap_slot(obj: &Capability, slot: u64) -> Option<Capability> {
    let slots = obj.len() / CAP_SIZE;
    if slots == 0 {
        return None;
    }
    // Slot addresses must be 16-aligned: round the object base up.
    let first = obj.base().div_ceil(CAP_SIZE) * CAP_SIZE;
    if first + CAP_SIZE > obj.top() {
        return None;
    }
    let usable = (obj.top() - first) / CAP_SIZE;
    Some(obj.set_addr(first + (slot % usable) * CAP_SIZE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;

    fn churn_ops(n: u64, size: u64) -> std::vec::IntoIter<Op> {
        let mut ops = Vec::new();
        for i in 0..n {
            ops.push(Op::TxBegin { id: i });
            ops.push(Op::Alloc { obj: i % 64, size });
            ops.push(Op::WriteData { obj: i % 64, len: size });
            ops.push(Op::LinkPtr { from: i % 64, slot: 0, to: i % 64 });
            ops.push(Op::ChasePtr { from: i % 64, slot: 0 });
            ops.push(Op::Free { obj: i % 64 });
            ops.push(Op::TxEnd { id: i });
        }
        ops.into_iter()
    }

    fn run(condition: Condition, min_q: u64) -> RunStats {
        let cfg = SimConfig::builder().condition(condition).min_quarantine(min_q).build().unwrap();
        System::new(cfg).run_stream(&mut churn_ops(2000, 4096)).unwrap().into_stats()
    }

    #[test]
    fn all_conditions_complete_the_same_workload() {
        for c in [
            Condition::baseline(),
            Condition::paint_sync(),
            Condition::cherivoke(),
            Condition::cornucopia(),
            Condition::reloaded(),
        ] {
            let s = run(c, 256 << 10);
            assert_eq!(s.tx_latencies.len(), 2000, "{}", c.label());
            assert_eq!(s.allocs, 2001, "{}", c.label()); // + root table
            assert_eq!(s.frees, 2000, "{}", c.label());
        }
    }

    #[test]
    fn safe_strategies_actually_revoke() {
        for c in [Condition::cherivoke(), Condition::cornucopia(), Condition::reloaded()] {
            let s = run(c, 256 << 10);
            assert!(s.revocations > 0, "{} never revoked", c.label());
        }
    }

    #[test]
    fn revocation_makes_runs_slower_than_baseline() {
        let base = run(Condition::baseline(), 256 << 10);
        for c in [Condition::cherivoke(), Condition::cornucopia(), Condition::reloaded()] {
            let s = run(c, 256 << 10);
            assert!(
                s.wall_cycles > base.wall_cycles,
                "{} unexpectedly faster than baseline",
                c.label()
            );
        }
    }

    #[test]
    fn reloaded_pauses_are_far_shorter_than_cherivoke() {
        let cv = run(Condition::cherivoke(), 256 << 10);
        let rel = run(Condition::reloaded(), 256 << 10);
        let max_cv = cv.pauses.iter().copied().max().unwrap();
        let max_rel = rel.pauses.iter().copied().max().unwrap();
        assert!(
            max_rel * 3 < max_cv,
            "Reloaded max pause {max_rel} not well below CHERIvoke {max_cv}"
        );
    }

    #[test]
    fn reloaded_takes_load_faults_cornucopia_does_not() {
        let rel = run(Condition::reloaded(), 256 << 10);
        let corn = run(Condition::cornucopia(), 256 << 10);
        assert!(rel.faults > 0, "pointer churn under Reloaded must fault");
        assert_eq!(corn.faults, 0);
    }

    #[test]
    fn deterministic_given_same_ops() {
        let a = run(Condition::reloaded(), 256 << 10);
        let b = run(Condition::reloaded(), 256 << 10);
        assert_eq!(a.wall_cycles, b.wall_cycles);
        assert_eq!(a.tx_latencies, b.tx_latencies);
        assert_eq!(a.total_dram(), b.total_dram());
    }

    #[test]
    fn multi_core_revoker_attributes_dram_per_core() {
        let cfg = SimConfig::builder()
            .condition(Condition::reloaded())
            .revoker_threads(4)
            .min_quarantine(256 << 10)
            .build()
            .unwrap();
        let s = System::new(cfg).run_stream(&mut churn_ops(2000, 4096)).unwrap();
        assert_eq!(s.revoker_cores, [REV_CORE, 0, 1, 4], "REV_CORE, then the lowest ids bar APP_CORE");
        assert!(!s.revoker_cores.contains(&APP_CORE));
        let mut distinct = s.revoker_cores.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "revoker cores must be distinct");
        assert_eq!(s.revoker_dram, s.revoker_dram_per_core.iter().sum::<u64>());
        assert!(
            s.revoker_dram_per_core.iter().filter(|&&d| d > 0).count() >= 2,
            "sweep traffic should land on multiple cores, got {:?}",
            s.revoker_dram_per_core
        );
    }

    #[test]
    fn coloured_reloaded_does_the_same_work_with_fewer_revocations() {
        let plain = run(Condition::reloaded(), 256 << 10);
        let cfg = SimConfig::builder()
            .condition(Condition::reloaded())
            .min_quarantine(256 << 10)
            .colors(4)
            .build()
            .unwrap();
        let colored = System::new(cfg).run_stream(&mut churn_ops(2000, 4096)).unwrap();
        assert_eq!((colored.allocs, colored.frees), (plain.allocs, plain.frees));
        assert!(
            colored.revocations < plain.revocations,
            "4 colours: {} revocations, plain: {}",
            colored.revocations,
            plain.revocations
        );
    }

    #[test]
    fn quarantine_inflates_peak_rss() {
        let base = run(Condition::baseline(), 256 << 10);
        let rel = run(Condition::reloaded(), 256 << 10);
        assert!(rel.peak_rss > base.peak_rss);
    }

    #[test]
    fn rate_schedule_spaces_transactions() {
        let interval = 2_000_000u64;
        let cfg = SimConfig::builder()
            .condition(Condition::baseline())
            .tx_interval(interval)
            .build()
            .unwrap();
        let s = System::new(cfg).run_stream(&mut churn_ops(50, 256)).unwrap();
        // Wall must cover the schedule span.
        assert!(s.wall_cycles >= interval * 49);
    }

    #[test]
    fn oom_recovers_via_forced_revocation() {
        // Tiny arena: the live set fits, but only with quarantine turnover.
        let cfg = SimConfig::builder()
            .condition(Condition::reloaded())
            .heap_len(4 << 20)
            .max_objects(1 << 10)
            .min_quarantine(64 << 10)
            .build()
            .unwrap();
        let s = System::new(cfg).run_stream(&mut churn_ops(3000, 8192)).unwrap();
        assert!(s.revocations > 0);
    }

    /// The full OOM forced-turnover path: with the policy floor raised to
    /// the arena size, the free path can never trigger, so the *only* way
    /// the workload completes is seal → start_revocation → block → retry.
    #[test]
    fn oom_forced_turnover_blocks_then_retry_succeeds() {
        let cfg = SimConfig::builder()
            .condition(Condition::reloaded())
            .heap_len(4 << 20)
            .max_objects(1 << 10)
            .min_quarantine(4 << 20)
            .telemetry(TelemetryConfig::full(50_000_000))
            .build()
            .unwrap();
        let report = System::new(cfg).run_stream(&mut churn_ops(3000, 8192)).unwrap();
        // Every retry succeeded (run returned Ok) and every pass was forced
        // by OOM, never by free-path policy.
        assert!(report.revocations > 0, "forced turnover never ran");
        assert!(report.blocked_allocs > 0, "blocking retries must be counted");
        assert!(report.blocked_cycles > 0, "blocked wall time must be attributed");
        // churn + root table, with failed first attempts re-counted on retry
        assert!(report.allocs >= 3001);
        assert_eq!(report.frees, 3000, "every churn object must still be freed");
        let reasons: Vec<cheri_alloc::RevocationReason> = report
            .telemetry()
            .events
            .iter()
            .filter_map(|e| match e.event {
                crate::telemetry::TelemetryEvent::Alloc(
                    cheri_alloc::AllocEvent::RevocationRequested { reason, .. },
                ) => Some(reason),
                _ => None,
            })
            .collect();
        assert!(!reasons.is_empty(), "forced seals must reach the journal");
        assert!(
            reasons.iter().all(|r| *r == cheri_alloc::RevocationReason::OomForced),
            "expected only oom_forced requests, got {reasons:?}"
        );
    }

    /// Forced turnover under Cornucopia: every pass starts at an OOM and
    /// runs to its end while the allocation waits, with no entry pause.
    /// So the wait is exactly the pass's phases, the slice that drains the
    /// concurrent phase included, and so is the revoker's CPU.
    #[test]
    fn a_blocked_cornucopia_alloc_waits_for_the_draining_slice() {
        let cfg = SimConfig::builder()
            .condition(Condition::cornucopia())
            .heap_len(4 << 20)
            .max_objects(1 << 10)
            .min_quarantine(4 << 20)
            .build()
            .unwrap();
        let s = System::new(cfg).run_stream(&mut churn_ops(3000, 8192)).unwrap().into_stats();
        assert!(s.revocations > 0 && s.blocked_allocs > 0, "no forced turnover");
        let phases: u64 = s.phases.iter().map(|p| p.cycles).sum();
        assert_eq!(s.blocked_cycles, phases, "the blocked wait is not the whole pass");
        assert_eq!(s.revoker_cpu_cycles, phases);
    }

    #[test]
    fn op_errors_are_reported() {
        let cfg = SimConfig::default();
        let mut sys = System::new(cfg);
        assert_eq!(sys.exec(Op::Free { obj: 7 }), Err(SimError::UnknownObj(7)));
        sys.exec(Op::Alloc { obj: 7, size: 64 }).unwrap();
        assert_eq!(sys.exec(Op::Alloc { obj: 7, size: 64 }), Err(SimError::SlotBusy(7)));
    }

    #[test]
    fn a_malloc_near_size_max_is_out_of_memory() {
        for condition in [Condition::baseline(), Condition::reloaded()] {
            let mut sys = System::new(SimConfig::default().with_condition(condition));
            for size in [u64::MAX, u64::MAX - (16 << 10) + 1] {
                let got = sys.exec(Op::Alloc { obj: 1, size });
                assert_eq!(got, Err(SimError::OutOfMemory), "{} size {size:#x}", condition.label());
            }
            sys.exec(Op::Alloc { obj: 1, size: 64 }).unwrap();
        }
    }

    fn all_conditions() -> [Condition; 5] {
        [
            Condition::baseline(),
            Condition::paint_sync(),
            Condition::cherivoke(),
            Condition::cornucopia(),
            Condition::reloaded(),
        ]
    }

    /// `(wall, app_cpu)` at the end of a run.
    fn clocks(sys: System) -> (u64, u64) {
        let s = sys.finish();
        (s.wall_cycles, s.app_cpu_cycles)
    }

    #[test]
    fn cycles_that_would_wrap_the_clock_are_refused_before_it_moves() {
        const HALF: u64 = 1 << 63;
        for condition in all_conditions() {
            for busy in [true, false] {
                let op = |cycles| if busy { Op::Compute { cycles } } else { Op::ThinkIdle { cycles } };
                let label = format!("{} {:?}", condition.label(), op(0));
                let mut sys = System::new(SimConfig::default().with_condition(condition));
                sys.exec(Op::Alloc { obj: 1, size: 64 }).unwrap();
                let (wall, cpu) = (sys.wall(), sys.app_cpu);
                for _ in 0..2 {
                    assert_eq!(sys.exec(op(u64::MAX)), Err(SimError::ClockOverflow), "{label}");
                }
                assert_eq!((sys.wall(), sys.app_cpu), (wall, cpu), "{label}: a refused op moved a clock");
                // A fused run stops before the op that would wrap it,
                // which then fails alone.
                let got = sys.exec_batch(&[op(HALF), op(HALF), op(1)]);
                assert_eq!(got, Err(SimError::ClockOverflow), "{label}");
                let cpu = if busy { cpu + HALF } else { cpu };
                assert_eq!(clocks(sys), (wall + HALF, cpu), "{label}");
            }
        }
    }

    #[test]
    fn an_op_that_starts_past_the_clock_limit_is_refused() {
        let mut sys = System::new(SimConfig::default().with_condition(Condition::reloaded()));
        sys.exec(Op::Compute { cycles: CLOCK_LIMIT }).unwrap();
        // An op may start at the limit; its own cost carries the clock past.
        sys.exec(Op::Alloc { obj: 1, size: 64 }).unwrap();
        let wall = sys.wall();
        assert!(wall > CLOCK_LIMIT);
        for op in [Op::LoadObj { obj: 1 }, Op::TxEnd { id: 0 }, Op::Compute { cycles: 0 }] {
            assert_eq!(sys.exec(op), Err(SimError::ClockOverflow), "{op:?}");
        }
        assert_eq!(sys.wall(), wall);
    }

    #[test]
    fn a_transaction_schedule_past_the_clock_limit_is_refused() {
        for condition in all_conditions() {
            let cfg = SimConfig::builder().condition(condition).tx_interval(u64::MAX).build().unwrap();
            let mut sys = System::new(cfg);
            sys.exec(Op::Compute { cycles: 1000 }).unwrap();
            sys.exec(Op::TxBegin { id: 0 }).unwrap();
            for id in [1, 1] {
                assert_eq!(sys.exec(Op::TxBegin { id }), Err(SimError::ClockOverflow), "{}", condition.label());
            }
            sys.exec(Op::TxEnd { id: 0 }).unwrap();
            let s = sys.finish();
            assert_eq!((s.wall_cycles, s.tx_latencies.len()), (1000, 1), "{}", condition.label());
        }
    }

    fn telemetry_cfg(condition: Condition) -> SimConfig {
        SimConfig::builder()
            .condition(condition)
            .min_quarantine(256 << 10)
            .telemetry(TelemetryConfig::full(500_000))
            .build()
            .unwrap()
    }

    #[test]
    fn telemetry_does_not_perturb_the_simulation() {
        let plain = run(Condition::reloaded(), 256 << 10);
        let traced = System::new(telemetry_cfg(Condition::reloaded()))
            .run_stream(&mut churn_ops(2000, 4096))
            .unwrap();
        assert_eq!(plain.wall_cycles, traced.wall_cycles);
        assert_eq!(plain.tx_latencies, traced.tx_latencies);
        assert_eq!(plain.total_dram(), traced.total_dram());
        assert_eq!(plain.pauses, traced.pauses);
    }

    /// Telemetry off (the default) records nothing.
    #[test]
    fn null_sink_collects_nothing() {
        let cfg = SimConfig::builder().min_quarantine(256 << 10).build().unwrap();
        let report = System::new(cfg).run_stream(&mut churn_ops(500, 4096)).unwrap();
        assert!(report.telemetry().is_empty());
    }

    #[test]
    fn recorder_captures_events_spans_and_samples() {
        use crate::telemetry::{SpanKind, TelemetryEvent};
        let report = System::new(telemetry_cfg(Condition::reloaded()))
            .run_stream(&mut churn_ops(2000, 4096))
            .unwrap();
        let t = report.telemetry();
        assert!(!t.samples.is_empty(), "sampler never fired");
        assert!(t.samples.windows(2).all(|w| w[0].at < w[1].at), "samples not monotonic");
        assert!(t.samples.iter().any(|s| s.revoker_dram > 0));
        // The journal saw both revoker lifecycle and allocator policy events.
        let labels: Vec<&str> = t.events.iter().map(|e| e.event.label()).collect();
        assert!(labels.contains(&"epoch_begin"));
        assert!(labels.contains(&"epoch_end"));
        assert!(labels.contains(&"generation_flip"));
        assert!(labels.contains(&"revocation_requested"));
        assert!(labels.contains(&"batch_sealed"));
        // Spans: per-pass Epoch + StwPause + at least one concurrent sweep.
        let epochs = t.spans.iter().filter(|sp| sp.kind == SpanKind::Epoch).count() as u64;
        assert_eq!(epochs, report.revocations);
        assert_eq!(
            t.spans.iter().filter(|sp| sp.kind == SpanKind::StwPause).count(),
            report.pauses.len()
        );
        let sweep = t
            .spans
            .iter()
            .find(|sp| sp.kind == SpanKind::ConcurrentSweep)
            .expect("reloaded passes have a concurrent phase");
        assert!(sweep.core.is_some());
        assert!(sweep.busy_cycles > 0);
        assert!(sweep.start <= sweep.end);
        // Every span nests inside its epoch's window.
        for sp in &t.spans {
            assert!(sp.start <= sp.end, "inverted span {sp:?}");
        }
        // Events timestamped within the run.
        assert!(t.events.iter().all(|e| e.at <= report.wall_cycles));
        let _ = t.events.iter().filter(|e| matches!(e.event, TelemetryEvent::Vm(_))).count();
    }

    #[test]
    fn report_json_is_byte_identical_across_runs() {
        let a = System::new(telemetry_cfg(Condition::reloaded()))
            .run_stream(&mut churn_ops(1000, 4096))
            .unwrap()
            .to_json();
        let b = System::new(telemetry_cfg(Condition::reloaded()))
            .run_stream(&mut churn_ops(1000, 4096))
            .unwrap()
            .to_json();
        assert_eq!(a, b);
        let v = crate::json::Json::parse(&a).unwrap();
        assert_eq!(v.get("condition").unwrap().as_str(), Some("Reloaded"));
        assert!(!v.get("spans").unwrap().as_arr().unwrap().is_empty());
    }

    /// `TelemetryConfig::full` is the one way telemetry turns on, and it
    /// turns on all three channels.
    #[test]
    fn custom_sink_receives_telemetry() {
        let cfg = SimConfig::builder()
            .min_quarantine(256 << 10)
            .telemetry(TelemetryConfig::full(1_000_000))
            .build()
            .unwrap();
        let report = System::new(cfg).run_stream(&mut churn_ops(1000, 4096)).unwrap();
        let t = report.telemetry();
        assert!(!t.events.is_empty(), "no events");
        assert!(!t.spans.is_empty(), "no spans");
        assert!(!t.samples.is_empty(), "no samples");
        assert_eq!((t.dropped_events, t.dropped_samples), (0, 0));
    }

    fn sampled(interval: u64, ops: Vec<Op>) -> (RunStats, crate::telemetry::TelemetryData) {
        let cfg = SimConfig::builder().telemetry(TelemetryConfig::full(interval)).build().unwrap();
        let mut sys = System::new(cfg);
        sys.exec_batch(&ops).unwrap();
        let report = sys.finish();
        (report.stats().clone(), report.telemetry().clone())
    }

    /// One op that crosses 2^30 sampling boundaries costs the host what
    /// the sample ring holds, not one sample per boundary.
    #[test]
    fn sampling_cost_is_bounded_by_the_ring_not_the_cycles_crossed() {
        let (stats, t) = simtest::within_3s(|| {
            sampled(1_000_000, vec![Op::Compute { cycles: 1 << 50 }])
        });
        let crossed = stats.wall_cycles / 1_000_000;
        assert!(crossed > 1 << 30, "{crossed}");
        assert_eq!(t.samples.len(), SERIES_CAPACITY);
        assert_eq!(t.dropped_samples + t.samples.len() as u64, crossed);
        assert_eq!(t.samples.last().map(|s| s.at), Some(crossed * 1_000_000));
    }

    /// A few boundaries past the ring, on top of samples already held,
    /// keeps exactly the stamps one sample per boundary would have kept.
    #[test]
    fn a_poll_past_the_ring_keeps_the_stamps_of_the_per_boundary_loop() {
        const INTERVAL: u64 = 1000;
        let ring = SERIES_CAPACITY as u64;
        let ops = vec![
            Op::Compute { cycles: 3 * INTERVAL + 500 },
            Op::Alloc { obj: 1, size: 64 },
            Op::Compute { cycles: (ring + 5) * INTERVAL },
        ];
        let (stats, t) = sampled(INTERVAL, ops);
        let crossed = stats.wall_cycles / INTERVAL;
        assert!(crossed > ring + 5, "{crossed}");
        let kept: Vec<u64> = t.samples.iter().map(|s| s.at).collect();
        let expected: Vec<u64> = (crossed - ring + 1..=crossed).map(|k| k * INTERVAL).collect();
        assert_eq!(kept, expected);
        assert_eq!(t.dropped_samples, crossed - ring);
    }

    /// A sampling interval of half the clock's range: the boundary after
    /// the first sample lies past 2^64, so sampling stops there rather
    /// than wrapping the next boundary back to zero.
    #[test]
    fn a_boundary_past_the_end_of_time_is_never_sampled() {
        const HALF: u64 = 1 << 63;
        let ops = vec![
            Op::Compute { cycles: HALF },
            Op::Alloc { obj: 1, size: 64 },
            Op::Compute { cycles: 1 },
        ];
        let (_, t) = simtest::within_3s(move || sampled(HALF, ops));
        let stamps: Vec<u64> = t.samples.iter().map(|s| s.at).collect();
        assert_eq!((stamps, t.dropped_samples), (vec![HALF], 0));
    }
}
