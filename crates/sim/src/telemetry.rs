//! Telemetry: a typed span/event journal plus a counter time-series
//! sampler, switched on by one setting,
//! [`TelemetryConfig::full`](crate::TelemetryConfig::full).
//!
//! The simulated components cannot see the wall clock — the [`crate::System`]
//! owns time — so each component (the VM layer, the revoker, the
//! allocator shim) keeps a cheap, gated internal event log
//! ([`cheri_vm::VmEvent`], [`cornucopia::RevokerEvent`],
//! [`cheri_alloc::AllocEvent`]). With telemetry on, the system drains
//! those logs as it executes, stamps them with the current wall cycle, and
//! stores them in its one recorder: ring-buffered storage for the event
//! journal, the revocation phase/pause [`Span`]s (Figure 9's raw
//! material), and the sampled counter [`Sample`] series (Figures 4/6
//! analogues), handed out as a [`TelemetryData`] at the end of the run.
//! A consumer that needs the whole journal drains it between batches
//! instead ([`System::drain_events`](crate::System::drain_events)), so
//! the ring never fills.
//! With telemetry off (the default) component logging stays disabled, the
//! recorder stays empty, and runs are bit-identical to a traced run's
//! statistics (`tests/golden_stats.rs` enforces this).
//!
//! Everything here is deterministic: timestamps are simulated cycles and
//! ring evictions depend only on the op stream.

use crate::ops::ObjId;
use cheri_alloc::AllocEvent;
use cheri_vm::VmEvent;
use cornucopia::RevokerEvent;
use std::collections::VecDeque;

/// How a dynamically observed stale pointer chase resolved — what the
/// application actually got back when it loaded a pointer whose target
/// had been freed (the event a static analyzer predicts; see
/// [`TelemetryEvent::StaleChase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleChaseOutcome {
    /// The loaded capability came back untagged: revocation (or the
    /// Reloaded load barrier) already killed it. Fail-stop behaviour.
    Revoked,
    /// The capability is still tagged but its target memory is painted in
    /// the revocation bitmap: the storage is quarantined and cannot have
    /// been reused, so the dangling pointer is still harmless.
    Quarantined,
    /// The capability is tagged and its target is neither live nor
    /// painted: the dangling pointer escaped — storage may already be
    /// reused. Only strategies without
    /// [`provides_safety`](cornucopia::Strategy::provides_safety) (and
    /// the baseline's immediate free) produce this.
    Escaped,
}

/// A typed event from any simulated component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// MMU / TLB / generation-flip activity.
    Vm(VmEvent),
    /// Revocation pass lifecycle and fault handling.
    Revoker(RevokerEvent),
    /// Quarantine policy activity.
    Alloc(AllocEvent),
    /// A `ChasePtr` loaded a pointer whose target object had been freed
    /// (and not since legitimately re-linked). Emitted by the system's
    /// zero-cost dangling-pointer instrument — the dynamic half of the
    /// static-analysis cross-check oracle.
    StaleChase {
        /// Object the pointer was loaded from.
        from: ObjId,
        /// The `ChasePtr` slot operand (pre-aliasing).
        slot: u64,
        /// The freed object the stored pointer referred to.
        to: ObjId,
        /// What the load actually produced.
        outcome: StaleChaseOutcome,
    },
}

impl TelemetryEvent {
    /// A stable snake_case label for export.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TelemetryEvent::Vm(VmEvent::TlbShootdown { .. }) => "tlb_shootdown",
            TelemetryEvent::Vm(VmEvent::GenerationFlip { .. }) => "generation_flip",
            TelemetryEvent::Vm(VmEvent::LoadGenerationFault { .. }) => "load_generation_fault",
            TelemetryEvent::Vm(_) => "vm_other",
            TelemetryEvent::Revoker(RevokerEvent::EpochBegin { .. }) => "epoch_begin",
            TelemetryEvent::Revoker(RevokerEvent::EpochEnd { .. }) => "epoch_end",
            TelemetryEvent::Revoker(RevokerEvent::LoadFaultHandled { .. }) => "load_fault_handled",
            TelemetryEvent::Revoker(_) => "revoker_other",
            TelemetryEvent::Alloc(AllocEvent::RevocationRequested { .. }) => "revocation_requested",
            TelemetryEvent::Alloc(AllocEvent::BatchSealed { .. }) => "batch_sealed",
            TelemetryEvent::Alloc(AllocEvent::BatchReleased { .. }) => "batch_released",
            TelemetryEvent::Alloc(_) => "alloc_other",
            TelemetryEvent::StaleChase { outcome: StaleChaseOutcome::Revoked, .. } => {
                "stale_chase_revoked"
            }
            TelemetryEvent::StaleChase { outcome: StaleChaseOutcome::Quarantined, .. } => {
                "stale_chase_quarantined"
            }
            TelemetryEvent::StaleChase { outcome: StaleChaseOutcome::Escaped, .. } => {
                "stale_chase_escaped"
            }
        }
    }
}

/// An event stamped with the wall cycle at which the system drained it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Wall cycle.
    pub at: u64,
    /// The event.
    pub event: TelemetryEvent,
}

/// What a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A stop-the-world pause (epoch entry, CHERIvoke/Cornucopia sweep,
    /// or a final re-sweep). Start/end bound the world-stopped window.
    StwPause,
    /// One revoker core's share of the concurrent sweep; `busy_cycles` is
    /// that core's CPU time inside the wall window.
    ConcurrentSweep,
    /// A whole revocation pass, entry pause through completion.
    Epoch,
    /// The application blocked on an in-flight pass (quarantine
    /// hard-full, §5.3).
    BlockedAlloc,
}

impl SpanKind {
    /// A stable snake_case label for export.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::StwPause => "stw_pause",
            SpanKind::ConcurrentSweep => "concurrent_sweep",
            SpanKind::Epoch => "epoch",
            SpanKind::BlockedAlloc => "blocked_alloc",
        }
    }
}

/// A wall-clock interval attributed to a revocation phase or pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers.
    pub kind: SpanKind,
    /// Epoch counter value the interval belongs to.
    pub epoch: u64,
    /// Wall cycle the interval began.
    pub start: u64,
    /// Wall cycle the interval ended.
    pub end: u64,
    /// The core doing the work, when attributable to one core.
    pub core: Option<usize>,
    /// CPU cycles actually consumed inside the interval: equal to
    /// `end - start` for STW pauses. A [`SpanKind::ConcurrentSweep`] may
    /// exceed its width: every slice sweeps at least one whole page,
    /// whatever its budget, and the overshoot is not charged to the next
    /// slice, so many short slices add up to more CPU than wall time.
    pub busy_cycles: u64,
}

/// One snapshot of the run's counters, taken every sampling interval
/// ([`TelemetryConfig::full`](crate::TelemetryConfig::full)).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// The sample's scheduled wall cycle.
    pub at: u64,
    /// Resident set in bytes.
    pub rss_bytes: u64,
    /// Live heap bytes.
    pub allocated_bytes: u64,
    /// Quarantined bytes (open + sealed).
    pub quarantine_bytes: u64,
    /// Cumulative DRAM transactions from application cores.
    pub app_dram: u64,
    /// Cumulative DRAM transactions from revoker cores.
    pub revoker_dram: u64,
    /// Cumulative load-barrier faults taken.
    pub faults: u64,
    /// Cumulative cycles spent handling those faults.
    pub fault_cycles: u64,
    /// Cumulative cycles the application spent blocked on a pass.
    pub blocked_cycles: u64,
    /// Cumulative TLB misses (all cores).
    pub tlb_misses: u64,
    /// Completed revocation epochs.
    pub epochs: u64,
}

impl Sample {
    /// Column names, in the order [`Sample::values`] returns them.
    pub const COLUMNS: [&'static str; 11] = [
        "at",
        "rss_bytes",
        "allocated_bytes",
        "quarantine_bytes",
        "app_dram",
        "revoker_dram",
        "faults",
        "fault_cycles",
        "blocked_cycles",
        "tlb_misses",
        "epochs",
    ];

    /// The row, aligned with [`Sample::COLUMNS`].
    #[must_use]
    pub fn values(&self) -> [u64; 11] {
        [
            self.at,
            self.rss_bytes,
            self.allocated_bytes,
            self.quarantine_bytes,
            self.app_dram,
            self.revoker_dram,
            self.faults,
            self.fault_cycles,
            self.blocked_cycles,
            self.tlb_misses,
            self.epochs,
        ]
    }
}

/// Everything the recorder collected over a run.
#[derive(Debug, Default, Clone)]
pub struct TelemetryData {
    /// The stamped event journal, in drain order.
    pub events: Vec<TimedEvent>,
    /// Phase / pause spans, in emission order.
    pub spans: Vec<Span>,
    /// The sampled counter series, oldest first.
    pub samples: Vec<Sample>,
    /// Events evicted from the ring because it was full.
    pub dropped_events: u64,
    /// Samples evicted from the ring because it was full.
    pub dropped_samples: u64,
}

impl TelemetryData {
    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.spans.is_empty() && self.samples.is_empty()
    }
}

/// Ring capacity of the event journal: when full, the oldest event is
/// dropped (and counted) so memory stays bounded on long runs.
const EVENT_CAPACITY: usize = 1 << 20;

/// Ring capacity of the sampled counter series.
pub(crate) const SERIES_CAPACITY: usize = 4096;

/// A bounded FIFO that evicts its oldest entry when full and counts the
/// evictions.
#[derive(Debug)]
struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring; allocates nothing until the first push.
    fn new(capacity: usize) -> Self {
        Ring { items: VecDeque::new(), capacity, dropped: 0 }
    }

    fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }
}

/// The system's in-memory telemetry store: ring-buffered journal and
/// series, plus the span list. The system creates one whatever the
/// configuration and only feeds it while telemetry is on, so an untraced
/// run's recorder stays empty and never allocates.
#[derive(Debug)]
pub(crate) struct Recorder {
    events: Ring<TimedEvent>,
    spans: Vec<Span>,
    samples: Ring<Sample>,
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Recorder {
            events: Ring::new(EVENT_CAPACITY),
            spans: Vec::new(),
            samples: Ring::new(SERIES_CAPACITY),
        }
    }

    pub(crate) fn record_event(&mut self, at: u64, event: TelemetryEvent) {
        self.events.push(TimedEvent { at, event });
    }

    /// Moves the journal into `out`, oldest first; evictions stay counted.
    pub(crate) fn drain_events(&mut self, out: &mut Vec<TimedEvent>) {
        out.extend(self.events.items.drain(..));
    }

    pub(crate) fn record_span(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub(crate) fn record_sample(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Counts `n` samples as taken and evicted at once, without taking
    /// them: the ones a poll past more boundaries than the ring holds
    /// would push out before it returns.
    pub(crate) fn skip_samples(&mut self, n: u64) {
        self.samples.dropped += n;
    }

    pub(crate) fn into_data(self) -> TelemetryData {
        TelemetryData {
            events: self.events.items.into(),
            spans: self.spans,
            samples: self.samples.items.into(),
            dropped_events: self.events.dropped,
            dropped_samples: self.samples.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    fn ev(at: u64) -> (u64, TelemetryEvent) {
        (at, TelemetryEvent::Revoker(RevokerEvent::EpochBegin { epoch: at }))
    }

    fn span() -> Span {
        Span { kind: SpanKind::Epoch, epoch: 1, start: 0, end: 10, core: None, busy_cycles: 10 }
    }

    /// Telemetry off: the default configuration has no sampling interval,
    /// and the recorder the system then holds is empty and unallocated.
    #[test]
    fn null_sink_is_disabled_and_empty() {
        assert_eq!(TelemetryConfig::default().sample_interval(), None);
        let rec = Recorder::new();
        assert_eq!(rec.events.items.capacity(), 0);
        assert_eq!(rec.samples.items.capacity(), 0);
        assert!(rec.into_data().is_empty());
    }

    /// Telemetry on: `full` sets the interval, and the recorder keeps
    /// every event, span and sample it is handed.
    #[test]
    fn recorder_respects_switches() {
        assert_eq!(TelemetryConfig::full(100).sample_interval(), Some(100));
        let mut rec = Recorder::new();
        let (at, event) = ev(5);
        rec.record_event(at, event);
        rec.record_span(span());
        rec.record_sample(Sample { at: 100, ..Sample::default() });
        let data = rec.into_data();
        assert_eq!(data.events, vec![TimedEvent { at, event }]);
        assert_eq!(data.spans, vec![span()]);
        assert_eq!(data.samples.len(), 1);
        assert_eq!((data.dropped_events, data.dropped_samples), (0, 0));
    }

    #[test]
    fn rings_evict_oldest_and_count_drops() {
        let mut rec = Recorder::new();
        assert_eq!(rec.events.capacity, EVENT_CAPACITY);
        // The series at its real capacity; the journal's is shrunk so the
        // test does not push a million events.
        rec.events = Ring::new(2);
        for i in 0..5 {
            let (at, event) = ev(i);
            rec.record_event(at, event);
        }
        let n = SERIES_CAPACITY as u64 + 3;
        for i in 0..n {
            rec.record_sample(Sample { at: i, ..Sample::default() });
        }
        let data = rec.into_data();
        assert_eq!(data.dropped_events, 3);
        assert_eq!(data.dropped_samples, 3);
        assert_eq!(data.events.iter().map(|e| e.at).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(data.samples.len(), SERIES_CAPACITY);
        assert_eq!(data.samples.first().map(|s| s.at), Some(3));
        assert_eq!(data.samples.last().map(|s| s.at), Some(n - 1));
    }

    /// A journal drained between pushes never fills, so a run the ring
    /// would truncate is handed out whole.
    #[test]
    fn a_journal_drained_between_batches_drops_nothing() {
        let (mut undrained, mut drained) = (Recorder::new(), Recorder::new());
        undrained.events = Ring::new(2);
        drained.events = Ring::new(2);
        let mut out = Vec::new();
        for batch in 0..4 {
            for i in 0..2 {
                let (at, event) = ev(2 * batch + i);
                undrained.record_event(at, event);
                drained.record_event(at, event);
            }
            drained.drain_events(&mut out);
        }
        assert_eq!(undrained.into_data().dropped_events, 6);
        assert_eq!(out.iter().map(|e| e.at).collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
        let data = drained.into_data();
        assert_eq!((data.dropped_events, data.events.len()), (0, 0));
    }

    #[test]
    fn sample_row_aligns_with_columns() {
        let s = Sample { at: 1, rss_bytes: 2, epochs: 11, ..Sample::default() };
        let vals = s.values();
        assert_eq!(vals.len(), Sample::COLUMNS.len());
        assert_eq!(vals[0], 1);
        assert_eq!(vals[1], 2);
        assert_eq!(vals[10], 11);
    }

    #[test]
    fn event_labels_are_stable() {
        let (_, event) = ev(0);
        assert_eq!(event.label(), "epoch_begin");
        assert_eq!(
            TelemetryEvent::Vm(VmEvent::TlbShootdown { page: 0 }).label(),
            "tlb_shootdown"
        );
        assert_eq!(
            TelemetryEvent::Alloc(AllocEvent::BatchSealed { bytes: 1, epoch: 1 }).label(),
            "batch_sealed"
        );
        for (outcome, label) in [
            (StaleChaseOutcome::Revoked, "stale_chase_revoked"),
            (StaleChaseOutcome::Quarantined, "stale_chase_quarantined"),
            (StaleChaseOutcome::Escaped, "stale_chase_escaped"),
        ] {
            assert_eq!(
                TelemetryEvent::StaleChase { from: 1, slot: 2, to: 3, outcome }.label(),
                label
            );
        }
    }
}
