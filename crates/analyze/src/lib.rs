//! Static temporal-safety analysis of simulator op programs.
//!
//! The simulator proves the paper's claim *dynamically*: under a safe
//! strategy every dereference of a revoked capability faults at the load
//! barrier. This crate re-derives the same facts *statically* — a
//! streaming abstract interpreter walks any [`OpSource`] without
//! simulating and computes:
//!
//! * per-object **lifetime intervals** (allocation generation, first/last
//!   op, maximum footprint);
//! * the `LinkPtr`/`ChasePtr` **points-to graph**, with the same
//!   capability-slot aliasing arithmetic the simulator's `cap_slot` uses
//!   and the same tag-destruction rule `WriteData` applies, so every
//!   **stale chase** the analyzer predicts is exactly a chase the
//!   simulator's load barrier observes;
//! * a typed **diagnostics report**: malformed-program defects
//!   (use-after-free, double-free, free-of-unallocated, busy allocation
//!   slots, aliased root slots), safety-relevant dangling dereferences,
//!   and informational facts (dangling interior pointers, leaks);
//! * a per-program-point **live + quarantined byte curve** whose peak is a
//!   sound lower bound on simulated peak RSS.
//!
//! Agreement between this independent implementation and the simulator
//! (see the bench crate's oracle tests) is the cross-check: two unrelated
//! codebases deriving the same dangling-load set from the same program.
//!
//! # Example
//!
//! ```
//! use analyze::{analyze, AnalyzerConfig, DiagnosticKind};
//! use morello_sim::Op;
//!
//! let ops = vec![
//!     Op::Alloc { obj: 1, size: 64 },
//!     Op::WriteData { obj: 1, len: 64 },
//!     Op::Free { obj: 1 },
//!     Op::ReadData { obj: 1, len: 8 }, // use-after-free
//! ];
//! let report = analyze(ops.into_iter(), AnalyzerConfig::default());
//! assert!(report.malformed);
//! assert_eq!(report.count(DiagnosticKind::UseAfterFree), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cheri_mem::{FastMap, FastSet};
use morello_sim::{for_each_batch, Json, ObjId, Op, OpSource, SimConfig};
use std::convert::Infallible;

/// Capability granule: slot addresses and tag coverage are 16-byte units.
const CAP_SIZE: u64 = 16;

/// Per-kind cap on stored diagnostic *details* (counts stay exact).
pub const DIAG_DETAIL_CAP: usize = 64;

/// Target length of the decimated byte curve (peaks stay exact).
const CURVE_CAP: usize = 4096;

/// JSON export caps for the unbounded lists (totals stay exact).
const STALE_JSON_CAP: usize = 1024;
const LIFETIME_JSON_CAP: usize = 256;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// The slice of simulator configuration the static analysis depends on.
///
/// The analyzer is *condition-independent*: the same program analyzed once
/// yields facts valid for every revocation strategy. Only the root-table
/// geometry (`max_objects`, for slot-aliasing detection) and the
/// quarantine floor (`min_quarantine`, for the RSS lower bound's
/// quarantine model) carry over from [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Root-table capacity: object IDs alias at `obj % max_objects`.
    pub max_objects: u64,
    /// Quarantine floor in bytes; the static quarantine model releases
    /// *everything* as soon as accumulated freed bytes reach this, which
    /// is never later than any real strategy releases — keeping the
    /// derived peak a lower bound.
    pub min_quarantine: u64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig::from_sim(&SimConfig::default())
    }
}

impl AnalyzerConfig {
    /// Extracts the analysis-relevant parameters from a workload's tuned
    /// simulator configuration.
    #[must_use]
    pub fn from_sim(cfg: &SimConfig) -> Self {
        AnalyzerConfig { max_objects: cfg.max_objects(), min_quarantine: cfg.min_quarantine() }
    }
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The program violates the op-stream contract; the simulator would
    /// return a `SimError` (or silently corrupt its root table).
    Malformed,
    /// Temporal-safety relevant: a dereference of freed memory that a
    /// safe strategy must intercept.
    Safety,
    /// Informational: worth reporting, harmless to execute.
    Info,
}

impl Severity {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Malformed => "malformed",
            Severity::Safety => "safety",
            Severity::Info => "info",
        }
    }
}

/// Every fact kind the analyzer reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// `LoadObj`/`ReadData`/`WriteData`/`LinkPtr`/`ChasePtr`/
    /// `SyscallHoard` on an object that is not live (`aux` = 1 if it ever
    /// was).
    UseAfterFree,
    /// `Free` of an object already freed.
    DoubleFree,
    /// `Free` of an object never allocated.
    FreeUnallocated,
    /// `Alloc` into an object ID that is still live.
    AllocBusy,
    /// Two live objects share a root-table slot (`obj % max_objects`
    /// collides, `aux` = the earlier object): the second allocation
    /// silently overwrites the first's root capability.
    RootSlotAliased,
    /// A `ChasePtr` dereferenced a link whose target generation is dead —
    /// the dangling loads the revoker must catch. The full ordered list
    /// lives in [`Report::stale_chases`].
    StaleChase,
    /// A `Free` left a live interior pointer behind: some live
    /// object (`aux`) still links to the freed object.
    DanglingLink,
    /// Live at end of program (`aux` = touched bytes).
    Leak,
}

impl DiagnosticKind {
    /// All kinds, in report order.
    pub const ALL: [DiagnosticKind; 8] = [
        DiagnosticKind::UseAfterFree,
        DiagnosticKind::DoubleFree,
        DiagnosticKind::FreeUnallocated,
        DiagnosticKind::AllocBusy,
        DiagnosticKind::RootSlotAliased,
        DiagnosticKind::StaleChase,
        DiagnosticKind::DanglingLink,
        DiagnosticKind::Leak,
    ];

    /// Stable snake-case label (JSON keys, CLI output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DiagnosticKind::UseAfterFree => "use_after_free",
            DiagnosticKind::DoubleFree => "double_free",
            DiagnosticKind::FreeUnallocated => "free_unallocated",
            DiagnosticKind::AllocBusy => "alloc_busy",
            DiagnosticKind::RootSlotAliased => "root_slot_aliased",
            DiagnosticKind::StaleChase => "stale_chase",
            DiagnosticKind::DanglingLink => "dangling_link",
            DiagnosticKind::Leak => "leak",
        }
    }

    /// The kind's severity class.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticKind::UseAfterFree
            | DiagnosticKind::DoubleFree
            | DiagnosticKind::FreeUnallocated
            | DiagnosticKind::AllocBusy
            | DiagnosticKind::RootSlotAliased => Severity::Malformed,
            DiagnosticKind::StaleChase => Severity::Safety,
            DiagnosticKind::DanglingLink | DiagnosticKind::Leak => Severity::Info,
        }
    }

    fn index(self) -> usize {
        DiagnosticKind::ALL.iter().position(|&k| k == self).expect("kind is in ALL")
    }
}

/// One reported fact. `aux` is kind-specific (see [`DiagnosticKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diagnostic {
    /// What was found.
    pub kind: DiagnosticKind,
    /// Zero-based index of the op that triggered it (for [`Leak`]: the
    /// total op count).
    ///
    /// [`Leak`]: DiagnosticKind::Leak
    pub op_index: u64,
    /// The primary object involved.
    pub obj: ObjId,
    /// Kind-specific auxiliary value.
    pub aux: u64,
}

/// One statically predicted dangling dereference, in program order. The
/// `(from, slot, to)` triple matches the simulator's `StaleChase`
/// telemetry event field-for-field (slot is the *raw* op operand, before
/// slot aliasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleChase {
    /// Zero-based index of the `ChasePtr` op.
    pub op_index: u64,
    /// Object chased from.
    pub from: ObjId,
    /// Raw slot operand of the `ChasePtr`.
    pub slot: u64,
    /// The freed (or reallocated) object the link still points at.
    pub to: ObjId,
}

/// Lifetime summary for one object ID across all its generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// The object ID.
    pub obj: ObjId,
    /// How many times it was (re)allocated.
    pub generations: u64,
    /// Op index of the first allocation.
    pub first_op: u64,
    /// Op index of the last deallocation; `None` while any generation is
    /// still live at end of program.
    pub last_op: Option<u64>,
    /// Largest capability length any generation carried.
    pub max_bytes: u64,
}

/// One point of the (decimated) byte curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurvePoint {
    /// Op index the point was sampled at.
    pub op_index: u64,
    /// Touched bytes of live objects.
    pub live_bytes: u64,
    /// Touched bytes of quarantined (freed, not yet released) objects.
    pub quarantined_bytes: u64,
}

/// Whole-program object statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObjectsSummary {
    /// Distinct object IDs seen.
    pub distinct: u64,
    /// Total allocations (generations) across all IDs.
    pub generations: u64,
    /// Peak number of simultaneously live objects.
    pub peak_live: u64,
    /// Objects still live at end of program.
    pub leaked: u64,
    /// Sum of allocated capability lengths over all generations.
    pub bytes_allocated: u64,
}

/// The RSS lower bound derived from the byte curve.
///
/// `peak_live_touched` counts only bytes of live objects that were
/// actually written (demand-zero memory is not resident until touched), so
/// it lower-bounds peak RSS under *every* condition. Under a safe
/// strategy freed heap bytes additionally sit in quarantine until a
/// revocation pass completes; `peak_live_plus_quarantine` adds a
/// quarantine model that releases *at the earliest conceivable instant*
/// (the moment accumulated frees reach the quarantine floor), so it still
/// lower-bounds peak RSS for safe strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RssBound {
    /// Peak of live touched bytes: sound for all conditions.
    pub peak_live_touched: u64,
    /// Peak of live + modeled-quarantine touched bytes: sound for safe
    /// (quarantining) strategies.
    pub peak_live_plus_quarantine: u64,
}

/// The full analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Total ops analyzed.
    pub ops: u64,
    /// True iff any [`Severity::Malformed`] diagnostic fired.
    pub malformed: bool,
    /// Stored diagnostic details, program order, capped per kind at
    /// [`DIAG_DETAIL_CAP`] (use [`Report::count`] for exact totals).
    pub diagnostics: Vec<Diagnostic>,
    /// Every predicted dangling dereference, program order, uncapped —
    /// the oracle contract needs the exact set.
    pub stale_chases: Vec<StaleChase>,
    /// Per-object lifetime summaries, ascending object ID.
    pub lifetimes: Vec<Lifetime>,
    /// Object statistics.
    pub objects: ObjectsSummary,
    /// RSS lower bounds.
    pub rss: RssBound,
    /// Decimated live/quarantined byte curve, program order.
    pub curve: Vec<CurvePoint>,
    counts: [u64; DiagnosticKind::ALL.len()],
}

impl Report {
    /// Exact number of diagnostics of `kind` (details may be capped).
    #[must_use]
    pub fn count(&self, kind: DiagnosticKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Exact number of malformed-program diagnostics.
    #[must_use]
    pub fn malformed_count(&self) -> u64 {
        DiagnosticKind::ALL
            .iter()
            .filter(|k| k.severity() == Severity::Malformed)
            .map(|&k| self.count(k))
            .sum()
    }

    /// Deterministic JSON document (unbounded lists are capped with exact
    /// totals alongside; equal reports render byte-identically).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counts = Json::Obj(
            DiagnosticKind::ALL
                .iter()
                .map(|&k| (k.label().to_string(), self.count(k).into()))
                .collect(),
        );
        let diagnostics = Json::Arr(
            self.diagnostics
                .iter()
                .map(|d| {
                    Json::obj([
                        ("kind", d.kind.label().into()),
                        ("severity", d.kind.severity().label().into()),
                        ("op", d.op_index.into()),
                        ("obj", d.obj.into()),
                        ("aux", d.aux.into()),
                    ])
                })
                .collect(),
        );
        let stale = Json::Arr(
            self.stale_chases
                .iter()
                .take(STALE_JSON_CAP)
                .map(|s| {
                    Json::obj([
                        ("op", s.op_index.into()),
                        ("from", s.from.into()),
                        ("slot", s.slot.into()),
                        ("to", s.to.into()),
                    ])
                })
                .collect(),
        );
        let lifetimes = Json::Arr(
            self.lifetimes
                .iter()
                .take(LIFETIME_JSON_CAP)
                .map(|l| {
                    Json::obj([
                        ("obj", l.obj.into()),
                        ("generations", l.generations.into()),
                        ("first_op", l.first_op.into()),
                        ("last_op", l.last_op.map_or(Json::Null, Json::from)),
                        ("max_bytes", l.max_bytes.into()),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("version", 1u64.into()),
            ("ops", self.ops.into()),
            ("malformed", self.malformed.into()),
            ("counts", counts),
            (
                "objects",
                Json::obj([
                    ("distinct", self.objects.distinct.into()),
                    ("generations", self.objects.generations.into()),
                    ("peak_live", self.objects.peak_live.into()),
                    ("leaked", self.objects.leaked.into()),
                    ("bytes_allocated", self.objects.bytes_allocated.into()),
                ]),
            ),
            (
                "rss_lower_bound",
                Json::obj([
                    ("peak_live_touched", self.rss.peak_live_touched.into()),
                    ("peak_live_plus_quarantine", self.rss.peak_live_plus_quarantine.into()),
                    ("curve_points", self.curve.len().into()),
                ]),
            ),
            ("stale_chases_total", self.stale_chases.len().into()),
            ("stale_chases", stale),
            ("diagnostics", diagnostics),
            ("lifetimes_total", self.lifetimes.len().into()),
            ("lifetimes", lifetimes),
        ])
    }

    /// The byte curve as CSV (header + one row per point).
    #[must_use]
    pub fn curve_csv(&self) -> String {
        let mut out = String::from("op,live_touched_bytes,quarantined_touched_bytes\n");
        for p in &self.curve {
            out.push_str(&format!("{},{},{}\n", p.op_index, p.live_bytes, p.quarantined_bytes));
        }
        out
    }
}

// ---------------------------------------------------------------------
// The abstract interpreter
// ---------------------------------------------------------------------

/// The live generation of an object ID.
#[derive(Debug, Clone, Copy)]
struct LiveObj {
    cap_len: u64,
    touched: u64,
}

#[derive(Debug, Clone, Copy)]
struct Link {
    to: ObjId,
    to_gen: u64,
}

/// Everything known about one object ID — the lifetime summary across
/// its generations, the live generation's state, and its edges of the
/// points-to graph — so an op costs one table lookup per object it names.
#[derive(Debug)]
struct Obj {
    /// Allocations so far; also the current generation's number.
    generations: u64,
    first_op: u64,
    last_end: Option<u64>,
    max_bytes: u64,
    live: Option<LiveObj>,
    /// Outgoing links of the live generation: `effective slot -> target`.
    /// Mirrors the slot storage the simulator writes through `cap_slot`.
    links: FastMap<u64, Link>,
    /// Reverse index for dangling-link detection at free time: the
    /// `(from, effective slot)` of exactly the links that target the
    /// live generation.
    incoming: FastSet<(ObjId, u64)>,
}

/// Exact per-kind counts and the capped detail list. Apart from the
/// object table so a helper can diagnose while it hands out a record.
#[derive(Debug, Default)]
struct Diags {
    counts: [u64; DiagnosticKind::ALL.len()],
    details: Vec<Diagnostic>,
}

impl Diags {
    fn record(&mut self, op_index: u64, kind: DiagnosticKind, obj: ObjId, aux: u64) {
        let idx = kind.index();
        self.counts[idx] += 1;
        if self.counts[idx] as usize <= DIAG_DETAIL_CAP {
            self.details.push(Diagnostic { kind, op_index, obj, aux });
        }
    }
}

/// Streaming abstract interpreter. Feed ops with [`Analyzer::push`] (or
/// use [`analyze`] to drain an [`OpSource`]), then [`Analyzer::finish`].
///
/// Malformed ops are diagnosed and then *skipped* (treated as no-ops), so
/// one defect does not cascade into spurious downstream reports.
///
/// The tables are fixed-seed hash maps keyed by object ID. Wherever their
/// order could reach the report (dangling links at free time, leaks and
/// lifetimes in [`Analyzer::finish`]) the entries are sorted first; the
/// only unsorted walks remove every entry they visit.
#[derive(Debug)]
pub struct Analyzer {
    cfg: AnalyzerConfig,
    op_index: u64,
    objs: FastMap<ObjId, Obj>,
    root_slots: FastMap<u64, ObjId>,
    live_objects: u64,
    diags: Diags,
    stale: Vec<StaleChase>,
    live_touched: u64,
    quar_touched: u64,
    quar_trigger: u64,
    peak_live_objects: u64,
    generations: u64,
    bytes_allocated: u64,
    rss: RssBound,
    curve: Vec<CurvePoint>,
    curve_stride: u64,
    curve_last_op: u64,
}

impl Analyzer {
    /// A fresh analyzer.
    #[must_use]
    pub fn new(cfg: AnalyzerConfig) -> Self {
        Analyzer {
            cfg,
            op_index: 0,
            objs: FastMap::default(),
            root_slots: FastMap::default(),
            live_objects: 0,
            diags: Diags::default(),
            stale: Vec::new(),
            live_touched: 0,
            quar_touched: 0,
            quar_trigger: 0,
            peak_live_objects: 0,
            generations: 0,
            bytes_allocated: 0,
            rss: RssBound::default(),
            curve: Vec::new(),
            curve_stride: 1,
            curve_last_op: 0,
        }
    }

    /// Analyzes one op.
    pub fn push(&mut self, op: Op) {
        match op {
            Op::Alloc { obj, size } => self.new_object(obj, size.max(1)),
            Op::Free { obj } => self.end_object(obj),
            Op::LoadObj { obj } | Op::SyscallHoard { obj } | Op::ReadData { obj, len: _ } => {
                self.require_live(obj);
            }
            Op::WriteData { obj, len } => self.write_data(obj, len),
            Op::LinkPtr { from, slot, to } => self.link(from, slot, to),
            Op::ChasePtr { from, slot } => self.chase(from, slot),
            Op::Compute { .. } | Op::ThinkIdle { .. } | Op::TxBegin { .. } | Op::TxEnd { .. } => {}
            // `Op` is non_exhaustive; future ops are analysis no-ops
            // until given semantics here.
            _ => {}
        }
        self.op_index += 1;
    }

    /// Finalizes: leak detection, last curve point, report assembly.
    #[must_use]
    pub fn finish(mut self) -> Report {
        let mut objs: Vec<(ObjId, Obj)> = std::mem::take(&mut self.objs).into_iter().collect();
        objs.sort_unstable_by_key(|&(obj, _)| obj);
        let mut leaked = 0;
        for (obj, o) in &objs {
            if let Some(live) = o.live {
                leaked += 1;
                self.diag(DiagnosticKind::Leak, *obj, live.touched);
            }
        }
        let final_point = CurvePoint {
            op_index: self.op_index,
            live_bytes: self.live_touched,
            quarantined_bytes: self.quar_touched,
        };
        if self.curve.last() != Some(&final_point) {
            self.curve.push(final_point);
        }
        let lifetimes: Vec<Lifetime> = objs
            .iter()
            .map(|(obj, o)| Lifetime {
                obj: *obj,
                generations: o.generations,
                first_op: o.first_op,
                last_op: if o.live.is_some() { None } else { o.last_end },
                max_bytes: o.max_bytes,
            })
            .collect();
        let malformed = DiagnosticKind::ALL
            .iter()
            .filter(|k| k.severity() == Severity::Malformed)
            .any(|&k| self.diags.counts[k.index()] > 0);
        Report {
            ops: self.op_index,
            malformed,
            diagnostics: self.diags.details,
            stale_chases: self.stale,
            lifetimes,
            objects: ObjectsSummary {
                distinct: objs.len() as u64,
                generations: self.generations,
                peak_live: self.peak_live_objects,
                leaked,
                bytes_allocated: self.bytes_allocated,
            },
            rss: self.rss,
            curve: self.curve,
            counts: self.diags.counts,
        }
    }

    // -- op semantics --------------------------------------------------

    /// Forgets that `from`'s slot `eff` targets `to` (the link itself is
    /// already gone or overwritten).
    fn drop_incoming(&mut self, to: ObjId, from: ObjId, eff: u64) {
        if let Some(target) = self.objs.get_mut(&to) {
            target.incoming.remove(&(from, eff));
        }
    }

    fn new_object(&mut self, obj: ObjId, cap_len: u64) {
        if self.objs.get(&obj).is_some_and(|o| o.live.is_some()) {
            self.diag(DiagnosticKind::AllocBusy, obj, 0);
            return;
        }
        let residue = obj % self.cfg.max_objects;
        if let Some(other) = self.root_slots.insert(residue, obj) {
            // The simulator would silently overwrite `other`'s root
            // capability — the one malformation it does not detect.
            self.diag(DiagnosticKind::RootSlotAliased, obj, other);
        }
        self.generations += 1;
        self.bytes_allocated += cap_len;
        let o = self.objs.entry(obj).or_insert_with(|| Obj {
            generations: 0,
            first_op: self.op_index,
            last_end: None,
            max_bytes: 0,
            live: None,
            links: FastMap::default(),
            incoming: FastSet::default(),
        });
        o.generations += 1;
        o.max_bytes = o.max_bytes.max(cap_len);
        o.live = Some(LiveObj { cap_len, touched: 0 });
        self.live_objects += 1;
        self.peak_live_objects = self.peak_live_objects.max(self.live_objects);
    }

    fn end_object(&mut self, obj: ObjId) {
        let Some(rec) = self.objs.get_mut(&obj) else {
            self.diag(DiagnosticKind::FreeUnallocated, obj, 0);
            return;
        };
        let Some(o) = rec.live.take() else {
            self.diag(DiagnosticKind::DoubleFree, obj, 0);
            return;
        };
        rec.last_end = Some(self.op_index);
        // Every link into the dying generation is stale from here on and
        // can never match a later generation, so the reverse index
        // restarts empty.
        let mut dangling: Vec<(ObjId, u64)> = rec.incoming.drain().collect();
        let out = std::mem::take(&mut rec.links);
        // Live interior pointers into the dying generation (the object's
        // own slots included), in holder order.
        dangling.sort_unstable();
        for (from, _) in dangling {
            self.diag(DiagnosticKind::DanglingLink, obj, from);
        }
        // A freed object's own slots are gone: a chase can only reach
        // them through a *live* holder, and any future occupant of the
        // storage starts with freshly cleared slot tags.
        for (eff, l) in out {
            self.drop_incoming(l.to, obj, eff);
        }
        if self.root_slots.get(&(obj % self.cfg.max_objects)) == Some(&obj) {
            self.root_slots.remove(&(obj % self.cfg.max_objects));
        }
        self.live_objects -= 1;
        self.live_touched -= o.touched;
        // Earliest-release quarantine model: accumulate freed bytes, drop
        // the whole pool the instant the floor is reached. Real strategies
        // release later (a pass must complete), so the modeled pool is
        // always a subset of the real one.
        self.quar_touched += o.touched;
        self.quar_trigger += o.cap_len;
        if self.quar_trigger >= self.cfg.min_quarantine {
            self.quar_touched = 0;
            self.quar_trigger = 0;
        }
        self.curve_touch();
    }

    /// The record of `obj` if a generation of it is live; a
    /// use-after-free diagnostic otherwise (`aux` = 1 if one ever was).
    fn require_live(&mut self, obj: ObjId) -> Option<&mut Obj> {
        match self.objs.get_mut(&obj) {
            Some(rec) if rec.live.is_some() => Some(rec),
            rec => {
                let ever = u64::from(rec.is_some());
                self.diags.record(self.op_index, DiagnosticKind::UseAfterFree, obj, ever);
                None
            }
        }
    }

    fn write_data(&mut self, obj: ObjId, len: u64) {
        let Some(rec) = self.require_live(obj) else { return };
        let o = rec.live.as_mut().expect("checked live");
        let clamped = len.clamp(1, o.cap_len.max(1));
        let grown = clamped.saturating_sub(o.touched);
        o.touched += grown;
        // The write cleared the tag of every granule it overlapped: slot
        // `e` (at byte offset 16*e) dies iff 16*e < clamped.
        let mut doomed = Vec::new();
        rec.links.retain(|&eff, l| {
            let dies = eff * CAP_SIZE < clamped;
            if dies {
                doomed.push((eff, l.to));
            }
            !dies
        });
        if grown > 0 {
            self.live_touched += grown;
            self.curve_touch();
        }
        for (eff, to) in doomed {
            self.drop_incoming(to, obj, eff);
        }
    }

    /// Effective slot index within an object, mirroring the simulator's
    /// `cap_slot`: capabilities are granule-aligned, so the usable slot
    /// count is `cap_len / 16` and `slot` wraps modulo it.
    fn eff_slot(cap_len: u64, slot: u64) -> Option<u64> {
        let usable = cap_len / CAP_SIZE;
        if usable == 0 {
            None
        } else {
            Some(slot % usable)
        }
    }

    fn link(&mut self, from: ObjId, slot: u64, to: ObjId) {
        let Some(holder) = self.require_live(from) else { return };
        let slots = holder.live.expect("checked live").cap_len;
        let Some(target) = self.require_live(to) else { return };
        let Some(eff) = Analyzer::eff_slot(slots, slot) else {
            return; // object too small for capability slots: simulator no-op
        };
        target.incoming.insert((from, eff));
        let to_gen = target.generations;
        let holder = self.objs.get_mut(&from).expect("checked live");
        if let Some(old) = holder.links.insert(eff, Link { to, to_gen }) {
            if old.to != to {
                self.drop_incoming(old.to, from, eff);
            }
        }
    }

    fn chase(&mut self, from: ObjId, slot: u64) {
        let Some(holder) = self.require_live(from) else { return };
        let slots = holder.live.expect("checked live").cap_len;
        let Some(&l) = Analyzer::eff_slot(slots, slot).and_then(|eff| holder.links.get(&eff))
        else {
            return;
        };
        let target_alive =
            self.objs.get(&l.to).is_some_and(|t| t.live.is_some() && t.generations == l.to_gen);
        if !target_alive {
            self.diags.counts[DiagnosticKind::StaleChase.index()] += 1;
            self.stale.push(StaleChase { op_index: self.op_index, from, slot, to: l.to });
        }
    }

    // -- bookkeeping ---------------------------------------------------

    fn diag(&mut self, kind: DiagnosticKind, obj: ObjId, aux: u64) {
        self.diags.record(self.op_index, kind, obj, aux);
    }

    fn curve_touch(&mut self) {
        let live = self.live_touched;
        let total = live + self.quar_touched;
        self.rss.peak_live_touched = self.rss.peak_live_touched.max(live);
        self.rss.peak_live_plus_quarantine = self.rss.peak_live_plus_quarantine.max(total);
        let due = self.curve.is_empty()
            || self.op_index >= self.curve_last_op + self.curve_stride;
        if due {
            self.curve.push(CurvePoint {
                op_index: self.op_index,
                live_bytes: live,
                quarantined_bytes: self.quar_touched,
            });
            self.curve_last_op = self.op_index;
            if self.curve.len() >= CURVE_CAP {
                // Halve the resolution: keep every other point, double
                // the stride. Peaks are tracked exactly above.
                let mut i = 0;
                self.curve.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.curve_stride *= 2;
            }
        }
    }
}

/// Drains `source` through a fresh [`Analyzer`].
pub fn analyze<S: OpSource>(mut source: S, cfg: AnalyzerConfig) -> Report {
    let mut a = Analyzer::new(cfg);
    let Ok(()) = for_each_batch(&mut source, |batch| {
        batch.iter().for_each(|&op| a.push(op));
        Ok::<(), Infallible>(())
    });
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ops: &[Op]) -> Report {
        let mut a = Analyzer::new(AnalyzerConfig::default());
        for &op in ops {
            a.push(op);
        }
        a.finish()
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let report = run(&[
            Op::Alloc { obj: 1, size: 64 },
            Op::WriteData { obj: 1, len: 64 },
            Op::LoadObj { obj: 1 },
            Op::Free { obj: 1 },
        ]);
        assert!(!report.malformed);
        assert_eq!(report.malformed_count(), 0);
        assert_eq!(report.count(DiagnosticKind::Leak), 0);
        assert_eq!(report.objects.generations, 1);
        assert_eq!(report.rss.peak_live_touched, 64);
    }

    #[test]
    fn chase_after_free_is_a_stale_chase_not_malformed() {
        let report = run(&[
            Op::Alloc { obj: 1, size: 64 },
            Op::Alloc { obj: 2, size: 64 },
            Op::LinkPtr { from: 1, slot: 0, to: 2 },
            Op::Free { obj: 2 },
            Op::ChasePtr { from: 1, slot: 0 },
            Op::Free { obj: 1 },
        ]);
        assert!(!report.malformed);
        assert_eq!(report.count(DiagnosticKind::StaleChase), 1);
        assert_eq!(report.count(DiagnosticKind::DanglingLink), 1);
        assert_eq!(
            report.stale_chases,
            vec![StaleChase { op_index: 4, from: 1, slot: 0, to: 2 }]
        );
    }

    #[test]
    fn realloc_of_target_keeps_link_stale() {
        let report = run(&[
            Op::Alloc { obj: 1, size: 64 },
            Op::Alloc { obj: 2, size: 64 },
            Op::LinkPtr { from: 1, slot: 0, to: 2 },
            Op::Free { obj: 2 },
            Op::Alloc { obj: 2, size: 64 }, // new generation, same ID
            Op::ChasePtr { from: 1, slot: 0 },
        ]);
        assert_eq!(report.count(DiagnosticKind::StaleChase), 1, "old link targets the dead generation");
    }

    #[test]
    fn write_data_invalidates_overlapped_slots_only() {
        let report = run(&[
            Op::Alloc { obj: 1, size: 64 },
            Op::Alloc { obj: 2, size: 64 },
            Op::LinkPtr { from: 1, slot: 0, to: 2 }, // offset 0
            Op::LinkPtr { from: 1, slot: 3, to: 2 }, // offset 48
            Op::WriteData { obj: 1, len: 16 },       // clears slot 0 only
            Op::Free { obj: 2 },
            Op::ChasePtr { from: 1, slot: 0 }, // link gone: no stale chase
            Op::ChasePtr { from: 1, slot: 3 }, // link survives: stale
        ]);
        assert_eq!(report.count(DiagnosticKind::StaleChase), 1);
        assert_eq!(report.stale_chases[0].slot, 3);
        // Only the surviving link is dangling at free time.
        assert_eq!(report.count(DiagnosticKind::DanglingLink), 1);
    }

    #[test]
    fn slot_aliasing_wraps_modulo_usable_slots() {
        let report = run(&[
            Op::Alloc { obj: 1, size: 32 }, // 2 usable slots
            Op::Alloc { obj: 2, size: 32 },
            Op::LinkPtr { from: 1, slot: 0, to: 2 },
            Op::LinkPtr { from: 1, slot: 2, to: 1 }, // slot 2 % 2 == 0: overwrites
            Op::Free { obj: 2 },                     // no dangling link: slot now holds obj 1
            Op::ChasePtr { from: 1, slot: 4 },       // 4 % 2 == 0: chases live obj 1
        ]);
        assert_eq!(report.count(DiagnosticKind::DanglingLink), 0);
        assert_eq!(report.count(DiagnosticKind::StaleChase), 0);
    }

    #[test]
    fn tiny_objects_have_no_slots() {
        let report = run(&[
            Op::Alloc { obj: 1, size: 8 }, // cap len 8 < 16: no slots
            Op::Alloc { obj: 2, size: 64 },
            Op::LinkPtr { from: 1, slot: 0, to: 2 }, // simulator no-op
            Op::Free { obj: 2 },
            Op::ChasePtr { from: 1, slot: 0 },
            Op::Free { obj: 1 },
        ]);
        assert_eq!(report.count(DiagnosticKind::StaleChase), 0);
        assert_eq!(report.count(DiagnosticKind::DanglingLink), 0);
    }

    #[test]
    fn malformed_kinds_fire_and_recover() {
        let report = run(&[
            Op::Free { obj: 9 },              // free-unallocated
            Op::Alloc { obj: 1, size: 64 },
            Op::Alloc { obj: 1, size: 64 },   // alloc-busy
            Op::Free { obj: 1 },
            Op::Free { obj: 1 },              // double-free
            Op::ReadData { obj: 1, len: 8 },  // use-after-free
            Op::Alloc { obj: 2, size: 4096 }, // recovered: a fresh object
            Op::Free { obj: 2 },
        ]);
        assert!(report.malformed);
        assert_eq!(report.count(DiagnosticKind::FreeUnallocated), 1);
        assert_eq!(report.count(DiagnosticKind::AllocBusy), 1);
        assert_eq!(report.count(DiagnosticKind::DoubleFree), 1);
        assert_eq!(report.count(DiagnosticKind::UseAfterFree), 1);
        assert_eq!(report.malformed_count(), 4);
    }

    #[test]
    fn root_slot_aliasing_is_detected() {
        let cfg = AnalyzerConfig { max_objects: 4, ..AnalyzerConfig::default() };
        let mut a = Analyzer::new(cfg);
        for op in [
            Op::Alloc { obj: 1, size: 16 },
            Op::Alloc { obj: 5, size: 16 }, // 5 % 4 == 1: aliases obj 1's root slot
        ] {
            a.push(op);
        }
        let report = a.finish();
        assert_eq!(report.count(DiagnosticKind::RootSlotAliased), 1);
        assert_eq!(report.diagnostics.iter().find(|d| d.kind == DiagnosticKind::RootSlotAliased).unwrap().aux, 1);
    }

    #[test]
    fn leaks_are_reported_in_object_order() {
        let report = run(&[
            Op::Alloc { obj: 7, size: 16 },
            Op::Alloc { obj: 3, size: 16 },
        ]);
        let leaks: Vec<ObjId> = report
            .diagnostics
            .iter()
            .filter(|d| d.kind == DiagnosticKind::Leak)
            .map(|d| d.obj)
            .collect();
        assert_eq!(leaks, vec![3, 7]);
        assert_eq!(report.objects.leaked, 2);
    }

    #[test]
    fn quarantine_model_releases_at_the_floor() {
        let cfg = AnalyzerConfig { min_quarantine: 100, ..AnalyzerConfig::default() };
        let mut a = Analyzer::new(cfg);
        for i in 0..4u64 {
            a.push(Op::Alloc { obj: i, size: 40 });
            a.push(Op::WriteData { obj: i, len: 40 });
            a.push(Op::Free { obj: i });
        }
        let report = a.finish();
        // Frees accumulate 40, 80, then 120 >= 100 releases everything;
        // the peak sees one live (40) + two quarantined (80).
        assert_eq!(report.rss.peak_live_plus_quarantine, 120);
        assert_eq!(report.rss.peak_live_touched, 40);
    }

    #[test]
    fn touched_bytes_use_clamped_write_lengths() {
        let report = run(&[
            Op::Alloc { obj: 1, size: 64 },
            Op::WriteData { obj: 1, len: 1 << 40 }, // clamps to cap len
            Op::Alloc { obj: 2, size: 128 },        // never written: 0 touched
            Op::Free { obj: 1 },
            Op::Free { obj: 2 },
        ]);
        assert_eq!(report.rss.peak_live_touched, 64);
    }

    #[test]
    fn diagnostics_detail_cap_keeps_counts_exact() {
        let mut a = Analyzer::new(AnalyzerConfig::default());
        for _ in 0..(DIAG_DETAIL_CAP as u64 + 10) {
            a.push(Op::Free { obj: 1 });
        }
        let report = a.finish();
        assert_eq!(report.count(DiagnosticKind::FreeUnallocated), DIAG_DETAIL_CAP as u64 + 10);
        assert_eq!(report.diagnostics.len(), DIAG_DETAIL_CAP);
    }

    #[test]
    fn json_roundtrips_and_is_deterministic() {
        let report = run(&[
            Op::Alloc { obj: 1, size: 64 },
            Op::WriteData { obj: 1, len: 64 },
            Op::Alloc { obj: 2, size: 64 },
            Op::LinkPtr { from: 1, slot: 0, to: 2 },
            Op::Free { obj: 2 },
            Op::ChasePtr { from: 1, slot: 0 },
        ]);
        let text = report.to_json().render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("malformed").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("stale_chases_total").unwrap().as_num(), Some(1));
        assert_eq!(report.to_json().render(), text, "rendering is stable");
        assert!(report.curve_csv().starts_with("op,live_touched_bytes"));
    }

    #[test]
    fn curve_decimates_but_tracks_peaks_exactly() {
        let mut a = Analyzer::new(AnalyzerConfig { min_quarantine: u64::MAX, ..AnalyzerConfig::default() });
        let n = 40_000u64;
        for i in 0..n {
            a.push(Op::Alloc { obj: i % 1024, size: 16 });
            a.push(Op::WriteData { obj: i % 1024, len: 16 });
            a.push(Op::Free { obj: i % 1024 });
        }
        let report = a.finish();
        assert!(report.curve.len() <= CURVE_CAP, "curve stays bounded: {}", report.curve.len());
        // One object live at a time; everything quarantined forever.
        assert_eq!(report.rss.peak_live_touched, 16);
        assert_eq!(report.rss.peak_live_plus_quarantine, 16 * n);
    }
}
