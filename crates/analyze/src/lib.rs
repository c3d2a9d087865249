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

use cheri_mem::{FastHasher, FastMap};
use morello_sim::{for_each_batch, Json, ObjId, Op, OpSource, SimConfig};
use std::convert::Infallible;
use std::hash::Hasher;

/// Capability granule: slot addresses and tag coverage are 16-byte units.
const CAP_SIZE: u64 = 16;

/// Per-kind cap on stored diagnostic *details* (counts stay exact).
pub const DIAG_DETAIL_CAP: usize = 64;

/// Target length of the decimated byte curve (peaks stay exact).
const CURVE_CAP: usize = 4096;

/// Stale chases a [`Report`] keeps in [`Report::stale_chase_prefix`]
/// (and the JSON export lists); the total and the digest stay exact.
pub const STALE_PREFIX_CAP: usize = 1024;

/// JSON export cap for the lifetime list (its total stays exact).
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
    /// is handed out by [`Analyzer::drain_chases`]; the report keeps its
    /// prefix and digest.
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

/// Running word-wise [`FastHasher`] digest of an ordered chase list, one
/// word per field: what [`Report::stale_chase_digest`] holds for the list
/// [`Analyzer::drain_chases`] hands out.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaseDigest(FastHasher);

impl ChaseDigest {
    /// Appends one chase to the digested list.
    pub fn push(&mut self, c: &StaleChase) {
        for word in [c.op_index, c.from, c.slot, c.to] {
            self.0.write_u64(word);
        }
    }

    /// The digest of the list so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

/// The [`ChaseDigest`] of a whole ordered chase list.
#[must_use]
pub fn chase_digest<'a>(chases: impl IntoIterator<Item = &'a StaleChase>) -> u64 {
    let mut d = ChaseDigest::default();
    chases.into_iter().for_each(|c| d.push(c));
    d.value()
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
    /// The first [`STALE_PREFIX_CAP`] predicted dangling dereferences,
    /// program order. The exact total is
    /// `count(DiagnosticKind::StaleChase)`; the whole list is handed out
    /// only by [`Analyzer::drain_chases`].
    pub stale_chase_prefix: Vec<StaleChase>,
    /// [`ChaseDigest`] of every predicted dangling dereference, in
    /// program order, however often (or never) they were drained.
    pub stale_chase_digest: u64,
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
            self.stale_chase_prefix
                .iter()
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
            ("stale_chases_total", self.count(DiagnosticKind::StaleChase).into()),
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
#[derive(Debug, Default)]
struct Obj {
    /// Allocations so far; also the current generation's number. Zero
    /// marks an id never allocated (an unused slot of the dense tier).
    generations: u64,
    first_op: u64,
    last_end: Option<u64>,
    max_bytes: u64,
    live: Option<LiveObj>,
    /// Outgoing links of the live generation: `effective slot -> target`.
    /// Mirrors the slot storage the simulator writes through `cap_slot`.
    links: FastMap<u64, Link>,
    /// How many live links target the live generation. A free that finds
    /// it non-zero recovers the holders by scanning the link tables.
    incoming: u64,
}

/// Ids below this always fit the dense tier; past it, only ids below it
/// plus twice the distinct ids seen do.
const DENSE_FLOOR: u64 = 1024;

/// The object table: a vector indexed by id for the dense slot numbers
/// the generators emit, and a map for ids far past the vector's length,
/// so host memory stays linear in the distinct ids whatever their values.
#[derive(Debug, Default)]
struct Objects {
    /// Index = id. An id's record lives here iff its `generations` is
    /// non-zero; an id that was far when first seen stays in `far` even
    /// after the vector grows past it.
    dense: Vec<Obj>,
    far: FastMap<ObjId, Obj>,
    /// Ids allocated at least once, both tiers.
    distinct: u64,
}

impl Objects {
    fn get(&self, obj: ObjId) -> Option<&Obj> {
        match usize::try_from(obj).ok().and_then(|i| self.dense.get(i)) {
            Some(o) if o.generations > 0 => Some(o),
            _ => self.far.get(&obj),
        }
    }

    fn get_mut(&mut self, obj: ObjId) -> Option<&mut Obj> {
        match usize::try_from(obj).ok().and_then(|i| self.dense.get_mut(i)) {
            Some(o) if o.generations > 0 => Some(o),
            _ => self.far.get_mut(&obj),
        }
    }

    /// The record of `obj`, created unallocated (`generations == 0`,
    /// first seen at `op_index`) if the id is new. A new id joins the
    /// dense tier if it is below `DENSE_FLOOR + 2 * distinct`, growing
    /// the vector by doubling up to that limit; otherwise it joins `far`.
    fn get_or_insert(&mut self, obj: ObjId, op_index: u64) -> &mut Obj {
        let index = usize::try_from(obj).ok();
        if let Some(i) = index.filter(|&i| self.dense.get(i).is_some_and(|o| o.generations > 0)) {
            return &mut self.dense[i];
        }
        if self.far.contains_key(&obj) {
            return self.far.get_mut(&obj).expect("present");
        }
        self.distinct += 1;
        let fresh = Obj { first_op: op_index, ..Obj::default() };
        let limit = DENSE_FLOOR.saturating_add(2 * self.distinct);
        match index {
            Some(i) if obj < limit => {
                if i >= self.dense.len() {
                    let len = (2 * self.dense.len()).max(i + 1).min(limit as usize);
                    self.dense.reserve_exact(len - self.dense.len());
                    self.dense.resize_with(len, Obj::default);
                }
                self.dense[i] = fresh;
                &mut self.dense[i]
            }
            _ => self.far.entry(obj).or_insert(fresh),
        }
    }

    /// Records the dense tier holds room for, allocated or not.
    #[cfg(test)]
    fn dense_capacity(&self) -> usize {
        self.dense.capacity()
    }

    /// Every allocated id's record, unordered.
    fn iter(&self) -> impl Iterator<Item = (ObjId, &Obj)> {
        let dense = self.dense.iter().enumerate().filter(|(_, o)| o.generations > 0);
        dense.map(|(i, o)| (i as ObjId, o)).chain(self.far.iter().map(|(&id, o)| (id, o)))
    }
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
/// [`Analyzer::push_stream`]; [`analyze`] runs a whole [`OpSource`]), then
/// [`Analyzer::finish`].
///
/// Predicted stale chases are not hoarded: [`Analyzer::drain_chases`]
/// hands out those predicted since the last drain, and the report keeps
/// only their exact total, a digest and the first [`STALE_PREFIX_CAP`].
/// A caller that wants the whole list drains between batches; chases
/// still undrained at [`Analyzer::finish`] are discarded.
///
/// Malformed ops are diagnosed and then *skipped* (treated as no-ops), so
/// one defect does not cascade into spurious downstream reports.
///
/// Objects are indexed by ID (a vector for dense IDs, a fixed-seed hash
/// map for far ones); links and root slots are fixed-seed hash maps.
/// Wherever table order could reach the report (dangling links at free
/// time, leaks and lifetimes in [`Analyzer::finish`]) the entries are
/// sorted first; the only unsorted walks remove every entry they visit.
#[derive(Debug)]
pub struct Analyzer {
    cfg: AnalyzerConfig,
    op_index: u64,
    objs: Objects,
    root_slots: FastMap<u64, ObjId>,
    live_objects: u64,
    diags: Diags,
    /// Chases predicted since the last drain.
    stale: Vec<StaleChase>,
    stale_prefix: Vec<StaleChase>,
    stale_digest: ChaseDigest,
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
            objs: Objects::default(),
            root_slots: FastMap::default(),
            live_objects: 0,
            diags: Diags::default(),
            stale: Vec::new(),
            stale_prefix: Vec::new(),
            stale_digest: ChaseDigest::default(),
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

    /// Analyzes every op of `source`, batch by batch, handing out no
    /// chase: each batch's predictions reach only the report's total,
    /// digest and prefix, so memory stays bounded however many there are.
    pub fn push_stream<S: OpSource + ?Sized>(&mut self, source: &mut S) {
        let Ok(()) = for_each_batch(source, |batch| {
            batch.iter().for_each(|&op| self.push(op));
            self.stale.clear();
            Ok::<(), Infallible>(())
        });
    }

    /// Moves the stale chases predicted since the last drain into `out`,
    /// in program order. Drains concatenate to the whole ordered list,
    /// whatever the cadence.
    pub fn drain_chases(&mut self, out: &mut Vec<StaleChase>) {
        out.append(&mut self.stale);
    }

    /// Finalizes: leak detection, last curve point, report assembly.
    /// Chases not yet drained are discarded.
    #[must_use]
    pub fn finish(mut self) -> Report {
        let table = std::mem::take(&mut self.objs);
        let mut objs: Vec<(ObjId, &Obj)> = table.iter().collect();
        objs.sort_unstable_by_key(|&(obj, _)| obj);
        let mut leaked = 0;
        for &(obj, o) in &objs {
            if let Some(live) = o.live {
                leaked += 1;
                self.diag(DiagnosticKind::Leak, obj, live.touched);
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
            .map(|&(obj, o)| Lifetime {
                obj,
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
            stale_chase_prefix: self.stale_prefix,
            stale_chase_digest: self.stale_digest.value(),
            lifetimes,
            objects: ObjectsSummary {
                distinct: table.distinct,
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

    /// Forgets one link into generation `to_gen` of `to` (the link itself
    /// is already gone or overwritten). It was counted in `to`'s
    /// `incoming` only if that generation is still the live one.
    fn unlink(&mut self, to: ObjId, to_gen: u64) {
        if let Some(t) = self.objs.get_mut(to) {
            if t.live.is_some() && t.generations == to_gen {
                t.incoming -= 1;
            }
        }
    }

    fn new_object(&mut self, obj: ObjId, cap_len: u64) {
        let o = self.objs.get_or_insert(obj, self.op_index);
        if o.live.is_some() {
            self.diags.record(self.op_index, DiagnosticKind::AllocBusy, obj, 0);
            return;
        }
        o.generations += 1;
        o.max_bytes = o.max_bytes.max(cap_len);
        o.live = Some(LiveObj { cap_len, touched: 0 });
        let residue = obj % self.cfg.max_objects;
        if let Some(other) = self.root_slots.insert(residue, obj) {
            // The simulator would silently overwrite `other`'s root
            // capability — the one malformation it does not detect.
            self.diag(DiagnosticKind::RootSlotAliased, obj, other);
        }
        self.generations += 1;
        self.bytes_allocated += cap_len;
        self.live_objects += 1;
        self.peak_live_objects = self.peak_live_objects.max(self.live_objects);
    }

    fn end_object(&mut self, obj: ObjId) {
        let Some(rec) = self.objs.get_mut(obj) else {
            self.diag(DiagnosticKind::FreeUnallocated, obj, 0);
            return;
        };
        let Some(o) = rec.live.take() else {
            self.diag(DiagnosticKind::DoubleFree, obj, 0);
            return;
        };
        rec.last_end = Some(self.op_index);
        // Every link into the dying generation is stale from here on and
        // can never match a later generation, so the count restarts at 0.
        let incoming = std::mem::take(&mut rec.incoming);
        let gen = rec.generations;
        if incoming > 0 {
            self.dangling_links(obj, gen, incoming);
        }
        // A freed object's own slots are gone: a chase can only reach
        // them through a *live* holder, and any future occupant of the
        // storage starts with freshly cleared slot tags. The emptied table
        // keeps its capacity for the id's next generation.
        let mut out = std::mem::take(&mut self.objs.get_mut(obj).expect("present").links);
        for (_, l) in out.drain() {
            self.unlink(l.to, l.to_gen);
        }
        self.objs.get_mut(obj).expect("present").links = out;
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

    /// Diagnoses the `count` live interior pointers into generation `gen`
    /// of `obj` (its own slots included), in holder order. Only while
    /// details are still stored does one scan of every link table recover
    /// the holders; after that the exact count is all the report keeps, so
    /// an analysis makes at most `DIAG_DETAIL_CAP` scans.
    fn dangling_links(&mut self, obj: ObjId, gen: u64, count: u64) {
        let kind = DiagnosticKind::DanglingLink;
        if self.diags.counts[kind.index()] >= DIAG_DETAIL_CAP as u64 {
            self.diags.counts[kind.index()] += count;
            return;
        }
        let into = |l: &Link| l.to == obj && l.to_gen == gen;
        let mut holders: Vec<(ObjId, u64)> = self
            .objs
            .iter()
            .flat_map(|(from, o)| o.links.iter().filter(|(_, l)| into(l)).map(move |(&e, _)| (from, e)))
            .collect();
        debug_assert_eq!(holders.len() as u64, count, "incoming count of {obj}");
        holders.sort_unstable();
        for (from, _) in holders {
            self.diag(kind, obj, from);
        }
    }

    /// The record of `obj` if a generation of it is live; a
    /// use-after-free diagnostic otherwise (`aux` = 1 if one ever was).
    fn require_live(&mut self, obj: ObjId) -> Option<&mut Obj> {
        match self.objs.get_mut(obj) {
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
                doomed.push(*l);
            }
            !dies
        });
        if grown > 0 {
            self.live_touched += grown;
            self.curve_touch();
        }
        for l in doomed {
            self.unlink(l.to, l.to_gen);
        }
    }

    /// Effective slot index within an object, mirroring the simulator's
    /// `cap_slot`: capabilities are granule-aligned, so the usable slot
    /// count is `cap_len / 16` and `slot` wraps modulo it.
    fn eff_slot(cap_len: u64, slot: u64) -> Option<u64> {
        let usable = cap_len / CAP_SIZE;
        if slot < usable {
            Some(slot)
        } else if usable == 0 {
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
        target.incoming += 1;
        let to_gen = target.generations;
        let holder = self.objs.get_mut(from).expect("checked live");
        if let Some(old) = holder.links.insert(eff, Link { to, to_gen }) {
            self.unlink(old.to, old.to_gen);
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
            self.objs.get(l.to).is_some_and(|t| t.live.is_some() && t.generations == l.to_gen);
        if !target_alive {
            self.diags.counts[DiagnosticKind::StaleChase.index()] += 1;
            let chase = StaleChase { op_index: self.op_index, from, slot, to: l.to };
            self.stale_digest.push(&chase);
            if self.stale_prefix.len() < STALE_PREFIX_CAP {
                self.stale_prefix.push(chase);
            }
            self.stale.push(chase);
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

/// Drains `source` through a fresh [`Analyzer`]
/// ([`Analyzer::push_stream`]: no chase is handed out).
pub fn analyze<S: OpSource>(mut source: S, cfg: AnalyzerConfig) -> Report {
    let mut a = Analyzer::new(cfg);
    a.push_stream(&mut source);
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
            report.stale_chase_prefix,
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
        assert_eq!(report.stale_chase_prefix[0].slot, 3);
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

    /// Past the prefix cap the report keeps only the total and the
    /// digest; the drains still hand out every chase, and `finish`
    /// discards what was not drained.
    #[test]
    fn the_report_keeps_a_prefix_and_the_drains_keep_the_rest() {
        let n = STALE_PREFIX_CAP as u64 + 300;
        let mut a = Analyzer::new(AnalyzerConfig::default());
        for op in [
            Op::Alloc { obj: 1, size: 64 },
            Op::Alloc { obj: 2, size: 64 },
            Op::LinkPtr { from: 1, slot: 0, to: 2 },
            Op::Free { obj: 2 },
        ] {
            a.push(op);
        }
        let mut drained = Vec::new();
        for _ in 0..n {
            a.push(Op::ChasePtr { from: 1, slot: 0 });
        }
        a.drain_chases(&mut drained);
        a.push(Op::ChasePtr { from: 1, slot: 0 });
        let report = a.finish();
        assert_eq!(drained.len() as u64, n, "the drain holds every chase so far");
        assert_eq!(report.count(DiagnosticKind::StaleChase), n + 1);
        assert_eq!(report.stale_chase_prefix, drained[..STALE_PREFIX_CAP]);
        let last = StaleChase { op_index: 4 + n, from: 1, slot: 0, to: 2 };
        assert_eq!(report.stale_chase_digest, chase_digest(drained.iter().chain([&last])));
        let json = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(json.get("stale_chases_total").unwrap().as_num(), Some(i128::from(n + 1)));
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

    /// An adversarial id costs one map entry, not a vector reaching it.
    #[test]
    fn an_adversarial_id_stays_cheap() {
        let max_objects = AnalyzerConfig::default().max_objects;
        for far in [max_objects - 1, ObjId::MAX] {
            let (capacity, distinct, lifetimes) = simtest::within_3s(move || {
                let mut a = Analyzer::new(AnalyzerConfig::default());
                for op in [Op::Alloc { obj: 1, size: 64 }, Op::Alloc { obj: far, size: 64 }] {
                    a.push(op);
                }
                a.push(Op::Free { obj: far });
                let capacity = a.objs.dense_capacity();
                let report = a.finish();
                (capacity, report.objects.distinct, report.lifetimes.len())
            });
            assert_eq!((distinct, lifetimes), (2, 2), "{far}");
            assert!(capacity as u64 <= 2 * distinct + DENSE_FLOOR, "{far}: {capacity} records");
        }
    }

    /// An id the map took while it was far stays there when the vector
    /// later grows past it, and is still reported in id order.
    #[test]
    fn the_vector_grows_past_an_id_the_map_holds() {
        let mut a = Analyzer::new(AnalyzerConfig::default());
        let held = DENSE_FLOOR + 76;
        a.push(Op::Alloc { obj: held, size: 64 });
        assert!(a.objs.far.contains_key(&held));
        for obj in 0..40 {
            a.push(Op::Alloc { obj, size: 64 });
        }
        let grown = DENSE_FLOOR + 80;
        a.push(Op::Alloc { obj: grown, size: 64 });
        assert!(a.objs.dense.len() as u64 > held && a.objs.far.len() == 1);
        assert!(a.objs.dense_capacity() as u64 <= 2 * a.objs.distinct + DENSE_FLOOR);
        a.push(Op::LinkPtr { from: grown, slot: 0, to: held });
        a.push(Op::Free { obj: held });
        a.push(Op::ChasePtr { from: grown, slot: 0 });
        let report = a.finish();
        assert!(!report.malformed);
        assert_eq!(report.count(DiagnosticKind::DanglingLink), 1);
        assert_eq!(report.count(DiagnosticKind::StaleChase), 1);
        let ids: Vec<ObjId> = report.lifetimes.iter().map(|l| l.obj).collect();
        let expected: Vec<ObjId> = (0..40).chain([held, grown]).collect();
        assert_eq!(ids, expected);
        assert_eq!(report.lifetimes[40].last_op, Some(43));
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
