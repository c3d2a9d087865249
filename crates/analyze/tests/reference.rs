//! Differential property: the analyzer against a deliberately naive
//! reference on random *malformed* programs — the inputs no generator
//! produces and the goldens therefore never see. The reference keeps
//! ordered maps and one flat link table and finds dangling links by
//! scanning all of it, so every order the analyzer's id-keyed hash
//! tables could leak (diagnostic details under the per-kind cap, stale
//! chases, leaks, lifetimes) is pinned by construction, not by capture.
//! Ids span both tiers of the analyzer's object table (see [`id`]), and
//! dangling links are found by the scan the analyzer runs only while
//! details are stored, so both sides of that cap are compared.
//!
//! Each program runs at three drain cadences: chases drained after every
//! op, after every batch, and never (only [`analyze`]'s report). The
//! drains must concatenate to the reference's whole chase list, and the
//! three reports (total, digest, prefix and all) must be equal.

use analyze::{
    analyze, chase_digest, Analyzer, AnalyzerConfig, Diagnostic, DiagnosticKind, Lifetime, Report,
    StaleChase, DIAG_DETAIL_CAP, STALE_PREFIX_CAP,
};
use morello_sim::{ObjId, Op};
use simtest::check::{vec_of, CaseResult};
use simtest::sim_assert_eq;
use std::collections::BTreeMap;

/// A root table smaller than the id space, so ids alias.
const MAX_OBJECTS: u64 = 8;
const IDS: u64 = 12;

struct Live {
    gen: u64,
    cap_len: u64,
    touched: u64,
}

#[derive(Default)]
struct Naive {
    live: BTreeMap<ObjId, Live>,
    lifetimes: BTreeMap<ObjId, Lifetime>,
    roots: BTreeMap<u64, ObjId>,
    /// `(from, effective slot) -> (to, to's generation at link time)`.
    links: BTreeMap<(ObjId, u64), (ObjId, u64)>,
    diags: Vec<Diagnostic>,
    stale: Vec<StaleChase>,
    peak_live_touched: u64,
}

impl Naive {
    fn diag(&mut self, kind: DiagnosticKind, op_index: u64, obj: ObjId, aux: u64) {
        self.diags.push(Diagnostic { kind, op_index, obj, aux });
    }

    fn require_live(&mut self, i: u64, obj: ObjId) -> bool {
        if !self.live.contains_key(&obj) {
            let ever = u64::from(self.lifetimes.contains_key(&obj));
            self.diag(DiagnosticKind::UseAfterFree, i, obj, ever);
        }
        self.live.contains_key(&obj)
    }

    fn eff(&self, obj: ObjId, slot: u64) -> Option<u64> {
        let usable = self.live[&obj].cap_len / 16;
        (usable > 0).then(|| slot % usable)
    }

    fn alloc(&mut self, i: u64, obj: ObjId, cap_len: u64) {
        if self.live.contains_key(&obj) {
            return self.diag(DiagnosticKind::AllocBusy, i, obj, 0);
        }
        if let Some(other) = self.roots.insert(obj % MAX_OBJECTS, obj) {
            self.diag(DiagnosticKind::RootSlotAliased, i, obj, other);
        }
        let l = self.lifetimes.entry(obj).or_insert(Lifetime {
            obj,
            generations: 0,
            first_op: i,
            last_op: None,
            max_bytes: 0,
        });
        l.generations += 1;
        l.max_bytes = l.max_bytes.max(cap_len);
        self.live.insert(obj, Live { gen: l.generations, cap_len, touched: 0 });
    }

    fn free(&mut self, i: u64, obj: ObjId) {
        let Some(o) = self.live.remove(&obj) else {
            let kind = if self.lifetimes.contains_key(&obj) {
                DiagnosticKind::DoubleFree
            } else {
                DiagnosticKind::FreeUnallocated
            };
            return self.diag(kind, i, obj, 0);
        };
        let dangling: Vec<ObjId> = self
            .links
            .iter()
            .filter(|&(_, &target)| target == (obj, o.gen))
            .map(|(&(from, _), _)| from)
            .collect();
        for from in dangling {
            self.diag(DiagnosticKind::DanglingLink, i, obj, from);
        }
        self.links.retain(|&(from, _), _| from != obj);
        if self.roots.get(&(obj % MAX_OBJECTS)) == Some(&obj) {
            self.roots.remove(&(obj % MAX_OBJECTS));
        }
        self.lifetimes.get_mut(&obj).expect("was allocated").last_op = Some(i);
    }

    fn write(&mut self, i: u64, obj: ObjId, len: u64) {
        if !self.require_live(i, obj) {
            return;
        }
        let o = self.live.get_mut(&obj).expect("checked live");
        let clamped = len.clamp(1, o.cap_len.max(1));
        o.touched = o.touched.max(clamped);
        self.links.retain(|&(from, eff), _| from != obj || eff * 16 >= clamped);
    }

    fn link(&mut self, i: u64, from: ObjId, slot: u64, to: ObjId) {
        if !self.require_live(i, from) || !self.require_live(i, to) {
            return;
        }
        if let Some(eff) = self.eff(from, slot) {
            self.links.insert((from, eff), (to, self.live[&to].gen));
        }
    }

    fn chase(&mut self, i: u64, from: ObjId, slot: u64) {
        if !self.require_live(i, from) {
            return;
        }
        let link = self.eff(from, slot).and_then(|eff| self.links.get(&(from, eff)));
        if let Some(&(to, to_gen)) = link {
            if self.live.get(&to).map(|o| o.gen) != Some(to_gen) {
                self.stale.push(StaleChase { op_index: i, from, slot, to });
            }
        }
    }

    fn step(&mut self, i: u64, op: Op) {
        match op {
            Op::Alloc { obj, size } => self.alloc(i, obj, size.max(1)),
            Op::Free { obj } => self.free(i, obj),
            Op::LoadObj { obj } | Op::SyscallHoard { obj } | Op::ReadData { obj, .. } => {
                self.require_live(i, obj);
            }
            Op::WriteData { obj, len } => self.write(i, obj, len),
            Op::LinkPtr { from, slot, to } => self.link(i, from, slot, to),
            Op::ChasePtr { from, slot } => self.chase(i, from, slot),
            _ => {}
        }
        let touched = self.live.values().map(|o| o.touched).sum();
        self.peak_live_touched = self.peak_live_touched.max(touched);
    }
}

/// The id domain: a few dense ids (drawn most often, so every
/// malformation and slot collision is hit), a band around the analyzer's
/// dense-tier floor of 1024 ids, where an id joins the indexed tier or
/// the map by how many distinct ids came first and the indexed tier can
/// later grow past an id the map holds, and three far ids only the map
/// can hold.
const DOMAIN: u64 = 32;

fn id(i: u64) -> ObjId {
    const FAR: [ObjId; 3] = [1 << 40, ObjId::MAX - 1, ObjId::MAX];
    match i {
        0..=15 => i % IDS,
        16..=18 => FAR[(i - 16) as usize],
        _ => 1020 + 4 * (i - 19),
    }
}

/// One op from four small integers; sizes and write lengths are drawn
/// from narrow sets.
fn op_from((kind, a, b, c): (u8, u64, u64, u64)) -> Op {
    const SIZES: [u64; 6] = [8, 16, 32, 64, 128, 4096];
    const WRITES: [u64; 5] = [1, 16, 17, 48, 1 << 20];
    let (a, b) = (id(a), id(b));
    match kind {
        0..=3 => Op::Alloc { obj: a, size: SIZES[c as usize % SIZES.len()] },
        4..=5 => Op::Free { obj: a },
        6 => Op::LoadObj { obj: a },
        7 => Op::ReadData { obj: a, len: c },
        8..=9 => Op::WriteData { obj: a, len: WRITES[c as usize % WRITES.len()] },
        10..=12 => Op::LinkPtr { from: a, slot: c, to: b },
        13..=15 => Op::ChasePtr { from: a, slot: c },
        _ => Op::SyscallHoard { obj: a },
    }
}

/// Runs `ops` through an analyzer fed `batch` ops at a time, draining
/// after every op (`per_op`) or after every batch; returns the report and
/// the concatenated drains.
fn drained(
    ops: &[Op],
    cfg: AnalyzerConfig,
    batch: usize,
    per_op: bool,
) -> (Report, Vec<StaleChase>) {
    let mut a = Analyzer::new(cfg);
    let mut chases = Vec::new();
    for chunk in ops.chunks(batch) {
        for &op in chunk {
            a.push(op);
            if per_op {
                a.drain_chases(&mut chases);
            }
        }
        a.drain_chases(&mut chases);
    }
    (a.finish(), chases)
}

/// Runs `ops` through the analyzer and the naive reference and compares
/// every detail, count and list the report holds, at each drain cadence
/// (`batch` ops per batch).
fn agree(ops: Vec<Op>, batch: usize) -> CaseResult {
    let n = ops.len() as u64;
    let mut naive = Naive::default();
    for (i, &op) in ops.iter().enumerate() {
        naive.step(i as u64, op);
    }
    for (&obj, o) in &naive.live {
        naive.diags.push(Diagnostic { kind: DiagnosticKind::Leak, op_index: n, obj, aux: o.touched });
        naive.lifetimes.get_mut(&obj).expect("was allocated").last_op = None;
    }

    let cfg = AnalyzerConfig { max_objects: MAX_OBJECTS, ..AnalyzerConfig::default() };
    for per_op in [true, false] {
        let (report, chases) = drained(&ops, cfg, batch, per_op);
        let cadence = if per_op { "per op" } else { "per batch" };
        sim_assert_eq!(chases, naive.stale, "drained {cadence}");
        sim_assert_eq!(report, analyze(ops.clone().into_iter(), cfg), "drained {cadence}");
    }
    let report = analyze(ops.into_iter(), cfg);

    let mut seen = [0usize; DiagnosticKind::ALL.len()];
    let kind_index = |k| DiagnosticKind::ALL.iter().position(|&x| x == k).expect("in ALL");
    let capped: Vec<Diagnostic> = naive
        .diags
        .iter()
        .filter(|d| {
            seen[kind_index(d.kind)] += 1;
            seen[kind_index(d.kind)] <= DIAG_DETAIL_CAP
        })
        .copied()
        .collect();
    sim_assert_eq!(report.diagnostics, capped);
    for kind in DiagnosticKind::ALL {
        let expected = match kind {
            DiagnosticKind::StaleChase => naive.stale.len(),
            _ => seen[kind_index(kind)],
        };
        sim_assert_eq!(report.count(kind), expected as u64, "count of {}", kind.label());
    }
    let prefix = &naive.stale[..naive.stale.len().min(STALE_PREFIX_CAP)];
    sim_assert_eq!(report.stale_chase_prefix, prefix);
    sim_assert_eq!(report.stale_chase_digest, chase_digest(&naive.stale));
    sim_assert_eq!(report.lifetimes, naive.lifetimes.values().copied().collect::<Vec<_>>());
    sim_assert_eq!(report.objects.distinct, naive.lifetimes.len() as u64);
    sim_assert_eq!(report.objects.leaked, naive.live.len() as u64);
    sim_assert_eq!(report.rss.peak_live_touched, naive.peak_live_touched);
    Ok(())
}

simtest::props! {
    #![config(simtest::Config { cases: 256, ..Default::default() })]

    fn analyzer_agrees_with_the_naive_reference(
        raw in vec_of((0u8..17, 0u64..DOMAIN, 0u64..DOMAIN, 0u64..10), 1..600),
        batch in 1usize..64,
    ) {
        agree(raw.into_iter().map(op_from).collect(), batch)?;
    }
}

/// More chases than the report's prefix holds, interleaved with frees,
/// reallocations and re-links: the drains still carry every one, and the
/// prefix stops at the cap.
#[test]
fn more_chases_than_the_prefix_holds_agree_with_the_reference() {
    let mut ops = vec![Op::Alloc { obj: 0, size: 64 }];
    for round in 0..STALE_PREFIX_CAP as u64 / 4 + 40 {
        let target = 1 + round % 3;
        ops.push(Op::Alloc { obj: target, size: 64 });
        ops.push(Op::LinkPtr { from: 0, slot: round % 4, to: target });
        ops.push(Op::Free { obj: target });
        ops.extend((0..5).map(|_| Op::ChasePtr { from: 0, slot: round % 4 }));
    }
    let report = analyze(ops.clone().into_iter(), AnalyzerConfig::default());
    assert!(report.count(DiagnosticKind::StaleChase) > STALE_PREFIX_CAP as u64 + 100);
    assert_eq!(report.stale_chase_prefix.len(), STALE_PREFIX_CAP);
    for batch in [1, 7, 1024] {
        agree(ops.clone(), batch).unwrap();
    }
}

/// One free crosses the dangling-link detail cap: 60 links dangle at
/// earlier frees, then one free leaves 10 holders (one of them the freed
/// object itself, one holding it in two slots). The exact count and the
/// first `DIAG_DETAIL_CAP` details, holder-ordered within the crossing
/// free, must match; later frees only count, so their counts must have
/// dropped every link that was overwritten, cleared or freed with its
/// holder.
#[test]
fn a_free_that_crosses_the_dangling_link_cap_agrees_with_the_reference() {
    let mut ops = Vec::new();
    for t in 0..6 {
        let target = 100 + t;
        ops.push(Op::Alloc { obj: target, size: 64 });
        for h in 0..10 {
            ops.push(Op::Alloc { obj: h, size: 64 });
            ops.push(Op::LinkPtr { from: h, slot: 0, to: target });
        }
        ops.push(Op::Free { obj: target });
        ops.extend((0..10).map(|h| Op::Free { obj: h }));
    }
    let target = 1 << 40;
    ops.push(Op::Alloc { obj: target, size: 64 });
    for h in (0..8).rev() {
        ops.push(Op::Alloc { obj: h, size: 64 });
        ops.push(Op::LinkPtr { from: h, slot: 1, to: target });
    }
    ops.push(Op::LinkPtr { from: 3, slot: 2, to: target });
    ops.push(Op::LinkPtr { from: target, slot: 0, to: target });
    ops.push(Op::Free { obj: target });
    // Past the cap only the count is kept, so it must have forgotten
    // every link that stopped pointing at its target: 200's second link
    // is overwritten, 201's is cleared by a write, 202's holder is freed.
    for (h, second) in [(0, 5), (1, 6), (2, 4)] {
        ops.push(Op::Alloc { obj: 200 + h, size: 64 });
        ops.push(Op::LinkPtr { from: h, slot: 1, to: 200 + h });
        ops.push(Op::LinkPtr { from: second, slot: 3, to: 200 + h });
    }
    ops.push(Op::LinkPtr { from: 5, slot: 3, to: 6 });
    ops.push(Op::WriteData { obj: 6, len: 64 });
    ops.push(Op::Free { obj: 4 });
    ops.extend((200..203).map(|obj| Op::Free { obj }));
    let report = analyze(ops.clone().into_iter(), AnalyzerConfig::default());
    assert_eq!(report.count(DiagnosticKind::DanglingLink), 60 + 10 + 3);
    agree(ops, 16).unwrap();
}
