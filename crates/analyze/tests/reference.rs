//! Differential property: the analyzer against a deliberately naive
//! reference on random *malformed* programs — the inputs no generator
//! produces and the goldens therefore never see. The reference keeps
//! ordered maps and one flat link table and finds dangling links by
//! scanning all of it, so every order the analyzer's id-keyed hash
//! tables could leak (diagnostic details under the per-kind cap, stale
//! chases, leaks, lifetimes) is pinned by construction, not by capture.

use analyze::{
    analyze, AnalyzerConfig, Diagnostic, DiagnosticKind, Lifetime, StaleChase, DIAG_DETAIL_CAP,
};
use morello_sim::{ObjId, Op};
use simtest::check::vec_of;
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

/// One op from four small integers; ids and sizes are drawn from ranges
/// narrow enough that every malformation and every slot collision is hit
/// often.
fn op_from((kind, a, b, c): (u8, u64, u64, u64)) -> Op {
    const SIZES: [u64; 6] = [8, 16, 32, 64, 128, 4096];
    const WRITES: [u64; 5] = [1, 16, 17, 48, 1 << 20];
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

simtest::props! {
    #![config(simtest::Config { cases: 256, ..Default::default() })]

    fn analyzer_agrees_with_the_naive_reference(
        raw in vec_of((0u8..17, 0u64..IDS, 0u64..IDS, 0u64..10), 1..600),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(op_from).collect();
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
        sim_assert_eq!(report.stale_chases, naive.stale);
        sim_assert_eq!(report.lifetimes, naive.lifetimes.values().copied().collect::<Vec<_>>());
        sim_assert_eq!(report.objects.distinct, naive.lifetimes.len() as u64);
        sim_assert_eq!(report.objects.leaked, naive.live.len() as u64);
        sim_assert_eq!(report.rss.peak_live_touched, naive.peak_live_touched);
    }
}
