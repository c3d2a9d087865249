//! Cell-list workloads: `churn-sweep`, `churn-nosweep`, `pgbench-tx` and
//! `opgen-analyze`. A cell is one seeded op stream put through one layer
//! entry point — a simulation under a condition, a generation-only count
//! pass, or a static analysis. A repetition runs every cell once.

use crate::host;
use crate::trace::Tracer;
use crate::{RepOutcome, Workload};
use analyze::{Analyzer, AnalyzerConfig, Report};
use morello_sim::{
    Condition, Op, OpSource, RunStats, SimConfig, System, TelemetryConfig, OP_BATCH,
};
use rev_bench::harness::{CONDITIONS, GRPC_CONDITIONS};
use std::rc::Rc;
use std::time::Instant;
use workloads::{
    count_ops, grpc_stream, pgbench_stream, spec_stream, GrpcParams, PgbenchParams, SpecProgram,
};

/// A freshly seeded op stream and the simulator configuration tuned for
/// it (condition not yet applied).
pub type Stream = (Box<dyn OpSource>, SimConfig);

/// One seeded program; every cell of the program regenerates its stream
/// from here, so all of them observe the same ops.
pub struct Program {
    pub name: String,
    pub make: Box<dyn Fn() -> Stream>,
}

/// What a cell does with its program's stream.
#[derive(Clone, Copy)]
pub enum Kind {
    Sim(Condition),
    Count,
    Analyze,
}

pub struct Cell {
    pub program: Rc<Program>,
    pub kind: Kind,
}

impl Cell {
    pub fn label(&self) -> String {
        let what = match self.kind {
            Kind::Sim(c) => c.label(),
            Kind::Count => "count",
            Kind::Analyze => "analyze",
        };
        format!("{}|{what}", self.program.name)
    }
}

pub enum Output {
    Sim(Box<RunStats>),
    Count(u64),
    Analysis(Box<Report>),
}

impl Output {
    /// The bytes the stats digest covers: everything the cell produced.
    fn digest_text(&self) -> String {
        match self {
            Output::Sim(stats) => stats.to_json_value().render(),
            Output::Count(n) => n.to_string(),
            Output::Analysis(report) => report.to_json().render(),
        }
    }
}

/// Wraps a stream to learn, from outside `System::run_stream` and
/// `analyze::analyze`, what only their refill calls reveal: the ops, the
/// largest refill buffer, and the time between consecutive refills — one
/// segment per batch (the batch's generation plus whatever the consumer
/// did with the previous one).
pub struct Metered<'a> {
    inner: &'a mut dyn OpSource,
    pub ops: u64,
    pub batch_max: usize,
    last: Instant,
    segments: Vec<u64>,
}

impl<'a> Metered<'a> {
    /// Wraps `inner`; the first segment starts at `start`.
    pub fn new(inner: &'a mut dyn OpSource, start: Instant) -> Self {
        Metered {
            inner,
            ops: 0,
            batch_max: 0,
            last: start,
            segments: Vec::new(),
        }
    }

    fn mark(&mut self) {
        let now = Instant::now();
        self.segments.push((now - self.last).as_nanos() as u64);
        self.last = now;
    }

    /// Closes the last segment (the consumer's work after the final
    /// refill) and returns every segment's nanoseconds.
    pub fn into_segments(mut self) -> Vec<u64> {
        self.mark();
        self.segments
    }
}

impl OpSource for Metered<'_> {
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize {
        self.mark();
        let n = self.inner.refill(buf);
        self.ops += n as u64;
        self.batch_max = self.batch_max.max(buf.len());
        n
    }
}

/// Counters read from the layers of a [`System`] after its last batch
/// and before `finish` (which consumes it), summed over cells.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Traced passes over the workload's cells the sums below cover.
    pub passes: u64,
    pub sim_ops: u64,
    /// Largest refill buffer any cell's stream reached, in ops.
    pub batch_ops_max: usize,
    pub malformed_programs: u64,
    pub epochs: u64,
    pub pages_swept: u64,
    pub pages_visited_clean: u64,
    pub caps_checked: u64,
    pub caps_revoked: u64,
    pub load_faults: u64,
    pub allocs: u64,
    pub frees: u64,
    pub blocked_allocs: u64,
    pub revocations_requested: u64,
    pub tlb_misses: u64,
    pub tlb_shootdowns: u64,
    pub pte_writes: u64,
    pub load_generation_faults: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub dram_txn: u64,
    pub wall_cycles: u64,
    pub sim_peak_rss: u64,
}

impl LayerCounts {
    fn absorb(&mut self, sys: &System, ops: u64) {
        self.sim_ops += ops;
        let rev = sys.revoker().stats();
        self.epochs += rev.epochs;
        self.pages_swept += rev.pages_swept;
        self.pages_visited_clean += rev.pages_visited_clean;
        self.caps_checked += rev.caps_checked;
        self.caps_revoked += rev.caps_revoked;
        self.load_faults += rev.load_faults;
        let heap = sys.heap().stats();
        self.allocs += heap.allocs;
        self.frees += heap.frees;
        self.blocked_allocs += heap.blocked_allocs;
        self.revocations_requested += heap.revocations_requested;
        let vm = sys.machine().vm_stats();
        self.tlb_misses += vm.tlb_misses;
        self.tlb_shootdowns += vm.tlb_shootdowns;
        self.pte_writes += vm.pte_writes;
        self.load_generation_faults += vm.load_generation_faults;
        for core in 0..sys.machine().num_cores() {
            let t = sys.machine().mem().traffic(core);
            self.l1_hits += t.l1_hits;
            self.l2_hits += t.l2_hits;
            self.dram_txn += t.dram_transactions;
        }
        self.wall_cycles += sys.wall();
        self.sim_peak_rss = self.sim_peak_rss.max(sys.machine().peak_resident_bytes());
    }
}

/// Simulates one stream. Untraced, this is the product's own driver loop
/// (`System::run_stream`); traced, the same loop is unrolled here so that
/// each call into `workloads` and `sim` gets a span. Both must produce
/// bit-identical [`RunStats`] — the digest check holds them to it.
pub fn simulate(
    tr: &mut Tracer,
    cell: u32,
    cfg: SimConfig,
    src: &mut Metered,
    layers: &mut LayerCounts,
) -> Result<RunStats, String> {
    if !tr.on() {
        let report = System::new(cfg)
            .run_stream(src)
            .map_err(|e| e.to_string())?;
        return Ok(report.into_stats());
    }
    let s = tr.enter("sim.new", cell);
    let mut sys = System::new(cfg);
    tr.exit(s, 0);
    let mut buf = Vec::with_capacity(OP_BATCH);
    loop {
        buf.clear();
        let s = tr.enter("workloads.refill", cell);
        let n = src.refill(&mut buf);
        tr.exit(s, n as u64);
        if n == 0 {
            break;
        }
        let s = tr.enter("sim.exec_batch", cell);
        let result = sys.exec_batch(&buf);
        tr.exit(s, n as u64);
        result.map_err(|e| e.to_string())?;
    }
    layers.absorb(&sys, src.ops);
    let s = tr.enter("sim.finish", cell);
    let report = sys.finish();
    tr.exit(s, 0);
    Ok(report.into_stats())
}

/// Analyses one stream: `analyze::analyze` untraced, its loop unrolled
/// under spans when traced.
pub fn analyse(tr: &mut Tracer, cell: u32, cfg: &SimConfig, src: &mut Metered) -> Report {
    let acfg = AnalyzerConfig::from_sim(cfg);
    if !tr.on() {
        return analyze::analyze(src, acfg);
    }
    let mut a = Analyzer::new(acfg);
    let mut buf = Vec::with_capacity(OP_BATCH);
    loop {
        buf.clear();
        let s = tr.enter("workloads.refill", cell);
        let n = src.refill(&mut buf);
        tr.exit(s, n as u64);
        if n == 0 {
            break;
        }
        let s = tr.enter("analyze.push", cell);
        for &op in &buf {
            a.push(op);
        }
        tr.exit(s, n as u64);
    }
    let s = tr.enter("analyze.finish", cell);
    let report = a.finish();
    tr.exit(s, 0);
    report
}

/// What running one cell once gave.
struct CellRun {
    output: Output,
    ops: u64,
    batch_max: usize,
    segments: Vec<u64>,
}

fn run_cell(
    tr: &mut Tracer,
    id: u32,
    cell: &Cell,
    layers: &mut LayerCounts,
) -> Result<CellRun, String> {
    let start = Instant::now();
    let (mut source, cfg) = (cell.program.make)();
    let mut src = Metered::new(&mut *source, start);
    let outer = tr.enter("harness.cell", id);
    let output = match cell.kind {
        Kind::Sim(cond) => simulate(tr, id, cfg.with_condition(cond), &mut src, layers)
            .map(|s| Output::Sim(Box::new(s))),
        Kind::Count => {
            let s = tr.enter("workloads.count_pass", id);
            let n = count_ops(&mut src) as u64;
            tr.exit(s, n);
            Ok(Output::Count(n))
        }
        Kind::Analyze => Ok(Output::Analysis(Box::new(analyse(tr, id, &cfg, &mut src)))),
    };
    tr.exit(outer, 0);
    let (ops, batch_max) = (src.ops, src.batch_max);
    Ok(CellRun {
        output: output?,
        ops,
        batch_max,
        segments: src.into_segments(),
    })
}

/// A workload that is a fixed list of cells.
pub struct CellWorkload {
    cells: Vec<Cell>,
    first_rep: Vec<Output>,
    /// Per cell, each segment's shortest time over the untraced
    /// repetitions so far.
    best: Vec<Vec<u64>>,
    /// Per cell, the ops of its stream.
    ops: Vec<u64>,
    layers: LayerCounts,
}

impl CellWorkload {
    fn new(cells: Vec<Cell>) -> Self {
        let (best, ops) = (vec![Vec::new(); cells.len()], vec![0; cells.len()]);
        CellWorkload {
            cells,
            first_rep: Vec::new(),
            best,
            ops,
            layers: LayerCounts::default(),
        }
    }

    /// Undisturbed nanoseconds per op of cell `i`.
    pub fn cell_ns_per_op(&self, i: usize) -> f64 {
        self.best[i].iter().sum::<u64>() as f64 / self.ops[i] as f64
    }

    /// Checks on what the cells of one repetition produced; returns one
    /// message per failed check. Safe strategies must revoke, but need
    /// not agree on how often: the final drain can differ by one epoch.
    fn check_outputs(&self, outputs: &[Output]) -> Vec<String> {
        let mut bad = Vec::new();
        for (cell, out) in self.cells.iter().zip(outputs) {
            let label = cell.label();
            match (cell.kind, out) {
                (Kind::Sim(cond), Output::Sim(s)) => {
                    if s.frees > s.allocs {
                        bad.push(format!("{label}: {} frees > {} allocs", s.frees, s.allocs));
                    }
                    match cond {
                        Condition::Baseline if s.revocations != 0 => {
                            bad.push(format!("{label}: baseline revoked {} times", s.revocations));
                        }
                        Condition::Safe(_) if s.revocations == 0 => {
                            bad.push(format!("{label}: safe strategy never revoked"));
                        }
                        _ => {}
                    }
                }
                (Kind::Analyze, Output::Analysis(r)) if r.malformed_count() != 0 => {
                    bad.push(format!(
                        "{label}: {} malformed-program diagnostics",
                        r.malformed_count()
                    ));
                }
                _ => {}
            }
        }
        bad
    }
}

/// Folds one repetition's segment times into the per-segment minima.
/// The cell's work is deterministic, so it makes the same refill calls
/// every time; a different count means it did something else.
fn keep_fastest(best: &mut Vec<u64>, segments: Vec<u64>) -> Result<(), String> {
    if best.is_empty() {
        *best = segments;
    } else if best.len() == segments.len() {
        for (b, s) in best.iter_mut().zip(segments) {
            *b = (*b).min(s);
        }
    } else {
        return Err(format!(
            "{} refill segments, {} in an earlier repetition",
            segments.len(),
            best.len()
        ));
    }
    Ok(())
}

impl Workload for CellWorkload {
    fn rep(&mut self, tr: &mut Tracer, rep: u32) -> RepOutcome {
        let mut out = RepOutcome::default();
        let mut outputs = Vec::with_capacity(self.cells.len());
        let mut layers = std::mem::take(&mut self.layers);
        layers.passes += u64::from(tr.on());
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        for (i, cell) in self.cells.iter().enumerate() {
            let id = rep * self.cells.len() as u32 + i as u32;
            out.attempted += 1;
            let run = run_cell(tr, id, cell, &mut layers).and_then(|run| {
                if !tr.on() {
                    keep_fastest(&mut self.best[i], run.segments)?;
                }
                out.ops += run.ops;
                self.ops[i] = run.ops;
                layers.batch_ops_max = layers.batch_ops_max.max(run.batch_max);
                outputs.push(run.output);
                Ok(())
            });
            if let Err(e) = run {
                out.messages.push(format!("{}: {e}", cell.label()));
            }
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        out.cpu_s = host::cpu_seconds() - cpu0;
        self.layers = layers;
        out.digest = outputs.iter().fold(host::FNV_SEED, |h, o| {
            host::fnv1a(h, o.digest_text().as_bytes())
        });
        if self.first_rep.is_empty() && outputs.len() == self.cells.len() {
            self.first_rep = outputs;
        }
        out
    }

    fn undisturbed_s(&self) -> f64 {
        self.best.iter().flatten().sum::<u64>() as f64 / 1e9
    }

    /// Output checks on the first repetition, then the static analyzer
    /// as an independent oracle over every simulated program: no
    /// malformed ops, and its peak of live touched bytes bounds the
    /// simulated peak RSS from below under every condition.
    fn verify(&mut self) -> (u64, Vec<String>) {
        let mut bad = self.check_outputs(&self.first_rep);
        let mut attempted = self.cells.len() as u64;
        let mut seen: Vec<&Rc<Program>> = Vec::new();
        for cell in &self.cells {
            if !matches!(cell.kind, Kind::Sim(_))
                || seen.iter().any(|p| Rc::ptr_eq(p, &cell.program))
            {
                continue;
            }
            seen.push(&cell.program);
            attempted += 1;
            let (mut source, cfg) = (cell.program.make)();
            let report = analyse(
                &mut Tracer::new(),
                0,
                &cfg,
                &mut Metered::new(&mut *source, Instant::now()),
            );
            if report.malformed_count() != 0 {
                self.layers.malformed_programs += 1;
                bad.push(format!(
                    "{}: analyzer found a malformed program",
                    cell.program.name
                ));
            }
            for (c, out) in self.cells.iter().zip(&self.first_rep) {
                if let (true, Output::Sim(s)) = (Rc::ptr_eq(&c.program, &cell.program), out) {
                    if report.rss.peak_live_touched > s.peak_rss {
                        bad.push(format!(
                            "{}: static peak {} B exceeds simulated peak RSS {} B",
                            c.label(),
                            report.rss.peak_live_touched,
                            s.peak_rss
                        ));
                    }
                }
            }
        }
        (attempted, bad)
    }

    fn layer_counts(&self) -> &LayerCounts {
        &self.layers
    }
}

// ---------------------------------------------------------------------
// Programs and cell lists
// ---------------------------------------------------------------------

/// A SPEC surrogate with its churn volume scaled to `fraction` (the
/// warm-up that builds the live heap is not scaled). `spec_stream_scaled`
/// cannot do this: it cuts at transaction ends and churn streams have
/// none, so the profile's own `total_churn` is scaled instead.
pub fn churn_program(program: SpecProgram, fraction: f64, seed: u64) -> Rc<Program> {
    Rc::new(Program {
        name: program.name().to_string(),
        make: Box::new(move || {
            let mut profile = program.profile();
            profile.total_churn = (profile.total_churn as f64 * fraction) as u64;
            (
                Box::new(profile.source(seed)),
                spec_stream(program, seed).config,
            )
        }),
    })
}

pub fn pgbench_program(transactions: u64, seed: u64) -> Rc<Program> {
    Rc::new(Program {
        name: format!("pgbench {transactions}tx"),
        make: Box::new(move || {
            let w = pgbench_stream(PgbenchParams {
                transactions,
                rate: None,
                seed,
            });
            (Box::new(w.source), w.config)
        }),
    })
}

pub fn grpc_program(messages: u64, seed: u64) -> Rc<Program> {
    Rc::new(Program {
        name: format!("grpc {messages}msg"),
        make: Box::new(move || {
            let w = grpc_stream(GrpcParams { messages, seed });
            (Box::new(w.source), w.config)
        }),
    })
}

/// The four churn programs and the share of their full churn volume a
/// cell runs: omnetpp and xalancbmk (small pointer-rich objects, highest
/// churn) are cut to keep a repetition near a second; astar and hmmer
/// are small enough to run whole.
const CHURN_PROGRAMS: [(SpecProgram, f64); 4] = [
    (SpecProgram::Omnetpp, 0.1),
    (SpecProgram::Xalancbmk, 0.12),
    (SpecProgram::AstarLakes, 1.0),
    (SpecProgram::HmmerNph3, 1.0),
];

fn cross(programs: &[Rc<Program>], conditions: &[Condition]) -> Vec<Cell> {
    programs
        .iter()
        .flat_map(|p| {
            conditions.iter().map(|&c| Cell {
                program: Rc::clone(p),
                kind: Kind::Sim(c),
            })
        })
        .collect()
}

fn churn(seed: u64, conditions: &[Condition]) -> CellWorkload {
    let programs: Vec<_> = CHURN_PROGRAMS
        .iter()
        .map(|&(p, f)| churn_program(p, f, seed))
        .collect();
    CellWorkload::new(cross(&programs, conditions))
}

pub fn churn_sweep(seed: u64) -> CellWorkload {
    churn(
        seed,
        &[
            Condition::cherivoke(),
            Condition::cornucopia(),
            Condition::reloaded(),
        ],
    )
}

pub fn churn_nosweep(seed: u64) -> CellWorkload {
    churn(seed, &[Condition::baseline(), Condition::paint_sync()])
}

const PGBENCH_TX: u64 = 2_000;
const GRPC_MESSAGES: u64 = 3_000;

pub fn pgbench_tx(seed: u64) -> CellWorkload {
    let mut cells = cross(&[pgbench_program(PGBENCH_TX, seed)], &CONDITIONS);
    cells.extend(cross(
        &[grpc_program(GRPC_MESSAGES, seed)],
        &GRPC_CONDITIONS,
    ));
    CellWorkload::new(cells)
}

/// Seeds generated per program by the count pass of `opgen-analyze`.
const OPGEN_SEEDS: u64 = 4;

pub fn opgen_analyze(seed: u64) -> CellWorkload {
    let programs = |seed: u64| {
        [
            churn_program(SpecProgram::Omnetpp, 0.5, seed),
            churn_program(SpecProgram::Xalancbmk, 0.5, seed),
            pgbench_program(10_000, seed),
        ]
    };
    let mut cells = Vec::new();
    for s in 0..OPGEN_SEEDS {
        cells.extend(programs(seed + s).into_iter().map(|program| Cell {
            program,
            kind: Kind::Count,
        }));
    }
    cells.extend(programs(seed).into_iter().map(|program| Cell {
        program,
        kind: Kind::Analyze,
    }));
    CellWorkload::new(cells)
}

/// The fixed warm-up pass every set-up ends with, whatever the workload.
pub fn warm_up(seed: u64) -> CellWorkload {
    let reloaded = |program| Cell {
        program,
        kind: Kind::Sim(Condition::reloaded()),
    };
    CellWorkload::new(vec![
        reloaded(churn_program(SpecProgram::AstarLakes, 1.0, seed)),
        reloaded(churn_program(SpecProgram::HmmerNph3, 1.0, seed)),
        reloaded(pgbench_program(400, seed)),
        Cell {
            program: pgbench_program(400, seed),
            kind: Kind::Analyze,
        },
    ])
}

/// The condition ladder of the direct drivers: one omnetpp stream (a
/// tenth of its churn) under each of [`CONDITIONS`], in that order, then
/// under Reloaded with every telemetry channel on.
pub fn ladder(seed: u64) -> CellWorkload {
    let plain = churn_program(SpecProgram::Omnetpp, 0.1, seed);
    let mut cells = cross(std::slice::from_ref(&plain), &CONDITIONS);
    let telemetry = Rc::new(Program {
        name: format!("{} +telemetry", plain.name),
        make: Box::new(move || {
            let (source, cfg) = (plain.make)();
            let cfg = cfg
                .to_builder()
                .telemetry(TelemetryConfig::full(1_000_000))
                .build();
            (source, cfg.expect("telemetry config validates"))
        }),
    });
    cells.push(Cell {
        program: telemetry,
        kind: Kind::Sim(Condition::reloaded()),
    });
    CellWorkload::new(cells)
}
