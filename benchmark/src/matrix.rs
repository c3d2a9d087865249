//! `matrix-shortcells`: many ~15 ms cells through the evaluation
//! harness — plan expansion, the fault-isolated worker pool with the
//! pre-flight analyzer and a JSONL checkpoint, a second run that resumes
//! every cell, checkpoint compaction, and figure rendering. The only
//! workload where `rev_bench` itself is a large share of the time.

use crate::cells::{simulate, LayerCounts, Metered, Stream};
use crate::trace::Tracer;
use crate::{host, Metrics, RepOutcome, Workload};
use rev_bench::figures;
use rev_bench::harness::{grpc_messages, pgbench_transactions, rate_label, Scale, Suite};
use rev_bench::orchestrator::{self, MatrixOutcome, RunOptions};
use rev_bench::plan::{JobSpec, MatrixPlan, SuiteKind};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{count_ops, grpc_stream, pgbench_stream, GrpcParams, PgbenchParams};

const SUITES: [SuiteKind; 3] = [SuiteKind::Pgbench, SuiteKind::PgbenchRates, SuiteKind::Grpc];

/// Repetitions (seeds) per condition: 3 × 5 pgbench + 4 rate rows +
/// 3 × 4 gRPC = 31 cells, so a repetition of the whole pipeline stays
/// under a second and a run collects twenty or more of them.
const PLAN_REPS: u64 = 3;

/// The shortest cells `Scale` allows: 200 pgbench transactions and 500
/// gRPC messages, about 15 ms each.
const SCALE: Scale = Scale {
    fraction: 0.01,
    reps: PLAN_REPS,
};

/// `MatrixPlan` pins each cell's workload seed (it is part of the
/// checkpoint key), and the cell length cannot carry the benchmark seed
/// either: at one revocation per ~22 transactions, five transactions more
/// or less move a cell's work by up to 10 %. So the seed picks Table 1's
/// arrival rates — the same ops on a different schedule, hence different
/// latencies and a different digest at equal host work.
fn rates_for(seed: u64) -> [Option<f64>; 4] {
    let shift = (seed % 16) as f64 * 25.0;
    [
        Some(800.0 + shift),
        Some(1200.0 + shift),
        Some(2000.0 + shift),
        None,
    ]
}

fn plan(rates: &[Option<f64>]) -> Vec<JobSpec> {
    MatrixPlan::new(SCALE)
        .suites(&SUITES)
        .rates(rates)
        .build()
        .expect("three-suite plan expands")
}

/// The stream `job` runs, rebuilt from the job's public identity — what
/// `JobSpec::execute` (private to `rev_bench`) generates for it.
fn job_stream(job: &JobSpec, rates: &[Option<f64>]) -> Stream {
    let pgbench = |rate| {
        let w = pgbench_stream(PgbenchParams {
            transactions: pgbench_transactions(SCALE),
            rate,
            seed: job.seed(),
        });
        (
            Box::new(w.source) as Box<dyn morello_sim::OpSource>,
            w.config,
        )
    };
    match job.suite() {
        SuiteKind::Pgbench => pgbench(None),
        SuiteKind::PgbenchRates => pgbench(
            rates
                .iter()
                .copied()
                .find(|&r| rate_label(r) == job.workload())
                .expect("rate row comes from the plan's rates"),
        ),
        SuiteKind::Grpc => {
            let w = grpc_stream(GrpcParams {
                messages: grpc_messages(SCALE),
                seed: job.seed(),
            });
            (Box::new(w.source), w.config)
        }
        SuiteKind::Spec => unreachable!("the plan holds no SPEC suite"),
    }
}

/// Figures 5–8 and Table 1 from the three suites.
fn render(suites: &BTreeMap<&'static str, Suite>) -> String {
    let empty = Suite::default();
    let get = |kind: SuiteKind| suites.get(kind.label()).unwrap_or(&empty);
    let (pg, rates, grpc) = (
        get(SuiteKind::Pgbench),
        get(SuiteKind::PgbenchRates),
        get(SuiteKind::Grpc),
    );
    [
        figures::fig5_pgbench_time(pg),
        figures::fig6_pgbench_bus(pg),
        figures::fig7_pgbench_cdf(pg),
        figures::fig8_grpc_latency(grpc),
        figures::table1_rates(rates),
    ]
    .concat()
}

pub struct MatrixWorkload {
    rates: [Option<f64>; 4],
    workers: usize,
    dir: PathBuf,
    cells: usize,
    ops_per_rep: u64,
    /// What the first repetition rendered; every later repetition and the
    /// directly driven cells must render the same bytes.
    first_render: Option<String>,
    /// Shortest time of each pipeline stage (plan, run, resume, compact,
    /// render) over the untraced repetitions so far, in nanoseconds.
    best_stage: [u64; 5],
    utilisation: Vec<f64>,
    checkpoint_bytes: u64,
    layers: LayerCounts,
}

impl MatrixWorkload {
    /// Expands the plan once and counts every cell's ops (generation
    /// only), so repetitions can report ops per second.
    pub fn new(seed: u64, out_dir: &std::path::Path) -> Self {
        let rates = rates_for(seed);
        let jobs = plan(&rates);
        let ops_per_rep = jobs
            .iter()
            .map(|j| count_ops(&mut &mut *job_stream(j, &rates).0) as u64)
            .sum();
        let workers = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(2);
        MatrixWorkload {
            rates,
            workers,
            dir: out_dir.join(format!("matrix-tmp-{}", std::process::id())),
            cells: jobs.len(),
            ops_per_rep,
            first_render: None,
            best_stage: [u64::MAX; 5],
            utilisation: Vec::new(),
            checkpoint_bytes: 0,
            layers: LayerCounts::default(),
        }
    }
}

/// Pushes one message per cell the run skipped or failed.
fn check_outcome(what: &str, o: &MatrixOutcome, bad: &mut Vec<String>) {
    if !o.is_complete() {
        bad.push(format!("{what}: {} cells skipped", o.skipped));
    }
    for f in &o.failures {
        bad.push(format!("{what}: cell {} failed: {}", f.key, f.message));
    }
}

impl Workload for MatrixWorkload {
    fn rep(&mut self, tr: &mut Tracer, rep: u32) -> RepOutcome {
        let mut out = RepOutcome {
            attempted: self.cells as u64,
            ops: self.ops_per_rep,
            ..RepOutcome::default()
        };
        let dir = self.dir.join(format!("rep-{rep}"));
        std::fs::create_dir_all(&dir).expect("create the repetition's scratch directory");
        let checkpoint = dir.join("matrix.jsonl");
        let opts = RunOptions::new()
            .workers(self.workers)
            .checkpoint(&checkpoint)
            .preflight(true);

        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let mut stage_end = [0u64; 5];
        let mut stage = 0;
        let mut staged = |tr: &mut Tracer, id: u32| {
            tr.exit(id, 0);
            stage_end[stage] = t0.elapsed().as_nanos() as u64;
            stage += 1;
        };
        let s = tr.enter("bench.plan_build", rep);
        let jobs = plan(&self.rates);
        staged(tr, s);
        let s = tr.enter("bench.run", rep);
        let live = orchestrator::run(&jobs, &opts);
        staged(tr, s);
        let (run_cpu, run_wall) = (host::cpu_seconds() - cpu0, t0.elapsed().as_secs_f64());
        let written = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
        let s = tr.enter("bench.resume", rep);
        let resumed = orchestrator::run(&jobs, &opts);
        staged(tr, s);
        let s = tr.enter("bench.compact", rep);
        let compacted = orchestrator::compact_checkpoint(&checkpoint);
        staged(tr, s);
        let s = tr.enter("bench.render", rep);
        let rendered = render(&resumed.suites);
        staged(tr, s);
        out.wall_s = t0.elapsed().as_secs_f64();
        out.cpu_s = host::cpu_seconds() - cpu0;
        if !tr.on() {
            let mut start = 0;
            for (best, end) in self.best_stage.iter_mut().zip(stage_end) {
                *best = (*best).min(end - start);
                start = end;
            }
        }

        self.utilisation
            .push(run_cpu / (run_wall * self.workers as f64));
        self.checkpoint_bytes = written;
        let bad = &mut out.messages;
        check_outcome("live run", &live, bad);
        check_outcome("resumed run", &resumed, bad);
        if resumed.resumed != self.cells || resumed.completed != 0 {
            bad.push(format!(
                "resume replayed {} of {} cells",
                resumed.resumed, self.cells
            ));
        }
        if render(&live.suites) != rendered {
            bad.push("resumed render differs from the live render".to_string());
        }
        match compacted {
            Ok((kept, 0)) if kept == self.cells => {}
            other => bad.push(format!("compaction of {} cells gave {other:?}", self.cells)),
        }
        // The compacted checkpoint is every cell's key and full RunStats
        // in sorted key order: the digest of the whole matrix.
        let compact_bytes = std::fs::read(&checkpoint).unwrap_or_default();
        out.digest = host::fnv1a(host::FNV_SEED, &compact_bytes);
        std::fs::remove_dir_all(&dir).expect("remove the repetition's scratch directory");
        self.first_render.get_or_insert(rendered);
        out
    }

    fn undisturbed_s(&self) -> f64 {
        self.best_stage.iter().sum::<u64>() as f64 / 1e9
    }

    fn verify(&mut self) -> (u64, Vec<String>) {
        // Every check of this workload runs inside `rep`; only the
        // scratch directory is left to clear away.
        let _ = std::fs::remove_dir_all(&self.dir);
        (0, Vec::new())
    }

    /// Once per traced run, after the measured window: the same cells
    /// driven directly (which gives this workload its `sim`/`workloads`
    /// spans and layer counts, and the reference the orchestrated runs
    /// must match), the pre-flight analysis alone, and a plain
    /// orchestrated run on one worker.
    fn trace_extras(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Vec<String> {
        let jobs = plan(&self.rates);
        let cells = jobs.len() as f64;
        let mut bad = Vec::new();

        self.layers.passes = 1;
        let mut direct: BTreeMap<&'static str, Suite> = BTreeMap::new();
        let t0 = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            let (mut source, cfg) = job_stream(job, &self.rates);
            let cfg = cfg.with_condition(job.condition());
            let mut src = Metered::new(&mut *source, Instant::now());
            match simulate(tr, i as u32, cfg, &mut src, &mut self.layers) {
                Ok(stats) => {
                    self.layers.batch_ops_max = self.layers.batch_ops_max.max(src.batch_max);
                    direct.entry(job.suite().label()).or_default().insert(
                        job.workload(),
                        job.condition(),
                        stats,
                    );
                }
                Err(e) => bad.push(format!("direct drive of {}: {e}", job.key())),
            }
        }
        let direct_s = t0.elapsed().as_secs_f64();
        if Some(render(&direct)) != self.first_render {
            bad.push(
                "directly driven cells render differently from the orchestrated run".to_string(),
            );
        }

        let t0 = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            let s = tr.enter("bench.preflight", i as u32);
            let report = job.analyze(false);
            tr.exit(s, report.ops);
            self.layers.malformed_programs += u64::from(report.malformed);
        }
        let preflight_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let s = tr.enter("bench.run_plain", 0);
        let plain = orchestrator::run(&jobs, &RunOptions::new().workers(1));
        tr.exit(s, 0);
        let plain_s = t0.elapsed().as_secs_f64();
        check_outcome("plain run", &plain, &mut bad);

        let live_run = tr.totals().get("bench.run").copied().unwrap_or_default();
        m.put(
            "bench.run_ms_per_cell",
            live_run.ns as f64 / 1e6 / (live_run.calls as f64 * cells),
        );
        m.put(
            "bench.overhead_ms_per_cell",
            (plain_s - direct_s) * 1e3 / cells,
        );
        m.put("bench.preflight_ms_per_cell", preflight_s * 1e3 / cells);
        // Harness, pre-flight and per-cell set-up as a share of the time
        // the one-worker pipeline spends per cell.
        m.put(
            "bench.overhead_share_pct",
            100.0 * (plain_s - direct_s + preflight_s) / (plain_s + preflight_s),
        );
        m.put(
            "bench.checkpoint_bytes_per_cell",
            self.checkpoint_bytes as f64 / cells,
        );
        m.put(
            "bench.worker_utilisation",
            host::summarise(&self.utilisation).median,
        );
        m.put("bench.cells", cells);
        bad
    }

    fn layer_counts(&self) -> &LayerCounts {
        &self.layers
    }
}
