//! Matrix planning: one builder from suite selection to job list.
//!
//! [`MatrixPlan`] is the single entry point that used to be five
//! `expand_*` free functions: it collects the requested suites (in
//! order), the [`Scale`], optional condition/rate overrides, and an
//! optional `--only` substring filter, and produces the ordered
//! [`JobSpec`] list the orchestrator executes. Expansion order is part of
//! the byte-identity contract ([`crate::harness`] states it;
//! `tests/suite_goldens.rs` pins it).
//!
//! An ablation study's cells ([`JobSpec::ablation`]) are jobs like any
//! other: a SPEC stream at [`ABLATION_SEED`] under one condition, with a
//! [`Tweak`] applied to the workload's tuned configuration. They merge
//! under [`ABLATION_LABEL`], not under a suite of their own.
//!
//! ```no_run
//! use rev_bench::harness::Scale;
//! use rev_bench::plan::{MatrixPlan, SuiteKind};
//! let jobs = MatrixPlan::all(Scale::smoke()).build().unwrap();
//! let two_suites = MatrixPlan::new(Scale::smoke())
//!     .suites(&[SuiteKind::Pgbench, SuiteKind::Grpc])
//!     .only("Reloaded")
//!     .build().unwrap();
//! # drop((jobs, two_suites));
//! ```

use crate::harness::{Scale, CONDITIONS, GRPC_CONDITIONS, RATE_SCHEDULE};
use analyze::{Analyzer, AnalyzerConfig, Report};
use cornucopia::PteUpdateMode;
use morello_sim::{
    for_each_batch, Condition, Json, Op, OpSource, RunReport, RunStats, SimConfig, System,
    TelemetryConfig,
};
use std::collections::BTreeSet;
use std::convert::Infallible;
use workloads::{
    grpc_stream, pgbench_stream, spec_stream, GrpcParams, PgbenchParams, SpecProgram, SPEC_PROGRAMS,
};

/// Which suite a job belongs to (the key of
/// [`crate::orchestrator::MatrixOutcome::suites`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SuiteKind {
    /// SPEC CPU2006 surrogates (Figures 1–4, 9; Table 2).
    Spec,
    /// pgbench, unscheduled (Figures 5–7, 9; Table 2).
    Pgbench,
    /// pgbench at fixed arrival rates (Table 1).
    PgbenchRates,
    /// gRPC QPS (Figure 8, 9; Table 2).
    Grpc,
}

impl SuiteKind {
    /// Every suite, in the canonical `repro all` order.
    pub const ALL: [SuiteKind; 4] =
        [SuiteKind::Spec, SuiteKind::Pgbench, SuiteKind::PgbenchRates, SuiteKind::Grpc];

    /// Stable label (checkpoint keys, progress lines, suite map keys).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SuiteKind::Spec => "spec",
            SuiteKind::Pgbench => "pgbench",
            SuiteKind::PgbenchRates => "pgbench-rates",
            SuiteKind::Grpc => "grpc",
        }
    }

    /// Parses a suite label (the `--suites` vocabulary).
    ///
    /// # Errors
    ///
    /// Names the unknown label and the accepted set.
    pub fn parse(label: &str) -> Result<SuiteKind, String> {
        match label.trim() {
            "spec" => Ok(SuiteKind::Spec),
            "pgbench" => Ok(SuiteKind::Pgbench),
            "pgbench-rates" => Ok(SuiteKind::PgbenchRates),
            "grpc" => Ok(SuiteKind::Grpc),
            other => {
                Err(format!("unknown suite {other:?} (spec, pgbench, pgbench-rates, grpc)"))
            }
        }
    }
}

/// How a job regenerates its workload. Jobs carry generation parameters,
/// not op streams: each worker generates its own ops, so expansion is
/// cheap and nothing is shared across threads.
#[derive(Debug, Clone)]
enum Payload {
    Spec { program: SpecProgram, seed: u64 },
    Pgbench { transactions: u64, rate: Option<f64>, seed: u64 },
    Grpc { messages: u64, seed: u64 },
    /// A SPEC stream at [`ABLATION_SEED`] under a tweaked configuration.
    Ablation { program: SpecProgram, tweak: Tweak },
}

/// The workload seed of every ablation cell.
pub const ABLATION_SEED: u64 = 77;

/// The [`crate::orchestrator::MatrixOutcome::suites`] key ablation cells
/// merge under, and the first field of their [`JobSpec::key`].
pub const ABLATION_LABEL: &str = "ablation";

/// How an ablation cell departs from its workload's tuned configuration:
/// exactly the departures the studies in [`crate::ablations`] make. A
/// study's paper-default row declares [`Tweak::None`], whatever knob the
/// study turns, so the studies share that cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tweak {
    None,
    PteMode(PteUpdateMode),
    /// Quarantine divisor, then floor in bytes.
    Quarantine(u64, u64),
    SpareRevokerCore(bool),
    RevokerThreads(usize),
    /// Memory colours per heap region (§7.3).
    Colors(u8),
}

impl Tweak {
    /// The tweak as `knob=value` text (`None` for [`Tweak::None`]): part
    /// of the cell's workload name, hence of its key, and its rendering
    /// in the checkpoint parameters.
    fn label(self) -> Option<String> {
        match self {
            Tweak::None => None,
            Tweak::PteMode(mode) => Some(format!("pte_mode={mode:?}")),
            Tweak::Quarantine(divisor, floor) => {
                Some(format!("quarantine=1/{divisor},floor={floor}"))
            }
            Tweak::SpareRevokerCore(spare) => Some(format!("spare_revoker_core={spare}")),
            Tweak::RevokerThreads(n) => Some(format!("revoker_threads={n}")),
            Tweak::Colors(n) => Some(format!("colors={n}")),
        }
    }

    fn apply(self, config: &SimConfig) -> SimConfig {
        let b = config.to_builder();
        match self {
            Tweak::None => b,
            Tweak::PteMode(mode) => b.pte_mode(mode),
            Tweak::Quarantine(divisor, floor) => b.quarantine_divisor(divisor).min_quarantine(floor),
            Tweak::SpareRevokerCore(spare) => b.spare_revoker_core(spare),
            Tweak::RevokerThreads(n) => b.revoker_threads(n),
            Tweak::Colors(n) => b.colors(n),
        }
        .build()
        .expect("a tuned config stays valid under every study's tweak")
    }
}

/// One independent cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct JobSpec {
    suite: SuiteKind,
    workload: String,
    condition: Condition,
    payload: Payload,
}

impl JobSpec {
    /// One cell of an ablation study: `program`'s stream at
    /// [`ABLATION_SEED`] under `condition`, its configuration tweaked.
    pub(crate) fn ablation(program: SpecProgram, condition: Condition, tweak: Tweak) -> JobSpec {
        let workload = match tweak.label() {
            Some(tweak) => format!("{} [{tweak}]", program.name()),
            None => program.name().to_string(),
        };
        JobSpec {
            suite: SuiteKind::Spec,
            workload,
            condition,
            payload: Payload::Ablation { program, tweak },
        }
    }

    /// The generator family the job streams — for every cell but an
    /// ablation's, also the suite it merges into
    /// ([`JobSpec::merge_label`]).
    #[must_use]
    pub fn suite(&self) -> SuiteKind {
        self.suite
    }

    /// The [`crate::orchestrator::MatrixOutcome::suites`] key this job's
    /// result merges under: its suite's label, or [`ABLATION_LABEL`].
    #[must_use]
    pub fn merge_label(&self) -> &'static str {
        match self.payload {
            Payload::Ablation { .. } => ABLATION_LABEL,
            _ => self.suite.label(),
        }
    }

    /// The workload name (the suite's row label).
    #[must_use]
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The condition this cell runs under.
    #[must_use]
    pub fn condition(&self) -> Condition {
        self.condition
    }

    /// The workload seed the cell regenerates from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match &self.payload {
            Payload::Spec { seed, .. }
            | Payload::Pgbench { seed, .. }
            | Payload::Grpc { seed, .. } => *seed,
            Payload::Ablation { .. } => ABLATION_SEED,
        }
    }

    /// Unique, stable identity: checkpoint key, progress label, and the
    /// target of `REPRO_INJECT_PANIC` substring matching. Deliberately
    /// independent of job *order*, so a checkpoint written under any
    /// suite selection or worker count replays under any other. An ablation
    /// cell's workload name carries its tweak.
    #[must_use]
    pub fn key(&self) -> String {
        let seed = self.seed();
        format!("{}|{}|{}|s{seed}", self.merge_label(), self.workload, self.condition.label())
    }

    /// Display id of the program this cell streams: its key minus the
    /// condition. A label, not an identity — it carries no stream length;
    /// compare programs with [`JobSpec::program_key`].
    #[must_use]
    pub fn program_id(&self) -> String {
        format!("{}|{}|s{}", self.suite.label(), self.workload, self.seed())
    }

    /// Identity of the streamed program: the rendered generation
    /// parameters (kind, length, rate, seed). Two cells stream the same
    /// ops exactly when their keys are equal, whatever their condition,
    /// so one static analysis serves every cell that shares a key.
    #[must_use]
    pub fn program_key(&self) -> String {
        self.payload_json().render()
    }

    /// Structured generation parameters: everything needed to re-run
    /// exactly this cell. Written to `repro/<key>.json` files and to each
    /// checkpoint line, where they decide whether the line may be
    /// replayed (the key alone carries no stream length). Rates are
    /// rendered as strings because the checkpoint JSON dialect is
    /// integer-only.
    #[must_use]
    pub(crate) fn payload_json(&self) -> Json {
        match &self.payload {
            Payload::Spec { program, seed } => Json::obj([
                ("kind", Json::from("spec")),
                ("program", Json::from(program.name())),
                ("seed", Json::from(*seed)),
            ]),
            Payload::Pgbench { transactions, rate, seed } => Json::obj([
                ("kind", Json::from("pgbench")),
                ("transactions", Json::from(*transactions)),
                (
                    "rate",
                    rate.map_or(Json::Null, |r| Json::Str(format!("{r}"))),
                ),
                ("seed", Json::from(*seed)),
            ]),
            Payload::Grpc { messages, seed } => Json::obj([
                ("kind", Json::from("grpc")),
                ("messages", Json::from(*messages)),
                ("seed", Json::from(*seed)),
            ]),
            Payload::Ablation { program, tweak } => Json::obj([
                ("kind", Json::from(ABLATION_LABEL)),
                ("program", Json::from(program.name())),
                ("seed", Json::from(ABLATION_SEED)),
                ("tweak", tweak.label().map_or(Json::Null, Json::Str)),
            ]),
        }
    }

    /// Regenerates the cell's op stream from its seed and hands it to
    /// `f` along with the workload's tuned simulator configuration (an
    /// ablation cell's tweak applied, the cell's condition not yet).
    /// Shared by [`JobSpec::execute`], [`JobSpec::execute_traced`] and
    /// [`JobSpec::analyze`], which must all observe the same program and
    /// configuration.
    fn with_stream<R>(&self, f: impl FnOnce(&mut dyn OpSource, SimConfig) -> R) -> R {
        match &self.payload {
            Payload::Spec { program, seed } => {
                let w = spec_stream(*program, *seed);
                let (mut source, config) = (w.source, w.config);
                f(&mut source, config)
            }
            Payload::Pgbench { transactions, rate, seed } => {
                let w = pgbench_stream(PgbenchParams {
                    transactions: *transactions,
                    rate: *rate,
                    seed: *seed,
                });
                let (mut source, config) = (w.source, w.config);
                f(&mut source, config)
            }
            Payload::Grpc { messages, seed } => {
                let w = grpc_stream(GrpcParams { messages: *messages, seed: *seed });
                let (mut source, config) = (w.source, w.config);
                f(&mut source, config)
            }
            Payload::Ablation { program, tweak } => {
                let w = spec_stream(*program, ABLATION_SEED);
                let (mut source, config) = (w.source, tweak.apply(&w.config));
                f(&mut source, config)
            }
        }
    }

    /// Runs the cell to completion. Panics on simulator error — the
    /// orchestrator catches it.
    ///
    /// Workloads stream straight from their seeds through
    /// [`System::run_stream`]: no cell ever materializes its op vector,
    /// so a worker's resident footprint is one batch buffer plus
    /// generator state.
    pub(crate) fn execute(&self) -> RunStats {
        self.with_stream(|mut source, config| {
            System::new(config.with_condition(self.condition))
                .run_stream(&mut source)
                .expect("surrogate must run clean")
                .into_stats()
        })
    }

    /// Runs the cell with telemetry on — the dynamic half of the
    /// static/dynamic cross-check oracle reads its event journal. One
    /// counter sample per 20 ms of simulated time.
    #[must_use]
    pub fn execute_traced(&self) -> RunReport {
        self.with_stream(|mut source, config| {
            let cfg = config
                .with_condition(self.condition)
                .to_builder()
                .telemetry(TelemetryConfig::full(50_000_000))
                .build()
                .expect("traced config must validate");
            System::new(cfg).run_stream(&mut source).expect("surrogate must run clean")
        })
    }

    /// Statically analyzes the cell's program — the same stream
    /// [`JobSpec::execute`] runs, without simulating it. The pre-flight
    /// gate and `repro opcheck` both go through here.
    ///
    /// With `corrupt_double_free`, a deliberately malformed epilogue
    /// (alloc, free, free again) is appended — the fault-injection hook
    /// behind `REPRO_INJECT_MALFORMED`.
    #[must_use]
    pub fn analyze(&self, corrupt_double_free: bool) -> Report {
        self.with_stream(|source, config| {
            let mut a = Analyzer::new(AnalyzerConfig::from_sim(&config));
            let Ok(()) = for_each_batch(source, |batch| {
                batch.iter().for_each(|&op| a.push(op));
                Ok::<(), Infallible>(())
            });
            if corrupt_double_free {
                a.push(Op::Alloc { obj: u64::MAX, size: 64 });
                a.push(Op::Free { obj: u64::MAX });
                a.push(Op::Free { obj: u64::MAX });
            }
            a.finish()
        })
    }
}

/// The first cell of each distinct program among `cells`
/// ([`JobSpec::program_key`]), in first-appearance order.
#[must_use]
pub fn distinct_programs<'a>(cells: impl IntoIterator<Item = &'a JobSpec>) -> Vec<&'a JobSpec> {
    let mut seen = BTreeSet::new();
    cells.into_iter().filter(|job| seen.insert(job.program_key())).collect()
}

/// A planning error, surfaced before any cell runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan selects no suite at all.
    NoSuites,
    /// The `--only` filter matches no expanded cell.
    EmptyFilter(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoSuites => write!(f, "the plan selects no suites"),
            PlanError::EmptyFilter(needle) => {
                write!(f, "--only {needle:?} matches no cell in the selected suites")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Builder for the evaluation matrix: which suites, at what scale, under
/// which conditions, filtered to which cells.
///
/// Suites expand in the order they were added; [`MatrixPlan::all`] uses
/// the canonical `spec, pgbench, pgbench-rates, grpc` order that
/// `repro all` and `repro matrix`'s default selection share, so one
/// checkpoint covers the whole regeneration and cross-suite cells
/// interleave on the same pool.
#[derive(Debug, Clone)]
pub struct MatrixPlan {
    suites: Vec<SuiteKind>,
    scale: Scale,
    conditions: Vec<Condition>,
    rates: Vec<Option<f64>>,
    extra: Vec<JobSpec>,
    only: Option<String>,
}

impl MatrixPlan {
    /// An empty plan at `scale`: add suites with [`MatrixPlan::suite`] /
    /// [`MatrixPlan::suites`].
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        MatrixPlan {
            suites: Vec::new(),
            scale,
            conditions: CONDITIONS.to_vec(),
            rates: RATE_SCHEDULE.to_vec(),
            extra: Vec::new(),
            only: None,
        }
    }

    /// The full evaluation: all four suites in canonical order.
    #[must_use]
    pub fn all(scale: Scale) -> Self {
        MatrixPlan::new(scale).suites(&SuiteKind::ALL)
    }

    /// Appends one suite to the expansion order.
    #[must_use]
    pub fn suite(mut self, kind: SuiteKind) -> Self {
        self.suites.push(kind);
        self
    }

    /// Appends several suites in the given order.
    #[must_use]
    pub fn suites(mut self, kinds: &[SuiteKind]) -> Self {
        self.suites.extend_from_slice(kinds);
        self
    }

    /// Overrides the condition set for the spec and pgbench suites
    /// (default: the paper's [`CONDITIONS`]). The gRPC suite always uses
    /// [`GRPC_CONDITIONS`] and the rate suite always runs Reloaded, as in
    /// the paper.
    #[must_use]
    pub fn conditions(mut self, conditions: &[Condition]) -> Self {
        self.conditions = conditions.to_vec();
        self
    }

    /// Overrides the arrival-rate schedule for the pgbench-rates suite
    /// (default: Table 1's [`RATE_SCHEDULE`]).
    #[must_use]
    pub fn rates(mut self, rates: &[Option<f64>]) -> Self {
        self.rates = rates.to_vec();
        self
    }

    /// Appends cells planned elsewhere — the ablation studies'
    /// ([`crate::ablations::jobs`]) — after the suites' own, on the same
    /// job list: one pool, one checkpoint, one `--only` filter.
    #[must_use]
    pub(crate) fn cells(mut self, cells: Vec<JobSpec>) -> Self {
        self.extra.extend(cells);
        self
    }

    /// Keeps only cells whose [`JobSpec::key`] contains `needle` (the
    /// `--only` filter; repro files' replay commands use it to re-run a
    /// single cell).
    #[must_use]
    pub fn only(mut self, needle: impl Into<String>) -> Self {
        self.only = Some(needle.into());
        self
    }

    /// Expands the plan into the ordered job list.
    ///
    /// # Errors
    ///
    /// [`PlanError::NoSuites`] for an empty plan and
    /// [`PlanError::EmptyFilter`] when `only` matches nothing — both are
    /// configuration mistakes better surfaced than silently run as an
    /// empty matrix.
    pub fn build(&self) -> Result<Vec<JobSpec>, PlanError> {
        if self.suites.is_empty() {
            return Err(PlanError::NoSuites);
        }
        let mut jobs = Vec::new();
        for suite in &self.suites {
            match suite {
                SuiteKind::Spec => self.expand_spec(&mut jobs),
                SuiteKind::Pgbench => self.expand_pgbench(&mut jobs),
                SuiteKind::PgbenchRates => self.expand_rates(&mut jobs),
                SuiteKind::Grpc => self.expand_grpc(&mut jobs),
            }
        }
        jobs.extend(self.extra.iter().cloned());
        if let Some(needle) = &self.only {
            jobs.retain(|j| j.key().contains(needle.as_str()));
            if jobs.is_empty() {
                return Err(PlanError::EmptyFilter(needle.clone()));
            }
        }
        Ok(jobs)
    }

    /// SPEC: rep (outer) → program → condition (inner), seeds
    /// `1000 + rep`.
    fn expand_spec(&self, jobs: &mut Vec<JobSpec>) {
        for rep in 0..self.scale.reps {
            for program in SPEC_PROGRAMS {
                for &cond in &self.conditions {
                    jobs.push(JobSpec {
                        suite: SuiteKind::Spec,
                        workload: program.name().to_string(),
                        condition: cond,
                        payload: Payload::Spec { program, seed: 1000 + rep },
                    });
                }
            }
        }
    }

    /// pgbench (seeds `2000 + rep`).
    fn expand_pgbench(&self, jobs: &mut Vec<JobSpec>) {
        let tx = crate::harness::pgbench_transactions(self.scale);
        for rep in 0..self.scale.reps {
            for &cond in &self.conditions {
                jobs.push(JobSpec {
                    suite: SuiteKind::Pgbench,
                    workload: "pgbench".to_string(),
                    condition: cond,
                    payload: Payload::Pgbench { transactions: tx, rate: None, seed: 2000 + rep },
                });
            }
        }
    }

    /// Rate-scheduled pgbench (Table 1; Reloaded only, seed 3000).
    fn expand_rates(&self, jobs: &mut Vec<JobSpec>) {
        let tx = crate::harness::pgbench_transactions(self.scale);
        jobs.extend(self.rates.iter().map(|&rate| JobSpec {
            suite: SuiteKind::PgbenchRates,
            workload: crate::harness::rate_label(rate),
            condition: Condition::reloaded(),
            payload: Payload::Pgbench { transactions: tx, rate, seed: 3000 },
        }));
    }

    /// gRPC QPS (seeds `4000 + rep`; CHERIvoke excluded as in the paper).
    fn expand_grpc(&self, jobs: &mut Vec<JobSpec>) {
        let msgs = crate::harness::grpc_messages(self.scale);
        for rep in 0..self.scale.reps {
            for cond in GRPC_CONDITIONS {
                jobs.push(JobSpec {
                    suite: SuiteKind::Grpc,
                    workload: "gRPC QPS".to_string(),
                    condition: cond,
                    payload: Payload::Grpc { messages: msgs, seed: 4000 + rep },
                });
            }
        }
    }
}
