//! Parallel, fault-isolated experiment orchestration.
//!
//! The evaluation is a condition × workload × seed matrix whose cells are
//! completely independent: each one generates its own op stream from a
//! seed and runs its own deterministic `System`. This module takes the
//! [`JobSpec`] list a [`crate::plan::MatrixPlan`] expanded, executes it
//! on a work-stealing `std::thread` pool, and merges the results back
//! into [`Suite`] indexes **in job order**, so the merged output is
//! byte-identical to the serial loops in [`crate::harness`] no matter
//! how many workers ran or in what order cells finished.
//!
//! Fault isolation: every job runs under `catch_unwind` with one retry; a
//! job that panics twice degrades into a typed [`JobFailure`] record in
//! the final report instead of killing the whole sweep, and (when a repro
//! directory is configured) into a `repro/<key>.json` file that
//! `repro matrix --suites ... --only <key>` replays directly. A resumable
//! checkpoint (one `morello_sim::Json` object per line) lets an
//! interrupted sweep continue without re-running completed cells.
//!
//! With [`RunOptions::preflight`], each distinct program among the
//! pending cells ([`crate::plan::JobSpec::program_key`] — the conditions
//! of one workload and seed all stream the same ops) first passes through
//! the static temporal-safety analyzer
//! ([`crate::plan::JobSpec::analyze`]), once, and every cell that streams
//! it receives the verdict; a malformed program (double free,
//! use-after-free, …) short-circuits each of its cells into the same
//! typed [`JobFailure`] / repro-file path with `attempts == 0` — the
//! deterministic analyzer verdict makes the retry loop pointless.
//!
//! # Multi-process sharding
//!
//! The worker pool is in-process threads; to scale past one process, a
//! run can take a [`Shard`] identity `K/N`: it executes only the jobs
//! [`crate::sched::assignment`] packs onto shard `K` (greedy LPT over
//! each cell's op count) and skips the rest, while **resume** stays
//! global — any cell already in the checkpoint is replayed no matter
//! which shard wrote it.
//! Sharded runs require the checkpoint to be a *directory*: each shard
//! appends to its own `shard-K-of-N.jsonl` file (headed by a
//! shard-metadata line recording the assigned job set), so shards never
//! contend on a file, and loading reads every `*.jsonl` in the
//! directory. Because cell keys are topology-independent
//! (`suite|workload|condition|seed`) and the final reduction is in job
//! order, a checkpoint written by N shards replays under M shards or
//! serially, and the merged output is byte-identical to the serial
//! loops. The
//! conventional merge step is simply an unsharded run over the same
//! checkpoint directory: every completed cell resumes, stragglers
//! (including cells whose shard failed) execute locally, and the
//! job-order reduction produces the report.
//!
//! Configuration is fully typed through [`RunOptions`]; `repro`
//! translates `REPRO_JOBS` / `REPRO_INJECT_PANIC` /
//! `REPRO_INJECT_MALFORMED` into it at the CLI edge via [`crate::cli`].

use crate::harness::Suite;
use morello_sim::{Json, RunStats};
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use crate::plan::{JobSpec, SuiteKind};

/// A process's identity in a sharded run: this process executes exactly
/// the jobs [`crate::sched::assignment`] gives `index`. The default
/// `0/1` owns every job (unsharded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index, `0 <= index < count`.
    pub index: usize,
    /// Total shard count.
    pub count: usize,
}

impl Default for Shard {
    fn default() -> Self {
        Shard { index: 0, count: 1 }
    }
}

impl Shard {
    /// Parses a `K/N` shard spec.
    ///
    /// # Errors
    ///
    /// Rejects malformed specs, `N == 0`, and `K >= N`, naming the value.
    pub fn parse(spec: &str) -> Result<Shard, String> {
        let (k, n) = spec
            .split_once('/')
            .ok_or_else(|| format!("shard {spec:?}: expected K/N (e.g. 0/2)"))?;
        let index = k
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("shard {spec:?}: K is not a number"))?;
        let count = n
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("shard {spec:?}: N is not a number"))?;
        if count == 0 {
            return Err(format!("shard {spec:?}: N must be ≥ 1"));
        }
        if index >= count {
            return Err(format!("shard {spec:?}: K must be < N"));
        }
        Ok(Shard { index, count })
    }

    /// True when the run is split across more than one process.
    #[must_use]
    pub fn is_sharded(&self) -> bool {
        self.count > 1
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// A job that panicked on both attempts — or, under
/// [`RunOptions::preflight`], one whose streamed program the static
/// analyzer rejected before any simulation ran — kept as data instead of
/// aborting the sweep.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Index of the job in the submitted matrix.
    pub job_id: usize,
    /// The job's stable key (`suite|workload|condition|seed`).
    pub key: String,
    /// How many attempts were made (the orchestrator retries once).
    /// Zero for a pre-flight rejection: the simulator never ran and a
    /// retry would re-derive the same deterministic verdict.
    pub attempts: u32,
    /// The panic payload, stringified — or a `preflight: ...` summary of
    /// the analyzer's malformed-program diagnostics.
    pub message: String,
}

/// Orchestrator knobs. All typed — nothing in here reads the
/// environment; `repro` translates env vars into these fields at the
/// CLI edge via [`crate::cli`]. Construct with the builder methods
/// (`RunOptions::new().workers(4).checkpoint("ck")...`) or a struct
/// literal; the fields stay public.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads; `0` or `1` runs the jobs inline (serial).
    pub workers: usize,
    /// Checkpoint: completed cells are appended as they finish and
    /// replayed (skipping execution) on the next run. A plain file in
    /// unsharded runs; a *directory* of per-shard `*.jsonl` files when
    /// the path is a directory or [`RunOptions::shard`] is sharded.
    pub checkpoint: Option<PathBuf>,
    /// Emit per-job progress/ETA lines to stderr (prefixed `[shard K/N]`
    /// in sharded runs).
    pub progress: bool,
    /// Test hook: jobs whose [`JobSpec::key`] contains this substring
    /// panic on every attempt.
    pub inject_panic: Option<String>,
    /// This process's shard identity; the default `0/1` executes every
    /// pending job.
    pub shard: Shard,
    /// When set, each job that fails both attempts writes a
    /// `<dir>/<sanitized key>.json` repro file recording its seed,
    /// condition, workload, generation parameters, and a replay command.
    pub repro_dir: Option<PathBuf>,
    /// Run the static temporal-safety analyzer over each distinct
    /// program of the pending cells *before* any cell that streams it is
    /// dispatched to the simulator. A program with malformed-program
    /// diagnostics (double free, use-after-free, …) turns each of its
    /// cells into a typed [`JobFailure`] with `attempts == 0` — never
    /// simulated, never retried — instead of a `catch_unwind` panic.
    pub preflight: bool,
    /// Test hook: jobs whose [`JobSpec::key`] contains this substring
    /// get a double-free appended to their analyzed program (which makes
    /// it a program of its own, analyzed apart from its untouched
    /// siblings), so the pre-flight path can be exercised without a
    /// genuinely broken generator. Only meaningful together with
    /// [`RunOptions::preflight`].
    pub inject_malformed: Option<String>,
}

impl RunOptions {
    /// All defaults: serial, no checkpoint, no progress, unsharded.
    #[must_use]
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the checkpoint path (file or directory).
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Enables or disables stderr progress lines.
    #[must_use]
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Sets the fault-injection substring (test hook).
    #[must_use]
    pub fn inject_panic(mut self, needle: Option<String>) -> Self {
        self.inject_panic = needle;
        self
    }

    /// Sets this process's shard identity.
    #[must_use]
    pub fn shard(mut self, shard: Shard) -> Self {
        self.shard = shard;
        self
    }

    /// Sets the repro-file directory for cells that fail both attempts.
    #[must_use]
    pub fn repro_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.repro_dir = Some(dir.into());
        self
    }

    /// Enables or disables the static-analysis pre-flight gate.
    #[must_use]
    pub fn preflight(mut self, on: bool) -> Self {
        self.preflight = on;
        self
    }

    /// Sets the malformed-program injection substring (test hook).
    #[must_use]
    pub fn inject_malformed(mut self, needle: Option<String>) -> Self {
        self.inject_malformed = needle;
        self
    }
}

/// Parses a `REPRO_JOBS` value: a positive worker count.
///
/// # Errors
///
/// Describes the rejected value ("not a number" / "must be ≥ 1").
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!("REPRO_JOBS={value:?}: must be ≥ 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("REPRO_JOBS={value:?}: not a number")),
    }
}

/// The merged result of one orchestrated matrix run.
#[derive(Debug, Default)]
pub struct MatrixOutcome {
    /// One merged [`Suite`] per [`JobSpec::merge_label`] present in the
    /// job list: the suite kinds', and the ablation cells'.
    pub suites: BTreeMap<&'static str, Suite>,
    /// Jobs that panicked on both attempts, in job order.
    pub failures: Vec<JobFailure>,
    /// Cells executed in this run (excludes checkpoint replays).
    pub completed: usize,
    /// Cells replayed from the checkpoint without execution.
    pub resumed: usize,
    /// Cells owned by *other* shards that were neither resumed nor
    /// executed. Always zero in unsharded runs; nonzero means the merged
    /// suites are partial and the report should not be rendered yet.
    pub skipped: usize,
    /// Static analyses this run performed: one per distinct program among
    /// the cells it had to execute. Zero without
    /// [`RunOptions::preflight`] and on a fully resumed run.
    pub preflight_programs: usize,
}

impl MatrixOutcome {
    /// True when every submitted job settled (resumed, executed, or
    /// failed) — i.e. the suites cover the whole matrix and the report
    /// can be rendered. Only a sharded run with stragglers is incomplete.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.skipped == 0
    }

    /// The merged suite of `kind`: empty when the run planned no such
    /// cell or every one of them failed.
    #[must_use]
    pub fn suite(&self, kind: SuiteKind) -> &Suite {
        self.suites.get(kind.label()).unwrap_or(&NO_CELLS)
    }

    /// The merged ablation cells ([`crate::ablations`]), keyed like a
    /// suite by each cell's workload name — which carries its tweak — and
    /// condition.
    #[must_use]
    pub fn ablations(&self) -> &Suite {
        self.suites.get(crate::plan::ABLATION_LABEL).unwrap_or(&NO_CELLS)
    }
}

static NO_CELLS: Suite = Suite::new();

/// One job's terminal state inside the worker pool.
type Slot = Option<Result<RunStats, JobFailure>>;

/// Executes `jobs` and merges the results in job order.
///
/// With `opts.workers <= 1` the jobs run inline on the calling thread in
/// job order (the serial path); otherwise a work-stealing pool of scoped
/// threads pulls jobs off a shared cursor. Either way the merge happens
/// after all jobs settle, in job order, so both paths produce identical
/// [`Suite`]s.
///
/// With a sharded [`RunOptions::shard`], only the pending jobs
/// [`crate::sched::assignment`] gives this shard execute; cells owned by
/// other shards (and absent from the checkpoint) are counted in
/// [`MatrixOutcome::skipped`] and excluded from the merged suites —
/// re-run unsharded over the same checkpoint to merge a complete matrix.
/// The assignment only decides *who executes what*; resume and the merge
/// are keyed by topology-agnostic cell keys, so checkpoints written
/// under any shard count replay under any other.
#[must_use]
pub fn run(jobs: &[JobSpec], opts: &RunOptions) -> MatrixOutcome {
    run_with(jobs, opts, &JobSpec::analyze)
}

/// [`run`] with the pre-flight analysis as a parameter, so a test can
/// substitute one that panics.
fn run_with(jobs: &[JobSpec], opts: &RunOptions, analyse: &Analysis) -> MatrixOutcome {
    let shard = opts.shard;
    // Only a sharded run pays for the assignment's op-count pass.
    let assigned: Vec<usize> = if shard.is_sharded() {
        crate::sched::assignment(jobs, shard.count).swap_remove(shard.index)
    } else {
        (0..jobs.len()).collect()
    };
    let resumed_stats =
        opts.checkpoint.as_deref().map(|path| load_checkpoint(path, jobs)).unwrap_or_default();
    let mut slots: Vec<Slot> =
        jobs.iter().map(|job| resumed_stats.get(&job.key()).cloned().map(Ok)).collect();
    let resumed = slots.iter().flatten().count();
    // `assigned` is ascending, so owned pending jobs run in job order.
    let pending: Vec<usize> =
        assigned.iter().copied().filter(|&id| slots[id].is_none()).collect();

    let checkpoint_writer =
        opts.checkpoint.as_deref().map(|path| CheckpointWriter::open(path, shard, &assigned));
    let preflight = opts.preflight.then(|| Preflight::plan(jobs, &pending, opts, analyse));
    if let (Some(preflight), true) = (&preflight, opts.progress) {
        eprintln!(
            "  preflight: {} program(s) for {} cell(s)",
            preflight.programs.len(),
            pending.len()
        );
    }

    // Progress denominator: the cells *this process* will settle (its own
    // pending jobs plus everything resumed), not the global matrix.
    let total = resumed + pending.len();
    let slots_shared = Mutex::new(&mut slots);
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let started = Instant::now();

    // Work-stealing loop: workers first drain the distinct programs (so
    // no cell waits for a verdict another worker has not started on),
    // then race on `cursor` for the next pending job id; completion order
    // is nondeterministic, the slot vector is not.
    let worker_loop = || {
        if let Some(preflight) = &preflight {
            preflight.analyse_programs();
        }
        loop {
            let next = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&job_id) = pending.get(next) else { break };
            let job = &jobs[job_id];
            let verdict = preflight.as_ref().map_or(&Ok(()), |p| p.verdict(p.program_of[next]));
            let outcome = match verdict {
                Ok(()) => attempt_job(job_id, job, opts),
                Err(message) => Err(JobFailure {
                    job_id,
                    key: job.key(),
                    attempts: 0,
                    message: message.clone(),
                }),
            };
            if let (Some(writer), Ok(stats)) = (&checkpoint_writer, &outcome) {
                writer.append(job, stats);
            }
            let executed = done.fetch_add(1, Ordering::Relaxed) + 1;
            if opts.progress {
                let elapsed = started.elapsed().as_secs_f64();
                let finished = resumed + executed;
                let eta = eta_secs(elapsed, executed, finished, total);
                progress_line(shard, finished, total, &job.key(), outcome.is_err(), elapsed, eta);
            }
            slots_shared.lock().expect("slot store")[job_id] = Some(outcome);
        }
    };

    let workers = opts.workers.clamp(1, pending.len().max(1));
    if workers <= 1 {
        worker_loop();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker_loop);
            }
        });
    }

    // Push buffered checkpoint lines to disk before reporting success:
    // after `run` returns, every settled cell must be resumable.
    if let Some(writer) = checkpoint_writer {
        writer.finish();
    }

    // Deterministic reduction: job order, not completion order.
    let mut out = MatrixOutcome {
        resumed,
        preflight_programs: preflight.map_or(0, |p| p.analysed()),
        ..MatrixOutcome::default()
    };
    for (job, slot) in jobs.iter().zip(slots) {
        match slot {
            Some(Ok(stats)) => {
                out.suites
                    .entry(job.merge_label())
                    .or_default()
                    .insert(job.workload(), job.condition(), stats);
            }
            Some(Err(failure)) => {
                if let Some(dir) = opts.repro_dir.as_deref() {
                    write_repro_file(dir, job, &failure, opts.progress);
                }
                out.failures.push(failure);
            }
            // Owned pending jobs always settle; only foreign-shard cells
            // can remain unsettled.
            None => out.skipped += 1,
        }
    }
    out.completed = jobs.len() - out.resumed - out.failures.len() - out.skipped;
    out
}

/// Calls `f` on each of `0..n` from a pool of `workers` threads,
/// returning the results in index order. Unlike [`run`], a panicking
/// call propagates: `opcheck` and the oracle tests, which use this, want
/// the abort.
#[must_use]
pub fn parallel_cells<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                *slots[i].lock().expect("cell slot") = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("cell slot").expect("cell completed"))
        .collect()
}

/// The pre-flight analysis of one program: the cell to regenerate it
/// from, and whether to append the `inject_malformed` epilogue.
type Analysis = dyn Fn(&JobSpec, bool) -> analyze::Report + Sync;

/// The pre-flight gate of one run: every distinct program among the
/// pending cells, analysed at most once, its verdict shared by every cell
/// that streams it. A program is its generation parameters
/// ([`JobSpec::program_key`]) plus the `inject_malformed` flag — never
/// the display label, which carries no stream length.
struct Preflight<'a> {
    analyse: &'a Analysis,
    programs: Vec<Program<'a>>,
    /// For each pending cell (by position in `pending`), its program.
    program_of: Vec<usize>,
    cursor: AtomicUsize,
}

struct Program<'a> {
    /// The first pending cell that streams the program.
    job: &'a JobSpec,
    corrupt: bool,
    /// `Err` carries the [`JobFailure::message`] of every cell.
    verdict: OnceLock<Result<(), String>>,
}

impl<'a> Preflight<'a> {
    fn plan(
        jobs: &'a [JobSpec],
        pending: &[usize],
        opts: &RunOptions,
        analyse: &'a Analysis,
    ) -> Self {
        let mut index: BTreeMap<(String, bool), usize> = BTreeMap::new();
        let mut programs = Vec::new();
        let program_of = pending
            .iter()
            .map(|&id| {
                let job = &jobs[id];
                let corrupt = opts
                    .inject_malformed
                    .as_deref()
                    .is_some_and(|needle| job.key().contains(needle));
                *index.entry((job.program_key(), corrupt)).or_insert_with(|| {
                    programs.push(Program { job, corrupt, verdict: OnceLock::new() });
                    programs.len() - 1
                })
            })
            .collect();
        Preflight { analyse, programs, program_of, cursor: AtomicUsize::new(0) }
    }

    /// Analyses programs off the shared cursor until none is left
    /// unclaimed.
    fn analyse_programs(&self) {
        loop {
            let next = self.cursor.fetch_add(1, Ordering::Relaxed);
            if next >= self.programs.len() {
                break;
            }
            self.verdict(next);
        }
    }

    /// The verdict on program `index`: analyses it if no worker has yet,
    /// waits if one is at it. The analysis drives a workload generator; a
    /// panic in there must cost that program's cells, not unwind through
    /// the worker pool and kill the sweep.
    fn verdict(&self, index: usize) -> &Result<(), String> {
        let program = &self.programs[index];
        program.verdict.get_or_init(|| {
            let analysis = || (self.analyse)(program.job, program.corrupt);
            match catch_unwind(AssertUnwindSafe(analysis)) {
                Ok(report) if report.malformed => Err(preflight_message(&report)),
                Ok(_) => Ok(()),
                Err(payload) => Err(format!(
                    "preflight: analyzer panicked: {}",
                    panic_message(payload.as_ref())
                )),
            }
        })
    }

    /// Analyses actually run: the verdicts that are in.
    fn analysed(&self) -> usize {
        self.programs.iter().filter(|p| p.verdict.get().is_some()).count()
    }
}

/// Summarizes a pre-flight rejection: the malformed-diagnostic total and
/// the first offending op, compact enough for a failure record yet
/// specific enough to find the defect without re-running the analyzer.
fn preflight_message(report: &analyze::Report) -> String {
    let first = report
        .diagnostics
        .iter()
        .find(|d| d.kind.severity() == analyze::Severity::Malformed);
    match first {
        Some(d) => format!(
            "preflight: {} malformed-program diagnostic(s); first: {} at op {} (obj {})",
            report.malformed_count(),
            d.kind.label(),
            d.op_index,
            d.obj,
        ),
        None => format!(
            "preflight: {} malformed-program diagnostic(s)",
            report.malformed_count()
        ),
    }
}

/// One `catch_unwind` attempt plus one retry. Under
/// [`RunOptions::preflight`] the job only gets here once its program's
/// verdict is in and clean.
fn attempt_job(job_id: usize, job: &JobSpec, opts: &RunOptions) -> Result<RunStats, JobFailure> {
    let key = job.key();
    let inject = opts.inject_panic.as_deref();
    let run_once = || {
        if inject.is_some_and(|needle| key.contains(needle)) {
            panic!("injected panic (REPRO_INJECT_PANIC matched {key})");
        }
        job.execute()
    };
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(run_once)) {
            Ok(stats) => return Ok(stats),
            Err(payload) => {
                if attempts >= 2 {
                    return Err(JobFailure {
                        job_id,
                        key,
                        attempts,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Seconds until the last cell settles, at this run's own pace:
/// `elapsed` over the cells *executed in this run* — a resumed cell cost
/// no time, so it says nothing about the rate — times the cells still to
/// finish. `None` before the first executed cell and once none is left.
fn eta_secs(elapsed: f64, executed: usize, finished: usize, total: usize) -> Option<f64> {
    (executed > 0 && finished < total)
        .then(|| elapsed / executed as f64 * (total - finished) as f64)
}

/// Stderr progress line. Sharded runs prefix `[shard K/N]` so the
/// interleaved output of concurrent shard processes stays attributable.
fn progress_line(
    shard: Shard,
    finished: usize,
    total: usize,
    key: &str,
    failed: bool,
    elapsed: f64,
    eta: Option<f64>,
) {
    let eta = eta.map(|secs| format!(", ~{secs:.0}s left")).unwrap_or_default();
    let status = if failed { "FAILED" } else { "done" };
    let tag = if shard.is_sharded() {
        format!("shard {}/{}", shard.index, shard.count)
    } else {
        "matrix".to_string()
    };
    eprintln!("  [{tag}] {finished}/{total} {status} {key} ({elapsed:.1}s elapsed{eta})");
}

// ---------------------------------------------------------------------
// Repro files — a deterministic failure, serialized for replay.
// ---------------------------------------------------------------------

/// A filesystem-safe name for a cell key: key characters outside
/// `[A-Za-z0-9._-]` (the `|` separators, spaces, `+`) become `_`.
#[must_use]
pub fn repro_file_name(key: &str) -> String {
    let mut name: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') { c } else { '_' })
        .collect();
    name.push_str(".json");
    name
}

/// Writes `repro/<key>.json` for a cell that failed both attempts: the
/// stable key, the suite/workload/condition coordinates, the generation
/// parameters (seed, scale-derived sizes), the panic message, and a
/// ready-to-paste `repro matrix` replay command (`--only` filters the
/// expanded matrix down to exactly this cell; `REPRO_SCALE`/`REPRO_REPS`
/// must match the failing sweep for the expansion to contain it).
fn write_repro_file(dir: &Path, job: &JobSpec, failure: &JobFailure, progress: bool) {
    // An ablation cell is planned only under `--ablations`.
    let ablations =
        if job.merge_label() == crate::plan::ABLATION_LABEL { " --ablations" } else { "" };
    let replay = format!(
        "cargo run --release -p rev-bench --bin repro -- matrix --suites {}{ablations} --only '{}'",
        job.suite().label(),
        failure.key,
    );
    let doc = Json::obj([
        ("key", Json::Str(failure.key.clone())),
        ("suite", Json::from(job.suite().label())),
        ("workload", Json::Str(job.workload().to_string())),
        ("condition", Json::from(job.condition().label())),
        ("seed", Json::from(job.seed())),
        ("payload", job.payload_json()),
        ("attempts", Json::from(u64::from(failure.attempts))),
        ("message", Json::Str(failure.message.clone())),
        ("replay", Json::Str(replay)),
    ]);
    // Repro files are best-effort debugging aids: failing to write one
    // must not abort the sweep that is busy isolating the real failure.
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(repro_file_name(&failure.key)), doc.render() + "\n"))
    {
        eprintln!("  [repro] WARNING: cannot write repro file for {}: {e}", failure.key);
    } else if progress {
        eprintln!(
            "  [repro] wrote {} (replay with --only)",
            dir.join(repro_file_name(&failure.key)).display()
        );
    }
}

// ---------------------------------------------------------------------
// Checkpointing — one JSON object per line, rendered and parsed by the
// deterministic in-tree `morello_sim::Json`. Unsharded runs use a single
// append-only file; sharded runs use a directory of per-shard files.
// ---------------------------------------------------------------------

/// Parses one checkpoint line into its cell key, the generation
/// parameters it was run with, and its stats. `None` for a torn final
/// line (interrupted write) or an entry from another code version —
/// callers simply re-run such cells.
fn parse_checkpoint_line(line: &str) -> Option<(String, Json, RunStats)> {
    let v = Json::parse(line).ok()?;
    let key = v.get("key").and_then(Json::as_str)?;
    let params = v.get("params")?.clone();
    let stats = RunStats::from_json_value(v.get("stats")?).ok()?;
    Some((key.to_string(), params, stats))
}

/// The `*.jsonl` files under a checkpoint directory, sorted by name for
/// a deterministic load order.
fn checkpoint_dir_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl") && p.is_file())
        .collect();
    files.sort();
    files
}

fn load_checkpoint_file(
    path: &Path,
    wanted: &BTreeMap<String, Json>,
    map: &mut BTreeMap<String, RunStats>,
) {
    let Ok(file) = std::fs::File::open(path) else { return };
    for line in std::io::BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        if let Some((key, params, stats)) = parse_checkpoint_line(&line) {
            if wanted.get(&key) == Some(&params) {
                map.insert(key, stats);
            }
        }
    }
}

/// Loads the completed cells recorded under `path` — a single checkpoint
/// file, or a directory of per-shard `*.jsonl` files — that one of
/// `jobs` can replay: the line's key *and* generation parameters must
/// equal the job's. The key carries no stream length, so a pgbench or
/// gRPC line written at another `REPRO_SCALE` shares its key with this
/// run's cell; replaying it would print that scale's numbers under this
/// scale's header. Such a line is skipped like one from another code
/// version: the cell re-runs and appends a line of its own. Within a
/// file the last matching write per key wins; across files the values
/// are interchangeable (a cell's stats are deterministic), so file order
/// only needs to be stable, not meaningful.
fn load_checkpoint(path: &Path, jobs: &[JobSpec]) -> BTreeMap<String, RunStats> {
    let wanted: BTreeMap<String, Json> =
        jobs.iter().map(|job| (job.key(), job.payload_json())).collect();
    let mut map = BTreeMap::new();
    if path.is_dir() {
        for file in checkpoint_dir_files(path) {
            load_checkpoint_file(&file, &wanted, &mut map);
        }
    } else {
        load_checkpoint_file(path, &wanted, &mut map);
    }
    map
}

/// Rewrites an append-only checkpoint so it holds exactly one line per
/// cell key — the last write wins, matching [`load_checkpoint`]'s replay
/// semantics — and drops superseded or unparsable lines (including shard
/// metadata headers). Long interrupted sweeps re-append every re-run
/// cell, so the checkpoint otherwise grows without bound; compaction
/// returns it to O(cells).
///
/// A single-file checkpoint is rewritten in place. A checkpoint
/// *directory* is merged: every per-shard `*.jsonl` file folds into one
/// `merged.jsonl` and the shard files are removed, so the directory
/// compacts to exactly the same bytes a compacted single-file checkpoint
/// of the same cells would hold (sorted key order, cell lines only) —
/// the on-disk half of the byte-identity contract.
///
/// The rewrite goes through a sibling temp file and a rename, so an
/// interrupted compaction leaves the original checkpoint loadable.
/// Lines are rewritten in sorted key order (deterministic, and exactly
/// the order resume reads them back). A missing path compacts to nothing.
///
/// Returns `(kept, dropped)` line counts.
///
/// # Errors
///
/// Propagates I/O failures from reading or rewriting the checkpoint.
pub fn compact_checkpoint(path: &Path) -> std::io::Result<(usize, usize)> {
    let (sources, target) = if path.is_dir() {
        let files = checkpoint_dir_files(path);
        if files.is_empty() {
            return Ok((0, 0));
        }
        (files, path.join("merged.jsonl"))
    } else {
        match std::fs::metadata(path) {
            Ok(_) => (vec![path.to_path_buf()], path.to_path_buf()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
            Err(e) => return Err(e),
        }
    };
    let mut total = 0usize;
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    for source in &sources {
        for line in std::fs::read_to_string(source)?.lines() {
            if line.trim().is_empty() {
                continue;
            }
            total += 1;
            if let Some((key, ..)) = parse_checkpoint_line(line) {
                map.insert(key, line.to_string());
            }
        }
    }
    let tmp = target.with_extension("compact.tmp");
    {
        let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
        for line in map.values() {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
    }
    std::fs::rename(&tmp, &target)?;
    for source in &sources {
        if *source != target {
            std::fs::remove_file(source)?;
        }
    }
    Ok((map.len(), total - map.len()))
}

/// How many appended cells may sit in the in-memory buffer before a
/// flush. Per-line flushing syscall-bounds sweeps of small cells; a
/// small batch keeps the at-risk window to a handful of re-runnable
/// cells while cutting the syscall rate by the same factor.
const CHECKPOINT_FLUSH_BATCH: usize = 8;

/// Serializes completed cells to the checkpoint through a buffered
/// appender: lines accumulate in a [`BufWriter`] and reach the kernel
/// once per [`CHECKPOINT_FLUSH_BATCH`] appends (plus a final flush in
/// [`CheckpointWriter::finish`] and on drop). A crash between flushes
/// loses at most the buffered tail — possibly mid-line, which resume
/// already tolerates (a torn or missing line just re-runs that cell).
struct CheckpointWriter {
    out: Mutex<(BufWriter<std::fs::File>, usize)>,
}

impl CheckpointWriter {
    /// Opens the append target for this shard: `path` itself for an
    /// unsharded single-file checkpoint, `path/shard-K-of-N.jsonl` when
    /// `path` is (or must become) a directory. A freshly created
    /// per-shard file is headed by a `shard_meta` line recording the
    /// topology and (in sharded runs) the explicit job ids assigned to
    /// this shard — provenance for debugging, skipped by the loader like
    /// any non-cell line. Resume never reads the assignment back: cell
    /// keys are topology-agnostic, which is what lets an N-shard
    /// checkpoint replay under M shards or serially.
    fn open(path: &Path, shard: Shard, assigned: &[usize]) -> CheckpointWriter {
        let dir_mode = shard.is_sharded() || path.is_dir();
        let file_path = if dir_mode {
            std::fs::create_dir_all(path).unwrap_or_else(|e| {
                panic!("cannot create checkpoint directory {}: {e}", path.display())
            });
            path.join(format!("shard-{}-of-{}.jsonl", shard.index, shard.count))
        } else {
            path.to_path_buf()
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&file_path)
            .unwrap_or_else(|e| panic!("cannot open checkpoint {}: {e}", file_path.display()));
        let fresh = file.metadata().map(|m| m.len() == 0).unwrap_or(false);
        let mut out = BufWriter::with_capacity(128 * 1024, file);
        if dir_mode && fresh {
            let mut fields = vec![
                ("format", Json::from(2u64)),
                ("shard", Json::from(shard.index)),
                ("shards", Json::from(shard.count)),
            ];
            if shard.is_sharded() {
                fields.push((
                    "assigned",
                    Json::Arr(assigned.iter().map(|&id| Json::from(id)).collect()),
                ));
            }
            let meta = Json::obj([("shard_meta", Json::Obj(
                fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            ))]);
            // Failures here (and below) abort the run: continuing would
            // silently produce an unresumable sweep.
            out.write_all(meta.render().as_bytes()).expect("write shard metadata");
            out.write_all(b"\n").expect("write shard metadata newline");
            out.flush().expect("flush shard metadata");
        }
        CheckpointWriter { out: Mutex::new((out, 0)) }
    }

    fn append(&self, job: &JobSpec, stats: &RunStats) {
        let line = Json::obj([
            ("key", Json::Str(job.key())),
            ("params", job.payload_json()),
            ("stats", stats.to_json_value()),
        ])
        .render();
        let mut guard = self.out.lock().expect("checkpoint writer");
        let (out, since_flush) = &mut *guard;
        out.write_all(line.as_bytes()).expect("append checkpoint line");
        out.write_all(b"\n").expect("append checkpoint newline");
        *since_flush += 1;
        if *since_flush >= CHECKPOINT_FLUSH_BATCH {
            out.flush().expect("flush checkpoint batch");
            *since_flush = 0;
        }
    }

    /// Final flush once the pool has drained; after this, every settled
    /// cell is durable.
    fn finish(self) {
        let (mut out, _) = self.out.into_inner().expect("checkpoint writer");
        out.flush().expect("flush checkpoint");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use crate::plan::MatrixPlan;

    #[test]
    fn eta_rates_by_the_cells_this_run_executed() {
        // 100 of 132 cells resumed, the first executed one took 1 s: 31
        // are left at 1 s each — not 1 s / 101 × 31 ≈ 0 s.
        assert_eq!(eta_secs(1.0, 1, 101, 132), Some(31.0));
        assert_eq!(eta_secs(6.0, 4, 4, 10), Some(9.0));
        assert_eq!(eta_secs(0.0, 0, 100, 132), None, "nothing executed yet: no rate");
        assert_eq!(eta_secs(32.0, 32, 132, 132), None, "nothing left");
    }

    #[test]
    fn a_panicking_analysis_fails_its_program_not_the_sweep() {
        let jobs = MatrixPlan::new(Scale { fraction: 0.001, reps: 2 })
            .suite(SuiteKind::Pgbench)
            .build()
            .unwrap();
        let analyse = |job: &JobSpec, corrupt: bool| {
            assert!(job.seed() != 2001, "generator exploded");
            job.analyze(corrupt)
        };
        let opts = RunOptions::new().workers(2).preflight(true);
        let outcome = run_with(&jobs, &opts, &analyse);

        assert_eq!(outcome.preflight_programs, 2, "the panicked analysis is not retried");
        let doomed = jobs.iter().filter(|j| j.seed() == 2001).count();
        assert_eq!((outcome.failures.len(), outcome.completed), (doomed, jobs.len() - doomed));
        for failure in &outcome.failures {
            assert_eq!(jobs[failure.job_id].seed(), 2001);
            assert_eq!(failure.attempts, 0);
            assert_eq!(failure.message, "preflight: analyzer panicked: generator exploded");
        }
    }
}
