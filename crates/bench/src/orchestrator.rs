//! Parallel, fault-isolated experiment orchestration.
//!
//! The evaluation is a condition × workload × seed matrix whose cells are
//! completely independent: each one generates its own op stream from a
//! seed and runs its own deterministic `System`. This module takes the
//! [`JobSpec`] list a [`crate::plan::MatrixPlan`] expanded, executes it
//! on [`parallel_cells`]' work-stealing `std::thread` pool, and merges the
//! results back into [`Suite`] indexes **in job order**, so the merged
//! output is byte-identical to a one-worker run's no matter how many
//! workers ran or in what order cells finished
//! (`tests/suite_goldens.rs` pins it).
//!
//! Fault isolation: every job runs under `catch_unwind` with one retry; a
//! job that panics twice degrades into a typed [`JobFailure`] record in
//! the final report instead of killing the whole sweep, and (when a repro
//! directory is configured) into a `repro/<key>.json` file that
//! `repro matrix --suites ... --only <key>` replays directly. A resumable
//! checkpoint file (one `morello_sim::Json` object per line) lets an
//! interrupted sweep continue without re-running completed cells. The
//! whole matrix runs in this one process; `RunOptions::workers` is its
//! only parallelism.
//!
//! With [`RunOptions::preflight`], each distinct program among the
//! pending cells ([`crate::plan::JobSpec::program_key`] — the conditions
//! of one workload and seed all stream the same ops) first passes through
//! the static temporal-safety analyzer
//! ([`crate::plan::JobSpec::analyze`]), once, on the pool, before any
//! cell simulates, and every cell that streams it receives the verdict;
//! a malformed program (double free, use-after-free, …) short-circuits
//! each of its cells into the same typed [`JobFailure`] / repro-file
//! path with `attempts == 0` — the deterministic analyzer verdict makes
//! the retry loop pointless.
//!
//! Configuration is fully typed through [`RunOptions`]; `repro`
//! translates `REPRO_JOBS` / `REPRO_INJECT_PANIC` /
//! `REPRO_INJECT_MALFORMED` into it at the CLI edge via [`crate::cli`].

use crate::harness::Suite;
use morello_sim::{Json, RunStats};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use crate::plan::{JobSpec, SuiteKind};

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
    /// replayed (skipping execution) on the next run: one JSONL file.
    pub checkpoint: Option<PathBuf>,
    /// Emit per-job progress/ETA lines to stderr.
    pub progress: bool,
    /// Test hook: jobs whose [`JobSpec::key`] contains this substring
    /// panic on every attempt.
    pub inject_panic: Option<String>,
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
    /// All defaults: serial, no checkpoint, no progress.
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

    /// Sets the checkpoint file.
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
    /// Always `0`: every job is resumed or executed. Kept only because
    /// the frozen `benchmark/` crate still reads it.
    pub skipped: usize,
    /// Static analyses this run performed: one per distinct program among
    /// the cells it had to execute. Zero without
    /// [`RunOptions::preflight`] and on a fully resumed run.
    pub preflight_programs: usize,
}

impl MatrixOutcome {
    /// Always `true`: every job is resumed or executed. Kept only
    /// because the frozen `benchmark/` crate still reads it.
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

/// One job's terminal state; `None` until it is resumed or settled.
type Slot = Option<Result<RunStats, JobFailure>>;

/// Executes `jobs` and merges the results in job order.
///
/// The run is two [`parallel_cells`] calls on `opts.workers` threads:
/// with [`RunOptions::preflight`], first one static analysis per distinct
/// program of the pending cells, then the pending cells themselves. The
/// merge happens after all jobs settle, in job order, so every worker
/// count produces identical [`Suite`]s.
///
/// # Panics
///
/// When the checkpoint file cannot be opened for appending; `repro`
/// checks the path before it calls this.
#[must_use]
pub fn run(jobs: &[JobSpec], opts: &RunOptions) -> MatrixOutcome {
    run_with(jobs, opts, &JobSpec::analyze)
}

/// [`run`] with the pre-flight analysis as a parameter, so a test can
/// substitute one that panics.
fn run_with(jobs: &[JobSpec], opts: &RunOptions, analyse: &Analysis) -> MatrixOutcome {
    let resumed_stats =
        opts.checkpoint.as_deref().map(|path| load_checkpoint(path, jobs)).unwrap_or_default();
    let mut slots: Vec<Slot> =
        jobs.iter().map(|job| resumed_stats.get(&job.key()).cloned().map(Ok)).collect();
    let resumed = slots.iter().flatten().count();
    let pending: Vec<usize> = (0..jobs.len()).filter(|&id| slots[id].is_none()).collect();

    let checkpoint_writer = opts.checkpoint.as_deref().map(CheckpointWriter::open);

    // Phase 1: one verdict per distinct program of the pending cells.
    let (verdicts, program_of) = if opts.preflight {
        preflight(jobs, &pending, opts, analyse)
    } else {
        (Vec::new(), Vec::new())
    };
    if opts.preflight && opts.progress {
        eprintln!("  preflight: {} program(s) for {} cell(s)", verdicts.len(), pending.len());
    }

    // Phase 2: the pending cells.
    let total = jobs.len();
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let outcomes = parallel_cells(pending.len(), opts.workers, |i| {
        let job_id = pending[i];
        let job = &jobs[job_id];
        let outcome = match program_of.get(i).map(|&program| &verdicts[program]) {
            Some(Err(message)) => Err(JobFailure {
                job_id,
                key: job.key(),
                attempts: 0,
                message: message.clone(),
            }),
            _ => attempt_job(job_id, job, opts),
        };
        if let (Some(writer), Ok(stats)) = (&checkpoint_writer, &outcome) {
            writer.append(job, stats);
        }
        let executed = done.fetch_add(1, Ordering::Relaxed) + 1;
        if opts.progress {
            let elapsed = started.elapsed().as_secs_f64();
            let finished = resumed + executed;
            let eta = eta_secs(elapsed, executed, finished, total);
            progress_line(finished, total, &job.key(), outcome.is_err(), elapsed, eta);
        }
        outcome
    });
    for (&job_id, outcome) in pending.iter().zip(outcomes) {
        slots[job_id] = Some(outcome);
    }

    // Push buffered checkpoint lines to disk before reporting success:
    // after `run` returns, every settled cell must be resumable.
    if let Some(writer) = checkpoint_writer {
        writer.finish();
    }

    // Deterministic reduction: job order, not completion order.
    let mut out =
        MatrixOutcome { resumed, preflight_programs: verdicts.len(), ..MatrixOutcome::default() };
    for (job, slot) in jobs.iter().zip(slots) {
        match slot.expect("every job is resumed or executed") {
            Ok(stats) => {
                out.suites
                    .entry(job.merge_label())
                    .or_default()
                    .insert(job.workload(), job.condition(), stats);
            }
            Err(failure) => {
                if let Some(dir) = opts.repro_dir.as_deref() {
                    write_repro_file(dir, job, &failure, opts.progress);
                }
                out.failures.push(failure);
            }
        }
    }
    out.completed = jobs.len() - out.resumed - out.failures.len();
    out
}

/// Calls `f` on each of `0..n` from a work-stealing pool of `workers`
/// scoped threads (inline on the calling thread for `workers <= 1`),
/// returning the results in index order whatever order they finished in.
/// The one pool of the crate: [`run`]'s pre-flight and cells, `opcheck`
/// and the oracle tests all go through it. A panicking call propagates;
/// [`run`] catches a cell's or an analysis's panic inside `f`.
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
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let v = f(i);
                    *slots[i].lock().expect("cell slot") = Some(v);
                })
            })
            .collect();
        // The scope alone waits for each closure, not for its thread to
        // exit; a thread still exiting has not handed its malloc arena
        // back, so a pool started right after (`run`'s phase 2) would
        // make fresh arenas and grow peak RSS run after run.
        for worker in pool {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
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

/// The pre-flight gate of one run: analyses every distinct program among
/// the `pending` cells once, on the pool, before any cell simulates. A
/// program is its generation parameters ([`JobSpec::program_key`]) plus
/// the `inject_malformed` flag — never the display label, which carries
/// no stream length. Returns one verdict per program (`Err` carries the
/// [`JobFailure::message`] of every cell that streams it) and, for each
/// pending cell by position in `pending`, the index of its program.
fn preflight(
    jobs: &[JobSpec],
    pending: &[usize],
    opts: &RunOptions,
    analyse: &Analysis,
) -> (Vec<Result<(), String>>, Vec<usize>) {
    let mut index: BTreeMap<(String, bool), usize> = BTreeMap::new();
    let mut programs = Vec::new();
    let program_of = pending
        .iter()
        .map(|&id| {
            let job = &jobs[id];
            let corrupt =
                opts.inject_malformed.as_deref().is_some_and(|needle| job.key().contains(needle));
            *index.entry((job.program_key(), corrupt)).or_insert_with(|| {
                programs.push((job, corrupt));
                programs.len() - 1
            })
        })
        .collect();
    let verdicts = parallel_cells(programs.len(), opts.workers, |i| {
        let (job, corrupt) = programs[i];
        verdict(analyse, job, corrupt)
    });
    (verdicts, program_of)
}

/// One program's pre-flight verdict. The analysis drives a workload
/// generator; a panic in there must cost that program's cells, not unwind
/// through the pool and kill the sweep.
fn verdict(analyse: &Analysis, job: &JobSpec, corrupt: bool) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| analyse(job, corrupt))) {
        Ok(report) if report.malformed => Err(preflight_message(&report)),
        Ok(_) => Ok(()),
        Err(payload) => {
            Err(format!("preflight: analyzer panicked: {}", panic_message(payload.as_ref())))
        }
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

/// Stderr progress line.
fn progress_line(
    finished: usize,
    total: usize,
    key: &str,
    failed: bool,
    elapsed: f64,
    eta: Option<f64>,
) {
    let eta = eta.map(|secs| format!(", ~{secs:.0}s left")).unwrap_or_default();
    let status = if failed { "FAILED" } else { "done" };
    eprintln!("  [matrix] {finished}/{total} {status} {key} ({elapsed:.1}s elapsed{eta})");
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
// Checkpointing — one append-only file, one JSON object per line,
// rendered and parsed by the deterministic in-tree `morello_sim::Json`.
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

/// The non-blank lines of a checkpoint file's bytes. A line that is not
/// UTF-8 is `None`: like a torn line it costs only its own cell, never
/// the lines after it.
fn checkpoint_lines(bytes: &[u8]) -> impl Iterator<Item = Option<&str>> {
    bytes
        .split(|&b| b == b'\n')
        .map(|line| std::str::from_utf8(line).ok())
        .filter(|line| line.is_none_or(|line| !line.trim().is_empty()))
}

/// Loads the completed cells recorded in the checkpoint file `path` that
/// one of `jobs` can replay: the line's key *and* generation parameters
/// must equal the job's. The key carries no stream length, so a pgbench
/// or gRPC line written at another `REPRO_SCALE` shares its key with
/// this run's cell; replaying it would print that scale's numbers under
/// this scale's header. Such a line is skipped like one from another
/// code version: the cell re-runs and appends a line of its own. The
/// last matching write per key wins. A missing file loads nothing.
fn load_checkpoint(path: &Path, jobs: &[JobSpec]) -> BTreeMap<String, RunStats> {
    let wanted: BTreeMap<String, Json> =
        jobs.iter().map(|job| (job.key(), job.payload_json())).collect();
    let mut map = BTreeMap::new();
    let Ok(bytes) = std::fs::read(path) else { return map };
    for line in checkpoint_lines(&bytes).flatten() {
        if let Some((key, params, stats)) = parse_checkpoint_line(line) {
            if wanted.get(&key) == Some(&params) {
                map.insert(key, stats);
            }
        }
    }
    map
}

/// Rewrites an append-only checkpoint file so it holds exactly one line
/// per cell key — the last write wins, matching [`load_checkpoint`]'s
/// replay semantics — and drops superseded, unparsable or non-UTF-8
/// lines. Long interrupted sweeps re-append every re-run cell, so the
/// checkpoint otherwise grows without bound; compaction returns it to
/// O(cells).
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
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
        Err(e) => return Err(e),
    };
    let mut total = 0usize;
    let mut map: BTreeMap<String, &str> = BTreeMap::new();
    for line in checkpoint_lines(&bytes) {
        total += 1;
        let Some(line) = line else { continue };
        if let Some((key, ..)) = parse_checkpoint_line(line) {
            map.insert(key, line);
        }
    }
    let tmp = path.with_extension("compact.tmp");
    {
        let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
        for line in map.values() {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
    }
    std::fs::rename(&tmp, path)?;
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
    /// Opens the checkpoint file for appending, creating it if missing.
    /// Failures here (and below) abort the run: continuing would silently
    /// produce an unresumable sweep.
    fn open(path: &Path) -> CheckpointWriter {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open checkpoint {}: {e}", path.display()));
        CheckpointWriter { out: Mutex::new((BufWriter::with_capacity(128 * 1024, file), 0)) }
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
