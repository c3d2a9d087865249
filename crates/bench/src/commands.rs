//! The subcommand bodies of `repro`: what runs once [`crate::cli::parse`]
//! has turned argv into a [`Command`].
//!
//! Progress, ETA and timing lines go to stderr only; everything written
//! to stdout or a report file is independent of worker count.
//!
//! `matrix` and `all` are one body: every requested suite expands into
//! one job list ([`MatrixPlan`]) drained on one worker pool in this one
//! process, so cells interleave across suite boundaries and one
//! `--checkpoint` file covers the whole run ([`orchestrator`] documents
//! resume, `--preflight` and failure records); with `--ablations`
//! (always, for `all`) the ablation studies' cells are on that list too.
//!
//! `opcheck` expands the matrix exactly as `matrix` does, then collapses
//! it to one static analysis per **program**: the analyzer sees ops, not
//! barrier strategies, so cells that differ only in condition share
//! their generation parameters ([`JobSpec::program_key`]) and are
//! analyzed once. The output is one deterministic JSON document; the
//! exit status is 1 if any program carries malformed-program diagnostics
//! — the verdict `matrix --preflight` quarantines on.

use crate::ablations::{self, Ablation};
use crate::cli::{self, Args, Command, TraceWorkload};
use crate::harness::Scale;
use crate::orchestrator::{self, parallel_cells, repro_file_name, JobFailure, JobSpec};
use crate::plan::{distinct_programs, MatrixPlan};
use crate::report::{self, Section};
use analyze::Report;
use morello_sim::{trace, Condition, Json, Op, OpSource, SimConfig, System};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{
    grpc_stream, pgbench_stream, spec_stream, GrpcParams, PgbenchParams, StreamedWorkload,
};

/// Runs one parsed subcommand to completion.
///
/// # Errors
///
/// A configuration that parsed but cannot run (an `--only` filter that
/// matches no cell, an unopenable checkpoint, a failed `--compact`, an
/// unwritable output path, …); the caller prints it and exits 2.
pub fn run(command: &Command) -> Result<ExitCode, String> {
    match command {
        Command::Section(section) => {
            print_section(section);
            Ok(ExitCode::SUCCESS)
        }
        Command::Ablation(ablation) => {
            print_ablation(ablation);
            Ok(ExitCode::SUCCESS)
        }
        Command::Matrix(args) => matrix(args),
        Command::Opcheck(args) => opcheck(args),
        Command::TraceDump { workload, out } => trace_dump(*workload, out),
        Command::TraceReplay { path, condition } => trace_replay(path, *condition),
    }
}

fn warn_failures(failures: &[JobFailure]) {
    for f in failures {
        eprintln!(
            "  [run] WARNING: job {} ({}) failed after {} attempts: {}",
            f.job_id, f.key, f.attempts, f.message
        );
    }
}

fn print_section(section: &Section) {
    let outcome = section.run(cli::env_scale(), &cli::env_run_options());
    warn_failures(&outcome.failures);
    println!("{}", (section.render)(&outcome));
}

fn print_ablation(ablation: &Ablation) {
    let outcome = ablation.run(&cli::env_run_options());
    warn_failures(&outcome.failures);
    println!("{}", ablation.render(outcome.ablations()));
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

/// The job list `--suites`, `--ablations`, `--only` and `--smoke` (else
/// the environment's scale) select — shared so `opcheck` analyzes exactly
/// the programs `matrix` would run.
fn plan_jobs(args: &Args) -> Result<(Scale, Vec<JobSpec>), String> {
    let scale = if args.smoke { Scale::smoke() } else { cli::env_scale() };
    let mut plan = MatrixPlan::new(scale).suites(&args.suites);
    if args.ablations {
        plan = plan.cells(ablations::jobs(&report::ABLATIONS));
    }
    if let Some(needle) = &args.only {
        plan = plan.only(needle.clone());
    }
    Ok((scale, plan.build().map_err(|e| e.to_string())?))
}

fn matrix(args: &Args) -> Result<ExitCode, String> {
    let (word, title, default_out) = if args.all {
        ("all", "EXPERIMENTS — paper vs. measured", "EXPERIMENTS.md")
    } else {
        ("matrix", "Evaluation matrix", "MATRIX.md")
    };
    let t0 = Instant::now();
    let out = args.out.as_deref().unwrap_or(default_out);
    check_out(out)?;

    // `cli` refuses `--compact` without `--checkpoint`.
    if let Some(path) = args.checkpoint.as_deref() {
        check_checkpoint(path)?;
        if args.compact {
            let (kept, dropped) = orchestrator::compact_checkpoint(path)
                .map_err(|e| format!("compacting {}: {e}", path.display()))?;
            eprintln!(
                "repro {word}: compacted checkpoint {} ({kept} cell(s) kept, {dropped} \
                 stale/torn line(s) dropped)",
                path.display()
            );
        }
    }

    let (scale, jobs) = plan_jobs(args)?;
    let mut opts =
        cli::env_run_options().repro_dir(args.repro_dir.clone()).preflight(args.preflight);
    if let Some(jobs_override) = args.jobs {
        opts.workers = jobs_override;
    }
    opts.checkpoint = args.checkpoint.clone();

    eprintln!(
        "repro {word}: {} job(s), {} worker(s), scale={:.3} reps={}{}",
        jobs.len(),
        opts.workers.clamp(1, jobs.len().max(1)),
        scale.fraction,
        scale.reps,
        opts.checkpoint
            .as_deref()
            .map(|p| format!(", checkpoint {}", p.display()))
            .unwrap_or_default(),
    );

    let outcome = orchestrator::run(&jobs, &opts);
    eprintln!(
        "repro {word}: {} cell(s) ran, {} resumed from checkpoint, {} failed ({:.1?})",
        outcome.completed,
        outcome.resumed,
        outcome.failures.len(),
        t0.elapsed()
    );
    for failure in &outcome.failures {
        eprintln!(
            "repro {word}: FAILED cell {} ({}) after {} attempts: {}",
            failure.job_id, failure.key, failure.attempts, failure.message
        );
    }

    let doc = report::render_report(title, word, scale, &args.suites, &outcome, args.ablations);
    write_file(out, &doc)?;
    eprintln!("repro {word}: wrote {out} in {:.1?}", t0.elapsed());

    // Lost cells are graded "not evaluable", not violated: `all` fails
    // on a contradicted claim only, `--strict` on a failed cell as well.
    let violated = report::violated_claims(&args.suites, &outcome);
    if !violated.is_empty() {
        eprintln!("repro {word}: WARNING: {} shape check(s) violated:", violated.len());
        for claim in &violated {
            eprintln!("  - {claim}");
        }
    }
    let failed = if args.all {
        !violated.is_empty()
    } else {
        args.strict && (!outcome.failures.is_empty() || !violated.is_empty())
    };
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Refuses an output path that cannot become a file — a directory, or a
/// name in a missing directory — before anything runs: the write comes
/// only after the whole run.
fn check_out(path: &str) -> Result<(), String> {
    let path = Path::new(path);
    if path.is_dir() {
        return Err(format!("cannot write {}: it is a directory", path.display()));
    }
    match path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        Some(dir) if !dir.is_dir() => Err(format!(
            "cannot write {}: {} is not a directory",
            path.display(),
            dir.display()
        )),
        _ => Ok(()),
    }
}

/// Refuses a `--checkpoint` path the run could not append to, before
/// anything runs: the orchestrator would panic on it after the plan.
/// Opening for append creates a missing file, as the run would.
fn check_checkpoint(path: &Path) -> Result<(), String> {
    if path.is_dir() {
        return Err(format!(
            "checkpoint {0} is a directory: a checkpoint is one JSONL file (`cat {0}/*.jsonl > \
             FILE` converts an old shard directory)",
            path.display()
        ));
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map(drop)
        .map_err(|e| format!("cannot open checkpoint {}: {e}", path.display()))
}

fn opcheck(args: &Args) -> Result<ExitCode, String> {
    let t0 = Instant::now();
    if let Some(path) = &args.out {
        check_out(path)?;
    }
    let (scale, jobs) = plan_jobs(args)?;
    if let Some(dir) = &args.csv {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    // One analysis per program, in first-appearance (job) order.
    let programs: Vec<(String, &JobSpec)> =
        distinct_programs(&jobs).into_iter().map(|job| (job.program_id(), job)).collect();

    let workers = args.jobs.unwrap_or_else(cli::env_workers);
    eprintln!(
        "repro opcheck: {} program(s) from {} matrix cell(s), {} worker(s), scale={:.3}",
        programs.len(),
        jobs.len(),
        workers.clamp(1, programs.len().max(1)),
        scale.fraction,
    );

    let reports: Vec<Report> =
        parallel_cells(programs.len(), workers, |i| programs[i].1.analyze(false));

    let mut malformed_programs = 0usize;
    let mut cells = Vec::new();
    for ((id, _), report) in programs.iter().zip(&reports) {
        if report.malformed {
            malformed_programs += 1;
            eprintln!(
                "repro opcheck: MALFORMED {id}: {} malformed-program diagnostic(s)",
                report.malformed_count()
            );
        }
        eprintln!(
            "repro opcheck: {id}: {} op(s), {} diagnostic(s), {} stale chase(s), peak \
             live+quarantine {} B",
            report.ops,
            report.diagnostics.len(),
            report.stale_chases.len(),
            report.rss.peak_live_plus_quarantine,
        );
        cells.push(Json::obj([("program", Json::Str(id.clone())), ("report", report.to_json())]));
    }

    if let Some(dir) = &args.csv {
        for ((id, _), report) in programs.iter().zip(&reports) {
            // Reuse the repro-file sanitizer, swapping its .json suffix.
            let path = dir.join(repro_file_name(id).replace(".json", ".csv"));
            std::fs::write(&path, report.curve_csv())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        eprintln!(
            "repro opcheck: wrote {} curve CSV file(s) under {}",
            programs.len(),
            dir.display()
        );
    }

    let doc = Json::obj([
        ("version", Json::from(1u64)),
        ("scale_millis", Json::from((scale.fraction * 1000.0).round() as u64)),
        ("programs", Json::from(programs.len() as u64)),
        ("malformed_programs", Json::from(malformed_programs as u64)),
        ("cells", Json::Arr(cells)),
    ])
    .render();

    match &args.out {
        Some(path) => {
            write_file(path, &(doc + "\n"))?;
            eprintln!("repro opcheck: wrote {path} in {:.1?}", t0.elapsed());
        }
        None => println!("{doc}"),
    }

    if malformed_programs > 0 {
        eprintln!("repro opcheck: {malformed_programs} malformed program(s)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn trace_dump(workload: TraceWorkload, out: &str) -> Result<ExitCode, String> {
    let (name, config, ops) = match workload {
        TraceWorkload::Pgbench => {
            collected(pgbench_stream(PgbenchParams { transactions: 2000, ..Default::default() }))
        }
        TraceWorkload::Grpc => {
            collected(grpc_stream(GrpcParams { messages: 2000, ..Default::default() }))
        }
        TraceWorkload::Spec(program) => collected(spec_stream(program, 42)),
    };
    let mut meta = trace::TraceMeta::new();
    meta.insert("workload".into(), name.clone());
    meta.insert("ops".into(), ops.len().to_string());
    trace::insert_config(&mut meta, &config);
    trace::save_trace_to_path(&ops, &meta, out).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} ops of {name} to {out}", ops.len());
    Ok(ExitCode::SUCCESS)
}

/// A workload's name, tuned configuration and collected ops.
fn collected<S: OpSource>(w: StreamedWorkload<S>) -> (String, SimConfig, Vec<Op>) {
    (w.name, w.config, w.source.collect_ops())
}

fn trace_replay(path: &str, condition: Condition) -> Result<ExitCode, String> {
    let (ops, meta) = trace::load_trace_from_path(path).map_err(|e| e.to_string())?;
    let cfg = trace::config_from_meta(&meta).map_err(|e| format!("{path}: {e}"))?;
    if let Some(workload) = meta.get("workload") {
        println!("trace metadata: workload {workload}");
    }
    match System::new(cfg.with_condition(condition)).run_stream(&mut ops.into_iter()) {
        Ok(s) => println!(
            "{}: wall {:.1} ms, {} revocations, {} faults, max pause {:.3} ms, {} MDRAM",
            condition.label(),
            s.wall_ms(),
            s.revocations,
            s.faults,
            s.pauses.iter().copied().max().unwrap_or(0) as f64 / 2.5e6,
            s.total_dram() / 1_000_000
        ),
        Err(e) => {
            eprintln!("replay failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}
