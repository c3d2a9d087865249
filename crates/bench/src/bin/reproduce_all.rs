//! Runs the entire evaluation — every table and figure plus the ablation
//! studies and shape checks — and writes `EXPERIMENTS.md` at the workspace
//! root (or the path given as the first argument).
//!
//! ```text
//! reproduce_all [OUT] [--checkpoint PATH] [--compact] [--jobs N] [--preflight]
//! ```
//!
//! The whole matrix — all four suites — expands into **one global job
//! list** drained by the parallel, fault-isolated orchestrator, so
//! cross-suite cells interleave on the worker pool and a single
//! `--checkpoint` covers the entire regeneration: an interrupted run
//! resumes exactly where it stopped, across suite boundaries. The
//! checkpoint may also be a directory produced by sharded `run_matrix`
//! processes (`--shard`/`--spawn`/`--dispatch`) — cell keys are
//! topology-agnostic, so a cluster can pre-fill the checkpoint and this
//! binary just merges and renders. Cells that fail both attempts are
//! isolated as typed failure records, written to `repro/<key>.json` for
//! replay, and marked in the shape-check section rather than aborting
//! the run. With `--preflight`, the static temporal-safety analyzer
//! (`crates/analyze`) additionally vets each distinct streamed program,
//! once, before any of its cells reaches the simulator: malformed
//! programs become zero-attempt failure records instead of panics.
//!
//! Honours `REPRO_SCALE` (workload fraction, default 1.0), `REPRO_REPS`
//! (repetitions, default 2), and `REPRO_JOBS` (worker threads, CLI
//! `--jobs` wins) — all parsed once, at this CLI edge ([`cli`]). A full
//! run takes a few minutes in `--release`.
//!
//! [`cli`]: rev_bench::cli

use rev_bench::cli::{self, CommonArgs};
use rev_bench::orchestrator;
use rev_bench::plan::MatrixPlan;
use rev_bench::{ablations, figures};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: reproduce_all [OUT] [--checkpoint PATH] [--compact] [--jobs N] [--preflight]"
    );
    std::process::exit(2)
}

fn parse_cli() -> CommonArgs {
    let mut common = CommonArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match common.take(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        match arg.as_str() {
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && common.out.is_none() => {
                common.out = Some(other.to_string());
            }
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage()
            }
        }
    }
    common
}

fn main() {
    let common = parse_cli();
    if let Err(e) = common.validate() {
        eprintln!("error: {e}");
        usage();
    }
    let out = common.out.clone().unwrap_or_else(|| "EXPERIMENTS.md".to_string());
    let scale = cli::env_scale();
    let t0 = Instant::now();

    if common.compact {
        let path = common.checkpoint.as_deref().expect("validated above");
        match orchestrator::compact_checkpoint(path) {
            Ok((kept, dropped)) => eprintln!(
                "reproduce_all: compacted checkpoint {} ({kept} kept, {dropped} dropped)",
                path.display()
            ),
            Err(e) => {
                eprintln!("error: compacting {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    // One global job list: a single checkpoint spans every suite, and the
    // pool never drains between suites.
    let jobs = MatrixPlan::all(scale).build().expect("the full matrix is never empty");
    let mut opts = cli::env_run_options()
        .repro_dir(PathBuf::from("repro"))
        .preflight(common.preflight);
    if let Some(jobs_override) = common.jobs {
        opts.workers = jobs_override;
    }
    opts.checkpoint = common.checkpoint.clone();
    eprintln!(
        "reproduce_all: {} job(s), {} worker(s), scale={:.3} reps={}{}",
        jobs.len(),
        opts.workers.clamp(1, jobs.len().max(1)),
        scale.fraction,
        scale.reps,
        common
            .checkpoint
            .as_deref()
            .map(|p| format!(", checkpoint {}", p.display()))
            .unwrap_or_default(),
    );

    let outcome = orchestrator::run(&jobs, &opts);
    eprintln!(
        "reproduce_all: {} cell(s) ran, {} resumed from checkpoint, {} failed ({:.1?})",
        outcome.completed,
        outcome.resumed,
        outcome.failures.len(),
        t0.elapsed()
    );

    let empty = rev_bench::harness::Suite::default();
    let suite_of = |kind: &str| outcome.suites.get(kind).unwrap_or(&empty);
    let spec = suite_of("spec");
    let pg = suite_of("pgbench");
    let rates = suite_of("pgbench-rates");
    let grpc = suite_of("grpc");

    let mut doc = String::new();
    doc.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    doc.push_str(&format!(
        "Regenerated by `cargo run --release -p rev-bench --bin reproduce_all` \
         (scale {:.3}, {} repetition(s) per condition; simulated 2.5 GHz Morello-like \
         SoC at 1/64 memory scale — see DESIGN.md for the substitution ledger).\n\n\
         Absolute numbers are simulator cycles and are *not* expected to match Morello \
         silicon; the reproduced claims are the qualitative shapes, checked explicitly \
         in the final section.\n\n",
        scale.fraction, scale.reps
    ));

    for section in [
        figures::fig1_spec_wall(spec),
        figures::fig2_cpu_time(spec),
        figures::fig3_peak_rss(spec),
        figures::fig4_bus_traffic(spec),
        figures::fig5_pgbench_time(pg),
        figures::fig6_pgbench_bus(pg),
        figures::fig7_pgbench_cdf(pg),
        figures::fig8_grpc_latency(grpc),
        figures::fig9_phase_times(spec, pg, grpc),
        figures::table1_rates(rates),
        figures::table2_revocation_rates(spec, pg, grpc),
    ] {
        doc.push_str(&section);
        doc.push('\n');
    }

    let workers = opts.workers;
    doc.push_str("## Ablations (DESIGN.md §design choices)\n\n");
    eprintln!("== ablations ==");
    for section in [
        ablations::barriers(workers),
        ablations::pte_mode(workers),
        ablations::quarantine_policy(workers),
        ablations::cheriot(workers),
        ablations::revoker_priority(workers),
        ablations::revoker_threads(workers),
        ablations::revoker_core_scaling(),
        ablations::coloring(),
    ] {
        doc.push_str(&section);
        doc.push('\n');
    }

    doc.push_str(&figures::shape_report_checked(spec, pg, grpc, &outcome.failures));
    doc.push('\n');
    doc.push_str(&figures::failure_report(&outcome.failures));
    doc.push_str(&format!("\n_Total harness wall time: {:.1?}._\n", t0.elapsed()));

    print!("{doc}");
    let mut f = std::fs::File::create(&out)
        .unwrap_or_else(|e| panic!("create {out}: {e}"));
    f.write_all(doc.as_bytes()).expect("write report");
    eprintln!("reproduce_all: wrote {out} in {:.1?}", t0.elapsed());

    for failure in &outcome.failures {
        eprintln!(
            "WARNING: cell {} ({}) failed after {} attempts: {}",
            failure.job_id, failure.key, failure.attempts, failure.message
        );
    }
    let violated: Vec<String> = figures::shape_checks_checked(spec, pg, grpc, &outcome.failures)
        .into_iter()
        .filter(|(_, status)| *status == figures::ClaimStatus::Violated)
        .map(|(claim, _)| claim)
        .collect();
    if !violated.is_empty() {
        eprintln!("WARNING: {} shape check(s) violated:", violated.len());
        for c in violated {
            eprintln!("  - {c}");
        }
        std::process::exit(1);
    }
}
