//! Runs the full evaluation matrix on the parallel, fault-isolated
//! orchestrator and writes one Markdown report.
//!
//! Unlike the per-figure binaries, this one expands every requested suite
//! into a single job list ([`MatrixPlan`]) and drains it on one worker
//! pool, so a wide machine keeps every core busy across suite
//! boundaries. Progress/ETA lines go to stderr only: the report file is
//! byte-identical for any worker count, shard topology, or process
//! count.
//!
//! ```text
//! run_matrix [--out PATH] [--checkpoint PATH] [--compact] [--jobs N]
//!            [--preflight] [--shard K/N] [--spawn N] [--dispatch TEMPLATE]
//!            [--collect TEMPLATE] [--only SUBSTR] [--repro-dir DIR]
//!            [--smoke] [--strict] [--suites spec,pgbench,pgbench-rates,grpc]
//! ```
//!
//! Honours `REPRO_SCALE`, `REPRO_REPS`, `REPRO_JOBS` (CLI `--jobs`
//! wins), and the fault-injection hooks `REPRO_INJECT_PANIC` /
//! `REPRO_INJECT_MALFORMED` — all parsed once, at this CLI edge. With
//! `--checkpoint`, completed cells are appended as they finish and
//! replayed on the next invocation, so an interrupted sweep resumes
//! instead of restarting. A line is replayed only when its recorded
//! generation parameters equal the cell's, so a checkpoint carried to
//! another `REPRO_SCALE` re-runs its pgbench and gRPC cells instead of
//! printing the old scale's numbers. `--compact` rewrites the checkpoint
//! in place before the run.
//!
//! `--preflight` runs the static temporal-safety analyzer
//! (`crates/analyze`) once over each distinct streamed program (the
//! conditions of one workload and seed share it) before any of its
//! cells reaches the simulator: each cell of a malformed program
//! (double free, use-after-free, …) becomes a typed failure record and
//! a `repro/<key>.json` file with zero attempts — never simulated,
//! never retried.
//!
//! # Scale-out
//!
//! `--shard K/N` runs one shard of the matrix in this process, appending
//! to a shared checkpoint *directory*; run the other shards on other
//! processes or machines against the same directory, then merge with a
//! final unsharded invocation (which resumes every cell and writes the
//! report). Which cells a shard owns is greedy LPT bin-packing over each
//! cell's op count (`rev_bench::sched`): computed from the job list
//! alone, so independently launched shards agree without coordination.
//!
//! `--spawn N` launches N shard processes (one per shard), aggregates
//! their progress into one ETA line, and merges when they finish. Each
//! launch is the `sh -c` line `--dispatch TEMPLATE` expands to (`{cmd}`,
//! `{index}`, `{count}`, `{shard}`, `{checkpoint}` placeholders); the
//! default `{cmd}` runs the shard as a local child, and e.g.
//! `--dispatch 'ssh worker{index} {cmd}'` runs it on a cluster with a
//! shared filesystem. Without one, `--collect TEMPLATE`
//! (same placeholders minus `{cmd}`) runs once per shard after the
//! children exit to pull each `shard-K-of-N.jsonl` back into the local
//! checkpoint directory, and a shard file still missing afterwards is a
//! hard error naming the un-collected shards. Either way the report is
//! byte-identical to a serial run.
//!
//! Cells that fail both attempts are recorded under `--repro-dir`
//! (default `repro/`) as `<key>.json` files whose `replay` field is a
//! ready-to-run `run_matrix --suites ... --only <key>` command.

use rev_bench::cli::{self, CommonArgs};
use rev_bench::dispatch::{CollectTemplate, CommandTemplate, ShardLaunch};
use rev_bench::harness::{Scale, Suite};
use rev_bench::orchestrator::{self, JobSpec, Shard};
use rev_bench::plan::MatrixPlan;
use rev_bench::{ablations, figures, sched};
use std::io::{IsTerminal as _, Write as _};
use std::path::PathBuf;
use std::time::Instant;

struct Cli {
    common: CommonArgs,
    shard: Shard,
    spawn: Option<usize>,
    dispatch: Option<String>,
    collect: Option<String>,
    only: Option<String>,
    repro_dir: PathBuf,
    smoke: bool,
    strict: bool,
    suites: String,
    ablations: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run_matrix [--out PATH] [--checkpoint PATH] [--compact] [--jobs N]\n\
         \x20                 [--preflight] [--shard K/N] [--spawn N] [--dispatch TEMPLATE]\n\
         \x20                 [--collect TEMPLATE] [--only SUBSTR] [--repro-dir DIR]\n\
         \x20                 [--smoke] [--strict]\n\
         \x20                 [--suites spec,pgbench,pgbench-rates,grpc] [--ablations]"
    );
    std::process::exit(2)
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn parse_count(flag: &str, value: &str) -> usize {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|n| *n >= 1)
        .unwrap_or_else(|| fail(format!("{flag} {value:?}: expected a count ≥ 1")))
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        common: CommonArgs::default(),
        shard: Shard::default(),
        spawn: None,
        dispatch: None,
        collect: None,
        only: None,
        repro_dir: PathBuf::from("repro"),
        smoke: false,
        strict: false,
        suites: "spec,pgbench,pgbench-rates,grpc".to_string(),
        ablations: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match cli.common.take(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => fail(e),
        }
        match arg.as_str() {
            "--shard" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.shard = Shard::parse(&v).unwrap_or_else(|e| fail(e));
            }
            "--spawn" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.spawn = Some(parse_count("--spawn", &v));
            }
            "--dispatch" => cli.dispatch = Some(args.next().unwrap_or_else(|| usage())),
            "--collect" => cli.collect = Some(args.next().unwrap_or_else(|| usage())),
            "--only" => cli.only = Some(args.next().unwrap_or_else(|| usage())),
            "--repro-dir" => {
                cli.repro_dir = args.next().unwrap_or_else(|| usage()).into();
            }
            "--smoke" => cli.smoke = true,
            "--strict" => cli.strict = true,
            "--suites" => cli.suites = args.next().unwrap_or_else(|| usage()),
            "--ablations" => cli.ablations = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage()
            }
        }
    }
    cli
}

/// Launches one shard process per shard through the `--dispatch`
/// template against the shared checkpoint directory, folding per-cell
/// `[shard K/N]` stderr lines into a single aggregated ETA (everything
/// else passes through with the shard prefix). Returns true when every
/// shard exited cleanly; the caller's merge run re-executes whatever a
/// failed shard left behind either way.
fn spawn_shards(cli: &Cli, checkpoint: &std::path::Path, n: usize, workers: usize, jobs: &[JobSpec]) -> bool {
    let exe = std::env::current_exe().expect("current_exe for --spawn");
    let child_jobs = (workers / n).max(1);
    let total = jobs.len();
    let template = CommandTemplate::new(cli.dispatch.as_deref().unwrap_or("{cmd}"))
        .unwrap_or_else(|e| fail(e));

    let mut lines = Vec::new();
    for k in 0..n {
        let mut args = vec![
            "--shard".to_string(),
            format!("{k}/{n}"),
            "--checkpoint".to_string(),
            checkpoint.display().to_string(),
            "--out".to_string(),
            checkpoint.join(format!("shard-{k}.md")).display().to_string(),
            "--jobs".to_string(),
            child_jobs.to_string(),
            "--suites".to_string(),
            cli.suites.clone(),
            "--repro-dir".to_string(),
            cli.repro_dir.display().to_string(),
        ];
        if cli.smoke {
            args.push("--smoke".to_string());
        }
        if cli.common.preflight {
            args.push("--preflight".to_string());
        }
        if let Some(needle) = &cli.only {
            args.push("--only".to_string());
            args.push(needle.clone());
        }
        lines.push(template.expand(&ShardLaunch {
            shard: Shard { index: k, count: n },
            program: exe.clone(),
            args,
            checkpoint: checkpoint.to_path_buf(),
        }));
    }

    // The packing the children will each derive for themselves: how much
    // work the slowest shard holds against a perfect split.
    let costs = sched::op_costs(jobs);
    let max_ops = sched::max_shard_cost(&costs, &sched::lpt(&costs, n));
    let mean_ops = costs.iter().sum::<u64>() as f64 / n as f64;
    eprintln!(
        "run_matrix: dispatching {n} shard process(es) ({child_jobs} worker(s) each) via {} \
         on {}; max shard {max_ops} ops, max/mean {:.3}",
        template.describe(),
        checkpoint.display(),
        max_ops as f64 / mean_ops
    );

    let started = Instant::now();
    let counter = std::sync::atomic::AtomicUsize::new(0);
    let single_line = std::io::stderr().is_terminal();
    let sink = |k: usize, line: &str| {
        if line.trim_start().starts_with("[shard ") || line.starts_with("  [shard ") {
            // One per-cell progress line from any shard == one more
            // finished cell; replace the interleaved stream with a
            // single aggregate counter.
            let finished = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            let elapsed = started.elapsed().as_secs_f64();
            let eta = if finished < total {
                format!(", ~{:.0}s left", elapsed / finished as f64 * (total - finished) as f64)
            } else {
                String::new()
            };
            let msg = format!("  [spawn] {finished}/{total} cells ({elapsed:.1}s elapsed{eta})");
            if single_line {
                eprint!("\r{msg}");
                let _ = std::io::stderr().flush();
            } else {
                eprintln!("{msg}");
            }
        } else if !line.is_empty() {
            if single_line && counter.load(std::sync::atomic::Ordering::Relaxed) > 0 {
                eprintln!();
            }
            eprintln!("  [shard {k}/{n}] {line}");
        }
    };
    let results = rev_bench::dispatch::run_shards(&lines, &sink);
    if single_line && counter.load(std::sync::atomic::Ordering::Relaxed) > 0 {
        eprintln!();
    }

    let mut all_ok = true;
    for (k, r) in results.iter().enumerate() {
        if let Some(e) = &r.error {
            eprintln!("run_matrix: WARNING: shard {k}/{n} {e}; its cells will re-run in the merge");
        }
        all_ok &= r.ok;
    }

    // Without a shared filesystem the shard files live on the workers:
    // pull them back before judging what landed. A file still missing
    // after collection is a hard error — silently re-executing every
    // remote cell locally would defeat the dispatch.
    if let Some(template) = &cli.collect {
        let collector = CollectTemplate::new(template.clone()).unwrap_or_else(|e| fail(e));
        eprintln!(
            "run_matrix: collecting {n} shard checkpoint file(s) via {}",
            collector.describe()
        );
        let plain_sink = |k: usize, line: &str| {
            if !line.is_empty() {
                eprintln!("  [collect {k}/{n}] {line}");
            }
        };
        let collected = rev_bench::dispatch::collect_shards(&collector, checkpoint, n, &plain_sink);
        for (k, r) in collected.iter().enumerate() {
            if let Some(e) = &r.error {
                eprintln!("run_matrix: WARNING: collecting shard {k}/{n}: {e}");
            }
        }
        let missing = rev_bench::dispatch::missing_shard_files(checkpoint, n);
        if !missing.is_empty() {
            let names: Vec<String> =
                missing.iter().map(|k| format!("shard-{k}-of-{n}.jsonl")).collect();
            fail(format!(
                "--collect left {} shard file(s) missing under {}: {}",
                names.len(),
                checkpoint.display(),
                names.join(", ")
            ));
        }
        return all_ok;
    }

    for k in rev_bench::dispatch::missing_shard_files(checkpoint, n) {
        eprintln!(
            "run_matrix: WARNING: no shard-{k}-of-{n}.jsonl under {} — shard {k} \
             checkpointed nothing; the merge run executes its cells locally",
            checkpoint.display()
        );
        all_ok = false;
    }
    all_ok
}

fn main() {
    let cli = parse_cli();
    cli.common.validate().unwrap_or_else(|e| fail(e));
    if cli.shard.is_sharded() && cli.common.checkpoint.is_none() {
        fail("--shard requires --checkpoint PATH (shards merge through it)");
    }
    if cli.spawn.is_some() && cli.shard.is_sharded() {
        fail("--spawn and --shard are mutually exclusive (--spawn forks the shards)");
    }
    if cli.dispatch.is_some() && cli.spawn.is_none() {
        fail("--dispatch requires --spawn N (it decides how the N shards launch)");
    }
    if cli.collect.is_some() && cli.spawn.is_none() {
        fail("--collect requires --spawn N (it pulls the N shard files back before the merge)");
    }
    if let Some(template) = &cli.collect {
        // Validate eagerly: a typo must fail before hours of shard work.
        let _ = CollectTemplate::new(template.clone()).unwrap_or_else(|e| fail(e));
    }
    let scale = if cli.smoke { Scale::smoke() } else { cli::env_scale() };
    let t0 = Instant::now();

    if cli.common.compact {
        let path = cli.common.checkpoint.as_deref().expect("validated above");
        match orchestrator::compact_checkpoint(path) {
            Ok((kept, dropped)) => eprintln!(
                "run_matrix: compacted checkpoint {} ({kept} cell(s) kept, {dropped} \
                 stale/torn line(s) dropped)",
                path.display()
            ),
            Err(e) => {
                eprintln!("error: compacting {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    let mut plan = MatrixPlan::new(scale)
        .parse_suites(&cli.suites)
        .unwrap_or_else(|e| fail(e));
    if let Some(needle) = &cli.only {
        plan = plan.only(needle.clone());
    }
    let jobs = plan.build().unwrap_or_else(|e| fail(e));

    let mut opts = cli::env_run_options()
        .shard(cli.shard)
        .repro_dir(cli.repro_dir.clone())
        .preflight(cli.common.preflight);
    if let Some(jobs_override) = cli.common.jobs {
        opts.workers = jobs_override;
    }
    opts.checkpoint = cli.common.checkpoint.clone();

    // --spawn: dispatch the shards against a shared checkpoint directory,
    // then fall through to a normal unsharded run over the same
    // directory — it resumes everything the children completed, executes
    // any stragglers locally, and renders the merged report.
    let mut spawn_tmp: Option<PathBuf> = None;
    if let Some(n) = cli.spawn {
        let dir = cli.common.checkpoint.clone().unwrap_or_else(|| {
            let dir = std::env::temp_dir()
                .join(format!("run-matrix-spawn-{}", std::process::id()));
            spawn_tmp = Some(dir.clone());
            dir
        });
        if dir.is_file() {
            fail(format!(
                "--spawn needs a checkpoint *directory*, but {} is a file",
                dir.display()
            ));
        }
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create checkpoint directory {}: {e}", dir.display()));
        spawn_shards(&cli, &dir, n, opts.workers, &jobs);
        opts.checkpoint = Some(dir);
    }

    let sharded = cli.shard.is_sharded();
    eprintln!(
        "run_matrix: {} job(s){}, {} worker(s), scale={:.3} reps={}{}",
        jobs.len(),
        if sharded {
            format!(" (shard {}/{})", cli.shard.index, cli.shard.count)
        } else {
            String::new()
        },
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
        "run_matrix: {} cell(s) ran, {} resumed from checkpoint, {} failed, {} left to \
         other shards ({:.1?})",
        outcome.completed,
        outcome.resumed,
        outcome.failures.len(),
        outcome.skipped,
        t0.elapsed()
    );

    for failure in &outcome.failures {
        eprintln!(
            "run_matrix: FAILED cell {} ({}) after {} attempts: {}",
            failure.job_id, failure.key, failure.attempts, failure.message
        );
    }

    // A partial shard run holds only its own slice of the matrix: writing
    // the report would bake in partial means. Leave that to the merge.
    if !outcome.is_complete() {
        eprintln!(
            "run_matrix: shard run settled {}/{} cell(s); run the remaining shard(s) \
             against this checkpoint, then merge with an unsharded run (no --shard) to \
             write the report",
            jobs.len() - outcome.skipped,
            jobs.len()
        );
        if cli.strict && !outcome.failures.is_empty() {
            std::process::exit(1);
        }
        return;
    }

    let empty = Suite::default();
    let suite_of = |kind: &str| outcome.suites.get(kind).unwrap_or(&empty);
    let spec = suite_of("spec");
    let pg = suite_of("pgbench");
    let rates = suite_of("pgbench-rates");
    let grpc = suite_of("grpc");

    let mut doc = String::new();
    doc.push_str("# Evaluation matrix\n\n");
    doc.push_str(&format!(
        "Regenerated by `cargo run --release -p rev-bench --bin run_matrix` \
         (scale {:.3}, {} repetition(s) per condition). Cell execution is \
         parallel and fault-isolated; the tables below are independent of \
         worker count.\n\n",
        scale.fraction, scale.reps
    ));

    let has = |kind: &str| cli.suites.split(',').any(|s| s.trim() == kind);
    if has("spec") {
        for section in [
            figures::fig1_spec_wall(spec),
            figures::fig2_cpu_time(spec),
            figures::fig3_peak_rss(spec),
            figures::fig4_bus_traffic(spec),
        ] {
            doc.push_str(&section);
            doc.push('\n');
        }
    }
    if has("pgbench") {
        for section in [
            figures::fig5_pgbench_time(pg),
            figures::fig6_pgbench_bus(pg),
            figures::fig7_pgbench_cdf(pg),
        ] {
            doc.push_str(&section);
            doc.push('\n');
        }
    }
    if has("grpc") {
        doc.push_str(&figures::fig8_grpc_latency(grpc));
        doc.push('\n');
    }
    if has("spec") && has("pgbench") && has("grpc") {
        doc.push_str(&figures::fig9_phase_times(spec, pg, grpc));
        doc.push('\n');
    }
    if has("pgbench-rates") {
        doc.push_str(&figures::table1_rates(rates));
        doc.push('\n');
    }
    if has("spec") && has("pgbench") && has("grpc") {
        doc.push_str(&figures::table2_revocation_rates(spec, pg, grpc));
        doc.push('\n');
    }

    if cli.ablations {
        let workers = opts.workers;
        doc.push_str("## Ablations\n\n");
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
    }

    // The shape section always renders for three-suite runs: claims whose
    // input cells failed are marked "not evaluable" rather than dropping
    // the whole section. Strict mode counts only outright violations (lost
    // cells already trip strict via the failure count).
    let mut strict_violations = 0usize;
    if has("spec") && has("pgbench") && has("grpc") {
        doc.push_str(&figures::shape_report_checked(spec, pg, grpc, &outcome.failures));
        doc.push('\n');
        strict_violations = figures::shape_checks_checked(spec, pg, grpc, &outcome.failures)
            .into_iter()
            .filter(|(_, status)| *status == figures::ClaimStatus::Violated)
            .count();
    }
    doc.push_str(&figures::failure_report(&outcome.failures));

    let out = cli.common.out.clone().unwrap_or_else(|| "MATRIX.md".to_string());
    let mut f = std::fs::File::create(&out)
        .unwrap_or_else(|e| panic!("create {out}: {e}"));
    f.write_all(doc.as_bytes()).expect("write report");
    eprintln!("run_matrix: wrote {out} in {:.1?}", t0.elapsed());

    if let Some(dir) = spawn_tmp {
        // The checkpoint was a private scratch directory for this spawn
        // run; the merged report has everything it held.
        let _ = std::fs::remove_dir_all(&dir);
    }

    if cli.strict && (!outcome.failures.is_empty() || strict_violations > 0) {
        eprintln!(
            "run_matrix: strict mode — {} failed cell(s), {} shape violation(s)",
            outcome.failures.len(),
            strict_violations
        );
        std::process::exit(1);
    }
}
