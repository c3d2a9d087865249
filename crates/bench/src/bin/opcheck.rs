//! Static temporal-safety analysis of the evaluation matrix — no
//! simulation, just the `crates/analyze` abstract interpreter over the
//! same streamed op programs the simulator would run.
//!
//! ```text
//! opcheck [--suites spec,pgbench,pgbench-rates,grpc] [--only SUBSTR]
//!         [--smoke] [--jobs N] [--out PATH] [--csv DIR]
//! ```
//!
//! The matrix expands exactly as `run_matrix` expands it (same
//! [`MatrixPlan`], same `REPRO_SCALE`/`REPRO_REPS`, same `--smoke`
//! floor), then collapses to one analysis per **program**: the analyzer
//! is condition-independent (it sees ops, not barrier strategies), so
//! cells that differ only in condition share their generation parameters
//! (`JobSpec::program_key`) and are analyzed once, under the
//! `suite|workload|s<seed>` program id. Per program it reports lifetimes,
//! the points-to graph's dangling edges, statically-predicted stale
//! chases, leaks, and the live+quarantined byte curve whose peak
//! lower-bounds the simulated peak RSS.
//!
//! Output is one deterministic JSON document (rendered by the in-tree
//! `morello_sim::Json`, so bytes are stable across runs and machines) on
//! stdout or `--out`; `--csv DIR` additionally writes each program's
//! RSS-bound curve as `<dir>/<program id>.csv`. The process exits 1 if
//! any analyzed program carries malformed-program diagnostics (double
//! free, use-after-free, …) — the same verdict `run_matrix --preflight`
//! quarantines on — and 0 otherwise.

use rev_bench::cli;
use rev_bench::harness::Scale;
use rev_bench::orchestrator::{parallel_cells, repro_file_name, JobSpec};
use rev_bench::plan::{distinct_programs, MatrixPlan};
use analyze::Report;
use morello_sim::Json;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Cli {
    suites: String,
    only: Option<String>,
    smoke: bool,
    jobs: Option<usize>,
    out: Option<String>,
    csv: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: opcheck [--suites spec,pgbench,pgbench-rates,grpc] [--only SUBSTR]\n\
         \x20              [--smoke] [--jobs N] [--out PATH] [--csv DIR]"
    );
    std::process::exit(2)
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        suites: "spec,pgbench,pgbench-rates,grpc".to_string(),
        only: None,
        smoke: false,
        jobs: None,
        out: None,
        csv: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--suites" => cli.suites = value(),
            "--only" => cli.only = Some(value()),
            "--smoke" => cli.smoke = true,
            "--jobs" => {
                cli.jobs = Some(rev_bench::orchestrator::parse_jobs(&value()).unwrap_or_else(|e| fail(e)));
            }
            "--out" => cli.out = Some(value()),
            "--csv" => cli.csv = Some(value().into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage()
            }
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();
    let scale = if cli.smoke { Scale::smoke() } else { cli::env_scale() };
    let t0 = Instant::now();

    let mut plan = MatrixPlan::new(scale).parse_suites(&cli.suites).unwrap_or_else(|e| fail(e));
    if let Some(needle) = &cli.only {
        plan = plan.only(needle.clone());
    }
    let jobs = plan.build().unwrap_or_else(|e| fail(e));

    // One analysis per program, in first-appearance (job) order.
    let programs: Vec<(String, &JobSpec)> =
        distinct_programs(&jobs).into_iter().map(|job| (job.program_id(), job)).collect();

    let workers = cli.jobs.unwrap_or_else(cli::env_workers);
    eprintln!(
        "opcheck: {} program(s) from {} matrix cell(s), {} worker(s), scale={:.3}",
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
                "opcheck: MALFORMED {id}: {} malformed-program diagnostic(s)",
                report.malformed_count()
            );
        }
        eprintln!(
            "opcheck: {id}: {} op(s), {} diagnostic(s), {} stale chase(s), peak live+quarantine {} B",
            report.ops,
            report.diagnostics.len(),
            report.stale_chases.len(),
            report.rss.peak_live_plus_quarantine,
        );
        cells.push(Json::obj([
            ("program", Json::Str(id.clone())),
            ("report", report.to_json()),
        ]));
    }

    if let Some(dir) = &cli.csv {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
        for ((id, _), report) in programs.iter().zip(&reports) {
            // Reuse the repro-file sanitizer, swapping its .json suffix.
            let name = repro_file_name(id).replace(".json", ".csv");
            let path = dir.join(name);
            std::fs::write(&path, report.curve_csv())
                .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
        }
        eprintln!("opcheck: wrote {} curve CSV file(s) under {}", programs.len(), dir.display());
    }

    let doc = Json::obj([
        ("version", Json::from(1u64)),
        ("scale_millis", Json::from((scale.fraction * 1000.0).round() as u64)),
        ("programs", Json::from(programs.len() as u64)),
        ("malformed_programs", Json::from(malformed_programs as u64)),
        ("cells", Json::Arr(cells)),
    ])
    .render();

    match &cli.out {
        Some(path) => {
            let mut f = std::fs::File::create(path)
                .unwrap_or_else(|e| fail(format!("create {path}: {e}")));
            f.write_all(doc.as_bytes()).expect("write report");
            f.write_all(b"\n").expect("write report");
            eprintln!("opcheck: wrote {path} in {:.1?}", t0.elapsed());
        }
        None => println!("{doc}"),
    }

    if malformed_programs > 0 {
        eprintln!("opcheck: {malformed_programs} malformed program(s)");
        std::process::exit(1);
    }
}
