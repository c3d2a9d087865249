//! Serial vs. parallel vs. multi-process wall-clock for the full
//! evaluation matrix (run with `cargo bench -p rev-bench --bench
//! matrix`; `--quick` / `SIMBENCH_QUICK=1` runs the smoke scale only
//! and skips the baseline file).
//!
//! Three passes over the identical job list — the single-threaded suite
//! loops, the orchestrator at 4 workers, and (non-quick only) the same
//! matrix sharded across OS processes via `--shard`-style checkpoint
//! directories — at `Scale::smoke()` and at fraction 0.2. Besides the
//! timing, the bench *asserts* the orchestrator's merged suites equal
//! the serial ones, so the byte-identity contract is exercised at a
//! real scale on every benchmark run. Non-quick runs record the numbers
//! in `BENCH_matrix.json` at the workspace root, together with the
//! host's available parallelism: a speedup can reach at most that
//! number, so it is what makes the recorded ones interpretable.
//!
//! The sharded pass re-executes this same binary as shard children
//! (selected by the `MATRIX_BENCH_SHARD=K/N` environment variable), all
//! appending to one shared checkpoint directory, then resumes the
//! directory serially and checks the merged suites against the serial
//! oracle — the full cluster protocol, timed end to end.

use rev_bench::harness::{
    grpc_suite_serial, pgbench_rate_suite_serial, pgbench_suite_serial, spec_suite_serial, Scale,
    Suite, CONDITIONS, RATE_SCHEDULE,
};
use rev_bench::orchestrator::{self, RunOptions, Shard};
use rev_bench::plan::MatrixPlan;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

const WORKERS: usize = 4;
const SHARD_PROCS: usize = 2;

struct Measurement {
    jobs: usize,
    serial_ms: f64,
    parallel_ms: f64,
}

fn serial_suites(scale: Scale) -> Vec<(&'static str, Suite)> {
    vec![
        ("spec", spec_suite_serial(&CONDITIONS, scale)),
        ("pgbench", pgbench_suite_serial(&CONDITIONS, scale)),
        ("pgbench-rates", pgbench_rate_suite_serial(&RATE_SCHEDULE, scale)),
        ("grpc", grpc_suite_serial(scale)),
    ]
}

fn measure(scale: Scale) -> Measurement {
    let t0 = Instant::now();
    let serial = serial_suites(scale);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    let jobs = MatrixPlan::all(scale).build().expect("full matrix");
    let opts = RunOptions { workers: WORKERS, ..RunOptions::default() };
    let t1 = Instant::now();
    let outcome = orchestrator::run(&jobs, &opts);
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

    assert!(outcome.failures.is_empty(), "matrix bench: unexpected job failures");
    for (kind, suite) in &serial {
        assert_eq!(
            outcome.suites.get(kind),
            Some(suite),
            "matrix bench: parallel {kind} suite diverged from serial"
        );
    }
    Measurement { jobs: jobs.len(), serial_ms, parallel_ms }
}

/// Child mode: execute one shard of the matrix against the shared
/// checkpoint directory, then exit. Entered when the parent pass of
/// this same binary re-spawns it with `MATRIX_BENCH_SHARD=K/N`.
fn run_shard_child(spec: &str) -> ! {
    let shard = Shard::parse(spec).unwrap_or_else(|e| panic!("MATRIX_BENCH_SHARD: {e}"));
    let dir = PathBuf::from(
        std::env::var("MATRIX_BENCH_CKPT").expect("MATRIX_BENCH_CKPT not set for shard child"),
    );
    let fraction: f64 = std::env::var("MATRIX_BENCH_FRACTION")
        .expect("MATRIX_BENCH_FRACTION not set")
        .parse()
        .expect("MATRIX_BENCH_FRACTION not a float");
    let reps: u64 = std::env::var("MATRIX_BENCH_REPS")
        .expect("MATRIX_BENCH_REPS not set")
        .parse()
        .expect("MATRIX_BENCH_REPS not an integer");
    let jobs = MatrixPlan::all(Scale { fraction, reps }).build().expect("full matrix");
    let opts = RunOptions {
        workers: WORKERS.div_ceil(shard.count).max(1),
        shard,
        checkpoint: Some(dir),
        ..RunOptions::default()
    };
    let outcome = orchestrator::run(&jobs, &opts);
    assert!(outcome.failures.is_empty(), "matrix bench shard child: job failures");
    std::process::exit(0)
}

/// Spawn `procs` shard children of this binary over a fresh checkpoint
/// directory, wait for all of them, then resume the directory serially
/// (the merge step) and verify the merged suites against the serial
/// oracle. Returns the end-to-end wall time in milliseconds.
fn measure_sharded(scale: Scale, procs: usize, serial: &[(&'static str, Suite)]) -> f64 {
    let dir =
        std::env::temp_dir().join(format!("matrix-bench-shard-{}-{procs}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create shard checkpoint dir");
    let exe = std::env::current_exe().expect("current_exe");

    let t0 = Instant::now();
    let children: Vec<_> = (0..procs)
        .map(|k| {
            Command::new(&exe)
                .env("MATRIX_BENCH_SHARD", format!("{k}/{procs}"))
                .env("MATRIX_BENCH_CKPT", &dir)
                .env("MATRIX_BENCH_FRACTION", format!("{}", scale.fraction))
                .env("MATRIX_BENCH_REPS", scale.reps.to_string())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn shard child")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("wait for shard child");
        assert!(status.success(), "matrix bench: shard child failed: {status}");
    }

    // Merge: an unsharded resume over the shared directory.
    let jobs = MatrixPlan::all(scale).build().expect("full matrix");
    let opts =
        RunOptions { workers: 1, checkpoint: Some(dir.clone()), ..RunOptions::default() };
    let outcome = orchestrator::run(&jobs, &opts);
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(outcome.resumed, jobs.len(), "matrix bench: shards left cells unexecuted");
    assert!(outcome.failures.is_empty(), "matrix bench: sharded run had failures");
    for (kind, suite) in serial {
        assert_eq!(
            outcome.suites.get(kind),
            Some(suite),
            "matrix bench: sharded {kind} suite diverged from serial"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    ms
}

fn main() {
    if let Ok(spec) = std::env::var("MATRIX_BENCH_SHARD") {
        run_shard_child(&spec);
    }
    let quick = std::env::var("SIMBENCH_QUICK").is_ok_and(|v| v != "0")
        || std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let smoke = measure(Scale::smoke());
    eprintln!(
        "matrix/smoke: {} jobs, serial {:.0} ms, {WORKERS}-worker {:.0} ms ({:.2}x)",
        smoke.jobs,
        smoke.serial_ms,
        smoke.parallel_ms,
        smoke.serial_ms / smoke.parallel_ms,
    );
    if quick {
        eprintln!("matrix: quick mode, skipping sharded pass and BENCH_matrix.json");
        return;
    }

    let scale = Scale { fraction: 0.2, reps: 1 };
    let fifth = measure(scale);
    eprintln!(
        "matrix/0.2: {} jobs, serial {:.0} ms, {WORKERS}-worker {:.0} ms ({:.2}x)",
        fifth.jobs,
        fifth.serial_ms,
        fifth.parallel_ms,
        fifth.serial_ms / fifth.parallel_ms,
    );

    // Multi-process sharded pass: same scale, 1 process vs SHARD_PROCS
    // processes, both through the checkpoint-directory protocol so the
    // comparison includes its IO cost.
    let serial = serial_suites(scale);
    let one_proc_ms = measure_sharded(scale, 1, &serial);
    let multi_proc_ms = measure_sharded(scale, SHARD_PROCS, &serial);
    let cells_per_sec = |ms: f64| fifth.jobs as f64 / (ms / 1e3);
    eprintln!(
        "matrix/sharded: {} jobs, 1 proc {:.0} ms ({:.1} cells/s), \
         {SHARD_PROCS} procs {:.0} ms ({:.1} cells/s), {:.2}x",
        fifth.jobs,
        one_proc_ms,
        cells_per_sec(one_proc_ms),
        multi_proc_ms,
        cells_per_sec(multi_proc_ms),
        one_proc_ms / multi_proc_ms,
    );

    let entry = |m: &Measurement| {
        format!(
            "{{ \"jobs\": {}, \"serial_ms\": {:.0}, \"parallel_ms\": {:.0}, \"speedup\": {:.2} }}",
            m.jobs,
            m.serial_ms,
            m.parallel_ms,
            m.serial_ms / m.parallel_ms,
        )
    };
    let sharded = format!(
        "{{ \"jobs\": {}, \"procs\": {SHARD_PROCS}, \"one_proc_ms\": {:.0}, \
         \"one_proc_cells_per_sec\": {:.1}, \"multi_proc_ms\": {:.0}, \
         \"multi_proc_cells_per_sec\": {:.1}, \"speedup\": {:.2} }}",
        fifth.jobs,
        one_proc_ms,
        cells_per_sec(one_proc_ms),
        multi_proc_ms,
        cells_per_sec(multi_proc_ms),
        one_proc_ms / multi_proc_ms,
    );
    let note =
        format!("host exposes {host_parallelism} core(s): the ceiling of every speedup below");
    let json = format!(
        "{{\n  \"bench\": \"matrix\",\n  \"workers\": {WORKERS},\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"note\": \"{note}\",\n  \
         \"smoke\": {},\n  \"fraction_0_2\": {},\n  \"sharded\": {}\n}}\n",
        entry(&smoke),
        entry(&fifth),
        sharded,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matrix.json");
    std::fs::write(path, &json).expect("write BENCH_matrix.json");
    eprintln!("matrix: wrote {path} (host parallelism {host_parallelism})");
}
