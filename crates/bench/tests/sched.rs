//! Integration tests of the shard scheduler: LPT partition correctness
//! over op-count costs, topology-agnostic resume, and two concurrent
//! `repro matrix --shard K/2` processes plus the merge through the real
//! binary.

use rev_bench::harness::Scale;
use rev_bench::orchestrator::{self, JobSpec, RunOptions, Shard};
use rev_bench::plan::{MatrixPlan, SuiteKind};
use rev_bench::sched;
use std::path::{Path, PathBuf};

fn tiny_scale() -> Scale {
    Scale { fraction: 0.001, reps: 1 }
}

/// The 9-cell pgbench + rates matrix the shard tests use.
fn jobs() -> Vec<JobSpec> {
    MatrixPlan::new(tiny_scale())
        .suites(&[SuiteKind::Pgbench, SuiteKind::PgbenchRates])
        .build()
        .unwrap()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sched-{name}-{}", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    let _ = std::fs::remove_file(path);
}

/// The stride partition: job `id` on shard `id % n`.
fn stride(jobs: usize, n: usize) -> Vec<Vec<usize>> {
    (0..n).map(|k| (k..jobs).step_by(n).collect()).collect()
}

#[test]
fn assignment_covers_every_job_exactly_once_and_repeats() {
    let all = MatrixPlan::all(Scale { fraction: 0.001, reps: 2 }).build().unwrap();
    let costs = sched::op_costs(&all);
    assert!(costs.iter().all(|&c| c > 0), "every stream holds ops");
    for n in 1..=9 {
        let assignment = sched::lpt(&costs, n);
        assert_eq!(assignment.len(), n);
        let mut seen = vec![0usize; all.len()];
        for shard in &assignment {
            // Sorted within a shard: resume order inside one process
            // stays job order.
            assert!(shard.windows(2).all(|w| w[0] < w[1]));
            for &id in shard {
                seen[id] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "n={n}");
        assert_eq!(sched::lpt(&costs, n), assignment, "n={n}");
    }
    // Uncoordinated shard processes each derive the assignment from the
    // job list alone; it must come out identical every time.
    assert_eq!(sched::assignment(&all, 4), sched::lpt(&costs, 4));
    assert_eq!(sched::op_costs(&all), costs);
}

#[test]
fn uniform_cost_lpt_is_exactly_the_stride() {
    for jobs in [0usize, 1, 9, 136] {
        for n in 1..=9 {
            assert_eq!(sched::lpt(&vec![7; jobs], n), stride(jobs, n), "{jobs} jobs, n={n}");
        }
    }
}

#[test]
fn lpt_max_shard_is_no_worse_than_the_stride_on_the_full_plan() {
    let all = MatrixPlan::all(Scale { fraction: 1.0, reps: 2 }).build().unwrap();
    let costs = sched::op_costs(&all);
    for n in [2usize, 4, 8] {
        let lpt_max = sched::max_shard_cost(&costs, &sched::lpt(&costs, n));
        let stride_max = sched::max_shard_cost(&costs, &stride(all.len(), n));
        assert!(lpt_max <= stride_max, "n={n}: LPT max {lpt_max} > stride max {stride_max}");
        let mean = costs.iter().sum::<u64>() / n as u64;
        assert!(lpt_max >= mean, "n={n}: a max below the mean is an accounting bug");
    }
}

#[test]
fn two_shards_resume_under_three_and_serial_byte_identically() {
    let jobs = jobs();
    let dir = tmp("lpt-resume");
    cleanup(&dir);
    let serial_file = tmp("lpt-serial.jsonl");
    cleanup(&serial_file);

    // Unsharded one-worker run with a single-file checkpoint.
    let serial = orchestrator::run(
        &jobs,
        &RunOptions { workers: 1, checkpoint: Some(serial_file.clone()), ..RunOptions::default() },
    );
    assert!(serial.failures.is_empty());

    // Two LPT-partitioned shards fill the directory.
    let assignment = sched::assignment(&jobs, 2);
    for (k, assigned) in assignment.iter().enumerate() {
        let outcome = orchestrator::run(
            &jobs,
            &RunOptions {
                workers: 2,
                checkpoint: Some(dir.clone()),
                shard: Shard { index: k, count: 2 },
                ..RunOptions::default()
            },
        );
        assert!(outcome.failures.is_empty(), "shard {k}");
        assert!(outcome.completed <= assigned.len(), "shard {k} stays in its slice");
        assert_eq!(
            outcome.completed + outcome.resumed + outcome.skipped,
            jobs.len(),
            "shard {k}"
        );
    }

    // The shard headers record the explicit job sets.
    for (k, expected) in assignment.iter().enumerate() {
        let file = dir.join(format!("shard-{k}-of-2.jsonl"));
        let contents = std::fs::read_to_string(&file).unwrap();
        let meta = morello_sim::Json::parse(contents.lines().next().unwrap()).unwrap();
        let meta = meta.get("shard_meta").expect("metadata header");
        let assigned = match meta.get("assigned").expect("assigned ids") {
            morello_sim::Json::Arr(ids) => {
                ids.iter().map(|j| j.as_num().unwrap() as usize).collect::<Vec<_>>()
            }
            other => panic!("assigned: {other:?}"),
        };
        assert_eq!(&assigned, expected);
    }

    // Resume the 2-shard directory under a *different* topology (3
    // shards): nothing re-executes, because cell keys are
    // topology-agnostic.
    for k in 0..3 {
        let outcome = orchestrator::run(
            &jobs,
            &RunOptions {
                workers: 1,
                checkpoint: Some(dir.clone()),
                shard: Shard { index: k, count: 3 },
                inject_panic: Some("pgbench".to_string()),
                ..RunOptions::default()
            },
        );
        assert!(outcome.failures.is_empty(), "re-sharded run must resume, not re-run");
        assert_eq!(outcome.completed, 0, "shard {k}");
    }

    // The merge reproduces the one-worker run's suites and, after
    // compaction, its checkpoint bytes.
    let merged = orchestrator::run(
        &jobs,
        &RunOptions { workers: 2, checkpoint: Some(dir.clone()), ..RunOptions::default() },
    );
    assert!(merged.failures.is_empty());
    assert_eq!(merged.resumed, jobs.len());
    assert_eq!(merged.suites, serial.suites);
    orchestrator::compact_checkpoint(&dir).unwrap();
    orchestrator::compact_checkpoint(&serial_file).unwrap();
    assert_eq!(
        std::fs::read(dir.join("merged.jsonl")).unwrap(),
        std::fs::read(&serial_file).unwrap(),
        "sharded checkpoint != serial checkpoint after compaction"
    );

    cleanup(&dir);
    cleanup(&serial_file);
}

/// End-to-end multi-process round-trip: two `repro matrix --shard K/2`
/// processes appending to one checkpoint directory *at the same time*,
/// then the unsharded merge, must produce a report byte-identical to a
/// plain serial invocation — and leave nothing for a second merge to run.
#[test]
fn run_matrix_dispatch_round_trip_matches_serial_report() {
    let scratch = tmp("two-procs");
    cleanup(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let path = |name: &str| scratch.join(name).display().to_string();
    let (ck, serial, merged) = (path("ck"), path("serial.md"), path("merged.md"));

    let repro_matrix = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["matrix", "--smoke", "--suites", "pgbench-rates"])
            .args(args)
            .env_remove("REPRO_SCALE")
            .env_remove("REPRO_REPS")
            .env_remove("REPRO_INJECT_PANIC")
            .env_remove("REPRO_INJECT_MALFORMED")
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn repro matrix")
    };
    let stderr_of = |child: std::process::Child| {
        let output = child.wait_with_output().expect("wait for repro matrix");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(output.status.success(), "{stderr}");
        stderr
    };

    stderr_of(repro_matrix(&["--jobs", "1", "--out", &serial]));

    // Both shards are running before either is waited on. A partial run
    // writes no report; `--out` only keeps a shard that happened to
    // resume all of its sibling's cells from writing into the cwd.
    let shards = [0, 1].map(|k| {
        let (shard, out) = (format!("{k}/2"), path(&format!("shard-{k}.md")));
        repro_matrix(&["--jobs", "1", "--shard", &shard, "--checkpoint", &ck, "--out", &out])
    });
    for (k, child) in shards.into_iter().enumerate() {
        stderr_of(child);
        assert!(scratch.join(format!("ck/shard-{k}-of-2.jsonl")).is_file(), "shard {k}");
    }

    let merge = ["--jobs", "2", "--checkpoint", &ck, "--out", &merged];
    let stderr = stderr_of(repro_matrix(&merge));
    assert!(stderr.contains(" 0 cell(s) ran,"), "the shards left cells to the merge: {stderr}");
    let serial_bytes = std::fs::read(&serial).unwrap();
    assert!(!serial_bytes.is_empty());
    assert_eq!(serial_bytes, std::fs::read(&merged).unwrap(), "merged report != serial report");
    let stderr = stderr_of(repro_matrix(&merge));
    assert!(stderr.contains(" 0 cell(s) ran,"), "a second merge must resume everything: {stderr}");

    cleanup(&scratch);
}
