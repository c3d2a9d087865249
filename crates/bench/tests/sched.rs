//! Integration tests of the shard scheduler and the launcher: LPT
//! partition correctness over op-count costs, topology-agnostic resume,
//! and a CommandTemplate round-trip through the real `repro matrix`
//! binary.

use rev_bench::dispatch::{self, CommandTemplate, ShardLaunch};
use rev_bench::harness::{pgbench_rate_suite_serial, pgbench_suite_serial, Scale, CONDITIONS, RATE_SCHEDULE};
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

    // Serial oracle checkpoint.
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

    // Serial merge reproduces the oracle suites and, after compaction, the
    // oracle checkpoint bytes.
    let merged = orchestrator::run(
        &jobs,
        &RunOptions { workers: 2, checkpoint: Some(dir.clone()), ..RunOptions::default() },
    );
    assert!(merged.failures.is_empty());
    assert_eq!(merged.resumed, jobs.len());
    assert_eq!(
        merged.suites.get("pgbench"),
        Some(&pgbench_suite_serial(&CONDITIONS, tiny_scale()))
    );
    assert_eq!(
        merged.suites.get("pgbench-rates"),
        Some(&pgbench_rate_suite_serial(&RATE_SCHEDULE, tiny_scale()))
    );
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

#[test]
fn command_template_expands_placeholders_and_quotes() {
    let launch = ShardLaunch {
        shard: Shard { index: 1, count: 4 },
        program: PathBuf::from("/bin/repro"),
        args: vec!["matrix".to_string(), "--only".to_string(), "gRPC QPS|it's".to_string()],
        checkpoint: PathBuf::from("/tmp/ck"),
    };
    let t = CommandTemplate::new("ssh worker{index} {cmd} # {shard} {count} {checkpoint}").unwrap();
    assert_eq!(
        t.expand(&launch),
        "ssh worker1 /bin/repro matrix --only 'gRPC QPS|it'\\''s' # 1/4 4 /tmp/ck"
    );
    assert!(CommandTemplate::new("ssh worker0").is_err(), "{{cmd}}-less template");
    assert_eq!(dispatch::shell_quote("a b"), "'a b'");
    assert_eq!(dispatch::shell_quote(""), "''");
    assert_eq!(dispatch::shell_quote("plain/path-1.0:x,y"), "plain/path-1.0:x,y");
}

#[test]
fn missing_shard_files_names_only_absent_shards() {
    let dir = tmp("missing");
    cleanup(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("shard-1-of-3.jsonl"), "x\n").unwrap();
    assert_eq!(dispatch::missing_shard_files(&dir, 3), vec![0, 2]);
    cleanup(&dir);
}

/// End-to-end launcher round-trip: `repro matrix --spawn 2 --dispatch`
/// with a wrapping `sh -c` template must produce a report byte-identical
/// to a plain serial invocation.
#[test]
fn run_matrix_dispatch_round_trip_matches_serial_report() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let dir = tmp("dispatch-ck");
    let serial_out = tmp("dispatch-serial.md");
    let spawn_out = tmp("dispatch-spawn.md");
    cleanup(&dir);
    cleanup(&serial_out);
    cleanup(&spawn_out);

    let run = |args: &[&str]| {
        let output = std::process::Command::new(exe)
            .arg("matrix")
            .args(args)
            .env_remove("REPRO_SCALE")
            .env_remove("REPRO_REPS")
            .env_remove("REPRO_INJECT_PANIC")
            .env("REPRO_JOBS", "2")
            .output()
            .expect("spawn repro matrix");
        assert!(
            output.status.success(),
            "repro matrix {args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };

    run(&["--smoke", "--suites", "pgbench-rates", "--out", &serial_out.display().to_string()]);
    run(&[
        "--smoke",
        "--suites",
        "pgbench-rates",
        "--spawn",
        "2",
        "--dispatch",
        "env SHARD_INDEX={index} {cmd}",
        "--checkpoint",
        &dir.display().to_string(),
        "--out",
        &spawn_out.display().to_string(),
    ]);

    let serial_bytes = std::fs::read(&serial_out).unwrap();
    let spawn_bytes = std::fs::read(&spawn_out).unwrap();
    assert!(!serial_bytes.is_empty());
    assert_eq!(serial_bytes, spawn_bytes, "dispatched report != serial report");

    cleanup(&dir);
    cleanup(&serial_out);
    cleanup(&spawn_out);
}
