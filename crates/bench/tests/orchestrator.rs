//! Integration tests of the parallel orchestrator: byte-identity across
//! worker counts, fault isolation, repro files, and checkpoint resume.
//! What a run merges is pinned by `suite_goldens.rs`; these tests compare
//! runs with each other.

use rev_bench::harness::{Scale, CONDITIONS};
use rev_bench::orchestrator::{self, repro_file_name, JobSpec, MatrixOutcome, RunOptions};
use rev_bench::plan::{distinct_programs, MatrixPlan, SuiteKind};
use morello_sim::{Condition, Json};

/// A cheap matrix: 5 pgbench cells at the 200-transaction floor.
fn tiny_scale() -> Scale {
    Scale { fraction: 0.001, reps: 1 }
}

fn quiet(workers: usize) -> RunOptions {
    RunOptions { workers, ..RunOptions::default() }
}

/// The 5-cell pgbench matrix under the paper's conditions.
fn pg_jobs(scale: Scale) -> Vec<JobSpec> {
    MatrixPlan::new(scale).suite(SuiteKind::Pgbench).build().unwrap()
}

#[test]
fn parallel_run_is_identical_to_serial_loops() {
    let jobs = pg_jobs(tiny_scale());
    assert_eq!(jobs.len(), CONDITIONS.len());

    // One worker runs the cells inline, in job order.
    let serial = orchestrator::run(&jobs, &quiet(1));
    let parallel = orchestrator::run(&jobs, &quiet(4));
    for outcome in [&serial, &parallel] {
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.completed, jobs.len());
    }
    assert_eq!(parallel.suites, serial.suites);
}

#[test]
fn worker_count_changes_nothing_under_both_fault_kinds() {
    let jobs = MatrixPlan::new(tiny_scale())
        .suites(&[SuiteKind::Pgbench, SuiteKind::Grpc])
        .build()
        .unwrap();
    // The gRPC program fails pre-flight (phase 1); one pgbench cell
    // panics on both attempts (phase 2).
    let opts = |workers| RunOptions {
        preflight: true,
        inject_malformed: Some("|s4000".to_string()),
        inject_panic: Some(jobs[1].key()),
        ..quiet(workers)
    };
    let faults = |outcome: &MatrixOutcome| {
        let failures = outcome.failures.iter();
        let failures: Vec<_> = failures.map(|f| (f.job_id, f.attempts, f.message.clone())).collect();
        (failures, outcome.preflight_programs)
    };

    let one = orchestrator::run(&jobs, &opts(1));
    let grpc = jobs.iter().filter(|j| j.suite() == SuiteKind::Grpc).count();
    let (failures, programs) = faults(&one);
    assert_eq!(programs, 2);
    assert_eq!(failures.len(), grpc + 1);
    assert_eq!(failures.iter().filter(|f| f.1 == 0).count(), grpc);
    assert_eq!(failures.iter().filter(|f| f.1 == 2).map(|f| f.0).collect::<Vec<_>>(), [1]);
    for workers in [2, 4] {
        let other = orchestrator::run(&jobs, &opts(workers));
        assert_eq!(other.suites, one.suites, "workers={workers}");
        assert_eq!(faults(&other), faults(&one), "workers={workers}");
    }
}

#[test]
fn injected_panic_degrades_to_a_failure_record_without_poisoning_the_sweep() {
    let jobs = pg_jobs(tiny_scale());
    let victim = jobs[2].key();
    let opts = RunOptions { inject_panic: Some(victim.clone()), ..quiet(4) };

    let outcome = orchestrator::run(&jobs, &opts);
    assert_eq!(outcome.failures.len(), 1, "exactly the targeted cell fails");
    let failure = &outcome.failures[0];
    assert_eq!(failure.job_id, 2);
    assert_eq!(failure.key, victim);
    assert_eq!(failure.attempts, 2, "one retry before giving up");
    assert!(failure.message.contains("injected panic"), "{}", failure.message);

    // Every other cell completed and matches an untouched run.
    let suite = &outcome.suites["pgbench"];
    let serial = &orchestrator::run(&jobs, &quiet(1)).suites["pgbench"];
    for (i, cond) in CONDITIONS.iter().enumerate() {
        let got = suite.stats("pgbench", cond.label());
        if i == 2 {
            assert!(got.is_empty(), "failed cell must not contribute stats");
        } else {
            assert_eq!(got, serial.stats("pgbench", cond.label()));
        }
    }
}

#[test]
fn checkpoint_resume_skips_completed_cells() {
    let scale = tiny_scale();
    let jobs = pg_jobs(scale);
    let path = std::env::temp_dir()
        .join(format!("orchestrator-resume-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let first = orchestrator::run(
        &jobs,
        &RunOptions { checkpoint: Some(path.clone()), ..quiet(2) },
    );
    assert!(first.failures.is_empty());
    assert_eq!(first.completed, jobs.len());
    assert_eq!(first.resumed, 0);

    // Second run: every cell must be replayed from the checkpoint. The
    // injector targets *all* keys ("pgbench" is a substring of each), so
    // any cell that actually executed would fail loudly.
    let second = orchestrator::run(
        &jobs,
        &RunOptions {
            checkpoint: Some(path.clone()),
            inject_panic: Some("pgbench".to_string()),
            ..quiet(2)
        },
    );
    assert!(second.failures.is_empty(), "resumed cells must not re-execute");
    assert_eq!(second.resumed, jobs.len());
    assert_eq!(second.completed, 0);
    assert_eq!(second.suites.get("pgbench"), first.suites.get("pgbench"));

    // A torn final line (interrupted mid-write) only costs that cell.
    let mut contents = std::fs::read_to_string(&path).unwrap();
    let keep = contents.trim_end().rfind('\n').unwrap();
    contents.truncate(keep + 20);
    std::fs::write(&path, &contents).unwrap();
    let third = orchestrator::run(
        &jobs,
        &RunOptions { checkpoint: Some(path.clone()), ..quiet(2) },
    );
    assert_eq!(third.resumed, jobs.len() - 1);
    assert_eq!(third.completed, 1);
    assert_eq!(third.suites.get("pgbench"), first.suites.get("pgbench"));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_deeply_nested_checkpoint_line_costs_only_its_cell() {
    let jobs = pg_jobs(tiny_scale());
    let path = std::env::temp_dir()
        .join(format!("orchestrator-deep-line-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let opts = RunOptions { checkpoint: Some(path.clone()), ..quiet(2) };
    let first = orchestrator::run(&jobs, &opts);
    assert_eq!((first.completed, first.failures.len()), (jobs.len(), 0));

    // Corrupt one cell's line into 200 000 open brackets: the parser
    // must reject it, not overflow the stack and take the run down.
    let contents = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = contents.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), jobs.len());
    lines[2] = "[".repeat(200_000);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let second = orchestrator::run(&jobs, &opts);
    assert!(second.failures.is_empty());
    assert_eq!((second.resumed, second.completed), (jobs.len() - 1, 1));
    assert_eq!(second.suites.get("pgbench"), first.suites.get("pgbench"));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_non_utf8_byte_in_a_checkpoint_line_costs_only_its_cell() {
    let jobs = pg_jobs(tiny_scale());
    let path = std::env::temp_dir()
        .join(format!("orchestrator-non-utf8-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let opts = RunOptions { checkpoint: Some(path.clone()), ..quiet(2) };
    let first = orchestrator::run(&jobs, &opts);
    assert_eq!((first.completed, first.failures.len()), (jobs.len(), 0));

    // 0xFF inside line 2's key: that line is not UTF-8, the lines after
    // it are untouched.
    let mut bytes = std::fs::read(&path).unwrap();
    let line2 = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[line2 + 3] = 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let (healthy, corrupt) = (jobs.len() - 1, 1);
    assert_eq!(orchestrator::compact_checkpoint(&path).unwrap(), (healthy, corrupt));
    std::fs::write(&path, &bytes).unwrap();
    let second = orchestrator::run(&jobs, &opts);
    assert!(second.failures.is_empty());
    assert_eq!((second.resumed, second.completed), (healthy, corrupt));
    assert_eq!(second.suites.get("pgbench"), first.suites.get("pgbench"));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_lines_replay_only_at_the_scale_that_wrote_them() {
    // One cheap SPEC cell (its stream ignores the scale) beside pgbench
    // and gRPC cells whose length the scale sets but whose keys do not
    // carry: 200 tx / 500 msgs at the floor, 400 tx / 600 msgs at 0.02.
    let jobs_at = |scale: Scale| -> Vec<JobSpec> {
        let baseline = [Condition::Baseline];
        let mut jobs = MatrixPlan::new(scale)
            .suite(SuiteKind::Spec)
            .conditions(&baseline)
            .only("bzip2")
            .build()
            .unwrap();
        jobs.extend(
            MatrixPlan::new(scale)
                .suites(&[SuiteKind::Pgbench, SuiteKind::Grpc])
                .conditions(&baseline)
                .build()
                .unwrap(),
        );
        jobs
    };
    let small = jobs_at(tiny_scale());
    let large = jobs_at(Scale::smoke());
    let keys = |jobs: &[JobSpec]| jobs.iter().map(JobSpec::key).collect::<Vec<_>>();
    assert_eq!(keys(&small), keys(&large), "the bug's precondition: keys carry no length");
    let scaled = small.iter().filter(|j| j.suite() != SuiteKind::Spec).count();

    let path = std::env::temp_dir()
        .join(format!("orchestrator-cross-scale-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let opts = RunOptions { checkpoint: Some(path.clone()), ..quiet(2) };

    let first = orchestrator::run(&small, &opts);
    assert!(first.failures.is_empty());
    assert_eq!((first.completed, first.resumed), (small.len(), 0));

    // Same scale: every line replays.
    let again = orchestrator::run(&small, &opts);
    assert_eq!((again.completed, again.resumed), (0, small.len()));

    // Another scale: the SPEC cell resumes, every scaled cell re-executes
    // and reports that scale's numbers, not the checkpoint's.
    let rescaled = orchestrator::run(&large, &opts);
    assert!(rescaled.failures.is_empty());
    assert_eq!((rescaled.completed, rescaled.resumed), (scaled, large.len() - scaled));
    assert_eq!(rescaled.suites, orchestrator::run(&large, &quiet(2)).suites);
    assert_ne!(rescaled.suites.get("pgbench"), first.suites.get("pgbench"));

    // The later lines win: the file now resumes the larger scale in full.
    let settled = orchestrator::run(&large, &opts);
    assert_eq!((settled.completed, settled.resumed), (0, large.len()));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn jobs_env_parser_rejects_garbage() {
    assert_eq!(orchestrator::parse_jobs("4"), Ok(4));
    assert_eq!(orchestrator::parse_jobs(" 2 "), Ok(2));
    assert!(orchestrator::parse_jobs("0").unwrap_err().contains("≥ 1"));
    assert!(orchestrator::parse_jobs("many").unwrap_err().contains("not a number"));
    assert!(orchestrator::parse_jobs("-3").unwrap_err().contains("not a number"));
}

#[test]
fn parallel_cells_preserves_order() {
    let out = orchestrator::parallel_cells(7, 4, |i| i * i);
    assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36]);
    let empty = orchestrator::parallel_cells(0, 4, |i| i);
    assert!(empty.is_empty());
}

#[test]
fn checkpoint_compaction_drops_stale_lines_and_preserves_resume() {
    let scale = tiny_scale();
    let jobs = pg_jobs(scale);
    let path = std::env::temp_dir()
        .join(format!("orchestrator-compact-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let first = orchestrator::run(
        &jobs,
        &RunOptions { checkpoint: Some(path.clone()), ..quiet(2) },
    );
    assert!(first.failures.is_empty());
    assert_eq!(first.completed, jobs.len());

    // Simulate a long resume chain: every cell appears twice (the first
    // copy is stale), plus a torn tail from an interrupted write, behind
    // the metadata header that `cat DIR/*.jsonl` carries over from an old
    // per-shard file (its name is spelled in two pieces: srclint bans it).
    let header = concat!("{\"shard", "_meta\":{\"format\":2,\"shard\":0,\"shards\":1}}\n");
    let contents = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, format!("{header}{contents}{contents}{{\"key\": \"torn")).unwrap();

    let (kept, dropped) = orchestrator::compact_checkpoint(&path).unwrap();
    assert_eq!(kept, jobs.len(), "one line per cell survives");
    assert_eq!(dropped, jobs.len() + 2, "the header, stale duplicates and the torn tail go");

    // The compacted file still resumes every cell: the injector targets
    // all keys, so any cell that re-executed would fail loudly.
    let second = orchestrator::run(
        &jobs,
        &RunOptions {
            checkpoint: Some(path.clone()),
            inject_panic: Some("pgbench".to_string()),
            ..quiet(2)
        },
    );
    assert!(second.failures.is_empty(), "compacted cells must not re-execute");
    assert_eq!(second.resumed, jobs.len());
    assert_eq!(second.completed, 0);
    assert_eq!(second.suites.get("pgbench"), first.suites.get("pgbench"));

    // Compaction is idempotent.
    assert_eq!(orchestrator::compact_checkpoint(&path).unwrap(), (jobs.len(), 0));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_failed_cell_is_never_checkpointed_and_the_next_run_heals_it() {
    let jobs = pg_jobs(tiny_scale());
    let path = std::env::temp_dir()
        .join(format!("orchestrator-heal-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let victim = jobs[1].key();

    let broken = orchestrator::run(
        &jobs,
        &RunOptions { checkpoint: Some(path.clone()), inject_panic: Some(victim), ..quiet(2) },
    );
    assert_eq!(broken.failures.len(), 1);
    assert_eq!((broken.completed, broken.failures[0].job_id), (jobs.len() - 1, 1));

    // Without the injector the one missing cell executes and the rest
    // resume: the complete matrix, as if nothing had failed.
    let healed = orchestrator::run(&jobs, &RunOptions { checkpoint: Some(path.clone()), ..quiet(2) });
    assert!(healed.failures.is_empty());
    assert_eq!((healed.completed, healed.resumed), (1, jobs.len() - 1));
    assert_eq!(healed.suites, orchestrator::run(&jobs, &quiet(1)).suites);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_cell_writes_replayable_repro_file() {
    let jobs = pg_jobs(tiny_scale());
    let repro = std::env::temp_dir()
        .join(format!("orchestrator-repro-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&repro);

    let victim = jobs[1].key();
    let outcome = orchestrator::run(
        &jobs,
        &RunOptions {
            inject_panic: Some(victim.clone()),
            repro_dir: Some(repro.clone()),
            ..quiet(2)
        },
    );
    assert_eq!(outcome.failures.len(), 1);

    let path = repro.join(repro_file_name(&victim));
    let doc = Json::parse(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
    assert_eq!(doc.get("key").unwrap().as_str(), Some(victim.as_str()));
    assert_eq!(doc.get("suite").unwrap().as_str(), Some("pgbench"));
    assert_eq!(doc.get("workload").unwrap().as_str(), Some("pgbench"));
    assert_eq!(doc.get("seed").unwrap().as_num(), Some(2000));
    assert_eq!(doc.get("attempts").unwrap().as_num(), Some(2));
    assert!(doc.get("message").unwrap().as_str().unwrap().contains("injected panic"));
    let payload = doc.get("payload").unwrap();
    assert_eq!(payload.get("kind").unwrap().as_str(), Some("pgbench"));
    assert_eq!(payload.get("transactions").unwrap().as_num(), Some(200));
    let replay = doc.get("replay").unwrap().as_str().unwrap();
    assert!(replay.contains("--suites pgbench"), "{replay}");
    assert!(replay.contains("--only"), "{replay}");
    assert!(replay.contains(&victim), "{replay}");

    // The replay command's core: filtering the expansion by the recorded
    // key yields exactly the failing cell, which (without the injector)
    // runs clean and matches an untouched run.
    let filtered: Vec<JobSpec> =
        jobs.iter().filter(|j| j.key().contains(victim.as_str())).cloned().collect();
    assert_eq!(filtered.len(), 1);
    let replayed = orchestrator::run(&filtered, &quiet(1));
    assert!(replayed.failures.is_empty());
    assert_eq!(replayed.completed, 1);
    let cond = CONDITIONS[1].label();
    assert_eq!(
        replayed.suites["pgbench"].stats("pgbench", cond),
        orchestrator::run(&jobs, &quiet(1)).suites["pgbench"].stats("pgbench", cond)
    );

    let _ = std::fs::remove_dir_all(&repro);
}

#[test]
fn repro_file_names_are_filesystem_safe() {
    assert_eq!(
        repro_file_name("pgbench|pgbench|Paint+sync|s2000"),
        "pgbench_pgbench_Paint_sync_s2000.json"
    );
    assert_eq!(repro_file_name("grpc|gRPC QPS|Reloaded|s4000"), "grpc_gRPC_QPS_Reloaded_s4000.json");
}

#[test]
fn compacting_a_missing_checkpoint_is_a_no_op() {
    let path = std::env::temp_dir()
        .join(format!("orchestrator-compact-missing-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    assert_eq!(orchestrator::compact_checkpoint(&path).unwrap(), (0, 0));
    assert!(!path.exists(), "compaction must not create the file");
}


#[test]
fn preflight_quarantines_a_corrupt_program_without_retry_or_simulation() {
    let jobs = pg_jobs(tiny_scale());
    let victim = jobs[2].key();
    let repro = std::env::temp_dir()
        .join(format!("orchestrator-preflight-repro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&repro);

    let opts = RunOptions {
        preflight: true,
        inject_malformed: Some(victim.clone()),
        repro_dir: Some(repro.clone()),
        ..quiet(4)
    };
    let outcome = orchestrator::run(&jobs, &opts);

    // Exactly the corrupted cell is rejected, as a typed failure record.
    assert_eq!(outcome.failures.len(), 1);
    let failure = &outcome.failures[0];
    assert_eq!(failure.job_id, 2);
    assert_eq!(failure.key, victim);
    assert_eq!(failure.attempts, 0, "preflight rejection must never enter the retry loop");
    // The corrupted cell's program is one of its own, analysed apart
    // from the clean program its four siblings share.
    assert_eq!(outcome.preflight_programs, 2);
    assert!(failure.message.starts_with("preflight: "), "{}", failure.message);
    assert!(failure.message.contains("double_free"), "{}", failure.message);

    // The rejection leaves a replayable repro file recording attempts=0.
    let file = repro.join(repro_file_name(&victim));
    let doc = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("repro file {} missing: {e}", file.display()));
    assert!(doc.contains("\"attempts\":0"), "{doc}");
    assert!(doc.contains("preflight: "), "{doc}");

    // Every healthy cell still ran and matches an untouched run.
    assert_eq!(outcome.completed, jobs.len() - 1);
    let serial = &orchestrator::run(&jobs, &quiet(1)).suites["pgbench"];
    let suite = &outcome.suites["pgbench"];
    for (i, cond) in CONDITIONS.iter().enumerate() {
        let got = suite.stats("pgbench", cond.label());
        if i == 2 {
            assert!(got.is_empty(), "quarantined cell must not contribute stats");
        } else {
            assert_eq!(got, serial.stats("pgbench", cond.label()));
        }
    }

    let _ = std::fs::remove_dir_all(&repro);
}

/// Smoke pgbench + gRPC: nine cells streaming two programs.
fn two_program_jobs() -> Vec<JobSpec> {
    let jobs = MatrixPlan::new(Scale::smoke())
        .suites(&[SuiteKind::Pgbench, SuiteKind::Grpc])
        .build()
        .unwrap();
    assert_eq!(distinct_programs(&jobs).len(), 2);
    assert!(jobs.len() > 2, "several cells must share a program");
    jobs
}

#[test]
fn preflight_analyses_each_distinct_pending_program_once() {
    let jobs = two_program_jobs();
    let path = std::env::temp_dir()
        .join(format!("orchestrator-preflight-dedup-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let gated = RunOptions { preflight: true, checkpoint: Some(path.clone()), ..quiet(2) };

    let first = orchestrator::run(&jobs, &gated);
    assert!(first.failures.is_empty());
    assert_eq!((first.completed, first.preflight_programs), (jobs.len(), 2));

    // Resumed cells trigger no analysis.
    let second = orchestrator::run(&jobs, &gated);
    assert_eq!((second.resumed, second.preflight_programs), (jobs.len(), 0));

    let plain = orchestrator::run(&jobs, &quiet(2));
    assert_eq!(plain.preflight_programs, 0, "no analysis without the gate");
    assert_eq!(plain.suites, first.suites);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_malformed_program_fails_every_cell_that_streams_it_with_one_verdict() {
    let jobs = two_program_jobs();
    // Matches every condition of the gRPC seed, and nothing else.
    let needle = "|s4000".to_string();
    let doomed = jobs.iter().filter(|j| j.key().contains(&needle)).count();
    assert_eq!(doomed, jobs.iter().filter(|j| j.suite() == SuiteKind::Grpc).count());

    let opts = RunOptions { preflight: true, inject_malformed: Some(needle), ..quiet(2) };
    let outcome = orchestrator::run(&jobs, &opts);
    assert_eq!(outcome.preflight_programs, 2, "the corrupted program is analysed once");
    assert_eq!(outcome.failures.len(), doomed);
    for failure in &outcome.failures {
        assert_eq!(jobs[failure.job_id].suite(), SuiteKind::Grpc);
        assert_eq!(failure.attempts, 0);
        assert!(failure.message.contains("double_free"), "{}", failure.message);
        assert_eq!(failure.message, outcome.failures[0].message);
    }
    let plain = orchestrator::run(&jobs, &quiet(2));
    assert_eq!(outcome.suites.get("pgbench"), plain.suites.get("pgbench"));
    assert_eq!(outcome.suites.get("grpc"), None);
}

#[test]
fn preflight_passes_well_formed_programs_untouched() {
    let scale = tiny_scale();
    let jobs = pg_jobs(scale);
    let plain = orchestrator::run(&jobs, &quiet(2));
    let gated = orchestrator::run(&jobs, &RunOptions { preflight: true, ..quiet(2) });
    assert!(gated.failures.is_empty(), "well-formed programs must pass pre-flight");
    assert_eq!(gated.completed, jobs.len());
    assert_eq!(gated.suites.get("pgbench"), plain.suites.get("pgbench"));
}
