//! Integration tests of multi-process sharding: shard-partitioned
//! execution against a shared checkpoint directory, topology-agnostic
//! resume, byte-identical merge against an unsharded one-worker run,
//! fault isolation inside one shard, and repro-file replay.

use morello_sim::Json;
use rev_bench::harness::{Scale, Suite, CONDITIONS};
use rev_bench::orchestrator::{self, repro_file_name, JobSpec, RunOptions, Shard};
use rev_bench::plan::{MatrixPlan, SuiteKind};
use rev_bench::sched;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A cheap cross-suite matrix: 5 pgbench cells + 4 rate cells at the
/// 200-transaction floor — enough that every 2- or 3-way shard split is
/// non-trivial and the merge crosses suite boundaries.
fn tiny_scale() -> Scale {
    Scale { fraction: 0.001, reps: 1 }
}

fn jobs() -> Vec<JobSpec> {
    MatrixPlan::new(tiny_scale())
        .suites(&[SuiteKind::Pgbench, SuiteKind::PgbenchRates])
        .build()
        .unwrap()
}

fn quiet(workers: usize) -> RunOptions {
    RunOptions { workers, ..RunOptions::default() }
}

fn shard_opts(k: usize, n: usize, dir: &Path) -> RunOptions {
    RunOptions {
        workers: 2,
        checkpoint: Some(dir.to_path_buf()),
        shard: Shard { index: k, count: n },
        ..RunOptions::default()
    }
}

/// The suites of an untouched unsharded one-worker run of the tiny
/// matrix (`suite_goldens.rs` pins them).
fn untouched() -> BTreeMap<&'static str, Suite> {
    orchestrator::run(&jobs(), &quiet(1)).suites
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shard-{name}-{}", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    let _ = std::fs::remove_file(path);
}

#[test]
fn shard_parse() {
    assert_eq!(Shard::parse("0/2"), Ok(Shard { index: 0, count: 2 }));
    assert_eq!(Shard::parse(" 1 / 3 "), Ok(Shard { index: 1, count: 3 }));
    assert!(Shard::parse("2/2").unwrap_err().contains("K must be < N"));
    assert!(Shard::parse("1/0").unwrap_err().contains("N must be ≥ 1"));
    assert!(Shard::parse("x/2").unwrap_err().contains("not a number"));
    assert!(Shard::parse("2").unwrap_err().contains("expected K/N"));
    assert!(Shard { index: 1, count: 3 }.is_sharded());
    assert!(!Shard::default().is_sharded());
}

#[test]
fn two_shards_merge_byte_identical_to_serial() {
    let jobs = jobs();
    let dir = tmp("two");
    cleanup(&dir);
    let serial_file = tmp("two-serial.jsonl");
    cleanup(&serial_file);

    // Unsharded one-worker run with a single-file checkpoint.
    let serial = orchestrator::run(
        &jobs,
        &RunOptions { checkpoint: Some(serial_file.clone()), ..quiet(1) },
    );
    assert!(serial.failures.is_empty());
    assert_eq!(serial.completed, jobs.len());

    // Two shards, each settling only its own slice.
    for (k, assigned) in sched::assignment(&jobs, 2).iter().enumerate() {
        let outcome = orchestrator::run(&jobs, &shard_opts(k, 2, &dir));
        assert!(outcome.failures.is_empty(), "shard {k}");
        let own = assigned.len();
        // Shard 1 resumes shard 0's cells (they are in the checkpoint by
        // then); both skip nothing they own.
        assert_eq!(outcome.completed, own, "shard {k} executes exactly its slice");
        assert_eq!(outcome.skipped + outcome.resumed, jobs.len() - own, "shard {k}");
    }

    // Per-shard files exist, each headed by a shard_meta line.
    for k in 0..2 {
        let file = dir.join(format!("shard-{k}-of-2.jsonl"));
        let contents = std::fs::read_to_string(&file).unwrap();
        let first = contents.lines().next().unwrap();
        let meta = Json::parse(first).unwrap();
        let meta = meta.get("shard_meta").expect("metadata header");
        assert_eq!(meta.get("shard").unwrap().as_num(), Some(k as i128));
        assert_eq!(meta.get("shards").unwrap().as_num(), Some(2));
    }

    // Merge: an unsharded run over the directory resumes every cell and
    // reproduces the serial suites exactly. Injection proves nothing
    // re-executes.
    let merged = orchestrator::run(
        &jobs,
        &RunOptions {
            checkpoint: Some(dir.clone()),
            inject_panic: Some("pgbench".to_string()),
            ..quiet(2)
        },
    );
    assert!(merged.failures.is_empty(), "merge must not re-execute any cell");
    assert_eq!(merged.resumed, jobs.len());
    assert!(merged.is_complete());
    assert_eq!(merged.suites, serial.suites);

    // On-disk identity: compacting the shard directory and the serial
    // file must yield byte-identical cell lines.
    let (kept_dir, _) = orchestrator::compact_checkpoint(&dir).unwrap();
    let (kept_file, _) = orchestrator::compact_checkpoint(&serial_file).unwrap();
    assert_eq!(kept_dir, jobs.len());
    assert_eq!(kept_file, jobs.len());
    let dir_bytes = std::fs::read(dir.join("merged.jsonl")).unwrap();
    let file_bytes = std::fs::read(&serial_file).unwrap();
    assert_eq!(dir_bytes, file_bytes, "compacted shard dir != compacted serial checkpoint");
    // The shard files were folded into merged.jsonl.
    assert!(!dir.join("shard-0-of-2.jsonl").exists());
    assert!(!dir.join("shard-1-of-2.jsonl").exists());
    // And the merged file still resumes everything.
    let after = orchestrator::run(
        &jobs,
        &RunOptions {
            checkpoint: Some(dir.clone()),
            inject_panic: Some("pgbench".to_string()),
            ..quiet(1)
        },
    );
    assert_eq!(after.resumed, jobs.len());

    cleanup(&dir);
    cleanup(&serial_file);
}

#[test]
fn topology_change_resume_three_to_two_shards() {
    let jobs = jobs();
    let dir = tmp("topo");
    cleanup(&dir);

    // Interrupted 3-shard run: shards 0 and 2 completed, shard 1 never ran.
    for k in [0usize, 2] {
        let outcome = orchestrator::run(&jobs, &shard_opts(k, 3, &dir));
        assert!(outcome.failures.is_empty());
    }

    // Resume under a 2-shard topology: only shard 1/3's cells remain, and
    // they execute on whichever new shard owns them — nothing resumed is
    // re-run.
    let mut executed = 0usize;
    for k in 0..2 {
        let outcome = orchestrator::run(&jobs, &shard_opts(k, 2, &dir));
        assert!(outcome.failures.is_empty());
        executed += outcome.completed;
    }
    let missing = sched::assignment(&jobs, 3)[1].len();
    assert_eq!(executed, missing, "only the never-run cells execute after retopology");

    // Serial merge over four generations of shard files.
    let merged = orchestrator::run(
        &jobs,
        &RunOptions {
            checkpoint: Some(dir.clone()),
            inject_panic: Some("pgbench".to_string()),
            ..quiet(1)
        },
    );
    assert!(merged.failures.is_empty());
    assert_eq!(merged.resumed, jobs.len());
    assert_eq!(merged.suites, untouched());

    cleanup(&dir);
}

#[test]
fn injected_panic_in_one_shard_is_isolated_and_survives_merge() {
    let jobs = jobs();
    let dir = tmp("inject");
    cleanup(&dir);

    // Pick a victim owned by shard 0 of 2.
    let victim_id = sched::assignment(&jobs, 2)[0][1];
    let victim = jobs[victim_id].key();

    // Shard 0 runs with the injector: the victim fails twice and is NOT
    // checkpointed; every other shard-0 cell completes.
    let shard0 = orchestrator::run(
        &jobs,
        &RunOptions { inject_panic: Some(victim.clone()), ..shard_opts(0, 2, &dir) },
    );
    assert_eq!(shard0.failures.len(), 1);
    assert_eq!(shard0.failures[0].job_id, victim_id);
    assert_eq!(shard0.failures[0].attempts, 2);

    // Shard 1 runs clean and never sees the victim (foreign cell).
    let shard1 = orchestrator::run(&jobs, &shard_opts(1, 2, &dir));
    assert!(shard1.failures.is_empty());
    assert!(shard1.skipped >= 1, "the failed foreign cell is left to the merge");

    // Merge with the injector still active (as a crashed cell would keep
    // crashing): the failure surfaces in the merged outcome, all other
    // cells resume, and the suites match a serial run under the same
    // injection.
    let merged = orchestrator::run(
        &jobs,
        &RunOptions {
            checkpoint: Some(dir.clone()),
            inject_panic: Some(victim.clone()),
            ..quiet(2)
        },
    );
    assert_eq!(merged.resumed, jobs.len() - 1);
    assert_eq!(merged.failures.len(), 1);
    assert_eq!(merged.failures[0].job_id, victim_id);
    assert_eq!(merged.failures[0].key, victim);
    let serial = orchestrator::run(
        &jobs,
        &RunOptions { inject_panic: Some(victim.clone()), ..quiet(1) },
    );
    assert_eq!(merged.suites.get("pgbench"), serial.suites.get("pgbench"));
    assert_eq!(merged.suites.get("pgbench-rates"), serial.suites.get("pgbench-rates"));

    // Self-healing: a merge WITHOUT the injector executes the one missing
    // cell and recovers the complete, failure-free matrix.
    let healed = orchestrator::run(&jobs, &RunOptions { checkpoint: Some(dir.clone()), ..quiet(2) });
    assert!(healed.failures.is_empty());
    assert_eq!(healed.completed, 1);
    assert_eq!(healed.resumed, jobs.len() - 1);
    assert_eq!(healed.suites, untouched());

    cleanup(&dir);
}

#[test]
fn failed_cell_writes_replayable_repro_file() {
    let jobs = jobs();
    let repro = tmp("repro-dir");
    cleanup(&repro);

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
        untouched()["pgbench"].stats("pgbench", cond)
    );

    cleanup(&repro);
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
fn sharded_checkpoint_tolerates_torn_tail_in_one_shard_file() {
    let jobs = jobs();
    let dir = tmp("torn");
    cleanup(&dir);
    for k in 0..2 {
        let outcome = orchestrator::run(&jobs, &shard_opts(k, 2, &dir));
        assert!(outcome.failures.is_empty());
    }
    // Tear the tail of shard 0's file mid-line (a crash between batch
    // flushes): exactly that cell re-runs, everything else resumes.
    let file = dir.join("shard-0-of-2.jsonl");
    let mut contents = std::fs::read_to_string(&file).unwrap();
    let keep = contents.trim_end().rfind('\n').unwrap();
    contents.truncate(keep + 20);
    std::fs::write(&file, &contents).unwrap();

    let merged = orchestrator::run(&jobs, &RunOptions { checkpoint: Some(dir.clone()), ..quiet(2) });
    assert!(merged.failures.is_empty());
    assert_eq!(merged.resumed, jobs.len() - 1);
    assert_eq!(merged.completed, 1);
    assert_eq!(merged.suites, untouched());

    cleanup(&dir);
}
