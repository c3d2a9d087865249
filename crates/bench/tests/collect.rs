//! Integration tests of `--collect`: pulling shard checkpoint files back
//! from workers that do not share a filesystem with the merging parent.
//!
//! The end-to-end test simulates the non-shared topology with a
//! `--dispatch` template that *stashes* each child's shard file outside
//! the checkpoint directory the moment the child exits; only a working
//! `--collect` template can make the merge succeed.

use rev_bench::dispatch::CollectTemplate;
use rev_bench::orchestrator::Shard;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("collect-{name}-{}", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    let _ = std::fs::remove_file(path);
}

#[test]
fn collect_template_expands_shard_placeholders() {
    let t = CollectTemplate::new("scp worker{index}:/ck/shard-{index}-of-{count}.jsonl {checkpoint}/ # {shard}")
        .unwrap();
    assert_eq!(
        t.expand(Shard { index: 1, count: 4 }, Path::new("/tmp/ck")),
        "scp worker1:/ck/shard-1-of-4.jsonl /tmp/ck/ # 1/4"
    );
}

#[test]
fn collect_template_rejects_cmd_and_shardless_forms() {
    let err = CollectTemplate::new("ssh worker {cmd}").unwrap_err();
    assert!(err.contains("{cmd}"), "{err}");
    let err = CollectTemplate::new("rsync remote:/ck/ local/").unwrap_err();
    assert!(err.contains("{index}"), "{err}");
    assert!(CollectTemplate::new("pull {shard}").is_ok());
}

fn repro_matrix(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("matrix")
        .args(args)
        .env_remove("REPRO_SCALE")
        .env_remove("REPRO_REPS")
        .env_remove("REPRO_INJECT_PANIC")
        .env_remove("REPRO_INJECT_MALFORMED")
        .env("REPRO_JOBS", "2")
        .output()
        .expect("spawn repro matrix")
}

/// `--dispatch` template that runs the shard, then moves its checkpoint
/// file into `stash` — the parent's checkpoint directory ends up empty,
/// exactly as if the worker ran on another machine.
fn stashing_dispatch(stash: &Path) -> String {
    format!(
        "{{cmd}} && mv {{checkpoint}}/shard-{{index}}-of-{{count}}.jsonl {}/",
        stash.display()
    )
}

#[test]
fn collect_pulls_stashed_shards_and_merge_matches_serial() {
    let dir = tmp("ck");
    let stash = tmp("stash");
    let serial_out = tmp("serial.md");
    let collected_out = tmp("collected.md");
    for p in [&dir, &stash, &serial_out, &collected_out] {
        cleanup(p);
    }
    std::fs::create_dir_all(&stash).unwrap();

    let output = repro_matrix(&[
        "--smoke",
        "--suites",
        "pgbench",
        "--out",
        &serial_out.display().to_string(),
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let collect = format!("cp {}/shard-{{index}}-of-{{count}}.jsonl {{checkpoint}}/", stash.display());
    let output = repro_matrix(&[
        "--smoke",
        "--suites",
        "pgbench",
        "--spawn",
        "2",
        "--dispatch",
        &stashing_dispatch(&stash),
        "--collect",
        &collect,
        "--checkpoint",
        &dir.display().to_string(),
        "--out",
        &collected_out.display().to_string(),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert!(stderr.contains("collect"), "collect banner missing: {stderr}");

    let serial_bytes = std::fs::read(&serial_out).unwrap();
    let collected_bytes = std::fs::read(&collected_out).unwrap();
    assert!(!serial_bytes.is_empty());
    assert_eq!(serial_bytes, collected_bytes, "collected report != serial report");

    for p in [&dir, &stash, &serial_out, &collected_out] {
        cleanup(p);
    }
}

#[test]
fn failed_collection_is_a_hard_error_naming_the_missing_shards() {
    let dir = tmp("lost-ck");
    let stash = tmp("lost-stash");
    let out = tmp("lost.md");
    for p in [&dir, &stash, &out] {
        cleanup(p);
    }
    std::fs::create_dir_all(&stash).unwrap();

    // The dispatch stashes the files away; the collect template is a
    // no-op, so every shard file stays missing.
    let output = repro_matrix(&[
        "--smoke",
        "--suites",
        "pgbench",
        "--spawn",
        "2",
        "--dispatch",
        &stashing_dispatch(&stash),
        "--collect",
        "true # {index}",
        "--checkpoint",
        &dir.display().to_string(),
        "--out",
        &out.display().to_string(),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "a merge without shard files must fail");
    assert!(stderr.contains("shard-0-of-2.jsonl"), "{stderr}");
    assert!(stderr.contains("shard-1-of-2.jsonl"), "{stderr}");
    assert!(!out.exists(), "no report may be written from an empty merge");

    for p in [&dir, &stash, &out] {
        cleanup(p);
    }
}

#[test]
fn collect_flag_is_validated_eagerly() {
    // --collect without --spawn is meaningless.
    let output = repro_matrix(&["--smoke", "--suites", "pgbench", "--collect", "cp x{index} y"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--spawn"), "{stderr}");

    // A malformed template fails before anything runs.
    let output = repro_matrix(&[
        "--smoke",
        "--suites",
        "pgbench",
        "--spawn",
        "2",
        "--dispatch",
        "{cmd}",
        "--collect",
        "oops {cmd}",
    ]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("{cmd}"), "{stderr}");
}
