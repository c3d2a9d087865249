//! The `repro` command line: every word of the section and ablation
//! tables is a subcommand, and what the old binaries never accepted is
//! refused with exit status 2, not run under a default — as are a
//! checkpoint the run cannot open or compact and an output path it could
//! not write once the work is done.

use morello_sim::{Condition, System};
use rev_bench::cli::{self, Command};
use rev_bench::harness::{grpc_messages, Scale};
use rev_bench::report::{ABLATIONS, SECTIONS};
use std::path::{Path, PathBuf};
use std::process::Output;
use workloads::{grpc_stream, GrpcParams};

fn parse(args: &[&str]) -> Result<Command, String> {
    cli::parse(args.iter().map(ToString::to_string))
}

fn repro(argv: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(argv)
        .output()
        .expect("spawn repro")
}

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `repro matrix` over `checkpoint`, plus `extra` flags.
fn matrix_over(checkpoint: &Path, extra: &[&str]) -> Output {
    let checkpoint = checkpoint.to_str().unwrap();
    let matrix = ["matrix", "--smoke", "--suites", "pgbench-rates", "--checkpoint", checkpoint];
    repro(&[&matrix[..], extra].concat())
}

#[test]
fn every_section_and_ablation_is_a_documented_subcommand() {
    let usage = cli::usage();
    let crate_docs = include_str!("../src/lib.rs");
    let in_usage = |name: &str| usage.split_whitespace().any(|word| word == name);

    for section in &SECTIONS {
        assert!(in_usage(section.name), "{} missing from the usage text", section.name);
        assert!(
            crate_docs.contains(&format!("//! | `{}` |", section.name)),
            "{} missing from the lib.rs subcommand table",
            section.name
        );
        match parse(&[section.name]) {
            Ok(Command::Section(parsed)) => assert_eq!(parsed.name, section.name),
            other => panic!("repro {}: {other:?}", section.name),
        }
    }
    for name in ABLATIONS.iter().map(|ablation| ablation.name) {
        assert!(in_usage(name), "{name} missing from the usage text");
        assert!(crate_docs.contains(&format!("`{name}`")), "{name} missing from lib.rs");
        assert!(
            matches!(parse(&["ablation", name]), Ok(Command::Ablation(_))),
            "repro ablation {name} must parse"
        );
    }
}

#[test]
fn trace_replay_defaults_to_reloaded_but_rejects_a_mistyped_condition() {
    match parse(&["trace", "replay", "p.trace"]) {
        Ok(Command::TraceReplay { condition, .. }) => assert_eq!(condition, Condition::reloaded()),
        other => panic!("{other:?}"),
    }
    match parse(&["trace", "replay", "p.trace", "cornucopia"]) {
        Ok(Command::TraceReplay { condition, .. }) => {
            assert_eq!(condition, Condition::cornucopia())
        }
        other => panic!("{other:?}"),
    }
    let e = parse(&["trace", "replay", "p.trace", "cornucopa"]).unwrap_err();
    assert!(e.contains("cornucopa") && e.contains("baseline|cherivoke|cornucopia"), "{e}");
}

#[test]
fn trace_replay_runs_under_the_dumped_workloads_config() {
    let dir = scratch("trace-replay");
    let path = dir.join("grpc.trace");
    let path = path.to_str().unwrap();
    // A cell key of `repro all`, at the scale the environment sets.
    let key = "grpc|gRPC QPS|Reloaded|s4000";
    let dump = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["trace", "dump", key, path])
        .envs([("REPRO_SCALE", "0.02"), ("REPRO_REPS", "1")])
        .output()
        .expect("spawn repro");
    assert!(dump.status.success(), "{}", String::from_utf8_lossy(&dump.stderr));
    let replay = repro(&["trace", "replay", path]);
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(replay.status.success(), "{stdout}");
    assert!(stdout.contains(&format!("trace metadata: workload {key}")), "{stdout}");

    let messages = grpc_messages(Scale { fraction: 0.02, reps: 1 });
    let mut w = grpc_stream(GrpcParams { messages, seed: 4000 });
    let tuned = System::new(w.config.with_condition(Condition::reloaded()))
        .run_stream(&mut w.source)
        .unwrap();
    let expect =
        format!("Reloaded: wall {:.1} ms, {} revocations,", tuned.wall_ms(), tuned.revocations);
    assert!(stdout.contains(&expect), "expected {expect:?} in {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_trace_with_a_bad_config_value_exits_2_naming_the_key() {
    let dir = scratch("trace-bad-config");
    let path = dir.join("bad.trace");
    std::fs::write(&path, "#cornucopia-trace v2\n#!sim.revoker_threads 0\nA 1 64\n").unwrap();
    let replay = repro(&["trace", "replay", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("sim.revoker_threads"), "{stderr}");
    assert!(replay.stdout.is_empty(), "a refused trace runs nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_trace_that_would_wrap_the_clock_fails_its_replay() {
    let dir = scratch("trace-clock");
    let max = u64::MAX;
    for (name, body) in [
        ("compute", format!("#cornucopia-trace v2\nX {max}\nX {max}\n")),
        ("schedule", format!("#cornucopia-trace v2\n#!sim.tx_interval {max}\nB 0\nE 0\nB 1\nE 1\n")),
    ] {
        let path = dir.join(format!("{name}.trace"));
        std::fs::write(&path, body).unwrap();
        let replay = repro(&["trace", "replay", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&replay.stderr);
        assert_eq!(replay.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("replay failed: "), "{name}: {stderr}");
        assert!(replay.stdout.is_empty(), "{name}: a failed replay printed stats");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refused_command_lines_exit_2_with_the_usage() {
    for argv in [
        &["frobnicate"][..],
        // The old binary names are gone, not aliased.
        &["run_matrix"],
        &["fig1_spec_wall"],
        &["ablation", "ablation_barriers"],
        // A flag only another subcommand takes.
        &["all", "--smoke"],
        &["opcheck", "--strict"],
        &["fig5", "--smoke"],
        // The deleted launcher's and sharding flags: one process with
        // `--jobs N` replaced them, and they are not silently ignored
        // (srclint bans the sharding flag's spelling, so it is assembled).
        &["matrix", "--spawn", "2"],
        &["matrix", "--dispatch", "{cmd}"],
        &["matrix", "--collect", "x{index}"],
        &["matrix", concat!("--", "shard"), "0/2", "--checkpoint", "ck"],
        &["trace", "replay", "p.trace", "cornucopa"],
        // `trace dump` takes a cell key; a tweak in its old spelling is none.
        &["trace", "dump", "grpc", "g.trace"],
        &["trace", "dump", "ablation|xalancbmk [quarantine=1/7,floor=131072]|Reloaded|s77", "x.trace"],
    ] {
        let output = repro(argv);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "repro {argv:?}: {stderr}");
        assert!(stderr.contains("usage: repro <section>"), "repro {argv:?}: {stderr}");
        assert!(output.stdout.is_empty(), "repro {argv:?} printed to stdout");
    }
}

#[test]
fn an_unopenable_checkpoint_exits_2_before_any_cell_runs() {
    let dir = scratch("bad-checkpoint");
    let missing_parent = dir.join("nodir").join("ck.jsonl");
    for (checkpoint, needle) in [
        (missing_parent.as_path(), "cannot open checkpoint"),
        (dir.as_path(), "cat "),
    ] {
        let output = matrix_over(checkpoint, &[]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{}: {stderr}", checkpoint.display());
        assert!(stderr.contains(&checkpoint.display().to_string()), "{stderr}");
        assert!(stderr.contains(needle), "{stderr}");
        assert!(!stderr.contains("cell(s) ran") && !stderr.contains("[matrix]"), "{stderr}");
        assert!(output.stdout.is_empty());
    }
    assert!(!missing_parent.exists());
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the directory stays empty");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_compaction_exits_2() {
    let dir = scratch("bad-compact");
    let checkpoint = dir.join("ck.jsonl");
    std::fs::write(&checkpoint, "{\"key\": \"torn").unwrap();
    // The compaction's temp file cannot be created where a directory is.
    std::fs::create_dir(dir.join("ck.compact.tmp")).unwrap();
    let output = matrix_over(&checkpoint, &["--compact"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&format!("compacting {}", checkpoint.display())), "{stderr}");
    assert!(!stderr.contains("cell(s) ran"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro argv` must exit 2 naming `path`, before any cell or analysis
/// ran and with nothing on stdout.
fn assert_refused_up_front(argv: &[&str], path: &str) {
    let output = repro(argv);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "repro {argv:?}: {stderr}");
    assert!(stderr.contains(path), "{stderr}");
    assert!(!stderr.contains("cell(s) ran") && !stderr.contains("op(s),"), "{stderr}");
    assert!(output.stdout.is_empty(), "repro {argv:?} printed to stdout");
}

const SMOKE_MATRIX: [&str; 4] = ["matrix", "--smoke", "--suites", "pgbench-rates"];

#[test]
fn matrix_out_that_is_a_directory_exits_2_before_any_cell_runs() {
    let dir = scratch("out-dir");
    let out = format!("{}/", dir.display());
    assert_refused_up_front(&[&SMOKE_MATRIX[..], &["--out", &out]].concat(), &out);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the directory stays empty");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn matrix_out_in_a_missing_directory_exits_2_before_any_cell_runs() {
    let dir = scratch("out-missing");
    let out = dir.join("missing").join("x.md");
    let out = out.to_str().unwrap();
    assert_refused_up_front(&[&SMOKE_MATRIX[..], &["--out", out]].concat(), out);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the directory stays empty");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opcheck_csv_that_is_a_file_exits_2_before_any_analysis() {
    let dir = scratch("csv-file");
    let csv = dir.join("curves");
    std::fs::write(&csv, "").unwrap();
    let (csv, out) = (csv.to_str().unwrap(), dir.join("o.json"));
    let argv = ["opcheck", "--smoke", "--suites", "pgbench-rates", "--csv", csv, "--out"];
    assert_refused_up_front(&[&argv[..], &[out.to_str().unwrap()]].concat(), csv);
    assert!(!out.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
