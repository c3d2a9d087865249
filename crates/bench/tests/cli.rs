//! The `repro` command line: every word of the section and ablation
//! tables is a subcommand, and what the old binaries never accepted is
//! refused with exit status 2, not run under a default.

use morello_sim::Condition;
use rev_bench::cli::{self, Command};
use rev_bench::report::{ABLATIONS, SECTIONS};

fn parse(args: &[&str]) -> Result<Command, String> {
    cli::parse(args.iter().map(ToString::to_string))
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
fn refused_command_lines_exit_2_with_the_usage() {
    for argv in [
        &["frobnicate"][..],
        // The old binary names are gone, not aliased.
        &["run_matrix"],
        &["fig1_spec_wall"],
        &["ablation", "ablation_barriers"],
        // A flag only another subcommand's binary ever took.
        &["all", "--shard", "0/2"],
        &["opcheck", "--strict"],
        &["fig5", "--smoke"],
        // The deleted launcher's flags: a shell loop over `--shard K/N`
        // replaced them, and they are not silently ignored.
        &["matrix", "--spawn", "2"],
        &["matrix", "--dispatch", "{cmd}"],
        &["matrix", "--collect", "x{index}"],
        &["trace", "replay", "p.trace", "cornucopa"],
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(argv)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "repro {argv:?}: {stderr}");
        assert!(stderr.contains("usage: repro <section>"), "repro {argv:?}: {stderr}");
        assert!(output.stdout.is_empty(), "repro {argv:?} printed to stdout");
    }
}
