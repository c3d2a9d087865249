//! The CLI edge: environment parsing and the flag vocabulary shared by
//! `run_matrix` and `reproduce_all`.
//!
//! The library layer ([`crate::orchestrator`], [`crate::plan`],
//! [`crate::harness`]) is configured exclusively through typed values —
//! [`RunOptions`], [`Scale`], worker counts. This module is the one
//! place that still reads the process environment, so binaries call it
//! once at startup and everything below stays deterministic and
//! testable:
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
//!
//! [`CommonArgs`] is the arg-loop fragment both binaries share
//! (`--out`, `--checkpoint`, `--compact`, `--jobs`, `--preflight`), so
//! their defaults and error messages cannot drift apart again.

use crate::harness::Scale;
use crate::orchestrator::{parse_jobs, RunOptions};
use std::path::PathBuf;

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
/// parallelism — the one documented default for every binary. Exits with
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

/// The standard [`RunOptions`] for an interactive binary: environment
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

/// The flags `run_matrix` and `reproduce_all` share, parsed identically.
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// `--out PATH` (or `reproduce_all`'s positional OUT).
    pub out: Option<String>,
    /// `--checkpoint PATH`.
    pub checkpoint: Option<PathBuf>,
    /// `--compact`: rewrite the checkpoint before running.
    pub compact: bool,
    /// `--jobs N`: CLI worker-count override (wins over `REPRO_JOBS`).
    pub jobs: Option<usize>,
    /// `--preflight`: statically analyze each distinct program once
    /// before its jobs dispatch; malformed programs become typed
    /// failures, not panics.
    pub preflight: bool,
}

impl CommonArgs {
    /// Tries to consume `arg` (and its value from `rest`) as one of the
    /// shared flags. `Ok(true)` when consumed; `Ok(false)` hands the
    /// argument back to the binary's own loop.
    ///
    /// # Errors
    ///
    /// Missing or unparsable flag values, with the flag named.
    pub fn take(
        &mut self,
        arg: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        let value = |rest: &mut dyn Iterator<Item = String>| {
            rest.next().ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg {
            "--out" => self.out = Some(value(rest)?),
            "--checkpoint" => self.checkpoint = Some(value(rest)?.into()),
            "--compact" => self.compact = true,
            "--jobs" => self.jobs = Some(parse_jobs(&value(rest)?)?),
            "--preflight" => self.preflight = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validates flag interactions shared by both binaries.
    ///
    /// # Errors
    ///
    /// `--compact` without `--checkpoint`.
    pub fn validate(&self) -> Result<(), String> {
        if self.compact && self.checkpoint.is_none() {
            return Err("--compact requires --checkpoint PATH".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter().map(ToString::to_string).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn common_args_consume_shared_flags_only() {
        let mut common = CommonArgs::default();
        let mut rest = args(&["x.md", "--checkpoint", "ck", "--jobs", "3"]);
        assert!(common.take("--out", &mut rest).unwrap());
        assert!(common.take(&rest.next().unwrap(), &mut rest).unwrap());
        assert!(common.take(&rest.next().unwrap(), &mut rest).unwrap());
        assert!(common.take("--compact", &mut rest).unwrap());
        assert!(common.take("--preflight", &mut rest).unwrap());
        assert!(!common.take("--strict", &mut rest).unwrap());
        assert_eq!(common.out.as_deref(), Some("x.md"));
        assert_eq!(common.checkpoint.as_deref(), Some(std::path::Path::new("ck")));
        assert_eq!(common.jobs, Some(3));
        assert!(common.compact);
        assert!(common.preflight);
        assert!(common.validate().is_ok());
    }

    #[test]
    fn common_args_reject_bad_values() {
        let mut common = CommonArgs::default();
        let e = common.take("--jobs", &mut args(&["zero"])).unwrap_err();
        assert!(e.contains("not a number"), "{e}");
        let e = common.take("--out", &mut args(&[])).unwrap_err();
        assert!(e.contains("--out"), "{e}");
        let mut common = CommonArgs { compact: true, ..CommonArgs::default() };
        assert!(common.validate().is_err());
        common.checkpoint = Some("ck".into());
        assert!(common.validate().is_ok());
    }
}
