//! Shard dispatch: how `--spawn N` launches the N shard processes.
//!
//! One launcher: every shard runs as a `sh -c` line. A
//! [`CommandTemplate`] expands a [`ShardLaunch`] (the shard's identity
//! plus the exact `repro matrix` argv that executes it) into that line.
//! The default template is the bare `{cmd}` — a local child process,
//! measured indistinguishable from a direct fork (3 454 vs 3 438 ms on
//! the 68-cell smoke matrix, 2 cores) — and a wrapping template
//! launches through ssh, a container runtime, or a batch scheduler.
//! Placeholders:
//!
//! | Placeholder | Expands to |
//! |---|---|
//! | `{cmd}` | the full shell-quoted shard command |
//! | `{index}` / `{count}` / `{shard}` | `K`, `N`, `K/N` |
//! | `{checkpoint}` | the shared checkpoint directory |
//!
//! e.g. `--dispatch 'ssh worker{index} {cmd}'` — which assumes the
//! binary and checkpoint directory are visible at the same paths on the
//! remote host. Without a shared filesystem, pair it with a
//! [`CollectTemplate`] (`--collect`) that pulls each shard's
//! `shard-K-of-N.jsonl` back into the local checkpoint directory before
//! the merge run, e.g.
//! `--collect 'scp worker{index}:{checkpoint}/shard-{index}-of-{count}.jsonl {checkpoint}/'`.
//!
//! [`spawn_shards`] is the `--spawn` parent: it launches
//! `current_exe matrix --shard K/N …` once per shard through the
//! template and collects afterwards. Underneath, [`run_shards`] runs
//! the expanded lines: it spawns one `sh -c` per shard, pipes each
//! child's stderr line-by-line into a caller-supplied sink (the
//! `--spawn` parent folds per-cell progress lines into one aggregate
//! ETA there), waits for all of them, and reports which shards exited
//! cleanly. The merge run self-heals whatever a failed shard left
//! behind, so dispatch failures degrade to wasted time, never wrong
//! reports;
//! [`missing_shard_files`] names the shards whose checkpoint files never
//! landed so the operator knows what the merge is about to re-execute.

use crate::orchestrator::{JobSpec, Shard};
use crate::sched;
use std::io::{IsTerminal as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Everything needed to launch one shard of a matrix run.
#[derive(Debug, Clone)]
pub struct ShardLaunch {
    /// The shard this launch executes.
    pub shard: Shard,
    /// The shard binary (normally `current_exe`).
    pub program: PathBuf,
    /// Full argv tail, including `--shard K/N` and `--checkpoint`.
    pub args: Vec<String>,
    /// The shared checkpoint directory the shard appends into.
    pub checkpoint: PathBuf,
}

/// Expands the placeholders both templates share.
fn expand_shard(template: &str, shard: Shard, checkpoint: &Path) -> String {
    template
        .replace("{index}", &shard.index.to_string())
        .replace("{count}", &shard.count.to_string())
        .replace("{shard}", &format!("{}/{}", shard.index, shard.count))
        .replace("{checkpoint}", &checkpoint.to_string_lossy())
}

/// The `sh -c` template each shard launches through (`--dispatch`;
/// default `{cmd}`).
#[derive(Debug, Clone)]
pub struct CommandTemplate {
    template: String,
}

impl Default for CommandTemplate {
    /// The bare `{cmd}`: each shard is a local child process.
    fn default() -> Self {
        CommandTemplate { template: "{cmd}".to_string() }
    }
}

impl CommandTemplate {
    /// A launcher for `template` (see module docs for placeholders).
    ///
    /// # Errors
    ///
    /// The template must reference `{cmd}` — without it no shard would
    /// ever run.
    pub fn new(template: impl Into<String>) -> Result<CommandTemplate, String> {
        let template = template.into();
        if !template.contains("{cmd}") {
            return Err(format!(
                "--dispatch {template:?}: template must contain {{cmd}} (the shard command)"
            ));
        }
        Ok(CommandTemplate { template })
    }

    /// The fully expanded shell line for `launch`.
    #[must_use]
    pub fn expand(&self, launch: &ShardLaunch) -> String {
        let mut cmd = shell_quote(&launch.program.to_string_lossy());
        for arg in &launch.args {
            cmd.push(' ');
            cmd.push_str(&shell_quote(arg));
        }
        expand_shard(&self.template.replace("{cmd}", &cmd), launch.shard, &launch.checkpoint)
    }

    /// Human-readable description for the spawn banner.
    #[must_use]
    pub fn describe(&self) -> String {
        format!("command template {:?}", self.template)
    }
}

/// Pulls per-shard checkpoint files back from remote workers after a
/// `--dispatch` run without a shared filesystem. The template expands
/// once per shard with the same placeholder vocabulary as
/// [`CommandTemplate`] *minus* `{cmd}` (there is no shard command to
/// embed — the line itself is the transfer, run via `sh -c`):
///
/// | Placeholder | Expands to |
/// |---|---|
/// | `{index}` / `{count}` / `{shard}` | `K`, `N`, `K/N` |
/// | `{checkpoint}` | the local checkpoint directory |
#[derive(Debug, Clone)]
pub struct CollectTemplate {
    template: String,
}

impl CollectTemplate {
    /// A collector for `template`.
    ///
    /// # Errors
    ///
    /// Rejects `{cmd}` (a `--dispatch` placeholder; collection has no
    /// shard command) and templates that never mention the shard
    /// (`{index}` or `{shard}`) — those would run one identical line N
    /// times and pull at most one file.
    pub fn new(template: impl Into<String>) -> Result<CollectTemplate, String> {
        let template = template.into();
        if template.contains("{cmd}") {
            return Err(format!(
                "--collect {template:?}: {{cmd}} is a --dispatch placeholder; a collect \
                 template is the transfer command itself"
            ));
        }
        if !template.contains("{index}") && !template.contains("{shard}") {
            return Err(format!(
                "--collect {template:?}: template must mention {{index}} or {{shard}} so \
                 each shard's checkpoint file is pulled"
            ));
        }
        Ok(CollectTemplate { template })
    }

    /// The expanded shell line that pulls shard `K/N`'s checkpoint file
    /// into `checkpoint`.
    #[must_use]
    pub fn expand(&self, shard: Shard, checkpoint: &Path) -> String {
        expand_shard(&self.template, shard, checkpoint)
    }

    /// Human-readable description for the collect banner.
    #[must_use]
    pub fn describe(&self) -> String {
        format!("collect template {:?}", self.template)
    }
}

/// Runs `template` once per shard of `count` (concurrently, via
/// `sh -c`), streaming stderr into `sink`, and returns one
/// [`ShardResult`] per shard. Purely mechanical: the caller decides
/// whether a shard file that is *still* absent afterwards is fatal —
/// [`missing_shard_files`] names them.
pub fn collect_shards(
    template: &CollectTemplate,
    checkpoint: &Path,
    count: usize,
    sink: &(dyn Fn(usize, &str) + Sync),
) -> Vec<ShardResult> {
    let lines: Vec<String> =
        (0..count).map(|k| template.expand(Shard { index: k, count }, checkpoint)).collect();
    run_shards(&lines, sink)
}

/// Single-quotes `arg` for `sh`, escaping embedded single quotes.
#[must_use]
pub fn shell_quote(arg: &str) -> String {
    if !arg.is_empty()
        && arg
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_' | '/' | ':' | ','))
    {
        return arg.to_string();
    }
    format!("'{}'", arg.replace('\'', "'\\''"))
}

/// One shard's dispatch outcome.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// True when the child spawned and exited with status 0.
    pub ok: bool,
    /// What went wrong, for the warning line.
    pub error: Option<String>,
}

/// Runs `lines[k]` as shard `k` through `sh -c`, all concurrently,
/// streaming each child's stderr lines into `sink(k, line)` from one
/// reader thread per child, and waits for all of them. Returns one
/// [`ShardResult`] per line, in line order. A shard that cannot spawn
/// or exits non-zero is reported, not fatal: the caller's merge run
/// re-executes whatever it left behind.
pub fn run_shards(lines: &[String], sink: &(dyn Fn(usize, &str) + Sync)) -> Vec<ShardResult> {
    use std::io::BufRead as _;

    let mut children = Vec::new();
    let mut results = vec![ShardResult { ok: false, error: None }; lines.len()];
    for (slot, line) in lines.iter().enumerate() {
        match Command::new("sh").arg("-c").arg(line).stderr(Stdio::piped()).spawn() {
            Ok(child) => children.push((slot, child)),
            Err(e) => results[slot].error = Some(format!("cannot spawn: {e}")),
        }
    }

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (slot, child) in &mut children {
            let shard = *slot;
            let stderr = child.stderr.take().expect("piped child stderr");
            handles.push(scope.spawn(move || {
                for line in std::io::BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    sink(shard, &line);
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
    });

    for (slot, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => results[slot].ok = true,
            Ok(status) => results[slot].error = Some(format!("exited with {status}")),
            Err(e) => results[slot].error = Some(format!("wait failed: {e}")),
        }
    }
    results
}

/// The `--spawn` parent: launches one `current_exe matrix …` process per
/// shard of `n` through `template` against the shared `checkpoint`
/// directory (`argv(shard)` is the child's argument list), folding per-cell `[shard K/N]` stderr lines into a
/// single aggregated ETA (everything else passes through with the shard
/// prefix). With `collect`, the shard files are then pulled back into
/// `checkpoint`. A shard that fails is a warning — the caller's merge run
/// re-executes whatever it left behind.
///
/// # Errors
///
/// A shard file still missing after `collect` ran: silently
/// re-executing every remote cell locally would defeat the dispatch.
pub fn spawn_shards(
    n: usize,
    template: &CommandTemplate,
    collect: Option<&CollectTemplate>,
    checkpoint: &Path,
    jobs: &[JobSpec],
    argv: &dyn Fn(Shard) -> Vec<String>,
) -> Result<(), String> {
    let exe = std::env::current_exe().expect("current_exe for --spawn");
    let total = jobs.len();
    let lines: Vec<String> = (0..n)
        .map(|k| {
            let shard = Shard { index: k, count: n };
            template.expand(&ShardLaunch {
                shard,
                program: exe.clone(),
                args: argv(shard),
                checkpoint: checkpoint.to_path_buf(),
            })
        })
        .collect();

    // The packing the children will each derive for themselves: how much
    // work the slowest shard holds against a perfect split.
    let costs = sched::op_costs(jobs);
    let max_ops = sched::max_shard_cost(&costs, &sched::lpt(&costs, n));
    let mean_ops = costs.iter().sum::<u64>() as f64 / n as f64;
    eprintln!(
        "repro matrix: dispatching {n} shard process(es) via {} on {}; max shard {max_ops} \
         ops, max/mean {:.3}",
        template.describe(),
        checkpoint.display(),
        max_ops as f64 / mean_ops
    );

    let started = Instant::now();
    let counter = AtomicUsize::new(0);
    let single_line = std::io::stderr().is_terminal();
    let sink = |k: usize, line: &str| {
        if line.trim_start().starts_with("[shard ") {
            // One per-cell progress line from any shard == one more
            // finished cell; replace the interleaved stream with a
            // single aggregate counter.
            let finished = counter.fetch_add(1, Ordering::Relaxed) + 1;
            let elapsed = started.elapsed().as_secs_f64();
            let eta = if finished < total {
                format!(", ~{:.0}s left", elapsed / finished as f64 * (total - finished) as f64)
            } else {
                String::new()
            };
            let msg = format!("  [spawn] {finished}/{total} cells ({elapsed:.1}s elapsed{eta})");
            if single_line {
                eprint!("\r{msg}");
                let _ = std::io::stderr().flush();
            } else {
                eprintln!("{msg}");
            }
        } else if !line.is_empty() {
            if single_line && counter.load(Ordering::Relaxed) > 0 {
                eprintln!();
            }
            eprintln!("  [shard {k}/{n}] {line}");
        }
    };
    let results = run_shards(&lines, &sink);
    if single_line && counter.load(Ordering::Relaxed) > 0 {
        eprintln!();
    }
    for (k, r) in results.iter().enumerate() {
        if let Some(e) = &r.error {
            eprintln!(
                "repro matrix: WARNING: shard {k}/{n} {e}; its cells will re-run in the merge"
            );
        }
    }

    // Without a shared filesystem the shard files live on the workers:
    // pull them back before judging what landed.
    if let Some(collector) = collect {
        eprintln!(
            "repro matrix: collecting {n} shard checkpoint file(s) via {}",
            collector.describe()
        );
        let plain_sink = |k: usize, line: &str| {
            if !line.is_empty() {
                eprintln!("  [collect {k}/{n}] {line}");
            }
        };
        for (k, r) in collect_shards(collector, checkpoint, n, &plain_sink).iter().enumerate() {
            if let Some(e) = &r.error {
                eprintln!("repro matrix: WARNING: collecting shard {k}/{n}: {e}");
            }
        }
        let missing = missing_shard_files(checkpoint, n);
        if !missing.is_empty() {
            let names: Vec<String> =
                missing.iter().map(|k| format!("shard-{k}-of-{n}.jsonl")).collect();
            return Err(format!(
                "--collect left {} shard file(s) missing under {}: {}",
                names.len(),
                checkpoint.display(),
                names.join(", ")
            ));
        }
        return Ok(());
    }

    for k in missing_shard_files(checkpoint, n) {
        eprintln!(
            "repro matrix: WARNING: no shard-{k}-of-{n}.jsonl under {} — shard {k} \
             checkpointed nothing; the merge run executes its cells locally",
            checkpoint.display()
        );
    }
    Ok(())
}

/// The shards (of `count`) whose `shard-K-of-N.jsonl` file is absent
/// from `checkpoint` — i.e. shards that never checkpointed a single
/// cell. The merge run will execute their cells locally.
#[must_use]
pub fn missing_shard_files(checkpoint: &Path, count: usize) -> Vec<usize> {
    (0..count)
        .filter(|k| !checkpoint.join(format!("shard-{k}-of-{count}.jsonl")).is_file())
        .collect()
}
