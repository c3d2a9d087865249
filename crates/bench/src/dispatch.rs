//! Shard dispatch: how `--spawn N` launches the N shard processes.
//!
//! One launcher: every shard runs as a `sh -c` line. A
//! [`CommandTemplate`] expands a [`ShardLaunch`] (the shard's identity
//! plus the exact `run_matrix` argv that executes it) into that line.
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
//! [`run_shards`] runs the expanded lines: it spawns one `sh -c` per
//! shard, pipes each child's stderr line-by-line into a caller-supplied
//! sink (the `--spawn` parent folds per-cell progress lines into one
//! aggregate ETA there), waits for all of them, and reports which
//! shards exited cleanly. The
//! merge run self-heals whatever a failed shard left behind, so dispatch
//! failures degrade to wasted time, never wrong reports;
//! [`missing_shard_files`] names the shards whose checkpoint files never
//! landed so the operator knows what the merge is about to re-execute.

use crate::orchestrator::Shard;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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

/// The shards (of `count`) whose `shard-K-of-N.jsonl` file is absent
/// from `checkpoint` — i.e. shards that never checkpointed a single
/// cell. The merge run will execute their cells locally.
#[must_use]
pub fn missing_shard_files(checkpoint: &Path, count: usize) -> Vec<usize> {
    (0..count)
        .filter(|k| !checkpoint.join(format!("shard-{k}-of-{count}.jsonl")).is_file())
        .collect()
}
