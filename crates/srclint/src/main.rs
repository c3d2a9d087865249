//! In-tree source lints — the Rust promotion of `tools/check_hermetic.sh`,
//! run by `tools/ci.sh` and available as `cargo run -p srclint`.
//!
//! Hand-rolled token scans (no parser, no external crates) over the
//! workspace's manifests and `.rs` files, enforcing invariants the
//! compiler cannot:
//!
//! 1. **Hermetic manifests** — every dependency in every `Cargo.toml` is
//!    a `path = "..."` or `workspace = true` spec. This build never
//!    reaches a registry.
//! 2. **Banned registry crates** — `rand`, `proptest`, and `criterion`
//!    never reappear in a dependency section under any spec shape
//!    (`git`, renamed `package = "rand"`, …). `crates/simtest` replaces
//!    the first two in-tree; host performance is measured by the
//!    standalone `benchmark/` crate.
//! 3. **Env reads stay at the CLI edge** — `env::var` appears in library
//!    and binary source only inside `crates/bench/src/cli.rs` (the one
//!    documented environment boundary) and `crates/simtest/src` (the
//!    test harness's own knobs). Integration tests are exempt: they are
//!    harness edges, not product code.
//! 4. **Deterministic crates never read clocks** — `Instant` /
//!    `SystemTime` are banned from the simulation stack (`cap`, `mem`,
//!    `vm`, `core`, `alloc`, `sim`, `workloads`, `analyze`), whose
//!    outputs must be bit-stable across machines, and from the harness
//!    modules whose output is report text (`bench`'s `figures`,
//!    `ablations`, `report`): EXPERIMENTS.md must `cmp` equal across
//!    runs. The rest of `bench` times its runs for stderr and is
//!    exempt.
//! 5. **The simulator and the analyzer never hash with a per-process
//!    key** — `std::collections::HashMap` / `HashSet` (SipHash under a
//!    random key, so iteration order differs run to run) are banned from
//!    the `src/` of `cap`, `mem`, `vm`, `core`, `alloc`, `sim`,
//!    `workloads` and `analyze`, `crates/mem/src/hash.rs` excepted (it
//!    defines the replacements over them). Their tables are
//!    `cheri_mem::FastMap` / `FastSet` (`System::obj_gen` among them),
//!    sorted before any order reaches a report, or are indexed outright
//!    (`cheri_mem::PageMap`, the allocator's region table). Nor does the
//!    analyzer bring back a hashed reverse-link index
//!    (`FastSet<(ObjId, u64)>`): an object counts the links into its live
//!    generation, and a free scans the link tables only while
//!    dangling-link details are stored.
//! 6. **Deleted deprecated APIs stay deleted** — call sites of the
//!    removed `orchestrator::expand_*` wrappers, the pieces of the page
//!    lookup stack `cheri_mem::PageMap` replaced (`MICRO_TLB_SLOTS`,
//!    `pte_memo`, `free_pte_slots`), the env shims (`Scale::from_env`,
//!    `RunOptions::from_env`, `jobs_from_env`, `run_suite_from_env`),
//!    the op-stream truncation layer (`spec_stream_scaled`,
//!    `scale_churn`, `scaled_keep`, `Truncated::new`) and the second
//!    partitioner, cost tables and launcher of the scale-out stack
//!    (`Partition::Modulo`, `LocalSpawn`, `static_table`,
//!    `calibrate_from_checkpoint`, `resolve_lpt`, `Shard::owns`), the
//!    multi-process sharding that followed them (the sharding flag,
//!    `sched`, `op_count(`, the shard metadata header), the
//!    telemetry sink trait and the per-channel switches `TelemetryConfig`
//!    collapsed into (`TelemetrySink`, `NullSink`, `with_sink`,
//!    `record_events(`, `record_spans(`, `sample_every(`),
//!    `Machine::with_cache_config`, the four single-threaded suite
//!    loops `tests/suite_goldens.rs` replaced (`spec_suite_serial`, …) and
//!    the malloc-log importer with its example (`import_malloc_log`,
//!    `ImportSource`, `replay_malloc_log`) and the materialized workload
//!    twins (`GeneratedWorkload`, `SliceSource`, `.materialize()`,
//!    `grpc_qps(`, `file_copy(`) and the §6.2 mmap path with every
//!    unmap, guard and page-release path only it reached (`MmapSpace`,
//!    `Op::Mmap`, `Op::Munmap`, `file_copy_stream(`, `MapFlags::guard(`,
//!    `release_page(`, `unmap_range(`) may not return; nor may the
//!    23 binaries `repro` replaced be invoked by name (`--bin
//!    run_matrix`, `CARGO_BIN_EXE_run_matrix`, …) — this rule also reads
//!    the shell scripts under `tools/`.
//! 7. **One revoker step in the simulator** — `System::revoker_step` is
//!    the one place `crates/sim/src` reads a `StepOutcome`, and it books
//!    every cycle of it. A `NeedsFinalStw { .. }` pattern (the shape that
//!    dropped the draining slice's `used` three times over) may not
//!    appear there, and a file there calls `background_step(` and
//!    `finish_stw(` on one line each at most.
//! 8. **One phase-recording site in the revoker** — a file under
//!    `crates/core/src` writes `phases.push(` on one line at most:
//!    `Revoker::record_phase`, which records what `Strategy::phase`
//!    declares for each role of the epoch skeleton.
//!
//! Comment lines (`//`, `///`, `//!`; `#` in scripts) are skipped, so
//! prose may discuss a banned token. This linter's own sources are excluded from the token
//! scans — they define the ban lists. Exits 1 with one line per
//! violation; 0 with a summary on success.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose outputs must be deterministic: no wall clocks.
const DETERMINISTIC_CRATES: &[&str] =
    &["cap", "mem", "vm", "core", "alloc", "sim", "workloads", "analyze"];

/// Harness modules whose output is report text: no wall clocks either.
const REPORT_TEXT: &[&str] = &[
    "crates/bench/src/figures.rs",
    "crates/bench/src/ablations.rs",
    "crates/bench/src/report.rs",
];

/// Source trees whose hash tables must be fixed-seed: the simulation
/// stack and the analyzer.
const FIXED_SEED_HASH_ONLY: &[&str] = &[
    "crates/cap/src/",
    "crates/mem/src/",
    "crates/vm/src/",
    "crates/core/src/",
    "crates/alloc/src/",
    "crates/sim/src/",
    "crates/workloads/src/",
    "crates/analyze/src/",
];

/// The module that defines `FastMap` / `FastSet` over the std tables.
const FIXED_SEED_HASH_DEFINED_IN: &str = "crates/mem/src/hash.rs";

/// Tokens banned under one source tree, each with the reason, matched
/// with spaces removed.
const BANNED_UNDER: &[(&str, &str, &str)] = &[
    ("crates/analyze/src/", "FastSet<(ObjId,u64)>", COUNTED_REVERSE_LINKS),
    ("crates/sim/src/", "NeedsFinalStw{..}", ONE_REVOKER_STEP),
];

/// Tokens allowed on one line per file under one source tree, each with
/// the reason, matched with spaces removed.
const ONCE_UNDER: &[(&str, &str, &str)] = &[
    ("crates/sim/src/", "background_step(", ONE_REVOKER_STEP),
    ("crates/sim/src/", "finish_stw(", ONE_REVOKER_STEP),
    ("crates/core/src/", "phases.push(", ONE_PHASE_SITE),
];

/// Why the revoker records phases in one place: six hand-placed calls
/// decided which phases a strategy recorded, and the CHERIoT filter
/// recorded none although it ran epochs.
const ONE_PHASE_SITE: &str = "Revoker::record_phase, which records what Strategy::phase declares";

/// Why the simulator drives its revoker from one function: three drive
/// loops each matched `NeedsFinalStw { .. }` and dropped the `used` of
/// the slice that drained Cornucopia's concurrent phase.
const ONE_REVOKER_STEP: &str =
    "System::revoker_step, which books a step's `used` whatever the outcome, then the final pause";

/// Why the analyzer's per-object reverse-link sets were replaced: a
/// count per object answers every op, and the holders are needed only
/// for the capped dangling-link details.
const COUNTED_REVERSE_LINKS: &str = "a per-object count of the links into its live generation; \
     a free scans the link tables for holders only while DanglingLink details are stored";

/// Registry crates whose absence keeps the build offline. Matched
/// against both the dependency key (`rand = "0.8"`) and quoted package
/// renames (`x = { package = "rand" }`).
const BANNED_CRATES: &[&str] = &["proptest", "criterion", "rand"];

/// Tokens of deleted APIs, banned everywhere, each with its replacement.
const BANNED_EVERYWHERE: &[(&str, &str)] = &[
    ("orchestrator::expand_", "plan::MatrixPlan"),
    ("MICRO_TLB_SLOTS", "cheri_mem::PageMap"),
    ("pte_memo", "cheri_mem::PageMap"),
    ("free_pte_slots", "cheri_mem::PageMap"),
    ("Scale::from_env", "cli::env_scale"),
    ("RunOptions::from_env", "cli::env_run_options"),
    ("jobs_from_env", "cli::env_workers"),
    ("run_suite_from_env", "orchestrator::run with cli::env_run_options"),
    ("spec_stream_scaled", SCALE_TOTAL_CHURN),
    ("scale_churn", SCALE_TOTAL_CHURN),
    ("scaled_keep", SCALE_TOTAL_CHURN),
    ("Truncated::new", SCALE_TOTAL_CHURN),
    ("Partition::Modulo", ONE_SCALE_OUT_PATH),
    ("LocalSpawn", ONE_SCALE_OUT_PATH),
    ("static_table", ONE_SCALE_OUT_PATH),
    ("calibrate_from_checkpoint", ONE_SCALE_OUT_PATH),
    ("resolve_lpt", ONE_SCALE_OUT_PATH),
    ("Shard::owns", ONE_SCALE_OUT_PATH),
    ("--shard", ONE_SCALE_OUT_PATH),
    ("crate::sched", ONE_SCALE_OUT_PATH),
    ("rev_bench::sched", ONE_SCALE_OUT_PATH),
    ("shard_meta", ONE_SCALE_OUT_PATH),
    ("op_count(", ONE_SCALE_OUT_PATH),
    ("TelemetrySink", ONE_TELEMETRY_PATH),
    ("NullSink", ONE_TELEMETRY_PATH),
    ("with_sink", "System::new with SimConfigBuilder::telemetry"),
    ("record_events(", ONE_TELEMETRY_PATH),
    ("record_spans(", ONE_TELEMETRY_PATH),
    ("sample_every(", ONE_TELEMETRY_PATH),
    ("with_cache_config", "Machine::new"),
    ("spec_suite_serial", SUITE_GOLDENS),
    ("pgbench_suite_serial", SUITE_GOLDENS),
    ("pgbench_rate_suite_serial", SUITE_GOLDENS),
    ("grpc_suite_serial", SUITE_GOLDENS),
    ("read_bytes(", ONE_VIEW_OF_MEMORY),
    ("write_bytes(", ONE_VIEW_OF_MEMORY),
    ("read_u64(", ONE_VIEW_OF_MEMORY),
    ("peek_tagged_caps(", ONE_VIEW_OF_MEMORY),
    ("import_malloc_log", EARN_A_ROW),
    ("ImportSource", EARN_A_ROW),
    ("replay_malloc_log", EARN_A_ROW),
    ("GeneratedWorkload", ONE_WORKLOAD_FORM),
    ("SliceSource", ONE_WORKLOAD_FORM),
    (".materialize()", ONE_WORKLOAD_FORM),
    ("grpc_qps(", ONE_WORKLOAD_FORM),
    ("file_copy(", ONE_WORKLOAD_FORM),
    ("MmapSpace", NO_MMAP_PATH),
    ("Op::Mmap", NO_MMAP_PATH),
    ("Op::Munmap", NO_MMAP_PATH),
    ("file_copy_stream(", NO_MMAP_PATH),
    ("MapFlags::guard(", NO_MMAP_PATH),
    ("release_page(", NO_MMAP_PATH),
    ("unmap_range(", NO_MMAP_PATH),
    ("CARGO_BIN_EXE_run_matrix", "CARGO_BIN_EXE_repro with `matrix`"),
    ("--bin run_matrix", "--bin repro -- matrix"),
    ("--bin reproduce_all", "--bin repro -- all"),
    ("--bin opcheck", "--bin repro -- opcheck"),
    ("--bin dump_trace", "--bin repro -- trace"),
    ("enum Tweak", ONE_KNOB_TABLE),
    ("CONFIG_FIELDS", ONE_KNOB_TABLE),
    ("enum TraceWorkload", ONE_KNOB_TABLE),
];

/// The replacement for the tweak enum, the trace's field list and `trace
/// dump`'s program list: knobs and cells each have one vocabulary.
const ONE_KNOB_TABLE: &str =
    "SimConfig::FIELDS rows, set by SimConfigBuilder::set; trace dump takes a JobSpec::key";

/// The replacement for the deleted partitioners, cost tables, launchers
/// and shard processes.
const ONE_SCALE_OUT_PATH: &str =
    "one process over one checkpoint file; its workers are `--jobs N` / REPRO_JOBS";

/// The replacement for the deleted telemetry sink trait and per-channel
/// switches: one setting turns events, spans and samples on together.
const ONE_TELEMETRY_PATH: &str = "SimConfigBuilder::telemetry(TelemetryConfig::full(interval))";

/// The replacement for the deleted single-threaded suite loops, which
/// were the oracle for the orchestrator's merged suites.
const SUITE_GOLDENS: &str =
    "crates/bench/tests/suite_goldens.rs, or an orchestrator::run at workers(1)";

/// Why the malloc-log importer and its example were deleted rather than
/// replaced: an input format no checked row reaches.
const EARN_A_ROW: &str = "nothing — an input format must earn a repro section, \
     ablation or benchmark row first (ROADMAP.md item 6(b)); replay programs with sim::trace";

/// The replacement for the deleted materialized workloads: a workload is
/// a stream. (Not `spec(` or `pgbench(`: `expand_spec(` and the
/// benchmark's `pgbench(None)` closure would match them.)
const ONE_WORKLOAD_FORM: &str =
    "the *_stream constructor, plus OpSource::collect_ops where a Vec<Op> is needed";

/// Why the §6.2 reservation `mmap` path was deleted, with the guard,
/// unmap and page-release paths that only it reached: no evaluated row
/// emitted its ops, and it had no safety row of its own.
const NO_MMAP_PATH: &str = "nothing — the mmap path and its unmap, guard and release paths were \
     deleted (DESIGN.md, Findings: §6.2); memory is mapped once and never returned";

/// The replacement for the deleted byte plane: memory holds what
/// capability stores put there, and nothing reads it as bytes. (Not
/// `write_u64(`: `FastHasher` implements `Hasher::write_u64`.)
const ONE_VIEW_OF_MEMORY: &str =
    "Machine::store_cap to store; PhysMem::{load_cap, tag} or tagged_caps_in_page to observe";

/// The replacement for the deleted stream truncation, which was the
/// identity on every stream it was applied to.
const SCALE_TOTAL_CHURN: &str =
    "SPEC streams carry no transactions — scale ChurnProfile::total_churn";

/// Files allowed to read the environment from library/binary source.
const ENV_ALLOWED: &[&str] = &["crates/bench/src/cli.rs", "crates/simtest/src/"];

fn workspace_root() -> PathBuf {
    // crates/srclint/ -> crates/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("srclint lives two levels below the workspace root")
        .to_path_buf()
}

/// Every `Cargo.toml` in the workspace: the root manifest plus one per
/// crate directory.
fn manifests(root: &Path) -> Vec<PathBuf> {
    let mut found = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("workspace has crates/") {
        let manifest = entry.expect("read crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            found.push(manifest);
        }
    }
    found.sort();
    found
}

/// Every `.rs` or `.sh` file under `dir`, recursively.
fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            source_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "sh") {
            out.push(path);
        }
    }
}

/// The workspace-relative path with `/` separators — the form every
/// allowlist above is written in.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

/// Whether a manifest line inside a dependency section is hermetic:
/// `path = "..."` or `workspace = true`.
fn hermetic_spec(spec: &str) -> bool {
    (spec.contains("path") && spec.contains('"'))
        || spec.replace(' ', "").contains("workspace=true")
}

/// Rules 1 + 2: dependency sections hold only path/workspace specs and
/// never name a banned registry crate.
fn lint_manifest(root: &Path, manifest: &Path, violations: &mut Vec<String>) {
    let text = fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
    let name = rel(root, manifest);
    let mut in_deps = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line.trim_end_matches(']').ends_with("dependencies");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, spec)) = line.split_once('=') else { continue };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_alphanumeric() || "_-".contains(c)) {
            continue;
        }
        for banned in BANNED_CRATES {
            if key == *banned || spec.contains(&format!("\"{banned}\"")) {
                violations.push(format!(
                    "{name}:{}: banned registry crate {banned} referenced \
                     (crates/simtest and benchmark/ are the in-tree replacements): {line}",
                    i + 1
                ));
            }
        }
        if !hermetic_spec(spec) {
            violations.push(format!(
                "{name}:{}: non-path dependency (this build must stay offline): {line}",
                i + 1
            ));
        }
    }
}

/// Whether `line` contains `token` bounded by non-identifier characters,
/// so `Instant` does not fire on `instantiate`.
fn has_token(line: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0
            || !line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
        let after = &line[at + token.len()..];
        let after_ok = !after.starts_with(|c: char| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

/// Rules 3–6 over one `.rs` file; rule 6 alone over a `.sh` file, which
/// is in no crate's `src/`.
fn lint_source(root: &Path, file: &Path, violations: &mut Vec<String>) {
    let name = rel(root, file);
    // The linter's own sources define the ban lists.
    if name.starts_with("crates/srclint/") {
        return;
    }
    let text = fs::read_to_string(file)
        .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));

    let in_crate_src = name.contains("/src/");
    let crate_name = name
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or_default();
    let clock_banned = in_crate_src
        && (DETERMINISTIC_CRATES.contains(&crate_name) || REPORT_TEXT.contains(&name.as_str()));
    let comment = if name.ends_with(".sh") { "#" } else { "//" };
    let env_banned = in_crate_src && !ENV_ALLOWED.iter().any(|a| name.starts_with(a) || name == *a);
    let siphash_banned = name != FIXED_SEED_HASH_DEFINED_IN
        && FIXED_SEED_HASH_ONLY.iter().any(|dir| name.starts_with(dir));
    let mut first_line = [None; ONCE_UNDER.len()];

    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim_start();
        if line.starts_with(comment) {
            continue;
        }
        let at = |msg: String| format!("{name}:{}: {msg}", i + 1);
        if env_banned && line.contains("env::var") {
            violations.push(at(format!(
                "environment read outside the CLI edge (move it to crates/bench/src/cli.rs): {line}"
            )));
        }
        if clock_banned {
            for token in ["Instant", "SystemTime"] {
                if has_token(line, token) {
                    violations.push(at(format!(
                        "wall clock in a deterministic crate or report-text module \
                         (outputs must be bit-stable): {line}"
                    )));
                }
            }
        }
        if siphash_banned {
            for token in ["HashMap", "HashSet"] {
                if has_token(line, token) {
                    violations.push(at(format!(
                        "std {token} hashes under a per-process random key \
                         (use cheri_mem::FastMap / FastSet): {line}"
                    )));
                }
            }
        }
        let packed = line.replace(' ', "");
        for (dir, token, instead) in BANNED_UNDER {
            if name.starts_with(dir) && packed.contains(token) {
                violations.push(at(format!("{token} under {dir} (use {instead}): {line}")));
            }
        }
        for ((dir, token, instead), first) in ONCE_UNDER.iter().zip(&mut first_line) {
            if name.starts_with(dir) && packed.contains(token) {
                match *first {
                    None => *first = Some(i + 1),
                    Some(n) => violations.push(at(format!(
                        "second {token} in one file under {dir} (first on line {n}; use {instead}): {line}"
                    ))),
                }
            }
        }
        for (token, instead) in BANNED_EVERYWHERE {
            if line.contains(token) {
                violations.push(at(format!(
                    "call site of deleted API {token}* (use {instead}): {line}"
                )));
            }
        }
    }
}

fn main() {
    let root = workspace_root();
    let mut violations = Vec::new();

    let manifests = manifests(&root);
    assert!(
        manifests.len() >= 10,
        "expected the root + crate manifests, found {} — srclint is scanning the wrong root",
        manifests.len()
    );
    for manifest in &manifests {
        lint_manifest(&root, manifest, &mut violations);
    }

    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "tools"] {
        source_files(&root.join(dir), &mut sources);
    }
    sources.retain(|p| !rel(&root, p).contains("target/"));
    sources.sort();
    for file in &sources {
        lint_source(&root, file, &mut violations);
    }

    if violations.is_empty() {
        println!(
            "srclint: clean — {} manifest(s), {} source file(s)",
            manifests.len(),
            sources.len()
        );
    } else {
        for v in &violations {
            eprintln!("srclint: {v}");
        }
        eprintln!("srclint: {} violation(s)", violations.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srclint-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn lint_one(root: &Path, rel_path: &str, body: &str) -> Vec<String> {
        let file = root.join(rel_path);
        fs::create_dir_all(file.parent().unwrap()).unwrap();
        fs::write(&file, body).unwrap();
        let mut v = Vec::new();
        lint_source(root, &file, &mut v);
        v
    }

    #[test]
    fn hermetic_spec_accepts_path_and_workspace_only() {
        assert!(hermetic_spec(" { path = \"crates/sim\" }"));
        assert!(hermetic_spec(" { workspace = true }"));
        assert!(hermetic_spec(".workspace = true".trim_start_matches('.')));
        assert!(!hermetic_spec(" \"0.8\""));
        assert!(!hermetic_spec(" { git = \"https://example.com/x\" }"));
    }

    #[test]
    fn token_matching_respects_identifier_boundaries() {
        assert!(has_token("let t = Instant::now();", "Instant"));
        assert!(has_token("use std::time::{Instant};", "Instant"));
        assert!(!has_token("fn instantiate() {}", "Instant"));
        assert!(!has_token("let MyInstant = 3;", "Instant"));
    }

    #[test]
    fn clock_reads_in_deterministic_crates_are_flagged() {
        let root = scratch("clock");
        let v = lint_one(&root, "crates/sim/src/bad.rs", "let t = std::time::Instant::now();\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("wall clock"), "{v:?}");
        // The harness crate may measure wall time.
        let v = lint_one(&root, "crates/bench/src/ok.rs", "let t = std::time::Instant::now();\n");
        assert!(v.is_empty(), "{v:?}");
        // Comments may discuss clocks anywhere.
        let v = lint_one(&root, "crates/sim/src/doc.rs", "// an Instant would be wrong here\n");
        assert!(v.is_empty(), "{v:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn clock_reads_in_report_text_modules_are_flagged() {
        let root = scratch("report-clock");
        let body = "let host_t0 = std::time::Instant::now();\n";
        for module in REPORT_TEXT {
            let v = lint_one(&root, module, body);
            assert!(v.len() == 1 && v[0].contains("wall clock"), "{module}: {v:?}");
        }
        // The subcommand bodies time their runs for stderr.
        let v = lint_one(&root, "crates/bench/src/commands.rs", body);
        assert!(v.is_empty(), "{v:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn siphash_tables_in_the_simulator_are_flagged_but_not_where_fastmap_is_defined() {
        let root = scratch("siphash-sim");
        let line = "    obj_gen: HashMap<ObjId, u64>,\n";
        for file in ["crates/sim/src/system.rs", "crates/alloc/src/snmalloc.rs", "crates/workloads/src/spec.rs"] {
            let v = lint_one(&root, file, line);
            assert!(v.len() == 1 && v[0].contains("cheri_mem::FastMap"), "{file}: {v:?}");
        }
        let v = lint_one(&root, "crates/mem/src/hash.rs", "use std::collections::{HashMap, HashSet};\n");
        assert!(v.is_empty(), "{v:?}");
        let v = lint_one(&root, "crates/sim/tests/t.rs", line);
        assert!(v.is_empty(), "{v:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn siphash_tables_in_the_analyzer_are_flagged() {
        let root = scratch("siphash");
        let body = "use std::collections::{BTreeMap, HashMap};\n";
        let v = lint_one(&root, "crates/analyze/src/lib.rs", body);
        assert!(v.len() == 1 && v[0].contains("cheri_mem::FastMap"), "{v:?}");
        let v = lint_one(&root, "crates/analyze/src/lib.rs", "objs: FastMap<ObjId, Obj>,\n");
        assert!(v.is_empty(), "{v:?}");
        // Only the analyzer's sources: its tests and other crates may.
        for elsewhere in ["crates/analyze/tests/t.rs", "crates/bench/src/ok.rs"] {
            let v = lint_one(&root, elsewhere, body);
            assert!(v.is_empty(), "{elsewhere}: {v:?}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_hashed_reverse_link_index_in_the_analyzer_is_flagged() {
        let root = scratch("reverse-links");
        for line in ["incoming: FastSet<(ObjId, u64)>,\n", "let s: FastSet<(ObjId,u64)> = x;\n"] {
            let v = lint_one(&root, "crates/analyze/src/lib.rs", line);
            assert!(v.len() == 1 && v[0].contains("per-object count"), "{line}: {v:?}");
        }
        // Other tables of the analyzer, and the set elsewhere, stay legal.
        for (file, line) in [
            ("crates/analyze/src/lib.rs", "links: FastMap<u64, Link>,\n"),
            ("crates/analyze/src/lib.rs", "incoming: u64,\n"),
            ("crates/analyze/tests/reference.rs", "let s: FastSet<(ObjId, u64)> = x;\n"),
            ("crates/sim/src/system.rs", "let s: FastSet<(ObjId, u64)> = x;\n"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.is_empty(), "{file}: {line}: {v:?}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_second_revoker_step_in_the_simulator_is_flagged() {
        let root = scratch("revoker-step");
        for line in [
            "StepOutcome::NeedsFinalStw { .. } => {\n",
            "if matches!(o, StepOutcome::NeedsFinalStw {..}) {}\n",
        ] {
            let v = lint_one(&root, "crates/sim/src/system.rs", line);
            assert!(v.len() == 1 && v[0].contains("System::revoker_step"), "{line}: {v:?}");
        }
        let one = "let outcome = self.revoker.background_step(&mut self.machine, budget);\n\
                   let pause = self.revoker.finish_stw(&mut self.machine, 1);\n";
        let v = lint_one(&root, "crates/sim/src/system.rs", one);
        assert!(v.is_empty(), "{v:?}");
        let twice = format!("{one}let o = self.revoker.background_step(&mut self.machine, 1_000_000);\n");
        let v = lint_one(&root, "crates/sim/src/system.rs", &twice);
        assert!(v.len() == 1 && v[0].contains("first on line 1"), "{v:?}");
        // The binding arm, and drain loops outside the simulator, stay legal.
        for (file, line) in [
            ("crates/sim/src/system.rs", "StepOutcome::NeedsFinalStw { used } => (used, true),\n"),
            ("crates/core/tests/strategy_variants.rs", "StepOutcome::NeedsFinalStw { .. } => {\n"),
            ("examples/quickstart.rs", "StepOutcome::NeedsFinalStw { .. } => {\n"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.is_empty(), "{file}: {line}: {v:?}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_second_phase_recording_site_in_the_revoker_is_flagged() {
        let root = scratch("phase-site");
        let one = "self.phases.push(PhaseRecord { epoch_index, kind, cycles });\n";
        let v = lint_one(&root, "crates/core/src/revoker.rs", one);
        assert!(v.is_empty(), "{v:?}");
        let twice = format!("{one}self.phases .push(PhaseRecord {{ epoch_index, kind: k, cycles: 0 }});\n");
        let v = lint_one(&root, "crates/core/src/revoker.rs", &twice);
        assert!(
            v.len() == 1 && v[0].contains("first on line 1") && v[0].contains("Revoker::record_phase"),
            "{v:?}"
        );
        // Phases pushed outside the revoker's crate stay legal.
        let v = lint_one(&root, "crates/sim/src/stats.rs", &twice);
        assert!(v.is_empty(), "{v:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn env_reads_outside_the_cli_edge_are_flagged() {
        let root = scratch("env");
        let v = lint_one(&root, "crates/sim/src/bad.rs", "let x = std::env::var(\"X\");\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("environment read"), "{v:?}");
        let v = lint_one(&root, "crates/bench/src/cli.rs", "let x = std::env::var(\"X\");\n");
        assert!(v.is_empty(), "{v:?}");
        let v = lint_one(&root, "crates/simtest/src/check.rs", "std::env::var(\"SEED\")\n");
        assert!(v.is_empty(), "{v:?}");
        // Integration tests are harness edges.
        let v = lint_one(&root, "tests/golden.rs", "let x = std::env::var(\"GOLDEN\");\n");
        assert!(v.is_empty(), "{v:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn deleted_and_deprecated_api_call_sites_are_flagged() {
        let root = scratch("shim");
        let v = lint_one(&root, "tests/x.rs", "let j = orchestrator::expand_all(scale);\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("deleted API"), "{v:?}");
        let v = lint_one(&root, "crates/vm/src/machine.rs", "hot: [None; MICRO_TLB_SLOTS],\n");
        assert!(v.len() == 1 && v[0].contains("cheri_mem::PageMap"), "{v:?}");
        let v = lint_one(&root, "crates/bench/tests/y.rs", "let n = jobs_from_env();\n");
        assert!(v.len() == 1 && v[0].contains("cli::env_workers"), "{v:?}");
        // The shims are gone, so their old defining files get no pass.
        let v = lint_one(&root, "crates/bench/src/harness.rs", "let s = Scale::from_env();\n");
        assert!(v.len() == 1 && v[0].contains("cli::env_scale"), "{v:?}");
        for line in [
            "let w = spec_stream_scaled(p, 1, 0.5);\n",
            "w.scale_churn(0.1);\n",
            "let keep = scaled_keep(n, 0.1);\n",
            "let s = Truncated::new(src, 10);\n",
        ] {
            let v = lint_one(&root, "crates/bench/src/plan.rs", line);
            assert!(v.len() == 1 && v[0].contains("total_churn"), "{line}: {v:?}");
        }
        for line in [
            "let p = Partition::Modulo;\n",
            "let d = LocalSpawn;\n",
            "let m = CostModel::static_table();\n",
            "let m = CostModel::calibrate_from_checkpoint(&path);\n",
            "let p = Partition::resolve_lpt(None);\n",
            "let mine = Shard::owns(&shard, 3);\n",
        ] {
            let v = lint_one(&root, "crates/bench/src/bin/repro.rs", line);
            assert!(v.len() == 1 && v[0].contains("--jobs N"), "{line}: {v:?}");
        }
        // Multi-process sharding, wherever it could be typed again.
        for (file, line) in [
            ("tools/ci.sh", "repro matrix --smoke --shard 0/2 --checkpoint ck &\n"),
            ("crates/bench/src/orchestrator.rs", "let ids = crate::sched::assignment(jobs, 2);\n"),
            ("crates/bench/tests/x.rs", "use rev_bench::sched;\n"),
            ("crates/bench/src/orchestrator.rs", "let meta = Json::obj([(\"shard_meta\", m)]);\n"),
            ("crates/bench/src/plan.rs", "let cost = job.op_count();\n"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.len() == 1 && v[0].contains("REPRO_JOBS"), "{file}: {line}: {v:?}");
        }
        // The revoker's sweep shards are no process shards.
        for line in ["let work = self.shard(pages);\n", "let w = ShardedWorklist::new(2);\n"] {
            let v = lint_one(&root, "crates/core/src/revoker.rs", line);
            assert!(v.is_empty(), "{line}: {v:?}");
        }
        for line in [
            "impl TelemetrySink for Streamer {}\n",
            "let sink = NullSink;\n",
            "let b = SimConfig::builder().record_events(true);\n",
            "let b = SimConfig::builder().record_spans(true);\n",
            "let b = SimConfig::builder().sample_every(50_000);\n",
        ] {
            let v = lint_one(&root, "tests/golden_report.rs", line);
            assert!(v.len() == 1 && v[0].contains("TelemetryConfig::full"), "{line}: {v:?}");
        }
        let v = lint_one(&root, "crates/sim/src/system.rs", "System::with_sink(cfg, sink)\n");
        assert!(v.len() == 1 && v[0].contains("System::new"), "{v:?}");
        let v = lint_one(&root, "crates/vm/src/machine.rs", "Machine::with_cache_config(4, c)\n");
        assert!(v.len() == 1 && v[0].contains("Machine::new"), "{v:?}");
        for line in [
            "let s = spec_suite_serial(&conditions, scale);\n",
            "let s = pgbench_suite_serial(&CONDITIONS, scale);\n",
            "let s = pgbench_rate_suite_serial(&RATE_SCHEDULE, scale);\n",
            "let s = harness::grpc_suite_serial(scale);\n",
        ] {
            let v = lint_one(&root, "crates/bench/tests/orchestrator.rs", line);
            assert!(v.len() == 1 && v[0].contains("suite_goldens.rs"), "{line}: {v:?}");
        }
        for (file, line) in [
            ("tests/seed_stability.rs", "let (ops, n) = import_malloc_log(LOG, opts)?;\n"),
            ("crates/analyze/tests/wellformed.rs", "let s = ImportSource::new(&log, opts);\n"),
            ("tools/ci.sh", "cargo run -q --example replay_malloc_log\n"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.len() == 1 && v[0].contains("item 6(b)"), "{file}: {line}: {v:?}");
        }
        // The byte plane: memory is read as capabilities only.
        for line in [
            "mem.read_bytes(0x4000, &mut buf);\n",
            "ms.write_bytes(0, 0x4000, &[0xab; 64]);\n",
            "let leaked = machine.mem().phys().read_u64(stale.base());\n",
            "for (a, c) in m.peek_tagged_caps(page) {}\n",
        ] {
            let v = lint_one(&root, "examples/uaf_failstop.rs", line);
            assert!(v.len() == 1 && v[0].contains("PhysMem::{load_cap, tag}"), "{line}: {v:?}");
        }
        for (file, line) in [
            ("crates/core/src/revoker.rs", "machine.peek_tagged_caps_into(page, &mut caps);\n"),
            ("crates/mem/src/hash.rs", "h.write_u64(id);\n"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.is_empty(), "{file}: {line}: {v:?}");
        }
        // The materialized twins: a workload is a stream.
        for (file, line) in [
            ("tests/golden_stats.rs", "fn workload() -> GeneratedWorkload {\n"),
            ("crates/analyze/tests/diagnostics.rs", "analyze(SliceSource::new(ops), cfg())\n"),
            ("crates/bench/src/commands.rs", "let w = spec_stream(p, 42).materialize();\n"),
            ("tests/workload_shapes.rs", "let w = grpc_qps(GrpcParams::default());\n"),
            ("tests/seed_stability.rs", "let w = workloads::file_copy(params);\n"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.len() == 1 && v[0].contains("collect_ops"), "{file}: {line}: {v:?}");
        }
        // The mmap path and what only it reached.
        for (file, line) in [
            ("src/lib.rs", "pub use cheri_alloc::{HeapLayout, MmapSpace, Mrs, MrsConfig};\n"),
            ("crates/sim/src/system.rs", "Op::Mmap { obj, len } => self.op_mmap(obj, len),\n"),
            ("crates/analyze/src/lib.rs", "Op::Munmap { obj } => self.end_object(obj),\n"),
            ("tests/seed_stability.rs", "let w = file_copy_stream(params);\n"),
            ("crates/vm/tests/tlb.rs", "m.map_range(BASE, PAGE_SIZE, MapFlags::guard()).unwrap();\n"),
            ("crates/vm/src/machine.rs", "self.mem.phys_mut().release_page(page);\n"),
            ("examples/quickstart.rs", "machine.unmap_range(base, len);\n"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.len() == 1 && v[0].contains("never returned"), "{file}: {line}: {v:?}");
        }
        for (file, line) in [
            ("crates/mem/src/phys.rs", "let f = self.materialize_page(page);\n"),
            ("crates/vm/src/machine.rs", "m.map_range(base, len, MapFlags::user_rw())?;\n"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.is_empty(), "{file}: {line}: {v:?}");
        }
        // Survivors that share a prefix with a banned call stay legal.
        for line in ["machine.set_event_recording(true);\n", "let r = Recorder::new();\n"] {
            let v = lint_one(&root, "crates/sim/src/system.rs", line);
            assert!(v.is_empty(), "{line}: {v:?}");
        }
        // The binaries `repro` replaced, wherever they could be typed.
        for (file, line) in [
            ("crates/bench/tests/e2e.rs", "let exe = env!(\"CARGO_BIN_EXE_run_matrix\");\n"),
            ("crates/bench/src/orchestrator.rs", "\"cargo run --bin run_matrix -- --only\"\n"),
            ("tools/ci.sh", "cargo run -q -p rev-bench --bin reproduce_all\n"),
            ("tools/ci.sh", "cargo run -q -p rev-bench --bin opcheck -- --smoke\n"),
            ("tools/ci.sh", "cargo run -q -p rev-bench --bin dump_trace dump pgbench p\n"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.len() == 1 && v[0].contains("repro"), "{file}: {line}: {v:?}");
        }
        let v = lint_one(&root, "tools/ci.sh", "# --bin run_matrix is now repro matrix\n");
        assert!(v.is_empty(), "{v:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_second_knob_list_or_a_program_list_for_trace_dump_is_flagged() {
        let root = scratch("knobs");
        for (file, line, instead) in [
            ("crates/bench/src/plan.rs", "pub(crate) enum Tweak {\n", "SimConfig::FIELDS"),
            ("crates/sim/src/trace.rs", "const CONFIG_FIELDS: [ConfigField; 11] = [\n", "SimConfig::FIELDS"),
            ("crates/bench/src/cli.rs", "pub enum TraceWorkload {\n", "JobSpec::key"),
        ] {
            let v = lint_one(&root, file, line);
            assert!(v.len() == 1 && v[0].contains(instead), "{file}: {line}: {v:?}");
        }
        for line in [
            "pub(crate) type Tweak = &'static [(&'static str, &'static str)];\n",
            "for field in &SimConfig::FIELDS {\n",
        ] {
            let v = lint_one(&root, "crates/bench/src/plan.rs", line);
            assert!(v.is_empty(), "{line}: {v:?}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_lints_flag_registry_and_banned_deps() {
        let root = scratch("manifest");
        let manifest = root.join("Cargo.toml");
        fs::write(
            &manifest,
            "[package]\nname = \"x\"\n[dependencies]\nrand = \"0.8\"\nsim = { path = \"s\" }\n\
             [dev-dependencies]\ncriterion = { version = \"0.5\" }\n# proptest = \"1\"\n",
        )
        .unwrap();
        let mut v = Vec::new();
        lint_manifest(&root, &manifest, &mut v);
        // rand: banned + non-path; criterion: banned + non-path. The
        // commented proptest line is skipped.
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().any(|m| m.contains("crate rand")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("criterion")), "{v:?}");
        assert!(!v.iter().any(|m| m.contains("proptest")), "{v:?}");
        let _ = fs::remove_dir_all(&root);
    }
}
