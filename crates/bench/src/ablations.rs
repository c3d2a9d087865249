//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! A study is data: a table whose rows name the cells they read —
//! `(program, condition, tweak)` at [`crate::plan::ABLATION_SEED`] — and a
//! function from a row's looked-up [`RunStats`] to its columns. The cells
//! become [`JobSpec`]s ([`jobs`]) and run where every other cell runs, on
//! [`crate::orchestrator::run`]'s pool; a cell several rows or studies
//! read runs once. A tweak is `SimConfig::FIELDS` names and text values.
//! All eight studies are such tables: `coloring`'s coloured rows are
//! xalancbmk cells under Reloaded with a `colors=N` tweak, simulated by
//! the same `System` as every other cell.

use crate::figures::phase_cycles;
use crate::fmt::{markdown_table, ms};
use crate::harness::Suite;
use crate::orchestrator::{self, MatrixOutcome, RunOptions};
use crate::plan::{JobSpec, Tweak};
use cornucopia::{PhaseRole, Strategy};
use morello_sim::{Condition, RunStats};
use std::collections::BTreeSet;
use workloads::SpecProgram::{self, AstarLakes, HmmerNph3, Omnetpp, Xalancbmk};

const CORNUCOPIA: Condition = Condition::Safe(Strategy::Cornucopia);
const RELOADED: Condition = Condition::Safe(Strategy::Reloaded);

/// One cell a row reads.
#[derive(Debug, Clone, Copy)]
struct Cell(SpecProgram, Condition, Tweak);

/// The cell six of the studies share: the churn-heaviest workload under
/// the paper's design and its tuned configuration.
const XALANCBMK_RELOADED: Cell = Cell(Xalancbmk, RELOADED, &[]);
const OMNETPP_RELOADED: Cell = Cell(Omnetpp, RELOADED, &[]);

impl Cell {
    fn job(self) -> JobSpec {
        JobSpec::ablation(self.0, self.1, self.2)
    }

    /// The cell's result among the merged ablation cells, if it ran clean.
    fn lookup(self, results: &Suite) -> Option<&RunStats> {
        let job = self.job();
        results.stats(job.workload(), job.condition().label()).first()
    }
}

/// One ablation study (`repro ablation <name>`).
#[derive(Debug)]
pub struct Ablation {
    /// The word after `repro ablation`.
    pub name: &'static str,
    heading: &'static str,
    headers: &'static [&'static str],
    /// Each row over matrix cells: its label and the cells it reads.
    rows: &'static [(&'static str, &'static [Cell])],
    /// The columns after a row's label, from the row's cells and their
    /// stats (same order).
    columns: fn(&[Cell], &[&RunStats]) -> Vec<String>,
    expectation: &'static str,
}

impl Ablation {
    /// Every cell reference of the study, row by row.
    fn cells(&self) -> impl Iterator<Item = Cell> {
        self.rows.iter().flat_map(|(_, cells)| *cells).copied()
    }

    /// Runs the study's cells alone, as one job list on one pool.
    #[must_use]
    pub fn run(&self, opts: &RunOptions) -> MatrixOutcome {
        orchestrator::run(&jobs([self]), opts)
    }

    /// Renders the study from the merged ablation cells of a run that
    /// planned [`jobs`] of it ([`MatrixOutcome::ablations`]). A row that
    /// reads a cell with no result — it failed, or `--only` filtered it
    /// out — says so instead of printing numbers.
    #[must_use]
    pub fn render(&self, results: &Suite) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|&(label, cells)| {
                let stats: Option<Vec<&RunStats>> =
                    cells.iter().map(|cell| cell.lookup(results)).collect();
                let mut out = vec![label.to_string()];
                match stats {
                    Some(stats) => out.extend((self.columns)(cells, &stats)),
                    None => {
                        out.push("not evaluable (an input cell has no result)".to_string());
                        out.resize(self.headers.len(), "—".to_string());
                    }
                }
                out
            })
            .collect();
        format!(
            "{}\n\n{}\n{}\n",
            self.heading,
            markdown_table(self.headers, &rows),
            self.expectation
        )
    }
}

/// The cells of `studies` as jobs: each distinct cell once, in order of
/// first reference.
#[must_use]
pub fn jobs<'a>(studies: impl IntoIterator<Item = &'a Ablation>) -> Vec<JobSpec> {
    let mut seen = BTreeSet::new();
    studies
        .into_iter()
        .flat_map(Ablation::cells)
        .map(Cell::job)
        .filter(|job| seen.insert(job.key()))
        .collect()
}

fn wall_ms(stats: &RunStats) -> String {
    format!("{:.1}", stats.wall_ms())
}

fn max_pause(stats: &RunStats) -> u64 {
    stats.pauses.iter().copied().max().unwrap_or(0)
}

/// The cycles of each concurrent sweep phase of a run under `condition`,
/// ascending.
fn concurrent_phases(condition: Condition, stats: &RunStats) -> Vec<u64> {
    let kind = match condition {
        Condition::Safe(strategy) => strategy.phase(PhaseRole::Concurrent),
        Condition::Baseline => None,
    };
    let mut cycles = kind.map_or_else(Vec::new, |kind| phase_cycles(std::slice::from_ref(stats), kind));
    cycles.sort_unstable();
    cycles
}

fn median(sorted: &[u64]) -> u64 {
    sorted.get(sorted.len() / 2).copied().unwrap_or(0)
}

/// Load barrier (Reloaded) vs store barrier (Cornucopia) as pointer-store
/// density rises: the store barrier forces STW re-sweeps of re-dirtied
/// pages, so its pause grows with density while the load barrier's does
/// not (§3.1-3.2).
pub const BARRIERS: Ablation = Ablation {
    name: "barriers",
    heading: "### Ablation — store barrier vs load barrier (max pause, ms)",
    headers: &["workload", "Cornucopia (store barrier)", "Reloaded (load barrier)", "pause ratio"],
    rows: &[
        (
            "low pointer density (hmmer nph3)",
            &[Cell(HmmerNph3, CORNUCOPIA, &[]), Cell(HmmerNph3, RELOADED, &[])],
        ),
        (
            "medium (astar lakes)",
            &[Cell(AstarLakes, CORNUCOPIA, &[]), Cell(AstarLakes, RELOADED, &[])],
        ),
        ("high (xalancbmk)", &[Cell(Xalancbmk, CORNUCOPIA, &[]), XALANCBMK_RELOADED]),
    ],
    columns: |_, stats| {
        let (corn, rel) = (max_pause(stats[0]), max_pause(stats[1]));
        vec![ms(corn), ms(rel), format!("{:.0}x", corn as f64 / rel.max(1) as f64)]
    },
    expectation: "Expectation: the store-barrier pause grows with pointer-store density; the \
                  load-barrier pause stays flat (register/hoard scan only).",
};

/// Per-PTE generation bits vs rewriting every PTE each epoch (§4.1).
pub const PTE_MODE: Ablation = Ablation {
    name: "pte_mode",
    heading: "### Ablation — PTE maintenance mode (omnetpp, Reloaded)",
    headers: &["mode", "wall (ms)", "max pause (ms)", "epochs"],
    rows: &[
        ("generation bits (paper design)", &[OMNETPP_RELOADED]),
        (
            "rewrite PTEs each epoch (strawman)",
            &[Cell(Omnetpp, RELOADED, &[("pte_mode", "rewrite-each-epoch")])],
        ),
    ],
    columns: |_, stats| {
        let s = stats[0];
        vec![wall_ms(s), ms(max_pause(s)), s.revocations.to_string()]
    },
    expectation: "Expectation: rewriting every PTE at epoch start lengthens the stop-the-world \
                  entry (one PTE write + shootdown per mapped page, twice per epoch) without any \
                  safety benefit — the reason §4.1's generation scheme exists.",
};

/// Quarantine policy sweep (§7.2): fraction of heap and floor.
pub const QUARANTINE_POLICY: Ablation = Ablation {
    name: "quarantine_policy",
    heading: "### Ablation — quarantine policy (xalancbmk, Reloaded)",
    headers: &["policy", "wall (ms)", "revocations", "peak RSS (MiB)"],
    rows: &[
        (
            "1/7 of heap, 128 KiB floor",
            &[Cell(Xalancbmk, RELOADED, &[("quarantine_divisor", "7"), ("min_quarantine", "131072")])],
        ),
        ("1/3 of heap, 128 KiB floor (paper)", &[XALANCBMK_RELOADED]),
        (
            "1/1 of heap, 128 KiB floor",
            &[Cell(Xalancbmk, RELOADED, &[("quarantine_divisor", "1"), ("min_quarantine", "131072")])],
        ),
        (
            "1/3 of heap, 1 MiB floor",
            &[Cell(Xalancbmk, RELOADED, &[("quarantine_divisor", "3"), ("min_quarantine", "1048576")])],
        ),
    ],
    columns: |_, stats| {
        let s = stats[0];
        let peak_mib = s.peak_rss as f64 / (1 << 20) as f64;
        vec![wall_ms(s), s.revocations.to_string(), format!("{peak_mib:.1}")]
    },
    expectation: "Expectation: a larger quarantine trades memory footprint for fewer, larger \
                  revocation passes (§7.2); the paper's 1/3-of-allocated-heap policy sits in the \
                  middle of the curve.",
};

/// CHERIoT-style in-pipeline load filter vs trapping load barrier (§6.3).
pub const CHERIOT: Ablation = Ablation {
    name: "cheriot",
    heading: "### Ablation — CHERIoT-style load filter vs load barrier (omnetpp)",
    headers: &["design", "wall (ms)", "load faults", "max pause (ms)"],
    rows: &[
        ("Reloaded (trap + self-heal)", &[OMNETPP_RELOADED]),
        (
            "CHERIoT-style filter (probe every load)",
            &[Cell(Omnetpp, Condition::Safe(Strategy::CheriotFilter), &[])],
        ),
    ],
    columns: |_, stats| {
        let s = stats[0];
        vec![wall_ms(s), s.faults.to_string(), ms(max_pause(s))]
    },
    expectation: "Expectation: the filter takes no traps and needs no epoch entry STW at all \
                  (freed objects are dead on load), at the price of probing the bitmap on every \
                  capability load — viable for CHERIoT's tightly-coupled SRAM, costly for a \
                  server-class memory hierarchy (§6.3).",
};

/// Revoker core placement (§5.3/§7.7): spare core vs competing with the
/// application.
pub const REVOKER_PRIORITY: Ablation = Ablation {
    name: "revoker_priority",
    heading: "### Ablation — revoker CPU placement (xalancbmk, Reloaded)",
    headers: &["placement", "wall (ms)", "blocked allocations"],
    rows: &[
        ("revoker on spare core (SPEC setup)", &[XALANCBMK_RELOADED]),
        (
            "revoker competes for app cores (gRPC setup)",
            &[Cell(Xalancbmk, RELOADED, &[("spare_revoker_core", "false")])],
        ),
    ],
    columns: |_, stats| vec![wall_ms(stats[0]), stats[0].blocked_allocs.to_string()],
    expectation: "Expectation: without a spare core, concurrent revocation steals mutator \
                  cycles and passes take longer to finish, so allocation blocks more often — \
                  the §7.7 motivation for tuning the revoker thread's quantum/priority.",
};

/// Multi-threaded background revocation (§7.1): more revoker threads
/// shorten the concurrent phase (and with it the window in which
/// Cornucopia accumulates re-dirtied pages / Reloaded takes faults).
pub const REVOKER_THREADS: Ablation = Ablation {
    name: "revoker_threads",
    heading: "### Ablation — background revoker threads (§7.1; xalancbmk, Reloaded)",
    headers: &["configuration", "wall (ms)", "median concurrent phase (ms)", "load faults"],
    rows: &[
        ("1 background thread(s)", &[XALANCBMK_RELOADED]),
        ("2 background thread(s)", &[Cell(Xalancbmk, RELOADED, &[("revoker_threads", "2")])]),
    ],
    columns: |cells, stats| {
        let s = stats[0];
        vec![wall_ms(s), ms(median(&concurrent_phases(cells[0].1, s))), s.faults.to_string()]
    },
    expectation: "Expectation: a second background thread roughly halves the concurrent \
                  phase; the application then takes fewer load-barrier faults because pages \
                  are healed before it touches them.",
};

/// Parallel multi-core concurrent sweep (§7.1): revoker cores ∈ {1, 2, 4}
/// × {Cornucopia, Reloaded} on the churn-heaviest workload. Each core
/// consumes its own worklist shard and charges its own traffic, so the
/// concurrent phase shrinks to the critical path while per-core DRAM
/// shows where the sweep's bus pressure actually lands.
pub const REVOKER_CORES: Ablation = Ablation {
    name: "revoker_cores",
    heading: "### Ablation — parallel sweep core scaling (§7.1; xalancbmk, sharded worklists)",
    headers: &[
        "configuration",
        "median concurrent phase (ms)",
        "total concurrent (ms)",
        "revoker DRAM txns per core",
    ],
    rows: &[
        ("Cornucopia × 1 core(s)", &[Cell(Xalancbmk, CORNUCOPIA, &[])]),
        ("Cornucopia × 2 core(s)", &[Cell(Xalancbmk, CORNUCOPIA, &[("revoker_threads", "2")])]),
        ("Cornucopia × 4 core(s)", &[Cell(Xalancbmk, CORNUCOPIA, &[("revoker_threads", "4")])]),
        ("Reloaded × 1 core(s)", &[XALANCBMK_RELOADED]),
        ("Reloaded × 2 core(s)", &[Cell(Xalancbmk, RELOADED, &[("revoker_threads", "2")])]),
        ("Reloaded × 4 core(s)", &[Cell(Xalancbmk, RELOADED, &[("revoker_threads", "4")])]),
    ],
    columns: |cells, stats| {
        let concurrent = concurrent_phases(cells[0].1, stats[0]);
        let per_core_dram: Vec<String> =
            stats[0].revoker_dram_per_core.iter().map(u64::to_string).collect();
        vec![ms(median(&concurrent)), ms(concurrent.iter().sum()), per_core_dram.join(" / ")]
    },
    expectation: "Expectation: the concurrent-phase critical path falls roughly in proportion \
                  to the core count (identical revocation results — the property suite checks \
                  bit-for-bit equality), DRAM transactions spread across the sweeping cores \
                  instead of piling on `revoker_cores[0]`, and the shorter window reduces \
                  Cornucopia's re-dirtied-page STW work / Reloaded's fault exposure.",
};

/// The §7.3 CHERI + memory-coloring composition vs. plain quarantine:
/// revocation pressure falls with the color count while stale pointers
/// die at free time.
pub const COLORING: Ablation = Ablation {
    name: "coloring",
    heading: "### Ablation — CHERI + memory coloring (§7.3)",
    headers: &["design", "revocation passes", "revoker ms", "stale-pointer lifetime"],
    rows: &[
        ("plain quarantine (xalancbmk, Reloaded)", &[XALANCBMK_RELOADED]),
        ("coloring, 4 colors", &[Cell(Xalancbmk, RELOADED, &[("colors", "4")])]),
        ("coloring, 8 colors", &[Cell(Xalancbmk, RELOADED, &[("colors", "8")])]),
        ("coloring, 16 colors", &[Cell(Xalancbmk, RELOADED, &[("colors", "16")])]),
    ],
    columns: |cells, stats| {
        let lifetime = match cells[0].2 {
            [("colors", _)] => "instant (fail-stop on free)",
            _ => "until next epoch (UAF window)",
        };
        let s = stats[0];
        vec![s.revocations.to_string(), ms(s.revoker_cpu_cycles), lifetime.to_string()]
    },
    expectation: "Expectation (§7.3): quarantine pressure — and with it revocation \
                  frequency — falls roughly in proportion to the color count, while the \
                  UAF/UAR gap closes completely (stale pointers die at free time, as in \
                  CHERIoT).",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use crate::plan::MatrixPlan;
    use crate::report::ABLATIONS;
    use morello_sim::{Json, SimConfig};

    #[test]
    fn barrier_ablation_smoke() {
        let outcome = BARRIERS.run(&RunOptions::new().workers(1));
        let report = BARRIERS.render(outcome.ablations());
        assert!(report.contains("xalancbmk"));
        assert!(report.contains("pause ratio"));
    }

    #[test]
    fn the_28_cell_references_are_20_cells_and_none_is_a_figure_cell() {
        assert_eq!(ABLATIONS.iter().flat_map(Ablation::cells).count(), 28);
        let planned = jobs(&ABLATIONS);
        let ablation_keys: BTreeSet<String> = planned.iter().map(JobSpec::key).collect();
        assert_eq!((planned.len(), ablation_keys.len()), (20, 20));

        let figure_cells = MatrixPlan::all(Scale::default()).build().unwrap();
        let figure_keys: BTreeSet<String> = figure_cells.iter().map(JobSpec::key).collect();
        assert_eq!(figure_keys.len(), 132);
        assert!(ablation_keys.is_disjoint(&figure_keys));

        // `repro all`'s list: the figure cells, then the ablation cells.
        let all = MatrixPlan::all(Scale::default()).cells(planned).build().unwrap();
        assert_eq!(all.len(), 152);
        assert!(all[132..].iter().all(|job| job.merge_label() == crate::plan::ABLATION_LABEL));
    }

    #[test]
    fn every_row_finds_its_cells_in_a_run_that_planned_them() {
        // The merge `orchestrator::run` performs, over made-up results.
        let mut results = Suite::new();
        for job in jobs(&ABLATIONS) {
            results.insert(job.workload(), job.condition(), RunStats::default());
        }
        for study in &ABLATIONS {
            let text = study.render(&results);
            assert!(!text.contains("not evaluable") && !text.contains("NaN"), "{text}");
        }
        let empty = PTE_MODE.render(&Suite::new());
        assert_eq!(empty.matches("not evaluable").count(), 2, "{empty}");
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ablations-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The table rows of a rendered study, keyed by nothing: row order is
    /// declaration order.
    fn table_rows(text: &str) -> Vec<&str> {
        text.lines().filter(|l| l.starts_with("| ")).skip(1).collect()
    }

    #[test]
    fn a_panicking_cell_costs_its_row_only_and_a_checkpoint_resumes_the_rest() {
        let dir = scratch_dir("fault");
        let opts = RunOptions::new()
            .workers(2)
            .checkpoint(dir.join("ck.jsonl"))
            .repro_dir(dir.join("repro"));

        // One hmmer cell panics on both attempts: a record, not an abort.
        let doomed = Cell(HmmerNph3, CORNUCOPIA, &[]).job().key();
        let faulty = BARRIERS.run(&opts.clone().inject_panic(Some(doomed.clone())));
        assert_eq!((faulty.completed, faulty.failures.len()), (5, 1));
        assert_eq!(faulty.failures[0].key, doomed);
        let repro = dir.join("repro").join(orchestrator::repro_file_name(&doomed));
        let repro = std::fs::read_to_string(repro).expect("the failed cell leaves a repro file");
        assert!(repro.contains("--ablations --only 'ablation|hmmer nph3|Cornucopia|s77'"), "{repro}");
        let faulty = BARRIERS.render(faulty.ablations());

        // The same checkpoint, no fault: only the lost cell runs.
        let healed = BARRIERS.run(&opts);
        assert_eq!((healed.completed, healed.resumed), (1, 5));
        let healed = BARRIERS.render(healed.ablations());
        let (faulty_rows, healed_rows) = (table_rows(&faulty), table_rows(&healed));
        assert!(faulty_rows[0].starts_with("| low pointer density (hmmer nph3) | not evaluable"));
        assert!(!healed.contains("not evaluable"), "{healed}");
        assert_eq!(faulty_rows[1..], healed_rows[1..], "the other rows must not move");

        // Again, with every cell rigged to panic if it ran: none does.
        let resumed = BARRIERS.run(&opts.inject_panic(Some("|".to_string())));
        assert_eq!((resumed.completed, resumed.resumed), (0, 6));
        assert_eq!(BARRIERS.render(resumed.ablations()), healed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tweaked_cells_checkpoint_line_never_replays_into_the_untweaked_cell() {
        let dir = scratch_dir("tweak");
        let tweaked = Cell(HmmerNph3, RELOADED, &[("revoker_threads", "2")]).job();
        let plain = Cell(HmmerNph3, RELOADED, &[]).job();
        assert_ne!(tweaked.key(), plain.key());

        let written = dir.join("tweaked.jsonl");
        let first = orchestrator::run(
            std::slice::from_ref(&tweaked),
            &RunOptions::new().checkpoint(&written),
        );
        assert_eq!(first.completed, 1);
        let again = orchestrator::run(
            std::slice::from_ref(&tweaked),
            &RunOptions::new().checkpoint(&written),
        );
        assert_eq!((again.completed, again.resumed), (0, 1), "its own line replays");

        // By key: the tweak is part of it. And were the keys ever to
        // collide, by the parameters recorded beside the key.
        let over_own = orchestrator::run(
            std::slice::from_ref(&plain),
            &RunOptions::new().checkpoint(&written),
        );
        assert_eq!((over_own.completed, over_own.resumed), (1, 0));
        let line = std::fs::read_to_string(&written).unwrap();
        let line = line.lines().next().unwrap();
        let forged = dir.join("forged.jsonl");
        std::fs::write(&forged, line.replace(&tweaked.key(), &plain.key()) + "\n").unwrap();
        let over_forged = orchestrator::run(
            std::slice::from_ref(&plain),
            &RunOptions::new().checkpoint(&forged),
        );
        assert_eq!((over_forged.completed, over_forged.resumed), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_cell_label_is_the_field_tables_rendering_of_its_config() {
        for cell in ABLATIONS.iter().flat_map(Ablation::cells) {
            let tuned = workloads::spec_stream(cell.0, crate::plan::ABLATION_SEED).config;
            let config = crate::plan::apply_tweak(cell.2, &tuned);
            let job = cell.job();
            let label = job.workload().strip_prefix(cell.0.name()).unwrap();
            let pairs = label.trim_start().strip_prefix('[').and_then(|l| l.strip_suffix(']'));
            assert_eq!(pairs.is_none(), cell.2.is_empty(), "{}", job.key());
            for pair in pairs.into_iter().flat_map(|p| p.split(',')) {
                let (name, value) = pair.split_once('=').unwrap();
                let field = SimConfig::FIELDS.iter().find(|f| f.name == name).unwrap();
                assert_eq!((field.get)(&config), value, "{}", job.key());
            }
        }
    }

    #[test]
    fn a_line_keyed_in_the_old_tweak_spelling_reruns_and_unchanged_ones_resume() {
        let dir = scratch_dir("old-keys");
        let checkpoint = dir.join("ck.jsonl");
        // Lines as written when a tweak was an enum with its own spelling:
        // only the quarantine cells' text differs from the field table's.
        let line = |tweak: &str| {
            let params = [
                ("kind", Json::from("ablation")),
                ("program", Json::from("xalancbmk")),
                ("seed", Json::from(77u64)),
                ("tweak", Json::from(tweak)),
            ];
            Json::obj([
                ("key", Json::Str(format!("ablation|xalancbmk [{tweak}]|Reloaded|s77"))),
                ("params", Json::obj(params)),
                ("stats", RunStats::default().to_json_value()),
            ])
            .render()
        };
        let old = ["quarantine=1/7,floor=131072", "colors=8", "revoker_threads=2", "spare_revoker_core=false"];
        std::fs::write(&checkpoint, old.map(line).join("\n") + "\n").unwrap();
        let cells = [
            Cell(Xalancbmk, RELOADED, &[("quarantine_divisor", "7"), ("min_quarantine", "131072")]),
            Cell(Xalancbmk, RELOADED, &[("colors", "8")]),
            Cell(Xalancbmk, RELOADED, &[("revoker_threads", "2")]),
            Cell(Xalancbmk, RELOADED, &[("spare_revoker_core", "false")]),
        ]
        .map(Cell::job);
        // Every cell panics if it runs, so the one that re-runs fails.
        let opts = RunOptions::new()
            .checkpoint(&checkpoint)
            .repro_dir(dir.join("repro"))
            .inject_panic(Some("|".to_string()));
        let outcome = orchestrator::run(&cells, &opts);
        assert_eq!((outcome.completed, outcome.resumed, outcome.failures.len()), (0, 3, 1));
        assert_eq!(outcome.failures[0].key, cells[0].key());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
