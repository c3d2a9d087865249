//! The evaluation harness: one regenerator per table and figure of the
//! paper (§5), plus ablation studies for the design choices in DESIGN.md.
//!
//! Figures are produced as Markdown tables written to stdout (and collected
//! into `EXPERIMENTS.md` by `repro all`). Absolute numbers
//! are simulated cycles at a nominal 2.5 GHz and 1/64 memory scale; the
//! claims under reproduction are the *shapes*: who wins, by what factor,
//! and where the crossovers fall.
//!
//! One binary, `repro`; its subcommands (the section and ablation words
//! are the names in [`report::SECTIONS`] and [`report::ABLATIONS`];
//! `repro` alone prints each subcommand's flags):
//!
//! | Subcommand | Regenerates |
//! |---|---|
//! | `fig1` | Figure 1: SPEC wall-clock overheads |
//! | `fig2` | Figure 2: total CPU-time overheads |
//! | `fig3` | Figure 3: peak-RSS ratios |
//! | `fig4` | Figure 4: DRAM-traffic overheads |
//! | `fig5` | Figure 5: pgbench time overheads |
//! | `fig6` | Figure 6: pgbench bus overheads |
//! | `fig7` | Figure 7: pgbench latency CDF |
//! | `fig8` | Figure 8: gRPC QPS latency percentiles |
//! | `fig9` | Figure 9: revocation phase times |
//! | `table1` | Table 1: latency vs fixed tx rates |
//! | `table2` | Table 2: revocation-rate statistics |
//! | `shape` | The paper's qualitative claims, graded |
//! | `ablation <name>` | One of DESIGN.md's ablation studies: `barriers`, `pte_mode`, `quarantine_policy`, `cheriot`, `revoker_priority`, `revoker_threads`, `revoker_cores`, `coloring` |
//! | `all` | Everything, into `EXPERIMENTS.md` (one global job list, resumable via `--checkpoint`) |
//! | `matrix` | Any selection of suites via the parallel orchestrator, resumable via `--checkpoint` |
//! | `opcheck` | Static temporal-safety analysis of a matrix's programs, no simulation |
//! | `trace dump` / `trace replay` | Any cell of `all`, by its key, as a portable trace file, and back |
//!
//! The section subcommands honour `REPRO_SCALE` ∈ (0,1] and
//! `REPRO_REPS`; SPEC rows and the ablations always run their full
//! stream.
//!
//! Every subcommand executes its matrix on a fault-isolated worker
//! pool (see [`orchestrator`]); `REPRO_JOBS` picks the worker count and
//! `REPRO_JOBS=1` recovers the serial path. Output is byte-identical
//! either way: the whole matrix runs in one process and merges in
//! deterministic job order. Cells that fail both attempts leave
//! replayable `repro/<key>.json` files behind.
//!
//! Layering: [`plan`] expands the matrix, [`orchestrator`] executes it,
//! [`report`] renders it, [`commands`]
//! holds the subcommand bodies, and [`cli`] is the only module that
//! reads argv or the environment. [`oracle`] checks a cell's simulated
//! stale chases against its static analysis, batch by batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod commands;
pub mod figures;
pub mod fmt;
pub mod harness;
pub mod oracle;
pub mod orchestrator;
pub mod plan;
pub mod report;
