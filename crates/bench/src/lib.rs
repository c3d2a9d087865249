//! The evaluation harness: one regenerator per table and figure of the
//! paper (§5), plus ablation studies for the design choices in DESIGN.md.
//!
//! Figures are produced as Markdown tables written to stdout (and collected
//! into `EXPERIMENTS.md` by the `reproduce_all` binary). Absolute numbers
//! are simulated cycles at a nominal 2.5 GHz and 1/64 memory scale; the
//! claims under reproduction are the *shapes*: who wins, by what factor,
//! and where the crossovers fall.
//!
//! Binaries (all honour `REPRO_SCALE` ∈ (0,1] and `REPRO_REPS`):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig1_spec_wall` | Figure 1: SPEC wall-clock overheads |
//! | `fig2_cpu_time` | Figure 2: total CPU-time overheads |
//! | `fig3_peak_rss` | Figure 3: peak-RSS ratios |
//! | `fig4_bus_traffic` | Figure 4: DRAM-traffic overheads |
//! | `fig5_pgbench_time` | Figure 5: pgbench time overheads |
//! | `fig6_pgbench_bus` | Figure 6: pgbench bus overheads |
//! | `fig7_pgbench_cdf` | Figure 7: pgbench latency CDF |
//! | `fig8_grpc_latency` | Figure 8: gRPC QPS latency percentiles |
//! | `fig9_phase_times` | Figure 9: revocation phase times |
//! | `table1_pgbench_rates` | Table 1: latency vs fixed tx rates |
//! | `table2_revocation_rates` | Table 2: revocation-rate statistics |
//! | `reproduce_all` | Everything, into `EXPERIMENTS.md` (one global job list, resumable via `--checkpoint`) |
//! | `run_matrix` | The full matrix via the parallel orchestrator (`--shard K/N` / `--spawn N` for multi-process runs) |
//! | `ablation_*` | DESIGN.md's five ablation studies |
//!
//! The suite runners execute their matrices on a fault-isolated worker
//! pool (see [`orchestrator`]); `REPRO_JOBS` picks the worker count and
//! `REPRO_JOBS=1` recovers the serial path. Output is byte-identical
//! either way — including across process counts: shards of the matrix
//! append to per-shard files in a shared checkpoint directory and any
//! later run merges them in deterministic job order, so an N-shard
//! cluster run renders the same bytes as a laptop run. Which cells a
//! shard executes is greedy LPT bin-packing over each cell's own op
//! count ([`sched`]); every shard launches as a `sh -c` line expanded
//! from a command template ([`dispatch`]). Cells that fail both attempts
//! leave replayable `repro/<key>.json` files behind.
//!
//! Layering: [`plan`] expands the matrix, [`sched`] partitions it,
//! [`orchestrator`] executes it, [`dispatch`] launches shard processes,
//! and [`cli`] is the only module that reads the environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod dispatch;
pub mod figures;
pub mod fmt;
pub mod harness;
pub mod orchestrator;
pub mod plan;
pub mod sched;
