//! # Cornucopia Reloaded — a simulation-based reproduction
//!
//! This workspace reproduces *Cornucopia Reloaded: Load Barriers for CHERI
//! Heap Temporal Safety* (Filardo et al., ASPLOS 2024) as a pure-Rust,
//! deterministic simulation. The paper's artifact is a CheriBSD kernel
//! subsystem on Arm Morello silicon; here, every layer of that stack is
//! modelled so the revocation algorithms themselves — CHERIvoke,
//! Cornucopia, and Cornucopia Reloaded — run unmodified in spirit and can
//! be measured the way the paper measures them.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`cheri_cap`] | CHERI capabilities: tags, bounds, monotonicity, compression |
//! | [`cheri_mem`] | Tagged physical memory + cache/DRAM traffic model |
//! | [`cheri_vm`] | MMU: PTEs with capability-dirty + load-generation bits, TLBs, faults |
//! | [`cornucopia`] | **The paper's contribution**: bitmap, epochs, hoards, revokers |
//! | [`cheri_alloc`] | snmalloc-lite + mrs quarantine shim |
//! | [`morello_sim`] | Discrete-event 4-core simulator, clocks, latency stats |
//! | [`workloads`] | SPEC CPU2006 / pgbench / gRPC QPS surrogates |
//!
//! ## Quickstart
//!
//! ```
//! use cornucopia_reloaded::prelude::*;
//!
//! // Stream a pgbench-like workload through Cornucopia Reloaded.
//! let mut w = workloads::pgbench_stream(workloads::PgbenchParams {
//!     transactions: 200,
//!     ..Default::default()
//! });
//! let cfg = w.config.with_condition(Condition::reloaded());
//! let report = System::new(cfg).run_stream(&mut w.source).unwrap();
//!
//! assert_eq!(report.tx_latencies.len(), 200); // derefs to `RunStats`
//! let lat = report.latency_summary();
//! assert!(lat.p50 <= lat.p99);
//! ```
//!
//! To capture the run's telemetry — the typed event journal, per-phase
//! spans, and the sampled counter time-series — switch the config's
//! [`TelemetryConfig`](morello_sim::TelemetryConfig) on and export the
//! [`RunReport`](morello_sim::RunReport) as deterministic JSON:
//!
//! ```
//! use cornucopia_reloaded::prelude::*;
//!
//! let cfg = SimConfig::builder()
//!     .condition(Condition::reloaded())
//!     .telemetry(morello_sim::TelemetryConfig::full(1_000_000))
//!     .build()
//!     .unwrap();
//! let ops = vec![Op::Compute { cycles: 10 }]; // a literal op list streams too
//! let report = System::new(cfg).run_stream(&mut ops.into_iter()).unwrap();
//! let json = report.to_json(); // byte-identical for identical runs
//! assert!(json.starts_with("{\"version\":"));
//! ```
//!
//! See `examples/` for runnable demonstrations (use-after-free fail-stop,
//! interactive latency, memory colouring) and the `rev-bench` crate for
//! one regenerator per table and figure in the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cheri_alloc;
pub use cheri_cap;
pub use cheri_mem;
pub use cheri_vm;
pub use cornucopia;
pub use morello_sim;
pub use workloads;

/// The most commonly used types, re-exported.
pub mod prelude {
    pub use cheri_alloc::{HeapLayout, Mrs, MrsConfig};
    pub use cheri_cap::{Capability, Perms};
    pub use cheri_vm::{Machine, MapFlags, VmFault};
    pub use cornucopia::{Revoker, RevokerConfig, StepOutcome, Strategy};
    pub use morello_sim::{
        Condition, ConfigError, Op, RunReport, RunStats, SimConfig, SimConfigBuilder, System,
    };
    pub use workloads;
}
