//! Discrete-event simulation of the paper's evaluation platform.
//!
//! The paper evaluates on a 4-core, 2.5 GHz Morello board with the
//! application pinned to core 3 and the background revoker to core 2
//! (§5.1). This crate reproduces that setup in simulated time:
//!
//! * [`System`] owns the [`cheri_vm::Machine`], the
//!   [`cornucopia::Revoker`], and the [`cheri_alloc::Mrs`] heap, and
//!   executes a stream of application [`Op`]s;
//! * application work advances the **wall clock**; while a revocation pass
//!   is in flight the background revoker consumes the same wall interval
//!   on its own core (or steals time from the application cores when no
//!   spare core exists, §5.3);
//! * stop-the-world pauses, load-barrier faults, allocation blocking, and
//!   per-transaction latencies are all recorded for the evaluation's
//!   figures;
//! * DRAM traffic comes from the machine's cache model, CPU time from the
//!   per-core cycle ledgers, and peak RSS from the physical memory's
//!   high-water mark;
//! * the [`telemetry`] layer can additionally journal typed events, span
//!   every revocation phase, and sample a counter time-series — one
//!   setting, [`TelemetryConfig::full`], turns all three on; off by
//!   default and free when off. Traced and untraced runs take the same
//!   batched dispatch path.
//!
//! Everything is deterministic: the same op stream produces the same
//! [`RunStats`], and with telemetry on, the same byte-identical
//! [`RunReport::to_json`] document.
//!
//! # Example
//!
//! ```
//! use morello_sim::{Condition, Op, SimConfig, System};
//!
//! let mut ops = vec![Op::TxBegin { id: 0 }];
//! for i in 0..100 {
//!     ops.push(Op::Alloc { obj: i, size: 128 });
//!     ops.push(Op::WriteData { obj: i, len: 128 });
//!     ops.push(Op::Free { obj: i });
//! }
//! ops.push(Op::TxEnd { id: 0 });
//!
//! let cfg = SimConfig::builder().condition(Condition::reloaded()).build().unwrap();
//! let report = System::new(cfg).run_stream(&mut ops.into_iter()).unwrap();
//! assert!(report.wall_cycles > 0); // derefs to RunStats
//! assert_eq!(report.tx_latencies.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod json;
mod ops;
mod report;
mod stats;
mod system;
pub mod telemetry;
pub mod trace;

pub use config::{Condition, ConfigError, ConfigField, SimConfig, SimConfigBuilder, TelemetryConfig};
pub use json::{Json, JsonError};
pub use ops::{for_each_batch, ObjId, Op, OpSource, OP_BATCH};
pub use report::{RunReport, REPORT_VERSION};
pub use stats::{percentile, BoxStats, Dist, LatencySummary, RunStats, CYCLES_PER_MS, CYCLES_PER_SEC};
pub use system::{SimError, System};
pub use telemetry::{
    Sample, Span, SpanKind, StaleChaseOutcome, TelemetryData, TelemetryEvent, TimedEvent,
};
