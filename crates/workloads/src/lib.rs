//! Synthetic surrogates for the paper's evaluation workloads (§5).
//!
//! The real evaluation runs CHERI-compiled SPEC CPU2006 INT binaries,
//! PostgreSQL under `pgbench`, and the gRPC QPS benchmark on Morello.
//! None of those can run here, but the revokers only ever observe a
//! workload through its *allocation and pointer behaviour*: heap size,
//! free rate, object sizes, pointer-store density, pointer-chase rate, and
//! idle time. Each surrogate reproduces those observables, calibrated to
//! the paper's Table 2 (revocation-rate statistics) and Figure 3 (heap
//! footprints), at **1/64 memory scale** ([`MEM_SCALE`]).
//!
//! | Surrogate | Calibration source |
//! |---|---|
//! | [`SpecProgram`] profiles | Table 2 (mean alloc, sum freed, revocations) + §5.4's pointer-chase characterization |
//! | [`pgbench`] | §5.2: scale-10 TPC-B-like transactions, ~50% server idle, ~5 statements/tx |
//! | [`grpc_qps`] | §5.3: 2 server threads sharing cores with the revoker |
//!
//! # Example
//!
//! ```
//! use morello_sim::{Condition, System};
//! use workloads::{spec_stream, SpecProgram};
//!
//! let mut w = spec_stream(SpecProgram::GobmkTrevord, 42);
//! let config = w.config.with_condition(Condition::reloaded());
//! let stats = System::new(config).run_stream(&mut w.source).unwrap();
//! assert!(stats.frees > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod filecopy;
mod interactive;
mod spec;
mod stream;

pub use churn::{ChurnProfile, ChurnSource, SizeDist};
pub use filecopy::{file_copy, file_copy_stream, FileCopyParams, FileCopySource};
pub use interactive::{
    grpc_qps, grpc_stream, pgbench, pgbench_stream, pgbench_tx_interval, GrpcParams, GrpcSource,
    PgbenchParams, PgbenchSource,
};
pub use morello_sim::OpSource;
pub use spec::{spec, spec_stream, SpecProgram, SPEC_PROGRAMS};
pub use stream::{count_ops, SliceSource};

use morello_sim::{Op, SimConfig};

/// Memory scale factor relative to the paper: all byte quantities
/// (heaps, churn, quarantine floor) are divided by this.
pub const MEM_SCALE: u64 = 64;

/// A materialized workload — a [`StreamedWorkload`] with its stream
/// collected: the ops plus a [`SimConfig`] pre-tuned for them (arena size,
/// quarantine floor, thread/core placement). Callers set
/// `config.condition` and run.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    /// Workload name (figure row label).
    pub name: String,
    /// The operation stream.
    pub ops: Vec<Op>,
    /// Simulator configuration tuned for this workload.
    pub config: SimConfig,
}

/// A workload whose ops are produced lazily by an [`OpSource`]: the form
/// every generator in this crate is written in. Resident memory is one
/// batch buffer plus generator state (a few KiB) rather than the whole op
/// stream (tens of MiB for the big SPEC rows).
#[derive(Debug, Clone)]
pub struct StreamedWorkload<S> {
    /// Workload name (figure row label).
    pub name: String,
    /// The lazy op stream.
    pub source: S,
    /// Simulator configuration tuned for this workload.
    pub config: SimConfig,
}

impl<S: OpSource> StreamedWorkload<S> {
    /// Drains the stream into a [`GeneratedWorkload`] (the two run
    /// bit-identically under the simulator).
    #[must_use]
    pub fn materialize(self) -> GeneratedWorkload {
        GeneratedWorkload {
            name: self.name,
            ops: self.source.collect_ops(),
            config: self.config,
        }
    }
}
