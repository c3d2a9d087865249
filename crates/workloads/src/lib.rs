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
//! | [`pgbench_stream`] | §5.2: scale-10 TPC-B-like transactions, ~50% server idle, ~5 statements/tx |
//! | [`grpc_stream`] | §5.3: 2 server threads sharing cores with the revoker |
//!
//! Every workload is a stream: a `*_stream` function returns a
//! [`StreamedWorkload`] whose [`OpSource`] regenerates the ops from the
//! seed. Where a `Vec<Op>` is needed, [`OpSource::collect_ops`] collects
//! one.
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
mod interactive;
mod spec;

pub use churn::{ChurnProfile, ChurnSource, SizeDist};
pub use interactive::{
    grpc_stream, pgbench_stream, GrpcParams, GrpcSource, PgbenchParams, PgbenchSource,
};
pub use morello_sim::OpSource;
pub use spec::{spec_stream, SpecProgram, SPEC_PROGRAMS};

use morello_sim::{for_each_batch, SimConfig};
use std::convert::Infallible;

/// Memory scale factor relative to the paper: all byte quantities
/// (heaps, churn, quarantine floor) are divided by this.
pub const MEM_SCALE: u64 = 64;

/// A workload: ops produced lazily by an [`OpSource`] plus a [`SimConfig`]
/// pre-tuned for them (arena size, quarantine floor, thread/core
/// placement). Callers set the condition and run. Resident memory is one
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

/// Drains `source` to count its remaining ops in O(batch) memory.
pub fn count_ops<S: OpSource>(source: &mut S) -> usize {
    let mut total = 0;
    let Ok(()) = for_each_batch(source, |batch| {
        total += batch.len();
        Ok::<(), Infallible>(())
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use morello_sim::Op;

    #[test]
    fn count_ops_counts_every_batch() {
        let ops: Vec<Op> = (0..2_500).map(|i| Op::Compute { cycles: i }).collect();
        assert_eq!(count_ops(&mut ops.into_iter()), 2_500);
        let params = GrpcParams { messages: 200, seed: 1 };
        let collected = grpc_stream(params).source.collect_ops();
        assert_eq!(count_ops(&mut grpc_stream(params).source), collected.len());
    }
}
