//! Property sweep: every streamed workload generator produces programs
//! the analyzer finds well-formed (generators are correct by
//! construction), across random seeds and sizes.
//!
//! Well-formed means zero malformed-program diagnostics — stale chases,
//! dangling links, and leaks are *expected* workload behaviour (they are
//! what the revoker exists for), not defects.

use analyze::{Analyzer, AnalyzerConfig, Report};
use morello_sim::{OpSource, OP_BATCH};
use simtest::sim_assert_eq;
use workloads::{
    grpc_stream, pgbench_stream, spec_stream, GrpcParams, PgbenchParams, StreamedWorkload,
    SPEC_PROGRAMS,
};

/// Analyzes at most `max_ops` ops of `source` — a prefix of a well-formed
/// program is well-formed (every malformation depends only on the ops
/// before it), and the big SPEC churn streams are too long to drain in a
/// property sweep.
fn analyze_prefix<S: OpSource>(mut source: S, cfg: AnalyzerConfig, max_ops: usize) -> Report {
    let mut a = Analyzer::new(cfg);
    let mut buf = Vec::with_capacity(OP_BATCH);
    let mut seen = 0;
    while seen < max_ops {
        buf.clear();
        if source.refill(&mut buf) == 0 {
            break;
        }
        for &op in buf.iter().take(max_ops - seen) {
            a.push(op);
        }
        seen += buf.len().min(max_ops - seen);
    }
    a.finish()
}

fn assert_well_formed<S: OpSource>(w: StreamedWorkload<S>) -> simtest::CaseResult {
    let cfg = AnalyzerConfig::from_sim(&w.config);
    let report = analyze_prefix(w.source, cfg, 200_000);
    sim_assert_eq!(report.malformed_count(), 0, "{} is malformed", w.name);
    sim_assert_eq!(report.malformed, false);
    Ok(())
}

simtest::props! {
    #![config(simtest::Config { cases: 12, ..Default::default() })]

    /// SPEC churn streams (all eleven profiles) are well-formed.
    fn spec_streams_are_well_formed(seed in 0u64..1_000_000, idx in 0usize..11) {
        let program = SPEC_PROGRAMS[idx % SPEC_PROGRAMS.len()];
        assert_well_formed(spec_stream(program, seed))?;
    }

    /// pgbench transaction streams are well-formed at any size/rate.
    fn pgbench_streams_are_well_formed(
        seed in 0u64..1_000_000,
        transactions in 1u64..300,
        rate_millis in 0u64..3,
    ) {
        let rate = match rate_millis {
            0 => None,
            r => Some(r as f64 * 800.0),
        };
        assert_well_formed(pgbench_stream(PgbenchParams { transactions, rate, seed }))?;
    }

    /// gRPC QPS streams are well-formed at any message count.
    fn grpc_streams_are_well_formed(seed in 0u64..1_000_000, messages in 1u64..500) {
        assert_well_formed(grpc_stream(GrpcParams { messages, seed }))?;
    }
}
