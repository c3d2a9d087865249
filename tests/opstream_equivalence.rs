//! End-to-end check of the streaming op pipeline through the facade
//! crate: `System::run_stream` over a regenerated [`OpSource`] must
//! produce `RunStats` equal to `run_stream` over the same stream collected
//! into a `Vec<Op>`, for every revocation condition. The generator's
//! batches and the vector's fixed `OP_BATCH` batches fall on different
//! op boundaries, so this exercises the batched dispatch (`exec_batch`
//! fusion) against batch-boundary independence on real workload shapes.

use cornucopia_reloaded::morello_sim::{Condition, OpSource, System};
use cornucopia_reloaded::workloads::{pgbench_stream, spec_stream, PgbenchParams, SpecProgram};

#[test]
fn streamed_spec_run_matches_materialized_run_under_all_conditions() {
    let conditions = [
        Condition::baseline(),
        Condition::paint_sync(),
        Condition::cherivoke(),
        Condition::cornucopia(),
        Condition::reloaded(),
    ];
    for cond in conditions {
        let mat = spec_stream(SpecProgram::Bzip2, 77);
        let materialized = System::new(mat.config.with_condition(cond))
            .run_stream(&mut mat.source.collect_ops().into_iter())
            .expect("materialized run")
            .into_stats();

        let sw = spec_stream(SpecProgram::Bzip2, 77);
        let mut source = sw.source;
        let streamed = System::new(sw.config.with_condition(cond))
            .run_stream(&mut source)
            .expect("streamed run")
            .into_stats();

        assert_eq!(streamed, materialized, "condition {}", cond.label());
    }
}

#[test]
fn streamed_pgbench_run_matches_materialized_run() {
    let params = PgbenchParams { transactions: 400, rate: Some(1200.0), seed: 9 };
    let mat = pgbench_stream(params);
    let materialized = System::new(mat.config.with_condition(Condition::reloaded()))
        .run_stream(&mut mat.source.collect_ops().into_iter())
        .expect("materialized run")
        .into_stats();

    let sw = pgbench_stream(params);
    let mut source = sw.source;
    let streamed = System::new(sw.config.with_condition(Condition::reloaded()))
        .run_stream(&mut source)
        .expect("streamed run")
        .into_stats();

    assert_eq!(streamed, materialized);
}
