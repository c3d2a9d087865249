//! A dumped trace replays the workload it was dumped from: the ops and
//! the tuned `SimConfig` travel together through the file, so loading
//! and running it gives the `RunStats` of running the stream itself.

use cornucopia_reloaded::morello_sim::trace::{self, TraceMeta};
use cornucopia_reloaded::morello_sim::{Condition, OpSource, System};
use cornucopia_reloaded::workloads::{pgbench_stream, PgbenchParams};

#[test]
fn a_dumped_pgbench_trace_replays_the_tuned_run() {
    let params = PgbenchParams { transactions: 300, rate: Some(900.0), seed: 3 };
    let mut w = pgbench_stream(params);
    let tuned = System::new(w.config.clone().with_condition(Condition::reloaded()))
        .run_stream(&mut w.source)
        .expect("tuned run")
        .into_stats();

    let w = pgbench_stream(params);
    let mut meta = TraceMeta::new();
    trace::insert_config(&mut meta, &w.config);
    let mut file = Vec::new();
    trace::write_trace(&w.source.collect_ops(), &meta, &mut file).expect("dump");

    let (ops, meta) = trace::read_trace(file.as_slice()).expect("load");
    let cfg = trace::config_from_meta(&meta).expect("dumped config");
    let replayed = System::new(cfg.with_condition(Condition::reloaded()))
        .run_stream(&mut ops.into_iter())
        .expect("replayed run")
        .into_stats();
    assert_eq!(replayed, tuned);
}
