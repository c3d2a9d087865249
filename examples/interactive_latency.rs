//! Interactive-workload latency under each revocation strategy.
//!
//! Runs a scaled pgbench surrogate (paper §5.2) under the baseline and all
//! four temporal-safety conditions and prints a per-transaction latency
//! percentile table — a miniature of the paper's Figure 7, where the
//! strategies are indistinguishable at the median but separate sharply in
//! the tail: CHERIvoke's big stop-the-world pause lands on unlucky
//! transactions, Cornucopia's smaller one lands on fewer, and Reloaded
//! spreads its cost across many tiny load-barrier faults.
//!
//! Run with: `cargo run --release --example interactive_latency`

use cornucopia_reloaded::prelude::*;
use morello_sim::CYCLES_PER_MS;
use workloads::{pgbench_stream, PgbenchParams};

fn main() {
    let conditions = [
        Condition::baseline(),
        Condition::paint_sync(),
        Condition::cherivoke(),
        Condition::cornucopia(),
        Condition::reloaded(),
    ];

    println!("pgbench surrogate, 4000 transactions (latencies in ms, 1/64 memory scale)\n");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8}   {:>10} {:>8}",
        "condition", "p50", "p90", "p95", "p99", "p99.9", "max pause", "faults"
    );

    let mut tails = Vec::new();
    for cond in conditions {
        let mut w = pgbench_stream(PgbenchParams { transactions: 4000, ..Default::default() });
        let stats = System::new(w.config.with_condition(cond)).run_stream(&mut w.source).unwrap();
        let l = stats.latency_summary();
        let ms = |c: u64| c as f64 / CYCLES_PER_MS as f64;
        println!(
            "{:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}   {:>8.3}ms {:>8}",
            cond.label(),
            ms(l.p50),
            ms(l.p90),
            ms(l.p95),
            ms(l.p99),
            ms(l.p999),
            ms(stats.pauses.iter().copied().max().unwrap_or(0)),
            stats.faults,
        );
        tails.push((cond.label(), l.p99));
    }

    // The paper's headline: Reloaded's 99th percentile beats Cornucopia's,
    // which beats CHERIvoke's.
    let p99 = |name: &str| tails.iter().find(|(n, _)| *n == name).unwrap().1;
    assert!(p99("Reloaded") <= p99("Cornucopia"), "Reloaded tail must not exceed Cornucopia's");
    assert!(p99("Cornucopia") <= p99("CHERIvoke"), "Cornucopia tail must not exceed CHERIvoke's");
    println!("\ntail ordering Reloaded <= Cornucopia <= CHERIvoke holds — interactive_latency OK");
}
