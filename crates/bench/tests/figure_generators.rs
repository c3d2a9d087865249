//! Unit tests of the figure generators over synthetic suites — the
//! harness's formatting and arithmetic, without running workloads.

use morello_sim::{Condition, RunStats};
use rev_bench::figures;
use rev_bench::harness::Suite;

fn stats(wall: u64, dram: u64, rss: u64, lat: &[u64]) -> RunStats {
    RunStats {
        wall_cycles: wall,
        app_cpu_cycles: wall / 2,
        revoker_cpu_cycles: wall / 10,
        app_dram: dram / 2,
        revoker_dram: dram - dram / 2,
        peak_rss: rss,
        tx_latencies: lat.to_vec(),
        ..RunStats::default()
    }
}

fn synthetic_spec() -> Suite {
    let mut suite = Suite::default();
    for (w, base_wall) in [("alpha one", 1_000_000u64), ("alpha two", 2_000_000), ("beta", 4_000_000)] {
        suite.insert(w, Condition::baseline(), stats(base_wall, 1000, 100, &[]));
        suite.insert(w, Condition::paint_sync(), stats(base_wall * 101 / 100, 1100, 110, &[]));
        suite.insert(w, Condition::cherivoke(), stats(base_wall * 13 / 10, 1500, 120, &[]));
        suite.insert(w, Condition::cornucopia(), stats(base_wall * 125 / 100, 1600, 130, &[]));
        suite.insert(w, Condition::reloaded(), stats(base_wall * 12 / 10, 1500, 130, &[]));
    }
    suite
}

#[test]
fn fig1_groups_families_and_reports_geomeans() {
    let out = figures::fig1_spec_wall(&synthetic_spec());
    assert!(out.contains("alpha (geomean of 2)"), "{out}");
    assert!(out.contains("| beta |"));
    assert!(out.contains("**geomean**"));
    // 30% CHERIvoke overhead everywhere -> the cell reads +30.0%.
    assert!(out.contains("+30.0%"), "{out}");
}

#[test]
fn fig2_excludes_quiet_benchmarks() {
    let mut suite = synthetic_spec();
    suite.insert("bzip2", Condition::baseline(), stats(1_000_000, 100, 10, &[]));
    suite.insert("bzip2", Condition::paint_sync(), stats(1_000_000, 100, 10, &[]));
    suite.insert("bzip2", Condition::cherivoke(), stats(1_000_000, 100, 10, &[]));
    suite.insert("bzip2", Condition::cornucopia(), stats(1_000_000, 100, 10, &[]));
    suite.insert("bzip2", Condition::reloaded(), stats(1_000_000, 100, 10, &[]));
    let out = figures::fig2_cpu_time(&suite);
    assert!(!out.contains("bzip2"), "bzip2 is excluded after Figure 1");
}

#[test]
fn fig3_sorts_by_descending_baseline_rss() {
    let out = figures::fig3_peak_rss(&synthetic_spec());
    // All synthetic baselines share RSS=100 bytes; the table exists and
    // reports ratios near 1.2-1.3.
    assert!(out.contains("1.200") || out.contains("1.300"), "{out}");
}

#[test]
fn fig4_reports_rel_to_corn_ratio() {
    let out = figures::fig4_bus_traffic(&synthetic_spec());
    // Overheads: Rel 500, Corn 600 -> 83%.
    assert!(out.contains("83%"), "{out}");
    // A suite `--only` filtered away entirely (the replay of one ablation
    // cell selects `--suites spec` and keeps none of it) has no median.
    let empty = figures::fig4_bus_traffic(&Suite::default());
    assert!(empty.contains("**NaN%**"), "{empty}");
}

#[test]
fn fig7_orders_cdf_columns() {
    let mut pg = Suite::default();
    let base: Vec<u64> = (0..1000).map(|i| 1_000_000 + i).collect();
    let mut slow = base.clone();
    for l in slow.iter_mut().rev().take(20) {
        *l += 50_000_000; // a fat tail
    }
    for c in [Condition::baseline(), Condition::paint_sync(), Condition::cherivoke(), Condition::cornucopia(), Condition::reloaded()] {
        let lat = if c == Condition::baseline() { &base } else { &slow };
        pg.insert("pgbench", c, stats(1_000_000_000, 1000, 100, lat));
    }
    let out = figures::fig7_pgbench_cdf(&pg);
    assert!(out.contains("p99.9"));
    assert!(out.contains("20.4") || out.contains("20.40"), "tail must show ~20ms rows: {out}");
}

#[test]
fn shape_report_renders_all_claims() {
    let spec = synthetic_spec();
    let mut pg = Suite::default();
    let mut grpc = Suite::default();
    let lat: Vec<u64> = (0..100).map(|i| 100_000 + i * 10).collect();
    for c in [Condition::baseline(), Condition::paint_sync(), Condition::cherivoke(), Condition::cornucopia(), Condition::reloaded()] {
        pg.insert("pgbench", c, stats(1_000_000, 1000, 100, &lat));
    }
    for c in [Condition::baseline(), Condition::paint_sync(), Condition::cornucopia(), Condition::reloaded()] {
        grpc.insert("gRPC QPS", c, stats(1_000_000, 1000, 100, &lat));
    }
    let report = figures::shape_report_checked(&spec, &pg, &grpc, &[]);
    assert!(report.lines().filter(|l| l.starts_with('|')).count() >= 9);
}

#[test]
fn shape_checks_mark_claims_with_failed_inputs_as_not_evaluable() {
    use figures::ClaimStatus;
    use rev_bench::orchestrator::JobFailure;

    let spec = synthetic_spec();
    let mut pg = Suite::default();
    let mut grpc = Suite::default();
    let lat: Vec<u64> = (0..100).map(|i| 100_000 + i * 10).collect();
    for c in [Condition::baseline(), Condition::paint_sync(), Condition::cherivoke(), Condition::cornucopia(), Condition::reloaded()] {
        pg.insert("pgbench", c, stats(1_000_000, 1000, 100, &lat));
    }
    for c in [Condition::baseline(), Condition::paint_sync(), Condition::cornucopia(), Condition::reloaded()] {
        grpc.insert("gRPC QPS", c, stats(1_000_000, 1000, 100, &lat));
    }
    let failure = |key: &str| JobFailure {
        job_id: 0,
        key: key.to_string(),
        attempts: 2,
        message: "injected".to_string(),
    };

    // No failures: every claim is decided.
    let clean = figures::shape_checks_checked(&spec, &pg, &grpc, &[]);
    assert!(clean.iter().all(|(_, s)| *s != ClaimStatus::NotEvaluable));

    // Losing a pgbench Reloaded cell poisons exactly the claims that read
    // it; SPEC- and gRPC-only claims still evaluate.
    let failures = [failure("pgbench|pgbench|Reloaded|s2000")];
    let checked = figures::shape_checks_checked(&spec, &pg, &grpc, &failures);
    for (claim, status) in &checked {
        let expect_lost = claim.starts_with("pgbench") && claim.contains("Reloaded");
        assert_eq!(
            *status == ClaimStatus::NotEvaluable,
            expect_lost,
            "claim {claim:?} got {status:?}"
        );
    }
    let report = figures::shape_report_checked(&spec, &pg, &grpc, &failures);
    assert!(report.contains("not evaluable (input cell failed)"), "{report}");

    // A lost engaging SPEC cell poisons the SPEC aggregate claims but
    // leaves the interactive ones alone.
    let failures = [failure("spec|alpha one|Cornucopia|s1000")];
    let checked = figures::shape_checks_checked(&spec, &pg, &grpc, &failures);
    for (claim, status) in &checked {
        let expect_lost = claim.starts_with("SPEC");
        assert_eq!(
            *status == ClaimStatus::NotEvaluable,
            expect_lost,
            "claim {claim:?} got {status:?}"
        );
    }
}
