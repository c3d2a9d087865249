//! Integration tests asserting the paper's qualitative result shapes at
//! smoke scale — a fast cross-check of what `repro all` verifies at
//! full scale.

use morello_sim::{Condition, RunStats, System};
use workloads::{grpc_stream, pgbench_stream, spec_stream, GrpcParams, PgbenchParams, SpecProgram};

fn run_spec(program: SpecProgram, cond: Condition) -> RunStats {
    let mut w = spec_stream(program, 9);
    System::new(w.config.with_condition(cond)).run_stream(&mut w.source).unwrap().into_stats()
}

/// Reloaded must not pause longer than a fraction of CHERIvoke on a
/// memory-heavy benchmark (paper: 3+ orders of magnitude at full scale).
#[test]
fn pause_hierarchy_on_memory_heavy_spec() {
    let cv = run_spec(SpecProgram::Xalancbmk, Condition::cherivoke());
    let corn = run_spec(SpecProgram::Xalancbmk, Condition::cornucopia());
    let rel = run_spec(SpecProgram::Xalancbmk, Condition::reloaded());
    let max = |s: &RunStats| s.pauses.iter().copied().max().unwrap_or(0);
    assert!(max(&rel) * 20 < max(&cv), "Reloaded {} vs CHERIvoke {}", max(&rel), max(&cv));
    assert!(max(&rel) * 5 < max(&corn), "Reloaded {} vs Cornucopia {}", max(&rel), max(&corn));
    assert!(max(&corn) < max(&cv), "Cornucopia {} vs CHERIvoke {}", max(&corn), max(&cv));
}

/// Reloaded's DRAM overhead stays below Cornucopia's (Figure 4's claim).
#[test]
fn reloaded_uses_less_dram_than_cornucopia() {
    for program in [SpecProgram::Xalancbmk, SpecProgram::Omnetpp] {
        let base = run_spec(program, Condition::baseline());
        let corn = run_spec(program, Condition::cornucopia());
        let rel = run_spec(program, Condition::reloaded());
        let corn_over = corn.total_dram() - base.total_dram();
        let rel_over = rel.total_dram() - base.total_dram();
        assert!(
            rel_over < corn_over,
            "{program:?}: Reloaded overhead {rel_over} not below Cornucopia {corn_over}"
        );
    }
}

/// Benchmarks the paper says never engage revocation must not revoke.
#[test]
fn quiet_benchmarks_never_revoke() {
    for program in [SpecProgram::Bzip2, SpecProgram::Sjeng] {
        let s = run_spec(program, Condition::reloaded());
        assert_eq!(s.revocations, 0, "{program:?} must stay below the quarantine floor");
        assert_eq!(s.pauses.iter().copied().max().unwrap_or(0), 0);
    }
}

/// pgbench tail ordering (Figure 7): Reloaded <= Cornucopia <= CHERIvoke
/// at the 99th percentile, while medians stay within a whisker.
#[test]
fn pgbench_tail_ordering() {
    let mut p99s = Vec::new();
    let mut p50s = Vec::new();
    for cond in [Condition::cherivoke(), Condition::cornucopia(), Condition::reloaded()] {
        let mut w = pgbench_stream(PgbenchParams { transactions: 2500, ..Default::default() });
        let s = System::new(w.config.with_condition(cond)).run_stream(&mut w.source).unwrap();
        let l = s.latency_summary();
        p99s.push(l.p99);
        p50s.push(l.p50);
    }
    assert!(p99s[2] <= p99s[1], "Reloaded p99 {} > Cornucopia {}", p99s[2], p99s[1]);
    assert!(p99s[1] <= p99s[0], "Cornucopia p99 {} > CHERIvoke {}", p99s[1], p99s[0]);
    // Medians: concurrent strategies within 3.5x of CHERIvoke's (the STW
    // strategy has the lowest median precisely because all of its cost is
    // concentrated in the tail).
    assert!(p50s[2] < p50s[0] * 7 / 2);
}

/// gRPC (Figure 8): Reloaded's p99 below Cornucopia's; capacity hit
/// within a few points of each other.
#[test]
fn grpc_tail_and_capacity() {
    let mut results = Vec::new();
    for cond in [Condition::baseline(), Condition::cornucopia(), Condition::reloaded()] {
        let mut w = grpc_stream(GrpcParams { messages: 8000, seed: 5 });
        let cfg = w.config.with_condition(cond);
        let s = System::new(cfg).run_stream(&mut w.source).unwrap();
        results.push((s.latency_summary(), s.app_cpu_cycles));
    }
    let (base, corn, rel) = (&results[0], &results[1], &results[2]);
    assert!(rel.0.p99 < corn.0.p99, "Reloaded p99 {} vs Cornucopia {}", rel.0.p99, corn.0.p99);
    let corn_cap = 1.0 - base.1 as f64 / corn.1 as f64;
    let rel_cap = 1.0 - base.1 as f64 / rel.1 as f64;
    assert!((corn_cap - rel_cap).abs() < 0.05, "capacity hit {corn_cap:.3} vs {rel_cap:.3}");
}

/// Reloaded is the only strategy taking load-barrier faults, and its STW
/// for the 2-thread gRPC setup sits near the paper's 323 us median.
#[test]
fn grpc_reloaded_stw_in_paper_band() {
    let mut w = grpc_stream(GrpcParams { messages: 4000, seed: 6 });
    let cfg = w.config.with_condition(Condition::reloaded());
    let s = System::new(cfg).run_stream(&mut w.source).unwrap();
    assert!(s.faults > 0);
    let stw: Vec<u64> = s
        .phases
        .iter()
        .filter(|p| p.kind == cornucopia::PhaseKind::ReloadedStw)
        .map(|p| p.cycles)
        .collect();
    assert!(!stw.is_empty());
    let mut sorted = stw;
    sorted.sort_unstable();
    let median_us = sorted[sorted.len() / 2] as f64 / 2500.0;
    assert!(
        (150.0..=650.0).contains(&median_us),
        "gRPC Reloaded STW median {median_us:.0} us outside the paper band (323 us)"
    );
}

/// Determinism across the whole pipeline: identical seeds, identical
/// statistics — the property that replaces the paper's 12-run sampling.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let mut w = spec_stream(SpecProgram::HmmerRetro, 4);
        System::new(w.config.with_condition(Condition::reloaded())).run_stream(&mut w.source).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.wall_cycles, b.wall_cycles);
    assert_eq!(a.total_dram(), b.total_dram());
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.pauses, b.pauses);
}
