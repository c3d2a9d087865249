//! Law L1, revoker CPU is conserved: a run's `revoker_cpu_cycles` equals
//! the sum of the cycles of its non-fault revocation phases. The phases
//! are recorded inside the revoker, the total is booked by `System`, so
//! a cycle that one side drops and the other keeps breaks the law. Fault
//! phases are excluded because load-fault handling runs on the
//! application's threads and is charged to them, not to revoker CPU.
//!
//! Scope: the three sweeping strategies and the CHERIoT filter (its
//! entry scan and background sweep). Paint+sync sweeps nothing and
//! records no phases, so its revoker CPU has nothing to be the sum of.
//! The last test pins that it still records none, so a phase added for it
//! brings it into scope here.

use cornucopia::{PhaseKind, PteUpdateMode, Strategy};
use morello_sim::{Condition, Op, OpSource, RunStats, SimConfig, System};
use workloads::{pgbench_stream, spec_stream, PgbenchParams, SpecProgram};

const FILTER: Condition = Condition::Safe(Strategy::CheriotFilter);

/// The workload of `tests/golden_stats.rs`.
fn golden_workload() -> (Vec<Op>, SimConfig) {
    let w = spec_stream(SpecProgram::GobmkTrevord, 1234);
    (w.source.collect_ops(), w.config)
}

fn run(ops: Vec<Op>, cfg: SimConfig) -> RunStats {
    System::new(cfg).run_stream(&mut ops.into_iter()).expect("workload completes").into_stats()
}

/// Σ of the non-fault phase cycles.
fn phase_cycles(s: &RunStats) -> u64 {
    s.phases.iter().filter(|p| p.kind != PhaseKind::ReloadedFaults).map(|p| p.cycles).sum()
}

fn assert_l1(label: &str, s: &RunStats) {
    assert!(s.revocations > 0, "{label}: no epoch ran, so L1 tests nothing");
    assert_eq!(s.revoker_cpu_cycles, phase_cycles(s), "{label}: revoker CPU is not the sum of its phases");
}

#[test]
fn revoker_cpu_is_the_sum_of_the_non_fault_phases() {
    let (ops, config) = golden_workload();
    let conditions = [
        (Condition::cherivoke(), PteUpdateMode::Generation),
        (Condition::cornucopia(), PteUpdateMode::Generation),
        (Condition::reloaded(), PteUpdateMode::Generation),
        (Condition::reloaded(), PteUpdateMode::RewriteEachEpoch),
        (FILTER, PteUpdateMode::Generation),
    ];
    for (condition, pte_mode) in conditions {
        for cores in [1, 4] {
            let cfg = config
                .to_builder()
                .condition(condition)
                .pte_mode(pte_mode)
                .revoker_threads(cores)
                .build()
                .expect("golden config");
            let label = format!("{} {pte_mode:?} x {cores} cores", condition.label());
            assert_l1(&label, &run(ops.clone(), cfg));
        }
    }
}

/// Without a spare core the revoker time-slices with the application, so
/// every slice, the one that drains Cornucopia's concurrent phase
/// included, reaches the revoker through the contended pump path.
#[test]
fn revoker_cpu_is_conserved_without_a_spare_core() {
    let w = pgbench_stream(PgbenchParams { transactions: 400, rate: None, seed: 7 });
    let ops = w.source.collect_ops();
    for condition in [Condition::cherivoke(), Condition::cornucopia(), Condition::reloaded(), FILTER] {
        let cfg = w.config.to_builder().condition(condition).spare_revoker_core(false).build().unwrap();
        assert_l1(&format!("pgbench {} without a spare core", condition.label()), &run(ops.clone(), cfg));
    }
}

/// The programs of the `churn-sweep` benchmark: omnetpp and xalancbmk
/// at the benchmark's share of their churn, astar and hmmer at a fifth
/// of theirs. Each runs 9 to 63 epochs under every sweeping strategy and
/// the filter.
#[test]
fn revoker_cpu_is_conserved_over_the_churn_programs() {
    let programs = [
        (SpecProgram::Omnetpp, 0.1),
        (SpecProgram::Xalancbmk, 0.12),
        (SpecProgram::AstarLakes, 0.2),
        (SpecProgram::HmmerNph3, 0.2),
    ];
    for (program, fraction) in programs {
        let w = spec_stream(program, 42);
        let mut profile = program.profile();
        profile.total_churn = (profile.total_churn as f64 * fraction) as u64;
        let ops = profile.source(42).collect_ops();
        for condition in [Condition::cherivoke(), Condition::cornucopia(), Condition::reloaded(), FILTER] {
            let label = format!("{} {}", program.name(), condition.label());
            assert_l1(&label, &run(ops.clone(), w.config.clone().with_condition(condition)));
        }
    }
}

#[test]
fn strategies_outside_l1_record_no_phases() {
    let (ops, config) = golden_workload();
    let cfg = config.to_builder().condition(Condition::paint_sync()).build().unwrap();
    let s = run(ops, cfg);
    assert!(s.revocations > 0, "Paint+sync: no epoch ran");
    assert!(s.phases.is_empty(), "Paint+sync records phases now: bring it under L1");
}
