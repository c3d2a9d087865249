//! Cross-check oracle: the static temporal-safety analyzer
//! (`crates/analyze`) against the simulator's dynamic telemetry journal,
//! cell by cell over the smoke matrix.
//!
//! The contract, per cell:
//!
//! - the statically predicted stale chases — `(from, slot, to)` triples
//!   in op order — are **exactly** the `StaleChase` events the
//!   instrumented simulator journals (same chases, same order, same
//!   coordinates);
//! - under a revoking strategy no journaled chase has the `Escaped`
//!   outcome (the revoker catches what the analyzer predicts), while
//!   non-revoking conditions (baseline, Paint+sync) journal the *same
//!   chases* but let them escape;
//! - the analyzer's peak live+quarantined byte curve lower-bounds the
//!   simulated peak RSS;
//! - every generated program is well-formed (zero malformed-program
//!   diagnostics) — the property `repro matrix --preflight` relies on.

use analyze::Report;
use morello_sim::{Condition, RunReport, StaleChaseOutcome, TelemetryEvent};
use rev_bench::harness::Scale;
use rev_bench::orchestrator::parallel_cells;
use rev_bench::plan::{distinct_programs, JobSpec, MatrixPlan, SuiteKind};
use std::collections::BTreeMap;

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The journaled stale chases of one traced run, in simulation order.
fn journal_chases(run: &RunReport) -> Vec<(u64, u64, u64, StaleChaseOutcome)> {
    run.telemetry()
        .events
        .iter()
        .filter_map(|e| match e.event {
            TelemetryEvent::StaleChase { from, slot, to, outcome } => {
                Some((from, slot, to, outcome))
            }
            _ => None,
        })
        .collect()
}

/// One static analysis per distinct program among `cells` (a cell's
/// program is condition-independent), in parallel, by program key.
fn analyses(cells: &[&JobSpec]) -> BTreeMap<String, Report> {
    let unique = distinct_programs(cells.iter().copied());
    let reports = parallel_cells(unique.len(), workers(), |i| unique[i].analyze(false));
    unique.into_iter().map(JobSpec::program_key).zip(reports).collect()
}

/// Asserts the full oracle contract for one traced cell against its
/// static analysis; returns the journaled chases for outcome checks.
fn check_cell(
    job: &JobSpec,
    analysis: &Report,
    run: &RunReport,
) -> Vec<(u64, u64, u64, StaleChaseOutcome)> {
    let key = job.key();
    assert!(!analysis.malformed, "{key}: generator produced a malformed program");
    assert_eq!(run.telemetry().dropped_events, 0, "{key}: telemetry journal truncated");

    let dynamic = journal_chases(run);
    let static_triples: Vec<(u64, u64, u64)> =
        analysis.stale_chases.iter().map(|c| (c.from, c.slot, c.to)).collect();
    let dynamic_triples: Vec<(u64, u64, u64)> =
        dynamic.iter().map(|&(f, s, t, _)| (f, s, t)).collect();
    assert_eq!(
        static_triples.len(),
        dynamic_triples.len(),
        "{key}: static predicted {} stale chase(s), simulator journaled {}",
        static_triples.len(),
        dynamic_triples.len()
    );
    assert_eq!(static_triples, dynamic_triples, "{key}: stale-chase coordinates disagree");

    let stats = run.stats();
    assert!(
        analysis.rss.peak_live_touched <= stats.peak_rss,
        "{key}: static peak live bytes {} exceed simulated peak RSS {}",
        analysis.rss.peak_live_touched,
        stats.peak_rss
    );
    dynamic
}

#[test]
fn safe_strategies_catch_exactly_the_statically_predicted_chases() {
    let jobs = MatrixPlan::all(Scale::smoke()).build().expect("smoke matrix expands");
    let cells: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| matches!(j.condition(), Condition::Safe(s) if s.provides_safety()))
        .collect();
    assert!(cells.len() >= 30, "expected a wide safe smoke matrix, got {} cells", cells.len());

    let static_reports = analyses(&cells);
    let traced: Vec<RunReport> =
        parallel_cells(cells.len(), workers(), |i| cells[i].execute_traced());

    let mut cells_with_chases = 0usize;
    for (job, run) in cells.iter().zip(&traced) {
        let analysis = &static_reports[&job.program_key()];
        let dynamic = check_cell(job, analysis, run);
        // The revoker contract: under a safety-providing strategy every
        // stale chase is caught (revoked or quarantined), never escaped.
        for &(f, s, t, outcome) in &dynamic {
            assert_ne!(
                outcome,
                StaleChaseOutcome::Escaped,
                "{}: stale chase {f}.{s} -> {t} escaped under a revoking strategy",
                job.key()
            );
        }
        // The quarantine-inclusive bound is sound when frees actually
        // quarantine (i.e. under safe strategies).
        assert!(
            analysis.rss.peak_live_plus_quarantine <= run.stats().peak_rss,
            "{}: static live+quarantine peak {} exceeds simulated peak RSS {}",
            job.key(),
            analysis.rss.peak_live_plus_quarantine,
            run.stats().peak_rss
        );
        cells_with_chases += usize::from(!dynamic.is_empty());
    }
    assert!(
        cells_with_chases >= 10,
        "oracle near-vacuous: only {cells_with_chases} safe cell(s) had any stale chase"
    );
}

#[test]
fn non_revoking_conditions_see_the_same_chases_but_let_them_escape() {
    // astar lakes carries thousands of natural stale chases at smoke
    // scale, so the escape path is exercised densely.
    let jobs = MatrixPlan::new(Scale::smoke())
        .suite(SuiteKind::Spec)
        .build()
        .expect("spec smoke expands");
    let cells: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| j.workload() == "astar lakes")
        .filter(|j| match j.condition() {
            Condition::Baseline => true,
            Condition::Safe(s) => !s.provides_safety(),
        })
        .collect();
    assert_eq!(cells.len(), 2, "expected the baseline and Paint+sync cells");

    let static_reports = analyses(&cells);
    for job in &cells {
        let run = job.execute_traced();
        let analysis = &static_reports[&job.program_key()];
        // Detection is condition-independent: the unsafe conditions
        // journal the identical chase set...
        let dynamic = check_cell(job, analysis, &run);
        assert!(!dynamic.is_empty(), "{}: fixture workload lost its stale chases", job.key());
        // ...but with nothing revoking, chases escape.
        assert!(
            dynamic.iter().any(|&(_, _, _, o)| o == StaleChaseOutcome::Escaped),
            "{}: no stale chase escaped under a non-revoking condition",
            job.key()
        );
    }
}
