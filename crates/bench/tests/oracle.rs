//! Cross-check oracle: the static temporal-safety analyzer
//! (`crates/analyze`) against the simulator's dynamic telemetry journal,
//! cell by cell, in lockstep ([`JobSpec::lockstep`]: one analyzer and one
//! traced `System` fed the same batches, both drained after each).
//!
//! The contract, per cell:
//!
//! - the statically predicted stale chases — `(from, slot, to)` triples
//!   in op order — are **exactly** the `StaleChase` events the
//!   instrumented simulator journals (same chases, same order, same
//!   coordinates), batch by batch, with no journal event evicted and the
//!   report's chase total and digest equal to what was drained;
//! - under a revoking strategy no journaled chase has the `Escaped`
//!   outcome (the revoker catches what the analyzer predicts), while
//!   non-revoking conditions (baseline, Paint+sync) journal the *same
//!   chases* but let them escape;
//! - the analyzer's peak live+quarantined byte curve lower-bounds the
//!   simulated peak RSS;
//! - every generated program is well-formed (zero malformed-program
//!   diagnostics) — the property `repro matrix --preflight` relies on.
//!
//! The smoke matrix runs in tier-1; the full-scale pgbench and omnetpp
//! cells, whose journals overflow the telemetry ring unless drained, run
//! in `tools/ci.sh` (`--ignored`).

use analyze::{chase_digest, Analyzer, AnalyzerConfig, DiagnosticKind, STALE_PREFIX_CAP};
use morello_sim::{for_each_batch, Condition, Json};
use rev_bench::harness::Scale;
use rev_bench::oracle::Lockstep;
use rev_bench::orchestrator::parallel_cells;
use rev_bench::plan::{JobSpec, MatrixPlan, SuiteKind};
use std::convert::Infallible;
use workloads::{spec_stream, SpecProgram};

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `job` in lockstep and asserts the per-cell contract every
/// condition shares.
fn check_cell(job: &JobSpec) -> Lockstep {
    let key = job.key();
    let checked = job.lockstep().unwrap_or_else(|e| panic!("{key}: {e}"));
    let (analysis, stats) = (&checked.analysis, checked.run.stats());
    assert!(!analysis.malformed, "{key}: generator produced a malformed program");
    assert!(
        analysis.rss.peak_live_touched <= stats.peak_rss,
        "{key}: static peak live bytes {} exceed simulated peak RSS {}",
        analysis.rss.peak_live_touched,
        stats.peak_rss
    );
    checked
}

/// Checks `cells` (all under a safety-providing strategy) in parallel;
/// returns how many had a stale chase.
fn safe_cells_catch_every_chase(cells: &[&JobSpec]) -> usize {
    let checked = parallel_cells(cells.len(), workers(), |i| check_cell(cells[i]));
    for (job, c) in cells.iter().zip(&checked) {
        // The revoker contract: under a safety-providing strategy every
        // stale chase is caught (revoked or quarantined), never escaped.
        assert_eq!(c.escaped, 0, "{}: stale chase(s) escaped under a revoking strategy", job.key());
        // The quarantine-inclusive bound is sound when frees actually
        // quarantine (i.e. under safe strategies).
        assert!(
            c.analysis.rss.peak_live_plus_quarantine <= c.run.stats().peak_rss,
            "{}: static live+quarantine peak {} exceeds simulated peak RSS {}",
            job.key(),
            c.analysis.rss.peak_live_plus_quarantine,
            c.run.stats().peak_rss
        );
    }
    checked.iter().filter(|c| c.chases > 0).count()
}

#[test]
fn safe_strategies_catch_exactly_the_statically_predicted_chases() {
    let jobs = MatrixPlan::all(Scale::smoke()).build().expect("smoke matrix expands");
    let cells: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| matches!(j.condition(), Condition::Safe(s) if s.provides_safety()))
        .collect();
    assert!(cells.len() >= 30, "expected a wide safe smoke matrix, got {} cells", cells.len());
    let with_chases = safe_cells_catch_every_chase(&cells);
    assert!(
        with_chases >= 10,
        "oracle near-vacuous: only {with_chases} safe cell(s) had any stale chase"
    );
}

/// The full-scale pgbench and omnetpp cells under Cornucopia and
/// Reloaded, first seed each. pgbench's journal holds about 2.5 M events,
/// more than twice the telemetry ring; drained per batch, it is checked
/// whole. `tools/ci.sh` runs this.
#[test]
#[ignore = "full scale: tools/ci.sh runs it"]
fn full_scale_cells_are_checked_whole() {
    let jobs = MatrixPlan::new(Scale::default())
        .suites(&[SuiteKind::Spec, SuiteKind::Pgbench])
        .conditions(&[Condition::cornucopia(), Condition::reloaded()])
        .build()
        .expect("full matrix expands");
    let first_seed =
        |j: &JobSpec| jobs.iter().find(|o| o.workload() == j.workload()).map(JobSpec::seed);
    let cells: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| j.suite() == SuiteKind::Pgbench || j.workload() == "omnetpp")
        .filter(|j| first_seed(j) == Some(j.seed()))
        .collect();
    let keys: Vec<String> = cells.iter().map(|j| j.key()).collect();
    assert_eq!(cells.len(), 4, "{keys:?}");
    assert!(keys.contains(&"pgbench|pgbench|Cornucopia|s2000".to_string()), "{keys:?}");
    let with_chases = safe_cells_catch_every_chase(&cells);
    assert!(with_chases > 0, "no full-scale cell had a stale chase: {keys:?}");
}

#[test]
fn non_revoking_conditions_see_the_same_chases_but_let_them_escape() {
    // astar lakes carries thousands of natural stale chases at smoke
    // scale, so the escape path is exercised densely.
    let jobs =
        MatrixPlan::new(Scale::smoke()).suite(SuiteKind::Spec).build().expect("spec smoke expands");
    let cells: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| j.workload() == "astar lakes")
        .filter(|j| match j.condition() {
            Condition::Baseline => true,
            Condition::Safe(s) => !s.provides_safety(),
        })
        .collect();
    assert_eq!(cells.len(), 2, "expected the baseline and Paint+sync cells");

    for job in &cells {
        // Detection is condition-independent: the unsafe conditions
        // journal the identical chase set...
        let checked = check_cell(job);
        assert!(checked.chases > 0, "{}: fixture workload lost its stale chases", job.key());
        // ...but with nothing revoking, chases escape.
        assert!(
            checked.escaped > 0,
            "{}: no stale chase escaped under a non-revoking condition",
            job.key()
        );
    }
}

/// astar lakes predicts more chases than the report keeps: what
/// `repro opcheck` reports for it (the JSON total, the listed prefix) is
/// exact, and the digest covers every chase the drains hand out.
#[test]
fn a_program_past_the_prefix_reports_exact_totals() {
    let jobs = MatrixPlan::new(Scale::smoke()).suite(SuiteKind::Spec).build().expect("expands");
    let job = jobs.iter().find(|j| j.workload() == "astar lakes").expect("astar lakes cell");
    let report = job.analyze(false);

    let w = spec_stream(SpecProgram::AstarLakes, job.seed());
    let mut analyzer = Analyzer::new(AnalyzerConfig::from_sim(&w.config));
    let mut drained = Vec::new();
    let Ok(()) = for_each_batch(&mut { w.source }, |batch| {
        batch.iter().for_each(|&op| analyzer.push(op));
        analyzer.drain_chases(&mut drained);
        Ok::<(), Infallible>(())
    });
    assert_eq!(analyzer.finish(), report, "draining changes nothing the report holds");

    let total = report.count(DiagnosticKind::StaleChase);
    assert!(total > STALE_PREFIX_CAP as u64, "astar lakes has only {total} chases");
    assert_eq!(drained.len() as u64, total);
    let json = Json::parse(&report.to_json().render()).expect("report JSON parses");
    assert_eq!(json.get("stale_chases_total").and_then(Json::as_num), Some(i128::from(total)));
    let listed = json.get("stale_chases").and_then(Json::as_arr).expect("listed chases");
    assert_eq!(listed.len(), STALE_PREFIX_CAP);
    assert_eq!(report.stale_chase_prefix, drained[..STALE_PREFIX_CAP]);
    assert_eq!(report.stale_chase_digest, chase_digest(&drained));
}
