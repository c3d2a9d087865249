//! One section table, two ways to read it: `repro <section>` and the
//! whole report must print the same bytes for the same section, and the
//! report must not depend on when it was rendered.

use rev_bench::harness::Scale;
use rev_bench::orchestrator::{self, RunOptions};
use rev_bench::plan::{MatrixPlan, SuiteKind};
use rev_bench::report::{render_report, SECTIONS};

#[test]
fn single_sections_equal_their_cut_of_the_matrix_report() {
    let suites = [SuiteKind::Pgbench, SuiteKind::PgbenchRates, SuiteKind::Grpc];
    let scale = Scale::smoke();
    let opts = RunOptions::new().workers(2);
    let jobs = MatrixPlan::new(scale).suites(&suites).build().unwrap();
    let outcome = orchestrator::run(&jobs, &opts);
    assert!(outcome.failures.is_empty());

    let report = render_report("Evaluation matrix", "matrix", scale, &suites, &outcome, false);
    assert_eq!(
        report,
        render_report("Evaluation matrix", "matrix", scale, &suites, &outcome, false),
        "two renders of one outcome differ"
    );

    // The sections those three suites feed, each run on its own as
    // `repro <section>` runs it.
    let mut rendered = Vec::new();
    for section in SECTIONS.iter().filter(|s| s.is_fed_by(&suites)) {
        let alone = (section.render)(&section.run(scale, &opts));
        assert!(
            report.contains(&format!("\n{alone}\n")),
            "repro {} differs from its section of the report",
            section.name
        );
        rendered.push(section.name);
    }
    assert_eq!(rendered, ["fig5", "fig6", "fig7", "fig8", "table1"]);
    // Nothing that also needs the SPEC suite renders without it.
    assert_eq!(report.matches("\n### ").count(), rendered.len() + 1, "{report}");
    assert!(report.ends_with("### Job failures\n\nAll matrix cells completed.\n"));
}
