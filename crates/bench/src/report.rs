//! The report: one table of sections, one table of ablations, one
//! renderer.
//!
//! The paper's evaluation is one matrix read eleven ways. [`SECTIONS`]
//! names each reading once, in report order, with the suites it needs;
//! `repro <section>` runs exactly those suites and prints the section,
//! and [`render_report`] (`repro matrix`, `repro all`) renders every
//! section the selected suites can feed. A new figure is a new row.
//! [`ABLATIONS`] does the same for the design-choice studies, whose
//! cells ride the same job list.
//!
//! Nothing in here — or in [`figures`] and [`ablations`], whose text it
//! assembles — reads a clock (srclint enforces it): two renders of one
//! outcome are byte-equal, which is what lets CI `cmp` EXPERIMENTS.md.

use crate::ablations::{self, Ablation};
use crate::figures;
use crate::harness::Scale;
use crate::orchestrator::{self, MatrixOutcome, RunOptions};
use crate::plan::MatrixPlan;
use crate::plan::SuiteKind::{self, Grpc, Pgbench, PgbenchRates, Spec};

/// One figure, table or check of the report.
#[derive(Debug)]
pub struct Section {
    /// The `repro` subcommand word that prints this section alone.
    pub name: &'static str,
    /// The suites the section reads; it renders only when all were run.
    pub needs: &'static [SuiteKind],
    /// Renders the section from a run that covered `needs`.
    pub render: fn(&MatrixOutcome) -> String,
}

impl Section {
    /// Plans the suites this section needs at `scale` and runs them as
    /// one job list on one pool.
    #[must_use]
    pub fn run(&self, scale: Scale, opts: &RunOptions) -> MatrixOutcome {
        let jobs = MatrixPlan::new(scale)
            .suites(self.needs)
            .build()
            .expect("every section needs a suite, and no filter is set");
        orchestrator::run(&jobs, opts)
    }

    /// Whether a run of `suites` covers everything the section reads.
    #[must_use]
    pub fn is_fed_by(&self, suites: &[SuiteKind]) -> bool {
        self.needs.iter().all(|kind| suites.contains(kind))
    }
}

/// Every section, in report order. The shape checks come last: they
/// close the report, after the ablations.
pub static SECTIONS: [Section; 12] = [
    Section { name: "fig1", needs: &[Spec], render: |o| figures::fig1_spec_wall(o.suite(Spec)) },
    Section { name: "fig2", needs: &[Spec], render: |o| figures::fig2_cpu_time(o.suite(Spec)) },
    Section { name: "fig3", needs: &[Spec], render: |o| figures::fig3_peak_rss(o.suite(Spec)) },
    Section { name: "fig4", needs: &[Spec], render: |o| figures::fig4_bus_traffic(o.suite(Spec)) },
    Section {
        name: "fig5",
        needs: &[Pgbench],
        render: |o| figures::fig5_pgbench_time(o.suite(Pgbench)),
    },
    Section {
        name: "fig6",
        needs: &[Pgbench],
        render: |o| figures::fig6_pgbench_bus(o.suite(Pgbench)),
    },
    Section {
        name: "fig7",
        needs: &[Pgbench],
        render: |o| figures::fig7_pgbench_cdf(o.suite(Pgbench)),
    },
    Section { name: "fig8", needs: &[Grpc], render: |o| figures::fig8_grpc_latency(o.suite(Grpc)) },
    Section {
        name: "fig9",
        needs: &[Spec, Pgbench, Grpc],
        render: |o| figures::fig9_phase_times(o.suite(Spec), o.suite(Pgbench), o.suite(Grpc)),
    },
    Section {
        name: "table1",
        needs: &[PgbenchRates],
        render: |o| figures::table1_rates(o.suite(PgbenchRates)),
    },
    Section {
        name: "table2",
        needs: &[Spec, Pgbench, Grpc],
        render: |o| {
            figures::table2_revocation_rates(o.suite(Spec), o.suite(Pgbench), o.suite(Grpc))
        },
    },
    SHAPE,
];

/// The paper's qualitative claims, graded. Claims whose input cells
/// failed read "not evaluable" rather than dropping the section.
const SHAPE: Section = Section {
    name: "shape",
    needs: &[Spec, Pgbench, Grpc],
    render: |o| {
        figures::shape_report_checked(o.suite(Spec), o.suite(Pgbench), o.suite(Grpc), &o.failures)
    },
};

/// Every ablation study (`repro ablation <name>`), in report order.
pub static ABLATIONS: [Ablation; 8] = [
    ablations::BARRIERS,
    ablations::PTE_MODE,
    ablations::QUARANTINE_POLICY,
    ablations::CHERIOT,
    ablations::REVOKER_PRIORITY,
    ablations::REVOKER_THREADS,
    ablations::REVOKER_CORES,
    ablations::COLORING,
];

/// The shape claims the run's data contradicts. Empty when `suites`
/// cannot feed the shape section.
#[must_use]
pub fn violated_claims(suites: &[SuiteKind], outcome: &MatrixOutcome) -> Vec<String> {
    if !SHAPE.is_fed_by(suites) {
        return Vec::new();
    }
    let (spec, pg, grpc) = (outcome.suite(Spec), outcome.suite(Pgbench), outcome.suite(Grpc));
    figures::shape_checks_checked(spec, pg, grpc, &outcome.failures)
        .into_iter()
        .filter(|(_, status)| *status == figures::ClaimStatus::Violated)
        .map(|(claim, _)| claim)
        .collect()
}

/// Renders the whole report of `repro <word>` over a complete run of
/// `suites`: the provenance header, every section those suites feed, the
/// ablation studies when the run planned their cells
/// ([`ablations::jobs`]), then the shape checks and the failure records.
#[must_use]
pub fn render_report(
    title: &str,
    word: &str,
    scale: Scale,
    suites: &[SuiteKind],
    outcome: &MatrixOutcome,
    ablations: bool,
) -> String {
    let mut doc = format!(
        "# {title}\n\n\
         Regenerated by `cargo run --release -p rev-bench --bin repro -- {word}` \
         (scale {:.3}, {} repetition(s) per condition; simulated 2.5 GHz Morello-like \
         SoC at 1/64 memory scale — see DESIGN.md for the substitution ledger).\n\n\
         Absolute numbers are simulator cycles and are *not* expected to match Morello \
         silicon; the reproduced claims are the qualitative shapes, checked explicitly \
         in the final section.\n\n",
        scale.fraction, scale.reps
    );
    let mut push = |section: String| {
        doc.push_str(&section);
        doc.push('\n');
    };
    for section in SECTIONS.iter().filter(|s| s.name != SHAPE.name && s.is_fed_by(suites)) {
        push((section.render)(outcome));
    }
    if ablations {
        push("## Ablations (DESIGN.md §design choices)\n".to_string());
        for study in &ABLATIONS {
            push(study.render(outcome.ablations()));
        }
    }
    if SHAPE.is_fed_by(suites) {
        push((SHAPE.render)(outcome));
    }
    doc.push_str(&figures::failure_report(&outcome.failures));
    doc
}
