//! Export a full telemetry report for one simulated run as JSON (or the
//! sampled counter series as CSV) — the data behind the paper's Figure
//! 4/6/9 analogues.
//!
//! ```text
//! cargo run --example export_report                  # JSON report to stdout
//! cargo run --example export_report -- csv           # counter series as CSV
//! cargo run --example export_report -- json omnetpp  # pick a SPEC surrogate
//! ```
//!
//! The document is deterministic: the same workload and seed always
//! produce byte-identical output.

use cornucopia_reloaded::prelude::*;
use cornucopia_reloaded::{morello_sim, workloads};
use workloads::{spec_stream, SPEC_PROGRAMS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let format = args.get(1).map_or("json", String::as_str);
    let name = args.get(2).map_or("gobmk", String::as_str);

    let Some(&program) = SPEC_PROGRAMS
        .iter()
        .find(|p| p.name().split_whitespace().next() == Some(name) || p.name() == name)
    else {
        eprintln!(
            "unknown workload {name:?}; options: {}",
            SPEC_PROGRAMS.map(|p| p.name().split(' ').next().unwrap()).join(" ")
        );
        std::process::exit(2);
    };

    let mut w = spec_stream(program, 1234);
    let cfg = w
        .config
        .to_builder()
        .condition(Condition::reloaded())
        // One counter sample every 20 ms of simulated time, plus the full
        // event journal and per-phase spans.
        .telemetry(morello_sim::TelemetryConfig::full(50_000_000))
        .build()
        .expect("telemetry config");

    let report: RunReport = System::new(cfg).run_stream(&mut w.source).expect("run must complete");
    match format {
        "csv" => print!("{}", report.series_csv()),
        "json" => println!("{}", report.to_json()),
        other => {
            eprintln!("unknown format {other:?}; use json or csv");
            std::process::exit(2);
        }
    }
    eprintln!(
        "# {}: {} events, {} spans, {} samples, {} revocations",
        w.name,
        report.telemetry().events.len(),
        report.telemetry().spans.len(),
        report.telemetry().samples.len(),
        report.revocations,
    );
}
