//! Golden tables for the merged suites: `(cell key, rep, FNV-1a of the
//! rendered RunStats JSON)` for every cell, in job order, read out of
//! [`orchestrator::run`]'s merged [`Suite`]. `rep` is the cell's index in
//! its `(workload, condition)` repetition list, so the tables pin the
//! merge order as well as every counter. A change that moves a simulated
//! number, or the order a suite holds its repetitions in, fails here.
//!
//! The tables were captured from the single-threaded per-suite loops the
//! orchestrator used to be checked against, before those loops were
//! deleted; this file passed at that commit.

use morello_sim::Condition;
use rev_bench::harness::{Scale, Suite};
use rev_bench::orchestrator::{self, JobSpec, RunOptions};
use rev_bench::plan::{MatrixPlan, SuiteKind};
use std::collections::BTreeMap;

/// FNV-1a 64 over the rendered JSON.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pgbench, rate and gRPC scale: the 200-transaction and
/// 500-message floors.
const TINY: Scale = Scale { fraction: 0.001, reps: 1 };

/// Runs `plan`'s cells and asserts the merged suite against `golden`.
fn assert_golden(plan: MatrixPlan, golden: &[(&str, usize, u64)]) {
    let jobs = plan.build().expect("the plan expands");
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let outcome = orchestrator::run(&jobs, &RunOptions::new().workers(workers));
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    let actual = table(&jobs, &outcome.suites);
    let rendered: String =
        actual.iter().map(|(k, r, h)| format!("    (\"{k}\", {r}, {h:#018x}),\n")).collect();
    let actual: Vec<_> = actual.iter().map(|(k, r, h)| (k.as_str(), *r, *h)).collect();
    assert!(actual == golden, "merged suite moved; the orchestrator now produces:\n{rendered}");
}

/// One row per job, in job order.
fn table(jobs: &[JobSpec], suites: &BTreeMap<&str, Suite>) -> Vec<(String, usize, u64)> {
    let mut reps: BTreeMap<(&str, &str, &str), usize> = BTreeMap::new();
    jobs.iter()
        .map(|job| {
            let (label, condition) = (job.merge_label(), job.condition().label());
            let rep = reps.entry((label, job.workload(), condition)).or_default();
            let stats = &suites[label].stats(job.workload(), condition)[*rep];
            *rep += 1;
            (job.key(), *rep - 1, fnv1a64(&stats.to_json_value().render()))
        })
        .collect()
}

#[test]
fn pgbench_suite_matches_golden() {
    assert_golden(MatrixPlan::new(TINY).suite(SuiteKind::Pgbench), PGBENCH);
}

#[test]
fn pgbench_rates_suite_matches_golden() {
    assert_golden(MatrixPlan::new(TINY).suite(SuiteKind::PgbenchRates), PGBENCH_RATES);
}

/// Two reps, so per-key repetition order is pinned, not just the set.
#[test]
fn spec_suite_matches_golden() {
    let plan = MatrixPlan::new(Scale { fraction: 0.005, reps: 2 })
        .suite(SuiteKind::Spec)
        .conditions(&[Condition::Baseline, Condition::reloaded()]);
    assert_golden(plan, SPEC);
}

#[test]
fn grpc_suite_matches_golden() {
    assert_golden(MatrixPlan::new(TINY).suite(SuiteKind::Grpc), GRPC);
}

const PGBENCH: &[(&str, usize, u64)] = &[
    ("pgbench|pgbench|baseline|s2000", 0, 0xf7e32d07deae304c),
    ("pgbench|pgbench|Paint+sync|s2000", 0, 0x4c369ab3bee06b6f),
    ("pgbench|pgbench|CHERIvoke|s2000", 0, 0xe7edccc82e934148),
    ("pgbench|pgbench|Cornucopia|s2000", 0, 0xbfbfa1c2316e85f1),
    ("pgbench|pgbench|Reloaded|s2000", 0, 0x555e051429778897),
];

const PGBENCH_RATES: &[(&str, usize, u64)] = &[
    ("pgbench-rates|800 tx/s|Reloaded|s3000", 0, 0x2dd32383e7779878),
    ("pgbench-rates|1200 tx/s|Reloaded|s3000", 0, 0x5c5301e8295b62ef),
    ("pgbench-rates|2000 tx/s|Reloaded|s3000", 0, 0x238e76e2490f7b59),
    ("pgbench-rates|unscheduled|Reloaded|s3000", 0, 0x234a519acb3cc92e),
];

const SPEC: &[(&str, usize, u64)] = &[
    ("spec|astar lakes|baseline|s1000", 0, 0x4cbcc654afd52dfe),
    ("spec|astar lakes|Reloaded|s1000", 0, 0x6793dbc05d737d21),
    ("spec|astar biglakes|baseline|s1000", 0, 0x31ceb3e2f77edfb7),
    ("spec|astar biglakes|Reloaded|s1000", 0, 0x0c978708c5d21c16),
    ("spec|bzip2|baseline|s1000", 0, 0xb7c878f4959df44f),
    ("spec|bzip2|Reloaded|s1000", 0, 0xf7aa0ffd93e76197),
    ("spec|gobmk trevord|baseline|s1000", 0, 0x0974b6c9b12d50b3),
    ("spec|gobmk trevord|Reloaded|s1000", 0, 0x9cbe40edba2d4fd2),
    ("spec|gobmk 13x13|baseline|s1000", 0, 0x0caadc46cb891225),
    ("spec|gobmk 13x13|Reloaded|s1000", 0, 0x9709c24a5886a179),
    ("spec|hmmer nph3|baseline|s1000", 0, 0xe444205ec8b88173),
    ("spec|hmmer nph3|Reloaded|s1000", 0, 0x1f00ade32b979858),
    ("spec|hmmer retro|baseline|s1000", 0, 0x88291a1c659450ba),
    ("spec|hmmer retro|Reloaded|s1000", 0, 0x0136c4bd98578ae8),
    ("spec|libquantum|baseline|s1000", 0, 0x9d6c46f476f0380d),
    ("spec|libquantum|Reloaded|s1000", 0, 0x59322eaac20e67c4),
    ("spec|omnetpp|baseline|s1000", 0, 0xa9dcc0e0224a6a32),
    ("spec|omnetpp|Reloaded|s1000", 0, 0xbf914d2c33b3b1d4),
    ("spec|sjeng|baseline|s1000", 0, 0x81b11adf04216d74),
    ("spec|sjeng|Reloaded|s1000", 0, 0xfb733fd4048b4b0f),
    ("spec|xalancbmk|baseline|s1000", 0, 0x060072c326025916),
    ("spec|xalancbmk|Reloaded|s1000", 0, 0x3c4ae29cf25771a5),
    ("spec|astar lakes|baseline|s1001", 1, 0x8395bf7fc4657afc),
    ("spec|astar lakes|Reloaded|s1001", 1, 0x396bd7c5045ec0f0),
    ("spec|astar biglakes|baseline|s1001", 1, 0x71e327f959f2fbab),
    ("spec|astar biglakes|Reloaded|s1001", 1, 0x86ab598dcf0f67fa),
    ("spec|bzip2|baseline|s1001", 1, 0xadfd6126653d7a65),
    ("spec|bzip2|Reloaded|s1001", 1, 0x575402b01fa6270c),
    ("spec|gobmk trevord|baseline|s1001", 1, 0xd8b38cd480688633),
    ("spec|gobmk trevord|Reloaded|s1001", 1, 0x0ce6a1cff4ba0553),
    ("spec|gobmk 13x13|baseline|s1001", 1, 0x3dc5ecc7156a72fb),
    ("spec|gobmk 13x13|Reloaded|s1001", 1, 0xe46d8bc673c83384),
    ("spec|hmmer nph3|baseline|s1001", 1, 0xe253b6019e4786d8),
    ("spec|hmmer nph3|Reloaded|s1001", 1, 0xde0262d33e3186e3),
    ("spec|hmmer retro|baseline|s1001", 1, 0x6c967a5cf37865c5),
    ("spec|hmmer retro|Reloaded|s1001", 1, 0x023480f9b0aa4f44),
    ("spec|libquantum|baseline|s1001", 1, 0xb0f50c1ee609e827),
    ("spec|libquantum|Reloaded|s1001", 1, 0xada95d036e7b2603),
    ("spec|omnetpp|baseline|s1001", 1, 0x0fa408ee792a5c16),
    ("spec|omnetpp|Reloaded|s1001", 1, 0x55328212d57e624a),
    ("spec|sjeng|baseline|s1001", 1, 0x67cb50f327ec8be5),
    ("spec|sjeng|Reloaded|s1001", 1, 0x56906650f800e3cf),
    ("spec|xalancbmk|baseline|s1001", 1, 0x6a6b275fa309bef0),
    ("spec|xalancbmk|Reloaded|s1001", 1, 0x65ee7309958d0bfc),
];

const GRPC: &[(&str, usize, u64)] = &[
    ("grpc|gRPC QPS|baseline|s4000", 0, 0x2bbd95faa6c33971),
    ("grpc|gRPC QPS|Paint+sync|s4000", 0, 0xde3c163290217030),
    ("grpc|gRPC QPS|Cornucopia|s4000", 0, 0x7651118dc47bd4bc),
    ("grpc|gRPC QPS|Reloaded|s4000", 0, 0x065f0d882a26143d),
];
