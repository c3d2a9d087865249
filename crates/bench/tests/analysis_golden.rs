//! Golden table for the static analyzer: `(ops, FNV-1a of the rendered
//! report JSON)` for every distinct program of the smoke matrix. The
//! report JSON carries the diagnostics, stale chases, lifetimes and RSS
//! bound in their observable order, so an analyzer edit that moves any
//! reported fact fails here even when it stays deterministic.

use rev_bench::harness::Scale;
use rev_bench::orchestrator::parallel_cells;
use rev_bench::plan::{distinct_programs, MatrixPlan};

/// FNV-1a 64 over the rendered JSON.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn smoke_matrix_reports_match_goldens() {
    let jobs = MatrixPlan::all(Scale::smoke()).build().expect("smoke matrix expands");
    let programs = distinct_programs(&jobs);
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let actual: Vec<(String, u64, u64)> = parallel_cells(programs.len(), workers, |i| {
        let report = programs[i].analyze(false);
        (programs[i].program_id(), report.ops, fnv1a64(&report.to_json().render()))
    });

    let rendered: String =
        actual.iter().map(|(id, n, h)| format!("    (\"{id}\", {n}, {h:#018x}),\n")).collect();
    let actual: Vec<_> = actual.iter().map(|(id, n, h)| (id.as_str(), *n, *h)).collect();
    assert!(actual == GOLDEN, "analysis reports moved; the analyzer now produces:\n{rendered}");
}

/// Captured from the `BTreeMap`/SipHash-`HashMap` analyzer at the commit
/// before its tables were replaced, then re-hashed once with the report's
/// `mmap`, `heap` and `wrong_deallocator` keys stripped when the mmap path
/// was deleted (no other byte moved).
const GOLDEN: &[(&str, u64, u64)] = &[
    ("spec|astar lakes|s1000", 108806, 0xac2375622e15b502),
    ("spec|astar biglakes|s1000", 44665, 0xfc01f647d7c11859),
    ("spec|bzip2|s1000", 425, 0x08771dac7a776bb7),
    ("spec|gobmk trevord|s1000", 27748, 0x1283a0b3db4203f1),
    ("spec|gobmk 13x13|s1000", 20100, 0x30a8e511efd8a344),
    ("spec|hmmer nph3|s1000", 188430, 0xc6580091b961a261),
    ("spec|hmmer retro|s1000", 106700, 0x843f282d1d5c1263),
    ("spec|libquantum|s1000", 5779, 0xf5268d5bf47193e3),
    ("spec|omnetpp|s1000", 2784494, 0xddd2fcd7007c2646),
    ("spec|sjeng|s1000", 800, 0xfb1a28382a697606),
    ("spec|xalancbmk|s1000", 2530590, 0x62dc2e172c50bb91),
    ("pgbench|pgbench|s2000", 67776, 0xf4a9fa9968e20a81),
    ("pgbench-rates|800 tx/s|s3000", 67776, 0xf4a9fa9968e20a81),
    ("pgbench-rates|1200 tx/s|s3000", 67776, 0xf4a9fa9968e20a81),
    ("pgbench-rates|2000 tx/s|s3000", 67776, 0xf4a9fa9968e20a81),
    ("pgbench-rates|unscheduled|s3000", 67776, 0xf4a9fa9968e20a81),
    ("grpc|gRPC QPS|s4000", 7400, 0x97cc864b0d52a4fb),
];
