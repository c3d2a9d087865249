//! Golden-stats determinism gate for the host-side hot-path
//! optimizations: the slab frame table, the per-core micro-TLB, the
//! zero-allocation sweep path, and the batched cache accesses must not
//! change a single simulated counter.
//!
//! The digests below were captured on the pre-optimization tree
//! (HashMap frame table, HashMap-only TLB, Vec-per-page sweeps,
//! per-line cache loop). Any drift in cycles, DRAM transactions,
//! faults, or shootdowns under any strategy × revoker-core-count
//! combination fails this test. If a *simulation-semantics* change
//! (new cost model, new workload shape) legitimately moves these
//! numbers, re-capture by running with `GOLDEN_PRINT=1`:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test golden_stats -- --nocapture
//! ```

use morello_sim::{Condition, Op, OpSource, RunStats, SimConfig, System};
use workloads::{spec_stream, SpecProgram};

/// The standard workload: a SPEC churn surrogate scaled down so all
/// eight combinations run in seconds, with enough churn to drive
/// several revocation epochs, pointer chases (load barriers), and
/// quarantine turnover.
fn workload() -> (Vec<Op>, SimConfig) {
    let w = spec_stream(SpecProgram::GobmkTrevord, 1234);
    (w.source.collect_ops(), w.config)
}

/// Everything the acceptance gate cares about, in one comparable line:
/// wall cycles, CPU cycles, DRAM transactions (app + revoker), faults,
/// TLB shootdowns/misses, PTE writes, pages swept, epochs, peak RSS.
fn digest(s: &RunStats) -> String {
    format!(
        "wall={} app_cpu={} rev_cpu={} app_dram={} rev_dram={} faults={} fault_cycles={} \
         shootdowns={} tlb_misses={} pte_writes={} swept={} epochs={} peak_rss={} \
         allocs={} frees={} pauses={}",
        s.wall_cycles,
        s.app_cpu_cycles,
        s.revoker_cpu_cycles,
        s.app_dram,
        s.revoker_dram,
        s.faults,
        s.fault_cycles,
        s.tlb_shootdowns,
        s.tlb_misses,
        s.pte_writes,
        s.pages_swept,
        s.revocations,
        s.peak_rss,
        s.allocs,
        s.frees,
        s.pauses.iter().sum::<u64>(),
    )
}

fn run(condition: Condition, revoker_threads: usize) -> String {
    let (ops, config) = workload();
    let cfg = config
        .to_builder()
        .condition(condition)
        .revoker_threads(revoker_threads)
        .build()
        .expect("golden config");
    digest(&System::new(cfg).run_stream(&mut ops.into_iter()).expect("golden workload must complete"))
}

/// Pre-optimization snapshots: (strategy label, revoker cores, digest).
const GOLDEN: &[(&str, usize, &str)] = &[
    (
        "cornucopia",
        1,
        "wall=4284807397 app_cpu=4284057113 rev_cpu=42491892 app_dram=225049 rev_dram=168187 \
         faults=0 fault_cycles=0 shootdowns=2363 tlb_misses=2593 pte_writes=4376 swept=2554 \
         epochs=5 peak_rss=3473408 allocs=2578 frees=1627 pauses=863664",
    ),
    (
        "cornucopia",
        4,
        "wall=4289250547 app_cpu=4288794465 rev_cpu=12463488 app_dram=225901 rev_dram=166191 \
         faults=0 fault_cycles=0 shootdowns=2342 tlb_misses=2583 pte_writes=4337 swept=2527 \
         epochs=5 peak_rss=3465216 allocs=2578 frees=1627 pauses=456082",
    ),
    (
        "reloaded",
        1,
        "wall=4282857799 app_cpu=4282648959 rev_cpu=45384502 app_dram=226107 rev_dram=153065 \
         faults=10 fault_cycles=221062 shootdowns=6 tlb_misses=3414 pte_writes=6733 swept=2316 \
         epochs=5 peak_rss=3473408 allocs=2578 frees=1627 pauses=208840",
    ),
    (
        "reloaded",
        4,
        "wall=4286346703 app_cpu=4286136903 rev_cpu=12112082 app_dram=226546 rev_dram=152436 \
         faults=1 fault_cycles=23604 shootdowns=7 tlb_misses=3384 pte_writes=6731 swept=2310 \
         epochs=5 peak_rss=3465216 allocs=2578 frees=1627 pauses=209800",
    ),
];

fn condition_of(label: &str) -> Condition {
    match label {
        "cornucopia" => Condition::cornucopia(),
        "reloaded" => Condition::reloaded(),
        other => panic!("unknown golden condition {other}"),
    }
}

#[test]
fn run_stats_match_pre_optimization_goldens() {
    let print = std::env::var("GOLDEN_PRINT").is_ok_and(|v| v != "0");
    let mut failures = Vec::new();
    for &(label, cores, expected) in GOLDEN {
        let got = run(condition_of(label), cores);
        if print {
            println!("(\n    \"{label}\",\n    {cores},\n    \"{got}\",\n),");
            continue;
        }
        let expected = expected.split_whitespace().collect::<Vec<_>>().join(" ");
        if got != expected {
            failures.push(format!(
                "{label} x {cores} cores drifted:\n  expected: {expected}\n  got:      {got}"
            ));
        }
    }
    assert!(!print, "GOLDEN_PRINT set: refusing to pass while printing snapshots");
    assert!(failures.is_empty(), "simulated counters drifted:\n{}", failures.join("\n"));
}

/// The golden digests must also be self-reproducible: two runs of the
/// same combination in the same process agree bit-for-bit (guards
/// against hidden host-side nondeterminism masquerading as drift).
#[test]
fn golden_runs_are_internally_deterministic() {
    let a = run(Condition::reloaded(), 4);
    let b = run(Condition::reloaded(), 4);
    assert_eq!(a, b);
}
