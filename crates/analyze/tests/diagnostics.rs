//! Hand-built op-list fixtures exercising every diagnostic kind
//! the analyzer can report, plus the recovery semantics (malformed ops
//! are skipped, not cascaded).

use analyze::{analyze, AnalyzerConfig, DiagnosticKind, Severity, StaleChase};
use morello_sim::Op;

fn cfg() -> AnalyzerConfig {
    // A tiny root table so the fixture can trigger aliasing with small IDs.
    AnalyzerConfig { max_objects: 8, ..AnalyzerConfig::default() }
}

/// One program that trips all eight diagnostic kinds.
fn kitchen_sink() -> Vec<Op> {
    vec![
        // -- free-of-unallocated --------------------------------------
        Op::Free { obj: 42 },
        // -- normal prologue ------------------------------------------
        Op::Alloc { obj: 0, size: 64 },
        Op::WriteData { obj: 0, len: 64 },
        Op::Alloc { obj: 1, size: 64 },
        // -- alloc-busy: slot 1 is still live -------------------------
        Op::Alloc { obj: 1, size: 32 },
        // -- root-slot aliasing: 9 % 8 == 1 collides with live obj 1 --
        Op::Alloc { obj: 9, size: 16 },
        // -- points-to: 0.slot0 -> 1, then free the target ------------
        Op::LinkPtr { from: 0, slot: 0, to: 1 },
        Op::Free { obj: 1 }, // dangling-link fires here
        // -- stale chase: dereference the dangling link ---------------
        Op::ChasePtr { from: 0, slot: 0 },
        // -- double-free ----------------------------------------------
        Op::Free { obj: 1 },
        // -- use-after-free -------------------------------------------
        Op::ReadData { obj: 1, len: 8 },
        // -- leak: obj 0 and obj 9 stay live --------------------------
    ]
}

#[test]
fn every_diagnostic_kind_fires_once_in_the_fixture() {
    let report = analyze(kitchen_sink().into_iter(), cfg());
    assert!(report.malformed);
    for kind in DiagnosticKind::ALL {
        let expected = match kind {
            DiagnosticKind::Leak => 2, // obj 0 and obj 9
            _ => 1,
        };
        assert_eq!(report.count(kind), expected, "kind {}", kind.label());
    }
    assert_eq!(
        report.stale_chases,
        vec![StaleChase { op_index: 8, from: 0, slot: 0, to: 1 }]
    );
}

#[test]
fn severities_partition_the_kinds() {
    let report = analyze(kitchen_sink().into_iter(), cfg());
    let malformed: u64 = DiagnosticKind::ALL
        .iter()
        .filter(|k| k.severity() == Severity::Malformed)
        .map(|&k| report.count(k))
        .sum();
    assert_eq!(malformed, report.malformed_count());
    assert_eq!(report.malformed_count(), 5);
    assert_eq!(DiagnosticKind::StaleChase.severity(), Severity::Safety);
    assert_eq!(DiagnosticKind::DanglingLink.severity(), Severity::Info);
    assert_eq!(DiagnosticKind::Leak.severity(), Severity::Info);
}

#[test]
fn diagnostics_carry_op_indices_in_program_order() {
    let report = analyze(kitchen_sink().into_iter(), cfg());
    let indices: Vec<u64> = report.diagnostics.iter().map(|d| d.op_index).collect();
    let mut sorted = indices.clone();
    sorted.sort_unstable();
    assert_eq!(indices, sorted, "details are emitted in program order");
    // Labels are unique and stable (JSON keys depend on them).
    let labels: Vec<&str> = DiagnosticKind::ALL.iter().map(|k| k.label()).collect();
    let mut dedup = labels.clone();
    dedup.dedup();
    assert_eq!(labels, dedup);
}

#[test]
fn fixture_report_json_is_digest_stable() {
    let a = analyze(kitchen_sink().into_iter(), cfg()).to_json().render();
    let b = analyze(kitchen_sink().into_iter(), cfg()).to_json().render();
    assert_eq!(a, b);
    assert!(a.contains("\"malformed\":true"));
    // FNV-1a 64 of the document, captured from the `BTreeMap`/SipHash
    // analyzer at the commit before its tables were replaced; re-hashed
    // when the mmap path left, from that analyzer's report of this fixture
    // with the `mmap`, `heap` and `wrong_deallocator` keys stripped.
    let digest = a.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(digest, 0x0bf1_5812_0af8_a73f, "fixture report moved:\n{a}");
}

#[test]
fn recovery_keeps_later_analysis_accurate() {
    // After the malformed prefix, a clean epilogue must analyze cleanly:
    // the busy re-alloc of obj 1 was skipped, so freeing obj 1 once more
    // after re-allocating is *not* a double free.
    let mut ops = kitchen_sink();
    ops.extend([
        Op::Alloc { obj: 5, size: 128 },
        Op::WriteData { obj: 5, len: 128 },
        Op::Free { obj: 5 },
    ]);
    let report = analyze(ops.into_iter(), cfg());
    // The epilogue added no new malformed diagnostics.
    assert_eq!(report.malformed_count(), 5);
    // And obj 5's lifetime is recorded as closed.
    let l5 = report.lifetimes.iter().find(|l| l.obj == 5).unwrap();
    assert!(l5.last_op.is_some());
    assert_eq!(l5.max_bytes, 128);
}
