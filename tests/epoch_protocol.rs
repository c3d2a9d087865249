//! One epoch's protocol per strategy, restated from the paper (§5, and
//! §6.3 for the filter) rather than read from `Strategy::phase`: the
//! phases an epoch records, in order, and the stop-the-world pauses it
//! takes. Checked on the `golden_stats` stream for every strategy at 1
//! and 4 revoker cores.
//!
//! A phase's `epoch_index` counts the passes completed when it ended
//! (DESIGN.md "Findings"): an entry that leaves a sweep behind carries
//! the previous epoch's ordinal, every other phase its own.

use cornucopia::PhaseKind::{self, *};
use cornucopia::Strategy;
use morello_sim::{Condition, OpSource, System};
use workloads::{spec_stream, SpecProgram};

struct Protocol {
    strategy: Strategy,
    /// One epoch's phases in record order, each with 1 if the epoch has
    /// ended when it is recorded and 0 if not.
    phases: &'static [(PhaseKind, u64)],
    /// Stop-the-world pauses per epoch.
    pauses: u64,
}

const PROTOCOLS: [Protocol; 5] = [
    // Everything in one world-stopped sweep.
    Protocol { strategy: Strategy::CheriVoke, phases: &[(CheriVokeStw, 1)], pauses: 1 },
    // A 0-cycle entry, the concurrent sweep, then the world-stopped
    // re-sweep of re-dirtied pages.
    Protocol {
        strategy: Strategy::Cornucopia,
        phases: &[(CornucopiaConcurrent, 1), (CornucopiaStw, 1)],
        pauses: 2,
    },
    // A brief world-stopped entry (generation flip, register and hoard
    // scan), the concurrent sweep, and the load faults it left the
    // application.
    Protocol {
        strategy: Strategy::Reloaded,
        phases: &[(ReloadedStw, 0), (ReloadedConcurrent, 1), (ReloadedFaults, 1)],
        pauses: 1,
    },
    // No traps: a register and hoard scan, then a background sweep.
    Protocol {
        strategy: Strategy::CheriotFilter,
        phases: &[(CheriotFilterScan, 0), (CheriotFilterConcurrent, 1)],
        pauses: 1,
    },
    // One no-op call: nothing swept, nothing recorded.
    Protocol { strategy: Strategy::PaintSync, phases: &[], pauses: 1 },
];

#[test]
fn every_epoch_follows_its_strategys_protocol() {
    let w = spec_stream(SpecProgram::GobmkTrevord, 1234);
    let ops = w.source.collect_ops();
    for p in &PROTOCOLS {
        for cores in [1, 4] {
            let label = format!("{} x {cores} cores", p.strategy.label());
            let cfg = w
                .config
                .to_builder()
                .condition(Condition::Safe(p.strategy))
                .revoker_threads(cores)
                .build()
                .expect("golden config");
            let s = System::new(cfg)
                .run_stream(&mut ops.clone().into_iter())
                .expect("workload completes")
                .into_stats();
            assert!(s.revocations > 0, "{label}: no epoch ran");
            let expected: Vec<(u64, PhaseKind)> = (0..s.revocations)
                .flat_map(|done| p.phases.iter().map(move |&(kind, ended)| (done + ended, kind)))
                .collect();
            let recorded: Vec<(u64, PhaseKind)> = s.phases.iter().map(|r| (r.epoch_index, r.kind)).collect();
            assert_eq!(recorded, expected, "{label}: phases (epoch ordinal, kind)");
            assert_eq!(s.pauses.len() as u64, p.pauses * s.revocations, "{label}: pauses per epoch");
        }
    }
}
