//! Memory holds capabilities in the 128-bit encoding
//! (`cheri_cap::encoding`), so every tagged capability the simulated
//! machine stores while running the evaluation's workloads must survive
//! `decode(encode(c)) == c` — bounds, cursor, permissions and colour.
//! Scanning after every batch checks about 1.1 M capabilities in all.

use cheri_cap::encoding::{decode, encode};
use morello_sim::{Condition, OpSource, SimConfig, System, OP_BATCH};
use workloads::{pgbench_stream, spec_stream, PgbenchParams, SpecProgram};

/// Runs `source` batch by batch, scanning every mapped page after each
/// batch; returns how many capabilities were checked.
fn run_checked(label: &str, source: &mut dyn OpSource, config: SimConfig) -> usize {
    let mut sys = System::new(config);
    let mut buf = Vec::with_capacity(OP_BATCH);
    let mut checked = 0;
    loop {
        buf.clear();
        if source.refill(&mut buf) == 0 {
            return checked;
        }
        sys.exec_batch(&buf).unwrap_or_else(|e| panic!("{label}: {e}"));
        let m = sys.machine();
        for page in m.mapped_pages() {
            for (addr, cap) in m.mem().phys().tagged_caps_in_page(page) {
                assert_eq!(encode(&cap).map(decode), Ok(cap), "{label}: the capability at {addr:#x} does not round-trip");
                checked += 1;
            }
        }
    }
}

#[test]
fn every_stored_capability_round_trips_through_128_bits() {
    for condition in [Condition::baseline(), Condition::cornucopia(), Condition::reloaded()] {
        let mut pgbench = pgbench_stream(PgbenchParams { transactions: 300, ..Default::default() });
        let label = format!("pgbench under {condition:?}");
        let checked = run_checked(&label, &mut pgbench.source, pgbench.config.with_condition(condition));
        assert!(checked > 0, "{label}: no capability was ever stored");

        for program in [SpecProgram::Omnetpp, SpecProgram::Xalancbmk] {
            // The warm-up that builds the live heap runs whole; the churn
            // after it is cut to a fiftieth.
            let mut profile = program.profile();
            profile.total_churn /= 50;
            let config = spec_stream(program, 7).config.with_condition(condition);
            let label = format!("{} under {condition:?}", program.name());
            let checked = run_checked(&label, &mut profile.source(7), config);
            assert!(checked > 0, "{label}: no capability was ever stored");
        }
    }
}
