//! The process-wide shadow pool of `cheri_mem::PhysMem` is invisible to
//! the simulation: a cell's `RunStats` are the same bits whether its
//! memory is the first of the process, is built from the unzeroed shadows
//! of a memory that was full of tagged capabilities, or draws on the pool
//! while another thread fills and empties it.
//!
//! One test function, so that "first in the process" means it.

use cornucopia_reloaded::morello_sim::{Condition, Op, OpSource, RunStats, SimConfig, System};
use cornucopia_reloaded::workloads::{pgbench_stream, spec_stream, PgbenchParams, SpecProgram};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

const PGBENCH: PgbenchParams = PgbenchParams { transactions: 400, rate: Some(1200.0), seed: 9 };

/// One pgbench cell and one omnetpp cell under Reloaded, streamed.
fn cells() -> [RunStats; 2] {
    let pg = pgbench_stream(PGBENCH);
    let mut source = pg.source;
    let pg = System::new(pg.config.with_condition(Condition::reloaded()))
        .run_stream(&mut source)
        .expect("pgbench cell")
        .into_stats();
    let om = spec_stream(SpecProgram::Omnetpp, 5);
    let mut source = om.source;
    let om = System::new(om.config.with_condition(Condition::reloaded()))
        .run_stream(&mut source)
        .expect("omnetpp cell")
        .into_stats();
    [pg, om]
}

/// The same two cells over the materialised `Vec<Op>`.
fn materialized_cells() -> [RunStats; 2] {
    let pg = pgbench_stream(PGBENCH);
    let om = spec_stream(SpecProgram::Omnetpp, 5);
    [(pg.source.collect_ops(), pg.config), (om.source.collect_ops(), om.config)].map(|(ops, config)| {
        System::new(config.with_condition(Condition::reloaded()))
            .run_stream(&mut ops.into_iter())
            .expect("materialised cell")
            .into_stats()
    })
}

/// Builds and drops a system whose heap pages are full of tagged
/// capabilities: every 16-byte slot of a 256 KiB object points at a
/// second object.
fn drop_a_system_full_of_capabilities() {
    const SIZE: u64 = 256 << 10;
    let cfg = SimConfig::builder().condition(Condition::baseline()).build().expect("default config");
    let mut system = System::new(cfg);
    system.exec(Op::Alloc { obj: 0, size: SIZE }).expect("alloc");
    system.exec(Op::Alloc { obj: 1, size: 64 }).expect("alloc");
    for slot in 0..SIZE / 16 {
        system.exec(Op::LinkPtr { from: 0, slot, to: 1 }).expect("link");
    }
    let machine = system.machine();
    let full = |page: &u64| machine.mem().phys().tagged_caps_in_page(*page).count() == 256;
    let full_pages = machine.mapped_pages().filter(full).count() as u64;
    assert!(full_pages >= SIZE / 4096 - 1, "only {full_pages} pages are full of capabilities");
}

#[test]
fn the_shadow_pool_is_invisible_to_the_simulation() {
    // (a) First in the process: every shadow is freshly allocated.
    let first = cells();
    assert_eq!(first, materialized_cells(), "streamed and materialised runs differ");

    // (b) On the shadows of a memory whose every entry was a tagged capability.
    drop_a_system_full_of_capabilities();
    assert_eq!(cells(), first, "a recycled shadow showed through");

    // (c) On a second thread, while a first fills and empties the pool. The
    // cells start only once the first thread has dropped a system, and it
    // keeps going until they are done.
    let done = AtomicBool::new(false);
    let (dropped_one, started) = mpsc::channel();
    let (second, rounds) = std::thread::scope(|s| {
        let churn = s.spawn(|| {
            let mut rounds = 0u32;
            while !done.load(Ordering::SeqCst) {
                drop_a_system_full_of_capabilities();
                rounds += 1;
                let _ = dropped_one.send(());
            }
            rounds
        });
        started.recv().expect("the churning thread died");
        let second = s.spawn(cells).join().expect("cells on the second thread");
        done.store(true, Ordering::SeqCst);
        (second, churn.join().expect("churning thread"))
    });
    assert!(rounds >= 1);
    assert_eq!(second, first, "sharing the pool with another thread showed through");
}
