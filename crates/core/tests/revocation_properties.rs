//! Property tests of the revocation subsystem's central guarantee, under
//! arbitrary interleavings of application activity and revoker progress.
//!
//! The model: capabilities are planted in memory, registers, and hoards;
//! regions are painted; epochs start, run in arbitrary-size background
//! slices, and finish. After any epoch completes, **no tagged capability
//! whose base was painted before that epoch began may exist anywhere** —
//! for every strategy that claims safety. Loads taken mid-epoch through
//! the barrier must never observe a doomed capability either.

use cheri_cap::{Capability, Perms, CAP_SIZE};
use cheri_mem::PAGE_SIZE;
use cheri_vm::{Machine, MapFlags, VmFault};
use cornucopia::{HoardKind, Revoker, RevokerConfig, StepOutcome, Strategy as RevStrategy};
use simtest::check::{vec_of, CaseFailure, CaseResult, Gen, GenExt, Just};
use simtest::{oneof, sim_assert, sim_assert_eq};
use std::collections::HashSet;

const HEAP: u64 = 0x4000_0000;
const PAGES: u64 = 24;
const OBJS: u64 = 48; // one object per half page

#[derive(Debug, Clone)]
enum Act {
    /// Store a capability for object `o` into slot `s` of the heap.
    Plant { o: u64, s: u64 },
    /// Stash object `o`'s capability in a register.
    Stash { o: u64, r: usize },
    /// Hoard object `o`'s capability in the kernel.
    Hoard { o: u64 },
    /// Paint object `o` (free it).
    Paint { o: u64 },
    /// Begin an epoch (if idle).
    Begin,
    /// Run background revocation with the given budget.
    Step { budget: u64 },
    /// Finish Cornucopia's STW if requested.
    FinishStw,
    /// Application load from slot `s`, healing barrier faults.
    Load { s: u64 },
}

fn act_strategy() -> impl Gen<Value = Act> {
    oneof![
        3 => ((0..OBJS), (0..OBJS * 4)).gmap(|(o, s)| Act::Plant { o, s }),
        2 => ((0..OBJS), (0usize..32)).gmap(|(o, r)| Act::Stash { o, r }),
        1 => (0..OBJS).gmap(|o| Act::Hoard { o }),
        2 => (0..OBJS).gmap(|o| Act::Paint { o }),
        2 => Just(Act::Begin),
        3 => (10_000u64..500_000).gmap(|budget| Act::Step { budget }),
        2 => Just(Act::FinishStw),
        3 => (0..OBJS * 4).gmap(|s| Act::Load { s }),
    ]
}

fn obj_base(o: u64) -> u64 {
    HEAP + o * (PAGE_SIZE / 2)
}

fn slot_addr(s: u64) -> u64 {
    // Slots live in a dedicated region above the objects.
    HEAP + PAGES * PAGE_SIZE / 2 + s * CAP_SIZE
}

fn run_model(strategy: RevStrategy, acts: Vec<Act>) -> CaseResult {
    let mut m = Machine::new(2);
    m.map_range(HEAP, PAGES * PAGE_SIZE, MapFlags::user_rw()).unwrap();
    let heap = Capability::new_root(HEAP, PAGES * PAGE_SIZE, Perms::rw());
    let mut rev = Revoker::new(
        RevokerConfig { strategy, ..RevokerConfig::default() },
        HEAP,
        PAGES * PAGE_SIZE,
    );
    // Shadow state.
    let mut painted_now: HashSet<u64> = HashSet::new(); // bases painted
    let mut doomed: HashSet<u64> = HashSet::new(); // painted before current epoch
    let mut epoch_open = false;

    let check_all_gone = |m: &mut Machine, rev: &mut Revoker, doomed: &HashSet<u64>| {
        // Memory slots.
        for s in 0..OBJS * 4 {
            let a = slot_addr(s);
            if m.mem().phys().tag(a) {
                let cap = m.mem().phys().load_cap(a);
                sim_assert!(
                    !doomed.contains(&cap.base()),
                    "doomed cap (base {:#x}) survived in memory slot {s}",
                    cap.base()
                );
            }
        }
        // Registers.
        for t in 0..m.num_threads() {
            for cap in m.regs(t).iter() {
                if cap.is_tagged() {
                    sim_assert!(
                        !doomed.contains(&cap.base()),
                        "doomed cap survived in a register of thread {t}"
                    );
                }
            }
        }
        // Hoards.
        let (_, revoked) = rev.hoards_mut().scan(|c| doomed.contains(&c.base()));
        sim_assert_eq!(revoked, 0, "doomed cap survived in a kernel hoard");
        Ok(())
    };

    for act in acts {
        match act {
            // A real program can only produce a capability for an object
            // it has not freed (post-free copies are exactly what the
            // epoch expunges), so plants are restricted to live objects.
            Act::Plant { o, s } => {
                if painted_now.contains(&obj_base(o)) {
                    continue;
                }
                let cap = heap.set_bounds(obj_base(o), 64).unwrap();
                m.store_cap(0, &heap.set_addr(slot_addr(s)), cap).unwrap();
            }
            Act::Stash { o, r } => {
                if painted_now.contains(&obj_base(o)) {
                    continue;
                }
                let cap = heap.set_bounds(obj_base(o), 64).unwrap();
                m.regs_mut(0).set(r, cap);
            }
            Act::Hoard { o } => {
                if painted_now.contains(&obj_base(o)) {
                    continue;
                }
                let cap = heap.set_bounds(obj_base(o), 64).unwrap();
                rev.hoards_mut().deposit(HoardKind::Aio, cap);
            }
            Act::Paint { o } => {
                rev.paint(&mut m, 0, obj_base(o), 64);
                painted_now.insert(obj_base(o));
            }
            Act::Begin => {
                if !rev.is_revoking() {
                    doomed = painted_now.clone();
                    rev.start_epoch(&mut m);
                    if rev.is_revoking() {
                        epoch_open = true;
                    } else {
                        // CHERIvoke completes synchronously.
                        check_all_gone(&mut m, &mut rev, &doomed)?;
                        epoch_open = false;
                    }
                }
            }
            Act::Step { budget } => {
                let finished =
                    matches!(rev.background_step(&mut m, budget), StepOutcome::Finished { .. });
                if finished && epoch_open {
                    check_all_gone(&mut m, &mut rev, &doomed)?;
                    epoch_open = false;
                }
            }
            Act::FinishStw => {
                if matches!(rev.background_step(&mut m, 0), StepOutcome::NeedsFinalStw { .. }) {
                    rev.finish_stw(&mut m, 1);
                    if epoch_open {
                        check_all_gone(&mut m, &mut rev, &doomed)?;
                        epoch_open = false;
                    }
                }
            }
            Act::Load { s } => {
                let auth = heap.set_addr(slot_addr(s));
                let cap = loop {
                    match m.load_cap(0, &auth) {
                        Ok((c, _)) => break c,
                        Err(VmFault::CapLoadGeneration { vaddr }) => {
                            rev.handle_load_fault(&mut m, 0, vaddr);
                        }
                        Err(e) => return Err(CaseFailure::fail(format!("unexpected fault {e}"))),
                    }
                };
                // Reloaded's invariant: a load can never surface a cap
                // doomed as of the current epoch once revocation began.
                if strategy == RevStrategy::Reloaded && rev.is_revoking() && cap.is_tagged() {
                    sim_assert!(
                        !doomed.contains(&cap.base()),
                        "mid-epoch load divulged a doomed capability"
                    );
                }
                if !rev.is_revoking() && epoch_open {
                    // handle_load_fault may have completed the epoch.
                    check_all_gone(&mut m, &mut rev, &doomed)?;
                    epoch_open = false;
                }
            }
        }
    }
    // Drain any in-flight epoch and check once more.
    if rev.is_revoking() {
        loop {
            match rev.background_step(&mut m, 1_000_000) {
                StepOutcome::NeedsFinalStw { .. } => {
                    rev.finish_stw(&mut m, 1);
                    break;
                }
                StepOutcome::Finished { .. } | StepOutcome::Idle => break,
                StepOutcome::Working { .. } => {}
            }
        }
        if epoch_open {
            check_all_gone(&mut m, &mut rev, &doomed)?;
        }
    }
    Ok(())
}

/// The shrunk counterexample proptest found historically (formerly the
/// `revocation_properties.proptest-regressions` seed): an object painted,
/// an epoch begun, and a capability for that same object planted and
/// loaded back mid-epoch. The model must treat the post-paint plant as
/// unreachable-by-a-correct-program and the epoch guarantee must hold for
/// every strategy. Kept as an explicit test so the historical case is
/// never silently dropped.
#[test]
fn regression_paint_begin_plant_load_interleaving() {
    let acts = vec![
        Act::Paint { o: 38 },
        Act::Begin,
        Act::Plant { o: 38, s: 0 },
        Act::Load { s: 0 },
    ];
    for strategy in [RevStrategy::Reloaded, RevStrategy::Cornucopia, RevStrategy::CheriVoke] {
        run_model(strategy, acts.clone()).unwrap_or_else(|e| {
            panic!("historical Paint/Begin/Plant/Load counterexample regressed under {strategy:?}: {e:?}")
        });
    }
}

simtest::props! {
    #![config(simtest::Config { cases: 64, ..Default::default() })]

    fn epoch_guarantee_reloaded(acts in vec_of(act_strategy(), 1..120)) {
        run_model(RevStrategy::Reloaded, acts)?;
    }

    fn epoch_guarantee_cornucopia(acts in vec_of(act_strategy(), 1..120)) {
        run_model(RevStrategy::Cornucopia, acts)?;
    }

    fn epoch_guarantee_cherivoke(acts in vec_of(act_strategy(), 1..120)) {
        run_model(RevStrategy::CheriVoke, acts)?;
    }
}
