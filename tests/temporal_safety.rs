//! Cross-crate integration tests: the end-to-end temporal-safety
//! guarantees of the full stack (machine + revoker + heap + simulator).

use cornucopia_reloaded::prelude::*;
use cornucopia::EpochClock;

const HEAP: u64 = 0x4000_0000;
const HLEN: u64 = 32 << 20;

fn stack(strategy: Strategy) -> (Machine, Revoker, Mrs) {
    let machine = Machine::new(4);
    let layout = HeapLayout::new(HEAP, HLEN);
    let revoker = Revoker::new(
        RevokerConfig { strategy, ..RevokerConfig::default() },
        layout.base,
        layout.total_len,
    );
    let heap = Mrs::new(layout, MrsConfig { min_quarantine_bytes: 4 << 10, ..MrsConfig::default() });
    (machine, revoker, heap)
}

fn run_epoch(machine: &mut Machine, revoker: &mut Revoker) {
    revoker.start_epoch(machine);
    let mut guard = 0;
    while revoker.is_revoking() {
        if matches!(revoker.background_step(machine, 1_000_000), StepOutcome::NeedsFinalStw { .. }) {
            revoker.finish_stw(machine, 1);
        }
        guard += 1;
        assert!(guard < 100_000, "epoch did not terminate");
    }
}

/// The central guarantee (§2.2.3): after an epoch, no capability to
/// memory painted before the epoch survives anywhere — heap memory,
/// registers, or kernel hoards — under any safe strategy.
#[test]
fn epoch_guarantee_holds_everywhere() {
    for strategy in [Strategy::CheriVoke, Strategy::Cornucopia, Strategy::Reloaded] {
        let (mut m, mut rev, mut heap) = stack(strategy);
        let keeper = heap.alloc(&mut m, 3, 4096).unwrap().cap;
        let victim = heap.alloc(&mut m, 3, 4096).unwrap().cap;

        // Spread aliases everywhere a capability can hide.
        for slot in 0..16u64 {
            m.store_cap(3, &keeper.set_addr(keeper.base() + slot * 16), victim).unwrap();
        }
        m.regs_mut(3).set(7, victim);
        m.regs_mut(0).set(3, victim.set_addr(victim.base() + 64));
        rev.hoards_mut().deposit(cornucopia::HoardKind::Kqueue, victim);
        rev.hoards_mut().deposit(cornucopia::HoardKind::Aio, victim.set_addr(victim.base() + 8));

        heap.free(&mut m, &mut rev, 3, victim).unwrap();
        heap.seal(&rev);
        run_epoch(&mut m, &mut rev);

        for slot in 0..16u64 {
            let (c, _) = m.load_cap(3, &keeper.set_addr(keeper.base() + slot * 16)).unwrap();
            assert!(!c.is_tagged(), "{strategy:?}: alias in memory slot {slot} survived");
        }
        assert!(!m.regs(3).get(7).is_tagged(), "{strategy:?}: register alias survived");
        assert!(!m.regs(0).get(3).is_tagged(), "{strategy:?}: cross-core register alias survived");
        assert!(
            !rev.hoards_mut().divulge(cornucopia::HoardKind::Kqueue, 0).unwrap().is_tagged(),
            "{strategy:?}: kqueue hoard alias survived"
        );
    }
}

/// Live objects must never be damaged by revocation: capabilities to
/// unfreed allocations survive every epoch intact.
#[test]
fn live_objects_survive_revocation() {
    for strategy in [Strategy::CheriVoke, Strategy::Cornucopia, Strategy::Reloaded] {
        let (mut m, mut rev, mut heap) = stack(strategy);
        let keeper = heap.alloc(&mut m, 3, 4096).unwrap().cap;
        let live: Vec<Capability> = (0..32).map(|_| heap.alloc(&mut m, 3, 512).unwrap().cap).collect();
        for (i, c) in live.iter().enumerate() {
            m.store_cap(3, &keeper.set_addr(keeper.base() + i as u64 * 16), *c).unwrap();
        }
        let victim = heap.alloc(&mut m, 3, 512).unwrap().cap;
        heap.free(&mut m, &mut rev, 3, victim).unwrap();
        heap.seal(&rev);
        run_epoch(&mut m, &mut rev);
        for (i, c) in live.iter().enumerate() {
            let (got, _) = m.load_cap(3, &keeper.set_addr(keeper.base() + i as u64 * 16)).unwrap();
            assert!(got.is_tagged(), "{strategy:?}: live object {i} was wrongly revoked");
            assert_eq!(got, *c);
        }
    }
}

/// Use-after-reallocation is architecturally impossible: by the time the
/// allocator reuses storage, every stale capability is dead.
#[test]
fn uar_is_impossible_under_reloaded() {
    let (mut m, mut rev, mut heap) = stack(Strategy::Reloaded);
    let keeper = heap.alloc(&mut m, 3, 64).unwrap().cap;
    let p = heap.alloc(&mut m, 3, 2048).unwrap().cap;
    m.store_cap(3, &keeper, p).unwrap();
    heap.free(&mut m, &mut rev, 3, p).unwrap();

    // Drive epochs until the allocator hands the same storage out again.
    let mut reused = None;
    for _ in 0..8 {
        heap.seal(&rev);
        run_epoch(&mut m, &mut rev);
        heap.poll_release(&mut m, &mut rev, 3);
        let q = heap.alloc(&mut m, 3, 2048).unwrap().cap;
        if q.base() == p.base() {
            reused = Some(q);
            break;
        }
    }
    let reused = reused.expect("storage must eventually be recycled");
    // The new owner works; the stale alias is dead.
    m.write_data(3, &reused, 2048).unwrap();
    let (stale, _) = m.load_cap(3, &keeper).unwrap();
    assert!(!stale.is_tagged());
    assert!(m.read_data(3, &stale, 8).is_err());
}

/// Reloaded's central invariant (§3.2): after the epoch-entry STW, no
/// load can put a to-be-revoked capability into a register file, even
/// while the background sweep is still running.
#[test]
fn reloaded_invariant_mid_epoch() {
    let (mut m, mut rev, mut heap) = stack(Strategy::Reloaded);
    let keeper = heap.alloc(&mut m, 3, 4096).unwrap().cap;
    let victims: Vec<Capability> = (0..64).map(|_| heap.alloc(&mut m, 3, 2048).unwrap().cap).collect();
    for (i, v) in victims.iter().enumerate() {
        m.store_cap(3, &keeper.set_addr(keeper.base() + i as u64 * 16), *v).unwrap();
    }
    for v in &victims {
        heap.free(&mut m, &mut rev, 3, *v).unwrap();
    }
    heap.seal(&rev);
    rev.start_epoch(&mut m);
    // Mid-epoch: try to load every stale alias; the barrier must hand back
    // only untagged values, healing pages on demand.
    for i in 0..64u64 {
        let auth = keeper.set_addr(keeper.base() + i * 16);
        let cap = loop {
            match m.load_cap(3, &auth) {
                Ok((c, _)) => break c,
                Err(VmFault::CapLoadGeneration { vaddr }) => {
                    rev.handle_load_fault(&mut m, 3, vaddr);
                }
                Err(e) => panic!("unexpected fault {e}"),
            }
        };
        assert!(!cap.is_tagged(), "mid-epoch load {i} divulged a doomed capability");
    }
    // Finish the epoch; it must still terminate promptly.
    while rev.is_revoking() {
        rev.background_step(&mut m, 10_000_000);
    }
}

/// Paint+sync provides no safety: the stale alias survives "epochs".
#[test]
fn paint_sync_is_unsafe_by_design() {
    let (mut m, mut rev, mut heap) = stack(Strategy::PaintSync);
    let keeper = heap.alloc(&mut m, 3, 64).unwrap().cap;
    let p = heap.alloc(&mut m, 3, 512).unwrap().cap;
    m.store_cap(3, &keeper, p).unwrap();
    heap.free(&mut m, &mut rev, 3, p).unwrap();
    heap.seal(&rev);
    rev.start_epoch(&mut m);
    assert!(!rev.is_revoking());
    let (stale, _) = m.load_cap(3, &keeper).unwrap();
    assert!(stale.is_tagged(), "Paint+sync must not revoke (it is the overhead control)");
}

/// Epoch-counter protocol: freed memory waits two epochs when painted
/// while idle, three when painted mid-revocation (§2.2.3).
#[test]
fn dequarantine_respects_epoch_protocol() {
    let (mut m, mut rev, mut heap) = stack(Strategy::Reloaded);
    assert_eq!(EpochClock::release_epoch(0), 2);
    assert_eq!(EpochClock::release_epoch(1), 4);

    let p = heap.alloc(&mut m, 3, 2048).unwrap().cap;
    heap.free(&mut m, &mut rev, 3, p).unwrap();
    heap.seal(&rev); // sealed at epoch 0
    rev.start_epoch(&mut m); // epoch 1
    // Free q mid-revocation; seal at epoch 1 (odd).
    let q = heap.alloc(&mut m, 3, 2048).unwrap().cap;
    heap.free(&mut m, &mut rev, 3, q).unwrap();
    heap.seal(&rev);
    while rev.is_revoking() {
        rev.background_step(&mut m, 10_000_000);
    } // epoch 2
    heap.poll_release(&mut m, &mut rev, 3);
    assert_eq!(heap.quarantine_bytes(), 2048, "q must wait for a full later pass");
    run_epoch(&mut m, &mut rev); // epochs 3..4
    heap.poll_release(&mut m, &mut rev, 3);
    assert_eq!(heap.quarantine_bytes(), 0);
}

/// The whole simulated pipeline enforces safety too: a workload that
/// replays a stale pointer read through the System API observes fail-stop
/// under safe strategies and aliasing under baseline.
#[test]
fn system_level_safety_differs_by_condition() {
    use morello_sim::{Op, SimConfig, System};
    let ops = |n: u64| -> Vec<Op> {
        let mut v = Vec::new();
        for i in 0..n {
            v.push(Op::Alloc { obj: i % 8, size: 4096 });
            v.push(Op::LinkPtr { from: i % 8, slot: 0, to: i % 8 });
            v.push(Op::Free { obj: i % 8 });
        }
        v
    };
    for cond in [Condition::baseline(), Condition::reloaded()] {
        let cfg =
            SimConfig::builder().condition(cond).min_quarantine(16 << 10).build().unwrap();
        let stats = System::new(cfg).run_stream(&mut ops(2000).into_iter()).unwrap();
        match cond {
            Condition::Baseline => assert_eq!(stats.revocations, 0),
            _ => assert!(stats.revocations > 0),
        }
    }
}
