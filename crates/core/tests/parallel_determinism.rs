//! Property test: the parallel concurrent sweep is a pure optimization.
//!
//! A full revocation epoch must produce **bit-identical results** no
//! matter how many revoker cores share the sweep: the same `caps_revoked`
//! count, the same surviving tagged capabilities in memory, and the same
//! surviving register contents. Only the cycle and traffic *attribution*
//! may differ (which core paid for which page). This is the determinism
//! guarantee the sharded worklist is designed around — page visits
//! commute, every pending page is visited exactly once, and the shard
//! deal is a function of the sorted page set alone.

use cheri_cap::{Capability, Perms, CAP_SIZE};
use cheri_mem::PAGE_SIZE;
use cheri_vm::{Machine, MapFlags};
use cornucopia::{HoardKind, Revoker, RevokerConfig, StepOutcome, Strategy};
use simtest::check::{vec_of, CaseResult, Gen, GenExt};
use simtest::{oneof, sim_assert_eq};

const HEAP: u64 = 0x4000_0000;
const PAGES: u64 = 32;
const OBJS: u64 = 64; // one per half page
/// Machine size: app core 0 plus up to 4 revoker cores (1..=4).
const MACHINE_CORES: usize = 5;

#[derive(Debug, Clone)]
enum Setup {
    /// Store a capability for object `o` into slot `s`.
    Plant { o: u64, s: u64 },
    /// Stash object `o`'s capability in a register.
    Stash { o: u64, r: usize },
    /// Hoard object `o`'s capability in the kernel.
    Hoard { o: u64 },
    /// Paint object `o` (free it).
    Paint { o: u64 },
}

fn setup_strategy() -> impl Gen<Value = Setup> {
    oneof![
        4 => ((0..OBJS), (0..OBJS * 4)).gmap(|(o, s)| Setup::Plant { o, s }),
        2 => ((0..OBJS), (0usize..24)).gmap(|(o, r)| Setup::Stash { o, r }),
        1 => (0..OBJS).gmap(|o| Setup::Hoard { o }),
        3 => (0..OBJS).gmap(|o| Setup::Paint { o }),
    ]
}

fn obj_base(o: u64) -> u64 {
    HEAP + o * (PAGE_SIZE / 2)
}

fn slot_addr(s: u64) -> u64 {
    HEAP + PAGES * PAGE_SIZE / 2 + s * CAP_SIZE
}

/// One epoch's result signature: (caps_revoked, surviving tagged caps in
/// memory, surviving tagged register slots).
type EpochResult = (u64, Vec<(u64, u64)>, Vec<(usize, u64)>);

/// Applies a setup plan and runs one full epoch with `cores` revoker
/// cores, returning a result signature.
fn run_epoch(strategy: Strategy, cores: usize, setup: &[Setup], budget: u64) -> EpochResult {
    let mut m = Machine::new(MACHINE_CORES);
    m.map_range(HEAP, PAGES * PAGE_SIZE, MapFlags::user_rw()).unwrap();
    let heap = Capability::new_root(HEAP, PAGES * PAGE_SIZE, Perms::rw());
    let mut rev = Revoker::new(
        RevokerConfig {
            strategy,
            revoker_cores: (1..=cores).collect(),
            ..RevokerConfig::default()
        },
        HEAP,
        PAGES * PAGE_SIZE,
    );
    for act in setup {
        match *act {
            Setup::Plant { o, s } => {
                let cap = heap.set_bounds(obj_base(o), 64).unwrap();
                m.store_cap(0, &heap.set_addr(slot_addr(s)), cap).unwrap();
            }
            Setup::Stash { o, r } => {
                let cap = heap.set_bounds(obj_base(o), 64).unwrap();
                m.regs_mut(0).set(r, cap);
            }
            Setup::Hoard { o } => {
                let cap = heap.set_bounds(obj_base(o), 64).unwrap();
                rev.hoards_mut().deposit(HoardKind::Aio, cap);
            }
            Setup::Paint { o } => {
                rev.paint(&mut m, 0, obj_base(o), 64);
            }
        }
    }
    rev.start_epoch(&mut m);
    let mut guard = 0;
    while rev.is_revoking() {
        if matches!(rev.background_step(&mut m, budget), StepOutcome::NeedsFinalStw { .. }) {
            rev.finish_stw(&mut m, 1);
        }
        guard += 1;
        assert!(guard < 100_000, "epoch did not terminate");
    }
    let mut mem_tags = Vec::new();
    for page in 0..PAGES {
        for (addr, cap) in m.mem().phys().tagged_caps_in_page(HEAP + page * PAGE_SIZE) {
            mem_tags.push((addr, cap.base()));
        }
    }
    let mut reg_tags = Vec::new();
    for (i, cap) in m.regs(0).iter().enumerate() {
        if cap.is_tagged() {
            reg_tags.push((i, cap.base()));
        }
    }
    (rev.stats().caps_revoked, mem_tags, reg_tags)
}

fn check_core_counts(strategy: Strategy, setup: Vec<Setup>, budget: u64) -> CaseResult {
    let reference = run_epoch(strategy, 1, &setup, budget);
    for cores in [2usize, 4] {
        let got = run_epoch(strategy, cores, &setup, budget);
        sim_assert_eq!(
            got.0,
            reference.0,
            "caps_revoked diverged with {cores} cores ({strategy:?})"
        );
        sim_assert_eq!(
            got.1,
            reference.1,
            "surviving memory tags diverged with {cores} cores ({strategy:?})"
        );
        sim_assert_eq!(
            got.2,
            reference.2,
            "surviving register tags diverged with {cores} cores ({strategy:?})"
        );
    }
    Ok(())
}

simtest::props! {
    #![config(simtest::Config { cases: 48, ..Default::default() })]

    fn reloaded_identical_across_core_counts(
        setup in vec_of(setup_strategy(), 1..100),
        budget in 5_000u64..400_000,
    ) {
        check_core_counts(Strategy::Reloaded, setup, budget)?;
    }

    fn cornucopia_identical_across_core_counts(
        setup in vec_of(setup_strategy(), 1..100),
        budget in 5_000u64..400_000,
    ) {
        check_core_counts(Strategy::Cornucopia, setup, budget)?;
    }
}

/// Deterministic smoke version of the acceptance criterion: with every
/// page holding capabilities and plenty painted, 4 cores must cut the
/// concurrent-phase critical path at least 2× versus 1 core while the
/// results stay bit-identical.
#[test]
fn four_cores_halve_critical_path_with_identical_results() {
    let run = |cores: usize| {
        let mut m = Machine::new(MACHINE_CORES);
        m.map_range(HEAP, PAGES * PAGE_SIZE, MapFlags::user_rw()).unwrap();
        let heap = Capability::new_root(HEAP, PAGES * PAGE_SIZE, Perms::rw());
        let mut rev = Revoker::new(
            RevokerConfig {
                strategy: Strategy::Reloaded,
                revoker_cores: (1..=cores).collect(),
                ..RevokerConfig::default()
            },
            HEAP,
            PAGES * PAGE_SIZE,
        );
        // Capabilities on every page, so every page needs a content scan
        // and the sweep work actually distributes across the shards.
        for page in 0..PAGES {
            for slot in 0..8u64 {
                let o = (page * 8 + slot) % OBJS;
                let cap = heap.set_bounds(obj_base(o), 64).unwrap();
                let at = HEAP + page * PAGE_SIZE + slot * 256;
                m.store_cap(0, &heap.set_addr(at), cap).unwrap();
            }
        }
        for o in 0..OBJS {
            if o % 2 == 0 {
                rev.paint(&mut m, 0, obj_base(o), 64);
            }
        }
        rev.start_epoch(&mut m);
        while rev.is_revoking() {
            rev.background_step(&mut m, 1_000_000);
        }
        let mut tags = Vec::new();
        for page in 0..PAGES {
            for (addr, cap) in m.mem().phys().tagged_caps_in_page(HEAP + page * PAGE_SIZE) {
                tags.push((addr, cap.base()));
            }
        }
        (rev.stats().concurrent_cycles, rev.stats().caps_revoked, tags)
    };
    let (path1, revoked1, tags1) = run(1);
    let (path4, revoked4, tags4) = run(4);
    assert_eq!(revoked1, revoked4, "caps_revoked must not depend on core count");
    assert_eq!(tags1, tags4, "surviving tags must not depend on core count");
    assert!(
        path4 * 2 <= path1,
        "4-core critical path {path4} not ≥2× shorter than 1-core {path1}"
    );
}
