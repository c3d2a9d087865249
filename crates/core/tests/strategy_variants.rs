//! Tests for the revoker's variant configurations: the CHERIoT-style
//! filter's background engine, multi-threaded background revocation
//! (§7.1), and the PTE rewrite strawman (§4.1).

use cheri_cap::{Capability, Perms};
use cheri_vm::{Machine, MapFlags};
use cornucopia::{PteUpdateMode, Revoker, RevokerConfig, StepOutcome, Strategy as RevStrategy};

const HEAP: u64 = 0x4000_0000;
const HLEN: u64 = 0x10_0000; // 1 MiB

fn setup(cfg: RevokerConfig) -> (Machine, Revoker, Capability) {
    let mut m = Machine::new(4);
    m.map_range(HEAP, HLEN, MapFlags::user_rw()).unwrap();
    let heap = Capability::new_root(HEAP, HLEN, Perms::rw());
    (m, Revoker::new(cfg, HEAP, HLEN), heap)
}

fn populate(m: &mut Machine, heap: &Capability, pages: u64) {
    for p in 0..pages {
        for s in 0..4 {
            let a = HEAP + p * 4096 + s * 512;
            let c = heap.set_bounds(a, 64).unwrap();
            m.store_cap(3, &heap.set_addr(a), c).unwrap();
        }
    }
}

fn drain(m: &mut Machine, rev: &mut Revoker) -> u64 {
    let mut steps = 0;
    while rev.is_revoking() {
        match rev.background_step(m, 500_000) {
            StepOutcome::NeedsFinalStw { .. } => {
                rev.finish_stw(m, 1);
            }
            StepOutcome::Idle => break,
            _ => {}
        }
        steps += 1;
        assert!(steps < 100_000);
    }
    steps
}

#[test]
fn cheriot_filter_background_engine_recycles_bitmap() {
    let cfg = RevokerConfig { strategy: RevStrategy::CheriotFilter, ..RevokerConfig::default() };
    let (mut m, mut rev, heap) = setup(cfg);
    populate(&mut m, &heap, 32);
    rev.paint(&mut m, 3, HEAP + 0x2000, 128);
    // The filter protects immediately; the background engine still sweeps
    // so the bitmap bits can be recycled.
    rev.start_epoch(&mut m);
    assert!(rev.is_revoking());
    drain(&mut m, &mut rev);
    assert!(!m.mem().phys().tag(HEAP + 0x2000), "engine must clear stale tags");
    assert_eq!(rev.epoch() % 2, 0);
}

#[test]
fn multithreaded_revoker_finishes_in_fewer_steps() {
    let mut step_counts = Vec::new();
    for cores in [vec![1], vec![1, 2]] {
        let cfg = RevokerConfig {
            strategy: RevStrategy::Reloaded,
            revoker_cores: cores,
            ..RevokerConfig::default()
        };
        let (mut m, mut rev, heap) = setup(cfg);
        populate(&mut m, &heap, 128);
        rev.paint(&mut m, 3, HEAP + 0x1000, 64);
        rev.start_epoch(&mut m);
        step_counts.push(drain(&mut m, &mut rev));
        // Safety is unaffected.
        assert!(!m.mem().phys().tag(HEAP + 0x1000));
    }
    assert!(
        step_counts[1] * 3 <= step_counts[0] * 2,
        "two revoker threads ({}) should beat one ({}) clearly",
        step_counts[1],
        step_counts[0]
    );
}

#[test]
fn pte_rewrite_mode_is_functionally_equivalent() {
    for mode in [PteUpdateMode::Generation, PteUpdateMode::RewriteEachEpoch] {
        let cfg = RevokerConfig {
            strategy: RevStrategy::Reloaded,
            pte_mode: mode,
            ..RevokerConfig::default()
        };
        let (mut m, mut rev, heap) = setup(cfg);
        populate(&mut m, &heap, 16);
        rev.paint(&mut m, 3, HEAP + 0x1000, 64);
        rev.start_epoch(&mut m);
        drain(&mut m, &mut rev);
        assert!(!m.mem().phys().tag(HEAP + 0x1000), "{mode:?} must still revoke");
        // Live caps elsewhere survive.
        assert!(m.mem().phys().tag(HEAP));
    }
}

#[test]
fn read_only_pages_upgrade_only_when_revocation_requires_it() {
    let cfg = RevokerConfig { strategy: RevStrategy::CheriVoke, ..RevokerConfig::default() };
    let (mut m, mut rev, heap) = setup(cfg);
    // Two pages full of caps, then remapped read-only (relro-style).
    for page in 0..2u64 {
        let a = HEAP + page * 4096;
        let c = heap.set_bounds(a + 256, 64).unwrap();
        m.store_cap(3, &heap.set_addr(a), c).unwrap();
    }
    m.map_range(HEAP, 2 * 4096, MapFlags::user_ro()).unwrap();
    // Remapping preserves the capability-dirty bit, so the revoker still
    // visits both pages.
    assert!(!m.page_user_writable(HEAP));
    assert!(m.page_cap_dirty(HEAP), "remap must not lose CD tracking");
    rev.paint(&mut m, 3, HEAP + 256, 64);
    rev.start_epoch(&mut m);
    drain(&mut m, &mut rev);
    let s = rev.stats();
    // Page 0 needed a revocation: upgraded. Page 1 did not: untouched.
    assert_eq!(s.ro_pages_upgraded, 1, "exactly one RO page needed the write path");
    assert!(!m.mem().phys().tag(HEAP), "painted cap on the RO page was revoked");
    assert!(m.mem().phys().tag(HEAP + 4096), "unpainted RO page kept its cap");
    assert!(!m.page_user_writable(HEAP + 4096), "no-write page stays read-only");
}

#[test]
fn phase_records_accumulate_across_epochs() {
    let cfg = RevokerConfig { strategy: RevStrategy::Cornucopia, ..RevokerConfig::default() };
    let (mut m, mut rev, heap) = setup(cfg);
    populate(&mut m, &heap, 8);
    for i in 0..3 {
        rev.paint(&mut m, 3, HEAP + 0x1000 + i * 512, 64);
        rev.start_epoch(&mut m);
        drain(&mut m, &mut rev);
    }
    let records = rev.phase_records();
    let stw = records.iter().filter(|r| r.kind == cornucopia::PhaseKind::CornucopiaStw).count();
    let conc =
        records.iter().filter(|r| r.kind == cornucopia::PhaseKind::CornucopiaConcurrent).count();
    assert_eq!(stw, 3);
    assert_eq!(conc, 3);
    assert_eq!(rev.stats().epochs, 3);
}
