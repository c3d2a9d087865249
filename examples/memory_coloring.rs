//! The CHERI + memory-coloring composition (paper §7.3).
//!
//! Plain quarantine leaves a gap between use-after-free and
//! use-after-reallocation: a dangling pointer keeps working (against the
//! old object) until the next revocation pass. The §7.3 composition closes
//! it: `free` re-colors the storage, so every stale capability dies *at
//! free time* — and because reuse no longer waits for revocation,
//! revocation runs ~16x less often.
//!
//! Run with: `cargo run --example memory_coloring`

use cornucopia_reloaded::prelude::*;

fn main() {
    let mut machine = Machine::new(4);
    let layout = HeapLayout::new(0x4000_0000, 32 << 20);
    let mut revoker = Revoker::new(
        RevokerConfig { strategy: Strategy::Reloaded, ..RevokerConfig::default() },
        layout.base,
        layout.total_len,
    );
    let mut heap = Mrs::new(
        layout,
        MrsConfig { min_quarantine_bytes: 1 << 20, colors: 16, ..MrsConfig::default() },
    );

    // -- Allocate: the capability carries its storage's color -----------
    let keeper = heap.alloc(&mut machine, 3, 64).unwrap().cap;
    let p = heap.alloc(&mut machine, 3, 1024).unwrap().cap;
    println!("allocated:  {p}  (color {})", p.color());
    machine.store_cap(3, &keeper, p).unwrap(); // the attacker's alias

    // -- Free: stale pointers die instantly, storage recycles instantly --
    heap.free(&mut machine, &mut revoker, 3, p).unwrap();
    let (stale, _) = machine.load_cap(3, &keeper).unwrap();
    let err = machine.read_data(3, &stale, 8).unwrap_err();
    println!("after free: dereference fails immediately: {err}");
    assert!(matches!(err, VmFault::ColorMismatch { .. }));

    let q = heap.alloc(&mut machine, 3, 1024).unwrap().cap;
    println!("reused:     {q}  (color {}) — same storage, no revocation pass", q.color());
    assert_eq!(q.base(), p.base());
    assert_eq!(q.color(), p.color() + 1);

    // Stores through the stale pointer are silently discarded: the new
    // owner's data cannot be corrupted. Its first word is a pointer, whose
    // tag a data write that landed would clear.
    machine.write_data(3, &q, 1024).unwrap();
    machine.store_cap(3, &q, keeper).unwrap();
    let _ = machine.write_data(3, &stale, 8); // discarded
    let (word, _) = machine.load_cap(3, &q).unwrap();
    assert_eq!(word, keeper, "a stale store reached the new owner");
    println!("discarded stores so far: {}", machine.vm_stats().discarded_stores);

    // -- Revocation pressure drops ~16x ----------------------------------
    let mut passes = 0;
    for _ in 0..600 {
        let t = heap.alloc(&mut machine, 3, 8 << 10).unwrap().cap;
        let e = heap.free(&mut machine, &mut revoker, 3, t).unwrap();
        if e.trigger_revocation {
            passes += 1;
            revoker.start_epoch(&mut machine);
            while revoker.is_revoking() {
                revoker.background_step(&mut machine, 10_000_000);
            }
            heap.poll_release(&mut machine, &mut revoker, 3);
        }
    }
    let s = heap.stats();
    let exhausted = s.frees - s.recolored_frees;
    println!(
        "600 churn cycles: {} immediate recycles, {exhausted} exhausted-quarantines, {passes} revocation pass(es)",
        s.recolored_frees
    );
    assert!(s.recolored_frees > exhausted * 10);
    println!("\nmemory_coloring OK");
}
