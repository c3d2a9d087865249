//! Use-after-free, with and without revocation.
//!
//! The attacker's goal (paper §2.2.2) is use-after-*reallocation*: keep a
//! dangling pointer until the allocator hands the same storage to a new
//! victim object, then read or corrupt the victim through the stale
//! pointer. This example runs the identical attack under three regimes:
//!
//! * **no quarantine** (baseline): the attack succeeds — the stale pointer
//!   aliases the victim;
//! * **Cornucopia Reloaded**: the stale pointer's tag is cleared by the
//!   epoch that must complete before reuse; dereference traps;
//! * **CHERIoT-style load filter** (§6.3): the stale pointer is already
//!   dead on load, *before* any epoch completes.
//!
//! Run with: `cargo run --example uaf_failstop`

use cornucopia_reloaded::prelude::*;

const SECRET: u64 = 0x5e_c2e7_c0de;

fn main() {
    attack_without_revocation();
    attack_under_reloaded();
    attack_under_cheriot_filter();
    println!("\nuaf_failstop OK");
}

/// Baseline: free + immediate reuse. The dangling pointer aliases the
/// victim: a classic UAR read primitive.
fn attack_without_revocation() {
    let (mut machine, _revoker, mut heap, stash) = setup();
    let p = heap.alloc(&mut machine, 3, 256).unwrap().cap;
    machine.store_cap(3, &stash, p).unwrap(); // attacker keeps an alias
    heap.free_immediate(&mut machine, 3, p).unwrap();

    // Victim allocates; LIFO free lists hand it the same storage.
    let victim = heap.alloc(&mut machine, 3, 256).unwrap().cap;
    assert_eq!(victim.base(), p.base(), "storage reused immediately");
    // The secret is a plain word: an untagged capability carrying it.
    machine.store_cap(3, &victim, Capability::null().set_addr(SECRET)).unwrap();

    // The attacker reads the victim's data through the stale pointer.
    let (stale, _) = machine.load_cap(3, &stash).unwrap();
    assert!(stale.is_tagged(), "without revocation the alias stays live");
    let (word, _) = machine.load_cap(3, &stale).unwrap();
    assert!(!word.is_tagged(), "the victim's word is data, not a capability");
    let leaked = word.addr();
    assert_eq!(leaked, SECRET);
    println!("baseline:        UAR succeeded — leaked {leaked:#x} through the dangling pointer");
}

/// Reloaded: quarantine + epoch. Reuse cannot happen until every alias is
/// gone, so the attacker's pointer is dead before the victim exists.
fn attack_under_reloaded() {
    let (mut machine, mut revoker, mut heap, stash) = setup();
    let p = heap.alloc(&mut machine, 3, 256).unwrap().cap;
    machine.store_cap(3, &stash, p).unwrap();
    heap.free(&mut machine, &mut revoker, 3, p).unwrap();

    // Allocation before the epoch cannot alias the quarantined object...
    let early = heap.alloc(&mut machine, 3, 256).unwrap().cap;
    assert_ne!(early.base(), p.base(), "quarantine forbids aliasing reuse");

    // ...and after the epoch, the alias is gone.
    heap.seal(&revoker);
    revoker.start_epoch(&mut machine);
    while revoker.is_revoking() {
        if matches!(revoker.background_step(&mut machine, 100_000), StepOutcome::NeedsFinalStw { .. }) {
            revoker.finish_stw(&mut machine, 1);
        }
    }
    heap.poll_release(&mut machine, &mut revoker, 3);
    let victim = heap.alloc(&mut machine, 3, 256).unwrap().cap;
    assert_eq!(victim.base(), p.base(), "storage eventually reused");

    let (stale, _) = machine.load_cap(3, &stash).unwrap();
    assert!(!stale.is_tagged(), "alias revoked before reuse");
    let err = machine.read_data(3, &stale, 8).unwrap_err();
    println!("reloaded:        UAR blocked — dereference faulted: {err}");
}

/// CHERIoT-style filter: the load itself detags the stale pointer — no
/// epoch visible to the attacker at all.
fn attack_under_cheriot_filter() {
    let mut machine = Machine::new(4);
    let layout = HeapLayout::new(0x4000_0000, 16 << 20);
    let mut revoker = Revoker::new(
        RevokerConfig { strategy: Strategy::CheriotFilter, ..RevokerConfig::default() },
        layout.base,
        layout.total_len,
    );
    let mut heap = Mrs::new(layout, MrsConfig::default());
    let stash = heap.alloc(&mut machine, 3, 64).unwrap().cap;

    let p = heap.alloc(&mut machine, 3, 256).unwrap().cap;
    machine.store_cap(3, &stash, p).unwrap();
    heap.free(&mut machine, &mut revoker, 3, p).unwrap();

    let (raw, _) = machine.load_cap(3, &stash).unwrap();
    let (filtered, _) = revoker.filter_loaded(&mut machine, 3, raw);
    assert!(!filtered.is_tagged(), "the load filter kills painted caps on sight");
    println!("cheriot filter:  UAF dead on load — no revocation pass needed");
}

fn setup() -> (Machine, Revoker, Mrs, Capability) {
    let mut machine = Machine::new(4);
    let layout = HeapLayout::new(0x4000_0000, 16 << 20);
    let revoker = Revoker::new(
        RevokerConfig { strategy: Strategy::Reloaded, ..RevokerConfig::default() },
        layout.base,
        layout.total_len,
    );
    let mut heap = Mrs::new(layout, MrsConfig::default());
    let stash = heap.alloc(&mut machine, 3, 64).unwrap().cap;
    (machine, revoker, heap, stash)
}
