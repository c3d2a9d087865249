//! Property-based tests for the capability model's architectural
//! invariants: monotonicity, representability closure, and tag discipline.

use cheri_cap::compress;
use cheri_cap::{CapError, Capability, Perms};
use simtest::{sim_assert, sim_assert_eq, sim_assume};

simtest::props! {
    /// CRRL: rounding never shrinks, is idempotent, and satisfies CRAM
    /// alignment.
    fn representable_length_is_sound(len in 0u64..=1 << 48) {
        let r = compress::representable_length(len);
        sim_assert!(r >= len);
        sim_assert_eq!(compress::representable_length(r), r);
        let align = compress::representable_alignment(r);
        sim_assert_eq!(r % align, 0);
    }

    /// The representable closure contains the requested region and is itself
    /// exactly representable.
    fn closure_is_superset_and_representable(base in 0u64..1 << 48, len in 0u64..1 << 40) {
        let (rb, rl) = compress::representable_closure(base, len);
        sim_assert!(rb <= base);
        sim_assert!(rb.checked_add(rl).is_some());
        sim_assert!(rb + rl >= base.saturating_add(len));
        sim_assert!(compress::is_representable(rb, rl));
    }

    /// Derived capabilities are always subsets of their parent (monotonicity)
    /// and their cursor starts at the requested base.
    fn set_bounds_monotonic(
        pbase in 0u64..1 << 40,
        plen in 1u64..1 << 32,
        off in 0u64..1 << 32,
        len in 0u64..1 << 20,
    ) {
        let parent = Capability::new_root(pbase, plen, Perms::rw());
        let base = pbase + off % plen;
        match parent.set_bounds(base, len) {
            Ok(child) => {
                sim_assert!(child.base() >= parent.base());
                sim_assert!(child.top() <= parent.top());
                sim_assert!(child.is_tagged());
                sim_assert_eq!(child.addr(), base);
                // Child can never re-derive anything outside itself.
                if parent.base() >= 16 {
                    sim_assert_eq!(
                        child.set_bounds(parent.base() - 16, 16).err(),
                        Some(CapError::NotSubset)
                    );
                }
            }
            Err(CapError::NotSubset) => {
                sim_assert!(base.checked_add(len).is_none_or(|t| t > parent.top() || base < parent.base()));
            }
            Err(CapError::NotRepresentable) | Err(CapError::AddressOverflow) => {}
            Err(e) => sim_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Permissions only shrink under derivation.
    fn perms_monotonic(bits_a in 0u16..128, bits_b in 0u16..128) {
        let a = Perms::from_bits_truncate(bits_a);
        let b = Perms::from_bits_truncate(bits_b);
        let parent = Capability::new_root(0x1000, 0x1000, a);
        let child = parent.and_perms(b).unwrap();
        sim_assert!(a.contains(child.perms()));
        sim_assert!(b.contains(child.perms()));
    }

    /// An untagged capability authorizes nothing, no matter its fields.
    fn untagged_is_inert(addr in 0u64..1 << 48, size in 0u64..4096) {
        let c = Capability::new_root(0, 1 << 48, Perms::all()).with_tag_cleared();
        sim_assert_eq!(c.set_addr(addr).check_access(Perms::LOAD, size), Err(CapError::Untagged));
    }

    /// Every capability the architecture can produce via `set_bounds`
    /// round-trips losslessly through the 128-bit encoding.
    fn encoding_roundtrip(
        base in 0u64..1 << 44,
        len in 0u64..1 << 32,
        cursor_off in 0u64..1 << 16,
    ) {
        use cheri_cap::encoding::{decode, encode};
        let root = Capability::new_root(0, 1 << 45, Perms::rw());
        if let Ok(cap) = root.set_bounds(base, len) {
            let cap = cap.set_addr(cap.base() + cursor_off % cap.len().max(1));
            sim_assume!(cap.is_tagged());
            let back = decode(encode(&cap).expect("set_bounds output must encode"));
            sim_assert_eq!(back.base(), cap.base());
            sim_assert_eq!(back.top(), cap.top());
            sim_assert_eq!(back.addr(), cap.addr());
            sim_assert_eq!(back.perms(), cap.perms());
            sim_assert_eq!(back.color(), cap.color());
        }
    }

    /// Cursor movement inside bounds always preserves the tag; the tag is
    /// never restored by moving back in bounds after a far excursion.
    fn cursor_tag_discipline(base in 0u64..1 << 40, len in 16u64..1 << 16, off in 0u64..1 << 16) {
        let root = Capability::new_root(base, len, Perms::rw());
        let inside = root.set_addr(base + off % len);
        sim_assert!(inside.is_tagged());
        let far = root.set_addr(base.wrapping_add(1 << 60));
        if !far.is_tagged() {
            sim_assert!(!far.set_addr(base).is_tagged());
        }
    }
}
