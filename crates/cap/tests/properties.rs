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

    /// The packed representation loses nothing: after every constructor
    /// and derivation, the accessors read back exactly the six fields a
    /// plain struct applying the same rules holds.
    fn accessors_read_back_every_field(
        bounds in (0u64..1 << 44, 0u64..1 << 32, 0u64..1 << 33),
        sub in (0u64..1 << 33, 0u64..1 << 24),
        cursor in (0u64..1 << 34, 0u8..3),
        perms in (0u16..256, 0u16..256),
        colors in (0u8..=15, 0u8..=16),
        tag in 0u8..2,
    ) {
        let (base, len, addr_off) = bounds;
        let held = Perms::from_bits_truncate(perms.0);
        let keep = Perms::from_bits_truncate(perms.1);
        let root = Capability::new_root(base, len, held);
        sim_assert_eq!(
            Fields::of(root),
            Fields { tag: true, base, top: base + len, addr: base, perms: held, color: 0 }
        );

        let mut cap = Capability::from_decoded_parts(base, base + len, base + addr_off, held, colors.0);
        let mut model = Fields { tag: true, base, top: base + len, addr: base + addr_off, perms: held, color: colors.0 };
        if tag == 0 {
            cap = cap.with_tag_cleared();
            model.tag = false;
        }
        sim_assert_eq!(Fields::of(cap), model);
        sim_assert_eq!(Fields::of(cap.with_tag_cleared()), Fields { tag: false, ..model });

        let (off, sub_len) = sub;
        let sub_base = base + off % len.max(1);
        sim_assert_eq!(cap.set_bounds(sub_base, sub_len).map(Fields::of), model.set_bounds(sub_base, sub_len));

        let (delta, how) = cursor;
        let target = match how {
            0 => base + delta,
            1 => base.wrapping_sub(delta),
            _ => delta | 1 << 60,
        };
        sim_assert_eq!(Fields::of(cap.set_addr(target)), model.set_addr(target));

        sim_assert_eq!(cap.and_perms(keep).map(Fields::of), model.and_perms(keep));
        let (_, color) = colors;
        sim_assert_eq!(cap.with_color(color).map(Fields::of), model.with_color(color));
        sim_assert_eq!(
            cap.with_color_sealed(color).map(Fields::of),
            model.with_color(color).and_then(|m| m.and_perms(Perms::from_bits_truncate(!Perms::RECOLOR.bits())))
        );
    }
}

/// The six-field view of a capability, with the derivation rules applied
/// field by field: the reference the packed `Capability` is compared with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fields {
    tag: bool,
    base: u64,
    top: u64,
    addr: u64,
    perms: Perms,
    color: u8,
}

impl Fields {
    fn of(c: Capability) -> Fields {
        Fields { tag: c.is_tagged(), base: c.base(), top: c.top(), addr: c.addr(), perms: c.perms(), color: c.color() }
    }

    fn tagged(self) -> Result<Fields, CapError> {
        if self.tag {
            Ok(self)
        } else {
            Err(CapError::Untagged)
        }
    }

    fn set_bounds(self, base: u64, len: u64) -> Result<Fields, CapError> {
        self.tagged()?;
        let top = base.checked_add(len).ok_or(CapError::AddressOverflow)?;
        if base < self.base || top > self.top {
            return Err(CapError::NotSubset);
        }
        let (rbase, rlen) = compress::representable_closure(base, len);
        let rtop = rbase.checked_add(rlen).ok_or(CapError::AddressOverflow)?;
        if rbase < self.base || rtop > self.top {
            return Err(CapError::NotRepresentable);
        }
        Ok(Fields { base: rbase, top: rtop, addr: base, ..self })
    }

    fn set_addr(self, addr: u64) -> Fields {
        let window = compress::addr_in_representable_window(self.base, self.top - self.base, addr);
        Fields { addr, tag: self.tag && window, ..self }
    }

    fn and_perms(self, keep: Perms) -> Result<Fields, CapError> {
        Ok(Fields { perms: self.tagged()?.perms & keep, ..self })
    }

    fn with_color(self, color: u8) -> Result<Fields, CapError> {
        if !self.tagged()?.perms.contains(Perms::RECOLOR) {
            return Err(CapError::PermissionDenied);
        }
        if color > 15 {
            return Err(CapError::NotRepresentable);
        }
        Ok(Fields { color, ..self })
    }
}
