//! CHERI-Concentrate-style bounds compression model.
//!
//! Real CHERI capabilities are 128 bits: bounds are stored as mantissas
//! relative to the address with a shared exponent (Woodruff et al., "CHERI
//! Concentrate"). The practical consequences modelled here are the ones heap
//! allocators and revokers care about:
//!
//! * small regions (length < 2^(MW-1) with MW = 14, i.e. < 8 KiB) are always
//!   exactly representable at byte granularity;
//! * larger regions must have length a multiple of 2^E and base aligned to
//!   2^E, where E grows with the length — so allocators must pad
//!   ([`representable_length`], [`representable_alignment`]);
//! * a capability's cursor may wander out of bounds only within a limited
//!   *representable window* around its bounds before decoding becomes
//!   ambiguous and the tag must be cleared
//!   ([`addr_in_representable_window`]).
//!
//! This model is faithful in structure, not bit-exact to Morello.

/// Mantissa width of the modelled encoding. Morello uses 14 for 128-bit
/// capabilities; regions shorter than `2^(MW-1)` bytes are exact.
pub const MANTISSA_WIDTH: u32 = 14;

const EXACT_LIMIT: u64 = 1 << (MANTISSA_WIDTH - 1); // 8 KiB

/// Returns the exponent `E` the encoding would choose for a region of
/// `len` bytes: the smallest shift that makes the length fit in the
/// mantissa.
#[must_use]
pub fn exponent(len: u64) -> u32 {
    let bits = 64 - len.leading_zeros();
    bits.saturating_sub(MANTISSA_WIDTH - 1)
}

/// The alignment (in bytes, a power of two) that base and length of a
/// `len`-byte region must satisfy to be representable. This is the CRAP/CRAM
/// ("Capability Representable Alignment Mask") operation exposed to
/// allocators by CHERI ISAs.
#[must_use]
pub fn representable_alignment(len: u64) -> u64 {
    1u64 << exponent_stable(len)
}

/// Rounds `len` up to the next representable length (the CRRL operation).
///
/// The result is a multiple of [`representable_alignment`] of itself, and
/// `>= len` unless rounding up overflows 64 bits (`len` within one
/// alignment step of `u64::MAX`): then it is `len` rounded *down*, so a
/// caller that needs the bound checks `representable_length(len) >= len`.
#[must_use]
pub fn representable_length(len: u64) -> u64 {
    let e = exponent_stable(len);
    if e == 0 {
        return len;
    }
    let mask = u64::MAX << e;
    len.checked_add((1u64 << e) - 1).map_or(mask, |l| l & mask)
}

/// The exponent the 128-bit encoding stores for a region of `len` bytes
/// (the round-up-stable form of [`exponent`]; used by [`crate::encoding`]).
#[must_use]
pub fn encoding_exponent(len: u64) -> u32 {
    exponent_stable(len)
}

/// Exponent after accounting for the round-up possibly carrying into a new
/// most-significant bit (which would itself bump the exponent).
fn exponent_stable(len: u64) -> u32 {
    let e = exponent(len);
    if e == 0 {
        return 0;
    }
    let mask = u64::MAX << e;
    let rounded = len.checked_add((1u64 << e) - 1).map_or(mask, |l| l & mask);
    exponent(rounded)
}

/// Whether `(base, len)` is exactly representable.
#[must_use]
pub fn is_representable(base: u64, len: u64) -> bool {
    let align = representable_alignment(len);
    base.is_multiple_of(align) && representable_length(len) == len
}

/// The representable closure of a requested region: base rounded down and
/// top rounded up to the encoding's alignment. This is what CSetBounds
/// grants when the request is not exact.
#[must_use]
pub fn representable_closure(base: u64, len: u64) -> (u64, u64) {
    let top = base.saturating_add(len);
    let mut align = representable_alignment(len);
    loop {
        if align == 0 || align > (1 << 62) {
            // Degenerate huge region: grant the whole address space.
            return (0, u64::MAX);
        }
        let rbase = base & !(align - 1);
        let rtop = top.checked_add(align - 1).map_or(!(align - 1), |t| t & !(align - 1));
        let rlen = rtop - rbase;
        // Widening the region may have pushed it into a coarser exponent;
        // iterate until stable (terminates: align is monotone, <= 2^63).
        let need = representable_alignment(rlen);
        if need <= align && representable_length(rlen) == rlen {
            return (rbase, rlen);
        }
        align = need.max(align << 1);
    }
}

/// Whether moving a capability's cursor to `addr` keeps the encoding
/// decodable. The window extends one quarter of the mantissa span below the
/// base and above the top (a conservative model of Morello's window).
#[must_use]
pub fn addr_in_representable_window(base: u64, len: u64, addr: u64) -> bool {
    let e = exponent_stable(len);
    if e == 0 {
        // Small regions: window is +/- 4 KiB-ish (1/4 of the 16 KiB span).
        let slack = EXACT_LIMIT / 2;
        let lo = base.saturating_sub(slack);
        let hi = base.saturating_add(len).saturating_add(slack);
        return addr >= lo && addr < hi;
    }
    let span = (1u64 << MANTISSA_WIDTH).saturating_shl(e);
    let slack = span / 4;
    let lo = base.saturating_sub(slack);
    let hi = base.saturating_add(len).saturating_add(slack);
    addr >= lo && addr < hi
}

trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if rhs >= 64 || self.leading_zeros() < rhs {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_lengths_are_exact() {
        for len in [0u64, 1, 15, 16, 100, 4096, EXACT_LIMIT - 1] {
            assert_eq!(representable_length(len), len, "len={len}");
            assert_eq!(representable_alignment(len), 1, "len={len}");
            assert!(is_representable(0x1234_5677, len), "len={len}");
        }
    }

    #[test]
    fn large_lengths_round_up() {
        let len = EXACT_LIMIT + 1;
        let r = representable_length(len);
        assert!(r >= len);
        assert_eq!(r % representable_alignment(r), 0);
    }

    #[test]
    fn rounding_that_overflows_rounds_down() {
        for len in [u64::MAX, u64::MAX - (1 << 40)] {
            let r = representable_length(len);
            assert!(r < len, "len={len:#x}");
            assert_eq!(r % representable_alignment(r), 0);
        }
    }

    #[test]
    fn rounding_is_idempotent() {
        for len in [0u64, 1, 8191, 8193, 65537, 0x0100_0001, 1 << 40, (1 << 40) + 3] {
            let r = representable_length(len);
            assert_eq!(representable_length(r), r, "len={len}");
        }
    }

    #[test]
    fn closure_contains_request() {
        for &(base, len) in &[(7u64, 8193u64), (0x1234_5677, 0x0100_0001), (0, 1 << 40), (12345, 1)] {
            let (rb, rl) = representable_closure(base, len);
            assert!(rb <= base);
            assert!(rb + rl >= base + len);
            assert!(is_representable(rb, rl), "base={base} len={len} -> ({rb},{rl})");
        }
    }

    #[test]
    fn exponent_grows_with_length() {
        assert_eq!(exponent(4096), 0);
        assert!(exponent(1 << 20) > 0);
        assert!(exponent(1 << 40) > exponent(1 << 20));
    }

    #[test]
    fn window_contains_bounds_and_modest_overshoot() {
        assert!(addr_in_representable_window(0x1000, 64, 0x1000));
        assert!(addr_in_representable_window(0x1000, 64, 0x1040));
        assert!(addr_in_representable_window(0x1000, 64, 0x1100)); // slightly past
        assert!(!addr_in_representable_window(0x1000, 64, 0xffff_0000_0000));
    }
}
