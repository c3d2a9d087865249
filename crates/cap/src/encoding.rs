//! A concrete 128-bit capability encoding.
//!
//! Packs a capability's bounds the way CHERI Concentrate does: a shared
//! exponent `E` plus base/top mantissas stored relative to the address,
//! with the in-memory layout
//!
//! ```text
//! bits 127..64  address (64)
//! bits  63..48  perms (8) | color (4) | reserved (4)
//! bits  47..42  exponent E (6)
//! bits  41..28  B mantissa (14)
//! bits  27..14  T mantissa (14)
//! bits  13..0   reserved
//! ```
//!
//! [`encode`] fails for bounds that are not representable at the
//! capability's exponent (the same predicate as
//! [`crate::compress::is_representable`]); [`decode`] reconstructs the
//! exact bounds for anything [`encode`] produced. This is *a* faithful
//! encoding with CHERI-Concentrate's structure, not Morello's exact bit
//! layout. The workspace test `tests/encoding_roundtrip.rs` shows that
//! every capability the simulator's memory stores, across pgbench,
//! omnetpp and xalancbmk under Baseline, Cornucopia and Reloaded,
//! round-trips through 128 bits.

use crate::compress::{encoding_exponent as exponent_for, is_representable};
use crate::{CapError, Capability, Perms};

/// A 128-bit encoded capability (tag carried out of band, as in memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Encoded(pub u128);

const MANTISSA_BITS: u32 = 14;

/// Encodes `cap` into 128 bits. Errors with
/// [`CapError::NotRepresentable`] if the bounds do not fit the encoding
/// (never the case for capabilities produced by
/// [`Capability::set_bounds`]), and [`CapError::AddressOverflow`] if the
/// cursor is outside the representable window (such capabilities must be
/// stored untagged).
pub fn encode(cap: &Capability) -> Result<Encoded, CapError> {
    let base = cap.base();
    let len = cap.len();
    if !is_representable(base, len) {
        return Err(CapError::NotRepresentable);
    }
    let e = exponent_for(len);
    if e > 51 {
        return Err(CapError::NotRepresentable);
    }
    let b = base >> e;
    let t = base.checked_add(len).ok_or(CapError::AddressOverflow)? >> e;
    // Mantissas are stored relative to the address's aligned top bits.
    let a_mid = cap.addr() >> e;
    let b_rel = a_mid.wrapping_sub(b);
    let t_rel = t.wrapping_sub(a_mid);
    let span = 1u64 << MANTISSA_BITS;
    if b_rel >= span || t_rel >= span {
        return Err(CapError::AddressOverflow);
    }
    let mut w: u128 = (cap.addr() as u128) << 64;
    w |= u128::from(cap.perms().bits() & 0xff) << 56;
    w |= u128::from(cap.color() & 0xf) << 52;
    w |= u128::from(e & 0x3f) << 42;
    w |= u128::from(b_rel & (span - 1)) << 28;
    w |= u128::from(t_rel & (span - 1)) << 14;
    Ok(Encoded(w))
}

/// Decodes 128 bits back into a capability (tagged; callers apply the
/// out-of-band tag).
#[must_use]
pub fn decode(enc: Encoded) -> Capability {
    let w = enc.0;
    let addr = (w >> 64) as u64;
    let perms = Perms::from_bits_truncate(((w >> 56) & 0xff) as u16);
    let color = ((w >> 52) & 0xf) as u8;
    let e = ((w >> 42) & 0x3f) as u32;
    let b_rel = ((w >> 28) & 0x3fff) as u64;
    let t_rel = ((w >> 14) & 0x3fff) as u64;
    let a_mid = addr >> e;
    let base = a_mid.wrapping_sub(b_rel) << e;
    let top = a_mid.wrapping_add(t_rel) << e;
    Capability::from_decoded_parts(base, top, addr, perms, color)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_small_and_aligned_large() {
        let root = Capability::new_root(0, u64::MAX, Perms::rw());
        for (base, len) in [
            (0x4000_0000u64, 16u64),
            (0x4000_0010, 4096),
            (0x4000_0000, 8192 - 16),
            (0x1234_5670, 128),
            (0x4000_0000, 1 << 20), // large, aligned
            (0x8000_0000, 1 << 30),
        ] {
            let cap = root.set_bounds_exact(base, len).unwrap_or_else(|_| {
                root.set_bounds(base, len).unwrap()
            });
            let enc = encode(&cap).unwrap();
            let back = decode(enc);
            assert_eq!(back.base(), cap.base(), "base for ({base:#x},{len})");
            assert_eq!(back.top(), cap.top(), "top for ({base:#x},{len})");
            assert_eq!(back.addr(), cap.addr());
            assert_eq!(back.perms(), cap.perms());
        }
    }

    #[test]
    fn unrepresentable_bounds_refuse_to_encode() {
        // Hand-construct an unrepresentable pair via from_decoded_parts.
        let cap = Capability::from_decoded_parts(1, (1 << 20) + 1, 1, Perms::rw(), 0);
        assert_eq!(encode(&cap), Err(CapError::NotRepresentable));
    }

    #[test]
    fn colors_ride_the_encoding() {
        let root = Capability::new_root(0x1000, 0x1000, Perms::rw() | Perms::RECOLOR);
        let cap = root.set_bounds(0x1000, 64).unwrap().with_color(11).unwrap();
        let back = decode(encode(&cap).unwrap());
        assert_eq!(back.color(), 11);
    }
}
