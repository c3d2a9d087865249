//! Architectural model of CHERI capabilities.
//!
//! This crate models the subset of the CHERI architecture ([Watson et al.,
//! UCAM-CL-TR-987]) that heap temporal safety depends on (paper §2.1):
//!
//! 1. capabilities carry **bounds**, limiting the addresses they authorize;
//! 2. capabilities are **monotonic** — they may only be derived from a
//!    superset capability, never amplified;
//! 3. validity **tags** perfectly distinguish capabilities from data, and a
//!    cleared tag is permanent (fail-stop on dereference).
//!
//! Bounds are subject to a CHERI-Concentrate-style compression model
//! ([`compress`]): not every `(base, length)` pair is representable, so
//! allocators must round lengths up and align bases (as real CHERI mallocs
//! do; see paper footnote 26 on reservation padding).
//!
//! # Example
//!
//! ```
//! use cheri_cap::{Capability, Perms};
//!
//! // The allocator holds a capability for the whole heap...
//! let heap = Capability::new_root(0x4000_0000, 0x1000_0000, Perms::rw());
//! // ...and derives a bounded capability for one allocation.
//! let obj = heap.set_bounds(0x4000_1000, 64).unwrap();
//! assert!(obj.is_tagged());
//! assert_eq!(obj.base(), 0x4000_1000);
//! assert!(obj.set_bounds(0x4000_0000, 64).is_err()); // monotonicity
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod encoding;

mod perms;
pub use perms::Perms;

use core::fmt;

/// Size in bytes of an in-memory capability, and therefore of the tagged
/// granule: one validity tag covers each naturally-aligned 16-byte word.
pub const CAP_SIZE: u64 = 16;

/// Errors arising from capability manipulation.
///
/// Every constructor or refinement on [`Capability`] that could violate the
/// CHERI monotonicity or representability rules reports one of these instead
/// of silently producing an amplified capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CapError {
    /// The requested bounds are not a subset of the authorizing capability.
    NotSubset,
    /// The requested bounds cannot be represented exactly (and exact
    /// representation was required).
    NotRepresentable,
    /// The authorizing capability's tag is clear; nothing may be derived
    /// from it.
    Untagged,
    /// The requested permissions are not a subset of those held.
    PermissionDenied,
    /// An access fell outside the capability's bounds.
    BoundsViolation,
    /// The address range would overflow the 64-bit address space.
    AddressOverflow,
}

impl fmt::Display for CapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            CapError::NotSubset => "requested bounds are not a subset of the authorizing capability",
            CapError::NotRepresentable => "bounds are not exactly representable under compression",
            CapError::Untagged => "capability tag is clear",
            CapError::PermissionDenied => "requested permissions exceed those held",
            CapError::BoundsViolation => "access is outside capability bounds",
            CapError::AddressOverflow => "address range overflows the address space",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for CapError {}

/// A CHERI capability: a tagged, bounded, permissioned pointer.
///
/// The struct stores the *decompressed* view (base, top, address, perms,
/// colour, tag); the representability constraints of the compressed
/// encoding are enforced at derivation time by [`compress`]. This mirrors
/// how an architectural simulator holds capabilities in registers, while
/// memory stores them in the 128-bit encoding.
///
/// The view is four machine words: permissions, colour and tag share one
/// word. No field has a niche, so an `Option` or `Result` around a
/// capability carries its own discriminant and the capability moves as
/// whole words (the compiler would hide the discriminant in a `bool` tag
/// and split every wrapped capability around that byte).
///
/// `Capability` is `Copy`: copying a capability is exactly what CHERI
/// permits (capabilities are copyable, non-indirected; paper §2.2), and
/// revocation exists precisely because copies cannot be tracked.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    base: u64,
    top: u64,
    addr: u64,
    /// Permissions in bits 0..16, colour in bits 16..24, tag in bit 24.
    meta: u64,
}

const PERMS_MASK: u64 = 0xffff;
const COLOR_SHIFT: u32 = 16;
const COLOR_MASK: u64 = 0xff << COLOR_SHIFT;
const TAG_BIT: u64 = 1 << 24;

impl Capability {
    /// Creates a primordial (root) capability covering `[base, base+len)`.
    ///
    /// Only the simulated kernel/loader should call this; user code derives
    /// everything else monotonically.
    ///
    /// # Panics
    ///
    /// Panics if `base + len` overflows the address space.
    #[must_use]
    pub fn new_root(base: u64, len: u64, perms: Perms) -> Self {
        let top = base.checked_add(len).expect("root capability overflows address space");
        Capability { base, top, addr: base, meta: TAG_BIT | u64::from(perms.bits()) }
    }

    /// Returns the canonical null capability: untagged, zero everything.
    ///
    /// This is the value produced by zeroing memory or by any operation that
    /// strips a tag in-place.
    #[must_use]
    pub const fn null() -> Self {
        Capability { base: 0, top: 0, addr: 0, meta: 0 }
    }

    /// The validity tag. An untagged capability authorizes nothing.
    #[must_use]
    pub const fn is_tagged(&self) -> bool {
        self.meta & TAG_BIT != 0
    }

    /// Lower bound (inclusive). Revocation probes the bitmap at this address
    /// (paper footnote 9): bases cannot be forged out of bounds, so the base
    /// always identifies the allocation a capability derives from.
    #[must_use]
    pub const fn base(&self) -> u64 {
        self.base
    }

    /// Upper bound (exclusive). `u64::MAX` means the capability extends to
    /// the end of the address space (we do not model the 65th bit).
    #[must_use]
    pub const fn top(&self) -> u64 {
        self.top
    }

    /// Length of the authorized region.
    #[must_use]
    pub const fn len(&self) -> u64 {
        self.top - self.base
    }

    /// Whether the authorized region is empty.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.top == self.base
    }

    /// The current address (cursor) of the capability.
    #[must_use]
    pub const fn addr(&self) -> u64 {
        self.addr
    }

    /// The permission set.
    #[must_use]
    pub const fn perms(&self) -> Perms {
        Perms::from_bits_truncate(self.meta as u16)
    }

    /// The capability's memory color (paper §7.3): a small tag, protected
    /// by the capability's integrity, that must match the color of the
    /// memory it dereferences. `0` when coloring is unused.
    #[must_use]
    pub const fn color(&self) -> u8 {
        (self.meta >> COLOR_SHIFT) as u8
    }

    /// Derives a capability with a new color. Requires
    /// [`Perms::RECOLOR`] — only the allocator may mint colored views,
    /// otherwise a client could chase recolored memory (§7.3: color bits
    /// live *under* CHERI's integrity protection).
    ///
    /// A colour above 15 does not fit the encoding's 4-bit field and is
    /// [`CapError::NotRepresentable`].
    pub fn with_color(&self, color: u8) -> Result<Capability, CapError> {
        self.require_tag()?;
        if !self.perms().contains(Perms::RECOLOR) {
            return Err(CapError::PermissionDenied);
        }
        if color > 0xf {
            return Err(CapError::NotRepresentable);
        }
        let mut c = *self;
        c.meta = self.meta & !COLOR_MASK | u64::from(color) << COLOR_SHIFT;
        Ok(c)
    }

    /// Like [`Capability::with_color`] but also *drops* the RECOLOR
    /// authority, producing the client-facing capability.
    pub fn with_color_sealed(&self, color: u8) -> Result<Capability, CapError> {
        let c = self.with_color(color)?;
        let keep = Perms::from_bits_truncate(!Perms::RECOLOR.bits());
        c.and_perms(keep)
    }

    /// Returns a copy with the tag cleared. Used by revocation and by any
    /// operation that would otherwise produce an unrepresentable capability.
    #[must_use]
    pub fn with_tag_cleared(mut self) -> Self {
        self.meta &= !TAG_BIT;
        self
    }

    /// Derives a capability with narrowed bounds, rounding as the
    /// compressed encoding requires (CSetBounds semantics).
    ///
    /// The *requested* region must be a subset of `self`; the *granted*
    /// region is the representable closure of the request and must also be a
    /// subset of `self`, otherwise [`CapError::NotRepresentable`] is
    /// returned (callers such as allocators pre-pad to avoid this).
    pub fn set_bounds(&self, base: u64, len: u64) -> Result<Capability, CapError> {
        self.require_tag()?;
        let top = base.checked_add(len).ok_or(CapError::AddressOverflow)?;
        if base < self.base || top > self.top {
            return Err(CapError::NotSubset);
        }
        let (rbase, rlen) = compress::representable_closure(base, len);
        let rtop = rbase.checked_add(rlen).ok_or(CapError::AddressOverflow)?;
        if rbase < self.base || rtop > self.top {
            return Err(CapError::NotRepresentable);
        }
        Ok(Capability { base: rbase, top: rtop, addr: base, meta: self.meta })
    }

    /// Derives a capability with exactly the requested bounds
    /// (CSetBoundsExact semantics): errors if rounding would be needed.
    pub fn set_bounds_exact(&self, base: u64, len: u64) -> Result<Capability, CapError> {
        let c = self.set_bounds(base, len)?;
        if c.base != base || c.len() != len {
            return Err(CapError::NotRepresentable);
        }
        Ok(c)
    }

    /// Moves the cursor. CHERI allows out-of-bounds cursors, but only within
    /// the encoding's representable window; beyond it the tag is cleared
    /// (the capability becomes permanently useless, paper footnote 9).
    #[must_use]
    pub fn set_addr(&self, addr: u64) -> Capability {
        let mut c = *self;
        c.addr = addr;
        if c.is_tagged() && !compress::addr_in_representable_window(self.base, self.len(), addr) {
            c = c.with_tag_cleared();
        }
        c
    }

    /// Offsets the cursor by `delta` (wrapping), with the same
    /// representability rules as [`Capability::set_addr`].
    #[must_use]
    pub fn offset_addr(&self, delta: i64) -> Capability {
        self.set_addr(self.addr.wrapping_add(delta as u64))
    }

    /// Derives a capability with permissions intersected with `keep`
    /// (CAndPerm semantics). Monotonic: permissions can only shrink.
    pub fn and_perms(&self, keep: Perms) -> Result<Capability, CapError> {
        self.require_tag()?;
        let mut c = *self;
        c.meta &= !PERMS_MASK | u64::from(keep.bits());
        Ok(c)
    }

    /// Checks that an access of `size` bytes at the cursor is authorized
    /// with permissions `need`.
    pub fn check_access(&self, need: Perms, size: u64) -> Result<(), CapError> {
        self.require_tag()?;
        if !self.perms().contains(need) {
            return Err(CapError::PermissionDenied);
        }
        let end = self.addr.checked_add(size).ok_or(CapError::AddressOverflow)?;
        if self.addr < self.base || end > self.top {
            return Err(CapError::BoundsViolation);
        }
        Ok(())
    }

    /// Whether `addr` lies within the capability's bounds.
    #[must_use]
    pub const fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.top
    }

    /// Reconstructs a capability from decoded encoding fields (tagged).
    /// Used by [`crate::encoding::decode`]; not a user-facing constructor —
    /// arbitrary fields here model what a *decoder* produces, and the
    /// encoder refuses to produce unrepresentable ones.
    #[must_use]
    pub fn from_decoded_parts(base: u64, top: u64, addr: u64, perms: Perms, color: u8) -> Self {
        Capability { base, top, addr, meta: TAG_BIT | u64::from(color) << COLOR_SHIFT | u64::from(perms.bits()) }
    }

    fn require_tag(&self) -> Result<(), CapError> {
        if self.is_tagged() {
            Ok(())
        } else {
            Err(CapError::Untagged)
        }
    }
}

impl Default for Capability {
    fn default() -> Self {
        Capability::null()
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Capability")
            .field("tag", &self.is_tagged())
            .field("base", &self.base)
            .field("top", &self.top)
            .field("addr", &self.addr)
            .field("perms", &self.perms())
            .field("color", &self.color())
            .finish()
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cap[{}] {:#x} in [{:#x},{:#x}) {}",
            if self.is_tagged() { "v" } else { "-" },
            self.addr,
            self.base,
            self.top,
            self.perms()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Capability {
        Capability::new_root(0x4000_0000, 0x1000_0000, Perms::rw())
    }

    #[test]
    fn root_covers_requested_range() {
        let c = heap();
        assert!(c.is_tagged());
        assert_eq!(c.base(), 0x4000_0000);
        assert_eq!(c.len(), 0x1000_0000);
        assert_eq!(c.addr(), c.base());
    }

    #[test]
    fn set_bounds_is_monotonic() {
        let c = heap();
        assert_eq!(c.set_bounds(0x3fff_ffff, 16), Err(CapError::NotSubset));
        assert_eq!(c.set_bounds(0x4fff_fff0, 32), Err(CapError::NotSubset));
        let d = c.set_bounds(0x4000_0100, 64).unwrap();
        assert_eq!(d.base(), 0x4000_0100);
        assert_eq!(d.len(), 64);
        // Cannot re-derive the parent from the child.
        assert_eq!(d.set_bounds(0x4000_0000, 0x1000_0000), Err(CapError::NotSubset));
    }

    #[test]
    fn set_bounds_rounds_large_regions() {
        let c = Capability::new_root(0, u64::MAX, Perms::rw());
        // A large, odd length must be rounded up and the base aligned down.
        let d = c.set_bounds(0x1234_5677, 0x0100_0001).unwrap();
        assert!(d.base() <= 0x1234_5677);
        assert!(d.top() >= 0x1234_5677 + 0x0100_0001);
        assert_eq!(d.addr(), 0x1234_5677);
    }

    #[test]
    fn set_bounds_exact_rejects_unrepresentable() {
        let c = Capability::new_root(0, u64::MAX, Perms::rw());
        assert!(c.set_bounds_exact(0, 64).is_ok());
        assert_eq!(c.set_bounds_exact(1, 0x0100_0001), Err(CapError::NotRepresentable));
    }

    #[test]
    fn untagged_derivation_fails() {
        let c = heap().with_tag_cleared();
        assert_eq!(c.set_bounds(0x4000_0000, 16), Err(CapError::Untagged));
        assert_eq!(c.and_perms(Perms::rw()), Err(CapError::Untagged));
        assert_eq!(c.check_access(Perms::LOAD, 1), Err(CapError::Untagged));
    }

    #[test]
    fn perms_only_shrink() {
        let c = heap().and_perms(Perms::LOAD).unwrap();
        assert_eq!(c.perms(), Perms::LOAD);
        let d = c.and_perms(Perms::rw()).unwrap();
        assert_eq!(d.perms(), Perms::LOAD);
        assert_eq!(d.check_access(Perms::STORE, 1), Err(CapError::PermissionDenied));
    }

    #[test]
    fn access_checks_bounds() {
        let c = heap().set_bounds(0x4000_0100, 64).unwrap();
        assert!(c.check_access(Perms::LOAD, 64).is_ok());
        assert_eq!(c.set_addr(0x4000_0130).check_access(Perms::LOAD, 32), Err(CapError::BoundsViolation));
        assert_eq!(c.set_addr(0x4000_00ff).check_access(Perms::LOAD, 1), Err(CapError::BoundsViolation));
    }

    #[test]
    fn far_out_of_bounds_cursor_detags() {
        let c = heap().set_bounds(0x4000_0100, 64).unwrap();
        // Slightly out of bounds stays tagged (CHERI permits oob cursors)...
        assert!(c.set_addr(0x4000_0150).is_tagged());
        // ...but far outside the representable window clears the tag.
        assert!(!c.set_addr(0xffff_ffff_0000_0000).is_tagged());
    }

    #[test]
    fn null_is_inert() {
        let n = Capability::null();
        assert!(!n.is_tagged());
        assert_eq!(n.len(), 0);
        assert_eq!(n, Capability::default());
    }

    #[test]
    fn capability_is_four_words_without_a_niche() {
        assert_eq!(std::mem::size_of::<Capability>(), 32);
        // A niche field would let `Option` hide its discriminant inside the
        // capability, and the compiler would split every wrapped value.
        assert!(std::mem::size_of::<Option<Capability>>() > 32);
    }

    #[test]
    fn a_colour_above_15_is_not_representable() {
        let c = Capability::new_root(0x1000, 0x1000, Perms::rw() | Perms::RECOLOR);
        assert_eq!(c.with_color(16), Err(CapError::NotRepresentable));
        assert_eq!(c.with_color(15).map(|c| c.color()), Ok(15));
    }

    #[test]
    fn display_is_nonempty() {
        let s = heap().to_string();
        assert!(s.contains("0x40000000"));
    }
}
