//! Page table entries and mapping flags.

/// Flags for establishing a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapFlags {
    /// User reads allowed.
    pub read: bool,
    /// User writes allowed.
    pub write: bool,
    /// Tagged capability stores allowed. CheriBSD forbids these on shared
    /// file mappings (paper footnote 13); anonymous heap memory allows them.
    pub cap_store: bool,
    /// A guard mapping: any access faults. Used by the reservation machinery
    /// (paper §6.2) to keep `munmap`ed holes unusable.
    pub guard: bool,
}

impl MapFlags {
    /// Ordinary anonymous user memory: read/write, capability stores allowed.
    #[must_use]
    pub const fn user_rw() -> Self {
        MapFlags { read: true, write: true, cap_store: true, guard: false }
    }

    /// Read-only user memory.
    #[must_use]
    pub const fn user_ro() -> Self {
        MapFlags { read: true, write: false, cap_store: false, guard: false }
    }

    /// Shared-file-style memory: data read/write, no tagged stores.
    #[must_use]
    pub const fn user_rw_nocap() -> Self {
        MapFlags { read: true, write: true, cap_store: false, guard: false }
    }

    /// A guard mapping (all accesses fault).
    #[must_use]
    pub const fn guard() -> Self {
        MapFlags { read: false, write: false, cap_store: false, guard: true }
    }
}

/// A page table entry.
///
/// In addition to conventional permissions, carries the two CHERI extension
/// bits the paper's revokers rely on:
///
/// * `cap_dirty` — set by hardware on the first tagged capability store to
///   the page (store barrier, §4.2). Cleared only by the revoker, with a
///   TLB shootdown.
/// * `load_gen` — the capability load generation bit (§4.1). A tag-asserted
///   capability load traps when this differs from the core's generation
///   register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// User read permission.
    pub read: bool,
    /// User write permission.
    pub write: bool,
    /// Whether tagged capability stores are permitted.
    pub cap_store: bool,
    /// Guard mapping: every access faults.
    pub guard: bool,
    /// Capability-dirty: a tagged capability store has hit this page since
    /// the revoker last cleaned it.
    pub cap_dirty: bool,
    /// Capability load generation bit.
    pub load_gen: bool,
}

impl Pte {
    /// Creates a PTE with the given flags, inheriting the current
    /// address-space load generation. The mapping is the identity, so a
    /// PTE names no frame.
    #[must_use]
    pub fn new(flags: MapFlags, load_gen: bool) -> Self {
        Pte {
            read: flags.read,
            write: flags.write,
            cap_store: flags.cap_store,
            guard: flags.guard,
            cap_dirty: false,
            load_gen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_pte_inherits_generation_and_is_clean() {
        let p = Pte::new(MapFlags::user_rw(), true);
        assert!(p.load_gen);
        assert!(!p.cap_dirty);
        assert!(p.cap_store);
        assert!(!p.guard);
    }

    #[test]
    fn guard_flags_deny_everything() {
        let f = MapFlags::guard();
        assert!(!f.read && !f.write && !f.cap_store && f.guard);
    }
}
