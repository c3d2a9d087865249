//! The revocation ("shadow") bitmap (paper §2.2.2).
//!
//! Each 16-byte, naturally-aligned granule of the heap has one bit; a set
//! bit means capabilities whose **base** points at that granule are to be
//! revoked (bases, not cursors, because CHERI guarantees bases cannot be
//! forged out of bounds — footnote 9). The bitmap is a kernel-provided
//! object in virtual memory: user allocators paint it on `free` and the
//! kernel reads it during sweeps, so probes and paints are charged memory
//! traffic at the bitmap's own virtual addresses.
//!
//! The bitmap is two-level: above the granule bits sits a summary with one
//! "any painted" bit per 64-granule word. Paints and unpaints write whole
//! words through precomputed masks instead of looping per granule, and
//! probes consult the (64× denser, hence cache-resident) summary first, so
//! sweeps of clean regions short-circuit without touching the full bitmap.

use cheri_cap::CAP_SIZE;
use cheri_mem::CoreId;
use cheri_vm::Machine;

/// Virtual base address at which the bitmap is nominally mapped (for
/// traffic accounting; well above any simulated heap).
pub const BITMAP_VA_BASE: u64 = 0x10_0000_0000;

/// Virtual base address of the summary level: one bit per 64-granule
/// bitmap word, 64× denser than the bitmap itself (traffic accounting).
pub const BITMAP_SUMMARY_VA_BASE: u64 = BITMAP_VA_BASE + 0x8_0000_0000;

/// A revocation bitmap covering one contiguous heap arena.
#[derive(Debug, Clone)]
pub struct RevocationBitmap {
    heap_base: u64,
    heap_len: u64,
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set iff `words[w] != 0`.
    summary: Vec<u64>,
    painted_granules: u64,
}

impl RevocationBitmap {
    /// Creates a bitmap covering `[heap_base, heap_base + heap_len)`.
    /// `heap_base` and `heap_len` must be granule-aligned.
    #[must_use]
    pub fn new(heap_base: u64, heap_len: u64) -> Self {
        assert_eq!(heap_base % CAP_SIZE, 0, "heap base must be granule-aligned");
        assert_eq!(heap_len % CAP_SIZE, 0, "heap length must be granule-aligned");
        let granules = (heap_len / CAP_SIZE) as usize;
        let words = granules.div_ceil(64);
        RevocationBitmap {
            heap_base,
            heap_len,
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            painted_granules: 0,
        }
    }

    fn index(&self, addr: u64) -> Option<usize> {
        if addr < self.heap_base || addr >= self.heap_base + self.heap_len {
            return None;
        }
        Some(((addr - self.heap_base) / CAP_SIZE) as usize)
    }

    /// The bitmap's own virtual address holding the bit for `addr` (used
    /// for traffic charging). Only meaningful for in-arena addresses:
    /// below-arena addresses saturate onto granule 0's byte, which is why
    /// the charging paths clamp to [`RevocationBitmap::granule_span`]
    /// instead of calling this on raw bases.
    #[must_use]
    pub fn shadow_addr(&self, addr: u64) -> u64 {
        BITMAP_VA_BASE + (addr.saturating_sub(self.heap_base) / CAP_SIZE) / 8
    }

    /// The summary level's virtual address holding the bit for bitmap
    /// word `w`.
    fn summary_shadow_addr(w: usize) -> u64 {
        BITMAP_SUMMARY_VA_BASE + (w / 8) as u64
    }

    /// The contiguous run of granule indices that `[base, base+len)`
    /// covers after clamping to the arena, or `None` when the range
    /// misses the arena entirely. Matches the historical per-granule
    /// loop exactly: granules are visited at `CAP_SIZE` strides from
    /// `base`, so an unaligned base keeps its legacy coverage.
    fn granule_span(&self, base: u64, len: u64) -> Option<(usize, usize)> {
        let steps = (base.saturating_add(len) - base).div_ceil(CAP_SIZE);
        if steps == 0 {
            return None;
        }
        let granules = (self.heap_len / CAP_SIZE) as usize;
        let (g0, k_lo) = if base >= self.heap_base {
            (((base - self.heap_base) / CAP_SIZE) as usize, 0)
        } else {
            (0, (self.heap_base - base).div_ceil(CAP_SIZE))
        };
        if k_lo >= steps || g0 >= granules {
            return None;
        }
        Some((g0, ((steps - k_lo) as usize).min(granules - g0)))
    }

    /// Paints `[base, base+len)` as quarantined (all corresponding bits
    /// set), charging `core` the store traffic. Returns the cycle cost.
    /// Ranges that miss the arena are ignored — no bits, no traffic.
    pub fn paint(&mut self, machine: &mut Machine, core: CoreId, base: u64, len: u64) -> u64 {
        self.set_range_charged(machine, core, base, len, true)
    }

    /// Clears `[base, base+len)` (dequarantine after a completed epoch),
    /// charging `core` the store traffic. Returns the cycle cost.
    pub fn unpaint(&mut self, machine: &mut Machine, core: CoreId, base: u64, len: u64) -> u64 {
        self.set_range_charged(machine, core, base, len, false)
    }

    fn set_range_charged(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        base: u64,
        len: u64,
        value: bool,
    ) -> u64 {
        let Some((g0, count)) = self.set_range(base, len, value) else {
            return 0;
        };
        let bytes = (count as u64 / 8).max(1);
        machine.mem_mut().touch_write(core, BITMAP_VA_BASE + g0 as u64 / 8, bytes) + count as u64
    }

    /// Sets or clears the covered granule run word-at-a-time through
    /// masks, maintaining the painted count and the summary level.
    /// Returns the covered `(first_granule, count)`, or `None` if the
    /// range misses the arena.
    fn set_range(&mut self, base: u64, len: u64, value: bool) -> Option<(usize, usize)> {
        let (g0, count) = self.granule_span(base, len)?;
        let (mut g, end) = (g0, g0 + count);
        while g < end {
            let (w, lo) = (g / 64, g % 64);
            let run = (end - g).min(64 - lo);
            let mask = (u64::MAX >> (64 - run)) << lo;
            let old = self.words[w];
            let new = if value { old | mask } else { old & !mask };
            if new != old {
                self.words[w] = new;
                let delta = u64::from((new ^ old).count_ones());
                if value {
                    self.painted_granules += delta;
                } else {
                    self.painted_granules -= delta;
                }
                let (sw, sb) = (w / 64, w % 64);
                if new != 0 {
                    self.summary[sw] |= 1 << sb;
                } else {
                    self.summary[sw] &= !(1 << sb);
                }
            }
            g += run;
        }
        Some((g0, count))
    }

    /// Probes the bit for `addr` without traffic accounting (pure lookup).
    /// Short-circuits on the summary level for clean regions.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        self.index(addr).is_some_and(|i| {
            let w = i / 64;
            self.summary[w / 64] >> (w % 64) & 1 == 1 && self.words[w] >> (i % 64) & 1 == 1
        })
    }

    /// Probes the bit for `addr`, charging `core` the bitmap-load traffic.
    /// Returns `(painted, cycles)`. The summary word is read first; only
    /// when its "any painted" bit is set does the probe descend to the
    /// full bitmap word, so sweeps over clean heap keep their working set
    /// 64× smaller.
    pub fn probe_charged(&self, machine: &mut Machine, core: CoreId, addr: u64) -> (bool, u64) {
        let Some(i) = self.index(addr) else {
            return (false, 2);
        };
        let w = i / 64;
        let mut cycles = machine.mem_mut().touch_read(core, Self::summary_shadow_addr(w), 8) + 2;
        if self.summary[w / 64] >> (w % 64) & 1 == 0 {
            return (false, cycles);
        }
        cycles += machine.mem_mut().touch_read(core, BITMAP_VA_BASE + (i / 8) as u64, 8);
        (self.words[w] >> (i % 64) & 1 == 1, cycles)
    }

    /// Number of currently painted granules.
    #[must_use]
    pub fn painted_granules(&self) -> u64 {
        self.painted_granules
    }

    /// Painted bytes (granules × 16).
    #[must_use]
    pub fn painted_bytes(&self) -> u64 {
        self.painted_granules * CAP_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> (Machine, RevocationBitmap) {
        (Machine::new(1), RevocationBitmap::new(0x4000_0000, 0x10_0000))
    }

    #[test]
    fn paint_probe_unpaint_roundtrip() {
        let (mut m, mut b) = mk();
        assert!(!b.probe(0x4000_1000));
        b.paint(&mut m, 0, 0x4000_1000, 64);
        for g in 0..4 {
            assert!(b.probe(0x4000_1000 + g * 16));
        }
        assert!(!b.probe(0x4000_0ff0));
        assert!(!b.probe(0x4000_1040));
        assert_eq!(b.painted_bytes(), 64);
        b.unpaint(&mut m, 0, 0x4000_1000, 64);
        assert!(!b.probe(0x4000_1000));
        assert_eq!(b.painted_granules(), 0);
    }

    #[test]
    fn out_of_arena_addresses_are_ignored() {
        let (mut m, mut b) = mk();
        b.paint(&mut m, 0, 0x1000, 64); // below the arena
        assert_eq!(b.painted_granules(), 0);
        assert!(!b.probe(0x1000));
    }

    #[test]
    fn out_of_arena_paint_charges_no_traffic() {
        let (mut m, mut b) = mk();
        let before = m.mem().traffic(0);
        // Below, above, and zero-length: none may alias granule 0's
        // shadow byte (the historical saturating_sub bug).
        assert_eq!(b.paint(&mut m, 0, 0x1000, 64), 0);
        assert_eq!(b.paint(&mut m, 0, 0x5000_0000, 64), 0);
        assert_eq!(b.unpaint(&mut m, 0, 0x1000, 64), 0);
        let after = m.mem().traffic(0);
        assert_eq!(before.dram_transactions, after.dram_transactions);
    }

    #[test]
    fn paint_straddling_arena_start_clamps() {
        let (mut m, mut b) = mk();
        // 4 granules below the base, 4 inside.
        b.paint(&mut m, 0, 0x4000_0000 - 64, 128);
        assert_eq!(b.painted_granules(), 4);
        assert!(b.probe(0x4000_0000));
        assert!(b.probe(0x4000_0030));
        assert!(!b.probe(0x4000_0040));
    }

    #[test]
    fn full_arena_paint_and_unpaint() {
        let (mut m, mut b) = mk();
        let granules = 0x10_0000 / CAP_SIZE;
        b.paint(&mut m, 0, 0x4000_0000, 0x10_0000);
        assert_eq!(b.painted_granules(), granules);
        assert!(b.probe(0x4000_0000));
        assert!(b.probe(0x4000_0000 + 0x10_0000 - 16));
        b.unpaint(&mut m, 0, 0x4000_0000, 0x10_0000);
        assert_eq!(b.painted_granules(), 0);
        assert!(!b.probe(0x4000_8000));
    }

    #[test]
    fn double_paint_is_idempotent() {
        let (mut m, mut b) = mk();
        b.paint(&mut m, 0, 0x4000_0000, 32);
        b.paint(&mut m, 0, 0x4000_0000, 32);
        assert_eq!(b.painted_bytes(), 32);
    }

    #[test]
    fn summary_tracks_word_occupancy() {
        let (mut m, mut b) = mk();
        // Two granules in the same 64-granule word: clearing one must
        // keep the summary bit (hence the probe) alive.
        b.paint(&mut m, 0, 0x4000_0000, 16);
        b.paint(&mut m, 0, 0x4000_0100, 16);
        b.unpaint(&mut m, 0, 0x4000_0000, 16);
        assert!(b.probe(0x4000_0100));
        b.unpaint(&mut m, 0, 0x4000_0100, 16);
        assert!(!b.probe(0x4000_0100));
        assert_eq!(b.painted_granules(), 0);
    }

    #[test]
    fn probe_charged_costs_traffic() {
        let (mut m, mut b) = mk();
        b.paint(&mut m, 0, 0x4000_0000, 16);
        let before = m.mem().traffic(0).dram_transactions;
        let (hit, cycles) = b.probe_charged(&mut m, 0, 0x4000_0000);
        assert!(hit);
        assert!(cycles > 0);
        assert!(m.mem().traffic(0).dram_transactions >= before);
    }

    #[test]
    fn clean_probe_short_circuits_on_summary() {
        let (mut m, b) = mk();
        // A probe of a fully clean region reads only the summary word.
        let (hit, cycles) = b.probe_charged(&mut m, 0, 0x4000_8000);
        assert!(!hit);
        assert!(cycles > 0);
        // Out-of-arena probes touch nothing at all.
        let before = m.mem().traffic(0).dram_transactions;
        let (hit, _) = b.probe_charged(&mut m, 0, 0x1000);
        assert!(!hit);
        assert_eq!(m.mem().traffic(0).dram_transactions, before);
    }

    #[test]
    fn shadow_addresses_are_dense() {
        let (_, b) = mk();
        // 16 bytes/granule, 8 granules/byte: 128 heap bytes per bitmap byte.
        assert_eq!(b.shadow_addr(0x4000_0000), BITMAP_VA_BASE);
        assert_eq!(b.shadow_addr(0x4000_0000 + 128), BITMAP_VA_BASE + 1);
    }
}
