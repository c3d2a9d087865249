//! Differential test of the cache/DRAM model (`cheri_mem::cache`) against
//! the per-line algorithm it replaced.
//!
//! The model under test answers for a block of sets at once; the reference
//! below is the walk it used to be — one probe per 64-byte line, two flat
//! arrays per level, no summary state, no memo — kept here, and only here,
//! as the independent statement of what the counters mean. Both are driven
//! with generated traces through the public `MemSystem` surface and must
//! agree on the cycles of **every** access and on every core's
//! `TrafficStats` at the end.

use cheri_cap::{Capability, Perms};
use cheri_mem::{CacheConfig, MemSystem, TrafficStats, DRAM_CYCLES, L1_HIT_CYCLES, L2_HIT_CYCLES};
use simtest::check::{vec_of, Config, Gen, GenExt};
use simtest::{oneof, sim_assert_eq};

const LINE: u64 = 64;
const CORES: usize = 3;

/// One direct-mapped level: the resident line of each set and its dirty bit.
struct RefLevel {
    /// `line + 1`; 0 = invalid.
    resident: Vec<u64>,
    dirty: Vec<bool>,
}

impl RefLevel {
    fn new(lines: usize) -> Self {
        RefLevel { resident: vec![0; lines], dirty: vec![false; lines] }
    }

    /// Returns `(hit, evicted_dirty)`.
    fn probe(&mut self, line: u64, write: bool) -> (bool, bool) {
        let set = (line % self.resident.len() as u64) as usize;
        if self.resident[set] == line + 1 {
            self.dirty[set] |= write;
            return (true, false);
        }
        let evicted_dirty = self.dirty[set];
        self.resident[set] = line + 1;
        self.dirty[set] = write;
        (false, evicted_dirty)
    }
}

/// Per-core L1s over a shared L2, walked one line at a time.
struct RefHierarchy {
    l1: Vec<RefLevel>,
    l2: RefLevel,
    stats: Vec<TrafficStats>,
}

impl RefHierarchy {
    fn new(cores: usize, config: CacheConfig) -> Self {
        RefHierarchy {
            l1: (0..cores).map(|_| RefLevel::new(config.l1_lines)).collect(),
            l2: RefLevel::new(config.l2_lines),
            stats: vec![TrafficStats::default(); cores],
        }
    }

    fn access(&mut self, core: usize, addr: u64, len: u64, write: bool) -> u64 {
        let first = addr / LINE;
        let last = addr.saturating_add(len.max(1) - 1) / LINE;
        let st = &mut self.stats[core];
        let mut cycles = 0;
        for line in first..=last {
            cycles += L1_HIT_CYCLES;
            if self.l1[core].probe(line, write).0 {
                st.l1_hits += 1;
                continue;
            }
            cycles += L2_HIT_CYCLES;
            let (hit, evicted_dirty) = self.l2.probe(line, write);
            if hit {
                st.l2_hits += 1;
            } else {
                // One fill, plus the write-back of a dirty victim.
                cycles += DRAM_CYCLES;
                st.dram_transactions += 1 + u64::from(evicted_dirty);
            }
        }
        cycles
    }
}

#[derive(Debug, Clone, Copy)]
enum Via {
    TouchRead,
    TouchWrite,
    /// A capability load, charged as `Machine::load_cap` charges it: a
    /// read of its slot.
    LoadCap,
    StoreCap,
}

/// One access of a trace.
#[derive(Debug, Clone, Copy)]
struct Access {
    core: usize,
    via: Via,
    addr: u64,
    len: u64,
}

impl Access {
    /// `(addr, len, write)` as the cache model sees it: a capability
    /// access is its 16-byte slot, whatever `len` says.
    fn extent(&self) -> (u64, u64, bool) {
        let slot = self.addr & !(cheri_cap::CAP_SIZE - 1);
        match self.via {
            Via::TouchRead => (self.addr, self.len, false),
            Via::TouchWrite => (self.addr, self.len, true),
            Via::LoadCap => (slot, cheri_cap::CAP_SIZE, false),
            Via::StoreCap => (slot, cheri_cap::CAP_SIZE, true),
        }
    }

    /// Performs the access on `sys`; returns its cycles.
    fn apply(&self, sys: &mut MemSystem) -> u64 {
        let (addr, len, _) = self.extent();
        match self.via {
            Via::TouchRead | Via::LoadCap => sys.touch_read(self.core, addr, len),
            Via::TouchWrite => sys.touch_write(self.core, addr, len),
            Via::StoreCap => {
                sys.store_cap(self.core, addr, Capability::new_root(0x4000, 128, Perms::rw()))
            }
        }
    }
}

/// Bases that fall on set 0 of both default levels (multiples of 1 MiB), of
/// the L1 only (+64 KiB), and of the small geometry's levels; two sit above
/// 2^40. A handful of pages over each, so traces keep revisiting and
/// evicting each other's lines.
const BASES: [u64; 7] = [
    0x10_0000,
    0x20_0000,
    0x11_0000,
    0x10_8000,
    1 << 41,
    (1 << 41) + 0x10_0000,
    (1 << 45) + 0x31_0000,
];

/// `(addr, len)` shapes, each relative to a base picked afterwards.
fn extent() -> impl Gen<Value = (u64, u64)> {
    const PAGE: u64 = 4096;
    oneof![
        // Single lines (a few straddle into the next line).
        6 => (0u64..4 * PAGE, 1u64..=16),
        // Sub-block ranges straddling a 32- or 64-line block edge.
        4 => (1u64..8, 1u64..24, 2u64..48)
            .gmap(|(edge, back, lines)| (edge * 32 * LINE - back * LINE, lines * LINE)),
        // Page-aligned pages: the sweep and 4 KiB data-op shape.
        4 => (0u64..6).gmap(|p| (p * PAGE, PAGE)),
        // Unaligned multi-block ranges.
        3 => (0u64..2 * PAGE, PAGE..40_000),
        // Longer than the L1 (64 KiB), longer than the L2 (1 MiB): the
        // range wraps around and evicts its own head.
        1 => (0u64..PAGE, (64u64 << 10)..(96 << 10)),
        1 => (0u64..PAGE, (1u64 << 20)..(1 << 20) + (256 << 10)),
        1 => (0u64..4 * PAGE).gmap(|a| (a, 0u64)),
    ]
}

fn access() -> impl Gen<Value = Access> {
    let via = oneof![
        3 => simtest::check::Just(Via::TouchRead),
        3 => simtest::check::Just(Via::TouchWrite),
        1 => simtest::check::Just(Via::LoadCap),
        1 => simtest::check::Just(Via::StoreCap),
    ];
    (0usize..CORES, via, 0usize..BASES.len(), extent()).gmap(|(core, via, base, (off, len))| {
        Access { core, via, addr: BASES[base] + off, len }
    })
}

/// Runs `trace` through a `MemSystem` and the reference, comparing the
/// cycles of every access and the final per-core statistics.
fn check(config: CacheConfig, trace: &[Access]) -> simtest::CaseResult {
    let mut sys = MemSystem::with_config(CORES, config);
    let mut reference = RefHierarchy::new(CORES, config);
    for (i, a) in trace.iter().enumerate() {
        let (addr, len, write) = a.extent();
        let want = reference.access(a.core, addr, len, write);
        sim_assert_eq!(a.apply(&mut sys), want, "cycles of access {} ({:x?})", i, a);
    }
    for core in 0..CORES {
        sim_assert_eq!(sys.traffic(core), reference.stats[core], "core {} traffic", core);
    }
    Ok(())
}

simtest::props! {
    #![config(Config { cases: 192, ..Config::default() })]

    /// The shipped geometry: 64 KiB L1s, 1 MiB shared L2.
    fn default_geometry_matches_the_per_line_walk(trace in vec_of(access(), 1..160)) {
        check(CacheConfig::default(), &trace)?;
    }

    /// A two-block L1 under an eight-block L2: every multi-block range
    /// wraps, and whole-block accesses land on blocks full of single-line
    /// exceptions.
    fn small_geometry_matches_the_per_line_walk(trace in vec_of(access(), 1..160)) {
        let config = CacheConfig { l1_lines: 128, l2_lines: 512 };
        check(config, &trace)?;
    }
}

/// The mistakes a block summary invites, spelled out so a failure names
/// them: a whole-block access must answer per set where the block holds
/// other chunks' lines — a hit where the set holds its own line, a miss
/// where it holds another's — and a fill over dirty lines must still pay
/// each one's write-back.
#[test]
fn whole_block_accesses_respect_excepted_sets_and_pay_write_backs() {
    let config = CacheConfig::default();
    let l2_bytes = config.l2_lines as u64 * LINE;
    // `p` and `a` share every set of both levels; `q` shares them too.
    let (p, a, q) = (0x10_0000, 0x10_0000 + l2_bytes, 0x20_0000);
    let page = |via, addr| Access { core: 0, via, addr, len: 4096 };
    let line = |via, addr| Access { core: 0, via, addr, len: 8 };
    let trace = [
        (page(Via::TouchRead, p), 64),
        // One dirty line of `a` in the middle of `p`'s block: 1 fill.
        (line(Via::TouchWrite, a + 5 * LINE), 1),
        // All of `a`: that line hits, the other 63 fill.
        (page(Via::TouchRead, a), 63),
        // One line of `p` back into `a`'s block, and `a` again: only that
        // set misses.
        (line(Via::TouchRead, p + 9 * LINE), 1),
        (page(Via::TouchRead, a), 1),
        // `p` evicts `a`: 64 fills and the write-back of the dirty line
        // (its second access hit the L1, so the L2 copy stayed dirty).
        (page(Via::TouchRead, p), 64 + 1),
        // A fresh page written, then evicted: 64 fills, then 64 fills and
        // 64 write-backs.
        (page(Via::TouchWrite, q), 64),
        (page(Via::TouchRead, q + l2_bytes), 64 + 64),
    ];
    let mut sys = MemSystem::with_config(CORES, config);
    for (i, (access, dram)) in trace.iter().enumerate() {
        let before = sys.traffic(0).dram_transactions;
        access.apply(&mut sys);
        assert_eq!(sys.traffic(0).dram_transactions - before, *dram, "DRAM transactions of step {i}");
    }
    check(config, &trace.map(|(access, _)| access)).expect("and the reference agrees");
}
