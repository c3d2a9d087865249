//! Property test: the two-level, word-masked bitmap is observationally
//! equivalent to the historical bit-at-a-time implementation.
//!
//! The reference model below is a literal transcription of the old
//! `set_range` loop (step `CAP_SIZE` from `base` while below `base+len`,
//! flooring each address to a granule, silently skipping out-of-arena
//! addresses). Random paint/unpaint sequences — including unaligned
//! bases, ranges straddling the arena boundaries, and full-arena
//! paints — must leave every probe and the painted-granule count
//! identical between the model and the real bitmap.

use cheri_cap::CAP_SIZE;
use cheri_vm::Machine;
use cornucopia::RevocationBitmap;
use simtest::check::{vec_of, CaseResult, Gen, GenExt};
use simtest::{oneof, sim_assert_eq};

const HEAP_BASE: u64 = 0x4000_0000;
const HEAP_LEN: u64 = 0x2_0000; // 128 KiB = 8192 granules
const GRANULES: usize = (HEAP_LEN / CAP_SIZE) as usize;

/// The pre-summary implementation, bit by bit.
#[derive(Debug, Clone)]
struct ModelBitmap {
    bits: Vec<bool>,
}

impl ModelBitmap {
    fn new() -> Self {
        ModelBitmap { bits: vec![false; GRANULES] }
    }

    fn set_range(&mut self, base: u64, len: u64, value: bool) {
        let mut addr = base;
        let end = base.saturating_add(len);
        while addr < end {
            if (HEAP_BASE..HEAP_BASE + HEAP_LEN).contains(&addr) {
                self.bits[((addr - HEAP_BASE) / CAP_SIZE) as usize] = value;
            }
            addr += CAP_SIZE;
        }
    }

    fn probe(&self, addr: u64) -> bool {
        if !(HEAP_BASE..HEAP_BASE + HEAP_LEN).contains(&addr) {
            return false;
        }
        self.bits[((addr - HEAP_BASE) / CAP_SIZE) as usize]
    }

    fn painted(&self) -> u64 {
        self.bits.iter().filter(|&&b| b).count() as u64
    }
}

#[derive(Debug, Clone)]
enum Act {
    Paint { base: u64, len: u64 },
    Unpaint { base: u64, len: u64 },
}

/// Bases span below, inside, and above the arena; lengths go up to the
/// full arena plus overshoot; offsets are byte-granular so unaligned
/// bases are exercised too.
fn range_strategy() -> impl Gen<Value = (u64, u64)> {
    (
        (0u64..HEAP_LEN + 0x2000),
        (0u64..HEAP_LEN + 0x400),
    )
        .gmap(|(off, len)| (HEAP_BASE - 0x1000 + off, len))
}

fn act_strategy() -> impl Gen<Value = Act> {
    oneof![
        3 => range_strategy().gmap(|(base, len)| Act::Paint { base, len }),
        2 => range_strategy().gmap(|(base, len)| Act::Unpaint { base, len }),
        // Full-arena paints and unpaints, the word-masked fast path's
        // best case, must agree bit-for-bit as well.
        1 => (0u64..2).gmap(|v| if v == 0 {
            Act::Paint { base: HEAP_BASE, len: HEAP_LEN }
        } else {
            Act::Unpaint { base: HEAP_BASE, len: HEAP_LEN }
        }),
    ]
}

fn run_model(acts: Vec<Act>) -> CaseResult {
    let mut m = Machine::new(1);
    let mut real = RevocationBitmap::new(HEAP_BASE, HEAP_LEN);
    let mut model = ModelBitmap::new();
    for act in &acts {
        match *act {
            Act::Paint { base, len } => {
                real.paint(&mut m, 0, base, len);
                model.set_range(base, len, true);
            }
            Act::Unpaint { base, len } => {
                real.unpaint(&mut m, 0, base, len);
                model.set_range(base, len, false);
            }
        }
        sim_assert_eq!(
            real.painted_granules(),
            model.painted(),
            "painted-granule count diverged after {act:?}"
        );
    }
    // Every granule, both arena edges, and out-of-arena addresses.
    for g in 0..GRANULES as u64 {
        let addr = HEAP_BASE + g * CAP_SIZE;
        sim_assert_eq!(real.probe(addr), model.probe(addr), "probe diverged at granule {g}");
        // Unaligned probes floor to the same granule in both.
        sim_assert_eq!(real.probe(addr + 7), model.probe(addr + 7));
    }
    for addr in [HEAP_BASE - 16, HEAP_BASE - 1, HEAP_BASE + HEAP_LEN, HEAP_BASE + HEAP_LEN + 16] {
        sim_assert_eq!(real.probe(addr), false, "out-of-arena probe at {addr:#x}");
        let (hit, _) = real.probe_charged(&mut m, 0, addr);
        sim_assert_eq!(hit, false);
    }
    // Charged probes agree with pure probes everywhere.
    for g in (0..GRANULES as u64).step_by(37) {
        let addr = HEAP_BASE + g * CAP_SIZE;
        let (hit, cycles) = real.probe_charged(&mut m, 0, addr);
        sim_assert_eq!(hit, real.probe(addr));
        simtest::sim_assert!(cycles > 0, "in-arena charged probe must cost cycles");
    }
    Ok(())
}

simtest::props! {
    #![config(simtest::Config { cases: 96, ..Default::default() })]

    fn summary_bitmap_matches_bit_at_a_time_model(acts in vec_of(act_strategy(), 1..40)) {
        run_model(acts)?;
    }
}

/// The boundary cases the generator might under-sample, pinned exactly.
#[test]
fn arena_boundary_paints_match_model() {
    let cases = [
        (HEAP_BASE - 64, 128),                 // straddles the start
        (HEAP_BASE + HEAP_LEN - 64, 128),      // straddles the end
        (HEAP_BASE - 64, 64),                  // ends exactly at the start
        (HEAP_BASE + HEAP_LEN, 64),            // begins exactly at the end
        (HEAP_BASE, HEAP_LEN),                 // exactly the arena
        (HEAP_BASE - 0x1000, HEAP_LEN + 0x2000), // superset of the arena
        (HEAP_BASE + 8, 16),                   // unaligned base
        (HEAP_BASE + 24, 1),                   // sub-granule length
        (HEAP_BASE, 0),                        // empty
    ];
    for (base, len) in cases {
        run_model(vec![
            Act::Paint { base, len },
            Act::Unpaint { base: base + 16, len: len / 2 },
        ])
        .unwrap_or_else(|e| panic!("boundary case base={base:#x} len={len}: {e:?}"));
    }
}
