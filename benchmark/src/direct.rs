//! Direct drivers: each calls one layer alone, on a standalone
//! `Machine`/`Revoker`/`Mrs`/`MemSystem`, with the shapes of
//! `crates/bench/benches/{hotpath,sweep,micro}.rs`. They run once per
//! traced invocation, outside the measured window, and are the same for
//! every workload — the per-op costs a traced share multiplies.

use crate::trace::Tracer;
use crate::{host, Metrics, Workload};
use cheri_alloc::{HeapLayout, Mrs, MrsConfig};
use cheri_cap::{Capability, Perms};
use cheri_mem::MemSystem;
use cheri_vm::{Machine, MapFlags, VmFault};
use cornucopia::{Revoker, RevokerConfig, StepOutcome, Strategy};
use morello_sim::Condition;
use rev_bench::harness::CONDITIONS;
use std::hint::black_box;
use std::time::Instant;

const HEAP: u64 = 0x4000_0000;
const PAGE: u64 = 4096;

/// Fastest of `samples` timings of `iters` back-to-back calls, in
/// nanoseconds per call: on a shared host the fastest sample is the
/// least disturbed one.
fn per_call_ns(samples: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let timings: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    host::summarise(&timings).min
}

/// Fastest run of `routine` over `samples` fresh inputs, in
/// nanoseconds; `setup` is not timed.
fn per_input_ns<I>(
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I),
) -> f64 {
    let timings: Vec<f64> = (0..samples)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            routine(input);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    host::summarise(&timings).min
}

fn machine_with_caps(pages: u64, caps_per_page: u64) -> (Machine, Capability) {
    let mut m = Machine::new(5);
    let len = pages * PAGE;
    m.map_range(HEAP, len, MapFlags::user_rw())
        .expect("map the driver's heap");
    let heap = Capability::new_root(HEAP, len, Perms::rw());
    for p in 0..pages {
        for s in 0..caps_per_page {
            let a = HEAP + p * PAGE + s * (PAGE / caps_per_page);
            let c = heap.set_bounds(a, 64).expect("in-bounds object");
            m.store_cap(0, &heap.set_addr(a), c)
                .expect("store into mapped heap");
        }
    }
    (m, heap)
}

fn drain_epoch(m: &mut Machine, rev: &mut Revoker) {
    rev.start_epoch(m);
    while rev.is_revoking() {
        if matches!(
            rev.background_step(m, u64::MAX / 4),
            StepOutcome::NeedsFinalStw { .. }
        ) {
            rev.finish_stw(m, 1);
        }
    }
}

fn strategy_slug(s: Strategy) -> &'static str {
    condition_slug(Condition::Safe(s))
}

/// The condition's suffix in metric names.
pub fn condition_slug(c: Condition) -> &'static str {
    match c.label() {
        "baseline" => "baseline",
        "Paint+sync" => "paint-sync",
        "CHERIvoke" => "cherivoke",
        "Cornucopia" => "cornucopia",
        "Reloaded" => "reloaded",
        other => unreachable!("no metric suffix for condition {other}"),
    }
}

fn cap(m: &mut Metrics) {
    let root = Capability::new_root(HEAP, 1 << 30, Perms::rw());
    let ns = per_call_ns(31, 200_000, || {
        black_box(
            root.set_bounds(black_box(HEAP + 0x1000), black_box(4096))
                .expect("representable"),
        );
    });
    m.put("cap.set_bounds_ns", ns);
    let obj = root.set_bounds(HEAP, 4096).expect("representable");
    let ns = per_call_ns(31, 200_000, || {
        let _ = black_box(black_box(&obj).check_access(Perms::LOAD, 16));
    });
    m.put("cap.check_access_ns", ns);
}

fn mem(m: &mut Metrics) {
    let mut sys = MemSystem::new(4);
    let mut i = 0u64;
    // One line per call, striding over 256 KiB: L1 misses, L2 hits.
    let ns = per_call_ns(31, 100_000, || {
        i += 1;
        black_box(sys.touch_read(0, HEAP + (i % 4096) * 64, 64));
    });
    m.put("mem.touch_read_line_ns", ns);
    let ns = per_call_ns(31, 20_000, || {
        black_box(sys.touch_write(0, HEAP + 8 * PAGE, PAGE));
    });
    m.put("mem.touch_write_4k_ns", ns);
}

fn vm(m: &mut Metrics) {
    // Eight slots on one page, round-robin: the same-page streak the
    // micro-TLB and frame memo serve.
    let (mut mach, heap) = machine_with_caps(4, 8);
    let mut i = 0u64;
    let ns = per_call_ns(31, 100_000, || {
        i += 1;
        black_box(
            mach.load_cap(0, &heap.set_addr(HEAP + (i % 8) * 512))
                .expect("load"),
        );
    });
    m.put("vm.load_cap_streak_ns", ns);

    let obj = heap.set_bounds(HEAP, 64).expect("in-bounds object");
    let ns = per_call_ns(31, 100_000, || {
        i += 1;
        black_box(
            mach.store_cap(0, &heap.set_addr(HEAP + PAGE + (i % 8) * 512), obj)
                .expect("store"),
        );
    });
    m.put("vm.store_cap_streak_ns", ns);

    let ns = per_call_ns(31, 20_000, || {
        black_box(
            mach.read_data(0, &heap.set_addr(HEAP + 2 * PAGE), PAGE)
                .expect("read"),
        );
    });
    m.put("vm.read_data_4k_ns", ns);
    let ns = per_call_ns(31, 20_000, || {
        black_box(
            mach.write_data(0, &heap.set_addr(HEAP + 2 * PAGE), PAGE)
                .expect("write"),
        );
    });
    m.put("vm.write_data_4k_ns", ns);

    // One load per page over 4 096 pages: every access misses the
    // micro-TLB and takes the page-table lookup path.
    const STRIDE_PAGES: u64 = 4096;
    let (mut mach, heap) = machine_with_caps(STRIDE_PAGES, 1);
    let mut p = 0u64;
    let ns = per_call_ns(31, STRIDE_PAGES, || {
        p = (p + 1) % STRIDE_PAGES;
        black_box(
            mach.load_cap(0, &heap.set_addr(HEAP + p * PAGE))
                .expect("load"),
        );
    });
    m.put("vm.load_cap_stride_ns", ns);
}

fn alloc(m: &mut Metrics) {
    let arena = 64 << 20;
    let mut mach = Machine::new(4);
    let mut rev = Revoker::new(RevokerConfig::default(), HEAP, arena);
    let mut heap = Mrs::new(
        HeapLayout::new(HEAP, arena),
        MrsConfig {
            min_quarantine_bytes: 1 << 20,
            ..MrsConfig::default()
        },
    );
    // Amortised: the policy-triggered epoch is part of the cycle, and
    // keeps the arena from filling with quarantine.
    let ns = per_call_ns(31, 20_000, || {
        let a = heap.alloc(&mut mach, 3, 256).expect("arena has room");
        let e = heap
            .free(&mut mach, &mut rev, 3, a.cap)
            .expect("free of a live object");
        if e.trigger_revocation {
            drain_epoch(&mut mach, &mut rev);
            heap.poll_release(&mut mach, &mut rev, 3);
        }
    });
    m.put("alloc.alloc_free_ns", ns);

    let mut mach = Machine::new(4);
    let mut heap = Mrs::new(HeapLayout::new(HEAP, arena), MrsConfig::default());
    let ns = per_call_ns(31, 20_000, || {
        let a = heap.alloc(&mut mach, 3, 256).expect("arena has room");
        black_box(
            heap.free_immediate(&mut mach, 3, a.cap)
                .expect("free of a live object"),
        );
    });
    m.put("alloc.alloc_free_immediate_ns", ns);
}

fn core(m: &mut Metrics) {
    let arena = 64 << 20;
    let mut mach = Machine::new(4);
    let mut rev = Revoker::new(RevokerConfig::default(), HEAP, arena);
    let ns = per_call_ns(31, 50_000, || {
        black_box(rev.paint(&mut mach, 3, HEAP + 0x10000, PAGE));
    });
    m.put("core.paint_ns", ns);

    let with_revoker = |strategy: Strategy, pages: u64, caps: u64| {
        let (mach, heap) = machine_with_caps(pages, caps);
        let rev = Revoker::new(
            RevokerConfig {
                strategy,
                ..RevokerConfig::default()
            },
            HEAP,
            arena,
        );
        (mach, rev, heap)
    };

    // A Reloaded epoch is open and the page's generation is stale: the
    // load traps, the handler sweeps the page and heals it.
    let ns = per_input_ns(
        301,
        || {
            let (mut mach, mut rev, heap) = with_revoker(Strategy::Reloaded, 16, 4);
            rev.paint(&mut mach, 3, HEAP + PAGE, 64);
            rev.start_epoch(&mut mach);
            (mach, rev, heap)
        },
        |(mut mach, mut rev, heap)| {
            if let Err(VmFault::CapLoadGeneration { vaddr }) =
                mach.load_cap(3, &heap.set_addr(HEAP))
            {
                black_box(rev.handle_load_fault(&mut mach, 3, vaddr));
            }
        },
    );
    m.put("core.load_fault_ns", ns);

    // A whole epoch over 96 capability-bearing pages, half of them
    // holding a painted object: the steady-state page visit.
    const SWEEP_PAGES: u64 = 96;
    for strategy in [
        Strategy::CheriVoke,
        Strategy::Cornucopia,
        Strategy::Reloaded,
    ] {
        let ns = per_input_ns(
            61,
            || {
                let (mut mach, mut rev, _) = with_revoker(strategy, SWEEP_PAGES, 16);
                for p in (0..SWEEP_PAGES).step_by(2) {
                    rev.paint(&mut mach, 0, HEAP + p * PAGE, 64);
                }
                (mach, rev)
            },
            |(mut mach, mut rev)| {
                drain_epoch(&mut mach, &mut rev);
                black_box(rev.stats().pages_swept);
            },
        );
        m.put(
            &format!("core.sweep_ns_per_page.{}", strategy_slug(strategy)),
            ns / SWEEP_PAGES as f64,
        );
    }
}

/// One op stream (omnetpp, a tenth of its churn) under all five
/// conditions, and once more under Reloaded with full telemetry: the
/// cost of each mechanism by subtraction on identical ops, each cell at
/// its undisturbed time over [`LADDER_REPS`] repetitions.
fn ladder(m: &mut Metrics, seed: u64) {
    const LADDER_REPS: u32 = 5;
    let mut cells = crate::cells::ladder(seed);
    for rep in 0..LADDER_REPS {
        let out = cells.rep(&mut Tracer::new(), rep);
        assert!(
            out.messages.is_empty(),
            "ladder cell failed: {:?}",
            out.messages
        );
    }
    // Cells 0..5 follow CONDITIONS; cell 5 is Reloaded with telemetry on.
    let of = |c: Condition| {
        cells.cell_ns_per_op(
            CONDITIONS
                .iter()
                .position(|&x| x == c)
                .expect("one of CONDITIONS"),
        )
    };
    for &c in &CONDITIONS {
        m.put(&format!("sim.ns_per_op.{}", condition_slug(c)), of(c));
    }
    m.put(
        "sim.quarantine_ns_per_op",
        of(Condition::paint_sync()) - of(Condition::baseline()),
    );
    for c in [
        Condition::cherivoke(),
        Condition::cornucopia(),
        Condition::reloaded(),
    ] {
        let name = format!("core.sweep_ns_per_op.{}", condition_slug(c));
        m.put(&name, of(c) - of(Condition::paint_sync()));
    }
    let telemetry_on = cells.cell_ns_per_op(CONDITIONS.len());
    m.put(
        "sim.telemetry_on_ratio",
        telemetry_on / of(Condition::reloaded()),
    );
}

pub fn run(m: &mut Metrics, seed: u64) {
    cap(m);
    mem(m);
    vm(m);
    alloc(m);
    core(m);
    ladder(m, seed);
}
