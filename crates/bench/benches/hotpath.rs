//! Host wall-clock benchmark of the memory pipeline's hot paths (run
//! with `cargo bench -p rev-bench --bench hotpath`; `--quick` /
//! `SIMBENCH_QUICK=1` collapses to a smoke run and skips the baseline
//! file).
//!
//! These are the per-simulated-instruction costs that bound harness
//! throughput: a capability load/store streak within one page (the
//! common case: TLB and frame lookups in the page directory), a 4 KiB
//! data write (batched cache-line charging plus bulk tag clearing), and the
//! revoker's page sweep (zero-allocation page visits). Non-quick runs
//! record throughput in `BENCH_hotpath.json` at the workspace root,
//! alongside the pre-optimization baseline captured below so the file
//! always shows the before/after comparison.
//!
//! Stats-identity caveat: everything measured here is *host* time; the
//! simulated counters (cycles, DRAM transactions, faults) are asserted
//! bit-identical across the optimization by `tests/golden_stats.rs`.

use cheri_cap::{Capability, Perms};
use cheri_vm::{MapFlags, Machine};
use cornucopia::{Revoker, RevokerConfig, Strategy};
use simtest::bench::Harness;
use std::hint::black_box;
use std::time::Duration;

const HEAP: u64 = 0x4000_0000;
const SWEEP_PAGES: u64 = 96;
const CAPS_PER_PAGE: u64 = 16;

/// Pre-optimization medians (ns/op), measured on this container at the
/// commit before the hot-path overhaul (HashMap TLB, HashMap frame
/// table, per-line cache loop, Vec-per-page sweeps) with the identical
/// benchmark source. Re-baseline by hand if the benchmark shapes change.
const BASELINE_LOAD_NS: f64 = 65.8;
const BASELINE_STORE_NS: f64 = 66.6;
const BASELINE_WRITE4K_NS: f64 = 3_930.0;
const BASELINE_SWEEP_NS_PER_PAGE: f64 = 1_568.3;

fn machine_with_caps(pages: u64, caps_per_page: u64) -> (Machine, Capability) {
    let mut m = Machine::new(5);
    let len = pages * 4096;
    m.map_range(HEAP, len, MapFlags::user_rw()).unwrap();
    let heap = Capability::new_root(HEAP, len, Perms::rw());
    for p in 0..pages {
        for s in 0..caps_per_page {
            let a = HEAP + p * 4096 + s * (4096 / caps_per_page);
            let c = heap.set_bounds(a, 64).unwrap();
            m.store_cap(0, &heap.set_addr(a), c).unwrap();
        }
    }
    (m, heap)
}

/// A Reloaded epoch over `SWEEP_PAGES` capability-bearing pages, half
/// painted: the steady-state page-visit workload of every figure run.
fn sweep_setup() -> (Machine, Revoker) {
    let (mut m, _) = machine_with_caps(SWEEP_PAGES, CAPS_PER_PAGE);
    let mut rev = Revoker::new(
        RevokerConfig { strategy: Strategy::Reloaded, ..RevokerConfig::default() },
        HEAP,
        SWEEP_PAGES * 4096,
    );
    for p in (0..SWEEP_PAGES).step_by(2) {
        rev.paint(&mut m, 0, HEAP + p * 4096, 64);
    }
    (m, rev)
}

fn median_ns(h: &Harness, name: &str) -> f64 {
    h.results()
        .iter()
        .find(|r| r.name == name)
        .map(|r| {
            let mut s = r.ns_per_iter.clone();
            s.sort_by(f64::total_cmp);
            s.get(s.len() / 2).copied().unwrap_or(f64::NAN)
        })
        .unwrap_or(f64::NAN)
}

fn main() {
    let quick = std::env::var("SIMBENCH_QUICK").is_ok_and(|v| v != "0")
        || std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let mut h = Harness::from_env();
    h.measurement_time(Duration::from_millis(800)).warm_up_time(Duration::from_millis(200));

    // Capability-load streak: 8 slots on one page, round-robin — the
    // same-page access pattern every pointer-chasing workload produces.
    h.bench_function("hotpath/load_cap_streak", |b| {
        let (mut m, heap) = machine_with_caps(4, 8);
        let mut i = 0u64;
        b.iter(|| {
            let a = HEAP + (i % 8) * 512;
            i += 1;
            black_box(m.load_cap(0, &heap.set_addr(a)).unwrap())
        })
    });

    // Capability-store streak on one page (store barrier already taken).
    h.bench_function("hotpath/store_cap_streak", |b| {
        let (mut m, heap) = machine_with_caps(4, 8);
        let obj = heap.set_bounds(HEAP, 64).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            let a = HEAP + 4096 + (i % 8) * 512;
            i += 1;
            black_box(m.store_cap(0, &heap.set_addr(a), obj).unwrap())
        })
    });

    // 4 KiB data write: 64 cache lines charged + 256 granule tags cleared.
    h.bench_function("hotpath/data_write_4k", |b| {
        let (mut m, heap) = machine_with_caps(4, 8);
        b.iter(|| black_box(m.write_data(0, &heap.set_addr(HEAP + 8192), 4096).unwrap()))
    });

    // Full Reloaded epoch drain: page visits, tag enumeration, bitmap
    // probes, generation updates. Reported per swept page.
    h.bench_function("hotpath/sweep_epoch", |b| {
        b.iter_batched(
            sweep_setup,
            |(mut m, mut rev)| {
                rev.start_epoch(&mut m);
                while rev.is_revoking() {
                    rev.background_step(&mut m, u64::MAX / 4);
                }
                black_box(rev.stats().pages_swept)
            },
            simtest::bench::BatchSize::LargeInput,
        )
    });

    h.finish();
    if quick {
        eprintln!("hotpath: quick mode, not touching BENCH_hotpath.json");
        return;
    }

    let load = median_ns(&h, "hotpath/load_cap_streak");
    let store = median_ns(&h, "hotpath/store_cap_streak");
    let write4k = median_ns(&h, "hotpath/data_write_4k");
    let sweep_page = median_ns(&h, "hotpath/sweep_epoch") / SWEEP_PAGES as f64;
    let row = |label: &str, before: f64, after: f64, unit: &str| {
        format!(
            "  \"{label}\": {{ \"before_{unit}\": {before:.1}, \"after_{unit}\": {after:.1}, \
             \"before_per_sec\": {:.0}, \"after_per_sec\": {:.0}, \"speedup\": {:.2} }}",
            1e9 / before,
            1e9 / after,
            before / after,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"baseline\": \"pre hot-path overhaul (HashMap TLB/frame \
         table, per-line cache loop, Vec-per-page sweeps)\",\n{},\n{},\n{},\n{}\n}}\n",
        row("load_cap_streak", BASELINE_LOAD_NS, load, "ns_per_op"),
        row("store_cap_streak", BASELINE_STORE_NS, store, "ns_per_op"),
        row("data_write_4k", BASELINE_WRITE4K_NS, write4k, "ns_per_op"),
        row("sweep_page_visit", BASELINE_SWEEP_NS_PER_PAGE, sweep_page, "ns_per_page"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");
    eprintln!("hotpath: wrote {path}");
}
