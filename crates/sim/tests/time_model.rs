//! Tests for the simulator's time-accounting model: arrival schedules,
//! queueing latency, contention, and the bus-penalty coupling.

use morello_sim::{Condition, Op, SimConfig, System, CYCLES_PER_SEC};

fn tx(id: u64, work: u64) -> Vec<Op> {
    vec![Op::TxBegin { id }, Op::Compute { cycles: work }, Op::TxEnd { id }]
}

#[test]
fn unscheduled_latency_is_service_time() {
    let cfg = SimConfig::builder().condition(Condition::baseline()).build().unwrap();
    let mut ops = Vec::new();
    for i in 0..10 {
        ops.extend(tx(i, 100_000));
    }
    let s = System::new(cfg).run_stream(&mut ops.into_iter()).unwrap();
    for &l in &s.tx_latencies {
        assert!((100_000..110_000).contains(&l), "latency {l} should be ~service time");
    }
}

#[test]
fn scheduled_arrivals_space_the_run_and_hide_pauses() {
    let interval = 1_000_000u64;
    let cfg = SimConfig::builder()
        .condition(Condition::baseline())
        .tx_interval(interval)
        .build()
        .unwrap();
    let mut ops = Vec::new();
    for i in 0..20 {
        ops.extend(tx(i, 100_000));
    }
    let s = System::new(cfg).run_stream(&mut ops.into_iter()).unwrap();
    assert!(s.wall_cycles >= interval * 19, "schedule must stretch the run");
    // Without latency_from_arrival, latencies exclude schedule slack.
    assert!(s.tx_latencies.iter().all(|&l| l < interval / 2));
}

#[test]
fn arrival_latency_includes_queueing_when_behind() {
    // Service 300k, arrivals every 100k: the queue grows and open-loop
    // latency must grow with it.
    let cfg = SimConfig::builder()
        .condition(Condition::baseline())
        .tx_interval(100_000)
        .latency_from_arrival(true)
        .build()
        .unwrap();
    let mut ops = Vec::new();
    for i in 0..20 {
        ops.extend(tx(i, 300_000));
    }
    let s = System::new(cfg).run_stream(&mut ops.into_iter()).unwrap();
    let first = s.tx_latencies[0];
    let last = *s.tx_latencies.last().unwrap();
    assert!(last > first + 15 * 200_000, "queueing delay must accumulate: {first} -> {last}");
}

#[test]
fn idle_time_consumes_wall_but_not_cpu() {
    let cfg = SimConfig::builder().condition(Condition::baseline()).build().unwrap();
    let ops = vec![Op::Compute { cycles: 50_000 }, Op::ThinkIdle { cycles: 450_000 }];
    let s = System::new(cfg).run_stream(&mut ops.into_iter()).unwrap();
    assert!(s.wall_cycles >= 500_000);
    assert!(s.app_cpu_cycles >= 50_000);
    assert!(s.app_cpu_cycles < 120_000, "idle must not count as CPU time");
}

#[test]
fn contention_slows_ops_only_while_revoking() {
    // Identical churn; without a spare revoker core, wall grows.
    let mk = |spare: bool| {
        let cfg = SimConfig::builder()
            .condition(Condition::reloaded())
            .spare_revoker_core(spare)
            .min_quarantine(64 << 10)
            .build()
            .unwrap();
        let mut ops = Vec::new();
        for i in 0..1500u64 {
            ops.push(Op::Alloc { obj: i % 16, size: 4096 });
            ops.push(Op::Compute { cycles: 20_000 });
            ops.push(Op::Free { obj: i % 16 });
        }
        System::new(cfg).run_stream(&mut ops.into_iter()).unwrap()
    };
    let spare = mk(true);
    let shared = mk(false);
    assert!(shared.wall_cycles > spare.wall_cycles, "core sharing must cost wall time");
}

#[test]
fn cycles_constants_are_consistent() {
    assert_eq!(CYCLES_PER_SEC, 2_500_000_000);
    let cfg = SimConfig::builder().condition(Condition::baseline()).build().unwrap();
    let ops = vec![Op::Compute { cycles: CYCLES_PER_SEC / 100 }];
    let s = System::new(cfg).run_stream(&mut ops.into_iter()).unwrap();
    assert!((9.0..12.0).contains(&s.wall_ms()), "10 ms of compute should read ~10 ms");
}

#[test]
fn blocked_allocations_are_accounted() {
    // A tiny arena with huge min quarantine forces blocking on revocation.
    let cfg = SimConfig::builder()
        .condition(Condition::cornucopia())
        .heap_len(4 << 20)
        .max_objects(256)
        .min_quarantine(32 << 10)
        .build()
        .unwrap();
    let mut ops = Vec::new();
    for i in 0..2000u64 {
        ops.push(Op::Alloc { obj: i % 8, size: 16 << 10 });
        ops.push(Op::Free { obj: i % 8 });
    }
    let s = System::new(cfg).run_stream(&mut ops.into_iter()).unwrap();
    assert!(s.revocations > 0);
    // Blocking may or may not trigger depending on pass timing, but the
    // counter must never be negative garbage and the run must finish.
    assert!(s.blocked_cycles == 0 || s.blocked_allocs > 0);
}
