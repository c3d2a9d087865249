//! A traced run takes the same batched dispatch path as an untraced one,
//! so the fusion of `Compute` / `ThinkIdle` runs in `System::exec_batch`
//! must be exact for telemetry too: draining events and sampling counters
//! once after a fused run must record what per-op hooks would have.
//!
//! `System::exec` on one op has nothing to fuse, so driving a stream op by
//! op is the per-op reference. For each condition and revoker core count,
//! that reference and `run_stream` (batches, fused runs) must export
//! byte-equal report JSON, and the traced statistics must equal an
//! untraced run's.

use cornucopia_reloaded::morello_sim::{
    Condition, Op, RunReport, SimConfig, System, TelemetryConfig,
};

/// Live objects at a time: slot `i % SLOTS` is freed and reallocated at
/// step `i`.
const SLOTS: u64 = 32;

/// Object churn with links, stale chases, data traffic and transactions,
/// interleaved with runs of `Compute` and `ThinkIdle` ops: short runs
/// right after frees (often inside the pass a free just started) and long
/// idle gaps the passes finish in (so later runs fall outside any pass).
fn stream() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..3_000u64 {
        let obj = i % SLOTS;
        ops.push(Op::TxBegin { id: i });
        if i >= SLOTS {
            ops.push(Op::Free { obj });
        }
        ops.extend([Op::Compute { cycles: 700 }, Op::Compute { cycles: 900 + i % 5 * 100 }]);
        ops.push(Op::Alloc { obj, size: 512 + (i % 7) * 256 });
        ops.push(Op::WriteData { obj, len: 256 });
        if i >= 1 {
            ops.push(Op::LinkPtr { from: obj, slot: i % 3, to: (i - 1) % SLOTS });
        }
        if i + 1 >= SLOTS {
            // The oldest live object links to the one freed this step.
            ops.push(Op::ChasePtr { from: (i + 1) % SLOTS, slot: (i + 1 - SLOTS) % 3 });
        }
        ops.push(Op::ReadData { obj, len: 128 });
        ops.push(Op::TxEnd { id: i });
        if i % 50 == 0 {
            ops.extend(std::iter::repeat_n(Op::ThinkIdle { cycles: 100_000 }, 6));
        }
        if i % 97 == 0 {
            ops.extend(std::iter::repeat_n(Op::Compute { cycles: 30_000 }, 10));
        }
        if i % 13 == 0 {
            ops.extend([Op::ThinkIdle { cycles: 2_000 }, Op::ThinkIdle { cycles: 3_000 }]);
        }
    }
    ops
}

fn config(condition: Condition, revoker_threads: usize, traced: bool) -> SimConfig {
    let builder = SimConfig::builder()
        .condition(condition)
        .revoker_threads(revoker_threads)
        .min_quarantine(64 << 10);
    let builder =
        if traced { builder.telemetry(TelemetryConfig::full(200_000)) } else { builder };
    builder.build().expect("valid config")
}

/// Drives `ops` one `exec` at a time; also counts the `Compute` /
/// `ThinkIdle` ops that continue a run, inside and outside a pass.
fn run_op_by_op(cfg: SimConfig, ops: &[Op]) -> (RunReport, [usize; 2]) {
    let mut sys = System::new(cfg);
    let mut run_ops = [0, 0];
    let mut prev = None;
    for &op in ops {
        let idle_kind = match op {
            Op::Compute { .. } => Some(true),
            Op::ThinkIdle { .. } => Some(false),
            _ => None,
        };
        if idle_kind.is_some() && idle_kind == prev {
            run_ops[usize::from(sys.revoker().is_revoking())] += 1;
        }
        prev = idle_kind;
        sys.exec(op).expect("stream runs clean");
    }
    (sys.finish(), run_ops)
}

fn run_streamed(cfg: SimConfig, ops: Vec<Op>) -> RunReport {
    System::new(cfg).run_stream(&mut ops.into_iter()).expect("stream runs clean")
}

#[test]
fn traced_runs_fuse_exactly_op_by_op_equals_batched() {
    let ops = stream();
    for condition in [Condition::baseline(), Condition::cornucopia(), Condition::reloaded()] {
        for cores in [1, 4] {
            let at = format!("{} at {cores} revoker core(s)", condition.label());
            let (per_op, [outside, during]) = run_op_by_op(config(condition, cores, true), &ops);
            let batched = run_streamed(config(condition, cores, true), ops.clone());
            let untraced = run_streamed(config(condition, cores, false), ops.clone());

            assert!(outside > 0, "{at}: no idle run outside a pass");
            let t = per_op.telemetry();
            assert!(t.samples.len() > 10, "{at}: {} samples", t.samples.len());
            assert!(t.events.iter().any(|e| e.event.label().starts_with("stale_chase")), "{at}");
            assert_eq!((t.dropped_events, t.dropped_samples), (0, 0), "{at}");
            if condition != Condition::baseline() {
                assert!(per_op.revocations > 0, "{at}: no pass");
                assert!(during > 0, "{at}: no idle run inside a pass");
                assert!(!t.spans.is_empty(), "{at}: no spans");
            }

            assert!(per_op.to_json() == batched.to_json(), "{at}: report JSON differs");
            assert_eq!(per_op.stats(), untraced.stats(), "{at}: traced stats differ");
            assert!(untraced.telemetry().is_empty(), "{at}");
        }
    }
}
