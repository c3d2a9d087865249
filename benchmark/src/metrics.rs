//! The metric tables — names and units exactly as `BENCHMARK.json`
//! declares them — and the value store a run fills in.

use crate::host::Summary;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("cpu_ns_per_op", "ns"),
    ("peak_rss_mib", "MiB"),
    ("passed_share", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by a traced run. A metric the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_ratio", "ratio"),
    ("trace.share.workloads", "%"),
    ("trace.share.analyze", "%"),
    ("trace.share.sim", "%"),
    ("trace.share.bench", "%"),
    ("trace.share.harness", "%"),
    ("workloads.refill_ns_per_op", "ns"),
    ("workloads.count_pass_ns_per_op", "ns"),
    ("workloads.ops", "count"),
    ("workloads.batch_ops_max", "count"),
    ("analyze.push_ns_per_op", "ns"),
    ("analyze.finish_ms", "ms"),
    ("analyze.ops", "count"),
    ("analyze.malformed_programs", "count"),
    ("sim.new_us", "us"),
    ("sim.exec_batch_ns_per_op_p50", "ns"),
    ("sim.exec_batch_ns_per_op_p99", "ns"),
    ("sim.batches", "count"),
    ("sim.finish_ms", "ms"),
    ("sim.ns_per_op.baseline", "ns"),
    ("sim.ns_per_op.paint-sync", "ns"),
    ("sim.ns_per_op.cherivoke", "ns"),
    ("sim.ns_per_op.cornucopia", "ns"),
    ("sim.ns_per_op.reloaded", "ns"),
    ("sim.quarantine_ns_per_op", "ns"),
    ("sim.telemetry_on_ratio", "ratio"),
    ("sim.wall_mcycles", "Mcycles"),
    ("sim.peak_rss_mib", "MiB"),
    ("core.sweep_ns_per_op.cherivoke", "ns"),
    ("core.sweep_ns_per_op.cornucopia", "ns"),
    ("core.sweep_ns_per_op.reloaded", "ns"),
    ("core.sweep_ns_per_page.cherivoke", "ns"),
    ("core.sweep_ns_per_page.cornucopia", "ns"),
    ("core.sweep_ns_per_page.reloaded", "ns"),
    ("core.paint_ns", "ns"),
    ("core.load_fault_ns", "ns"),
    ("core.epochs", "count"),
    ("core.pages_swept", "count"),
    ("core.pages_visited_clean", "count"),
    ("core.caps_checked", "count"),
    ("core.caps_revoked", "count"),
    ("core.revoked_per_checked", "ratio"),
    ("core.load_faults", "count"),
    ("alloc.alloc_free_ns", "ns"),
    ("alloc.alloc_free_immediate_ns", "ns"),
    ("alloc.allocs", "count"),
    ("alloc.frees", "count"),
    ("alloc.blocked_allocs", "count"),
    ("alloc.revocations_requested", "count"),
    ("vm.load_cap_streak_ns", "ns"),
    ("vm.load_cap_stride_ns", "ns"),
    ("vm.store_cap_streak_ns", "ns"),
    ("vm.read_data_4k_ns", "ns"),
    ("vm.write_data_4k_ns", "ns"),
    ("vm.tlb_misses", "count"),
    ("vm.tlb_misses_per_kop", "ratio"),
    ("vm.tlb_shootdowns", "count"),
    ("vm.pte_writes", "count"),
    ("vm.load_generation_faults", "count"),
    ("mem.touch_read_line_ns", "ns"),
    ("mem.touch_write_4k_ns", "ns"),
    ("mem.l1_hits", "count"),
    ("mem.l2_hits", "count"),
    ("mem.dram_txn", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("cap.set_bounds_ns", "ns"),
    ("cap.check_access_ns", "ns"),
    ("bench.plan_build_us", "us"),
    ("bench.run_ms_per_cell", "ms"),
    ("bench.overhead_ms_per_cell", "ms"),
    ("bench.overhead_share_pct", "%"),
    ("bench.preflight_ms_per_cell", "ms"),
    ("bench.checkpoint_bytes_per_cell", "B"),
    ("bench.resume_ms", "ms"),
    ("bench.compact_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("bench.worker_utilisation", "ratio"),
    ("bench.cells", "count"),
    ("bench.cells_failed", "count"),
];

/// One reported value; an undisturbed time also carries the plain
/// per-repetition samples it can be read against.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub spread: Option<Summary>,
}

/// The values of one run, keyed by the names of one metric table.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<Value>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    /// The slot of `name`, or `None` when it belongs to the other table:
    /// a traced run reports no end-to-end value and the other way round.
    fn slot(&mut self, name: &str) -> Option<&mut Option<Value>> {
        let i = self.table.iter().position(|(n, _)| *n == name);
        assert!(
            i.is_some() || END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is in neither table"
        );
        Some(&mut self.values[i?])
    }

    /// Records `value` under `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.slot(name) {
            *slot = Some(Value {
                value,
                spread: None,
            });
        }
    }

    /// Records `value` beside the summary of the whole-repetition
    /// samples of the same quantity.
    pub fn put_with_spread(&mut self, name: &str, value: f64, spread: Summary) {
        if let Some(slot) = self.slot(name) {
            *slot = Some(Value {
                value,
                spread: Some(spread),
            });
        }
    }

    /// Every metric of the table in order; unset ones read 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, Value)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| {
                (
                    name,
                    unit,
                    v.unwrap_or(Value {
                        value: 0.0,
                        spread: None,
                    }),
                )
            })
    }
}
