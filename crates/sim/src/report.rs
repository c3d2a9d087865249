//! The unified run artifact: statistics plus telemetry, exportable as
//! deterministic JSON and CSV.
//!
//! [`RunReport`] is what [`crate::System::run_stream`] returns. It wraps the
//! familiar [`RunStats`] (and derefs to it, so `report.wall_cycles` and
//! `report.latency_summary()` keep working at every old call site)
//! together with whatever the run's telemetry recorded (nothing unless
//! [`TelemetryConfig::full`](crate::TelemetryConfig::full) turned it on).
//! [`RunReport::to_json`] emits a compact, integer-only,
//! key-ordered document — the same run always produces byte-identical
//! text — with enough structure to plot the paper's Figure 4/6/9
//! analogues: the sampled counter series, the STW pauses, and the
//! per-phase spans.

use crate::json::Json;
use crate::stats::{phases_json, RunStats};
use crate::telemetry::{Sample, Span, TelemetryData, TelemetryEvent};
use cheri_alloc::AllocEvent;
use cheri_vm::VmEvent;
use cornucopia::RevokerEvent;
use std::ops::Deref;

/// Schema version of [`RunReport::to_json`].
pub const REPORT_VERSION: u64 = 1;

/// Statistics + telemetry from one completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    condition: &'static str,
    stats: RunStats,
    telemetry: TelemetryData,
}

impl RunReport {
    pub(crate) fn new(condition: &'static str, stats: RunStats, telemetry: TelemetryData) -> Self {
        RunReport { condition, stats, telemetry }
    }

    /// The measured condition's label (paper figure legend).
    #[must_use]
    pub fn condition(&self) -> &'static str {
        self.condition
    }

    /// The run statistics.
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Whatever telemetry the run recorded (empty with telemetry off, the
    /// default).
    #[must_use]
    pub fn telemetry(&self) -> &TelemetryData {
        &self.telemetry
    }

    /// Unwraps the statistics, discarding telemetry.
    #[must_use]
    pub fn into_stats(self) -> RunStats {
        self.stats
    }

    /// Renders the deterministic JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The report as a [`Json`] tree (for callers embedding it).
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let s = &self.stats;
        let lat = s.latency_summary();
        let latency = Json::Obj(vec![
            ("count".into(), lat.count.into()),
            ("p50".into(), lat.p50.into()),
            ("p90".into(), lat.p90.into()),
            ("p95".into(), lat.p95.into()),
            ("p99".into(), lat.p99.into()),
            ("p999".into(), lat.p999.into()),
            ("max".into(), lat.max.into()),
            ("mean".into(), lat.mean.into()),
        ]);
        let stats = Json::Obj(vec![
            ("wall_cycles".into(), s.wall_cycles.into()),
            ("app_cpu_cycles".into(), s.app_cpu_cycles.into()),
            ("revoker_cpu_cycles".into(), s.revoker_cpu_cycles.into()),
            ("app_dram".into(), s.app_dram.into()),
            ("revoker_dram".into(), s.revoker_dram.into()),
            (
                "revoker_dram_per_core".into(),
                Json::Arr(s.revoker_dram_per_core.iter().map(|&d| d.into()).collect()),
            ),
            (
                "revoker_cores".into(),
                Json::Arr(s.revoker_cores.iter().map(|&c| c.into()).collect()),
            ),
            ("pages_swept".into(), s.pages_swept.into()),
            ("peak_rss".into(), s.peak_rss.into()),
            ("blocked_cycles".into(), s.blocked_cycles.into()),
            ("blocked_allocs".into(), s.blocked_allocs.into()),
            ("fault_cycles".into(), s.fault_cycles.into()),
            ("faults".into(), s.faults.into()),
            ("revocations".into(), s.revocations.into()),
            ("mean_alloc_at_revocation".into(), s.mean_alloc_at_revocation.into()),
            ("total_freed_bytes".into(), s.total_freed_bytes.into()),
            ("allocs".into(), s.allocs.into()),
            ("frees".into(), s.frees.into()),
            ("tlb_misses".into(), s.tlb_misses.into()),
            ("tlb_shootdowns".into(), s.tlb_shootdowns.into()),
            ("pte_writes".into(), s.pte_writes.into()),
            ("latency".into(), latency),
            ("pauses".into(), Json::Arr(s.pauses.iter().map(|&p| p.into()).collect())),
        ]);
        let t = &self.telemetry;
        let spans = Json::Arr(t.spans.iter().map(span_json).collect());
        let events = Json::Arr(t.events.iter().map(|e| event_json(e.at, &e.event)).collect());
        let mut columns: Vec<(String, Json)> = Sample::COLUMNS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let col = t.samples.iter().map(|s| s.values()[i].into()).collect();
                ((*name).to_string(), Json::Arr(col))
            })
            .collect();
        columns.push(("dropped_samples".into(), t.dropped_samples.into()));
        Json::Obj(vec![
            ("version".into(), REPORT_VERSION.into()),
            ("condition".into(), self.condition.into()),
            ("stats".into(), stats),
            ("phases".into(), phases_json(&s.phases)),
            ("spans".into(), spans),
            ("events".into(), events),
            ("dropped_events".into(), t.dropped_events.into()),
            ("series".into(), Json::Obj(columns)),
        ])
    }

    /// The sampled counter series as CSV (header + one row per sample).
    #[must_use]
    pub fn series_csv(&self) -> String {
        let mut out = Sample::COLUMNS.join(",");
        out.push('\n');
        for sample in &self.telemetry.samples {
            let row: Vec<String> = sample.values().iter().map(u64::to_string).collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl Deref for RunReport {
    type Target = RunStats;

    fn deref(&self) -> &RunStats {
        &self.stats
    }
}

impl From<RunReport> for RunStats {
    fn from(report: RunReport) -> Self {
        report.into_stats()
    }
}

fn span_json(span: &Span) -> Json {
    Json::Obj(vec![
        ("kind".into(), span.kind.label().into()),
        ("epoch".into(), span.epoch.into()),
        ("start".into(), span.start.into()),
        ("end".into(), span.end.into()),
        ("core".into(), span.core.map_or(Json::Null, Json::from)),
        ("busy_cycles".into(), span.busy_cycles.into()),
    ])
}

fn event_json(at: u64, event: &TelemetryEvent) -> Json {
    let mut pairs: Vec<(String, Json)> =
        vec![("at".into(), at.into()), ("kind".into(), event.label().into())];
    match event {
        TelemetryEvent::Vm(e) => match *e {
            VmEvent::TlbShootdown { page } => pairs.push(("page".into(), page.into())),
            VmEvent::GenerationFlip { generation } => {
                pairs.push(("generation".into(), generation.into()));
            }
            VmEvent::LoadGenerationFault { vaddr, core } => {
                pairs.push(("vaddr".into(), vaddr.into()));
                pairs.push(("core".into(), core.into()));
            }
            _ => {}
        },
        TelemetryEvent::Revoker(e) => match *e {
            RevokerEvent::EpochBegin { epoch } => pairs.push(("epoch".into(), epoch.into())),
            RevokerEvent::EpochEnd { epoch, pages_swept, caps_revoked } => {
                pairs.push(("epoch".into(), epoch.into()));
                pairs.push(("pages_swept".into(), pages_swept.into()));
                pairs.push(("caps_revoked".into(), caps_revoked.into()));
            }
            RevokerEvent::LoadFaultHandled { vaddr, core, cycles } => {
                pairs.push(("vaddr".into(), vaddr.into()));
                pairs.push(("core".into(), core.into()));
                pairs.push(("cycles".into(), cycles.into()));
            }
            _ => {}
        },
        TelemetryEvent::Alloc(e) => match *e {
            AllocEvent::RevocationRequested { reason, allocated_bytes, quarantine_bytes } => {
                pairs.push(("reason".into(), reason.label().into()));
                pairs.push(("allocated_bytes".into(), allocated_bytes.into()));
                pairs.push(("quarantine_bytes".into(), quarantine_bytes.into()));
            }
            AllocEvent::BatchSealed { bytes, epoch } => {
                pairs.push(("bytes".into(), bytes.into()));
                pairs.push(("epoch".into(), epoch.into()));
            }
            AllocEvent::BatchReleased { bytes, sealed_epoch } => {
                pairs.push(("bytes".into(), bytes.into()));
                pairs.push(("sealed_epoch".into(), sealed_epoch.into()));
            }
            _ => {}
        },
        TelemetryEvent::StaleChase { from, slot, to, .. } => {
            pairs.push(("from".into(), (*from).into()));
            pairs.push(("slot".into(), (*slot).into()));
            pairs.push(("to".into(), (*to).into()));
        }
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{SpanKind, TimedEvent};

    fn report() -> RunReport {
        let stats = RunStats {
            wall_cycles: 1000,
            pauses: vec![5, 7],
            tx_latencies: vec![10, 20, 30],
            ..RunStats::default()
        };
        let telemetry = TelemetryData {
            events: vec![TimedEvent {
                at: 42,
                event: TelemetryEvent::Revoker(RevokerEvent::EpochBegin { epoch: 1 }),
            }],
            spans: vec![Span {
                kind: SpanKind::StwPause,
                epoch: 1,
                start: 40,
                end: 45,
                core: None,
                busy_cycles: 5,
            }],
            samples: vec![Sample { at: 100, rss_bytes: 4096, ..Sample::default() }],
            dropped_events: 0,
            dropped_samples: 0,
        };
        RunReport::new("reloaded", stats, telemetry)
    }

    #[test]
    fn deref_exposes_stats() {
        let r = report();
        assert_eq!(r.wall_cycles, 1000);
        assert_eq!(r.latency_summary().count, 3);
        let stats: RunStats = r.into();
        assert_eq!(stats.wall_cycles, 1000);
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let a = report().to_json();
        let b = report().to_json();
        assert_eq!(a, b);
        let v = Json::parse(&a).unwrap();
        assert_eq!(v.get("version").unwrap().as_num(), Some(REPORT_VERSION as i128));
        assert_eq!(v.get("condition").unwrap().as_str(), Some("reloaded"));
        assert_eq!(
            v.get("stats").unwrap().get("wall_cycles").unwrap().as_num(),
            Some(1000)
        );
        assert_eq!(v.get("spans").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("events").unwrap().as_arr().unwrap().len(), 1);
        let series = v.get("series").unwrap();
        assert_eq!(series.get("at").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            series.get("rss_bytes").unwrap().as_arr().unwrap()[0].as_num(),
            Some(4096)
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = report().series_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), Sample::COLUMNS.join(","));
        let row = lines.next().unwrap();
        assert!(row.starts_with("100,4096,"));
        assert_eq!(lines.next(), None);
    }
}
