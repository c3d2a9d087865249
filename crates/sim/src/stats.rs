//! Run statistics and percentile utilities.

use crate::json::Json;

/// Simulated clock frequency: 2.5 GHz, matching the Morello SoC.
pub const CYCLES_PER_SEC: u64 = 2_500_000_000;

/// Cycles per millisecond.
pub const CYCLES_PER_MS: u64 = CYCLES_PER_SEC / 1000;

/// Everything a single run produces; the raw material for every figure
/// and table in the evaluation.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Total simulated wall-clock cycles.
    pub wall_cycles: u64,
    /// CPU cycles consumed by the application thread(s) (includes fault
    /// handling and STW pauses spent spinning).
    pub app_cpu_cycles: u64,
    /// CPU cycles consumed by the background revoker.
    pub revoker_cpu_cycles: u64,
    /// DRAM transactions attributed to application cores.
    pub app_dram: u64,
    /// DRAM transactions attributed to the revoker core(s), summed.
    pub revoker_dram: u64,
    /// DRAM transactions per revoker core, aligned with `revoker_cores`
    /// (the parallel sweep charges each shard's traffic to its own core).
    pub revoker_dram_per_core: Vec<u64>,
    /// The revoker core ids, in shard order (key for
    /// `revoker_dram_per_core`).
    pub revoker_cores: Vec<usize>,
    /// Pages content-scanned by the revoker, all phases.
    pub pages_swept: u64,
    /// Peak resident set in bytes.
    pub peak_rss: u64,
    /// Every stop-the-world pause observed (cycles).
    pub pauses: Vec<u64>,
    /// Cycles the application spent blocked waiting for an in-flight pass
    /// (quarantine hard-full; §5.3's pathology).
    pub blocked_cycles: u64,
    /// Per-transaction latencies in cycles (TxBegin..TxEnd), in
    /// completion order.
    pub tx_latencies: Vec<u64>,
    /// Cumulative fault-handling cycles (application side).
    pub fault_cycles: u64,
    /// Load-barrier faults taken.
    pub faults: u64,
    /// Completed revocation epochs.
    pub revocations: u64,
    /// Mean allocated heap sampled at each revocation request (bytes).
    pub mean_alloc_at_revocation: u64,
    /// Total bytes passed through free() (Table 2 "Sum Freed").
    pub total_freed_bytes: u64,
    /// Allocation operations performed.
    pub allocs: u64,
    /// Free operations performed.
    pub frees: u64,
    /// Revocation phase durations (Figure 9's raw data).
    pub phases: Vec<cornucopia::PhaseRecord>,
    /// Times allocation blocked on an in-flight pass.
    pub blocked_allocs: u64,
    /// TLB misses that required a page-table walk (all cores).
    pub tlb_misses: u64,
    /// TLB invalidations broadcast to other cores.
    pub tlb_shootdowns: u64,
    /// PTE writes performed (the quantity §4.1's design halves).
    pub pte_writes: u64,
}

/// Phase records as JSON, the one form the checkpoint and the report share.
pub(crate) fn phases_json(phases: &[cornucopia::PhaseRecord]) -> Json {
    let record = |p: &cornucopia::PhaseRecord| {
        Json::Obj(vec![
            ("epoch".into(), p.epoch_index.into()),
            ("kind".into(), p.kind.label().into()),
            ("cycles".into(), p.cycles.into()),
        ])
    };
    Json::Arr(phases.iter().map(record).collect())
}

impl RunStats {
    /// Total DRAM transactions (all cores).
    #[must_use]
    pub fn total_dram(&self) -> u64 {
        self.app_dram + self.revoker_dram
    }

    /// Total CPU cycles (all cores).
    #[must_use]
    pub fn total_cpu(&self) -> u64 {
        self.app_cpu_cycles + self.revoker_cpu_cycles
    }

    /// Wall time in milliseconds.
    #[must_use]
    pub fn wall_ms(&self) -> f64 {
        self.wall_cycles as f64 / CYCLES_PER_MS as f64
    }

    /// Latency summary of the recorded transactions.
    #[must_use]
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_cycles(&self.tx_latencies)
    }

    /// Full-fidelity serialization to a [`Json`] tree: every field,
    /// including the raw transaction latencies and phase records that
    /// [`RunReport::to_json_value`](crate::RunReport::to_json_value)
    /// summarizes. [`RunStats::from_json_value`] inverts it exactly, so
    /// interrupted sweeps can checkpoint completed runs and resume without
    /// losing figure inputs.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let arr = |v: &[u64]| Json::Arr(v.iter().map(|&x| x.into()).collect());
        Json::Obj(vec![
            ("wall_cycles".into(), self.wall_cycles.into()),
            ("app_cpu_cycles".into(), self.app_cpu_cycles.into()),
            ("revoker_cpu_cycles".into(), self.revoker_cpu_cycles.into()),
            ("app_dram".into(), self.app_dram.into()),
            ("revoker_dram".into(), self.revoker_dram.into()),
            ("revoker_dram_per_core".into(), arr(&self.revoker_dram_per_core)),
            (
                "revoker_cores".into(),
                Json::Arr(self.revoker_cores.iter().map(|&c| c.into()).collect()),
            ),
            ("pages_swept".into(), self.pages_swept.into()),
            ("peak_rss".into(), self.peak_rss.into()),
            ("pauses".into(), arr(&self.pauses)),
            ("blocked_cycles".into(), self.blocked_cycles.into()),
            ("tx_latencies".into(), arr(&self.tx_latencies)),
            ("fault_cycles".into(), self.fault_cycles.into()),
            ("faults".into(), self.faults.into()),
            ("revocations".into(), self.revocations.into()),
            ("mean_alloc_at_revocation".into(), self.mean_alloc_at_revocation.into()),
            ("total_freed_bytes".into(), self.total_freed_bytes.into()),
            ("allocs".into(), self.allocs.into()),
            ("frees".into(), self.frees.into()),
            ("phases".into(), phases_json(&self.phases)),
            ("blocked_allocs".into(), self.blocked_allocs.into()),
            ("tlb_misses".into(), self.tlb_misses.into()),
            ("tlb_shootdowns".into(), self.tlb_shootdowns.into()),
            ("pte_writes".into(), self.pte_writes.into()),
        ])
    }

    /// Reconstructs statistics serialized by [`RunStats::to_json_value`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field; a
    /// checkpoint written by a different code version fails here rather
    /// than resurrecting half-parsed statistics.
    pub fn from_json_value(v: &Json) -> Result<RunStats, String> {
        fn num(v: &Json, key: &str) -> Result<u64, String> {
            let n =
                v.get(key).and_then(Json::as_num).ok_or_else(|| format!("missing field {key}"))?;
            u64::try_from(n).map_err(|_| format!("field {key} out of range"))
        }
        fn nums(v: &Json, key: &str) -> Result<Vec<u64>, String> {
            let arr =
                v.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing array {key}"))?;
            arr.iter()
                .map(|x| {
                    x.as_num()
                        .and_then(|n| u64::try_from(n).ok())
                        .ok_or_else(|| format!("non-numeric entry in {key}"))
                })
                .collect()
        }
        let wall_cycles = num(v, "wall_cycles")?;
        let phases = v
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("missing array phases")?
            .iter()
            .map(|p| {
                let label =
                    p.get("kind").and_then(Json::as_str).ok_or("phase record missing kind")?;
                let kind = cornucopia::PhaseKind::from_label(label)
                    .ok_or_else(|| format!("unknown phase kind {label:?}"))?;
                Ok(cornucopia::PhaseRecord {
                    epoch_index: num(p, "epoch")?,
                    kind,
                    cycles: num(p, "cycles")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunStats {
            wall_cycles,
            app_cpu_cycles: num(v, "app_cpu_cycles")?,
            revoker_cpu_cycles: num(v, "revoker_cpu_cycles")?,
            app_dram: num(v, "app_dram")?,
            revoker_dram: num(v, "revoker_dram")?,
            revoker_dram_per_core: nums(v, "revoker_dram_per_core")?,
            revoker_cores: nums(v, "revoker_cores")?.into_iter().map(|c| c as usize).collect(),
            pages_swept: num(v, "pages_swept")?,
            peak_rss: num(v, "peak_rss")?,
            pauses: nums(v, "pauses")?,
            blocked_cycles: num(v, "blocked_cycles")?,
            tx_latencies: nums(v, "tx_latencies")?,
            fault_cycles: num(v, "fault_cycles")?,
            faults: num(v, "faults")?,
            revocations: num(v, "revocations")?,
            mean_alloc_at_revocation: num(v, "mean_alloc_at_revocation")?,
            total_freed_bytes: num(v, "total_freed_bytes")?,
            allocs: num(v, "allocs")?,
            frees: num(v, "frees")?,
            phases,
            blocked_allocs: num(v, "blocked_allocs")?,
            tlb_misses: num(v, "tlb_misses")?,
            tlb_shootdowns: num(v, "tlb_shootdowns")?,
            pte_writes: num(v, "pte_writes")?,
        })
    }
}

/// Standard latency percentiles (cycles), as gRPC QPS reports (Figure 8).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: u64,
}

impl LatencySummary {
    /// Summarizes a set of latency samples (not necessarily sorted).
    #[must_use]
    pub fn from_cycles(samples: &[u64]) -> Self {
        let d = Dist::from_samples(samples);
        if d.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            count: d.len(),
            p50: d.percentile(50.0),
            p90: d.percentile(90.0),
            p95: d.percentile(95.0),
            p99: d.percentile(99.0),
            p999: d.percentile(99.9),
            max: d.max().expect("nonempty"),
            mean: d.mean(),
        }
    }
}

/// A sorted sample distribution: the one percentile/extremum utility every
/// consumer (latency summaries, boxplots, figure tables) goes through, so
/// the nearest-rank convention lives in exactly one place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dist {
    sorted: Vec<u64>,
}

impl Dist {
    /// Builds a distribution from unsorted samples.
    #[must_use]
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Dist { sorted }
    }

    /// Builds a distribution from a vector, reusing its storage.
    #[must_use]
    pub fn from_vec(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Dist { sorted: samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The smallest sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.sorted.first().copied()
    }

    /// The largest sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        if self.sorted.is_empty() {
            return 0;
        }
        (self.sorted.iter().map(|&x| x as u128).sum::<u128>() / self.sorted.len() as u128) as u64
    }

    /// Nearest-rank percentile; `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty or `p` is out of range.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        percentile(&self.sorted, p)
    }

    /// The sorted samples.
    #[must_use]
    pub fn as_sorted(&self) -> &[u64] {
        &self.sorted
    }
}

/// Nearest-rank percentile of an ascending-sorted slice. `p` in `[0,100]`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is out of range.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if p == 0.0 {
        return sorted[0];
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

// (BoxStats is exported from the crate root; Figure 9's harness uses it.)

/// Five-number summary for boxplots (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: u64,
    /// First quartile.
    pub q1: u64,
    /// Median.
    pub median: u64,
    /// Third quartile.
    pub q3: u64,
    /// Maximum.
    pub max: u64,
}

impl BoxStats {
    /// Computes the five-number summary of `samples` (unsorted OK).
    /// Returns `None` when empty.
    #[must_use]
    pub fn from_samples(samples: &[u64]) -> Option<Self> {
        let d = Dist::from_samples(samples);
        Some(BoxStats {
            min: d.min()?,
            q1: d.percentile(25.0),
            median: d.percentile(50.0),
            q3: d.percentile(75.0),
            max: d.max().expect("nonempty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 99.9), 100);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[42], 99.9), 42);
    }

    #[test]
    fn summary_orders_percentiles() {
        let samples: Vec<u64> = (0..1000).map(|i| i * i % 7919).collect();
        let s = LatencySummary::from_cycles(&samples);
        assert!(s.p50 <= s.p90);
        assert!(s.p90 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.p999);
        assert!(s.p999 <= s.max);
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(LatencySummary::from_cycles(&[]), LatencySummary::default());
    }

    #[test]
    fn dist_consolidates_percentile_helpers() {
        let d = Dist::from_samples(&[9, 1, 5, 3, 7]);
        assert_eq!((d.min(), d.max(), d.len()), (Some(1), Some(9), 5));
        assert_eq!(d.mean(), 5);
        assert_eq!(d.percentile(50.0), 5);
        assert_eq!(d.as_sorted(), &[1, 3, 5, 7, 9]);
        assert_eq!(Dist::from_vec(vec![2, 1]).as_sorted(), &[1, 2]);
        let empty = Dist::from_samples(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.mean(), 0);
        assert_eq!(empty.min(), None);
    }

    #[test]
    fn dist_agrees_with_summary_and_boxstats() {
        let samples: Vec<u64> = (0..500).map(|i| i * 37 % 1009).collect();
        let d = Dist::from_samples(&samples);
        let sum = LatencySummary::from_cycles(&samples);
        assert_eq!(sum.p50, d.percentile(50.0));
        assert_eq!(sum.p999, d.percentile(99.9));
        assert_eq!(sum.max, d.max().unwrap());
        let b = BoxStats::from_samples(&samples).unwrap();
        assert_eq!(b.median, d.percentile(50.0));
        assert_eq!(b.q3, d.percentile(75.0));
    }

    #[test]
    fn stats_json_roundtrip_is_exact() {
        let stats = RunStats {
            wall_cycles: 123_456_789,
            app_cpu_cycles: 10,
            revoker_cpu_cycles: 20,
            app_dram: 30,
            revoker_dram: 40,
            revoker_dram_per_core: vec![25, 15],
            revoker_cores: vec![1, 3],
            pages_swept: 50,
            peak_rss: 60,
            pauses: vec![7, 8, 9],
            blocked_cycles: 70,
            tx_latencies: vec![100, 200, 300],
            fault_cycles: 80,
            faults: 90,
            revocations: 3,
            mean_alloc_at_revocation: 4096,
            total_freed_bytes: 1 << 20,
            allocs: 1000,
            frees: 900,
            phases: vec![
                cornucopia::PhaseRecord {
                    epoch_index: 1,
                    kind: cornucopia::PhaseKind::ReloadedStw,
                    cycles: 11,
                },
                cornucopia::PhaseRecord {
                    epoch_index: 1,
                    kind: cornucopia::PhaseKind::ReloadedConcurrent,
                    cycles: 22,
                },
            ],
            blocked_allocs: 2,
            tlb_misses: 5,
            tlb_shootdowns: 6,
            pte_writes: 7,
        };
        let rendered = stats.to_json_value().render();
        let parsed = Json::parse(&rendered).expect("serialized stats must parse");
        let back = RunStats::from_json_value(&parsed).expect("roundtrip must succeed");
        assert_eq!(back, stats);
        // Defaults roundtrip too (empty vectors, zero counters).
        let d = RunStats::default();
        let back =
            RunStats::from_json_value(&Json::parse(&d.to_json_value().render()).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn stats_from_json_rejects_malformed_documents() {
        assert!(RunStats::from_json_value(&Json::parse("{}").unwrap())
            .unwrap_err()
            .contains("wall_cycles"));
        let mut v = RunStats::default().to_json_value();
        if let Json::Obj(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "phases" {
                    *val = Json::Arr(vec![Json::Obj(vec![
                        ("epoch".into(), 1u64.into()),
                        ("kind".into(), "not a phase".into()),
                        ("cycles".into(), 2u64.into()),
                    ])]);
                }
            }
        }
        assert!(RunStats::from_json_value(&v).unwrap_err().contains("unknown phase kind"));
    }

    #[test]
    fn boxstats_five_numbers() {
        let b = BoxStats::from_samples(&[5, 1, 3, 2, 4]).unwrap();
        assert_eq!((b.min, b.median, b.max), (1, 3, 5));
        assert!(b.q1 <= b.median && b.median <= b.q3);
        assert!(BoxStats::from_samples(&[]).is_none());
    }
}
