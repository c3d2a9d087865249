//! Suites: the index of results the figure generators read, and the
//! scale and condition vocabulary every plan shares.
//!
//! A [`Suite`] keeps each `(workload, condition)`'s repetitions in the
//! order they were inserted. [`crate::plan::MatrixPlan`] expands a suite's
//! jobs rep (outer) → workload → condition (inner) and
//! [`crate::orchestrator::run`] merges in job order, so a merged suite —
//! per-key repetition order included — is the same at every worker
//! count (`tests/suite_goldens.rs` pins it).

use morello_sim::{Condition, RunStats};
use std::collections::BTreeMap;

/// The conditions every figure draws from, in the paper's order.
pub const CONDITIONS: [Condition; 5] = [
    Condition::Baseline,
    Condition::Safe(cornucopia::Strategy::PaintSync),
    Condition::Safe(cornucopia::Strategy::CheriVoke),
    Condition::Safe(cornucopia::Strategy::Cornucopia),
    Condition::Safe(cornucopia::Strategy::Reloaded),
];

/// Run-size controls, read from `REPRO_SCALE` (default 1.0) and
/// `REPRO_REPS` (repetitions per condition, default 2 — the paper uses 12
/// executions on real hardware; the simulator is deterministic per seed,
/// so repetitions only sample workload-generation randomness).
///
/// `REPRO_SCALE` sets the pgbench transaction and gRPC message counts
/// ([`pgbench_transactions`], [`grpc_messages`]). SPEC rows and the
/// ablations always run their full Table-2-calibrated stream, as they
/// always have: the churn streams carry no transactions to cut at.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fraction of the full pgbench transaction / gRPC message count.
    pub fraction: f64,
    /// Repetitions (distinct workload seeds) per condition.
    pub reps: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { fraction: 1.0, reps: 2 }
    }
}

impl Scale {
    /// Builds a [`Scale`] from optional `REPRO_SCALE` / `REPRO_REPS`
    /// strings, rejecting unparsable values instead of silently running
    /// the (expensive) defaults.
    ///
    /// # Errors
    ///
    /// Names the offending variable and value.
    pub fn parse(fraction: Option<&str>, reps: Option<&str>) -> Result<Self, String> {
        let mut s = Scale::default();
        if let Some(v) = fraction {
            let f = v
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("REPRO_SCALE={v:?}: not a number"))?;
            if !f.is_finite() || f <= 0.0 {
                return Err(format!("REPRO_SCALE={v:?}: must be a finite fraction > 0"));
            }
            s.fraction = f.clamp(0.001, 1.0);
        }
        if let Some(v) = reps {
            let r = v
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("REPRO_REPS={v:?}: not a whole number"))?;
            if r == 0 {
                return Err(format!("REPRO_REPS={v:?}: must be ≥ 1"));
            }
            s.reps = r.clamp(1, 12);
        }
        Ok(s)
    }

    /// A fast configuration for tests.
    #[must_use]
    pub fn smoke() -> Self {
        Scale { fraction: 0.02, reps: 1 }
    }
}

/// Table 1's pgbench arrival-rate schedule (x8-compressed timebase;
/// `None` is the unscheduled row). One definition shared by every
/// [`crate::plan::MatrixPlan`] and the matrix benchmark so their job
/// lists — and therefore their checkpoint keys — always agree.
pub const RATE_SCHEDULE: [Option<f64>; 4] = [Some(800.0), Some(1200.0), Some(2000.0), None];

/// The gRPC suite's conditions: CHERIvoke is excluded, mirroring the
/// paper (§5.3: "a bug in our implementation... we are unable to obtain
/// CHERIvoke results for this experiment").
pub const GRPC_CONDITIONS: [Condition; 4] = [
    Condition::Baseline,
    Condition::Safe(cornucopia::Strategy::PaintSync),
    Condition::Safe(cornucopia::Strategy::Cornucopia),
    Condition::Safe(cornucopia::Strategy::Reloaded),
];

/// Transactions for one pgbench run at `scale` (20 000 full-scale,
/// floored at 200).
#[must_use]
pub fn pgbench_transactions(scale: Scale) -> u64 {
    ((20_000_f64 * scale.fraction) as u64).max(200)
}

/// Messages for one gRPC QPS run at `scale` (30 000 full-scale, floored
/// at 500).
#[must_use]
pub fn grpc_messages(scale: Scale) -> u64 {
    ((30_000_f64 * scale.fraction) as u64).max(500)
}

/// Table 1 row label for a pgbench arrival rate.
#[must_use]
pub fn rate_label(rate: Option<f64>) -> String {
    rate.map_or("unscheduled".to_string(), |r| format!("{r:.0} tx/s"))
}

/// Results of running a set of workloads under a set of conditions.
#[derive(Debug, Default, PartialEq)]
pub struct Suite {
    runs: BTreeMap<(String, String), Vec<RunStats>>,
}

impl Suite {
    /// A suite with no runs.
    #[must_use]
    pub const fn new() -> Self {
        Suite { runs: BTreeMap::new() }
    }

    /// Records one run's statistics under `(workload, condition)`. Public
    /// so custom harnesses can assemble suites from their own runs and
    /// reuse the figure generators.
    pub fn insert(&mut self, workload: &str, condition: Condition, stats: RunStats) {
        self.runs.entry((workload.to_string(), condition.label().to_string())).or_default().push(stats);
    }

    /// All repetitions of `(workload, condition)`.
    #[must_use]
    pub fn stats(&self, workload: &str, condition: &str) -> &[RunStats] {
        self.runs
            .get(&(workload.to_string(), condition.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// Workload names present, sorted (the index is a `BTreeMap`).
    #[must_use]
    pub fn workloads(&self) -> Vec<String> {
        let mut v: Vec<String> = self.runs.keys().map(|(w, _)| w.clone()).collect();
        v.dedup();
        v
    }

    /// Mean of `metric` across repetitions.
    pub fn mean<F: Fn(&RunStats) -> f64>(&self, workload: &str, condition: &str, metric: F) -> f64 {
        let s = self.stats(workload, condition);
        if s.is_empty() {
            return f64::NAN;
        }
        s.iter().map(&metric).sum::<f64>() / s.len() as f64
    }

    /// `mean(condition) / mean(baseline) - 1` for `metric`.
    pub fn overhead<F: Fn(&RunStats) -> f64 + Copy>(
        &self,
        workload: &str,
        condition: &str,
        metric: F,
    ) -> f64 {
        self.mean(workload, condition, metric) / self.mean(workload, "baseline", metric) - 1.0
    }

    /// Ratio `mean(condition) / mean(baseline)` for `metric`.
    pub fn ratio<F: Fn(&RunStats) -> f64 + Copy>(
        &self,
        workload: &str,
        condition: &str,
        metric: F,
    ) -> f64 {
        self.mean(workload, condition, metric) / self.mean(workload, "baseline", metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_indexing_and_means() {
        let mut s = Suite::default();
        let a = RunStats { wall_cycles: 100, ..RunStats::default() };
        let b = RunStats { wall_cycles: 200, ..RunStats::default() };
        s.insert("w", Condition::Baseline, a);
        s.insert("w", Condition::reloaded(), b);
        assert_eq!(s.stats("w", "baseline").len(), 1);
        assert_eq!(s.mean("w", "Reloaded", |r| r.wall_cycles as f64), 200.0);
        assert!((s.overhead("w", "Reloaded", |r| r.wall_cycles as f64) - 1.0).abs() < 1e-9);
        assert_eq!(s.workloads(), vec!["w".to_string()]);
    }

    #[test]
    fn scale_from_env_defaults() {
        let s = Scale::default();
        assert_eq!(s.reps, 2);
        assert!((s.fraction - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn scale_parse_accepts_valid_values_and_clamps() {
        let s = Scale::parse(Some("0.2"), Some("3")).unwrap();
        assert!((s.fraction - 0.2).abs() < 1e-12);
        assert_eq!(s.reps, 3);
        // Out-of-range but parsable values clamp, as before.
        let s = Scale::parse(Some("7.5"), Some("99")).unwrap();
        assert!((s.fraction - 1.0).abs() < f64::EPSILON);
        assert_eq!(s.reps, 12);
        // Absent variables keep defaults.
        let s = Scale::parse(None, None).unwrap();
        assert_eq!(s.reps, 2);
    }

    #[test]
    fn scale_parse_rejects_garbage_instead_of_swallowing_it() {
        let e = Scale::parse(Some("fast"), None).unwrap_err();
        assert!(e.contains("REPRO_SCALE"), "{e}");
        assert!(e.contains("fast"), "{e}");
        let e = Scale::parse(None, Some("two")).unwrap_err();
        assert!(e.contains("REPRO_REPS"), "{e}");
        let e = Scale::parse(Some("0"), None).unwrap_err();
        assert!(e.contains("> 0"), "{e}");
        let e = Scale::parse(Some("NaN"), None).unwrap_err();
        assert!(e.contains("finite"), "{e}");
        let e = Scale::parse(None, Some("0")).unwrap_err();
        assert!(e.contains("≥ 1"), "{e}");
    }
}
