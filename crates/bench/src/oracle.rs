//! The static/dynamic cross-check, run in lockstep: one [`Analyzer`] and
//! one traced [`System`] are fed the same batches of the one
//! [`for_each_batch`] loop, both are drained after each batch
//! ([`Analyzer::drain_chases`], [`System::drain_events`]), and the
//! predicted `(from, slot, to)` chase triples must equal the journaled
//! `StaleChase` events of that batch, in order.
//!
//! Neither side hoards: memory is one batch's chases and events, so a
//! run of any length is checked whole. A disagreement, an evicted
//! journal event, or report totals that differ from what was drained is
//! a typed [`Disagreement`], never a skipped check.

use analyze::{Analyzer, AnalyzerConfig, ChaseDigest, DiagnosticKind, Report, StaleChase};
use morello_sim::{
    for_each_batch, ObjId, OpSource, RunReport, SimConfig, SimError, StaleChaseOutcome, System,
    TelemetryEvent, TimedEvent,
};
use std::fmt;

/// A chase's coordinates: `(from, slot, to)`.
pub type Triple = (ObjId, u64, ObjId);

/// What a lockstep run agreed on.
#[derive(Debug)]
pub struct Lockstep {
    /// The static analysis; its chase total and digest equal the drains'.
    pub analysis: Report,
    /// The simulator's report. Its journal holds only what was recorded
    /// after the last drain, and no chase.
    pub run: RunReport,
    /// Stale chases compared: the analyzer's total, and the journal's.
    pub chases: u64,
    /// Of those, how many the simulator journaled as escaped.
    pub escaped: u64,
}

/// Why a lockstep run failed.
#[derive(Debug)]
pub enum Disagreement {
    /// The simulator refused an op.
    Sim(SimError),
    /// The `index`-th chase of the run (0-based, counted over the whole
    /// run) differs between the two sides in batch `batch` (0-based; one
    /// past the last batch for what [`System::finish`] journaled). `None`:
    /// that side had no more chases in the batch.
    Chase {
        /// The batch.
        batch: u64,
        /// The chase's index in the run.
        index: u64,
        /// The analyzer's triple.
        predicted: Option<Triple>,
        /// The simulator's triple.
        journaled: Option<Triple>,
    },
    /// The journal's ring evicted this many events: the run was not
    /// checked whole.
    Dropped(u64),
    /// The analyzer's report disagrees with the chases it handed out in
    /// the named total.
    Totals(&'static str),
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Disagreement::Sim(e) => write!(f, "simulator error: {e}"),
            Disagreement::Chase { batch, index, predicted, journaled } => write!(
                f,
                "batch {batch}, chase {index}: the analyzer predicted {predicted:?}, the \
                 simulator journaled {journaled:?}"
            ),
            Disagreement::Dropped(n) => {
                write!(f, "the journal evicted {n} event(s): the run was not checked whole")
            }
            Disagreement::Totals(field) => {
                write!(f, "the report's {field} disagrees with the drained chases")
            }
        }
    }
}

impl std::error::Error for Disagreement {}

/// What the drains handed out so far.
#[derive(Default)]
struct Drained {
    batch: u64,
    chases: u64,
    escaped: u64,
    digest: ChaseDigest,
}

impl Drained {
    /// Compares one batch's drains and folds them in.
    fn compare(
        &mut self,
        predicted: &[StaleChase],
        events: &[TimedEvent],
    ) -> Result<(), Disagreement> {
        let mut journaled = events.iter().filter_map(|e| match e.event {
            TelemetryEvent::StaleChase { from, slot, to, outcome } => {
                Some(((from, slot, to), outcome))
            }
            _ => None,
        });
        let mut predicted = predicted.iter().map(|c| ((c.from, c.slot, c.to), c));
        loop {
            let (p, j) = (predicted.next(), journaled.next());
            match (p, j) {
                (None, None) => break,
                (Some((t, c)), Some((u, outcome))) if t == u => {
                    self.chases += 1;
                    self.escaped += u64::from(outcome == StaleChaseOutcome::Escaped);
                    self.digest.push(c);
                }
                _ => {
                    return Err(Disagreement::Chase {
                        batch: self.batch,
                        index: self.chases,
                        predicted: p.map(|(t, _)| t),
                        journaled: j.map(|(t, _)| t),
                    })
                }
            }
        }
        self.batch += 1;
        Ok(())
    }
}

/// Feeds `source` to an analyzer and to a [`System`] under `cfg` (whose
/// telemetry must be on, or the journal is empty and any predicted chase
/// disagrees), batch by batch, and compares their chases after each.
///
/// # Errors
///
/// The first [`Disagreement`].
pub fn lockstep<S: OpSource + ?Sized>(
    source: &mut S,
    cfg: SimConfig,
) -> Result<Lockstep, Disagreement> {
    let mut analyzer = Analyzer::new(AnalyzerConfig::from_sim(&cfg));
    let mut sys = System::new(cfg);
    let (mut predicted, mut events) = (Vec::new(), Vec::new());
    let mut drained = Drained::default();
    for_each_batch(source, |batch| {
        batch.iter().for_each(|&op| analyzer.push(op));
        sys.exec_batch(batch).map_err(Disagreement::Sim)?;
        analyzer.drain_chases(&mut predicted);
        sys.drain_events(&mut events);
        let agreed = drained.compare(&predicted, &events);
        predicted.clear();
        events.clear();
        agreed
    })?;
    let run = sys.finish();
    match run.telemetry().dropped_events {
        0 => drained.compare(&[], &run.telemetry().events)?,
        n => return Err(Disagreement::Dropped(n)),
    }
    let analysis = analyzer.finish();
    if analysis.count(DiagnosticKind::StaleChase) != drained.chases {
        return Err(Disagreement::Totals("stale-chase count"));
    }
    if analysis.stale_chase_digest != drained.digest.value() {
        return Err(Disagreement::Totals("stale_chase_digest"));
    }
    Ok(Lockstep { analysis, run, chases: drained.chases, escaped: drained.escaped })
}
