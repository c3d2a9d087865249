//! Ablation studies for the design choices DESIGN.md calls out.

use crate::fmt::{markdown_table, ms};
use crate::harness::spec_single;
use morello_sim::{Condition, SimConfigBuilder, System};
use cornucopia::PteUpdateMode;
use workloads::{spec, SpecProgram};
use cheri_alloc::{ColoredMrs, HeapLayout, Mrs, MrsConfig};
use cheri_vm::Machine;
use cornucopia::{Revoker, RevokerConfig, StepOutcome, Strategy};

fn run_with<F: FnOnce(SimConfigBuilder) -> SimConfigBuilder>(
    program: SpecProgram,
    condition: Condition,
    tweak: F,
) -> morello_sim::RunStats {
    let w = spec(program, 77);
    let builder = w.config.to_builder().condition(condition);
    let cfg = tweak(builder).build().expect("ablation config must validate");
    System::new(cfg).run(w.ops).expect("ablation run must be clean").into_stats()
}

/// Load barrier (Reloaded) vs store barrier (Cornucopia) as pointer-store
/// density rises: the store barrier forces STW re-sweeps of re-dirtied
/// pages, so its pause grows with density while the load barrier's does
/// not (§3.1-3.2).
#[must_use]
pub fn barriers(workers: usize) -> String {
    let cells = [
        ("low pointer density (hmmer nph3)", SpecProgram::HmmerNph3),
        ("medium (astar lakes)", SpecProgram::AstarLakes),
        ("high (xalancbmk)", SpecProgram::Xalancbmk),
    ];
    let rows = crate::orchestrator::parallel_cells(cells.len(), workers, |i| {
        let (label, program) = cells[i];
        let corn = spec_single(program, Condition::cornucopia(), 77);
        let rel = spec_single(program, Condition::reloaded(), 77);
        let corn_pause = corn.pauses.iter().copied().max().unwrap_or(0);
        let rel_pause = rel.pauses.iter().copied().max().unwrap_or(0);
        vec![
            label.to_string(),
            ms(corn_pause),
            ms(rel_pause),
            format!("{:.0}x", corn_pause as f64 / rel_pause.max(1) as f64),
        ]
    });
    let mut out = String::from("### Ablation — store barrier vs load barrier (max pause, ms)\n\n");
    out.push_str(&markdown_table(
        &["workload", "Cornucopia (store barrier)", "Reloaded (load barrier)", "pause ratio"],
        &rows,
    ));
    out.push_str(
        "\nExpectation: the store-barrier pause grows with pointer-store density; the \
         load-barrier pause stays flat (register/hoard scan only).\n",
    );
    out
}

/// Per-PTE generation bits vs rewriting every PTE each epoch (§4.1).
#[must_use]
pub fn pte_mode(workers: usize) -> String {
    let cells = [
        ("generation bits (paper design)", PteUpdateMode::Generation),
        ("rewrite PTEs each epoch (strawman)", PteUpdateMode::RewriteEachEpoch),
    ];
    let rows = crate::orchestrator::parallel_cells(cells.len(), workers, |i| {
        let (label, mode) = cells[i];
        let stats =
            run_with(SpecProgram::Omnetpp, Condition::reloaded(), |b| b.pte_mode(mode));
        vec![
            label.to_string(),
            format!("{:.1}", stats.wall_ms()),
            ms(stats.pauses.iter().copied().max().unwrap_or(0)),
            format!("{}", stats.revocations),
        ]
    });
    let mut out = String::from("### Ablation — PTE maintenance mode (omnetpp, Reloaded)\n\n");
    out.push_str(&markdown_table(&["mode", "wall (ms)", "max pause (ms)", "epochs"], &rows));
    out.push_str(
        "\nExpectation: rewriting every PTE at epoch start lengthens the stop-the-world \
         entry (one PTE write + shootdown per mapped page, twice per epoch) without any \
         safety benefit — the reason §4.1's generation scheme exists.\n",
    );
    out
}

/// Quarantine policy sweep (§7.2): fraction of heap and floor.
#[must_use]
pub fn quarantine_policy(workers: usize) -> String {
    let cells = [
        ("1/7 of heap, 128 KiB floor", 7u64, 128u64 << 10),
        ("1/3 of heap, 128 KiB floor (paper)", 3, 128 << 10),
        ("1/1 of heap, 128 KiB floor", 1, 128 << 10),
        ("1/3 of heap, 1 MiB floor", 3, 1 << 20),
    ];
    let rows = crate::orchestrator::parallel_cells(cells.len(), workers, |i| {
        let (label, divisor, floor) = cells[i];
        let stats = run_with(SpecProgram::Xalancbmk, Condition::reloaded(), |b| {
            b.quarantine_divisor(divisor).min_quarantine(floor)
        });
        vec![
            label.to_string(),
            format!("{:.1}", stats.wall_ms()),
            format!("{}", stats.revocations),
            format!("{:.1}", stats.peak_rss as f64 / (1 << 20) as f64),
        ]
    });
    let mut out = String::from("### Ablation — quarantine policy (xalancbmk, Reloaded)\n\n");
    out.push_str(&markdown_table(&["policy", "wall (ms)", "revocations", "peak RSS (MiB)"], &rows));
    out.push_str(
        "\nExpectation: a larger quarantine trades memory footprint for fewer, larger \
         revocation passes (§7.2); the paper's 1/3-of-allocated-heap policy sits in the \
         middle of the curve.\n",
    );
    out
}

/// CHERIoT-style in-pipeline load filter vs trapping load barrier (§6.3).
#[must_use]
pub fn cheriot(workers: usize) -> String {
    let cells = [
        ("Reloaded (trap + self-heal)", Condition::reloaded()),
        ("CHERIoT-style filter (probe every load)", Condition::Safe(cornucopia::Strategy::CheriotFilter)),
    ];
    let rows = crate::orchestrator::parallel_cells(cells.len(), workers, |i| {
        let (label, cond) = cells[i];
        let stats = spec_single(SpecProgram::Omnetpp, cond, 77);
        vec![
            label.to_string(),
            format!("{:.1}", stats.wall_ms()),
            format!("{}", stats.faults),
            ms(stats.pauses.iter().copied().max().unwrap_or(0)),
        ]
    });
    let mut out = String::from("### Ablation — CHERIoT-style load filter vs load barrier (omnetpp)\n\n");
    out.push_str(&markdown_table(&["design", "wall (ms)", "load faults", "max pause (ms)"], &rows));
    out.push_str(
        "\nExpectation: the filter takes no traps and needs no epoch entry STW at all \
         (freed objects are dead on load), at the price of probing the bitmap on every \
         capability load — viable for CHERIoT's tightly-coupled SRAM, costly for a \
         server-class memory hierarchy (§6.3).\n",
    );
    out
}

/// Revoker core placement (§5.3/§7.7): spare core vs competing with the
/// application.
#[must_use]
pub fn revoker_priority(workers: usize) -> String {
    let cells =
        [("revoker on spare core (SPEC setup)", true), ("revoker competes for app cores (gRPC setup)", false)];
    let rows = crate::orchestrator::parallel_cells(cells.len(), workers, |i| {
        let (label, spare) = cells[i];
        let stats = run_with(SpecProgram::Xalancbmk, Condition::reloaded(), |b| {
            b.spare_revoker_core(spare)
        });
        vec![label.to_string(), format!("{:.1}", stats.wall_ms()), format!("{}", stats.blocked_allocs)]
    });
    let mut out = String::from("### Ablation — revoker CPU placement (xalancbmk, Reloaded)\n\n");
    out.push_str(&markdown_table(&["placement", "wall (ms)", "blocked allocations"], &rows));
    out.push_str(
        "\nExpectation: without a spare core, concurrent revocation steals mutator \
         cycles and passes take longer to finish, so allocation blocks more often — \
         the §7.7 motivation for tuning the revoker thread's quantum/priority.\n",
    );
    out
}


/// Multi-threaded background revocation (§7.1): more revoker threads
/// shorten the concurrent phase (and with it the window in which
/// Cornucopia accumulates re-dirtied pages / Reloaded takes faults).
#[must_use]
pub fn revoker_threads(workers: usize) -> String {
    let cells = [1usize, 2];
    let rows = crate::orchestrator::parallel_cells(cells.len(), workers, |i| {
        let threads = cells[i];
        let stats = run_with(SpecProgram::Xalancbmk, Condition::reloaded(), |b| {
            b.revoker_threads(threads)
        });
        let mut concurrent: Vec<u64> = stats
            .phases
            .iter()
            .filter(|p| p.kind == cornucopia::PhaseKind::ReloadedConcurrent)
            .map(|p| p.cycles)
            .collect();
        concurrent.sort_unstable();
        let median = concurrent.get(concurrent.len() / 2).copied().unwrap_or(0);
        vec![
            format!("{threads} background thread(s)"),
            format!("{:.1}", stats.wall_ms()),
            ms(median),
            format!("{}", stats.faults),
        ]
    });
    let mut out =
        String::from("### Ablation — background revoker threads (§7.1; xalancbmk, Reloaded)\n\n");
    out.push_str(&markdown_table(
        &["configuration", "wall (ms)", "median concurrent phase (ms)", "load faults"],
        &rows,
    ));
    out.push_str(
        "\nExpectation: a second background thread roughly halves the concurrent \
         phase; the application then takes fewer load-barrier faults because pages \
         are healed before it touches them.\n",
    );
    out
}

/// Parallel multi-core concurrent sweep (§7.1): revoker_cores ∈ {1, 2, 4}
/// × {Cornucopia, Reloaded} on the churn-heaviest workload. Each core
/// consumes its own worklist shard and charges its own traffic, so the
/// concurrent phase shrinks to the critical path while per-core DRAM
/// shows where the sweep's bus pressure actually lands.
#[must_use]
pub fn revoker_core_scaling() -> String {
    let mut rows = Vec::new();
    for condition in [Condition::cornucopia(), Condition::reloaded()] {
        for cores in [1usize, 2, 4] {
            let stats =
                run_with(SpecProgram::Xalancbmk, condition, |b| b.revoker_threads(cores));
            let phase_kind = match condition {
                Condition::Safe(Strategy::Cornucopia) => cornucopia::PhaseKind::CornucopiaConcurrent,
                _ => cornucopia::PhaseKind::ReloadedConcurrent,
            };
            let mut concurrent: Vec<u64> = stats
                .phases
                .iter()
                .filter(|p| p.kind == phase_kind)
                .map(|p| p.cycles)
                .collect();
            concurrent.sort_unstable();
            let median = concurrent.get(concurrent.len() / 2).copied().unwrap_or(0);
            let total: u64 = concurrent.iter().sum();
            let per_core_dram = stats
                .revoker_dram_per_core
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(" / ");
            rows.push(vec![
                format!("{} × {cores} core(s)", condition.label()),
                ms(median),
                ms(total),
                per_core_dram,
            ]);
        }
    }
    let mut out = String::from(
        "### Ablation — parallel sweep core scaling (§7.1; xalancbmk, sharded worklists)\n\n",
    );
    out.push_str(&markdown_table(
        &[
            "configuration",
            "median concurrent phase (ms)",
            "total concurrent (ms)",
            "revoker DRAM txns per core",
        ],
        &rows,
    ));
    out.push_str(
        "\nExpectation: the concurrent-phase critical path falls roughly in proportion \
         to the core count (identical revocation results — the property suite checks \
         bit-for-bit equality), DRAM transactions spread across the sweeping cores \
         instead of piling on `revoker_cores[0]`, and the shorter window reduces \
         Cornucopia's re-dirtied-page STW work / Reloaded's fault exposure.\n",
    );
    out
}

// ---------------------------------------------------------------------
// §7.3 coloring composition
// ---------------------------------------------------------------------

const COLORING_CHURN_OBJECTS: u64 = 4000;
const COLORING_OBJ_SIZE: u64 = 8 << 10;

fn coloring_drain(machine: &mut Machine, revoker: &mut Revoker) -> u64 {
    let mut cycles = 0;
    while revoker.is_revoking() {
        match revoker.background_step(machine, 10_000_000) {
            StepOutcome::NeedsFinalStw { .. } => cycles += revoker.finish_stw(machine, 1),
            StepOutcome::Working { used } | StepOutcome::Finished { used } => cycles += used,
            StepOutcome::Idle => break,
        }
    }
    cycles
}

fn coloring_run_plain() -> Vec<String> {
    let layout = HeapLayout::new(0x4000_0000, 64 << 20);
    let mut machine = Machine::new(4);
    let mut revoker = Revoker::new(
        RevokerConfig { strategy: Strategy::Reloaded, ..RevokerConfig::default() },
        layout.base,
        layout.total_len,
    );
    let mut heap = Mrs::new(layout, MrsConfig { min_quarantine_bytes: 1 << 20, ..MrsConfig::default() });
    let mut rev_cycles = 0;
    for _ in 0..COLORING_CHURN_OBJECTS {
        let p = heap.alloc(&mut machine, 3, COLORING_OBJ_SIZE).unwrap().cap;
        let e = heap.free(&mut machine, &mut revoker, 3, p).unwrap();
        if e.trigger_revocation {
            rev_cycles += revoker.start_epoch(&mut machine);
            rev_cycles += coloring_drain(&mut machine, &mut revoker);
            heap.poll_release(&mut machine, &mut revoker, 3);
        }
    }
    vec![
        "plain quarantine (Mrs + Reloaded)".into(),
        format!("{}", revoker.stats().epochs),
        format!("{:.2}", rev_cycles as f64 / 2.5e6),
        "until next epoch (UAF window)".into(),
    ]
}

fn coloring_run_colored(colors: u8) -> Vec<String> {
    let layout = HeapLayout::new(0x4000_0000, 64 << 20);
    let mut machine = Machine::new(4);
    let mut revoker = Revoker::new(
        RevokerConfig { strategy: Strategy::Reloaded, ..RevokerConfig::default() },
        layout.base,
        layout.total_len,
    );
    let mut heap = ColoredMrs::new(layout, colors, 1 << 20);
    let mut rev_cycles = 0;
    for _ in 0..COLORING_CHURN_OBJECTS {
        let p = heap.alloc(&mut machine, 3, COLORING_OBJ_SIZE).unwrap().cap;
        let e = heap.free(&mut machine, &mut revoker, 3, p).unwrap();
        if e.trigger_revocation {
            rev_cycles += revoker.start_epoch(&mut machine);
            rev_cycles += coloring_drain(&mut machine, &mut revoker);
            heap.poll_release(&mut machine, &mut revoker, 3);
        }
    }
    vec![
        format!("coloring, {colors} colors"),
        format!("{}", revoker.stats().epochs),
        format!("{:.2}", rev_cycles as f64 / 2.5e6),
        "instant (fail-stop on free)".into(),
    ]
}


/// The §7.3 CHERI + memory-coloring composition vs. plain quarantine:
/// revocation pressure falls with the color count while stale pointers
/// die at free time.
#[must_use]
pub fn coloring() -> String {
    let rows = vec![coloring_run_plain(), coloring_run_colored(4), coloring_run_colored(8), coloring_run_colored(16)];
    let mut out = String::from("### Ablation — CHERI + memory coloring (§7.3)\n\n");
    out.push_str(&markdown_table(
        &["design", "revocation passes", "revoker ms", "stale-pointer lifetime"],
        &rows,
    ));
    out.push_str(
        "\nExpectation (§7.3): quarantine pressure — and with it revocation \
         frequency — falls roughly in proportion to the color count, while the \
         UAF/UAR gap closes completely (stale pointers die at free time, as in \
         CHERIoT).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_ablation_smoke() {
        let report = barriers(1);
        assert!(report.contains("xalancbmk"));
        assert!(report.contains("pause ratio"));
    }
}
