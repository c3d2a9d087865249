//! SPEC CPU2006 INT surrogate profiles (paper §5.1, Table 2, Figure 3).
//!
//! Eight benchmarks compile as pure-capability CHERI programs and were
//! used by the paper (astar, bzip2, gobmk, hmmer, libquantum, omnetpp,
//! sjeng, xalancbmk). Each profile below reproduces, at 1/64 scale, the
//! observable allocation behaviour Table 2 reports: steady-state heap
//! size, total freed bytes (and hence revocation count under the 1/3
//! policy), plus the pointer-density characterization of §5.4 (astar,
//! omnetpp, and xalancbmk are "pointer-chase-heavy"; bzip2 and sjeng
//! never engage revocation).

use crate::churn::{ChurnProfile, ChurnSource, SizeDist};
use crate::{GeneratedWorkload, StreamedWorkload, MEM_SCALE};
use morello_sim::SimConfig;

/// The eight CHERI-compatible SPEC CPU2006 INT workloads (named workload
/// variants match Table 2 where the paper distinguishes them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SpecProgram {
    /// `astar` with the `lakes` input: large pathfinding graphs,
    /// pointer-chase heavy.
    AstarLakes,
    /// `astar` with the `BigLakes` input: larger map, similar behaviour.
    AstarBigLakes,
    /// `bzip2`: a handful of large block buffers, nearly no churn — never
    /// engages revocation.
    Bzip2,
    /// `gobmk` with the `trevord` input: small heap, heavy compute.
    GobmkTrevord,
    /// `gobmk` with the `13x13` input: smaller games, same profile.
    Gobmk13x13,
    /// `hmmer` with the `nph3` input: medium churn of sequence buffers.
    HmmerNph3,
    /// `hmmer` with the `retro` input: smaller heap, similar behaviour.
    HmmerRetro,
    /// `libquantum`: few, large, flat arrays; data-dominated.
    Libquantum,
    /// `omnetpp`: discrete-event simulation, very high churn of small
    /// pointer-rich event objects.
    Omnetpp,
    /// `sjeng`: chess hash tables allocated once — never engages
    /// revocation.
    Sjeng,
    /// `xalancbmk`: XML transformation over a large pointer-rich DOM,
    /// the paper's worst case.
    Xalancbmk,
}

/// All SPEC surrogates in the paper's figure order.
pub const SPEC_PROGRAMS: [SpecProgram; 11] = [
    SpecProgram::AstarLakes,
    SpecProgram::AstarBigLakes,
    SpecProgram::Bzip2,
    SpecProgram::GobmkTrevord,
    SpecProgram::Gobmk13x13,
    SpecProgram::HmmerNph3,
    SpecProgram::HmmerRetro,
    SpecProgram::Libquantum,
    SpecProgram::Omnetpp,
    SpecProgram::Sjeng,
    SpecProgram::Xalancbmk,
];

impl SpecProgram {
    /// The benchmark's display name (matching the paper's labels).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.profile().name
    }

    /// The scaled churn profile (see module docs for calibration).
    #[must_use]
    pub fn profile(&self) -> ChurnProfile {
        const MIB: u64 = 1 << 20;
        match self {
            // Table 2: 235 MiB heap, 3.36 GiB freed, 39 revocations.
            SpecProgram::AstarLakes => ChurnProfile {
                name: "astar lakes",
                target_heap: 235 * MIB / MEM_SCALE,
                total_churn: 3441 * MIB / MEM_SCALE,
                obj_size: SizeDist { min: 256, max: 64 << 10 },
                links_per_step: 3,
                chases_per_step: 4,
                reads_per_step: 2,
                read_len: 2048,
                compute_per_step: 900_000,
                hoard_every: 0,
            },
            // BigLakes: a larger map than `lakes`, lighter churn per
            // unit of search (no Table 2 row; calibrated from Figure 3's
            // footprint ordering).
            SpecProgram::AstarBigLakes => ChurnProfile {
                name: "astar biglakes",
                target_heap: 310 * MIB / MEM_SCALE,
                total_churn: 2200 * MIB / MEM_SCALE,
                obj_size: SizeDist { min: 512, max: 96 << 10 },
                links_per_step: 3,
                chases_per_step: 4,
                reads_per_step: 2,
                read_len: 2048,
                compute_per_step: 1_100_000,
                hoard_every: 0,
            },
            // Large block buffers, churn below the quarantine floor.
            SpecProgram::Bzip2 => ChurnProfile {
                name: "bzip2",
                target_heap: 180 * MIB / MEM_SCALE,
                total_churn: 5 * MIB / MEM_SCALE, // < 8 MiB floor: no revocation
                obj_size: SizeDist::fixed(16 << 10),
                links_per_step: 0,
                chases_per_step: 0,
                reads_per_step: 4,
                read_len: 16384,
                compute_per_step: 20_000_000,
                hoard_every: 0,
            },
            // Table 2: 124 MiB heap, 0.212 GiB freed, 7 revocations.
            SpecProgram::GobmkTrevord => ChurnProfile {
                name: "gobmk trevord",
                target_heap: 124 * MIB / MEM_SCALE,
                total_churn: 217 * MIB / MEM_SCALE,
                obj_size: SizeDist { min: 256, max: 8 << 10 },
                links_per_step: 2,
                chases_per_step: 2,
                reads_per_step: 2,
                read_len: 4096,
                compute_per_step: 2_600_000,
                hoard_every: 0,
            },
            // 13x13 boards: smaller games, same engine profile as trevord.
            SpecProgram::Gobmk13x13 => ChurnProfile {
                name: "gobmk 13x13",
                target_heap: 110 * MIB / MEM_SCALE,
                total_churn: 160 * MIB / MEM_SCALE,
                obj_size: SizeDist { min: 256, max: 8 << 10 },
                links_per_step: 2,
                chases_per_step: 2,
                reads_per_step: 2,
                read_len: 4096,
                compute_per_step: 2_400_000,
                hoard_every: 0,
            },
            // Table 2: 49.3 MiB heap, 2.06 GiB freed, 168 revocations.
            SpecProgram::HmmerNph3 => ChurnProfile {
                name: "hmmer nph3",
                target_heap: 49 * MIB / MEM_SCALE + (3 << 17),
                total_churn: 2109 * MIB / MEM_SCALE,
                obj_size: SizeDist { min: 512, max: 8 << 10 },
                links_per_step: 1,
                chases_per_step: 1,
                reads_per_step: 3,
                read_len: 8192,
                compute_per_step: 450_000,
                hoard_every: 0,
            },
            // Table 2: 20.4 MiB heap, 0.579 GiB freed, 117 revocations.
            SpecProgram::HmmerRetro => ChurnProfile {
                name: "hmmer retro",
                target_heap: 20 * MIB / MEM_SCALE + (2 << 17),
                total_churn: 593 * MIB / MEM_SCALE,
                obj_size: SizeDist { min: 256, max: 4 << 10 },
                links_per_step: 1,
                chases_per_step: 1,
                reads_per_step: 3,
                read_len: 4096,
                compute_per_step: 500_000,
                hoard_every: 0,
            },
            // Figure 3: large flat heap; few, large allocations.
            SpecProgram::Libquantum => ChurnProfile {
                name: "libquantum",
                target_heap: 96 * MIB / MEM_SCALE,
                total_churn: 3800 * MIB / MEM_SCALE,
                obj_size: SizeDist { min: 64 << 10, max: 256 << 10 },
                links_per_step: 0,
                chases_per_step: 0,
                reads_per_step: 4,
                read_len: 65536,
                compute_per_step: 2_500_000,
                hoard_every: 0,
            },
            // Table 2: 365 MiB heap, 73.8 GiB freed, 827 revocations.
            SpecProgram::Omnetpp => ChurnProfile {
                name: "omnetpp",
                target_heap: 365 * MIB / MEM_SCALE,
                total_churn: 75_571 * MIB / MEM_SCALE,
                obj_size: SizeDist { min: 2 << 10, max: 32 << 10 },
                links_per_step: 4,
                chases_per_step: 5,
                reads_per_step: 1,
                read_len: 512,
                compute_per_step: 420_000,
                hoard_every: 0,
            },
            // Hash tables allocated once; no churn.
            SpecProgram::Sjeng => ChurnProfile {
                name: "sjeng",
                target_heap: 170 * MIB / MEM_SCALE,
                total_churn: 4 * MIB / MEM_SCALE,
                obj_size: SizeDist::fixed(8 << 10),
                links_per_step: 0,
                chases_per_step: 1,
                reads_per_step: 4,
                read_len: 8192,
                compute_per_step: 20_000_000,
                hoard_every: 0,
            },
            // Table 2: 625 MiB heap, 66.9 GiB freed, 426 revocations.
            SpecProgram::Xalancbmk => ChurnProfile {
                name: "xalancbmk",
                target_heap: 625 * MIB / MEM_SCALE,
                total_churn: 68_506 * MIB / MEM_SCALE,
                obj_size: SizeDist { min: 2 << 10, max: 32 << 10 },
                links_per_step: 4,
                chases_per_step: 4,
                reads_per_step: 2,
                read_len: 1024,
                compute_per_step: 340_000,
                hoard_every: 0,
            },
        }
    }

    /// Whether the paper reports this benchmark as engaging revocation at
    /// all (bzip2 and sjeng do not; Figure 1 excludes them downstream).
    #[must_use]
    pub fn engages_revocation(&self) -> bool {
        !matches!(self, SpecProgram::Bzip2 | SpecProgram::Sjeng)
    }
}

/// Generates the surrogate workload for `program` with a tuned
/// [`SimConfig`] (arena sized 4x the steady heap; paper quarantine policy
/// scaled by [`MEM_SCALE`]).
#[must_use]
pub fn spec(program: SpecProgram, seed: u64) -> GeneratedWorkload {
    spec_stream(program, seed).materialize()
}

fn spec_config(profile: &ChurnProfile) -> SimConfig {
    let arena = ((profile.target_heap * 4).max(8 << 20)).next_multiple_of(1 << 16);
    SimConfig::builder()
        .heap_len(arena)
        .max_objects(profile.max_objects())
        .min_quarantine((8 << 20) / MEM_SCALE)
        .build()
        .expect("profile-derived config")
}

/// The streaming form of [`spec`]: the ops are regenerated lazily from
/// the profile's RNG schedule.
#[must_use]
pub fn spec_stream(program: SpecProgram, seed: u64) -> StreamedWorkload<ChurnSource> {
    let profile = program.profile();
    let config = spec_config(&profile);
    StreamedWorkload { name: profile.name.to_string(), source: profile.source(seed), config }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morello_sim::{Condition, Op, System};

    #[test]
    fn profiles_cover_all_programs_with_distinct_names() {
        let mut names: Vec<&str> = SPEC_PROGRAMS.iter().map(SpecProgram::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SPEC_PROGRAMS.len());
    }

    #[test]
    fn bzip2_and_sjeng_never_trigger_revocation() {
        for p in [SpecProgram::Bzip2, SpecProgram::Sjeng] {
            let mut w = spec(p, 11);
            w.config = w.config.with_condition(Condition::reloaded());
            let stats = System::new(w.config.clone()).run(w.ops).unwrap();
            assert_eq!(stats.revocations, 0, "{}", p.name());
            assert!(!p.engages_revocation());
        }
    }

    #[test]
    fn gobmk_triggers_a_handful_of_revocations() {
        // Table 2 says 7 revocations for gobmk trevord; accept the band.
        let mut w = spec(SpecProgram::GobmkTrevord, 11);
        w.config = w.config.with_condition(Condition::reloaded());
        let stats = System::new(w.config.clone()).run(w.ops).unwrap();
        assert!(
            (3..=15).contains(&stats.revocations),
            "gobmk revocations {} outside Table 2 band",
            stats.revocations
        );
    }

    #[test]
    fn astar_revocation_count_matches_table2_band() {
        let mut w = spec(SpecProgram::AstarLakes, 11);
        w.config = w.config.with_condition(Condition::reloaded());
        let stats = System::new(w.config.clone()).run(w.ops).unwrap();
        // Table 2: 39 revocations at full scale.
        assert!(
            (20..=80).contains(&stats.revocations),
            "astar revocations {} outside Table 2 band",
            stats.revocations
        );
    }

    #[test]
    fn scaled_heaps_match_table2_within_factor_two() {
        for p in [SpecProgram::AstarLakes, SpecProgram::HmmerNph3, SpecProgram::Omnetpp] {
            let profile = p.profile();
            let w = spec(p, 3);
            // Count implied live bytes at end of warmup from the op stream.
            let mut live = 0i64;
            let mut peak = 0i64;
            let mut sizes = std::collections::HashMap::new();
            for op in &w.ops {
                match *op {
                    Op::Alloc { obj, size } => {
                        live += size as i64;
                        sizes.insert(obj, size);
                        peak = peak.max(live);
                    }
                    Op::Free { obj } => live -= sizes.remove(&obj).unwrap_or(0) as i64,
                    _ => {}
                }
            }
            let target = profile.target_heap as i64;
            assert!(peak >= target / 2 && peak <= target * 2, "{}: peak {peak} target {target}", profile.name);
        }
    }
}
