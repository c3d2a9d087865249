//! Seed-stability contract for the workload generators: a `(generator,
//! seed)` pair fully determines the emitted op trace, and distinct seeds
//! yield distinct traces. Every experiment in the repro harness leans on
//! this — traces are regenerated (never stored), and the paper's
//! condition comparisons are only meaningful if all conditions replay the
//! byte-identical workload.
//!
//! The golden table at the bottom goes one step further and pins the
//! streams themselves: `(op count, FNV-1a digest)` per `(workload, seed)`,
//! captured from the `Vec<Op>` builders that preceded the `OpSource` state
//! machines. A generator edit that moves any op fails here even when it
//! stays deterministic.

use morello_sim::Op;
use workloads::{
    file_copy, grpc_qps, pgbench, spec, ChurnProfile, FileCopyParams, GrpcParams, PgbenchParams,
    SizeDist, SpecProgram, SPEC_PROGRAMS,
};

/// A small-but-nontrivial churn profile so the test exercises the full
/// generator (warmup, steady state, hoarding) in milliseconds.
fn tiny_churn() -> ChurnProfile {
    ChurnProfile {
        name: "tiny",
        target_heap: 256 << 10,
        total_churn: 1 << 20,
        obj_size: SizeDist { min: 64, max: 8192 },
        links_per_step: 2,
        chases_per_step: 2,
        reads_per_step: 1,
        read_len: 4096,
        compute_per_step: 10_000,
        hoard_every: 50,
    }
}

/// Asserts the contract for one generator: same seed twice ⇒ identical
/// traces; a different seed ⇒ a different trace.
fn assert_seed_stable(name: &str, gen: impl Fn(u64) -> Vec<Op>) {
    let a = gen(41);
    let b = gen(41);
    assert_eq!(a, b, "{name}: same seed must produce an identical op trace");
    assert!(!a.is_empty(), "{name}: generator produced no ops");
    let c = gen(42);
    assert_ne!(a, c, "{name}: different seeds must produce different traces");
}

#[test]
fn churn_trace_is_seed_stable() {
    let profile = tiny_churn();
    assert_seed_stable("churn", |seed| profile.generate(seed));
}

#[test]
fn spec_surrogate_trace_is_seed_stable() {
    assert_seed_stable("spec/gobmk", |seed| {
        spec(SpecProgram::GobmkTrevord, seed).ops
    });
}

#[test]
fn filecopy_trace_is_seed_stable() {
    assert_seed_stable("filecopy", |seed| {
        file_copy(FileCopyParams { files: 200, seed }).ops
    });
}

#[test]
fn pgbench_trace_is_seed_stable() {
    assert_seed_stable("pgbench", |seed| {
        pgbench(PgbenchParams { transactions: 300, rate: None, seed }).ops
    });
}

#[test]
fn grpc_trace_is_seed_stable() {
    assert_seed_stable("grpc_qps", |seed| {
        grpc_qps(GrpcParams { messages: 500, seed }).ops
    });
}

#[test]
fn workload_configs_are_seed_independent() {
    // The tuned SimConfig must not depend on the seed — otherwise two
    // conditions run "the same workload" under different arena geometry.
    let a = pgbench(PgbenchParams { transactions: 100, rate: None, seed: 1 });
    let b = pgbench(PgbenchParams { transactions: 100, rate: None, seed: 2 });
    assert_eq!(format!("{:?}", a.config), format!("{:?}", b.config));
    assert_eq!(a.name, b.name);
}

/// The byte encoding the goldens hash: a tag byte, then three
/// little-endian `u64` fields (unused ones zero). Spelled out per variant
/// so the digest cannot move with `Op`'s derive layout or field order.
fn encode(op: &Op) -> (u8, [u64; 3]) {
    match *op {
        Op::Alloc { obj, size } => (0, [obj, size, 0]),
        Op::Free { obj } => (1, [obj, 0, 0]),
        Op::LoadObj { obj } => (2, [obj, 0, 0]),
        Op::ReadData { obj, len } => (3, [obj, len, 0]),
        Op::WriteData { obj, len } => (4, [obj, len, 0]),
        Op::LinkPtr { from, slot, to } => (5, [from, slot, to]),
        Op::ChasePtr { from, slot } => (6, [from, slot, 0]),
        Op::Compute { cycles } => (7, [cycles, 0, 0]),
        Op::ThinkIdle { cycles } => (8, [cycles, 0, 0]),
        Op::SyscallHoard { obj } => (9, [obj, 0, 0]),
        Op::Mmap { obj, len } => (10, [obj, len, 0]),
        Op::Munmap { obj } => (11, [obj, 0, 0]),
        Op::TxBegin { id } => (12, [id, 0, 0]),
        Op::TxEnd { id } => (13, [id, 0, 0]),
        _ => panic!("new Op variant {op:?}: give it an encoding"),
    }
}

/// FNV-1a 64 over the encoded stream.
fn digest(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for op in ops {
        let (tag, fields) = encode(op);
        let bytes = std::iter::once(tag).chain(fields.iter().flat_map(|f| f.to_le_bytes()));
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn op_streams_match_builder_goldens() {
    let mut actual: Vec<(String, usize, u64)> = Vec::new();
    let mut pin = |label: String, ops: &[Op]| actual.push((label, ops.len(), digest(ops)));
    for seed in [1000, 41] {
        for program in SPEC_PROGRAMS {
            pin(format!("spec/{}/{seed}", program.name()), &spec(program, seed).ops);
        }
    }
    for seed in [41, 42] {
        for rate in [None, Some(900.0)] {
            let w = pgbench(PgbenchParams { transactions: 300, rate, seed });
            pin(format!("pgbench/300/{rate:?}/{seed}"), &w.ops);
        }
        pin(format!("grpc/500/{seed}"), &grpc_qps(GrpcParams { messages: 500, seed }).ops);
        pin(format!("filecopy/200/{seed}"), &file_copy(FileCopyParams { files: 200, seed }).ops);
        pin(format!("churn/tiny/{seed}"), &tiny_churn().generate(seed));
    }

    let rendered: String =
        actual.iter().map(|(l, n, h)| format!("    (\"{l}\", {n}, {h:#018x}),\n")).collect();
    let actual: Vec<_> = actual.iter().map(|(l, n, h)| (l.as_str(), *n, *h)).collect();
    assert!(actual == GOLDEN, "op streams moved; the generators now produce:\n{rendered}");
}

/// Captured from the `Vec<Op>` builders (`ChurnProfile::generate`,
/// `pgbench`, `grpc_qps`, `file_copy` as loops over a local `ops` vector)
/// at the commit before they were deleted.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("spec/astar lakes/1000", 108806, 0x1f7a1723d92cc4d7),
    ("spec/astar biglakes/1000", 44665, 0x732975bb9cf031a0),
    ("spec/bzip2/1000", 425, 0xc96c82ce762376ce),
    ("spec/gobmk trevord/1000", 27748, 0xeb6b592b8db950d7),
    ("spec/gobmk 13x13/1000", 20100, 0x776a5f65e5bf5fd6),
    ("spec/hmmer nph3/1000", 188430, 0xd2847196b2e9feab),
    ("spec/hmmer retro/1000", 106700, 0xfa346b6b0e4278db),
    ("spec/libquantum/1000", 5779, 0xc1a4b657e1e62666),
    ("spec/omnetpp/1000", 2784494, 0x1d587df18f62f820),
    ("spec/sjeng/1000", 800, 0xb98c1938213d2a71),
    ("spec/xalancbmk/1000", 2530590, 0x0dfb1fade7ea68ac),
    ("spec/astar lakes/41", 106992, 0xe88afa16b774eec0),
    ("spec/astar biglakes/41", 43737, 0x8dab5c1adbcbc439),
    ("spec/bzip2/41", 425, 0xb30db49988db3853),
    ("spec/gobmk trevord/41", 27302, 0x11ccf3a35f70558c),
    ("spec/gobmk 13x13/41", 20993, 0xba08fedb9899bd37),
    ("spec/hmmer nph3/41", 186096, 0xd38346c6714c3d18),
    ("spec/hmmer retro/41", 107497, 0x136f4167b4542ed6),
    ("spec/libquantum/41", 5603, 0x30c42d2e145f8e16),
    ("spec/omnetpp/41", 2795029, 0xd494ce00fa83bd72),
    ("spec/sjeng/41", 800, 0xe5e5358655255194),
    ("spec/xalancbmk/41", 2524074, 0x14e148e1776725b7),
    ("pgbench/300/None/41", 51576, 0x8af6f91477af28cd),
    ("pgbench/300/Some(900.0)/41", 51576, 0x8af6f91477af28cd),
    ("grpc/500/41", 6400, 0xa678e6caa3dedfd7),
    ("filecopy/200/41", 1802, 0x056fc41d6bc0d4ef),
    ("churn/tiny/41", 9617, 0xe9c34bb17af4680a),
    ("pgbench/300/None/42", 51576, 0x38342262b1d81f03),
    ("pgbench/300/Some(900.0)/42", 51576, 0x38342262b1d81f03),
    ("grpc/500/42", 6400, 0x09e7cc0fea63ab0f),
    ("filecopy/200/42", 1802, 0x5017f5da522474e5),
    ("churn/tiny/42", 9544, 0x3d2e3a02639118cb),
];
