//! In-tree deterministic correctness tooling for the Cornucopia Reloaded
//! workspace.
//!
//! This crate exists because the build must be **hermetic**: no registry
//! access, no third-party code, yet the workspace still needs seedable
//! randomness for workload generation and property-based testing for its
//! architectural invariants. `simtest` provides both with zero
//! dependencies:
//!
//! - [`rng`] — a SplitMix64-seeded xoshiro256\*\* PRNG ([`Rng`]) with
//!   `gen_range` / `gen_bool` / `shuffle` and fork-by-stream child
//!   generators. The replacement for `rand::SmallRng`.
//! - [`check`] — a property-testing harness: generators for integers,
//!   tuples, `Vec`s, and enums of actions; bounded shrinking; a fixed
//!   default case count; `SIMTEST_SEED` replay; and a checked-in seed
//!   corpus per test. The replacement for `proptest`.
//!
//! Determinism contract: given the same seed and the same code, every
//! `Rng` stream, every generated test case, and every workload trace is
//! byte-identical on every platform. `SIMTEST_SEED=<u64>` (decimal or
//! `0x`-hex) re-aims the property-test case chain without code changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod rng;

pub use check::{CaseFailure, CaseResult, Config};
pub use rng::Rng;
