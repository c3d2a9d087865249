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
//! - [`within_3s`] — the watchdog a test puts around input that might
//!   hang: a hang fails the test instead of stalling the suite.
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

/// Runs `f` on its own thread and returns its result, failing the calling
/// test if none arrives within 3 s; a panic in `f` propagates as itself.
/// On a hang the thread is left running and the test fails regardless.
///
/// # Panics
///
/// If `f` panics, or takes longer than 3 s.
pub fn within_3s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (done, result) = channel();
    let worker = std::thread::spawn(move || done.send(f()));
    match result.recv_timeout(std::time::Duration::from_secs(3)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("the worker sends before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("no result within 3 s"),
    }
}

#[cfg(test)]
mod tests {
    use super::within_3s;

    #[test]
    fn a_prompt_result_is_returned() {
        assert_eq!(within_3s(|| 6 * 7), 42);
    }

    #[test]
    #[should_panic(expected = "no result within 3 s")]
    fn a_hang_fails_the_test() {
        within_3s(|| loop {
            std::thread::park();
        });
    }

    #[test]
    #[should_panic(expected = "the worker's own message")]
    fn a_panic_keeps_its_message() {
        within_3s(|| panic!("the worker's own message"));
    }
}
