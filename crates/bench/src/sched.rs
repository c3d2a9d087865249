//! Shard scheduling: which cells each of N shard processes executes.
//!
//! One partitioner. A cell's cost is the number of ops in its own
//! seed-deterministic stream ([`JobSpec::op_count`]) — a value computed
//! from the job itself, so it is right at every `REPRO_SCALE`, needs no
//! table to maintain and no file to calibrate, and independently
//! launched `--shard K/N` processes derive identical costs with zero
//! coordination. Host time per op varies ~2.7× across workloads
//! (`BENCHMARK.json`'s `cpu_ns_per_op` medians, 118–322 ns), against
//! the spread in stream length the partition has to absorb: 425 ops
//! for a bzip2 cell, 2.8 M for omnetpp, 3.2 M for full-scale pgbench.
//!
//! [`assignment`] packs jobs onto shards by greedy LPT (Longest
//! Processing Time first): jobs in descending cost order, each to the
//! least-loaded shard. Ties break on job id and lowest shard index, so
//! the result is deterministic — and over a uniform cost it is exactly
//! the stride `job_id % N`.
//!
//! Counting ops means generating each distinct stream once (0.11 s for
//! the 17 programs of the smoke matrix, 0.15 s at full scale), so only
//! a sharded run asks for an assignment; an unsharded run — the merge
//! included — never does. The partition decides only *who executes
//! what*: resume and the merge go by topology-agnostic cell keys, so a
//! checkpoint directory written under any shard count replays under any
//! other.

use crate::plan::JobSpec;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Each job's cost: the length of its op stream, generated once per
/// `(suite, workload)` — conditions replay the same stream, and
/// repetitions differ only in seed, which moves the length by a few
/// percent at most.
#[must_use]
pub fn op_costs(jobs: &[JobSpec]) -> Vec<u64> {
    let mut counted: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    jobs.iter()
        .map(|job| {
            *counted
                .entry((job.suite().label(), job.workload()))
                .or_insert_with(|| job.op_count())
        })
        .collect()
}

/// Greedy LPT over explicit costs: assigns every id in `0..costs.len()`
/// to exactly one of `count` shards. Each shard's id list comes back
/// sorted ascending, so a shard's pending jobs still execute in job
/// order.
///
/// # Panics
///
/// `count` must be ≥ 1.
#[must_use]
pub fn lpt(costs: &[u64], count: usize) -> Vec<Vec<usize>> {
    assert!(count >= 1, "shard count must be ≥ 1");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    // Descending cost, ascending id on ties (the sort is stable).
    order.sort_by_key(|&id| Reverse(costs[id]));
    // Min-heap on (load, shard index): pop the least-loaded shard,
    // lowest index first on ties.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..count).map(|k| Reverse((0, k))).collect();
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); count];
    for id in order {
        let Reverse((load, k)) = heap.pop().expect("count ≥ 1");
        shards[k].push(id);
        heap.push(Reverse((load + costs[id], k)));
    }
    for shard in &mut shards {
        shard.sort_unstable();
    }
    shards
}

/// The job ids each of `count` shards executes: [`lpt`] over
/// [`op_costs`].
#[must_use]
pub fn assignment(jobs: &[JobSpec], count: usize) -> Vec<Vec<usize>> {
    lpt(&op_costs(jobs), count)
}

/// The most expensive shard of `shards` under `costs` — what a sharded
/// run waits for.
#[must_use]
pub fn max_shard_cost(costs: &[u64], shards: &[Vec<usize>]) -> u64 {
    shards
        .iter()
        .map(|ids| ids.iter().map(|&id| costs[id]).sum())
        .max()
        .unwrap_or(0)
}
