//! The generic heap-churn generator behind the SPEC surrogates.
//!
//! [`ChurnSource`] is the one implementation: a resumable state machine
//! that emits a profile's op stream batch by batch in O(live set) memory.
//! [`ChurnProfile::generate`] is that stream collected into a `Vec<Op>`.
//! `tests/seed_stability.rs` pins the emitted streams by digest.

use morello_sim::{ObjId, Op, OpSource, OP_BATCH};
use simtest::Rng;

/// Log-uniform object size distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeDist {
    /// Minimum object size in bytes.
    pub min: u64,
    /// Maximum object size in bytes.
    pub max: u64,
}

impl SizeDist {
    /// A fixed size.
    #[must_use]
    pub const fn fixed(size: u64) -> Self {
        SizeDist { min: size, max: size }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        if self.min >= self.max {
            return self.min;
        }
        // Log-uniform: uniform exponent between log2(min) and log2(max).
        let lo = (self.min as f64).log2();
        let hi = (self.max as f64).log2();
        let e = rng.gen_range(lo..hi);
        (e.exp2() as u64).clamp(self.min, self.max)
    }

    /// Approximate mean of the distribution.
    #[must_use]
    pub fn approx_mean(&self) -> u64 {
        if self.min >= self.max {
            return self.min;
        }
        let ratio = self.max as f64 / self.min as f64;
        ((self.max - self.min) as f64 / ratio.ln()) as u64
    }
}

/// A heap-churn workload profile: the observable allocation behaviour of
/// one benchmark, in scaled bytes.
#[derive(Debug, Clone)]
pub struct ChurnProfile {
    /// Display name.
    pub name: &'static str,
    /// Steady-state live heap target (scaled bytes). Table 2 "Mean Alloc".
    pub target_heap: u64,
    /// Total bytes to pass through `free` (scaled). Table 2 "Sum Freed".
    pub total_churn: u64,
    /// Object size distribution.
    pub obj_size: SizeDist,
    /// Pointer stores per churn step (drives capability-dirty pages and
    /// Cornucopia's re-sweeps).
    pub links_per_step: u32,
    /// Pointer loads per churn step (drives Reloaded's load faults).
    pub chases_per_step: u32,
    /// Data reads per churn step.
    pub reads_per_step: u32,
    /// Bytes per data read (controls the benchmark's baseline DRAM
    /// traffic; compute-heavy SPEC programs stream large buffers).
    pub read_len: u64,
    /// Pure compute cycles per churn step (sets the revocation overhead
    /// relative to useful work).
    pub compute_per_step: u64,
    /// Deposit a capability into a kernel hoard every N steps (0 = never).
    pub hoard_every: u64,
}

impl ChurnProfile {
    /// Generates the op stream: a warmup that builds the live heap, then
    /// steady-state churn until `total_churn` bytes have been freed.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Vec<Op> {
        self.source(seed).collect_ops()
    }

    /// The number of root-table slots the generated stream needs.
    #[must_use]
    pub fn max_objects(&self) -> u64 {
        // Live set plus slack for quarantined slots in flight.
        (self.target_heap / self.obj_size.approx_mean().max(16) + 64) * 2
    }

    /// A streaming source over this profile's op stream for `seed`.
    #[must_use]
    pub fn source(&self, seed: u64) -> ChurnSource {
        ChurnSource::new(self, seed)
    }
}

/// Resumable state machine emitting a [`ChurnProfile`]'s op stream batch
/// by batch; memory is O(live set + hot links) instead of O(total ops).
#[derive(Debug, Clone)]
pub struct ChurnSource {
    profile: ChurnProfile,
    rng: Rng,
    live: Vec<(ObjId, u64)>,
    free_slots: Vec<ObjId>,
    /// Recently-written pointer slots: chases follow real pointers so
    /// they load tagged granules (and hence exercise the load barrier).
    hot_links: Vec<(ObjId, u64)>,
    /// Entries of `hot_links` per source slot: a free whose victim has
    /// none — most of them — skips the scan for its links.
    links_from: Vec<u32>,
    next_slot: ObjId,
    live_bytes: u64,
    churned: u64,
    step: u64,
    /// Compute is interleaved in small chunks between accesses so the
    /// application's pointer loads spread across the revoker's concurrent
    /// window (as a real mutator's do), rather than arriving in one burst.
    chunk: u64,
    warm: bool,
}

impl ChurnSource {
    /// Starts a fresh stream for `profile` at `seed`.
    #[must_use]
    pub fn new(profile: &ChurnProfile, seed: u64) -> Self {
        let access_ops = 2
            + profile.links_per_step as u64
            + profile.chases_per_step as u64
            + profile.reads_per_step as u64;
        ChurnSource {
            profile: profile.clone(),
            rng: Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            live: Vec::new(),
            free_slots: Vec::new(),
            hot_links: Vec::new(),
            links_from: Vec::new(),
            next_slot: 0,
            live_bytes: 0,
            churned: 0,
            step: 0,
            chunk: profile.compute_per_step / access_ops.max(1),
            warm: false,
        }
    }

    fn emit_alloc(&mut self, ops: &mut Vec<Op>) {
        let size = self.profile.obj_size.sample(&mut self.rng);
        let obj = self.free_slots.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            self.links_from.push(0);
            s
        });
        ops.push(Op::Alloc { obj, size });
        ops.push(Op::WriteData { obj, len: size.min(2048) });
        self.live.push((obj, size));
        self.live_bytes += size;
    }

    fn emit_compute(&self, ops: &mut Vec<Op>) {
        if self.chunk > 0 {
            ops.push(Op::Compute { cycles: self.chunk });
        }
    }

    /// One steady-state churn step: free a (mostly random) victim, replace
    /// it, then the link/chase/read accesses.
    fn emit_step(&mut self, ops: &mut Vec<Op>) {
        self.step += 1;
        self.emit_compute(ops);
        let idx = self.rng.gen_range(0..self.live.len());
        let (victim, vsize) = self.live.swap_remove(idx);
        ops.push(Op::Free { obj: victim });
        self.free_slots.push(victim);
        self.live_bytes -= vsize;
        self.churned += vsize;
        if std::mem::take(&mut self.links_from[victim as usize]) != 0 {
            self.hot_links.retain(|&(o, _)| o != victim);
        }
        self.emit_compute(ops);
        self.emit_alloc(ops);

        for _ in 0..self.profile.links_per_step {
            self.emit_compute(ops);
            let from = self.live[self.rng.gen_range(0..self.live.len())].0;
            let to = self.live[self.rng.gen_range(0..self.live.len())].0;
            let slot = self.rng.gen_range(0..64);
            ops.push(Op::LinkPtr { from, slot, to });
            if self.hot_links.len() >= 512 {
                let i = self.rng.gen_range(0..self.hot_links.len());
                let (dropped, _) = self.hot_links.swap_remove(i);
                self.links_from[dropped as usize] -= 1;
            }
            self.hot_links.push((from, slot));
            self.links_from[from as usize] += 1;
        }
        for _ in 0..self.profile.chases_per_step {
            self.emit_compute(ops);
            // Chase a live pointer when one exists; cold fallback.
            let (from, slot) = if self.hot_links.is_empty() {
                (
                    self.live[self.rng.gen_range(0..self.live.len())].0,
                    self.rng.gen_range(0..64),
                )
            } else {
                self.hot_links[self.rng.gen_range(0..self.hot_links.len())]
            };
            ops.push(Op::ChasePtr { from, slot });
        }
        for _ in 0..self.profile.reads_per_step {
            self.emit_compute(ops);
            let obj = self.live[self.rng.gen_range(0..self.live.len())].0;
            ops.push(Op::ReadData { obj, len: self.profile.read_len });
        }
        if self.profile.hoard_every > 0 && self.step.is_multiple_of(self.profile.hoard_every) {
            let obj = self.live[self.rng.gen_range(0..self.live.len())].0;
            ops.push(Op::SyscallHoard { obj });
        }
    }
}

impl OpSource for ChurnSource {
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize {
        let start = buf.len();
        while buf.len() - start < OP_BATCH {
            // Warmup builds the live heap; then churn until the freed-byte
            // budget is spent.
            if !self.warm {
                if self.live_bytes < self.profile.target_heap {
                    self.emit_alloc(buf);
                    continue;
                }
                self.warm = true;
            }
            if self.churned >= self.profile.total_churn || self.live.is_empty() {
                break;
            }
            self.emit_step(buf);
        }
        buf.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChurnProfile {
        ChurnProfile {
            name: "tiny",
            target_heap: 64 << 10,
            total_churn: 256 << 10,
            obj_size: SizeDist { min: 256, max: 4096 },
            links_per_step: 2,
            chases_per_step: 2,
            reads_per_step: 1,
            read_len: 256,
            compute_per_step: 10_000,
            hoard_every: 50,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = tiny();
        assert_eq!(p.generate(7), p.generate(7));
        assert_ne!(p.generate(7), p.generate(8));
    }

    #[test]
    fn churn_budget_is_respected() {
        let p = tiny();
        let ops = p.generate(1);
        let frees = ops.iter().filter(|o| matches!(o, Op::Free { .. })).count();
        let mean = p.obj_size.approx_mean();
        let implied = frees as u64 * mean;
        assert!(implied >= p.total_churn / 2, "freed ~{implied} of {}", p.total_churn);
        assert!(implied <= p.total_churn * 3, "freed ~{implied} of {}", p.total_churn);
    }

    #[test]
    fn allocs_exceed_frees_by_live_set() {
        let p = tiny();
        let ops = p.generate(1);
        let allocs = ops.iter().filter(|o| matches!(o, Op::Alloc { .. })).count();
        let frees = ops.iter().filter(|o| matches!(o, Op::Free { .. })).count();
        assert!(allocs > frees);
        let mean = p.obj_size.approx_mean();
        let live_estimate = (allocs - frees) as u64 * mean;
        assert!(live_estimate >= p.target_heap / 2);
        assert!(live_estimate <= p.target_heap * 3);
    }

    #[test]
    fn size_dist_sampling_stays_in_range() {
        let d = SizeDist { min: 100, max: 10_000 };
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!((100..=10_000).contains(&s));
        }
        assert_eq!(SizeDist::fixed(64).sample(&mut rng), 64);
    }

    #[test]
    fn runs_clean_under_the_simulator() {
        use morello_sim::{Condition, SimConfig, System};
        // Large enough that the background sweep cannot finish before the
        // application's next pointer load: faults must occur.
        let p = ChurnProfile {
            target_heap: 1 << 20,
            total_churn: 4 << 20,
            compute_per_step: 20_000,
            chases_per_step: 4,
            ..tiny()
        };
        let cfg = SimConfig::builder()
            .condition(Condition::reloaded())
            .min_quarantine(128 << 10)
            .max_objects(p.max_objects())
            .build()
            .unwrap();
        let stats = System::new(cfg).run(p.generate(5)).unwrap();
        assert!(stats.revocations > 0);
        assert!(stats.faults > 0);
    }
}
