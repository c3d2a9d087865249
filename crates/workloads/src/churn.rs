//! The generic heap-churn generator behind the SPEC surrogates.
//!
//! [`ChurnSource`] is the one implementation: a resumable state machine
//! that emits a profile's op stream batch by batch in O(live set) memory.
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

    /// The smallest size drawn: `min`, floored at 1 byte (a zero floor
    /// would put the log-uniform exponent at −∞).
    fn floor(&self) -> u64 {
        self.min.max(1)
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let min = self.floor();
        if min >= self.max {
            return min;
        }
        // Log-uniform: uniform exponent between log2(min) and log2(max).
        let lo = (min as f64).log2();
        let hi = (self.max as f64).log2();
        let e = rng.gen_range(lo..hi);
        (e.exp2() as u64).clamp(min, self.max)
    }

    /// Approximate mean of the distribution (sizes are at least 1 byte).
    #[must_use]
    pub fn approx_mean(&self) -> u64 {
        let min = self.floor();
        if min >= self.max {
            return min;
        }
        let ratio = self.max as f64 / min as f64;
        ((self.max - min) as f64 / ratio.ln()) as u64
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
    /// The number of root-table slots the generated stream needs.
    #[must_use]
    pub fn max_objects(&self) -> u64 {
        // Live set plus slack for quarantined slots in flight.
        (self.target_heap / self.obj_size.approx_mean().max(16) + 64) * 2
    }

    /// The op stream for `seed`: a warmup that builds the live heap, then
    /// steady-state churn until `total_churn` bytes have been freed.
    #[must_use]
    pub fn source(&self, seed: u64) -> ChurnSource {
        let access_ops = 2
            + self.links_per_step as u64
            + self.chases_per_step as u64
            + self.reads_per_step as u64;
        ChurnSource {
            profile: self.clone(),
            rng: Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            live: Vec::new(),
            free_slots: Vec::new(),
            hot_links: HotLinks::default(),
            next_slot: 0,
            live_bytes: 0,
            churned: 0,
            step: 0,
            chunk: self.compute_per_step / access_ops.max(1),
            warm: false,
        }
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
    hot_links: HotLinks,
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

/// The hot-link set: an ordered list of `(from, slot)` pointer slots with
/// the semantics of a `Vec<(ObjId, u64)>` — [`HotLinks::unlink`] is an
/// order-preserving `retain` — stored as two narrow arrays plus a count
/// of entries per source. Churn ids are dense slot numbers (`u32`) and
/// link slots are `< 64` (`u8`), so the scan `unlink` makes over up to
/// [`HOT_LINKS_MAX`] sources is a chunked compare LLVM vectorizes, not a
/// walk over 16-byte pairs; the counts let most frees skip it and the
/// rest stop at their victim's last entry.
#[derive(Debug, Clone)]
struct HotLinks {
    from: Vec<u32>,
    slot: Vec<u8>,
    /// Entries per source id, indexed by id: one slot per
    /// [`HotLinks::add_source`].
    per_source: Vec<u32>,
}

/// Most pointer slots the hot-link set holds; a link store past it
/// evicts a random entry.
const HOT_LINKS_MAX: usize = 512;

/// Sources compared per step of [`HotLinks::find`]; a whole chunk is
/// compared branch-free before any hit is located.
const FIND_CHUNK: usize = 32;

impl Default for HotLinks {
    /// An empty set, allocated at its cap.
    fn default() -> Self {
        HotLinks {
            from: Vec::with_capacity(HOT_LINKS_MAX),
            slot: Vec::with_capacity(HOT_LINKS_MAX),
            per_source: Vec::new(),
        }
    }
}

impl HotLinks {
    /// Makes the next id a source: ids are minted in order, from 0.
    fn add_source(&mut self) {
        self.per_source.push(0);
    }

    fn len(&self) -> usize {
        self.from.len()
    }

    fn is_empty(&self) -> bool {
        self.from.is_empty()
    }

    fn get(&self, i: usize) -> (ObjId, u64) {
        (ObjId::from(self.from[i]), u64::from(self.slot[i]))
    }

    fn push(&mut self, from: ObjId, slot: u64) {
        let from = u32::try_from(from).expect("churn ids are dense slot numbers");
        self.per_source[from as usize] += 1;
        self.from.push(from);
        self.slot.push(u8::try_from(slot).expect("link slots are < 64"));
    }

    fn swap_remove(&mut self, i: usize) -> (ObjId, u64) {
        let from = self.from.swap_remove(i);
        self.per_source[from as usize] -= 1;
        (ObjId::from(from), u64::from(self.slot.swap_remove(i)))
    }

    /// Removes every entry whose source is `victim`, keeping the order of
    /// the rest: `retain(|&(o, _)| o != victim)`, closing each gap with
    /// one block move per array.
    fn unlink(&mut self, victim: ObjId) {
        let Some(count) = usize::try_from(victim).ok().and_then(|v| self.per_source.get_mut(v)) else {
            return;
        };
        let hits = std::mem::take(count);
        if hits == 0 {
            return;
        }
        // A counted source fits in `u32`: `push` checked it.
        let victim = victim as u32;
        let first = self.find(victim, 0).expect("every counted entry is present");
        let (mut kept, mut next) = (first, first + 1);
        for _ in 1..hits {
            let hit = self.find(victim, next).expect("every counted entry is present");
            self.move_down(next..hit, kept);
            kept += hit - next;
            next = hit + 1;
        }
        let len = self.len();
        self.move_down(next..len, kept);
        self.from.truncate(kept + len - next);
        self.slot.truncate(kept + len - next);
    }

    /// Moves the entries in `range` to start at index `to`.
    fn move_down(&mut self, range: std::ops::Range<usize>, to: usize) {
        self.from.copy_within(range.clone(), to);
        self.slot.copy_within(range, to);
    }

    /// Index of the first entry at or after `start` whose source is `v`.
    fn find(&self, v: u32, start: usize) -> Option<usize> {
        let tail = &self.from[start..];
        let mut chunks = tail.chunks_exact(FIND_CHUNK);
        for (c, chunk) in chunks.by_ref().enumerate() {
            // `fold`, not `any`: no early exit, so the compare vectorizes.
            if chunk.iter().fold(false, |hit, &x| hit | (x == v)) {
                return chunk.iter().position(|&x| x == v).map(|i| start + c * FIND_CHUNK + i);
            }
        }
        let done = tail.len() - chunks.remainder().len();
        chunks.remainder().iter().position(|&x| x == v).map(|i| start + done + i)
    }
}

impl ChurnSource {
    fn emit_alloc(&mut self, ops: &mut Vec<Op>) {
        let size = self.profile.obj_size.sample(&mut self.rng);
        let obj = self.free_slots.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            self.hot_links.add_source();
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
        self.hot_links.unlink(victim);
        self.emit_compute(ops);
        self.emit_alloc(ops);

        for _ in 0..self.profile.links_per_step {
            self.emit_compute(ops);
            let from = self.live[self.rng.gen_range(0..self.live.len())].0;
            let to = self.live[self.rng.gen_range(0..self.live.len())].0;
            let slot = self.rng.gen_range(0..64);
            ops.push(Op::LinkPtr { from, slot, to });
            if self.hot_links.len() >= HOT_LINKS_MAX {
                let i = self.rng.gen_range(0..self.hot_links.len());
                self.hot_links.swap_remove(i);
            }
            self.hot_links.push(from, slot);
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
                self.hot_links.get(self.rng.gen_range(0..self.hot_links.len()))
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
    use simtest::check::{vec_of, Gen, GenExt, Just};
    use simtest::{oneof, sim_assert_eq};

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
        let ops = |seed| p.source(seed).collect_ops();
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
    }

    #[test]
    fn churn_budget_is_respected() {
        let p = tiny();
        let ops = p.source(1).collect_ops();
        let frees = ops.iter().filter(|o| matches!(o, Op::Free { .. })).count();
        let mean = p.obj_size.approx_mean();
        let implied = frees as u64 * mean;
        assert!(implied >= p.total_churn / 2, "freed ~{implied} of {}", p.total_churn);
        assert!(implied <= p.total_churn * 3, "freed ~{implied} of {}", p.total_churn);
    }

    #[test]
    fn allocs_exceed_frees_by_live_set() {
        let p = tiny();
        let ops = p.source(1).collect_ops();
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
    fn a_zero_size_floor_draws_from_one_byte_and_the_stream_ends() {
        let d = SizeDist { min: 0, max: 4096 };
        assert!(d.approx_mean() > 0);
        assert_eq!(SizeDist::fixed(0).approx_mean(), 1);
        let p = ChurnProfile { obj_size: d, ..tiny() };
        let ops = simtest::within_3s(move || p.source(9).collect_ops());
        let sizes: Vec<u64> = ops
            .iter()
            .filter_map(|o| match *o {
                Op::Alloc { size, .. } => Some(size),
                _ => None,
            })
            .collect();
        assert!(ops.iter().any(|o| matches!(o, Op::Free { .. })), "the stream must leave warm-up");
        assert!(sizes.iter().all(|&s| (1..=4096).contains(&s)), "sizes {:?}", &sizes[..8]);
    }

    /// One step of the hot-link model test: what `ChurnSource` does to
    /// its set, with ids drawn from a small range so sources repeat.
    #[derive(Debug, Clone)]
    enum LinkOp {
        /// A link store: evict entry `pick % len` at the cap, then push.
        Link { from: ObjId, slot: u64, pick: usize },
        /// `n` link stores at once, so the cap is reached in a few ops.
        Burst { n: usize, salt: u64 },
        SwapRemove(usize),
        /// Ids from 24 up are never pushed: an absent victim, up to one
        /// no `u32` holds.
        Unlink(ObjId),
        /// Unlink every id: the set ends empty.
        UnlinkAll,
    }

    fn link_op() -> impl Gen<Value = LinkOp> {
        oneof![
            3 => (0u64..24, 0u64..64, 0usize..HOT_LINKS_MAX)
                .gmap(|(from, slot, pick)| LinkOp::Link { from, slot, pick }),
            1 => (0usize..600, 0u64..1000).gmap(|(n, salt)| LinkOp::Burst { n, salt }),
            1 => (0usize..HOT_LINKS_MAX).gmap(LinkOp::SwapRemove),
            3 => (0u64..32).gmap(LinkOp::Unlink),
            1 => Just(LinkOp::Unlink(ObjId::MAX)),
            1 => Just(LinkOp::UnlinkAll),
        ]
    }

    fn link(set: &mut HotLinks, model: &mut Vec<(ObjId, u64)>, from: ObjId, slot: u64, pick: usize) {
        if model.len() >= HOT_LINKS_MAX {
            let i = pick % model.len();
            assert_eq!(set.swap_remove(i), model.swap_remove(i));
        }
        set.push(from, slot);
        model.push((from, slot));
    }

    simtest::props! {
        /// `HotLinks` reads exactly as the `Vec<(ObjId, u64)>` it replaced,
        /// driven by `retain`, `swap_remove` and indexing, after every op.
        fn hot_links_agree_with_the_vec_they_replace(ops in vec_of(link_op(), 1..60)) {
            let mut set = HotLinks::default();
            for _ in 0..24 {
                set.add_source();
            }
            let mut model: Vec<(ObjId, u64)> = Vec::new();
            for op in ops {
                match op {
                    LinkOp::Link { from, slot, pick } => link(&mut set, &mut model, from, slot, pick),
                    LinkOp::Burst { n, salt } => {
                        for k in 0..n as u64 {
                            let x = (salt + k).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
                            link(&mut set, &mut model, x % 24, x % 64, (x >> 8) as usize);
                        }
                    }
                    LinkOp::SwapRemove(i) => {
                        if !model.is_empty() {
                            let i = i % model.len();
                            sim_assert_eq!(set.swap_remove(i), model.swap_remove(i));
                        }
                    }
                    LinkOp::Unlink(victim) => {
                        set.unlink(victim);
                        model.retain(|&(o, _)| o != victim);
                    }
                    LinkOp::UnlinkAll => {
                        for victim in 0..32 {
                            set.unlink(victim);
                            model.retain(|&(o, _)| o != victim);
                        }
                        sim_assert_eq!(set.is_empty(), true);
                    }
                }
                sim_assert_eq!(set.len(), model.len());
                sim_assert_eq!(set.is_empty(), model.is_empty());
                for (i, &entry) in model.iter().enumerate() {
                    sim_assert_eq!(set.get(i), entry);
                }
            }
        }
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
        let stats = System::new(cfg).run_stream(&mut p.source(5)).unwrap();
        assert!(stats.revocations > 0);
        assert!(stats.faults > 0);
    }
}
