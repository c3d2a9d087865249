//! The application operation vocabulary.
//!
//! Workloads compile to streams of these operations. Object identity is a
//! slot index into a **root table** — a large, permanently-live array of
//! capabilities in the simulated heap. Keeping the roots *in simulated
//! memory* (rather than in host-side bookkeeping) is what makes the
//! revokers honest: every pointer the application can reach is either in a
//! register file, a kernel hoard, or sweepable memory.

/// Index of an object's slot in the root table.
pub type ObjId = u64;

/// One application operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Op {
    /// `malloc(size)`; the returned capability is stored into the object's
    /// root-table slot (a capability store).
    Alloc {
        /// Destination root slot.
        obj: ObjId,
        /// Requested bytes.
        size: u64,
    },
    /// Loads the capability from the root slot (through the load barrier),
    /// passes it to `free`, and nulls the slot.
    Free {
        /// Root slot to free.
        obj: ObjId,
    },
    /// Loads the object's capability into a register (a capability load —
    /// the op that takes Reloaded load-barrier faults).
    LoadObj {
        /// Root slot to load.
        obj: ObjId,
    },
    /// Loads the object's capability, then reads `len` bytes of its data.
    ReadData {
        /// Root slot.
        obj: ObjId,
        /// Bytes to read (clamped to the object).
        len: u64,
    },
    /// Loads the object's capability, then writes `len` bytes of data.
    WriteData {
        /// Root slot.
        obj: ObjId,
        /// Bytes to write (clamped to the object).
        len: u64,
    },
    /// Stores a pointer to `to` inside object `from` at capability slot
    /// `slot` (pointer-graph construction; drives capability-dirty pages).
    LinkPtr {
        /// Object receiving the pointer.
        from: ObjId,
        /// 16-byte slot index within `from`.
        slot: u64,
        /// Object pointed to.
        to: ObjId,
    },
    /// Loads the pointer stored in object `from` at `slot` (pointer
    /// chasing; a capability load from object memory).
    ChasePtr {
        /// Object holding the pointer.
        from: ObjId,
        /// 16-byte slot index within `from`.
        slot: u64,
    },
    /// Pure computation: burns CPU and wall time.
    Compute {
        /// Cycles of work.
        cycles: u64,
    },
    /// Idle wall time (e.g. waiting for a client): wall advances, the app
    /// core is free, and background revocation can hide here (§5.2).
    ThinkIdle {
        /// Idle cycles.
        cycles: u64,
    },
    /// Deposits the object's capability into a kernel hoard (models
    /// `kqueue`/`aio` registration; scanned at every epoch, §4.4).
    SyscallHoard {
        /// Root slot whose capability the kernel will hoard.
        obj: ObjId,
    },
    /// Begins a latency-measured transaction.
    TxBegin {
        /// Transaction id (for schedule pairing).
        id: u64,
    },
    /// Ends the transaction started with the same id.
    TxEnd {
        /// Transaction id.
        id: u64,
    },
}

/// Target number of ops per [`OpSource::refill`] batch.
///
/// Sources aim for roughly this many ops per call; a batch may run over
/// when a generator's natural unit (a churn step, a transaction, a warmup
/// phase) doesn't land on the boundary. At 32 bytes per [`Op`] the batch
/// buffer stays comfortably inside one L1 data cache's worth of stream.
pub const OP_BATCH: usize = 1024;

/// A pull-based supplier of operations: the one form a workload takes.
///
/// A source regenerates its stream lazily from internal (typically RNG)
/// state, so the resident footprint is one batch buffer plus the
/// generator state instead of the entire op vector. A literal op list is
/// a source too: `ops.into_iter()`.
///
/// The contract: `refill` **appends** a source-chosen batch of ops to
/// `buf` (aiming for about [`OP_BATCH`], but any positive amount is legal)
/// and returns how many ops it appended. Returning `0` means the stream is
/// exhausted; callers stop on the first `0` and must not call again
/// expecting more. Because sources append without clearing, collecting an
/// entire stream into one vector is just `while src.refill(&mut v) > 0 {}`
/// — which is exactly what [`OpSource::collect_ops`] does.
pub trait OpSource {
    /// Appends the next batch of ops to `buf`; returns the number
    /// appended, with `0` signalling exhaustion.
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize;

    /// Drains the remaining stream into a fresh vector: the one
    /// materializer (for oracles, traces and tests).
    fn collect_ops(mut self) -> Vec<Op>
    where
        Self: Sized,
    {
        let mut ops = Vec::new();
        while self.refill(&mut ops) > 0 {}
        ops
    }
}

impl<S: OpSource + ?Sized> OpSource for &mut S {
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize {
        (**self).refill(buf)
    }
}

/// A literal op list streams in [`OP_BATCH`]-sized batches.
impl OpSource for std::vec::IntoIter<Op> {
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize {
        let before = buf.len();
        buf.extend(self.by_ref().take(OP_BATCH));
        buf.len() - before
    }
}

/// Drains `source` batch by batch through one reused buffer, handing each
/// batch to `f`; stops when the stream ends or at `f`'s first error. The
/// one refill loop: running, analysing and counting a stream all go
/// through here.
#[inline]
pub fn for_each_batch<S: OpSource + ?Sized, E>(
    source: &mut S,
    mut f: impl FnMut(&[Op]) -> Result<(), E>,
) -> Result<(), E> {
    let mut buf = Vec::with_capacity(OP_BATCH);
    loop {
        buf.clear();
        if source.refill(&mut buf) == 0 {
            return Ok(());
        }
        f(&buf)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vec_streams_in_full_batches_then_the_rest() {
        let ops: Vec<Op> = (0..2_500).map(|i| Op::Compute { cycles: i }).collect();
        let mut src = ops.clone().into_iter();
        let mut first = Vec::new();
        assert_eq!(src.refill(&mut first), OP_BATCH, "full batches first");
        let mut rest = first.clone();
        while src.refill(&mut rest) > 0 {}
        assert_eq!(rest, ops);
        assert_eq!(src.refill(&mut rest), 0, "an exhausted list stays exhausted");
    }

    #[test]
    fn for_each_batch_sees_every_op_and_stops_at_the_first_error() {
        let ops: Vec<Op> = (0..2_500).map(|i| Op::Compute { cycles: i }).collect();
        let mut seen = Vec::new();
        let done: Result<(), ()> = for_each_batch(&mut ops.clone().into_iter(), |batch| {
            seen.extend_from_slice(batch);
            Ok(())
        });
        assert_eq!((done, seen), (Ok(()), ops.clone()));
        let mut batches = 0;
        let err = for_each_batch(&mut ops.into_iter(), |_| {
            batches += 1;
            Err(batches)
        });
        assert_eq!((err, batches), (Err(1), 1));
    }
}
