//! Generic plumbing for the op pipeline: a slice-backed source for
//! hand-built op lists (analyzer fixtures, shared vectors) and a counting
//! drain for measuring a stream without materializing it.

use morello_sim::{Op, OpSource, OP_BATCH};

/// Streams ops out of any in-memory storage that views as `[Op]`
/// (`Vec<Op>`, `Arc<[Op]>`, a borrowed slice), one batch at a time.
#[derive(Debug, Clone)]
pub struct SliceSource<T> {
    ops: T,
    pos: usize,
}

impl<T: AsRef<[Op]>> SliceSource<T> {
    /// Wraps `ops`; the stream starts at the first op.
    pub fn new(ops: T) -> Self {
        SliceSource { ops, pos: 0 }
    }
}

impl<T: AsRef<[Op]>> OpSource for SliceSource<T> {
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize {
        let ops = self.ops.as_ref();
        let n = (ops.len() - self.pos).min(OP_BATCH);
        buf.extend_from_slice(&ops[self.pos..self.pos + n]);
        self.pos += n;
        n
    }
}

/// Drains `source` to count its remaining ops in O(batch) memory.
pub fn count_ops<S: OpSource>(source: &mut S) -> usize {
    let mut buf = Vec::with_capacity(OP_BATCH);
    let mut total = 0;
    loop {
        buf.clear();
        let n = source.refill(&mut buf);
        if n == 0 {
            return total;
        }
        total += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_round_trips_and_batches() {
        let ops: Vec<Op> = (0..2_500).map(|i| Op::Compute { cycles: i }).collect();
        let mut src = SliceSource::new(ops.clone());
        let mut first = Vec::new();
        assert_eq!(src.refill(&mut first), OP_BATCH, "full batches first");
        let mut rest = first.clone();
        while src.refill(&mut rest) > 0 {}
        assert_eq!(rest, ops);
        assert_eq!(count_ops(&mut SliceSource::new(ops)), 2_500);
    }
}
