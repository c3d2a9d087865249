//! A `mmap`-churning surrogate (paper §6.2).
//!
//! snmalloc never unmaps, but programs that repeatedly map files to copy
//! them cycle *address space* through `mmap`/`munmap`, opening the
//! inter-allocator UAF/UAR channel §6.2 closes with reservations and
//! reservation quarantine. This surrogate models such a file-copying
//! pipeline: map an input "file", allocate a staging buffer, copy, unmap —
//! with occasional stale cross-references from the staging area into
//! mapped files (exactly the pointers the reservation sweep must revoke).

use crate::StreamedWorkload;
use morello_sim::{ObjId, Op, OpSource, SimConfig, OP_BATCH};
use simtest::Rng;

/// Parameters for the file-copier surrogate.
#[derive(Debug, Clone, Copy)]
pub struct FileCopyParams {
    /// Number of files to copy.
    pub files: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FileCopyParams {
    fn default() -> Self {
        FileCopyParams { files: 2_000, seed: 13 }
    }
}

/// The persistent malloc'd staging buffer's root slot.
const STAGING: ObjId = 0;

fn file_copy_config() -> SimConfig {
    SimConfig::builder()
        .heap_len(64 << 20) // 48 MiB malloc + 16 MiB mmap space
        .max_objects(64)
        .min_quarantine(256 << 10)
        .build()
        .expect("static workload config")
}

/// The file-copier workload; the ops are regenerated lazily from the
/// seed.
#[must_use]
pub fn file_copy_stream(params: FileCopyParams) -> StreamedWorkload<FileCopySource> {
    StreamedWorkload {
        name: "file copier".to_string(),
        source: FileCopySource::new(params),
        config: file_copy_config(),
    }
}

/// Resumable state machine emitting [`file_copy_stream`]'s ops batch by
/// batch: the staging-buffer prologue, then one copied file at a time.
#[derive(Debug, Clone)]
pub struct FileCopySource {
    params: FileCopyParams,
    rng: Rng,
    next_file: u64,
    warm: bool,
}

impl FileCopySource {
    /// Starts a fresh stream for `params`.
    #[must_use]
    pub fn new(params: FileCopyParams) -> Self {
        FileCopySource {
            params,
            rng: Rng::seed_from_u64(params.seed ^ 0x1656_67b1),
            next_file: 0,
            warm: false,
        }
    }

    fn emit_file(&mut self, ops: &mut Vec<Op>) {
        let file_base: ObjId = 8;
        let f = self.next_file;
        self.next_file += 1;

        ops.push(Op::TxBegin { id: f });
        let obj = file_base + f % 4; // up to 4 files mapped at once
        let len = self.rng.gen_range(64 << 10..256 << 10);
        ops.push(Op::Mmap { obj, len });
        ops.push(Op::WriteData { obj, len }); // "read" the file in
        // The copier keeps an index entry pointing into the mapping — the
        // stale pointer §6.2's reservation sweep must kill after unmap.
        ops.push(Op::LinkPtr { from: STAGING, slot: f % 1024, to: obj });
        ops.push(Op::ReadData { obj, len: len.min(64 << 10) });
        ops.push(Op::Compute { cycles: 150_000 });
        ops.push(Op::Munmap { obj });
        ops.push(Op::TxEnd { id: f });
        ops.push(Op::ThinkIdle { cycles: 30_000 });
    }
}

impl OpSource for FileCopySource {
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize {
        let start = buf.len();
        if !self.warm {
            self.warm = true;
            buf.push(Op::Alloc { obj: STAGING, size: 256 << 10 });
            buf.push(Op::WriteData { obj: STAGING, len: 256 << 10 });
        }
        while buf.len() - start < OP_BATCH && self.next_file < self.params.files {
            self.emit_file(buf);
        }
        buf.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morello_sim::{Condition, System};

    #[test]
    fn mmap_churn_triggers_reservation_revocation() {
        let mut w = file_copy_stream(FileCopyParams { files: 300, ..Default::default() });
        let config = w.config.with_condition(Condition::reloaded());
        let stats = System::new(config).run_stream(&mut w.source).unwrap();
        assert_eq!(stats.tx_latencies.len(), 300);
        assert!(
            stats.revocations > 2,
            "reservation quarantine must force passes (got {})",
            stats.revocations
        );
    }

    #[test]
    fn address_space_is_recycled_not_leaked() {
        // If quarantined reservations were never recycled, the 16 MiB mmap
        // space would be exhausted by ~150 x 160 KiB mappings.
        let mut w = file_copy_stream(FileCopyParams { files: 1_000, seed: 5 });
        let config = w.config.with_condition(Condition::reloaded());
        let stats = System::new(config).run_stream(&mut w.source).unwrap();
        assert_eq!(stats.tx_latencies.len(), 1_000, "every copy must complete");
    }

    #[test]
    fn baseline_runs_but_mmap_quarantine_still_applies() {
        // Reservations quarantine independently of the malloc shim, so
        // even the PaintSync pseudo-passes recycle them.
        let mut w = file_copy_stream(FileCopyParams { files: 300, seed: 9 });
        let config = w.config.with_condition(Condition::paint_sync());
        let stats = System::new(config).run_stream(&mut w.source).unwrap();
        assert_eq!(stats.tx_latencies.len(), 300);
    }
}
