//! Interactive workload surrogates: PostgreSQL `pgbench` (§5.2) and gRPC
//! QPS (§5.3).
//!
//! Scaling: unlike the SPEC surrogates (memory / 64), the interactive
//! surrogates compress *time* as well — a pgbench transaction's work is
//! divided by 8 along with the server heap (1/4 memory), keeping the ratio
//! between stop-the-world pauses and transaction latency close to the
//! paper's. Rates and revocations/second therefore read in the compressed
//! timebase; ratios, orderings, and per-epoch page counts are the
//! comparable quantities.
//!
//! [`PgbenchSource`] and [`GrpcSource`] are the implementations;
//! [`pgbench_stream`] and [`grpc_stream`] pair each with its tuned config.

use crate::StreamedWorkload;
use morello_sim::{ObjId, Op, OpSource, SimConfig, CYCLES_PER_SEC, OP_BATCH};
use simtest::Rng;

/// `pgbench` surrogate parameters.
///
/// The paper runs the default TPC-B-like workload at scale factor 10 for
/// 170,000 transactions (~10 minutes). A transaction is several
/// statements, each a server-side burst followed by a client round-trip —
/// which is why the server is on-core for only ~half of wall time and why
/// stop-the-world pauses can hide in the gaps (§5.2 discussion).
#[derive(Debug, Clone, Copy)]
pub struct PgbenchParams {
    /// Transactions to run (paper: 170,000; default scaled to 20,000).
    pub transactions: u64,
    /// Fixed arrival rate in tx/s (`--rate`, Table 1), or `None` for
    /// back-to-back serial transactions. Remember the x8 compressed
    /// timebase when comparing with the paper's 100/150/250 tx/s. Must be
    /// finite and positive; a rate above `CYCLES_PER_SEC` arrives every
    /// cycle.
    pub rate: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PgbenchParams {
    fn default() -> Self {
        PgbenchParams { transactions: 20_000, rate: None, seed: 42 }
    }
}

/// Table objects occupy root slots `0..PG_TABLES`.
const PG_TABLES: ObjId = 48;
const PG_TABLE_BYTES: u64 = 240 << 10; // 48 x 240 KiB ~ 11.25 MiB (23 MiB / 2)
const PG_PAGES_PER_TABLE: u64 = PG_TABLE_BYTES / 4096;
const PG_LINK_STRIDE: u64 = 250; // one capability per page of each table

fn pgbench_config(params: PgbenchParams) -> SimConfig {
    SimConfig::builder()
        .heap_len(64 << 20)
        .max_objects(2048)
        .min_quarantine(2 << 20) // 8 MiB / 4
        // The `--rate` arrival interval; the ops themselves are rate-independent.
        .tx_interval(params.rate.map(|r| {
            assert!(r.is_finite() && r > 0.0, "PgbenchParams::rate must be finite and positive, got {r}");
            ((CYCLES_PER_SEC as f64 / r) as u64).max(1)
        }))
        .build()
        .expect("static workload config")
}

/// The `pgbench` surrogate; the ops are regenerated lazily from the seed.
///
/// Calibration: worker heap ~11.25 MiB (23 MiB / 2) of pointer-rich
/// "memory context" tables; ~170 KiB freed per transaction (preserving
/// Table 2's per-transaction freed:heap ratio of ~1.5%); one revocation
/// roughly every 22 transactions (paper: every ~17).
///
/// # Panics
///
/// If `params.rate` is `Some` of a non-finite or non-positive rate.
#[must_use]
pub fn pgbench_stream(params: PgbenchParams) -> StreamedWorkload<PgbenchSource> {
    StreamedWorkload {
        name: "pgbench".to_string(),
        source: PgbenchSource::new(params),
        config: pgbench_config(params),
    }
}

/// Resumable state machine emitting [`pgbench_stream`]'s ops batch by
/// batch: the pointer-rich table warmup first, then one transaction at a
/// time.
#[derive(Debug, Clone)]
pub struct PgbenchSource {
    params: PgbenchParams,
    rng: Rng,
    /// palloc-style sequential pointer writes: memory contexts are written
    /// through in address order, so row updates cover every table page
    /// within an inter-revocation window (the behaviour behind §5.2's
    /// "Cornucopia revisits approximately all pages" observation).
    wr_cursor: u64,
    next_tx: u64,
    warm: bool,
}

impl PgbenchSource {
    /// Starts a fresh stream for `params`.
    #[must_use]
    pub fn new(params: PgbenchParams) -> Self {
        PgbenchSource {
            params,
            rng: Rng::seed_from_u64(params.seed ^ 0x5bd1_e995),
            wr_cursor: 0,
            next_tx: 0,
            warm: false,
        }
    }

    /// Shared server state: tables + indexes. PostgreSQL memory contexts
    /// are dense with pointers, so every page of every table gets at least
    /// one index capability at warmup.
    fn emit_warmup(&mut self, ops: &mut Vec<Op>) {
        for t in 0..PG_TABLES {
            ops.push(Op::Alloc { obj: t, size: PG_TABLE_BYTES });
            ops.push(Op::WriteData { obj: t, len: PG_TABLE_BYTES });
        }
        for t in 0..PG_TABLES {
            for p in 0..PG_PAGES_PER_TABLE {
                let to = (t + p * 7 + 3) % PG_TABLES;
                ops.push(Op::LinkPtr { from: t, slot: p * PG_LINK_STRIDE, to });
            }
        }
    }

    fn emit_tx(&mut self, ops: &mut Vec<Op>) {
        let tmp_base: ObjId = 1000;
        let total_pages = PG_TABLES * PG_PAGES_PER_TABLE;
        let tx = self.next_tx;
        self.next_tx += 1;

        ops.push(Op::TxBegin { id: tx });
        // ~5 statements: parse/plan/execute burst + client round trip.
        for stmt in 0..5u64 {
            ops.push(Op::Compute { cycles: 25_000 });
            let t = self.rng.gen_range(0..PG_TABLES);
            // B-tree descent: chase an index pointer planted at warmup.
            let slot = self.rng.gen_range(0..PG_PAGES_PER_TABLE) * PG_LINK_STRIDE;
            ops.push(Op::ChasePtr { from: t, slot });
            ops.push(Op::ReadData { obj: t, len: 2048 });
            if stmt >= 3 {
                ops.push(Op::WriteData { obj: t, len: 512 });
            }
            // In-transaction client round trip (latency, but off-core).
            ops.push(Op::ThinkIdle { cycles: 112_000 });
        }
        // Executor scratch: ~170 KiB per transaction through palloc/pfree.
        let t1 = tmp_base + (tx * 3) % 384;
        let t2 = tmp_base + (tx * 3 + 1) % 384;
        let t3 = tmp_base + (tx * 3 + 2) % 384;
        ops.push(Op::Alloc { obj: t1, size: 64 << 10 });
        ops.push(Op::WriteData { obj: t1, len: 64 << 10 });
        ops.push(Op::Alloc { obj: t2, size: 64 << 10 });
        ops.push(Op::Alloc { obj: t3, size: 40 << 10 });
        ops.push(Op::LinkPtr { from: t1, slot: 0, to: t2 });
        // Row updates scribble fresh pointers into the shared tables,
        // re-dirtying pages for Cornucopia's store barrier.
        for _ in 0..128 {
            let page_id = self.wr_cursor % total_pages;
            self.wr_cursor += 1;
            let from = page_id / PG_PAGES_PER_TABLE;
            let to = self.rng.gen_range(0..PG_TABLES);
            ops.push(Op::LinkPtr {
                from,
                slot: (page_id % PG_PAGES_PER_TABLE) * PG_LINK_STRIDE,
                to,
            });
        }
        ops.push(Op::Compute { cycles: 25_000 });
        ops.push(Op::Free { obj: t3 });
        ops.push(Op::Free { obj: t2 });
        ops.push(Op::Free { obj: t1 });
        ops.push(Op::TxEnd { id: tx });
        // Inter-transaction gap (client thinks; autovacuum etc. elsewhere).
        ops.push(Op::ThinkIdle { cycles: 45_000 });
        if tx % 500 == 499 {
            ops.push(Op::SyscallHoard { obj: tx % PG_TABLES });
        }
    }
}

impl OpSource for PgbenchSource {
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize {
        let start = buf.len();
        if !self.warm {
            self.warm = true;
            self.emit_warmup(buf);
        }
        while buf.len() - start < OP_BATCH && self.next_tx < self.params.transactions {
            self.emit_tx(buf);
        }
        buf.len() - start
    }
}

/// gRPC QPS surrogate parameters.
#[derive(Debug, Clone, Copy)]
pub struct GrpcParams {
    /// Messages to process (the paper measures a 30-second run).
    pub messages: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Channel objects occupy root slots `0..GRPC_CHANNELS`.
const GRPC_CHANNELS: ObjId = 20;
const GRPC_CHANNEL_BYTES: u64 = 272 << 10; // 20 x 272 KiB ~ 5.3 MiB (340/64)
const GRPC_PAGES_PER_CHANNEL: u64 = GRPC_CHANNEL_BYTES / 4096;
const GRPC_LINK_STRIDE: u64 = 250;

fn grpc_config() -> SimConfig {
    SimConfig::builder()
        .heap_len(32 << 20)
        .max_objects(2048)
        .min_quarantine(1 << 20)
        .app_threads(2)
        .spare_revoker_core(false)
        // The QPS client keeps up to 4 messages outstanding per channel:
        // arrivals are open-loop at ~3100/s, so a server stall delays every
        // message that arrives during it (queueing, not coordinated
        // omission).
        .tx_interval(800_000)
        .latency_from_arrival(true)
        .build()
        .expect("static workload config")
}

/// The gRPC QPS surrogate; the ops are regenerated lazily from the seed.
///
/// The server is two threads pinned to cores 2–3 and the revoker is *not*
/// pinned to a spare core (§5.3): application work slows while a pass is
/// in flight (three runnable threads on two cores), and a pass sweeping
/// the ~5.3 MiB (scaled) of pointer-rich channel state spans hundreds of
/// messages — producing the paper's tail-latency picture.
#[must_use]
pub fn grpc_stream(params: GrpcParams) -> StreamedWorkload<GrpcSource> {
    StreamedWorkload {
        name: "gRPC QPS".to_string(),
        source: GrpcSource::new(params),
        config: grpc_config(),
    }
}

/// Resumable state machine emitting [`grpc_stream`]'s ops batch by
/// batch: the channel-state warmup first, then one message at a time.
#[derive(Debug, Clone)]
pub struct GrpcSource {
    params: GrpcParams,
    rng: Rng,
    next_msg: u64,
    warm: bool,
}

impl GrpcSource {
    /// Starts a fresh stream for `params`.
    #[must_use]
    pub fn new(params: GrpcParams) -> Self {
        GrpcSource {
            params,
            rng: Rng::seed_from_u64(params.seed ^ 0xc2b2_ae35),
            next_msg: 0,
            warm: false,
        }
    }

    /// Connection/channel state, dense with pointers (protobuf arenas,
    /// completion queues): every page carries at least one capability.
    fn emit_warmup(&mut self, ops: &mut Vec<Op>) {
        for c in 0..GRPC_CHANNELS {
            ops.push(Op::Alloc { obj: c, size: GRPC_CHANNEL_BYTES });
            ops.push(Op::WriteData { obj: c, len: GRPC_CHANNEL_BYTES });
        }
        for c in 0..GRPC_CHANNELS {
            for p in 0..GRPC_PAGES_PER_CHANNEL {
                let to = (c + p * 3 + 1) % GRPC_CHANNELS;
                ops.push(Op::LinkPtr { from: c, slot: p * GRPC_LINK_STRIDE, to });
            }
        }
    }

    fn emit_msg(&mut self, ops: &mut Vec<Op>) {
        let msg_base: ObjId = 100;
        let m = self.next_msg;
        self.next_msg += 1;

        ops.push(Op::TxBegin { id: m });
        ops.push(Op::Compute { cycles: 200_000 });
        let buf = msg_base + m % 512;
        // Request + response buffers (the QPS scenario allows 4
        // outstanding messages per channel; buffers are sizable).
        let size = self.rng.gen_range(8 << 10..16 << 10);
        ops.push(Op::Alloc { obj: buf, size });
        ops.push(Op::WriteData { obj: buf, len: size });
        let ch = self.rng.gen_range(0..GRPC_CHANNELS);
        let slot = self.rng.gen_range(0..GRPC_PAGES_PER_CHANNEL) * GRPC_LINK_STRIDE;
        ops.push(Op::LinkPtr { from: ch, slot, to: buf });
        ops.push(Op::ChasePtr { from: ch, slot });
        ops.push(Op::Compute { cycles: 200_000 });
        ops.push(Op::Free { obj: buf });
        ops.push(Op::TxEnd { id: m });
        ops.push(Op::ThinkIdle { cycles: 20_000 });
        if m % 1000 == 999 {
            ops.push(Op::SyscallHoard { obj: ch });
        }
    }
}

impl OpSource for GrpcSource {
    fn refill(&mut self, buf: &mut Vec<Op>) -> usize {
        let start = buf.len();
        if !self.warm {
            self.warm = true;
            self.emit_warmup(buf);
        }
        while buf.len() - start < OP_BATCH && self.next_msg < self.params.messages {
            self.emit_msg(buf);
        }
        buf.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morello_sim::{Condition, System};

    #[test]
    fn pgbench_transactions_complete_and_revoke() {
        let mut w = pgbench_stream(PgbenchParams { transactions: 600, ..PgbenchParams::default() });
        let config = w.config.with_condition(Condition::reloaded());
        let stats = System::new(config).run_stream(&mut w.source).unwrap();
        assert_eq!(stats.tx_latencies.len(), 600);
        assert!(stats.revocations >= 10, "pgbench must revoke frequently (got {})", stats.revocations);
    }

    #[test]
    fn an_arrival_rate_past_the_clock_arrives_every_cycle() {
        for rate in [3e9, 1e10, f64::MAX] {
            let mut w = pgbench_stream(PgbenchParams { transactions: 20, rate: Some(rate), seed: 1 });
            assert_eq!(w.config.tx_interval(), Some(1), "rate {rate}");
            let stats =
                simtest::within_3s(move || System::new(w.config.clone()).run_stream(&mut w.source).unwrap());
            assert_eq!(stats.tx_latencies.len(), 20, "rate {rate}");
        }
        let slow = pgbench_stream(PgbenchParams { rate: Some(100.0), ..PgbenchParams::default() });
        assert_eq!(slow.config.tx_interval(), Some(CYCLES_PER_SEC / 100));
    }

    #[test]
    fn a_rate_that_is_not_finite_and_positive_is_refused() {
        for rate in [0.0, -0.0, -5.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let refused = std::panic::catch_unwind(|| {
                pgbench_stream(PgbenchParams { rate: Some(rate), ..PgbenchParams::default() })
            });
            let msg = *refused.expect_err("a bad rate must panic").downcast::<String>().unwrap();
            assert!(msg.contains("PgbenchParams::rate"), "rate {rate}: {msg}");
        }
    }

    #[test]
    fn pgbench_revocation_cadence_matches_paper_band() {
        // Paper: one revocation per ~17 transactions.
        let mut w = pgbench_stream(PgbenchParams { transactions: 2_000, ..PgbenchParams::default() });
        let config = w.config.with_condition(Condition::reloaded());
        let stats = System::new(config).run_stream(&mut w.source).unwrap();
        let per_rev = 2_000 / stats.revocations.max(1);
        assert!(
            (8..=60).contains(&per_rev),
            "one revocation per {per_rev} tx is outside the plausible band"
        );
    }

    #[test]
    fn pgbench_rate_mode_spaces_arrivals() {
        let mut w = pgbench_stream(PgbenchParams { transactions: 200, rate: Some(1000.0), seed: 1 });
        assert!(w.config.tx_interval().is_some());
        let config = w.config.with_condition(Condition::baseline());
        let stats = System::new(config).run_stream(&mut w.source).unwrap();
        // 200 tx at 1000/s is at least 0.14 simulated seconds.
        assert!(stats.wall_cycles > CYCLES_PER_SEC / 7);
    }

    #[test]
    fn pgbench_tail_orders_by_strategy() {
        let mut runs = Vec::new();
        for cond in [Condition::cherivoke(), Condition::cornucopia(), Condition::reloaded()] {
            let mut w = pgbench_stream(PgbenchParams { transactions: 3_000, ..PgbenchParams::default() });
            let config = w.config.with_condition(cond);
            let stats = System::new(config).run_stream(&mut w.source).unwrap();
            runs.push(stats.latency_summary().p99);
        }
        assert!(runs[2] <= runs[1], "Reloaded p99 {} > Cornucopia {}", runs[2], runs[1]);
        assert!(runs[1] <= runs[0], "Cornucopia p99 {} > CHERIvoke {}", runs[1], runs[0]);
    }

    #[test]
    fn grpc_runs_with_shared_cores_and_revokes() {
        let mut w = grpc_stream(GrpcParams { messages: 4_000, seed: 3 });
        let config = w.config.with_condition(Condition::cornucopia());
        let stats = System::new(config).run_stream(&mut w.source).unwrap();
        assert_eq!(stats.tx_latencies.len(), 4_000);
        assert!(stats.revocations >= 3, "got {} revocations", stats.revocations);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = pgbench_stream(PgbenchParams::default()).source.collect_ops();
        let b = pgbench_stream(PgbenchParams::default()).source.collect_ops();
        assert_eq!(a, b);
    }
}
