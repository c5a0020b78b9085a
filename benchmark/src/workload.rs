//! The four workloads and the closed-loop client that drives them.
//!
//! A workload is a pool size plus stages; a stage is a number of identical
//! rounds; a round is a few blocks of operations. A block is a fixed
//! number of operations, not a fixed time: an insert costs more the longer
//! its lists have grown, so a time-boxed block would do different work on
//! a faster build. The counts below are for `REF_SECONDS` of measurement
//! on the 2-core box the benchmark was sized on and scale linearly with
//! `--seconds`. Medians and rates are taken per round and the median round
//! is reported, so a disturbance that hits one round does not move them.
//!
//! The benchmark contract wants every end-to-end metric from every
//! workload, so each workload ends with a short stage of the operation it
//! is not about — inserts after the query workloads, queries after the
//! ingest — placed last, where it cannot disturb the stage the workload is
//! named for.

use crate::fixture::{self, Inputs, CELLS};
use crate::trace::{SpanKind, Tracer};
use datagen::{brute, Dataset, QueryKind, Record};
use pagestore::IoStats;
use service::{IndexKind, Query, QueryResponse, Service};
use std::path::Path;
use std::time::Instant;

pub const REF_SECONDS: f64 = 15.0;
/// Queries per `query_batch` call and records per batched `try_insert`.
pub const BATCH: usize = 64;
/// One response in this many is compared with the brute-force oracle.
pub const CHECK_EVERY: u64 = 50;
/// Single inserts issued after the measured stages and left without a
/// checkpoint, so the restart check has a WAL to replay.
pub const RESTART_CHECK_INSERTS: usize = 100;

/// One block of a round. Every block that inserts ends with a
/// `Service::persist()`: outside the per-call latencies, inside the rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// Single `Service::query` calls (latency samples per predicate).
    QueryL(usize),
    /// `query_batch` calls of `BATCH` mixed queries (throughput).
    QueryT(usize),
    /// Single-record `try_insert` calls: one WAL append + fsync each.
    InsertL(usize),
    /// `BATCH`-record `try_insert` calls (throughput).
    InsertT(usize),
    /// Cycles of nine single queries, one per cell, then one single-record
    /// insert; both rates come from the whole block.
    Mixed(usize),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    pub rounds: usize,
    pub blocks: Vec<Block>,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Buffer pool per shard.
    pub cache_bytes: usize,
    /// Fault every page in before measuring (counted in `setup_s`).
    pub prewarm: bool,
    /// `(rounds, blocks per round)` at `REF_SECONDS`.
    pub stages: &'static [(usize, &'static [Block])],
}

const QUERY_STAGES: &[(usize, &[Block])] = &[
    (5, &[Block::QueryL(3_600), Block::QueryT(72)]),
    (1, &[Block::InsertL(1_600)]),
];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "query_warm",
        why: "pool larger than the shard file and pre-warmed: decode, B-tree descent, pool hit path and fan-out do the work, storage reads none",
        cache_bytes: 128 << 20,
        prewarm: true,
        stages: QUERY_STAGES,
    },
    Workload {
        name: "query_cold",
        why: "the same queries through the paper's 32 KiB pool (8 frames): every list page is a miss, an eviction and a checksummed read",
        cache_bytes: 32 << 10,
        prewarm: false,
        stages: QUERY_STAGES,
    },
    Workload {
        name: "ingest_durable",
        why: "writes only until a short read-back: WAL append and fsync, list rewrite, dirty write-back and the checkpoint flip do the work",
        cache_bytes: 1 << 20,
        prewarm: false,
        stages: &[
            (3, &[Block::InsertL(1_000), Block::InsertT(12)]),
            (1, &[Block::QueryL(3_600)]),
        ],
    },
    Workload {
        name: "mixed_rw",
        why: "nine queries then one durable insert, repeated: reads on the growing inverted file alone, against a pool holding dirty pages",
        cache_bytes: 1 << 20,
        prewarm: false,
        stages: &[(5, &[Block::Mixed(280)])],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Block {
    /// The same block with its operation count multiplied by `factor`,
    /// never below one operation.
    pub fn scaled(self, factor: f64) -> Block {
        let s = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        match self {
            Block::QueryL(n) => Block::QueryL(s(n)),
            Block::QueryT(n) => Block::QueryT(s(n)),
            Block::InsertL(n) => Block::InsertL(s(n)),
            Block::InsertT(n) => Block::InsertT(s(n)),
            Block::Mixed(n) => Block::Mixed(s(n)),
        }
    }

    fn label(self) -> String {
        match self {
            Block::QueryL(n) => format!("{n} single queries"),
            Block::QueryT(n) => format!("{n} batches of {BATCH} queries"),
            Block::InsertL(n) => format!("{n} single-record inserts + persist"),
            Block::InsertT(n) => format!("{n} inserts of {BATCH} records + persist"),
            Block::Mixed(n) => format!("{n} cycles of {CELLS} queries + 1 insert, + persist"),
        }
    }
}

impl Workload {
    /// The stages at `factor` times the reference length: the rounds stay,
    /// their blocks shrink or grow.
    pub fn scaled_stages(&self, factor: f64) -> Vec<Stage> {
        self.stages
            .iter()
            .map(|&(rounds, blocks)| Stage {
                rounds,
                blocks: blocks.iter().map(|b| b.scaled(factor)).collect(),
            })
            .collect()
    }
}

impl Stage {
    pub fn label(&self) -> String {
        let blocks: Vec<String> = self.blocks.iter().map(|b| b.label()).collect();
        format!("{} rounds of [{}]", self.rounds, blocks.join("; "))
    }
}

/// How many pool queries per cell and insert records the stages consume.
/// Single queries never repeat within a run, so a tail percentile is a
/// percentile over distinct queries, not over a few repeated ones.
pub fn input_sizes(stages: &[Stage]) -> (usize, usize) {
    let mut singles = 0;
    let mut inserts = RESTART_CHECK_INSERTS;
    for stage in stages {
        for block in &stage.blocks {
            match *block {
                Block::QueryL(n) => singles += stage.rounds * n,
                Block::QueryT(_) => {}
                Block::InsertL(n) => inserts += stage.rounds * n,
                Block::InsertT(n) => inserts += stage.rounds * n * BATCH,
                Block::Mixed(n) => {
                    singles += stage.rounds * n * CELLS;
                    inserts += stage.rounds * n;
                }
            }
        }
    }
    (singles.max(BATCH).div_ceil(CELLS), inserts)
}

fn kind_slot(kind: QueryKind) -> usize {
    QueryKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("ALL lists every kind")
}

/// A response kept for the oracle: which query, how many inserts had been
/// acknowledged when it was issued, and what came back.
struct Sampled {
    query: usize,
    acked: usize,
    ids: Vec<u64>,
}

/// What one round measured. A rate is `None` when the round has no block
/// that feeds it.
#[derive(Default)]
pub struct Round {
    /// Per-call latency of single queries, by predicate (`QueryKind::ALL` order).
    pub query_us: [Vec<f64>; 3],
    pub insert_us: Vec<f64>,
    /// From the round's `QueryT` block if it has one, else its `QueryL`
    /// block; from the whole `Mixed` block, checkpoint included.
    pub queries_per_s: Option<f64>,
    /// Likewise from `InsertT`, else `InsertL`; checkpoint included.
    pub inserts_per_s: Option<f64>,
    pub wall_s: f64,
}

/// Everything one pass over a workload's stages measured.
#[derive(Default)]
pub struct Leg {
    pub rounds: Vec<Round>,
    pub persist_ms: Vec<f64>,
    /// Pool counters over all stages, summed over shards.
    pub io: IoStats,
    /// Pool misses during query calls, and the queries they served.
    pub query_misses: u64,
    pub queries: u64,
    /// (query, shard) plans by chosen structure (`IndexKind::ALL` order).
    pub plans: [u64; 3],
    /// Over the measured stages; the restart check's inserts come after.
    pub measured_inserts: usize,
    pub inserted_user_bytes: u64,
    pub dir_bytes_at_persist: u64,
    pub user_bytes_at_persist: u64,
    /// Records acknowledged, and how many of them a checkpoint covers.
    pub acked: usize,
    pub persisted: usize,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the report (first few only).
    pub failures: Vec<String>,
    pub oracle_checked: u64,
    pub durability_checked: u64,
    sampled: Vec<Sampled>,
}

impl Leg {
    pub fn measured_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// The one closed-loop client: the next call is issued when the previous
/// one has returned.
struct Client<'a> {
    svc: Service,
    dir: &'a Path,
    inputs: &'a Inputs,
    tracer: Option<&'a Tracer>,
    check_offset: u64,
    query_seq: u64,
    /// Next unused pool entry for single queries, and for batches.
    next_single: usize,
    next_batched: usize,
    /// Pool entries queried in the round under way.
    round_queries: Vec<usize>,
    round: Round,
    leg: Leg,
}

fn pool_stats(svc: &Service) -> IoStats {
    (0..svc.num_shards())
        .map(|s| svc.shard_pager(s).stats())
        .fold(IoStats::default(), |a, b| a + b)
}

impl Client<'_> {
    fn traced<R>(&self, kind: SpanKind, call: impl FnOnce() -> R) -> R {
        match self.tracer {
            Some(t) => t.root(kind, call),
            None => call(),
        }
    }

    /// Bookkeeping for one answered query; never inside a timed call.
    fn answered(&mut self, query: usize, response: QueryResponse) {
        self.leg.attempted += 1;
        self.leg.queries += 1;
        if !response.complete {
            self.leg.fail(format!(
                "query {query} came back incomplete: {:?}",
                response.errors
            ));
        }
        if self.query_seq % CHECK_EVERY == self.check_offset {
            self.leg.sampled.push(Sampled {
                query,
                acked: self.leg.acked,
                ids: response.ids,
            });
        }
        self.query_seq += 1;
        self.round_queries.push(query);
    }

    /// Which structure the planner picks for each of the round's queries on
    /// each shard, given what the shards host now. Asked after the round,
    /// outside its wall, so the traced leg is not slowed by the asking;
    /// exact wherever a round leaves the hosted structures unchanged (all
    /// but the first round of `mixed_rw`).
    fn count_plans(&mut self) {
        for &query in &self.round_queries {
            let q = &self.inputs.pool[query];
            for shard in 0..self.svc.num_shards() {
                if let Some(kind) = self.svc.planned_kind(shard, q.kind, &q.qs) {
                    let slot = IndexKind::ALL
                        .iter()
                        .position(|&k| k == kind)
                        .expect("ALL lists every kind");
                    self.leg.plans[slot] += 1;
                }
            }
        }
    }

    fn query_single(&mut self) {
        let query = self.next_single;
        self.next_single += 1;
        let q = &self.inputs.pool[query];
        let t0 = Instant::now();
        let response = self.traced(SpanKind::Query, || self.svc.query(q.kind, &q.qs));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.round.query_us[kind_slot(q.kind)].push(us);
        self.answered(query, response);
    }

    fn query_batch(&mut self) {
        let pool = &self.inputs.pool;
        let picks: Vec<usize> = (0..BATCH)
            .map(|i| (self.next_batched + i) % pool.len())
            .collect();
        self.next_batched += BATCH;
        let batch: Vec<Query> = picks.iter().map(|&i| pool[i].clone()).collect();
        let responses = self.traced(SpanKind::QueryBatch, || self.svc.query_batch(&batch));
        for (query, response) in picks.into_iter().zip(responses) {
            self.answered(query, response);
        }
    }

    /// One `try_insert` of the next `n` records of the stream. Returns the
    /// call's latency.
    fn insert(&mut self, n: usize) -> f64 {
        let records: &[Record] = &self.inputs.inserts[self.leg.acked..self.leg.acked + n];
        let t0 = Instant::now();
        let svc = &mut self.svc;
        let result = match self.tracer {
            Some(t) => t.root(SpanKind::TryInsert, || svc.try_insert(records)),
            None => svc.try_insert(records),
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.leg.attempted += 1;
        match result {
            Ok(()) => self.leg.acked += n,
            Err(e) => self.leg.fail(format!("insert refused: {e}")),
        }
        us
    }

    fn persist(&mut self) {
        let t0 = Instant::now();
        let result = self.traced(SpanKind::Persist, || self.svc.persist());
        self.leg.persist_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.leg.attempted += 1;
        match result {
            Ok(()) => {
                self.leg.persisted = self.leg.acked;
                self.note_persisted_size();
            }
            Err(e) => self.leg.fail(format!("persist failed: {e}")),
        }
    }

    fn note_persisted_size(&mut self) {
        match fixture::dir_bytes(self.dir) {
            Ok(bytes) => {
                self.leg.dir_bytes_at_persist = bytes;
                self.leg.user_bytes_at_persist = self.inputs.dataset.raw_bytes()
                    + fixture::user_bytes(&self.inputs.inserts[..self.leg.persisted]);
            }
            Err(e) => self.leg.fail(format!("sizing the service directory: {e}")),
        }
    }

    /// Run `queries` with the pool misses they cause attributed to them.
    fn counting_misses(&mut self, queries: impl FnOnce(&mut Self)) {
        let before = pool_stats(&self.svc).misses();
        queries(self);
        self.leg.query_misses += pool_stats(&self.svc).misses() - before;
    }

    /// `round` is the whole round `block` belongs to: an `L` block feeds a
    /// rate only when the round has no `T` block to feed it.
    fn run_block(&mut self, block: Block, round: &[Block]) {
        let t0 = Instant::now();
        let rate = |ops: usize| Some(ops as f64 / t0.elapsed().as_secs_f64());
        match block {
            Block::QueryL(n) => {
                self.counting_misses(|c| (0..n).for_each(|_| c.query_single()));
                if !round.iter().any(|b| matches!(b, Block::QueryT(_))) {
                    self.round.queries_per_s = rate(n);
                }
            }
            Block::QueryT(n) => {
                self.counting_misses(|c| (0..n).for_each(|_| c.query_batch()));
                self.round.queries_per_s = rate(n * BATCH);
            }
            Block::InsertL(n) => {
                for _ in 0..n {
                    let us = self.insert(1);
                    self.round.insert_us.push(us);
                }
                self.persist();
                if !round.iter().any(|b| matches!(b, Block::InsertT(_))) {
                    self.round.inserts_per_s = rate(n);
                }
            }
            Block::InsertT(n) => {
                (0..n).for_each(|_| {
                    self.insert(BATCH);
                });
                self.persist();
                self.round.inserts_per_s = rate(n * BATCH);
            }
            Block::Mixed(n) => {
                for _ in 0..n {
                    self.counting_misses(|c| (0..CELLS).for_each(|_| c.query_single()));
                    let us = self.insert(1);
                    self.round.insert_us.push(us);
                }
                self.persist();
                self.round.queries_per_s = rate(n * CELLS);
                self.round.inserts_per_s = rate(n);
            }
        }
    }

    fn run_round(&mut self, blocks: &[Block]) {
        let t0 = Instant::now();
        for &block in blocks {
            self.run_block(block, blocks);
        }
        self.round.wall_s = t0.elapsed().as_secs_f64();
        self.leg.rounds.push(std::mem::take(&mut self.round));
        if self.tracer.is_some() {
            self.count_plans();
        }
        self.round_queries.clear();
    }
}

fn oracle(dataset: &Dataset, q: &Query) -> Vec<u64> {
    let mut ids = match q.kind {
        QueryKind::Subset => brute::subset(dataset, &q.qs),
        QueryKind::Equality => brute::equality(dataset, &q.qs),
        QueryKind::Superset => brute::superset(dataset, &q.qs),
    };
    ids.sort_unstable();
    ids
}

/// Drive `stages` against `svc` (already set up in `dir`), then check what
/// it answered: sampled responses against the brute-force oracle, and —
/// after dropping the service with inserts not yet checkpointed and
/// reopening it — that every acknowledged insert is still there.
pub fn run_leg(
    svc: Service,
    dir: &Path,
    inputs: &Inputs,
    workload: &Workload,
    stages: &[Stage],
    seed: u64,
    tracer: Option<&Tracer>,
) -> Leg {
    let mut client = Client {
        svc,
        dir,
        inputs,
        tracer,
        check_offset: seed % CHECK_EVERY,
        query_seq: 0,
        next_single: 0,
        next_batched: 0,
        round_queries: Vec::new(),
        round: Round::default(),
        leg: Leg::default(),
    };
    client.note_persisted_size();
    let before = pool_stats(&client.svc);
    if let Some(t) = tracer {
        t.set_enabled(true);
    }
    for stage in stages {
        for _ in 0..stage.rounds {
            client.run_round(&stage.blocks);
        }
    }
    if let Some(t) = tracer {
        t.set_enabled(false);
    }
    client.leg.io = pool_stats(&client.svc).since(&before);
    client.leg.measured_inserts = client.leg.acked;
    client.leg.inserted_user_bytes = fixture::user_bytes(&inputs.inserts[..client.leg.acked]);
    // Unmeasured, and left without a checkpoint: the restart check below
    // needs acknowledged inserts that only the WAL holds.
    for _ in 0..RESTART_CHECK_INSERTS {
        client.insert(1);
    }
    let Client { svc, mut leg, .. } = client;

    if workload.prewarm && leg.query_misses != 0 {
        leg.fail(format!(
            "{} pool misses in the pre-warmed query stage",
            leg.query_misses
        ));
    }
    leg.attempted += 1;

    // Oracle: base records plus every acknowledged insert; an insert is
    // visible to a query exactly when it was acknowledged before it.
    let mut truth = inputs.dataset.clone();
    truth
        .records
        .extend_from_slice(&inputs.inserts[..leg.acked]);
    let base = inputs.dataset.records.len() as u64;
    for s in std::mem::take(&mut leg.sampled) {
        let q = &inputs.pool[s.query];
        let mut want = oracle(&truth, q);
        want.retain(|&id| id < base + s.acked as u64);
        leg.attempted += 1;
        leg.oracle_checked += 1;
        if s.ids != want {
            leg.fail(format!(
                "{} query {:?}: {} ids returned, {} expected",
                q.kind.name(),
                q.qs,
                s.ids.len(),
                want.len()
            ));
        }
    }

    // Process drop, not power loss: the OS keeps what was written, so this
    // exercises WAL replay on reopen, not the fsync.
    drop(svc);
    match Service::open_dir(dir, fixture::config(workload.cache_bytes)) {
        None => {
            leg.attempted += 1;
            leg.fail("the service did not reopen after the run".into());
        }
        Some(reopened) => {
            for r in &inputs.inserts[leg.persisted..leg.acked] {
                let response = reopened.query(QueryKind::Equality, &r.items);
                leg.attempted += 1;
                leg.durability_checked += 1;
                if !response.complete || response.ids.binary_search(&r.id).is_err() {
                    leg.fail(format!("acknowledged insert {} is gone after reopen", r.id));
                }
            }
        }
    }
    leg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_sizes_cover_every_block_of_every_round() {
        let stages = [
            Stage {
                rounds: 3,
                blocks: vec![Block::QueryL(100), Block::QueryT(3)],
            },
            Stage {
                rounds: 2,
                blocks: vec![Block::InsertL(10), Block::InsertT(2)],
            },
        ];
        let inserts = 2 * (10 + 2 * BATCH) + RESTART_CHECK_INSERTS;
        assert_eq!(input_sizes(&stages), (300usize.div_ceil(CELLS), inserts));
        let mixed = [Stage {
            rounds: 4,
            blocks: vec![Block::Mixed(7)],
        }];
        assert_eq!(input_sizes(&mixed), (28, 28 + RESTART_CHECK_INSERTS));
        assert_eq!(Block::QueryL(3_600).scaled(0.01), Block::QueryL(36));
        assert_eq!(Block::InsertT(10).scaled(0.001), Block::InsertT(1));
    }
}
