//! A sharded, planner-driven containment-query service.
//!
//! This crate is the serving layer over the workspace's three index
//! structures, written once against the unified
//! [`oif::ContainmentIndex`] trait:
//!
//! * **Sharding** — records are hash-partitioned by original id across `S`
//!   shards ([`shard_of`]); each shard owns its own buffer pool (and, when
//!   durable, its own storage file) and hosts up to one index of each
//!   [`IndexKind`] over its slice.
//! * **Planning** — a cost-based planner ([`planner`]) picks the cheapest
//!   structure per query from per-item statistics, or a fixed kind on
//!   request. Answers never depend on the choice; only pages touched do.
//! * **Fan-out / merge** — a batch fans out over every shard (each shard
//!   evaluating its groups through `try_par_eval`), per-shard `Result`s
//!   merge into per-query [`QueryResponse`]s: merged sorted ids, typed
//!   per-shard [`PageError`]s, and a partial-result flag governed by the
//!   configured error budget. A faulted shard degrades the answer, never
//!   corrupts it: ids from failed shards are simply absent, and a response
//!   says so.
//! * **Health & fencing** — [`Service::probe`] scrubs every shard (the
//!   background health probe); a shard whose pool is degraded read-only or
//!   whose scrub found damage is fenced off the write path while its reads
//!   keep serving. A per-shard admission gate bounds in-flight batches.
//!
//! See `DESIGN.md` at the repository root for how this layer sits on the
//! rest of the workspace.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod admission;
pub mod planner;
mod shard;
mod sync;

pub use admission::{AdmissionGate, Permit};
pub use planner::{estimated_pages, IndexKind, PlannerMode};
pub use shard::ShardHealth;

use datagen::{Dataset, ItemId, QueryKind, Record};
use pagestore::{
    sync_dir, FileStorage, OsFile, PageError, Pager, RawFile, StorageError, PAGE_SIZE,
};
use shard::Shard;
use std::path::Path;

/// Stable hash partition of a record id over `shards` shards
/// (splitmix64-style finalizer, so consecutive ids spread evenly).
pub fn shard_of(id: u64, shards: usize) -> usize {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

/// Service construction knobs. `ServiceConfig::new()` is its own builder:
/// chain the setters and hand the result to [`Service::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Index structures built on every shard (default: all three).
    pub kinds: Vec<IndexKind>,
    /// Per-query structure choice (default: cost-based).
    pub planner: PlannerMode,
    /// How many shards may fail a query before the response is refused
    /// outright instead of returned partial (default: 0 — any shard error
    /// already exceeds the budget).
    pub error_budget: usize,
    /// Worker threads per shard for batch evaluation.
    pub threads_per_shard: usize,
    /// In-flight batches admitted per shard before callers block.
    pub max_inflight: usize,
    /// Buffer-pool budget per shard, in bytes (the paper's 32 KiB default).
    pub cache_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            kinds: IndexKind::ALL.to_vec(),
            planner: PlannerMode::Cost,
            error_budget: 0,
            threads_per_shard: 2,
            max_inflight: 4,
            cache_bytes: 32 * 1024,
        }
    }
}

/// A rejected [`ServiceConfig`]: the named knob holds an unusable value.
/// Every constructor validates before touching a single page, so a
/// mis-built config (the chained setters clamp, but the struct is `pub`)
/// surfaces as a typed refusal instead of a zero-shard panic or a pool
/// that cannot hold one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `shards` is 0 — there would be nowhere to put a record.
    ZeroShards,
    /// `threads_per_shard` is 0 — batches could never be evaluated.
    ZeroThreadsPerShard,
    /// `max_inflight` is 0 — the admission gate would never admit.
    ZeroMaxInflight,
    /// `cache_bytes` cannot hold even one page frame.
    CacheTooSmall { bytes: usize, min: usize },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "config field `shards` must be at least 1"),
            ConfigError::ZeroThreadsPerShard => {
                write!(f, "config field `threads_per_shard` must be at least 1")
            }
            ConfigError::ZeroMaxInflight => {
                write!(f, "config field `max_inflight` must be at least 1")
            }
            ConfigError::CacheTooSmall { bytes, min } => write!(
                f,
                "config field `cache_bytes` ({bytes}) is below one page frame ({min})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServiceConfig {
    pub fn new() -> Self {
        Self::default()
    }

    /// Check every knob for a usable value; all `Service` constructors run
    /// this before building anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.threads_per_shard == 0 {
            return Err(ConfigError::ZeroThreadsPerShard);
        }
        if self.max_inflight == 0 {
            return Err(ConfigError::ZeroMaxInflight);
        }
        if self.cache_bytes < PAGE_SIZE {
            return Err(ConfigError::CacheTooSmall {
                bytes: self.cache_bytes,
                min: PAGE_SIZE,
            });
        }
        Ok(())
    }
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
    pub fn kinds(mut self, kinds: impl Into<Vec<IndexKind>>) -> Self {
        self.kinds = kinds.into();
        self
    }
    pub fn planner(mut self, planner: PlannerMode) -> Self {
        self.planner = planner;
        self
    }
    pub fn error_budget(mut self, budget: usize) -> Self {
        self.error_budget = budget;
        self
    }
    pub fn threads_per_shard(mut self, threads: usize) -> Self {
        self.threads_per_shard = threads.max(1);
        self
    }
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }
}

/// One containment query: a predicate kind and its (sorted,
/// duplicate-free) query set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub kind: QueryKind,
    pub qs: Vec<ItemId>,
}

impl Query {
    pub fn new(kind: QueryKind, qs: impl Into<Vec<ItemId>>) -> Self {
        Query {
            kind,
            qs: qs.into(),
        }
    }
}

/// A typed per-shard failure attached to a [`QueryResponse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Which shard failed.
    pub shard: usize,
    /// Its typed page fault.
    pub error: PageError,
}

/// The merged outcome of one query across every shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// Merged ascending record ids from every shard that answered. Ids
    /// owned by failed shards are absent — the answer is a subset of the
    /// truth, never a superset and never wrong.
    pub ids: Vec<u64>,
    /// Typed failures, one per shard that could not answer this query.
    pub errors: Vec<ShardError>,
    /// True when every shard answered: `ids` is the exact answer.
    pub complete: bool,
    /// True when more shards failed than the error budget tolerates; `ids`
    /// is emptied rather than served that thin.
    pub over_budget: bool,
}

impl QueryResponse {
    /// True when the response carries usable ids: complete, or partial
    /// within the error budget.
    pub fn is_usable(&self) -> bool {
        !self.over_budget
    }

    /// True when within budget but missing at least one shard.
    pub fn is_partial(&self) -> bool {
        !self.complete && !self.over_budget
    }
}

/// A write-path refusal; the batch is rejected before any mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertError {
    /// The target shard is fenced (degraded pool or failed scrub).
    Fenced { shard: usize, cause: String },
    /// The target shard hosts no inverted file — nothing maintains writes.
    NoWriteIndex { shard: usize },
    /// A record id is not fresh (≤ an id already indexed on its shard, or
    /// duplicated within the batch).
    StaleId { id: u64, shard: usize },
    /// A record refers to an item outside the service's vocabulary.
    ItemOutOfVocab { id: u64, item: ItemId },
    /// A shard's pool faulted while applying the batch (e.g. degraded
    /// read-only mid-apply). The shard's statistics are unchanged and its
    /// reads stay exact; slices already applied to earlier shards remain.
    Page { shard: usize, error: PageError },
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::Fenced { shard, cause } => {
                write!(f, "shard {shard} is fenced from writes: {cause}")
            }
            InsertError::NoWriteIndex { shard } => {
                write!(f, "shard {shard} hosts no inverted file to take writes")
            }
            InsertError::StaleId { id, shard } => {
                write!(f, "record id {id} is not fresh on shard {shard}")
            }
            InsertError::ItemOutOfVocab { id, item } => {
                write!(
                    f,
                    "record {id} refers to item {item} outside the vocabulary"
                )
            }
            InsertError::Page { shard, error } => {
                write!(f, "shard {shard} faulted applying the batch: {error}")
            }
        }
    }
}

impl std::error::Error for InsertError {}

/// The sharded containment-query service. See the crate docs.
pub struct Service {
    shards: Vec<Shard>,
    config: ServiceConfig,
    vocab_size: usize,
}

impl Service {
    /// Build over in-memory storage: one fresh pool per shard. Panics on
    /// an invalid config; [`Service::try_build`] is the fallible twin.
    pub fn build(dataset: &Dataset, config: ServiceConfig) -> Service {
        Self::try_build(dataset, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Service::build`]: a config knob with an unusable
    /// value is refused as a typed [`ConfigError`] before any shard is
    /// built.
    pub fn try_build(dataset: &Dataset, config: ServiceConfig) -> Result<Service, ConfigError> {
        config.validate()?;
        let pagers = (0..config.shards)
            .map(|_| Pager::with_cache_bytes(config.cache_bytes))
            .collect();
        Self::try_build_on(dataset, config, pagers)
    }

    /// Build each shard onto a caller-provided pager — the hook for durable
    /// backends and fault injection. `pagers.len()` must equal
    /// `config.shards`. Panics on an invalid config;
    /// [`Service::try_build_on`] is the fallible twin.
    pub fn build_on(dataset: &Dataset, config: ServiceConfig, pagers: Vec<Pager>) -> Service {
        Self::try_build_on(dataset, config, pagers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Service::build_on`].
    pub fn try_build_on(
        dataset: &Dataset,
        config: ServiceConfig,
        pagers: Vec<Pager>,
    ) -> Result<Service, ConfigError> {
        config.validate()?;
        assert_eq!(
            pagers.len(),
            config.shards,
            "one pager per shard ({} != {})",
            pagers.len(),
            config.shards
        );
        let mut slices: Vec<Vec<Record>> = (0..config.shards).map(|_| Vec::new()).collect();
        for r in &dataset.records {
            slices[shard_of(r.id, config.shards)].push(r.clone());
        }
        let shards = slices
            .into_iter()
            .zip(pagers)
            .enumerate()
            .map(|(id, (records, pager))| {
                let sub = Dataset {
                    records,
                    vocab_size: dataset.vocab_size,
                };
                Shard::build(id, &sub, &config.kinds, pager, config.max_inflight)
            })
            .collect();
        Ok(Service {
            shards,
            config,
            vocab_size: dataset.vocab_size,
        })
    }

    /// Build durably: one `FileStorage` per shard, files `shard-<i>.db`
    /// under `dir` (created if missing), plus one write-ahead log
    /// `shard-<i>.wal` per shard so single-record ingest is durable
    /// between checkpoints. `dir` is synced once every file exists, so
    /// the new directory entries are durable as well.
    pub fn build_dir(
        dataset: &Dataset,
        config: ServiceConfig,
        dir: &Path,
    ) -> Result<Service, StorageError> {
        std::fs::create_dir_all(dir)?;
        let mut pagers = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let storage = FileStorage::create(dir.join(format!("shard-{i}.db")))?;
            pagers.push(Pager::with_storage(storage, config.cache_bytes));
        }
        let mut svc = Self::build_on(dataset, config, pagers);
        for i in 0..svc.num_shards() {
            // Truncate: a stale log from a previous build in the same dir
            // must not replay into the fresh dataset.
            let file = open_wal_file(&dir.join(format!("shard-{i}.wal")), true)?;
            svc.attach_wal(i, file)?;
        }
        // Every shard file now exists; make their directory entries
        // durable too, or a crash could lose a file whose contents were
        // already synced.
        sync_dir(dir)?;
        Ok(svc)
    }

    /// Attach a write-ahead log file to shard `shard`, replaying whatever
    /// survives in it (records above the shard's persisted max id — see
    /// the crate docs on replay idempotence). Returns the number of
    /// records replayed. With a WAL attached, every insert batch routed to
    /// the shard is appended and fsynced before it is applied, and
    /// [`Service::persist`] resets the log once the checkpoint commits.
    pub fn attach_wal(
        &mut self,
        shard: usize,
        file: Box<dyn RawFile>,
    ) -> Result<usize, StorageError> {
        self.shards[shard].attach_wal(file)
    }

    /// Attempt to re-admit a fenced shard to the write path: lift page
    /// quarantines, re-scrub, and — only when the scrub is clean — clear
    /// the pool's degraded mode and the health fence. Returns the
    /// post-heal health; a still-damaged medium stays fenced.
    pub fn heal(&self, shard: usize) -> ShardHealth {
        self.shards[shard].heal()
    }

    /// Persist every shard (live structures + shard manifest) and sync.
    pub fn persist(&self) -> Result<(), StorageError> {
        for shard in &self.shards {
            shard.persist(self.shards.len())?;
        }
        Ok(())
    }

    /// Reopen a persisted service from one pager per shard. Runtime knobs
    /// (planner, budget, threads, admission) come from `config`; the shard
    /// count must match the persisted manifests.
    pub fn open_on(pagers: Vec<Pager>, config: ServiceConfig) -> Option<Service> {
        let total = pagers.len();
        let mut shards = Vec::with_capacity(total);
        let mut vocab_size = 0;
        for (id, pager) in pagers.into_iter().enumerate() {
            let (shard, stored_total) = Shard::open(id, pager, config.max_inflight)?;
            if stored_total != total {
                return None;
            }
            vocab_size = vocab_size.max(shard.vocab_size);
            shards.push(shard);
        }
        if shards.is_empty() {
            return None;
        }
        Some(Service {
            config: ServiceConfig {
                shards: total,
                ..config
            },
            shards,
            vocab_size,
        })
    }

    /// Reopen a service persisted via [`Service::build_dir`] +
    /// [`Service::persist`]. The shard count is read from `shard-0.db`.
    /// Each shard's `shard-<i>.wal` (created empty when missing, so dirs
    /// from before the WAL existed still open) is attached and replayed —
    /// acknowledged inserts that never reached a checkpoint come back.
    pub fn open_dir(dir: &Path, config: ServiceConfig) -> Option<Service> {
        let first = FileStorage::open(dir.join("shard-0.db")).ok()?;
        let first = Pager::with_storage(first, config.cache_bytes);
        let (_, total) = Shard::open(0, first.clone(), 1)?;
        let mut pagers = vec![first];
        for i in 1..total {
            let storage = FileStorage::open(dir.join(format!("shard-{i}.db"))).ok()?;
            pagers.push(Pager::with_storage(storage, config.cache_bytes));
        }
        let mut svc = Self::open_on(pagers, config)?;
        for i in 0..svc.num_shards() {
            let file = open_wal_file(&dir.join(format!("shard-{i}.wal")), false).ok()?;
            svc.attach_wal(i, file).ok()?;
        }
        Some(svc)
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total records across all shards.
    pub fn num_records(&self) -> u64 {
        self.shards.iter().map(|s| s.num_records).sum()
    }

    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// The shard an id lives on (the partition is stable across builds).
    pub fn shard_for(&self, id: u64) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Shard `i`'s buffer pool — I/O statistics, cache control, fault
    /// handles in tests.
    pub fn shard_pager(&self, i: usize) -> &Pager {
        &self.shards[i].pager
    }

    /// Which kinds shard `i` currently hosts (inserts drop stale ordered
    /// structures, so this can shrink over a shard's lifetime).
    pub fn shard_kinds(&self, i: usize) -> Vec<IndexKind> {
        IndexKind::ALL
            .into_iter()
            .filter(|&k| self.shards[i].hosts(k))
            .collect()
    }

    /// What the planner would pick on shard `shard` for this query —
    /// introspection for tests and the bench harness.
    pub fn planned_kind(&self, shard: usize, kind: QueryKind, qs: &[ItemId]) -> Option<IndexKind> {
        self.shards[shard]
            .planner
            .plan(self.config.planner, kind, qs)
    }

    /// High-water mark of shard `i`'s admission gate.
    pub fn admission_high_water(&self, i: usize) -> usize {
        self.shards[i].gate.high_water()
    }

    /// Evaluate one query across every shard.
    pub fn query(&self, kind: QueryKind, qs: &[ItemId]) -> QueryResponse {
        self.query_batch(std::slice::from_ref(&Query::new(kind, qs.to_vec())))
            .pop()
            .expect("one response per query")
    }

    /// Evaluate a mixed-kind batch: fan out over every shard concurrently
    /// (each shard groups the batch by planner choice and evaluates groups
    /// through `try_par_eval`), then merge per query.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<QueryResponse> {
        if queries.is_empty() {
            return Vec::new();
        }
        let n = self.shards.len();
        let per_shard: Vec<Vec<Result<Vec<u64>, PageError>>> = pagestore::par_map(n, n, |s| {
            let shard = &self.shards[s];
            let _permit = shard.gate.admit();
            shard.eval_batch(queries, self.config.planner, self.config.threads_per_shard)
        });
        (0..queries.len())
            .map(|j| {
                let mut ids = Vec::new();
                let mut errors = Vec::new();
                for (s, results) in per_shard.iter().enumerate() {
                    match &results[j] {
                        Ok(part) => ids.extend_from_slice(part),
                        Err(e) => errors.push(ShardError {
                            shard: s,
                            error: e.clone(),
                        }),
                    }
                }
                ids.sort_unstable();
                let complete = errors.is_empty();
                let over_budget = errors.len() > self.config.error_budget;
                if over_budget {
                    ids.clear();
                }
                QueryResponse {
                    ids,
                    errors,
                    complete,
                    over_budget,
                }
            })
            .collect()
    }

    /// Scrub every shard concurrently — the health probe. Damage fences a
    /// shard's write path; a clean scrub lifts the scrub fence again.
    pub fn probe(&self) -> Vec<ShardHealth> {
        let n = self.shards.len();
        pagestore::par_map(n, n, |s| self.shards[s].probe())
    }

    /// Append fresh records, routed to their shards' inverted files. The
    /// whole batch is validated first — fenced shards, missing write
    /// indexes, stale ids and out-of-vocabulary items reject it before any
    /// shard mutates — then applied shard by shard. On a shard with an
    /// attached WAL the slice is appended and fsynced *before* it is
    /// applied, so an acknowledged insert survives a crash; a WAL medium
    /// fault fences that shard and refuses its slice (slices already
    /// applied to earlier shards keep their own durable acknowledgement).
    /// Inserted records are immediately visible to queries; each touched
    /// shard's stale ordered structures are dropped (see [`shard`-level
    /// docs](IndexKind)) so the planner only offers maintained structures.
    pub fn try_insert(&mut self, records: &[Record]) -> Result<(), InsertError> {
        let n = self.shards.len();
        let mut batches: Vec<Vec<Record>> = (0..n).map(|_| Vec::new()).collect();
        for r in records {
            for &item in &r.items {
                if item as usize >= self.vocab_size {
                    return Err(InsertError::ItemOutOfVocab { id: r.id, item });
                }
            }
            batches[shard_of(r.id, n)].push(r.clone());
        }
        for (s, batch) in batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let shard = &self.shards[s];
            if let Some(cause) = shard.fenced() {
                return Err(InsertError::Fenced { shard: s, cause });
            }
            if !shard.hosts(IndexKind::InvertedFile) {
                return Err(InsertError::NoWriteIndex { shard: s });
            }
            batch.sort_by_key(|r| r.id);
            let mut last = shard.max_id;
            for r in batch.iter() {
                if r.id <= last {
                    return Err(InsertError::StaleId { id: r.id, shard: s });
                }
                last = r.id;
            }
        }
        for (s, batch) in batches.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if let Err(e) = self.shards[s].log_insert(&batch) {
                return Err(InsertError::Fenced {
                    shard: s,
                    cause: format!("wal write failed: {e}"),
                });
            }
            if let Err(error) = self.shards[s].try_apply_insert(&batch) {
                return Err(InsertError::Page { shard: s, error });
            }
        }
        Ok(())
    }
}

/// Open (or create) a shard WAL file at `path`; `truncate` drops any
/// prior contents (fresh builds must not replay a stale log).
fn open_wal_file(path: &Path, truncate: bool) -> Result<Box<dyn RawFile>, StorageError> {
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(truncate)
        .open(path)?;
    Ok(Box::new(OsFile::new(file)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_covers_all_shards() {
        for shards in [1usize, 2, 4, 8] {
            let mut seen = vec![false; shards];
            for id in 0..1000u64 {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards), "stable");
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b), "all {shards} shards populated");
        }
    }

    #[test]
    fn invalid_configs_are_refused_with_the_offending_field() {
        let d = Dataset::paper_fig1();
        let cases = [
            (
                ServiceConfig {
                    shards: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroShards,
            ),
            (
                ServiceConfig {
                    threads_per_shard: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroThreadsPerShard,
            ),
            (
                ServiceConfig {
                    max_inflight: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroMaxInflight,
            ),
            (
                ServiceConfig {
                    cache_bytes: PAGE_SIZE - 1,
                    ..ServiceConfig::default()
                },
                ConfigError::CacheTooSmall {
                    bytes: PAGE_SIZE - 1,
                    min: PAGE_SIZE,
                },
            ),
        ];
        for (config, want) in cases {
            assert_eq!(config.validate(), Err(want.clone()));
            assert_eq!(Service::try_build(&d, config).err(), Some(want));
        }
        assert!(ServiceConfig::default().validate().is_ok());
    }

    #[test]
    fn paper_examples_served_sharded() {
        let d = Dataset::paper_fig1();
        for shards in [1usize, 2, 4] {
            let svc = Service::build(&d, ServiceConfig::new().shards(shards));
            let r = svc.query(QueryKind::Subset, &[0, 3]);
            assert!(r.complete);
            assert_eq!(r.ids, vec![101, 104, 114]);
            assert_eq!(svc.query(QueryKind::Superset, &[0, 2]).ids, vec![106, 113]);
            assert_eq!(svc.query(QueryKind::Equality, &[0, 3]).ids, vec![114]);
            assert_eq!(svc.num_records(), 18);
        }
    }

    #[test]
    fn mixed_kind_batch_answers_in_order() {
        let d = Dataset::paper_fig1();
        let svc = Service::build(&d, ServiceConfig::new().shards(3));
        let batch = vec![
            Query::new(QueryKind::Subset, vec![0, 3]),
            Query::new(QueryKind::Superset, vec![0, 2]),
            Query::new(QueryKind::Equality, vec![0, 3]),
            Query::new(QueryKind::Subset, vec![]),
        ];
        let rs = svc.query_batch(&batch);
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].ids, vec![101, 104, 114]);
        assert_eq!(rs[1].ids, vec![106, 113]);
        assert_eq!(rs[2].ids, vec![114]);
        assert!(rs[3].ids.is_empty() && rs[3].complete);
    }

    #[test]
    fn inserts_route_and_serve_immediately() {
        let d = Dataset::paper_fig1();
        let mut svc = Service::build(&d, ServiceConfig::new().shards(4));
        svc.try_insert(&[Record::new(200, vec![0, 3]), Record::new(201, vec![0, 2])])
            .unwrap();
        assert_eq!(svc.num_records(), 20);
        let r = svc.query(QueryKind::Subset, &[0, 3]);
        assert_eq!(r.ids, vec![101, 104, 114, 200]);
        // Stale id rejected with a typed error, not a panic.
        assert!(matches!(
            svc.try_insert(&[Record::new(200, vec![0])]),
            Err(InsertError::StaleId { id: 200, .. })
        ));
        // Out-of-vocabulary item rejected.
        assert!(matches!(
            svc.try_insert(&[Record::new(300, vec![99])]),
            Err(InsertError::ItemOutOfVocab { id: 300, item: 99 })
        ));
        // Touched shards dropped their stale ordered structures.
        let touched = svc.shard_for(200);
        assert_eq!(svc.shard_kinds(touched), vec![IndexKind::InvertedFile]);
    }

    #[test]
    fn probe_reports_clean_shards_unfenced() {
        let d = Dataset::paper_fig1();
        let svc = Service::build(&d, ServiceConfig::new().shards(2));
        for h in svc.probe() {
            assert!(h.scrub.is_clean());
            assert!(!h.fenced);
            assert!(h.degraded.is_none());
        }
    }

    #[test]
    fn empty_shards_answer_and_accept_inserts() {
        // Far more shards than records: some shards are empty.
        let d = Dataset::paper_fig1();
        let mut svc = Service::build(&d, ServiceConfig::new().shards(16));
        assert_eq!(
            svc.query(QueryKind::Subset, &[0, 3]).ids,
            vec![101, 104, 114]
        );
        svc.try_insert(&[Record::new(500, vec![0, 3])]).unwrap();
        assert_eq!(
            svc.query(QueryKind::Subset, &[0, 3]).ids,
            vec![101, 104, 114, 500]
        );
    }
}
