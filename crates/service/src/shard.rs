//! One shard: its pager, its hosted index structures, its planner state
//! and its admission gate.
//!
//! A shard owns one buffer pool ([`Pager`]) and hosts up to one index of
//! each [`IndexKind`] over the shard's slice of the record set — all three
//! structures coexist in the one pool under distinct catalog keys, so a
//! durable shard is exactly one storage file. Query batches are grouped by
//! the planner's structure choice and fanned out through the chosen
//! structure's `ContainmentIndex::try_par_eval`.
//!
//! Writes go through the inverted file (the only structure with a §4.4
//! maintenance path). An insert leaves the OIF and the unordered B-tree
//! stale, so the shard *drops* them — the planner then has only the IF to
//! choose, and a later [`Shard::persist`] records exactly the structures
//! that are live. This is the paper's own position: periodic rebuilds
//! refresh the ordered structure; between rebuilds the IF carries updates.

use crate::admission::AdmissionGate;
use crate::planner::{IndexKind, PlannerMode, ShardPlanner};
use crate::sync::Mutex;
use crate::Query;
use datagen::{Dataset, Record};
use invfile::InvertedFile;
use oif::{ContainmentIndex, Oif, Persist};
use pagestore::ser::{Reader, Writer};
use pagestore::{PageError, Pager, RawFile, ScrubReport, StorageError, Wal};
use std::sync::atomic::{AtomicBool, Ordering};
use ubtree::UnorderedBTree;

/// Catalog key of the per-shard service manifest.
pub(crate) const SHARD_CATALOG_KEY: &str = "service";

const SHARD_STATE_VERSION: u32 = 1;

/// Health snapshot of one shard, as returned by `Service::probe`.
#[derive(Debug)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// `Some(cause)` when the shard's pool is in degraded read-only mode.
    pub degraded: Option<String>,
    /// Full-storage scrub outcome (corrupt / unreadable / quarantined pages).
    pub scrub: ScrubReport,
    /// Whether the write path is fenced off this shard.
    pub fenced: bool,
}

pub(crate) struct Shard {
    pub(crate) id: usize,
    pub(crate) pager: Pager,
    pub(crate) oif: Option<Oif>,
    pub(crate) inv: Option<InvertedFile>,
    pub(crate) ub: Option<UnorderedBTree>,
    pub(crate) planner: ShardPlanner,
    pub(crate) gate: AdmissionGate,
    pub(crate) num_records: u64,
    pub(crate) max_id: u64,
    pub(crate) vocab_size: usize,
    /// Set by the scrub probe when the storage shows damage; fences writes
    /// until a clean probe.
    unhealthy: AtomicBool,
    /// Set when a WAL append/fsync fails. The store scrub says nothing
    /// about the log's medium, so a clean probe must *not* lift this
    /// fence; only [`Shard::heal`] clears it, after a successful sync
    /// barrier against the log proves the medium recovered.
    wal_fault: AtomicBool,
    /// Optional write-ahead log: when attached, every insert batch is
    /// appended and fsynced here *before* it mutates the inverted file, so
    /// an acknowledged insert survives a crash between checkpoints. The
    /// mutex exists only because [`Shard::persist`] takes `&self`; the
    /// write path holds `&mut self` and never contends.
    wal: Option<Mutex<Wal>>,
}

impl Shard {
    /// Build the requested structures over this shard's slice of the
    /// records. An empty slice still builds (empty structures answer every
    /// query with the empty set and accept the shard's first inserts).
    pub(crate) fn build(
        id: usize,
        sub: &Dataset,
        kinds: &[IndexKind],
        pager: Pager,
        gate_capacity: usize,
    ) -> Shard {
        let mut shard = Shard {
            id,
            pager: pager.clone(),
            oif: None,
            inv: None,
            ub: None,
            planner: ShardPlanner::default(),
            gate: AdmissionGate::new(gate_capacity),
            num_records: sub.records.len() as u64,
            max_id: sub.records.iter().map(|r| r.id).max().unwrap_or(0),
            vocab_size: sub.vocab_size,
            unhealthy: AtomicBool::new(false),
            wal_fault: AtomicBool::new(false),
            wal: None,
        };
        for &kind in kinds {
            match kind {
                IndexKind::Oif => {
                    let idx = Oif::builder(sub).pager(pager.clone()).build();
                    shard.planner.set(kind, ContainmentIndex::stats(&idx));
                    shard.oif = Some(idx);
                }
                IndexKind::InvertedFile => {
                    let idx = InvertedFile::builder(sub).pager(pager.clone()).build();
                    shard.planner.set(kind, ContainmentIndex::stats(&idx));
                    shard.inv = Some(idx);
                }
                IndexKind::UnorderedBTree => {
                    let idx = UnorderedBTree::builder(sub).pager(pager.clone()).build();
                    shard.planner.set(kind, ContainmentIndex::stats(&idx));
                    shard.ub = Some(idx);
                }
            }
        }
        shard
    }

    /// `Some(cause)` when this shard must not take writes: its pool is
    /// degraded read-only, or the last scrub probe found damage.
    pub(crate) fn fenced(&self) -> Option<String> {
        if let Some(cause) = self.pager.degraded() {
            return Some(cause.to_string());
        }
        if self.unhealthy.load(Ordering::Acquire) {
            return Some("storage scrub found damaged pages".to_string());
        }
        if self.wal_fault.load(Ordering::Acquire) {
            return Some("wal medium fault".to_string());
        }
        None
    }

    pub(crate) fn hosts(&self, kind: IndexKind) -> bool {
        self.planner.hosts(kind)
    }

    /// Evaluate the whole batch against this shard: plan each query, group
    /// by chosen structure, fan each group out over `threads` workers, and
    /// scatter the per-query results back into input order.
    pub(crate) fn eval_batch(
        &self,
        queries: &[Query],
        mode: PlannerMode,
        threads: usize,
    ) -> Vec<Result<Vec<u64>, PageError>> {
        let choices: Vec<Option<IndexKind>> = queries
            .iter()
            .map(|q| self.planner.plan(mode, q.kind, &q.qs))
            .collect();
        let mut out: Vec<Option<Result<Vec<u64>, PageError>>> = Vec::new();
        out.resize_with(queries.len(), || None);
        // An empty shard hosts nothing: every answer is the empty set.
        for (slot, choice) in out.iter_mut().zip(&choices) {
            if choice.is_none() {
                *slot = Some(Ok(Vec::new()));
            }
        }
        for ikind in IndexKind::ALL {
            for qkind in datagen::QueryKind::ALL {
                let group: Vec<usize> = (0..queries.len())
                    .filter(|&j| choices[j] == Some(ikind) && queries[j].kind == qkind)
                    .collect();
                if group.is_empty() {
                    continue;
                }
                let qs: Vec<Vec<datagen::ItemId>> =
                    group.iter().map(|&j| queries[j].qs.clone()).collect();
                let results = match ikind {
                    IndexKind::Oif => {
                        let idx = self.oif.as_ref().expect("planner only picks hosted kinds");
                        ContainmentIndex::try_par_eval(idx, qkind, &qs, threads)
                    }
                    IndexKind::InvertedFile => {
                        let idx = self.inv.as_ref().expect("planner only picks hosted kinds");
                        ContainmentIndex::try_par_eval(idx, qkind, &qs, threads)
                    }
                    IndexKind::UnorderedBTree => {
                        let idx = self.ub.as_ref().expect("planner only picks hosted kinds");
                        ContainmentIndex::try_par_eval(idx, qkind, &qs, threads)
                    }
                };
                for (&j, r) in group.iter().zip(results) {
                    out[j] = Some(r);
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every query planned or defaulted"))
            .collect()
    }

    /// Scrub the shard's storage and refresh the write fence: damage fences
    /// the shard, a clean scrub (e.g. after quarantine repair) lifts the
    /// scrub fence again.
    pub(crate) fn probe(&self) -> ShardHealth {
        let scrub = self.pager.scrub();
        self.unhealthy.store(!scrub.is_clean(), Ordering::Release);
        ShardHealth {
            shard: self.id,
            degraded: self.pager.degraded().map(|c| c.to_string()),
            scrub,
            fenced: self.fenced().is_some(),
        }
    }

    /// Attempt to re-admit a fenced shard to the write path: lift page
    /// quarantines (the heal may have rewritten those pages), re-scrub,
    /// and — only when the scrub comes back clean — clear the pool's
    /// degraded read-only mode and the commit queue's sticky failure. A
    /// still-damaged medium re-fences itself.
    pub(crate) fn heal(&self) -> ShardHealth {
        self.pager.clear_quarantine();
        let scrub = self.pager.scrub();
        if scrub.is_clean() {
            self.pager.clear_degraded();
            self.unhealthy.store(false, Ordering::Release);
        } else {
            self.unhealthy.store(true, Ordering::Release);
        }
        // The store scrub cannot see the log's medium: probe it with a
        // sync barrier, and lift the WAL fence only when that succeeds.
        if self.wal_fault.load(Ordering::Acquire) {
            if let Some(wal) = &self.wal {
                let mut wal = wal.lock();
                let probe = wal.sync();
                self.pager.note_wal(wal.take_stats());
                if probe.is_ok() {
                    self.wal_fault.store(false, Ordering::Release);
                }
            }
        }
        ShardHealth {
            shard: self.id,
            degraded: self.pager.degraded().map(|c| c.to_string()),
            scrub,
            fenced: self.fenced().is_some(),
        }
    }

    /// Attach a write-ahead log to this shard and replay whatever survived
    /// in it: records with ids above the shard's persisted max (the replay
    /// filter that makes a crash between "checkpoint commit" and "log
    /// reset" harmless) are folded back into the inverted file. Returns
    /// how many records were replayed. A page fault during the replay —
    /// e.g. a pool that refuses writes — is returned as
    /// [`StorageError::Io`] naming the shard, and no WAL is attached.
    pub(crate) fn attach_wal(&mut self, file: Box<dyn RawFile>) -> Result<usize, StorageError> {
        let (wal, payloads) = Wal::open(file)?;
        let mut batch = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            let Some(record) = invfile::wal::decode_insert(payload) else {
                // The WAL layer's checksum passed, so this is a format or
                // version mismatch — refuse, never replay garbage.
                return Err(StorageError::BadSuperblock(format!(
                    "shard {} wal record {i} does not decode as an insert",
                    self.id
                )));
            };
            if record.id > self.max_id {
                batch.push(record);
            }
        }
        batch.sort_by_key(|r| r.id);
        batch.dedup_by_key(|r| r.id);
        if !batch.is_empty() && self.inv.is_none() {
            return Err(StorageError::BadSuperblock(format!(
                "shard {} wal holds inserts but the shard hosts no inverted file",
                self.id
            )));
        }
        let replayed = batch.len();
        if !batch.is_empty() {
            self.try_apply_insert(&batch).map_err(|e| {
                StorageError::Io(std::io::Error::other(format!(
                    "shard {} wal replay failed: {e}",
                    self.id
                )))
            })?;
        }
        self.wal = Some(Mutex::new(wal));
        Ok(replayed)
    }

    /// Make a validated insert batch durable in the shard's WAL — append
    /// every record, then one fsync — *before* it is applied. A medium
    /// fault here fences the shard (the caller surfaces it as a typed
    /// refusal); the in-memory index was not touched yet, so the shard
    /// stays consistent. No-op without an attached WAL.
    pub(crate) fn log_insert(&self, batch: &[Record]) -> Result<(), StorageError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let mut wal = wal.lock();
        let appended = (|| {
            for record in batch {
                wal.append(&invfile::wal::encode_insert(record))?;
            }
            wal.sync()
        })();
        self.pager.note_wal(wal.take_stats());
        if appended.is_err() {
            self.wal_fault.store(true, Ordering::Release);
        }
        appended
    }

    /// Apply pre-validated, id-sorted fresh records through the inverted
    /// file and drop the now-stale ordered structures. On error no
    /// statistic or planner state has changed — the inverted file's
    /// two-phase batch leaves reads exact — so the shard keeps serving
    /// while the caller surfaces the typed fault.
    pub(crate) fn try_apply_insert(&mut self, batch: &[Record]) -> Result<(), PageError> {
        let inv = self.inv.as_mut().expect("write path requires an IF");
        inv.try_batch_insert(batch, 1)?;
        self.max_id = batch.last().expect("non-empty batch").id;
        self.num_records += batch.len() as u64;
        self.planner
            .set(IndexKind::InvertedFile, ContainmentIndex::stats(inv));
        if self.oif.take().is_some() {
            self.planner.clear(IndexKind::Oif);
        }
        if self.ub.take().is_some() {
            self.planner.clear(IndexKind::UnorderedBTree);
        }
        Ok(())
    }

    /// Persist every live structure plus the shard manifest, then sync.
    pub(crate) fn persist(&self, shards: usize) -> Result<(), StorageError> {
        if let Some(idx) = &self.oif {
            Persist::persist(idx)?;
        }
        if let Some(idx) = &self.inv {
            Persist::persist(idx)?;
        }
        if let Some(idx) = &self.ub {
            Persist::persist(idx)?;
        }
        let mut w = Writer::new();
        w.u32(SHARD_STATE_VERSION);
        w.u64(shards as u64);
        w.u64(self.id as u64);
        w.u64(self.num_records);
        w.u64(self.max_id);
        w.u64(self.vocab_size as u64);
        let flags = (self.oif.is_some() as u8)
            | ((self.inv.is_some() as u8) << 1)
            | ((self.ub.is_some() as u8) << 2);
        w.u8(flags);
        self.pager.put_catalog(SHARD_CATALOG_KEY, &w.into_bytes());
        self.pager.sync()?;
        // The checkpoint committed (superblock flipped), so the log's
        // records are folded in durably — drop them. A crash between the
        // flip and this reset merely replays records the store already
        // has; the attach-time max-id filter skips them.
        if let Some(wal) = &self.wal {
            let mut wal = wal.lock();
            wal.reset()?;
            self.pager.note_wal(wal.take_stats());
        }
        Ok(())
    }

    /// Reopen shard `id` from a pager holding a persisted image; returns
    /// the shard plus the stored total shard count for cross-checking.
    pub(crate) fn open(id: usize, pager: Pager, gate_capacity: usize) -> Option<(Shard, usize)> {
        let state = pager.catalog(SHARD_CATALOG_KEY)?;
        let mut r = Reader::new(&state);
        if r.u32()? != SHARD_STATE_VERSION {
            return None;
        }
        let shards = usize::try_from(r.u64()?).ok()?;
        if r.u64()? != id as u64 {
            return None;
        }
        let num_records = r.u64()?;
        let max_id = r.u64()?;
        let vocab_size = usize::try_from(r.u64()?).ok()?;
        let flags = r.u8()?;
        if !r.is_exhausted() {
            return None;
        }
        let mut shard = Shard {
            id,
            pager: pager.clone(),
            oif: None,
            inv: None,
            ub: None,
            planner: ShardPlanner::default(),
            gate: AdmissionGate::new(gate_capacity),
            num_records,
            max_id,
            vocab_size,
            unhealthy: AtomicBool::new(false),
            wal_fault: AtomicBool::new(false),
            wal: None,
        };
        if flags & 1 != 0 {
            let idx = Oif::open(pager.clone())?;
            shard
                .planner
                .set(IndexKind::Oif, ContainmentIndex::stats(&idx));
            shard.oif = Some(idx);
        }
        if flags & 2 != 0 {
            let idx = InvertedFile::open(pager.clone())?;
            shard
                .planner
                .set(IndexKind::InvertedFile, ContainmentIndex::stats(&idx));
            shard.inv = Some(idx);
        }
        if flags & 4 != 0 {
            let idx = UnorderedBTree::open(pager.clone())?;
            shard
                .planner
                .set(IndexKind::UnorderedBTree, ContainmentIndex::stats(&idx));
            shard.ub = Some(idx);
        }
        Some((shard, shards))
    }
}
