//! Service-level acceptance suite: the sharded, planner-driven serving
//! layer must be *indistinguishable* from a single index at the answer
//! level, and strictly better behaved at the failure level.
//!
//! * **Equivalence** — every query kind, any shard count, any planner
//!   choice (cost-based or pinned to any of the three structures), over
//!   in-memory pools *and* durable `FileStorage` shards across a
//!   persist/reopen cycle, answers bit-for-bit what the brute-force oracle
//!   (and hence any single index) answers.
//! * **Degraded shard** — one shard's pool forced into degraded read-only
//!   mode keeps serving exact answers; the write path is fenced with a
//!   typed [`InsertError::Fenced`], never a panic.
//! * **Flaky shard** — one shard on a flaky medium: every response is
//!   either complete and exact, or partial with typed errors naming
//!   exactly the faulty shard and ids equal to the truth minus that
//!   shard's records — never a wrong answer. Once the medium heals, the
//!   same queries all complete.
//! * **Error budget** — budget 0 refuses partial answers (`over_budget`,
//!   ids emptied); budget ≥ 1 serves them flagged.

use set_containment::datagen::{brute, Dataset, QueryKind, Record, SyntheticSpec, WorkloadSpec};
use set_containment::invfile::wal::encode_insert;
use set_containment::pagestore::{
    Clock, FaultConfig, FaultFile, FaultHandle, FaultStorage, FileStorage, MemFile, Pager,
    StorageError, Wal,
};
use set_containment::service::{
    shard_of, IndexKind, InsertError, PlannerMode, Query, Service, ServiceConfig,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Backoff time source that spends no wall-clock time (the flaky sweep
/// injects thousands of faults).
struct NoSleep;
impl Clock for NoSleep {
    fn sleep(&self, _d: Duration) {}
}

/// Unique temp dir per test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("oif-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dataset() -> Dataset {
    SyntheticSpec {
        num_records: 1200,
        vocab_size: 50,
        zipf: 0.8,
        len_min: 1,
        len_max: 10,
        seed: 31,
    }
    .generate()
}

/// A mixed-kind batch plus each query's brute-force oracle answer.
fn oracle_batch(d: &Dataset) -> Vec<(Query, Vec<u64>)> {
    let mut out = Vec::new();
    for (i, kind) in QueryKind::ALL.into_iter().enumerate() {
        for size in [1usize, 2, 4] {
            let ws = WorkloadSpec {
                kind,
                qs_size: size,
                count: 4,
                seed: (i * 13 + size) as u64,
            }
            .generate(d);
            for q in ws.queries {
                let want = match kind {
                    QueryKind::Subset => brute::subset(d, &q),
                    QueryKind::Equality => brute::equality(d, &q),
                    QueryKind::Superset => brute::superset(d, &q),
                };
                out.push((Query::new(kind, q), want));
            }
        }
    }
    out
}

const MODES: [PlannerMode; 4] = [
    PlannerMode::Cost,
    PlannerMode::Fixed(IndexKind::Oif),
    PlannerMode::Fixed(IndexKind::InvertedFile),
    PlannerMode::Fixed(IndexKind::UnorderedBTree),
];

fn assert_all_exact(svc: &Service, oracle: &[(Query, Vec<u64>)], ctx: &str) {
    let queries: Vec<Query> = oracle.iter().map(|(q, _)| q.clone()).collect();
    let responses = svc.query_batch(&queries);
    for ((q, want), r) in oracle.iter().zip(&responses) {
        assert!(
            r.complete,
            "[{ctx}] {:?} {:?}: {:?}",
            q.kind, q.qs, r.errors
        );
        assert_eq!(&r.ids, want, "[{ctx}] {:?} {:?}", q.kind, q.qs);
    }
}

#[test]
fn sharded_answers_match_oracle_for_every_planner_and_shard_count() {
    let d = dataset();
    let oracle = oracle_batch(&d);
    for shards in [1usize, 2, 4] {
        for mode in MODES {
            let svc = Service::build(&d, ServiceConfig::new().shards(shards).planner(mode));
            // A pinned planner must actually route to its structure.
            if let PlannerMode::Fixed(k) = mode {
                assert_eq!(
                    svc.planned_kind(0, QueryKind::Subset, &[0, 1]),
                    Some(k),
                    "S={shards}"
                );
            }
            assert_all_exact(&svc, &oracle, &format!("mem S={shards} {mode:?}"));
        }
    }
}

#[test]
fn durable_shards_survive_reopen_with_identical_answers() {
    let d = dataset();
    let oracle = oracle_batch(&d);
    let tmp = TempDir::new("reopen");
    for shards in [1usize, 3] {
        let dir = tmp.0.join(format!("s{shards}"));
        {
            let svc = Service::build_dir(&d, ServiceConfig::new().shards(shards), &dir)
                .expect("durable build");
            assert_all_exact(&svc, &oracle, &format!("file S={shards} fresh"));
            svc.persist().expect("persist");
        }
        // A "new process": reopen from the files alone, under every
        // planner mode.
        for mode in MODES {
            let svc = Service::open_dir(&dir, ServiceConfig::new().planner(mode))
                .expect("reopen from files");
            assert_eq!(svc.num_shards(), shards);
            assert_eq!(svc.num_records(), d.records.len() as u64);
            assert_all_exact(&svc, &oracle, &format!("file S={shards} reopened {mode:?}"));
        }
    }
}

/// Build a service with one faultable pager per shard (in-process
/// `FaultStorage`, committed via persist so read faults never interact
/// with write-back).
fn faultable_service(d: &Dataset, config: ServiceConfig) -> (Service, Vec<FaultHandle>) {
    let mut pagers = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..config.shards {
        let (storage, h) = FaultStorage::create(FaultConfig::default()).expect("create in-proc");
        let pager = Pager::with_storage(storage, config.cache_bytes);
        pager.set_retry_clock(Arc::new(NoSleep));
        pagers.push(pager);
        handles.push(h);
    }
    let svc = Service::build_on(d, config, pagers);
    svc.persist().expect("fault-free persist");
    (svc, handles)
}

#[test]
fn degraded_shard_keeps_serving_reads_and_fences_writes() {
    let d = dataset();
    let oracle = oracle_batch(&d);
    const S: usize = 3;
    const VICTIM: usize = 1;
    let (mut svc, handles) = faultable_service(&d, ServiceConfig::new().shards(S));

    // Dirty the victim shard's pool (an insert routed to it), then turn
    // its medium write-dead and sync: the failed write-back degrades the
    // pool into read-only mode.
    let mut fresh_id = 1_000_000u64;
    while shard_of(fresh_id, S) != VICTIM {
        fresh_id += 1;
    }
    svc.try_insert(&[Record::new(fresh_id, vec![0, 3])])
        .expect("healthy insert");
    let cur = handles[VICTIM].ops();
    handles[VICTIM].set_fault_config(FaultConfig {
        transient_writes: (cur..cur + 100_000).collect(),
        ..FaultConfig::default()
    });
    assert!(svc.shard_pager(VICTIM).try_sync().is_err());
    assert!(
        svc.shard_pager(VICTIM).degraded().is_some(),
        "failed sync must degrade the pool"
    );
    handles[VICTIM].set_fault_config(FaultConfig::default());

    // The probe reports the degradation and the fence; the other shards
    // stay healthy.
    let health = svc.probe();
    assert!(health[VICTIM].fenced && health[VICTIM].degraded.is_some());
    for h in health.iter().filter(|h| h.shard != VICTIM) {
        assert!(!h.fenced && h.degraded.is_none(), "shard {}", h.shard);
    }

    // Reads still serve exact answers around the degraded shard (its own
    // reads are fine: degraded means read-only, not unreadable). The
    // inserted record is visible.
    assert_all_exact(&svc, &oracle, "degraded victim");
    let r = svc.query(QueryKind::Subset, &[0, 3]);
    assert!(r.complete && r.ids.contains(&fresh_id));

    // The write path is fenced with a typed error — and refused *before*
    // any shard mutates: a batch also touching a healthy shard leaves it
    // unchanged.
    let mut healthy_id = fresh_id + 1;
    while shard_of(healthy_id, S) == VICTIM {
        healthy_id += 1;
    }
    let mut victim_id = healthy_id + 1;
    while shard_of(victim_id, S) != VICTIM {
        victim_id += 1;
    }
    let before = svc.num_records();
    let err = svc
        .try_insert(&[
            Record::new(victim_id, vec![0]),
            Record::new(healthy_id, vec![0]),
        ])
        .expect_err("degraded shard must fence writes");
    match err {
        InsertError::Fenced { shard, .. } => assert_eq!(shard, VICTIM),
        other => panic!("expected Fenced, got {other}"),
    }
    assert_eq!(svc.num_records(), before, "rejected batch must not mutate");
}

#[test]
fn flaky_shard_yields_partial_but_never_wrong_answers_and_heals() {
    let d = dataset();
    let oracle = oracle_batch(&d);
    const S: usize = 4;
    const VICTIM: usize = 2;
    let (svc, handles) = faultable_service(&d, ServiceConfig::new().shards(S).error_budget(1));

    let mut saw_partial = false;
    for seed in [0xA1u64, 0x5EED, 7] {
        handles[VICTIM].set_fault_config(FaultConfig::flaky_reads(seed, 3));
        svc.shard_pager(VICTIM).clear_cache();
        let queries: Vec<Query> = oracle.iter().map(|(q, _)| q.clone()).collect();
        let responses = svc.query_batch(&queries);
        for ((q, want), r) in oracle.iter().zip(&responses) {
            assert!(
                !r.over_budget,
                "budget 1 tolerates the single flaky shard: {:?} {:?}",
                q.kind, q.qs
            );
            if r.complete {
                assert_eq!(&r.ids, want, "{:?} {:?}", q.kind, q.qs);
            } else {
                saw_partial = true;
                assert!(r.is_partial());
                // Typed errors name exactly the faulty shard…
                for e in &r.errors {
                    assert_eq!(e.shard, VICTIM, "{:?} {:?}: {}", q.kind, q.qs, e.error);
                }
                // …and the ids are the truth minus that shard's records:
                // a subset of the exact answer, never a wrong id.
                let expect: Vec<u64> = want
                    .iter()
                    .copied()
                    .filter(|&id| shard_of(id, S) != VICTIM)
                    .collect();
                assert_eq!(r.ids, expect, "{:?} {:?}", q.kind, q.qs);
            }
        }
        // The medium heals: the same queries all complete again.
        handles[VICTIM].set_fault_config(FaultConfig::default());
        svc.shard_pager(VICTIM).clear_cache();
        assert_all_exact(&svc, &oracle, &format!("healed after seed {seed:#x}"));
    }
    assert!(
        saw_partial,
        "the seed matrix must exhaust retries at least once or the \
         partial-result half of the contract was never exercised"
    );
}

#[test]
fn zero_error_budget_refuses_partial_answers() {
    let d = dataset();
    let oracle = oracle_batch(&d);
    const S: usize = 2;
    const VICTIM: usize = 0;
    // error_budget defaults to 0: any shard failure exceeds it.
    let (svc, handles) = faultable_service(&d, ServiceConfig::new().shards(S));

    handles[VICTIM].set_fault_config(FaultConfig::flaky_reads(0xBAD, 2));
    svc.shard_pager(VICTIM).clear_cache();
    let queries: Vec<Query> = oracle.iter().map(|(q, _)| q.clone()).collect();
    let responses = svc.query_batch(&queries);
    let mut refused = 0;
    for ((q, want), r) in oracle.iter().zip(&responses) {
        if r.complete {
            assert_eq!(&r.ids, want, "{:?} {:?}", q.kind, q.qs);
        } else {
            // Over budget: the response says so and serves no thin ids.
            assert!(r.over_budget && !r.is_usable());
            assert!(r.ids.is_empty(), "{:?} {:?}", q.kind, q.qs);
            refused += 1;
        }
    }
    assert!(
        refused > 0,
        "the flaky medium must refuse at least one query"
    );
}

/// First id ≥ `from` that the partition routes to `shard`.
fn fresh_id_on(shard: usize, shards: usize, from: u64) -> u64 {
    let mut id = from;
    while shard_of(id, shards) != shard {
        id += 1;
    }
    id
}

#[test]
fn wal_ingest_survives_crash_and_replays_exactly_once() {
    let d = dataset();
    const S: usize = 2;
    let (mut svc, store_handles) = faultable_service(&d, ServiceConfig::new().shards(S));
    let mut wal_handles = Vec::new();
    for s in 0..S {
        let (file, h) = FaultFile::new(FaultConfig::default());
        assert_eq!(svc.attach_wal(s, Box::new(file)).expect("attach"), 0);
        wal_handles.push(h);
    }

    // One insert checkpointed (persist folds it into the store and resets
    // the log), one acknowledged but never checkpointed: after a crash it
    // exists *only* in its shard's WAL.
    let id_a = fresh_id_on(0, S, 2_000_000);
    let id_b = fresh_id_on(1, S, id_a + 1);
    svc.try_insert(&[Record::new(id_a, vec![0, 3])])
        .expect("insert a");
    svc.persist().expect("checkpoint");
    svc.try_insert(&[Record::new(id_b, vec![0, 3])])
        .expect("insert b");
    let stats = svc.shard_pager(1).stats();
    assert!(
        stats.wal_appends >= 1 && stats.wal_bytes > 0 && stats.fsyncs >= 1,
        "wal traffic must surface in the pool's IoStats: {stats}"
    );

    // Crash: all that survives is the two disk images per shard.
    let store_images: Vec<Vec<u8>> = store_handles.iter().map(|h| h.disk_image()).collect();
    let wal_images: Vec<Vec<u8>> = wal_handles.iter().map(|h| h.disk_image()).collect();
    drop(svc);

    let pagers: Vec<Pager> = store_images
        .into_iter()
        .map(|img| {
            let storage = FileStorage::open_image(img).expect("store image reopens");
            Pager::with_storage(storage, 32 * 1024)
        })
        .collect();
    let mut svc = Service::open_on(pagers, ServiceConfig::new()).expect("service reopens");
    let mut replayed = 0;
    for (s, img) in wal_images.into_iter().enumerate() {
        replayed += svc
            .attach_wal(s, Box::new(MemFile::from_bytes(img)))
            .expect("wal image replays");
    }
    assert_eq!(replayed, 1, "only the unpersisted insert replays");
    assert_eq!(svc.num_records(), d.records.len() as u64 + 2);
    let r = svc.query(QueryKind::Subset, &[0, 3]);
    assert!(r.complete && r.ids.contains(&id_a) && r.ids.contains(&id_b));

    // The replayed service keeps ingesting: both the WAL'd shard and the
    // checkpointed one accept fresh ids.
    let id_c = fresh_id_on(1, S, id_b + 1);
    svc.try_insert(&[Record::new(id_c, vec![0, 3])])
        .expect("insert after replay");
    assert!(svc.query(QueryKind::Subset, &[0, 3]).ids.contains(&id_c));
}

#[test]
fn wal_replay_onto_a_refusing_pool_is_a_typed_error() {
    let d = dataset();
    let (mut svc, store_handles) = faultable_service(&d, ServiceConfig::new().shards(1));

    // A log holding one acknowledged insert the store never saw.
    let (wal_file, wal_handle) = FaultFile::new(FaultConfig::default());
    let mut wal = Wal::create(Box::new(wal_file)).expect("wal create");
    wal.append(&encode_insert(&Record::new(4_000_000, vec![0, 3])))
        .expect("wal append");
    wal.sync().expect("wal sync");

    // The store's medium refuses a commit, which degrades the pool: from
    // then on it refuses every write.
    store_handles[0].set_fault_config(FaultConfig {
        transient_writes: (0..100_000).collect(),
        ..FaultConfig::default()
    });
    assert!(svc.shard_pager(0).try_sync().is_err());
    assert!(svc.shard_pager(0).degraded().is_some());

    let before = svc.num_records();
    let err = svc
        .attach_wal(0, Box::new(MemFile::from_bytes(wal_handle.disk_image())))
        .expect_err("replay onto a refusing pool must fail");
    assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
    assert!(err.to_string().contains("wal replay"), "got: {err}");
    assert_eq!(
        svc.num_records(),
        before,
        "a refused replay applies nothing"
    );
    assert_all_exact(&svc, &oracle_batch(&d), "after refused replay");
}

#[test]
fn wal_fault_fences_the_shard_and_heal_readmits_it() {
    let d = dataset();
    const S: usize = 2;
    const VICTIM: usize = 1;
    let (mut svc, _store_handles) = faultable_service(&d, ServiceConfig::new().shards(S));
    let mut wal_handles = Vec::new();
    for s in 0..S {
        let (file, h) = FaultFile::new(FaultConfig::default());
        svc.attach_wal(s, Box::new(file)).expect("attach");
        wal_handles.push(h);
    }

    // The victim's WAL medium goes write-dead: the insert is refused with
    // a typed fence *before* any index mutated, and the shard stays
    // fenced for later writes too.
    wal_handles[VICTIM].set_fault_config(FaultConfig {
        transient_writes: (0..100_000).collect(),
        ..FaultConfig::default()
    });
    let id = fresh_id_on(VICTIM, S, 3_000_000);
    let before = svc.num_records();
    let err = svc
        .try_insert(&[Record::new(id, vec![0, 3])])
        .expect_err("wal fault must fence");
    match &err {
        InsertError::Fenced { shard, cause } => {
            assert_eq!(*shard, VICTIM);
            assert!(cause.contains("wal"), "cause names the wal: {cause}");
        }
        other => panic!("expected Fenced, got {other}"),
    }
    assert_eq!(svc.num_records(), before, "refused batch must not mutate");
    assert!(
        svc.probe()[VICTIM].fenced,
        "fence persists past the refusal"
    );

    // The medium heals; a clean scrub re-admits the shard and the same
    // insert now succeeds and serves.
    wal_handles[VICTIM].set_fault_config(FaultConfig::default());
    let health = svc.heal(VICTIM);
    assert!(
        !health.fenced && health.scrub.is_clean(),
        "clean heal must lift the fence"
    );
    svc.try_insert(&[Record::new(id, vec![0, 3])])
        .expect("insert after heal");
    assert_eq!(svc.num_records(), before + 1);
    assert!(svc.query(QueryKind::Subset, &[0, 3]).ids.contains(&id));
}

#[test]
fn admission_gate_bounds_concurrent_batches() {
    let d = dataset();
    let svc = Service::build(&d, ServiceConfig::new().shards(2).max_inflight(2));
    let queries: Vec<Query> = oracle_batch(&d).into_iter().map(|(q, _)| q).collect();
    std::thread::scope(|s| {
        for _ in 0..6 {
            let (svc, queries) = (&svc, &queries);
            s.spawn(move || {
                for _ in 0..3 {
                    let _ = svc.query_batch(queries);
                }
            });
        }
    });
    for i in 0..svc.num_shards() {
        let hw = svc.admission_high_water(i);
        assert!(hw >= 1, "shard {i}: batches must have been admitted");
        assert!(
            hw <= 2,
            "shard {i}: admission gate exceeded its bound ({hw})"
        );
    }
}
