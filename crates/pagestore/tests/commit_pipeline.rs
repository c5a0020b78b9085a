//! Exhaustive crash sweep over the *whole* commit pipeline: WAL appends,
//! checkpointer write-back and the commit superblock flip.
//!
//! The store file and the WAL file are minted from one [`FaultDomain`],
//! so they share a single physical-op clock — "crash after op `k`" means
//! op `k` of the *pipeline*, wherever it lands (a WAL append, a WAL
//! fsync, an eviction write-back, a checkpoint slice, a trailer write or
//! the superblock flip itself). The workload ingests records through the
//! durable path the service uses:
//!
//! ```text
//! per record id:   wal.append(id) ; wal.sync()        <- the ack point
//!                  write page[id-1] <- [id; PAGE_SIZE]  (in-cache only)
//!                  catalog["max_id"] = id               (in-cache only)
//! every 2 records: pager.checkpoint_slice(..)          (write-back, no flip)
//!                  pager.try_sync()                     (the flip)
//!                  wal.reset()
//! ```
//!
//! For every op prefix (plus a torn variant of every in-flight write) the
//! run is replayed with a crash at that op, both surviving images are
//! recovered — open the store, replay WAL records with `id >` the
//! store's persisted max — and the combined state must be **exactly one
//! prefix-consistent state**: ids `1..=m` with no holes, `m` at least the
//! highest id acknowledged before the crash point. A second-order sweep
//! then crashes the recovery path itself at every op and requires the
//! doubly-recovered state to equal the cleanly-recovered one.
//!
//! `checkpoint_slice` is driven inline rather than from the background
//! [`Checkpointer`](pagestore::Checkpointer) thread: the thread is just a
//! clock around the same call, and the sweep needs determinism.

use pagestore::{
    FaultConfig, FaultDomain, FaultHandle, FaultStorage, FileId, FileStorage, MemFile, Pager, Wal,
    PAGE_SIZE,
};

const RECORDS: u64 = 6;
const CHECKPOINT_EVERY: u64 = 2;
const STORE_CACHE: usize = 3 * PAGE_SIZE;

fn encode(id: u64) -> Vec<u8> {
    id.to_le_bytes().to_vec()
}

fn decode(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload.try_into().expect("wal payload is one u64 id"))
}

/// Apply one ingested record to the paged state (cache-resident until the
/// next checkpoint): page `id-1` filled with the id byte, catalog max
/// advanced.
fn apply(pager: &Pager, f: FileId, id: u64) {
    while pager.file_len(f) < id {
        pager.allocate_page(f);
    }
    pager.write_page(f, id - 1, &vec![id as u8; PAGE_SIZE]);
    pager.put_catalog("max_id", &id.to_le_bytes());
}

/// The deterministic ingest run. Returns the domain handles for both
/// files, per record id the shared-clock op count at which its WAL fsync
/// returned (the acknowledgement boundary), and the op count at which the
/// store's creation commit finished — the only prefixes allowed to fail
/// recovery outright end before it.
fn run_workload(cfg: FaultConfig) -> (FaultHandle, FaultHandle, Vec<(u64, u64)>, u64) {
    let domain = FaultDomain::new(cfg);
    let (store_file, store_h) = domain.file();
    let (wal_file, wal_h) = domain.file();
    let storage = FileStorage::create_on(Box::new(store_file))
        .expect("in-process create never fails under the fault model");
    let created_at = domain.ops();
    let pager = Pager::with_storage(FaultStorage::wrap(storage, store_h.clone()), STORE_CACHE);
    let f = pager.create_file();
    let mut wal = Wal::create(Box::new(wal_file)).expect("in-process create");

    let mut acks = Vec::new();
    for id in 1..=RECORDS {
        wal.append(&encode(id)).expect("in-process append");
        wal.sync().expect("in-process sync");
        acks.push((domain.ops(), id));
        apply(&pager, f, id);
        if id % CHECKPOINT_EVERY == 0 {
            // Trickle some write-back without a flip first (the
            // checkpointer's slice), then flip, then drop the log.
            pager.checkpoint_slice(1).expect("in-process checkpoint");
            pager.try_sync().expect("in-process commit");
            wal.reset().expect("in-process reset");
        }
    }
    (store_h, wal_h, acks, created_at)
}

/// The recovered logical state: the contiguous id prefix `1..=max_id`.
/// Recovery fails the test if the images decode to anything else.
fn recover(store_image: Vec<u8>, wal_image: Vec<u8>, context: &str) -> u64 {
    let storage = FileStorage::open_image(store_image)
        .unwrap_or_else(|e| panic!("{context}: store image must reopen: {e}"));
    let pager = Pager::with_storage(storage, STORE_CACHE);
    let f = FileId(0);
    let store_max = pager
        .catalog("max_id")
        .map(|v| u64::from_le_bytes(v.try_into().expect("8-byte max_id")))
        .unwrap_or(0);
    // A crash before the first flip leaves a freshly-created store with
    // no files and no catalog at all; everything then lives in the WAL.
    if store_max > 0 {
        assert_eq!(
            pager.file_len(f),
            store_max,
            "{context}: page count and persisted max id must agree"
        );
        let mut buf = vec![0u8; PAGE_SIZE];
        for id in 1..=store_max {
            pager.read_page(f, id - 1, &mut buf);
            assert!(
                buf.iter().all(|&b| b == id as u8),
                "{context}: store page {} holds wrong bytes",
                id - 1
            );
        }
    }

    let (_, records) = Wal::open(Box::new(MemFile::from_bytes(wal_image)))
        .unwrap_or_else(|e| panic!("{context}: wal image must reopen: {e}"));
    let mut max_id = store_max;
    for payload in &records {
        let id = decode(payload);
        // Replay filter: a crash between the checkpoint flip and the WAL
        // reset leaves the log holding records the store already has.
        if id <= store_max {
            continue;
        }
        assert_eq!(
            id,
            max_id + 1,
            "{context}: wal replay must extend the prefix without holes"
        );
        max_id = id;
    }
    max_id
}

#[test]
fn every_pipeline_op_prefix_recovers_one_prefix_consistent_state() {
    // Reference run: no crash. Total op count and ack boundaries.
    let (store_h, wal_h, acks, created_at) = run_workload(FaultConfig::default());
    let total_ops = store_h.ops();
    assert_eq!(total_ops, wal_h.ops(), "handles share one clock");
    assert!(
        total_ops > 30,
        "workload too small to be interesting: {total_ops} ops"
    );
    assert_eq!(
        recover(store_h.disk_image(), wal_h.disk_image(), "reference"),
        RECORDS
    );

    let mut seen_dedup = std::collections::HashSet::new();
    let mut verified = 0u64;
    for k in 0..=total_ops {
        for cfg in [FaultConfig::crash_after(k), FaultConfig::torn(k, 7)] {
            let tear = cfg.tear_bytes;
            let (store_h, wal_h, run_acks, _) = run_workload(cfg);
            assert_eq!(store_h.ops(), total_ops, "workload must be deterministic");
            assert_eq!(run_acks, acks, "ack boundaries must be deterministic");
            let store_image = store_h.disk_image();
            let wal_image = wal_h.disk_image();
            let mut key = store_image.clone();
            key.extend_from_slice(&wal_image);
            if !seen_dedup.insert(fnv(&key)) {
                continue; // identical image pairs (e.g. around reads) verify once
            }
            verified += 1;
            let context = format!("crash after op {k} (tear {tear})");
            let acked = acks
                .iter()
                .filter(|&&(at, _)| at <= k)
                .map(|&(_, id)| id)
                .max()
                .unwrap_or(0);
            if let Err(e) = FileStorage::open_image(store_image.clone()) {
                // Only prefixes that end before the creation commit may
                // fail to open — and by then nothing was acknowledged.
                assert!(
                    k < created_at && acked == 0,
                    "{context}: store must reopen once created (created at op \
                     {created_at}), got: {e}"
                );
                let msg = e.to_string();
                assert!(
                    msg.contains("superblock") || msg.contains("trailer"),
                    "{context}: pre-creation failure must name a structure: {msg}"
                );
                continue;
            }
            let recovered = recover(store_image, wal_image, &context);
            assert!(
                recovered >= acked,
                "{context}: recovered prefix 1..={recovered} loses acknowledged id {acked}"
            );
            assert!(
                recovered <= RECORDS,
                "{context}: recovered prefix 1..={recovered} invents records"
            );
        }
    }
    assert!(
        verified > total_ops / 2,
        "dedup ate too much of the sweep: {verified} of {}",
        2 * (total_ops + 1)
    );
}

/// Fold the WAL into the store the way a real recovery does — replay,
/// checkpoint, flip, reset — under its own fault schedule, and return the
/// resulting pair of images.
fn fold_recovery(
    store_image: Vec<u8>,
    wal_image: Vec<u8>,
    cfg: FaultConfig,
) -> (FaultHandle, FaultHandle) {
    let domain = FaultDomain::new(cfg);
    let (store_file, store_h) = domain.file_from_image(store_image);
    let (wal_file, wal_h) = domain.file_from_image(wal_image);
    let storage = FileStorage::open_on(Box::new(store_file)).expect("recovered store opens");
    let pager = Pager::with_storage(FaultStorage::wrap(storage, store_h.clone()), STORE_CACHE);
    let f = FileId(0);
    let store_max = pager
        .catalog("max_id")
        .map(|v| u64::from_le_bytes(v.try_into().expect("8-byte max_id")))
        .unwrap_or(0);
    let (mut wal, records) = Wal::open(Box::new(wal_file)).expect("recovered wal opens");
    for payload in &records {
        let id = decode(payload);
        if id > store_max {
            apply(&pager, f, id);
        }
    }
    pager.checkpoint_slice(1).expect("in-process checkpoint");
    pager.try_sync().expect("in-process commit");
    wal.reset().expect("in-process reset");
    (store_h, wal_h)
}

#[test]
fn crash_during_recovery_is_also_atomic() {
    // First-order crash: stop mid-run, between an ack and its checkpoint,
    // so the WAL holds records the store does not.
    let (store_h, _, acks, _) = run_workload(FaultConfig::default());
    let total_ops = store_h.ops();
    let crash_at = acks[acks.len() - 1].0; // last ack: id 6 lives only in the WAL
    assert!(crash_at < total_ops);
    let (store_h, wal_h, _, _) = run_workload(FaultConfig::crash_after(crash_at));
    let first_store = store_h.disk_image();
    let first_wal = wal_h.disk_image();
    let before = recover(first_store.clone(), first_wal.clone(), "first-order");
    assert_eq!(before, RECORDS, "the final ack must survive in the WAL");

    // Reference recovery: fold cleanly. The folded store alone now holds
    // the full prefix and the WAL is empty.
    let (clean_store, clean_wal) = fold_recovery(
        first_store.clone(),
        first_wal.clone(),
        FaultConfig::default(),
    );
    let fold_ops = clean_store.ops();
    assert_eq!(
        recover(
            clean_store.disk_image(),
            clean_wal.disk_image(),
            "clean fold"
        ),
        RECORDS
    );

    // Second-order sweep: crash the fold at every op (and a torn variant
    // of every write); recovering the wreckage must yield the same
    // logical prefix — recovery never loses what the first crash kept.
    for k in 0..=fold_ops {
        for cfg in [FaultConfig::crash_after(k), FaultConfig::torn(k, 7)] {
            let tear = cfg.tear_bytes;
            let (store_h, wal_h) = fold_recovery(first_store.clone(), first_wal.clone(), cfg);
            let context = format!("re-crash after fold op {k} (tear {tear})");
            let recovered = recover(store_h.disk_image(), wal_h.disk_image(), &context);
            assert_eq!(
                recovered, RECORDS,
                "{context}: doubly-recovered prefix must match the clean fold"
            );
        }
    }
}

/// FNV-1a over an image pair, for cheap sweep dedup.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
