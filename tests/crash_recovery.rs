//! Workspace-level crash-recovery harness: fault injection under a real
//! index.
//!
//! The workload is the paper's maintenance story end to end — build an
//! inverted file on the durable backend, `persist` it (commit), run two
//! §4.4-style `batch_insert` rounds each followed by `persist` — driven
//! over a `FileStorage` whose physical I/O goes through a
//! [`FaultFile`](set_containment::pagestore::fault::FaultFile). The
//! reference run records, for every committed snapshot, the *query
//! fingerprint*: answers **and per-query sequential/random page-access
//! counts** (the PR 3 reopen-equivalence machinery) measured on a clean
//! reopen of that snapshot's frozen image.
//!
//! Then, for **every** physical-I/O-op prefix of the run (plus a torn
//! variant of each in-flight write), the workload is replayed with a
//! crash at that op and the frozen image is reopened: the recovered index
//! must reproduce exactly one committed fingerprint bit for bit — or be
//! the empty pre-first-persist storage — and a further
//! `batch_insert` + `persist` from the recovered state must succeed.
//!
//! A second leg sweeps the same contract over a workload whose lists
//! *overflow their heap runs* between two `persist`s: a list is moved to a
//! larger run and the run it vacated is reused by another list within the
//! same epoch — the in-place page writes a crash must never let through.

use set_containment::datagen::{Dataset, QueryKind, Record, SyntheticSpec, WorkloadSpec};
use set_containment::invfile::InvertedFile;
use set_containment::pagestore::{FaultConfig, FaultHandle, FaultStorage, FileStorage, Pager};

/// One sweep input: a base dataset, the batches applied between
/// consecutive `persist`s (one inner vec per epoch), and the queries whose
/// answers and page counts fingerprint each committed state.
struct Leg {
    dataset: Dataset,
    epochs: Vec<Vec<Vec<Record>>>,
    queries: Vec<Vec<u32>>,
}

/// The paper's maintenance story at small scale: two §4.4-style batches,
/// each followed by a `persist`.
fn maintenance_leg() -> Leg {
    // Deliberately small: the exhaustive sweep replays the whole workload
    // once per I/O op, so op count × build cost must stay CI-friendly.
    let dataset = SyntheticSpec {
        num_records: 120,
        vocab_size: 40,
        zipf: 0.8,
        len_min: 2,
        len_max: 10,
        seed: 97,
    }
    .generate();
    // Two batches of fresh records (ids above the base dataset's).
    let base = dataset.records.len() as u64;
    let make = |start: u64, n: u64, stride: u32| -> Vec<Record> {
        (0..n)
            .map(|i| {
                let a = (i as u32 * stride) % 40;
                let b = (a + 3) % 40;
                let c = (a + 11) % 40;
                Record::new(start + i, vec![a, b, c])
            })
            .collect()
    };
    let epochs = vec![vec![make(base, 10, 7)], vec![make(base + 10, 10, 13)]];
    let mut queries = WorkloadSpec {
        kind: QueryKind::Subset,
        qs_size: 3,
        count: 4,
        seed: 5,
    }
    .generate(&dataset)
    .queries;
    // Plus queries the inserted batches answer, so each commit's
    // fingerprint actually differs.
    queries.push(vec![0, 3, 11]);
    queries.push(vec![7, 10, 18]);
    Leg {
        dataset,
        epochs,
        queries,
    }
}

/// Lists that outgrow their runs between two `persist`s. Every base
/// record holds item 0 (id stride 200 makes each posting 3 bytes), so its
/// list ends a few bytes short of a page; items 10 and 11 occur nowhere.
/// Epoch one: a batch pushes list 0 over the page (moved to a 3-page run,
/// its page vacated), then — same epoch — item 10's first posting takes
/// the vacated page. Epoch two appends to both in place and starts list
/// 11 on a fresh page.
fn relocation_leg() -> Leg {
    let records = (0..1362u64)
        .map(|i| Record::new(200 * i, vec![0, 1 + (i % 9) as u32]))
        .collect();
    let dataset = Dataset {
        records,
        vocab_size: 12,
    };
    let grow = |start: u64, n: u64, with: u32| -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(start + 7 * i, vec![0, with]))
            .collect()
    };
    let epochs = vec![
        vec![grow(300_000, 6, 3), vec![Record::new(300_100, vec![0, 10])]],
        vec![
            grow(300_200, 4, 10),
            vec![Record::new(300_300, vec![3, 11])],
        ],
    ];
    let queries = vec![vec![0, 3], vec![0, 10], vec![3, 11], vec![1], vec![0]];
    Leg {
        dataset,
        epochs,
        queries,
    }
}

/// Answers and per-query (seq, random) page-access counts, measured with
/// the golden harness's protocol (cache dropped once, stats reset per
/// query) — the "bit-for-bit" fingerprint of one committed state.
type Fingerprint = Vec<(Vec<u64>, u64, u64)>;

fn fingerprint(idx: &InvertedFile, qs: &[Vec<u32>]) -> Fingerprint {
    let pager = idx.pager();
    pager.clear_cache();
    qs.iter()
        .map(|q| {
            pager.reset_stats();
            let mut answers = idx.subset(q);
            answers.sort_unstable();
            let s = pager.stats();
            (answers, s.seq_misses, s.random_misses)
        })
        .collect()
}

/// The deterministic workload. Returns the fault handle and the op count
/// observed right after `create` and after each `persist` (the build's,
/// then one per epoch).
fn run_workload(leg: &Leg, cfg: FaultConfig) -> (FaultHandle, Vec<u64>) {
    let (storage, handle) = FaultStorage::create(cfg).expect("create succeeds in-process");
    let mut commits = vec![handle.ops()];
    let pager = Pager::with_storage(storage, 32 * 1024);
    let mut idx = InvertedFile::builder(&leg.dataset).pager(pager).build();
    idx.persist().expect("in-process persist always succeeds");
    commits.push(handle.ops());
    for epoch in &leg.epochs {
        for batch in epoch {
            idx.batch_insert(batch);
        }
        idx.persist().expect("in-process persist always succeeds");
        commits.push(handle.ops());
    }
    (handle, commits)
}

/// Open a frozen image and fingerprint the index on it; `None` when the
/// image holds no persisted index (the pre-first-persist empty storage).
fn recover(image: Vec<u8>, qs: &[Vec<u32>]) -> Option<Fingerprint> {
    let storage = FileStorage::open_image(image).ok()?;
    let pager = Pager::with_storage(storage, 32 * 1024);
    let idx = InvertedFile::open(pager)?;
    Some(fingerprint(&idx, qs))
}

#[test]
fn every_io_op_prefix_recovers_a_committed_index_bit_for_bit() {
    sweep(&maintenance_leg());
}

#[test]
fn relocation_and_vacated_run_reuse_recover_a_committed_index_bit_for_bit() {
    // The leg must do what its name says, or the sweep proves nothing:
    // on a plain in-memory pager, epoch one's first batch moves list 0
    // (file grows by the 3-page run) and its second batch fits item 10's
    // new list into the vacated page (file does not grow).
    let leg = relocation_leg();
    let mut idx = InvertedFile::build(&leg.dataset);
    let built = idx.bytes_on_disk();
    idx.batch_insert(&leg.epochs[0][0]);
    assert_eq!(
        idx.bytes_on_disk(),
        built + 3 * 4096,
        "list 0 must relocate"
    );
    idx.batch_insert(&leg.epochs[0][1]);
    assert_eq!(
        idx.bytes_on_disk(),
        built + 3 * 4096,
        "vacated run must be reused"
    );
    sweep(&leg);
}

/// Crash at every physical-I/O-op prefix of `leg`'s workload (plus a torn
/// variant of each in-flight write) and check the recovery contract.
fn sweep(leg: &Leg) {
    let qs = &leg.queries;

    // Reference run: harvest each committed snapshot's image and
    // fingerprint it through a clean reopen.
    let (handle, commits) = run_workload(leg, FaultConfig::default());
    let total_ops = handle.ops();
    assert!(total_ops > 20, "degenerate workload: {total_ops} ops");
    let mut snapshots: Vec<Option<Fingerprint>> = Vec::new();
    for &at in &commits {
        let (h, _) = run_workload(leg, FaultConfig::crash_after(at));
        snapshots.push(recover(h.disk_image(), qs));
    }
    assert!(
        snapshots[0].is_none(),
        "the create-boundary snapshot holds no index yet"
    );
    let committed: Vec<&Fingerprint> = snapshots.iter().flatten().collect();
    assert_eq!(committed.len(), 1 + leg.epochs.len());
    // Each batch_insert must change some answer, or "matches exactly one
    // snapshot" proves nothing.
    for w in committed.windows(2) {
        assert_ne!(w[0], w[1], "consecutive commits must differ in answers");
    }

    let first_persist = commits[1];
    let mut seen = std::collections::HashSet::new();
    for k in 0..=total_ops {
        for cfg in [FaultConfig::crash_after(k), FaultConfig::torn(k, 9)] {
            let tear = cfg.tear_bytes;
            let (h, _) = run_workload(leg, cfg);
            assert_eq!(h.ops(), total_ops, "workload must be deterministic");
            let image = h.disk_image();
            if !seen.insert(fnv(&image)) {
                continue; // identical image already verified
            }

            // 1. Once any epoch committed, the image must open.
            let storage = match FileStorage::open_image(image.clone()) {
                Ok(s) => s,
                Err(e) => {
                    assert!(
                        k < commits[0],
                        "crash after op {k} (tear {tear}): open must succeed after the \
                         create commit (op {}), got: {e}",
                        commits[0]
                    );
                    continue;
                }
            };

            // 2. The recovered index is exactly one committed snapshot —
            //    answers AND per-query page counts, bit for bit — or the
            //    empty pre-persist storage (only before the first persist
            //    completed).
            let pager = Pager::with_storage(storage, 32 * 1024);
            match InvertedFile::open(pager) {
                None => assert!(
                    k < first_persist,
                    "crash after op {k} (tear {tear}): an index must be recoverable \
                     once the first persist (op {first_persist}) committed"
                ),
                Some(idx) => {
                    let got = fingerprint(&idx, qs);
                    assert!(
                        committed.iter().any(|snap| **snap == got),
                        "crash after op {k} (tear {tear}): recovered fingerprint \
                         matches no committed snapshot"
                    );
                }
            }

            // 3. The recovered state accepts further mutation + persist.
            let storage = FileStorage::open_image(image).expect("reopens");
            let pager = Pager::with_storage(storage, 32 * 1024);
            match InvertedFile::open(pager.clone()) {
                Some(mut idx) => {
                    let next_id = 1_000_000;
                    idx.batch_insert(&[Record::new(next_id, vec![1, 2])]);
                    idx.persist()
                        .unwrap_or_else(|e| panic!("post-recovery persist after op {k}: {e}"));
                }
                None => {
                    pager.put_catalog("note", b"recovered-empty");
                    pager
                        .sync()
                        .unwrap_or_else(|e| panic!("post-recovery sync after op {k}: {e}"));
                }
            }
        }
    }
}

/// FNV-1a over an image, for sweep dedup.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
