//! Model-checked concurrency tests for the buffer pool's latch protocols.
//!
//! Compiled only under the `model` cargo feature, which rebuilds the
//! crate's sync layer (`src/sync.rs`) on the `loom` deterministic model
//! checker: every lock acquisition, atomic pin operation and condvar wait
//! becomes a schedule point, and `loom::model` / `loom::Builder` enumerate
//! the interleavings bounded-exhaustively. Run with
//!
//! ```text
//! cargo test -p pagestore --features model --test model
//! ```
//!
//! Each test keeps the concurrent phase tiny (one or two frames, two or
//! three threads) so the bounded-exhaustive search finishes in seconds;
//! all setup runs before the first spawn, which the checker executes as a
//! forced single-threaded prefix.

#![cfg(feature = "model")]

use pagestore::{
    Disk, FileId, PageError, PageId, Pager, PhysPage, Storage, StorageError, PAGE_SIZE,
};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex as StdMutex};

/// A page filled with one byte.
fn pattern(b: u8) -> Vec<u8> {
    vec![b; PAGE_SIZE]
}

/// Run a model at preemption bound 2 and require both that no schedule
/// fails *and* that the bounded search actually completed (a budget-capped
/// pass would be a silent non-result).
fn check_exhaustive(body: impl Fn() + Send + Sync + 'static) {
    let report = loom::Builder::new()
        .preemption_bound(2)
        .check_result(body)
        .unwrap_or_else(|failure| panic!("{failure}"));
    assert!(
        report.exhausted,
        "search hit its schedule budget after {} schedules — shrink the model",
        report.schedules
    );
}

/// Scripted faults shared between a [`ScriptedDisk`] and the test body.
///
/// Deliberately on `std::sync::Mutex`, not the modeled shims: storage
/// calls happen under the pool's policy lock, so the plan is never
/// contended and its locking must not add schedule points.
#[derive(Default)]
struct FaultPlan {
    /// Physical pages that always read back corrupt.
    corrupt: HashSet<PhysPage>,
    /// When set, every `write_phys` fails hard.
    fail_writes: bool,
    /// Every (file, page) → phys translation the pool asked for, so tests
    /// can target faults at logical pages without knowing the layout.
    phys_of: HashMap<(u32, PageId), PhysPage>,
}

/// An in-memory [`Storage`] whose faults are scripted by a [`FaultPlan`].
struct ScriptedDisk {
    inner: Disk,
    plan: Arc<StdMutex<FaultPlan>>,
}

impl ScriptedDisk {
    fn new() -> (Self, Arc<StdMutex<FaultPlan>>) {
        let plan = Arc::new(StdMutex::new(FaultPlan::default()));
        (
            ScriptedDisk {
                inner: Disk::new(),
                plan: plan.clone(),
            },
            plan,
        )
    }
}

impl Storage for ScriptedDisk {
    fn create_file(&mut self) -> FileId {
        self.inner.create_file()
    }
    fn file_count(&self) -> usize {
        self.inner.file_count()
    }
    fn file_len(&self, file: FileId) -> u64 {
        self.inner.file_len(file)
    }
    fn total_pages(&self) -> u64 {
        self.inner.total_pages()
    }
    fn allocate_page(&mut self, file: FileId) -> PageId {
        self.inner.allocate_page(file)
    }
    fn phys(&self, file: FileId, page: PageId) -> PhysPage {
        let phys = self.inner.phys(file, page);
        let mut plan = self.plan.lock().expect("plan lock");
        plan.phys_of.insert((file.0, page), phys);
        phys
    }
    fn read_phys(&mut self, phys: PhysPage, out: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        if self.plan.lock().expect("plan lock").corrupt.contains(&phys) {
            return Err(StorageError::ChecksumMismatch {
                what: format!("physical page {phys}"),
                expected: 1,
                actual: 2,
            });
        }
        self.inner.read_phys(phys, out)
    }
    fn write_phys(&mut self, phys: PhysPage, data: &[u8]) -> Result<(), StorageError> {
        if self.plan.lock().expect("plan lock").fail_writes {
            return Err(StorageError::Io(std::io::Error::other(
                "scripted dead sector",
            )));
        }
        self.inner.write_phys(phys, data)
    }
    fn put_catalog(&mut self, key: &str, bytes: &[u8]) {
        self.inner.put_catalog(key, bytes)
    }
    fn get_catalog(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.get_catalog(key)
    }
    fn catalog_keys(&self) -> Vec<String> {
        self.inner.catalog_keys()
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
}

/// One-frame pager preloaded with page 0 = `0xAA`, page 1 = `0xBB`, both
/// clean on disk and page 1 resident. The single frame makes every access
/// to the other page an eviction decision.
fn tiny_pager() -> (Pager, FileId) {
    let pager = Pager::with_cache_bytes(PAGE_SIZE);
    let f = pager.create_file();
    pager.allocate_page(f);
    pager.allocate_page(f);
    pager.write_page(f, 0, &pattern(0xAA));
    pager.write_page(f, 1, &pattern(0xBB));
    pager.sync().expect("setup sync");
    (pager, f)
}

/// The pool's core latch protocol: a reader pins a frame under its shard's
/// read latch; the evictor re-checks `pin == 0` under the same shard's
/// write latch before recycling. In every interleaving the pinned bytes
/// must stay stable while a concurrent fault forces eviction pressure on
/// the same (single) frame.
#[test]
fn pin_vs_evictor_recheck_holds() {
    check_exhaustive(|| {
        let (pager, f) = tiny_pager();
        let reader = {
            let pager = pager.clone();
            loom::thread::spawn(move || {
                let guard = pager.pin_page(f, 1);
                let first = guard[0];
                loom::thread::yield_now();
                assert_eq!(guard[0], first, "pinned bytes mutated under the guard");
                assert_eq!(first, 0xBB);
            })
        };
        // Fault page 0: the only frame (page 1) is the eviction victim,
        // racing the reader's pin.
        pager.with_page(f, 0, |b| assert_eq!(b[0], 0xAA));
        reader.join().expect("reader");
        // Both pages intact afterwards.
        pager.with_page(f, 1, |b| assert_eq!(b[0], 0xBB));
    });
}

/// Mutation teeth: disabling the evictor's pin re-check (via the
/// `model`-only hook) must make the checker find a failing schedule —
/// deterministically, with a replayable schedule string.
#[test]
fn mutation_disabled_pin_recheck_is_caught() {
    let run = || {
        loom::Builder::new().preemption_bound(2).check_result(|| {
            let (pager, f) = tiny_pager();
            pager.model_break_evictor_pin_recheck();
            let reader = {
                let pager = pager.clone();
                loom::thread::spawn(move || {
                    let guard = pager.pin_page(f, 1);
                    let first = guard[0];
                    loom::thread::yield_now();
                    assert_eq!(guard[0], first, "pinned bytes mutated under the guard");
                    assert_eq!(first, 0xBB);
                })
            };
            pager.with_page(f, 0, |b| assert_eq!(b[0], 0xAA));
            reader.join().expect("reader");
        })
    };

    let failure = run().expect_err("broken re-check must yield a failing schedule");
    assert!(
        !failure.schedule.is_empty(),
        "failure must carry a replayable schedule"
    );

    // Determinism: a second full exploration finds the same schedule with
    // the same diagnosis.
    let again = run().expect_err("second run must fail too");
    assert_eq!(failure.schedule, again.schedule, "search is deterministic");
    assert_eq!(failure.message, again.message);

    // And the recorded schedule replays byte-for-byte to the same failure.
    let replayed = loom::Builder::new()
        .replay(&failure.schedule)
        .check_result(|| {
            let (pager, f) = tiny_pager();
            pager.model_break_evictor_pin_recheck();
            let reader = {
                let pager = pager.clone();
                loom::thread::spawn(move || {
                    let guard = pager.pin_page(f, 1);
                    let first = guard[0];
                    loom::thread::yield_now();
                    assert_eq!(guard[0], first, "pinned bytes mutated under the guard");
                    assert_eq!(first, 0xBB);
                })
            };
            pager.with_page(f, 0, |b| assert_eq!(b[0], 0xAA));
            reader.join().expect("reader");
        })
        .expect_err("replay must reproduce the failure");
    assert_eq!(replayed.message, failure.message);
}

/// Slot recycling vs. stale guards: a guard taken before an eviction keeps
/// serving its original bytes (the pin blocks recycling of that slot), and
/// a fresh pin after dropping it must resolve through the mapping — never
/// through a stale slot whose `version` was bumped for another page.
#[test]
fn version_recycle_vs_stale_guards() {
    check_exhaustive(|| {
        let (pager, f) = tiny_pager();
        let reader = {
            let pager = pager.clone();
            loom::thread::spawn(move || {
                let stale = pager.pin_page(f, 1);
                assert_eq!(stale[0], 0xBB);
                drop(stale);
                // Re-pin races the evictor's unmap/recycle of the same
                // slot: either the mapping still holds page 1, or this
                // faults it back in — both must yield page 1's bytes.
                let fresh = pager.try_pin_page(f, 1).expect("re-pin");
                assert_eq!(fresh[0], 0xBB, "stale slot served after recycle");
            })
        };
        pager.with_page(f, 0, |b| assert_eq!(b[0], 0xAA));
        reader.join().expect("reader");
    });
}

/// Touch-log sequencing: concurrent hits append to per-shard touch logs
/// that are drained later under the policy lock. However the drains
/// interleave, the hit/miss accounting must balance with the accesses
/// actually made.
#[test]
fn touch_log_sequencing_keeps_stats_balanced() {
    check_exhaustive(|| {
        // Two frames so both pages stay resident: every concurrent access
        // below is a hit, whatever order the touch logs drain in.
        let pager = Pager::with_cache_bytes(2 * PAGE_SIZE);
        let f = pager.create_file();
        pager.allocate_page(f);
        pager.allocate_page(f);
        pager.write_page(f, 0, &pattern(0xAA));
        pager.write_page(f, 1, &pattern(0xBB));
        pager.reset_stats();

        let t = {
            let pager = pager.clone();
            loom::thread::spawn(move || {
                pager.with_page(f, 0, |b| assert_eq!(b[0], 0xAA));
                pager.with_page(f, 1, |b| assert_eq!(b[0], 0xBB));
            })
        };
        pager.with_page(f, 1, |b| assert_eq!(b[0], 0xBB));
        pager.with_page(f, 0, |b| assert_eq!(b[0], 0xAA));
        t.join().expect("toucher");

        let stats = pager.stats();
        assert_eq!(stats.hits, 4, "4 accesses of resident pages, all hits");
        assert_eq!(stats.misses(), 0, "nothing was evicted or faulted");
    });
}

/// Quarantine insert vs. concurrent readers: when a page reads back
/// corrupt, every concurrent reader of it gets [`PageError::Corrupt`]
/// (whoever loses the install race hits the fresh quarantine entry), a
/// healthy page keeps reading fine, and the quarantine stays sticky.
#[test]
fn quarantine_insert_vs_concurrent_readers() {
    check_exhaustive(|| {
        let (disk, plan) = ScriptedDisk::new();
        let pager = Pager::with_storage(disk, PAGE_SIZE);
        let f = pager.create_file();
        pager.allocate_page(f);
        pager.allocate_page(f);
        pager.write_page(f, 0, &pattern(0xAA));
        pager.write_page(f, 1, &pattern(0xBB));
        pager.sync().expect("setup sync");
        // Page 1 is resident; page 0 lives only on disk. Rot page 0.
        {
            let mut p = plan.lock().expect("plan lock");
            let phys = p.phys_of[&(f.0, 0)];
            p.corrupt.insert(phys);
        }

        let reader = {
            let pager = pager.clone();
            loom::thread::spawn(move || {
                let mut buf = vec![0u8; PAGE_SIZE];
                let err = pager
                    .try_read_page(f, 0, &mut buf)
                    .expect_err("corrupt page must not read");
                assert!(matches!(err, PageError::Corrupt { .. }), "got {err:?}");
            })
        };
        // Race a second reader of the corrupt page plus one of a healthy
        // page against the quarantine insert.
        let mut buf = vec![0u8; PAGE_SIZE];
        let err = pager
            .try_read_page(f, 0, &mut buf)
            .expect_err("corrupt page must not read");
        assert!(matches!(err, PageError::Corrupt { .. }), "got {err:?}");
        pager
            .try_read_page(f, 1, &mut buf)
            .expect("healthy page reads");
        assert_eq!(buf[0], 0xBB);
        reader.join().expect("reader");

        // Sticky: the quarantine fails fast without another disk read.
        let err = pager.try_read_page(f, 0, &mut buf).expect_err("sticky");
        assert!(matches!(err, PageError::Corrupt { .. }));
    });
}

/// The degraded read-only flip vs. in-flight writes: once a write-back
/// fails, the pool flips to read-only. Concurrent mutations must each
/// either complete in-cache or fail with [`PageError::ReadOnly`] — never
/// panic, never lose the degraded flag — and reads keep serving.
#[test]
fn degraded_flip_vs_inflight_writes() {
    check_exhaustive(|| {
        let (disk, plan) = ScriptedDisk::new();
        let pager = Pager::with_storage(disk, PAGE_SIZE);
        let f = pager.create_file();
        pager.allocate_page(f);
        pager.allocate_page(f);
        // Page 0 is resident and dirty; from here every write fails.
        pager.write_page(f, 0, &pattern(0xAA));
        plan.lock().expect("plan lock").fail_writes = true;

        let writer = {
            let pager = pager.clone();
            loom::thread::spawn(move || {
                // In-place overwrite of the resident dirty page: stays in
                // cache, so it succeeds unless the pool already degraded.
                match pager.try_write_page(f, 0, &pattern(0xA1)) {
                    Ok(()) | Err(PageError::ReadOnly { .. }) => {}
                    Err(other) => panic!("unexpected write error: {other:?}"),
                }
            })
        };
        // Faulting page 1 must evict dirty page 0 → failed write-back →
        // degraded flip (the triggering access itself may still complete
        // in-cache).
        match pager.try_write_page(f, 1, &pattern(0xBB)) {
            Ok(()) | Err(PageError::ReadOnly { .. }) => {}
            Err(other) => panic!("unexpected write error: {other:?}"),
        }
        writer.join().expect("writer");

        // The flip happened in every interleaving, it is sticky, and reads
        // still serve (from cache; the medium refuses nothing on reads).
        assert!(pager.degraded().is_some(), "failed write-back must degrade");
        let err = pager
            .try_write_page(f, 0, &pattern(0xA2))
            .expect_err("degraded pool refuses mutations");
        assert!(matches!(err, PageError::ReadOnly { .. }), "got {err:?}");
        let mut buf = vec![0u8; PAGE_SIZE];
        pager
            .try_read_page(f, 0, &mut buf)
            .expect("reads keep serving in degraded mode");
        assert_ne!(buf[0], 0, "page 0 still serves its last written bytes");
    });
}
