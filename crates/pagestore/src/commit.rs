//! The background checkpointer.
//!
//! A shadow-paged commit ([`FileStorage::sync`](crate::FileStorage)) costs
//! two device flushes no matter how little changed, and the pool's
//! [`sync`](crate::BufferPool::sync) stalls its caller while the whole
//! dirty set flushes. A [`Checkpointer`] is a **background thread** that
//! trickles dirty frames to the medium in bounded slices
//! ([`BufferPool::checkpoint_slice`](crate::BufferPool::checkpoint_slice)),
//! so the eventual commit flip finds an almost-clean pool and the
//! foreground `sync` has little left to write. It shuts down cleanly
//! (signal + join) and hands off to degraded read-only mode if the medium
//! dies mid-checkpoint: the thread parks itself, records the cause, and
//! leaves the pool serving reads.
//!
//! It is not wired up by default: a plain [`Pager`](crate::Pager) on
//! [`MemStorage`](crate::MemStorage) behaves exactly as before (the golden
//! page gates depend on it). The checkpointer engages only through
//! [`Pager::start_checkpointer`](crate::Pager::start_checkpointer).

// The checkpointer drives a real OS thread on a timer, which the loom
// model cannot (and need not) schedule — under the `model` feature it is
// compiled out entirely, keeping model builds free of non-deterministic
// actors.
#[cfg(not(feature = "model"))]
pub use real_checkpointer::{Checkpointer, CheckpointerConfig};

#[cfg(not(feature = "model"))]
mod real_checkpointer {
    use crate::cache::BufferPool;
    use crate::error::PageError;
    use std::sync::Arc;
    // std sync on purpose (not the crate facade): the tick loop needs
    // `wait_timeout`, which the facade deliberately omits — a timed wait
    // is not a schedulable model step. This module never builds under
    // the `model` feature, so nothing escapes the checker's coverage.
    use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};
    use std::time::Duration;

    /// Tuning for a [`Checkpointer`] thread.
    #[derive(Debug, Clone)]
    pub struct CheckpointerConfig {
        /// Sleep between checkpoint slices (a `kick` cuts it short).
        pub interval: Duration,
        /// Max dirty frames flushed per slice — bounds how long the
        /// policy lock is held away from foreground traffic.
        pub slice_pages: usize,
    }

    impl Default for CheckpointerConfig {
        fn default() -> Self {
            CheckpointerConfig {
                interval: Duration::from_millis(10),
                slice_pages: 16,
            }
        }
    }

    #[derive(Default)]
    struct Signal {
        stop: bool,
        kicks: u64,
    }

    struct Shared {
        signal: StdMutex<Signal>,
        cv: StdCondvar,
        /// Set exactly once, when the thread parks after the medium died
        /// mid-checkpoint (the degraded handoff).
        stopped_cause: StdMutex<Option<Arc<str>>>,
    }

    /// Handle to a background checkpointing thread. See the module docs;
    /// dropping the handle shuts the thread down cleanly (signal + join).
    pub struct Checkpointer {
        shared: Arc<Shared>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Checkpointer {
        /// Spawn a checkpointer over `pool`. The pool keeps working if
        /// the handle is leaked, but the thread only stops via the
        /// handle ([`shutdown`](Checkpointer::shutdown) or drop).
        pub fn spawn(pool: Arc<BufferPool>, cfg: CheckpointerConfig) -> Self {
            let shared = Arc::new(Shared {
                signal: StdMutex::new(Signal::default()),
                cv: StdCondvar::new(),
                stopped_cause: StdMutex::new(None),
            });
            let thread_shared = shared.clone();
            let thread = std::thread::Builder::new()
                .name("pagestore-checkpointer".into())
                .spawn(move || run(pool, cfg, thread_shared))
                .expect("spawn checkpointer thread");
            Checkpointer {
                shared,
                thread: Some(thread),
            }
        }

        /// Wake the thread for an immediate slice (tests; ingest bursts).
        pub fn kick(&self) {
            let mut s = self.shared.signal.lock().expect("checkpointer signal lock");
            s.kicks += 1;
            drop(s);
            self.shared.cv.notify_all();
        }

        /// `Some(cause)` once the thread parked itself because the pool
        /// degraded mid-checkpoint.
        pub fn stopped_cause(&self) -> Option<Arc<str>> {
            self.shared
                .stopped_cause
                .lock()
                .expect("checkpointer cause lock")
                .clone()
        }

        /// Signal the thread and join it. Pending dirty frames simply
        /// stay dirty — the next `sync` flushes them; no
        /// durability is lost by stopping the trickle.
        pub fn shutdown(mut self) {
            self.stop_and_join();
        }

        fn stop_and_join(&mut self) {
            if let Some(handle) = self.thread.take() {
                {
                    let mut s = self.shared.signal.lock().expect("checkpointer signal lock");
                    s.stop = true;
                }
                self.shared.cv.notify_all();
                let _ = handle.join();
            }
        }
    }

    impl Drop for Checkpointer {
        fn drop(&mut self) {
            self.stop_and_join();
        }
    }

    fn run(pool: Arc<BufferPool>, cfg: CheckpointerConfig, shared: Arc<Shared>) {
        let mut seen_kicks = 0u64;
        loop {
            {
                let mut s = shared.signal.lock().expect("checkpointer signal lock");
                // Sleep one interval, cut short by a stop or a kick.
                let deadline = std::time::Instant::now() + cfg.interval;
                while !s.stop && s.kicks == seen_kicks {
                    let left = deadline.saturating_duration_since(std::time::Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let (next, timeout) = shared
                        .cv
                        .wait_timeout(s, left)
                        .expect("checkpointer signal lock");
                    s = next;
                    if timeout.timed_out() {
                        break;
                    }
                }
                if s.stop {
                    return;
                }
                seen_kicks = s.kicks;
            }
            match pool.checkpoint_slice(cfg.slice_pages) {
                Ok(_) => {}
                Err(PageError::ReadOnly { cause }) => {
                    // Degraded handoff: the medium refused a write-back
                    // (the slice already flipped the pool read-only).
                    // Park for good; reads keep serving, the cause is
                    // observable on the handle and on the pool.
                    *shared
                        .stopped_cause
                        .lock()
                        .expect("checkpointer cause lock") = Some(cause);
                    return;
                }
                // Any other error shape is unexpected from a pure
                // write-back path; treat it like a degraded stop rather
                // than hot-looping on a broken medium.
                Err(e) => {
                    *shared
                        .stopped_cause
                        .lock()
                        .expect("checkpointer cause lock") =
                        Some(Arc::from(e.to_string().as_str()));
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[cfg(not(feature = "model"))]
    use super::*;

    #[test]
    fn single_committer_leads_its_own_flush() {
        use crate::{FileStorage, MemFile, Pager, PAGE_SIZE};
        let pager = Pager::with_storage(
            FileStorage::create_on(Box::new(MemFile::new())).expect("create"),
            8 * PAGE_SIZE,
        );
        let f = pager.create_file();
        pager.allocate_page(f);
        pager.write_page(f, 0, &[7u8; PAGE_SIZE]);
        let before = pager.durable_epoch();
        let epoch = pager.group_sync().expect("commit");
        assert!(epoch > before, "the commit flips to a new epoch");
        assert_eq!(epoch, pager.durable_epoch());
        assert_eq!(pager.stats().synced_pages, 1);
    }

    #[test]
    fn failure_is_sticky_until_reset() {
        use crate::{FaultConfig, FaultStorage, PageError, Pager, PAGE_SIZE};
        let (storage, faults) = FaultStorage::create(FaultConfig::default()).expect("create");
        let pager = Pager::with_storage(storage, 8 * PAGE_SIZE);
        let f = pager.create_file();
        pager.allocate_page(f);
        pager.write_page(f, 0, &[1u8; PAGE_SIZE]);
        // The next storage operation — the page write-back — fails.
        faults.set_fault_config(FaultConfig {
            transient_writes: vec![faults.ops()],
            ..FaultConfig::default()
        });
        let err = pager.group_sync().expect_err("write-back must fail");
        assert!(matches!(err, PageError::ReadOnly { .. }), "got {err:?}");
        // The degraded pool refuses the next commit without touching
        // storage, although the medium would now accept the write.
        let ops = faults.ops();
        let err = pager.group_sync().expect_err("degraded pool refuses");
        assert!(matches!(err, PageError::ReadOnly { .. }), "got {err:?}");
        assert_eq!(faults.ops(), ops, "no write reached storage");
        assert!(pager.clear_degraded());
        assert!(!pager.clear_degraded());
        let epoch = pager.group_sync().expect("healed");
        assert_eq!(epoch, pager.durable_epoch());
        assert!(faults.ops() > ops, "the healed commit wrote");
    }

    #[cfg(not(feature = "model"))]
    #[test]
    fn checkpointer_trickles_and_shuts_down_cleanly() {
        use crate::{BufferPool, FileStorage, IoCostModel, Pager, PAGE_SIZE};
        let pool = BufferPool::new(
            FileStorage::create_on(Box::new(crate::MemFile::new())).expect("create"),
            64 * PAGE_SIZE,
            IoCostModel::default(),
        );
        let pager = Pager::with_pool(pool);
        let f = pager.create_file();
        let mut page = vec![0u8; PAGE_SIZE];
        for p in 0..16 {
            pager.allocate_page(f);
            page.fill(p as u8 + 1);
            pager.write_page(f, p, &page);
        }
        let ckpt = pager.start_checkpointer(CheckpointerConfig {
            interval: std::time::Duration::from_secs(3600), // only kicks tick it
            slice_pages: 4,
        });
        for _ in 0..10 {
            ckpt.kick();
            if pager.stats().checkpoint_pages >= 16 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(
            pager.stats().checkpoint_pages >= 16,
            "checkpointer must flush all dirty frames, got {}",
            pager.stats().checkpoint_pages
        );
        assert!(ckpt.stopped_cause().is_none());
        // shutdown joins; a hang here fails the test by timeout.
        ckpt.shutdown();
        // The trickled pages become durable at the next commit flip.
        pager.sync().expect("sync after checkpoint");
        let d = pager.stats();
        assert_eq!(d.synced_pages, 0, "nothing left dirty for the stall flush");
    }
}
