//! I/O counters mirroring what the paper reports from Berkeley DB.

use std::time::Duration;

/// Snapshot of the buffer pool's I/O activity.
///
/// The paper's primary metric is *disk page accesses*, i.e. cache misses
/// ([`IoStats::misses`]); its time plots additionally split query latency
/// into I/O time (here, simulated by the [`IoCostModel`](crate::IoCostModel))
/// and CPU time (measured by the harness).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests served from the cache.
    pub hits: u64,
    /// Cache misses whose physical page immediately follows the previously
    /// fetched physical page — a sequential disk read.
    pub seq_misses: u64,
    /// All other cache misses — random disk reads (seeks).
    pub random_misses: u64,
    /// Pages written back to the disk.
    pub writes: u64,
    /// Pages flushed by [`Pager::sync`](crate::Pager::sync) specifically
    /// (a subset of [`IoStats::writes`], which also counts eviction
    /// write-backs). Lets tests and the sync bench assert the cost of a
    /// durability barrier in pages…
    pub synced_pages: u64,
    /// …and in bytes (`synced_pages * PAGE_SIZE`, kept separately so the
    /// report stays meaningful if page size ever varies).
    pub synced_bytes: u64,
    /// Transient page-fault read errors absorbed by the retry policy
    /// (each counted retry re-issued the read after a backoff sleep).
    /// Always zero on a healthy medium — the fault-injection gate uses
    /// this to prove retries actually happened.
    pub retries: u64,
    /// Records appended to a write-ahead log attached to this pool's
    /// pager (see [`Wal`](crate::Wal)), reported via
    /// [`note_wal`](crate::Pager::note_wal).
    pub wal_appends: u64,
    /// Payload bytes appended to the WAL (excluding per-record framing).
    pub wal_bytes: u64,
    /// Durability barriers issued: one per successful storage `sync`
    /// (a shadow-paged commit internally performs two device flushes,
    /// counted here as one barrier) plus every WAL fsync reported via
    /// `note_wal`.
    pub fsyncs: u64,
    /// Dirty pages flushed by the background checkpointer (a subset of
    /// [`IoStats::writes`]; disjoint from [`IoStats::synced_pages`],
    /// which counts only the stop-the-world flush inside `sync`).
    pub checkpoint_pages: u64,
    /// Simulated I/O time accumulated by the cost model.
    pub io_time: Duration,
}

impl IoStats {
    /// Total cache misses = the paper's "disk page accesses".
    pub fn misses(&self) -> u64 {
        self.seq_misses + self.random_misses
    }

    /// Total page requests.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses()
    }

    /// Difference between two snapshots (`self` taken after `earlier`).
    ///
    /// Snapshot discipline: both snapshots must come from the same
    /// uninterrupted counting run — if
    /// [`reset_stats`](crate::Pager::reset_stats) was called between them,
    /// `self`'s counters restart from zero and can be *smaller* than
    /// `earlier`'s. Such inverted pairs carry no meaningful delta, so each
    /// field saturates to zero rather than underflowing (which used to
    /// panic in debug profiles and wrap in release).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            hits: self.hits.saturating_sub(earlier.hits),
            seq_misses: self.seq_misses.saturating_sub(earlier.seq_misses),
            random_misses: self.random_misses.saturating_sub(earlier.random_misses),
            writes: self.writes.saturating_sub(earlier.writes),
            synced_pages: self.synced_pages.saturating_sub(earlier.synced_pages),
            synced_bytes: self.synced_bytes.saturating_sub(earlier.synced_bytes),
            retries: self.retries.saturating_sub(earlier.retries),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            fsyncs: self.fsyncs.saturating_sub(earlier.fsyncs),
            checkpoint_pages: self
                .checkpoint_pages
                .saturating_sub(earlier.checkpoint_pages),
            io_time: self.io_time.saturating_sub(earlier.io_time),
        }
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            hits: self.hits + rhs.hits,
            seq_misses: self.seq_misses + rhs.seq_misses,
            random_misses: self.random_misses + rhs.random_misses,
            writes: self.writes + rhs.writes,
            synced_pages: self.synced_pages + rhs.synced_pages,
            synced_bytes: self.synced_bytes + rhs.synced_bytes,
            retries: self.retries + rhs.retries,
            wal_appends: self.wal_appends + rhs.wal_appends,
            wal_bytes: self.wal_bytes + rhs.wal_bytes,
            fsyncs: self.fsyncs + rhs.fsyncs,
            checkpoint_pages: self.checkpoint_pages + rhs.checkpoint_pages,
            io_time: self.io_time + rhs.io_time,
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} misses ({} seq, {} rand), {} hits, {} writes ({} synced, {} ckpt), \
             {} fsyncs, {} wal appends ({} B), io {:?}",
            self.misses(),
            self.seq_misses,
            self.random_misses,
            self.hits,
            self.writes,
            self.synced_pages,
            self.checkpoint_pages,
            self.fsyncs,
            self.wal_appends,
            self.wal_bytes,
            self.io_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fields() {
        let a = IoStats {
            hits: 10,
            seq_misses: 5,
            random_misses: 3,
            writes: 2,
            io_time: Duration::from_millis(40),
            ..IoStats::default()
        };
        let b = IoStats {
            hits: 4,
            seq_misses: 1,
            random_misses: 2,
            writes: 0,
            io_time: Duration::from_millis(16),
            ..IoStats::default()
        };
        let d = a.since(&b);
        assert_eq!(d.hits, 6);
        assert_eq!(d.misses(), 5);
        assert_eq!(d.io_time, Duration::from_millis(24));
    }

    #[test]
    fn since_saturates_after_reset_between_snapshots() {
        // `earlier` taken before a reset_stats, `later` after: every later
        // counter restarted and is smaller. The delta must be zero, not an
        // underflow panic (debug) or a wrapped huge count (release).
        let earlier = IoStats {
            hits: 10,
            seq_misses: 5,
            random_misses: 3,
            writes: 2,
            io_time: Duration::from_millis(40),
            ..IoStats::default()
        };
        let later = IoStats {
            hits: 1,
            seq_misses: 0,
            random_misses: 1,
            writes: 0,
            io_time: Duration::from_millis(2),
            ..IoStats::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d, IoStats::default());
    }

    #[test]
    fn commit_pipeline_counters_flow_through_since_and_add() {
        let earlier = IoStats {
            wal_appends: 2,
            wal_bytes: 64,
            fsyncs: 3,
            checkpoint_pages: 5,
            ..IoStats::default()
        };
        let later = IoStats {
            wal_appends: 7,
            wal_bytes: 200,
            fsyncs: 10,
            checkpoint_pages: 6,
            ..IoStats::default()
        };
        let d = later.since(&earlier);
        assert_eq!(
            (d.wal_appends, d.wal_bytes, d.fsyncs, d.checkpoint_pages),
            (5, 136, 7, 1)
        );
        let s = later.clone() + earlier;
        assert_eq!(
            (s.wal_appends, s.wal_bytes, s.fsyncs, s.checkpoint_pages),
            (9, 264, 13, 11)
        );
        let shown = format!("{later}");
        assert!(shown.contains("10 fsyncs") && shown.contains("7 wal appends"));
    }

    #[test]
    fn add_accumulates() {
        let a = IoStats {
            hits: 1,
            seq_misses: 2,
            random_misses: 3,
            writes: 4,
            io_time: Duration::from_micros(5),
            ..IoStats::default()
        };
        let s = a.clone() + a;
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses(), 10);
        assert_eq!(s.accesses(), 12);
    }
}
