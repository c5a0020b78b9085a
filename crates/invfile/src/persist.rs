//! Persisting and reopening an [`InvertedFile`] without a rebuild.
//!
//! The list pages live on the pager's storage already; what must survive a
//! restart is the heap-file blob directory plus the vocabulary statistics.
//! [`InvertedFile::persist`] writes them to the storage catalog (key
//! `"invfile"`) and syncs; [`InvertedFile::open`] restores them, after
//! which queries read the same pages in the same order as the freshly
//! built index.

use crate::index::InvertedFile;
use codec::postings::Compression;
use heapfile::HeapFile;
use pagestore::ser::{Reader, Writer};
use pagestore::{Pager, StorageError};

/// Catalog key the inverted-file state is stored under.
pub const CATALOG_KEY: &str = "invfile";

/// * v1 — pre-length-summary format. Still readable: such indexes open
///   and answer every predicate, with superset pruning disabled.
/// * v2 — v1 plus the per-item minimum record lengths appended. Still
///   readable: each list's last id is learned on its first append.
/// * v3 — v2 plus the last posting id of each of the `vocab_size` lists.
const STATE_VERSION: u32 = 3;

impl InvertedFile {
    /// Serialize the non-paged state into the storage catalog and sync the
    /// pager, making the index reopenable via [`InvertedFile::open`].
    pub fn persist(&self) -> Result<(), StorageError> {
        // An index reopened from v1 state has no summaries to write;
        // re-persisting it stays at v1.
        let version = if self.has_length_summaries() {
            STATE_VERSION
        } else {
            1
        };
        self.pager()
            .put_catalog(CATALOG_KEY, &self.state_bytes_versioned(version));
        self.pager().sync()
    }

    /// Serialize at an explicit format version. v1 and v2 stay writable so
    /// the compatibility paths are covered by tests without binary
    /// fixtures.
    pub(crate) fn state_bytes_versioned(&self, version: u32) -> Vec<u8> {
        assert!((1..=STATE_VERSION).contains(&version));
        let mut w = Writer::new();
        w.u32(version);
        w.u64(self.num_records);
        w.u64(self.vocab_size as u64);
        w.u8(self.compression.to_tag());
        w.u64(self.max_id);
        w.u64s(&self.postings_per_item);
        w.bytes(&self.store.state_bytes());
        if version >= 2 {
            w.u32s(&self.min_len_per_item);
        }
        if version >= 3 {
            for &last in &self.last_id_per_item {
                w.opt_u64(last);
            }
        }
        w.into_bytes()
    }

    /// Reopen a persisted index from `pager`'s storage. Returns `None`
    /// when the catalog has no (parsable, version-compatible) entry.
    pub fn open(pager: Pager) -> Option<Self> {
        let state = pager.catalog(CATALOG_KEY)?;
        let mut r = Reader::new(&state);
        let version = r.u32()?;
        if !(1..=STATE_VERSION).contains(&version) {
            return None;
        }
        let num_records = r.u64()?;
        let vocab_size = usize::try_from(r.u64()?).ok()?;
        let compression = Compression::from_tag(r.u8()?)?;
        let max_id = r.u64()?;
        let postings_per_item = r.u64s()?;
        if postings_per_item.len() != vocab_size {
            return None;
        }
        let store = HeapFile::open(pager, r.bytes()?)?;
        let min_len_per_item = if version >= 2 {
            let m = r.u32s()?;
            if m.len() != vocab_size {
                return None;
            }
            m
        } else {
            Vec::new() // pre-summary file: opens fine, pruning stays off
        };
        let mut last_id_per_item = vec![None; vocab_size];
        if version >= 3 {
            for last in &mut last_id_per_item {
                *last = r.opt_u64()?;
            }
        }
        if !r.is_exhausted() {
            return None;
        }
        Some(InvertedFile {
            store,
            postings_per_item,
            min_len_per_item,
            last_id_per_item,
            num_records,
            vocab_size,
            compression,
            max_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::Dataset;

    #[test]
    fn persist_open_round_trips_on_mem_storage() {
        let d = Dataset::paper_fig1();
        let built = InvertedFile::build(&d);
        built.persist().unwrap();
        let reopened = InvertedFile::open(built.pager().clone()).expect("catalog entry");
        assert_eq!(reopened.num_records(), built.num_records());
        assert_eq!(reopened.vocab_size(), built.vocab_size());
        for item in 0..4 {
            assert_eq!(reopened.support(item), built.support(item));
        }
        assert_eq!(reopened.subset(&[0, 3]), vec![101, 104, 114]);
        assert_eq!(reopened.superset(&[0, 2]), vec![106, 113]);
        assert_eq!(reopened.equality(&[0, 3]), vec![114]);
    }

    #[test]
    fn reopened_index_accepts_batch_inserts() {
        // max_id survives the round trip, so the freshness check still
        // guards against stale ids.
        let d = Dataset::paper_fig1();
        let built = InvertedFile::build(&d);
        built.persist().unwrap();
        let mut reopened = InvertedFile::open(built.pager().clone()).unwrap();
        reopened.batch_insert(&[datagen::Record::new(200, vec![0, 3])]);
        assert_eq!(reopened.support(3), built.support(3) + 1);
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut idx = InvertedFile::open(built.pager().clone()).unwrap();
            idx.batch_insert(&[datagen::Record::new(5, vec![0])]);
        }));
        assert!(stale.is_err(), "stale id must still panic after reopen");
    }

    #[test]
    fn v1_state_opens_with_pruning_disabled() {
        let d = Dataset::paper_fig1();
        let built = InvertedFile::build(&d);
        let pager = built.pager().clone();
        pager.put_catalog(CATALOG_KEY, &built.state_bytes_versioned(1));
        let reopened = InvertedFile::open(pager).expect("v1 state must open");
        assert!(!reopened.has_length_summaries());
        assert_eq!(reopened.superset(&[0, 2]), vec![106, 113]);
        // The pruned entry point falls back to the unpruned merge.
        assert_eq!(reopened.superset_pruned(&[0, 2]), vec![106, 113]);
        // Re-persisting the summary-less index stays openable (v1 again).
        reopened.persist().unwrap();
        let again = InvertedFile::open(reopened.pager().clone()).unwrap();
        assert!(!again.has_length_summaries());
    }

    #[test]
    fn min_lengths_survive_round_trip() {
        let d = Dataset::paper_fig1();
        let built = InvertedFile::build(&d);
        built.persist().unwrap();
        let reopened = InvertedFile::open(built.pager().clone()).unwrap();
        assert_eq!(reopened.min_len_per_item, built.min_len_per_item);
        assert!(reopened.has_length_summaries());
        assert_eq!(reopened.superset_pruned(&[0, 2]), vec![106, 113]);
    }

    #[test]
    fn open_without_catalog_entry_is_none() {
        assert!(InvertedFile::open(Pager::new()).is_none());
    }
}
