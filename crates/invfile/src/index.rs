//! The inverted-file structure and its bookkeeping.

use codec::postings::{Compression, Posting, PostingsDecoder, PostingsEncoder};
use datagen::{Dataset, ItemId, Record};
use heapfile::HeapFile;
use pagestore::{PageError, Pager};

/// A disk-resident classic inverted file over a set-valued database.
pub struct InvertedFile {
    pub(crate) store: HeapFile,
    /// Number of postings per item (memory-resident vocabulary statistics).
    pub(crate) postings_per_item: Vec<u64>,
    /// Minimum record length per item's list (`u32::MAX` for empty lists)
    /// — the IF-grade length summary: a whole list whose shortest record
    /// exceeds `|qs|` is skipped by the pruned superset path without
    /// fetching a single page. Empty when reopened from pre-summary (v1)
    /// state, which disables pruning.
    pub(crate) min_len_per_item: Vec<u32>,
    /// Id of the last posting of each item's list — all an append needs to
    /// know of the list, since a d-gap depends only on its predecessor.
    /// `None` for an empty list, and for every list of an index reopened
    /// from pre-v3 state until its first append learns it by one decode.
    pub(crate) last_id_per_item: Vec<Option<u64>>,
    pub(crate) num_records: u64,
    pub(crate) vocab_size: usize,
    pub(crate) compression: Compression,
    /// Highest record id seen, for append-style updates.
    pub(crate) max_id: u64,
}

/// Builder-style [`InvertedFile`] construction: start from
/// [`InvertedFile::builder`], override what the experiment needs, finish
/// with [`build`](InvertedFileBuilder::build).
pub struct InvertedFileBuilder<'a> {
    dataset: &'a Dataset,
    pager: Option<Pager>,
    cache_bytes: usize,
    compression: Compression,
}

impl InvertedFileBuilder<'_> {
    /// Buffer-pool budget in bytes (default: the paper's 32 KiB). Ignored
    /// when an explicit [`pager`](InvertedFileBuilder::pager) is supplied.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Posting compression (default: v-byte over d-gaps).
    pub fn compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Build onto an existing pager (durable storage, shared pools, fault
    /// injection) instead of a fresh in-memory pool.
    pub fn pager(mut self, pager: Pager) -> Self {
        self.pager = Some(pager);
        self
    }

    /// Build the inverted file.
    pub fn build(self) -> InvertedFile {
        let pager = self
            .pager
            .unwrap_or_else(|| Pager::with_cache_bytes(self.cache_bytes));
        crate::build::build(self.dataset, pager, self.compression)
    }
}

impl InvertedFile {
    /// Build from a dataset with default settings (32 KiB cache, v-byte
    /// d-gap compression).
    pub fn build(dataset: &Dataset) -> Self {
        Self::builder(dataset).build()
    }

    /// Start a builder-style construction over `dataset` with default
    /// settings.
    pub fn builder(dataset: &Dataset) -> InvertedFileBuilder<'_> {
        InvertedFileBuilder {
            dataset,
            pager: None,
            cache_bytes: 32 * 1024,
            compression: Compression::VByteDGap,
        }
    }

    /// The buffer pool (for I/O statistics).
    pub fn pager(&self) -> &Pager {
        self.store.pager()
    }

    /// Walk every page reachable through this index's pager and verify its
    /// checksum, quarantining corrupt pages. Bypasses the cache: counters
    /// are unaffected.
    pub fn scrub(&self) -> pagestore::ScrubReport {
        self.pager().scrub()
    }

    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Support of `item` (length of its inverted list).
    pub fn support(&self, item: ItemId) -> u64 {
        self.postings_per_item
            .get(item as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Whether this index carries per-list length summaries (always true
    /// for fresh builds; false after reopening pre-summary v1 state, which
    /// disables superset pruning).
    pub fn has_length_summaries(&self) -> bool {
        !self.min_len_per_item.is_empty()
    }

    /// Bytes of live posting-list data (excluding page padding).
    pub fn list_bytes(&self) -> u64 {
        self.store.live_bytes()
    }

    /// Total on-disk footprint of the index.
    pub fn bytes_on_disk(&self) -> u64 {
        self.store.bytes_on_disk()
    }

    /// Fetch and decode the whole inverted list of `item`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn fetch_list(&self, item: ItemId) -> Vec<Posting> {
        let mut bytes = Vec::new();
        let mut out = Vec::new();
        self.fetch_list_into(item, &mut bytes, &mut out);
        out
    }

    /// Fetch `item`'s list into `out` (cleared first), reusing both the
    /// byte scratch buffer and the postings buffer. The query paths call
    /// this with per-query scratch space so a multi-list merge performs no
    /// per-list allocation.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn fetch_list_into(
        &self,
        item: ItemId,
        bytes: &mut Vec<u8>,
        out: &mut Vec<Posting>,
    ) {
        self.try_fetch_list_into(item, bytes, out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`InvertedFile::fetch_list_into`]: a page fault
    /// surfaces as its typed [`PageError`]. On error `out` is cleared or
    /// holds a garbage prefix — callers must discard it.
    pub(crate) fn try_fetch_list_into(
        &self,
        item: ItemId,
        bytes: &mut Vec<u8>,
        out: &mut Vec<Posting>,
    ) -> Result<(), PageError> {
        out.clear();
        if !self.store.try_read_into(item, bytes)? {
            return Ok(());
        }
        let mut dec = PostingsDecoder::with_mode(bytes, self.compression);
        while let Some(p) = dec.next_posting().expect("index-owned list must decode") {
            out.push(p);
        }
        Ok(())
    }

    /// Fetch `item`'s raw encoded list into `bytes` (cleared first);
    /// returns false when the item has no list. Lets callers stream-decode
    /// without materialising a postings vector at all.
    pub(crate) fn try_fetch_bytes_into(
        &self,
        item: ItemId,
        bytes: &mut Vec<u8>,
    ) -> Result<bool, PageError> {
        self.store.try_read_into(item, bytes)
    }

    /// Append a batch of new records (§4.4-style maintenance). Each
    /// affected list grows by the over-allocate-and-append strategy of §6
    /// ("Inverted files"): only the new postings are encoded, and their
    /// bytes are written behind the list's visible end
    /// ([`HeapFile::try_append_staged`]), so an insert costs O(postings
    /// added), not O(length of every touched list).
    ///
    /// Record ids must be fresh and larger than every indexed id. Panics
    /// on a page fault; [`InvertedFile::try_batch_insert`] is the fallible
    /// twin.
    pub fn batch_insert(&mut self, records: &[Record]) {
        self.try_batch_insert(records, 1)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Id of the last posting of `item`'s list, `None` when the list is
    /// empty or its encoding does not chain (`Raw`). A list whose last id
    /// is not on record (pre-v3 state) is stream-decoded once to find it.
    fn try_last_id(&self, item: ItemId) -> Result<Option<u64>, PageError> {
        if self.compression == Compression::Raw || self.postings_per_item[item as usize] == 0 {
            return Ok(None);
        }
        if let Some(id) = self.last_id_per_item[item as usize] {
            return Ok(Some(id));
        }
        let mut bytes = Vec::new();
        self.store.try_read_into(item, &mut bytes)?;
        let mut dec = PostingsDecoder::with_mode(&bytes, self.compression);
        let mut last = None;
        while let Some(p) = dec.next_posting().expect("index-owned list must decode") {
            last = Some(p.id);
        }
        Ok(last)
    }

    /// Fallible twin of [`InvertedFile::batch_insert`]. `_threads` is
    /// ignored: the batch is staged serially. It stays in the signature
    /// for the callers that pass it.
    ///
    /// The batch is applied in two phases. Phase one encodes each touched
    /// item's new postings as a continuation of its list
    /// ([`PostingsEncoder::resume`]) and stages the bytes behind the
    /// list's visible end — or, when the list's run is full, in a larger
    /// run the list is moved to — without touching the directory or any
    /// statistic. Phase two publishes the new lengths and locations and
    /// flips the statistics. A page fault in phase one therefore leaves
    /// the index observably unchanged: staged bytes lie behind a visible
    /// end or in runs no list owns, the runs return to the heap's free
    /// list, reads stay exact, and the next successful append overwrites
    /// what was left behind.
    ///
    /// Contract violations (stale ids, out-of-vocabulary items) are caller
    /// bugs and still panic.
    pub fn try_batch_insert(
        &mut self,
        records: &[Record],
        _threads: usize,
    ) -> Result<(), PageError> {
        use std::collections::HashMap;
        let mut additions: HashMap<ItemId, Vec<Posting>> = HashMap::new();
        let mut max_id = self.max_id;
        for r in records {
            assert!(r.id > max_id, "batch ids must be fresh and increasing");
            max_id = r.id;
            for &item in &r.items {
                assert!((item as usize) < self.vocab_size, "item out of vocabulary");
                additions
                    .entry(item)
                    .or_default()
                    .push(Posting::new(r.id, r.items.len() as u32));
            }
        }
        let mut items: Vec<ItemId> = additions.keys().copied().collect();
        items.sort_unstable();
        let mut staged = Vec::with_capacity(items.len());
        for item in items {
            // The last id is read before staging borrows the store.
            let blob = self.try_last_id(item).and_then(|last| {
                let mut enc = PostingsEncoder::resume(self.compression, last);
                for &p in &additions[&item] {
                    enc.push(p);
                }
                self.store.try_append_staged(item, &enc.finish())
            });
            match blob {
                Ok(blob) => staged.push(blob),
                Err(e) => {
                    // Stop at the first fault: nothing of the batch commits.
                    self.store.abort_staged(staged);
                    return Err(e);
                }
            }
        }
        self.store.commit_staged(staged);
        for r in records {
            self.max_id = r.id;
            self.num_records += 1;
            for &item in &r.items {
                if let Some(m) = self.min_len_per_item.get_mut(item as usize) {
                    *m = (*m).min(r.items.len() as u32);
                }
            }
        }
        for (item, added) in &additions {
            self.postings_per_item[*item as usize] += added.len() as u64;
            self.last_id_per_item[*item as usize] = added.last().map(|p| p.id);
        }
        Ok(())
    }
}

impl std::fmt::Debug for InvertedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvertedFile")
            .field("records", &self.num_records)
            .field("vocab", &self.vocab_size)
            .field("list_bytes", &self.list_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::SyntheticSpec;

    #[test]
    fn supports_match_dataset() {
        let d = Dataset::paper_fig1();
        let idx = InvertedFile::build(&d);
        let s = d.supports();
        for (item, &support) in s.iter().enumerate() {
            assert_eq!(idx.support(item as u32), support);
        }
        assert_eq!(idx.num_records(), 18);
    }

    #[test]
    fn fetch_list_returns_sorted_ids_with_lengths() {
        let d = Dataset::paper_fig1();
        let idx = InvertedFile::build(&d);
        // Item d (=3): records 101, 104, 107, 112, 114, 118 (Fig. 2).
        let list = idx.fetch_list(3);
        let ids: Vec<u64> = list.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![101, 104, 107, 112, 114, 118]);
        // Record 101 = {g,b,a,d} has length 4.
        assert_eq!(list[0].len, 4);
    }

    #[test]
    fn batch_insert_extends_lists() {
        let d = Dataset::paper_fig1();
        let mut idx = InvertedFile::build(&d);
        idx.batch_insert(&[Record::new(200, vec![0, 3])]);
        let ids: Vec<u64> = idx.fetch_list(3).iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![101, 104, 107, 112, 114, 118, 200]);
        assert_eq!(idx.num_records(), 19);
        assert_eq!(idx.support(3), 7);
    }

    #[test]
    fn threaded_batch_insert_matches_serial() {
        let d = SyntheticSpec {
            num_records: 400,
            vocab_size: 40,
            zipf: 0.8,
            len_min: 2,
            len_max: 8,
            seed: 9,
        }
        .generate();
        let build_batch = || -> Vec<Record> {
            (0..200u64)
                .map(|i| Record::new(1000 + i, vec![(i % 40) as u32, ((i * 7) % 40) as u32]))
                .collect()
        };
        let mut serial = InvertedFile::build(&d);
        serial.batch_insert(&build_batch());
        let pager = Pager::with_cache_bytes(1 << 20);
        let mut threaded = InvertedFile::builder(&d).pager(pager).build();
        threaded.try_batch_insert(&build_batch(), 4).unwrap();
        assert_eq!(threaded.num_records(), serial.num_records());
        for item in 0..40u32 {
            assert_eq!(
                threaded.fetch_list(item),
                serial.fetch_list(item),
                "item {item} list diverged"
            );
            assert_eq!(threaded.support(item), serial.support(item));
        }
    }

    /// Base whose item-0 list ends a few bytes short of a page (every
    /// record holds item 0; id stride 200 makes each posting 3 bytes), so
    /// a handful of inserts force it out of its exactly-sized run. Items
    /// 10 and 11 occur in no base record.
    fn page_brim_base() -> Dataset {
        let records = (0..1362u64)
            .map(|i| Record::new(200 * i, vec![0, 1 + (i % 9) as u32]))
            .collect();
        Dataset {
            records,
            vocab_size: 12,
        }
    }

    /// Every stored list is byte-identical to encoding its decoded
    /// postings in one go, and the whole index — bytes, supports, length
    /// minima, last ids — equals a from-scratch build over `all`.
    fn assert_equals_fresh_build(idx: &InvertedFile, all: &Dataset) {
        let fresh = InvertedFile::builder(all)
            .compression(idx.compression)
            .build();
        let (mut stored, mut want) = (Vec::new(), Vec::new());
        for item in 0..all.vocab_size as u32 {
            let has = idx.try_fetch_bytes_into(item, &mut stored).unwrap();
            assert_eq!(
                has,
                fresh.try_fetch_bytes_into(item, &mut want).unwrap(),
                "item {item} presence"
            );
            if has {
                assert_eq!(stored, want, "item {item} bytes vs fresh build");
                let reencoded =
                    codec::postings::encode_postings_mode(&idx.fetch_list(item), idx.compression);
                assert_eq!(stored, reencoded, "item {item} bytes vs re-encoding");
            }
            assert_eq!(
                idx.support(item),
                fresh.support(item),
                "item {item} support"
            );
        }
        assert_eq!(idx.last_id_per_item, fresh.last_id_per_item);
        assert_eq!(idx.min_len_per_item, fresh.min_len_per_item);
        assert_eq!(idx.list_bytes(), fresh.list_bytes());
        assert_eq!(idx.num_records(), fresh.num_records());
    }

    /// Apply `batches` (sizes; item choices from `picks`) on top of `base`
    /// and check the index against a fresh build after every batch.
    fn append_batches_and_check(
        mut idx: InvertedFile,
        base: &Dataset,
        sizes: &[usize],
        picks: &[u32],
    ) {
        let mut all = base.clone();
        let mut next_id = all.records.last().map_or(0, |r| r.id) + 1;
        let mut picks = picks.iter().copied().cycle();
        for &size in sizes {
            let batch: Vec<Record> = (0..size)
                .map(|_| {
                    let len = 1 + picks.next().unwrap() as usize % 4;
                    let items = (0..len)
                        .map(|_| picks.next().unwrap() % base.vocab_size as u32)
                        .collect();
                    next_id += 1 + picks.next().unwrap() as u64 % 300;
                    Record::new(next_id, items)
                })
                .collect();
            idx.batch_insert(&batch);
            all.records.extend(batch);
            assert_equals_fresh_build(&idx, &all);
        }
    }

    #[test]
    fn append_crosses_a_relocation_and_starts_absent_lists() {
        let base = page_brim_base();
        let mut idx = InvertedFile::build(&base);
        assert_eq!(idx.store.pages_of(0), Some(1));
        assert!(
            idx.store.len_of(0).unwrap() > 4080,
            "base list must brim its page"
        );
        let pages = idx.store.pages();
        let mut all = base.clone();
        for i in 0..8u64 {
            // Item 0 overflows its page on the way; 10 and 11 get their
            // first postings; one multi-record batch rides along.
            let id = 300_000 + 10 * i;
            let batch = if i == 5 {
                vec![
                    Record::new(id, vec![0, 11]),
                    Record::new(id + 1, vec![0, 3]),
                ]
            } else {
                vec![Record::new(id, vec![0, 10])]
            };
            idx.batch_insert(&batch);
            all.records.extend(batch);
            assert_equals_fresh_build(&idx, &all);
        }
        assert_eq!(idx.store.pages_of(0), Some(2), "list 0 grew past one page");
        // Moved once into 2 + 1 pages, plus one page each for 10 and 11;
        // the vacated page was reused by whichever came second.
        assert_eq!(idx.store.pages(), pages + 3 + 1);
    }

    #[test]
    fn append_after_v2_reopen_learns_last_ids_by_decoding() {
        let base = page_brim_base();
        let built = InvertedFile::build(&base);
        let pager = built.pager().clone();
        pager.put_catalog(crate::persist::CATALOG_KEY, &built.state_bytes_versioned(2));
        let mut idx = InvertedFile::open(pager).expect("v2 state must open");
        assert!(idx.last_id_per_item.iter().all(Option::is_none));
        let mut all = base.clone();
        for batch in [
            vec![Record::new(300_000, vec![0, 1, 10])],
            vec![
                Record::new(300_001, vec![0, 2]),
                Record::new(300_009, vec![1, 2]),
            ],
        ] {
            idx.batch_insert(&batch);
            all.records.extend(batch);
        }
        // Untouched lists stay unknown; touched ones match a fresh build.
        assert_eq!(idx.last_id_per_item[3], None);
        idx.last_id_per_item[3..10].copy_from_slice(&built.last_id_per_item[3..10]);
        assert_equals_fresh_build(&idx, &all);
        // Re-persisted (v3) and reopened, the learned ids are on record.
        idx.persist().unwrap();
        let reopened = InvertedFile::open(idx.pager().clone()).unwrap();
        assert_eq!(reopened.last_id_per_item, idx.last_id_per_item);
        append_batches_and_check(reopened, &all, &[1, 3, 1], &[7, 0, 2, 5, 11, 3]);
    }

    #[test]
    fn append_single_records_keeps_the_file_within_a_quarter_of_its_size() {
        // The space regression the whole-list rewrite caused, pinned as a
        // count: it grew the file by one fresh run per touched list per
        // insert (several hundred percent here).
        let spec = SyntheticSpec {
            num_records: 20_000,
            vocab_size: 200,
            zipf: 0.8,
            len_min: 2,
            len_max: 12,
            seed: 11,
        };
        let d = spec.generate();
        let mut idx = InvertedFile::build(&d);
        let before = idx.bytes_on_disk();
        let base_id = d.records.last().unwrap().id + 1;
        let fresh = SyntheticSpec {
            num_records: 1000,
            seed: 12,
            ..spec
        }
        .generate();
        let inserts: Vec<Record> = (base_id..)
            .zip(fresh.records)
            .map(|(id, r)| Record::new(id, r.items))
            .collect();
        for record in &inserts {
            idx.batch_insert(std::slice::from_ref(record));
        }
        let after = idx.bytes_on_disk();
        assert!(
            (after - before) * 4 < before,
            "1000 single-record inserts grew the file {before} -> {after} bytes"
        );
        let mut all = d;
        all.records.extend(inserts);
        assert_equals_fresh_build(&idx, &all);
    }

    #[test]
    fn append_random_batches_store_the_bytes_a_fresh_build_stores() {
        // Seeded splitmix64 stream (the crate has no rand/proptest dev
        // dependency); every seed is one random sequence of single- and
        // multi-record batches, half of them in Raw mode — 12-byte
        // postings make the same base span several pages per list, so
        // relocations happen all over.
        let base = page_brim_base();
        for seed in 0..16u64 {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u32
            };
            let sizes: Vec<usize> = (0..1 + next() % 10)
                .map(|_| 1 + (next() % 4) as usize)
                .collect();
            let picks: Vec<u32> = (0..64).map(|_| next()).collect();
            let mode = if seed % 2 == 0 {
                Compression::VByteDGap
            } else {
                Compression::Raw
            };
            let idx = InvertedFile::builder(&base).compression(mode).build();
            append_batches_and_check(idx, &base, &sizes, &picks);
        }
    }

    #[test]
    #[should_panic(expected = "fresh and increasing")]
    fn stale_batch_id_panics() {
        let d = Dataset::paper_fig1();
        let mut idx = InvertedFile::build(&d);
        idx.batch_insert(&[Record::new(5, vec![0])]);
    }

    #[test]
    fn raw_mode_round_trips() {
        let d = SyntheticSpec {
            num_records: 500,
            vocab_size: 50,
            zipf: 0.8,
            len_min: 2,
            len_max: 10,
            seed: 3,
        }
        .generate();
        let idx = InvertedFile::builder(&d)
            .compression(Compression::Raw)
            .build();
        let s = d.supports();
        for item in 0..50u32 {
            assert_eq!(idx.fetch_list(item).len() as u64, s[item as usize]);
        }
    }
}
