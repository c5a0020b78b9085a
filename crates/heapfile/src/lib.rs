//! Contiguous blob storage for the classic inverted file.
//!
//! The paper's IF baseline uses "the most efficient implementation scheme
//! reported [30]: each tuple has as key value an item o from I and as data
//! value the whole inverted list that is associated with o", with lists
//! "placed in contiguous regions in the disk" and no way to retrieve part
//! of a list (§5). This crate reproduces that layout:
//!
//! * each *blob* (inverted list) occupies a run of physically consecutive
//!   pages, so reading it is one random access followed by sequential ones;
//! * an in-memory directory maps a `u32` key (the item) to the blob's
//!   location — standing in for the paper's in-memory vocabulary / hash
//!   index over the Berkeley DB relation;
//! * a blob is always read in full, mirroring "Berkeley DB always retrieves
//!   the whole tuple".
//!
//! Lists grow the way §6 ("Inverted files") says inverted files are
//! maintained in practice — over-allocate and append:
//!
//! * a run has a *capacity* in pages, which may exceed the pages its blob
//!   occupies. [`HeapFile::try_append_staged`] writes only the pages at and
//!   behind the blob's visible end while the grown blob still fits;
//! * a full run is moved page by page into a run of
//!   `needed + max(1, needed / 8)` pages, and the vacated run goes to a
//!   first-fit, address-ordered, coalescing **free-run list** that every
//!   later allocation searches before it extends the file;
//! * a bulk [`HeapFile::put`] of a fresh key allocates exactly the pages
//!   it needs, so a bulk-built file has no slack and an empty free list.

use pagestore::{FileId, PageError, PageId, Pager, PAGE_SIZE};
use std::collections::HashMap;

/// A run of physically consecutive pages of the heap's file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    first_page: PageId,
    pages: u64,
}

/// Location of one stored blob: the run it owns (whose length is the
/// blob's capacity) and how many of the run's bytes are visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlobLoc {
    run: Run,
    byte_len: u64,
}

/// Pages a blob of `byte_len` bytes occupies (an empty blob still owns one).
fn pages_for(byte_len: u64) -> u64 {
    byte_len.div_ceil(PAGE_SIZE as u64).max(1)
}

/// Return `run` to the address-ordered free list, merging it with the
/// free runs it touches.
fn release(free: &mut Vec<Run>, run: Run) {
    if run.pages == 0 {
        return;
    }
    let at = free.partition_point(|r| r.first_page < run.first_page);
    free.insert(at, run);
    if at + 1 < free.len() && free[at].first_page + free[at].pages == free[at + 1].first_page {
        free[at].pages += free.remove(at + 1).pages;
    }
    if at > 0 && free[at - 1].first_page + free[at - 1].pages == free[at].first_page {
        free[at - 1].pages += free.remove(at).pages;
    }
}

/// A blob (or a blob's appended tail) whose pages are written but whose
/// directory entry is not yet published — the output of
/// [`HeapFile::try_put_staged`] / [`HeapFile::try_append_staged`].
///
/// Staged bytes lie either in a run no directory entry points at or behind
/// a blob's visible length, so readers cannot reach them: a batch of
/// staged blobs becomes visible atomically at [`HeapFile::commit_staged`]
/// — or, handed to [`HeapFile::abort_staged`], not at all. Every staged
/// blob must go to one of the two; dropping it instead leaks the run it
/// may have allocated (never corrupts).
#[derive(Debug)]
pub struct StagedBlob {
    key: u32,
    loc: BlobLoc,
}

/// A heap of contiguous blobs keyed by `u32`, one logical disk file.
pub struct HeapFile {
    pager: Pager,
    file: FileId,
    directory: HashMap<u32, BlobLoc>,
    /// Sum of the directory's blob lengths, maintained by
    /// [`HeapFile::commit_staged`] so [`HeapFile::live_bytes`] is O(1).
    live_bytes: u64,
    /// Runs no blob owns, sorted by first page, no two adjacent.
    free: Vec<Run>,
}

impl HeapFile {
    /// Create an empty heap file on `pager`'s disk.
    pub fn create(pager: Pager) -> Self {
        let file = pager.create_file();
        HeapFile {
            pager,
            file,
            directory: HashMap::new(),
            live_bytes: 0,
            free: Vec::new(),
        }
    }

    /// Store `data` under `key` in a run of exactly the pages it needs —
    /// the first free run that fits, else fresh pages at the end of the
    /// file. Re-putting a key frees its previous run for reuse by later
    /// allocations. Panics on a page fault; [`HeapFile::try_put`] is the
    /// fallible twin.
    pub fn put(&mut self, key: u32, data: &[u8]) {
        self.try_put(key, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`HeapFile::put`]: a degraded pool surfaces as a
    /// typed [`PageError`], the directory is left unchanged and the run
    /// the attempt allocated is back on the free list.
    pub fn try_put(&mut self, key: u32, data: &[u8]) -> Result<(), PageError> {
        let staged = self.try_put_staged(key, data)?;
        self.commit_staged([staged]);
        Ok(())
    }

    /// Write `data`'s pages into a run of its own *without* publishing the
    /// directory entry; [`HeapFile::commit_staged`] publishes the batch.
    pub fn try_put_staged(&mut self, key: u32, data: &[u8]) -> Result<StagedBlob, PageError> {
        let run = self.alloc_run(pages_for(data.len() as u64))?;
        self.stage_into(key, BlobLoc { run, byte_len: 0 }, run, data)
    }

    /// Stage `extra` behind the visible end of `key`'s blob without
    /// publishing the new length (an absent key is staged like
    /// [`HeapFile::try_put_staged`]).
    ///
    /// While the grown blob fits its run's capacity, only the pages at and
    /// behind the visible end are written (the one partial page is read,
    /// extended and written back). A full run is copied page by page into
    /// a run of `needed + max(1, needed / 8)` pages; the vacated run is
    /// freed when the move is committed. Either way nothing a reader can
    /// reach changes before [`HeapFile::commit_staged`], and bytes left
    /// behind the visible end by an aborted attempt are simply overwritten
    /// by the next one.
    pub fn try_append_staged(&mut self, key: u32, extra: &[u8]) -> Result<StagedBlob, PageError> {
        let Some(old) = self.directory.get(&key).copied() else {
            return self.try_put_staged(key, extra);
        };
        let needed = pages_for(old.byte_len + extra.len() as u64);
        let dst = if needed <= old.run.pages {
            old.run
        } else {
            self.alloc_run(needed + (needed / 8).max(1))?
        };
        self.stage_into(key, old, dst, extra)
    }

    /// Make `dst` hold the byte stream `old ++ extra`, where `old` is the
    /// visible bytes at `old`'s run: every page when `dst` is another run,
    /// only the pages at and behind the visible end when it is `old`'s
    /// own. A failed page write returns `dst` to the free list unless it
    /// is `key`'s published run.
    fn stage_into(
        &mut self,
        key: u32,
        old: BlobLoc,
        dst: Run,
        extra: &[u8],
    ) -> Result<StagedBlob, PageError> {
        let loc = BlobLoc {
            run: dst,
            byte_len: old.byte_len + extra.len() as u64,
        };
        let old_len = old.byte_len as usize;
        let new_len = old_len + extra.len();
        let first_touched = if dst == old.run {
            old.byte_len / PAGE_SIZE as u64
        } else {
            0
        };
        let written = (first_touched..pages_for(loc.byte_len)).try_for_each(|i| {
            let start = i as usize * PAGE_SIZE;
            let mut buf = [0u8; PAGE_SIZE];
            // Bytes of this page that are visible old data.
            let kept = old_len.saturating_sub(start).min(PAGE_SIZE);
            if kept > 0 {
                self.pager
                    .try_with_page(self.file, old.run.first_page + i, |page| {
                        buf[..kept].copy_from_slice(&page[..kept])
                    })?;
            }
            let (lo, hi) = (start + kept, (start + PAGE_SIZE).min(new_len));
            if lo < hi {
                buf[kept..kept + hi - lo].copy_from_slice(&extra[lo - old_len..hi - old_len]);
            }
            self.pager
                .try_write_page(self.file, dst.first_page + i, &buf)
        });
        let staged = StagedBlob { key, loc };
        match written {
            Ok(()) => Ok(staged),
            Err(e) => {
                self.abort_staged([staged]);
                Err(e)
            }
        }
    }

    /// Take `pages` consecutive pages: the head of the first free run that
    /// fits, else pages at the end of the file.
    fn alloc_run(&mut self, pages: u64) -> Result<Run, PageError> {
        let free = &mut self.free;
        if let Some(i) = free.iter().position(|r| r.pages >= pages) {
            let first_page = free[i].first_page;
            if free[i].pages == pages {
                free.remove(i);
            } else {
                free[i].first_page += pages;
                free[i].pages -= pages;
            }
            return Ok(Run { first_page, pages });
        }
        // Nothing fits: extend the file, growing the free run that ends at
        // its end (if any) rather than stranding it.
        let file_end = self.pager.file_len(self.file);
        let (first_page, have) = match free.last() {
            Some(tail) if tail.first_page + tail.pages == file_end => {
                let tail = free.pop().expect("just matched");
                (tail.first_page, tail.pages)
            }
            _ => (file_end, 0),
        };
        for got in have..pages {
            match self.pager.try_allocate_page(self.file) {
                Ok(page) => assert_eq!(page, first_page + got, "heap runs must be consecutive"),
                Err(e) => {
                    // The pages obtained so far stay usable.
                    let obtained = Run {
                        first_page,
                        pages: got,
                    };
                    release(free, obtained);
                    return Err(e);
                }
            }
        }
        Ok(Run { first_page, pages })
    }

    /// Publish staged blobs: one directory insert per blob, no I/O, cannot
    /// fail. Runs under `&mut self`, giving the whole batch atomic
    /// visibility with respect to readers. A run its blob moved out of (or
    /// was re-put out of) goes to the free list.
    pub fn commit_staged(&mut self, staged: impl IntoIterator<Item = StagedBlob>) {
        for blob in staged {
            self.live_bytes += blob.loc.byte_len;
            if let Some(old) = self.directory.insert(blob.key, blob.loc) {
                self.live_bytes -= old.byte_len;
                if old.run != blob.loc.run {
                    release(&mut self.free, old.run);
                }
            }
        }
    }

    /// Give up staged blobs: every run staging allocated returns to the
    /// free list. Bytes staged in place stay behind their blob's visible
    /// end, unreachable, until the next append overwrites them.
    pub fn abort_staged(&mut self, staged: impl IntoIterator<Item = StagedBlob>) {
        for blob in staged {
            if self.directory.get(&blob.key).map(|l| l.run) != Some(blob.loc.run) {
                release(&mut self.free, blob.loc.run);
            }
        }
    }

    /// Read the whole blob stored under `key`.
    pub fn get(&self, key: u32) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.read_into(key, &mut out).then_some(out)
    }

    /// Fallible twin of [`HeapFile::get`]: a page fault surfaces as its
    /// typed [`PageError`] instead of a panic.
    pub fn try_get(&self, key: u32) -> Result<Option<Vec<u8>>, PageError> {
        let mut out = Vec::new();
        Ok(self.try_read_into(key, &mut out)?.then_some(out))
    }

    /// Read the whole blob stored under `key` into `out` (cleared first),
    /// reusing `out`'s allocation. Returns false when the key is absent.
    ///
    /// Query evaluation calls this with one scratch buffer per query, so a
    /// multi-list merge performs no per-list allocation; each cached page
    /// is copied out exactly once (no intermediate page buffer).
    pub fn read_into(&self, key: u32, out: &mut Vec<u8>) -> bool {
        self.try_read_into(key, out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`HeapFile::read_into`]. On error `out` holds the
    /// prefix read so far — callers must treat it as garbage. Access
    /// pattern identical to the infallible path.
    pub fn try_read_into(&self, key: u32, out: &mut Vec<u8>) -> Result<bool, PageError> {
        let Some(loc) = self.directory.get(&key).copied() else {
            return Ok(false);
        };
        out.clear();
        out.reserve(loc.byte_len as usize);
        let mut remaining = loc.byte_len as usize;
        for i in 0..pages_for(loc.byte_len) {
            self.pager
                .try_with_page(self.file, loc.run.first_page + i, |page| {
                    let take = remaining.min(PAGE_SIZE);
                    out.extend_from_slice(&page[..take]);
                    remaining -= take;
                })?;
        }
        Ok(true)
    }

    /// Byte length of the blob under `key` without touching the disk.
    pub fn len_of(&self, key: u32) -> Option<u64> {
        self.directory.get(&key).map(|l| l.byte_len)
    }

    /// Number of pages a read of `key` will fetch.
    pub fn pages_of(&self, key: u32) -> Option<u64> {
        self.directory.get(&key).map(|l| pages_for(l.byte_len))
    }

    pub fn contains(&self, key: u32) -> bool {
        self.directory.contains_key(&key)
    }

    /// All stored keys (unordered).
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.directory.keys().copied()
    }

    /// Live bytes (sum of blob lengths, ignoring slack, free runs and
    /// padding).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Total pages allocated to the file, including slack and free runs.
    pub fn pages(&self) -> u64 {
        self.pager.file_len(self.file)
    }

    /// Total on-disk bytes of the file.
    pub fn bytes_on_disk(&self) -> u64 {
        self.pages() * PAGE_SIZE as u64
    }

    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Serialize the in-memory state (file id, blob directory, run
    /// capacities, free-run list) for the storage catalog, so the heap can
    /// be [`HeapFile::open`]ed against the same (durable) storage without
    /// a rebuild. Keys are written sorted, making the bytes deterministic.
    ///
    /// Layout: the directory block (`key, first page, byte length` per
    /// blob) exactly as heaps without capacities wrote it, then the
    /// capacities in the same key order and the free runs.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = pagestore::ser::Writer::new();
        w.u32(self.file.0);
        let mut keys: Vec<u32> = self.directory.keys().copied().collect();
        keys.sort_unstable();
        w.u32(keys.len() as u32);
        for &k in &keys {
            let loc = self.directory[&k];
            w.u32(k);
            w.u64(loc.run.first_page);
            w.u64(loc.byte_len);
        }
        let capacities: Vec<u64> = keys.iter().map(|k| self.directory[k].run.pages).collect();
        w.u64s(&capacities);
        w.u32(self.free.len() as u32);
        for run in &self.free {
            w.u64(run.first_page);
            w.u64(run.pages);
        }
        w.into_bytes()
    }

    /// Reopen a heap file from [`HeapFile::state_bytes`] against a pager
    /// whose storage already holds the blob pages (e.g. a reopened
    /// [`FileStorage`](pagestore::FileStorage)). State that ends after the
    /// directory block was written before runs had capacities: every run
    /// is exactly full and no run is free. Returns `None` when the state
    /// bytes do not parse.
    pub fn open(pager: Pager, state: &[u8]) -> Option<HeapFile> {
        let mut r = pagestore::ser::Reader::new(state);
        let file = FileId(r.u32()?);
        let count = r.u32()?;
        let mut entries = Vec::new();
        for _ in 0..count {
            entries.push((r.u32()?, r.u64()?, r.u64()?));
        }
        let mut free = Vec::new();
        let capacities = if r.is_exhausted() {
            entries.iter().map(|&(_, _, len)| pages_for(len)).collect()
        } else {
            let capacities = r.u64s()?;
            for _ in 0..r.u32()? {
                free.push(Run {
                    first_page: r.u64()?,
                    pages: r.u64()?,
                });
            }
            capacities
        };
        if capacities.len() != entries.len() || !r.is_exhausted() {
            return None;
        }
        let mut directory = HashMap::with_capacity(entries.len());
        let mut live_bytes = 0;
        for (&(key, first_page, byte_len), &pages) in entries.iter().zip(&capacities) {
            if pages < pages_for(byte_len) {
                return None;
            }
            live_bytes += byte_len;
            directory.insert(
                key,
                BlobLoc {
                    run: Run { first_page, pages },
                    byte_len,
                },
            );
        }
        Some(HeapFile {
            pager,
            file,
            directory,
            live_bytes,
            free,
        })
    }

    /// Compact into a fresh heap file with no slack and no free runs.
    /// Blobs are written in ascending key order so related lists stay
    /// clustered.
    pub fn rebuild(&self) -> HeapFile {
        let mut keys: Vec<u32> = self.directory.keys().copied().collect();
        keys.sort_unstable();
        let mut out = HeapFile::create(self.pager.clone());
        for k in keys {
            let data = self.get(k).expect("directory key");
            out.put(k, &data);
        }
        out
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("blobs", &self.directory.len())
            .field("live_bytes", &self.live_bytes())
            .field("pages", &self.pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl HeapFile {
        /// Live and free runs are pairwise disjoint and inside the file,
        /// free runs are sorted and coalesced, every capacity covers its
        /// blob, and the running byte counter equals the directory sum.
        fn check_invariants(&self) {
            let free = &self.free;
            for pair in free.windows(2) {
                assert!(
                    pair[0].first_page + pair[0].pages < pair[1].first_page,
                    "free runs unsorted or uncoalesced: {free:?}"
                );
            }
            let mut runs: Vec<Run> = free.clone();
            for loc in self.directory.values() {
                assert!(
                    loc.run.pages >= pages_for(loc.byte_len),
                    "capacity < occupied: {loc:?}"
                );
                runs.push(loc.run);
            }
            runs.sort_unstable_by_key(|r| r.first_page);
            for pair in runs.windows(2) {
                assert!(
                    pair[0].first_page + pair[0].pages <= pair[1].first_page,
                    "runs overlap: {pair:?}"
                );
            }
            if let Some(last) = runs.last() {
                assert!(
                    last.first_page + last.pages <= self.pages(),
                    "run beyond file end"
                );
            }
            assert!(runs.iter().all(|r| r.pages > 0));
            let sum: u64 = self.directory.values().map(|l| l.byte_len).sum();
            assert_eq!(self.live_bytes(), sum, "running live-byte counter drifted");
        }

        /// Stage `extra` behind `key`'s blob and commit it.
        fn append(&mut self, key: u32, extra: &[u8]) {
            let staged = self.try_append_staged(key, extra).unwrap();
            self.commit_staged([staged]);
        }

        /// Stage `extra` behind `key`'s blob and abort it.
        fn append_aborted(&mut self, key: u32, extra: &[u8]) {
            let staged = self.try_append_staged(key, extra).unwrap();
            self.abort_staged([staged]);
        }
    }

    #[test]
    fn put_get_round_trip() {
        let mut h = HeapFile::create(Pager::new());
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        h.put(7, &data);
        assert_eq!(h.get(7), Some(data));
        assert_eq!(h.get(8), None);
    }

    #[test]
    fn empty_blob() {
        let mut h = HeapFile::create(Pager::new());
        h.put(1, &[]);
        assert_eq!(h.get(1), Some(vec![]));
        assert_eq!(h.pages_of(1), Some(1));
    }

    #[test]
    fn exact_page_multiple() {
        let mut h = HeapFile::create(Pager::new());
        let data = vec![0xabu8; PAGE_SIZE * 3];
        h.put(2, &data);
        assert_eq!(h.pages_of(2), Some(3));
        assert_eq!(h.get(2), Some(data));
    }

    #[test]
    fn reads_are_sequential_after_first_seek() {
        let pager = Pager::with_cache_bytes(PAGE_SIZE); // 1-page cache
        let mut h = HeapFile::create(pager.clone());
        h.put(1, &vec![1u8; PAGE_SIZE * 16]);
        pager.clear_cache();
        pager.reset_stats();
        h.get(1).unwrap();
        let s = pager.stats();
        assert_eq!(s.misses(), 16);
        assert_eq!(s.random_misses, 1, "one seek to the run start");
        assert_eq!(s.seq_misses, 15);
    }

    #[test]
    fn overwrite_frees_old_run_for_reuse_and_rebuild_compacts() {
        let mut h = HeapFile::create(Pager::new());
        h.put(1, &vec![1u8; PAGE_SIZE * 4]);
        h.put(1, &vec![2u8; PAGE_SIZE]);
        assert_eq!(h.pages(), 5);
        assert_eq!(h.get(1), Some(vec![2u8; PAGE_SIZE]));
        // The vacated 4-page run serves the next puts that fit it, first
        // fit from its head, before the file grows again.
        h.put(2, &vec![3u8; PAGE_SIZE * 3]);
        h.put(3, &[4u8; 10]);
        assert_eq!(h.pages(), 5, "freed run must be reused");
        h.put(4, &[5u8; 10]);
        assert_eq!(h.pages(), 6, "free list exhausted: the file grows");
        assert_eq!(h.get(1), Some(vec![2u8; PAGE_SIZE]));
        assert_eq!(h.get(2), Some(vec![3u8; PAGE_SIZE * 3]));
        assert_eq!(h.get(3), Some(vec![4u8; 10]));
        h.check_invariants();
        h.put(2, &[6u8]);
        let rebuilt = h.rebuild();
        assert_eq!(rebuilt.get(2), Some(vec![6u8]));
        assert_eq!(rebuilt.pages(), 4, "one page per blob, no free runs");
    }

    #[test]
    fn append_writes_behind_the_visible_end_then_relocates_with_slack() {
        let pager = Pager::with_cache_bytes(1 << 20);
        let mut h = HeapFile::create(pager.clone());
        let mut want = vec![7u8; PAGE_SIZE * 3 + 100];
        h.put(1, &want);
        h.put(2, b"neighbour");
        assert_eq!(h.pages(), 5);

        // Fits the 4-page run: nothing visible until the commit, then one
        // page (the partial tail) was written and the file did not grow.
        pager.clear_cache();
        pager.reset_stats();
        let staged = h.try_append_staged(1, &[8u8; 200]).unwrap();
        assert_eq!(h.get(1).as_ref(), Some(&want), "staged tail is invisible");
        h.commit_staged([staged]);
        want.extend_from_slice(&[8u8; 200]);
        assert_eq!(h.get(1).as_ref(), Some(&want));
        pager.clear_cache();
        assert_eq!(pager.stats().writes, 1, "only the tail page is rewritten");
        assert_eq!(h.pages(), 5);

        // Overflows the run: moved to needed (5) + max(1, 5 / 8) pages at
        // the end of the file; the vacated run is reused by a fitting put.
        let staged = h.try_append_staged(1, &vec![9u8; PAGE_SIZE]).unwrap();
        assert_eq!(h.get(1).as_ref(), Some(&want), "old run still serves reads");
        h.commit_staged([staged]);
        want.extend_from_slice(&vec![9u8; PAGE_SIZE]);
        assert_eq!(h.get(1).as_ref(), Some(&want));
        assert_eq!(h.pages(), 5 + 6);
        h.put(3, &vec![1u8; PAGE_SIZE * 4]);
        assert_eq!(h.pages(), 11, "vacated run reused");
        // The slack page absorbs the next page of growth in place.
        h.append(1, &vec![5u8; PAGE_SIZE]);
        want.extend_from_slice(&vec![5u8; PAGE_SIZE]);
        assert_eq!(h.get(1).as_ref(), Some(&want));
        assert_eq!(h.pages(), 11);
        assert_eq!(h.get(2), Some(b"neighbour".to_vec()));
        assert_eq!(h.live_bytes(), want.len() as u64 + 9 + 4 * PAGE_SIZE as u64);
        h.check_invariants();
    }

    #[test]
    fn append_to_absent_or_empty_key_and_across_exact_page_ends() {
        let mut h = HeapFile::create(Pager::new());
        h.append(1, b"first");
        assert_eq!(h.get(1), Some(b"first".to_vec()));
        h.put(2, &[]);
        h.append(2, &vec![3u8; PAGE_SIZE]);
        assert_eq!(h.get(2), Some(vec![3u8; PAGE_SIZE]));
        assert_eq!(h.pages(), 2, "an exactly full page needs no second one");
        h.append(2, &[4u8]);
        let mut want = vec![3u8; PAGE_SIZE];
        want.push(4);
        assert_eq!(h.get(2), Some(want));
        h.check_invariants();
    }

    #[test]
    fn aborted_append_leaves_reads_exact_and_is_overwritten() {
        let mut h = HeapFile::create(Pager::new());
        h.put(1, b"visible");
        let pages = h.pages();
        // In place: garbage lands behind the visible end, then a different
        // tail is staged over it and committed.
        h.append_aborted(1, b"-garbage-garbage");
        assert_eq!(h.get(1), Some(b"visible".to_vec()));
        h.append(1, b"+ok");
        assert_eq!(h.get(1), Some(b"visible+ok".to_vec()));
        assert_eq!(h.pages(), pages);
        // Relocating: the run the aborted move allocated is reused by the
        // retry, so the file grows once, not twice.
        h.append_aborted(1, &vec![1u8; PAGE_SIZE]);
        let grown = h.pages();
        assert!(grown > pages);
        h.append(1, &vec![2u8; PAGE_SIZE]);
        assert_eq!(h.pages(), grown);
        let mut want = b"visible+ok".to_vec();
        want.extend_from_slice(&vec![2u8; PAGE_SIZE]);
        assert_eq!(h.get(1), Some(want));
        h.check_invariants();
    }

    #[test]
    fn faulted_append_batches_return_their_runs_so_the_file_stops_growing() {
        // A medium that refuses every write: staging allocates runs, then
        // a page write evicts a dirty frame through the 8-frame pool, the
        // write-back fails and the pool degrades mid-blob. Neither the run
        // of the blob that failed nor the runs staged before it may leak.
        use pagestore::{FaultConfig, FaultStorage};
        let (storage, fault) = FaultStorage::create(FaultConfig::default()).expect("in-proc");
        let pager = Pager::with_storage(storage, 8 * PAGE_SIZE);
        let mut h = HeapFile::create(pager.clone());
        for k in 0..4u32 {
            h.put(k, &vec![k as u8; PAGE_SIZE + 1]);
        }
        pager.sync().expect("fault-free sync");
        let before: Vec<_> = (0..4).map(|k| h.get(k)).collect();

        // Keys 0..4 overflow their runs (relocation), 4 and 5 are fresh.
        let batch: Vec<(u32, usize)> = (0..6).map(|k| (k, 3 * PAGE_SIZE)).collect();
        // A fresh run longer than the pool: the write-back that degrades
        // the pool happens *between* two of its page allocations.
        let long_first = [(9u32, 12 * PAGE_SIZE), (0, 3 * PAGE_SIZE)];
        let faulted_batch = |h: &mut HeapFile, batch: &[(u32, usize)]| {
            let ops = fault.ops();
            fault.set_fault_config(FaultConfig {
                transient_writes: (ops..ops + 100_000).collect(),
                ..FaultConfig::default()
            });
            let mut staged = Vec::new();
            let mut fault_seen = None;
            for &(k, len) in batch {
                match h.try_append_staged(k, &vec![0xee; len]) {
                    Ok(blob) => staged.push(blob),
                    Err(e) => {
                        fault_seen = Some(e);
                        break;
                    }
                }
            }
            h.abort_staged(staged);
            fault_seen.expect("a dead write medium must fail the batch");
            fault.set_fault_config(FaultConfig::default());
            assert!(pager.clear_degraded(), "the pool must have degraded");
            // Flush what the failed batch dirtied, so the next round starts
            // from a clean pool like the first one did.
            pager.sync().expect("healed sync");
        };
        // The first failures grow the file (allocation succeeds before the
        // write that fails); once the free list covers the largest demand
        // a failing batch can make, it must never grow again.
        for _ in 0..3 {
            faulted_batch(&mut h, &batch);
            faulted_batch(&mut h, &long_first);
        }
        let pages = h.pages();
        for round in 0..8 {
            faulted_batch(&mut h, if round % 2 == 0 { &batch } else { &long_first });
            assert_eq!(h.pages(), pages, "round {round} leaked a staged run");
        }
        for k in 0..4u32 {
            assert_eq!(h.get(k), before[k as usize], "reads stay exact");
        }
        h.check_invariants();
        // Healed, the same batch commits into the runs the failures freed.
        let staged: Vec<_> = batch
            .iter()
            .map(|&(k, len)| h.try_append_staged(k, &vec![0xee; len]).unwrap())
            .collect();
        h.commit_staged(staged);
        assert_eq!(h.get(5), Some(vec![0xee; 3 * PAGE_SIZE]));
        assert_eq!(h.len_of(0), Some(4 * PAGE_SIZE as u64 + 1));
        h.check_invariants();
    }

    #[test]
    fn many_keys() {
        let mut h = HeapFile::create(Pager::with_cache_bytes(1 << 20));
        for k in 0..200u32 {
            h.put(k, &vec![k as u8; (k as usize % 5000) + 1]);
        }
        for k in 0..200u32 {
            let v = h.get(k).unwrap();
            assert_eq!(v.len(), (k as usize % 5000) + 1);
            assert!(v.iter().all(|&b| b == k as u8));
        }
        assert_eq!(h.keys().count(), 200);
    }

    #[test]
    fn state_round_trips_through_bytes() {
        let pager = Pager::with_cache_bytes(1 << 16);
        let mut h = HeapFile::create(pager.clone());
        h.put(3, b"three");
        h.put(1, &vec![9u8; PAGE_SIZE + 10]);
        let state = h.state_bytes();
        let reopened = HeapFile::open(pager, &state).expect("state parses");
        assert_eq!(reopened.get(3), Some(b"three".to_vec()));
        assert_eq!(reopened.get(1), Some(vec![9u8; PAGE_SIZE + 10]));
        assert_eq!(reopened.get(2), None);
        assert_eq!(reopened.state_bytes(), state, "deterministic bytes");
        // Truncated state must refuse to parse, not panic.
        assert!(HeapFile::open(reopened.pager().clone(), &state[..state.len() - 1]).is_none());
    }

    #[test]
    fn capacities_and_free_runs_survive_reopen_and_capacity_less_state_opens() {
        let pager = Pager::with_cache_bytes(1 << 16);
        let mut h = HeapFile::create(pager.clone());
        h.put(1, &vec![1u8; PAGE_SIZE * 2]);
        h.put(2, b"two");
        // Directory block only = what a heap without capacities persisted.
        let directory_block = 4 + 4 + 2 * (4 + 8 + 8);
        let legacy = HeapFile::open(pager.clone(), &h.state_bytes()[..directory_block])
            .expect("capacity-less state must open");
        assert_eq!(legacy.get(1), Some(vec![1u8; PAGE_SIZE * 2]));
        assert_eq!(
            legacy.state_bytes(),
            h.state_bytes(),
            "exact runs, nothing free"
        );

        // Grow key 1 out of its run: slack on the new run, old run free.
        h.append(1, &[9u8; 10]);
        let pages = h.pages();
        let mut reopened = HeapFile::open(pager, &h.state_bytes()).expect("state parses");
        assert_eq!(reopened.state_bytes(), h.state_bytes());
        assert_eq!(reopened.live_bytes(), h.live_bytes());
        reopened.check_invariants();
        reopened.put(3, &vec![3u8; PAGE_SIZE * 2]);
        assert_eq!(reopened.pages(), pages, "persisted free run reused");
        reopened.append(1, &vec![4u8; PAGE_SIZE - 10]);
        assert_eq!(
            reopened.pages(),
            pages,
            "persisted slack absorbed the growth"
        );
        reopened.check_invariants();
    }

    #[test]
    fn staged_blobs_publish_atomically() {
        let mut h = HeapFile::create(Pager::with_cache_bytes(1 << 18));
        // Stage a batch of blobs: runs must not interleave (each blob
        // reads back exactly), and nothing is visible before the commit.
        let blobs: Vec<Vec<u8>> = (0..32u32)
            .map(|k| vec![k as u8; (k as usize % 3) * PAGE_SIZE + 17])
            .collect();
        let staged: Vec<StagedBlob> = blobs
            .iter()
            .enumerate()
            .map(|(k, blob)| h.try_put_staged(k as u32, blob).unwrap())
            .collect();
        for k in 0..32u32 {
            assert_eq!(h.get(k), None, "staged blob {k} visible before commit");
        }
        h.commit_staged(staged);
        for (k, blob) in blobs.iter().enumerate() {
            assert_eq!(h.get(k as u32).as_ref(), Some(blob), "blob {k}");
        }
    }

    proptest! {
        #[test]
        fn put_append_abort_reopen_sequences_match_a_hashmap_model(
            ops in proptest::collection::vec((0u8..6, 0u32..5, 0usize..3 * PAGE_SIZE), 1..60)
        ) {
            let pager = Pager::with_cache_bytes(1 << 16);
            let mut h = HeapFile::create(pager.clone());
            let mut model: HashMap<u32, Vec<u8>> = HashMap::new();
            for (step, &(op, key, len)) in ops.iter().enumerate() {
                let data: Vec<u8> = (0..len).map(|i| (i + step) as u8).collect();
                match op {
                    0 => {
                        h.put(key, &data);
                        model.insert(key, data);
                    }
                    1..=3 => {
                        h.append(key, &data);
                        model.entry(key).or_default().extend_from_slice(&data);
                    }
                    4 => h.append_aborted(key, &data),
                    _ => h = HeapFile::open(pager.clone(), &h.state_bytes()).expect("own state"),
                }
                h.check_invariants();
                prop_assert_eq!(h.keys().count(), model.len());
                for (k, v) in &model {
                    prop_assert_eq!(h.get(*k).as_ref(), Some(v), "step {} key {}", step, k);
                }
            }
        }

        #[test]
        fn arbitrary_blobs_round_trip(
            blobs in proptest::collection::hash_map(any::<u32>(), proptest::collection::vec(any::<u8>(), 0..20_000), 1..20)
        ) {
            let mut h = HeapFile::create(Pager::with_cache_bytes(1 << 16));
            for (k, v) in &blobs {
                h.put(*k, v);
            }
            for (k, v) in &blobs {
                prop_assert_eq!(h.get(*k), Some(v.clone()));
                prop_assert_eq!(h.len_of(*k), Some(v.len() as u64));
            }
        }
    }
}
