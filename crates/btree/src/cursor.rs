//! Ordered range cursor over leaf pages — zero-copy.
//!
//! Query evaluation in the OIF is "seek to the first block whose tag covers
//! the RoI's lower bound, then read blocks sequentially until the tag
//! exceeds the upper bound" (§4). The cursor implements exactly that
//! access pattern: a descending seek (random page accesses, one per level)
//! followed by next-leaf walks (mostly sequential accesses).
//!
//! The cursor holds a [`PageGuard`] pinning its current leaf in the buffer
//! pool and yields entries as `(&[u8], &[u8])` sliced straight out of the
//! page ([`Cursor::peek`] / [`Cursor::advance`]) — no per-entry allocation,
//! no page copy. The pin is always released *before* the next page is
//! fetched (leaf hop or re-seek), so the buffer pool never has to evict
//! around a pin and the page-access counts stay exactly what they were
//! under the historical decode-everything cursor. The tree is
//! single-writer and its writers take `&mut BTree`, so no page can change
//! under a live cursor.
//!
//! The `Iterator` impl (owned `(Vec<u8>, Vec<u8>)` pairs) remains for
//! consumers that want to hold entries across page hops.
//!
//! Cursors are `Send`: the [`PageGuard`] pin they hold is an atomic
//! per-frame latch (no thread affinity), and the tree itself is `Sync`, so
//! a thread pool can run one cursor per worker over a single shared tree —
//! the basis of parallel query evaluation in the index crates.

use crate::node::{NodeRef, OffsetTable};
use crate::tree::BTree;
use pagestore::{PageError, PageGuard};

/// A forward cursor over a [`BTree`]'s entries in key order.
pub struct Cursor<'t> {
    tree: &'t BTree,
    /// Pin on the current leaf; `None` when exhausted.
    leaf: Option<PageGuard>,
    /// Entry offsets of the current leaf.
    table: OffsetTable,
    /// Index of the next entry to return within the current leaf.
    idx: usize,
}

impl<'t> Cursor<'t> {
    /// Position at the first entry whose key does **not** satisfy `before`.
    ///
    /// `before` must be monotone w.r.t. the tree's byte order (a prefix of
    /// `true`s followed by `false`s). This supports order-consistent
    /// alternative comparators — e.g. the OIF seeks blocks by `(item,
    /// last-record-id)` even though keys embed a tag between the two,
    /// because tag order and id order agree within one item's list.
    pub(crate) fn seek_by(tree: &'t BTree, before: impl Fn(&[u8]) -> bool) -> Self {
        Self::try_seek_by(tree, before).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Cursor::seek_by`]: a page fault during the
    /// descent surfaces as its typed [`PageError`].
    pub(crate) fn try_seek_by(
        tree: &'t BTree,
        before: impl Fn(&[u8]) -> bool,
    ) -> Result<Self, PageError> {
        Self::try_descend(tree, &before, false)
    }

    /// Position at the first entry with key ≥ `key`.
    pub(crate) fn seek(tree: &'t BTree, key: &[u8]) -> Self {
        Self::try_seek(tree, key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Cursor::seek`].
    pub(crate) fn try_seek(tree: &'t BTree, key: &[u8]) -> Result<Self, PageError> {
        // `touch_leaf_again` mirrors the historical implementation, which
        // descended to the leaf page and then read it a second time: that
        // extra (hit) access marks the leaf frame hot in the buffer pool,
        // and replaying it keeps eviction decisions — and so the paper's
        // page-access counts — bit-for-bit reproducible.
        Self::try_descend(tree, &|k: &[u8]| k < key, true)
    }

    fn try_descend(
        tree: &'t BTree,
        before: &impl Fn(&[u8]) -> bool,
        touch_leaf_again: bool,
    ) -> Result<Self, PageError> {
        let mut table = OffsetTable::new();
        let (page, guard) = tree.try_descend(before, &mut table)?;
        if touch_leaf_again {
            tree.try_touch_node(page)?;
        }
        let idx = NodeRef::new(guard.bytes()).partition_point(&table, before);
        let mut cursor = Cursor {
            tree,
            leaf: Some(guard),
            table,
            idx,
        };
        cursor.try_skip_exhausted_leaves()?;
        Ok(cursor)
    }

    /// Advance past leaves whose remaining entries are exhausted (including
    /// empty leaves left behind by deletes).
    fn skip_exhausted_leaves(&mut self) {
        self.try_skip_exhausted_leaves()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible core of [`Cursor::skip_exhausted_leaves`]. On error the
    /// cursor is left unpinned and exhausted (`peek` returns `None`): the
    /// caller either propagates the error or retries from a fresh seek —
    /// there is no half-positioned state to misread.
    fn try_skip_exhausted_leaves(&mut self) -> Result<(), PageError> {
        loop {
            let Some(guard) = &self.leaf else {
                return Ok(());
            };
            let node = NodeRef::new(guard.bytes());
            if self.idx < node.count() {
                return Ok(());
            }
            let next = node.next_leaf();
            // Drop the pin *before* the fetch: eviction must never have to
            // work around the leaf we just left (it would pick a different
            // victim and drift the page-access counts).
            self.leaf = None;
            let Some(p) = next else {
                return Ok(());
            };
            let guard = self.tree.try_pin_node(p)?;
            NodeRef::new(guard.bytes()).fill_offsets(&mut self.table);
            self.leaf = Some(guard);
            self.idx = 0;
        }
    }

    /// Borrow the current entry without advancing. The slices point into
    /// the pinned page and stay valid until the cursor moves or drops.
    pub fn peek(&self) -> Option<(&[u8], &[u8])> {
        let node = NodeRef::new(self.leaf.as_ref()?.bytes());
        if self.idx < self.table.len() {
            Some(node.leaf_entry(&self.table, self.idx))
        } else {
            None
        }
    }

    /// Step past the current entry (no-op when exhausted).
    pub fn advance(&mut self) {
        if self.leaf.is_some() {
            self.idx += 1;
            self.skip_exhausted_leaves();
        }
    }

    /// Fallible twin of [`Cursor::advance`]: a page fault on the next-leaf
    /// hop surfaces as its typed [`PageError`] and leaves the cursor
    /// exhausted (never mispositioned).
    pub fn try_advance(&mut self) -> Result<(), PageError> {
        if self.leaf.is_some() {
            self.idx += 1;
            self.try_skip_exhausted_leaves()?;
        }
        Ok(())
    }

    /// Return the current entry as owned vectors and advance. Prefer
    /// [`Cursor::peek`] + [`Cursor::advance`] on hot paths: they avoid the
    /// copies.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Vec<u8>, Vec<u8>)> {
        let out = self.peek().map(|(k, v)| (k.to_vec(), v.to_vec()))?;
        self.advance();
        Some(out)
    }

    /// Fallible twin of [`Cursor::next`].
    #[allow(clippy::type_complexity)]
    pub fn try_next(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>, PageError> {
        let Some(out) = self.peek().map(|(k, v)| (k.to_vec(), v.to_vec())) else {
            return Ok(None);
        };
        self.try_advance()?;
        Ok(Some(out))
    }
}

impl Iterator for Cursor<'_> {
    type Item = (Vec<u8>, Vec<u8>);
    fn next(&mut self) -> Option<Self::Item> {
        Cursor::next(self)
    }
}

// Compile-time proof of the threading contract: a shared tree can hand
// independent cursors to worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Cursor<'static>>();
    assert_sync::<BTree>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pagestore::Pager;

    fn filled_tree(n: u32) -> BTree {
        let mut t = BTree::create(Pager::with_cache_bytes(1 << 20));
        for i in 0..n {
            t.insert(&i.to_be_bytes(), &(i * 2).to_be_bytes()).unwrap();
        }
        t
    }

    #[test]
    fn full_scan_in_order() {
        let t = filled_tree(3000);
        let keys: Vec<u32> = t
            .scan()
            .map(|(k, _)| u32::from_be_bytes(k.try_into().unwrap()))
            .collect();
        assert_eq!(keys, (0..3000).collect::<Vec<_>>());
    }

    #[test]
    fn seek_lands_on_first_ge() {
        let mut t = BTree::create(Pager::new());
        for i in (0..100u32).step_by(10) {
            t.insert(&i.to_be_bytes(), b"x").unwrap();
        }
        let mut c = t.seek(&15u32.to_be_bytes());
        let (k, _) = c.next().unwrap();
        assert_eq!(u32::from_be_bytes(k.try_into().unwrap()), 20);
    }

    #[test]
    fn seek_exact_match() {
        let t = filled_tree(500);
        let c = t.seek(&123u32.to_be_bytes());
        assert_eq!(c.peek().unwrap().0, 123u32.to_be_bytes());
    }

    #[test]
    fn seek_past_end_is_empty() {
        let t = filled_tree(10);
        let mut c = t.seek(&100u32.to_be_bytes());
        assert!(c.next().is_none());
    }

    #[test]
    fn scan_skips_emptied_leaves() {
        let mut t = filled_tree(2000);
        // Remove a whole contiguous band, likely emptying some leaves.
        for i in 500..1500u32 {
            t.remove(&i.to_be_bytes());
        }
        let keys: Vec<u32> = t
            .scan()
            .map(|(k, _)| u32::from_be_bytes(k.try_into().unwrap()))
            .collect();
        let expected: Vec<u32> = (0..500).chain(1500..2000).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn empty_tree_scan() {
        let t = BTree::create(Pager::new());
        assert_eq!(t.scan().count(), 0);
    }

    #[test]
    fn iterator_bridges() {
        let t = filled_tree(64);
        let total: usize = t.scan().count();
        assert_eq!(total, 64);
    }

    #[test]
    fn peek_advance_yields_same_entries_as_owned_iteration() {
        // Satellite check: the zero-copy path must agree entry-for-entry
        // with the owned-decode path across leaf hops.
        let t = filled_tree(2500);
        let owned: Vec<(Vec<u8>, Vec<u8>)> = t.scan().collect();
        let mut borrowed = Vec::new();
        let mut c = t.scan();
        while let Some((k, v)) = c.peek() {
            borrowed.push((k.to_vec(), v.to_vec()));
            c.advance();
        }
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn peek_is_stable_until_advance() {
        let t = filled_tree(100);
        let c = t.seek(&40u32.to_be_bytes());
        let first = c.peek().map(|(k, v)| (k.to_vec(), v.to_vec()));
        let again = c.peek().map(|(k, v)| (k.to_vec(), v.to_vec()));
        assert_eq!(first, again);
    }

    #[test]
    fn cursor_releases_pin_on_drop() {
        let t = filled_tree(100);
        {
            let c = t.seek(&10u32.to_be_bytes());
            assert!(c.peek().is_some());
        }
        let mut probe = t.seek(&20u32.to_be_bytes());
        probe.advance();
        drop(probe);
        // All pins must be released: write_page panics on a pinned frame,
        // so rewriting every tree page detects any leaked pin.
        let pager = t.pager().clone();
        let file = t.file();
        let mut buf = vec![0u8; pagestore::PAGE_SIZE];
        for p in 0..t.pages() {
            pager.read_page(file, p, &mut buf);
            pager.write_page(file, p, &buf);
        }
    }

    #[test]
    fn scan_with_one_page_cache_works_under_pinning() {
        // Capacity 1: the cursor's pin must never block the next-leaf
        // fetch (it is released first).
        let pager = Pager::with_cache_bytes(pagestore::PAGE_SIZE);
        let mut t = BTree::create(pager);
        for i in 0..2000u32 {
            t.insert(&i.to_be_bytes(), &[7u8; 16]).unwrap();
        }
        assert_eq!(t.scan().count(), 2000);
    }
}
