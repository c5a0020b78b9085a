//! The B⁺-tree proper: lookups, inserts with split propagation, deletes.
//!
//! # Write path
//!
//! The tree is single-writer: [`BTree::try_insert`], [`BTree::try_remove`]
//! and [`BTree::try_batch_insert`] take `&mut self`, while any number of
//! readers may share `&BTree` between writes. A write is planned, then
//! applied:
//!
//! * **Plan.** Descend from the root, pinning every node on the path.
//!   Compute each new node image: a leaf edit that fits, and every remove,
//!   is applied to a copy of the pinned leaf by the slotted in-place
//!   editors (`leaf_insert_at` and friends); only a split decodes into an
//!   owned [`Node`]. Fresh pages for split siblings and a new root are
//!   allocated and pinned too.
//! * **Apply.** If the pool degraded to read-only while planning, return
//!   [`PageError::ReadOnly`] with nothing written. Otherwise drop the pins
//!   and write the images. Every target is cached, so every write is a
//!   cache hit: no eviction write-back can fail, and degrade the pool,
//!   between the first write and the last. `len`, `root` and `height`
//!   change only after the last write.
//!
//! A faulted insert therefore leaves the tree exactly as it was (at worst
//! with a few unreferenced fresh pages), never with a split half that its
//! parent does not route to. See DESIGN.md "Write path: one writer, plan
//! then apply".
//!
//! Every mutating operation has a fallible `try_` twin returning
//! [`BTreeError::Page`] / [`PageError`] when the pool degrades read-only;
//! the panicking forms are thin wrappers.

use crate::node::{
    self, InternalEntry, LeafEntry, Node, NodeRef, OffsetTable, LEAF_ENTRY_HEADER, MAX_ENTRY_BYTES,
};
use pagestore::{FileId, PageError, PageGuard, PageId, Pager, PAGE_SIZE};

/// Errors returned by tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BTreeError {
    /// `key.len() + value.len()` exceeds [`MAX_ENTRY_BYTES`].
    EntryTooLarge { key_len: usize, value_len: usize },
    /// A page fault on the write path — typically the pool degraded to
    /// read-only mode mid-operation.
    Page(PageError),
}

impl std::fmt::Display for BTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BTreeError::EntryTooLarge { key_len, value_len } => write!(
                f,
                "entry too large: key {key_len} B + value {value_len} B > {MAX_ENTRY_BYTES} B"
            ),
            BTreeError::Page(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BTreeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BTreeError::Page(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PageError> for BTreeError {
    fn from(e: PageError) -> BTreeError {
        BTreeError::Page(e)
    }
}

/// A split handed up to the parent: `(left max key, new right page, right
/// max key)`.
type Split = (Vec<u8>, PageId, Vec<u8>);

/// The pages one insert will write and the pins that keep them cached
/// until it does.
struct Plan {
    /// `(page, new image)` in write order: bottom-up, each node before its
    /// new right sibling.
    writes: Vec<(PageId, Vec<u8>)>,
    /// Pins on the freshly allocated pages among `writes`.
    fresh: Vec<PageGuard>,
}

/// A disk-resident B⁺-tree. See the crate docs for the design.
pub struct BTree {
    pager: Pager,
    file: FileId,
    root: PageId,
    height: usize,
    len: u64,
}

impl BTree {
    /// Create an empty tree in a fresh file of `pager`'s disk.
    pub fn create(pager: Pager) -> Self {
        let file = pager.create_file();
        let root = pager.allocate_page(file);
        pager.write_page(file, root, &Node::empty_leaf().encode());
        BTree::from_parts(pager, file, root, 1, 0)
    }

    pub(crate) fn from_parts(
        pager: Pager,
        file: FileId,
        root: PageId,
        height: usize,
        len: u64,
    ) -> Self {
        BTree {
            pager,
            file,
            root,
            height,
            len,
        }
    }

    /// Number of key/value entries stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of levels (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pages allocated to the tree's file (nodes, including freed slack).
    pub fn pages(&self) -> u64 {
        self.pager.file_len(self.file)
    }

    /// Total on-disk bytes of the tree.
    pub fn bytes_on_disk(&self) -> u64 {
        self.pages() * pagestore::PAGE_SIZE as u64
    }

    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// The logical file on `pager`'s disk holding the tree's nodes.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Page id of the root node (within [`BTree::file`]).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Reopen a tree from persisted parts (see [`BTree::file`],
    /// [`BTree::root_page`], [`BTree::height`], [`BTree::len`]).
    ///
    /// The caller asserts the parts describe a tree previously built on
    /// this pager's storage — typically read back from the storage catalog
    /// after a [`Pager::sync`](pagestore::Pager::sync). Nothing is read
    /// eagerly; a bogus root surfaces on first access (decoding a
    /// non-node page fails its named assertions).
    pub fn open(pager: Pager, file: FileId, root: PageId, height: usize, len: u64) -> Self {
        BTree::from_parts(pager, file, root, height, len)
    }

    /// Pin one node's page for zero-copy reading; a page fault surfaces as
    /// a typed error instead of a panic.
    pub(crate) fn try_pin_node(&self, page: PageId) -> Result<PageGuard, PageError> {
        self.pager.try_pin_page(self.file, page)
    }

    /// Re-touch a cached node page (a counted cache hit). Used to replay
    /// the historical read path's access pattern exactly — see
    /// [`crate::Cursor`].
    pub(crate) fn try_touch_node(&self, page: PageId) -> Result<(), PageError> {
        self.pager.try_with_page(self.file, page, |_| ())
    }

    /// Descend to the leaf covering the monotone seek predicate `before`,
    /// releasing each internal node's pin before its child is fetched.
    /// Returns the leaf's page and its pin; `table` is left filled with
    /// the leaf's entry offsets.
    pub(crate) fn try_descend(
        &self,
        before: &impl Fn(&[u8]) -> bool,
        table: &mut OffsetTable,
    ) -> Result<(PageId, PageGuard), PageError> {
        let mut page = self.root;
        loop {
            let guard = self.try_pin_node(page)?;
            let node = NodeRef::new(guard.bytes());
            node.fill_offsets(table);
            if node.is_leaf() {
                return Ok((page, guard));
            }
            let idx = node.partition_point(table, before).min(node.count() - 1);
            page = node.child(table, idx);
            // Guard drops here, before the child fetch.
        }
    }

    /// Exact-match lookup.
    ///
    /// The descent reads borrowed [`NodeRef`] views straight out of pinned
    /// pages; only the returned value is copied. The leaf is touched twice
    /// (descend + lookup) exactly like the historical owned-decode path, so
    /// buffer-pool state and page-access counts are unchanged.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.try_get(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`BTree::get`]: a page fault anywhere along the
    /// descent surfaces as its typed [`PageError`] instead of a panic.
    pub fn try_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, PageError> {
        let mut table = OffsetTable::new();
        let (leaf, guard) = self.try_descend(&|k: &[u8]| k < key, &mut table)?;
        self.try_touch_node(leaf)?;
        let node = NodeRef::new(guard.bytes());
        let idx = node.partition_point(&table, |k| k < key);
        if idx < node.count() {
            let (k, v) = node.leaf_entry(&table, idx);
            if k == key {
                return Ok(Some(v.to_vec()));
            }
        }
        Ok(None)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Insert or replace `key`. Returns the previous value if any.
    ///
    /// Panics on a page fault (degraded pool); [`BTree::try_insert`] is the
    /// fallible twin and the actual implementation.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, BTreeError> {
        match self.try_insert(key, value) {
            Err(BTreeError::Page(e)) => panic!("{e}"),
            other => other,
        }
    }

    /// Fallible insert. On error the tree is unchanged: see the module
    /// docs for the plan-then-apply protocol that guarantees it.
    pub fn try_insert(&mut self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, BTreeError> {
        if key.len() + value.len() > MAX_ENTRY_BYTES {
            return Err(BTreeError::EntryTooLarge {
                key_len: key.len(),
                value_len: value.len(),
            });
        }
        // Plan: pin the root-to-leaf path, so the writes below find every
        // node still cached.
        let mut table = OffsetTable::new();
        let mut path: Vec<(PageId, PageGuard)> = Vec::with_capacity(self.height);
        let mut page = self.root;
        loop {
            let guard = self.try_pin_node(page)?;
            let node = NodeRef::new(guard.bytes());
            let child = (!node.is_leaf()).then(|| {
                node.fill_offsets(&mut table);
                let idx = node
                    .partition_point(&table, |sep| sep < key)
                    .min(node.count() - 1);
                node.child(&table, idx)
            });
            path.push((page, guard));
            match child {
                Some(child) => page = child,
                None => break,
            }
        }
        let mut plan = Plan {
            writes: Vec::new(),
            fresh: Vec::new(),
        };
        let (leaf, leaf_guard) = path.last().expect("the path ends at a leaf");
        let (old, mut split) =
            self.plan_leaf(*leaf, leaf_guard.bytes(), key, value, &mut table, &mut plan)?;
        for (page, guard) in path.iter().rev().skip(1) {
            let Node::Internal { mut entries } = Node::decode(guard.bytes()) else {
                unreachable!("a non-leaf page above the leaf")
            };
            let idx = entries
                .partition_point(|e| e.separator.as_slice() < key)
                .min(entries.len() - 1);
            if let Some((left_max, right_page, right_max)) = split.take() {
                entries[idx].separator = left_max;
                entries.insert(
                    idx + 1,
                    InternalEntry {
                        separator: right_max,
                        child: right_page,
                    },
                );
            } else if entries[idx].separator.as_slice() < key {
                // Insert beyond the child's max: loosen its bound.
                entries[idx].separator = key.to_vec();
            } else {
                // This separator already covers `key`, so every one above
                // it does too.
                break;
            }
            split = self.plan_node(*page, Node::Internal { entries }, &mut plan)?;
        }
        let new_root = match split {
            Some((left_max, right_page, right_max)) => {
                // Root split: grow the tree by one level.
                let new_root = self.try_allocate_pinned(&mut plan)?;
                let node = Node::Internal {
                    entries: vec![
                        InternalEntry {
                            separator: left_max,
                            child: self.root,
                        },
                        InternalEntry {
                            separator: right_max,
                            child: right_page,
                        },
                    ],
                };
                plan.writes.push((new_root, node.encode()));
                Some(new_root)
            }
            None => None,
        };
        // Apply: all or nothing.
        if let Some(cause) = self.pager.degraded() {
            return Err(PageError::ReadOnly { cause }.into());
        }
        drop(path);
        drop(plan.fresh);
        for (page, image) in &plan.writes {
            self.pager.try_write_page(self.file, *page, image)?;
        }
        if old.is_none() {
            self.len += 1;
        }
        if let Some(root) = new_root {
            self.root = root;
            self.height += 1;
        }
        Ok(old)
    }

    /// Plan the leaf edit of an insert. Returns the previous value and the
    /// split to hand up, if any.
    fn plan_leaf(
        &self,
        page: PageId,
        bytes: &[u8],
        key: &[u8],
        value: &[u8],
        table: &mut OffsetTable,
        plan: &mut Plan,
    ) -> Result<(Option<Vec<u8>>, Option<Split>), PageError> {
        let view = NodeRef::new(bytes);
        view.fill_offsets(table);
        let pos = view.partition_point(table, |k| k < key);
        let old = (pos < table.len())
            .then(|| view.leaf_entry(table, pos))
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v.to_vec());
        let used = node::leaf_used_bytes(bytes, table);
        let grown = match &old {
            Some(old) => used - old.len() + value.len(),
            None => used + LEAF_ENTRY_HEADER + key.len() + value.len(),
        };
        if grown <= PAGE_SIZE {
            let mut image = bytes.to_vec();
            let data: &mut [u8; PAGE_SIZE] = image.as_mut_slice().try_into().expect("one page");
            match old {
                Some(_) => node::leaf_replace_at(data, table, pos, value),
                None => node::leaf_insert_at(data, table, pos, key, value),
            }
            plan.writes.push((page, image));
            return Ok((old, None));
        }
        let mut leaf = Node::decode(bytes);
        let Node::Leaf { entries, .. } = &mut leaf else {
            unreachable!("the descent ends at a leaf")
        };
        match old {
            Some(_) => entries[pos].value = value.to_vec(),
            None => entries.insert(
                pos,
                LeafEntry {
                    key: key.to_vec(),
                    value: value.to_vec(),
                },
            ),
        }
        Ok((old, self.plan_node(page, leaf, plan)?))
    }

    /// Plan the write of `node` to `page`, splitting it into a freshly
    /// allocated right sibling when it overflows.
    fn plan_node(
        &self,
        page: PageId,
        mut node: Node,
        plan: &mut Plan,
    ) -> Result<Option<Split>, PageError> {
        if node.fits_in_page() {
            plan.writes.push((page, node.encode()));
            return Ok(None);
        }
        let right = node.split();
        let right_page = self.try_allocate_pinned(plan)?;
        if let Node::Leaf { next, .. } = &mut node {
            *next = Some(right_page);
        }
        let left_max = node.max_key().expect("split leaves entries").to_vec();
        let right_max = right.max_key().expect("split leaves entries").to_vec();
        debug_assert!(node.fits_in_page() && right.fits_in_page());
        plan.writes.push((page, node.encode()));
        plan.writes.push((right_page, right.encode()));
        Ok(Some((left_max, right_page, right_max)))
    }

    /// Allocate a fresh page and pin it for the rest of the plan.
    fn try_allocate_pinned(&self, plan: &mut Plan) -> Result<PageId, PageError> {
        let page = self.pager.try_allocate_page(self.file)?;
        plan.fresh.push(self.try_pin_node(page)?);
        Ok(page)
    }

    /// Remove `key`, returning its value if present. Merge-free: nodes may
    /// underflow but the tree stays ordered and searchable. Panics on a
    /// page fault; [`BTree::try_remove`] is the fallible twin.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.try_remove(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible remove. Deletes never restructure the tree: separators
    /// stay loose upper bounds (clamped routing keeps them correct), so
    /// the one write is the leaf, edited in place on a copy of its page.
    pub fn try_remove(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, PageError> {
        let mut table = OffsetTable::new();
        let (leaf, guard) = self.try_descend(&|k: &[u8]| k < key, &mut table)?;
        let view = NodeRef::new(guard.bytes());
        let pos = view.partition_point(&table, |k| k < key);
        if pos == table.len() || view.leaf_entry(&table, pos).0 != key {
            return Ok(None);
        }
        let old = view.leaf_entry(&table, pos).1.to_vec();
        let mut image = guard.bytes().to_vec();
        let data: &mut [u8; PAGE_SIZE] = image.as_mut_slice().try_into().expect("one page");
        node::leaf_remove_at(data, &table, pos);
        drop(guard);
        self.pager.try_write_page(self.file, leaf, &image)?;
        self.len -= 1;
        Ok(Some(old))
    }

    /// Insert a batch of entries in order. Returns the number of *fresh*
    /// keys inserted. On a page fault the batch stops with the typed
    /// error; the entries before it remain (inserts are independent and
    /// idempotent to re-apply).
    pub fn try_batch_insert(&mut self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<u64, BTreeError> {
        let mut fresh = 0u64;
        for (k, v) in entries {
            if self.try_insert(k, v)?.is_none() {
                fresh += 1;
            }
        }
        Ok(fresh)
    }

    /// Panicking twin of [`BTree::try_batch_insert`].
    pub fn batch_insert(&mut self, entries: &[(Vec<u8>, Vec<u8>)]) -> u64 {
        match self.try_batch_insert(entries) {
            Ok(fresh) => fresh,
            Err(e) => panic!("{e}"),
        }
    }

    /// Ordered cursor positioned at the first entry with key ≥ `key`.
    pub fn seek(&self, key: &[u8]) -> crate::Cursor<'_> {
        crate::Cursor::seek(self, key)
    }

    /// Fallible twin of [`BTree::seek`].
    pub fn try_seek(&self, key: &[u8]) -> Result<crate::Cursor<'_>, PageError> {
        crate::Cursor::try_seek(self, key)
    }

    /// Cursor positioned at the first entry whose key does not satisfy the
    /// monotone predicate `before` (see [`crate::Cursor::seek_by`] for the
    /// contract).
    pub fn seek_by(&self, before: impl Fn(&[u8]) -> bool) -> crate::Cursor<'_> {
        crate::Cursor::seek_by(self, before)
    }

    /// Fallible twin of [`BTree::seek_by`].
    pub fn try_seek_by(
        &self,
        before: impl Fn(&[u8]) -> bool,
    ) -> Result<crate::Cursor<'_>, PageError> {
        crate::Cursor::try_seek_by(self, before)
    }

    /// Cursor over the whole tree from the first entry.
    pub fn scan(&self) -> crate::Cursor<'_> {
        crate::Cursor::seek(self, &[])
    }

    /// Fallible twin of [`BTree::scan`].
    pub fn try_scan(&self) -> Result<crate::Cursor<'_>, PageError> {
        crate::Cursor::try_seek(self, &[])
    }

    /// Structural invariant check used by tests and debug assertions: key
    /// order within/between nodes and separator correctness.
    pub fn check_invariants(&self) {
        let mut leaf_keys = Vec::new();
        self.check_rec(self.root, None, &mut leaf_keys);
        for w in leaf_keys.windows(2) {
            assert!(w[0] < w[1], "leaf keys must be strictly increasing");
        }
        assert_eq!(leaf_keys.len() as u64, self.len(), "len bookkeeping");
    }

    fn check_rec(&self, page: PageId, upper: Option<&[u8]>, out: &mut Vec<Vec<u8>>) {
        let node = self
            .pager
            .try_with_page(self.file, page, Node::decode)
            .unwrap_or_else(|e| panic!("{e}"));
        match node {
            Node::Leaf { entries, .. } => {
                for e in &entries {
                    if let Some(u) = upper {
                        assert!(e.key.as_slice() <= u, "leaf key exceeds separator");
                    }
                    out.push(e.key.clone());
                }
            }
            Node::Internal { entries } => {
                assert!(!entries.is_empty(), "internal node may not be empty");
                for e in &entries {
                    if let Some(u) = upper {
                        assert!(
                            e.separator.as_slice() <= u,
                            "separator exceeds parent bound"
                        );
                    }
                    self.check_rec(e.child, Some(&e.separator), out);
                }
            }
        }
    }
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("len", &self.len())
            .field("height", &self.height())
            .field("pages", &self.pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagestore::{Clock, FaultConfig, FaultStorage};

    fn tree() -> BTree {
        BTree::create(Pager::with_cache_bytes(1 << 20))
    }

    /// A retry clock that never sleeps, for fault sweeps.
    struct NoSleep;
    impl Clock for NoSleep {
        fn sleep(&self, _d: std::time::Duration) {}
    }

    #[test]
    fn empty_tree_lookups() {
        let t = tree();
        assert!(t.is_empty());
        assert_eq!(t.get(b"nope"), None);
        assert!(!t.contains_key(b"nope"));
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = tree();
        assert_eq!(t.insert(b"alpha", b"1").unwrap(), None);
        assert_eq!(t.insert(b"beta", b"2").unwrap(), None);
        assert_eq!(t.get(b"alpha"), Some(b"1".to_vec()));
        assert_eq!(t.insert(b"alpha", b"one").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"alpha"), Some(b"one".to_vec()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn thousands_of_inserts_split_and_stay_ordered() {
        let mut t = tree();
        let n = 5000u32;
        // Insert in a shuffled-ish order (stride walk).
        let mut k = 0u32;
        for _ in 0..n {
            k = (k + 2654435761u32.wrapping_mul(7)) % n;
            while t
                .insert(format!("key{k:08}").as_bytes(), &k.to_le_bytes())
                .unwrap()
                .is_some()
            {
                k = (k + 1) % n;
            }
        }
        assert_eq!(t.len(), n as u64);
        assert!(t.height() > 1, "tree must have split");
        t.check_invariants();
        for probe in [0u32, 1, n / 2, n - 1] {
            assert_eq!(
                t.get(format!("key{probe:08}").as_bytes()),
                Some(probe.to_le_bytes().to_vec())
            );
        }
    }

    #[test]
    fn sequential_inserts() {
        // Every insert lands beyond the current max key, so each one grows
        // the separators along the rightmost path.
        let mut t = tree();
        for i in 0..5000u32 {
            t.insert(&i.to_be_bytes(), &[0u8; 32]).unwrap();
        }
        assert!(t.height() > 1, "tree must have split");
        t.check_invariants();
        for probe in [0u32, 1, 2500, 4999] {
            assert_eq!(t.get(&probe.to_be_bytes()), Some(vec![0u8; 32]));
        }
        assert_eq!(t.get(&5000u32.to_be_bytes()), None);
    }

    #[test]
    fn remove_then_get() {
        let mut t = tree();
        for i in 0..100u32 {
            t.insert(&i.to_be_bytes(), b"v").unwrap();
        }
        assert_eq!(t.remove(&50u32.to_be_bytes()), Some(b"v".to_vec()));
        assert_eq!(t.remove(&50u32.to_be_bytes()), None);
        assert_eq!(t.get(&50u32.to_be_bytes()), None);
        assert_eq!(t.len(), 99);
        t.check_invariants();
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = tree();
        let err = t.insert(&[1u8; 100], &vec![0u8; 4096]).unwrap_err();
        assert!(matches!(err, BTreeError::EntryTooLarge { .. }));
    }

    #[test]
    fn large_values_near_limit() {
        let mut t = tree();
        for i in 0..50u32 {
            let v = vec![i as u8; MAX_ENTRY_BYTES - 4];
            t.insert(&i.to_be_bytes(), &v).unwrap();
        }
        t.check_invariants();
        assert_eq!(t.get(&7u32.to_be_bytes()).unwrap()[0], 7);
    }

    #[test]
    fn insert_remove_agree_with_btreemap_oracle() {
        // Inserts, overwrites with shorter and longer values, removes and
        // small batches against a `BTreeMap`: every return value and the
        // final contents must agree. Values up to 1 KiB grow the tree to
        // three levels, so leaf and internal splits and a root split all
        // happen along the way.
        let mut t = tree();
        let mut oracle = std::collections::BTreeMap::new();
        let mut k = 7u32;
        let mut next_key = |step: u32| {
            k = k.wrapping_mul(2654435761).wrapping_add(step) % 6000;
            format!("key{k:06}").into_bytes()
        };
        for step in 0..4000u32 {
            let key = next_key(step);
            let val = vec![step as u8; (step as usize * 37) % 1024];
            if step % 5 == 4 {
                let removed = t.try_remove(&key).unwrap();
                assert_eq!(removed, oracle.remove(&key), "remove at step {step}");
            } else if step % 50 == 3 {
                let batch: Vec<(Vec<u8>, Vec<u8>)> = (0..16u32)
                    .map(|i| (next_key(step ^ i), val.clone()))
                    .collect();
                let fresh = batch
                    .iter()
                    .filter(|(k, v)| oracle.insert(k.clone(), v.clone()).is_none())
                    .count() as u64;
                assert_eq!(
                    t.try_batch_insert(&batch).unwrap(),
                    fresh,
                    "batch at step {step}"
                );
            } else {
                let old = t.try_insert(&key, &val).unwrap();
                assert_eq!(old, oracle.insert(key, val), "insert at step {step}");
            }
        }
        assert!(
            t.height() >= 3,
            "height {} misses internal splits",
            t.height()
        );
        assert_eq!(t.len(), oracle.len() as u64);
        t.check_invariants();
        let got: Vec<_> = t.scan().collect();
        let want: Vec<_> = oracle.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn degraded_pool_insert_returns_typed_error() {
        let (storage, handle) = FaultStorage::create(FaultConfig::default()).unwrap();
        // Tiny cache: growth forces eviction write-backs.
        let pager = Pager::with_storage(storage, 8 * PAGE_SIZE);
        pager.set_retry_clock(std::sync::Arc::new(NoSleep));
        let mut t = BTree::create(pager);
        for i in 0..64u32 {
            t.try_insert(&i.to_be_bytes(), &[3u8; 64]).unwrap();
        }
        // Every write from here on fails even through retries: the next
        // eviction write-back exhausts them and degrades the pool.
        let ops = handle.ops();
        handle.set_fault_config(FaultConfig {
            transient_writes: (ops..ops + 1_000_000).collect(),
            ..FaultConfig::default()
        });
        let mut failure = None;
        for i in 64..4096u32 {
            if let Err(e) = t.try_insert(&i.to_be_bytes(), &[3u8; 64]) {
                failure = Some(e);
                break;
            }
        }
        let err = failure.expect("a failing medium must surface on insert");
        assert!(
            matches!(err, BTreeError::Page(PageError::ReadOnly { .. })),
            "want ReadOnly, got {err:?}"
        );
        assert!(t.pager().degraded().is_some());
        // Degraded-pool mutations are typed refusals, never panics…
        let err = t.try_remove(&7u32.to_be_bytes()).unwrap_err();
        assert!(matches!(err, PageError::ReadOnly { .. }), "got {err:?}");
        // …and reads still serve from the (unevictable dirty) cache.
        assert_eq!(t.try_get(&7u32.to_be_bytes()).unwrap(), Some(vec![3u8; 64]));
    }

    #[test]
    fn degrade_mid_split_never_loses_acked_keys() {
        // Sweep the point where the medium dies across a stretch of
        // inserts on a 6-frame pool, so that for some offsets the failing
        // eviction write-back lands inside a split: while the parent is
        // fetched, or while a sibling page is allocated. An insert must
        // then either land whole or leave the tree as it was; every key
        // acknowledged before the failure stays readable.
        let key = |i: u32| i.wrapping_mul(2_654_435_761).to_be_bytes();
        let value = [5u8; 200];
        for d in 0..160u64 {
            let (storage, handle) = FaultStorage::create(FaultConfig::default()).unwrap();
            let pager = Pager::with_storage(storage, 6 * PAGE_SIZE);
            pager.set_retry_clock(std::sync::Arc::new(NoSleep));
            let mut t = BTree::create(pager);
            let mut acked: Vec<[u8; 4]> = (0..200).map(key).collect();
            for k in &acked {
                t.try_insert(k, &value).unwrap();
            }
            let ops = handle.ops() + d;
            handle.set_fault_config(FaultConfig {
                transient_writes: (ops..ops + 1000).collect(),
                ..FaultConfig::default()
            });
            for i in 200..2000 {
                match t.try_insert(&key(i), &value) {
                    Ok(old) => {
                        assert_eq!(old, None, "d = {d}: keys are distinct");
                        acked.push(key(i));
                    }
                    Err(_) => break,
                }
            }
            assert!(t.pager().degraded().is_some(), "d = {d}: no fault fired");
            assert_eq!(
                t.len(),
                acked.len() as u64,
                "d = {d}: len counts a failed insert"
            );
            for k in &acked {
                let got = t.try_get(k).unwrap();
                assert_eq!(
                    got.as_deref(),
                    Some(&value[..]),
                    "d = {d}: acked key {k:?} lost"
                );
            }
            acked.sort_unstable();
            let scanned: Vec<Vec<u8>> = t.scan().map(|(k, _)| k).collect();
            let want: Vec<Vec<u8>> = acked.iter().map(|k| k.to_vec()).collect();
            assert_eq!(scanned, want, "d = {d}: scan disagrees");
        }
    }
}
