//! Spans recorded from outside the crates: around every client call, and
//! around every call the pool makes into its `Storage` and every call the
//! WAL makes into its `RawFile`, through two pass-through wrappers.
//!
//! One closed-loop client means exactly one client call is in flight, so a
//! storage or WAL span's parent is simply "the root span open right now".
//! Spans stay in memory until the run ends.

use pagestore::{FileId, PageId, PhysPage, RawFile, Storage, StorageError, PAGE_SIZE};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span measured. The first four are root spans (client calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Query,
    QueryBatch,
    TryInsert,
    Persist,
    ReadPhys,
    WritePhys,
    StorageSync,
    WalWriteAt,
    WalSyncAll,
}

impl SpanKind {
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Query,
        SpanKind::QueryBatch,
        SpanKind::TryInsert,
        SpanKind::Persist,
        SpanKind::ReadPhys,
        SpanKind::WritePhys,
        SpanKind::StorageSync,
        SpanKind::WalWriteAt,
        SpanKind::WalSyncAll,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "service.query",
            SpanKind::QueryBatch => "service.query_batch",
            SpanKind::TryInsert => "service.try_insert",
            SpanKind::Persist => "service.persist",
            SpanKind::ReadPhys => "pagestore.storage.read_phys",
            SpanKind::WritePhys => "pagestore.storage.write_phys",
            SpanKind::StorageSync => "pagestore.storage.sync",
            SpanKind::WalWriteAt => "pagestore.wal.write_at",
            SpanKind::WalSyncAll => "pagestore.wal.sync_all",
        }
    }
}

/// No root span: the parent of a root, and of a child recorded while no
/// client call is open (never happens in a measured phase).
pub const NO_PARENT: u32 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based id for roots; children carry 0 (nothing points at them).
    pub id: u32,
    pub parent: u32,
    pub kind: SpanKind,
    /// Shard of a storage/WAL span; 0 for roots.
    pub shard: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes moved, for the spans that move a variable amount.
    pub bytes: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span sink shared by the client loop and the wrappers.
pub struct Tracer {
    epoch: Instant,
    /// Off during build, pre-warm and checks, so only measured phases are
    /// recorded.
    enabled: AtomicBool,
    open_root: AtomicU32,
    next_root: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            open_root: AtomicU32::new(NO_PARENT),
            next_root: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the sink")
            .push(span);
    }

    /// Time one client call as a root span.
    pub fn root<R>(&self, kind: SpanKind, call: impl FnOnce() -> R) -> R {
        if !self.enabled.load(Ordering::SeqCst) {
            return call();
        }
        let id = self.next_root.fetch_add(1, Ordering::SeqCst);
        self.open_root.store(id, Ordering::SeqCst);
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.open_root.store(NO_PARENT, Ordering::SeqCst);
        self.push(Span {
            id,
            parent: NO_PARENT,
            kind,
            shard: 0,
            start_ns,
            end_ns,
            bytes: 0,
        });
        out
    }

    /// Time one call below the service as a child of the open root.
    fn child<R>(&self, kind: SpanKind, shard: u8, bytes: usize, call: impl FnOnce() -> R) -> R {
        if !self.enabled.load(Ordering::SeqCst) {
            return call();
        }
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.push(Span {
            id: 0,
            parent: self.open_root.load(Ordering::SeqCst),
            kind,
            shard,
            start_ns,
            end_ns,
            bytes: bytes as u32,
        });
        out
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink is never poisoned"))
    }
}

/// Pass-through [`Storage`] that records a span per page read, page write
/// and durability barrier. Every other call is forwarded untouched.
pub struct TimedStorage<S> {
    inner: S,
    shard: u8,
    tracer: Arc<Tracer>,
}

impl<S: Storage> TimedStorage<S> {
    pub fn new(inner: S, shard: usize, tracer: Arc<Tracer>) -> Self {
        TimedStorage {
            inner,
            shard: shard as u8,
            tracer,
        }
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
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
        self.inner.phys(file, page)
    }
    fn read_phys(&mut self, phys: PhysPage, out: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.tracer
            .child(SpanKind::ReadPhys, self.shard, PAGE_SIZE, || {
                inner.read_phys(phys, out)
            })
    }
    fn write_phys(&mut self, phys: PhysPage, data: &[u8]) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.tracer
            .child(SpanKind::WritePhys, self.shard, data.len(), || {
                inner.write_phys(phys, data)
            })
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
        let inner = &mut self.inner;
        self.tracer
            .child(SpanKind::StorageSync, self.shard, 0, || inner.sync())
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

/// Pass-through [`RawFile`] for a shard's WAL: a span per append write and
/// per fsync.
pub struct TimedRawFile<F> {
    inner: F,
    shard: u8,
    tracer: Arc<Tracer>,
}

impl<F: RawFile> TimedRawFile<F> {
    pub fn new(inner: F, shard: usize, tracer: Arc<Tracer>) -> Self {
        TimedRawFile {
            inner,
            shard: shard as u8,
            tracer,
        }
    }
}

impl<F: RawFile> RawFile for TimedRawFile<F> {
    fn read_at(&mut self, offset: u64, out: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_at(offset, out)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> std::io::Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .child(SpanKind::WalWriteAt, self.shard, data.len(), || {
                inner.write_at(offset, data)
            })
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
    fn byte_len(&mut self) -> std::io::Result<u64> {
        self.inner.byte_len()
    }
    fn sync_all(&mut self) -> std::io::Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .child(SpanKind::WalSyncAll, self.shard, 0, || inner.sync_all())
    }
}

/// Calls, busy time and bytes of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub bytes: u64,
}

pub fn totals(spans: &[Span], kind: SpanKind) -> KindTotals {
    let mut t = KindTotals::default();
    for s in spans.iter().filter(|s| s.kind == kind) {
        t.calls += 1;
        t.busy_ns += s.dur_ns();
        t.bytes += s.bytes as u64;
    }
    t
}

/// Self time of every root span of the given kinds: its duration minus the
/// part of that interval its children cover. Children of two shards run at
/// once, so their intervals are merged before subtracting — time both
/// shards spend in storage counts once against the caller, as it does on
/// the wall clock.
pub fn self_ns(spans: &[Span], kinds: &[SpanKind]) -> u64 {
    let mut children: Vec<&Span> = spans.iter().filter(|s| s.parent != NO_PARENT).collect();
    children.sort_by_key(|s| (s.parent, s.start_ns));
    let mut total = 0;
    for root in spans
        .iter()
        .filter(|s| s.parent == NO_PARENT && kinds.contains(&s.kind))
    {
        let first = children.partition_point(|c| c.parent < root.id);
        let mut covered = 0;
        let mut reach = root.start_ns;
        for c in children[first..].iter().take_while(|c| c.parent == root.id) {
            let start = c.start_ns.max(reach);
            let end = c.end_ns.min(root.end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        total += root.dur_ns() - covered;
    }
    total
}

/// Write the spans as one JSON document: a name table, then one
/// `[id, parent, kind, shard, start_ns, end_ns, bytes]` row per span.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = SpanKind::ALL
        .iter()
        .map(|k| format!("\"{}\"", k.name()))
        .collect();
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"kinds\":[{}],\
         \"columns\":[\"id\",\"parent\",\"kind\",\"shard\",\"start_ns\",\"end_ns\",\"bytes\"],\
         \"spans\":[",
        names.join(",")
    )?;
    for (i, s) in spans.iter().enumerate() {
        let kind = SpanKind::ALL
            .iter()
            .position(|&k| k == s.kind)
            .expect("every kind is listed in ALL");
        let sep = if i == 0 { "" } else { "," };
        write!(
            w,
            "{sep}\n[{},{},{kind},{},{},{},{}]",
            s.id, s.parent, s.shard, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, kind: SpanKind, shard: u8, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            kind,
            shard,
            start_ns,
            end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_merges_overlapping_shard_children() {
        let spans = [
            // Root 1 runs 0..100. Shard 0 reads 10..40, shard 1 reads
            // 30..60 (overlapping 30..40), shard 0 reads again 70..80.
            span(1, NO_PARENT, SpanKind::Query, 0, 0, 100),
            span(0, 1, SpanKind::ReadPhys, 0, 10, 40),
            span(0, 1, SpanKind::ReadPhys, 1, 30, 60),
            span(0, 1, SpanKind::ReadPhys, 0, 70, 80),
            // Root 2 has one child wholly inside another.
            span(2, NO_PARENT, SpanKind::TryInsert, 0, 200, 300),
            span(0, 2, SpanKind::WalSyncAll, 0, 210, 290),
            span(0, 2, SpanKind::WritePhys, 1, 220, 230),
            // Root 3 has no children at all.
            span(3, NO_PARENT, SpanKind::Query, 0, 400, 450),
        ];
        // Root 1: 100 − (50 + 10) = 40; root 3: 50.
        assert_eq!(self_ns(&spans, &[SpanKind::Query]), 40 + 50);
        // Root 2: 100 − 80 = 20.
        assert_eq!(self_ns(&spans, &[SpanKind::TryInsert]), 20);
        assert_eq!(
            self_ns(&spans, &[SpanKind::Query, SpanKind::TryInsert]),
            110
        );
        let reads = totals(&spans, SpanKind::ReadPhys);
        assert_eq!((reads.calls, reads.busy_ns), (3, 30 + 30 + 10));
    }

    #[test]
    fn children_are_clipped_to_their_root() {
        // A child that outlives its root (clock read after the root closed)
        // may not drive self time negative.
        let spans = [
            span(1, NO_PARENT, SpanKind::Persist, 0, 0, 100),
            span(0, 1, SpanKind::StorageSync, 0, 90, 130),
        ];
        assert_eq!(self_ns(&spans, &[SpanKind::Persist]), 90);
    }
}
