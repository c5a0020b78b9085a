//! Layer probes: each layer's public functions called directly, from one
//! thread, on shard 0's slice of the run's own dataset. Pools are warm
//! unless the metric says cold. They give the per-layer unit costs the
//! in-situ spans cannot see from outside the crates.
//!
//! The index probes open a *copy* of the persisted service directory, so
//! they see exactly the files a reopened service serves from and may
//! scribble on them.

use crate::fixture::{self, Inputs};
use crate::report::Metric;
use crate::stats;
use btree::{BTree, BulkLoader};
use codec::postings::encode_postings;
use codec::{CountAccumulator, Posting, PostingsDecoder};
use datagen::{QueryKind, Record};
use heapfile::HeapFile;
use invfile::InvertedFile;
use oif::{ContainmentIndex, Oif};
use pagestore::{FileId, FileStorage, OsFile, PageError, PageId, Pager, Wal, PAGE_SIZE};
use service::{shard_of, IndexKind, Query, Service};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use ubtree::UnorderedBTree;

const WARM_POOL: usize = 128 << 20;
const COLD_POOL: usize = 32 << 10;
/// Queries per predicate timed against each structure.
const QUERIES_PER_KIND: usize = 150;

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Mean nanoseconds per unit of `units` for one call of `work`.
fn ns_per(units: usize, work: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    work();
    t0.elapsed().as_secs_f64() * 1e9 / units.max(1) as f64
}

type Failure = String;

fn fail(what: &str, e: impl std::fmt::Display) -> Failure {
    format!("layer probe, {what}: {e}")
}

/// The three structures of one shard, opened straight from its file.
struct ShardIndexes {
    pager: Pager,
    oif: Oif,
    inv: InvertedFile,
    ub: UnorderedBTree,
}

impl ShardIndexes {
    fn open(dir: &Path, shard: usize, cache_bytes: usize) -> Result<ShardIndexes, Failure> {
        let storage = FileStorage::open(dir.join(format!("shard-{shard}.db")))
            .map_err(|e| fail("opening the shard copy", e))?;
        let pager = Pager::with_storage(storage, cache_bytes);
        let missing = |what| fail("opening the shard copy", format!("no persisted {what}"));
        Ok(ShardIndexes {
            oif: Oif::open(pager.clone()).ok_or_else(|| missing("oif"))?,
            inv: InvertedFile::open(pager.clone()).ok_or_else(|| missing("invfile"))?,
            ub: UnorderedBTree::open(pager.clone()).ok_or_else(|| missing("ubtree"))?,
            pager,
        })
    }

    fn eval(&self, index: IndexKind, q: &Query) -> Result<Vec<u64>, PageError> {
        match index {
            IndexKind::Oif => self.oif.try_eval(q.kind, &q.qs),
            IndexKind::InvertedFile => ContainmentIndex::try_eval(&self.inv, q.kind, &q.qs),
            IndexKind::UnorderedBTree => ContainmentIndex::try_eval(&self.ub, q.kind, &q.qs),
        }
    }
}

/// The crate that implements each structure names its layer.
fn layer(index: IndexKind) -> &'static str {
    match index {
        IndexKind::Oif => "core",
        IndexKind::InvertedFile => "invfile",
        IndexKind::UnorderedBTree => "ubtree",
    }
}

fn codec_probes(shard0: &[&Record], out: &mut Vec<Metric>) -> Result<(), Failure> {
    // Item 0 is the most frequent; its list is the longest one decoded.
    let postings: Vec<Posting> = shard0
        .iter()
        .filter(|r| r.items.first() == Some(&0))
        .map(|r| Posting::new(r.id + 1, r.items.len() as u32))
        .collect();
    const ROUNDS: usize = 40;
    let n = postings.len() * ROUNDS;
    let encoded = encode_postings(&postings);
    out.push(Metric::new(
        "codec.encode.ns_per_posting",
        ns_per(n, || {
            for _ in 0..ROUNDS {
                black_box(encode_postings(black_box(&postings)));
            }
        }),
        "ns",
    ));
    let mut decoded = 0usize;
    let mut broken = None;
    let decode_ns = ns_per(n, || {
        for _ in 0..ROUNDS {
            let mut d = PostingsDecoder::new(black_box(&encoded));
            loop {
                match d.next_posting() {
                    Ok(Some(p)) => {
                        black_box(p);
                        decoded += 1;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        broken = Some(e);
                        break;
                    }
                }
            }
        }
    });
    if let Some(e) = broken {
        return Err(fail("decoding a list just encoded", e));
    }
    if decoded != n {
        return Err(fail(
            "decoding",
            format!("{decoded} of {n} postings came back"),
        ));
    }
    out.push(Metric::new("codec.decode.ns_per_posting", decode_ns, "ns"));
    out.push(Metric::new(
        "codec.decode.mb_per_s",
        encoded.len() as f64 / postings.len().max(1) as f64 / decode_ns * 1e3,
        "MB/s",
    ));
    let mut acc = CountAccumulator::new();
    out.push(Metric::new(
        "codec.accum.ns_per_add",
        ns_per(n, || {
            for _ in 0..ROUNDS {
                acc.clear();
                for p in &postings {
                    acc.add(p.id, p.len);
                }
                black_box(acc.len());
            }
        }),
        "ns",
    ));
    Ok(())
}

fn pool_probes(dir: &Path, out: &mut Vec<Metric>) -> Result<(), Failure> {
    let open = |cache| -> Result<Pager, Failure> {
        let storage = FileStorage::open(dir.join("shard-0.db"))
            .map_err(|e| fail("opening the shard copy", e))?;
        Ok(Pager::with_storage(storage, cache))
    };
    // Visit pages a prime stride apart: every page, never a neighbour, so
    // the cold pool can keep none of them and its sequential-read detection
    // sees none.
    let strided = |pages: &[(FileId, PageId)], pins: usize, pager: &Pager| {
        let stride = (7919 % pages.len()).max(1);
        let mut at = 0;
        for _ in 0..pins {
            let (file, page) = pages[at];
            black_box(pager.pin_page(file, page).bytes()[0]);
            at = (at + stride) % pages.len();
        }
    };
    let warm = open(WARM_POOL)?;
    fixture::warm_pager(&warm);
    let pages = fixture::all_pages(&warm);
    let hits = 400_000;
    out.push(Metric::new(
        "pagestore.pool.pin_hit_ns",
        ns_per(hits, || strided(&pages, hits, &warm)),
        "ns",
    ));
    let cold = open(COLD_POOL)?;
    let misses = 20_000;
    let ns = ns_per(misses, || strided(&pages, misses, &cold));
    out.push(Metric::new("pagestore.pool.pin_miss_us", ns / 1e3, "us"));
    Ok(())
}

fn commit_probes(dir: &Path, out: &mut Vec<Metric>) -> Result<(), Failure> {
    let storage =
        FileStorage::create(dir.join("commit.db")).map_err(|e| fail("creating commit.db", e))?;
    let pager = Pager::with_storage(storage, 4 << 20);
    let file = pager.create_file();
    const PAGES: u64 = 256;
    let page = [0xA5u8; PAGE_SIZE];
    for _ in 0..PAGES {
        pager.allocate_page(file);
    }
    let mut per_page = Vec::new();
    for _ in 0..7 {
        for p in 0..PAGES {
            pager.write_page(file, p, &page);
        }
        let t0 = Instant::now();
        pager.sync().map_err(|e| fail("Pager::sync", e))?;
        per_page.push(us_since(t0) / PAGES as f64);
    }
    out.push(Metric::new(
        "pagestore.commit.sync_us_per_page",
        stats::median(&per_page),
        "us",
    ));
    let mut group = Vec::new();
    for i in 0..60 {
        pager.write_page(file, i % PAGES, &page);
        let t0 = Instant::now();
        pager
            .group_sync()
            .map_err(|e| fail("Pager::group_sync", e))?;
        group.push(us_since(t0));
    }
    out.push(Metric::new(
        "pagestore.commit.group_sync_us",
        stats::median(&group),
        "us",
    ));
    let log = std::fs::File::create(dir.join("probe.wal")).map_err(|e| fail("probe.wal", e))?;
    let mut wal = Wal::create(Box::new(OsFile::new(log))).map_err(|e| fail("Wal::create", e))?;
    let payload = [7u8; 60];
    let mut appends = Vec::new();
    for _ in 0..300 {
        let t0 = Instant::now();
        wal.append(&payload).map_err(|e| fail("Wal::append", e))?;
        wal.sync().map_err(|e| fail("Wal::sync", e))?;
        appends.push(us_since(t0));
    }
    out.push(Metric::new(
        "pagestore.wal.append_fsync_us",
        stats::median(&appends),
        "us",
    ));
    Ok(())
}

fn tree_probes(dir: &Path, shard0: &[&Record], out: &mut Vec<Metric>) -> Result<(), Failure> {
    let storage =
        FileStorage::create(dir.join("tree.db")).map_err(|e| fail("creating tree.db", e))?;
    let pager = Pager::with_storage(storage, WARM_POOL);
    // A record store: big-endian id → the record's items.
    let value = |r: &Record| -> Vec<u8> { r.items.iter().flat_map(|i| i.to_le_bytes()).collect() };
    let (bulk, fresh) = shard0.split_at(shard0.len() - shard0.len() / 20);
    let mut loader = BulkLoader::new(pager.clone());
    for r in bulk {
        loader
            .push(&r.id.to_be_bytes(), &value(r))
            .map_err(|e| fail("BulkLoader::push", e))?;
    }
    let mut tree: BTree = loader.finish();
    let n = bulk.len();
    let stride = (7919 % n).max(1);
    let keys: Vec<[u8; 8]> = (0..n)
        .map(|i| bulk[i * stride % n].id.to_be_bytes())
        .collect();
    out.push(Metric::new(
        "btree.get_ns",
        ns_per(n, || {
            for k in &keys {
                black_box(tree.get(k));
            }
        }),
        "ns",
    ));
    out.push(Metric::new(
        "btree.seek_ns",
        ns_per(n, || {
            for k in &keys {
                black_box(tree.seek(k).peek().map(|(k, _)| k.len()));
            }
        }),
        "ns",
    ));
    let mut scanned = 0;
    let scan_ns = ns_per(n, || {
        let mut cursor = tree.scan();
        while let Some((k, v)) = cursor.peek() {
            black_box((k.len(), v.len()));
            scanned += 1;
            cursor.advance();
        }
    });
    if scanned != n {
        return Err(fail("BTree::scan", format!("{scanned} of {n} entries")));
    }
    out.push(Metric::new("btree.scan_ns_per_entry", scan_ns, "ns"));
    let mut broken = None;
    let insert_ns = ns_per(fresh.len(), || {
        for r in fresh {
            if let Err(e) = tree.insert(&r.id.to_be_bytes(), &value(r)) {
                broken = Some(e);
                return;
            }
        }
    });
    if let Some(e) = broken {
        return Err(fail("BTree::insert", e));
    }
    out.push(Metric::new("btree.insert_us", insert_ns / 1e3, "us"));

    // The 64 longest inverted lists, as the inverted file stores them.
    let mut heap = HeapFile::create(pager);
    let mut bytes = 0usize;
    for item in 0..64u32 {
        let list: Vec<Posting> = shard0
            .iter()
            .filter(|r| r.items.binary_search(&item).is_ok())
            .map(|r| Posting::new(r.id + 1, r.items.len() as u32))
            .collect();
        let blob = encode_postings(&list);
        bytes += blob.len();
        heap.put(item, &blob);
    }
    const ROUNDS: usize = 20;
    let mut buf = Vec::new();
    let ns = ns_per(bytes * ROUNDS / 1024, || {
        for _ in 0..ROUNDS {
            for item in 0..64u32 {
                black_box(heap.read_into(item, &mut buf));
            }
        }
    });
    out.push(Metric::new("heapfile.read_ns_per_kib", ns, "ns"));
    Ok(())
}

/// Median latency per predicate of one structure on the warm shard copy.
fn index_latencies(
    shard: &ShardIndexes,
    index: IndexKind,
    sample: &[&Query],
    out: &mut Vec<Metric>,
) -> Result<(), Failure> {
    for kind in QueryKind::ALL {
        let mut us = Vec::new();
        for q in sample.iter().filter(|q| q.kind == kind) {
            let t0 = Instant::now();
            let ids = shard.eval(index, q).map_err(|e| fail(layer(index), e))?;
            us.push(us_since(t0));
            black_box(ids);
        }
        out.push(Metric::new(
            format!("{}.{}_us", layer(index), kind.name()),
            stats::median(&us),
            "us",
        ));
    }
    Ok(())
}

pub fn run(dir: &Path, inputs: &Inputs) -> Result<Vec<Metric>, Failure> {
    let mut out = vec![Metric::new("datagen.generate_s", inputs.generate_s, "s")];
    let shard0: Vec<&Record> = inputs
        .dataset
        .records
        .iter()
        .filter(|r| shard_of(r.id, fixture::SHARDS) == 0)
        .collect();
    codec_probes(&shard0, &mut out)?;
    pool_probes(dir, &mut out)?;
    commit_probes(dir, &mut out)?;
    tree_probes(dir, &shard0, &mut out)?;

    // The same few hundred pool queries against each structure.
    let mut sample: Vec<&Query> = Vec::new();
    for kind in QueryKind::ALL {
        sample.extend(
            inputs
                .pool
                .iter()
                .filter(|q| q.kind == kind)
                .take(QUERIES_PER_KIND),
        );
    }
    let mut shards = Vec::new();
    for s in 0..fixture::SHARDS {
        let shard = ShardIndexes::open(dir, s, WARM_POOL)?;
        fixture::warm_pager(&shard.pager);
        shards.push(shard);
    }
    for index in IndexKind::ALL {
        index_latencies(&shards[0], index, &sample, &mut out)?;
    }
    let cold = ShardIndexes::open(dir, 0, COLD_POOL)?;
    for index in IndexKind::ALL {
        let before = cold.pager.stats().misses();
        for q in &sample {
            black_box(cold.eval(index, q).map_err(|e| fail(layer(index), e))?);
        }
        out.push(Metric::new(
            format!("{}.pages_per_query_cold", layer(index)),
            (cold.pager.stats().misses() - before) as f64 / sample.len() as f64,
            "pages",
        ));
    }
    drop(cold);

    // What the service adds to the slower shard's own evaluation.
    let svc = Service::open_dir(dir, fixture::config(WARM_POOL))
        .ok_or_else(|| fail("service", "the directory copy did not open"))?;
    fixture::prewarm(&svc);
    let plans = inputs.pool.len().max(1);
    out.push(Metric::new(
        "service.plan_ns",
        ns_per(plans, || {
            for q in &inputs.pool {
                black_box(svc.planned_kind(0, q.kind, &q.qs));
            }
        }),
        "ns",
    ));
    let mut through_service = Vec::new();
    let mut slower_shard = Vec::new();
    for q in &sample {
        let t0 = Instant::now();
        let response = svc.query(q.kind, &q.qs);
        through_service.push(us_since(t0));
        black_box(response);
        let mut slowest: f64 = 0.0;
        for (s, shard) in shards.iter().enumerate() {
            let Some(index) = svc.planned_kind(s, q.kind, &q.qs) else {
                continue;
            };
            let t0 = Instant::now();
            black_box(shard.eval(index, q).map_err(|e| fail("service", e))?);
            slowest = slowest.max(us_since(t0));
        }
        slower_shard.push(slowest);
    }
    out.push(Metric::new(
        "service.fanout_merge_us",
        stats::median(&through_service) - stats::median(&slower_shard),
        "us",
    ));
    drop(svc);

    // Last: it rewrites lists in the shard copy's pool.
    let ShardIndexes { mut inv, .. } = shards.swap_remove(0);
    let batches = inputs.inserts.chunks(64).take(5);
    let records: usize = batches.clone().map(<[Record]>::len).sum();
    let mut broken = None;
    let ns = ns_per(records, || {
        for batch in batches {
            if let Err(e) = inv.try_batch_insert(batch, 1) {
                broken = Some(e);
                return;
            }
        }
    });
    if let Some(e) = broken {
        return Err(fail("InvertedFile::try_batch_insert", e));
    }
    out.push(Metric::new(
        "invfile.batch_insert_us_per_record",
        ns / 1e3,
        "us",
    ));
    Ok(out)
}
