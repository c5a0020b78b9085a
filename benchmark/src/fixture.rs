//! What every workload starts from: the seeded inputs (dataset, query
//! pool, insert stream), a scratch directory that removes itself, and the
//! sharded service built on real `FileStorage` in it.

use crate::trace::{TimedRawFile, TimedStorage, Tracer};
use datagen::{Dataset, QueryKind, Record, SyntheticSpec, WorkloadSpec};
use pagestore::{FileId, FileStorage, OsFile, PageId, Pager, PAGE_SIZE};
use service::{PlannerMode, Query, Service, ServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const SHARDS: usize = 2;
/// Query-set sizes of the pool's cells; with the three predicates, 9 cells.
const QS_SIZES: [usize; 3] = [2, 4, 8];
pub const CELLS: usize = 9;

/// The seeded inputs of one run. The program under test sees only these.
pub struct Inputs {
    pub dataset: Dataset,
    /// Cell-interleaved: entry `i` belongs to cell `i % 9`, so any run of
    /// consecutive entries is an even mix of predicates and sizes.
    pub pool: Vec<Query>,
    /// Fresh records, ids ascending from just above the dataset's.
    pub inserts: Vec<Record>,
    pub generate_s: f64,
}

/// splitmix64: turns the driver's small seeds into well-spread ones.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `scale` divides the paper's 10 M records, as everywhere in the repo.
pub fn generate(seed: u64, scale: usize, per_cell: usize, inserts: usize) -> Inputs {
    let t0 = Instant::now();
    let spec = SyntheticSpec {
        seed: mix(seed, 0),
        ..SyntheticSpec::paper_default(scale)
    };
    let dataset = spec.generate();
    let generate_s = t0.elapsed().as_secs_f64();

    let mut cells: Vec<Vec<Query>> = Vec::with_capacity(CELLS);
    for kind in QueryKind::ALL {
        for qs_size in QS_SIZES {
            let drawn = WorkloadSpec {
                kind,
                qs_size,
                count: per_cell,
                seed: mix(seed, 1 + cells.len() as u64),
            }
            .generate(&dataset);
            assert_eq!(
                drawn.queries.len(),
                per_cell,
                "the dataset supports every cell"
            );
            cells.push(
                drawn
                    .queries
                    .into_iter()
                    .map(|qs| Query::new(kind, qs))
                    .collect(),
            );
        }
    }
    let pool = (0..per_cell * CELLS)
        .map(|i| cells[i % CELLS][i / CELLS].clone())
        .collect();

    // The insert stream is a second draw from the same distribution,
    // re-numbered to sit above every indexed id.
    let base = dataset.records.len() as u64;
    let inserts = SyntheticSpec {
        num_records: inserts,
        seed: mix(seed, 100),
        ..spec
    }
    .generate()
    .records
    .into_iter()
    .map(|r| Record {
        id: base + r.id,
        items: r.items,
    })
    .collect();

    Inputs {
        dataset,
        pool,
        inserts,
        generate_s,
    }
}

/// Bytes a user hands over per record: an 8-byte id and 4 bytes per item.
pub fn user_bytes(records: &[Record]) -> u64 {
    records.iter().map(|r| 8 + 4 * r.items.len() as u64).sum()
}

/// The benchmark's files live under `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

/// A per-process data directory, removed on drop — so on success, on a
/// failed check and on a panic alike.
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    /// `tag` tells apart directories of one process (parallel tests).
    pub fn create(tag: &str) -> std::io::Result<DataDir> {
        let path = out_dir().join(format!("data-{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

pub fn config(cache_bytes: usize) -> ServiceConfig {
    ServiceConfig::new()
        .shards(SHARDS)
        .threads_per_shard(1)
        .planner(PlannerMode::Cost)
        .cache_bytes(cache_bytes)
}

fn wal_file(dir: &Path, shard: usize, truncate: bool) -> std::io::Result<OsFile> {
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(truncate)
        .open(dir.join(format!("shard-{shard}.wal")))?;
    Ok(OsFile::new(file))
}

/// Build → persist → drop → reopen, the way a deployment starts: the
/// service the workloads drive has been through a restart. With a tracer,
/// the same steps run through `build_on` / `open_on` over the timed
/// wrappers — `Service::build_dir` and `open_dir` with the storage and the
/// WAL file swapped for pass-throughs.
pub fn build_service(
    dir: &Path,
    dataset: &Dataset,
    cache_bytes: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Service, String> {
    let cfg = config(cache_bytes);
    let err = |e: &dyn std::fmt::Display| format!("setting up the service: {e}");
    let Some(tracer) = tracer else {
        let svc = Service::build_dir(dataset, cfg.clone(), dir).map_err(|e| err(&e))?;
        svc.persist().map_err(|e| err(&e))?;
        drop(svc);
        return Service::open_dir(dir, cfg)
            .ok_or_else(|| err(&"the persisted service did not reopen"));
    };
    std::fs::create_dir_all(dir).map_err(|e| err(&e))?;
    let db = |i: usize| dir.join(format!("shard-{i}.db"));
    let attach = |svc: &mut Service, truncate: bool| -> Result<(), String> {
        for i in 0..SHARDS {
            let wal = wal_file(dir, i, truncate).map_err(|e| err(&e))?;
            svc.attach_wal(i, Box::new(TimedRawFile::new(wal, i, tracer.clone())))
                .map_err(|e| err(&e))?;
        }
        Ok(())
    };
    let mut pagers = Vec::new();
    for i in 0..SHARDS {
        let storage = FileStorage::create(db(i)).map_err(|e| err(&e))?;
        pagers.push(Pager::with_storage(
            TimedStorage::new(storage, i, tracer.clone()),
            cache_bytes,
        ));
    }
    let mut svc = Service::build_on(dataset, cfg.clone(), pagers);
    attach(&mut svc, true)?;
    svc.persist().map_err(|e| err(&e))?;
    drop(svc);
    let mut pagers = Vec::new();
    for i in 0..SHARDS {
        let storage = FileStorage::open(db(i)).map_err(|e| err(&e))?;
        pagers.push(Pager::with_storage(
            TimedStorage::new(storage, i, tracer.clone()),
            cache_bytes,
        ));
    }
    let mut svc = Service::open_on(pagers, cfg)
        .ok_or_else(|| err(&"the persisted service did not reopen"))?;
    attach(&mut svc, false)?;
    Ok(svc)
}

/// Fault every page of every shard into its pool, in file order. With a
/// pool larger than the shard file, no later read misses.
pub fn prewarm(svc: &Service) {
    for s in 0..svc.num_shards() {
        warm_pager(svc.shard_pager(s));
    }
}

/// Every `(file, page)` of a pager, in file order.
pub fn all_pages(pager: &Pager) -> Vec<(FileId, PageId)> {
    let total = pager.disk_bytes() / PAGE_SIZE as u64;
    let mut pages = Vec::with_capacity(total as usize);
    let mut file = 0;
    // `Pager` does not say how many files it holds; their lengths add up
    // to the page total, so walk file ids until they do.
    while (pages.len() as u64) < total {
        let len = pager.file_len(FileId(file));
        pages.extend((0..len).map(|p| (FileId(file), p)));
        file += 1;
    }
    pages
}

pub fn warm_pager(pager: &Pager) {
    for (file, page) in all_pages(pager) {
        drop(pager.pin_page(file, page));
    }
}
