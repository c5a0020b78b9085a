//! The traced run (`--trace 1`) and the per-layer metrics it yields.
//!
//! A traced run drives the workload twice at half length on two fresh
//! services: once plain, as the timed runs do, and once with the timed
//! wrappers under the pool and the WAL. The first leg is the reference the
//! tracing overhead is measured against; the second supplies spans and
//! counters. The layer probes then run on a copy of the persisted files.

use crate::fixture::{self, DataDir};
use crate::report::{Metric, RunReport};
use crate::trace::{self, Span, SpanKind, Tracer};
use crate::workload::{self, Leg};
use crate::{probes, stats, RunArgs};
use service::IndexKind;
use std::path::Path;

/// Name and unit of every per-layer metric, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("service.query_batch.calls", "count"),
    ("service.query_batch.busy_s", "s"),
    ("service.query_batch.self_s", "s"),
    ("service.try_insert.calls", "count"),
    ("service.try_insert.busy_s", "s"),
    ("service.try_insert.self_s", "s"),
    ("service.persist.calls", "count"),
    ("service.persist.busy_s", "s"),
    ("service.persist.self_s", "s"),
    ("service.persist.p50_ms", "ms"),
    ("service.plan.oif_share", "ratio"),
    ("service.plan.invfile_share", "ratio"),
    ("service.plan.ubtree_share", "ratio"),
    ("pagestore.storage.read_phys.calls", "count"),
    ("pagestore.storage.read_phys.busy_s", "s"),
    ("pagestore.storage.write_phys.calls", "count"),
    ("pagestore.storage.write_phys.busy_s", "s"),
    ("pagestore.storage.sync.calls", "count"),
    ("pagestore.storage.sync.busy_s", "s"),
    ("pagestore.wal.write_at.calls", "count"),
    ("pagestore.wal.write_at.busy_s", "s"),
    ("pagestore.wal.write_at.bytes", "B"),
    ("pagestore.wal.sync_all.calls", "count"),
    ("pagestore.wal.sync_all.busy_s", "s"),
    ("pagestore.pool.hits", "count"),
    ("pagestore.pool.seq_misses", "count"),
    ("pagestore.pool.random_misses", "count"),
    ("pagestore.pool.hit_ratio", "ratio"),
    ("pagestore.pool.misses_per_query", "pages"),
    ("pagestore.pool.writes", "count"),
    ("pagestore.pool.synced_pages", "count"),
    ("pagestore.pool.checkpoint_pages", "count"),
    ("pagestore.pool.fsyncs", "count"),
    ("pagestore.pool.retries", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("datagen.generate_s", "s"),
    ("codec.encode.ns_per_posting", "ns"),
    ("codec.decode.ns_per_posting", "ns"),
    ("codec.decode.mb_per_s", "MB/s"),
    ("codec.accum.ns_per_add", "ns"),
    ("pagestore.pool.pin_hit_ns", "ns"),
    ("pagestore.pool.pin_miss_us", "us"),
    ("pagestore.commit.sync_us_per_page", "us"),
    ("pagestore.commit.group_sync_us", "us"),
    ("pagestore.wal.append_fsync_us", "us"),
    ("btree.get_ns", "ns"),
    ("btree.seek_ns", "ns"),
    ("btree.scan_ns_per_entry", "ns"),
    ("btree.insert_us", "us"),
    ("heapfile.read_ns_per_kib", "ns"),
    ("core.subset_us", "us"),
    ("core.equality_us", "us"),
    ("core.superset_us", "us"),
    ("invfile.subset_us", "us"),
    ("invfile.equality_us", "us"),
    ("invfile.superset_us", "us"),
    ("ubtree.subset_us", "us"),
    ("ubtree.equality_us", "us"),
    ("ubtree.superset_us", "us"),
    ("core.pages_per_query_cold", "pages"),
    ("invfile.pages_per_query_cold", "pages"),
    ("ubtree.pages_per_query_cold", "pages"),
    ("service.plan_ns", "ns"),
    ("service.fanout_merge_us", "us"),
    ("invfile.batch_insert_us_per_record", "us"),
];

/// Traces below this share of the measured wall leave too much of the run
/// unexplained to attribute time from.
const MIN_COVERAGE: f64 = 0.95;

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The in-situ metrics: spans of the traced leg, its pool counters, and
/// the untraced leg's wall for the overhead.
fn in_situ(spans: &[Span], traced: &Leg, reference: &Leg) -> Vec<Metric> {
    let mut out = Vec::new();
    // A single query is a one-element batch inside the service; both kinds
    // of client call are reported as the service's query_batch layer.
    let query_kinds = [SpanKind::Query, SpanKind::QueryBatch];
    let roots: [(&str, &[SpanKind]); 3] = [
        ("service.query_batch", &query_kinds),
        ("service.try_insert", &[SpanKind::TryInsert]),
        ("service.persist", &[SpanKind::Persist]),
    ];
    let mut root_ns = 0;
    for (name, kinds) in roots {
        let (mut calls, mut busy) = (0, 0);
        for &k in kinds {
            let t = trace::totals(spans, k);
            calls += t.calls;
            busy += t.busy_ns;
        }
        root_ns += busy;
        out.push(Metric::new(format!("{name}.calls"), calls as f64, "count"));
        out.push(Metric::new(format!("{name}.busy_s"), seconds(busy), "s"));
        out.push(Metric::new(
            format!("{name}.self_s"),
            seconds(trace::self_ns(spans, kinds)),
            "s",
        ));
    }
    let persist_p50 = if traced.persist_ms.is_empty() {
        0.0
    } else {
        stats::median(&traced.persist_ms)
    };
    out.push(Metric::new("service.persist.p50_ms", persist_p50, "ms"));
    let planned: u64 = traced.plans.iter().sum();
    for (index, &n) in IndexKind::ALL.iter().zip(&traced.plans) {
        out.push(Metric::new(
            format!("service.plan.{}_share", index.name()),
            n as f64 / planned.max(1) as f64,
            "ratio",
        ));
    }
    for kind in [
        SpanKind::ReadPhys,
        SpanKind::WritePhys,
        SpanKind::StorageSync,
        SpanKind::WalWriteAt,
        SpanKind::WalSyncAll,
    ] {
        let t = trace::totals(spans, kind);
        out.push(Metric::new(
            format!("{}.calls", kind.name()),
            t.calls as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("{}.busy_s", kind.name()),
            seconds(t.busy_ns),
            "s",
        ));
        if kind == SpanKind::WalWriteAt {
            out.push(Metric::new(
                format!("{}.bytes", kind.name()),
                t.bytes as f64,
                "B",
            ));
        }
    }
    let io = &traced.io;
    let count =
        |name: &str, n: u64| Metric::new(format!("pagestore.pool.{name}"), n as f64, "count");
    out.push(count("hits", io.hits));
    out.push(count("seq_misses", io.seq_misses));
    out.push(count("random_misses", io.random_misses));
    out.push(Metric::new(
        "pagestore.pool.hit_ratio",
        io.hits as f64 / io.accesses().max(1) as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "pagestore.pool.misses_per_query",
        traced.query_misses as f64 / traced.queries.max(1) as f64,
        "pages",
    ));
    out.push(count("writes", io.writes));
    out.push(count("synced_pages", io.synced_pages));
    out.push(count("checkpoint_pages", io.checkpoint_pages));
    out.push(count("fsyncs", io.fsyncs));
    out.push(count("retries", io.retries));
    out.push(Metric::new(
        "trace.coverage",
        seconds(root_ns) / traced.measured_s(),
        "ratio",
    ));
    out.push(Metric::new(
        "trace.overhead",
        traced.measured_s() / reference.measured_s() - 1.0,
        "ratio",
    ));
    out
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

pub fn run_traced(args: &RunArgs) -> Result<RunReport, String> {
    let stages = args.stages();
    let (per_cell, inserts) = workload::input_sizes(&stages);
    let data = DataDir::create("run").map_err(|e| format!("creating the data directory: {e}"))?;
    let inputs = fixture::generate(args.seed, args.scale(), per_cell, inserts);
    let w = args.workload;
    let io = |e: std::io::Error| format!("traced run: {e}");

    let plain_dir = data.join("plain");
    let svc = fixture::build_service(&plain_dir, &inputs.dataset, w.cache_bytes, None)?;
    let probe_dir = data.join("probe");
    copy_dir(&plain_dir, &probe_dir).map_err(io)?;
    if w.prewarm {
        fixture::prewarm(&svc);
    }
    let reference = workload::run_leg(svc, &plain_dir, &inputs, w, &stages, args.seed, None);
    std::fs::remove_dir_all(&plain_dir).map_err(io)?;

    let tracer = Tracer::new();
    let traced_dir = data.join("traced");
    let svc = fixture::build_service(&traced_dir, &inputs.dataset, w.cache_bytes, Some(&tracer))?;
    if w.prewarm {
        fixture::prewarm(&svc);
    }
    let traced = workload::run_leg(
        svc,
        &traced_dir,
        &inputs,
        w,
        &stages,
        args.seed,
        Some(&tracer),
    );
    std::fs::remove_dir_all(&traced_dir).map_err(io)?;
    crate::print_leg(&stages, &traced);

    let spans = tracer.take_spans();
    let out = fixture::out_dir();
    trace::write_json(
        &out.join(format!("trace-{}.json", w.name)),
        w.name,
        args.seed,
        &spans,
    )
    .map_err(io)?;

    let mut metrics = in_situ(&spans, &traced, &reference);
    metrics.extend(probes::run(&probe_dir, &inputs)?);
    let by_name = |name: &str| metrics.iter().find(|m| m.name == name);
    let ordered: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, _)| {
            by_name(name)
                .cloned()
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect::<Result<_, _>>()?;

    let mut failed = reference.failed + traced.failed;
    let coverage = by_name("trace.coverage").map_or(0.0, |m| m.value);
    if coverage < MIN_COVERAGE {
        println!(
            "FAILED: root spans cover {coverage:.3} of the measured wall, below {MIN_COVERAGE}"
        );
        failed += 1;
    }
    if ordered.iter().any(|m| !m.value.is_finite()) {
        println!("FAILED: a per-layer metric is not a number");
        failed += 1;
    }
    Ok(RunReport {
        workload: w.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale(),
        traced: true,
        stages: stages.iter().map(workload::Stage::label).collect(),
        correct: failed == 0,
        attempted: reference.attempted + traced.attempted + 1,
        failed,
        metrics: ordered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::Record;
    use pagestore::IoStats;
    use service::Service;

    fn pool_stats(svc: &Service) -> Vec<IoStats> {
        (0..svc.num_shards())
            .map(|s| svc.shard_pager(s).stats())
            .collect()
    }

    /// The wrappers must be invisible to the program: the same calls over
    /// plain `FileStorage` and over `TimedStorage` / `TimedRawFile` give
    /// the same answers and the same pool counters, reads and writes both.
    #[test]
    fn timed_wrappers_pass_everything_through() {
        let data = DataDir::create("passthrough").unwrap();
        let inputs = fixture::generate(7, 2000, 6, 40);
        let tracer = Tracer::new();
        let cache = 64 << 10;
        let mut plain =
            fixture::build_service(&data.join("plain"), &inputs.dataset, cache, None).unwrap();
        let mut timed =
            fixture::build_service(&data.join("timed"), &inputs.dataset, cache, Some(&tracer))
                .unwrap();
        assert_eq!(pool_stats(&plain), pool_stats(&timed), "after set-up");
        tracer.set_enabled(true);
        for q in &inputs.pool {
            assert_eq!(plain.query(q.kind, &q.qs), timed.query(q.kind, &q.qs));
        }
        for r in &inputs.inserts {
            let one: &[Record] = std::slice::from_ref(r);
            assert_eq!(plain.try_insert(one), timed.try_insert(one));
        }
        plain.persist().unwrap();
        timed.persist().unwrap();
        for q in &inputs.pool {
            assert_eq!(plain.query(q.kind, &q.qs), timed.query(q.kind, &q.qs));
        }
        assert_eq!(pool_stats(&plain), pool_stats(&timed), "after the stream");

        // And the wrappers did see the traffic they passed on.
        let spans = tracer.take_spans();
        let misses: u64 = pool_stats(&timed).iter().map(IoStats::misses).sum();
        assert!(misses > 0);
        let reads = trace::totals(&spans, SpanKind::ReadPhys).calls;
        assert!(
            reads > 0 && reads <= misses,
            "{reads} reads, {misses} misses"
        );
        let fsyncs = trace::totals(&spans, SpanKind::WalSyncAll).calls;
        assert!(fsyncs >= inputs.inserts.len() as u64);
        assert!(trace::totals(&spans, SpanKind::StorageSync).calls >= 2);
    }
}
