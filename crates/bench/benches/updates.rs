//! §4.4 + §5 "Performance summary" — batch update cost, IF vs OIF.
//! Prints one table row per batch size and, when the `BENCH_JSON`
//! environment variable names a file, writes the same rows as a JSON
//! array (the CI workflow emits `BENCH_updates.json` this way).
//!
//! Paper claims to reproduce:
//! * "OIF has 3-5× slower update times than IF and it behaves practically
//!   linearly to the update size as IF does."
//! * Example: inserting 200 K records into a 1M-record / 2 K-item dataset
//!   took 12 s (IF) vs 27 s (OIF) — 0.06 vs 0.135 ms per record — giving a
//!   766:1 query-to-update break-even against the measured query savings.

use bench::scale;
use datagen::{Record, SyntheticSpec};
use oif::{DeltaOif, OifConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

fn fresh_records(base: &datagen::Dataset, count: usize, seed: u64) -> Vec<Record> {
    let start = base.records.last().map_or(0, |r| r.id) + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let len = rng.random_range(2..=20usize);
            let items: Vec<u32> = (0..len)
                .map(|_| rng.random_range(0..base.vocab_size as u32))
                .collect();
            Record::new(start + i as u64, items)
        })
        .collect()
}

fn main() {
    // The paper's update experiment ran on 1M records / 2 K items.
    let s = scale();
    // Use the default scaled dataset (10M/scale) so lists are long enough
    // for the update cost to be data-dominated rather than seek-dominated.
    let base = SyntheticSpec::paper_default(s).generate();
    println!(
        "base dataset: {} records, |I| = {} (paper: 1M, ÷{s})",
        base.len(),
        base.vocab_size
    );

    let mut ratio_rows: Vec<(usize, f64, f64)> = Vec::new();
    println!(
        "\n{:>10} | {:>12} {:>14} | {:>12} {:>14} | {:>6}",
        "batch", "IF total", "IF ms/rec", "OIF total", "OIF ms/rec", "ratio"
    );
    for pct in [2usize, 5, 10, 20] {
        let count = base.len() * pct / 100;
        let batch = fresh_records(&base, count, pct as u64);

        // IF: encode the new postings and append them behind each
        // affected list's end (a full list moves to a larger run).
        // Cost = measured CPU + simulated write/read I/O.
        let mut ifile = invfile::InvertedFile::build(&base);
        ifile.pager().clear_cache();
        ifile.pager().reset_stats();
        let t0 = Instant::now();
        ifile.batch_insert(&batch);
        ifile.pager().clear_cache(); // force write-back of dirty pages
        let if_time = t0.elapsed() + ifile.pager().stats().io_time;

        // OIF: stage in the delta, then merge = re-sort + rebuild. On top
        // of the measured CPU and simulated write I/O, charge the I/O of
        // the external merge sort the paper's setting implies (a 32 KiB
        // cache cannot sort the relation in memory): one pass to read the
        // input, one to write sorted runs, one to read them back for the
        // merge that feeds the build. The in-memory `Dataset` hides those
        // costs from the wall clock.
        let mut oifx = DeltaOif::build(base.clone(), OifConfig::default());
        let t0 = Instant::now();
        oifx.batch_insert(batch.clone());
        oifx.merge();
        let pager = oifx.main().pager().clone();
        pager.clear_cache();
        let relation_pages = base.raw_bytes().div_ceil(4096);
        let pass = pagestore::IoCostModel::default().seq_read * relation_pages as u32;
        let external_sort = 3 * pass;
        let oif_time = t0.elapsed() + pager.stats().io_time + external_sort;

        println!(
            "{:>9}% | {:>12.2?} {:>11.4} ms | {:>12.2?} {:>11.4} ms | {:>5.1}x",
            pct,
            if_time,
            if_time.as_secs_f64() * 1e3 / count as f64,
            oif_time,
            oif_time.as_secs_f64() * 1e3 / count as f64,
            oif_time.as_secs_f64() / if_time.as_secs_f64(),
        );
        ratio_rows.push((
            pct,
            if_time.as_secs_f64() * 1e3 / count as f64,
            oif_time.as_secs_f64() * 1e3 / count as f64,
        ));
    }
    println!("\npaper: OIF updates 3-5x slower than IF, both linear in batch size");

    if let Some(path) = std::env::var_os("BENCH_JSON") {
        let mut json = String::from("[\n");
        for (i, (pct, if_ms, oif_ms)) in ratio_rows.iter().enumerate() {
            json.push_str(&format!(
                "  {{\"name\": \"updates/batch_{pct}pct\", \"if_ms_per_rec\": {if_ms:.4}, \
                 \"oif_ms_per_rec\": {oif_ms:.4}}}{comma}\n",
                comma = if i + 1 == ratio_rows.len() { "" } else { "," },
            ));
        }
        json.push_str("]\n");
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("cannot write BENCH_JSON {path:?}: {e}"));
    }
}
