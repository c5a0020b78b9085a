//! Index construction.

use crate::index::InvertedFile;
use codec::postings::{Compression, PostingsEncoder};
use datagen::Dataset;
use pagestore::Pager;

/// Build an inverted file over `dataset` on `pager`'s disk.
///
/// Lists are written item by item, each in one contiguous page run — the
/// physically ideal layout the paper assumes for the IF baseline.
pub fn build(dataset: &Dataset, pager: Pager, compression: Compression) -> InvertedFile {
    // Record ids must be strictly increasing for the d-gap encoding; all
    // generators in this workspace satisfy that.
    let mut prev = None;
    for r in &dataset.records {
        if let Some(p) = prev {
            assert!(r.id > p, "record ids must be strictly increasing");
        }
        prev = Some(r.id);
    }

    // One encoder per item; postings arrive in id order by construction.
    let mut encoders: Vec<PostingsEncoder> = (0..dataset.vocab_size)
        .map(|_| PostingsEncoder::with_mode(compression))
        .collect();
    // Per-list minimum record length — lets superset evaluation skip a
    // whole list when even its shortest record is longer than the query.
    let mut min_len_per_item = vec![u32::MAX; dataset.vocab_size];
    for r in &dataset.records {
        for &item in &r.items {
            assert!(
                (item as usize) < dataset.vocab_size,
                "item {item} out of vocabulary"
            );
            min_len_per_item[item as usize] =
                min_len_per_item[item as usize].min(r.items.len() as u32);
            encoders[item as usize].push(codec::Posting::new(r.id, r.items.len() as u32));
        }
    }

    let mut store = heapfile::HeapFile::create(pager);
    let mut postings_per_item = Vec::with_capacity(dataset.vocab_size);
    let mut last_id_per_item = Vec::with_capacity(dataset.vocab_size);
    for (item, enc) in encoders.into_iter().enumerate() {
        postings_per_item.push(enc.count() as u64);
        last_id_per_item.push(enc.last_id());
        if !enc.is_empty() {
            store.put(item as u32, &enc.finish());
        }
    }

    InvertedFile {
        store,
        postings_per_item,
        min_len_per_item,
        last_id_per_item,
        num_records: dataset.records.len() as u64,
        vocab_size: dataset.vocab_size,
        compression,
        max_id: prev.unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{Dataset, SyntheticSpec};

    #[test]
    fn lists_cover_every_posting() {
        let d = SyntheticSpec {
            num_records: 2000,
            vocab_size: 100,
            zipf: 0.8,
            len_min: 2,
            len_max: 12,
            seed: 5,
        }
        .generate();
        let idx = InvertedFile::build(&d);
        let total: u64 = (0..100u32).map(|i| idx.support(i)).sum();
        assert_eq!(total, d.total_postings());
    }

    #[test]
    fn absent_items_have_empty_lists() {
        let d = Dataset::from_items(vec![vec![0, 1]], 5);
        let idx = InvertedFile::build(&d);
        assert_eq!(idx.support(4), 0);
        assert!(idx.fetch_list(4).is_empty());
    }

    #[test]
    fn compressed_lists_are_smaller_than_raw() {
        let d = SyntheticSpec {
            num_records: 5000,
            vocab_size: 100,
            zipf: 0.8,
            len_min: 2,
            len_max: 12,
            seed: 5,
        }
        .generate();
        let c = InvertedFile::builder(&d)
            .compression(Compression::VByteDGap)
            .build();
        let r = InvertedFile::builder(&d)
            .compression(Compression::Raw)
            .build();
        assert!(
            c.list_bytes() * 2 < r.list_bytes(),
            "compressed {} raw {}",
            c.list_bytes(),
            r.list_bytes()
        );
    }
}
