//! Multi-threaded stress suite: N threads × mixed subset / superset /
//! equality queries over one shared index (and hence one shared `Pager`
//! and 32 KiB buffer pool), asserting result equality with the serial
//! path.
//!
//! This is the workspace-level acceptance test of the parallel query
//! engine — written once against [`ContainmentIndex`] and run against all
//! three structures: queries are read-only, so whatever eviction
//! interleavings the shared cache goes through, every answer must be
//! bit-identical to the single-threaded evaluation.

use set_containment::datagen::{QueryKind, SyntheticSpec, WorkloadSpec};
use set_containment::invfile::InvertedFile;
use set_containment::oif::{ContainmentIndex, Oif, QueryScratch};
use set_containment::pagestore::par_map_with;
use set_containment::ubtree::UnorderedBTree;

fn dataset() -> set_containment::datagen::Dataset {
    SyntheticSpec {
        num_records: 6000,
        vocab_size: 200,
        zipf: 0.8,
        len_min: 1,
        len_max: 14,
        seed: 23,
    }
    .generate()
}

/// A mixed workload: interleaved (kind, query) pairs of all three
/// predicates and several query sizes.
fn mixed_workload(d: &set_containment::datagen::Dataset) -> Vec<(QueryKind, Vec<u32>)> {
    let mut mixed = Vec::new();
    for (i, kind) in QueryKind::ALL.into_iter().enumerate() {
        for size in [1usize, 2, 4, 7] {
            let ws = WorkloadSpec {
                kind,
                qs_size: size,
                count: 6,
                seed: (i * 31 + size) as u64,
            }
            .generate(d);
            mixed.extend(ws.queries.into_iter().map(|q| (kind, q)));
        }
    }
    // Deterministic shuffle so kinds interleave across the work queue.
    let mut x = 0x5DEECE66Du64;
    for i in (1..mixed.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        mixed.swap(i, (x % (i as u64 + 1)) as usize);
    }
    mixed
}

/// Serial evaluation of a mixed batch with one reused scratch — the
/// reference answers.
fn serial_answers<I: ContainmentIndex>(idx: &I, mixed: &[(QueryKind, Vec<u32>)]) -> Vec<Vec<u64>> {
    let mut scratch = I::Scratch::default();
    mixed
        .iter()
        .map(|(kind, q)| idx.eval_with(*kind, q, &mut scratch))
        .collect()
}

/// The generic stress driver: mixed kinds across thread counts must match
/// the serial evaluation exactly, for any `ContainmentIndex`.
fn mixed_kinds_match_serial<I: ContainmentIndex>(idx: &I, mixed: &[(QueryKind, Vec<u32>)]) {
    let serial = serial_answers(idx, mixed);
    for threads in [4usize, 8] {
        let results = par_map_with(mixed.len(), threads, I::Scratch::default, |scratch, i| {
            let (kind, q) = &mixed[i];
            idx.eval_with(*kind, q, scratch)
        });
        for (i, (got, want)) in results.iter().zip(&serial).enumerate() {
            assert_eq!(
                got, want,
                "query {i} ({:?} {:?}) diverged with {threads} threads",
                mixed[i].0, mixed[i].1
            );
        }
    }
}

#[test]
fn oif_mixed_kinds_across_threads_match_serial() {
    let d = dataset();
    mixed_kinds_match_serial(&Oif::build(&d), &mixed_workload(&d));
}

#[test]
fn invfile_mixed_kinds_across_threads_match_serial() {
    let d = dataset();
    mixed_kinds_match_serial(&InvertedFile::build(&d), &mixed_workload(&d));
}

#[test]
fn ubtree_mixed_kinds_across_threads_match_serial() {
    let d = dataset();
    mixed_kinds_match_serial(&UnorderedBTree::build(&d), &mixed_workload(&d));
}

#[test]
fn oif_par_eval_repeated_rounds_stay_identical() {
    // Repeat the batch several times over the same warm/cold cache states:
    // the shared pool's state between rounds must never leak into results.
    let d = dataset();
    let idx = Oif::build(&d);
    for kind in QueryKind::ALL {
        let ws = WorkloadSpec {
            kind,
            qs_size: 4,
            count: 16,
            seed: 77,
        }
        .generate(&d);
        let serial = idx.par_eval(kind, &ws.queries, 1);
        for round in 0..3 {
            idx.pager().clear_cache();
            let par = idx.par_eval(kind, &ws.queries, 6);
            assert_eq!(par, serial, "{kind:?} round {round}");
        }
    }
}

#[test]
fn both_indexes_share_threads_against_brute_force() {
    // Belt and braces: concurrent answers are not just serial-consistent
    // but *correct* — spot-check a slice of the mixed workload against the
    // brute-force oracle while threads hammer both indexes.
    use set_containment::datagen::brute;
    let d = dataset();
    let oifx = Oif::build(&d);
    let ifile = InvertedFile::build(&d);
    let mixed: Vec<_> = mixed_workload(&d).into_iter().take(24).collect();
    std::thread::scope(|s| {
        for chunk in mixed.chunks(6) {
            let (d, oifx, ifile) = (&d, &oifx, &ifile);
            s.spawn(move || {
                let mut scratch = QueryScratch::new();
                let mut if_scratch = set_containment::invfile::EvalScratch::new();
                for (kind, q) in chunk {
                    let want = match kind {
                        QueryKind::Subset => brute::subset(d, q),
                        QueryKind::Equality => brute::equality(d, q),
                        QueryKind::Superset => brute::superset(d, q),
                    };
                    assert_eq!(
                        oifx.eval_with(*kind, q, &mut scratch),
                        want,
                        "OIF {kind:?} {q:?}"
                    );
                    let mut got = ifile.eval_with(*kind, q, &mut if_scratch);
                    got.sort_unstable();
                    assert_eq!(got, want, "IF {kind:?} {q:?}");
                }
            });
        }
    });
}
