//! Differential check of the threaded posting log (`ii_indexer::PostingLog`)
//! against the frozen counting-sort log in `tests/src/posting_log.rs`.
//!
//! The product flushes by walking each term's chain of records back from its
//! latest one and reversing it; the reference counts, scatters and slices a
//! sorted copy. On seeded random sequences — CPU occurrences with tf bumps,
//! GPU-style drains (retired records in document order, then each term's
//! current posting in handle order), dense and sparse handles, several
//! flushes per log, empty runs — both must hold the same pending postings
//! before every flush and write the same run bytes at it.

use ii_core::corpus::DocId;
use ii_core::indexer::PostingLog;
use ii_core::postings::{Codec, Posting};
use ii_integration_tests::posting_log::PostingLog as ReferenceLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CODECS: [Codec; 4] = [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto];

/// Both logs, fed the same calls.
struct Pair {
    product: PostingLog,
    reference: ReferenceLog,
}

impl Pair {
    fn add_occurrence(&mut self, handle: u32, doc: u32) {
        self.product.add_occurrence(handle, DocId(doc));
        self.reference.add_occurrence(handle, DocId(doc));
    }

    fn push(&mut self, handle: u32, doc: u32, tf: u32) {
        let posting = Posting { doc: DocId(doc), tf };
        self.product.push(handle, posting);
        self.reference.push(handle, posting);
    }

    /// Compare everything pending over `handles`, then flush both and
    /// compare the run bytes.
    fn flush_and_compare(&mut self, handles: &[u32], run_id: u32, codec: Codec, what: &str) {
        let (p, r) = (&mut self.product, &mut self.reference);
        assert_eq!(p.len(), r.len(), "{what}: len");
        assert_eq!(p.is_empty(), r.is_empty(), "{what}: is_empty");
        assert_eq!(p.mem_bytes(), r.mem_bytes(), "{what}: mem_bytes");
        for &h in handles {
            assert_eq!(p.postings_of(h), r.postings_of(h), "{what}: postings_of({h})");
        }
        let (want, got) = (r.flush_run(run_id, 3, codec), p.flush_run(run_id, 3, codec));
        assert_eq!(got.entries.len(), want.entries.len(), "{what}: lists");
        assert!(got.to_bytes() == want.to_bytes(), "{what}: run bytes differ");
        assert!(p.is_empty(), "{what}: flush empties the log");
    }
}

/// A handle drawn with a Zipf-like skew (a few head terms, many rare
/// ones), from a dense range or a sparse set of widely spaced values.
fn draw_handle(rng: &mut StdRng, sparse: bool, vocab: u32) -> u32 {
    let u: f64 = rng.gen();
    let rank = ((u * u * u) * vocab as f64) as u32;
    if sparse {
        rank * 997 + 13
    } else {
        rank
    }
}

/// Every handle a sequence may have touched, and a few it never did.
fn handles_of(sparse: bool, vocab: u32) -> Vec<u32> {
    let mut hs: Vec<u32> = (0..=vocab).map(|r| if sparse { r * 997 + 13 } else { r }).collect();
    hs.extend([vocab * 997 + 14, 1_000_003, u32::MAX - 1]);
    hs
}

/// One CPU run: documents in order, each a burst of occurrences that
/// repeats terms (the tf bumps).
fn cpu_run(pair: &mut Pair, rng: &mut StdRng, sparse: bool, vocab: u32, docs: u32, first: u32) {
    for doc in first..first + docs {
        for _ in 0..rng.gen_range(0..12) {
            pair.add_occurrence(draw_handle(rng, sparse, vocab), doc);
        }
    }
}

/// One GPU-style drain: the device's retired records in document order,
/// then each term's current (latest) posting in handle order.
fn gpu_drain(pair: &mut Pair, rng: &mut StdRng, sparse: bool, vocab: u32, docs: u32, first: u32) {
    let mut lists: std::collections::BTreeMap<u32, Vec<(u32, u32)>> = Default::default();
    let mut retired = Vec::new();
    for doc in first..first + docs {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(0..8) {
            let h = draw_handle(rng, sparse, vocab);
            if seen.insert(h) {
                let list = lists.entry(h).or_default();
                if let Some(&(d, tf)) = list.last() {
                    retired.push((h, d, tf));
                }
                list.push((doc, rng.gen_range(1..6)));
            }
        }
    }
    for (h, d, tf) in retired {
        pair.push(h, d, tf);
    }
    for (h, list) in lists {
        let &(d, tf) = list.last().expect("a touched term has a posting");
        pair.push(h, d, tf);
    }
}

#[test]
fn threaded_log_matches_the_counting_sort_at_every_flush() {
    for seed in 0..160u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sparse = seed % 3 == 0;
        let vocab = [4, 40, 400, 3000][(seed % 4) as usize];
        let mut pair = if rng.gen_bool(0.5) {
            Pair { product: PostingLog::new(), reference: ReferenceLog::new() }
        } else {
            let (records, handles) = (rng.gen_range(0..64), rng.gen_range(0..=vocab as usize));
            Pair {
                product: PostingLog::with_capacity(records, handles),
                reference: ReferenceLog::with_capacity(records, handles),
            }
        };
        let handles = handles_of(sparse, vocab);
        for run in 0..rng.gen_range(1..6u32) {
            // Documents restart below the flushed ones now and then: a run
            // is ordered on its own, not against the runs before it.
            let first = if rng.gen_bool(0.3) { 0 } else { run * 10_000 };
            let docs = [0u32, 1, 30, 400][rng.gen_range(0..4usize)];
            match rng.gen_range(0..4) {
                0 => {} // an empty run
                1 => cpu_run(&mut pair, &mut rng, sparse, vocab, docs, first),
                2 => gpu_drain(&mut pair, &mut rng, sparse, vocab, docs, first),
                _ => {
                    // A dead GPU's salvaged log, then a CPU successor that
                    // continues the same run on later documents.
                    gpu_drain(&mut pair, &mut rng, sparse, vocab, docs, first);
                    cpu_run(&mut pair, &mut rng, sparse, vocab, docs, first + docs);
                }
            }
            let codec = CODECS[rng.gen_range(0..CODECS.len())];
            pair.flush_and_compare(&handles, run, codec, &format!("seed {seed} run {run}"));
        }
    }
}

#[test]
fn head_term_lists_span_many_blocks() {
    // One term in every document: its chain is the whole log, long enough
    // for every block codec's multi-block path and its skip table.
    for codec in CODECS {
        let mut pair = Pair { product: PostingLog::new(), reference: ReferenceLog::new() };
        let mut rng = StdRng::seed_from_u64(7);
        for doc in 0..5_000 {
            for _ in 0..rng.gen_range(1..4) {
                pair.add_occurrence(0, doc);
            }
            pair.add_occurrence(rng.gen_range(1..50), doc);
        }
        pair.flush_and_compare(&(0..60).collect::<Vec<_>>(), 0, codec, &format!("{codec:?}"));
    }
}
