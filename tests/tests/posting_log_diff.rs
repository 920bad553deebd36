//! Differential check of the slice log (`ii_indexer::PostingLog`) against
//! the frozen counting-sort log in `tests/src/posting_log.rs`.
//!
//! The product holds each term's postings as a varbyte stream in doubling
//! slices and flushes by decoding each stream in handle order; the
//! reference counts, scatters and slices a sorted copy of 12-byte records.
//! On seeded random sequences — CPU occurrences with tf bumps, GPU-style
//! drains (retired records in document order, then each term's current
//! posting in handle order), dense and sparse handles, several flushes per
//! log, empty runs — and on the codes' edge cases, both must hold the same
//! pending postings before every flush and write the same run bytes at it.
//! A GPU's pending postings salvaged into a CPU successor flush what the
//! uninterrupted GPU flushes, and the log's high water at sixteen files per
//! run is held to what the threaded log (12 bytes a record, 4 a handle)
//! held at four.

use ii_core::corpus::{CollectionSpec, DocId, StoredCollection};
use ii_core::indexer::{CpuIndexer, GpuIndexer, GpuIndexerConfig, PostingLog};
use ii_core::pipeline::{build_index, PipelineConfig};
use ii_core::postings::{Codec, Posting, RunSet};
use ii_core::text::{parse_documents, ParsedBatch, TrieGroup};
use ii_integration_tests::posting_log::PostingLog as ReferenceLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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
fn slice_log_matches_the_counting_sort_at_every_flush() {
    for seed in 0..160u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sparse = seed % 3 == 0;
        let vocab = [4, 40, 400, 3000][(seed % 4) as usize];
        let mut pair = if rng.gen_bool(0.5) {
            Pair { product: PostingLog::new(), reference: ReferenceLog::new() }
        } else {
            let (records, handles) = (rng.gen_range(0..64), rng.gen_range(0..=vocab as usize));
            Pair {
                product: PostingLog::new(),
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

fn pair() -> Pair {
    Pair { product: PostingLog::new(), reference: ReferenceLog::new() }
}

#[test]
fn edge_codes_write_the_counting_sort_bytes() {
    for codec in CODECS {
        let mut pair = pair();
        // A held tf that crosses 127 and then 16 383 within one document,
        // each written out when the next document arrives.
        for (doc, tf) in [(5, 200), (6, 1), (7, 20_000), (9, 127), (10, 128), (11, 16_384)] {
            for _ in 0..tf {
                pair.add_occurrence(1, doc);
            }
        }
        pair.add_occurrence(1, 12);
        // Gaps of 2^21 and 2^28 and more, codes of four and five bytes
        // straddling slice boundaries, up to the largest document.
        let mut doc = 3u32;
        for gap in [1 << 21, 1 << 28, (1 << 21) - 1, (1 << 28) + 1] {
            doc += gap;
            pair.add_occurrence(2, doc);
        }
        for _ in 0..60 {
            doc += (1 << 21) + 7;
            pair.push(3, doc, 1 << 20);
        }
        pair.push(3, u32::MAX - 1, 3);
        pair.push(4, u32::MAX - 1, 1);
        // A term with one posting stays in its state; its second document
        // cuts its first slice. Handles 0 and 5..40, and those past the
        // end, are never touched.
        pair.add_occurrence(40, 70);
        let inline = pair.product.heap_bytes();
        assert_eq!(pair.product.postings_of(40), pair.reference.postings_of(40));
        pair.add_occurrence(40, 71);
        assert!(pair.product.heap_bytes() > inline, "the second document cuts a slice");
        let handles: Vec<u32> = (0..=41).chain([1 << 20, u32::MAX]).collect();
        for h in [0, 5, 39, 41, 1 << 20, u32::MAX] {
            assert!(pair.product.postings_of(h).is_empty(), "handle {h} was never touched");
        }
        pair.flush_and_compare(&handles, 0, codec, &format!("{codec:?}"));
        // After the flush the same handles start over, inline again.
        pair.add_occurrence(40, 0);
        pair.add_occurrence(1, 0);
        pair.add_occurrence(1, 1 << 28);
        pair.flush_and_compare(&handles, 1, codec, &format!("{codec:?} again"));
    }
}

/// The files of a small collection parsed into batches, with each batch's
/// first document.
fn parsed_batches(seed: u64) -> Vec<(ParsedBatch, u32)> {
    let dir = std::env::temp_dir().join(format!("ii-log-salvage-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CollectionSpec { num_files: 6, ..CollectionSpec::tiny(seed) };
    let coll = StoredCollection::generate(spec, &dir).unwrap();
    let mut first = 0;
    let batches = (0..coll.num_files())
        .map(|f| {
            let batch = parse_documents(&coll.read_file(f).unwrap(), coll.manifest.spec.html, f);
            let start = first;
            first += batch.num_docs;
            (batch, start)
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    batches
}

#[test]
fn salvaged_device_log_adopted_by_the_cpu_flushes_the_uninterrupted_bytes() {
    for (seed, tight) in [(11, false), (12, true)] {
        let batches = parsed_batches(seed);
        // The device log drains to the host before every batch; tight, it
        // has room for the largest file's tokens only.
        let tokens = |b: &ParsedBatch| b.groups.iter().map(|g| g.total_terms()).sum::<u64>();
        let most = batches.iter().map(|(b, _)| tokens(b)).max().unwrap() as usize;
        let log_capacity = if tight { most } else { 1 << 20 };
        let config = GpuIndexerConfig { log_capacity, ..GpuIndexerConfig::small() };
        let on_gpu = |g: &mut GpuIndexer, batches: &[(ParsedBatch, u32)]| {
            for (batch, first) in batches {
                g.index_batch(&batch.groups.iter().collect::<Vec<&TrieGroup>>(), *first);
            }
        };
        let mut whole = GpuIndexer::new(1, config);
        on_gpu(&mut whole, &batches);
        assert!(whole.host_log_bytes() > 0, "drained mid-run");
        let want = whole.flush_run(0, Codec::Auto).to_bytes();
        for kill in 0..=batches.len() {
            let mut dying = GpuIndexer::new(1, config);
            on_gpu(&mut dying, &batches[..kill]);
            let log = dying.salvage_pending_log();
            let mut successor = CpuIndexer::adopt(dying.into_partial_dictionary(), log);
            for (batch, first) in &batches[kill..] {
                batch.groups.iter().for_each(|g| successor.index_group(g, *first));
            }
            let got = successor.flush_run(0, Codec::Auto).to_bytes();
            assert!(got == want, "seed {seed}, log of {log_capacity}: killed after {kill} files");
        }
    }
}

/// What the retired threaded log held at its largest over a build whose
/// runs are `sets`: per run, summed over indexers, 12 bytes per pending
/// record and 4 per handle up to the highest one seen so far.
fn threaded_log_high_water(sets: &std::collections::HashMap<u32, RunSet>) -> u64 {
    let runs = sets.values().map(|s| s.runs().len()).max().unwrap_or(0);
    let mut handles = vec![0u64; sets.len()];
    let mut high = 0;
    for r in 0..runs {
        let mut held = 0;
        for (i, set) in sets.values().enumerate() {
            let Some(run) = set.runs().get(r) else { continue };
            let records: u64 = run.entries.iter().map(|e| u64::from(e.n_postings)).sum();
            let top = run.entries.iter().map(|e| u64::from(e.handle) + 1).max().unwrap_or(0);
            handles[i] = handles[i].max(top);
            held += 12 * records + 4 * handles[i];
        }
        high = high.max(held);
    }
    high
}

#[test]
fn sixteen_files_of_slices_hold_no_more_than_four_files_of_records() {
    let dir = std::env::temp_dir().join(format!("ii-log-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CollectionSpec::congress_like(2.0);
    let coll = Arc::new(StoredCollection::generate(spec, &dir).unwrap());
    assert!(coll.num_files() > 16, "a full run of sixteen files");
    let cfg = PipelineConfig { num_parsers: 1, ..PipelineConfig::small(1, 2, 0) };
    assert_eq!(cfg.batches_per_run, 16, "the default");
    let slices = build_index(&coll, &cfg).unwrap();
    let high = slices.report.stages.gauge("indexer.log_high_water_bytes") as u64;
    let four = build_index(&coll, &PipelineConfig { batches_per_run: 4, ..cfg.clone() }).unwrap();
    let threaded = threaded_log_high_water(&four.run_sets);
    eprintln!("slice log high water {high} B at 16 files per run; threaded log {threaded} B at 4");
    assert!(high > 0 && high <= threaded, "{high} B at 16 files per run, {threaded} B at 4");
    std::fs::remove_dir_all(&dir).unwrap();
}
