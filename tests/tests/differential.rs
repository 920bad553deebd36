//! Differential sweep: one synthetic corpus pushed through every
//! independent indexing implementation in the repo must yield the same
//! logical index.
//!
//! Paths compared against the full pipeline:
//!   * a CPU-only build vs a GPU-only build (same dictionary **bytes**);
//!   * the single-pass MapReduce baseline (`spmr_index`);
//!   * the classic sort-based external-memory baseline (`sort_based_index`).
//!
//! (`ivory_index` and `spimi_index` are covered in end_to_end.rs.)
//!
//! Intentional divergences — documented, not bugs:
//!   * Baselines return term → full postings list with no run structure,
//!     so only the `(term, [(doc, tf)])` mapping is comparable; run counts,
//!     runs-per-indexer and dictionary encodings have no baseline analogue.
//!   * Baselines never quarantine: differential equality is only defined
//!     on clean (fault-free) corpora.
//!   * All implementations share ii-text's tokenizer/stemmer/stop list by
//!     design, so the comparison isolates the indexing strategy; a token
//!     split mismatch here would show up as a *term set* difference.

use ii_baselines::{sort_based_index, spmr_index, MapReduceConfig};
use ii_core::corpus::{CollectionGenerator, CollectionSpec, RawDocument, StoredCollection};
use ii_core::pipeline::{build_index, IndexOutput, PipelineConfig};
use ii_core::text::{parse_documents_into, ParseScratch};
use ii_integration_tests::parse::parse_documents_reference;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn spec() -> CollectionSpec {
    CollectionSpec {
        name: "differential".into(),
        num_files: 3,
        docs_per_file: 30,
        mean_doc_tokens: 100,
        vocab_size: 3000,
        zipf_s: 1.0,
        html: true,
        seed: 9090,
        shift: None,
    }
}

fn stored(tag: &str) -> (Arc<StoredCollection>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ii-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = StoredCollection::generate(spec(), &dir).unwrap();
    (Arc::new(s), dir)
}

/// Term -> sorted (docID, tf) pairs: the comparable core of any index.
fn pipeline_fingerprint(out: &IndexOutput) -> BTreeMap<String, Vec<(u32, u32)>> {
    out.dictionary
        .entries()
        .map(|e| {
            let l = out.run_sets[&e.indexer].fetch(e.postings).unwrap();
            (e.full_term(), l.postings().iter().map(|p| (p.doc.0, p.tf)).collect())
        })
        .collect()
}

fn baseline_fingerprint(
    idx: &ii_baselines::BaselineIndex,
) -> BTreeMap<String, Vec<(u32, u32)>> {
    idx.postings
        .iter()
        .map(|(t, l)| (t.clone(), l.postings().iter().map(|p| (p.doc.0, p.tf)).collect()))
        .collect()
}

#[test]
fn cpu_only_and_gpu_only_builds_are_byte_identical() {
    let (coll, dir) = stored("cpu-vs-gpu");
    let cpu = build_index(&coll, &PipelineConfig::small(2, 1, 0)).expect("CPU build");
    let gpu = build_index(&coll, &PipelineConfig::small(2, 0, 1)).expect("GPU build");
    // Same device count on both sides => same indexer IDs, same postings
    // handles (proven per-batch by invariants.rs); the serialized
    // dictionaries must therefore agree byte for byte.
    assert_eq!(cpu.dict_bytes, gpu.dict_bytes, "dictionary bytes diverged");
    assert_eq!(pipeline_fingerprint(&cpu), pipeline_fingerprint(&gpu));
    // And the GPU side really ran on the simulator.
    assert!(gpu.report.stages.counter("gpu.warp_comparisons") > 0);
    assert_eq!(cpu.report.stages.counter("gpu.warp_comparisons"), 0);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn pipeline_agrees_with_spmr_baseline() {
    let (coll, dir) = stored("vs-spmr");
    let out = build_index(&coll, &PipelineConfig::small(2, 1, 1)).expect("build");
    let gen = CollectionGenerator::new(spec());
    let splits: Vec<Vec<RawDocument>> =
        (0..spec().num_files).map(|f| gen.generate_file(f)).collect();
    let (reference, stats) = spmr_index(&splits, true, MapReduceConfig::default());
    assert!(stats.pairs_emitted > 0);
    assert_eq!(
        pipeline_fingerprint(&out),
        baseline_fingerprint(&reference),
        "pipeline and single-pass MapReduce baseline diverged"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn pipeline_agrees_with_sort_based_baseline() {
    let (coll, dir) = stored("vs-sort");
    let out = build_index(&coll, &PipelineConfig::small(3, 2, 0)).expect("build");
    let gen = CollectionGenerator::new(spec());
    let flat: Vec<RawDocument> =
        (0..spec().num_files).flat_map(|f| gen.generate_file(f)).collect();
    // Tiny triple budget: force many external-memory runs.
    let (reference, stats) = sort_based_index(&flat, true, 700);
    assert!(stats.runs > 2, "budget should force multiple runs, got {}", stats.runs);
    assert_eq!(
        pipeline_fingerprint(&out),
        baseline_fingerprint(&reference),
        "pipeline and sort-based baseline diverged"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// The PR-4 hot-path contract: for every container file the zero-allocation
/// parser — its scratch carried from file to file, as a parser thread
/// carries it — returns the batch the frozen reference parser does.
/// Everything downstream of the parser sees only the batch.
#[test]
fn optimized_and_reference_parsers_return_equal_batches() {
    let (coll, dir) = stored("ref-parser");
    let html = coll.manifest.spec.html;
    let mut scratch = ParseScratch::new();
    for f in 0..coll.num_files() {
        let docs = coll.read_file(f).expect("clean corpus");
        assert_eq!(
            parse_documents_into(&mut scratch, &docs, html, f),
            parse_documents_reference(&docs, html, f),
            "file {f}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}
