//! Cross-crate integration: full pipeline vs the independent baseline
//! implementations, configuration invariance, and persistence.

use ii_baselines::{ivory_index, spimi_index, MapReduceConfig};
use ii_core::corpus::{CollectionGenerator, CollectionSpec, StoredCollection};
use ii_core::{Index, IndexBuilder};
use std::sync::Arc;

fn spec() -> CollectionSpec {
    CollectionSpec {
        name: "integration".into(),
        num_files: 3,
        docs_per_file: 40,
        mean_doc_tokens: 120,
        vocab_size: 4000,
        zipf_s: 1.0,
        html: true,
        seed: 2024,
        shift: None,
    }
}

fn stored(tag: &str) -> (Arc<StoredCollection>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ii-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = StoredCollection::generate(spec(), &dir).unwrap();
    (Arc::new(s), dir)
}

#[test]
fn pipeline_agrees_with_ivory_baseline() {
    let (coll, dir) = stored("vs-ivory");
    let index = IndexBuilder::small().parsers(2).gpus(2).build(&coll).expect("build");

    // Independent reference: the Ivory MapReduce implementation over the
    // same documents (text processing shared, indexing path disjoint).
    let gen = CollectionGenerator::new(spec());
    let splits: Vec<Vec<ii_core::corpus::RawDocument>> =
        (0..spec().num_files).map(|f| gen.generate_file(f)).collect();
    let (reference, _) = ivory_index(&splits, true, MapReduceConfig::default());

    assert_eq!(index.num_terms(), reference.len(), "term counts differ");
    for (term, want) in &reference.postings {
        let got = index
            .postings_stemmed(term)
            .unwrap_or_else(|| panic!("pipeline missing term {term}"));
        assert_eq!(&got, want, "postings differ for {term}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn pipeline_agrees_with_spimi_baseline() {
    let (coll, dir) = stored("vs-spimi");
    let index = IndexBuilder::small().parsers(3).cpu_indexers(2).gpus(0).build(&coll).expect("build");
    let gen = CollectionGenerator::new(spec());
    let flat: Vec<ii_core::corpus::RawDocument> =
        (0..spec().num_files).flat_map(|f| gen.generate_file(f)).collect();
    // Tiny memory budget: force many SPIMI runs.
    let (reference, stats) = spimi_index(&flat, true, 500);
    assert!(stats.runs > 3);
    assert_eq!(index.num_terms(), reference.len());
    for (term, want) in &reference.postings {
        assert_eq!(index.postings_stemmed(term).as_ref(), Some(want), "term {term}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn every_configuration_builds_the_same_index() {
    let (coll, dir) = stored("configs");
    let fingerprint = |idx: &Index| -> Vec<(String, Vec<(u32, u32)>)> {
        let mut v: Vec<(String, Vec<(u32, u32)>)> = idx
            .dictionary
            .entries()
            .map(|e| {
                let l = idx.run_sets[&e.indexer].fetch(e.postings).unwrap();
                (e.full_term(), l.postings().iter().map(|p| (p.doc.0, p.tf)).collect())
            })
            .collect();
        v.sort();
        v
    };
    let base = fingerprint(
        &IndexBuilder::small().parsers(1).cpu_indexers(1).gpus(0).build(&coll).expect("build"),
    );
    for (p, c, g) in [(4usize, 1usize, 0usize), (2, 2, 1), (1, 0, 2), (3, 1, 2)] {
        let idx = IndexBuilder::small().parsers(p).cpu_indexers(c).gpus(g).build(&coll).expect("build");
        assert_eq!(fingerprint(&idx), base, "config ({p},{c},{g}) diverged");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn batches_per_run_does_not_change_results() {
    let (coll, dir) = stored("runs");
    let one = IndexBuilder::small().batches_per_run(1).build(&coll).expect("build");
    let all = IndexBuilder::small().batches_per_run(99).build(&coll).expect("build");
    assert_eq!(one.num_terms(), all.num_terms());
    let probe: Vec<String> = one
        .dictionary
        .entries()
        .step_by(97)
        .map(|e| e.full_term())
        .collect();
    for term in probe {
        assert_eq!(one.postings_stemmed(&term), all.postings_stemmed(&term), "{term}");
    }
    // Many runs vs one run per indexer.
    let runs_one: usize = one.run_sets.values().map(|s| s.runs().len()).sum();
    let runs_all: usize = all.run_sets.values().map(|s| s.runs().len()).sum();
    assert!(runs_one > runs_all);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn save_open_search_roundtrip() {
    let (coll, dir) = stored("persist");
    let built = IndexBuilder::small().build(&coll).expect("build");
    let out = std::env::temp_dir().join(format!("ii-it-persist-idx-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    built.save(&out).unwrap();
    let loaded = Index::open(&out).unwrap();
    assert_eq!(loaded.num_terms(), built.num_terms());
    // Queries agree between the in-memory and reloaded index.
    for q in ["information", "search engine", "music video"] {
        assert_eq!(built.search(q), loaded.search(q), "query {q}");
    }
    // The §III.F docID -> file auxiliary map survives persistence: 3 files
    // x 40 docs each.
    for (doc, want_file) in [(0u32, 0u32), (39, 0), (40, 1), (80, 2), (119, 2)] {
        assert_eq!(built.source_file(ii_core::corpus::DocId(doc)), Some(want_file));
        assert_eq!(loaded.source_file(ii_core::corpus::DocId(doc)), Some(want_file));
    }
    assert_eq!(loaded.source_file(ii_core::corpus::DocId(120)), None);
    std::fs::remove_dir_all(dir).unwrap();
    std::fs::remove_dir_all(out).unwrap();
}
