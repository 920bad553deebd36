//! A miniature search engine: index a congressional-crawl-like collection,
//! persist the index (dictionary + run files, the paper's §III.F on-disk
//! layout), reopen it, and serve interactive-style queries including
//! range-narrowed retrieval over document-ID windows.
//!
//! ```sh
//! cargo run --release -p ii-examples --bin search_engine [query terms...]
//! ```

use ii_core::corpus::{CollectionSpec, DocId, StoredCollection};
use ii_core::{Index, IndexBuilder};

fn main() -> std::io::Result<()> {
    let coll_dir = std::env::temp_dir().join("ii-searchengine-collection");
    let index_dir = std::env::temp_dir().join("ii-searchengine-index");
    let _ = std::fs::remove_dir_all(&coll_dir);
    let _ = std::fs::remove_dir_all(&index_dir);

    println!("== Build phase ==");
    let stored = StoredCollection::generate(CollectionSpec::congress_like(0.6), &coll_dir)?;
    println!(
        "   collection: {} docs / {:.1} MB",
        stored.manifest.stats.documents,
        stored.manifest.stats.uncompressed_bytes as f64 / 1e6
    );
    // Multiple batches per run keeps run files fewer and fatter; the
    // index is still a monolithic logical index over partial lists.
    let index = IndexBuilder::small().parsers(3).batches_per_run(2).build_from_dir(&coll_dir)?;
    index.save(&index_dir)?;
    let n_runs: usize = index.run_sets.values().map(|s| s.runs().len()).sum();
    println!(
        "   saved: dictionary ({} terms) + {} run files -> {}",
        index.num_terms(),
        n_runs,
        index_dir.display()
    );

    println!("== Serve phase (reopened from disk) ==");
    let engine: Index = Index::open(&index_dir)?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let queries: Vec<String> = if args.is_empty() {
        vec!["government report".into(), "committee hearing".into(), "library congress".into()]
    } else {
        vec![args.join(" ")]
    };
    for q in &queries {
        let hits = engine.search(q);
        println!("   query '{q}': {} hits", hits.len());
        for (doc, score) in hits.iter().take(5) {
            let file = engine
                .source_file(*doc)
                .map(|f| format!("file_{f:05}.iic"))
                .unwrap_or_else(|| "?".into());
            println!("      doc {doc:>6}  score {score}  (source {file})");
        }
    }

    println!("== Range-narrowed retrieval (only overlapping runs decoded) ==");
    // Pick the most frequent indexed term for a meaningful demo.
    let busiest = engine
        .dictionary
        .entries()
        .max_by_key(|e| engine.run_sets[&e.indexer].fetch(e.postings).map_or(0, |l| l.len()))
        .expect("non-empty index");
    let term = busiest.full_term();
    let full = engine.run_sets[&busiest.indexer].fetch(busiest.postings).expect("built runs decode");
    let total_docs = engine.num_docs().max(full.postings().last().map(|p| p.doc.0 + 1).unwrap_or(1));
    let window = (DocId(total_docs / 4), DocId(total_docs / 2));
    let narrowed = engine.postings_in_range(&term, window.0, window.1);
    println!(
        "   term '{term}': {} postings total; {} within docs [{}, {}]",
        full.len(),
        narrowed.len(),
        window.0,
        window.1
    );

    let _ = std::fs::remove_dir_all(&coll_dir);
    let _ = std::fs::remove_dir_all(&index_dir);
    Ok(())
}
