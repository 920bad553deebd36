//! Quickstart: generate a small synthetic collection, build the index with
//! the full heterogeneous pipeline, and run a few queries.
//!
//! ```sh
//! cargo run --release -p ii-examples --bin quickstart
//! ```

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::IndexBuilder;

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("ii-quickstart-collection");
    let _ = std::fs::remove_dir_all(&dir);

    println!("== 1. Generate a synthetic Wikipedia-like collection ==");
    let spec = CollectionSpec::wikipedia_like(0.5);
    let stored = StoredCollection::generate(spec, &dir)?;
    let s = &stored.manifest.stats;
    println!(
        "   {} docs, {} tokens, {} distinct terms, {:.1} MB ({:.1} MB compressed)",
        s.documents,
        s.tokens,
        s.distinct_terms,
        s.uncompressed_bytes as f64 / 1e6,
        s.compressed_bytes as f64 / 1e6,
    );

    println!("== 2. Build the index (2 parsers, 1 CPU indexer, 1 simulated GPU) ==");
    let index = IndexBuilder::small().parsers(2).build_from_dir(&dir)?;
    let r = &index.report;
    println!("   {} terms in dictionary, {} docs indexed", index.num_terms(), index.num_docs());
    println!(
        "   build: {:.2}s total ({:.2}s sampling, {:.2}s parser busy, {:.2}s indexing)",
        r.total_seconds, r.sampling_seconds, r.parser_busy_seconds(), r.indexing_seconds
    );
    println!(
        "   workload split — CPU: {} tokens / {} terms; GPU: {} tokens / {} terms",
        r.cpu_stats.tokens, r.cpu_stats.terms, r.gpu_stats.tokens, r.gpu_stats.terms
    );
    println!("   throughput on this host: {:.1} MB/s", r.throughput_mb_s());

    println!("== 3. Query ==");
    for query in ["information retrieval", "web search", "music"] {
        let hits = index.search(query);
        match hits.first() {
            Some((doc, score)) => println!(
                "   '{query}': {} hits; best doc {doc} (score {score})",
                hits.len()
            ),
            None => println!("   '{query}': no conjunctive match"),
        }
    }

    println!("== 4. Persist and reopen ==");
    let out = std::env::temp_dir().join("ii-quickstart-index");
    let _ = std::fs::remove_dir_all(&out);
    index.save(&out)?;
    let reopened = ii_core::Index::open(&out)?;
    assert_eq!(reopened.num_terms(), index.num_terms());
    println!("   saved to {} and reopened: {} terms", out.display(), reopened.num_terms());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
    Ok(())
}
