//! Ablation — §III.B trie height: "The height of three for the trie seems
//! to work best": height 1-2 yields few, huge, skewed collections (hard to
//! balance, deeper B-trees); height 4+ yields a blizzard of tiny
//! collections (scheduling/metadata overhead).
//!
//! We regroup one parsed stream by 1-, 2-, 3- and 4-character prefixes and
//! report, for each height: collection count, token skew (share of the
//! largest collection), mean B-tree depth, and measured serial indexing
//! time over the grouped stream.

use ii_core::corpus::{CollectionGenerator, CollectionSpec};
use ii_core::dict::SlottedStore;
use std::collections::HashMap;
use std::time::Instant;

/// Group key for a synthetic trie of the given height (prefix chars).
fn bucket(term: &str, height: usize) -> String {
    let k: String = term.chars().take(height).collect();
    k
}

fn main() {
    let mut spec = CollectionSpec::clueweb_like(0.4);
    spec.docs_per_file = 250;
    let gen = CollectionGenerator::new(spec.clone());
    let docs: Vec<_> = (0..3).flat_map(|f| gen.generate_file(f)).collect();
    let (stream, stats) = ii_core::text::parse_documents_flat(&docs, spec.html);
    println!(
        "ABLATION: trie height (grouping {} tokens / {} surface stream)\n",
        stats.terms_kept, stream.len()
    );
    println!(
        "{:<8}{:>14}{:>16}{:>14}{:>16}{:>14}",
        "height", "collections", "largest share", "mean depth", "index time ms", "max depth"
    );
    ii_bench::rule(84);
    for height in 1..=4usize {
        // Regroup by h-char prefix.
        let mut groups: HashMap<String, Vec<String>> = HashMap::new();
        for (_, trie, term) in &stream {
            // Reconstruct the surface term: trie prefix + stored suffix.
            let full = format!("{}{}", ii_core::dict::TrieIndex(trie.0).prefix(), term);
            groups.entry(bucket(&full, height)).or_default().push(full);
        }
        let total: usize = groups.values().map(|g| g.len()).sum();
        let largest = groups.values().map(|g| g.len()).max().unwrap_or(0);

        // Serial-index each group into its own B-tree, grouped order.
        let t0 = Instant::now();
        let mut store = SlottedStore::new();
        let mut depths: Vec<usize> = Vec::new();
        for (prefix, terms) in &groups {
            let mut tree = store.new_tree();
            let strip = prefix.len();
            for t in terms {
                let suffix = if t.len() >= strip { &t[strip..] } else { "" };
                store.insert(&mut tree, suffix.as_bytes());
            }
            depths.push(store.depth(&tree));
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mean_depth = depths.iter().sum::<usize>() as f64 / depths.len().max(1) as f64;
        println!(
            "{:<8}{:>14}{:>15.1}%{:>14.2}{:>16.1}{:>14}",
            height,
            groups.len(),
            largest as f64 / total as f64 * 100.0,
            mean_depth,
            ms,
            depths.iter().max().unwrap_or(&0),
        );
    }
    ii_bench::rule(84);
    println!("\nexpected shape: height 1-2 -> few collections, heavy skew, deeper trees;");
    println!("height 4 -> ~10x more collections than height 3 with little depth benefit.");
    println!("Height 3 balances collection count against per-collection size (paper's choice).");
}
