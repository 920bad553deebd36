//! Ablation — §III.F partial-list merge: "we can combine the partial
//! postings lists of each term into a single list in a post-processing
//! step, with an additional cost of less than 10% of the total running
//! time."
//!
//! Measured: build a multi-run index, then time `merge_runs` over every
//! indexer's run set and compare to the build time.

use ii_core::corpus::CollectionSpec;
use ii_core::obs::Registry;
use ii_core::pipeline::{build_index, PipelineConfig};
use ii_core::postings::{merge_runs, Codec};
use std::time::Instant;

fn main() {
    let mut spec = CollectionSpec::clueweb_like(ii_bench::MEASURED_SCALE);
    spec.docs_per_file = 200;
    let coll = ii_bench::stored_collection("ablate-merge", spec);
    let cfg = PipelineConfig::small(2, 1, 1); // one run per file => many runs
    let t0 = Instant::now();
    let out = build_index(&coll, &cfg).expect("index build");
    let build_s = t0.elapsed().as_secs_f64();

    let n_runs: usize = out.run_sets.values().map(|s| s.runs().len()).sum();
    println!("ABLATION: post-processing merge of partial postings lists\n");
    println!("index built in {build_s:.2}s; {} runs across {} indexers", n_runs, out.run_sets.len());

    let registry = Registry::new();
    let t0 = Instant::now();
    let mut merged_lists = 0usize;
    for set in out.run_sets.values() {
        let merged = merge_runs(set, Codec::VarByte, &registry);
        merged_lists += merged.entries.len();
    }
    let merge_s = t0.elapsed().as_secs_f64();
    let pct = merge_s / build_s * 100.0;
    println!("merged {merged_lists} full postings lists in {merge_s:.3}s");
    println!("\nmerge cost = {pct:.1}% of total build time (paper: < 10%)");
    assert!(pct < 10.0, "merge must stay under the paper's 10% bound, got {pct:.1}%");

    // Correctness spot check: merged lists equal on-the-fly concatenation.
    let (indexer, set) = out.run_sets.iter().next().unwrap();
    let merged = merge_runs(set, Codec::VarByte, &registry);
    let mut checked = 0;
    for e in merged.entries.iter().take(200) {
        let direct = set.fetch(e.handle).expect("built runs decode");
        assert_eq!(merged.get(e.handle).unwrap(), direct.postings(), "handle {}", e.handle);
        checked += 1;
    }
    println!("verified {checked} merged lists of indexer {indexer} against RunSet::fetch ✓");
}
