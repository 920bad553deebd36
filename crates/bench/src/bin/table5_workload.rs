//! Table V — workload split between CPU and GPU indexers.
//!
//! *Measured*, not simulated: the real pipeline runs on a scaled
//! ClueWeb-like collection with 2 CPU + 2 (simulated) GPU indexers, and
//! the indexers' own counters report tokens / terms / characters per
//! device class. The paper's point: the GPU side sees fewer tokens
//! (~0.8x the CPU's) but far more distinct terms (~2.5x) — the Zipf head
//! goes to the CPU, the long tail to the GPU.

use ii_core::corpus::CollectionSpec;
use ii_core::pipeline::{build_index, PipelineConfig};
use ii_core::indexer::GpuIndexerConfig;

fn main() {
    let spec = CollectionSpec::clueweb_like(ii_bench::MEASURED_SCALE);
    let coll = ii_bench::stored_collection("table5", spec.clone());
    // The paper sizes the popular group by "running several tests on the
    // sample" (§III.E); on full ClueWeb09 ~100 collections absorb ~44% of
    // tokens. Do the same here: pick the smallest head of collections
    // covering ~44% of sampled tokens.
    let sample_docs = coll.read_file_docs(0).expect("file 0");
    let sample = ii_core::text::parse_documents(&sample_docs[..sample_docs.len().min(80)],
        spec.html, 0);
    let counts = ii_core::indexer::sample_counts(std::slice::from_ref(&sample));
    let mut by_tokens: Vec<u64> = counts.values().copied().collect();
    by_tokens.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = by_tokens.iter().sum();
    let mut acc = 0u64;
    let mut popular_count = 0usize;
    for t in &by_tokens {
        if acc as f64 >= 0.44 * total as f64 {
            break;
        }
        acc += t;
        popular_count += 1;
    }
    println!(
        "sampling chose {popular_count} popular collections covering {:.0}% of sampled tokens (paper: ~100 / ~44%)\n",
        acc as f64 / total as f64 * 100.0
    );
    let cfg = PipelineConfig {
        num_parsers: 2,
        num_cpu_indexers: 2,
        num_gpus: 2,
        gpu_config: GpuIndexerConfig::small(),
        popular_count,
        ..Default::default()
    };
    let out = build_index(&coll, &cfg).expect("index build");
    ii_bench::write_stats_snapshot("table5_workload", &out.report.stages);
    let cpu = out.report.cpu_stats;
    let gpu = out.report.gpu_stats;

    println!("TABLE V. WORK LOAD BETWEEN CPU AND GPU (measured, scaled collection)");
    println!("\n{:<22}{:>18}{:>18}", "", "CPU Indexers", "GPU Indexers");
    ii_bench::rule(58);
    println!("{:<22}{:>18}{:>18}", "Token Number", cpu.tokens, gpu.tokens);
    println!("{:<22}{:>18}{:>18}", "Term Number", cpu.terms, gpu.terms);
    println!("{:<22}{:>18}{:>18}", "Character Number", cpu.chars, gpu.chars);
    ii_bench::rule(58);
    println!("\npaper (full ClueWeb09):");
    println!("{:<22}{:>18}{:>18}", "Token Number", 14_465_084_050u64, 18_179_424_205u64);
    println!("{:<22}{:>18}{:>18}", "Term Number", 24_244_017u64, 60_555_458u64);
    println!("{:<22}{:>18}{:>18}", "Character Number", 239_433_858u64, 513_640_554u64);

    let tok_ratio = gpu.tokens as f64 / cpu.tokens.max(1) as f64;
    let term_ratio = gpu.terms as f64 / cpu.terms.max(1) as f64;
    let char_ratio = gpu.chars as f64 / cpu.chars.max(1) as f64;
    println!("\nshape (GPU/CPU ratios):");
    println!("  tokens: {tok_ratio:.2}x   (paper: 1.26x — GPU sees ~80% as many... i.e. 18.2/14.5)");
    println!("  terms:  {term_ratio:.2}x  (paper: 2.50x)");
    println!("  chars:  {char_ratio:.2}x  (paper: 2.15x)");
    println!(
        "\nkey property: term ratio >> token ratio (tail terms to the GPU): {}",
        if term_ratio > 1.5 * tok_ratio { "holds ✓" } else { "VIOLATED ✗" }
    );
    assert!(term_ratio > 1.5 * tok_ratio);
}
