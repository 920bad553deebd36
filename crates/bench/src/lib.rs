//! # ii-bench — experiment harnesses
//!
//! One binary per table and figure of the paper's evaluation section (see
//! DESIGN.md §4 for the index), plus criterion microbenches of the hot
//! kernels. This library holds the shared scaffolding: scaled synthetic
//! collections, run directories, and table formatting — and, in [`bits`],
//! the γ and Golomb codes the codec ablation compares variable-byte with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;

use ii_core::corpus::{CollectionSpec, StoredCollection};
use std::path::PathBuf;
use std::sync::Arc;

/// Default scale factor applied to paper-sized collections for measured
/// (non-simulated) experiments on this host. Reports must print it.
pub const MEASURED_SCALE: f64 = 0.5;

/// Generate (or reuse a cached copy of) a stored collection.
pub fn stored_collection(tag: &str, spec: CollectionSpec) -> Arc<StoredCollection> {
    let dir = bench_dir(tag);
    if let Ok(existing) = StoredCollection::open(&dir) {
        if existing.manifest.spec == spec {
            return Arc::new(existing);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(StoredCollection::generate(spec, &dir).expect("generate collection"))
}

/// Directory for bench artifacts.
pub fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join("ii-bench-data").join(tag)
}

/// Persist an observability snapshot next to the bench artifacts (same
/// JSON format as `ii build --stats-json`) and print where it went.
pub fn write_stats_snapshot(tag: &str, snapshot: &ii_core::obs::Snapshot) -> PathBuf {
    let dir = bench_dir("obs");
    std::fs::create_dir_all(&dir).expect("create obs dir");
    let path = dir.join(format!("{tag}.json"));
    snapshot.write_json(&path).expect("write obs snapshot");
    println!("\n[obs] stage snapshot written to {}", path.display());
    path
}

/// Print a horizontal rule sized to a table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Format seconds with sensible precision.
pub fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Print a paper-vs-reproduced comparison row.
pub fn compare_row(label: &str, paper: f64, ours: f64, unit: &str) {
    let ratio = if paper > 0.0 { ours / paper } else { f64::NAN };
    println!("{label:<44}{paper:>12.2}{ours:>12.2}  {unit:<6} (x{ratio:.2} of paper)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_collection_caches() {
        let spec = CollectionSpec::tiny(123);
        let a = stored_collection("lib-test", spec.clone());
        let b = stored_collection("lib-test", spec);
        assert_eq!(a.manifest.stats, b.manifest.stats);
        let _ = std::fs::remove_dir_all(bench_dir("lib-test"));
    }

    #[test]
    fn fmt_s_precision() {
        assert_eq!(fmt_s(123.4), "123");
        assert_eq!(fmt_s(1.234), "1.23");
        assert_eq!(fmt_s(0.01234), "0.0123");
    }
}
