//! End-to-end checks of the observability layer: the per-stage breakdown a
//! build reports must *conserve* the corpus — stage byte totals equal to
//! the collection's own manifest, item counts equal to file counts — and
//! the counters must be deterministic functions of the input, independent
//! of thread scheduling.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::pipeline::{build_index, PipelineConfig, StageBreakdown};
use std::path::PathBuf;
use std::sync::Arc;

fn spec() -> CollectionSpec {
    CollectionSpec {
        name: "obs".into(),
        num_files: 4,
        docs_per_file: 25,
        mean_doc_tokens: 90,
        vocab_size: 2500,
        zipf_s: 1.0,
        html: true,
        seed: 424242,
        shift: None,
    }
}

fn stored(tag: &str) -> (Arc<StoredCollection>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ii-obs-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = StoredCollection::generate(spec(), &dir).unwrap();
    (Arc::new(s), dir)
}

#[test]
fn stage_bytes_conserve_the_corpus() {
    let (coll, dir) = stored("conserve");
    let out = build_index(&coll, &PipelineConfig::small(2, 1, 1)).expect("build");
    let stages = &out.report.stages;
    let stats = &coll.manifest.stats;

    // Read stage sees compressed container bytes, one item per file.
    let read = stages.stage("read").expect("read stage recorded");
    assert_eq!(read.bytes, stats.compressed_bytes, "read bytes != compressed corpus");
    assert_eq!(read.items, spec().num_files as u64);

    // Decompress, parse and index each see the full uncompressed corpus.
    for name in ["decompress", "parse", "index"] {
        let s = stages.stage(name).unwrap_or_else(|| panic!("{name} stage recorded"));
        assert_eq!(s.bytes, stats.uncompressed_bytes, "{name} bytes != corpus bytes");
        assert!(s.wall_seconds > 0.0, "{name} wall time must be nonzero");
    }
    assert_eq!(stages.stage("decompress").unwrap().items, spec().num_files as u64);

    // Deep counters agree with the report's own tallies.
    assert_eq!(stages.counter("pipeline.docs"), out.report.docs as u64);
    assert_eq!(stages.counter("pipeline.terms"), out.dictionary.len() as u64);
    assert_eq!(stages.counter("pipeline.files.quarantined"), 0);
    // A GPU was configured, so simulated kernel work must have been metered.
    assert!(stages.counter("gpu.warp_comparisons") > 0);
    assert!(stages.counter("gpu.h2d_bytes") > 0);
    // The 4-byte string cache resolves most comparisons (paper §III.D).
    let hit_rate = stages.cache_hit_rate().expect("CPU indexer ran");
    assert!(hit_rate > 0.5, "string cache hit rate suspiciously low: {hit_rate}");

    // Dictionary combine/write happened exactly once each.
    assert!(stages.stage("dict_combine").unwrap().items >= 1);
    assert_eq!(stages.stage("dict_write").unwrap().items, 1);
    assert_eq!(stages.stage("dict_write").unwrap().bytes, out.dict_bytes.len() as u64);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn breakdown_counters_are_deterministic_across_configs() {
    // Wall times vary run to run; every byte/item/work counter must not.
    let (coll, dir) = stored("det");
    let deterministic = |b: &StageBreakdown| {
        let mut v: Vec<(String, u64, u64)> = b
            .snapshot
            .stages
            .iter()
            .map(|(name, s)| (name.clone(), s.bytes, s.items))
            .collect();
        for (name, value) in &b.snapshot.counters {
            // How many files the consumer ingested while it waited says who
            // did the work, which is scheduling; the work is the same.
            if name != "pipeline.helped_files" {
                v.push((name.clone(), *value, 0));
            }
        }
        v
    };
    let base = build_index(&coll, &PipelineConfig::small(1, 1, 1)).expect("build");
    for parsers in [2usize, 4] {
        let out = build_index(&coll, &PipelineConfig::small(parsers, 1, 1)).expect("build");
        assert_eq!(
            deterministic(&out.report.stages),
            deterministic(&base.report.stages),
            "{parsers} parsers changed deterministic counters"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn rendered_table_and_json_expose_the_breakdown() {
    let (coll, dir) = stored("render");
    let out = build_index(&coll, &PipelineConfig::small(2, 1, 0)).expect("build");
    let table = out.report.stages.render_table();
    for name in ["read", "decompress", "parse", "index", "string cache"] {
        assert!(table.contains(name), "table missing {name}:\n{table}");
    }
    let json = out.report.stages.snapshot.to_json();
    for key in ["\"stages\"", "\"counters\"", "\"pipeline.docs\"", "\"wall_seconds\""] {
        assert!(json.contains(key), "json missing {key}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn query_metrics_accumulate_per_index() {
    let (coll, dir) = stored("query");
    let out = build_index(&coll, &PipelineConfig::small(1, 1, 0)).expect("build");
    let index = ii_core::Index::from_output(out);
    // The index interns its query metrics when it is put together, so the
    // counter is there from the start, at zero.
    assert_eq!(index.obs.snapshot().counters.get("query.postings_scanned"), Some(&0));
    let hits = index.search("information");
    let snap = index.obs.snapshot();
    let scanned = snap.counters.get("query.postings_scanned").copied().unwrap_or(0);
    if !hits.is_empty() {
        assert!(scanned > 0, "hits returned but no postings metered");
    }
    let q = snap.stages.get("query").expect("query stage recorded");
    assert_eq!(q.items, 1);
    std::fs::remove_dir_all(dir).unwrap();
}
