//! End-to-end checks of the observability layer: the per-stage breakdown a
//! build reports must *conserve* the corpus — stage byte totals equal to
//! the collection's own manifest, item counts equal to file counts — and
//! the counters must be deterministic functions of the input, independent
//! of thread scheduling. The metric names the performance ledger reads by
//! string (a missing name reads there as 0) are pinned here too.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::obs::Snapshot;
use ii_core::pipeline::{
    build_index, build_index_durable, cache_hit_rate, render_table, DurableOptions, PipelineConfig,
};
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
    let cfg = PipelineConfig::small(2, 1, 1);
    let index_dir = dir.with_extension("index");
    let in_memory = build_index(&coll, &cfg).expect("build");
    let durable =
        build_index_durable(&coll, &cfg, &DurableOptions::new(&index_dir)).expect("durable build");
    for out in [&in_memory, &durable] {
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
        let hit_rate = cache_hit_rate(stages).expect("CPU indexer ran");
        assert!(hit_rate > 0.5, "string cache hit rate suspiciously low: {hit_rate}");

        // Dictionary combine/write happened exactly once each.
        assert!(stages.stage("dict_combine").unwrap().items >= 1);
        assert_eq!(stages.stage("dict_write").unwrap().items, 1);
        assert_eq!(stages.stage("dict_write").unwrap().bytes, out.dict_bytes.len() as u64);
    }

    // The ledger reads these two from a durable build's report.
    let stages = &durable.report.stages;
    let high_water = stages.gauges.get("governor.high_water_bytes");
    assert!(high_water.is_some_and(|&b| b > 0), "governor.high_water_bytes: {high_water:?}");
    let written = stages.counters.get("store.bytes_written");
    assert!(written.is_some_and(|&b| b > 0), "store.bytes_written: {written:?}");
    std::fs::remove_dir_all(dir).unwrap();
    std::fs::remove_dir_all(index_dir).unwrap();
}

#[test]
fn breakdown_counters_are_deterministic_across_configs() {
    // Wall times vary run to run; every byte/item/work counter must not.
    let (coll, dir) = stored("det");
    let deterministic = |b: &Snapshot| {
        let mut v: Vec<(String, u64, u64)> =
            b.stages.iter().map(|(name, s)| (name.clone(), s.bytes, s.items)).collect();
        for (name, value) in &b.counters {
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
    let table = render_table(&out.report.stages);
    for name in ["read", "decompress", "parse", "index", "string cache"] {
        assert!(table.contains(name), "table missing {name}:\n{table}");
    }
    let json = out.report.stages.to_json();
    for key in ["\"stages\"", "\"counters\"", "\"pipeline.docs\"", "\"wall_seconds\""] {
        assert!(json.contains(key), "json missing {key}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn query_metrics_accumulate_per_index() {
    let (coll, dir) = stored("query");
    let cfg = PipelineConfig::small(1, 1, 0);
    let index_dir = dir.with_extension("index");
    build_index_durable(&coll, &cfg, &DurableOptions::new(&index_dir)).expect("durable build");
    let built = ii_core::Index::from_output(build_index(&coll, &cfg).expect("build"));
    let opened = ii_core::Index::open(&index_dir).expect("open the durable build");
    // The ledger reads these three by name after its queries.
    let names = ["query.postings_scanned", "query.blocks_decoded", "query.blocks_skipped"];
    for index in [built, opened] {
        // The index interns its query metrics when it is put together, so
        // the counters are there from the start, at zero.
        let snap = index.obs.snapshot();
        for name in names {
            assert_eq!(snap.counters.get(name), Some(&0), "{name}");
        }
        let hits = index.search("information");
        assert!(!hits.is_empty(), "a common word of the synthetic vocabulary");
        let snap = index.obs.snapshot();
        assert!(snap.counter("query.postings_scanned") >= hits.len() as u64);
        assert!(snap.counter("query.blocks_decoded") > 0, "its list was decoded");
        assert!(snap.counters.contains_key("query.blocks_skipped"));
        let q = snap.stages.get("query").expect("query stage recorded");
        assert_eq!(q.items, 1);
    }
    std::fs::remove_dir_all(dir).unwrap();
    std::fs::remove_dir_all(index_dir).unwrap();
}
