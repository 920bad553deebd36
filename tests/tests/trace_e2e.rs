//! End-to-end trace coverage on the congress preset: a traced build must
//! produce a timeline for *every* worker — each parser thread, the driver,
//! and each logical indexer — with the right span kinds on each, the
//! exported Chrome JSON must round-trip exactly, and the derived report's
//! utilization/stall attribution must sum to wall time on every worker.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::obs::{Trace, TraceKind, TraceReport};
use ii_core::pipeline::{build_index, PipelineConfig};
use std::sync::Arc;

const PARSERS: usize = 2;
const CPUS: usize = 1;
const GPUS: usize = 1;
const FILES: usize = 6;

fn traced_build() -> (Trace, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ii-trace-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The congress preset at a scale small enough for a test: keep the
    // document shape (long congressional records, HTML), shrink the counts.
    let mut spec = CollectionSpec::congress_like(0.5);
    spec.num_files = FILES;
    spec.docs_per_file = 20;
    let coll = Arc::new(StoredCollection::generate(spec, &dir).unwrap());
    let mut cfg = PipelineConfig::small(PARSERS, CPUS, GPUS);
    cfg.trace.enabled = true;
    let out = build_index(&coll, &cfg).expect("traced build");
    (out.report.trace.expect("trace present when enabled"), dir)
}

fn kinds_of(trace: &Trace, worker: &str) -> Vec<TraceKind> {
    let w = trace
        .workers
        .iter()
        .find(|w| w.name == worker)
        .unwrap_or_else(|| panic!("worker '{worker}' missing from trace"));
    w.events.iter().map(|e| e.kind).collect()
}

#[test]
fn congress_trace_covers_every_worker_and_round_trips() {
    let (trace, dir) = traced_build();

    // Every pipeline worker shows up: the driver, each parser thread, and
    // each logical indexer timeline.
    let names: Vec<&str> = trace.workers.iter().map(|w| w.name.as_str()).collect();
    assert!(names.contains(&"driver"), "driver timeline missing: {names:?}");
    for p in 0..PARSERS {
        assert!(names.contains(&format!("parser-{p}").as_str()), "parser-{p} missing");
    }
    for c in 0..CPUS {
        assert!(names.contains(&format!("cpu-{c}").as_str()), "cpu-{c} missing");
    }
    for g in 0..GPUS {
        assert!(names.contains(&format!("gpu-{g}").as_str()), "gpu-{g} missing");
    }

    // Each worker records the right span kinds. Parsers read, decompress
    // and parse; the driver samples, indexes, flushes and writes the
    // dictionary; indexers index and flush.
    for p in 0..PARSERS {
        let kinds = kinds_of(&trace, &format!("parser-{p}"));
        assert!(kinds.contains(&TraceKind::Read), "parser-{p} never read");
        assert!(kinds.contains(&TraceKind::Decompress), "parser-{p} never decompressed");
        assert!(kinds.contains(&TraceKind::Parse), "parser-{p} never parsed");
    }
    let driver = kinds_of(&trace, "driver");
    for k in [
        TraceKind::Sample,
        TraceKind::Index,
        TraceKind::Flush,
        TraceKind::DictCombine,
        TraceKind::DictWrite,
    ] {
        assert!(driver.contains(&k), "driver has no {k:?} span");
    }
    for w in ["cpu-0", "gpu-0"] {
        let kinds = kinds_of(&trace, w);
        assert!(kinds.contains(&TraceKind::Index), "{w} never indexed");
        assert!(kinds.contains(&TraceKind::Flush), "{w} never flushed");
    }

    // GPU indexing spans carry simulated kernel counters.
    let gpu = trace.workers.iter().find(|w| w.name == "gpu-0").unwrap();
    let gpu_args = gpu
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Index)
        .filter_map(|e| e.gpu)
        .collect::<Vec<_>>();
    assert!(!gpu_args.is_empty(), "gpu index spans carry no kernel counters");
    assert!(gpu_args.iter().any(|g| g.warp_comparisons > 0), "no warp comparisons metered");

    // The queue gauge of the parsed files waiting for their turn was sampled.
    assert!(
        trace.gauges.iter().any(|g| g.name == "queue.parsed"),
        "queue gauge for the parsed files missing"
    );
    // So was the process's memory, where `/proc/self/status` exists: one
    // sample per file and one after the combine, the high-water mark never
    // below the resident set and never falling.
    if std::path::Path::new("/proc/self/status").exists() {
        let series = |name: &str| {
            let g = trace.gauges.iter().find(|g| g.name == name);
            g.unwrap_or_else(|| panic!("{name} missing")).samples.clone()
        };
        let (rss, hwm) = (series("process.rss_kb"), series("process.hwm_kb"));
        assert_eq!(rss.len(), FILES + 1, "one memory sample per file, one after the combine");
        assert_eq!(hwm.len(), rss.len());
        assert!(rss.iter().zip(&hwm).all(|(r, h)| r.1 > 0 && h.1 >= r.1), "{rss:?} {hwm:?}");
        assert!(hwm.windows(2).all(|w| w[0].1 <= w[1].1), "high water fell: {hwm:?}");
    }

    // The exported Chrome JSON parses back to an identical trace.
    let json = trace.to_chrome_json();
    assert!(json.contains("\"traceEvents\""));
    let back = Trace::from_chrome_json(&json).expect("exported JSON parses");
    assert_eq!(back, trace, "chrome export does not round-trip");

    // The report's invariants hold: spans well-formed, busy time on every
    // worker, attribution summing to wall within tolerance.
    let report = TraceReport::from_trace(&trace);
    report.check(&trace).expect("trace report check");
    for w in &report.workers {
        assert_eq!(w.busy_ns + w.stall_ns + w.idle_ns, w.wall_ns, "{} attribution", w.name);
    }
    // The rendered report names every worker and a critical stage.
    let rendered = report.render(&trace, 100);
    for w in &trace.workers {
        assert!(rendered.contains(&w.name), "render omits {}", w.name);
    }
    assert!(rendered.contains("critical stage:"), "render omits the critical stage");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disabled_tracing_reports_no_trace() {
    let dir = std::env::temp_dir().join(format!("ii-trace-e2e-off-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = CollectionSpec::congress_like(0.5);
    spec.num_files = 2;
    spec.docs_per_file = 8;
    let coll = Arc::new(StoredCollection::generate(spec, &dir).unwrap());
    let out = build_index(&coll, &PipelineConfig::small(2, 1, 1)).expect("build");
    assert!(out.report.trace.is_none(), "tracing off must not produce a trace");
    std::fs::remove_dir_all(&dir).unwrap();
}
