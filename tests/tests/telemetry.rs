//! Telemetry integration suite.
//!
//! Two surfaces under test. (1) The OpenMetrics exposition: whatever
//! metric names and values land in a registry — including names that need
//! label escaping — the rendered text must pass the in-tree lint, parse
//! back with exact values, and keep cumulative `le` buckets monotone with
//! `+Inf` equal to the count. (2) Post-mortem bundles: two identically
//! seeded kill-injection builds must produce byte-identical `event`
//! sections (the `telemetry` section holds wall-clock figures and is
//! timing-dependent by design), and the rendered report must attribute
//! the death exactly as the `SupervisionReport` records it.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::obs::{openmetrics, Registry};
use ii_core::pipeline::{
    build_index, render_bundle_report, PipelineConfig, SupervisorPolicy, WorkerClass,
    WorkerFaultPlan,
};
use proptest::prelude::*;
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Arc;

fn name_strategy() -> impl Strategy<Value = String> {
    // Metric names become label *values* in the exposition; mix ordinary
    // dotted names with every character the escaper must handle (quote,
    // backslash, newline).
    "[a-z.\"\\\\\n-]{1,19}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exposition_lints_parses_and_round_trips(
        // Counter values stay under 2^53 so the f64 the parser yields is
        // exact.
        counter_list in proptest::collection::vec((name_strategy(), 0u64..(1 << 53)), 0..6),
        gauge_list in proptest::collection::vec(
            // The vendored proptest only implements `Strategy` for unsigned
            // ranges; recentre to cover negative gauge values.
            (name_strategy(), (0u64..2_000_000).prop_map(|v| v as i64 - 1_000_000)),
            0..6,
        ),
        observations in proptest::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        // Last write wins on duplicate names, matching registry interning.
        let counters: std::collections::BTreeMap<String, u64> = counter_list.into_iter().collect();
        let gauges: std::collections::BTreeMap<String, i64> = gauge_list.into_iter().collect();
        let registry = Registry::new();
        for (name, v) in &counters {
            registry.counter(name).add(*v);
        }
        for (name, v) in &gauges {
            registry.gauge(name).set(*v);
        }
        let h = registry.histogram("latency.ns");
        for v in &observations {
            h.record_ns(*v);
        }
        let snap = registry.snapshot();
        let text = openmetrics::render(&snap);
        let lint = openmetrics::lint(&text);
        prop_assert!(lint.is_ok(), "lint failed: {:?}\n{text}", lint.err());
        let points = openmetrics::parse(&text).unwrap();
        // Label escaping round-trips every name with its exact value.
        for (name, v) in &counters {
            let p = points
                .iter()
                .find(|p| p.name == "ii_counter_total" && p.label("name") == Some(name.as_str()));
            prop_assert!(p.is_some(), "counter {name:?} missing from exposition");
            prop_assert_eq!(p.unwrap().value, *v as f64);
        }
        for (name, v) in &gauges {
            let p = points
                .iter()
                .find(|p| p.name == "ii_gauge" && p.label("name") == Some(name.as_str()));
            prop_assert!(p.is_some(), "gauge {name:?} missing from exposition");
            prop_assert_eq!(p.unwrap().value, *v as f64);
        }
        // Cumulative `le` buckets: monotone nondecreasing, `+Inf` == count.
        let buckets: Vec<f64> = points
            .iter()
            .filter(|p| {
                p.name == "ii_histogram_ns_bucket" && p.label("name") == Some("latency.ns")
            })
            .map(|p| p.value)
            .collect();
        if !observations.is_empty() {
            prop_assert!(!buckets.is_empty());
            prop_assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets not monotone: {buckets:?}");
            prop_assert_eq!(*buckets.last().unwrap(), observations.len() as f64);
        }
        // The JSON snapshot parses with the in-tree reader (the format the
        // bundle embeds).
        prop_assert!(serde_json::from_str::<Value>(&snap.to_json()).is_ok());
    }
}

fn spec(num_files: usize) -> CollectionSpec {
    CollectionSpec {
        name: "telemetry".into(),
        num_files,
        docs_per_file: 10,
        mean_doc_tokens: 50,
        vocab_size: 600,
        zipf_s: 1.0,
        html: false,
        seed: 9142,
        shift: None,
    }
}

fn stored(tag: &str, num_files: usize) -> (Arc<StoredCollection>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ii-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = StoredCollection::generate(spec(num_files), &dir).unwrap();
    (Arc::new(s), dir)
}

/// A build that loses its GPU to a seeded kill at batch 1 and writes
/// bundles into `pm_dir`.
fn kill_cfg(pm_dir: &std::path::Path) -> PipelineConfig {
    let mut cfg = PipelineConfig::small(2, 1, 1);
    cfg.supervision = SupervisorPolicy::default();
    cfg.worker_faults = WorkerFaultPlan::none().kill(WorkerClass::GpuIndexer, 0, 1);
    cfg.telemetry.postmortem_dir = Some(pm_dir.to_path_buf());
    cfg
}

/// The deterministic prefix of a bundle: everything before the
/// `"telemetry"` section (which holds wall-clock samples).
fn event_section(bundle: &str) -> &str {
    let cut = bundle.find("\"telemetry\"").expect("bundle has a telemetry section");
    &bundle[..cut]
}

#[test]
fn seeded_kill_bundles_have_byte_identical_event_sections() {
    let (coll, _dir) = stored("determinism", 6);
    let run = |tag: &str| {
        let pm = std::env::temp_dir()
            .join(format!("ii-telemetry-pm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&pm);
        let out = build_index(&coll, &kill_cfg(&pm)).expect("degraded build completes");
        assert_eq!(out.report.supervision.deaths.len(), 1, "exactly the injected death");
        assert_eq!(
            out.report.postmortem_bundles.len(),
            1,
            "one bundle for the one failure event"
        );
        let text = std::fs::read_to_string(&out.report.postmortem_bundles[0]).unwrap();
        let deaths: Vec<String> =
            out.report.supervision.deaths.iter().map(|d| d.to_string()).collect();
        let _ = std::fs::remove_dir_all(&pm);
        (text, deaths)
    };
    let (a, deaths_a) = run("a");
    let (b, deaths_b) = run("b");
    assert_eq!(deaths_a, deaths_b, "supervision ledger is deterministic");
    assert_eq!(
        event_section(&a),
        event_section(&b),
        "event sections of identically-seeded kill builds must be byte-identical"
    );
}

#[test]
fn bundle_report_attribution_matches_the_supervision_report() {
    let (coll, _dir) = stored("attribution", 6);
    let pm = std::env::temp_dir().join(format!("ii-telemetry-pm-attr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&pm);
    let out = build_index(&coll, &kill_cfg(&pm)).expect("degraded build completes");
    let text = std::fs::read_to_string(&out.report.postmortem_bundles[0]).unwrap();

    // The bundle's deaths array mirrors the SupervisionReport entry for
    // entry (class, index, cause strings).
    let v: Value = serde_json::from_str(&text).expect("bundle is valid JSON");
    let deaths = v
        .get("event")
        .and_then(|e| e.get("deaths"))
        .and_then(Value::as_array)
        .expect("bundle has a deaths array");
    assert_eq!(deaths.len(), out.report.supervision.deaths.len());
    for (j, d) in deaths.iter().zip(&out.report.supervision.deaths) {
        assert_eq!(j.get("class").and_then(|x| x.as_str()), Some(d.class.to_string().as_str()));
        assert_eq!(j.get("index").and_then(|x| x.as_u64()), Some(d.index as u64));
        assert_eq!(j.get("cause").and_then(|x| x.as_str()), Some(d.cause.to_string().as_str()));
    }

    // The rendered report (the `ii postmortem` surface) attributes the
    // cause in the supervisor's own words and carries a timeline.
    let report = render_bundle_report(&text).expect("bundle renders");
    assert!(report.contains("trigger: worker-death"), "{report}");
    for d in &out.report.supervision.deaths {
        assert!(report.contains(&d.to_string()), "missing {d} in:\n{report}");
    }
    assert!(report.contains("flight recorder:"), "{report}");
    assert!(report.contains("timeline"), "{report}");
    // The recorder samples the build's registry: the dead GPU's heartbeat
    // age arrives as its `worker.*.idle_ms` gauge, the index stage as its
    // bytes/items/wall counters.
    for row in ["worker.gpu-0.idle_ms", "Δ index.bytes", "Δ index.items", "Δ index.wall_ns"] {
        assert!(
            report.lines().any(|l| l.trim_start().starts_with(row)),
            "no timeline row {row}:\n{report}"
        );
    }
    let _ = std::fs::remove_dir_all(&pm);
}

#[test]
fn healthy_builds_write_no_bundles() {
    let (coll, _dir) = stored("healthy", 3);
    let pm = std::env::temp_dir().join(format!("ii-telemetry-pm-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&pm);
    let mut cfg = PipelineConfig::small(2, 1, 1);
    cfg.telemetry.postmortem_dir = Some(pm.clone());
    let out = build_index(&coll, &cfg).expect("clean build");
    assert!(out.report.supervision.is_clean());
    assert!(out.report.postmortem_bundles.is_empty());
    assert!(!pm.exists(), "no bundle dir is created for a healthy build");
}
