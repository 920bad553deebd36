//! Supervision chaos suite: worker kills and stalls against the full
//! pipeline.
//!
//! The degradation contract under test: killing or stalling any worker —
//! parser thread, CPU indexer executor, GPU indexer — at any pipeline
//! stage lets the build complete in a degraded mode whose final index is
//! **byte-identical** to the fault-free build (same dictionary encoding,
//! same sealed runs, same doc map). Shard assignment is lifetime-fixed;
//! only the *host* of a shard moves on death, so the artifacts a shard
//! emits cannot change.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::pipeline::{
    build_index, IndexOutput, PipelineConfig, SupervisorPolicy, WorkerClass, WorkerFaultPlan,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn spec(num_files: usize) -> CollectionSpec {
    CollectionSpec {
        name: "supervision".into(),
        num_files,
        docs_per_file: 10,
        mean_doc_tokens: 50,
        vocab_size: 600,
        zipf_s: 1.0,
        html: false,
        seed: 4242,
        shift: None,
    }
}

fn stored(tag: &str, num_files: usize) -> (Arc<StoredCollection>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ii-supervision-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = StoredCollection::generate(spec(num_files), &dir).unwrap();
    (Arc::new(s), dir)
}

/// 2 parsers, 2 CPU indexers, 1 GPU — every worker class present — with a
/// watchdog timeout short enough for tests to exercise stall death.
fn chaos_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::small(2, 2, 1);
    cfg.supervision = SupervisorPolicy::default().with_stall_timeout(Duration::from_millis(200));
    cfg
}

/// (dictionary bytes, sorted sealed-run encodings, doc-map bytes) — the
/// byte-level identity of a build.
type Fp = (Vec<u8>, Vec<(u32, u32, Vec<u8>)>, Vec<u8>);

fn fingerprint(out: &IndexOutput) -> Fp {
    let mut runs: Vec<(u32, u32, Vec<u8>)> = out
        .run_sets
        .iter()
        .flat_map(|(id, rs)| rs.runs().iter().map(|r| (*id, r.run_id, r.to_bytes())))
        .collect();
    runs.sort();
    let mut dm = Vec::new();
    out.doc_map.write_to(&mut dm).unwrap();
    (out.dict_bytes.clone(), runs, dm)
}

#[test]
fn kill_matrix_every_worker_class_at_every_stage() {
    let n = 9;
    let (coll, dir) = stored("kill-matrix", n);
    let cfg = chaos_cfg();
    let baseline = build_index(&coll, &cfg).expect("fault-free build");
    assert!(baseline.report.supervision.is_clean());
    let base_fp = fingerprint(&baseline);

    // Kill each worker of each class early, mid-build, and late. (A parser
    // kill is keyed by file: it fires on whichever parser thread claims
    // file `at`, so both parser indices kill at the same file.)
    for at in [0usize, n / 2, n - 1] {
        for (class, count) in [
            (WorkerClass::Parser, 2usize),
            (WorkerClass::CpuIndexer, 2),
            (WorkerClass::GpuIndexer, 1),
        ] {
            for idx in 0..count {
                let mut c = cfg.clone();
                c.worker_faults = WorkerFaultPlan::none().kill(class, idx, at);
                let out = build_index(&coll, &c)
                    .unwrap_or_else(|e| panic!("kill {class} {idx} at {at}: build died: {e}"));
                assert_eq!(
                    fingerprint(&out),
                    base_fp,
                    "index diverged after killing {class} {idx} at stage {at}"
                );
                assert!(
                    out.report.supervision.lossy_incidents.is_empty(),
                    "clean-boundary kills must be lossless"
                );
                if class == WorkerClass::Parser {
                    let sup = &out.report.supervision;
                    assert_eq!(sup.deaths_of(class), 1, "file {at}: {}", sup.summary());
                }
            }
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn stall_matrix_watchdog_death_and_tolerated_hiccups() {
    let n = 8;
    let (coll, dir) = stored("stall-matrix", n);
    let cfg = chaos_cfg();
    let baseline = build_index(&coll, &cfg).expect("fault-free build");
    let base_fp = fingerprint(&baseline);

    // The parser thread claiming file `at`, stalled past the watchdog
    // timeout, is declared dead and that file re-ingested inline — at
    // every stage.
    for at in [0usize, n / 2] {
        let mut c = cfg.clone();
        c.worker_faults =
            WorkerFaultPlan::none().stall(WorkerClass::Parser, 0, at, Duration::from_millis(600));
        let out = build_index(&coll, &c).expect("stalled-parser build");
        assert_eq!(fingerprint(&out), base_fp, "stall at {at} diverged");
        let sup = &out.report.supervision;
        assert_eq!(sup.deaths_of(WorkerClass::Parser), 1, "{}", sup.summary());
        assert!(sup.inline_parsed_files >= 1, "{}", sup.summary());
    }

    // An indexer hiccup below the timeout is tolerated, not a death.
    let mut c = cfg.clone();
    c.worker_faults =
        WorkerFaultPlan::none().stall(WorkerClass::CpuIndexer, 0, 2, Duration::from_millis(20));
    let out = build_index(&coll, &c).expect("hiccup build");
    assert_eq!(fingerprint(&out), base_fp);
    assert!(out.report.supervision.deaths.is_empty(), "a hiccup is not a death");

    // A GPU indexer stalled past the timeout is a death: salvage + CPU
    // takeover, still byte-identical.
    let mut c = cfg.clone();
    c.worker_faults =
        WorkerFaultPlan::none().stall(WorkerClass::GpuIndexer, 0, 2, Duration::from_millis(500));
    let out = build_index(&coll, &c).expect("stalled-GPU build");
    assert_eq!(fingerprint(&out), base_fp);
    let sup = &out.report.supervision;
    assert_eq!(sup.deaths_of(WorkerClass::GpuIndexer), 1, "{}", sup.summary());
    assert!(sup.gpu_takeovers >= 1, "{}", sup.summary());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn compound_failures_degrade_all_the_way_to_the_driver() {
    // Kill every indexer — both CPU executors and the GPU. The build must
    // finish with shards hosted on the driver thread, byte-identically.
    let n = 6;
    let (coll, dir) = stored("compound", n);
    let cfg = chaos_cfg();
    let baseline = build_index(&coll, &cfg).expect("fault-free build");
    let mut c = cfg.clone();
    c.worker_faults = WorkerFaultPlan::none()
        .kill(WorkerClass::CpuIndexer, 0, 1)
        .kill(WorkerClass::CpuIndexer, 1, 2)
        .kill(WorkerClass::GpuIndexer, 0, 3)
        .kill(WorkerClass::Parser, 0, 4);
    let out = build_index(&coll, &c).expect("total indexer loss must still complete");
    assert_eq!(fingerprint(&out), fingerprint(&baseline));
    let sup = &out.report.supervision;
    assert_eq!(sup.deaths.len(), 4, "{}", sup.summary());
    assert!(sup.fallback_seconds > 0.0, "shards must have run on the driver");
    std::fs::remove_dir_all(dir).unwrap();
}

/// Shared fault-free baseline for the property tests (built once).
fn proptest_base() -> &'static (Arc<StoredCollection>, Fp) {
    static BASE: OnceLock<(Arc<StoredCollection>, Fp)> = OnceLock::new();
    BASE.get_or_init(|| {
        let (coll, _dir) = stored("proptest", 8);
        let out = build_index(&coll, &chaos_cfg()).expect("fault-free baseline");
        let fp = fingerprint(&out);
        (coll, fp)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded worker-kill/stall schedule — including ones that kill
    /// every indexer (the driver hosts the orphaned shards) or every
    /// parser (the driver re-ingests their files inline) — produces a
    /// byte-identical index.
    #[test]
    fn seeded_fault_schedules_preserve_byte_identity(seed in any::<u64>()) {
        let (coll, base_fp) = proptest_base();
        let mut cfg = chaos_cfg();
        cfg.worker_faults = WorkerFaultPlan::seeded(seed, 2, 2, 1, 8, 3);
        let out = build_index(coll, &cfg).expect("chaos build must complete");
        prop_assert_eq!(&fingerprint(&out), base_fp, "seed {} diverged", seed);
        prop_assert!(out.report.supervision.lossy_incidents.is_empty());
    }
}

/// The CI `chaos-degradation` smoke: the kill matrix on the congress
/// preset (HTML documents, realistic vocabulary). Heavier than the tiny
/// matrices above, so it only runs when asked for:
/// `cargo test -p ii-integration-tests --test supervision -- --ignored`.
#[test]
#[ignore = "chaos-degradation smoke; run explicitly with -- --ignored"]
fn congress_preset_chaos_matrix() {
    let dir = std::env::temp_dir().join(format!("ii-supervision-congress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut s = CollectionSpec::congress_like(0.3);
    s.seed = 0x10C;
    let coll = Arc::new(StoredCollection::generate(s, &dir).unwrap());
    let n = coll.num_files();
    let cfg = chaos_cfg();
    let baseline = build_index(&coll, &cfg).expect("fault-free congress build");
    let base_fp = fingerprint(&baseline);

    for (class, idx, at) in [
        (WorkerClass::Parser, 0, 1),
        (WorkerClass::Parser, 1, n / 2),
        (WorkerClass::CpuIndexer, 0, n / 2),
        (WorkerClass::CpuIndexer, 1, n - 1),
        (WorkerClass::GpuIndexer, 0, n / 2),
    ] {
        let mut c = cfg.clone();
        c.worker_faults = WorkerFaultPlan::none().kill(class, idx, at);
        let out = build_index(&coll, &c)
            .unwrap_or_else(|e| panic!("congress kill {class} {idx} at {at}: {e}"));
        assert_eq!(
            fingerprint(&out),
            base_fp,
            "congress index diverged after killing {class} {idx} at {at}"
        );
    }
    // And a stall-death on the GPU path.
    let mut c = cfg.clone();
    c.worker_faults =
        WorkerFaultPlan::none().stall(WorkerClass::GpuIndexer, 0, n / 2, Duration::from_secs(1));
    let out = build_index(&coll, &c).expect("stalled-GPU congress build");
    assert_eq!(fingerprint(&out), base_fp);
    assert!(out.report.supervision.gpu_takeovers >= 1);
    std::fs::remove_dir_all(dir).unwrap();
}
