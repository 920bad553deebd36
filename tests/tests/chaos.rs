//! Chaos suite: fault injection against the full pipeline.
//!
//! Uses the ii-corpus `FaultPlan` harness to corrupt container files in
//! controlled, seeded ways and asserts the pipeline's recovery contract:
//! skip-file builds quarantine exactly the injected files and index
//! everything else with unchanged docIDs and postings; fail-fast builds
//! abort with a typed error naming the file; transient faults below the
//! retry budget are invisible in the output.

use ii_core::corpus::{CollectionSpec, FaultKind, FaultPlan, StoredCollection};
use ii_core::pipeline::{
    build_index, FaultClass, FaultPolicy, IndexOutput, PipelineConfig, PipelineError,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn spec(num_files: usize) -> CollectionSpec {
    CollectionSpec {
        name: "chaos".into(),
        num_files,
        docs_per_file: 12,
        mean_doc_tokens: 60,
        vocab_size: 800,
        zipf_s: 1.0,
        html: false,
        seed: 777,
        shift: None,
    }
}

fn stored(tag: &str, num_files: usize) -> (Arc<StoredCollection>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ii-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = StoredCollection::generate(spec(num_files), &dir).unwrap();
    (Arc::new(s), dir)
}

fn faulty(dir: &Path, plan: FaultPlan) -> Arc<StoredCollection> {
    Arc::new(StoredCollection::open(dir).unwrap().with_faults(plan))
}

fn skip_cfg(parsers: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::small(parsers, 1, 1);
    cfg.fault_policy = FaultPolicy::skip_file();
    cfg
}

/// Every chaos build — clean or degraded — must still produce a
/// structurally valid combined dictionary (ii-dict's verify pass).
fn assert_dict_valid(out: &IndexOutput, ctx: &str) {
    let violations = ii_core::dict::verify_global(&out.dictionary);
    assert!(violations.is_empty(), "{ctx}: dictionary invariants violated: {violations:?}");
}

/// Term -> sorted (docID, tf) postings for the whole index.
fn fingerprint(out: &IndexOutput) -> BTreeMap<String, Vec<(u32, u32)>> {
    out.dictionary
        .entries()
        .map(|e| {
            let l = out.run_sets[&e.indexer].fetch(e.postings).unwrap();
            (e.full_term(), l.postings().iter().map(|p| (p.doc.0, p.tf)).collect())
        })
        .collect()
}

/// The clean fingerprint with every posting of the dropped files removed
/// (and then-empty terms dropped). Because a quarantined file keeps an
/// empty docID slot, surviving docIDs are directly comparable.
fn restrict(
    clean: &BTreeMap<String, Vec<(u32, u32)>>,
    clean_out: &IndexOutput,
    dropped_files: &[usize],
) -> BTreeMap<String, Vec<(u32, u32)>> {
    let ranges: Vec<(u32, u32)> = clean_out
        .doc_map
        .entries()
        .iter()
        .filter(|e| dropped_files.contains(&(e.file_idx as usize)))
        .map(|e| (e.first_doc, e.first_doc + e.n_docs))
        .collect();
    clean
        .iter()
        .filter_map(|(term, posts)| {
            let kept: Vec<(u32, u32)> = posts
                .iter()
                .filter(|(doc, _)| !ranges.iter().any(|(lo, hi)| (*lo..*hi).contains(doc)))
                .copied()
                .collect();
            (!kept.is_empty()).then_some((term.clone(), kept))
        })
        .collect()
}

#[test]
fn skip_file_at_every_position_matches_clean_build_restricted() {
    let n = 5;
    let (clean_coll, dir) = stored("every-pos", n);
    let clean = build_index(&clean_coll, &skip_cfg(2)).expect("clean build");
    assert!(clean.report.faults.is_clean());
    assert_dict_valid(&clean, "clean build");
    let clean_fp = fingerprint(&clean);
    for bad in 0..n {
        let coll = faulty(&dir, FaultPlan::new(100 + bad as u64).with_fault(bad, FaultKind::Garbage));
        let out = build_index(&coll, &skip_cfg(2))
            .unwrap_or_else(|e| panic!("skip-file build died at position {bad}: {e}"));
        assert_dict_valid(&out, &format!("file {bad} quarantined"));
        assert_eq!(out.report.faults.quarantined_files(), vec![bad]);
        assert_eq!(
            fingerprint(&out),
            restrict(&clean_fp, &clean, &[bad]),
            "surviving postings diverged with file {bad} quarantined"
        );
        // Surviving docIDs are exactly the clean build's IDs.
        assert_eq!(out.doc_map.entries()[bad].n_docs, 0);
        for (i, e) in out.doc_map.entries().iter().enumerate() {
            if i != bad {
                assert_eq!(e.first_doc, clean.doc_map.entries()[i].first_doc, "file {i}");
            }
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn ten_percent_injection_quarantines_exactly_the_injected_files() {
    // The acceptance scenario: 10% of files corrupted, skip-file policy.
    let n = 10;
    let (_, dir) = stored("ten-pct", n);
    let plan = FaultPlan::sprinkle(2024, n, 0.10, FaultKind::Garbage);
    let injected = plan.faulty_files();
    assert_eq!(injected.len(), 1, "10% of {n} files");
    let coll = faulty(&dir, plan);
    let out = build_index(&coll, &skip_cfg(3)).expect("10% injection must not kill the build");
    assert_dict_valid(&out, "10% injection");
    assert_eq!(out.report.faults.quarantined_files(), injected);
    let clean_coll = Arc::new(StoredCollection::open(&dir).unwrap());
    let clean = build_index(&clean_coll, &skip_cfg(3)).expect("clean build");
    assert_eq!(fingerprint(&out), restrict(&fingerprint(&clean), &clean, &injected));
    let lost: u32 = injected.len() as u32 * 12;
    assert_eq!(out.report.docs, clean.report.docs - lost);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn fail_fast_aborts_with_a_typed_error_naming_the_file() {
    let (_, dir) = stored("fail-fast", 4);
    let coll = faulty(&dir, FaultPlan::new(5).with_fault(2, FaultKind::Truncate));
    let cfg = PipelineConfig::small(2, 1, 0); // default policy = fail fast
    match build_index(&coll, &cfg) {
        Ok(_) => panic!("fail-fast build must abort on a truncated container"),
        Err(PipelineError::File(fault)) => {
            assert_eq!(fault.file_idx, 2);
            assert_eq!(fault.class, FaultClass::Permanent);
        }
        Err(other) => panic!("expected a file fault, got: {other}"),
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn quarantine_output_is_deterministic_across_parser_counts() {
    let (_, dir) = stored("det", 6);
    let mut fps = Vec::new();
    for parsers in [1usize, 2, 4] {
        let coll = faulty(
            &dir,
            FaultPlan::new(6)
                .with_fault(1, FaultKind::Garbage)
                .with_fault(4, FaultKind::Truncate),
        );
        let out = build_index(&coll, &skip_cfg(parsers)).expect("skip-file build");
        assert_dict_valid(&out, &format!("{parsers} parsers"));
        assert_eq!(out.report.faults.quarantined_files(), vec![1, 4]);
        fps.push(fingerprint(&out));
    }
    assert_eq!(fps[0], fps[1]);
    assert_eq!(fps[0], fps[2]);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn recovered_transient_faults_leave_no_trace_in_the_output() {
    let (clean_coll, dir) = stored("transient", 4);
    let cfg = PipelineConfig::small(2, 1, 1); // fail-fast: recovery must succeed
    let clean = build_index(&clean_coll, &cfg).expect("clean build");
    let coll = faulty(
        &dir,
        FaultPlan::new(7)
            .with_fault(0, FaultKind::TransientRead { failures: 1 })
            .with_fault(2, FaultKind::TransientRead { failures: 2 }),
    );
    let out = build_index(&coll, &cfg).expect("transient faults under the retry budget");
    assert_dict_valid(&out, "recovered transients");
    assert_eq!(out.dict_bytes, clean.dict_bytes, "dictionary must be byte-identical");
    assert_eq!(fingerprint(&out), fingerprint(&clean));
    assert!(out.report.faults.retries >= 3);
    assert!(out.report.faults.quarantined.is_empty());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn exhausted_transient_budget_quarantines_as_transient() {
    let (_, dir) = stored("exhausted", 3);
    // Far more failures than sampling + parsing can retry through.
    let coll = faulty(&dir, FaultPlan::new(8).with_fault(1, FaultKind::TransientRead { failures: 50 }));
    let mut cfg = skip_cfg(2);
    cfg.fault_policy = cfg.fault_policy.with_max_retries(2);
    let out = build_index(&coll, &cfg).expect("skip-file build");
    assert_dict_valid(&out, "exhausted retry budget");
    assert_eq!(out.report.faults.quarantined_files(), vec![1]);
    let fault = &out.report.faults.quarantined[0];
    assert_eq!(fault.class, FaultClass::Transient);
    assert_eq!(fault.retries, 2, "gave up after the retry budget");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn injected_panic_is_contained_and_reported() {
    let (clean_coll, dir) = stored("panic", 4);
    let clean = build_index(&clean_coll, &skip_cfg(2)).expect("clean build");
    let coll = faulty(&dir, FaultPlan::new(9).with_fault(3, FaultKind::Panic));
    let out = build_index(&coll, &skip_cfg(2)).expect("panic must be contained");
    assert_dict_valid(&out, "contained panic");
    assert_eq!(out.report.faults.quarantined_files(), vec![3]);
    assert_eq!(out.report.faults.quarantined[0].class, FaultClass::Panic);
    assert_eq!(out.report.faults.parser_panics, 1);
    assert_eq!(fingerprint(&out), restrict(&fingerprint(&clean), &clean, &[3]));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn kill_during_save_keeps_committed_index_intact() {
    use ii_core::store::{CrashMode, CrashVfs};
    use ii_core::Index;

    let (coll_a, dir_a) = stored("kill-save-a", 3);
    let first = Index::from_output(build_index(&coll_a, &skip_cfg(2)).expect("first build"));
    let (coll_b, dir_b) = stored("kill-save-b", 4);
    let second = Index::from_output(build_index(&coll_b, &skip_cfg(2)).expect("second build"));

    let out_dir =
        std::env::temp_dir().join(format!("ii-chaos-kill-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    first.save(&out_dir).expect("commit the first index");
    let committed = Index::open(&out_dir).expect("committed index opens");
    assert_eq!(committed.num_terms(), first.num_terms());

    // Kill an overwriting save mid-way with a torn final write: the torn
    // bytes must stay invisible behind the still-committed first manifest.
    let crash = CrashVfs::new(7, CrashMode::TornWrite, 42);
    assert!(second.save_with(&out_dir, &crash).is_err(), "torn save must error");
    assert!(crash.crashed());
    let survivor = Index::open(&out_dir).expect("first index must survive the kill");
    assert_eq!(survivor.num_terms(), first.num_terms());
    let probe = first.dictionary.entries().next().unwrap().full_term();
    assert_eq!(
        survivor.postings_stemmed(&probe),
        first.postings_stemmed(&probe),
        "postings unchanged after killed overwrite"
    );

    // A clean retry of the interrupted save then fully replaces it.
    second.save(&out_dir).expect("retried save");
    let replaced = Index::open(&out_dir).expect("second index committed");
    assert_eq!(replaced.num_terms(), second.num_terms());
    for d in [dir_a, dir_b, out_dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
