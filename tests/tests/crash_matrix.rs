//! Crash matrix: power-loss, torn-write, and bit-flip injection at every
//! storage-operation boundary of index persistence.
//!
//! The durability contract under test (DESIGN.md §8): after a crash at ANY
//! write/fsync/rename boundary, reopening the directory yields either the
//! last committed state, the fully committed new state (only when the
//! crash landed at or after the commit point), or a typed
//! [`StoreError`] — never a panic and never a
//! silently partial index. Bit flips are silent at write time and must be
//! caught by the manifest checksum pass at open.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::dict::{GlobalDictionary, TrieIndex};
use ii_core::pipeline::{
    build_index_durable, BuildCheckpoint, DurableOptions, PipelineConfig, PipelineError,
    CHECKPOINT_ARTIFACT, DICTIONARY_ARTIFACT,
};
use ii_core::postings::{parse_run_artifact_name, RunFile, RunSet};
use ii_core::store::{CrashMode, CrashVfs, ManifestKind, Store, StoreError};
use ii_core::{Index, IndexBuilder};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ii-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(seed: u64, num_files: usize) -> CollectionSpec {
    CollectionSpec {
        name: format!("crash-{seed}"),
        num_files,
        docs_per_file: 8,
        mean_doc_tokens: 40,
        vocab_size: 500,
        zipf_s: 1.0,
        html: false,
        seed,
        shift: None,
    }
}

fn small_index(tag: &str, seed: u64) -> Index {
    let dir = scratch(&format!("coll-{tag}"));
    let coll = Arc::new(StoredCollection::generate(spec(seed, 2), &dir).unwrap());
    let idx = IndexBuilder::small().parsers(1).gpus(1).build(&coll).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    idx
}

/// Term -> sorted (docID, tf) postings: what "the same index" means.
fn fingerprint(idx: &Index) -> BTreeMap<String, Vec<(u32, u32)>> {
    idx.dictionary
        .entries()
        .map(|e| {
            let l = idx.run_sets[&e.indexer].fetch(e.postings).unwrap();
            (e.full_term(), l.postings().iter().map(|p| (p.doc.0, p.tf)).collect())
        })
        .collect()
}

const MODES: [CrashMode; 3] = [CrashMode::PowerLoss, CrashMode::TornWrite, CrashMode::BitFlip];

/// Crash at every op of a first-ever save: open afterwards must yield the
/// complete index (crash at/after the commit point) or a typed error —
/// never a partial run set.
#[test]
fn first_save_crash_matrix_never_loads_partial_state() {
    let idx = small_index("first", 101);
    let want = fingerprint(&idx);

    let probe = CrashVfs::probe();
    let pdir = scratch("first-probe");
    idx.save_with(&pdir, &probe).unwrap();
    let total = probe.ops();
    std::fs::remove_dir_all(&pdir).unwrap();
    assert!(total > 10, "expected a multi-op commit, got {total}");

    for mode in MODES {
        for k in 0..total {
            let dir = scratch("first-hit");
            let vfs = CrashVfs::new(k, mode, 0xC0FFEE ^ k);
            let saved = idx.save_with(&dir, &vfs);
            match Index::open(&dir) {
                Ok(loaded) => {
                    assert_eq!(
                        fingerprint(&loaded),
                        want,
                        "mode {mode:?} op {k}/{total}: open succeeded with WRONG contents"
                    );
                }
                Err(e) => {
                    // Typed refusal is the other legal outcome — but a save
                    // that claimed success must then be openable.
                    assert!(
                        saved.is_err() || mode == CrashMode::BitFlip,
                        "mode {mode:?} op {k}/{total}: save Ok but open failed: {e}"
                    );
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Crash at every op of an overwriting save: the previously committed
/// index must survive every pre-commit-point crash.
#[test]
fn overwrite_crash_matrix_preserves_previous_index() {
    let old = small_index("over-old", 102);
    let new = small_index("over-new", 103);
    let (fp_old, fp_new) = (fingerprint(&old), fingerprint(&new));
    assert_ne!(fp_old, fp_new, "the two indexes must differ for this test to bite");

    let pdir = scratch("over-probe");
    old.save(&pdir).unwrap();
    let probe = CrashVfs::probe();
    new.save_with(&pdir, &probe).unwrap();
    let total = probe.ops();
    std::fs::remove_dir_all(&pdir).unwrap();

    for mode in MODES {
        for k in 0..total {
            let dir = scratch("over-hit");
            old.save(&dir).unwrap();
            let vfs = CrashVfs::new(k, mode, 0xDEAD ^ (k << 8));
            let _ = new.save_with(&dir, &vfs);
            match Index::open(&dir) {
                Ok(loaded) => {
                    let fp = fingerprint(&loaded);
                    if vfs.crashed() && mode != CrashMode::BitFlip && k + 1 < total {
                        // Strictly before the commit point the old manifest
                        // still rules the directory.
                        assert_eq!(
                            fp, fp_old,
                            "mode {mode:?} op {k}/{total}: pre-commit crash published new state"
                        );
                    } else {
                        assert!(
                            fp == fp_old || fp == fp_new,
                            "mode {mode:?} op {k}/{total}: opened a state that is neither"
                        );
                    }
                }
                Err(e) => {
                    // Power loss and torn writes never touch the committed
                    // generation's files, so the old index must stay
                    // openable; only a silent bit flip may corrupt the
                    // store into a typed checksum refusal.
                    assert_eq!(
                        mode,
                        CrashMode::BitFlip,
                        "mode {mode:?} op {k}/{total}: committed index lost: {e}"
                    );
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

fn durable_cfg() -> PipelineConfig {
    PipelineConfig::small(2, 1, 1)
}

/// Logical artifact name -> committed bytes, read through the manifest.
fn store_fingerprint(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let store = Store::open(dir).expect("committed store");
    store
        .manifest()
        .names()
        .map(|n| (n.to_string(), store.read(n).expect("verified artifact")))
        .collect()
}

/// Term -> (docID, tf) postings of the first `files_done` container files,
/// indexed serially: one map, documents numbered as they come.
fn serial_oracle(coll: &StoredCollection, files_done: usize) -> BTreeMap<String, Vec<(u32, u32)>> {
    let mut index: BTreeMap<String, Vec<(u32, u32)>> = BTreeMap::new();
    let mut first_doc = 0u32;
    for f in 0..files_done {
        let docs = coll.read_file(f).expect("clean corpus");
        let batch = ii_core::text::parse_documents(&docs, coll.manifest.spec.html, f);
        for group in &batch.groups {
            let prefix = TrieIndex(group.trie_index).prefix();
            for (local, suffix) in group.iter_terms() {
                let term = format!("{prefix}{}", String::from_utf8_lossy(suffix));
                let (doc, list) = (first_doc + local.0, index.entry(term).or_default());
                match list.last_mut() {
                    Some((last, tf)) if *last == doc => *tf += 1,
                    _ => list.push((doc, 1)),
                }
            }
        }
        first_doc += batch.num_docs;
    }
    index
}

/// What a committed generation's artifacts answer, read the way any reader
/// of the format would: the dictionary names (indexer, handle), the runs of
/// that indexer in run order hold the list.
fn generation_answers(store: &Store) -> BTreeMap<String, Vec<(u32, u32)>> {
    let dictionary =
        GlobalDictionary::from_bytes(&store.read(DICTIONARY_ARTIFACT).unwrap()).expect("dictionary");
    let mut runs: Vec<(u32, u32, &str)> = store
        .manifest()
        .names()
        .filter_map(|n| parse_run_artifact_name(n).map(|(indexer, run)| (indexer, run, n)))
        .collect();
    runs.sort();
    let mut sets: HashMap<u32, RunSet> = HashMap::new();
    for (indexer, _, name) in runs {
        let run = RunFile::from_bytes(&store.read(name).unwrap()).expect("run file");
        sets.entry(indexer).or_default().push(run);
    }
    dictionary
        .entries()
        .map(|e| {
            let list = sets[&e.indexer].fetch(e.postings).expect("list decodes");
            (e.full_term(), list.postings().iter().map(|p| (p.doc.0, p.tf)).collect())
        })
        .collect()
}

/// Kill a checkpointing durable build at storage-op boundaries spread over
/// the whole build, resume each, and require the final committed index to
/// be byte-identical to an uninterrupted build's. Every checkpoint a kill
/// leaves committed is an index of the files it covers: its artifacts must
/// answer every term as the serial oracle over those files does.
#[test]
fn killed_build_resumes_to_byte_identical_index() {
    let coll_dir = scratch("resume-coll");
    let coll = Arc::new(StoredCollection::generate(spec(104, 6), &coll_dir).unwrap());
    let cfg = durable_cfg();

    let base_dir = scratch("resume-base");
    let opts = DurableOptions::new(&base_dir).checkpoint_every(1);
    build_index_durable(&coll, &cfg, &opts).expect("uninterrupted durable build");
    let want = store_fingerprint(&base_dir);

    let probe_dir = scratch("resume-probe");
    let probe = CrashVfs::probe();
    let opts = DurableOptions::new(&probe_dir).checkpoint_every(1).with_vfs(&probe);
    build_index_durable(&coll, &cfg, &opts).expect("probe build");
    let total = probe.ops();
    std::fs::remove_dir_all(&probe_dir).unwrap();

    // Every op would be ~total builds; a stride keeps this test fast while
    // still covering first-checkpoint, mid-build, and final-commit crashes.
    let stride = (total / 24).max(1);
    let mut checkpoints_checked = Vec::new();
    let mut k = 0;
    while k < total {
        let dir = scratch("resume-hit");
        let crash = CrashVfs::new(k, CrashMode::PowerLoss, 0xBEEF ^ k);
        let opts = DurableOptions::new(&dir).checkpoint_every(1).with_vfs(&crash);
        assert!(
            build_index_durable(&coll, &cfg, &opts).is_err(),
            "op {k}/{total}: a power-loss crash must surface as a build error"
        );
        let checkpoint =
            Store::open(&dir).ok().filter(|s| s.manifest().kind == ManifestKind::Checkpoint);
        if let Some(store) = checkpoint {
            let ckpt: BuildCheckpoint =
                serde_json::from_slice(&store.read(CHECKPOINT_ARTIFACT).unwrap()).unwrap();
            if !checkpoints_checked.contains(&ckpt.files_done) {
                checkpoints_checked.push(ckpt.files_done);
                assert_eq!(
                    generation_answers(&store),
                    serial_oracle(&coll, ckpt.files_done as usize),
                    "op {k}/{total}: checkpoint of {} files",
                    ckpt.files_done
                );
                assert!(matches!(Index::open(&dir), Err(StoreError::IncompleteBuild { .. })));
            }
        }
        let opts = DurableOptions::new(&dir).checkpoint_every(1).resume(true);
        match build_index_durable(&coll, &cfg, &opts) {
            Ok(_) => {}
            // A crash at the final fsync lands after the commit point: the
            // index is already complete, and resume refuses to rebuild it.
            Err(PipelineError::Resume(why)) => {
                assert!(why.contains("completed"), "op {k}/{total}: {why}")
            }
            Err(e) => panic!("op {k}/{total}: resume failed: {e}"),
        }
        assert_eq!(
            store_fingerprint(&dir),
            want,
            "op {k}/{total}: resumed index differs from uninterrupted build"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        k += stride;
    }
    // One run per file and a checkpoint after every run but the last.
    checkpoints_checked.sort_unstable();
    assert_eq!(checkpoints_checked, [1, 2, 3, 4, 5], "every checkpoint generation was read");
    std::fs::remove_dir_all(&coll_dir).unwrap();
}

/// The volume fills while the build's first checkpoint — a mid-build commit
/// — is writing its artifacts, and frees again: the commit is retried like
/// the final one, the retries are reported, and no byte of the index moves.
#[test]
fn disk_full_over_a_checkpoint_commit_is_retried() {
    let coll_dir = scratch("ckpt-full-coll");
    let coll = Arc::new(StoredCollection::generate(spec(105, 4), &coll_dir).unwrap());
    let cfg = durable_cfg();
    let base_dir = scratch("ckpt-full-base");
    let opts = DurableOptions::new(&base_dir).checkpoint_every(1);
    build_index_durable(&coll, &cfg, &opts).expect("uninterrupted durable build");

    // The first storage ops of a checkpointing build are its first
    // checkpoint's: ENOSPC on ops 2-3 fails the first attempt (and the
    // first retry) among its artifact writes.
    let dir = scratch("ckpt-full-hit");
    let full = CrashVfs::disk_full(2, 2);
    let opts = DurableOptions::new(&dir).checkpoint_every(1).with_vfs(&full);
    let out = build_index_durable(&coll, &cfg, &opts).expect("checkpoint retried past ENOSPC");
    assert!(out.report.supervision.commit_retries >= 1, "retries must be reported");
    assert!(out.report.stages.counter("supervisor.commit_retries") >= 1);
    assert!(!full.crashed(), "disk-full is pressure, not a crash");
    assert_eq!(store_fingerprint(&dir), store_fingerprint(&base_dir));
    for d in [coll_dir, base_dir, dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
