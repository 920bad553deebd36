//! Crash matrix: power-loss, torn-write, and bit-flip injection at every
//! storage-operation boundary of index persistence.
//!
//! The durability contract under test (DESIGN.md §8): after a crash at ANY
//! write/fsync/rename boundary, reopening the directory yields either the
//! last committed state, the fully committed new state (only when the
//! crash landed at or after the commit point), or a typed
//! [`StoreError`](ii_core::store::StoreError) — never a panic and never a
//! silently partial index. Bit flips are silent at write time and must be
//! caught by the manifest checksum pass at open.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::pipeline::{
    build_index_durable, DurableOptions, PipelineConfig, PipelineError,
};
use ii_core::store::{CrashMode, CrashVfs, Store};
use ii_core::{Index, IndexBuilder};
use std::collections::BTreeMap;
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

/// Kill a checkpointing durable build at storage-op boundaries spread over
/// the whole build, resume each, and require the final committed index to
/// be byte-identical to an uninterrupted build's.
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
    let mut k = 0;
    while k < total {
        let dir = scratch("resume-hit");
        let crash = CrashVfs::new(k, CrashMode::PowerLoss, 0xBEEF ^ k);
        let opts = DurableOptions::new(&dir).checkpoint_every(1).with_vfs(&crash);
        assert!(
            build_index_durable(&coll, &cfg, &opts).is_err(),
            "op {k}/{total}: a power-loss crash must surface as a build error"
        );
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
    std::fs::remove_dir_all(&coll_dir).unwrap();
}
