//! One on-disk generation: every artifact kind is read in the form the
//! writer emits today, and nothing else is.
//!
//! The retired forms are refused with the error the reader already had —
//! run files under the `IIRF` and `IIR2` magics, manifests of any other
//! version, a directory whose manifest is gone — and `Index::repair` is the
//! one way back from the last. `fixtures/golden/index` then pins the bytes:
//! with no compatibility reader left, rebuilding the fixture collection and
//! comparing every artifact is the only test that notices a format change
//! nobody meant. After a deliberate one, regenerate it:
//!
//! ```sh
//! cargo test -p ii-integration-tests --test one_generation -- --ignored regenerate
//! ```

use ii_core::corpus::{DocId, StoredCollection};
use ii_core::pipeline::{build_index, PipelineConfig};
use ii_core::postings::run::RunFileError;
use ii_core::postings::{PostingsList, RunFile};
use ii_core::store::{Manifest, Store, StoreError, FORMAT_VERSION, MANIFEST_NAME};
use ii_core::Index;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fixture(part: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures")).join(part)
}

/// The golden index's build: the fixture collection, two parsers, one CPU
/// and one simulated-GPU indexer, a run per container file.
fn build_golden() -> Index {
    let coll = Arc::new(StoredCollection::open(&fixture("written_by_bd938b8/collection")).unwrap());
    let mut cfg = PipelineConfig::small(2, 1, 1);
    cfg.batches_per_run = 1;
    Index::from_output(build_index(&coll, &cfg).expect("fixture collection builds"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ii-one-generation-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What an index answers: every dictionary term's postings, and the hits of
/// a few conjunctive queries.
type Answers = (Vec<(String, PostingsList)>, Vec<Vec<(DocId, u64)>>);

fn answers(idx: &Index) -> Answers {
    let lists = idx
        .dictionary
        .entries()
        .map(|e| (e.full_term(), idx.postings_stemmed(&e.full_term()).expect("term has postings")))
        .collect();
    let queries = ["new", "new york", "state new", "absent-term"];
    (lists, queries.iter().map(|q| idx.search(q)).collect())
}

/// A one-list run file as the retired writers laid it out: the 33-byte
/// header (magic, run id, indexer id, codec tag, Golomb parameter, row
/// count, payload length), one fixed-width row (handle, u64 offset, len,
/// posting count, doc_min, doc_max, and in `IIR2` max_tf, codec tag and
/// parameter), then the list — doc 9, tf 1.
fn retired_run_file(magic: &str, row_bytes: usize, list: &[u8]) -> Vec<u8> {
    let mut out = magic.as_bytes().to_vec();
    out.extend_from_slice(&[0; 8]); // run 0 of indexer 0
    out.extend_from_slice(&[0; 9]); // varbyte, no parameter
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&(list.len() as u64).to_le_bytes());
    assert_eq!(out.len(), 33);
    let mut row = vec![0u8; row_bytes];
    for (at, field) in [(0, 5u32), (12, list.len() as u32), (16, 1), (20, 9), (24, 9)] {
        row[at..at + 4].copy_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(&row);
    out.extend_from_slice(list);
    out
}

#[test]
fn run_files_of_the_retired_magics_are_malformed() {
    // `IIRF`: 28-byte rows, the whole-list stream (gap doc + 1, then tf).
    let iirf = retired_run_file("IIRF", 28, &[10, 1]);
    // `IIR2`: 41-byte rows (max_tf 1 at 28), a skip entry before the body.
    let mut iir2 = retired_run_file("IIR2", 41, &[9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]);
    iir2[33 + 28] = 1;
    for bytes in [iirf, iir2] {
        assert_eq!(RunFile::from_bytes(&bytes), Err(RunFileError::Malformed));
    }
}

#[test]
fn manifests_of_any_other_version_are_version_skew() {
    let dir = scratch("skew");
    build_golden().save(&dir).unwrap();
    let committed = Manifest::load(&dir).unwrap();
    assert_eq!(committed.version, FORMAT_VERSION);
    for version in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
        let other = Manifest { version, ..committed.clone() };
        std::fs::write(dir.join(MANIFEST_NAME), other.to_bytes()).unwrap();
        match Index::open(&dir) {
            Err(StoreError::VersionSkew { found, supported }) => {
                assert_eq!((found, supported), (version, FORMAT_VERSION));
            }
            Err(other) => panic!("version {version}: expected VersionSkew, got {other}"),
            Ok(_) => panic!("a version-{version} manifest opened"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_directory_without_its_manifest_opens_only_after_repair() {
    let dir = scratch("manifestless");
    let built = build_golden();
    built.save(&dir).unwrap();
    std::fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
    // Every artifact is in place and intact, and nothing vouches for it.
    assert!(matches!(Index::open(&dir), Err(StoreError::MissingManifest { .. })));
    assert!(matches!(Index::verify_dir(&dir), Err(StoreError::MissingManifest { .. })));

    let report = Index::repair(&dir).unwrap();
    assert!(report.lost.is_empty(), "{:?}", report.lost);
    let repaired = Index::open(&dir).expect("a repaired directory opens");
    assert_eq!(answers(&repaired), answers(&built));
    assert!(Index::verify_dir(&dir).unwrap().iter().all(|s| s.ok));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every artifact of a committed index directory, by logical name.
fn artifacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let store = Store::open(dir).unwrap();
    let names: Vec<String> = store.manifest().names().map(String::from).collect();
    names.into_iter().map(|name| (name.clone(), store.read(&name).unwrap())).collect()
}

#[test]
fn golden_index_opens_and_a_rebuild_reproduces_every_byte() {
    let golden = fixture("golden/index");
    for s in Index::verify_dir(&golden).expect("manifest readable") {
        assert!(s.ok, "{}: {}", s.name, s.detail);
    }
    let opened = Index::open(&golden).expect("the golden index opens");
    let rebuilt = build_golden();
    assert_eq!(answers(&opened), answers(&rebuilt));
    assert!(opened.num_terms() > 100 && !opened.search("new").is_empty());

    let dir = scratch("golden");
    rebuilt.save(&dir).unwrap();
    let (want, got) = (artifacts(&golden), artifacts(&dir));
    let names = |of: &[(String, Vec<u8>)]| of.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want));
    assert!(names(&want).iter().filter(|n| n.ends_with(".iirf")).count() >= 4, "runs of both indexers");
    for ((name, want), (_, got)) in want.iter().zip(&got) {
        assert!(got == want, "{name}: the bytes written changed; if meant, regenerate the fixture");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[ignore = "overwrites tests/fixtures/golden/index; run after a deliberate format change"]
fn regenerate_golden_index() {
    let golden = fixture("golden/index");
    let _ = std::fs::remove_dir_all(&golden);
    build_golden().save(&golden).unwrap();
}
