//! Seal-once staging: a durable build serialises, hashes and writes every
//! `run_*.iirf` exactly once, however many checkpoints re-stage it, and
//! takes no checkpoint after the last container file.
//!
//! Before this rule every checkpoint called `to_bytes()` + `crc32` on every
//! run held so far only to find "unchanged, reuse": with a checkpoint per
//! run, run k was hashed N−k+1 times (Σk run-lengths in all). The counters
//! `store.bytes_checksummed` and `store.artifacts_reused` make "once"
//! measurable; the recording VFS below says which bytes were written.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::pipeline::{
    build_index_durable, render_table, DurableOptions, IndexOutput, PipelineConfig, PipelineError,
};
use ii_core::postings::parse_run_artifact_name;
use ii_core::store::{CrashMode, CrashVfs, RealVfs, Store, Vfs, MANIFEST_NAME};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const FILES: usize = 5;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ii-seal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn collection(tag: &str) -> (Arc<StoredCollection>, PathBuf) {
    let dir = scratch(&format!("coll-{tag}"));
    let spec = CollectionSpec {
        name: "seal-once".into(),
        num_files: FILES,
        docs_per_file: 8,
        mean_doc_tokens: 40,
        vocab_size: 500,
        zipf_s: 1.0,
        html: false,
        seed: 77,
        shift: None,
    };
    (Arc::new(StoredCollection::generate(spec, &dir).unwrap()), dir)
}

/// One CPU indexer, one run per file: run k exists from file k on, and its
/// single dictionary shard changes with every batch, so nothing but a
/// sealed run is ever staged unchanged.
fn cfg() -> PipelineConfig {
    PipelineConfig { batches_per_run: 1, ..PipelineConfig::small(1, 1, 0) }
}

/// The real filesystem, remembering `(artifact file name, bytes)` of every
/// write.
#[derive(Default)]
struct RecordingVfs {
    writes: Mutex<Vec<(String, u64)>>,
}

impl RecordingVfs {
    /// Bytes written to files `keep` accepts, and how many writes that was.
    fn written(&self, keep: impl Fn(&str) -> bool) -> (u64, usize) {
        let writes = self.writes.lock().unwrap();
        let kept: Vec<u64> = writes.iter().filter(|(f, _)| keep(f)).map(|(_, n)| *n).collect();
        (kept.iter().sum(), kept.len())
    }
}

impl Vfs for RecordingVfs {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let name = path.file_name().unwrap().to_string_lossy();
        let name = name.strip_suffix(".tmp").expect("the store writes temp files only");
        self.writes.lock().unwrap().push((name.to_string(), bytes.len() as u64));
        RealVfs.write_file(path, bytes)
    }
    fn fsync_file(&self, path: &Path) -> io::Result<()> {
        RealVfs.fsync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealVfs.rename(from, to)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        RealVfs.fsync_dir(dir)
    }
}

fn is_run(file: &str) -> bool {
    parse_run_artifact_name(file).is_some()
}

/// Length of every run artifact the committed manifest lists.
fn committed_run_bytes(dir: &Path) -> (u64, usize) {
    let store = Store::open(dir).unwrap();
    let runs: Vec<u64> =
        store.manifest().artifacts.iter().filter(|a| is_run(&a.name)).map(|a| a.len).collect();
    (runs.iter().sum(), runs.len())
}

/// What every durable build must satisfy, resumed or not: each artifact
/// hashed was also written (no by-value staging of unchanged bytes), so the
/// run bytes hashed are the run bytes written.
fn assert_hashed_equals_written(out: &IndexOutput, vfs: &RecordingVfs) {
    let stages = &out.report.stages;
    let (all_written, _) = vfs.written(|_| true);
    let (artifacts_written, _) = vfs.written(|f| f != MANIFEST_NAME);
    assert_eq!(stages.counter("store.bytes_written"), all_written);
    assert_eq!(
        stages.counter("store.bytes_checksummed"),
        artifacts_written,
        "an artifact was hashed without being written: something re-staged unchanged bytes by value"
    );
}

#[test]
fn checkpoint_per_run_hashes_and_writes_each_run_once() {
    let (coll, coll_dir) = collection("once");
    let idx_dir = scratch("once-idx");
    let vfs = RecordingVfs::default();
    let opts = DurableOptions::new(&idx_dir).checkpoint_every(1).with_vfs(&vfs);
    let out = build_index_durable(&coll, &cfg(), &opts).expect("build");
    let stages = &out.report.stages;

    // Each run file is written once, at the length the index commits.
    let (run_bytes, runs) = committed_run_bytes(&idx_dir);
    assert_eq!(runs, FILES, "one run per container file");
    assert_eq!(vfs.written(is_run), (run_bytes, runs), "a run was rewritten or re-generationed");
    assert_hashed_equals_written(&out, &vfs);

    // FILES−1 checkpoints (the one after the last file would be superseded
    // at once) plus the final commit.
    assert_eq!(stages.counter("store.commits"), FILES as u64);
    // Checkpoint k holds k runs, k−1 of them sealed earlier; the final
    // commit holds FILES, all but the last sealed. Each goes by reference.
    let by_reference: usize = (1..FILES).map(|k| k - 1).sum::<usize>() + (FILES - 1);
    assert_eq!(stages.counter("store.artifacts_reused"), by_reference as u64);

    // `--stats` shows the same figures.
    let table = render_table(stages);
    let row = format!(
        "store: {FILES} commits, {} B written, {} B checksummed, {by_reference} artifacts reused",
        stages.counter("store.bytes_written"),
        stages.counter("store.bytes_checksummed"),
    );
    assert!(table.contains(&row), "missing `{row}` in:\n{table}");
    // ... and so does the OpenMetrics exposition (`--metrics-out`, `ii top`).
    let exposition = ii_core::obs::openmetrics::render(stages);
    for (name, value) in [
        ("store.bytes_checksummed", stages.counter("store.bytes_checksummed")),
        ("store.artifacts_reused", by_reference as u64),
    ] {
        let sample = format!("ii_counter_total{{name=\"{name}\"}} {value}");
        assert!(exposition.contains(&sample), "missing `{sample}` in the exposition");
    }
    for dir in [coll_dir, idx_dir] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// `--resume` seeds the seal records from the checkpoint manifest: runs the
/// killed build committed are neither re-serialised nor rewritten, and the
/// result is the uninterrupted build's, byte for byte.
#[test]
fn resumed_build_takes_sealed_runs_from_the_manifest() {
    let (coll, coll_dir) = collection("resume");
    let clean_dir = scratch("resume-clean");
    let probe = CrashVfs::probe();
    let opts = DurableOptions::new(&clean_dir).checkpoint_every(1).with_vfs(&probe);
    build_index_durable(&coll, &cfg(), &opts).expect("clean build");

    // Kill a second build two thirds of the way through its storage ops.
    let idx_dir = scratch("resume-idx");
    let crash = CrashVfs::new(probe.ops() * 2 / 3, CrashMode::PowerLoss, 5);
    let opts = DurableOptions::new(&idx_dir).checkpoint_every(1).with_vfs(&crash);
    match build_index_durable(&coll, &cfg(), &opts) {
        Err(PipelineError::Store(_)) => {}
        other => panic!("expected a storage crash, got {:?}", other.map(|_| ())),
    }
    let (held_bytes, held) = committed_run_bytes(&idx_dir);
    assert!((2..FILES).contains(&held), "checkpoint holds {held} runs");

    let vfs = RecordingVfs::default();
    let opts = DurableOptions::new(&idx_dir).checkpoint_every(1).resume(true).with_vfs(&vfs);
    let out = build_index_durable(&coll, &cfg(), &opts).expect("resume");
    let (run_bytes, runs) = committed_run_bytes(&idx_dir);
    assert_eq!(runs, FILES);
    assert_eq!(
        vfs.written(is_run),
        (run_bytes - held_bytes, FILES - held),
        "the resumed build rewrote a run the checkpoint already held"
    );
    assert_hashed_equals_written(&out, &vfs);

    let fingerprint = |dir: &Path| -> Vec<(String, u64, u32)> {
        let store = Store::open(dir).unwrap();
        store.manifest().artifacts.iter().map(|a| (a.name.clone(), a.len, a.crc32)).collect()
    };
    assert_eq!(fingerprint(&idx_dir), fingerprint(&clean_dir));
    for dir in [coll_dir, clean_dir, idx_dir] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
