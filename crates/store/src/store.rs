//! Verified reads ([`Store`]), transactional commits ([`Txn`]), and the
//! salvage path ([`salvage`]).

use crate::crc32;
use crate::error::StoreError;
use crate::manifest::{
    ArtifactMeta, Manifest, ManifestKind, PostingsMeta, FORMAT_VERSION, MANIFEST_NAME,
};
use crate::vfs::Vfs;
use ii_obs::Registry;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A committed index directory, opened through its manifest. Reads verify
/// length and CRC32 against the manifest before returning bytes.
pub struct Store {
    dir: PathBuf,
    manifest: Manifest,
}

impl Store {
    /// Open a directory's committed state. Typed failures: no manifest,
    /// torn manifest, version skew.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        let manifest = Manifest::load(dir)?;
        Ok(Store { dir: dir.to_path_buf(), manifest })
    }

    /// The directory this store reads from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Read and verify one artifact by logical name.
    pub fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let meta = self
            .manifest
            .artifact(name)
            .ok_or_else(|| StoreError::MissingArtifact { name: name.to_string() })?;
        let bytes = match fs::read(self.dir.join(&meta.file)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::MissingArtifact { name: name.to_string() })
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        if bytes.len() as u64 != meta.len {
            return Err(StoreError::SizeMismatch {
                name: name.to_string(),
                expected: meta.len,
                found: bytes.len() as u64,
            });
        }
        let found = crc32(&bytes);
        if found != meta.crc32 {
            return Err(StoreError::ChecksumMismatch {
                name: name.to_string(),
                expected: meta.crc32,
                found,
            });
        }
        Ok(bytes)
    }

    /// Check every artifact against the manifest without keeping the bytes.
    /// Returns one status per artifact; `ok` across all of them means the
    /// directory passes the checksum pass.
    pub fn verify(&self) -> Vec<ArtifactStatus> {
        self.manifest
            .artifacts
            .iter()
            .map(|meta| {
                let (ok, detail) = match self.read(&meta.name) {
                    Ok(_) => (true, String::from("ok")),
                    Err(e) => (false, e.to_string()),
                };
                ArtifactStatus {
                    name: meta.name.clone(),
                    file: meta.file.clone(),
                    len: meta.len,
                    ok,
                    detail,
                }
            })
            .collect()
    }
}

/// One artifact's verification outcome.
#[derive(Clone, Debug)]
pub struct ArtifactStatus {
    /// Logical artifact name.
    pub name: String,
    /// Physical file checked.
    pub file: String,
    /// Manifest-recorded length.
    pub len: u64,
    /// Whether length and checksum matched.
    pub ok: bool,
    /// `"ok"` or the failure description.
    pub detail: String,
}

/// An in-flight commit. Artifacts are staged with [`Txn::put`] (written
/// durably but not yet referenced); [`Txn::commit`] publishes them all at
/// once by atomically replacing the manifest.
pub struct Txn<'v> {
    dir: PathBuf,
    vfs: &'v dyn Vfs,
    prev: Option<Manifest>,
    generation: u64,
    staged: Vec<ArtifactMeta>,
    obs: Option<Arc<Registry>>,
}

impl<'v> Txn<'v> {
    /// Start a transaction against `dir` (created if needed). The previous
    /// committed manifest, if any, seeds generation numbering and artifact
    /// reuse; an unreadable previous manifest is treated as absent (the
    /// commit will replace it).
    pub fn begin(dir: &Path, vfs: &'v dyn Vfs) -> Result<Txn<'v>, StoreError> {
        fs::create_dir_all(dir)?;
        let prev = Manifest::load(dir).ok();
        let generation = prev.as_ref().map_or(1, |m| m.generation + 1);
        Ok(Txn { dir: dir.to_path_buf(), vfs, prev, generation, staged: Vec::new(), obs: None })
    }

    /// Record fsync/commit/bytes counters and the `commit` stage span into
    /// `registry` (the pipeline driver passes its per-build registry).
    /// `store.artifacts_reused` is interned here so that a build which
    /// reused nothing reports it as 0 rather than not at all.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        registry.counter("store.artifacts_reused");
        self.obs = Some(registry);
        self
    }

    /// Generation this transaction will commit as.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stage one artifact. If the previous commit already holds identical
    /// content (same length + CRC32) the existing file is reused without a
    /// write. Changed content goes to a generation-suffixed file so the
    /// previous committed state survives a crash mid-transaction.
    pub fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.put_with_meta(name, bytes, None).map(|_| ())
    }

    /// [`Self::put`] with postings metadata attached to the manifest
    /// record: run artifacts carry their skip-table block count and
    /// block-max bound so loaders can see a run's shape without reading
    /// it. The record staged is the caller's even on the content-reuse
    /// path: only the file name comes from the previous commit.
    ///
    /// Returns the staged record. A caller whose artifact is immutable from
    /// here on (a sealed run) keeps it and stages later generations with
    /// [`Self::put_sealed`], so the bytes are serialised and hashed once.
    pub fn put_with_meta(
        &mut self,
        name: &str,
        bytes: &[u8],
        postings: Option<PostingsMeta>,
    ) -> Result<&ArtifactMeta, StoreError> {
        if let Some(r) = &self.obs {
            r.counter("store.bytes_checksummed").add(bytes.len() as u64);
        }
        let mut meta = ArtifactMeta {
            name: name.to_string(),
            file: name.to_string(),
            len: bytes.len() as u64,
            crc32: crc32(bytes),
            postings,
        };
        if !self.put_sealed(&meta)? {
            if self.prev.as_ref().and_then(|m| m.artifact(name)).is_some() {
                meta.file = format!("{name}.g{}", self.generation);
            }
            self.write_durable(&meta.file, bytes)?;
            self.staged.push(meta);
        }
        Ok(self.staged.last().expect("just staged"))
    }

    /// Stage an artifact by reference: `sealed` is the record an earlier
    /// [`Self::put_with_meta`] returned (or the manifest a resumed build
    /// loaded) for content the caller has not changed since. When the
    /// previous commit holds that name with the same length and CRC32 its
    /// file is reused — an O(1) compare, no bytes serialised, hashed or
    /// written — and `Ok(true)` is returned. `Ok(false)` means the previous
    /// generation does not hold it (first staging, a retried transaction,
    /// a directory someone else rewrote): stage the bytes instead.
    pub fn put_sealed(&mut self, sealed: &ArtifactMeta) -> Result<bool, StoreError> {
        if self.staged.iter().any(|a| a.name == sealed.name) {
            return Err(StoreError::Corrupt {
                name: sealed.name.clone(),
                detail: "artifact staged twice in one transaction".into(),
            });
        }
        let Some(prev) = self.prev.as_ref().and_then(|m| m.artifact(&sealed.name)) else {
            return Ok(false);
        };
        if prev.len != sealed.len
            || prev.crc32 != sealed.crc32
            || !self.dir.join(&prev.file).exists()
        {
            return Ok(false);
        }
        if let Some(r) = &self.obs {
            r.counter("store.artifacts_reused").inc();
        }
        self.staged.push(ArtifactMeta { file: prev.file.clone(), ..sealed.clone() });
        Ok(true)
    }

    /// write-temp → fsync → atomic rename for one file (see the
    /// standalone [`write_file_durable`] for out-of-transaction writes).
    fn write_durable(&self, file: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!("{file}.tmp"));
        let dst = self.dir.join(file);
        self.vfs.write_file(&tmp, bytes)?;
        self.vfs.fsync_file(&tmp)?;
        self.vfs.rename(&tmp, &dst)?;
        if let Some(r) = &self.obs {
            r.counter("store.bytes_written").add(bytes.len() as u64);
            r.counter("store.fsyncs").inc();
        }
        Ok(())
    }

    /// Commit: fsync the directory (artifact renames become durable), then
    /// publish the new manifest last via its own write-temp → fsync →
    /// rename → fsync-dir sequence. Returns the committed manifest.
    /// Unreferenced files from the previous generation are then
    /// garbage-collected best-effort.
    pub fn commit(mut self, kind: ManifestKind) -> Result<Manifest, StoreError> {
        let span = self.obs.as_ref().map(|r| (r.stage("commit"), r.clone()));
        let _span = span.as_ref().map(|(stage, _)| stage.span());
        self.staged.sort_by(|a, b| a.name.cmp(&b.name));
        let manifest = Manifest {
            version: FORMAT_VERSION,
            kind,
            generation: self.generation,
            artifacts: std::mem::take(&mut self.staged),
        };
        self.vfs.fsync_dir(&self.dir)?;
        let bytes = manifest.to_bytes();
        self.write_durable(MANIFEST_NAME, &bytes)?;
        self.vfs.fsync_dir(&self.dir)?;
        if let Some(r) = &self.obs {
            r.counter("store.fsyncs").add(2);
            r.counter("store.commits").inc();
        }
        self.collect_garbage(&manifest);
        Ok(manifest)
    }

    /// Remove files the new manifest no longer references: stray `.tmp`
    /// files, previous-generation artifact versions, and orphaned
    /// generation files of known logical names. Best-effort — a crash here
    /// leaves harmless unreferenced files for the next commit to sweep.
    fn collect_garbage(&self, manifest: &Manifest) {
        let Ok(entries) = fs::read_dir(&self.dir) else { return };
        let live: Vec<&str> = manifest.artifacts.iter().map(|a| a.file.as_str()).collect();
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == MANIFEST_NAME || live.contains(&name.as_str()) {
                continue;
            }
            let stale_generation = manifest.artifact(base_name(&name)).is_some();
            let was_referenced = self
                .prev
                .as_ref()
                .is_some_and(|m| m.artifacts.iter().any(|a| a.file == name));
            if name.ends_with(".tmp") || stale_generation || was_referenced {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Strip a `.g<digits>` generation suffix, yielding the logical name.
fn base_name(file: &str) -> &str {
    if let Some((base, gen)) = file.rsplit_once(".g") {
        if !gen.is_empty() && gen.bytes().all(|b| b.is_ascii_digit()) {
            return base;
        }
    }
    file
}

/// Outcome of a [`salvage`] pass.
#[derive(Clone, Debug, Default)]
pub struct SalvageReport {
    /// Artifacts recovered and re-committed, by logical name.
    pub kept: Vec<String>,
    /// Artifacts that could not be recovered: `(logical name, reason)`.
    pub lost: Vec<(String, String)>,
    /// Generation of the repaired manifest.
    pub generation: u64,
}

/// Semantic per-artifact validation callback for [`salvage`]: given the
/// logical name and candidate bytes, return `Err(reason)` to reject.
/// Accepted postings artifacts return their [`PostingsMeta`] so the
/// repaired manifest keeps the skip-table/block-max metadata; other
/// artifacts return `None`.
pub type ArtifactValidator = dyn Fn(&str, &[u8]) -> Result<Option<PostingsMeta>, String>;

/// Recover the intact artifacts of a damaged index directory and commit a
/// fresh manifest referencing exactly those. `validate` is the caller's
/// semantic decoder check (e.g. "does this parse as a run file?") applied
/// per candidate on top of the checksum check; return `Err(reason)` to
/// reject. Candidate files are the manifest's entries (when readable) plus
/// any generation-suffixed siblings of known artifact names left by
/// interrupted commits.
pub fn salvage(
    dir: &Path,
    vfs: &dyn Vfs,
    validate: &ArtifactValidator,
) -> Result<SalvageReport, StoreError> {
    let manifest = Manifest::load(dir).ok();
    // Gather candidates per logical name: (physical file, generation).
    let mut candidates: std::collections::BTreeMap<String, Vec<(String, u64)>> = Default::default();
    for entry in fs::read_dir(dir)?.flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        if file == MANIFEST_NAME || file.ends_with(".tmp") || !entry.path().is_file() {
            continue;
        }
        let base = base_name(&file);
        let generation = file
            .strip_prefix(base)
            .and_then(|s| s.strip_prefix(".g"))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0u64);
        candidates.entry(base.to_string()).or_default().push((file, generation));
    }
    if let Some(m) = &manifest {
        for a in &m.artifacts {
            candidates.entry(a.name.clone()).or_default();
        }
    }
    if manifest.is_none() && candidates.is_empty() {
        return Err(StoreError::MissingManifest { dir: dir.to_path_buf() });
    }

    let mut report = SalvageReport::default();
    let mut recovered: Vec<(String, Vec<u8>, Option<PostingsMeta>)> = Vec::new();
    for (logical, mut files) in candidates {
        // Prefer the manifest's physical file, then newer generations.
        files.sort_by_key(|f| std::cmp::Reverse(f.1));
        if let Some(meta) = manifest.as_ref().and_then(|m| m.artifact(&logical)) {
            if let Some(pos) = files.iter().position(|(f, _)| *f == meta.file) {
                let preferred = files.remove(pos);
                files.insert(0, preferred);
            }
        }
        let mut reasons = Vec::new();
        let mut winner = None;
        for (file, _) in &files {
            let bytes = match fs::read(dir.join(file)) {
                Ok(b) => b,
                Err(e) => {
                    reasons.push(format!("{file}: unreadable ({e})"));
                    continue;
                }
            };
            if let Some(meta) = manifest.as_ref().and_then(|m| m.artifact(&logical)) {
                if *file == meta.file {
                    let crc = crc32(&bytes);
                    if bytes.len() as u64 != meta.len || crc != meta.crc32 {
                        reasons.push(format!("{file}: checksum/length mismatch vs manifest"));
                        continue;
                    }
                }
            }
            match validate(&logical, &bytes) {
                Ok(meta) => {
                    winner = Some((bytes, meta));
                    break;
                }
                Err(reason) => reasons.push(format!("{file}: {reason}")),
            }
        }
        match winner {
            Some((bytes, meta)) => recovered.push((logical, bytes, meta)),
            None => {
                let reason =
                    if reasons.is_empty() { "no candidate file".to_string() } else { reasons.join("; ") };
                report.lost.push((logical, reason));
            }
        }
    }

    let mut txn = Txn::begin(dir, vfs)?;
    for (logical, bytes, meta) in &recovered {
        txn.put_with_meta(logical, bytes, *meta)?;
        report.kept.push(logical.clone());
    }
    let committed = txn.commit(ManifestKind::Index)?;
    report.generation = committed.generation;
    Ok(report)
}

/// Durably write one standalone file: write-temp → fsync → atomic rename
/// → fsync parent dir.
///
/// This is the same protocol [`Txn`] uses for artifacts, for files that
/// live *outside* a manifest transaction — `--stats-json` snapshots,
/// bench baselines, post-mortem bundles. A crash at any boundary leaves
/// either the previous file or the complete new one, never a truncated
/// write (plus, at worst, a harmless `.tmp` orphan).
pub fn write_file_durable(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| StoreError::Io(std::io::Error::other(format!(
            "path '{}' has no file name",
            path.display()
        ))))?;
    let tmp = path.with_file_name(format!("{name}.tmp"));
    vfs.write_file(&tmp, bytes)?;
    vfs.fsync_file(&tmp)?;
    vfs.rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        vfs.fsync_dir(dir)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{CrashMode, CrashVfs, RealVfs};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ii-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn commit_two(dir: &Path, vfs: &dyn Vfs, a: &[u8], b: &[u8]) -> Result<Manifest, StoreError> {
        let mut txn = Txn::begin(dir, vfs)?;
        txn.put("a.bin", a)?;
        txn.put("b.bin", b)?;
        txn.commit(ManifestKind::Index)
    }

    #[test]
    fn commit_then_open_roundtrip() {
        let d = tmp("roundtrip");
        let m = commit_two(&d, &RealVfs, b"alpha", b"beta").unwrap();
        assert_eq!(m.generation, 1);
        let store = Store::open(&d).unwrap();
        assert_eq!(store.read("a.bin").unwrap(), b"alpha");
        assert_eq!(store.read("b.bin").unwrap(), b"beta");
        assert!(matches!(
            store.read("c.bin"),
            Err(StoreError::MissingArtifact { .. })
        ));
        assert!(store.verify().iter().all(|s| s.ok));
        fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn unchanged_artifacts_are_reused_changed_get_generations() {
        let d = tmp("reuse");
        commit_two(&d, &RealVfs, b"alpha", b"beta").unwrap();
        let m2 = commit_two(&d, &RealVfs, b"alpha", b"BETA2").unwrap();
        assert_eq!(m2.generation, 2);
        assert_eq!(m2.artifact("a.bin").unwrap().file, "a.bin", "unchanged: same file");
        assert_eq!(m2.artifact("b.bin").unwrap().file, "b.bin.g2", "changed: new generation");
        let store = Store::open(&d).unwrap();
        assert_eq!(store.read("b.bin").unwrap(), b"BETA2");
        // The stale b.bin was garbage-collected.
        assert!(!d.join("b.bin").exists());
        fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn sealed_records_restage_by_reference() {
        let d = tmp("sealed");
        let registry = Arc::new(Registry::new());
        let mut txn = Txn::begin(&d, &RealVfs).unwrap().with_registry(Arc::clone(&registry));
        let a = txn.put_with_meta("a.bin", b"alpha", None).unwrap().clone();
        let b = txn.put_with_meta("b.bin", b"beta", None).unwrap().clone();
        assert_eq!((a.len, a.crc32), (5, crc32(b"alpha")));
        txn.commit(ManifestKind::Index).unwrap();
        assert_eq!(registry.counter("store.bytes_checksummed").get(), 9);
        let written = registry.counter("store.bytes_written").get();

        let mut txn = Txn::begin(&d, &RealVfs).unwrap().with_registry(Arc::clone(&registry));
        assert!(txn.put_sealed(&a).unwrap(), "previous generation holds it");
        assert!(matches!(txn.put_sealed(&a), Err(StoreError::Corrupt { .. })), "staged twice");
        // A record the previous generation does not hold: wrong checksum,
        // wrong length, unknown name. The caller must bring the bytes.
        for stale in [
            ArtifactMeta { crc32: b.crc32 ^ 1, ..b.clone() },
            ArtifactMeta { len: b.len + 1, ..b.clone() },
            ArtifactMeta { name: "c.bin".into(), ..b.clone() },
        ] {
            assert!(!txn.put_sealed(&stale).unwrap());
        }
        txn.put("b.bin", b"beta").unwrap();
        let m = txn.commit(ManifestKind::Index).unwrap();
        assert_eq!(m.artifact("a.bin").unwrap(), &a, "same file, same record");
        assert_eq!(m.artifact("b.bin").unwrap(), &b);
        // `a` cost nothing; `b`, staged by value, was hashed again; only
        // the manifest was written.
        assert_eq!(registry.counter("store.bytes_checksummed").get(), 9 + 4);
        assert_eq!(registry.counter("store.artifacts_reused").get(), 2);
        assert_eq!(
            registry.counter("store.bytes_written").get() - written,
            m.to_bytes().len() as u64
        );
        // The file a sealed record points at has gone missing: not reused.
        fs::remove_file(d.join("a.bin")).unwrap();
        let mut txn = Txn::begin(&d, &RealVfs).unwrap();
        assert!(!txn.put_sealed(&a).unwrap());
        fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn missing_manifest_and_torn_manifest_are_typed() {
        let d = tmp("manifest-errs");
        assert!(matches!(Store::open(&d), Err(StoreError::MissingManifest { .. })), "dir absent");
        fs::create_dir_all(&d).unwrap();
        assert!(matches!(Store::open(&d), Err(StoreError::MissingManifest { .. })));
        fs::write(d.join(MANIFEST_NAME), b"{ torn").unwrap();
        assert!(matches!(Store::open(&d), Err(StoreError::TornManifest { .. })));
        fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn corrupted_artifact_detected_on_read() {
        let d = tmp("corrupt");
        commit_two(&d, &RealVfs, b"alpha", b"beta").unwrap();
        // Flip one bit of a committed artifact (post-crash disk rot).
        let mut bytes = fs::read(d.join("a.bin")).unwrap();
        bytes[0] ^= 0x40;
        fs::write(d.join("a.bin"), &bytes).unwrap();
        let store = Store::open(&d).unwrap();
        assert!(matches!(
            store.read("a.bin"),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        fs::write(d.join("a.bin"), b"alpha longer now").unwrap();
        assert!(matches!(
            Store::open(&d).unwrap().read("a.bin"),
            Err(StoreError::SizeMismatch { .. })
        ));
        fs::remove_file(d.join("a.bin")).unwrap();
        assert!(matches!(
            Store::open(&d).unwrap().read("a.bin"),
            Err(StoreError::MissingArtifact { .. })
        ));
        let v = Store::open(&d).unwrap().verify();
        assert!(!v.iter().find(|s| s.name == "a.bin").unwrap().ok);
        assert!(v.iter().find(|s| s.name == "b.bin").unwrap().ok);
        fs::remove_dir_all(d).unwrap();
    }

    /// The store-level crash matrix: for every operation boundary of a
    /// second commit, and every crash mode, reopening the directory yields
    /// the first commit's state, the second's (late crash points), or a
    /// typed error — never garbage, never a panic.
    #[test]
    fn crash_matrix_preserves_previous_commit() {
        let d = tmp("crash-matrix");
        commit_two(&d, &RealVfs, b"alpha", b"beta").unwrap();
        let probe = CrashVfs::probe();
        commit_two(&d, &probe, b"ALPHA3", b"BETA3").unwrap();
        let total_ops = probe.ops();
        assert!(total_ops >= 8, "two artifacts + manifest: {total_ops} ops");
        // Reset to a known gen-1 state for each (crash point, mode) cell.
        for mode in [CrashMode::PowerLoss, CrashMode::TornWrite, CrashMode::BitFlip] {
            for k in 0..total_ops {
                let _ = fs::remove_dir_all(&d);
                commit_two(&d, &RealVfs, b"alpha", b"beta").unwrap();
                let vfs = CrashVfs::new(k, mode, 1000 + k);
                let crashed = commit_two(&d, &vfs, b"ALPHA3", b"BETA3").is_err();
                match Store::open(&d) {
                    Ok(store) => {
                        let a = store.read("a.bin");
                        let b = store.read("b.bin");
                        match (a, b) {
                            (Ok(a), Ok(b)) => {
                                let old = a == b"alpha" && b == b"beta";
                                let new = a == b"ALPHA3" && b == b"BETA3";
                                assert!(
                                    old || new,
                                    "mode {mode:?} op {k}: loaded garbage a={a:?} b={b:?}"
                                );
                                // A crash strictly before the manifest
                                // rename (the last two ops are rename +
                                // dir fsync) must leave the old state; a
                                // crash at the final dir fsync lands after
                                // the commit point, so either is valid.
                                if crashed && mode != CrashMode::BitFlip && k + 1 < total_ops {
                                    assert!(old, "mode {mode:?} op {k}: crash published new state");
                                }
                            }
                            // Silent bit flips may corrupt a committed
                            // artifact — the checksum must catch it.
                            (a, b) => {
                                assert!(
                                    mode == CrashMode::BitFlip,
                                    "mode {mode:?} op {k}: artifact error {:?}",
                                    a.and(b).err()
                                );
                            }
                        }
                    }
                    Err(
                        StoreError::TornManifest { .. }
                        | StoreError::MissingManifest { .. }
                        | StoreError::VersionSkew { .. },
                    ) => {
                        // Typed manifest failure is acceptable only for the
                        // silent-corruption mode (a flipped manifest byte);
                        // atomic rename shields the clean/torn modes.
                        assert!(
                            mode == CrashMode::BitFlip,
                            "mode {mode:?} op {k}: manifest unreadable"
                        );
                    }
                    Err(e) => panic!("mode {mode:?} op {k}: unexpected error {e}"),
                }
            }
        }
        let _ = fs::remove_dir_all(d);
    }

    #[test]
    fn first_commit_crash_leaves_recognizably_partial_dir() {
        let d = tmp("crash-first");
        let probe = CrashVfs::probe();
        commit_two(&d, &probe, b"alpha", b"beta").unwrap();
        let total_ops = probe.ops();
        for k in 0..total_ops {
            let _ = fs::remove_dir_all(&d);
            let vfs = CrashVfs::new(k, CrashMode::TornWrite, k);
            let crashed = commit_two(&d, &vfs, b"alpha", b"beta").is_err();
            match Store::open(&d) {
                Ok(store) => {
                    // Only the post-commit-point dir fsync may crash and
                    // still leave a committed manifest behind.
                    assert!(!crashed || k + 1 == total_ops, "op {k}: crash yet manifest committed");
                    assert_eq!(store.read("a.bin").unwrap(), b"alpha");
                }
                Err(StoreError::MissingManifest { .. }) => assert!(crashed),
                Err(e) => panic!("op {k}: unexpected {e}"),
            }
        }
        let _ = fs::remove_dir_all(d);
    }

    #[test]
    fn salvage_recovers_intact_artifacts() {
        let d = tmp("salvage");
        commit_two(&d, &RealVfs, b"alpha", b"beta").unwrap();
        // Corrupt one artifact and tear the manifest.
        fs::write(d.join("b.bin"), b"bad!").unwrap();
        fs::write(d.join(MANIFEST_NAME), b"{ torn to shreds").unwrap();
        let validate = |_: &str, bytes: &[u8]| {
            if bytes == b"bad!" { Err("decode failed".into()) } else { Ok(None) }
        };
        let report = salvage(&d, &RealVfs, &validate).unwrap();
        assert_eq!(report.kept, vec!["a.bin".to_string()]);
        assert_eq!(report.lost.len(), 1);
        assert_eq!(report.lost[0].0, "b.bin");
        let store = Store::open(&d).unwrap();
        assert_eq!(store.read("a.bin").unwrap(), b"alpha");
        assert!(matches!(store.read("b.bin"), Err(StoreError::MissingArtifact { .. })));
        fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn salvage_prefers_newest_valid_generation() {
        let d = tmp("salvage-gen");
        fs::create_dir_all(&d).unwrap();
        // No manifest at all; two generations of one artifact, newest torn.
        fs::write(d.join("a.bin"), b"old-good").unwrap();
        fs::write(d.join("a.bin.g2"), b"torn").unwrap();
        let validate = |_: &str, bytes: &[u8]| {
            if bytes == b"torn" { Err("truncated".into()) } else { Ok(None) }
        };
        let report = salvage(&d, &RealVfs, &validate).unwrap();
        assert_eq!(report.kept, vec!["a.bin".to_string()]);
        assert_eq!(Store::open(&d).unwrap().read("a.bin").unwrap(), b"old-good");
        fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn salvage_of_empty_dir_is_typed() {
        let d = tmp("salvage-empty");
        fs::create_dir_all(&d).unwrap();
        let ok = |_: &str, _: &[u8]| Ok(None);
        assert!(matches!(
            salvage(&d, &RealVfs, &ok),
            Err(StoreError::MissingManifest { .. })
        ));
        fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn duplicate_put_rejected() {
        let d = tmp("dup");
        let mut txn = Txn::begin(&d, &RealVfs).unwrap();
        txn.put("a.bin", b"x").unwrap();
        assert!(matches!(txn.put("a.bin", b"y"), Err(StoreError::Corrupt { .. })));
        fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn write_file_durable_replaces_atomically() {
        let d = tmp("durable-write");
        fs::create_dir_all(&d).unwrap();
        let path = d.join("stats.json");
        write_file_durable(&RealVfs, &path, b"{\"v\": 1}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\": 1}");
        write_file_durable(&RealVfs, &path, b"{\"v\": 2}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\": 2}");
        // A crash at any I/O boundary leaves either the old or the new
        // content, never a truncated file.
        for op in 0..4 {
            let vfs = CrashVfs::new(op, CrashMode::PowerLoss, 0);
            let _ = write_file_durable(&vfs, &path, b"{\"v\": 333}");
            let found = fs::read(&path).unwrap();
            assert!(
                found == b"{\"v\": 2}" || found == b"{\"v\": 333}",
                "crash at op {op} tore the file: {found:?}"
            );
        }
        assert!(write_file_durable(&RealVfs, Path::new("/"), b"x").is_err());
        fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn obs_counters_recorded() {
        let d = tmp("obs");
        let registry = Arc::new(Registry::new());
        let mut txn = Txn::begin(&d, &RealVfs).unwrap().with_registry(Arc::clone(&registry));
        txn.put("a.bin", b"alpha").unwrap();
        txn.commit(ManifestKind::Index).unwrap();
        assert_eq!(registry.counter("store.commits").get(), 1);
        assert!(registry.counter("store.fsyncs").get() >= 3);
        assert!(registry.counter("store.bytes_written").get() >= 5);
        fs::remove_dir_all(d).unwrap();
    }
}
