//! On-disk collection store.
//!
//! A generated collection lives in a directory: one LZSS-compressed
//! container file per "crawl file" plus a JSON manifest recording the spec
//! and Table III-style statistics. The pipeline's read scheduler hands whole
//! files to parsers, exactly as the paper's scheduler serializes reads of
//! ClueWeb09 WARC files.

use crate::compress;
use crate::container;
use crate::doc::RawDocument;
use crate::fault::{FaultPlan, IngestError};
use crate::synth::{CollectionGenerator, CollectionSpec, CollectionStats};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest written beside the container files.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Manifest {
    /// The spec the collection was generated from.
    pub spec: CollectionSpec,
    /// Statistics gathered during generation.
    pub stats: CollectionStats,
    /// Per-file compressed sizes in bytes (read-cost modeling input).
    pub file_compressed_bytes: Vec<u64>,
    /// Per-file uncompressed sizes in bytes.
    pub file_uncompressed_bytes: Vec<u64>,
}

/// A collection materialized on disk.
pub struct StoredCollection {
    dir: PathBuf,
    /// Parsed manifest.
    pub manifest: Manifest,
    /// Optional fault-injection plan consulted on every raw read.
    faults: Option<FaultPlan>,
}

impl StoredCollection {
    /// Generate a collection from `spec` into `dir` (created if needed).
    /// Returns the stored collection with its gathered statistics.
    pub fn generate(spec: CollectionSpec, dir: &Path) -> io::Result<StoredCollection> {
        fs::create_dir_all(dir)?;
        let gen = CollectionGenerator::new(spec.clone());
        let mut stats = CollectionStats::default();
        let mut file_c = Vec::with_capacity(spec.num_files);
        let mut file_u = Vec::with_capacity(spec.num_files);
        // Distinct-term tracking via a bitset over vocabulary ranks would
        // miss punctuation-split artifacts; instead count distinct surface
        // tokens exactly with a hash set of the generator vocabulary terms
        // actually emitted. We track ranks while generating text, which is
        // what the generator samples.
        let mut seen = vec![false; spec.vocab_size];
        for f in 0..spec.num_files {
            let docs = gen.generate_file(f);
            for d in &docs {
                stats.documents += 1;
                for tok in d.body.split_whitespace() {
                    // Surface token statistics; HTML wrapper tokens excluded
                    // by only counting for text collections. HTML stats are
                    // approximated from the embedded text either way.
                    let _ = tok;
                }
            }
            // Token/term statistics come from the raw token stream the
            // generator sampled; re-derive it deterministically.
            let (tokens, ranks) = regenerate_token_stats(&gen, f);
            stats.tokens += tokens;
            for r in ranks {
                seen[r] = true;
            }
            let raw = container::write_container(&docs);
            let packed = compress::compress(&raw);
            stats.uncompressed_bytes += raw.len() as u64;
            stats.compressed_bytes += packed.len() as u64;
            file_u.push(raw.len() as u64);
            file_c.push(packed.len() as u64);
            fs::write(dir.join(file_name(f)), &packed)?;
        }
        stats.distinct_terms = seen.iter().filter(|&&b| b).count() as u64;
        let manifest = Manifest {
            spec,
            stats,
            file_compressed_bytes: file_c,
            file_uncompressed_bytes: file_u,
        };
        fs::write(dir.join("manifest.json"), serde_json::to_vec_pretty(&manifest)?)?;
        Ok(StoredCollection { dir: dir.to_path_buf(), manifest, faults: None })
    }

    /// Open an existing collection directory.
    pub fn open(dir: &Path) -> io::Result<StoredCollection> {
        let manifest: Manifest =
            serde_json::from_slice(&fs::read(dir.join("manifest.json"))?)?;
        Ok(StoredCollection { dir: dir.to_path_buf(), manifest, faults: None })
    }

    /// Attach a fault-injection plan: every subsequent raw read consults it.
    /// Used by the chaos tests to exercise the pipeline's recovery paths.
    pub fn with_faults(mut self, plan: FaultPlan) -> StoredCollection {
        self.faults = Some(plan);
        self
    }

    /// The attached fault-injection plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Number of container files.
    pub fn num_files(&self) -> usize {
        self.manifest.spec.num_files
    }

    /// Path of container file `idx`.
    pub fn file_path(&self, idx: usize) -> PathBuf {
        self.dir.join(file_name(idx))
    }

    /// Read the raw (compressed) bytes of file `idx` — the unit the read
    /// scheduler transfers. If a fault plan is attached, the bytes (or the
    /// error) are whatever the injected fault dictates.
    pub fn read_file_raw(&self, idx: usize) -> io::Result<Vec<u8>> {
        let bytes = fs::read(self.file_path(idx))?;
        match &self.faults {
            Some(plan) => plan.apply_read(idx, bytes),
            None => Ok(bytes),
        }
    }

    /// Read and fully decode file `idx` into documents (read + decompress +
    /// container parse), with each stage's failure typed so callers can
    /// distinguish transient I/O faults from permanent corruption.
    pub fn read_file(&self, idx: usize) -> Result<Vec<RawDocument>, IngestError> {
        let packed = self.read_file_raw(idx)?;
        let raw = compress::decompress(&packed)?;
        Ok(container::parse_container(&raw)?)
    }

    /// Read file `idx` and decode only its first `n_docs` documents (all of
    /// them if it holds fewer): the decompressor stops once its output
    /// covers those records and the container walk stops after them. Same
    /// read path and fault hook as [`Self::read_file`], and the same typed
    /// errors for what the prefix can see — the header and the records
    /// walked. The container's checksum covers the whole file, so damage
    /// past the prefix is for a full [`Self::read_file`] to find; a file
    /// short enough to be decoded whole is checked whole.
    pub fn read_file_prefix(
        &self,
        idx: usize,
        n_docs: usize,
    ) -> Result<Vec<RawDocument>, IngestError> {
        let packed = self.read_file_raw(idx)?;
        let mut stream = compress::Decompressor::new(&packed)?;
        let mut need = 8; // magic and record count
        loop {
            stream.fill_to(need)?;
            let head = stream.decoded();
            if stream.is_complete() {
                let mut docs = container::parse_container(head)?;
                docs.truncate(n_docs);
                return Ok(docs);
            }
            match container::parse_container_prefix(head, n_docs)? {
                container::Prefix::Docs(docs) => return Ok(docs),
                container::Prefix::NeedBytes(n) => need = n,
            }
        }
    }

    /// Read and fully decode file `idx` into documents. Convenience wrapper
    /// over [`Self::read_file`] that flattens the error into `io::Error`.
    pub fn read_file_docs(&self, idx: usize) -> io::Result<Vec<RawDocument>> {
        self.read_file(idx).map_err(|e| match e {
            IngestError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })
    }
}

fn file_name(idx: usize) -> String {
    format!("file_{idx:05}.iic")
}

/// Re-sample the token rank stream for a file to gather statistics without
/// holding all document text. Mirrors `CollectionGenerator::generate_file`'s
/// sampling exactly (same seed derivation, same draw order).
fn regenerate_token_stats(gen: &CollectionGenerator, file_idx: usize) -> (u64, Vec<usize>) {
    // Cheap approach: re-generate the file and split the text. Since the
    // generator is deterministic this is exact for text collections and for
    // the embedded text of HTML collections.
    let docs = gen.generate_file(file_idx);
    let mut tokens = 0u64;
    let mut ranks = Vec::new();
    let vocab = gen.vocabulary();
    // Build a lookup from term -> rank once per call (file granularity keeps
    // this out of inner loops).
    let map: std::collections::HashMap<&str, usize> =
        vocab.terms().iter().enumerate().map(|(i, t)| (t.as_str(), i)).collect();
    for d in &docs {
        for tok in d
            .body
            .split(|c: char| c.is_whitespace() || c == '<' || c == '>')
            .filter(|t| !t.is_empty())
        {
            let t = tok.trim_matches(|c: char| c == '.' || c == ',');
            if let Some(&r) = map.get(t) {
                tokens += 1;
                ranks.push(r);
            }
        }
    }
    ranks.sort_unstable();
    ranks.dedup();
    (tokens, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = env::temp_dir().join(format!("ii-corpus-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn generate_open_roundtrip() {
        let dir = tmpdir("roundtrip");
        let spec = CollectionSpec::tiny(21);
        let stored = StoredCollection::generate(spec.clone(), &dir).unwrap();
        assert_eq!(stored.num_files(), spec.num_files);
        let reopened = StoredCollection::open(&dir).unwrap();
        assert_eq!(reopened.manifest.spec, spec);
        assert_eq!(reopened.manifest.stats, stored.manifest.stats);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn files_decode_to_expected_docs() {
        let dir = tmpdir("decode");
        let spec = CollectionSpec::tiny(22);
        let stored = StoredCollection::generate(spec.clone(), &dir).unwrap();
        let gen = CollectionGenerator::new(spec.clone());
        for f in 0..spec.num_files {
            assert_eq!(stored.read_file_docs(f).unwrap(), gen.generate_file(f));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plan_hooks_into_reads() {
        use crate::fault::{FaultKind, FaultPlan};
        let dir = tmpdir("faulty");
        let spec = CollectionSpec::tiny(24);
        StoredCollection::generate(spec, &dir).unwrap();
        let stored = StoredCollection::open(&dir)
            .unwrap()
            .with_faults(
                FaultPlan::new(5)
                    .with_fault(0, FaultKind::TransientRead { failures: 1 })
                    .with_fault(1, FaultKind::Garbage),
            );
        // File 0: first read fails transiently, second succeeds.
        let first = stored.read_file(0);
        assert!(matches!(&first, Err(e) if e.is_transient()), "{first:?}");
        assert!(stored.read_file(0).is_ok());
        // File 1: permanently corrupt.
        let bad = stored.read_file(1);
        assert!(matches!(&bad, Err(e) if !e.is_transient()), "{bad:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prefix_reads_the_leading_documents_and_sees_their_faults() {
        use crate::fault::{FaultKind, FaultPlan};
        let dir = tmpdir("prefix");
        let spec = CollectionSpec::tiny(25);
        StoredCollection::generate(spec.clone(), &dir).unwrap();
        let stored = StoredCollection::open(&dir).unwrap();
        let whole = stored.read_file(0).unwrap();
        for n in [0, 1, 2, whole.len(), whole.len() + 3] {
            let head = stored.read_file_prefix(0, n).unwrap();
            assert_eq!(head, whole[..n.min(whole.len())], "first {n} documents");
        }
        // The same fault hook and the same typed errors as the whole read.
        let faulty = StoredCollection::open(&dir).unwrap().with_faults(
            FaultPlan::new(5)
                .with_fault(0, FaultKind::TransientRead { failures: 1 })
                .with_fault(1, FaultKind::Garbage),
        );
        assert!(matches!(faulty.read_file_prefix(0, 2), Err(e) if e.is_transient()));
        assert_eq!(faulty.read_file_prefix(0, 2).unwrap(), whole[..2]);
        assert!(matches!(faulty.read_file_prefix(1, 2), Err(e) if !e.is_transient()));
        // Damage past the prefix is the whole read's to find: cut the file
        // in half and the leading documents still decode.
        let path = stored.file_path(0);
        let packed = fs::read(&path).unwrap();
        fs::write(&path, &packed[..packed.len() / 2]).unwrap();
        assert_eq!(stored.read_file_prefix(0, 2).unwrap(), whole[..2]);
        assert!(matches!(stored.read_file(0), Err(IngestError::Decompress(_))));
        // ... and a cut inside the prefix is seen by both.
        fs::write(&path, &packed[..40]).unwrap();
        assert!(matches!(stored.read_file_prefix(0, 2), Err(IngestError::Decompress(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_are_plausible() {
        let dir = tmpdir("stats");
        let spec = CollectionSpec::tiny(23);
        let stored = StoredCollection::generate(spec.clone(), &dir).unwrap();
        let s = &stored.manifest.stats;
        assert_eq!(s.documents as usize, spec.total_docs());
        assert!(s.tokens > 0);
        assert!(s.distinct_terms > 0 && s.distinct_terms <= spec.vocab_size as u64);
        assert!(s.uncompressed_bytes > 0);
        assert!(s.compressed_bytes > 0);
        assert!(
            s.compressed_bytes < s.uncompressed_bytes,
            "text should compress: {} vs {}",
            s.compressed_bytes,
            s.uncompressed_bytes
        );
        assert_eq!(stored.manifest.file_compressed_bytes.len(), spec.num_files);
        fs::remove_dir_all(&dir).unwrap();
    }
}
