//! Build checkpoints: the state a crash-interrupted build resumes from.
//!
//! A checkpoint is an index of the files consumed so far — the sealed run
//! files, the doc map and the combined `dictionary.bin`, exactly what a
//! finished build commits — under
//! [`ManifestKind::Checkpoint`](ii_store::ManifestKind), plus this module's
//! `checkpoint.json` describing the scalar counters and the
//! collection/config fingerprints the checkpoint is only valid for. The
//! dictionary is the handle-assignment state byte-identical resume depends
//! on: [`GlobalDictionary::shards`](ii_dict::GlobalDictionary::shards)
//! turns it back into the indexers' shards. Checkpoints are taken at run
//! boundaries, where every indexer's pending postings have just been
//! flushed — so no in-memory postings need saving.

use crate::fault::{FaultClass, FaultStage, FileFault};
use serde::{Deserialize, Serialize};

/// Logical artifact name of the checkpoint descriptor.
pub const CHECKPOINT_ARTIFACT: &str = "checkpoint.json";
/// Logical artifact name of the document map.
pub const DOCMAP_ARTIFACT: &str = "docmap.bin";
/// Logical artifact name of the combined dictionary.
pub const DICTIONARY_ARTIFACT: &str = "dictionary.bin";

/// A quarantined file carried across a resume so the final report lists
/// every fault of the whole build, not just the post-resume part.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedFile {
    /// Container file index.
    pub file_idx: u64,
    /// Fault class (`transient` / `permanent` / `panic`).
    pub class: String,
    /// Pipeline stage (`sampling` / `parsing`).
    pub stage: String,
    /// Retries burned before giving up.
    pub retries: u32,
    /// Human-readable failure description.
    pub error: String,
}

impl QuarantinedFile {
    /// Capture a [`FileFault`] for the checkpoint.
    pub fn from_fault(f: &FileFault) -> Self {
        QuarantinedFile {
            file_idx: f.file_idx as u64,
            class: f.class.to_string(),
            stage: f.stage.to_string(),
            retries: f.retries,
            error: f.error.clone(),
        }
    }

    /// Rebuild the [`FileFault`] on resume. `None` if the class/stage
    /// strings are not ones this build writes (a foreign checkpoint).
    pub fn to_fault(&self) -> Option<FileFault> {
        let class = match self.class.as_str() {
            "transient" => FaultClass::Transient,
            "permanent" => FaultClass::Permanent,
            "panic" => FaultClass::Panic,
            _ => return None,
        };
        let stage = match self.stage.as_str() {
            "sampling" => FaultStage::Sampling,
            "parsing" => FaultStage::Parsing,
            _ => return None,
        };
        Some(FileFault {
            file_idx: self.file_idx as usize,
            class,
            retries: self.retries,
            stage,
            error: self.error.clone(),
        })
    }
}

/// The scalar state of a mid-build checkpoint (`checkpoint.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BuildCheckpoint {
    /// Container files fully consumed: resume starts at this index.
    pub files_done: u64,
    /// Global doc-ID high-water mark (indexed + quarantine-reserved).
    pub next_doc: u32,
    /// Documents actually indexed.
    pub docs_indexed: u32,
    /// Runs flushed so far (the next run id).
    pub runs_flushed: u32,
    /// Identity of the collection this checkpoint belongs to.
    pub collection: String,
    /// Fingerprint of every config knob that affects index bytes.
    pub config: String,
    /// Read retries recovered before the checkpoint.
    pub retries: u32,
    /// Files that needed retries but ultimately parsed.
    pub recovered_files: u32,
    /// Files quarantined before the checkpoint.
    pub quarantined: Vec<QuarantinedFile>,
}

/// Identity of a stored collection, pinned into every checkpoint: resuming
/// against a different (or regenerated) collection is refused rather than
/// silently producing a franken-index.
pub fn collection_fingerprint(c: &ii_corpus::StoredCollection) -> String {
    let spec = &c.manifest.spec;
    format!(
        "{}|seed={}|files={}|docs_per_file={}|bytes={}",
        spec.name,
        spec.seed,
        spec.num_files,
        spec.docs_per_file,
        c.manifest.stats.uncompressed_bytes,
    )
}

/// Fingerprint of the pipeline-config knobs that change index *bytes*.
/// Deliberately excludes `num_parsers`, `buffer_depth`, and the fault
/// policy: those change scheduling and recovery, not output (the
/// file-order consumption rule makes output parser-count-independent).
/// The memory budget IS included: a different budget moves early-flush
/// and shed points, which moves run boundaries — the logical index is
/// identical, but a resume would splice physically incompatible run files,
/// so the mismatch is refused instead.
pub fn config_fingerprint(cfg: &crate::driver::PipelineConfig) -> String {
    format!(
        "cpus={}|gpus={}|popular={}|batches_per_run={}|codec={:?}|sample={}x{}\
         |mem_budget={}",
        cfg.num_cpu_indexers,
        cfg.num_gpus,
        cfg.popular_count,
        cfg.batches_per_run,
        cfg.codec,
        cfg.sample_docs_per_file,
        cfg.sample_file_stride,
        cfg.mem_budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_json_roundtrip() {
        let ckpt = BuildCheckpoint {
            files_done: 7,
            next_doc: 220,
            docs_indexed: 200,
            runs_flushed: 3,
            collection: "tiny|seed=41|files=10|docs_per_file=20|bytes=12345".into(),
            config: "cpus=1|gpus=1|popular=8|batches_per_run=1|codec=VarByte|sample=2x1".into(),
            retries: 2,
            recovered_files: 1,
            quarantined: vec![QuarantinedFile {
                file_idx: 4,
                class: "permanent".into(),
                stage: "parsing".into(),
                retries: 0,
                error: "container parse failed: bad magic".into(),
            }],
        };
        let bytes = serde_json::to_vec_pretty(&ckpt).unwrap();
        let back: BuildCheckpoint = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back, ckpt);
        let fault = back.quarantined[0].to_fault().unwrap();
        assert_eq!(fault.file_idx, 4);
        assert_eq!(fault.class, FaultClass::Permanent);
        assert_eq!(fault.stage, FaultStage::Parsing);
        // The round-trip through QuarantinedFile is lossless.
        assert_eq!(QuarantinedFile::from_fault(&fault), back.quarantined[0]);
    }

    #[test]
    fn foreign_class_strings_rejected() {
        let q = QuarantinedFile {
            file_idx: 0,
            class: "cosmic-ray".into(),
            stage: "parsing".into(),
            retries: 0,
            error: String::new(),
        };
        assert!(q.to_fault().is_none());
    }
}
