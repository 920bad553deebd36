//! Builds in child processes, and the checks every committed index passes.
//!
//! The `ledger` binary re-executes itself for each build so allocator state
//! and the peak-RSS high-water mark never leak from one build (or from the
//! oracle) into the next. The child prints one JSON line; the parent checks
//! the committed directory outside the timed region.

use crate::oracle::Oracle;
use crate::workloads::{pipeline_config, Scale, CHECKPOINT_EVERY};
use ii_core::corpus::StoredCollection;
use ii_core::pipeline::{build_index, build_index_durable, DurableOptions, PipelineReport};
use ii_core::store::Store;
use ii_core::Index;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// The hidden first argument that turns the binary into a build child.
pub const CHILD_FLAG: &str = "--child-build";

/// What one build child is asked to do.
#[derive(Clone, Debug)]
pub struct BuildJob {
    /// Collection directory (already on disk).
    pub collection: PathBuf,
    /// Index directory for a durable build; `None` builds in memory.
    pub index: Option<PathBuf>,
    /// Simulated GPUs beside the one CPU indexer.
    pub gpus: usize,
    /// Input scale (selects the GPU sizing).
    pub scale: Scale,
    /// Run with the product's event tracing on.
    pub traced: bool,
}

/// The one line a build child prints.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChildReport {
    /// Host wall seconds from opening the collection to the committed index.
    pub wall_s: f64,
    /// Peak resident set of the child at exit (`VmHWM`), in kB.
    pub vm_hwm_kb: u64,
    /// Documents indexed.
    pub docs: u64,
    /// Distinct terms in the combined dictionary.
    pub terms: u64,
    /// No fault, quarantine, worker death, reassignment or lossy incident.
    pub clean: bool,
    /// The fault and supervision summaries when not clean.
    pub detail: String,
    /// `PipelineReport::sampling_seconds`.
    pub sampling_s: f64,
    /// Seconds parsers waited on a full output queue (the indexer is the
    /// bottleneck when this is large).
    pub parser_queue_wait_s: f64,
    /// Seconds the indexing driver waited on the parsers.
    pub indexer_queue_wait_s: f64,
    /// The memory governor's high-water mark, bytes.
    pub governor_high_water_bytes: u64,
    /// Bytes the store wrote, checkpoints included.
    pub store_bytes_written: u64,
}

fn vm_hwm_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

fn summarize(report: &PipelineReport, wall_s: f64, terms: usize) -> ChildReport {
    let clean = report.faults.is_clean()
        && report.supervision.is_clean()
        && report.postmortem_bundles.is_empty();
    let wait = |stage: &str| {
        report
            .stages
            .stage(stage)
            .map_or(0.0, |s| s.queue_wait_seconds)
    };
    ChildReport {
        wall_s,
        vm_hwm_kb: vm_hwm_kb(),
        docs: u64::from(report.docs),
        terms: terms as u64,
        clean,
        detail: if clean {
            String::new()
        } else {
            format!(
                "{}; {} deaths, {} reassignments, {} lossy incidents",
                report.faults.summary(),
                report.supervision.deaths.len(),
                report.supervision.reassignments,
                report.supervision.lossy_incidents.len()
            )
        },
        sampling_s: report.sampling_seconds,
        parser_queue_wait_s: wait("parse"),
        indexer_queue_wait_s: wait("index"),
        governor_high_water_bytes: report.stages.gauge("governor.high_water_bytes").max(0) as u64,
        store_bytes_written: report.stages.counter("store.bytes_written"),
    }
}

/// Run one build in this process (the child side).
pub fn build_here(job: &BuildJob) -> Result<ChildReport, String> {
    let mut cfg = pipeline_config(job.gpus, job.scale);
    cfg.trace.enabled = job.traced;
    let t0 = Instant::now();
    let coll = Arc::new(StoredCollection::open(&job.collection).map_err(|e| e.to_string())?);
    let out = match &job.index {
        Some(dir) => {
            let opts = DurableOptions::new(dir).checkpoint_every(CHECKPOINT_EVERY);
            build_index_durable(&coll, &cfg, &opts)
        }
        None => build_index(&coll, &cfg),
    }
    .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(summarize(&out.report, wall_s, out.dictionary.len()))
}

/// Entry point of the child: `<collection> <index|-> <gpus> <full|tiny> <traced 0|1>`.
/// Prints the report line; any failure goes to stderr with exit code 1.
pub fn child_main(args: &[String]) -> i32 {
    let job = match args {
        [collection, index, gpus, scale, traced] => {
            gpus.parse()
                .ok()
                .zip(Scale::parse(scale))
                .map(|(gpus, scale)| BuildJob {
                    collection: PathBuf::from(collection),
                    index: (index != "-").then(|| PathBuf::from(index)),
                    gpus,
                    scale,
                    traced: traced == "1",
                })
        }
        _ => None,
    };
    let Some(job) = job else {
        eprintln!("ledger: malformed {CHILD_FLAG} arguments: {args:?}");
        return 2;
    };
    match build_here(&job) {
        Ok(report) => {
            println!(
                "{}",
                serde_json::to_string(&report).expect("report serializes")
            );
            0
        }
        Err(e) => {
            eprintln!("ledger: child build failed: {e}");
            1
        }
    }
}

/// Run one build in a child process of `exe` (the `ledger` binary) and wait
/// for it to end.
pub fn build_in_child(exe: &Path, job: &BuildJob) -> Result<ChildReport, String> {
    let out = Command::new(exe)
        .arg(CHILD_FLAG)
        .arg(&job.collection)
        .arg(job.index.as_deref().unwrap_or(Path::new("-")))
        .arg(job.gpus.to_string())
        .arg(job.scale.as_str())
        .arg(if job.traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "build child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("unreadable child report {line:?}: {e}"))
}

/// `(name, length, CRC32)` of every artifact the manifest commits, by name.
/// Two directories with equal fingerprints that both pass `verify_dir` hold
/// the same bytes.
pub type Fingerprint = Vec<(String, u64, u32)>;

/// Read a committed directory's fingerprint from its manifest.
pub fn fingerprint(dir: &Path) -> Result<Fingerprint, String> {
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    let mut fp: Fingerprint = store
        .manifest()
        .artifacts
        .iter()
        .map(|a| (a.name.clone(), a.len, a.crc32))
        .collect();
    fp.sort();
    Ok(fp)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Every artifact passes its manifest checksum.
pub fn verify_checksums(dir: &Path) -> Vec<String> {
    match Index::verify_dir(dir) {
        Ok(statuses) => statuses
            .iter()
            .filter(|s| !s.ok)
            .map(|s| format!("{}: {}", s.name, s.detail))
            .collect(),
        Err(e) => vec![format!("verify_dir: {e}")],
    }
}

/// Compare a committed index with the oracle: checksums, document and term
/// counts, total postings, and exact postings of a seeded term sample.
/// Returns what disagreed; empty means the build is correct.
pub fn verify_against_oracle(dir: &Path, oracle: &Oracle, sample: &[u32]) -> Vec<String> {
    let mut problems = verify_checksums(dir);
    let idx = match Index::open(dir) {
        Ok(idx) => idx,
        Err(e) => {
            problems.push(format!("Index::open: {e}"));
            return problems;
        }
    };
    if idx.doc_map.total_docs() != oracle.docs() {
        problems.push(format!(
            "{} docs, oracle has {}",
            idx.doc_map.total_docs(),
            oracle.docs()
        ));
    }
    if idx.num_terms() != oracle.terms.len() {
        problems.push(format!(
            "{} terms, oracle has {}",
            idx.num_terms(),
            oracle.terms.len()
        ));
    }
    let postings: u64 = idx
        .run_sets
        .values()
        .flat_map(|set| set.runs())
        .flat_map(|run| &run.entries)
        .map(|e| u64::from(e.n_postings))
        .sum();
    if postings != oracle.postings() {
        problems.push(format!(
            "{postings} postings, oracle has {}",
            oracle.postings()
        ));
    }
    let mut wrong_lists = 0usize;
    for &t in sample {
        let got: Option<Vec<(u32, u32)>> = idx
            .postings_stemmed(&oracle.terms[t as usize])
            .map(|l| l.postings().iter().map(|p| (p.doc.0, p.tf)).collect());
        if got.as_deref() != Some(oracle.lists[t as usize].as_slice()) {
            wrong_lists += 1;
        }
    }
    if wrong_lists > 0 {
        problems.push(format!(
            "{wrong_lists} of {} sampled lists differ from the oracle",
            sample.len()
        ));
    }
    problems
}
