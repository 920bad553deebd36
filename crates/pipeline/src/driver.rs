//! End-to-end pipelined indexing (paper Fig 9, Table VI).
//!
//! `build_index` drives the full system over a stored collection:
//! sampling → balance plan → parallel parsers → in-order batch
//! consumption by the indexer pool → per-run postings flushes → dictionary
//! combine → dictionary write. It reports the same timing rows as the
//! paper's Table VI plus per-file indexing times for Fig 11.
//!
//! Timing domains: CPU-side stage times are measured wall-clock (they are
//! single-threaded work on this host); GPU times are the simulator's device
//! seconds. The `ii-platsim` crate projects both onto the paper's 8-core +
//! 2-GPU platform for the headline experiments.
//!
//! Fault handling: both the sampling pre-pass and the streaming build obey
//! the [`FaultPolicy`] on the config — transient read faults are retried,
//! permanent ones either abort the build with a typed [`PipelineError`]
//! (fail-fast) or quarantine the file and continue (skip-file). Everything
//! survived is tallied in the report's [`FaultReport`].

use crate::checkpoint::{
    collection_fingerprint, config_fingerprint, BuildCheckpoint, QuarantinedFile,
    CHECKPOINT_ARTIFACT, DICTIONARY_ARTIFACT, DOCMAP_ARTIFACT,
};
use crate::docmap::DocMap;
use crate::fault::{
    FaultAction, FaultClass, FaultPolicy, FaultReport, FaultStage, FileFault, PipelineError,
    WorkerClass, WorkerFaultKind, WorkerFaultPlan,
};
use crate::governor::{GovernorPolicy, MemoryGovernor, PoolBytes};
use crate::parsers::{panic_message, ParsedFile, ParserObs, ParserPool, SpawnOptions};
use crate::supervisor::{DeathCause, SupervisorPolicy, WorkerDeath};
use crate::telemetry::{PostmortemWriter, TelemetryConfig, POSTMORTEM_DIR};
use ii_corpus::StoredCollection;
use ii_obs::{
    FlightRecorder, Gauge, GaugeSeries, Heartbeat, MetricsServer, Registry, Snapshot, Stage,
    Trace, TraceConfig, TraceKind, TraceSink, Tracer,
};
use ii_dict::{GlobalDictionary, PartialDictionary};
use ii_indexer::{
    make_plan, sample_counts, BalancePlan, BatchTiming, Executor, GpuIndexerConfig, IndexerPool,
    Takeover, WorkloadStats,
};
use ii_postings::{parse_run_artifact_name, run_artifact_name, Codec, RunFile, RunSet};
use ii_store::{
    ArtifactMeta, Manifest, ManifestKind, PostingsMeta, RealVfs, Store, StoreError, Txn, Vfs,
};
use ii_text::{parse_documents_into, ParseScratch, ParsedBatch};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::mem::take;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline configuration (the knobs of §IV.A/§IV.B).
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Parallel parser threads (paper optimum: 6).
    pub num_parsers: usize,
    /// CPU indexer threads (paper optimum: 2).
    pub num_cpu_indexers: usize,
    /// GPU indexers (paper: 2 Tesla C1060).
    pub num_gpus: usize,
    /// GPU sizing.
    pub gpu_config: GpuIndexerConfig,
    /// Postings codec.
    pub codec: Codec,
    /// Size of the popular group (paper observes ~100).
    pub popular_count: usize,
    /// Documents sampled per sampled file for the balance plan.
    pub sample_docs_per_file: usize,
    /// Sample every n-th file (1 = all files).
    pub sample_file_stride: usize,
    /// Batches each parser may hold ahead of the consumer: no file is
    /// claimed `num_parsers × (buffer_depth + 1)` or more files past the
    /// one being consumed, and the consumer parks at most this many files
    /// it ingested itself.
    pub buffer_depth: usize,
    /// Batches per run (1 = one run per container file).
    pub batches_per_run: usize,
    /// Retry and quarantine behaviour for faulty container files.
    pub fault_policy: FaultPolicy,
    /// Event tracing (disabled by default). Excluded from the checkpoint
    /// config fingerprint: tracing never changes index bytes, so a traced
    /// build may resume an untraced one and vice versa.
    pub trace: TraceConfig,
    /// Failure-domain supervision: per-worker heartbeats, the stall
    /// watchdog, and shard reassignment on worker death. Excluded from the
    /// checkpoint config fingerprint — supervision changes how a build
    /// executes, never what it produces.
    pub supervision: SupervisorPolicy,
    /// Seeded worker-kill/stall schedule (chaos testing; empty by
    /// default). Also fingerprint-excluded: a degraded build's output is
    /// byte-identical to a healthy one.
    pub worker_faults: WorkerFaultPlan,
    /// Memory budget and degradation watermarks. The budget knobs ARE
    /// fingerprinted: early run flushes move run boundaries, so a resume
    /// under a different budget would splice incompatible run sets. (The
    /// *logical* index — dictionary, postings, doc map — stays identical
    /// across budgets; the checkpoint guard protects the physical runs.)
    pub governor: GovernorPolicy,
    /// Live telemetry: where automatic post-mortem bundles land, and the
    /// optional OpenMetrics endpoint. Excluded from the checkpoint config
    /// fingerprint like `trace` and `supervision`: telemetry observes a
    /// build, it never changes index bytes.
    pub telemetry: TelemetryConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            num_parsers: 6,
            num_cpu_indexers: 2,
            num_gpus: 2,
            gpu_config: GpuIndexerConfig::default(),
            // Auto picks a codec per list length class: varbyte for short
            // lists, PForDelta for medium, BP128 for long (see
            // `ii_postings::codec_for`).
            codec: Codec::Auto,
            popular_count: 100,
            sample_docs_per_file: 2,
            sample_file_stride: 1,
            buffer_depth: 2,
            batches_per_run: 1,
            fault_policy: FaultPolicy::default(),
            trace: TraceConfig::default(),
            supervision: SupervisorPolicy::default(),
            worker_faults: WorkerFaultPlan::none(),
            governor: GovernorPolicy::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// A small configuration for tests.
    pub fn small(num_parsers: usize, num_cpu: usize, num_gpus: usize) -> Self {
        PipelineConfig {
            num_parsers,
            num_cpu_indexers: num_cpu,
            num_gpus,
            gpu_config: GpuIndexerConfig::small(),
            popular_count: 8,
            ..Default::default()
        }
    }
}

/// Per-file indexing timing (Fig 11's x/y data).
#[derive(Clone, Copy, Debug)]
pub struct FileTiming {
    /// Container file index.
    pub file_idx: usize,
    /// Uncompressed bytes of the file.
    pub uncompressed_bytes: u64,
    /// Measured wall seconds the indexing stage spent on this batch
    /// (includes the host cost of simulating the GPU kernels).
    pub wall_seconds: f64,
    /// Modeled stage seconds: max over indexers of (CPU wall, GPU device +
    /// transfer simulated).
    pub modeled_seconds: f64,
    /// Seconds the consumer blocked waiting for this file's parsed batch —
    /// separates "the parser pipeline was behind" (large value) from "the
    /// file itself was expensive to index" (small value, large
    /// `wall_seconds`).
    pub queue_wait_seconds: f64,
    /// Terms handed to indexers.
    pub tokens: u64,
}

/// Table VI-style timing rows plus supporting detail. Host wall time per
/// stage lives in [`Self::stages`] only; the `*_seconds` methods read it.
/// The modelled `pre_processing_seconds` / `indexing_seconds` are
/// simulated time, never mixed with host wall.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// Sampling + plan time (Table VI "Sampling Time").
    pub sampling_seconds: f64,
    /// Simulated GPU pre-processing (input transfer) seconds.
    pub pre_processing_seconds: f64,
    /// Indexing time: sum over batches of the modeled stage time.
    pub indexing_seconds: f64,
    /// Total wall seconds for the whole build.
    pub total_seconds: f64,
    /// Per-file indexing detail (Fig 11); quarantined files have no row.
    pub per_file: Vec<FileTiming>,
    /// CPU-side workload (Table V).
    pub cpu_stats: WorkloadStats,
    /// GPU-side workload (Table V).
    pub gpu_stats: WorkloadStats,
    /// Documents indexed.
    pub docs: u32,
    /// Uncompressed input bytes actually indexed (quarantined files'
    /// bytes are excluded so throughput stays honest).
    pub uncompressed_bytes: u64,
    /// Faults retried, recovered, and quarantined during the build.
    pub faults: FaultReport,
    /// Worker deaths, shard reassignments, and degraded modes the
    /// supervisor carried the build through.
    pub supervision: crate::supervisor::SupervisionReport,
    /// The build registry's final snapshot: per-stage wall, queue-wait,
    /// bytes and items plus the deep counters — the Table V / Fig 9 view
    /// of this build.
    pub stages: Snapshot,
    /// Merged event trace (`Some` only when the build ran with
    /// [`TraceConfig::enabled`]); export with
    /// [`Trace::to_chrome_json`].
    pub trace: Option<Trace>,
    /// Post-mortem bundles written during the build (worker deaths and
    /// quarantines on an otherwise-successful build; fatal errors leave
    /// their bundle in the `postmortem/` dir without a report to carry it).
    pub postmortem_bundles: Vec<PathBuf>,
}

impl PipelineReport {
    /// End-to-end throughput in MB/s over uncompressed input (the paper's
    /// headline metric), using measured wall time on *this* host.
    pub fn throughput_mb_s(&self) -> f64 {
        if self.total_seconds == 0.0 {
            return 0.0;
        }
        self.uncompressed_bytes as f64 / 1e6 / self.total_seconds
    }

    /// Busy wall seconds of the named stages, summed.
    fn stage_seconds(&self, names: &[&str]) -> f64 {
        names.iter().filter_map(|n| self.stages.stage(n)).map(|s| s.wall_seconds).sum()
    }

    /// Summed parser busy time: the `read`, `decompress` and `parse`
    /// stages, on parser threads and the consumer alike.
    pub fn parser_busy_seconds(&self) -> f64 {
        self.stage_seconds(&["read", "decompress", "parse"])
    }

    /// Post-processing: the `post_process` stage (run flush/encode).
    pub fn post_processing_seconds(&self) -> f64 {
        self.stage_seconds(&["post_process"])
    }

    /// Dictionary combine seconds (Table VI), every generation's included.
    pub fn dict_combine_seconds(&self) -> f64 {
        self.stage_seconds(&["dict_combine"])
    }

    /// Dictionary write seconds (Table VI), every generation's included.
    pub fn dict_write_seconds(&self) -> f64 {
        self.stage_seconds(&["dict_write"])
    }
}

/// The built index: dictionary + per-indexer run sets + serialized
/// dictionary bytes + timing report.
pub struct IndexOutput {
    /// Combined dictionary.
    pub dictionary: GlobalDictionary,
    /// Run files grouped by indexer id.
    pub run_sets: HashMap<u32, RunSet>,
    /// Serialized dictionary, as written to disk.
    pub dict_bytes: Vec<u8>,
    /// Auxiliary docID -> source-file map (§III.F).
    pub doc_map: DocMap,
    /// Timing and workload report.
    pub report: PipelineReport,
}

impl IndexOutput {
    /// Postings of a *surface* term (classified and prefix-stripped here).
    /// `None` when the term is absent or one of its parts does not decode.
    pub fn postings(&self, term: &str) -> Option<ii_postings::PostingsList> {
        let e = self.dictionary.lookup(term)?;
        self.run_sets.get(&e.indexer)?.fetch(e.postings).ok()
    }
}

/// Outcome of the sampling pre-pass: the balance plan plus the faults the
/// pass recovered from while reading its sample.
pub struct SamplePlan {
    /// Term → indexer balance plan.
    pub plan: BalancePlan,
    /// Wall seconds spent sampling and planning.
    pub seconds: f64,
    /// Transient read attempts that failed before a file sampled cleanly.
    pub retries: u32,
    /// Files that needed at least one retry and ultimately sampled.
    pub recovered_files: u32,
}

/// Run the sampling pass: parse the first documents of every n-th file and
/// build the balance plan.
///
/// Only those documents are read
/// ([`StoredCollection::read_file_prefix`]): the pass does not decompress
/// and parse every sampled file whole to look at two documents of it.
///
/// Faulty files obey the config's [`FaultPolicy`]: transient faults retry
/// with backoff; unrecoverable files abort under fail-fast or are simply
/// left out of the sample under skip-file (the streaming pass is the one
/// that quarantines and reports them, so each bad file appears exactly once
/// in the final [`FaultReport`]). A file whose damage lies past the sampled
/// prefix — its whole-file checksum is the streaming pass's to check — is
/// sampled like a sound one and reported by the streaming pass
/// ([`FaultStage::Parse`]), once, as before.
pub fn sample_plan(
    collection: &StoredCollection,
    cfg: &PipelineConfig,
) -> Result<SamplePlan, PipelineError> {
    let t0 = Instant::now();
    let policy = cfg.fault_policy;
    let html = collection.manifest.spec.html;
    let mut batches = Vec::new();
    let mut retries = 0u32;
    let mut recovered_files = 0u32;
    // One scratch for the whole pass: sampled files share buffers.
    let mut scratch = ParseScratch::new();
    let stride = cfg.sample_file_stride.max(1);
    let mut f = 0;
    while f < collection.num_files() {
        let mut attempts = 0u32;
        let docs = loop {
            // Containment also covers the sampling read: an injected (or
            // real) panic inside decode must not unwind out of the build.
            let read = || collection.read_file_prefix(f, cfg.sample_docs_per_file);
            let (class, error) = match catch_unwind(AssertUnwindSafe(read)) {
                Ok(Ok(docs)) => break Some(docs),
                Ok(Err(e)) if e.is_transient() && attempts < policy.max_retries => {
                    attempts += 1;
                    std::thread::sleep(policy.jittered_backoff(attempts, f as u64));
                    continue;
                }
                Ok(Err(e)) if e.is_transient() => (FaultClass::Transient, e.to_string()),
                Ok(Err(e)) => (FaultClass::Permanent, e.to_string()),
                Err(payload) => (FaultClass::Panic, panic_message(payload.as_ref())),
            };
            if policy.action == FaultAction::FailFast {
                return Err(PipelineError::File(FileFault {
                    file_idx: f,
                    class,
                    retries: attempts,
                    stage: FaultStage::Sampling,
                    error,
                }));
            }
            break None;
        };
        if let Some(docs) = docs {
            if attempts > 0 {
                retries += attempts;
                recovered_files += 1;
            }
            batches.push(parse_documents_into(&mut scratch, &docs, html, f));
        }
        f += stride;
    }
    let counts = sample_counts(&batches);
    let plan = make_plan(&counts, cfg.num_cpu_indexers, cfg.num_gpus, cfg.popular_count);
    Ok(SamplePlan { plan, seconds: t0.elapsed().as_secs_f64(), retries, recovered_files })
}

/// Durable-build options: where commits land, how often to checkpoint, and
/// whether to resume from the directory's committed checkpoint.
pub struct DurableOptions<'v> {
    /// Index directory every commit lands in.
    pub dir: PathBuf,
    /// Commit a build checkpoint every N flushed runs (0 = only the final
    /// index commit).
    pub checkpoint_every_runs: usize,
    /// Continue from a committed checkpoint in `dir` if one exists; a fresh
    /// directory starts a fresh build, a completed index is refused.
    pub resume: bool,
    /// Storage VFS — crash tests inject
    /// [`CrashVfs`](ii_store::CrashVfs) here.
    pub vfs: &'v dyn Vfs,
}

impl DurableOptions<'static> {
    /// Durable build into `dir` with the real filesystem, no periodic
    /// checkpoints, no resume.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            dir: dir.into(),
            checkpoint_every_runs: 0,
            resume: false,
            vfs: &RealVfs,
        }
    }
}

impl<'v> DurableOptions<'v> {
    /// Commit a checkpoint every `runs` flushed runs.
    pub fn checkpoint_every(mut self, runs: usize) -> Self {
        self.checkpoint_every_runs = runs;
        self
    }

    /// Resume from the directory's committed checkpoint.
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }

    /// Route storage operations through `vfs` (fault injection).
    pub fn with_vfs<'w>(self, vfs: &'w dyn Vfs) -> DurableOptions<'w> {
        DurableOptions {
            dir: self.dir,
            checkpoint_every_runs: self.checkpoint_every_runs,
            resume: self.resume,
            vfs,
        }
    }
}

/// Build the full inverted index for a stored collection.
///
/// Returns a typed [`PipelineError`] when a file fails unrecoverably under
/// [`FaultAction::FailFast`], or when an artifact write fails. A dead
/// parser is not an error: its claimed file is re-ingested inline. Under
/// [`FaultAction::SkipFile`] unrecoverable files are quarantined — their
/// place in file order is kept with an empty docID range so every
/// surviving document keeps the ID a clean build would assign it — and
/// listed in the report's [`FaultReport`].
pub fn build_index(
    collection: &Arc<StoredCollection>,
    cfg: &PipelineConfig,
) -> Result<IndexOutput, PipelineError> {
    build_inner(collection, cfg, None)
}

/// [`build_index`] with crash-safe persistence: every `checkpoint_every`
/// runs the index of the files consumed so far — sealed runs, doc map,
/// combined dictionary — and finally the whole index are committed to
/// `opts.dir` through the ii-store atomic-commit protocol.
/// With `opts.resume`, a build interrupted after a checkpoint continues
/// from it — skipping already-indexed container files — and produces a
/// byte-identical dictionary and postings to an uninterrupted build.
pub fn build_index_durable(
    collection: &Arc<StoredCollection>,
    cfg: &PipelineConfig,
    opts: &DurableOptions<'_>,
) -> Result<IndexOutput, PipelineError> {
    build_inner(collection, cfg, Some(opts))
}

/// Mid-build state recovered from a committed checkpoint.
struct ResumeState {
    parts: Vec<PartialDictionary>,
    run_sets: HashMap<u32, RunSet>,
    sealed: SealedRuns,
    doc_map: DocMap,
    /// The descriptor: where to continue and what the build had counted.
    ckpt: BuildCheckpoint,
    quarantined: Vec<FileFault>,
}

/// Load and validate the resumable state of `opts.dir`. `Ok(None)` means a
/// fresh directory (start from scratch); a completed index or a checkpoint
/// for a different collection/config is a typed refusal, and so is one an
/// older build wrote (there is no reader for its per-indexer shard files).
fn load_resume_state(
    collection: &StoredCollection,
    cfg: &PipelineConfig,
    opts: &DurableOptions<'_>,
) -> Result<Option<ResumeState>, PipelineError> {
    let store = match Store::open(&opts.dir) {
        Ok(s) => s,
        Err(StoreError::MissingManifest { .. }) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if store.manifest().kind == ManifestKind::Index {
        return Err(PipelineError::Resume(format!(
            "{} already holds a completed index",
            opts.dir.display()
        )));
    }
    let ckpt: BuildCheckpoint = serde_json::from_slice(&store.read(CHECKPOINT_ARTIFACT)?)
        .map_err(|e| PipelineError::Resume(format!("checkpoint descriptor unreadable: {e:?}")))?;
    let want_coll = collection_fingerprint(collection);
    if ckpt.collection != want_coll {
        return Err(StoreError::CheckpointMismatch {
            what: "collection".into(),
            expected: ckpt.collection,
            found: want_coll,
        }
        .into());
    }
    let want_cfg = config_fingerprint(cfg);
    if ckpt.config != want_cfg {
        return Err(StoreError::CheckpointMismatch {
            what: "config".into(),
            expected: ckpt.config,
            found: want_cfg,
        }
        .into());
    }
    if store.manifest().artifact(DICTIONARY_ARTIFACT).is_none() {
        return Err(PipelineError::Resume(format!(
            "the checkpoint in {} holds no {DICTIONARY_ARTIFACT}: an older build wrote it, \
             build again without --resume",
            opts.dir.display()
        )));
    }
    let Generation { dictionary, run_sets, doc_map, sealed } = read_generation(&store)?;
    // The checkpoint's dictionary is every indexer's handle assignment so
    // far; the shards continue it.
    let parts = dictionary.shards(cfg.num_cpu_indexers + cfg.num_gpus).map_err(|e| {
        StoreError::Corrupt { name: DICTIONARY_ARTIFACT.into(), detail: e.to_string() }
    })?;
    // A sealed run may only name handles its shard has issued: the next new
    // term gets the next handle.
    for (&indexer, set) in &run_sets {
        let issued = parts.get(indexer as usize).map_or(0, |p| p.term_count());
        let stray = |run: &&RunFile| run.entries.last().is_some_and(|e| e.handle >= issued);
        if let Some(run) = set.runs().iter().find(stray) {
            return Err(StoreError::Corrupt {
                name: run_artifact_name(indexer, run.run_id),
                detail: format!("a handle past the {issued} its indexer issued"),
            }
            .into());
        }
    }
    let mut quarantined = Vec::with_capacity(ckpt.quarantined.len());
    for q in &ckpt.quarantined {
        quarantined.push(q.to_fault().ok_or_else(|| {
            PipelineError::Resume(format!("unrecognized fault record '{}/{}'", q.class, q.stage))
        })?);
    }
    Ok(Some(ResumeState { parts, run_sets, sealed, doc_map, ckpt, quarantined }))
}

/// What every committed generation holds — a checkpoint's and a finished
/// index's alike — read back and validated.
pub struct Generation {
    /// The combined dictionary of the files the generation covers.
    pub dictionary: GlobalDictionary,
    /// The sealed runs by indexer, in run order, each set tracking which of
    /// its runs hold which handle.
    pub run_sets: HashMap<u32, RunSet>,
    /// The doc map (empty when a repair lost it).
    pub doc_map: DocMap,
    /// The manifest record of every run read: a later generation stages the
    /// run by it ([`stage_runs_and_docmap`]).
    pub sealed: SealedRuns,
}

/// Read a committed generation: `dictionary.bin`, `docmap.bin` and every
/// `run_III_RRRRR.iirf` the manifest names, each verified against its
/// manifest record by [`Store::read`] and then parsed. This is the one
/// routine that knows how the artifacts of a generation hang together, for
/// `Index::open` and for a resumed build: runs are pushed in run order per
/// indexer so postings concatenate in doc order (two names of one run are
/// `Corrupt`), each run's table is checked in the walk that marks which
/// handles it holds, and a run may only name handles the dictionary has
/// terms for.
pub fn read_generation(store: &Store) -> Result<Generation, StoreError> {
    let corrupt = |name: &str, detail: String| StoreError::Corrupt { name: name.into(), detail };
    let named = run_artifacts(store.manifest());
    // A run's walk needs the dictionary's term count, its reading and
    // checksum nothing: the run files are read beside the dictionary. What
    // fails is still reported in the order a sequential read meets it.
    let (dictionary, runs) = std::thread::scope(|scope| {
        let runs = scope.spawn(|| match &named {
            Ok(named) => named.iter().map(|&(_, _, record)| store.read(&record.name)).collect(),
            Err(_) => Vec::new(),
        });
        let dictionary = store.read(DICTIONARY_ARTIFACT).and_then(|bytes| {
            GlobalDictionary::from_bytes(&bytes)
                .map_err(|e| corrupt(DICTIONARY_ARTIFACT, e.to_string()))
        });
        (dictionary, runs.join().expect("reading a file does not panic"))
    });
    let dictionary = dictionary?;
    let doc_map = match store.manifest().artifact(DOCMAP_ARTIFACT) {
        Some(_) => DocMap::read_from(&mut store.read(DOCMAP_ARTIFACT)?.as_slice())
            .map_err(|e| corrupt(DOCMAP_ARTIFACT, e.to_string()))?,
        None => DocMap::new(),
    };
    let mut run_sets: HashMap<u32, RunSet> = HashMap::new();
    let mut sealed = SealedRuns::new();
    for ((indexer, run_id, record), bytes) in named?.into_iter().zip(runs) {
        let name = record.name.as_str();
        // Holders are marked in the walk that checks the run's table.
        let set = run_sets.entry(indexer).or_insert_with(|| {
            let mut set = RunSet::new();
            set.track_holders(dictionary.len());
            set
        });
        let run = set.push_bytes(bytes?).map_err(|e| corrupt(name, e.to_string()))?;
        if (run.indexer_id, run.run_id) != (indexer, run_id) {
            return Err(corrupt(
                name,
                format!("holds run {} of indexer {}", run.run_id, run.indexer_id),
            ));
        }
        // An indexer's handles are dense from 0 and each is a term, so
        // none reaches the term count. Checked here because the holders
        // column is sized by the dictionary, not by what a run claims.
        if let Some(last) = run.entries.last().filter(|e| e.handle as usize >= dictionary.len()) {
            return Err(corrupt(
                name,
                format!("handle {} in a dictionary of {} terms", last.handle, dictionary.len()),
            ));
        }
        // `read` just verified the bytes against this record, so the record
        // seals the run for every later generation.
        sealed.insert(record.name.clone(), record.clone());
    }
    Ok(Generation { dictionary, run_sets, doc_map, sealed })
}

/// The run artifacts `manifest` lists, as `(indexer, run, record)` in run
/// order per indexer. A name that merely looks like a run's, or two names
/// of one run, are `Corrupt`.
fn run_artifacts(manifest: &Manifest) -> Result<Vec<(u32, u32, &ArtifactMeta)>, StoreError> {
    let corrupt = |name: &str, detail: String| StoreError::Corrupt { name: name.into(), detail };
    let mut named: Vec<(u32, u32, &ArtifactMeta)> = Vec::new();
    for record in &manifest.artifacts {
        let name = record.name.as_str();
        match parse_run_artifact_name(name) {
            Some((indexer, run)) => named.push((indexer, run, record)),
            // A manifest entry that merely *looks* like a run file is
            // foreign data, not something to silently skip.
            None if name.starts_with("run_") && name.ends_with(".iirf") => {
                return Err(corrupt(name, "unrecognized run artifact name".into()));
            }
            None => {}
        }
    }
    named.sort_by_key(|&(indexer, run, _)| (indexer, run));
    // Two names of one run (`run_000_00001.iirf`, `run_0_1.iirf`) would
    // append it twice.
    if let Some(w) = named.windows(2).find(|w| (w[0].0, w[0].1) >= (w[1].0, w[1].1)) {
        let (indexer, run_id, record) = w[1];
        let detail = format!("run {run_id} of indexer {indexer} is also named {}", w[0].2.name);
        return Err(corrupt(&record.name, detail));
    }
    Ok(named)
}

/// Manifest-level postings metadata of a run file: the wire format
/// (`IIR3`, the one there is), list and block counts, and the block-max
/// bound. Committed alongside every run artifact so an index's shape is
/// readable from the manifest alone.
pub fn run_postings_meta(run: &RunFile) -> PostingsMeta {
    PostingsMeta {
        format: 3,
        lists: run.entries.len() as u64,
        blocks: run.block_count(),
        max_tf: run.max_tf(),
    }
}

/// The manifest record of every run already staged into the index
/// directory, by artifact name. A flushed run never changes, so its record
/// stands for its bytes in every later generation.
pub type SealedRuns = HashMap<String, ArtifactMeta>;

/// Stage every run into `txn`, then the doc map. A run is serialised and
/// hashed the first time it is staged; from then on its `sealed` record
/// stages it by reference ([`Txn::put_sealed`]), falling back to the bytes
/// only when the previous generation turns out not to hold it.
pub fn stage_runs_and_docmap(
    txn: &mut Txn<'_>,
    run_sets: &HashMap<u32, RunSet>,
    doc_map: &DocMap,
    sealed: &mut SealedRuns,
) -> Result<(), StoreError> {
    let mut indexers: Vec<u32> = run_sets.keys().copied().collect();
    indexers.sort_unstable();
    for indexer in indexers {
        for run in run_sets[&indexer].runs() {
            let name = run_artifact_name(indexer, run.run_id);
            if let Some(record) = sealed.get(&name) {
                if txn.put_sealed(record)? {
                    continue;
                }
            }
            let record =
                txn.put_with_meta(&name, &run.to_bytes(), Some(run_postings_meta(run)))?.clone();
            sealed.insert(name, record);
        }
    }
    let mut dm = Vec::new();
    doc_map.write_to(&mut dm).expect("vec write is infallible");
    txn.put(DOCMAP_ARTIFACT, &dm)?;
    Ok(())
}

/// The dictionary of everything indexed so far, combined from the pool's
/// shards — borrowed for a checkpoint ([`IndexerPool::shards`]), moved out
/// at the end ([`IndexerPool::finish`]) — and serialised: the "Dictionary
/// Combine" and "Dictionary Write" rows of Table VI, which a checkpointing
/// build pays once per commit. The shards are dropped once combined, so the
/// serialised bytes never share memory with them.
fn combine_and_write<P: Borrow<PartialDictionary>>(
    shards: Vec<P>,
    registry: &Registry,
    driver_sink: &TraceSink,
) -> (GlobalDictionary, Vec<u8>) {
    let (combine_stage, write_stage) = (registry.stage("dict_combine"), registry.stage("dict_write"));
    let dictionary = {
        let _span = combine_stage.span();
        let _tspan = driver_sink.span(TraceKind::DictCombine);
        GlobalDictionary::combine(&shards)
    };
    drop(shards);
    let mut dict_bytes = Vec::new();
    {
        let mut span = write_stage.span();
        let mut tspan = driver_sink.span(TraceKind::DictWrite);
        dictionary.write_to(&mut dict_bytes).expect("vec write is infallible");
        span.add_bytes(dict_bytes.len() as u64);
        tspan.add_bytes(dict_bytes.len() as u64);
    }
    (dictionary, dict_bytes)
}

/// What a started build holds on the consumer (driver) thread, with one
/// method per step of Fig 9; [`build_inner`] names the steps in order.
struct Build<'a> {
    collection: &'a Arc<StoredCollection>,
    cfg: &'a PipelineConfig,
    durable: Option<&'a DurableOptions<'a>>,
    t_total: Instant,
    tracer: Tracer,
    /// The driver's own timeline: sampling, parser waits, per-batch
    /// dispatch, flushes, checkpoints, and the dictionary endgame.
    driver_sink: TraceSink,
    /// Parsers acquire in-flight byte credits from it; the driver feeds it
    /// resident figures at batch boundaries and walks the degradation
    /// ladder.
    governor: MemoryGovernor,
    /// The indexer pool, until [`Self::combine`] frees it.
    pool: Option<IndexerPool>,
    run_sets: HashMap<u32, RunSet>,
    sealed: SealedRuns,
    doc_map: DocMap,
    /// The report being filled in; its `supervision` is the death ledger.
    report: PipelineReport,
    /// One registry per build: concurrent builds never interleave metrics.
    registry: Arc<Registry>,
    index_stage: Arc<Stage>,
    post_stage: Arc<Stage>,
    files_done_gauge: Arc<Gauge>,
    /// The parsed files waiting for their turn: last depth in the
    /// registry, time series in the trace.
    queue_gauge: (Arc<Gauge>, GaugeSeries),
    /// With tracing on, the process's resident set and its high-water mark
    /// in kB, per message and after the combine: all the memory there is,
    /// beside the part the governor counts.
    memory_series: Option<[GaugeSeries; 2]>,
    /// Each worker's heartbeat and `worker.*.idle_ms` gauge: parsers, CPU
    /// executors, GPUs.
    beats: Vec<(Arc<Gauge>, Arc<Heartbeat>)>,
    /// The governor's effective budget, resident pools (dictionary,
    /// postings, device) and high-water, published per batch.
    governor_gauges: [Arc<Gauge>; 5],
    /// Cuts the bundles; it keeps the flight recorder sampling the registry.
    postmortem: PostmortemWriter,
    /// The live OpenMetrics endpoint (`ii build --metrics-addr`).
    _metrics: Option<MetricsServer>,
    /// Container files consumed: the resume point until the first message.
    files_done: usize,
    batches_in_run: usize,
    runs_since_checkpoint: usize,
    /// Deaths already bundled: a bundle is cut the batch a death happens,
    /// not at end of build, so the ring still holds the samples around it.
    deaths_bundled: usize,
}

impl Drop for Build<'_> {
    /// Close the credit gate on every exit path — typed errors included —
    /// so no parser stays parked on a gate nobody will ever drain.
    fn drop(&mut self) {
        self.governor.close();
    }
}

/// Only [`Build::combine`] takes the pool, and every other step runs before
/// it, so a step that finds it gone is a bug in [`build_inner`]'s order.
const LIVE: &str = "the indexer pool lives until the combine";

impl<'a> Build<'a> {
    /// Start: resume from the directory's checkpoint if asked, sample the
    /// collection for the balance plan, and stand up the indexer pool with
    /// its heartbeats and the build's registry and telemetry. An error here
    /// cuts no bundle.
    fn start(
        collection: &'a Arc<StoredCollection>,
        cfg: &'a PipelineConfig,
        durable: Option<&'a DurableOptions<'a>>,
    ) -> Result<Build<'a>, PipelineError> {
        let t_total = Instant::now();
        let tracer = Tracer::from_config(&cfg.trace);
        let driver_sink = tracer.sink("driver");
        let resumed = match durable {
            Some(opts) if opts.resume => load_resume_state(collection, cfg, opts)?,
            _ => None,
        };
        let sampled = {
            let _span = driver_sink.span(TraceKind::Sample);
            sample_plan(collection, cfg)?
        };
        let mut report = PipelineReport {
            sampling_seconds: sampled.seconds,
            uncompressed_bytes: collection.manifest.stats.uncompressed_bytes,
            ..Default::default()
        };
        report.faults.retries = sampled.retries;
        report.faults.recovered_files = sampled.recovered_files;
        let (mut pool, run_sets, sealed, doc_map, files_done, quarantined) = match resumed {
            Some(rs) => {
                report.faults.retries += rs.ckpt.retries;
                report.faults.recovered_files += rs.ckpt.recovered_files;
                let pool = IndexerPool::restore(
                    sampled.plan,
                    cfg.gpu_config,
                    cfg.codec,
                    rs.parts,
                    rs.ckpt.next_doc,
                    rs.ckpt.docs_indexed,
                    rs.ckpt.runs_flushed,
                )
                .map_err(PipelineError::Resume)?;
                let files_done = rs.ckpt.files_done as usize;
                (pool, rs.run_sets, rs.sealed, rs.doc_map, files_done, rs.quarantined)
            }
            None => {
                let pool = IndexerPool::new(sampled.plan, cfg.gpu_config, cfg.codec);
                (pool, HashMap::new(), SealedRuns::new(), DocMap::new(), 0, Vec::new())
            }
        };
        // Register cpu-N / gpu-N timelines so indexer slices appear as their
        // own workers in the trace even though they execute on this thread.
        pool.attach_tracer(&tracer);

        let registry = Arc::new(Registry::new());
        // One heartbeat per worker, bumped by that worker's trace spans
        // (liveness without new instrumentation), published as its idle
        // age for the live exposition (`ii top`) and the flight recorder.
        let parsers = cfg.num_parsers;
        let cpus = cfg.num_cpu_indexers;
        let beats: Vec<_> = (0..parsers)
            .map(|p| format!("parser-{p}"))
            .chain((0..cpus).map(|i| format!("cpu-{i}")))
            .chain((0..cfg.num_gpus).map(|g| format!("gpu-{g}")))
            .map(|w| (registry.gauge(&format!("worker.{w}.idle_ms")), Arc::new(Heartbeat::new())))
            .collect();
        let heartbeats = |workers: std::ops::Range<usize>| -> Vec<Arc<Heartbeat>> {
            beats[workers].iter().map(|(_, hb)| Arc::clone(hb)).collect()
        };
        let gpus = parsers + cpus..beats.len();
        pool.attach_heartbeats(&heartbeats(parsers..parsers + cpus), &heartbeats(gpus));
        let metrics = match cfg.telemetry.metrics_addr.as_deref() {
            Some(addr) => Some(MetricsServer::serve(addr, Arc::clone(&registry))?),
            None => None,
        };
        // Post-mortem bundles land in `postmortem/` next to the index (or
        // wherever the config points); in-memory builds with no explicit dir
        // write none.
        let default_dir = durable.map(|o| o.dir.join(POSTMORTEM_DIR));
        let dir = cfg.telemetry.postmortem_dir.clone().or(default_dir);
        let recorder = FlightRecorder::new(Arc::clone(&registry));
        let postmortem = PostmortemWriter::new(dir, recorder, tracer.clone());
        registry.gauge("pipeline.files_total").set(collection.num_files() as i64);
        registry.gauge("governor.budget_bytes").set(cfg.governor.budget_bytes as i64);
        let mut build = Build {
            collection,
            cfg,
            durable,
            t_total,
            tracer: tracer.clone(),
            driver_sink,
            governor: MemoryGovernor::new(cfg.governor),
            pool: Some(pool),
            run_sets,
            sealed,
            doc_map,
            report,
            index_stage: registry.stage("index"),
            post_stage: registry.stage("post_process"),
            files_done_gauge: registry.gauge("pipeline.files_done"),
            queue_gauge: (registry.gauge("queue.parsed.depth"), tracer.gauge("queue.parsed")),
            memory_series: tracer
                .is_enabled()
                .then(|| [tracer.gauge("process.rss_kb"), tracer.gauge("process.hwm_kb")]),
            beats,
            governor_gauges: [
                "governor.effective_budget_bytes",
                "governor.dict_bytes",
                "governor.postings_bytes",
                "governor.device_bytes",
                "governor.high_water_bytes",
            ]
            .map(|name| registry.gauge(name)),
            registry,
            postmortem,
            _metrics: metrics,
            files_done,
            batches_in_run: 0,
            runs_since_checkpoint: 0,
            deaths_bundled: 0,
        };
        build.files_done_gauge.set(files_done as i64);
        for fault in quarantined {
            build.count_quarantined(fault);
        }
        Ok(build)
    }

    /// Parse: spawn the parser threads over the files not yet consumed. The
    /// pool yields every file in file order, watches the claimer of the
    /// file it waits for, and ingests a dead claimer's file inline.
    fn spawn_parsers(&self) -> ParserPool {
        let cfg = self.cfg;
        let heartbeats = self.beats[..cfg.num_parsers].iter().map(|(_, hb)| Arc::clone(hb));
        let options = SpawnOptions {
            start_file: self.files_done,
            tracer: self.tracer.clone(),
            heartbeats: heartbeats.collect(),
            worker_faults: cfg.worker_faults.clone(),
            governor: self.governor.clone(),
            supervision: cfg.supervision,
        };
        ParserPool::spawn(
            Arc::clone(self.collection),
            cfg.num_parsers,
            cfg.buffer_depth,
            cfg.fault_policy,
            ParserObs::from_registry(&self.registry),
            options,
        )
            .with_queue_wait(Arc::clone(&self.index_stage))
            .with_trace(self.driver_sink.clone())
    }

    /// Per message, first: publish progress, queue depths and heartbeat
    /// ages, then give the flight recorder its throttled chance to sample
    /// them.
    fn observe(&mut self, msg: &ParsedFile, queued: usize) {
        self.files_done = msg.file_idx() + 1;
        self.files_done_gauge.set(self.files_done as i64);
        let (gauge, series) = &self.queue_gauge;
        gauge.set(queued as i64);
        series.sample(queued as i64);
        for (gauge, hb) in &self.beats {
            gauge.set(hb.idle().as_millis() as i64);
        }
        self.sample_memory();
        self.postmortem.recorder().maybe_sample();
    }

    /// Sample `VmRSS` and `VmHWM` from `/proc/self/status` into the trace
    /// (nothing without tracing, or without that file).
    fn sample_memory(&self) {
        let Some(series) = &self.memory_series else { return };
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return };
        for (series, field) in series.iter().zip(["VmRSS:", "VmHWM:"]) {
            let kb = status.lines().find_map(|l| l.strip_prefix(field)?.split_whitespace().next());
            if let Some(kb) = kb.and_then(|kb| kb.parse().ok()) {
                series.sample(kb);
            }
        }
    }

    /// Per message, then: quarantine the file a fault stands for (or, under
    /// fail-fast, refuse it), or index its batch and walk the after-batch
    /// steps.
    fn consume(&mut self, msg: ParsedFile) -> Result<(), PipelineError> {
        let batch = match msg.result {
            Ok(batch) => batch,
            Err(fault) if self.cfg.fault_policy.action == FaultAction::FailFast => {
                return Err(PipelineError::File(fault));
            }
            Err(fault) => {
                self.quarantine(fault);
                return Ok(());
            }
        };
        if msg.retries > 0 {
            self.report.faults.retries += msg.retries;
            self.report.faults.recovered_files += 1;
        }
        self.index(&batch, msg.queue_wait_seconds);
        // The batch is consumed: its memory goes, and its credit to whoever
        // acquired it — the parser that sent it or, for a file the consumer
        // ingested while it waited, the consumer's ledger.
        drop(batch);
        self.governor.release(msg.parser, msg.credit);
        self.after_batch()
    }

    /// Quarantine a file: its slot in the doc map stays as an empty entry
    /// that still reserves the file's doc-ID range, so every surviving
    /// document gets the global ID a clean build would assign. Synthetic
    /// collections hold exactly `docs_per_file` documents per container.
    fn quarantine(&mut self, fault: FileFault) {
        let reserved = self.collection.manifest.spec.docs_per_file as u32;
        self.doc_map.push_quarantined(fault.file_idx as u32, reserved);
        self.pool.as_mut().expect(LIVE).skip_docs(reserved);
        let detail = fault.to_string();
        self.count_quarantined(fault);
        self.bundle("quarantine", detail);
    }

    /// A quarantined file's place in the report — quarantined now, or by
    /// the checkpoint a build resumes from: its bytes leave the throughput
    /// denominator, and its fault joins the fault report.
    fn count_quarantined(&mut self, fault: FileFault) {
        let bytes = self.file_bytes(fault.file_idx);
        self.report.uncompressed_bytes = self.report.uncompressed_bytes.saturating_sub(bytes);
        let faults = &mut self.report.faults;
        if fault.class == FaultClass::Panic {
            faults.parser_panics += 1;
        }
        faults.quarantined.push(fault);
    }

    fn file_bytes(&self, file_idx: usize) -> u64 {
        self.collection.manifest.file_uncompressed_bytes.get(file_idx).copied().unwrap_or(0)
    }

    /// Index one batch on the pool — after the chaos schedule's indexer
    /// faults for this batch fired — then add the file's Fig 11 row and
    /// record whom its panics killed.
    fn index(&mut self, batch: &ParsedBatch, queue_wait_seconds: f64) {
        self.doc_map.push_file(batch.file_idx as u32, batch.num_docs);
        let file_bytes = self.file_bytes(batch.file_idx);
        if !self.cfg.worker_faults.is_empty() {
            self.inject_faults();
        }
        let t0 = Instant::now();
        let timing = {
            let mut span = self.index_stage.span();
            span.add_bytes(file_bytes);
            let mut tspan = self.driver_sink.span(TraceKind::Index);
            tspan.set_batch(batch.file_idx as u32);
            tspan.add_bytes(file_bytes);
            self.pool.as_mut().expect(LIVE).index_batch(batch)
        };
        // The file's indexing wall ends where the pool returns, as the span's
        // does: the death bookkeeping and any bundle it writes are not in it.
        let wall = t0.elapsed().as_secs_f64();
        let modeled = timing.stage_seconds();
        self.report.pre_processing_seconds +=
            timing.gpu.iter().map(|g| g.transfer_seconds).sum::<f64>();
        self.report.indexing_seconds += modeled;
        self.report.supervision.fallback_seconds += timing.fallback_seconds;
        self.report.per_file.push(FileTiming {
            file_idx: batch.file_idx,
            uncompressed_bytes: file_bytes,
            wall_seconds: wall,
            modeled_seconds: modeled,
            queue_wait_seconds,
            tokens: batch.stats.terms_kept,
        });
        self.record_deaths(&timing);
    }

    /// Fire the indexer kills, stalls and budget squeezes scheduled for this
    /// batch, at the batch boundary — a clean point where every shard's
    /// state is whole. A kill marks the executor dead and reassigns its
    /// shards to the lightest survivors; a stall sleeps on the spot
    /// (indexer executors run on the driver thread) and is a death only
    /// when the silence would exceed the watchdog timeout; a squeeze only
    /// ever shrinks the effective budget, so the ladder reacts on this very
    /// batch.
    fn inject_faults(&mut self) {
        let cfg = self.cfg;
        let ordinal = self.report.per_file.len();
        for (class, count) in [
            (WorkerClass::CpuIndexer, cfg.num_cpu_indexers),
            (WorkerClass::GpuIndexer, cfg.num_gpus),
        ] {
            for idx in 0..count {
                let cause = match cfg.worker_faults.fault_at(class, idx, ordinal) {
                    None => continue,
                    Some(WorkerFaultKind::Kill) => DeathCause::Injected,
                    Some(WorkerFaultKind::Stall(d)) if d < cfg.supervision.stall_timeout => {
                        // A hiccup the watchdog tolerates: the executor
                        // pauses and resumes; nothing is reassigned.
                        std::thread::sleep(d);
                        continue;
                    }
                    Some(WorkerFaultKind::Stall(d)) => DeathCause::Stall(d),
                };
                let pool = self.pool.as_mut().expect(LIVE);
                let takeovers = match class {
                    WorkerClass::CpuIndexer => pool.kill_cpu(idx),
                    WorkerClass::GpuIndexer => pool.kill_gpu(idx),
                    WorkerClass::Parser => unreachable!("parser faults fire in the parser threads"),
                };
                self.declare_dead(WorkerDeath { class, index: idx, cause }, &takeovers);
            }
        }
        if let Some(bytes) = cfg.worker_faults.squeeze_at(ordinal) {
            self.governor.squeeze_to(bytes);
        }
    }

    /// Record a batch's panics and the executors the pool says they killed.
    /// A genuine mid-batch panic is contained and the shard reassigned, but
    /// the shard's partial work for this batch has unknown extent: each
    /// panic is a lossy incident (the build completes without the
    /// byte-identity guarantee), and each death carries its own panic. Any
    /// death new this batch — an injected kill too — cuts a bundle now,
    /// while the flight-recorder ring still holds the samples around it.
    fn record_deaths(&mut self, timing: &BatchTiming) {
        for (shard, msg) in &timing.panics {
            let incident = format!("shard {shard} panicked mid-batch: {msg}");
            self.report.supervision.lossy_incidents.push(incident);
        }
        for death in &timing.deaths {
            let (class, index) = match death.executor {
                Executor::Cpu(i) => (WorkerClass::CpuIndexer, i),
                Executor::Gpu(g) => (WorkerClass::GpuIndexer, g),
            };
            let cause = DeathCause::Panic(death.panic.clone());
            self.declare_dead(WorkerDeath { class, index, cause }, &death.takeovers);
        }
        self.bundle_deaths();
    }

    /// Enter a worker's death, and the shards that moved off it, in the
    /// supervision ledger. The first declaration of a death wins.
    fn declare_dead(&mut self, death: WorkerDeath, takeovers: &[Takeover]) {
        let ledger = &mut self.report.supervision;
        if ledger.deaths.iter().any(|d| (d.class, d.index) == (death.class, death.index)) {
            return;
        }
        ledger.deaths.push(death);
        ledger.reassignments += takeovers.len() as u32;
        ledger.gpu_takeovers += takeovers.iter().filter(|t| t.gpu_takeover).count() as u32;
    }

    /// Cut one `worker-death` bundle for the deaths not bundled yet.
    fn bundle_deaths(&mut self) {
        let new = &self.report.supervision.deaths[self.deaths_bundled..];
        if new.is_empty() {
            return;
        }
        let detail = new.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("; ");
        self.deaths_bundled = self.report.supervision.deaths.len();
        self.bundle("worker-death", detail);
    }

    /// Cut a post-mortem bundle: `trigger`'s `detail`, the batches indexed
    /// so far (each has its Fig 11 row), and the supervision ledger and
    /// quarantined files as they stand.
    fn bundle(&mut self, trigger: &str, detail: String) {
        let r = &self.report;
        let batches = r.per_file.len();
        self.postmortem.write(trigger, detail, batches, &r.supervision, &r.faults.quarantined);
    }

    /// After a batch: feed the governor the deterministic resident figures
    /// and walk the degradation ladder. Rung 1 (backpressure) lives in the
    /// parsers' credit gate; rungs 2-4 fire here, keyed only on
    /// content-derived byte counts so the same budget schedule degrades
    /// identically on every run.
    fn after_batch(&mut self) -> Result<(), PipelineError> {
        self.batches_in_run += 1;
        self.note_resident();
        let resident = self.governor.resident();
        let [budget, dict, postings, device, high_water] = &self.governor_gauges;
        budget.set(self.governor.effective_budget() as i64);
        dict.set(resident.dict as i64);
        postings.set(resident.postings as i64);
        device.set(resident.device as i64);
        high_water.set(self.governor.high_water() as i64);
        // Rung 2: flush the run early when pending postings push the pools
        // past the watermark (the paper's flush-when-full rule). Run
        // boundaries move; the merged postings do not.
        let early =
            self.batches_in_run < self.cfg.batches_per_run && self.governor.should_flush_early();
        if early {
            self.governor.record_early_flush();
        }
        if early || self.batches_in_run >= self.cfg.batches_per_run {
            self.flush();
            self.checkpoint()?;
            self.note_resident();
        }
        // Rung 3: park GPU shards onto the CPU salvage path, heaviest
        // sampled load first. A shed is deliberate degradation, not a worker
        // death — it lands in `governor.gpu_sheds`, never in the ledger.
        while self.governor.should_shed() {
            let Some(_) = self.pool.as_mut().expect(LIVE).shed_gpu() else { break };
            self.governor.record_shed();
            self.note_resident();
        }
        // Rung 4: even with postings flushed and every GPU shed, the
        // dictionaries alone no longer fit — a typed refusal beats an OOM
        // kill.
        match self.governor.budget_exceeded() {
            Some((budget, needed)) => Err(PipelineError::MemoryBudgetExceeded { budget, needed }),
            None => Ok(()),
        }
    }

    /// The pool's resident bytes — dictionary arenas, pending postings, live
    /// GPU device state — to the governor.
    fn note_resident(&self) {
        let (dict, postings, device) = self.pool.as_ref().expect(LIVE).resident_bytes();
        self.governor.note_resident(PoolBytes { dict, postings, device });
    }

    /// Flush the run: every shard's pending postings become its next run.
    fn flush(&mut self) {
        let mut span = self.post_stage.span();
        let _tspan = self.driver_sink.span(TraceKind::Flush);
        for run in self.pool.as_mut().expect(LIVE).flush_run() {
            span.add_bytes(run.payload.len() as u64);
            self.run_sets.entry(run.indexer_id).or_default().push(run);
        }
        self.batches_in_run = 0;
        self.runs_since_checkpoint += 1;
    }

    /// Commit a checkpoint — the index of the files consumed so far plus
    /// `checkpoint.json` — every `checkpoint_every_runs` runs. None once
    /// the last container file is in: the final commit would supersede it
    /// before anyone could resume from it.
    fn checkpoint(&mut self) -> Result<(), PipelineError> {
        let Some(opts) = self.durable else { return Ok(()) };
        let every = opts.checkpoint_every_runs;
        if every == 0
            || self.runs_since_checkpoint < every
            || self.files_done >= self.collection.num_files()
        {
            return Ok(());
        }
        let pool = self.pool.as_mut().expect(LIVE);
        let (_, dict_bytes) = combine_and_write(pool.shards(), &self.registry, &self.driver_sink);
        let faults = &self.report.faults;
        let ckpt = BuildCheckpoint {
            files_done: self.files_done as u64,
            next_doc: pool.next_doc(),
            docs_indexed: pool.docs_indexed(),
            runs_flushed: pool.runs_flushed(),
            collection: collection_fingerprint(self.collection),
            config: config_fingerprint(self.cfg),
            retries: faults.retries,
            recovered_files: faults.recovered_files,
            quarantined: faults.quarantined.iter().map(QuarantinedFile::from_fault).collect(),
        };
        let sink = self.driver_sink.clone();
        let _span = sink.span(TraceKind::Checkpoint);
        self.commit(&dict_bytes, Some(&ckpt))?;
        self.runs_since_checkpoint = 0;
        Ok(())
    }

    /// End of streaming: flush the last partial run, fold in the parser
    /// deaths the consumer declared — they surface only now, and are
    /// bundled now — and the files it re-ingested inline, and let the
    /// parser threads go.
    fn end_streaming(&mut self, parsing: ParserPool) {
        if self.batches_in_run > 0 {
            self.flush();
        }
        for death in parsing.deaths() {
            self.declare_dead(death.clone(), &[]);
        }
        self.report.supervision.inline_parsed_files += parsing.inline_parsed_files();
        self.registry.counter("pipeline.helped_files").add(u64::from(parsing.helped_files()));
        self.bundle_deaths();
        parsing.join();
    }

    /// Finish, first: the report's workload figures, and each component's
    /// native tallies as registry counters, before the combine frees the
    /// pool.
    fn export(&mut self) {
        let pool = self.pool.as_ref().expect(LIVE);
        self.report.docs = pool.docs_indexed();
        (self.report.cpu_stats, self.report.gpu_stats) = pool.workload_split();
        let r = &self.registry;
        r.counter("pipeline.docs").add(pool.docs_indexed() as u64);
        r.counter("pipeline.retries").add(self.report.faults.retries as u64);
        r.counter("pipeline.files.quarantined").add(self.report.faults.quarantined.len() as u64);
        // Shards salvaged off dead GPUs continue on the CPU dictionary path;
        // their tallies belong in the same counters.
        for shard in pool.cpus.iter().chain(pool.adopted_shards()) {
            let store = &shard.dict.store;
            r.counter("dict.cache_hits").add(store.cache_hits);
            r.counter("dict.cache_misses").add(store.cache_misses);
            r.counter("dict.node_splits").add(store.node_splits);
            r.counter("dict.head_tie_breaks").add(store.head_tie_breaks);
        }
        for g in &pool.gpus {
            let m = &g.kernel_metrics;
            r.counter("gpu.warp_comparisons").add(m.warp_comparisons);
            r.counter("gpu.global_transactions").add(m.global_transactions);
            r.counter("gpu.global_bytes").add(m.global_bytes);
            r.counter("gpu.shared_accesses").add(m.shared_accesses);
            r.counter("gpu.bank_conflict_cycles").add(m.bank_conflict_cycles);
            r.counter("gpu.instructions").add(m.instructions);
            r.counter("gpu.divergent_branches").add(m.divergent_branches);
            let t = g.transfer_metrics();
            r.counter("gpu.h2d_bytes").add(t.h2d_bytes);
            r.counter("gpu.d2h_bytes").add(t.d2h_bytes);
        }
    }

    /// Finish, then: combine and write the dictionary. `finish` frees the
    /// pool — posting logs, simulated devices — first, and the shards go
    /// before the dictionary is serialised.
    fn combine(&mut self) -> (GlobalDictionary, Vec<u8>) {
        let shards = self.pool.take().expect(LIVE).finish();
        let (dictionary, dict_bytes) =
            combine_and_write(shards, &self.registry, &self.driver_sink);
        self.registry.counter("pipeline.terms").add(dictionary.len() as u64);
        self.sample_memory();
        (dictionary, dict_bytes)
    }

    /// Commit one generation of the index directory (nothing for an
    /// in-memory build): the sealed runs and the doc map, `dictionary.bin`,
    /// and — while container files remain — the `checkpoint.json` that
    /// makes it a resumable [`ManifestKind::Checkpoint`]; without one it is
    /// the finished [`ManifestKind::Index`], and the commit's garbage
    /// collection removes the descriptor the index no longer references. A
    /// retriable storage failure (disk full) retries the whole transaction
    /// — each attempt rebuilds it from scratch, the commit protocol is
    /// all-or-nothing — with jittered backoff, counted in `commit_retries`;
    /// anything else is the typed error.
    fn commit(
        &mut self,
        dict_bytes: &[u8],
        checkpoint: Option<&BuildCheckpoint>,
    ) -> Result<(), StoreError> {
        let Some(opts) = self.durable else { return Ok(()) };
        let policy = self.cfg.fault_policy;
        let mut attempt = 0u32;
        loop {
            let committed = (|| -> Result<(), StoreError> {
                let mut txn =
                    Txn::begin(&opts.dir, opts.vfs)?.with_registry(Arc::clone(&self.registry));
                stage_runs_and_docmap(&mut txn, &self.run_sets, &self.doc_map, &mut self.sealed)?;
                txn.put(DICTIONARY_ARTIFACT, dict_bytes)?;
                if let Some(ckpt) = checkpoint {
                    let bytes = serde_json::to_vec_pretty(ckpt)
                        .expect("checkpoint serialization is infallible");
                    txn.put(CHECKPOINT_ARTIFACT, &bytes)?;
                }
                txn.commit(match checkpoint {
                    Some(_) => ManifestKind::Checkpoint,
                    None => ManifestKind::Index,
                })?;
                Ok(())
            })();
            match committed {
                Err(e) if e.is_retriable() && attempt < policy.max_retries => {
                    attempt += 1;
                    self.report.supervision.commit_retries += 1;
                    std::thread::sleep(policy.jittered_backoff(attempt, 0xD15C_F0FF));
                }
                done => return done,
            }
        }
    }

    /// Finish, last: the supervision and governor ledgers as registry
    /// counters (surfaced by `ii build --stats` and the JSON snapshot), and
    /// the report with the registry's final snapshot.
    fn output(mut self, dictionary: GlobalDictionary, dict_bytes: Vec<u8>) -> IndexOutput {
        let r = &self.registry;
        let sup = &self.report.supervision;
        r.counter("supervisor.worker_deaths").add(sup.deaths.len() as u64);
        r.counter("supervisor.reassignments").add(u64::from(sup.reassignments));
        r.counter("supervisor.gpu_takeovers").add(u64::from(sup.gpu_takeovers));
        r.counter("supervisor.inline_parsed_files").add(u64::from(sup.inline_parsed_files));
        r.counter("supervisor.commit_retries").add(u64::from(sup.commit_retries));
        r.counter("supervisor.lossy_incidents").add(sup.lossy_incidents.len() as u64);
        if !self.postmortem.paths().is_empty() {
            r.counter("postmortem.bundles").add(self.postmortem.paths().len() as u64);
        }
        // Budget, per-pool resident gauges, high-water, credit-gate waits,
        // and each rung's trigger count.
        self.governor.export(r);
        self.report.total_seconds = self.t_total.elapsed().as_secs_f64();
        self.report.stages = self.registry.snapshot();
        self.report.trace = self.tracer.finish();
        self.report.postmortem_bundles = self.postmortem.paths().to_vec();
        IndexOutput {
            dictionary,
            run_sets: take(&mut self.run_sets),
            dict_bytes,
            doc_map: take(&mut self.doc_map),
            report: take(&mut self.report),
        }
    }

    /// The one error exit of a started build: a file fault under fail-fast,
    /// the memory budget, or a failed commit — a checkpoint's or the final
    /// one — cuts its bundle here.
    fn fail(&mut self, e: PipelineError) -> PipelineError {
        let (trigger, detail) = match &e {
            PipelineError::File(fault) => ("file-fault", fault.to_string()),
            PipelineError::MemoryBudgetExceeded { budget, needed } => (
                "memory-budget",
                format!("budget {budget} B, resident needs {needed} B after full degradation"),
            ),
            PipelineError::Store(err) => ("commit-failure", err.to_string()),
            // Raised only while starting, before there is a build to bundle.
            PipelineError::Io(_) | PipelineError::Resume(_) => return e,
        };
        self.bundle(trigger, detail);
        e
    }
}

/// The pipelined build of Fig 9, one step at a time: start (resume,
/// sample, pool), then per message observe and consume it (quarantine the
/// file or index the batch; after a batch flush, checkpoint and walk the
/// governor's rungs), then finish (export, combine, commit).
fn build_inner(
    collection: &Arc<StoredCollection>,
    cfg: &PipelineConfig,
    durable: Option<&DurableOptions<'_>>,
) -> Result<IndexOutput, PipelineError> {
    let mut build = Build::start(collection, cfg, durable)?;
    let mut parsing = build.spawn_parsers();
    let built = (|| -> Result<_, PipelineError> {
        while let Some(msg) = parsing.next() {
            build.observe(&msg, parsing.queued());
            build.consume(msg)?;
        }
        build.end_streaming(parsing);
        build.export();
        let (dictionary, dict_bytes) = build.combine();
        build.commit(&dict_bytes, None)?;
        Ok((dictionary, dict_bytes))
    })();
    match built {
        Ok((dictionary, dict_bytes)) => Ok(build.output(dictionary, dict_bytes)),
        Err(e) => Err(build.fail(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_corpus::{CollectionSpec, FaultKind, FaultPlan};
    use ii_indexer::{ExecutorDeath, Host};
    use ii_store::{CrashMode, CrashVfs};
    use std::path::{Path, PathBuf};

    fn stored(tag: &str, spec: CollectionSpec) -> (Arc<StoredCollection>, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("ii-driver-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = StoredCollection::generate(spec, &dir).unwrap();
        (Arc::new(s), dir)
    }

    fn reopen_with(dir: &Path, plan: FaultPlan) -> Arc<StoredCollection> {
        Arc::new(StoredCollection::open(dir).unwrap().with_faults(plan))
    }

    #[test]
    fn builds_a_queryable_index() {
        let mut spec = CollectionSpec::tiny(41);
        spec.num_files = 4;
        spec.docs_per_file = 12;
        let (coll, dir) = stored("query", spec);
        let out = build_index(&coll, &PipelineConfig::small(2, 1, 1)).expect("build");
        assert!(out.dictionary.len() > 50, "dictionary too small: {}", out.dictionary.len());
        assert_eq!(out.report.docs, 48);
        assert!(out.report.faults.is_clean());
        // The head stop words must NOT be in the dictionary.
        assert!(out.dictionary.lookup("the").is_none());
        // A frequent vocabulary word should be present and have postings in
        // many documents.
        let e = out
            .dictionary
            .entries()
            .max_by_key(|e| {
                out.run_sets[&e.indexer].fetch(e.postings).unwrap().len()
            })
            .unwrap();
        let l = out.run_sets[&e.indexer].fetch(e.postings).unwrap();
        assert!(l.len() > 10, "head term should hit many docs");
        // Doc ids strictly increasing (global sort invariant).
        let docs: Vec<u32> = l.postings().iter().map(|p| p.doc.0).collect();
        assert!(docs.windows(2).all(|w| w[0] < w[1]));
        assert!(docs.iter().all(|&d| d < 48));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn output_identical_across_configurations() {
        // The pipeline must be deterministic and configuration-independent:
        // same dictionary + postings for any parser/indexer mix.
        let mut spec = CollectionSpec::tiny(42);
        spec.num_files = 3;
        spec.docs_per_file = 10;
        let (coll, dir) = stored("configs", spec);
        let mut fingerprints = Vec::new();
        for (p, c, g) in [(1, 1, 0), (3, 2, 0), (2, 1, 1), (1, 0, 2)] {
            let out = build_index(&coll, &PipelineConfig::small(p, c, g)).expect("build");
            let mut fp: Vec<(String, Vec<(u32, u32)>)> = out
                .dictionary
                .entries()
                .map(|e| {
                    let l = out.run_sets[&e.indexer].fetch(e.postings).unwrap();
                    (
                        e.full_term(),
                        l.postings().iter().map(|p| (p.doc.0, p.tf)).collect(),
                    )
                })
                .collect();
            fp.sort();
            fingerprints.push(fp);
        }
        for fp in &fingerprints[1..] {
            assert_eq!(fp, &fingerprints[0]);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn report_fields_populated() {
        let (coll, dir) = stored("report", CollectionSpec::tiny(43));
        let out = build_index(&coll, &PipelineConfig::small(2, 1, 1)).expect("build");
        let r = &out.report;
        assert!(r.total_seconds > 0.0);
        assert!(r.parser_busy_seconds() > 0.0);
        assert!(r.indexing_seconds > 0.0);
        assert!(r.pre_processing_seconds > 0.0, "GPU transfers modeled");
        assert_eq!(r.per_file.len(), coll.num_files());
        assert!(r.throughput_mb_s() > 0.0);
        assert!(r.cpu_stats.tokens + r.gpu_stats.tokens > 0);
        assert!(!out.dict_bytes.is_empty());
        assert!(r.faults.is_clean());
        assert_eq!(r.faults.summary(), "no faults");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn postings_lookup_convenience() {
        let mut spec = CollectionSpec::tiny(44);
        spec.docs_per_file = 20;
        let (coll, dir) = stored("lookup", spec);
        let out = build_index(&coll, &PipelineConfig::small(1, 1, 0)).expect("build");
        // "zebra"-like content words exist in the tiny vocab; use the
        // dictionary itself to pick one and cross-check the helper.
        let e = out.dictionary.entries().next().unwrap();
        let term = e.full_term();
        let via_helper = out.postings(&term).unwrap();
        let direct = out.run_sets[&e.indexer].fetch(e.postings).unwrap();
        assert_eq!(via_helper, direct);
        assert!(out.postings("no-such-term-xyzzy").is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn quarantine_preserves_doc_ids_and_reports() {
        let mut spec = CollectionSpec::tiny(45);
        spec.num_files = 6;
        spec.docs_per_file = 10;
        let (_, dir) = stored("quarantine", spec);
        let coll = reopen_with(&dir, FaultPlan::new(7).with_fault(2, FaultKind::Garbage));
        let mut cfg = PipelineConfig::small(2, 1, 0);
        cfg.fault_policy = FaultPolicy::skip_file();
        let out = build_index(&coll, &cfg).expect("skip-file build survives corruption");
        assert_eq!(out.report.faults.quarantined_files(), vec![2]);
        assert_eq!(out.report.docs, 50, "5 surviving files x 10 docs");
        // The quarantined file keeps its (empty) slot in the doc map, so
        // later files' docIDs match a clean build.
        let entries = out.doc_map.entries();
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[2].n_docs, 0);
        assert_eq!(entries[3].first_doc, 30, "file 3 starts where a clean build would");
        // Quarantined files have no Fig 11 row and their bytes are excluded.
        assert_eq!(out.report.per_file.len(), 5);
        assert!(
            out.report.uncompressed_bytes < coll.manifest.stats.uncompressed_bytes
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn fail_fast_surfaces_typed_error() {
        let mut spec = CollectionSpec::tiny(46);
        spec.num_files = 4;
        let (_, dir) = stored("failfast", spec);
        let coll = reopen_with(&dir, FaultPlan::new(8).with_fault(1, FaultKind::Garbage));
        let err = build_index(&coll, &PipelineConfig::small(2, 1, 0))
            .err()
            .expect("default policy must abort on corruption");
        match err {
            PipelineError::File(fault) => {
                assert_eq!(fault.file_idx, 1);
                assert_eq!(fault.class, FaultClass::Permanent);
            }
            other => panic!("expected a file fault, got {other}"),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn transient_faults_yield_identical_dictionary() {
        let mut spec = CollectionSpec::tiny(47);
        spec.num_files = 4;
        let (clean, dir) = stored("transient-dict", spec);
        let cfg = PipelineConfig::small(2, 1, 0);
        let baseline = build_index(&clean, &cfg).expect("clean build");
        let coll = reopen_with(
            &dir,
            FaultPlan::new(9)
                .with_fault(0, FaultKind::TransientRead { failures: 2 })
                .with_fault(3, FaultKind::TransientRead { failures: 1 }),
        );
        let out = build_index(&coll, &cfg).expect("transient faults must be recovered");
        assert_eq!(out.dict_bytes, baseline.dict_bytes, "byte-identical dictionary");
        assert_eq!(out.report.docs, baseline.report.docs);
        assert!(out.report.faults.retries >= 3, "{}", out.report.faults.summary());
        assert!(out.report.faults.recovered_files >= 2);
        assert!(out.report.faults.quarantined.is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// (dictionary bytes, sorted run encodings, doc-map bytes).
    type IndexBytes = (Vec<u8>, Vec<(u32, u32, Vec<u8>)>, Vec<u8>);

    /// Everything that makes two index builds byte-comparable: the
    /// dictionary encoding, every sealed run's encoding, and the doc map.
    fn index_fingerprint(out: &IndexOutput) -> IndexBytes {
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
    fn durable_build_commits_a_loadable_index() {
        let mut spec = CollectionSpec::tiny(48);
        spec.num_files = 4;
        spec.docs_per_file = 8;
        let (coll, dir) = stored("durable", spec);
        let idx_dir = dir.join("index");
        let cfg = PipelineConfig::small(2, 1, 1);
        let opts = DurableOptions::new(&idx_dir).checkpoint_every(1);
        let out = build_index_durable(&coll, &cfg, &opts).expect("durable build");

        let store = Store::open(&idx_dir).expect("open committed index");
        assert_eq!(store.manifest().kind, ManifestKind::Index);
        assert_eq!(store.read(DICTIONARY_ARTIFACT).unwrap(), out.dict_bytes);
        // The final commit garbage-collects the checkpoint scaffolding.
        assert!(store.manifest().artifact(CHECKPOINT_ARTIFACT).is_none());
        for (id, rs) in &out.run_sets {
            for r in rs.runs() {
                assert_eq!(
                    store.read(&run_artifact_name(*id, r.run_id)).unwrap(),
                    r.to_bytes()
                );
            }
        }
        for st in store.verify() {
            assert!(st.ok, "{}: {:?}", st.name, st.detail);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn resume_after_kill_is_byte_identical() {
        let mut spec = CollectionSpec::tiny(49);
        spec.num_files = 6;
        spec.docs_per_file = 8;
        let (coll, dir) = stored("resume", spec);
        let cfg = PipelineConfig::small(2, 1, 1);
        let baseline = build_index(&coll, &cfg).expect("baseline");

        // Probe a full durable run to count its storage ops, then kill a
        // second run halfway through them — after some checkpoints have
        // committed, before the final index commit.
        let probe = CrashVfs::probe();
        let opts = DurableOptions::new(dir.join("probe")).checkpoint_every(1).with_vfs(&probe);
        build_index_durable(&coll, &cfg, &opts).expect("probe build");
        let total = probe.ops();
        assert!(total > 0, "durable build must touch storage");

        let idx_dir = dir.join("index");
        let crash = CrashVfs::new(total / 2, CrashMode::PowerLoss, 11);
        let opts = DurableOptions::new(&idx_dir).checkpoint_every(1).with_vfs(&crash);
        assert!(
            build_index_durable(&coll, &cfg, &opts).is_err(),
            "killed build must error"
        );
        assert!(crash.crashed());

        // Resuming under the wrong config is refused with the typed
        // mismatch carrying both fingerprints, not silently mixed.
        let mut other_cfg = cfg.clone();
        other_cfg.popular_count += 1;
        let opts = DurableOptions::new(&idx_dir).checkpoint_every(1).resume(true);
        match build_index_durable(&coll, &other_cfg, &opts) {
            Err(PipelineError::Store(StoreError::CheckpointMismatch {
                what,
                expected,
                found,
            })) => {
                assert_eq!(what, "config");
                assert_ne!(expected, found);
                assert!(found.contains("popular=9"), "{found}");
            }
            other => panic!("expected config refusal, got {:?}", other.map(|_| "index")),
        }

        // A different memory budget is refused the same way: early-flush
        // points move run boundaries, so resuming would splice
        // incompatible physical runs.
        let mut budget_cfg = cfg.clone();
        budget_cfg.governor = GovernorPolicy::default().with_budget(64 << 20);
        match build_index_durable(&coll, &budget_cfg, &opts) {
            Err(PipelineError::Store(StoreError::CheckpointMismatch { what, found, .. })) => {
                assert_eq!(what, "config");
                assert!(found.contains("mem_budget=67108864"), "{found}");
            }
            other => panic!("expected budget refusal, got {:?}", other.map(|_| "index")),
        }

        let resumed = build_index_durable(&coll, &cfg, &opts).expect("resume");
        assert_eq!(index_fingerprint(&resumed), index_fingerprint(&baseline));
        assert_eq!(resumed.report.docs, baseline.report.docs);
        let store = Store::open(&idx_dir).expect("resumed index committed");
        assert_eq!(store.manifest().kind, ManifestKind::Index);

        // Resuming a completed index is refused.
        match build_index_durable(&coll, &cfg, &opts) {
            Err(PipelineError::Resume(why)) => assert!(why.contains("completed"), "{why}"),
            other => panic!("expected completed-index refusal, got {:?}", other.map(|_| "index")),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn gpu_death_mid_build_degrades_byte_identically() {
        let mut spec = CollectionSpec::tiny(50);
        spec.num_files = 6;
        spec.docs_per_file = 8;
        let (coll, dir) = stored("gpu-death", spec);
        let cfg = PipelineConfig::small(2, 1, 1);
        let baseline = build_index(&coll, &cfg).expect("healthy build");
        assert!(baseline.report.supervision.is_clean());

        // Kill the GPU indexer after the second batch: its shards must be
        // salvaged onto the CPU path and the final index must not differ
        // from the healthy build by a single byte.
        let mut chaos = cfg.clone();
        chaos.worker_faults = WorkerFaultPlan::none().kill(WorkerClass::GpuIndexer, 0, 2);
        let out = build_index(&coll, &chaos).expect("GPU death must degrade, not abort");
        assert_eq!(index_fingerprint(&out), index_fingerprint(&baseline));
        let sup = &out.report.supervision;
        assert_eq!(sup.deaths_of(WorkerClass::GpuIndexer), 1, "{}", sup.summary());
        assert!(sup.gpu_takeovers >= 1, "{}", sup.summary());
        assert!(sup.reassignments >= sup.gpu_takeovers);
        assert!(sup.lossy_incidents.is_empty(), "clean-boundary kill is lossless");
        assert!(!sup.is_clean());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn multi_class_chaos_reassigns_and_stays_byte_identical() {
        let mut spec = CollectionSpec::tiny(51);
        spec.num_files = 8;
        spec.docs_per_file = 6;
        let (coll, dir) = stored("multi-chaos", spec);
        let cfg = PipelineConfig::small(2, 2, 1);
        let baseline = build_index(&coll, &cfg).expect("healthy build");

        // One CPU indexer killed mid-run (shards rehosted to the
        // survivor), the parser thread claiming file 3 killed (that file
        // re-ingested inline on the driver), the one claiming file 6
        // stalled past the watchdog timeout (same recovery path as a kill).
        let mut chaos = cfg.clone();
        chaos.supervision = SupervisorPolicy::default()
            .with_stall_timeout(std::time::Duration::from_millis(200));
        chaos.worker_faults = WorkerFaultPlan::none()
            .kill(WorkerClass::CpuIndexer, 0, 3)
            .kill(WorkerClass::Parser, 1, 3)
            .stall(WorkerClass::Parser, 0, 6, std::time::Duration::from_secs(1));
        let out = build_index(&coll, &chaos).expect("multi-class chaos must degrade");
        assert_eq!(index_fingerprint(&out), index_fingerprint(&baseline));
        let sup = &out.report.supervision;
        assert_eq!(sup.deaths_of(WorkerClass::CpuIndexer), 1, "{}", sup.summary());
        assert_eq!(sup.deaths_of(WorkerClass::Parser), 2, "{}", sup.summary());
        assert!(sup.reassignments >= 1, "{}", sup.summary());
        assert!(sup.inline_parsed_files >= 1, "{}", sup.summary());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Dictionary bytes, sorted term → (doc, tf) postings, doc map.
    type LogicalFingerprint = (Vec<u8>, Vec<(String, Vec<(u32, u32)>)>, Vec<u8>);

    /// Logical index identity: dictionary bytes, per-term (doc, tf)
    /// postings, and the doc map. This — not the physical run encodings —
    /// is the invariant the governor preserves: early flushes move run
    /// boundaries, the merged postings never change.
    fn logical_fingerprint(out: &IndexOutput) -> LogicalFingerprint {
        let mut terms: Vec<(String, Vec<(u32, u32)>)> = out
            .dictionary
            .entries()
            .map(|e| {
                let l = out.run_sets[&e.indexer].fetch(e.postings).unwrap();
                (e.full_term(), l.postings().iter().map(|p| (p.doc.0, p.tf)).collect())
            })
            .collect();
        terms.sort();
        let mut dm = Vec::new();
        out.doc_map.write_to(&mut dm).unwrap();
        (out.dict_bytes.clone(), terms, dm)
    }

    fn governor_gauge(out: &IndexOutput, name: &str) -> i64 {
        out.report.stages.gauges.get(name).copied().unwrap_or(-1)
    }

    fn total_runs(out: &IndexOutput) -> usize {
        out.run_sets.values().map(|rs| rs.runs().len()).sum()
    }

    #[test]
    fn early_flush_under_pressure_is_logically_identical() {
        let mut spec = CollectionSpec::tiny(55);
        spec.num_files = 6;
        spec.docs_per_file = 10;
        let (coll, dir) = stored("governor-flush", spec);
        let mut cfg = PipelineConfig::small(2, 1, 1);
        cfg.batches_per_run = 3;
        cfg.governor = GovernorPolicy::unlimited();
        let baseline = build_index(&coll, &cfg).expect("unlimited build");
        assert_eq!(baseline.report.stages.counter("governor.early_flushes"), 0);
        assert_eq!(
            governor_gauge(&baseline, "governor.budget_bytes"),
            0,
            "unlimited reports budget 0"
        );
        assert!(
            governor_gauge(&baseline, "governor.high_water_bytes") > 0,
            "accounting runs even without a budget"
        );

        // A flush watermark so low every batch crosses it: each batch
        // seals its own run — more, smaller runs, same merged index.
        let mut pressured = cfg.clone();
        pressured.governor = GovernorPolicy {
            budget_bytes: 512 << 20,
            flush_watermark: 1e-9,
            shed_watermark: 0.85,
        };
        let out = build_index(&coll, &pressured).expect("pressured build");
        assert!(
            out.report.stages.counter("governor.early_flushes") >= 3,
            "every mid-run batch should flush early: {}",
            out.report.stages.counter("governor.early_flushes")
        );
        assert!(
            total_runs(&out) > total_runs(&baseline),
            "early flushes must produce more, smaller runs ({} vs {})",
            total_runs(&out),
            total_runs(&baseline)
        );
        assert_eq!(logical_fingerprint(&out), logical_fingerprint(&baseline));
        assert!(out.report.supervision.is_clean(), "pressure is not a fault");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn gpu_shed_under_pressure_is_logically_identical() {
        let mut spec = CollectionSpec::tiny(56);
        spec.num_files = 6;
        spec.docs_per_file = 8;
        let (coll, dir) = stored("governor-shed", spec);
        let mut cfg = PipelineConfig::small(2, 1, 1);
        cfg.governor = GovernorPolicy::unlimited();
        let baseline = build_index(&coll, &cfg).expect("unlimited build");

        // A shed watermark so low any device residency crosses it: the
        // GPU's shards are parked onto the CPU salvage path at the first
        // batch boundary, and the rest of the build runs CPU-only.
        let mut pressured = cfg.clone();
        pressured.governor = GovernorPolicy {
            budget_bytes: 512 << 20,
            flush_watermark: 0.5,
            shed_watermark: 1e-9,
        };
        let out = build_index(&coll, &pressured).expect("shed build");
        assert_eq!(out.report.stages.counter("governor.gpu_sheds"), 1, "one GPU to shed");
        assert_eq!(logical_fingerprint(&out), logical_fingerprint(&baseline));
        // A shed is deliberate degradation, not a worker death: the
        // supervision ledger stays clean (`--strict` builds still pass).
        assert!(out.report.supervision.is_clean(), "{}", out.report.supervision.summary());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn mid_build_squeeze_is_logically_identical_and_counted() {
        let mut spec = CollectionSpec::tiny(57);
        spec.num_files = 8;
        spec.docs_per_file = 8;
        let (coll, dir) = stored("governor-squeeze", spec);
        let mut cfg = PipelineConfig::small(2, 1, 1);
        cfg.governor = GovernorPolicy::unlimited();
        let baseline = build_index(&coll, &cfg).expect("unlimited build");
        let high_water = governor_gauge(&baseline, "governor.high_water_bytes") as u64;
        assert!(high_water > 0);

        // Start generous, then shrink mid-build — twice. Squeezes fire at
        // batch ordinals on the deterministic resident figures, so two
        // identical runs degrade identically.
        let mut squeezed = cfg.clone();
        squeezed.governor = GovernorPolicy::default().with_budget(high_water * 4);
        squeezed.worker_faults =
            WorkerFaultPlan::none().squeeze(2, high_water * 3).squeeze(5, high_water * 2);
        let out = build_index(&coll, &squeezed).expect("squeezed build");
        assert_eq!(out.report.stages.counter("governor.squeezes"), 2);
        assert_eq!(
            governor_gauge(&out, "governor.effective_budget_bytes") as u64,
            high_water * 2,
            "the tightest squeeze is the effective budget"
        );
        assert_eq!(logical_fingerprint(&out), logical_fingerprint(&baseline));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn impossible_budget_fails_typed_not_oom() {
        let mut spec = CollectionSpec::tiny(58);
        spec.num_files = 4;
        let (coll, dir) = stored("governor-abort", spec);
        let mut cfg = PipelineConfig::small(1, 1, 0);
        // 80 KB total → 60 KB resident share: below even one empty
        // dictionary shard's fixed trie-roots table, so no amount of
        // flushing or shedding can fit. The build must refuse with the
        // typed error naming both figures — never an OOM kill.
        cfg.governor = GovernorPolicy::default().with_budget(80_000);
        match build_index(&coll, &cfg) {
            Err(e @ PipelineError::MemoryBudgetExceeded { budget, needed }) => {
                assert_eq!(budget, 80_000);
                assert!(needed > 60_000, "needed={needed}");
                // The message names the share `needed` was held against,
                // beside the budget it is a share of.
                let msg = e.to_string();
                assert!(msg.contains("resident share of 60000"), "{msg}");
                assert!(msg.contains("budget of 80000"), "{msg}");
            }
            other => panic!("expected budget refusal, got {:?}", other.map(|_| "index")),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn disk_full_final_commit_is_retried_to_success() {
        let mut spec = CollectionSpec::tiny(53);
        spec.num_files = 4;
        spec.docs_per_file = 6;
        let (coll, dir) = stored("disk-full", spec);
        let cfg = PipelineConfig::small(1, 1, 0);
        let baseline = build_index(&coll, &cfg).expect("baseline");

        // With no periodic checkpoints every storage op belongs to the
        // final commit, so an ENOSPC window over ops 2-3 hits the first
        // commit attempt (and the first retry) during early artifact
        // writes; the ops of a later retry fall past the window and land.
        let idx_dir = dir.join("index");
        let full = CrashVfs::disk_full(2, 2);
        let opts = DurableOptions::new(&idx_dir).with_vfs(&full);
        let out = build_index_durable(&coll, &cfg, &opts).expect("commit retried past ENOSPC");
        assert!(out.report.supervision.commit_retries >= 1, "retries must be reported");
        assert!(!full.crashed(), "disk-full is pressure, not a crash");
        assert_eq!(index_fingerprint(&out), index_fingerprint(&baseline));
        let store = Store::open(&idx_dir).expect("index committed after retry");
        assert_eq!(store.manifest().kind, ManifestKind::Index);
        for st in store.verify() {
            assert!(st.ok, "{}: {:?}", st.name, st.detail);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn disk_full_past_retry_budget_fails_typed_and_retriable() {
        let mut spec = CollectionSpec::tiny(54);
        spec.num_files = 3;
        let (coll, dir) = stored("disk-full-hard", spec);
        let cfg = PipelineConfig::small(1, 1, 0);
        // A volume that never frees space: the build must surface the
        // typed, retriable error — not a torn index, not a panic — and cut
        // one commit-failure bundle, whether the commit that exhausts its
        // retries is a checkpoint's or the final one.
        for checkpoint_every in [0, 1] {
            let full = CrashVfs::disk_full(0, u64::MAX);
            let idx_dir = dir.join(format!("index-{checkpoint_every}"));
            let opts =
                DurableOptions::new(&idx_dir).checkpoint_every(checkpoint_every).with_vfs(&full);
            match build_index_durable(&coll, &cfg, &opts) {
                Err(PipelineError::Store(e)) => {
                    assert!(e.is_retriable(), "must classify as retriable: {e}");
                    assert!(matches!(e, StoreError::DiskFull { .. }), "{e:?}");
                }
                other => panic!("expected typed disk-full, got {:?}", other.map(|_| "index")),
            }
            let bundles = crate::telemetry::list_bundles(&idx_dir.join(POSTMORTEM_DIR)).unwrap();
            let names: Vec<_> = bundles.iter().filter_map(|b| b.file_name()).collect();
            assert_eq!(names, ["bundle_000_commit-failure.json"], "every {checkpoint_every}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The driver's in-batch death path, on a batch report with one CPU and
    /// one GPU executor dead: each is declared with its own panic, each
    /// panic is a lossy incident, the reassignments are counted, one bundle
    /// is cut, and a second report of the same executors declares nothing
    /// twice.
    #[test]
    fn batch_deaths_are_declared_once_with_their_own_panics() {
        let mut spec = CollectionSpec::tiny(59);
        spec.num_files = 2;
        let (coll, dir) = stored("batch-deaths", spec);
        let mut cfg = PipelineConfig::small(1, 1, 1);
        cfg.telemetry.postmortem_dir = Some(dir.join(POSTMORTEM_DIR));
        let mut build = Build::start(&coll, &cfg, None).expect("start");
        let moved = |shard, gpu_takeover| Takeover { shard, host: Host::Driver, gpu_takeover };
        let death = |executor, panic: &str, takeovers| ExecutorDeath {
            executor,
            panic: panic.to_string(),
            takeovers,
        };
        let timing = BatchTiming {
            panics: vec![(0, "cpu shard bad".into()), (1, "gpu shard bad".into())],
            deaths: vec![
                death(Executor::Cpu(0), "cpu shard bad", vec![moved(0, false)]),
                death(Executor::Gpu(0), "gpu shard bad", vec![moved(1, true)]),
            ],
            ..BatchTiming::default()
        };
        build.record_deaths(&timing);
        let sup = &build.report.supervision;
        let deaths: Vec<_> = sup.deaths.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            deaths,
            [
                "cpu-indexer 0 died (panic: cpu shard bad)",
                "gpu-indexer 0 died (panic: gpu shard bad)"
            ]
        );
        assert_eq!(sup.lossy_incidents.len(), 2, "one lossy incident per panic");
        assert_eq!((sup.reassignments, sup.gpu_takeovers), (2, 1));
        assert!(sup.summary().contains("2 worker deaths (0 parser, 1 cpu, 1 gpu)"));
        let bundles = build.postmortem.paths();
        assert!(bundles.len() == 1 && bundles[0].ends_with("bundle_000_worker-death.json"));

        build.record_deaths(&timing);
        let sup = &build.report.supervision;
        assert_eq!(sup.deaths.len(), 2, "the first declaration of a death wins");
        assert_eq!((sup.reassignments, sup.gpu_takeovers), (2, 1));
        assert_eq!(build.postmortem.paths().len(), 1, "no new death, no bundle");
        drop(build);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
