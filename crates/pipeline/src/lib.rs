//! # ii-pipeline — the pipelined parallel indexing system (paper Fig 9)
//!
//! Parallel parsers with a serialized disk scheduler each claim the lowest
//! unclaimed file and hand its batch to one consumer that feeds the CPU and
//! GPU indexers in strict file order, preserving global document order; `build_index` drives the whole system and emits
//! Table VI-style timing plus per-file Fig 11 detail.
//!
//! The pipeline is fault-tolerant: a [`FaultPolicy`] governs transient-read
//! retries and whether corrupt files abort the build or are quarantined,
//! and every build's [`PipelineReport`] carries a [`FaultReport`] of what
//! was retried, recovered, quarantined, or contained.
//!
//! It is also crash-safe: at run-boundary checkpoints [`build_index_durable`]
//! commits the index of the files consumed so far — sealed runs, doc map,
//! combined dictionary — through the ii-store atomic-commit protocol, and
//! `DurableOptions::resume` continues an interrupted build byte-identically
//! from its last committed checkpoint.
//!
//! And it survives its own workers: per-worker heartbeats fed from trace
//! spans let the consumer declare stalled or disconnected parsers dead and
//! re-ingest their files on the driver, a dead GPU's shard degrades to the
//! CPU path on the driver thread byte-identically, a panic inside a shard
//! is contained, and the [`SupervisionReport`] in every build report says
//! exactly what degraded.
//!
//! Finally, it runs to a hard memory budget: a [`MemoryGovernor`] accounts
//! live bytes across every stage against `--mem-budget` and degrades
//! deterministically — parser backpressure, early run flushes, GPU
//! shedding — before the typed
//! [`PipelineError::MemoryBudgetExceeded`] abort.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod checkpoint;
pub mod docmap;
pub mod driver;
pub mod fault;
pub mod governor;
pub mod parsers;
pub mod supervisor;
pub mod telemetry;

pub use breakdown::{cache_hit_rate, render_table};
pub use checkpoint::{
    collection_fingerprint, config_fingerprint, BuildCheckpoint, QuarantinedFile,
    CHECKPOINT_ARTIFACT, DICTIONARY_ARTIFACT, DOCMAP_ARTIFACT,
};
pub use docmap::{DocMap, DocMapEntry};
pub use driver::{
    build_index, build_index_durable, read_generation, run_postings_meta, sample_plan,
    stage_runs_and_docmap, DurableOptions, FileTiming, Generation, IndexOutput, PipelineConfig,
    PipelineReport, SamplePlan, SealedRuns,
};
pub use fault::{
    BudgetSqueeze, FaultAction, FaultClass, FaultPolicy, FaultReport, FaultStage, FileFault,
    PipelineError, WorkerClass, WorkerFault, WorkerFaultKind, WorkerFaultPlan,
};
pub use governor::{ladder, MemoryGovernor, PoolBytes, Rung};
pub use parsers::{ParsedFile, ParserObs};
pub use supervisor::{DeathCause, SupervisionReport, SupervisorPolicy, WorkerDeath};
pub use telemetry::{
    list_bundles, render_bundle_report, PostmortemWriter, TelemetryConfig, BUNDLE_SCHEMA_VERSION,
    POSTMORTEM_DIR,
};
