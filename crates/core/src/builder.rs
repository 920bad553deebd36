//! Fluent builder over the pipeline configuration.

use crate::index::Index;
use ii_corpus::StoredCollection;
use ii_indexer::GpuIndexerConfig;
use ii_pipeline::{
    build_index, build_index_durable, DurableOptions, FaultAction, FaultPolicy, GovernorPolicy,
    PipelineConfig, PipelineError, SupervisorPolicy, TelemetryConfig, WorkerFaultPlan,
};
use ii_postings::Codec;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configures and runs the pipelined heterogeneous indexing system.
///
/// ```no_run
/// use ii_core::IndexBuilder;
/// # fn main() -> std::io::Result<()> {
/// let index = IndexBuilder::new()
///     .parsers(6)
///     .cpu_indexers(2)
///     .gpus(2)
///     .build_from_dir(std::path::Path::new("/data/collection"))?;
/// println!("{} terms", index.num_terms());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct IndexBuilder {
    config: PipelineConfig,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexBuilder {
    /// Paper-default configuration: 6 parsers, 2 CPU indexers, 2 GPUs.
    pub fn new() -> Self {
        IndexBuilder { config: PipelineConfig::default() }
    }

    /// A small configuration for tests and examples.
    pub fn small() -> Self {
        IndexBuilder { config: PipelineConfig::small(2, 1, 1) }
    }

    /// Number of parallel parser threads.
    pub fn parsers(mut self, n: usize) -> Self {
        self.config.num_parsers = n;
        self
    }

    /// Number of CPU indexer threads.
    pub fn cpu_indexers(mut self, n: usize) -> Self {
        self.config.num_cpu_indexers = n;
        self
    }

    /// Number of (simulated) GPU indexers.
    pub fn gpus(mut self, n: usize) -> Self {
        self.config.num_gpus = n;
        self
    }

    /// GPU sizing (device memory, blocks, capacities).
    pub fn gpu_config(mut self, cfg: GpuIndexerConfig) -> Self {
        self.config.gpu_config = cfg;
        self
    }

    /// Postings compression codec (default: [`Codec::Auto`], the measured
    /// per-length-class policy — variable-byte, as the paper, for short
    /// lists; PForDelta for medium ones; BP128 for long ones).
    pub fn codec(mut self, codec: Codec) -> Self {
        self.config.codec = codec;
        self
    }

    /// Size of the popular (CPU-bound) trie-collection group.
    pub fn popular_count(mut self, n: usize) -> Self {
        self.config.popular_count = n;
        self
    }

    /// Batches per output run.
    pub fn batches_per_run(mut self, n: usize) -> Self {
        self.config.batches_per_run = n.max(1);
        self
    }

    /// Retry budget per file for transient read faults.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.config.fault_policy.max_retries = n;
        self
    }

    /// What to do with unrecoverable files: abort ([`FaultAction::FailFast`],
    /// the default) or quarantine and continue ([`FaultAction::SkipFile`]).
    pub fn on_fault(mut self, action: FaultAction) -> Self {
        self.config.fault_policy.action = action;
        self
    }

    /// Replace the whole fault policy at once.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.config.fault_policy = policy;
        self
    }

    /// Enable or disable worker-death supervision (on by default). Off,
    /// a dead parser is a fatal `ParserDisconnected` error — the
    /// pre-supervisor pipeline semantics.
    pub fn supervised(mut self, enabled: bool) -> Self {
        self.config.supervision.enabled = enabled;
        self
    }

    /// Heartbeat silence after which the watchdog declares a worker dead
    /// and reassigns its partitions (default 30s).
    pub fn stall_timeout(mut self, d: std::time::Duration) -> Self {
        self.config.supervision = self.config.supervision.with_stall_timeout(d);
        self
    }

    /// Replace the whole supervision policy at once.
    pub fn supervision(mut self, policy: SupervisorPolicy) -> Self {
        self.config.supervision = policy;
        self
    }

    /// Inject a seeded worker-fault schedule (chaos testing): kills and
    /// stalls at chosen pipeline points. Inert when supervision is off.
    pub fn worker_faults(mut self, plan: WorkerFaultPlan) -> Self {
        self.config.worker_faults = plan;
        self
    }

    /// Record an event-level trace of the build (per-worker timelines,
    /// stall spans, queue-depth samples). The merged trace lands in the
    /// report's `trace` field; export with `Trace::to_chrome_json`.
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.config.trace.enabled = enabled;
        self
    }

    /// Hard memory budget in bytes for the whole build (0 = unlimited).
    /// Under pressure the pipeline degrades deterministically —
    /// backpressure on the parsers, early run flushes, GPU-shard shedding —
    /// and refuses with a typed `MemoryBudgetExceeded` only when even the
    /// minimal configuration cannot fit. The logical index is identical at
    /// every budget.
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.config.governor = if bytes == 0 {
            GovernorPolicy::unlimited()
        } else {
            GovernorPolicy::default().with_budget(bytes)
        };
        self
    }

    /// Replace the whole governor policy (budget + watermarks) at once.
    pub fn governor(mut self, policy: GovernorPolicy) -> Self {
        self.config.governor = policy;
        self
    }

    /// Serve a live OpenMetrics endpoint on `addr` (e.g. `127.0.0.1:9185`)
    /// for the duration of the build — the `ii build --metrics-addr`
    /// surface, consumed by `ii top` and Prometheus scrapes.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.telemetry.metrics_addr = Some(addr.into());
        self
    }

    /// Toggle the always-on flight recorder (black-box ring of coarse
    /// pipeline samples; enabled by default, priced under the `obs_overhead`
    /// gate). Disabling it also leaves post-mortem bundles without a
    /// timeline, so prefer tuning the cadence over switching it off.
    pub fn flight_recorder(mut self, enabled: bool) -> Self {
        self.config.telemetry.recorder.enabled = enabled;
        self
    }

    /// Where automatic post-mortem bundles are written. Default: a
    /// `postmortem/` directory inside the durable index dir (in-memory
    /// builds then write none).
    pub fn postmortem_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.telemetry.postmortem_dir = Some(dir.into());
        self
    }

    /// Replace the whole telemetry configuration (recorder cadence,
    /// post-mortem switches, metrics endpoint) at once.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.config.telemetry = cfg;
        self
    }

    /// The underlying pipeline configuration.
    pub fn pipeline_config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Build an index over an already-opened stored collection.
    pub fn build(&self, collection: &Arc<StoredCollection>) -> Result<Index, PipelineError> {
        Ok(Index::from_output(build_index(collection, &self.config)?))
    }

    /// Build with crash-safe persistence into `index_dir`: run-boundary
    /// checkpoints every `checkpoint_every` runs plus a final atomic index
    /// commit. With `resume`, a build interrupted after a checkpoint
    /// continues from it and yields a byte-identical index.
    pub fn build_durable(
        &self,
        collection: &Arc<StoredCollection>,
        index_dir: &Path,
        checkpoint_every: usize,
        resume: bool,
    ) -> Result<Index, PipelineError> {
        let opts = DurableOptions::new(index_dir).checkpoint_every(checkpoint_every).resume(resume);
        Ok(Index::from_output(build_index_durable(collection, &self.config, &opts)?))
    }

    /// Open the collection directory and [`Self::build_durable`] into
    /// `index_dir`.
    pub fn build_dir_durable(
        &self,
        collection_dir: &Path,
        index_dir: &Path,
        checkpoint_every: usize,
        resume: bool,
    ) -> io::Result<Index> {
        let coll = Arc::new(StoredCollection::open(collection_dir)?);
        self.build_durable(&coll, index_dir, checkpoint_every, resume).map_err(io::Error::other)
    }

    /// Open the collection directory and build.
    pub fn build_from_dir(&self, dir: &Path) -> io::Result<Index> {
        let coll = Arc::new(StoredCollection::open(dir)?);
        self.build(&coll).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_corpus::CollectionSpec;

    #[test]
    fn builder_fluent_api() {
        let b = IndexBuilder::new()
            .parsers(3)
            .cpu_indexers(1)
            .gpus(0)
            .popular_count(5)
            .max_retries(5)
            .on_fault(FaultAction::SkipFile)
            .stall_timeout(std::time::Duration::from_secs(5))
            .supervised(false);
        assert_eq!(b.pipeline_config().num_parsers, 3);
        assert_eq!(b.pipeline_config().num_cpu_indexers, 1);
        assert_eq!(b.pipeline_config().num_gpus, 0);
        assert_eq!(b.pipeline_config().popular_count, 5);
        assert_eq!(b.pipeline_config().fault_policy.max_retries, 5);
        assert_eq!(b.pipeline_config().fault_policy.action, FaultAction::SkipFile);
        assert_eq!(
            b.pipeline_config().supervision.stall_timeout,
            std::time::Duration::from_secs(5)
        );
        assert!(!b.pipeline_config().supervision.enabled);
        let b = b.supervised(true).worker_faults(
            WorkerFaultPlan::none().kill(ii_pipeline::WorkerClass::GpuIndexer, 0, 1),
        );
        assert!(b.pipeline_config().supervision.enabled);
        assert!(!b.pipeline_config().worker_faults.is_empty());
        let b = b.mem_budget(64 << 20);
        assert_eq!(b.pipeline_config().governor.budget_bytes, 64 << 20);
        let b = b.mem_budget(0);
        assert_eq!(b.pipeline_config().governor.budget_bytes, 0, "0 = unlimited");
    }

    #[test]
    fn build_from_dir_end_to_end() {
        let dir = std::env::temp_dir()
            .join(format!("ii-builder-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ii_corpus::StoredCollection::generate(CollectionSpec::tiny(71), &dir).unwrap();
        let idx = IndexBuilder::small().build_from_dir(&dir).unwrap();
        assert!(idx.num_terms() > 0);
        assert!(idx.num_docs() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
