//! Fault policy, classification, and reporting for the ingest pipeline.
//!
//! The paper's pipeline assumes every container reads, decompresses, and
//! parses cleanly. This module is the production-hardening layer around
//! that assumption: a [`FaultPolicy`] says how hard to retry transient
//! faults and whether a permanent fault aborts the build
//! ([`FaultAction::FailFast`]) or quarantines the file and continues
//! ([`FaultAction::SkipFile`]); a [`FaultReport`] records everything that
//! went wrong (and was survived) so the operator sees exactly which inputs
//! the index does not cover.

use std::time::Duration;

/// How a fault is classified for retry and reporting purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// An I/O fault; retrying may succeed.
    Transient,
    /// Corrupt data (bad container, decompress failure, invalid UTF-8);
    /// retrying cannot help.
    Permanent,
    /// A parser thread panicked while handling the file; contained by
    /// `catch_unwind` instead of truncating the stream.
    Panic,
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultClass::Transient => write!(f, "transient"),
            FaultClass::Permanent => write!(f, "permanent"),
            FaultClass::Panic => write!(f, "panic"),
        }
    }
}

/// Which pipeline stage observed the fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultStage {
    /// The sampling pre-pass that builds the balance plan.
    Sampling,
    /// The parallel parser stage of the streaming build.
    Parsing,
}

impl std::fmt::Display for FaultStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultStage::Sampling => write!(f, "sampling"),
            FaultStage::Parsing => write!(f, "parsing"),
        }
    }
}

/// One file's unrecovered fault: what failed, where, and after how many
/// retries.
#[derive(Clone, Debug)]
pub struct FileFault {
    /// Index of the container file that failed.
    pub file_idx: usize,
    /// Transient / permanent / panic.
    pub class: FaultClass,
    /// Failed attempts made before giving up (0 for permanent faults,
    /// which are never retried).
    pub retries: u32,
    /// Stage that observed the fault.
    pub stage: FaultStage,
    /// Human-readable cause.
    pub error: String,
}

impl std::fmt::Display for FileFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "file {} ({} fault during {}): {}",
            self.file_idx, self.class, self.stage, self.error
        )
    }
}

/// What to do when a file fails permanently (or exhausts its retries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Abort the build with a typed error naming the file.
    FailFast,
    /// Quarantine the file (drop its documents, record it in the
    /// [`FaultReport`]) and keep indexing the rest of the collection.
    SkipFile,
}

/// The pipeline's fault-handling knobs.
#[derive(Clone, Copy, Debug)]
pub struct FaultPolicy {
    /// Retry budget per file for transient faults.
    pub max_retries: u32,
    /// Base backoff between retries; doubles per attempt (capped).
    pub retry_backoff: Duration,
    /// Disposition of files that fail permanently.
    pub action: FaultAction,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
            action: FaultAction::FailFast,
        }
    }
}

impl FaultPolicy {
    /// Strict policy (the default): retry transients, abort on anything
    /// unrecoverable.
    pub fn fail_fast() -> Self {
        FaultPolicy::default()
    }

    /// Lenient policy: retry transients, quarantine unrecoverable files and
    /// index everything else.
    pub fn skip_file() -> Self {
        FaultPolicy { action: FaultAction::SkipFile, ..FaultPolicy::default() }
    }

    /// Same policy with a different retry budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Exponential backoff before retry number `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.retry_backoff * 2u32.saturating_pow(attempt.saturating_sub(1).min(6))
    }

    /// Jittered backoff before retry number `attempt` (1-based): "equal
    /// jitter" over the exponential base, uniformly in
    /// `[base/2, base]`, so workers that hit the same fault at the same
    /// moment (a shared disk glitch, a full volume) don't re-stampede the
    /// resource in lockstep. Deterministic: the same `salt` (callers use
    /// the file index or commit attempt) and `attempt` always yield the
    /// same delay, keeping fault-injection replays exact.
    pub fn jittered_backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.backoff_for(attempt);
        let ns = base.as_nanos() as u64;
        if ns == 0 {
            return base;
        }
        let half = ns / 2;
        let jitter = splitmix64(salt ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            % (ns - half + 1);
        Duration::from_nanos(half + jitter)
    }
}

/// SplitMix64 — the same deterministic mixer the corpus and store fault
/// harnesses seed their injections with.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which worker class a seeded worker fault targets: the two kinds of
/// worker that have state of their own to lose. CPU indexer shards run on
/// the driver thread and have none (see [`WorkerFaultPlan::sleep_driver`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkerClass {
    /// A parser thread.
    Parser,
    /// A GPU indexer.
    GpuIndexer,
}

impl std::fmt::Display for WorkerClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerClass::Parser => write!(f, "parser"),
            WorkerClass::GpuIndexer => write!(f, "gpu-indexer"),
        }
    }
}

/// What an injected worker fault does at its trigger point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFaultKind {
    /// The worker dies on the spot (the parser thread exits / the GPU's
    /// shard is salvaged).
    Kill,
    /// The worker goes silent for the given duration without making
    /// progress — long enough and the watchdog declares it dead.
    Stall(Duration),
}

/// One scheduled worker fault: `class`/`index` pick the worker, `at` the
/// progress point where it fires — the *batch ordinal* (0-based count of
/// batches consumed) a GPU is about to process, or the *file index* a
/// parser has just claimed. Parsers own no files, so a parser fault is
/// keyed by file alone: it fires on whichever parser thread claims file
/// `at`, and its `index` is ignored. Faults fire at these clean boundaries
/// so a kill never tears a half-indexed batch, mirroring how the
/// supervisor reassigns work at batch granularity.
#[derive(Clone, Copy, Debug)]
pub struct WorkerFault {
    /// Targeted worker class.
    pub class: WorkerClass,
    /// Worker index within its class (ignored for parsers).
    pub index: usize,
    /// File index (parsers) or batch ordinal (GPUs) at which to fire.
    pub at: usize,
    /// Kill or stall.
    pub kind: WorkerFaultKind,
}

/// One scheduled allocation-pressure squeeze: at batch ordinal `at` the
/// memory governor's *effective* budget shrinks to `budget_bytes`,
/// simulating a host that loses memory mid-build (a neighbour process, a
/// cgroup clamp). Squeezes fire at batch boundaries like worker faults,
/// so the degradation they provoke (early flushes, GPU sheds) lands at
/// deterministic points and replays exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetSqueeze {
    /// Batch ordinal (0-based count of batches consumed) at which the
    /// squeeze takes effect.
    pub at: usize,
    /// New effective budget in bytes (never raises the configured budget).
    pub budget_bytes: u64,
}

/// A seeded schedule of worker kills and stalls (the chaos harness for
/// the failure-domain supervisor), driver sleeps, and allocation-pressure
/// squeezes for the memory governor. Deliberately *excluded* from the checkpoint
/// config fingerprint, like the rest of the fault policy: the schedule
/// changes how the build executes, never what it produces.
#[derive(Clone, Debug, Default)]
pub struct WorkerFaultPlan {
    /// Scheduled faults, in no particular order.
    pub faults: Vec<WorkerFault>,
    /// Scheduled budget squeezes, in no particular order.
    pub squeezes: Vec<BudgetSqueeze>,
    /// Scheduled driver sleeps: `(batch ordinal, how long)`.
    pub sleeps: Vec<(usize, Duration)>,
}

impl WorkerFaultPlan {
    /// An empty schedule (no injected worker faults).
    pub fn none() -> Self {
        WorkerFaultPlan::default()
    }

    /// True when the schedule holds no faults, squeezes or sleeps.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.squeezes.is_empty() && self.sleeps.is_empty()
    }

    /// Add a kill of `class` worker `index` at progress point `at`. For a
    /// parser `index` is ignored: the kill ends whichever parser thread
    /// claims file `at`.
    pub fn kill(mut self, class: WorkerClass, index: usize, at: usize) -> Self {
        self.faults.push(WorkerFault { class, index, at, kind: WorkerFaultKind::Kill });
        self
    }

    /// Add a stall of `class` worker `index` at progress point `at`. For a
    /// parser `index` is ignored: the stall puts whichever parser thread
    /// claims file `at` to sleep.
    pub fn stall(mut self, class: WorkerClass, index: usize, at: usize, d: Duration) -> Self {
        self.faults.push(WorkerFault { class, index, at, kind: WorkerFaultKind::Stall(d) });
        self
    }

    /// The GPU fault scheduled for (`class`, `index`, `at`), if any.
    pub fn fault_at(&self, class: WorkerClass, index: usize, at: usize) -> Option<WorkerFaultKind> {
        self.faults
            .iter()
            .find(|f| f.class == class && f.index == index && f.at == at)
            .map(|f| f.kind)
    }

    /// The parser fault scheduled at file `at`, whichever parser claims it.
    pub fn parser_fault_at(&self, at: usize) -> Option<WorkerFaultKind> {
        self.faults
            .iter()
            .find(|f| f.class == WorkerClass::Parser && f.at == at)
            .map(|f| f.kind)
    }

    /// Put the driver thread to sleep for `d` before it indexes batch
    /// ordinal `at`: every CPU indexer shard runs there, so this is a slow
    /// indexer. Never a death, whatever `d` is.
    pub fn sleep_driver(mut self, at: usize, d: Duration) -> Self {
        self.sleeps.push((at, d));
        self
    }

    /// How long the driver sleeps before batch ordinal `at` (all sleeps
    /// scheduled there, added up).
    pub fn driver_sleep_at(&self, at: usize) -> Duration {
        self.sleeps.iter().filter(|&&(when, _)| when == at).map(|&(_, d)| d).sum()
    }

    /// Add a budget squeeze at batch ordinal `at`.
    pub fn squeeze(mut self, at: usize, budget_bytes: u64) -> Self {
        self.squeezes.push(BudgetSqueeze { at, budget_bytes });
        self
    }

    /// The budget squeeze firing at batch ordinal `at`, if any (the
    /// tightest one wins when several are scheduled at the same ordinal).
    pub fn squeeze_at(&self, at: usize) -> Option<u64> {
        self.squeezes.iter().filter(|s| s.at == at).map(|s| s.budget_bytes).min()
    }

    /// Deterministic seeded squeeze schedule: up to `max_squeezes` budget
    /// shrinks over batch ordinals in `0..num_batches`, each landing
    /// between 25% and 100% of `base_budget`. The same seed always yields
    /// the same schedule.
    pub fn seeded_squeezes(
        mut self,
        seed: u64,
        num_batches: usize,
        base_budget: u64,
        max_squeezes: usize,
    ) -> Self {
        if num_batches == 0 || base_budget == 0 {
            return self;
        }
        let n = (splitmix64(seed ^ 0x5153_555A_455A_4551) as usize) % (max_squeezes + 1);
        for k in 0..n {
            let r = splitmix64(seed ^ (k as u64 + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB));
            let at = (r as usize) % num_batches;
            // Uniform in [base/4, base]: pressure, never infeasibility.
            let frac = 25 + (r >> 16) % 76;
            let budget_bytes = (base_budget / 100).saturating_mul(frac).max(1);
            self.squeezes.push(BudgetSqueeze { at, budget_bytes });
        }
        self
    }

    /// Deterministic seeded schedule over a worker topology: up to
    /// `max_faults` kills/stalls spread over parsers (file boundaries in
    /// `0..num_files`) and GPUs (batch ordinals in `0..num_files`).
    /// The same seed always yields the same schedule.
    pub fn seeded(
        seed: u64,
        num_parsers: usize,
        n_gpu: usize,
        num_files: usize,
        max_faults: usize,
    ) -> Self {
        let mut plan = WorkerFaultPlan::default();
        if num_files == 0 {
            return plan;
        }
        let n_faults = (splitmix64(seed) as usize) % (max_faults + 1);
        for k in 0..n_faults {
            let r = splitmix64(seed ^ (k as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
            let classes: Vec<WorkerClass> = [
                (num_parsers > 0).then_some(WorkerClass::Parser),
                (n_gpu > 0).then_some(WorkerClass::GpuIndexer),
            ]
            .into_iter()
            .flatten()
            .collect();
            if classes.is_empty() {
                break;
            }
            let class = classes[(r as usize) % classes.len()];
            let index = match class {
                WorkerClass::Parser => (r >> 8) as usize % num_parsers,
                WorkerClass::GpuIndexer => (r >> 8) as usize % n_gpu,
            };
            let at = (r >> 24) as usize % num_files;
            let kind = if r & 1 == 0 {
                WorkerFaultKind::Kill
            } else {
                WorkerFaultKind::Stall(Duration::from_millis(1 + (r >> 48) % 20))
            };
            plan.faults.push(WorkerFault { class, index, at, kind });
        }
        plan
    }
}

/// Everything the pipeline survived (or didn't) during one build.
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// Transient read attempts that failed but were later recovered.
    pub retries: u32,
    /// Files that needed at least one retry and ultimately parsed.
    pub recovered_files: u32,
    /// Files dropped from the index under [`FaultAction::SkipFile`].
    pub quarantined: Vec<FileFault>,
    /// Parser panics contained by `catch_unwind`.
    pub parser_panics: u32,
}

impl FaultReport {
    /// True when the build saw no faults at all.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.recovered_files == 0
            && self.quarantined.is_empty()
            && self.parser_panics == 0
    }

    /// Indices of quarantined files, ascending.
    pub fn quarantined_files(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.quarantined.iter().map(|q| q.file_idx).collect();
        v.sort_unstable();
        v
    }

    /// One-line operator summary.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            "no faults".to_string()
        } else {
            format!(
                "{} retries, {} files recovered, {} quarantined, {} parser panics",
                self.retries,
                self.recovered_files,
                self.quarantined.len(),
                self.parser_panics
            )
        }
    }
}

/// A build-aborting pipeline error.
#[derive(Debug)]
pub enum PipelineError {
    /// A file failed unrecoverably under [`FaultAction::FailFast`].
    File(FileFault),
    /// Writing a build artifact failed.
    Io(std::io::Error),
    /// The crash-safe store rejected an operation (typed: torn manifest,
    /// checksum mismatch, version skew, ...).
    Store(ii_store::StoreError),
    /// A `--resume` request cannot be honoured against the directory's
    /// checkpoint (config mismatch, different collection, or no resumable
    /// state).
    Resume(String),
    /// The memory governor exhausted its degradation ladder — pending
    /// postings were flushed and no GPU shed lowers the charge — and the
    /// resident state (dictionary arenas and device state) still does not
    /// fit the budget. Raised only when no rung is left; a larger
    /// `--mem-budget` (or 0 = unlimited) is the fix.
    MemoryBudgetExceeded {
        /// The effective budget at the moment of the abort, bytes.
        budget: u64,
        /// Resident bytes the minimal configuration still needs.
        needed: u64,
    },
    /// A flushed run does not come after its indexer's runs: the state a
    /// build resumed from counts fewer runs than it holds run files.
    RunOrder {
        /// The indexer that flushed the run.
        indexer: u32,
        /// The run it flushed.
        run: u32,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::File(fault) => write!(f, "indexing aborted: {fault}"),
            PipelineError::Io(e) => write!(f, "index artifact write failed: {e}"),
            PipelineError::Store(e) => write!(f, "index store: {e}"),
            PipelineError::Resume(why) => write!(f, "cannot resume: {why}"),
            PipelineError::MemoryBudgetExceeded { budget, needed } => write!(
                f,
                "memory budget exceeded: {needed} resident bytes needed after early \
                 flushes and GPU sheds, over the budget of {budget} (raise --mem-budget \
                 or pass 0 for unlimited)"
            ),
            PipelineError::RunOrder { indexer, run } => write!(
                f,
                "run {run} of indexer {indexer} does not follow the runs it already holds \
                 (does the checkpoint's run count match its run files?)"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Io(e) => Some(e),
            PipelineError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e)
    }
}

impl From<ii_store::StoreError> for PipelineError {
    fn from(e: ii_store::StoreError) -> Self {
        PipelineError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = FaultPolicy::default();
        assert!(p.backoff_for(1) < p.backoff_for(3));
        // Capped: absurd attempt numbers don't overflow.
        assert_eq!(p.backoff_for(50), p.backoff_for(7));
    }

    #[test]
    fn jittered_backoff_stays_within_equal_jitter_bounds() {
        let p = FaultPolicy::default().with_max_retries(8);
        for attempt in 1..=8u32 {
            let base = p.backoff_for(attempt);
            for salt in 0..200u64 {
                let j = p.jittered_backoff(attempt, salt);
                assert!(j >= base / 2, "attempt {attempt} salt {salt}: {j:?} < {:?}", base / 2);
                assert!(j <= base, "attempt {attempt} salt {salt}: {j:?} > {base:?}");
            }
        }
        // Deterministic: same (attempt, salt) -> same delay.
        assert_eq!(p.jittered_backoff(3, 42), p.jittered_backoff(3, 42));
        // Actually jittered: different salts must not all collapse to one
        // value (that would be synchronized retries again).
        let distinct: std::collections::HashSet<Duration> =
            (0..50).map(|s| p.jittered_backoff(4, s)).collect();
        assert!(distinct.len() > 10, "only {} distinct delays", distinct.len());
        // Zero-base policies degrade gracefully.
        let zero = FaultPolicy { retry_backoff: Duration::ZERO, ..FaultPolicy::default() };
        assert_eq!(zero.jittered_backoff(1, 7), Duration::ZERO);
    }

    #[test]
    fn worker_fault_plans_are_seeded_and_queryable() {
        let plan = WorkerFaultPlan::none()
            .kill(WorkerClass::GpuIndexer, 0, 3)
            .stall(WorkerClass::Parser, 1, 5, Duration::from_millis(50));
        assert!(!plan.is_empty());
        assert_eq!(
            plan.fault_at(WorkerClass::GpuIndexer, 0, 3),
            Some(WorkerFaultKind::Kill)
        );
        // A parser fault is keyed by file: its index (1) is ignored.
        assert_eq!(
            plan.parser_fault_at(5),
            Some(WorkerFaultKind::Stall(Duration::from_millis(50)))
        );
        assert_eq!(plan.parser_fault_at(3), None, "file 3 holds the GPU's kill");
        // Seeded generation is deterministic and respects the topology.
        let a = WorkerFaultPlan::seeded(99, 2, 1, 10, 3);
        let b = WorkerFaultPlan::seeded(99, 2, 1, 10, 3);
        assert_eq!(a.faults.len(), b.faults.len());
        for (x, y) in a.faults.iter().zip(&b.faults) {
            assert_eq!((x.class, x.index, x.at, x.kind), (y.class, y.index, y.at, y.kind));
        }
        let no_gpus = WorkerFaultPlan::seeded(7, 2, 0, 10, 8);
        assert!(no_gpus.faults.iter().all(|f| f.class != WorkerClass::GpuIndexer));
        assert!(WorkerFaultPlan::seeded(1, 2, 1, 0, 3).is_empty(), "no files, no faults");
        // A driver sleep is a fault-plan entry of its own, keyed by batch.
        let nap = WorkerFaultPlan::none().sleep_driver(2, Duration::from_millis(5));
        assert!(!nap.is_empty(), "a sleep-only plan is not empty");
        assert_eq!(nap.driver_sleep_at(2), Duration::from_millis(5));
        assert_eq!(nap.driver_sleep_at(3), Duration::ZERO);
    }

    #[test]
    fn budget_squeezes_are_seeded_bounded_and_queryable() {
        let plan = WorkerFaultPlan::none().squeeze(3, 1 << 20).squeeze(3, 1 << 18);
        assert!(!plan.is_empty(), "a squeeze-only plan is not empty");
        assert_eq!(plan.squeeze_at(3), Some(1 << 18), "tightest squeeze wins");
        assert_eq!(plan.squeeze_at(4), None);
        let base = 64 << 20;
        let a = WorkerFaultPlan::none().seeded_squeezes(11, 20, base, 4);
        let b = WorkerFaultPlan::none().seeded_squeezes(11, 20, base, 4);
        assert_eq!(a.squeezes, b.squeezes, "same seed, same schedule");
        for s in &a.squeezes {
            assert!(s.at < 20);
            assert!(s.budget_bytes >= base / 4 && s.budget_bytes <= base, "{s:?}");
        }
        assert!(
            WorkerFaultPlan::none().seeded_squeezes(5, 0, base, 4).is_empty(),
            "no batches, no squeezes"
        );
    }

    #[test]
    fn report_summary_and_cleanliness() {
        let mut r = FaultReport::default();
        assert!(r.is_clean());
        assert_eq!(r.summary(), "no faults");
        r.retries = 2;
        r.recovered_files = 1;
        r.quarantined.push(FileFault {
            file_idx: 4,
            class: FaultClass::Permanent,
            retries: 0,
            stage: FaultStage::Parsing,
            error: "container checksum mismatch".into(),
        });
        assert!(!r.is_clean());
        assert_eq!(r.quarantined_files(), vec![4]);
        assert!(r.summary().contains("1 quarantined"));
    }

    #[test]
    fn errors_display_context() {
        let e = PipelineError::File(FileFault {
            file_idx: 7,
            class: FaultClass::Transient,
            retries: 3,
            stage: FaultStage::Parsing,
            error: "read failed: injected".into(),
        });
        let s = e.to_string();
        assert!(s.contains("file 7") && s.contains("transient"), "{s}");
    }
}
