//! Supervision's vocabulary: why a worker died, the stall-timeout policy,
//! and the degradation ledger.
//!
//! Two kinds of worker can die: parser threads, which are real threads, and
//! GPU indexers, whose device state is real. Everything else — every CPU
//! indexer shard, and the shard of a dead GPU — runs on the driver thread.
//! Every worker has a liveness beacon ([`ii_obs::Heartbeat`]) that the
//! driver creates and the worker's existing trace spans bump, so liveness
//! needs no new instrumentation. A parser is declared dead when it panics,
//! disconnects, or stays silent past the configured stall timeout, and the
//! file it claimed is re-ingested inline on the driver; a GPU dies when its
//! shard panics or a seeded kill fires, and its shard is salvaged onto the
//! driver ([`ii_indexer::IndexerPool::kill_gpu`]). A panic inside a CPU
//! shard kills nobody: it is a lossy incident. Everything that happened is
//! recorded in the driver's [`SupervisionReport`], which the operator sees
//! in the build report and `ii build --stats`.

use crate::fault::WorkerClass;
use std::time::Duration;

/// Why the watchdog declared a worker dead.
#[derive(Clone, Debug)]
pub enum DeathCause {
    /// The worker panicked; contained by `catch_unwind`.
    Panic(String),
    /// The worker made no progress for this long (heartbeat silence past
    /// the stall timeout).
    Stall(Duration),
    /// The worker left with work it had claimed still undelivered.
    Disconnect,
    /// A seeded fault-injection kill (chaos testing).
    Injected,
}

impl std::fmt::Display for DeathCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeathCause::Panic(msg) => write!(f, "panic: {msg}"),
            DeathCause::Stall(d) => write!(f, "stalled for {:.1}s", d.as_secs_f64()),
            DeathCause::Disconnect => write!(f, "disconnected"),
            DeathCause::Injected => write!(f, "injected kill"),
        }
    }
}

/// One worker death, as recorded by the watchdog.
#[derive(Clone, Debug)]
pub struct WorkerDeath {
    /// Which class of worker died.
    pub class: WorkerClass,
    /// Worker index within its class.
    pub index: usize,
    /// Why the watchdog declared it dead.
    pub cause: DeathCause,
}

impl std::fmt::Display for WorkerDeath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} died ({})", self.class, self.index, self.cause)
    }
}

/// The supervisor's knob. Supervision is always on.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorPolicy {
    /// Heartbeat silence after which a worker is declared dead. Progress
    /// beats come from the worker's trace spans (per file read /
    /// decompress / parse step) and a parser's claims, so the timeout
    /// bounds *per-step* silence, not per-file latency.
    pub stall_timeout: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy { stall_timeout: Duration::from_secs(30) }
    }
}

impl SupervisorPolicy {
    /// Same policy with a different stall timeout.
    pub fn with_stall_timeout(mut self, d: Duration) -> Self {
        self.stall_timeout = d;
        self
    }

    /// How often the consumer looks at the claimer it waits on:
    /// `stall_timeout / 4` clamped to `[1 ms, 500 ms]` — fast enough to
    /// notice a stall promptly without busy-waiting.
    pub fn effective_poll_interval(&self) -> Duration {
        (self.stall_timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(500))
    }
}

/// Everything the supervisor did (and survived) during one build: the
/// degradation ledger surfaced in the build report, `--stats`, and
/// `--strict`.
#[derive(Clone, Debug, Default)]
pub struct SupervisionReport {
    /// Workers declared dead, in declaration order.
    pub deaths: Vec<WorkerDeath>,
    /// Shards salvaged off dead GPUs onto the driver thread: one per GPU
    /// death.
    pub reassignments: u32,
    /// Files the driver ingested inline for a dead claimer, or with no
    /// parser left.
    pub inline_parsed_files: u32,
    /// Wall seconds the adopted shards of dead GPUs spent indexing on the
    /// driver thread.
    pub fallback_seconds: f64,
    /// Commit retries — a checkpoint's or the final one's — after
    /// retriable storage errors (disk full).
    pub commit_retries: u32,
    /// Incidents where exact work could not be preserved: a shard that
    /// panicked mid-batch, with unknown progress. A build with lossy
    /// incidents completed, but without the byte-identity guarantee.
    pub lossy_incidents: Vec<String>,
}

impl SupervisionReport {
    /// True when no worker died, nothing was reassigned, and no commit
    /// needed retrying.
    pub fn is_clean(&self) -> bool {
        self.deaths.is_empty()
            && self.reassignments == 0
            && self.inline_parsed_files == 0
            && self.commit_retries == 0
            && self.lossy_incidents.is_empty()
    }

    /// Worker deaths of a given class.
    pub fn deaths_of(&self, class: WorkerClass) -> usize {
        self.deaths.iter().filter(|d| d.class == class).count()
    }

    /// One-line operator summary of the degradation state.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            "all workers healthy".to_string()
        } else {
            let mut s = format!(
                "{} worker deaths ({} parser, {} gpu), {} shards reassigned, \
                 {} files re-parsed inline, {} commit retries",
                self.deaths.len(),
                self.deaths_of(WorkerClass::Parser),
                self.deaths_of(WorkerClass::GpuIndexer),
                self.reassignments,
                self.inline_parsed_files,
                self.commit_retries,
            );
            if !self.lossy_incidents.is_empty() {
                s.push_str(&format!(", {} LOSSY incidents", self.lossy_incidents.len()));
            }
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_summary_flags_lossy_incidents() {
        let mut r = SupervisionReport::default();
        assert!(r.is_clean());
        assert_eq!(r.summary(), "all workers healthy");
        r.lossy_incidents.push("gpu-1 panicked mid-launch".into());
        assert!(!r.is_clean());
        assert!(r.summary().contains("1 LOSSY"), "{}", r.summary());
        let mut r2 = SupervisionReport { commit_retries: 2, ..Default::default() };
        assert!(!r2.is_clean(), "commit retries are a degradation signal");
        r2.commit_retries = 0;
        r2.inline_parsed_files = 3;
        assert!(!r2.is_clean());
    }

    #[test]
    fn policy_defaults_and_knobs() {
        let p = SupervisorPolicy::default();
        assert_eq!(p.stall_timeout, Duration::from_secs(30));
        let quick = SupervisorPolicy::default().with_stall_timeout(Duration::from_millis(5));
        assert_eq!(quick.stall_timeout, Duration::from_millis(5));
    }

    #[test]
    fn poll_interval_derives_from_stall_timeout() {
        let p = SupervisorPolicy::default();
        // 30 s / 4 clamps to the 500 ms ceiling (the historical constant).
        assert_eq!(p.effective_poll_interval(), Duration::from_millis(500));
        let tight = p.with_stall_timeout(Duration::from_millis(80));
        assert_eq!(tight.effective_poll_interval(), Duration::from_millis(20));
        let tiny = tight.with_stall_timeout(Duration::from_micros(100));
        assert_eq!(tiny.effective_poll_interval(), Duration::from_millis(1), "1 ms floor");
    }
}
