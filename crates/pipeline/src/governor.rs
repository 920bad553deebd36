//! The memory-budget governor: end-to-end byte accounting and adaptive
//! backpressure (the paper's flush-when-full discipline, §III.F).
//!
//! The source system builds inverted files under a *fixed memory budget*:
//! partial runs are flushed when memory fills and merged hierarchically.
//! This module makes that budget explicit. A [`MemoryGovernor`] tracks
//! live bytes across every stage of the pipeline — in-flight parsed
//! batches (in the hand-off and parked for their turn), per-shard
//! dictionary arenas, pending postings, and simulated-GPU device state —
//! against a hard budget (`--mem-budget`; 0 = unlimited), and degrades
//! gracefully and *deterministically* under pressure:
//!
//! 1. **Backpressure** — parsers must acquire byte credits from a bounded
//!    gate before a batch enters the in-flight queues; blocked time is
//!    attributed to [`TraceKind::MemoryWait`], distinct from queue-wait.
//! 2. **Adaptive run sizing** — the driver flushes runs early when
//!    resident postings cross the budget's flush watermark. Run
//!    boundaries land in the checkpoint/manifest and merges are
//!    associative, so the output stays byte-identical (dictionary) and
//!    logically identical (postings) to any other budget.
//! 3. **Shed** — under sustained pressure the pool parks GPU shards onto
//!    the CPU salvage path and continues CPU-only.
//! 4. **Typed abort** — [`PipelineError::MemoryBudgetExceeded`] fires
//!    only when even the minimal configuration cannot fit.
//!
//! The budget splits statically: the credit gate admits at most ¼ of the
//! effective budget of in-flight batch bytes, leaving ¾ for resident
//! state. The gate is accounted per parser and always admits a parser
//! with nothing outstanding. The parser the in-order consumer waits on is
//! one: it claimed the awaited file, and every file it claimed before lies
//! below that one, so it has been consumed and its credit released. So
//! backpressure can never deadlock the pipeline; each parser may overshoot
//! the gate by at most one batch. The consumer, which claims files itself
//! while it would otherwise wait (DESIGN.md §5), has a ledger of its own
//! and only ever *tries* the gate: it is the thread that returns credits
//! and must never wait for one. Every pressure decision
//! keys on *deterministic* quantities (arena sizes and pending-posting counts at
//! batch boundaries — never wall-clock or queue timing), so a given
//! `(budget, squeeze schedule)` replays exactly.
//!
//! [`PipelineError::MemoryBudgetExceeded`]: crate::fault::PipelineError::MemoryBudgetExceeded

use ii_obs::{TraceKind, TraceSink};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Sentinel for "no budget" in the effective-budget atomic.
const UNLIMITED: u64 = u64::MAX;

/// The governor's knobs, carried on the pipeline configuration. All of
/// them change *run boundaries* (not logical output), so they are part of
/// the checkpoint config fingerprint: resuming under different governor
/// knobs is refused rather than risking a byte-divergent resume.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GovernorPolicy {
    /// Hard memory budget in bytes; 0 disables the governor's limits
    /// (accounting still runs, so high-water marks are always measured).
    pub budget_bytes: u64,
    /// Fraction of the resident share at which runs are flushed early
    /// (the flush-when-full watermark).
    pub flush_watermark: f64,
    /// Fraction of the resident share at which, when an early flush was
    /// not enough, GPU shards are shed onto the CPU salvage path.
    pub shed_watermark: f64,
}

impl Default for GovernorPolicy {
    fn default() -> Self {
        GovernorPolicy {
            budget_bytes: 512 << 20,
            flush_watermark: 0.5,
            shed_watermark: 0.85,
        }
    }
}

impl GovernorPolicy {
    /// No budget: accounting only.
    pub fn unlimited() -> Self {
        GovernorPolicy { budget_bytes: 0, ..GovernorPolicy::default() }
    }

    /// A policy with the given hard budget (0 = unlimited).
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.budget_bytes = bytes;
        self
    }
}

/// The resident share of a `budget`: what is left of it after the credit
/// gate's quarter.
pub(crate) fn resident_share(budget: u64) -> u64 {
    budget - (budget / 4).max(1).min(budget)
}

/// Live byte accounting per pool, as last probed by the driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolBytes {
    /// Dictionary arenas (slotted nodes + string remainders + trie roots)
    /// across CPU shards and adopted continuations.
    pub dict: u64,
    /// Pending (un-flushed) postings across CPU shards and adopted
    /// continuations.
    pub postings: u64,
    /// Simulated-GPU device memory in use across live GPUs.
    pub device: u64,
}

impl PoolBytes {
    /// Total resident bytes.
    pub fn total(&self) -> u64 {
        self.dict + self.postings + self.device
    }
}

/// Per-holder credit ledger behind the gate mutex. The split matters for
/// liveness: the driver consumes batches in *file order*, and parsers claim
/// files in rising order, so the parser it is waiting on — the claimer of
/// the awaited file — has had every earlier batch consumed: it holds
/// **zero outstanding credit**. Admitting such a parser
/// unconditionally (even over a full gate) means the consumer's next
/// batch always arrives, the gate drains, and the pipeline cannot wedge
/// with credit parked on queued batches the driver will not take yet.
/// Each parser can overshoot the gate by at most one batch, so the
/// in-flight bound is `capacity + num_parsers × max_batch` — still O(1)
/// per worker, and the accounting (not the cap) feeds the high-water mark.
#[derive(Default)]
struct GateState {
    /// Total bytes out on credit across all holders.
    total: u64,
    /// Outstanding bytes per ledger slot (grown on demand): slot 0 is the
    /// consumer's, slot `p + 1` parser `p`'s.
    per: Vec<u64>,
}

impl GateState {
    fn held(&self, slot: usize) -> u64 {
        self.per.get(slot).copied().unwrap_or(0)
    }

    fn take(&mut self, slot: usize, bytes: u64) {
        if self.per.len() <= slot {
            self.per.resize(slot + 1, 0);
        }
        self.per[slot] = self.per[slot].saturating_add(bytes);
        self.total = self.total.saturating_add(bytes);
    }
}

/// Ledger slot of a credit holder: `None` is the consumer thread.
fn slot_of(holder: Option<usize>) -> usize {
    holder.map_or(0, |parser| parser + 1)
}

struct GovernorShared {
    policy: GovernorPolicy,
    /// Effective budget: starts at `policy.budget_bytes` (or
    /// [`UNLIMITED`]) and only ever shrinks (squeezes).
    effective: AtomicU64,
    /// Bytes currently out on credit (in-flight parsed batches), guarded
    /// by the gate mutex so waiters can sleep on the condvar.
    gate: Mutex<GateState>,
    cv: Condvar,
    closed: AtomicBool,
    // Accounting (gauges + counters surfaced via `governor.*`).
    dict_bytes: AtomicU64,
    postings_bytes: AtomicU64,
    device_bytes: AtomicU64,
    inflight_bytes: AtomicU64,
    high_water: AtomicU64,
    credit_waits: AtomicU64,
    credit_wait_ns: AtomicU64,
    early_flushes: AtomicU64,
    gpu_sheds: AtomicU64,
    squeezes: AtomicU64,
}

/// The pipeline's memory accountant. Clone-able; clones share state, so
/// the driver, every parser thread, and the stats renderer all see one
/// ledger. All methods are thread-safe.
#[derive(Clone)]
pub struct MemoryGovernor {
    inner: Arc<GovernorShared>,
}

impl std::fmt::Debug for MemoryGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryGovernor")
            .field("policy", &self.inner.policy)
            .field("effective", &self.effective_budget())
            .field("resident", &self.resident().total())
            .field("inflight", &self.inflight_bytes())
            .field("high_water", &self.high_water())
            .finish()
    }
}

impl Default for MemoryGovernor {
    fn default() -> Self {
        MemoryGovernor::new(GovernorPolicy::unlimited())
    }
}

impl MemoryGovernor {
    /// A governor enforcing `policy`.
    pub fn new(policy: GovernorPolicy) -> Self {
        let effective =
            if policy.budget_bytes == 0 { UNLIMITED } else { policy.budget_bytes };
        MemoryGovernor {
            inner: Arc::new(GovernorShared {
                policy,
                effective: AtomicU64::new(effective),
                gate: Mutex::new(GateState::default()),
                cv: Condvar::new(),
                closed: AtomicBool::new(false),
                dict_bytes: AtomicU64::new(0),
                postings_bytes: AtomicU64::new(0),
                device_bytes: AtomicU64::new(0),
                inflight_bytes: AtomicU64::new(0),
                high_water: AtomicU64::new(0),
                credit_waits: AtomicU64::new(0),
                credit_wait_ns: AtomicU64::new(0),
                early_flushes: AtomicU64::new(0),
                gpu_sheds: AtomicU64::new(0),
                squeezes: AtomicU64::new(0),
            }),
        }
    }

    /// A governor with no budget (accounting only).
    pub fn unlimited() -> Self {
        MemoryGovernor::new(GovernorPolicy::unlimited())
    }

    /// The policy this governor was built with.
    pub fn policy(&self) -> &GovernorPolicy {
        &self.inner.policy
    }

    /// Whether a hard budget is currently in force.
    pub fn is_limited(&self) -> bool {
        self.inner.effective.load(Relaxed) != UNLIMITED
    }

    /// The effective budget in bytes (0 when unlimited). Starts at the
    /// configured budget, shrinks under injected squeezes.
    pub fn effective_budget(&self) -> u64 {
        match self.inner.effective.load(Relaxed) {
            UNLIMITED => 0,
            b => b,
        }
    }

    /// In-flight credit-gate capacity: ¼ of the effective budget.
    fn gate_capacity(&self) -> u64 {
        match self.inner.effective.load(Relaxed) {
            UNLIMITED => UNLIMITED,
            b => (b / 4).max(1),
        }
    }

    /// The share of the budget resident state (dictionaries, pending
    /// postings, device memory) may use: budget minus the credit gate.
    pub fn resident_budget(&self) -> u64 {
        match self.inner.effective.load(Relaxed) {
            UNLIMITED => UNLIMITED,
            b => resident_share(b),
        }
    }

    /// Shrink the effective budget to `bytes` (a seeded allocation-
    /// pressure squeeze). Never raises the budget; `bytes == 0` is
    /// ignored (a squeeze cannot *remove* the budget).
    pub fn squeeze_to(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut cur = self.inner.effective.load(Relaxed);
        while bytes < cur {
            match self.inner.effective.compare_exchange(cur, bytes, Relaxed, Relaxed) {
                Ok(_) => {
                    self.inner.squeezes.fetch_add(1, Relaxed);
                    // Capacity shrank: wake waiters so they re-evaluate
                    // (they will simply keep waiting under the new limit).
                    self.inner.cv.notify_all();
                    return;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Blocking byte-credit acquire (`parser`'s thread, before sending a
    /// batch downstream). Returns once the gate admits `bytes` of
    /// in-flight payload. A parser with **no outstanding credit** is
    /// admitted unconditionally: the driver consumes batches in file
    /// order and parsers claim in rising file order, so the claimer of the
    /// file it is waiting on has, by construction, nothing in flight —
    /// blocking it while other parsers' queued batches hold
    /// the gate's credit would deadlock the pipeline until the watchdog
    /// shot an innocent thread. (This also admits a batch larger than the
    /// whole gate, degrading to serial operation.) Blocked time is
    /// recorded as a [`TraceKind::MemoryWait`] span on `sink` and in the
    /// `governor.credit_waits` / `credit_wait_ns` counters; the wait loop
    /// keeps beating `sink`'s heartbeat so backpressure is never mistaken
    /// for a stalled worker.
    pub fn acquire(&self, parser: usize, bytes: u64, sink: &TraceSink) {
        if bytes == 0 {
            // Fault messages carry no payload; they must never block
            // (the gate can legitimately sit over capacity after an
            // unconditional admission).
            return;
        }
        let inner = &*self.inner;
        let slot = slot_of(Some(parser));
        let mut gate = inner.gate.lock().unwrap();
        if gate.held(slot) > 0 && gate.total.saturating_add(bytes) > self.gate_capacity() {
            inner.credit_waits.fetch_add(1, Relaxed);
            let span = sink.span(TraceKind::MemoryWait);
            let t0 = Instant::now();
            while !inner.closed.load(Relaxed)
                && gate.held(slot) > 0
                && gate.total.saturating_add(bytes) > self.gate_capacity()
            {
                // Timed wait: a driver that tears down without draining
                // (error paths) closes the gate, and the timeout bounds
                // the window in which a waiter could miss that signal.
                let (g, _) = inner.cv.wait_timeout(gate, Duration::from_millis(20)).unwrap();
                gate = g;
                sink.beat();
            }
            inner.credit_wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
            drop(span);
        }
        gate.take(slot, bytes);
        let now_out = gate.total;
        drop(gate);
        inner.inflight_bytes.store(now_out, Relaxed);
        self.bump_high_water(now_out);
    }

    /// Non-blocking acquire for the consumer thread, before it ingests a
    /// file itself: takes `bytes` on the consumer's ledger and returns
    /// true only if the gate has that much room *now*. No unconditional
    /// admission and no wait — every credit comes back through this very
    /// thread, so waiting here could never end; a refusal just means the
    /// consumer waits for the file's claimer as it always did.
    pub fn try_acquire(&self, bytes: u64) -> bool {
        let mut gate = self.inner.gate.lock().unwrap();
        if gate.total.saturating_add(bytes) > self.gate_capacity() {
            return false;
        }
        gate.take(slot_of(None), bytes);
        let now_out = gate.total;
        drop(gate);
        self.inner.inflight_bytes.store(now_out, Relaxed);
        self.bump_high_water(now_out);
        true
    }

    /// Return `bytes` of `holder`'s credit (driver side, when a batch is
    /// consumed): `Some(p)` is the parser that acquired them,
    /// `None` the consumer's own ledger. The holder travels with the batch
    /// ([`ParsedFile::parser`]) because it cannot be worked out from the
    /// file index: a live parser whose file the consumer ingested holds
    /// credit for *other* batches, which must not be handed back early.
    /// Clamped to what the holder has, so over-returning cannot corrupt
    /// another ledger.
    ///
    /// [`ParsedFile::parser`]: crate::parsers::ParsedFile::parser
    pub fn release(&self, holder: Option<usize>, bytes: u64) {
        let slot = slot_of(holder);
        let mut gate = self.inner.gate.lock().unwrap();
        let returned = gate.held(slot).min(bytes);
        if let Some(held) = gate.per.get_mut(slot) {
            *held -= returned;
        }
        gate.total = gate.total.saturating_sub(returned);
        self.inner.inflight_bytes.store(gate.total, Relaxed);
        drop(gate);
        self.inner.cv.notify_all();
    }

    /// Close the gate: wake every waiter and admit everything. Called on
    /// build teardown (success or error) so parser threads never stay
    /// parked on the credit gate after the consumer is gone.
    pub fn close(&self) {
        self.inner.closed.store(true, Relaxed);
        self.inner.cv.notify_all();
    }

    /// Record a driver-side probe of the resident pools (taken at batch
    /// boundaries, where the figures are deterministic).
    pub fn note_resident(&self, pools: PoolBytes) {
        self.inner.dict_bytes.store(pools.dict, Relaxed);
        self.inner.postings_bytes.store(pools.postings, Relaxed);
        self.inner.device_bytes.store(pools.device, Relaxed);
        let total = pools.total() + self.inner.inflight_bytes.load(Relaxed);
        self.bump_high_water(total);
    }

    fn bump_high_water(&self, candidate: u64) {
        let resident = self.resident().total();
        let inflight = self.inner.inflight_bytes.load(Relaxed);
        let v = candidate.max(resident + inflight);
        self.inner.high_water.fetch_max(v, Relaxed);
    }

    /// The last probed per-pool resident bytes.
    pub fn resident(&self) -> PoolBytes {
        PoolBytes {
            dict: self.inner.dict_bytes.load(Relaxed),
            postings: self.inner.postings_bytes.load(Relaxed),
            device: self.inner.device_bytes.load(Relaxed),
        }
    }

    /// Bytes currently out on in-flight batch credit.
    pub fn inflight_bytes(&self) -> u64 {
        self.inner.inflight_bytes.load(Relaxed)
    }

    /// Most bytes ever simultaneously live (resident + in-flight).
    pub fn high_water(&self) -> u64 {
        self.inner.high_water.load(Relaxed)
    }

    /// Rung 2 of the ladder: should the driver flush the current run
    /// early? True when resident state crossed the flush watermark and
    /// there are pending postings to flush.
    pub fn should_flush_early(&self) -> bool {
        if !self.is_limited() {
            return false;
        }
        let r = self.resident();
        r.postings > 0
            && r.total() as f64
                > self.inner.policy.flush_watermark * self.resident_budget() as f64
    }

    /// Rung 3: should the pool shed a GPU shard? True when, *after*
    /// flushing, resident state still sits above the shed watermark.
    pub fn should_shed(&self) -> bool {
        self.is_limited()
            && self.resident().total() as f64
                > self.inner.policy.shed_watermark * self.resident_budget() as f64
    }

    /// Rung 4: the ladder is exhausted — resident state alone no longer
    /// fits the resident share of the budget. Returns `(budget, needed)`
    /// for the typed abort.
    pub fn budget_exceeded(&self) -> Option<(u64, u64)> {
        if !self.is_limited() {
            return None;
        }
        let needed = self.resident().total();
        (needed > self.resident_budget()).then(|| (self.effective_budget(), needed))
    }

    /// Count one early (watermark-triggered) run flush.
    pub fn record_early_flush(&self) {
        self.inner.early_flushes.fetch_add(1, Relaxed);
    }

    /// Count one GPU shard shed onto the CPU salvage path.
    pub fn record_shed(&self) {
        self.inner.gpu_sheds.fetch_add(1, Relaxed);
    }

    /// Times a parser blocked on the credit gate.
    pub fn credit_waits(&self) -> u64 {
        self.inner.credit_waits.load(Relaxed)
    }

    /// Total nanoseconds parsers spent blocked on the credit gate.
    pub fn credit_wait_ns(&self) -> u64 {
        self.inner.credit_wait_ns.load(Relaxed)
    }

    /// Early flushes triggered by the watermark.
    pub fn early_flushes(&self) -> u64 {
        self.inner.early_flushes.load(Relaxed)
    }

    /// GPU shards shed under memory pressure.
    pub fn gpu_sheds(&self) -> u64 {
        self.inner.gpu_sheds.load(Relaxed)
    }

    /// Budget squeezes applied.
    pub fn squeezes(&self) -> u64 {
        self.inner.squeezes.load(Relaxed)
    }

    /// Export the ledger into a metrics registry as `governor.*` gauges
    /// and counters (the `--stats` / `--stats-json` surface).
    pub fn export(&self, registry: &ii_obs::Registry) {
        let r = self.resident();
        registry.gauge("governor.budget_bytes").set(self.inner.policy.budget_bytes as i64);
        registry.gauge("governor.effective_budget_bytes").set(self.effective_budget() as i64);
        registry.gauge("governor.dict_bytes").set(r.dict as i64);
        registry.gauge("governor.postings_bytes").set(r.postings as i64);
        registry.gauge("governor.device_bytes").set(r.device as i64);
        registry.gauge("governor.inflight_bytes").set(self.inflight_bytes() as i64);
        registry.gauge("governor.high_water_bytes").set(self.high_water() as i64);
        registry.counter("governor.credit_waits").add(self.credit_waits());
        registry.counter("governor.credit_wait_ns").add(self.credit_wait_ns());
        registry.counter("governor.early_flushes").add(self.early_flushes());
        registry.counter("governor.gpu_sheds").add(self.gpu_sheds());
        registry.counter("governor.squeezes").add(self.squeezes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn unlimited_governor_accounts_but_never_blocks() {
        let g = MemoryGovernor::unlimited();
        assert!(!g.is_limited());
        assert_eq!(g.effective_budget(), 0);
        let sink = TraceSink::disabled();
        g.acquire(0, 10 << 20, &sink);
        g.acquire(1, 10 << 20, &sink);
        assert_eq!(g.inflight_bytes(), 20 << 20);
        g.note_resident(PoolBytes { dict: 1 << 20, postings: 2 << 20, device: 3 << 20 });
        assert_eq!(g.resident().total(), 6 << 20);
        assert_eq!(g.high_water(), 26 << 20);
        assert!(!g.should_flush_early());
        assert!(!g.should_shed());
        assert!(g.budget_exceeded().is_none());
        assert_eq!(g.credit_waits(), 0);
        g.release(Some(0), 10 << 20);
        g.release(Some(1), 10 << 20);
        assert_eq!(g.inflight_bytes(), 0);
        assert_eq!(g.high_water(), 26 << 20, "high water is sticky");
    }

    #[test]
    fn credit_gate_blocks_until_release_and_counts_waits() {
        let g = MemoryGovernor::new(GovernorPolicy::default().with_budget(400));
        // Gate capacity = 100 bytes. Parser 0's first 60 passes; its
        // second 60 must wait (it already has a batch in flight).
        let sink = TraceSink::disabled();
        g.acquire(0, 60, &sink);
        let g2 = g.clone();
        let (tx, rx) = mpsc::channel();
        let t = thread::spawn(move || {
            g2.acquire(0, 60, &TraceSink::disabled());
            tx.send(()).unwrap();
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "second acquire must block while the gate is over capacity"
        );
        g.release(Some(0), 60);
        rx.recv_timeout(Duration::from_secs(5)).expect("release unblocks the waiter");
        t.join().unwrap();
        assert_eq!(g.credit_waits(), 1);
        assert!(g.credit_wait_ns() > 0);
        assert_eq!(g.inflight_bytes(), 60);
    }

    #[test]
    fn parser_with_no_outstanding_credit_is_always_admitted() {
        // Regression: the driver consumes in file order. Parser 1's queued
        // batch holds the whole gate while the driver waits on parser 0 —
        // blocking parser 0 here deadlocked the pipeline until the
        // watchdog declared it stalled (a ~30s wall per build).
        let g = MemoryGovernor::new(GovernorPolicy::default().with_budget(400));
        let sink = TraceSink::disabled();
        g.acquire(1, 95, &sink); // parser 1 fills the 100-byte gate
        g.acquire(0, 80, &sink); // parser 0 holds nothing: must not block
        assert_eq!(g.inflight_bytes(), 175);
        assert_eq!(g.credit_waits(), 0, "the laggard parser never waits");
        // Releasing an inline-parsed batch (its parser never acquired)
        // must not corrupt another parser's ledger.
        g.release(Some(2), 1000);
        assert_eq!(g.inflight_bytes(), 175);
        g.release(Some(0), 80);
        g.release(Some(1), 95);
        assert_eq!(g.inflight_bytes(), 0);
    }

    #[test]
    fn credit_returns_to_its_holder_not_to_the_files_owner() {
        // Parser 0 has file 0 in the hand-off (60 B) when the consumer
        // claims file 1 and ingests it itself. Releasing the consumer's
        // batch to the lone parser would, through the clamp, hand back the
        // credit of the batch still waiting.
        let g = MemoryGovernor::new(GovernorPolicy::default().with_budget(400));
        g.acquire(0, 60, &TraceSink::disabled());
        assert!(g.try_acquire(30), "60 + 30 fits the 100-byte gate");
        assert_eq!(g.inflight_bytes(), 90);
        g.release(None, 30);
        assert_eq!(g.inflight_bytes(), 60, "parser 0 still holds its queued batch");
        // A dead parser's file re-ingested inline holds nothing anywhere.
        g.release(None, 0);
        g.release(None, 1000);
        assert_eq!(g.inflight_bytes(), 60, "the consumer's ledger was empty: clamped");
        g.release(Some(0), 60);
        assert_eq!(g.inflight_bytes(), 0);
    }

    #[test]
    fn try_acquire_never_waits_and_never_overshoots() {
        let g = MemoryGovernor::new(GovernorPolicy::default().with_budget(400));
        let sink = TraceSink::disabled();
        // Unlike a parser, the consumer is not admitted over a full gate
        // just because it holds nothing: it is never the thread the
        // pipeline is waiting on.
        assert!(!g.try_acquire(101), "larger than the whole gate");
        g.acquire(0, 80, &sink);
        assert!(!g.try_acquire(21));
        assert!(g.try_acquire(20));
        assert!(!g.try_acquire(1), "full");
        assert_eq!(g.inflight_bytes(), 100);
        assert_eq!(g.credit_waits(), 0, "a refusal is not a wait");
        g.release(Some(0), 80);
        assert!(g.try_acquire(80), "room again once the parser's batch is consumed");
        g.release(None, 100);
        assert_eq!(g.inflight_bytes(), 0);
        assert!(MemoryGovernor::unlimited().try_acquire(u64::MAX / 2));
    }

    #[test]
    fn blocked_acquire_keeps_beating_the_heartbeat() {
        let g = MemoryGovernor::new(GovernorPolicy::default().with_budget(400));
        g.acquire(0, 90, &TraceSink::disabled());
        let hb = Arc::new(ii_obs::Heartbeat::new());
        let sink = TraceSink::disabled().with_heartbeat(Arc::clone(&hb));
        let before = hb.beats();
        let g2 = g.clone();
        let t = thread::spawn(move || g2.acquire(0, 90, &sink));
        thread::sleep(Duration::from_millis(120));
        assert!(
            hb.beats() > before,
            "a parser parked on the credit gate must keep proving liveness"
        );
        g.release(Some(0), 90);
        t.join().unwrap();
    }

    #[test]
    fn oversize_batch_is_admitted_alone() {
        let g = MemoryGovernor::new(GovernorPolicy::default().with_budget(400));
        let sink = TraceSink::disabled();
        // 250 > the 100-byte gate, but this parser holds nothing: admit it
        // rather than deadlock.
        g.acquire(0, 250, &sink);
        assert_eq!(g.inflight_bytes(), 250);
        g.release(Some(0), 250);
        assert_eq!(g.inflight_bytes(), 0);
    }

    #[test]
    fn close_unblocks_waiters() {
        let g = MemoryGovernor::new(GovernorPolicy::default().with_budget(400));
        g.acquire(0, 90, &TraceSink::disabled());
        let g2 = g.clone();
        let t = thread::spawn(move || g2.acquire(0, 90, &TraceSink::disabled()));
        thread::sleep(Duration::from_millis(20));
        g.close();
        t.join().expect("closed gate admits everyone");
    }

    #[test]
    fn ladder_rungs_trigger_in_order() {
        let g = MemoryGovernor::new(GovernorPolicy {
            budget_bytes: 1000,
            flush_watermark: 0.5,
            shed_watermark: 0.85,
        });
        // Resident share = 1000 - 250 = 750.
        assert_eq!(g.resident_budget(), 750);
        g.note_resident(PoolBytes { dict: 100, postings: 100, device: 0 });
        assert!(!g.should_flush_early());
        g.note_resident(PoolBytes { dict: 200, postings: 300, device: 0 });
        assert!(g.should_flush_early(), "500 > 0.5 * 750 is false; 500 > 375");
        assert!(!g.should_shed());
        g.note_resident(PoolBytes { dict: 200, postings: 0, device: 480 });
        assert!(!g.should_flush_early(), "nothing pending to flush");
        assert!(g.should_shed(), "680 > 0.85 * 750 = 637.5");
        assert!(g.budget_exceeded().is_none());
        g.note_resident(PoolBytes { dict: 800, postings: 0, device: 0 });
        assert_eq!(g.budget_exceeded(), Some((1000, 800)));
    }

    #[test]
    fn squeeze_only_shrinks_and_is_counted() {
        let g = MemoryGovernor::new(GovernorPolicy::default().with_budget(1000));
        g.squeeze_to(2000);
        assert_eq!(g.effective_budget(), 1000, "squeeze never raises");
        assert_eq!(g.squeezes(), 0);
        g.squeeze_to(600);
        assert_eq!(g.effective_budget(), 600);
        g.squeeze_to(600);
        assert_eq!(g.squeezes(), 1, "equal squeeze is a no-op");
        g.squeeze_to(0);
        assert_eq!(g.effective_budget(), 600, "zero squeeze ignored");
        // An unlimited governor can be squeezed into a limited one.
        let u = MemoryGovernor::unlimited();
        u.squeeze_to(512);
        assert!(u.is_limited());
        assert_eq!(u.effective_budget(), 512);
    }

    #[test]
    fn export_writes_governor_metrics() {
        let g = MemoryGovernor::new(GovernorPolicy::default().with_budget(4096));
        g.acquire(0, 100, &TraceSink::disabled());
        g.note_resident(PoolBytes { dict: 10, postings: 20, device: 30 });
        g.record_early_flush();
        g.record_shed();
        let r = ii_obs::Registry::new();
        g.export(&r);
        let snap = r.snapshot();
        assert_eq!(snap.gauges.get("governor.budget_bytes"), Some(&4096));
        assert_eq!(snap.gauges.get("governor.high_water_bytes"), Some(&160));
        assert_eq!(snap.counters.get("governor.early_flushes"), Some(&1));
        assert_eq!(snap.counters.get("governor.gpu_sheds"), Some(&1));
        let json = snap.to_json();
        assert!(json.contains("governor.credit_waits"), "{json}");
    }
}
