//! The memory-budget governor: end-to-end byte accounting and adaptive
//! backpressure (the paper's flush-when-full discipline, §III.F).
//!
//! The source system builds inverted files under a *fixed memory budget*:
//! partial runs are flushed when memory fills and merged hierarchically.
//! This module makes that budget explicit. A [`MemoryGovernor`] tracks
//! live bytes across every stage of the pipeline — in-flight parsed
//! batches (in the hand-off and parked for their turn), per-shard
//! dictionary arenas, pending postings, and simulated-GPU device state —
//! against one budget (`--mem-budget`; 0 = unlimited), and degrades
//! gracefully and *deterministically* when it fills:
//!
//! 1. **Backpressure** — parsers must acquire byte credits before a batch
//!    enters the in-flight queues; a parser is admitted while resident
//!    bytes, in-flight credit and its batch fit the budget. Blocked time is
//!    attributed to [`TraceKind::MemoryWait`], distinct from queue-wait.
//! 2. **The ladder** ([`ladder`]) — at each batch boundary, once resident
//!    bytes alone exceed the budget: flush the run early, then shed a GPU
//!    shard onto the CPU salvage path if that lowers the charge, then
//!    refuse with [`PipelineError::MemoryBudgetExceeded`]. Run boundaries
//!    land in the checkpoint/manifest and merges are associative, so the
//!    output stays byte-identical (dictionary) and logically identical
//!    (postings) to any other budget.
//!
//! There is one pool: credits take what resident state does not hold. The
//! gate is accounted per parser and always admits a parser with nothing
//! outstanding. The parser the in-order consumer waits on is one: it
//! claimed the awaited file, and every file it claimed before lies below
//! that one, so it has been consumed and its credit released. So
//! backpressure can never deadlock the pipeline; each parser may overshoot
//! the budget by at most one batch. The consumer, which claims files itself
//! while it would otherwise wait (DESIGN.md §5), has a ledger of its own
//! and only ever *tries* the gate: it is the thread that returns credits
//! and must never wait for one. Every ladder decision keys on
//! *deterministic* quantities (arena sizes and pending-posting counts at
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

/// Live byte accounting per pool, as last probed by the driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolBytes {
    /// Dictionary arenas (slotted nodes + string remainders + trie roots)
    /// across CPU shards and adopted continuations.
    pub dict: u64,
    /// Pending (un-flushed) postings: those of CPU shards and adopted
    /// continuations, and the device logs of live GPUs.
    pub postings: u64,
    /// The rest of live GPUs' device state: dictionaries, current-posting
    /// tables, input staging.
    pub device: u64,
}

impl PoolBytes {
    /// Total resident bytes.
    pub fn total(&self) -> u64 {
        self.dict + self.postings + self.device
    }
}

/// What the driver does at a batch boundary, by [`ladder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Resident bytes fit the budget: index the next batch.
    Fits,
    /// Seal the run now: pending postings leave memory.
    Flush,
    /// Park a GPU shard onto the CPU salvage path.
    Shed,
    /// Nothing left lowers the charge: the typed refusal.
    Refuse,
}

/// The degradation ladder: what to do with `pools` resident against
/// `budget` (0 = unlimited). The rungs fire only when resident bytes alone
/// exceed the budget — the paper's flush-when-full — in order: flush when
/// postings are pending, then shed when `shed` (the resident bytes a GPU
/// shed would leave, `None` when no GPU is left to shed) is lower, then
/// refuse. The driver applies the answer, probes again and asks again
/// until it fits or is refused; `shed` is only evaluated on the shed rung.
pub fn ladder(pools: PoolBytes, budget: u64, shed: impl FnOnce() -> Option<u64>) -> Rung {
    let resident = pools.total();
    if budget == 0 || resident <= budget {
        Rung::Fits
    } else if pools.postings > 0 {
        Rung::Flush
    } else if shed().is_some_and(|after| after < resident) {
        Rung::Shed
    } else {
        Rung::Refuse
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
/// Each parser can overshoot the gate by at most one batch, so in-flight
/// bytes stay within `budget − resident + num_parsers × max_batch` — still
/// O(1) per worker, and the accounting (not the cap) feeds the high-water
/// mark.
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
    /// The configured budget (0 = unlimited).
    budget: u64,
    /// Effective budget: starts at `budget` (or [`UNLIMITED`]) and only
    /// ever shrinks (squeezes).
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
            .field("budget", &self.inner.budget)
            .field("effective", &self.effective_budget())
            .field("resident", &self.resident().total())
            .field("inflight", &self.inflight_bytes())
            .field("high_water", &self.high_water())
            .finish()
    }
}

impl Default for MemoryGovernor {
    fn default() -> Self {
        MemoryGovernor::unlimited()
    }
}

impl MemoryGovernor {
    /// A governor enforcing a budget of `budget` bytes; 0 disables the
    /// limits (accounting still runs, so high-water marks are always
    /// measured).
    pub fn new(budget: u64) -> Self {
        let effective = if budget == 0 { UNLIMITED } else { budget };
        MemoryGovernor {
            inner: Arc::new(GovernorShared {
                budget,
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
        MemoryGovernor::new(0)
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

    /// Room for in-flight credit: what the effective budget leaves beside
    /// the last probed resident bytes.
    fn gate_room(&self) -> u64 {
        match self.inner.effective.load(Relaxed) {
            UNLIMITED => UNLIMITED,
            b => b.saturating_sub(self.resident().total()),
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
                    // Room shrank: wake waiters so they re-evaluate (they
                    // will simply keep waiting under the new limit).
                    self.inner.cv.notify_all();
                    return;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Blocking byte-credit acquire (`parser`'s thread, before sending a
    /// batch downstream). Returns once resident bytes, the credit out and
    /// `bytes` fit the budget. A parser with **no outstanding credit** is
    /// admitted unconditionally: the driver consumes batches in file
    /// order and parsers claim in rising file order, so the claimer of the
    /// file it is waiting on has, by construction, nothing in flight —
    /// blocking it while other parsers' queued batches hold
    /// the gate's credit would deadlock the pipeline until the watchdog
    /// shot an innocent thread. (This also admits a batch larger than the
    /// whole budget, degrading to serial operation.) Blocked time is
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
        let full = |gate: &GateState| {
            gate.held(slot) > 0 && gate.total.saturating_add(bytes) > self.gate_room()
        };
        if full(&gate) {
            inner.credit_waits.fetch_add(1, Relaxed);
            let span = sink.span(TraceKind::MemoryWait);
            let t0 = Instant::now();
            while !inner.closed.load(Relaxed) && full(&gate) {
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
        self.bump_high_water();
    }

    /// Non-blocking acquire for the consumer thread, before it ingests a
    /// file itself: takes `bytes` on the consumer's ledger and returns
    /// true only if the budget has that much room *now*. No unconditional
    /// admission and no wait — every credit comes back through this very
    /// thread, so waiting here could never end; a refusal just means the
    /// consumer waits for the file's claimer as it always did.
    pub fn try_acquire(&self, bytes: u64) -> bool {
        let mut gate = self.inner.gate.lock().unwrap();
        if gate.total.saturating_add(bytes) > self.gate_room() {
            return false;
        }
        gate.take(slot_of(None), bytes);
        let now_out = gate.total;
        drop(gate);
        self.inner.inflight_bytes.store(now_out, Relaxed);
        self.bump_high_water();
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
    /// boundaries, where the figures are deterministic). Resident bytes
    /// that fell leave room for credit, so waiters re-evaluate.
    pub fn note_resident(&self, pools: PoolBytes) {
        self.inner.dict_bytes.store(pools.dict, Relaxed);
        self.inner.postings_bytes.store(pools.postings, Relaxed);
        self.inner.device_bytes.store(pools.device, Relaxed);
        self.bump_high_water();
        self.inner.cv.notify_all();
    }

    fn bump_high_water(&self) {
        let live = self.resident().total() + self.inflight_bytes();
        self.inner.high_water.fetch_max(live, Relaxed);
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

    /// Count one early (budget-triggered) run flush.
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

    /// Early flushes the ladder fired.
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
        registry.gauge("governor.budget_bytes").set(self.inner.budget as i64);
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
        let pools = PoolBytes { dict: 1 << 20, postings: 2 << 20, device: 3 << 20 };
        g.note_resident(pools);
        assert_eq!(g.resident().total(), 6 << 20);
        assert_eq!(g.high_water(), 26 << 20);
        assert_eq!(ladder(pools, g.effective_budget(), || None), Rung::Fits);
        assert_eq!(g.credit_waits(), 0);
        g.release(Some(0), 10 << 20);
        g.release(Some(1), 10 << 20);
        assert_eq!(g.inflight_bytes(), 0);
        assert_eq!(g.high_water(), 26 << 20, "high water is sticky");
    }

    #[test]
    fn credit_gate_blocks_until_release_and_counts_waits() {
        let g = MemoryGovernor::new(400);
        // 300 bytes resident leave 100 for credit. Parser 0's first 60
        // passes; its second 60 must wait (it already has a batch in flight).
        g.note_resident(PoolBytes { dict: 300, ..PoolBytes::default() });
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
            "second acquire must block while the budget is full"
        );
        g.release(Some(0), 60);
        rx.recv_timeout(Duration::from_secs(5)).expect("release unblocks the waiter");
        t.join().unwrap();
        assert_eq!(g.credit_waits(), 1);
        assert!(g.credit_wait_ns() > 0);
        assert_eq!(g.inflight_bytes(), 60);
    }

    #[test]
    fn resident_bytes_that_fall_make_room_for_credit() {
        // One pool: what the dictionaries and postings do not hold, credit
        // may. A flush that empties the postings unblocks a waiting parser.
        let g = MemoryGovernor::new(400);
        g.note_resident(PoolBytes { dict: 100, postings: 250, device: 0 });
        g.acquire(0, 40, &TraceSink::disabled());
        let g2 = g.clone();
        let (tx, rx) = mpsc::channel();
        let t = thread::spawn(move || {
            g2.acquire(0, 40, &TraceSink::disabled());
            tx.send(()).unwrap();
        });
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "350 + 40 + 40 > 400");
        g.note_resident(PoolBytes { dict: 100, postings: 0, device: 0 });
        rx.recv_timeout(Duration::from_secs(5)).expect("the flush made room");
        t.join().unwrap();
        assert_eq!(g.inflight_bytes(), 80);
    }

    #[test]
    fn parser_with_no_outstanding_credit_is_always_admitted() {
        // Regression: the driver consumes in file order. Parser 1's queued
        // batch holds the whole budget while the driver waits on parser 0 —
        // blocking parser 0 here deadlocked the pipeline until the
        // watchdog declared it stalled (a ~30s wall per build).
        let g = MemoryGovernor::new(100);
        let sink = TraceSink::disabled();
        g.acquire(1, 95, &sink); // parser 1 fills the 100-byte budget
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
        let g = MemoryGovernor::new(100);
        g.acquire(0, 60, &TraceSink::disabled());
        assert!(g.try_acquire(30), "60 + 30 fits the 100-byte budget");
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
        let g = MemoryGovernor::new(400);
        g.note_resident(PoolBytes { dict: 300, ..PoolBytes::default() });
        let sink = TraceSink::disabled();
        // Unlike a parser, the consumer is not admitted over a full budget
        // just because it holds nothing: it is never the thread the
        // pipeline is waiting on.
        assert!(!g.try_acquire(101), "larger than the room resident state leaves");
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
        let g = MemoryGovernor::new(100);
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
        let g = MemoryGovernor::new(100);
        let sink = TraceSink::disabled();
        // 250 > the whole budget, but this parser holds nothing: admit it
        // rather than deadlock.
        g.acquire(0, 250, &sink);
        assert_eq!(g.inflight_bytes(), 250);
        g.release(Some(0), 250);
        assert_eq!(g.inflight_bytes(), 0);
    }

    #[test]
    fn close_unblocks_waiters() {
        let g = MemoryGovernor::new(100);
        g.acquire(0, 90, &TraceSink::disabled());
        let g2 = g.clone();
        let t = thread::spawn(move || g2.acquire(0, 90, &TraceSink::disabled()));
        thread::sleep(Duration::from_millis(20));
        g.close();
        t.join().expect("closed gate admits everyone");
    }

    #[test]
    fn ladder_rungs_trigger_in_order() {
        let pools = |dict, postings, device| PoolBytes { dict, postings, device };
        let no_shed = || None;
        // Up to the budget itself nothing fires, whatever is pending.
        assert_eq!(ladder(pools(400, 500, 100), 1000, no_shed), Rung::Fits);
        assert_eq!(ladder(pools(400, 500, 101), 0, no_shed), Rung::Fits, "0 = unlimited");
        // Over it: flush while postings are pending ...
        assert_eq!(ladder(pools(400, 500, 101), 1000, no_shed), Rung::Flush);
        // ... then shed, only when the shed leaves less than it replaces ...
        let over = pools(800, 0, 300);
        assert_eq!(ladder(over, 1000, || Some(900)), Rung::Shed);
        assert_eq!(ladder(over, 1000, || Some(1100)), Rung::Refuse, "equal is no lower");
        assert_eq!(ladder(over, 1000, || Some(1200)), Rung::Refuse, "a shed that raises");
        assert_eq!(ladder(over, 1000, no_shed), Rung::Refuse, "no GPU left");
        // ... and the shed figure is only asked for on the shed rung.
        let asked = std::cell::Cell::new(false);
        let shed = || {
            asked.set(true);
            Some(0)
        };
        assert_eq!(ladder(pools(400, 500, 101), 1000, shed), Rung::Flush);
        assert!(!asked.get());
    }

    #[test]
    fn squeeze_only_shrinks_and_is_counted() {
        let g = MemoryGovernor::new(1000);
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
        let g = MemoryGovernor::new(4096);
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
