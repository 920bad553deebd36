//! Pipeline observability: metrics registry, scoped stage timers, and
//! JSON snapshots.
//!
//! The paper's evaluation (Table V, Fig 9) hinges on knowing *where time
//! goes* — reading, decompression/parsing, indexing, post-processing — and
//! on low-level device counters (global-memory transactions, warp
//! comparisons). This crate provides the measurement substrate for all of
//! that at **~ns-per-event cost**, depending on nothing but the vendored
//! `serde_json`, which writes every JSON this crate emits and reads traces
//! back for `ii trace report`:
//!
//! * [`Counter`] / [`Gauge`] — relaxed-ordering atomics. A counter bump is
//!   a single `fetch_add(Relaxed)`; cheap enough to stay enabled in
//!   release builds (the <2% end-to-end overhead budget is verified in
//!   `EXPERIMENTS.md`).
//! * [`Histogram`] — fixed-boundary latency histogram (power-of-4 ns
//!   buckets from 256 ns to ~4.4 s), one relaxed `fetch_add` per record.
//! * [`Stage`] + [`StageSpan`] — per-pipeline-stage wall time, bytes,
//!   items, and queue-wait accounting. `StageSpan` is a scoped timer:
//!   created at stage entry, it adds its elapsed time on drop.
//! * [`Registry`] — an *instantiable* bag of named metrics, and the only
//!   place a build measurement lands. The pipeline driver creates one
//!   registry per build so concurrent builds (e.g. parallel tests) never
//!   interleave; an index keeps one for its queries. There is no
//!   process-global registry.
//! * [`Snapshot`] — a point-in-time copy of a registry: the build report's
//!   `stages`, the `--stats-json` / bench-file JSON ([`Snapshot::to_json`]),
//!   and the input of the OpenMetrics exposition. The flight recorder
//!   ([`FlightRecorder`]) samples the same registry on a cadence.

#![forbid(unsafe_code)]

pub mod http;
pub mod openmetrics;
pub mod recorder;
pub mod report;
pub mod trace;

pub use http::MetricsServer;
pub use recorder::{FlightDump, FlightRecorder, FlightSample};
pub use report::{TraceReport, WorkerReport};
pub use trace::{
    GaugeSeries, GpuSpanArgs, Trace, TraceConfig, TraceEvent, TraceKind, TraceSink, TraceSpan,
    Tracer, WorkerTrace,
};

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Version of the snapshot JSON layout (`--stats-json`, bench snapshots).
/// Bump when keys change shape so downstream tooling can branch.
/// v4 added `p999_ns` / `latency_p999_ns` tail quantiles.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 4;

/// Monotonic event counter (relaxed atomic; safe to bump from any thread).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Add `n`. Wraps on `u64` overflow (relaxed `fetch_add` semantics) —
    /// at one event per nanosecond that is ~584 years of uptime.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Reset to zero (between benchmark iterations).
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// A worker liveness beacon: the worker bumps it on every unit of
/// progress, a watchdog on another thread reads how long it has been
/// silent.
///
/// The beacon is fed from the existing trace-span instrumentation — every
/// [`trace::TraceSink::span`] on a sink carrying a heartbeat bumps it, so
/// workers need no extra instrumentation and a worker that stops opening
/// spans (stalled read, wedged kernel, dead thread) goes visibly silent.
/// Self-contained: it carries its own `Instant` origin, so beats and
/// idleness reads never depend on any tracer state.
#[derive(Debug)]
pub struct Heartbeat {
    origin: Instant,
    last_beat_ns: AtomicU64,
    beats: AtomicU64,
}

impl Default for Heartbeat {
    fn default() -> Self {
        Heartbeat::new()
    }
}

impl Heartbeat {
    /// A fresh beacon; creation counts as the first sign of life.
    pub fn new() -> Heartbeat {
        Heartbeat {
            origin: Instant::now(),
            last_beat_ns: AtomicU64::new(0),
            beats: AtomicU64::new(0),
        }
    }

    /// Record one unit of progress (relaxed store + add; ~ns cost).
    #[inline]
    pub fn beat(&self) {
        let ns = self.origin.elapsed().as_nanos() as u64;
        self.last_beat_ns.store(ns, Relaxed);
        self.beats.fetch_add(1, Relaxed);
    }

    /// How long the worker has been silent (time since the last beat, or
    /// since creation if it never beat).
    pub fn idle(&self) -> Duration {
        let now = self.origin.elapsed().as_nanos() as u64;
        Duration::from_nanos(now.saturating_sub(self.last_beat_ns.load(Relaxed)))
    }

    /// Total beats recorded.
    pub fn beats(&self) -> u64 {
        self.beats.load(Relaxed)
    }
}

/// Last-write-wins signed level (queue depths, buffer fill).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Adjust the level by `delta`.
    #[inline]
    pub fn adjust(&self, delta: i64) {
        self.0.fetch_add(delta, Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Number of histogram buckets (see [`Histogram::BOUNDS`] + overflow).
pub const HISTOGRAM_BUCKETS: usize = 13;

/// Fixed-boundary latency histogram over nanosecond durations.
///
/// Boundaries are powers of 4 starting at 256 ns, so the whole range from
/// sub-µs token work to multi-second file reads fits in 13 buckets; the
/// last bucket is the overflow. Recording is one relaxed `fetch_add`.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// Upper bounds (ns, inclusive) of every bucket but the overflow.
    pub const BOUNDS: [u64; HISTOGRAM_BUCKETS - 1] = [
        1 << 8,    // 256 ns
        1 << 10,   // ~1 µs
        1 << 12,   // ~4 µs
        1 << 14,   // ~16 µs
        1 << 16,   // ~65 µs
        1 << 18,   // ~262 µs
        1 << 20,   // ~1 ms
        1 << 22,   // ~4.2 ms
        1 << 24,   // ~16.8 ms
        1 << 26,   // ~67 ms
        1 << 28,   // ~268 ms
        1 << 32,   // ~4.3 s
    ];

    /// Empty histogram.
    pub const fn new() -> Self {
        // `AtomicU64` is not Copy; build the array element by element.
        Histogram {
            buckets: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }

    /// Bucket index for a nanosecond duration.
    #[inline]
    pub fn bucket_of(ns: u64) -> usize {
        Self::BOUNDS.partition_point(|&b| b < ns)
    }

    /// Record one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Relaxed);
    }

    /// Copy the bucket counts.
    pub fn counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Relaxed);
        }
        out
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Upper-bound estimate (ns) of the `q`-quantile, `q ∈ [0, 1]`.
    ///
    /// Returns the upper boundary of the bucket containing the quantile
    /// (the histogram stores counts, not samples, so this is conservative
    /// by at most one bucket width); `u64::MAX` when the quantile lands in
    /// the overflow bucket; `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_counts(&self.counts(), q)
    }
}

/// [`Histogram::quantile`] over a detached bucket-count array (snapshots).
pub fn quantile_from_counts(counts: &[u64], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    // Rank of the quantile observation, 1-based, clamped to [1, total].
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(Histogram::BOUNDS.get(i).copied().unwrap_or(u64::MAX));
        }
    }
    None
}

/// Per-stage accounting: wall time, queue wait, bytes, and items.
///
/// One `Stage` per dataflow stage (read, decompress, parse, index, merge,
/// …). Threads bump it concurrently; a [`StageSpan`] adds wall time on
/// drop, `queue_wait_ns` accumulates time blocked on channel hand-offs.
#[derive(Debug, Default)]
pub struct Stage {
    /// Busy wall time across all workers of the stage (ns).
    pub wall_ns: Counter,
    /// Time spent blocked waiting for upstream/downstream queues (ns).
    pub queue_wait_ns: Counter,
    /// Payload bytes processed by the stage.
    pub bytes: Counter,
    /// Work items (files, batches, queries — stage-defined).
    pub items: Counter,
    /// Distribution of per-item latency.
    pub latency: Histogram,
}

impl Stage {
    /// Empty stage record.
    pub const fn new() -> Self {
        Stage {
            wall_ns: Counter::new(),
            queue_wait_ns: Counter::new(),
            bytes: Counter::new(),
            items: Counter::new(),
            latency: Histogram::new(),
        }
    }

    /// Open a scoped timer on this stage; `drop` records wall time and
    /// one item (plus its latency-histogram sample).
    #[inline]
    pub fn span(&self) -> StageSpan<'_> {
        StageSpan { stage: self, start: Instant::now(), bytes: 0 }
    }

    /// Busy seconds accumulated so far.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_ns.get() as f64 / 1e9
    }

    /// Queue-wait seconds accumulated so far.
    pub fn queue_wait_seconds(&self) -> f64 {
        self.queue_wait_ns.get() as f64 / 1e9
    }
}

/// Scoped stage timer: measures from creation to drop.
///
/// ```
/// use ii_obs::Stage;
/// let stage = Stage::new();
/// {
///     let mut span = stage.span();
///     span.add_bytes(1024);
///     // ... do the stage's work ...
/// } // drop records wall time, 1 item, 1024 bytes, latency sample
/// assert_eq!(stage.items.get(), 1);
/// assert_eq!(stage.bytes.get(), 1024);
/// ```
pub struct StageSpan<'a> {
    stage: &'a Stage,
    start: Instant,
    bytes: u64,
}

impl StageSpan<'_> {
    /// Attribute `n` payload bytes to this span's item.
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        self.bytes += n;
    }

    /// Elapsed time so far (the span keeps running).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for StageSpan<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.stage.wall_ns.add(ns);
        self.stage.items.inc();
        self.stage.bytes.add(self.bytes);
        self.stage.latency.record_ns(ns);
    }
}

/// An instantiable bag of named metrics.
///
/// Lookup (`counter`/`gauge`/`stage`/`histogram`) interns the metric on
/// first use and returns a cheap `Arc`; hot paths resolve once and bump
/// the returned handle. Use one registry per unit of measurement (e.g.
/// one per pipeline build) so concurrent runs never mix.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    stages: Mutex<BTreeMap<String, Arc<Stage>>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern (or fetch) the named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.counters.lock().unwrap();
        match m.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::new());
                m.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Intern (or fetch) the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.gauges.lock().unwrap();
        match m.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::new());
                m.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// Intern (or fetch) the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.histograms.lock().unwrap();
        match m.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                m.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Intern (or fetch) the named stage record.
    pub fn stage(&self, name: &str) -> Arc<Stage> {
        let mut m = self.stages.lock().unwrap();
        match m.get(name) {
            Some(s) => Arc::clone(s),
            None => {
                let s = Arc::new(Stage::new());
                m.insert(name.to_string(), Arc::clone(&s));
                s
            }
        }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.counts().to_vec()))
                .collect(),
            stages: self
                .stages
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        StageSnapshot {
                            wall_seconds: v.wall_seconds(),
                            queue_wait_seconds: v.queue_wait_seconds(),
                            bytes: v.bytes.get(),
                            items: v.items.get(),
                            latency: v.latency.counts().to_vec(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen copy of one stage's metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct StageSnapshot {
    /// Busy wall seconds.
    pub wall_seconds: f64,
    /// Seconds blocked on queues.
    pub queue_wait_seconds: f64,
    /// Payload bytes.
    pub bytes: u64,
    /// Work items.
    pub items: u64,
    /// Latency histogram counts ([`Histogram::BOUNDS`] buckets).
    pub latency: Vec<u64>,
}

/// Frozen copy of a whole [`Registry`], with a JSON writer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → level.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram name → bucket counts.
    pub histograms: BTreeMap<String, Vec<u64>>,
    /// Stage name → frozen stage metrics.
    pub stages: BTreeMap<String, StageSnapshot>,
}

/// A JSON object with `pairs` in the given order.
pub(crate) fn json_object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl Snapshot {
    /// A stage's frozen metrics, if it was recorded.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.get(name)
    }

    /// A counter's value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's last level (0 when never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The snapshot as a JSON value (what [`Self::to_json`] prints and the
    /// post-mortem bundle embeds). The layout is versioned via
    /// [`SNAPSHOT_SCHEMA_VERSION`].
    pub fn to_json_value(&self) -> Value {
        let quantiles = |prefix: &str, counts: &[u64]| {
            [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)].map(|(name, q)| {
                let v = quantile_from_counts(counts, q).map_or(Value::Null, Value::U64);
                (format!("{prefix}{name}_ns"), v)
            })
        };
        let histograms = self.histograms.iter().map(|(k, counts)| {
            let counts_v = Value::Array(counts.iter().map(|&c| Value::U64(c)).collect());
            let fields = std::iter::once(("counts".to_string(), counts_v));
            (k, json_object(fields.chain(quantiles("", counts))))
        });
        let stages = self.stages.iter().map(|(k, s)| {
            let fields = [
                ("wall_seconds".to_string(), Value::F64(s.wall_seconds)),
                ("queue_wait_seconds".to_string(), Value::F64(s.queue_wait_seconds)),
                ("bytes".to_string(), Value::U64(s.bytes)),
                ("items".to_string(), Value::U64(s.items)),
            ];
            (k, json_object(fields.into_iter().chain(quantiles("latency_", &s.latency))))
        });
        json_object([
            ("schema_version", Value::U64(SNAPSHOT_SCHEMA_VERSION.into())),
            ("counters", json_object(self.counters.iter().map(|(k, &v)| (k, Value::U64(v))))),
            ("gauges", json_object(self.gauges.iter().map(|(k, &v)| (k, Value::I64(v))))),
            ("histograms", json_object(histograms)),
            ("stages", json_object(stages)),
        ])
    }

    /// Render as a stable, self-contained JSON document (the format shared
    /// by `--stats-json` and the bench snapshot files).
    pub fn to_json(&self) -> String {
        let value = self.to_json_value();
        let mut json = serde_json::to_string_pretty(&value).expect("a JSON value always prints");
        json.push('\n');
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.set(7);
        g.adjust(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn counter_wraps_on_overflow() {
        let c = Counter::new();
        c.add(u64::MAX);
        c.add(3);
        assert_eq!(c.get(), 2, "relaxed fetch_add wraps, never panics");
    }

    #[test]
    fn histogram_bucketing_is_exact_at_boundaries() {
        // Below/at a bound goes in that bucket; one past goes in the next.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(256), 0);
        assert_eq!(Histogram::bucket_of(257), 1);
        assert_eq!(Histogram::bucket_of(1 << 10), 1);
        assert_eq!(Histogram::bucket_of((1 << 10) + 1), 2);
        assert_eq!(Histogram::bucket_of(1 << 32), HISTOGRAM_BUCKETS - 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = Histogram::new();
        h.record_ns(100);
        h.record_ns(256);
        h.record_ns(300);
        h.record_ns(u64::MAX);
        let c = h.counts();
        assert_eq!(c[0], 2);
        assert_eq!(c[1], 1);
        assert_eq!(c[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for _ in 0..90 {
            h.record_ns(100); // bucket 0 (≤256 ns)
        }
        for _ in 0..9 {
            h.record_ns(2_000); // bucket 2 (≤4096 ns)
        }
        h.record_ns(u64::MAX); // overflow bucket
        assert_eq!(h.quantile(0.0), Some(256));
        assert_eq!(h.quantile(0.50), Some(256));
        assert_eq!(h.quantile(0.90), Some(256));
        assert_eq!(h.quantile(0.95), Some(4096));
        assert_eq!(h.quantile(0.99), Some(4096));
        assert_eq!(h.quantile(1.0), Some(u64::MAX), "overflow bucket saturates");
        assert_eq!(quantile_from_counts(&[0, 3], 0.5), Some(1 << 10));
    }

    #[test]
    fn span_records_time_items_bytes() {
        let s = Stage::new();
        {
            let mut span = s.span();
            span.add_bytes(500);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(s.items.get(), 1);
        assert_eq!(s.bytes.get(), 500);
        assert!(s.wall_seconds() >= 0.002, "span must capture sleep time");
        assert_eq!(s.latency.total(), 1);
    }

    #[test]
    fn registry_interns_by_name() {
        let r = Registry::new();
        r.counter("a").add(5);
        r.counter("a").add(5);
        r.counter("b").inc();
        assert_eq!(r.counter("a").get(), 10);
        assert_eq!(r.counter("b").get(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a"], 10);
        assert_eq!(snap.counters["b"], 1);
    }

    #[test]
    fn registry_is_thread_safe() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let c = r.counter("shared");
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), 80_000);
    }

    #[test]
    fn snapshot_json_is_valid_and_stable() {
        let r = Registry::new();
        r.counter("pipeline.docs").add(48);
        r.gauge("queue.depth").set(-2);
        r.histogram("lat").record_ns(100);
        let st = r.stage("read");
        {
            let mut sp = st.span();
            sp.add_bytes(1024);
        }
        let json = r.snapshot().to_json();
        for needle in [
            "\"schema_version\": 4",
            "\"pipeline.docs\": 48",
            "\"queue.depth\": -2",
            "\"read\"",
            "\"bytes\": 1024",
            "\"items\": 1",
            "\"p50_ns\": 256",
            "\"p999_ns\": 256",
            "\"latency_p50_ns\"",
            "\"latency_p999_ns\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        let v: Value = serde_json::from_str(&json).expect("snapshot JSON parses");
        let keys: Vec<&str> = match &v {
            Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys, ["schema_version", "counters", "gauges", "histograms", "stages"]);
    }

    #[test]
    fn heartbeat_tracks_silence() {
        let hb = Heartbeat::new();
        assert_eq!(hb.beats(), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(hb.idle() >= Duration::from_millis(2), "never-beaten = idle since birth");
        hb.beat();
        assert_eq!(hb.beats(), 1);
        assert!(hb.idle() < Duration::from_millis(2), "beat resets the idle clock");
    }
}
