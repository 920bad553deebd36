//! Event-level pipeline tracing (the Fig 9 substrate).
//!
//! The aggregate stage metrics in this crate answer "how much time went to
//! each stage"; they cannot answer *why* a worker was idle or which queue
//! backed up. This module records individual spans — one [`TraceEvent`] per
//! unit of work or wait, per worker — into lock-light per-worker ring
//! buffers, merges them into a [`Trace`], exports Chrome/Perfetto
//! `trace.json`, parses it back, and reduces it to a [`TraceReport`] with
//! per-worker utilization, stall attribution, and an ASCII timeline.
//!
//! Design points:
//! * **Disabled is near-free.** A [`TraceSink`] is an `Option` internally;
//!   with tracing off, `span()` reads no clock and touches no memory beyond
//!   one branch. The `obs_overhead` bench prices this path.
//! * **Lock-light when enabled.** Each worker owns its own buffer; the only
//!   mutex is per-buffer and uncontended (a worker records only into its
//!   own buffer — cross-thread access happens once, at merge time).
//! * **Bounded ring.** Each buffer holds at most `capacity` events; when
//!   full, the oldest event is overwritten and a drop counter ticks, so a
//!   pathological build degrades the timeline's tail instead of memory.

use crate::json_object;
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sentinel for "no batch / no trie range" on a [`TraceEvent`].
pub const NO_ID: u32 = u32::MAX;

/// Tracing knobs carried on the pipeline configuration.
///
/// Excluded from checkpoint config fingerprints by design: tracing never
/// changes index bytes, so a traced build may resume an untraced one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record events (default: off).
    pub enabled: bool,
    /// Ring capacity per worker, in events. At ~96 B/event the default
    /// (65536) bounds a worker's buffer to ~6 MB.
    pub capacity_per_worker: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: false, capacity_per_worker: 65_536 }
    }
}

/// What a span was doing. Work kinds accrue *busy* time; wait kinds accrue
/// *stall* time attributed to a cause (the paper's Fig 9 question: is the
/// pipeline bound by reads, parsing, or indexing?).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// Serialized disk read (parser, under the disk-scheduler lock).
    Read,
    /// In-memory decompression (parser).
    Decompress,
    /// Container parse + tokenize/stem/stop/regroup (parser).
    Parse,
    /// Indexing a batch (driver span) or a batch slice (cpu-N / gpu-N).
    Index,
    /// Run flush: encoding postings into a run file.
    Flush,
    /// Committing a build checkpoint (driver).
    Checkpoint,
    /// Dictionary combine (driver, end of build).
    DictCombine,
    /// Dictionary serialization (driver, end of build).
    DictWrite,
    /// The sampling pre-pass (driver, before streaming starts).
    Sample,
    /// The in-order consumer ingesting a file itself — read, decompress
    /// and parse in one span — while the batch it needs is not queued yet
    /// (driver; time that would otherwise be a [`Self::ParserWait`] stall).
    Help,
    /// Stall: waiting for the disk-scheduler lock (waiting-on-read).
    DiskWait,
    /// Stall: producer blocked on a full output buffer (queue-full).
    QueueFull,
    /// Stall: consumer blocked on an empty parser buffer
    /// (waiting-on-parser).
    ParserWait,
    /// Stall: producer blocked on the memory governor's byte-credit gate
    /// (over the `--mem-budget` in-flight allowance).
    MemoryWait,
}

/// Every kind, in rendering order (work first, stalls last).
pub const ALL_KINDS: [TraceKind; 14] = [
    TraceKind::Read,
    TraceKind::Decompress,
    TraceKind::Parse,
    TraceKind::Index,
    TraceKind::Flush,
    TraceKind::Checkpoint,
    TraceKind::DictCombine,
    TraceKind::DictWrite,
    TraceKind::Sample,
    TraceKind::Help,
    TraceKind::DiskWait,
    TraceKind::QueueFull,
    TraceKind::ParserWait,
    TraceKind::MemoryWait,
];

impl TraceKind {
    /// True for stall kinds (time attributed to a wait cause, not work).
    pub fn is_stall(self) -> bool {
        matches!(
            self,
            TraceKind::DiskWait
                | TraceKind::QueueFull
                | TraceKind::ParserWait
                | TraceKind::MemoryWait
        )
    }

    /// Stable label used in exported traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Read => "read",
            TraceKind::Decompress => "decompress",
            TraceKind::Parse => "parse",
            TraceKind::Index => "index",
            TraceKind::Flush => "flush",
            TraceKind::Checkpoint => "checkpoint",
            TraceKind::DictCombine => "dict_combine",
            TraceKind::DictWrite => "dict_write",
            TraceKind::Sample => "sample",
            TraceKind::Help => "help",
            TraceKind::DiskWait => "disk_wait",
            TraceKind::QueueFull => "queue_full",
            TraceKind::ParserWait => "parser_wait",
            TraceKind::MemoryWait => "memory_wait",
        }
    }

    /// Inverse of [`Self::label`].
    pub fn from_label(s: &str) -> Option<TraceKind> {
        ALL_KINDS.iter().copied().find(|k| k.label() == s)
    }

    /// One-character timeline glyph (work upper-case, stalls lower-case).
    pub fn glyph(self) -> char {
        match self {
            TraceKind::Read => 'R',
            TraceKind::Decompress => 'D',
            TraceKind::Parse => 'P',
            TraceKind::Index => 'I',
            TraceKind::Flush => 'F',
            TraceKind::Checkpoint => 'K',
            TraceKind::DictCombine => 'C',
            TraceKind::DictWrite => 'W',
            TraceKind::Sample => 'S',
            TraceKind::Help => 'H',
            TraceKind::DiskWait => 'd',
            TraceKind::QueueFull => 'q',
            TraceKind::ParserWait => 'w',
            TraceKind::MemoryWait => 'm',
        }
    }
}

/// Simulated-kernel counters attached to a GPU indexing span (deltas for
/// that span only, not lifetime totals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GpuSpanArgs {
    /// Simulated device nanoseconds for the span's kernel grid.
    pub device_ns: u64,
    /// Simulated PCIe nanoseconds for the span's input upload.
    pub transfer_ns: u64,
    /// Warp-wide key comparisons issued.
    pub warp_comparisons: u64,
    /// Global-memory transactions.
    pub global_transactions: u64,
    /// Bytes moved to/from global memory.
    pub global_bytes: u64,
    /// Warp instructions issued.
    pub instructions: u64,
}

/// One recorded span on one worker's timeline. Times are nanoseconds since
/// the tracer's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What the worker was doing.
    pub kind: TraceKind,
    /// Span start (ns since epoch).
    pub t_start_ns: u64,
    /// Span end (ns since epoch, `>= t_start_ns`).
    pub t_end_ns: u64,
    /// Payload bytes attributed to the span (0 when not applicable).
    pub bytes: u64,
    /// Batch / container-file id ([`NO_ID`] when not applicable).
    pub batch_id: u32,
    /// Lowest trie slot touched ([`NO_ID`] when not applicable).
    pub trie_lo: u32,
    /// Highest trie slot touched ([`NO_ID`] when not applicable).
    pub trie_hi: u32,
    /// Kernel counters (GPU indexing spans only).
    pub gpu: Option<GpuSpanArgs>,
}

impl TraceEvent {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }
}

/// One worker's bounded ring of events. Shared between the worker's
/// [`TraceSink`] (writes) and the [`Tracer`] (merge at end of build).
struct TraceBuffer {
    name: String,
    capacity: usize,
    /// Ring storage + write cursor. The mutex is per-worker and therefore
    /// uncontended on the hot path; merge locks it once at the end.
    ring: Mutex<(Vec<TraceEvent>, usize)>,
    dropped: AtomicU64,
}

impl TraceBuffer {
    fn push(&self, ev: TraceEvent) {
        let mut g = self.ring.lock().unwrap();
        let (ring, cursor) = &mut *g;
        if ring.len() < self.capacity {
            ring.push(ev);
        } else {
            // Overwrite the oldest event (ring semantics): a runaway build
            // keeps the newest `capacity` events and counts what it lost.
            ring[*cursor] = ev;
            *cursor = (*cursor + 1) % self.capacity;
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Events in record order (oldest first even after wrap-around).
    fn drain_ordered(&self) -> (Vec<TraceEvent>, u64) {
        let g = self.ring.lock().unwrap();
        let (ring, cursor) = &*g;
        let mut out = Vec::with_capacity(ring.len());
        out.extend_from_slice(&ring[*cursor..]);
        out.extend_from_slice(&ring[..*cursor]);
        (out, self.dropped.load(Relaxed))
    }
}

/// A sampled gauge series (queue depths): `(t_ns, value)` pairs for one
/// named channel, exported as Chrome counter events.
struct GaugeBuffer {
    name: String,
    capacity: usize,
    samples: Mutex<Vec<(u64, i64)>>,
    dropped: AtomicU64,
}

/// The per-build trace collector. Cloning shares the underlying state;
/// a disabled tracer (the default) makes every operation a no-op.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

struct TracerInner {
    epoch: Instant,
    capacity: usize,
    buffers: Mutex<Vec<Arc<TraceBuffer>>>,
    gauges: Mutex<Vec<Arc<GaugeBuffer>>>,
}

impl Tracer {
    /// A tracer that records nothing (every sink/span is a no-op).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer with the given per-worker ring capacity.
    pub fn new(capacity_per_worker: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                capacity: capacity_per_worker.max(16),
                buffers: Mutex::new(Vec::new()),
                gauges: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Build a tracer from configuration (disabled config → disabled
    /// tracer).
    pub fn from_config(cfg: &TraceConfig) -> Tracer {
        if cfg.enabled {
            Tracer::new(cfg.capacity_per_worker)
        } else {
            Tracer::disabled()
        }
    }

    /// Whether spans will actually be recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register a worker timeline and return its recording handle. Workers
    /// appear in the merged trace in registration order.
    pub fn sink(&self, worker: &str) -> TraceSink {
        match &self.inner {
            None => TraceSink::disabled(),
            Some(inner) => {
                let buf = Arc::new(TraceBuffer {
                    name: worker.to_string(),
                    capacity: inner.capacity,
                    ring: Mutex::new((Vec::new(), 0)),
                    dropped: AtomicU64::new(0),
                });
                inner.buffers.lock().unwrap().push(Arc::clone(&buf));
                TraceSink { shared: Some(SinkShared { epoch: inner.epoch, buf }), heartbeat: None }
            }
        }
    }

    /// Register a sampled gauge series (e.g. one per inter-stage channel).
    pub fn gauge(&self, name: &str) -> GaugeSeries {
        match &self.inner {
            None => GaugeSeries { shared: None },
            Some(inner) => {
                let buf = Arc::new(GaugeBuffer {
                    name: name.to_string(),
                    capacity: inner.capacity,
                    samples: Mutex::new(Vec::new()),
                    dropped: AtomicU64::new(0),
                });
                inner.gauges.lock().unwrap().push(Arc::clone(&buf));
                GaugeSeries { shared: Some(GaugeShared { epoch: inner.epoch, buf }) }
            }
        }
    }

    /// Merge every worker's buffer into a [`Trace`] (`None` when
    /// disabled). Events are sorted by start time per worker; sinks may
    /// keep recording afterwards but those events are lost.
    pub fn finish(&self) -> Option<Trace> {
        let inner = self.inner.as_ref()?;
        let mut workers = Vec::new();
        let mut total_dropped = 0u64;
        for buf in inner.buffers.lock().unwrap().iter() {
            let (mut events, dropped) = buf.drain_ordered();
            events.sort_by_key(|e| (e.t_start_ns, e.t_end_ns));
            total_dropped += dropped;
            workers.push(WorkerTrace { name: buf.name.clone(), events, dropped });
        }
        let mut gauges = Vec::new();
        for buf in inner.gauges.lock().unwrap().iter() {
            let samples = buf.samples.lock().unwrap().clone();
            total_dropped += buf.dropped.load(Relaxed);
            gauges.push(GaugeTrack { name: buf.name.clone(), samples });
        }
        Some(Trace { workers, gauges, dropped: total_dropped })
    }
}

struct SinkShared {
    epoch: Instant,
    buf: Arc<TraceBuffer>,
}

/// One worker's recording handle. Clone-able; clones share the buffer
/// (safe as long as the clones record sequentially, i.e. stay on one
/// logical timeline).
pub struct TraceSink {
    shared: Option<SinkShared>,
    heartbeat: Option<Arc<crate::Heartbeat>>,
}

impl Clone for TraceSink {
    fn clone(&self) -> Self {
        TraceSink {
            shared: self
                .shared
                .as_ref()
                .map(|s| SinkShared { epoch: s.epoch, buf: Arc::clone(&s.buf) }),
            heartbeat: self.heartbeat.clone(),
        }
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::disabled()
    }
}

impl TraceSink {
    /// A sink that records nothing.
    pub fn disabled() -> TraceSink {
        TraceSink { shared: None, heartbeat: None }
    }

    /// Whether spans on this sink are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Attach a liveness beacon: every span opened on the sink (recorded
    /// or not) bumps `hb`, so the existing span instrumentation doubles as
    /// the worker's heartbeat feed. Independent of whether tracing is
    /// enabled.
    pub fn with_heartbeat(mut self, hb: Arc<crate::Heartbeat>) -> TraceSink {
        self.heartbeat = Some(hb);
        self
    }

    /// Bump the attached heartbeat without opening a span. For code that
    /// blocks legitimately inside one long span (e.g. a parser parked on
    /// the memory-credit gate) and must keep proving liveness to the
    /// watchdog without flooding the trace ring.
    #[inline]
    pub fn beat(&self) {
        if let Some(hb) = &self.heartbeat {
            hb.beat();
        }
    }

    /// Open a span of `kind`; recorded into the worker's ring on drop.
    /// Disabled sinks read no clock and record nothing (a sink with no
    /// heartbeat pays only one `Option` check).
    #[inline]
    pub fn span(&self, kind: TraceKind) -> TraceSpan<'_> {
        if let Some(hb) = &self.heartbeat {
            hb.beat();
        }
        let t_start_ns = match &self.shared {
            Some(s) => s.epoch.elapsed().as_nanos() as u64,
            None => 0,
        };
        TraceSpan {
            sink: self,
            kind,
            t_start_ns,
            bytes: 0,
            batch_id: NO_ID,
            trie_lo: NO_ID,
            trie_hi: NO_ID,
            gpu: None,
        }
    }
}

/// Scoped trace span: measures from creation to drop, then records one
/// [`TraceEvent`] on the owning sink's worker timeline.
pub struct TraceSpan<'a> {
    sink: &'a TraceSink,
    kind: TraceKind,
    t_start_ns: u64,
    bytes: u64,
    batch_id: u32,
    trie_lo: u32,
    trie_hi: u32,
    gpu: Option<GpuSpanArgs>,
}

impl TraceSpan<'_> {
    /// Attribute `n` payload bytes to the span.
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        self.bytes += n;
    }

    /// Tag the span with a batch / container-file id.
    #[inline]
    pub fn set_batch(&mut self, id: u32) {
        self.batch_id = id;
    }

    /// Tag the span with the trie-slot range it touched.
    #[inline]
    pub fn set_tries(&mut self, lo: u32, hi: u32) {
        self.trie_lo = lo;
        self.trie_hi = hi;
    }

    /// Attach GPU kernel counters (deltas for this span).
    #[inline]
    pub fn set_gpu(&mut self, args: GpuSpanArgs) {
        self.gpu = Some(args);
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        if let Some(s) = &self.sink.shared {
            let t_end_ns = s.epoch.elapsed().as_nanos() as u64;
            s.buf.push(TraceEvent {
                kind: self.kind,
                t_start_ns: self.t_start_ns,
                t_end_ns: t_end_ns.max(self.t_start_ns),
                bytes: self.bytes,
                batch_id: self.batch_id,
                trie_lo: self.trie_lo,
                trie_hi: self.trie_hi,
                gpu: self.gpu,
            });
        }
    }
}

struct GaugeShared {
    epoch: Instant,
    buf: Arc<GaugeBuffer>,
}

/// Recording handle for one sampled gauge (queue depth) series.
pub struct GaugeSeries {
    shared: Option<GaugeShared>,
}

impl GaugeSeries {
    /// Record one sample at "now". No-op when tracing is disabled.
    #[inline]
    pub fn sample(&self, value: i64) {
        if let Some(s) = &self.shared {
            let mut samples = s.buf.samples.lock().unwrap();
            if samples.len() < s.buf.capacity {
                samples.push((s.epoch.elapsed().as_nanos() as u64, value));
            } else {
                s.buf.dropped.fetch_add(1, Relaxed);
            }
        }
    }
}

/// One worker's merged timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerTrace {
    /// Worker name (`parser-0`, `driver`, `cpu-0`, `gpu-1`, …).
    pub name: String,
    /// Spans sorted by start time.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring filled.
    pub dropped: u64,
}

impl WorkerTrace {
    /// `(first start, last end)` of the worker's recorded lifetime, or
    /// `None` with no events.
    pub fn lifetime_ns(&self) -> Option<(u64, u64)> {
        let first = self.events.first()?.t_start_ns;
        let last = self.events.iter().map(|e| e.t_end_ns).max()?;
        Some((first, last))
    }
}

/// One sampled gauge series in a merged trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GaugeTrack {
    /// Series name (`queue.parsed`, …).
    pub name: String,
    /// `(t_ns, value)` samples in record order.
    pub samples: Vec<(u64, i64)>,
}

/// A merged multi-worker trace: the unit that is exported, re-imported,
/// and reduced to a [`TraceReport`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Worker timelines in registration order.
    pub workers: Vec<WorkerTrace>,
    /// Sampled gauge series (queue depths).
    pub gauges: Vec<GaugeTrack>,
    /// Total events lost to ring overflow across all workers.
    pub dropped: u64,
}

/// Microseconds (Chrome's `ts` unit) as the `f64` nearest `ns / 1000`:
/// printed shortest-round-trip, it parses back to the same `f64`, which
/// [`Trace::from_chrome_json`] rounds to the exact nanosecond.
fn us(ns: u64) -> Value {
    Value::F64(ns as f64 / 1000.0)
}

impl Trace {
    /// Total spans across all workers.
    pub fn num_events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// The trace as a Chrome/Perfetto `trace.json` value (the JSON-object
    /// form with a `traceEvents` array).
    pub fn to_chrome_value(&self) -> Value {
        let text = |s: &str| Value::Str(s.to_string());
        let event = |ph: &str, tid: usize, name: &str, fields: Vec<(&str, Value)>| {
            let head = [("ph", text(ph)), ("pid", Value::U64(1)), ("tid", Value::U64(tid as u64))];
            json_object(head.into_iter().chain([("name", text(name))]).chain(fields))
        };
        let mut events = Vec::with_capacity(1 + self.workers.len() + self.num_events());
        let process = json_object([("name", text("ii build"))]);
        events.push(event("M", 0, "process_name", vec![("args", process)]));
        for (tid0, w) in self.workers.iter().enumerate() {
            let tid = tid0 + 1;
            let thread = json_object([("name", text(&w.name)), ("dropped", Value::U64(w.dropped))]);
            events.push(event("M", tid, "thread_name", vec![("args", thread)]));
            for e in &w.events {
                let mut args = vec![("bytes", Value::U64(e.bytes))];
                if e.batch_id != NO_ID {
                    args.push(("batch", Value::U64(e.batch_id.into())));
                }
                if e.trie_lo != NO_ID {
                    args.push(("trie_lo", Value::U64(e.trie_lo.into())));
                    args.push(("trie_hi", Value::U64(e.trie_hi.into())));
                }
                if let Some(g) = &e.gpu {
                    args.extend([
                        ("gpu_device_ns", Value::U64(g.device_ns)),
                        ("gpu_transfer_ns", Value::U64(g.transfer_ns)),
                        ("gpu_warp_comparisons", Value::U64(g.warp_comparisons)),
                        ("gpu_global_transactions", Value::U64(g.global_transactions)),
                        ("gpu_global_bytes", Value::U64(g.global_bytes)),
                        ("gpu_instructions", Value::U64(g.instructions)),
                    ]);
                }
                let cat = if e.kind.is_stall() { "stall" } else { "work" };
                let fields = vec![
                    ("cat", text(cat)),
                    ("ts", us(e.t_start_ns)),
                    ("dur", us(e.dur_ns())),
                    ("args", json_object(args)),
                ];
                events.push(event("X", tid, e.kind.label(), fields));
            }
        }
        for t in &self.gauges {
            for &(t_ns, v) in &t.samples {
                let args = json_object([("depth", Value::I64(v))]);
                events.push(event("C", 0, &t.name, vec![("ts", us(t_ns)), ("args", args)]));
            }
        }
        json_object([
            ("schema_version", Value::U64(1)),
            ("displayTimeUnit", text("ms")),
            ("traceEvents", Value::Array(events)),
        ])
    }

    /// Render as Chrome/Perfetto `trace.json` (loads directly in
    /// `ui.perfetto.dev` or `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let mut json =
            serde_json::to_string(&self.to_chrome_value()).expect("a JSON value always prints");
        json.push('\n');
        json
    }

    /// Parse a Chrome trace produced by [`Self::to_chrome_json`] back into
    /// a `Trace` (the `ii trace report` input path). Malformed JSON and a
    /// span whose end does not fit a `u64` of nanoseconds are errors.
    pub fn from_chrome_json(input: &str) -> Result<Trace, String> {
        let doc: Value = serde_json::from_str(input).map_err(|e| e.to_string())?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or("no traceEvents array")?;
        let ns_of = |v: &Value| -> Option<u64> {
            v.as_f64().map(|us| (us * 1000.0).round() as u64)
        };
        // tid → worker slot, in order of first appearance of thread names.
        let mut workers: Vec<(u64, WorkerTrace)> = Vec::new();
        let mut gauges: Vec<GaugeTrack> = Vec::new();
        let slot_of = |workers: &mut Vec<(u64, WorkerTrace)>, tid: u64| -> usize {
            match workers.iter().position(|(t, _)| *t == tid) {
                Some(i) => i,
                None => {
                    workers.push((tid, WorkerTrace::default()));
                    workers.len() - 1
                }
            }
        };
        for ev in events {
            let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
            let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
            let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
            match ph {
                "M" if name == "thread_name" && tid > 0 => {
                    let slot = slot_of(&mut workers, tid);
                    if let Some(n) = ev.get("args").and_then(|a| a.get("name")) {
                        workers[slot].1.name = n.as_str().unwrap_or("").to_string();
                    }
                    workers[slot].1.dropped = ev
                        .get("args")
                        .and_then(|a| a.get("dropped"))
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                }
                "X" => {
                    let kind = TraceKind::from_label(name)
                        .ok_or_else(|| format!("unknown span kind '{name}'"))?;
                    let ts = ev.get("ts").and_then(&ns_of).ok_or("span without ts")?;
                    let dur = ev.get("dur").and_then(&ns_of).unwrap_or(0);
                    let t_end_ns = ts.checked_add(dur).ok_or("span end overflows")?;
                    let args = ev.get("args");
                    let arg_u64 = |key: &str| -> Option<u64> {
                        args.and_then(|a| a.get(key)).and_then(Value::as_u64)
                    };
                    let gpu = if arg_u64("gpu_device_ns").is_some() {
                        Some(GpuSpanArgs {
                            device_ns: arg_u64("gpu_device_ns").unwrap_or(0),
                            transfer_ns: arg_u64("gpu_transfer_ns").unwrap_or(0),
                            warp_comparisons: arg_u64("gpu_warp_comparisons").unwrap_or(0),
                            global_transactions: arg_u64("gpu_global_transactions").unwrap_or(0),
                            global_bytes: arg_u64("gpu_global_bytes").unwrap_or(0),
                            instructions: arg_u64("gpu_instructions").unwrap_or(0),
                        })
                    } else {
                        None
                    };
                    let slot = slot_of(&mut workers, tid);
                    workers[slot].1.events.push(TraceEvent {
                        kind,
                        t_start_ns: ts,
                        t_end_ns,
                        bytes: arg_u64("bytes").unwrap_or(0),
                        batch_id: arg_u64("batch").map_or(NO_ID, |v| v as u32),
                        trie_lo: arg_u64("trie_lo").map_or(NO_ID, |v| v as u32),
                        trie_hi: arg_u64("trie_hi").map_or(NO_ID, |v| v as u32),
                        gpu,
                    });
                }
                "C" => {
                    let ts = ev.get("ts").and_then(&ns_of).ok_or("counter without ts")?;
                    let v = ev
                        .get("args")
                        .and_then(|a| a.get("depth"))
                        .and_then(Value::as_i64)
                        .unwrap_or(0);
                    match gauges.iter_mut().find(|g| g.name == name) {
                        Some(g) => g.samples.push((ts, v)),
                        None => gauges.push(GaugeTrack {
                            name: name.to_string(),
                            samples: vec![(ts, v)],
                        }),
                    }
                }
                _ => {}
            }
        }
        let mut out: Vec<WorkerTrace> = workers.into_iter().map(|(_, w)| w).collect();
        for w in &mut out {
            w.events.sort_by_key(|e| (e.t_start_ns, e.t_end_ns));
        }
        let dropped = out.iter().map(|w| w.dropped).sum();
        Ok(Trace { workers: out, gauges, dropped })
    }

    /// Structural invariants every well-formed trace satisfies: each span
    /// ends no earlier than it starts, nests inside its worker's lifetime,
    /// and no two spans on one worker overlap (half-open intervals — a
    /// span may start exactly where the previous one ended).
    pub fn validate(&self) -> Result<(), String> {
        for w in &self.workers {
            let Some((t0, t1)) = w.lifetime_ns() else { continue };
            let mut prev_end = t0;
            for (i, e) in w.events.iter().enumerate() {
                if e.t_end_ns < e.t_start_ns {
                    return Err(format!("{}: span {i} ends before it starts", w.name));
                }
                if e.t_start_ns < t0 || e.t_end_ns > t1 {
                    return Err(format!("{}: span {i} outside worker lifetime", w.name));
                }
                if e.t_start_ns < prev_end {
                    return Err(format!(
                        "{}: span {i} ({}) overlaps the previous span ({} < {})",
                        w.name,
                        e.kind.label(),
                        e.t_start_ns,
                        prev_end
                    ));
                }
                prev_end = e.t_end_ns;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            kind,
            t_start_ns: start,
            t_end_ns: end,
            bytes: 0,
            batch_id: NO_ID,
            trie_lo: NO_ID,
            trie_hi: NO_ID,
            gpu: None,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let sink = t.sink("w");
        {
            let mut s = sink.span(TraceKind::Read);
            s.add_bytes(10);
        }
        t.gauge("q").sample(3);
        assert!(t.finish().is_none());
    }

    #[test]
    fn spans_feed_an_attached_heartbeat() {
        let hb = Arc::new(crate::Heartbeat::new());
        let sink = TraceSink::disabled().with_heartbeat(Arc::clone(&hb));
        assert_eq!(hb.beats(), 0);
        drop(sink.span(TraceKind::Parse));
        drop(sink.span(TraceKind::Read));
        assert_eq!(hb.beats(), 2, "heartbeats flow even with tracing disabled");
    }

    #[test]
    fn spans_record_in_order_with_payload() {
        let t = Tracer::new(64);
        let sink = t.sink("parser-0");
        {
            let mut s = sink.span(TraceKind::Read);
            s.add_bytes(100);
            s.set_batch(7);
        }
        {
            let mut s = sink.span(TraceKind::Index);
            s.set_tries(3, 9);
            s.set_gpu(GpuSpanArgs { device_ns: 42, ..Default::default() });
        }
        let tr = t.finish().unwrap();
        assert_eq!(tr.workers.len(), 1);
        let w = &tr.workers[0];
        assert_eq!(w.name, "parser-0");
        assert_eq!(w.events.len(), 2);
        assert_eq!(w.events[0].kind, TraceKind::Read);
        assert_eq!(w.events[0].bytes, 100);
        assert_eq!(w.events[0].batch_id, 7);
        assert_eq!(w.events[1].trie_lo, 3);
        assert_eq!(w.events[1].gpu.unwrap().device_ns, 42);
        assert!(w.events[0].t_end_ns <= w.events[1].t_start_ns, "sequential spans ordered");
        tr.validate().unwrap();
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new(16);
        let sink = t.sink("w");
        for _ in 0..40 {
            let _ = sink.span(TraceKind::Parse);
        }
        let tr = t.finish().unwrap();
        let w = &tr.workers[0];
        assert_eq!(w.events.len(), 16, "ring keeps exactly capacity");
        assert_eq!(w.dropped, 24);
        assert_eq!(tr.dropped, 24);
        // The survivors are the *newest* events, still in time order.
        assert!(w.events.windows(2).all(|p| p[0].t_start_ns <= p[1].t_start_ns));
        tr.validate().unwrap();
    }

    #[test]
    fn multi_thread_merge_keeps_worker_isolation_and_order() {
        let t = Tracer::new(1024);
        let mut handles = Vec::new();
        for i in 0..4 {
            let sink = t.sink(&format!("worker-{i}"));
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let mut s = sink.span(TraceKind::Parse);
                    s.add_bytes(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let tr = t.finish().unwrap();
        assert_eq!(tr.workers.len(), 4);
        for (i, w) in tr.workers.iter().enumerate() {
            assert_eq!(w.name, format!("worker-{i}"), "registration order preserved");
            assert_eq!(w.events.len(), 50);
            assert!(w.events.windows(2).all(|p| p[0].t_start_ns <= p[1].t_start_ns));
        }
        tr.validate().unwrap();
    }

    #[test]
    fn chrome_json_round_trips() {
        let t = Tracer::new(64);
        let sink = t.sink("driver");
        {
            let mut s = sink.span(TraceKind::Index);
            s.add_bytes(4096);
            s.set_batch(3);
            s.set_tries(0, 100);
            s.set_gpu(GpuSpanArgs {
                device_ns: 123,
                transfer_ns: 456,
                warp_comparisons: 31,
                global_transactions: 2,
                global_bytes: 128,
                instructions: 99,
            });
        }
        { let _ = sink.span(TraceKind::ParserWait); }
        let g = t.gauge("queue.parsed");
        g.sample(2);
        g.sample(0);
        let tr = t.finish().unwrap();
        let json = tr.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"cat\":\"stall\""));
        let back = Trace::from_chrome_json(&json).expect("parse back");
        assert_eq!(back, tr, "ns-exact round trip");
    }

    #[test]
    fn a_span_end_past_u64_is_an_error() {
        let span = |ts: &str, dur: &str| {
            format!(
                "{{\"traceEvents\":[{{\"ph\":\"X\",\"tid\":1,\"name\":\"parse\",\
                 \"ts\":{ts},\"dur\":{dur}}}]}}"
            )
        };
        let ok = Trace::from_chrome_json(&span("1.000", "2.500")).unwrap();
        let e = &ok.workers[0].events[0];
        assert_eq!((e.t_start_ns, e.t_end_ns), (1000, 3500));
        // `ts` saturates to u64::MAX nanoseconds; adding any duration must
        // not wrap into a span that ends before it starts.
        for (ts, dur) in [("1e300", "1.000"), ("18446744073709551.615", "0.001")] {
            let err = Trace::from_chrome_json(&span(ts, dur)).unwrap_err();
            assert_eq!(err, "span end overflows", "ts {ts} dur {dur}");
        }
    }

    #[test]
    fn validate_rejects_overlap_and_escape() {
        let mut tr = Trace::default();
        tr.workers.push(WorkerTrace {
            name: "w".into(),
            events: vec![ev(TraceKind::Read, 0, 100), ev(TraceKind::Parse, 50, 150)],
            dropped: 0,
        });
        assert!(tr.validate().unwrap_err().contains("overlaps"));
        // Touching spans (end == next start) are fine.
        tr.workers[0].events = vec![ev(TraceKind::Read, 0, 100), ev(TraceKind::Parse, 100, 150)];
        tr.validate().unwrap();
    }
}
