//! Parallel parsers with a serialized disk scheduler (paper §III.C, §III.F).
//!
//! "To avoid several parsers from trying to read from the same disk at the
//! same time, a scheduler is used to organize the reads of the different
//! parsers, one at a time." Parser `i` owns files `i, i+M, i+2M, ...`, so
//! consuming the parser buffers in round-robin order replays the global
//! file order and document IDs come out "intrinsically in sorted order".
//!
//! Each parser performs Step 1 (read + decompress + doc-ID table) and
//! Steps 2-5 (tokenize, stem, stop words, regroup) and pushes the parsed
//! batch into its bounded output buffer.
//!
//! Ownership is static but not exclusive: every file has one claim flag,
//! and whoever sets it first ingests the file. A parser claims each file it
//! owns before ingesting it; the in-order consumer, whenever the batch it
//! needs is not queued yet, claims a later unstarted file and ingests it
//! itself instead of blocking ([`SupervisedRoundRobin`]). A file's batch
//! does not depend on who parsed it and batches are still consumed in file
//! order, so the index bytes cannot tell the difference.
//!
//! Fault handling: transient read errors are retried with exponential
//! backoff under the [`FaultPolicy`]; permanent corruption (and exhausted
//! retries) produce a typed [`FileFault`] message in the file's round-robin
//! slot, so the strict consumption order — and with it docID determinism —
//! survives a bad file. Each file's work runs under `catch_unwind`, so a
//! poisoned parser surfaces as a `Panic`-class fault instead of hanging the
//! consumer or silently truncating the stream.

use crate::fault::{
    FaultAction, FaultClass, FaultPolicy, FaultStage, FileFault, PipelineError, WorkerClass,
    WorkerFaultKind, WorkerFaultPlan,
};
use crate::governor::MemoryGovernor;
use crate::supervisor::{DeathCause, SupervisorPolicy, WorkerDeath};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use ii_corpus::{compress, container, StoredCollection};
use ii_obs::{Heartbeat, Registry, Stage, TraceKind, TraceSink, Tracer};
use ii_text::{parse_documents_into, ParseScratch, ParsedBatch};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage handles the parser threads record into: one [`Stage`] per
/// dataflow step of paper Step 1 (read, decompress) and Steps 2-5 (parse).
/// Producer back-pressure (time blocked sending into a full buffer) lands
/// in the parse stage's `queue_wait_ns`.
#[derive(Clone)]
pub struct ParserObs {
    /// Serialized disk reads (bytes = compressed bytes read).
    pub read: Arc<Stage>,
    /// In-memory decompression (bytes = uncompressed output).
    pub decompress: Arc<Stage>,
    /// Container parse + tokenize/stem/stop/regroup (bytes = uncompressed
    /// input).
    pub parse: Arc<Stage>,
}

impl ParserObs {
    /// Intern the parser stages ("read", "decompress", "parse") in `r`.
    pub fn from_registry(r: &Registry) -> ParserObs {
        ParserObs {
            read: r.stage("read"),
            decompress: r.stage("decompress"),
            parse: r.stage("parse"),
        }
    }
}

/// Returns consumed [`ParsedBatch`] buffers from the round-robin consumer
/// to the parser threads, so output allocations circulate instead of being
/// made fresh per container file.
///
/// A bounded mutex-guarded pool carries the husks; both ends use
/// non-blocking `try_lock`, so contention — or a full pool — simply drops
/// the batch (the allocator takes over) and an empty pool means parsers
/// allocate normally. Correctness never depends on recycling.
#[derive(Clone)]
pub struct BatchRecycler {
    pool: Arc<Mutex<Vec<ParsedBatch>>>,
    capacity: usize,
}

impl BatchRecycler {
    /// Pool holding at most `capacity` drained batches.
    pub fn new(capacity: usize) -> BatchRecycler {
        let capacity = capacity.max(1);
        BatchRecycler {
            pool: Arc::new(Mutex::new(Vec::with_capacity(capacity))),
            capacity,
        }
    }

    /// Consumer side: hand back a batch whose contents have been indexed.
    /// Never blocks; the batch is dropped if the pool is full or busy.
    pub fn reclaim(&self, batch: ParsedBatch) {
        if let Some(mut pool) = self.pool.try_lock() {
            if pool.len() < self.capacity {
                pool.push(batch);
            }
        }
    }

    /// Parser side: move one available husk's buffers into `scratch`.
    /// (One per file keeps the pool spread across parser threads.)
    fn refill(&self, scratch: &mut ParseScratch) {
        let husk = self.pool.try_lock().and_then(|mut pool| pool.pop());
        if let Some(husk) = husk {
            scratch.recycle(husk);
        }
    }

    /// Free every pooled husk (end of streaming: nobody will parse again,
    /// and the combine and commit that follow should not carry them).
    pub fn clear(&self) {
        *self.pool.lock() = Vec::new();
    }

    /// Number of husks currently pooled (0 when the pool is busy) — a
    /// gauge-sampling probe, approximate by design.
    pub fn depth(&self) -> usize {
        self.pool.try_lock().map_or(0, |pool| pool.len())
    }
}

/// What [`ParserPool::spawn_with`] can be told beyond the collection and
/// the fault policy; the default is an unsupervised, untraced pool that
/// starts at file 0.
#[derive(Clone, Default)]
pub struct SpawnOptions {
    /// First container file to ingest (resume path).
    pub start_file: usize,
    /// Buffer pool fed by the consumer via [`BatchRecycler::reclaim`].
    pub recycler: Option<BatchRecycler>,
    /// Event tracer; each parser registers a `parser-{p}` timeline. The
    /// default (disabled) tracer records nothing.
    pub tracer: Tracer,
    /// Liveness beacons, one per parser in parser order (the supervisor's
    /// registrations). Parser `p` bumps `heartbeats[p]` through its trace
    /// spans; missing entries leave that parser unsupervised for stalls.
    pub heartbeats: Vec<Arc<Heartbeat>>,
    /// Seeded worker-fault schedule (chaos testing). A scheduled `Kill`
    /// makes the parser thread exit just before ingesting the trigger
    /// file; a `Stall` makes it sleep that long without heartbeating.
    pub worker_faults: WorkerFaultPlan,
    /// Shared memory governor. Parsers acquire byte credits from its
    /// in-flight gate before sending each batch downstream (blocked time
    /// lands in `memory_wait` spans); the default unlimited governor
    /// accounts but never blocks.
    pub governor: MemoryGovernor,
}

/// One parser's message for one container file: either the parsed batch or
/// the fault that consumed the file's round-robin slot.
#[derive(Debug)]
pub struct ParsedFile {
    /// Failed read attempts recovered from before success (0 on the error
    /// path — the fault itself carries its retry count).
    pub retries: u32,
    /// Seconds the *consumer* blocked waiting for this message (set by
    /// [`SupervisedRoundRobin`]; 0 until the message is consumed). Distinguishes
    /// "the parser was slow" from "the file itself was slow" in per-file
    /// reports.
    pub queue_wait_seconds: f64,
    /// The parser thread that ingested the file; `None` when the consumer
    /// did (for a dead parser, or while it would otherwise have waited).
    /// Also names the governor ledger [`Self::credit`] is held on.
    pub parser: Option<usize>,
    /// Bytes of in-flight credit acquired from the memory governor for
    /// this message, to be released to [`Self::parser`]'s ledger once the
    /// batch is consumed (0 for a fault, and for a dead parser's file).
    pub credit: u64,
    /// The batch, or the fault occupying this file's slot.
    pub result: Result<ParsedBatch, FileFault>,
}

impl ParsedFile {
    /// The container file this message accounts for.
    pub fn file_idx(&self) -> usize {
        match &self.result {
            Ok(batch) => batch.file_idx,
            Err(fault) => fault.file_idx,
        }
    }
}

/// What the parser threads and the consumer share besides the channels.
struct Shared {
    /// One claim flag per container file: whoever sets it first ingests
    /// the file, the other side leaves it alone. A flag publishes nothing
    /// but itself.
    claimed: Vec<AtomicBool>,
    /// Set by parser `p` once it has been through every file it owns. With
    /// the consumer taking files, a parser may owe nothing when it goes:
    /// a channel that closes without this is a death, with it an exit.
    finished: Vec<AtomicBool>,
    /// The disk scheduler: one read at a time, the consumer's included.
    disk: Mutex<()>,
}

impl Shared {
    fn new(num_files: usize, num_parsers: usize) -> Shared {
        let flags = |n: usize| (0..n).map(|_| AtomicBool::new(false)).collect();
        Shared { claimed: flags(num_files), finished: flags(num_parsers), disk: Mutex::new(()) }
    }

    /// Take `file_idx` if nobody has; true means the caller ingests it.
    fn claim(&self, file_idx: usize) -> bool {
        !self.claimed[file_idx].swap(true, SeqCst)
    }

    /// Lowest unclaimed file at or after `from`.
    fn first_free(&self, from: usize) -> Option<usize> {
        (from..self.claimed.len()).find(|&i| !self.claimed[i].load(SeqCst))
    }
}

/// Handle to a running parser pool.
pub struct ParserPool {
    /// One output buffer per parser, in parser order.
    pub buffers: Vec<Receiver<ParsedFile>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    // For the consumer, which ingests files too.
    shared: Arc<Shared>,
    buffer_depth: usize,
}

impl ParserPool {
    /// Spawn `num_parsers` parser threads over the collection's files from
    /// `options.start_file` on (the resume path after a build checkpoint).
    /// `buffer_depth` bounds each parser's output buffer, providing the
    /// back-pressure that couples the two pipeline stages; `policy` governs
    /// retry and skip behaviour for faulty files; per-stage metrics go to
    /// `obs` (the pipeline driver passes stages interned in its per-build
    /// registry). Parser `p` owns every file whose index is `p` modulo
    /// `num_parsers`, so a resumed build routes each remaining file through
    /// the same parser slot (and thus the same round-robin consumption
    /// order) as an uninterrupted build.
    pub fn spawn_with(
        collection: Arc<StoredCollection>,
        num_parsers: usize,
        buffer_depth: usize,
        policy: FaultPolicy,
        obs: ParserObs,
        options: SpawnOptions,
    ) -> ParserPool {
        let start_file = options.start_file;
        assert!(num_parsers >= 1);
        let num_files = collection.num_files();
        let shared = Arc::new(Shared::new(num_files, num_parsers));
        let buffer_depth = buffer_depth.max(1);
        let mut buffers = Vec::with_capacity(num_parsers);
        let mut handles = Vec::with_capacity(num_parsers);
        for p in 0..num_parsers {
            let (tx, rx): (Sender<ParsedFile>, Receiver<ParsedFile>) = bounded(buffer_depth);
            let shared = Arc::clone(&shared);
            let coll = Arc::clone(&collection);
            let obs = obs.clone();
            let options = options.clone();
            // Register timelines in parser order (before the threads race).
            let mut sink = options.tracer.sink(&format!("parser-{p}"));
            if let Some(hb) = options.heartbeats.get(p) {
                sink = sink.with_heartbeat(Arc::clone(hb));
            }
            let handle = std::thread::spawn(move || {
                // Thread-owned working memory, carried across files so
                // steady-state parsing reuses every buffer.
                let mut scratch = ParseScratch::new();
                // First index >= start_file owned by this parser (idx ≡ p
                // mod num_parsers).
                let mut file_idx =
                    start_file + (p + num_parsers - start_file % num_parsers) % num_parsers;
                while file_idx < num_files {
                    // Chaos injection: a scheduled kill ends this thread at
                    // the file boundary (the channel disconnect is what the
                    // watchdog observes); a stall sleeps without beating the
                    // heartbeat, so only the watchdog timeout can notice.
                    // Before the claim: the schedule fires at this boundary
                    // whether or not the consumer already took the file.
                    match options.worker_faults.fault_at(WorkerClass::Parser, p, file_idx) {
                        Some(WorkerFaultKind::Kill) => break,
                        Some(WorkerFaultKind::Stall(d)) => std::thread::sleep(d),
                        None => {}
                    }
                    if !shared.claim(file_idx) {
                        // The consumer ingested this one while it waited;
                        // its slot is filled, nothing is sent for it.
                        file_idx += num_parsers;
                        continue;
                    }
                    let mut msg = ingest_contained(
                        &coll,
                        &shared.disk,
                        file_idx,
                        &policy,
                        &obs,
                        &mut scratch,
                        &options,
                        &sink,
                    );
                    let failed = msg.result.is_err();
                    // Memory back-pressure: a parsed batch may not enter
                    // the in-flight queues until the governor's byte-credit
                    // gate admits its footprint (fault messages carry no
                    // payload and pass free). The driver returns the credit
                    // when the batch's memory is recycled.
                    let credit = msg.result.as_ref().map_or(0, |b| b.mem_bytes());
                    options.governor.acquire(p, credit, &sink);
                    msg.parser = Some(p);
                    msg.credit = credit;
                    // Producer back-pressure: time blocked on a full buffer.
                    let t_send = Instant::now();
                    {
                        let mut qspan = sink.span(TraceKind::QueueFull);
                        qspan.set_batch(file_idx as u32);
                        if tx.send(msg).is_err() {
                            options.governor.release(Some(p), credit);
                            break; // consumer gone
                        }
                    }
                    obs.parse.queue_wait_ns.add(t_send.elapsed().as_nanos() as u64);
                    if failed && policy.action == FaultAction::FailFast {
                        break; // the consumer will abort on receipt
                    }
                    file_idx += num_parsers;
                }
                // Every `break` above leaves a file unvisited.
                if file_idx >= num_files {
                    shared.finished[p].store(true, SeqCst);
                }
            });
            buffers.push(rx);
            handles.push(handle);
        }
        ParserPool { buffers, handles, shared, buffer_depth }
    }

    /// Wait for all parsers. A parser that died outside its per-file
    /// containment is not propagated as a panic: the consumer has already
    /// accounted for its files.
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Ingest one container file under crash containment: the parsed batch, or
/// the typed fault — a panic anywhere in the ingest included — that takes
/// the file's round-robin slot. (The scratch self-cleans any stale state on
/// reuse.)
#[allow(clippy::too_many_arguments)]
fn ingest_contained(
    coll: &StoredCollection,
    disk: &Mutex<()>,
    file_idx: usize,
    policy: &FaultPolicy,
    obs: &ParserObs,
    scratch: &mut ParseScratch,
    options: &SpawnOptions,
    sink: &TraceSink,
) -> ParsedFile {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        ingest_file(coll, disk, file_idx, policy, obs, scratch, options, sink)
    }));
    let fault = |class, retries, error| FileFault {
        file_idx,
        class,
        retries,
        stage: FaultStage::Parsing,
        error,
    };
    let (retries, result) = match outcome {
        Ok((retries, Ok(batch))) => (retries, Ok(batch)),
        Ok((retries, Err((class, error)))) => (0, Err(fault(class, retries, error))),
        Err(payload) => (0, Err(fault(FaultClass::Panic, 0, panic_message(payload.as_ref())))),
    };
    ParsedFile { retries, queue_wait_seconds: 0.0, parser: None, credit: 0, result }
}

type IngestOutcome = (u32, Result<ParsedBatch, (FaultClass, String)>);

/// Ingest one container file: serialized read (with transient-fault retry),
/// decompress, container parse, and Steps 2-5 parsing. Returns the number
/// of recovered retries plus the batch or the classified failure.
#[allow(clippy::too_many_arguments)]
fn ingest_file(
    coll: &StoredCollection,
    disk: &Mutex<()>,
    file_idx: usize,
    policy: &FaultPolicy,
    obs: &ParserObs,
    scratch: &mut ParseScratch,
    options: &SpawnOptions,
    sink: &TraceSink,
) -> IngestOutcome {
    let mut retries = 0u32;
    // Step 1a: serialized read of the compressed file, retried on
    // transient faults with exponential backoff (sleeping outside the
    // disk lock so other parsers proceed).
    let raw = loop {
        let read = {
            let wait_span = sink.span(TraceKind::DiskWait);
            let _disk_token = disk.lock();
            drop(wait_span); // lock acquired: the read-wait stall ends here
            let mut rspan = sink.span(TraceKind::Read);
            rspan.set_batch(file_idx as u32);
            let t0 = Instant::now();
            let r = coll.read_file_raw(file_idx);
            let dt = t0.elapsed();
            obs.read.wall_ns.add(dt.as_nanos() as u64);
            obs.read.latency.record_ns(dt.as_nanos() as u64);
            if let Ok(raw) = &r {
                rspan.add_bytes(raw.len() as u64);
            }
            r
        };
        match read {
            Ok(raw) => {
                obs.read.items.inc();
                obs.read.bytes.add(raw.len() as u64);
                break raw;
            }
            Err(e) => {
                let transient = io_is_transient(&e);
                if transient && retries < policy.max_retries {
                    retries += 1;
                    // Jittered: parsers sharing a glitching disk must not
                    // re-stampede it in lockstep.
                    std::thread::sleep(policy.jittered_backoff(retries, file_idx as u64));
                    continue;
                }
                let class =
                    if transient { FaultClass::Transient } else { FaultClass::Permanent };
                return (retries, Err((class, format!("read failed: {e}"))));
            }
        }
    };
    // Step 1b: in-memory decompression (outside the lock — the
    // separate-step scheme of §IV.A).
    let mut span = obs.decompress.span();
    let mut tspan = sink.span(TraceKind::Decompress);
    tspan.set_batch(file_idx as u32);
    let bytes = match compress::decompress(&raw) {
        Ok(b) => b,
        Err(e) => {
            drop(span);
            return (retries, Err((FaultClass::Permanent, format!("decompress failed: {e}"))));
        }
    };
    span.add_bytes(bytes.len() as u64);
    tspan.add_bytes(bytes.len() as u64);
    drop(span);
    drop(tspan);
    // Steps 1c-5: container parse + tokenize/stem/stop/regroup.
    let mut span = obs.parse.span();
    let mut tspan = sink.span(TraceKind::Parse);
    tspan.set_batch(file_idx as u32);
    let docs = match container::parse_container(&bytes) {
        Ok(d) => d,
        Err(e) => {
            drop(span);
            return (
                retries,
                Err((FaultClass::Permanent, format!("container parse failed: {e}"))),
            );
        }
    };
    // Pull consumed batch buffers back from the consumer before parsing so
    // their capacity is reused for this file's output.
    if let Some(recycler) = &options.recycler {
        recycler.refill(scratch);
    }
    let batch = parse_documents_into(scratch, &docs, coll.manifest.spec.html, file_idx);
    span.add_bytes(bytes.len() as u64);
    tspan.add_bytes(bytes.len() as u64);
    drop(span);
    drop(tspan);
    (retries, Ok(batch))
}

/// I/O errors are retried unless the kind indicates a fault retrying
/// cannot fix.
fn io_is_transient(e: &io::Error) -> bool {
    !matches!(
        e.kind(),
        io::ErrorKind::NotFound
            | io::ErrorKind::PermissionDenied
            | io::ErrorKind::Unsupported
            | io::ErrorKind::InvalidData
            | io::ErrorKind::InvalidInput
    )
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "parser panicked".to_string()
    }
}

/// Consume the parser buffers in strict round-robin order, yielding one
/// message per file in global file order (the §III.F consumption rule),
/// with a watchdog that survives parser death instead of aborting.
///
/// The consumer owns the receivers. While waiting for a file it polls with
/// `recv_timeout`; a parser whose channel disconnects with files
/// outstanding, or whose heartbeat stays silent past the stall timeout, is
/// declared dead. Its receiver is dropped (unblocking the thread if it was
/// parked on a full buffer, so it exits through its normal send-failure
/// path) and every file the dead parser still owed is re-ingested *inline
/// on the consumer thread* — same read/decompress/parse code, same fault
/// classification, same round-robin slot — so document IDs and the final
/// index stay byte-identical to a healthy build.
///
/// The same inline ingest keeps a healthy build's consumer busy: when the
/// file it needs is not queued yet, it claims the lowest *later* file no
/// parser has started, ingests it, parks the message until that file's
/// turn, and looks at the queue again; it blocks only when nothing is free
/// (or the memory gate is full, or it already holds a parser's buffer
/// depth of parked messages). The file it is waiting for is never taken:
/// that one is the parser's to deliver or the watchdog's to bury. And it
/// takes nothing before a parser has delivered its first batch: until
/// then an empty queue is the pipeline filling, not a parser falling
/// behind, and a parse started then only delays the first batch's
/// indexing. All of it keys on observable pipeline state, so where
/// indexing is the wall the queue is never empty again and none of this
/// runs.
pub struct SupervisedRoundRobin {
    /// One slot per parser; `None` once that parser is declared dead.
    buffers: Vec<Option<Receiver<ParsedFile>>>,
    heartbeats: Vec<Option<Arc<Heartbeat>>>,
    next_file: usize,
    num_files: usize,
    queue_wait: Option<Arc<Stage>>,
    trace: TraceSink,
    supervision: SupervisorPolicy,
    // Inline ingest context: for files a dead parser owed, and for files
    // taken while waiting.
    collection: Arc<StoredCollection>,
    policy: FaultPolicy,
    obs: ParserObs,
    options: SpawnOptions,
    shared: Arc<Shared>,
    scratch: ParseScratch,
    deaths: Vec<WorkerDeath>,
    inline_parsed: u32,
    /// Messages waiting for their file's turn: files ingested here ahead
    /// of the stream, and anything a liveness probe found queued.
    parked: BTreeMap<usize, ParsedFile>,
    /// At most this many messages are parked by helping: what one parser
    /// may queue ahead.
    park_limit: usize,
    /// A parser has delivered a message (nothing is taken before that).
    fed: bool,
    helped: u32,
}

impl SupervisedRoundRobin {
    /// Adopt `pool`'s buffers (the pool keeps only its join handles) and
    /// iterate the collection's files from `options.start_file` on under
    /// watchdog supervision. `options` must be the same option set the pool
    /// was spawned with — its `heartbeats` pair the watchdog with the parser
    /// threads, and inline ingest draws on its recycler and governor. With
    /// `supervision.enabled == false` the watchdog and inline takeover are
    /// off: this is the unsupervised consumer, and a channel that closes
    /// before delivering its files yields the fatal
    /// [`PipelineError::ParserDisconnected`] instead of ending the stream
    /// (a crashed parser must not look like end-of-input).
    pub fn new(
        pool: &mut ParserPool,
        collection: Arc<StoredCollection>,
        policy: FaultPolicy,
        obs: ParserObs,
        options: SpawnOptions,
        supervision: SupervisorPolicy,
    ) -> SupervisedRoundRobin {
        let buffers: Vec<Option<Receiver<ParsedFile>>> =
            std::mem::take(&mut pool.buffers).into_iter().map(Some).collect();
        let heartbeats = (0..buffers.len())
            .map(|p| options.heartbeats.get(p).cloned())
            .collect();
        SupervisedRoundRobin {
            buffers,
            heartbeats,
            next_file: options.start_file,
            num_files: collection.num_files(),
            queue_wait: None,
            trace: TraceSink::disabled(),
            supervision,
            collection,
            policy,
            obs,
            options,
            shared: Arc::clone(&pool.shared),
            scratch: ParseScratch::new(),
            deaths: Vec::new(),
            inline_parsed: 0,
            parked: BTreeMap::new(),
            park_limit: pool.buffer_depth,
            fed: false,
            helped: 0,
        }
    }

    /// Record time blocked waiting on parser buffers into `stage`'s
    /// `queue_wait_ns`.
    pub fn with_queue_wait(mut self, stage: Arc<Stage>) -> Self {
        self.queue_wait = Some(stage);
        self
    }

    /// Record each blocking wait as a `parser_wait` stall span on `sink`
    /// (the driver passes its own timeline). A dead parser's re-ingest
    /// spans and one `help` span per file taken while waiting land on the
    /// same timeline.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Parser deaths the watchdog declared, in declaration order.
    pub fn deaths(&self) -> &[WorkerDeath] {
        &self.deaths
    }

    /// Files re-ingested inline on the consumer thread for dead parsers.
    pub fn inline_parsed_files(&self) -> u32 {
        self.inline_parsed
    }

    /// Files of live parsers the consumer ingested while it would
    /// otherwise have waited.
    pub fn helped_files(&self) -> u32 {
        self.helped
    }

    /// Whether parser `p` has been declared dead.
    pub fn parser_is_dead(&self, p: usize) -> bool {
        self.buffers.get(p).is_some_and(|b| b.is_none())
    }

    /// Declare parser `p` dead: drop its receiver (a producer parked on a
    /// full buffer errors out of its send and exits) and record the death.
    fn declare_dead(&mut self, p: usize, cause: DeathCause) {
        if let Some(slot) = self.buffers.get_mut(p) {
            if slot.take().is_some() {
                self.deaths.push(WorkerDeath { class: WorkerClass::Parser, index: p, cause });
            }
        }
    }

    /// Ingest `file_idx` on this thread with the exact routine a parser
    /// runs, panic containment and fault classification included. For a
    /// dead parser this thread stands in as a parser: spans on its
    /// timeline, scratch kept for the next file. `helping`, the caller's
    /// one `help` span covers the file, and this thread must not become a
    /// second steady-state parser in memory: the grown builders go back
    /// to the allocator (the batch itself is built on a recycled husk
    /// either way, and returns to the pool when consumed).
    fn ingest_inline(&mut self, file_idx: usize, helping: bool) -> ParsedFile {
        let untraced = TraceSink::disabled();
        let sink = if helping { &untraced } else { &self.trace };
        let msg = ingest_contained(
            &self.collection,
            &self.shared.disk,
            file_idx,
            &self.policy,
            &self.obs,
            &mut self.scratch,
            &self.options,
            sink,
        );
        if helping {
            self.scratch = ParseScratch::new();
        }
        msg
    }

    /// Take one file no parser has started and ingest it here, parking the
    /// message until its turn. False when there is nothing to take: no
    /// parser has delivered yet, every later file is claimed, the memory
    /// gate has no room for the file, or the parked set is at its limit.
    fn help(&mut self) -> bool {
        if !self.fed || self.parked.len() >= self.park_limit {
            return false;
        }
        let (file_idx, credit) = loop {
            let Some(idx) = self.shared.first_free(self.next_file + 1) else { return false };
            // The credit is taken before the parse, so it is the file's
            // uncompressed size — the figure known by then — that stands
            // in for the batch's footprint on the consumer's ledger.
            let sizes = &self.collection.manifest.file_uncompressed_bytes;
            let credit = sizes.get(idx).copied().unwrap_or(0);
            if !self.options.governor.try_acquire(credit) {
                return false;
            }
            if self.shared.claim(idx) {
                break (idx, credit);
            }
            // Its parser got there first; look again.
            self.options.governor.release(None, credit);
        };
        let trace = self.trace.clone();
        let mut span = trace.span(TraceKind::Help);
        span.set_batch(file_idx as u32);
        span.add_bytes(credit);
        let mut msg = self.ingest_inline(file_idx, true);
        drop(span);
        if msg.result.is_ok() {
            msg.credit = credit;
        } else {
            self.options.governor.release(None, credit);
        }
        // Taken from a parser already known dead, it is that parser's
        // re-ingest done early, not help.
        if self.parser_is_dead(file_idx % self.buffers.len()) {
            self.inline_parsed += 1;
        } else {
            self.helped += 1;
        }
        self.parked.insert(file_idx, msg);
        true
    }

    /// Approximate queued-message depth of parser `p`'s buffer (0 once the
    /// parser is dead) — feeds the driver's queue gauges.
    pub fn queue_depth(&self, p: usize) -> usize {
        self.buffers.get(p).and_then(|b| b.as_ref()).map_or(0, |rx| rx.len())
    }

    /// Block on parser `p`'s buffer until a message arrives, the channel
    /// disconnects, or (supervised) the watchdog finds the parser stalled.
    fn watch(&self, p: usize) -> Watched {
        let Some(rx) = self.buffers[p].as_ref() else { return Watched::Disconnected };
        if !self.supervision.enabled {
            return rx.recv().map_or(Watched::Disconnected, Watched::Msg);
        }
        let stall_timeout = self.supervision.stall_timeout;
        // Poll fast enough to notice a stall promptly without busy-waiting
        // (a quarter of the stall timeout unless the policy pins it).
        let poll = self.supervision.effective_poll_interval();
        let t_start = Instant::now();
        loop {
            match rx.recv_timeout(poll) {
                Ok(msg) => return Watched::Msg(msg),
                Err(RecvTimeoutError::Disconnected) => return Watched::Disconnected,
                Err(RecvTimeoutError::Timeout) => {
                    // Stall detection needs a heartbeat: progress beats come
                    // from the parser's trace spans, so "no beat AND we have
                    // been waiting on it" past the timeout means the worker
                    // is wedged, not merely slow on one step.
                    let idle = self.heartbeats[p].as_ref().map(|hb| hb.idle());
                    if let Some(idle) = idle.filter(|&idle| idle >= stall_timeout) {
                        if t_start.elapsed() >= stall_timeout {
                            return Watched::Stalled(idle);
                        }
                    }
                }
            }
        }
    }

    /// Wait for the next expected file from parser `p`, declare it dead
    /// ([`Recv::Dead`] — the caller re-ingests inline), or, with
    /// supervision off, surface the fatal disconnect ([`Recv::Fatal`]).
    fn receive_or_bury(&mut self, p: usize) -> Recv {
        let cause = match self.watch(p) {
            Watched::Msg(msg) => return Recv::Msg(msg),
            Watched::Disconnected if !self.supervision.enabled => return Recv::Fatal,
            // The thread exited with this file undelivered: a panic outside
            // per-file containment or an injected kill.
            Watched::Disconnected => DeathCause::Disconnect,
            Watched::Stalled(idle) => DeathCause::Stall(idle),
        };
        self.declare_dead(p, cause);
        Recv::Dead
    }

    /// Get the next expected file from its parser, ingesting later files
    /// here for as long as it is not queued and there is one to take; then
    /// block under the watchdog. `helping` accumulates the time spent
    /// ingesting, which is work, not wait.
    fn receive_or_help(&mut self, helping: &mut Duration) -> Recv {
        let parser = self.next_file % self.buffers.len();
        loop {
            match self.buffers[parser].as_ref().map(|rx| rx.try_recv()) {
                None => return Recv::Dead,
                Some(Ok(msg)) => return Recv::Msg(msg),
                // The blocking path below knows what a disconnect means.
                Some(Err(TryRecvError::Disconnected)) => break,
                Some(Err(TryRecvError::Empty)) => {}
            }
            let t_help = Instant::now();
            if !self.help() {
                break;
            }
            *helping += t_help.elapsed();
        }
        // Clone the sink handle: the wait span must outlive the (mutably
        // borrowing) receive below.
        let trace = self.trace.clone();
        let mut wspan = trace.span(TraceKind::ParserWait);
        wspan.set_batch(self.next_file as u32);
        self.receive_or_bury(parser)
    }

    /// A file ingested here is being consumed without anyone having waited
    /// on its owner `p`: look at `p`'s channel, so that a parser that died
    /// is buried now and its later files count as re-ingested for it, not
    /// as help. A message found queued is for a later file of `p` and is
    /// parked.
    fn probe(&mut self, p: usize) {
        if !self.supervision.enabled {
            return;
        }
        match self.buffers[p].as_ref().map(|rx| rx.try_recv()) {
            Some(Ok(msg)) => {
                self.parked.insert(msg.file_idx(), msg);
            }
            Some(Err(TryRecvError::Disconnected)) if !self.finished(p) => {
                self.declare_dead(p, DeathCause::Disconnect);
            }
            _ => {}
        }
    }

    /// Whether parser `p` went through all its files (its channel closing
    /// is then an exit, not a death).
    fn finished(&self, p: usize) -> bool {
        self.shared.finished[p].load(SeqCst)
    }

    /// End of stream: every file is in, but a parser killed or stalled at
    /// a file taken from under it was never waited on. Watch each live
    /// parser leave, so the death is on the ledger before the driver's
    /// `join` sits a stall out.
    fn see_parsers_out(&mut self) {
        if !self.supervision.enabled {
            return;
        }
        for p in 0..self.buffers.len() {
            if self.parser_is_dead(p) {
                continue;
            }
            match self.watch(p) {
                Watched::Stalled(idle) => self.declare_dead(p, DeathCause::Stall(idle)),
                Watched::Disconnected if !self.finished(p) => {
                    self.declare_dead(p, DeathCause::Disconnect)
                }
                _ => {}
            }
        }
    }
}

/// Outcome of one blocking wait on a parser buffer.
enum Watched {
    /// A message arrived.
    Msg(ParsedFile),
    /// Every sender is gone and the buffer is drained.
    Disconnected,
    /// Heartbeat silent, and this wait as long, past the stall timeout.
    Stalled(Duration),
}

/// Outcome of one supervised wait for the next expected file.
enum Recv {
    /// The expected message arrived.
    Msg(ParsedFile),
    /// The parser is dead; its slot must be re-ingested inline.
    Dead,
    /// Supervision is off and the parser disconnected — fatal.
    Fatal,
}

impl Iterator for SupervisedRoundRobin {
    type Item = Result<ParsedFile, PipelineError>;
    fn next(&mut self) -> Option<Self::Item> {
        if self.next_file >= self.num_files {
            self.see_parsers_out();
            return None;
        }
        let parser = self.next_file % self.buffers.len();
        let t_recv = Instant::now();
        let mut helping = Duration::ZERO;
        let received = match self.parked.remove(&self.next_file) {
            Some(msg) => Recv::Msg(msg),
            None => self.receive_or_help(&mut helping),
        };
        let mut msg = match received {
            Recv::Msg(msg) => msg,
            // Dead parser: its slot is re-ingested inline, preserving the
            // round-robin order (and with it docID determinism).
            Recv::Dead => {
                self.inline_parsed += 1;
                self.ingest_inline(self.next_file, false)
            }
            Recv::Fatal => {
                let err =
                    PipelineError::ParserDisconnected { parser, file_idx: self.next_file };
                self.next_file = self.num_files; // fuse: the stream is dead
                return Some(Err(err));
            }
        };
        match msg.parser {
            Some(_) => self.fed = true,
            None => self.probe(parser),
        }
        let waited = t_recv.elapsed().saturating_sub(helping);
        if let Some(stage) = &self.queue_wait {
            stage.queue_wait_ns.add(waited.as_nanos() as u64);
        }
        debug_assert_eq!(msg.file_idx(), self.next_file, "round-robin order violated");
        msg.queue_wait_seconds = waited.as_secs_f64();
        self.next_file += 1;
        Some(Ok(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_corpus::{CollectionSpec, FaultKind, FaultPlan};
    use std::path::{Path, PathBuf};

    fn stored(tag: &str, spec: CollectionSpec) -> (Arc<StoredCollection>, PathBuf) {
        let dir = std::env::temp_dir()
            .join(format!("ii-pipeline-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = StoredCollection::generate(spec, &dir).unwrap();
        (Arc::new(s), dir)
    }

    fn reopen_with(dir: &Path, plan: FaultPlan) -> Arc<StoredCollection> {
        Arc::new(StoredCollection::open(dir).unwrap().with_faults(plan))
    }

    /// An unsupervised pool over `coll` and the consumer of its buffers,
    /// both recording into `registry`.
    fn unsupervised(
        coll: &Arc<StoredCollection>,
        num_parsers: usize,
        policy: FaultPolicy,
        registry: &Registry,
    ) -> (ParserPool, SupervisedRoundRobin) {
        let obs = ParserObs::from_registry(registry);
        let mut pool = ParserPool::spawn_with(
            Arc::clone(coll),
            num_parsers,
            2,
            policy,
            obs.clone(),
            SpawnOptions::default(),
        );
        let consumer = SupervisedRoundRobin::new(
            &mut pool,
            Arc::clone(coll),
            policy,
            obs,
            SpawnOptions::default(),
            SupervisorPolicy::disabled(),
        );
        (pool, consumer)
    }

    #[test]
    fn batches_arrive_in_file_order() {
        let mut spec = CollectionSpec::tiny(31);
        spec.num_files = 7;
        let (coll, dir) = stored("order", spec);
        for num_parsers in [1usize, 2, 3] {
            let registry = Registry::new();
            let (pool, mut consumer) =
                unsupervised(&coll, num_parsers, FaultPolicy::default(), &registry);
            let msgs: Vec<ParsedFile> = (&mut consumer).map(|m| m.unwrap()).collect();
            let files: Vec<usize> = msgs.iter().map(ParsedFile::file_idx).collect();
            assert_eq!(files, (0..7).collect::<Vec<_>>(), "parsers={num_parsers}");
            // Every file was ingested once: by its parser, or by the
            // consumer while it waited.
            let here = msgs.iter().filter(|m| m.parser.is_none()).count();
            assert_eq!(here, consumer.helped_files() as usize);
            pool.join();
            assert_eq!(registry.stage("parse").items.get(), 7);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn parsed_output_independent_of_parser_count() {
        let mut spec = CollectionSpec::tiny(32);
        spec.num_files = 5;
        let (coll, dir) = stored("deterministic", spec);
        let mut outputs = Vec::new();
        for num_parsers in [1usize, 4] {
            let (pool, consumer) =
                unsupervised(&coll, num_parsers, FaultPolicy::default(), &Registry::new());
            let tokens: Vec<(usize, u64)> = consumer
                .map(|m| {
                    let b = m.unwrap().result.unwrap();
                    (b.file_idx, b.stats.terms_kept)
                })
                .collect();
            pool.join();
            outputs.push(tokens);
        }
        assert_eq!(outputs[0], outputs[1]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn timings_are_recorded() {
        let (coll, dir) = stored("timing", CollectionSpec::tiny(33));
        let registry = Registry::new();
        let (pool, consumer) = unsupervised(&coll, 2, FaultPolicy::default(), &registry);
        assert_eq!(consumer.count(), coll.num_files());
        pool.join();
        let stats = &coll.manifest.stats;
        let (raw, full) = (stats.compressed_bytes, stats.uncompressed_bytes);
        for (stage, bytes) in [("read", raw), ("decompress", full), ("parse", full)] {
            let s = registry.stage(stage);
            assert_eq!(s.items.get(), coll.num_files() as u64, "{stage}");
            assert_eq!(s.bytes.get(), bytes, "{stage}");
            assert!(s.wall_ns.get() > 0, "{stage}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn transient_faults_are_retried_and_recovered() {
        let mut spec = CollectionSpec::tiny(34);
        spec.num_files = 4;
        let (_, dir) = stored("transient", spec);
        let plan = FaultPlan::new(1).with_fault(2, FaultKind::TransientRead { failures: 2 });
        let coll = reopen_with(&dir, plan);
        let (pool, consumer) = unsupervised(&coll, 2, FaultPolicy::default(), &Registry::new());
        let msgs: Vec<ParsedFile> = consumer.map(|m| m.unwrap()).collect();
        assert!(msgs.iter().all(|m| m.result.is_ok()));
        assert_eq!(msgs[2].retries, 2, "file 2 needed two retries");
        assert_eq!(msgs.iter().map(|m| m.retries).sum::<u32>(), 2);
        pool.join();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn permanent_fault_occupies_its_slot_under_skip_policy() {
        let mut spec = CollectionSpec::tiny(35);
        spec.num_files = 4;
        let (_, dir) = stored("permanent", spec);
        let coll = reopen_with(&dir, FaultPlan::new(2).with_fault(1, FaultKind::Garbage));
        let (pool, consumer) = unsupervised(&coll, 2, FaultPolicy::skip_file(), &Registry::new());
        let msgs: Vec<ParsedFile> = consumer.map(|m| m.unwrap()).collect();
        assert_eq!(msgs.len(), 4, "every file slot is accounted for");
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.file_idx(), i, "round-robin order preserved across the fault");
        }
        let fault = msgs[1].result.as_ref().unwrap_err();
        assert_eq!(fault.class, FaultClass::Permanent);
        assert_eq!(fault.file_idx, 1);
        assert!(msgs[3].result.is_ok(), "the faulty parser kept going");
        pool.join();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn parser_panic_is_contained() {
        let mut spec = CollectionSpec::tiny(36);
        spec.num_files = 3;
        let (_, dir) = stored("panic", spec);
        let coll = reopen_with(&dir, FaultPlan::new(3).with_fault(0, FaultKind::Panic));
        let (pool, consumer) = unsupervised(&coll, 1, FaultPolicy::skip_file(), &Registry::new());
        let msgs: Vec<ParsedFile> = consumer.map(|m| m.unwrap()).collect();
        let fault = msgs[0].result.as_ref().unwrap_err();
        assert_eq!(fault.class, FaultClass::Panic);
        assert!(fault.error.contains("injected parser panic"), "{}", fault.error);
        assert!(msgs[1].result.is_ok() && msgs[2].result.is_ok());
        pool.join(); // must not re-raise the panic
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A governor whose gate never has room for a file: `try_acquire` always
    /// refuses, so the consumer never helps and takeover counts are exact.
    fn full_gate() -> MemoryGovernor {
        MemoryGovernor::new(crate::governor::GovernorPolicy::default().with_budget(1))
    }

    fn token_stream(
        coll: &Arc<StoredCollection>,
        options: SpawnOptions,
        stall_timeout: Duration,
    ) -> (Vec<(usize, u64)>, Vec<WorkerDeath>, u32) {
        let mut pool = ParserPool::spawn_with(
            Arc::clone(coll),
            options.heartbeats.len().max(2),
            2,
            FaultPolicy::default(),
            ParserObs::from_registry(&Registry::new()),
            options.clone(),
        );
        let mut rr = SupervisedRoundRobin::new(
            &mut pool,
            Arc::clone(coll),
            FaultPolicy::default(),
            ParserObs::from_registry(&Registry::new()),
            options.clone(),
            SupervisorPolicy::default().with_stall_timeout(stall_timeout),
        );
        let tokens: Vec<(usize, u64)> = (&mut rr)
            .map(|m| {
                let m = m.unwrap();
                options.governor.release(m.parser, m.credit);
                let b = m.result.unwrap();
                (b.file_idx, b.stats.terms_kept)
            })
            .collect();
        let deaths = rr.deaths().to_vec();
        let inline = rr.inline_parsed_files();
        drop(rr); // release the receivers so blocked parsers can exit
        pool.join();
        (tokens, deaths, inline)
    }

    #[test]
    fn supervised_consumer_survives_an_injected_parser_kill() {
        let mut spec = CollectionSpec::tiny(37);
        spec.num_files = 8;
        let (coll, dir) = stored("worker-kill", spec);
        let heartbeats = vec![Arc::new(ii_obs::Heartbeat::new()), Arc::new(ii_obs::Heartbeat::new())];
        let healthy = token_stream(
            &coll,
            SpawnOptions { heartbeats: heartbeats.clone(), ..SpawnOptions::default() },
            Duration::from_secs(30),
        );
        assert!(healthy.1.is_empty() && healthy.2 == 0, "healthy run declares no deaths");
        // Parser 1 owns files 1,3,5,7 and dies just before file 3.
        let faults = WorkerFaultPlan::none().kill(WorkerClass::Parser, 1, 3);
        let (tokens, deaths, inline) = token_stream(
            &coll,
            SpawnOptions {
                heartbeats: heartbeats.clone(),
                worker_faults: faults,
                governor: full_gate(),
                ..SpawnOptions::default()
            },
            Duration::from_secs(30),
        );
        assert_eq!(tokens, healthy.0, "inline re-ingest is byte-identical");
        assert_eq!(deaths.len(), 1);
        assert_eq!(deaths[0].index, 1);
        assert!(matches!(deaths[0].cause, DeathCause::Disconnect), "{:?}", deaths[0].cause);
        assert_eq!(inline, 3, "files 3, 5, 7 re-ingested inline");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn supervised_consumer_declares_a_stalled_parser_dead() {
        let mut spec = CollectionSpec::tiny(38);
        spec.num_files = 6;
        let (coll, dir) = stored("worker-stall", spec);
        let heartbeats = vec![Arc::new(ii_obs::Heartbeat::new()), Arc::new(ii_obs::Heartbeat::new())];
        let healthy = token_stream(
            &coll,
            SpawnOptions { heartbeats: heartbeats.clone(), ..SpawnOptions::default() },
            Duration::from_secs(30),
        );
        // Parser 0 goes silent for 2s before its first file; the 50ms
        // watchdog declares it dead long before it wakes.
        let faults = WorkerFaultPlan::none().stall(
            WorkerClass::Parser,
            0,
            0,
            Duration::from_secs(2),
        );
        let fresh = vec![Arc::new(ii_obs::Heartbeat::new()), Arc::new(ii_obs::Heartbeat::new())];
        let (tokens, deaths, inline) = token_stream(
            &coll,
            SpawnOptions {
                heartbeats: fresh,
                worker_faults: faults,
                governor: full_gate(),
                ..SpawnOptions::default()
            },
            Duration::from_millis(50),
        );
        assert_eq!(tokens, healthy.0, "stall takeover is byte-identical");
        assert_eq!(deaths.len(), 1);
        assert_eq!(deaths[0].index, 0);
        assert!(matches!(deaths[0].cause, DeathCause::Stall(_)), "{:?}", deaths[0].cause);
        assert_eq!(inline, 3, "files 0, 2, 4 re-ingested inline");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// One parser that naps before `nap_at` (far below any watchdog), and
    /// the messages the consumer yields: their credits released as the
    /// driver would, and the consumer itself for its tallies.
    fn napping_parser_stream(
        coll: &Arc<StoredCollection>,
        nap_at: usize,
        governor: MemoryGovernor,
    ) -> (Vec<ParsedFile>, SupervisedRoundRobin) {
        let options = SpawnOptions {
            worker_faults: WorkerFaultPlan::none().stall(
                WorkerClass::Parser,
                0,
                nap_at,
                Duration::from_millis(150),
            ),
            governor,
            ..SpawnOptions::default()
        };
        let obs = ParserObs::from_registry(&Registry::new());
        let mut pool = ParserPool::spawn_with(
            Arc::clone(coll),
            1,
            2,
            FaultPolicy::default(),
            obs.clone(),
            options.clone(),
        );
        let mut rr = SupervisedRoundRobin::new(
            &mut pool,
            Arc::clone(coll),
            FaultPolicy::default(),
            obs,
            options.clone(),
            SupervisorPolicy::disabled(),
        );
        let msgs: Vec<ParsedFile> = (&mut rr)
            .map(|m| {
                let m = m.unwrap();
                options.governor.release(m.parser, m.credit);
                m
            })
            .collect();
        pool.join();
        (msgs, rr)
    }

    #[test]
    fn idle_consumer_ingests_unstarted_files_in_order_and_unchanged() {
        let mut spec = CollectionSpec::tiny(40);
        spec.num_files = 7;
        let (coll, dir) = stored("help", spec);
        let governor =
            MemoryGovernor::new(crate::governor::GovernorPolicy::default().with_budget(1 << 30));
        let (msgs, rr) = napping_parser_stream(&coll, 1, governor.clone());
        // Every file exactly once, in file order, and the batch is what a
        // lone parse of that file gives — whoever parsed it.
        assert_eq!(msgs.len(), 7);
        for (i, m) in msgs.iter().enumerate() {
            let docs = container::parse_container(
                &compress::decompress(&coll.read_file_raw(i).unwrap()).unwrap(),
            )
            .unwrap();
            let want = ii_text::parse_documents(&docs, coll.manifest.spec.html, i);
            assert_eq!(m.result.as_ref().unwrap(), &want, "file {i}");
        }
        // Nothing is taken before the parser's first delivery. Then it
        // slept before file 1, and the consumer took 2 and 3 (a buffer's
        // depth, then it blocked) — never 1, the one it waited for.
        for i in [0, 1] {
            assert_eq!(msgs[i].parser, Some(0), "file {i} is the parser's");
        }
        for i in [2, 3] {
            assert_eq!(msgs[i].parser, None, "file {i} was there for the taking");
        }
        let here = msgs.iter().filter(|m| m.parser.is_none()).count();
        assert_eq!(rr.helped_files() as usize, here);
        assert_eq!(rr.inline_parsed_files(), 0, "nobody died");
        assert_eq!(governor.inflight_bytes(), 0, "every credit went back to its holder");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn helper_declines_over_a_full_gate() {
        let mut spec = CollectionSpec::tiny(41);
        spec.num_files = 6;
        let (coll, dir) = stored("help-gate", spec);
        let governor = full_gate();
        let (msgs, rr) = napping_parser_stream(&coll, 1, governor.clone());
        assert_eq!(msgs.len(), 6, "refused credit, the consumer waits as it always did");
        assert!(msgs.iter().all(|m| m.parser == Some(0)));
        assert_eq!(rr.helped_files(), 0);
        assert_eq!(governor.inflight_bytes(), 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn early_disconnect_is_an_error_not_end_of_stream() {
        // A channel that closes with files outstanding must surface as an
        // error — this was the silent-truncation bug. A parser killed before
        // its first file is such a channel; with supervision off nobody
        // re-ingests for it.
        let mut spec = CollectionSpec::tiny(39);
        spec.num_files = 3;
        let (coll, dir) = stored("disconnect", spec);
        let options = SpawnOptions {
            worker_faults: WorkerFaultPlan::none().kill(WorkerClass::Parser, 0, 0),
            ..SpawnOptions::default()
        };
        let obs = ParserObs::from_registry(&Registry::new());
        let mut pool = ParserPool::spawn_with(
            Arc::clone(&coll),
            1,
            2,
            FaultPolicy::default(),
            obs.clone(),
            options.clone(),
        );
        let mut rr = SupervisedRoundRobin::new(
            &mut pool,
            Arc::clone(&coll),
            FaultPolicy::default(),
            obs,
            options,
            SupervisorPolicy::disabled(),
        );
        match rr.next() {
            Some(Err(PipelineError::ParserDisconnected { parser: 0, file_idx: 0 })) => {}
            other => panic!("expected ParserDisconnected, got {other:?}"),
        }
        assert!(rr.next().is_none(), "iterator fuses after the error");
        assert!(rr.deaths().is_empty(), "supervision is off: nothing is declared");
        pool.join();
        std::fs::remove_dir_all(dir).unwrap();
    }
}
