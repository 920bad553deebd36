//! Parallel parsers with a serialized disk scheduler (paper §III.C, §III.F).
//!
//! "To avoid several parsers from trying to read from the same disk at the
//! same time, a scheduler is used to organize the reads of the different
//! parsers, one at a time." Every parser thread starts on a file of its own
//! and then claims the lowest file nobody has claimed, ingests it and hands
//! the batch to the one in-order consumer (`ParserPool`), which yields
//! batches in global file order, so document IDs come out "intrinsically in
//! sorted order".
//!
//! Each parser performs Step 1 (read + decompress + doc-ID table) and
//! Steps 2-5 (tokenize, stem, stop words, regroup) and hands the parsed
//! batch over through one bounded hand-off.
//!
//! The consumer claims by the same rule: while the file it needs has not
//! arrived it takes the lowest unclaimed file and ingests it itself, and
//! when the claimer of the file it needs dies it takes that file over. A
//! file's batch does not depend on who parsed it and batches are still
//! consumed in file order, so the index bytes cannot tell the difference.
//!
//! Fault handling: transient read errors are retried with exponential
//! backoff under the [`FaultPolicy`]; permanent corruption (and exhausted
//! retries) produce a typed [`FileFault`] message in the file's place in
//! the consumption order, so that order — and with it docID determinism —
//! survives a bad file. Each file's work runs under `catch_unwind`, so a
//! poisoned parser surfaces as a `Panic`-class fault instead of hanging the
//! consumer or silently truncating the stream.

use crate::fault::{
    FaultAction, FaultClass, FaultPolicy, FaultStage, FileFault, WorkerClass, WorkerFaultKind,
    WorkerFaultPlan,
};
use crate::governor::MemoryGovernor;
use crate::supervisor::{DeathCause, SupervisorPolicy, WorkerDeath};
use crossbeam::channel::{bounded, Receiver};
use ii_corpus::{compress, container, StoredCollection};
use ii_obs::{Heartbeat, Registry, Stage, TraceKind, TraceSink, Tracer};
use ii_text::{parse_records_into, ParseScratch, ParsedBatch};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stage handles the parser threads record into: one [`Stage`] per
/// dataflow step of paper Step 1 (read, decompress) and Steps 2-5 (parse).
/// Producer back-pressure (time a parser waits for the consumer to move the
/// claim window) lands in the parse stage's `queue_wait_ns`.
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

/// What [`ParserPool::spawn`] can be told beyond the collection, the parser
/// count and the fault policy; the default is an untraced pool under the
/// default watchdog that starts at file 0.
#[derive(Clone, Default)]
pub(crate) struct SpawnOptions {
    /// First container file to ingest (resume path).
    pub start_file: usize,
    /// Event tracer; each parser registers a `parser-{p}` timeline. The
    /// default (disabled) tracer records nothing.
    pub tracer: Tracer,
    /// Liveness beacons, one per parser in parser order (the supervisor's
    /// registrations). Parser `p` bumps `heartbeats[p]` with each claim and
    /// through its trace spans; a parser without one is never declared
    /// stalled.
    pub heartbeats: Vec<Arc<Heartbeat>>,
    /// Seeded worker-fault schedule (chaos testing). A parser fault at
    /// file `at` fires on the parser thread that claims `at`, after the
    /// claim and before the parse: a `Kill` ends the thread, a `Stall`
    /// sleeps that long without heartbeating.
    pub worker_faults: WorkerFaultPlan,
    /// Shared memory governor. Parsers acquire byte credits from its
    /// in-flight gate before handing a batch over (blocked time lands in
    /// `memory_wait` spans); the default unlimited governor accounts but
    /// never blocks.
    pub governor: MemoryGovernor,
    /// The watchdog's stall timeout.
    pub supervision: SupervisorPolicy,
}

/// One message for one container file: the parsed batch, or the fault that
/// takes the file's place in the consumption order.
#[derive(Debug)]
pub struct ParsedFile {
    /// Failed read attempts recovered from before success (0 on the error
    /// path — the fault itself carries its retry count).
    pub retries: u32,
    /// Seconds the *consumer* blocked waiting for this message (set by the
    /// `ParserPool` iterator; 0 until the message is consumed).
    /// Distinguishes "the parser was slow" from "the file itself was slow"
    /// in per-file reports.
    pub queue_wait_seconds: f64,
    /// The parser thread that ingested the file; `None` when the consumer
    /// did (for a dead claimer, or while it would otherwise have waited).
    /// Also names the governor ledger [`Self::credit`] is held on.
    pub parser: Option<usize>,
    /// Bytes of in-flight credit acquired from the memory governor for
    /// this message, to be released to [`Self::parser`]'s ledger once the
    /// batch is consumed (0 for a fault, and for a file taken over).
    pub credit: u64,
    /// The batch, or the fault taking this file's place.
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

/// Who took a container file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Claim {
    Nobody,
    Parser(usize),
    Consumer,
}

/// The claim table. Everybody takes the lowest unclaimed file, so the
/// claimed files are always the ones below `next_free`.
struct Claims {
    by: Vec<Claim>,
    /// Lowest file nobody has claimed.
    next_free: usize,
    /// How far past the awaited file a claim may reach.
    window: usize,
    /// First file past the window: nothing from here on may be claimed yet.
    limit: usize,
    /// Per parser: it claims nothing more — it has left, the consumer
    /// buried it, or the consumer is gone.
    gone: Vec<bool>,
}

impl Claims {
    /// The lowest unclaimed file, if it lies inside the window.
    fn claimable(&self) -> Option<usize> {
        (self.next_free < self.by.len().min(self.limit)).then_some(self.next_free)
    }

    /// Give the lowest unclaimed file to `who`.
    fn take(&mut self, who: Claim) -> usize {
        let file = self.next_free;
        self.by[file] = who;
        self.next_free += 1;
        file
    }
}

/// What the parser threads and the consumer share besides the hand-off:
/// the claim table, and everything ingesting a file takes.
struct Shared {
    claims: std::sync::Mutex<Claims>,
    /// Signalled when the window moves or the parsers are told to stop.
    moved: Condvar,
    collection: Arc<StoredCollection>,
    policy: FaultPolicy,
    obs: ParserObs,
    /// The disk scheduler: one read at a time, the consumer's included.
    disk: Mutex<()>,
}

impl Shared {
    /// The claim table. Every update leaves it valid, and `Leaving` locks it
    /// from `Drop`, which must not panic: a poisoned lock is taken as is.
    fn claims(&self) -> MutexGuard<'_, Claims> {
        self.claims.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parser `p`'s next file: the lowest unclaimed one, once it lies
    /// inside the window. `None` when nothing is left for `p`. Waiting for
    /// the consumer to move the window is the producer's back-pressure: a
    /// `queue_full` span on `sink` and the parse stage's `queue_wait_ns`.
    fn claim(&self, p: usize, sink: &TraceSink) -> Option<usize> {
        let held_back =
            |c: &Claims| !c.gone[p] && c.next_free < c.by.len() && c.claimable().is_none();
        let mut claims = self.claims();
        if held_back(&claims) {
            let t0 = Instant::now();
            let mut span = sink.span(TraceKind::QueueFull);
            span.set_batch(claims.next_free as u32);
            while held_back(&claims) {
                claims = self.moved.wait(claims).unwrap_or_else(PoisonError::into_inner);
            }
            drop(span);
            self.obs.parse.queue_wait_ns.add(t0.elapsed().as_nanos() as u64);
        }
        if claims.gone[p] || claims.claimable().is_none() {
            return None;
        }
        Some(claims.take(Claim::Parser(p)))
    }

    /// The consumer's claim of the lowest unclaimed file inside the window,
    /// if `admit` accepts it.
    fn claim_for_consumer(&self, admit: impl FnOnce(usize) -> bool) -> Option<usize> {
        let mut claims = self.claims();
        claims.claimable().filter(|&file| admit(file))?;
        Some(claims.take(Claim::Consumer))
    }

    /// Who holds `file`, and whether that holder — for an unclaimed file,
    /// every parser — claims nothing more.
    fn holder(&self, file: usize) -> (Claim, bool) {
        let claims = self.claims();
        let gone = match claims.by[file] {
            Claim::Parser(p) => claims.gone[p],
            Claim::Nobody => claims.gone.iter().all(|&gone| gone),
            Claim::Consumer => false,
        };
        (claims.by[file], gone)
    }

    /// The consumer takes `file` over: from its claimer `dead`, which
    /// claims nothing more, or unclaimed because no parser is left.
    fn take_over(&self, file: usize, dead: Option<usize>) {
        let mut claims = self.claims();
        if let Some(p) = dead {
            claims.gone[p] = true;
        }
        claims.by[file] = Claim::Consumer;
        claims.next_free = claims.next_free.max(file + 1);
    }

    /// The consumer now awaits `next`: the window follows it.
    fn advance(&self, next: usize) {
        let mut claims = self.claims();
        claims.limit = next + claims.window;
        drop(claims);
        self.moved.notify_all();
    }

    /// Tell every parser to claim nothing more: the consumer is leaving.
    fn close(&self) {
        self.claims().gone.fill(true);
        self.moved.notify_all();
    }
}

/// Marks its parser gone when the thread ends, however it ends.
struct Leaving(Arc<Shared>, usize);

impl Drop for Leaving {
    fn drop(&mut self) {
        self.0.claims().gone[self.1] = true;
    }
}

/// A running parser pool and its in-order consumer (§III.F): iterating it
/// yields one message per file, in file order from `start_file` on.
///
/// The consumer is the watchdog, and it watches only the claimer of the
/// file it awaits: that claimer is dead if it left with the file
/// undelivered ([`DeathCause::Disconnect`]: a panic outside per-file
/// containment, or an injected kill), or if its heartbeat and this wait
/// have both been silent past the stall timeout ([`DeathCause::Stall`]).
/// The consumer then takes the file over and ingests it with the routine a
/// parser runs, so the index stays byte-identical to a healthy build; a
/// buried parser claims nothing more, and a batch it still delivers is
/// dropped with its credit returned. With no parser left, the consumer
/// takes each remaining file over as its turn comes.
///
/// While the awaited file has not arrived, the consumer also claims the
/// lowest unclaimed file — the awaited one included — ingests it and parks
/// it until its turn. It takes nothing before a parser's first delivery
/// (until then an empty hand-off is the pipeline filling), nothing while a
/// buffer's depth of messages is parked, no file with a parser fault
/// scheduled (a parser thread's to fire), and nothing the memory gate has
/// no room for now: where indexing is the wall, none of this runs.
///
/// **The lead.** No file may be claimed `num_parsers × (buffer_depth + 1)`
/// or more files past the one the consumer awaits — what per-parser
/// buffers of `buffer_depth` plus one batch in hand held. This never holds
/// the awaited file's claimer back: that file lies inside any window. Nor
/// does the memory gate: all of that claimer's earlier files lie below the
/// awaited one, so they are consumed and their credit released, and
/// [`MemoryGovernor::acquire`] always admits a parser with nothing
/// outstanding. The consumer itself only ever tries the gate.
pub(crate) struct ParserPool {
    handoff: Receiver<ParsedFile>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    next_file: usize,
    num_files: usize,
    queue_wait: Option<Arc<Stage>>,
    trace: TraceSink,
    options: SpawnOptions,
    scratch: ParseScratch,
    deaths: Vec<WorkerDeath>,
    inline_parsed: u32,
    /// Messages waiting for their file's turn.
    parked: BTreeMap<usize, ParsedFile>,
    /// The consumer takes no file while this many messages are parked.
    park_limit: usize,
    /// A parser has delivered a message (nothing is taken before that).
    fed: bool,
    helped: u32,
}

impl ParserPool {
    /// Spawn `num_parsers` parser threads over the collection's files from
    /// `options.start_file` on (the resume path after a build checkpoint).
    /// Each starts on one of the lowest files, handed out here so that every
    /// parser has work when there are files enough, then claims the lowest
    /// unclaimed file; it ingests each under `policy` (retry and skip
    /// behaviour for faulty files; per-stage metrics go to `obs`) and hands
    /// the message over, until no file is left.
    /// `buffer_depth` sets the lead (see the type's documentation) and the
    /// consumer's park limit.
    pub fn spawn(
        collection: Arc<StoredCollection>,
        num_parsers: usize,
        buffer_depth: usize,
        policy: FaultPolicy,
        obs: ParserObs,
        options: SpawnOptions,
    ) -> ParserPool {
        assert!(num_parsers >= 1);
        let num_files = collection.num_files();
        let buffer_depth = buffer_depth.max(1);
        let window = num_parsers * (buffer_depth + 1);
        let start = options.start_file.min(num_files);
        let mut claims = Claims {
            by: vec![Claim::Nobody; num_files],
            next_free: start,
            window,
            limit: start + window,
            gone: vec![false; num_parsers],
        };
        let first: Vec<usize> = (0..num_parsers)
            .map_while(|p| claims.claimable().map(|_| claims.take(Claim::Parser(p))))
            .collect();
        let shared = Arc::new(Shared {
            claims: std::sync::Mutex::new(claims),
            moved: Condvar::new(),
            collection,
            policy,
            obs,
            disk: Mutex::new(()),
        });
        // The window bounds the live messages in the hand-off, and a buried
        // parser sends at most one late batch: no send ever blocks.
        let (tx, handoff) = bounded(window + num_parsers);
        let handles = (0..num_parsers)
            .map(|p| {
                let shared = Arc::clone(&shared);
                let (options, tx) = (options.clone(), tx.clone());
                let mut first = first.get(p).copied();
                // Register timelines in parser order (before the threads race).
                let mut sink = options.tracer.sink(&format!("parser-{p}"));
                if let Some(hb) = options.heartbeats.get(p) {
                    sink = sink.with_heartbeat(Arc::clone(hb));
                }
                std::thread::spawn(move || {
                    let _leaving = Leaving(Arc::clone(&shared), p);
                    // Thread-owned working memory, carried across files so
                    // steady-state parsing reuses every buffer.
                    let mut scratch = ParseScratch::new();
                    while let Some(file) = first.take().or_else(|| shared.claim(p, &sink)) {
                        // A claim is progress: the watchdog's clock for
                        // this file starts here.
                        sink.beat();
                        // Chaos injection, keyed by file: a kill ends this
                        // thread holding the claim, a stall sleeps without
                        // beating the heartbeat, so only the watchdog can
                        // notice.
                        match options.worker_faults.parser_fault_at(file) {
                            Some(WorkerFaultKind::Kill) => break,
                            Some(WorkerFaultKind::Stall(d)) => std::thread::sleep(d),
                            None => {}
                        }
                        let mut msg = shared.ingest(file, &mut scratch, &sink);
                        let failed = msg.result.is_err();
                        // Memory back-pressure: a parsed batch may not be
                        // handed over until the governor's byte-credit gate
                        // admits its footprint (fault messages carry no
                        // payload and pass free). The driver returns the
                        // credit when the batch is consumed.
                        let credit = msg.result.as_ref().map_or(0, |b| b.mem_bytes());
                        options.governor.acquire(p, credit, &sink);
                        msg.parser = Some(p);
                        msg.credit = credit;
                        if tx.send(msg).is_err() {
                            options.governor.release(Some(p), credit);
                            break; // consumer gone
                        }
                        if failed && shared.policy.action == FaultAction::FailFast {
                            break; // the consumer will abort on receipt
                        }
                    }
                })
            })
            .collect();
        ParserPool {
            handoff,
            handles,
            shared,
            next_file: start,
            num_files,
            queue_wait: None,
            trace: TraceSink::disabled(),
            options,
            scratch: ParseScratch::new(),
            deaths: Vec::new(),
            inline_parsed: 0,
            parked: BTreeMap::new(),
            park_limit: buffer_depth,
            fed: false,
            helped: 0,
        }
    }

    /// Record time the consumer blocked waiting for parsed files into
    /// `stage`'s `queue_wait_ns`.
    pub fn with_queue_wait(mut self, stage: Arc<Stage>) -> Self {
        self.queue_wait = Some(stage);
        self
    }

    /// Record each blocking wait as a `parser_wait` stall span on `sink`
    /// (the driver passes its own timeline). A taken-over file's ingest
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

    /// Files the consumer ingested for a dead claimer, or with no parser
    /// left.
    pub fn inline_parsed_files(&self) -> u32 {
        self.inline_parsed
    }

    /// Files the consumer ingested while it would otherwise have waited.
    pub fn helped_files(&self) -> u32 {
        self.helped
    }

    /// Parsed files waiting for their turn, in the hand-off or parked —
    /// the driver's `queue.parsed` gauge.
    pub fn queued(&self) -> usize {
        self.handoff.len() + self.parked.len()
    }

    /// Wait for every parser thread, then return the credit of any batch
    /// still in the hand-off (a buried claimer's late one). A parser that
    /// died outside its per-file containment is not propagated as a panic:
    /// its file was taken over.
    pub fn join(mut self) {
        self.shared.close();
        for handle in std::mem::take(&mut self.handles) {
            let _ = handle.join();
        }
        while let Ok(msg) = self.handoff.try_recv() {
            self.options.governor.release(msg.parser, msg.credit);
        }
    }

    /// Ingest `file_idx` on this thread with the exact routine a parser
    /// runs, panic containment and fault classification included. Taking a
    /// file over, this thread stands in as a parser: spans on its timeline,
    /// scratch kept for the next file. `helping`, the caller's one `help`
    /// span covers the file, and this thread must not become a second
    /// steady-state parser in memory: the grown builders go back to the
    /// allocator.
    fn ingest_inline(&mut self, file_idx: usize, helping: bool) -> ParsedFile {
        let untraced = TraceSink::disabled();
        let sink = if helping { &untraced } else { &self.trace };
        let msg = self.shared.ingest(file_idx, &mut self.scratch, sink);
        if helping {
            self.scratch = ParseScratch::new();
        }
        msg
    }

    /// Park a parser's message until its file's turn — unless the file is
    /// no longer its sender's: a buried claimer's late batch is dropped
    /// unconsumed and its credit goes back.
    fn park(&mut self, msg: ParsedFile) {
        let file = msg.file_idx();
        match msg.parser {
            Some(p) if self.shared.holder(file).0 != Claim::Parser(p) => {
                self.options.governor.release(Some(p), msg.credit);
            }
            _ => {
                self.parked.insert(file, msg);
            }
        }
    }

    /// Claim a file to ingest while waiting: the lowest unclaimed one inside
    /// the window, with its credit. `None` when there is nothing to take:
    /// no parser has delivered yet, the parked set is at its limit, no file
    /// inside the window is unclaimed, the file is a scheduled parser fault,
    /// or the memory gate has no room for the file.
    fn claim_help(&self) -> Option<(usize, u64)> {
        if !self.fed || self.parked.len() >= self.park_limit {
            return None;
        }
        let (faults, governor) = (&self.options.worker_faults, &self.options.governor);
        // The credit is taken before the parse, so it is the file's
        // uncompressed size — the figure known by then — that stands in for
        // the batch's footprint on the consumer's ledger.
        let sizes = &self.shared.collection.manifest.file_uncompressed_bytes;
        let mut credit = 0;
        let file = self.shared.claim_for_consumer(|file| {
            credit = sizes.get(file).copied().unwrap_or(0);
            faults.parser_fault_at(file).is_none() && governor.try_acquire(credit)
        })?;
        Some((file, credit))
    }

    /// Ingest a claimed file here while waiting, and park it until its turn.
    fn help(&mut self, file: usize, credit: u64) {
        let trace = self.trace.clone();
        let mut span = trace.span(TraceKind::Help);
        span.set_batch(file as u32);
        span.add_bytes(credit);
        let mut msg = self.ingest_inline(file, true);
        drop(span);
        if msg.result.is_ok() {
            msg.credit = credit;
        } else {
            self.options.governor.release(None, credit);
        }
        self.helped += 1;
        self.parked.insert(file, msg);
    }

    /// Ingest `file` here for its dead claimer, recording the death, or —
    /// unclaimed, with no parser left — in place of any parser.
    fn take_over(&mut self, file: usize, death: Option<(usize, DeathCause)>) -> ParsedFile {
        self.shared.take_over(file, death.as_ref().map(|&(p, _)| p));
        if let Some((index, cause)) = death {
            self.deaths.push(WorkerDeath { class: WorkerClass::Parser, index, cause });
        }
        self.inline_parsed += 1;
        self.ingest_inline(file, false)
    }

    /// The message for `next_file`: delivered by its claimer, ingested here
    /// while waiting, or taken over from a dead claimer. `working`
    /// accumulates the time spent ingesting, which is work, not wait.
    fn await_next(&mut self, t_recv: Instant, working: &mut Duration) -> ParsedFile {
        let file = self.next_file;
        let timeout = self.options.supervision.stall_timeout;
        let poll = self.options.supervision.effective_poll_interval();
        // Clone the sink handle: the wait span must outlive the (mutably
        // borrowing) calls below.
        let trace = self.trace.clone();
        let mut waiting = None;
        loop {
            // The holder is read before the hand-off is drained, so whatever
            // a claimer sent before it left is in hand below.
            let (holder, gone) = self.shared.holder(file);
            while let Ok(msg) = self.handoff.try_recv() {
                self.park(msg);
            }
            if let Some(msg) = self.parked.remove(&file) {
                return msg;
            }
            let death = match holder {
                // It left with the file undelivered: a panic outside
                // per-file containment, or an injected kill.
                Claim::Parser(p) if gone => Some((p, DeathCause::Disconnect)),
                // Its heartbeat and this wait both silent past the timeout.
                Claim::Parser(p) => self.options.heartbeats.get(p).and_then(|hb| {
                    let idle = hb.idle();
                    (idle >= timeout && t_recv.elapsed() >= timeout)
                        .then_some((p, DeathCause::Stall(idle)))
                }),
                _ => None,
            };
            if death.is_some() || (holder == Claim::Nobody && gone) {
                drop(waiting);
                let t_ingest = Instant::now();
                let msg = self.take_over(file, death);
                *working += t_ingest.elapsed();
                return msg;
            }
            if let Some((claimed, credit)) = self.claim_help() {
                waiting = None; // help is work: the wait span ends here
                let t_help = Instant::now();
                self.help(claimed, credit);
                *working += t_help.elapsed();
                continue;
            }
            waiting.get_or_insert_with(|| {
                let mut span = trace.span(TraceKind::ParserWait);
                span.set_batch(file as u32);
                span
            });
            // A parser fault scheduled on the next file to claim makes it a
            // parser's, and its claim frees the file behind it: look again
            // soon.
            let faulted = self.shared.claims().claimable().and_then(|f| {
                self.options.worker_faults.parser_fault_at(f)
            });
            let poll = if faulted.is_some() { Duration::from_millis(1) } else { poll };
            if let Ok(msg) = self.handoff.recv_timeout(poll) {
                self.park(msg);
            }
        }
    }
}

impl Drop for ParserPool {
    /// Tell every parser to claim nothing more, so none waits on a window
    /// that will not move again.
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl Iterator for ParserPool {
    type Item = ParsedFile;
    fn next(&mut self) -> Option<ParsedFile> {
        if self.next_file >= self.num_files {
            return None;
        }
        let t_recv = Instant::now();
        let mut working = Duration::ZERO;
        let mut msg = self.await_next(t_recv, &mut working);
        debug_assert_eq!(msg.file_idx(), self.next_file, "file order violated");
        self.next_file += 1;
        self.shared.advance(self.next_file);
        if msg.parser.is_some() {
            self.fed = true;
        }
        let waited = t_recv.elapsed().saturating_sub(working);
        if let Some(stage) = &self.queue_wait {
            stage.queue_wait_ns.add(waited.as_nanos() as u64);
        }
        msg.queue_wait_seconds = waited.as_secs_f64();
        Some(msg)
    }
}

type IngestOutcome = (u32, Result<ParsedBatch, (FaultClass, String)>);

impl Shared {
    /// Ingest one container file under crash containment: the parsed batch, or
    /// the typed fault — a panic anywhere in the ingest included — that takes
    /// the file's place in the consumption order. (The scratch self-cleans any stale state on
    /// reuse.)
    fn ingest(&self, file_idx: usize, scratch: &mut ParseScratch, sink: &TraceSink) -> ParsedFile {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.ingest_file(file_idx, scratch, sink)));
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

    /// Ingest one container file: serialized read (with transient-fault retry),
    /// decompress, container parse, and Steps 2-5 parsing. Returns the number
    /// of recovered retries plus the batch or the classified failure.
    fn ingest_file(
        &self,
        file_idx: usize,
        scratch: &mut ParseScratch,
        sink: &TraceSink,
    ) -> IngestOutcome {
        let mut retries = 0u32;
        // Step 1a: serialized read of the compressed file, retried on
        // transient faults with exponential backoff (sleeping outside the
        // disk lock so other parsers proceed).
        let raw = loop {
            let read = {
                let wait_span = sink.span(TraceKind::DiskWait);
                let _disk_token = self.disk.lock();
                drop(wait_span); // lock acquired: the read-wait stall ends here
                let mut rspan = sink.span(TraceKind::Read);
                rspan.set_batch(file_idx as u32);
                let t0 = Instant::now();
                let r = self.collection.read_file_raw(file_idx);
                let dt = t0.elapsed();
                self.obs.read.wall_ns.add(dt.as_nanos() as u64);
                self.obs.read.latency.record_ns(dt.as_nanos() as u64);
                if let Ok(raw) = &r {
                    rspan.add_bytes(raw.len() as u64);
                }
                r
            };
            match read {
                Ok(raw) => {
                    self.obs.read.items.inc();
                    self.obs.read.bytes.add(raw.len() as u64);
                    break raw;
                }
                Err(e) => {
                    let transient = io_is_transient(&e);
                    if transient && retries < self.policy.max_retries {
                        retries += 1;
                        // Jittered: parsers sharing a glitching disk must not
                        // re-stampede it in lockstep.
                        std::thread::sleep(self.policy.jittered_backoff(retries, file_idx as u64));
                        continue;
                    }
                    let class =
                        if transient { FaultClass::Transient } else { FaultClass::Permanent };
                    return (retries, Err((class, format!("read failed: {e}"))));
                }
            }
        };
        // Step 1b: in-memory decompression (outside the lock — the
        // separate-step scheme of §IV.A). The compressed bytes go as soon
        // as they are decoded.
        let mut span = self.obs.decompress.span();
        let mut tspan = sink.span(TraceKind::Decompress);
        tspan.set_batch(file_idx as u32);
        let decoded = compress::decompress(&raw);
        drop(raw);
        let bytes = match decoded {
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
        // Steps 1c-5: container walk + tokenize/stem/stop/regroup, over
        // documents borrowed from the decompressed buffer.
        let mut span = self.obs.parse.span();
        let mut tspan = sink.span(TraceKind::Parse);
        tspan.set_batch(file_idx as u32);
        let docs = match container::records(&bytes) {
            Ok(d) => d,
            Err(e) => {
                drop(span);
                return (
                    retries,
                    Err((FaultClass::Permanent, format!("container parse failed: {e}"))),
                );
            }
        };
        let html = self.collection.manifest.spec.html;
        let batch = parse_records_into(scratch, &docs, html, file_idx);
        span.add_bytes(bytes.len() as u64);
        tspan.add_bytes(bytes.len() as u64);
        drop(span);
        drop(tspan);
        (retries, Ok(batch))
    }
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

    /// A pool of `num_parsers` over `coll` (buffer depth 2) under `options`,
    /// recording into `registry`.
    fn spawn(
        coll: &Arc<StoredCollection>,
        num_parsers: usize,
        policy: FaultPolicy,
        registry: &Registry,
        options: SpawnOptions,
    ) -> ParserPool {
        let obs = ParserObs::from_registry(registry);
        ParserPool::spawn(Arc::clone(coll), num_parsers, 2, policy, obs, options)
    }

    /// Every message of a default pool, in the order it yields them.
    fn drain(
        coll: &Arc<StoredCollection>,
        num_parsers: usize,
        policy: FaultPolicy,
        registry: &Registry,
    ) -> Vec<ParsedFile> {
        let mut pool = spawn(coll, num_parsers, policy, registry, SpawnOptions::default());
        let msgs = pool.by_ref().collect();
        pool.join();
        msgs
    }

    #[test]
    fn batches_arrive_in_file_order() {
        let mut spec = CollectionSpec::tiny(31);
        spec.num_files = 7;
        let (coll, dir) = stored("order", spec);
        for num_parsers in [1usize, 2, 3] {
            let registry = Registry::new();
            let mut pool = spawn(
                &coll,
                num_parsers,
                FaultPolicy::default(),
                &registry,
                SpawnOptions::default(),
            );
            let msgs: Vec<ParsedFile> = pool.by_ref().collect();
            let files: Vec<usize> = msgs.iter().map(ParsedFile::file_idx).collect();
            assert_eq!(files, (0..7).collect::<Vec<_>>(), "parsers={num_parsers}");
            // Every file was ingested once: by a parser, or by the consumer
            // while it waited.
            let here = msgs.iter().filter(|m| m.parser.is_none()).count();
            assert_eq!(here, pool.helped_files() as usize);
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
            let tokens: Vec<(usize, u64)> =
                drain(&coll, num_parsers, FaultPolicy::default(), &Registry::new())
                    .into_iter()
                    .map(|m| {
                        let b = m.result.unwrap();
                        (b.file_idx, b.stats.terms_kept)
                    })
                    .collect();
            outputs.push(tokens);
        }
        assert_eq!(outputs[0], outputs[1]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn timings_are_recorded() {
        let (coll, dir) = stored("timing", CollectionSpec::tiny(33));
        let registry = Registry::new();
        let msgs = drain(&coll, 2, FaultPolicy::default(), &registry);
        assert_eq!(msgs.len(), coll.num_files());
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
        let msgs = drain(&coll, 2, FaultPolicy::default(), &Registry::new());
        assert!(msgs.iter().all(|m| m.result.is_ok()));
        assert_eq!(msgs[2].retries, 2, "file 2 needed two retries");
        assert_eq!(msgs.iter().map(|m| m.retries).sum::<u32>(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn permanent_fault_occupies_its_slot_under_skip_policy() {
        let mut spec = CollectionSpec::tiny(35);
        spec.num_files = 4;
        let (_, dir) = stored("permanent", spec);
        let coll = reopen_with(&dir, FaultPlan::new(2).with_fault(1, FaultKind::Garbage));
        let msgs = drain(&coll, 2, FaultPolicy::skip_file(), &Registry::new());
        assert_eq!(msgs.len(), 4, "every file slot is accounted for");
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.file_idx(), i, "file order preserved across the fault");
        }
        let fault = msgs[1].result.as_ref().unwrap_err();
        assert_eq!(fault.class, FaultClass::Permanent);
        assert_eq!(fault.file_idx, 1);
        assert!(msgs[3].result.is_ok(), "parsing went on past the fault");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn parser_panic_is_contained() {
        let mut spec = CollectionSpec::tiny(36);
        spec.num_files = 3;
        let (_, dir) = stored("panic", spec);
        let coll = reopen_with(&dir, FaultPlan::new(3).with_fault(0, FaultKind::Panic));
        // `drain` joins the pool: that must not re-raise the panic.
        let msgs = drain(&coll, 1, FaultPolicy::skip_file(), &Registry::new());
        let fault = msgs[0].result.as_ref().unwrap_err();
        assert_eq!(fault.class, FaultClass::Panic);
        assert!(fault.error.contains("injected parser panic"), "{}", fault.error);
        assert!(msgs[1].result.is_ok() && msgs[2].result.is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A governor whose one-byte budget never has room for a file:
    /// `try_acquire` always refuses, so the consumer never helps and
    /// takeover counts are exact.
    fn full_gate() -> MemoryGovernor {
        MemoryGovernor::new(1)
    }

    /// Options for `parsers` watched parser threads over a full gate, under
    /// `faults` and a `stall_timeout` watchdog.
    fn watched(parsers: usize, faults: WorkerFaultPlan, stall_timeout: Duration) -> SpawnOptions {
        SpawnOptions {
            heartbeats: (0..parsers).map(|_| Arc::new(Heartbeat::new())).collect(),
            worker_faults: faults,
            governor: full_gate(),
            supervision: SupervisorPolicy::default().with_stall_timeout(stall_timeout),
            ..SpawnOptions::default()
        }
    }

    /// Every file's (index, kept terms), credits released as the driver
    /// would; the deaths declared; and the files the consumer ingested.
    fn token_stream(
        coll: &Arc<StoredCollection>,
        options: SpawnOptions,
    ) -> (Vec<(usize, u64)>, Vec<WorkerDeath>, Vec<usize>) {
        let parsers = options.heartbeats.len();
        let governor = options.governor.clone();
        let mut pool = spawn(coll, parsers, FaultPolicy::default(), &Registry::new(), options);
        let mut here = Vec::new();
        let tokens: Vec<(usize, u64)> = pool
            .by_ref()
            .map(|m| {
                governor.release(m.parser, m.credit);
                if m.parser.is_none() {
                    here.push(m.file_idx());
                }
                let b = m.result.unwrap();
                (b.file_idx, b.stats.terms_kept)
            })
            .collect();
        assert_eq!(pool.inline_parsed_files() as usize, here.len(), "a full gate admits no help");
        let deaths = pool.deaths().to_vec();
        pool.join();
        (tokens, deaths, here)
    }

    #[test]
    fn supervised_consumer_survives_an_injected_parser_kill() {
        let mut spec = CollectionSpec::tiny(37);
        spec.num_files = 8;
        let (coll, dir) = stored("worker-kill", spec);
        let patient = Duration::from_secs(30);
        let healthy = token_stream(&coll, watched(2, WorkerFaultPlan::none(), patient));
        assert!(healthy.1.is_empty() && healthy.2.is_empty(), "healthy run declares no deaths");
        // Whichever thread claims file 3 dies holding it; the survivor
        // parses on.
        let kill_at_3 = WorkerFaultPlan::none().kill(WorkerClass::Parser, 1, 3);
        let (tokens, deaths, here) = token_stream(&coll, watched(2, kill_at_3, patient));
        assert_eq!(tokens, healthy.0, "inline re-ingest is byte-identical");
        assert_eq!(deaths.len(), 1);
        assert!(matches!(deaths[0].cause, DeathCause::Disconnect), "{:?}", deaths[0].cause);
        assert_eq!(here, [3], "file 3 re-ingested inline");
        // A lone parser killed at its first file: the consumer takes every
        // file over, in order and unchanged — the stream is never cut short.
        let kill_at_0 = WorkerFaultPlan::none().kill(WorkerClass::Parser, 0, 0);
        let (tokens, deaths, here) = token_stream(&coll, watched(1, kill_at_0, patient));
        assert_eq!(tokens, healthy.0, "a takeover of every file is byte-identical");
        assert_eq!(deaths.len(), 1);
        assert_eq!(here, (0..8).collect::<Vec<_>>(), "files 0..8 re-ingested inline");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn supervised_consumer_declares_a_stalled_parser_dead() {
        let mut spec = CollectionSpec::tiny(38);
        spec.num_files = 6;
        let (coll, dir) = stored("worker-stall", spec);
        let healthy =
            token_stream(&coll, watched(2, WorkerFaultPlan::none(), Duration::from_secs(30)));
        // The thread claiming file 0 goes silent for 2s; the 50ms watchdog
        // declares it dead long before it wakes.
        let faults =
            WorkerFaultPlan::none().stall(WorkerClass::Parser, 0, 0, Duration::from_secs(2));
        let (tokens, deaths, here) =
            token_stream(&coll, watched(2, faults, Duration::from_millis(50)));
        assert_eq!(tokens, healthy.0, "stall takeover is byte-identical");
        assert_eq!(deaths.len(), 1);
        assert!(matches!(deaths[0].cause, DeathCause::Stall(_)), "{:?}", deaths[0].cause);
        assert_eq!(here, [0], "file 0 re-ingested inline");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_buried_claimers_late_batch_is_dropped_and_its_credit_returned() {
        let mut spec = CollectionSpec::tiny(42);
        spec.num_files = 8;
        let (coll, dir) = stored("late-batch", spec);
        // The claimer of file 1 naps well past a 30ms watchdog, and the
        // consumer is slower than the nap: the buried thread wakes and
        // delivers while the stream still runs.
        let faults =
            WorkerFaultPlan::none().stall(WorkerClass::Parser, 0, 1, Duration::from_millis(150));
        let governor = MemoryGovernor::unlimited();
        let options = SpawnOptions {
            governor: governor.clone(),
            ..watched(2, faults, Duration::from_millis(30))
        };
        let mut pool = spawn(&coll, 2, FaultPolicy::default(), &Registry::new(), options);
        let mut files = Vec::new();
        for msg in pool.by_ref() {
            std::thread::sleep(Duration::from_millis(40));
            governor.release(msg.parser, msg.credit);
            files.push(msg.file_idx());
        }
        assert_eq!(files, (0..8).collect::<Vec<_>>(), "every file exactly once, in order");
        assert_eq!(pool.deaths().len(), 1);
        assert!(matches!(pool.deaths()[0].cause, DeathCause::Stall(_)));
        assert_eq!(pool.inline_parsed_files(), 1);
        pool.join();
        assert_eq!(governor.inflight_bytes(), 0, "the late batch's credit went back");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn the_lead_over_the_consumer_stays_inside_the_window() {
        let mut spec = CollectionSpec::tiny(43);
        spec.num_files = 16;
        let (coll, dir) = stored("lead", spec);
        // Three parsers, one of which naps at file 2 (far below the
        // watchdog): the other two run ahead until the window stops them.
        let (parsers, depth) = (3, 1);
        let window = parsers * (depth + 1);
        let options = SpawnOptions {
            worker_faults: WorkerFaultPlan::none().stall(
                WorkerClass::Parser,
                0,
                2,
                Duration::from_millis(150),
            ),
            ..SpawnOptions::default()
        };
        let obs = ParserObs::from_registry(&Registry::new());
        let policy = FaultPolicy::default();
        let mut pool = ParserPool::spawn(Arc::clone(&coll), parsers, depth, policy, obs, options);
        let mut lead = 0;
        while let Some(msg) = pool.next() {
            assert_eq!(msg.file_idx() + 1, pool.next_file);
            // How far ahead of the consumer's position a batch is held.
            let furthest = pool.parked.keys().next_back().map_or(0, |&f| f + 1 - pool.next_file);
            lead = lead.max(furthest);
        }
        assert!(lead >= 3, "the other parsers never ran ahead of the nap ({lead})");
        assert!(lead <= window, "a batch {lead} files ahead, window {window}");
        pool.join();
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// One parser that naps on `nap_at` (far below any watchdog), and the
    /// messages the pool yields: their credits released as the driver
    /// would, and the pool itself for its tallies.
    fn napping_parser_stream(
        coll: &Arc<StoredCollection>,
        nap_at: usize,
        governor: MemoryGovernor,
    ) -> (Vec<ParsedFile>, ParserPool) {
        let options = SpawnOptions {
            worker_faults: WorkerFaultPlan::none().stall(
                WorkerClass::Parser,
                0,
                nap_at,
                Duration::from_millis(150),
            ),
            governor: governor.clone(),
            ..SpawnOptions::default()
        };
        let mut pool = spawn(coll, 1, FaultPolicy::default(), &Registry::new(), options);
        let msgs: Vec<ParsedFile> =
            pool.by_ref().inspect(|m| governor.release(m.parser, m.credit)).collect();
        (msgs, pool)
    }

    #[test]
    fn idle_consumer_ingests_unstarted_files_in_order_and_unchanged() {
        let mut spec = CollectionSpec::tiny(40);
        spec.num_files = 7;
        let (coll, dir) = stored("help", spec);
        let governor = MemoryGovernor::new(1 << 30);
        let (msgs, pool) = napping_parser_stream(&coll, 1, governor.clone());
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
        // Nothing is taken before the parser's first delivery, nor a file
        // with a parser fault. Then it slept on file 1, and the consumer
        // took 2 and 3 (a buffer's depth, then it blocked).
        for i in [0, 1] {
            assert_eq!(msgs[i].parser, Some(0), "file {i} is the parser's");
        }
        for i in [2, 3] {
            assert_eq!(msgs[i].parser, None, "file {i} was there for the taking");
        }
        let here = msgs.iter().filter(|m| m.parser.is_none()).count();
        assert_eq!(pool.helped_files() as usize, here);
        assert_eq!(pool.inline_parsed_files(), 0, "nobody died");
        pool.join();
        assert_eq!(governor.inflight_bytes(), 0, "every credit went back to its holder");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn helper_declines_over_a_full_gate() {
        let mut spec = CollectionSpec::tiny(41);
        spec.num_files = 6;
        let (coll, dir) = stored("help-gate", spec);
        let governor = full_gate();
        let (msgs, pool) = napping_parser_stream(&coll, 1, governor.clone());
        assert_eq!(msgs.len(), 6, "refused credit, the consumer waits as it always did");
        assert!(msgs.iter().all(|m| m.parser == Some(0)));
        assert_eq!(pool.helped_files(), 0);
        pool.join();
        assert_eq!(governor.inflight_bytes(), 0);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
