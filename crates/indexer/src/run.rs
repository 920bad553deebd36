//! The indexer pool: parallel CPU + GPU indexers consuming parsed batches
//! and producing runs (paper Fig 8).
//!
//! A *single run* starts with parsed data in parser buffers and ends with
//! postings lists: pre-processing moves GPU input to device memory,
//! indexing runs on all indexers, post-processing flushes postings into
//! per-indexer run files (variable-byte compressed). The pool also owns the
//! global document-ID offset: parsers emit local IDs and "a global document
//! ID offset will be calculated by the indexer" (§III.C).

use crate::balance::{BalancePlan, Owner};
use crate::cpu::CpuIndexer;
use crate::gpu::{GpuBatchReport, GpuIndexer, GpuIndexerConfig};
use crate::log::PostingLog;
use crate::stats::WorkloadStats;
use ii_dict::PartialDictionary;
use ii_obs::{Heartbeat, TraceKind, TraceSink, Tracer};
use ii_postings::{Codec, RunFile};
use ii_text::ParsedBatch;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Timing of one batch through the pool.
#[derive(Clone, Debug, Default)]
pub struct BatchTiming {
    /// Measured wall seconds of each CPU shard's work on this batch.
    pub cpu_seconds: Vec<f64>,
    /// Simulated timing of each GPU indexer on this batch (zeroed entries
    /// for GPUs that died — their adopted shards' time is in
    /// `fallback_seconds`).
    pub gpu: Vec<GpuBatchReport>,
    /// Wall seconds of the adopted shards' work: the CPU continuations of
    /// dead GPUs, which run on the driver thread.
    pub fallback_seconds: f64,
    /// Shards whose work panicked during this batch: `(shard id, panic
    /// message)`. A CPU or adopted shard carries on where it ran; a live
    /// GPU's shard is salvaged (see `gpu_deaths`).
    pub panics: Vec<(u32, String)>,
    /// The GPUs those panics killed, in the order they died: `(GPU index,
    /// its own panic message)`. Each one's shard is adopted.
    pub gpu_deaths: Vec<(usize, String)>,
}

impl BatchTiming {
    /// The batch's indexing-stage latency: indexers run in parallel, so it
    /// is the max of per-indexer times (GPU time = device + transfer);
    /// driver-hosted fallback work is serial with everything else.
    pub fn stage_seconds(&self) -> f64 {
        let cpu = self.cpu_seconds.iter().copied().fold(0.0, f64::max);
        let gpu = self
            .gpu
            .iter()
            .map(|g| g.device_seconds + g.transfer_seconds)
            .fold(0.0, f64::max);
        cpu.max(gpu) + self.fallback_seconds
    }
}

/// Run one shard's work with its panic contained: `Err` holds the panic's
/// message.
fn contained<T>(work: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "indexer panicked (non-string payload)".to_string()
        }
    })
}

/// All indexers of the system plus the routing plan.
///
/// Failure-domain model: the *shard* (trie collection → indexer id, fixed
/// by the [`BalancePlan`]) is the only indexer failure domain. Every shard
/// runs on the calling thread, so a CPU shard has nothing to lose but its
/// own batch; the one state that can die is a GPU's device memory. A dead
/// GPU's shard is salvaged (dictionary download + pending-postings drain)
/// into an adopted [`CpuIndexer`] that continues the shard on the CPU path.
/// Because run files and dictionary entries are keyed by shard id, a
/// salvage at a batch boundary keeps the final index byte-identical to a
/// healthy build.
pub struct IndexerPool {
    /// CPU indexers (ids `0..n_cpu`).
    pub cpus: Vec<CpuIndexer>,
    /// GPU indexers (ids `n_cpu..n_cpu+n_gpu`). A dead GPU's struct is
    /// retained for its pre-death workload/transfer stats; its live state
    /// moves to `adopted`.
    pub gpus: Vec<GpuIndexer>,
    /// The lifetime-fixed collection→indexer assignment.
    pub plan: BalancePlan,
    /// Postings codec for run files.
    pub codec: Codec,
    next_doc: u32,
    docs_indexed: u32,
    next_run: u32,
    /// Per-indexer trace timelines (disabled unless [`Self::attach_tracer`]
    /// ran). `cpu-N`/`gpu-N` are *logical* workers: the pool executes them
    /// serially on the calling thread, so their spans never overlap within
    /// a batch by construction.
    cpu_sinks: Vec<TraceSink>,
    gpu_sinks: Vec<TraceSink>,
    /// The CPU continuation of each dead GPU's shard (`None` while the GPU
    /// lives).
    adopted: Vec<Option<CpuIndexer>>,
}

impl IndexerPool {
    /// Build a pool matching `plan`'s indexer counts.
    pub fn new(plan: BalancePlan, gpu_config: GpuIndexerConfig, codec: Codec) -> Self {
        let cpus: Vec<CpuIndexer> = (0..plan.n_cpu()).map(|i| CpuIndexer::new(i as u32)).collect();
        let gpus: Vec<GpuIndexer> = (0..plan.n_gpu())
            .map(|i| GpuIndexer::new((plan.n_cpu() + i) as u32, gpu_config))
            .collect();
        let cpu_sinks = vec![TraceSink::disabled(); cpus.len()];
        let gpu_sinks = vec![TraceSink::disabled(); gpus.len()];
        let adopted = (0..gpus.len()).map(|_| None).collect();
        IndexerPool {
            cpus,
            gpus,
            plan,
            codec,
            next_doc: 0,
            docs_indexed: 0,
            next_run: 0,
            cpu_sinks,
            gpu_sinks,
            adopted,
        }
    }

    /// Register one timeline per indexer (`cpu-0..`, `gpu-0..`) on
    /// `tracer`; subsequent [`Self::index_batch`] and [`Self::flush_run`]
    /// calls record per-indexer spans. No-op for a disabled tracer.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.cpu_sinks =
            (0..self.cpus.len()).map(|i| tracer.sink(&format!("cpu-{i}"))).collect();
        self.gpu_sinks =
            (0..self.gpus.len()).map(|i| tracer.sink(&format!("gpu-{i}"))).collect();
    }

    /// Attach liveness beacons to the indexer timelines: every span an
    /// indexer records (index, flush) bumps its beacon, feeding the
    /// driver's `worker.*.idle_ms` gauges with zero extra instrumentation.
    /// Call after [`Self::attach_tracer`] (which replaces the sinks).
    pub fn attach_heartbeats(&mut self, cpu: &[Arc<Heartbeat>], gpu: &[Arc<Heartbeat>]) {
        for (sink, hb) in self.cpu_sinks.iter_mut().zip(cpu) {
            *sink = std::mem::take(sink).with_heartbeat(Arc::clone(hb));
        }
        for (sink, hb) in self.gpu_sinks.iter_mut().zip(gpu) {
            *sink = std::mem::take(sink).with_heartbeat(Arc::clone(hb));
        }
    }

    /// Shards salvaged off dead GPUs and continued on the CPU path.
    pub fn adopted_shards(&self) -> impl Iterator<Item = &CpuIndexer> {
        self.adopted.iter().flatten()
    }

    /// Declare GPU `g` dead: salvage its dictionary shard and pending
    /// postings into an adopted [`CpuIndexer`], which continues the shard on
    /// the driver thread for the rest of the build. Idempotent: true only
    /// when the GPU was alive until now.
    pub fn kill_gpu(&mut self, g: usize) -> bool {
        if !matches!(self.adopted.get(g), Some(None)) {
            return false;
        }
        let dict = self.gpus[g].into_partial_dictionary();
        let log = self.gpus[g].salvage_pending_log();
        self.adopted[g] = Some(CpuIndexer::adopt(dict, log));
        true
    }

    /// Resident bytes per pool, probed at batch boundaries by the memory
    /// governor: `(dictionary arenas, pending postings, device state)`.
    /// Dictionary and postings figures cover CPU shards *and* adopted
    /// continuations of dead/shed GPUs, the postings figure also live GPUs'
    /// logs ([`GpuIndexer::log_charge`]); the device figure covers the rest
    /// of live GPUs' content (a salvaged GPU's state is already counted on
    /// the CPU side). Every term is a function of the documents indexed and
    /// the handles their terms got — never of tree shape — so budget
    /// decisions keyed on these replay identically, across a resume too.
    pub fn resident_bytes(&self) -> (u64, u64, u64) {
        let mut dict = 0u64;
        let mut postings = 0u64;
        for c in self.cpus.iter().chain(self.adopted_shards()) {
            dict += c.dict.mem_bytes();
            postings += c.pending_postings_bytes();
        }
        let mut device = 0u64;
        for (gpu, _) in self.gpus.iter().zip(&self.adopted).filter(|(_, a)| a.is_none()) {
            let log = gpu.log_charge();
            postings += log;
            device += gpu.resident_bytes() - log;
        }
        (dict, postings, device)
    }

    /// Bytes the host posting logs hold ([`PostingLog::heap_bytes`]): the
    /// CPU shards', the adopted continuations of dead GPUs' and what GPUs
    /// drained to the host mid-run. The rest of a GPU's pending postings
    /// are in its device log, which [`GpuIndexer::resident_bytes`] counts.
    pub fn log_bytes(&self) -> u64 {
        let cpu = self.cpus.iter().chain(self.adopted_shards()).map(|c| c.log().heap_bytes());
        cpu.chain(self.gpus.iter().map(GpuIndexer::host_log_bytes)).sum()
    }

    /// The GPU a shed parks next: the first of [`BalancePlan::shed_order`]
    /// over the live GPUs, or `None` when none is left.
    fn next_shed(&self) -> Option<usize> {
        let alive: Vec<bool> = self.adopted.iter().map(Option::is_none).collect();
        self.plan.shed_order(&alive).into_iter().next()
    }

    /// Memory-governor shed: park the alive GPU whose shard holds the
    /// most sampled load onto the CPU salvage path, freeing its device
    /// state. Returns the GPU index, or `None` when no GPU is left to shed.
    /// This is a *governor* event, not a worker death — the shard continues
    /// loss-lessly on the driver thread, exactly like [`Self::kill_gpu`].
    pub fn shed_gpu(&mut self) -> Option<usize> {
        let g = self.next_shed()?;
        self.kill_gpu(g);
        Some(g)
    }

    /// The sum of [`Self::resident_bytes`] after [`Self::shed_gpu`], worked
    /// out before it: the shed GPU's device figure leaves and its shard's
    /// host charge ([`GpuIndexer::host_charge`]) comes in. `None` when no
    /// GPU is left to shed or the shed would not lower the sum — the
    /// adopted shard pays the trie-root table the device never did.
    pub fn resident_after_shed(&self) -> Option<u64> {
        let g = self.next_shed()?;
        let (dict, postings, device) = self.resident_bytes();
        let (freed, charged) = (self.gpus[g].resident_bytes(), self.gpus[g].host_charge());
        (charged < freed).then(|| dict + postings + device - freed + charged)
    }

    /// Rebuild a pool from a checkpoint's dictionary shards plus the scalar
    /// counters a resumed build must continue from. Each shard is routed to
    /// the indexer whose id it carries (CPU shards are adopted directly,
    /// GPU shards are uploaded back into device memory), so postings-handle
    /// assignment continues exactly where the checkpoint left off. A shard
    /// the pool has no indexer for, or no device room for, is refused with
    /// the reason.
    pub fn restore(
        plan: BalancePlan,
        gpu_config: GpuIndexerConfig,
        codec: Codec,
        parts: Vec<PartialDictionary>,
        next_doc: u32,
        docs_indexed: u32,
        next_run: u32,
    ) -> Result<Self, String> {
        let mut pool = IndexerPool::new(plan, gpu_config, codec);
        let n_cpu = pool.cpus.len();
        for part in parts {
            let id = part.indexer_id as usize;
            if id < n_cpu {
                // The posting log restarts empty: checkpoints are taken at
                // run boundaries, where pending postings have just been
                // flushed.
                pool.cpus[id] = CpuIndexer::adopt(part, PostingLog::new());
            } else if let Some(gpu) = pool.gpus.get_mut(id - n_cpu) {
                gpu.restore_dictionary(&part)?;
            } else {
                let indexers = n_cpu + pool.gpus.len();
                return Err(format!("dictionary shard of indexer {id} but the pool has {indexers}"));
            }
        }
        pool.next_doc = next_doc;
        pool.docs_indexed = docs_indexed;
        pool.next_run = next_run;
        Ok(pool)
    }

    /// Documents actually indexed (doc-ID gaps reserved via
    /// [`Self::skip_docs`] are excluded).
    pub fn docs_indexed(&self) -> u32 {
        self.docs_indexed
    }

    /// The next global document-ID offset (indexed + skipped documents) —
    /// the doc-ID high-water mark a checkpoint records.
    pub fn next_doc(&self) -> u32 {
        self.next_doc
    }

    /// Runs flushed so far (the next run id to be assigned).
    pub fn runs_flushed(&self) -> u32 {
        self.next_run
    }

    /// Reserve `n` doc IDs without indexing anything — the slot of a
    /// quarantined file, keeping later files' global IDs identical to a
    /// clean build's.
    pub fn skip_docs(&mut self, n: u32) {
        self.next_doc += n;
    }

    /// Index one parsed batch: routes each trie group to its owner shard
    /// and advances the global document-ID offset.
    ///
    /// Every shard's work runs under `catch_unwind`, and a panic does not
    /// kill the build: a CPU or adopted shard carries on where it ran, and
    /// a live GPU's shard is salvaged as by [`Self::kill_gpu`]. The panics
    /// and the GPUs they killed are reported in the returned
    /// [`BatchTiming`] (a mid-group panic may have lost that shard's partial
    /// work for this batch — the caller records it as a lossy incident).
    pub fn index_batch(&mut self, batch: &ParsedBatch) -> BatchTiming {
        let offset = self.next_doc;
        self.next_doc += batch.num_docs;
        self.docs_indexed += batch.num_docs;

        // Route groups.
        let mut cpu_groups: Vec<Vec<&ii_text::TrieGroup>> =
            vec![Vec::new(); self.cpus.len()];
        let mut gpu_groups: Vec<Vec<&ii_text::TrieGroup>> =
            vec![Vec::new(); self.gpus.len()];
        for g in &batch.groups {
            match self.plan.owner(g.trie_index) {
                Owner::Cpu(i) => cpu_groups[i].push(g),
                Owner::Gpu(i) => gpu_groups[i].push(g),
            }
        }

        let batch_id = batch.file_idx as u32;
        let mut timing = BatchTiming::default();
        for (i, groups) in cpu_groups.iter().enumerate() {
            let (shard, sink) = (&mut self.cpus[i], &self.cpu_sinks[i]);
            let t0 = Instant::now();
            let outcome = contained(|| shard.index_groups(groups, offset, sink, batch_id));
            timing.cpu_seconds.push(t0.elapsed().as_secs_f64());
            if let Err(panic) = outcome {
                timing.panics.push((i as u32, panic));
            }
        }
        for (g, groups) in gpu_groups.iter().enumerate() {
            let shard_id = (self.cpus.len() + g) as u32;
            let sink = &self.gpu_sinks[g];
            let outcome = match &mut self.adopted[g] {
                Some(shard) => {
                    let t0 = Instant::now();
                    let outcome = contained(|| shard.index_groups(groups, offset, sink, batch_id));
                    timing.fallback_seconds += t0.elapsed().as_secs_f64();
                    outcome.map(|()| GpuBatchReport::default())
                }
                None => {
                    let gpu = &mut self.gpus[g];
                    let outcome =
                        contained(|| gpu.index_batch_traced(groups, offset, sink, batch_id));
                    // A mid-launch GPU panic leaves unknown device progress:
                    // salvage what the device holds and degrade the shard to
                    // the CPU path.
                    if let Err(panic) = &outcome {
                        self.kill_gpu(g);
                        timing.gpu_deaths.push((g, panic.clone()));
                    }
                    outcome
                }
            };
            match outcome {
                Ok(report) => timing.gpu.push(report),
                Err(panic) => {
                    timing.panics.push((shard_id, panic));
                    timing.gpu.push(GpuBatchReport::default());
                }
            }
        }
        timing
    }

    /// End a run: every shard flushes its postings into a run file, in
    /// shard-id order (dead GPUs' shards flush from their adopted CPU
    /// continuation) — so the run-file sequence is identical to a healthy
    /// build's.
    pub fn flush_run(&mut self) -> Vec<RunFile> {
        let run_id = self.next_run;
        self.next_run += 1;
        let mut out = Vec::with_capacity(self.cpus.len() + self.gpus.len());
        for (c, sink) in self.cpus.iter_mut().zip(&self.cpu_sinks) {
            let mut span = sink.span(TraceKind::Flush);
            let run = c.flush_run(run_id, self.codec);
            span.add_bytes(run.payload.len() as u64);
            out.push(run);
        }
        let IndexerPool { gpus, adopted, gpu_sinks, codec, .. } = self;
        for ((gpu, adopted), sink) in gpus.iter_mut().zip(adopted).zip(gpu_sinks.iter()) {
            let mut span = sink.span(TraceKind::Flush);
            let run = match adopted {
                Some(shard) => shard.flush_run(run_id, *codec),
                None => gpu.flush_run(run_id, *codec),
            };
            span.add_bytes(run.payload.len() as u64);
            out.push(run);
        }
        out
    }

    /// Aggregate CPU-side and GPU-side workload (paper Table V). Work a
    /// dead GPU performed before dying stays on the GPU side; its adopted
    /// shard's post-death work counts on the CPU side.
    pub fn workload_split(&self) -> (WorkloadStats, WorkloadStats) {
        let mut cpu = WorkloadStats::default();
        for c in &self.cpus {
            cpu.merge(&c.stats);
        }
        for a in self.adopted_shards() {
            cpu.merge(&a.stats);
        }
        let mut gpu = WorkloadStats::default();
        for g in &self.gpus {
            gpu.merge(&g.stats);
        }
        (cpu, gpu)
    }

    /// Every shard's dictionary, in indexer order, without consuming the
    /// pool — what a commit combines. CPU shards, and the adopted CPU
    /// continuations of dead GPUs, are borrowed; a live GPU's shard is
    /// downloaded and reinterpreted.
    pub fn shards(&mut self) -> Vec<Cow<'_, PartialDictionary>> {
        let mut parts: Vec<Cow<'_, PartialDictionary>> =
            self.cpus.iter().map(|c| Cow::Borrowed(&c.dict)).collect();
        for (gpu, adopted) in self.gpus.iter_mut().zip(&self.adopted) {
            parts.push(match adopted {
                Some(shard) => Cow::Borrowed(&shard.dict),
                None => Cow::Owned(gpu.into_partial_dictionary()),
            });
        }
        parts
    }

    /// End of program: every indexer's dictionary shard, moved out of the
    /// pool (live GPU shards are downloaded and reinterpreted; dead GPUs'
    /// shards come from their adopted CPU continuation).
    pub fn finish(self) -> Vec<PartialDictionary> {
        let mut parts: Vec<PartialDictionary> = self.cpus.into_iter().map(|c| c.dict).collect();
        for (mut gpu, adopted) in self.gpus.into_iter().zip(self.adopted) {
            parts.push(match adopted {
                Some(shard) => shard.dict,
                None => gpu.into_partial_dictionary(),
            });
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{make_plan, sample_counts};
    use ii_corpus::RawDocument;
    use ii_dict::GlobalDictionary;
    use ii_postings::RunSet;
    use ii_text::parse_documents;
    use std::collections::HashMap;

    fn parse(bodies: &[&str], file_idx: usize) -> ParsedBatch {
        let docs: Vec<RawDocument> = bodies
            .iter()
            .map(|b| RawDocument { url: String::new(), body: (*b).into() })
            .collect();
        parse_documents(&docs, false, file_idx)
    }

    fn pool(n_cpu: usize, n_gpu: usize, sample: &ParsedBatch) -> IndexerPool {
        let counts = sample_counts(std::slice::from_ref(sample));
        let plan = make_plan(&counts, n_cpu, n_gpu, 2);
        IndexerPool::new(plan, GpuIndexerConfig::small(), Codec::VarByte)
    }

    #[test]
    fn end_to_end_small_index() {
        let b0 = parse(&["the zebra runs", "zebra quilt zebra"], 0);
        let b1 = parse(&["quilt and zebra again"], 1);
        let mut p = pool(1, 1, &b0);
        p.index_batch(&b0);
        p.index_batch(&b1);
        assert_eq!(p.docs_indexed(), 3);
        let runs = p.flush_run();
        assert_eq!(runs.len(), 2);

        // Build run sets per indexer id.
        let mut sets: HashMap<u32, RunSet> = HashMap::new();
        for r in runs {
            sets.entry(r.indexer_id).or_default().push(r).unwrap();
        }
        let parts = p.finish();
        let dict = GlobalDictionary::combine(&parts);
        // zebra appears in global docs 0, 1, 2 with tf 1, 2, 1.
        let e = dict.lookup("zebra").expect("zebra indexed");
        let list = sets[&e.indexer].fetch(e.postings).unwrap();
        let docs_tfs: Vec<(u32, u32)> =
            list.postings().iter().map(|p| (p.doc.0, p.tf)).collect();
        assert_eq!(docs_tfs, vec![(0, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn cpu_only_and_gpu_only_agree_with_mixed() {
        let batches =
            vec![parse(&["alpha beta gamma beta", "delta alpha"], 0), parse(&["gamma gamma epsilon"], 1)];
        type Fingerprint = Vec<(String, Vec<(u32, u32)>)>;
        let mut results: Vec<Fingerprint> = Vec::new();
        for (n_cpu, n_gpu) in [(2, 0), (0, 1), (1, 2)] {
            let mut p = pool(n_cpu, n_gpu, &batches[0]);
            for b in &batches {
                p.index_batch(b);
            }
            let runs = p.flush_run();
            let mut sets: HashMap<u32, RunSet> = HashMap::new();
            for r in runs {
                sets.entry(r.indexer_id).or_default().push(r).unwrap();
            }
            let dict = GlobalDictionary::combine(&p.finish());
            let mut terms: Vec<(String, Vec<(u32, u32)>)> = dict
                .entries()
                .map(|e| {
                    let l = sets[&e.indexer].fetch(e.postings).unwrap();
                    (
                        e.full_term(),
                        l.postings().iter().map(|p| (p.doc.0, p.tf)).collect(),
                    )
                })
                .collect();
            terms.sort();
            results.push(terms);
        }
        assert_eq!(results[0], results[1], "cpu-only vs gpu-only");
        assert_eq!(results[0], results[2], "cpu-only vs mixed");
    }

    #[test]
    fn multi_run_postings_concatenate() {
        let mut p = pool(1, 0, &parse(&["omega"], 0));
        p.index_batch(&parse(&["omega"], 0));
        let r0 = p.flush_run();
        p.index_batch(&parse(&["omega omega"], 1));
        let r1 = p.flush_run();
        let mut set = RunSet::new();
        set.push(r0.into_iter().next().unwrap()).unwrap();
        set.push(r1.into_iter().next().unwrap()).unwrap();
        let dict = GlobalDictionary::combine(&p.finish());
        let e = dict.lookup("omega").unwrap();
        let l = set.fetch(e.postings).unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(l.postings()[1].tf, 2);
    }

    /// The checkpoint/restore contract behind `build --resume`: flushing a
    /// run, combining the live pool's shards as a commit does, restoring a
    /// fresh pool from that dictionary's shards, and indexing the remaining
    /// batches must produce bit-identical dictionaries and run files to the
    /// uninterrupted pool — and the same governor figures on the way.
    #[test]
    fn restored_pool_continues_byte_identically() {
        // Six collections that keep growing while their terms keep
        // repeating: known terms are looked up through full nodes, which
        // splits them where a tree rebuilt without the repeats has not yet.
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let batches: Vec<ParsedBatch> = (0..4)
            .map(|f| {
                let mut word = || {
                    let prefix = ["1", "2", "tan", "ser", "lod", "mic"][next() % 6];
                    format!("{prefix}{:04}", next() % (25 * (f + 1)))
                };
                let docs: Vec<String> =
                    (0..6).map(|_| (0..150).map(|_| word()).collect::<Vec<_>>().join(" ")).collect();
                parse(&docs.iter().map(String::as_str).collect::<Vec<_>>(), f)
            })
            .collect();
        for (n_cpu, n_gpu) in [(2, 0), (0, 1), (1, 1)] {
            // Uninterrupted reference.
            let mut full = pool(n_cpu, n_gpu, &batches[0]);
            full.index_batch(&batches[0]);
            full.index_batch(&batches[1]);
            let full_r0 = full.flush_run();
            full.index_batch(&batches[2]);
            let full_resident = full.resident_bytes();
            full.index_batch(&batches[3]);
            let full_r1 = full.flush_run();

            // Checkpointed: flush, combine, restore from the shards, continue.
            let mut first = pool(n_cpu, n_gpu, &batches[0]);
            first.index_batch(&batches[0]);
            first.index_batch(&batches[1]);
            let ckpt_r0 = first.flush_run();
            let checkpoint = GlobalDictionary::combine(&first.shards());
            let parts = checkpoint.shards(n_cpu + n_gpu).unwrap();
            let nodes = |shards: &[Cow<'_, PartialDictionary>]| -> usize {
                shards.iter().map(|p| p.store.num_nodes()).sum()
            };
            let rebuilt: Vec<_> = parts.iter().map(Cow::Borrowed).collect();
            assert!(nodes(&rebuilt) < nodes(&first.shards()), "the shapes must differ");
            let counts = sample_counts(std::slice::from_ref(&batches[0]));
            let plan = make_plan(&counts, n_cpu, n_gpu, 2);
            let mut resumed = IndexerPool::restore(
                plan,
                GpuIndexerConfig::small(),
                Codec::VarByte,
                parts,
                first.next_doc(),
                first.docs_indexed(),
                first.runs_flushed(),
            )
            .unwrap();
            // The governor reads the same bytes off both pools, the shapes
            // notwithstanding (an empty batch clears the input staging the
            // device figure includes).
            let nothing = parse(&[], 2);
            first.index_batch(&nothing);
            resumed.index_batch(&nothing);
            assert_eq!(resumed.resident_bytes(), first.resident_bytes(), "cfg ({n_cpu},{n_gpu})");
            resumed.index_batch(&batches[2]);
            assert_eq!(resumed.resident_bytes(), full_resident, "cfg ({n_cpu},{n_gpu}) governor");
            resumed.index_batch(&batches[3]);
            let ckpt_r1 = resumed.flush_run();

            let encode =
                |runs: &[RunFile]| -> Vec<Vec<u8>> { runs.iter().map(|r| r.to_bytes()).collect() };
            assert_eq!(encode(&full_r0), encode(&ckpt_r0), "cfg ({n_cpu},{n_gpu}) run 0");
            assert_eq!(encode(&full_r1), encode(&ckpt_r1), "cfg ({n_cpu},{n_gpu}) run 1");
            assert_eq!(
                GlobalDictionary::combine(&full.finish()),
                GlobalDictionary::combine(&resumed.finish()),
                "cfg ({n_cpu},{n_gpu}) dictionary"
            );
        }
    }

    #[test]
    fn shards_the_pool_cannot_hold_are_refused_not_asserted() {
        let sample = parse(&["zebra quilt xylophone banana"], 0);
        let restore = |parts: Vec<PartialDictionary>, gpu_config| {
            let plan = make_plan(&sample_counts(std::slice::from_ref(&sample)), 1, 1, 2);
            IndexerPool::restore(plan, gpu_config, Codec::VarByte, parts, 0, 0, 0).map(|_| ())
        };
        let unknown = restore(vec![PartialDictionary::new(2)], GpuIndexerConfig::small());
        assert!(unknown.unwrap_err().contains("indexer 2 but the pool has 2"));
        // A GPU shard of three terms for a device sized for two.
        let mut shard = PartialDictionary::new(1);
        for term in ["quilt", "xylophone", "zebra"] {
            ii_dict::insert_surface(&mut shard, term);
        }
        let tight = GpuIndexerConfig { max_terms: 2, ..GpuIndexerConfig::small() };
        let too_big = restore(vec![shard.clone()], tight).unwrap_err();
        assert!(too_big.contains("holds 3 terms, device capacity 2"), "{too_big}");
        assert_eq!(restore(vec![shard], GpuIndexerConfig::small()), Ok(()));
    }

    /// The degradation contract behind the supervisor: killing the GPU at
    /// any batch boundary — including mid-run, with pending un-flushed
    /// postings — must leave every later run file and the final dictionary
    /// byte-identical to the healthy build, because the salvage hands the
    /// CPU successor the exact device state.
    #[test]
    fn gpu_killed_mid_run_continues_byte_identically_on_cpu() {
        let batches = [
            parse(&["zebra quilt xylophone", "the banana zebra"], 0),
            parse(&["quilt again and again"], 1),
            parse(&["xylophone zebra 954 zebra"], 2),
            parse(&["banana 954 quilt banana"], 3),
        ];
        let build = |kill_after: Option<usize>| {
            let mut p = pool(1, 1, &batches[0]);
            let mut runs = Vec::new();
            for (i, b) in batches.iter().enumerate() {
                p.index_batch(b);
                if i == 1 {
                    runs.extend(p.flush_run()); // mid-build run boundary
                }
                if Some(i) == kill_after {
                    assert!(p.kill_gpu(0), "the GPU dies once");
                    assert!(!p.kill_gpu(0), "and only once");
                }
            }
            runs.extend(p.flush_run());
            let enc: Vec<Vec<u8>> = runs.iter().map(|r| r.to_bytes()).collect();
            let mut dict = Vec::new();
            GlobalDictionary::combine(&p.finish()).write_to(&mut dict).unwrap();
            (enc, dict)
        };
        let healthy = build(None);
        for kill_after in 0..batches.len() {
            // Kill points 0 and 1 leave pending postings on the device
            // (run 0 flushes after batch 1); 2 and 3 are mid-second-run.
            let degraded = build(Some(kill_after));
            assert_eq!(healthy.0, degraded.0, "runs differ, kill after batch {kill_after}");
            assert_eq!(healthy.1, degraded.1, "dict differs, kill after batch {kill_after}");
        }
    }

    /// A panic inside a CPU shard is contained and recorded, one entry per
    /// shard, and kills nobody: the shard stays on the driver thread, so
    /// its next batch indexes there as before.
    #[test]
    fn shard_panic_is_contained_and_reassigned() {
        let b0 = parse(&["zebra quilt xylophone banana", "banana zebra"], 0);
        let mut p = pool(2, 1, &b0);
        p.index_batch(&b0);

        // Each group's first document claims one term byte more than its
        // group holds, so every CPU shard panics slicing its first group.
        let mut poisoned = parse(&["quilt banana xylophone", "zebra banana"], 1);
        for g in &mut poisoned.groups {
            if matches!(p.plan.owner(g.trie_index), Owner::Cpu(_)) {
                g.docs[0].byte_len = g.term_bytes.len() as u32 + 1;
            }
        }
        let t = p.index_batch(&poisoned);
        let shards: Vec<u32> = t.panics.iter().map(|(shard, _)| *shard).collect();
        assert_eq!(shards, vec![0, 1], "one panic per CPU shard: {:?}", t.panics);
        for (_, panic) in &t.panics {
            assert!(panic.contains("out of range for slice of length"), "{panic}");
        }
        assert!(t.gpu_deaths.is_empty(), "a CPU shard's panic kills nobody");

        // The pool keeps going on the same shards.
        let t = p.index_batch(&parse(&["zebra quilt xylophone banana"], 2));
        assert!(t.panics.is_empty() && t.gpu_deaths.is_empty());
        assert_eq!(t.cpu_seconds.len(), 2);
        assert!(t.cpu_seconds.iter().all(|&s| s > 0.0), "{:?}", t.cpu_seconds);
        assert_eq!(p.flush_run().len(), 3);
    }

    /// Every shard runs on the driver thread, so timing lands where the
    /// shard runs: each CPU shard's in its own slot, and a salvaged GPU
    /// shard's in `fallback_seconds`. With every GPU executor dead, the
    /// driver hosts all of their shards and the build goes on.
    #[test]
    fn all_executors_dead_degrades_to_driver_host() {
        let b0 = parse(&["zebra quilt xylophone banana", "banana zebra"], 0);
        let mut p = pool(1, 2, &b0);
        let t = p.index_batch(&b0);
        assert_eq!(t.cpu_seconds.len(), 1);
        assert!(t.cpu_seconds.iter().all(|&s| s > 0.0), "{:?}", t.cpu_seconds);
        assert_eq!(t.fallback_seconds, 0.0, "nothing runs adopted while the GPUs live");

        // Both GPUs die: their shards are adopted and their time is the driver's.
        assert!(p.kill_gpu(0));
        assert!(p.kill_gpu(1));
        let t = p.index_batch(&parse(&["zebra quilt xylophone banana"], 1));
        assert!(t.panics.is_empty() && t.gpu_deaths.is_empty());
        assert_eq!(t.cpu_seconds.len(), 1);
        assert!(t.cpu_seconds.iter().all(|&s| s > 0.0), "{:?}", t.cpu_seconds);
        assert!(t.fallback_seconds > 0.0, "the adopted shards run on the driver");
        for g in &t.gpu {
            assert_eq!(g.device_seconds, 0.0, "a dead GPU models no device time");
        }
        assert_eq!(p.flush_run().len(), 3);
    }

    /// The governor's probe: postings bytes fall to zero at a flush, and a
    /// shed moves the device-side footprint onto the CPU ledger while the
    /// output stays byte-identical (covered by the kill_gpu tests above —
    /// shed reuses that path).
    #[test]
    fn resident_accounting_tracks_index_flush_and_shed() {
        let b0 = parse(&["zebra quilt xylophone banana zebra"], 0);
        let b1 = parse(&["banana xylophone quilt"], 1);
        let mut p = pool(1, 1, &b0);
        let (d0, po0, dev0) = p.resident_bytes();
        assert!(d0 > 0, "even an empty shard carries its fixed trie-roots table");
        assert_eq!((po0, dev0), (0, 0), "no pending postings or device content yet");
        p.index_batch(&b0);
        let (d1, po1, dev1) = p.resident_bytes();
        assert!(d1 > d0, "dictionary arenas grew");
        assert!(po1 > 0, "popular terms pend on the CPU side");
        assert!(dev1 > 0, "unpopular terms pend on the device");
        p.flush_run();
        let (d2, po2, dev2) = p.resident_bytes();
        assert_eq!(po2, 0, "flush drains pending CPU postings");
        assert_eq!(d2, d1, "flushing postings never shrinks the dictionary");
        // The device keeps its dictionary arenas and per-term table across
        // runs; only the postings log drains, so the figure never grows.
        assert!(dev2 <= dev1, "flush never grows device residency");
        // Shed: device footprint moves onto the CPU ledger, at the host
        // charge worked out before the salvage. A shard this small costs
        // the host more than the device (the trie-root table).
        p.index_batch(&b1);
        let (d, po, dev) = p.resident_bytes();
        let (freed, charged) = (p.gpus[0].resident_bytes(), p.gpus[0].host_charge());
        assert!(charged > freed);
        assert_eq!(p.resident_after_shed(), None, "a shed that would raise the charge");
        assert_eq!(p.shed_gpu(), Some(0), "one GPU to shed");
        let (d3, po3, dev3) = p.resident_bytes();
        assert_eq!(dev3, 0, "no live GPU, no device bytes");
        assert!(d3 >= d2, "adopted shard's dictionary now counts on the CPU side");
        assert_eq!(d3 + po3, d + po + dev - freed + charged, "the charge was predicted exactly");
        assert_eq!(p.resident_after_shed(), None, "no GPU left");
        assert!(p.shed_gpu().is_none(), "nothing left to shed");
        // The pool still finishes.
        p.index_batch(&parse(&["quilt zebra"], 2));
        assert_eq!(p.flush_run().len(), 2);
    }

    #[test]
    fn workload_split_partitions_tokens() {
        let b = parse(&["the cat and the dog chased the big cats dogs zebra"], 0);
        let mut p = pool(1, 1, &b);
        p.index_batch(&b);
        let (cpu, gpu) = p.workload_split();
        let total = cpu.tokens + gpu.tokens;
        assert_eq!(total, b.stats.terms_kept);
        assert!(cpu.tokens > 0, "popular collections must hit the CPU");
    }
}
