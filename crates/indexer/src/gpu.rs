//! The GPU indexer (paper §III.D.2), written against `ii-gpusim`.
//!
//! One warp (32-thread block) builds the B-tree and postings of one trie
//! collection:
//!
//! * term strings live in device memory in the Fig 6 length-prefixed
//!   layout and are staged into shared memory in coalesced 512 B chunks;
//! * each B-tree node visited is moved device→shared with one coalesced
//!   512 B load;
//! * a probe term is compared against all 31 node keys in parallel
//!   (lane *i* handles slot *i*) and the insert position / match slot is
//!   found with a single packed parallel reduction (Fig 7, [11]);
//! * inserts shift the tail slots with warp-parallel reads/writes, splits
//!   build the new sibling in shared memory and store both halves back
//!   with coalesced writes;
//! * postings are aggregated on-device in a per-handle current-posting
//!   table; completed postings are appended to a device log that the host
//!   drains at the end of each run.
//!
//! Node bytes in device memory use the Table II 512-byte layout
//! (`ii_dict::node`), which converts losslessly to the host's slotted
//! nodes, so at end of program the device arenas are downloaded straight
//! into a `PartialDictionary`.

use crate::log::PostingLog;
use crate::stats::WorkloadStats;
use ii_corpus::DocId;
use ii_dict::node::{
    BTreeNode, MAX_KEYS, NODE_BYTES, NULL, OFF_CACHE, OFF_CHILDREN, OFF_COUNT, OFF_LEAF,
    OFF_POSTINGS, OFF_TERM_PTR,
};
use ii_dict::{arena::StringArena, PartialDictionary, SlottedStore, TRIE_ENTRIES};
use ii_gpusim::{launch_dynamic, BlockCtx, DevPtr, DeviceMemory, GpuConfig, LaunchReport};
use ii_obs::{GpuSpanArgs, TraceKind, TraceSink};
use ii_postings::{Codec, Posting, RunFile};
use ii_text::TrieGroup;

/// Shared-memory layout of the kernel (well inside the 16 KB budget).
const SH_CHUNK: usize = 0; // 512 B staging for term strings
const SH_NODE: usize = 512; // current node
const SH_NODE2: usize = 1024; // child being split
const SH_NODE3: usize = 1536; // right sibling under construction
/// Staging chunk size (one coalesced transfer of 8 segments).
const CHUNK: usize = 512;
/// "Empty" marker in the current-posting table.
const EMPTY_DOC: u32 = u32::MAX;
/// Longest term the Fig 6 layout can hold: its length prefix is one byte.
const MAX_TERM_BYTES: usize = u8::MAX as usize;

/// Sizing and architecture of one simulated GPU indexer.
#[derive(Clone, Copy, Debug)]
pub struct GpuIndexerConfig {
    /// Architectural parameters (Tesla C1060 by default).
    pub gpu: GpuConfig,
    /// Thread blocks pulling trie collections (paper found 480 optimal).
    pub num_blocks: usize,
    /// Capacity of the device postings table (distinct terms).
    pub max_terms: usize,
    /// Device node-arena capacity (nodes).
    pub node_capacity: usize,
    /// Device string-arena capacity (bytes).
    pub string_capacity: usize,
    /// Device postings-log capacity (records).
    pub log_capacity: usize,
    /// Device input-staging capacity per batch (bytes).
    pub input_capacity: usize,
}

impl Default for GpuIndexerConfig {
    fn default() -> Self {
        GpuIndexerConfig {
            gpu: GpuConfig::default(),
            num_blocks: 480,
            max_terms: 400_000,
            node_capacity: 80_000,
            string_capacity: 8 << 20,
            log_capacity: 3 << 20,
            input_capacity: 48 << 20,
        }
    }
}

impl GpuIndexerConfig {
    /// A small configuration for unit tests and laptop-scale examples
    /// (handles batches up to a few hundred thousand tokens).
    pub fn small() -> Self {
        GpuIndexerConfig {
            gpu: GpuConfig { device_mem_bytes: 160 << 20, ..GpuConfig::default() },
            num_blocks: 64,
            max_terms: 300_000,
            node_capacity: 30_000,
            string_capacity: 4 << 20,
            log_capacity: 1 << 20,
            input_capacity: 48 << 20,
        }
    }
}

/// Timing of one indexed batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpuBatchReport {
    /// Simulated device seconds for the kernel grid.
    pub device_seconds: f64,
    /// Simulated PCIe seconds for the input upload (pre-processing).
    pub transfer_seconds: f64,
    /// SM load-balance quality of the grid (1.0 = perfect).
    pub utilization: f64,
    /// Sum of all blocks' simulated cycles for the grid.
    pub total_cycles: u64,
}

/// One simulated GPU running the indexing kernel.
pub struct GpuIndexer {
    /// Indexer identity (stamped on run files / dictionary shard).
    pub id: u32,
    /// Sizing used.
    pub config: GpuIndexerConfig,
    mem: DeviceMemory,
    // Device pointers.
    roots: DevPtr,      // TRIE_ENTRIES root cells
    ctr_nodes: DevPtr,
    ctr_strings: DevPtr,
    ctr_terms: DevPtr,
    ctr_log: DevPtr,
    node_area: DevPtr,
    string_area: DevPtr,
    table: DevPtr,
    log_area: DevPtr,
    input_area: DevPtr,
    input_top: usize,
    /// Trie collections this GPU has seen (for dictionary download).
    seen: std::collections::BTreeSet<u32>,
    /// Lifetime workload counters.
    pub stats: WorkloadStats,
    /// Accumulated simulated device time.
    pub device_seconds_total: f64,
    /// Accumulated simulated transfer time.
    pub transfer_seconds_total: f64,
    /// Merged kernel metrics across batches.
    pub kernel_metrics: ii_gpusim::Metrics,
}

/// One grid work item: a trie collection's parsed stream for this batch.
struct WorkItem {
    trie_index: u32,
    bytes_ptr: DevPtr,
    bytes_len: u32,
    spans_ptr: DevPtr,
    n_spans: u32,
    doc_offset: u32,
}

impl GpuIndexer {
    /// Allocate device regions and initialize counters.
    pub fn new(id: u32, config: GpuIndexerConfig) -> Self {
        let mut mem = DeviceMemory::new(config.gpu.device_mem_bytes);
        let roots = mem.alloc(TRIE_ENTRIES * 4, 64);
        let ctr_nodes = mem.alloc(4, 4);
        let ctr_strings = mem.alloc(4, 4);
        let ctr_terms = mem.alloc(4, 4);
        let ctr_log = mem.alloc(4, 4);
        let node_area = mem.alloc(config.node_capacity * NODE_BYTES, 64);
        let string_area = mem.alloc(config.string_capacity, 64);
        let table = mem.alloc(config.max_terms * 8, 64);
        let log_area = mem.alloc(config.log_capacity * 12, 64);
        let input_area = mem.alloc(config.input_capacity, 64);
        let mut gpu = GpuIndexer {
            id,
            config,
            mem,
            roots,
            ctr_nodes,
            ctr_strings,
            ctr_terms,
            ctr_log,
            node_area,
            string_area,
            table,
            log_area,
            input_area,
            input_top: 0,
            seen: Default::default(),
            stats: WorkloadStats::default(),
            device_seconds_total: 0.0,
            transfer_seconds_total: 0.0,
            kernel_metrics: ii_gpusim::Metrics::default(),
        };
        gpu.reset_roots_and_table();
        gpu
    }

    /// One-time (and per-flush) device-side initialization, the moral
    /// equivalent of cudaMemset (not counted as PCIe traffic).
    fn reset_roots_and_table(&mut self) {
        let roots_bytes = vec![0xFFu8; TRIE_ENTRIES * 4];
        let o = self.roots.0 as usize;
        // Direct memset-style init.
        self.memset(o, &roots_bytes);
        let table_bytes = vec![0xFFu8; self.config.max_terms * 8];
        let t = self.table.0 as usize;
        self.memset(t, &table_bytes);
        for ctr in [self.ctr_nodes, self.ctr_strings, self.ctr_terms, self.ctr_log] {
            let c = ctr.0 as usize;
            self.memset(c, &[0, 0, 0, 0]);
        }
    }

    fn memset(&mut self, at: usize, bytes: &[u8]) {
        // DeviceMemory has no uncounted write; emulate cudaMemset by a
        // host_write and then subtracting it from the transfer tally.
        let before = self.mem.transfers.h2d_bytes;
        self.mem.host_write(DevPtr(at as u32), bytes);
        self.mem.transfers.h2d_bytes = before;
    }

    /// Pre-processing: upload this batch's groups; indexing: launch the
    /// grid over them. Returns the batch timing. `groups` must all be owned
    /// by this GPU per the balance plan.
    pub fn index_batch(&mut self, groups: &[&TrieGroup], doc_offset: u32) -> GpuBatchReport {
        self.input_top = 0;
        let mut items = Vec::with_capacity(groups.len());
        let mut uploaded = 0u64;
        let mut spans = Vec::new();
        for g in groups {
            // Term bytes.
            let bytes_ptr = self.input_alloc(g.term_bytes.len());
            self.mem.host_write(bytes_ptr, &g.term_bytes);
            // Span records: doc, byte_start, byte_len, n_terms (16 B each).
            spans.clear();
            for s in &g.docs {
                spans.extend_from_slice(&s.doc.0.to_le_bytes());
                spans.extend_from_slice(&s.byte_start.to_le_bytes());
                spans.extend_from_slice(&s.byte_len.to_le_bytes());
                spans.extend_from_slice(&s.n_terms.to_le_bytes());
            }
            let spans_ptr = self.input_alloc(spans.len());
            self.mem.host_write(spans_ptr, &spans);
            uploaded += (g.term_bytes.len() + spans.len()) as u64;
            self.seen.insert(g.trie_index);
            // Fig 6 layout: every term is one length byte plus its chars.
            let tokens = g.total_terms();
            self.stats.tokens += tokens;
            self.stats.chars += g.term_bytes.len() as u64 - tokens;
            items.push(WorkItem {
                trie_index: g.trie_index,
                bytes_ptr,
                bytes_len: g.term_bytes.len() as u32,
                spans_ptr,
                n_spans: g.docs.len() as u32,
                doc_offset,
            });
        }
        let terms_before = self.term_count();
        let cfg = self.config;
        let roots = self.roots;
        let report: LaunchReport = {
            let mem = &mut self.mem;
            let ctrs = KernelPtrs {
                roots,
                ctr_nodes: self.ctr_nodes,
                ctr_strings: self.ctr_strings,
                ctr_terms: self.ctr_terms,
                ctr_log: self.ctr_log,
                node_area: self.node_area,
                string_area: self.string_area,
                table: self.table,
                log_area: self.log_area,
                max_terms: cfg.max_terms as u32,
                node_capacity: cfg.node_capacity as u32,
                log_capacity: cfg.log_capacity as u32,
                string_capacity: cfg.string_capacity as u32,
            };
            launch_dynamic(&cfg.gpu, mem, cfg.num_blocks, &items, |ctx, mem, item| {
                kernel(ctx, mem, &ctrs, item);
            })
        };
        self.stats.terms += (self.term_count() - terms_before) as u64;
        let transfer_seconds = cfg.gpu.transfer_seconds(uploaded);
        self.device_seconds_total += report.device_seconds;
        self.transfer_seconds_total += transfer_seconds;
        self.kernel_metrics.merge(&report.metrics);
        GpuBatchReport {
            device_seconds: report.device_seconds,
            transfer_seconds,
            utilization: report.utilization(),
            total_cycles: report.total_cycles,
        }
    }

    /// [`Self::index_batch`] under an `index` trace span on this worker's
    /// timeline, with the span's kernel-counter deltas attached (`sink`
    /// disabled → identical to the untraced call).
    pub fn index_batch_traced(
        &mut self,
        groups: &[&TrieGroup],
        doc_offset: u32,
        sink: &TraceSink,
        batch_id: u32,
    ) -> GpuBatchReport {
        let metrics_before = self.kernel_metrics;
        let mut span = sink.span(TraceKind::Index);
        span.set_batch(batch_id);
        if let (Some(lo), Some(hi)) = (
            groups.iter().map(|g| g.trie_index).min(),
            groups.iter().map(|g| g.trie_index).max(),
        ) {
            span.set_tries(lo, hi);
        }
        span.add_bytes(groups.iter().map(|g| g.term_bytes.len() as u64).sum());
        let report = self.index_batch(groups, doc_offset);
        let d = self.kernel_metrics.delta(&metrics_before);
        span.set_gpu(GpuSpanArgs {
            device_ns: (report.device_seconds * 1e9) as u64,
            transfer_ns: (report.transfer_seconds * 1e9) as u64,
            warp_comparisons: d.warp_comparisons,
            global_transactions: d.global_transactions,
            global_bytes: d.global_bytes,
            instructions: d.instructions,
        });
        report
    }

    fn input_alloc(&mut self, len: usize) -> DevPtr {
        let aligned = (self.input_top + 63) & !63;
        assert!(
            aligned + len <= self.config.input_capacity,
            "GPU input staging exhausted ({} + {} > {})",
            aligned,
            len,
            self.config.input_capacity
        );
        self.input_top = aligned + len;
        DevPtr(self.input_area.0 + aligned as u32)
    }

    fn read_ctr(&self, ptr: DevPtr) -> u32 {
        u32::from_le_bytes(self.mem.debug_read(ptr, 4).try_into().unwrap())
    }

    /// Distinct terms inserted so far on this GPU.
    pub fn term_count(&self) -> u32 {
        self.read_ctr(self.ctr_terms)
    }

    /// Nodes allocated so far on this GPU.
    pub fn node_count(&self) -> u32 {
        self.read_ctr(self.ctr_nodes)
    }

    /// Post-processing: drain the device postings log + current-posting
    /// table into a run file, clearing device postings state (dictionary
    /// B-trees stay resident across runs).
    pub fn flush_run(&mut self, run_id: u32, codec: Codec) -> RunFile {
        let mut log = self.salvage_pending_log();
        // Clear postings state for the next run.
        let clear = vec![0xFFu8; self.term_count() as usize * 8];
        self.memset(self.table.0 as usize, &clear);
        self.memset(self.ctr_log.0 as usize, &[0, 0, 0, 0]);
        log.flush_run(run_id, self.id, codec)
    }

    /// Read the device postings log + current-posting table into a host
    /// [`PostingLog`] *without* clearing any device state: the retired
    /// records in device-log order, then each term's current posting. What
    /// [`Self::flush_run`] encodes, and the failure-domain salvage when
    /// this GPU is declared dead mid-run: together with
    /// [`Self::into_partial_dictionary`] it gives a CPU successor the exact
    /// pending state (each term's records in the doc order the CPU path
    /// would have appended them), so a takeover at a batch boundary
    /// continues byte-identically.
    pub fn salvage_pending_log(&mut self) -> PostingLog {
        let n_log = self.read_ctr(self.ctr_log) as usize;
        let log_bytes = self.mem.host_read(self.log_area, n_log * 12);
        let n_terms = self.term_count() as usize;
        let table_bytes = self.mem.host_read(self.table, n_terms * 8);
        let word = |rec: &[u8], at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().unwrap());
        let mut log = PostingLog::with_capacity(n_log + n_terms, n_terms);
        for rec in log_bytes.chunks_exact(12) {
            log.push(word(rec, 0), Posting { doc: DocId(word(rec, 4)), tf: word(rec, 8) });
        }
        for (handle, rec) in table_bytes.chunks_exact(8).enumerate() {
            if word(rec, 0) != EMPTY_DOC {
                log.push(handle as u32, Posting { doc: DocId(word(rec, 0)), tf: word(rec, 4) });
            }
        }
        log
    }

    /// End of program: download the device arenas into a host dictionary
    /// shard (each Table II node becomes its slotted twin).
    pub fn into_partial_dictionary(&mut self) -> PartialDictionary {
        let n_nodes = self.node_count() as usize;
        let node_bytes = self.mem.host_read(self.node_area, n_nodes * NODE_BYTES);
        let nodes: Vec<BTreeNode> = node_bytes
            .chunks_exact(NODE_BYTES)
            .map(|c| BTreeNode::from_bytes(c.try_into().unwrap()))
            .collect();
        let n_str = self.read_ctr(self.ctr_strings) as usize;
        let string_bytes = self.mem.host_read(self.string_area, n_str);
        let store =
            SlottedStore::from_device(&nodes, StringArena::from_bytes(string_bytes), self.term_count());
        let mut roots = Vec::with_capacity(self.seen.len());
        for &ti in &self.seen {
            let cell = DevPtr(self.roots.0 + ti * 4);
            let root =
                u32::from_le_bytes(self.mem.debug_read(cell, 4).try_into().unwrap());
            if root != NULL {
                roots.push((ti, root));
            }
        }
        PartialDictionary::from_device(self.id, store, roots)
    }

    /// Resume support: upload a dictionary shard into device memory, the
    /// inverse of [`Self::into_partial_dictionary`] — node and string
    /// arenas, allocation counters and per-collection root cells — so that
    /// later inserts allocate postings handles exactly as the uninterrupted
    /// build would have. The shard is the one
    /// [`GlobalDictionary::shards`](ii_dict::GlobalDictionary::shards)
    /// rebuilt: same terms and handles, not necessarily the tree shape the
    /// device had, which no output depends on. State is uploaded through
    /// the memset path (not counted as PCIe traffic) like the initial device
    /// initialization; the kernel is *not* replayed, because dynamic block
    /// scheduling could discover terms in a different order and reassign
    /// handles. A shard this device was not sized for is refused with the
    /// reason (device sizes are not part of a checkpoint's config
    /// fingerprint).
    pub fn restore_dictionary(&mut self, part: &PartialDictionary) -> Result<(), String> {
        let nodes = part.store.to_device_nodes();
        let strings = part.store.strings.as_bytes();
        for (what, needed, capacity) in [
            ("nodes", nodes.len(), self.config.node_capacity),
            ("string bytes", strings.len(), self.config.string_capacity),
            ("terms", part.term_count() as usize, self.config.max_terms),
        ] {
            if needed > capacity {
                return Err(format!(
                    "dictionary shard of GPU indexer {} holds {needed} {what}, device capacity {capacity}",
                    part.indexer_id
                ));
            }
        }
        let mut node_bytes = Vec::with_capacity(nodes.len() * NODE_BYTES);
        for n in &nodes {
            node_bytes.extend_from_slice(&n.to_bytes());
        }
        if !node_bytes.is_empty() {
            let at = self.node_area.0 as usize;
            self.memset(at, &node_bytes);
        }
        if !strings.is_empty() {
            let at = self.string_area.0 as usize;
            self.memset(at, strings);
        }
        self.memset(self.ctr_nodes.0 as usize, &(nodes.len() as u32).to_le_bytes());
        self.memset(self.ctr_strings.0 as usize, &(strings.len() as u32).to_le_bytes());
        self.memset(self.ctr_terms.0 as usize, &part.term_count().to_le_bytes());
        let tis: Vec<u32> = part.trie_indices().collect();
        for ti in tis {
            let tree = part.tree(ti).expect("listed index has a tree");
            let cell = (self.roots.0 + ti * 4) as usize;
            self.memset(cell, &tree.root.to_le_bytes());
            self.seen.insert(ti);
        }
        Ok(())
    }

    /// PCIe + metrics tallies of the device (testing/reporting).
    pub fn transfer_metrics(&self) -> ii_gpusim::Metrics {
        self.mem.transfers
    }

    /// What the memory governor counts for this device: string remainders,
    /// the current-posting table, the postings log and the current batch's
    /// input staging as they are, and [`ii_dict::tree_nodes`] nodes for its
    /// terms and collections — the host shards' rule, for the same reason:
    /// the figure is a function of the documents indexed, not of how the
    /// device's trees split, so a device restored from a checkpoint reports
    /// what the uninterrupted one would. (Arena capacity is
    /// [`DeviceMemory::used`]; its high-water mark is
    /// [`DeviceMemory::high_water`].)
    pub fn resident_bytes(&self) -> u64 {
        let terms = u64::from(self.term_count());
        ii_dict::tree_nodes(terms, self.seen.len() as u64) * NODE_BYTES as u64
            + self.read_ctr(self.ctr_strings) as u64
            + terms * 8
            + self.read_ctr(self.ctr_log) as u64 * 12
            + self.input_top as u64
    }
}

/// Device pointers threaded through the kernel (the CUDA kernel's
/// constant-memory arguments).
#[derive(Clone, Copy)]
struct KernelPtrs {
    roots: DevPtr,
    ctr_nodes: DevPtr,
    ctr_strings: DevPtr,
    ctr_terms: DevPtr,
    ctr_log: DevPtr,
    node_area: DevPtr,
    string_area: DevPtr,
    table: DevPtr,
    log_area: DevPtr,
    max_terms: u32,
    node_capacity: u32,
    log_capacity: u32,
    string_capacity: u32,
}

// ---- kernel ------------------------------------------------------------

fn node_ptr(k: &KernelPtrs, idx: u32) -> DevPtr {
    DevPtr(k.node_area.0 + idx * NODE_BYTES as u32)
}

/// Allocate a device node index by bumping the global counter (atomicAdd).
fn alloc_node(ctx: &mut BlockCtx, mem: &mut DeviceMemory, k: &KernelPtrs) -> u32 {
    let idx = ctx.global_read_u32(mem, k.ctr_nodes);
    assert!(idx < k.node_capacity, "GPU node arena exhausted");
    ctx.global_write_u32(mem, k.ctr_nodes, idx + 1);
    idx
}

/// Write an empty leaf into the device node `idx` by building it in shared
/// scratch and storing it coalesced.
fn write_empty_leaf(ctx: &mut BlockCtx, mem: &mut DeviceMemory, k: &KernelPtrs, idx: u32) {
    let empty = BTreeNode::default().to_bytes();
    ctx.shared_mut()[SH_NODE3..SH_NODE3 + NODE_BYTES].copy_from_slice(&empty);
    ctx.instr(4); // parallel zero-fill of the shared image
    ctx.stg(mem, SH_NODE3, node_ptr(k, idx), NODE_BYTES);
}

/// Scalar helpers over a shared-memory node image. Reads are metered as
/// single shared accesses by the callers that use them for control flow.
fn sh_u32(ctx: &BlockCtx, base: usize, off: usize) -> u32 {
    let o = base + off;
    u32::from_le_bytes(ctx.shared()[o..o + 4].try_into().unwrap())
}

fn sh_set_u32(ctx: &mut BlockCtx, base: usize, off: usize, v: u32) {
    let o = base + off;
    ctx.shared_mut()[o..o + 4].copy_from_slice(&v.to_le_bytes());
}

/// Load node `idx` into the shared image at `base` (one coalesced 512 B
/// transfer — the paper's "move the next B-tree node ... into the shared
/// memory using coalesced memory access").
fn load_node(ctx: &mut BlockCtx, mem: &DeviceMemory, k: &KernelPtrs, idx: u32, base: usize) {
    ctx.gts(mem, node_ptr(k, idx), base, NODE_BYTES);
}

fn store_node(ctx: &mut BlockCtx, mem: &mut DeviceMemory, k: &KernelPtrs, idx: u32, base: usize) {
    ctx.stg(mem, base, node_ptr(k, idx), NODE_BYTES);
}

/// Result of the warp-parallel node probe.
enum Probe {
    Found(usize),
    NotHere(usize),
}

/// Fig 7: all lanes compare the probe term against their key slot, then a
/// single packed parallel reduction yields (match slot, #keys < probe).
fn node_probe(
    ctx: &mut BlockCtx,
    mem: &DeviceMemory,
    k: &KernelPtrs,
    base: usize,
    term: &[u8],
) -> Probe {
    let count = sh_u32(ctx, base, OFF_COUNT) as usize;
    ctx.instr(1);
    let probe_cache = BTreeNode::make_cache(term);
    let probe_word = u32::from_le_bytes(probe_cache);
    // Warp gather of the 31 caches (stride-1 words: conflict-free).
    let cache_offs: [u32; 32] =
        std::array::from_fn(|i| (base + OFF_CACHE + 4 * i.min(MAX_KEYS - 1)) as u32);
    let caches = ctx.shared_read_vec_u32(cache_offs);
    // Per-lane three-way compare on the big-endian view of the 4 bytes
    // (byte-lexicographic order == integer order after byte swap).
    let probe_be = probe_word.swap_bytes();
    let mut lane_cmp = [0i32; 32]; // -1 key<probe, 0 eq, 1 key>probe
    for lane in 0..MAX_KEYS {
        if lane >= count {
            lane_cmp[lane] = 1; // virtual +inf keys
            continue;
        }
        let key_be = caches[lane].swap_bytes();
        lane_cmp[lane] = match key_be.cmp(&probe_be) {
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        };
    }
    lane_cmp[31] = 1;
    ctx.instr(2); // swap + compare
    ctx.metrics.warp_comparisons += MAX_KEYS as u64; // lane i vs key slot i
    // Cache ties need the string remainder (device memory, uncoalesced) —
    // the expensive, rare path the 4-byte cache exists to avoid.
    let probe_rem: &[u8] = if term.len() > 4 { &term[4..] } else { b"" };
    #[allow(clippy::needless_range_loop)] // lane indexes lane_cmp and caches
    for lane in 0..count {
        if lane_cmp[lane] != 0 {
            continue;
        }
        let tp = sh_u32(ctx, base, OFF_TERM_PTR + 4 * lane);
        let key_rem: &[u8] = if tp == NULL {
            b""
        } else {
            let len = ctx.global_read_bytes(mem, DevPtr(k.string_area.0 + tp), 1)[0] as usize;
            ctx.global_read_bytes(mem, DevPtr(k.string_area.0 + tp + 1), len)
        };
        if key_rem.is_empty() && probe_rem.is_empty() {
            continue; // true match
        }
        ctx.diverge(1 + (key_rem.len().max(probe_rem.len()) / 4) as u64);
        lane_cmp[lane] = match key_rem.cmp(probe_rem) {
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        };
    }
    // Packed reduction: high 32 bits accumulate "#keys < probe", low 16
    // bits keep the minimum matching slot.
    let packed: [u64; 32] = std::array::from_fn(|lane| {
        let less = (lane_cmp[lane] < 0) as u64;
        let eq_slot = if lane_cmp[lane] == 0 { lane as u64 } else { 0xFFFF };
        (less << 32) | eq_slot
    });
    let red = ctx.warp_reduce(packed, |a, b| {
        let less = (a >> 32) + (b >> 32);
        let slot = (a & 0xFFFF).min(b & 0xFFFF);
        (less << 32) | slot
    });
    let slot = (red & 0xFFFF) as usize;
    let pos = (red >> 32) as usize;
    if slot != 0xFFFF {
        Probe::Found(slot)
    } else {
        Probe::NotHere(pos)
    }
}

/// Shift slots `[pos, count)` one to the right in the shared node image —
/// the paper's parallel shift, one warp-wide read + write per field.
fn shift_right(ctx: &mut BlockCtx, base: usize, pos: usize, count: usize) {
    for field in [OFF_CACHE, OFF_TERM_PTR, OFF_POSTINGS] {
        let read_offs: [u32; 32] =
            std::array::from_fn(|i| (base + field + 4 * i.min(MAX_KEYS - 1)) as u32);
        let vals = ctx.shared_read_vec_u32(read_offs);
        // Lane i writes slot i+1 if i in [pos, count), else rewrites its
        // own slot (unconditional writes keep the warp converged). Lane 31
        // parks on the scratch word past the field arrays.
        let mut write_offs = [0u32; 32];
        let mut write_vals = [0u32; 32];
        let park = |lane: usize| (base + PARK_SCRATCH + 4 * lane) as u32;
        for lane in 0..32 {
            if lane >= MAX_KEYS {
                // Lane 31 is masked off (there are only 31 slots).
                write_offs[lane] = park(lane);
                write_vals[lane] = 0;
                continue;
            }
            let dst = if lane >= pos && lane < count { lane + 1 } else { lane };
            debug_assert!(dst < MAX_KEYS, "insert shift stays inside the slot array");
            write_offs[lane] = (base + field + 4 * dst) as u32;
            write_vals[lane] = vals[lane];
        }
        dedup_park(&mut write_offs, base);
        ctx.shared_write_vec_u32(write_offs, write_vals);
    }
}

/// Shared-memory scratch area (relative to a node image base) where
/// masked-off lanes park their writes; sits far past the three node images.
const PARK_SCRATCH: usize = 8192;

/// Ensure warp-write offsets are distinct by parking masked-off lanes on
/// unique scratch words (real hardware simply masks those lanes; the
/// simulator asserts distinctness instead). Public so that
/// `tests/tests/gpusim_accounting.rs` can hold it to the `HashSet` version
/// it replaced.
pub fn dedup_park(offs: &mut [u32; 32], base: usize) {
    let park_base = (base + PARK_SCRATCH + 4 * 64) as u32;
    // A lane parks when an earlier lane came in aiming at the same word,
    // whether or not that lane parked itself.
    let aimed = *offs;
    for lane in 1..32 {
        if aimed[..lane].contains(&aimed[lane]) {
            offs[lane] = park_base + 4 * lane as u32;
        }
    }
}

/// Insert (term, handle) at `pos` of the shared node image.
fn place_key(
    ctx: &mut BlockCtx,
    mem: &mut DeviceMemory,
    k: &KernelPtrs,
    base: usize,
    pos: usize,
    term: &[u8],
    handle: u32,
) {
    let cache = u32::from_le_bytes(BTreeNode::make_cache(term));
    ctx.shared_write_u32(base + OFF_CACHE + 4 * pos, cache);
    let rem_ptr = if term.len() > 4 {
        let rem = &term[4..];
        let off = ctx.global_read_u32(mem, k.ctr_strings);
        assert!(off as usize + 1 + rem.len() <= k.string_capacity as usize,
            "GPU string arena exhausted");
        ctx.global_write_u32(mem, k.ctr_strings, off + 1 + rem.len() as u32);
        let mut buf = [0u8; 1 + MAX_TERM_BYTES];
        buf[0] = rem.len() as u8;
        buf[1..=rem.len()].copy_from_slice(rem);
        ctx.global_write_bytes(mem, DevPtr(k.string_area.0 + off), &buf[..=rem.len()]);
        off
    } else {
        NULL
    };
    ctx.shared_write_u32(base + OFF_TERM_PTR + 4 * pos, rem_ptr);
    ctx.shared_write_u32(base + OFF_POSTINGS + 4 * pos, handle);
    let count = sh_u32(ctx, base, OFF_COUNT);
    sh_set_u32(ctx, base, OFF_COUNT, count + 1);
    ctx.instr(1);
}

/// Split the full child at `child_slot` of the parent in SH_NODE.
/// Loads the child into SH_NODE2, builds the right sibling in SH_NODE3,
/// stores child + sibling, and updates the parent image in place (caller
/// stores the parent).
fn split_child(
    ctx: &mut BlockCtx,
    mem: &mut DeviceMemory,
    k: &KernelPtrs,
    parent_idx: u32,
    child_slot: usize,
) {
    let child_idx = sh_u32(ctx, SH_NODE, OFF_CHILDREN + 4 * child_slot);
    load_node(ctx, mem, k, child_idx, SH_NODE2);
    let right_idx = alloc_node(ctx, mem, k);
    let mid = MAX_KEYS / 2;
    let child_leaf = sh_u32(ctx, SH_NODE2, OFF_LEAF);

    // Build the right sibling in SH_NODE3 with warp-parallel copies.
    ctx.shared_mut()[SH_NODE3..SH_NODE3 + NODE_BYTES]
        .copy_from_slice(&BTreeNode::default().to_bytes());
    ctx.instr(4);
    for field in [OFF_CACHE, OFF_TERM_PTR, OFF_POSTINGS] {
        for i in 0..(MAX_KEYS - mid - 1) {
            let v = sh_u32(ctx, SH_NODE2, field + 4 * (mid + 1 + i));
            sh_set_u32(ctx, SH_NODE3, field + 4 * i, v);
        }
        ctx.instr(1); // one warp op per field (15 lanes active)
        ctx.metrics.shared_accesses += 2;
    }
    if child_leaf == 0 {
        for i in 0..(MAX_KEYS - mid) {
            let v = sh_u32(ctx, SH_NODE2, OFF_CHILDREN + 4 * (mid + 1 + i));
            sh_set_u32(ctx, SH_NODE3, OFF_CHILDREN + 4 * i, v);
        }
        ctx.instr(1);
        ctx.metrics.shared_accesses += 2;
    }
    sh_set_u32(ctx, SH_NODE3, OFF_LEAF, child_leaf);
    sh_set_u32(ctx, SH_NODE3, OFF_COUNT, (MAX_KEYS - mid - 1) as u32);

    // Median key (to move up).
    let med_cache = sh_u32(ctx, SH_NODE2, OFF_CACHE + 4 * mid);
    let med_ptr = sh_u32(ctx, SH_NODE2, OFF_TERM_PTR + 4 * mid);
    let med_post = sh_u32(ctx, SH_NODE2, OFF_POSTINGS + 4 * mid);

    // Truncate the left child (clear upper slots; warp-parallel).
    for field in [OFF_CACHE, OFF_TERM_PTR, OFF_POSTINGS] {
        for i in mid..MAX_KEYS {
            let clear = if field == OFF_CACHE { 0 } else { NULL };
            sh_set_u32(ctx, SH_NODE2, field + 4 * i, clear);
        }
        ctx.instr(1);
        ctx.metrics.shared_accesses += 1;
    }
    if child_leaf == 0 {
        for i in mid + 1..=MAX_KEYS {
            sh_set_u32(ctx, SH_NODE2, OFF_CHILDREN + 4 * i, NULL);
        }
        ctx.instr(1);
        ctx.metrics.shared_accesses += 1;
    }
    sh_set_u32(ctx, SH_NODE2, OFF_COUNT, mid as u32);

    // Store both halves back (coalesced).
    store_node(ctx, mem, k, child_idx, SH_NODE2);
    store_node(ctx, mem, k, right_idx, SH_NODE3);

    // Parent: shift keys/children right from child_slot, insert median.
    let pcount = sh_u32(ctx, SH_NODE, OFF_COUNT) as usize;
    debug_assert!(pcount < MAX_KEYS);
    shift_right(ctx, SH_NODE, child_slot, pcount);
    // Children shift (one extra array).
    for i in (child_slot + 1..=pcount).rev() {
        let v = sh_u32(ctx, SH_NODE, OFF_CHILDREN + 4 * i);
        sh_set_u32(ctx, SH_NODE, OFF_CHILDREN + 4 * (i + 1), v);
    }
    ctx.instr(1);
    ctx.metrics.shared_accesses += 2;
    sh_set_u32(ctx, SH_NODE, OFF_CACHE + 4 * child_slot, med_cache);
    sh_set_u32(ctx, SH_NODE, OFF_TERM_PTR + 4 * child_slot, med_ptr);
    sh_set_u32(ctx, SH_NODE, OFF_POSTINGS + 4 * child_slot, med_post);
    sh_set_u32(ctx, SH_NODE, OFF_CHILDREN + 4 * (child_slot + 1), right_idx);
    sh_set_u32(ctx, SH_NODE, OFF_COUNT, (pcount + 1) as u32);
    ctx.instr(4);
    ctx.metrics.shared_accesses += 5;
    let _ = parent_idx;
}

/// Insert `term` into the collection's B-tree; returns its postings handle.
fn btree_insert(
    ctx: &mut BlockCtx,
    mem: &mut DeviceMemory,
    k: &KernelPtrs,
    root_cell: DevPtr,
    term: &[u8],
) -> u32 {
    let mut root = ctx.global_read_u32(mem, root_cell);
    if root == NULL {
        root = alloc_node(ctx, mem, k);
        write_empty_leaf(ctx, mem, k, root);
        ctx.global_write_u32(mem, root_cell, root);
    }
    // Preemptive root split.
    load_node(ctx, mem, k, root, SH_NODE);
    if sh_u32(ctx, SH_NODE, OFF_COUNT) as usize == MAX_KEYS {
        let new_root = alloc_node(ctx, mem, k);
        // Fresh internal root with the old root as child 0, built in shared.
        let mut fresh = BTreeNode { leaf: 0, ..BTreeNode::default() };
        fresh.children[0] = root;
        ctx.shared_mut()[SH_NODE..SH_NODE + NODE_BYTES].copy_from_slice(&fresh.to_bytes());
        ctx.instr(4);
        split_child(ctx, mem, k, new_root, 0);
        store_node(ctx, mem, k, new_root, SH_NODE);
        ctx.global_write_u32(mem, root_cell, new_root);
        root = new_root;
        load_node(ctx, mem, k, root, SH_NODE);
    }

    let mut node_idx = root;
    loop {
        // Invariant: the current (non-full) node is in SH_NODE.
        match node_probe(ctx, mem, k, SH_NODE, term) {
            Probe::Found(slot) => {
                return sh_u32(ctx, SH_NODE, OFF_POSTINGS + 4 * slot);
            }
            Probe::NotHere(pos) => {
                let leaf = sh_u32(ctx, SH_NODE, OFF_LEAF);
                if leaf != 0 {
                    let count = sh_u32(ctx, SH_NODE, OFF_COUNT) as usize;
                    let handle = ctx.global_read_u32(mem, k.ctr_terms);
                    assert!(handle < k.max_terms, "GPU postings table exhausted");
                    ctx.global_write_u32(mem, k.ctr_terms, handle + 1);
                    shift_right(ctx, SH_NODE, pos, count);
                    place_key(ctx, mem, k, SH_NODE, pos, term, handle);
                    store_node(ctx, mem, k, node_idx, SH_NODE);
                    return handle;
                }
                let child_idx = sh_u32(ctx, SH_NODE, OFF_CHILDREN + 4 * pos);
                load_node(ctx, mem, k, child_idx, SH_NODE2);
                if sh_u32(ctx, SH_NODE2, OFF_COUNT) as usize == MAX_KEYS {
                    split_child(ctx, mem, k, node_idx, pos);
                    store_node(ctx, mem, k, node_idx, SH_NODE);
                    // Re-probe this node: the median moved up into `pos`.
                    continue;
                }
                // Descend: child becomes the current node.
                ctx.shared_mut().copy_within(SH_NODE2..SH_NODE2 + NODE_BYTES, SH_NODE);
                ctx.instr(4);
                node_idx = child_idx;
            }
        }
    }
}

/// On-device postings aggregation: bump tf for a repeat (handle, doc),
/// otherwise retire the previous posting to the log and start a new one.
fn postings_update(
    ctx: &mut BlockCtx,
    mem: &mut DeviceMemory,
    k: &KernelPtrs,
    handle: u32,
    doc: u32,
) {
    let entry = DevPtr(k.table.0 + handle * 8);
    let cur_doc = ctx.global_read_u32(mem, entry);
    if cur_doc == doc {
        let tf = ctx.global_read_u32(mem, entry.add(4));
        ctx.global_write_u32(mem, entry.add(4), tf + 1);
        return;
    }
    if cur_doc != EMPTY_DOC {
        let tf = ctx.global_read_u32(mem, entry.add(4));
        let slot = ctx.global_read_u32(mem, k.ctr_log);
        assert!(slot < k.log_capacity, "GPU postings log exhausted");
        ctx.global_write_u32(mem, k.ctr_log, slot + 1);
        let mut rec = [0u8; 12];
        rec[0..4].copy_from_slice(&handle.to_le_bytes());
        rec[4..8].copy_from_slice(&cur_doc.to_le_bytes());
        rec[8..12].copy_from_slice(&tf.to_le_bytes());
        ctx.global_write_bytes(mem, DevPtr(k.log_area.0 + slot * 12), &rec);
    }
    ctx.global_write_u32(mem, entry, doc);
    ctx.global_write_u32(mem, entry.add(4), 1);
}

/// Stream reader over the Fig 6 term bytes, staging 512 B chunks into
/// shared memory with coalesced loads.
struct ChunkReader {
    bytes_ptr: DevPtr,
    len: u32,
    chunk_base: Option<u32>,
    /// The term [`Self::next_term`] last read.
    term: [u8; MAX_TERM_BYTES],
}

impl ChunkReader {
    fn new(bytes_ptr: DevPtr, len: u32) -> Self {
        ChunkReader { bytes_ptr, len, chunk_base: None, term: [0; MAX_TERM_BYTES] }
    }

    /// Byte at stream offset `off`, staging its chunk if needed.
    fn byte_at(&mut self, ctx: &mut BlockCtx, mem: &DeviceMemory, off: u32) -> u8 {
        let base = off / CHUNK as u32 * CHUNK as u32;
        if self.chunk_base != Some(base) {
            let n = CHUNK.min((self.len - base) as usize);
            ctx.gts(mem, DevPtr(self.bytes_ptr.0 + base), SH_CHUNK, n);
            self.chunk_base = Some(base);
        }
        ctx.shared()[SH_CHUNK + (off - base) as usize]
    }

    /// Read the length-prefixed term at `*pos`, advancing it.
    fn next_term(&mut self, ctx: &mut BlockCtx, mem: &DeviceMemory, pos: &mut u32) -> &[u8] {
        let len = self.byte_at(ctx, mem, *pos) as u32;
        *pos += 1;
        for i in 0..len {
            self.term[i as usize] = self.byte_at(ctx, mem, *pos + i);
        }
        *pos += len;
        // Lanes cooperatively copied the term (len/32-ish steps).
        ctx.instr(1 + len as u64 / 32);
        &self.term[..len as usize]
    }
}

/// The per-trie-collection kernel body.
fn kernel(ctx: &mut BlockCtx, mem: &mut DeviceMemory, k: &KernelPtrs, item: &WorkItem) {
    let root_cell = DevPtr(k.roots.0 + item.trie_index * 4);
    let mut reader = ChunkReader::new(item.bytes_ptr, item.bytes_len);
    for s in 0..item.n_spans {
        // Span record: (doc, byte_start, byte_len, n_terms).
        let rec = ctx.global_read_bytes(mem, DevPtr(item.spans_ptr.0 + s * 16), 16);
        let doc = u32::from_le_bytes(rec[0..4].try_into().unwrap()) + item.doc_offset;
        let byte_start = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        let byte_len = u32::from_le_bytes(rec[8..12].try_into().unwrap());
        let mut pos = byte_start;
        let end = byte_start + byte_len;
        while pos < end {
            let term = reader.next_term(ctx, mem, &mut pos);
            let handle = btree_insert(ctx, mem, k, root_cell, term);
            postings_update(ctx, mem, k, handle, doc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuIndexer;
    use ii_corpus::RawDocument;
    use ii_dict::GlobalDictionary;
    use ii_text::parse_documents;

    fn parse(bodies: &[&str]) -> ii_text::ParsedBatch {
        let docs: Vec<RawDocument> = bodies
            .iter()
            .map(|b| RawDocument { url: String::new(), body: (*b).into() })
            .collect();
        parse_documents(&docs, false, 0)
    }

    fn gpu() -> GpuIndexer {
        GpuIndexer::new(0, GpuIndexerConfig::small())
    }

    #[test]
    fn gpu_indexes_simple_batch() {
        let batch = parse(&["zebra zebra quilt", "zebra"]);
        let mut g = gpu();
        let groups: Vec<&TrieGroup> = batch.groups.iter().collect();
        let rep = g.index_batch(&groups, 0);
        assert!(rep.device_seconds > 0.0);
        assert!(rep.transfer_seconds > 0.0);
        assert_eq!(g.term_count(), 2);
        assert_eq!(g.stats.tokens, 4);
        assert_eq!(g.stats.terms, 2);

        let run = g.flush_run(0, Codec::VarByte);
        // Two terms, each with a non-empty list.
        assert_eq!(run.entries.len(), 2);
        let mut dict = g.into_partial_dictionary();
        let zh = dict.lookup(ii_dict::trie_index("zebra").0, b"ra").unwrap();
        let postings = run.get(zh).unwrap();
        assert_eq!(postings.len(), 2);
        assert_eq!(postings[0].doc, DocId(0));
        assert_eq!(postings[0].tf, 2);
        assert_eq!(postings[1].doc, DocId(1));
    }

    #[test]
    fn gpu_matches_cpu_indexer_exactly() {
        // The decisive correctness test: same parsed batches through the
        // GPU kernel and the CPU indexer must give identical dictionaries
        // and postings.
        let text1 = "the quick brown foxes jumped over the lazy dogs \
                     repeatedly 1999 -80 3d zo\u{e9} numbers 042 042";
        let text2 = "quick zebras examine 042 brown quilts and xylophones \
                     examining examination browns";
        let b0 = parse(&[text1, text2]);
        let b1 = parse(&[text2, text1, "foxes foxes foxes"]);

        let mut cpu = CpuIndexer::new(0);
        let mut g = gpu();
        for (batch, off) in [(&b0, 0u32), (&b1, 100u32)] {
            for grp in &batch.groups {
                cpu.index_group(grp, off);
            }
            let groups: Vec<&TrieGroup> = batch.groups.iter().collect();
            g.index_batch(&groups, off);
        }
        assert_eq!(g.stats, cpu.stats, "workload stats must agree");

        let cpu_run = cpu.flush_run(0, Codec::VarByte);
        let gpu_run = g.flush_run(0, Codec::VarByte);
        let mut gdict = g.into_partial_dictionary();
        let cpu_dict = GlobalDictionary::combine(&[cpu.dict.clone()]);
        let gpu_dict = GlobalDictionary::combine(&[gdict.clone()]);

        // Same term set.
        let cpu_terms: Vec<String> =
            cpu_dict.entries().map(|e| e.full_term()).collect();
        let gpu_terms: Vec<String> =
            gpu_dict.entries().map(|e| e.full_term()).collect();
        assert_eq!(cpu_terms, gpu_terms);

        // Same postings for every term.
        for e in cpu_dict.entries() {
            let ch = e.postings;
            let gh = gdict
                .lookup(e.trie_index, e.suffix)
                .unwrap_or_else(|| panic!("GPU missing {}", e.full_term()));
            let cl = cpu_run.get(ch).unwrap_or_default();
            let gl = gpu_run.get(gh).unwrap_or_default();
            assert_eq!(cl, gl, "postings differ for {}", e.full_term());
        }
    }

    #[test]
    fn gpu_btree_splits_under_volume() {
        // >31 distinct terms in one trie collection forces splits.
        let words: Vec<String> = (0..200).map(|i| format!("zzkey{i:04}")).collect();
        let body = words.join(" ");
        let batch = parse(&[&body]);
        let mut g = gpu();
        let groups: Vec<&TrieGroup> = batch.groups.iter().collect();
        g.index_batch(&groups, 0);
        assert_eq!(g.term_count(), 200);
        assert!(g.node_count() > 1, "splits must allocate nodes");
        // All terms findable after download.
        let mut dict = g.into_partial_dictionary();
        for w in &words {
            let (ti, suffix) = ii_dict::classify(w);
            assert!(dict.lookup(ti.0, suffix.as_bytes()).is_some(), "{w} lost");
        }
    }

    #[test]
    fn postings_survive_run_boundaries() {
        let mut g = gpu();
        let b = parse(&["zebra"]);
        let groups: Vec<&TrieGroup> = b.groups.iter().collect();
        g.index_batch(&groups, 0);
        let r0 = g.flush_run(0, Codec::VarByte);
        g.index_batch(&groups, 50);
        let r1 = g.flush_run(1, Codec::VarByte);
        let h = r0.entries.iter().next().unwrap().handle;
        assert_eq!(r1.entries.iter().next().unwrap().handle, h, "handle stable across runs");
        assert_eq!(r0.get(h).unwrap()[0].doc, DocId(0));
        assert_eq!(r1.get(h).unwrap()[0].doc, DocId(50));
    }

    #[test]
    fn salvaged_log_adopted_by_a_cpu_indexer_flushes_the_uninterrupted_bytes() {
        // Mid-run: the device holds retired records and current postings
        // when the shard moves to the CPU path, which bumps and appends in
        // the adopted log.
        let b0 = parse(&["zebra quilt zebra xylophone", "quilt zebra", "xylophone banana"]);
        let b1 = parse(&["zebra zebra banana", "quilt 954 zebra"]);
        let index = |g: &mut GpuIndexer, batch: &ii_text::ParsedBatch, offset| {
            let groups: Vec<&TrieGroup> = batch.groups.iter().collect();
            g.index_batch(&groups, offset);
        };
        let mut whole = gpu();
        index(&mut whole, &b0, 0);
        index(&mut whole, &b1, 3);
        let want = whole.flush_run(0, Codec::Auto).to_bytes();

        let mut dying = gpu();
        index(&mut dying, &b0, 0);
        let log = dying.salvage_pending_log();
        assert!(!log.is_empty());
        let mut successor = CpuIndexer::adopt(dying.into_partial_dictionary(), log);
        for grp in &b1.groups {
            successor.index_group(grp, 3);
        }
        assert_eq!(successor.flush_run(0, Codec::Auto).to_bytes(), want);
        assert_eq!(successor.pending_postings_bytes(), 0);
    }

    #[test]
    fn kernel_traffic_is_mostly_coalesced() {
        let words: Vec<String> = (0..300).map(|i| format!("zzcoal{i:04}")).collect();
        let body = words.join(" ");
        let batch = parse(&[&body]);
        let mut g = gpu();
        let groups: Vec<&TrieGroup> = batch.groups.iter().collect();
        g.index_batch(&groups, 0);
        let m = g.kernel_metrics;
        assert!(m.global_transactions > 0);
        // Node loads/stores and chunk staging dominate; scalar postings
        // traffic keeps the ratio above 1, but it should stay far from the
        // fully-scattered worst case (16 transactions per segment's worth).
        let ratio = m.transactions_per_segment();
        assert!(ratio < 8.0, "coalescing ratio too poor: {ratio}");
        assert!(m.instructions > 0);
    }
}
