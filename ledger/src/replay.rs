//! The staged replay (`--trace 1`): the build's job and the query path done
//! serially on one thread, with a span around each public call into a
//! layer. Per-layer metrics come from those spans and from counts taken at
//! the same boundaries.
//!
//! The replay must be the same job as the real build: it commits its index
//! through the store and the run fails unless the committed bytes equal the
//! child-process build's, so layer numbers can never describe a different
//! computation.

use crate::build::{
    build_in_child, dir_bytes, fingerprint, verify_against_oracle, BuildJob, ChildReport,
};
use crate::oracle::{Mode, Query};
use crate::run::{check_queries, run_query, Outcome};
use crate::setup::{set_up, Inputs, RunOptions};
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::Recorder;
use crate::workloads::{mix, Scale};
use ii_core::corpus::{compress::decompress, container::parse_container, StoredCollection};
use ii_core::dict::{GlobalDictionary, PartialDictionary};
use ii_core::indexer::IndexerPool;
use ii_core::obs::Registry;
use ii_core::pipeline::{
    run_postings_meta, sample_plan, DocMap, PipelineConfig, DICTIONARY_ARTIFACT, DOCMAP_ARTIFACT,
};
use ii_core::postings::{parse_run_artifact_name, run_artifact_name, RunFile};
use ii_core::store::{ManifestKind, RealVfs, Store, Txn};
use ii_core::text::{parse_documents_into, ParseScratch};
use ii_core::Index;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Root span of the build-side replay.
pub const BUILD_ROOT: &str = "replay.build";
/// Root span of the open-and-query replay.
pub const QUERY_ROOT: &str = "replay.query";

/// Spans that are the build's own work, in dataflow order. Their self
/// times sum to `pipeline.staged_sum_s`. `dict.insert` is not among them:
/// it re-inserts the term stream into a side dictionary to price the
/// dictionary apart from postings accumulation, work the build does once.
pub const BUDGET_SPANS: &[&str] = &[
    "pipeline.sample",
    "indexer.new",
    "corpus.read",
    "corpus.decompress",
    "corpus.container",
    "text.parse",
    "indexer.index",
    "indexer.flush",
    "text.recycle",
    "indexer.finish",
    "dict.combine",
    "dict.write",
    "postings.serialize",
    "store.commit",
];

/// Counts taken at the layer boundaries of the build-side replay.
#[derive(Clone, Debug, Default)]
pub struct BuildCounts {
    /// Bytes read from disk (compressed container files).
    pub compressed_bytes: u64,
    /// Bytes after decompression.
    pub uncompressed_bytes: u64,
    /// Tokens the tokenizer produced.
    pub tokens_seen: u64,
    /// Term occurrences handed to the indexers.
    pub terms_kept: u64,
    /// Terms inserted into the side dictionary that were new.
    pub new_terms: u64,
    /// Term occurrences the CPU indexer consumed.
    pub cpu_tokens: u64,
    /// Term occurrences the simulated GPUs consumed.
    pub gpu_tokens: u64,
    /// Simulated device seconds over all batches and GPUs.
    pub sim_device_s: f64,
    /// Simulated PCIe seconds over all batches and GPUs.
    pub sim_transfer_s: f64,
    /// Grid load-balance quality of each GPU batch.
    pub gpu_utilization: Vec<f64>,
    /// Host seconds inside `index_batch` not spent by CPU indexers: the
    /// simulator interpreting the kernel.
    pub gpu_host_s: f64,
    /// Simulated instructions executed.
    pub gpu_instructions: u64,
    /// Simulated global-memory transactions.
    pub gpu_global_transactions: u64,
    /// Simulated shared-memory bank-conflict cycles.
    pub gpu_bank_conflict_cycles: u64,
    /// Shards whose work panicked during a batch.
    pub panics: u64,
    /// `(doc, tf)` pairs over all runs.
    pub postings: u64,
    /// Bytes of encoded postings over all runs.
    pub payload_bytes: u64,
    /// Bytes of all serialized run files.
    pub run_bytes: u64,
    /// Distinct terms in the combined dictionary.
    pub terms: u64,
    /// Bytes the store wrote for the commit.
    pub store_bytes_written: u64,
}

/// What the staged build produced.
pub struct Staged {
    /// The serialized combined dictionary.
    pub dict_bytes: Vec<u8>,
    /// `(indexer, run id, serialized bytes)` of every run, in flush order.
    pub runs: Vec<(u32, u32, Vec<u8>)>,
    /// Boundary counts.
    pub counts: BuildCounts,
}

/// Do the build's job serially on this thread, per container file, with a
/// span around every public call; commit the result into `commit_dir`.
pub fn staged_build(
    coll: &StoredCollection,
    cfg: &PipelineConfig,
    commit_dir: &Path,
    rec: &mut Recorder,
) -> Result<Staged, String> {
    let mut c = BuildCounts::default();
    let html = coll.manifest.spec.html;
    let root = rec.open(BUILD_ROOT, 0);

    let sampled = rec
        .time("pipeline.sample", 0, || sample_plan(coll, cfg))
        .map_err(|e| e.to_string())?;
    let mut pool = rec.time("indexer.new", 0, || {
        IndexerPool::new(sampled.plan, cfg.gpu_config, cfg.codec)
    });
    let mut scratch = ParseScratch::new();
    let mut side = PartialDictionary::new(0);
    let mut doc_map = DocMap::new();
    let mut runs: Vec<RunFile> = Vec::new();
    let mut batches_in_run = 0usize;

    for f in 0..coll.num_files() {
        let id = f as u64;
        let raw = rec
            .time("corpus.read", id, || coll.read_file_raw(f))
            .map_err(|e| e.to_string())?;
        c.compressed_bytes += raw.len() as u64;
        let (bytes, docs) = {
            let bytes = rec
                .time("corpus.decompress", id, || decompress(&raw))
                .map_err(|e| e.to_string())?;
            let docs = rec
                .time("corpus.container", id, || parse_container(&bytes))
                .map_err(|e| e.to_string())?;
            (bytes, docs)
        };
        c.uncompressed_bytes += bytes.len() as u64;
        let batch = rec.time("text.parse", id, || {
            let batch = parse_documents_into(&mut scratch, &docs, html, f);
            // The parser thread frees its inputs before its next file.
            drop((raw, bytes, docs));
            batch
        });
        c.tokens_seen += batch.stats.tokens;
        c.terms_kept += batch.stats.terms_kept;
        doc_map.push_file(f as u32, batch.num_docs);

        let span = rec.open("indexer.index", id);
        let t0 = Instant::now();
        let timing = pool.index_batch(&batch);
        let wall = t0.elapsed().as_secs_f64();
        rec.close(span);
        c.panics += timing.panics.len() as u64;
        if cfg.num_gpus > 0 {
            c.gpu_host_s +=
                (wall - timing.cpu_seconds.iter().sum::<f64>() - timing.fallback_seconds).max(0.0);
        }
        for g in &timing.gpu {
            c.sim_device_s += g.device_seconds;
            c.sim_transfer_s += g.transfer_seconds;
            c.gpu_utilization.push(g.utilization);
        }

        c.new_terms += rec.time("dict.insert", id, || {
            let mut new = 0u64;
            for group in &batch.groups {
                for (_, term) in group.iter_terms() {
                    new += u64::from(side.insert_term(group.trie_index, term).is_new);
                }
            }
            new
        });

        batches_in_run += 1;
        if batches_in_run >= cfg.batches_per_run {
            runs.extend(rec.time("indexer.flush", id, || pool.flush_run()));
            batches_in_run = 0;
        }
        rec.time("text.recycle", id, || scratch.recycle(batch));
    }
    let last = coll.num_files() as u64;
    if batches_in_run > 0 {
        runs.extend(rec.time("indexer.flush", last, || pool.flush_run()));
    }
    drop(side);

    let (cpu, gpu) = pool.workload_split();
    c.cpu_tokens = cpu.tokens;
    c.gpu_tokens = gpu.tokens;
    for g in &pool.gpus {
        c.gpu_instructions += g.kernel_metrics.instructions;
        c.gpu_global_transactions += g.kernel_metrics.global_transactions;
        c.gpu_bank_conflict_cycles += g.kernel_metrics.bank_conflict_cycles;
    }

    let parts = rec.time("indexer.finish", last, || pool.finish());
    let dictionary = rec.time("dict.combine", last, || GlobalDictionary::combine(&parts));
    c.terms = dictionary.len() as u64;
    let dict_bytes = rec.time("dict.write", last, || {
        let mut bytes = Vec::new();
        dictionary
            .write_to(&mut bytes)
            .expect("writing to a Vec cannot fail");
        bytes
    });

    // The commit, as `Index::save` and the pipeline's final commit stage
    // it: runs in (indexer, run) order, then the doc map, the dictionary
    // last, published by one manifest swap.
    runs.sort_by_key(|r| (r.indexer_id, r.run_id));
    let serialized: Vec<(u32, u32, Vec<u8>)> = rec.time("postings.serialize", last, || {
        runs.iter()
            .map(|r| (r.indexer_id, r.run_id, r.to_bytes()))
            .collect()
    });
    for (run, (_, _, bytes)) in runs.iter().zip(&serialized) {
        c.postings += run
            .entries
            .iter()
            .map(|e| u64::from(e.n_postings))
            .sum::<u64>();
        c.payload_bytes += run.payload.len() as u64;
        c.run_bytes += bytes.len() as u64;
    }
    let registry = Arc::new(Registry::new());
    rec.time("store.commit", last, || -> Result<(), String> {
        let e = |e: ii_core::store::StoreError| e.to_string();
        let mut txn = Txn::begin(commit_dir, &RealVfs)
            .map_err(e)?
            .with_registry(Arc::clone(&registry));
        for (run, (indexer, run_id, bytes)) in runs.iter().zip(&serialized) {
            txn.put_with_meta(
                &run_artifact_name(*indexer, *run_id),
                bytes,
                Some(run_postings_meta(run)),
            )
            .map_err(e)?;
        }
        let mut dm = Vec::new();
        doc_map
            .write_to(&mut dm)
            .expect("writing to a Vec cannot fail");
        txn.put(DOCMAP_ARTIFACT, &dm).map_err(e)?;
        txn.put(DICTIONARY_ARTIFACT, &dict_bytes).map_err(e)?;
        txn.commit(ManifestKind::Index).map_err(e)?;
        Ok(())
    })?;
    c.store_bytes_written = registry.counter("store.bytes_written").get();
    // Free the build's structures inside the root span but outside every
    // budget span, as the real build frees them after its wall is taken.
    drop((runs, parts, dictionary, doc_map, scratch));
    rec.close(root);
    Ok(Staged {
        dict_bytes,
        runs: serialized,
        counts: c,
    })
}

/// Counts and timings of the open-and-query replay.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Dictionary lookups per pass.
    pub lookups: u64,
    /// Postings scanned per pass by the full-list scans.
    pub scanned: u64,
    /// Cursors opened per pass by the full-list scans.
    pub cursors: u64,
    /// Seconds per pass inside `RunSet::cursor` (median of passes).
    pub cursor_setup_s: f64,
    /// Seconds per pass iterating the cursors to their ends (median).
    pub scan_iterate_s: f64,
    /// Hits returned per pass.
    pub hits: u64,
    /// Passes made.
    pub passes: u64,
    /// `query.postings_scanned` over all passes.
    pub postings_scanned: u64,
    /// `query.blocks_decoded` over all passes.
    pub blocks_decoded: u64,
    /// `query.blocks_skipped` over all passes.
    pub blocks_skipped: u64,
    /// Per query, the median latency in microseconds over the passes.
    pub latency_us: Vec<f64>,
}

/// Replay the read side on a committed directory: store verification, the
/// decoders `Index::open` runs, then per pass the dictionary lookups, full
/// list scans and the query set itself.
pub fn staged_queries(
    index_dir: &Path,
    queries: &[Query],
    passes: usize,
    rec: &mut Recorder,
) -> Result<QueryStats, String> {
    let mut s = QueryStats {
        passes: passes as u64,
        ..Default::default()
    };
    let root = rec.open(QUERY_ROOT, 0);
    for rep in 0..3u64 {
        let artifacts = rec.time(
            "store.open_verify",
            rep,
            || -> Result<Vec<(String, Vec<u8>)>, String> {
                let store = Store::open(index_dir).map_err(|e| e.to_string())?;
                let names: Vec<String> = store.manifest().names().map(str::to_string).collect();
                names
                    .into_iter()
                    .map(|n| store.read(&n).map(|b| (n, b)).map_err(|e| e.to_string()))
                    .collect()
            },
        )?;
        let dict_bytes = &artifacts
            .iter()
            .find(|(n, _)| n == DICTIONARY_ARTIFACT)
            .ok_or("committed index has no dictionary")?
            .1;
        let dict = rec
            .time("dict.read", rep, || {
                GlobalDictionary::read_from(&mut dict_bytes.as_slice())
            })
            .map_err(|e| e.to_string())?;
        let runs = rec.time(
            "postings.parse_runs",
            rep,
            || -> Result<Vec<RunFile>, String> {
                artifacts
                    .iter()
                    .filter(|(n, _)| parse_run_artifact_name(n).is_some())
                    .map(|(_, b)| RunFile::from_bytes(b).map_err(|e| e.to_string()))
                    .collect()
            },
        )?;
        rec.time("replay.drop", rep, || drop((dict, runs, artifacts)));
    }
    let mut idx = None;
    for rep in 0..3u64 {
        rec.time("replay.drop", rep, || drop(idx.take()));
        idx = Some(
            rec.time("core.open", rep, || Index::open(index_dir))
                .map_err(|e| e.to_string())?,
        );
    }
    let idx = idx.expect("opened three times");

    let mut latency = vec![Vec::with_capacity(passes); queries.len()];
    let (mut setup_s, mut iterate_s) = (Vec::new(), Vec::new());
    for pass in 0..passes as u64 {
        s.lookups = rec.time("dict.lookup", pass, || {
            let mut found = 0u64;
            for q in queries {
                for term in q.text.split(' ') {
                    found += u64::from(black_box(idx.dictionary.lookup(black_box(term))).is_some());
                }
            }
            found
        });
        // One span per pass; inside it cursor set-up and iteration are
        // timed apart, because on short lists set-up is the whole cost.
        let (scanned, cursors, setup, iterate) = rec.time(
            "postings.scan",
            pass,
            || -> Result<(u64, u64, Duration, Duration), String> {
                let (mut n, mut cursors) = (0u64, 0u64);
                let (mut setup, mut iterate) = (Duration::ZERO, Duration::ZERO);
                for q in queries {
                    for term in q.text.split(' ') {
                        let Some(e) = idx.dictionary.lookup(term) else {
                            continue;
                        };
                        let Some(set) = idx.run_sets.get(&e.indexer) else {
                            continue;
                        };
                        let t0 = Instant::now();
                        let cursor = set.cursor(e.postings).map_err(|e| e.to_string())?;
                        let t1 = Instant::now();
                        let Some(mut cursor) = cursor else { continue };
                        while let Some(p) = cursor.next().map_err(|e| e.to_string())? {
                            black_box(p);
                            n += 1;
                        }
                        setup += t1 - t0;
                        iterate += t1.elapsed();
                        cursors += 1;
                    }
                }
                Ok((n, cursors, setup, iterate))
            },
        )?;
        s.scanned = scanned;
        s.cursors = cursors;
        setup_s.push(setup.as_secs_f64());
        iterate_s.push(iterate.as_secs_f64());
        s.hits = rec.time("core.query", pass, || {
            let mut hits = 0u64;
            for (q, lat) in queries.iter().zip(&mut latency) {
                let t0 = Instant::now();
                hits += black_box(run_query(&idx, black_box(q))) as u64;
                lat.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            hits
        });
    }
    s.postings_scanned = idx.obs.counter("query.postings_scanned").get();
    s.blocks_decoded = idx.obs.counter("query.blocks_decoded").get();
    s.blocks_skipped = idx.obs.counter("query.blocks_skipped").get();
    s.latency_us = latency.iter().map(|l| median(l)).collect();
    s.cursor_setup_s = median(&setup_s);
    s.scan_iterate_s = median(&iterate_s);
    rec.time("replay.drop", 0, || drop(idx));
    rec.close(root);
    Ok(s)
}

/// Child-process builds of the traced run: durable, in-memory and durable
/// with the product's event tracing on, round-robin.
struct ChildBuilds {
    durable: Vec<ChildReport>,
    memory: Vec<ChildReport>,
    traced: Vec<ChildReport>,
}

fn child_builds(
    opts: &RunOptions,
    inputs: &Inputs,
    budget_s: f64,
    min_rounds: usize,
    index_dir: &Path,
    out: &mut Outcome,
) -> ChildBuilds {
    let (mut durable, mut memory, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let scratch_dir = opts.work.join("index-traced");
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < budget_s {
        rounds += 1;
        for (index, trace, reports) in [
            (Some(index_dir), false, &mut durable),
            (None, false, &mut memory),
            (Some(scratch_dir.as_path()), true, &mut traced),
        ] {
            if let Some(dir) = index {
                let _ = fs::remove_dir_all(dir);
            }
            let job = BuildJob {
                collection: inputs.collection_dir.clone(),
                index: index.map(Path::to_path_buf),
                gpus: opts.workload.gpus,
                scale: opts.scale,
                traced: trace,
            };
            out.attempted += 1;
            match build_in_child(&opts.exe, &job) {
                Ok(r) if r.clean => reports.push(r),
                Ok(r) => out.fail(format!("build was not clean: {}", r.detail)),
                Err(e) => out.fail(e),
            }
        }
    }
    let _ = fs::remove_dir_all(&scratch_dir);
    ChildBuilds {
        durable,
        memory,
        traced,
    }
}

fn median_of(reports: &[ChildReport], f: impl Fn(&ChildReport) -> f64) -> f64 {
    median(&reports.iter().map(f).collect::<Vec<_>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run one workload's staged replay and report every per-layer metric.
/// Writes the spans to `trace_path`.
pub fn run_traced(opts: &RunOptions, trace_path: &Path) -> Result<Outcome, String> {
    let tiny = opts.scale == Scale::Tiny;
    let mut out = Outcome::default();
    let inputs = set_up(opts, 1, None).map_err(|e| format!("set-up: {e}"))?;
    let cfg = opts.workload.pipeline_config(opts.scale);
    let (mb, mtok) = (inputs.mb(), inputs.mtok());

    // The real builds, for the numbers only a real build has: its wall
    // with and without durability and tracing, queue waits, RSS.
    let index_dir = opts.work.join("index-durable");
    let builds = child_builds(
        opts,
        &inputs,
        opts.seconds * 0.5,
        if tiny { 1 } else { 2 },
        &index_dir,
        &mut out,
    );
    if builds.durable.is_empty() || builds.memory.is_empty() || builds.traced.is_empty() {
        return Err(format!("child builds failed: {}", out.problems.join(" | ")));
    }
    let sample = inputs.oracle.sample_terms(1_000, mix(opts.seed, 0x5A));
    let problems = verify_against_oracle(&index_dir, &inputs.oracle, &sample);
    if !problems.is_empty() {
        out.fail(format!("durable build: {}", problems.join("; ")));
    }

    // The same job, staged.
    let mut rec = Recorder::new();
    let replay_dir = opts.work.join("index-replay");
    out.attempted += 1;
    let staged = staged_build(&inputs.collection, &cfg, &replay_dir, &mut rec)?;
    if fingerprint(&replay_dir)? != fingerprint(&index_dir)? {
        out.fail("the staged replay committed different bytes than build_index_durable".into());
    }
    let index_bytes = dir_bytes(&index_dir);
    let passes = if tiny { 2 } else { 3 };
    let q = staged_queries(&replay_dir, &inputs.queries, passes, &mut rec)?;
    let idx = Index::open(&replay_dir).map_err(|e| e.to_string())?;
    check_queries(&idx, &inputs.oracle, &inputs.queries, &mut out);
    drop(idx);

    if let Some(parent) = trace_path.parent() {
        fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    fs::write(trace_path, rec.to_json()).map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let c = &staged.counts;
    let own = rec.self_seconds();
    let sec = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let med = |name: &str| {
        let d: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        median(&d)
    };
    let staged_sum: f64 = BUDGET_SPANS.iter().map(|n| sec(n)).sum();
    let coverage = rec.coverage(BUILD_ROOT);
    if !tiny && coverage < 0.95 {
        out.fail(format!(
            "budget spans cover only {:.1}% of the staged replay's wall",
            coverage * 100.0
        ));
    }
    let durable_s = median_of(&builds.durable, |r| r.wall_s);
    let memory_s = median_of(&builds.memory, |r| r.wall_s);
    let traced_s = median_of(&builds.traced, |r| r.wall_s);
    let hwm_bytes = median_of(&builds.durable, |r| r.vm_hwm_kb as f64 * 1024.0);
    let governed = median_of(&builds.durable, |r| r.governor_high_water_bytes as f64);
    let written = median_of(&builds.durable, |r| r.store_bytes_written as f64);

    let by_mode = |mode: Mode| -> Vec<f64> {
        sorted(
            inputs
                .queries
                .iter()
                .zip(&q.latency_us)
                .filter(|(qq, _)| qq.mode == mode)
                .map(|(_, l)| *l)
                .collect(),
        )
    };
    let (and, or, boolean) = (by_mode(Mode::And), by_mode(Mode::Or), by_mode(Mode::Bool));
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            percentile(v, 0.5)
        }
    };
    let p99 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            tail(v, 0.99).value
        }
    };
    let n_queries = inputs.queries.len() as f64;
    let query_s = med("core.query");

    out.metrics = vec![
        ("corpus.read_s", sec("corpus.read")),
        ("corpus.decompress_s", sec("corpus.decompress")),
        (
            "corpus.decompress_mb_s",
            ratio(mb, sec("corpus.decompress")),
        ),
        ("corpus.container_s", sec("corpus.container")),
        (
            "corpus.compressed_share",
            ratio(c.compressed_bytes as f64, c.uncompressed_bytes as f64),
        ),
        ("text.parse_s", sec("text.parse")),
        ("text.parse_mb_s", ratio(mb, sec("text.parse"))),
        ("text.parse_mtok_s", ratio(mtok, sec("text.parse"))),
        (
            "text.kept_token_share",
            ratio(c.terms_kept as f64, c.tokens_seen as f64),
        ),
        ("dict.insert_s", sec("dict.insert")),
        ("dict.insert_mtok_s", ratio(mtok, sec("dict.insert"))),
        (
            "dict.new_term_share",
            ratio(c.new_terms as f64, c.terms_kept as f64),
        ),
        ("dict.combine_s", sec("dict.combine")),
        ("dict.write_s", sec("dict.write")),
        (
            "dict.bytes_per_term",
            ratio(staged.dict_bytes.len() as f64, c.terms as f64),
        ),
        ("dict.read_s", med("dict.read")),
        (
            "dict.lookup_ns",
            ratio(med("dict.lookup") * 1e9, q.lookups as f64),
        ),
        ("indexer.index_s", sec("indexer.index")),
        ("indexer.index_mtok_s", ratio(mtok, sec("indexer.index"))),
        ("indexer.flush_s", sec("indexer.flush")),
        (
            "indexer.gpu_token_share",
            ratio(c.gpu_tokens as f64, (c.cpu_tokens + c.gpu_tokens) as f64),
        ),
        (
            "indexer.gpu_utilization",
            if c.gpu_utilization.is_empty() {
                0.0
            } else {
                c.gpu_utilization.iter().sum::<f64>() / c.gpu_utilization.len() as f64
            },
        ),
        ("indexer.worker_deaths", c.panics as f64),
        ("gpusim.device_s", c.sim_device_s),
        ("gpusim.transfer_s", c.sim_transfer_s),
        ("gpusim.instructions", c.gpu_instructions as f64),
        (
            "gpusim.global_transactions",
            c.gpu_global_transactions as f64,
        ),
        (
            "gpusim.bank_conflict_cycles",
            c.gpu_bank_conflict_cycles as f64,
        ),
        (
            "gpusim.host_ns_per_instruction",
            ratio(c.gpu_host_s * 1e9, c.gpu_instructions as f64),
        ),
        ("gpusim.host_share", ratio(c.gpu_host_s, staged_sum)),
        (
            "postings.encode_mpost_s",
            ratio(c.postings as f64 / 1e6, sec("indexer.flush")),
        ),
        (
            "postings.payload_bytes_per_posting",
            ratio(c.payload_bytes as f64, c.postings as f64),
        ),
        (
            "postings.table_share",
            ratio((c.run_bytes - c.payload_bytes) as f64, c.run_bytes as f64),
        ),
        ("postings.serialize_s", sec("postings.serialize")),
        ("postings.parse_runs_s", med("postings.parse_runs")),
        (
            "postings.cursor_setup_ns",
            ratio(q.cursor_setup_s * 1e9, q.cursors as f64),
        ),
        (
            "postings.scan_mpost_s",
            ratio(q.scanned as f64 / 1e6, q.scan_iterate_s),
        ),
        ("postings.scan_share", ratio(q.scan_iterate_s, query_s)),
        (
            "postings.blocks_decoded_share",
            ratio(
                q.blocks_decoded as f64,
                (q.blocks_decoded + q.blocks_skipped) as f64,
            ),
        ),
        ("store.commit_s", sec("store.commit")),
        ("store.bytes_written", written),
        (
            "store.write_amplification",
            ratio(written, index_bytes as f64),
        ),
        ("store.open_verify_s", med("store.open_verify")),
        ("pipeline.sample_s", sec("pipeline.sample")),
        ("pipeline.mem_build_s", memory_s),
        ("pipeline.durable_build_s", durable_s),
        (
            "pipeline.durable_overhead_share",
            ratio(durable_s - memory_s, durable_s),
        ),
        ("pipeline.staged_sum_s", staged_sum),
        ("pipeline.coordination_ratio", ratio(durable_s, staged_sum)),
        ("pipeline.replay_coverage", coverage),
        (
            "pipeline.parser_queue_wait_s",
            median_of(&builds.durable, |r| r.parser_queue_wait_s),
        ),
        (
            "pipeline.indexer_queue_wait_s",
            median_of(&builds.durable, |r| r.indexer_queue_wait_s),
        ),
        ("pipeline.governor_high_water_mb", governed / 1e6),
        ("pipeline.rss_per_governed_byte", ratio(hwm_bytes, governed)),
        ("core.open_s", med("core.open")),
        ("core.and_p50_us", p50(&and)),
        ("core.or_p50_us", p50(&or)),
        ("core.bool_p50_us", p50(&boolean)),
        ("core.and_p99_us", p99(&and)),
        ("core.or_p99_us", p99(&or)),
        ("core.hits_per_query", q.hits as f64 / n_queries),
        (
            "core.postings_scanned_per_query",
            q.postings_scanned as f64 / (n_queries * q.passes as f64),
        ),
        (
            "obs.trace_overhead_share",
            ratio(traced_s - durable_s, durable_s),
        ),
    ];
    out.notes = vec![
        format!(
            "collection: {mb:.2} MB uncompressed, {} docs, {} tokens, {} terms",
            inputs.oracle.docs(),
            inputs.collection.manifest.stats.tokens,
            c.terms
        ),
        format!(
            "child builds: {} durable, {} in-memory, {} traced; replay: 1 staged build, {} query passes of {}",
            builds.durable.len(),
            builds.memory.len(),
            builds.traced.len(),
            q.passes,
            inputs.queries.len()
        ),
        format!(
            "tail percentiles reported: AND p{} (n={}), OR p{} (n={})",
            if and.is_empty() { 0.0 } else { tail(&and, 0.99).p * 100.0 },
            and.len(),
            if or.is_empty() { 0.0 } else { tail(&or, 0.99).p * 100.0 },
            or.len()
        ),
        "gpusim.* are simulated by the gpusim cost model, which is not validated against hardware; host and simulated time are never added".to_string(),
        format!("spans written to {}", trace_path.display()),
    ];
    Ok(out)
}
