//! Consumer help: the in-order consumer ingests unstarted files itself while
//! the batch it needs is not queued yet (DESIGN.md §5).
//!
//! The contract under test: who parsed a file never shows in the output.
//! Help is forced with sub-timeout `Stall`s that put every parser thread to
//! sleep holding a file it claimed — the consumer, waiting for the first of
//! them, takes the files behind them — and the build must be
//! byte-identical to one in which the consumer never had the chance,
//! under every mode that leans on file order: CPU-only and heterogeneous
//! indexing, checkpoints with kill and resume, a binding memory budget,
//! fail-fast and skip on a file the consumer ingested, and a parser that
//! dies while the consumer holds a parked batch.

use ii_core::corpus::{CollectionSpec, FaultKind, FaultPlan, StoredCollection};
use ii_core::obs::TraceKind;
use ii_core::pipeline::{
    build_index, build_index_durable, DurableOptions, FaultPolicy, GovernorPolicy, IndexOutput,
    PipelineConfig, PipelineError, WorkerClass,
};
use ii_core::store::{crc32, CrashMode, CrashVfs, Store};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const FILES: usize = 8;
/// Long enough for the consumer to ingest two of these files many times
/// over, far below the 30 s watchdog: a hiccup, not a death.
const NAP: Duration = Duration::from_millis(150);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ii-consumer-help-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stored(tag: &str) -> (Arc<StoredCollection>, PathBuf) {
    let dir = scratch(tag);
    let spec = CollectionSpec {
        name: "consumer-help".into(),
        num_files: FILES,
        docs_per_file: 12,
        mean_doc_tokens: 60,
        vocab_size: 800,
        zipf_s: 1.0,
        html: false,
        seed: 2209,
        shift: None,
    };
    (Arc::new(StoredCollection::generate(spec, &dir).unwrap()), dir)
}

/// A build whose consumer is never idle: the one CPU indexer naps on every
/// batch, so the parsers stay ahead and the queue is never empty once the
/// first batch is in.
fn unhelped(mut cfg: PipelineConfig) -> PipelineConfig {
    for batch in 0..FILES {
        cfg.worker_faults = cfg.worker_faults.stall(
            WorkerClass::CpuIndexer,
            0,
            batch,
            Duration::from_millis(5),
        );
    }
    cfg
}

/// A build whose parser threads nap holding files `file..file + parsers`,
/// one each (a napping thread claims nothing more, and the consumer never
/// takes a file a parser fault is scheduled on): the consumer, waiting for
/// `file`, ingests what lies behind them.
fn helped_at(mut cfg: PipelineConfig, file: usize) -> PipelineConfig {
    for nap in file..file + cfg.num_parsers {
        cfg.worker_faults = cfg.worker_faults.stall(WorkerClass::Parser, 0, nap, NAP);
    }
    cfg
}

fn helped_files(out: &IndexOutput) -> u64 {
    out.report.stages.counter("pipeline.helped_files")
}

/// Files the trace shows the consumer ingesting while it waited.
fn help_spans(out: &IndexOutput) -> Vec<(u32, u64)> {
    let trace = out.report.trace.as_ref().expect("traced build");
    let driver = trace.workers.iter().find(|w| w.name == "driver").expect("driver timeline");
    driver
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Help)
        .map(|e| (e.batch_id, e.bytes))
        .collect()
}

/// (dictionary bytes, sorted sealed-run encodings, doc-map bytes).
type Fp = (Vec<u8>, Vec<(u32, u32, Vec<u8>)>, Vec<u8>);

fn fingerprint(out: &IndexOutput) -> Fp {
    let mut runs: Vec<(u32, u32, Vec<u8>)> = out
        .run_sets
        .iter()
        .flat_map(|(id, rs)| rs.runs().iter().map(|r| (*id, r.run_id, r.to_bytes())))
        .collect();
    runs.sort();
    let mut dm = Vec::new();
    out.doc_map.write_to(&mut dm).unwrap();
    (out.dict_bytes.clone(), runs, dm)
}

/// Logical artifact name -> (length, crc32) of a committed directory.
fn committed(dir: &Path) -> BTreeMap<String, (usize, u32)> {
    let store = Store::open(dir).expect("committed store");
    store
        .manifest()
        .names()
        .map(|n| {
            let bytes = store.read(n).expect("verified artifact");
            (n.to_string(), (bytes.len(), crc32(&bytes)))
        })
        .collect()
}

#[test]
fn help_at_the_first_middle_and_last_file_is_byte_identical() {
    let (coll, dir) = stored("positions");
    for (parsers, cpus, gpus) in [(1usize, 1usize, 0usize), (2, 1, 1)] {
        let mut cfg = PipelineConfig::small(parsers, cpus, gpus);
        cfg.trace.enabled = true;
        let base = build_index(&coll, &unhelped(cfg.clone())).expect("unhelped build");
        assert_eq!(helped_files(&base), 0, "{parsers}/{cpus}/{gpus}: baseline was helped");
        assert!(help_spans(&base).is_empty());
        let want = fingerprint(&base);
        // Nothing is taken before the first delivery (file 0), so the
        // first naps start at file 1. Then mid-build, and the last naps
        // that leave an unclaimed file behind them.
        let last = FILES - 1 - parsers;
        for nap_at in [1, FILES / 2, last] {
            let out = build_index(&coll, &helped_at(cfg.clone(), nap_at)).expect("helped build");
            let ctx = format!("{parsers}/{cpus}/{gpus}, nap at {nap_at}");
            assert_eq!(fingerprint(&out), want, "{ctx}: index bytes moved");
            assert!(out.report.supervision.is_clean(), "{ctx}: help is not degradation");
            let spans = help_spans(&out);
            assert!(!spans.is_empty(), "{ctx}: the consumer never helped");
            assert_eq!(helped_files(&out), spans.len() as u64, "{ctx}");
            for (file, bytes) in &spans {
                assert_eq!(
                    *bytes,
                    coll.manifest.file_uncompressed_bytes[*file as usize],
                    "{ctx}: help span of file {file}"
                );
            }
            // Later naps may find the files behind them already taken (a
            // test-sized file parses about as fast as it indexes, so the
            // consumer helps unprompted too); the first one cannot.
            if nap_at == 1 {
                let first = (nap_at + parsers) as u32;
                assert_eq!(spans[0].0, first, "{ctx}: the lowest free file goes first: {spans:?}");
            }
            // Every file was read, decompressed and parsed exactly once,
            // the consumer's share included: these stages are what the
            // report's parser-busy time is read from.
            let stage = |name: &str| out.report.stages.stage(name).unwrap();
            for name in ["read", "decompress", "parse"] {
                assert_eq!(stage(name).items, FILES as u64, "{ctx}: {name}");
            }
            assert_eq!(stage("parse").bytes, coll.manifest.stats.uncompressed_bytes, "{ctx}");
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn help_across_kill_and_resume_is_byte_identical() {
    let (coll, coll_dir) = stored("resume");
    let cfg = PipelineConfig::small(1, 1, 0);
    let base_dir = scratch("resume-base");
    build_index_durable(
        &coll,
        &unhelped(cfg.clone()),
        &DurableOptions::new(&base_dir).checkpoint_every(1),
    )
    .expect("unhelped durable build");
    let want = committed(&base_dir);

    // Naps all along the build: wherever a resume starts, one lies ahead.
    let mut napping = cfg.clone();
    for file in (1..FILES).step_by(2) {
        napping = helped_at(napping, file);
    }
    let probe_dir = scratch("resume-probe");
    let probe = CrashVfs::probe();
    let opts = DurableOptions::new(&probe_dir).checkpoint_every(1).with_vfs(&probe);
    let out = build_index_durable(&coll, &napping, &opts).expect("probe build");
    assert!(helped_files(&out) >= 1);
    assert_eq!(committed(&probe_dir), want, "helped durable build");
    let total = probe.ops();

    // A resume claims from its checkpoint's `files_done` on; the early
    // kills leave most of the build, naps included, to the resumed run.
    let mut helped_after_resume = 0;
    for k in [total / 8, total / 4, total / 2, total * 3 / 4] {
        let dir = scratch("resume-hit");
        let crash = CrashVfs::new(k, CrashMode::PowerLoss, 0xC0FFEE ^ k);
        let opts = DurableOptions::new(&dir).checkpoint_every(1).with_vfs(&crash);
        assert!(build_index_durable(&coll, &napping, &opts).is_err(), "op {k}/{total}");
        let opts = DurableOptions::new(&dir).checkpoint_every(1).resume(true);
        let out = build_index_durable(&coll, &napping, &opts)
            .unwrap_or_else(|e| panic!("op {k}/{total}: resume failed: {e}"));
        helped_after_resume += helped_files(&out);
        assert_eq!(committed(&dir), want, "op {k}/{total}: resumed index differs");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(helped_after_resume >= 1, "no resumed build was ever helped");
    for d in [coll_dir, base_dir, probe_dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn help_under_a_binding_budget_neither_deadlocks_nor_moves_a_byte() {
    let (coll, dir) = stored("budget");
    let mut cfg = PipelineConfig::small(1, 1, 0);
    cfg.governor = GovernorPolicy::unlimited();
    let free = build_index(&coll, &unhelped(cfg.clone())).expect("unlimited build");
    let high_water = free.report.stages.gauge("governor.high_water_bytes") as u64;
    // From roomy down to a quarter of what the build wants: the gate (a
    // quarter of the budget) goes from several files to less than one, so
    // the helper is admitted, then refused; early flushes move run
    // boundaries with the budget, never with who parsed.
    for budget in [high_water * 2, high_water, high_water / 2, high_water / 4] {
        cfg.governor = GovernorPolicy::default().with_budget(budget);
        let base = build_index(&coll, &unhelped(cfg.clone()));
        let out = build_index(&coll, &helped_at(cfg.clone(), FILES / 2));
        match (base, out) {
            (Ok(base), Ok(out)) => {
                assert_eq!(fingerprint(&out), fingerprint(&base), "budget {budget}");
                assert_eq!(
                    out.report.stages.counter("governor.early_flushes"),
                    base.report.stages.counter("governor.early_flushes"),
                    "budget {budget}"
                );
            }
            (
                Err(PipelineError::MemoryBudgetExceeded { needed: a, .. }),
                Err(PipelineError::MemoryBudgetExceeded { needed: b, .. }),
            ) => assert_eq!(a, b, "budget {budget}: refusals differ"),
            (base, out) => panic!(
                "budget {budget}: unhelped {:?}, helped {:?}",
                base.map(|_| ()),
                out.map(|_| ())
            ),
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_faulty_file_the_consumer_ingested_fails_fast_or_is_skipped_in_its_slot() {
    let (_, dir) = stored("faulty");
    // The parser sleeps holding file 1, the first file the consumer waits
    // for with leave to help: it takes 2 — the bad one — and 3.
    let nap_at = 1;
    let bad = nap_at + 1;
    let coll = Arc::new(
        StoredCollection::open(&dir)
            .unwrap()
            .with_faults(FaultPlan::new(7).with_fault(bad, FaultKind::Garbage)),
    );
    let mut cfg = PipelineConfig::small(1, 1, 0);
    cfg.trace.enabled = true;

    cfg.fault_policy = FaultPolicy::skip_file();
    let base = build_index(&coll, &unhelped(cfg.clone())).expect("skip, parser ingests");
    let out = build_index(&coll, &helped_at(cfg.clone(), nap_at)).expect("skip, helped");
    assert!(help_spans(&out).iter().any(|(file, _)| *file as usize == bad));
    assert_eq!(fingerprint(&out), fingerprint(&base));
    let quarantined: Vec<usize> =
        out.report.faults.quarantined.iter().map(|f| f.file_idx).collect();
    assert_eq!(quarantined, [bad]);
    assert_eq!(out.report.docs, base.report.docs);

    cfg.fault_policy = FaultPolicy::default();
    match build_index(&coll, &helped_at(cfg, nap_at)) {
        Err(PipelineError::File(fault)) => assert_eq!(fault.file_idx, bad),
        other => panic!("expected the file fault, got {:?}", other.map(|_| ())),
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_parser_killed_behind_a_parked_batch_is_buried_and_its_files_reingested() {
    let (coll, dir) = stored("parked-kill");
    let cfg = PipelineConfig::small(1, 1, 0);
    let base = build_index(&coll, &unhelped(cfg.clone())).expect("unhelped build");

    // The parser naps holding file 1; the consumer, fed file 0, takes 2
    // and 3. Awake, the parser delivers 1 and claims 4, where its kill is
    // scheduled (the consumer never takes that file): it dies with two
    // batches parked, is buried when the consumer reaches 4, and with no
    // parser left files 4.. are re-ingested inline.
    let mut chaos = helped_at(cfg, 1);
    chaos.worker_faults = chaos.worker_faults.kill(WorkerClass::Parser, 0, 4);
    let out = build_index(&coll, &chaos).expect("degraded build");
    assert_eq!(fingerprint(&out), fingerprint(&base));
    let sup = &out.report.supervision;
    assert_eq!(sup.deaths_of(WorkerClass::Parser), 1, "{}", sup.summary());
    assert_eq!(helped_files(&out), 2, "files 2 and 3, taken while the parser lived");
    assert_eq!(sup.inline_parsed_files, (FILES - 4) as u32, "{}", sup.summary());
    std::fs::remove_dir_all(dir).unwrap();
}
