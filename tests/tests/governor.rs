//! Memory-governor chaos: OOM pressure as a first-class fault class.
//!
//! The contract under test (DESIGN.md §13): a build under any memory
//! budget, squeezed mid-flight or not, with or without concurrent worker
//! deaths, ends in exactly one of two ways — a *logically identical*
//! index (same dictionary bytes, same term → (doc, tf) postings, same doc
//! map; only physical run boundaries may move), or a typed
//! `MemoryBudgetExceeded` refusal. Never a panic, never divergent output,
//! and the same cell always ends the same way (degradation is
//! deterministic: it keys on content-derived resident bytes probed at
//! batch boundaries, not on thread timing).

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::pipeline::{
    build_index, build_index_durable, DurableOptions, GovernorPolicy, IndexOutput,
    PipelineConfig, PipelineError, WorkerClass, WorkerFaultPlan,
};
use ii_core::store::{CrashVfs, Store, StoreError};
use ii_core::Index;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn spec(seed: u64) -> CollectionSpec {
    CollectionSpec {
        name: format!("governor-{seed}"),
        num_files: 8,
        docs_per_file: 12,
        mean_doc_tokens: 60,
        vocab_size: 800,
        zipf_s: 1.0,
        html: false,
        seed,
        shift: None,
    }
}

fn stored(tag: &str, seed: u64) -> (Arc<StoredCollection>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ii-governor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = StoredCollection::generate(spec(seed), &dir).unwrap();
    (Arc::new(s), dir)
}

fn base_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::small(2, 1, 1);
    cfg.batches_per_run = 2;
    cfg.governor = GovernorPolicy::unlimited();
    cfg
}

/// Term -> sorted (docID, tf) postings: the logical index.
fn fingerprint(out: &IndexOutput) -> BTreeMap<String, Vec<(u32, u32)>> {
    out.dictionary
        .entries()
        .map(|e| {
            let l = out.run_sets[&e.indexer].fetch(e.postings).unwrap();
            (e.full_term(), l.postings().iter().map(|p| (p.doc.0, p.tf)).collect())
        })
        .collect()
}

fn docmap_bytes(out: &IndexOutput) -> Vec<u8> {
    let mut dm = Vec::new();
    out.doc_map.write_to(&mut dm).unwrap();
    dm
}

/// Dictionary bytes, sorted (shard, run, encoded-run bytes), doc map.
type PhysicalFingerprint = (Vec<u8>, Vec<(u32, u32, Vec<u8>)>, Vec<u8>);

/// Every physical byte: dictionary, each run's encoding, the doc map.
/// Differs across budgets (run boundaries move); must NOT differ across
/// reruns of the same budget.
fn physical_fingerprint(out: &IndexOutput) -> PhysicalFingerprint {
    let mut runs: Vec<(u32, u32, Vec<u8>)> = out
        .run_sets
        .iter()
        .flat_map(|(id, rs)| rs.runs().iter().map(|r| (*id, r.run_id, r.to_bytes())))
        .collect();
    runs.sort();
    (out.dict_bytes.clone(), runs, docmap_bytes(out))
}

fn high_water(out: &IndexOutput) -> u64 {
    out.report.stages.gauge("governor.high_water_bytes") as u64
}

/// Budgets × squeeze schedules × a GPU kill, every cell against the
/// unconstrained baseline.
#[test]
fn budget_matrix_yields_identical_index_or_typed_refusal() {
    let (coll, dir) = stored("matrix", 901);
    let cfg = base_cfg();
    let baseline = build_index(&coll, &cfg).expect("unlimited baseline");
    let want = fingerprint(&baseline);
    let want_docmap = docmap_bytes(&baseline);
    let hw = high_water(&baseline);
    assert!(hw > 0, "accounting must run even unlimited");

    for budget in [hw * 4, hw * 2, hw, hw * 3 / 4] {
        for chaos in 0..3usize {
            let mut cell = cfg.clone();
            cell.governor = GovernorPolicy::default().with_budget(budget);
            cell.worker_faults = match chaos {
                0 => WorkerFaultPlan::none(),
                // Two mid-build squeezes, tightest wins.
                1 => WorkerFaultPlan::none()
                    .squeeze(2, budget * 3 / 4)
                    .squeeze(4, budget / 2),
                // A squeeze compounded with a GPU death: memory pressure
                // and worker failure in the same build.
                _ => WorkerFaultPlan::none()
                    .squeeze(2, budget * 3 / 4)
                    .kill(WorkerClass::GpuIndexer, 0, 3),
            };
            let ctx = format!("cell budget={budget} chaos={chaos}");
            match build_index(&coll, &cell) {
                Ok(out) => {
                    assert_eq!(out.dict_bytes, baseline.dict_bytes, "{ctx}: dictionary");
                    assert_eq!(fingerprint(&out), want, "{ctx}: postings");
                    assert_eq!(docmap_bytes(&out), want_docmap, "{ctx}: doc map");
                    // Generous un-squeezed cells must also keep the
                    // high-water under the budget (tighter cells may
                    // overshoot transiently inside a batch before the
                    // ladder reacts — that is what the CI smoke bound
                    // checks on a realistic corpus).
                    if chaos == 0 && budget >= hw * 2 {
                        assert!(
                            high_water(&out) <= budget,
                            "{ctx}: high water {} over budget",
                            high_water(&out)
                        );
                    }
                }
                Err(PipelineError::MemoryBudgetExceeded { budget: b, needed }) => {
                    assert!(b <= budget, "{ctx}: effective {b} above configured");
                    assert!(needed > 0, "{ctx}");
                    // A refusal is deterministic: the identical cell
                    // refuses identically.
                    match build_index(&coll, &cell) {
                        Err(PipelineError::MemoryBudgetExceeded {
                            budget: b2,
                            needed: n2,
                        }) => assert_eq!((b, needed), (b2, n2), "{ctx}: rerun"),
                        other => {
                            panic!("{ctx}: rerun diverged: {:?}", other.map(|_| "index"))
                        }
                    }
                }
                Err(other) => panic!("{ctx}: unexpected error {other}"),
            }
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// Two runs at the same tight budget must agree on every physical byte —
/// early flushes move run boundaries deterministically, not randomly.
#[test]
fn same_budget_reruns_are_physically_identical() {
    let (coll, dir) = stored("rerun", 902);
    let cfg = base_cfg();
    let unconstrained = build_index(&coll, &cfg).expect("unlimited build");

    let mut tight = cfg.clone();
    // Force the early-flush rung on every batch without risking the abort
    // rung: a huge budget with a microscopic flush watermark.
    tight.governor =
        GovernorPolicy { budget_bytes: 512 << 20, flush_watermark: 1e-9, shed_watermark: 0.85 };
    let a = build_index(&coll, &tight).expect("pressured build");
    let b = build_index(&coll, &tight).expect("pressured rerun");
    assert!(
        a.report.stages.counter("governor.early_flushes") > 0,
        "watermark must actually trigger"
    );
    assert_eq!(physical_fingerprint(&a), physical_fingerprint(&b));
    // And the physical layout genuinely differs from the unconstrained
    // build (more, smaller runs) while the logical index does not.
    let runs = |o: &IndexOutput| o.run_sets.values().map(|rs| rs.runs().len()).sum::<usize>();
    assert!(runs(&a) > runs(&unconstrained));
    assert_eq!(fingerprint(&a), fingerprint(&unconstrained));
    std::fs::remove_dir_all(dir).unwrap();
}

/// A final commit torn by ENOSPC (every retry also failing) must leave a
/// directory `ii repair` can salvage with zero losses: everything the
/// checkpoint generation committed is intact, only the never-committed
/// final generation is gone.
#[test]
fn repair_salvages_torn_final_commit_after_disk_full() {
    let (coll, dir) = stored("repair-enospc", 903);
    let cfg = base_cfg();

    // Probe a full durable run to learn its op count; its directory also
    // serves as the reference for what a committed index holds.
    let probe = CrashVfs::probe();
    let probe_dir = dir.join("probe");
    let opts = DurableOptions::new(&probe_dir).checkpoint_every(1).with_vfs(&probe);
    build_index_durable(&coll, &cfg, &opts).expect("probe build");
    let total = probe.ops();
    assert!(total > 4, "durable build must touch storage");

    // The volume fills up two ops before the end — inside the final
    // commit, after every periodic checkpoint landed — and never frees.
    let idx_dir = dir.join("index");
    let full = CrashVfs::disk_full(total - 2, u64::MAX);
    let opts = DurableOptions::new(&idx_dir).checkpoint_every(1).with_vfs(&full);
    match build_index_durable(&coll, &cfg, &opts) {
        Err(PipelineError::Store(e)) => {
            assert!(matches!(e, StoreError::DiskFull { .. }), "{e:?}");
        }
        other => panic!("expected typed disk-full, got {:?}", other.map(|_| "index")),
    }

    // `ii repair`: every artifact of the committed checkpoint generation
    // survives validation; nothing is lost; the directory re-commits
    // clean.
    let report = Index::repair(&idx_dir).expect("repair must succeed");
    assert!(report.lost.is_empty(), "nothing committed may be lost: {:?}", report.lost);
    assert!(
        report.kept.iter().any(|n| n == "checkpoint.json"),
        "checkpoint descriptor survives: {:?}",
        report.kept
    );
    assert!(report.kept.iter().any(|n| n == "docmap.bin"), "{:?}", report.kept);
    assert!(report.kept.iter().any(|n| n.ends_with(".iipd")), "{:?}", report.kept);
    let store = Store::open(&idx_dir).expect("repaired store opens");
    for st in store.verify() {
        assert!(st.ok, "{}: {:?}", st.name, st.detail);
    }
    std::fs::remove_dir_all(dir).unwrap();
}
