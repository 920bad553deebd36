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
    assert!(report.kept.iter().any(|n| n == "dictionary.bin"), "{:?}", report.kept);
    let store = Store::open(&idx_dir).expect("repaired store opens");
    for st in store.verify() {
        assert!(st.ok, "{}: {:?}", st.name, st.detail);
    }
    // What was salvaged is a checkpoint's artifacts — an index of the files
    // consumed before the disk filled — and must not open as the index.
    assert!(matches!(Index::open(&idx_dir), Err(StoreError::IncompleteBuild { .. })));
    std::fs::remove_dir_all(dir).unwrap();
}

/// A collection of twelve trie collections that keep growing while their
/// terms keep repeating, so that look-ups of known terms meet full nodes:
/// four leading digits and eight three-letter prefixes, each file drawing
/// from a pool 40 terms larger than the one before it.
fn splitting_collection(dir: &std::path::Path) -> Arc<StoredCollection> {
    use ii_core::corpus::{compress, container, CollectionStats, Manifest, RawDocument};
    const PREFIXES: [&str; 12] =
        ["1", "2", "3", "4", "tan", "ser", "lod", "mic", "pov", "rut", "gan", "wol"];
    let (files, docs_per_file, tokens_per_doc) = (12usize, 8usize, 120usize);
    std::fs::create_dir_all(dir).unwrap();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut manifest = Manifest {
        spec: CollectionSpec {
            name: "governor-splitting".into(),
            num_files: files,
            docs_per_file,
            mean_doc_tokens: tokens_per_doc,
            vocab_size: 12 * 40 * files,
            zipf_s: 0.0,
            html: false,
            seed: 0,
            shift: None,
        },
        stats: CollectionStats::default(),
        file_compressed_bytes: Vec::new(),
        file_uncompressed_bytes: Vec::new(),
    };
    for f in 0..files {
        let docs: Vec<RawDocument> = (0..docs_per_file)
            .map(|_| {
                let body: Vec<String> = (0..tokens_per_doc)
                    .map(|_| {
                        let (prefix, k) = (PREFIXES[next() % 12], next() % (40 * (f + 1)));
                        match prefix.len() {
                            1 => format!("{prefix}{k:04}"),
                            // Base-5 digits as consonants: nothing to stem.
                            _ => (0..4).fold(prefix.to_string(), |word, place| {
                                word + ["b", "c", "d", "f", "g"][k / 5usize.pow(place) % 5]
                            }),
                        }
                    })
                    .collect();
                RawDocument { url: String::new(), body: body.join(" ") }
            })
            .collect();
        let raw = container::write_container(&docs);
        let packed = compress::compress(&raw);
        std::fs::write(dir.join(format!("file_{f:05}.iic")), &packed).unwrap();
        manifest.stats.documents += docs.len() as u64;
        manifest.stats.uncompressed_bytes += raw.len() as u64;
        manifest.stats.compressed_bytes += packed.len() as u64;
        manifest.file_compressed_bytes.push(packed.len() as u64);
        manifest.file_uncompressed_bytes.push(raw.len() as u64);
    }
    std::fs::write(dir.join("manifest.json"), serde_json::to_vec(&manifest).unwrap()).unwrap();
    Arc::new(StoredCollection::open(dir).unwrap())
}

/// Logical artifact name -> committed bytes, read through the manifest.
fn store_fingerprint(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    let store = Store::open(dir).expect("committed store");
    let names = store.manifest().names();
    names.map(|n| (n.to_string(), store.read(n).expect("verified artifact"))).collect()
}

/// A budget that binds — some batches flush their run early, by the
/// dictionary and device bytes the governor counts — a kill after every
/// checkpoint, and `--resume`: the index must be the uninterrupted build's
/// under the same budget, byte for byte, and the governor must end on the
/// same figures. A resumed shard is rebuilt from `dictionary.bin`
/// (`GlobalDictionary::shards`) and its trees are not the shape the killed
/// build's were (on this collection they differ by a few nodes at most
/// checkpoints), so the run boundaries can only agree while the figures are
/// a function of content. That equality itself is pinned where it is exact:
/// `prop_shards_is_the_inverse_of_combine` (ii-dict) and
/// `restored_pool_continues_byte_identically` (ii-indexer).
#[test]
fn resume_under_a_binding_budget_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("ii-governor-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coll = splitting_collection(&dir.join("coll"));
    let mut cfg = PipelineConfig::small(2, 1, 1);
    cfg.batches_per_run = 3;
    cfg.governor = GovernorPolicy::unlimited();
    let unlimited = build_index(&coll, &cfg).expect("unlimited build");
    assert!(unlimited.report.stages.counter("dict.node_splits") > 0, "trees must split");
    let counted = |out: &IndexOutput| {
        let gauge = |name: &str| out.report.stages.gauge(name);
        (gauge("governor.dict_bytes"), gauge("governor.device_bytes"))
    };
    // Resident bytes end near `total`. Of a budget of four times that, the
    // highest flush watermark that binds at all: the late batches flush
    // their run early, the early ones do not. Nothing sheds.
    let total = (counted(&unlimited).0 + counted(&unlimited).1) as u64;
    let early = |out: &IndexOutput| out.report.stages.counter("governor.early_flushes");
    let binds = (60..100).rev().step_by(3).find(|percent| {
        cfg.governor = GovernorPolicy {
            budget_bytes: total * 4,
            flush_watermark: f64::from(*percent) / 300.0,
            shed_watermark: 0.95,
        };
        early(&build_index(&coll, &cfg).expect("budgeted build")) > 0
    });
    assert!(binds.is_some(), "no watermark down to 0.6 of the final resident bytes binds");

    let whole_dir = dir.join("whole");
    let opts = DurableOptions::new(&whole_dir).checkpoint_every(1);
    let whole = build_index_durable(&coll, &cfg, &opts).expect("uninterrupted build");
    assert!(early(&whole) > 0 && early(&whole) < 5, "binds late: {} early flushes", early(&whole));
    let want = store_fingerprint(&whole_dir);

    let probe = CrashVfs::probe();
    let opts = DurableOptions::new(dir.join("probe")).checkpoint_every(1).with_vfs(&probe);
    build_index_durable(&coll, &cfg, &opts).expect("probe build");
    // Kill at every storage op; resume from each generation the first time
    // a kill leaves it committed.
    let mut resumed_from = Vec::new();
    for k in 0..probe.ops() {
        let hit = dir.join("hit");
        let _ = std::fs::remove_dir_all(&hit);
        let crash = CrashVfs::new(k, ii_core::store::CrashMode::PowerLoss, 0xACC7 ^ k);
        let opts = DurableOptions::new(&hit).checkpoint_every(1).with_vfs(&crash);
        assert!(build_index_durable(&coll, &cfg, &opts).is_err(), "op {k}: killed build");
        let Ok(store) = Store::open(&hit) else { continue };
        let generation = store.manifest().generation;
        if store.manifest().kind != ii_core::store::ManifestKind::Checkpoint
            || resumed_from.contains(&generation)
        {
            continue;
        }
        resumed_from.push(generation);
        let opts = DurableOptions::new(&hit).checkpoint_every(1).resume(true);
        let resumed = build_index_durable(&coll, &cfg, &opts).expect("resume");
        assert_eq!(store_fingerprint(&hit), want, "resumed from generation {generation}");
        assert_eq!(counted(&resumed), counted(&whole), "resumed from generation {generation}");
    }
    let checkpoints = whole.report.stages.counter("store.commits") - 1;
    assert_eq!(resumed_from.len() as u64, checkpoints, "every checkpoint resumed from");
    std::fs::remove_dir_all(dir).unwrap();
}

/// What the governor charges a shard against the bytes its arenas hold, on
/// a parsed collection of `spec`: `(charged, held)`.
fn charged_and_held(spec: CollectionSpec) -> (u64, u64) {
    use ii_core::dict::{PartialDictionary, SlottedNode, TRIE_ENTRIES};
    let html = spec.html;
    let files = spec.num_files;
    let generator = ii_core::corpus::CollectionGenerator::new(spec);
    let mut shard = PartialDictionary::new(0);
    for f in 0..files {
        let batch = ii_core::text::parse_documents(&generator.generate_file(f), html, f);
        for group in &batch.groups {
            for (_, term) in group.iter_terms() {
                shard.insert_term(group.trie_index, term);
            }
        }
    }
    let held = shard.store.num_nodes() * std::mem::size_of::<SlottedNode>()
        + shard.store.strings.len_bytes()
        + TRIE_ENTRIES * 4;
    (shard.mem_bytes(), held as u64)
}

fn assert_within_a_quarter(spec: CollectionSpec) {
    let name = spec.name.clone();
    let (charged, held) = charged_and_held(spec);
    let error = charged as f64 / held as f64 - 1.0;
    assert!(error.abs() <= 0.25, "{name}: charged {charged} B, arenas hold {held} B ({error:+.3})");
}

/// The governor's dictionary figure is derived from content (terms,
/// collections, remainder bytes), not read off the arenas; it must stay
/// within a quarter of what the arenas hold, on a skewed HTML vocabulary
/// and on a flat one of short documents.
#[test]
fn content_derived_dictionary_bytes_track_the_arenas() {
    for (vocab_size, zipf_s, mean_doc_tokens, html) in
        [(50_000, 1.05, 400, true), (100_000, 0.6, 120, false)]
    {
        assert_within_a_quarter(CollectionSpec {
            name: format!("accounting-{vocab_size}"),
            num_files: 2,
            docs_per_file: 90_000 / mean_doc_tokens,
            mean_doc_tokens,
            vocab_size,
            zipf_s,
            html,
            seed: 906,
            shift: None,
        });
    }
}

/// The same bound on the three shapes the formula was fitted on: the
/// ledger's web, tail and congress collections at full size.
#[test]
#[ignore = "parses three 10 MB collections; run in release"]
fn content_derived_dictionary_bytes_track_the_arenas_on_the_ledger_shapes() {
    let shape = |name: &str, files, docs, tokens, vocab_size, zipf_s, html| CollectionSpec {
        name: name.into(),
        num_files: files,
        docs_per_file: docs,
        mean_doc_tokens: tokens,
        vocab_size,
        zipf_s,
        html,
        seed: 0,
        shift: None,
    };
    assert_within_a_quarter(shape("web", 12, 200, 650, 150_000, 1.0, true));
    assert_within_a_quarter(shape("tail", 8, 800, 120, 300_000, 0.6, false));
    assert_within_a_quarter(shape("congress", 8, 150, 580, 50_000, 1.05, true));
}
