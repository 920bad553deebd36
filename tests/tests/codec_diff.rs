//! Differential codec suite: the block-compressed postings formats
//! (BP128, PForDelta, and the per-length-class Auto policy) against each
//! other and against variable-byte.
//!
//! The contract under test is logical identity: the codec is a physical
//! encoding choice and must never change *what* the index contains. For
//! the same collection, every codec default must decode to the same
//! postings for every dictionary term and serialize the same dictionary
//! bytes; device mix and worker death must not change run bytes.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::pipeline::{
    build_index, PipelineConfig, SupervisorPolicy, WorkerClass, WorkerFaultPlan,
};
use ii_core::postings::{Codec, PostingsList};
use ii_core::Index;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

fn e2e_spec(name: &str, num_files: usize, docs_per_file: usize) -> CollectionSpec {
    CollectionSpec {
        name: name.into(),
        num_files,
        docs_per_file,
        mean_doc_tokens: 70,
        vocab_size: 300,
        zipf_s: 1.0,
        html: true,
        seed: 7272,
        shift: None,
    }
}

/// Every dictionary term's decoded postings, keyed by full surface term.
fn decoded_postings(idx: &Index) -> BTreeMap<String, PostingsList> {
    idx.dictionary
        .entries()
        .map(|e| {
            let term = e.full_term();
            let list = idx
                .postings_stemmed(&term)
                .unwrap_or_else(|| panic!("dictionary term {term:?} has no postings"));
            (term, list)
        })
        .collect()
}

/// Serialized run bytes keyed by (indexer, run) — the physical artifact
/// identity a resume or replica build must reproduce.
fn run_bytes(run_sets: &HashMap<u32, ii_core::postings::RunSet>) -> BTreeMap<(u32, u32), Vec<u8>> {
    run_sets
        .iter()
        .flat_map(|(&indexer, set)| {
            set.runs().iter().map(move |r| ((indexer, r.run_id), r.to_bytes()))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Codec sweep: every codec decodes to the same logical index.
// ---------------------------------------------------------------------------

/// Build the same collection once per codec default. The dictionary bytes
/// must be identical (the codec never touches the dictionary) and every
/// term's decoded postings must match the varbyte baseline posting for
/// posting. Runs are aggregated across all files so the Auto policy's
/// medium length class (PForDelta) actually engages.
#[test]
fn every_codec_decodes_the_same_postings() {
    let spec = e2e_spec("codec-diff", 8, 40);
    let dir = std::env::temp_dir().join(format!("ii-codec-diff-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coll = Arc::new(StoredCollection::generate(spec.clone(), &dir).unwrap());

    let build_with = |codec: Codec| {
        let mut cfg = PipelineConfig::small(2, 1, 1);
        cfg.codec = codec;
        // One run spanning the whole collection: per-run lists reach the
        // medium (>128 postings) length class.
        cfg.batches_per_run = spec.num_files;
        let out =
            build_index(&coll, &cfg).unwrap_or_else(|e| panic!("{codec:?} build died: {e}"));
        let dict_bytes = out.dict_bytes.clone();
        (dict_bytes, Index::from_output(out))
    };

    let (baseline_dict, baseline) = build_with(Codec::VarByte);
    let expected = decoded_postings(&baseline);
    assert!(expected.len() > 50, "collection produced a real vocabulary");
    assert!(
        expected.values().any(|l| l.len() > 128),
        "at least one list crosses a block boundary"
    );

    for codec in [Codec::Bp128, Codec::PFor, Codec::Auto] {
        let (dict_bytes, idx) = build_with(codec);
        assert_eq!(dict_bytes, baseline_dict, "{codec:?}: dictionary bytes diverged");
        let got = decoded_postings(&idx);
        assert_eq!(
            got.len(),
            expected.len(),
            "{codec:?}: term count diverged"
        );
        for (term, want) in &expected {
            assert_eq!(
                got.get(term),
                Some(want),
                "{codec:?}: postings diverged for term {term:?}"
            );
        }
        if codec == Codec::Auto {
            // The per-length-class policy must actually split: short lists
            // stay varbyte, and the >128-posting lists built above land in
            // the PForDelta class.
            let entry_codecs: Vec<Codec> = idx
                .run_sets
                .values()
                .flat_map(|s| s.runs().iter().flat_map(|r| r.entries.iter().map(|e| e.codec)))
                .collect();
            assert!(
                entry_codecs.contains(&Codec::VarByte),
                "Auto: short lists resolve to varbyte"
            );
            assert!(
                entry_codecs.contains(&Codec::PFor),
                "Auto: medium lists resolve to PForDelta"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Device mix and worker death: physical run bytes must not move.
// ---------------------------------------------------------------------------

/// CPU-only vs GPU-only builds (same indexer count, so the same shard
/// numbering) and fault-free vs worker-kill builds must produce
/// byte-identical run files, not merely equal decoded postings — the
/// blocked wire format is part of the determinism contract dict_diff
/// already pins for the dictionary.
#[test]
fn device_mix_and_worker_kill_share_run_bytes() {
    let spec = e2e_spec("codec-runs", 6, 12);
    let dir = std::env::temp_dir().join(format!("ii-codec-diff-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coll = Arc::new(StoredCollection::generate(spec, &dir).unwrap());

    let cpu = build_index(&coll, &PipelineConfig::small(2, 1, 0)).expect("CPU-only build");
    let gpu = build_index(&coll, &PipelineConfig::small(2, 0, 1)).expect("GPU-only build");
    assert_eq!(cpu.dict_bytes, gpu.dict_bytes, "CPU vs GPU dictionary bytes");
    let cpu_runs = run_bytes(&cpu.run_sets);
    assert!(!cpu_runs.is_empty());
    assert_eq!(cpu_runs, run_bytes(&gpu.run_sets), "CPU vs GPU run bytes");

    let mixed_cfg = PipelineConfig::small(2, 1, 1);
    let mixed = build_index(&coll, &mixed_cfg).expect("fault-free mixed build");
    let mut kill_cfg = mixed_cfg.clone();
    kill_cfg.supervision =
        SupervisorPolicy::default().with_stall_timeout(Duration::from_millis(200));
    kill_cfg.worker_faults = WorkerFaultPlan::none().kill(WorkerClass::GpuIndexer, 0, 1);
    let killed = build_index(&coll, &kill_cfg).expect("worker-kill build");
    assert_eq!(mixed.dict_bytes, killed.dict_bytes, "fault-free vs worker-kill dict bytes");
    assert_eq!(
        run_bytes(&mixed.run_sets),
        run_bytes(&killed.run_sets),
        "fault-free vs worker-kill run bytes"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Long congress-preset matrix (CI smoke via --ignored).
// ---------------------------------------------------------------------------

/// The codec sweep at a realistic scale: congress-preset collection, every
/// codec, full decoded-postings identity. Ignored by default; the
/// scheduled CI chaos job smokes it with `--ignored`.
#[test]
#[ignore = "long congress-preset codec matrix; run explicitly or via CI smoke"]
fn congress_matrix_codec_identity() {
    let spec = CollectionSpec::congress_like(0.02);
    let dir =
        std::env::temp_dir().join(format!("ii-codec-diff-congress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coll = Arc::new(StoredCollection::generate(spec.clone(), &dir).unwrap());

    let build_with = |codec: Codec| {
        let mut cfg = PipelineConfig::small(2, 2, 1);
        cfg.codec = codec;
        cfg.batches_per_run = spec.num_files;
        let out =
            build_index(&coll, &cfg).unwrap_or_else(|e| panic!("{codec:?} build died: {e}"));
        let dict_bytes = out.dict_bytes.clone();
        (dict_bytes, Index::from_output(out))
    };
    let (baseline_dict, baseline) = build_with(Codec::VarByte);
    let expected = decoded_postings(&baseline);
    for codec in [Codec::Bp128, Codec::PFor, Codec::Auto] {
        let (dict_bytes, idx) = build_with(codec);
        assert_eq!(dict_bytes, baseline_dict, "{codec:?} dict bytes");
        assert_eq!(decoded_postings(&idx), expected, "{codec:?} decoded postings");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
