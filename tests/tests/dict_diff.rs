//! Differential dictionary suite: the slotted-node fast path
//! (`SlottedStore`, `PartialDictionary`) against the frozen Table II host
//! B-tree and reference shard (`BTreeStore`, `ReferenceDictionary`: the
//! pre-slotted implementation, kept byte-for-byte in this crate's library).
//!
//! The contract under test is total behavioural identity: for any insert
//! stream — unicode-heavy surface terms, long shared prefixes, adversarial
//! streams where every key collides on the 4-byte head — both paths must
//! produce the same per-insert outcomes (same `is_new`, same postings
//! handle, i.e. the same docID/handle assignment), the same lookup
//! results, and byte-identical combined global dictionaries.
//!
//! On top of the property tests, an end-to-end check builds one corpus
//! CPU-only, GPU-only, and with a worker killed mid-build, and requires
//! all three serialized dictionaries to agree byte for byte and to match
//! a serial reference-shard replay of the same token stream.

use ii_core::corpus::{CollectionGenerator, CollectionSpec, StoredCollection};
use ii_core::dict::{
    insert_surface, lookup_surface, GlobalDictionary, PartialDictionary, SlottedStore,
    TRIE_ENTRIES,
};
use ii_integration_tests::btree::BTreeStore;
use ii_integration_tests::reference::{
    combine_reference, insert_surface_reference, lookup_surface_reference, ReferenceDictionary,
};
use ii_core::pipeline::{
    build_index, PipelineConfig, SupervisorPolicy, WorkerClass, WorkerFaultPlan,
};
use ii_core::text::parse_documents;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Store-level differential: one tree, both node layouts.
// ---------------------------------------------------------------------------

/// The load-bearing identity: same stream in, same outcome stream, same
/// structure, same canonical Table II node bytes out — so the GPU kernel,
/// which builds the Table II layout, and the host agree handle for handle.
#[test]
fn matches_legacy_store_handle_for_handle() {
    let mut keys: Vec<String> = (0..800)
        .map(|i| match i % 5 {
            0 => format!("k{i:05}"),
            1 => format!("shared-prefix-{:03}", i % 97),
            2 => format!("{:02}", i % 50),
            3 => format!("x{}", "y".repeat(i % 9)),
            _ => format!("unicode-é火-{i}"),
        })
        .collect();
    keys.shuffle(&mut StdRng::seed_from_u64(42));
    let mut s = SlottedStore::new();
    let mut t = s.new_tree();
    let mut ls = BTreeStore::new();
    let mut lt = ls.new_tree();
    for k in &keys {
        let a = s.insert(&mut t, k.as_bytes());
        let b = ls.insert(&mut lt, k.as_bytes());
        assert_eq!(a, b, "outcome diverged on {k}");
    }
    assert_eq!(t.root, lt.root);
    assert_eq!(s.term_count(), ls.term_count());
    assert_eq!(s.iter_terms(&t), ls.iter_terms(&lt));
    assert_eq!(s.depth(&t), ls.depth(&lt));
    assert_eq!(s.strings.as_bytes(), ls.strings.as_bytes());
    // The device rendering matches node-for-node in the fields that carry
    // information (slots < count plus live children).
    let rendered = s.to_device_nodes();
    assert_eq!(rendered.len(), ls.nodes.len());
    for (idx, (a, b)) in rendered.iter().zip(ls.nodes.nodes()).enumerate() {
        assert_eq!(a.count, b.count, "count differs at node {idx}");
        assert_eq!(a.leaf, b.leaf, "leaf differs at node {idx}");
        let c = a.count as usize;
        assert_eq!(a.cache[..c], b.cache[..c], "caches differ at node {idx}");
        assert_eq!(a.term_ptr[..c], b.term_ptr[..c], "term ptrs differ at node {idx}");
        assert_eq!(a.postings_ptr[..c], b.postings_ptr[..c], "postings differ at node {idx}");
        if a.leaf == 0 {
            assert_eq!(a.children[..=c], b.children[..=c], "children differ at node {idx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_matches_legacy_on_arbitrary_streams(
        keys in proptest::collection::vec("[a-f]{0,10}", 1..300)
    ) {
        let mut s = SlottedStore::new();
        let mut t = s.new_tree();
        let mut ls = BTreeStore::new();
        let mut lt = ls.new_tree();
        for k in &keys {
            let a = s.insert(&mut t, k.as_bytes());
            let b = ls.insert(&mut lt, k.as_bytes());
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(t.root, lt.root);
        prop_assert_eq!(s.iter_terms(&t), ls.iter_terms(&lt));
        for k in &keys {
            prop_assert_eq!(s.get(&t, k.as_bytes()), ls.get(&lt, k.as_bytes()));
        }
    }
}

// ---------------------------------------------------------------------------
// Stream-level differential: raw (trie index, suffix) inserts.
// ---------------------------------------------------------------------------

/// Drive the same raw insert stream through both implementations, insert
/// by insert, then through combine. Panics on the first divergence.
fn assert_streams_identical(stream: &[(u32, Vec<u8>)]) {
    let mut fast = PartialDictionary::new(0);
    let mut reference = ReferenceDictionary::new(0);
    for (ti, suffix) in stream {
        let a = fast.insert_term(*ti, suffix);
        let b = reference.insert_reference(*ti, suffix);
        assert_eq!(a, b, "insert diverged on trie {ti} suffix {suffix:?}");
    }
    assert_eq!(fast.term_count(), reference.term_count());
    // The fast path yields trie indices in ascending order; the reference
    // shard iterates a HashMap. The *sets* must agree.
    let mut ref_indices: Vec<u32> = reference.trie_indices().collect();
    ref_indices.sort_unstable();
    assert_eq!(fast.trie_indices().collect::<Vec<_>>(), ref_indices);
    for (ti, suffix) in stream {
        assert_eq!(
            fast.lookup(*ti, suffix),
            reference.lookup_reference(*ti, suffix),
            "lookup diverged on trie {ti} suffix {suffix:?}"
        );
    }
    // Probe keys that were never inserted too.
    assert_eq!(fast.lookup(7, b"neverinserted"), None);
    assert_eq!(reference.lookup_reference(7, b"neverinserted"), None);

    let g_fast = GlobalDictionary::combine(&[fast]);
    let g_ref = combine_reference(&[reference]);
    let (mut fast_bytes, mut ref_bytes) = (Vec::new(), Vec::new());
    g_fast.write_to(&mut fast_bytes).unwrap();
    g_ref.write_to(&mut ref_bytes).unwrap();
    assert_eq!(fast_bytes, ref_bytes, "combined dictionary bytes diverged");
}

/// Suffix strategy for the adversarial head-collision stream: every key
/// shares the 4-byte head "wxyz" (so the branch-free head rank can never
/// settle a comparison alone), with tails from empty up to long, plus the
/// short-key family ""/"w"/"wx"/"wxy" whose heads are zero-padded.
fn head_collision_suffix() -> impl Strategy<Value = Vec<u8>> {
    (0u8..10, "[a-z]{0,10}").prop_map(|(kind, tail)| match kind {
        // Occasionally a short key whose head is zero-padded: these tie
        // with "wxyz..." on the padded head bytes only when equal, but
        // exercise the remainder-emptiness tie-break.
        0 => b"wxyz"[..usize::from(tail.len() as u8 % 5)].to_vec(),
        _ => format!("wxyz{tail}").into_bytes(),
    })
}

/// Shared-prefix strategy: long common prefixes force deep string
/// comparisons past the head on every tie.
fn shared_prefix_suffix() -> impl Strategy<Value = Vec<u8>> {
    (0u8..3, "[a-z]{1,12}").prop_map(|(kind, t)| {
        match kind {
            0 => format!("interconnectedness{}", &t[..t.len().min(4)]),
            1 => format!("inter{t}"),
            _ => t,
        }
        .into_bytes()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_head_collision_streams_are_identical(
        suffixes in proptest::collection::vec(head_collision_suffix(), 1..300),
        ti in 0u32..TRIE_ENTRIES as u32,
    ) {
        let stream: Vec<(u32, Vec<u8>)> =
            suffixes.into_iter().map(|s| (ti, s)).collect();
        assert_streams_identical(&stream);
    }

    #[test]
    fn prop_shared_prefix_streams_are_identical(
        stream in proptest::collection::vec(
            (0u32..TRIE_ENTRIES as u32, shared_prefix_suffix()),
            1..300,
        ),
    ) {
        assert_streams_identical(&stream);
    }

    #[test]
    fn prop_arbitrary_byte_streams_are_identical(
        stream in proptest::collection::vec(
            (
                0u32..TRIE_ENTRIES as u32,
                proptest::collection::vec(1u8..=255, 0..12),
            ),
            1..200,
        ),
    ) {
        // Arbitrary non-NUL bytes: exercises non-ASCII (and non-UTF-8)
        // suffixes, which the dictionary layer must store verbatim.
        assert_streams_identical(&stream);
    }
}

// ---------------------------------------------------------------------------
// Surface-level differential: classified unicode terms.
// ---------------------------------------------------------------------------

/// Unicode-heavy surface terms: ASCII word shapes mixed with multi-byte
/// scripts and astral-plane characters, all pushed through the trie
/// classifier exactly as real tokens are.
fn unicode_term() -> impl Strategy<Value = String> {
    (
        (0u8..6, "[a-z0-9]{1,14}"),
        (
            "[\u{3b1}-\u{3c9}]{1,6}",   // Greek lowercase
            "[\u{430}-\u{44f}]{1,6}",   // Cyrillic lowercase
            "[\u{4e00}-\u{4eff}]{1,4}", // CJK
        ),
    )
        .prop_map(|((kind, ascii), (greek, cyrillic, cjk))| match kind {
            0 | 1 => ascii,
            2 => greek,
            3 => cyrillic,
            4 => cjk,
            // Mixed-script term: ASCII head, multi-byte tail.
            _ => format!("{}{}", &ascii[..ascii.len().min(3)], greek),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_unicode_surface_streams_are_identical(
        terms in proptest::collection::vec(unicode_term(), 1..250),
    ) {
        let mut fast = PartialDictionary::new(3);
        let mut reference = ReferenceDictionary::new(3);
        for t in &terms {
            let a = insert_surface(&mut fast, t);
            let b = insert_surface_reference(&mut reference, t);
            prop_assert_eq!(a, b, "insert diverged on {:?}", t);
        }
        for t in &terms {
            prop_assert_eq!(
                lookup_surface(&mut fast, t),
                lookup_surface_reference(&mut reference, t),
                "lookup diverged on {:?}", t
            );
        }
        let g_fast = GlobalDictionary::combine(&[fast]);
        let g_ref = combine_reference(&[reference]);
        let (mut fb, mut rb) = (Vec::new(), Vec::new());
        g_fast.write_to(&mut fb).unwrap();
        g_ref.write_to(&mut rb).unwrap();
        prop_assert_eq!(fb, rb, "combined dictionary bytes diverged");
    }

    #[test]
    fn prop_multi_shard_combines_are_identical(
        shards in proptest::collection::vec(
            proptest::collection::vec("[a-z]{1,10}", 1..80),
            1..4,
        ),
    ) {
        // Several shards with distinct indexer IDs, combined: the global
        // merge (k-way by trie index, then suffix) must agree byte for
        // byte no matter which implementation built the shards.
        // A shard owns whole trie collections (§III.E; the combine relies
        // on it), so each term goes to the shard that owns its collection.
        let n = shards.len() as u32;
        let mut fasts: Vec<_> = (0..n).map(PartialDictionary::new).collect();
        let mut refs: Vec<_> = (0..n).map(ReferenceDictionary::new).collect();
        for t in shards.iter().flatten() {
            let owner = (ii_core::dict::trie_index(t).0 % n) as usize;
            prop_assert_eq!(
                insert_surface(&mut fasts[owner], t),
                insert_surface_reference(&mut refs[owner], t)
            );
        }
        let g_fast = GlobalDictionary::combine(&fasts);
        let g_ref = combine_reference(&refs);
        let (mut fb, mut rb) = (Vec::new(), Vec::new());
        g_fast.write_to(&mut fb).unwrap();
        g_ref.write_to(&mut rb).unwrap();
        prop_assert_eq!(fb, rb, "multi-shard combine diverged");
    }
}

// ---------------------------------------------------------------------------
// End-to-end: device mix and worker death must not change dictionary bytes.
// ---------------------------------------------------------------------------

fn e2e_spec(scale_files: usize) -> CollectionSpec {
    CollectionSpec {
        name: "dict-diff".into(),
        num_files: scale_files,
        docs_per_file: 12,
        mean_doc_tokens: 70,
        vocab_size: 1200,
        zipf_s: 1.0,
        html: true,
        seed: 7171,
        shift: None,
    }
}

/// CPU-only, GPU-only, and a supervised build that loses its GPU indexer
/// mid-build all serialize the same dictionary — and that dictionary's
/// term set matches a serial reference-shard replay of the token stream.
#[test]
fn cpu_gpu_and_worker_kill_builds_share_dictionary_bytes() {
    let spec = e2e_spec(6);
    let dir = std::env::temp_dir().join(format!("ii-dict-diff-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coll = Arc::new(StoredCollection::generate(spec.clone(), &dir).unwrap());

    // Same device count on both sides => same indexer IDs and sharding, so
    // the dictionaries must agree byte for byte (PR 1 contract, now riding
    // on the slotted fast path end to end).
    let cpu = build_index(&coll, &PipelineConfig::small(2, 1, 0)).expect("CPU-only build");
    let gpu = build_index(&coll, &PipelineConfig::small(2, 0, 1)).expect("GPU-only build");
    assert_eq!(cpu.dict_bytes, gpu.dict_bytes, "CPU vs GPU dictionary bytes");

    // Killing a worker mid-build must not change the bytes of the build it
    // degrades (shard assignment is lifetime-fixed; only the host moves).
    let mixed_cfg = PipelineConfig::small(2, 1, 1);
    let mixed = build_index(&coll, &mixed_cfg).expect("fault-free mixed build");
    let mut kill_cfg = mixed_cfg.clone();
    kill_cfg.supervision =
        SupervisorPolicy::default().with_stall_timeout(Duration::from_millis(200));
    kill_cfg.worker_faults = WorkerFaultPlan::none().kill(WorkerClass::GpuIndexer, 0, 1);
    let killed = build_index(&coll, &kill_cfg).expect("worker-kill build");
    assert_eq!(mixed.dict_bytes, killed.dict_bytes, "fault-free vs worker-kill bytes");

    // Serial reference replay: parse the same files in order and push every
    // trie-group token through the frozen reference shard. The pipeline may
    // shard terms across indexers and reorder inserts, so the comparable
    // core is the *term set*, which must match exactly.
    let gen = CollectionGenerator::new(spec.clone());
    let mut reference = ReferenceDictionary::new(0);
    for f in 0..spec.num_files {
        let batch = parse_documents(&gen.generate_file(f), spec.html, f);
        for g in &batch.groups {
            for (_, term) in g.iter_terms() {
                reference.insert_reference(g.trie_index, term);
            }
        }
    }
    let ref_terms: BTreeSet<String> = combine_reference(&[reference])
        .entries()
        .map(|e| e.full_term())
        .collect();
    let built_terms: BTreeSet<String> =
        cpu.dictionary.entries().map(|e| e.full_term()).collect();
    assert_eq!(built_terms, ref_terms, "pipeline term set diverged from serial reference");

    std::fs::remove_dir_all(dir).unwrap();
}

/// Long congress-preset matrix: the same identity at a realistic scale and
/// across a wider fault matrix. Ignored by default; CI smokes it with
/// `--ignored` in the scheduled chaos job.
#[test]
#[ignore = "long congress-preset matrix; run explicitly or via CI smoke"]
fn congress_matrix_byte_identity() {
    let spec = CollectionSpec::congress_like(0.05);
    let dir = std::env::temp_dir().join(format!("ii-dict-diff-congress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coll = Arc::new(StoredCollection::generate(spec, &dir).unwrap());

    let baseline = build_index(&coll, &PipelineConfig::small(2, 2, 1)).expect("baseline build");
    let cpu_only = build_index(&coll, &PipelineConfig::small(2, 3, 0)).expect("CPU-only build");
    // Different device mixes renumber indexers, so bytes can differ
    // between mixes — but each mix must be internally deterministic and
    // the kill matrix below must reproduce the baseline mix exactly.
    assert!(!cpu_only.dict_bytes.is_empty());

    for (class, idx) in [(WorkerClass::Parser, 0usize), (WorkerClass::GpuIndexer, 0)] {
        let mut c = PipelineConfig::small(2, 2, 1);
        c.supervision =
            SupervisorPolicy::default().with_stall_timeout(Duration::from_millis(300));
        c.worker_faults = WorkerFaultPlan::none().kill(class, idx, 2);
        let out = build_index(&coll, &c)
            .unwrap_or_else(|e| panic!("kill {class} {idx}: build died: {e}"));
        assert_eq!(
            out.dict_bytes, baseline.dict_bytes,
            "dictionary bytes diverged after killing {class} {idx}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}
