//! Property-based integration tests over the whole stack: arbitrary
//! document sets must produce consistent indexes through every path.

use ii_baselines::{index_with_regrouping, index_without_regrouping};
use ii_core::corpus::{DocId, RawDocument};
use ii_core::indexer::{CpuIndexer, GpuIndexer, GpuIndexerConfig};
use ii_core::postings::Codec;
use ii_core::text::parse_documents;
use proptest::prelude::*;

fn docs_strategy() -> impl Strategy<Value = Vec<RawDocument>> {
    proptest::collection::vec(
        "[a-z0-9 .,\\-]{0,160}".prop_map(|body| RawDocument { url: String::new(), body }),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The GPU kernel and the CPU indexer are interchangeable: identical
    /// dictionaries and postings for arbitrary inputs.
    #[test]
    fn gpu_equals_cpu_on_arbitrary_docs(docs in docs_strategy()) {
        let batch = parse_documents(&docs, false, 0);
        let mut cpu = CpuIndexer::new(0);
        let mut gpu = GpuIndexer::new(0, GpuIndexerConfig::small());
        for g in &batch.groups {
            cpu.index_group(g, 0);
        }
        let groups: Vec<&ii_core::text::TrieGroup> = batch.groups.iter().collect();
        gpu.index_batch(&groups, 0);
        prop_assert_eq!(cpu.stats, gpu.stats);
        // The downloaded GPU dictionary must satisfy every CLRS B-tree
        // structural invariant, not merely answer lookups correctly.
        let gdict = gpu.into_partial_dictionary();
        let bad = ii_core::dict::verify_shard(&gdict);
        prop_assert!(bad.is_empty(), "GPU trees violate invariants: {bad:?}");
        let cbad = ii_core::dict::verify_shard(&cpu.dict);
        prop_assert!(cbad.is_empty(), "CPU trees violate invariants: {cbad:?}");
        let cpu_run = cpu.flush_run(0, Codec::VarByte);
        let gpu_run = gpu.flush_run(0, Codec::VarByte);
        prop_assert_eq!(cpu_run.entries.len(), gpu_run.entries.len());
        for e in &cpu_run.entries {
            prop_assert_eq!(
                cpu_run.get(e.handle),
                gpu_run.get(e.handle),
                "handle {}", e.handle
            );
        }
    }

    /// Regrouped and raw-order serial indexing agree on arbitrary inputs.
    #[test]
    fn regrouping_is_order_invariant(docs in docs_strategy()) {
        let a = index_without_regrouping(&docs, false);
        let b = index_with_regrouping(&docs, false);
        prop_assert_eq!(a.tokens, b.tokens);
        let da = ii_core::dict::GlobalDictionary::combine(&[a.dict]);
        let db = ii_core::dict::GlobalDictionary::combine(&[b.dict]);
        let ta: Vec<String> = da.entries().map(|e| e.full_term()).collect();
        let tb: Vec<String> = db.entries().map(|e| e.full_term()).collect();
        prop_assert_eq!(ta, tb);
    }

    /// Postings doc IDs are strictly increasing through encode/decode and
    /// run-set concatenation, for any batch split.
    #[test]
    fn postings_stay_sorted_across_runs(
        docs in docs_strategy(),
        chunk_size in 1usize..8,
    ) {
        let mut cpu = CpuIndexer::new(0);
        let mut set = ii_core::postings::RunSet::new();
        let mut offset = 0u32;
        for (i, chunk) in docs.chunks(chunk_size.max(1)).enumerate() {
            let batch = parse_documents(chunk, false, i);
            for g in &batch.groups {
                cpu.index_group(g, offset);
            }
            offset += batch.num_docs;
            set.push(cpu.flush_run(i as u32, Codec::VarByte)).unwrap();
        }
        for handle in 0..cpu.dict.term_count() {
            let list = set.fetch(handle).unwrap();
            let ids: Vec<u32> = list.postings().iter().map(|p| p.doc.0).collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "handle {handle}: {ids:?}");
            // Range fetch equals filtering the full fetch.
            if let (Some(&lo), Some(&hi)) = (ids.first(), ids.last()) {
                let mid_lo = DocId(lo + (hi - lo) / 4);
                let mid_hi = DocId(lo + (hi - lo) / 2);
                let (ranged, _) = set.fetch_range(handle, mid_lo, mid_hi).unwrap();
                let want: Vec<_> = list
                    .postings()
                    .iter()
                    .copied()
                    .filter(|p| p.doc >= mid_lo && p.doc <= mid_hi)
                    .collect();
                prop_assert_eq!(ranged, want);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A GPU death mid-build must leave every shard, the salvaged one
    /// included, a structurally sound slotted B-tree: slot order == key order, head
    /// consistency, sentinel discipline in unused slots, CLRS fill
    /// bounds. `verify_shard` checks all of these per tree.
    #[test]
    fn shards_stay_structurally_sound_after_kills(
        docs in docs_strategy(),
        kill_after in 0usize..3,
    ) {
        use ii_core::indexer::{make_plan, sample_counts, IndexerPool};

        let batches: Vec<_> = docs
            .chunks(docs.len().div_ceil(3).max(1))
            .enumerate()
            .map(|(i, chunk)| parse_documents(chunk, false, i))
            .collect();
        let counts = sample_counts(std::slice::from_ref(&batches[0]));
        let plan = make_plan(&counts, 2, 1, 2);
        let mut pool = IndexerPool::new(plan, GpuIndexerConfig::small(), Codec::VarByte);
        for (i, b) in batches.iter().enumerate() {
            if i == kill_after {
                pool.kill_gpu(0);
            }
            pool.index_batch(b);
        }
        pool.flush_run();
        for part in pool.finish() {
            let bad = ii_core::dict::verify_shard(&part);
            prop_assert!(
                bad.is_empty(),
                "shard {} violates B-tree invariants after kills: {bad:?}",
                part.indexer_id
            );
        }
    }
}

#[test]
fn dictionary_entries_sorted_and_unique() {
    let docs: Vec<RawDocument> = (0..30)
        .map(|i| RawDocument {
            url: String::new(),
            body: format!("term{i} shared zebra quilt term{}", i % 7),
        })
        .collect();
    let batch = parse_documents(&docs, false, 0);
    let mut cpu = CpuIndexer::new(0);
    for g in &batch.groups {
        cpu.index_group(g, 0);
    }
    let dict = ii_core::dict::GlobalDictionary::combine(&[cpu.dict]);
    let keys: Vec<(u32, &[u8])> = dict.entries().map(|e| (e.trie_index, e.suffix)).collect();
    for w in keys.windows(2) {
        assert!(w[0] < w[1], "entries must be strictly sorted: {w:?}");
    }
}
