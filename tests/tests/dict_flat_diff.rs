//! Differential suite for the flat combined dictionary.
//!
//! `GlobalDictionary` used to be a `Vec<DictEntry>` — one heap `Vec<u8>` per
//! term, gathered tree by tree, sorted globally and searched by one binary
//! search over all terms. It is now the trie directory in front of one
//! suffix arena (`crates/dict/src/dictionary.rs`). The replaced combine and
//! look-up are frozen in `mod frozen` below as the oracle: on shards built by
//! one, two and three indexers (CPU and simulated GPU) over the `tiny` and
//! the congress-shaped collections, the flat dictionary must list the same
//! terms in the same order with the same `(indexer, handle)`, answer every
//! look-up — hits, and misses of every kind the directory could get wrong —
//! the same way, and survive `write_to` → `read_from` unchanged.

use ii_core::corpus::{CollectionGenerator, CollectionSpec};
use ii_core::dict::{GlobalDictionary, PartialDictionary, TrieIndex, TRIE_ENTRIES};
use ii_core::indexer::{make_plan, sample_counts, GpuIndexerConfig, IndexerPool};
use ii_core::postings::Codec;
use ii_core::text::parse_documents;

/// The replaced dictionary, as it stood in `crates/dict/src/dictionary.rs`,
/// reading shards through their public fields. The in-order tree walk is
/// the old `SlottedStore::iter_terms` (one `Vec<u8>` per term through
/// `full_term`), copied because the product's is now a visitor.
mod frozen {
    use ii_core::dict::{classify, BTree, PartialDictionary, SlottedStore};

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct DictEntry {
        pub trie_index: u32,
        pub suffix: Vec<u8>,
        pub indexer: u32,
        pub postings: u32,
    }

    fn walk(store: &SlottedStore, node_idx: u32, out: &mut Vec<(Vec<u8>, u32)>) {
        let node = store.node(node_idx);
        let count = node.count as usize;
        for i in 0..count {
            if node.leaf == 0 {
                walk(store, node.children[i], out);
            }
            out.push((store.full_term(node_idx, i), node.postings_ptr[i]));
        }
        if node.leaf == 0 && count > 0 {
            walk(store, node.children[count], out);
        }
    }

    fn iter_terms(store: &SlottedStore, tree: &BTree) -> Vec<(Vec<u8>, u32)> {
        let mut out = Vec::new();
        walk(store, tree.root, &mut out);
        out
    }

    pub fn combine(parts: &[PartialDictionary]) -> Vec<DictEntry> {
        let mut entries = Vec::new();
        for p in parts {
            for ti in p.trie_indices() {
                let tree = p.tree(ti).expect("listed index has a tree");
                for (suffix, postings) in iter_terms(&p.store, &tree) {
                    entries.push(DictEntry {
                        trie_index: ti,
                        suffix,
                        indexer: p.indexer_id,
                        postings,
                    });
                }
            }
        }
        entries.sort_by(|a, b| {
            (a.trie_index, a.suffix.as_slice()).cmp(&(b.trie_index, b.suffix.as_slice()))
        });
        entries
    }

    pub fn lookup<'a>(entries: &'a [DictEntry], term: &str) -> Option<&'a DictEntry> {
        let (idx, suffix) = classify(term);
        entries
            .binary_search_by(|e| {
                (e.trie_index, e.suffix.as_slice()).cmp(&(idx.0, suffix.as_bytes()))
            })
            .ok()
            .map(|i| &entries[i])
    }

    impl DictEntry {
        pub fn full_term(&self) -> String {
            let mut s = ii_core::dict::TrieIndex(self.trie_index).prefix();
            s.push_str(&String::from_utf8_lossy(&self.suffix));
            s
        }
    }
}

/// The dictionary shards of `spec` indexed by `n_cpu` CPU and `n_gpu`
/// simulated-GPU indexers, one run per container file.
fn shards(spec: &CollectionSpec, n_cpu: usize, n_gpu: usize) -> Vec<PartialDictionary> {
    let gen = CollectionGenerator::new(spec.clone());
    let batches: Vec<_> = (0..spec.num_files)
        .map(|f| parse_documents(&gen.generate_file(f), spec.html, f))
        .collect();
    let plan = make_plan(&sample_counts(&batches[..1]), n_cpu, n_gpu, 2);
    let mut pool = IndexerPool::new(plan, GpuIndexerConfig::small(), Codec::VarByte);
    for b in &batches {
        pool.index_batch(b);
        pool.flush_run();
    }
    pool.finish()
}

/// What a look-up says, comparable across the two dictionaries.
type Found = Option<(u32, Vec<u8>, u32, u32)>;

fn flat_lookup(d: &GlobalDictionary, term: &str) -> Found {
    d.lookup(term).map(|e| (e.trie_index, e.suffix.to_vec(), e.indexer, e.postings))
}

fn frozen_lookup(entries: &[frozen::DictEntry], term: &str) -> Found {
    frozen::lookup(entries, term).map(|e| (e.trie_index, e.suffix.clone(), e.indexer, e.postings))
}

/// Terms nobody indexed, of every kind the directory has to route: beside
/// each hit in its collection, below a collection's first term and above its
/// last, in collections that hold nothing, shorter than the trie prefix,
/// numbers and `-` words (collections 0..=10), non-ASCII.
fn probes(entries: &[frozen::DictEntry]) -> Vec<String> {
    let mut out: Vec<String> = [
        "", "a", "ap", "app", "z", "zz", "zzz", "zzzz", "0", "007", "9", "954", "-80", "-", "3d",
        "12ab", "été", "añonuevo", "aaaé", "日本", "česky", "Apple",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut occupied = vec![false; TRIE_ENTRIES];
    for (i, e) in entries.iter().enumerate() {
        occupied[e.trie_index as usize] = true;
        let term = e.full_term();
        // Neighbours of a hit inside its collection.
        out.push(format!("{term}a"));
        out.push(format!("{term}\u{1}"));
        if let Some((cut, _)) = term.char_indices().last() {
            out.push(term[..cut].to_string());
        }
        let prefix = TrieIndex(e.trie_index).prefix();
        let first = i == 0 || entries[i - 1].trie_index != e.trie_index;
        let last = entries.get(i + 1).is_none_or(|next| next.trie_index != e.trie_index);
        if first {
            out.push(format!("{prefix}\u{0}"));
        }
        if last {
            out.push(format!("{term}{}", char::MAX));
            out.push(format!("{prefix}~~~~"));
        }
    }
    // A handful of collections that hold nothing, from both ends of the table.
    let empty = (0..TRIE_ENTRIES).filter(|&t| !occupied[t]);
    let empty: Vec<usize> = empty.clone().take(40).chain(empty.rev().take(40)).collect();
    for t in empty {
        let prefix = TrieIndex(t as u32).prefix();
        out.push(format!("{prefix}x"));
        out.push(format!("{prefix}xyzzy"));
    }
    out
}

fn assert_flat_matches_frozen(parts: &[PartialDictionary], what: &str) {
    let want = frozen::combine(parts);
    let got = GlobalDictionary::combine(parts);
    assert!(want.len() > 100, "{what}: a real dictionary, {} terms", want.len());
    assert_eq!(got.len(), want.len(), "{what}: term count");
    assert_eq!(got.is_empty(), want.is_empty());
    let listed: Vec<frozen::DictEntry> = got
        .entries()
        .map(|e| frozen::DictEntry {
            trie_index: e.trie_index,
            suffix: e.suffix.to_vec(),
            indexer: e.indexer,
            postings: e.postings,
        })
        .collect();
    assert!(listed == want, "{what}: entries differ in content or order");
    for e in &want {
        let term = e.full_term();
        let found = flat_lookup(&got, &term);
        assert_eq!(found, frozen_lookup(&want, &term), "{what}: hit {term:?}");
        assert!(found.is_some() && got.contains(&term), "{what}: {term:?} is indexed");
    }
    let mut misses = 0usize;
    for probe in probes(&want) {
        let found = flat_lookup(&got, &probe);
        assert_eq!(found, frozen_lookup(&want, &probe), "{what}: probe {probe:?}");
        misses += usize::from(found.is_none());
    }
    assert!(misses > want.len(), "{what}: the probes must mostly miss, {misses} did");
    let mut bytes = Vec::new();
    let written = got.write_to(&mut bytes).unwrap();
    assert_eq!(written as usize, bytes.len());
    let back = GlobalDictionary::read_from(&mut bytes.as_slice()).unwrap();
    assert!(back == got, "{what}: write_to -> read_from changed the dictionary");
    assert!(GlobalDictionary::from_bytes(&bytes).unwrap() == got);
}

/// `tiny` and a congress-shaped collection (HTML, 50 k vocabulary, Zipf
/// 1.05; fewer and shorter files than the preset so the simulated GPU stays
/// quick), each by one, two and three indexers.
#[test]
fn flat_dictionary_matches_the_frozen_vec_of_entries() {
    let congress = CollectionSpec { num_files: 3, docs_per_file: 40, ..CollectionSpec::congress_like(1.0) };
    for spec in [CollectionSpec::tiny(11), congress] {
        for (n_cpu, n_gpu) in [(1, 0), (1, 1), (2, 1)] {
            let parts = shards(&spec, n_cpu, n_gpu);
            assert_eq!(parts.len(), n_cpu + n_gpu);
            let what = format!("{} with {n_cpu} CPU + {n_gpu} GPU", spec.name);
            assert_flat_matches_frozen(&parts, &what);
        }
    }
}

/// The shard order handed to `combine` is not the order of the result.
#[test]
fn shard_order_does_not_matter() {
    let mut parts = shards(&CollectionSpec::tiny(5), 2, 1);
    let forward = GlobalDictionary::combine(&parts);
    parts.reverse();
    assert!(GlobalDictionary::combine(&parts) == forward);
    assert_flat_matches_frozen(&parts, "tiny, shards reversed");
}
