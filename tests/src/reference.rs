//! Frozen reference dictionary — the pre-slotted shard, kept for
//! differential testing.
//!
//! [`ReferenceDictionary`] is exactly what `ii_dict::PartialDictionary` was
//! before the slotted-node rewrite: a [`BTreeStore`] (binary search over
//! `[u8; 4]` caches, per-visit node clones, eager string fallback) plus a
//! `HashMap` from trie index to tree root. [`combine_reference`] gathers
//! tree by tree, sorts globally and writes the `dictionary.bin` bytes by
//! hand, so the product's combine, writer and reader are all held to it.
//! Do not optimize it — its value is that it stays the old code. The
//! differential suite in `tests/dict_diff.rs` drives arbitrary term streams
//! through both paths and requires identical outcomes, handles, and
//! combined output.

use crate::btree::BTreeStore;
use ii_core::dict::{classify, trie_index, BTree, GlobalDictionary, InsertOutcome, TRIE_ENTRIES};
use std::collections::HashMap;

/// The pre-slotted dictionary shard, frozen as the differential reference.
#[derive(Clone, Debug, Default)]
pub struct ReferenceDictionary {
    /// Identifier of the owning indexer (used in postings locations).
    pub indexer_id: u32,
    /// Shared arenas for all this indexer's B-trees (Table II layout).
    pub store: BTreeStore,
    trees: HashMap<u32, BTree>,
}

impl ReferenceDictionary {
    /// Create an empty reference shard for `indexer_id`.
    pub fn new(indexer_id: u32) -> Self {
        ReferenceDictionary { indexer_id, ..Default::default() }
    }

    /// Insert a prefix-stripped term into the B-tree of `trie_idx`
    /// (created lazily) — the frozen insert path.
    pub fn insert_reference(&mut self, trie_idx: u32, suffix: &[u8]) -> InsertOutcome {
        let store = &mut self.store;
        let tree = self.trees.entry(trie_idx).or_insert_with(|| store.new_tree());
        store.insert(tree, suffix)
    }

    /// Look up a prefix-stripped term — the frozen lookup path.
    pub fn lookup_reference(&mut self, trie_idx: u32, suffix: &[u8]) -> Option<u32> {
        let tree = *self.trees.get(&trie_idx)?;
        self.store.get(&tree, suffix)
    }

    /// The B-tree handle for a trie collection, if any terms were inserted.
    pub fn tree(&self, trie_idx: u32) -> Option<BTree> {
        self.trees.get(&trie_idx).copied()
    }

    /// Trie collections present in this shard.
    pub fn trie_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.trees.keys().copied()
    }

    /// Number of distinct terms in the shard.
    pub fn term_count(&self) -> u32 {
        self.store.term_count()
    }
}

/// Combine reference shards into a [`GlobalDictionary`] — the frozen
/// combine (gather tree by tree, then global sort), serialised in the
/// `IIDT` layout (magic, term count, arena length; directory, owner, offset
/// and handle columns; suffix arena) and read back.
pub fn combine_reference(parts: &[ReferenceDictionary]) -> GlobalDictionary {
    let mut entries: Vec<(u32, Vec<u8>, u32, u32)> = Vec::new();
    for p in parts {
        let mut idxs: Vec<u32> = p.trie_indices().collect();
        idxs.sort_unstable();
        for ti in idxs {
            let tree = p.tree(ti).expect("listed index has a tree");
            for (suffix, postings) in p.store.iter_terms(&tree) {
                entries.push((ti, suffix, p.indexer_id, postings));
            }
        }
    }
    entries.sort_by(|a, b| (a.0, a.1.as_slice()).cmp(&(b.0, b.1.as_slice())));
    let mut dir = vec![0u32; TRIE_ENTRIES + 1];
    let mut owners = vec![0u32; TRIE_ENTRIES];
    let (mut offsets, mut handles, mut arena) = (vec![0u32], Vec::new(), Vec::new());
    for (ti, suffix, indexer, postings) in &entries {
        dir[*ti as usize + 1] += 1;
        owners[*ti as usize] = *indexer;
        arena.extend_from_slice(suffix);
        offsets.push(arena.len() as u32);
        handles.push(*postings);
    }
    for t in 0..TRIE_ENTRIES {
        dir[t + 1] += dir[t];
    }
    let mut bytes = b"IIDT".to_vec();
    bytes.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&(arena.len() as u32).to_le_bytes());
    for column in [&dir, &owners, &offsets, &handles] {
        column.iter().for_each(|v| bytes.extend_from_slice(&v.to_le_bytes()));
    }
    bytes.extend_from_slice(&arena);
    GlobalDictionary::from_bytes(&bytes).expect("the reference writes a valid dictionary")
}

/// Insert a *surface* term (classified internally) into a reference shard.
pub fn insert_surface_reference(
    dict: &mut ReferenceDictionary,
    term: &str,
) -> InsertOutcome {
    let (idx, suffix) = classify(term);
    dict.insert_reference(idx.0, suffix.as_bytes())
}

/// Look up a surface term in a reference shard.
pub fn lookup_surface_reference(dict: &mut ReferenceDictionary, term: &str) -> Option<u32> {
    let idx = trie_index(term);
    let suffix = &term[idx.prefix_len()..];
    dict.lookup_reference(idx.0, suffix.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_insert_and_lookup() {
        let mut d = ReferenceDictionary::new(0);
        let a = insert_surface_reference(&mut d, "application");
        assert!(a.is_new);
        let b = insert_surface_reference(&mut d, "application");
        assert!(!b.is_new);
        assert_eq!(b.postings, a.postings);
        assert_eq!(lookup_surface_reference(&mut d, "application"), Some(a.postings));
        assert_eq!(lookup_surface_reference(&mut d, "apple"), None);
        assert_eq!(d.term_count(), 1);
    }

    #[test]
    fn combine_reference_matches_new_path() {
        use ii_core::dict::{insert_surface, PartialDictionary};
        let terms =
            ["apple", "applesauce", "zebra", "zeal", "954", "-80", "a", "apple", "zebra"];
        let mut rd = ReferenceDictionary::new(3);
        let mut nd = PartialDictionary::new(3);
        for t in terms {
            let a = insert_surface_reference(&mut rd, t);
            let b = insert_surface(&mut nd, t);
            assert_eq!(a, b, "outcome diverged on {t}");
        }
        let g_ref = combine_reference(&[rd]);
        let g_new = GlobalDictionary::combine(&[nd]);
        assert_eq!(g_ref, g_new);
        let mut a = Vec::new();
        let mut b = Vec::new();
        g_ref.write_to(&mut a).unwrap();
        g_new.write_to(&mut b).unwrap();
        assert_eq!(a, b, "serialized dictionaries must be byte-identical");
    }
}
