//! Structural verification of B-trees.
//!
//! The GPU indexer builds B-trees in device memory with warp-parallel
//! shifts and splits, and the CPU hot path builds slotted-node trees with
//! branch-free head search; after either, the trees must be *structurally*
//! valid, not merely return correct lookups. A device tree reaches the host
//! through [`SlottedStore::from_device`], so one checker covers both: it
//! checks every CLRS B-tree invariant over the slotted layout:
//!
//! 1. keys within each node are strictly increasing (slot order = key
//!    order);
//! 2. every non-root node holds ≥ MIN_KEYS keys, every node ≤ MAX_KEYS;
//! 3. all leaves sit at the same depth;
//! 4. subtree key ranges respect separator keys;
//! 5. postings handles are unique across the tree;
//! 6. string-cache / head contents match the first bytes of the stored
//!    term;
//! 7. slots at or above `count` hold the canonical empty
//!    form — [`HEAD_SENTINEL`] heads and `NULL` pointers — since the
//!    branch-free rank depends on the sentinel discipline.

use crate::node::{MAX_KEYS, MIN_KEYS, NULL};
use crate::slotted::{term_head, BTree, SlottedStore, HEAD_SENTINEL};

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BTreeViolation {
    /// Node key count outside the allowed band.
    BadCount {
        /// Node index.
        node: u32,
        /// Observed key count.
        count: u32,
    },
    /// Keys not strictly increasing within a node or across a separator.
    OutOfOrder {
        /// Node index.
        node: u32,
        /// Slot where order breaks.
        slot: usize,
    },
    /// Leaves at differing depths.
    UnevenLeaves {
        /// Depth of the offending leaf.
        found: usize,
        /// Depth of the first leaf seen.
        expected: usize,
    },
    /// A postings handle appears twice.
    DuplicateHandle {
        /// The repeated handle.
        handle: u32,
    },
    /// A child pointer is NULL where one is required.
    MissingChild {
        /// Node index.
        node: u32,
        /// Child slot.
        slot: usize,
    },
    /// A slot's 4-byte head does not encode the first bytes of its term.
    HeadMismatch {
        /// Node index.
        node: u32,
        /// Offending slot.
        slot: usize,
    },
    /// A slot at or above `count` is not in the canonical empty form
    /// (sentinel head, NULL pointers) — stale data that would corrupt the
    /// branch-free head rank.
    StaleSlot {
        /// Node index.
        node: u32,
        /// Offending slot.
        slot: usize,
    },
}

/// Check every invariant of a slotted-layout `tree`, including the two the
/// slotted layout adds: head consistency (each slot's head encodes the
/// first bytes of its full term) and the sentinel discipline for slots at
/// or above `count`. Returns all violations found.
pub fn verify_slotted(store: &SlottedStore, tree: &BTree) -> Vec<BTreeViolation> {
    let mut violations = Vec::new();
    let mut leaf_depth: Option<usize> = None;
    let mut seen_handles = std::collections::HashSet::new();
    let mut last_key: Option<Vec<u8>> = None;
    walk_slotted(
        store,
        tree.root,
        true,
        1,
        &mut leaf_depth,
        &mut seen_handles,
        &mut last_key,
        &mut violations,
    );
    violations
}

#[allow(clippy::too_many_arguments)]
fn walk_slotted(
    store: &SlottedStore,
    node_idx: u32,
    is_root: bool,
    depth: usize,
    leaf_depth: &mut Option<usize>,
    seen: &mut std::collections::HashSet<u32>,
    last_key: &mut Option<Vec<u8>>,
    out: &mut Vec<BTreeViolation>,
) {
    let node = store.node(node_idx);
    let count = (node.count as usize).min(MAX_KEYS);
    let min = if is_root { 0 } else { MIN_KEYS };
    if node.count as usize > MAX_KEYS || (node.count as usize) < min {
        out.push(BTreeViolation::BadCount { node: node_idx, count: node.count });
    }
    if node.is_leaf() {
        match *leaf_depth {
            None => *leaf_depth = Some(depth),
            Some(expected) if expected != depth => {
                out.push(BTreeViolation::UnevenLeaves { found: depth, expected });
            }
            _ => {}
        }
    }
    for slot in 0..count {
        if !node.is_leaf() {
            let child = node.children[slot];
            if child == NULL {
                out.push(BTreeViolation::MissingChild { node: node_idx, slot });
            } else {
                walk_slotted(store, child, false, depth + 1, leaf_depth, seen, last_key, out);
            }
        }
        let key = store.full_term(node_idx, slot);
        if node.heads[slot] != term_head(&key) {
            out.push(BTreeViolation::HeadMismatch { node: node_idx, slot });
        }
        if let Some(prev) = last_key.as_ref() {
            if *prev >= key {
                out.push(BTreeViolation::OutOfOrder { node: node_idx, slot });
            }
        }
        *last_key = Some(key);
        let handle = node.postings_ptr[slot];
        if !seen.insert(handle) {
            out.push(BTreeViolation::DuplicateHandle { handle });
        }
    }
    // Sentinel discipline above `count`: a stale head below the sentinel
    // would inflate the branch-free rank past `count` and corrupt inserts.
    for slot in count..MAX_KEYS {
        if node.heads[slot] != HEAD_SENTINEL
            || node.term_ptr[slot] != NULL
            || node.postings_ptr[slot] != NULL
        {
            out.push(BTreeViolation::StaleSlot { node: node_idx, slot });
        }
    }
    if !node.is_leaf() && count > 0 {
        let child = node.children[count];
        if child == NULL {
            out.push(BTreeViolation::MissingChild { node: node_idx, slot: count });
        } else {
            walk_slotted(store, child, false, depth + 1, leaf_depth, seen, last_key, out);
        }
    }
}

/// A violated invariant of the combined [`GlobalDictionary`].
///
/// [`GlobalDictionary`]: crate::dictionary::GlobalDictionary
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalViolation {
    /// Entries not strictly sorted by `(trie_index, suffix)` — implies a
    /// duplicate or misordered term.
    EntriesOutOfOrder {
        /// Index of the offending entry (the later of the pair).
        index: usize,
    },
    /// The same `(indexer, postings)` handle is claimed by two terms.
    DuplicatePostings {
        /// Owning indexer.
        indexer: u32,
        /// The repeated postings handle.
        postings: u32,
    },
}

/// Verify the combined dictionary: entries strictly sorted and unique by
/// `(trie_index, suffix)`, and every `(indexer, postings)` handle claimed
/// by exactly one term. Returns all violations found.
pub fn verify_global(dict: &crate::dictionary::GlobalDictionary) -> Vec<GlobalViolation> {
    let mut out = Vec::new();
    let mut prev = None;
    let mut seen = std::collections::HashSet::new();
    for (i, e) in dict.entries().enumerate() {
        let key = (e.trie_index, e.suffix);
        if prev.is_some_and(|p| p >= key) {
            out.push(GlobalViolation::EntriesOutOfOrder { index: i });
        }
        prev = Some(key);
        if !seen.insert((e.indexer, e.postings)) {
            out.push(GlobalViolation::DuplicatePostings {
                indexer: e.indexer,
                postings: e.postings,
            });
        }
    }
    out
}

/// Verify every tree of a dictionary shard (slotted layout, including head
/// consistency and fill bounds); returns `(trie index, violations)` for
/// trees with problems.
pub fn verify_shard(dict: &crate::dictionary::PartialDictionary) -> Vec<(u32, Vec<BTreeViolation>)> {
    let mut out = Vec::new();
    for ti in dict.trie_indices() {
        let tree = dict.tree(ti).expect("listed tree");
        let v = verify_slotted(&dict.store, &tree);
        if !v.is_empty() {
            out.push((ti, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::StringArena;
    use crate::node::BTreeNode;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// `keys` inserted into a fresh tree, then the store as a simulated GPU
    /// would hand it back: its Table II nodes, edited by `damage`, and its
    /// string arena, downloaded through [`SlottedStore::from_device`].
    fn downloaded<S: AsRef<[u8]>>(
        keys: &[S],
        damage: impl FnOnce(&mut [BTreeNode], BTree),
    ) -> (SlottedStore, BTree) {
        let mut store = SlottedStore::new();
        let mut tree = store.new_tree();
        for k in keys {
            store.insert(&mut tree, k.as_ref());
        }
        let mut nodes = store.to_device_nodes();
        damage(&mut nodes, tree);
        let strings = StringArena::from_bytes(store.strings.as_bytes().to_vec());
        (SlottedStore::from_device(&nodes, strings, store.term_count()), tree)
    }

    #[test]
    fn healthy_tree_verifies_clean() {
        // A tree downloaded from the device layout keeps every invariant.
        let mut keys: Vec<String> = (0..500).map(|i| format!("k{i:04}")).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(1));
        let (store, tree) = downloaded(&keys, |_, _| {});
        assert!(store.depth(&tree) >= 2);
        assert_eq!(verify_slotted(&store, &tree), vec![]);
    }

    #[test]
    fn healthy_slotted_tree_verifies_clean() {
        let mut store = SlottedStore::new();
        let mut tree = store.new_tree();
        let mut keys: Vec<String> = (0..500).map(|i| format!("k{i:04}")).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(1));
        for k in &keys {
            store.insert(&mut tree, k.as_bytes());
        }
        assert_eq!(verify_slotted(&store, &tree), vec![]);
    }

    #[test]
    fn empty_and_tiny_trees_verify() {
        let mut slotted = SlottedStore::new();
        let st = slotted.new_tree();
        assert_eq!(verify_slotted(&slotted, &st), vec![]);
        let mut st2 = slotted.new_tree();
        slotted.insert(&mut st2, b"only");
        assert_eq!(verify_slotted(&slotted, &st2), vec![]);
    }

    #[test]
    fn corruption_is_detected() {
        // Distinct 4-byte caches so a cache swap breaks key order: swap two
        // in the root's device node.
        let keys: Vec<String> = (0..100).map(|i| format!("{i:04}")).collect();
        let (store, tree) =
            downloaded(&keys, |nodes, tree| nodes[tree.root as usize].cache.swap(0, 1));
        let violations = verify_slotted(&store, &tree);
        assert!(
            violations.iter().any(|v| matches!(v, BTreeViolation::OutOfOrder { .. })),
            "expected OutOfOrder, got {violations:?}"
        );
    }

    #[test]
    fn slotted_head_corruption_detected() {
        let mut store = SlottedStore::new();
        let mut tree = store.new_tree();
        for i in 0..100 {
            store.insert(&mut tree, format!("term{i:04}x").as_bytes());
        }
        // A zero-padded (short) head on a slot that still points at a
        // remainder is incoherent: the reconstructed term's first bytes no
        // longer match the stored head.
        let root = tree.root;
        store.node_mut(root).heads[0] = term_head(b"t");
        let violations = verify_slotted(&store, &tree);
        assert!(
            violations.iter().any(|v| matches!(v, BTreeViolation::HeadMismatch { .. })),
            "expected HeadMismatch, got {violations:?}"
        );
    }

    #[test]
    fn slotted_stale_slot_detected() {
        let mut store = SlottedStore::new();
        let mut tree = store.new_tree();
        store.insert(&mut tree, b"aa");
        store.insert(&mut tree, b"bb");
        // A head below the sentinel in an unused slot corrupts the rank.
        store.node_mut(tree.root).heads[5] = 0;
        let violations = verify_slotted(&store, &tree);
        assert!(
            violations.iter().any(|v| matches!(v, BTreeViolation::StaleSlot { slot: 5, .. })),
            "expected StaleSlot, got {violations:?}"
        );
    }

    #[test]
    fn duplicate_handles_detected() {
        let (store, tree) = downloaded(&["aa", "bb"], |nodes, tree| {
            let root = &mut nodes[tree.root as usize];
            root.postings_ptr[1] = root.postings_ptr[0];
        });
        let violations = verify_slotted(&store, &tree);
        assert!(violations
            .iter()
            .any(|v| matches!(v, BTreeViolation::DuplicateHandle { .. })));
    }

    #[test]
    fn slotted_duplicate_handles_detected() {
        let mut store = SlottedStore::new();
        let mut tree = store.new_tree();
        store.insert(&mut tree, b"aa");
        store.insert(&mut tree, b"bb");
        let root = store.node_mut(tree.root);
        root.postings_ptr[1] = root.postings_ptr[0];
        let violations = verify_slotted(&store, &tree);
        assert!(violations
            .iter()
            .any(|v| matches!(v, BTreeViolation::DuplicateHandle { .. })));
    }

    #[test]
    fn global_dictionary_verifies_and_detects_duplicates() {
        let mut a = crate::dictionary::PartialDictionary::new(0);
        for t in ["alpha", "beta", "gamma"] {
            crate::dictionary::insert_surface(&mut a, t);
        }
        let dict = crate::dictionary::GlobalDictionary::combine(&[a]);
        assert_eq!(verify_global(&dict), vec![]);
        // Two shards sharing indexer_id 0 collide on postings handles —
        // exactly the corruption verify_global must catch.
        let mut b = crate::dictionary::PartialDictionary::new(0);
        let mut c = crate::dictionary::PartialDictionary::new(0);
        crate::dictionary::insert_surface(&mut b, "delta");
        crate::dictionary::insert_surface(&mut c, "omega");
        let bad = crate::dictionary::GlobalDictionary::combine(&[b, c]);
        assert!(verify_global(&bad)
            .iter()
            .any(|v| matches!(v, GlobalViolation::DuplicatePostings { .. })));
    }

    #[test]
    fn undercount_detected() {
        // Force a split so there are non-root nodes, then truncate a child's
        // device node below MIN_KEYS.
        let keys: Vec<String> = (0..64).map(|i| format!("{i:04}")).collect();
        let (store, tree) = downloaded(&keys, |nodes, tree| {
            let child = nodes[tree.root as usize].children[0];
            nodes[child as usize].count = 1;
        });
        let violations = verify_slotted(&store, &tree);
        assert!(violations.iter().any(|v| matches!(v, BTreeViolation::BadCount { .. })));
    }

    #[test]
    fn slotted_undercount_detected() {
        let mut store = SlottedStore::new();
        let mut tree = store.new_tree();
        for i in 0..64 {
            store.insert(&mut tree, format!("{i:04}").as_bytes());
        }
        let child = store.node(tree.root).children[0];
        store.node_mut(child).count = 1;
        let violations = verify_slotted(&store, &tree);
        assert!(violations.iter().any(|v| matches!(v, BTreeViolation::BadCount { .. })));
    }

    #[test]
    fn verify_shard_runs_slotted_checks() {
        let mut d = crate::dictionary::PartialDictionary::new(0);
        for t in ["alpha", "beta", "gamma", "delta"] {
            crate::dictionary::insert_surface(&mut d, t);
        }
        assert_eq!(verify_shard(&d), vec![]);
        // Corrupt one tree's root head: verify_shard must flag that trie.
        let ti = d.trie_indices().next().unwrap();
        let root = d.tree(ti).unwrap().root;
        d.store.node_mut(root).heads[0] ^= 0xFF;
        let bad = verify_shard(&d);
        assert!(bad.iter().any(|(t, vs)| {
            *t == ti && vs.iter().any(|v| matches!(v, BTreeViolation::HeadMismatch { .. }))
        }));
    }
}
