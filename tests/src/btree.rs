//! CPU B-tree operations over the 512-byte node layout (paper §III.D.1).
//!
//! Classic degree-16 B-tree insertion with preemptive splitting, specialized
//! for the string-cache layout: every comparison first looks at the 4-byte
//! in-node cache and touches the out-of-node remainder only when the caches
//! tie — the paper's observation is that two arbitrary terms rarely share a
//! 4-byte prefix, so most comparisons never leave the node.
//!
//! **Frozen.** This is the host insert path as it was before the slotted
//! rewrite (`ii_dict::slotted`), kept byte-for-byte as the differential
//! oracle of [`crate::reference`] and `tests/dict_diff.rs`. Do not optimize
//! it — its value is that it stays the old code.

use ii_core::dict::arena::StringArena;
use ii_core::dict::node::{BTreeNode, MAX_KEYS, NULL};
use ii_core::dict::{BTree, InsertOutcome};
use std::cmp::Ordering;

/// Append-only node storage addressed by `u32` node indices.
#[derive(Clone, Debug, Default)]
pub struct NodeArena {
    nodes: Vec<BTreeNode>,
}

impl NodeArena {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh empty leaf, returning its index.
    pub fn alloc(&mut self) -> u32 {
        let idx = self.nodes.len() as u32;
        assert!(idx != NULL, "node arena exhausted");
        self.nodes.push(BTreeNode::default());
        idx
    }

    /// Shared access to a node.
    pub fn get(&self, idx: u32) -> &BTreeNode {
        &self.nodes[idx as usize]
    }

    /// Mutable access to a node.
    pub fn get_mut(&mut self, idx: u32) -> &mut BTreeNode {
        &mut self.nodes[idx as usize]
    }

    /// Number of nodes allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been allocated.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[BTreeNode] {
        &self.nodes
    }
}

/// Backing storage for all B-trees owned by one indexer: node arena, string
/// arena, postings-handle allocator and comparison statistics. Trees in the
/// same store share arenas but are structurally independent, so one indexer
/// thread can own many trie collections without any locking.
#[derive(Clone, Debug, Default)]
pub struct BTreeStore {
    /// Node storage.
    pub nodes: NodeArena,
    /// Term-remainder storage.
    pub strings: StringArena,
    next_postings: u32,
    /// Comparisons settled by the 4-byte cache alone.
    pub cache_hits: u64,
    /// Comparisons that had to read the string remainder.
    pub cache_misses: u64,
    /// B-TREE-SPLIT-CHILD invocations across all trees in the store.
    pub node_splits: u64,
}

impl BTreeStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new empty tree (root is an empty leaf).
    pub fn new_tree(&mut self) -> BTree {
        BTree { root: self.nodes.alloc() }
    }

    /// Number of distinct terms ever inserted across all trees in the store
    /// (== number of postings handles issued).
    pub fn term_count(&self) -> u32 {
        self.next_postings
    }

    /// Compare the probe `term` against key `slot` of `node`.
    fn cmp_key(&mut self, node: &BTreeNode, slot: usize, term: &[u8]) -> Ordering {
        let probe_cache = BTreeNode::make_cache(term);
        match probe_cache.cmp(&node.cache[slot]) {
            Ordering::Equal => {
                let key_rem: &[u8] = if node.term_ptr[slot] == NULL {
                    b""
                } else {
                    self.strings.get(node.term_ptr[slot])
                };
                let probe_rem: &[u8] = if term.len() > 4 { &term[4..] } else { b"" };
                if key_rem.is_empty() && probe_rem.is_empty() {
                    self.cache_hits += 1;
                    Ordering::Equal
                } else {
                    self.cache_misses += 1;
                    probe_rem.cmp(key_rem)
                }
            }
            ord => {
                self.cache_hits += 1;
                ord
            }
        }
    }

    /// Binary-search `term` among the first `count` keys of `node`.
    /// Returns `Ok(slot)` when found, `Err(slot)` with the child/insert
    /// position otherwise.
    fn search_node(&mut self, node: &BTreeNode, term: &[u8]) -> Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = node.count as usize;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.cmp_key(node, mid, term) {
                Ordering::Equal => return Ok(mid),
                Ordering::Greater => lo = mid + 1,
                Ordering::Less => hi = mid,
            }
        }
        Err(lo)
    }

    /// Install `term` into `node[slot]`, splitting it into cache +
    /// remainder and assigning a fresh postings handle.
    fn set_key(&mut self, node_idx: u32, slot: usize, term: &[u8]) -> u32 {
        let cache = BTreeNode::make_cache(term);
        let rem_ptr = if term.len() > 4 { self.strings.alloc(&term[4..]) } else { NULL };
        let postings = self.next_postings;
        self.next_postings += 1;
        let node = self.nodes.get_mut(node_idx);
        node.cache[slot] = cache;
        node.term_ptr[slot] = rem_ptr;
        node.postings_ptr[slot] = postings;
        postings
    }

    /// Split the full child `ci` of `parent_idx` (CLRS B-TREE-SPLIT-CHILD).
    fn split_child(&mut self, parent_idx: u32, ci: usize) {
        self.node_splits += 1;
        let left_idx = self.nodes.get(parent_idx).children[ci];
        let right_idx = self.nodes.alloc();
        let mid = MAX_KEYS / 2; // 15: median key index

        // Copy the upper keys/children out of the left node.
        let left = self.nodes.get(left_idx).clone();
        debug_assert!(left.is_full());
        {
            let right = self.nodes.get_mut(right_idx);
            right.leaf = left.leaf;
            right.count = (MAX_KEYS - mid - 1) as u32; // 15 keys
            for k in 0..(MAX_KEYS - mid - 1) {
                right.cache[k] = left.cache[mid + 1 + k];
                right.term_ptr[k] = left.term_ptr[mid + 1 + k];
                right.postings_ptr[k] = left.postings_ptr[mid + 1 + k];
            }
            if left.leaf == 0 {
                for k in 0..(MAX_KEYS - mid) {
                    right.children[k] = left.children[mid + 1 + k];
                }
            }
        }
        {
            let lnode = self.nodes.get_mut(left_idx);
            lnode.count = mid as u32;
            for k in mid + 1..MAX_KEYS {
                lnode.cache[k] = [0; 4];
                lnode.term_ptr[k] = NULL;
                lnode.postings_ptr[k] = NULL;
            }
            if lnode.leaf == 0 {
                for k in mid + 1..=MAX_KEYS {
                    lnode.children[k] = NULL;
                }
            }
        }
        // Insert the median into the parent at slot ci.
        let parent = self.nodes.get_mut(parent_idx);
        let pcount = parent.count as usize;
        debug_assert!(pcount < MAX_KEYS);
        for k in (ci..pcount).rev() {
            parent.cache[k + 1] = parent.cache[k];
            parent.term_ptr[k + 1] = parent.term_ptr[k];
            parent.postings_ptr[k + 1] = parent.postings_ptr[k];
        }
        for k in (ci + 1..=pcount).rev() {
            parent.children[k + 1] = parent.children[k];
        }
        parent.cache[ci] = left.cache[mid];
        parent.term_ptr[ci] = left.term_ptr[mid];
        parent.postings_ptr[ci] = left.postings_ptr[mid];
        parent.children[ci + 1] = right_idx;
        parent.count += 1;
    }

    /// Insert `term` (already trie-prefix-stripped) into `tree`, returning
    /// its postings handle and whether it is new.
    pub fn insert(&mut self, tree: &mut BTree, term: &[u8]) -> InsertOutcome {
        if self.nodes.get(tree.root).is_full() {
            let new_root = self.nodes.alloc();
            {
                let nr = self.nodes.get_mut(new_root);
                nr.leaf = 0;
                nr.children[0] = tree.root;
            }
            self.split_child(new_root, 0);
            tree.root = new_root;
        }
        self.insert_nonfull(tree.root, term)
    }

    fn insert_nonfull(&mut self, mut node_idx: u32, term: &[u8]) -> InsertOutcome {
        loop {
            let node = self.nodes.get(node_idx).clone();
            match self.search_node(&node, term) {
                Ok(slot) => {
                    return InsertOutcome {
                        postings: node.postings_ptr[slot],
                        is_new: false,
                    };
                }
                Err(pos) => {
                    if node.is_leaf() {
                        // Shift and insert (the paper's parallel-shift on
                        // GPU; sequential here).
                        let count = node.count as usize;
                        debug_assert!(count < MAX_KEYS);
                        {
                            let n = self.nodes.get_mut(node_idx);
                            for k in (pos..count).rev() {
                                n.cache[k + 1] = n.cache[k];
                                n.term_ptr[k + 1] = n.term_ptr[k];
                                n.postings_ptr[k + 1] = n.postings_ptr[k];
                            }
                            n.count += 1;
                        }
                        let postings = self.set_key(node_idx, pos, term);
                        return InsertOutcome { postings, is_new: true };
                    }
                    let child = node.children[pos];
                    if self.nodes.get(child).is_full() {
                        self.split_child(node_idx, pos);
                        // The median moved up into `pos`; re-compare.
                        let parent = self.nodes.get(node_idx).clone();
                        match self.cmp_key(&parent, pos, term) {
                            Ordering::Equal => {
                                return InsertOutcome {
                                    postings: parent.postings_ptr[pos],
                                    is_new: false,
                                };
                            }
                            Ordering::Greater => node_idx = parent.children[pos + 1],
                            Ordering::Less => node_idx = parent.children[pos],
                        }
                    } else {
                        node_idx = child;
                    }
                }
            }
        }
    }

    /// Look up `term`, returning its postings handle if present.
    pub fn get(&mut self, tree: &BTree, term: &[u8]) -> Option<u32> {
        let mut node_idx = tree.root;
        loop {
            let node = self.nodes.get(node_idx).clone();
            match self.search_node(&node, term) {
                Ok(slot) => return Some(node.postings_ptr[slot]),
                Err(pos) => {
                    if node.is_leaf() {
                        return None;
                    }
                    node_idx = node.children[pos];
                }
            }
        }
    }

    /// Reconstruct the full stored term at `slot` of `node`.
    pub fn full_term(&self, node: &BTreeNode, slot: usize) -> Vec<u8> {
        let cache = &node.cache[slot];
        let cache_len = cache.iter().position(|&b| b == 0).unwrap_or(4);
        let mut out = cache[..cache_len].to_vec();
        if node.term_ptr[slot] != NULL {
            out.extend_from_slice(self.strings.get(node.term_ptr[slot]));
        }
        out
    }

    /// In-order traversal: `(term, postings handle)` in lexicographic order.
    pub fn iter_terms(&self, tree: &BTree) -> Vec<(Vec<u8>, u32)> {
        let mut out = Vec::new();
        self.walk(tree.root, &mut out);
        out
    }

    fn walk(&self, node_idx: u32, out: &mut Vec<(Vec<u8>, u32)>) {
        let node = self.nodes.get(node_idx);
        let count = node.count as usize;
        for i in 0..count {
            if node.leaf == 0 {
                self.walk(node.children[i], out);
            }
            out.push((self.full_term(node, i), node.postings_ptr[i]));
        }
        if node.leaf == 0 && count > 0 {
            self.walk(node.children[count], out);
        }
    }

    /// Height of the tree (number of levels; 1 for a lone leaf). The paper
    /// bounds it by log_t((n+1)/2).
    pub fn depth(&self, tree: &BTree) -> usize {
        let mut d = 1;
        let mut idx = tree.root;
        while self.nodes.get(idx).leaf == 0 {
            idx = self.nodes.get(idx).children[0];
            d += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn fresh() -> (BTreeStore, BTree) {
        let mut s = BTreeStore::new();
        let t = s.new_tree();
        (s, t)
    }

    #[test]
    fn insert_and_get() {
        let (mut s, mut t) = fresh();
        let a = s.insert(&mut t, b"lication");
        assert!(a.is_new);
        let b = s.insert(&mut t, b"le"); // "apple" suffix
        assert!(b.is_new);
        let a2 = s.insert(&mut t, b"lication");
        assert!(!a2.is_new);
        assert_eq!(a2.postings, a.postings);
        assert_eq!(s.get(&t, b"lication"), Some(a.postings));
        assert_eq!(s.get(&t, b"le"), Some(b.postings));
        assert_eq!(s.get(&t, b"missing"), None);
    }

    #[test]
    fn empty_term_is_a_valid_key() {
        // Terms like "9" strip to an empty suffix in collection 10.
        let (mut s, mut t) = fresh();
        let e = s.insert(&mut t, b"");
        assert!(e.is_new);
        let x = s.insert(&mut t, b"x");
        assert_eq!(s.get(&t, b""), Some(e.postings));
        assert_eq!(s.get(&t, b"x"), Some(x.postings));
        let terms = s.iter_terms(&t);
        assert_eq!(terms[0].0, b"");
    }

    #[test]
    fn split_produces_sorted_iteration() {
        let (mut s, mut t) = fresh();
        // Enough keys to force multiple splits (> 31).
        let mut keys: Vec<String> = (0..200).map(|i| format!("key{i:04}")).collect();
        let mut rng = StdRng::seed_from_u64(5);
        keys.shuffle(&mut rng);
        for k in &keys {
            s.insert(&mut t, k.as_bytes());
        }
        let terms = s.iter_terms(&t);
        assert_eq!(terms.len(), 200);
        let got: Vec<&[u8]> = terms.iter().map(|(t, _)| t.as_slice()).collect();
        let mut want: Vec<Vec<u8>> = keys.iter().map(|k| k.as_bytes().to_vec()).collect();
        want.sort();
        assert_eq!(got, want.iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        assert!(s.depth(&t) >= 2);
        assert!(s.node_splits >= 6, "200 keys over 31-key nodes must split: {}", s.node_splits);
    }

    #[test]
    fn duplicate_inserts_share_postings_handle() {
        let (mut s, mut t) = fresh();
        let mut handles = std::collections::HashMap::new();
        let mut rng = StdRng::seed_from_u64(9);
        let mut keys: Vec<String> = (0..100).map(|i| format!("t{i}")).collect();
        keys.shuffle(&mut rng);
        for pass in 0..3 {
            for k in &keys {
                let out = s.insert(&mut t, k.as_bytes());
                if pass == 0 {
                    assert!(out.is_new);
                    handles.insert(k.clone(), out.postings);
                } else {
                    assert!(!out.is_new, "{k} duplicated on pass {pass}");
                    assert_eq!(out.postings, handles[k]);
                }
            }
        }
        assert_eq!(s.term_count(), 100);
    }

    #[test]
    fn long_shared_prefixes_resolved_by_remainder() {
        let (mut s, mut t) = fresh();
        // All share the 4-byte cache "abcd"; remainders must disambiguate.
        let keys = ["abcdzzz", "abcdaaa", "abcd", "abcdmmm", "abcdzza"];
        for k in keys {
            assert!(s.insert(&mut t, k.as_bytes()).is_new);
        }
        for k in keys {
            assert!(s.get(&t, k.as_bytes()).is_some(), "{k} lost");
        }
        let terms = s.iter_terms(&t);
        let got: Vec<Vec<u8>> = terms.into_iter().map(|(t, _)| t).collect();
        let mut want: Vec<Vec<u8>> = keys.iter().map(|k| k.as_bytes().to_vec()).collect();
        want.sort();
        assert_eq!(got, want);
        assert!(s.cache_misses > 0);
    }

    #[test]
    fn short_terms_live_in_cache_only() {
        let (mut s, mut t) = fresh();
        s.insert(&mut t, b"ab");
        s.insert(&mut t, b"abcd");
        assert_eq!(s.strings.len_bytes(), 0, "no remainders should be allocated");
        s.insert(&mut t, b"abcde");
        assert!(s.strings.len_bytes() > 0);
    }

    #[test]
    fn depth_grows_logarithmically() {
        let (mut s, mut t) = fresh();
        for i in 0..10_000u32 {
            s.insert(&mut t, format!("{i:08x}").as_bytes());
        }
        let d = s.depth(&t);
        // log_16(10001/2) ≈ 3.1; CLRS bound gives height ≤ 1 + that.
        assert!((3..=5).contains(&d), "depth {d} out of expected band");
    }

    #[test]
    fn separate_trees_in_one_store_are_independent() {
        let mut s = BTreeStore::new();
        let mut t1 = s.new_tree();
        let mut t2 = s.new_tree();
        s.insert(&mut t1, b"alpha");
        s.insert(&mut t2, b"beta");
        assert!(s.get(&t1, b"beta").is_none());
        assert!(s.get(&t2, b"alpha").is_none());
        assert_eq!(s.iter_terms(&t1).len(), 1);
        assert_eq!(s.iter_terms(&t2).len(), 1);
    }

    #[test]
    fn node_arena_alloc_and_access() {
        let mut a = NodeArena::new();
        let n0 = a.alloc();
        let n1 = a.alloc();
        assert_eq!(n0, 0);
        assert_eq!(n1, 1);
        a.get_mut(n1).count = 5;
        assert_eq!(a.get(n1).count, 5);
        assert_eq!(a.get(n0).count, 0);
        assert_eq!(a.len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_btree_matches_btreemap(keys in proptest::collection::vec("[a-f]{0,10}", 1..300)) {
            let (mut s, mut t) = fresh();
            let mut model = std::collections::BTreeMap::new();
            for k in &keys {
                let out = s.insert(&mut t, k.as_bytes());
                let expect_new = !model.contains_key(k.as_bytes());
                prop_assert_eq!(out.is_new, expect_new);
                model.entry(k.as_bytes().to_vec()).or_insert(out.postings);
                prop_assert_eq!(*model.get(k.as_bytes()).unwrap(), out.postings);
            }
            // Full iteration equals the model.
            let got: Vec<(Vec<u8>, u32)> = s.iter_terms(&t);
            let want: Vec<(Vec<u8>, u32)> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_get_after_insert(keys in proptest::collection::vec("[a-z0-9]{0,12}", 1..100)) {
            let (mut s, mut t) = fresh();
            let mut handles = std::collections::HashMap::new();
            for k in &keys {
                let out = s.insert(&mut t, k.as_bytes());
                handles.entry(k.clone()).or_insert(out.postings);
            }
            for (k, h) in &handles {
                prop_assert_eq!(s.get(&t, k.as_bytes()), Some(*h));
            }
            prop_assert_eq!(s.get(&t, b"~~~not-present~~~"), None);
        }
    }
}
