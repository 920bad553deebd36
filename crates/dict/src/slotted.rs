//! Slotted-node B-tree — the dictionary's one host B-tree.
//!
//! The original host path stored each key's 4-byte string cache as
//! `[u8; 4]` in the Table II node and walked nodes with a branchy binary
//! search that cloned 512-byte nodes and re-derived the probe's cache on
//! every comparison (it survives, frozen, as the integration tests'
//! differential oracle). This module builds the same degree-16 B-tree
//! around a *slotted* node:
//!
//! * Each key slot holds a 4-byte order-preserving **head**: the first four
//!   bytes of the stored term, zero-padded, reinterpreted as a big-endian
//!   `u32`. Integer comparison of heads equals lexicographic comparison of
//!   the zero-padded prefixes (terms never contain NUL, so padding is
//!   unambiguous — the same argument as [`crate::node::BTreeNode::make_cache`]).
//! * Unused slots carry the sentinel [`HEAD_SENTINEL`] (`u32::MAX`, which
//!   no UTF-8 term can produce since `0xFF` never appears in UTF-8), so
//!   intra-node search is a **branch-free rank**: count the heads smaller
//!   than the probe across all 31 fixed slots. The loop has no data-
//!   dependent branches and autovectorizes.
//! * Keys live in parallel slot arrays (`heads` / `term_ptr` /
//!   `postings_ptr`), so the shift on leaf insert and the upper-half move
//!   on split are `memcpy`s of slot arrays, not per-entry element moves.
//! * A head tie is resolved by *remainder emptiness* before any string
//!   touch: if either side has no out-of-node remainder, the order is
//!   decided by length alone. Only a tie between two keys that both have
//!   remainders reads the string arena (the original path read it whenever
//!   caches tied, even when emptiness already decided — the "falls back to
//!   strings too eagerly" defect this module fixes).
//!
//! The insert algorithm itself is the CLRS preemptive split of §III.D.1
//! (node-allocation, string-allocation and postings-handle order as the
//! GPU kernel does them), so a slotted store converts to and from the
//! 512-byte Table II layout losslessly: the simulated GPU operates on
//! Table II nodes in device memory, and [`SlottedStore::from_device`] /
//! [`SlottedStore::to_device_nodes`] are the download and upload. That
//! conversion is device interop and nothing else — no file holds either
//! node layout, and the shape of a host tree is free to change.

use crate::arena::StringArena;
use crate::node::{BTreeNode, MAX_KEYS, NULL};
use std::cmp::Ordering;

/// Handle to one B-tree (one trie collection) within a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BTree {
    /// Root node index.
    pub root: u32,
}

/// Result of an insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Postings-list handle for the term (new or existing).
    pub postings: u32,
    /// True when the term was not previously present.
    pub is_new: bool,
}

/// Head value of every unused slot. `u32::MAX` decodes to the byte string
/// `FF FF FF FF`, which no UTF-8 term prefix can equal; even for raw
/// non-UTF-8 probes the search stays correct because tie resolution never
/// looks past `count` valid slots.
pub const HEAD_SENTINEL: u32 = u32::MAX;

/// Encode a term's 4-byte order-preserving head: first four bytes,
/// zero-padded, as a big-endian `u32` (so integer order == byte order).
#[inline]
pub fn term_head(term: &[u8]) -> u32 {
    u32::from_be_bytes(BTreeNode::make_cache(term))
}

/// One slotted B-tree node: the same degree-16 shape as the Table II
/// [`BTreeNode`], laid out struct-of-arrays so intra-node search touches
/// only the head array and shifts/splits are slice copies.
#[derive(Clone, Debug)]
pub struct SlottedNode {
    /// Number of valid keys (0..=31).
    pub count: u32,
    /// 1 when the node is a leaf.
    pub leaf: u32,
    /// Big-endian-encoded 4-byte heads; [`HEAD_SENTINEL`] above `count`.
    pub heads: [u32; MAX_KEYS],
    /// String-arena offsets of each term's remainder (`NULL` when the term
    /// fits entirely in its head).
    pub term_ptr: [u32; MAX_KEYS],
    /// Postings-list handles, parallel to `heads`.
    pub postings_ptr: [u32; MAX_KEYS],
    /// Child node indices (`count + 1` valid when not a leaf).
    pub children: [u32; MAX_KEYS + 1],
}

impl Default for SlottedNode {
    fn default() -> Self {
        SlottedNode {
            count: 0,
            leaf: 1,
            heads: [HEAD_SENTINEL; MAX_KEYS],
            term_ptr: [NULL; MAX_KEYS],
            postings_ptr: [NULL; MAX_KEYS],
            children: [NULL; MAX_KEYS + 1],
        }
    }
}

impl SlottedNode {
    /// Is this node a leaf?
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.leaf != 0
    }

    /// Is the node full (must split before inserting below it)?
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count as usize == MAX_KEYS
    }

    /// Convert a 512-byte device node. Slots at or above `count` are
    /// normalized to the canonical empty form regardless of any residue the
    /// GPU kernel left behind — residue is never read, so normalizing it
    /// cannot change behavior.
    fn from_device(n: &BTreeNode) -> SlottedNode {
        let count = (n.count as usize).min(MAX_KEYS);
        let mut s = SlottedNode { count: count as u32, leaf: n.leaf, ..SlottedNode::default() };
        for i in 0..count {
            s.heads[i] = u32::from_be_bytes(n.cache[i]);
            s.term_ptr[i] = n.term_ptr[i];
            s.postings_ptr[i] = n.postings_ptr[i];
        }
        if n.leaf == 0 {
            s.children[..=count].copy_from_slice(&n.children[..=count]);
        }
        s
    }

    /// Convert to the 512-byte device layout in canonical form (slots at or
    /// above `count` cleared), the shape the simulated GPU uploads.
    fn to_device(&self) -> BTreeNode {
        let count = (self.count as usize).min(MAX_KEYS);
        let mut n = BTreeNode { count: self.count, leaf: self.leaf, ..BTreeNode::default() };
        for i in 0..count {
            n.cache[i] = self.heads[i].to_be_bytes();
            n.term_ptr[i] = self.term_ptr[i];
            n.postings_ptr[i] = self.postings_ptr[i];
        }
        if self.leaf == 0 {
            n.children[..=count].copy_from_slice(&self.children[..=count]);
        }
        n
    }
}

/// Branch-free lower bound over the fixed head array: the number of heads
/// strictly smaller than `probe`. Sentinel slots never count (no head is
/// smaller than a value only when `probe` exceeds it; `HEAD_SENTINEL` is
/// the maximum), so the rank lands on the first slot whose head is ≥
/// `probe` — the binary-search position without any data-dependent branch.
#[inline]
fn head_rank(heads: &[u32; MAX_KEYS], probe: u32) -> usize {
    let mut rank = 0usize;
    for &h in heads.iter() {
        rank += (h < probe) as usize;
    }
    rank
}

/// Backing storage for all slotted B-trees owned by one indexer: node
/// arena, string arena, postings-handle allocator and comparison counters.
/// Trees in the same store share arenas but are structurally independent,
/// so one indexer thread can own many trie collections without locking.
#[derive(Clone, Debug, Default)]
pub struct SlottedStore {
    nodes: Vec<SlottedNode>,
    /// Term-remainder storage (the device's layout, so the bytes upload to
    /// the simulated GPU's string area unchanged).
    pub strings: StringArena,
    next_postings: u32,
    /// Node searches settled entirely by the 4-byte head array.
    pub cache_hits: u64,
    /// Remainder byte-comparisons (string-arena reads) during search.
    pub cache_misses: u64,
    /// B-TREE-SPLIT-CHILD invocations across all trees in the store.
    pub node_splits: u64,
    /// Head ties resolved by remainder *emptiness* without touching the
    /// string arena — each one was a full string comparison on the
    /// original path (the eager-fallback defect, fixed here).
    pub head_tie_breaks: u64,
}

impl SlottedStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new empty tree (root is an empty leaf).
    pub fn new_tree(&mut self) -> BTree {
        BTree { root: self.alloc_node() }
    }

    /// Device interop: a store from the Table II nodes, string arena and
    /// postings-handle count downloaded from a simulated GPU. Handle
    /// assignment and structure carry over exactly.
    pub fn from_device(nodes: &[BTreeNode], strings: StringArena, term_count: u32) -> SlottedStore {
        let nodes = nodes.iter().map(SlottedNode::from_device).collect();
        SlottedStore { nodes, strings, next_postings: term_count, ..Default::default() }
    }

    /// Device interop: render every node in the canonical 512-byte layout
    /// the simulated GPU works on, for upload.
    pub fn to_device_nodes(&self) -> Vec<BTreeNode> {
        self.nodes.iter().map(SlottedNode::to_device).collect()
    }

    /// Number of distinct terms ever inserted across all trees in the store
    /// (== number of postings handles issued).
    pub fn term_count(&self) -> u32 {
        self.next_postings
    }

    /// Number of nodes allocated.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Shared access to a node.
    pub fn node(&self, idx: u32) -> &SlottedNode {
        &self.nodes[idx as usize]
    }

    /// Mutable access to a node (verification tests corrupt state with it).
    pub fn node_mut(&mut self, idx: u32) -> &mut SlottedNode {
        &mut self.nodes[idx as usize]
    }

    fn alloc_node(&mut self) -> u32 {
        let idx = self.nodes.len() as u32;
        assert!(idx != NULL, "node arena exhausted");
        self.nodes.push(SlottedNode::default());
        idx
    }

    /// Search `term` among the keys of `node_idx`. `Ok(slot)` when found,
    /// `Err(pos)` with the child/insert position otherwise. The head rank
    /// lands on the first slot whose head is ≥ the probe's; only the run of
    /// exact head ties after it is examined further, and only ties where
    /// both sides carry a remainder read the string arena.
    fn search_node(&mut self, node_idx: u32, probe: u32, term: &[u8]) -> Result<usize, usize> {
        let node = &self.nodes[node_idx as usize];
        let count = node.count as usize;
        let mut pos = head_rank(&node.heads, probe);
        let probe_rem: &[u8] = if term.len() > 4 { &term[4..] } else { b"" };
        let mut misses = 0u64;
        let mut ties = 0u64;
        let result = loop {
            if pos >= count || node.heads[pos] != probe {
                break Err(pos);
            }
            let key_rem_ptr = node.term_ptr[pos];
            if key_rem_ptr == NULL {
                if probe_rem.is_empty() {
                    break Ok(pos); // identical: same head, both in-head only
                }
                // Stored key is the probe's proper prefix: key < probe.
                ties += 1;
                pos += 1;
                continue;
            }
            if probe_rem.is_empty() {
                // Probe is the stored key's proper prefix: probe < key.
                ties += 1;
                break Err(pos);
            }
            misses += 1;
            match probe_rem.cmp(self.strings.get(key_rem_ptr)) {
                Ordering::Less => break Err(pos),
                Ordering::Equal => break Ok(pos),
                Ordering::Greater => pos += 1,
            }
        };
        if misses == 0 {
            self.cache_hits += 1;
        } else {
            self.cache_misses += misses;
        }
        self.head_tie_breaks += ties;
        result
    }

    /// Compare the probe against the single key `slot` of `node_idx` (the
    /// post-split median re-comparison). Same tie policy as full search.
    fn cmp_slot(&mut self, node_idx: u32, slot: usize, probe: u32, term: &[u8]) -> Ordering {
        let node = &self.nodes[node_idx as usize];
        let head = node.heads[slot];
        if probe != head {
            self.cache_hits += 1;
            return probe.cmp(&head);
        }
        let key_rem_ptr = node.term_ptr[slot];
        let probe_rem: &[u8] = if term.len() > 4 { &term[4..] } else { b"" };
        match (probe_rem.is_empty(), key_rem_ptr == NULL) {
            (true, true) => {
                self.cache_hits += 1;
                Ordering::Equal
            }
            (true, false) => {
                self.cache_hits += 1;
                self.head_tie_breaks += 1;
                Ordering::Less
            }
            (false, true) => {
                self.cache_hits += 1;
                self.head_tie_breaks += 1;
                Ordering::Greater
            }
            (false, false) => {
                self.cache_misses += 1;
                probe_rem.cmp(self.strings.get(key_rem_ptr))
            }
        }
    }

    /// Install `term` at `pos` of leaf `node_idx`, shifting the slot
    /// arrays right by one with slice copies.
    fn insert_at(&mut self, node_idx: u32, pos: usize, probe: u32, term: &[u8]) -> u32 {
        let rem_ptr = if term.len() > 4 { self.strings.alloc(&term[4..]) } else { NULL };
        let postings = self.next_postings;
        self.next_postings += 1;
        let node = &mut self.nodes[node_idx as usize];
        let count = node.count as usize;
        debug_assert!(count < MAX_KEYS);
        node.heads.copy_within(pos..count, pos + 1);
        node.term_ptr.copy_within(pos..count, pos + 1);
        node.postings_ptr.copy_within(pos..count, pos + 1);
        node.heads[pos] = probe;
        node.term_ptr[pos] = rem_ptr;
        node.postings_ptr[pos] = postings;
        node.count += 1;
        postings
    }

    /// Split the full child `ci` of `parent_idx` (CLRS B-TREE-SPLIT-CHILD).
    /// Upper-half and parent moves are slice copies; the vacated upper
    /// slots of the left node are reset to the canonical empty form so the
    /// sentinel discipline (and thus the branch-free rank) stays intact.
    fn split_child(&mut self, parent_idx: u32, ci: usize) {
        self.node_splits += 1;
        let left_idx = self.nodes[parent_idx as usize].children[ci] as usize;
        let right_idx = self.alloc_node() as usize;
        const MID: usize = MAX_KEYS / 2; // 15: median key index
        let (med_head, med_term, med_post) = {
            // right_idx is the freshly pushed last node, so the split
            // borrow below always places `left` before `right`.
            let (low, high) = self.nodes.split_at_mut(right_idx);
            let left = &mut low[left_idx];
            let right = &mut high[0];
            debug_assert!(left.is_full());
            right.leaf = left.leaf;
            right.count = (MAX_KEYS - MID - 1) as u32; // 15 keys
            right.heads[..MAX_KEYS - MID - 1].copy_from_slice(&left.heads[MID + 1..]);
            right.term_ptr[..MAX_KEYS - MID - 1].copy_from_slice(&left.term_ptr[MID + 1..]);
            right.postings_ptr[..MAX_KEYS - MID - 1]
                .copy_from_slice(&left.postings_ptr[MID + 1..]);
            if left.leaf == 0 {
                right.children[..MAX_KEYS - MID].copy_from_slice(&left.children[MID + 1..]);
            }
            let median = (left.heads[MID], left.term_ptr[MID], left.postings_ptr[MID]);
            left.count = MID as u32;
            left.heads[MID..].fill(HEAD_SENTINEL);
            left.term_ptr[MID..].fill(NULL);
            left.postings_ptr[MID..].fill(NULL);
            if left.leaf == 0 {
                left.children[MID + 1..].fill(NULL);
            }
            median
        };
        // Insert the median into the parent at slot ci.
        let parent = &mut self.nodes[parent_idx as usize];
        let pcount = parent.count as usize;
        debug_assert!(pcount < MAX_KEYS);
        parent.heads.copy_within(ci..pcount, ci + 1);
        parent.term_ptr.copy_within(ci..pcount, ci + 1);
        parent.postings_ptr.copy_within(ci..pcount, ci + 1);
        parent.children.copy_within(ci + 1..pcount + 1, ci + 2);
        parent.heads[ci] = med_head;
        parent.term_ptr[ci] = med_term;
        parent.postings_ptr[ci] = med_post;
        parent.children[ci + 1] = right_idx as u32;
        parent.count += 1;
    }

    /// Insert `term` (already trie-prefix-stripped) into `tree`, returning
    /// its postings handle and whether it is new. Allocation order (nodes,
    /// string remainders, postings handles) is the GPU kernel's and the
    /// frozen original path's, which the differential suite holds it to.
    pub fn insert(&mut self, tree: &mut BTree, term: &[u8]) -> InsertOutcome {
        let probe = term_head(term);
        if self.nodes[tree.root as usize].is_full() {
            let new_root = self.alloc_node();
            {
                let nr = &mut self.nodes[new_root as usize];
                nr.leaf = 0;
                nr.children[0] = tree.root;
            }
            self.split_child(new_root, 0);
            tree.root = new_root;
        }
        self.insert_nonfull(tree.root, probe, term)
    }

    fn insert_nonfull(&mut self, mut node_idx: u32, probe: u32, term: &[u8]) -> InsertOutcome {
        loop {
            match self.search_node(node_idx, probe, term) {
                Ok(slot) => {
                    return InsertOutcome {
                        postings: self.nodes[node_idx as usize].postings_ptr[slot],
                        is_new: false,
                    };
                }
                Err(pos) => {
                    let node = &self.nodes[node_idx as usize];
                    if node.is_leaf() {
                        let postings = self.insert_at(node_idx, pos, probe, term);
                        return InsertOutcome { postings, is_new: true };
                    }
                    let child = node.children[pos];
                    if self.nodes[child as usize].is_full() {
                        self.split_child(node_idx, pos);
                        // The median moved up into `pos`; re-compare.
                        match self.cmp_slot(node_idx, pos, probe, term) {
                            Ordering::Equal => {
                                return InsertOutcome {
                                    postings: self.nodes[node_idx as usize].postings_ptr[pos],
                                    is_new: false,
                                };
                            }
                            Ordering::Greater => {
                                node_idx = self.nodes[node_idx as usize].children[pos + 1]
                            }
                            Ordering::Less => {
                                node_idx = self.nodes[node_idx as usize].children[pos]
                            }
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
        let probe = term_head(term);
        let mut node_idx = tree.root;
        loop {
            match self.search_node(node_idx, probe, term) {
                Ok(slot) => return Some(self.nodes[node_idx as usize].postings_ptr[slot]),
                Err(pos) => {
                    let node = &self.nodes[node_idx as usize];
                    if node.is_leaf() {
                        return None;
                    }
                    node_idx = node.children[pos];
                }
            }
        }
    }

    /// The stored term at `slot` of `node` in its two pieces: the head bytes
    /// the node holds and the remainder in the string arena (empty when the
    /// head is all of it).
    fn term_pieces(&self, node: &SlottedNode, slot: usize) -> ([u8; 4], usize, &[u8]) {
        let head = node.heads[slot].to_be_bytes();
        let head_len = head.iter().position(|&b| b == 0).unwrap_or(4);
        let rest: &[u8] = match node.term_ptr[slot] {
            NULL => &[],
            ptr => self.strings.get(ptr),
        };
        (head, head_len, rest)
    }

    /// Reconstruct the full stored term at `slot` of node `node_idx`.
    pub fn full_term(&self, node_idx: u32, slot: usize) -> Vec<u8> {
        let (head, head_len, rest) = self.term_pieces(&self.nodes[node_idx as usize], slot);
        [&head[..head_len], rest].concat()
    }

    /// In-order traversal: `(term, postings handle)` in lexicographic order.
    pub fn iter_terms(&self, tree: &BTree) -> Vec<(Vec<u8>, u32)> {
        let mut out = Vec::new();
        self.for_each_term(tree, &mut |head, rest, postings| {
            out.push(([head, rest].concat(), postings));
        });
        out
    }

    /// In-order traversal without a `Vec` per term: `f(head, rest, postings
    /// handle)` for every term in lexicographic order, the term being
    /// `head` (its bytes held in the node) followed by `rest` (its
    /// remainder in the string arena, empty when the head is all of it).
    pub fn for_each_term(&self, tree: &BTree, f: &mut impl FnMut(&[u8], &[u8], u32)) {
        self.walk(tree.root, f);
    }

    fn walk(&self, node_idx: u32, f: &mut impl FnMut(&[u8], &[u8], u32)) {
        let node = &self.nodes[node_idx as usize];
        let count = node.count as usize;
        for i in 0..count {
            if node.leaf == 0 {
                self.walk(node.children[i], f);
            }
            let (head, head_len, rest) = self.term_pieces(node, i);
            f(&head[..head_len], rest, node.postings_ptr[i]);
        }
        if node.leaf == 0 && count > 0 {
            self.walk(node.children[count], f);
        }
    }

    /// Height of the tree (number of levels; 1 for a lone leaf).
    pub fn depth(&self, tree: &BTree) -> usize {
        let mut d = 1;
        let mut idx = tree.root;
        while self.nodes[idx as usize].leaf == 0 {
            idx = self.nodes[idx as usize].children[0];
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

    fn fresh() -> (SlottedStore, BTree) {
        let mut s = SlottedStore::new();
        let t = s.new_tree();
        (s, t)
    }

    #[test]
    fn term_head_preserves_order() {
        let mut terms: Vec<&[u8]> = vec![b"", b"a", b"ab", b"abcd", b"abce", b"b", b"zzzz"];
        terms.sort();
        let heads: Vec<u32> = terms.iter().map(|t| term_head(t)).collect();
        let mut sorted = heads.clone();
        sorted.sort_unstable();
        assert_eq!(heads, sorted);
        // Heads of 4-byte-prefix-equal terms tie; longer terms never sort
        // below their prefix.
        assert_eq!(term_head(b"abcd"), term_head(b"abcdzzz"));
        assert!(term_head(b"abc") < term_head(b"abcd"));
    }

    #[test]
    fn insert_get_and_duplicates() {
        let (mut s, mut t) = fresh();
        let a = s.insert(&mut t, b"lication");
        assert!(a.is_new);
        let b = s.insert(&mut t, b"le");
        assert!(b.is_new);
        let a2 = s.insert(&mut t, b"lication");
        assert!(!a2.is_new);
        assert_eq!(a2.postings, a.postings);
        assert_eq!(s.get(&t, b"lication"), Some(a.postings));
        assert_eq!(s.get(&t, b"le"), Some(b.postings));
        assert_eq!(s.get(&t, b"missing"), None);
        assert_eq!(s.get(&t, b""), None);
    }

    #[test]
    fn empty_term_is_a_valid_key() {
        let (mut s, mut t) = fresh();
        let e = s.insert(&mut t, b"");
        assert!(e.is_new);
        let x = s.insert(&mut t, b"x");
        assert_eq!(s.get(&t, b""), Some(e.postings));
        assert_eq!(s.get(&t, b"x"), Some(x.postings));
        assert_eq!(s.iter_terms(&t)[0].0, b"");
    }

    #[test]
    fn device_roundtrip_preserves_structure_and_handles() {
        let (mut s, mut t) = fresh();
        let mut keys: Vec<String> = (0..300).map(|i| format!("key{i:04}")).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(7));
        for k in &keys {
            s.insert(&mut t, k.as_bytes());
        }
        let mut back = SlottedStore::from_device(
            &s.to_device_nodes(),
            StringArena::from_bytes(s.strings.as_bytes().to_vec()),
            s.term_count(),
        );
        assert_eq!(back.term_count(), s.term_count());
        assert_eq!(back.iter_terms(&t), s.iter_terms(&t));
        // Continued inserts allocate the same handles in both stores.
        let mut t2 = t;
        let a = s.insert(&mut t, b"after-roundtrip");
        let b = back.insert(&mut t2, b"after-roundtrip");
        assert_eq!(a, b);
        assert_eq!(t.root, t2.root);
    }

    #[test]
    fn head_distinguishable_ties_never_touch_strings() {
        // Regression for the eager-fallback fix: every key pair here is
        // distinguished by (head, remainder-emptiness) alone, so the slotted
        // path must do ZERO string comparisons (the original path read the
        // arena on every cache tie).
        let heads = ["aaaa", "abab", "baba", "bbbb", "cccc", "dddd", "eeee", "ffff"];
        let (mut s, mut t) = fresh();
        for h in heads {
            for k in [h.to_string(), format!("{h}tail")] {
                s.insert(&mut t, k.as_bytes());
            }
        }
        // Probe the short (in-head-only) variants repeatedly: each probe
        // ties with its `…tail` sibling but emptiness decides the order.
        for _ in 0..10 {
            for h in heads {
                assert!(s.get(&t, h.as_bytes()).is_some());
            }
        }
        assert_eq!(s.cache_misses, 0, "slotted path read the string arena needlessly");
        assert!(s.head_tie_breaks > 0, "ties should be resolved by emptiness");
    }

    #[test]
    fn splits_keep_sentinel_discipline() {
        let (mut s, mut t) = fresh();
        let mut keys: Vec<String> = (0..500).map(|i| format!("w{i:04}")).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(3));
        for k in &keys {
            s.insert(&mut t, k.as_bytes());
        }
        assert!(s.node_splits > 0);
        for idx in 0..s.num_nodes() as u32 {
            let n = s.node(idx);
            for slot in n.count as usize..MAX_KEYS {
                assert_eq!(n.heads[slot], HEAD_SENTINEL, "stale head at {idx}/{slot}");
                assert_eq!(n.term_ptr[slot], NULL);
                assert_eq!(n.postings_ptr[slot], NULL);
            }
        }
    }

    #[test]
    fn separate_trees_in_one_store_are_independent() {
        let mut s = SlottedStore::new();
        let mut t1 = s.new_tree();
        let mut t2 = s.new_tree();
        s.insert(&mut t1, b"alpha");
        s.insert(&mut t2, b"beta");
        assert!(s.get(&t1, b"beta").is_none());
        assert!(s.get(&t2, b"alpha").is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_head_collision_streams_stay_sorted(
            tails in proptest::collection::vec("[a-c]{0,6}", 1..120)
        ) {
            // Adversarial: every key shares the head "wxyz", so ordering is
            // decided entirely by tie resolution.
            let (mut s, mut t) = fresh();
            let mut model = std::collections::BTreeMap::new();
            for tail in &tails {
                let key = format!("wxyz{tail}");
                let out = s.insert(&mut t, key.as_bytes());
                let expect_new = !model.contains_key(key.as_bytes());
                prop_assert_eq!(out.is_new, expect_new);
                model.entry(key.into_bytes()).or_insert(out.postings);
            }
            let got = s.iter_terms(&t);
            let want: Vec<(Vec<u8>, u32)> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }
    }
}
