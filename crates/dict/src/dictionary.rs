//! Partial and global dictionaries.
//!
//! Every indexer owns a disjoint set of trie collections for the program's
//! lifetime (paper §III.E), so it keeps an "independent and exclusive part
//! of the global dictionary": a [`PartialDictionary`]. When the last batch
//! has been indexed, the partials are *combined* into a [`GlobalDictionary`]
//! and written to disk — the "Dictionary Combine" and "Dictionary Write"
//! rows of Table VI.
//!
//! Since the slotted-node rewrite the shard's hot path runs on
//! [`SlottedStore`] and the per-collection tree roots live in a flat
//! `TRIE_ENTRIES`-sized table indexed directly by trie index — the paper's
//! §III.B trie *is* that table, so the per-token `HashMap` hash the old
//! shard paid is gone. A shard has no serialisation of its own: every
//! commit, checkpoints included, writes the combined dictionary, and
//! [`GlobalDictionary::shards`] is the way back. The 512-byte Table II node
//! survives only as the simulated GPU's device layout.

use crate::node::NULL;
use crate::slotted::{BTree, InsertOutcome, SlottedStore};
use crate::trie::{trie_index, TrieIndex, TRIE_ENTRIES};
use std::borrow::Borrow;
use std::io::{self, Read, Write};

/// The dictionary shard owned by a single indexer.
#[derive(Clone, Debug)]
pub struct PartialDictionary {
    /// Identifier of the owning indexer (used in postings locations).
    pub indexer_id: u32,
    /// Shared arenas for all this indexer's B-trees (slotted hot path).
    pub store: SlottedStore,
    /// Tree root per trie collection (`NULL` = collection untouched),
    /// indexed directly by trie index.
    roots: Vec<u32>,
}

impl Default for PartialDictionary {
    fn default() -> Self {
        Self::new(0)
    }
}

impl PartialDictionary {
    /// Create an empty shard for `indexer_id`.
    pub fn new(indexer_id: u32) -> Self {
        PartialDictionary {
            indexer_id,
            store: SlottedStore::new(),
            roots: vec![NULL; TRIE_ENTRIES],
        }
    }

    /// Device interop: a shard from a store downloaded from a simulated GPU
    /// ([`SlottedStore::from_device`]) and the per-collection tree roots
    /// `(trie index, root node)` it read from device memory.
    pub fn from_device(
        indexer_id: u32,
        store: SlottedStore,
        roots: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let mut part = PartialDictionary { store, ..PartialDictionary::new(indexer_id) };
        for (ti, root) in roots {
            let ti = ti as usize;
            if ti >= part.roots.len() {
                part.roots.resize(ti + 1, NULL);
            }
            part.roots[ti] = root;
        }
        part
    }

    /// Insert a prefix-stripped term into the B-tree of `trie_idx`
    /// (created lazily).
    #[inline]
    pub fn insert_term(&mut self, trie_idx: u32, suffix: &[u8]) -> InsertOutcome {
        let ti = trie_idx as usize;
        if ti >= self.roots.len() {
            self.roots.resize(ti + 1, NULL);
        }
        if self.roots[ti] == NULL {
            self.roots[ti] = self.store.new_tree().root;
        }
        let mut tree = BTree { root: self.roots[ti] };
        let out = self.store.insert(&mut tree, suffix);
        self.roots[ti] = tree.root;
        out
    }

    /// Look up a prefix-stripped term.
    pub fn lookup(&mut self, trie_idx: u32, suffix: &[u8]) -> Option<u32> {
        let root = *self.roots.get(trie_idx as usize)?;
        if root == NULL {
            return None;
        }
        self.store.get(&BTree { root }, suffix)
    }

    /// The B-tree handle for a trie collection, if any terms were inserted.
    pub fn tree(&self, trie_idx: u32) -> Option<BTree> {
        match self.roots.get(trie_idx as usize) {
            Some(&root) if root != NULL => Some(BTree { root }),
            _ => None,
        }
    }

    /// Trie collections present in this shard, in ascending order.
    pub fn trie_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.roots
            .iter()
            .enumerate()
            .filter(|(_, &root)| root != NULL)
            .map(|(ti, _)| ti as u32)
    }

    /// Number of distinct terms in the shard.
    pub fn term_count(&self) -> u32 {
        self.store.term_count()
    }

    /// What the memory governor counts for this shard: the string arena and
    /// the trie-root table as they are, and [`tree_nodes`] nodes for its
    /// terms and collections. A function of the shard's content alone —
    /// which terms, in which handle order — never of the order duplicates
    /// arrived in or of how the trees happened to split, so a shard rebuilt
    /// by [`GlobalDictionary::shards`] reports what the original did and a
    /// resumed build flushes where the uninterrupted one would have.
    pub fn mem_bytes(&self) -> u64 {
        let nodes = tree_nodes(u64::from(self.term_count()), self.trie_indices().count() as u64);
        nodes * std::mem::size_of::<crate::slotted::SlottedNode>() as u64
            + self.store.strings.len_bytes() as u64
            + (self.roots.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// B-tree nodes the memory governor charges for `terms` distinct terms
/// spread over `collections` trees: a root per tree, which takes the tree's
/// first 8 terms, and a node per 20 terms past those (a node holds at most
/// 31 keys and 15 after a split; most trees never outgrow their root). A
/// fit, not a law: within 6 % of the nodes allocated on the ledger's shards
/// (8 073 nodes for 106 886 terms in 3 784 trees, 12 916 for 230 300 in
/// 2 649, 3 998 for 50 498 in 2 462) and on the small collections of
/// `tests/tests/governor.rs`, which holds it to 25 % of the arena bytes.
/// The simulated GPU charges its device nodes by the same rule.
pub fn tree_nodes(terms: u64, collections: u64) -> u64 {
    collections + terms.saturating_sub(8 * collections) / 20
}

/// One term of the combined dictionary and where to find its postings
/// list: `indexer` + `postings` locate the list among the per-indexer
/// outputs (the mapping-table indirection of §III.F). Borrowed from the
/// dictionary's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DictEntry<'a> {
    /// Trie collection of the term.
    pub trie_index: u32,
    /// Stored suffix (term minus the trie-captured prefix).
    pub suffix: &'a [u8],
    /// Owning indexer.
    pub indexer: u32,
    /// Postings handle within that indexer's output.
    pub postings: u32,
}

impl DictEntry<'_> {
    /// Reconstruct the full term (prefix + suffix).
    pub fn full_term(&self) -> String {
        let mut s = TrieIndex(self.trie_index).prefix();
        s.push_str(&String::from_utf8_lossy(self.suffix));
        s
    }
}

/// The combined, immutable dictionary for the whole collection: the paper's
/// §III.B structure frozen. The trie is a flat directory — collection `t`
/// holds the terms of ordinals `dir[t]..dir[t + 1]` — in front of one
/// sorted suffix column per collection, all in one arena. A shard owns
/// whole collections (§III.E), so the owning indexer is stored once per
/// collection, not per term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalDictionary {
    /// `TRIE_ENTRIES + 1` term ordinals, ascending from 0 to `len()`.
    dir: Vec<u32>,
    /// Owning indexer of each of the `TRIE_ENTRIES` collections (0 for an
    /// empty one).
    owners: Vec<u32>,
    /// `len() + 1` arena offsets: the suffix of term `i` is
    /// `arena[offsets[i]..offsets[i + 1]]`. Terms are ordered by
    /// `(trie_index, suffix)`.
    offsets: Vec<u32>,
    /// Postings handle of each term within its owner's output.
    handles: Vec<u32>,
    /// Every suffix, back to back.
    arena: Vec<u8>,
}

const DICT_MAGIC: &[u8; 4] = b"IIDT";
/// Magic, term count, arena length.
const DICT_HEADER_BYTES: usize = 12;
/// Longest suffix a dictionary holds: terms are at most 255 bytes
/// (`ii_text::MAX_TERM_BYTES`).
const MAX_SUFFIX_BYTES: usize = 255;

impl Default for GlobalDictionary {
    fn default() -> Self {
        GlobalDictionary {
            dir: vec![0; TRIE_ENTRIES + 1],
            owners: vec![0; TRIE_ENTRIES],
            offsets: vec![0],
            handles: Vec::new(),
            arena: Vec::new(),
        }
    }
}

impl GlobalDictionary {
    /// Combine per-indexer shards, whose trie collections are disjoint by
    /// construction: collection by collection in trie order, each B-tree
    /// walked in order straight into the arena. Shards are taken by value or
    /// by reference (a checkpoint combines the live pool's without cloning
    /// them).
    pub fn combine<P: Borrow<PartialDictionary>>(parts: &[P]) -> GlobalDictionary {
        const UNOWNED: usize = usize::MAX;
        let mut part_of = vec![UNOWNED; TRIE_ENTRIES];
        for (i, p) in parts.iter().enumerate() {
            for ti in p.borrow().trie_indices() {
                let slot = &mut part_of[ti as usize];
                assert!(*slot == UNOWNED, "trie collection {ti} is in two shards");
                *slot = i;
            }
        }
        let mut dict = GlobalDictionary::default();
        let terms: usize = parts.iter().map(|p| p.borrow().term_count() as usize).sum();
        dict.offsets.reserve_exact(terms);
        dict.handles.reserve_exact(terms);
        for (ti, &i) in part_of.iter().enumerate() {
            if i != UNOWNED {
                let p = parts[i].borrow();
                let tree = p.tree(ti as u32).expect("listed index has a tree");
                p.store.for_each_term(&tree, &mut |head, rest, postings| {
                    dict.push(ti as u32, &[head, rest], p.indexer_id, postings)
                });
            }
        }
        dict.finish()
    }

    /// The inverse of [`Self::combine`]: the shards of indexers
    /// `0..n_indexers`, each rebuilt by inserting its terms in handle order,
    /// so that every term gets its handle back and the next new term the
    /// handle an uninterrupted shard would give it. This is what a resumed
    /// build continues from. Tree shape is not restored and need not be:
    /// nothing a build writes depends on it. `InvalidData` when an owner is
    /// not below `n_indexers` or an owner's handles are not `0..n`, each
    /// once — a dictionary [`Self::combine`] did not produce.
    pub fn shards(&self, n_indexers: usize) -> io::Result<Vec<PartialDictionary>> {
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        let mut sizes = vec![0usize; n_indexers];
        for t in 0..TRIE_ENTRIES {
            let terms = self.collection(t).len();
            if terms > 0 {
                let owner = self.owners[t];
                *sizes.get_mut(owner as usize).ok_or_else(|| {
                    bad(format!("collection {t} is owned by indexer {owner} of {n_indexers}"))
                })? += terms;
            }
        }
        // Per owner, the (collection, ordinal) of the term holding each handle.
        const VACANT: (u32, u32) = (u32::MAX, u32::MAX);
        let mut by_handle: Vec<Vec<(u32, u32)>> =
            sizes.iter().map(|&n| vec![VACANT; n]).collect();
        for t in 0..TRIE_ENTRIES {
            for i in self.collection(t) {
                let (owner, handle) = (self.owners[t], self.handles[i]);
                match by_handle[owner as usize].get_mut(handle as usize) {
                    Some(slot) if *slot == VACANT => *slot = (t as u32, i as u32),
                    _ => {
                        return Err(bad(format!(
                            "indexer {owner} has handle {handle} twice or past its {} terms",
                            sizes[owner as usize]
                        )))
                    }
                }
            }
        }
        let mut parts: Vec<PartialDictionary> =
            (0..n_indexers as u32).map(PartialDictionary::new).collect();
        for (part, terms) in parts.iter_mut().zip(&by_handle) {
            for (handle, &(t, i)) in terms.iter().enumerate() {
                let placed = part.insert_term(t, self.suffix(i as usize));
                if !placed.is_new || placed.postings as usize != handle {
                    return Err(bad(format!("term {i} is in its collection twice")));
                }
            }
        }
        Ok(parts)
    }

    /// Append the next term in `(trie_index, suffix)` order, its suffix
    /// given in pieces. Until [`Self::finish`], `dir[t + 1]` counts the
    /// terms of collection `t`.
    pub(crate) fn push(&mut self, trie_index: u32, suffix: &[&[u8]], indexer: u32, postings: u32) {
        let start = self.arena.len();
        suffix.iter().for_each(|piece| self.arena.extend_from_slice(piece));
        assert!(self.arena.len() - start <= MAX_SUFFIX_BYTES, "term longer than 255 bytes");
        let end = u32::try_from(self.arena.len()).expect("dictionary suffixes exceed 4 GiB");
        self.offsets.push(end);
        self.handles.push(postings);
        self.dir[trie_index as usize + 1] += 1;
        self.owners[trie_index as usize] = indexer;
    }

    /// Turn the per-collection counts [`Self::push`] kept into ordinals.
    pub(crate) fn finish(mut self) -> GlobalDictionary {
        let mut ordinal = 0u32;
        for d in &mut self.dir {
            ordinal += *d;
            *d = ordinal;
        }
        self
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    fn suffix(&self, i: usize) -> &[u8] {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The term ordinals of one trie collection.
    fn collection(&self, trie_index: usize) -> std::ops::Range<usize> {
        self.dir[trie_index] as usize..self.dir[trie_index + 1] as usize
    }

    /// All entries in `(trie_index, suffix)` order.
    pub fn entries(&self) -> impl Iterator<Item = DictEntry<'_>> + '_ {
        (0..TRIE_ENTRIES).flat_map(move |t| {
            self.collection(t).map(move |i| DictEntry {
                trie_index: t as u32,
                suffix: self.suffix(i),
                indexer: self.owners[t],
                postings: self.handles[i],
            })
        })
    }

    /// Look up a surface term (it is classified and prefix-stripped here):
    /// the directory names its collection, a binary search over that
    /// collection's suffixes finds it.
    pub fn lookup(&self, term: &str) -> Option<DictEntry<'_>> {
        let (idx, suffix) = crate::trie::classify(term);
        let t = idx.0 as usize;
        let std::ops::Range { start: mut lo, end: mut hi } = self.collection(t);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let found = self.suffix(mid);
            match found.cmp(suffix.as_bytes()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return Some(DictEntry {
                        trie_index: idx.0,
                        suffix: found,
                        indexer: self.owners[t],
                        postings: self.handles[mid],
                    })
                }
            }
        }
        None
    }

    /// Convenience: classify + lookup for an already-stemmed term string.
    pub fn contains(&self, term: &str) -> bool {
        self.lookup(term).is_some()
    }

    /// Serialize to `w`; returns bytes written (the "Dictionary Write"
    /// cost). The file is the structure itself: header, then the directory,
    /// owner, offset and handle columns as little-endian `u32`s, then the
    /// suffix arena.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        let mut out = Vec::with_capacity(
            DICT_HEADER_BYTES
                + 4 * (self.dir.len() + self.owners.len() + self.offsets.len() + self.handles.len())
                + self.arena.len(),
        );
        out.extend_from_slice(DICT_MAGIC);
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.arena.len() as u32).to_le_bytes());
        for column in [&self.dir, &self.owners, &self.offsets, &self.handles] {
            column.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
        }
        out.extend_from_slice(&self.arena);
        w.write_all(&out)?;
        Ok(out.len() as u64)
    }

    /// Deserialize a dictionary written by [`Self::write_to`]: everything
    /// `r` has left, through [`Self::from_bytes`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<GlobalDictionary> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Parse the bytes [`Self::write_to`] wrote, checking in one pass
    /// everything [`Self::lookup`] and [`Self::entries`] rely on: the
    /// directory ascends from 0 to the term count, the offsets ascend from
    /// 0 to the arena length in steps of at most 255, and suffixes ascend
    /// strictly inside each collection. Nothing is allocated on the word of
    /// a count: the columns are cut from the bytes given.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<GlobalDictionary> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let Some((head, body)) = bytes.split_at_checked(DICT_HEADER_BYTES) else {
            return Err(io::ErrorKind::UnexpectedEof.into());
        };
        if &head[..4] != DICT_MAGIC {
            return Err(bad("bad dictionary magic"));
        }
        let word = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().unwrap()) as usize;
        let (n, arena_len) = (word(4), word(8));
        // u32 counts: the sum fits a u64 with room to spare.
        let columns = 4 * (2 * TRIE_ENTRIES as u64 + 1 + 2 * n as u64 + 1);
        match (columns + arena_len as u64).cmp(&(body.len() as u64)) {
            std::cmp::Ordering::Greater => return Err(io::ErrorKind::UnexpectedEof.into()),
            std::cmp::Ordering::Less => return Err(bad("bytes after the dictionary")),
            std::cmp::Ordering::Equal => {}
        }
        let mut rest = body;
        let mut column = |len: usize| -> Vec<u32> {
            let (bytes, tail) = rest.split_at(4 * len);
            rest = tail;
            bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())).collect()
        };
        let dict = GlobalDictionary {
            dir: column(TRIE_ENTRIES + 1),
            owners: column(TRIE_ENTRIES),
            offsets: column(n + 1),
            handles: column(n),
            arena: rest.to_vec(),
        };
        let ascends = |col: &[u32], end: usize, step: usize| {
            col[0] == 0
                && col[col.len() - 1] as usize == end
                && col.windows(2).all(|w| w[0] <= w[1] && (w[1] - w[0]) as usize <= step)
        };
        if !ascends(&dict.dir, n, n) {
            return Err(bad("trie directory does not ascend from 0 to the term count"));
        }
        if !ascends(&dict.offsets, arena_len, MAX_SUFFIX_BYTES) {
            return Err(bad("suffix offsets do not ascend to the arena length in steps of at most 255"));
        }
        // A suffix's first 8 bytes as a zero-padded big-endian word: a
        // smaller word means a smaller suffix, which settles nearly every
        // neighbouring pair without a slice comparison. (0 for the last few
        // suffixes of the arena, which the slice comparison then settles.)
        let key = |i: usize| {
            let (start, end) = (dict.offsets[i] as usize, dict.offsets[i + 1] as usize);
            let Some(bytes) = dict.arena.get(start..start + 8) else { return 0 };
            let keep = (end - start).min(8) as u32;
            let word = u64::from_be_bytes(bytes.try_into().unwrap());
            word & u64::MAX.checked_shl(64 - 8 * keep).unwrap_or(0)
        };
        for t in 0..TRIE_ENTRIES {
            let mut prev = None;
            for i in dict.collection(t) {
                let cur = key(i);
                if prev.is_some_and(|p| p >= cur && dict.suffix(i - 1) >= dict.suffix(i)) {
                    return Err(bad("suffixes out of order inside a trie collection"));
                }
                prev = Some(cur);
            }
        }
        Ok(dict)
    }
}

/// Insert a *surface* term (classified internally) — convenience used by
/// serial baselines.
pub fn insert_surface(dict: &mut PartialDictionary, term: &str) -> InsertOutcome {
    let (idx, suffix) = crate::trie::classify(term);
    dict.insert_term(idx.0, suffix.as_bytes())
}

/// Look up a surface term in a shard.
pub fn lookup_surface(dict: &mut PartialDictionary, term: &str) -> Option<u32> {
    let idx = trie_index(term);
    let suffix = &term[idx.prefix_len()..];
    dict.lookup(idx.0, suffix.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_insert_and_lookup() {
        let mut d = PartialDictionary::new(0);
        let a = insert_surface(&mut d, "application");
        assert!(a.is_new);
        let b = insert_surface(&mut d, "application");
        assert!(!b.is_new);
        assert_eq!(lookup_surface(&mut d, "application"), Some(a.postings));
        assert_eq!(lookup_surface(&mut d, "apple"), None);
        assert_eq!(d.term_count(), 1);
    }

    #[test]
    fn terms_in_different_collections_are_separate() {
        let mut d = PartialDictionary::new(0);
        insert_surface(&mut d, "dog"); // collection 'd'
        insert_surface(&mut d, "dogs"); // collection "dog"
        assert_eq!(d.term_count(), 2);
        assert_eq!(d.trie_indices().count(), 2);
    }

    #[test]
    fn trie_indices_come_out_ascending() {
        let mut d = PartialDictionary::new(0);
        for t in ["zebra", "apple", "954", "-80", "mango"] {
            insert_surface(&mut d, t);
        }
        let idxs: Vec<u32> = d.trie_indices().collect();
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        assert_eq!(idxs, sorted);
    }

    #[test]
    fn combine_merges_disjoint_shards() {
        let mut d0 = PartialDictionary::new(0);
        let mut d1 = PartialDictionary::new(1);
        insert_surface(&mut d0, "apple");
        insert_surface(&mut d0, "apricot");
        insert_surface(&mut d1, "zebra");
        insert_surface(&mut d1, "954");
        let g = GlobalDictionary::combine(&[d0, d1]);
        assert_eq!(g.len(), 4);
        assert!(g.contains("apple"));
        assert!(g.contains("zebra"));
        assert!(g.contains("954"));
        assert!(!g.contains("mango"));
        let z = g.lookup("zebra").unwrap();
        assert_eq!(z.indexer, 1);
        assert_eq!(z.full_term(), "zebra");
    }

    #[test]
    fn entries_are_globally_sorted() {
        let mut d = PartialDictionary::new(0);
        for t in ["zebra", "apple", "apricot", "yak", "01", "-80"] {
            insert_surface(&mut d, t);
        }
        let g = GlobalDictionary::combine(&[d]);
        let keys: Vec<(u32, &[u8])> = g.entries().map(|e| (e.trie_index, e.suffix)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), g.len());
    }

    fn sample() -> GlobalDictionary {
        let mut d = PartialDictionary::new(3);
        for t in [
            "apple", "applesauce", "application", "applied", "zebra", "zeal", "954", "-80",
            "a",
        ] {
            insert_surface(&mut d, t);
        }
        GlobalDictionary::combine(&[d])
    }

    #[test]
    fn serialization_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        let n = g.write_to(&mut buf).unwrap();
        assert_eq!(n as usize, buf.len());
        let g2 = GlobalDictionary::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(g, g2);
        // An empty dictionary is a directory of zeros.
        let mut buf = Vec::new();
        GlobalDictionary::default().write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), DICT_HEADER_BYTES + 4 * (2 * TRIE_ENTRIES + 2));
        let empty = GlobalDictionary::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(empty, GlobalDictionary::default());
        assert!(empty.lookup("apple").is_none() && empty.entries().next().is_none());
    }

    #[test]
    fn a_term_costs_its_suffix_and_two_words() {
        let g = sample();
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        let suffixes: usize = g.entries().map(|e| e.suffix.len()).sum();
        let fixed = DICT_HEADER_BYTES + 4 * (2 * TRIE_ENTRIES + 2);
        assert_eq!(buf.len(), fixed + 8 * g.len() + suffixes);
    }

    #[test]
    fn owners_are_per_collection() {
        let mut d0 = PartialDictionary::new(4);
        let mut d1 = PartialDictionary::new(9);
        insert_surface(&mut d0, "apple");
        insert_surface(&mut d0, "applesauce");
        insert_surface(&mut d1, "zebra");
        let g = GlobalDictionary::combine(&[d1, d0]);
        let owners: Vec<(String, u32)> = g.entries().map(|e| (e.full_term(), e.indexer)).collect();
        assert_eq!(
            owners,
            [("apple".to_string(), 4), ("applesauce".to_string(), 4), ("zebra".to_string(), 9)]
        );
    }

    #[test]
    #[should_panic(expected = "in two shards")]
    fn a_collection_in_two_shards_is_a_bug() {
        let mut d0 = PartialDictionary::new(0);
        let mut d1 = PartialDictionary::new(1);
        insert_surface(&mut d0, "apple");
        insert_surface(&mut d1, "applesauce");
        GlobalDictionary::combine(&[d0, d1]);
    }

    #[test]
    fn corrupt_dictionary_rejected() {
        assert!(GlobalDictionary::read_from(&mut &b"XXXX\0\0\0\0\0\0\0\0"[..]).is_err());
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        let cut = &buf[..buf.len() - 1];
        let err = GlobalDictionary::read_from(&mut &cut[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        buf.push(0);
        let err = GlobalDictionary::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "trailing byte");
    }

    /// `sample()` serialized with the little-endian word at `at` replaced.
    fn with_word(at: usize, word: u32) -> io::Result<GlobalDictionary> {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf[at..at + 4].copy_from_slice(&word.to_le_bytes());
        GlobalDictionary::read_from(&mut buf.as_slice())
    }

    #[test]
    fn every_column_is_validated() {
        let n = sample().len();
        let dir_at = DICT_HEADER_BYTES;
        let offsets_at = dir_at + 4 * (2 * TRIE_ENTRIES + 1);
        let invalid = |r: io::Result<GlobalDictionary>, what: &str| {
            assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidData, "{what}");
        };
        invalid(with_word(dir_at, 1), "directory not starting at 0");
        invalid(with_word(dir_at + 4 * TRIE_ENTRIES, n as u32 + 1), "directory past the count");
        invalid(with_word(dir_at + 4 * 20, u32::MAX), "directory descending");
        invalid(with_word(offsets_at, 1), "offsets not starting at 0");
        invalid(with_word(offsets_at + 4, u32::MAX), "offset past the arena");
        invalid(with_word(offsets_at + 4 * n, 0), "offsets not ending at the arena length");
        // "apple" and "applesauce" share a collection: push the second
        // suffix below the first through the arena.
        let g = sample();
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        let arena_at = buf.len() - g.arena.len();
        let at = g.lookup("applesauce").unwrap().suffix.as_ptr() as usize - g.arena.as_ptr() as usize;
        buf[arena_at + at] = b'a'; // "lesauce" -> "aesauce", now below "le"
        invalid(GlobalDictionary::read_from(&mut buf.as_slice()), "suffix out of order");
        // An equal neighbour is out of order too: the order is strict.
        let mut dup = GlobalDictionary::default();
        dup.push(40, &[b"x"], 0, 0);
        dup.push(40, &[b"x"], 0, 1);
        let mut buf = Vec::new();
        dup.finish().write_to(&mut buf).unwrap();
        invalid(GlobalDictionary::read_from(&mut buf.as_slice()), "duplicate suffix");
    }

    #[test]
    fn hostile_entry_count_is_a_failed_read_not_an_allocation() {
        // A header claiming u32::MAX terms and arena bytes, then nothing:
        // the reader must run out of bytes, not of memory.
        let mut buf = DICT_MAGIC.to_vec();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = GlobalDictionary::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = with_word(4, u32::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn partial_checkpoint_roundtrip_resumes_handle_assignment() {
        let mut d = PartialDictionary::new(1);
        for t in ["apple", "applesauce", "zebra", "954", "-80", "a", "apple", "zebra"] {
            insert_surface(&mut d, t);
        }
        let checkpoint = GlobalDictionary::combine(&[&d]);
        let mut shards = checkpoint.shards(2).unwrap();
        assert_eq!(shards[0].term_count(), 0, "indexer 0 owns nothing");
        let mut back = shards.pop().unwrap();
        assert_eq!(back.indexer_id, 1);
        assert_eq!(back.term_count(), d.term_count());
        assert_eq!(back.mem_bytes(), d.mem_bytes());
        // Existing terms resolve to their original handles...
        for t in ["apple", "zebra", "954"] {
            assert_eq!(lookup_surface(&mut back, t), lookup_surface(&mut d, t));
        }
        // ...and the next insert allocates the same handle in both shards:
        // the property byte-identical resume rests on.
        let a = insert_surface(&mut d, "quince");
        let b = insert_surface(&mut back, "quince");
        assert!(a.is_new && b.is_new);
        assert_eq!(a.postings, b.postings);
        // Combined output is identical too.
        assert_eq!(GlobalDictionary::combine(&[d]), GlobalDictionary::combine(&[back]));
    }

    #[test]
    fn checkpoint_bytes_are_stable_across_a_roundtrip() {
        // write → read → shards → combine → write must reproduce the same
        // bytes, splits and all.
        let mut d = PartialDictionary::new(0);
        for i in (0..400).rev() {
            insert_surface(&mut d, &format!("stable{i:04}"));
        }
        let mut first = Vec::new();
        GlobalDictionary::combine(&[d]).write_to(&mut first).unwrap();
        let back = GlobalDictionary::read_from(&mut first.as_slice()).unwrap().shards(1).unwrap();
        let mut second = Vec::new();
        GlobalDictionary::combine(&back).write_to(&mut second).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn shards_refuses_what_combine_cannot_have_written() {
        let invalid = |d: GlobalDictionary, n: usize, what: &str| {
            assert_eq!(d.shards(n).unwrap_err().kind(), io::ErrorKind::InvalidData, "{what}");
        };
        let of = |terms: &[(u32, &[u8], u32, u32)]| {
            let mut d = GlobalDictionary::default();
            terms.iter().for_each(|&(t, suffix, owner, handle)| d.push(t, &[suffix], owner, handle));
            d.finish()
        };
        assert_eq!(of(&[(40, b"x", 1, 0), (41, b"y", 0, 0)]).shards(2).unwrap().len(), 2);
        invalid(of(&[(40, b"x", 2, 0)]), 2, "owner past the pool");
        invalid(of(&[(40, b"x", 0, 1)]), 1, "handle past the shard's terms");
        invalid(of(&[(40, b"x", 0, 0), (41, b"y", 0, 0)]), 1, "handle held twice");
        invalid(of(&[(40, b"x", 0, u32::MAX), (40, b"y", 0, 0)]), 1, "handle far out of range");
        // In memory nothing stops a collection from repeating a suffix
        // (`from_bytes` does); the second insert finds the first.
        invalid(of(&[(40, b"x", 0, 0), (40, b"x", 0, 1)]), 1, "suffix twice in a collection");
        assert!(GlobalDictionary::default().shards(0).unwrap().is_empty());
    }

    /// Feed `stream` to `n` shards, each term to the shard owning its
    /// collection (`collection % n`), as the balance plan would.
    fn sharded(stream: &[String], n: u32) -> Vec<PartialDictionary> {
        let mut parts: Vec<PartialDictionary> = (0..n).map(PartialDictionary::new).collect();
        for term in stream {
            let (idx, suffix) = crate::trie::classify(term);
            parts[(idx.0 % n) as usize].insert_term(idx.0, suffix.as_bytes());
        }
        parts
    }

    /// A term of one of four kinds: a head collision ("wxyz…"), a shared
    /// prefix, a short word that may be all head, a number.
    fn term((kind, tail): (u8, String)) -> String {
        match kind {
            0 => format!("wxyz{tail}"),
            1 => format!("shared-prefix-{tail}"),
            2 => tail,
            _ => tail.bytes().map(|b| char::from(b'0' + b % 10)).collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn prop_shards_is_the_inverse_of_combine(
            // Few enough distinct tails to repeat, enough terms to split.
            stream in proptest::collection::vec((0u8..4, "[a-d]{1,5}"), 1..600),
            more in proptest::collection::vec((0u8..4, "[a-e]{1,5}"), 1..40),
            n in 1u32..4,
        ) {
            let stream: Vec<String> = stream.into_iter().map(term).collect();
            let more: Vec<String> = more.into_iter().map(term).collect();
            let mut original = sharded(&stream, n);
            let d = GlobalDictionary::combine(&original);
            let mut rebuilt = d.shards(n as usize).unwrap();
            proptest::prop_assert_eq!(&GlobalDictionary::combine(&rebuilt), &d);
            for (a, b) in original.iter_mut().zip(&mut rebuilt) {
                proptest::prop_assert_eq!(a.term_count(), b.term_count());
                proptest::prop_assert_eq!(a.mem_bytes(), b.mem_bytes());
            }
            for term in stream.iter().chain(&more) {
                let (idx, suffix) = crate::trie::classify(term);
                let shard = (idx.0 % n) as usize;
                let a = original[shard].insert_term(idx.0, suffix.as_bytes());
                let b = rebuilt[shard].insert_term(idx.0, suffix.as_bytes());
                proptest::prop_assert_eq!(a, b, "{}", term);
            }
            proptest::prop_assert_eq!(
                GlobalDictionary::combine(&original),
                GlobalDictionary::combine(&rebuilt)
            );
        }
    }

    #[test]
    fn lookup_uses_trie_classification() {
        let mut d = PartialDictionary::new(0);
        insert_surface(&mut d, "application");
        let g = GlobalDictionary::combine(&[d]);
        let e = g.lookup("application").unwrap();
        assert_eq!(e.suffix, b"lication");
        assert!(g.lookup("applicatio").is_none() && g.lookup("applications").is_none());
        assert!(g.lookup("app").is_none() && g.lookup("").is_none() && g.lookup("été").is_none());
        assert_eq!(e.trie_index, crate::trie::trie_index("application").0);
    }
}
