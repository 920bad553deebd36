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
//! shard paid is gone. Checkpoints keep the legacy `IIPD` byte format
//! (512-byte Table II nodes): nodes are converted at the serialization
//! boundary, which is also what keeps GPU device interop unchanged.

use crate::btree::{BTree, BTreeStore, InsertOutcome};
use crate::node::NULL;
use crate::slotted::SlottedStore;
use crate::trie::{trie_index, TrieIndex, TRIE_ENTRIES};
use std::collections::HashMap;
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

    /// Rebuild a shard from a reconstructed legacy store and its
    /// per-collection tree roots (the GPU download path). The legacy nodes
    /// are converted into slotted form; handles and structure carry over
    /// exactly.
    pub fn from_parts(indexer_id: u32, store: BTreeStore, roots: HashMap<u32, BTree>) -> Self {
        let mut table = vec![NULL; TRIE_ENTRIES];
        for (ti, tree) in roots {
            let ti = ti as usize;
            if ti >= table.len() {
                table.resize(ti + 1, NULL);
            }
            table[ti] = tree.root;
        }
        PartialDictionary { indexer_id, store: SlottedStore::from_legacy(store), roots: table }
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

    /// Resident bytes of the shard's arenas (node arena + string arena +
    /// trie-root table) for the pipeline memory governor. Deterministic
    /// for a given insert history, so budget decisions keyed on it replay
    /// exactly.
    pub fn mem_bytes(&self) -> u64 {
        self.store.mem_bytes() + (self.roots.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Serialize the complete shard state — node arena, string arena,
    /// postings high-water mark, and per-collection tree roots — for a
    /// build checkpoint. The byte layout is the legacy `IIPD` format
    /// (512-byte Table II nodes in canonical form) and is identical for
    /// CPU- and GPU-built shards, so a resumed build restores exactly the
    /// handle-assignment state and later inserts allocate the same
    /// postings handles as an uninterrupted run.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        let nodes = self.store.to_legacy_nodes();
        let strings = self.store.strings.as_bytes();
        let roots: Vec<(u32, u32)> =
            self.trie_indices().map(|ti| (ti, self.roots[ti as usize])).collect();
        w.write_all(PARTIAL_MAGIC)?;
        w.write_all(&self.indexer_id.to_le_bytes())?;
        w.write_all(&self.store.term_count().to_le_bytes())?;
        w.write_all(&(nodes.len() as u32).to_le_bytes())?;
        w.write_all(&(strings.len() as u32).to_le_bytes())?;
        w.write_all(&(roots.len() as u32).to_le_bytes())?;
        for n in &nodes {
            w.write_all(&n.to_bytes())?;
        }
        w.write_all(strings)?;
        for (ti, root) in &roots {
            w.write_all(&ti.to_le_bytes())?;
            w.write_all(&root.to_le_bytes())?;
        }
        Ok(24 + nodes.len() as u64 * crate::node::NODE_BYTES as u64
            + strings.len() as u64
            + roots.len() as u64 * 8)
    }

    /// Deserialize a shard written by [`Self::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<PartialDictionary> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut head = [0u8; 24];
        r.read_exact(&mut head)?;
        if &head[..4] != PARTIAL_MAGIC {
            return Err(bad("bad partial-dictionary magic"));
        }
        let word = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().unwrap());
        let indexer_id = word(4);
        let term_count = word(8);
        let n_nodes = word(12) as usize;
        let n_strings = word(16) as usize;
        let n_trees = word(20) as usize;
        let mut nodes = presized(n_nodes);
        for _ in 0..n_nodes {
            let mut buf = [0u8; crate::node::NODE_BYTES];
            r.read_exact(&mut buf)?;
            nodes.push(crate::node::BTreeNode::from_bytes(&buf));
        }
        let mut strings = presized(n_strings);
        r.by_ref().take(n_strings as u64).read_to_end(&mut strings)?;
        if strings.len() != n_strings {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let mut roots = vec![NULL; TRIE_ENTRIES];
        for _ in 0..n_trees {
            let mut pair = [0u8; 8];
            r.read_exact(&mut pair)?;
            let ti = u32::from_le_bytes(pair[..4].try_into().unwrap());
            let root = u32::from_le_bytes(pair[4..].try_into().unwrap());
            if root as usize >= n_nodes {
                return Err(bad("tree root out of node range"));
            }
            if ti as usize >= TRIE_ENTRIES {
                return Err(bad("trie index out of table range"));
            }
            if roots[ti as usize] != NULL {
                return Err(bad("duplicate trie collection in partial dictionary"));
            }
            roots[ti as usize] = root;
        }
        let store = SlottedStore::from_legacy(BTreeStore::from_parts(
            crate::arena::NodeArena::from_nodes(nodes),
            crate::arena::StringArena::from_bytes(strings),
            term_count,
        ));
        Ok(PartialDictionary { indexer_id, store, roots })
    }
}

const PARTIAL_MAGIC: &[u8; 4] = b"IIPD";

/// Most bytes a reader reserves on the word of a record count whose records
/// it has not read yet. `ii repair` hands these readers files no checksum
/// has vouched for, so a hostile count must cost a failed read, not the
/// allocation it names; every dictionary the ledger builds fits, so an
/// honest one is still sized once.
const PRESIZE_BYTES: usize = 16 << 20;

/// An empty vector with room for `claimed` records, up to [`PRESIZE_BYTES`];
/// past that it grows as the records actually arrive.
fn presized<T>(claimed: usize) -> Vec<T> {
    Vec::with_capacity(claimed.min(PRESIZE_BYTES / std::mem::size_of::<T>()))
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
    /// walked in order straight into the arena.
    pub fn combine(parts: &[PartialDictionary]) -> GlobalDictionary {
        const UNOWNED: usize = usize::MAX;
        let mut part_of = vec![UNOWNED; TRIE_ENTRIES];
        for (i, p) in parts.iter().enumerate() {
            for ti in p.trie_indices() {
                let slot = &mut part_of[ti as usize];
                assert!(*slot == UNOWNED, "trie collection {ti} is in two shards");
                *slot = i;
            }
        }
        let mut dict = GlobalDictionary::default();
        let terms: usize = parts.iter().map(|p| p.term_count() as usize).sum();
        dict.offsets.reserve_exact(terms);
        dict.handles.reserve_exact(terms);
        for (ti, &i) in part_of.iter().enumerate() {
            if i != UNOWNED {
                let p = &parts[i];
                let tree = p.tree(ti as u32).expect("listed index has a tree");
                p.store.for_each_term(&tree, &mut |head, rest, postings| {
                    dict.push(ti as u32, &[head, rest], p.indexer_id, postings)
                });
            }
        }
        dict.finish()
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
    fn hostile_shard_counts_are_a_failed_read_not_an_allocation() {
        // [magic, indexer, terms, n_nodes, n_strings, n_trees] and nothing
        // else, with u32::MAX nodes (2 TB) and then u32::MAX string bytes.
        for (n_nodes, n_strings) in [(u32::MAX, 0), (0, u32::MAX)] {
            let mut buf = PARTIAL_MAGIC.to_vec();
            for word in [0, 0, n_nodes, n_strings, 0] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
            let err = PartialDictionary::read_from(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{n_nodes} nodes");
        }
    }

    #[test]
    fn partial_checkpoint_roundtrip_resumes_handle_assignment() {
        let mut d = PartialDictionary::new(7);
        for t in ["apple", "applesauce", "zebra", "954", "-80", "a"] {
            insert_surface(&mut d, t);
        }
        let mut buf = Vec::new();
        let n = d.write_to(&mut buf).unwrap();
        assert_eq!(n as usize, buf.len());
        let mut back = PartialDictionary::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.indexer_id, 7);
        assert_eq!(back.term_count(), d.term_count());
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
        let g1 = GlobalDictionary::combine(&[d]);
        let g2 = GlobalDictionary::combine(&[back]);
        assert_eq!(g1, g2);
    }

    #[test]
    fn checkpoint_bytes_are_stable_across_a_roundtrip() {
        // write → read → write must reproduce the same bytes: the slotted
        // store's canonical legacy rendering is a fixed point.
        let mut d = PartialDictionary::new(2);
        for i in 0..400 {
            insert_surface(&mut d, &format!("stable{i:04}"));
        }
        let mut first = Vec::new();
        d.write_to(&mut first).unwrap();
        let back = PartialDictionary::read_from(&mut first.as_slice()).unwrap();
        let mut second = Vec::new();
        back.write_to(&mut second).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn partial_checkpoint_rejects_garbage() {
        assert!(PartialDictionary::read_from(&mut &b"XXXX"[..]).is_err());
        let mut d = PartialDictionary::new(0);
        insert_surface(&mut d, "apple");
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let full = buf.clone();
        buf.truncate(buf.len() - 1);
        assert!(PartialDictionary::read_from(&mut buf.as_slice()).is_err());
        // A root index outside the node arena is rejected, not trusted.
        let mut broken = full.clone();
        let len = broken.len();
        broken[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PartialDictionary::read_from(&mut broken.as_slice()).is_err());
        // A trie index beyond the table is rejected too.
        let mut broken = full;
        let len = broken.len();
        broken[len - 8..len - 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PartialDictionary::read_from(&mut broken.as_slice()).is_err());
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
