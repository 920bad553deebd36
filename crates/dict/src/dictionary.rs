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

/// One record of the combined dictionary: where to find the postings list
/// of a term. `indexer` + `postings` locate the list among the per-indexer
/// outputs (the mapping-table indirection of §III.F).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DictEntry {
    /// Trie collection of the term.
    pub trie_index: u32,
    /// Stored suffix (term minus the trie-captured prefix).
    pub suffix: Vec<u8>,
    /// Owning indexer.
    pub indexer: u32,
    /// Postings handle within that indexer's output.
    pub postings: u32,
}

impl DictEntry {
    /// Reconstruct the full term (prefix + suffix).
    pub fn full_term(&self) -> String {
        let mut s = TrieIndex(self.trie_index).prefix();
        s.push_str(&String::from_utf8_lossy(&self.suffix));
        s
    }
}

/// The combined, immutable dictionary for the whole collection.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GlobalDictionary {
    /// Entries sorted by `(trie_index, suffix)`.
    entries: Vec<DictEntry>,
}

const DICT_MAGIC: &[u8; 4] = b"IIDC";

impl GlobalDictionary {
    /// Combine per-indexer shards. Each shard's trie collections are
    /// disjoint by construction; entries are gathered tree by tree (terms
    /// come out of each B-tree already sorted) and then ordered globally.
    pub fn combine(parts: &[PartialDictionary]) -> GlobalDictionary {
        let mut entries = Vec::new();
        for p in parts {
            for ti in p.trie_indices() {
                let tree = p.tree(ti).expect("listed index has a tree");
                for (suffix, postings) in p.store.iter_terms(&tree) {
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
        GlobalDictionary { entries }
    }

    /// Build from already-gathered entries (the frozen reference combine).
    pub(crate) fn from_entries(entries: Vec<DictEntry>) -> GlobalDictionary {
        GlobalDictionary { entries }
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in `(trie_index, suffix)` order.
    pub fn entries(&self) -> &[DictEntry] {
        &self.entries
    }

    /// Look up a surface term (it is classified and prefix-stripped here).
    pub fn lookup(&self, term: &str) -> Option<&DictEntry> {
        let (idx, suffix) = crate::trie::classify(term);
        self.entries
            .binary_search_by(|e| {
                (e.trie_index, e.suffix.as_slice()).cmp(&(idx.0, suffix.as_bytes()))
            })
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Convenience: classify + lookup for an already-stemmed term string.
    pub fn contains(&self, term: &str) -> bool {
        self.lookup(term).is_some()
    }

    /// Serialize to `w`; returns bytes written (the "Dictionary Write"
    /// cost). Suffixes are front-coded against the previous entry, the
    /// compression Heinz & Zobel [4] apply to lexicographically ordered
    /// dictionaries.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        let mut bytes = 0u64;
        w.write_all(DICT_MAGIC)?;
        w.write_all(&(self.entries.len() as u32).to_le_bytes())?;
        bytes += 8;
        let mut prev: &[u8] = b"";
        let mut prev_trie = u32::MAX;
        for e in &self.entries {
            let shared = if e.trie_index == prev_trie {
                prev.iter().zip(&e.suffix).take_while(|(a, b)| a == b).count().min(255)
            } else {
                0
            };
            let rest = &e.suffix[shared..];
            w.write_all(&e.trie_index.to_le_bytes())?;
            w.write_all(&[shared as u8, rest.len() as u8])?;
            w.write_all(rest)?;
            w.write_all(&e.indexer.to_le_bytes())?;
            w.write_all(&e.postings.to_le_bytes())?;
            bytes += 4 + 2 + rest.len() as u64 + 8;
            prev = &e.suffix;
            prev_trie = e.trie_index;
        }
        Ok(bytes)
    }

    /// Deserialize a dictionary written by [`Self::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<GlobalDictionary> {
        let mut head = [0u8; 8];
        r.read_exact(&mut head)?;
        if &head[..4] != DICT_MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad dictionary magic"));
        }
        let n = u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize;
        let mut entries = presized(n);
        let mut prev: Vec<u8> = Vec::new();
        for _ in 0..n {
            let mut fixed = [0u8; 6];
            r.read_exact(&mut fixed)?;
            let trie = u32::from_le_bytes([fixed[0], fixed[1], fixed[2], fixed[3]]);
            let shared = fixed[4] as usize;
            let rest_len = fixed[5] as usize;
            let mut rest = vec![0u8; rest_len];
            r.read_exact(&mut rest)?;
            if shared > prev.len() {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "bad front-coding"));
            }
            let mut suffix = prev[..shared].to_vec();
            suffix.extend_from_slice(&rest);
            let mut tail = [0u8; 8];
            r.read_exact(&mut tail)?;
            let indexer = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
            let postings = u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]]);
            prev = suffix.clone();
            entries.push(DictEntry { trie_index: trie, suffix, indexer, postings });
        }
        Ok(GlobalDictionary { entries })
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
        let keys: Vec<(u32, Vec<u8>)> =
            g.entries().iter().map(|e| (e.trie_index, e.suffix.clone())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut d = PartialDictionary::new(3);
        for t in [
            "apple", "applesauce", "application", "applied", "zebra", "zeal", "954", "-80",
            "a",
        ] {
            insert_surface(&mut d, t);
        }
        let g = GlobalDictionary::combine(&[d]);
        let mut buf = Vec::new();
        let n = g.write_to(&mut buf).unwrap();
        assert_eq!(n as usize, buf.len());
        let g2 = GlobalDictionary::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn front_coding_helps_on_shared_prefixes() {
        let mut d = PartialDictionary::new(0);
        // Long terms sharing long prefixes inside one trie collection.
        for i in 0..100 {
            insert_surface(&mut d, &format!("prefixsharedverylong{i:03}"));
        }
        let g = GlobalDictionary::combine(&[d]);
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        let raw_size: usize =
            g.entries().iter().map(|e| e.suffix.len() + 14).sum::<usize>() + 8;
        assert!(
            buf.len() < raw_size * 2 / 3,
            "front coding should shrink output: {} vs {}",
            buf.len(),
            raw_size
        );
    }

    #[test]
    fn corrupt_dictionary_rejected() {
        assert!(GlobalDictionary::read_from(&mut &b"XXXX\0\0\0\0"[..]).is_err());
        let mut d = PartialDictionary::new(0);
        insert_surface(&mut d, "apple");
        let g = GlobalDictionary::combine(&[d]);
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(GlobalDictionary::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn hostile_entry_count_is_a_failed_read_not_an_allocation() {
        // Magic and a count of u32::MAX entries (160 GB of `DictEntry`),
        // then nothing: the reader must run out of bytes, not of memory.
        let mut buf = DICT_MAGIC.to_vec();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = GlobalDictionary::read_from(&mut buf.as_slice()).unwrap_err();
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
        assert_eq!(e.trie_index, crate::trie::trie_index("application").0);
    }
}
