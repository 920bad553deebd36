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
use ii_postings::bits::{bits_needed, packed_len, unpack_bits_into, BitPacker};
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
        let strings = self.store.strings.len_bytes() as u64;
        shard_mem_bytes(u64::from(self.term_count()), self.trie_indices().count() as u64, strings)
    }
}

/// [`PartialDictionary::mem_bytes`] of a shard of `terms` distinct terms
/// in `collections` trees holding `string_bytes` of suffix remainders: its
/// [`tree_nodes`] nodes, the string arena and the trie-root table. What a
/// shard still on a device will be charged once it is on the host.
pub fn shard_mem_bytes(terms: u64, collections: u64, string_bytes: u64) -> u64 {
    tree_nodes(terms, collections) * std::mem::size_of::<crate::slotted::SlottedNode>() as u64
        + string_bytes
        + (TRIE_ENTRIES * std::mem::size_of::<u32>()) as u64
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

const DICT_MAGIC: &[u8; 4] = b"IIDF";
/// Magic, term count, suffix bytes, rest bytes, escape bytes, the count,
/// owner and handle widths in bits, one reserved zero byte.
const DICT_HEADER_BYTES: usize = 24;
/// Longest suffix a dictionary holds: terms are at most 255 bytes
/// (`ii_text::MAX_TERM_BYTES`).
const MAX_SUFFIX_BYTES: usize = 255;
/// A length nibble of this value escapes: the length is this plus the
/// byte that follows.
const ESCAPE: usize = 15;

/// Byte lengths of the sections after a dictionary file's header, in file
/// order: per-collection term counts and owners, each packed at its width;
/// a length byte per suffix and its escape bytes; the postings handles,
/// packed at theirs; the rest bytes.
fn section_lens(n: usize, escapes: usize, rest: usize, [count_w, owner_w, handle_w]: [u32; 3]) -> [usize; 5] {
    [
        packed_len(TRIE_ENTRIES, count_w),
        packed_len(TRIE_ENTRIES, owner_w),
        n + escapes,
        packed_len(n, handle_w),
        rest,
    ]
}

/// Bits needed by the largest of `vals` (0 when there is none).
fn width_of(vals: &[u32]) -> u32 {
    bits_needed(vals.iter().copied().max().unwrap_or(0))
}

/// Front coding: each suffix of a collection as the bytes it shares with
/// the suffix before it and the rest. The first suffix of a collection
/// shares nothing.
struct FrontCoder {
    /// Collection of the previous suffix.
    trie: Option<u32>,
    /// The previous suffix and the next one, each with the slack a word
    /// read past its last byte needs.
    bufs: [[u8; MAX_SUFFIX_BYTES + 8]; 2],
    lens: [usize; 2],
    /// Which of `bufs` holds the previous suffix.
    prev: usize,
}

impl FrontCoder {
    fn new() -> FrontCoder {
        FrontCoder { trie: None, bufs: [[0; MAX_SUFFIX_BYTES + 8]; 2], lens: [0; 2], prev: 0 }
    }

    /// The next suffix, `suffix` in pieces, of collection `ti`: its length
    /// and how many of its bytes it shares with the previous one, compared
    /// eight at a time. It is remembered as the previous one.
    #[inline]
    fn next(&mut self, ti: u32, suffix: &[&[u8]]) -> (usize, usize) {
        let (prev, cur) = (self.prev, 1 - self.prev);
        let mut len = 0;
        for piece in suffix {
            assert!(len + piece.len() <= MAX_SUFFIX_BYTES, "term longer than 255 bytes");
            self.bufs[cur][len..len + piece.len()].copy_from_slice(piece);
            len += piece.len();
        }
        let limit = if self.trie == Some(ti) { len.min(self.lens[prev]) } else { 0 };
        let mut shared = 0;
        while shared < limit {
            let word = |buf: &[u8]| u64::from_le_bytes(buf[shared..shared + 8].try_into().unwrap());
            let differ = word(&self.bufs[prev]) ^ word(&self.bufs[cur]);
            if differ != 0 {
                shared += differ.trailing_zeros() as usize / 8;
                break;
            }
            shared += 8;
        }
        (self.trie, self.lens[cur], self.prev) = (Some(ti), len, cur);
        (len, shared.min(limit))
    }
}

/// What a dictionary file's header and sizes are made of, counted over its
/// terms in `(trie_index, suffix)` order, and each term's shared length.
struct Tally {
    counts: Vec<u32>,
    owners: Vec<u32>,
    /// Per term, the bytes its suffix shares with the one before it.
    shared: Vec<u8>,
    suffix_bytes: usize,
    rest_bytes: usize,
    escapes: usize,
    max_handle: u32,
    coder: FrontCoder,
}

impl Tally {
    /// A tally of no terms yet, the collections owned by `owners`.
    fn new(owners: Vec<u32>) -> Tally {
        Tally {
            counts: vec![0; TRIE_ENTRIES],
            owners,
            shared: Vec::new(),
            suffix_bytes: 0,
            rest_bytes: 0,
            escapes: 0,
            max_handle: 0,
            coder: FrontCoder::new(),
        }
    }

    #[inline]
    fn add(&mut self, ti: u32, suffix: &[&[u8]], owner: u32, handle: u32) {
        let (len, shared) = self.coder.next(ti, suffix);
        let rest = len - shared;
        self.counts[ti as usize] += 1;
        self.owners[ti as usize] = owner;
        self.shared.push(shared as u8);
        self.suffix_bytes += len;
        self.rest_bytes += rest;
        self.escapes += usize::from(shared >= ESCAPE) + usize::from(rest >= ESCAPE);
        self.max_handle = self.max_handle.max(handle);
    }
}

/// Write one dictionary file into `out` (cleared first) — the one writer
/// behind [`GlobalDictionary::write_to`] and
/// [`GlobalDictionary::write_combined`]: the terms `tally` counted, which
/// `terms` hands to the [`TermColumns`] it is given, in the same order.
/// Returns the bytes written.
fn write_layout(out: &mut Vec<u8>, tally: &Tally, terms: impl FnOnce(&mut TermColumns)) -> u64 {
    let n: usize = tally.counts.iter().map(|&c| c as usize).sum();
    let word = |v: usize| u32::try_from(v).expect("dictionary suffixes exceed 4 GiB").to_le_bytes();
    let widths = [width_of(&tally.counts), width_of(&tally.owners), bits_needed(tally.max_handle)];
    let lens = section_lens(n, tally.escapes, tally.rest_bytes, widths);
    out.clear();
    out.resize(DICT_HEADER_BYTES + lens.iter().sum::<usize>(), 0);
    let (head, rest) = out.split_at_mut(DICT_HEADER_BYTES);
    head[..4].copy_from_slice(DICT_MAGIC);
    for (at, v) in [n, tally.suffix_bytes, tally.rest_bytes, tally.escapes].into_iter().enumerate() {
        head[4 + 4 * at..8 + 4 * at].copy_from_slice(&word(v));
    }
    for (at, w) in widths.into_iter().enumerate() {
        head[20 + at] = w as u8;
    }
    let (count_col, rest) = rest.split_at_mut(lens[0]);
    let (owner_col, rest) = rest.split_at_mut(lens[1]);
    let (len_col, rest) = rest.split_at_mut(lens[2]);
    let (handle_col, arena) = rest.split_at_mut(lens[3]);
    for (col, vals, w) in [(count_col, &tally.counts, widths[0]), (owner_col, &tally.owners, widths[1])] {
        let mut packer = BitPacker::new(col, w);
        vals.iter().for_each(|&v| packer.put(v));
        packer.finish();
    }
    let mut cols = TermColumns {
        shared: &tally.shared,
        lens: len_col,
        handles: BitPacker::new(handle_col, widths[2]),
        arena,
        at: 0,
        end: 0,
        i: 0,
    };
    terms(&mut cols);
    assert!(
        cols.i == n && cols.at == lens[2] && cols.end == tally.rest_bytes,
        "the terms walked are not the terms counted"
    );
    cols.handles.finish();
    out.len() as u64
}

/// The per-term columns of a dictionary file being written: the length
/// byte and escapes, a packed handle and the rest bytes of each term, in
/// order, each term's shared length as the [`Tally`] counted it.
struct TermColumns<'a> {
    shared: &'a [u8],
    lens: &'a mut [u8],
    handles: BitPacker<'a>,
    arena: &'a mut [u8],
    /// Length-column bytes written.
    at: usize,
    /// Rest bytes written.
    end: usize,
    /// Terms written.
    i: usize,
}

impl TermColumns<'_> {
    /// Write the next term: its suffix, in pieces, and its handle. Its
    /// length byte holds the shared length in the high nibble and the
    /// rest's length in the low one, each escaped at [`ESCAPE`] to a byte
    /// that follows, the shared length's first.
    #[inline]
    fn put(&mut self, suffix: &[&[u8]], handle: u32) {
        let shared = usize::from(self.shared[self.i]);
        let rest = suffix.iter().map(|piece| piece.len()).sum::<usize>() - shared;
        let nibble = |len: usize| len.min(ESCAPE) as u8;
        self.lens[self.at] = nibble(shared) << 4 | nibble(rest);
        self.at += 1;
        for len in [shared, rest] {
            if len >= ESCAPE {
                self.lens[self.at] = (len - ESCAPE) as u8;
                self.at += 1;
            }
        }
        let mut skip = shared;
        for piece in suffix {
            let tail = piece.get(skip..).unwrap_or_default();
            self.arena[self.end..self.end + tail.len()].copy_from_slice(tail);
            self.end += tail.len();
            skip = skip.saturating_sub(piece.len());
        }
        self.handles.put(handle);
        self.i += 1;
    }
}

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
        let mut dict = GlobalDictionary::default();
        let terms: usize = parts.iter().map(|p| p.borrow().term_count() as usize).sum();
        dict.offsets.reserve_exact(terms);
        dict.handles.reserve_exact(terms);
        for_each_combined_term(parts, |ti, suffix, indexer, postings| {
            dict.push(ti, suffix, indexer, postings)
        });
        dict.finish()
    }

    /// Serialise the dictionary [`Self::combine`] builds from `parts`
    /// straight from the shards into `out` (cleared first): byte for byte
    /// what `combine` and then [`Self::write_to`] write, without a second
    /// copy of every term beside the shards (only its shared length, a byte
    /// a term). One walk of every tree counts the collections, their
    /// owners, the suffix, rest and escape bytes and the widest handle and
    /// front-codes each suffix; a second fills the length, handle and
    /// arena columns in place, packing each handle as it reaches it.
    /// Returns the bytes written. A checkpoint serialises this way while
    /// the pool's shards stay live.
    pub fn write_combined<P: Borrow<PartialDictionary>>(parts: &[P], out: &mut Vec<u8>) -> u64 {
        let mut tally = Tally::new(vec![0; TRIE_ENTRIES]);
        for_each_combined_term(parts, |ti, suffix, indexer, postings| {
            tally.add(ti, suffix, indexer, postings)
        });
        write_layout(out, &tally, |cols| {
            for_each_combined_term(parts, |_, suffix, _, postings| cols.put(suffix, postings))
        })
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
    /// cost). The file is the structure itself, each column at the width
    /// its values need (DESIGN.md §8): the header, then the term count of
    /// every collection and its owner, bit-packed; a length byte per
    /// suffix, front-coded, and its escapes; the postings handles,
    /// bit-packed; the rest bytes of every suffix.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        let out = self.to_bytes();
        w.write_all(&out)?;
        Ok(out.len() as u64)
    }

    /// The bytes [`Self::write_to`] writes, laid out once in the buffer
    /// returned.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut tally = Tally::new(self.owners.clone());
        self.for_each_term(|ti, suffix, handle| tally.add(ti, suffix, self.owners[ti as usize], handle));
        let mut out = Vec::new();
        write_layout(&mut out, &tally, |cols| {
            self.for_each_term(|_, suffix, handle| cols.put(suffix, handle))
        });
        out
    }

    /// `f(trie index, suffix, handle)` of every term, in order.
    fn for_each_term(&self, mut f: impl FnMut(u32, &[&[u8]], u32)) {
        for t in 0..TRIE_ENTRIES {
            for i in self.collection(t) {
                f(t as u32, &[self.suffix(i)], self.handles[i]);
            }
        }
    }

    /// Whether `bytes` begin as a dictionary of this layout does: a file
    /// that does not was written by another layout, not damaged.
    pub fn is_this_layout(bytes: &[u8]) -> bool {
        bytes.starts_with(DICT_MAGIC)
    }

    /// Deserialize a dictionary written by [`Self::write_to`]: everything
    /// `r` has left, through [`Self::from_bytes`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<GlobalDictionary> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// The term count of the dictionary `bytes` hold, once its header is
    /// of this layout and the file is exactly as long as the header calls
    /// for — every term backed by at least a byte — and before any column
    /// is read. What [`Self::from_bytes`] checks first; `None` where it
    /// fails there.
    pub fn term_count_of(bytes: &[u8]) -> Option<usize> {
        Header::parse(bytes).ok().map(|(head, _)| head.n)
    }

    /// Parse the bytes [`Self::write_to`] wrote, checking in one pass
    /// everything [`Self::lookup`] and [`Self::entries`] rely on: widths of
    /// at most 32 bits and a zero reserved byte, collection counts that sum
    /// to the term count, and per suffix a length code inside the length
    /// column, a shared length of 0 for a collection's first suffix and at
    /// most the previous suffix's length after it, rest bytes inside the
    /// arena, and a suffix above the one before it — its first rest byte
    /// above the previous suffix's byte there, or the previous suffix a
    /// proper prefix of it — so each is decoded as it is checked, in O(1)
    /// beside its bytes. The columns must end where the header says. A
    /// file shorter than its header says is `UnexpectedEof`, one longer
    /// `InvalidData`; nothing is allocated before the length is checked,
    /// so every count is backed by bytes.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<GlobalDictionary> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let (head, body) = Header::parse(bytes)?;
        let n = head.n;
        // A suffix is its shared bytes and its rest: the decoded arena
        // holds at most 255 bytes a term more than the rest bytes.
        if head.suffix_bytes as u64 > head.lens[4] as u64 + n as u64 * MAX_SUFFIX_BYTES as u64 {
            return Err(bad("more suffix bytes than the terms can share"));
        }
        let mut rest = body;
        let mut cut = |len: usize| {
            let (col, tail) = rest.split_at(len);
            rest = tail;
            col
        };
        let lens = head.lens;
        let (count_col, owner_col, len_col, handle_col, rest_col) =
            (cut(lens[0]), cut(lens[1]), cut(lens[2]), cut(lens[3]), cut(lens[4]));
        let unpack = |col: &[u8], out: &mut [u32], w: u32| {
            unpack_bits_into(col, out, w).expect("columns are cut at their packed length");
        };
        let mut dir = vec![0u32; TRIE_ENTRIES + 1];
        unpack(count_col, &mut dir[1..], head.widths[0]);
        let mut ordinal = 0u64;
        for d in &mut dir[1..] {
            ordinal += u64::from(*d);
            if ordinal > n as u64 {
                break;
            }
            *d = ordinal as u32;
        }
        if ordinal != n as u64 {
            return Err(bad("collection term counts do not sum to the term count"));
        }
        let mut owners = vec![0u32; TRIE_ENTRIES];
        unpack(owner_col, &mut owners, head.widths[1]);
        let mut handles = vec![0u32; n];
        unpack(handle_col, &mut handles, head.widths[2]);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        // Sized for every suffix plus the slack a whole-chunk store of the
        // last one writes past its end.
        let mut arena = vec![0u8; head.suffix_bytes + CHUNK];
        let (mut at, mut end, mut filled) = (0usize, 0usize, 0usize);
        let escaped = |len: u8, at: &mut usize| -> io::Result<usize> {
            let len = usize::from(len);
            if len < ESCAPE {
                return Ok(len);
            }
            let byte = len_col.get(*at).ok_or_else(|| bad("an escape past the length column"))?;
            *at += 1;
            Ok(ESCAPE + usize::from(*byte))
        };
        for t in 0..TRIE_ENTRIES {
            let terms = dir[t + 1] - dir[t];
            // The previous suffix: where it starts, its length, and its
            // first chunk, kept in a register rather than read back from
            // the arena just written.
            let (mut prev_start, mut prev_len, mut prev) = (filled, 0usize, 0u128);
            for i in 0..terms {
                let code = *len_col.get(at).ok_or_else(|| bad("lengths past the length column"))?;
                at += 1;
                let (shared, rest_len) = match code >> 4 == 0xF || code & 0xF == 0xF {
                    false => (usize::from(code >> 4), usize::from(code & 0xF)),
                    true => (escaped(code >> 4, &mut at)?, escaped(code & 0xF, &mut at)?),
                };
                let rest = chunk_at(rest_col, end);
                // The previous suffix's byte where this one's rest begins.
                let before = match shared < CHUNK {
                    true => (prev >> (8 * shared)) as u8,
                    false => arena.get(prev_start + shared).copied().unwrap_or(0),
                };
                let len = shared + rest_len;
                // Every check at once, so that the loop has one branch that
                // is never taken; which one failed is worked out after.
                let first = i == 0;
                let ascends = first
                    | (shared == prev_len) & (rest_len > 0)
                    | (shared < prev_len) & (rest_len > 0) & (rest as u8 > before);
                if !ascends
                    | first & (shared != 0)
                    | (end + rest_len > rest_col.len())
                    | (len > MAX_SUFFIX_BYTES)
                    | (filled + len > head.suffix_bytes)
                {
                    return Err(bad(match () {
                        _ if end + rest_len > rest_col.len() => "rest bytes past the arena",
                        _ if first & (shared != 0) => "a collection's first suffix shares bytes",
                        _ if shared > prev_len => "a suffix shares more than the suffix before it",
                        _ if !ascends => "suffixes out of order inside a trie collection",
                        _ => "suffixes longer than their lengths say",
                    }));
                }
                // The first chunk: the previous suffix's up to `shared`, then
                // the rest (and, past `len`, bytes the next suffix writes over).
                let cur = match shared < CHUNK {
                    true => prev & !(u128::MAX << (8 * shared)) | rest << (8 * shared),
                    false => prev,
                };
                arena[filled..filled + CHUNK].copy_from_slice(&cur.to_le_bytes());
                if len > CHUNK {
                    arena.copy_within(prev_start..prev_start + shared, filled);
                    arena[filled + shared..filled + len].copy_from_slice(&rest_col[end..end + rest_len]);
                }
                end += rest_len;
                (prev_start, prev_len, prev) = (filled, len, cur);
                filled += len;
                offsets.push(filled as u32);
            }
        }
        if at != len_col.len() || end != rest_col.len() || filled != head.suffix_bytes {
            return Err(bad("suffix lengths do not sum to the columns' lengths"));
        }
        arena.truncate(filled);
        Ok(GlobalDictionary { dir, owners, offsets, handles, arena })
    }
}

/// Bytes of a suffix the decoder builds in a register: a suffix's first
/// chunk is the previous one's up to the shared length, then its rest.
const CHUNK: usize = 16;

/// `bytes[at..at + CHUNK]` as a little-endian word, zeros past the end of
/// `bytes`.
#[inline(always)]
fn chunk_at(bytes: &[u8], at: usize) -> u128 {
    match bytes.get(at..at + CHUNK) {
        Some(chunk) => u128::from_le_bytes(chunk.try_into().unwrap()),
        None => {
            let mut chunk = [0u8; CHUNK];
            let tail = &bytes[at.min(bytes.len())..];
            chunk[..tail.len()].copy_from_slice(tail);
            u128::from_le_bytes(chunk)
        }
    }
}

/// A dictionary file's header, checked against the file's length.
struct Header {
    n: usize,
    suffix_bytes: usize,
    widths: [u32; 3],
    /// [`section_lens`] of the file.
    lens: [usize; 5],
}

impl Header {
    /// The header of `bytes` and the body after it, once the magic, the
    /// widths and the reserved byte are this layout's and the body is
    /// exactly as long as the header calls for.
    fn parse(bytes: &[u8]) -> io::Result<(Header, &[u8])> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let Some((head, body)) = bytes.split_at_checked(DICT_HEADER_BYTES) else {
            return Err(io::ErrorKind::UnexpectedEof.into());
        };
        if &head[..4] != DICT_MAGIC {
            return Err(bad("bad dictionary magic"));
        }
        let word = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().unwrap()) as usize;
        let (n, suffix_bytes, rest_bytes, escapes) = (word(4), word(8), word(12), word(16));
        let widths = [head[20], head[21], head[22]].map(u32::from);
        if widths.iter().any(|&w| w > 32) {
            return Err(bad("a dictionary column wider than 32 bits"));
        }
        if head[23] != 0 {
            return Err(bad("reserved dictionary header byte is not zero"));
        }
        let lens = section_lens(n, escapes, rest_bytes, widths);
        match lens.iter().map(|&l| l as u64).sum::<u64>().cmp(&(body.len() as u64)) {
            std::cmp::Ordering::Greater => Err(io::ErrorKind::UnexpectedEof.into()),
            std::cmp::Ordering::Less => Err(bad("bytes after the dictionary")),
            std::cmp::Ordering::Equal => Ok((Header { n, suffix_bytes, widths, lens }, body)),
        }
    }
}

/// Every term of the shards, in `(trie_index, suffix)` order: `f(trie
/// index, suffix in pieces, owning indexer, postings handle)`. The shards'
/// trie collections are disjoint by construction; each is walked in order.
fn for_each_combined_term<P: Borrow<PartialDictionary>>(
    parts: &[P],
    mut f: impl FnMut(u32, &[&[u8]; 2], u32, u32),
) {
    const UNOWNED: usize = usize::MAX;
    let mut part_of = vec![UNOWNED; TRIE_ENTRIES];
    for (i, p) in parts.iter().enumerate() {
        for ti in p.borrow().trie_indices() {
            let slot = &mut part_of[ti as usize];
            assert!(*slot == UNOWNED, "trie collection {ti} is in two shards");
            *slot = i;
        }
    }
    for (ti, &i) in part_of.iter().enumerate() {
        if i != UNOWNED {
            let p = parts[i].borrow();
            let tree = p.tree(ti as u32).expect("listed index has a tree");
            p.store.for_each_term(&tree, &mut |head, rest, postings| {
                f(ti as u32, &[head, rest], p.indexer_id, postings)
            });
        }
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
        // An empty dictionary is its header: every column is 0 bits wide.
        let mut buf = Vec::new();
        GlobalDictionary::default().write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), DICT_HEADER_BYTES);
        let empty = GlobalDictionary::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(empty, GlobalDictionary::default());
        assert!(empty.lookup("apple").is_none() && empty.entries().next().is_none());
    }

    #[test]
    fn a_term_costs_its_suffix_a_length_byte_and_a_packed_handle() {
        let g = sample();
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        // Nine terms, four of them in "app"'s collection: "le", "lesauce"
        // (shares 2), "lication" (shares 1), "lied" (shares 2). One owner,
        // indexer 3; handles 0..9; no length reaches an escape.
        let suffixes: usize = g.entries().map(|e| e.suffix.len()).sum();
        assert_eq!(buf[20..24], [3, 2, 4, 0], "count, owner and handle widths");
        assert_eq!(buf[8..20], [suffixes as u32, suffixes as u32 - 5, 0].map(u32::to_le_bytes).concat());
        let fixed = DICT_HEADER_BYTES + packed_len(TRIE_ENTRIES, 3) + packed_len(TRIE_ENTRIES, 2);
        assert_eq!(buf.len(), fixed + g.len() + packed_len(g.len(), 4) + suffixes - 5);
        // High nibble shared, low nibble rest.
        let lens_at = fixed;
        let app = g.lookup("apple").unwrap().trie_index as usize;
        let first = g.collection(app).start;
        assert_eq!(buf[lens_at + first..lens_at + first + 4], [0x02, 0x25, 0x17, 0x22]);
    }

    #[test]
    fn long_lengths_escape_to_a_byte() {
        // Suffixes of 14, 29, 30 and 255 bytes in one collection.
        let suffixes = [
            "b".repeat(14),
            "b".repeat(14) + &"c".repeat(15),
            "b".repeat(14) + &"c".repeat(16),
            "b".repeat(14) + &"c".repeat(16) + &"d".repeat(225),
        ];
        let mut d = GlobalDictionary::default();
        for (h, suffix) in suffixes.iter().enumerate() {
            d.push(40, &[suffix.as_bytes()], 0, h as u32);
        }
        let d = d.finish();
        let buf = d.to_bytes();
        let lens_at = DICT_HEADER_BYTES + packed_len(TRIE_ENTRIES, 3);
        // (shared, rest): (0, 14); (14, 15 + 0); (15 + 14, 1); (15 + 15,
        // 15 + 210).
        let want = [0x0E, 0xEF, 0, 0xF1, 14, 0xFF, 15, 210];
        assert_eq!(buf[lens_at..lens_at + want.len()], want);
        assert_eq!(buf[16..20], 4u32.to_le_bytes(), "four escape bytes");
        assert_eq!(GlobalDictionary::from_bytes(&buf).unwrap(), d);
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
        assert!(GlobalDictionary::read_from(&mut &[b'X'; DICT_HEADER_BYTES][..]).is_err());
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

    /// `sample()` serialized with the byte at `at` replaced.
    fn with_byte(at: usize, byte: u8) -> io::Result<GlobalDictionary> {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf[at] = byte;
        GlobalDictionary::read_from(&mut buf.as_slice())
    }

    #[test]
    fn every_column_is_validated() {
        let g = sample();
        let invalid = |r: io::Result<GlobalDictionary>, what: &str| {
            assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidData, "{what}");
        };
        invalid(with_byte(20, 33), "a count width of 33");
        invalid(with_byte(22, 255), "a handle width of 255");
        invalid(with_byte(23, 1), "a reserved byte that is not zero");
        // Counts at 3 bits: one more or one fewer term in the collection of
        // "zebra" misses the term count.
        let counts_at = DICT_HEADER_BYTES;
        let t = g.lookup("zebra").unwrap().trie_index as usize;
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        assert_eq!(buf[20], 3);
        let count = g.collection(t).len() as u32;
        for lie in [count + 1, count - 1] {
            let mut counts: Vec<u32> = g.dir.windows(2).map(|d| d[1] - d[0]).collect();
            counts[t] = lie;
            let mut bad = buf.clone();
            let col = &mut bad[counts_at..counts_at + packed_len(TRIE_ENTRIES, 3)];
            col.fill(0);
            let mut packer = BitPacker::new(col, 3);
            counts.iter().for_each(|&c| packer.put(c));
            packer.finish();
            invalid(GlobalDictionary::from_bytes(&bad), "counts not summing to n");
        }
        // Rest lengths that miss the arena's end, either way, and suffix
        // bytes the header does not count.
        let lens_at = counts_at + packed_len(TRIE_ENTRIES, 3) + packed_len(TRIE_ENTRIES, 2);
        for len in [buf[lens_at] + 1, buf[lens_at] - 1] {
            invalid(with_byte(lens_at, len), "lengths not summing to the arena");
        }
        let suffix_bytes = g.arena.len() as u32;
        invalid(with_word(8, suffix_bytes + 1), "one suffix byte more than the terms hold");
        invalid(with_word(8, suffix_bytes - 1), "one suffix byte fewer");
        // "lesauce" shares "le" with "le"; "lication" shares "l" with it:
        // its first rest byte pushed below the "e" there, and to it.
        let rest_at = buf.len() - (g.arena.len() - 5);
        let at = rest_at + buf[rest_at..].windows(7).position(|w| w == b"ication").unwrap();
        for below in [b'a', b'e'] {
            let mut bad = buf.clone();
            bad[at] = below;
            invalid(GlobalDictionary::from_bytes(&bad), "suffix out of order");
        }
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
        // A header claiming u32::MAX terms, suffix, rest and escape bytes at
        // 32-bit widths, then nothing: the reader must run out of bytes,
        // not of memory.
        let mut buf = DICT_MAGIC.to_vec();
        (0..4).for_each(|_| buf.extend_from_slice(&u32::MAX.to_le_bytes()));
        buf.extend_from_slice(&[32, 32, 32, 0]);
        assert_eq!(buf.len(), DICT_HEADER_BYTES);
        let err = GlobalDictionary::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(GlobalDictionary::term_count_of(&buf), None);
        let err = with_word(4, u32::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Suffix bytes no sharing can reach, the rest of the file intact.
        let err = with_word(8, u32::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(GlobalDictionary::term_count_of(&sample().to_bytes()), Some(9));
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn prop_write_combined_is_combine_then_write_to(
            stream in proptest::collection::vec((0u8..4, "[a-f]{0,12}"), 0..400),
            n in 1u32..5,
            long in proptest::collection::vec(200usize..256, 0..3),
        ) {
            let mut stream: Vec<String> = stream.into_iter().map(term).collect();
            // Suffixes near the 255-byte limit, and shards left empty.
            stream.extend(long.iter().map(|&len| "q".repeat(len)));
            stream.retain(|t| !t.is_empty());
            let parts = sharded(&stream, n);
            let mut want = Vec::new();
            GlobalDictionary::combine(&parts).write_to(&mut want).unwrap();
            let mut got = vec![0xAB; 7];
            let written = GlobalDictionary::write_combined(&parts, &mut got);
            proptest::prop_assert_eq!(written as usize, got.len());
            proptest::prop_assert!(got == want, "{} bytes against {}", got.len(), want.len());
            let borrowed: Vec<&PartialDictionary> = parts.iter().collect();
            GlobalDictionary::write_combined(&borrowed, &mut got);
            proptest::prop_assert!(got == want, "borrowed shards");
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
