//! Frozen reference dictionary — the pre-slotted shard, kept for
//! differential testing.
//!
//! [`ReferenceDictionary`] is exactly what `ii_dict::PartialDictionary` was
//! before the slotted-node rewrite: a [`BTreeStore`] (binary search over
//! `[u8; 4]` caches, per-visit node clones, eager string fallback) plus a
//! `HashMap` from trie index to tree root. [`combine_reference`] gathers
//! tree by tree, sorts globally and writes the `dictionary.bin` bytes by
//! hand through [`DictColumns`], packing one bit at a time and front-coding
//! each suffix against the one before it, so the product's combine, writer
//! (and its bit packer) and reader are all held to it.
//! [`read_retired_iidt`] and [`read_retired_iidp`] are the readers of the
//! two layouts before, kept for the retired fixtures. Do not optimize
//! them — their value is that they stay the old code. The differential
//! suite in `tests/dict_diff.rs` drives arbitrary term streams
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

/// One dictionary term as the reference handles it: trie index, suffix,
/// owning indexer, postings handle.
pub type RefEntry = (u32, Vec<u8>, u32, u32);

/// The columns of a `dictionary.bin`, as plain values: what the file says,
/// true or not. [`Self::to_bytes`] lays them out, each packed column at the
/// width its largest value needs and every length at its nibble or escape;
/// hostile-bytes tests build lies with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DictColumns {
    /// Terms of each of the `TRIE_ENTRIES` collections.
    pub counts: Vec<u32>,
    /// Owning indexer of each collection (0 for an empty one).
    pub owners: Vec<u32>,
    /// Bytes each suffix shares with the suffix before it in its collection
    /// (0 for a collection's first).
    pub shared: Vec<u8>,
    /// Length of the rest of each suffix.
    pub rest: Vec<u8>,
    /// Postings handle of each term.
    pub handles: Vec<u32>,
    /// The rest of every suffix, back to back.
    pub arena: Vec<u8>,
    /// Bytes of every suffix, whole: the header's count, which the shared
    /// and rest lengths sum to.
    pub suffix_bytes: u32,
}

/// Bits needed by the largest of `vals`.
fn width(vals: &[u32]) -> u32 {
    32 - vals.iter().copied().max().unwrap_or(0).leading_zeros()
}

/// Append `vals` at `width` bits each, least significant bit first, one bit
/// at a time.
fn pack(vals: &[u32], width: u32, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + (vals.len() * width as usize).div_ceil(8), 0);
    let mut bit = 0;
    for &v in vals {
        for b in 0..width {
            if v >> b & 1 == 1 {
                out[start + bit / 8] |= 1 << (bit % 8);
            }
            bit += 1;
        }
    }
}

/// `count` values of `width` bits each from `bytes` at `at`, least
/// significant bit first, one bit at a time; the bytes they took.
fn unpack(bytes: &[u8], at: usize, count: usize, width: usize) -> (Vec<u32>, usize) {
    let vals = (0..count)
        .map(|i| {
            (0..width).fold(0u32, |v, b| {
                let bit = i * width + b;
                v | u32::from(bytes[at + bit / 8] >> (bit % 8) & 1) << b
            })
        })
        .collect();
    (vals, (count * width).div_ceil(8))
}

impl DictColumns {
    /// The columns of `entries`, which must be in `(trie_index, suffix)`
    /// order.
    pub fn of(entries: &[RefEntry]) -> DictColumns {
        let mut cols = DictColumns {
            counts: vec![0; TRIE_ENTRIES],
            owners: vec![0; TRIE_ENTRIES],
            shared: Vec::new(),
            rest: Vec::new(),
            handles: Vec::new(),
            arena: Vec::new(),
            suffix_bytes: 0,
        };
        let mut prev: Option<&RefEntry> = None;
        for entry @ (ti, suffix, indexer, postings) in entries {
            let before = prev.filter(|p| p.0 == *ti).map_or(&[][..], |p| p.1.as_slice());
            let shared = before.iter().zip(suffix).take_while(|(a, b)| a == b).count();
            cols.counts[*ti as usize] += 1;
            cols.owners[*ti as usize] = *indexer;
            cols.shared.push(shared as u8);
            cols.rest.push((suffix.len() - shared) as u8);
            cols.handles.push(*postings);
            cols.arena.extend_from_slice(&suffix[shared..]);
            cols.suffix_bytes += suffix.len() as u32;
            prev = Some(entry);
        }
        cols
    }

    /// The columns of a dictionary, read through its entries.
    pub fn of_dictionary(d: &GlobalDictionary) -> DictColumns {
        let entries: Vec<RefEntry> =
            d.entries().map(|e| (e.trie_index, e.suffix.to_vec(), e.indexer, e.postings)).collect();
        Self::of(&entries)
    }

    /// The `dictionary.bin` layout: magic `IIDF`, term count (the
    /// handles'), suffix bytes, rest bytes (the arena's), escape bytes, the
    /// count, owner and handle widths and a zero byte; counts and owners
    /// packed; per suffix a byte of two nibbles, shared length high, rest
    /// length low, a nibble of 15 followed by a byte of the length less 15
    /// (the shared length's first); handles packed; the arena.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut lens = Vec::new();
        for (&shared, &rest) in self.shared.iter().zip(&self.rest) {
            lens.push(shared.min(15) << 4 | rest.min(15));
            lens.extend([shared, rest].iter().filter(|&&l| l >= 15).map(|&l| l - 15));
        }
        let escapes = (lens.len() - self.shared.len()) as u32;
        let widths = [width(&self.counts), width(&self.owners), width(&self.handles)];
        let mut bytes = b"IIDF".to_vec();
        for word in [self.handles.len() as u32, self.suffix_bytes, self.arena.len() as u32, escapes] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend(widths.iter().map(|&w| w as u8));
        bytes.push(0);
        pack(&self.counts, widths[0], &mut bytes);
        pack(&self.owners, widths[1], &mut bytes);
        bytes.extend_from_slice(&lens);
        pack(&self.handles, widths[2], &mut bytes);
        bytes.extend_from_slice(&self.arena);
        bytes
    }
}

/// Combine reference shards into a [`GlobalDictionary`] — the frozen
/// combine (gather tree by tree, then global sort), serialised by
/// [`DictColumns::to_bytes`] and read back.
pub fn combine_reference(parts: &[ReferenceDictionary]) -> GlobalDictionary {
    let mut entries: Vec<RefEntry> = Vec::new();
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
    GlobalDictionary::from_bytes(&DictColumns::of(&entries).to_bytes())
        .expect("the reference writes a valid dictionary")
}

/// The entries of a `dictionary.bin` in the retired `IIDT` layout: magic,
/// term count, arena length; little-endian `u32` columns — trie directory
/// (`TRIE_ENTRIES + 1` ordinals), owners (`TRIE_ENTRIES`), suffix offsets
/// (`n + 1`), handles (`n`); the suffix arena. Only for a file that layout
/// wrote: it panics on anything else.
pub fn read_retired_iidt(bytes: &[u8]) -> Vec<RefEntry> {
    assert_eq!(&bytes[..4], b"IIDT", "not a retired dictionary");
    let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap()) as usize;
    let n = word(4);
    let dir_at = 12;
    let owners_at = dir_at + 4 * (TRIE_ENTRIES + 1);
    let offsets_at = owners_at + 4 * TRIE_ENTRIES;
    let handles_at = offsets_at + 4 * (n + 1);
    let arena_at = handles_at + 4 * n;
    assert_eq!(bytes.len(), arena_at + word(8), "a retired dictionary's length");
    let mut entries = Vec::with_capacity(n);
    for t in 0..TRIE_ENTRIES {
        for i in word(dir_at + 4 * t)..word(dir_at + 4 * (t + 1)) {
            let (start, end) = (word(offsets_at + 4 * i), word(offsets_at + 4 * (i + 1)));
            let suffix = bytes[arena_at + start..arena_at + end].to_vec();
            entries.push((t as u32, suffix, word(owners_at + 4 * t) as u32, word(handles_at + 4 * i) as u32));
        }
    }
    entries
}

/// The entries of a `dictionary.bin` in the retired `IIDP` layout: magic,
/// term count, arena length, the count, owner and handle widths, a zero
/// byte; the collection counts and owners packed at their widths (least
/// significant bit first); a length byte per suffix; the handles packed;
/// the suffix arena, every suffix whole. Only for a file that layout wrote:
/// it panics on anything else.
pub fn read_retired_iidp(bytes: &[u8]) -> Vec<RefEntry> {
    assert_eq!(&bytes[..4], b"IIDP", "not a retired dictionary");
    let n = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let [count_w, owner_w, handle_w] = [bytes[12], bytes[13], bytes[14]].map(usize::from);
    let mut at = 16;
    let (counts, len) = unpack(bytes, at, TRIE_ENTRIES, count_w);
    at += len;
    let (owners, len) = unpack(bytes, at, TRIE_ENTRIES, owner_w);
    at += len;
    let lens = &bytes[at..at + n];
    at += n;
    let (handles, len) = unpack(bytes, at, n, handle_w);
    at += len;
    let arena_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    assert_eq!(bytes.len(), at + arena_len, "a retired dictionary's length");
    let mut entries = Vec::with_capacity(n);
    for (t, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            let i = entries.len();
            let len = usize::from(lens[i]);
            entries.push((t as u32, bytes[at..at + len].to_vec(), owners[t], handles[i]));
            at += len;
        }
    }
    entries
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
        assert_eq!(DictColumns::of_dictionary(&g_new).to_bytes(), b);
    }

    #[test]
    fn the_bit_at_a_time_packer_is_lsb_first() {
        let mut out = vec![0xAA];
        pack(&[1, 2, 3, 0, 7], 3, &mut out);
        // 001 010 011 000 111, least significant bit first: 0b11_010_001,
        // 0b0_111_000_0 (bit 15 unused).
        assert_eq!(out, [0xAA, 0b1101_0001, 0b0111_0000]);
        pack(&[5], 0, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(unpack(&out, 1, 5, 3), (vec![1, 2, 3, 0, 7], 2));
    }
}
