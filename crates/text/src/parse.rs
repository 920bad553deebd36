//! The parser pipeline stage (paper §III.C, Fig 3).
//!
//! Steps 2-5 of one parser thread: tokenization (with trie-index
//! classification), Porter stemming, stop-word removal, and the *regrouping*
//! step that rearranges terms so all terms of one trie collection are
//! contiguous with their trie-captured prefix removed. Step 1 (disk read,
//! decompression, local doc-ID assignment) lives in `ii-pipeline`, which
//! models its cost separately.
//!
//! Output layout matches what the GPU indexer consumes (Fig 6): each
//! group's terms are a contiguous byte buffer of length-prefixed strings
//! (one length byte, then the bytes), organized per document:
//! `(Doc_ID1, term1, term2, ...), (Doc_ID2, ...)` with *local* doc IDs.
//!
//! The hot path runs through a per-thread [`ParseScratch`]: regrouping uses
//! a flat direct-indexed table over the [`TRIE_ENTRIES`] slots (plus a
//! touched-slot list for sparse drain) instead of a per-batch `HashMap`,
//! and the working buffers — group builders, stem scratch, the HTML text
//! buffer — are reused across container files, so steady-state parsing
//! performs no growth reallocation. Documents come in borrowed
//! ([`DocRef`]: slices of the decompressed container), and each batch
//! leaves with exact-size buffers of its own: what a batch holds is what it
//! carries. Output is byte-identical to the pre-optimization parser, which
//! the integration test crate keeps frozen as its differential oracle.

use crate::html::{strip_tags, strip_tags_into};
use crate::porter::{stem_into, StemBuf};
use crate::stopwords::is_stop_word;
use crate::tokenize::tokens;
use ii_corpus::doc::{DocId, DocRef, RawDocument};
use ii_dict::trie::{classify, TrieIndex, TRIE_ENTRIES};

/// Longest stored term suffix; the paper assumes one length byte suffices.
pub const MAX_TERM_BYTES: usize = 255;

/// The terms one document contributed to one trie group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DocSpan {
    /// Local document ID (within the parser batch).
    pub doc: DocId,
    /// Start byte of this doc's terms in the group's `term_bytes`.
    pub byte_start: u32,
    /// Length in bytes of this doc's term region.
    pub byte_len: u32,
    /// Number of terms in the region.
    pub n_terms: u32,
}

/// All parsed terms of one trie collection, prefix-stripped and packed in
/// the Fig 6 length-prefixed layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrieGroup {
    /// Which trie collection this is.
    pub trie_index: u32,
    /// Document regions, in local-doc-ID order.
    pub docs: Vec<DocSpan>,
    /// Length-prefixed term strings.
    pub term_bytes: Vec<u8>,
}

impl TrieGroup {
    /// Iterate `(local doc id, term bytes)` pairs in stream order.
    pub fn iter_terms(&self) -> impl Iterator<Item = (DocId, &[u8])> + '_ {
        self.docs.iter().flat_map(move |span| {
            TermBytesIter {
                buf: &self.term_bytes
                    [span.byte_start as usize..(span.byte_start + span.byte_len) as usize],
            }
            .map(move |t| (span.doc, t))
        })
    }

    /// Total number of terms in the group.
    pub fn total_terms(&self) -> u64 {
        self.docs.iter().map(|d| d.n_terms as u64).sum()
    }
}

/// Iterator over a length-prefixed term byte buffer.
pub struct TermBytesIter<'a> {
    buf: &'a [u8],
}

impl<'a> TermBytesIter<'a> {
    /// Iterate the terms of a raw Fig 6 buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        TermBytesIter { buf }
    }
}

impl<'a> Iterator for TermBytesIter<'a> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.buf.split_first()?;
        let len = len as usize;
        let (term, rest) = rest.split_at(len.min(rest.len()));
        self.buf = rest;
        Some(term)
    }
}

/// Counters the pipeline and the Table V workload report consume.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Tokens produced by tokenization (before stop-word removal).
    pub tokens: u64,
    /// Terms surviving stop-word removal (what indexers receive).
    pub terms_kept: u64,
    /// Bytes of term suffixes handed to indexers.
    pub chars: u64,
}

/// One parser's output for one batch (container file) of documents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedBatch {
    /// Index of the source container file.
    pub file_idx: usize,
    /// Number of documents parsed (local doc IDs are `0..num_docs`).
    pub num_docs: u32,
    /// `<doc ID, document location>` table built in Step 1.
    pub doc_table: Vec<(DocId, String)>,
    /// Non-empty trie groups, sorted by trie index.
    pub groups: Vec<TrieGroup>,
    /// Parse counters.
    pub stats: ParseStats,
}

impl ParsedBatch {
    /// Look up the group for one trie collection by its trie index
    /// (binary search over the sorted `groups`).
    pub fn group(&self, trie_index: u32) -> Option<&TrieGroup> {
        self.groups
            .binary_search_by_key(&trie_index, |g| g.trie_index)
            .ok()
            .map(|i| &self.groups[i])
    }

    /// Resident bytes of the batch payload — term bytes, doc spans and
    /// the doc-location table — the credit a parser must
    /// acquire from the memory governor before the batch enters the
    /// in-flight queues. Deterministic per file: identical across runs,
    /// parser counts, and budgets.
    pub fn mem_bytes(&self) -> u64 {
        let mut n = 0u64;
        for g in &self.groups {
            n += g.term_bytes.len() as u64;
            n += (g.docs.len() * std::mem::size_of::<DocSpan>()) as u64;
        }
        for (_, loc) in &self.doc_table {
            n += (loc.len() + std::mem::size_of::<(DocId, String)>()) as u64;
        }
        n
    }
}

#[derive(Default)]
struct GroupBuilder {
    docs: Vec<DocSpan>,
    term_bytes: Vec<u8>,
}

impl GroupBuilder {
    fn push(&mut self, doc: DocId, term: &[u8]) {
        let start_new = match self.docs.last() {
            Some(span) => span.doc != doc,
            None => true,
        };
        if start_new {
            self.docs.push(DocSpan {
                doc,
                byte_start: self.term_bytes.len() as u32,
                byte_len: 0,
                n_terms: 0,
            });
        }
        let term = &term[..term.len().min(MAX_TERM_BYTES)];
        self.term_bytes.push(term.len() as u8);
        self.term_bytes.extend_from_slice(term);
        let span = self.docs.last_mut().unwrap();
        span.byte_len += 1 + term.len() as u32;
        span.n_terms += 1;
    }
}

/// Sentinel in the slot table: trie index has no builder this batch.
const NO_BUILDER: u32 = u32::MAX;

/// Reusable parser working memory, owned by one parser thread and carried
/// across container files.
///
/// Regrouping state is a flat `slot` table mapping each of the
/// [`TRIE_ENTRIES`] trie indices to a live [`GroupBuilder`], with the
/// `touched` list recording which slots are in use so the drain after each
/// batch is sparse (proportional to distinct groups, not table size).
/// Builders are recycled behind an `active` watermark and keep their
/// capacity; a drained batch gets exact-size copies of their contents.
pub struct ParseScratch {
    /// trie index -> index into `builders`, or [`NO_BUILDER`].
    slot: Box<[u32]>,
    /// Trie indices with a live builder this batch.
    touched: Vec<u32>,
    /// Builder pool; `builders[..active]` are live this batch, the rest are
    /// drained husks whose capacity is ready for reuse.
    builders: Vec<GroupBuilder>,
    active: usize,
    /// Stemmer copy-on-write scratch.
    stem_buf: StemBuf,
    /// HTML tag-stripping output buffer.
    text_buf: String,
}

impl Default for ParseScratch {
    fn default() -> Self {
        ParseScratch {
            slot: vec![NO_BUILDER; TRIE_ENTRIES].into_boxed_slice(),
            touched: Vec::new(),
            builders: Vec::new(),
            active: 0,
            stem_buf: StemBuf::new(),
            text_buf: String::new(),
        }
    }
}

impl ParseScratch {
    /// Fresh scratch with an empty slot table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take back a consumed batch: it is dropped. Its buffers are
    /// exact-size and its own, so there is no capacity to keep; the
    /// builders' never left the scratch.
    pub fn recycle(&mut self, _consumed: ParsedBatch) {}

    /// Recover from a previous parse that unwound mid-batch (the pipeline
    /// contains parser panics with `catch_unwind`, after which the thread's
    /// scratch would otherwise hold stale builders).
    fn reset_stale(&mut self) {
        self.slot.fill(NO_BUILDER);
        self.touched.clear();
        for b in &mut self.builders {
            b.docs.clear();
            b.term_bytes.clear();
        }
        self.active = 0;
    }

    /// Copy the regrouped terms out of the builders into a sorted
    /// `groups` list of exact-size buffers, resetting the slot table
    /// sparsely. The builders keep their capacity for the next batch.
    fn drain_groups(&mut self) -> Vec<TrieGroup> {
        self.touched.sort_unstable();
        let mut groups = Vec::with_capacity(self.touched.len());
        for &ti in &self.touched {
            let bi = self.slot[ti as usize];
            self.slot[ti as usize] = NO_BUILDER;
            let b = &mut self.builders[bi as usize];
            groups.push(TrieGroup {
                trie_index: ti,
                docs: b.docs.to_vec(),
                term_bytes: b.term_bytes.to_vec(),
            });
            b.docs.clear();
            b.term_bytes.clear();
        }
        self.touched.clear();
        self.active = 0;
        groups
    }
}

/// Run parser Steps 2-5 over one batch of borrowed documents, reusing
/// `scratch`.
///
/// `html` selects tag stripping (web-crawl collections). Local doc IDs are
/// assigned in input order starting at 0, matching Step 1's doc table.
/// Steady state grows no working buffer unless the batch outgrows every
/// earlier one; the batch's own buffers are allocated once, at their size.
pub fn parse_records_into(
    scratch: &mut ParseScratch,
    docs: &[DocRef<'_>],
    html: bool,
    file_idx: usize,
) -> ParsedBatch {
    if !scratch.touched.is_empty() || scratch.active != 0 {
        scratch.reset_stale();
    }
    let mut stats = ParseStats::default();
    let mut doc_table = Vec::with_capacity(docs.len());
    {
        let ParseScratch { slot, touched, builders, active, stem_buf, text_buf } = scratch;
        for (local, d) in docs.iter().enumerate() {
            let doc_id = DocId(local as u32);
            doc_table.push((doc_id, d.url.to_owned()));
            let text: &str = if html {
                strip_tags_into(d.body, text_buf);
                text_buf
            } else {
                d.body
            };
            let mut it = tokens(text);
            while let Some(tok) = it.next_token() {
                stats.tokens += 1;
                // Step 3: stemming (copy-on-write into the scratch buffer).
                let stemmed = stem_into(tok, stem_buf);
                // Step 4: stop-word removal (post-stem, as in the paper).
                if is_stop_word(stemmed) {
                    continue;
                }
                // Step 5 classification: trie index + prefix strip. The
                // paper computes the index during tokenization as a
                // byproduct; we classify the stemmed form for exactness
                // (stemming a 4-letter word down to 3 letters would
                // otherwise change its category).
                let (idx, suffix) = classify(stemmed);
                stats.terms_kept += 1;
                stats.chars += suffix.len() as u64;
                let mut bi = slot[idx.0 as usize];
                if bi == NO_BUILDER {
                    bi = *active as u32;
                    if *active == builders.len() {
                        builders.push(GroupBuilder::default());
                    }
                    slot[idx.0 as usize] = bi;
                    touched.push(idx.0);
                    *active += 1;
                }
                builders[bi as usize].push(doc_id, suffix.as_bytes());
            }
        }
    }
    let groups = scratch.drain_groups();
    ParsedBatch { file_idx, num_docs: docs.len() as u32, doc_table, groups, stats }
}

/// [`parse_records_into`] over owned documents.
pub fn parse_documents_into(
    scratch: &mut ParseScratch,
    docs: &[RawDocument],
    html: bool,
    file_idx: usize,
) -> ParsedBatch {
    let docs: Vec<DocRef<'_>> = docs.iter().map(RawDocument::as_doc_ref).collect();
    parse_records_into(scratch, &docs, html, file_idx)
}

/// Run parser Steps 2-5 over one batch of documents.
///
/// Convenience wrapper over [`parse_documents_into`] with a throwaway
/// [`ParseScratch`]; pipeline threads keep a persistent scratch instead.
pub fn parse_documents(docs: &[RawDocument], html: bool, file_idx: usize) -> ParsedBatch {
    let mut scratch = ParseScratch::new();
    parse_documents_into(&mut scratch, docs, html, file_idx)
}

/// Parse without regrouping: emit a single flat `(doc, term)` stream in
/// document order. This is the ablation baseline for the paper's claim that
/// regrouping yields ~15x faster serial indexing via cache locality; the
/// suffixes here keep their full term text (no trie prefix strip) because
/// without grouping there is no shared prefix to remove.
pub fn parse_documents_flat(
    docs: &[RawDocument],
    html: bool,
) -> (Vec<(DocId, TrieIndex, String)>, ParseStats) {
    let mut out = Vec::new();
    let mut stats = ParseStats::default();
    let mut stem_buf = StemBuf::new();
    for (local, d) in docs.iter().enumerate() {
        let doc_id = DocId(local as u32);
        let text: std::borrow::Cow<'_, str> =
            if html { strip_tags(&d.body).into() } else { (&d.body).into() };
        let mut it = tokens(&text);
        while let Some(tok) = it.next_token() {
            stats.tokens += 1;
            let stemmed = stem_into(tok, &mut stem_buf);
            if is_stop_word(stemmed) {
                continue;
            }
            let (idx, suffix) = classify(stemmed);
            stats.terms_kept += 1;
            stats.chars += suffix.len() as u64;
            out.push((doc_id, idx, suffix.to_string()));
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_dict::trie::trie_index;

    fn doc(body: &str) -> RawDocument {
        RawDocument { url: format!("u{}", body.len()), body: body.into() }
    }

    #[test]
    fn groups_are_sorted_and_contiguous() {
        let docs = vec![doc("apple banana apple cherry"), doc("banana date")];
        let b = parse_documents(&docs, false, 0);
        let idxs: Vec<u32> = b.groups.iter().map(|g| g.trie_index).collect();
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(idxs, sorted);
        assert_eq!(b.num_docs, 2);
        assert_eq!(b.doc_table.len(), 2);
    }

    #[test]
    fn stop_words_removed_and_stemming_applied() {
        let docs = vec![doc("the running dogs are hopping")];
        let b = parse_documents(&docs, false, 0);
        let all: Vec<(DocId, Vec<u8>)> = b
            .groups
            .iter()
            .flat_map(|g| g.iter_terms().map(|(d, t)| (d, t.to_vec())))
            .collect();
        // "the"/"are" removed; run(ning)->run, dogs->dog, hopping->hop.
        let mut terms: Vec<String> =
            all.iter().map(|(_, t)| String::from_utf8(t.clone()).unwrap()).collect();
        terms.sort();
        // Terms are prefix-stripped: run->(cat 'r', strip 1)->"un",
        // dog->"og", hop->"op".
        assert_eq!(terms, ["og", "op", "un"]);
    }

    #[test]
    fn prefix_stripping_matches_trie() {
        let docs = vec![doc("application")];
        let b = parse_documents(&docs, false, 0);
        assert_eq!(b.groups.len(), 1);
        let g = &b.groups[0];
        assert_eq!(g.trie_index, trie_index("applic").0); // stemmed form
        let (_, t) = g.iter_terms().next().unwrap();
        assert_eq!(t, b"lic"); // "applic" minus "app"
    }

    #[test]
    fn doc_spans_track_local_ids() {
        let docs = vec![doc("zebra zebra"), doc("zebra"), doc("quilt")];
        let b = parse_documents(&docs, false, 0);
        let zg = b.group(trie_index("zebra").0).unwrap();
        assert_eq!(zg.docs.len(), 2);
        assert_eq!(zg.docs[0].doc, DocId(0));
        assert_eq!(zg.docs[0].n_terms, 2);
        assert_eq!(zg.docs[1].doc, DocId(1));
        assert_eq!(zg.docs[1].n_terms, 1);
    }

    #[test]
    fn html_mode_strips_tags() {
        let docs = vec![RawDocument {
            url: "u".into(),
            body: "<p>zebra</p><script>junkword()</script>".into(),
        }];
        let with_html = parse_documents(&docs, true, 0);
        let terms: Vec<String> = with_html
            .groups
            .iter()
            .flat_map(|g| g.iter_terms().map(|(_, t)| String::from_utf8(t.to_vec()).unwrap()))
            .collect();
        assert_eq!(terms, ["ra"]); // "zebra" -> collection "zeb", stored suffix "ra"
    }

    #[test]
    fn stats_counted() {
        let docs = vec![doc("the cat sat on the mat")];
        let b = parse_documents(&docs, false, 0);
        assert_eq!(b.stats.tokens, 6);
        // "the" x2, "on" removed -> cat, sat, mat kept.
        assert_eq!(b.stats.terms_kept, 3);
        assert!(b.stats.chars > 0);
    }

    #[test]
    fn flat_parse_agrees_with_grouped() {
        let docs = vec![doc("alpha beta gamma alpha"), doc("delta beta")];
        let grouped = parse_documents(&docs, false, 0);
        let (flat, stats) = parse_documents_flat(&docs, false);
        assert_eq!(stats, grouped.stats);
        // Same multiset of (doc, trie, term).
        let mut a: Vec<(u32, u32, Vec<u8>)> = grouped
            .groups
            .iter()
            .flat_map(|g| g.iter_terms().map(move |(d, t)| (d.0, g.trie_index, t.to_vec())))
            .collect();
        let mut b: Vec<(u32, u32, Vec<u8>)> =
            flat.into_iter().map(|(d, i, t)| (d.0, i.0, t.into_bytes())).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn term_bytes_iter_roundtrip() {
        let mut buf = Vec::new();
        for t in [&b"ab"[..], b"", b"xyz"] {
            buf.push(t.len() as u8);
            buf.extend_from_slice(t);
        }
        let got: Vec<&[u8]> = TermBytesIter::new(&buf).collect();
        assert_eq!(got, vec![&b"ab"[..], b"", b"xyz"]);
    }

    #[test]
    fn very_long_tokens_truncated() {
        let long = "z".repeat(600);
        let docs = vec![doc(&long)];
        let b = parse_documents(&docs, false, 0);
        let (_, t) = b.groups[0].iter_terms().next().unwrap();
        assert!(t.len() <= MAX_TERM_BYTES);
    }

    #[test]
    fn empty_input() {
        let b = parse_documents(&[], false, 0);
        assert_eq!(b.num_docs, 0);
        assert!(b.groups.is_empty());
        assert_eq!(b.stats, ParseStats::default());
    }

    #[test]
    fn scratch_reuse_is_identical_and_recycles_capacity() {
        let batch_a = vec![doc("apple banana -42 Zebra"), doc("gamma delta gamma")];
        let batch_b = vec![doc("<b>other</b> words entirely"), doc("apple once more")];
        let mut scratch = ParseScratch::new();
        for (i, (docs, html)) in
            [(&batch_a, false), (&batch_b, true), (&batch_a, false)].iter().enumerate()
        {
            let fresh = parse_documents(docs, *html, i);
            let reused = parse_documents_into(&mut scratch, docs, *html, i);
            assert_eq!(fresh, reused, "batch {i} differs under scratch reuse");
            // Every buffer the batch carries is exactly as large as its
            // contents: nothing of the builders' headroom leaves with it.
            for g in &reused.groups {
                assert_eq!(g.docs.capacity(), g.docs.len(), "batch {i} group {}", g.trie_index);
                assert_eq!(g.term_bytes.capacity(), g.term_bytes.len(), "batch {i}");
            }
            assert_eq!(reused.groups.capacity(), reused.groups.len(), "batch {i}");
            assert_eq!(reused.doc_table.capacity(), reused.doc_table.len(), "batch {i}");
            scratch.recycle(reused);
        }
        // The builders keep theirs for the next batch.
        assert!(scratch.builders.iter().any(|b| b.term_bytes.capacity() > 0));
        assert!(scratch.builders.iter().all(|b| b.docs.is_empty() && b.term_bytes.is_empty()));
    }

    #[test]
    fn scratch_recovers_from_poisoned_state() {
        // Simulate a parse that unwound mid-batch leaving stale builders.
        let mut scratch = ParseScratch::new();
        let docs = vec![doc("alpha beta")];
        let _ = parse_documents_into(&mut scratch, &docs, false, 0);
        scratch.touched.push(3);
        scratch.slot[3] = 0;
        scratch.active = 1;
        scratch.builders[0].term_bytes.push(9);
        let clean = parse_documents_into(&mut scratch, &docs, false, 1);
        let mut expect = parse_documents(&docs, false, 1);
        expect.file_idx = 1;
        assert_eq!(clean, expect);
    }
}
