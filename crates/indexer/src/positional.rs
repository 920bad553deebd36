//! Positional indexing extension.
//!
//! The paper's pipeline emits `<doc, tf>` postings; Ivory MapReduce (a
//! Fig 12 comparator) additionally stores term positions, "which will add
//! some extra cost". This module quantifies and provides that option: a
//! serial positional indexer over the same parsed batches (the parser's
//! Step 5 output carries in-document token positions), producing a
//! queryable, serializable positional index for phrase search. The
//! `ablate_positional` bench measures the extra cost against the plain
//! CPU indexer.

use ii_corpus::DocId;
use ii_dict::{GlobalDictionary, PartialDictionary};
use ii_postings::positional::{phrase_matches_with_offsets, PositionalList};
use ii_text::ParsedBatch;
use std::io::{self, Read, Write};

/// Builds a positional index from parsed batches.
#[derive(Debug, Default)]
pub struct PositionalIndexer {
    dict: PartialDictionary,
    lists: Vec<PositionalList>,
    tokens: u64,
}

impl PositionalIndexer {
    /// Empty indexer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index a parsed batch at the given global doc offset.
    pub fn index_batch(&mut self, batch: &ParsedBatch, doc_offset: u32) {
        for g in &batch.groups {
            for (local, term, pos) in g.iter_terms_with_positions() {
                let out = self.dict.insert_term(g.trie_index, term);
                let slot = out.postings as usize;
                if slot >= self.lists.len() {
                    self.lists.resize_with(slot + 1, PositionalList::new);
                }
                self.lists[slot].add_occurrence(local.with_offset(doc_offset), pos);
                self.tokens += 1;
            }
        }
    }

    /// Term occurrences indexed.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Finalize into an immutable index.
    pub fn finish(self) -> PositionalIndex {
        let dict = GlobalDictionary::combine(&[self.dict]);
        PositionalIndex { dict, lists: self.lists }
    }
}

/// An immutable positional index: dictionary + per-term position lists.
#[derive(Debug, Default, PartialEq)]
pub struct PositionalIndex {
    dict: GlobalDictionary,
    lists: Vec<PositionalList>,
}

const POS_MAGIC: &[u8; 4] = b"IIPX";

impl PositionalIndex {
    /// Distinct terms.
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Position list of an already-stemmed term.
    pub fn get(&self, stemmed: &str) -> Option<&PositionalList> {
        let e = self.dict.lookup(stemmed)?;
        self.lists.get(e.postings as usize)
    }

    /// Phrase search over a raw query: tokens are normalized exactly as
    /// documents were (lowercase, stem, stop words removed), and removed
    /// stop words widen the expected position gap, so "statue of liberty"
    /// matches documents containing that exact phrase.
    pub fn phrase_search(&self, query: &str) -> Vec<(DocId, Vec<u32>)> {
        let mut wanted: Vec<(String, u32)> = Vec::new();
        let mut ordinal = 0u32;
        let mut it = ii_text::tokenize::tokens(query);
        while let Some(tok) = it.next_token() {
            let stemmed = ii_text::stem(tok).into_owned();
            let this = ordinal;
            ordinal += 1;
            if ii_text::is_stop_word(&stemmed) {
                continue;
            }
            wanted.push((stemmed, this));
        }
        let Some(first_ord) = wanted.first().map(|(_, o)| *o) else { return Vec::new() };
        let mut lists: Vec<(&PositionalList, u32)> = Vec::with_capacity(wanted.len());
        for (term, ord) in &wanted {
            match self.get(term) {
                Some(l) => lists.push((l, ord - first_ord)),
                None => return Vec::new(),
            }
        }
        phrase_matches_with_offsets(&lists)
    }

    /// Serialize.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        let mut bytes = 0u64;
        w.write_all(POS_MAGIC)?;
        w.write_all(&(self.dict.len() as u32).to_le_bytes())?;
        bytes += 8;
        for e in self.dict.entries() {
            let list = &self.lists[e.postings as usize];
            let payload = list.encode();
            w.write_all(&e.trie_index.to_le_bytes())?;
            w.write_all(&[e.suffix.len() as u8])?;
            w.write_all(e.suffix)?;
            w.write_all(&(list.len() as u32).to_le_bytes())?;
            w.write_all(&(payload.len() as u32).to_le_bytes())?;
            w.write_all(&payload)?;
            bytes += 4 + 1 + e.suffix.len() as u64 + 8 + payload.len() as u64;
        }
        Ok(bytes)
    }

    /// Deserialize.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<PositionalIndex> {
        let mut head = [0u8; 8];
        r.read_exact(&mut head)?;
        if &head[..4] != POS_MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad positional magic"));
        }
        let n = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
        let mut shard = PartialDictionary::new(0);
        let mut lists = Vec::with_capacity(n);
        for _ in 0..n {
            let mut fixed = [0u8; 5];
            r.read_exact(&mut fixed)?;
            let trie = u32::from_le_bytes(fixed[..4].try_into().unwrap());
            let mut suffix = vec![0u8; fixed[4] as usize];
            r.read_exact(&mut suffix)?;
            let mut counts = [0u8; 8];
            r.read_exact(&mut counts)?;
            let n_docs = u32::from_le_bytes(counts[..4].try_into().unwrap()) as usize;
            let plen = u32::from_le_bytes(counts[4..].try_into().unwrap()) as usize;
            let mut payload = vec![0u8; plen];
            r.read_exact(&mut payload)?;
            let list = PositionalList::decode(&payload, n_docs)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad list"))?;
            let out = shard.insert_term(trie, &suffix);
            if out.postings as usize >= lists.len() {
                lists.resize_with(out.postings as usize + 1, PositionalList::new);
            }
            lists[out.postings as usize] = list;
        }
        Ok(PositionalIndex { dict: GlobalDictionary::combine(&[shard]), lists })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_corpus::RawDocument;
    use ii_text::parse_documents;

    fn doc(body: &str) -> RawDocument {
        RawDocument { url: String::new(), body: body.into() }
    }

    fn build(bodies: &[&str]) -> PositionalIndex {
        let docs: Vec<RawDocument> = bodies.iter().map(|b| doc(b)).collect();
        let batch = parse_documents(&docs, false, 0);
        let mut ix = PositionalIndexer::new();
        ix.index_batch(&batch, 0);
        ix.finish()
    }

    #[test]
    fn positions_recorded() {
        let ix = build(&["zebra quilt zebra"]);
        let z = ix.get("zebra").unwrap();
        assert_eq!(z.postings()[0].positions, vec![0, 2]);
        let q = ix.get("quilt").unwrap();
        assert_eq!(q.postings()[0].positions, vec![1]);
    }

    #[test]
    fn phrase_search_exact() {
        let ix = build(&[
            "big zebra runs fast",   // doc 0
            "zebra big runs",        // doc 1 (reversed)
            "a big zebra",           // doc 2 ("a" is a stop word)
        ]);
        let hits = ix.phrase_search("big zebra");
        let docs: Vec<u32> = hits.iter().map(|(d, _)| d.0).collect();
        assert_eq!(docs, vec![0, 2]);
        // Reversed order does not match.
        assert!(!docs.contains(&1));
    }

    #[test]
    fn phrase_search_skips_stop_words_in_query() {
        // "statue of liberty": "of" is removed but its position gap must
        // be respected.
        let ix = build(&[
            "the statue of liberty stands",   // phrase present
            "statue liberty",                 // adjacent, no gap — not the phrase
        ]);
        let hits = ix.phrase_search("statue of liberty");
        let docs: Vec<u32> = hits.iter().map(|(d, _)| d.0).collect();
        assert_eq!(docs, vec![0]);
    }

    #[test]
    fn phrase_absent_term_is_empty() {
        let ix = build(&["zebra quilt"]);
        assert!(ix.phrase_search("zebra missingword").is_empty());
        assert!(ix.phrase_search("").is_empty());
    }

    #[test]
    fn multi_batch_offsets() {
        let b0 = parse_documents(&[doc("zebra")], false, 0);
        let b1 = parse_documents(&[doc("zebra zebra")], false, 1);
        let mut ix = PositionalIndexer::new();
        ix.index_batch(&b0, 0);
        ix.index_batch(&b1, 10);
        let done = ix.finish();
        let z = done.get("zebra").unwrap();
        let docs: Vec<u32> = z.postings().iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![0, 10]);
    }

    #[test]
    fn serialization_roundtrip() {
        let ix = build(&["alpha beta gamma", "beta gamma alpha beta"]);
        let mut buf = Vec::new();
        let n = ix.write_to(&mut buf).unwrap();
        assert_eq!(n as usize, buf.len());
        let back = PositionalIndex::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), ix.len());
        for term in ["alpha", "beta", "gamma"] {
            assert_eq!(back.get(term), ix.get(term), "{term}");
        }
        // Corruption detected.
        buf[0] = b'X';
        assert!(PositionalIndex::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn tf_matches_plain_indexer() {
        let docs = vec![doc("zebra quilt zebra zebra"), doc("quilt")];
        let batch = parse_documents(&docs, false, 0);
        let mut plain = crate::cpu::CpuIndexer::new(0);
        for g in &batch.groups {
            plain.index_group(g, 0);
        }
        let mut posix = PositionalIndexer::new();
        posix.index_batch(&batch, 0);
        let done = posix.finish();
        let z = done.get("zebra").unwrap();
        let h = plain.dict.lookup(ii_dict::trie_index("zebra").0, b"ra").unwrap();
        let zp = plain.log().postings_of(h);
        assert_eq!(z.len(), zp.len());
        for (a, b) in z.postings().iter().zip(&zp) {
            assert_eq!(a.to_posting(), *b);
        }
    }
}
