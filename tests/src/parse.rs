//! The frozen parser: what `ii_text::parse_documents_into` was before its
//! hot-path rewrite — per-batch `HashMap` regrouping over the naive
//! tokenizer ([`crate::tokenize`]), allocating stemmer ([`crate::porter`]),
//! full-table stop lookup ([`crate::stopwords`]), char-counting
//! classifier ([`crate::trie`]) and `char`-wise HTML stripper
//! ([`crate::html`]), every piece a rewrite touched. The
//! product parser must return byte-identical [`ParsedBatch`]es.

use ii_core::corpus::{DocId, RawDocument};
use crate::html::strip_tags_reference;
use ii_core::text::{DocSpan, ParseStats, ParsedBatch, TrieGroup, MAX_TERM_BYTES};
use std::collections::HashMap;

#[derive(Default)]
struct GroupBuilder {
    docs: Vec<DocSpan>,
    term_bytes: Vec<u8>,
}

impl GroupBuilder {
    fn push(&mut self, doc: DocId, term: &[u8]) {
        if self.docs.last().is_none_or(|span| span.doc != doc) {
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

/// Run parser Steps 2-5 over one batch of documents, the frozen way.
pub fn parse_documents_reference(
    docs: &[RawDocument],
    html: bool,
    file_idx: usize,
) -> ParsedBatch {
    let mut builders: HashMap<u32, GroupBuilder> = HashMap::new();
    let mut stats = ParseStats::default();
    let mut doc_table = Vec::with_capacity(docs.len());
    for (local, d) in docs.iter().enumerate() {
        let doc_id = DocId(local as u32);
        doc_table.push((doc_id, d.url.clone()));
        let text: std::borrow::Cow<'_, str> =
            if html { strip_tags_reference(&d.body).into() } else { (&d.body).into() };
        let mut it = crate::tokenize::tokens_reference(&text);
        while let Some(tok) = it.next_token() {
            stats.tokens += 1;
            let stemmed = crate::porter::stem(tok);
            if crate::stopwords::is_stop_word_reference(&stemmed) {
                continue;
            }
            let (idx, suffix) = crate::trie::classify_reference(&stemmed);
            stats.terms_kept += 1;
            stats.chars += suffix.len() as u64;
            builders.entry(idx.0).or_default().push(doc_id, suffix.as_bytes());
        }
    }
    let mut groups: Vec<TrieGroup> = builders
        .into_iter()
        .map(|(trie_index, b)| TrieGroup { trie_index, docs: b.docs, term_bytes: b.term_bytes })
        .collect();
    groups.sort_unstable_by_key(|g| g.trie_index);
    ParsedBatch { file_idx, num_docs: docs.len() as u32, doc_table, groups, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_core::text::parse_documents;

    fn doc(body: &str) -> RawDocument {
        RawDocument { url: format!("u{}", body.len()), body: body.into() }
    }

    #[test]
    fn reference_parser_agrees() {
        let docs = vec![
            doc("The QUICK brown -80 fox caf\u{e9} jumped"),
            doc("running RUNNERS ran; stra\u{df}e"),
        ];
        assert_eq!(parse_documents(&docs, false, 7), parse_documents_reference(&docs, false, 7));
        assert_eq!(parse_documents(&docs, true, 7), parse_documents_reference(&docs, true, 7));
    }
}
