//! Regrouping ablation (paper §III.C).
//!
//! "Even in the case when indexing is carried out by a serial CPU thread,
//! regrouping results in approximately 15-fold speedup ... due to improved
//! cache performance caused by the additional temporal locality." This
//! module builds the same dictionary + postings twice from one parsed
//! token stream: once in raw document order (every term hops to a
//! different trie collection's B-tree) and once regrouped by trie
//! collection (each small B-tree stays hot while its group is consumed).

use ii_corpus::RawDocument;
use ii_dict::PartialDictionary;
use ii_postings::PostingsList;
use std::time::Instant;

/// Outcome of a serial indexing pass.
pub struct SerialIndexResult {
    /// The dictionary built.
    pub dict: PartialDictionary,
    /// Postings lists by handle.
    pub lists: Vec<PostingsList>,
    /// Seconds spent in the indexing loop (parsing excluded).
    pub indexing_seconds: f64,
    /// Terms processed.
    pub tokens: u64,
}

fn add_posting(lists: &mut Vec<PostingsList>, handle: u32, doc: ii_corpus::DocId) {
    let h = handle as usize;
    if h >= lists.len() {
        lists.resize_with(h + 1, PostingsList::new);
    }
    lists[h].add_occurrence(doc);
}

/// Serial indexing **without** regrouping: terms are consumed in raw
/// document order, bouncing between trie collections on every step.
pub fn index_without_regrouping(docs: &[RawDocument], html: bool) -> SerialIndexResult {
    let (stream, stats) = ii_text::parse_documents_flat(docs, html);
    let mut dict = PartialDictionary::new(0);
    let mut lists: Vec<PostingsList> = Vec::new();
    let t0 = Instant::now();
    for (doc, trie, term) in &stream {
        let out = dict.insert_term(trie.0, term.as_bytes());
        add_posting(&mut lists, out.postings, *doc);
    }
    SerialIndexResult {
        dict,
        lists,
        indexing_seconds: t0.elapsed().as_secs_f64(),
        tokens: stats.terms_kept,
    }
}

/// Serial indexing **with** regrouping: the parser's Step 5 output is
/// consumed group by group, exactly as the paper's indexers do.
pub fn index_with_regrouping(docs: &[RawDocument], html: bool) -> SerialIndexResult {
    let batch = ii_text::parse_documents(docs, html, 0);
    let mut dict = PartialDictionary::new(0);
    let mut lists: Vec<PostingsList> = Vec::new();
    let t0 = Instant::now();
    for group in &batch.groups {
        for (doc, term) in group.iter_terms() {
            let out = dict.insert_term(group.trie_index, term);
            add_posting(&mut lists, out.postings, doc);
        }
    }
    SerialIndexResult {
        dict,
        lists,
        indexing_seconds: t0.elapsed().as_secs_f64(),
        tokens: batch.stats.terms_kept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_dict::GlobalDictionary;

    fn doc(body: &str) -> RawDocument {
        RawDocument { url: String::new(), body: body.into() }
    }

    #[test]
    fn both_orders_build_the_same_index() {
        let docs = vec![
            doc("zebra alpha zebra quilt xylophone"),
            doc("alpha number 954 zebra -80"),
            doc("quilt quilt banana"),
        ];
        let a = index_without_regrouping(&docs, false);
        let b = index_with_regrouping(&docs, false);
        assert_eq!(a.tokens, b.tokens);
        let da = GlobalDictionary::combine(std::slice::from_ref(&a.dict));
        let db = GlobalDictionary::combine(std::slice::from_ref(&b.dict));
        // Same term set.
        let ta: Vec<String> = da.entries().map(|e| e.full_term()).collect();
        let tb: Vec<String> = db.entries().map(|e| e.full_term()).collect();
        assert_eq!(ta, tb);
        // Same postings per term (handles differ — map through the dicts).
        for (ea, eb) in da.entries().zip(db.entries()) {
            let la = &a.lists[ea.postings as usize];
            let lb = &b.lists[eb.postings as usize];
            assert_eq!(la, lb, "term {}", ea.full_term());
        }
    }

    #[test]
    fn timings_are_recorded() {
        let docs = vec![doc("some words to index for timing purposes")];
        let r = index_with_regrouping(&docs, false);
        assert!(r.indexing_seconds >= 0.0);
        assert!(r.tokens > 0);
    }
}
