//! Postings and postings lists.

use ii_corpus::DocId;

/// One posting: a document containing the term and the term's frequency in
/// it. (The paper's lists hold "the ID of the document containing the term,
/// term frequency, and possibly other information".)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// Global document ID.
    pub doc: DocId,
    /// Term frequency within the document.
    pub tf: u32,
}

/// An in-memory postings list, kept sorted by document ID. Because the
/// pipeline forces indexers to consume parser buffers in round-robin order
/// (§III.F), documents arrive in increasing global ID order and appends
/// keep the list "intrinsically in sorted order".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PostingsList {
    postings: Vec<Posting>,
}

impl PostingsList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one occurrence of the term in `doc`. If `doc` equals the last
    /// posting's document, its term frequency is bumped; otherwise a new
    /// posting is appended. `doc` must be >= the last document seen.
    pub fn add_occurrence(&mut self, doc: DocId) {
        match self.postings.last_mut() {
            Some(last) if last.doc == doc => last.tf += 1,
            Some(last) => {
                assert!(
                    doc > last.doc,
                    "postings must arrive in document order: {} after {}",
                    doc,
                    last.doc
                );
                self.postings.push(Posting { doc, tf: 1 });
            }
            None => self.postings.push(Posting { doc, tf: 1 }),
        }
    }

    /// Append an already-aggregated posting (merge path).
    pub fn push(&mut self, p: Posting) {
        if let Some(last) = self.postings.last() {
            assert!(p.doc > last.doc, "push out of order");
        }
        self.postings.push(p);
    }

    /// Document frequency (number of postings).
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True when no postings are present.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// The postings, in document order.
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// Smallest and largest document IDs, if non-empty.
    pub fn doc_range(&self) -> Option<(DocId, DocId)> {
        Some((self.postings.first()?.doc, self.postings.last()?.doc))
    }

    /// Total occurrences (sum of term frequencies).
    pub fn total_tf(&self) -> u64 {
        self.postings.iter().map(|p| p.tf as u64).sum()
    }
}

impl FromIterator<Posting> for PostingsList {
    fn from_iter<T: IntoIterator<Item = Posting>>(iter: T) -> Self {
        let mut l = PostingsList::new();
        for p in iter {
            l.push(p);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrences_aggregate_by_doc() {
        let mut l = PostingsList::new();
        l.add_occurrence(DocId(1));
        l.add_occurrence(DocId(1));
        l.add_occurrence(DocId(3));
        assert_eq!(
            l.postings(),
            &[Posting { doc: DocId(1), tf: 2 }, Posting { doc: DocId(3), tf: 1 }]
        );
        assert_eq!(l.total_tf(), 3);
        assert_eq!(l.doc_range(), Some((DocId(1), DocId(3))));
    }

    #[test]
    #[should_panic(expected = "document order")]
    fn out_of_order_rejected() {
        let mut l = PostingsList::new();
        l.add_occurrence(DocId(5));
        l.add_occurrence(DocId(2));
    }
}
