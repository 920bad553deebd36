//! Document and identifier types shared across the workspace.

/// Global document identifier. The paper assigns *local* IDs inside each
/// parser and adds a global offset in the indexer (§III.C); both layers use
/// this type, with the context determining whether it is local or global.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DocId(pub u32);

impl DocId {
    /// Apply the global offset computed by the indexer for a parser batch.
    pub fn with_offset(self, offset: u32) -> DocId {
        DocId(self.0 + offset)
    }
}

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A raw document as read from a collection container file, before parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawDocument {
    /// Source URL (or synthetic identifier).
    pub url: String,
    /// Uninterpreted body text (HTML or plain text).
    pub body: String,
}

impl RawDocument {
    /// Total stored size in bytes (url + body), the unit used for the
    /// paper's "uncompressed size" statistics.
    pub fn stored_len(&self) -> usize {
        self.url.len() + self.body.len()
    }

    /// The document as borrowed slices of its own strings.
    pub fn as_doc_ref(&self) -> DocRef<'_> {
        DocRef { url: &self.url, body: &self.body }
    }
}

/// A raw document borrowed from the buffer that holds it — a decompressed
/// container, or a [`RawDocument`] — so parsing copies none of its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DocRef<'a> {
    /// Source URL (or synthetic identifier).
    pub url: &'a str,
    /// Uninterpreted body text (HTML or plain text).
    pub body: &'a str,
}

impl DocRef<'_> {
    /// An owned copy of the document.
    pub fn to_owned_doc(self) -> RawDocument {
        RawDocument { url: self.url.to_owned(), body: self.body.to_owned() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn docid_offset() {
        assert_eq!(DocId(5).with_offset(100), DocId(105));
        assert_eq!(DocId(0).with_offset(0), DocId(0));
    }

    #[test]
    fn docid_display_and_order() {
        assert_eq!(DocId(7).to_string(), "7");
        assert!(DocId(3) < DocId(10));
    }

    #[test]
    fn stored_len_counts_url_and_body() {
        let d = RawDocument { url: "http://x".into(), body: "hello".into() };
        assert_eq!(d.stored_len(), 8 + 5);
    }
}
