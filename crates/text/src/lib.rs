//! # ii-text — parsing substrate
//!
//! The parser stage of the paper's pipeline: HTML stripping, character-scan
//! tokenization, the Porter stemmer, post-stem stop-word removal, and the
//! trie-collection regrouping step (Fig 3, Steps 2-5) that produces the
//! length-prefixed term streams both the CPU and GPU indexers consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod html;
pub mod parse;
pub mod porter;
pub mod stopwords;
pub mod tokenize;

pub use parse::{
    parse_documents, parse_documents_flat, parse_documents_into, parse_records_into, DocSpan,
    ParseScratch, ParseStats, ParsedBatch, TermBytesIter, TrieGroup, MAX_TERM_BYTES,
};
pub use porter::{stem, stem_into, StemBuf};
pub use stopwords::is_stop_word;
