//! Frozen differential oracles: pre-optimization implementations the
//! product replaced, kept verbatim so the product can be held to them. No
//! product crate compiles them. Each module's tests compare it against the
//! product on fixed inputs; `tests/dict_diff.rs`, `tests/differential.rs`,
//! `tests/parse_differential.rs`, `tests/run_format_diff.rs`,
//! `tests/lzss_diff.rs` and `tests/posting_log_diff.rs` fuzz and build with
//! them.

#![forbid(unsafe_code)]

pub mod btree;
pub mod html;
pub mod lzss;
pub mod parse;
pub mod porter;
pub mod posting_log;
pub mod reference;
pub mod run_table;
pub mod stopwords;
pub mod tokenize;
pub mod trie;
