//! # ii-core — fast inverted-file construction on heterogeneous platforms
//!
//! A from-scratch Rust reproduction of Wei & JaJa, *A Fast Algorithm for
//! Constructing Inverted Files on Heterogeneous Platforms* (IPDPS 2011):
//! a pipelined indexing system in which parallel parsers feed CPU indexers
//! (popular, Zipf-head trie collections) and GPU indexers (the long tail)
//! through a hybrid trie + B-tree dictionary with 4-byte string caches.
//!
//! This crate is the facade: a fluent [`IndexBuilder`], the queryable,
//! persistable [`Index`], and re-exports of every subsystem crate.
//!
//! ```no_run
//! use ii_core::{corpus::CollectionSpec, IndexBuilder};
//! # fn main() -> std::io::Result<()> {
//! let dir = std::path::Path::new("/tmp/my-collection");
//! ii_core::corpus::StoredCollection::generate(CollectionSpec::wikipedia_like(1.0), dir)?;
//! let index = IndexBuilder::new().parsers(6).cpu_indexers(2).gpus(2).build_from_dir(dir)?;
//! for (doc, score) in index.search("information retrieval") {
//!     println!("doc {doc} score {score}");
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod index;
mod query;

pub use builder::IndexBuilder;
pub use index::Index;
pub use query::{Bm25Params, QueryMode, RankedHit, TermExplain};

/// Document-collection substrate (synthetic corpora, compression, storage).
pub use ii_corpus as corpus;
/// Hybrid trie + B-tree dictionary.
pub use ii_dict as dict;
/// Simulated GPU (SIMT warps, shared memory, coalescing, cost model).
pub use ii_gpusim as gpusim;
/// CPU/GPU indexers and load balancing.
pub use ii_indexer as indexer;
/// Metrics registry, stage spans, JSON snapshots.
pub use ii_obs as obs;
/// Pipelined dataflow driver.
pub use ii_pipeline as pipeline;
/// Platform performance model (Fig 10/11, Tables IV/VI, Fig 12).
pub use ii_platsim as platsim;
/// Postings lists, codecs and run files.
pub use ii_postings as postings;
/// Crash-safe artifact storage: manifest, atomic commit, fault injection.
pub use ii_store as store;
/// Parsing: tokenizer, Porter stemmer, stop words, regrouping.
pub use ii_text as text;
