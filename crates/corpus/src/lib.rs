//! # ii-corpus — document-collection substrate
//!
//! Synthetic stand-ins for the paper's ClueWeb09 / Wikipedia / Library of
//! Congress collections: Zipf-distributed vocabularies, deterministic
//! document generation (HTML or plain text), an LZSS codec for the
//! compressed-on-disk ingest path, a container file format, and an on-disk
//! store with Table III-style statistics.
//!
//! See DESIGN.md §2 for why each substitution preserves the behaviour the
//! indexing algorithm depends on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod compress;
pub mod container;
pub mod doc;
pub mod fault;
pub mod store;
pub mod synth;
pub mod vocab;
pub mod zipf;

pub use analysis::{fit_heaps, fit_zipf, vocabulary_growth, GrowthPoint};
pub use doc::{DocId, DocRef, RawDocument};
pub use fault::{FaultKind, FaultPlan, IngestError};
pub use store::{Manifest, StoredCollection};
pub use synth::{CollectionGenerator, CollectionSpec, CollectionStats, DistributionShift};
pub use vocab::Vocabulary;
pub use zipf::Zipf;
