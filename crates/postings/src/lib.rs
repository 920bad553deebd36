//! # ii-postings — postings lists, compression codecs and run files
//!
//! The output side of the indexing system: doc-sorted postings lists,
//! gap compression (variable-byte as in the paper, plus BP128 bitpacking
//! and PForDelta, picked per list by length class, in a fixed 128-document
//! block layout with per-list skip tables and block-max metadata), the
//! per-run output file format with its header mapping table (§III.F) —
//! held in memory as the bytes it is written as — skip-pointer cursors,
//! range-narrowed retrieval, and the block-aligned post-processing merge
//! of partial lists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod block;
pub mod codec;
pub mod cursor;
pub mod merge;
pub mod posting;
pub mod run;
pub mod table;
pub mod varbyte;

pub use block::{
    BlockedList, EncodedList, ListEncoder, ListWriter, SkipEntry, BLOCK_LEN, SKIP_ENTRY_BYTES,
};
pub use codec::{codec_for, Codec, CodecError, LONG_LIST_MIN, SHORT_LIST_MAX};
pub use cursor::{ListCursor, SetCursor};
pub use merge::merge_runs;
pub use posting::{Posting, PostingsList};
pub use run::{
    parse_run_artifact_name, run_artifact_name, RunBuilder, RunEntry, RunFile, RunSet,
};
pub use table::{RunTable, SAMPLE_EVERY};
