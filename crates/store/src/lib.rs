//! # ii-store — crash-safe index storage
//!
//! Every on-disk index artifact goes through this crate. The durability
//! contract: an index directory is either *fully valid* (its `MANIFEST.json`
//! lists every artifact with length and CRC32, and all of them check out) or
//! *recognizably partial* (a typed [`StoreError`] says exactly what is
//! wrong). A crash at any write/fsync/rename boundary can never produce a
//! directory that silently loads garbage.
//!
//! The commit protocol (write-ahead by construction, no log needed):
//!
//! 1. every artifact is written to `<file>.tmp`, fsynced, then atomically
//!    renamed into place — never overwriting a file the *current* manifest
//!    references (changed artifacts get a generation-suffixed name);
//! 2. the directory is fsynced so the renames are durable;
//! 3. the manifest itself is committed last by the same
//!    write-temp → fsync → rename → fsync-dir dance. The manifest rename is
//!    the commit point: before it, `open` sees the previous generation;
//!    after it, the new one.
//! 4. files referenced by the previous manifest but not the new one (and
//!    stray `.tmp` files) are garbage-collected best-effort — a crash here
//!    leaves harmless orphans.
//!
//! All I/O runs through a [`Vfs`] so the crash-point harness ([`CrashVfs`])
//! can simulate power loss at every operation boundary, plus torn and
//! bit-flipped writes, in the style of `ii_corpus::fault`'s seeded
//! injection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod manifest;
mod store;
mod vfs;

pub use error::StoreError;
pub use manifest::{
    ArtifactMeta, Manifest, ManifestKind, PostingsMeta, FORMAT_VERSION, MANIFEST_NAME,
};
pub use store::{
    salvage, write_file_durable, ArtifactStatus, ArtifactValidator, SalvageReport, Store, Txn,
};
pub use vfs::{CrashMode, CrashVfs, RealVfs, Vfs};

/// CRC-32 (ISO-HDLC) of every manifest record: the container footer
/// checksum of `ii_corpus`, re-exported so the code base has one definition
/// (slice-by-8; see [`ii_corpus::container::crc32`]).
pub use ii_corpus::container::crc32;
