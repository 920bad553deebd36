//! # ii-dict — the hybrid trie + B-tree dictionary (paper §III.B)
//!
//! The central data structure of the paper: a fixed-height-3 trie realized
//! as a flat table of 17,613 collection indices (Table I), each owning an
//! independent degree-16 B-tree whose 512-byte nodes (Table II) embed
//! 4-byte string caches. Independence of the B-trees is what lets CPU
//! threads and GPU thread blocks index concurrently without locks.
//!
//! Two implementations of the B-tree coexist:
//!
//! * [`slotted`] — the hot path. Slotted nodes with order-preserving
//!   4-byte integer heads, branch-free intra-node search, `memcpy`
//!   shifts/splits. What [`PartialDictionary`] runs on.
//! * [`btree`] — the original Table II layout, frozen byte-for-byte as the
//!   differential-test reference ([`reference::ReferenceDictionary`]) and
//!   as the device-memory interop layer for the simulated GPU.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod btree;
pub mod dictionary;
pub mod node;
pub mod reference;
pub mod slotted;
pub mod trie;
pub mod verify;

pub use btree::{BTree, BTreeStore, InsertOutcome};
pub use dictionary::{
    insert_surface, lookup_surface, tree_nodes, DictEntry, GlobalDictionary, PartialDictionary,
};
pub use node::{BTreeNode, DEGREE, MAX_KEYS, MIN_KEYS, NODE_BYTES, NULL};
pub use reference::{
    combine_reference, insert_surface_reference, lookup_surface_reference, ReferenceDictionary,
};
pub use slotted::{term_head, SlottedNode, SlottedStore, HEAD_SENTINEL};
pub use trie::{classify, trie_index, TrieIndex, TRIE_ENTRIES};
pub use verify::{
    verify_btree, verify_global, verify_shard, verify_slotted, BTreeViolation, GlobalViolation,
};
