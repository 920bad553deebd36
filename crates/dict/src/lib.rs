//! # ii-dict — the hybrid trie + B-tree dictionary (paper §III.B)
//!
//! The central data structure of the paper: a fixed-height-3 trie realized
//! as a flat table of 17,613 collection indices (Table I), each owning an
//! independent degree-16 B-tree whose 512-byte nodes (Table II) embed
//! 4-byte string caches. Independence of the B-trees is what lets CPU
//! threads and GPU thread blocks index concurrently without locks.
//!
//! The host runs one B-tree, [`slotted`]: slotted nodes with
//! order-preserving 4-byte integer heads, branch-free intra-node search and
//! `memcpy` shifts/splits. What [`PartialDictionary`] runs on. The Table II
//! node of [`node`] is the simulated GPU's device layout; a shard crosses
//! to and from it through [`SlottedStore::from_device`] and
//! [`SlottedStore::to_device_nodes`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod dictionary;
pub mod node;
pub mod slotted;
pub mod trie;
pub mod verify;

pub use dictionary::{
    insert_surface, lookup_surface, shard_mem_bytes, tree_nodes, DictEntry, GlobalDictionary,
    PartialDictionary,
};
pub use node::{BTreeNode, DEGREE, MAX_KEYS, MIN_KEYS, NODE_BYTES, NULL};
pub use slotted::{term_head, BTree, InsertOutcome, SlottedNode, SlottedStore, HEAD_SENTINEL};
pub use trie::{classify, trie_index, TrieIndex, TRIE_ENTRIES};
pub use verify::{verify_global, verify_shard, verify_slotted, BTreeViolation, GlobalViolation};
