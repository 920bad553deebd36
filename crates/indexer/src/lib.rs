//! # ii-indexer — the paper's core contribution
//!
//! Parallel CPU and GPU indexers over the hybrid trie + B-tree dictionary:
//! the CPU indexer (§III.D.1) for popular (Zipf-head) trie collections, the
//! warp-per-collection GPU kernel (§III.D.2) on the simulated device, the
//! sampling-based popular/unpopular load balancer (§III.E), and the
//! run-structured indexer pool (Fig 8) that turns parsed batches into
//! compressed postings run files and dictionary shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod cpu;
pub mod gpu;
pub mod log;
pub mod run;
pub mod stats;

pub use balance::{make_plan, sample_counts, BalancePlan, Owner};
pub use cpu::CpuIndexer;
pub use gpu::{GpuBatchReport, GpuIndexer, GpuIndexerConfig};
pub use log::PostingLog;
pub use run::{BatchTiming, Executor, ExecutorDeath, Host, IndexerPool, Takeover};
pub use stats::WorkloadStats;
