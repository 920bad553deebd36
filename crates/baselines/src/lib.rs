//! # ii-baselines — comparator systems
//!
//! Every algorithm the paper compares against or builds upon, implemented
//! from scratch: a minimal in-process MapReduce runtime [7], Ivory
//! MapReduce indexing [9], Single-Pass MapReduce indexing [8], SPIMI
//! (Heinz-Zobel single-pass in-memory) [4], sort-based inversion
//! (Moffat-Bell) [3], and the serial no-regrouping ablation of §III.C.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ivory;
pub mod mapreduce;
pub mod noregroup;
pub mod sortbased;
pub mod spimi;
pub mod spmr;

pub use ivory::{doc_terms, ivory_index, BaselineIndex};
pub use mapreduce::{run_job, MapReduceConfig, MapReduceStats};
pub use noregroup::{index_with_regrouping, index_without_regrouping, SerialIndexResult};
pub use sortbased::sort_based_index;
pub use spimi::spimi_index;
pub use spmr::spmr_index;
