//! # ii-ledger — the repo's benchmark
//!
//! One end-to-end and per-layer performance ledger for build, open and
//! query. `BENCHMARK.json` at the repo root tells the driver how to run it;
//! `README.md` beside this crate defines every metric and workload.
//!
//! The benchmark measures every layer from outside, by timing calls into
//! the layers' public functions. It claims no gain.

#![warn(missing_docs)]

pub mod build;
pub mod catalogue;
pub mod cli;
pub mod oracle;
pub mod replay;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod yardstick;
