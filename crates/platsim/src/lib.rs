//! # ii-platsim — discrete-event model of the paper's platform
//!
//! This host has a single CPU core and no GPU, so wall-clock runs cannot
//! exhibit the paper's 8-core + 2-GPU pipeline behaviour. `ii-platsim`
//! reproduces the performance *shape* experiments instead: per-stage costs
//! are pinned by the paper's own sub-measurements (read/decompress times,
//! per-indexer rates, Table V token shares) and by microbenchmarks of the
//! functional crates, and a deterministic pipeline recurrence derives the
//! Fig 10 scaling curves, Table IV/VI timing breakdowns, Fig 11 per-file
//! series and the Fig 12 cluster comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod model;
pub mod sim;
pub mod sweep;

pub use cluster::ClusterModel;
pub use model::{CollectionModel, PlatformModel, Scenario};
pub use sim::{intake_bandwidth, simulate, SimReport, BUFFER_DEPTH};
pub use sweep::{balance_point, best_configuration, sweep_parsers, SweepPoint};
