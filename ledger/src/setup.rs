//! Set-up: everything a run needs before the program under test starts.
//!
//! Generate and compress the collection from the seed, build the oracle,
//! draw the query set. It is timed as `setup_s` so that work a later change
//! moves out of the measured section and into set-up still shows.

use crate::oracle::{make_queries, Oracle, Query};
use crate::stats::median;
use crate::workloads::{Scale, Workload};
use crate::yardstick::Yardstick;
use ii_core::corpus::StoredCollection;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one run of a workload is asked to do.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: &'static Workload,
    /// `--seed`: every input derives from it.
    pub seed: u64,
    /// `--seconds`: how long the measured section runs.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
    /// The `ledger` binary, re-executed for each build.
    pub exe: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
}

/// The generated inputs of a run.
pub struct Inputs {
    /// Directory of the collection on disk.
    pub collection_dir: PathBuf,
    /// The collection (manifest and statistics).
    pub collection: StoredCollection,
    /// The serial oracle over it.
    pub oracle: Oracle,
    /// The query set.
    pub queries: Vec<Query>,
    /// Median wall seconds of one whole set-up.
    pub setup_s: f64,
    /// Seconds of the last set-up's parts: generate and compress the
    /// collection, build the oracle, draw the queries.
    pub setup_parts: [f64; 3],
}

impl Inputs {
    /// 10^6 bytes of uncompressed collection: the one MB every rate uses.
    pub fn mb(&self) -> f64 {
        self.collection.manifest.stats.uncompressed_bytes as f64 / 1e6
    }

    /// 10^6 tokens of the collection: the one Mtok every rate uses.
    pub fn mtok(&self) -> f64 {
        self.collection.manifest.stats.tokens as f64 / 1e6
    }
}

type SetUp = (StoredCollection, Oracle, Vec<Query>, [f64; 3]);

fn set_up_once(opts: &RunOptions, dir: &Path) -> io::Result<SetUp> {
    let w = opts.workload;
    let t0 = Instant::now();
    let collection = StoredCollection::generate(w.collection(opts.scale, opts.seed), dir)?;
    let t1 = Instant::now();
    let oracle = Oracle::build(&collection)?;
    let t2 = Instant::now();
    let queries = make_queries(&oracle, w.shape, w.queries(opts.scale), opts.seed)?;
    let parts = [t1 - t0, t2 - t1, t2.elapsed()].map(|d| d.as_secs_f64());
    Ok((collection, oracle, queries, parts))
}

/// Set up `repeats` times from scratch and keep the last; `setup_s` is the
/// median, so one slow set-up does not decide it. The yardstick, when given,
/// is sampled before, between and after the set-ups, so the caller can tell
/// how fast the host was meanwhile.
pub fn set_up(
    opts: &RunOptions,
    repeats: usize,
    mut yard: Option<&mut Yardstick>,
) -> io::Result<Inputs> {
    let mut sample_host = || {
        if let Some(y) = yard.as_deref_mut() {
            y.sample();
            y.sample();
        }
    };
    let collection_dir = opts.work.join("collection");
    let mut seconds = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        if collection_dir.exists() {
            fs::remove_dir_all(&collection_dir)?;
        }
        drop(last.take());
        sample_host();
        let t0 = Instant::now();
        last = Some(set_up_once(opts, &collection_dir)?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    sample_host();
    let (collection, oracle, queries, setup_parts) = last.expect("at least one set-up ran");
    Ok(Inputs {
        collection_dir,
        collection,
        oracle,
        queries,
        setup_s: median(&seconds),
        setup_parts,
    })
}
