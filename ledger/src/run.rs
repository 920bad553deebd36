//! The end-to-end run of one workload (`--trace 0`): rounds of a durable
//! build in a child process, an `Index::open` and closed-loop query passes
//! on the committed directory, with every output checked against the oracle.

use crate::build::{
    build_in_child, dir_bytes, fingerprint, verify_against_oracle, verify_checksums, BuildJob,
    ChildReport, Fingerprint,
};
use crate::oracle::{Mode, Oracle, Query};
use crate::setup::{set_up, Inputs, RunOptions};
use crate::stats::{median, percentile, sorted, tail};
use crate::workloads::{mix, Scale};
use crate::yardstick::{Yardstick, REFERENCE_S};
use ii_core::{Bm25Params, Index, QueryMode};
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Terms whose postings are compared exactly with the oracle after a build.
const SAMPLE_TERMS: usize = 1_000;

/// What a run produced: the contract's `attempted`/`failed` plus metrics.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: builds, opens, distinct queries.
    pub attempted: u64,
    /// Operations that errored or whose output disagreed with the oracle.
    pub failed: u64,
    /// `(metric name, value)`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and the like, for the human-readable report.
    pub notes: Vec<String>,
    /// What failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub(crate) fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }
}

/// The timed builds of a run, one child process each.
///
/// After each build, outside the child's timed region: the first is
/// compared with the oracle and its directory kept (the run opens and
/// queries it); every later one must pass its checksums and commit the same
/// bytes as the first, and is then removed.
pub struct Builder<'a> {
    opts: &'a RunOptions,
    inputs: &'a Inputs,
    sample: Vec<u32>,
    first: Option<(PathBuf, Fingerprint)>,
    /// Reports of the builds that succeeded.
    pub reports: Vec<ChildReport>,
    attempts: usize,
}

impl<'a> Builder<'a> {
    /// A builder for this run's collection.
    pub fn new(opts: &'a RunOptions, inputs: &'a Inputs) -> Self {
        let sample = inputs
            .oracle
            .sample_terms(SAMPLE_TERMS, mix(opts.seed, 0x5A));
        Builder {
            opts,
            inputs,
            sample,
            first: None,
            reports: Vec::new(),
            attempts: 0,
        }
    }

    /// The first verified build's directory.
    pub fn index_dir(&self) -> Option<&Path> {
        self.first.as_ref().map(|(dir, _)| dir.as_path())
    }

    /// Build once in a child and check what it committed.
    pub fn build(&mut self, out: &mut Outcome) {
        let dir = self.opts.work.join(format!("index-{}", self.attempts));
        self.attempts += 1;
        out.attempted += 1;
        let job = BuildJob {
            collection: self.inputs.collection_dir.clone(),
            index: Some(dir.clone()),
            gpus: self.opts.workload.gpus,
            scale: self.opts.scale,
            traced: false,
        };
        let oracle = &self.inputs.oracle;
        let mut problems = Vec::new();
        let report = build_in_child(&self.opts.exe, &job)
            .map_err(|e| problems.push(e))
            .ok();
        let mut committed = None;
        if let Some(r) = &report {
            if !r.clean {
                problems.push(format!("build was not clean: {}", r.detail));
            }
            if r.docs != u64::from(oracle.docs()) || r.terms != oracle.terms.len() as u64 {
                problems.push(format!("build reports {} docs, {} terms", r.docs, r.terms));
            }
            match fingerprint(&dir) {
                Err(e) => problems.push(e),
                Ok(fp) => {
                    // Equal fingerprints plus clean checksums mean the same
                    // bytes as the first build, which the oracle vouched for.
                    if self.first.as_ref().is_some_and(|(_, first)| *first == fp) {
                        problems.extend(verify_checksums(&dir));
                    } else {
                        if self.first.is_some() {
                            problems.push("committed bytes differ from the first build's".into());
                        }
                        problems.extend(verify_against_oracle(&dir, oracle, &self.sample));
                    }
                    committed = Some(fp);
                }
            }
        }
        match (report, committed, problems.is_empty()) {
            (Some(r), Some(fp), true) => {
                self.reports.push(r);
                if self.first.is_none() {
                    self.first = Some((dir, fp));
                } else {
                    let _ = fs::remove_dir_all(&dir);
                }
            }
            _ => {
                out.fail(format!("build {}: {}", self.attempts, problems.join("; ")));
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Open the committed directory once, timed; `None` (and a failure) when
/// it does not open.
pub fn timed_open(index_dir: &Path, open_ms: &mut Vec<f64>, out: &mut Outcome) -> Option<Index> {
    out.attempted += 1;
    let t0 = Instant::now();
    match Index::open(index_dir) {
        Ok(idx) => {
            open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            Some(idx)
        }
        Err(e) => {
            out.fail(format!("Index::open: {e}"));
            None
        }
    }
}

/// Run one query through its public entry point; returns the hit count.
pub fn run_query(idx: &Index, q: &Query) -> usize {
    match q.mode {
        Mode::Or => idx
            .search_ranked(&q.text, QueryMode::Or, Bm25Params::default())
            .len(),
        Mode::And => idx
            .search_ranked(&q.text, QueryMode::And, Bm25Params::default())
            .len(),
        Mode::Bool => idx.search(&q.text).len(),
    }
}

fn query_docs(idx: &Index, q: &Query) -> Vec<u32> {
    let mut docs: Vec<u32> = match q.mode {
        Mode::Or => idx
            .search_ranked(&q.text, QueryMode::Or, Bm25Params::default())
            .iter()
            .map(|h| h.doc.0)
            .collect(),
        Mode::And => idx
            .search_ranked(&q.text, QueryMode::And, Bm25Params::default())
            .iter()
            .map(|h| h.doc.0)
            .collect(),
        Mode::Bool => idx.search(&q.text).iter().map(|h| h.0 .0).collect(),
    };
    docs.sort_unstable();
    docs
}

/// Compare every query's document set once with brute force over the
/// oracle's lists. Untimed.
pub fn check_queries(idx: &Index, oracle: &Oracle, queries: &[Query], out: &mut Outcome) {
    let wrong = queries
        .iter()
        .filter(|q| query_docs(idx, q) != oracle.expected_docs(q))
        .count() as u64;
    out.attempted += queries.len() as u64;
    if wrong > 0 {
        out.failed += wrong;
        out.problems.push(format!(
            "{wrong} of {} queries disagree with brute force",
            queries.len()
        ));
    }
}

/// Closed-loop query passes by one client.
pub struct Passes {
    /// Per query, its latency in microseconds in each pass.
    pub latency_us: Vec<Vec<f64>>,
    /// Wall seconds of each pass.
    pub pass_seconds: Vec<f64>,
}

impl Passes {
    /// Per query, the median of its pass timings, ascending.
    pub fn per_query_medians(&self) -> Vec<f64> {
        sorted(self.latency_us.iter().map(|l| median(l)).collect())
    }

    /// No passes yet over `n` queries.
    pub fn new(n: usize) -> Self {
        Passes {
            latency_us: vec![Vec::new(); n],
            pass_seconds: Vec::new(),
        }
    }

    /// One closed-loop pass: each query is sent when the previous one has
    /// been answered.
    pub fn pass(&mut self, idx: &Index, queries: &[Query]) {
        let pass = Instant::now();
        for (q, lat) in queries.iter().zip(&mut self.latency_us) {
            let t0 = Instant::now();
            black_box(run_query(idx, black_box(q)));
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        self.pass_seconds.push(pass.elapsed().as_secs_f64());
    }
}

/// Opens before the first query pass; one more is timed in every round.
const FIRST_OPENS: usize = 3;

/// Run one workload end to end and report every end-to-end metric.
///
/// The measured section is a sequence of rounds — one build in a child,
/// one `Index::open`, then query passes for the workload's share of the
/// round — so every metric samples the whole of `--seconds` and a slow
/// spell of the host lands on all of them alike instead of on whichever
/// phase happened to be running.
pub fn run_end_to_end(opts: &RunOptions) -> Result<Outcome, String> {
    let tiny = opts.scale == Scale::Tiny;
    let mut out = Outcome::default();
    let setup_repeats = if tiny { 1 } else { 3 };
    let mut setup_yard = Yardstick::new();
    let inputs =
        set_up(opts, setup_repeats, Some(&mut setup_yard)).map_err(|e| format!("set-up: {e}"))?;
    let queries = &inputs.queries;
    let query_share = (1.0 - opts.workload.build_share) / opts.workload.build_share;
    let min_rounds = if tiny { 2 } else { 3 };

    let setup_speed = setup_yard.speed();
    let mut yard = setup_yard.restart();
    let started = Instant::now();
    let mut builder = Builder::new(opts, &inputs);
    let mut open_ms = Vec::new();
    let mut passes = Passes::new(queries.len());
    let mut idx: Option<Index> = None;
    while builder.attempts < min_rounds || started.elapsed().as_secs_f64() < opts.seconds {
        if builder.attempts >= min_rounds && builder.reports.is_empty() {
            break; // nothing builds: report that instead of retrying for --seconds
        }
        yard.sample();
        let building = Instant::now();
        builder.build(&mut out);
        yard.sample();
        let query_budget = building.elapsed().as_secs_f64() * query_share;
        let Some(index_dir) = builder.index_dir() else {
            continue;
        };
        let opens = if idx.is_none() { FIRST_OPENS } else { 1 };
        for _ in 0..opens {
            if let Some(opened) = timed_open(index_dir, &mut open_ms, &mut out) {
                if idx.is_none() {
                    // The untimed check pass doubles as the warm-up: every
                    // list a timed pass touches has been faulted in once.
                    check_queries(&opened, &inputs.oracle, queries, &mut out);
                }
                idx = Some(opened);
            }
        }
        let Some(idx) = &idx else { continue };
        let querying = Instant::now();
        passes.pass(idx, queries);
        yard.sample();
        while querying.elapsed().as_secs_f64() < query_budget {
            passes.pass(idx, queries);
            yard.sample();
        }
    }
    let index_dir = builder.index_dir().ok_or_else(|| {
        format!(
            "no build of {} succeeded: {}",
            opts.workload.name,
            out.problems.join(" | ")
        )
    })?;
    if passes.pass_seconds.is_empty() {
        return Err(format!(
            "{} never opened: {}",
            index_dir.display(),
            out.problems.join(" | ")
        ));
    }
    let walls: Vec<f64> = builder.reports.iter().map(|r| r.wall_s).collect();
    let rss: Vec<f64> = builder
        .reports
        .iter()
        .map(|r| r.vm_hwm_kb as f64 * 1024.0 / 1e6)
        .collect();
    let index_bytes = dir_bytes(index_dir);

    let per_query = passes.per_query_medians();
    let p99 = tail(&per_query, 0.99);
    let qps: Vec<f64> = passes
        .pass_seconds
        .iter()
        .map(|s| inputs.queries.len() as f64 / s)
        .collect();
    // Set-up, build and query timings are normalised by the host's speed
    // while they ran (see `yardstick`); `Index::open` is not, because the
    // yardstick does not explain its run-to-run spread.
    let speed = yard.speed();
    let build_mb_s = inputs.mb() / median(&walls);
    let p50_us = percentile(&per_query, 0.5);
    let qps = median(&qps);
    out.metrics = vec![
        ("setup_s", inputs.setup_s * setup_speed),
        ("build_mb_s", build_mb_s / speed),
        ("build_peak_rss_mb", median(&rss)),
        (
            "index_bytes_per_input_byte",
            index_bytes as f64 / (inputs.mb() * 1e6),
        ),
        ("open_ms", median(&open_ms)),
        ("query_p50_us", p50_us * speed),
        ("query_p99_us", p99.value * speed),
        ("query_qps", qps / speed),
    ];
    out.notes = vec![
        format!(
            "collection: {:.2} MB uncompressed, {} docs, {} tokens, {} terms",
            inputs.mb(),
            inputs.oracle.docs(),
            inputs.collection.manifest.stats.tokens,
            inputs.oracle.terms.len()
        ),
        format!(
            "set-up: n={setup_repeats} (last: generate {:.2} s, oracle {:.2} s, queries {:.2} s)",
            inputs.setup_parts[0],
            inputs.setup_parts[1],
            inputs.setup_parts[2]
        ),
        format!(
            "builds: n={} (wall min {:.3} s, median {:.3} s, max {:.3} s)",
            walls.len(),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            median(&walls),
            walls.iter().copied().fold(0.0, f64::max)
        ),
        format!("opens: n={}", open_ms.len()),
        format!(
            "measured section: {:.1} s in {} rounds of build, open, query passes",
            started.elapsed().as_secs_f64(),
            walls.len()
        ),
        format!(
            "queries: n={} x {} passes; tail percentile reported: p{}",
            per_query.len(),
            passes.pass_seconds.len(),
            p99.p * 100.0
        ),
        format!(
            "host speed {speed:.3} (yardstick median {:.1} ms over {} samples, reference {:.0} ms), \
             during set-up {setup_speed:.3}; as measured: setup_s {:.3}, build_mb_s {build_mb_s:.3}, \
             query_p50_us {p50_us:.2}, query_p99_us {:.2}, query_qps {qps:.0}",
            median(yard.samples()) * 1e3,
            yard.samples().len(),
            REFERENCE_S * 1e3,
            inputs.setup_s,
            p99.value
        ),
    ];
    Ok(out)
}
