//! The metric and workload catalogue: every name the binary can emit.
//!
//! `BENCHMARK.json` at the repo root repeats these names for the driver; a
//! test keeps the two in agreement in both directions. Definitions and the
//! which-metric-moves-which table live in `README.md` beside this crate.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (rates).
    Higher,
    /// Smaller is better (times, sizes).
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the ledger emits.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name; per-layer metrics are `<crate>.<what>`.
    pub name: &'static str,
    /// Unit (MB = 10^6 bytes of uncompressed collection).
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change is rejected; 0 for per-layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload emits every one of them.
///
/// The bounds on the timing metrics are the widest the driver allows. On
/// this two-core sandbox a run's timings move by 5–15 % between runs of
/// the same code (a fixed CPU loop does too), and a bound must stay above
/// that spread or the gate rejects unchanged code. Sizes repeat, so their
/// bounds are tight.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("build_mb_s", "MB/s", Higher, 0.25),
    e2e("build_peak_rss_mb", "MB", Lower, 0.10),
    e2e("index_bytes_per_input_byte", "ratio", Lower, 0.02),
    e2e("open_ms", "ms", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("query_qps", "1/s", Higher, 0.25),
];

/// Single-layer metrics from the staged replay (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    layer("corpus.read_s", "s", Lower),
    layer("corpus.decompress_s", "s", Lower),
    layer("corpus.decompress_mb_s", "MB/s", Higher),
    layer("corpus.container_s", "s", Lower),
    layer("corpus.compressed_share", "ratio", Lower),
    layer("text.parse_s", "s", Lower),
    layer("text.parse_mb_s", "MB/s", Higher),
    layer("text.parse_mtok_s", "Mtok/s", Higher),
    layer("text.kept_token_share", "ratio", Lower),
    layer("dict.insert_s", "s", Lower),
    layer("dict.insert_mtok_s", "Mtok/s", Higher),
    layer("dict.new_term_share", "ratio", Lower),
    layer("dict.combine_s", "s", Lower),
    layer("dict.write_s", "s", Lower),
    layer("dict.bytes_per_term", "B", Lower),
    layer("dict.read_s", "s", Lower),
    layer("dict.lookup_ns", "ns", Lower),
    layer("indexer.index_s", "s", Lower),
    layer("indexer.index_mtok_s", "Mtok/s", Higher),
    layer("indexer.flush_s", "s", Lower),
    layer("indexer.gpu_token_share", "ratio", Higher),
    layer("indexer.gpu_utilization", "ratio", Higher),
    layer("indexer.worker_deaths", "count", Lower),
    layer("gpusim.device_s", "sim_s", Lower),
    layer("gpusim.transfer_s", "sim_s", Lower),
    layer("gpusim.instructions", "count", Lower),
    layer("gpusim.global_transactions", "count", Lower),
    layer("gpusim.bank_conflict_cycles", "count", Lower),
    layer("gpusim.host_ns_per_instruction", "ns", Lower),
    layer("gpusim.host_share", "ratio", Lower),
    layer("postings.encode_mpost_s", "Mpost/s", Higher),
    layer("postings.payload_bytes_per_posting", "B", Lower),
    layer("postings.table_share", "ratio", Lower),
    layer("postings.serialize_s", "s", Lower),
    layer("postings.parse_runs_s", "s", Lower),
    layer("postings.cursor_setup_ns", "ns", Lower),
    layer("postings.scan_mpost_s", "Mpost/s", Higher),
    layer("postings.scan_share", "ratio", Lower),
    layer("postings.blocks_decoded_share", "ratio", Lower),
    layer("store.commit_s", "s", Lower),
    layer("store.bytes_written", "B", Lower),
    layer("store.write_amplification", "ratio", Lower),
    layer("store.open_verify_s", "s", Lower),
    layer("pipeline.sample_s", "s", Lower),
    layer("pipeline.mem_build_s", "s", Lower),
    layer("pipeline.durable_build_s", "s", Lower),
    layer("pipeline.durable_overhead_share", "ratio", Lower),
    layer("pipeline.staged_sum_s", "s", Lower),
    layer("pipeline.coordination_ratio", "ratio", Lower),
    layer("pipeline.replay_coverage", "ratio", Higher),
    layer("pipeline.parser_queue_wait_s", "s", Lower),
    layer("pipeline.indexer_queue_wait_s", "s", Lower),
    layer("pipeline.governor_high_water_mb", "MB", Lower),
    layer("pipeline.rss_per_governed_byte", "ratio", Lower),
    layer("core.open_s", "s", Lower),
    layer("core.and_p50_us", "us", Lower),
    layer("core.or_p50_us", "us", Lower),
    layer("core.bool_p50_us", "us", Lower),
    layer("core.and_p99_us", "us", Lower),
    layer("core.or_p99_us", "us", Lower),
    layer("core.hits_per_query", "count", Lower),
    layer("core.postings_scanned_per_query", "count", Lower),
    layer("obs.trace_overhead_share", "ratio", Lower),
];

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "ledger/Cargo.toml",
    "--bin",
    "ledger",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["ledger"];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// The root `BENCHMARK.json`, rendered from this catalogue.
pub fn benchmark_json() -> String {
    use crate::workloads::WORKLOADS;
    use serde::Value;
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let object = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let entry = |m: &MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", Value::Str(m.name.into())),
            ("unit", Value::Str(m.unit.into())),
            ("better", Value::Str(m.better.as_str().into())),
        ];
        if bounded {
            pairs.push(("bound", Value::F64(m.bound)));
        }
        object(pairs)
    };
    let doc = object(vec![
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        object(vec![
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(|m| entry(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|m| entry(m, false)).collect()),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("catalogue serializes");
    text.push('\n');
    text
}

/// Look a metric up in both tables.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// A name the driver accepts: starts with a letter or digit, then at most
/// 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    first.is_ascii_alphanumeric()
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit the driver accepts: at most 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn name_validator() {
        for ok in ["setup_s", "build-web", "core.and_p99_us", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "slash/es",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("MB/s") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("seconds per thing"));
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
