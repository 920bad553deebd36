//! The five workloads: what each one feeds the system and why it exists.
//!
//! Every workload runs the whole life of an index — durable builds in child
//! processes, then `Index::open`, then a closed-loop query pass on the
//! committed directory — so every end-to-end metric exists on every
//! workload. They differ in the collection, the indexer mix, the query
//! shape and where the run's seconds go.

use ii_core::corpus::{CollectionSpec, DistributionShift};
use ii_core::indexer::GpuIndexerConfig;
use ii_core::pipeline::PipelineConfig;

/// How a query's terms are drawn from a seeded document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryShape {
    /// Terms with long, multi-block postings lists (df >= [`HEAD_DF_MIN`]).
    Head,
    /// The document's rarest terms (df < [`TAIL_DF_MAX`]).
    Tail,
}

/// Shortest list a head query draws: more than two 128-document blocks.
pub const HEAD_DF_MIN: usize = 256;
/// Longest list a tail query draws: a single short block.
pub const TAIL_DF_MAX: usize = 128;

/// Input sizes: the frozen benchmark sizes, or a few documents for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` was calibrated with.
    Full,
    /// A few hundred documents: smoke tests only, numbers mean nothing.
    Tiny,
}

impl Scale {
    /// The spelling `--scale` and the build child's arguments use.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Full, Scale::Tiny]
            .into_iter()
            .find(|sc| sc.as_str() == s)
    }
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Simulated GPUs beside the one CPU indexer.
    pub gpus: usize,
    /// How query terms are drawn.
    pub shape: QueryShape,
    /// Share of the run's seconds spent on timed builds; the rest goes to
    /// the query passes.
    pub build_share: f64,
    /// Queries in the set.
    queries: usize,
    collection: fn() -> CollectionSpec,
}

/// ClueWeb09-like: the preset's shape (HTML pages of ~650 tokens, 150 k
/// vocabulary, Zipf 1.0, Wikipedia-flavoured shift over the last fifth)
/// cut into 12 files, so the default checkpoint-every-8-runs fires once
/// mid-build as it does on a collection a user would build.
fn web() -> CollectionSpec {
    CollectionSpec {
        name: "ledger-web".into(),
        num_files: 12,
        docs_per_file: 200,
        mean_doc_tokens: 650,
        vocab_size: 150_000,
        zipf_s: 1.0,
        html: true,
        seed: 0,
        shift: Some(DistributionShift {
            at_file_fraction: 0.8,
            vocab_rotate: 97_001,
            doc_len_scale: 0.6,
        }),
    }
}

/// Flat vocabulary: plain text, 300 k vocabulary at Zipf 0.6 and short
/// documents, so distinct terms, short lists and run-table bytes dominate.
fn tail() -> CollectionSpec {
    CollectionSpec {
        name: "ledger-tail".into(),
        num_files: 8,
        docs_per_file: 800,
        mean_doc_tokens: 120,
        vocab_size: 300_000,
        zipf_s: 0.6,
        html: false,
        seed: 0,
        shift: None,
    }
}

/// Library-of-Congress-like (the preset's shape), small because the host
/// interprets every simulated GPU instruction.
fn congress() -> CollectionSpec {
    CollectionSpec {
        name: "ledger-congress".into(),
        num_files: 8,
        docs_per_file: 150,
        mean_doc_tokens: 580,
        vocab_size: 50_000,
        zipf_s: 1.05,
        html: true,
        seed: 0,
        shift: None,
    }
}

/// Many short plain-text documents over a skewed 60 k vocabulary: the only
/// way to get postings lists thousands of documents long in ~10 MB.
fn longlists() -> CollectionSpec {
    CollectionSpec {
        name: "ledger-longlists".into(),
        num_files: 16,
        docs_per_file: 800,
        mean_doc_tokens: 120,
        vocab_size: 60_000,
        zipf_s: 1.0,
        html: false,
        seed: 0,
        shift: None,
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "build-web",
        why: "The paper's workload: HTML strip, tokenise and stem dominate the build (text, corpus); dict does little because the string cache hits.",
        gpus: 0,
        shape: QueryShape::Head,
        build_share: 0.7,
        queries: 2_000,
        collection: web,
    },
    Workload {
        name: "build-tail",
        why: "Flat 300k vocabulary of short documents: B-tree inserts, many short lists, run-table and commit bytes dominate (dict, postings, indexer, store).",
        gpus: 0,
        shape: QueryShape::Tail,
        build_share: 0.7,
        queries: 12_000,
        collection: tail,
    },
    Workload {
        name: "build-hetero",
        why: "The paper's CPU+GPU split: host wall is mostly gpusim interpreter time, so parser or dict gains should not move build_mb_s here.",
        gpus: 1,
        shape: QueryShape::Head,
        build_share: 0.85,
        queries: 1_000,
        collection: congress,
    },
    Workload {
        name: "query-head",
        why: "Long multi-block lists: block decode, skip tables and the OR accumulator set query latency; decode-side changes should show here only.",
        gpus: 0,
        shape: QueryShape::Head,
        build_share: 0.5,
        queries: 6_000,
        collection: longlists,
    },
    Workload {
        name: "query-tail",
        why: "Rare single-block terms on the run-table-heavy index: normalisation, dictionary lookup and cursor set-up set latency; open is at its worst.",
        gpus: 0,
        shape: QueryShape::Tail,
        build_share: 0.5,
        queries: 12_000,
        collection: tail,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The collection to generate for `--seed`. Workloads that share a
    /// collection shape still get collections of their own.
    pub fn collection(&self, scale: Scale, seed: u64) -> CollectionSpec {
        let mut spec = (self.collection)();
        if scale == Scale::Tiny {
            spec.num_files = 3;
            spec.docs_per_file = 40;
            spec.mean_doc_tokens = spec.mean_doc_tokens.min(60);
            spec.vocab_size = 4_000;
        }
        let ordinal = WORKLOADS
            .iter()
            .position(|w| w.name == self.name)
            .unwrap_or(0) as u64;
        spec.seed = mix(seed, ordinal);
        spec
    }

    /// Queries in the set at this scale.
    pub fn queries(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.queries,
            Scale::Tiny => 60,
        }
    }

    /// The pipeline configuration of the program under test: one parser and
    /// one CPU indexer (the host has two cores, so the paper's 6/2/2 would
    /// measure the scheduler), plus this workload's GPUs; everything else
    /// is the product default, as `ii build` would run it.
    pub fn pipeline_config(&self, scale: Scale) -> PipelineConfig {
        pipeline_config(self.gpus, scale)
    }
}

/// See [`Workload::pipeline_config`]; the child process rebuilds the same
/// configuration from `gpus` and the scale alone.
pub fn pipeline_config(gpus: usize, scale: Scale) -> PipelineConfig {
    let mut cfg = PipelineConfig {
        num_parsers: 1,
        num_cpu_indexers: 1,
        num_gpus: gpus,
        ..Default::default()
    };
    if scale == Scale::Tiny {
        // The default device reserves gigabytes; a smoke test needs none.
        cfg.gpu_config = GpuIndexerConfig::small();
    }
    cfg
}

/// Runs between checkpoints of a durable build: the `ii build` default.
pub const CHECKPOINT_EVERY: usize = 8;

/// SplitMix64 step: derive independent seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::valid_name;

    #[test]
    fn workload_names_and_reasons_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(w.build_share > 0.0 && w.build_share < 1.0);
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
        }
    }

    #[test]
    fn seeds_derive_from_the_run_seed() {
        let a = WORKLOADS[1].collection(Scale::Full, 7);
        let b = WORKLOADS[4].collection(Scale::Full, 7);
        assert_ne!(
            a.seed, b.seed,
            "workloads sharing a shape get their own collection"
        );
        assert_eq!(a.seed, WORKLOADS[1].collection(Scale::Full, 7).seed);
        assert_ne!(a.seed, WORKLOADS[1].collection(Scale::Full, 8).seed);
    }
}
