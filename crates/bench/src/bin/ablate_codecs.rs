//! Ablation — postings compression codecs (§II background).
//!
//! The paper compresses postings with variable-byte encoding and cites
//! γ and Golomb as the classic alternatives. This harness builds a real
//! index and re-encodes every postings list with each code in the block
//! layout the product writes (a 12-byte skip entry per 128-posting block
//! included), reporting bytes per posting and encode/decode wall time —
//! the trade-off that justifies the paper's variable-byte choice (speed at
//! modest size cost). γ and Golomb are not codecs of the index: their bit
//! codes live in `ii_bench::bits`, for this ablation only.

use ii_bench::bits::{self, golomb_parameter, BitCode};
use ii_core::corpus::CollectionSpec;
use ii_core::pipeline::{build_index, PipelineConfig};
use ii_core::postings::block;
use ii_core::postings::{Codec, Posting};
use std::time::Instant;

/// A list in one code of the comparison.
enum Code {
    VarByte,
    Bits(BitCode),
}

impl Code {
    fn encode(&self, l: &[Posting]) -> Vec<u8> {
        match self {
            Code::VarByte => block::encode_list(l, Codec::VarByte).bytes,
            Code::Bits(code) => bits::encode_list(l, *code),
        }
    }

    fn decoded_len(&self, buf: &[u8], n: usize) -> usize {
        match self {
            Code::VarByte => block::decode_list(buf, n, Codec::VarByte).expect("roundtrip").len(),
            Code::Bits(code) => bits::decode_list(buf, n, *code).expect("roundtrip").len(),
        }
    }
}

fn main() {
    let mut spec = CollectionSpec::wikipedia_like(0.4);
    spec.docs_per_file = 300;
    let coll = ii_bench::stored_collection("ablate-codecs", spec);
    let out = build_index(&coll, &PipelineConfig::small(2, 1, 0)).expect("index build");
    let total_docs = out.report.docs as u64;

    // Materialize all postings lists once.
    let lists: Vec<Vec<Posting>> = out
        .dictionary
        .entries()
        .map(|e| out.run_sets[&e.indexer].fetch(e.postings).expect("built runs decode"))
        .map(|l| l.postings().to_vec())
        .collect();
    let postings: u64 = lists.iter().map(|l| l.len() as u64).sum();
    println!(
        "ABLATION: postings codecs over a real index ({} terms, {} postings)\n",
        lists.len(),
        postings
    );
    println!(
        "{:<24}{:>16}{:>16}{:>16}",
        "codec", "bytes/posting", "encode Mp/s", "decode Mp/s"
    );
    ii_bench::rule(72);
    for name in ["VarByte (paper)", "Elias gamma", "Golomb (per-list b)"] {
        let code_for = |l: &[Posting]| match name {
            "Elias gamma" => Code::Bits(BitCode::Gamma),
            "Golomb (per-list b)" => {
                Code::Bits(BitCode::Golomb(golomb_parameter(total_docs, l.len() as u64)))
            }
            _ => Code::VarByte,
        };
        let t0 = Instant::now();
        let encoded: Vec<(Vec<u8>, Code, usize)> = lists
            .iter()
            .map(|l| {
                let c = code_for(l);
                (c.encode(l), c, l.len())
            })
            .collect();
        let enc_s = t0.elapsed().as_secs_f64();
        let bytes: u64 = encoded.iter().map(|(b, _, _)| b.len() as u64).sum();
        let t0 = Instant::now();
        let mut decoded_postings = 0u64;
        for (buf, c, n) in &encoded {
            decoded_postings += c.decoded_len(buf, *n) as u64;
        }
        let dec_s = t0.elapsed().as_secs_f64();
        assert_eq!(decoded_postings, postings);
        println!(
            "{:<24}{:>16.3}{:>16.2}{:>16.2}",
            name,
            bytes as f64 / postings as f64,
            postings as f64 / 1e6 / enc_s,
            postings as f64 / 1e6 / dec_s
        );
    }
    ii_bench::rule(72);
    println!("\nexpected shape: bit-level codecs (gamma/Golomb) compress tighter, byte-level");
    println!("variable-byte en/decodes fastest — the classic IR trade-off the paper resolves");
    println!("in favour of variable-byte for its post-processing stage.");
}
