//! Codec frontier benchmark: every postings codec (varbyte, BP128,
//! PForDelta, and the per-length-class Auto policy that picks among them)
//! measured on seeded synthetic lists in the three length classes the
//! policy distinguishes — short (< 128 postings), medium, long (>= 4096).
//!
//! For each (class, codec) pair it reports bytes per posting (skip table
//! included — that is what hits disk) and encode/decode throughput in
//! millions of postings per second, verifying an exact decode roundtrip on
//! every list before trusting any timing. Results go to a committed JSON
//! baseline (`BENCH_codecs.json` at the repo root).
//!
//! Modes:
//!   codec_frontier [--out PATH] [--reps N]    measure and write baseline
//!   codec_frontier --check PATH [--reps N]    regression gate:
//!       (a) the Auto policy must still strictly dominate varbyte on the
//!           long class — >= 1.3x decode throughput at equal-or-better
//!           bytes per posting — as the ROADMAP acceptance requires, and
//!       (b) host-normalized per-class policy decode throughput must stay
//!           within 25% of the committed baseline (varbyte decode on the
//!           same class is the host-speed yardstick: it runs the same
//!           block layout with none of the SIMD-friendly work under test).

use ii_core::corpus::DocId;
use ii_core::postings::{block, Codec, Posting};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One codec's numbers on one length class.
#[derive(Debug, Serialize, Deserialize)]
struct CodecResult {
    codec: String,
    /// Encoded bytes (skip table + blocks) per posting.
    bytes_per_posting: f64,
    /// Millions of postings encoded per second (best of reps).
    encode_mpps: f64,
    /// Millions of postings decoded per second (best of reps).
    decode_mpps: f64,
    /// Decode throughput relative to varbyte on the same class.
    decode_speedup_vs_varbyte: f64,
    /// Encoded size relative to varbyte on the same class (< 1 = smaller).
    size_ratio_vs_varbyte: f64,
}

/// One length class: the lists it was measured on plus per-codec results.
#[derive(Debug, Serialize, Deserialize)]
struct ClassResult {
    class: String,
    lists: usize,
    postings: u64,
    codecs: Vec<CodecResult>,
}

/// The committed baseline document. No timestamps or host identifiers:
/// `--check` normalizes across hosts via the varbyte yardstick, and a
/// timestamp would churn the diff on every regeneration.
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    seed: u64,
    repetitions: usize,
    classes: Vec<ClassResult>,
}

/// Deterministic xorshift64* — the bench must not depend on host RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A seeded postings list of `len` entries. Gaps are mostly dense
/// (uniform in [1, 2*mean_gap)) with occasional kilo-document jumps —
/// the outliers that force PForDelta exceptions and stretch the BP128
/// per-block bit width, i.e. the realistic adversarial shape.
fn synth_list(rng: &mut Rng, len: usize, mean_gap: u64) -> Vec<Posting> {
    let mut doc = 0u64;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let mut gap = 1 + rng.below(2 * mean_gap);
        if rng.below(1000) < 4 {
            gap += 1000 + rng.below(50_000);
        }
        doc += gap;
        let tf = if rng.below(100) < 70 { 1 } else { 1 + rng.below(40) as u32 };
        out.push(Posting { doc: DocId(doc as u32), tf });
    }
    out
}

/// The three length classes of the Auto policy, with list shapes chosen to
/// straddle each class's boundaries. Gaps model a fixed collection of
/// ~16M documents: a list of df postings has mean gap ~universe/df, so
/// long lists are denser than short ones but still far from gap 1 — the
/// regime real inverted files occupy (and where varbyte's 1-byte
/// best-case does not apply universally).
fn classes(seed: u64) -> Vec<(String, Vec<Vec<Posting>>)> {
    let mut rng = Rng(seed | 1);
    type Shapes = &'static [(usize, u64, usize)];
    let shapes: [(&str, Shapes); 3] = [
        // (len, mean_gap ~ 2^24 / len, copies)
        ("short", &[(4, 4_000_000, 40), (24, 700_000, 30), (100, 170_000, 20), (127, 130_000, 20)]),
        ("medium", &[(128, 130_000, 12), (512, 33_000, 10), (2048, 8_200, 8), (4095, 4_100, 6)]),
        ("long", &[(4096, 4_100, 6), (16384, 1_000, 5), (65536, 256, 3)]),
    ];
    shapes
        .iter()
        .map(|(name, shapes)| {
            let lists = shapes
                .iter()
                .flat_map(|&(len, gap, copies)| {
                    (0..copies).map(|_| synth_list(&mut rng, len, gap)).collect::<Vec<_>>()
                })
                .collect();
            (name.to_string(), lists)
        })
        .collect()
}

/// Time `reps` full passes, returning the best (minimum) wall seconds.
fn best_of<F: FnMut()>(reps: usize, mut pass: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        pass();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn codec_name(c: Codec) -> String {
    match c {
        Codec::Auto => "policy".into(),
        c => format!("{c:?}").to_lowercase(),
    }
}

fn measure_class(name: &str, lists: &[Vec<Posting>], reps: usize) -> ClassResult {
    let postings: u64 = lists.iter().map(|l| l.len() as u64).sum();
    let mpps = |s: f64| postings as f64 / 1e6 / s;
    let mut codecs = Vec::new();
    let mut varbyte: Option<(f64, f64)> = None; // (bytes_per_posting, decode_mpps)
    for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto] {
        // Correctness before timing: every list must roundtrip exactly.
        let encoded: Vec<block::EncodedList> =
            lists.iter().map(|l| block::encode_list(l, codec)).collect();
        for (l, e) in lists.iter().zip(&encoded) {
            let back = block::decode_list(&e.bytes, l.len(), codec)
                .unwrap_or_else(|err| panic!("{codec:?} decode failed on {name}: {err}"));
            assert_eq!(&back, l, "{codec:?} roundtrip diverged on {name}");
        }
        let bytes: u64 = encoded.iter().map(|e| e.bytes.len() as u64).sum();

        let encode_s = best_of(reps, || {
            for l in lists {
                std::hint::black_box(block::encode_list(l, codec));
            }
        });
        let decode_s = best_of(reps, || {
            for (l, e) in lists.iter().zip(&encoded) {
                std::hint::black_box(
                    block::decode_list(&e.bytes, l.len(), codec).expect("decode"),
                );
            }
        });

        let bpp = bytes as f64 / postings as f64;
        let decode_mpps = mpps(decode_s);
        if codec == Codec::VarByte {
            varbyte = Some((bpp, decode_mpps));
        }
        let (vb_bpp, vb_decode) = varbyte.expect("varbyte measured first");
        codecs.push(CodecResult {
            codec: codec_name(codec),
            bytes_per_posting: bpp,
            encode_mpps: mpps(encode_s),
            decode_mpps,
            decode_speedup_vs_varbyte: decode_mpps / vb_decode,
            size_ratio_vs_varbyte: bpp / vb_bpp,
        });
    }
    ClassResult { class: name.into(), lists: lists.len(), postings, codecs }
}

fn measure(seed: u64, reps: usize) -> BenchReport {
    let mut out = Vec::new();
    for (name, lists) in classes(seed) {
        eprintln!("[codec_frontier] measuring {name} class ...");
        out.push(measure_class(&name, &lists, reps));
    }
    BenchReport { seed, repetitions: reps, classes: out }
}

fn print_report(report: &BenchReport) {
    for c in &report.classes {
        println!(
            "\n{} class: {} lists, {} postings",
            c.class, c.lists, c.postings
        );
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>10} {:>10}",
            "codec", "bytes/pst", "enc Mp/s", "dec Mp/s", "dec vs vb", "size vs vb"
        );
        ii_bench::rule(70);
        for r in &c.codecs {
            println!(
                "{:<10} {:>10.3} {:>12.1} {:>12.1} {:>9.2}x {:>9.2}x",
                r.codec,
                r.bytes_per_posting,
                r.encode_mpps,
                r.decode_mpps,
                r.decode_speedup_vs_varbyte,
                r.size_ratio_vs_varbyte
            );
        }
    }
}

fn codec_of<'a>(report: &'a BenchReport, class: &str, codec: &str) -> Option<&'a CodecResult> {
    report
        .classes
        .iter()
        .find(|c| c.class == class)
        .and_then(|c| c.codecs.iter().find(|r| r.codec == codec))
}

/// Tolerated fraction of (host-normalized) baseline decode throughput.
const CHECK_TOLERANCE: f64 = 0.75;

/// The acceptance bar for the per-length-class policy: on the long class
/// it must beat varbyte by this factor on decode while never
/// spending more bytes.
const LONG_CLASS_MIN_SPEEDUP: f64 = 1.3;

fn run_check(baseline_path: &str, reps: usize) -> i32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[codec_frontier] cannot read baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let baseline: BenchReport = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("[codec_frontier] cannot parse baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let now = measure(baseline.seed, reps);
    print_report(&now);

    let mut failed = false;
    // (a) Absolute dominance on the long class, re-measured on this host.
    let policy = codec_of(&now, "long", "policy").expect("long/policy measured");
    println!(
        "\n[check] long-class policy vs varbyte: {:.2}x decode (need >= {:.1}), \
         {:.2}x size (need <= 1.00)",
        policy.decode_speedup_vs_varbyte, LONG_CLASS_MIN_SPEEDUP, policy.size_ratio_vs_varbyte
    );
    if policy.decode_speedup_vs_varbyte < LONG_CLASS_MIN_SPEEDUP
        || policy.size_ratio_vs_varbyte > 1.0
    {
        eprintln!("[check] FAIL: the length-class policy no longer dominates varbyte");
        failed = true;
    }
    // (b) Host-normalized regression gate per class: varbyte decode on the
    // same lists cancels CPU-speed differences between hosts.
    for class in ["short", "medium", "long"] {
        let (Some(b_vb), Some(b_pol), Some(n_vb), Some(n_pol)) = (
            codec_of(&baseline, class, "varbyte"),
            codec_of(&baseline, class, "policy"),
            codec_of(&now, class, "varbyte"),
            codec_of(&now, class, "policy"),
        ) else {
            eprintln!("[check] FAIL: baseline or measurement missing class {class}");
            failed = true;
            continue;
        };
        let host_factor = n_vb.decode_mpps / b_vb.decode_mpps;
        let floor = b_pol.decode_mpps * host_factor * CHECK_TOLERANCE;
        println!(
            "[check] {class}: baseline policy {:.1} Mp/s x host factor {:.2} => floor {:.1}, \
             measured {:.1} Mp/s",
            b_pol.decode_mpps, host_factor, floor, n_pol.decode_mpps
        );
        if n_pol.decode_mpps < floor {
            eprintln!(
                "[check] FAIL: {class}-class policy decode regressed more than {:.0}% vs \
                 the committed baseline",
                (1.0 - CHECK_TOLERANCE) * 100.0
            );
            failed = true;
        }
    }
    if failed {
        1
    } else {
        println!("[check] OK");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_codecs.json".to_string();
    let mut check: Option<String> = None;
    let mut reps = 5usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args[i].clone();
            }
            "--check" => {
                i += 1;
                check = Some(args[i].clone());
            }
            "--reps" => {
                i += 1;
                reps = args[i].parse().expect("--reps takes an integer");
            }
            other => {
                eprintln!(
                    "unknown argument {other}\n\
                     usage: codec_frontier [--out PATH] [--reps N] [--check PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(baseline) = check {
        std::process::exit(run_check(&baseline, reps));
    }

    let report = measure(0x00DE_CF0E, reps);
    print_report(&report);
    let mut json = serde_json::to_string_pretty(&report).expect("serialize report");
    json.push('\n');
    ii_core::store::write_file_durable(&ii_core::store::RealVfs, std::path::Path::new(&out), json.as_bytes())
        .expect("write baseline");
    println!("\n[codec_frontier] baseline written to {out}");
}
