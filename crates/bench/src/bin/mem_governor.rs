//! Memory-governor benchmark: the cost of a budget.
//!
//! Measures the unconstrained build's memory high-water mark on a
//! Table III-style corpus, then re-runs the identical build at shrinking
//! fractions of that figure and records the budget-vs-throughput curve —
//! how much wall-clock the degradation ladder (credit-gate backpressure,
//! early run flushes, GPU-shard shedding) costs at each budget. Before any
//! timing is trusted, every constrained build's dictionary must be
//! byte-identical to the unconstrained one. Results land in a committed
//! JSON baseline (`BENCH_memory.json` at the repo root).
//!
//! Modes:
//!   mem_governor [--scale F] [--out PATH] [--reps N]   measure + write
//!   mem_governor --check PATH [--scale F] [--reps N]   regression gate:
//!       re-measures, normalizes for host speed via the unconstrained
//!       build's throughput, and fails (exit 1) if any budget point's
//!       throughput dropped more than 25% beyond that, if a point's
//!       refusal outcome flipped, or if a tight budget no longer reduces
//!       the measured high-water mark below the unconstrained one.
//!
//! The corpus is deliberately many-small-files (unlike the Table III
//! stand-ins): the credit gate admits a whole batch at a time, so a
//! corpus of three huge containers would measure nothing but the
//! always-admit-the-laggard rule. Small batches make the gate, the flush
//! watermark, and the shed rung all do real work.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::pipeline::{
    build_index, GovernorPolicy, IndexOutput, PipelineConfig, PipelineError,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One point on the budget-vs-throughput curve.
#[derive(Debug, Serialize, Deserialize)]
struct CurvePoint {
    /// Fraction of the unconstrained high-water mark (1.0 = exactly it).
    fraction: f64,
    budget_bytes: u64,
    /// The build refused with `MemoryBudgetExceeded` (tiny budgets on
    /// small corpora legitimately cannot fit the fixed dictionary
    /// tables). Refusal is content-deterministic, so it must reproduce.
    refused: bool,
    mb_s: f64,
    seconds: f64,
    high_water_bytes: u64,
    early_flushes: u64,
    gpu_sheds: u64,
    credit_waits: u64,
}

/// The committed baseline. No timestamps or host identifiers: the
/// `--check` gate normalizes across hosts via the unconstrained build's
/// throughput, and a timestamp would churn the diff on every regeneration.
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    scale: f64,
    repetitions: usize,
    corpus: String,
    input_bytes: u64,
    docs: u32,
    unconstrained: Unconstrained,
    curve: Vec<CurvePoint>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Unconstrained {
    high_water_bytes: u64,
    mb_s: f64,
    seconds: f64,
}

const FRACTIONS: [f64; 4] = [1.0, 0.75, 0.5, 0.25];

/// Many small containers (`--scale` multiplies the file count): batch
/// footprints stay well under the credit gate at every measured budget.
fn bench_spec(scale: f64) -> CollectionSpec {
    CollectionSpec {
        name: "governor-bench".into(),
        num_files: ((48.0 * scale).round() as usize).max(8),
        docs_per_file: 120,
        mean_doc_tokens: 300,
        vocab_size: 30_000,
        zipf_s: 1.0,
        html: false,
        seed: 0x9013,
        shift: None,
    }
}

fn cfg_with(governor: GovernorPolicy) -> PipelineConfig {
    let mut cfg = PipelineConfig::small(2, 1, 1);
    cfg.batches_per_run = 2;
    cfg.governor = governor;
    cfg
}

fn gauge(out: &IndexOutput, name: &str) -> u64 {
    out.report.stages.gauge(name) as u64
}

/// Best-of-`reps` build at one governor policy. Returns the fastest
/// output (all repetitions produce identical bytes).
fn timed_build(
    coll: &Arc<StoredCollection>,
    governor: GovernorPolicy,
    reps: usize,
) -> Result<IndexOutput, PipelineError> {
    let cfg = cfg_with(governor);
    let mut best: Option<IndexOutput> = None;
    for _ in 0..reps {
        let out = build_index(coll, &cfg)?;
        if best.as_ref().is_none_or(|b| out.report.total_seconds < b.report.total_seconds) {
            best = Some(out);
        }
    }
    Ok(best.expect("reps >= 1"))
}

fn measure(scale: f64, reps: usize) -> BenchReport {
    let spec = bench_spec(scale);
    let dir = std::env::temp_dir().join(format!("ii-bench-governor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coll =
        Arc::new(StoredCollection::generate(spec.clone(), &dir).expect("generate corpus"));

    eprintln!("[mem_governor] unconstrained build ...");
    let base = timed_build(&coll, GovernorPolicy::unlimited(), reps)
        .expect("unconstrained build cannot be refused");
    let high_water = gauge(&base, "governor.high_water_bytes");
    assert!(high_water > 0, "governor accounting must run even unlimited");

    let mut curve = Vec::new();
    for fraction in FRACTIONS {
        let budget = (high_water as f64 * fraction) as u64;
        eprintln!(
            "[mem_governor] budget {:.0}% of high water ({:.1} MB) ...",
            fraction * 100.0,
            budget as f64 / 1e6
        );
        match timed_build(&coll, GovernorPolicy::default().with_budget(budget), reps) {
            Ok(out) => {
                // Correctness before timing: a budget changes run
                // boundaries, never the dictionary.
                assert_eq!(
                    out.dict_bytes, base.dict_bytes,
                    "budget {budget} produced a different dictionary"
                );
                curve.push(CurvePoint {
                    fraction,
                    budget_bytes: budget,
                    refused: false,
                    mb_s: out.report.throughput_mb_s(),
                    seconds: out.report.total_seconds,
                    high_water_bytes: gauge(&out, "governor.high_water_bytes"),
                    early_flushes: out.report.stages.counter("governor.early_flushes"),
                    gpu_sheds: out.report.stages.counter("governor.gpu_sheds"),
                    credit_waits: out.report.stages.counter("governor.credit_waits"),
                });
            }
            Err(PipelineError::MemoryBudgetExceeded { .. }) => {
                curve.push(CurvePoint {
                    fraction,
                    budget_bytes: budget,
                    refused: true,
                    mb_s: 0.0,
                    seconds: 0.0,
                    high_water_bytes: 0,
                    early_flushes: 0,
                    gpu_sheds: 0,
                    credit_waits: 0,
                });
            }
            Err(e) => panic!("budget {budget}: unexpected error {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    BenchReport {
        scale,
        repetitions: reps,
        corpus: spec.name,
        input_bytes: base.report.uncompressed_bytes,
        docs: base.report.docs,
        unconstrained: Unconstrained {
            high_water_bytes: high_water,
            mb_s: base.report.throughput_mb_s(),
            seconds: base.report.total_seconds,
        },
        curve,
    }
}

fn print_report(report: &BenchReport) {
    println!(
        "{:<14} {:>12} {:>10} {:>12} {:>8} {:>7} {:>7}",
        "budget", "bytes", "MB/s", "high water", "eflush", "sheds", "waits"
    );
    ii_bench::rule(76);
    println!(
        "{:<14} {:>12} {:>10.1} {:>12} {:>8} {:>7} {:>7}",
        "unlimited",
        "-",
        report.unconstrained.mb_s,
        report.unconstrained.high_water_bytes,
        "-",
        "-",
        "-"
    );
    for p in &report.curve {
        if p.refused {
            println!(
                "{:<14} {:>12} {:>10} (typed MemoryBudgetExceeded refusal)",
                format!("{:.0}% of HW", p.fraction * 100.0),
                p.budget_bytes,
                "refused"
            );
        } else {
            println!(
                "{:<14} {:>12} {:>10.1} {:>12} {:>8} {:>7} {:>7}",
                format!("{:.0}% of HW", p.fraction * 100.0),
                p.budget_bytes,
                p.mb_s,
                p.high_water_bytes,
                p.early_flushes,
                p.gpu_sheds,
                p.credit_waits
            );
        }
    }
}

/// Tolerated fraction of (host-normalized) baseline throughput per curve
/// point. Of eight measurements on one host none put a point below 0.87
/// of the committed curve once divided by the unconstrained build's
/// throughput (budgeted builds jitter with scheduling: backpressure moves
/// the parsers' run-ahead), so the gate takes the 25 % of the hot-path
/// gates. It was 40 % while the unconstrained build was nine tenths SIMT
/// interpreter and the point after the GPU shed 3.4x faster than it; that
/// ratio is 1.5x now.
const CHECK_TOLERANCE: f64 = 0.75;

fn run_check(baseline_path: &str, scale_override: Option<f64>, reps: usize) -> i32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[mem_governor] cannot read baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let baseline: BenchReport = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("[mem_governor] cannot parse baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let scale = scale_override.unwrap_or(baseline.scale);
    let now = measure(scale, reps);
    print_report(&now);

    // The unconstrained build is the host-speed yardstick: same corpus,
    // same pipeline, no governor pressure. Its ratio to the baseline host
    // cancels out CPU-speed differences.
    let host_factor = now.unconstrained.mb_s / baseline.unconstrained.mb_s;
    println!("\n[check] host factor {host_factor:.2} vs baseline");
    let mut failures = 0;
    for (b, n) in baseline.curve.iter().zip(&now.curve) {
        if b.refused != n.refused {
            eprintln!(
                "[check] FAIL: budget point {:.0}% flipped refusal outcome \
                 (baseline refused={}, now refused={})",
                b.fraction * 100.0,
                b.refused,
                n.refused
            );
            failures += 1;
            continue;
        }
        if n.refused {
            continue;
        }
        // The footprint contract: any real budget must measurably shrink
        // the high-water mark vs the unconstrained build (the exact bound
        // is budget + one batch per parser, which only the build itself
        // can know — "strictly below unconstrained" is the host-portable
        // invariant).
        if n.fraction < 1.0 && n.high_water_bytes >= now.unconstrained.high_water_bytes {
            eprintln!(
                "[check] FAIL: budget point {:.0}% high water {} did not shrink below \
                 the unconstrained {}",
                n.fraction * 100.0,
                n.high_water_bytes,
                now.unconstrained.high_water_bytes
            );
            failures += 1;
        }
        let floor = b.mb_s * host_factor * CHECK_TOLERANCE;
        println!(
            "[check] {:.0}%: baseline {:.1} MB/s => floor {:.1}, measured {:.1} MB/s",
            b.fraction * 100.0,
            b.mb_s,
            floor,
            n.mb_s
        );
        if n.mb_s < floor {
            eprintln!(
                "[check] FAIL: budgeted throughput at {:.0}% regressed more than {:.0}%",
                b.fraction * 100.0,
                (1.0 - CHECK_TOLERANCE) * 100.0
            );
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("[check] {failures} budget point(s) failed");
        1
    } else {
        println!("[check] OK");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: Option<f64> = None;
    let mut out = "BENCH_memory.json".to_string();
    let mut check: Option<String> = None;
    let mut reps = 3usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Some(args[i].parse().expect("--scale takes a number"));
            }
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
                     usage: mem_governor [--scale F] [--out PATH] [--reps N] [--check PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(baseline) = check {
        std::process::exit(run_check(&baseline, scale, reps));
    }

    let report = measure(scale.unwrap_or(1.0), reps);
    print_report(&report);
    let mut json = serde_json::to_string_pretty(&report).expect("serialize report");
    json.push('\n');
    ii_core::store::write_file_durable(&ii_core::store::RealVfs, std::path::Path::new(&out), json.as_bytes())
        .expect("write baseline");
    println!("\n[mem_governor] baseline written to {out}");
}
