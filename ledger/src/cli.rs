//! Command line of the `ledger` binary.
//!
//! ```text
//! ledger [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!        [--scale full|tiny] [--agree]
//! ```
//!
//! Without `--workload` every workload runs. For each workload the metrics
//! are printed by name with their units, and the last line printed for it
//! is the JSON object the driver reads. `--agree` runs the whole set twice
//! on one seed and once on the next and checks the sets against the bounds.
//! `--benchmark-json` prints the catalogue as the root `BENCHMARK.json`.

use crate::build::{child_main, CHILD_FLAG};
use crate::catalogue::{benchmark_json, metric, MetricDef, END_TO_END, PER_LAYER};
use crate::replay::run_traced;
use crate::run::{run_end_to_end, Outcome};
use crate::setup::RunOptions;
use crate::workloads::{Scale, Workload, WORKLOADS};
use serde::Value;
use std::fs;
use std::path::{Path, PathBuf};

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = crate::catalogue::RUN_SECONDS as f64;

/// Scratch root, relative to the directory the benchmark is run from (the
/// checkout). Listed in the root `.gitignore`.
pub const WORK_ROOT: &str = ".ledger_work";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    agree: bool,
    benchmark_json: bool,
}

const USAGE: &str =
    "usage: ledger [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
                     [--scale full|tiny] [--agree] [--benchmark-json]";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        scale: Scale::Full,
        agree: false,
        benchmark_json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || {
                    WORKLOADS
                        .iter()
                        .map(|w| w.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                parsed
                    .workloads
                    .push(Workload::by_name(name).ok_or_else(|| {
                        format!("unknown workload {name:?} (known: {})", known())
                    })?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--scale" => {
                let v = value()?;
                parsed.scale = Scale::parse(v)
                    .ok_or_else(|| format!("--scale takes full or tiny, not {v:?}"))?;
            }
            "--agree" => parsed.agree = true,
            "--benchmark-json" => parsed.benchmark_json = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().collect();
    }
    Ok(parsed)
}

/// The driver's result object for one run.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = metric(name).map_or("", |m| m.unit);
            let entry = Value::Object(vec![
                ("value".into(), Value::F64(*value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let v = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&v).expect("result serializes")
}

fn print_outcome(w: &Workload, args: &Args, outcome: &Outcome) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "== {} ({}, seed {}, {} s, nproc {nproc}) ==",
        w.name,
        if args.traced {
            "per-layer"
        } else {
            "end-to-end"
        },
        args.seed,
        args.seconds
    );
    for note in &outcome.notes {
        println!("   {note}");
    }
    for (name, value) in &outcome.metrics {
        let def = metric(name).expect("emitted metrics are in the catalogue");
        let bound = if def.bound > 0.0 {
            format!(", bound {:.0}%", def.bound * 100.0)
        } else {
            String::new()
        };
        println!(
            "   {name:<36} {value:>16.4} {:<8} ({} is better{bound})",
            def.unit,
            def.better.as_str()
        );
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "   {:<36} {share:>16.4} {:<8} ({} failed of {} attempted)",
        "fail_share", "ratio", outcome.failed, outcome.attempted
    );
    for p in &outcome.problems {
        println!("   FAILED: {p}");
    }
}

/// Run one workload in a scratch directory of its own and clean it up.
fn run_one(w: &'static Workload, args: &Args, seed: u64, exe: &Path) -> Result<Outcome, String> {
    let root = PathBuf::from(WORK_ROOT);
    let work = root.join(format!("run-{}-{}", std::process::id(), w.name));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let opts = RunOptions {
        workload: w,
        seed,
        seconds: args.seconds,
        scale: args.scale,
        exe: exe.to_path_buf(),
        work: work.clone(),
    };
    let outcome = if args.traced {
        run_traced(&opts, &root.join(format!("trace-{}.json", w.name)))
    } else {
        run_end_to_end(&opts)
    };
    let _ = fs::remove_dir_all(&work);
    let outcome = outcome?;
    let expected: &[MetricDef] = if args.traced { PER_LAYER } else { END_TO_END };
    for def in expected {
        if !outcome.metrics.iter().any(|(n, _)| *n == def.name) {
            return Err(format!("{}: metric {} was not measured", w.name, def.name));
        }
    }
    Ok(outcome)
}

fn value_of(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// `--agree`: sets A and B on one seed, set C on the next. Fails when A and
/// B differ on any end-to-end metric by more than its bound.
fn agree(args: &Args, exe: &Path) -> Result<bool, String> {
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for (label, seed) in [("A", args.seed), ("B", args.seed), ("C", args.seed + 1)] {
        let mut set = Vec::new();
        for &w in &args.workloads {
            eprintln!("agree: set {label}, seed {seed}, {}", w.name);
            set.push(run_one(w, args, seed, exe)?);
        }
        sets.push(set);
    }
    let mut ok = sets.iter().flatten().all(|o| o.failed == 0);
    println!(
        "{:<14} {:<28} {:>12} {:>12} {:>8} {:>7} {:>12} {:>8}",
        "workload", "metric", "A", "B", "|A-B|/A", "bound", "C (seed+1)", "|A-C|/A"
    );
    for (i, w) in args.workloads.iter().enumerate() {
        for def in END_TO_END {
            let [a, b, c] = [0, 1, 2].map(|s| value_of(&sets[s][i], def.name));
            let (ab, ac) = ((a - b).abs() / a.abs(), (a - c).abs() / a.abs());
            let verdict = if ab <= def.bound {
                ""
            } else {
                "  <-- exceeds bound"
            };
            ok &= ab <= def.bound;
            println!(
                "{:<14} {:<28} {a:>12.4} {b:>12.4} {:>7.2}% {:>6.0}% {c:>12.4} {:>7.2}%{verdict}",
                w.name,
                def.name,
                ab * 100.0,
                def.bound * 100.0,
                ac * 100.0
            );
        }
    }
    println!(
        "agree: {}",
        if ok {
            "sets A and B agree within every bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some(CHILD_FLAG) {
        return child_main(&args[1..]);
    }
    let parsed = match parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ledger: {e}");
            return 2;
        }
    };
    if parsed.benchmark_json {
        print!("{}", benchmark_json());
        return 0;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ledger: cannot find my own executable: {e}");
            return 2;
        }
    };
    if parsed.agree {
        return match agree(&parsed, &exe) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("ledger: {e}");
                1
            }
        };
    }
    let mut code = 0;
    for &w in &parsed.workloads {
        match run_one(w, &parsed, parsed.seed, &exe) {
            Ok(outcome) => {
                print_outcome(w, &parsed, &outcome);
                println!("{}", result_json(&outcome));
                if outcome.failed > 0 {
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("ledger: {}: {e}", w.name);
                return 1;
            }
        }
    }
    code
}
