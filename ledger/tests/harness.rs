//! Tests of the harness itself: the catalogue agrees with `BENCHMARK.json`,
//! the binary emits exactly the catalogue, the staged replay is the same job
//! as `build_index`, and the output checks catch a wrong answer.

use ii_core::corpus::{CollectionSpec, StoredCollection};
use ii_core::pipeline::build_index;
use ii_core::Index;
use ii_ledger::build::{build_here, verify_against_oracle, BuildJob};
use ii_ledger::catalogue::{benchmark_json, valid_name, valid_unit, END_TO_END, PER_LAYER};
use ii_ledger::oracle::{make_queries, Oracle};
use ii_ledger::replay::{staged_build, BUILD_ROOT};
use ii_ledger::run::{check_queries, Outcome};
use ii_ledger::trace::Recorder;
use ii_ledger::workloads::{pipeline_config, QueryShape, Scale, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_collection(dir: &Path, seed: u64) -> StoredCollection {
    let mut spec = CollectionSpec::tiny(seed);
    spec.num_files = 4;
    spec.docs_per_file = 30;
    StoredCollection::generate(spec, dir).unwrap()
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    match v.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|i| match i {
                Value::Str(s) => s.clone(),
                other => panic!("{key}: not a string: {other:?}"),
            })
            .collect(),
        other => panic!("{key}: not an array: {other:?}"),
    }
}

fn field<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: not a string: {other:?}"),
    }
}

fn entries<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: not an array: {other:?}"),
    }
}

/// `BENCHMARK.json` is the catalogue, rendered: same names, units,
/// directions, bounds, workloads and reasons, in both directions.
#[test]
fn benchmark_json_agrees_with_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let disk: Value = serde_json::from_str(&on_disk).unwrap();
    let rendered: Value = serde_json::from_str(&benchmark_json()).unwrap();
    assert_eq!(
        disk, rendered,
        "regenerate with `ledger --benchmark-json > BENCHMARK.json`"
    );

    // And the contract's own limits on that file.
    assert!(on_disk.len() <= 64 * 1024);
    let keys: Vec<&str> = match &disk {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    };
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = strings(&disk, "command");
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains(".."))
    );
    assert_eq!(strings(&disk, "paths"), ["ledger"]);
    assert!(matches!(disk.get("run_seconds"), Some(Value::U64(s)) if (1..=60).contains(s)));
    let workloads = entries(&disk, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, def) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(field(w, "name"), def.name);
        assert_eq!(field(w, "why"), def.why);
    }
    let mut names = std::collections::HashSet::new();
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = entries(&disk, key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (m, def) in listed.iter().zip(defs) {
            assert_eq!(field(m, "name"), def.name);
            assert!(valid_name(field(m, "name")) && valid_unit(field(m, "unit")));
            assert!(
                names.insert(field(m, "name").to_string()),
                "{} is used twice",
                def.name
            );
        }
    }
    assert!(entries(&disk, "end_to_end")
        .iter()
        .any(|m| field(m, "name") == "setup_s"));
}

fn result_lines(stdout: &str) -> Vec<Value> {
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .collect()
}

fn emitted(result: &Value) -> Vec<String> {
    match result.get("metrics") {
        Some(Value::Object(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics: {other:?}"),
    }
}

/// `--scale tiny` smoke run of all five workloads, end to end and traced:
/// the binary emits exactly the catalogue's names, reports every operation
/// correct, and the end-to-end set finishes in under five seconds.
#[test]
fn tiny_smoke_run_emits_exactly_the_catalogue() {
    let cwd = scratch("smoke");
    let ledger = env!("CARGO_BIN_EXE_ledger");
    for (mode, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let started = Instant::now();
        let out = Command::new(ledger)
            .args([
                "--scale",
                "tiny",
                "--seconds",
                "0",
                "--seed",
                "3",
                "--trace",
                mode,
            ])
            .current_dir(&cwd)
            .output()
            .unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            elapsed < 5.0,
            "tiny run of five workloads took {elapsed:.1} s"
        );
        let results = result_lines(&stdout);
        assert_eq!(results.len(), WORKLOADS.len());
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        for (r, w) in results.iter().zip(WORKLOADS) {
            assert_eq!(emitted(r), want, "{}", w.name);
            assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{}", w.name);
            assert_eq!(r.get("failed"), Some(&Value::U64(0)), "{}", w.name);
            assert!(matches!(r.get("attempted"), Some(Value::U64(n)) if *n >= 1));
            if mode == "1" {
                let trace = cwd
                    .join(".ledger_work")
                    .join(format!("trace-{}.json", w.name));
                let spans: Value =
                    serde_json::from_str(&std::fs::read_to_string(trace).unwrap()).unwrap();
                assert!(entries(&spans, "spans")
                    .iter()
                    .any(|s| field(s, "name") == BUILD_ROOT));
            }
        }
        // The last line of standard output is the driver's result object.
        assert!(stdout.lines().last().unwrap().starts_with("{\"correct\":"));
    }
    // Nothing is left behind but the trace files.
    let left: Vec<String> = std::fs::read_dir(cwd.join(".ledger_work"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| !n.starts_with("trace-"))
        .collect();
    assert!(left.is_empty(), "{left:?}");
    std::fs::remove_dir_all(cwd).unwrap();
}

/// An unknown workload or flag is refused with a non-zero exit code and no
/// result line.
#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let ledger = env!("CARGO_BIN_EXE_ledger");
    for args in [
        &["--workload", "no-such"][..],
        &["--frobnicate"],
        &["--trace", "2"],
        &["--seed"],
    ] {
        let out = Command::new(ledger).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// The staged replay is the same job as the pipeline: with the same plan it
/// produces `IndexOutput::dict_bytes` and the same serialized runs, with and
/// without a simulated GPU.
#[test]
fn staged_replay_is_the_same_job_as_build_index() {
    for gpus in [0, 1] {
        let dir = scratch(&format!("replay-{gpus}"));
        let coll = Arc::new(tiny_collection(&dir.join("collection"), 11 + gpus as u64));
        let cfg = pipeline_config(gpus, Scale::Tiny);
        let built = build_index(&coll, &cfg).unwrap();

        let mut rec = Recorder::new();
        let staged = staged_build(&coll, &cfg, &dir.join("index"), &mut rec).unwrap();
        assert_eq!(
            staged.dict_bytes, built.dict_bytes,
            "dictionary bytes, gpus={gpus}"
        );
        let runs_built: usize = built.run_sets.values().map(|s| s.runs().len()).sum();
        assert_eq!(staged.runs.len(), runs_built);
        for (indexer, run_id, bytes) in &staged.runs {
            let run = built.run_sets[indexer]
                .runs()
                .iter()
                .find(|r| r.run_id == *run_id)
                .unwrap();
            assert_eq!(
                *bytes,
                run.to_bytes(),
                "run {indexer}/{run_id}, gpus={gpus}"
            );
        }
        assert_eq!(staged.counts.terms as usize, built.dictionary.len());
        assert_eq!(
            staged.counts.uncompressed_bytes,
            coll.manifest.stats.uncompressed_bytes
        );
        assert_eq!(staged.counts.gpu_tokens > 0, gpus > 0);
        assert!(rec.coverage(BUILD_ROOT) > 0.5);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// The checks fail when the index and the oracle disagree: emptying one
/// list of the oracle fails the build check, and the query check for the
/// queries that use the term.
#[test]
fn output_checks_catch_a_disagreement() {
    let dir = scratch("checks");
    let coll = tiny_collection(&dir.join("collection"), 21);
    let index = dir.join("index");
    let report = build_here(&BuildJob {
        collection: dir.join("collection"),
        index: Some(index.clone()),
        gpus: 0,
        scale: Scale::Tiny,
        traced: false,
    })
    .unwrap();
    assert!(report.clean && report.vm_hwm_kb > 0 && report.wall_s > 0.0);

    let mut oracle = Oracle::build(&coll).unwrap();
    assert_eq!(report.docs, u64::from(oracle.docs()));
    assert_eq!(report.terms as usize, oracle.terms.len());
    let all: Vec<u32> = (0..oracle.terms.len() as u32).collect();
    assert_eq!(
        verify_against_oracle(&index, &oracle, &all),
        Vec::<String>::new()
    );

    let idx = Index::open(&index).unwrap();
    let mut queries = Vec::new();
    for shape in [QueryShape::Head, QueryShape::Tail] {
        let drawn = make_queries(&oracle, shape, 40, 5).unwrap();
        assert_eq!(drawn.len(), 40);
        // The seeded document holds every term, so no answer is empty.
        assert!(drawn
            .iter()
            .all(|q| (2..=3).contains(&q.terms.len()) && !oracle.expected_docs(q).is_empty()));
        queries.extend(drawn);
    }
    let mut out = Outcome::default();
    check_queries(&idx, &oracle, &queries, &mut out);
    assert_eq!((out.attempted, out.failed), (80, 0), "{:?}", out.problems);

    let victim = queries[0].terms[0] as usize;
    oracle.lists[victim].clear();
    let problems = verify_against_oracle(&index, &oracle, &all);
    assert!(
        problems.iter().any(|p| p.contains("postings")),
        "{problems:?}"
    );
    assert!(
        problems.iter().any(|p| p.contains("sampled lists differ")),
        "{problems:?}"
    );
    check_queries(&idx, &oracle, &queries, &mut out);
    assert!(out.failed >= 1 && !out.problems.is_empty());
    std::fs::remove_dir_all(dir).unwrap();
}
