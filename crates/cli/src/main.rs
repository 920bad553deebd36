//! `ii` — command-line front end for the heterogeneous indexing system.
//!
//! ```text
//! ii generate <dir> [--preset clueweb|wikipedia|congress|tiny] [--scale F] [--seed N]
//! ii build    <collection-dir> <index-dir> [--parsers N] [--cpu N] [--gpus N] [--popular N]
//!             [--codec varbyte|bp128|pfor|auto]
//!             [--max-retries N] [--on-fault fail|skip] [--checkpoint-every N] [--resume]
//!             [--mem-budget BYTES] [--stats] [--stats-json] [--stats-out stats.json]
//!             [--trace trace.json] [--strict] [--metrics-addr HOST:PORT]
//!             [--metrics-out metrics.prom] [--chaos-kill CLASS:INDEX:BATCH]
//! ii top      <host:port | metrics.prom> [--iters N] [--interval-ms MS] [--check]
//! ii postmortem <bundle.json | index-dir>
//! ii trace    report <trace.json> [--check]
//! ii verify   <index-dir>
//! ii repair   <index-dir>
//! ii query    <index-dir> <terms...> [--mode bool|and|or] [--explain]
//! ii postings <index-dir> <term> [--range LO HI]
//! ii stats    <collection-dir | index-dir>
//! ii simulate [--parsers N] [--cpu N] [--gpus N] [--collection clueweb|wikipedia|congress]
//! ```
//!
//! Exit status: 0 on success, 1 when a command ran and failed, 2 for a flag
//! the command does not take or a value outside a flag's fixed set.

#![forbid(unsafe_code)]

use ii_core::corpus::{CollectionSpec, DocId, StoredCollection};
use ii_core::pipeline::{FaultAction, WorkerClass, WorkerFaultPlan};
use ii_core::postings::{Codec, SAMPLE_EVERY};
use ii_core::platsim::{simulate, CollectionModel, PlatformModel, Scenario};
use ii_core::{Bm25Params, Index, IndexBuilder, QueryMode};
use ii_obs::openmetrics::MetricPoint;
use ii_obs::{Trace, TraceReport};
use std::io::IsTerminal;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    // Exit quietly when stdout is closed early (`ii postings ... | head`).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or("");
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("repair") => cmd_repair(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("postings") => cmd_postings(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("postmortem") => cmd_postmortem(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("help") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try 'ii help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "ii — fast inverted-file construction on heterogeneous platforms\n\n\
         commands:\n  \
         generate <dir> [--preset P] [--scale F] [--seed N]   synthesize a collection\n  \
         build <coll-dir> <index-dir> [--parsers N] [--cpu N] [--gpus N] [--popular N]\n        \
         [--codec varbyte|bp128|pfor|auto]             postings codec; auto (default)\n        \
         picks per list length: varbyte short, PForDelta medium, BP128 long\n        \
         [--max-retries N] [--on-fault fail|skip]      fail aborts on a corrupt file (default);\n        \
         skip quarantines it and indexes the rest\n        \
         [--checkpoint-every N] commits a resumable checkpoint every N runs (default 8)\n        \
         [--resume] continues an interrupted build from its last checkpoint\n        \
         [--mem-budget BYTES] hard memory budget; under pressure the build degrades\n        \
         deterministically (backpressure, early flushes, GPU shedding); 0 = unlimited\n        \
         [--stats] prints the per-stage breakdown; [--stats-json] the raw snapshot\n        \
         [--stats-out F] writes the JSON snapshot to F (atomic temp+fsync+rename)\n        \
         [--strict] exits non-zero if any document was quarantined or any worker died\n        \
         [--trace trace.json] records per-worker event timelines\n        \
         (Chrome/Perfetto format; inspect with 'ii trace report')\n        \
         [--metrics-addr H:P] serves a live OpenMetrics endpoint for the whole build\n        \
         (watch with 'ii top H:P'); [--metrics-out F] writes the final exposition to F\n        \
         [--chaos-kill CLASS:INDEX:BATCH] seeded worker kill (parser|cpu|gpu) for\n        \
         forensics drills — the build survives and cuts a post-mortem bundle\n  \
         top <host:port | metrics.prom> [--iters N] [--interval-ms MS] [--check]\n        \
         live build monitor: per-stage MB/s, queue depths, worker liveness,\n        \
         memory-vs-budget, ETA; --check lints the exposition and exits non-zero\n  \
         postmortem <bundle.json | index-dir>                 render a post-mortem bundle:\n        \
         cause attribution, supervision ledger, flight-recorder timeline\n  \
         trace report <trace.json> [--check]                  per-worker utilization, stall\n        \
         attribution, and an ASCII timeline from a recorded trace; --check\n        \
         additionally enforces the trace invariants and exits non-zero on failure\n  \
         verify <index-dir>                                   checksum + dictionary invariants\n  \
         repair <index-dir>                                   salvage intact artifacts, report losses\n  \
         query <index-dir> <terms...> [--mode bool|and|or]    bool (default): conjunctive,\n        \
         ranked by summed tf; and / or: BM25-ranked; [--explain] adds per term its stem,\n        \
         df, run parts opened of those holding it, blocks decoded of those in its lists\n  \
         postings <index-dir> <term> [--range LO HI]          dump a postings list\n  \
         stats <dir>                                          collection stats, or an index's\n        \
         shape: terms, runs, lists, postings, table/payload/index bytes\n  \
         simulate [--parsers N] [--cpu N] [--gpus N] [--collection C]  platsim projection\n\n\
         exit status: 0 done, 1 the command failed, 2 an unknown flag or flag value"
    );
}

/// Pull `--flag value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn flag_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name} expects an integer, got '{v}'")),
        None => Ok(default),
    }
}

/// Flags that take no value (everything else consumes the next argument).
const BOOL_FLAGS: &[&str] =
    &["--stats", "--stats-json", "--resume", "--check", "--strict", "--explain"];

fn bool_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Report a command line the command does not accept and exit with status
/// 2, where a command that ran and failed exits with 1. Called while flags
/// are parsed, before a command has done anything.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Reject any `--flag` the command does not understand. Silently ignoring
/// unknown flags hid typos like `--parser 8` (which ran a 2-parser build
/// and skewed every number derived from it), so each command declares its
/// flag set and anything else is a usage error.
fn check_flags(args: &[String], allowed: &[&str]) {
    for a in args {
        if a.starts_with("--") && !allowed.contains(&a.as_str()) {
            usage_error(&format!(
                "unknown flag '{a}'{}",
                if allowed.is_empty() {
                    " (this command takes no flags)".to_string()
                } else {
                    format!(" (expected one of: {})", allowed.join(", "))
                }
            ));
        }
    }
}

/// The non-flag arguments, skipping each value flag's value.
fn operands(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !BOOL_FLAGS.contains(&a.as_str());
            continue;
        }
        out.push(a);
    }
    out
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--preset", "--scale", "--seed"]);
    let pos = operands(args);
    let dir = pos.first().ok_or("generate: missing <dir>")?;
    let scale: f64 = flag(args, "--scale").map_or(Ok(0.5), |v| {
        v.parse().map_err(|_| format!("--scale expects a number, got '{v}'"))
    })?;
    let seed = flag_usize(args, "--seed", 42)? as u64;
    let preset = flag(args, "--preset").unwrap_or_else(|| "wikipedia".into());
    let mut spec = match preset.as_str() {
        "clueweb" => CollectionSpec::clueweb_like(scale),
        "wikipedia" => CollectionSpec::wikipedia_like(scale),
        "congress" => CollectionSpec::congress_like(scale),
        "tiny" => CollectionSpec::tiny(seed),
        other => usage_error(&format!("unknown preset '{other}'")),
    };
    spec.seed = seed;
    let stored = StoredCollection::generate(spec, Path::new(dir))
        .map_err(|e| format!("generate failed: {e}"))?;
    let s = &stored.manifest.stats;
    println!(
        "generated '{preset}' collection in {dir}: {} files, {} docs, {} tokens, {:.1} MB ({:.1} MB compressed)",
        stored.num_files(),
        s.documents,
        s.tokens,
        s.uncompressed_bytes as f64 / 1e6,
        s.compressed_bytes as f64 / 1e6
    );
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--parsers",
            "--cpu",
            "--gpus",
            "--codec",
            "--popular",
            "--max-retries",
            "--on-fault",
            "--checkpoint-every",
            "--resume",
            "--mem-budget",
            "--stats",
            "--stats-json",
            "--stats-out",
            "--trace",
            "--strict",
            "--metrics-addr",
            "--metrics-out",
            "--chaos-kill",
        ],
    );
    let pos = operands(args);
    let [coll_dir, index_dir] = pos.as_slice() else {
        return Err("build: need <collection-dir> <index-dir>".into());
    };
    let parsers = flag_usize(args, "--parsers", 2)?;
    let cpu = flag_usize(args, "--cpu", 1)?;
    let gpus = flag_usize(args, "--gpus", 1)?;
    let codec = match flag(args, "--codec").as_deref() {
        // Auto picks per list-length class: varbyte / PForDelta / BP128.
        None | Some("auto") => Codec::Auto,
        Some("varbyte") => Codec::VarByte,
        Some("bp128") => Codec::Bp128,
        Some("pfor") => Codec::PFor,
        Some(other) => {
            usage_error(&format!("--codec expects varbyte|bp128|pfor|auto, got '{other}'"))
        }
    };
    let popular = flag_usize(args, "--popular", 40)?;
    let max_retries = flag_usize(args, "--max-retries", 3)? as u32;
    let on_fault = match flag(args, "--on-fault").as_deref() {
        None | Some("fail") => FaultAction::FailFast,
        Some("skip") => FaultAction::SkipFile,
        Some(other) => usage_error(&format!("--on-fault expects 'fail' or 'skip', got '{other}'")),
    };
    let checkpoint_every = flag_usize(args, "--checkpoint-every", 8)?;
    // Absent: the library's sane default budget. Present: the given hard
    // budget, with 0 meaning explicitly unlimited.
    let mem_budget: Option<u64> = match flag(args, "--mem-budget") {
        Some(v) => {
            Some(v.parse().map_err(|_| format!("--mem-budget expects bytes, got '{v}'"))?)
        }
        None => None,
    };
    let resume = bool_flag(args, "--resume");
    let trace_path = flag(args, "--trace");
    let metrics_addr = flag(args, "--metrics-addr");
    let metrics_out = flag(args, "--metrics-out");
    let stats_out = flag(args, "--stats-out");
    let chaos_kill = flag(args, "--chaos-kill");
    // The build itself is durable: sealed runs, the doc map and the combined
    // dictionary are committed atomically every `checkpoint_every`
    // runs, and the final index commit replaces the checkpoint — so a
    // crashed build is always `--resume`-able, never garbage.
    let mut builder = IndexBuilder::small()
        .parsers(parsers)
        .cpu_indexers(cpu)
        .gpus(gpus)
        .codec(codec)
        .popular_count(popular)
        .max_retries(max_retries)
        .on_fault(on_fault)
        .tracing(trace_path.is_some());
    if let Some(bytes) = mem_budget {
        builder = builder.mem_budget(bytes);
    }
    if let Some(addr) = &metrics_addr {
        builder = builder.metrics_addr(addr.clone());
    }
    if let Some(spec) = &chaos_kill {
        let (class, idx, at) = parse_chaos_kill(spec)?;
        builder = builder
            .supervised(true)
            .worker_faults(WorkerFaultPlan::none().kill(class, idx, at));
    }
    let index = builder
        .build_dir_durable(Path::new(coll_dir), Path::new(index_dir), checkpoint_every, resume)
        .map_err(|e| {
            // A failed build leaves its forensics behind: point at the
            // freshest post-mortem bundle if one was cut.
            let pm = Path::new(index_dir).join("postmortem");
            match ii_core::pipeline::list_bundles(&pm) {
                Ok(bundles) if !bundles.is_empty() => format!(
                    "build failed: {e}\npost-mortem bundle: {} (inspect with 'ii postmortem')",
                    bundles.last().unwrap().display()
                ),
                _ => format!("build failed: {e}"),
            }
        })?;
    let r = &index.report;
    println!(
        "indexed {} docs -> {} terms in {:.2}s ({:.2} MB/s on this host)",
        r.docs,
        index.num_terms(),
        r.total_seconds,
        r.throughput_mb_s()
    );
    println!(
        "stage seconds: sampling {:.2}, parser busy {:.2}, indexing {:.2}, post {:.2}, dict {:.3}+{:.3}",
        r.sampling_seconds,
        r.parser_busy_seconds,
        r.indexing_seconds,
        r.post_processing_seconds,
        r.dict_combine_seconds,
        r.dict_write_seconds
    );
    println!("faults: {}", r.faults.summary());
    for q in &r.faults.quarantined {
        println!("  quarantined {q}");
    }
    println!("workers: {}", r.supervision.summary());
    for d in &r.supervision.deaths {
        println!("  {d}");
    }
    for l in &r.supervision.lossy_incidents {
        println!("  LOSSY {l}");
    }
    for b in &r.postmortem_bundles {
        println!("post-mortem bundle: {} (inspect with 'ii postmortem')", b.display());
    }
    if r.stages.gauge("governor.budget_bytes") > 0 {
        println!(
            "memory: budget {:.1} MB, high water {:.1} MB, {} credit waits, \
             {} early flushes, {} gpu sheds",
            r.stages.gauge("governor.budget_bytes") as f64 / 1e6,
            r.stages.gauge("governor.high_water_bytes") as f64 / 1e6,
            r.stages.counter("governor.credit_waits"),
            r.stages.counter("governor.early_flushes"),
            r.stages.counter("governor.gpu_sheds"),
        );
    }
    if bool_flag(args, "--stats") {
        println!("\nper-stage breakdown (Table V / Fig 9):");
        print!("{}", r.stages.render_table());
        let queue_wait: f64 = r.per_file.iter().map(|f| f.queue_wait_seconds).sum();
        println!(
            "indexer queue wait: {queue_wait:.3}s across {} files (driver idle on parsers)",
            r.per_file.len()
        );
        println!(
            "consumer ingested {} of {} files while waiting",
            r.stages.counter("pipeline.helped_files"),
            r.stages.gauge("pipeline.files_total")
        );
    }
    if bool_flag(args, "--stats-json") {
        println!("{}", r.stages.snapshot.to_json());
    }
    if let Some(path) = &stats_out {
        write_durable(Path::new(path), r.stages.snapshot.to_json().as_bytes())?;
        println!("stats: JSON snapshot written to {path}");
    }
    if let Some(path) = &metrics_out {
        let exposition = ii_obs::openmetrics::render(&r.stages.snapshot);
        write_durable(Path::new(path), exposition.as_bytes())?;
        println!("metrics: OpenMetrics exposition written to {path}");
    }
    if let Some(path) = &trace_path {
        let tr = r.trace.as_ref().ok_or("build finished without a trace (internal error)")?;
        write_durable(Path::new(path), tr.to_chrome_json().as_bytes())?;
        println!(
            "trace: {} events from {} workers written to {path} ({} dropped)",
            tr.num_events(),
            tr.workers.len(),
            tr.dropped
        );
    }
    println!("index written to {index_dir}");
    // Strict builds refuse degradation: the index above is complete and
    // committed, but any quarantined document or dead worker means it was
    // produced in a degraded mode — exit non-zero so CI notices.
    if bool_flag(args, "--strict") {
        let deaths = r.supervision.deaths.len();
        let quarantined = r.faults.quarantined.len();
        if deaths > 0 || quarantined > 0 {
            return Err(format!(
                "--strict: build degraded ({deaths} worker deaths, \
                 {quarantined} quarantined files) — {}",
                r.supervision.summary()
            ));
        }
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("report") => cmd_trace_report(&args[1..]),
        Some(other) => Err(format!("unknown trace subcommand '{other}' (try 'ii trace report')")),
        None => Err("trace: need a subcommand — ii trace report <trace.json> [--check]".into()),
    }
}

fn cmd_trace_report(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--check"]);
    let pos = operands(args);
    let path = pos.first().ok_or("trace report: missing <trace.json>")?;
    let text = std::fs::read_to_string(path.as_str())
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = Trace::from_chrome_json(&text)?;
    let report = TraceReport::from_trace(&trace);
    print!("{}", report.render(&trace, 100));
    if bool_flag(args, "--check") {
        report.check(&trace).map_err(|e| format!("trace check failed: {e}"))?;
        println!("trace check passed: spans well-formed, attribution sums to wall");
    }
    Ok(())
}

fn open_index(dir: &str) -> Result<Index, String> {
    Index::open(&PathBuf::from(dir)).map_err(|e| format!("cannot open index {dir}: {e}"))
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    check_flags(args, &[]);
    let pos = operands(args);
    let dir = pos.first().ok_or("verify: missing <index-dir>")?;
    let statuses = Index::verify_dir(Path::new(dir.as_str()))
        .map_err(|e| format!("cannot verify {dir}: {e}"))?;
    let mut bad = 0usize;
    for s in &statuses {
        if s.ok {
            println!("  ok      {:<24} {} bytes", s.name, s.len);
        } else {
            bad += 1;
            println!("  FAILED  {:<24} {}", s.name, s.detail);
        }
    }
    // The manifest pass proves the bytes are what was committed; the
    // dictionary invariant pass proves the committed bytes make sense.
    match Index::open(Path::new(dir.as_str())) {
        Ok(index) => {
            let violations = ii_core::dict::verify_global(&index.dictionary);
            for v in &violations {
                bad += 1;
                println!("  FAILED  dictionary invariant: {v:?}");
            }
        }
        Err(e) => {
            bad += 1;
            println!("  FAILED  open: {e}");
        }
    }
    if bad > 0 {
        return Err(format!("{bad} of {} artifact checks failed in {dir}", statuses.len() + 1));
    }
    println!("verified {dir}: {} artifacts clean", statuses.len());
    Ok(())
}

fn cmd_repair(args: &[String]) -> Result<(), String> {
    check_flags(args, &[]);
    let pos = operands(args);
    let dir = pos.first().ok_or("repair: missing <index-dir>")?;
    let report = Index::repair(Path::new(dir.as_str()))
        .map_err(|e| format!("cannot repair {dir}: {e}"))?;
    for name in &report.kept {
        println!("  kept  {name}");
    }
    for (name, why) in &report.lost {
        println!("  LOST  {name}: {why}");
    }
    println!(
        "repaired {dir}: {} artifacts kept, {} lost (manifest generation {})",
        report.kept.len(),
        report.lost.len(),
        report.generation
    );
    if !report.lost.is_empty() {
        return Err(format!(
            "{} artifacts were unrecoverable — rebuild to restore full coverage",
            report.lost.len()
        ));
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--mode", "--explain"]);
    let pos = operands(args);
    let (dir, terms) = pos.split_first().ok_or("query: need <index-dir> <terms...>")?;
    if terms.is_empty() {
        return Err("query: need at least one term".into());
    }
    let mode = match flag(args, "--mode").as_deref().unwrap_or("bool") {
        "bool" => None,
        "and" => Some(QueryMode::And),
        "or" => Some(QueryMode::Or),
        other => usage_error(&format!("--mode expects and, or or bool, got '{other}'")),
    };
    let index = open_index(dir)?;
    let q = terms.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(" ");
    let hits: Vec<(DocId, String)> = match mode {
        None => index.search(&q).into_iter().map(|(d, tf)| (d, tf.to_string())).collect(),
        Some(mode) => {
            let ranked = index.search_ranked(&q, mode, Bm25Params::default());
            ranked.into_iter().map(|h| (h.doc, format!("{:.4}", h.score))).collect()
        }
    };
    println!("{} hits for '{q}'", hits.len());
    for (doc, score) in hits.iter().take(20) {
        println!("  doc {doc:>8}  score {score}");
    }
    if bool_flag(args, "--explain") {
        // Boolean search walks its lists exactly as ranked AND does.
        let (_, report) = index.explain(&q, mode.unwrap_or(QueryMode::And));
        println!("{:<20} {:>9} {:>12} {:>14}", "term", "df", "parts opened", "blocks decoded");
        for t in report {
            println!(
                "{:<20} {:>9} {:>12} {:>14}",
                t.term,
                t.df,
                format!("{} of {}", t.parts.0, t.parts.1),
                format!("{} of {}", t.blocks.0, t.blocks.1)
            );
        }
    }
    Ok(())
}

fn cmd_postings(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--range"]);
    let pos = operands(args);
    let [dir, term] = pos.as_slice() else {
        return Err("postings: need <index-dir> <term>".into());
    };
    let index = open_index(dir)?;
    let range = flag(args, "--range");
    if let Some(r) = range {
        let (lo, hi) = r
            .split_once(',')
            .or_else(|| r.split_once(':'))
            .ok_or("--range expects LO,HI")?;
        let lo: u32 = lo.parse().map_err(|_| "bad LO")?;
        let hi: u32 = hi.parse().map_err(|_| "bad HI")?;
        let posts = index.postings_in_range(term, DocId(lo), DocId(hi));
        println!("{} postings for '{term}' in docs [{lo}, {hi}]", posts.len());
        for p in posts.iter().take(50) {
            println!("  doc {:>8}  tf {}", p.doc, p.tf);
        }
    } else {
        match index.postings(term) {
            Some(list) => {
                println!("{} postings for '{term}' (total tf {})", list.len(), list.total_tf());
                for p in list.postings().iter().take(50) {
                    println!("  doc {:>8}  tf {}", p.doc, p.tf);
                }
            }
            None => println!("'{term}' not in the dictionary"),
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    check_flags(args, &[]);
    let pos = operands(args);
    let dir = pos.first().ok_or("stats: missing <dir>")?;
    let path = Path::new(dir.as_str());
    if path.join("manifest.json").exists() {
        let c = StoredCollection::open(path).map_err(|e| e.to_string())?;
        let s = &c.manifest.stats;
        println!("collection '{}':", c.manifest.spec.name);
        println!("  files:        {}", c.num_files());
        println!("  documents:    {}", s.documents);
        println!("  tokens:       {}", s.tokens);
        println!("  terms:        {}", s.distinct_terms);
        println!("  uncompressed: {:.2} MB", s.uncompressed_bytes as f64 / 1e6);
        println!("  compressed:   {:.2} MB", s.compressed_bytes as f64 / 1e6);
    } else if path.join(ii_core::store::MANIFEST_NAME).exists() {
        // The manifest says what the directory holds; no artifact has a
        // fixed file name (a checkpointed build's dictionary is
        // `dictionary.bin.g2`).
        let index = open_index(dir)?;
        let runs: usize = index.run_sets.values().map(|s| s.runs().len()).sum();
        println!("index at {dir}:");
        println!("  terms:    {}", index.num_terms());
        println!("  indexers: {}", index.run_sets.len());
        println!("  runs:     {runs}");
        // Document frequencies from the mapping tables: every run row
        // carries its posting count, so no list is decoded, only rows.
        let mut df: std::collections::HashMap<(u32, u32), u64> = std::collections::HashMap::new();
        let (mut lists, mut sampled, mut postings, mut payload) = (0u64, 0u64, 0u64, 0u64);
        for (&indexer, set) in &index.run_sets {
            for run in set.runs() {
                lists += run.entries.len() as u64;
                sampled += run.entries.sampled() as u64;
                payload += run.payload.len() as u64;
                for e in &run.entries {
                    postings += u64::from(e.n_postings);
                    *df.entry((indexer, e.handle)).or_default() += u64::from(e.n_postings);
                }
            }
        }
        let busiest = index
            .dictionary
            .entries()
            .map(|e| (df.get(&(e.indexer, e.postings)).copied().unwrap_or(0), e))
            .max_by_key(|(docs, _)| *docs);
        if let Some((docs, e)) = busiest {
            println!("  busiest term: '{}' in {docs} docs", e.full_term());
        }
        println!("  lists:    {lists}");
        println!("  row sample:    {sampled} rows, one in {SAMPLE_EVERY} (what a look-up searches)");
        println!("  postings: {postings}");
        println!("  payload bytes: {payload}");
        let (run_bytes, index_bytes) = on_disk_shape(path)?;
        println!("  table bytes:   {}", run_bytes.saturating_sub(payload));
        if postings > 0 {
            println!("  run bytes per posting: {:.2}", run_bytes as f64 / postings as f64);
        }
        println!("  index bytes:   {index_bytes}");
    } else {
        return Err(format!("{dir} is neither a collection nor an index"));
    }
    Ok(())
}

/// What the manifest of an index directory says of its files: bytes in run
/// artifacts and bytes in all artifacts.
fn on_disk_shape(dir: &Path) -> Result<(u64, u64), String> {
    let store = ii_core::store::Store::open(dir).map_err(|e| e.to_string())?;
    let (mut run_bytes, mut index_bytes) = (0u64, 0u64);
    for a in &store.manifest().artifacts {
        index_bytes += a.len;
        if ii_core::postings::parse_run_artifact_name(&a.name).is_some() {
            run_bytes += a.len;
        }
    }
    Ok((run_bytes, index_bytes))
}

/// Crash-safe file write — ii-store's write-temp → fsync → atomic-rename,
/// so an interrupted `ii build` can't leave a truncated JSON / exposition
/// artifact behind.
fn write_durable(path: &Path, bytes: &[u8]) -> Result<(), String> {
    ii_core::store::write_file_durable(&ii_core::store::RealVfs, path, bytes)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `--chaos-kill parser|cpu|gpu:INDEX:BATCH` — a seeded worker kill.
fn parse_chaos_kill(spec: &str) -> Result<(WorkerClass, usize, usize), String> {
    let bad = || format!("--chaos-kill expects CLASS:INDEX:BATCH (e.g. gpu:0:2), got '{spec}'");
    let parts: Vec<&str> = spec.split(':').collect();
    let [class, idx, at] = parts.as_slice() else {
        return Err(bad());
    };
    let class = match *class {
        "parser" => WorkerClass::Parser,
        "cpu" => WorkerClass::CpuIndexer,
        "gpu" => WorkerClass::GpuIndexer,
        other => {
            return Err(format!("--chaos-kill class must be parser|cpu|gpu, got '{other}'"))
        }
    };
    Ok((class, idx.parse().map_err(|_| bad())?, at.parse().map_err(|_| bad())?))
}

fn cmd_postmortem(args: &[String]) -> Result<(), String> {
    check_flags(args, &[]);
    let pos = operands(args);
    let target = pos.first().ok_or("postmortem: need <bundle.json | index-dir>")?;
    let path = Path::new(target.as_str());
    let bundle = if path.is_dir() {
        // An index dir (or its postmortem/ subdir): render the newest
        // bundle and list any others.
        let dir = if path.join(ii_core::pipeline::POSTMORTEM_DIR).is_dir() {
            path.join(ii_core::pipeline::POSTMORTEM_DIR)
        } else {
            path.to_path_buf()
        };
        let bundles = ii_core::pipeline::list_bundles(&dir)
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let Some(newest) = bundles.last().cloned() else {
            return Err(format!("no post-mortem bundles in {}", dir.display()));
        };
        if bundles.len() > 1 {
            println!("{} bundles in {} (rendering the newest):", bundles.len(), dir.display());
            for b in &bundles {
                println!("  {}", b.display());
            }
            println!();
        }
        newest
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&bundle)
        .map_err(|e| format!("cannot read {}: {e}", bundle.display()))?;
    let report = ii_core::pipeline::render_bundle_report(&text)
        .map_err(|e| format!("{}: {e}", bundle.display()))?;
    print!("{report}");
    Ok(())
}

/// One exposition sample by family name + identifying label.
fn top_value(points: &[MetricPoint], family: &str, key: &str, label: &str) -> Option<f64> {
    points.iter().find(|p| p.name == family && p.label(key) == Some(label)).map(|p| p.value)
}

/// State carried between `ii top` frames so rates are computed over the
/// actual scrape interval rather than cumulative averages.
struct TopState {
    t: Instant,
    files_done: f64,
    stage_bytes: Vec<(String, f64)>,
}

fn render_top_frame(points: &[MetricPoint], prev: Option<&TopState>) -> (String, TopState) {
    let now = Instant::now();
    let dt = prev.map(|p| now.duration_since(p.t).as_secs_f64()).filter(|d| *d > 1e-3);
    let gauge = |name: &str| top_value(points, "ii_gauge", "name", name);
    let counter = |name: &str| top_value(points, "ii_counter_total", "name", name);
    let mut o = String::new();
    let done = gauge("pipeline.files_done").unwrap_or(0.0);
    let total = gauge("pipeline.files_total").unwrap_or(0.0);
    if total > 0.0 {
        o.push_str(&format!("files {done:.0}/{total:.0} ({:.0}%)", 100.0 * done / total));
        if let (Some(dt), Some(p)) = (dt, prev) {
            let rate = (done - p.files_done) / dt;
            if done >= total {
                o.push_str("  done");
            } else if rate > 0.0 {
                o.push_str(&format!("  ETA {:.0}s", (total - done) / rate));
            }
        }
        if let Some(docs) = counter("pipeline.docs") {
            o.push_str(&format!("  docs {docs:.0}"));
        }
        o.push('\n');
    }
    let stage_names: Vec<String> = points
        .iter()
        .filter(|p| p.name == "ii_stage_wall_seconds")
        .filter_map(|p| p.label("stage").map(str::to_string))
        .collect();
    let mut stage_bytes: Vec<(String, f64)> = Vec::new();
    if !stage_names.is_empty() {
        o.push_str(&format!("{:<16} {:>9} {:>12} {:>10}\n", "stage", "MB/s", "items", "MB"));
    }
    for name in stage_names {
        let bytes = top_value(points, "ii_stage_bytes_total", "stage", &name).unwrap_or(0.0);
        let items = top_value(points, "ii_stage_items_total", "stage", &name).unwrap_or(0.0);
        let wall = top_value(points, "ii_stage_wall_seconds", "stage", &name).unwrap_or(0.0);
        // Live rate over the scrape interval when a previous frame exists,
        // else the cumulative average.
        let prev_bytes = prev.and_then(|p| p.stage_bytes.iter().find(|(n, _)| *n == name));
        let rate = match (dt, prev_bytes) {
            (Some(dt), Some((_, pb))) => (bytes - pb) / dt / 1e6,
            _ if wall > 0.0 => bytes / wall / 1e6,
            _ => 0.0,
        };
        o.push_str(&format!("{name:<16} {rate:>9.2} {items:>12.0} {:>10.1}\n", bytes / 1e6));
        stage_bytes.push((name, bytes));
    }
    let queues: Vec<String> = points
        .iter()
        .filter(|p| p.name == "ii_gauge")
        .filter_map(|p| {
            let n = p.label("name")?;
            if !(n.starts_with("queue.") || n.starts_with("recycler.")) {
                return None;
            }
            let short = n.trim_start_matches("queue.").trim_end_matches(".depth");
            Some(format!("{short} {:.0}", p.value))
        })
        .collect();
    if !queues.is_empty() {
        o.push_str(&format!("queues: {}\n", queues.join("  ")));
    }
    let resident = gauge("governor.dict_bytes").unwrap_or(0.0)
        + gauge("governor.postings_bytes").unwrap_or(0.0)
        + gauge("governor.device_bytes").unwrap_or(0.0);
    let budget = gauge("governor.budget_bytes").unwrap_or(0.0);
    let high = gauge("governor.high_water_bytes").unwrap_or(0.0);
    if budget > 0.0 {
        let frac = (resident / budget).clamp(0.0, 1.0);
        let filled = (frac * 20.0).round() as usize;
        o.push_str(&format!(
            "memory: [{}{}] {:.1}/{:.1} MB ({:.0}%), high water {:.1} MB\n",
            "#".repeat(filled),
            ".".repeat(20 - filled),
            resident / 1e6,
            budget / 1e6,
            frac * 100.0,
            high / 1e6
        ));
    } else if resident > 0.0 || high > 0.0 {
        o.push_str(&format!(
            "memory: resident {:.1} MB, high water {:.1} MB (no budget)\n",
            resident / 1e6,
            high / 1e6
        ));
    }
    let workers: Vec<String> = points
        .iter()
        .filter(|p| p.name == "ii_gauge")
        .filter_map(|p| {
            let w = p.label("name")?.strip_prefix("worker.")?.strip_suffix(".idle_ms")?;
            Some(format!("{w} {:.0}", p.value))
        })
        .collect();
    if !workers.is_empty() {
        o.push_str(&format!("workers (idle ms): {}\n", workers.join("  ")));
    }
    (o, TopState { t: now, files_done: done, stage_bytes })
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--iters", "--interval-ms", "--check"]);
    let pos = operands(args);
    let target = pos.first().ok_or("top: need <host:port | exposition-file>")?.as_str();
    let check = bool_flag(args, "--check");
    let is_file = Path::new(target).is_file();
    // Files render once; live endpoints poll until the endpoint goes away
    // (build finished) or --iters frames have been shown.
    let iters = flag_usize(args, "--iters", if is_file { 1 } else { 0 })?;
    let interval = Duration::from_millis(flag_usize(args, "--interval-ms", 500)? as u64);
    let mut prev: Option<TopState> = None;
    let mut frame = 0usize;
    loop {
        let text = if is_file {
            std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?
        } else {
            match ii_obs::http::fetch(target, Duration::from_secs(2)) {
                Ok(t) => t,
                Err(e) if frame > 0 => {
                    println!("endpoint {target} gone ({e}) — build finished");
                    return Ok(());
                }
                Err(e) => return Err(format!("cannot scrape {target}: {e}")),
            }
        };
        if check {
            ii_obs::openmetrics::lint(&text)
                .map_err(|e| format!("exposition lint failed: {e}"))?;
        }
        let points = ii_obs::openmetrics::parse(&text)
            .map_err(|e| format!("cannot parse exposition: {e}"))?;
        let (rendered, state) = render_top_frame(&points, prev.as_ref());
        if frame > 0 && std::io::stdout().is_terminal() {
            // Redraw in place on a live terminal; plain scrolling frames
            // otherwise (pipes, CI logs).
            print!("\x1b[2J\x1b[H");
        }
        println!("ii top — {target}{}", if check { " [lint OK]" } else { "" });
        print!("{rendered}");
        prev = Some(state);
        frame += 1;
        if is_file || (iters > 0 && frame >= iters) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--parsers", "--cpu", "--gpus", "--collection"]);
    let parsers = flag_usize(args, "--parsers", 6)?;
    let cpu = flag_usize(args, "--cpu", 2)?;
    let gpus = flag_usize(args, "--gpus", 2)?;
    let coll = flag(args, "--collection").unwrap_or_else(|| "clueweb".into());
    let c = match coll.as_str() {
        "clueweb" => CollectionModel::clueweb09(),
        "wikipedia" => CollectionModel::wikipedia(),
        "congress" => CollectionModel::congress(),
        other => usage_error(&format!("unknown collection '{other}'")),
    };
    let p = PlatformModel::c1060_xeon();
    let r = simulate(&p, &c, &Scenario::new(parsers, cpu, gpus));
    println!("platsim projection on the paper's platform (8-core Xeon + Tesla C1060s):");
    println!("  scenario:   {parsers} parsers, {cpu} CPU indexers, {gpus} GPUs on '{coll}'");
    println!("  total:      {:.0} s", r.total_seconds);
    println!("  parser stage ends at {:.0} s; indexing busy {:.0} s (waits {:.0} s)",
        r.parser_stage_seconds, r.indexing_busy_seconds, r.indexer_wait_seconds);
    println!("  throughput: {:.1} MB/s of uncompressed input", r.throughput_mb_s);
    Ok(())
}
