//! Table VI — performance on the three document collections (plus
//! ClueWeb09 without GPUs).
//!
//! Two parts: (a) platsim simulated rows against the paper's seconds for
//! the full-size collections; (b) measured rows from the real pipeline on
//! the scaled synthetic collections (wall seconds on this 1-core host —
//! shapes only).

use ii_core::corpus::CollectionSpec;
use ii_core::pipeline::{build_index, PipelineConfig};
use ii_core::platsim::{simulate, CollectionModel, PlatformModel, Scenario};

#[allow(dead_code)] // retained for reference alongside printed fields
struct PaperRow {
    name: &'static str,
    sampling: f64,
    parsers: f64,
    indexers: f64,
    combine: f64,
    write: f64,
    total: f64,
    mb_s: f64,
}

const PAPER: &[PaperRow] = &[
    PaperRow { name: "ClueWeb09", sampling: 59.53, parsers: 5410.89, indexers: 5408.25, combine: 2.46, write: 59.21, total: 5541.62, mb_s: 262.76 },
    PaperRow { name: "ClueWeb09 w/o GPUs", sampling: 57.53, parsers: 7024.86, indexers: 7019.87, combine: 2.54, write: 54.92, total: 7126.77, mb_s: 204.32 },
    PaperRow { name: "Wikipedia 01-07", sampling: 7.27, parsers: 999.45, indexers: 1023.96, combine: 0.26, write: 0.57, total: 1033.34, mb_s: 78.29 },
    PaperRow { name: "Library of Congress", sampling: 29.01, parsers: 2437.79, indexers: 2458.64, combine: 0.21, write: 0.80, total: 2495.29, mb_s: 208.06 },
];

fn main() {
    let p = PlatformModel::c1060_xeon();
    println!("TABLE VI (a). SIMULATED FULL-SCALE ROWS (platsim seconds vs paper seconds)\n");
    println!(
        "{:<22}{:>16}{:>16}{:>14}{:>14}",
        "collection", "total sim (s)", "paper total (s)", "sim MB/s", "paper MB/s"
    );
    ii_bench::rule(84);
    let sims = [
        ("ClueWeb09", CollectionModel::clueweb09(), Scenario::new(6, 2, 2)),
        ("ClueWeb09 w/o GPUs", CollectionModel::clueweb09(), Scenario::new(6, 2, 0)),
        ("Wikipedia 01-07", CollectionModel::wikipedia(), Scenario::new(6, 2, 2)),
        ("Library of Congress", CollectionModel::congress(), Scenario::new(6, 2, 2)),
    ];
    for ((name, c, s), paper) in sims.into_iter().zip(PAPER) {
        let r = simulate(&p, &c, &s);
        println!(
            "{:<22}{:>16.0}{:>16.0}{:>14.1}{:>14.1}",
            name, r.total_seconds, paper.total, r.throughput_mb_s, paper.mb_s
        );
    }
    ii_bench::rule(84);
    println!("(Wikipedia's lower MB/s is expected: 1/18th the bytes but ~1/3 the tokens)\n");

    println!("TABLE VI (b). MEASURED SCALED ROWS (real pipeline, wall seconds on this host)\n");
    let scale = ii_bench::MEASURED_SCALE;
    println!(
        "{:<26}{:>10}{:>12}{:>12}{:>10}{:>10}{:>10}{:>10}",
        "collection", "sampling", "parsers", "indexers", "combine", "write", "total", "MB/s"
    );
    ii_bench::rule(100);
    let jobs = [
        ("clueweb-like", CollectionSpec::clueweb_like(scale), 2usize),
        ("clueweb-like w/o GPU", CollectionSpec::clueweb_like(scale), 0),
        ("wikipedia-like", CollectionSpec::wikipedia_like(scale), 2),
        ("congress-like", CollectionSpec::congress_like(scale), 2),
    ];
    for (name, spec, gpus) in jobs {
        let coll = ii_bench::stored_collection(&format!("table6-{}", spec.name), spec);
        let mut cfg = PipelineConfig::small(2, 2, gpus);
        cfg.popular_count = 40;
        let out = build_index(&coll, &cfg).expect("index build");
        ii_bench::write_stats_snapshot(
            &format!("table6_{}_{}gpu", coll.manifest.spec.name, gpus),
            &out.report.stages,
        );
        let r = &out.report;
        println!(
            "{:<26}{:>10}{:>12}{:>12}{:>10}{:>10}{:>10}{:>10.2}",
            name,
            ii_bench::fmt_s(r.sampling_seconds),
            ii_bench::fmt_s(r.parser_busy_seconds()),
            ii_bench::fmt_s(r.indexing_seconds),
            ii_bench::fmt_s(r.dict_combine_seconds()),
            ii_bench::fmt_s(r.dict_write_seconds()),
            ii_bench::fmt_s(r.total_seconds),
            r.throughput_mb_s(),
        );
    }
    ii_bench::rule(100);
    println!("(1-core host: parser and indexer stages serialize; absolute MB/s is not comparable,");
    println!(" but dictionary combine/write remain tiny relative to total, as in the paper)");
}
