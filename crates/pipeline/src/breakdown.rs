//! Per-stage breakdown of one pipeline build (paper Table V / Fig 9).
//!
//! `build_index` records every stage of the dataflow — serialized read,
//! decompression, parsing, indexing, run flush, dictionary combine/write —
//! into a per-build [`ii_obs::Registry`]; the report's `stages` is its
//! [`Snapshot`]. This module renders that snapshot — wall time, queue-wait
//! time, payload bytes, and item counts per stage, plus the deep counters
//! (B-tree node splits, string-cache hit rate, warp comparisons,
//! simulated-GPU traffic) — as the Table V-style text of `ii build --stats`.

use ii_obs::Snapshot;

/// Stages in dataflow order, the order the table lists them in.
const DATAFLOW: [&str; 7] =
    ["read", "decompress", "parse", "index", "post_process", "dict_combine", "dict_write"];

/// Fraction of dictionary node searches settled by the in-node 4-byte
/// head/cache array alone (paper §III.D.1), `None` before any search.
pub fn cache_hit_rate(s: &Snapshot) -> Option<f64> {
    let hits = s.counter("dict.cache_hits");
    let total = hits + s.counter("dict.cache_misses");
    (total > 0).then(|| hits as f64 / total as f64)
}

/// Render a build's snapshot as the Table V-style per-stage table plus the
/// deep counters (`ii build --stats`).
pub fn render_table(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12}{:>10}{:>12}{:>14}{:>8}{:>10}\n",
        "stage", "wall s", "q-wait s", "bytes", "items", "MB/s"
    ));
    out.push_str(&format!("{}\n", "-".repeat(66)));
    // Dataflow order, not alphabetical.
    for name in DATAFLOW {
        let Some(s) = snap.stage(name) else { continue };
        let mb_s = if s.wall_seconds > 0.0 {
            s.bytes as f64 / 1e6 / s.wall_seconds
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<12}{:>10.3}{:>12.3}{:>14}{:>8}{:>10.1}\n",
            name, s.wall_seconds, s.queue_wait_seconds, s.bytes, s.items, mb_s
        ));
    }
    // Any stage outside the canonical dataflow still gets a row.
    for (name, s) in snap.stages.iter().filter(|(name, _)| !DATAFLOW.contains(&name.as_str())) {
        out.push_str(&format!(
            "{:<12}{:>10.3}{:>12.3}{:>14}{:>8}\n",
            name, s.wall_seconds, s.queue_wait_seconds, s.bytes, s.items
        ));
    }
    if let Some(rate) = cache_hit_rate(snap) {
        out.push_str(&format!(
            "string cache: {:.1}% hit ({} hits / {} misses), {} node splits, {} head ties settled by length\n",
            rate * 100.0,
            snap.counter("dict.cache_hits"),
            snap.counter("dict.cache_misses"),
            snap.counter("dict.node_splits"),
            snap.counter("dict.head_tie_breaks"),
        ));
    }
    if snap.counter("gpu.warp_comparisons") > 0 {
        out.push_str(&format!(
            "gpu: {} warp comparisons, {} global transactions ({} B), h2d {} B, d2h {} B\n",
            snap.counter("gpu.warp_comparisons"),
            snap.counter("gpu.global_transactions"),
            snap.counter("gpu.global_bytes"),
            snap.counter("gpu.h2d_bytes"),
            snap.counter("gpu.d2h_bytes"),
        ));
    }
    // Durable builds only: what the commits cost in bytes. A sealed run
    // is hashed and written once, so checksummed stays at or below
    // written however many checkpoints re-stage it by reference.
    if snap.counter("store.commits") > 0 {
        out.push_str(&format!(
            "store: {} commits, {} B written, {} B checksummed, {} artifacts reused, {} fsyncs\n",
            snap.counter("store.commits"),
            snap.counter("store.bytes_written"),
            snap.counter("store.bytes_checksummed"),
            snap.counter("store.artifacts_reused"),
            snap.counter("store.fsyncs"),
        ));
    }
    // Only builds that ran with a budget (or hit any rung of the
    // degradation ladder) get a governor row; unlimited, untouched
    // builds keep the table unchanged.
    let budget = snap.gauge("governor.budget_bytes");
    let degraded = snap.counter("governor.credit_waits")
        + snap.counter("governor.early_flushes")
        + snap.counter("governor.gpu_sheds")
        + snap.counter("governor.squeezes");
    if budget > 0 || degraded > 0 {
        out.push_str(&format!(
            "governor: budget {:.1} MB (high water {:.1} MB), {} credit waits ({:.3} s), \
             {} early flushes, {} gpu sheds, {} squeezes\n",
            budget as f64 / 1e6,
            snap.gauge("governor.high_water_bytes") as f64 / 1e6,
            snap.counter("governor.credit_waits"),
            snap.counter("governor.credit_wait_ns") as f64 / 1e9,
            snap.counter("governor.early_flushes"),
            snap.counter("governor.gpu_sheds"),
            snap.counter("governor.squeezes"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_obs::Registry;

    #[test]
    fn render_includes_known_stages_in_order() {
        let r = Registry::new();
        drop(r.stage("index").span());
        {
            let read = r.stage("read");
            let mut s = read.span();
            s.add_bytes(4096);
        }
        r.counter("dict.cache_hits").add(90);
        r.counter("dict.cache_misses").add(10);
        r.counter("dict.node_splits").add(3);
        let b = r.snapshot();
        let t = render_table(&b);
        let read_at = t.find("read").unwrap();
        let index_at = t.find("index").unwrap();
        assert!(read_at < index_at, "dataflow order:\n{t}");
        assert!(t.contains("90.0% hit"), "{t}");
        assert!(t.contains("3 node splits"), "{t}");
        assert_eq!(cache_hit_rate(&b), Some(0.9));
        assert_eq!(b.counter("no.such.counter"), 0);
    }

    #[test]
    fn empty_breakdown_renders_header_only() {
        let b = Snapshot::default();
        let t = render_table(&b);
        assert!(t.contains("stage"));
        assert!(cache_hit_rate(&b).is_none());
        assert!(!t.contains("governor:"), "no governor row without a budget");
        assert!(!t.contains("store:"), "no store row without a commit");
    }

    #[test]
    fn store_row_appears_only_for_durable_builds() {
        let r = Registry::new();
        r.counter("store.commits").add(3);
        r.counter("store.bytes_written").add(5000);
        r.counter("store.bytes_checksummed").add(4000);
        r.counter("store.artifacts_reused").add(6);
        r.counter("store.fsyncs").add(17);
        let t = render_table(&r.snapshot());
        assert!(
            t.contains("store: 3 commits, 5000 B written, 4000 B checksummed, 6 artifacts reused, 17 fsyncs"),
            "{t}"
        );
    }

    #[test]
    fn governor_row_appears_only_under_budget_or_degradation() {
        let r = Registry::new();
        r.gauge("governor.budget_bytes").set(64_000_000);
        r.gauge("governor.high_water_bytes").set(48_000_000);
        r.counter("governor.early_flushes").add(3);
        let b = r.snapshot();
        let t = render_table(&b);
        assert!(t.contains("governor: budget 64.0 MB (high water 48.0 MB)"), "{t}");
        assert!(t.contains("3 early flushes"), "{t}");
        assert_eq!(b.gauge("governor.budget_bytes"), 64_000_000);
        assert_eq!(b.gauge("no.such.gauge"), 0);

        // Unlimited budget but a squeeze mid-build still earns the row.
        let r2 = Registry::new();
        r2.counter("governor.squeezes").add(1);
        let t2 = render_table(&r2.snapshot());
        assert!(t2.contains("1 squeezes"), "{t2}");
    }
}
