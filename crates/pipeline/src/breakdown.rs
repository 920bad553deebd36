//! Per-stage breakdown of one pipeline build (paper Table V / Fig 9).
//!
//! `build_index` records every stage of the dataflow — serialized read,
//! decompression, parsing, indexing, run flush, dictionary combine/write —
//! into a per-build [`ii_obs::Registry`] and freezes it here. The
//! breakdown carries wall time, queue-wait time, payload bytes, and item
//! counts per stage, plus the deep counters (B-tree node splits,
//! string-cache hit rate, warp comparisons, simulated-GPU traffic), and
//! renders the Table V-style text used by `ii build --stats`.

use ii_obs::{Snapshot, StageSnapshot};

/// Frozen per-stage metrics of one build.
#[derive(Clone, Debug, Default)]
pub struct StageBreakdown {
    /// The raw registry snapshot (counters, gauges, histograms, stages).
    /// `snapshot.to_json()` is the `--stats-json` / bench-file format.
    pub snapshot: Snapshot,
}

impl StageBreakdown {
    /// Freeze a registry into a breakdown.
    pub fn from_registry(r: &ii_obs::Registry) -> StageBreakdown {
        StageBreakdown { snapshot: r.snapshot() }
    }

    /// A stage's frozen metrics, if it was recorded.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.snapshot.stages.get(name)
    }

    /// A counter's value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.snapshot.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's last level (0 when never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.snapshot.gauges.get(name).copied().unwrap_or(0)
    }

    /// Fraction of dictionary node searches settled by the in-node 4-byte
    /// head/cache array alone (paper §III.D.1), `None` before any search.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits = self.counter("dict.cache_hits");
        let total = hits + self.counter("dict.cache_misses");
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Render the Table V-style per-stage table plus the deep counters.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12}{:>10}{:>12}{:>14}{:>8}{:>10}\n",
            "stage", "wall s", "q-wait s", "bytes", "items", "MB/s"
        ));
        out.push_str(&format!("{}\n", "-".repeat(66)));
        // Dataflow order, not alphabetical.
        for name in ["read", "decompress", "parse", "index", "post_process", "dict_combine", "dict_write"] {
            let Some(s) = self.stage(name) else { continue };
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
        for (name, s) in &self.snapshot.stages {
            if ["read", "decompress", "parse", "index", "post_process", "dict_combine", "dict_write"]
                .contains(&name.as_str())
            {
                continue;
            }
            out.push_str(&format!(
                "{:<12}{:>10.3}{:>12.3}{:>14}{:>8}\n",
                name, s.wall_seconds, s.queue_wait_seconds, s.bytes, s.items
            ));
        }
        if let Some(rate) = self.cache_hit_rate() {
            out.push_str(&format!(
                "string cache: {:.1}% hit ({} hits / {} misses), {} node splits, {} head ties settled by length\n",
                rate * 100.0,
                self.counter("dict.cache_hits"),
                self.counter("dict.cache_misses"),
                self.counter("dict.node_splits"),
                self.counter("dict.head_tie_breaks"),
            ));
        }
        if self.counter("gpu.warp_comparisons") > 0 {
            out.push_str(&format!(
                "gpu: {} warp comparisons, {} global transactions ({} B), h2d {} B, d2h {} B\n",
                self.counter("gpu.warp_comparisons"),
                self.counter("gpu.global_transactions"),
                self.counter("gpu.global_bytes"),
                self.counter("gpu.h2d_bytes"),
                self.counter("gpu.d2h_bytes"),
            ));
        }
        // Durable builds only: what the commits cost in bytes. A sealed run
        // is hashed and written once, so checksummed stays at or below
        // written however many checkpoints re-stage it by reference.
        if self.counter("store.commits") > 0 {
            out.push_str(&format!(
                "store: {} commits, {} B written, {} B checksummed, {} artifacts reused, {} fsyncs\n",
                self.counter("store.commits"),
                self.counter("store.bytes_written"),
                self.counter("store.bytes_checksummed"),
                self.counter("store.artifacts_reused"),
                self.counter("store.fsyncs"),
            ));
        }
        // Only builds that ran with a budget (or hit any rung of the
        // degradation ladder) get a governor row; unlimited, untouched
        // builds keep the table unchanged.
        let budget = self.gauge("governor.budget_bytes");
        let degraded = self.counter("governor.credit_waits")
            + self.counter("governor.early_flushes")
            + self.counter("governor.gpu_sheds")
            + self.counter("governor.squeezes");
        if budget > 0 || degraded > 0 {
            out.push_str(&format!(
                "governor: budget {:.1} MB (high water {:.1} MB), {} credit waits ({:.3} s), \
                 {} early flushes, {} gpu sheds, {} squeezes\n",
                budget as f64 / 1e6,
                self.gauge("governor.high_water_bytes") as f64 / 1e6,
                self.counter("governor.credit_waits"),
                self.counter("governor.credit_wait_ns") as f64 / 1e9,
                self.counter("governor.early_flushes"),
                self.counter("governor.gpu_sheds"),
                self.counter("governor.squeezes"),
            ));
        }
        out
    }
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
        let b = StageBreakdown::from_registry(&r);
        let t = b.render_table();
        let read_at = t.find("read").unwrap();
        let index_at = t.find("index").unwrap();
        assert!(read_at < index_at, "dataflow order:\n{t}");
        assert!(t.contains("90.0% hit"), "{t}");
        assert!(t.contains("3 node splits"), "{t}");
        assert_eq!(b.cache_hit_rate(), Some(0.9));
        assert_eq!(b.counter("no.such.counter"), 0);
    }

    #[test]
    fn empty_breakdown_renders_header_only() {
        let b = StageBreakdown::default();
        let t = b.render_table();
        assert!(t.contains("stage"));
        assert!(b.cache_hit_rate().is_none());
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
        let t = StageBreakdown::from_registry(&r).render_table();
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
        let b = StageBreakdown::from_registry(&r);
        let t = b.render_table();
        assert!(t.contains("governor: budget 64.0 MB (high water 48.0 MB)"), "{t}");
        assert!(t.contains("3 early flushes"), "{t}");
        assert_eq!(b.gauge("governor.budget_bytes"), 64_000_000);
        assert_eq!(b.gauge("no.such.gauge"), 0);

        // Unlimited budget but a squeeze mid-build still earns the row.
        let r2 = Registry::new();
        r2.counter("governor.squeezes").add(1);
        let t2 = StageBreakdown::from_registry(&r2).render_table();
        assert!(t2.contains("1 squeezes"), "{t2}");
    }
}
