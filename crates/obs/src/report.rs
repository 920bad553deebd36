//! Trace reduction: per-worker utilization, stall attribution, and an
//! ASCII timeline — the machine-checkable form of the paper's Fig 9.
//!
//! A [`TraceReport`] decomposes every worker's wall time into per-kind
//! work and stall buckets plus an explicit idle remainder, so the buckets
//! sum *exactly* to wall time by construction. [`TraceReport::check`]
//! re-verifies that accounting (±1%) along with the structural span
//! invariants, which is what CI's trace smoke step runs.

use crate::trace::{Trace, TraceKind, ALL_KINDS};

/// One worker's time accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerReport {
    /// Worker name (`parser-0`, `driver`, `cpu-0`, `gpu-1`, …).
    pub name: String,
    /// Recorded wall time: last span end − first span start, ns.
    pub wall_ns: u64,
    /// Time inside work-kind spans, ns.
    pub busy_ns: u64,
    /// Time inside stall-kind spans, ns.
    pub stall_ns: u64,
    /// Wall time covered by no span at all, ns.
    pub idle_ns: u64,
    /// Per-kind totals in [`ALL_KINDS`] order, ns.
    pub by_kind_ns: [u64; ALL_KINDS.len()],
    /// Number of recorded spans.
    pub spans: usize,
    /// Bytes attributed to work spans.
    pub bytes: u64,
    /// Events lost to ring overflow on this worker.
    pub dropped: u64,
    /// Exact p999 of work-span durations, ns (0 if no work spans). Unlike
    /// the registry histograms this is computed from the raw event
    /// durations, so there is no bucket rounding.
    pub p999_ns: u64,
}

impl WorkerReport {
    /// busy / wall, in `[0, 1]` (0 for an empty worker).
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }

    /// The work kind this worker spent the most time in, if any.
    pub fn dominant_kind(&self) -> Option<TraceKind> {
        ALL_KINDS
            .iter()
            .enumerate()
            .filter(|(_, k)| !k.is_stall())
            .max_by_key(|(i, _)| self.by_kind_ns[*i])
            .filter(|(i, _)| self.by_kind_ns[*i] > 0)
            .map(|(_, k)| *k)
    }
}

/// The reduced trace: every worker's accounting plus cross-worker
/// aggregates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// Per-worker accounting, in trace order.
    pub workers: Vec<WorkerReport>,
    /// The work kind with the largest total busy time across all workers
    /// — the pipeline's critical stage (the paper's "slowest stage"
    /// bound).
    pub critical_stage: Option<TraceKind>,
    /// Summed busy ns per kind across workers, [`ALL_KINDS`] order.
    pub total_by_kind_ns: [u64; ALL_KINDS.len()],
    /// Peak sampled depth per gauge, `(name, peak)`.
    pub gauge_peaks: Vec<(String, i64)>,
    /// Total events lost to ring overflow.
    pub dropped: u64,
    /// Earliest span start across workers, ns (timeline origin).
    pub t0_ns: u64,
    /// Latest span end across workers, ns.
    pub t1_ns: u64,
}

impl TraceReport {
    /// Reduce a merged trace.
    pub fn from_trace(trace: &Trace) -> TraceReport {
        let mut workers = Vec::with_capacity(trace.workers.len());
        let mut total_by_kind_ns = [0u64; ALL_KINDS.len()];
        let mut t0 = u64::MAX;
        let mut t1 = 0u64;
        for w in &trace.workers {
            let mut r = WorkerReport {
                name: w.name.clone(),
                spans: w.events.len(),
                dropped: w.dropped,
                ..Default::default()
            };
            if let Some((start, end)) = w.lifetime_ns() {
                r.wall_ns = end - start;
                t0 = t0.min(start);
                t1 = t1.max(end);
            }
            let mut work_durs = Vec::new();
            for e in &w.events {
                let slot = ALL_KINDS.iter().position(|k| *k == e.kind).unwrap();
                r.by_kind_ns[slot] += e.dur_ns();
                if e.kind.is_stall() {
                    r.stall_ns += e.dur_ns();
                } else {
                    r.busy_ns += e.dur_ns();
                    r.bytes += e.bytes;
                    total_by_kind_ns[slot] += e.dur_ns();
                    work_durs.push(e.dur_ns());
                }
            }
            if !work_durs.is_empty() {
                work_durs.sort_unstable();
                let rank = ((0.999 * work_durs.len() as f64).ceil() as usize)
                    .clamp(1, work_durs.len());
                r.p999_ns = work_durs[rank - 1];
            }
            // Validated traces have non-overlapping spans, so covered time
            // never exceeds wall and idle is the exact remainder.
            r.idle_ns = r.wall_ns.saturating_sub(r.busy_ns + r.stall_ns);
            workers.push(r);
        }
        let critical_stage = ALL_KINDS
            .iter()
            .enumerate()
            .filter(|(_, k)| !k.is_stall())
            .max_by_key(|(i, _)| total_by_kind_ns[*i])
            .filter(|(i, _)| total_by_kind_ns[*i] > 0)
            .map(|(_, k)| *k);
        let gauge_peaks = trace
            .gauges
            .iter()
            .map(|g| {
                (g.name.clone(), g.samples.iter().map(|(_, v)| *v).max().unwrap_or(0))
            })
            .collect();
        TraceReport {
            workers,
            critical_stage,
            total_by_kind_ns,
            gauge_peaks,
            dropped: trace.dropped,
            t0_ns: if t0 == u64::MAX { 0 } else { t0 },
            t1_ns: t1,
        }
    }

    /// Machine-checkable acceptance: structural validity, every worker
    /// did some work, and each worker's buckets sum to its wall time
    /// within 1%.
    pub fn check(&self, trace: &Trace) -> Result<(), String> {
        trace.validate()?;
        if self.workers.is_empty() {
            return Err("trace has no workers".into());
        }
        for w in &self.workers {
            if w.busy_ns == 0 {
                return Err(format!("worker '{}' recorded no work", w.name));
            }
            let accounted = w.busy_ns + w.stall_ns + w.idle_ns;
            let err = (accounted as f64 - w.wall_ns as f64).abs();
            if w.wall_ns > 0 && err > w.wall_ns as f64 * 0.01 {
                return Err(format!(
                    "worker '{}': busy+stall+idle = {} ns but wall = {} ns",
                    w.name, accounted, w.wall_ns
                ));
            }
        }
        Ok(())
    }

    /// Render the human-readable report: utilization/attribution table,
    /// critical stage, queue peaks, and an ASCII timeline `width` columns
    /// wide.
    pub fn render(&self, trace: &Trace, width: usize) -> String {
        let width = width.clamp(20, 200);
        let mut o = String::new();
        let name_w = self.workers.iter().map(|w| w.name.len()).max().unwrap_or(6).max(6);
        let span_ns = self.t1_ns.saturating_sub(self.t0_ns).max(1);
        o.push_str(&format!(
            "trace: {} workers, {} spans, {:.3} s span{}\n\n",
            self.workers.len(),
            self.workers.iter().map(|w| w.spans).sum::<usize>(),
            span_ns as f64 / 1e9,
            if self.dropped > 0 {
                format!(", {} events dropped", self.dropped)
            } else {
                String::new()
            }
        ));
        o.push_str(&format!(
            "{:<name_w$}  {:>8}  {:>6}  {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  dominant\n",
            "worker", "wall s", "util%", "work s", "read-wait", "queue-full", "parser-wait",
            "mem-wait", "p999 ms"
        ));
        let col = |ns: u64| format!("{:.3}", ns as f64 / 1e9);
        for w in &self.workers {
            let k = |kind: TraceKind| {
                w.by_kind_ns[ALL_KINDS.iter().position(|x| *x == kind).unwrap()]
            };
            o.push_str(&format!(
                "{:<name_w$}  {:>8}  {:>5.1}%  {:>9} {:>9} {:>10} {:>11} {:>9} {:>9.3}  {}\n",
                w.name,
                col(w.wall_ns),
                w.utilization() * 100.0,
                col(w.busy_ns),
                col(k(TraceKind::DiskWait)),
                col(k(TraceKind::QueueFull)),
                col(k(TraceKind::ParserWait)),
                col(k(TraceKind::MemoryWait)),
                w.p999_ns as f64 / 1e6,
                w.dominant_kind().map(|d| d.label()).unwrap_or("-"),
            ));
        }
        if let Some(c) = self.critical_stage {
            let total =
                self.total_by_kind_ns[ALL_KINDS.iter().position(|x| *x == c).unwrap()];
            o.push_str(&format!(
                "\ncritical stage: {} ({:.3} s total busy across workers)\n",
                c.label(),
                total as f64 / 1e9
            ));
        }
        for (name, peak) in &self.gauge_peaks {
            o.push_str(&format!("queue peak: {name} = {peak}\n"));
        }
        // ASCII timeline: one row per worker, dominant kind per column.
        o.push_str(&format!(
            "\ntimeline ({} columns x {:.1} ms/col):\n",
            width,
            span_ns as f64 / width as f64 / 1e6
        ));
        for (wi, w) in self.workers.iter().enumerate() {
            let events = &trace.workers[wi].events;
            let mut row = String::with_capacity(width);
            for c in 0..width {
                let lo = self.t0_ns + (span_ns as u128 * c as u128 / width as u128) as u64;
                let hi =
                    self.t0_ns + (span_ns as u128 * (c as u128 + 1) / width as u128) as u64;
                // Dominant kind within [lo, hi): most covered ns wins.
                let mut cover = [0u64; ALL_KINDS.len()];
                for e in events {
                    if e.t_start_ns >= hi {
                        break;
                    }
                    let ov = e.t_end_ns.min(hi).saturating_sub(e.t_start_ns.max(lo));
                    if ov > 0 {
                        cover[ALL_KINDS.iter().position(|k| *k == e.kind).unwrap()] += ov;
                    }
                }
                let best = (0..ALL_KINDS.len()).max_by_key(|i| cover[*i]).unwrap();
                row.push(if cover[best] == 0 { '·' } else { ALL_KINDS[best].glyph() });
            }
            o.push_str(&format!("{:<name_w$}  {row}\n", w.name));
        }
        o.push_str(
            "legend: R read  D decompress  P parse  I index  F flush  K checkpoint  \
             C dict_combine  W dict_write  S sample  H help\n        \
             d disk-wait  q queue-full  w parser-wait  m mem-wait  · idle\n",
        );
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{GpuSpanArgs, TraceEvent, WorkerTrace, NO_ID};

    fn ev(kind: TraceKind, start: u64, end: u64, bytes: u64) -> TraceEvent {
        TraceEvent {
            kind,
            t_start_ns: start,
            t_end_ns: end,
            bytes,
            batch_id: NO_ID,
            trie_lo: NO_ID,
            trie_hi: NO_ID,
            gpu: None,
        }
    }

    fn sample_trace() -> Trace {
        let mut tr = Trace::default();
        tr.workers.push(WorkerTrace {
            name: "parser-0".into(),
            events: vec![
                ev(TraceKind::Read, 0, 300, 1000),
                ev(TraceKind::Parse, 300, 800, 0),
                ev(TraceKind::QueueFull, 800, 1000, 0),
            ],
            dropped: 0,
        });
        tr.workers.push(WorkerTrace {
            name: "driver".into(),
            events: vec![
                ev(TraceKind::ParserWait, 0, 400, 0),
                ev(TraceKind::Index, 400, 900, 0),
            ],
            dropped: 0,
        });
        tr
    }

    #[test]
    fn attribution_sums_to_wall_exactly() {
        let tr = sample_trace();
        let rep = TraceReport::from_trace(&tr);
        for w in &rep.workers {
            assert_eq!(w.busy_ns + w.stall_ns + w.idle_ns, w.wall_ns, "{}", w.name);
        }
        let p = &rep.workers[0];
        assert_eq!(p.wall_ns, 1000);
        assert_eq!(p.busy_ns, 800);
        assert_eq!(p.stall_ns, 200);
        assert_eq!(p.idle_ns, 0);
        assert_eq!(p.bytes, 1000);
        assert!((p.utilization() - 0.8).abs() < 1e-9);
        let d = &rep.workers[1];
        assert_eq!(d.busy_ns, 500);
        assert_eq!(d.stall_ns, 400);
        // p999 over the exact work-span durations: parser [300, 500] and
        // driver [500] both land on 500 ns; stalls are excluded.
        assert_eq!(p.p999_ns, 500);
        assert_eq!(d.p999_ns, 500);
        rep.check(&tr).unwrap();
    }

    #[test]
    fn critical_stage_is_largest_work_kind() {
        let tr = sample_trace();
        let rep = TraceReport::from_trace(&tr);
        // parse 500 vs read 300 vs index 500 — tie broken by kind order is
        // fine, but here index(500) == parse(500); max_by_key keeps the
        // *last* max, which is Index in ALL_KINDS order.
        assert_eq!(rep.critical_stage, Some(TraceKind::Index));
        assert_eq!(rep.workers[1].dominant_kind(), Some(TraceKind::Index));
    }

    #[test]
    fn check_flags_idle_workers() {
        let mut tr = sample_trace();
        tr.workers.push(WorkerTrace {
            name: "gpu-0".into(),
            events: vec![ev(TraceKind::ParserWait, 0, 100, 0)],
            dropped: 0,
        });
        let rep = TraceReport::from_trace(&tr);
        let err = rep.check(&tr).unwrap_err();
        assert!(err.contains("gpu-0"), "{err}");
    }

    #[test]
    fn render_includes_table_timeline_and_legend() {
        let mut tr = sample_trace();
        tr.workers[1].events[1].gpu = Some(GpuSpanArgs::default());
        tr.gauges.push(crate::trace::GaugeTrack {
            name: "queue.parsed".into(),
            samples: vec![(0, 1), (500, 3), (900, 0)],
        });
        let rep = TraceReport::from_trace(&tr);
        let out = rep.render(&tr, 40);
        assert!(out.contains("parser-0"));
        assert!(out.contains("critical stage: index"));
        assert!(out.contains("queue peak: queue.parsed = 3"));
        assert!(out.contains("p999 ms"));
        assert!(out.contains("legend:"));
        // Timeline rows contain work glyphs.
        assert!(out.contains('P') && out.contains('I'), "{out}");
    }
}
