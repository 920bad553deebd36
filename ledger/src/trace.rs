//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The staged replay runs on one thread, so spans nest strictly: a span's
//! parent is whichever span was open when it started. Spans are kept in
//! memory and written out as JSON when the run ends.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call (or group of calls) into a layer.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the crate name.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<u64>,
    /// Shared identifier of one unit of work: the container-file index on
    /// the build side, the pass number on the query side.
    pub id: u64,
}

/// Handle of an open span; closing takes it by value so a span closes once.
#[must_use = "an open span must be closed"]
pub struct Open(usize);

/// In-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Start recording; span times are relative to now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str, id: u64) -> Open {
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().map(|&p| p as u64),
            id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close the innermost open span, which must be `span`.
    pub fn close(&mut self, span: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans close in the order they nest");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Time one call as a span.
    pub fn time<T>(&mut self, name: &str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, id);
        let out = f();
        self.close(s);
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus its direct children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Seconds of self time summed per span name.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *by_name.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e9;
        }
        by_name
    }

    /// Share of the named span's duration that its direct children cover:
    /// 1 minus this is time the benchmark itself spent between layer calls.
    pub fn coverage(&self, name: &str) -> f64 {
        let Some(root) = self.spans.iter().position(|s| s.name == name) else {
            return 0.0;
        };
        let total = self.spans[root].end_ns - self.spans[root].start_ns;
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root as u64))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// The trace as JSON: `{"spans": [...], "self_seconds": {...}}`.
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct NameSeconds {
            name: String,
            self_seconds: f64,
        }
        #[derive(Serialize)]
        struct File {
            spans: Vec<Span>,
            self_seconds: Vec<NameSeconds>,
        }
        let file = File {
            spans: self.spans.clone(),
            self_seconds: self
                .self_seconds()
                .into_iter()
                .map(|(name, self_seconds)| NameSeconds { name, self_seconds })
                .collect(),
        };
        serde_json::to_string(&file).expect("trace serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new();
        let root = r.open("root", 0);
        r.time("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        r.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        r.close(root);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let own = r.self_seconds();
        let root_total = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9;
        assert!(own["child"] >= 0.010);
        assert!((own["root"] + own["child"] - root_total).abs() < 1e-9);
        assert!(r.coverage("root") > 0.5 && r.coverage("root") <= 1.0);
        assert!(r.to_json().contains("\"self_seconds\""));
    }
}
