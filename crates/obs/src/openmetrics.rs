//! OpenMetrics/Prometheus text exposition of a metrics [`Snapshot`].
//!
//! [`render`] maps the registry's four metric shapes onto four exposition
//! families, using the original dotted metric name as a *label* rather
//! than mangling it into the sample name (so `worker.parser-0.idle_ms`
//! survives round trips exactly):
//!
//! * counters  → `ii_counter_total{name="..."}`
//! * gauges    → `ii_gauge{name="..."}`
//! * histograms → `ii_histogram_ns_bucket{name="...",le="..."}` with the
//!   *cumulative* `le` semantics Prometheus expects, mapped from the
//!   log-bucketed [`Histogram`]'s per-bucket counts, plus
//!   `ii_histogram_ns_count`
//! * stages    → `ii_stage_wall_seconds{stage=...}`,
//!   `ii_stage_queue_wait_seconds`, `ii_stage_bytes_total`,
//!   `ii_stage_items_total`, and an `ii_stage_latency_ns` histogram
//!
//! [`parse`] reads the format back (the `ii top` poller and the lint both
//! run on it), and [`lint`] enforces the structural rules the proptests
//! pin down: terminal `# EOF`, `# TYPE` before first sample of a family,
//! valid names, label escaping, monotone cumulative buckets ending in a
//! `+Inf` bucket that equals `_count`.
//!
//! No `_sum` series are emitted: the histograms store bucket counts only,
//! and a fabricated sum would be worse than an absent one.

use crate::{Histogram, Snapshot};

/// Escape a label value per the OpenMetrics text format: backslash,
/// double-quote, and newline get backslash escapes; everything else is
/// passed through (the format is UTF-8).
pub fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn push_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Upper bound of histogram bucket `i` as an exposition `le` string
/// (`"+Inf"` for the overflow bucket).
fn le_str(i: usize) -> String {
    match Histogram::BOUNDS.get(i) {
        Some(b) => b.to_string(),
        None => "+Inf".to_string(),
    }
}

/// Emit one histogram's cumulative bucket series plus its `_count`.
fn push_histogram(out: &mut String, family: &str, label_key: &str, label_val: &str, counts: &[u64]) {
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cum += c;
        let le = le_str(i);
        push_sample(
            out,
            &format!("{family}_bucket"),
            &[(label_key, label_val), ("le", &le)],
            &cum.to_string(),
        );
    }
    // A histogram snapshot always covers the full bucket array, but guard
    // against a hand-built short one: the series must end at +Inf.
    if counts.len() <= Histogram::BOUNDS.len() {
        push_sample(
            out,
            &format!("{family}_bucket"),
            &[(label_key, label_val), ("le", "+Inf")],
            &cum.to_string(),
        );
    }
    push_sample(out, &format!("{family}_count"), &[(label_key, label_val)], &cum.to_string());
}

/// Render a snapshot as OpenMetrics text, terminated by `# EOF`.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("# TYPE ii_counter counter\n");
    out.push_str("# HELP ii_counter Monotonic event counters, by dotted registry name.\n");
    for (name, v) in &snap.counters {
        push_sample(&mut out, "ii_counter_total", &[("name", name)], &v.to_string());
    }
    out.push_str("# TYPE ii_gauge gauge\n");
    out.push_str("# HELP ii_gauge Last-write-wins levels, by dotted registry name.\n");
    for (name, v) in &snap.gauges {
        push_sample(&mut out, "ii_gauge", &[("name", name)], &v.to_string());
    }
    out.push_str("# TYPE ii_histogram_ns histogram\n");
    out.push_str("# HELP ii_histogram_ns Nanosecond latency histograms (power-of-4 buckets).\n");
    for (name, counts) in &snap.histograms {
        push_histogram(&mut out, "ii_histogram_ns", "name", name, counts);
    }
    out.push_str("# TYPE ii_stage_wall_seconds gauge\n");
    out.push_str("# HELP ii_stage_wall_seconds Busy wall seconds per pipeline stage.\n");
    for (name, s) in &snap.stages {
        push_sample(
            &mut out,
            "ii_stage_wall_seconds",
            &[("stage", name)],
            &format!("{:.9}", s.wall_seconds),
        );
    }
    out.push_str("# TYPE ii_stage_queue_wait_seconds gauge\n");
    out.push_str("# HELP ii_stage_queue_wait_seconds Seconds blocked on inter-stage queues.\n");
    for (name, s) in &snap.stages {
        push_sample(
            &mut out,
            "ii_stage_queue_wait_seconds",
            &[("stage", name)],
            &format!("{:.9}", s.queue_wait_seconds),
        );
    }
    out.push_str("# TYPE ii_stage_bytes counter\n");
    out.push_str("# HELP ii_stage_bytes Payload bytes processed per stage.\n");
    for (name, s) in &snap.stages {
        push_sample(&mut out, "ii_stage_bytes_total", &[("stage", name)], &s.bytes.to_string());
    }
    out.push_str("# TYPE ii_stage_items counter\n");
    out.push_str("# HELP ii_stage_items Work items processed per stage.\n");
    for (name, s) in &snap.stages {
        push_sample(&mut out, "ii_stage_items_total", &[("stage", name)], &s.items.to_string());
    }
    out.push_str("# TYPE ii_stage_latency_ns histogram\n");
    out.push_str("# HELP ii_stage_latency_ns Per-item latency histogram per stage.\n");
    for (name, s) in &snap.stages {
        push_histogram(&mut out, "ii_stage_latency_ns", "stage", name, &s.latency);
    }
    out.push_str("# EOF\n");
    out
}

/// One parsed exposition sample.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricPoint {
    /// Sample name (including any `_total`/`_bucket`/`_count` suffix).
    pub name: String,
    /// Label pairs in source order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf` parses to `f64::INFINITY`).
    pub value: f64,
}

impl MetricPoint {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one sample line (`name{labels} value`).
fn parse_sample(line: &str) -> Result<MetricPoint, String> {
    let name_end = line.find(['{', ' ']).ok_or_else(|| format!("no value in '{line}'"))?;
    let name = &line[..name_end];
    if !valid_name(name) {
        return Err(format!("invalid metric name '{name}'"));
    }
    let mut labels = Vec::new();
    let mut rest = &line[name_end..];
    if let Some(r) = rest.strip_prefix('{') {
        // `pos` always sits on the next unconsumed byte of `r`.
        let mut pos = 0usize;
        loop {
            if r[pos..].starts_with('}') {
                if !labels.is_empty() {
                    return Err("trailing ',' before '}'".into());
                }
                pos += 1;
                break;
            }
            let eq = r[pos..].find('=').ok_or("label without '='")?;
            let key = &r[pos..pos + eq];
            if key.is_empty()
                || key.starts_with(|c: char| c.is_ascii_digit())
                || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                return Err(format!("invalid label name '{key}'"));
            }
            pos += eq + 1;
            if !r[pos..].starts_with('"') {
                return Err(format!("label '{key}' value must be quoted"));
            }
            pos += 1;
            // Quoted, escaped value.
            let mut val = String::new();
            let mut chars = r[pos..].char_indices();
            let mut closed = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        closed = Some(i + 1);
                        break;
                    }
                    '\\' => {
                        let Some((_, e)) = chars.next() else {
                            return Err("dangling escape in label value".into());
                        };
                        match e {
                            'n' => val.push('\n'),
                            '\\' => val.push('\\'),
                            '"' => val.push('"'),
                            e => return Err(format!("unknown escape '\\{e}' in label value")),
                        }
                    }
                    c => val.push(c),
                }
            }
            pos += closed.ok_or_else(|| format!("unterminated value for label '{key}'"))?;
            labels.push((key.to_string(), val));
            if r[pos..].starts_with(',') {
                pos += 1;
            } else if r[pos..].starts_with('}') {
                pos += 1;
                break;
            } else {
                return Err("expected ',' or '}' after label".into());
            }
        }
        rest = &r[pos..];
    }
    let value = rest.trim();
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse::<f64>().map_err(|_| format!("bad sample value '{v}'"))?,
    };
    Ok(MetricPoint { name: name.to_string(), labels, value })
}

/// Parse an exposition into its samples, skipping `#` comment lines.
pub fn parse(text: &str) -> Result<Vec<MetricPoint>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}", ln + 1))?);
    }
    Ok(out)
}

/// What a clean [`lint`] pass saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LintSummary {
    /// Parsed sample lines.
    pub samples: usize,
    /// Distinct `# TYPE`-declared families.
    pub families: usize,
    /// Distinct cumulative bucket series checked.
    pub bucket_series: usize,
}

/// Family name of a sample: the name with any reserved suffix stripped,
/// if that base was `# TYPE`-declared; else the name itself.
fn family_of<'a>(name: &'a str, typed: &std::collections::BTreeMap<String, String>) -> &'a str {
    for suffix in ["_total", "_bucket", "_count", "_sum"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if typed.contains_key(base) {
                return base;
            }
        }
    }
    name
}

/// Structural validation of an exposition: parses every line, enforces
/// `# EOF` termination, `# TYPE` before first use, counters named
/// `*_total`, and — for every `_bucket` series — monotone nondecreasing
/// cumulative counts ending in a `+Inf` bucket that equals the matching
/// `_count` sample.
pub fn lint(text: &str) -> Result<LintSummary, String> {
    if text.lines().last().map(str::trim_end) != Some("# EOF") {
        return Err("exposition must end with '# EOF'".into());
    }
    let mut typed: std::collections::BTreeMap<String, String> = Default::default();
    let mut points = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let err = |e: String| format!("line {}: {e}", ln + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("# TYPE ") {
            let mut it = meta.split_whitespace();
            let (Some(fam), Some(kind)) = (it.next(), it.next()) else {
                return Err(err("malformed # TYPE line".into()));
            };
            if !valid_name(fam) {
                return Err(err(format!("invalid family name '{fam}'")));
            }
            if typed.insert(fam.to_string(), kind.to_string()).is_some() {
                return Err(err(format!("family '{fam}' declared twice")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let p = parse_sample(line).map_err(err)?;
        let fam = family_of(&p.name, &typed);
        let Some(kind) = typed.get(fam) else {
            return Err(err(format!("sample '{}' has no preceding # TYPE", p.name)));
        };
        if kind == "counter" && !p.name.ends_with("_total") {
            return Err(err(format!("counter sample '{}' must end in _total", p.name)));
        }
        points.push(p);
    }
    // Cumulative-bucket discipline, grouped by (base name, labels sans le).
    let mut series: std::collections::BTreeMap<String, Vec<(f64, f64)>> = Default::default();
    for p in &points {
        let Some(base) = p.name.strip_suffix("_bucket") else { continue };
        let le = p
            .label("le")
            .ok_or_else(|| format!("bucket sample '{}' missing le label", p.name))?;
        let le = match le {
            "+Inf" => f64::INFINITY,
            v => v.parse::<f64>().map_err(|_| format!("bad le '{v}' on '{}'", p.name))?,
        };
        let mut key = format!("{base}|");
        for (k, v) in &p.labels {
            if k != "le" {
                key.push_str(&format!("{k}={}|", escape_label(v)));
            }
        }
        series.entry(key).or_default().push((le, p.value));
    }
    for (key, buckets) in &mut series {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let name = key.split('|').next().unwrap_or(key);
        if buckets.last().map(|(le, _)| *le) != Some(f64::INFINITY) {
            return Err(format!("bucket series '{key}' has no +Inf bucket"));
        }
        for w in buckets.windows(2) {
            if w[1].1 < w[0].1 {
                return Err(format!(
                    "bucket series '{key}' not cumulative: le={} count {} < le={} count {}",
                    w[1].0, w[1].1, w[0].0, w[0].1
                ));
            }
        }
        let inf = buckets.last().unwrap().1;
        let labels_key = key.strip_prefix(&format!("{name}|")).unwrap_or("");
        let count = points.iter().find(|p| {
            p.name == format!("{name}_count") && {
                let mut k = String::new();
                for (lk, lv) in &p.labels {
                    k.push_str(&format!("{lk}={}|", escape_label(lv)));
                }
                k == labels_key
            }
        });
        if let Some(c) = count {
            if c.value != inf {
                return Err(format!(
                    "series '{key}': +Inf bucket {inf} != _count {}",
                    c.value
                ));
            }
        }
    }
    Ok(LintSummary { samples: points.len(), families: typed.len(), bucket_series: series.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("pipeline.docs").add(48);
        r.counter("queue.parsed.sends").add(7);
        r.gauge("worker.parser-0.idle_ms").set(-2);
        r.histogram("lat").record_ns(100);
        r.histogram("lat").record_ns(u64::MAX);
        let st = r.stage("read");
        {
            let mut sp = st.span();
            sp.add_bytes(1024);
        }
        r.snapshot()
    }

    #[test]
    fn render_parses_and_lints_clean() {
        let text = render(&sample_snapshot());
        let summary = lint(&text).expect("lint");
        assert!(summary.samples > 0);
        assert_eq!(summary.families, 8, "{text}");
        let points = parse(&text).unwrap();
        let docs = points
            .iter()
            .find(|p| p.name == "ii_counter_total" && p.label("name") == Some("pipeline.docs"))
            .unwrap();
        assert_eq!(docs.value, 48.0);
        let depth = points
            .iter()
            .find(|p| p.name == "ii_gauge" && p.label("name") == Some("worker.parser-0.idle_ms"))
            .unwrap();
        assert_eq!(depth.value, -2.0);
        // Overflow observation lands only in the +Inf cumulative bucket.
        let inf = points
            .iter()
            .find(|p| {
                p.name == "ii_histogram_ns_bucket"
                    && p.label("name") == Some("lat")
                    && p.label("le") == Some("+Inf")
            })
            .unwrap();
        assert_eq!(inf.value, 2.0);
        let first = points
            .iter()
            .find(|p| {
                p.name == "ii_histogram_ns_bucket"
                    && p.label("name") == Some("lat")
                    && p.label("le") == Some("256")
            })
            .unwrap();
        assert_eq!(first.value, 1.0);
    }

    #[test]
    fn label_escaping_round_trips() {
        let r = Registry::new();
        r.counter("weird\"name\\with\nnewline").add(3);
        let text = render(&r.snapshot());
        lint(&text).unwrap();
        let points = parse(&text).unwrap();
        let p = points.iter().find(|p| p.name == "ii_counter_total").unwrap();
        assert_eq!(p.label("name"), Some("weird\"name\\with\nnewline"));
        assert_eq!(p.value, 3.0);
    }

    #[test]
    fn lint_rejects_structural_violations() {
        assert!(lint("ii_x_total 1\n").is_err(), "missing EOF");
        assert!(
            lint("ii_x_total 1\n# EOF\n").unwrap_err().contains("no preceding # TYPE"),
        );
        assert!(
            lint("# TYPE ii_x counter\nii_x 1\n# EOF\n").unwrap_err().contains("_total"),
        );
        let non_monotone = "# TYPE ii_h histogram\n\
             ii_h_bucket{le=\"1\"} 5\nii_h_bucket{le=\"2\"} 3\nii_h_bucket{le=\"+Inf\"} 5\n# EOF\n";
        assert!(lint(non_monotone).unwrap_err().contains("not cumulative"));
        let no_inf = "# TYPE ii_h histogram\nii_h_bucket{le=\"1\"} 5\n# EOF\n";
        assert!(lint(no_inf).unwrap_err().contains("+Inf"));
        let count_mismatch = "# TYPE ii_h histogram\n\
             ii_h_bucket{le=\"+Inf\"} 5\nii_h_count 4\n# EOF\n";
        assert!(lint(count_mismatch).unwrap_err().contains("_count"));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_sample("1bad_name 1").is_err());
        assert!(parse_sample("ok{le=1} 1").is_err(), "unquoted label value");
        assert!(parse_sample("ok{le=\"1\"} x").is_err(), "bad value");
        assert!(parse_sample("ok{le=\"1\\q\"} 1").is_err(), "unknown escape");
        assert_eq!(parse_sample("ok +Inf").unwrap().value, f64::INFINITY);
    }
}
