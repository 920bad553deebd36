//! Live telemetry and crash forensics: the build-time wiring of ii-obs's
//! flight recorder, the automatic post-mortem bundle, and its renderer.
//!
//! The flight recorder answers "what were the last seconds like?" when a
//! build dies: it samples the build's registry — stages, queue depths,
//! governor figures, `worker.*.idle_ms` heartbeat ages, everything the
//! driver publishes. This module decides *when a bundle is cut* (any
//! failure-domain event: worker death, quarantine, memory-budget abort,
//! commit failure) and *what the bundle holds*:
//!
//! * an `event` section — trigger, cause detail, batch ordinal, the
//!   supervision ledger, quarantined files. Fully deterministic: two
//!   identically-seeded chaos builds produce byte-identical event
//!   sections (a property test pins this).
//! * a `telemetry` section — flight-recorder ring dump, full registry
//!   snapshot, and the tail of each worker's trace ring (when tracing is
//!   on). Timing-dependent by nature, so it comes last in the file.
//!
//! Bundles are committed through ii-store's write-temp → fsync → rename
//! protocol ([`ii_store::write_file_durable`]) into a `postmortem/`
//! subdirectory of the index dir — a crash while writing the crash report
//! can't tear it. Writing is best-effort and always via the real
//! filesystem: a post-mortem must never turn one failure into two, and
//! must not perturb the op numbering of an injected [`ii_store::CrashVfs`].
//!
//! `ii postmortem <bundle>` renders [`render_bundle_report`]: cause
//! attribution plus a transposed timeline (one row per sampled metric,
//! one column per flight-recorder sample).

use crate::fault::FileFault;
use crate::supervisor::SupervisionReport;
use ii_obs::{FlightRecorder, Trace, Tracer, WorkerTrace};
use ii_store::RealVfs;
use serde::Serialize;
use serde_json::Value;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Subdirectory of the index dir where bundles land.
pub const POSTMORTEM_DIR: &str = "postmortem";

/// Version of the bundle JSON layout.
pub const BUNDLE_SCHEMA_VERSION: u32 = 1;

/// Per-worker trace events kept in a bundle's trace tail.
const TRACE_TAIL_EVENTS: usize = 64;

/// Flight-recorder samples shown per timeline row in the rendered report.
const TIMELINE_COLUMNS: usize = 8;

/// Telemetry knobs on [`crate::PipelineConfig`].
///
/// Excluded from the checkpoint config fingerprint, like tracing and
/// supervision: telemetry observes a build, it never changes index bytes.
#[derive(Clone, Debug, Default)]
pub struct TelemetryConfig {
    /// Where automatic post-mortem bundles land. `None` (default) =
    /// `postmortem/` inside the durable index dir; in-memory builds then
    /// write no bundles. Tests and embedders can point it anywhere.
    pub postmortem_dir: Option<PathBuf>,
    /// Serve a live OpenMetrics endpoint on this address for the whole
    /// build (`ii build --metrics-addr`).
    pub metrics_addr: Option<String>,
}

/// Cuts bundles into a directory from the build's flight recorder and
/// tracer, which it keeps; inert when constructed with no directory.
pub struct PostmortemWriter {
    dir: Option<PathBuf>,
    recorder: FlightRecorder,
    tracer: Tracer,
    written: Vec<PathBuf>,
}

impl PostmortemWriter {
    /// A writer targeting `dir` (`None` = write nothing).
    pub fn new(dir: Option<PathBuf>, recorder: FlightRecorder, tracer: Tracer) -> Self {
        PostmortemWriter { dir, recorder, tracer, written: Vec::new() }
    }

    /// The flight recorder bundles dump.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Paths of the bundles written, in order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.written
    }

    /// Force a last flight-recorder sample and durably write one bundle:
    /// the event `trigger` (`worker-death`, `quarantine`, `file-fault`,
    /// `memory-budget`, `commit-failure`) with its human-readable `detail`,
    /// fired after `batch_ordinal` batches were indexed, and the
    /// supervision ledger and quarantined files at that moment.
    /// Returns the bundle path, or `None` when disabled or the write
    /// failed — a post-mortem never turns one failure into two.
    pub fn write(
        &mut self,
        trigger: &str,
        detail: String,
        batch_ordinal: usize,
        supervision: &SupervisionReport,
        quarantined: &[FileFault],
    ) -> Option<PathBuf> {
        let dir = self.dir.clone()?;
        self.recorder.force_sample();
        let event = EventSection::new(trigger, detail, batch_ordinal, supervision, quarantined);
        let bundle = render_bundle(event, &self.recorder, &self.tracer);
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("bundle_{:03}_{trigger}.json", self.written.len()));
        ii_store::write_file_durable(&RealVfs, &path, bundle.as_bytes()).ok()?;
        self.written.push(path.clone());
        Some(path)
    }
}

/// The deterministic `event` section (byte-identical across
/// identically-seeded runs).
#[derive(Serialize)]
struct EventSection {
    trigger: String,
    detail: String,
    batch_ordinal: usize,
    deaths: Vec<DeathEntry>,
    reassignments: u32,
    inline_parsed_files: u32,
    commit_retries: u32,
    lossy_incidents: Vec<String>,
    quarantined_files: Vec<usize>,
}

#[derive(Serialize)]
struct DeathEntry {
    class: String,
    index: usize,
    cause: String,
}

impl EventSection {
    fn new(
        trigger: &str,
        detail: String,
        batch_ordinal: usize,
        s: &SupervisionReport,
        quarantined: &[FileFault],
    ) -> EventSection {
        EventSection {
            trigger: trigger.to_string(),
            detail,
            batch_ordinal,
            deaths: s
                .deaths
                .iter()
                .map(|d| DeathEntry {
                    class: d.class.to_string(),
                    index: d.index,
                    cause: d.cause.to_string(),
                })
                .collect(),
            reassignments: s.reassignments,
            inline_parsed_files: s.inline_parsed_files,
            commit_retries: s.commit_retries,
            lossy_incidents: s.lossy_incidents.clone(),
            quarantined_files: quarantined.iter().map(|f| f.file_idx).collect(),
        }
    }
}

/// The timing-dependent `telemetry` section.
#[derive(Serialize)]
struct TelemetrySection {
    flight_recorder: Value,
    snapshot: Value,
    trace_tail: Option<Value>,
}

/// A whole bundle: deterministic `event` first, timing-dependent
/// `telemetry` last.
#[derive(Serialize)]
struct Bundle {
    schema_version: u32,
    event: EventSection,
    telemetry: TelemetrySection,
}

/// The last [`TRACE_TAIL_EVENTS`] events of each worker's ring.
fn trace_tail(full: &Trace) -> Trace {
    Trace {
        workers: full
            .workers
            .iter()
            .map(|w| {
                let skip = w.events.len().saturating_sub(TRACE_TAIL_EVENTS);
                WorkerTrace {
                    name: w.name.clone(),
                    events: w.events[skip..].to_vec(),
                    dropped: w.dropped + skip as u64,
                }
            })
            .collect(),
        gauges: full.gauges.clone(),
        dropped: full.dropped,
    }
}

/// Assemble the full bundle from the event, the recorder's ring, its
/// registry and the tail of the trace.
fn render_bundle(event: EventSection, recorder: &FlightRecorder, tracer: &Tracer) -> String {
    let trace_tail = tracer
        .finish()
        .filter(|trace| !trace.workers.is_empty())
        .map(|trace| trace_tail(&trace).to_chrome_value());
    let bundle = Bundle {
        schema_version: BUNDLE_SCHEMA_VERSION,
        event,
        telemetry: TelemetrySection {
            flight_recorder: recorder.dump().to_json_value(),
            snapshot: recorder.registry().snapshot().to_json_value(),
            trace_tail,
        },
    };
    let mut json = serde_json::to_string_pretty(&bundle).expect("a JSON value always prints");
    json.push('\n');
    json
}

/// Bundle files in `dir`, sorted by name (write order).
pub fn list_bundles(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.extension().is_some_and(|e| e == "json")
                && p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("bundle_"))
        })
        .collect();
    out.sort();
    Ok(out)
}

fn short_num(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e4 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Append the transposed flight-recorder timeline: one row per sampled
/// metric, one column per sample (last [`TIMELINE_COLUMNS`]).
fn render_timeline(fr: &Value, o: &mut String) {
    let names = |key: &str| -> Vec<String> {
        fr.get(key)
            .and_then(Value::as_array)
            .map(|a| a.iter().map(|n| n.as_str().unwrap_or("?").to_string()).collect())
            .unwrap_or_default()
    };
    let counters = names("counters");
    let gauges = names("gauges");
    let samples = fr.get("samples").and_then(Value::as_array).map_or(&[][..], Vec::as_slice);
    let dropped = fr.get("dropped").and_then(|v| v.as_u64()).unwrap_or(0);
    o.push_str(&format!(
        "flight recorder: {} samples in ring ({} evicted)\n",
        samples.len(),
        dropped
    ));
    if samples.is_empty() {
        return;
    }
    let take = samples.len().min(TIMELINE_COLUMNS);
    let first_shown = samples.len() - take;
    let window = &samples[first_shown..];
    // Value of series `key[idx]` in one sample.
    let val = |s: &Value, key: &str, idx: usize| -> f64 {
        s.get(key).and_then(Value::as_array).and_then(|a| a.get(idx)).and_then(Value::as_f64).unwrap_or(0.0)
    };
    let label_w = counters
        .iter()
        .map(|n| n.len() + 2)
        .chain(gauges.iter().map(|n| n.len()))
        .chain(["t_ms".len()])
        .max()
        .unwrap_or(4)
        .max(4);
    o.push_str(&format!(
        "timeline (last {take} of {} samples, oldest → newest; Δ = delta per sample):\n",
        samples.len()
    ));
    let mut row = |label: &str, cells: Vec<String>| {
        o.push_str(&format!("  {label:<label_w$}"));
        for c in cells {
            o.push_str(&format!(" {c:>8}"));
        }
        o.push('\n');
    };
    row(
        "t_ms",
        window
            .iter()
            .map(|s| format!("{:.0}", s.get("t_ns").and_then(|v| v.as_f64()).unwrap_or(0.0) / 1e6))
            .collect(),
    );
    for (ci, name) in counters.iter().enumerate() {
        let cells = window
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let prev = if first_shown + i == 0 {
                    0.0
                } else {
                    val(&samples[first_shown + i - 1], "c", ci)
                };
                short_num(val(s, "c", ci) - prev)
            })
            .collect();
        row(&format!("Δ {name}"), cells);
    }
    for (gi, name) in gauges.iter().enumerate() {
        let cells = window.iter().map(|s| short_num(val(s, "g", gi))).collect();
        row(name, cells);
    }
}

/// Render a bundle's human-readable report: cause attribution, the
/// supervision ledger, and the flight-recorder timeline. This is what
/// `ii postmortem` prints; a bundle that is not JSON is an error.
pub fn render_bundle_report(text: &str) -> Result<String, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let event = v.get("event").ok_or("bundle has no 'event' section")?;
    let schema = v.get("schema_version").and_then(|x| x.as_u64()).unwrap_or(0);
    if schema > BUNDLE_SCHEMA_VERSION as u64 {
        return Err(format!(
            "bundle schema {schema} is newer than this build reads ({BUNDLE_SCHEMA_VERSION})"
        ));
    }
    let sv = |k: &str| event.get(k).and_then(|x| x.as_str()).unwrap_or("?").to_string();
    let nv = |k: &str| event.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let mut o = format!("post-mortem bundle (schema {schema})\n");
    o.push_str(&format!("trigger: {}\n", sv("trigger")));
    o.push_str(&format!("cause: {}\n", sv("detail")));
    o.push_str(&format!("batch ordinal: {}\n", nv("batch_ordinal")));
    if let Some(deaths) = event.get("deaths").and_then(Value::as_array) {
        if !deaths.is_empty() {
            o.push_str("deaths:\n");
            for d in deaths {
                o.push_str(&format!(
                    "  - {} {} died ({})\n",
                    d.get("class").and_then(|x| x.as_str()).unwrap_or("?"),
                    d.get("index").and_then(|x| x.as_u64()).unwrap_or(0),
                    d.get("cause").and_then(|x| x.as_str()).unwrap_or("?"),
                ));
            }
        }
    }
    o.push_str(&format!(
        "reassignments: {}, inline parsed files: {}, commit retries: {}\n",
        nv("reassignments"),
        nv("inline_parsed_files"),
        nv("commit_retries")
    ));
    if let Some(lossy) = event.get("lossy_incidents").and_then(Value::as_array) {
        if !lossy.is_empty() {
            o.push_str(&format!("lossy incidents: {}\n", lossy.len()));
            for l in lossy {
                o.push_str(&format!("  - {}\n", l.as_str().unwrap_or("?")));
            }
        }
    }
    match event.get("quarantined_files").and_then(Value::as_array) {
        Some(q) if !q.is_empty() => {
            let idxs: Vec<String> =
                q.iter().map(|x| format!("{}", x.as_u64().unwrap_or(0))).collect();
            o.push_str(&format!("quarantined files: {}\n", idxs.join(", ")));
        }
        _ => {}
    }
    let telemetry = v.get("telemetry");
    match telemetry.and_then(|t| t.get("flight_recorder")) {
        Some(Value::Null) | None => o.push_str("flight recorder: disabled\n"),
        Some(fr) => render_timeline(fr, &mut o),
    }
    if let Some(trace) = telemetry.and_then(|t| t.get("trace_tail")) {
        if let Some(events) = trace.get("traceEvents").and_then(Value::as_array) {
            o.push_str(&format!("trace tail: {} events\n", events.len()));
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{DeathCause, WorkerDeath};
    use crate::WorkerClass;
    use ii_obs::Registry;
    use std::sync::Arc;

    fn sample_ledger() -> SupervisionReport {
        SupervisionReport {
            deaths: vec![WorkerDeath {
                class: WorkerClass::GpuIndexer,
                index: 0,
                cause: DeathCause::Injected,
            }],
            reassignments: 1,
            inline_parsed_files: 0,
            fallback_seconds: 0.0,
            commit_retries: 0,
            lossy_incidents: vec![],
        }
    }

    fn recorder() -> FlightRecorder {
        let registry = Arc::new(Registry::new());
        let recorder = FlightRecorder::new(Arc::clone(&registry));
        let c = registry.counter("pipeline.docs");
        c.add(42);
        recorder.maybe_sample();
        c.add(8);
        recorder
    }

    #[test]
    fn bundle_renders_and_report_attributes_cause() {
        let recorder = recorder();
        let ledger = sample_ledger();
        let detail = "gpu-indexer 0 died (injected kill)".to_string();
        let event = EventSection::new("worker-death", detail, 3, &ledger, &[]);
        recorder.force_sample();
        let bundle = render_bundle(event, &recorder, &Tracer::disabled());
        serde_json::from_str::<Value>(&bundle).expect("bundle must be valid JSON");
        let report = render_bundle_report(&bundle).expect("report");
        assert!(report.contains("trigger: worker-death"), "{report}");
        assert!(report.contains("cause: gpu-indexer 0 died (injected kill)"), "{report}");
        assert!(report.contains("- gpu-indexer 0 died (injected kill)"), "{report}");
        assert!(report.contains("batch ordinal: 3"), "{report}");
        assert!(report.contains("reassignments: 1, inline parsed files: 0"), "{report}");
        assert!(report.contains("Δ pipeline.docs"), "{report}");
        // The event section precedes the telemetry section.
        assert!(bundle.find("\"event\"").unwrap() < bundle.find("\"telemetry\"").unwrap());
    }

    /// Bundles written before every reassignment was a GPU salvage carry a
    /// `gpu_takeovers` count as well: they still render, the count unread.
    #[test]
    fn an_older_bundle_with_gpu_takeovers_still_renders() {
        let old = r#"{"schema_version": 1, "event": {"trigger": "worker-death",
            "detail": "cpu-indexer 0 died (injected kill)", "batch_ordinal": 2,
            "deaths": [{"class": "cpu-indexer", "index": 0, "cause": "injected kill"}],
            "reassignments": 1, "gpu_takeovers": 0, "inline_parsed_files": 0,
            "commit_retries": 0, "lossy_incidents": [], "quarantined_files": []},
            "telemetry": {"flight_recorder": null, "snapshot": null, "trace_tail": null}}"#;
        let report = render_bundle_report(old).expect("an older bundle renders");
        assert!(report.contains("- cpu-indexer 0 died (injected kill)"), "{report}");
        assert!(report.contains("reassignments: 1, inline parsed files: 0"), "{report}");
    }

    #[test]
    fn event_section_is_deterministic() {
        let ledger = sample_ledger();
        let make = || {
            let detail = "budget 1024 B, needed 4096 B".to_string();
            let event = EventSection::new("memory-budget", detail, 7, &ledger, &[]);
            serde_json::to_string_pretty(&event).unwrap()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn writer_is_inert_without_a_dir_and_writes_bundles_with_one() {
        let ledger = SupervisionReport::default();
        let detail = || "file 3: permanent fault".to_string();
        let mut inert = PostmortemWriter::new(None, recorder(), Tracer::disabled());
        assert!(inert.write("quarantine", detail(), 1, &ledger, &[]).is_none());
        assert!(inert.paths().is_empty());

        let dir = std::env::temp_dir()
            .join(format!("ii-postmortem-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut writer = PostmortemWriter::new(Some(dir.clone()), recorder(), Tracer::disabled());
        let p1 = writer.write("quarantine", detail(), 1, &ledger, &[]).expect("bundle 1");
        let p2 = writer.write("quarantine", detail(), 1, &ledger, &[]).expect("bundle 2");
        assert_eq!(writer.paths().len(), 2);
        assert!(p1.file_name().unwrap().to_string_lossy().starts_with("bundle_000_"));
        assert!(p2.file_name().unwrap().to_string_lossy().starts_with("bundle_001_"));
        let listed = list_bundles(&dir).unwrap();
        assert_eq!(listed, vec![p1.clone(), p2]);
        let text = fs::read_to_string(&p1).unwrap();
        render_bundle_report(&text).expect("written bundle renders");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn trace_tail_keeps_last_events_and_counts_the_rest_dropped() {
        let mut full = Trace::default();
        let mk = |i: u64| ii_obs::TraceEvent {
            kind: ii_obs::TraceKind::Parse,
            t_start_ns: i * 10,
            t_end_ns: i * 10 + 5,
            bytes: 0,
            batch_id: 0,
            trie_lo: 0,
            trie_hi: 0,
            gpu: None,
        };
        full.workers.push(WorkerTrace {
            name: "parser-0".into(),
            events: (0..(TRACE_TAIL_EVENTS as u64 + 10)).map(mk).collect(),
            dropped: 3,
        });
        let tail = trace_tail(&full);
        assert_eq!(tail.workers[0].events.len(), TRACE_TAIL_EVENTS);
        assert_eq!(tail.workers[0].dropped, 13);
        assert_eq!(tail.workers[0].events.last().unwrap().t_start_ns, (TRACE_TAIL_EVENTS as u64 + 9) * 10);
    }
}
