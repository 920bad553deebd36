//! Measures what the always-on `ii-obs` layer costs an end-to-end build.
//!
//! Three parts: (1) microbench the per-event primitives (relaxed-atomic
//! counter add, full `StageSpan` open/close, and the event tracer's span
//! in both disabled and enabled states); (2) run a real pipeline build,
//! count every event it recorded, and price the instrumentation as
//! `events x per-event cost / build wall time` — the acceptance bar for
//! the always-on path (tracing compiled in but disabled) is <2% of
//! end-to-end throughput; (3) run the same build with tracing enabled
//! and report the opt-in cost (informational, no gate); (4) price the
//! flight recorder — a throttle check per loop turn plus one full registry
//! read per cadence interval, on a registry as large as the build's — with
//! the same <2% gate.

use ii_core::corpus::CollectionSpec;
use ii_core::obs::recorder::SAMPLE_INTERVAL;
use ii_core::obs::{FlightRecorder, Registry, Snapshot, TraceKind, Tracer};
use ii_core::pipeline::{build_index, PipelineConfig};
use std::sync::Arc;
use std::time::Instant;

fn ns_per<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    // --- per-event primitive costs ---------------------------------------
    let r = Registry::new();
    let c = r.counter("bench.counter");
    let counter_ns = ns_per(10_000_000, || c.add(1));
    let stage = r.stage("bench.stage");
    let span_ns = ns_per(1_000_000, || {
        let mut s = stage.span();
        s.add_bytes(4096);
    });
    let disabled = Tracer::disabled().sink("bench");
    let disabled_trace_ns = ns_per(10_000_000, || {
        let mut s = disabled.span(TraceKind::Parse);
        s.add_bytes(4096);
    });
    let tracer = Tracer::new(65_536);
    let enabled_sink = tracer.sink("bench");
    let enabled_trace_ns = ns_per(1_000_000, || {
        let mut s = enabled_sink.span(TraceKind::Parse);
        s.add_bytes(4096);
    });
    println!("per-event cost (measured):");
    println!("  counter add        {counter_ns:>8.1} ns");
    println!("  stage span (open+bytes+close) {span_ns:>8.1} ns");
    println!("  trace span, disabled (the always-on path) {disabled_trace_ns:>8.2} ns");
    println!("  trace span, enabled (opt-in --trace)      {enabled_trace_ns:>8.1} ns");

    // --- events recorded by a real build ---------------------------------
    let spec = CollectionSpec::clueweb_like(ii_bench::MEASURED_SCALE * 0.2);
    let coll = ii_bench::stored_collection("obs-overhead", spec);
    let mut cfg = PipelineConfig::small(2, 2, 1);
    cfg.popular_count = 20;
    let t = Instant::now();
    let out = build_index(&coll, &cfg).expect("build");
    let wall_ns = t.elapsed().as_nanos() as f64;

    let snap = &out.report.stages;
    // Every stage item is one span; every counter value arrived through
    // add() calls (deep counters are exported once per component, so this
    // over-counts — the estimate is conservative).
    let spans: u64 = snap.stages.values().map(|s| s.items).sum();
    let n_counters = snap.counters.len() as u64;

    // --- opt-in: the same build with event tracing enabled ----------------
    let mut traced_cfg = cfg.clone();
    traced_cfg.trace.enabled = true;
    let t = Instant::now();
    let traced = build_index(&coll, &traced_cfg).expect("traced build");
    let traced_wall_ns = t.elapsed().as_nanos() as f64;
    let trace = traced.report.trace.as_ref().expect("trace present when enabled");
    let trace_events = (trace.num_events() as u64) + trace.dropped;

    // The disabled tracer costs one branch per would-be span; price those
    // events at the measured disabled rate alongside the metrics layer.
    let cost_ns = spans as f64 * span_ns
        + n_counters as f64 * counter_ns
        + trace_events as f64 * disabled_trace_ns;
    let overhead = cost_ns / wall_ns * 100.0;

    println!("\nend-to-end build: {:.3} s, {} spans, {} counters, {} trace call sites",
        wall_ns / 1e9, spans, n_counters, trace_events);
    println!("instrumentation cost (tracing compiled in, disabled): {:.1} µs total = {overhead:.4}% of build wall time",
        cost_ns / 1e3);
    let enabled_cost_ns = trace_events as f64 * enabled_trace_ns;
    println!("tracing enabled (opt-in --trace): {trace_events} events recorded, \
              ~{:.1} µs recording cost, traced build wall {:.3} s vs {:.3} s untraced",
        enabled_cost_ns / 1e3, traced_wall_ns / 1e9, wall_ns / 1e9);
    println!("acceptance bar (disabled path): < 2%  ->  {}",
        if overhead < 2.0 { "PASS" } else { "FAIL" });
    assert!(overhead < 2.0, "observability overhead {overhead:.3}% exceeds 2%");

    // --- flight recorder priced over the same build ------------------------
    // A full sample reads every metric of the build's registry; price it
    // on a registry holding the same metrics as this build's snapshot.
    let (fr, metrics) = recorder_over(snap);
    // Throttled path: every call lands inside the cadence window.
    fr.force_sample();
    let recorder_throttled_ns = ns_per(1_000_000, || {
        fr.maybe_sample();
    });
    let recorder_sample_ns = ns_per(20_000, || fr.force_sample());
    println!("\nflight recorder, throttled maybe_sample   {recorder_throttled_ns:>8.1} ns");
    println!("flight recorder, full sample ({metrics} metrics) {recorder_sample_ns:>8.1} ns");
    // The driver calls maybe_sample once per loop turn; spans over-counts
    // loop turns, so pricing every span at the throttle-check rate is
    // conservative. Full samples are cadence-bounded: at most one per
    // cadence interval of build wall time (plus the forced sample a bundle
    // cuts).
    let cadence_ns = SAMPLE_INTERVAL.as_nanos() as f64;
    let max_samples = (wall_ns / cadence_ns).ceil() + 1.0;
    let recorder_cost_ns =
        spans as f64 * recorder_throttled_ns + max_samples * recorder_sample_ns;
    let recorder_pct = recorder_cost_ns / wall_ns * 100.0;
    println!("flight recorder ({} ms cadence): ≤{max_samples:.0} samples, \
              {:.1} µs priced = {recorder_pct:.4}% of build wall time",
        SAMPLE_INTERVAL.as_millis(), recorder_cost_ns / 1e3);
    println!("acceptance bar (recorder enabled): < 2%  ->  {}",
        if recorder_pct < 2.0 { "PASS" } else { "FAIL" });
    assert!(recorder_pct < 2.0, "flight recorder overhead {recorder_pct:.3}% exceeds 2%");
}

/// A recorder over a fresh registry holding every counter, gauge and stage
/// of `snap`, and the number of values one of its samples reads.
fn recorder_over(snap: &Snapshot) -> (FlightRecorder, usize) {
    let r = Arc::new(Registry::new());
    for (name, v) in &snap.counters {
        r.counter(name).add(*v);
    }
    for (name, v) in &snap.gauges {
        r.gauge(name).set(*v);
    }
    for (name, s) in &snap.stages {
        let stage = r.stage(name);
        stage.bytes.add(s.bytes);
        stage.items.add(s.items);
    }
    let metrics = snap.counters.len() + snap.gauges.len() + 3 * snap.stages.len();
    (FlightRecorder::new(r), metrics)
}
