//! Always-on flight recorder: a fixed-size black-box ring of coarse
//! telemetry samples.
//!
//! The registry and trace rings answer "where did time go?" *after* a
//! build; the flight recorder answers "what were the last N seconds like?"
//! *when something dies*. The driver registers the counters, gauges, and
//! heartbeats it wants on the black box ([`FlightRecorder::watch_counter`]
//! etc.), then calls [`FlightRecorder::maybe_sample`] from its consumer
//! loop. The call is a single relaxed load + compare when a sample is not
//! due — cheap enough to sit on the per-message path and stay under the
//! <2% observability overhead gate (priced in the `obs_overhead` bench).
//! When the cadence interval has elapsed it appends one [`FlightSample`]
//! (absolute counter/gauge values + heartbeat idle ages) to a bounded
//! ring, evicting the oldest.
//!
//! On a failure-domain event the supervisor forces a final sample and
//! [`FlightRecorder::dump`]s the ring into the post-mortem bundle. Deltas
//! and rates are computed at render time from the absolute values.

use crate::{Counter, Gauge, Heartbeat, Stage};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Flight-recorder tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Record at all? Disabled recorders cost one branch per
    /// [`FlightRecorder::maybe_sample`] call.
    pub enabled: bool,
    /// Ring capacity in samples; the oldest sample is evicted when full.
    pub capacity: usize,
    /// Minimum time between samples (the sampling cadence).
    pub min_interval: Duration,
}

impl Default for RecorderConfig {
    /// Enabled, 256 samples, 20 ms cadence — ~5 s of history at full
    /// sampling rate, a whole build's worth when the loop idles.
    fn default() -> Self {
        RecorderConfig { enabled: true, capacity: 256, min_interval: Duration::from_millis(20) }
    }
}

impl RecorderConfig {
    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        RecorderConfig { enabled: false, ..Default::default() }
    }
}

/// One black-box sample: elapsed time plus the absolute value of every
/// watched metric, in watch-registration order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightSample {
    /// Nanoseconds since the recorder was created.
    pub t_ns: u64,
    /// Watched counter values (parallel to [`FlightDump::counter_names`]).
    pub counters: Vec<u64>,
    /// Watched gauge levels (parallel to [`FlightDump::gauge_names`]).
    pub gauges: Vec<i64>,
    /// Watched heartbeat idle ages in ns (parallel to
    /// [`FlightDump::worker_names`]).
    pub idle_ns: Vec<u64>,
}

/// The recorder's ring, frozen for a post-mortem bundle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightDump {
    /// Names of watched counters, in sample order.
    pub counter_names: Vec<String>,
    /// Names of watched gauges, in sample order.
    pub gauge_names: Vec<String>,
    /// Names of watched heartbeats, in sample order.
    pub worker_names: Vec<String>,
    /// Samples, oldest first.
    pub samples: Vec<FlightSample>,
    /// Samples evicted from the ring because it was full.
    pub dropped: u64,
}

impl FlightDump {
    /// Render as a self-contained JSON object (embedded in post-mortem
    /// bundles).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\"counters\": [");
        for (i, n) in self.counter_names.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            crate::push_json_str(&mut o, n);
        }
        o.push_str("], \"gauges\": [");
        for (i, n) in self.gauge_names.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            crate::push_json_str(&mut o, n);
        }
        o.push_str("], \"workers\": [");
        for (i, n) in self.worker_names.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            crate::push_json_str(&mut o, n);
        }
        o.push_str(&format!("], \"dropped\": {}, \"samples\": [", self.dropped));
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!("\n  {{\"t_ns\": {}, \"c\": [", s.t_ns));
            for (j, v) in s.counters.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push_str(&v.to_string());
            }
            o.push_str("], \"g\": [");
            for (j, v) in s.gauges.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push_str(&v.to_string());
            }
            o.push_str("], \"idle_ns\": [");
            for (j, v) in s.idle_ns.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push_str(&v.to_string());
            }
            o.push_str("]}");
        }
        o.push_str("\n]}");
        o
    }
}

type CounterProbe = Box<dyn Fn() -> u64 + Send>;
type GaugeProbe = Box<dyn Fn() -> i64 + Send>;

#[derive(Default)]
struct State {
    counters: Vec<(String, CounterProbe)>,
    gauges: Vec<(String, GaugeProbe)>,
    beats: Vec<(String, Arc<Heartbeat>)>,
    ring: VecDeque<FlightSample>,
    capacity: usize,
    dropped: u64,
}

impl fmt::Debug for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("State")
            .field("counters", &self.counters.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .field("gauges", &self.gauges.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .field("beats", &self.beats.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .field("ring_len", &self.ring.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped)
            .finish()
    }
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    min_interval_ns: u64,
    /// Elapsed ns at the last sample; `u64::MAX` = never sampled, so the
    /// first `maybe_sample` always fires.
    last_ns: AtomicU64,
    state: Mutex<State>,
}

/// The black-box recorder. Clones share the same ring; the disabled
/// recorder ([`FlightRecorder::disabled`], also `Default`) holds no
/// allocation and costs one branch per call.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

impl FlightRecorder {
    /// A recorder that records nothing.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    /// An enabled recorder with the given ring capacity and cadence.
    pub fn new(capacity: usize, min_interval: Duration) -> FlightRecorder {
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                min_interval_ns: min_interval.as_nanos() as u64,
                last_ns: AtomicU64::new(u64::MAX),
                state: Mutex::new(State {
                    capacity: capacity.max(1),
                    ..Default::default()
                }),
            })),
        }
    }

    /// Build from a [`RecorderConfig`].
    pub fn from_config(cfg: &RecorderConfig) -> FlightRecorder {
        if cfg.enabled {
            FlightRecorder::new(cfg.capacity, cfg.min_interval)
        } else {
            FlightRecorder::disabled()
        }
    }

    /// Is this recorder actually recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Watch a counter; its absolute value lands in every later sample.
    pub fn watch_counter(&self, name: &str, c: Arc<Counter>) {
        self.watch_counter_fn(name, move || c.get());
    }

    /// Watch an arbitrary monotone figure via a probe closure (resident
    /// bytes, pool depths — anything without a `Counter` behind it).
    pub fn watch_counter_fn(&self, name: &str, probe: impl Fn() -> u64 + Send + 'static) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().counters.push((name.to_string(), Box::new(probe)));
        }
    }

    /// Watch a gauge.
    pub fn watch_gauge(&self, name: &str, g: Arc<Gauge>) {
        self.watch_gauge_fn(name, move || g.get());
    }

    /// Watch an arbitrary signed level via a probe closure.
    pub fn watch_gauge_fn(&self, name: &str, probe: impl Fn() -> i64 + Send + 'static) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().gauges.push((name.to_string(), Box::new(probe)));
        }
    }

    /// Watch a whole stage: its bytes, items, and busy wall-ns counters
    /// land in every sample as `{prefix}.bytes` / `.items` / `.wall_ns`,
    /// which is what per-stage MB/s is computed from.
    pub fn watch_stage(&self, prefix: &str, stage: Arc<Stage>) {
        let s = Arc::clone(&stage);
        self.watch_counter_fn(&format!("{prefix}.bytes"), move || s.bytes.get());
        let s = Arc::clone(&stage);
        self.watch_counter_fn(&format!("{prefix}.items"), move || s.items.get());
        self.watch_counter_fn(&format!("{prefix}.wall_ns"), move || stage.wall_ns.get());
    }

    /// Watch a worker heartbeat; samples record its idle age.
    pub fn watch_heartbeat(&self, name: &str, hb: Arc<Heartbeat>) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().beats.push((name.to_string(), hb));
        }
    }

    /// Take a sample if the cadence interval has elapsed. Returns whether
    /// a sample was recorded. When no sample is due this is one `Instant`
    /// read, one relaxed load, and a compare.
    #[inline]
    pub fn maybe_sample(&self) -> bool {
        let Some(inner) = &self.inner else { return false };
        let now = inner.origin.elapsed().as_nanos() as u64;
        let last = inner.last_ns.load(Relaxed);
        if last != u64::MAX && now.saturating_sub(last) < inner.min_interval_ns {
            return false;
        }
        inner.sample(now);
        true
    }

    /// Take a sample now, regardless of cadence (the last gasp before a
    /// post-mortem dump).
    pub fn force_sample(&self) -> bool {
        let Some(inner) = &self.inner else { return false };
        let now = inner.origin.elapsed().as_nanos() as u64;
        inner.sample(now);
        true
    }

    /// Freeze the ring. `None` for a disabled recorder.
    pub fn dump(&self) -> Option<FlightDump> {
        let inner = self.inner.as_ref()?;
        let st = inner.state.lock().unwrap();
        Some(FlightDump {
            counter_names: st.counters.iter().map(|(n, _)| n.clone()).collect(),
            gauge_names: st.gauges.iter().map(|(n, _)| n.clone()).collect(),
            worker_names: st.beats.iter().map(|(n, _)| n.clone()).collect(),
            samples: st.ring.iter().cloned().collect(),
            dropped: st.dropped,
        })
    }
}

impl Inner {
    fn sample(&self, now: u64) {
        // Benign race: two threads may both decide a sample is due; the
        // ring just gets two adjacent samples. The driver's consumer loop
        // is the only caller in practice.
        self.last_ns.store(now, Relaxed);
        let mut st = self.state.lock().unwrap();
        let sample = FlightSample {
            t_ns: now,
            counters: st.counters.iter().map(|(_, probe)| probe()).collect(),
            gauges: st.gauges.iter().map(|(_, probe)| probe()).collect(),
            idle_ns: st.beats.iter().map(|(_, h)| h.idle().as_nanos() as u64).collect(),
        };
        if st.ring.len() >= st.capacity {
            st.ring.pop_front();
            st.dropped += 1;
        }
        st.ring.push_back(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        assert!(!r.maybe_sample());
        assert!(!r.force_sample());
        assert!(r.dump().is_none());
        assert!(!FlightRecorder::default().is_enabled());
        assert!(!FlightRecorder::from_config(&RecorderConfig::disabled()).is_enabled());
    }

    #[test]
    fn samples_capture_watched_metrics_in_order() {
        let r = FlightRecorder::new(8, Duration::ZERO);
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        let hb = Arc::new(Heartbeat::new());
        r.watch_counter("docs", Arc::clone(&c));
        r.watch_gauge("depth", Arc::clone(&g));
        r.watch_heartbeat("parser 0", Arc::clone(&hb));
        c.add(5);
        g.set(-3);
        assert!(r.maybe_sample());
        c.add(5);
        g.set(4);
        assert!(r.force_sample());
        let d = r.dump().unwrap();
        assert_eq!(d.counter_names, vec!["docs"]);
        assert_eq!(d.gauge_names, vec!["depth"]);
        assert_eq!(d.worker_names, vec!["parser 0"]);
        assert_eq!(d.samples.len(), 2);
        assert_eq!(d.samples[0].counters, vec![5]);
        assert_eq!(d.samples[0].gauges, vec![-3]);
        assert_eq!(d.samples[1].counters, vec![10]);
        assert_eq!(d.samples[1].gauges, vec![4]);
        assert!(d.samples[1].t_ns >= d.samples[0].t_ns);
        assert_eq!(d.samples[0].idle_ns.len(), 1);
        assert_eq!(d.dropped, 0);
    }

    #[test]
    fn cadence_gates_sampling() {
        let r = FlightRecorder::new(8, Duration::from_secs(3600));
        assert!(r.maybe_sample(), "first sample always fires");
        assert!(!r.maybe_sample(), "second within the interval is gated");
        assert!(r.force_sample(), "force ignores the cadence");
        assert_eq!(r.dump().unwrap().samples.len(), 2);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let r = FlightRecorder::new(2, Duration::ZERO);
        let c = Arc::new(Counter::new());
        r.watch_counter("n", Arc::clone(&c));
        for i in 0..5 {
            c.reset();
            c.add(i);
            r.force_sample();
        }
        let d = r.dump().unwrap();
        assert_eq!(d.samples.len(), 2);
        assert_eq!(d.dropped, 3);
        assert_eq!(d.samples[0].counters, vec![3]);
        assert_eq!(d.samples[1].counters, vec![4]);
    }

    #[test]
    fn dump_json_parses() {
        let r = FlightRecorder::new(4, Duration::ZERO);
        r.watch_counter("a\"b", Arc::new(Counter::new()));
        r.force_sample();
        let json = r.dump().unwrap().to_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("dump JSON must parse");
        let names = v.get("counters").and_then(serde_json::Value::as_array).unwrap();
        assert_eq!(names[0].as_str(), Some("a\"b"));
        assert!(v.get("samples").and_then(serde_json::Value::as_array).is_some());
    }
}
