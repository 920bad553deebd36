//! Always-on flight recorder: a fixed-size black-box ring of coarse
//! samples of a [`Registry`].
//!
//! The registry and trace rings answer "where did time go?" *after* a
//! build; the flight recorder answers "what were the last N seconds like?"
//! *when something dies*. It is built over the build's registry and
//! observes the same atomics every other surface reads: each sample holds
//! every counter and gauge of the registry, plus each stage's bytes, items
//! and busy wall-ns as the counters `<stage>.bytes` / `.items` /
//! `.wall_ns`. The driver calls [`FlightRecorder::maybe_sample`] from its
//! consumer loop; the call is one `Instant` read, one relaxed load and a
//! compare when no sample is due — cheap enough to sit on the per-message
//! path and stay under the <2% observability overhead gate (priced in the
//! `obs_overhead` bench). Once [`SAMPLE_INTERVAL`] has elapsed it appends
//! one sample to a ring of [`CAPACITY`] samples, evicting the oldest.
//!
//! On a failure-domain event the supervisor forces a final sample and
//! [`FlightRecorder::dump`]s the ring into the post-mortem bundle. Deltas
//! and rates are computed at render time from the absolute values.

use crate::{json_object, Registry};
use serde_json::Value;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Samples the ring holds; the oldest is evicted when it is full.
pub const CAPACITY: usize = 256;

/// Minimum time between two cadence samples: with [`CAPACITY`], ~5 s of
/// history at full rate, a whole build's worth when the loop idles.
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(20);

/// One black-box sample: elapsed time plus the absolute value of every
/// metric, parallel to the dump's name lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightSample {
    /// Nanoseconds since the recorder was created.
    pub t_ns: u64,
    /// Counter values (parallel to [`FlightDump::counter_names`]; 0 for a
    /// counter the registry did not hold yet).
    pub counters: Vec<u64>,
    /// Gauge levels (parallel to [`FlightDump::gauge_names`]).
    pub gauges: Vec<i64>,
}

/// The recorder's ring, frozen for a post-mortem bundle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightDump {
    /// Every counter any sample holds, in name order.
    pub counter_names: Vec<String>,
    /// Every gauge any sample holds, in name order.
    pub gauge_names: Vec<String>,
    /// Samples, oldest first.
    pub samples: Vec<FlightSample>,
    /// Samples evicted from the ring because it was full.
    pub dropped: u64,
}

impl FlightDump {
    /// The dump as a JSON value (embedded in post-mortem bundles).
    pub fn to_json_value(&self) -> Value {
        let names = |n: &[String]| Value::Array(n.iter().map(|s| Value::Str(s.clone())).collect());
        let samples = self.samples.iter().map(|s| {
            json_object([
                ("t_ns", Value::U64(s.t_ns)),
                ("c", Value::Array(s.counters.iter().map(|&v| Value::U64(v)).collect())),
                ("g", Value::Array(s.gauges.iter().map(|&v| Value::I64(v)).collect())),
            ])
        });
        json_object([
            ("counters", names(&self.counter_names)),
            ("gauges", names(&self.gauge_names)),
            ("dropped", Value::U64(self.dropped)),
            ("samples", Value::Array(samples.collect())),
        ])
    }
}

/// One ring entry: values parallel to the name lists of the moment it was
/// taken. A registry only ever gains metrics, so consecutive samples share
/// one name list until a new metric appears.
#[derive(Debug)]
struct Sample {
    t_ns: u64,
    counter_names: Arc<[String]>,
    counters: Vec<u64>,
    gauge_names: Arc<[String]>,
    gauges: Vec<i64>,
}

#[derive(Debug, Default)]
struct State {
    counter_names: Arc<[String]>,
    gauge_names: Arc<[String]>,
    ring: VecDeque<Sample>,
    dropped: u64,
}

/// The black-box recorder over one registry.
#[derive(Debug)]
pub struct FlightRecorder {
    registry: Arc<Registry>,
    origin: Instant,
    capacity: usize,
    min_interval_ns: u64,
    /// Elapsed ns at the last sample; `u64::MAX` = never sampled, so the
    /// first `maybe_sample` always fires.
    last_ns: AtomicU64,
    state: Mutex<State>,
}

impl FlightRecorder {
    /// A recorder sampling `registry` every [`SAMPLE_INTERVAL`] into a ring
    /// of [`CAPACITY`] samples.
    pub fn new(registry: Arc<Registry>) -> FlightRecorder {
        FlightRecorder::with_ring(registry, CAPACITY, SAMPLE_INTERVAL)
    }

    fn with_ring(registry: Arc<Registry>, capacity: usize, min_interval: Duration) -> Self {
        FlightRecorder {
            registry,
            origin: Instant::now(),
            capacity,
            min_interval_ns: min_interval.as_nanos() as u64,
            last_ns: AtomicU64::new(u64::MAX),
            state: Mutex::new(State::default()),
        }
    }

    /// The registry this recorder samples.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Take a sample if the cadence interval has elapsed. Returns whether
    /// a sample was recorded. When no sample is due this is one `Instant`
    /// read, one relaxed load, and a compare.
    #[inline]
    pub fn maybe_sample(&self) -> bool {
        let now = self.origin.elapsed().as_nanos() as u64;
        let last = self.last_ns.load(Relaxed);
        if last != u64::MAX && now.saturating_sub(last) < self.min_interval_ns {
            return false;
        }
        self.sample(now);
        true
    }

    /// Take a sample now, regardless of cadence (the last gasp before a
    /// post-mortem dump).
    pub fn force_sample(&self) {
        self.sample(self.origin.elapsed().as_nanos() as u64);
    }

    fn sample(&self, now: u64) {
        // Benign race: two threads may both decide a sample is due; the
        // ring just gets two adjacent samples. The driver's consumer loop
        // is the only caller in practice.
        self.last_ns.store(now, Relaxed);
        let r = &*self.registry;
        let mut st = self.state.lock().unwrap();
        let counters: Vec<u64> = {
            let counters = r.counters.lock().unwrap();
            let stages = r.stages.lock().unwrap();
            if st.counter_names.len() != counters.len() + 3 * stages.len() {
                let stage_names = stages.keys().flat_map(|s| {
                    ["bytes", "items", "wall_ns"].map(|field| format!("{s}.{field}"))
                });
                st.counter_names = counters.keys().cloned().chain(stage_names).collect();
            }
            let stage_values =
                stages.values().flat_map(|s| [s.bytes.get(), s.items.get(), s.wall_ns.get()]);
            counters.values().map(|c| c.get()).chain(stage_values).collect()
        };
        let gauges: Vec<i64> = {
            let gauges = r.gauges.lock().unwrap();
            if st.gauge_names.len() != gauges.len() {
                st.gauge_names = gauges.keys().cloned().collect();
            }
            gauges.values().map(|g| g.get()).collect()
        };
        if st.ring.len() >= self.capacity {
            st.ring.pop_front();
            st.dropped += 1;
        }
        let sample = Sample {
            t_ns: now,
            counter_names: Arc::clone(&st.counter_names),
            counters,
            gauge_names: Arc::clone(&st.gauge_names),
            gauges,
        };
        st.ring.push_back(sample);
    }

    /// Freeze the ring: every metric any sample holds, in name order, with
    /// each sample's values aligned to those names.
    pub fn dump(&self) -> FlightDump {
        let st = self.state.lock().unwrap();
        let counter_names = union(st.ring.iter().map(|s| &*s.counter_names));
        let gauge_names = union(st.ring.iter().map(|s| &*s.gauge_names));
        let samples = st
            .ring
            .iter()
            .map(|s| FlightSample {
                t_ns: s.t_ns,
                counters: align(&counter_names, &s.counter_names, &s.counters),
                gauges: align(&gauge_names, &s.gauge_names, &s.gauges),
            })
            .collect();
        FlightDump { counter_names, gauge_names, samples, dropped: st.dropped }
    }
}

/// Every name of `lists`, once each, in name order.
fn union<'a>(lists: impl Iterator<Item = &'a [String]>) -> Vec<String> {
    lists.flatten().collect::<BTreeSet<_>>().into_iter().cloned().collect()
}

/// `values` (parallel to `names`) re-laid out along `all`, 0 where absent.
fn align<T: Copy + Default>(all: &[String], names: &[String], values: &[T]) -> Vec<T> {
    let at: HashMap<&str, T> =
        names.iter().map(String::as_str).zip(values.iter().copied()).collect();
    all.iter().map(|n| at.get(n.as_str()).copied().unwrap_or_default()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(capacity: usize, min_interval: Duration) -> (Arc<Registry>, FlightRecorder) {
        let r = Arc::new(Registry::new());
        (Arc::clone(&r), FlightRecorder::with_ring(r, capacity, min_interval))
    }

    #[test]
    fn samples_capture_watched_metrics_in_order() {
        let (r, fr) = recorder(8, Duration::ZERO);
        r.counter("docs").add(5);
        r.gauge("depth").set(-3);
        assert!(fr.maybe_sample());
        // Metrics interned after the first sample join the later ones, and
        // the dump lays every sample out in name order.
        r.counter("docs").add(5);
        r.counter("a.first").add(7);
        r.gauge("depth").set(4);
        let index = r.stage("index");
        index.span().add_bytes(100);
        fr.force_sample();
        let d = fr.dump();
        assert_eq!(
            d.counter_names,
            ["a.first", "docs", "index.bytes", "index.items", "index.wall_ns"]
        );
        assert_eq!(d.gauge_names, ["depth"]);
        assert_eq!(d.samples.len(), 2);
        assert_eq!(d.samples[0].counters, [0, 5, 0, 0, 0]);
        assert_eq!(d.samples[0].gauges, [-3]);
        assert_eq!(d.samples[1].counters[..4], [7, 10, 100, 1]);
        assert!(d.samples[1].counters[4] > 0, "the span's wall time");
        assert_eq!(d.samples[1].gauges, [4]);
        assert!(d.samples[1].t_ns >= d.samples[0].t_ns);
        assert_eq!(d.dropped, 0);
    }

    #[test]
    fn cadence_gates_sampling() {
        let (_, fr) = recorder(8, Duration::from_secs(3600));
        assert!(fr.maybe_sample(), "first sample always fires");
        assert!(!fr.maybe_sample(), "second within the interval is gated");
        fr.force_sample();
        assert_eq!(fr.dump().samples.len(), 2, "force ignores the cadence");
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let (r, fr) = recorder(2, Duration::ZERO);
        let c = r.counter("n");
        for i in 0..5 {
            c.reset();
            c.add(i);
            fr.force_sample();
        }
        let d = fr.dump();
        assert_eq!(d.samples.len(), 2);
        assert_eq!(d.dropped, 3);
        assert_eq!(d.samples[0].counters, [3]);
        assert_eq!(d.samples[1].counters, [4]);
        // The default ring is bounded the same way.
        let fr = FlightRecorder::new(Arc::clone(&r));
        for _ in 0..CAPACITY + 3 {
            fr.force_sample();
        }
        assert_eq!((fr.dump().samples.len(), fr.dump().dropped), (CAPACITY, 3));
    }

    #[test]
    fn dump_json_parses() {
        let (r, fr) = recorder(4, Duration::ZERO);
        r.counter("a\"b").inc();
        r.gauge("g").set(-1);
        fr.force_sample();
        let json = serde_json::to_string(&fr.dump().to_json_value()).unwrap();
        let v: Value = serde_json::from_str(&json).expect("dump JSON must parse");
        let names = v.get("counters").and_then(Value::as_array).unwrap();
        assert_eq!(names[0].as_str(), Some("a\"b"));
        let samples = v.get("samples").and_then(Value::as_array).unwrap();
        assert_eq!(samples[0].get("c").and_then(Value::as_array).unwrap()[0].as_u64(), Some(1));
        assert_eq!(samples[0].get("g").and_then(Value::as_array).unwrap()[0].as_i64(), Some(-1));
        assert_eq!(v.get("dropped").and_then(Value::as_u64), Some(0));
    }
}
