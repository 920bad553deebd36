//! The host yardstick: a fixed piece of work of the benchmark's own, timed
//! throughout the measured section, that says how fast the host is *now*.
//!
//! On the two-core sandbox the same binary runs 10–25 % faster or slower
//! from one minute to the next (a neighbour's memory traffic, the
//! hypervisor's mood). That moved every timing of a run together and was
//! most of the run-to-run spread of the query and build metrics. The
//! yardstick is memory-latency-bound like the index's own hot paths — random
//! binary searches over a table larger than any cache — and its median over
//! a run correlates 0.6–0.95 with those timings across runs. Dividing it out
//! cut their spread from 13–17 % to about 4 %.
//!
//! It calls no product code, so no change to the product can move it.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the searched table: 64 MB of `u64`, far beyond the caches.
const TABLE_LEN: usize = 8 << 20;
/// Binary searches per sample (about 35 ms on the reference host).
const PROBES: usize = 60_000;
/// Seconds one sample takes on the host the timings are normalised to. The
/// sandbox this benchmark was calibrated on takes about this long, so
/// normalised and raw timings are close there.
pub const REFERENCE_S: f64 = 0.035;

/// The table and the samples of one run.
pub struct Yardstick {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// Allocate the table and take one untimed sample to fault it in.
    pub fn new() -> Self {
        let y = Yardstick {
            table: (0..TABLE_LEN as u64).map(|i| i * 3).collect(),
            samples: Vec::new(),
        };
        y.probe();
        y
    }

    /// The fixed work: `PROBES` searches for xorshift-drawn keys, a third of
    /// which exist. Returns its wall seconds.
    fn probe(&self) -> f64 {
        let t0 = Instant::now();
        let span = self.table.len() as u64 * 3;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut found = 0u64;
        for _ in 0..PROBES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            found += u64::from(self.table.binary_search(&(x % span)).is_ok());
        }
        black_box(found);
        t0.elapsed().as_secs_f64()
    }

    /// Take one timed sample.
    pub fn sample(&mut self) {
        let s = self.probe();
        self.samples.push(s);
    }

    /// The same table with no samples: the next phase of the run.
    pub fn restart(self) -> Yardstick {
        Yardstick {
            table: self.table,
            samples: Vec::new(),
        }
    }

    /// Samples taken so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// How fast the host ran during the samples, relative to the reference:
    /// above 1 it was faster, below 1 slower. A duration measured alongside
    /// is multiplied by it, a rate divided by it. 1 when nothing was sampled.
    pub fn speed(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE_S / median(&self.samples)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_reference_over_median_sample() {
        let mut y = Yardstick {
            table: (0..1024u64).map(|i| i * 3).collect(),
            samples: Vec::new(),
        };
        assert_eq!(y.speed(), 1.0);
        y.samples = vec![2.0 * REFERENCE_S, 0.5 * REFERENCE_S, 2.0 * REFERENCE_S];
        assert!((y.speed() - 0.5).abs() < 1e-12, "a host twice as slow");
        y.sample();
        assert_eq!(y.samples().len(), 4);
        assert!(y.samples()[3] > 0.0);
    }
}
