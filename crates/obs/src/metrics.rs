//! The three instruments: counter, gauge, fixed-bucket histogram.
//!
//! All state is relaxed atomics. Metrics tolerate (indeed, expect)
//! slightly stale cross-thread reads; what they must never do is contend
//! or allocate on the recording path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default latency bucket upper bounds, in seconds.
///
/// Spans sub-microsecond lock holds through multi-second stalls; the
/// serving crates share one bound set so exposition stays comparable
/// across families.
pub const LATENCY_BUCKETS: &[f64] = &[
    1e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of non-negative samples (typically seconds).
///
/// Bucket upper bounds are set at construction; recording finds the
/// bucket by binary search and does two atomic adds. Quantiles
/// ([`Histogram::quantile`]) are estimated by linear interpolation inside
/// the covering bucket, exactly as `histogram_quantile` would from the
/// rendered exposition.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending upper bounds; the implicit final bucket is `+Inf`.
    bounds: Arc<[f64]>,
    /// Per-bucket (non-cumulative) counts, `bounds.len() + 1` long.
    buckets: Vec<AtomicU64>,
    /// Sum of all samples, in nanosecond-scale fixed point (1e-9 units),
    /// so concurrent adds stay a single integer `fetch_add`.
    sum_nanos: AtomicU64,
    /// Most recent exemplar sample, as `f64` bits (valid only while
    /// `exemplar_trace` is non-zero).
    exemplar_bits: AtomicU64,
    /// Trace id of the exemplar sample; 0 means "no exemplar yet".
    exemplar_trace: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over the given ascending, finite bounds.
    ///
    /// # Panics
    /// Panics when `bounds` is empty, unsorted, or non-finite —
    /// registration-time programmer errors.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.iter().all(|b| b.is_finite() && *b > 0.0),
            "histogram bounds must be finite and positive"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
            exemplar_bits: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }

    /// Records one sample (in the bounds' unit, conventionally seconds).
    /// Negative or NaN samples are clamped to zero.
    pub fn observe(&self, sample: f64) {
        let v = if sample.is_finite() && sample > 0.0 { sample } else { 0.0 };
        let idx = self.bounds.partition_point(|b| *b < v);
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_nanos.fetch_add((v * 1e9) as u64, Ordering::Relaxed);
    }

    /// Records a duration as seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Records a sample and, when `trace_id` is non-zero, remembers it
    /// as the histogram's exemplar — the trace that last exercised this
    /// family, joinable via `GET /v1/traces/{id}`. Two extra relaxed
    /// stores; still lock- and allocation-free.
    pub fn observe_with_exemplar(&self, sample: f64, trace_id: u64) {
        self.observe(sample);
        if trace_id != 0 {
            self.exemplar_bits.store(sample.to_bits(), Ordering::Relaxed);
            self.exemplar_trace.store(trace_id, Ordering::Relaxed);
        }
    }

    /// The most recent exemplar as `(sample, trace_id)`, if any sample
    /// carried one.
    pub fn exemplar(&self) -> Option<(f64, u64)> {
        let trace_id = self.exemplar_trace.load(Ordering::Relaxed);
        if trace_id == 0 {
            return None;
        }
        Some((f64::from_bits(self.exemplar_bits.load(Ordering::Relaxed)), trace_id))
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples, in the bounds' unit.
    pub fn sum(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Estimated `q`-quantile by in-bucket linear interpolation.
    ///
    /// Edge semantics, pinned by tests:
    /// * empty histogram → `0.0` for every `q`;
    /// * `q` outside `0.0..=1.0` (or NaN) clamps into the range (NaN
    ///   behaves as `0.0`);
    /// * `q == 0.0` → the lower edge of the first non-empty bucket;
    /// * `q == 1.0` → the upper bound of the last non-empty bucket;
    /// * samples in the overflow bucket clamp to the top bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        if q == 0.0 {
            // The minimum observable estimate: the lower edge of the
            // first bucket holding a sample (interpolating here would
            // claim a value above samples we actually saw).
            let first = counts.iter().position(|c| *c > 0).unwrap_or(0);
            return if first == 0 {
                0.0
            } else {
                self.bounds.get(first - 1).copied().unwrap_or(0.0)
            };
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let top = self.bounds.last().copied().unwrap_or(0.0);
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum = cum.saturating_add(*c);
            if cum < rank {
                continue;
            }
            let Some(upper) = self.bounds.get(i).copied() else {
                return top; // overflow bucket
            };
            let lower = if i == 0 {
                0.0
            } else {
                self.bounds.get(i - 1).copied().unwrap_or(0.0)
            };
            let below = cum - c;
            let frac = if *c == 0 { 1.0 } else { (rank - below) as f64 / *c as f64 };
            return lower + (upper - lower) * frac;
        }
        top
    }

    /// The configured bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The bounds as the one allocation every registry snapshot shares.
    pub(crate) fn shared_bounds(&self) -> Arc<[f64]> {
        Arc::clone(&self.bounds)
    }

    /// Raw (non-cumulative) per-bucket counts in bound order, plus the
    /// overflow bucket last — `bounds().len() + 1` entries.
    ///
    /// The registry snapshots this; exposition and the tsdb derive the
    /// cumulative `_bucket` series from it.
    pub fn snapshot_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// [`Histogram::snapshot_counts`] into a caller's buffer, replacing
    /// its contents, so a render reuses one buffer for every histogram.
    pub(crate) fn read_counts(&self, counts: &mut Vec<u64>) {
        counts.clear();
        counts.extend(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_holds_last_value() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(3.25);
        assert_eq!(g.get(), 3.25);
        g.set(f64::INFINITY);
        assert!(g.get().is_infinite());
    }

    #[test]
    fn histogram_buckets_samples() {
        let h = Histogram::new(&[0.001, 0.01, 0.1]);
        h.observe(0.0005); // bucket 0
        h.observe(0.001); // le is inclusive: bucket 0
        h.observe(0.05); // bucket 2
        h.observe(5.0); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.snapshot_counts(), vec![2, 0, 1, 1]);
        assert!((h.sum() - 5.0515).abs() < 1e-6);
    }

    #[test]
    fn quantiles_interpolate() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..50 {
            h.observe(0.5);
        }
        for _ in 0..50 {
            h.observe(3.0);
        }
        // p50 falls at the top of the first bucket; p99 inside (2, 4].
        let p50 = h.quantile(0.50);
        assert!((0.9..=1.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((2.0..=4.0).contains(&p99), "p99 = {p99}");
        // Everything clamps to the top bound for overflow-heavy data.
        let big = Histogram::new(&[1.0]);
        big.observe(100.0);
        assert_eq!(big.quantile(0.99), 1.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new(LATENCY_BUCKETS);
        assert_eq!(h.quantile(0.95), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn empty_histogram_extreme_quantiles_are_zero_and_finite() {
        // The full edge matrix on a zero-count histogram: nothing here
        // may be NaN or non-zero, whatever q is.
        let h = Histogram::new(&[1.0, 2.0]);
        for q in [0.0, 0.5, 1.0, -3.0, 7.0, f64::NAN, f64::INFINITY] {
            let v = h.quantile(q);
            assert_eq!(v, 0.0, "empty histogram, q={q}: got {v}");
        }
    }

    #[test]
    fn quantile_zero_is_the_floor_of_the_first_occupied_bucket() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..10 {
            h.observe(3.0); // bucket (2, 4]
        }
        assert_eq!(h.quantile(0.0), 2.0, "q=0 reports the bucket's lower edge");
        // With samples in the first bucket the floor is 0.0.
        let h2 = Histogram::new(&[1.0]);
        h2.observe(0.5);
        assert_eq!(h2.quantile(0.0), 0.0);
    }

    #[test]
    fn quantile_one_is_the_ceiling_of_the_last_occupied_bucket() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(0.5);
        h.observe(1.5);
        assert_eq!(h.quantile(1.0), 2.0, "q=1 reports the top occupied bound");
        // Overflow samples clamp to the top configured bound.
        h.observe(100.0);
        assert_eq!(h.quantile(1.0), 4.0);
    }

    #[test]
    fn out_of_range_and_nan_q_clamp() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.5);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0), "NaN q behaves as 0");
        assert!(h.quantile(f64::NAN).is_finite());
    }

    #[test]
    fn snapshot_counts_pin_bucket_boundaries() {
        // One sample per edge case: below the first bound, exactly on a
        // bound (le-inclusive), between bounds, and past the last bound.
        let h = Histogram::new(&[0.001, 0.01, 0.1]);
        h.observe(0.0005); // < first bound        → bucket 0
        h.observe(0.001); // == first bound (le)   → bucket 0
        h.observe(0.0011); // just past it         → bucket 1
        h.observe(0.1); // == last bound (le)      → bucket 2
        h.observe(0.2); // past every bound        → overflow
        assert_eq!(h.snapshot_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.snapshot_counts().len(), h.bounds().len() + 1);
        assert_eq!(h.snapshot_counts().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn exemplar_tracks_the_last_traced_sample() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.exemplar(), None);
        h.observe(0.5); // untraced: no exemplar
        assert_eq!(h.exemplar(), None);
        h.observe_with_exemplar(0.25, 0xdead_beef);
        assert_eq!(h.exemplar(), Some((0.25, 0xdead_beef)));
        h.observe_with_exemplar(0.75, 0); // trace id 0 = untraced
        assert_eq!(h.exemplar(), Some((0.25, 0xdead_beef)), "untraced keeps the old exemplar");
        h.observe_with_exemplar(0.75, 7);
        assert_eq!(h.exemplar(), Some((0.75, 7)));
        assert_eq!(h.count(), 4, "exemplar samples still count");
    }

    #[test]
    fn negative_and_nan_samples_clamp_to_zero() {
        let h = Histogram::new(&[1.0]);
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn duration_observation() {
        let h = Histogram::new(LATENCY_BUCKETS);
        h.observe_duration(Duration::from_micros(120));
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 120e-6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(Histogram::new(&[0.5]));
        let c = std::sync::Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        h.observe(0.1);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        assert_eq!(h.count(), 8000);
        assert_eq!(c.get(), 8000);
    }
}
