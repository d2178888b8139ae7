//! The metric primitives: counters, gauges, and log2-bucketed histograms.
//!
//! Each metric is a cheap cloneable handle around an `Arc` of atomics, or
//! a *disabled* handle (`None` inside) whose recording methods cost one
//! pointer check and nothing else. Instrumented code holds handles —
//! resolved once through a [`crate::TelemetrySink`] — so the hot path
//! never touches the registry's lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of histogram buckets: bucket `i` holds values whose bit width
/// is `i` — bucket 0 holds exactly the value 0, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)` — so every bucket boundary is an exact power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index of a recorded value (its bit width).
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the largest value it can hold).
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of a bucket (the smallest value it can hold).
pub(crate) fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// A monotonic counter handle.
///
/// Disabled handles ([`Counter::disabled`]) drop recordings after one
/// pointer check; live handles ([`Counter::live`] or any handle resolved
/// through an enabled sink) add with a relaxed atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op handle: recordings vanish, `value()` reads 0.
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// A live standalone counter, not listed in any registry — for stats
    /// that must always count.
    pub fn live() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// Whether recordings are kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count (0 on a disabled handle).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// A gauge handle: a value that can move both ways (plus a running-max
/// helper for peak tracking).
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op handle: recordings vanish, `value()` reads 0.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// A live standalone gauge, not (yet) listed in any registry.
    pub fn live() -> Self {
        Gauge(Some(Arc::new(AtomicU64::new(0))))
    }

    /// Whether recordings are kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Moves the gauge by a signed delta (two's-complement wrapping
    /// add), for gauges summed across many writers — each publishes the
    /// *change* in its share, so no writer needs the others' values.
    #[inline]
    pub fn offset(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(delta as u64, Ordering::Relaxed);
        }
    }

    /// The current value (0 on a disabled handle).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// The atomics behind one histogram.
pub(crate) struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for HistogramInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramInner")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A log2-bucketed histogram handle for latencies (`_ns` names, recorded
/// in nanoseconds) and sizes (`_bytes` names).
///
/// Tracks count, sum, min, max, and 65 power-of-two buckets; quantiles
/// are estimated from the buckets at snapshot time
/// ([`HistogramSnapshot::quantile`]), accurate to within one bucket.
#[derive(Clone, Debug, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramInner>>);

impl Histogram {
    /// A no-op handle: recordings vanish, snapshots are empty.
    pub fn disabled() -> Self {
        Histogram(None)
    }

    /// A live standalone histogram, not (yet) listed in any registry —
    /// useful for building rollups out of records after the fact.
    pub fn live() -> Self {
        Histogram(Some(Arc::new(HistogramInner::new())))
    }

    /// Whether recordings are kept. [`crate::TraceSpan::record_into`]
    /// checks this, so a disabled histogram starts no clock.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(value, Ordering::Relaxed);
            h.min.fetch_min(value, Ordering::Relaxed);
            h.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if self.enabled() {
            self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Records a duration given in (non-negative, finite) seconds, in
    /// nanosecond units — for records that carry an `f64`. Rounds to the
    /// nearest nanosecond, so a `Duration` converted to seconds records
    /// exactly what [`Histogram::record_duration`] would.
    #[inline]
    pub fn record_secs(&self, secs: f64) {
        if self.enabled() && secs.is_finite() && secs >= 0.0 {
            self.record((secs * 1e9).round().min(u64::MAX as f64) as u64);
        }
    }

    /// A point-in-time copy of the histogram (empty on a disabled
    /// handle).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(h) = &self.0 else {
            return HistogramSnapshot::default();
        };
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&h.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        let count = h.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                h.min.load(Ordering::Relaxed)
            },
            max: h.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram: exact count/sum/min/max plus
/// the power-of-two bucket counts quantiles are estimated from.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Count per power-of-two bucket; bucket `i` holds values of bit
    /// width `i` (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the nearest-rank value's
    /// bucket is located exactly, and its inclusive upper bound (clamped
    /// to the observed maximum) is returned — so the estimate always
    /// falls in the same power-of-two bucket as the true quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative > rank {
                return bucket_upper_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Accumulates another snapshot into this one; the result is
    /// identical to a snapshot of one histogram that recorded both value
    /// streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The counter-style difference `self - earlier` for two cumulative
    /// snapshots of the same histogram. Count, sum, and buckets subtract
    /// exactly; min/max cannot be un-merged, so they are re-estimated
    /// from the surviving buckets' bounds.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        for (i, (a, b)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            out.buckets[i] = a.saturating_sub(*b);
        }
        let nonzero = out.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
        let (mut lo, mut hi) = (None, None);
        for (i, _) in nonzero {
            lo.get_or_insert(i);
            hi = Some(i);
        }
        if let (Some(lo), Some(hi)) = (lo, hi) {
            out.min = bucket_lower_bound(lo).max(self.min);
            out.max = bucket_upper_bound(hi).min(self.max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_width() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..64u32 {
            let v = 1u64 << i;
            assert_eq!(bucket_index(v), i as usize + 1, "2^{i} opens its bucket");
            assert_eq!(
                bucket_index(v - 1),
                i as usize,
                "2^{i}-1 closes the previous bucket"
            );
        }
    }

    #[test]
    fn disabled_handles_do_nothing() {
        let c = Counter::disabled();
        c.inc();
        assert_eq!(c.value(), 0);
        assert!(!c.enabled());
        let g = Gauge::disabled();
        g.set(7);
        g.set_max(9);
        assert_eq!(g.value(), 0);
        let h = Histogram::disabled();
        h.record(5);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn counter_and_gauge_record() {
        let c = Counter::live();
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        let g = Gauge::live();
        g.set(10);
        g.set_max(7);
        assert_eq!(g.value(), 10);
        g.set_max(12);
        assert_eq!(g.value(), 12);
        g.set(3);
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn gauge_offset_moves_both_ways() {
        let g = Gauge::live();
        g.offset(100);
        g.offset(-30);
        g.offset(7);
        assert_eq!(g.value(), 77);
        Gauge::disabled().offset(5); // no-op, no panic
    }

    #[test]
    fn histogram_summary_is_exact() {
        let h = Histogram::live();
        for v in [3u64, 9, 1, 1000, 0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1013);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 202.6).abs() < 1e-9);
    }

    #[test]
    fn quantiles_of_an_empty_histogram_are_zero() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_value_quantiles_collapse() {
        let h = Histogram::live();
        h.record(42);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 42, "q={q}");
        }
    }

    #[test]
    fn record_secs_converts_to_nanos() {
        let h = Histogram::live();
        h.record_secs(0.001);
        let s = h.snapshot();
        assert_eq!(s.sum, 1_000_000);
        h.record_secs(f64::NAN); // dropped
        h.record_secs(-1.0); // dropped
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn record_secs_round_trips_a_duration() {
        // Truncating `secs * 1e9` records this one as 32_839_505.
        let h = Histogram::live();
        h.record_secs(Duration::from_nanos(32_839_506).as_secs_f64());
        assert_eq!(h.snapshot().sum, 32_839_506);
    }

    #[test]
    fn delta_subtracts_and_rebounds() {
        let h = Histogram::live();
        h.record(2);
        h.record(100);
        let earlier = h.snapshot();
        h.record(1000);
        h.record(5);
        let d = h.snapshot().delta(&earlier);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 1005);
        // min/max re-estimated from bucket bounds: 5 lives in [4,7],
        // 1000 in [512,1023]; the observed max clamps the upper bound.
        assert!(d.min >= 4 && d.min <= 5, "min {}", d.min);
        assert!(d.max >= 1000 && d.max <= 1023, "max {}", d.max);
    }
}
