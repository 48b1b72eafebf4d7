//! Metrics registry: named counters, gauges, and log-bucketed histograms.
//!
//! Registration (cold path) takes a lock; every update through a returned
//! handle is a single atomic operation, so instrumented hot paths never
//! contend on the registry itself. Handles are cheap `Arc` clones and stay
//! valid for the life of the process even if the registry is dropped.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

/// Number of power-of-two histogram buckets. Bucket `i` covers values
/// `v` with `2^(i-1) < v <= 2^i` (bucket 0 covers 0 and 1), which spans
/// 1 ns .. ~18 s when recording nanoseconds.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (used on the disabled path).
    pub fn detached() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous value handle (signed, to allow deltas below zero).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry (used on the disabled path).
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-watermark updates).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Log-bucketed histogram handle; bucket boundaries are powers of two.
///
/// Designed for nanosecond latencies: recording is two atomic adds plus a
/// leading-zeros instruction, with no allocation or locking.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram not attached to any registry (disabled path).
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    fn bucket_index(v: u64) -> usize {
        // Upper bounds are inclusive: v = 2^i belongs to bucket i, hence
        // the index of the highest set bit of v - 1.
        ((u64::BITS - v.saturating_sub(1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records a single observation.
    pub fn record(&self, v: u64) {
        self.0.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 <= q <= 1),
    /// or 0 when empty. Resolution is a factor of two, which is enough to
    /// tell a 100 ns operator from a 100 us one.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Histogram::bucket_upper_bound(i);
            }
        }
        Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Median estimate (bucket upper bound); see [`Histogram::quantile`].
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i).max(1)
        }
    }

    /// Non-empty `(upper_bound, cumulative_count)` pairs, cumulative over
    /// all buckets up to and including each bound.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                out.push((Histogram::bucket_upper_bound(i), cum));
            }
        }
        out
    }
}

/// A metric registered under a name.
#[derive(Clone, Debug)]
pub enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Point-in-time value of one metric, as captured by [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    /// `(count, sum, cumulative buckets)`.
    Histogram(u64, u64, Vec<(u64, u64)>),
}

impl MetricValue {
    /// The value as a float (histograms report their mean).
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v as f64,
            MetricValue::Histogram(count, sum, _) => {
                if *count == 0 {
                    0.0
                } else {
                    *sum as f64 / *count as f64
                }
            }
        }
    }
}

/// Name lookups over a registry snapshot — the one way the admin plane,
/// the capacity analyzer and the alert rules read individual metrics out
/// of it.
pub(crate) struct Lookup<'a>(pub &'a [(String, MetricValue)]);

impl<'a> Lookup<'a> {
    /// The metric `name`, whatever its kind.
    pub fn get(&self, name: &str) -> Option<&'a MetricValue> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The counter `name`; 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// The histogram `name` as `(count, cumulative buckets)`.
    pub fn histogram(&self, name: &str) -> Option<(u64, &'a [(u64, u64)])> {
        match self.get(name) {
            Some(MetricValue::Histogram(count, _, buckets)) => Some((*count, buckets)),
            _ => None,
        }
    }
}

/// Named registry of metrics. `get_or_register`-style accessors make
/// instrumentation idempotent: asking twice for the same name returns
/// handles to the same underlying atomic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it if absent.
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {}", kind_of(&other)),
        }
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {}", kind_of(&other)),
        }
    }

    /// Returns the histogram registered under `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {}", kind_of(&other)),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.metrics.read().get(name) {
            return m.clone();
        }
        let mut metrics = self.metrics.write();
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.read().is_empty()
    }

    /// Captures every metric's current value, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.metrics
            .read()
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        MetricValue::Histogram(h.count(), h.sum(), h.cumulative_buckets())
                    }
                };
                (name.clone(), value)
            })
            .collect()
    }
}

/// Quantile estimate from a snapshot's cumulative `(upper_bound,
/// cumulative_count)` pairs — the same rank walk as
/// [`Histogram::quantile`], usable by exporters that only hold a
/// [`MetricValue::Histogram`] rather than a live handle.
pub fn quantile_from_cumulative(count: u64, buckets: &[(u64, u64)], q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    for &(bound, cum) in buckets {
        if cum >= rank {
            return bound;
        }
    }
    buckets.last().map(|&(bound, _)| bound).unwrap_or(0)
}

fn kind_of(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ops");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("ops").get(), 5);

        let g = reg.gauge("occupancy");
        g.set(7);
        g.add(-2);
        g.set_max(3); // below current value: no effect
        assert_eq!(reg.gauge("occupancy").get(), 5);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let h = Histogram::detached();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let buckets = h.cumulative_buckets();
        // 0 and 1 share bucket 0 (bound 1); 2 is at bound 2; 3 at bound 4;
        // 1000 lands at bound 1024.
        assert_eq!(buckets, vec![(1, 2), (2, 3), (4, 4), (1024, 5)]);
        assert!(h.quantile(0.5) <= 4);
        assert_eq!(h.quantile(1.0), 1024);
        assert_eq!(h.p50(), h.quantile(0.50));
        assert_eq!(h.p95(), h.quantile(0.95));
        assert_eq!(h.p99(), h.quantile(0.99));
        // The snapshot-based walk agrees with the live handle.
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(quantile_from_cumulative(h.count(), &buckets, q), h.quantile(q));
        }
    }

    #[test]
    fn quantile_from_cumulative_empty_is_zero() {
        assert_eq!(quantile_from_cumulative(0, &[], 0.99), 0);
    }

    #[test]
    fn histogram_quantile_empty_is_zero() {
        assert_eq!(Histogram::detached().quantile(0.99), 0);
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_reports_sorted_values() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(2);
        reg.gauge("a").set(-1);
        let snap = reg.snapshot();
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[0].1, MetricValue::Gauge(-1));
        assert_eq!(snap[1].1, MetricValue::Counter(2));
    }
}
