//! Measurement primitives used for runtime statistics.
//!
//! The queue-placement heuristic (paper §5.1.3) assumes that the per-element
//! processing cost `c(v)` and the mean inter-arrival time `d(v)` of every
//! operator "are meta data provided by the DSMS during runtime". These
//! primitives are how the DSMS provides them: exponentially weighted moving
//! averages over observed costs and arrival gaps, plus a time-series
//! recorder for the experiment figures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::time::Timestamp;

/// Exponentially weighted moving average of a scalar.
///
/// `alpha` is the weight of the newest observation; the paper's companion
/// work (\[5\] in its references) motivates estimating such statistics online
/// rather than keeping histories.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an estimator; `alpha` is clamped to `(0, 1]`.
    pub fn new(alpha: f64) -> Ewma {
        Ewma { alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0), value: None }
    }

    /// An estimator resuming from `value` (the inverse of
    /// [`value`](Self::value)).
    fn with_value(alpha: f64, value: Option<f64>) -> Ewma {
        Ewma { value, ..Ewma::new(alpha) }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current estimate, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Number-agnostic reset (e.g. after a mode switch invalidates history).
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Weight of the newest cost sample.
const COST_ALPHA: f64 = 0.2;
/// Weight of the newest arrival gap.
const ARRIVAL_ALPHA: f64 = 0.1;

/// Online estimator of per-element processing cost `c(v)`.
#[derive(Debug, Clone)]
pub struct CostEstimator {
    ewma: Ewma,
    samples: u64,
}

impl CostEstimator {
    /// Cost estimator with the engine's default smoothing.
    pub fn new() -> CostEstimator {
        CostEstimator::from_parts(None, 0)
    }

    /// An estimator resuming from its state: the mean cost in seconds
    /// ([`mean_secs`](Self::mean_secs)) and the sample count.
    pub fn from_parts(mean_secs: Option<f64>, samples: u64) -> CostEstimator {
        CostEstimator { ewma: Ewma::with_value(COST_ALPHA, mean_secs), samples }
    }

    /// The estimate in seconds, or `None` before any observation.
    pub fn mean_secs(&self) -> Option<f64> {
        self.ewma.value()
    }

    /// Records that processing one element took `d`.
    pub fn observe(&mut self, d: Duration) {
        self.ewma.observe(d.as_secs_f64());
        self.samples += 1;
    }

    /// Estimated per-element cost, or `None` before any observation.
    pub fn cost(&self) -> Option<Duration> {
        self.ewma.value().map(Duration::from_secs_f64)
    }

    /// How many elements contributed to the estimate.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

impl Default for CostEstimator {
    fn default() -> Self {
        Self::new()
    }
}

/// Online estimator of the mean inter-arrival time `d(v)` from element
/// timestamps.
#[derive(Debug, Clone)]
pub struct InterArrivalEstimator {
    ewma: Ewma,
    last: Option<Timestamp>,
    count: u64,
}

impl InterArrivalEstimator {
    /// Inter-arrival estimator with the engine's default smoothing.
    pub fn new() -> InterArrivalEstimator {
        InterArrivalEstimator::from_parts(None, None, 0)
    }

    /// An estimator resuming from its state: the mean gap in seconds
    /// ([`mean_gap_secs`](Self::mean_gap_secs)), the last arrival and the
    /// arrival count.
    pub fn from_parts(
        mean_gap_secs: Option<f64>,
        last: Option<Timestamp>,
        count: u64,
    ) -> InterArrivalEstimator {
        InterArrivalEstimator { ewma: Ewma::with_value(ARRIVAL_ALPHA, mean_gap_secs), last, count }
    }

    /// The estimated mean gap in seconds, or `None` until two arrivals.
    pub fn mean_gap_secs(&self) -> Option<f64> {
        self.ewma.value()
    }

    /// Records an arrival at time `t`.
    pub fn observe(&mut self, t: Timestamp) {
        if let Some(prev) = self.last {
            if t >= prev {
                self.ewma.observe(t.since(prev).as_secs_f64());
            }
        }
        self.last = Some(t);
        self.count += 1;
    }

    /// Estimated mean gap between arrivals (`d(v)`), or `None` until two
    /// arrivals have been seen.
    pub fn interarrival(&self) -> Option<Duration> {
        self.ewma.value().map(Duration::from_secs_f64)
    }

    /// Estimated arrival rate in elements/second (`1/d(v)`), or `None`.
    pub fn rate(&self) -> Option<f64> {
        self.ewma.value().and_then(|g| if g > 0.0 { Some(1.0 / g) } else { None })
    }

    /// Total arrivals observed.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Default for InterArrivalEstimator {
    fn default() -> Self {
        Self::new()
    }
}

/// Online selectivity estimator: outputs produced per input consumed.
#[derive(Debug, Clone, Default)]
pub struct SelectivityEstimator {
    inputs: u64,
    outputs: u64,
}

impl SelectivityEstimator {
    /// New estimator with no observations.
    pub fn new() -> SelectivityEstimator {
        SelectivityEstimator::default()
    }

    /// An estimator resuming from its two counts.
    pub fn from_parts(inputs: u64, outputs: u64) -> SelectivityEstimator {
        SelectivityEstimator { inputs, outputs }
    }

    /// Records that one input element produced `outputs` output elements.
    pub fn observe(&mut self, outputs: u64) {
        self.observe_run(1, outputs);
    }

    /// Records that `inputs` input elements produced `outputs` output
    /// elements between them.
    pub fn observe_run(&mut self, inputs: u64, outputs: u64) {
        self.inputs += inputs;
        self.outputs += outputs;
    }

    /// Mean outputs-per-input over the whole run, or `None` with no inputs.
    pub fn selectivity(&self) -> Option<f64> {
        if self.inputs == 0 {
            None
        } else {
            Some(self.outputs as f64 / self.inputs as f64)
        }
    }

    /// Inputs observed so far.
    pub fn inputs(&self) -> u64 {
        self.inputs
    }

    /// Outputs observed so far.
    pub fn outputs(&self) -> u64 {
        self.outputs
    }
}

/// A thread-safe monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An append-only series of `(time, value)` samples, with CSV export for the
/// experiment harness.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(Timestamp, f64)>,
}

impl TimeSeries {
    /// A named, empty series.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries { name: name.into(), samples: Vec::new() }
    }

    /// The series name (becomes the CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn record(&mut self, t: Timestamp, value: f64) {
        self.samples.push((t, value));
    }

    /// All samples in insertion order.
    pub fn samples(&self) -> &[(Timestamp, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The final sample, if any.
    pub fn last(&self) -> Option<(Timestamp, f64)> {
        self.samples.last().copied()
    }

    /// The maximum sampled value, if any.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().map(|(_, v)| *v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_observation_is_exact() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn ewma_converges_toward_new_level() {
        let mut e = Ewma::new(0.5);
        e.observe(0.0);
        for _ in 0..30 {
            e.observe(100.0);
        }
        assert!((e.value().unwrap() - 100.0).abs() < 1e-3);
    }

    #[test]
    fn ewma_reset() {
        let mut e = Ewma::new(0.3);
        e.observe(5.0);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    fn ewma_alpha_clamped() {
        let mut e = Ewma::new(7.0); // clamped to 1.0: tracks last observation
        e.observe(1.0);
        e.observe(2.0);
        assert_eq!(e.value(), Some(2.0));
    }

    #[test]
    fn cost_estimator_tracks_duration() {
        let mut c = CostEstimator::new();
        assert!(c.cost().is_none());
        for _ in 0..50 {
            c.observe(Duration::from_micros(100));
        }
        let est = c.cost().unwrap();
        assert!(est >= Duration::from_micros(99) && est <= Duration::from_micros(101));
        assert_eq!(c.samples(), 50);
    }

    #[test]
    fn interarrival_estimator_measures_gaps() {
        let mut d = InterArrivalEstimator::new();
        assert!(d.interarrival().is_none());
        for i in 0..100u64 {
            d.observe(Timestamp::from_millis(i * 10));
        }
        let gap = d.interarrival().unwrap();
        assert!((gap.as_secs_f64() - 0.010).abs() < 1e-4, "gap={gap:?}");
        let rate = d.rate().unwrap();
        assert!((rate - 100.0).abs() < 2.0, "rate={rate}");
        assert_eq!(d.count(), 100);
    }

    #[test]
    fn interarrival_ignores_time_going_backwards() {
        let mut d = InterArrivalEstimator::new();
        d.observe(Timestamp::from_secs(10));
        d.observe(Timestamp::from_secs(5)); // ignored gap
        d.observe(Timestamp::from_secs(6));
        assert!((d.interarrival().unwrap().as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn selectivity_estimator() {
        let mut s = SelectivityEstimator::new();
        assert!(s.selectivity().is_none());
        s.observe(0);
        s.observe(1);
        s.observe(1);
        s.observe(0);
        assert_eq!(s.selectivity(), Some(0.5));
        assert_eq!(s.inputs(), 4);
    }

    #[test]
    fn counter_is_threadsafe() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        c.add(5);
        assert_eq!(c.get(), 4005);
    }

    #[test]
    fn time_series_records_and_exports() {
        let mut ts = TimeSeries::new("mem");
        ts.record(Timestamp::from_secs(1), 10.0);
        ts.record(Timestamp::from_secs(2), 30.0);
        ts.record(Timestamp::from_secs(3), 20.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max(), Some(30.0));
        assert_eq!(ts.last(), Some((Timestamp::from_secs(3), 20.0)));
    }
}
