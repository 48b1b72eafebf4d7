//! Operators with controlled, artificial processing cost.
//!
//! The paper's experiments specify exact per-element costs (e.g. a selection
//! "with processing costs of approximately 2 seconds" simulating complex
//! predicate evaluation, §6.6). These wrappers impose such costs on any
//! operator so the experiment harness can dial in the paper's parameters.

use std::time::{Duration, Instant};

use hmts_streams::element::Element;
use hmts_streams::error::Result;
use hmts_streams::time::Timestamp;

use crate::traits::{Operator, Output};

/// How an artificial cost is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMode {
    /// Busy-spin for the duration — consumes a CPU, like a real expensive
    /// computation. This is what the paper's expensive selections do.
    Busy(Duration),
    /// Sleep for the duration — models blocking I/O rather than CPU work.
    /// Beware: sleeping threads overlap even on one core, so `Sleep` cannot
    /// demonstrate multi-core speedups.
    Sleep(Duration),
    /// Impose no actual delay, but report the duration via `cost_hint` —
    /// for placement/partitioning experiments that never execute elements.
    Virtual(Duration),
}

impl CostMode {
    /// The nominal per-element duration of this mode.
    pub fn duration(self) -> Duration {
        match self {
            CostMode::Busy(d) | CostMode::Sleep(d) | CostMode::Virtual(d) => d,
        }
    }

    fn apply(self) {
        match self {
            CostMode::Busy(d) => spin_for(d),
            CostMode::Sleep(d) => std::thread::sleep(d),
            CostMode::Virtual(_) => {}
        }
    }
}

/// Busy-waits for approximately `d` (spin loop on a monotonic clock).
pub fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Wraps an operator, imposing an artificial per-element cost before
/// delegating. Punctuations are not charged.
pub struct Costed<O> {
    inner: O,
    mode: CostMode,
}

impl<O: Operator> Costed<O> {
    /// Imposes `mode` on every element processed by `inner`.
    pub fn new(inner: O, mode: CostMode) -> Costed<O> {
        Costed { inner, mode }
    }

    /// The wrapped operator.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The cost mode.
    pub fn mode(&self) -> CostMode {
        self.mode
    }
}

impl<O: Operator> Operator for Costed<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_arity(&self) -> usize {
        self.inner.input_arity()
    }

    fn process(&mut self, port: usize, element: &Element, out: &mut Output) -> Result<()> {
        self.mode.apply();
        self.inner.process(port, element, out)
    }

    fn on_watermark(&mut self, port: usize, watermark: Timestamp, out: &mut Output) -> Result<()> {
        self.inner.on_watermark(port, watermark, out)
    }

    fn flush(&mut self, out: &mut Output) -> Result<()> {
        self.inner.flush(out)
    }

    fn cost_hint(&self) -> Option<Duration> {
        let inner = self.inner.cost_hint().unwrap_or(Duration::ZERO);
        Some(inner + self.mode.duration())
    }

    fn selectivity_hint(&self) -> Option<f64> {
        self.inner.selectivity_hint()
    }

    fn stateful(&mut self) -> Option<&mut dyn hmts_state::StatefulOperator> {
        self.inner.stateful()
    }

    fn shard_key(&self, port: usize) -> Option<crate::expr::Expr> {
        self.inner.shard_key(port)
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        // A replica of a costed operator must charge the same cost, or the
        // sharding speedup would be an artifact of dropping the wrapper.
        let inner = self.inner.replicate()?;
        Some(Box::new(Costed::new(inner, self.mode)))
    }

    fn on_eos(&mut self, port: usize, out: &mut Output) -> Result<()> {
        self.inner.on_eos(port, out)
    }

    fn end_slice(&mut self) {
        self.inner.end_slice()
    }
}

/// A stand-alone pass-through operator with artificial cost — the simplest
/// "expensive operator" for scheduling experiments.
pub struct BusyPassthrough {
    name: String,
    mode: CostMode,
}

impl BusyPassthrough {
    /// A pass-through charging `mode` per element.
    pub fn new(name: impl Into<String>, mode: CostMode) -> BusyPassthrough {
        BusyPassthrough { name: name.into(), mode }
    }
}

impl Operator for BusyPassthrough {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: usize, element: &Element, out: &mut Output) -> Result<()> {
        self.mode.apply();
        out.push(element.clone());
        Ok(())
    }

    fn cost_hint(&self) -> Option<Duration> {
        Some(self.mode.duration())
    }

    fn selectivity_hint(&self) -> Option<f64> {
        Some(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::filter::Filter;

    #[test]
    fn spin_for_waits_roughly_right() {
        let start = Instant::now();
        spin_for(Duration::from_millis(5));
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(5));
        assert!(elapsed < Duration::from_millis(200), "spin overshoot: {elapsed:?}");
        spin_for(Duration::ZERO); // must not hang
    }

    #[test]
    fn costed_busy_delays_processing() {
        let f = Filter::new("f", Expr::bool(true));
        let mut c = Costed::new(f, CostMode::Busy(Duration::from_millis(3)));
        let mut out = Output::new();
        let start = Instant::now();
        c.process(0, &Element::single(1, Timestamp::ZERO), &mut out).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(3));
        assert_eq!(out.len(), 1);
        assert_eq!(c.name(), "f");
        assert_eq!(c.input_arity(), 1);
    }

    #[test]
    fn virtual_mode_is_free_but_hints() {
        let f = Filter::new("f", Expr::bool(true)).with_cost_hint(Duration::from_micros(2));
        let c = Costed::new(f, CostMode::Virtual(Duration::from_secs(2)));
        assert_eq!(c.cost_hint(), Some(Duration::from_secs(2) + Duration::from_micros(2)));
        assert_eq!(c.mode().duration(), Duration::from_secs(2));
    }

    #[test]
    fn sleep_mode_sleeps() {
        let mut c = BusyPassthrough::new("b", CostMode::Sleep(Duration::from_millis(2)));
        let mut out = Output::new();
        let start = Instant::now();
        c.process(0, &Element::single(1, Timestamp::ZERO), &mut out).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn costed_delegates_stateful_surface() {
        let mut stateful = Costed::new(
            crate::sample::Sample::every_kth("s", 2),
            CostMode::Virtual(Duration::ZERO),
        );
        assert!(stateful.stateful().is_some());
        let mut stateless =
            Costed::new(Filter::new("f", Expr::bool(true)), CostMode::Virtual(Duration::ZERO));
        assert!(stateless.stateful().is_none());
    }

    #[test]
    fn busy_passthrough_forwards_and_hints() {
        let mut b = BusyPassthrough::new("b", CostMode::Virtual(Duration::from_micros(7)));
        let mut out = Output::new();
        b.process(0, &Element::single(5, Timestamp::ZERO), &mut out).unwrap();
        assert_eq!(out.elements()[0].tuple.field(0).as_int().unwrap(), 5);
        assert_eq!(b.cost_hint(), Some(Duration::from_micros(7)));
        assert_eq!(b.selectivity_hint(), Some(1.0));
    }
}
