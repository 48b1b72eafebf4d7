//! Sinks — the consuming leaves of a query graph.
//!
//! Paper §2.1: "sinks only consume data". Sinks here are ordinary operators
//! that emit nothing; each exposes a cloneable *handle* through which the
//! application (or the experiment harness) observes what arrived.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use hmts_streams::element::Element;
use hmts_streams::error::Result;
use hmts_streams::time::Timestamp;

use crate::traits::{Operator, Output};

/// Shared observation state of a sink.
#[derive(Debug, Default)]
struct SinkState {
    elements: Mutex<Vec<Element>>,
    count: AtomicU64,
    done: AtomicBool,
    last_ts: Mutex<Option<Timestamp>>,
}

/// Cloneable read-side handle of a [`CollectingSink`] / [`CountingSink`].
#[derive(Debug, Clone, Default)]
pub struct SinkHandle {
    state: Arc<SinkState>,
}

impl SinkHandle {
    /// Number of elements received so far.
    pub fn count(&self) -> u64 {
        self.state.count.load(Ordering::Acquire)
    }

    /// Whether the sink has received end-of-stream (the query completed).
    pub fn is_done(&self) -> bool {
        self.state.done.load(Ordering::Acquire)
    }

    /// Snapshot of all collected elements (empty for counting-only sinks).
    pub fn elements(&self) -> Vec<Element> {
        self.state.elements.lock().clone()
    }

    /// The stream timestamp of the most recent element, if any.
    pub fn last_ts(&self) -> Option<Timestamp> {
        *self.state.last_ts.lock()
    }
}

/// A sink that stores every element it receives.
pub struct CollectingSink {
    name: String,
    state: Arc<SinkState>,
}

impl CollectingSink {
    /// Creates the sink and its observation handle.
    pub fn new(name: impl Into<String>) -> (CollectingSink, SinkHandle) {
        let state = Arc::new(SinkState::default());
        (CollectingSink { name: name.into(), state: Arc::clone(&state) }, SinkHandle { state })
    }
}

impl Operator for CollectingSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: usize, element: &Element, _out: &mut Output) -> Result<()> {
        self.state.elements.lock().push(element.clone());
        *self.state.last_ts.lock() = Some(element.ts);
        self.state.count.fetch_add(1, Ordering::Release);
        Ok(())
    }

    fn flush(&mut self, _out: &mut Output) -> Result<()> {
        self.state.done.store(true, Ordering::Release);
        Ok(())
    }
}

/// A sink that only counts elements (no storage — suitable for the
/// million-element throughput experiments).
pub struct CountingSink {
    name: String,
    state: Arc<SinkState>,
}

impl CountingSink {
    /// Creates the sink and its observation handle.
    pub fn new(name: impl Into<String>) -> (CountingSink, SinkHandle) {
        let state = Arc::new(SinkState::default());
        (CountingSink { name: name.into(), state: Arc::clone(&state) }, SinkHandle { state })
    }
}

impl Operator for CountingSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: usize, element: &Element, _out: &mut Output) -> Result<()> {
        *self.state.last_ts.lock() = Some(element.ts);
        self.state.count.fetch_add(1, Ordering::Release);
        Ok(())
    }

    fn flush(&mut self, _out: &mut Output) -> Result<()> {
        self.state.done.store(true, Ordering::Release);
        Ok(())
    }
}

/// A sink that discards everything (for pure-overhead measurements).
pub struct NullSink {
    name: String,
}

impl NullSink {
    /// A discarding sink.
    pub fn new(name: impl Into<String>) -> NullSink {
        NullSink { name: name.into() }
    }
}

impl Operator for NullSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: usize, _element: &Element, _out: &mut Output) -> Result<()> {
        Ok(())
    }
}

/// A sink that invokes a callback per element.
pub struct CallbackSink {
    name: String,
    f: Box<dyn FnMut(&Element) + Send>,
}

impl CallbackSink {
    /// A sink calling `f` for each element.
    pub fn new(name: impl Into<String>, f: impl FnMut(&Element) + Send + 'static) -> CallbackSink {
        CallbackSink { name: name.into(), f: Box::new(f) }
    }
}

impl Operator for CallbackSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: usize, element: &Element, _out: &mut Output) -> Result<()> {
        (self.f)(element);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(v: i64, secs: u64) -> Element {
        Element::single(v, Timestamp::from_secs(secs))
    }

    #[test]
    fn collecting_sink_stores_elements() {
        let (mut s, h) = CollectingSink::new("c");
        let mut out = Output::new();
        s.process(0, &el(1, 1), &mut out).unwrap();
        s.process(0, &el(2, 2), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(h.count(), 2);
        assert_eq!(h.elements().len(), 2);
        assert_eq!(h.last_ts(), Some(Timestamp::from_secs(2)));
        assert!(!h.is_done());
        s.flush(&mut out).unwrap();
        assert!(h.is_done());
    }

    #[test]
    fn counting_sink_counts_without_storing() {
        let (mut s, h) = CountingSink::new("n");
        let mut out = Output::new();
        for i in 0..100 {
            s.process(0, &el(i, i as u64), &mut out).unwrap();
        }
        assert_eq!(h.count(), 100);
        assert!(h.elements().is_empty());
    }

    #[test]
    fn null_and_callback_sinks() {
        let mut n = NullSink::new("null");
        let mut out = Output::new();
        n.process(0, &el(1, 0), &mut out).unwrap();
        assert_eq!(n.name(), "null");

        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let mut c = CallbackSink::new("cb", move |_| {
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        c.process(0, &el(1, 0), &mut out).unwrap();
        c.process(0, &el(2, 0), &mut out).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }
}
