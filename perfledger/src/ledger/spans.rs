//! Span recording from the benchmark's side of the engine's public API:
//! every source and operator of a traced pass is wrapped in [`Spanned`],
//! which times the call into the layer and forwards everything else.
//! Tracing inside `crates/core` is a later change.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hmts::operators::traits::{Operator, Output, Source};
use hmts::prelude::{Element, Expr, StatefulOperator, Timestamp, Tuple};
use hmts::streams::error::Result;

use super::clock::LedgerClock;
use super::report::json_string;

/// One tuple in this many (chosen by stream timestamp, which every operator
/// of these workloads preserves) keeps its full spans.
pub const SPAN_SAMPLE_EVERY: u64 = 4096;

/// A kept span. `seq` is the tuple's stream timestamp in µs — `seq + 1` of
/// the generated row in an unpaced pass — and is shared by all spans of one
/// tuple, including the results an aggregate derives from it.
#[derive(Debug, Clone, Copy)]
pub struct FullSpan {
    pub node: usize,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
}

/// Accumulated spans of one node.
#[derive(Debug, Clone, Default)]
pub struct NodeTotals {
    pub name: String,
    pub is_source: bool,
    pub calls: u64,
    pub total_ns: u64,
    /// Elements the node emitted (sources: elements delivered).
    pub outputs: u64,
    /// `total_ns` split by the thread that made the call.
    pub by_thread: Vec<(u32, u64)>,
}

/// Where the wrappers of one pass publish to when the engine drops them.
pub struct SpanRecorder {
    clock: Arc<LedgerClock>,
    full_capacity: usize,
    nodes: Mutex<Vec<NodeTotals>>,
    full: Mutex<Vec<FullSpan>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl SpanRecorder {
    /// A recorder for a pass of `tuples` inputs; each node's buffer of kept
    /// spans is sized up front so recording never allocates mid-run.
    pub fn new(clock: Arc<LedgerClock>, tuples: usize) -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder {
            clock,
            full_capacity: tuples / SPAN_SAMPLE_EVERY as usize + 64,
            nodes: Mutex::new(Vec::new()),
            full: Mutex::new(Vec::new()),
        })
    }

    fn register(&self, name: &str, is_source: bool) -> usize {
        let mut nodes = self.nodes.lock().expect("span nodes lock poisoned");
        let taken = |n: &str| nodes.iter().any(|t| t.name == n);
        let name = if taken(name) {
            (1..).map(|k| format!("{name}#{k}")).find(|n| !taken(n)).expect("unbounded range")
        } else {
            name.to_string()
        };
        nodes.push(NodeTotals { name, is_source, ..NodeTotals::default() });
        nodes.len() - 1
    }

    /// Wraps an operator; its spans are reported under the operator's name.
    pub fn operator<O: Operator>(self: &Arc<Self>, inner: O) -> Spanned<O> {
        let node = self.register(inner.name(), false);
        Spanned::new(inner, Arc::clone(self), node)
    }

    /// Wraps a source.
    pub fn source<S: Source>(self: &Arc<Self>, inner: S) -> Spanned<S> {
        let node = self.register(inner.name(), true);
        Spanned::new(inner, Arc::clone(self), node)
    }

    /// Per-node totals, in registration order. Complete once the engine
    /// that owned the wrappers has been waited for (it drops them).
    pub fn totals(&self) -> Vec<NodeTotals> {
        self.nodes.lock().expect("span nodes lock poisoned").clone()
    }

    /// Appends the kept spans as JSON lines.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        let nodes = self.totals();
        let mut full = self.full.lock().expect("span buffer lock poisoned").clone();
        full.sort_by_key(|s| (s.seq, s.start_ns));
        for s in full {
            writeln!(
                out,
                "{{\"workload\": {}, \"node\": {}, \"seq\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"thread\": {}}}",
                json_string(workload),
                json_string(&nodes[s.node].name),
                s.seq,
                s.start_ns,
                s.end_ns,
                s.thread
            )?;
        }
        Ok(())
    }
}

/// A source or operator with a span around its per-element entry point.
/// Everything else of the trait is forwarded, so the engine, the DI
/// executor and the shard rewrite treat the wrapped node as the bare one.
pub struct Spanned<T> {
    inner: T,
    rec: Arc<SpanRecorder>,
    node: usize,
    calls: u64,
    total_ns: u64,
    outputs: u64,
    by_thread: Vec<(u32, u64)>,
    full: Vec<FullSpan>,
}

impl<T> Spanned<T> {
    fn new(inner: T, rec: Arc<SpanRecorder>, node: usize) -> Spanned<T> {
        let full = Vec::with_capacity(rec.full_capacity);
        Spanned { inner, rec, node, calls: 0, total_ns: 0, outputs: 0, by_thread: Vec::new(), full }
    }

    #[inline]
    fn note(&mut self, ts: Timestamp, start_ns: u64, end_ns: u64, outputs: usize) {
        let ns = end_ns.saturating_sub(start_ns);
        self.calls += 1;
        self.total_ns += ns;
        self.outputs += outputs as u64;
        let thread = THREAD_ID.with(|t| *t);
        match self.by_thread.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, total)) => *total += ns,
            None => self.by_thread.push((thread, ns)),
        }
        let seq = ts.as_micros();
        if seq.is_multiple_of(SPAN_SAMPLE_EVERY) && self.full.len() < self.full.capacity() {
            self.full.push(FullSpan { node: self.node, seq, start_ns, end_ns, thread });
        }
    }
}

impl<T> Drop for Spanned<T> {
    fn drop(&mut self) {
        // A poisoned lock means another wrapper panicked mid-publish; this
        // one's numbers are then lost rather than panicking in a drop.
        if let Ok(mut nodes) = self.rec.nodes.lock() {
            let t = &mut nodes[self.node];
            t.calls += self.calls;
            t.total_ns += self.total_ns;
            t.outputs += self.outputs;
            t.by_thread.append(&mut self.by_thread);
        }
        if let Ok(mut full) = self.rec.full.lock() {
            full.append(&mut self.full);
        }
    }
}

impl<O: Operator> Operator for Spanned<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_arity(&self) -> usize {
        self.inner.input_arity()
    }

    fn process(&mut self, port: usize, element: &Element, out: &mut Output) -> Result<()> {
        let before = out.len();
        let start = self.rec.clock.now_ns();
        let result = self.inner.process(port, element, out);
        let end = self.rec.clock.now_ns();
        self.note(element.ts, start, end, out.len().saturating_sub(before));
        result
    }

    fn on_watermark(&mut self, port: usize, watermark: Timestamp, out: &mut Output) -> Result<()> {
        self.inner.on_watermark(port, watermark, out)
    }

    fn flush(&mut self, out: &mut Output) -> Result<()> {
        self.inner.flush(out)
    }

    fn cost_hint(&self) -> Option<Duration> {
        self.inner.cost_hint()
    }

    fn selectivity_hint(&self) -> Option<f64> {
        self.inner.selectivity_hint()
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulOperator> {
        self.inner.stateful()
    }

    fn shard_key(&self, port: usize) -> Option<Expr> {
        self.inner.shard_key(port)
    }

    /// A replica is spanned too, as a node of its own (`name#1`, …), which
    /// is what makes per-replica load visible.
    fn replicate(&self) -> Option<Box<dyn Operator>> {
        let copy = self.inner.replicate()?;
        Some(Box::new(self.rec.operator(copy)))
    }

    fn on_eos(&mut self, port: usize, out: &mut Output) -> Result<()> {
        self.inner.on_eos(port, out)
    }
}

impl<S: Source> Source for Spanned<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next(&mut self) -> Option<(Timestamp, Tuple)> {
        self.next_element().map(|e| (e.ts, e.tuple))
    }

    fn next_element(&mut self) -> Option<Element> {
        let start = self.rec.clock.now_ns();
        let element = self.inner.next_element();
        let end = self.rec.clock.now_ns();
        if let Some(e) = &element {
            self.note(e.ts, start, end, 1);
        }
        element
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts::prelude::{AggregateFunction, Filter, VecSource, WindowAggregate};

    fn recorder() -> Arc<SpanRecorder> {
        let clock = Arc::new(LedgerClock::new());
        clock.arm();
        SpanRecorder::new(clock, 10_000)
    }

    #[test]
    fn operator_surface_is_forwarded() {
        let rec = recorder();
        let agg = WindowAggregate::new("agg", AggregateFunction::Sum(1), Duration::from_secs(1))
            .group_by(Expr::field(0))
            .with_cost_hint(Duration::from_micros(3));
        let mut wrapped = rec.operator(agg);
        assert_eq!(wrapped.name(), "agg");
        assert_eq!(wrapped.input_arity(), 1);
        assert_eq!(wrapped.cost_hint(), Some(Duration::from_micros(3)));
        assert_eq!(wrapped.selectivity_hint(), Some(1.0));
        assert!(wrapped.shard_key(0).is_some());
        assert!(wrapped.stateful().is_some());
        let mut replica = wrapped.replicate().expect("aggregate replicates");
        assert_eq!(replica.name(), "agg");

        let mut out = Output::new();
        let e = Element::new(Tuple::pair(1, 5), Timestamp::from_micros(SPAN_SAMPLE_EVERY));
        wrapped.process(0, &e, &mut out).unwrap();
        replica.process(0, &e, &mut out).unwrap();
        replica.process(0, &e, &mut out).unwrap();
        wrapped.flush(&mut out).unwrap();
        wrapped.on_eos(0, &mut out).unwrap();
        wrapped.on_watermark(0, Timestamp::from_secs(9), &mut out).unwrap();
        assert_eq!(out.len(), 3);
        drop(wrapped);
        drop(replica);

        let totals = rec.totals();
        assert_eq!(totals.len(), 2);
        assert_eq!((totals[0].name.as_str(), totals[0].calls, totals[0].outputs), ("agg", 1, 1));
        assert_eq!((totals[1].name.as_str(), totals[1].calls, totals[1].outputs), ("agg#1", 2, 2));
        let mut jsonl = Vec::new();
        rec.write_jsonl("w", &mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        for line in text.lines() {
            let span = hmts::obs::json::parse(line).expect("span line is JSON");
            assert_eq!(span.get("seq").and_then(|s| s.as_u64()), Some(SPAN_SAMPLE_EVERY));
            assert!(span.get("end_ns").unwrap().as_u64() >= span.get("start_ns").unwrap().as_u64());
        }
    }

    #[test]
    fn source_surface_is_forwarded() {
        let rec = recorder();
        let mut src = rec.source(VecSource::counting("s", 3, 1e6));
        assert_eq!(src.name(), "s");
        assert_eq!(src.size_hint(), Some(3));
        assert_eq!(src.next().unwrap().1, Tuple::single(0));
        assert_eq!(src.next_element().unwrap().tuple, Tuple::single(1));
        assert!(src.next().is_some() && src.next().is_none());
        drop(src);
        let t = &rec.totals()[0];
        assert!(t.is_source);
        assert_eq!((t.calls, t.outputs), (3, 3));
        // An unspanned filter behaves the same wrapped or bare.
        let mut bare = Filter::new("f", Expr::field(0).lt(Expr::int(1)));
        let mut wrapped = rec.operator(Filter::new("f", Expr::field(0).lt(Expr::int(1))));
        for v in 0..3 {
            let (mut a, mut b) = (Output::new(), Output::new());
            let e = Element::single(v, Timestamp::from_micros(v as u64));
            bare.process(0, &e, &mut a).unwrap();
            wrapped.process(0, &e, &mut b).unwrap();
            assert_eq!(a.elements(), b.elements());
        }
    }
}
