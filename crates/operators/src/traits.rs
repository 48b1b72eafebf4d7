//! Core operator abstractions for push-based processing.
//!
//! Following the paper's §2.4, operators are *push-based*: an element is
//! handed to [`Operator::process`], which appends any results to an
//! [`Output`] buffer. The executor that owns the operator then routes those
//! results — either by invoking successor operators directly (direct
//! interoperability, DI) when they live in the same partition / virtual
//! operator, or by enqueueing into a boundary [`hmts_streams::StreamQueue`].
//! Operators themselves never know which of the two happens; that is the
//! whole point of the paper's level-1 architecture.

use std::time::Duration;

use hmts_state::StatefulOperator;
use hmts_streams::element::Element;
use hmts_streams::error::Result;
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;

/// Buffer that collects the outputs of one `process_batch` / `process` /
/// `on_watermark` / `on_eos` / `flush` invocation.
///
/// Keeping outputs in a buffer (instead of letting operators call successors
/// themselves) lets the *executor* decide between DI and queueing, and keeps
/// the depth-first chain reaction iterative rather than recursive. The
/// executor hands the buffer on as one run per successor — a run is the
/// unit of depth-first order — so an element reaches its successors in
/// emission order, and the first successor's subtree takes its run whole
/// before the second's.
#[derive(Debug, Default)]
pub struct Output {
    elements: Vec<Element>,
    /// Per-element route tags, maintained lazily: empty means *every*
    /// element is broadcast to all successors (the overwhelmingly common
    /// case, and free). The first [`Output::push_routed`] call back-fills
    /// [`Output::BROADCAST`] for earlier elements, after which the vector
    /// stays parallel to `elements`.
    routes: Vec<u32>,
}

impl Output {
    /// Route tag meaning "deliver to every successor" (the default for
    /// [`Output::push`] / [`Output::emit`]).
    pub const BROADCAST: u32 = u32::MAX;

    /// An empty output buffer.
    pub fn new() -> Output {
        Output::default()
    }

    /// Emits an element.
    #[inline]
    pub fn push(&mut self, e: Element) {
        self.elements.push(e);
        if !self.routes.is_empty() {
            self.routes.push(Self::BROADCAST);
        }
    }

    /// Emits an element addressed to a single successor, identified by its
    /// out-edge ordinal (the position of the edge among the producing
    /// node's out-edges, in graph edge order). Used by partitioning
    /// splitters; everything else broadcasts.
    #[inline]
    pub fn push_routed(&mut self, route: u32, e: Element) {
        if self.routes.is_empty() {
            self.routes.resize(self.elements.len(), Self::BROADCAST);
        }
        self.elements.push(e);
        self.routes.push(route);
    }

    /// Emits a tuple with the given timestamp.
    #[inline]
    pub fn emit(&mut self, tuple: Tuple, ts: Timestamp) {
        self.push(Element::new(tuple, ts));
    }

    /// Number of buffered elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether nothing was emitted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Drains the buffered elements in emission order.
    ///
    /// Callers that honour routing must call [`Output::take_routes`]
    /// *before* draining; `drain` itself resets the route tags so a
    /// route-oblivious caller never sees stale tags on the next batch.
    #[inline]
    pub fn drain(&mut self) -> std::vec::Drain<'_, Element> {
        self.routes.clear();
        self.elements.drain(..)
    }

    /// Takes the per-element route tags (parallel to the buffered
    /// elements). Empty means every element is broadcast.
    pub fn take_routes(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.routes)
    }

    /// Like [`Output::take_routes`], but hands the tags over in `buf` and
    /// keeps `buf`'s storage (emptied) for the next tags: a caller that
    /// passes the same buffer every time makes routing allocation-free.
    #[inline]
    pub fn swap_routes(&mut self, buf: &mut Vec<u32>) {
        buf.clear();
        if !self.routes.is_empty() {
            std::mem::swap(&mut self.routes, buf);
        }
    }

    /// Read-only view of the buffered elements.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Discards all buffered elements.
    #[inline]
    pub fn clear(&mut self) {
        self.elements.clear();
        self.routes.clear();
    }

    /// Discards everything emitted after the first `len` elements: what an
    /// operator that fails part-way through an input takes back.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.elements.truncate(len);
        self.routes.truncate(len);
    }

    /// Whether any buffered element carries a route tag, i.e. whether a
    /// caller has to look at [`Output::swap_routes`] before delivering.
    #[inline]
    pub fn is_routed(&self) -> bool {
        !self.routes.is_empty()
    }

    /// Hands the buffered elements over in `buf` (whose previous contents
    /// are discarded) and keeps `buf`'s storage for the next outputs: a
    /// whole output buffer becomes the next operator's run without an
    /// element being moved. Route tags, if any, are dropped — this is for
    /// callers that found [`Output::is_routed`] false.
    #[inline]
    pub fn swap_elements(&mut self, buf: &mut Vec<Element>) {
        buf.clear();
        self.routes.clear();
        std::mem::swap(&mut self.elements, buf);
    }

    /// Emits every element of `run`, in order, leaving `run` empty. With
    /// nothing buffered, `run`'s storage becomes the buffer and the
    /// buffer's (empty) storage `run`'s, so no element is moved: an operator
    /// that filtered its run in place hands it on whole.
    #[inline]
    pub fn append(&mut self, run: &mut Vec<Element>) {
        if self.elements.is_empty() {
            // No elements, so no route tags either.
            return std::mem::swap(&mut self.elements, run);
        }
        if !self.routes.is_empty() {
            self.routes.resize(self.elements.len() + run.len(), Self::BROADCAST);
        }
        self.elements.append(run);
    }

    /// Stamps the buffered elements from position `from` on with the tags
    /// `input` carries: what a sampled input produced carries its trace tag,
    /// and what an input of a sharded section produced its sequence tag,
    /// including results an operator constructs from scratch (projections,
    /// join combinations, aggregates). A tag `input` does not carry is left
    /// as the results have it.
    pub fn stamp_tags(&mut self, from: usize, input: &Element) {
        let (trace, seq) = (input.trace, input.seq);
        for e in &mut self.elements[from..] {
            if trace.is_sampled() {
                e.trace = trace;
            }
            if !seq.is_none() {
                e.seq = seq;
            }
        }
    }
}

/// A push-based continuous-query operator.
///
/// Implementations must be `Send` (partitions migrate between worker
/// threads) but need not be `Sync`: the engine guarantees each operator is
/// executed by at most one thread at a time, which is exactly the paper's
/// level-2 atomic-execution property.
pub trait Operator: Send {
    /// Diagnostic name; also used in DOT dumps of the query graph.
    fn name(&self) -> &str;

    /// Number of input ports (1 for unary operators, 2 for joins, …).
    fn input_arity(&self) -> usize {
        1
    }

    /// Processes one element that arrived on `port`, appending results to
    /// `out`.
    fn process(&mut self, port: usize, element: &Element, out: &mut Output) -> Result<()>;

    /// Processes a *run* — elements that arrived on `port` one behind the
    /// other — in one call, taking them out of `run`. The contract:
    ///
    /// - **Same results.** State and `out` end up as if
    ///   [`process`](Operator::process) had been called on each element in
    ///   order; on `Ok`, `run` is empty, and its storage may have been
    ///   exchanged with `out`'s (see [`Output::append`]).
    /// - **Failure leaves the rest.** On `Err` or a panic, the elements not
    ///   yet fully processed are still in `run`, the failing one first, and
    ///   `out` holds the results of the elements before it and nothing of
    ///   the failing one — so the caller can skip or retry exactly that
    ///   element and go on with the ones behind it.
    /// - **Tags follow.** The results of an element with a sampled trace
    ///   tag carry that tag, so a traced tuple is followed through a run like
    ///   any other; the results of an element with a [`SeqTag`] carry that
    ///   tag, which is how a shard replica tells whose results are whose
    ///   after one call over its whole run (see [`Output::stamp_tags`]). An
    ///   element without a tag leaves its results' tags alone.
    ///
    /// The default lends each element to `process`, stamps the results of a
    /// tagged one, and keeps the first two promises with a guard that is
    /// also dropped by an unwind. An operator overrides it when owning the
    /// elements saves work — [`Filter`] keeps the passing elements in the run
    /// and hands the run itself to `out`, [`WindowAggregate`] moves each into
    /// its window (see [`RunFront`]) — and a wrapper that forwards `process`
    /// unchanged forwards this too.
    ///
    /// [`Filter`]: crate::filter::Filter
    /// [`WindowAggregate`]: crate::aggregate::WindowAggregate
    /// [`SeqTag`]: hmts_streams::element::SeqTag
    fn process_batch(
        &mut self,
        port: usize,
        run: &mut Vec<Element>,
        out: &mut Output,
    ) -> Result<()> {
        let mut rest = RunRest { done: 0, mark: out.len(), run, out };
        while let Some(element) = rest.run.get(rest.done) {
            self.process(port, element, rest.out)?;
            // Both tags in one test: an untagged element costs one branch.
            if (element.trace.id() | element.seq.bits()) != 0 {
                rest.out.stamp_tags(rest.mark, element);
            }
            rest.done += 1;
            rest.mark = rest.out.len();
        }
        Ok(())
    }

    /// Handles a watermark on `port`: state with timestamps strictly below
    /// the watermark may be expired. Default: nothing to expire.
    fn on_watermark(
        &mut self,
        _port: usize,
        _watermark: Timestamp,
        _out: &mut Output,
    ) -> Result<()> {
        Ok(())
    }

    /// Called once by the executor after *all* input ports have delivered
    /// end-of-stream, before EOS is forwarded downstream. Stateful operators
    /// (aggregates) emit any final results here. Default: nothing buffered.
    fn flush(&mut self, _out: &mut Output) -> Result<()> {
        Ok(())
    }

    /// A-priori estimate of the per-element processing cost `c(v)`, used by
    /// queue placement before runtime measurements exist.
    fn cost_hint(&self) -> Option<Duration> {
        None
    }

    /// A-priori estimate of the operator's selectivity (mean outputs per
    /// input), used to propagate rates through the graph before runtime
    /// measurements exist.
    fn selectivity_hint(&self) -> Option<f64> {
        None
    }

    /// The operator's snapshot/restore surface, when it carries state that
    /// must survive a checkpoint. Stateless operators (the default) return
    /// `None` and are skipped by the checkpoint coordinator; wrapper
    /// operators must delegate to their inner operator.
    fn stateful(&mut self) -> Option<&mut dyn StatefulOperator> {
        None
    }

    /// The expression whose value partitions this operator's state on the
    /// given input port, if the operator is key-partitionable: two elements
    /// whose key values are equal must land in the same state cell (group,
    /// dedup key, join bucket). The sharding rewrite uses it as the default
    /// hash key. `None` (the default) means the operator cannot be sharded
    /// without an explicit key.
    fn shard_key(&self, _port: usize) -> Option<crate::expr::Expr> {
        None
    }

    /// A fresh, empty-state copy of this operator for data-parallel
    /// replication. `None` (the default) means the operator is not
    /// replicable — e.g. it closes over a non-cloneable function.
    fn replicate(&self) -> Option<Box<dyn Operator>> {
        None
    }

    /// Called by the executor when `port` delivers end-of-stream, *before*
    /// the all-ports-closed check that triggers [`Operator::flush`].
    /// Multi-input operators that gate emission on per-port progress (the
    /// shard merge) release anything the dead port was holding back here.
    /// Default: nothing to release.
    fn on_eos(&mut self, _port: usize, _out: &mut Output) -> Result<()> {
        Ok(())
    }

    /// Called on a sink (an operator without successors) when the executor
    /// is about to give control back, and before it acknowledges a barrier:
    /// the end of a time slice, of an `inject`, of an alignment. Whatever
    /// the sink held back to do in one piece (a network sink's `write`) is
    /// due now. A host that never calls it is to be assumed, so a sink may
    /// hold back only after it has seen the first call. Wrapper operators
    /// must delegate. Default: nothing held back.
    fn end_slice(&mut self) {}
}

/// What the default [`Operator::process_batch`] leaves behind, however it
/// ends: the `done` elements at the front of `run` are taken out, and `out`
/// is cut back to `mark` — its length after the last element that went
/// through, so a failing element's partial results go and nothing else.
struct RunRest<'a> {
    done: usize,
    mark: usize,
    run: &'a mut Vec<Element>,
    out: &'a mut Output,
}

impl Drop for RunRest<'_> {
    fn drop(&mut self) {
        self.out.truncate(self.mark);
        self.run.drain(..self.done);
    }
}

/// The front of a run, taken one element at a time by move: what an
/// operator that owns its input walks in [`Operator::process_batch`]. The
/// run is turned around on the way in, so that taking the front element is
/// a `pop`; however the walk ends — done, `?` or an unwind — the drop turns
/// what is left the right way round again: the element that failed first,
/// then the ones behind it, as the failure promise asks.
pub struct RunFront<'a>(&'a mut Vec<Element>);

impl<'a> RunFront<'a> {
    /// Starts a walk over `run`.
    #[inline]
    pub fn new(run: &'a mut Vec<Element>) -> RunFront<'a> {
        run.reverse();
        RunFront(run)
    }

    /// The element at the front, lent.
    #[inline]
    pub fn front(&self) -> Option<&Element> {
        self.0.last()
    }

    /// Takes the element at the front out of the run.
    ///
    /// # Panics
    ///
    /// If the run is empty: call it after [`front`](RunFront::front) found
    /// an element.
    #[inline]
    pub fn take(&mut self) -> Element {
        self.0.pop().expect("the run has a front")
    }
}

impl Drop for RunFront<'_> {
    fn drop(&mut self) {
        self.0.reverse();
    }
}

/// A data source: the autonomous origin of a stream (paper §2.1: "sources
/// only deliver data").
///
/// `next` returns the *due* emission time together with the payload. The
/// real-time engine sleeps until the due time before injecting the element
/// (and measures how far behind it falls — the Fig. 6 experiment); the
/// discrete-event simulator uses the due time directly as virtual time.
pub trait Source: Send {
    /// Diagnostic name.
    fn name(&self) -> &str;

    /// The next element to emit: `(due_time, payload)`, or `None` when the
    /// source is exhausted (the engine then injects end-of-stream).
    fn next(&mut self) -> Option<(Timestamp, Tuple)>;

    /// The next element with its full metadata, in particular any trace
    /// tag that arrived with it (cross-process tracing: a remote source
    /// must surface the tag the wire frame carried so the engine keeps the
    /// tuple's trace alive instead of minting a fresh one). The default
    /// wraps [`next`](Source::next) with an untraced element.
    fn next_element(&mut self) -> Option<Element> {
        self.next().map(|(ts, tuple)| Element::new(tuple, ts))
    }

    /// Appends the next elements to `out` — at most `max` of them, in
    /// order — and returns `false` once the source is exhausted: whatever
    /// the same call appended is then the last of it. The rule for an
    /// implementation is to hand over what it has at hand: it may wait for
    /// its first element, never for a further one while it holds one, so a
    /// caller that delivers each batch before asking for the next delays
    /// no element. The default is one blocking
    /// [`next_element`](Source::next_element).
    fn next_batch(&mut self, _max: usize, out: &mut Vec<Element>) -> bool {
        match self.next_element() {
            Some(e) => {
                out.push(e);
                true
            }
            None => false,
        }
    }

    /// Total number of elements this source will deliver, if known in
    /// advance (used for progress reporting in the experiment harness).
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

/// Blanket helper: a boxed operator is an operator.
impl Operator for Box<dyn Operator> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn input_arity(&self) -> usize {
        (**self).input_arity()
    }

    fn process(&mut self, port: usize, element: &Element, out: &mut Output) -> Result<()> {
        (**self).process(port, element, out)
    }

    fn process_batch(
        &mut self,
        port: usize,
        run: &mut Vec<Element>,
        out: &mut Output,
    ) -> Result<()> {
        (**self).process_batch(port, run, out)
    }

    fn on_watermark(&mut self, port: usize, watermark: Timestamp, out: &mut Output) -> Result<()> {
        (**self).on_watermark(port, watermark, out)
    }

    fn flush(&mut self, out: &mut Output) -> Result<()> {
        (**self).flush(out)
    }

    fn cost_hint(&self) -> Option<Duration> {
        (**self).cost_hint()
    }

    fn selectivity_hint(&self) -> Option<f64> {
        (**self).selectivity_hint()
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulOperator> {
        (**self).stateful()
    }

    fn shard_key(&self, port: usize) -> Option<crate::expr::Expr> {
        (**self).shard_key(port)
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        (**self).replicate()
    }

    fn on_eos(&mut self, port: usize, out: &mut Output) -> Result<()> {
        (**self).on_eos(port, out)
    }

    fn end_slice(&mut self) {
        (**self).end_slice()
    }
}

/// Tracks which input ports of an operator have seen end-of-stream, so the
/// executor knows when to call [`Operator::flush`] and forward EOS.
#[derive(Debug, Clone)]
pub struct EosTracker {
    open: Vec<bool>,
}

impl EosTracker {
    /// Tracker for an operator with `arity` input ports, all initially open.
    pub fn new(arity: usize) -> EosTracker {
        EosTracker { open: vec![true; arity.max(1)] }
    }

    /// Marks `port` closed; returns `true` if this closed the *last* open
    /// port (i.e. the operator should now be flushed).
    pub fn close(&mut self, port: usize) -> bool {
        if let Some(slot) = self.open.get_mut(port) {
            *slot = false;
        }
        self.open.iter().all(|o| !o)
    }

    /// Whether any port is still open.
    pub fn any_open(&self) -> bool {
        self.open.iter().any(|o| *o)
    }

    /// Whether the given port is still open.
    pub fn is_open(&self, port: usize) -> bool {
        self.open.get(port).copied().unwrap_or(false)
    }

    /// Reopens all ports (used when an engine is rebuilt for a new run).
    pub fn reset(&mut self) {
        for o in &mut self.open {
            *o = true;
        }
    }
}

/// Per-port minimum-watermark tracker: an operator's effective watermark is
/// the minimum over its input ports, and it only moves forward.
#[derive(Debug, Clone)]
pub struct WatermarkTracker {
    per_port: Vec<Timestamp>,
    emitted: Timestamp,
}

impl WatermarkTracker {
    /// Tracker for `arity` ports, all at the stream epoch.
    pub fn new(arity: usize) -> WatermarkTracker {
        WatermarkTracker { per_port: vec![Timestamp::ZERO; arity.max(1)], emitted: Timestamp::ZERO }
    }

    /// Records a watermark on `port`; returns the new combined watermark if
    /// it advanced past everything previously emitted.
    pub fn observe(&mut self, port: usize, wm: Timestamp) -> Option<Timestamp> {
        if let Some(slot) = self.per_port.get_mut(port) {
            if wm > *slot {
                *slot = wm;
            }
        }
        let combined = *self.per_port.iter().min().expect("at least one port");
        if combined > self.emitted {
            self.emitted = combined;
            Some(combined)
        } else {
            None
        }
    }

    /// The last combined watermark that was reported.
    pub fn current(&self) -> Timestamp {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_streams::tuple::Tuple;

    struct Echo;
    impl Operator for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn process(&mut self, _port: usize, element: &Element, out: &mut Output) -> Result<()> {
            out.push(element.clone());
            Ok(())
        }
    }

    #[test]
    fn output_buffer_basics() {
        let mut out = Output::new();
        assert!(out.is_empty());
        out.emit(Tuple::single(1), Timestamp::from_secs(1));
        out.push(Element::single(2, Timestamp::from_secs(2)));
        assert_eq!(out.len(), 2);
        assert_eq!(out.elements()[0].tuple.field(0).as_int().unwrap(), 1);
        let drained: Vec<Element> = out.drain().collect();
        assert_eq!(drained.len(), 2);
        assert!(out.is_empty());
        out.emit(Tuple::single(3), Timestamp::ZERO);
        out.clear();
        assert!(out.is_empty());
    }

    #[test]
    fn output_routing_is_lazy_and_parallel() {
        let mut out = Output::new();
        out.emit(Tuple::single(1), Timestamp::ZERO);
        // No push_routed yet: the routes vector stays empty (all-broadcast).
        assert!(out.take_routes().is_empty());
        out.push_routed(2, Element::single(2, Timestamp::ZERO));
        out.push(Element::single(3, Timestamp::ZERO));
        assert_eq!(out.len(), 3);
        let routes = out.take_routes();
        assert_eq!(routes, vec![Output::BROADCAST, 2, Output::BROADCAST]);
        // drain() resets any leftover tags for route-oblivious callers.
        out.push_routed(1, Element::single(4, Timestamp::ZERO));
        let _ = out.drain();
        out.push(Element::single(5, Timestamp::ZERO));
        assert!(out.take_routes().is_empty());
        // clear() likewise discards tags alongside elements.
        out.push_routed(0, Element::single(6, Timestamp::ZERO));
        out.clear();
        assert!(out.is_empty());
        assert!(out.take_routes().is_empty());
    }

    #[test]
    fn an_emitted_tuple_keeps_the_route_tags_parallel() {
        let mut out = Output::new();
        out.push_routed(0, Element::single(1, Timestamp::ZERO));
        out.emit(Tuple::single(2), Timestamp::ZERO);
        out.push_routed(2, Element::single(3, Timestamp::ZERO));
        assert_eq!(out.take_routes(), vec![0, Output::BROADCAST, 2]);
    }

    #[test]
    fn an_appended_run_is_the_buffer_or_goes_behind_it() {
        let values = |elements: &[Element]| -> Vec<i64> {
            elements.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect()
        };
        let mut out = Output::new();
        let mut run: Vec<Element> = (1..=3).map(|v| Element::single(v, Timestamp::ZERO)).collect();
        let storage = run.as_ptr();
        out.append(&mut run);
        assert!(run.is_empty());
        assert_eq!(out.elements().as_ptr(), storage, "nothing buffered: the run is the buffer");
        out.push_routed(7, Element::single(4, Timestamp::ZERO));
        run.push(Element::single(5, Timestamp::ZERO));
        out.append(&mut run);
        assert!(run.is_empty());
        assert_eq!(values(out.elements()), [1, 2, 3, 4, 5]);
        assert_eq!(
            out.take_routes(),
            [Output::BROADCAST, Output::BROADCAST, Output::BROADCAST, 7, Output::BROADCAST]
        );
    }

    #[test]
    fn a_source_that_only_knows_elements_hands_over_batches_of_one() {
        struct Three(i64);
        impl Source for Three {
            fn name(&self) -> &str {
                "three"
            }
            fn next(&mut self) -> Option<(Timestamp, Tuple)> {
                (self.0 < 3).then(|| {
                    self.0 += 1;
                    (Timestamp::from_micros(self.0 as u64), Tuple::single(self.0))
                })
            }
        }
        let (mut source, mut out) = (Three(0), Vec::new());
        for n in 1..=3 {
            assert!(source.next_batch(32, &mut out));
            assert_eq!(out.len(), n, "one element per call, appended");
        }
        assert!(!source.next_batch(32, &mut out));
        let values: Vec<i64> = out.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(values, [1, 2, 3]);
    }

    #[test]
    fn swapped_route_buffers_are_reused() {
        let mut out = Output::new();
        let mut tags = vec![9, 9, 9];
        for round in 0..4u32 {
            out.push_routed(round, Element::single(1, Timestamp::ZERO));
            out.push(Element::single(2, Timestamp::ZERO));
            out.swap_routes(&mut tags);
            assert_eq!(tags, vec![round, Output::BROADCAST]);
            assert_eq!(out.drain().count(), 2);
        }
        // The buffer handed in came back as the output's own: the next
        // tags land in storage that already exists.
        assert!(out.take_routes().capacity() >= 2);
    }

    #[test]
    fn default_shard_surface_is_inert() {
        let mut op: Box<dyn Operator> = Box::new(Echo);
        assert!(op.shard_key(0).is_none());
        assert!(op.replicate().is_none());
        let mut out = Output::new();
        op.on_eos(0, &mut out).unwrap();
        assert!(out.is_empty());
    }

    /// Emits `v` once for an input `v`, after a partial result it takes
    /// back by failing on 3: with an `Err`, or — the second time — a panic.
    struct FailsOnThree(u32);

    impl Operator for FailsOnThree {
        fn name(&self) -> &str {
            "fails-on-3"
        }
        fn process(&mut self, _port: usize, element: &Element, out: &mut Output) -> Result<()> {
            out.push_routed(1, element.clone());
            if element.tuple.field(0).as_int()? == 3 {
                self.0 += 1;
                assert!(self.0 < 2, "three again");
                return Err(hmts_streams::error::StreamError::Other("three".into()));
            }
            Ok(())
        }
    }

    #[test]
    fn the_provided_run_loop_leaves_the_failing_element_first_and_none_of_its_output() {
        let values = |elements: &[Element]| -> Vec<i64> {
            elements.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect()
        };
        let mut op = FailsOnThree(0);
        let mut run: Vec<Element> = (1..=5).map(|v| Element::single(v, Timestamp::ZERO)).collect();
        let mut out = Output::new();
        out.emit(Tuple::single(0), Timestamp::ZERO);
        assert!(op.process_batch(0, &mut run, &mut out).is_err());
        assert_eq!(values(&run), [3, 4, 5]);
        assert_eq!(values(out.elements()), [0, 1, 2]);
        // A panic leaves the same behind, and the route tags stay parallel.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = op.process_batch(0, &mut run, &mut out);
        }));
        assert!(caught.is_err());
        assert_eq!(values(&run), [3, 4, 5]);
        assert_eq!(values(out.elements()), [0, 1, 2]);
        // The caller drops the element and goes on behind it.
        run.remove(0);
        op.process_batch(0, &mut run, &mut out).unwrap();
        assert!(run.is_empty());
        assert_eq!(values(out.elements()), [0, 1, 2, 4, 5]);
        assert_eq!(out.take_routes(), [Output::BROADCAST, 1, 1, 1, 1]);
    }

    #[test]
    fn boxed_operator_delegates() {
        let mut op: Box<dyn Operator> = Box::new(Echo);
        assert_eq!(op.name(), "echo");
        assert_eq!(op.input_arity(), 1);
        let mut out = Output::new();
        op.process(0, &Element::single(7, Timestamp::ZERO), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        op.flush(&mut out).unwrap();
        op.on_watermark(0, Timestamp::ZERO, &mut out).unwrap();
        assert_eq!(op.cost_hint(), None);
        assert_eq!(op.selectivity_hint(), None);
    }

    #[test]
    fn eos_tracker_reports_last_close() {
        let mut t = EosTracker::new(2);
        assert!(t.any_open());
        assert!(t.is_open(0));
        assert!(!t.close(0));
        assert!(!t.is_open(0));
        assert!(t.is_open(1));
        assert!(t.close(1));
        assert!(!t.any_open());
        // Closing an already-closed or out-of-range port is harmless.
        assert!(t.close(0));
        assert!(t.close(9));
        t.reset();
        assert!(t.any_open());
    }

    #[test]
    fn eos_tracker_zero_arity_treated_as_one() {
        let mut t = EosTracker::new(0);
        assert!(t.close(0));
    }

    #[test]
    fn watermark_tracker_takes_min_over_ports() {
        let mut w = WatermarkTracker::new(2);
        // Only port 0 advanced: combined min still ZERO, nothing reported.
        assert_eq!(w.observe(0, Timestamp::from_secs(5)), None);
        // Port 1 advances to 3: combined = 3.
        assert_eq!(w.observe(1, Timestamp::from_secs(3)), Some(Timestamp::from_secs(3)));
        assert_eq!(w.current(), Timestamp::from_secs(3));
        // Watermark regression on a port is ignored.
        assert_eq!(w.observe(1, Timestamp::from_secs(1)), None);
        assert_eq!(w.observe(1, Timestamp::from_secs(10)), Some(Timestamp::from_secs(5)));
    }

    #[test]
    fn stateless_operator_has_no_snapshot_surface() {
        let mut op: Box<dyn Operator> = Box::new(Echo);
        assert!(op.stateful().is_none());
    }
}
