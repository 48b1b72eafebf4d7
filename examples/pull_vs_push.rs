//! Pull-based (ONC) processing next to the engine's push-based one — the
//! paper's §2.2 and §3.2, as a runnable demonstration.
//!
//! ```text
//! cargo run --release --example pull_vs_push
//! ```
//!
//! Before settling on push-based processing, the paper analyses the
//! classical open-next-close (ONC) iterator model used by earlier DSMS
//! (Aurora's boxes, STREAM): operators *pull* from their inputs through
//! intermediate queues, and a scheduler invokes `next` on roots.
//!
//! Two observations from the paper are made concrete here, and asserted in
//! `main`:
//!
//! 1. **The `hasNext` ambiguity (§2.2).** In a DSMS, "no element" can mean
//!    *not yet* or *never again*. The paper's fix — a special element that
//!    only carries this information — is [`PullResult::Pending`] versus
//!    [`PullResult::End`].
//! 2. **Pull-based virtual operators need proxies and are limited to trees
//!    (§3.2, §3.4).** A [`Proxy`] replaces the queue between two operators
//!    of a VO: its `next` pulls *through* to its producer instead of
//!    consulting a buffer. Because every pull operator owns exactly one
//!    input per port and `next` consumes, a subgraph with *shared* results
//!    (one producer, two consumers) cannot form a pull VO without
//!    temporarily storing elements — which is precisely what a VO forbids.
//!    The type structure here (each consumer owns its producer) makes the
//!    tree restriction structural.
//!
//! [`PushAsPull`] runs any push operator of the library inside a pull
//! pipeline, mirroring the paper's remark that VOs can be built in both
//! worlds without changing operator implementations.

use std::sync::Arc;

use hmts::operators::traits::{Operator, Output};
use hmts::prelude::*;
use hmts::streams::error::Result;
use hmts::streams::queue::StreamQueue;

/// The outcome of one `next` call on a pull operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PullResult {
    /// A data element.
    Element(Element),
    /// No element available *right now* (the paper's "special element which
    /// only carries this information"). The scheduler should retry later.
    Pending,
    /// No element will ever be delivered again.
    End,
}

/// An open-next-close operator (Graefe's iterator model, adapted to streams
/// per the paper's §2.2).
pub trait PullOperator: Send {
    /// Diagnostic name.
    fn name(&self) -> &str;

    /// Prepares the operator (recursively opens inputs).
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    /// Produces the next element, `Pending`, or `End`.
    fn next(&mut self) -> Result<PullResult>;

    /// Releases resources (recursively closes inputs).
    fn close(&mut self) -> Result<()> {
        Ok(())
    }
}

/// A pull leaf reading from a decoupling queue: `Pending` when the queue is
/// momentarily empty, `End` once the producer's end-of-stream punctuation
/// has been consumed. Watermarks are skipped (pull pipelines here exist to
/// demonstrate the paradigm, not to re-implement event time).
pub struct QueueLeaf {
    name: String,
    queue: Arc<StreamQueue>,
    ended: bool,
}

impl QueueLeaf {
    /// A leaf over `queue`.
    pub fn new(name: impl Into<String>, queue: Arc<StreamQueue>) -> QueueLeaf {
        QueueLeaf { name: name.into(), queue, ended: false }
    }
}

impl PullOperator for QueueLeaf {
    fn name(&self) -> &str {
        &self.name
    }

    fn next(&mut self) -> Result<PullResult> {
        if self.ended {
            return Ok(PullResult::End);
        }
        loop {
            match self.queue.try_pop() {
                None => return Ok(PullResult::Pending),
                Some(Message::Data(e)) => return Ok(PullResult::Element(e)),
                Some(Message::Punct(Punctuation::EndOfStream)) => {
                    self.ended = true;
                    return Ok(PullResult::End);
                }
                // Pull-based leaves predate the checkpoint protocol;
                // barriers are alignment metadata and carry no data.
                Some(Message::Punct(Punctuation::Watermark(_)))
                | Some(Message::Punct(Punctuation::Barrier(_))) => continue,
            }
        }
    }
}

/// The §3.2 *proxy*: stands where a queue used to be, but `next` pulls
/// straight through to the producer — the pull-based realization of direct
/// interoperability. (In this model the proxy is simply ownership of the
/// producer; the type exists to make the construction explicit and to host
/// the paper's terminology.)
pub struct Proxy {
    producer: Box<dyn PullOperator>,
}

impl Proxy {
    /// Replaces the queue between `producer` and its consumer.
    pub fn new(producer: Box<dyn PullOperator>) -> Proxy {
        Proxy { producer }
    }
}

impl PullOperator for Proxy {
    fn name(&self) -> &str {
        self.producer.name()
    }

    fn open(&mut self) -> Result<()> {
        self.producer.open()
    }

    fn next(&mut self) -> Result<PullResult> {
        // "The dequeue method of a proxy reads the next element of its
        // source until it either reads a data element or … no element is
        // currently available" — with typed Pending/End, one call suffices.
        self.producer.next()
    }

    fn close(&mut self) -> Result<()> {
        self.producer.close()
    }
}

/// A pull selection.
pub struct PullFilter {
    name: String,
    input: Proxy,
    predicate: Expr,
}

impl PullFilter {
    /// A selection pulling from `input`.
    pub fn new(
        name: impl Into<String>,
        input: impl PullOperator + 'static,
        predicate: Expr,
    ) -> PullFilter {
        PullFilter { name: name.into(), input: Proxy::new(Box::new(input)), predicate }
    }
}

impl PullOperator for PullFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<PullResult> {
        loop {
            match self.input.next()? {
                PullResult::Element(e) => {
                    if self.predicate.eval_bool(&e.tuple)? {
                        return Ok(PullResult::Element(e));
                    }
                    // else: keep pulling — a rejected element is not Pending.
                }
                other => return Ok(other),
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

/// Runs any push-based [`Operator`] inside a pull pipeline: each `next`
/// pulls inputs until the wrapped operator emits, buffering multi-output
/// invocations. This is how the two paradigms mix "without changing the
/// operator implementation" (§3.4).
pub struct PushAsPull {
    name: String,
    input: Proxy,
    op: Box<dyn Operator>,
    buffer: std::collections::VecDeque<Element>,
    flushed: bool,
    out: Output,
}

impl PushAsPull {
    /// Wraps the unary push operator `op` over `input`.
    pub fn new(input: impl PullOperator + 'static, op: impl Operator + 'static) -> PushAsPull {
        PushAsPull {
            name: op.name().to_string(),
            input: Proxy::new(Box::new(input)),
            op: Box::new(op),
            buffer: std::collections::VecDeque::new(),
            flushed: false,
            out: Output::new(),
        }
    }
}

impl PullOperator for PushAsPull {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<PullResult> {
        loop {
            if let Some(e) = self.buffer.pop_front() {
                return Ok(PullResult::Element(e));
            }
            if self.flushed {
                return Ok(PullResult::End);
            }
            match self.input.next()? {
                PullResult::Pending => return Ok(PullResult::Pending),
                PullResult::End => {
                    self.op.flush(&mut self.out)?;
                    self.flushed = true;
                    self.buffer.extend(self.out.drain());
                }
                PullResult::Element(e) => {
                    self.op.process(0, &e, &mut self.out)?;
                    self.buffer.extend(self.out.drain());
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

fn feed(q: &StreamQueue, values: &[i64], eos: bool) {
    for (i, &v) in values.iter().enumerate() {
        q.push(Message::data(Tuple::single(v), Timestamp::from_micros(i as u64))).unwrap();
    }
    if eos {
        q.push(Message::eos()).unwrap();
    }
}

/// What a scheduler does with a VO's root: call `next` until it stops
/// yielding elements; returns them and whether the root reported `End`.
fn drain(op: &mut dyn PullOperator) -> (Vec<i64>, bool) {
    let mut vals = Vec::new();
    loop {
        match op.next().unwrap() {
            PullResult::Element(e) => vals.push(e.tuple.field(0).as_int().unwrap()),
            PullResult::Pending => return (vals, false),
            PullResult::End => return (vals, true),
        }
    }
}

fn main() {
    // §2.2, the `hasNext` ambiguity resolved: an empty queue is Pending, an
    // empty queue after EOS is End.
    let q = StreamQueue::unbounded("q");
    let mut leaf = QueueLeaf::new("leaf", Arc::clone(&q));
    assert_eq!(leaf.next().unwrap(), PullResult::Pending);
    feed(&q, &[1, 2], false);
    assert_eq!(drain(&mut leaf), (vec![1, 2], false), "still Pending: more may come");
    feed(&q, &[3], true);
    assert_eq!(drain(&mut leaf), (vec![3], true), "after EOS: End");
    assert_eq!(leaf.next().unwrap(), PullResult::End, "and never Pending again");
    // A rejected element is not Pending either: the selection keeps
    // pulling, and reports Pending only because its queue ran dry.
    let q = StreamQueue::unbounded("q");
    feed(&q, &[1, 2, 3, 4], false);
    let big = Expr::field(0).gt(Expr::int(100));
    let mut f = PullFilter::new("f", QueueLeaf::new("leaf", Arc::clone(&q)), big);
    assert_eq!(f.next().unwrap(), PullResult::Pending);
    feed(&q, &[200], true);
    assert_eq!(drain(&mut f), (vec![200], true));
    println!("Pending vs End: an empty queue and an ended stream are told apart");

    // §3.2/§3.4: two selections merged into one pull VO (the scheduler only
    // ever calls the root) produce what the same two push operators produce
    // — here one of each kind, mixed in one pipeline.
    let values: Vec<i64> = (0..500).map(|i| (i * 37) % 100).collect();
    let (mut f1, mut f2) = (
        Filter::new("f1", Expr::field(0).ge(Expr::int(20))),
        Filter::new("f2", Expr::field(0).lt(Expr::int(80))),
    );
    let mut out = Output::new();
    let mut pushed = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        f1.process(0, &Element::single(v, Timestamp::from_micros(i as u64)), &mut out).unwrap();
        for e in out.drain().collect::<Vec<_>>() {
            f2.process(0, &e, &mut out).unwrap();
            pushed.extend(out.drain().map(|e| e.tuple.field(0).as_int().unwrap()));
        }
    }
    let q = StreamQueue::unbounded("q");
    feed(&q, &values, true);
    let p1 = PullFilter::new("p1", QueueLeaf::new("leaf", q), Expr::field(0).ge(Expr::int(20)));
    let mut p2 = PushAsPull::new(p1, Filter::new("p2", Expr::field(0).lt(Expr::int(80))));
    p2.open().unwrap();
    let (pulled, ended) = drain(&mut p2);
    p2.close().unwrap();
    assert!(ended);
    assert_eq!(pulled, pushed);
    println!("pull VO == push chain: {} of {} elements pass both", pulled.len(), values.len());

    // §3.4, the tree restriction: pull VOs cannot share a subquery. Two
    // consumers over one producer can only share its queue, and pulling
    // for one *consumes* the element the other needed — each gets a
    // disjoint subset, not a copy. Even the single EOS reaches only one of
    // them, so the loop stops on whichever branch sees it.
    let q = StreamQueue::unbounded("shared");
    feed(&q, &[1, 2, 3, 4], true);
    let mut a = QueueLeaf::new("a", Arc::clone(&q));
    let mut b = QueueLeaf::new("b", Arc::clone(&q));
    let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
    let mut done = false;
    while !done {
        for (leaf, got) in [(&mut a, &mut got_a), (&mut b, &mut got_b)] {
            match leaf.next().unwrap() {
                PullResult::Element(e) => got.push(e.tuple.field(0).as_int().unwrap()),
                PullResult::End => done = true,
                PullResult::Pending => {}
            }
        }
    }
    assert_eq!(got_a.len() + got_b.len(), 4, "every element went to exactly one branch");
    assert!(got_a.len() < 4 && got_b.len() < 4, "neither branch saw the full stream");
    // The push-based engine replicates fan-out outputs instead — see
    // tests/engine_equivalence.rs::fanout_sharing_is_consistent.
    println!("tree restriction: a shared producer splits {got_a:?} / {got_b:?}, it does not copy");
}
