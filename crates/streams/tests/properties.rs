//! Property-based tests of the stream substrate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use hmts_streams::element::{Element, Message, Punctuation};
use hmts_streams::error::StreamError;
use hmts_streams::queue::{BackpressurePolicy, Batch, StreamQueue};
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

thread_local! {
    /// Bytes this thread holds allocated.
    static HELD: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// thread-local `Cell` with a const initialiser, which neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HELD.with(|h| h.set(h.get() + layout.size() as isize));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.with(|h| h.set(h.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HELD.with(|h| h.set(h.get() + new_size as isize - layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(|s| Value::from(s.as_str())),
    ]
}

proptest! {
    #[test]
    fn value_ordering_is_total_and_consistent(
        a in arb_value(),
        b in arb_value(),
        c in arb_value(),
    ) {
        // Antisymmetry via total order.
        let ab = a.cmp(&b);
        let ba = b.cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Eq implies Ord-equality. (The converse does not hold across
        // numeric variants: Int(3) and Float(3.0) compare Equal for sort
        // stability but are not `==`.)
        if a == b {
            prop_assert_eq!(ab, std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn value_hash_consistent_with_eq(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    #[test]
    fn int_arithmetic_matches_i64_when_in_range(
        a in -1_000_000i64..1_000_000,
        b in -1_000_000i64..1_000_000,
    ) {
        prop_assert_eq!(Value::Int(a).add(&Value::Int(b)).unwrap(), Value::Int(a + b));
        prop_assert_eq!(Value::Int(a).sub(&Value::Int(b)).unwrap(), Value::Int(a - b));
        prop_assert_eq!(Value::Int(a).mul(&Value::Int(b)).unwrap(), Value::Int(a * b));
        if b != 0 {
            prop_assert_eq!(Value::Int(a).div(&Value::Int(b)).unwrap(), Value::Int(a / b));
            let r = Value::Int(a).rem(&Value::Int(b)).unwrap().as_int().unwrap();
            prop_assert!(r >= 0, "euclidean remainder is non-negative: {r}");
        }
    }

    #[test]
    fn tuple_projection_then_access_round_trips(
        vals in proptest::collection::vec(any::<i64>(), 1..8),
        idx_seed in any::<u64>(),
    ) {
        let t = Tuple::new(vals.clone());
        let indices: Vec<usize> =
            (0..vals.len()).map(|i| ((idx_seed as usize).wrapping_add(i * 7)) % vals.len()).collect();
        let p = t.project(&indices).unwrap();
        for (out_i, &src_i) in indices.iter().enumerate() {
            prop_assert_eq!(p.field(out_i), &Value::Int(vals[src_i]));
        }
        prop_assert_eq!(p.arity(), indices.len());
    }

    #[test]
    fn tuple_concat_preserves_both_sides(
        a in proptest::collection::vec(any::<i64>(), 0..5),
        b in proptest::collection::vec(any::<i64>(), 0..5),
    ) {
        let ta = Tuple::new(a.clone());
        let tb = Tuple::new(b.clone());
        let c = ta.concat(&tb);
        prop_assert_eq!(c.arity(), a.len() + b.len());
        for (i, v) in a.iter().chain(b.iter()).enumerate() {
            prop_assert_eq!(c.field(i), &Value::Int(*v));
        }
    }

    #[test]
    fn queue_preserves_fifo_order(values in proptest::collection::vec(any::<i64>(), 1..200)) {
        let q = StreamQueue::unbounded("prop");
        for (i, &v) in values.iter().enumerate() {
            q.push(Message::data(Tuple::single(v), Timestamp::from_micros(i as u64)))
                .unwrap();
        }
        let mut out = Vec::new();
        while let Some(m) = q.try_pop() {
            out.push(m.as_data().unwrap().tuple.field(0).as_int().unwrap());
        }
        prop_assert_eq!(out, values);
        prop_assert_eq!(q.len(), 0);
        prop_assert_eq!(q.data_len(), 0);
    }

    #[test]
    fn bounded_drop_oldest_keeps_newest_suffix(
        values in proptest::collection::vec(any::<i64>(), 1..100),
        cap in 1usize..20,
    ) {
        let q = StreamQueue::bounded("prop", cap, BackpressurePolicy::DropOldest);
        for (i, &v) in values.iter().enumerate() {
            q.push(Message::data(Tuple::single(v), Timestamp::from_micros(i as u64)))
                .unwrap();
        }
        let expected: Vec<i64> =
            values[values.len().saturating_sub(cap)..].to_vec();
        let mut out = Vec::new();
        while let Some(m) = q.try_pop() {
            out.push(m.as_data().unwrap().tuple.field(0).as_int().unwrap());
        }
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn queue_metrics_are_conserved(
        pushes in proptest::collection::vec(any::<i64>(), 0..100),
        pops in 0usize..120,
    ) {
        let q = StreamQueue::unbounded("prop");
        for (i, &v) in pushes.iter().enumerate() {
            q.push(Message::data(Tuple::single(v), Timestamp::from_micros(i as u64)))
                .unwrap();
        }
        let mut popped = 0u64;
        for _ in 0..pops {
            if q.try_pop().is_some() {
                popped += 1;
            }
        }
        prop_assert_eq!(q.metrics().enqueued(), pushes.len() as u64);
        prop_assert_eq!(q.len() as u64 + popped, pushes.len() as u64);
        prop_assert!(q.metrics().high_water() <= pushes.len());
    }
}

#[test]
fn timestamp_saturation_edges() {
    use std::time::Duration;
    assert_eq!(Timestamp::MAX.add(Duration::from_secs(u64::MAX)), Timestamp::MAX);
    assert_eq!(Timestamp::ZERO.saturating_sub(Duration::from_secs(u64::MAX)), Timestamp::ZERO);
}

/// The queue as the messages it holds: what `StreamQueue` promises,
/// written the obvious way — one message at a time, the policy applied to
/// each.
struct Model {
    msgs: VecDeque<Message>,
    capacity: usize,
    policy: BackpressurePolicy,
    closed: bool,
    enqueued: u64,
    dequeued: u64,
    /// Evicted by `DropOldest`, and refused by `DropNewest`.
    dropped: u64,
    evicted: u64,
    high_water: usize,
}

/// What a push that meets a full `Block` queue is released by.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Release {
    Close,
    LiftBound,
}

impl Model {
    fn new(bound: Option<(usize, BackpressurePolicy)>) -> Model {
        let (capacity, policy) = bound.unwrap_or((usize::MAX, BackpressurePolicy::Block));
        Model {
            msgs: VecDeque::new(),
            capacity: capacity.max(1),
            policy,
            closed: false,
            enqueued: 0,
            dequeued: 0,
            dropped: 0,
            evicted: 0,
            high_water: 0,
        }
    }

    /// Whether pushing `n` messages would make a `Block` producer wait.
    fn blocks(&self, n: usize) -> bool {
        !self.closed
            && self.policy == BackpressurePolicy::Block
            && self.msgs.len() + n > self.capacity
    }

    fn push(&mut self, msgs: Vec<Message>, release: Release) -> Result<(), StreamError> {
        if self.closed {
            return Err(StreamError::QueueClosed);
        }
        for msg in msgs {
            if self.msgs.len() >= self.capacity {
                match (self.policy, release) {
                    (BackpressurePolicy::Block, Release::Close) => {
                        self.closed = true;
                        return Err(StreamError::QueueClosed);
                    }
                    (BackpressurePolicy::Block, Release::LiftBound) => self.capacity = usize::MAX,
                    (BackpressurePolicy::Fail, _) => return Err(StreamError::QueueFull),
                    (BackpressurePolicy::DropNewest, _) => {
                        self.dropped += 1;
                        continue;
                    }
                    (BackpressurePolicy::DropOldest, _) => {
                        self.msgs.pop_front();
                        self.dropped += 1;
                        self.evicted += 1;
                    }
                }
            }
            self.msgs.push_back(msg);
            self.enqueued += 1;
            self.high_water = self.high_water.max(self.msgs.len());
        }
        Ok(())
    }

    fn pop(&mut self, max: usize) -> Vec<Message> {
        let n = max.min(self.msgs.len());
        self.dequeued += n as u64;
        self.msgs.drain(..n).collect()
    }
}

/// Builds messages with ascending values and timestamps.
struct Source(i64);

impl Source {
    fn element(&mut self) -> Element {
        self.0 += 1;
        Element::single(self.0, Timestamp::from_micros(self.0 as u64))
    }

    fn punct(&mut self, kind: u8) -> Punctuation {
        self.0 += 1;
        match kind % 3 {
            0 => Punctuation::Watermark(Timestamp::from_micros(self.0 as u64)),
            1 => Punctuation::Barrier(self.0 as u64),
            _ => Punctuation::EndOfStream,
        }
    }

    /// `n` elements with a punctuation at `at` (none if `kind` says so).
    fn batch(&mut self, n: usize, kind: u8, at: usize) -> Batch {
        let mut batch = Batch { run: (0..n).map(|_| self.element()).collect(), puncts: vec![] };
        if kind < 3 {
            batch.puncts.push((at % (n + 1), self.punct(kind)));
        }
        batch
    }

    /// `n` elements with two punctuations (`kind`, then the next kind) in
    /// the middle: after the first `1 + at % (n - 1)` elements, so inside
    /// the run when it has two elements or more.
    fn punctuated(&mut self, n: usize, kind: u8, at: usize) -> Batch {
        let at = (1 + at % n.saturating_sub(1).max(1)).min(n);
        let mut batch = Batch::default();
        for i in 0..=n {
            if i == at {
                batch.push(Message::Punct(self.punct(kind)));
                batch.push(Message::Punct(self.punct(kind + 1)));
            }
            if i < n {
                batch.push(Message::Data(self.element()));
            }
        }
        batch
    }
}

/// `batch` as the messages it stands for, leaving it as it was.
fn messages(batch: &mut Batch) -> Vec<Message> {
    let msgs: Vec<Message> = batch.drain().collect();
    for msg in &msgs {
        batch.push(msg.clone());
    }
    msgs
}

/// Runs `push` — which the model says waits for room if `blocks`, in a
/// queue of `capacity` — on another thread if it does, releasing it as
/// `release` says once it has put in what fits.
fn push_released(
    q: &Arc<StreamQueue>,
    (blocks, capacity): (bool, usize),
    release: Release,
    push: impl FnOnce(&StreamQueue) -> Result<(), StreamError> + Send + 'static,
) -> Result<(), StreamError> {
    if !blocks {
        return push(q);
    }
    let producer = {
        let q = Arc::clone(q);
        std::thread::spawn(move || push(&q))
    };
    while q.len() < capacity {
        std::thread::yield_now();
    }
    match release {
        Release::Close => q.close(),
        Release::LiftBound => q.lift_bound(),
    }
    producer.join().expect("the producer does not panic")
}

/// Every count `q` reports against `model`'s.
fn check(q: &StreamQueue, model: &Model, step: &str) -> Result<(), TestCaseError> {
    let m = q.metrics();
    prop_assert_eq!(q.len(), model.msgs.len(), "len after {}", step);
    let data = model.msgs.iter().filter(|m| m.as_data().is_some()).count();
    prop_assert_eq!(q.data_len(), data, "data_len after {}", step);
    prop_assert_eq!(q.peek_ts(), model.msgs.front().map(Message::ts), "peek_ts after {}", step);
    prop_assert_eq!(m.enqueued(), model.enqueued, "enqueued after {}", step);
    prop_assert_eq!(m.dequeued(), model.dequeued, "dequeued after {}", step);
    prop_assert_eq!(m.dropped(), model.dropped, "dropped after {}", step);
    prop_assert_eq!(m.high_water(), model.high_water, "high_water after {}", step);
    prop_assert_eq!(m.enqueued(), m.dequeued() + model.evicted + q.len() as u64, "{}", step);
    prop_assert_eq!(q.is_closed(), model.closed, "closed after {}", step);
    Ok(())
}

fn policy(p: u8) -> BackpressurePolicy {
    [
        BackpressurePolicy::Block,
        BackpressurePolicy::Fail,
        BackpressurePolicy::DropNewest,
        BackpressurePolicy::DropOldest,
    ][p as usize % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Generated operation sequences against the message model: runs and
    /// messages pushed and popped every way the queue offers, punctuations
    /// between and inside runs, bounds below, at and above a run's length
    /// under each policy, `close`, `lift_bound` and `drain`. After every
    /// step the queue pops what the model pops and reports the model's
    /// counts.
    #[test]
    fn the_queue_of_runs_is_a_queue_of_messages(
        bound in (0usize..48, 0u8..4),
        ops in proptest::collection::vec((0u8..12, 0usize..48, 0u8..4, 0usize..64), 1..64),
    ) {
        let bound = (bound.0 > 0).then(|| (bound.0, policy(bound.1)));
        let q = StreamQueue::new("model", bound, None);
        let mut model = Model::new(bound);
        let mut src = Source(0);
        let mut popped = Batch::default();
        for (step, &(op, n, kind, at)) in ops.iter().enumerate() {
            let release = if at % 2 == 0 { Release::Close } else { Release::LiftBound };
            let what = format!("step {step}: op {op} n {n} kind {kind} at {at}");
            match op {
                0..=4 => {
                    // A run, a run with a punctuation in or beside it, one
                    // element, one punctuation, a run with punctuations
                    // inside it (which goes in message by message).
                    let mut batch = match op {
                        0 => src.batch(n, 3, at),
                        2 => src.batch(1, 3, 0),
                        3 => src.batch(0, kind % 3, 0),
                        4 => src.punctuated(n, kind, at),
                        _ => src.batch(n, kind, at),
                    };
                    let mut msgs = messages(&mut batch);
                    let waits = (model.blocks(msgs.len()), model.capacity);
                    let expected = model.push(msgs.clone(), release);
                    let got = push_released(&q, waits, release, move |q| match op {
                        2 | 3 => q.push(msgs.remove(0)),
                        _ => q.push_runs(&mut batch, || {}).map(drop),
                    });
                    prop_assert_eq!(got, expected, "{}", what);
                }
                5 | 6 => prop_assert_eq!(q.try_pop(), model.pop(1).pop(), "{}", what),
                7 => {
                    let moved = q.pop_runs(n, &mut popped);
                    let got: Vec<Message> = popped.drain().collect();
                    prop_assert_eq!(moved, got.len(), "{}", what);
                    prop_assert_eq!(got, model.pop(n), "{}", what);
                }
                8 => {
                    let expected = model.pop(1).pop();
                    let got = match (&expected, model.closed) {
                        // Something to pop, or closed: `pop_blocking` returns.
                        (Some(_), _) | (None, true) => q.pop_blocking(),
                        _ => q.try_pop(),
                    };
                    prop_assert_eq!(got, expected, "{}", what);
                }
                9 => prop_assert_eq!(q.drain(), model.pop(usize::MAX), "{}", what),
                10 if kind == 0 => {
                    q.close();
                    model.closed = true;
                }
                10 => prop_assert_eq!(q.try_pop(), model.pop(1).pop(), "{}", what),
                _ => {
                    q.lift_bound();
                    model.capacity = usize::MAX;
                }
            }
            check(&q, &model, &what)?;
        }
    }
}

/// Held bytes once `fill` has run, less those held before.
fn held_by(fill: impl FnOnce() -> Box<dyn std::any::Any>) -> (isize, Box<dyn std::any::Any>) {
    let before = HELD.with(Cell::get);
    let kept = fill();
    (HELD.with(Cell::get) - before, kept)
}

#[test]
fn a_queue_of_runs_of_one_holds_no_more_than_twice_a_queue_of_messages() {
    const RUNS: usize = 100_000;
    // One tuple for every element, so the elements' payloads are not
    // counted on either side.
    let el = Element::single(7, Timestamp::from_micros(7));
    let (messages, _kept) = held_by(|| {
        let mut buf = VecDeque::new();
        for _ in 0..RUNS {
            buf.push_back(Message::Data(el.clone()));
        }
        Box::new(buf)
    });
    let (runs, _q) = held_by(|| {
        let q = StreamQueue::unbounded("runs");
        let mut run = Batch { run: Vec::with_capacity(1), puncts: Vec::new() };
        for _ in 0..RUNS {
            run.run.push(el.clone());
            q.push_runs(&mut run, || {}).unwrap();
        }
        assert_eq!((q.len(), q.data_len()), (RUNS, RUNS));
        Box::new(q)
    });
    assert!(runs <= 2 * messages, "{runs} bytes for {RUNS} runs of one, {messages} as messages");
}
