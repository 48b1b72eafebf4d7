//! A DI hop moves the run it was given: from `inject_batch` through five
//! passing selections into a sink, the steady state allocates nothing —
//! a selection moves what passes into the output buffer, the output buffer
//! becomes the next selection's run by a swap (three buffers trade places
//! down the chain), and a statistics cell is written through its writer's
//! mirror from a reused list of timestamps. That holds whatever the run's
//! length, a run of one included. A keyed aggregate in the chain adds its
//! result tuple per element and nothing else: its groups reuse their slab
//! slots and its window its ring. Where an operator forks into two inline
//! routes — broadcast or routed by tag — each route takes one run, from a
//! pool of buffers the runs popped off the work stack gave back: that
//! allocates nothing either. Decoupled by a queue before every
//! selection (the GTS shape), a run crosses each queue as the buffer it is
//! in, and the queue keeps the buffer the consumer handed back for its next
//! producer: that allocates nothing either. A source thread hands each
//! pull over as the run: into five selections through direct
//! interoperability that allocates nothing once warm, and into a queue
//! that nobody drains — which keeps every buffer it is given — at most
//! the one buffer the next pull goes into. Counted under a global
//! allocator that keeps one counter per thread, which is why this test has
//! a binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use hmts::engine::executor::{
    Budget, DomainExecutor, ExecConfig, InputQueue, RunOutcome, SlotInit, SlotState, Target,
};
use hmts::engine::source_driver::{spawn_source, SourceDriverConfig, SourceShared, SourceTarget};
use hmts::engine::sync::{PauseGate, StopFlag};
use hmts::operators::traits::{Operator, Output, Source};
use hmts::prelude::*;
use hmts::streams::queue::{Batch, StreamQueue};
use hmts::streams::time::SystemClock;
use hmts::workload::source::VecSource;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// thread-local `Cell` with a const initialiser, which neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Every slot observed by a statistics cell, as under the engine's default
/// configuration, and the executor of them.
fn executor(mut slots: Vec<SlotInit>) -> DomainExecutor {
    for slot in &mut slots {
        slot.stats = Some(hmts::stats::shared_node_stats());
    }
    DomainExecutor::new("di", slots, vec![], StrategyKind::Fifo.build(None), ExecConfig::default())
}

/// `operators`, inline one after the other, into a counting sink.
fn chain(operators: Vec<Box<dyn Operator>>) -> (DomainExecutor, Vec<SinkHandle>) {
    let (sink, handle) = CountingSink::new("sink");
    let hops = operators.len();
    let mut slots: Vec<SlotInit> = operators
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            let next = Target::Inline { node: NodeId(i + 1), port: 0 };
            SlotInit::new(SlotState::new(NodeId(i), op), vec![next])
        })
        .collect();
    slots.push(SlotInit::new(SlotState::new(NodeId(hops), Box::new(sink)), vec![]));
    (executor(slots), vec![handle])
}

/// `first` (node 0) forked into two inline routes, each a passing
/// selection (nodes 1 and 2) into a counting sink of its own (3 and 4).
fn fork(first: Box<dyn Operator>) -> (DomainExecutor, Vec<SinkHandle>) {
    let inline = |node| Target::Inline { node: NodeId(node), port: 0 };
    let pass = |i: usize| Box::new(Filter::new(format!("f{i}"), Expr::field(0).ge(Expr::int(0))));
    let (a, a_handle) = CountingSink::new("a");
    let (b, b_handle) = CountingSink::new("b");
    let slots = vec![
        SlotInit::new(SlotState::new(NodeId(0), first), vec![inline(1), inline(2)]),
        SlotInit::new(SlotState::new(NodeId(1), pass(1)), vec![inline(3)]),
        SlotInit::new(SlotState::new(NodeId(2), pass(2)), vec![inline(4)]),
        SlotInit::new(SlotState::new(NodeId(3), Box::new(a)), vec![]),
        SlotInit::new(SlotState::new(NodeId(4), Box::new(b)), vec![]),
    ];
    (executor(slots), vec![a_handle, b_handle])
}

/// `tuples` as elements one microsecond apart, the first at `from` µs.
fn rows(tuples: &[Tuple], from: u64) -> impl Iterator<Item = Element> + '_ {
    let at = move |i: usize| Timestamp::from_micros(from + i as u64);
    tuples.iter().enumerate().map(move |(i, tuple)| Element::new(tuple.clone(), at(i)))
}

/// Puts 4 096 `(i % 1000, i)` rows into node 0 of a fresh executor from
/// `build` in runs of 32 and of 1: one pass to warm up, then 25 passes
/// counted. Every pass stamps its rows one microsecond apart after the last
/// pass's, so a window slides on. Returns, per run length, the allocations
/// and the elements that reached the sinks in the counted passes.
fn allocations(build: impl Fn() -> (DomainExecutor, Vec<SinkHandle>)) -> Vec<(usize, u64, u64)> {
    const ROWS: u64 = 4096;
    let pool: Vec<Tuple> = (0..ROWS).map(|i| Tuple::pair((i % 1000) as i64, i as i64)).collect();
    let mut counted = Vec::new();
    for run_len in [32, 1] {
        let (mut exec, handles) = build();
        let reached = || handles.iter().map(SinkHandle::count).sum::<u64>();
        let mut run: Vec<Element> = Vec::with_capacity(run_len);
        let mut pass = |exec: &mut DomainExecutor, round: u64| {
            for (start, chunk) in (0..).step_by(run_len).zip(pool.chunks(run_len)) {
                run.extend(rows(chunk, round * ROWS + start));
                exec.inject_batch(NodeId(0), 0, &mut run);
            }
        };
        // Warm-up: every reused buffer reaches its steady size.
        pass(&mut exec, 0);
        let before = reached();
        ALLOCATIONS.with(|a| a.set(0));
        for round in 1..=25 {
            pass(&mut exec, round);
        }
        let count = ALLOCATIONS.with(Cell::get);
        assert!(exec.error().is_none());
        counted.push((run_len, count, reached() - before));
    }
    counted
}

#[test]
fn a_run_through_five_selections_allocates_nothing_per_element() {
    let passing = || -> Vec<Box<dyn Operator>> {
        (0..5)
            .map(|i| {
                let pass = Filter::new(format!("f{i}"), Expr::field(0).ge(Expr::int(0)));
                Box::new(pass) as Box<dyn Operator>
            })
            .collect()
    };
    for (run_len, count, reached) in allocations(|| chain(passing())) {
        assert_eq!(reached, 25 * 4096, "every element reached the sink");
        assert_eq!(count, 0, "allocations for {reached} elements in runs of {run_len}");
    }
}

/// The keyed shape: a selection, a `Sum` grouped by key over a window short
/// enough that every group empties before its key comes again — so groups
/// are made and dropped all the time — and the sink. The aggregate's result
/// tuple (key, sum) is a pair, held inline: no allocation per result.
#[test]
fn a_keyed_aggregate_allocates_nothing_per_result() {
    let keyed = || -> Vec<Box<dyn Operator>> {
        let half = Filter::new("f", Expr::field(0).lt(Expr::int(500)));
        let window = Duration::from_micros(500);
        let sum =
            WindowAggregate::new("sum", AggregateFunction::Sum(1), window).group_by(Expr::field(0));
        vec![Box::new(half), Box::new(sum)]
    };
    for (run_len, count, results) in allocations(|| chain(keyed())) {
        // Keys 0..500 of every 1 000 rows pass: 2 096 results per pass.
        assert_eq!(results, 25 * 2096, "runs of {run_len}");
        assert_eq!(count, 0, "allocations for {results} results in runs of {run_len}");
    }
}

#[test]
fn a_run_broadcast_to_two_inline_selections_allocates_nothing() {
    let pass = || Box::new(Filter::new("f0", Expr::field(0).ge(Expr::int(0))));
    for (run_len, count, reached) in allocations(|| fork(pass())) {
        assert_eq!(reached, 2 * 25 * 4096, "every element reached both sinks");
        assert_eq!(count, 0, "allocations for {reached} elements in runs of {run_len}");
    }
}

/// Routes the row `(k, i)` to out-edge `i % 2`, as a splitter routes by
/// key.
struct ByParity;

impl Operator for ByParity {
    fn name(&self) -> &str {
        "by-parity"
    }

    fn process(&mut self, _: usize, el: &Element, out: &mut Output) -> hmts::streams::Result<()> {
        out.push_routed((el.tuple.field(1).as_int()? % 2) as u32, el.clone());
        Ok(())
    }
}

#[test]
fn a_run_routed_to_two_inline_selections_allocates_nothing() {
    for (run_len, count, reached) in allocations(|| fork(Box::new(ByParity))) {
        assert_eq!(reached, 25 * 4096, "every element reached one sink");
        assert_eq!(count, 0, "allocations for {reached} elements in runs of {run_len}");
    }
}

/// The GTS shape: a queue in front of each of five passing selections, one
/// domain draining them with `run_slice`, and runs of 32 — a saturated
/// source's — and of 1 — a paced one's — pushed into the first queue.
/// Every selection again has a statistics cell.
#[test]
fn a_run_through_five_queues_and_five_selections_allocates_nothing() {
    const ROWS: u64 = 4096;
    const HOPS: usize = 5;
    let pool: Vec<Tuple> = (0..ROWS).map(|i| Tuple::pair((i % 1000) as i64, i as i64)).collect();
    for run_len in [ExecConfig::default().batch, 1] {
        let queues: Vec<_> = (0..HOPS).map(|i| StreamQueue::unbounded(format!("q{i}"))).collect();
        let (sink, handle) = CountingSink::new("sink");
        let mut slots: Vec<SlotInit> = (0..HOPS)
            .map(|i| {
                let pass = Filter::new(format!("f{i}"), Expr::field(0).ge(Expr::int(0)));
                let next = match queues.get(i + 1) {
                    Some(q) => Target::Queue { queue: Arc::clone(q), wake: None },
                    None => Target::Inline { node: NodeId(HOPS), port: 0 },
                };
                SlotInit::new(SlotState::new(NodeId(i), Box::new(pass)), vec![next])
            })
            .collect();
        slots.push(SlotInit::new(SlotState::new(NodeId(HOPS), Box::new(sink)), vec![]));
        for slot in &mut slots {
            slot.stats = Some(hmts::stats::shared_node_stats());
        }
        let inputs = (0..HOPS)
            .map(|i| InputQueue {
                queue: Arc::clone(&queues[i]),
                node: NodeId(i),
                port: 0,
                exhausted: false,
            })
            .collect();
        let mut exec = DomainExecutor::new(
            "gts",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        let mut staged = Batch { run: Vec::with_capacity(run_len), puncts: Vec::new() };
        let mut pass = |exec: &mut DomainExecutor, round: u64| {
            for (start, chunk) in (0..).step_by(run_len).zip(pool.chunks(run_len)) {
                staged.run.extend(rows(chunk, round * ROWS + start));
                queues[0].push_runs(&mut staged, || {}).unwrap();
                assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
            }
        };
        // Warm-up: every buffer reaches its steady size and its steady place.
        pass(&mut exec, 0);
        let before = handle.count();
        ALLOCATIONS.with(|a| a.set(0));
        for round in 1..=25 {
            pass(&mut exec, round);
        }
        let count = ALLOCATIONS.with(Cell::get);
        assert!(exec.error().is_none());
        assert_eq!(handle.count() - before, 25 * ROWS, "every element reached the sink");
        assert!(queues.iter().all(|q| q.is_empty()));
        assert_eq!(count, 0, "allocations for {} runs of {run_len}", 25 * ROWS as usize / run_len);
    }
}

/// A source that reads, at the start of every pull, the allocations its
/// thread made since the last pull began — what delivering the last run
/// and readying this pull cost — and hands the readings over when the
/// source thread drops it.
struct CountsPerPull {
    inner: VecSource,
    readings: Vec<u64>,
    report: Arc<Mutex<Vec<u64>>>,
}

impl Source for CountsPerPull {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next(&mut self) -> Option<(Timestamp, Tuple)> {
        self.inner.next()
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Element>) -> bool {
        self.readings.push(ALLOCATIONS.with(|a| a.replace(0)));
        self.inner.next_batch(max, out)
    }
}

impl Drop for CountsPerPull {
    fn drop(&mut self) {
        *self.report.lock() = std::mem::take(&mut self.readings);
    }
}

/// Runs an unpaced source of 64 × 4 096 `(i % 1000, i)` rows, pulled
/// `ExecConfig::default().batch` at a time, into `target`, and returns the
/// allocations read at each pull after the first 128 — the warm-up —
/// each of which covers one run.
fn allocations_per_run(target: SourceTarget) -> Vec<u64> {
    const PULLS: usize = 64 * 4096 / 32;
    assert_eq!(ExecConfig::default().batch, 32);
    let items = (0..PULLS as u64 * 32)
        .map(|i| (Timestamp::from_micros(i), Tuple::pair((i % 1000) as i64, i as i64)))
        .collect();
    let report = Arc::new(Mutex::new(Vec::new()));
    let source = CountsPerPull {
        inner: VecSource::new("s", items),
        // Room for every reading up front: the source's own book keeping
        // allocates nothing on the counted thread.
        readings: Vec::with_capacity(PULLS + 1),
        report: Arc::clone(&report),
    };
    let shared = SourceShared::new(NodeId(100), "s");
    shared.set_targets(vec![target]);
    let cfg = SourceDriverConfig {
        pace: false,
        // One timeline point for the whole stream, at its end.
        sample_every: u64::MAX,
        ..SourceDriverConfig::default()
    };
    let gate = Arc::new(PauseGate::new());
    let stop = Arc::new(StopFlag::new());
    let clock = Arc::new(SystemClock::new());
    spawn_source(Box::new(source), Arc::clone(&shared), clock, gate, stop, None, cfg)
        .join()
        .unwrap();
    assert_eq!(shared.emitted(), PULLS as u64 * 32);
    let readings = std::mem::take(&mut *report.lock());
    assert_eq!(readings.len(), PULLS, "one reading per pull");
    readings[128..].to_vec()
}

#[test]
fn a_source_hands_its_pull_to_five_selections_without_allocating() {
    let passing = (0..5)
        .map(|i| {
            let pass = Filter::new(format!("f{i}"), Expr::field(0).ge(Expr::int(0)));
            Box::new(pass) as Box<dyn Operator>
        })
        .collect();
    let (exec, handles) = chain(passing);
    let exec = Arc::new(Mutex::new(exec));
    let target = SourceTarget::Direct { exec: Arc::clone(&exec), node: NodeId(0), port: 0 };
    let readings = allocations_per_run(target);
    assert_eq!(handles[0].count(), 64 * 4096, "every element reached the sink");
    assert!(exec.lock().error().is_none());
    assert_eq!(tally(&readings), [(0, readings.len())].into(), "runs by allocations made");
}

/// The queue keeps every run it is given, so the staging buffer comes back
/// empty each time: the next pull goes into one buffer, sized to a pull at
/// once. Besides that only the queue's list of runs grows, by doubling.
#[test]
fn a_source_into_an_undrained_queue_allocates_one_pull_buffer_per_run() {
    let queue = StreamQueue::unbounded("q");
    let readings =
        allocations_per_run(SourceTarget::Queue { queue: Arc::clone(&queue), wake: None });
    assert_eq!(queue.len(), 64 * 4096 + 1, "every element, then end-of-stream");
    let runs = tally(&readings);
    let doublings = (readings.len() as f64).log2().ceil() as usize + 1;
    assert!(
        runs.keys().all(|&n| n == 1 || n == 2) && runs.get(&2).copied().unwrap_or(0) <= doublings,
        "runs by allocations made: {runs:?}"
    );
}

/// How many readings there are of each value.
fn tally(readings: &[u64]) -> std::collections::BTreeMap<u64, usize> {
    let mut tally = std::collections::BTreeMap::new();
    for &n in readings {
        *tally.entry(n).or_default() += 1;
    }
    tally
}
