//! Micro-benchmark: one element handed across threads to a pooled domain —
//! a `StreamQueue::push` plus `TsShared::wake`, until the domain's sink has
//! it. This is the cross-thread cost of the `queue → L2 strategy` link (the
//! paper's Fig. 10 crossing). The worker has been idle for about 20 µs
//! (`handoff_idle_20us`: inside its watch, no futex on either side) or
//! about 1 ms (`handoff_idle_1ms`: parked, so the wake is a `futex` call
//! and the worker's wake-up a scheduler round trip). The time per
//! iteration is one hand-off's latency; the idle gap before it is not
//! timed. Where the kernel puts this thread and the worker matters: on two
//! CPUs the watch takes the element in 1.3–3 µs against the parked path's
//! 6–10 µs (2-vCPU host); on one CPU (where the kernel put them in most
//! runs on that host) the watch holds the CPU this thread needs, and a
//! hand-off reads 60–75 µs on either path.
//!
//! `handoff_chain_contended` is the crossing after that one: three domains
//! on two workers, idle for about 1 ms, and the element pushed to `d0`,
//! whose filter hands it through a second queue to `d1`'s sink, where the
//! time stops; `d2` stays idle, so the pool is contended (domains
//! outnumber workers). The second wake-up is made inside `d0`'s dispatch,
//! and the worker that made it runs `d1` itself after that dispatch.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion};
use parking_lot::Mutex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmts::engine::executor::{DomainExecutor, ExecConfig, InputQueue, SlotInit, SlotState, Target};
use hmts::engine::sync::StopFlag;
use hmts::operators::traits::Operator;
use hmts::prelude::*;
use hmts::scheduler::thread_scheduler::{ThreadScheduler, TsShared};
use hmts::streams::queue::StreamQueue;

/// Waits `gap` without leaving the CPU (a sleep would overshoot 20 µs by
/// the timer slack).
fn idle_for(gap: Duration) {
    if gap >= Duration::from_millis(1) {
        std::thread::sleep(gap);
        return;
    }
    let t0 = Instant::now();
    while t0.elapsed() < gap {
        std::hint::spin_loop();
    }
}

/// A pooled domain: `q` -> `op` -> `targets`.
fn domain(
    q: &Arc<StreamQueue>,
    op: Box<dyn Operator>,
    targets: Vec<Target>,
) -> Arc<Mutex<DomainExecutor>> {
    let slots = vec![SlotInit::new(SlotState::new(NodeId(1), op), targets)];
    let inputs =
        vec![InputQueue { queue: Arc::clone(q), node: NodeId(1), port: 0, exhausted: false }];
    let exec = DomainExecutor::new(
        q.name(),
        slots,
        inputs,
        StrategyKind::Fifo.build(None),
        ExecConfig::default(),
    );
    Arc::new(Mutex::new(exec))
}

/// Times one element pushed to `q` and domain 0 woken, until `seen` has
/// counted it, each after `gap` of idling; then stops the pool.
fn time_handoffs(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    gap: Duration,
    q: &StreamQueue,
    seen: &SinkHandle,
    ts: ThreadScheduler,
) {
    let shared = ts.shared();
    let mut sent = seen.count();
    g.bench_function(name, |b| {
        b.iter_batched(
            || {
                idle_for(gap);
                sent += 1;
                (sent, Message::data(Tuple::single(sent as i64), Timestamp::from_micros(sent)))
            },
            |(n, msg)| {
                q.push(black_box(msg)).expect("unbounded queue");
                shared.wake(0);
                while seen.count() < n {
                    std::hint::spin_loop();
                }
            },
            BatchSize::SmallInput,
        );
    });
    ts.stop();
    ts.join();
}

fn handoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("handoff");
    for (name, gap) in [
        ("handoff_idle_20us", Duration::from_micros(20)),
        ("handoff_idle_1ms", Duration::from_millis(1)),
    ] {
        // One pooled domain on one worker: queue -> counting sink.
        let q = StreamQueue::unbounded("in");
        let (sink, seen) = CountingSink::new("sink");
        let shared = TsShared::create_with_obs(1, 1, Obs::disabled());
        let executors = vec![domain(&q, Box::new(sink), vec![])];
        let ts = ThreadScheduler::spawn(shared, executors, Arc::new(StopFlag::new()));
        time_handoffs(&mut g, name, gap, &q, &seen, ts);
    }
    // Three domains on two workers: d0 -> filter -> d1 -> counting sink,
    // d2 idle.
    let (q0, q1, q2) =
        (StreamQueue::unbounded("d0"), StreamQueue::unbounded("d1"), StreamQueue::unbounded("d2"));
    let (sink, seen) = CountingSink::new("sink");
    let shared = TsShared::create_with_obs(3, 2, Obs::disabled());
    let pass = Box::new(Filter::new("f", Expr::bool(true)));
    let to_d1 = vec![Target::Queue { queue: Arc::clone(&q1), wake: Some(shared.waker(1)) }];
    let executors = vec![
        domain(&q0, pass, to_d1),
        domain(&q1, Box::new(sink), vec![]),
        domain(&q2, Box::new(NullSink::new("idle")), vec![]),
    ];
    let ts = ThreadScheduler::spawn(shared, executors, Arc::new(StopFlag::new()));
    time_handoffs(&mut g, "handoff_chain_contended", Duration::from_millis(1), &q0, &seen, ts);
    g.finish();
}

criterion_group! {
    name = benches;
    // Only the hand-off is timed, a small part of each iteration's wall
    // time (the idle gap is the rest): 100 ms of hand-offs is a few
    // thousand of them, in about 1 s (idle 20 µs) and 3–4 s (idle 1 ms,
    // each of the two such cases).
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_millis(100))
        .warm_up_time(Duration::from_millis(500));
    targets = handoff
}
criterion_main!(benches);
