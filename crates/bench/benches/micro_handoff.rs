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

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use parking_lot::Mutex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmts::engine::executor::{DomainExecutor, ExecConfig, InputQueue, SlotInit, SlotState};
use hmts::engine::sync::StopFlag;
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

fn handoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("handoff");
    for (name, gap) in [
        ("handoff_idle_20us", Duration::from_micros(20)),
        ("handoff_idle_1ms", Duration::from_millis(1)),
    ] {
        // One pooled domain on one worker: queue -> counting sink.
        let q = StreamQueue::unbounded("in");
        let (sink, seen) = CountingSink::new("sink");
        let slots = vec![SlotInit::new(SlotState::new(NodeId(1), Box::new(sink)), vec![])];
        let inputs =
            vec![InputQueue { queue: Arc::clone(&q), node: NodeId(1), port: 0, exhausted: false }];
        let exec = DomainExecutor::new(
            "handoff",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        let shared = TsShared::create_with_obs(1, 1, Obs::disabled());
        let stop = Arc::new(StopFlag::new());
        let ts = ThreadScheduler::spawn(
            Arc::clone(&shared),
            vec![Arc::new(Mutex::new(exec))],
            Arc::clone(&stop),
        );
        let mut sent = 0u64;
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
    g.finish();
}

criterion_group! {
    name = benches;
    // Only the hand-off is timed, a small part of each iteration's wall
    // time (the idle gap is the rest): 100 ms of hand-offs is a few
    // thousand of them, in about 1 s (idle 20 µs) and 3–4 s (idle 1 ms).
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_millis(100))
        .warm_up_time(Duration::from_millis(500));
    targets = handoff
}
criterion_main!(benches);
