//! Micro-benchmark: the premise of virtual operators (paper §3.1) — an
//! enqueue+dequeue pair on a decoupling queue versus a direct (DI)
//! operator invocation. The measured ratio is what makes merging cheap
//! operators into VOs worthwhile, and these numbers calibrate
//! `hmts_sim::SimConfig` (`queue_op`, `di_call`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use hmts::engine::executor::{
    Attach, Budget, DomainExecutor, ExecConfig, InputQueue, SlotInit, Target,
};
use hmts::obs::{TraceConfig, Tracer};
use hmts::operators::traits::{EosTracker, Operator, Output, WatermarkTracker};
use hmts::prelude::*;
use hmts::stats::{Arrivals, StatsWriter};
use hmts::streams::element::{Message, TraceTag};
use hmts::streams::queue::{Batch, StreamQueue};

fn data(v: i64) -> Message {
    Message::data(Tuple::single(v), Timestamp::from_micros(v as u64))
}

fn element(v: i64) -> Element {
    Element::single(v, Timestamp::from_micros(v as u64))
}

fn slot(i: usize, targets: Vec<Target>) -> SlotInit {
    SlotInit {
        node: NodeId(i),
        op: Box::new(Filter::new(format!("f{i}"), Expr::bool(true))),
        eos: EosTracker::new(1),
        wm: WatermarkTracker::new(1),
        closed: false,
        targets,
        stats: None,
        latency: None,
        chaos: None,
    }
}

/// `n` pass-through filters executed inline one after the other (one VO),
/// each with a statistics cell if `stats`.
fn di_chain(n: usize, batch: usize, stats: bool) -> DomainExecutor {
    let slots = (0..n)
        .map(|i| {
            let next = (i + 1 < n).then(|| Target::Inline { node: NodeId(i + 1), port: 0 });
            let mut s = slot(i, next.into_iter().collect());
            s.stats = stats.then(hmts::stats::shared_node_stats);
            s
        })
        .collect();
    let cfg = ExecConfig { batch, measure: stats };
    DomainExecutor::new("bench", slots, vec![], StrategyKind::Fifo.build(None), cfg)
}

/// `n` pass-through filters with a queue in front of each (GTS: one
/// executor drains them all), each with a statistics cell if `stats`; and
/// the queues.
fn queue_chain(n: usize, batch: usize, stats: bool) -> (DomainExecutor, Vec<Arc<StreamQueue>>) {
    let queues: Vec<_> = (0..n).map(|i| StreamQueue::unbounded(format!("q{i}"))).collect();
    let slots = (0..n)
        .map(|i| {
            let next = queues.get(i + 1).map(|q| Target::Queue { queue: q.clone(), wake: None });
            let mut s = slot(i, next.into_iter().collect());
            s.stats = stats.then(hmts::stats::shared_node_stats);
            s
        })
        .collect();
    let inputs = (0..n)
        .map(|i| InputQueue {
            queue: queues[i].clone(),
            node: NodeId(i),
            port: 0,
            exhausted: false,
        })
        .collect();
    let cfg = ExecConfig { batch, measure: stats };
    let exec = DomainExecutor::new("bench", slots, inputs, StrategyKind::Fifo.build(None), cfg);
    (exec, queues)
}

fn queue_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_vs_di");
    g.throughput(Throughput::Elements(1));

    g.bench_function("queue_push_pop", |b| {
        let q = StreamQueue::unbounded("bench");
        b.iter(|| {
            q.push(black_box(data(7))).unwrap();
            black_box(q.try_pop().unwrap());
        })
    });

    g.bench_function("queue_push_peek_pop", |b| {
        // The executor's actual pattern: peek (strategy decision), then pop.
        let q = StreamQueue::unbounded("bench");
        b.iter(|| {
            q.push(black_box(data(7))).unwrap();
            black_box(q.peek_ts());
            black_box(q.try_pop().unwrap());
        })
    });

    // DI: one element through a chain of `n` pass-through filters executed
    // inline — per-element cost divided by n approximates one DI hop plus
    // one operator invocation.
    for n in [1usize, 5, 10] {
        g.bench_function(format!("di_chain_{n}"), |b| {
            let mut exec = di_chain(n, 1, false);
            b.iter(|| {
                exec.inject(NodeId(0), 0, black_box(data(7)));
            })
        });
    }

    // The same 5-op chain but decoupled: a queue before every operator,
    // drained GTS-style by one executor.
    g.bench_function("decoupled_chain_5", |b| {
        let (mut exec, queues) = queue_chain(5, 1, false);
        let budget = Budget::unlimited();
        b.iter_batched(
            || queues[0].push(data(7)).unwrap(),
            |_| {
                exec.run_slice(black_box(&budget));
            },
            BatchSize::SmallInput,
        )
    });

    // The same 5-op chain taking a run of 32 per call — what a source or a
    // popped batch hands the executor: each operator takes the run in one
    // `process_batch`. Reported per element, so it reads against
    // `di_chain_5`, the run of one.
    g.throughput(Throughput::Elements(32));
    g.bench_function("di_chain_5_run32", |b| {
        let mut exec = di_chain(5, 32, false);
        let mut run: Vec<Element> = Vec::with_capacity(32);
        b.iter(|| {
            run.extend((0..32).map(|_| element(7)));
            exec.inject_batch(NodeId(0), 0, black_box(&mut run));
        })
    });

    // The same chain with a tracer attached, fed runs of 32 in which one
    // element in `every` carries a sampled tag: "traced − plain" beside
    // `di_chain_5_run32`, per element.
    for every in [1u64, 100] {
        g.bench_function(format!("di_chain_5_run32_traced_{every}"), |b| {
            let mut exec = di_chain(5, 32, false);
            // Sampling is the source's decision; here the tags are set below.
            let tracer = Arc::new(Tracer::new(TraceConfig::default(), std::time::Instant::now()));
            exec.attach(Attach { tracer: Some((tracer, 0)), ..Attach::default() });
            let mut run: Vec<Element> = Vec::with_capacity(32);
            let mut seq = 0u64;
            b.iter(|| {
                run.extend((0..32).map(|_| {
                    seq += 1;
                    let id = if seq % every == 0 { seq } else { 0 };
                    element(7).with_trace(TraceTag::new(id))
                }));
                exec.inject_batch(NodeId(0), 0, black_box(&mut run));
            })
        });
    }

    // A run of 32 into a queue and out again, as the executor hands it
    // over: pushed as the buffer it is in, popped as that buffer. The same
    // 32 elements go round, so only the hand-over is timed.
    g.bench_function("push_pop_run32", |b| {
        let q = StreamQueue::unbounded("bench");
        let mut staged = Batch { run: (0..32).map(element).collect(), puncts: Vec::new() };
        let mut popped = Batch::default();
        b.iter(|| {
            q.push_runs(black_box(&mut staged), || {}).unwrap();
            q.pop_runs(32, black_box(&mut popped));
            std::mem::swap(&mut staged.run, &mut popped.run);
        })
    });

    // The 5-op chain with a queue before every operator, with statistics,
    // fed runs of 32: the ledger's `core.executor.queue_hop_ns` probe shape
    // at the engine's default batch, beside `di_chain_5_run32`.
    g.bench_function("queue_chain_5_run32", |b| {
        let (mut exec, queues) = queue_chain(5, 32, true);
        let budget = Budget::unlimited();
        let mut staged = Batch { run: Vec::with_capacity(32), puncts: Vec::new() };
        b.iter(|| {
            staged.run.extend((0..32).map(|_| element(7)));
            queues[0].push_runs(&mut staged, || {}).unwrap();
            exec.run_slice(black_box(&budget));
        })
    });

    // The selection alone, with the ledger's predicate, which passes every
    // element: `Filter::process_batch` over a run of 32 (the predicate
    // bound), beside the interpreted `Expr::eval_bool` on the same tuples.
    let predicate = Expr::field(0).lt(Expr::int(1_000_000));
    let mut run: Vec<Element> =
        (0..32).map(|v| Element::single(v, Timestamp::from_micros(v as u64))).collect();
    g.bench_function("filter_run32", |b| {
        let mut filter = Filter::new("f", predicate.clone());
        let mut out = Output::new();
        b.iter(|| {
            filter.process_batch(0, black_box(&mut run), &mut out).unwrap();
            // What passed is the next run: nothing cloned, nothing dropped.
            out.swap_elements(&mut run);
        })
    });
    g.bench_function("eval_bool_run32", |b| {
        b.iter(|| {
            for element in &run {
                let _ = black_box(predicate.eval_bool(black_box(&element.tuple)));
            }
        })
    });
    g.throughput(Throughput::Elements(1));

    // Cost of the runtime measurement itself (stats on vs off).
    g.bench_function("di_chain_5_with_stats", |b| {
        let mut exec = di_chain(5, 1, true);
        b.iter(|| {
            exec.inject(NodeId(0), 0, black_box(data(7)));
        })
    });

    // The same with runs of 32, as the saturated chains book statistics:
    // one record update and one publish per operator and run, beside
    // `di_chain_5_run32`, per element.
    g.throughput(Throughput::Elements(32));
    g.bench_function("di_chain_5_run32_with_stats", |b| {
        let mut exec = di_chain(5, 32, true);
        let mut run: Vec<Element> = Vec::with_capacity(32);
        b.iter(|| {
            run.extend((0..32).map(|_| element(7)));
            exec.inject_batch(NodeId(0), 0, black_box(&mut run));
        })
    });

    // The booking alone, as each slot above pays it per run: a run of 32
    // evenly stamped arrivals and their 32 outputs, untimed, into a cell.
    g.bench_function("stats_book_run32", |b| {
        let mut writer = StatsWriter::new(hmts::stats::shared_node_stats(), &[true]);
        let mut t = 0;
        b.iter(|| {
            let (first, last) = (Timestamp::from_micros(t), Timestamp::from_micros(t + 31));
            t += 32;
            writer.observe_run(black_box(Arrivals { port: 0, len: 32, first, last }), None, 0, 32);
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(60)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = queue_transfer
}
criterion_main!(benches);
