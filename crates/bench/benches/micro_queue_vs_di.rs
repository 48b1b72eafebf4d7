//! Micro-benchmark: the premise of virtual operators (paper §3.1) — an
//! enqueue+dequeue pair on a decoupling queue versus a direct (DI)
//! operator invocation. The measured ratio is what makes merging cheap
//! operators into VOs worthwhile, and these numbers calibrate
//! `hmts_sim::SimConfig` (`queue_op`, `di_call`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use hmts::engine::executor::{
    Attach, Budget, DomainExecutor, ExecConfig, InputQueue, SlotInit, SlotState, Target,
};
use hmts::engine::source_driver::{spawn_source, SourceDriverConfig, SourceShared, SourceTarget};
use hmts::engine::sync::{PauseGate, StopFlag};
use hmts::obs::{TraceConfig, Tracer};
use hmts::operators::traits::{EosTracker, Operator, Output, WatermarkTracker};
use hmts::prelude::*;
use hmts::stats::{Arrivals, StatsWriter};
use hmts::streams::element::{Message, TraceTag};
use hmts::streams::queue::{Batch, StreamQueue};
use hmts::streams::time::SystemClock;
use hmts::workload::source::VecSource;
use parking_lot::Mutex;

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

/// `first` forked into two inline routes, each a pass-through filter.
fn di_fork(first: Box<dyn Operator>) -> DomainExecutor {
    let inline = |node| Target::Inline { node: NodeId(node), port: 0 };
    let mut head = slot(0, vec![inline(1), inline(2)]);
    head.op = first;
    let slots = vec![head, slot(1, vec![]), slot(2, vec![])];
    let cfg = ExecConfig { batch: 32, measure: false };
    DomainExecutor::new("bench", slots, vec![], StrategyKind::Fifo.build(None), cfg)
}

/// Routes the value `v` to out-edge `v % 2`, as a splitter routes by key.
struct ByParity;

impl Operator for ByParity {
    fn name(&self) -> &str {
        "by-parity"
    }

    fn process(&mut self, _: usize, el: &Element, out: &mut Output) -> hmts::streams::Result<()> {
        out.push_routed((el.tuple.field(0).as_int()? % 2) as u32, el.clone());
        Ok(())
    }
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

    // One pass-through filter forked into two: every element of the run
    // broadcast (one run cloned for route 0, the output buffer itself to
    // route 1), and every element routed to one route by parity (each
    // route's run moved out of the output buffer). Per element entering.
    g.bench_function("di_fanout2_run32", |b| {
        let mut exec = di_fork(Box::new(Filter::new("f", Expr::bool(true))));
        let mut run: Vec<Element> = Vec::with_capacity(32);
        b.iter(|| {
            run.extend((0..32).map(element));
            exec.inject_batch(NodeId(0), 0, black_box(&mut run));
        })
    });
    g.bench_function("di_routed2_run32", |b| {
        let mut exec = di_fork(Box::new(ByParity));
        let mut run: Vec<Element> = Vec::with_capacity(32);
        b.iter(|| {
            run.extend((0..32).map(element));
            exec.inject_batch(NodeId(0), 0, black_box(&mut run));
        })
    });
    // What the broadcast's second route costs in itself: a run of 32
    // cloned and the clones dropped.
    g.bench_function("clone_run32", |b| {
        let from: Vec<Element> = (0..32).map(element).collect();
        let mut run: Vec<Element> = Vec::with_capacity(32);
        b.iter(|| {
            run.extend_from_slice(black_box(&from));
            run.clear();
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

    // The source-driven DI path whole, which the traced ledger cannot time
    // (its span wrapper pulls runs of one): a source thread pulling
    // `SOURCE_ROWS` unpaced rows 32 at a time and handing each pull as one
    // run to five of the ledger's selections, which pass every element,
    // and a sink — `chain_di`'s shape. Thread start and join included; per
    // element.
    const SOURCE_ROWS: u64 = 1 << 15;
    g.throughput(Throughput::Elements(SOURCE_ROWS));
    g.bench_function("source_di_chain_5", |b| {
        b.iter_batched(
            || {
                let mut slots: Vec<SlotInit> = (0..5)
                    .map(|i| {
                        let select = Box::new(Filter::new(format!("f{i}"), predicate.clone()));
                        let next = Target::Inline { node: NodeId(i + 1), port: 0 };
                        SlotInit::new(SlotState::new(NodeId(i), select), vec![next])
                    })
                    .collect();
                let sink = Box::new(CountingSink::new("sink").0);
                slots.push(SlotInit::new(SlotState::new(NodeId(5), sink), vec![]));
                let strategy = StrategyKind::Fifo.build(None);
                let exec =
                    DomainExecutor::new("bench", slots, vec![], strategy, ExecConfig::default());
                let shared = SourceShared::new(NodeId(100), "s");
                shared.set_targets(vec![SourceTarget::Direct {
                    exec: Arc::new(Mutex::new(exec)),
                    node: NodeId(0),
                    port: 0,
                }]);
                let rows = (0..SOURCE_ROWS as i64)
                    .map(|v| (Timestamp::from_micros(v as u64), Tuple::single(v)));
                (VecSource::new("s", rows.collect()), shared)
            },
            |(source, shared)| {
                let cfg = SourceDriverConfig { pace: false, ..SourceDriverConfig::default() };
                let (gate, stop) = (Arc::new(PauseGate::new()), Arc::new(StopFlag::new()));
                let clock = Arc::new(SystemClock::new());
                spawn_source(Box::new(source), shared, clock, gate, stop, None, cfg)
                    .join()
                    .unwrap();
            },
            BatchSize::LargeInput,
        )
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
