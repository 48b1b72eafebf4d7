//! Per-layer probes: each times one layer's public functions directly, in
//! a tight loop over messages of the workloads' shape (two-integer tuples),
//! and reports the median over at least [`MIN_BATCHES`] batches. They are
//! the per-call prices the reconciliation row multiplies by the counts of
//! the traced pass.

use std::hint::black_box;
use std::io::BufWriter;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmts::engine::executor::{Budget, DomainExecutor, ExecConfig, InputQueue, SlotInit, Target};
use hmts::graph::cost::CostGraph;
use hmts::operators::traits::{EosTracker, Operator, Output, WatermarkTracker};
use hmts::prelude::*;
use hmts::scheduler::strategy::InputSlot;
use hmts::streams::queue::StreamQueue;
use hmts_net::wire::{decode_frame, encode_frame, hello, Frame, FrameReader, FrameWriter};
use hmts_net::{IngestConfig, IngestServer, StreamSpec};
use hmts_shard::{OrderedMerge, ShardReplica, ShardSplit};

use super::check::{KEYED_FILTER_BELOW, KEYED_WINDOW_US};
use super::clock::LedgerClock;
use super::gen::{Inputs, Rng, Zipf, KEYS, VALUE_RANGE};
use super::latency::LatencyRecorder;
use super::report::median;
use super::spans::SpanRecorder;

/// Batches behind every reported median.
pub const MIN_BATCHES: usize = 20;
/// How many times [`run_all`] spends its per-probe budget: seventeen timed
/// loops, and about as much again for the fixed-size round-trip probe.
pub const TIMED_PROBES: usize = 18;

/// Runs `batch` — which returns the time its measured part took — at least
/// [`MIN_BATCHES`] times and until `budget` is spent (one untimed warm-up
/// batch first); returns the median nanoseconds per operation.
fn measure(budget: Duration, ops_per_batch: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    batch();
    let started = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < MIN_BATCHES || started.elapsed() < budget {
        per_op.push(batch().as_nanos() as f64 / ops_per_batch as f64);
    }
    median(&mut per_op)
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// [`measure`] for a batch that is timed as a whole.
fn measure_all(budget: Duration, ops_per_batch: usize, mut batch: impl FnMut()) -> f64 {
    measure(budget, ops_per_batch, || timed(&mut batch))
}

const POOL: usize = 1024;

/// A pool of distinct elements of the chain's shape, `(value, seq)`.
fn element_pool(seed: u64) -> Vec<Element> {
    let inputs = Inputs::chain(seed, POOL, None);
    inputs.items().into_iter().map(|(ts, tuple)| Element::new(tuple, ts)).collect()
}

/// A selection of the workloads' shape that passes every generated row, so
/// a chain of them keeps every hop busy.
fn passing_filter(name: &str) -> Filter {
    Filter::new(name, Expr::field(0).lt(Expr::int(VALUE_RANGE)))
}

fn slot(i: usize, targets: Vec<Target>, measured: bool) -> SlotInit {
    SlotInit {
        node: NodeId(i),
        op: Box::new(passing_filter(&format!("f{i}"))),
        eos: EosTracker::new(1),
        wm: WatermarkTracker::new(1),
        closed: false,
        targets,
        stats: measured.then(hmts::stats::shared_node_stats),
        latency: None,
        chaos: None,
    }
}

const HOPS: usize = 5;

/// `DomainExecutor::inject` through five inline selections, per hop.
/// `measured` mirrors `EngineConfig::measure_stats` (the default): cost
/// timing and a statistics cell per slot.
fn di_hop_ns(budget: Duration, pool: &[Element], measured: bool) -> f64 {
    let slots = (0..HOPS)
        .map(|i| {
            let next = (i + 1 < HOPS).then(|| Target::Inline { node: NodeId(i + 1), port: 0 });
            slot(i, next.into_iter().collect(), measured)
        })
        .collect();
    let mut exec = DomainExecutor::new(
        "probe",
        slots,
        vec![],
        StrategyKind::Fifo.build(None),
        ExecConfig { measure: measured, ..ExecConfig::default() },
    );
    measure_all(budget, pool.len() * HOPS, || {
        for e in pool {
            exec.inject(NodeId(0), 0, black_box(Message::Data(e.clone())));
        }
    })
}

/// The same five selections with a queue before each, drained GTS-style by
/// `run_slice` under the engine's default executor configuration, per hop.
fn queue_hop_ns(budget: Duration, pool: &[Element]) -> f64 {
    let queues: Vec<_> = (0..HOPS).map(|i| StreamQueue::unbounded(format!("q{i}"))).collect();
    let slots = (0..HOPS)
        .map(|i| {
            let next =
                (i + 1 < HOPS).then(|| Target::Queue { queue: queues[i + 1].clone(), wake: None });
            slot(i, next.into_iter().collect(), true)
        })
        .collect();
    let inputs = (0..HOPS)
        .map(|i| InputQueue {
            queue: queues[i].clone(),
            node: NodeId(i),
            port: 0,
            exhausted: false,
        })
        .collect();
    let mut exec = DomainExecutor::new(
        "probe",
        slots,
        inputs,
        StrategyKind::Fifo.build(None),
        ExecConfig::default(),
    );
    let unlimited = Budget::unlimited();
    measure(budget, pool.len() * HOPS, || {
        for e in pool {
            queues[0].push(Message::Data(e.clone())).expect("probe queue is open");
        }
        timed(|| {
            exec.run_slice(black_box(&unlimited));
        })
    })
}

/// `Strategy::select` over six input queues with mixed fill levels.
fn select_ns(budget: Duration, kind: StrategyKind) -> f64 {
    const QUEUES: usize = 6;
    // A fan of six single-operator chains off one source: every consumer is
    // distinct, which is the worst case for a strategy.
    let edges = (0..QUEUES).map(|i| (0, i + 1)).collect();
    let cost = std::iter::once(0.0).chain((1..=QUEUES).map(|i| 1e-6 * i as f64)).collect();
    let selectivity = std::iter::once(1.0).chain((0..QUEUES).map(|_| 0.5)).collect();
    let rates = std::iter::once(Some(1000.0)).chain((0..QUEUES).map(|_| None)).collect();
    let graph = CostGraph::from_parts(QUEUES + 1, edges, cost, selectivity, rates);
    let view: Vec<InputSlot> = (0..QUEUES)
        .map(|i| InputSlot {
            consumer: NodeId(i + 1),
            len: (i * 7) % 5,
            head_ts: Some(Timestamp::from_micros(((i * 31) % 17) as u64)),
        })
        .collect();
    let mut strategy = kind.build(Some(&graph));
    const OPS: usize = 10_000;
    measure_all(budget, OPS, || {
        for _ in 0..OPS {
            black_box(strategy.select(black_box(&view)));
        }
    })
}

/// Direct `process()` calls on one operator, over `inputs` in order.
fn process_ns(budget: Duration, op: &mut dyn Operator, inputs: &[(usize, Element)]) -> f64 {
    let mut out = Output::new();
    measure_all(budget, inputs.len(), || {
        for (port, e) in inputs {
            out.clear();
            let _ = black_box(op.process(*port, black_box(e), &mut out));
        }
    })
}

/// An endless keyed stream ticking 1 µs per element, handed out in chunks
/// so a stateful operator sees a sliding window, not a replay.
struct KeyedStream {
    rng: Rng,
    /// Zipf(1.0) keys as in the keyed workloads; `None` draws them
    /// uniformly (a join under Zipf would mostly measure result fan-out).
    zipf: Option<Zipf>,
    ts: u64,
}

impl KeyedStream {
    fn next_chunk(&mut self, n: usize, ports: usize) -> Vec<(usize, Element)> {
        (0..n)
            .map(|_| {
                self.ts += 1;
                let key = match &self.zipf {
                    Some(z) => z.sample(&mut self.rng),
                    None => self.rng.below(KEYS as u64),
                } as i64;
                let value = self.rng.below(KEYED_FILTER_BELOW as u64) as i64;
                let port = (self.ts as usize) % ports;
                (port, Element::new(Tuple::pair(key, value), Timestamp::from_micros(self.ts)))
            })
            .collect()
    }
}

/// Direct `process()` calls on a windowed operator fed by a continuing
/// keyed stream (chunk generation is outside the timed part).
fn windowed_process_ns(
    budget: Duration,
    op: &mut dyn Operator,
    ports: usize,
    zipf: Option<Zipf>,
    seed: u64,
) -> f64 {
    let mut stream = KeyedStream { rng: Rng::new(seed), zipf, ts: 0 };
    let mut out = Output::new();
    const CHUNK: usize = 4096;
    measure(budget, CHUNK, || {
        let chunk = stream.next_chunk(CHUNK, ports);
        timed(|| {
            for (port, e) in &chunk {
                out.clear();
                let _ = black_box(op.process(*port, e, &mut out));
            }
        })
    })
}

/// Splitter → two replicas (each wrapping a passing selection) → ordered
/// merge, by direct calls: the sharding machinery's own cost per input.
fn split_merge_ns(budget: Duration, pool: &[Element]) -> f64 {
    let mut split = ShardSplit::new("p.split", Expr::field(0), 2);
    let mut replicas: Vec<ShardReplica> = (0..2)
        .map(|i| ShardReplica::new(format!("p[{i}]"), Box::new(passing_filter("p"))))
        .collect();
    let mut merge = OrderedMerge::new("p.merge", 2);
    let (mut routed, mut tagged, mut merged) = (Output::new(), Output::new(), Output::new());
    measure_all(budget, pool.len(), || {
        for e in pool {
            let _ = split.process(0, e, &mut routed);
            let routes = routed.take_routes();
            for (e, route) in routed.drain().zip(routes) {
                let _ = replicas[route as usize].process(0, &e, &mut tagged);
                for t in tagged.drain() {
                    let _ = merge.process(route as usize, &t, &mut merged);
                }
            }
            black_box(merged.len());
            merged.clear();
        }
    })
}

/// Ping → pong round trips on an otherwise idle loopback ingest
/// connection: what each window barrier of the closed loop pays at least.
fn loopback_rtt_ns(samples: usize) -> std::io::Result<(u64, u64)> {
    let server =
        IngestServer::bind("127.0.0.1:0", vec![StreamSpec::new("probe")], IngestConfig::default())?;
    let socket = TcpStream::connect(server.local_addr())?;
    socket.set_nodelay(true)?;
    let mut pongs = FrameReader::new(socket.try_clone()?);
    let mut writer = FrameWriter::new(BufWriter::new(socket));
    writer.write_frame(&hello("probe"))?;
    let mut rtt = LatencyRecorder::with_capacity(samples);
    for nonce in 0..samples as u64 + 100 {
        let sent = Instant::now();
        writer.write_frame(&Frame::Ping { nonce })?;
        writer.flush()?;
        match pongs.read_frame() {
            Ok(Some(Frame::Pong { .. })) => {}
            _ => return Err(std::io::Error::other("no pong on the probe connection")),
        }
        // The first round trips include the server's 5 ms accept poll.
        if nonce >= 100 {
            rtt.record(sent.elapsed().as_nanos() as u64);
        }
    }
    writer.write_frame(&Frame::Eos)?;
    writer.flush()?;
    let sorted = rtt.finish();
    let q = |q| sorted.quantile(q).map_err(|_| std::io::Error::other("too few RTT samples"));
    Ok((q(0.5)?, q(0.99)?))
}

/// Cost of one span: a wrapped no-op operator against the bare one.
fn span_ns(budget: Duration, pool: &[Element]) -> f64 {
    struct Noop;
    impl Operator for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn process(
            &mut self,
            _port: usize,
            _e: &Element,
            _out: &mut Output,
        ) -> hmts::streams::error::Result<()> {
            Ok(())
        }
    }
    let clock = Arc::new(LedgerClock::new());
    clock.arm();
    let rec = SpanRecorder::new(clock, 0);
    let inputs: Vec<(usize, Element)> = pool.iter().map(|e| (0, e.clone())).collect();
    let spanned = process_ns(budget / 2, &mut rec.operator(Noop), &inputs);
    let bare = process_ns(budget / 2, &mut Noop, &inputs);
    (spanned - bare).max(0.0)
}

/// Every probe, as `(metric name, value)`. `budget` is the time to spend
/// on each; the probes that start threads or sockets take a fixed number
/// of samples instead.
pub fn run_all(seed: u64, budget: Duration) -> Vec<(&'static str, f64)> {
    let pool = element_pool(seed);
    let messages: Vec<Message> = pool.iter().map(|e| Message::Data(e.clone())).collect();
    let mut out = Vec::new();

    // streams.queue: same thread, unbounded.
    let q = StreamQueue::unbounded("probe");
    out.push((
        "streams.queue.push_pop_ns",
        measure_all(budget, POOL, || {
            for m in &messages {
                q.push(black_box(m.clone())).expect("probe queue is open");
                black_box(q.try_pop());
            }
        }),
    ));
    // The executor's own pattern: peek for the strategy, then pop.
    out.push((
        "streams.queue.push_peek_pop_ns",
        measure_all(budget, POOL, || {
            for m in &messages {
                q.push(black_box(m.clone())).expect("probe queue is open");
                black_box(q.peek_ts());
                black_box(q.try_pop());
            }
        }),
    ));

    // streams.queue: hand-off to a consumer parked in `pop_blocking`, and
    // back — half a round trip is one cross-thread transfer.
    {
        let (there, back) = (StreamQueue::unbounded("there"), StreamQueue::unbounded("back"));
        let echo = {
            let (there, back) = (there.clone(), back.clone());
            std::thread::spawn(move || {
                while let Some(m) = there.pop_blocking() {
                    if back.push(m).is_err() {
                        break;
                    }
                }
            })
        };
        const ROUND_TRIPS: usize = 64;
        let ns = measure_all(budget, ROUND_TRIPS * 2, || {
            for m in &messages[..ROUND_TRIPS] {
                there.push(m.clone()).expect("probe queue is open");
                black_box(back.pop_blocking());
            }
        });
        there.close();
        echo.join().expect("echo thread exits once its queue closes");
        out.push(("streams.queue.xthread_ns", ns));
    }

    // streams.queue: `push_with_stall` into a bounded queue that a live
    // consumer drains — the ingest connection thread's use of the queue.
    {
        let bounded = StreamQueue::bounded("bounded", 1024, BackpressurePolicy::Block);
        let consumer = {
            let bounded = bounded.clone();
            std::thread::spawn(move || while black_box(bounded.pop_blocking()).is_some() {})
        };
        const PUSHES: usize = 8 * POOL;
        let ns = measure_all(budget, PUSHES, || {
            for _ in 0..PUSHES / POOL {
                for m in &messages {
                    let _ = black_box(bounded.push_with_stall(m.clone()));
                }
            }
        });
        bounded.close();
        consumer.join().expect("consumer exits once its queue closes");
        out.push(("streams.queue.bounded_block_ns", ns));
    }

    out.push(("core.executor.di_hop_ns", di_hop_ns(budget, &pool, false)));
    out.push(("core.executor.di_hop_stats_ns", di_hop_ns(budget, &pool, true)));
    out.push(("core.executor.queue_hop_ns", queue_hop_ns(budget, &pool)));
    out.push(("core.strategy.select_ns.fifo_6", select_ns(budget, StrategyKind::Fifo)));
    out.push(("core.strategy.select_ns.chain_6", select_ns(budget, StrategyKind::Chain)));

    // operators: direct calls.
    let predicate = Expr::field(0).lt(Expr::int(VALUE_RANGE));
    out.push((
        "operators.expr.eval_ns",
        measure_all(budget, POOL, || {
            for e in &pool {
                let _ = black_box(predicate.eval_bool(black_box(&e.tuple)));
            }
        }),
    ));
    let chain_inputs: Vec<(usize, Element)> = pool.iter().map(|e| (0, e.clone())).collect();
    out.push((
        "operators.filter.process_ns",
        process_ns(budget, &mut passing_filter("probe"), &chain_inputs),
    ));
    let window = Duration::from_micros(KEYED_WINDOW_US);
    let mut agg =
        WindowAggregate::new("agg", AggregateFunction::Sum(1), window).group_by(Expr::field(0));
    out.push((
        "operators.aggregate.process_ns",
        windowed_process_ns(budget, &mut agg, 1, Some(Zipf::new(KEYS)), seed),
    ));
    let mut shj = SymmetricHashJoin::on_field("shj", 0, window);
    out.push(("operators.shj.process_ns", windowed_process_ns(budget, &mut shj, 2, None, seed)));

    out.push(("shard.split_merge_ns", split_merge_ns(budget, &pool)));

    // net.wire: one data frame of the chain's shape.
    let frame = Frame::Data { ts: pool[0].ts, tuple: pool[0].tuple.clone(), trace: TraceTag::NONE };
    let mut bytes = Vec::new();
    encode_frame(&frame, &mut bytes);
    out.push(("net.wire.bytes_per_tuple", bytes.len() as f64));
    let mut scratch = Vec::new();
    out.push((
        "net.wire.encode_ns",
        measure_all(budget, POOL, || {
            for _ in 0..POOL {
                scratch.clear();
                encode_frame(black_box(&frame), &mut scratch);
            }
        }),
    ));
    out.push((
        "net.wire.decode_ns",
        measure_all(budget, POOL, || {
            for _ in 0..POOL {
                let _ = black_box(decode_frame(black_box(&bytes)));
            }
        }),
    ));
    let (rtt_p50, rtt_p99) = loopback_rtt_ns(1500).expect("loopback ping probe");
    out.push(("net.client.rtt_p50_us", rtt_p50 as f64 / 1e3));
    out.push(("net.client.rtt_p99_us", rtt_p99 as f64 / 1e3));

    out.push(("obs.span_ns", span_ns(budget, &pool)));
    out
}
