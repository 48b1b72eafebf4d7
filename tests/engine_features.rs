//! Integration tests of engine features beyond the paper's core
//! experiments: source watermarks, bounded queues with load shedding, and
//! worker-count advice.

#[path = "common/mod.rs"]
mod common;

use hmts::operators::traits::{Operator, Output};
use hmts::prelude::*;
use hmts::streams::element::Element;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A pass-through operator that counts the watermarks it receives.
struct WatermarkProbe {
    name: String,
    count: Arc<AtomicU64>,
    last: Arc<AtomicU64>,
}

impl Operator for WatermarkProbe {
    fn name(&self) -> &str {
        &self.name
    }
    fn process(&mut self, _p: usize, e: &Element, out: &mut Output) -> hmts::streams::Result<()> {
        out.push(e.clone());
        Ok(())
    }
    fn on_watermark(
        &mut self,
        _p: usize,
        wm: Timestamp,
        _out: &mut Output,
    ) -> hmts::streams::Result<()> {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.last.fetch_max(wm.as_micros(), Ordering::Relaxed);
        Ok(())
    }
}

fn watermark_graph() -> (QueryGraph, Arc<AtomicU64>, Arc<AtomicU64>, Arc<AtomicU64>) {
    let mut b = GraphBuilder::new();
    // 1000 elements at 10 µs stream-time spacing → 10 ms of stream time.
    let src = b.source(VecSource::counting("src", 1_000, 100_000.0));
    let c1 = Arc::new(AtomicU64::new(0));
    let l1 = Arc::new(AtomicU64::new(0));
    let probe1 = b.op_after(
        WatermarkProbe { name: "probe1".into(), count: c1.clone(), last: l1.clone() },
        src,
    );
    let c2 = Arc::new(AtomicU64::new(0));
    let probe2 = b.op_after(
        WatermarkProbe {
            name: "probe2".into(),
            count: c2.clone(),
            last: Arc::new(AtomicU64::new(0)),
        },
        probe1,
    );
    let (sink, _h) = CollectingSink::new("out");
    b.op_after(sink, probe2);
    (b.build().expect("valid graph"), c1, c2, l1)
}

#[test]
fn watermarks_flow_through_queues_and_di() {
    for plan_for in [
        (|t: &Topology| ExecutionPlan::gts(t, StrategyKind::Fifo)) as fn(&Topology) -> _,
        |t| ExecutionPlan::di_decoupled(t),
        |t| ExecutionPlan::ots(t),
    ] {
        let (graph, c1, c2, l1) = watermark_graph();
        let topo = Topology::of(&graph);
        let cfg = EngineConfig {
            pace_sources: false,
            // 10 ms of stream time / 1 ms interval ≈ 10 watermarks.
            watermark_interval: Some(Duration::from_millis(1)),
            ..EngineConfig::default()
        };
        let report = Engine::run_with_config(graph, plan_for(&topo), cfg).expect("engine runs");
        assert!(report.errors.is_empty());
        let n1 = c1.load(Ordering::Relaxed);
        let n2 = c2.load(Ordering::Relaxed);
        assert!((8..=12).contains(&n1), "probe1 watermarks: {n1}");
        assert_eq!(n1, n2, "watermarks forwarded downstream");
        // The last watermark is near the end of stream time (10 ms).
        assert!(l1.load(Ordering::Relaxed) >= 8_000, "last wm {}", l1.load(Ordering::Relaxed));
    }
}

#[test]
fn watermarks_disabled_by_default() {
    let (graph, c1, _, _) = watermark_graph();
    let topo = Topology::of(&graph);
    let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
    Engine::run_with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
        .expect("engine runs");
    assert_eq!(c1.load(Ordering::Relaxed), 0);
}

fn shedding_graph(count: u64) -> (QueryGraph, SinkHandle) {
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("src", count, 1e9));
    let slow = b.op_after(
        Costed::new(
            Filter::new("slow", Expr::bool(true)),
            CostMode::Busy(Duration::from_micros(200)),
        ),
        src,
    );
    let (sink, handle) = CollectingSink::new("out");
    b.op_after(sink, slow);
    (b.build().expect("valid graph"), handle)
}

#[test]
fn bounded_queue_drop_oldest_sheds_load() {
    let (graph, handle) = shedding_graph(5_000);
    let topo = Topology::of(&graph);
    let cfg = EngineConfig {
        pace_sources: false,
        queue_bound: Some(QueueBound { capacity: 64, policy: BackpressurePolicy::DropOldest }),
        ..EngineConfig::default()
    };
    let report = Engine::run_with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
        .expect("engine runs");
    assert!(report.errors.is_empty());
    let got = handle.count();
    assert!(got < 5_000, "overloaded operator sheds: kept {got}");
    // The EOS punctuation may occupy one of the 64 slots when the source
    // outruns the consumer to the very end, evicting one data element.
    assert!(got >= 63, "at least a queue's worth survives: {got}");
    // The freshest elements survive DropOldest.
    let vals = common::collected_values(&handle);
    assert_eq!(*vals.last().unwrap(), 4_999, "newest element kept");
}

#[test]
fn bounded_queue_block_is_lossless() {
    let (graph, handle) = shedding_graph(2_000);
    let topo = Topology::of(&graph);
    let cfg = EngineConfig {
        pace_sources: false,
        queue_bound: Some(QueueBound { capacity: 16, policy: BackpressurePolicy::Block }),
        memory_sample_interval: Some(Duration::from_millis(1)),
        ..EngineConfig::default()
    };
    let report = Engine::run_with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
        .expect("engine runs");
    assert!(report.errors.is_empty());
    assert_eq!(handle.count(), 2_000, "Block backpressure loses nothing");
    // Bounded queues also bound memory.
    assert!(!report.memory_series.is_empty(), "queue memory was sampled");
    assert!(report.peak_queue_memory <= 64, "peak {}", report.peak_queue_memory);
}

#[test]
fn a_burst_longer_than_a_bounded_queue_reaches_a_pooled_consumer() {
    // A paced source whose elements share a due time hands them over as
    // one run — here twice what the `Block` queue holds. The consumer is a
    // pooled VO, which runs only when its waker says so: it has to be woken
    // for the first half *before* the source waits for room for the second.
    let burst = |at_ms: u64, values: std::ops::Range<i64>| {
        values.map(move |v| (Timestamp::from_millis(at_ms), Tuple::single(v)))
    };
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::new("src", burst(1, 0..32).chain(burst(2, 32..100)).collect()));
    let f = b.op_after(Filter::new("f", Expr::bool(true)), src);
    let (sink, handle) = CollectingSink::new("out");
    let k = b.op_after(sink, f);
    let graph = b.build().expect("valid graph");
    let plan = ExecutionPlan::hmts(Partitioning::new(vec![vec![f, k]]), StrategyKind::Fifo, 2);
    let cfg = EngineConfig {
        queue_bound: Some(QueueBound { capacity: 16, policy: BackpressurePolicy::Block }),
        memory_sample_interval: Some(Duration::from_micros(100)),
        ..EngineConfig::default()
    };
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(Engine::run_with_config(graph, plan, cfg));
    });
    let report = finished
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("engine hangs with {} of 100 at the sink", handle.count()))
        .expect("engine runs");
    assert!(report.errors.is_empty());
    assert_eq!(common::collected_values(&handle), (0..100).collect::<Vec<_>>());
    assert!(!report.memory_series.is_empty(), "queue memory was sampled");
    assert!(report.peak_queue_memory <= 16, "peak {}", report.peak_queue_memory);
}

#[test]
fn runtime_queue_insertion_and_removal() {
    // Paper §5.1.3: queues can be inserted at runtime; removal requires
    // processing the queue's remaining elements (the engine drains and
    // re-seeds them). Results stay exactly-once throughout.
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("src", 4_000, 20_000.0));
    let a = b.op_after(Filter::new("a", Expr::field(0).rem(Expr::int(2)).eq(Expr::int(0))), src);
    let c = b.op_after(Filter::new("b", Expr::bool(true)), a);
    let (sink, handle) = CollectingSink::new("out");
    let k = b.op_after(sink, c);
    let graph = b.build().expect("valid graph");
    let topo = Topology::of(&graph);

    // Start fully fused (one VO, one thread).
    let mut engine = Engine::new(graph, ExecutionPlan::di_decoupled(&topo)).expect("engine builds");
    engine.start().expect("engine starts");
    assert_eq!(engine.plan().partitioning.len(), 1);

    std::thread::sleep(Duration::from_millis(30));
    // Insert a queue between the filters: 1 VO → 2 VOs.
    assert!(engine.insert_queue(a, c).expect("insert"));
    assert_eq!(engine.plan().partitioning.len(), 2);
    // Idempotent: the edge is already decoupled.
    assert!(!engine.insert_queue(a, c).expect("insert again"));

    std::thread::sleep(Duration::from_millis(30));
    // Remove it again: back to 1 VO (remaining elements re-seeded).
    assert!(engine.remove_queue(a, c).expect("remove"));
    assert_eq!(engine.plan().partitioning.len(), 1);
    assert!(!engine.remove_queue(a, c).expect("remove again"));

    // Unknown / source edges are a no-op.
    assert!(!engine.insert_queue(src, a).expect("source edge"));
    assert!(!engine.remove_queue(c, k).expect("same VO already")); // c,k fused

    let report = engine.wait();
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    let want: Vec<i64> = (0..4_000).filter(|v| v % 2 == 0).collect();
    assert_eq!(common::collected_values(&handle), want, "exactly-once");
}

#[test]
fn insert_queue_respects_shared_subqueries() {
    // A diamond inside one VO: cutting one of its edges cannot split the
    // VO (the endpoints stay connected through the other branch), so
    // insert_queue reports false — the paper's §3.4 generality of
    // push-based VOs.
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("src", 100, 1e6));
    let f = b.op_after(Filter::new("f", Expr::bool(true)), src);
    let l = b.op_after(Filter::new("l", Expr::bool(true)), f);
    let r = b.op_after(Filter::new("r", Expr::bool(true)), f);
    let u = b.op(Union::new("u", 2));
    b.connect_port(l, u, 0).connect_port(r, u, 1);
    let (sink, _h) = CollectingSink::new("out");
    b.op_after(sink, u);
    let graph = b.build().expect("valid graph");
    let topo = Topology::of(&graph);
    let mut engine = Engine::new(graph, ExecutionPlan::di_decoupled(&topo)).expect("engine builds");
    engine.start().expect("engine starts");
    assert!(!engine.insert_queue(f, l).expect("diamond edge"), "cut leaves VO connected");
    assert_eq!(engine.plan().partitioning.len(), 1, "VO not split");
    let report = engine.wait();
    assert!(report.errors.is_empty());
}

#[test]
fn suggested_workers_drive_a_plan() {
    // Two saturated VOs → 2 workers recommended; the plan runs correctly.
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("src", 3_000, 5_000.0));
    let a = b.op_after(
        Costed::new(
            Filter::new("a", Expr::bool(true)),
            CostMode::Virtual(Duration::from_micros(180)),
        ),
        src,
    );
    let c = b.op_after(
        Costed::new(
            Filter::new("b", Expr::bool(true)),
            CostMode::Virtual(Duration::from_micros(180)),
        ),
        a,
    );
    let (sink, handle) = CollectingSink::new("out");
    b.op_after(sink, c);
    let graph = b.build().expect("valid graph");

    let mut inputs = CostInputs::default();
    inputs.source_rates.insert(Topology::of(&graph).sources()[0], 5_000.0);
    let cost_graph = CostGraph::from_query_graph(&graph, &inputs);
    let groups = stall_avoiding(&cost_graph);
    let workers = suggest_workers(&cost_graph, &groups);
    assert_eq!(workers, 2, "two ~0.9-utilization VOs need two workers: {groups:?}");

    let plan = ExecutionPlan::hmts(to_partitioning(&groups), StrategyKind::Fifo, workers);
    let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
    let report = Engine::run_with_config(graph, plan, cfg).expect("engine runs");
    assert!(report.errors.is_empty());
    assert_eq!(handle.count(), 3_000);
}

#[test]
fn is_complete_does_not_wait_for_a_running_slice() {
    // GTS runs a slice until the domain is idle, so one element that costs
    // 200 ms holds the executor for that long. A poll must answer at once
    // ("not complete") instead of waiting the slice out; the slowest poll
    // of the best of three runs must be well under the slice.
    let slowest_poll = || {
        let mut b = GraphBuilder::new();
        let src = b.source(VecSource::counting("src", 1, 1_000.0));
        let slow = b.op_after(
            Costed::new(
                Filter::new("slow", Expr::bool(true)),
                CostMode::Busy(Duration::from_millis(200)),
            ),
            src,
        );
        let (sink, handle) = CollectingSink::new("out");
        b.op_after(sink, slow);
        let graph = b.build().expect("valid graph");
        let topo = Topology::of(&graph);
        let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
        let mut engine =
            Engine::with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
                .expect("engine builds");
        let t0 = std::time::Instant::now();
        engine.start().expect("engine starts");
        let mut slowest = Duration::ZERO;
        loop {
            let poll = std::time::Instant::now();
            let complete = engine.is_complete();
            slowest = slowest.max(poll.elapsed());
            if complete {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "the engine never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(t0.elapsed() >= Duration::from_millis(200), "completed inside the slice");
        let report = engine.wait();
        assert!(report.errors.is_empty());
        assert_eq!(handle.count(), 1);
        slowest
    };
    let best = (0..3).map(|_| slowest_poll()).min().expect("three runs");
    assert!(best < Duration::from_millis(10), "a poll waited {best:?}");
}
