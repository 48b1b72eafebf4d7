//! Runtime mode switching (paper §4.2.2): "We can seamlessly switch between
//! these approaches during runtime." These tests switch a *running* engine
//! between GTS, OTS, DI, and HMTS mid-stream and verify exactly-once
//! results, correct draining of removed queues (§5.1.3), and clean
//! completion.

#[path = "common/mod.rs"]
mod common;

use common::collected_values;
use hmts::prelude::*;
use std::time::Duration;

/// Source slow enough that switches happen mid-stream: `count` elements at
/// `rate` el/s, values 0..count.
fn paced_graph(count: u64, rate: f64) -> (QueryGraph, SinkHandle) {
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("src", count, rate));
    let f1 = b
        .op_after(Filter::new("keep_even", Expr::field(0).rem(Expr::int(2)).eq(Expr::int(0))), src);
    let f2 = b.op_after(Filter::new("keep_lt", Expr::field(0).lt(Expr::int(i64::MAX))), f1);
    let (sink, handle) = CollectingSink::new("out");
    b.op_after(sink, f2);
    (b.build().expect("valid graph"), handle)
}

fn expected_evens(count: u64) -> Vec<i64> {
    (0..count as i64).filter(|v| v % 2 == 0).collect()
}

/// Runs `count` paced elements while switching through `plans` at fixed
/// intervals; checks exactly-once delivery.
fn run_with_switches(count: u64, rate: f64, interval: Duration, plans: Vec<ExecutionPlan>) {
    let (graph, handle) = paced_graph(count, rate);
    let topo = Topology::of(&graph);
    let first = ExecutionPlan::gts(&topo, StrategyKind::Fifo);
    let mut engine = Engine::new(graph, first).expect("engine builds");
    engine.start().expect("engine starts");
    for plan in plans {
        std::thread::sleep(interval);
        engine.switch_plan(plan).expect("switch succeeds");
    }
    let report = engine.wait();
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    assert!(handle.is_done(), "sink saw EOS after switches");
    assert_eq!(collected_values(&handle), expected_evens(count), "exactly-once");
    // Every wiring's executors booked into the same statistics cells, each
    // taking over where the last one stopped: the counts cover the whole
    // stream, once.
    let processed = |name: &str| {
        report.stats.nodes.iter().find(|n| n.name == name).expect("node is in the report").processed
    };
    assert_eq!(processed("src"), count);
    assert_eq!(processed("keep_even"), count);
    assert_eq!(processed("keep_lt"), count.div_ceil(2));
    assert_eq!(processed("out"), count.div_ceil(2));
}

#[test]
fn gts_to_ots_mid_stream() {
    let (g, _) = paced_graph(1, 1.0);
    let topo = Topology::of(&g);
    run_with_switches(3_000, 10_000.0, Duration::from_millis(60), vec![ExecutionPlan::ots(&topo)]);
}

#[test]
fn full_circle_gts_ots_hmts_di() {
    let (g, _) = paced_graph(1, 1.0);
    let topo = Topology::of(&g);
    let ops = topo.operators();
    let part = Partitioning::new(vec![vec![ops[0], ops[1]], vec![ops[2]]]);
    run_with_switches(
        6_000,
        10_000.0,
        Duration::from_millis(80),
        vec![
            ExecutionPlan::ots(&topo),
            ExecutionPlan::hmts(part, StrategyKind::Chain, 2),
            ExecutionPlan::di_decoupled(&topo),
            ExecutionPlan::gts(&topo, StrategyKind::Fifo),
        ],
    );
}

#[test]
fn switch_to_pure_di_and_back() {
    let (g, _) = paced_graph(1, 1.0);
    let topo = Topology::of(&g);
    run_with_switches(
        3_000,
        10_000.0,
        Duration::from_millis(70),
        vec![ExecutionPlan::di(&topo), ExecutionPlan::ots(&topo)],
    );
}

#[test]
fn rapid_switching_stress() {
    let (g, _) = paced_graph(1, 1.0);
    let topo = Topology::of(&g);
    let plans: Vec<ExecutionPlan> = (0..10)
        .map(|i| {
            if i % 2 == 0 {
                ExecutionPlan::ots(&topo)
            } else {
                ExecutionPlan::gts(&topo, StrategyKind::Fifo)
            }
        })
        .collect();
    run_with_switches(5_000, 20_000.0, Duration::from_millis(20), plans);
}

#[test]
fn queue_drain_on_switch_loses_nothing() {
    // Unpaced source floods GTS queues; switching to DI mid-flood must
    // re-seed every queued element into the merged partition (§5.1.3).
    let (graph, handle) = paced_graph(50_000, 1e9);
    let topo = Topology::of(&graph);
    let cfg = EngineConfig {
        pace_sources: false,
        // Tiny batches keep plenty of elements queued at switch time.
        batch: 4,
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
        .expect("engine builds");
    engine.start().expect("engine starts");
    std::thread::sleep(Duration::from_millis(5));
    engine.switch_plan(ExecutionPlan::di_decoupled(&topo)).expect("switch");
    let report = engine.wait();
    assert!(report.errors.is_empty());
    assert_eq!(collected_values(&handle), expected_evens(50_000));
}

#[test]
fn switch_after_completion_is_safe() {
    let (graph, handle) = paced_graph(100, 1e9);
    let topo = Topology::of(&graph);
    let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
    let mut engine = Engine::with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
        .expect("engine builds");
    engine.start().expect("engine starts");
    // Let the tiny stream finish entirely.
    while !engine.is_complete() {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Switching a completed engine must neither hang nor duplicate.
    engine.switch_plan(ExecutionPlan::ots(&topo)).expect("switch after EOS");
    let report = engine.wait();
    assert!(report.errors.is_empty());
    assert_eq!(collected_values(&handle), expected_evens(100));
}

#[test]
fn switch_rejects_invalid_plan_and_keeps_running() {
    let (graph, handle) = paced_graph(2_000, 20_000.0);
    let topo = Topology::of(&graph);
    let mut engine =
        Engine::new(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo)).expect("engine builds");
    engine.start().expect("engine starts");
    let mut bad = ExecutionPlan::ots(&topo);
    bad.partitioning = Partitioning::new(vec![]);
    assert!(matches!(engine.switch_plan(bad), Err(EngineError::InvalidPlan(_))));
    let report = engine.wait();
    assert!(report.errors.is_empty());
    assert_eq!(collected_values(&handle), expected_evens(2_000));
}

#[test]
fn switch_before_start_is_rejected() {
    let (graph, _) = paced_graph(10, 1e9);
    let topo = Topology::of(&graph);
    let mut engine =
        Engine::new(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo)).expect("engine builds");
    assert!(matches!(engine.switch_plan(ExecutionPlan::ots(&topo)), Err(EngineError::NotStarted)));
}

#[test]
fn priorities_adjust_at_runtime() {
    let (graph, handle) = paced_graph(2_000, 40_000.0);
    let topo = Topology::of(&graph);
    let ops = topo.operators();
    let part = Partitioning::new(vec![vec![ops[0]], vec![ops[1], ops[2]]]);
    let mut engine = Engine::new(graph, ExecutionPlan::hmts(part, StrategyKind::Fifo, 1))
        .expect("engine builds");
    engine.start().expect("engine starts");
    engine.set_domain_priority(1, 50);
    engine.set_domain_priority(0, -10);
    let report = engine.wait();
    assert!(report.errors.is_empty());
    assert_eq!(collected_values(&handle), expected_evens(2_000));
}

#[test]
fn abort_stops_early() {
    let (graph, handle) = paced_graph(1_000_000, 1_000.0); // would take ~17 min
    let topo = Topology::of(&graph);
    let mut engine =
        Engine::new(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo)).expect("engine builds");
    engine.start().expect("engine starts");
    std::thread::sleep(Duration::from_millis(100));
    let t0 = std::time::Instant::now();
    let report = engine.abort();
    assert!(t0.elapsed() < Duration::from_secs(5), "abort is prompt");
    assert!(report.errors.is_empty());
    assert!(handle.count() < 1_000_000);
}

#[test]
fn many_operator_rapid_switching() {
    // Regression probe: rapid GTS ⇄ OTS switching on a 30-operator chain
    // (30+ threads joined and respawned per switch) must not deadlock.
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("src", 10_000_000, 50_000.0));
    let mut prev = src;
    for i in 0..30 {
        prev = b.op_after(Filter::new(format!("f{i}"), Expr::bool(true)), prev);
    }
    let (sink, _h) = CollectingSink::new("out");
    b.op_after(sink, prev);
    let graph = b.build().expect("valid graph");
    let topo = Topology::of(&graph);
    let mut engine =
        Engine::new(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo)).expect("engine builds");
    engine.start().expect("engine starts");
    for i in 0..40 {
        let plan = if i % 2 == 0 {
            ExecutionPlan::ots(&topo)
        } else {
            ExecutionPlan::gts(&topo, StrategyKind::Fifo)
        };
        engine.switch_plan(plan).expect("switch");
    }
    let report = engine.abort();
    assert!(report.errors.is_empty());
}
