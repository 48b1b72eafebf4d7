//! Runtime mode switching (paper §4.2.2): "We can seamlessly switch between
//! these approaches during runtime." These tests switch a *running* engine
//! between GTS, OTS, DI, and HMTS mid-stream and verify exactly-once,
//! in-order results, correct draining of removed queues (§5.1.3), and
//! clean completion. Every graph here is a single chain, so the sink's
//! arrival order is the stream's order under every plan.

use hmts::prelude::*;
use std::time::{Duration, Instant};

/// The integer payloads a sink collected, in arrival order.
fn arrivals(handle: &SinkHandle) -> Vec<i64> {
    handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect()
}

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
    assert_eq!(arrivals(&handle), expected_evens(count), "exactly-once, in order");
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
    assert_eq!(arrivals(&handle), expected_evens(50_000));
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
    assert_eq!(arrivals(&handle), expected_evens(100));
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
    assert_eq!(arrivals(&handle), expected_evens(2_000));
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
    assert_eq!(arrivals(&handle), expected_evens(2_000));
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

/// A plan to switch to, built from the graph's topology.
type PlanOf = fn(&Topology) -> ExecutionPlan;

/// Switches a running engine through `plans`, 2 ms apart.
fn switch_through(engine: &mut Engine, plans: &[PlanOf]) {
    for (i, plan) in plans.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let plan = plan(engine.topology());
        engine.switch_plan(plan).expect("switch");
    }
}

/// A switch case: its name, the queue bound it runs under, the switch.
type SwitchCase = (&'static str, Option<QueueBound>, fn(&mut Engine));

/// Each switch the in-flight input crosses by a different path — into a
/// source-driven domain, into a pooled DI domain, into one pooled VO, into
/// a VO merged across a removed queue (§5.1.3) — and, with every queue
/// bounded by `Block`, back and forth between GTS and OTS.
fn switch_table() -> Vec<SwitchCase> {
    let block = QueueBound { capacity: 16, policy: BackpressurePolicy::Block };
    vec![
        ("GTS -> DI", None, |e| switch_through(e, &[ExecutionPlan::di])),
        ("GTS -> decoupled DI", None, |e| switch_through(e, &[ExecutionPlan::di_decoupled])),
        ("GTS -> HMTS, one VO", None, |e| {
            switch_through(
                e,
                &[|t| {
                    ExecutionPlan::hmts(
                        Partitioning::new(vec![t.operators()]),
                        StrategyKind::Fifo,
                        1,
                    )
                }],
            )
        }),
        ("remove_queue(a, slow)", None, |e| {
            assert!(e.remove_queue(NodeId(1), NodeId(2)).expect("remove"), "a queue went");
        }),
        ("GTS -> OTS -> GTS -> OTS, bounded(16, Block)", Some(block), |e| {
            let gts: PlanOf = |t| ExecutionPlan::gts(t, StrategyKind::Fifo);
            switch_through(e, &[ExecutionPlan::ots, gts, ExecutionPlan::ots])
        }),
    ]
}

/// src -> a (1 µs busy) -> slow (2 µs busy) -> sink, started under GTS,
/// whose one worker falls behind the source, so every queue holds
/// elements when a switch comes: `count` elements at `rate` (paced), or
/// flat out.
fn busy_chain(
    count: u64,
    rate: Option<f64>,
    queue_bound: Option<QueueBound>,
) -> (Engine, SinkHandle) {
    let busy = |name, us| BusyPassthrough::new(name, CostMode::Busy(Duration::from_micros(us)));
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("src", count, rate.unwrap_or(1e9)));
    let a = b.op_after(busy("a", 1), src);
    let slow = b.op_after(busy("slow", 2), a);
    let (sink, handle) = CollectingSink::new("sink");
    b.op_after(sink, slow);
    let graph = b.build().expect("valid graph");
    let plan = ExecutionPlan::gts(&Topology::of(&graph), StrategyKind::Fifo);
    let cfg = EngineConfig { pace_sources: rate.is_some(), queue_bound, ..EngineConfig::default() };
    let mut engine = Engine::with_config(graph, plan, cfg).expect("engine builds");
    engine.start().expect("engine starts");
    (engine, handle)
}

/// Waits for `engine` to complete — a bounded wait: an engine that never
/// completes fails the case instead of hanging the test — and says how the
/// sink's stream differs from `0..count` once each, in order, then EOS.
fn completes_in_order(engine: Engine, handle: &SinkHandle, count: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !engine.is_complete() {
        if Instant::now() > deadline {
            engine.abort();
            return Err(format!(
                "not complete after 5 s, {} of {count} at the sink",
                handle.count()
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = engine.wait();
    let got = arrivals(handle);
    let mut latest = -1;
    let behind_a_later_one = got
        .iter()
        .filter(|&&v| {
            let behind = v < latest;
            latest = latest.max(v);
            behind
        })
        .count();
    if !report.errors.is_empty() {
        Err(format!("errors {:?}", report.errors))
    } else if !got.iter().copied().eq(0..count as i64) {
        Err(format!(
            "{} of {count} at the sink, {behind_a_later_one} behind a later one",
            got.len()
        ))
    } else if !handle.is_done() {
        Err("the sink saw no EOS".into())
    } else {
        Ok(())
    }
}

/// Runs every case of [`switch_table`] that `keep` keeps on a fresh
/// [`busy_chain`] of `count` elements at `rate`: `ready` waits for the
/// condition under test, then the case switches. Fails naming every case
/// that did not complete in order.
fn each_switch_completes_in_order(
    count: u64,
    rate: Option<f64>,
    keep: fn(&Option<QueueBound>) -> bool,
    ready: fn(&Engine, &SinkHandle),
) {
    let failed: Vec<String> = switch_table()
        .into_iter()
        .filter(|(_, bound, _)| keep(bound))
        .filter_map(|(case, bound, switch)| {
            let (mut engine, handle) = busy_chain(count, rate, bound);
            ready(&engine, &handle);
            switch(&mut engine);
            completes_in_order(engine, &handle, count).err().map(|e| format!("{case}: {e}"))
        })
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}

#[test]
fn a_switch_keeps_order_and_completes_while_the_source_runs() {
    // 30 000 elements at 1 M/s: a switch 10 ms in finds the source still
    // running and elements in every queue.
    each_switch_completes_in_order(
        30_000,
        Some(1e6),
        |_| true,
        |_, _| std::thread::sleep(Duration::from_millis(10)),
    );
}

#[test]
fn a_switch_keeps_order_and_completes_after_the_source_finished() {
    // 20 000 elements flat out: the source is done and its EOS queued
    // long before GTS, at 3 µs of busy work an element, has worked them
    // off. Under `Block` the source finishes only once the queues are
    // nearly drained, so that case runs in the test above only.
    each_switch_completes_in_order(20_000, None, Option::is_none, |engine, handle| {
        let emitted = || engine.source_timelines()[0].last().map_or(0.0, |(_, n)| n);
        while emitted() < 20_000.0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The EOS follows the last run at once. (`is_complete` would wait
        // for the slice in progress, which runs until idle.)
        std::thread::sleep(Duration::from_millis(2));
        assert!(handle.count() < 10_000, "the run was nearly done before the switch");
    });
}
