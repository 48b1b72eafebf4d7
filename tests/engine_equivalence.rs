//! The central correctness property of the scheduling framework: the
//! *results* of a continuous query are independent of the scheduling
//! architecture. DI, decoupled DI, GTS (FIFO and Chain), OTS, and HMTS
//! (FIFO and Chain) must produce the identical output multiset —
//! queues "do not have an impact on the semantics, but are only introduced
//! for performance reasons" (paper §2.4).

#[path = "common/mod.rs"]
mod common;

use common::{collected_values, run_unpaced, selection_chain};
use hmts::prelude::*;
use std::time::Duration;

const COUNT: u64 = 20_000;
const RATE: f64 = 1e9; // effectively unpaced due times
const THRESHOLDS: &[i64] = &[18_000, 15_000, 9_999];

fn expected() -> Vec<i64> {
    (0..COUNT as i64).filter(|&v| v < 9_999).collect()
}

fn all_plans(graph: &QueryGraph) -> Vec<(&'static str, ExecutionPlan)> {
    let topo = Topology::of(graph);
    let ops = topo.operators();
    // A hand-rolled HMTS partitioning: first two selections in one VO, the
    // third selection and the sink in another.
    let hmts_partitioning = Partitioning::new(vec![vec![ops[0], ops[1]], vec![ops[2], ops[3]]]);
    vec![
        ("di", ExecutionPlan::di(&topo)),
        ("di_decoupled", ExecutionPlan::di_decoupled(&topo)),
        ("gts_fifo", ExecutionPlan::gts(&topo, StrategyKind::Fifo)),
        ("gts_chain", ExecutionPlan::gts(&topo, StrategyKind::Chain)),
        ("gts_rr", ExecutionPlan::gts(&topo, StrategyKind::RoundRobin)),
        ("gts_lq", ExecutionPlan::gts(&topo, StrategyKind::LongestQueue)),
        ("ots", ExecutionPlan::ots(&topo)),
        (
            "hmts_thread_per_vo",
            ExecutionPlan::hmts(
                hmts_partitioning.clone(),
                StrategyKind::Fifo,
                hmts_partitioning.len(),
            ),
        ),
        ("hmts_pooled", ExecutionPlan::hmts(hmts_partitioning, StrategyKind::Chain, 2)),
    ]
}

#[test]
fn every_mode_produces_identical_results() {
    let want = expected();
    let (probe_graph, _) = selection_chain(COUNT, RATE, THRESHOLDS);
    for (name, plan) in all_plans(&probe_graph) {
        let (graph, handle) = selection_chain(COUNT, RATE, THRESHOLDS);
        run_unpaced(graph, plan);
        assert!(handle.is_done(), "{name}: sink saw EOS");
        assert_eq!(collected_values(&handle), want, "{name}: result multiset");
    }
}

/// A queue whose producer and consumer are the same domain wakes nobody:
/// the domain drains its own queues before it goes idle. A GTS chain, and
/// a pooled domain hosting two VOs and the queue between them, still
/// deliver every result — unpaced, and paced so that the domain goes idle
/// between arrivals.
#[test]
fn a_domain_drains_the_queues_it_feeds_itself() {
    let (probe_graph, _) = selection_chain(COUNT, RATE, THRESHOLDS);
    let topo = Topology::of(&probe_graph);
    let ops = topo.operators();
    let pooled = ExecutionPlan {
        partitioning: Partitioning::new(vec![vec![ops[0], ops[1]], vec![ops[2], ops[3]]]),
        domains: vec![DomainSpec {
            name: "both-vos".into(),
            partitions: vec![0, 1],
            execution: DomainExecution::Pooled,
            strategy: StrategyKind::Fifo,
            priority: 0,
        }],
        workers: 1,
    };
    let plans = [("gts", ExecutionPlan::gts(&topo, StrategyKind::Fifo)), ("pooled", pooled)];
    for (name, plan) in plans {
        for pace in [false, true] {
            let (done, finished) = std::sync::mpsc::channel();
            let plan = plan.clone();
            std::thread::spawn(move || {
                let rate = if pace { 400_000.0 } else { RATE };
                let (graph, handle) = selection_chain(COUNT, rate, THRESHOLDS);
                let cfg = EngineConfig { pace_sources: pace, ..EngineConfig::default() };
                let report = Engine::run_with_config(graph, plan, cfg).expect("engine runs");
                let _ = done.send((report.errors.is_empty(), handle));
            });
            let (clean, handle) = finished
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{name}, paced {pace}: did not drain within 60 s"));
            assert!(clean && handle.is_done(), "{name}, paced {pace}");
            assert_eq!(collected_values(&handle), expected(), "{name}, paced {pace}");
        }
    }
}

/// Mode set that works for any graph shape (no hand-rolled partitioning).
fn all_plans_generic(graph: &QueryGraph) -> Vec<(&'static str, ExecutionPlan)> {
    let topo = Topology::of(graph);
    vec![
        ("di", ExecutionPlan::di(&topo)),
        ("di_decoupled", ExecutionPlan::di_decoupled(&topo)),
        ("gts_fifo", ExecutionPlan::gts(&topo, StrategyKind::Fifo)),
        ("gts_chain", ExecutionPlan::gts(&topo, StrategyKind::Chain)),
        ("ots", ExecutionPlan::ots(&topo)),
    ]
}

#[test]
fn fanout_sharing_is_consistent_across_modes() {
    // Diamond with subquery sharing: src -> f -> {left, right} -> union.
    let build = || {
        let mut b = GraphBuilder::new();
        let src = b.source(VecSource::counting("src", 5_000, RATE));
        let f = b.op_after(Filter::new("f", Expr::field(0).lt(Expr::int(4_000))), src);
        let l = b.op_after(Filter::new("l", Expr::field(0).rem(Expr::int(2)).eq(Expr::int(0))), f);
        let r = b.op_after(Filter::new("r", Expr::field(0).rem(Expr::int(3)).eq(Expr::int(0))), f);
        let u = b.op(Union::new("u", 2));
        b.connect_port(l, u, 0).connect_port(r, u, 1);
        let (sink, handle) = CollectingSink::new("out");
        b.op_after(sink, u);
        (b.build().expect("valid graph"), handle)
    };
    let want: Vec<i64> = {
        let mut v: Vec<i64> = (0..4_000).filter(|v| v % 2 == 0).collect();
        v.extend((0..4_000).filter(|v| v % 3 == 0));
        v.sort_unstable();
        v
    };
    let (probe, _) = build();
    for (name, plan) in all_plans_generic(&probe) {
        let (graph, handle) = build();
        run_unpaced(graph, plan);
        assert_eq!(collected_values(&handle), want, "{name}");
    }
}

#[test]
fn windowed_aggregate_is_consistent_across_modes() {
    let build = || {
        let mut b = GraphBuilder::new();
        let src = b.source(VecSource::counting("src", 2_000, 1_000.0));
        let agg = b.op_after(
            WindowAggregate::new("cnt", AggregateFunction::Count, Duration::from_secs(1)),
            src,
        );
        let (sink, handle) = CollectingSink::new("out");
        b.op_after(sink, agg);
        (b.build().expect("valid graph"), handle)
    };
    let (probe, _) = build();
    let mut reference: Option<Vec<i64>> = None;
    for (name, plan) in all_plans_generic(&probe) {
        let (graph, handle) = build();
        run_unpaced(graph, plan);
        let counts: Vec<i64> =
            handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(counts.len(), 2_000, "{name}: one update per input");
        match &reference {
            None => reference = Some(counts),
            Some(r) => assert_eq!(&counts, r, "{name}: aggregate sequence"),
        }
    }
    // Sliding 1 s window over 1000 el/s: the steady-state count is ~1000.
    let r = reference.unwrap();
    assert!(*r.last().unwrap() >= 999, "window filled: {}", r.last().unwrap());
}

/// What a sink collected, as the sequence it arrived in.
fn collected_sequence(handle: &SinkHandle) -> Vec<(Timestamp, Tuple)> {
    handle.elements().into_iter().map(|e| (e.ts, e.tuple)).collect()
}

#[test]
fn the_batch_size_changes_no_result_in_any_mode() {
    // One source and a linear plan keep the order, so the results are
    // compared as sequences — against the DI run that delivers one element
    // per run. The source hands over `batch` elements at a time, an
    // executor pops as many per decision; 7 divides neither the streams
    // nor the default 32.
    let chain = || selection_chain(5_000, RATE, THRESHOLDS);
    let keyed = || {
        let mut b = GraphBuilder::new();
        let src = b.source(VecSource::new(
            "src",
            (0..5_000u64)
                .map(|i| {
                    (Timestamp::from_micros(i + 1), Tuple::pair((i * 7 % 13) as i64, i as i64))
                })
                .collect(),
        ));
        let flt =
            b.op_after(Filter::new("flt", Expr::field(1).rem(Expr::int(5)).lt(Expr::int(4))), src);
        let agg = b.op_after(
            WindowAggregate::new("agg", AggregateFunction::Sum(1), Duration::from_micros(200))
                .group_by(Expr::field(0)),
            flt,
        );
        let (sink, handle) = CollectingSink::new("out");
        b.op_after(sink, agg);
        (b.build().expect("valid graph"), handle)
    };
    type Build = fn() -> (QueryGraph, SinkHandle);
    let builds: [(&str, Build); 2] = [("chain", chain), ("keyed", keyed)];
    for (shape, build) in builds {
        let run = |mode: &str, batch: usize| {
            let (graph, handle) = build();
            let topo = Topology::of(&graph);
            let ops = topo.operators();
            let plan = match mode {
                "di" => ExecutionPlan::di(&topo),
                "gts" => ExecutionPlan::gts(&topo, StrategyKind::Fifo),
                _ => ExecutionPlan::hmts(
                    Partitioning::new(vec![ops[..1].to_vec(), ops[1..].to_vec()]),
                    StrategyKind::Fifo,
                    2,
                ),
            };
            let cfg = EngineConfig { pace_sources: false, batch, ..EngineConfig::default() };
            let report = Engine::run_with_config(graph, plan, cfg).expect("engine runs");
            assert!(report.errors.is_empty(), "{shape} {mode} {batch}: {:?}", report.errors);
            assert!(handle.is_done(), "{shape} {mode} {batch}: sink saw EOS");
            collected_sequence(&handle)
        };
        let want = run("di", 1);
        assert!(want.len() > 1_000, "{shape}: {} results", want.len());
        for mode in ["di", "gts", "hmts"] {
            for batch in [1, 7, 32] {
                assert!(run(mode, batch) == want, "{shape} under {mode} with batch {batch}");
            }
        }
    }
}

/// `n` keyed rows `(i * 7 % 13, i)`, one per microsecond from `first_us`.
fn keyed_rows(name: &str, n: u64, first_us: u64) -> VecSource {
    VecSource::new(
        name,
        (0..n)
            .map(|i| {
                (Timestamp::from_micros(first_us + i), Tuple::pair((i * 7 % 13) as i64, i as i64))
            })
            .collect(),
    )
}

#[test]
fn the_run_length_changes_no_sink_sequence_in_any_shape_or_mode() {
    // What goes through an operator in one call is a run: as many elements
    // as the source hands over or an executor pops (`batch`), ended early
    // by every punctuation — here a watermark every 50 µs of stream time,
    // which falls mid-batch for 7 and for 32. Whatever the runs are, every
    // operator sees the same input in the same order, so every sink sees
    // what it sees when elements travel one by one (`batch = 1` under DI).
    // Where two threads race into one operator — a union's or a join's two
    // inputs, from two queues or two sources — the order is the race's, and
    // the results are compared as multisets. A union's two inputs meet run
    // by run even in one thread — a run is the unit of depth-first order —
    // so the diamond's results carry their branch, each branch's sequence
    // is compared exactly, and the merged stream as a multiset.
    type Built = (QueryGraph, Vec<SinkHandle>);
    let chain = || -> Built {
        let mut b = GraphBuilder::new();
        let src = b.source(keyed_rows("src", 3_000, 1));
        let flt =
            b.op_after(Filter::new("flt", Expr::field(1).rem(Expr::int(5)).lt(Expr::int(4))), src);
        let agg = b.op_after(
            WindowAggregate::new("agg", AggregateFunction::Sum(1), Duration::from_micros(200))
                .group_by(Expr::field(0)),
            flt,
        );
        let big = b.op_after(Filter::new("big", Expr::field(1).gt(Expr::int(5_000))), agg);
        let (sink, handle) = CollectingSink::new("out");
        b.op_after(sink, big);
        (b.build().expect("valid graph"), vec![handle])
    };
    let fan_out = || -> Built {
        let mut b = GraphBuilder::new();
        let src = b.source(keyed_rows("src", 3_000, 1));
        let f = b.op_after(Filter::new("f", Expr::field(1).lt(Expr::int(2_500))), src);
        let l = b.op_after(Filter::new("l", Expr::field(0).lt(Expr::int(6))), f);
        let r = b.op_after(Filter::new("r", Expr::field(1).rem(Expr::int(3)).eq(Expr::int(0))), f);
        let (left, left_handle) = CollectingSink::new("left");
        let (right, right_handle) = CollectingSink::new("right");
        b.op_after(left, l);
        b.op_after(right, r);
        (b.build().expect("valid graph"), vec![left_handle, right_handle])
    };
    let diamond = || -> Built {
        let mut b = GraphBuilder::new();
        let src = b.source(keyed_rows("src", 3_000, 1));
        let f = b.op_after(Filter::new("f", Expr::field(1).lt(Expr::int(2_500))), src);
        let l = b.op_after(Filter::new("l", Expr::field(1).rem(Expr::int(2)).eq(Expr::int(0))), f);
        let r = b.op_after(Filter::new("r", Expr::field(1).rem(Expr::int(3)).eq(Expr::int(0))), f);
        let branch = |name: &str, tag: i64| {
            MapExpr::new(name, vec![Expr::field(0), Expr::field(1), Expr::int(tag)])
        };
        let (l, r) = (b.op_after(branch("tl", 0), l), b.op_after(branch("tr", 1), r));
        let u = b.op(Union::new("u", 2));
        b.connect_port(l, u, 0).connect_port(r, u, 1);
        let (sink, handle) = CollectingSink::new("out");
        b.op_after(sink, u);
        (b.build().expect("valid graph"), vec![handle])
    };
    let join = || -> Built {
        let mut b = GraphBuilder::new();
        let left = b.source(keyed_rows("left", 400, 1));
        let right = b.source(keyed_rows("right", 300, 1));
        let l =
            b.op_after(Filter::new("l", Expr::field(1).rem(Expr::int(4)).lt(Expr::int(3))), left);
        // The window holds everything, so which pairs meet does not depend
        // on how the two sources interleave.
        let j = b.op_after2(SymmetricHashJoin::on_field("j", 0, Duration::from_secs(60)), l, right);
        let (sink, handle) = CollectingSink::new("out");
        b.op_after(sink, j);
        (b.build().expect("valid graph"), vec![handle])
    };
    /// A shape: its name, its graph, and the form its sinks' sequences are
    /// compared in.
    type Shape = (&'static str, fn() -> Built, fn(&mut Vec<(Timestamp, Tuple)>));
    let by_branch = |seen: &mut Vec<(Timestamp, Tuple)>| {
        // Stable: each branch's sequence stays as it was.
        seen.sort_by_key(|(_, tuple)| tuple.field(2).as_int().expect("a branch tag"));
    };
    let shapes: [Shape; 4] = [
        ("chain", chain, |_| {}),
        ("fan-out", fan_out, |_| {}),
        ("diamond", diamond, by_branch),
        ("join", join, |seen| seen.sort()),
    ];
    for (shape, build, normalize) in shapes {
        let run = |mode: &str, batch: usize| -> Vec<Vec<(Timestamp, Tuple)>> {
            let (graph, handles) = build();
            let topo = Topology::of(&graph);
            let ops = topo.operators();
            let plan = match mode {
                "di" => ExecutionPlan::di(&topo),
                "gts" => ExecutionPlan::gts(&topo, StrategyKind::Fifo),
                _ => ExecutionPlan::hmts(
                    Partitioning::new(vec![ops[..2].to_vec(), ops[2..].to_vec()]),
                    StrategyKind::Fifo,
                    2,
                ),
            };
            let cfg = EngineConfig {
                pace_sources: false,
                batch,
                watermark_interval: Some(Duration::from_micros(50)),
                ..EngineConfig::default()
            };
            let report = Engine::run_with_config(graph, plan, cfg).expect("engine runs");
            assert!(report.errors.is_empty(), "{shape} {mode} {batch}: {:?}", report.errors);
            handles
                .iter()
                .map(|handle| {
                    assert!(handle.is_done(), "{shape} {mode} {batch}: sink saw EOS");
                    let mut seen = collected_sequence(handle);
                    normalize(&mut seen);
                    seen
                })
                .collect()
        };
        let one_by_one = run("di", 1);
        assert!(one_by_one.iter().all(|sink| sink.len() > 100), "{shape}: every sink is fed");
        for mode in ["di", "gts", "hmts"] {
            for batch in [1, 7, 32] {
                assert!(run(mode, batch) == one_by_one, "{shape} under {mode} with batch {batch}");
            }
        }
    }
}

#[test]
fn placement_driven_hmts_matches_reference() {
    // Let Algorithm 1 derive the partitioning from hints, then execute it.
    let build = || {
        let mut b = GraphBuilder::new();
        let src = b.source(VecSource::counting("src", 10_000, 1e6));
        let cheap = b.op_after(
            Filter::new("cheap", Expr::field(0).lt(Expr::int(8_000)))
                .with_cost_hint(Duration::from_nanos(100))
                .with_selectivity_hint(0.8),
            src,
        );
        let heavy = b.op_after(
            Costed::new(
                Filter::new("heavy", Expr::field(0).rem(Expr::int(2)).eq(Expr::int(0))),
                CostMode::Virtual(Duration::from_millis(10)),
            ),
            cheap,
        );
        let (sink, handle) = CollectingSink::new("out");
        b.op_after(sink, heavy);
        (b.build().expect("valid graph"), handle)
    };
    let (graph, handle) = build();
    let topo = Topology::of(&graph);
    let inputs = CostInputs {
        source_rates: [(topo.sources()[0], 1e6)].into_iter().collect(),
        ..CostInputs::default()
    };
    let cost_graph = CostGraph::from_query_graph(&graph, &inputs);
    let groups = stall_avoiding(&cost_graph);
    // The 10 ms operator at high rate must be decoupled from the cheap one.
    let p = to_partitioning(&groups);
    assert!(p.len() >= 2, "expensive operator decoupled: {groups:?}");
    let plan = ExecutionPlan::hmts(p, StrategyKind::Fifo, 2);
    run_unpaced(graph, plan);
    let want: Vec<i64> = (0..8_000).filter(|v| v % 2 == 0).collect();
    assert_eq!(collected_values(&handle), want);
}

#[test]
fn engine_rejects_invalid_plan() {
    let (graph, _) = selection_chain(10, RATE, &[5]);
    let topo = Topology::of(&graph);
    let mut plan = ExecutionPlan::gts(&topo, StrategyKind::Fifo);
    plan.partitioning = Partitioning::new(vec![]); // covers nothing
    assert!(matches!(Engine::new(graph, plan), Err(EngineError::InvalidPlan(_))));
}

#[test]
fn engine_rejects_invalid_graph() {
    let mut b = GraphBuilder::new();
    b.source(VecSource::counting("dangling", 1, 1.0));
    let graph = b.build_unchecked();
    let topo = Topology::of(&graph);
    let plan = ExecutionPlan::gts(&topo, StrategyKind::Fifo);
    assert!(matches!(Engine::new(graph, plan), Err(EngineError::InvalidGraph(_))));
}

#[test]
fn report_collects_overheads_and_stats() {
    let (graph, _handle) = selection_chain(5_000, RATE, &[4_000, 3_000]);
    let topo = Topology::of(&graph);
    let report = run_unpaced(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo));
    // GTS queues every edge: 5000 + 4000 + 3000 data + 3 EOS messages.
    assert!(report.total_enqueued >= 12_000, "enqueued={}", report.total_enqueued);
    let f0 = report.stats.nodes.iter().find(|n| n.name == "f0").unwrap();
    assert_eq!(f0.processed, 5_000);
    let sel = f0.selectivity.unwrap();
    assert!((sel - 0.8).abs() < 0.01, "measured selectivity {sel}");
    assert!(f0.cost.is_some());
}

#[test]
fn di_avoids_queueing_entirely() {
    let (graph, handle) = selection_chain(2_000, RATE, &[1_000]);
    let topo = Topology::of(&graph);
    let report = run_unpaced(graph, ExecutionPlan::di(&topo));
    assert_eq!(report.total_enqueued, 0, "pure DI uses no queues");
    assert_eq!(handle.count(), 1_000);
}
