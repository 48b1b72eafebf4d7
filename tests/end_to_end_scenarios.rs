//! Scaled-down versions of the paper's experiments run end-to-end, checking
//! the *qualitative* claims (who wins, what stalls) at test-suite speed.
//! The full-scale reproductions live in `crates/bench/src/bin/fig*.rs`.

#[path = "common/mod.rs"]
mod common;

use hmts::graph::graph::NodeKind;
use hmts::prelude::*;
use hmts::scheduler::chain::compute_chain_segments;
use hmts::sim::{simulate, SimConfig, SimPolicy, SimStrategy};
use hmts_graph::cost::CostGraph;
use hmts_workload::scenarios::{fig6_join, fig7_chain, Fig6Params, Fig7Params, JoinKind};
use std::time::Duration;

/// Runs Fig. 6's nested-loops join, charged `cost` of busy work per element,
/// DI or decoupled (OTS) with paced sources; returns the wall time of the
/// *last source emission* — the quantity whose degradation is the paper's
/// Fig. 6.
fn fig6_emission_end(p: &Fig6Params, cost: Duration, decoupled: bool) -> f64 {
    let mut s = fig6_join(JoinKind::Snj, p);
    let node = s.graph.node_mut(s.join);
    let placeholder = NodeKind::Operator(Box::new(NullSink::new("placeholder")));
    let NodeKind::Operator(snj) = std::mem::replace(&mut node.kind, placeholder) else {
        unreachable!("the join is an operator")
    };
    node.kind = NodeKind::Operator(Box::new(Costed::new(snj, CostMode::Busy(cost))));
    let topo = Topology::of(&s.graph);
    let plan = if decoupled { ExecutionPlan::ots(&topo) } else { ExecutionPlan::di(&topo) };
    let report = Engine::run(s.graph, plan).expect("engine runs");
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    report
        .source_timelines
        .iter()
        .filter_map(|t| t.last())
        .map(|(ts, _)| ts.as_secs_f64())
        .fold(0.0, f64::max)
}

#[test]
fn fig6_di_join_stalls_sources_but_decoupling_does_not() {
    // Scaled Fig. 6: 500 elements per source offered at 1000 el/s (0.5 s),
    // into a join that costs 2 ms an element — twice the gap between one
    // source's elements, however fast the engine. Running it via DI *in the
    // source threads* must drag emission far past the offered schedule,
    // while queues (OTS) keep the sources on time.
    let p = Fig6Params {
        elements: 500,
        rate: 1_000.0,
        left_range: 10_000,
        right_range: 1_000,
        window: Duration::from_secs(600),
        seed: 6,
    };
    let cost = Duration::from_millis(2);
    assert!(cost.as_secs_f64() * p.rate >= 2.0, "the join cannot keep up with one source");
    let offered = p.elements as f64 / p.rate; // 0.5 s
    let di_end = fig6_emission_end(&p, cost, false);
    let dec_end = fig6_emission_end(&p, cost, true);
    assert!(
        di_end > offered * 1.3,
        "DI emission must fall behind: {di_end:.2}s vs offered {offered:.2}s"
    );
    assert!(
        dec_end < offered * 1.25,
        "decoupled sources stay on schedule: {dec_end:.2}s vs offered {offered:.2}s"
    );
    assert!(di_end > dec_end, "decoupling helps: {di_end:.2} vs {dec_end:.2}");
}

#[test]
fn fig7_di_beats_gts_in_real_engine() {
    // Unpaced throughput race of the Fig. 7 query: DI (one queue after the
    // source, everything else inline) versus GTS (queues everywhere). The
    // queueing overhead must make GTS measurably slower.
    let p = Fig7Params { elements: 150_000, ..Fig7Params::default() };
    let run = |plan_for: fn(&Topology) -> ExecutionPlan| -> f64 {
        let s = fig7_chain(&p);
        let topo = Topology::of(&s.graph);
        let cfg =
            EngineConfig { pace_sources: false, measure_stats: false, ..EngineConfig::default() };
        let report = Engine::run_with_config(s.graph, plan_for(&topo), cfg).expect("engine runs");
        assert!(report.errors.is_empty());
        report.elapsed.as_secs_f64()
    };
    // Warm-up + median of 3 to de-noise the shared build host.
    let median = |f: fn(&Topology) -> ExecutionPlan| -> f64 {
        let mut xs: Vec<f64> = (0..3).map(|_| run(f)).collect();
        xs.sort_by(f64::total_cmp);
        xs[1]
    };
    let di = median(ExecutionPlan::di_decoupled);
    let gts = median(|t| ExecutionPlan::gts(t, StrategyKind::Fifo));
    assert!(di < gts, "DI ({di:.3}s) must beat GTS ({gts:.3}s) — queueing overhead is real");
}

/// The Fig. 9 cost graph: src -> projection -> cheap selective -> expensive
/// -> sink, with the paper's parameters.
fn fig9_cost_graph(rate: f64) -> CostGraph {
    CostGraph::from_parts(
        5,
        vec![(0, 1), (1, 2), (2, 3), (3, 4)],
        vec![0.0, 2.7e-6, 530e-9, 2.0, 1e-7],
        vec![1.0, 1.0, 9e-4, 0.3, 1.0],
        vec![Some(rate), None, None, None, None],
    )
}

/// A scaled Fig. 9 bursty schedule: phases of (count, rate).
fn bursty_schedule(phases: &[(u64, f64)]) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    for &(count, rate) in phases {
        for _ in 0..count {
            t += 1.0 / rate;
            out.push(t);
        }
    }
    out
}

/// Simulated-PIPES overheads: the paper's Fig. 9 burst-drain slope implies
/// roughly a millisecond of scheduling+queue overhead per element in their
/// 2007 Java system (see EXPERIMENTS.md); this is what separates GTS (260 s)
/// from HMTS (162 s) at paper scale.
fn pipes_sim_config() -> SimConfig {
    SimConfig {
        cores: 2,
        // Full transfer overhead charged at the consumer's dequeue, one
        // element per dispatch: 70 000 elements × 2 charged transfers
        // × 0.95 ms + 126 s of expensive work ≈ 259 s — the paper's GTS
        // completion time.
        queue_op: 0.0,
        dispatch: 0.95e-3,
        di_call: 5e-6,
        ctx_switch: 10e-6,
        batch: 1,
        ..SimConfig::default()
    }
}

#[test]
fn fig9_hmts_beats_gts_on_two_simulated_cores() {
    // 1/5 of paper scale: 14 000 elements, slow phases of 16 s each.
    let g = fig9_cost_graph(250.0);
    let schedule =
        bursty_schedule(&[(2_000, 500_000.0), (4_000, 250.0), (4_000, 500_000.0), (4_000, 250.0)]);
    let emission_end = *schedule.last().unwrap(); // ≈ 32 s
    let cfg = pipes_sim_config();

    let gts =
        simulate(&g, std::slice::from_ref(&schedule), &SimPolicy::gts(&g, SimStrategy::Fifo), &cfg);
    // The paper's HMTS setting: decoupled "twice: between the source and
    // the first filter as well as between the filters" — projection+cheap
    // in one VO, expensive selection (and sink) in the other, two threads.
    let hmts = SimPolicy::hmts_dedicated(vec![vec![1, 2], vec![3, 4]], SimStrategy::Fifo);
    let h = simulate(&g, &[schedule], &hmts, &cfg);

    assert_eq!(gts.outputs, h.outputs, "same results regardless of scheduling");
    assert!(
        h.completion_time < emission_end * 1.15,
        "HMTS tracks the source: {:.1}s vs emission {:.1}s",
        h.completion_time,
        emission_end
    );
    assert!(
        gts.completion_time > h.completion_time * 1.3,
        "GTS lags: {:.1}s vs HMTS {:.1}s",
        gts.completion_time,
        h.completion_time
    );
}

#[test]
fn fig9_chain_has_lower_memory_than_fifo() {
    let g = fig9_cost_graph(250.0);
    let schedule =
        bursty_schedule(&[(2_000, 500_000.0), (4_000, 250.0), (4_000, 500_000.0), (4_000, 250.0)]);
    let cfg = pipes_sim_config();

    let segments = compute_chain_segments(&g);
    let priorities: Vec<f64> = (0..g.node_count()).map(|v| segments.priority_of(v)).collect();
    let fifo =
        simulate(&g, std::slice::from_ref(&schedule), &SimPolicy::gts(&g, SimStrategy::Fifo), &cfg);
    let chain =
        simulate(&g, &[schedule], &SimPolicy::gts(&g, SimStrategy::Priority(priorities)), &cfg);

    // Fig. 9's claim: Chain's memory curve sits below FIFO's. Compare the
    // time-weighted average occupancy.
    let avg = |tl: &[(f64, usize)]| -> f64 {
        let mut area = 0.0;
        for w in tl.windows(2) {
            area += w[0].1 as f64 * (w[1].0 - w[0].0);
        }
        area / tl.last().map(|p| p.0).unwrap_or(1.0).max(1e-9)
    };
    let f_avg = avg(&fifo.memory_timeline);
    let c_avg = avg(&chain.memory_timeline);
    assert!(c_avg <= f_avg * 1.05, "Chain memory ({c_avg:.0}) must not exceed FIFO's ({f_avg:.0})");
    // Fig. 10's claim: FIFO produces results continuously and *earlier*.
    let first_out = |tl: &[(f64, u64)]| tl.first().map(|p| p.0).unwrap_or(f64::MAX);
    assert!(
        first_out(&fifo.output_timeline) <= first_out(&chain.output_timeline) + 1e-9,
        "FIFO emits first results no later than Chain"
    );
}

#[test]
fn fig8_ots_degrades_with_many_queries_in_sim() {
    // Many replicated 5-selection queries, each its own source: OTS pays a
    // context switch per hop across hundreds of threads; decoupled DI keeps
    // one thread per... no — one thread total. The gap must widen with the
    // query count.
    let build = |q: usize| -> (CostGraph, Vec<Vec<f64>>) {
        let per = 6usize; // 1 source + 5 ops per query
        let n = q * per;
        let mut edges = Vec::new();
        let mut cost = vec![0.0; n];
        let mut sel = vec![1.0; n];
        let mut src = vec![None; n];
        for query in 0..q {
            let base = query * per;
            src[base] = Some(1000.0);
            for i in 0..5 {
                edges.push((base + i, base + i + 1));
                cost[base + i + 1] = 2e-7;
                sel[base + i + 1] = 0.998;
            }
        }
        let schedules = (0..q).map(|_| (1..=2_000).map(|i| i as f64 * 1e-6).collect()).collect();
        (CostGraph::from_parts(n, edges, cost, sel, src), schedules)
    };
    let cfg = SimConfig::with_cores(2);
    let ratio = |q: usize| -> f64 {
        let (g, scheds) = build(q);
        let di = simulate(&g, &scheds, &SimPolicy::di_decoupled(&g), &cfg);
        let ots = simulate(&g, &scheds, &SimPolicy::ots(&g), &cfg);
        assert_eq!(di.outputs, ots.outputs);
        ots.completion_time / di.completion_time
    };
    let r1 = ratio(1);
    let r20 = ratio(20);
    assert!(r20 > r1, "OTS/DI ratio must grow with query count: {r1:.2} -> {r20:.2}");
    assert!(r20 > 1.5, "OTS clearly behind at 20 queries: {r20:.2}");
}

#[test]
fn adaptive_controller_discovers_expensive_operator() {
    use hmts::adaptive::{adapt_once, Adaptation, AdaptiveConfig};
    // Start with everything in one VO; the controller must measure the
    // expensive operator and decouple it.
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("src", 6_000, 3_000.0));
    let cheap = b.op_after(Filter::new("cheap", Expr::bool(true)), src);
    let heavy = b.op_after(
        Costed::new(
            Filter::new("heavy", Expr::bool(true)),
            CostMode::Busy(Duration::from_micros(700)),
        ),
        cheap,
    );
    let (sink, handle) = CollectingSink::new("out");
    b.op_after(sink, heavy);
    let graph = b.build().expect("valid graph");
    let topo = Topology::of(&graph);

    let mut engine = Engine::new(graph, ExecutionPlan::di_decoupled(&topo)).expect("engine builds");
    engine.start().expect("engine starts");
    let cfg = AdaptiveConfig { min_samples: 300, ..AdaptiveConfig::default() };
    let mut adaptation = Adaptation::InsufficientData;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        adaptation = adapt_once(&mut engine, &cfg).expect("adaptation runs");
        if adaptation == Adaptation::Switched || engine.is_complete() {
            break;
        }
    }
    assert_eq!(adaptation, Adaptation::Switched, "controller re-partitioned");
    assert!(engine.plan().partitioning.len() >= 2, "heavy operator decoupled");
    let report = engine.wait();
    assert!(report.errors.is_empty());
    assert_eq!(handle.count(), 6_000, "exactly-once across the adaptive switch");
}
