//! Micro-benchmark: the cost of a runtime plan switch.
//!
//! The paper (§4.2.2, §5.1.3) claims scheduling modes and queues can be
//! changed at runtime "by interrupting the processing of the graph
//! shortly". This bench quantifies "shortly" for this implementation: a
//! full GTS ⇄ OTS switch — pause sources, quiesce executors, drain the
//! queues, re-wire, carry what they held over, resume — on a live graph
//! under load.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hmts::prelude::*;

fn running_engine(ops: usize) -> Engine {
    let mut b = GraphBuilder::new();
    // A paced source slow enough to keep the engine alive for the whole
    // bench (criterion stops long before the stream ends). It generates
    // each element when it is due: criterion builds an engine per sample,
    // and a stream held in memory would be built (and dropped) each time.
    let arrivals = ArrivalProcess::constant(50_000.0);
    let src = b.source(SyntheticSource::new(
        "src",
        arrivals,
        TupleGen::uniform_int(0, 1000),
        50_000_000,
        1,
    ));
    let mut prev = src;
    for i in 0..ops {
        prev = b.op_after(Filter::new(format!("f{i}"), Expr::bool(true)), prev);
    }
    let (sink, _h) = CollectingSink::new("out");
    b.op_after(sink, prev);
    let graph = b.build().expect("valid graph");
    let topo = Topology::of(&graph);
    let mut engine =
        Engine::new(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo)).expect("engine builds");
    engine.start().expect("engine starts");
    engine
}

fn switch_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_switch");
    // 30+ operators are covered by tests/mode_switching.rs::
    // many_operator_rapid_switching — at ~60 ms per OTS round trip (thread
    // join/spawn dominated) they blow criterion's sampling budget.
    for ops in [3usize, 10] {
        g.bench_function(format!("gts_ots_roundtrip_{ops}_ops"), |b| {
            let mut engine = running_engine(ops);
            let topo_ots = ExecutionPlan::ots(engine.topology());
            let topo_gts = ExecutionPlan::gts(engine.topology(), StrategyKind::Fifo);
            let mut flip = false;
            b.iter(|| {
                let plan = if flip { topo_gts.clone() } else { topo_ots.clone() };
                flip = !flip;
                engine.switch_plan(black_box(plan)).expect("switch");
            });
            engine.abort();
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(4))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = switch_latency
}
criterion_main!(benches);
