//! Fig. 7's throughput race, DI against GTS on the real engine, in a test
//! binary of its own: it compares two wall times, and cargo runs test
//! binaries one after another, so no other test of the suite spins beside
//! it (the paced sources of `end_to_end_scenarios`' Fig. 6 and adaptive
//! tests did, on the same CPUs, and now and then pushed the two times
//! within noise of each other).

use hmts::prelude::*;
use hmts_workload::scenarios::{fig7_chain, Fig7Params};

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
    // The two alternate, so a stretch of load on the host falls on both,
    // and each side's fastest of five is what it costs when nothing else
    // runs.
    let (mut di, mut gts) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        di = di.min(run(ExecutionPlan::di_decoupled));
        gts = gts.min(run(|t| ExecutionPlan::gts(t, StrategyKind::Fifo)));
    }
    assert!(di < gts, "DI ({di:.3}s) must beat GTS ({gts:.3}s) — queueing overhead is real");
}
