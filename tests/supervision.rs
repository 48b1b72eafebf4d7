//! Fault injection + supervision end to end: seeded operator panics are
//! caught, restarted with backoff, quarantined past the policy limit (with
//! a clean EOS downstream), or escalated to a typed engine error — and
//! every path leaves journal events and `supervisor_*` metrics behind.

use std::sync::Arc;
use std::time::Duration;

use hmts::failure::Verdict;
use hmts::prelude::*;

/// source -> f1 (pass-through) -> f2 (pass-through) -> sink.
fn chain(count: u64) -> (QueryGraph, SinkHandle) {
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("numbers", count, 1_000_000.0));
    let f1 = b.op_after(Filter::new("f1", Expr::bool(true)), src);
    let f2 = b.op_after(Filter::new("f2", Expr::bool(true)), f1);
    let (sink, results) = CollectingSink::new("out");
    b.op_after(sink, f2);
    (b.build().unwrap(), results)
}

fn run_chain(count: u64, cfg: EngineConfig) -> (Result<EngineReport, EngineError>, SinkHandle) {
    let (graph, results) = chain(count);
    let plan = ExecutionPlan::di_decoupled(&Topology::of(&graph));
    (Engine::run_with_config(graph, plan, cfg), results)
}

fn values(results: &SinkHandle) -> Vec<i64> {
    results.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect()
}

#[test]
fn one_shot_panic_restarts_and_output_is_byte_identical() {
    let count = 200;
    let (baseline, base_results) =
        run_chain(count, EngineConfig { pace_sources: false, ..EngineConfig::default() });
    baseline.unwrap();

    let obs = Obs::enabled();
    let plan = Arc::new(FaultPlan::seeded(42).panic_at("f1", 50));
    let cfg = EngineConfig {
        pace_sources: false,
        obs: obs.clone(),
        chaos: Some(Arc::clone(&plan)),
        supervision: Some(SupervisionConfig {
            policy: RestartPolicy {
                base_backoff: Duration::from_millis(1),
                ..RestartPolicy::default()
            },
            ..SupervisionConfig::default()
        }),
        ..EngineConfig::default()
    };
    let (report, results) = run_chain(count, cfg);
    let report = report.expect("restart recovers the query");

    assert_eq!(plan.operator_state("f1").unwrap().fired(), 1, "fault fired exactly once");
    assert_eq!(values(&results), values(&base_results), "recovered output identical");
    assert!(report.errors.is_empty(), "restart leaves no recorded error: {:?}", report.errors);

    let journal = obs.journal_snapshot();
    assert!(journal.iter().any(|r| r.event.kind() == "operator-panic"));
    assert!(journal.iter().any(|r| r.event.kind() == "operator-restart"));
    let prom = hmts::obs::export::prometheus_text(&obs.metrics_snapshot());
    assert!(prom.contains("supervisor_restarts_total 1"), "prometheus export:\n{prom}");
}

#[test]
fn repeated_panics_quarantine_with_clean_eos_downstream() {
    let obs = Obs::enabled();
    let plan = Arc::new(FaultPlan::seeded(7).panic_repeatedly("f1", 1, 1000));
    let cfg = EngineConfig {
        pace_sources: false,
        obs: obs.clone(),
        chaos: Some(plan),
        supervision: Some(SupervisionConfig {
            policy: RestartPolicy {
                max_restarts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                degrade: DegradeMode::QuarantineBranch,
                ..RestartPolicy::default()
            },
            ..SupervisionConfig::default()
        }),
        ..EngineConfig::default()
    };
    let (report, results) = run_chain(100, cfg);
    // Quarantine degrades gracefully: the run completes (no panic escapes),
    // the branch's error is recorded, and the sink saw a clean EOS.
    let report = report.expect("quarantine must not fail the query");
    assert!(
        report.errors.iter().any(|(_, e)| e.to_string().contains("quarantined")),
        "quarantine recorded as stream error: {:?}",
        report.errors
    );
    assert_eq!(results.count(), 0, "every element hit the faulty operator");
    assert!(results.is_done(), "sink received a clean EOS despite the dead branch");

    let journal = obs.journal_snapshot();
    assert!(journal.iter().any(|r| r.event.kind() == "operator-quarantine"));
    let prom = hmts::obs::export::prometheus_text(&obs.metrics_snapshot());
    assert!(prom.contains("supervisor_restarts_total 2"), "prometheus export:\n{prom}");
    assert!(prom.contains("supervisor_quarantined 1"), "prometheus export:\n{prom}");
}

#[test]
fn fail_query_mode_surfaces_typed_error() {
    let plan = Arc::new(FaultPlan::seeded(9).panic_at("f2", 1));
    let cfg = EngineConfig {
        pace_sources: false,
        chaos: Some(plan),
        supervision: Some(SupervisionConfig {
            policy: RestartPolicy {
                max_restarts: 0,
                degrade: DegradeMode::FailQuery,
                ..RestartPolicy::default()
            },
            ..SupervisionConfig::default()
        }),
        ..EngineConfig::default()
    };
    let (result, _) = run_chain(50, cfg);
    match result {
        Err(EngineError::WorkerPanicked { operator, payload }) => {
            assert_eq!(operator, "f2");
            assert!(payload.contains("chaos: injected panic"), "payload: {payload}");
        }
        Err(other) => panic!("expected WorkerPanicked, got {other}"),
        Ok(_) => panic!("expected WorkerPanicked, got a successful run"),
    }
}

#[test]
fn unsupervised_panic_is_harvested_not_propagated() {
    // No supervision configured: the panic must still not tear down the
    // process (satellite: no `.join().unwrap()` surprises) — it surfaces
    // as a typed error from the run.
    let plan = Arc::new(FaultPlan::seeded(3).panic_at("f1", 10));
    let cfg = EngineConfig { pace_sources: false, chaos: Some(plan), ..EngineConfig::default() };
    let (result, _) = run_chain(50, cfg);
    match result {
        Err(EngineError::WorkerPanicked { operator, .. }) => assert_eq!(operator, "f1"),
        Err(other) => panic!("expected WorkerPanicked, got {other}"),
        Ok(_) => panic!("expected WorkerPanicked, got a successful run"),
    }
}

#[test]
fn stall_is_detected_by_the_heartbeat_monitor() {
    let obs = Obs::enabled();
    let plan = Arc::new(FaultPlan::seeded(11).stall_at("f1", 10, Duration::from_millis(250)));
    let (graph, _results) = chain(100);
    // Pure DI: source threads drive operators directly, so the stall sits
    // inside `inject` where the heartbeat brackets it.
    let exec_plan = ExecutionPlan::di(&Topology::of(&graph));
    let cfg = EngineConfig {
        pace_sources: false,
        obs: obs.clone(),
        chaos: Some(plan),
        supervision: Some(SupervisionConfig {
            stall_timeout: Some(Duration::from_millis(50)),
            ..SupervisionConfig::default()
        }),
        ..EngineConfig::default()
    };
    Engine::run_with_config(graph, exec_plan, cfg).unwrap();

    let journal = obs.journal_snapshot();
    assert!(
        journal.iter().any(|r| r.event.kind() == "heartbeat-stall"),
        "journal kinds: {:?}",
        journal.iter().map(|r| r.event.kind()).collect::<Vec<_>>()
    );
    let prom = hmts::obs::export::prometheus_text(&obs.metrics_snapshot());
    assert!(prom.contains("supervisor_stalls_total"), "prometheus export:\n{prom}");
}

#[test]
fn supervisor_verdicts_follow_the_policy_window() {
    // Unit-level check of the escalation ladder through the public API.
    let sup = Supervisor::new(
        RestartPolicy {
            max_restarts: 2,
            window: Duration::from_secs(60),
            base_backoff: Duration::from_millis(1),
            ..RestartPolicy::default()
        },
        1234,
        Obs::disabled(),
    );
    assert!(matches!(sup.on_panic("op", "boom"), Verdict::Restart { attempt: 1, .. }));
    assert!(matches!(sup.on_panic("op", "boom"), Verdict::Restart { attempt: 2, .. }));
    assert!(matches!(sup.on_panic("op", "boom"), Verdict::Quarantine { failures: 3 }));
    assert!(sup.is_quarantined("op"));
    assert_eq!(sup.quarantined_operators(), vec!["op".to_string()]);
}

/// `chain` paced at `rate` elements per second, so a plan switch lands
/// mid-stream.
fn paced_chain(count: u64, rate: f64) -> (QueryGraph, SinkHandle) {
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("numbers", count, rate));
    let f1 = b.op_after(Filter::new("f1", Expr::bool(true)), src);
    let f2 = b.op_after(Filter::new("f2", Expr::bool(true)), f1);
    let (sink, results) = CollectingSink::new("out");
    b.op_after(sink, f2);
    (b.build().unwrap(), results)
}

/// What a run across a plan switch left behind.
struct AcrossSwitch {
    values: Vec<i64>,
    /// Times f1's fault had fired when the switch returned, and in all.
    fired_before: u64,
    fired: u64,
    restarts: u64,
}

/// Runs `paced_chain(COUNT)` under GTS with `faults` and a restart policy,
/// and switches it to two-partition HMTS once the sink holds `switch_at`
/// results.
fn run_across_switch(switch_at: u64, faults: FaultPlan) -> AcrossSwitch {
    const COUNT: u64 = 3_000;
    let (graph, results) = paced_chain(COUNT, 10_000.0);
    let topo = Topology::of(&graph);
    let ops = topo.operators();
    let hmts = ExecutionPlan::hmts(
        Partitioning::new(vec![vec![ops[0]], vec![ops[1], ops[2]]]),
        StrategyKind::Fifo,
        2,
    );
    let faults = Arc::new(faults);
    let obs = Obs::enabled();
    let cfg = EngineConfig {
        obs: obs.clone(),
        chaos: Some(Arc::clone(&faults)),
        supervision: Some(SupervisionConfig {
            policy: RestartPolicy {
                base_backoff: Duration::from_millis(1),
                ..RestartPolicy::default()
            },
            ..SupervisionConfig::default()
        }),
        ..EngineConfig::default()
    };
    let mut engine =
        Engine::with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg).unwrap();
    engine.start().unwrap();
    while results.count() < switch_at {
        std::thread::sleep(Duration::from_millis(1));
    }
    engine.switch_plan(hmts).unwrap();
    let fired = || faults.operator_state("f1").map_or(0, |f| f.fired());
    let fired_before = fired();
    let report = engine.wait();
    assert!(report.errors.is_empty(), "a restart leaves no error: {:?}", report.errors);
    assert!(report.worker_panics.is_empty(), "{:?}", report.worker_panics);
    assert!(results.is_done());
    AcrossSwitch {
        values: values(&results),
        fired_before,
        fired: fired(),
        restarts: obs.counter("supervisor_restarts").get(),
    }
}

/// Invocation counters live in the fault plan, not in the executor, so a
/// fault armed for an invocation after a GTS → HMTS switch fires there,
/// once, and the restart keeps the output sequence intact.
#[test]
fn fault_after_a_plan_switch_fires_once_and_recovers() {
    let clean = run_across_switch(100, FaultPlan::seeded(5));
    assert_eq!(clean.values, (0..3_000).collect::<Vec<_>>());

    let run = run_across_switch(100, FaultPlan::seeded(5).panic_at("f1", 2_000));
    assert_eq!(run.fired_before, 0, "the switch came before the fault");
    assert_eq!(run.fired, 1, "fired exactly once, in the new wiring");
    assert_eq!(run.restarts, 1);
    assert_eq!(run.values, clean.values, "recovered output identical");
}

/// A fault that fired before a switch has used up its budget: the new
/// wiring gets the same shared state and does not fire it again.
#[test]
fn fault_fired_before_a_plan_switch_does_not_fire_again() {
    let run = run_across_switch(500, FaultPlan::seeded(5).panic_at("f1", 50));
    assert_eq!(run.fired_before, 1, "the fault came before the switch");
    assert_eq!(run.fired, 1, "and not again after it");
    assert_eq!(run.restarts, 1);
    assert_eq!(run.values, (0..3_000).collect::<Vec<_>>(), "recovered output identical");
}
