//! Aligned barrier checkpointing end to end: periodic checkpoints capture
//! a consistent cut (operator state + per-source ingest offsets), recovery
//! rebuilds a query from the latest complete checkpoint, corrupt files
//! fall back to the previous complete one, the supervisor restores a
//! restarted operator from checkpointed state, and barriers align under
//! GTS / OTS / HMTS without disturbing the output.

#[path = "common/mod.rs"]
mod common;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use hmts::prelude::*;
use hmts::workload::scenarios::{fig9_chain, Fig9Params};

/// A fresh per-test checkpoint directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hmts-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(due, tuple)` items pacing `values` at 1 element per `gap`.
fn paced_items(values: impl Iterator<Item = i64>, gap: Duration) -> Vec<(Timestamp, Tuple)> {
    values
        .enumerate()
        .map(|(i, v)| {
            (Timestamp::from_micros((i as u64 + 1) * gap.as_micros() as u64), Tuple::single(v))
        })
        .collect()
}

/// source -> windowed dedup (stateful) -> collecting sink.
fn dedup_chain(items: Vec<(Timestamp, Tuple)>) -> (QueryGraph, SinkHandle) {
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::new("src", items));
    let dd = b.op_after(Dedup::new("dedup", Expr::field(0), Duration::from_secs(3600)), src);
    let (sink, handle) = CollectingSink::new("out");
    b.op_after(sink, dd);
    (b.build().expect("valid graph"), handle)
}

fn sorted_values(handle: &SinkHandle) -> Vec<i64> {
    let mut vals: Vec<i64> =
        handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
    vals.sort_unstable();
    vals
}

/// The tentpole roundtrip: a paced run checkpoints mid-stream; the
/// checkpoint holds the dedup blob and the source offset of the *same
/// consistent cut*; `Engine::recover` rebuilds the query so that replaying
/// the full stream emits exactly the values past the checkpointed offset —
/// everything before it is still suppressed by the restored dedup state.
#[test]
fn recover_replays_exactly_once_from_the_checkpointed_cut() {
    let dir = temp_dir("roundtrip");
    const N: i64 = 400;
    let items = paced_items(0..N, Duration::from_micros(500)); // ~200 ms run
    let obs = Obs::enabled();
    let (graph, handle) = dedup_chain(items.clone());
    let plan = ExecutionPlan::di_decoupled(&Topology::of(&graph));
    let cfg = EngineConfig {
        obs: obs.clone(),
        checkpoint: Some(CheckpointConfig::new(&dir).with_interval(Duration::from_millis(25))),
        ..EngineConfig::default()
    };
    let report = Engine::run_with_config(graph, plan.clone(), cfg).expect("engine runs");
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    assert_eq!(sorted_values(&handle), (0..N).collect::<Vec<_>>());

    // At least one checkpoint completed and captured both halves of the cut.
    let store = CheckpointStore::new(&dir, 3);
    let ck = store.load_latest().expect("manifest readable").expect("a completed checkpoint");
    let offset = ck.source_offset("src").expect("source offset recorded");
    assert!(offset > 0 && offset <= N as u64, "offset in range: {offset}");
    assert!(ck.operator_blob("dedup").is_some(), "stateful operator snapshotted");

    // Journal + metrics satellites.
    let kinds: Vec<&str> = obs.journal_snapshot().iter().map(|r| r.event.kind()).collect();
    assert!(kinds.contains(&"checkpoint-start"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"checkpoint-complete"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"operator-snapshot"), "kinds: {kinds:?}");
    let prom = hmts::obs::export::prometheus_text(&obs.metrics_snapshot());
    assert!(prom.contains("checkpoint_completed_total"), "prometheus:\n{prom}");
    assert!(prom.contains("checkpoint_bytes_count"), "prometheus:\n{prom}");
    assert!(prom.contains("checkpoint_duration_ns_count"), "prometheus:\n{prom}");
    assert!(prom.contains("checkpoint_align_stall_ns_count"), "prometheus:\n{prom}");

    // Recover a fresh engine from the checkpoint and replay the FULL
    // stream: the restored dedup state suppresses exactly the prefix the
    // checkpoint covers, so the output is precisely `offset..N`.
    let (graph2, handle2) = dedup_chain(items);
    let (mut engine, loaded) =
        Engine::recover(graph2, plan, EngineConfig::default(), &dir).expect("recover");
    assert_eq!(loaded.expect("checkpoint loaded").id, ck.id);
    engine.start().expect("recovered engine starts");
    let report2 = engine.wait();
    assert!(report2.errors.is_empty(), "errors: {:?}", report2.errors);
    assert_eq!(
        sorted_values(&handle2),
        (offset as i64..N).collect::<Vec<_>>(),
        "recovered run emits exactly the suffix past the checkpointed cut"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos satellite: a fault that damages checkpoint file `2` on disk right
/// after it is persisted must make recovery fall back to checkpoint `1`,
/// the previous complete one.
fn damaged_checkpoint_falls_back(tag: &str, plan: FaultPlan) {
    let dir = temp_dir(tag);
    // A long paced stream keeps the engine alive while we wait for the
    // second checkpoint to land; we abort as soon as it does.
    let items = paced_items(0..200_000, Duration::from_micros(200));
    let (graph, _handle) = dedup_chain(items);
    let exec_plan = ExecutionPlan::di_decoupled(&Topology::of(&graph));
    let cfg = EngineConfig {
        chaos: Some(Arc::new(plan)),
        checkpoint: Some(CheckpointConfig::new(&dir).with_interval(Duration::from_millis(80))),
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(graph, exec_plan, cfg).expect("engine builds");
    engine.start().expect("engine starts");
    let store = CheckpointStore::new(&dir, 3);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while store.latest_id().ok().flatten().unwrap_or(0) < 2 {
        assert!(std::time::Instant::now() < deadline, "no second checkpoint within 20 s");
        std::thread::sleep(Duration::from_millis(1));
    }
    engine.abort();

    let ck = store
        .load_latest()
        .expect("manifest readable despite damaged file")
        .expect("a usable checkpoint remains");
    assert_eq!(ck.id, 1, "recovery fell back past the damaged checkpoint 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_file_falls_back_to_previous() {
    damaged_checkpoint_falls_back("corrupt", FaultPlan::seeded(21).corrupt_checkpoint(2));
}

#[test]
fn truncated_checkpoint_file_falls_back_to_previous() {
    damaged_checkpoint_falls_back("truncate", FaultPlan::seeded(22).truncate_checkpoint(2));
}

/// Supervisor integration: a panicking operator is restarted from the
/// latest completed checkpoint, not from cold state. The stream carries
/// every value twice; if the restarted dedup came back empty, the second
/// pass would re-emit the tail. With checkpoint restore the output stays
/// exactly one copy of each value.
#[test]
fn restarted_operator_resumes_from_checkpointed_state() {
    let dir = temp_dir("restart");
    const DISTINCT: i64 = 150;
    let values = (0..DISTINCT).chain(0..DISTINCT);
    let items = paced_items(values, Duration::from_millis(1)); // 300 ms run
    let (graph, handle) = dedup_chain(items);
    let exec_plan = ExecutionPlan::di_decoupled(&Topology::of(&graph));
    let fault = Arc::new(FaultPlan::seeded(5).panic_at("dedup", 225));
    let obs = Obs::enabled();
    let cfg = EngineConfig {
        obs: obs.clone(),
        chaos: Some(Arc::clone(&fault)),
        supervision: Some(SupervisionConfig {
            policy: RestartPolicy {
                base_backoff: Duration::from_millis(1),
                ..RestartPolicy::default()
            },
            ..SupervisionConfig::default()
        }),
        checkpoint: Some(CheckpointConfig::new(&dir).with_interval(Duration::from_millis(20))),
        ..EngineConfig::default()
    };
    let report = Engine::run_with_config(graph, exec_plan, cfg).expect("restart recovers");
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    assert_eq!(fault.operator_state("dedup").unwrap().fired(), 1, "fault fired once");
    assert_eq!(
        sorted_values(&handle),
        (0..DISTINCT).collect::<Vec<_>>(),
        "restored dedup state keeps suppressing the second pass"
    );
    // The state the restart rolled back to is on disk: the store holds a
    // completed checkpoint with the dedup blob.
    let ck = CheckpointStore::new(&dir, 3)
        .load_latest()
        .expect("manifest readable")
        .expect("a completed checkpoint");
    assert!(ck.operator_blob("dedup").is_some(), "stateful operator snapshotted");
    // The restart restored checkpointed state, silently dropping whatever
    // dedup processed since that checkpoint — the rollback must be
    // journaled so the regression is observable.
    let kinds: Vec<&str> = obs.journal_snapshot().iter().map(|r| r.event.kind()).collect();
    assert!(kinds.contains(&"operator-rollback"), "kinds: {kinds:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Second-generation recovery: checkpoints written by a *recovered* run
/// must record global source offsets (client sequence numbers), not
/// process-local counts. The recovered engine is fed only the suffix past
/// the checkpointed cut (exactly what a replaying client would send); its
/// source counter must resume from the checkpointed offset, so the final
/// emitted count equals the full-stream length.
#[test]
fn recovered_run_checkpoints_global_source_offsets() {
    let dir = temp_dir("global-offsets");
    const N: i64 = 400;
    let items = paced_items(0..N, Duration::from_micros(500));
    let (graph, _handle) = dedup_chain(items.clone());
    let plan = ExecutionPlan::di_decoupled(&Topology::of(&graph));
    let cfg = EngineConfig {
        checkpoint: Some(CheckpointConfig::new(&dir).with_interval(Duration::from_millis(25))),
        ..EngineConfig::default()
    };
    let report = Engine::run_with_config(graph, plan.clone(), cfg).expect("first run");
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    let store = CheckpointStore::new(&dir, 3);
    let ck = store.load_latest().expect("manifest readable").expect("a completed checkpoint");
    let offset = ck.source_offset("src").expect("source offset recorded");
    assert!(offset > 0 && offset <= N as u64, "offset in range: {offset}");

    // Recover, replaying ONLY the suffix (client replay from `offset`).
    // Pace it slowly enough for at least one post-recovery checkpoint.
    let suffix: Vec<(Timestamp, Tuple)> = items[offset as usize..].to_vec();
    let (graph2, handle2) = dedup_chain(suffix);
    let cfg2 = EngineConfig {
        checkpoint: Some(CheckpointConfig::new(&dir).with_interval(Duration::from_millis(10))),
        ..EngineConfig::default()
    };
    let (mut engine, loaded) = Engine::recover(graph2, plan, cfg2, &dir).expect("recover");
    assert_eq!(loaded.expect("checkpoint loaded").id, ck.id);
    engine.start().expect("recovered engine starts");
    let report2 = engine.wait();
    assert!(report2.errors.is_empty(), "errors: {:?}", report2.errors);
    assert_eq!(sorted_values(&handle2), (offset as i64..N).collect::<Vec<_>>());

    // The source counter resumed from the restored offset: its timeline
    // ends at the GLOBAL count N, not at the process-local suffix length.
    let timeline = report2
        .source_timelines
        .iter()
        .find(|t| t.name() == "src")
        .expect("source timeline present");
    let (_, last) = timeline.last().expect("timeline recorded");
    assert_eq!(last, N as f64, "emitted counter seeded from checkpointed offset");

    // Any checkpoint the recovered run completed recorded a global offset
    // at or past the restored cut (never a process-local restart from 0).
    let ck2 = store.load_latest().expect("manifest readable").expect("checkpoint present");
    if ck2.id > ck.id {
        let offset2 = ck2.source_offset("src").expect("source offset recorded");
        assert!(
            offset2 >= offset && offset2 <= N as u64,
            "recovered checkpoint offset global: {offset2} (restored cut {offset})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Barrier alignment under all three scheduling modes: the Fig. 9/10 chain
/// runs with 1-in-1 tracing and aggressive checkpointing under GTS, OTS,
/// and HMTS; checkpoints complete in every mode and the sink's output is
/// identical to an uninterrupted (checkpoint-free) run.
#[test]
fn barriers_align_under_gts_ots_and_hmts() {
    let params = Fig9Params { speedup: 2_000.0, ..Fig9Params::default() };

    // Checkpoint-free baseline.
    let base = fig9_chain(&params);
    let topo = Topology::of(&base.chain.graph);
    let base_plan = ExecutionPlan::gts(&topo, StrategyKind::Fifo);
    let report = Engine::run_with_config(base.chain.graph, base_plan, EngineConfig::default())
        .expect("baseline runs");
    assert!(report.errors.is_empty(), "baseline errors: {:?}", report.errors);
    let expected = base.handle.count();
    assert!(expected > 0, "the chain passes some elements");

    for mode in ["gts", "ots", "hmts"] {
        let dir = temp_dir(&format!("align-{mode}"));
        let s = fig9_chain(&params);
        let topo = Topology::of(&s.chain.graph);
        let plan = match mode {
            "gts" => ExecutionPlan::gts(&topo, StrategyKind::Fifo),
            "ots" => ExecutionPlan::ots(&topo),
            _ => ExecutionPlan::hmts(
                Partitioning::new(vec![
                    vec![s.chain.projection],
                    vec![s.chain.cheap_selection, s.chain.expensive_selection, s.chain.sink],
                ]),
                StrategyKind::Fifo,
                2,
            ),
        };
        let obs = Obs::with_config(ObsConfig {
            trace: Some(TraceConfig { sample_every: 1, seed: 0, buffer_capacity: 1 << 14 }),
            ..ObsConfig::default()
        });
        let cfg = EngineConfig {
            obs: obs.clone(),
            checkpoint: Some(CheckpointConfig::new(&dir).with_interval(Duration::from_millis(20))),
            ..EngineConfig::default()
        };
        let report = Engine::run_with_config(s.chain.graph, plan, cfg)
            .unwrap_or_else(|e| panic!("{mode} run fails: {e}"));
        assert!(report.errors.is_empty(), "{mode} errors: {:?}", report.errors);
        assert_eq!(s.handle.count(), expected, "{mode}: output identical with barriers");
        // At least one aligned checkpoint reached the store, with the
        // source's replay offset of that cut.
        let ck = CheckpointStore::new(&dir, 3)
            .load_latest()
            .unwrap_or_else(|e| panic!("{mode}: manifest unreadable: {e}"))
            .unwrap_or_else(|| panic!("{mode}: no completed checkpoint in the store"));
        assert_eq!(ck.sources.len(), 1, "{mode}: one source offset per cut: {:?}", ck.sources);
        // Its completion is a lifecycle record: the level-3 scheduler's
        // thousands of dispatch/yield records under HMTS must not evict it.
        let completed = obs
            .journal_snapshot()
            .iter()
            .any(|r| matches!(r.event, SchedEvent::CheckpointComplete { id, .. } if id == ck.id));
        assert!(completed, "{mode}: checkpoint {} completion journaled", ck.id);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
