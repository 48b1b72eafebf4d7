//! The HMTS execution engine.
//!
//! An [`Engine`] owns a decomposed query graph and executes it under an
//! [`ExecutionPlan`] — GTS, OTS, pure DI, or any hybrid in between — and can
//! **switch plans at runtime** (paper §4.2.2: "We can seamlessly switch
//! between these approaches during runtime"): sources are paused at an
//! element boundary, executors are quiesced and drained, in-flight messages
//! and per-operator end-of-stream state are carried into the freshly wired
//! structure, and processing resumes. Queue removal honors the paper's
//! §5.1.3 requirement that remaining elements are processed (they are
//! re-seeded into the merged partition).

//!
//! This file is the public surface: configuration, errors, the run report
//! and the [`Engine`] API. `wiring` turns a plan into executors, queues
//! and threads (and back); `observe` is what the engine publishes about
//! itself.

pub mod executor;
mod observe;
pub mod source_driver;
pub mod sync;
mod wiring;

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hmts_graph::cost::{CostGraph, CostInputs};
use hmts_graph::graph::{NodeId, QueryGraph};
use hmts_graph::topology::{Payload, Topology};
use hmts_graph::validate::{validate, ValidationError};
use hmts_obs::{Obs, SchedEvent};
use hmts_operators::traits::Source;
use hmts_state::{Checkpoint, CheckpointStore};
use hmts_streams::error::StreamError;
use hmts_streams::metrics::TimeSeries;
use hmts_streams::time::{SharedClock, SystemClock};

use crate::checkpoint::{spawn_coordinator, CheckpointConfig, CheckpointShared, CoordinatorCtx};
use crate::engine::executor::SlotState;
use crate::engine::source_driver::{spawn_source, SourceDriverConfig, SourceShared, SourceTrace};
use crate::engine::sync::{PauseGate, StopFlag};
use crate::failure::{FaultPlan, SupervisionConfig, Supervisor};
use crate::plan::{ExecutionPlan, PlanError};
use crate::stats::{shared_node_stats, SharedNodeStats, StatsSnapshot};

pub use observe::describe_plan;

/// Bounding policy for the engine's decoupling queues.
#[derive(Debug, Clone, Copy)]
pub struct QueueBound {
    /// Maximum queued messages per queue.
    pub capacity: usize,
    /// What happens when a queue is full. `Block` propagates backpressure
    /// to the producing partition (note: a runtime plan switch closes
    /// queues to unblock stalled producers, so an element mid-push can be
    /// dropped then — lossless switching requires unbounded queues or a
    /// drop-free workload); the `Drop*` policies shed load.
    pub policy: hmts_streams::queue::BackpressurePolicy,
}

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Messages an executor pops per scheduling decision.
    pub batch: usize,
    /// Measure per-operator cost / selectivity / arrival statistics.
    pub measure_stats: bool,
    /// Sample total queued elements into a time series at this interval
    /// (the paper's Fig. 9 "memory usage" curve). `None` disables.
    pub memory_sample_interval: Option<Duration>,
    /// Pace sources to their due times (`false` = emit flat out).
    pub pace_sources: bool,
    /// Record a source-timeline point every `n` elements (0 = auto).
    pub timeline_sample_every: u64,
    /// Bound the decoupling queues (default unbounded, as in the paper's
    /// experiments, which *measure* unbounded queue growth).
    pub queue_bound: Option<QueueBound>,
    /// Emit a watermark from every source each time its stream time
    /// advances by this much (sources emit in timestamp order, so the
    /// watermark equals the last emitted element's timestamp). Watermarks
    /// let windowed operators expire state even when one of their inputs
    /// goes quiet. `None` disables.
    pub watermark_interval: Option<Duration>,
    /// Clock override (defaults to a monotonic clock anchored at `start`).
    pub clock: Option<SharedClock>,
    /// Observability handle. [`Obs::disabled`] (the default) keeps every
    /// instrumented hot path to a single branch; [`Obs::enabled`] records
    /// scheduler events, queue/operator metrics, and sampler series.
    pub obs: Obs,
    /// Queue occupancy at which a `stall` event is journaled for that
    /// queue (once per excursion; re-arms once occupancy halves). Only
    /// observed while `obs` is enabled. `0` disables stall detection.
    pub stall_threshold: usize,
    /// Deterministic fault-injection plan (testing). Operators named by
    /// the plan get per-invocation fault checks; all others keep the
    /// single-branch disabled path. `None` disables chaos entirely.
    pub chaos: Option<Arc<FaultPlan>>,
    /// Operator supervision: catch panics, restart with backoff,
    /// quarantine or fail per [`SupervisionConfig`]. `None` means a
    /// panicking operator closes its branch and the run reports
    /// [`EngineError::WorkerPanicked`].
    pub supervision: Option<SupervisionConfig>,
    /// Aligned barrier checkpointing: periodically snapshot every stateful
    /// operator plus per-source replay offsets into
    /// [`CheckpointConfig::dir`], atomically and with last-K retention.
    /// `None` (the default) keeps every hot path checkpoint-free.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            batch: 32,
            measure_stats: true,
            memory_sample_interval: None,
            pace_sources: true,
            timeline_sample_every: 0,
            queue_bound: None,
            watermark_interval: None,
            clock: None,
            obs: Obs::disabled(),
            stall_threshold: 4096,
            chaos: None,
            supervision: None,
            checkpoint: None,
        }
    }
}

/// Errors creating or controlling an engine.
#[derive(Debug)]
pub enum EngineError {
    /// The query graph failed structural validation.
    InvalidGraph(Vec<ValidationError>),
    /// The execution plan does not fit the graph.
    InvalidPlan(Vec<PlanError>),
    /// `start` was called twice.
    AlreadyStarted,
    /// An operation that requires a running engine found none.
    NotStarted,
    /// An operator (or a worker thread) panicked and was not restarted:
    /// either supervision was off, or the policy escalated to
    /// [`DegradeMode::FailQuery`](crate::failure::DegradeMode::FailQuery).
    WorkerPanicked {
        /// The operator (or thread) that died.
        operator: String,
        /// The panic payload, rendered as text.
        payload: String,
    },
    /// No usable checkpoint could be loaded during recovery.
    CheckpointLoad {
        /// What went wrong (store/manifest/decode detail).
        detail: String,
    },
    /// A checkpointed operator state could not be restored into the graph.
    CheckpointRestore {
        /// The operator whose state failed to restore.
        operator: String,
        /// What went wrong (missing node, stateless operator, decode
        /// error, version mismatch).
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidGraph(errs) => {
                write!(f, "invalid query graph: ")?;
                for e in errs {
                    write!(f, "[{e}] ")?;
                }
                Ok(())
            }
            EngineError::InvalidPlan(errs) => {
                write!(f, "invalid execution plan: ")?;
                for e in errs {
                    write!(f, "[{e}] ")?;
                }
                Ok(())
            }
            EngineError::AlreadyStarted => write!(f, "engine already started"),
            EngineError::NotStarted => write!(f, "engine not started"),
            EngineError::WorkerPanicked { operator, payload } => {
                write!(f, "worker panicked in {operator:?}: {payload}")
            }
            EngineError::CheckpointLoad { detail } => {
                write!(f, "checkpoint recovery failed: {detail}")
            }
            EngineError::CheckpointRestore { operator, detail } => {
                write!(f, "restoring checkpointed state of {operator:?} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of a completed run.
pub struct EngineReport {
    /// Wall-clock duration from `start` until all processing completed.
    pub elapsed: Duration,
    /// Operator errors observed per domain (elements causing them were
    /// dropped; end-of-stream still propagated).
    pub errors: Vec<(String, StreamError)>,
    /// Final measured statistics per node.
    pub stats: StatsSnapshot,
    /// Sampled total queued elements over time (empty unless
    /// [`EngineConfig::memory_sample_interval`] was set).
    pub memory_series: TimeSeries,
    /// Per-source `(wall time, cumulative emitted)` timelines.
    pub source_timelines: Vec<TimeSeries>,
    /// Peak sampled queue memory (elements).
    pub peak_queue_memory: usize,
    /// Total messages that passed through decoupling queues (the queueing
    /// overhead the DI/VO concept avoids).
    pub total_enqueued: u64,
    /// Panics that terminated an operator or worker thread without a
    /// restart (`(operator-or-thread, payload)`). Non-empty makes
    /// [`Engine::run`] return [`EngineError::WorkerPanicked`].
    pub worker_panics: Vec<(String, String)>,
}

/// The HMTS engine.
pub struct Engine {
    topo: Topology,
    plan: ExecutionPlan,
    cfg: EngineConfig,
    clock: SharedClock,
    /// Every operator's resume state, by node id, while it is not wired
    /// into an executor (`None` for sources and for wired operators).
    slots: Vec<Option<SlotState>>,
    sources_payload: Vec<Option<Box<dyn Source>>>,
    stats: Vec<SharedNodeStats>,
    hint_inputs: CostInputs,
    memory_gauge: Arc<AtomicUsize>,
    memory_series: Arc<Mutex<TimeSeries>>,
    gate: Arc<PauseGate>,
    stop_engine: Arc<StopFlag>,
    source_shared: Vec<Arc<SourceShared>>,
    source_threads: Vec<JoinHandle<()>>,
    /// The queue-memory monitor and the checkpoint coordinator; both end
    /// on `stop_engine`.
    background: Vec<JoinHandle<()>>,
    wiring: Option<wiring::Wiring>,
    started_at: Option<Instant>,
    total_enqueued: u64,
    errors: Vec<(String, StreamError)>,
    supervisor: Option<Arc<Supervisor>>,
    worker_panics: Vec<(String, String)>,
    checkpoint_shared: Option<Arc<CheckpointShared>>,
}

impl Engine {
    /// Creates an engine for `graph` under `plan` with default
    /// configuration.
    pub fn new(graph: QueryGraph, plan: ExecutionPlan) -> Result<Engine, EngineError> {
        Engine::with_config(graph, plan, EngineConfig::default())
    }

    /// Creates an engine with explicit configuration.
    pub fn with_config(
        graph: QueryGraph,
        plan: ExecutionPlan,
        cfg: EngineConfig,
    ) -> Result<Engine, EngineError> {
        let graph_errors = validate(&graph);
        if !graph_errors.is_empty() {
            return Err(EngineError::InvalidGraph(graph_errors));
        }
        // Capture a-priori cost hints before the payloads are moved.
        let mut hint_inputs = CostInputs::default();
        hint_inputs.add_hints(&graph);
        let (topo, payloads) = graph.decompose();
        let plan_errors = plan.validate(&topo);
        if !plan_errors.is_empty() {
            return Err(EngineError::InvalidPlan(plan_errors));
        }
        let n = topo.node_count();
        let mut slots: Vec<Option<SlotState>> = Vec::with_capacity(n);
        let mut sources_payload: Vec<Option<Box<dyn Source>>> = Vec::with_capacity(n);
        for (i, p) in payloads.into_iter().enumerate() {
            match p {
                Payload::Source(s) => {
                    slots.push(None);
                    sources_payload.push(Some(s));
                }
                Payload::Operator(op) => {
                    slots.push(Some(SlotState::new(NodeId(i), op)));
                    sources_payload.push(None);
                }
            }
        }
        let clock = cfg.clock.clone().unwrap_or_else(|| Arc::new(SystemClock::new()));
        let stats = (0..n).map(|_| shared_node_stats()).collect();
        let source_shared =
            topo.sources().into_iter().map(|id| SourceShared::new(id, topo.name(id))).collect();
        let supervisor = cfg.supervision.as_ref().map(|s| {
            let seed = cfg.chaos.as_ref().map(|p| p.seed()).unwrap_or(0x5eed);
            Arc::new(Supervisor::new(s.policy.clone(), seed, cfg.obs.clone()))
        });
        let checkpoint_shared =
            cfg.checkpoint.as_ref().map(|_| CheckpointShared::new(cfg.obs.clone()));
        let engine = Engine {
            topo,
            plan,
            cfg,
            clock,
            slots,
            sources_payload,
            stats,
            hint_inputs,
            memory_gauge: Arc::new(AtomicUsize::new(0)),
            memory_series: Arc::new(Mutex::new(TimeSeries::new("queue_memory"))),
            gate: Arc::new(PauseGate::new()),
            stop_engine: Arc::new(StopFlag::new()),
            source_shared,
            source_threads: Vec::new(),
            background: Vec::new(),
            wiring: None,
            started_at: None,
            total_enqueued: 0,
            errors: Vec::new(),
            supervisor,
            worker_panics: Vec::new(),
            checkpoint_shared,
        };
        engine.publish_view();
        Ok(engine)
    }

    /// Rebuilds an engine from the latest complete checkpoint in `dir`.
    ///
    /// The caller supplies the same query graph and a plan (any plan — the
    /// checkpoint is plan-agnostic); every operator blob found in the
    /// checkpoint is restored into the matching stateful operator before
    /// the engine starts, and `cfg.checkpoint` defaults to checkpointing
    /// into `dir` again so the recovered run keeps making progress.
    ///
    /// Returns the engine plus the checkpoint it restored from (`None`
    /// when the directory holds no complete checkpoint yet — a cold
    /// start). The checkpoint carries the per-source ingest offsets
    /// ([`Checkpoint::source_offset`]) that network clients need to
    /// replay from for exactly-once recovery.
    pub fn recover(
        graph: QueryGraph,
        plan: ExecutionPlan,
        mut cfg: EngineConfig,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(Engine, Option<Checkpoint>), EngineError> {
        let dir = dir.into();
        if cfg.checkpoint.is_none() {
            cfg.checkpoint = Some(CheckpointConfig::new(&dir));
        }
        let retain = cfg.checkpoint.as_ref().map(|c| c.retain).unwrap_or(3);
        let store = CheckpointStore::new(&dir, retain);
        let ckpt = store
            .load_latest()
            .map_err(|e| EngineError::CheckpointLoad { detail: e.to_string() })?;
        let mut engine = Engine::with_config(graph, plan, cfg)?;
        if let Some(ck) = &ckpt {
            engine.restore_checkpoint(ck)?;
        }
        Ok((engine, ckpt))
    }

    /// Restores every operator blob in `ckpt` into the matching stateful
    /// operator. Must be called before [`Engine::start`].
    pub fn restore_checkpoint(&mut self, ckpt: &Checkpoint) -> Result<(), EngineError> {
        if self.started_at.is_some() {
            return Err(EngineError::AlreadyStarted);
        }
        for (name, blob) in &ckpt.operators {
            let fail = |detail: &str| EngineError::CheckpointRestore {
                operator: name.clone(),
                detail: detail.to_string(),
            };
            let idx = (0..self.topo.node_count())
                .find(|&i| self.topo.name(NodeId(i)) == name)
                .ok_or_else(|| fail("no such operator in graph"))?;
            let slot = self.slots[idx].as_mut().ok_or_else(|| fail("node is a source"))?;
            let st = slot.op.stateful().ok_or_else(|| fail("operator is stateless"))?;
            st.restore(blob.clone()).map_err(|e| fail(&e.to_string()))?;
        }
        // Seed each source's emitted counter from its checkpointed offset
        // so offsets acked into post-recovery checkpoints stay global
        // (consistent with client sequence numbers), not process-local.
        for (name, offset) in &ckpt.sources {
            let src = self.source_shared.iter().find(|s| s.name() == name).ok_or_else(|| {
                EngineError::CheckpointRestore {
                    operator: name.clone(),
                    detail: "no such source in graph".to_string(),
                }
            })?;
            src.resume_from(*offset);
        }
        // Seed the in-memory latest-blob cache so a supervisor restart
        // before the first post-recovery checkpoint still restores state.
        if let Some(ck) = &self.checkpoint_shared {
            ck.install_latest(ckpt.id, &ckpt.operators);
        }
        Ok(())
    }

    /// Builds, starts, and waits — the one-call convenience for experiments.
    pub fn run(graph: QueryGraph, plan: ExecutionPlan) -> Result<EngineReport, EngineError> {
        Engine::run_with_config(graph, plan, EngineConfig::default())
    }

    /// [`Engine::run`] with explicit configuration.
    pub fn run_with_config(
        graph: QueryGraph,
        plan: ExecutionPlan,
        cfg: EngineConfig,
    ) -> Result<EngineReport, EngineError> {
        let mut engine = Engine::with_config(graph, plan, cfg)?;
        engine.start()?;
        let report = engine.wait();
        if let Some((operator, payload)) = report.worker_panics.first() {
            return Err(EngineError::WorkerPanicked {
                operator: operator.clone(),
                payload: payload.clone(),
            });
        }
        Ok(report)
    }

    /// The structural view of the graph (useful for building plans).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The engine's clock (anchored at construction for the default).
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    /// The gauge of total queued data elements across all queues.
    pub fn memory_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.memory_gauge)
    }

    /// The currently active plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The engine's observability handle (disabled unless one was passed
    /// in [`EngineConfig::obs`]).
    pub fn obs(&self) -> &Obs {
        &self.cfg.obs
    }

    /// A snapshot of the measured per-node statistics.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::collect(&self.topo, &self.stats)
    }

    /// Per-source emission timelines (so far).
    pub fn source_timelines(&self) -> Vec<TimeSeries> {
        self.source_shared.iter().map(|s| s.timeline()).collect()
    }

    /// The cost model the engine currently believes: a-priori hints
    /// overridden by everything measured so far. This is the input the
    /// queue-placement algorithms and the Chain strategy consume.
    pub fn cost_graph(&self) -> CostGraph {
        let inputs = self.current_cost_inputs();
        CostGraph::from_topology(&self.topo, &inputs)
    }

    fn current_cost_inputs(&self) -> CostInputs {
        let mut inputs = self.hint_inputs.clone();
        let measured = self.stats_snapshot().to_cost_inputs(&self.topo);
        inputs.source_rates.extend(measured.source_rates);
        inputs.costs.extend(measured.costs);
        inputs.selectivities.extend(measured.selectivities);
        inputs
    }

    /// Starts execution: wires the plan, spawns source / domain / monitor
    /// threads.
    pub fn start(&mut self) -> Result<(), EngineError> {
        if self.started_at.is_some() {
            return Err(EngineError::AlreadyStarted);
        }
        self.started_at = Some(Instant::now());
        self.build_wiring(Vec::new());
        // Spawn sources last: targets are in place.
        let obs = self.cfg.obs.clone();
        for (i, id) in self.topo.sources().into_iter().enumerate() {
            let payload = self.sources_payload[id.0].take().expect("source payload present");
            let h = spawn_source(
                payload,
                Arc::clone(&self.source_shared[i]),
                Arc::clone(&self.clock),
                Arc::clone(&self.gate),
                Arc::clone(&self.stop_engine),
                self.cfg.measure_stats.then(|| Arc::clone(&self.stats[id.0])),
                SourceDriverConfig {
                    pace: self.cfg.pace_sources,
                    batch: self.cfg.batch,
                    sample_every: self.cfg.timeline_sample_every,
                    watermark_interval: self.cfg.watermark_interval,
                    trace: obs.tracer().map(|t| SourceTrace { tracer: t, source: id.0 as u32 }),
                    watermark_lag: (obs.is_enabled() && self.cfg.watermark_interval.is_some())
                        .then(|| {
                            obs.gauge(&format!("source.{}.watermark_lag_ms", self.topo.name(id)))
                        }),
                    checkpoint: self.checkpoint_shared.clone(),
                },
            );
            self.source_threads.push(h);
        }
        if let (Some(ckcfg), Some(shared)) = (&self.cfg.checkpoint, &self.checkpoint_shared) {
            self.background.push(spawn_coordinator(CoordinatorCtx {
                shared: Arc::clone(shared),
                store: CheckpointStore::new(&ckcfg.dir, ckcfg.retain),
                interval: ckcfg.interval,
                align_timeout: ckcfg.align_timeout,
                stop: Arc::clone(&self.stop_engine),
                obs,
                sources: self.source_shared.clone(),
                fault: self.cfg.chaos.as_ref().and_then(|p| p.checkpoint_fault()),
            }));
        }
        if let Some(interval) = self.cfg.memory_sample_interval {
            let gauge = Arc::clone(&self.memory_gauge);
            let series = Arc::clone(&self.memory_series);
            let clock = Arc::clone(&self.clock);
            let stop = Arc::clone(&self.stop_engine);
            let monitor =
                std::thread::Builder::new().name("hmts-monitor".into()).spawn(move || {
                    while !stop.is_stopped() {
                        std::thread::sleep(interval);
                        series.lock().record(clock.now(), gauge.load(Ordering::Relaxed) as f64);
                    }
                });
            self.background.push(monitor.expect("spawn monitor"));
        }
        Ok(())
    }

    /// Switches the running engine to a new plan: pauses sources, quiesces
    /// and drains the current wiring, re-wires, re-seeds in-flight messages,
    /// and resumes. This is the paper's runtime GTS ⇄ OTS ⇄ HMTS switch.
    pub fn switch_plan(&mut self, plan: ExecutionPlan) -> Result<(), EngineError> {
        if self.started_at.is_none() {
            return Err(EngineError::NotStarted);
        }
        let plan_errors = plan.validate(&self.topo);
        if !plan_errors.is_empty() {
            return Err(EngineError::InvalidPlan(plan_errors));
        }
        // Journal the switch before teardown so it causally precedes the
        // queue-drain records of the outgoing wiring.
        self.cfg.obs.emit_with(|| SchedEvent::ModeSwitch {
            from: describe_plan(&self.plan),
            to: describe_plan(&plan),
        });
        self.cfg.obs.counter("engine.plan_switches").inc();
        self.gate.pause_and_wait();
        let seeds = self.teardown_wiring();
        self.plan = plan;
        self.build_wiring(seeds);
        self.gate.resume();
        Ok(())
    }

    /// Whether all sources have finished and every domain completed.
    pub fn is_complete(&self) -> bool {
        self.source_shared.iter().all(|s| s.is_done())
            && self
                .wiring
                .as_ref()
                .is_some_and(|w| w.executors.iter().all(|e| e.lock().is_finished()))
    }

    /// Adjusts a pooled domain's level-3 priority at runtime.
    pub fn set_domain_priority(&mut self, domain: usize, priority: i32) {
        if domain < self.plan.domains.len() {
            self.plan.domains[domain].priority = priority;
        }
        if let Some(w) = &self.wiring {
            if let (Some(ts), Some(&pi)) = (&w.ts, w.pooled_index.get(&domain)) {
                ts.shared().set_priority(pi, priority as i64);
            }
        }
    }

    /// Blocks until all processing completes, then returns the run report.
    pub fn wait(mut self) -> EngineReport {
        for h in std::mem::take(&mut self.source_threads) {
            self.harvest_join(h);
        }
        if let Some(mut wiring) = self.wiring.take() {
            self.join_wiring(&mut wiring);
            // One last collection, so the gauges end on the final counts.
            self.cfg.obs.run_collectors();
            self.cfg.obs.clear_collectors();
        }
        let elapsed = self.started_at.map(|t| t.elapsed()).unwrap_or_default();
        self.stop_engine.stop();
        for h in self.background.drain(..) {
            let _ = h.join();
        }
        let memory_series = self.memory_series.lock().clone();
        EngineReport {
            elapsed,
            errors: std::mem::take(&mut self.errors),
            stats: self.stats_snapshot(),
            peak_queue_memory: memory_series.max().unwrap_or(0.0) as usize,
            memory_series,
            source_timelines: self.source_timelines(),
            total_enqueued: self.total_enqueued,
            worker_panics: std::mem::take(&mut self.worker_panics),
        }
    }

    /// Aborts processing: stops sources and executors without waiting for
    /// stream completion, then returns the report of what happened so far.
    pub fn abort(self) -> EngineReport {
        self.stop_engine.stop();
        if let Some(w) = &self.wiring {
            w.stop.stop();
            for n in &w.notifiers {
                n.notify();
            }
        }
        // Unpause if paused, so source threads can observe the stop.
        self.gate.resume();
        self.wait()
    }
}
