//! `hmts-obs`: observability substrate for the HMTS runtime.
//!
//! Four pieces, all reachable through the cheap [`Obs`] facade:
//!
//! * a [`MetricsRegistry`] of named counters, gauges, and log-bucketed
//!   latency histograms with lock-free typed handles,
//! * a bounded [`EventJournal`] recording structured scheduler decisions
//!   ([`SchedEvent`]) with per-thread attribution and relative timestamps,
//! * a background [`Sampler`] snapshotting the registry into a time
//!   series, and exporters for Prometheus text exposition, JSON event
//!   dumps, and CSV series ([`export`]),
//! * the engine's current [`PlanView`] — the typed description of the
//!   running plan that `/snapshot` renders and the capacity analyzer reads.
//!
//! [`Obs`] is a nullable `Arc`: a disabled handle is a `None` and every
//! operation on it short-circuits on one branch, so instrumented hot
//! paths cost nothing measurable when observability is off (see the
//! `disabled_path_is_near_zero_cost` test).

pub mod admin;
pub mod alert;
pub mod capacity;
pub mod export;
pub mod journal;
pub mod json;
pub mod registry;
pub mod sampler;
pub mod trace;

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

pub use admin::AdminServer;
pub use alert::{AlertEngine, AlertRule};
pub use capacity::{CapacityConfig, CapacityReport, QueueSpec, TopologySpec};
pub use journal::{EventJournal, EventRecord, Field, SchedEvent};
pub use registry::{Counter, Gauge, Histogram, Metric, MetricValue, MetricsRegistry};
pub use sampler::{SamplePoint, SampleStore, Sampler};
pub use trace::{trace_id, HopKind, SpanEvent, TraceConfig, Tracer, NO_PARTITION};

/// What the engine publishes about the plan it is running: the query
/// shape with the plan's virtual operators and queues, and the plan's
/// scheduling domains. Replaced as a whole on every (re-)wiring, so readers
/// follow mode switches, queue insertion/removal and re-partitioning by
/// themselves. It says what exists; the registry only holds values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanView {
    /// Nodes, sources, edges, virtual-operator groups and queues.
    pub topology: TopologySpec,
    /// One-line plan shape, e.g. `"3 domains (3 pooled) x2 workers"`.
    pub summary: String,
    /// The scheduling domains in plan order.
    pub domains: Vec<DomainView>,
}

/// One scheduling domain of a [`PlanView`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DomainView {
    /// Domain name (also its thread's name suffix).
    pub name: String,
    /// Level-2 strategy, e.g. `"Fifo"`.
    pub strategy: String,
    /// How the domain gets a thread, e.g. `"Pooled"`.
    pub execution: String,
    /// Indices of the virtual operators (the topology's `partitions`) it runs.
    pub partitions: Vec<usize>,
}

/// Configuration for an enabled [`Obs`] handle.
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// Capacity of each of the event journal's two rings — level-3
    /// per-slice records and lifecycle events (0 uses the default of 4096).
    pub journal_capacity: usize,
    /// Per-tuple trace sampling; `None` (the default) disables tracing
    /// entirely, keeping the engine's per-element cost at one `Option`
    /// branch.
    pub trace: Option<TraceConfig>,
}

impl ObsConfig {
    fn journal_capacity(&self) -> usize {
        if self.journal_capacity == 0 {
            4096
        } else {
            self.journal_capacity
        }
    }
}

/// Shared state behind an enabled [`Obs`] handle.
#[derive(Debug)]
pub struct ObsCore {
    registry: Arc<MetricsRegistry>,
    journal: EventJournal,
    tracer: Option<Arc<Tracer>>,
    samples: Arc<SampleStore>,
    plan: Mutex<Option<Arc<PlanView>>>,
    start: Instant,
}

impl ObsCore {
    /// Refreshes the self-observability gauges (journal and span-buffer
    /// saturation) so ring overflow is visible in every snapshot instead
    /// of silent. Done on snapshot/sample rather than via a registered
    /// collector because the engine clears collectors on teardown, and
    /// these gauges must survive that.
    fn refresh_runtime_metrics(&self) {
        self.registry.gauge("journal.dropped").set(self.journal.dropped() as i64);
        let lifecycle_dropped = self.journal.lifecycle_dropped() as i64;
        self.registry.gauge("journal.lifecycle_dropped").set(lifecycle_dropped);
        self.registry.gauge("journal.high_water").set(self.journal.high_water() as i64);
        self.registry.gauge("journal.capacity").set(self.journal.capacity() as i64);
        if let Some(t) = &self.tracer {
            self.registry.gauge("trace.spans_recorded").set(t.recorded() as i64);
            self.registry.gauge("trace.spans_dropped").set(t.dropped() as i64);
            self.registry.gauge("trace.buffer_high_water").set(t.high_water() as i64);
        }
    }
}

/// Cloneable observability handle: either disabled (free) or an `Arc` to
/// shared registry + journal + sample state.
#[derive(Clone, Debug, Default)]
pub struct Obs(Option<Arc<ObsCore>>);

impl Obs {
    /// A handle on which every operation is a no-op.
    pub fn disabled() -> Obs {
        Obs(None)
    }

    /// An active handle with default configuration.
    pub fn enabled() -> Obs {
        Obs::with_config(ObsConfig::default())
    }

    /// An active handle with the given configuration.
    pub fn with_config(cfg: ObsConfig) -> Obs {
        // One epoch shared by the journal, the tracer, and the sampler, so
        // scheduler events and tuple spans merge onto a single timeline.
        let start = Instant::now();
        Obs(Some(Arc::new(ObsCore {
            registry: Arc::new(MetricsRegistry::new()),
            journal: EventJournal::with_epoch(cfg.journal_capacity(), start),
            tracer: cfg.trace.as_ref().map(|t| Arc::new(Tracer::new(t.clone(), start))),
            samples: Arc::new(SampleStore::default()),
            plan: Mutex::new(None),
            start,
        })))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The per-tuple span recorder, when this handle was configured with
    /// tracing. Engine components hold the returned `Arc` directly so the
    /// per-element cost is one `Option` check, not a facade call.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.0.as_ref().and_then(|core| core.tracer.clone())
    }

    /// Retained tuple trace spans, oldest first (empty when disabled or
    /// tracing is off).
    pub fn trace_snapshot(&self) -> Vec<SpanEvent> {
        match self.tracer() {
            Some(t) => t.snapshot(),
            None => Vec::new(),
        }
    }

    /// Appends a scheduler event to the journal. The closure is only
    /// evaluated when enabled, so callers can build event payloads
    /// (strings, plan shapes) without cost on the disabled path.
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce() -> SchedEvent) {
        if let Some(core) = &self.0 {
            core.journal.push(make());
        }
    }

    /// Appends an already-built scheduler event.
    #[inline]
    pub fn emit(&self, event: SchedEvent) {
        if let Some(core) = &self.0 {
            core.journal.push(event);
        }
    }

    /// Replaces the published plan view. Like [`emit_with`](Obs::emit_with),
    /// the closure only runs when enabled.
    pub fn set_plan_view(&self, make: impl FnOnce() -> PlanView) {
        if let Some(core) = &self.0 {
            *core.plan.lock() = Some(Arc::new(make()));
        }
    }

    /// The plan view the engine published last (`None` when disabled or
    /// before any engine was built on this handle).
    pub fn plan_view(&self) -> Option<Arc<PlanView>> {
        self.0.as_ref().and_then(|core| core.plan.lock().clone())
    }

    /// Counter handle for `name`; detached (unregistered) when disabled.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.0 {
            Some(core) => core.registry.counter(name),
            None => Counter::detached(),
        }
    }

    /// Gauge handle for `name`; detached when disabled.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.0 {
            Some(core) => core.registry.gauge(name),
            None => Gauge::detached(),
        }
    }

    /// Histogram handle for `name`; detached when disabled.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.0 {
            Some(core) => core.registry.histogram(name),
            None => Histogram::detached(),
        }
    }

    /// Histogram handle only when enabled — lets hot paths keep an
    /// `Option<Histogram>` and skip `Instant::now()` entirely when off.
    pub fn maybe_histogram(&self, name: &str) -> Option<Histogram> {
        self.0.as_ref().map(|core| core.registry.histogram(name))
    }

    /// Registers a collector run before every sample (no-op when
    /// disabled).
    pub fn add_collector(&self, f: impl Fn() + Send + Sync + 'static) {
        if let Some(core) = &self.0 {
            core.samples.add_collector(f);
        }
    }

    /// Registers a collector that [`clear_collectors`](Obs::clear_collectors)
    /// leaves intact and that runs after the regular ones — for derived
    /// metrics (the capacity analyzer, alert rules) that outlive any one
    /// engine wiring (no-op when disabled).
    pub fn add_pinned_collector(&self, f: impl Fn() + Send + Sync + 'static) {
        if let Some(core) = &self.0 {
            core.samples.add_pinned_collector(f);
        }
    }

    /// Drops all regular (non-pinned) collectors.
    pub fn clear_collectors(&self) {
        if let Some(core) = &self.0 {
            core.samples.clear_collectors();
        }
    }

    /// Runs registered collectors to refresh derived gauges, without
    /// recording a sample point (no-op when disabled).
    pub fn run_collectors(&self) {
        if let Some(core) = &self.0 {
            core.samples.run_collectors();
        }
    }

    /// Takes one sample immediately (collectors + registry snapshot).
    pub fn sample_now(&self) {
        if let Some(core) = &self.0 {
            core.refresh_runtime_metrics();
            core.samples.sample_now(&core.registry, core.start.elapsed());
        }
    }

    /// Starts a background sampler; returns `None` when disabled.
    pub fn start_sampler(&self, interval: Duration) -> Option<Sampler> {
        self.0.as_ref().map(|core| {
            Sampler::start(
                Arc::clone(&core.registry),
                Arc::clone(&core.samples),
                core.start,
                interval,
            )
        })
    }

    /// Point-in-time values of all registered metrics (empty if disabled).
    /// Journal/span-buffer saturation gauges are refreshed first, so every
    /// snapshot reports ring drops and high-water marks.
    pub fn metrics_snapshot(&self) -> Vec<(String, MetricValue)> {
        match &self.0 {
            Some(core) => {
                core.refresh_runtime_metrics();
                core.registry.snapshot()
            }
            None => Vec::new(),
        }
    }

    /// Retained journal records, oldest first (empty if disabled).
    pub fn journal_snapshot(&self) -> Vec<EventRecord> {
        match &self.0 {
            Some(core) => core.journal.snapshot(),
            None => Vec::new(),
        }
    }

    /// Accumulated sampler series (empty if disabled).
    pub fn sample_series(&self) -> Vec<SamplePoint> {
        match &self.0 {
            Some(core) => core.samples.series(),
            None => Vec::new(),
        }
    }

    /// Elapsed time since this handle was enabled (zero if disabled).
    pub fn elapsed(&self) -> Duration {
        match &self.0 {
            Some(core) => core.start.elapsed(),
            None => Duration::ZERO,
        }
    }

    /// Writes `metrics.prom`, `events.json`, and `series.csv` under `dir`.
    /// Returns `Ok(None)` when disabled.
    pub fn write_snapshot(&self, dir: &Path) -> std::io::Result<Option<export::SnapshotPaths>> {
        match &self.0 {
            Some(_) => export::write_snapshot_files(
                dir,
                &self.metrics_snapshot(),
                &self.journal_snapshot(),
                &self.sample_series(),
            )
            .map(Some),
            None => Ok(None),
        }
    }

    /// Writes `trace.json` (Chrome/Perfetto timeline merging tuple spans
    /// with the scheduler journal) and `latency_breakdown.csv` under
    /// `dir`. Returns `Ok(None)` when disabled or tracing is off.
    pub fn write_trace(&self, dir: &Path) -> std::io::Result<Option<export::TracePaths>> {
        match self.tracer() {
            Some(t) => {
                export::write_trace_files(dir, &t.snapshot(), &self.journal_snapshot()).map(Some)
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.emit(SchedEvent::QueueInsert { queue: "a->b".into() });
        obs.emit_with(|| unreachable!("closure must not run when disabled"));
        obs.set_plan_view(|| unreachable!("closure must not run when disabled"));
        assert!(obs.plan_view().is_none());
        obs.counter("c").inc();
        obs.gauge("g").set(3);
        obs.histogram("h").record(5);
        assert!(obs.maybe_histogram("h").is_none());
        obs.sample_now();
        assert!(obs.metrics_snapshot().is_empty());
        assert!(obs.journal_snapshot().is_empty());
        assert!(obs.sample_series().is_empty());
        assert!(obs.start_sampler(Duration::from_millis(1)).is_none());
        assert!(obs.tracer().is_none());
        assert!(obs.trace_snapshot().is_empty());
        assert!(obs.write_trace(Path::new("/nonexistent")).unwrap().is_none());
    }

    #[test]
    fn enabled_handle_records_and_exports() {
        let obs = Obs::enabled();
        obs.counter("elements").add(12);
        obs.gauge("depth").set(4);
        obs.histogram("lat").record(100);
        obs.emit(SchedEvent::ModeSwitch { from: "gts".into(), to: "hmts".into() });
        obs.sample_now();

        // The three explicit metrics plus the self-observability gauges
        // (journal capacity / dropped / lifecycle-dropped / high-water).
        let metrics = obs.metrics_snapshot();
        assert_eq!(metrics.len(), 7);
        let gauge = |name: &str| {
            metrics
                .iter()
                .find_map(|(n, v)| match v {
                    MetricValue::Gauge(g) if n == name => Some(*g),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("gauge {name} registered"))
        };
        assert_eq!(gauge("journal.capacity"), 4096);
        assert_eq!(gauge("journal.dropped"), 0);
        assert_eq!(gauge("journal.lifecycle_dropped"), 0);
        assert_eq!(gauge("journal.high_water"), 1);
        let journal = obs.journal_snapshot();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal[0].event.kind(), "mode-switch");
        assert_eq!(obs.sample_series().len(), 1);

        let dir = std::env::temp_dir().join(format!(
            "hmts-obs-test-{}-{}",
            std::process::id(),
            obs.elapsed().as_nanos()
        ));
        let paths = obs.write_snapshot(&dir).unwrap().unwrap();
        let prom = std::fs::read_to_string(&paths.metrics_prom).unwrap();
        assert!(prom.contains("elements_total 12"));
        let json = std::fs::read_to_string(&paths.events_json).unwrap();
        assert!(json.contains("mode-switch"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tracing_is_opt_in_and_saturation_is_metered() {
        // Default config: no tracer.
        assert!(Obs::enabled().tracer().is_none());

        let obs = Obs::with_config(ObsConfig {
            trace: Some(TraceConfig { sample_every: 2, seed: 0, buffer_capacity: 4 }),
            ..ObsConfig::default()
        });
        let tracer = obs.tracer().expect("tracing configured");
        assert!(tracer.sampled(0) && !tracer.sampled(1));
        for seq in 0..6u64 {
            tracer.record_site(trace::trace_id(0, seq), HopKind::QueueEnter, "q", 0);
        }
        assert_eq!(obs.trace_snapshot().len(), 4);
        let metrics = obs.metrics_snapshot();
        let gauge = |name: &str| {
            metrics.iter().find_map(|(n, v)| match v {
                MetricValue::Gauge(g) if n == name => Some(*g),
                _ => None,
            })
        };
        assert_eq!(gauge("trace.spans_recorded"), Some(6));
        assert_eq!(gauge("trace.spans_dropped"), Some(2));
        assert_eq!(gauge("trace.buffer_high_water"), Some(4));

        let dir = std::env::temp_dir().join(format!(
            "hmts-obs-trace-test-{}-{}",
            std::process::id(),
            obs.elapsed().as_nanos()
        ));
        let paths = obs.write_trace(&dir).unwrap().expect("tracing on");
        let json = std::fs::read_to_string(&paths.trace_json).unwrap();
        crate::json::parse(&json).expect("valid trace JSON");
        assert!(paths.breakdown_csv.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.counter("n").inc();
        assert_eq!(obs.counter("n").get(), 1);
    }

    /// Acceptance guard: the disabled observability path must stay under
    /// 50 ns per instrumented operation. The disabled ops here are a
    /// `None` branch check (and an atomic add for detached handles), which
    /// is well under 10 ns on any modern core; the 50 ns bound leaves slack
    /// for CI-grade machines.
    #[test]
    fn disabled_path_is_near_zero_cost() {
        let obs = Obs::disabled();
        let counter = obs.counter("hot");
        let iters: u32 = 2_000_000;
        let start = Instant::now();
        for i in 0..iters {
            // What an instrumented operator invocation does when obs is off:
            // one emit guard plus one counter update on a detached handle.
            obs.emit_with(|| SchedEvent::Dispatch { domain: i as usize, worker: 0, priority: 0 });
            counter.inc();
        }
        let per_op = start.elapsed().as_nanos() / iters as u128;
        assert!(per_op < 50, "disabled obs path cost {per_op} ns/op, budget 50 ns");
    }
}
