//! What the engine publishes about itself, all through the `Obs` handle it
//! was configured with: the sampler collectors of a wiring (queue, node and
//! engine-wide metrics), the typed [`PlanView`] of the plan it runs (what
//! `/snapshot` renders and the capacity analyzer reads), and the plan
//! description journaled on a switch. Hosts publish nothing themselves.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hmts_graph::graph::NodeId;
use hmts_obs::{DomainView, PlanView, SchedEvent, TopologySpec};
use hmts_streams::queue::StreamQueue;

use super::Engine;
use crate::plan::{DomainExecution, ExecutionPlan};

impl Engine {
    /// Registers sampler collectors for the freshly built wiring: per-queue
    /// occupancy/high-water gauges and enqueue/dequeue/drop counters (the
    /// counters advance by delta so they accumulate across re-wirings under
    /// the same metric names), per-node `c(v)` / `d(v)` / selectivity
    /// gauges, and the engine-wide queued-element gauge. Collectors are
    /// dropped again in `teardown_wiring`.
    pub(super) fn register_collectors(&self, queues: &[Arc<StreamQueue>]) {
        let obs = &self.cfg.obs;
        if !obs.is_enabled() {
            return;
        }
        obs.gauge("engine.domains").set(self.plan.domains.len() as i64);
        obs.gauge("engine.queues").set(queues.len() as i64);
        {
            let gauge = obs.gauge("engine.queued_elements");
            let mem = Arc::clone(&self.memory_gauge);
            obs.add_collector(move || gauge.set(mem.load(Ordering::Relaxed) as i64));
        }
        for q in queues {
            let base = format!("queue.{}", q.name());
            let occupancy = obs.gauge(&format!("{base}.occupancy"));
            let high_water = obs.gauge(&format!("{base}.high_water"));
            let enqueued = obs.counter(&format!("{base}.enqueued"));
            let dequeued = obs.counter(&format!("{base}.dequeued"));
            let dropped = obs.counter(&format!("{base}.dropped"));
            let last = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
            let stalled = AtomicBool::new(false);
            let threshold = self.stall_threshold_effective();
            let q = Arc::clone(q);
            let obs2 = obs.clone();
            obs.add_collector(move || {
                let len = q.len();
                occupancy.set(len as i64);
                let m = q.metrics();
                high_water.set_max(m.high_water() as i64);
                let (e, d, r) = (m.enqueued(), m.dequeued(), m.dropped());
                enqueued.add(e - last.0.swap(e, Ordering::Relaxed));
                dequeued.add(d - last.1.swap(d, Ordering::Relaxed));
                dropped.add(r - last.2.swap(r, Ordering::Relaxed));
                if threshold > 0 && len >= threshold {
                    if !stalled.swap(true, Ordering::Relaxed) {
                        obs2.emit_with(|| SchedEvent::StallDetected {
                            queue: q.name().to_string(),
                            occupancy: len,
                        });
                    }
                } else if len < threshold / 2 {
                    stalled.store(false, Ordering::Relaxed);
                }
            });
        }
        if self.cfg.measure_stats {
            // Every node reports its rate; for a source — which only emits,
            // the driver feeding its arrival estimator at emission time —
            // that is the live ingest rate the capacity analyzer scales
            // everything from. Operators add cost, selectivity and count.
            let nodes: Vec<_> = (0..self.topo.node_count())
                .map(|i| {
                    let name = self.topo.name(NodeId(i));
                    let source = self.topo.is_source(NodeId(i));
                    let kind = if source { "source" } else { "node" };
                    let gauge = |metric: &str| obs.gauge(&format!("{kind}.{name}.{metric}"));
                    let operator = (!source)
                        .then(|| (gauge("cost_ns"), gauge("selectivity_ppm"), gauge("processed")));
                    (Arc::clone(&self.stats[i]), gauge("rate"), operator)
                })
                .collect();
            obs.add_collector(move || {
                for (stats, rate, operator) in &nodes {
                    let s = stats.snapshot();
                    if let Some(r) = s.arrivals.rate() {
                        rate.set(r as i64);
                    }
                    let Some((cost, sel, processed)) = operator else {
                        continue;
                    };
                    if let Some(c) = s.cost.cost() {
                        cost.set(c.as_nanos().min(i64::MAX as u128) as i64);
                    }
                    if let Some(x) = s.selectivity.selectivity() {
                        sel.set((x * 1e6) as i64);
                    }
                    processed.set(s.processed as i64);
                }
            });
        }
    }

    /// Replaces the [`PlanView`] on the `Obs` handle with the current
    /// plan's: query shape, virtual operators and scheduling domains by
    /// name. Called at construction (so `/analyze` answers before `start`)
    /// and from `build_wiring` — the one function `start`, `switch_plan`,
    /// `insert_queue`, `remove_queue` and `adapt_once` all go through — so
    /// whatever reads the view follows the plan with no host call. Builds
    /// nothing when observability is off.
    pub(super) fn publish_view(&self) {
        self.cfg.obs.set_plan_view(|| {
            let name = |v: &NodeId| self.topo.name(*v).to_string();
            let edges = self.topo.edges().iter().map(|e| (name(&e.from), name(&e.to)));
            let groups = self.plan.partitioning.groups().iter();
            let domains = self.plan.domains.iter().map(|d| DomainView {
                name: d.name.clone(),
                strategy: format!("{:?}", d.strategy),
                execution: format!("{:?}", d.execution),
                partitions: d.partitions.clone(),
            });
            PlanView {
                topology: TopologySpec {
                    edges: edges.collect(),
                    sources: self.topo.sources().iter().map(name).collect(),
                    partitions: groups.map(|g| g.iter().map(name).collect()).collect(),
                },
                summary: describe_plan(&self.plan),
                domains: domains.collect(),
            }
        });
    }

    fn stall_threshold_effective(&self) -> usize {
        // A bounded queue can never reach a threshold beyond its capacity;
        // clamp so stalls are still observable near saturation.
        match self.cfg.queue_bound {
            Some(b) => self.cfg.stall_threshold.min(b.capacity),
            None => self.cfg.stall_threshold,
        }
    }
}

/// A compact human-readable shape of an execution plan, used in
/// `mode-switch` journal events: domain count, execution-kind breakdown,
/// and worker count, e.g. `"3 domains (3 pooled) x2 workers"`.
pub fn describe_plan(plan: &ExecutionPlan) -> String {
    let count = |kind| plan.domains.iter().filter(|d| d.execution == kind).count();
    let pooled = count(DomainExecution::Pooled);
    let kinds: Vec<String> = [
        (count(DomainExecution::Dedicated), "dedicated"),
        (pooled, "pooled"),
        (count(DomainExecution::SourceDriven), "source-driven"),
    ]
    .into_iter()
    .filter(|(n, _)| *n > 0)
    .map(|(n, kind)| format!("{n} {kind}"))
    .collect();
    let mut out = format!("{} domains ({})", plan.domains.len(), kinds.join(", "));
    if pooled > 0 {
        out.push_str(&format!(" x{} workers", plan.workers));
    }
    out
}
