//! What the engine publishes about itself: the sampler collectors of a
//! wiring (queue, node and engine-wide metrics), the query shape the
//! capacity analyzer reads, and the plan description journaled on a switch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hmts_graph::graph::NodeId;
use hmts_obs::SchedEvent;
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
                    let s = stats.lock();
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

    /// Publishes the query shape onto a [`hmts_obs::StatusBoard`] in the
    /// encoding the capacity analyzer
    /// ([`hmts_obs::capacity::TopologySpec`]) parses: `topology.edges`
    /// (`a->b;b->c`), `topology.sources` (`a,b`), and
    /// `topology.partitions` (`b,c|d,e` — the current plan's virtual
    /// operators). Call it after construction and again after any plan
    /// switch so `/analyze` tracks the live partitioning. Node names
    /// containing the separators (`;`, `,`, `|`, `->`) would corrupt the
    /// encoding and are the host's responsibility to avoid.
    pub fn publish_topology(&self, status: &hmts_obs::StatusBoard) {
        let edges: Vec<String> = self
            .topo
            .edges()
            .iter()
            .map(|e| format!("{}->{}", self.topo.name(e.from), self.topo.name(e.to)))
            .collect();
        let sources: Vec<&str> = self.topo.sources().iter().map(|&s| self.topo.name(s)).collect();
        let partitions: Vec<String> = self
            .plan
            .partitioning
            .groups()
            .iter()
            .map(|g| g.iter().map(|&v| self.topo.name(v)).collect::<Vec<_>>().join(","))
            .collect();
        status.set("topology.edges", edges.join(";"));
        status.set("topology.sources", sources.join(","));
        status.set("topology.partitions", partitions.join("|"));
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
