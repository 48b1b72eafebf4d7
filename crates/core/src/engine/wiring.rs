//! Wiring: turning the current plan into executors, queues and threads, and
//! taking that structure apart again — for a runtime plan switch (the
//! operators and in-flight messages are carried into the next wiring) or at
//! the end of the run.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use hmts_graph::graph::{Edge, NodeId};
use hmts_graph::partition::Partitioning;
use hmts_obs::SchedEvent;
use hmts_streams::element::Message;
use hmts_streams::queue::{BackpressurePolicy, StreamQueue};

use super::executor::{
    Attach, Budget, DomainExecutor, ExecConfig, InputQueue, RunOutcome, SlotInit, Target, Waker,
};
use super::source_driver::SourceTarget;
use super::sync::{Notifier, StopFlag};
use super::{Engine, EngineError};
use crate::failure::{panic_message, StallWatch};
use crate::plan::{DomainExecution, ExecutionPlan};
use crate::scheduler::thread_scheduler::{ThreadScheduler, TsConfig, TsShared};

/// The executors, queues and threads one plan is currently running on.
pub(super) struct Wiring {
    pub(super) executors: Vec<Arc<Mutex<DomainExecutor>>>,
    pub(super) notifiers: Vec<Arc<Notifier>>,
    dedicated: Vec<JoinHandle<()>>,
    pub(super) ts: Option<ThreadScheduler>,
    pub(super) stop: Arc<StopFlag>,
    queues: Vec<Arc<StreamQueue>>,
    /// Heartbeat stall monitor (`StallWatch::new` says when there is one).
    stall_monitor: Option<JoinHandle<()>>,
    /// Domain index → index among the pooled domains (the level-3
    /// scheduler's numbering).
    pub(super) pooled_index: HashMap<usize, usize>,
}

impl Engine {
    /// Wires the current plan into executors, queues, and threads, seeding
    /// in-flight messages carried over from the previous wiring.
    pub(super) fn build_wiring(&mut self, seeds: Vec<(NodeId, usize, Message)>) {
        let stop = Arc::new(StopFlag::new());
        let cost_graph = self.cost_graph();
        let mut stall_watch =
            StallWatch::new(self.supervisor.as_ref(), self.cfg.supervision.as_ref(), &self.cfg.obs);

        // node -> domain.
        let mut node_domain: HashMap<NodeId, usize> = HashMap::new();
        for (d, _) in self.plan.domains.iter().enumerate() {
            for n in self.plan.domain_nodes(d) {
                node_domain.insert(n, d);
            }
        }
        let part_of = self.plan.partitioning.group_index();

        let notifiers: Vec<Arc<Notifier>> =
            (0..self.plan.domains.len()).map(|_| Arc::new(Notifier::new())).collect();

        // Level 3 shared state (created before executors so queue targets
        // can hold TS wakers).
        let pooled: Vec<usize> = self
            .plan
            .domains
            .iter()
            .enumerate()
            .filter(|(_, d)| d.execution == DomainExecution::Pooled)
            .map(|(i, _)| i)
            .collect();
        let pooled_index: HashMap<usize, usize> =
            pooled.iter().enumerate().map(|(pi, &d)| (d, pi)).collect();
        let ts_shared: Option<Arc<TsShared>> = (!pooled.is_empty()).then(|| {
            let ts = TsShared::create_with_obs(
                pooled.len(),
                TsConfig { workers: self.plan.workers.max(1), ..TsConfig::default() },
                self.cfg.obs.clone(),
            );
            for (pi, &d) in pooled.iter().enumerate() {
                ts.set_priority(pi, self.plan.domains[d].priority as i64);
            }
            ts
        });

        let waker_for = |d: usize| -> Option<Arc<dyn Waker>> {
            match self.plan.domains[d].execution {
                DomainExecution::Dedicated => Some(Arc::clone(&notifiers[d]) as Arc<dyn Waker>),
                DomainExecution::Pooled => ts_shared.as_ref().map(|ts| ts.waker(pooled_index[&d])),
                DomainExecution::SourceDriven => None,
            }
        };

        // One pass over the edges: the queue each decoupled edge gets, and
        // every node's out- and in-edges in graph edge order — the order
        // its targets (route ordinals index into them) and inputs keep.
        let edges = self.topo.edges();
        let mut queue_for: Vec<Option<Arc<StreamQueue>>> = Vec::with_capacity(edges.len());
        let mut queues = Vec::new();
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); self.topo.node_count()];
        let mut in_edges = out_edges.clone();
        for (ei, e) in edges.iter().enumerate() {
            out_edges[e.from.0].push(ei);
            in_edges[e.to.0].push(ei);
            let consumer_domain = node_domain[&e.to];
            let from_source = self.topo.is_source(e.from);
            let decoupled = if from_source {
                self.plan.domains[consumer_domain].execution != DomainExecution::SourceDriven
            } else {
                part_of.get(&e.from) != part_of.get(&e.to)
            };
            queue_for.push(decoupled.then(|| {
                // A Block-bounded queue whose producer and consumer live in
                // the same domain would deadlock the executor against
                // itself (it is the only thread that could drain the queue
                // it is blocked on), so such queues stay unbounded; the
                // drop policies are safe everywhere.
                let same_domain =
                    !from_source && node_domain.get(&e.from) == Some(&consumer_domain);
                let q = self.new_queue(e, same_domain);
                queues.push(Arc::clone(&q));
                q
            }));
        }

        // Executors per domain.
        let mut executors: Vec<Arc<Mutex<DomainExecutor>>> = Vec::new();
        let mut total_live = 0usize;
        for (d, spec) in self.plan.domains.iter().enumerate() {
            let nodes = self.plan.domain_nodes(d);
            let mut slots = Vec::with_capacity(nodes.len());
            let mut inputs = Vec::new();
            for &n in &nodes {
                let state = self.slots[n.0].take().expect("operator state parked");
                // A queue back into this domain wakes nobody: the domain
                // drains its own queues before it goes idle.
                let targets = out_edges[n.0]
                    .iter()
                    .map(|&ei| match &queue_for[ei] {
                        Some(q) => {
                            let consumer = node_domain[&edges[ei].to];
                            let wake = if consumer == d { None } else { waker_for(consumer) };
                            Target::Queue { queue: Arc::clone(q), wake }
                        }
                        None => Target::Inline { node: edges[ei].to, port: edges[ei].to_port },
                    })
                    .collect();
                // Input queues feeding this node (from sources or other
                // partitions). A port whose EOS was already consumed before
                // a switch starts exhausted: its producer will never send
                // another message on the new queue.
                for &ei in &in_edges[n.0] {
                    if let Some(q) = &queue_for[ei] {
                        let port = edges[ei].to_port;
                        inputs.push(InputQueue {
                            queue: Arc::clone(q),
                            node: n,
                            port,
                            exhausted: state.closed || !state.eos.is_open(port),
                        });
                    }
                }
                let name = self.topo.name(n);
                slots.push(SlotInit {
                    stats: self.cfg.measure_stats.then(|| Arc::clone(&self.stats[n.0])),
                    latency: self.cfg.obs.maybe_histogram(&format!("op.{name}.latency_ns")),
                    chaos: self.cfg.chaos.as_ref().and_then(|p| p.operator_state(name)),
                    ..SlotInit::new(state, targets)
                });
            }
            let mut exec = DomainExecutor::new(
                spec.name.clone(),
                slots,
                inputs,
                spec.strategy.build(Some(&cost_graph)),
                ExecConfig { batch: self.cfg.batch, measure: self.cfg.measure_stats },
            );
            exec.attach(Attach {
                tracer: self.cfg.obs.tracer().map(|t| (t, d as u32)),
                supervisor: self.supervisor.clone(),
                heartbeat: stall_watch.as_mut().map(|w| w.heartbeat(&spec.name)),
                checkpoint: self.checkpoint_shared.clone(),
            });
            total_live += exec.live_slots();
            executors.push(Arc::new(Mutex::new(exec)));
        }
        // Refresh the alignment quorum: the coordinator needs to know how
        // many live (non-closed) operator slots must ack each barrier. Reset
        // on every re-wiring so plan switches keep the count honest.
        if let Some(ck) = &self.checkpoint_shared {
            ck.live_slots().store(total_live, Ordering::Release);
        }

        // Seed in-flight messages into the domains that now own their
        // destination operators.
        for (node, port, msg) in seeds {
            if let Some(&d) = node_domain.get(&node) {
                executors[d].lock().seed(node, port, msg);
            }
        }

        // Source targets.
        for (si, &s) in self.topo.sources().iter().enumerate() {
            let targets = out_edges[s.0]
                .iter()
                .map(|&ei| {
                    let (node, port) = (edges[ei].to, edges[ei].to_port);
                    let d = node_domain[&node];
                    match &queue_for[ei] {
                        Some(q) => {
                            SourceTarget::Queue { queue: Arc::clone(q), wake: waker_for(d), port }
                        }
                        None => {
                            SourceTarget::Direct { exec: Arc::clone(&executors[d]), node, port }
                        }
                    }
                })
                .collect();
            self.source_shared[si].set_targets(targets);
        }

        // Threads: dedicated domains get one each; pooled domains share the
        // level-3 worker pool.
        let mut dedicated = Vec::new();
        for (d, spec) in self.plan.domains.iter().enumerate() {
            if spec.execution != DomainExecution::Dedicated {
                continue;
            }
            let exec = Arc::clone(&executors[d]);
            let notifier = Arc::clone(&notifiers[d]);
            let stop = Arc::clone(&stop);
            dedicated.push(
                std::thread::Builder::new()
                    .name(format!("hmts-{}", spec.name))
                    .spawn(move || dedicated_loop(&exec, &notifier, &stop))
                    .expect("spawn dedicated domain thread"),
            );
        }
        let ts = ts_shared.map(|shared| {
            let pool_execs = pooled.iter().map(|&d| Arc::clone(&executors[d])).collect();
            ThreadScheduler::spawn(shared, pool_execs, Arc::clone(&stop))
        });
        let stall_monitor = stall_watch.map(|w| w.spawn(Arc::clone(&stop)));

        self.publish_view();
        self.register_collectors(&queues);
        self.wiring = Some(Wiring {
            executors,
            notifiers,
            dedicated,
            ts,
            stop,
            queues,
            stall_monitor,
            pooled_index,
        });
    }

    /// The decoupling queue for edge `e`, bounded per the configuration.
    fn new_queue(&self, e: &Edge, same_domain: bool) -> Arc<StreamQueue> {
        let name = format!("{}->{}", self.topo.name(e.from), self.topo.name(e.to));
        let bound = self
            .cfg
            .queue_bound
            .filter(|b| !(same_domain && b.policy == BackpressurePolicy::Block))
            .map(|b| (b.capacity, b.policy));
        StreamQueue::new(name, bound, Some(Arc::clone(&self.memory_gauge)))
    }

    /// Waits for `wiring`'s threads to end and harvests what they left
    /// behind: worker panics, per-domain operator errors, queue totals, and
    /// a final metrics sample (queue counters advance by delta inside the
    /// collectors, so this flushes them). The one join sequence behind both
    /// a plan switch and the end of the run; the caller decides when the
    /// threads are *asked* to end.
    pub(super) fn join_wiring(&mut self, wiring: &mut Wiring) {
        for h in wiring.dedicated.drain(..) {
            self.harvest_join(h);
        }
        if let Some(ts) = wiring.ts.take() {
            // Workers observe the stop flag via their timed waits.
            self.worker_panics.extend(ts.join());
        }
        // The stall monitor only exits on the stop flag; every processing
        // thread has finished by now.
        wiring.stop.stop();
        if let Some(m) = wiring.stall_monitor.take() {
            self.harvest_join(m);
        }
        for exec in &wiring.executors {
            let mut e = exec.lock();
            if let Some(err) = e.error() {
                self.errors.push((e.name().to_string(), err.clone()));
            }
            self.worker_panics.extend(e.take_panics());
        }
        for q in &wiring.queues {
            self.total_enqueued += q.metrics().enqueued();
        }
        self.cfg.obs.sample_now();
    }

    /// Stops and joins the current wiring, returning all in-flight messages
    /// and parking every operator's state back in the engine.
    pub(super) fn teardown_wiring(&mut self) -> Vec<(NodeId, usize, Message)> {
        let Some(mut wiring) = self.wiring.take() else {
            return Vec::new();
        };
        wiring.stop.stop();
        // Lift capacity bounds first: a producer stalled in a bounded Block
        // push proceeds into the (now unbounded) buffer, so its in-flight
        // element is preserved and drained as a remnant below.
        for q in &wiring.queues {
            q.lift_bound();
        }
        for n in &wiring.notifiers {
            n.notify();
        }
        self.join_wiring(&mut wiring);
        // Journal what each queue still holds, then drop the collectors
        // that capture this wiring's queues and stats.
        for q in &wiring.queues {
            let remaining = q.len();
            self.cfg.obs.emit_with(|| SchedEvent::QueueDrain {
                queue: q.name().to_string(),
                drained: remaining,
            });
        }
        self.cfg.obs.clear_collectors();
        let mut seeds = Vec::new();
        for exec in &wiring.executors {
            let mut e = exec.lock();
            seeds.extend(e.take_input_remnants());
            for state in e.extract() {
                let n = state.node.0;
                self.slots[n] = Some(state);
            }
        }
        seeds
    }

    /// Joins a thread handle, converting a panic payload into a recorded
    /// worker panic instead of silently dropping (or propagating) it.
    pub(super) fn harvest_join(&mut self, h: JoinHandle<()>) {
        let name = h.thread().name().unwrap_or("worker").to_string();
        if let Err(payload) = h.join() {
            self.worker_panics.push((name, panic_message(payload.as_ref())));
        }
    }
}

/// Re-wiring a running engine one queue at a time (paper §5.1.3).
impl Engine {
    /// Inserts a decoupling queue on the edge `from → to` of a running
    /// engine (paper §5.1.3: "a queue can be immediately inserted"): the
    /// virtual operator containing both endpoints is split along that edge
    /// and the engine re-plans. Returns `false` (without re-planning) when
    /// the edge already crosses a VO boundary. The re-planned graph runs as
    /// pooled HMTS with the current worker count (minimum 2) and the first
    /// domain's strategy.
    pub fn insert_queue(&mut self, from: NodeId, to: NodeId) -> Result<bool, EngineError> {
        let part = &self.plan.partitioning;
        let (Some(gf), Some(gt)) = (part.group_of(from), part.group_of(to)) else {
            return Ok(false);
        };
        if gf != gt {
            return Ok(false); // already decoupled
        }
        // Split group `gf` into the weakly connected components of its
        // nodes with the edge (from, to) removed.
        let group = part.groups()[gf].clone();
        let mut comp: HashMap<NodeId, usize> = HashMap::new();
        let mut count = 0usize;
        for &start in &group {
            if comp.contains_key(&start) {
                continue;
            }
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                comp.insert(v, count);
                for e in self.topo.edges().iter().filter(|e| (e.from, e.to) != (from, to)) {
                    let neighbour = if e.from == v {
                        e.to
                    } else if e.to == v {
                        e.from
                    } else {
                        continue;
                    };
                    if group.contains(&neighbour) && !comp.contains_key(&neighbour) {
                        stack.push(neighbour);
                    }
                }
            }
            count += 1;
        }
        if count < 2 {
            // The endpoints stay connected through another path: a queue on
            // this edge alone cannot split the VO (paper §3.4: push-based
            // VOs may contain shared subqueries).
            return Ok(false);
        }
        let mut components: Vec<Vec<NodeId>> = vec![Vec::new(); count];
        for &v in &group {
            components[comp[&v]].push(v);
        }
        self.cfg.obs.emit_with(|| SchedEvent::QueueInsert {
            queue: format!("{}->{}", self.topo.name(from), self.topo.name(to)),
        });
        self.replan(&[gf], components)?;
        Ok(true)
    }

    /// Removes the decoupling queue on the edge `from → to` of a running
    /// engine by merging the two virtual operators it separates; the
    /// queue's remaining elements are drained and re-processed by the
    /// merged VO (paper §5.1.3: "to remove a queue all remaining elements
    /// in the queue must be entirely processed"). Returns `false` when the
    /// endpoints already share a VO.
    pub fn remove_queue(&mut self, from: NodeId, to: NodeId) -> Result<bool, EngineError> {
        let part = &self.plan.partitioning;
        let (Some(gf), Some(gt)) = (part.group_of(from), part.group_of(to)) else {
            return Ok(false);
        };
        if gf == gt {
            return Ok(false);
        }
        let groups = part.groups();
        let merged = [&groups[gf.min(gt)][..], &groups[gf.max(gt)][..]].concat();
        self.cfg.obs.emit_with(|| SchedEvent::QueueRemove {
            queue: format!("{}->{}", self.topo.name(from), self.topo.name(to)),
        });
        self.replan(&[gf, gt], vec![merged])?;
        Ok(true)
    }

    /// Switches to the current partitioning with the groups `dropped`
    /// replaced by `added`.
    fn replan(&mut self, dropped: &[usize], added: Vec<Vec<NodeId>>) -> Result<(), EngineError> {
        let kept = self.plan.partitioning.groups().iter().enumerate();
        let mut groups: Vec<Vec<NodeId>> =
            kept.filter(|(i, _)| !dropped.contains(i)).map(|(_, g)| g.clone()).collect();
        groups.extend(added);
        let strategy = self.plan.domains.first().map(|d| d.strategy).unwrap_or_default();
        let workers = self.plan.workers.max(2);
        self.switch_plan(ExecutionPlan::hmts(Partitioning::new(groups), strategy, workers))
    }
}

fn dedicated_loop(
    exec: &Arc<Mutex<DomainExecutor>>,
    notifier: &Arc<Notifier>,
    stop: &Arc<StopFlag>,
) {
    let budget = Budget { stop: Some(Arc::clone(stop)), ..Budget::default() };
    loop {
        let outcome = exec.lock().run_slice(&budget);
        if stop.is_stopped() || outcome == RunOutcome::Finished {
            return;
        }
        notifier.wait(Duration::from_millis(10));
    }
}
