//! The two descriptions of an operator slot — what a caller hands the
//! executor to build one ([`SlotInit`]) and the part that outlives a wiring
//! ([`SlotState`]) — plus [`Attach`], the query-wide services the
//! executor's concern modules report to.

use std::sync::Arc;

use hmts_graph::graph::NodeId;
use hmts_obs::{Histogram, Tracer};
use hmts_operators::traits::{EosTracker, Operator, WatermarkTracker};

use super::probe::SlotProbe;
use super::{DomainExecutor, Route, Slot, SlotTable, Target};
use crate::checkpoint::CheckpointShared;
use crate::failure::{Heartbeat, OperatorFaultState, Supervisor};
use crate::stats::SharedNodeStats;

/// Construction data for one operator slot.
pub struct SlotInit {
    /// The node this slot hosts.
    pub node: NodeId,
    /// The operator payload.
    pub op: Box<dyn Operator>,
    /// End-of-stream tracking state (fresh, or carried over a mode switch).
    pub eos: EosTracker,
    /// Watermark tracking state.
    pub wm: WatermarkTracker,
    /// Whether the operator already completed (carried over a switch).
    pub closed: bool,
    /// Output routing, one entry per out-edge.
    pub targets: Vec<Target>,
    /// Shared statistics cell, if measurement is enabled.
    pub stats: Option<SharedNodeStats>,
    /// Per-operator invocation latency histogram, if observability is
    /// enabled (see `hmts_obs`); it receives the timed invocations, one in
    /// [`COST_STRIDE`](super::COST_STRIDE).
    pub latency: Option<Histogram>,
    /// Fault-injection state targeting this operator (see
    /// [`crate::failure::FaultPlan`]). `None` keeps the hot path to one
    /// branch per run.
    pub chaos: Option<Arc<OperatorFaultState>>,
}

impl SlotInit {
    /// A slot for `state` wired to `targets`, with no measurement and no
    /// fault injection attached (set the public fields to add them).
    pub fn new(state: SlotState, targets: Vec<Target>) -> SlotInit {
        SlotInit {
            node: state.node,
            op: state.op,
            eos: state.eos,
            wm: state.wm,
            closed: state.closed,
            targets,
            stats: None,
            latency: None,
            chaos: None,
        }
    }

    /// The running slot: the persistent state and routing the core works
    /// on — every inline target resolved to its slot through `slot_of`,
    /// once — plus what the guard, the probe and the aligner keep per slot.
    pub(super) fn into_slot(self, measure: bool, slot_of: &SlotTable) -> Slot {
        let routes: Vec<Route> = self
            .targets
            .into_iter()
            .map(|t| match t {
                Target::Inline { node, port } => match slot_of.get(node) {
                    Some(slot) => Route::Inline { slot, port },
                    None => Route::Dangling(node),
                },
                Target::Queue { queue, wake } => {
                    Route::Queue { queue, wake, staged: Default::default() }
                }
            })
            .collect();
        let open: Vec<bool> =
            (0..self.op.input_arity().max(1)).map(|p| self.eos.is_open(p)).collect();
        Slot {
            probe: SlotProbe::new(self.stats, self.latency, measure, self.op.name(), &open),
            state: SlotState {
                node: self.node,
                op: self.op,
                eos: self.eos,
                wm: self.wm,
                closed: self.closed,
            },
            routes,
            fault: self.chaos,
            align: Default::default(),
        }
    }
}

/// The persistent part of a slot: everything needed to resume the operator
/// in another wiring. The executor keeps one per slot while it runs and
/// hands them back through [`DomainExecutor::extract`](super::DomainExecutor::extract);
/// the engine parks them between wirings.
pub struct SlotState {
    /// The node.
    pub node: NodeId,
    /// The operator payload.
    pub op: Box<dyn Operator>,
    /// End-of-stream state.
    pub eos: EosTracker,
    /// Watermark state.
    pub wm: WatermarkTracker,
    /// Whether the operator already completed.
    pub closed: bool,
}

impl SlotState {
    /// The state of an operator that has not seen any input yet.
    pub fn new(node: NodeId, op: Box<dyn Operator>) -> SlotState {
        let arity = op.input_arity();
        SlotState {
            node,
            op,
            eos: EosTracker::new(arity),
            wm: WatermarkTracker::new(arity),
            closed: false,
        }
    }
}

/// The query-wide services one executor reports to, handed over in a single
/// [`DomainExecutor::attach`](super::DomainExecutor::attach) call. Every
/// field defaults to `None`, which keeps the matching concern to one branch
/// at its call point.
#[derive(Default)]
pub struct Attach {
    /// The per-tuple span recorder and the partition (domain index) this
    /// executor's hops are attributed to.
    pub tracer: Option<(Arc<Tracer>, u32)>,
    /// Failure bookkeeping shared across the query's executors; without it
    /// a caught panic closes the operator and is reported via
    /// [`take_panics`](super::DomainExecutor::take_panics).
    pub supervisor: Option<Arc<Supervisor>>,
    /// Liveness beacon observed by the stall monitor thread, if there is
    /// one.
    pub heartbeat: Option<Arc<Heartbeat>>,
    /// Barrier-checkpoint coordination: aligned barriers acknowledge (and
    /// snapshot) through it, and slot closures shrink its live-slot quorum.
    pub checkpoint: Option<Arc<CheckpointShared>>,
}

impl DomainExecutor {
    /// Connects the executor to the query-wide services in `services`.
    pub fn attach(&mut self, services: Attach) {
        if let Some((tracer, partition)) = services.tracer {
            self.probe.attach(tracer, partition, &self.inputs);
        }
        self.guard.supervisor = services.supervisor;
        self.guard.heartbeat = services.heartbeat;
        self.align.checkpoint = services.checkpoint;
    }
}
