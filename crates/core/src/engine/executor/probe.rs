//! Measurement around the core loop: per-invocation cost timing, the
//! runtime statistics (`c(v)`, selectivity, arrivals) the placement
//! algorithms consume, the per-operator latency histogram, and sampled
//! per-tuple tracing.
//!
//! The core calls in at four fixed points — [`Probe::begin`] / [`Probe::end`]
//! around `process`, [`Probe::queue_enter`] at a queue push and
//! [`Probe::queue_exit`] at a queue pop. A slot nothing observes costs one
//! branch in `begin` and one in `end`; an unsampled tuple costs one branch
//! at each queue point.

use std::sync::Arc;
use std::time::Instant;

use hmts_obs::{Histogram, HopKind, Tracer};
use hmts_operators::traits::Output;
use hmts_streams::element::{Element, Message};
use hmts_streams::queue::StreamQueue;

use super::InputQueue;
use crate::stats::SharedNodeStats;

/// What observes one slot.
pub(super) struct SlotProbe {
    stats: Option<SharedNodeStats>,
    latency: Option<Histogram>,
    /// Whether invocations are timed: a statistics cell under
    /// `ExecConfig::measure`, or a latency histogram.
    timed: bool,
    /// Whether either of the above is present.
    observed: bool,
    /// The operator's name, interned so recording a hop for a sampled
    /// tuple never allocates.
    site: Arc<str>,
}

impl SlotProbe {
    pub(super) fn new(
        stats: Option<SharedNodeStats>,
        latency: Option<Histogram>,
        measure: bool,
        operator: &str,
    ) -> SlotProbe {
        let timed = (measure && stats.is_some()) || latency.is_some();
        let observed = stats.is_some() || latency.is_some();
        SlotProbe { stats, latency, timed, observed, site: Arc::from(operator) }
    }
}

/// Per-domain tuple-tracing context.
struct TraceCtx {
    tracer: Arc<Tracer>,
    /// Partition (domain index) for span attribution.
    partition: u32,
    /// Queue name per input, parallel to the executor's inputs (interned
    /// like the slots' sites).
    input_sites: Vec<Arc<str>>,
}

/// An invocation being observed — its cost clock, and whether its tuple is
/// traced — or `None` when nothing observes it.
pub(super) type Span = Option<(Option<Instant>, bool)>;

/// The measurement state of one executor.
#[derive(Default)]
pub(super) struct Probe {
    trace: Option<TraceCtx>,
}

impl Probe {
    /// Attaches the span recorder, attributing this domain's hops to
    /// `partition`.
    pub(super) fn attach(&mut self, tracer: Arc<Tracer>, partition: u32, inputs: &[InputQueue]) {
        let input_sites = inputs.iter().map(|q| Arc::from(q.queue.name())).collect();
        self.trace = Some(TraceCtx { tracer, partition, input_sites });
    }

    /// Before `process` on `slot`: starts the cost clock and, for a sampled
    /// tuple, records the process-start hop.
    #[inline]
    pub(super) fn begin(&self, slot: &SlotProbe, el: &Element) -> Span {
        let traced = el.trace.is_sampled() && self.trace.is_some();
        if !(slot.observed || traced) {
            return None;
        }
        if traced {
            self.record(el, HopKind::ProcessStart, slot);
        }
        Some((slot.timed.then(Instant::now), traced))
    }

    /// After `process` on `slot` (`ok` = it returned `Ok`): stops the cost
    /// clock, records the process-end hop, and on success feeds the
    /// statistics and stamps the pending outputs with the input's trace
    /// context — results constructed inside the operator (projections,
    /// joins) inherit it.
    #[inline]
    pub(super) fn end(
        &self,
        slot: &SlotProbe,
        span: Span,
        ok: bool,
        el: &Element,
        out: &mut Output,
    ) {
        let Some((start, traced)) = span else {
            return;
        };
        let cost = start.map(|t| t.elapsed());
        if traced {
            self.record(el, HopKind::ProcessEnd, slot);
        }
        if !ok {
            return;
        }
        if let Some(stats) = &slot.stats {
            stats.lock().observe(el.ts, cost, out.len() as u64);
        }
        if let (Some(h), Some(c)) = (&slot.latency, cost) {
            h.record_duration(c);
        }
        if traced {
            out.stamp_trace(el.trace);
        }
    }

    fn record(&self, el: &Element, kind: HopKind, slot: &SlotProbe) {
        let tc = self.trace.as_ref().expect("a traced span implies a tracer");
        tc.tracer.record(el.trace.id(), kind, &slot.site, tc.partition);
    }

    /// At a push of `msgs` into `queue`.
    #[inline]
    pub(super) fn queue_enter(&self, msgs: &[Message], queue: &StreamQueue) {
        let Some(tc) = &self.trace else {
            return;
        };
        for msg in msgs {
            if let Message::Data(el) = msg {
                if el.trace.is_sampled() {
                    let id = el.trace.id();
                    tc.tracer.record_site(id, HopKind::QueueEnter, queue.name(), tc.partition);
                }
            }
        }
    }

    /// At a pop of `msg` from input queue `input`.
    #[inline]
    pub(super) fn queue_exit(&self, msg: &Message, input: usize) {
        if let Message::Data(el) = msg {
            if el.trace.is_sampled() {
                if let Some(tc) = &self.trace {
                    let site = &tc.input_sites[input];
                    tc.tracer.record(el.trace.id(), HopKind::QueueExit, site, tc.partition);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{data, slot};
    use super::super::{DomainExecutor, ExecConfig};
    use super::*;
    use crate::scheduler::strategy::StrategyKind;
    use hmts_graph::graph::NodeId;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;

    #[test]
    fn stats_are_recorded_when_enabled() {
        let stats = crate::stats::shared_node_stats();
        let mut init = slot(1, Box::new(Filter::new("f", Expr::field(0).lt(Expr::int(5)))), vec![]);
        init.stats = Some(Arc::clone(&stats));
        let mut exec = DomainExecutor::new(
            "d",
            vec![init],
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        for i in 0..10 {
            exec.inject(NodeId(1), 0, data(i, i as u64 * 1000));
        }
        let s = stats.lock();
        assert_eq!(s.processed, 10);
        assert_eq!(s.selectivity.selectivity(), Some(0.5));
        assert!(s.cost.cost().is_some());
    }
}
