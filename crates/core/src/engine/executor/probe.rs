//! Measurement around the core loop: the sampled cost clock, the runtime
//! statistics (`c(v)`, selectivity, arrivals) the placement algorithms
//! consume, the per-operator latency histogram, and sampled per-tuple
//! tracing.
//!
//! The core calls in at four fixed points — [`Probe::begin`] / [`Probe::end`]
//! around `process_batch`, [`Probe::queue_enter`] at a queue push and
//! [`Probe::queue_exit`] at a queue pop. A slot nothing observes costs one
//! branch in `begin` and one in `end`; an unsampled tuple costs one branch
//! at each queue point.
//!
//! Counts are exact, costs are sampled: every element is booked into the
//! slot's statistics cell (`processed`, selectivity, arrivals) — a run in
//! one piece — but only the runs in which a [`COST_STRIDE`] point falls are
//! timed, and only a timed run feeds `c(v)` and the latency histogram,
//! with its mean per element — both are means and quantiles of a population
//! the stride samples evenly.

use std::sync::Arc;
use std::time::Instant;

use hmts_obs::{Histogram, HopKind, Tracer};
use hmts_operators::traits::Output;
use hmts_streams::element::{Element, TraceTag};
use hmts_streams::queue::StreamQueue;
use hmts_streams::time::Timestamp;

use super::InputQueue;
use crate::stats::{SharedNodeStats, StatsWriter};

/// Of a slot's invocations — one per element, however they are cut into
/// runs — the first and every `COST_STRIDE`-th after it are the timed ones.
/// Deliberately not a multiple of `ExecConfig::batch` (32 by default, and
/// 31 is coprime to every power of two): a multiple would time the same
/// position of every popped batch — its cache-cold head — instead of
/// walking through all of them.
pub const COST_STRIDE: u32 = 31;

/// What observes one slot.
pub(super) struct SlotProbe {
    /// The slot's statistics cell, through the mirror its one writer — the
    /// executor — keeps: seeded from the cell when the slot is wired, so
    /// the counts run on across a mode switch.
    stats: Option<StatsWriter>,
    latency: Option<Histogram>,
    /// Whether invocations are timed at all: a statistics cell under
    /// `ExecConfig::measure`, or a latency histogram.
    timed: bool,
    /// Invocations left until the next timed one.
    untimed: usize,
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
        let stats = stats.map(StatsWriter::new);
        SlotProbe { stats, latency, timed, untimed: 0, site: Arc::from(operator) }
    }

    /// Counts `n` invocations; how many of them are timed ones.
    #[inline]
    fn due(&mut self, n: usize) -> usize {
        if n <= self.untimed {
            self.untimed -= n;
            return 0;
        }
        let stride = COST_STRIDE as usize;
        let behind_the_first = n - self.untimed - 1;
        self.untimed = stride - 1 - behind_the_first % stride;
        1 + behind_the_first / stride
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

/// What [`Probe::begin`] hands to [`Probe::end`].
pub(super) struct Span {
    /// The cost clock, if a timed invocation falls into this run.
    start: Option<Instant>,
    /// The tag of a traced tuple (which is a run of its own), else
    /// [`TraceTag::NONE`].
    trace: TraceTag,
    /// Elements in the run and in the output buffer before the call.
    len: usize,
    out_before: usize,
}

/// The measurement state of one executor.
#[derive(Default)]
pub(super) struct Probe {
    trace: Option<TraceCtx>,
    /// The timestamps of the run being processed — taken down in `begin`,
    /// because the operator owns the elements by the time `end` knows how
    /// many of them to book.
    arrivals: Vec<Timestamp>,
}

impl Probe {
    /// Attaches the span recorder, attributing this domain's hops to
    /// `partition`.
    pub(super) fn attach(&mut self, tracer: Arc<Tracer>, partition: u32, inputs: &[InputQueue]) {
        let input_sites = inputs.iter().map(|q| Arc::from(q.queue.name())).collect();
        self.trace = Some(TraceCtx { tracer, partition, input_sites });
    }

    /// Whether one of `run`'s tuples is sampled for tracing: its hops are
    /// its own, so it has to go through the slot as a run of one.
    #[inline]
    pub(super) fn follows_one_of(&self, run: &[Element]) -> bool {
        self.trace.is_some() && run.iter().any(|el| el.trace.is_sampled())
    }

    /// Before `process_batch` of `run` on `slot`: for a sampled tuple,
    /// records the process-start hop; starts the cost clock if one of the
    /// invocations the run stands for is a timed one.
    #[inline]
    pub(super) fn begin(&mut self, slot: &mut SlotProbe, run: &[Element], out: &Output) -> Span {
        let trace = match run {
            [el] if self.trace.is_some() => el.trace,
            _ => TraceTag::NONE,
        };
        if trace.is_sampled() {
            self.record(trace, HopKind::ProcessStart, slot);
        }
        if slot.stats.is_some() {
            self.arrivals.clear();
            self.arrivals.extend(run.iter().map(|el| el.ts));
        }
        let start = (slot.timed && slot.untimed < run.len()).then(Instant::now);
        Span { start, trace, len: run.len(), out_before: out.len() }
    }

    /// After `process_batch` on `slot` (`ok` = it returned `Ok`; `left` =
    /// what it left of the run): stops the cost clock, records the
    /// process-end hop, and books the elements that went through in one
    /// piece — with the run's mean cost per invocation, counted once per
    /// timed invocation in it. A traced tuple's outputs are stamped with its
    /// trace context — results constructed inside the operator
    /// (projections, joins) inherit it.
    #[inline]
    pub(super) fn end(
        &mut self,
        slot: &mut SlotProbe,
        span: Span,
        ok: bool,
        left: usize,
        out: &mut Output,
    ) {
        let elapsed = span.start.map(|t| t.elapsed());
        if span.trace.is_sampled() {
            self.record(span.trace, HopKind::ProcessEnd, slot);
        }
        let booked = span.len - left.min(span.len);
        // A failed invocation was one, for the stride.
        let invoked = booked + usize::from(!ok);
        let timed = if slot.timed { slot.due(invoked) } else { 0 };
        if booked == 0 {
            return;
        }
        let cost = elapsed.filter(|_| timed > 0).map(|e| e / invoked as u32);
        if let Some(stats) = &mut slot.stats {
            let outputs = (out.len() - span.out_before) as u64;
            stats.observe_run(&self.arrivals[..booked], cost, timed, outputs);
        }
        if let (Some(h), Some(c)) = (&slot.latency, cost) {
            for _ in 0..timed {
                h.record_duration(c);
            }
        }
        if span.trace.is_sampled() {
            out.stamp_trace(span.trace);
        }
    }

    fn record(&self, trace: TraceTag, kind: HopKind, slot: &SlotProbe) {
        let tc = self.trace.as_ref().expect("a traced span implies a tracer");
        tc.tracer.record(trace.id(), kind, &slot.site, tc.partition);
    }

    /// At a push of `run` into `queue`.
    #[inline]
    pub(super) fn queue_enter(&self, run: &[Element], queue: &StreamQueue) {
        let Some(tc) = &self.trace else {
            return;
        };
        for el in run.iter().filter(|el| el.trace.is_sampled()) {
            tc.tracer.record_site(el.trace.id(), HopKind::QueueEnter, queue.name(), tc.partition);
        }
    }

    /// At a pop of `run` from input queue `input`.
    #[inline]
    pub(super) fn queue_exit(&self, run: &[Element], input: usize) {
        let Some(tc) = &self.trace else {
            return;
        };
        for el in run.iter().filter(|el| el.trace.is_sampled()) {
            let site = &tc.input_sites[input];
            tc.tracer.record(el.trace.id(), HopKind::QueueExit, site, tc.partition);
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
    use hmts_operators::traits::Operator;
    use hmts_streams::metrics::CostEstimator;
    use std::time::Duration;

    /// One executor hosting `op` as node 1, observed by `stats`.
    fn observed(op: Box<dyn Operator>, stats: &SharedNodeStats) -> DomainExecutor {
        let mut init = slot(1, op, vec![]);
        init.stats = Some(Arc::clone(stats));
        DomainExecutor::new(
            "d",
            vec![init],
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        )
    }

    fn below_five() -> Box<dyn Operator> {
        Box::new(Filter::new("f", Expr::field(0).lt(Expr::int(5))))
    }

    #[test]
    fn stats_are_recorded_when_enabled() {
        let stats = crate::stats::shared_node_stats();
        let mut exec = observed(below_five(), &stats);
        for i in 0..10 {
            exec.inject(NodeId(1), 0, data(i, i as u64 * 1000));
        }
        let s = stats.snapshot();
        assert_eq!(s.processed, 10);
        assert_eq!(s.selectivity.selectivity(), Some(0.5));
        assert!(s.cost.cost().is_some());
    }

    #[test]
    fn one_invocation_in_stride_is_timed_starting_with_the_first() {
        let stride = u64::from(COST_STRIDE);
        let stats = crate::stats::shared_node_stats();
        let mut exec = observed(below_five(), &stats);
        for n in 1..=3 * stride + 1 {
            exec.inject(NodeId(1), 0, data(n as i64, n));
            let s = stats.snapshot();
            // Counts are exact and there when `inject` returns; cost
            // samples are the first call and every `stride`-th after it.
            assert_eq!(s.processed, n);
            assert_eq!(s.cost.samples(), n.div_ceil(stride), "after {n} invocations");
        }
        assert_eq!(stats.snapshot().selectivity.selectivity(), Some(4.0 / (3 * stride + 1) as f64));
    }

    #[test]
    fn a_new_wiring_carries_the_cell_on() {
        let stats = crate::stats::shared_node_stats();
        for wiring in 1..=2 {
            // A mode switch: a new executor, the engine's same cell.
            let mut exec = observed(below_five(), &stats);
            for i in 0..10 {
                exec.inject(NodeId(1), 0, data(i, wiring * 100 + i as u64));
            }
            let s = stats.snapshot();
            assert_eq!(s.processed, 10 * wiring);
            assert_eq!(s.cost.samples(), wiring, "each wiring times its first invocation");
            assert_eq!(s.selectivity.selectivity(), Some(0.5));
        }
    }

    /// Passes nothing on, after spinning for `spin`.
    struct Spin(Duration);

    impl Operator for Spin {
        fn name(&self) -> &str {
            "spin"
        }

        fn process(
            &mut self,
            _port: usize,
            _el: &Element,
            _out: &mut Output,
        ) -> hmts_streams::error::Result<()> {
            let start = Instant::now();
            while start.elapsed() < self.0 {
                std::hint::spin_loop();
            }
            Ok(())
        }
    }

    /// `c(v)` of a `Spin(spin)` as the probe samples it, and as the same
    /// estimator reports it when fed a timing of every single call.
    fn sampled_and_per_call_cost(spin: Duration, calls: u64) -> (Duration, Duration) {
        let stats = crate::stats::shared_node_stats();
        let mut exec = observed(Box::new(Spin(spin)), &stats);
        for n in 0..calls {
            exec.inject(NodeId(1), 0, data(0, n));
        }
        let (mut op, mut out, mut per_call) = (Spin(spin), Output::new(), CostEstimator::new());
        let el = Element::single(0, hmts_streams::time::Timestamp::ZERO);
        for _ in 0..calls {
            let start = Instant::now();
            op.process(0, &el, &mut out).unwrap();
            per_call.observe(start.elapsed());
        }
        let sampled = stats.snapshot().cost;
        assert_eq!(sampled.samples(), calls.div_ceil(u64::from(COST_STRIDE)));
        (sampled.cost().unwrap(), per_call.cost().unwrap())
    }

    #[test]
    fn sampled_cost_agrees_with_per_call_timing() {
        let calls = 40 * u64::from(COST_STRIDE);
        // Within a quarter of each other — or within a microsecond, for an
        // empty call that costs a clock read or two either way.
        let agree = |sampled: Duration, per_call: Duration| {
            sampled.max(per_call) - sampled.min(per_call)
                <= (per_call / 4).max(Duration::from_micros(1))
        };
        // Both sides are EWMAs, so one preempted call near the end throws
        // an attempt off; a bias from sampling would throw off all of them.
        let mut attempts = Vec::new();
        let agreed = (0..5).any(|_| {
            let (busy, busy_ref) = sampled_and_per_call_cost(Duration::from_micros(20), calls);
            let (idle, idle_ref) = sampled_and_per_call_cost(Duration::ZERO, calls);
            attempts.push((busy, busy_ref, idle, idle_ref));
            agree(busy, busy_ref) && agree(idle, idle_ref) && idle * 10 < busy
        });
        assert!(agreed, "(sampled, per-call) busy then idle, per attempt: {attempts:?}");
    }
}
