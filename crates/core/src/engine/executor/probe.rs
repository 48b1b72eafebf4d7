//! Measurement around the core loop: the sampled cost clock, the runtime
//! statistics (`c(v)`, selectivity, arrivals) the placement algorithms
//! consume, the per-operator latency histogram, and sampled per-tuple
//! tracing.
//!
//! The core calls in at four fixed points — [`Probe::begin`] / [`Probe::end`]
//! around `process_batch`, [`Probe::queue_enter`] at a queue push and
//! [`Probe::queue_exit`] at a queue pop. Without a tracer, tracing costs one
//! branch in `begin` and one in `end`, and a slot nothing else observes one
//! more in each; an unsampled tuple costs one branch at each queue point. A
//! sampled tuple's process span is the call its run went through.
//!
//! Counts are exact, costs are sampled: every element is booked into the
//! slot's statistics cell (`processed`, selectivity) — a run in one step,
//! its arrivals as its port, length and first and last stamps
//! ([`Arrivals`]), at a price that does not grow with the run — but only
//! the runs in which a [`COST_STRIDE`] point falls are timed, and only a
//! timed run feeds `c(v)` and the latency histogram, with its mean per
//! element — both are means and quantiles of a population the stride
//! samples evenly. The stride is longer than a default batch, so most runs
//! read no clock at all. An input port's end-of-stream is booked as well
//! (`SlotProbe::close`), so an ended input stops counting in the rate.

use std::sync::Arc;
use std::time::Instant;

use hmts_obs::{Histogram, HopKind, Tracer};
use hmts_operators::traits::Output;
use hmts_streams::element::{Element, TraceTag};
use hmts_streams::queue::StreamQueue;

use super::InputQueue;
use crate::stats::{Arrivals, SharedNodeStats, StatsWriter};

/// Of a slot's invocations — one per element, however they are cut into
/// runs — the first and every `COST_STRIDE`-th after it are the timed ones.
/// Four default batches (`ExecConfig::batch`, 32) and a bit, so at most one
/// run of four reads the clock; and prime, so never a multiple of a batch:
/// a multiple would time the same position of every popped batch — its
/// cache-cold head — instead of walking through all of them.
pub const COST_STRIDE: u32 = 127;

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
    /// Observes an operator named `operator` whose input ports are open
    /// as `open` says.
    pub(super) fn new(
        stats: Option<SharedNodeStats>,
        latency: Option<Histogram>,
        measure: bool,
        operator: &str,
        open: &[bool],
    ) -> SlotProbe {
        let timed = (measure && stats.is_some()) || latency.is_some();
        let stats = stats.map(|cell| StatsWriter::new(cell, open));
        SlotProbe { stats, latency, timed, untimed: 0, site: Arc::from(operator) }
    }

    /// Books end-of-stream on input `port`: from here its rate leaves the
    /// node's (see [`StatsWriter`]).
    pub(super) fn close(&mut self, port: usize) {
        if let Some(stats) = &mut self.stats {
            stats.close(port);
        }
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
    /// The run's arrivals — taken down here, because the operator owns the
    /// elements by the time `end` knows how many of them to book.
    arrivals: Option<Arrivals>,
    /// Elements in the output buffer before the call.
    out_before: usize,
}

/// The measurement state of one executor.
#[derive(Default)]
pub(super) struct Probe {
    trace: Option<TraceCtx>,
    /// The sampled tags of the run being processed, taken down in `begin`
    /// for the same reason as its arrivals (empty without a tracer).
    sampled: Vec<TraceTag>,
}

impl Probe {
    /// Attaches the span recorder, attributing this domain's hops to
    /// `partition`.
    pub(super) fn attach(&mut self, tracer: Arc<Tracer>, partition: u32, inputs: &[InputQueue]) {
        let input_sites = inputs.iter().map(|q| Arc::from(q.queue.name())).collect();
        self.trace = Some(TraceCtx { tracer, partition, input_sites });
    }

    /// Before `process_batch` of `run`, arrived on `port` of `slot`:
    /// records the process-start hop of every sampled tuple in the run —
    /// the run's call is each one's process span; takes down the run's
    /// arrivals; starts the cost clock if one of the invocations the run
    /// stands for is a timed one.
    #[inline]
    pub(super) fn begin(
        &mut self,
        slot: &mut SlotProbe,
        port: usize,
        run: &[Element],
        out: &Output,
    ) -> Span {
        if self.trace.is_some() {
            self.sampled.clear();
            self.sampled.extend(run.iter().map(|el| el.trace).filter(TraceTag::is_sampled));
            self.record(HopKind::ProcessStart, slot);
        }
        let start = (slot.timed && slot.untimed < run.len()).then(Instant::now);
        Span { start, arrivals: Arrivals::of(port, run), out_before: out.len() }
    }

    /// After `process_batch` on `slot` (`ok` = it returned `Ok`; `left` =
    /// what it left of the run): stops the cost clock, records the
    /// process-end hop of every tuple `begin` recorded a start for, and
    /// books the elements that went through in one step — with the run's
    /// mean cost per invocation, counted once per timed invocation in it.
    #[inline]
    pub(super) fn end(
        &mut self,
        slot: &mut SlotProbe,
        span: Span,
        ok: bool,
        left: &[Element],
        out: &Output,
    ) {
        let elapsed = span.start.map(|t| t.elapsed());
        self.record(HopKind::ProcessEnd, slot);
        let Some(arrivals) = span.arrivals else {
            return;
        };
        let booked = arrivals.len - left.len().min(arrivals.len);
        // A failed invocation was one, for the stride.
        let invoked = booked + usize::from(!ok);
        let timed = if slot.timed { slot.due(invoked) } else { 0 };
        if booked == 0 {
            return;
        }
        let cost = elapsed.filter(|_| timed > 0).map(|e| e / invoked as u32);
        if let Some(stats) = &mut slot.stats {
            let outputs = (out.len() - span.out_before) as u64;
            // Cut short by a failure, the run left the element it failed
            // on at the head of `left`: its stamp stands in for the last
            // booked one, which the operator took.
            let last = left.first().map_or(arrivals.last, |el| el.ts);
            stats.observe_run(Arrivals { len: booked, last, ..arrivals }, cost, timed, outputs);
        }
        if let (Some(h), Some(c)) = (&slot.latency, cost) {
            for _ in 0..timed {
                h.record_duration(c);
            }
        }
    }

    /// Records hop `kind` on `slot` for each tuple in `sampled`.
    fn record(&self, kind: HopKind, slot: &SlotProbe) {
        let Some(tc) = &self.trace else {
            return;
        };
        for trace in &self.sampled {
            tc.tracer.record(trace.id(), kind, &slot.site, tc.partition);
        }
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
    use super::super::{Attach, DomainExecutor, ExecConfig, Target};
    use super::*;
    use crate::scheduler::strategy::StrategyKind;
    use crate::stats::tests::OneByOne;
    use hmts_graph::graph::NodeId;
    use hmts_obs::{trace_id, TraceConfig};
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::map::Map;
    use hmts_operators::traits::Operator;
    use hmts_streams::error::Result;
    use hmts_streams::time::Timestamp;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
        assert_eq!(s.selectivity(), Some(0.5));
        assert!(s.cost().is_some());
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
            assert_eq!(s.cost_samples, n.div_ceil(stride), "after {n} invocations");
        }
        assert_eq!(stats.snapshot().selectivity(), Some(4.0 / (3 * stride + 1) as f64));
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
            assert_eq!(s.cost_samples, wiring, "each wiring times its first invocation");
            assert_eq!(s.selectivity(), Some(0.5));
        }
    }

    /// How an operator fails at element *k* of a run.
    #[derive(Debug, Clone, Copy)]
    enum Failure {
        /// It returns `Err` on every element from *k* on, so each retry
        /// fails at its head and nothing behind *k* goes through.
        Err,
        /// It panics on *k*, closing the slot (no supervisor).
        Panic,
        /// The fault plan panics on *k*, cutting the run in front of it.
        FaultPlan,
    }

    /// An operator failing at element *k* of a run of 32 evenly stamped
    /// elements books exactly the *k* elements in front of it and their
    /// outputs, and a gap within one gap of what booking those *k* one at
    /// a time reads.
    #[test]
    fn a_run_failing_at_k_books_the_k_elements_in_front_of_it() {
        let step = 10u64;
        for k in [1u64, 2, 5, 31] {
            for failure in [Failure::Err, Failure::Panic, Failure::FaultPlan] {
                let op = Map::new("f", move |el, out| {
                    let v = el.tuple.field(0).as_int()? as u64;
                    match failure {
                        Failure::Err if v >= k => {
                            return Err(hmts_streams::error::StreamError::Other("boom".into()))
                        }
                        Failure::Panic if v == k => panic!("boom"),
                        _ => out.push(el.clone()),
                    }
                    Ok(())
                });
                let stats = crate::stats::shared_node_stats();
                let mut init = slot(1, Box::new(op), vec![]);
                init.stats = Some(Arc::clone(&stats));
                let plan = crate::failure::FaultPlan::seeded(1).panic_at("f", k + 1);
                if let Failure::FaultPlan = failure {
                    init.chaos = plan.operator_state("f");
                }
                let fifo = StrategyKind::Fifo.build(None);
                let mut exec =
                    DomainExecutor::new("d", vec![init], vec![], fifo, ExecConfig::default());
                let stamp = |v: u64| Timestamp::from_micros(v * step);
                let mut run: Vec<Element> =
                    (0..32).map(|v| Element::single(v as i64, stamp(v))).collect();
                exec.inject_batch(NodeId(1), 0, &mut run);
                let case = format!("k = {k}, {failure:?}");
                let s = stats.snapshot();
                assert_eq!((s.processed, s.outputs), (k, k), "{case}");
                let mut one_at_a_time = OneByOne::default();
                (0..k).for_each(|v| one_at_a_time.observe(stamp(v), None, 1));
                match (s.interarrival(), one_at_a_time.stats.interarrival()) {
                    (Some(gap), Some(want)) => {
                        let off = gap.max(want) - gap.min(want);
                        assert!(off <= Duration::from_micros(step), "{case}: {gap:?} for {want:?}");
                    }
                    (gap, want) => assert_eq!(gap, want, "{case}"),
                }
            }
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
    /// record reports it when fed a timing of every single call.
    fn sampled_and_per_call_cost(spin: Duration, calls: u64) -> (Duration, Duration) {
        let stats = crate::stats::shared_node_stats();
        let mut exec = observed(Box::new(Spin(spin)), &stats);
        for n in 0..calls {
            exec.inject(NodeId(1), 0, data(0, n));
        }
        let (mut op, mut out, mut per_call) = (Spin(spin), Output::new(), OneByOne::default());
        let el = Element::single(0, hmts_streams::time::Timestamp::ZERO);
        for _ in 0..calls {
            let start = Instant::now();
            op.process(0, &el, &mut out).unwrap();
            per_call.observe(el.ts, Some(start.elapsed()), 0);
        }
        let sampled = stats.snapshot();
        assert_eq!(sampled.cost_samples, calls.div_ceil(u64::from(COST_STRIDE)));
        (sampled.cost().unwrap(), per_call.stats.cost().unwrap())
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

    /// Passes its run on whole and writes down the longest it was handed.
    struct Longest(Arc<AtomicUsize>);

    impl Operator for Longest {
        fn name(&self) -> &str {
            "longest"
        }

        fn process(&mut self, _port: usize, el: &Element, out: &mut Output) -> Result<()> {
            out.push(el.clone());
            Ok(())
        }

        fn process_batch(
            &mut self,
            _port: usize,
            run: &mut Vec<Element>,
            out: &mut Output,
        ) -> Result<()> {
            self.0.fetch_max(run.len(), Ordering::Relaxed);
            out.append(run);
            Ok(())
        }
    }

    /// `ops` inline one after the other as nodes 1, 2, …, the last into a
    /// queue, traced by `tracer` if there is one.
    fn chain(
        ops: Vec<Box<dyn Operator>>,
        tracer: Option<&Arc<Tracer>>,
    ) -> (DomainExecutor, Arc<StreamQueue>) {
        let q = StreamQueue::unbounded("out");
        let n = ops.len();
        let slots = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| {
                let target = match i + 1 < n {
                    true => Target::Inline { node: NodeId(i + 2), port: 0 },
                    false => Target::Queue { queue: Arc::clone(&q), wake: None },
                };
                slot(i + 1, op, vec![target])
            })
            .collect();
        let cfg = ExecConfig::default();
        let mut exec = DomainExecutor::new("d", slots, vec![], StrategyKind::Fifo.build(None), cfg);
        let tracer = tracer.map(|t| (Arc::clone(t), 0));
        exec.attach(Attach { tracer, ..Attach::default() });
        (exec, q)
    }

    fn tracer() -> Arc<Tracer> {
        let cfg = TraceConfig { sample_every: 1, seed: 0, buffer_capacity: 1 << 12 };
        Arc::new(Tracer::new(cfg, Instant::now()))
    }

    /// Elements `0..n`, each sampled for tracing if `traced`.
    fn run_of(n: u64, traced: bool) -> Vec<Element> {
        let tag = |v| TraceTag::new(if traced { trace_id(0, v) } else { 0 });
        (0..n)
            .map(|v| Element::single(v as i64, Timestamp::from_micros(v)).with_trace(tag(v)))
            .collect()
    }

    /// The recorded hops per `(trace id, site, kind)`, with their times.
    fn hops(tracer: &Tracer) -> HashMap<(u64, String, HopKind), Vec<u64>> {
        let mut hops: HashMap<_, Vec<u64>> = HashMap::new();
        for s in tracer.snapshot() {
            hops.entry((s.trace_id, s.site.to_string(), s.kind)).or_default().push(s.t_ns);
        }
        hops
    }

    /// A run in which every tuple is sampled goes down a chain of five
    /// selections as the run it is: the operator behind them is handed all
    /// 32, the output is the untraced run's, and every tuple has its start
    /// and end at each operator and its queue entry.
    #[test]
    fn a_traced_run_goes_down_a_chain_whole() {
        let outcome = |tracer: Option<&Arc<Tracer>>| {
            let longest = Arc::new(AtomicUsize::new(0));
            let mut ops: Vec<Box<dyn Operator>> = (1..=5)
                .map(|i| {
                    Box::new(Filter::new(format!("f{i}"), Expr::bool(true))) as Box<dyn Operator>
                })
                .collect();
            ops.push(Box::new(Longest(Arc::clone(&longest))));
            let (mut exec, q) = chain(ops, tracer);
            exec.inject_batch(NodeId(1), 0, &mut run_of(32, tracer.is_some()));
            (q.drain(), longest.load(Ordering::Relaxed))
        };
        let (plain, _) = outcome(None);
        let tracer = tracer();
        let (traced, longest) = outcome(Some(&tracer));
        assert_eq!(longest, 32, "the run is not taken apart");
        assert_eq!(traced, plain);
        let hops = hops(&tracer);
        for (v, msg) in traced.iter().enumerate() {
            let id = trace_id(0, v as u64);
            assert_eq!(msg.as_data().unwrap().trace, TraceTag::new(id), "tuple {v} keeps its tag");
            let once = |site: &str, kind| match hops.get(&(id, site.to_string(), kind)) {
                Some(t) if t.len() == 1 => t[0],
                other => panic!("tuple {v}: {kind:?} at {site}: {other:?}"),
            };
            for site in ["f1", "f2", "f3", "f4", "f5", "longest"] {
                assert!(once(site, HopKind::ProcessStart) <= once(site, HopKind::ProcessEnd));
            }
            assert!(once("longest", HopKind::ProcessEnd) <= once("out", HopKind::QueueEnter));
        }
        assert_eq!(hops.len(), 32 * 13, "nothing else recorded");
    }

    /// An `Err` at element *k* of a traced run ends the call the run's
    /// tuples started in, and the tuples behind *k* start and end again in
    /// the next: at every site, each start has its end. The run is not
    /// taken apart for it.
    #[test]
    fn a_traced_run_failing_inside_balances_its_spans() {
        for k in [0, 5, 31] {
            let fail = Map::new("fail", move |el, out| {
                if el.tuple.field(0).as_int()? == k {
                    return Err(hmts_streams::error::StreamError::Other("boom".into()));
                }
                out.push(el.clone());
                Ok(())
            });
            let longest = Arc::new(AtomicUsize::new(0));
            let ops: Vec<Box<dyn Operator>> =
                vec![below_five_hundred(), Box::new(fail), Box::new(Longest(Arc::clone(&longest)))];
            let tracer = tracer();
            let (mut exec, q) = chain(ops, Some(&tracer));
            exec.inject_batch(NodeId(1), 0, &mut run_of(32, true));
            assert!(exec.error().is_some(), "k = {k}");
            assert_eq!(q.len(), 31, "k = {k}");
            // What went through either side of *k* goes on as one run.
            assert_eq!(longest.load(Ordering::Relaxed), 31, "k = {k}");
            let hops = hops(&tracer);
            for v in 0..32u64 {
                let id = trace_id(0, v);
                for site in ["f", "fail", "longest"] {
                    let count = |kind| hops.get(&(id, site.to_string(), kind)).map_or(0, Vec::len);
                    let (starts, ends) = (count(HopKind::ProcessStart), count(HopKind::ProcessEnd));
                    assert_eq!(starts, ends, "k = {k}, tuple {v} at {site}");
                    let reached = site != "longest" || v != k as u64;
                    assert_eq!(starts > 0, reached, "k = {k}, tuple {v} at {site}");
                }
            }
        }
    }

    fn below_five_hundred() -> Box<dyn Operator> {
        Box::new(Filter::new("f", Expr::field(0).lt(Expr::int(500))))
    }
}
