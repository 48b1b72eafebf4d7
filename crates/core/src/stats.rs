//! Runtime measurement of the scheduling metadata.
//!
//! The queue-placement heuristic assumes `c(v)` and `d(v)` "are meta data
//! provided by the DSMS during runtime" (§5.1.3). The engine provides them
//! here: every partition executor books what it processes into one
//! [`NodeStats`] record per node — exponentially weighted moving averages
//! of the per-element cost and the arrival gap, and the two counts a
//! selectivity is — and the engine snapshots them into the
//! [`hmts_graph::cost::CostInputs`] that placement and the Chain strategy
//! consume, closing the measure → partition → re-schedule loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hmts_graph::cost::CostInputs;
use hmts_graph::graph::NodeId;
use hmts_graph::topology::Topology;
use hmts_streams::time::Timestamp;

/// Weight of the newest cost sample in `c(v)`'s moving average.
const COST_ALPHA: f64 = 0.2;
/// Weight of the newest arrival gap in `d(v)`'s moving average.
const GAP_ALPHA: f64 = 0.1;

/// `mean` moved `alpha` of the way toward `x`; the first observation is
/// taken as it is.
fn ewma(mean: Option<f64>, x: f64, alpha: f64) -> Option<f64> {
    Some(mean.map_or(x, |m| m + alpha * (x - m)))
}

/// Statistics of one node: the six values a [`NodeStatsCell`] stores.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Elements processed (the selectivity's inputs, and the arrivals).
    pub processed: u64,
    /// Elements those inputs produced.
    pub outputs: u64,
    /// Stream timestamp of the latest element (zero before the first).
    pub last_arrival: Timestamp,
    /// Mean gap between arrivals in seconds (`d(v)`), once two arrived.
    pub mean_gap: Option<f64>,
    /// Mean per-element processing cost in seconds (`c(v)`), once timed.
    pub mean_cost: Option<f64>,
    /// How many timed samples the cost mean has taken.
    pub cost_samples: u64,
}

impl NodeStats {
    /// Records one processed element.
    pub fn observe(&mut self, ts: Timestamp, cost: Option<Duration>, outputs: u64) {
        self.observe_run(&[ts], cost, 1, outputs);
    }

    /// Records a run of processed elements — stamped `arrivals`, in order —
    /// that produced `outputs` elements between them. If the run was timed,
    /// `cost` is its mean per element and `samples` the number of elements
    /// in it that a per-element clock would have sampled: the cost counts
    /// that often, so the sample count does not depend on how a stream was
    /// cut into runs. A stamp earlier than the one before it is no gap, but
    /// still the latest arrival.
    pub fn observe_run(
        &mut self,
        arrivals: &[Timestamp],
        cost: Option<Duration>,
        samples: usize,
        outputs: u64,
    ) {
        if let Some(c) = cost {
            let c = c.as_secs_f64();
            for _ in 0..samples {
                self.mean_cost = ewma(self.mean_cost, c, COST_ALPHA);
            }
            self.cost_samples += samples as u64;
        }
        for &ts in arrivals {
            if self.processed > 0 && ts >= self.last_arrival {
                let gap = ts.since(self.last_arrival).as_secs_f64();
                self.mean_gap = ewma(self.mean_gap, gap, GAP_ALPHA);
            }
            self.last_arrival = ts;
            self.processed += 1;
        }
        self.outputs += outputs;
    }

    /// Estimated per-element cost, or `None` before any timed sample.
    pub fn cost(&self) -> Option<Duration> {
        self.mean_cost.map(Duration::from_secs_f64)
    }

    /// Outputs per input over the whole run, or `None` with no inputs.
    pub fn selectivity(&self) -> Option<f64> {
        (self.processed > 0).then(|| self.outputs as f64 / self.processed as f64)
    }

    /// Estimated mean gap between arrivals (`d(v)`), or `None` until two
    /// arrivals have been seen.
    pub fn interarrival(&self) -> Option<Duration> {
        self.mean_gap.map(Duration::from_secs_f64)
    }

    /// Estimated arrival rate in elements per second of stream time
    /// (`1/d(v)`), or `None` while the gap is unknown or zero.
    pub fn rate(&self) -> Option<f64> {
        self.mean_gap.filter(|&g| g > 0.0).map(|g| 1.0 / g)
    }
}

/// "No estimate yet" in a field holding an `f64`'s bits: a NaN, which no
/// cost or gap ever is.
const UNSET: u64 = 0x7ff8_0000_0000_0000;

fn estimate(bits: u64) -> Option<f64> {
    Some(f64::from_bits(bits)).filter(|v| !v.is_nan())
}

/// One node's live statistics: the fields of a [`NodeStats`], each in an
/// atomic of its own.
///
/// The cell has **one writer at a time** — the thread holding the node's
/// executor, or the source's own thread, through a [`StatsWriter`]; a mode
/// switch hands it over with the executor — so booking an element is plain
/// stores, no read-modify-write and no lock, and every element is visible
/// to [`snapshot`](Self::snapshot) the moment it is booked. A reader running
/// beside the writer may combine fields of two neighbouring elements (an
/// arrival gap one element older than the count, say); every consumer is
/// an estimator of a mean, which that cannot hurt. What a reader may rely
/// on: `processed` never decreases, and the outputs it sees were produced
/// by inputs it also sees, so a measured selectivity never exceeds the
/// operator's largest fan-out.
#[derive(Debug)]
pub struct NodeStatsCell {
    processed: AtomicU64,
    outputs: AtomicU64,
    /// Microseconds of the latest arrival's stamp.
    last_arrival: AtomicU64,
    /// Bits of the mean arrival gap in seconds, or [`UNSET`].
    mean_gap: AtomicU64,
    /// Bits of the mean cost in seconds, or [`UNSET`].
    mean_cost: AtomicU64,
    cost_samples: AtomicU64,
}

impl Default for NodeStatsCell {
    fn default() -> Self {
        NodeStatsCell {
            processed: AtomicU64::new(0),
            outputs: AtomicU64::new(0),
            last_arrival: AtomicU64::new(0),
            mean_gap: AtomicU64::new(UNSET),
            mean_cost: AtomicU64::new(UNSET),
            cost_samples: AtomicU64::new(0),
        }
    }
}

impl NodeStatsCell {
    /// Stores `s`; the cost fields only if its latest run was `timed`
    /// (they have not moved otherwise). Writer only.
    #[inline]
    fn publish(&self, s: &NodeStats, timed: bool) {
        if timed {
            self.mean_cost.store(s.mean_cost.map_or(UNSET, f64::to_bits), Ordering::Relaxed);
            self.cost_samples.store(s.cost_samples, Ordering::Relaxed);
        }
        self.mean_gap.store(s.mean_gap.map_or(UNSET, f64::to_bits), Ordering::Relaxed);
        self.last_arrival.store(s.last_arrival.as_micros(), Ordering::Relaxed);
        self.processed.store(s.processed, Ordering::Relaxed);
        // Release, paired with the Acquire in `snapshot`: whoever sees
        // these outputs also sees the inputs that produced them.
        self.outputs.store(s.outputs, Ordering::Release);
    }

    /// The statistics as of the latest booked element — the one way to
    /// read the cell.
    #[inline]
    pub fn snapshot(&self) -> NodeStats {
        let outputs = self.outputs.load(Ordering::Acquire);
        NodeStats {
            processed: self.processed.load(Ordering::Relaxed),
            outputs,
            last_arrival: Timestamp::from_micros(self.last_arrival.load(Ordering::Relaxed)),
            mean_gap: estimate(self.mean_gap.load(Ordering::Relaxed)),
            mean_cost: estimate(self.mean_cost.load(Ordering::Relaxed)),
            cost_samples: self.cost_samples.load(Ordering::Relaxed),
        }
    }
}

/// Shared handle to one node's statistics (executor writes, engine reads).
pub type SharedNodeStats = Arc<NodeStatsCell>;

/// The writing end of a cell, held by its one writer for as long as it is
/// the writer: a [`NodeStats`] beside the cell, seeded from it once.
/// Booking an element updates that record and *stores* it — the cell is
/// never read back, so a hop pays a handful of relaxed stores, per run
/// and not per element, and not the six loads of a snapshot first. Every
/// element is in the cell when [`observe`](Self::observe) or
/// [`observe_run`](Self::observe_run) returns, and the next writer (a mode
/// switch builds new executors around the same cells) seeds itself from
/// what this one left there.
#[derive(Debug)]
pub struct StatsWriter {
    cell: SharedNodeStats,
    mirror: NodeStats,
}

impl StatsWriter {
    /// Takes over writing `cell`, continuing from what it holds.
    pub fn new(cell: SharedNodeStats) -> StatsWriter {
        StatsWriter { mirror: cell.snapshot(), cell }
    }

    /// Books one processed element stamped `ts` that produced `outputs`
    /// elements, and its cost if this invocation was timed.
    #[inline]
    pub fn observe(&mut self, ts: Timestamp, cost: Option<Duration>, outputs: u64) {
        self.observe_run(&[ts], cost, 1, outputs);
    }

    /// Books a run of processed elements (see [`NodeStats::observe_run`])
    /// and publishes once: the cell shows the whole run or nothing of it.
    #[inline]
    pub fn observe_run(
        &mut self,
        arrivals: &[Timestamp],
        cost: Option<Duration>,
        samples: usize,
        outputs: u64,
    ) {
        if arrivals.is_empty() {
            return;
        }
        self.mirror.observe_run(arrivals, cost, samples, outputs);
        self.cell.publish(&self.mirror, cost.is_some() && samples > 0);
    }
}

/// Creates a fresh shared statistics cell (convenience for harnesses that
/// drive a [`crate::engine::executor::DomainExecutor`] directly).
pub fn shared_node_stats() -> SharedNodeStats {
    Arc::default()
}

/// An immutable snapshot of one node's statistics.
#[derive(Debug, Clone)]
pub struct NodeStatsSnapshot {
    /// The node.
    pub node: NodeId,
    /// The node's name.
    pub name: String,
    /// Measured per-element cost, if any element was processed.
    pub cost: Option<Duration>,
    /// Measured selectivity, if any element was processed.
    pub selectivity: Option<f64>,
    /// Measured input rate (elements/second of stream time), if observable.
    pub rate: Option<f64>,
    /// Total elements processed.
    pub processed: u64,
}

/// Statistics for every node of a topology.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Per-node snapshots, indexed by node id.
    pub nodes: Vec<NodeStatsSnapshot>,
}

impl StatsSnapshot {
    /// Collects a snapshot from the shared per-node stats.
    pub fn collect(topo: &Topology, stats: &[SharedNodeStats]) -> StatsSnapshot {
        let nodes = stats
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let s = s.snapshot();
                NodeStatsSnapshot {
                    node: NodeId(i),
                    name: topo.name(NodeId(i)).to_string(),
                    cost: s.cost(),
                    selectivity: s.selectivity(),
                    rate: s.rate(),
                    processed: s.processed,
                }
            })
            .collect();
        StatsSnapshot { nodes }
    }

    /// The snapshot of one node.
    pub fn node(&self, id: NodeId) -> &NodeStatsSnapshot {
        &self.nodes[id.0]
    }

    /// Converts measured statistics into placement inputs: measured source
    /// rates, operator costs, and selectivities, where observed.
    pub fn to_cost_inputs(&self, topo: &Topology) -> CostInputs {
        let mut inputs = CostInputs::default();
        for snap in &self.nodes {
            if topo.is_source(snap.node) {
                if let Some(r) = snap.rate {
                    inputs.source_rates.insert(snap.node, r);
                }
            } else {
                if let Some(c) = snap.cost {
                    inputs.costs.insert(snap.node, c);
                }
                if let Some(s) = snap.selectivity {
                    inputs.selectivities.insert(snap.node, s);
                }
            }
        }
        inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_graph::graph::QueryGraph;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::traits::Source;
    use hmts_streams::tuple::Tuple;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::prelude::*;

    struct S;
    impl Source for S {
        fn name(&self) -> &str {
            "s"
        }
        fn next(&mut self) -> Option<(Timestamp, Tuple)> {
            None
        }
    }

    fn topo() -> Topology {
        let mut g = QueryGraph::new();
        let s = g.add_source(Box::new(S));
        let f = g.add_operator(Box::new(Filter::new("f", Expr::bool(true))));
        g.connect(s, f);
        g.decompose().0
    }

    #[test]
    fn observe_accumulates() {
        let mut n = NodeStats::default();
        n.observe(Timestamp::from_millis(10), Some(Duration::from_micros(5)), 1);
        n.observe(Timestamp::from_millis(20), Some(Duration::from_micros(5)), 0);
        assert_eq!(n.processed, 2);
        assert_eq!(n.selectivity(), Some(0.5));
        assert!(n.cost().unwrap() >= Duration::from_micros(4));
        assert!((n.interarrival().unwrap().as_secs_f64() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn the_first_observation_is_exact() {
        let mut n = NodeStats::default();
        assert_eq!(
            (n.cost(), n.interarrival(), n.rate(), n.selectivity()),
            (None, None, None, None)
        );
        let cost = Duration::from_micros(10);
        n.observe(Timestamp::from_secs(3), Some(cost), 0);
        assert_eq!(n.mean_cost, Some(cost.as_secs_f64()));
        assert_eq!(n.mean_gap, None, "one arrival is no gap");
        n.observe(Timestamp::from_secs(5), None, 0);
        assert_eq!(n.mean_gap, Some(2.0));
        assert_eq!(n.mean_cost, Some(cost.as_secs_f64()), "an untimed element leaves the cost");
    }

    #[test]
    fn a_backwards_stamp_is_not_a_gap() {
        let mut n = NodeStats::default();
        n.observe(Timestamp::from_secs(10), None, 0);
        n.observe(Timestamp::from_secs(5), None, 0);
        assert_eq!(n.mean_gap, None);
        assert_eq!(n.last_arrival, Timestamp::from_secs(5), "but it is the latest arrival");
        n.observe(Timestamp::from_secs(6), None, 0);
        assert_eq!(n.mean_gap, Some(1.0));
        assert_eq!(n.processed, 3);
    }

    #[test]
    fn the_gap_mean_converges_to_a_new_level() {
        let mut n = NodeStats::default();
        let mut t = 0;
        for _ in 0..10 {
            t += 1;
            n.observe(Timestamp::from_secs(t), None, 0);
        }
        assert_eq!(n.mean_gap, Some(1.0));
        for _ in 0..200 {
            t += 100;
            n.observe(Timestamp::from_secs(t), None, 0);
        }
        assert!((n.mean_gap.unwrap() - 100.0).abs() < 1e-3, "gap={:?}", n.mean_gap);
    }

    #[test]
    fn gaps_give_interarrival_and_rate() {
        let mut n = NodeStats::default();
        for i in 0..100u64 {
            n.observe(Timestamp::from_millis(i * 10), None, 0);
        }
        let gap = n.interarrival().unwrap();
        assert!((gap.as_secs_f64() - 0.010).abs() < 1e-4, "gap={gap:?}");
        let rate = n.rate().unwrap();
        assert!((rate - 100.0).abs() < 2.0, "rate={rate}");
        // Arrivals at one instant: a gap of zero, and no rate.
        let mut burst = NodeStats::default();
        burst.observe_run(&[Timestamp::from_secs(1); 4], None, 0, 0);
        assert_eq!((burst.mean_gap, burst.rate()), (Some(0.0), None));
    }

    #[test]
    fn selectivity_is_outputs_over_processed() {
        let mut n = NodeStats::default();
        for outputs in [0, 1, 1, 0] {
            n.observe(Timestamp::ZERO, None, outputs);
        }
        assert_eq!(n.selectivity(), Some(0.5));
        n.observe_run(&[Timestamp::ZERO; 4], None, 0, 10);
        assert_eq!((n.processed, n.outputs, n.selectivity()), (8, 12, Some(1.5)));
    }

    #[test]
    fn the_cost_mean_tracks_its_samples() {
        let mut n = NodeStats::default();
        for _ in 0..50 {
            n.observe(Timestamp::ZERO, Some(Duration::from_micros(100)), 0);
        }
        let est = n.cost().unwrap();
        assert!(est >= Duration::from_micros(99) && est <= Duration::from_micros(101));
        assert_eq!(n.cost_samples, 50);
        // A timed run counts its mean once per sample in it; an untimed
        // run does not count.
        n.observe_run(&[Timestamp::ZERO; 32], None, 0, 0);
        assert_eq!((n.cost_samples, n.cost()), (50, Some(est)));
        for _ in 0..20 {
            n.observe_run(&[Timestamp::ZERO; 32], Some(Duration::from_micros(300)), 3, 0);
        }
        assert_eq!(n.cost_samples, 110);
        assert!((n.cost().unwrap().as_secs_f64() - 300e-6).abs() < 1e-9, "{:?}", n.cost());
    }

    #[test]
    fn cell_books_what_the_plain_estimators_book() {
        // Two ways to book the same hundred elements: a plain record, and
        // a cell behind a writer's record — handed from one writer to the
        // next halfway, as a mode switch does.
        let cell = shared_node_stats();
        let mut plain = NodeStats::default();
        assert_eq!(cell.snapshot(), plain);
        let mut writer = StatsWriter::new(Arc::clone(&cell));
        for i in 0..100u64 {
            let cost = (i % 7 == 0).then(|| Duration::from_nanos(500 + i));
            plain.observe(Timestamp::from_micros(i * i), cost, i % 3);
            writer.observe(Timestamp::from_micros(i * i), cost, i % 3);
            assert_eq!(cell.snapshot().processed, i + 1, "visible once booked");
            if i == 49 {
                writer = StatsWriter::new(Arc::clone(&cell));
            }
        }
        assert_eq!(cell.snapshot(), plain, "element by element");
        // A third way: the same elements booked in runs of 1 to 7 — a run's
        // outputs in one sum, its cost once per timed element in it (at
        // most one here: above, every timed element has a cost of its own,
        // and a run has one cost).
        let by_run = shared_node_stats();
        let mut writer = StatsWriter::new(Arc::clone(&by_run));
        let (mut from, mut len) = (0u64, 1u64);
        while from < 100 {
            let run = from..(from + len).min(100);
            let arrivals: Vec<Timestamp> =
                run.clone().map(|i| Timestamp::from_micros(i * i)).collect();
            let timed = run.clone().filter(|i| i % 7 == 0).count();
            assert!(timed <= 1);
            let cost = run.clone().find(|i| i % 7 == 0).map(|i| Duration::from_nanos(500 + i));
            writer.observe_run(&arrivals, cost, timed, run.clone().map(|i| i % 3).sum());
            assert_eq!(by_run.snapshot().processed, run.end, "a run is visible once booked");
            (from, len) = (run.end, len % 7 + 1);
        }
        assert_eq!(by_run.snapshot(), plain, "run by run");
    }

    /// The booking rules stated a second time, in the shape of separate
    /// estimators — each with its own count, the gap's with an optional
    /// previous arrival — to check the record against.
    #[derive(Default)]
    struct Rules {
        cost: Option<f64>,
        cost_samples: u64,
        inputs: u64,
        outputs: u64,
        gap: Option<f64>,
        last: Option<Timestamp>,
        arrivals: u64,
    }

    impl Rules {
        fn ewma(mean: &mut Option<f64>, alpha: f64, x: f64) {
            *mean = Some(match *mean {
                None => x,
                Some(m) => m + alpha * (x - m),
            });
        }

        fn book(&mut self, run: &[Timestamp], cost: Option<Duration>, samples: usize, out: u64) {
            if let Some(c) = cost {
                for _ in 0..samples {
                    Self::ewma(&mut self.cost, 0.2, c.as_secs_f64());
                    self.cost_samples += 1;
                }
            }
            self.inputs += run.len() as u64;
            self.outputs += out;
            for &t in run {
                if let Some(prev) = self.last {
                    if t >= prev {
                        Self::ewma(&mut self.gap, 0.1, t.since(prev).as_secs_f64());
                    }
                }
                self.last = Some(t);
                self.arrivals += 1;
            }
        }

        fn record(&self) -> NodeStats {
            assert_eq!(self.inputs, self.arrivals);
            NodeStats {
                processed: self.inputs,
                outputs: self.outputs,
                last_arrival: self.last.unwrap_or(Timestamp::ZERO),
                mean_gap: self.gap,
                mean_cost: self.cost,
                cost_samples: self.cost_samples,
            }
        }
    }

    /// Books a stream derived from `seed` through a cell, in runs of 1–32
    /// as an executor does, and through [`Rules`]; `Err` names the first
    /// run after which the two disagree. The stamps repeat and step back,
    /// one element in five is a timed invocation (a run's cost is its
    /// mean, counted once per timed element), the outputs are arbitrary,
    /// and the cell changes writers once, at a generated run.
    fn booked_against_the_rules(seed: u64) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = shared_node_stats();
        let mut writer = StatsWriter::new(Arc::clone(&cell));
        let mut rules = Rules::default();
        let runs = rng.gen_range(1..40);
        let handover = rng.gen_range(0..=runs);
        let mut t: u64 = rng.gen_range(0..1_000_000);
        for r in 0..runs {
            if r == handover {
                writer = StatsWriter::new(Arc::clone(&cell));
            }
            let len = rng.gen_range(1..=32usize);
            let mut arrivals = Vec::with_capacity(len);
            for _ in 0..len {
                t = match rng.gen_range(0..4) {
                    0 => t,
                    1 => t.saturating_sub(rng.gen_range(1..500)),
                    _ => t + rng.gen_range(1..2_000u64),
                };
                arrivals.push(Timestamp::from_micros(t));
            }
            let samples = (0..len).filter(|_| rng.gen_bool(0.2)).count();
            let cost = (samples > 0).then(|| Duration::from_nanos(rng.gen_range(1..100_000)));
            let outputs = rng.gen_range(0..=3 * len as u64);
            writer.observe_run(&arrivals, cost, samples, outputs);
            rules.book(&arrivals, cost, samples, outputs);
            let (cell, rules) = (cell.snapshot(), rules.record());
            if cell != rules {
                return Err(format!("after run {r} of {runs}: cell {cell:?}, rules {rules:?}"));
            }
        }
        Ok(())
    }

    proptest! {
        /// A failing case names its seed; `booked_against_the_rules(seed)`
        /// replays it.
        #[test]
        fn a_cell_booked_in_runs_holds_the_rules_numbers_bit_for_bit(seed in any::<u64>()) {
            if let Err(why) = booked_against_the_rules(seed) {
                return Err(TestCaseError::fail(format!("seed {seed}: {why}")));
            }
        }
    }

    #[test]
    fn a_reader_beside_the_writer_sees_counts_grow_and_outputs_covered_by_inputs() {
        const ELEMENTS: u64 = 1_000_000;
        const FAN_OUT: u64 = 3;
        let cell = shared_node_stats();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut last, mut snapshots) = (0, 0u64);
                while !done.load(Ordering::Acquire) {
                    let s = cell.snapshot();
                    assert!(s.processed >= last, "processed went {last} -> {}", s.processed);
                    let (inputs, outputs) = (s.processed, s.outputs);
                    assert!(outputs <= inputs * FAN_OUT, "{outputs} outputs of {inputs} inputs");
                    last = s.processed;
                    snapshots += 1;
                }
                snapshots
            });
            let mut writer = StatsWriter::new(Arc::clone(&cell));
            for i in 0..ELEMENTS {
                writer.observe(Timestamp::from_micros(i), None, FAN_OUT);
            }
            done.store(true, Ordering::Release);
            assert!(reader.join().expect("reader's assertions hold") > 0);
        });
        let s = cell.snapshot();
        assert_eq!(s.processed, ELEMENTS);
        assert_eq!(s.selectivity(), Some(FAN_OUT as f64));
        assert_eq!(s.last_arrival, Timestamp::from_micros(ELEMENTS - 1));
    }

    #[test]
    fn snapshot_collects_and_converts() {
        let topo = topo();
        let stats: Vec<SharedNodeStats> = (0..2).map(|_| shared_node_stats()).collect();
        // Source saw elements 100 ms apart (rate 10/s); filter halves.
        let mut writers: Vec<StatsWriter> = stats.iter().cloned().map(StatsWriter::new).collect();
        for i in 0..50u64 {
            writers[0].observe(Timestamp::from_millis(i * 100), None, 1);
            writers[1].observe(
                Timestamp::from_millis(i * 100),
                Some(Duration::from_micros(2)),
                i % 2,
            );
        }
        let snap = StatsSnapshot::collect(&topo, &stats);
        assert_eq!(snap.node(NodeId(1)).name, "f");
        assert_eq!(snap.node(NodeId(1)).processed, 50);
        let rate = snap.node(NodeId(0)).rate.unwrap();
        assert!((rate - 10.0).abs() < 0.5, "rate={rate}");

        let inputs = snap.to_cost_inputs(&topo);
        assert!(inputs.source_rates.contains_key(&NodeId(0)));
        assert!(inputs.costs.contains_key(&NodeId(1)));
        let sel = inputs.selectivities[&NodeId(1)];
        assert!((sel - 0.5).abs() < 0.05, "sel={sel}");
    }

    #[test]
    fn empty_stats_produce_empty_inputs() {
        let topo = topo();
        let stats: Vec<SharedNodeStats> = (0..2).map(|_| shared_node_stats()).collect();
        let snap = StatsSnapshot::collect(&topo, &stats);
        let inputs = snap.to_cost_inputs(&topo);
        assert!(inputs.source_rates.is_empty());
        assert!(inputs.costs.is_empty());
        assert!(inputs.selectivities.is_empty());
        assert_eq!(snap.node(NodeId(0)).processed, 0);
    }
}
