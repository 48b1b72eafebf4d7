//! Runtime measurement of the scheduling metadata.
//!
//! The queue-placement heuristic assumes `c(v)` and `d(v)` "are meta data
//! provided by the DSMS during runtime" (§5.1.3). The engine provides them
//! here: every partition executor feeds per-node estimators while it
//! processes, and the engine snapshots them into the
//! [`hmts_graph::cost::CostInputs`] that placement and the Chain strategy
//! consume — closing the measure → partition → re-schedule loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hmts_graph::cost::CostInputs;
use hmts_graph::graph::NodeId;
use hmts_graph::topology::Topology;
use hmts_streams::metrics::{CostEstimator, InterArrivalEstimator, SelectivityEstimator};
use hmts_streams::time::Timestamp;

/// Statistics of one node: what a [`NodeStatsCell`] holds, as plain values.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Per-element processing cost estimator (`c(v)`).
    pub cost: CostEstimator,
    /// Selectivity estimator (outputs per input).
    pub selectivity: SelectivityEstimator,
    /// Inter-arrival estimator over element stream timestamps (`d(v)`).
    pub arrivals: InterArrivalEstimator,
    /// Total elements processed.
    pub processed: u64,
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
    /// cut into runs.
    pub fn observe_run(
        &mut self,
        arrivals: &[Timestamp],
        cost: Option<Duration>,
        samples: usize,
        outputs: u64,
    ) {
        if let Some(c) = cost {
            for _ in 0..samples {
                self.cost.observe(c);
            }
        }
        self.selectivity.observe_run(arrivals.len() as u64, outputs);
        for &ts in arrivals {
            self.arrivals.observe(ts);
        }
        self.processed += arrivals.len() as u64;
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
    /// Elements processed: also the selectivity's inputs and the arrival
    /// count, which advance together.
    processed: AtomicU64,
    outputs: AtomicU64,
    last_arrival: AtomicU64,
    /// Bits of the mean arrival gap in seconds, or [`UNSET`].
    gap: AtomicU64,
    /// Bits of the mean cost in seconds, or [`UNSET`].
    cost: AtomicU64,
    cost_samples: AtomicU64,
}

impl Default for NodeStatsCell {
    fn default() -> Self {
        NodeStatsCell {
            processed: AtomicU64::new(0),
            outputs: AtomicU64::new(0),
            last_arrival: AtomicU64::new(0),
            gap: AtomicU64::new(UNSET),
            cost: AtomicU64::new(UNSET),
            cost_samples: AtomicU64::new(0),
        }
    }
}

impl NodeStatsCell {
    /// Stores `s`, whose latest element was stamped `ts`; the cost fields
    /// only if that element was `timed` (they have not moved otherwise).
    /// Writer only.
    #[inline]
    fn publish(&self, s: &NodeStats, ts: Timestamp, timed: bool) {
        if timed {
            self.cost.store(s.cost.mean_secs().map_or(UNSET, f64::to_bits), Ordering::Relaxed);
            self.cost_samples.store(s.cost.samples(), Ordering::Relaxed);
        }
        self.gap.store(s.arrivals.mean_gap_secs().map_or(UNSET, f64::to_bits), Ordering::Relaxed);
        self.last_arrival.store(ts.as_micros(), Ordering::Relaxed);
        self.processed.store(s.processed, Ordering::Relaxed);
        // Release, paired with the Acquire in `snapshot`: whoever sees
        // these outputs also sees the inputs that produced them.
        self.outputs.store(s.selectivity.outputs(), Ordering::Release);
    }

    /// The statistics as of the latest booked element — the one way to
    /// read the cell.
    #[inline]
    pub fn snapshot(&self) -> NodeStats {
        let outputs = self.outputs.load(Ordering::Acquire);
        let processed = self.processed.load(Ordering::Relaxed);
        let last = Timestamp::from_micros(self.last_arrival.load(Ordering::Relaxed));
        NodeStats {
            cost: CostEstimator::from_parts(
                estimate(self.cost.load(Ordering::Relaxed)),
                self.cost_samples.load(Ordering::Relaxed),
            ),
            selectivity: SelectivityEstimator::from_parts(processed, outputs),
            arrivals: InterArrivalEstimator::from_parts(
                estimate(self.gap.load(Ordering::Relaxed)),
                (processed > 0).then_some(last),
                processed,
            ),
            processed,
        }
    }
}

/// Shared handle to one node's statistics (executor writes, engine reads).
pub type SharedNodeStats = Arc<NodeStatsCell>;

/// The writing end of a cell, held by its one writer for as long as it is
/// the writer: a plain [`NodeStats`] beside the cell, seeded from it once.
/// Booking an element updates the plain values and *stores* them — the cell
/// is never read back, so a hop pays a handful of relaxed stores — per
/// run, not per element — and not the six loads and three estimator
/// rebuilds of a snapshot first. Every element is in the cell when
/// [`observe`](Self::observe) or [`observe_run`](Self::observe_run)
/// returns, and the next writer (a mode switch builds new executors around
/// the same cells) seeds itself from what this one left there.
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
        let Some(&last) = arrivals.last() else {
            return;
        };
        self.mirror.observe_run(arrivals, cost, samples, outputs);
        self.cell.publish(&self.mirror, last, cost.is_some() && samples > 0);
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
                    cost: s.cost.cost(),
                    selectivity: s.selectivity.selectivity(),
                    rate: s.arrivals.rate(),
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
        assert_eq!(n.selectivity.selectivity(), Some(0.5));
        assert!(n.cost.cost().unwrap() >= Duration::from_micros(4));
        assert!((n.arrivals.interarrival().unwrap().as_secs_f64() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn cell_books_what_the_plain_estimators_book() {
        // Two ways to book the same hundred elements: the plain
        // estimators, and a cell behind a writer's mirror — handed from
        // one writer to the next halfway, as a mode switch does.
        let cell = shared_node_stats();
        let mut plain = NodeStats::default();
        assert!(cell.snapshot().cost.cost().is_none() && cell.snapshot().arrivals.rate().is_none());
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
        let same = |s: &NodeStats, what: &str| {
            assert_eq!(s.processed, plain.processed, "{what}");
            assert_eq!(s.cost.cost(), plain.cost.cost(), "{what}");
            assert_eq!(s.cost.samples(), plain.cost.samples(), "{what}");
            assert_eq!(s.selectivity.selectivity(), plain.selectivity.selectivity(), "{what}");
            assert_eq!(s.arrivals.interarrival(), plain.arrivals.interarrival(), "{what}");
            assert_eq!(s.arrivals.count(), plain.arrivals.count(), "{what}");
        };
        same(&cell.snapshot(), "element by element");
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
        same(&by_run.snapshot(), "run by run");
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
                    let (inputs, outputs) = (s.selectivity.inputs(), s.selectivity.outputs());
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
        assert_eq!(s.selectivity.selectivity(), Some(FAN_OUT as f64));
        assert_eq!(s.arrivals.count(), ELEMENTS);
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
