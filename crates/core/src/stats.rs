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
//!
//! A run of elements is booked in one step whose price does not depend on
//! its length: the run is its [`Arrivals`] — input port, length, first and
//! last stamp — plus its outputs and, if it was timed, its mean cost. The
//! gap mean is kept per input port and moved once per run by the weight
//! the run's gaps would have had one at a time; the node's `d(v)` combines
//! its ports the way rates add, so a union reads the sum of its inputs'
//! rates however its ports' runs interleave, and an input that has ended
//! leaves the sum once the node's stream time has passed its next arrival.
//! [`StatsWriter::observe_run`] is the one way a run is booked.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hmts_graph::cost::CostInputs;
use hmts_graph::graph::NodeId;
use hmts_graph::topology::Topology;
use hmts_streams::element::Element;
use hmts_streams::time::Timestamp;

/// Weight of the newest cost sample in `c(v)`'s moving average.
const COST_ALPHA: f64 = 0.2;
/// Weight of the newest arrival gap in `d(v)`'s moving average.
const GAP_ALPHA: f64 = 0.1;

/// `mean` after `k` ≥ 1 samples, all equal to `x`, each moving it `alpha`
/// of the way toward itself — `1 − (1 − alpha)^k` of the way in one step
/// (`alpha` itself for one sample, to the bit); the first observation is
/// taken as it is.
#[inline]
fn ewma(mean: Option<f64>, x: f64, alpha: f64, k: u64) -> Option<f64> {
    let weight = match k {
        1 => alpha,
        k => 1.0 - (1.0 - alpha).powi(k.min(i32::MAX as u64) as i32),
    };
    Some(mean.map_or(x, |m| m + weight * (x - m)))
}

/// A run of elements as the statistics book its arrivals: the input port
/// it came in on, how many elements it held, and the first and last of
/// their stamps — everything in between is taken to be evenly spaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrivals {
    /// The input port.
    pub port: usize,
    /// Elements in the run.
    pub len: usize,
    /// Stamp of the run's first element.
    pub first: Timestamp,
    /// Stamp of the run's last element.
    pub last: Timestamp,
}

impl Arrivals {
    /// The arrivals of `run` on `port`, or `None` for an empty run.
    #[inline]
    pub fn of(port: usize, run: &[Element]) -> Option<Arrivals> {
        let (first, last) = (run.first()?.ts, run.last()?.ts);
        Some(Arrivals { port, len: run.len(), first, last })
    }
}

/// One input port's arrivals: its latest stamp, its gap mean, and whether
/// it has seen end-of-stream.
#[derive(Debug, Clone, Copy)]
struct Port {
    last: Option<Timestamp>,
    mean_gap: Option<f64>,
    closed: bool,
}

impl Port {
    /// Books `run`: the gaps it adds — one per element, less the first on
    /// a port with no arrival before it — count as equal, so the mean
    /// moves toward their mean with the weight they would have one at a
    /// time. A run ending before the port's latest arrival adds no gap;
    /// its last stamp is the latest arrival all the same.
    fn book(&mut self, run: &Arrivals) {
        let (from, gaps) = match self.last {
            Some(last) => (last, run.len as u64),
            None => (run.first, run.len.saturating_sub(1) as u64),
        };
        if gaps > 0 && run.last >= from {
            let span = (run.last.as_micros() - from.as_micros()) as f64;
            self.mean_gap = ewma(self.mean_gap, span / (gaps as f64 * 1e6), GAP_ALPHA, gaps);
        }
        self.last = Some(run.last);
    }
}

/// A node's gap mean from its ports': arrival rates add, so gaps combine
/// as `1 / Σ 1/d_p` — a port's own mean while it is the only one with one.
fn combined_gap(ports: &[Port]) -> Option<f64> {
    let mut gaps = ports.iter().filter_map(|p| p.mean_gap);
    let first = gaps.next()?;
    Some(gaps.fold(first, |d, g| 1.0 / (1.0 / d + 1.0 / g)))
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
    /// Mean gap between arrivals in seconds (`d(v)`), once two arrived on
    /// one port; over several ports, the gap of their added rates.
    pub mean_gap: Option<f64>,
    /// Mean per-element processing cost in seconds (`c(v)`), once timed.
    pub mean_cost: Option<f64>,
    /// How many timed samples the cost mean has taken.
    pub cost_samples: u64,
}

impl NodeStats {
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
/// switch hands it over with the executor — so booking a run is plain
/// stores, no read-modify-write and no lock, and every run is visible to
/// [`snapshot`](Self::snapshot) the moment it is booked. A reader running
/// beside the writer may combine fields of two neighbouring runs (an
/// arrival gap one run older than the count, say); every consumer is
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

    /// The statistics as of the latest booked run — the one way to
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
/// the writer: a [`NodeStats`] beside the cell, and the per-port arrival
/// state its gap and latest arrival combine, seeded from the cell once.
/// Booking a run updates that record and *stores* it — the cell is never
/// read back, so a run costs a handful of relaxed stores and a few
/// floating-point operations whatever its length, and not the six loads of
/// a snapshot first. Every run is in the cell when
/// [`observe_run`](Self::observe_run) returns, and the next writer (a mode
/// switch builds new executors around the same cells) seeds itself from
/// what this one left there.
///
/// A port that has seen end-of-stream ([`close`](Self::close)) counts in
/// the node's rate until the node's latest arrival is more than one of its
/// gaps past its own last — until it would have had its next arrival — so
/// a union whose one input ended reads the other's rate from then on.
#[derive(Debug)]
pub struct StatsWriter {
    cell: SharedNodeStats,
    mirror: NodeStats,
    /// Each input port's arrivals, by port.
    ports: Vec<Port>,
}

impl StatsWriter {
    /// Takes over writing `cell` for a node whose input ports are open as
    /// `open` says (one entry a port), continuing from what the cell
    /// holds: every port from the cell's latest arrival, each open one
    /// with an equal share of its rate, a closed one with none.
    pub fn new(cell: SharedNodeStats, open: &[bool]) -> StatsWriter {
        let mirror = cell.snapshot();
        let last = (mirror.processed > 0).then_some(mirror.last_arrival);
        let live = open.iter().filter(|&&open| open).count() as f64;
        let ports = open
            .iter()
            .map(|&open| Port {
                last,
                mean_gap: mirror.mean_gap.filter(|_| open).map(|gap| gap * live),
                closed: !open,
            })
            .collect();
        StatsWriter { cell, mirror, ports }
    }

    /// Books a run of processed elements that produced `outputs` elements
    /// between them, and publishes once: the cell shows the whole run or
    /// nothing of it. If the run was timed, `cost` is its mean per element
    /// and `samples` the number of timed invocations in it — the cost
    /// counts that often, so the sample count does not depend on how a
    /// stream was cut into runs.
    #[inline]
    pub fn observe_run(
        &mut self,
        run: Arrivals,
        cost: Option<Duration>,
        samples: usize,
        outputs: u64,
    ) {
        if run.len == 0 {
            return;
        }
        self.ports[run.port].book(&run);
        self.combine();
        let timed = cost.filter(|_| samples > 0);
        if let Some(c) = timed {
            let m = &mut self.mirror;
            m.mean_cost = ewma(m.mean_cost, c.as_secs_f64(), COST_ALPHA, samples as u64);
            m.cost_samples += samples as u64;
        }
        self.mirror.processed += run.len as u64;
        self.mirror.outputs += outputs;
        self.cell.publish(&self.mirror, timed.is_some());
    }

    /// Books end-of-stream on `port` and publishes the node's gap.
    pub fn close(&mut self, port: usize) {
        self.ports[port].closed = true;
        self.combine();
        self.cell.publish(&self.mirror, false);
    }

    /// The node's latest arrival and gap from its ports': first the gap
    /// of every closed port the latest arrival has passed by more than
    /// that gap stops counting.
    #[inline]
    fn combine(&mut self) {
        let Some(latest) = self.ports.iter().filter_map(|p| p.last).max() else {
            return;
        };
        for port in self.ports.iter_mut().filter(|p| p.closed) {
            if let (Some(last), Some(gap)) = (port.last, port.mean_gap) {
                if latest.since(last).as_secs_f64() > gap {
                    port.mean_gap = None;
                }
            }
        }
        self.mirror.last_arrival = latest;
        self.mirror.mean_gap = combined_gap(&self.ports);
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
pub(crate) mod tests {
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

    /// The per-element rules written out on their own, as plain
    /// estimators: each arrival one step of the gap mean (a stamp behind
    /// the latest none), each timed element one step of the cost mean —
    /// the reference that booking in runs is checked against.
    #[derive(Debug, Default)]
    pub(crate) struct OneByOne {
        last: Option<Timestamp>,
        pub(crate) stats: NodeStats,
    }

    impl OneByOne {
        /// Books one element stamped `ts` that produced `outputs`, timed
        /// at `cost` if given.
        pub(crate) fn observe(&mut self, ts: Timestamp, cost: Option<Duration>, outputs: u64) {
            let step = |mean: &mut Option<f64>, alpha: f64, x: f64| {
                *mean = Some(mean.map_or(x, |m| m + alpha * (x - m)));
            };
            let s = &mut self.stats;
            if let Some(last) = self.last.filter(|&last| ts >= last) {
                step(&mut s.mean_gap, 0.1, (ts.as_micros() - last.as_micros()) as f64 / 1e6);
            }
            if let Some(c) = cost {
                step(&mut s.mean_cost, 0.2, c.as_secs_f64());
                s.cost_samples += 1;
            }
            self.last = Some(ts);
            (s.processed, s.outputs, s.last_arrival) = (s.processed + 1, s.outputs + outputs, ts);
        }
    }

    /// A writer for a fresh cell of a node with `ports` open inputs.
    fn writer(ports: usize) -> (SharedNodeStats, StatsWriter) {
        let cell = shared_node_stats();
        let writer = StatsWriter::new(Arc::clone(&cell), &vec![true; ports]);
        (cell, writer)
    }

    /// Books one element stamped `ts` on port 0 — a run of one — timed at
    /// `cost` if given.
    fn one(w: &mut StatsWriter, ts: Timestamp, cost: Option<Duration>, outputs: u64) {
        w.observe_run(Arrivals { port: 0, len: 1, first: ts, last: ts }, cost, 1, outputs);
    }

    /// `len` arrivals on `port`, the first stamped `first`, `step` apart.
    fn even(port: usize, len: usize, first: Timestamp, step: Duration) -> Arrivals {
        let last =
            Timestamp::from_micros(first.as_micros() + (len as u64 - 1) * step.as_micros() as u64);
        Arrivals { port, len, first, last }
    }

    #[test]
    fn observe_accumulates() {
        let (cell, mut w) = writer(1);
        one(&mut w, Timestamp::from_millis(10), Some(Duration::from_micros(5)), 1);
        one(&mut w, Timestamp::from_millis(20), Some(Duration::from_micros(5)), 0);
        let n = cell.snapshot();
        assert_eq!(n.processed, 2);
        assert_eq!(n.selectivity(), Some(0.5));
        assert!(n.cost().unwrap() >= Duration::from_micros(4));
        assert!((n.interarrival().unwrap().as_secs_f64() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn the_first_observation_is_exact() {
        let (cell, mut w) = writer(1);
        let n = cell.snapshot();
        assert_eq!(
            (n.cost(), n.interarrival(), n.rate(), n.selectivity()),
            (None, None, None, None)
        );
        let cost = Duration::from_micros(10);
        one(&mut w, Timestamp::from_secs(3), Some(cost), 0);
        let n = cell.snapshot();
        assert_eq!(n.mean_cost, Some(cost.as_secs_f64()));
        assert_eq!(n.mean_gap, None, "one arrival is no gap");
        one(&mut w, Timestamp::from_secs(5), None, 0);
        let n = cell.snapshot();
        assert_eq!(n.mean_gap, Some(2.0));
        assert_eq!(n.mean_cost, Some(cost.as_secs_f64()), "an untimed element leaves the cost");
    }

    #[test]
    fn a_backwards_stamp_is_not_a_gap() {
        let (cell, mut w) = writer(1);
        one(&mut w, Timestamp::from_secs(10), None, 0);
        one(&mut w, Timestamp::from_secs(5), None, 0);
        let n = cell.snapshot();
        assert_eq!(n.mean_gap, None);
        assert_eq!(n.last_arrival, Timestamp::from_secs(5), "but it is the latest arrival");
        one(&mut w, Timestamp::from_secs(6), None, 0);
        let n = cell.snapshot();
        assert_eq!(n.mean_gap, Some(1.0));
        assert_eq!(n.processed, 3);
    }

    #[test]
    fn the_gap_mean_converges_to_a_new_level() {
        let (cell, mut w) = writer(1);
        let mut t = 0;
        for _ in 0..10 {
            t += 1;
            one(&mut w, Timestamp::from_secs(t), None, 0);
        }
        assert_eq!(cell.snapshot().mean_gap, Some(1.0));
        for _ in 0..200 {
            t += 100;
            one(&mut w, Timestamp::from_secs(t), None, 0);
        }
        let n = cell.snapshot();
        assert!((n.mean_gap.unwrap() - 100.0).abs() < 1e-3, "gap={:?}", n.mean_gap);
    }

    #[test]
    fn gaps_give_interarrival_and_rate() {
        let (cell, mut w) = writer(1);
        for i in 0..100u64 {
            one(&mut w, Timestamp::from_millis(i * 10), None, 0);
        }
        let n = cell.snapshot();
        let gap = n.interarrival().unwrap();
        assert!((gap.as_secs_f64() - 0.010).abs() < 1e-4, "gap={gap:?}");
        let rate = n.rate().unwrap();
        assert!((rate - 100.0).abs() < 2.0, "rate={rate}");
        // Arrivals at one instant: a gap of zero, and no rate.
        let (cell, mut w) = writer(1);
        w.observe_run(even(0, 4, Timestamp::from_secs(1), Duration::ZERO), None, 0, 0);
        let burst = cell.snapshot();
        assert_eq!((burst.mean_gap, burst.rate()), (Some(0.0), None));
    }

    #[test]
    fn selectivity_is_outputs_over_processed() {
        let (cell, mut w) = writer(1);
        for outputs in [0, 1, 1, 0] {
            one(&mut w, Timestamp::ZERO, None, outputs);
        }
        assert_eq!(cell.snapshot().selectivity(), Some(0.5));
        w.observe_run(even(0, 4, Timestamp::ZERO, Duration::ZERO), None, 0, 10);
        let n = cell.snapshot();
        assert_eq!((n.processed, n.outputs, n.selectivity()), (8, 12, Some(1.5)));
    }

    #[test]
    fn the_cost_mean_tracks_its_samples() {
        let (cell, mut w) = writer(1);
        for _ in 0..50 {
            one(&mut w, Timestamp::ZERO, Some(Duration::from_micros(100)), 0);
        }
        let est = cell.snapshot().cost().unwrap();
        assert!(est >= Duration::from_micros(99) && est <= Duration::from_micros(101));
        assert_eq!(cell.snapshot().cost_samples, 50);
        // A timed run counts its mean once per sample in it; an untimed
        // run does not count.
        let run = even(0, 32, Timestamp::ZERO, Duration::ZERO);
        w.observe_run(run, None, 0, 0);
        let n = cell.snapshot();
        assert_eq!((n.cost_samples, n.cost()), (50, Some(est)));
        for _ in 0..20 {
            w.observe_run(run, Some(Duration::from_micros(300)), 3, 0);
        }
        let n = cell.snapshot();
        assert_eq!(n.cost_samples, 110);
        assert!((n.cost().unwrap().as_secs_f64() - 300e-6).abs() < 1e-9, "{:?}", n.cost());
    }

    #[test]
    fn cell_books_what_the_plain_estimators_book() {
        // Two ways to book the same hundred elements: plain estimators,
        // and a cell behind a writer's record, in runs of one — handed
        // from one writer to the next halfway, as a mode switch does.
        let (cell, mut writer) = writer(1);
        let mut plain = OneByOne::default();
        assert_eq!(cell.snapshot(), plain.stats);
        for i in 0..100u64 {
            let cost = (i % 7 == 0).then(|| Duration::from_nanos(500 + i));
            plain.observe(Timestamp::from_micros(i * i), cost, i % 3);
            one(&mut writer, Timestamp::from_micros(i * i), cost, i % 3);
            assert_eq!(cell.snapshot().processed, i + 1, "visible once booked");
            if i == 49 {
                writer = StatsWriter::new(Arc::clone(&cell), &[true]);
            }
        }
        assert_eq!(cell.snapshot(), plain.stats, "element by element");
    }

    /// A node with two inputs, each stamped 10 µs apart and the two
    /// interleaved (one element every 5 µs between them), booked as a
    /// domain popping one queue's run at a time books it: runs of 32 from
    /// either port in turn. Its rate is the sum of the ports' rates, and
    /// the rate of the same arrivals booked one element at a time.
    #[test]
    fn a_two_port_node_fed_in_runs_reads_the_sum_of_its_ports_rates() {
        let step = Duration::from_micros(10);
        let (cell, mut writer) = writer(2);
        let mut one_at_a_time = OneByOne::default();
        for r in 0..100u64 {
            for port in 0..2 {
                let first = Timestamp::from_micros(r * 320 + port as u64 * 5);
                writer.observe_run(even(port, 32, first, step), None, 0, 32);
            }
            // The same 64 arrivals, one at a time in stamp order.
            for i in 0..64 {
                one_at_a_time.observe(Timestamp::from_micros(r * 320 + i * 5), None, 1);
            }
        }
        let sum = 2.0 / step.as_secs_f64();
        let (runs, elements) =
            (cell.snapshot().rate().unwrap(), one_at_a_time.stats.rate().unwrap());
        assert!((runs / sum - 1.0).abs() < 0.02, "in runs {runs}/s, ports' sum {sum}/s");
        assert!(
            (runs / elements - 1.0).abs() < 0.02,
            "in runs {runs}/s, one at a time {elements}/s"
        );
        assert_eq!(cell.snapshot().last_arrival, Timestamp::from_micros(99 * 320 + 5 + 310));
    }

    /// A node whose port 1 (100 k/s) ends while port 0 (200 k/s) goes on:
    /// port 1 counts while the node's latest arrival is within one of its
    /// gaps of its own last one, and from then on the node reads port 0's
    /// rate — also after a writer handover.
    #[test]
    fn a_closed_port_stops_counting_once_its_next_arrival_is_past() {
        let (fast, slow) = (Duration::from_micros(5), Duration::from_micros(10));
        let at = Timestamp::from_micros;
        let (cell, mut w) = writer(2);
        for r in 0..10 {
            w.observe_run(even(0, 20, at(r * 100), fast), None, 0, 20);
            w.observe_run(even(1, 10, at(r * 100), slow), None, 0, 10);
        }
        let rate = || cell.snapshot().rate().unwrap();
        let reads = |want: f64| (rate() / want - 1.0).abs() < 1e-9;
        assert!(reads(300e3), "both ports: {}/s", rate());
        // Port 1's last arrival was at 990 µs, port 0's at 995 µs.
        w.close(1);
        assert!(reads(300e3), "5 µs after it: {}/s", rate());
        w.observe_run(even(0, 20, at(1_000), fast), None, 0, 20);
        assert!(reads(200e3), "past its next arrival: {}/s", rate());
        let n = cell.snapshot();
        assert_eq!((n.processed, n.last_arrival), (320, at(1_095)));
        // A new writer seeds the open port alone, with the whole rate.
        let mut w = StatsWriter::new(Arc::clone(&cell), &[true, false]);
        w.observe_run(even(0, 20, at(1_100), fast), None, 0, 20);
        assert!(reads(200e3), "after a handover: {}/s", rate());
        // The last port to close keeps the rate it had.
        w.close(0);
        assert!(reads(200e3), "all closed: {}/s", rate());
    }

    /// The booking rules stated a second time, run by run, in the shape of
    /// separate estimators — the cost with its own count, each port's gap
    /// with an optional previous arrival — to check the cell against.
    #[derive(Default)]
    struct Rules {
        cost: Option<f64>,
        cost_samples: u64,
        inputs: u64,
        outputs: u64,
        /// Per port: the latest arrival, the gap mean, and whether it has
        /// closed.
        ports: Vec<(Option<Timestamp>, Option<f64>, bool)>,
        /// The node's latest arrival and gap, as of the latest booking.
        latest: Timestamp,
        gap: Option<f64>,
    }

    impl Rules {
        /// `mean` moved as `k` samples equal to `x` move it one at a time.
        fn ewma(mean: &mut Option<f64>, alpha: f64, x: f64, k: u64) {
            let weight = if k == 1 { alpha } else { 1.0 - (1.0 - alpha).powi(k as i32) };
            *mean = Some(match *mean {
                None => x,
                Some(m) => m + weight * (x - m),
            });
        }

        /// A new writer for ports open as `open` says: each port from the
        /// latest arrival, each open one with an equal share of the rate.
        fn hand_over(&mut self, open: &[bool]) {
            let last = (self.inputs > 0).then_some(self.latest);
            let live = open.iter().filter(|&&o| o).count() as f64;
            let share = |o: bool| self.gap.filter(|_| o).map(|g| g * live);
            self.ports = open.iter().map(|&o| (last, share(o), !o)).collect();
        }

        fn book(
            &mut self,
            port: usize,
            run: &[Timestamp],
            cost: Option<Duration>,
            samples: usize,
            out: u64,
        ) {
            if let (Some(c), true) = (cost, samples > 0) {
                Self::ewma(&mut self.cost, 0.2, c.as_secs_f64(), samples as u64);
                self.cost_samples += samples as u64;
            }
            self.inputs += run.len() as u64;
            self.outputs += out;
            let (last, gap, _) = &mut self.ports[port];
            let end = *run.last().unwrap();
            let (from, gaps) = match *last {
                Some(t) => (t, run.len() as u64),
                None => (run[0], run.len() as u64 - 1),
            };
            if gaps > 0 && end >= from {
                let span = (end.as_micros() - from.as_micros()) as f64;
                Self::ewma(gap, 0.1, span / (gaps as f64 * 1e6), gaps);
            }
            *last = Some(end);
            self.combine();
        }

        fn close(&mut self, port: usize) {
            self.ports[port].2 = true;
            self.combine();
        }

        /// A closed port's gap stops counting once the latest arrival is
        /// more than that gap past its own; rates add over the rest.
        fn combine(&mut self) {
            let Some(latest) = self.ports.iter().filter_map(|p| p.0).max() else {
                return;
            };
            for (last, gap, closed) in &mut self.ports {
                if let (true, Some(l), Some(g)) = (*closed, *last, *gap) {
                    if latest.since(l).as_secs_f64() > g {
                        *gap = None;
                    }
                }
            }
            let gaps: Vec<f64> = self.ports.iter().filter_map(|p| p.1).collect();
            self.gap = gaps
                .split_first()
                .map(|(&d, rest)| rest.iter().fold(d, |d, &g| 1.0 / (1.0 / d + 1.0 / g)));
            self.latest = latest;
        }

        fn record(&self) -> NodeStats {
            NodeStats {
                processed: self.inputs,
                outputs: self.outputs,
                last_arrival: self.latest,
                mean_gap: self.gap,
                mean_cost: self.cost,
                cost_samples: self.cost_samples,
            }
        }
    }

    /// Books a stream derived from `seed` through a cell, in runs of 1–32
    /// on one or two ports as an executor does, and through [`Rules`];
    /// `Err` names the first step after which the two disagree. The stamps
    /// repeat and step back, a run is timed one time in five (its cost
    /// counted once per timed element in it), the outputs are arbitrary,
    /// a port closes one step in ten (none arrives on it after), and the
    /// cell changes writers once, at a generated step.
    fn booked_against_the_rules(seed: u64) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ports = rng.gen_range(1..=2);
        let mut open = vec![true; ports];
        let (cell, mut writer) = writer(ports);
        let mut rules = Rules::default();
        rules.hand_over(&open);
        let runs = rng.gen_range(1..40);
        let handover = rng.gen_range(0..=runs);
        let mut t: u64 = rng.gen_range(0..1_000_000);
        for r in 0..runs {
            if r == handover {
                writer = StatsWriter::new(Arc::clone(&cell), &open);
                rules.hand_over(&open);
            }
            let live: Vec<usize> = (0..ports).filter(|&p| open[p]).collect();
            if live.is_empty() {
                continue;
            }
            let port = live[rng.gen_range(0..live.len())];
            if rng.gen_bool(0.1) {
                writer.close(port);
                rules.close(port);
                open[port] = false;
            } else {
                let len = rng.gen_range(1..=32usize);
                let mut stamps = Vec::with_capacity(len);
                for _ in 0..len {
                    t = match rng.gen_range(0..4) {
                        0 => t,
                        1 => t.saturating_sub(rng.gen_range(1..500)),
                        _ => t + rng.gen_range(1..2_000u64),
                    };
                    stamps.push(Timestamp::from_micros(t));
                }
                let samples = if rng.gen_bool(0.2) { rng.gen_range(0..=2) } else { 0 };
                let cost = (samples > 0).then(|| Duration::from_nanos(rng.gen_range(1..100_000)));
                let outputs = rng.gen_range(0..=3 * len as u64);
                let run = Arrivals { port, len, first: stamps[0], last: stamps[len - 1] };
                writer.observe_run(run, cost, samples, outputs);
                rules.book(port, &stamps, cost, samples, outputs);
            }
            let (cell, rules) = (cell.snapshot(), rules.record());
            if cell != rules {
                return Err(format!("after step {r} of {runs}: cell {cell:?}, rules {rules:?}"));
            }
        }
        Ok(())
    }

    /// Books an evenly stamped stream derived from `seed`, cut into runs
    /// of 1–64 at random, through a cell, and element by element through
    /// [`OneByOne`] — a run's timed invocations its first elements; `Err`
    /// says what the two disagree on beyond 1e-12 relative.
    fn any_cut_books_the_per_element_numbers(seed: u64) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let step = Duration::from_micros(rng.gen_range(1..10_000));
        let start = rng.gen_range(0..1_000_000u64);
        let elements = rng.gen_range(1..2_000usize);
        let stamp = |i: usize| Timestamp::from_micros(start + i as u64 * step.as_micros() as u64);
        let (cell, mut writer) = writer(1);
        let mut one_by_one = OneByOne::default();
        let mut from = 0;
        while from < elements {
            let len = rng.gen_range(1..=64usize).min(elements - from);
            let samples = if rng.gen_bool(0.3) { rng.gen_range(1..=2usize).min(len) } else { 0 };
            let c = (samples > 0).then(|| Duration::from_nanos(rng.gen_range(1..100_000)));
            writer.observe_run(even(0, len, stamp(from), step), c, samples, 2 * len as u64);
            for i in 0..len {
                one_by_one.observe(stamp(from + i), c.filter(|_| i < samples), 2);
            }
            from += len;
        }
        let (s, want) = (cell.snapshot(), one_by_one.stats);
        let counts = |s: &NodeStats| (s.processed, s.outputs, s.last_arrival, s.cost_samples);
        if counts(&s) != counts(&want) {
            return Err(format!("counts {:?}, per element {:?}", counts(&s), counts(&want)));
        }
        let close = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) => (a - b).abs() <= 1e-12 * b.abs(),
            (a, b) => a == b,
        };
        if !close(s.mean_gap, want.mean_gap) || !close(s.mean_cost, want.mean_cost) {
            return Err(format!("cell {s:?}, per element {want:?}"));
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

        /// Likewise, `any_cut_books_the_per_element_numbers(seed)`.
        #[test]
        fn any_cut_of_an_evenly_stamped_stream_books_the_per_element_numbers(seed in any::<u64>()) {
            if let Err(why) = any_cut_books_the_per_element_numbers(seed) {
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
            let mut writer = StatsWriter::new(Arc::clone(&cell), &[true]);
            for i in 0..ELEMENTS {
                one(&mut writer, Timestamp::from_micros(i), None, FAN_OUT);
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
        let mut writers: Vec<StatsWriter> =
            stats.iter().map(|cell| StatsWriter::new(Arc::clone(cell), &[true])).collect();
        for i in 0..50u64 {
            let ts = Timestamp::from_millis(i * 100);
            one(&mut writers[0], ts, None, 1);
            one(&mut writers[1], ts, Some(Duration::from_micros(2)), i % 2);
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
