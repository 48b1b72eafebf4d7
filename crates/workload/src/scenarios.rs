//! Canned constructors for the paper's experimental workloads (§6).
//!
//! Each figure's query graph is built here, parameterized so the benchmark
//! harness can run it at paper scale or scaled down (`speedup`) for quick
//! verification. All scenarios are seeded and fully deterministic.

use std::time::Duration;

use hmts_graph::graph::{NodeId, QueryGraph};
use hmts_graph::partition::Partitioning;
use hmts_operators::cost::{CostMode, Costed};
use hmts_operators::expr::Expr;
use hmts_operators::filter::Filter;
use hmts_operators::join::{SymmetricHashJoin, SymmetricNestedLoopsJoin};
use hmts_operators::project::Project;
use hmts_operators::sink::{CountingSink, SinkHandle};
use hmts_operators::traits::{Operator, Source};
use hmts_streams::time::Timestamp;

use crate::arrival::{ArrivalProcess, Phase};
use crate::source::SyntheticSource;
use crate::values::TupleGen;

/// Which join algorithm a join scenario uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Symmetric hash join.
    Shj,
    /// Symmetric nested-loops join.
    Snj,
}

/// Parameters of the Fig. 6 decoupling experiment.
///
/// Paper values: two sources × 180 000 elements at 1000 el/s, values uniform
/// in `[0, 10^5]` and `[0, 10^4]`, one-minute sliding window.
#[derive(Debug, Clone)]
pub struct Fig6Params {
    /// Elements per source.
    pub elements: u64,
    /// Offered rate per source (elements/second).
    pub rate: f64,
    /// Left source values are uniform in `[0, left_range)`.
    pub left_range: i64,
    /// Right source values are uniform in `[0, right_range)`.
    pub right_range: i64,
    /// Sliding-window extent of the join.
    pub window: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig6Params {
    fn default() -> Fig6Params {
        Fig6Params {
            elements: 180_000,
            rate: 1000.0,
            left_range: 100_000,
            right_range: 10_000,
            window: Duration::from_secs(60),
            seed: 6,
        }
    }
}

impl Fig6Params {
    /// Compresses the experiment by `k`: rates ×k, element count ÷k, window
    /// ÷k — queue/window dynamics keep the same shape in `1/k` of the time.
    pub fn scaled(mut self, k: f64) -> Fig6Params {
        assert!(k > 0.0);
        self.rate *= k;
        self.elements = ((self.elements as f64 / k).round() as u64).max(1);
        self.window = Duration::from_secs_f64(self.window.as_secs_f64() / k);
        self
    }
}

/// A built two-source join query.
pub struct JoinScenario {
    /// The query graph.
    pub graph: QueryGraph,
    /// Left source node.
    pub left: NodeId,
    /// Right source node.
    pub right: NodeId,
    /// The join node.
    pub join: NodeId,
    /// The sink node.
    pub sink: NodeId,
    /// Observation handle of the sink.
    pub handle: SinkHandle,
}

/// Builds the Fig. 6 join query: two Poisson sources into an SHJ or SNJ,
/// into a counting sink.
pub fn fig6_join(kind: JoinKind, p: &Fig6Params) -> JoinScenario {
    let mut graph = QueryGraph::new();
    let left = graph.add_source(Box::new(SyntheticSource::new(
        "left",
        ArrivalProcess::poisson(p.rate),
        TupleGen::uniform_int(0, p.left_range.max(1)),
        p.elements,
        p.seed,
    )));
    let right = graph.add_source(Box::new(SyntheticSource::new(
        "right",
        ArrivalProcess::poisson(p.rate),
        TupleGen::uniform_int(0, p.right_range.max(1)),
        p.elements,
        p.seed.wrapping_add(1),
    )));
    let join_op: Box<dyn Operator> = match kind {
        JoinKind::Shj => Box::new(SymmetricHashJoin::on_field("shj", 0, p.window)),
        JoinKind::Snj => Box::new(SymmetricNestedLoopsJoin::on_field("snj", 0, p.window)),
    };
    let join = graph.add_operator(join_op);
    graph.connect_port(left, join, 0);
    graph.connect_port(right, join, 1);
    let (sink_op, handle) = CountingSink::new("results");
    let sink = graph.add_operator(Box::new(sink_op));
    graph.connect(join, sink);
    JoinScenario { graph, left, right, join, sink, handle }
}

/// Parameters of the Fig. 7/8 selection-chain experiment.
///
/// Paper values: 5 selections with selectivities 0.998, 0.996, …, 0.990
/// over a source emitting `m ∈ [100k, 1M]` elements at 500 000 el/s.
#[derive(Debug, Clone)]
pub struct Fig7Params {
    /// Number of elements (`m`).
    pub elements: u64,
    /// Offered source rate (elements/second).
    pub rate: f64,
    /// Per-selection (conditional) selectivities.
    pub selectivities: Vec<f64>,
    /// Source values are uniform in `[0, value_range)`.
    pub value_range: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig7Params {
    fn default() -> Fig7Params {
        Fig7Params {
            elements: 100_000,
            rate: 500_000.0,
            selectivities: vec![0.998, 0.996, 0.994, 0.992, 0.990],
            value_range: 1_000_000,
            seed: 7,
        }
    }
}

/// A built single-source selection-chain query.
pub struct ChainScenario {
    /// The query graph.
    pub graph: QueryGraph,
    /// The source node.
    pub source: NodeId,
    /// The selection nodes, upstream first.
    pub selections: Vec<NodeId>,
    /// The sink node.
    pub sink: NodeId,
    /// Observation handle of the sink.
    pub handle: SinkHandle,
}

/// Builds one Fig. 7 chain into `graph`, returning its node ids and handle.
///
/// Each selection `i` passes values below a *cumulative* threshold
/// `range·s₁·s₂⋯sᵢ`, so that — on values uniform over the range — its
/// conditional selectivity over what the previous selection passed is `sᵢ`,
/// exactly the paper's per-operator selectivities.
pub fn fig7_chain_into(
    graph: &mut QueryGraph,
    p: &Fig7Params,
    instance: u64,
) -> (NodeId, Vec<NodeId>, NodeId, SinkHandle) {
    let source = graph.add_source(Box::new(SyntheticSource::new(
        format!("src{instance}"),
        ArrivalProcess::constant(p.rate),
        TupleGen::uniform_int(0, p.value_range.max(1)),
        p.elements,
        p.seed.wrapping_add(instance),
    )));
    let mut prev = source;
    let mut selections = Vec::with_capacity(p.selectivities.len());
    let mut cumulative = 1.0;
    for (i, &s) in p.selectivities.iter().enumerate() {
        cumulative *= s;
        let threshold = (p.value_range as f64 * cumulative).round() as i64;
        let f = Filter::new(format!("sel{instance}_{i}"), Expr::field(0).lt(Expr::int(threshold)))
            .with_selectivity_hint(s);
        let id = graph.add_operator(Box::new(f));
        graph.connect(prev, id);
        selections.push(id);
        prev = id;
    }
    let (sink_op, handle) = CountingSink::new(format!("results{instance}"));
    let sink = graph.add_operator(Box::new(sink_op));
    graph.connect(prev, sink);
    (source, selections, sink, handle)
}

/// Builds the Fig. 7 query: one selection chain.
pub fn fig7_chain(p: &Fig7Params) -> ChainScenario {
    let mut graph = QueryGraph::new();
    let (source, selections, sink, handle) = fig7_chain_into(&mut graph, p, 0);
    ChainScenario { graph, source, selections, sink, handle }
}

/// A built multi-query graph (Fig. 8): `q` independent selection chains
/// unified in one query graph.
pub struct MultiChainScenario {
    /// The query graph.
    pub graph: QueryGraph,
    /// Per-query (source, selections, sink, handle).
    pub queries: Vec<(NodeId, Vec<NodeId>, NodeId, SinkHandle)>,
}

/// Builds the Fig. 8 workload: the Fig. 7 query replicated `q` times.
pub fn fig8_multi_chain(q: usize, p: &Fig7Params) -> MultiChainScenario {
    let mut graph = QueryGraph::new();
    let queries = (0..q as u64).map(|i| fig7_chain_into(&mut graph, p, i)).collect();
    MultiChainScenario { graph, queries }
}

/// Parameters of the Fig. 9/10 HMTS-vs-GTS experiment.
///
/// Paper values: a bursty source (10 000 elements at ≈500 000 el/s, then
/// 20 000 at 250 el/s, then 20 000 at ≈500 000 el/s, then 20 000 at
/// 250 el/s; 70 000 total — see DESIGN.md on the paper's internally
/// inconsistent 7·10⁵), values uniform in `[1, 10^7]`; a projection with
/// c = 2.7 µs, a selection with selectivity 9·10⁻⁴ and c = 530 ns, and a
/// selection with selectivity 0.3 and c ≈ 2 s.
#[derive(Debug, Clone)]
pub struct Fig9Params {
    /// Time compression factor `k`: rates ×k, costs ÷k; `1.0` is paper
    /// scale (the run takes ≈160–260 s of wall/virtual time).
    pub speedup: f64,
    /// Use the paper's literal 7·10⁵ element count (scaling every phase
    /// ×10) instead of the self-consistent 7·10⁴.
    pub paper_literal_count: bool,
    /// Realize operator costs as [`CostMode::Virtual`] instead of
    /// [`CostMode::Busy`] — for simulator-driven runs where spinning would
    /// be wasted.
    pub virtual_costs: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig9Params {
    fn default() -> Fig9Params {
        Fig9Params { speedup: 1.0, paper_literal_count: false, virtual_costs: false, seed: 9 }
    }
}

impl Fig9Params {
    /// The source's phase schedule.
    pub fn phases(&self) -> Vec<Phase> {
        let k = self.speedup;
        let m = if self.paper_literal_count { 10 } else { 1 };
        vec![
            Phase::new(10_000 * m, 500_000.0 * k),
            Phase::new(20_000 * m, 250.0 * k),
            Phase::new(20_000 * m, 500_000.0 * k),
            Phase::new(20_000 * m, 250.0 * k),
        ]
    }

    /// Per-element costs of (projection, cheap selection, expensive
    /// selection), after time compression.
    pub fn costs(&self) -> (Duration, Duration, Duration) {
        let k = self.speedup;
        (
            Duration::from_secs_f64(2.7e-6 / k),
            Duration::from_secs_f64(530e-9 / k),
            Duration::from_secs_f64(2.0 / k),
        )
    }

    fn mode(&self, d: Duration) -> CostMode {
        if self.virtual_costs {
            CostMode::Virtual(d)
        } else {
            CostMode::Busy(d)
        }
    }
}

/// The Fig. 9/10 operator chain in its own graph, around any source and
/// sink.
pub struct Fig9Chain {
    /// The query graph.
    pub graph: QueryGraph,
    /// The source node.
    pub source: NodeId,
    /// The projection node (c = 2.7 µs).
    pub projection: NodeId,
    /// The cheap, highly selective selection (sel 9·10⁻⁴, c = 530 ns).
    pub cheap_selection: NodeId,
    /// The expensive selection (sel 0.3, c ≈ 2 s).
    pub expensive_selection: NodeId,
    /// The sink node.
    pub sink: NodeId,
}

impl Fig9Chain {
    /// The paper's HMTS placement: decoupled after the source and between
    /// the selections, two virtual operators — {projection, cheap
    /// selection} and {expensive selection, sink}.
    pub fn two_vos(&self) -> Partitioning {
        Partitioning::new(vec![
            vec![self.projection, self.cheap_selection],
            vec![self.expensive_selection, self.sink],
        ])
    }
}

/// Builds the Fig. 9/10 chain — projection, then selection `v ≤ 9 000`,
/// then selection `v ≤ 2 700`, with the costs of `p` — between `source`
/// and `sink`. Feed it values uniform in `[1, 10^7]` for the paper's
/// selectivities: 9·10⁻⁴, then 0.3 of what passed.
pub fn fig9_chain_into(
    p: &Fig9Params,
    source: Box<dyn Source>,
    sink: Box<dyn Operator>,
) -> Fig9Chain {
    let (c_proj, c_cheap, c_exp) = p.costs();
    let mut graph = QueryGraph::new();
    let source = graph.add_source(source);
    let projection =
        graph.add_operator(Box::new(Costed::new(Project::new("proj", vec![0]), p.mode(c_proj))));
    let cheap_selection = graph.add_operator(Box::new(Costed::new(
        Filter::new("sel_cheap", Expr::field(0).le(Expr::int(9_000))).with_selectivity_hint(9e-4),
        p.mode(c_cheap),
    )));
    let expensive_selection = graph.add_operator(Box::new(Costed::new(
        Filter::new("sel_expensive", Expr::field(0).le(Expr::int(2_700)))
            .with_selectivity_hint(0.3),
        p.mode(c_exp),
    )));
    let sink = graph.add_operator(sink);
    graph.connect(source, projection);
    graph.connect(projection, cheap_selection);
    graph.connect(cheap_selection, expensive_selection);
    graph.connect(expensive_selection, sink);
    Fig9Chain { graph, source, projection, cheap_selection, expensive_selection, sink }
}

/// A built Fig. 9/10 query.
pub struct Fig9Scenario {
    /// The chain, fed by the bursty source and ending in a counting sink.
    pub chain: Fig9Chain,
    /// Observation handle of the sink.
    pub handle: SinkHandle,
}

/// Builds the Fig. 9/10 query graph.
pub fn fig9_chain(p: &Fig9Params) -> Fig9Scenario {
    // Values uniform in [1, 10^7]; selection thresholds are chosen so each
    // operator's selectivity matches the paper exactly on uniform input:
    // v ≤ 9 000 of 10^7 → 9·10⁻⁴; then v ≤ 2 700 of ≤ 9 000 → 0.3.
    const RANGE: i64 = 10_000_000;
    let total: u64 = p.phases().iter().map(|ph| ph.count).sum();
    let source = SyntheticSource::new(
        "bursty",
        ArrivalProcess::bursty(p.phases()),
        TupleGen::uniform_int(1, RANGE + 1),
        total,
        p.seed,
    );
    let (sink, handle) = CountingSink::new("results");
    Fig9Scenario { chain: fig9_chain_into(p, Box::new(source), Box::new(sink)), handle }
}

/// Drains a source into its schedule of due times (used to feed the
/// discrete-event simulator with exactly the stream the real engine sees).
pub fn drain_schedule(src: &mut dyn Source) -> Vec<Timestamp> {
    std::iter::from_fn(|| src.next().map(|(t, _)| t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_graph::validate::validate;

    #[test]
    fn fig6_builds_valid_graph_for_both_joins() {
        let p = Fig6Params { elements: 10, ..Fig6Params::default() };
        for kind in [JoinKind::Shj, JoinKind::Snj] {
            let s = fig6_join(kind, &p);
            assert!(validate(&s.graph).is_empty(), "{kind:?}");
            assert_eq!(s.graph.sources().len(), 2);
            assert_eq!(s.graph.node(s.join).input_arity(), 2);
            assert_eq!(s.graph.sinks(), vec![s.sink]);
        }
    }

    #[test]
    fn fig6_scaling_compresses_time() {
        let p = Fig6Params::default().scaled(10.0);
        assert_eq!(p.elements, 18_000);
        assert_eq!(p.rate, 10_000.0);
        assert_eq!(p.window, Duration::from_secs(6));
    }

    #[test]
    fn fig7_thresholds_give_conditional_selectivities() {
        let p = Fig7Params { elements: 10, ..Fig7Params::default() };
        let s = fig7_chain(&p);
        assert!(validate(&s.graph).is_empty());
        assert_eq!(s.selections.len(), 5);
        // First threshold: 0.998 × 10^6.
        let first = s.graph.node(s.selections[0]);
        assert_eq!(first.name, "sel0_0");
        // Each filter carries its per-operator selectivity hint.
        if let hmts_graph::graph::NodeKind::Operator(op) = &first.kind {
            assert_eq!(op.selectivity_hint(), Some(0.998));
        } else {
            panic!("selection is an operator");
        }
    }

    #[test]
    fn fig8_replicates_queries() {
        let p = Fig7Params { elements: 5, ..Fig7Params::default() };
        let m = fig8_multi_chain(3, &p);
        assert!(validate(&m.graph).is_empty());
        assert_eq!(m.queries.len(), 3);
        assert_eq!(m.graph.sources().len(), 3);
        assert_eq!(m.graph.sinks().len(), 3);
        // 3 × (1 source + 5 selections + 1 sink).
        assert_eq!(m.graph.node_count(), 21);
    }

    #[test]
    fn fig9_schedule_matches_paper_shape() {
        let p = Fig9Params::default();
        let phases = p.phases();
        assert_eq!(phases.iter().map(|ph| ph.count).sum::<u64>(), 70_000);
        assert_eq!(phases[1].rate, 250.0);
        // The two slow phases take 80 s each.
        let slow_secs = phases[1].count as f64 / phases[1].rate;
        assert!((slow_secs - 80.0).abs() < 1e-9);

        let literal = Fig9Params { paper_literal_count: true, ..Fig9Params::default() };
        assert_eq!(literal.phases().iter().map(|ph| ph.count).sum::<u64>(), 700_000);
    }

    #[test]
    fn fig9_speedup_compresses_costs_and_rates() {
        let p = Fig9Params { speedup: 10.0, ..Fig9Params::default() };
        let (c1, _, c3) = p.costs();
        assert_eq!(c3, Duration::from_millis(200));
        assert_eq!(c1, Duration::from_nanos(270));
        assert_eq!(p.phases()[1].rate, 2500.0);
    }

    #[test]
    fn fig9_graph_is_valid_chain() {
        let p = Fig9Params { virtual_costs: true, ..Fig9Params::default() };
        let s = fig9_chain(&p).chain;
        assert!(validate(&s.graph).is_empty());
        assert_eq!(s.graph.successors(s.projection).collect::<Vec<_>>(), vec![s.cheap_selection]);
        assert_eq!(s.graph.sinks(), vec![s.sink]);
        // Cost hints flow through the Costed wrapper for placement.
        if let hmts_graph::graph::NodeKind::Operator(op) = &s.graph.node(s.expensive_selection).kind
        {
            assert_eq!(op.cost_hint(), Some(Duration::from_secs(2)));
            assert_eq!(op.selectivity_hint(), Some(0.3));
        } else {
            panic!("expensive selection is an operator");
        }
    }

    #[test]
    fn a_served_chain_is_valid_and_partitioned_in_two() {
        let source = crate::source::VecSource::counting("remote", 0, 1.0);
        let (sink, _handle) = CountingSink::new("egress");
        let p = Fig9Params { speedup: 1000.0, ..Fig9Params::default() };
        let s = fig9_chain_into(&p, Box::new(source), Box::new(sink));
        assert!(validate(&s.graph).is_empty());
        assert_eq!(s.graph.sinks(), vec![s.sink]);
        assert_eq!(s.graph.node(s.source).name, "remote");
        let vos = s.two_vos();
        assert_eq!(
            vos.groups(),
            [[s.projection, s.cheap_selection], [s.expensive_selection, s.sink]]
        );
    }

    #[test]
    fn drain_schedule_returns_due_times() {
        let mut s = crate::source::VecSource::counting("c", 3, 1.0);
        let sched = drain_schedule(&mut s);
        assert_eq!(
            sched,
            vec![Timestamp::from_secs(1), Timestamp::from_secs(2), Timestamp::from_secs(3)]
        );
    }
}
