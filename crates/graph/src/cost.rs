//! Cost model: per-node cost `c(v)`, inter-arrival `d(v)`, and partition
//! capacity `cap(P)` — the quantities of the paper's §5.1.2.
//!
//! A [`CostGraph`] is a topology-plus-annotations view of a query graph. It
//! is deliberately independent of operator payloads so that
//!
//! * queue-placement algorithms can run on it,
//! * the discrete-event simulator can execute it,
//! * random DAGs (the paper's Fig. 11 workload) can be generated directly,
//!
//! all without constructing real operators.

use std::collections::HashMap;
use std::time::Duration;

use crate::graph::{NodeId, NodeKind, QueryGraph};
use crate::topology::Topology;

/// A cost-annotated DAG.
///
/// Node indices coincide with [`NodeId`] indices when derived from a
/// [`QueryGraph`].
#[derive(Debug, Clone)]
pub struct CostGraph {
    edges: Vec<(usize, usize)>,
    /// Per-element processing cost `c(v)` in seconds (0 for sources).
    cost: Vec<f64>,
    /// Outputs per input (sources: ignored).
    selectivity: Vec<f64>,
    /// `Some(rate)` in elements/second marks a source node.
    source_rate: Vec<Option<f64>>,
    /// Cached successor lists.
    succ: Vec<Vec<usize>>,
    /// Cached predecessor lists.
    pred: Vec<Vec<usize>>,
}

/// Per-node inputs when deriving a [`CostGraph`] from a [`QueryGraph`]:
/// measured statistics override these, these override operator hints, and
/// hints override the defaults.
#[derive(Debug, Clone, Default)]
pub struct CostInputs {
    /// Source emission rates (elements/second). Any source without an entry
    /// gets [`CostInputs::default_source_rate`].
    pub source_rates: HashMap<NodeId, f64>,
    /// Per-operator cost overrides.
    pub costs: HashMap<NodeId, Duration>,
    /// Per-operator selectivity overrides.
    pub selectivities: HashMap<NodeId, f64>,
    /// Fallback source rate (default 1 element/second).
    pub default_source_rate: Option<f64>,
    /// Fallback operator cost (default 1 µs).
    pub default_cost: Option<Duration>,
    /// Fallback selectivity (default 1.0).
    pub default_selectivity: Option<f64>,
}

impl CostInputs {
    /// Adds the cost and selectivity hints of `g`'s operators where no
    /// entry exists yet.
    pub fn add_hints(&mut self, g: &QueryGraph) {
        for node in g.nodes() {
            if let NodeKind::Operator(op) = &node.kind {
                if let Some(c) = op.cost_hint() {
                    self.costs.entry(node.id).or_insert(c);
                }
                if let Some(s) = op.selectivity_hint() {
                    self.selectivities.entry(node.id).or_insert(s);
                }
            }
        }
    }
}

impl CostGraph {
    /// Builds a cost graph directly from parts (used by the random-DAG
    /// generator). `source_rate[i] = Some(r)` marks node `i` as a source
    /// emitting `r` elements/second; such nodes must have `cost 0` is *not*
    /// required — sources simply never process.
    pub fn from_parts(
        node_count: usize,
        edges: Vec<(usize, usize)>,
        cost: Vec<f64>,
        selectivity: Vec<f64>,
        source_rate: Vec<Option<f64>>,
    ) -> CostGraph {
        assert_eq!(cost.len(), node_count, "cost vector length");
        assert_eq!(selectivity.len(), node_count, "selectivity vector length");
        assert_eq!(source_rate.len(), node_count, "source_rate vector length");
        let mut succ = vec![Vec::new(); node_count];
        let mut pred = vec![Vec::new(); node_count];
        for &(f, t) in &edges {
            assert!(f < node_count && t < node_count, "edge endpoint in range");
            succ[f].push(t);
            pred[t].push(f);
        }
        CostGraph { edges, cost, selectivity, source_rate, succ, pred }
    }

    /// Derives a cost graph from a query graph: `inputs`, with each
    /// operator's hints folded in where `inputs` has no entry, through
    /// [`CostGraph::from_topology`].
    pub fn from_query_graph(g: &QueryGraph, inputs: &CostInputs) -> CostGraph {
        let mut inputs = inputs.clone();
        inputs.add_hints(g);
        CostGraph::from_topology(&Topology::of(g), &inputs)
    }

    /// Builds a cost graph from a topology and explicit inputs: an entry of
    /// `inputs` where there is one, else the default (1 element/second
    /// source rate, 1 µs cost, selectivity 1).
    pub fn from_topology(topo: &Topology, inputs: &CostInputs) -> CostGraph {
        let default_rate = inputs.default_source_rate.unwrap_or(1.0);
        let default_cost = inputs.default_cost.unwrap_or(Duration::from_micros(1)).as_secs_f64();
        let default_sel = inputs.default_selectivity.unwrap_or(1.0);
        let n = topo.node_count();
        let mut cost = vec![0.0; n];
        let mut selectivity = vec![1.0; n];
        let mut source_rate = vec![None; n];
        for i in 0..n {
            let id = NodeId(i);
            if topo.is_source(id) {
                source_rate[i] =
                    Some(inputs.source_rates.get(&id).copied().unwrap_or(default_rate));
            } else {
                cost[i] = inputs.costs.get(&id).map_or(default_cost, Duration::as_secs_f64);
                selectivity[i] = inputs.selectivities.get(&id).copied().unwrap_or(default_sel);
            }
        }
        let edges = topo.edges().iter().map(|e| (e.from.0, e.to.0)).collect();
        CostGraph::from_parts(n, edges, cost, selectivity, source_rate)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.cost.len()
    }

    /// All edges as `(from, to)` index pairs.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Successors of node `v`.
    pub fn successors(&self, v: usize) -> &[usize] {
        &self.succ[v]
    }

    /// Predecessors of node `v`.
    pub fn predecessors(&self, v: usize) -> &[usize] {
        &self.pred[v]
    }

    /// Whether node `v` is a source.
    pub fn is_source(&self, v: usize) -> bool {
        self.source_rate[v].is_some()
    }

    /// Indices of all source nodes.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.node_count()).filter(|&v| self.is_source(v)).collect()
    }

    /// Indices of all non-source nodes.
    pub fn operators(&self) -> Vec<usize> {
        (0..self.node_count()).filter(|&v| !self.is_source(v)).collect()
    }

    /// Per-element cost `c(v)` in seconds.
    pub fn cost(&self, v: usize) -> f64 {
        self.cost[v]
    }

    /// Selectivity of node `v`.
    pub fn selectivity(&self, v: usize) -> f64 {
        self.selectivity[v]
    }

    /// A topological order, or `None` on a cycle.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.node_count();
        let mut in_deg = vec![0usize; n];
        for &(_, t) in &self.edges {
            in_deg[t] += 1;
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| in_deg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &t in &self.succ[i] {
                in_deg[t] -= 1;
                if in_deg[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// The *input* rate of every node in elements/second: a source's input
    /// rate is defined as its emission rate; an operator's input rate is the
    /// sum of its predecessors' output rates, where a node's output rate is
    /// its input rate times its selectivity (sources: selectivity 1).
    pub fn input_rates(&self) -> Vec<f64> {
        let order = self.topological_order().expect("cost graph must be acyclic");
        let n = self.node_count();
        let mut input = vec![0.0; n];
        let mut output = vec![0.0; n];
        for v in order {
            input[v] = match self.source_rate[v] {
                Some(r) => r,
                None => self.pred[v].iter().map(|&p| output[p]).sum(),
            };
            let sel = if self.is_source(v) { 1.0 } else { self.selectivity[v] };
            output[v] = input[v] * sel;
        }
        input
    }

    /// Mean inter-arrival time `d(v)` in seconds for every node — the
    /// reciprocal of the input rate (`+∞` for rate 0).
    pub fn interarrival_times(&self) -> Vec<f64> {
        self.input_rates()
            .into_iter()
            .map(|r| if r > 0.0 { 1.0 / r } else { f64::INFINITY })
            .collect()
    }

    /// The capacity `cap(P) = d(P) − c(P)` of a node set (paper §5.1.2):
    /// `c(P) = Σ c(v)` and `d(P) = 1 / Σ 1/d(v)`, with the convention that
    /// an empty set — or one whose members all have infinite `d(v)` — has
    /// infinite capacity.
    ///
    /// `d` must be the vector returned by
    /// [`CostGraph::interarrival_times`] (passed in so sweeps over many
    /// candidate partitions don't recompute the propagation).
    pub fn capacity(&self, nodes: &[usize], d: &[f64]) -> f64 {
        let c: f64 = nodes.iter().map(|&v| self.cost[v]).sum();
        let inv_d: f64 =
            nodes.iter().map(|&v| if d[v].is_finite() { 1.0 / d[v] } else { 0.0 }).sum();
        if inv_d == 0.0 {
            f64::INFINITY
        } else {
            1.0 / inv_d - c
        }
    }

    /// Utilization of a node set: `c(P) / d(P)` — the fraction of one
    /// processor the partition needs to keep pace; > 1 means it stalls.
    pub fn utilization(&self, nodes: &[usize], d: &[f64]) -> f64 {
        let c: f64 = nodes.iter().map(|&v| self.cost[v]).sum();
        let inv_d: f64 =
            nodes.iter().map(|&v| if d[v].is_finite() { 1.0 / d[v] } else { 0.0 }).sum();
        c * inv_d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// chain: src(rate 100/s) -> f0 (sel 0.5, c=1ms) -> f1 (sel 0.2, c=2ms)
    fn chain() -> CostGraph {
        CostGraph::from_parts(
            3,
            vec![(0, 1), (1, 2)],
            vec![0.0, 0.001, 0.002],
            vec![1.0, 0.5, 0.2],
            vec![Some(100.0), None, None],
        )
    }

    #[test]
    fn rates_propagate_through_selectivities() {
        let g = chain();
        let rates = g.input_rates();
        assert_eq!(rates[0], 100.0);
        assert_eq!(rates[1], 100.0);
        assert_eq!(rates[2], 50.0);
        let d = g.interarrival_times();
        assert!((d[1] - 0.01).abs() < 1e-12);
        assert!((d[2] - 0.02).abs() < 1e-12);
    }

    #[test]
    fn fanin_rates_sum() {
        // Two sources into a union-like node.
        let g = CostGraph::from_parts(
            3,
            vec![(0, 2), (1, 2)],
            vec![0.0, 0.0, 0.001],
            vec![1.0, 1.0, 1.0],
            vec![Some(10.0), Some(30.0), None],
        );
        assert_eq!(g.input_rates()[2], 40.0);
    }

    #[test]
    fn fanout_duplicates_rate_to_both_consumers() {
        // src -> {a, b}: both see the full output rate (subquery sharing).
        let g = CostGraph::from_parts(
            3,
            vec![(0, 1), (0, 2)],
            vec![0.0, 0.001, 0.001],
            vec![1.0, 1.0, 1.0],
            vec![Some(5.0), None, None],
        );
        let rates = g.input_rates();
        assert_eq!(rates[1], 5.0);
        assert_eq!(rates[2], 5.0);
    }

    #[test]
    fn capacity_matches_paper_formula() {
        let g = chain();
        let d = g.interarrival_times();
        // Partition {f0}: d = 0.01, c = 0.001 → cap = 0.009.
        assert!((g.capacity(&[1], &d) - 0.009).abs() < 1e-12);
        // Partition {f0, f1}: d = 1/(100 + 50) = 1/150, c = 0.003.
        let expected = 1.0 / 150.0 - 0.003;
        assert!((g.capacity(&[1, 2], &d) - expected).abs() < 1e-12);
        // Utilization of {f0}: c/d = 0.001 * 100 = 0.1.
        assert!((g.utilization(&[1], &d) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_partition_has_infinite_capacity() {
        let g = chain();
        let d = g.interarrival_times();
        assert!(g.capacity(&[], &d).is_infinite());
    }

    #[test]
    fn negative_capacity_flags_stall() {
        // Expensive operator: c = 0.1 s at 100 el/s → cap = 0.01 - 0.1 < 0.
        let g = CostGraph::from_parts(
            2,
            vec![(0, 1)],
            vec![0.0, 0.1],
            vec![1.0, 1.0],
            vec![Some(100.0), None],
        );
        let d = g.interarrival_times();
        assert!(g.capacity(&[1], &d) < 0.0);
        assert!(g.utilization(&[1], &d) > 1.0);
    }

    #[test]
    fn unreachable_node_has_infinite_d_and_capacity() {
        let g = CostGraph::from_parts(
            2,
            vec![],
            vec![0.0, 0.001],
            vec![1.0, 1.0],
            vec![Some(1.0), None],
        );
        let d = g.interarrival_times();
        assert!(d[1].is_infinite());
        assert!(g.capacity(&[1], &d).is_infinite());
        assert_eq!(g.utilization(&[1], &d), 0.0);
    }

    #[test]
    fn accessors() {
        let g = chain();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.operators(), vec![1, 2]);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.predecessors(2), &[1]);
        assert_eq!(g.cost(2), 0.002);
        assert_eq!(g.selectivity(1), 0.5);
        assert!(g.is_source(0));
        assert!(!g.is_source(1));
        assert_eq!(g.edges().len(), 2);
        assert_eq!(g.topological_order().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn from_query_graph_uses_hints_and_overrides() {
        use crate::graph::QueryGraph;
        use hmts_operators::expr::Expr;
        use hmts_operators::filter::Filter;
        use hmts_operators::traits::Source;
        use hmts_streams::time::Timestamp;
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

        let mut g = QueryGraph::new();
        let s = g.add_source(Box::new(S));
        let f = g.add_operator(Box::new(
            Filter::new("f", Expr::bool(true))
                .with_selectivity_hint(0.5)
                .with_cost_hint(Duration::from_millis(1)),
        ));
        let h = g.add_operator(Box::new(Filter::new("h", Expr::bool(true))));
        g.connect(s, f);
        g.connect(f, h);

        let mut inputs = CostInputs::default();
        inputs.source_rates.insert(s, 200.0);
        inputs.costs.insert(h, Duration::from_millis(5));
        let cg = CostGraph::from_query_graph(&g, &inputs);

        assert!(cg.is_source(s.0));
        assert_eq!(cg.cost(f.0), 0.001); // from hint
        assert_eq!(cg.selectivity(f.0), 0.5); // from hint
        assert_eq!(cg.cost(h.0), 0.005); // from override
        assert_eq!(cg.selectivity(h.0), 1.0); // default
        let rates = cg.input_rates();
        assert_eq!(rates[f.0], 200.0);
        assert_eq!(rates[h.0], 100.0);
    }

    #[test]
    #[should_panic(expected = "cost vector length")]
    fn from_parts_validates_lengths() {
        CostGraph::from_parts(2, vec![], vec![0.0], vec![1.0, 1.0], vec![None, None]);
    }
}
