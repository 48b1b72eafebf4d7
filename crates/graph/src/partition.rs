//! Partitionings of a query graph — the formal counterpart of virtual
//! operators.
//!
//! Paper §5.1.2: a partitioning `P` of the query graph consists of disjoint
//! subgraphs `P_i`; each partition corresponds to one virtual operator, so
//! all nodes of a partition must be (weakly) connected. Queues are exactly
//! the edges that cross partition boundaries.
//!
//! Partitions cover the *operator* nodes only: sources are autonomous
//! threads outside the partitioning (paper §2.1/§6.3), although a partition
//! may be driven directly by a source thread when no queue separates them.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use crate::graph::{Edge, NodeId, QueryGraph};

/// A partitioning of a query graph's operator nodes into virtual operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    groups: Vec<Vec<NodeId>>,
}

/// A defect in a proposed partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A group is empty.
    EmptyGroup(usize),
    /// A node appears in more than one group.
    Overlap(NodeId),
    /// An operator node is not covered by any group.
    Uncovered(NodeId),
    /// A group contains a source node (sources are outside partitionings).
    ContainsSource(NodeId),
    /// A group's nodes are not weakly connected via graph edges inside the
    /// group — it could not act as a single virtual operator.
    Disconnected(usize),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::EmptyGroup(i) => write!(f, "partition {i} is empty"),
            PartitionError::Overlap(n) => write!(f, "node {n} is in multiple partitions"),
            PartitionError::Uncovered(n) => write!(f, "operator {n} is in no partition"),
            PartitionError::ContainsSource(n) => {
                write!(f, "partition contains source node {n}")
            }
            PartitionError::Disconnected(i) => {
                write!(f, "partition {i} is not weakly connected")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

impl Partitioning {
    /// A partitioning from explicit groups.
    pub fn new(groups: Vec<Vec<NodeId>>) -> Partitioning {
        Partitioning { groups }
    }

    /// The OTS-shaped partitioning: every operator is its own partition.
    pub fn singletons(g: &QueryGraph) -> Partitioning {
        Partitioning { groups: g.operators().into_iter().map(|id| vec![id]).collect() }
    }

    /// The GTS-shaped partitioning: all operators in one partition.
    ///
    /// Note: a single group spanning multiple independent queries may be
    /// weakly *disconnected*; GTS still executes it as one unit, so
    /// validation treats the whole-graph partitioning specially via
    /// [`Partitioning::validate_for_execution`].
    pub fn whole_graph(g: &QueryGraph) -> Partitioning {
        Partitioning { groups: vec![g.operators()] }
    }

    /// The groups.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no partitions.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Map from node id to its group index.
    pub fn group_index(&self) -> HashMap<NodeId, usize> {
        let mut m = HashMap::new();
        for (i, g) in self.groups.iter().enumerate() {
            for &n in g {
                m.insert(n, i);
            }
        }
        m
    }

    /// The group index containing `node`, if any.
    pub fn group_of(&self, node: NodeId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&node))
    }

    /// Edges of `g` that cross partition boundaries — i.e. the places where
    /// queues must be inserted. Edges leaving a *source* are included:
    /// whether they get a queue is an execution-mode decision (a
    /// source-driven partition omits it), so they are reported separately
    /// by [`Partitioning::source_edges`].
    pub fn boundary_edges(&self, g: &QueryGraph) -> Vec<Edge> {
        let idx = self.group_index();
        g.edges()
            .iter()
            .filter(|e| {
                match (idx.get(&e.from), idx.get(&e.to)) {
                    (Some(a), Some(b)) => a != b,
                    // Source→operator edges are not internal to any group.
                    _ => false,
                }
            })
            .copied()
            .collect()
    }

    /// Edges of `g` from a source node into a partition.
    pub fn source_edges(&self, g: &QueryGraph) -> Vec<Edge> {
        g.edges().iter().filter(|e| g.node(e.from).kind.is_source()).copied().collect()
    }

    /// Validates the virtual-operator invariants: groups are non-empty,
    /// disjoint, cover every operator, contain no sources, and are weakly
    /// connected.
    pub fn validate(&self, g: &QueryGraph) -> Vec<PartitionError> {
        let mut errors = self.validate_for_execution(g);
        for (i, group) in self.groups.iter().enumerate() {
            if group.len() > 1 && !is_weakly_connected(g, group) {
                errors.push(PartitionError::Disconnected(i));
            }
        }
        errors
    }

    /// Like [`Partitioning::validate`] but without the connectivity
    /// requirement — the GTS whole-graph partition is executable even when
    /// the graph has several disconnected queries.
    pub fn validate_for_execution(&self, g: &QueryGraph) -> Vec<PartitionError> {
        let mut errors = Vec::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        for (i, group) in self.groups.iter().enumerate() {
            if group.is_empty() {
                errors.push(PartitionError::EmptyGroup(i));
            }
            for &n in group {
                if !seen.insert(n) {
                    errors.push(PartitionError::Overlap(n));
                }
                if n.0 < g.node_count() && g.node(n).kind.is_source() {
                    errors.push(PartitionError::ContainsSource(n));
                }
            }
        }
        for op in g.operators() {
            if !seen.contains(&op) {
                errors.push(PartitionError::Uncovered(op));
            }
        }
        errors
    }
}

/// Whether `group`'s nodes form one weakly connected component using only
/// edges with both endpoints in `group`.
fn is_weakly_connected(g: &QueryGraph, group: &[NodeId]) -> bool {
    if group.is_empty() {
        return true;
    }
    let set: HashSet<NodeId> = group.iter().copied().collect();
    let mut visited = HashSet::new();
    let mut queue = VecDeque::new();
    queue.push_back(group[0]);
    visited.insert(group[0]);
    while let Some(n) = queue.pop_front() {
        let neighbours = g.out_edges(n).map(|e| e.to).chain(g.in_edges(n).map(|e| e.from));
        for m in neighbours {
            if set.contains(&m) && visited.insert(m) {
                queue.push_back(m);
            }
        }
    }
    visited.len() == group.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::traits::{Operator, Source};
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

    fn filter(name: &'static str) -> Box<dyn Operator> {
        Box::new(Filter::new(name, Expr::bool(true)))
    }

    /// s -> a -> b -> c
    fn chain() -> (QueryGraph, NodeId, [NodeId; 3]) {
        let mut g = QueryGraph::new();
        let s = g.add_source(Box::new(S));
        let a = g.add_operator(filter("a"));
        let b = g.add_operator(filter("b"));
        let c = g.add_operator(filter("c"));
        g.connect(s, a);
        g.connect(a, b);
        g.connect(b, c);
        (g, s, [a, b, c])
    }

    #[test]
    fn singletons_and_whole_graph() {
        let (g, _, [a, b, c]) = chain();
        let ots = Partitioning::singletons(&g);
        assert_eq!(ots.len(), 3);
        assert!(ots.validate(&g).is_empty());

        let gts = Partitioning::whole_graph(&g);
        assert_eq!(gts.len(), 1);
        assert_eq!(gts.groups()[0], vec![a, b, c]);
        assert!(gts.validate(&g).is_empty());
    }

    #[test]
    fn group_lookup() {
        let (g, _, [a, b, c]) = chain();
        let p = Partitioning::new(vec![vec![a, b], vec![c]]);
        assert_eq!(p.group_of(a), Some(0));
        assert_eq!(p.group_of(c), Some(1));
        assert_eq!(p.group_index()[&b], 0);
        assert!(!p.is_empty());
        assert!(p.validate(&g).is_empty());
    }

    #[test]
    fn boundary_internal_and_source_edges() {
        let (g, s, [a, b, c]) = chain();
        let p = Partitioning::new(vec![vec![a, b], vec![c]]);
        let boundary = p.boundary_edges(&g);
        assert_eq!(boundary.len(), 1);
        assert_eq!((boundary[0].from, boundary[0].to), (b, c));
        let source = p.source_edges(&g);
        assert_eq!(source.len(), 1);
        assert_eq!(source[0].from, s);
        // The one edge left is internal: a -> b, inside the first group.
        assert_eq!(g.edges().len(), boundary.len() + source.len() + 1);
    }

    #[test]
    fn overlap_detected() {
        let (g, _, [a, b, c]) = chain();
        let p = Partitioning::new(vec![vec![a, b], vec![b, c]]);
        assert!(p.validate(&g).contains(&PartitionError::Overlap(b)));
    }

    #[test]
    fn uncovered_detected() {
        let (g, _, [a, b, c]) = chain();
        let p = Partitioning::new(vec![vec![a, b]]);
        assert_eq!(p.validate(&g), vec![PartitionError::Uncovered(c)]);
    }

    #[test]
    fn source_in_group_detected() {
        let (g, s, [a, b, c]) = chain();
        let p = Partitioning::new(vec![vec![s, a, b, c]]);
        assert!(p.validate(&g).contains(&PartitionError::ContainsSource(s)));
    }

    #[test]
    fn empty_group_detected() {
        let (g, _, [a, b, c]) = chain();
        let p = Partitioning::new(vec![vec![a, b, c], vec![]]);
        assert!(p.validate(&g).contains(&PartitionError::EmptyGroup(1)));
    }

    #[test]
    fn disconnected_group_detected_but_executable() {
        let (g, _, [a, _b, c]) = chain();
        // {a, c} skips b — not weakly connected.
        let p = Partitioning::new(vec![vec![a, c], vec![NodeId(2)]]);
        assert!(p.validate(&g).contains(&PartitionError::Disconnected(0)));
        // Execution-level validation does not require connectivity.
        assert!(p.validate_for_execution(&g).is_empty());
    }

    #[test]
    fn whole_graph_of_two_queries_is_executable() {
        // Two independent chains unified in one graph.
        let mut g = QueryGraph::new();
        let s1 = g.add_source(Box::new(S));
        let a = g.add_operator(filter("a"));
        let s2 = g.add_source(Box::new(S));
        let b = g.add_operator(filter("b"));
        g.connect(s1, a);
        g.connect(s2, b);
        let gts = Partitioning::whole_graph(&g);
        assert!(gts.validate_for_execution(&g).is_empty());
        // Strict VO validation flags the disconnect.
        assert!(gts.validate(&g).contains(&PartitionError::Disconnected(0)));
    }
}
