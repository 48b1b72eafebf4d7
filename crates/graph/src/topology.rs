//! Payload-free graph structure, and decomposition of a [`QueryGraph`] into
//! structure + payloads.
//!
//! The engine needs to *move* operators into partition executors (threads)
//! while continuing to reason about the graph's shape — and, for the paper's
//! runtime mode switching (§4.2.2), to move them back out and re-wire. A
//! [`Topology`] is the cheap, cloneable structural view that survives while
//! payloads travel.

use std::fmt;

use hmts_operators::traits::{Operator, Source};

use crate::graph::{Edge, NodeId, QueryGraph};
use crate::partition::Partitioning;

/// Structural kind of a node, without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// A source.
    Source,
    /// An operator with the given input arity.
    Operator {
        /// Declared input arity.
        arity: usize,
    },
}

/// The payload extracted from a node.
pub enum Payload {
    /// A source payload.
    Source(Box<dyn Source>),
    /// An operator payload.
    Operator(Box<dyn Operator>),
}

/// A payload-free copy of a query graph's structure.
#[derive(Debug, Clone)]
pub struct Topology {
    names: Vec<String>,
    kinds: Vec<TopoKind>,
    edges: Vec<Edge>,
}

impl Topology {
    /// A structural snapshot of a query graph (non-consuming; used to build
    /// execution plans before handing the graph to an engine).
    pub fn of(g: &QueryGraph) -> Topology {
        Topology {
            names: g.nodes().iter().map(|n| n.name.clone()).collect(),
            kinds: g
                .nodes()
                .iter()
                .map(|n| match &n.kind {
                    crate::graph::NodeKind::Source(_) => TopoKind::Source,
                    crate::graph::NodeKind::Operator(op) => {
                        TopoKind::Operator { arity: op.input_arity() }
                    }
                })
                .collect(),
            edges: g.edges().to_vec(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Name of a node.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Kind of a node.
    pub fn kind(&self, id: NodeId) -> TopoKind {
        self.kinds[id.0]
    }

    /// Whether `id` is a source.
    pub fn is_source(&self, id: NodeId) -> bool {
        matches!(self.kinds[id.0], TopoKind::Source)
    }

    /// Input arity of a node (0 for sources).
    pub fn input_arity(&self, id: NodeId) -> usize {
        match self.kinds[id.0] {
            TopoKind::Source => 0,
            TopoKind::Operator { arity } => arity,
        }
    }

    /// Edges leaving `id`.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// Edges entering `id`.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.to == id)
    }

    /// Ids of all source nodes.
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.node_count()).map(NodeId).filter(|&id| self.is_source(id)).collect()
    }

    /// Ids of all operator nodes.
    pub fn operators(&self) -> Vec<NodeId> {
        (0..self.node_count()).map(NodeId).filter(|&id| !self.is_source(id)).collect()
    }

    /// Ids of all sink nodes (operators with no outgoing edges).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.operators().into_iter().filter(|&id| self.out_edges(id).next().is_none()).collect()
    }

    /// Edges that cross partition boundaries (where inter-VO queues go).
    /// Source→operator edges are *not* included; see
    /// [`Partitioning::source_edges`].
    pub fn boundary_edges(&self, p: &Partitioning) -> Vec<Edge> {
        let idx = p.group_index();
        self.edges
            .iter()
            .filter(|e| matches!((idx.get(&e.from), idx.get(&e.to)), (Some(a), Some(b)) if a != b))
            .copied()
            .collect()
    }

    /// The operator nodes of each weakly connected component of the
    /// operator-induced subgraph (source edges connect components too —
    /// a join of two sources is one component). Used to derive the
    /// per-component partitions of pure DI execution.
    pub fn weakly_connected_operator_components(&self) -> Vec<Vec<NodeId>> {
        let n = self.node_count();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let c = next;
            next += 1;
            let mut stack = vec![NodeId(start)];
            comp[start] = c;
            while let Some(v) = stack.pop() {
                let neighbours = self
                    .out_edges(v)
                    .map(|e| e.to)
                    .chain(self.in_edges(v).map(|e| e.from))
                    .collect::<Vec<_>>();
                for m in neighbours {
                    if comp[m.0] == usize::MAX {
                        comp[m.0] = c;
                        stack.push(m);
                    }
                }
            }
        }
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); next];
        for id in self.operators() {
            groups[comp[id.0]].push(id);
        }
        groups.retain(|g| !g.is_empty());
        groups
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Topology({} nodes, {} edges)", self.node_count(), self.edges.len())
    }
}

impl QueryGraph {
    /// Splits the graph into its structure and its payloads. Payload `i`
    /// belongs to node `NodeId(i)`.
    pub fn decompose(self) -> (Topology, Vec<Payload>) {
        let mut names = Vec::new();
        let mut kinds = Vec::new();
        let mut payloads = Vec::new();
        let edges = self.edges().to_vec();
        for node in self.into_nodes() {
            names.push(node.name);
            match node.kind {
                crate::graph::NodeKind::Source(s) => {
                    kinds.push(TopoKind::Source);
                    payloads.push(Payload::Source(s));
                }
                crate::graph::NodeKind::Operator(op) => {
                    kinds.push(TopoKind::Operator { arity: op.input_arity() });
                    payloads.push(Payload::Operator(op));
                }
            }
        }
        (Topology { names, kinds, edges }, payloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::join::SymmetricHashJoin;
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;
    use std::time::Duration;

    struct S;
    impl Source for S {
        fn name(&self) -> &str {
            "s"
        }
        fn next(&mut self) -> Option<(Timestamp, Tuple)> {
            None
        }
    }

    fn join_graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        let a = g.add_source(Box::new(S));
        let b = g.add_source(Box::new(S));
        let j =
            g.add_operator(Box::new(SymmetricHashJoin::on_field("j", 0, Duration::from_secs(1))));
        let f = g.add_operator(Box::new(Filter::new("f", Expr::bool(true))));
        g.connect_port(a, j, 0);
        g.connect_port(b, j, 1);
        g.connect(j, f);
        g
    }

    #[test]
    fn decompose_preserves_structure() {
        let (topo, payloads) = join_graph().decompose();
        assert_eq!(topo.node_count(), 4);
        assert_eq!(payloads.len(), 4);
        assert_eq!(topo.sources(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(topo.operators(), vec![NodeId(2), NodeId(3)]);
        assert_eq!(topo.sinks(), vec![NodeId(3)]);
        assert_eq!(topo.name(NodeId(2)), "j");
        assert_eq!(topo.input_arity(NodeId(2)), 2);
        assert_eq!(topo.input_arity(NodeId(0)), 0);
        assert_eq!(topo.kind(NodeId(0)), TopoKind::Source);
        assert_eq!(topo.out_edges(NodeId(2)).count(), 1);
        assert_eq!(topo.in_edges(NodeId(2)).count(), 2);
        assert!(matches!(payloads[0], Payload::Source(_)));
        assert!(matches!(payloads[2], Payload::Operator(_)));
        assert_eq!(topo.to_string(), "Topology(4 nodes, 3 edges)");
    }

    #[test]
    fn boundary_and_source_edges() {
        let (topo, _) = join_graph().decompose();
        let p = Partitioning::new(vec![vec![NodeId(2)], vec![NodeId(3)]]);
        let b = topo.boundary_edges(&p);
        assert_eq!(b.len(), 1);
        assert_eq!((b[0].from, b[0].to), (NodeId(2), NodeId(3)));
        assert!(b.iter().all(|e| !topo.is_source(e.from)), "no source edge is a boundary");
    }

    #[test]
    fn connected_components() {
        // Two disconnected chains.
        let mut g = QueryGraph::new();
        let s1 = g.add_source(Box::new(S));
        let f1 = g.add_operator(Box::new(Filter::new("f1", Expr::bool(true))));
        let s2 = g.add_source(Box::new(S));
        let f2 = g.add_operator(Box::new(Filter::new("f2", Expr::bool(true))));
        let f3 = g.add_operator(Box::new(Filter::new("f3", Expr::bool(true))));
        g.connect(s1, f1);
        g.connect(s2, f2);
        g.connect(f2, f3);
        let (topo, _) = g.decompose();
        let comps = topo.weakly_connected_operator_components();
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![f1]));
        assert!(comps.contains(&vec![f2, f3]));
    }

    #[test]
    fn join_connects_components_through_sources() {
        let (topo, _) = join_graph().decompose();
        let comps = topo.weakly_connected_operator_components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], vec![NodeId(2), NodeId(3)]);
    }
}
