//! Queue placement: constructing virtual operators.
//!
//! "The crucial question in the construction of VOs is the placement of the
//! queues. From a formal point of view, this is a graph partitioning
//! problem, where each partition corresponds to a VO. The computation of an
//! optimal partitioning for an arbitrary graph is NP-complete." (paper §5)
//!
//! This module provides the paper's stall-avoiding heuristic (Algorithm 1)
//! and the two baselines its Fig. 11 compares against, plus an exhaustive
//! optimal search for tiny graphs used as test ground truth:
//!
//! * [`stall_avoiding()`] — Algorithm 1: bottom-up first-fit-decreasing
//!   merging under the capacity constraint `cap(P) ≥ 0`,
//! * [`segment`](simplified_segment()) — the simplified segment strategy (Jiang & Chakravarthy),
//! * [`chain_based()`] — merge operators sharing a Chain segment
//!   (Babcock et al.),
//! * [`exhaustive`](exhaustive_optimal()) — minimal partition count subject to `cap ≥ 0`
//!   (exponential; small graphs only),
//! * [`metrics`](evaluate()) — the Fig. 11 evaluation: average negative/positive
//!   capacity of the produced VOs.
//!
//! All algorithms operate on index-based [`CostGraph`](hmts_graph::cost::CostGraph)s and return
//! partitions as `Vec<Vec<usize>>` over operator indices; when the cost
//! graph was derived from a query graph, indices coincide with [`NodeId`]s
//! and [`to_partitioning`] converts directly.

pub mod chain_based;
pub mod exhaustive;
pub mod metrics;
pub mod segment;
pub mod stall_avoiding;

use hmts_graph::graph::NodeId;
use hmts_graph::partition::Partitioning;

pub use chain_based::chain_based;
pub use exhaustive::exhaustive_optimal;
pub use metrics::{evaluate, CapacityReport};
pub use segment::simplified_segment;
pub use stall_avoiding::stall_avoiding;

/// Recommends a level-3 worker-thread count for a partitioning: the total
/// CPU demand of the virtual operators — the sum of per-VO utilizations
/// `c(P)/d(P)`, each capped at 1 (a single VO is executed by at most one
/// thread at a time, paper §4.2.2's atomic level-2 execution) — rounded up.
pub fn suggest_workers(g: &hmts_graph::cost::CostGraph, groups: &[Vec<usize>]) -> usize {
    let d = g.interarrival_times();
    let total: f64 = groups
        .iter()
        .map(|grp| {
            let u = g.utilization(grp, &d);
            if u.is_finite() {
                u.min(1.0)
            } else {
                0.0
            }
        })
        .sum();
    (total.ceil() as usize).max(1)
}

/// Converts index-based partitions into a graph-level [`Partitioning`]
/// (valid when the cost graph's indices coincide with the query graph's
/// node ids, which [`hmts_graph::cost::CostGraph::from_topology`]
/// guarantees).
pub fn to_partitioning(groups: &[Vec<usize>]) -> Partitioning {
    Partitioning::new(groups.iter().map(|g| g.iter().map(|&v| NodeId(v)).collect()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_graph::cost::CostGraph;

    #[test]
    fn conversion_maps_indices_to_node_ids() {
        let p = to_partitioning(&[vec![1, 2], vec![3]]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.groups()[0], vec![NodeId(1), NodeId(2)]);
        assert_eq!(p.groups()[1], vec![NodeId(3)]);
    }

    #[test]
    fn suggest_workers_sums_capped_utilizations() {
        // src(1000/s) -> a (0.8 util) -> b (0.8 util): two VOs → 2 workers.
        let g = CostGraph::from_parts(
            3,
            vec![(0, 1), (1, 2)],
            vec![0.0, 8e-4, 8e-4],
            vec![1.0, 1.0, 1.0],
            vec![Some(1000.0), None, None],
        );
        assert_eq!(suggest_workers(&g, &[vec![1], vec![2]]), 2);
        // Merged into one VO: one (saturated) worker.
        assert_eq!(suggest_workers(&g, &[vec![1, 2]]), 1);
        // Lightly loaded VOs share one worker.
        let light = CostGraph::from_parts(
            3,
            vec![(0, 1), (1, 2)],
            vec![0.0, 1e-5, 1e-5],
            vec![1.0, 1.0, 1.0],
            vec![Some(1000.0), None, None],
        );
        assert_eq!(suggest_workers(&light, &[vec![1], vec![2]]), 1);
        // No groups at all: still at least one worker.
        assert_eq!(suggest_workers(&light, &[]), 1);
    }
}
