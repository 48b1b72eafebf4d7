//! Level-2 scheduling strategies: which input queue does an executor
//! service next?
//!
//! Paper §4.2.2: each second-level unit schedules its queues "with respect
//! to a separate strategy … it is possible to choose arbitrary strategies on
//! the second level". The strategies compared in the paper's experiments are
//! FIFO and Chain; round-robin and longest-queue-first are included as
//! additional baselines.

use hmts_graph::cost::CostGraph;
use hmts_graph::graph::NodeId;
use hmts_streams::time::Timestamp;

use crate::scheduler::chain::compute_chain_segments;

/// The decision view of one input queue, assembled by the executor before
/// each scheduling decision.
#[derive(Debug, Clone, Copy)]
pub struct InputSlot {
    /// The operator this queue feeds.
    pub consumer: NodeId,
    /// Current queue length.
    pub len: usize,
    /// Timestamp of the queue's head message, if any.
    pub head_ts: Option<Timestamp>,
}

/// A queue-selection strategy. Implementations are owned by one executor at
/// a time, so they may keep mutable state (cursors, statistics).
pub trait Strategy: Send {
    /// Human-readable name, for reports.
    fn name(&self) -> &'static str;

    /// The index of the queue to service next, or `None` when every queue
    /// is empty.
    fn select(&mut self, slots: &[InputSlot]) -> Option<usize>;
}

/// The built-in strategies, as cheap copyable configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// Oldest pending element first (by head timestamp) — the paper's FIFO.
    #[default]
    Fifo,
    /// Cycle through non-empty queues.
    RoundRobin,
    /// Longest queue first (a simple memory-pressure heuristic).
    LongestQueue,
    /// The Chain strategy: steepest lower-envelope segment first
    /// (Babcock et al., SIGMOD 2003). Requires a cost model.
    Chain,
}

impl StrategyKind {
    /// Instantiates the strategy. `costs` supplies the per-node cost model
    /// the Chain strategy needs; the other strategies ignore it. Chain
    /// without a cost model degrades to FIFO (and is reported as such).
    pub fn build(self, costs: Option<&CostGraph>) -> Box<dyn Strategy> {
        match self {
            StrategyKind::Fifo => Box::new(Fifo),
            StrategyKind::RoundRobin => Box::new(RoundRobin { cursor: 0 }),
            StrategyKind::LongestQueue => Box::new(LongestQueue),
            StrategyKind::Chain => match costs {
                Some(g) => {
                    let segments = compute_chain_segments(g);
                    let priority = (0..g.node_count()).map(|v| segments.priority_of(v)).collect();
                    Box::new(ChainStrategy { priority })
                }
                None => Box::new(Fifo),
            },
        }
    }
}

/// Oldest head element first; ties broken by the highest slot index. An
/// executor lists its queues in node order, so on a chain that is the
/// queue farthest downstream, whose head entered the engine first: taking
/// it drains what is already in flight before admitting more (elements
/// unpaced at rates above 1 M/s share a microsecond timestamp).
struct Fifo;

impl Strategy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select(&mut self, slots: &[InputSlot]) -> Option<usize> {
        slots
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, s)| s.len > 0)
            .min_by_key(|(_, s)| s.head_ts.unwrap_or(Timestamp::MAX))
            .map(|(i, _)| i)
    }
}

/// Cycles fairly through non-empty queues.
struct RoundRobin {
    cursor: usize,
}

impl Strategy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn select(&mut self, slots: &[InputSlot]) -> Option<usize> {
        if slots.is_empty() {
            return None;
        }
        let n = slots.len();
        for off in 0..n {
            let i = (self.cursor + off) % n;
            if slots[i].len > 0 {
                self.cursor = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }
}

/// Largest backlog first; ties broken by older head element.
struct LongestQueue;

impl Strategy for LongestQueue {
    fn name(&self) -> &'static str {
        "longest-queue"
    }

    fn select(&mut self, slots: &[InputSlot]) -> Option<usize> {
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len > 0)
            .max_by(|(_, a), (_, b)| {
                a.len.cmp(&b.len).then_with(|| {
                    // Older head (smaller ts) wins a tie, so reverse.
                    b.head_ts.unwrap_or(Timestamp::MAX).cmp(&a.head_ts.unwrap_or(Timestamp::MAX))
                })
            })
            .map(|(i, _)| i)
    }
}

/// Chain: highest segment priority first; ties broken FIFO (older head
/// first), as in Babcock et al.
struct ChainStrategy {
    /// Priority per node index.
    priority: Vec<f64>,
}

impl ChainStrategy {
    fn priority(&self, node: NodeId) -> f64 {
        self.priority.get(node.0).copied().unwrap_or(f64::NEG_INFINITY)
    }
}

impl Strategy for ChainStrategy {
    fn name(&self) -> &'static str {
        "chain"
    }

    fn select(&mut self, slots: &[InputSlot]) -> Option<usize> {
        let mut best: Option<(usize, f64, Timestamp)> = None;
        for (i, s) in slots.iter().enumerate() {
            if s.len == 0 {
                continue;
            }
            let p = self.priority(s.consumer);
            let ts = s.head_ts.unwrap_or(Timestamp::MAX);
            let better = match best {
                None => true,
                Some((_, bp, bts)) => p > bp || (p == bp && ts < bts),
            };
            if better {
                best = Some((i, p, ts));
            }
        }
        best.map(|(i, _, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(consumer: usize, len: usize, ts_us: u64) -> InputSlot {
        InputSlot {
            consumer: NodeId(consumer),
            len,
            head_ts: (len > 0).then(|| Timestamp::from_micros(ts_us)),
        }
    }

    #[test]
    fn fifo_picks_oldest_head() {
        let mut s = StrategyKind::Fifo.build(None);
        assert_eq!(s.name(), "fifo");
        let slots = [slot(0, 3, 50), slot(1, 1, 10), slot(2, 2, 30)];
        assert_eq!(s.select(&slots), Some(1));
        assert_eq!(s.select(&[slot(0, 0, 0), slot(1, 0, 0)]), None);
        assert_eq!(s.select(&[]), None);
    }

    #[test]
    fn fifo_breaks_ties_toward_the_later_slot() {
        let mut s = StrategyKind::Fifo.build(None);
        assert_eq!(s.select(&[slot(0, 16, 0), slot(1, 5, 0), slot(2, 0, 0)]), Some(1));
    }

    #[test]
    fn round_robin_cycles_skipping_empty() {
        let mut s = StrategyKind::RoundRobin.build(None);
        let slots = [slot(0, 1, 1), slot(1, 0, 0), slot(2, 1, 1)];
        assert_eq!(s.select(&slots), Some(0));
        assert_eq!(s.select(&slots), Some(2));
        assert_eq!(s.select(&slots), Some(0));
        assert_eq!(s.select(&[slot(0, 0, 0)]), None);
    }

    #[test]
    fn longest_queue_prefers_backlog_then_age() {
        let mut s = StrategyKind::LongestQueue.build(None);
        let slots = [slot(0, 3, 50), slot(1, 7, 99), slot(2, 3, 10)];
        assert_eq!(s.select(&slots), Some(1));
        let tie = [slot(0, 3, 50), slot(1, 3, 10)];
        assert_eq!(s.select(&tie), Some(1)); // older head wins the tie
    }

    #[test]
    fn chain_prefers_steeper_segment() {
        // src(0) -> cheap+selective op(1) -> expensive op(2).
        let g = CostGraph::from_parts(
            3,
            vec![(0, 1), (1, 2)],
            vec![0.0, 1e-6, 1.0],
            vec![1.0, 0.01, 1.0],
            vec![Some(100.0), None, None],
        );
        let mut s = StrategyKind::Chain.build(Some(&g));
        assert_eq!(s.name(), "chain");
        // Both queues non-empty: the selective op's segment is steeper.
        let slots = [slot(2, 5, 10), slot(1, 1, 50)];
        assert_eq!(s.select(&slots), Some(1));
        // Only the expensive op has input → it runs.
        let slots = [slot(2, 5, 10), slot(1, 0, 0)];
        assert_eq!(s.select(&slots), Some(0));
    }

    #[test]
    fn chain_ties_break_fifo() {
        let g = CostGraph::from_parts(
            3,
            vec![(0, 1), (0, 2)],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.5, 0.5],
            vec![Some(100.0), None, None],
        );
        let mut s = StrategyKind::Chain.build(Some(&g));
        let slots = [slot(1, 2, 40), slot(2, 2, 20)];
        assert_eq!(s.select(&slots), Some(1));
    }

    #[test]
    fn chain_without_cost_model_degrades_to_fifo() {
        let s = StrategyKind::Chain.build(None);
        assert_eq!(s.name(), "fifo");
    }

    #[test]
    fn default_is_fifo() {
        assert_eq!(StrategyKind::default(), StrategyKind::Fifo);
    }
}
