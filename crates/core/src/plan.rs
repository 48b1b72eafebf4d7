//! Execution plans: the three-level HMTS architecture as data.
//!
//! An [`ExecutionPlan`] captures the paper's architecture (§4.2.2) exactly:
//!
//! * **Level 1** — the [`Partitioning`]: which operators form virtual
//!   operators (VOs). Edges inside a partition use direct interoperability;
//!   edges crossing partitions get queues.
//! * **Level 2** — [`DomainSpec`]s: each domain executes a set of
//!   partitions "like a graph-threaded scheduler" with its own
//!   [`StrategyKind`].
//! * **Level 3** — every domain with a thread of its own is
//!   [`DomainExecution::Pooled`]: the thread scheduler (TS) multiplexes
//!   the pooled domains onto `workers` threads, with per-domain priorities.
//!
//! GTS, OTS, and pure DI are the special cases the paper describes, and are
//! provided as constructors: GTS is one pooled domain on one worker, OTS
//! one pooled domain per operator on as many workers, and pure DI has no
//! thread but its sources'.

use hmts_graph::graph::NodeId;
use hmts_graph::partition::Partitioning;
use hmts_graph::topology::Topology;

use crate::scheduler::strategy::StrategyKind;

/// How one scheduling domain (level-2 unit) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainExecution {
    /// No thread of its own: the feeding source threads execute the domain
    /// inline (pure direct interoperability, as in the paper's Fig. 6
    /// setting where "each join operator directly ran in the thread of its
    /// autonomous data sources").
    SourceDriven,
    /// Executed by the level-3 thread scheduler's worker pool, one slice
    /// at a time.
    Pooled,
}

/// One level-2 scheduling domain.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Diagnostic name.
    pub name: String,
    /// Indices into the plan's partitioning: the VOs this domain executes.
    pub partitions: Vec<usize>,
    /// How the domain is executed.
    pub execution: DomainExecution,
    /// Which of the domain's input queues to service next.
    pub strategy: StrategyKind,
    /// Base priority for the level-3 thread scheduler (higher runs first);
    /// ignored for a source-driven domain, which the scheduler never runs.
    pub priority: i32,
}

/// A complete description of how a query graph executes.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Level 1: the virtual operators.
    pub partitioning: Partitioning,
    /// Level 2 (and, via [`DomainExecution::Pooled`], level 3).
    pub domains: Vec<DomainSpec>,
    /// Worker threads of the level-3 scheduler, shared by the pooled
    /// domains (unused when there are none).
    pub workers: usize,
}

/// A defect in an execution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A partitioning defect (reported per the partition layer's rules).
    Partitioning(String),
    /// A domain references a partition index outside the partitioning.
    UnknownPartition {
        /// The offending domain.
        domain: usize,
        /// The out-of-range partition index.
        partition: usize,
    },
    /// A partition is claimed by more than one domain.
    PartitionInMultipleDomains(usize),
    /// A partition belongs to no domain.
    PartitionUnassigned(usize),
    /// A pooled domain exists but the plan has zero workers.
    NoWorkers,
    /// A source-driven domain receives input from a non-source node outside
    /// the domain — nothing would ever pop that queue.
    SourceDrivenWithUpstreamQueue {
        /// The offending domain.
        domain: usize,
        /// The operator feeding it from outside.
        from: NodeId,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Partitioning(msg) => write!(f, "invalid partitioning: {msg}"),
            PlanError::UnknownPartition { domain, partition } => {
                write!(f, "domain {domain} references unknown partition {partition}")
            }
            PlanError::PartitionInMultipleDomains(p) => {
                write!(f, "partition {p} is assigned to multiple domains")
            }
            PlanError::PartitionUnassigned(p) => {
                write!(f, "partition {p} is assigned to no domain")
            }
            PlanError::NoWorkers => write!(f, "plan has pooled domains but zero workers"),
            PlanError::SourceDrivenWithUpstreamQueue { domain, from } => write!(
                f,
                "source-driven domain {domain} is fed by operator {from} outside the domain"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl ExecutionPlan {
    /// **GTS** — graph-threaded scheduling: queues between every pair of
    /// adjacent operators (every operator is its own VO), one pooled domain
    /// on one worker executes all of them under `strategy`.
    pub fn gts(topo: &Topology, strategy: StrategyKind) -> ExecutionPlan {
        let partitioning =
            Partitioning::new(topo.operators().into_iter().map(|id| vec![id]).collect());
        let n = partitioning.len();
        ExecutionPlan {
            partitioning,
            domains: vec![DomainSpec {
                name: "gts".into(),
                partitions: (0..n).collect(),
                execution: DomainExecution::Pooled,
                strategy,
                priority: 0,
            }],
            workers: 1,
        }
    }

    /// **OTS** — operator-threaded scheduling: queues everywhere, one
    /// pooled domain per operator and as many workers, so each operator
    /// can have a thread to itself.
    pub fn ots(topo: &Topology) -> ExecutionPlan {
        let ops = topo.operators();
        let partitioning = Partitioning::new(ops.iter().map(|&id| vec![id]).collect());
        let domains = ops
            .iter()
            .enumerate()
            .map(|(i, &id)| DomainSpec {
                name: format!("ots-{}", topo.name(id)),
                partitions: vec![i],
                execution: DomainExecution::Pooled,
                strategy: StrategyKind::Fifo,
                priority: 0,
            })
            .collect();
        ExecutionPlan { partitioning, domains, workers: ops.len() }
    }

    /// **Pure DI** — no queues at all: each weakly connected component of
    /// the operator graph is one VO executed inline by its source threads
    /// (the paper's Fig. 6 setting).
    pub fn di(topo: &Topology) -> ExecutionPlan {
        let groups = topo.weakly_connected_operator_components();
        let partitioning = Partitioning::new(groups);
        let domains = (0..partitioning.len())
            .map(|i| DomainSpec {
                name: format!("di-{i}"),
                partitions: vec![i],
                execution: DomainExecution::SourceDriven,
                strategy: StrategyKind::Fifo,
                priority: 0,
            })
            .collect();
        ExecutionPlan { partitioning, domains, workers: 0 }
    }

    /// **Decoupled DI** — the paper's Fig. 7 "DI" setting: the whole
    /// operator graph forms VOs with no internal queues, but one queue after
    /// each source decouples it from its sources, and one pooled domain on
    /// one worker drives everything.
    pub fn di_decoupled(topo: &Topology) -> ExecutionPlan {
        let groups = topo.weakly_connected_operator_components();
        let partitioning = Partitioning::new(groups);
        let n = partitioning.len();
        ExecutionPlan {
            partitioning,
            domains: vec![DomainSpec {
                name: "di".into(),
                partitions: (0..n).collect(),
                execution: DomainExecution::Pooled,
                strategy: StrategyKind::Fifo,
                priority: 0,
            }],
            workers: 1,
        }
    }

    /// **HMTS** — the hybrid: the given VOs, one pooled domain per VO,
    /// multiplexed onto `workers` threads by the level-3 thread scheduler.
    pub fn hmts(
        partitioning: Partitioning,
        strategy: StrategyKind,
        workers: usize,
    ) -> ExecutionPlan {
        let domains = (0..partitioning.len())
            .map(|i| DomainSpec {
                name: format!("vo-{i}"),
                partitions: vec![i],
                execution: DomainExecution::Pooled,
                strategy,
                priority: 0,
            })
            .collect();
        ExecutionPlan { partitioning, domains, workers: workers.max(1) }
    }

    /// Checks the plan against a topology; empty means executable.
    pub fn validate(&self, topo: &Topology) -> Vec<PlanError> {
        let mut errors = Vec::new();

        // Level 1: partitions must cover all operators exactly once, no
        // sources.
        let mut covered = std::collections::HashSet::new();
        for group in self.partitioning.groups() {
            if group.is_empty() {
                errors.push(PlanError::Partitioning("empty partition".into()));
            }
            for &n in group {
                if n.0 >= topo.node_count() {
                    errors.push(PlanError::Partitioning(format!("unknown node {n}")));
                    continue;
                }
                if topo.is_source(n) {
                    errors.push(PlanError::Partitioning(format!("source {n} in partition")));
                }
                if !covered.insert(n) {
                    errors.push(PlanError::Partitioning(format!("node {n} in two partitions")));
                }
            }
        }
        for op in topo.operators() {
            if !covered.contains(&op) {
                errors.push(PlanError::Partitioning(format!("operator {op} uncovered")));
            }
        }

        // Level 2: domains partition the partitions.
        let np = self.partitioning.len();
        let mut claimed = vec![false; np];
        for (d, spec) in self.domains.iter().enumerate() {
            for &p in &spec.partitions {
                if p >= np {
                    errors.push(PlanError::UnknownPartition { domain: d, partition: p });
                } else if claimed[p] {
                    errors.push(PlanError::PartitionInMultipleDomains(p));
                } else {
                    claimed[p] = true;
                }
            }
        }
        for (p, c) in claimed.iter().enumerate() {
            if !c {
                errors.push(PlanError::PartitionUnassigned(p));
            }
        }

        // Level 3: pooled domains need workers.
        let pooled = self.domains.iter().any(|d| d.execution == DomainExecution::Pooled);
        if pooled && self.workers == 0 {
            errors.push(PlanError::NoWorkers);
        }

        // Source-driven domains must be fed only by sources (or internally).
        let group_index = self.partitioning.group_index();
        for (d, spec) in self.domains.iter().enumerate() {
            if spec.execution != DomainExecution::SourceDriven {
                continue;
            }
            let domain_nodes: std::collections::HashSet<NodeId> = spec
                .partitions
                .iter()
                .filter(|&&p| p < np)
                .flat_map(|&p| self.partitioning.groups()[p].iter().copied())
                .collect();
            for e in topo.edges() {
                if domain_nodes.contains(&e.to)
                    && !domain_nodes.contains(&e.from)
                    && !topo.is_source(e.from)
                {
                    // Feeding operator outside this domain: only legal if it
                    // is in no partition at all (impossible when covered).
                    if group_index.contains_key(&e.from) {
                        errors.push(PlanError::SourceDrivenWithUpstreamQueue {
                            domain: d,
                            from: e.from,
                        });
                    }
                }
            }
        }
        errors
    }

    /// The operator nodes of domain `d`, in partition order.
    pub fn domain_nodes(&self, d: usize) -> Vec<NodeId> {
        self.domains[d]
            .partitions
            .iter()
            .flat_map(|&p| self.partitioning.groups()[p].iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_graph::graph::QueryGraph;
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

    /// s -> a -> b -> c
    fn topo() -> (Topology, [NodeId; 3]) {
        let mut g = QueryGraph::new();
        let s = g.add_source(Box::new(S));
        let a = g.add_operator(Box::new(Filter::new("a", Expr::bool(true))));
        let b = g.add_operator(Box::new(Filter::new("b", Expr::bool(true))));
        let c = g.add_operator(Box::new(Filter::new("c", Expr::bool(true))));
        g.connect(s, a);
        g.connect(a, b);
        g.connect(b, c);
        (g.decompose().0, [a, b, c])
    }

    #[test]
    fn gts_plan_shape() {
        let (t, _) = topo();
        let p = ExecutionPlan::gts(&t, StrategyKind::Chain);
        assert_eq!(p.partitioning.len(), 3); // queue between every pair
        assert_eq!(p.domains.len(), 1);
        assert_eq!(p.domains[0].execution, DomainExecution::Pooled);
        assert_eq!(p.workers, 1);
        assert_eq!(p.domains[0].strategy, StrategyKind::Chain);
        assert!(p.validate(&t).is_empty());
        assert_eq!(p.domain_nodes(0).len(), 3);
    }

    #[test]
    fn ots_plan_shape() {
        let (t, _) = topo();
        let p = ExecutionPlan::ots(&t);
        assert_eq!(p.partitioning.len(), 3);
        assert_eq!(p.domains.len(), 3);
        assert!(p.domains.iter().all(|d| d.execution == DomainExecution::Pooled));
        assert_eq!(p.workers, 3, "one worker per operator");
        assert!(p.validate(&t).is_empty());
    }

    #[test]
    fn di_plan_shape() {
        let (t, [a, b, c]) = topo();
        let p = ExecutionPlan::di(&t);
        assert_eq!(p.partitioning.len(), 1); // one connected component
        assert_eq!(p.partitioning.groups()[0], vec![a, b, c]);
        assert_eq!(p.domains[0].execution, DomainExecution::SourceDriven);
        assert!(p.validate(&t).is_empty());
    }

    #[test]
    fn di_decoupled_plan_shape() {
        let (t, _) = topo();
        let p = ExecutionPlan::di_decoupled(&t);
        assert_eq!(p.partitioning.len(), 1);
        assert_eq!(p.domains.len(), 1);
        assert_eq!(p.domains[0].execution, DomainExecution::Pooled);
        assert_eq!(p.workers, 1);
        assert!(p.validate(&t).is_empty());
    }

    #[test]
    fn hmts_plan_shape() {
        let (t, [a, b, c]) = topo();
        let part = Partitioning::new(vec![vec![a, b], vec![c]]);
        let p = ExecutionPlan::hmts(part, StrategyKind::Fifo, 2);
        assert_eq!(p.domains.len(), 2);
        assert!(p.domains.iter().all(|d| d.execution == DomainExecution::Pooled));
        assert_eq!(p.workers, 2);
        assert!(p.validate(&t).is_empty());
    }

    #[test]
    fn validation_catches_coverage_errors() {
        let (t, [a, b, _c]) = topo();
        let plan = ExecutionPlan {
            partitioning: Partitioning::new(vec![vec![a, b]]),
            domains: vec![DomainSpec {
                name: "d".into(),
                partitions: vec![0],
                execution: DomainExecution::Pooled,
                strategy: StrategyKind::Fifo,
                priority: 0,
            }],
            workers: 1,
        };
        let errs = plan.validate(&t);
        assert!(errs
            .iter()
            .any(|e| matches!(e, PlanError::Partitioning(m) if m.contains("uncovered"))));
    }

    #[test]
    fn validation_catches_domain_errors() {
        let (t, [a, b, c]) = topo();
        let part = Partitioning::new(vec![vec![a], vec![b], vec![c]]);
        let mk = |partitions: Vec<usize>| DomainSpec {
            name: "d".into(),
            partitions,
            execution: DomainExecution::Pooled,
            strategy: StrategyKind::Fifo,
            priority: 0,
        };
        // Partition 2 unassigned; partition 0 doubly assigned; 9 unknown.
        let plan = ExecutionPlan {
            partitioning: part,
            domains: vec![mk(vec![0, 1]), mk(vec![0, 9])],
            workers: 1,
        };
        let errs = plan.validate(&t);
        assert!(errs.contains(&PlanError::PartitionInMultipleDomains(0)));
        assert!(errs.contains(&PlanError::PartitionUnassigned(2)));
        assert!(errs.contains(&PlanError::UnknownPartition { domain: 1, partition: 9 }));
    }

    #[test]
    fn validation_catches_pooled_without_workers() {
        let (t, [a, b, c]) = topo();
        let mut p =
            ExecutionPlan::hmts(Partitioning::new(vec![vec![a, b, c]]), StrategyKind::Fifo, 1);
        p.workers = 0;
        assert!(p.validate(&t).contains(&PlanError::NoWorkers));
    }

    #[test]
    fn validation_catches_source_driven_fed_by_operator() {
        let (t, [a, b, c]) = topo();
        let plan = ExecutionPlan {
            partitioning: Partitioning::new(vec![vec![a], vec![b, c]]),
            domains: vec![
                DomainSpec {
                    name: "up".into(),
                    partitions: vec![0],
                    execution: DomainExecution::Pooled,
                    strategy: StrategyKind::Fifo,
                    priority: 0,
                },
                DomainSpec {
                    name: "down".into(),
                    partitions: vec![1],
                    execution: DomainExecution::SourceDriven,
                    strategy: StrategyKind::Fifo,
                    priority: 0,
                },
            ],
            workers: 1,
        };
        assert!(plan
            .validate(&t)
            .contains(&PlanError::SourceDrivenWithUpstreamQueue { domain: 1, from: a }));
    }

    #[test]
    fn plan_error_display() {
        assert!(PlanError::NoWorkers.to_string().contains("zero workers"));
        assert!(PlanError::PartitionUnassigned(3).to_string().contains('3'));
    }
}
