//! # `hmts` — Hybrid Multi-Threaded Scheduling for continuous queries
//!
//! A from-scratch Rust implementation of the scheduling framework of
//! **Cammert, Heinz, Krämer, Seeger, Vaupel, Wolske: "Flexible
//! Multi-Threaded Scheduling for Continuous Queries over Data Streams"
//! (ICDE 2007)** — the PIPES scheduling architecture.
//!
//! The paper's contribution is a *three-level* scheduling architecture,
//! **HMTS**, that generalizes the two classical extremes:
//!
//! * **GTS** (graph-threaded): one thread runs the whole query graph —
//!   cheap, but one expensive operator stalls everything;
//! * **OTS** (operator-threaded): one thread per operator — parallel, but
//!   thread overhead kills scalability with many cheap operators.
//!
//! HMTS merges adjacent operators into **virtual operators** (VOs) that
//! communicate by **direct interoperability** (DI — plain nested calls, no
//! queues), places decoupling queues only at VO boundaries, and assigns
//! threads to VOs flexibly — including **at runtime**.
//!
//! ## Quick start
//!
//! ```
//! use hmts::prelude::*;
//!
//! // Build a query graph: source -> two selections -> sink.
//! let mut b = GraphBuilder::new();
//! let src = b.source(SyntheticSource::new(
//!     "numbers",
//!     ArrivalProcess::constant(100_000.0),
//!     TupleGen::uniform_int(0, 1000),
//!     10_000,
//!     42,
//! ));
//! let f1 = b.op_after(Filter::new("f1", Expr::field(0).lt(Expr::int(500))), src);
//! let f2 = b.op_after(Filter::new("f2", Expr::field(0).ge(Expr::int(100))), f1);
//! let (sink, results) = CollectingSink::new("out");
//! b.op_after(sink, f2);
//! let graph = b.build().unwrap();
//!
//! // Run the whole graph as one virtual operator on one thread
//! // (the paper's "decoupled DI" baseline); examples/ show GTS, OTS,
//! // placement-driven HMTS, and runtime switching.
//! let plan = ExecutionPlan::di_decoupled(&Topology::of(&graph));
//! let report = Engine::run(graph, plan).unwrap();
//! assert!(report.errors.is_empty());
//! assert_eq!(results.count(), results.elements().len() as u64);
//! ```
//!
//! ## Crate map
//!
//! * [`engine`] — the runtime: partition executors (levels 1–2), source
//!   threads, runtime plan switching;
//! * [`scheduler`] — level-2 strategies (FIFO, Chain, …) and the level-3
//!   thread scheduler;
//! * [`plan`] — GTS / OTS / DI / HMTS as data;
//! * [`placement`] — Algorithm 1 and the Fig. 11 baselines;
//! * [`stats`] — runtime measurement of `c(v)`, `d(v)`, selectivity;
//! * [`adaptive`] — the measure → place → switch loop;
//! * [`failure`] — beside the core: fault injection, operator supervision
//!   and stall detection.
//!
//! The substrate crates are re-exported: [`hmts_streams`],
//! [`hmts_operators`], [`hmts_graph`], [`hmts_workload`], [`hmts_sim`],
//! and the observability substrate [`hmts_obs`] (enable it by passing an
//! `Obs::enabled()` handle in [`EngineConfig`]).

#![warn(missing_docs)]

pub mod adaptive;
pub mod checkpoint;
pub mod engine;
pub mod failure;
pub mod placement;
pub mod plan;
pub mod scheduler;
pub mod stats;

pub use hmts_graph as graph;
pub use hmts_obs as obs;
pub use hmts_operators as operators;
pub use hmts_sim as sim;
pub use hmts_state as state;
pub use hmts_streams as streams;
pub use hmts_workload as workload;

pub use engine::{describe_plan, Engine, EngineConfig, EngineError, EngineReport};
pub use plan::{DomainExecution, DomainSpec, ExecutionPlan, PlanError};
pub use scheduler::strategy::StrategyKind;

/// The one-stop import for applications.
pub mod prelude {
    pub use crate::adaptive::{adapt_once, Adaptation, AdaptiveConfig};
    pub use crate::checkpoint::{CheckpointConfig, CheckpointFault};
    pub use crate::engine::{
        describe_plan, Engine, EngineConfig, EngineError, EngineReport, QueueBound,
    };
    pub use crate::failure::{
        DegradeMode, FaultPlan, RestartPolicy, SupervisionConfig, Supervisor,
    };
    pub use crate::placement::{
        chain_based, evaluate, exhaustive_optimal, simplified_segment, stall_avoiding,
        suggest_workers, to_partitioning, CapacityReport,
    };
    pub use crate::plan::{DomainExecution, DomainSpec, ExecutionPlan, PlanError};
    pub use crate::scheduler::strategy::StrategyKind;
    pub use crate::stats::{NodeStatsSnapshot, StatsSnapshot};
    pub use hmts_streams::queue::BackpressurePolicy;

    pub use hmts_obs::{
        EventRecord, HopKind, MetricValue, Obs, ObsConfig, SchedEvent, SpanEvent, TraceConfig,
        Tracer,
    };
    pub use hmts_state::{Checkpoint, CheckpointStore, StateBlob, StateError, StatefulOperator};
    pub use hmts_streams::element::TraceTag;

    pub use hmts_graph::builder::GraphBuilder;
    pub use hmts_graph::cost::{CostGraph, CostInputs};
    pub use hmts_graph::dot::to_dot;
    pub use hmts_graph::graph::{NodeId, QueryGraph};
    pub use hmts_graph::partition::Partitioning;
    pub use hmts_graph::topology::Topology;

    pub use hmts_operators::aggregate::{AggregateFunction, WindowAggregate};
    pub use hmts_operators::cost::{BusyPassthrough, CostMode, Costed};
    pub use hmts_operators::dedup::Dedup;
    pub use hmts_operators::expr::Expr;
    pub use hmts_operators::filter::Filter;
    pub use hmts_operators::join::{JoinCondition, SymmetricHashJoin, SymmetricNestedLoopsJoin};
    pub use hmts_operators::map::Map;
    pub use hmts_operators::project::{MapExpr, Project};
    pub use hmts_operators::sink::{
        CallbackSink, CollectingSink, CountingSink, NullSink, SinkHandle,
    };
    pub use hmts_operators::union::Union;

    pub use hmts_streams::element::{Element, Message, Punctuation};
    pub use hmts_streams::time::Timestamp;
    pub use hmts_streams::tuple::Tuple;
    pub use hmts_streams::value::Value;

    pub use hmts_workload::arrival::{ArrivalProcess, Phase};
    pub use hmts_workload::source::{SyntheticSource, VecSource};
    pub use hmts_workload::values::{FieldGen, TupleGen};
}
