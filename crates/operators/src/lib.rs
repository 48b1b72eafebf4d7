//! # `hmts-operators` — push-based continuous-query operators
//!
//! The operator substrate of the HMTS reproduction (Cammert et al., ICDE
//! 2007). Operators follow the paper's push-based paradigm (§2.4): the
//! executor hands an element to [`traits::Operator::process`], results go to
//! an [`traits::Output`] buffer, and the executor decides whether successors
//! are invoked directly (direct interoperability, inside a virtual operator)
//! or via a boundary queue.
//!
//! Provided operators:
//!
//! * [`filter::Filter`] — selections over an [`expr::Expr`] predicate or a
//!   closure,
//! * [`project::Project`] / [`project::MapExpr`] — projections,
//! * [`map::Map`] — arbitrary flat-map,
//! * [`union::Union`] — n-ary stream union,
//! * [`aggregate::WindowAggregate`] — sliding-window (grouped) aggregation,
//! * [`join::SymmetricHashJoin`] / [`join::SymmetricNestedLoopsJoin`] — the
//!   two joins compared in the paper's decoupling experiment (Fig. 6),
//! * [`dedup::Dedup`] — windowed duplicate elimination,
//! * [`cost::Costed`] / [`cost::BusyPassthrough`] — artificial per-element
//!   costs for scheduling experiments,
//! * [`sink`] — collecting / counting / discarding / callback sinks for
//!   observation.

#![warn(missing_docs)]

pub mod aggregate;
pub mod cost;
pub mod dedup;
pub mod expr;
pub mod filter;
pub mod join;
pub mod map;
pub mod project;
pub mod sample;
pub mod sink;
pub mod traits;
pub mod union;
pub mod window;

pub use aggregate::{AggregateFunction, WindowAggregate};
pub use cost::{spin_for, BusyPassthrough, CostMode, Costed};
pub use dedup::Dedup;
pub use expr::{CmpOp, Expr};
pub use filter::Filter;
pub use join::{JoinCondition, SymmetricHashJoin, SymmetricNestedLoopsJoin};
pub use map::Map;
pub use project::{MapExpr, Project};
pub use sample::{Sample, SamplePolicy};
pub use sink::{CallbackSink, CollectingSink, CountingSink, NullSink, SinkHandle};
pub use traits::{EosTracker, Operator, Output, Source, WatermarkTracker};
pub use union::Union;
pub use window::WindowBuffer;
