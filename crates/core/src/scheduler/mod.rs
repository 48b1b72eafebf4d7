//! Scheduling: level-2 strategies and the level-3 thread scheduler.

pub mod chain;
pub mod strategy;
pub mod thread_scheduler;

pub use chain::{compute_chain_segments, unary_chains, ChainSegments};
pub use strategy::{InputSlot, Strategy, StrategyKind};
pub use thread_scheduler::{ThreadScheduler, TsShared};
