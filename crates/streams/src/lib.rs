//! # `hmts-streams` — stream substrate for the HMTS scheduling framework
//!
//! Foundation types shared by every layer of the HMTS reproduction
//! (Cammert et al., *Flexible Multi-Threaded Scheduling for Continuous
//! Queries over Data Streams*, ICDE 2007):
//!
//! * dynamically typed [`value::Value`]s and [`tuple::Tuple`]s,
//! * timestamped [`element::Element`]s and in-band [`element::Punctuation`]s,
//! * [`time::Clock`] abstractions for real and virtual time,
//! * inter-partition [`queue::StreamQueue`]s that hold runs of elements,
//!   with metrics and backpressure counted per element,
//! * a [`metrics::TimeSeries`] recorder for the experiment figures.

#![warn(missing_docs)]

pub mod element;
pub mod error;
pub mod metrics;
pub mod queue;
pub mod time;
pub mod tuple;
pub mod value;

pub use element::{Element, Message, Punctuation, SeqKind, SeqTag, TraceTag};
pub use error::{Result, StreamError};
pub use queue::{BackpressurePolicy, Batch, QueueMetrics, StreamQueue};
pub use time::{Clock, ManualClock, SharedClock, SystemClock, Timestamp};
pub use tuple::Tuple;
pub use value::Value;
