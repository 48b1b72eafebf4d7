//! # `hmts-streams` — stream substrate for the HMTS scheduling framework
//!
//! Foundation types shared by every layer of the HMTS reproduction
//! (Cammert et al., *Flexible Multi-Threaded Scheduling for Continuous
//! Queries over Data Streams*, ICDE 2007):
//!
//! * dynamically typed [`value::Value`]s (two words; a string is one
//!   [`shared_str::SharedStr`] pointer) and [`tuple::Tuple`]s,
//! * timestamped [`element::Element`]s and in-band [`element::Punctuation`]s,
//! * [`time::Clock`] abstractions for real and virtual time,
//! * inter-partition [`queue::StreamQueue`]s that hold runs of elements,
//!   with metrics and backpressure counted per element,
//! * a [`metrics::TimeSeries`] recorder for the experiment figures,
//! * the [`codec`] that turns values and tuples into bytes and back, for
//!   the wire protocol and for checkpointed state alike.

#![warn(missing_docs)]

pub mod codec;
pub mod element;
pub mod error;
pub mod metrics;
pub mod queue;
pub mod shared_str;
pub mod time;
pub mod tuple;
pub mod value;

pub use element::{Element, Message, Punctuation, SeqKind, SeqTag, TraceTag};
pub use error::{Result, StreamError};
pub use queue::{BackpressurePolicy, Batch, QueueMetrics, StreamQueue};
pub use shared_str::SharedStr;
pub use time::{Clock, ManualClock, SharedClock, SystemClock, Timestamp};
pub use tuple::Tuple;
pub use value::Value;
