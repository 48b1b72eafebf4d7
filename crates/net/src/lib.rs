#![warn(missing_docs)]
//! Network ingest/egress for the HMTS engine (std-only: threads +
//! `std::net`, no async runtime).
//!
//! The pieces, wired left to right:
//!
//! ```text
//! netgen ──TCP──▶ IngestServer ──StreamQueue──▶ RemoteSource ─▶ engine
//!                                                          ⋮ (operators)
//! subscriber ◀──TCP── EgressSink ◀────────────────────────────┘
//! ```
//!
//! * [`wire`] — the versioned, length-prefixed binary frame codec for
//!   tuples, timestamps, and punctuations.
//! * [`server`] — the multi-client TCP ingest server; bounded queues with
//!   [`BackpressurePolicy::Block`] turn queue fullness into TCP
//!   backpressure (the socket stops being read) instead of load shedding.
//! * [`source`] — [`source::RemoteSource`], a [`Source`] draining an
//!   ingest queue into a query graph.
//! * [`egress`] — the result fan-out server and the
//!   [`egress::EgressSink`] operator, with a configurable slow-consumer
//!   policy (block vs. disconnect).
//! * [`client`] — [`client::SubscriberClient`] and the
//!   [`client::run_load`] load generator (open/closed loop,
//!   [`ArrivalProcess`]-shaped, RTT percentiles).
//! * [`resume`] — client-side reconnect with sequence-based resume: a
//!   producer whose connection dies retransmits exactly the lost suffix
//!   (no duplicates, no loss) against a resume-mode ingest server.
//!
//! [`BackpressurePolicy::Block`]:
//!     hmts::streams::queue::BackpressurePolicy::Block
//! [`Source`]: hmts::operators::traits::Source
//! [`ArrivalProcess`]: hmts::workload::arrival::ArrivalProcess

mod accept;
pub mod client;
pub mod egress;
pub mod resume;
pub mod server;
pub mod source;
pub mod wire;

pub use client::{
    run_load, LoadConfig, LoadMode, LoadReport, LoadTrace, RttSummary, SubscriberClient,
};
pub use egress::{EgressServer, EgressSink, SlowConsumerPolicy};
pub use resume::{send_with_resume, ResumeConfig, ResumeReport};
pub use server::{IngestConfig, IngestServer, IngestStats, StreamSpec};
pub use source::RemoteSource;
pub use wire::{DecodeError, Frame, FrameReader, FrameWriter, NetError};
