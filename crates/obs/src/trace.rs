//! Sampled per-tuple latency tracing.
//!
//! The paper's cost model (and its Fig. 10/11 latency results) decomposes a
//! tuple's end-to-end latency into *queue waiting time* versus *operator
//! processing time*. Aggregate histograms cannot show where an individual
//! tuple's latency went, so this module records per-hop spans for a
//! deterministic 1-in-N sample of tuples:
//!
//! * a source stamps every sampled element with a non-zero trace id
//!   (`hmts_streams::TraceTag`) derived from its sequence number,
//! * every instrumented site — queue enqueue/dequeue, operator
//!   process-start/process-end — appends a [`SpanEvent`] to the
//!   [`Tracer`]'s bounded span ring (the scheduler [`crate::EventJournal`]'s
//!   ring type, and the same per-thread token space, so both streams merge
//!   onto one exported timeline),
//! * exporters ([`crate::export`]) reassemble the spans into Chrome/Perfetto
//!   `trace_event` JSON and a per-operator queue-wait vs processing
//!   latency breakdown.
//!
//! Sampling is *deterministic*: whether tuple `seq` of a source is traced
//! depends only on `(seq, seed, sample_every)`, never on scheduling, so two
//! runs over the same workload trace the identical tuple set — which makes
//! traces diffable across scheduler configurations.
//!
//! Cost discipline (the PR 1 invariant): an unsampled tuple costs one
//! non-zero branch per instrumented site and allocates nothing; a disabled
//! handle (`Obs` without a `TraceConfig`) costs one `Option` check in the
//! executor per message batch.

use std::sync::Arc;
use std::time::Instant;

use crate::journal::{thread_token, Ring};

/// Partition value used for hops that happen outside any executor
/// partition (source-side enqueues).
pub const NO_PARTITION: u32 = u32::MAX;

/// The per-hop record kinds of a tuple's journey: waiting in a queue,
/// being processed by an operator, or crossing a process boundary over
/// the wire (protocol v2 carries the trace tag in `DataTraced` frames).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HopKind {
    /// The element was pushed into an inter-partition queue.
    QueueEnter,
    /// The element was popped from an inter-partition queue.
    QueueExit,
    /// An operator began processing the element.
    ProcessStart,
    /// The operator finished processing the element.
    ProcessEnd,
    /// The element was written to a network socket (egress broadcast or a
    /// load-generator send).
    NetSend,
    /// The element was read off a network socket (ingest receive or a
    /// subscriber receive).
    NetRecv,
}

impl HopKind {
    /// Short kebab-case tag (used by exporters and assertions).
    pub fn kind(&self) -> &'static str {
        match self {
            HopKind::QueueEnter => "queue-enter",
            HopKind::QueueExit => "queue-exit",
            HopKind::ProcessStart => "process-start",
            HopKind::ProcessEnd => "process-end",
            HopKind::NetSend => "net-send",
            HopKind::NetRecv => "net-recv",
        }
    }

    /// Parses the [`HopKind::kind`] tag back (used by the spans.json
    /// reader that merges multi-process exports).
    pub fn from_kind(tag: &str) -> Option<HopKind> {
        Some(match tag {
            "queue-enter" => HopKind::QueueEnter,
            "queue-exit" => HopKind::QueueExit,
            "process-start" => HopKind::ProcessStart,
            "process-end" => HopKind::ProcessEnd,
            "net-send" => HopKind::NetSend,
            "net-recv" => HopKind::NetRecv,
            _ => return None,
        })
    }
}

/// One recorded hop of one sampled tuple.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Global sequence number of the record (total order of claims).
    pub seq: u64,
    /// The tuple's trace id (non-zero; see [`trace_id`]).
    pub trace_id: u64,
    /// What happened.
    pub kind: HopKind,
    /// Where it happened: a queue name for queue hops, an operator name
    /// for processing hops.
    pub site: Arc<str>,
    /// Executor partition (domain index) the hop ran in, or
    /// [`NO_PARTITION`] for source-side hops.
    pub partition: u32,
    /// Stable token of the recording thread (same token space as
    /// [`crate::EventRecord::thread`]).
    pub thread: u64,
    /// Nanoseconds since the tracer's epoch.
    pub t_ns: u64,
}

/// Configuration for the tracing layer of an enabled [`crate::Obs`] handle.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Trace one in every `sample_every` tuples per source (1 = trace all).
    pub sample_every: u64,
    /// Sampling phase: tuple `seq` is sampled iff
    /// `(seq + seed) % sample_every == 0`.
    pub seed: u64,
    /// Ring capacity of the span buffer, in spans.
    pub buffer_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { sample_every: 64, seed: 0, buffer_capacity: 1 << 16 }
    }
}

/// Composes a globally unique, non-zero trace id for tuple `seq` of source
/// node `source`. The source occupies the high bits, so ids from different
/// sources never collide (for streams shorter than 2^40 tuples, far beyond
/// anything the harness emits).
pub fn trace_id(source: u32, seq: u64) -> u64 {
    ((source as u64 + 1) << 40) | (seq & ((1 << 40) - 1))
}

/// The span recorder: deterministic sampling decisions plus the bounded
/// span buffer. One per enabled-with-tracing [`crate::Obs`] handle, shared
/// by every source driver and executor via `Arc`.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    buffer: Ring<SpanEvent>,
    start: Instant,
}

impl Tracer {
    /// Creates a tracer whose span timestamps are relative to `epoch`
    /// (shared with the owning handle's journal and registry clock).
    pub fn new(cfg: TraceConfig, epoch: Instant) -> Tracer {
        let cfg = TraceConfig { sample_every: cfg.sample_every.max(1), ..cfg };
        let buffer = Ring::new(cfg.buffer_capacity);
        Tracer { cfg, buffer, start: epoch }
    }

    /// Deterministic sampling decision for tuple `seq` of a source.
    #[inline]
    pub fn sampled(&self, seq: u64) -> bool {
        seq.wrapping_add(self.cfg.seed) % self.cfg.sample_every == 0
    }

    /// The configured 1-in-N sampling rate.
    pub fn sample_every(&self) -> u64 {
        self.cfg.sample_every
    }

    /// Records one hop of a sampled tuple. `site` is cheap-cloned, so
    /// callers that intern their site names (`Arc<str>`) pay no
    /// allocation; [`Tracer::record_site`] is the allocating convenience
    /// for call sites that only have a `&str`.
    pub fn record(&self, trace_id: u64, kind: HopKind, site: &Arc<str>, partition: u32) {
        let site = Arc::clone(site);
        self.push_span(trace_id, kind, site, partition);
    }

    /// Records one hop, allocating an `Arc<str>` for the site name (only
    /// ever called for sampled tuples, so the allocation is off the
    /// unsampled hot path).
    pub fn record_site(&self, trace_id: u64, kind: HopKind, site: &str, partition: u32) {
        self.push_span(trace_id, kind, Arc::from(site), partition);
    }

    fn push_span(&self, trace_id: u64, kind: HopKind, site: Arc<str>, partition: u32) {
        let thread = thread_token();
        let t_ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.buffer.push(|seq| SpanEvent { seq, trace_id, kind, site, partition, thread, t_ns });
    }

    /// Total spans ever recorded.
    pub fn recorded(&self) -> u64 {
        self.buffer.pushed()
    }

    /// Spans overwritten before being part of any snapshot.
    pub fn dropped(&self) -> u64 {
        self.buffer.dropped()
    }

    /// High-water mark of buffer occupancy (`min(recorded, capacity)` for
    /// an overwrite-oldest ring).
    pub fn high_water(&self) -> u64 {
        self.buffer.high_water()
    }

    /// The retained spans, oldest first (by record sequence number).
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> = self.buffer.retained().collect();
        out.sort_by_key(|r| r.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(cfg: TraceConfig) -> Tracer {
        Tracer::new(cfg, Instant::now())
    }

    #[test]
    fn sampling_is_deterministic_in_seq_and_seed() {
        let t = tracer(TraceConfig { sample_every: 8, seed: 3, ..TraceConfig::default() });
        let picked: Vec<u64> = (0..64).filter(|&s| t.sampled(s)).collect();
        // (seq + 3) % 8 == 0  =>  seq ≡ 5 (mod 8).
        assert_eq!(picked, vec![5, 13, 21, 29, 37, 45, 53, 61]);
        // Same config => identical set; different seed => shifted set.
        let t2 = tracer(TraceConfig { sample_every: 8, seed: 3, ..TraceConfig::default() });
        let picked2: Vec<u64> = (0..64).filter(|&s| t2.sampled(s)).collect();
        assert_eq!(picked, picked2);
        let t3 = tracer(TraceConfig { sample_every: 8, seed: 4, ..TraceConfig::default() });
        assert!((0..64).filter(|&s| t3.sampled(s)).ne(picked.iter().copied()));
    }

    #[test]
    fn sample_every_one_traces_everything_and_zero_is_clamped() {
        let all = tracer(TraceConfig { sample_every: 1, seed: 9, ..TraceConfig::default() });
        assert!((0..100).all(|s| all.sampled(s)));
        let clamped = tracer(TraceConfig { sample_every: 0, seed: 0, ..TraceConfig::default() });
        assert_eq!(clamped.sample_every(), 1);
        assert!(clamped.sampled(7));
    }

    #[test]
    fn trace_ids_are_nonzero_and_source_disjoint() {
        assert_ne!(trace_id(0, 0), 0);
        let a: Vec<u64> = (0..100).map(|s| trace_id(0, s)).collect();
        let b: Vec<u64> = (0..100).map(|s| trace_id(1, s)).collect();
        assert!(a.iter().all(|id| !b.contains(id)));
        // seq recoverable in the low bits (used nowhere, but a sane check).
        assert_eq!(trace_id(2, 77) & ((1 << 40) - 1), 77);
    }

    #[test]
    fn records_hops_in_order_with_shared_sites() {
        let t = tracer(TraceConfig::default());
        let site: Arc<str> = Arc::from("filter_a");
        t.record(42, HopKind::ProcessStart, &site, 1);
        t.record(42, HopKind::ProcessEnd, &site, 1);
        t.record_site(42, HopKind::QueueEnter, "a->b", 1);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq && w[0].t_ns <= w[1].t_ns));
        assert_eq!(snap[0].kind.kind(), "process-start");
        assert_eq!(&*snap[2].site, "a->b");
        assert_eq!(snap[0].partition, 1);
        assert_eq!(t.recorded(), 3);
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.high_water(), 3);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = tracer(TraceConfig { buffer_capacity: 4, ..TraceConfig::default() });
        for i in 0..10 {
            t.record_site(i, HopKind::QueueEnter, "q", 0);
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.high_water(), 4);
        let ids: Vec<u64> = snap.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }
}
