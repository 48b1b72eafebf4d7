//! Bounded multi-producer event journal for scheduler decisions.
//!
//! Two fixed-capacity rings of slots behind one global sequence counter:
//! the level-3 scheduler's per-slice records (`dispatch`, `yield`,
//! `preempt`, `aging-boost` — thousands per second under HMTS) go to one,
//! every other event (checkpoints, alerts, quarantines, mode switches, …) to
//! the other, so a busy scheduler can never evict the rare lifecycle
//! records an operator is looking for. Producers claim a slot with one
//! atomic `fetch_add` on the ring's write cursor and then store the record
//! under that slot's own mutex, so concurrent emitters from different
//! scheduler threads never contend unless they collide on the same slot
//! (capacity collisions only). When a ring wraps, its oldest records are
//! overwritten and counted as dropped — the journal never blocks or grows.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// A structured scheduler event. Variants mirror the decision points of
/// the three-level HMTS scheduler plus queue lifecycle transitions.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedEvent {
    /// A worker thread started running a domain's executor slice.
    Dispatch { domain: usize, worker: usize, priority: i64 },
    /// An executor slice ended and gave the thread back.
    Yield { domain: usize, outcome: &'static str },
    /// A waiting domain asked the weakest running domain to yield early.
    Preempt { domain: usize, victim: usize },
    /// Aging raised a starving domain's effective priority.
    AgingBoost { domain: usize, effective_priority: i64 },
    /// The engine switched execution plans (GTS/OTS/HMTS shapes).
    ModeSwitch { from: String, to: String },
    /// A decoupling queue was placed on an edge at runtime.
    QueueInsert { queue: String },
    /// A decoupling queue was removed from an edge at runtime.
    QueueRemove { queue: String },
    /// A queue was drained back into seeds during a plan switch.
    QueueDrain { queue: String, drained: usize },
    /// A queue exceeded its stall threshold.
    StallDetected { queue: String, occupancy: usize },
    /// The adaptive controller decided on a (re-)partitioning.
    Repartition { domains: usize, action: String },
    /// An operator's `process` (or flush/watermark) call panicked and was
    /// caught by the executor's isolation boundary.
    OperatorPanic { operator: String, payload: String },
    /// The supervisor granted a quarantined-free restart after a panic.
    OperatorRestart { operator: String, attempt: u32, backoff_ms: u64 },
    /// The supervisor quarantined an operator after too many failures
    /// within its policy window; its branch was closed with a clean EOS.
    OperatorQuarantined { operator: String, failures: u32 },
    /// The heartbeat monitor saw a partition stuck inside one dispatch
    /// longer than the configured stall timeout.
    HeartbeatStall { domain: String, idle_ms: u64 },
    /// A network peer (ingest producer or egress subscriber) was dropped.
    NetDisconnect { peer: String, reason: String },
    /// A producer reconnected and resumed an ingest stream at `resume_seq`.
    NetReconnect { stream: String, resume_seq: u64 },
    /// The checkpoint coordinator injected barrier `id` at every source.
    CheckpointStart { id: u64 },
    /// Checkpoint `id` was durably persisted (`bytes` on disk).
    CheckpointComplete { id: u64, bytes: u64, duration_ms: u64 },
    /// Checkpoint `id` was abandoned (alignment timeout, persistence
    /// failure, …).
    CheckpointAbort { id: u64, reason: String },
    /// An aligned operator contributed its state to checkpoint `id`.
    OperatorSnapshot { id: u64, operator: String, bytes: u64 },
    /// A restarting operator was rolled back to its checkpoint-`id` state:
    /// everything it processed since that checkpoint is dropped from its
    /// state (downstream may already have observed the lost elements).
    OperatorRollback { id: u64, operator: String },
    /// An alert rule's condition held for its hold duration; `value` is
    /// the metric reading that tripped it.
    AlertRaised { rule: String, value: f64 },
    /// A previously raised alert rule's condition stopped holding for the
    /// hold duration.
    AlertCleared { rule: String },
}

/// One typed field value of a [`SchedEvent`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Field<'a> {
    /// A count, index, id or priority — any integer, exact.
    Int(i128),
    /// A measured reading.
    F(f64),
    /// A name or free text.
    S(&'a str),
}

impl fmt::Display for Field<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Int(v) => v.fmt(f),
            Field::F(v) => v.fmt(f),
            Field::S(v) => v.fmt(f),
        }
    }
}

impl SchedEvent {
    /// The one description of every variant: its kebab-case kind tag and
    /// its fields in export order. [`kind`](SchedEvent::kind), the journal
    /// JSON members and the Perfetto instant names are all derived from it.
    pub fn describe(&self) -> (&'static str, Vec<(&'static str, Field<'_>)>) {
        use Field::{F, S};
        fn int<'a>(v: impl Into<i128>) -> Field<'a> {
            Field::Int(v.into())
        }
        let n = |v: &usize| int(*v as u64);
        match self {
            SchedEvent::Dispatch { domain, worker, priority } => (
                "dispatch",
                vec![("domain", n(domain)), ("worker", n(worker)), ("priority", int(*priority))],
            ),
            SchedEvent::Yield { domain, outcome } => {
                ("yield", vec![("domain", n(domain)), ("outcome", S(outcome))])
            }
            SchedEvent::Preempt { domain, victim } => {
                ("preempt", vec![("domain", n(domain)), ("victim", n(victim))])
            }
            SchedEvent::AgingBoost { domain, effective_priority } => (
                "aging-boost",
                vec![("domain", n(domain)), ("effective_priority", int(*effective_priority))],
            ),
            SchedEvent::ModeSwitch { from, to } => {
                ("mode-switch", vec![("from", S(from)), ("to", S(to))])
            }
            SchedEvent::QueueInsert { queue } => ("queue-insert", vec![("queue", S(queue))]),
            SchedEvent::QueueRemove { queue } => ("queue-remove", vec![("queue", S(queue))]),
            SchedEvent::QueueDrain { queue, drained } => {
                ("queue-drain", vec![("queue", S(queue)), ("drained", n(drained))])
            }
            SchedEvent::StallDetected { queue, occupancy } => {
                ("stall", vec![("queue", S(queue)), ("occupancy", n(occupancy))])
            }
            SchedEvent::Repartition { domains, action } => {
                ("repartition", vec![("domains", n(domains)), ("action", S(action))])
            }
            SchedEvent::OperatorPanic { operator, payload } => {
                ("operator-panic", vec![("operator", S(operator)), ("payload", S(payload))])
            }
            SchedEvent::OperatorRestart { operator, attempt, backoff_ms } => (
                "operator-restart",
                vec![
                    ("operator", S(operator)),
                    ("attempt", int(*attempt)),
                    ("backoff_ms", int(*backoff_ms)),
                ],
            ),
            SchedEvent::OperatorQuarantined { operator, failures } => (
                "operator-quarantine",
                vec![("operator", S(operator)), ("failures", int(*failures))],
            ),
            SchedEvent::HeartbeatStall { domain, idle_ms } => {
                ("heartbeat-stall", vec![("domain", S(domain)), ("idle_ms", int(*idle_ms))])
            }
            SchedEvent::NetDisconnect { peer, reason } => {
                ("net-disconnect", vec![("peer", S(peer)), ("reason", S(reason))])
            }
            SchedEvent::NetReconnect { stream, resume_seq } => {
                ("net-reconnect", vec![("stream", S(stream)), ("resume_seq", int(*resume_seq))])
            }
            SchedEvent::CheckpointStart { id } => ("checkpoint-start", vec![("id", int(*id))]),
            SchedEvent::CheckpointComplete { id, bytes, duration_ms } => (
                "checkpoint-complete",
                vec![("id", int(*id)), ("bytes", int(*bytes)), ("duration_ms", int(*duration_ms))],
            ),
            SchedEvent::CheckpointAbort { id, reason } => {
                ("checkpoint-abort", vec![("id", int(*id)), ("reason", S(reason))])
            }
            SchedEvent::OperatorSnapshot { id, operator, bytes } => (
                "operator-snapshot",
                vec![("id", int(*id)), ("operator", S(operator)), ("bytes", int(*bytes))],
            ),
            SchedEvent::OperatorRollback { id, operator } => {
                ("operator-rollback", vec![("id", int(*id)), ("operator", S(operator))])
            }
            SchedEvent::AlertRaised { rule, value } => {
                ("alert-raised", vec![("rule", S(rule)), ("value", F(*value))])
            }
            SchedEvent::AlertCleared { rule } => ("alert-cleared", vec![("rule", S(rule))]),
        }
    }

    /// Short kebab-case tag identifying the variant (used by exporters
    /// and assertions).
    pub fn kind(&self) -> &'static str {
        self.describe().0
    }
}

/// One journal entry: a [`SchedEvent`] plus ordering metadata.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Global sequence number (total order of emission claims).
    pub seq: u64,
    /// Identifier of the emitting thread (stable within the process).
    pub thread: u64,
    /// Nanoseconds since the journal was created.
    pub elapsed_ns: u64,
    pub event: SchedEvent,
}

/// One overwrite-oldest ring of records.
#[derive(Debug)]
struct Ring {
    slots: Vec<Mutex<Option<EventRecord>>>,
    cursor: AtomicU64,
    dropped: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, record: EventRecord) {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.slots[(at % self.slots.len() as u64) as usize].lock();
        if slot.is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some(record);
    }

    fn high_water(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed).min(self.slots.len() as u64)
    }
}

/// Bounded MPSC event journal.
#[derive(Debug)]
pub struct EventJournal {
    /// Global sequence counter: one total order across both rings.
    seq: AtomicU64,
    /// Level-3 per-slice records.
    slices: Ring,
    /// Everything else.
    lifecycle: Ring,
    start: Instant,
}

impl EventJournal {
    /// Creates a journal whose two rings hold at most `capacity` records
    /// each.
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal::with_epoch(capacity, Instant::now())
    }

    /// Creates a journal whose `elapsed_ns` timestamps are relative to the
    /// given epoch, so journal records and tuple trace spans recorded by
    /// the same [`crate::Obs`] handle share one clock and can be merged
    /// onto one exported timeline.
    pub fn with_epoch(capacity: usize, epoch: Instant) -> EventJournal {
        let capacity = capacity.max(1);
        EventJournal {
            seq: AtomicU64::new(0),
            slices: Ring::new(capacity),
            lifecycle: Ring::new(capacity),
            start: epoch,
        }
    }

    /// Appends an event; O(1), never blocks for long, overwrites the
    /// oldest record of the event's ring when that ring is full.
    pub fn push(&self, event: SchedEvent) {
        let ring = match event {
            SchedEvent::Dispatch { .. }
            | SchedEvent::Yield { .. }
            | SchedEvent::Preempt { .. }
            | SchedEvent::AgingBoost { .. } => &self.slices,
            _ => &self.lifecycle,
        };
        ring.push(EventRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            thread: thread_token(),
            elapsed_ns: self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            event,
        });
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events overwritten before being part of any snapshot (both rings).
    pub fn dropped(&self) -> u64 {
        self.slices.dropped.load(Ordering::Relaxed) + self.lifecycle_dropped()
    }

    /// Lifecycle events (anything but the level-3 per-slice records)
    /// overwritten before being part of any snapshot.
    pub fn lifecycle_dropped(&self) -> u64 {
        self.lifecycle.dropped.load(Ordering::Relaxed)
    }

    /// Capacity of each ring in records.
    pub fn capacity(&self) -> usize {
        self.lifecycle.slots.len()
    }

    /// High-water mark: the most slots of one ring ever occupied at once.
    /// For an overwrite-oldest ring this is `min(pushed, capacity)` — once
    /// a ring wraps it stays pinned at capacity, which is exactly the
    /// saturation signal the registry metric wants to surface.
    pub fn high_water(&self) -> u64 {
        self.slices.high_water().max(self.lifecycle.high_water())
    }

    /// The retained records of both rings, oldest first (by global
    /// sequence number).
    pub fn snapshot(&self) -> Vec<EventRecord> {
        let slots = self.slices.slots.iter().chain(&self.lifecycle.slots);
        let mut out: Vec<EventRecord> = slots.filter_map(|s| s.lock().clone()).collect();
        out.sort_by_key(|r| r.seq);
        out
    }
}

/// A small stable-per-thread token, cheaper to record than a thread name.
/// Shared with the trace span recorder so journal records and tuple spans
/// attribute work to the same per-thread track ids.
pub(crate) fn thread_token() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: Cell<u64> = const { Cell::new(0) };
    }
    TOKEN.with(|t| {
        let mut v = t.get();
        if v == 0 {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_events_in_sequence_order() {
        let j = EventJournal::new(16);
        j.push(SchedEvent::Dispatch { domain: 0, worker: 1, priority: 5 });
        j.push(SchedEvent::Yield { domain: 0, outcome: "budget" });
        let snap = j.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].seq < snap[1].seq);
        assert_eq!(snap[0].event.kind(), "dispatch");
        assert_eq!(snap[1].event.kind(), "yield");
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let j = EventJournal::new(4);
        for d in 0..10usize {
            j.push(SchedEvent::Yield { domain: d, outcome: "idle" });
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(j.pushed(), 10);
        assert_eq!(j.dropped(), 6);
        // Only the newest four survive, still in order.
        let domains: Vec<usize> = snap
            .iter()
            .map(|r| match r.event {
                SchedEvent::Yield { domain, .. } => domain,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(domains, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_pushes_all_claim_distinct_seqs() {
        use std::sync::Arc;
        let j = Arc::new(EventJournal::new(1024));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for d in 0..50 {
                        j.push(SchedEvent::Dispatch { domain: d, worker: 0, priority: 0 });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 200);
        let mut seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 200);
        // At least two distinct producer threads were recorded.
        let threads_seen: std::collections::HashSet<u64> = snap.iter().map(|r| r.thread).collect();
        assert!(threads_seen.len() >= 2);
    }

    #[test]
    fn scheduler_slices_cannot_evict_lifecycle_events() {
        let j = EventJournal::new(4);
        j.push(SchedEvent::CheckpointComplete { id: 1, bytes: 10, duration_ms: 1 });
        for d in 0..100usize {
            j.push(SchedEvent::Dispatch { domain: d, worker: 0, priority: 0 });
            j.push(SchedEvent::Yield { domain: d, outcome: "idle" });
        }
        j.push(SchedEvent::AlertRaised { rule: "rho > 0.9".into(), value: 0.95 });
        let snap = j.snapshot();
        // Both lifecycle records survive 200 per-slice records through a
        // 4-slot ring, merged back into emission order.
        assert_eq!(snap.len(), 6);
        assert_eq!(snap[0].event.kind(), "checkpoint-complete");
        assert_eq!(snap[5].event.kind(), "alert-raised");
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(j.pushed(), 202);
        assert_eq!(j.dropped(), 196);
        assert_eq!(j.lifecycle_dropped(), 0);
    }
}
