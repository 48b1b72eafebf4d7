//! Inter-partition stream queues.
//!
//! In this framework (following the paper, §2.4) queues are *not* placed
//! between every pair of operators: inside a partition / virtual operator,
//! operators call each other directly (direct interoperability). Queues
//! appear only at partition boundaries, where they decouple the producing
//! thread from the consuming one. They are therefore first-class objects
//! with names, metrics, backpressure policies, and a lock-free length gauge
//! that the memory monitor samples for the Fig. 9 style experiments.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::element::Message;
use crate::error::StreamError;

/// What a bounded queue does when an enqueue finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the producer until space is available (lossless, propagates
    /// pressure upstream — the default for correctness experiments).
    Block,
    /// Reject the new element with [`StreamError::QueueFull`].
    Fail,
    /// Silently drop the new element (load shedding at the tail).
    DropNewest,
    /// Drop the oldest queued element to make room (load shedding at the
    /// head; keeps the freshest data, as monitoring applications prefer).
    DropOldest,
}

/// Monotonic counters describing a queue's lifetime activity.
#[derive(Debug, Default)]
pub struct QueueMetrics {
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    dropped: AtomicU64,
    high_water: AtomicUsize,
}

impl QueueMetrics {
    /// Total messages accepted into the queue.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Total messages removed from the queue.
    pub fn dequeued(&self) -> u64 {
        self.dequeued.load(Ordering::Relaxed)
    }

    /// Total messages lost to a drop policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Largest observed queue length.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    fn note_len(&self, len: usize) {
        // Below the mark (the steady state) this is a load, not a locked
        // read-modify-write.
        if len > self.high_water.load(Ordering::Relaxed) {
            self.high_water.fetch_max(len, Ordering::Relaxed);
        }
    }
}

struct Shared {
    buf: Mutex<VecDeque<Message>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A multi-producer multi-consumer FIFO of [`Message`]s connecting two
/// partitions of a query graph.
///
/// The queue is optimized for the engine's access pattern: producers push
/// under a short critical section, consumers either poll (`try_pop`, used by
/// strategy-driven schedulers) or park (`pop_blocking`, used by
/// operator-threaded scheduling). A lock-free `len` gauge lets the memory
/// monitor sample occupancy without touching the lock, and an optional
/// engine-wide gauge aggregates the number of queued *data* elements across
/// all queues (the "queue memory usage" metric of the paper's Fig. 9).
pub struct StreamQueue {
    name: String,
    /// Current capacity; `usize::MAX` means unbounded. Atomic so the bound
    /// can be lifted at runtime (see [`StreamQueue::lift_bound`]).
    capacity: AtomicUsize,
    policy: BackpressurePolicy,
    shared: Shared,
    len: AtomicUsize,
    /// Timestamp (µs) of the head message; meaningful while `len > 0`.
    /// Written under the buffer lock just before `len`.
    head_ts: AtomicU64,
    data_len: AtomicUsize,
    closed: AtomicBool,
    metrics: QueueMetrics,
    memory_gauge: Option<Arc<AtomicUsize>>,
}

impl StreamQueue {
    /// An unbounded queue (the paper's experiments use unbounded queues and
    /// measure their occupancy).
    pub fn unbounded(name: impl Into<String>) -> Arc<StreamQueue> {
        Self::build(name.into(), None, BackpressurePolicy::Block, None)
    }

    /// A bounded queue with the given backpressure policy.
    pub fn bounded(
        name: impl Into<String>,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Arc<StreamQueue> {
        Self::build(name.into(), Some(capacity.max(1)), policy, None)
    }

    /// Like [`StreamQueue::unbounded`], but contributing queued-data counts
    /// to a shared engine-wide memory gauge.
    pub fn unbounded_with_gauge(
        name: impl Into<String>,
        gauge: Arc<AtomicUsize>,
    ) -> Arc<StreamQueue> {
        Self::build(name.into(), None, BackpressurePolicy::Block, Some(gauge))
    }

    /// Like [`StreamQueue::bounded`], but contributing queued-data counts
    /// to a shared engine-wide memory gauge.
    pub fn bounded_with_gauge(
        name: impl Into<String>,
        capacity: usize,
        policy: BackpressurePolicy,
        gauge: Arc<AtomicUsize>,
    ) -> Arc<StreamQueue> {
        Self::build(name.into(), Some(capacity.max(1)), policy, Some(gauge))
    }

    fn build(
        name: String,
        capacity: Option<usize>,
        policy: BackpressurePolicy,
        memory_gauge: Option<Arc<AtomicUsize>>,
    ) -> Arc<StreamQueue> {
        Arc::new(StreamQueue {
            name,
            capacity: AtomicUsize::new(capacity.unwrap_or(usize::MAX)),
            policy,
            shared: Shared {
                buf: Mutex::new(VecDeque::new()),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            },
            len: AtomicUsize::new(0),
            head_ts: AtomicU64::new(0),
            data_len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            metrics: QueueMetrics::default(),
            memory_gauge,
        })
    }

    /// The queue's diagnostic name (usually `"<producer>-><consumer>"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The capacity, or `None` for unbounded.
    pub fn capacity(&self) -> Option<usize> {
        match self.capacity.load(Ordering::Relaxed) {
            usize::MAX => None,
            c => Some(c),
        }
    }

    /// Removes the capacity bound, releasing any producer blocked in a
    /// [`BackpressurePolicy::Block`] push. Used during engine teardown so
    /// in-flight elements land in the buffer (and are drained as remnants)
    /// instead of being lost.
    pub fn lift_bound(&self) {
        self.capacity.store(usize::MAX, Ordering::Relaxed);
        let _guard = self.shared.buf.lock();
        self.shared.not_full.notify_all();
        self.shared.not_empty.notify_all();
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> &QueueMetrics {
        &self.metrics
    }

    /// Current number of queued messages (lock-free; may lag a concurrent
    /// push/pop by one, which is fine for scheduling and monitoring).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Current number of queued *data* elements, excluding punctuations —
    /// the quantity the paper reports as queue memory usage.
    pub fn data_len(&self) -> usize {
        self.data_len.load(Ordering::Relaxed)
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the queue closed and wakes all waiting producers and consumers.
    /// Already-queued messages remain poppable; further pushes fail.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _guard = self.shared.buf.lock();
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Whether [`StreamQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Books `n` messages (`data` of them data elements) inserted under the
    /// lock that guards `buf`, and publishes the new length — and the head
    /// timestamp if the insertion started from an empty buffer — for the
    /// lock-free readers.
    fn book_inserted(&self, buf: &VecDeque<Message>, n: usize, data: usize) {
        if n == 0 {
            return;
        }
        if buf.len() == n {
            self.publish_head(buf);
        }
        self.len.store(buf.len(), Ordering::Release);
        if data > 0 {
            self.data_len.fetch_add(data, Ordering::Relaxed);
            if let Some(g) = &self.memory_gauge {
                g.fetch_add(data, Ordering::Relaxed);
            }
        }
        self.metrics.enqueued.fetch_add(n as u64, Ordering::Relaxed);
        self.metrics.note_len(buf.len());
    }

    /// Books `n` messages (`data` of them data elements) removed from the
    /// front of `buf` under its lock. `consumed` distinguishes a consumer
    /// pop (counted as dequeued) from a backpressure eviction (counted as
    /// dropped), so that `enqueued == dequeued + dropped + len` always
    /// holds (`DropNewest` sheds at the tail instead: what it refuses was
    /// never enqueued and counts as dropped only).
    fn book_removed(&self, buf: &VecDeque<Message>, n: usize, data: usize, consumed: bool) {
        self.publish_head(buf);
        self.len.store(buf.len(), Ordering::Release);
        if data > 0 {
            self.data_len.fetch_sub(data, Ordering::Relaxed);
            if let Some(g) = &self.memory_gauge {
                g.fetch_sub(data, Ordering::Relaxed);
            }
        }
        let counter = if consumed { &self.metrics.dequeued } else { &self.metrics.dropped };
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Stores the head message's timestamp for [`StreamQueue::peek_ts`].
    /// Always followed by the `Release` store of `len` that makes it
    /// visible.
    fn publish_head(&self, buf: &VecDeque<Message>) {
        if let Some(head) = buf.front() {
            self.head_ts.store(head.ts().0, Ordering::Relaxed);
        }
    }

    /// Enqueues a message, applying the backpressure policy if bounded and
    /// full. Fails with [`StreamError::QueueClosed`] after `close`.
    pub fn push(&self, msg: Message) -> Result<(), StreamError> {
        self.push_with_stall(msg).map(|_| ())
    }

    /// Like [`StreamQueue::push`], but reports how long the producer was
    /// blocked by a full [`BackpressurePolicy::Block`] queue
    /// (`Duration::ZERO` on the fast path — no clock is read unless the
    /// push actually stalls). Network ingest uses this to attribute
    /// TCP-backpressure stall time without taxing the in-process hot path.
    pub fn push_with_stall(&self, msg: Message) -> Result<Duration, StreamError> {
        self.push_all(std::iter::once(msg), || {})
    }

    /// Enqueues every message of `msgs` in order — the backpressure policy
    /// applied to each as by [`StreamQueue::push`] — under one lock, with
    /// one update of the gauges and metrics and one notification (to every
    /// waiting consumer if more than one message went in). `msgs` is left
    /// empty with its capacity intact; on an error ([`StreamError::QueueClosed`],
    /// or [`StreamError::QueueFull`] under [`BackpressurePolicy::Fail`])
    /// the rejected message and those after it are discarded, as `push`
    /// discards its argument.
    ///
    /// `wake` is for a consumer that does not wait on the queue itself but
    /// sleeps until it is told (a pooled domain and its waker; pass `|| {}`
    /// for one that does wait here). It runs once the batch is in — and, on
    /// a full [`BackpressurePolicy::Block`] queue, each time before the
    /// producer waits for room, with what it has put in so far: waking only
    /// after the batch would leave the producer waiting for a consumer that
    /// nobody has told about the part already queued. The queue's lock is
    /// not held while `wake` runs.
    pub fn push_batch(
        &self,
        msgs: &mut Vec<Message>,
        mut wake: impl FnMut(),
    ) -> Result<(), StreamError> {
        let result = self.push_all(msgs.drain(..), &mut wake);
        wake();
        result.map(|_| ())
    }

    /// Like [`StreamQueue::push_batch`] for a consumer that waits on the
    /// queue, but reports how long the producer was blocked, as
    /// [`StreamQueue::push_with_stall`] does for one message.
    pub fn push_batch_with_stall(&self, msgs: &mut Vec<Message>) -> Result<Duration, StreamError> {
        self.push_all(msgs.drain(..), || {})
    }

    /// `before_wait` runs, with the lock released, each time the producer
    /// is about to wait for room.
    fn push_all(
        &self,
        msgs: impl Iterator<Item = Message>,
        mut before_wait: impl FnMut(),
    ) -> Result<Duration, StreamError> {
        let mut stalled = Duration::ZERO;
        let mut result = Ok(());
        // Inserted and not yet booked: messages, data elements among them.
        let (mut n, mut data) = (0usize, 0usize);
        // Inserted and not yet announced to the consumers.
        let mut unannounced = 0usize;
        let mut buf = self.shared.buf.lock();
        if self.is_closed() {
            return Err(StreamError::QueueClosed);
        }
        for msg in msgs {
            if buf.len() >= self.capacity.load(Ordering::Relaxed) {
                match self.policy {
                    BackpressurePolicy::Block => {
                        // Hand over what is already in: the consumer this
                        // waits for may be parked waiting for exactly that.
                        self.book_inserted(&buf, n, data);
                        (n, data) = (0, 0);
                        if unannounced > 0 {
                            self.shared.not_empty.notify_all();
                            unannounced = 0;
                        }
                        drop(buf);
                        before_wait();
                        buf = self.shared.buf.lock();
                        // Re-read the capacity each round: `lift_bound` may
                        // remove it while we wait.
                        let wait_start = std::time::Instant::now();
                        while buf.len() >= self.capacity.load(Ordering::Relaxed)
                            && !self.is_closed()
                        {
                            self.shared.not_full.wait(&mut buf);
                        }
                        stalled += wait_start.elapsed();
                        if self.is_closed() {
                            result = Err(StreamError::QueueClosed);
                            break;
                        }
                    }
                    BackpressurePolicy::Fail => {
                        result = Err(StreamError::QueueFull);
                        break;
                    }
                    BackpressurePolicy::DropNewest => {
                        self.metrics.dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    BackpressurePolicy::DropOldest => {
                        // Book the insertions first so the eviction's
                        // bookkeeping starts from consistent gauges.
                        self.book_inserted(&buf, n, data);
                        (n, data) = (0, 0);
                        if let Some(old) = buf.pop_front() {
                            let old_data = old.as_data().is_some() as usize;
                            self.book_removed(&buf, 1, old_data, false);
                        }
                    }
                }
            }
            data += msg.as_data().is_some() as usize;
            n += 1;
            unannounced += 1;
            buf.push_back(msg);
        }
        self.book_inserted(&buf, n, data);
        drop(buf);
        if unannounced > 1 {
            self.shared.not_empty.notify_all();
        } else if unannounced == 1 {
            self.shared.not_empty.notify_one();
        }
        result.map(|()| stalled)
    }

    /// The timestamp of the oldest queued message, if any (see
    /// [`Message::ts`]). Used by timestamp-ordered scheduling strategies
    /// (FIFO) to pick the queue with the oldest pending work. Lock-free:
    /// every operation that moves the head publishes its timestamp before
    /// the length, so a consumer that sees its queue non-empty reads the
    /// head it will pop (a concurrent reader may lag by one operation,
    /// like [`StreamQueue::len`]).
    pub fn peek_ts(&self) -> Option<crate::time::Timestamp> {
        (self.len.load(Ordering::Acquire) > 0)
            .then(|| crate::time::Timestamp(self.head_ts.load(Ordering::Relaxed)))
    }

    /// Pops the oldest message under the held lock and books it.
    fn take_one(&self, buf: &mut VecDeque<Message>) -> Option<Message> {
        let msg = buf.pop_front()?;
        self.book_removed(buf, 1, msg.as_data().is_some() as usize, true);
        Some(msg)
    }

    /// Removes the oldest message without blocking.
    pub fn try_pop(&self) -> Option<Message> {
        let msg = self.take_one(&mut self.shared.buf.lock())?;
        self.shared.not_full.notify_one();
        Some(msg)
    }

    /// Moves up to `max` of the oldest messages onto the end of `out`
    /// without blocking, under one lock, with one update of the gauges and
    /// metrics and one notification (to every blocked producer if more than
    /// one slot became free). Returns how many were moved.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<Message>) -> usize {
        let mut buf = self.shared.buf.lock();
        let n = max.min(buf.len());
        if n == 0 {
            return 0;
        }
        let mut data = 0;
        out.extend(buf.drain(..n).inspect(|m| data += m.as_data().is_some() as usize));
        self.book_removed(&buf, n, data, true);
        drop(buf);
        if n > 1 {
            self.shared.not_full.notify_all();
        } else {
            self.shared.not_full.notify_one();
        }
        n
    }

    /// Blocks until a message is available or the queue is closed and empty
    /// (in which case `None` is returned, signalling the consumer to stop).
    pub fn pop_blocking(&self) -> Option<Message> {
        let mut buf = self.shared.buf.lock();
        loop {
            if let Some(msg) = self.take_one(&mut buf) {
                drop(buf);
                self.shared.not_full.notify_one();
                return Some(msg);
            }
            if self.is_closed() {
                return None;
            }
            self.shared.not_empty.wait(&mut buf);
        }
    }

    /// Like [`StreamQueue::pop_blocking`] but gives up after `timeout`,
    /// returning `None` on both timeout and closed-and-empty.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<Message> {
        let deadline = std::time::Instant::now() + timeout;
        let mut buf = self.shared.buf.lock();
        loop {
            if let Some(msg) = self.take_one(&mut buf) {
                drop(buf);
                self.shared.not_full.notify_one();
                return Some(msg);
            }
            if self.is_closed() {
                return None;
            }
            if self.shared.not_empty.wait_until(&mut buf, deadline).timed_out() {
                return None;
            }
        }
    }

    /// Removes and returns all queued messages at once. Used when a queue is
    /// removed at runtime: the paper (§5.1.3) requires that "all remaining
    /// elements in the queue must be entirely processed before" removal, and
    /// the engine replays the drained messages through the merged partition.
    /// Drained remnants leave the queue to be replayed downstream, so they
    /// count as dequeued for metric conservation.
    pub fn drain(&self) -> Vec<Message> {
        let mut msgs = Vec::new();
        self.pop_batch(usize::MAX, &mut msgs);
        msgs
    }
}

impl fmt::Debug for StreamQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamQueue")
            .field("name", &self.name)
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::tuple::Tuple;
    use std::thread;

    fn data(v: i64) -> Message {
        Message::data(Tuple::single(v), Timestamp::from_micros(v as u64))
    }

    #[test]
    fn peek_ts_reads_head_without_removing() {
        let q = StreamQueue::unbounded("q");
        assert_eq!(q.peek_ts(), None);
        q.push(data(7)).unwrap();
        q.push(data(9)).unwrap();
        assert_eq!(q.peek_ts(), Some(Timestamp::from_micros(7)));
        assert_eq!(q.len(), 2);
        q.try_pop().unwrap();
        assert_eq!(q.peek_ts(), Some(Timestamp::from_micros(9)));
    }

    #[test]
    fn fifo_order() {
        let q = StreamQueue::unbounded("q");
        for i in 0..5 {
            q.push(data(i)).unwrap();
        }
        for i in 0..5 {
            let m = q.try_pop().unwrap();
            assert_eq!(m.as_data().unwrap().tuple.field(0).as_int().unwrap(), i);
        }
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn len_and_data_len_exclude_punctuations() {
        let q = StreamQueue::unbounded("q");
        q.push(data(1)).unwrap();
        q.push(Message::eos()).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.data_len(), 1);
        q.try_pop().unwrap();
        assert_eq!(q.data_len(), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn metrics_track_activity() {
        let q = StreamQueue::unbounded("q");
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap();
        q.try_pop().unwrap();
        assert_eq!(q.metrics().enqueued(), 2);
        assert_eq!(q.metrics().dequeued(), 1);
        assert_eq!(q.metrics().high_water(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn dequeued_counts_every_pop_variant() {
        let q = StreamQueue::unbounded("q");
        for i in 0..4 {
            q.push(data(i)).unwrap();
        }
        q.try_pop().unwrap();
        q.pop_blocking().unwrap();
        q.pop_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(q.metrics().dequeued(), 3);
        // Drained remnants also count as dequeued.
        assert_eq!(q.drain().len(), 1);
        assert_eq!(q.metrics().dequeued(), 4);
        assert_eq!(q.metrics().enqueued(), 4);
    }

    #[test]
    fn metrics_conservation_under_drop_oldest() {
        let q = StreamQueue::bounded("q", 2, BackpressurePolicy::DropOldest);
        for i in 0..5 {
            q.push(data(i)).unwrap();
        }
        q.try_pop().unwrap();
        let m = q.metrics();
        // Evictions are drops, not dequeues; everything pushed is accounted
        // for exactly once.
        assert_eq!(m.enqueued(), 5);
        assert_eq!(m.dropped(), 3);
        assert_eq!(m.dequeued(), 1);
        assert_eq!(m.enqueued(), m.dequeued() + m.dropped() + q.len() as u64);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let q = StreamQueue::unbounded("q");
        for i in 0..6 {
            q.push(data(i)).unwrap();
        }
        while q.try_pop().is_some() {}
        assert_eq!(q.len(), 0);
        assert_eq!(q.metrics().high_water(), 6);
    }

    #[test]
    fn close_rejects_push_and_unblocks_pop() {
        let q = StreamQueue::unbounded("q");
        q.push(data(1)).unwrap();
        q.close();
        assert_eq!(q.push(data(2)), Err(StreamError::QueueClosed));
        // Remaining element still poppable, then None.
        assert!(q.pop_blocking().is_some());
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn pop_blocking_wakes_on_push() {
        let q = StreamQueue::unbounded("q");
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop_blocking());
        thread::sleep(Duration::from_millis(20));
        q.push(data(9)).unwrap();
        let got = h.join().unwrap().unwrap();
        assert_eq!(got.as_data().unwrap().tuple.field(0).as_int().unwrap(), 9);
    }

    #[test]
    fn pop_timeout_times_out() {
        let q = StreamQueue::unbounded("q");
        assert!(q.pop_timeout(Duration::from_millis(10)).is_none());
        q.push(data(1)).unwrap();
        assert!(q.pop_timeout(Duration::from_millis(10)).is_some());
    }

    #[test]
    fn bounded_fail_policy() {
        let q = StreamQueue::bounded("q", 2, BackpressurePolicy::Fail);
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap();
        assert_eq!(q.push(data(3)), Err(StreamError::QueueFull));
        q.try_pop().unwrap();
        q.push(data(3)).unwrap();
    }

    #[test]
    fn bounded_drop_newest() {
        let q = StreamQueue::bounded("q", 1, BackpressurePolicy::DropNewest);
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap(); // dropped
        assert_eq!(q.metrics().dropped(), 1);
        let m = q.try_pop().unwrap();
        assert_eq!(m.as_data().unwrap().tuple.field(0).as_int().unwrap(), 1);
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn bounded_drop_oldest() {
        let q = StreamQueue::bounded("q", 1, BackpressurePolicy::DropOldest);
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap(); // evicts 1
        assert_eq!(q.metrics().dropped(), 1);
        let m = q.try_pop().unwrap();
        assert_eq!(m.as_data().unwrap().tuple.field(0).as_int().unwrap(), 2);
        assert_eq!(q.data_len(), 0);
    }

    #[test]
    fn bounded_block_policy_blocks_and_resumes() {
        let q = StreamQueue::bounded("q", 1, BackpressurePolicy::Block);
        q.push(data(1)).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.push(data(2)));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1); // producer blocked
        q.try_pop().unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn blocked_producer_unblocks_on_close() {
        let q = StreamQueue::bounded("q", 1, BackpressurePolicy::Block);
        q.push(data(1)).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.push(data(2)));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(StreamError::QueueClosed));
    }

    #[test]
    fn drain_empties_and_updates_gauge() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let q = StreamQueue::unbounded_with_gauge("q", Arc::clone(&gauge));
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap();
        q.push(Message::eos()).unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 2);
        let msgs = q.drain();
        assert_eq!(msgs.len(), 3);
        assert_eq!(q.len(), 0);
        assert_eq!(q.data_len(), 0);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shared_gauge_aggregates_across_queues() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let a = StreamQueue::unbounded_with_gauge("a", Arc::clone(&gauge));
        let b = StreamQueue::unbounded_with_gauge("b", Arc::clone(&gauge));
        a.push(data(1)).unwrap();
        b.push(data(2)).unwrap();
        b.push(data(3)).unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 3);
        a.try_pop().unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 2);
    }

    /// Everything accepted is accounted for exactly once, and the gauges
    /// agree with the buffer. (`DropNewest` refuses a message at the tail
    /// without ever accepting it: those count as dropped only.)
    fn assert_conserved(q: &StreamQueue, gauge: &AtomicUsize) {
        let m = q.metrics();
        let evicted = if q.policy == BackpressurePolicy::DropNewest { 0 } else { m.dropped() };
        assert_eq!(m.enqueued(), m.dequeued() + evicted + q.len() as u64, "{q:?}");
        let buf = q.shared.buf.lock();
        assert_eq!(q.len(), buf.len());
        assert_eq!(q.data_len(), buf.iter().filter(|m| m.as_data().is_some()).count());
        assert_eq!(gauge.load(Ordering::Relaxed), q.data_len());
        assert_eq!(q.peek_ts(), buf.front().map(|m| m.ts()));
    }

    /// `1..=n` as data messages, with an end-of-stream in the middle to
    /// tell messages from data elements.
    fn batch_with_punct(n: i64) -> Vec<Message> {
        let mut msgs: Vec<Message> = (1..=n).map(data).collect();
        msgs.insert(n as usize / 2, Message::eos());
        msgs
    }

    fn values(msgs: &[Message]) -> Vec<i64> {
        msgs.iter()
            .filter_map(|m| m.as_data())
            .map(|e| e.tuple.field(0).as_int().unwrap())
            .collect()
    }

    #[test]
    fn push_batch_applies_each_policy_per_element() {
        use BackpressurePolicy::*;
        // (policy, result, data values left in the queue, dropped)
        let cases = [
            (Fail, Err(StreamError::QueueFull), vec![1, 2], 0),
            (DropNewest, Ok(()), vec![1, 2], 2),
            (DropOldest, Ok(()), vec![3, 4], 2),
        ];
        for (policy, result, kept, dropped) in cases {
            let (gauge, twin_gauge) =
                (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
            let q = StreamQueue::bounded_with_gauge("q", 3, policy, Arc::clone(&gauge));
            // 1, 2, <eos>, 3, 4 into three slots, at once ...
            let mut msgs = batch_with_punct(4);
            assert_eq!(q.push_batch(&mut msgs, || {}), result, "{policy:?}");
            assert!(msgs.is_empty(), "{policy:?}: the batch is consumed either way");
            // ... and one `push` at a time into a twin.
            let twin = StreamQueue::bounded_with_gauge("twin", 3, policy, Arc::clone(&twin_gauge));
            let pushed = batch_with_punct(4).into_iter().try_for_each(|m| twin.push(m));
            assert_eq!(pushed, result, "{policy:?}");
            for q in [&q, &twin] {
                let m = q.metrics();
                assert_eq!((q.len(), q.data_len()), (3, 2), "{policy:?}");
                assert_eq!(
                    (m.enqueued(), m.dropped()),
                    (3 + evicted(policy), dropped),
                    "{policy:?}"
                );
                assert_eq!(m.high_water(), 3, "{policy:?}");
            }
            assert_conserved(&q, &gauge);
            assert_conserved(&twin, &twin_gauge);
            assert_eq!(values(&twin.drain()), kept, "{policy:?}");
            assert_eq!(values(&q.drain()), kept, "{policy:?}");
            assert_conserved(&q, &gauge);
        }

        fn evicted(policy: BackpressurePolicy) -> u64 {
            if policy == DropOldest {
                2
            } else {
                0
            }
        }
    }

    #[test]
    fn push_batch_blocks_mid_batch_until_the_bound_is_lifted() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let q =
            StreamQueue::bounded_with_gauge("q", 2, BackpressurePolicy::Block, Arc::clone(&gauge));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_batch(&mut batch_with_punct(4), || {}))
        };
        // What is already in is handed over before the producer waits.
        assert_eq!(values(&[q.pop_blocking().unwrap()]), [1]);
        q.lift_bound();
        assert_eq!(producer.join().unwrap(), Ok(()));
        assert_conserved(&q, &gauge);
        assert_eq!(q.len(), 4);
        q.close();
        let mut more = vec![data(9)];
        assert_eq!(q.push_batch(&mut more, || {}), Err(StreamError::QueueClosed));
        assert!(more.is_empty());
        assert_eq!(values(&q.drain()), [2, 3, 4]);
        assert_conserved(&q, &gauge);
    }

    #[test]
    fn push_batch_blocked_mid_batch_fails_on_close() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let q = StreamQueue::bounded_with_gauge("q", 1, BackpressurePolicy::Block, gauge.clone());
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_batch(&mut (1..=3).map(data).collect(), || {}))
        };
        assert_eq!(values(&[q.pop_blocking().unwrap()]), [1]);
        // Two messages cannot fit one slot: the producer is (or will be)
        // waiting when the queue closes.
        q.close();
        assert_eq!(producer.join().unwrap(), Err(StreamError::QueueClosed));
        assert_conserved(&q, &gauge);
        assert!(q.len() <= 1);
    }

    /// Fails the test instead of hanging it when `scenario` deadlocks.
    fn within(limit: Duration, scenario: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = thread::spawn(move || {
            scenario();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            // Done, or the scenario panicked: join reports which.
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => runner.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("hung for {limit:?}"),
        }
    }

    #[test]
    fn push_batch_tells_the_consumer_before_it_waits_for_room() {
        within(Duration::from_secs(10), || {
            // A consumer that looks at the queue only when it is told to,
            // as a pooled domain does: five messages through two slots
            // need it to be told twice while the producer waits.
            let q = StreamQueue::bounded("q", 2, BackpressurePolicy::Block);
            let (wake, woken) = std::sync::mpsc::channel();
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for wakes in 1.. {
                        woken.recv().unwrap();
                        q.pop_batch(usize::MAX, &mut got);
                        if got.len() == 5 {
                            return (values(&got), wakes);
                        }
                    }
                    unreachable!()
                })
            };
            let mut batch: Vec<Message> = (1..=5).map(data).collect();
            assert_eq!(q.push_batch(&mut batch, || wake.send(()).unwrap()), Ok(()));
            assert!(batch.is_empty());
            assert_eq!(consumer.join().unwrap(), (vec![1, 2, 3, 4, 5], 3));
            // A batch that fits wakes once, behind its last message.
            let wakes = std::cell::Cell::new(0);
            let mut fits = vec![data(6), data(7)];
            q.push_batch(&mut fits, || wakes.set(wakes.get() + q.len())).unwrap();
            assert_eq!(wakes.get(), 2);
        });
    }

    #[test]
    fn pop_batch_freeing_k_slots_releases_k_blocked_producers() {
        within(Duration::from_secs(60), || {
            const K: usize = 3;
            let q = StreamQueue::bounded("q", K, BackpressurePolicy::Block);
            for i in 0..K {
                q.push(data(i as i64)).unwrap();
            }
            let (started, all_started) = std::sync::mpsc::channel();
            let producers: Vec<_> = (0..K)
                .map(|p| {
                    let (q, started) = (Arc::clone(&q), started.clone());
                    thread::spawn(move || {
                        started.send(()).unwrap();
                        q.push(data(100 + p as i64))
                    })
                })
                .collect();
            for _ in 0..K {
                all_started.recv().unwrap();
            }
            // The queue is full, so every producer parks (this pause only
            // makes it likely that they already have; the outcome below
            // holds either way, and a wake-up that reached fewer than K of
            // them would leave the joins hanging).
            thread::sleep(Duration::from_millis(20));
            assert_eq!(q.len(), K);
            let mut popped = Vec::new();
            assert_eq!(q.pop_batch(K, &mut popped), K);
            assert_eq!(values(&popped), [0, 1, 2]);
            for p in producers {
                p.join().unwrap().unwrap();
            }
            assert_eq!(q.len(), K);
            assert_conserved(&q, &AtomicUsize::new(q.data_len()));
        });
    }

    #[test]
    fn peek_ts_follows_the_head_through_every_operation() {
        let q = StreamQueue::bounded("q", 4, BackpressurePolicy::DropOldest);
        let head = |q: &StreamQueue| q.shared.buf.lock().front().map(|m| m.ts());
        let mut popped = Vec::new();
        type Op = Box<dyn Fn(&StreamQueue, &mut Vec<Message>)>;
        let ops: Vec<(&str, Op)> = vec![
            ("push into empty", Box::new(|q, _| q.push(data(5)).unwrap())),
            ("push behind a head", Box::new(|q, _| q.push(data(6)).unwrap())),
            ("try_pop", Box::new(|q, _| drop(q.try_pop()))),
            ("push eos", Box::new(|q, _| q.push(Message::eos()).unwrap())),
            ("pop_blocking to the eos head", Box::new(|q, _| drop(q.pop_blocking()))),
            ("pop_timeout to empty", Box::new(|q, _| drop(q.pop_timeout(Duration::ZERO)))),
            ("push_batch", Box::new(|q, _| q.push_batch(&mut batch_with_punct(3), || {}).unwrap())),
            ("pop_batch", Box::new(|q, out| assert_eq!(q.pop_batch(2, out), 2))),
            (
                "evicting push_batch",
                Box::new(|q, _| q.push_batch(&mut batch_with_punct(4), || {}).unwrap()),
            ),
            ("evicting push", Box::new(|q, _| q.push(data(1)).unwrap())),
            ("drain", Box::new(|q, _| drop(q.drain()))),
            ("push after drain", Box::new(|q, _| q.push(data(2)).unwrap())),
        ];
        assert_eq!(q.peek_ts(), None);
        for (what, op) in ops {
            op(&q, &mut popped);
            assert_eq!(q.peek_ts(), head(&q), "after {what}");
        }
        assert_eq!(q.peek_ts(), Some(Timestamp::from_micros(2)));
    }

    /// `producers` threads push `per_producer` numbered messages each,
    /// mixing `push` and `push_batch`; `consumers` threads pop them mixing
    /// `pop_batch`, `pop_timeout` and `pop_blocking`; the queue is closed
    /// once the producers are done. Nothing may be lost or duplicated,
    /// every consumer must see each producer's messages in order, and
    /// nobody may hang.
    fn stress(q: Arc<StreamQueue>, producers: i64, consumers: usize, per_producer: i64) {
        const STRIDE: i64 = 1_000_000;
        let producing: Vec<_> = (0..producers)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut next = 0;
                    let mut batch = Vec::new();
                    while next < per_producer {
                        // Batches of 1..=5 alternate with single pushes.
                        let n = (next % 7).min(5).min(per_producer - next);
                        if n == 0 {
                            q.push(data(p * STRIDE + next)).unwrap();
                            next += 1;
                        } else {
                            batch.extend((next..next + n).map(|i| data(p * STRIDE + i)));
                            q.push_batch(&mut batch, || {}).unwrap();
                            next += n;
                        }
                    }
                })
            })
            .collect();
        let consuming: Vec<_> = (0..consumers)
            .map(|c| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got: Vec<Message> = Vec::new();
                    for round in c.. {
                        let before = got.len();
                        match round % 3 {
                            0 => {
                                q.pop_batch(1 + round % 4, &mut got);
                            }
                            1 => got.extend(q.pop_timeout(Duration::from_micros(50))),
                            _ => {}
                        }
                        if got.len() == before {
                            match q.pop_blocking() {
                                Some(m) => got.push(m),
                                None => break,
                            }
                        }
                    }
                    values(&got)
                })
            })
            .collect();
        for p in producing {
            p.join().unwrap();
        }
        q.close();
        let mut all = Vec::new();
        for c in consuming {
            let got = c.join().unwrap();
            let mut last = vec![-1; producers as usize];
            for v in &got {
                let (p, i) = ((v / STRIDE) as usize, v % STRIDE);
                assert!(i > last[p], "producer {p}: {i} after {}", last[p]);
                last[p] = i;
            }
            all.extend(got);
        }
        all.sort_unstable();
        let expected: Vec<i64> =
            (0..producers).flat_map(|p| (0..per_producer).map(move |i| p * STRIDE + i)).collect();
        assert_eq!(all, expected, "{q:?}");
        assert_conserved(&q, &AtomicUsize::new(0));
        assert_eq!(q.metrics().dropped(), 0);
    }

    #[test]
    fn mpmc_stress_loses_nothing_keeps_order_and_terminates() {
        within(Duration::from_secs(120), || {
            for cap in 1..=4 {
                stress(StreamQueue::bounded("q", cap, BackpressurePolicy::Block), 3, 2, 2000);
            }
            stress(StreamQueue::unbounded("q"), 3, 3, 4000);
            stress(StreamQueue::unbounded("q"), 1, 1, 4000);
        });
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let q = StreamQueue::unbounded("q");
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..250 {
                        q.push(data(p * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = 0;
                while got < 1000 {
                    if q.pop_blocking().is_some() {
                        got += 1;
                    }
                }
                got
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(consumer.join().unwrap(), 1000);
        assert_eq!(q.metrics().enqueued(), 1000);
        assert_eq!(q.len(), 0);
    }
}
