//! Inter-partition stream queues.
//!
//! In this framework (following the paper, §2.4) queues are *not* placed
//! between every pair of operators: inside a partition / virtual operator,
//! operators call each other directly (direct interoperability). Queues
//! appear only at partition boundaries, where they decouple the producing
//! thread from the consuming one. They are therefore first-class objects
//! with names, metrics, backpressure policies, and a lock-free length gauge
//! that the memory monitor samples for the Fig. 9 style experiments.
//!
//! A queue holds what crosses it in the shape it crosses in: a deque of
//! entries, each a *run* of data elements or one punctuation, and behind
//! them the open run new elements are appended to. A batch crosses a queue
//! one way: a long run a producer staged moves in as the buffer it is in
//! ([`StreamQueue::push_runs`]) and a consumer that takes runs
//! ([`StreamQueue::pop_runs`]) gets that buffer back out, without one
//! element being copied; a short run is copied, onto the open run and off
//! it. The message API (`push`,
//! `push_with_stall`, `try_pop`, `pop_blocking`) is a view over the same
//! entries, one message at a time.
//! Every count — length, data length, the memory gauge, the metrics, the
//! capacity bound and what a backpressure policy sheds — is per message,
//! that is per element or punctuation, whatever runs they sit in.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::element::{Element, Message, Punctuation};
use crate::error::StreamError;
use crate::time::Timestamp;

/// The run length a queue shapes its buffers for: the engine's default
/// batch. A run shorter than half of it is copied onto the open run — or a
/// new one with room for this many — instead of moving in as a buffer of
/// its own, and copied out again, so paced runs of one do not each pin a
/// buffer.
pub const RUN: usize = 32;

/// Emptied run buffers a queue keeps for the next runs.
const SPARES: usize = 4;

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

/// Messages in the shape a queue holds them: the data elements as one run,
/// and every punctuation with its position in that run — the number of
/// elements before it. What a producer stages for a queue and what a
/// consumer takes out of one; without punctuations in its middle, the run
/// crosses the queue as one moved buffer.
#[derive(Debug, Default)]
pub struct Batch {
    /// The data elements, in order.
    pub run: Vec<Element>,
    /// `(elements before it, punctuation)`, in order.
    pub puncts: Vec<(usize, Punctuation)>,
}

impl Batch {
    /// Messages in the batch.
    pub fn len(&self) -> usize {
        self.run.len() + self.puncts.len()
    }

    /// Whether the batch holds no message.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.puncts.is_empty()
    }

    /// Appends `msg`.
    pub fn push(&mut self, msg: Message) {
        match msg {
            Message::Data(el) => self.run.push(el),
            Message::Punct(p) => self.puncts.push((self.run.len(), p)),
        }
    }

    /// Empties the batch into its messages, in order; the run's storage
    /// stays.
    pub fn drain(&mut self) -> impl Iterator<Item = Message> + '_ {
        drain_parts(&mut self.run, &mut self.puncts)
    }
}

/// `run` and `puncts` (positions as in [`Batch::puncts`]) as the messages
/// they are, in order, emptying both as it goes — or, dropped early, at
/// once.
fn drain_parts<'a>(
    run: &'a mut Vec<Element>,
    puncts: &'a mut Vec<(usize, Punctuation)>,
) -> impl Iterator<Item = Message> + 'a {
    let mut puncts = puncts.drain(..).peekable();
    let mut elements = run.drain(..);
    let mut at = 0;
    std::iter::from_fn(move || {
        if let Some((_, p)) = puncts.next_if(|&(pos, _)| pos <= at) {
            return Some(Message::Punct(p));
        }
        match elements.next() {
            Some(el) => {
                at += 1;
                Some(Message::Data(el))
            }
            None => puncts.next().map(|(_, p)| Message::Punct(p)),
        }
    })
}

/// A closed entry of a queue's buffer.
enum Entry {
    /// Data elements, oldest first; never empty.
    Run(VecDeque<Element>),
    Punct(Punctuation),
}

/// What a queue holds, behind its lock: the closed entries, then the open
/// run elements are appended to. The open run lives beside the deque, so a
/// push and a pop of a run of one touch what a queue of messages would.
#[derive(Default)]
struct Buffer {
    entries: VecDeque<Entry>,
    /// The newest data, behind every entry; may be empty.
    tail: VecDeque<Element>,
    /// Queued messages: the elements of every run, and the punctuations.
    len: usize,
    /// Emptied run buffers, for the next runs.
    spares: Vec<VecDeque<Element>>,
}

impl Buffer {
    /// The timestamp of the oldest message (see [`Message::ts`]).
    fn head_ts(&self) -> Option<Timestamp> {
        match self.entries.front() {
            Some(Entry::Run(run)) => run.front().map(|el| el.ts),
            Some(Entry::Punct(p)) => Some(p.ts()),
            None => self.tail.front().map(|el| el.ts),
        }
    }

    /// A buffer for a new run: a spare one, or one with room for [`RUN`].
    fn fresh_run(&mut self) -> VecDeque<Element> {
        self.spares.pop().unwrap_or_else(|| VecDeque::with_capacity(RUN))
    }

    /// Keeps an emptied run buffer for reuse, while there are few spares.
    fn recycle(&mut self, mut run: VecDeque<Element>) {
        if self.spares.len() < SPARES && run.capacity() > 0 {
            run.clear();
            self.spares.push(run);
        }
    }

    /// Closes the open run, if it holds anything: it becomes the newest
    /// entry, and the open run starts out empty.
    fn close_tail(&mut self) {
        if !self.tail.is_empty() {
            let closed = std::mem::take(&mut self.tail);
            self.entries.push_back(Entry::Run(closed));
        }
    }

    /// Makes room in the open run for `n` more elements: if it has none,
    /// it is closed and a fresh buffer opened.
    #[inline]
    fn room_for(&mut self, n: usize) {
        if self.tail.capacity() - self.tail.len() < n {
            self.reopen_tail();
        }
    }

    #[cold]
    fn reopen_tail(&mut self) {
        self.close_tail();
        let fresh = self.fresh_run();
        let emptied = std::mem::replace(&mut self.tail, fresh);
        self.recycle(emptied);
    }

    /// Appends `msg`; whether it is data.
    #[inline]
    fn push_message(&mut self, msg: Message) -> bool {
        match msg {
            Message::Data(el) => {
                self.room_for(1);
                self.tail.push_back(el);
                self.len += 1;
                true
            }
            Message::Punct(p) => {
                self.push_punct(p);
                false
            }
        }
    }

    fn push_punct(&mut self, p: Punctuation) {
        self.close_tail();
        self.entries.push_back(Entry::Punct(p));
        self.len += 1;
    }

    /// Appends the elements of `run`: a short run is copied onto the open
    /// run, a long one becomes the open run as the buffer it is in, and
    /// `run` is handed the open run's emptied buffer, or a spare.
    fn push_run(&mut self, run: &mut Vec<Element>) {
        match run.len() {
            0 => {}
            n if n < RUN / 2 => {
                self.room_for(n);
                self.tail.extend(run.drain(..));
                self.len += n;
            }
            n => {
                self.close_tail();
                let emptied = match std::mem::take(&mut self.tail) {
                    tail if tail.capacity() > 0 => tail,
                    _ => self.spares.pop().unwrap_or_default(),
                };
                let full = std::mem::replace(run, Vec::from(emptied));
                self.tail = VecDeque::from(full);
                self.len += n;
            }
        }
    }

    /// Removes the oldest message.
    #[inline]
    fn pop_message(&mut self) -> Option<Message> {
        if self.entries.is_empty() {
            let el = self.tail.pop_front()?;
            self.len -= 1;
            return Some(Message::Data(el));
        }
        let msg = match self.entries.front_mut()? {
            Entry::Run(run) => {
                let el = run.pop_front().expect("a closed run is not empty");
                if run.is_empty() {
                    self.retire_front();
                }
                Message::Data(el)
            }
            &mut Entry::Punct(p) => {
                self.entries.pop_front();
                Message::Punct(p)
            }
        };
        self.len -= 1;
        Some(msg)
    }

    /// Drops the front entry, a run emptied, keeping its buffer.
    fn retire_front(&mut self) {
        if let Some(Entry::Run(run)) = self.entries.pop_front() {
            self.recycle(run);
        }
    }

    /// Moves up to `max` of the oldest messages into `out`: a long run that
    /// fits whole as its own buffer, swapped with `out.run` while that is
    /// empty, every other element by copy (as [`push_run`] takes them).
    /// Returns `(messages, data elements)` moved.
    ///
    /// [`push_run`]: Self::push_run
    fn pop_into(&mut self, max: usize, out: &mut Batch) -> (usize, usize) {
        let (mut n, mut data) = (0, 0);
        while n < max.min(self.len) {
            let (room, open) = (max - n, out.run.is_empty());
            // Whether a run of `len` leaves as its buffer.
            let whole = |len: usize| open && (RUN / 2..=room).contains(&len);
            let k = match self.entries.front_mut() {
                Some(&mut Entry::Punct(p)) => {
                    self.entries.pop_front();
                    out.puncts.push((out.run.len(), p));
                    n += 1;
                    continue;
                }
                Some(Entry::Run(run)) if whole(run.len()) => {
                    let k = run.len();
                    if let Some(Entry::Run(run)) = self.entries.pop_front() {
                        let emptied = std::mem::replace(&mut out.run, Vec::from(run));
                        self.recycle(VecDeque::from(emptied));
                    }
                    k
                }
                Some(Entry::Run(run)) => {
                    let k = run.len().min(room);
                    out.run.extend(run.drain(..k));
                    if run.is_empty() {
                        self.retire_front();
                    }
                    k
                }
                // The open run: a long one leaves as its buffer, and the
                // buffer `out` held stays open in its place.
                None if whole(self.tail.len()) => {
                    let k = self.tail.len();
                    let emptied = VecDeque::from(std::mem::take(&mut out.run));
                    out.run = Vec::from(std::mem::replace(&mut self.tail, emptied));
                    k
                }
                None => {
                    let k = self.tail.len().min(room);
                    out.run.extend(self.tail.drain(..k));
                    k
                }
            };
            (n, data) = (n + k, data + k);
        }
        self.len -= n;
        (n, data)
    }
}

struct Shared {
    buf: Mutex<Buffer>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A multi-producer multi-consumer FIFO of [`Message`]s connecting two
/// partitions of a query graph, stored as runs (see the module docs).
///
/// The queue is optimized for the engine's access pattern: producers push
/// a run under a short critical section, consumers either take runs
/// (`pop_runs`, used by strategy-driven schedulers), poll (`try_pop`) or
/// park (`pop_blocking`, used by operator-threaded scheduling). A lock-free
/// `len` gauge lets the memory monitor sample occupancy without touching
/// the lock, and an optional engine-wide gauge aggregates the number of
/// queued *data* elements across all queues (the "queue memory usage"
/// metric of the paper's Fig. 9).
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
        Self::new(name, None, None)
    }

    /// A bounded queue with the given backpressure policy.
    pub fn bounded(
        name: impl Into<String>,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Arc<StreamQueue> {
        Self::new(name, Some((capacity, policy)), None)
    }

    /// A queue bounded by `bound` — a capacity (at least 1) and what a push
    /// does at it — or unbounded, contributing its queued-data count to the
    /// engine-wide memory `gauge` if there is one.
    pub fn new(
        name: impl Into<String>,
        bound: Option<(usize, BackpressurePolicy)>,
        gauge: Option<Arc<AtomicUsize>>,
    ) -> Arc<StreamQueue> {
        let (capacity, policy) =
            bound.map_or((usize::MAX, BackpressurePolicy::Block), |(c, p)| (c.max(1), p));
        Arc::new(StreamQueue {
            name: name.into(),
            capacity: AtomicUsize::new(capacity),
            policy,
            shared: Shared {
                buf: Mutex::new(Buffer::default()),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            },
            len: AtomicUsize::new(0),
            head_ts: AtomicU64::new(0),
            data_len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            metrics: QueueMetrics::default(),
            memory_gauge: gauge,
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
    fn book_inserted(&self, buf: &Buffer, n: usize, data: usize) {
        if n == 0 {
            return;
        }
        if buf.len == n {
            self.publish_head(buf);
        }
        self.len.store(buf.len, Ordering::Release);
        if data > 0 {
            self.data_len.fetch_add(data, Ordering::Relaxed);
            if let Some(g) = &self.memory_gauge {
                g.fetch_add(data, Ordering::Relaxed);
            }
        }
        self.metrics.enqueued.fetch_add(n as u64, Ordering::Relaxed);
        self.metrics.note_len(buf.len);
    }

    /// Books `n` messages (`data` of them data elements) removed from the
    /// front of `buf` under its lock. `consumed` distinguishes a consumer
    /// pop (counted as dequeued) from a backpressure eviction (counted as
    /// dropped), so that `enqueued == dequeued + dropped + len` always
    /// holds (`DropNewest` sheds at the tail instead: what it refuses was
    /// never enqueued and counts as dropped only).
    fn book_removed(&self, buf: &Buffer, n: usize, data: usize, consumed: bool) {
        self.publish_head(buf);
        self.len.store(buf.len, Ordering::Release);
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
    fn publish_head(&self, buf: &Buffer) {
        if let Some(ts) = buf.head_ts() {
            self.head_ts.store(ts.0, Ordering::Relaxed);
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
    /// push actually stalls), as [`StreamQueue::push_runs`] does for a
    /// batch: network ingest attributes TCP-backpressure stall time that
    /// way without taxing the in-process hot path.
    pub fn push_with_stall(&self, msg: Message) -> Result<Duration, StreamError> {
        let mut buf = self.shared.buf.lock();
        if self.is_closed() {
            return Err(StreamError::QueueClosed);
        }
        if buf.len >= self.capacity.load(Ordering::Relaxed) {
            // Full: the policy decides, as for a batch that does not fit.
            return self.push_each(buf, std::iter::once(msg), || {});
        }
        // The common case without the batch loop, which costs a message
        // pushed alone about 15 ns.
        let data = buf.push_message(msg) as usize;
        self.book_inserted(&buf, 1, data);
        drop(buf);
        self.announce(1);
        Ok(Duration::ZERO)
    }

    /// Enqueues `batch` — its run, with each punctuation at its position —
    /// and leaves it empty, with one update of the gauges and metrics and
    /// one notification (to every waiting consumer if more than one message
    /// went in). A batch that fits goes in under one lock: a long run moves
    /// in as the buffer it is in, and `batch.run` is handed an empty one the
    /// queue had (a short run is copied onto the open run instead, see
    /// [`RUN`], and `batch.run` keeps its buffer). A batch the bound falls
    /// inside, or with a punctuation inside its run, goes in one message at
    /// a time, the backpressure policy applied to each as by
    /// [`StreamQueue::push`]; on an error ([`StreamError::QueueClosed`], or
    /// [`StreamError::QueueFull`] under [`BackpressurePolicy::Fail`]) the
    /// rejected message and those after it are discarded, as `push` discards
    /// its argument. Reports how long the producer was blocked, as
    /// [`StreamQueue::push_with_stall`] does for one message.
    ///
    /// `wake` is for a consumer that does not wait on the queue itself but
    /// sleeps until it is told (a pooled domain and its waker; pass `|| {}`
    /// for one that does wait here). It runs once the batch is in — and, on
    /// a full [`BackpressurePolicy::Block`] queue, each time before the
    /// producer waits for room, with what it has put in so far: waking only
    /// after the batch would leave the producer waiting for a consumer that
    /// nobody has told about the part already queued. The queue's lock is
    /// not held while `wake` runs.
    pub fn push_runs(
        &self,
        batch: &mut Batch,
        mut wake: impl FnMut(),
    ) -> Result<Duration, StreamError> {
        let result = self.push_parts(&mut batch.run, &batch.puncts, &mut wake);
        batch.puncts.clear();
        wake();
        result
    }

    /// Enqueues `run` with `puncts` at their positions in it (`run` is left
    /// empty): in one piece if it all fits, else one message at a time.
    fn push_parts(
        &self,
        run: &mut Vec<Element>,
        puncts: &[(usize, Punctuation)],
        before_wait: impl FnMut(),
    ) -> Result<Duration, StreamError> {
        let mut buf = self.shared.buf.lock();
        if self.is_closed() {
            run.clear();
            return Err(StreamError::QueueClosed);
        }
        let (data, n) = (run.len(), run.len() + puncts.len());
        // Punctuations in front of the run, then those behind it.
        let leading = puncts.iter().take_while(|&&(at, _)| at == 0).count();
        let inside = puncts[leading..].iter().any(|&(at, _)| at != data);
        if inside || buf.len.saturating_add(n) > self.capacity.load(Ordering::Relaxed) {
            let mut puncts = puncts.to_vec();
            return self.push_each(buf, drain_parts(run, &mut puncts), before_wait);
        }
        for &(_, p) in &puncts[..leading] {
            buf.push_punct(p);
        }
        buf.push_run(run);
        for &(_, p) in &puncts[leading..] {
            buf.push_punct(p);
        }
        self.book_inserted(&buf, n, data);
        drop(buf);
        self.announce(n);
        Ok(Duration::ZERO)
    }

    /// Enqueues `msgs` one at a time under the held lock, the backpressure
    /// policy applied to each. `before_wait` runs, with the lock released,
    /// each time the producer is about to wait for room.
    fn push_each<'a>(
        &'a self,
        mut buf: MutexGuard<'a, Buffer>,
        msgs: impl Iterator<Item = Message>,
        mut before_wait: impl FnMut(),
    ) -> Result<Duration, StreamError> {
        let mut stalled = Duration::ZERO;
        let mut result = Ok(());
        // Inserted and not yet booked: messages, data elements among them.
        let (mut n, mut data) = (0usize, 0usize);
        // Inserted and not yet announced to the consumers.
        let mut unannounced = 0usize;
        for msg in msgs {
            if buf.len >= self.capacity.load(Ordering::Relaxed) {
                match self.policy {
                    BackpressurePolicy::Block => {
                        // Hand over what is already in: the consumer this
                        // waits for may be parked waiting for exactly that.
                        self.book_inserted(&buf, n, data);
                        (n, data) = (0, 0);
                        self.announce(std::mem::take(&mut unannounced));
                        drop(buf);
                        before_wait();
                        buf = self.shared.buf.lock();
                        // Re-read the capacity each round: `lift_bound` may
                        // remove it while we wait.
                        let wait_start = std::time::Instant::now();
                        while buf.len >= self.capacity.load(Ordering::Relaxed) && !self.is_closed()
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
                        if let Some(old) = buf.pop_message() {
                            let old_data = old.as_data().is_some() as usize;
                            self.book_removed(&buf, 1, old_data, false);
                        }
                    }
                }
            }
            data += buf.push_message(msg) as usize;
            n += 1;
            unannounced += 1;
        }
        self.book_inserted(&buf, n, data);
        drop(buf);
        self.announce(unannounced);
        result.map(|()| stalled)
    }

    /// Tells the consumers that `n` messages came in: every waiting one if
    /// more than one did.
    fn announce(&self, n: usize) {
        match n {
            0 => {}
            1 => {
                self.shared.not_empty.notify_one();
            }
            _ => {
                self.shared.not_empty.notify_all();
            }
        }
    }

    /// Tells the producers that `n` slots came free: every blocked one if
    /// more than one did.
    fn release(&self, n: usize) {
        match n {
            0 => {}
            1 => {
                self.shared.not_full.notify_one();
            }
            _ => {
                self.shared.not_full.notify_all();
            }
        }
    }

    /// The timestamp of the oldest queued message, if any (see
    /// [`Message::ts`]). Used by timestamp-ordered scheduling strategies
    /// (FIFO) to pick the queue with the oldest pending work. Lock-free:
    /// every operation that moves the head publishes its timestamp before
    /// the length, so a consumer that sees its queue non-empty reads the
    /// head it will pop (a concurrent reader may lag by one operation,
    /// like [`StreamQueue::len`]).
    pub fn peek_ts(&self) -> Option<Timestamp> {
        (self.len.load(Ordering::Acquire) > 0)
            .then(|| Timestamp(self.head_ts.load(Ordering::Relaxed)))
    }

    /// Pops the oldest message under the held lock and books it.
    fn take_one(&self, buf: &mut Buffer) -> Option<Message> {
        let msg = buf.pop_message()?;
        self.book_removed(buf, 1, msg.as_data().is_some() as usize, true);
        Some(msg)
    }

    /// Removes the oldest message without blocking.
    pub fn try_pop(&self) -> Option<Message> {
        let msg = self.take_one(&mut self.shared.buf.lock())?;
        self.release(1);
        Some(msg)
    }

    /// Moves up to `max` of the oldest messages onto the end of `batch`
    /// without blocking, under one lock, with one update of the gauges and
    /// metrics and one notification (to every blocked producer if more than
    /// one slot became free). A long run that fits whole goes to `batch.run`
    /// as the buffer it is in while `batch.run` is empty (whose own buffer
    /// the queue keeps for the next run). Returns how many messages were
    /// moved.
    pub fn pop_runs(&self, max: usize, batch: &mut Batch) -> usize {
        let mut buf = self.shared.buf.lock();
        let (n, data) = buf.pop_into(max, batch);
        if n == 0 {
            return 0;
        }
        self.book_removed(&buf, n, data, true);
        drop(buf);
        self.release(n);
        n
    }

    /// Blocks until a message is available or the queue is closed and empty
    /// (in which case `None` is returned, signalling the consumer to stop).
    pub fn pop_blocking(&self) -> Option<Message> {
        let mut buf = self.shared.buf.lock();
        loop {
            if let Some(msg) = self.take_one(&mut buf) {
                drop(buf);
                self.release(1);
                return Some(msg);
            }
            if self.is_closed() {
                return None;
            }
            self.shared.not_empty.wait(&mut buf);
        }
    }

    /// Removes and returns all queued messages at once. Used when a queue is
    /// removed at runtime: the paper (§5.1.3) requires that "all remaining
    /// elements in the queue must be entirely processed before" removal, and
    /// the engine replays the drained messages through the merged partition.
    /// Drained remnants leave the queue to be replayed downstream, so they
    /// count as dequeued for metric conservation.
    pub fn drain(&self) -> Vec<Message> {
        let mut batch = Batch::default();
        self.pop_runs(usize::MAX, &mut batch);
        batch.drain().collect()
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
        assert_eq!(q.pop_runs(1, &mut Batch::default()), 1);
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
        let q = StreamQueue::new("q", None, Some(Arc::clone(&gauge)));
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
        let a = StreamQueue::new("a", None, Some(Arc::clone(&gauge)));
        let b = StreamQueue::new("b", None, Some(Arc::clone(&gauge)));
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
        let runs = buf.entries.iter().filter_map(|e| match e {
            Entry::Run(run) => Some(run.len()),
            Entry::Punct(_) => None,
        });
        let elements = runs.clone().sum::<usize>() + buf.tail.len();
        assert!(runs.clone().all(|n| n > 0), "no empty run is closed");
        assert_eq!(q.len(), buf.len);
        assert_eq!(buf.len, elements + buf.entries.len() - runs.count());
        assert_eq!(q.data_len(), elements);
        assert_eq!(gauge.load(Ordering::Relaxed), q.data_len());
        assert_eq!(q.peek_ts(), buf.head_ts());
        assert!(buf.spares.len() <= SPARES);
    }

    /// `msgs` staged as a batch.
    fn batch(msgs: impl IntoIterator<Item = Message>) -> Batch {
        let mut batch = Batch::default();
        msgs.into_iter().for_each(|m| batch.push(m));
        batch
    }

    /// `1..=n` as data messages, with an end-of-stream in the middle to
    /// tell messages from data elements.
    fn batch_with_punct(n: i64) -> Batch {
        let mut msgs: Vec<Message> = (1..=n).map(data).collect();
        msgs.insert(n as usize / 2, Message::eos());
        batch(msgs)
    }

    fn values(msgs: &[Message]) -> Vec<i64> {
        msgs.iter()
            .filter_map(|m| m.as_data())
            .map(|e| e.tuple.field(0).as_int().unwrap())
            .collect()
    }

    fn run_values(run: &[Element]) -> Vec<i64> {
        run.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect()
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
            let q = StreamQueue::new("q", Some((3, policy)), Some(Arc::clone(&gauge)));
            // 1, 2, <eos>, 3, 4 into three slots, at once ...
            let mut staged = batch_with_punct(4);
            assert_eq!(q.push_runs(&mut staged, || {}).map(drop), result, "{policy:?}");
            assert!(staged.is_empty(), "{policy:?}: the batch is consumed either way");
            // ... and one `push` at a time into a twin.
            let twin = StreamQueue::new("twin", Some((3, policy)), Some(Arc::clone(&twin_gauge)));
            let pushed = batch_with_punct(4).drain().try_for_each(|m| twin.push(m));
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
            StreamQueue::new("q", Some((2, BackpressurePolicy::Block)), Some(Arc::clone(&gauge)));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_runs(&mut batch_with_punct(4), || {}))
        };
        // What is already in is handed over before the producer waits.
        assert_eq!(values(&[q.pop_blocking().unwrap()]), [1]);
        q.lift_bound();
        assert!(producer.join().unwrap().is_ok());
        assert_conserved(&q, &gauge);
        assert_eq!(q.len(), 4);
        q.close();
        let mut more = batch([data(9)]);
        assert_eq!(q.push_runs(&mut more, || {}), Err(StreamError::QueueClosed));
        assert!(more.is_empty());
        assert_eq!(values(&q.drain()), [2, 3, 4]);
        assert_conserved(&q, &gauge);
    }

    #[test]
    fn push_batch_blocked_mid_batch_fails_on_close() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let q = StreamQueue::new("q", Some((1, BackpressurePolicy::Block)), Some(gauge.clone()));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_runs(&mut batch((1..=3).map(data)), || {}))
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
                    let mut got = Batch::default();
                    for wakes in 1.. {
                        woken.recv().unwrap();
                        q.pop_runs(usize::MAX, &mut got);
                        if got.len() == 5 {
                            return (run_values(&got.run), wakes);
                        }
                    }
                    unreachable!()
                })
            };
            let mut five = batch((1..=5).map(data));
            assert!(q.push_runs(&mut five, || wake.send(()).unwrap()).is_ok());
            assert!(five.is_empty());
            assert_eq!(consumer.join().unwrap(), (vec![1, 2, 3, 4, 5], 3));
            // A batch that fits wakes once, behind its last message.
            let wakes = std::cell::Cell::new(0);
            let mut fits = batch([data(6), data(7)]);
            q.push_runs(&mut fits, || wakes.set(wakes.get() + q.len())).unwrap();
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
            let mut popped = Batch::default();
            assert_eq!(q.pop_runs(K, &mut popped), K);
            assert_eq!(run_values(&popped.run), [0, 1, 2]);
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
        let head = |q: &StreamQueue| q.shared.buf.lock().head_ts();
        let mut popped = Batch::default();
        type Op = Box<dyn Fn(&StreamQueue, &mut Batch)>;
        let ops: Vec<(&str, Op)> = vec![
            ("push into empty", Box::new(|q, _| q.push(data(5)).unwrap())),
            ("push behind a head", Box::new(|q, _| q.push(data(6)).unwrap())),
            ("try_pop", Box::new(|q, _| drop(q.try_pop()))),
            ("push eos", Box::new(|q, _| q.push(Message::eos()).unwrap())),
            ("pop_blocking to the eos head", Box::new(|q, _| drop(q.pop_blocking()))),
            ("try_pop to empty", Box::new(|q, _| drop(q.try_pop()))),
            (
                "push_runs",
                Box::new(|q, _| assert!(q.push_runs(&mut batch_with_punct(3), || {}).is_ok())),
            ),
            ("pop_runs", Box::new(|q, out| assert_eq!(q.pop_runs(2, out), 2))),
            (
                "evicting push_runs",
                Box::new(|q, _| assert!(q.push_runs(&mut batch_with_punct(4), || {}).is_ok())),
            ),
            ("evicting push", Box::new(|q, _| q.push(data(1)).unwrap())),
            (
                "evicting push_runs of a run",
                Box::new(|q, _| assert!(q.push_runs(&mut runs(10, 40), || {}).is_ok())),
            ),
            (
                "pop_runs of a run",
                Box::new(|q, _| assert_eq!(q.pop_runs(3, &mut Batch::default()), 3)),
            ),
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

    /// `from..from + n` as a run of data elements.
    fn run(from: i64, n: i64) -> Vec<Element> {
        (from..from + n).map(|v| Element::single(v, Timestamp::from_micros(v as u64))).collect()
    }

    /// [`run`] staged as a batch.
    fn runs(from: i64, n: i64) -> Batch {
        Batch { run: run(from, n), puncts: Vec::new() }
    }

    #[test]
    fn a_run_crosses_the_queue_as_the_buffer_it_is_in() {
        let q = StreamQueue::unbounded("q");
        let mut produced = runs(0, 32);
        let buffer = produced.run.as_ptr();
        q.push_runs(&mut produced, || {}).unwrap();
        assert!(produced.is_empty());
        assert_eq!((q.len(), q.data_len(), q.peek_ts()), (32, 32, Some(Timestamp::ZERO)));
        let mut popped = Batch { run: Vec::with_capacity(32), puncts: Vec::new() };
        let handed_in = popped.run.as_ptr();
        assert_eq!(q.pop_runs(32, &mut popped), 32);
        assert_eq!(popped.run.as_ptr(), buffer, "the producer's buffer, not a copy");
        assert_eq!(popped.run, run(0, 32));
        // The buffer the consumer handed in goes to the next producer.
        let mut next = runs(32, 32);
        q.push_runs(&mut next, || {}).unwrap();
        assert_eq!(next.run.as_ptr(), handed_in);
        assert_conserved(&q, &AtomicUsize::new(q.data_len()));
    }

    #[test]
    fn short_runs_are_appended_to_the_open_run() {
        let q = StreamQueue::unbounded("q");
        let mut one = Batch { run: Vec::with_capacity(1), puncts: Vec::new() };
        let buffer = one.run.as_ptr();
        for v in 0..RUN as i64 + 1 {
            one.run.extend(run(v, 1));
            q.push_runs(&mut one, || {}).unwrap();
            assert_eq!(one.run.as_ptr(), buffer, "a short run is copied, its buffer stays");
        }
        let closed = |q: &StreamQueue| q.shared.buf.lock().entries.len();
        assert_eq!((q.len(), closed(&q)), (RUN + 1, 1), "one closed run and the open one");
        assert_conserved(&q, &AtomicUsize::new(q.data_len()));
        // Popped one by one, the open run stays in place, empty, for the
        // next element.
        while q.try_pop().is_some() {}
        q.push(data(7)).unwrap();
        assert_eq!(closed(&q), 0);
        assert_conserved(&q, &AtomicUsize::new(q.data_len()));
    }

    /// `producers` threads push `per_producer` numbered messages each,
    /// mixing `push` and `push_runs`; `consumers` threads pop them mixing
    /// `pop_runs`, `try_pop` and `pop_blocking`; the queue is closed
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
                    let mut staged = Batch::default();
                    while next < per_producer {
                        // Batches of 1..=5 alternate with single pushes.
                        let n = (next % 7).min(5).min(per_producer - next);
                        if n == 0 {
                            q.push(data(p * STRIDE + next)).unwrap();
                            next += 1;
                        } else {
                            (next..next + n).for_each(|i| staged.push(data(p * STRIDE + i)));
                            q.push_runs(&mut staged, || {}).unwrap();
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
                    let mut popped = Batch::default();
                    for round in c.. {
                        let before = got.len();
                        match round % 3 {
                            0 => {
                                q.pop_runs(1 + round % 4, &mut popped);
                                got.extend(popped.drain());
                            }
                            1 => got.extend(q.try_pop()),
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
