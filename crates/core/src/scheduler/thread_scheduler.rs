//! The level-3 thread scheduler (TS).
//!
//! Paper §4.2.2: "The third level runs multiple second-level units
//! concurrently. Concurrency is managed by a specific high-priority thread
//! termed thread scheduler (TS). … Our default TS accomplishes a preemptive
//! priority-based scheduling strategy. It determines the next thread to be
//! executed so that starvation is prevented. The distribution of the
//! available CPU resources relies on priorities that can be adapted during
//! runtime."
//!
//! This implementation multiplexes pooled domains onto a worker pool:
//!
//! * **priority-based** — the runnable domain with the highest *effective*
//!   priority runs next;
//! * **starvation-free** — effective priority = base priority + an aging
//!   bonus growing with time spent waiting, so low-priority domains
//!   eventually run;
//! * **preemptive (cooperatively)** — when a higher-priority domain becomes
//!   runnable while all workers are busy, the lowest-priority running
//!   domain's yield flag is raised; executors honor it between operator
//!   invocations, which is the same granularity at which a JVM could
//!   deschedule the original PIPES operators;
//! * **runtime-adjustable** — base priorities are atomics that can be
//!   changed while the scheduler runs;
//! * **sliced and aged only when it must be** — a dispatch runs for one
//!   `SLICE` and waiting ages when domains outnumber workers; with a
//!   worker per domain a dispatch runs until the domain is idle, and no
//!   clock is read;
//! * **a short watch before a sleep** — a worker that finds nothing to run
//!   releases the lock and spins on one word, `TsShared::epoch`, which
//!   every enqueue, domain finish and stop moves under the lock; once
//!   `IDLE_WATCH` has passed it takes the lock, looks again and parks. One
//!   worker per pool watches at a time (the others park at once), and a
//!   wake-up that finds it hands it the domain without a `notify`: the
//!   futex wake-up of a parked worker was most of a pooled hand-off's
//!   latency. A watch that ran out, or a park, ends the watching for the
//!   idle period, so an idle pool's workers are all parked `IDLE_WATCH`
//!   after its last event; a process that can run on one CPU only never
//!   watches: there the watch would hold the CPU the producer needs;
//! * **a wake-up stays with the worker that made it** — in a contended
//!   pool the first domain a dispatch wakes is queued and `epoch` moved,
//!   but no parked worker is notified: the worker takes it itself when the
//!   dispatch ends, within one `SLICE`, where a woken peer mostly found it
//!   gone already. A second domain woken in the same dispatch, and one the
//!   dispatch is about to wait for (a full `Block` queue), wake a peer as
//!   before; with a worker per domain a dispatch may last the whole stream,
//!   so nothing is held.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hmts_obs::{Counter, Obs, SchedEvent};
use parking_lot::{Condvar, Mutex};

use crate::engine::executor::{Budget, DomainExecutor, RunOutcome, Waker};
use crate::engine::sync::StopFlag;

/// Time slice per dispatch.
const SLICE: Duration = Duration::from_millis(1);

/// Priority points a queued domain gains per second of waiting (starvation
/// prevention).
const AGING_RATE: f64 = 10.0;

/// How long an idle worker spins on `TsShared::epoch` before it parks:
/// about what the park and wake-up it saves cost (19–43 µs on a 2-vCPU
/// host, `micro_handoff`'s `handoff_idle_1ms`), so a watch that ends in a
/// park burns about one wake-up's worth of CPU. The watch never yields: a
/// yielded watcher that shares its CPU with a busy-waiting producer (a
/// paced source spins out gaps under 500 µs) is handed work without a
/// wake-up, and the work waits out the producer's time slice (3–4 ms a
/// hand-off when the kernel put both threads on one CPU).
const IDLE_WATCH: Duration = Duration::from_micros(25);

/// The pool's idle worker that watches instead of parking; at most one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Watcher {
    /// Nobody watches: a wake-up notifies a parked worker.
    None,
    /// A worker watches `epoch` and takes what is queued next.
    Watching,
    /// The watcher was handed a wake-up: the next one notifies.
    Handed,
}

thread_local! {
    /// The dispatch this thread runs for a contended pool, if any.
    static DISPATCH: Cell<Dispatch> = const { Cell::new(Dispatch::NONE) };
}

#[cfg(test)]
thread_local! {
    /// The hand-ons this thread made: to the watching worker, and by
    /// `notify_one`.
    static HAND_ONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A worker's dispatch in a contended pool, as its thread sees it: what
/// the dispatch's first wake-up was held for (see `TsShared::wake`).
#[derive(Clone, Copy)]
struct Dispatch {
    /// The pool, by address; null outside a dispatch.
    pool: *const TsShared,
    /// The dispatch has made its first wake-up.
    held: bool,
    /// The domain that wake-up queued without telling another worker.
    owed: Option<usize>,
}

impl Dispatch {
    const NONE: Dispatch = Dispatch { pool: std::ptr::null(), held: false, owed: None };
}

struct TsInner {
    queued: Vec<bool>,
    running: Vec<bool>,
    finished: Vec<bool>,
    /// Wake arrived while the domain was running; requeue on Idle.
    rerun: Vec<bool>,
    /// Enqueue instants, for aging (kept only in a contended pool).
    since: Vec<Instant>,
    running_count: usize,
    watcher: Watcher,
}

impl TsInner {
    fn all_finished(&self) -> bool {
        self.finished.iter().all(|f| *f)
    }
}

/// State shared between workers, wakers, and the controlling engine.
pub struct TsShared {
    inner: Mutex<TsInner>,
    cv: Condvar,
    priorities: Vec<AtomicI64>,
    yield_flags: Vec<Arc<AtomicBool>>,
    /// Number of worker threads.
    workers: usize,
    /// Domains outnumber workers: a queued domain can wait for a worker,
    /// so a dispatch runs for one `SLICE` and waiting ages. With a worker
    /// per domain (GTS, OTS, decoupled DI) nobody waits: a dispatch runs
    /// until its domain is idle, and neither reads the clock.
    contended: bool,
    /// How long an idle worker watches `epoch` before it parks:
    /// `IDLE_WATCH`, or not at all on one CPU (see `several_cpus`).
    watch: Option<Duration>,
    /// Moved under the lock by every enqueue, domain finish and stop; the
    /// watching worker reads it without the lock and ends its watch when it
    /// moves. The lock stays the only authority: the word publishes nothing,
    /// since the watcher takes the lock before it reads any state, so its
    /// accesses are `Relaxed`.
    epoch: AtomicU64,
    obs: Obs,
    dispatches: Counter,
    preemptions: Counter,
    spin_hits: Counter,
    parks: Counter,
    held: Counter,
    /// Workers inside `watch` now, and the most there ever were.
    #[cfg(test)]
    watching: std::sync::atomic::AtomicUsize,
    #[cfg(test)]
    peak_watching: std::sync::atomic::AtomicUsize,
    /// `notify_one` calls made to hand a queued domain on.
    #[cfg(test)]
    notifies: AtomicU64,
    /// Watches that ended because `epoch` moved.
    #[cfg(test)]
    moved_watches: AtomicU64,
}

impl TsShared {
    /// Creates the shared control state for `domains` pooled domains on
    /// `workers` threads, all domains initially runnable. Created *before*
    /// the executors so that queue targets inside them can hold
    /// [`TsWaker`]s; workers are spawned afterwards with
    /// [`ThreadScheduler::spawn`]. Through `obs` every dispatch, yield,
    /// cooperative preemption, and aging-driven pick is journaled, and the
    /// `ts.dispatches`, `ts.preemptions`, `ts.spin_hits` (idle periods a
    /// watch ended with work), `ts.parks` (idle periods in which a worker
    /// parked, however many timed waits it sat out) and `ts.held`
    /// (wake-ups kept for the worker whose dispatch made them) counters
    /// are maintained.
    pub fn create_with_obs(domains: usize, workers: usize, obs: Obs) -> Arc<TsShared> {
        TsShared::create(domains, workers, obs, several_cpus().then_some(IDLE_WATCH))
    }

    fn create(domains: usize, workers: usize, obs: Obs, watch: Option<Duration>) -> Arc<TsShared> {
        let shared = Arc::new(TsShared::new(domains, workers.max(1), obs, watch));
        {
            let mut inner = shared.inner.lock();
            for d in 0..domains {
                shared.enqueue(&mut inner, d);
            }
        }
        shared
    }

    /// A waker that marks pooled domain `d` runnable.
    pub fn waker(self: &Arc<Self>, d: usize) -> Arc<dyn Waker> {
        Arc::new(TsWaker { shared: Arc::clone(self), domain: d })
    }

    fn new(domains: usize, workers: usize, obs: Obs, watch: Option<Duration>) -> TsShared {
        let dispatches = obs.counter("ts.dispatches");
        let preemptions = obs.counter("ts.preemptions");
        let spin_hits = obs.counter("ts.spin_hits");
        let parks = obs.counter("ts.parks");
        let held = obs.counter("ts.held");
        TsShared {
            inner: Mutex::new(TsInner {
                queued: vec![false; domains],
                running: vec![false; domains],
                finished: vec![false; domains],
                rerun: vec![false; domains],
                since: vec![Instant::now(); domains],
                running_count: 0,
                watcher: Watcher::None,
            }),
            cv: Condvar::new(),
            priorities: (0..domains).map(|_| AtomicI64::new(0)).collect(),
            yield_flags: (0..domains).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            workers,
            contended: domains > workers,
            watch,
            epoch: AtomicU64::new(0),
            obs,
            dispatches,
            preemptions,
            spin_hits,
            parks,
            held,
            #[cfg(test)]
            watching: Default::default(),
            #[cfg(test)]
            peak_watching: Default::default(),
            #[cfg(test)]
            notifies: Default::default(),
            #[cfg(test)]
            moved_watches: Default::default(),
        }
    }

    fn effective_priority(&self, d: usize, inner: &TsInner) -> f64 {
        let base = self.priorities[d].load(Ordering::Relaxed) as f64;
        if self.contended {
            base + inner.since[d].elapsed().as_secs_f64() * AGING_RATE
        } else {
            base
        }
    }

    /// Queues domain `d` for a worker (its waiting ages from now on) and
    /// hands it on.
    fn enqueue(&self, inner: &mut TsInner, d: usize) {
        self.queue(inner, d);
        self.hand_on(inner);
    }

    fn queue(&self, inner: &mut TsInner, d: usize) {
        inner.queued[d] = true;
        if self.contended {
            inner.since[d] = Instant::now();
        }
    }

    /// Tells a worker that a domain is queued: the watching worker if
    /// there is one (it sees `epoch` move), else a parked one.
    fn hand_on(&self, inner: &mut TsInner) {
        self.advance(inner);
        if inner.watcher == Watcher::Watching {
            inner.watcher = Watcher::Handed;
            #[cfg(test)]
            HAND_ONS.set((HAND_ONS.get().0 + 1, HAND_ONS.get().1));
        } else {
            #[cfg(test)]
            {
                self.notifies.fetch_add(1, Ordering::Relaxed);
                HAND_ONS.set((HAND_ONS.get().0, HAND_ONS.get().1 + 1));
            }
            self.cv.notify_one();
        }
    }

    /// Moves `epoch`; the guard it takes is the proof it runs under the lock.
    fn advance(&self, _inner: &TsInner) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Spins on `epoch` until it moves from `seen` or the pool's watch has
    /// run out. Returns whether the word moved.
    fn watch(&self, seen: u64) -> bool {
        let watch_for = self.watch.unwrap_or_default();
        #[cfg(test)]
        {
            let now = self.watching.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak_watching.fetch_max(now, Ordering::SeqCst);
        }
        let start = Instant::now();
        let moved = loop {
            if self.epoch.load(Ordering::Relaxed) != seen {
                break true;
            }
            if start.elapsed() >= watch_for {
                break false;
            }
            std::hint::spin_loop();
        };
        #[cfg(test)]
        {
            self.watching.fetch_sub(1, Ordering::SeqCst);
            self.moved_watches.fetch_add(u64::from(moved), Ordering::SeqCst);
        }
        moved
    }

    /// Marks domain `d` runnable (new input arrived).
    ///
    /// In a contended pool the first domain a worker's dispatch wakes is
    /// held for that worker: it is queued and `epoch` moves (a watching
    /// worker takes it as from `enqueue`), but no parked worker is
    /// notified; the worker takes it, or hands it on, when the dispatch
    /// ends, at most one `SLICE` later — no longer than any queued domain
    /// already waits. A woken peer would mostly find the domain taken by
    /// then, and pay a futex wake-up for nothing. It is queued under the
    /// lock, which its worker takes again before it parks, so no wake-up
    /// is lost.
    pub fn wake(&self, d: usize) {
        self.wake_as(d, false);
    }

    /// `wake`; with `now`, for a caller that waits for `d` next (a producer
    /// about to wait for room in `d`'s full input queue): nothing is held,
    /// and a wake-up this thread holds for `d` is handed on at once.
    fn wake_as(&self, d: usize, now: bool) {
        // An uncontended pool never holds, and leaves the thread-local be.
        let mut dispatch = if self.contended { DISPATCH.get() } else { Dispatch::NONE };
        let mine = std::ptr::eq(dispatch.pool, self);
        let mut inner = self.inner.lock();
        if inner.finished[d] {
            return;
        }
        if inner.queued[d] {
            if now && mine && dispatch.owed == Some(d) {
                DISPATCH.set(Dispatch { owed: None, ..dispatch });
                self.hand_on(&mut inner);
            }
            return;
        }
        if inner.running[d] {
            inner.rerun[d] = true;
            return;
        }
        if mine && !now && !dispatch.held {
            self.queue(&mut inner, d);
            dispatch.held = true;
            if inner.watcher == Watcher::Watching {
                self.hand_on(&mut inner);
            } else {
                self.advance(&inner);
                dispatch.owed = Some(d);
                self.held.inc();
            }
            DISPATCH.set(dispatch);
        } else {
            self.enqueue(&mut inner, d);
        }
        // Cooperative preemption: if every worker is busy and the woken
        // domain outranks the weakest running one, ask that one to yield.
        // Base priority against base priority: the woken domain has waited
        // for no time at all, and counting the nanoseconds since the line
        // above as aging would let it preempt an equal on every wake-up.
        // Aging decides among the queued in `pick_best`, and the slice
        // bounds how long an equal keeps the worker.
        if inner.running_count >= self.workers {
            let base = |d: usize| self.priorities[d].load(Ordering::Relaxed);
            let weakest =
                (0..inner.running.len()).filter(|&r| inner.running[r]).min_by_key(|&r| base(r));
            if let Some(w) = weakest {
                if base(w) < base(d) {
                    self.yield_flags[w].store(true, Ordering::Release);
                    self.preemptions.inc();
                    self.obs.emit_with(|| SchedEvent::Preempt { domain: d, victim: w });
                }
            }
        }
    }

    /// Adjusts a domain's base priority at runtime.
    pub fn set_priority(&self, d: usize, priority: i64) {
        self.priorities[d].store(priority, Ordering::Relaxed);
    }

    /// The current base priority of a domain.
    pub fn priority(&self, d: usize) -> i64 {
        self.priorities[d].load(Ordering::Relaxed)
    }

    /// Whether every domain has finished.
    pub fn is_all_finished(&self) -> bool {
        self.inner.lock().all_finished()
    }

    fn pick_best(&self, inner: &mut TsInner) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        let mut best_base: Option<i64> = None;
        for d in 0..inner.queued.len() {
            if !inner.queued[d] {
                continue;
            }
            let p = self.effective_priority(d, inner);
            if best.map_or(true, |(_, bp)| p > bp) {
                best = Some((d, p));
            }
            let base = self.priorities[d].load(Ordering::Relaxed);
            best_base = Some(best_base.map_or(base, |b: i64| b.max(base)));
        }
        let (d, eff) = best?;
        // Aging changed the decision: a domain below the top base priority
        // won on waiting time alone.
        if self.priorities[d].load(Ordering::Relaxed) < best_base.unwrap_or(i64::MIN) {
            self.obs
                .emit_with(|| SchedEvent::AgingBoost { domain: d, effective_priority: eff as i64 });
        }
        inner.queued[d] = false;
        inner.running[d] = true;
        inner.running_count += 1;
        Some(d)
    }
}

/// Whether this process may run on more than one CPU, read once. On one,
/// an idle worker's watch would only delay the producer it waits for.
fn several_cpus() -> bool {
    static SEVERAL: OnceLock<bool> = OnceLock::new();
    *SEVERAL.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// A [`Waker`] that marks one pooled domain runnable.
pub struct TsWaker {
    shared: Arc<TsShared>,
    domain: usize,
}

impl Waker for TsWaker {
    fn wake(&self) {
        self.shared.wake(self.domain);
    }

    fn wake_now(&self) {
        self.shared.wake_as(self.domain, true);
    }
}

/// The level-3 scheduler: worker threads multiplexing pooled domains.
pub struct ThreadScheduler {
    shared: Arc<TsShared>,
    stop: Arc<StopFlag>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadScheduler {
    /// Spawns the worker pool over pre-created shared state (two-phase
    /// construction; see [`TsShared::create_with_obs`]). The workers end
    /// once every domain has finished or `stop` is raised.
    pub fn spawn(
        shared: Arc<TsShared>,
        executors: Vec<Arc<Mutex<DomainExecutor>>>,
        stop: Arc<StopFlag>,
    ) -> ThreadScheduler {
        let executors = Arc::new(executors);
        let workers = (0..shared.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let executors = Arc::clone(&executors);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("hmts-ts-worker-{w}"))
                    .spawn(move || worker_loop(&shared, &executors, &stop, w))
                    .expect("spawn TS worker")
            })
            .collect();
        ThreadScheduler { shared, stop, workers }
    }

    /// Raises the stop flag the workers were spawned with, and wakes every
    /// idle one under the lock it waits with, so none sits out its timed
    /// wait (or its watch) before it sees the flag.
    pub fn stop(&self) {
        let inner = self.shared.inner.lock();
        self.stop.stop();
        self.shared.advance(&inner);
        self.shared.cv.notify_all();
    }

    /// Shared control handle (for wakers and priority adjustment).
    pub fn shared(&self) -> Arc<TsShared> {
        Arc::clone(&self.shared)
    }

    /// A waker for pooled domain `d`.
    pub fn waker(&self, d: usize) -> Arc<dyn Waker> {
        self.shared.waker(d)
    }

    /// Blocks until every domain finished (or an external stop), then joins
    /// the workers. Returns `(thread name, panic message)` for every worker
    /// that panicked instead of exiting cleanly.
    pub fn join(self) -> Vec<(String, String)> {
        let mut panicked = Vec::new();
        for w in self.workers {
            let name = w.thread().name().unwrap_or("hmts-ts-worker").to_string();
            if let Err(payload) = w.join() {
                panicked.push((name, crate::failure::panic_message(payload.as_ref())));
            }
        }
        panicked
    }
}

fn worker_loop(
    shared: &Arc<TsShared>,
    executors: &Arc<Vec<Arc<Mutex<DomainExecutor>>>>,
    stop: &Arc<StopFlag>,
    worker: usize,
) {
    let mut inner = shared.inner.lock();
    // A domain the last dispatch held for this worker and told nobody of.
    let mut owed = None;
    loop {
        let d = {
            // No watch (any more) in this idle period: park from now on.
            let mut spent = shared.watch.is_none();
            // The last watch ended with `epoch` moved (and no park since).
            let mut hit = false;
            // This idle period has parked (and been counted) once.
            let mut parked = false;
            loop {
                if stop.is_stopped() || inner.all_finished() {
                    shared.cv.notify_all();
                    return;
                }
                let picked = shared.pick_best(&mut inner);
                // The held domain is queued beyond the one this worker
                // takes: hand it on as `enqueue` would have.
                if owed.take().is_some_and(|h| inner.queued[h]) {
                    shared.hand_on(&mut inner);
                }
                if let Some(d) = picked {
                    if hit {
                        shared.spin_hits.inc();
                    }
                    break d;
                }
                if !spent && inner.watcher == Watcher::None {
                    inner.watcher = Watcher::Watching;
                    let seen = shared.epoch.load(Ordering::Relaxed);
                    drop(inner);
                    hit = shared.watch(seen);
                    spent = !hit;
                    inner = shared.inner.lock();
                    // Cleared under the lock every waker takes, before this
                    // worker looks again: a wake-up from here on notifies,
                    // and if this worker parks, it is a waiter before any
                    // waker can take the lock.
                    inner.watcher = Watcher::None;
                    continue;
                }
                // Timed wait so stop/finish conditions are re-checked even
                // if a notification is missed; `ThreadScheduler::stop`
                // notifies, so a stop is seen at once. A worker that parked
                // does not watch again in the same idle period.
                hit = false;
                spent = true;
                if !parked {
                    parked = true;
                    shared.parks.inc();
                }
                shared.cv.wait_for(&mut inner, Duration::from_millis(20));
            }
        };
        drop(inner);
        shared.dispatches.inc();
        shared.obs.emit_with(|| SchedEvent::Dispatch {
            domain: d,
            worker,
            priority: shared.priorities[d].load(Ordering::Relaxed),
        });
        let yield_flag = Arc::clone(&shared.yield_flags[d]);
        yield_flag.store(false, Ordering::Release);
        let budget = Budget {
            deadline: shared.contended.then(|| Instant::now() + SLICE),
            stop: Some(Arc::clone(stop)),
            yield_flag: Some(Arc::clone(&yield_flag)),
        };
        if shared.contended {
            DISPATCH.set(Dispatch { pool: Arc::as_ptr(shared), ..Dispatch::NONE });
        }
        let outcome = executors[d].lock().run_slice(&budget);
        if shared.contended {
            owed = DISPATCH.replace(Dispatch::NONE).owed;
        }
        shared.obs.emit_with(|| SchedEvent::Yield {
            domain: d,
            outcome: match outcome {
                RunOutcome::Finished => "finished",
                RunOutcome::Budget => "budget",
                RunOutcome::Idle => "idle",
            },
        });
        inner = shared.inner.lock();
        inner.running[d] = false;
        inner.running_count -= 1;
        let requeue = match outcome {
            RunOutcome::Finished => {
                inner.finished[d] = true;
                shared.advance(&inner);
                if inner.all_finished() {
                    shared.cv.notify_all();
                }
                false
            }
            RunOutcome::Budget => true,
            RunOutcome::Idle => std::mem::take(&mut inner.rerun[d]),
        };
        if requeue {
            // Its hand-on tells a worker of the one queued domain this
            // worker does not take, the held one or `d`.
            shared.enqueue(&mut inner, d);
            owed = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::executor::{ExecConfig, InputQueue, SlotInit, SlotState, Target};
    use crate::scheduler::strategy::StrategyKind;
    use hmts_graph::graph::NodeId;
    use hmts_operators::cost::{CostMode, Costed};
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::sink::{CallbackSink, CollectingSink, SinkHandle};
    use hmts_operators::traits::Operator;
    use hmts_streams::element::Message;
    use hmts_streams::queue::{BackpressurePolicy, StreamQueue};
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;

    /// One domain: queue -> filter(true) -> sink.
    fn simple_domain(qname: &str) -> (Arc<Mutex<DomainExecutor>>, Arc<StreamQueue>, SinkHandle) {
        let q = StreamQueue::unbounded(qname);
        let (exec, handle) = sink_domain(&q, Box::new(Filter::new("f", Expr::bool(true))));
        (exec, q, handle)
    }

    /// One domain: `q` -> `op` -> sink.
    fn sink_domain(
        q: &Arc<StreamQueue>,
        op: Box<dyn Operator>,
    ) -> (Arc<Mutex<DomainExecutor>>, SinkHandle) {
        let (sink, handle) = CollectingSink::new("sink");
        let slots = vec![
            SlotInit::new(
                SlotState::new(NodeId(1), op),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            SlotInit::new(SlotState::new(NodeId(2), Box::new(sink)), vec![]),
        ];
        (executor(q.name(), slots, q, ExecConfig::default()), handle)
    }

    /// One domain: a new queue -> `op` -> `targets`, popping runs of up to
    /// `batch`.
    fn feeder(
        name: &str,
        op: Box<dyn Operator>,
        targets: Vec<Target>,
        batch: usize,
    ) -> (Arc<Mutex<DomainExecutor>>, Arc<StreamQueue>) {
        let q = StreamQueue::unbounded(name);
        let slots = vec![SlotInit::new(SlotState::new(NodeId(1), op), targets)];
        (executor(name, slots, &q, ExecConfig { batch, ..ExecConfig::default() }), q)
    }

    fn executor(
        name: &str,
        slots: Vec<SlotInit>,
        q: &Arc<StreamQueue>,
        config: ExecConfig,
    ) -> Arc<Mutex<DomainExecutor>> {
        let inputs =
            vec![InputQueue { queue: Arc::clone(q), node: NodeId(1), port: 0, exhausted: false }];
        let exec = DomainExecutor::new(name, slots, inputs, StrategyKind::Fifo.build(None), config);
        Arc::new(Mutex::new(exec))
    }

    /// A filter that passes everything after spinning `cost` per element.
    fn costed(cost: Duration) -> Box<dyn Operator> {
        Box::new(Costed::new(Filter::new("f", Expr::bool(true)), CostMode::Busy(cost)))
    }

    /// `workers` workers over `executors`, every domain runnable; an idle
    /// worker watches, as on a host with several CPUs.
    fn pool(
        executors: Vec<Arc<Mutex<DomainExecutor>>>,
        workers: usize,
        stop: &Arc<StopFlag>,
    ) -> ThreadScheduler {
        let shared = TsShared::create(executors.len(), workers, Obs::disabled(), Some(IDLE_WATCH));
        ThreadScheduler::spawn(shared, executors, Arc::clone(stop))
    }

    fn push_n(q: &StreamQueue, n: u64) {
        for i in 0..n {
            q.push(Message::data(Tuple::single(i as i64), Timestamp::from_micros(i))).unwrap();
        }
        q.push(Message::eos()).unwrap();
    }

    #[test]
    fn ts_runs_domains_to_completion() {
        let (e1, q1, h1) = simple_domain("a");
        let (e2, q2, h2) = simple_domain("b");
        let stop = Arc::new(StopFlag::new());
        let ts = pool(vec![e1, e2], 2, &stop);
        let shared = ts.shared();
        push_n(&q1, 500);
        shared.wake(0);
        push_n(&q2, 300);
        shared.wake(1);
        ts.join();
        assert_eq!(h1.count(), 500);
        assert_eq!(h2.count(), 300);
        assert!(h1.is_done() && h2.is_done());
        assert!(shared.is_all_finished());
    }

    #[test]
    fn single_worker_multiplexes_many_domains() {
        let domains: Vec<_> = (0..5).map(|i| simple_domain(&format!("d{i}"))).collect();
        let stop = Arc::new(StopFlag::new());
        let execs = domains.iter().map(|(e, _, _)| Arc::clone(e)).collect();
        let ts = pool(execs, 1, &stop);
        let shared = ts.shared();
        for (i, (_, q, _)) in domains.iter().enumerate() {
            push_n(q, 100);
            shared.wake(i);
        }
        ts.join();
        for (_, _, h) in &domains {
            assert_eq!(h.count(), 100);
        }
    }

    #[test]
    fn wake_after_idle_resumes_domain() {
        let (e, q, h) = simple_domain("a");
        let stop = Arc::new(StopFlag::new());
        let ts = pool(vec![e], 2, &stop);
        let shared = ts.shared();
        // Let the domain go idle first.
        std::thread::sleep(Duration::from_millis(30));
        push_n(&q, 50);
        shared.wake(0);
        ts.join();
        assert_eq!(h.count(), 50);
    }

    #[test]
    fn stop_flag_terminates_workers_early() {
        let (e, q, _h) = simple_domain("a");
        let stop = Arc::new(StopFlag::new());
        // Endless input (no EOS): domain would never finish.
        for i in 0..100 {
            q.push(Message::data(Tuple::single(i), Timestamp::from_micros(i as u64))).unwrap();
        }
        let ts = pool(vec![e], 2, &stop);
        let shared = ts.shared();
        shared.wake(0);
        std::thread::sleep(Duration::from_millis(20));
        stop.stop();
        ts.join(); // must return despite the unfinished domain
        assert!(!shared.is_all_finished());
    }

    #[test]
    fn stopping_an_idle_pool_ends_its_workers_at_once() {
        // No input: the first slice ends idle and nobody wakes the domain,
        // so the worker goes into its 20 ms timed wait. Stopped 2 ms into
        // that wait, a worker nobody wakes sits out the other 18 ms; woken,
        // it ends at once. The best of three stops must be well under the
        // 18 ms, so a busy host slowing one or two of them fails nothing.
        let stop_idle_pool = || {
            let (e, _q, _h) = simple_domain("a");
            let stop = Arc::new(StopFlag::new());
            let ts = pool(vec![e], 1, &stop);
            let shared = ts.shared();
            // Dispatched, then given back: the worker is on its way to wait.
            while shared.dispatches.get() == 0 || shared.inner.lock().running_count > 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(2));
            let t0 = Instant::now();
            ts.stop();
            ts.join();
            assert!(stop.is_stopped());
            t0.elapsed()
        };
        let took = (0..3).map(|_| stop_idle_pool()).min().expect("three stops");
        assert!(took < Duration::from_millis(10), "the worker took {took:?} to see the stop");
    }

    #[test]
    fn stopping_a_watching_worker_ends_it_at_once() {
        // Stopped right after its domain went idle, the worker is inside its
        // watch; it must end without parking. The test thread sleeps
        // between looks at the watch, so it gets a CPU during it even where
        // the kernel put it beside the worker, and this pool watches for
        // 5 ms. A try counts if the worker records that a move of `epoch`
        // (the stop's, the one move after its domain's first slice) ended
        // its watch; the best of three must be under the bound of the test
        // above.
        let stop_watching_pool = || {
            let (e, _q, _h) = simple_domain("a");
            let stop = Arc::new(StopFlag::new());
            let shared = TsShared::create(1, 1, Obs::disabled(), Some(Duration::from_millis(5)));
            let ts = ThreadScheduler::spawn(Arc::clone(&shared), vec![e], stop);
            while shared.watching.load(Ordering::SeqCst) == 0 && shared.parks.get() == 0 {
                std::thread::sleep(Duration::from_micros(1));
            }
            let t0 = Instant::now();
            ts.stop();
            ts.join();
            let took = t0.elapsed();
            (shared.moved_watches.load(Ordering::SeqCst) > 0).then(|| {
                assert_eq!(shared.parks.get(), 0, "the watching worker parked");
                took
            })
        };
        let took: Vec<Duration> = (0..100).filter_map(|_| stop_watching_pool()).take(3).collect();
        let best = took.iter().min().expect("no try stopped the worker during its watch");
        assert!(*best < Duration::from_millis(10), "the worker took {best:?} to see the stop");
    }

    #[test]
    fn one_idle_worker_of_a_pool_watches_and_all_park_after() {
        // Four idle domains on four workers, woken in rounds, each round
        // inside or after the last one's watch: never more than one worker
        // watches, and once the watch has run out every worker is parked.
        let domains: Vec<_> = (0..4).map(|i| simple_domain(&format!("d{i}"))).collect();
        let stop = Arc::new(StopFlag::new());
        let ts = pool(domains.iter().map(|(e, _, _)| Arc::clone(e)).collect(), 4, &stop);
        let shared = ts.shared();
        for round in 0..20u64 {
            for (i, (_, q, _)) in domains.iter().enumerate() {
                q.push(Message::data(Tuple::single(1), Timestamp::from_micros(round))).unwrap();
                shared.wake(i);
            }
            if round % 2 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let t0 = Instant::now();
        while domains.iter().any(|(_, _, h)| h.count() < 20) {
            assert!(t0.elapsed() < Duration::from_secs(5), "the rounds never arrived");
            std::thread::yield_now();
        }
        // A watch lasts `IDLE_WATCH`; a busy host may take its CPU for longer.
        let t0 = Instant::now();
        while {
            let inner = shared.inner.lock();
            inner.running_count > 0 || inner.watcher != Watcher::None
        } || shared.watching.load(Ordering::SeqCst) > 0
        {
            assert!(t0.elapsed() < Duration::from_secs(5), "a worker still watches");
            std::thread::sleep(IDLE_WATCH);
        }
        assert_eq!(shared.peak_watching.load(Ordering::SeqCst), 1);
        assert!(shared.parks.get() >= 4, "{} parks", shared.parks.get());
        ts.stop();
        ts.join();
    }

    #[test]
    fn a_pool_for_one_cpu_parks_without_watching() {
        let (e, q, h) = simple_domain("a");
        let shared = TsShared::create(1, 1, Obs::disabled(), None);
        let stop = Arc::new(StopFlag::new());
        let ts = ThreadScheduler::spawn(Arc::clone(&shared), vec![e], Arc::clone(&stop));
        for i in 0..50u64 {
            q.push(Message::data(Tuple::single(1), Timestamp::from_micros(i))).unwrap();
            shared.wake(0);
            while h.count() <= i {
                std::thread::yield_now();
            }
        }
        ts.stop();
        ts.join();
        assert_eq!(shared.peak_watching.load(Ordering::SeqCst), 0);
        assert_eq!(shared.spin_hits.get(), 0);
    }

    #[test]
    fn an_idle_period_counts_one_park_however_long_it_lasts() {
        // The first slice ends idle, the watch runs out and the worker
        // parks, then sits out several 20 ms timed waits: one park. A
        // wake-up of the parked worker is no spin hit, and the next idle
        // period parks (and counts) once more.
        let (e, q, h) = simple_domain("a");
        let stop = Arc::new(StopFlag::new());
        let ts = pool(vec![e], 1, &stop);
        let shared = ts.shared();
        let parks_reach = |n: u64| {
            let t0 = Instant::now();
            while shared.parks.get() < n {
                assert!(t0.elapsed() < Duration::from_secs(5), "the worker never parked");
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(70));
            assert_eq!(shared.parks.get(), n);
        };
        parks_reach(1);
        q.push(Message::data(Tuple::single(1), Timestamp::from_micros(0))).unwrap();
        shared.wake(0);
        while h.count() < 1 {
            std::thread::yield_now();
        }
        parks_reach(2);
        assert_eq!(shared.spin_hits.get(), 0);
        ts.stop();
        ts.join();
    }

    #[test]
    fn two_wake_ups_during_one_watch_reach_two_workers() {
        // Two domains are queued under the lock of one look that sees the
        // watcher: it takes the first without a notify, and the second must
        // notify the parked worker. `a` (picked first) is held at its
        // executor's lock, so `b` reaches its sink only through the parked
        // worker, which would otherwise sit out its 20 ms wait (it parked
        // just before). Only tries that caught the watch count; best of
        // three.
        let two_wakes = || {
            let (ea, qa, _) = simple_domain("a");
            let (eb, qb, hb) = simple_domain("b");
            let stop = Arc::new(StopFlag::new());
            let ts = pool(vec![Arc::clone(&ea), eb], 2, &stop);
            let shared = ts.shared();
            while shared.parks.get() < 2 {
                std::thread::yield_now();
            }
            let parked = shared.parks.get();
            // A dispatch of `a` makes its worker the watcher.
            qa.push(Message::data(Tuple::single(0), Timestamp::from_micros(0))).unwrap();
            shared.wake(0);
            qb.push(Message::data(Tuple::single(1), Timestamp::from_micros(1))).unwrap();
            let held = loop {
                let mut inner = shared.inner.lock();
                if inner.watcher == Watcher::Watching {
                    let held = ea.lock();
                    shared.enqueue(&mut inner, 0);
                    shared.enqueue(&mut inner, 1);
                    break Some(held);
                }
                if shared.parks.get() > parked {
                    break None;
                }
            };
            let t0 = Instant::now();
            let took = held.as_ref().map(|_| {
                while hb.count() < 1 {
                    assert!(t0.elapsed() < Duration::from_secs(5), "`b` never ran");
                    std::thread::yield_now();
                }
                t0.elapsed()
            });
            drop(held);
            ts.stop();
            ts.join();
            took
        };
        let took: Vec<Duration> = (0..100).filter_map(|_| two_wakes()).take(3).collect();
        let best = took.iter().min().expect("no try caught a worker watching");
        assert!(*best < Duration::from_millis(10), "`b` waited {best:?}");
    }

    #[test]
    fn a_domain_finishing_during_a_watch_lets_join_return_at_once() {
        // Two domains on two workers. `b`'s one element waits at a gate;
        // `a` finishes on the other worker, which then watches, and the
        // gate lets `b` finish once it sees that watch: `join` must return
        // at once. The gate sleeps between looks, so it gets a CPU during
        // the watch even where the kernel put both workers on one, and the
        // watch lasts 5 ms, so `b`'s finish lands inside it on a slow host
        // too; the gate gives up if the watcher parks. A try counts if the
        // watching worker records that `epoch` moved (`b`'s finish is the
        // one move after `a`'s) and ended its watch; best of three.
        let finish_during_watch = || {
            let shared = TsShared::create(2, 2, Obs::disabled(), Some(Duration::from_millis(5)));
            let (ea, qa, ha) = simple_domain("a");
            let qb = StreamQueue::unbounded("b");
            let reached = Arc::new(AtomicBool::new(false));
            let gate = {
                let (shared, reached) = (Arc::clone(&shared), Arc::clone(&reached));
                CallbackSink::new("gate", move |_| {
                    let parks = shared.parks.get();
                    reached.store(true, Ordering::SeqCst);
                    while (ha.count() < 10 || shared.watching.load(Ordering::SeqCst) == 0)
                        && shared.parks.get() == parks
                    {
                        std::thread::sleep(Duration::from_micros(1));
                    }
                })
            };
            let (eb, _) = sink_domain(&qb, Box::new(gate));
            let stop = Arc::new(StopFlag::new());
            let ts = ThreadScheduler::spawn(Arc::clone(&shared), vec![ea, eb], stop);
            // Both domains' first slices end idle; both workers park.
            parks_reach(&shared, 2);
            push_n(&qb, 1);
            shared.wake(1);
            let t0 = Instant::now();
            while !reached.load(Ordering::SeqCst) {
                assert!(t0.elapsed() < Duration::from_secs(5), "`b` never reached the gate");
                std::thread::yield_now();
            }
            let moved = shared.moved_watches.load(Ordering::SeqCst);
            push_n(&qa, 10);
            let t0 = Instant::now();
            shared.wake(0);
            ts.join();
            let took = t0.elapsed();
            assert!(shared.is_all_finished());
            (shared.moved_watches.load(Ordering::SeqCst) > moved).then_some(took)
        };
        let took: Vec<Duration> = (0..100).filter_map(|_| finish_during_watch()).take(3).collect();
        let best = took.iter().min().expect("no try finished `b` during a watch");
        assert!(*best < Duration::from_millis(10), "join took {best:?}");
    }

    #[test]
    fn priorities_adjust_at_runtime() {
        let (e, _q, _h) = simple_domain("a");
        let stop = Arc::new(StopFlag::new());
        let ts = pool(vec![e], 2, &stop);
        let shared = ts.shared();
        assert_eq!(shared.priority(0), 0);
        shared.set_priority(0, 42);
        assert_eq!(shared.priority(0), 42);
        stop.stop();
        ts.join();
    }

    #[test]
    fn equal_priority_wake_does_not_preempt() {
        // Domain 0 feeds domain 1 through a queue and wakes it at every
        // flush; both have priority 0 and share one worker. The woken
        // domain must wait for the slice to end instead of taking the
        // worker back after each hand-over.
        const N: u64 = 20_000;
        let shared = TsShared::create_with_obs(2, 1, Obs::disabled());
        let (downstream, mid, sink) = simple_domain("mid");
        let (upstream, source) = feeder(
            "src",
            Box::new(Filter::new("f", Expr::bool(true))),
            vec![Target::Queue { queue: mid, wake: Some(shared.waker(1)) }],
            ExecConfig::default().batch,
        );
        push_n(&source, N);
        let stop = Arc::new(StopFlag::new());
        let ts = ThreadScheduler::spawn(Arc::clone(&shared), vec![upstream, downstream], stop);
        ts.join();
        assert_eq!(sink.count(), N);
        assert!(sink.is_done());
        assert_eq!(shared.preemptions.get(), 0);
        let dispatches = shared.dispatches.get();
        assert!(dispatches < N / 20, "{dispatches} dispatches for {N} messages");
    }

    #[test]
    fn a_worker_per_domain_runs_each_slice_until_idle() {
        // One domain on one worker: nothing can wait for the worker, so the
        // first slice takes the whole input, however many 1 ms slices its
        // drain would fill.
        const N: u64 = 50_000;
        let (e, q, h) = simple_domain("a");
        push_n(&q, N);
        let shared = TsShared::create_with_obs(1, 1, Obs::disabled());
        ThreadScheduler::spawn(Arc::clone(&shared), vec![e], Arc::new(StopFlag::new())).join();
        assert_eq!(h.count(), N);
        assert_eq!(shared.dispatches.get(), 1);
    }

    #[test]
    fn higher_priority_domain_preferred() {
        // One worker, two domains with lots of input; the high-priority one
        // should finish first (it gets the worker whenever both are
        // runnable: aging makes up 1 000 priority points only after 100 s
        // of waiting).
        let (e1, q1, h1) = simple_domain("low");
        let (e2, q2, h2) = simple_domain("high");
        let stop = Arc::new(StopFlag::new());
        push_n(&q1, 2000);
        push_n(&q2, 2000);
        let ts = pool(vec![e1, e2], 1, &stop);
        let shared = ts.shared();
        shared.set_priority(1, 1000);
        shared.wake(0);
        shared.wake(1);
        // Poll until the high-priority domain completes; the low one must
        // not be finished much before it.
        let t0 = Instant::now();
        while !h2.is_done() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(h2.is_done(), "high-priority domain completes");
        ts.join();
        assert_eq!(h1.count(), 2000);
        assert_eq!(h2.count(), 2000);
    }

    /// Waits until `n` idle periods have parked.
    fn parks_reach(shared: &TsShared, n: u64) {
        let t0 = Instant::now();
        while shared.parks.get() < n {
            assert!(t0.elapsed() < Duration::from_secs(5), "the workers never parked");
            std::thread::yield_now();
        }
    }

    /// Waits until `sink` has `n` elements.
    fn sink_reaches(sink: &SinkHandle, n: u64) {
        let t0 = Instant::now();
        while sink.count() < n {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "{} of {n} reached the sink",
                sink.count()
            );
            std::thread::yield_now();
        }
    }

    /// The worker that domain `d`'s last journaled dispatch ran on.
    fn last_worker(obs: &Obs, d: usize) -> Option<usize> {
        obs.journal_snapshot().iter().rev().find_map(|r| match r.event {
            SchedEvent::Dispatch { domain, worker, .. } if domain == d => Some(worker),
            _ => None,
        })
    }

    fn one(i: u64) -> Message {
        Message::data(Tuple::single(i as i64), Timestamp::from_micros(i))
    }

    #[test]
    fn a_chained_wake_up_runs_on_the_worker_that_made_it() {
        // Three domains on two workers: `d0` feeds `d1`, `d2` stays idle.
        // Both workers parked, one element for `d0` wakes one of them; the
        // wake-up of `d1` inside that dispatch is held, and the same worker
        // runs `d1` after it without notifying its parked peer. A peer whose
        // 20 ms timed wait runs out just then takes `d1` itself: one try in
        // five must show the hold.
        let chain = || {
            let obs = Obs::enabled();
            let shared = TsShared::create(3, 2, obs.clone(), Some(IDLE_WATCH));
            let (down, mid, sink) = simple_domain("d1");
            let to_d1 = vec![Target::Queue { queue: mid, wake: Some(shared.waker(1)) }];
            let (up, src) = feeder("d0", Box::new(Filter::new("f", Expr::bool(true))), to_d1, 32);
            let (idle, _, _) = simple_domain("d2");
            let stop = Arc::new(StopFlag::new());
            let ts = ThreadScheduler::spawn(Arc::clone(&shared), vec![up, down, idle], stop);
            parks_reach(&shared, 2);
            let notifies = shared.notifies.load(Ordering::Relaxed);
            src.push(one(0)).unwrap();
            shared.wake(0);
            sink_reaches(&sink, 1);
            let kept = shared.held.get() == 1
                && shared.notifies.load(Ordering::Relaxed) == notifies + 1
                && last_worker(&obs, 0) == last_worker(&obs, 1);
            ts.stop();
            ts.join();
            kept
        };
        assert!((0..5).any(|_| chain()), "`d1` never stayed with the worker that woke it");
    }

    #[test]
    fn a_second_wake_up_in_one_dispatch_reaches_the_parked_peer() {
        // `d0` feeds `d1` and `d2` and pops one element at a time; an inline
        // gate behind both queues passes the first element and stops the
        // second, by when the dispatch has flushed the first element's two
        // wake-ups. At each call the gate reads the dispatching worker's own
        // record: its hand-ons and what its dispatch holds. A try counts if
        // the dispatch holds a domain (its first wake-up, made with nobody
        // watching) and its second wake-up went to no watching worker; that
        // one must have notified, and the parked peer runs `d1` or `d2`
        // while `d0`'s dispatch waits at the gate. A peer that took `d0`
        // itself, a slice that ended between the two elements, or a peer
        // awake and watching leaves a try that does not count.
        let gated = || {
            let shared = TsShared::create(3, 2, Obs::disabled(), Some(IDLE_WATCH));
            let (q1, q2) = (StreamQueue::unbounded("d1"), StreamQueue::unbounded("d2"));
            let (d1, s1) = sink_domain(&q1, Box::new(Filter::new("f", Expr::bool(true))));
            let (d2, s2) = sink_domain(&q2, Box::new(Filter::new("f", Expr::bool(true))));
            let records = Arc::new(Mutex::new(Vec::new()));
            let (reached, open) =
                (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
            let gate = {
                let (records, reached, open) =
                    (Arc::clone(&records), Arc::clone(&reached), Arc::clone(&open));
                CallbackSink::new("gate", move |_| {
                    let mut records = records.lock();
                    records.push((HAND_ONS.get(), DISPATCH.get().owed));
                    if records.len() == 2 {
                        drop(records);
                        reached.store(true, Ordering::SeqCst);
                        while !open.load(Ordering::SeqCst) {
                            std::hint::spin_loop();
                        }
                    }
                })
            };
            let pass = Box::new(Filter::new("f", Expr::bool(true)));
            let targets = vec![
                Target::Queue { queue: q1, wake: Some(shared.waker(1)) },
                Target::Queue { queue: q2, wake: Some(shared.waker(2)) },
                Target::Inline { node: NodeId(2), port: 0 },
            ];
            let slots = vec![
                SlotInit::new(SlotState::new(NodeId(1), pass), targets),
                SlotInit::new(SlotState::new(NodeId(2), Box::new(gate)), vec![]),
            ];
            let src = StreamQueue::unbounded("d0");
            let d0 = executor("d0", slots, &src, ExecConfig { batch: 1, ..ExecConfig::default() });
            let stop = Arc::new(StopFlag::new());
            let ts = ThreadScheduler::spawn(Arc::clone(&shared), vec![d0, d1, d2], stop);
            parks_reach(&shared, 2);
            src.push(one(0)).unwrap();
            src.push(one(1)).unwrap();
            shared.wake(0);
            let t0 = Instant::now();
            while !reached.load(Ordering::SeqCst) {
                assert!(t0.elapsed() < Duration::from_secs(5), "`d0` never reached the gate");
                std::thread::yield_now();
            }
            let [((watched, notified), _), ((watched_after, notified_after), owed)] =
                records.lock()[..]
            else {
                unreachable!("the gate stops its second element")
            };
            let counts = owed.is_some() && watched_after == watched;
            let woke_peer = notified_after == notified + 1;
            if counts && woke_peer {
                while s1.count() + s2.count() == 0 {
                    assert!(t0.elapsed() < Duration::from_secs(5), "the peer never ran");
                    std::thread::yield_now();
                }
                assert!(shared.inner.lock().running[0], "`d0` left the gate");
            }
            open.store(true, Ordering::SeqCst);
            sink_reaches(&s1, 2);
            sink_reaches(&s2, 2);
            ts.stop();
            ts.join();
            counts.then_some(woke_peer)
        };
        let tries: Vec<bool> = (0..20).filter_map(|_| gated()).take(3).collect();
        assert!(!tries.is_empty(), "no try held a wake-up");
        assert!(tries.iter().all(|&woke| woke), "a second wake-up left the peer parked");
    }

    #[test]
    fn a_worker_per_domain_never_holds_a_wake_up() {
        // Two domains on two workers: `d0` spins 100 µs an element through
        // 1 000 of them, one dispatch of about 100 ms (no slice), and wakes
        // `d1` after each run it pushes. Nothing is held, so `d1`'s sink
        // sees output while that dispatch still runs.
        let shared = TsShared::create(2, 2, Obs::disabled(), Some(IDLE_WATCH));
        let (down, mid, sink) = simple_domain("d1");
        let to_d1 = vec![Target::Queue { queue: mid, wake: Some(shared.waker(1)) }];
        let (up, src) = feeder("d0", costed(Duration::from_micros(100)), to_d1, 32);
        let stop = Arc::new(StopFlag::new());
        let ts = ThreadScheduler::spawn(Arc::clone(&shared), vec![up, down], stop);
        parks_reach(&shared, 2);
        push_n(&src, 1000);
        shared.wake(0);
        sink_reaches(&sink, 1);
        assert!(shared.inner.lock().running[0], "`d1` ran only after `d0`'s dispatch");
        ts.join();
        assert_eq!(sink.count(), 1000);
        assert_eq!(shared.held.get(), 0);
    }

    #[test]
    fn stopping_a_pool_that_holds_a_wake_up_ends_its_workers_at_once() {
        // Three domains on two workers; `d0` spins 200 µs an element and
        // pops one at a time, so its dispatch wakes `d1` early and holds it
        // for the rest of its 1 ms slice. Stopped while `d1` is held, both
        // workers (one in the dispatch, one parked) must end within the
        // bound of the idle-pool test. Only tries that caught the hold
        // count; best of three.
        let stop_holding = || {
            let shared = TsShared::create(3, 2, Obs::disabled(), Some(IDLE_WATCH));
            let (down, mid, _sink) = simple_domain("d1");
            let to_d1 = vec![Target::Queue { queue: mid, wake: Some(shared.waker(1)) }];
            let (up, src) = feeder("d0", costed(Duration::from_micros(200)), to_d1, 1);
            let (idle, _, _) = simple_domain("d2");
            let stop = Arc::new(StopFlag::new());
            let ts = ThreadScheduler::spawn(Arc::clone(&shared), vec![up, down, idle], stop);
            parks_reach(&shared, 2);
            for i in 0..1000 {
                src.push(one(i)).unwrap();
            }
            shared.wake(0);
            let t0 = Instant::now();
            let caught = loop {
                let inner = shared.inner.lock();
                if shared.held.get() > 0 && inner.queued[1] && inner.running[0] {
                    break true;
                }
                if t0.elapsed() > Duration::from_millis(100) {
                    break false;
                }
            };
            let t0 = Instant::now();
            ts.stop();
            ts.join();
            caught.then(|| t0.elapsed())
        };
        let took: Vec<Duration> = (0..20).filter_map(|_| stop_holding()).take(3).collect();
        let best = took.iter().min().expect("no try caught a held wake-up");
        assert!(*best < Duration::from_millis(10), "the workers took {best:?} to see the stop");
    }

    #[test]
    fn a_dispatch_waiting_for_room_wakes_its_consumer_at_once() {
        // Three domains on two workers; `d0` pushes a run of 32 into a
        // `Block` queue that holds 16, which `d1` drains. The dispatch
        // waits for room, so its wake-up of `d1` must not be held for its
        // own (blocked) worker: the peer, parked just before, runs `d1` at
        // once instead of after its 20 ms timed wait. Best of three.
        let through_full_queue = || {
            let shared = TsShared::create(3, 2, Obs::disabled(), Some(IDLE_WATCH));
            let mid = StreamQueue::bounded("d1", 16, BackpressurePolicy::Block);
            let (down, sink) = sink_domain(&mid, Box::new(Filter::new("f", Expr::bool(true))));
            let to_d1 = vec![Target::Queue { queue: mid, wake: Some(shared.waker(1)) }];
            let (up, src) = feeder("d0", Box::new(Filter::new("f", Expr::bool(true))), to_d1, 32);
            let (idle, _, _) = simple_domain("d2");
            let stop = Arc::new(StopFlag::new());
            let ts = ThreadScheduler::spawn(Arc::clone(&shared), vec![up, down, idle], stop);
            parks_reach(&shared, 2);
            for i in 0..32 {
                src.push(one(i)).unwrap();
            }
            let t0 = Instant::now();
            shared.wake(0);
            sink_reaches(&sink, 32);
            let took = t0.elapsed();
            ts.stop();
            ts.join();
            took
        };
        let best = (0..3).map(|_| through_full_queue()).min().expect("three tries");
        assert!(best < Duration::from_millis(10), "32 elements took {best:?}");
    }
}
