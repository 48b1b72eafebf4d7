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
//!   changed while the scheduler runs.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmts_obs::{Counter, Obs, SchedEvent};
use parking_lot::{Condvar, Mutex};

use crate::engine::executor::{Budget, DomainExecutor, RunOutcome, Waker};
use crate::engine::sync::StopFlag;

/// Time slice per dispatch.
const SLICE: Duration = Duration::from_millis(1);

/// Thread-scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct TsConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Priority points gained per second of waiting (starvation
    /// prevention).
    pub aging_rate: f64,
}

impl Default for TsConfig {
    fn default() -> Self {
        TsConfig { workers: 2, aging_rate: 10.0 }
    }
}

struct TsInner {
    queued: Vec<bool>,
    running: Vec<bool>,
    finished: Vec<bool>,
    /// Wake arrived while the domain was running; requeue on Idle.
    rerun: Vec<bool>,
    /// Enqueue instants, for aging.
    since: Vec<Instant>,
    running_count: usize,
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
    stop: StopFlag,
    cfg: TsConfig,
    obs: Obs,
    dispatches: Counter,
    preemptions: Counter,
}

impl TsShared {
    /// Creates the shared control state for `domains` pooled domains, all
    /// initially runnable. Created *before* the executors so that queue
    /// targets inside them can hold [`TsWaker`]s; workers are spawned
    /// afterwards with [`ThreadScheduler::spawn`].
    pub fn create(domains: usize, cfg: TsConfig) -> Arc<TsShared> {
        TsShared::create_with_obs(domains, cfg, Obs::disabled())
    }

    /// [`TsShared::create`] with an observability handle: every dispatch,
    /// yield, cooperative preemption, and aging-driven pick is journaled,
    /// and `ts.dispatches` / `ts.preemptions` counters are maintained.
    pub fn create_with_obs(domains: usize, cfg: TsConfig, obs: Obs) -> Arc<TsShared> {
        let shared = Arc::new(TsShared::new(domains, cfg, obs));
        {
            let mut inner = shared.inner.lock();
            for d in 0..domains {
                inner.queued[d] = true;
                inner.since[d] = Instant::now();
            }
        }
        shared
    }

    /// A waker that marks pooled domain `d` runnable.
    pub fn waker(self: &Arc<Self>, d: usize) -> Arc<dyn Waker> {
        Arc::new(TsWaker { shared: Arc::clone(self), domain: d })
    }

    fn new(domains: usize, cfg: TsConfig, obs: Obs) -> TsShared {
        let dispatches = obs.counter("ts.dispatches");
        let preemptions = obs.counter("ts.preemptions");
        TsShared {
            inner: Mutex::new(TsInner {
                queued: vec![false; domains],
                running: vec![false; domains],
                finished: vec![false; domains],
                rerun: vec![false; domains],
                since: vec![Instant::now(); domains],
                running_count: 0,
            }),
            cv: Condvar::new(),
            priorities: (0..domains).map(|_| AtomicI64::new(0)).collect(),
            yield_flags: (0..domains).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            stop: StopFlag::new(),
            cfg,
            obs,
            dispatches,
            preemptions,
        }
    }

    fn effective_priority(&self, d: usize, inner: &TsInner) -> f64 {
        self.priorities[d].load(Ordering::Relaxed) as f64
            + inner.since[d].elapsed().as_secs_f64() * self.cfg.aging_rate
    }

    /// Marks domain `d` runnable (new input arrived).
    pub fn wake(&self, d: usize) {
        let mut inner = self.inner.lock();
        if inner.finished[d] || inner.queued[d] {
            return;
        }
        if inner.running[d] {
            inner.rerun[d] = true;
            return;
        }
        inner.queued[d] = true;
        inner.since[d] = Instant::now();
        // Cooperative preemption: if every worker is busy and the woken
        // domain outranks the weakest running one, ask that one to yield.
        // Base priority against base priority: the woken domain has waited
        // for no time at all, and counting the nanoseconds since the line
        // above as aging would let it preempt an equal on every wake-up.
        // Aging decides among the queued in `pick_best`, and the slice
        // bounds how long an equal keeps the worker.
        if inner.running_count >= self.cfg.workers {
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
        self.cv.notify_one();
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

/// A [`Waker`] that marks one pooled domain runnable.
pub struct TsWaker {
    shared: Arc<TsShared>,
    domain: usize,
}

impl Waker for TsWaker {
    fn wake(&self) {
        self.shared.wake(self.domain);
    }
}

/// The level-3 scheduler: worker threads multiplexing pooled domains.
pub struct ThreadScheduler {
    shared: Arc<TsShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadScheduler {
    /// Convenience: creates the shared state and spawns workers in one step
    /// (used when no queue target needs a waker before construction).
    pub fn start(
        executors: Vec<Arc<Mutex<DomainExecutor>>>,
        cfg: TsConfig,
        stop: Arc<StopFlag>,
    ) -> ThreadScheduler {
        let shared = TsShared::create(executors.len(), cfg);
        ThreadScheduler::spawn(shared, executors, stop)
    }

    /// Spawns the worker pool over pre-created shared state (two-phase
    /// construction; see [`TsShared::create`]).
    pub fn spawn(
        shared: Arc<TsShared>,
        executors: Vec<Arc<Mutex<DomainExecutor>>>,
        stop: Arc<StopFlag>,
    ) -> ThreadScheduler {
        let cfg = shared.cfg;
        let executors = Arc::new(executors);
        let workers = (0..cfg.workers.max(1))
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
        ThreadScheduler { shared, workers }
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
    loop {
        let d = {
            let mut inner = shared.inner.lock();
            loop {
                if stop.is_stopped() || shared.stop.is_stopped() || inner.all_finished() {
                    shared.cv.notify_all();
                    return;
                }
                if let Some(d) = shared.pick_best(&mut inner) {
                    break d;
                }
                // Timed wait so stop/finish conditions are re-checked even
                // if a notification is missed.
                shared.cv.wait_for(&mut inner, Duration::from_millis(20));
            }
        };
        shared.dispatches.inc();
        shared.obs.emit_with(|| SchedEvent::Dispatch {
            domain: d,
            worker,
            priority: shared.priorities[d].load(Ordering::Relaxed),
        });
        let yield_flag = Arc::clone(&shared.yield_flags[d]);
        yield_flag.store(false, Ordering::Release);
        let budget = Budget {
            max_messages: 0,
            deadline: Some(Instant::now() + SLICE),
            stop: Some(Arc::clone(stop)),
            yield_flag: Some(Arc::clone(&yield_flag)),
        };
        let outcome = executors[d].lock().run_slice(&budget);
        shared.obs.emit_with(|| SchedEvent::Yield {
            domain: d,
            outcome: match outcome {
                RunOutcome::Finished => "finished",
                RunOutcome::Budget => "budget",
                RunOutcome::Idle => "idle",
            },
        });
        let mut inner = shared.inner.lock();
        inner.running[d] = false;
        inner.running_count -= 1;
        match outcome {
            RunOutcome::Finished => {
                inner.finished[d] = true;
                if inner.all_finished() {
                    shared.cv.notify_all();
                }
            }
            RunOutcome::Budget => {
                inner.queued[d] = true;
                inner.since[d] = Instant::now();
                shared.cv.notify_one();
            }
            RunOutcome::Idle => {
                if inner.rerun[d] {
                    inner.rerun[d] = false;
                    inner.queued[d] = true;
                    inner.since[d] = Instant::now();
                    shared.cv.notify_one();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::executor::{ExecConfig, InputQueue, SlotInit, SlotState, Target};
    use crate::scheduler::strategy::StrategyKind;
    use hmts_graph::graph::NodeId;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::sink::{CollectingSink, SinkHandle};
    use hmts_operators::traits::{EosTracker, WatermarkTracker};
    use hmts_streams::element::Message;
    use hmts_streams::queue::StreamQueue;
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;

    /// One domain: queue -> filter(true) -> sink.
    fn simple_domain(qname: &str) -> (Arc<Mutex<DomainExecutor>>, Arc<StreamQueue>, SinkHandle) {
        let q = StreamQueue::unbounded(qname);
        let (sink, handle) = CollectingSink::new("sink");
        let slots = vec![
            SlotInit {
                node: NodeId(1),
                op: Box::new(Filter::new("f", Expr::bool(true))),
                eos: EosTracker::new(1),
                wm: WatermarkTracker::new(1),
                closed: false,
                targets: vec![Target::Inline { node: NodeId(2), port: 0 }],
                stats: None,
                latency: None,
                chaos: None,
            },
            SlotInit {
                node: NodeId(2),
                op: Box::new(sink),
                eos: EosTracker::new(1),
                wm: WatermarkTracker::new(1),
                closed: false,
                targets: vec![],
                stats: None,
                latency: None,
                chaos: None,
            },
        ];
        let inputs =
            vec![InputQueue { queue: Arc::clone(&q), node: NodeId(1), port: 0, exhausted: false }];
        let exec = DomainExecutor::new(
            qname,
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        (Arc::new(Mutex::new(exec)), q, handle)
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
        let ts = ThreadScheduler::start(
            vec![e1, e2],
            TsConfig { workers: 2, ..TsConfig::default() },
            Arc::clone(&stop),
        );
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
        let ts = ThreadScheduler::start(
            execs,
            TsConfig { workers: 1, ..TsConfig::default() },
            Arc::clone(&stop),
        );
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
        let ts = ThreadScheduler::start(vec![e], TsConfig::default(), Arc::clone(&stop));
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
        let ts = ThreadScheduler::start(vec![e], TsConfig::default(), Arc::clone(&stop));
        let shared = ts.shared();
        shared.wake(0);
        std::thread::sleep(Duration::from_millis(20));
        stop.stop();
        ts.join(); // must return despite the unfinished domain
        assert!(!shared.is_all_finished());
    }

    #[test]
    fn priorities_adjust_at_runtime() {
        let (e, _q, _h) = simple_domain("a");
        let stop = Arc::new(StopFlag::new());
        let ts = ThreadScheduler::start(vec![e], TsConfig::default(), Arc::clone(&stop));
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
        let shared = TsShared::create(2, TsConfig { workers: 1, ..TsConfig::default() });
        let (downstream, mid, sink) = simple_domain("mid");
        let source = StreamQueue::unbounded("src");
        let feed = SlotInit::new(
            SlotState::new(NodeId(1), Box::new(Filter::new("f", Expr::bool(true)))),
            vec![Target::Queue { queue: mid, wake: Some(shared.waker(1)) }],
        );
        let input =
            InputQueue { queue: Arc::clone(&source), node: NodeId(1), port: 0, exhausted: false };
        let upstream = Arc::new(Mutex::new(DomainExecutor::new(
            "src",
            vec![feed],
            vec![input],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        )));
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
    fn higher_priority_domain_preferred() {
        // One worker, two domains with lots of input; the high-priority one
        // should finish first (it gets the worker whenever both are
        // runnable).
        let (e1, q1, h1) = simple_domain("low");
        let (e2, q2, h2) = simple_domain("high");
        let stop = Arc::new(StopFlag::new());
        push_n(&q1, 2000);
        push_n(&q2, 2000);
        let ts = ThreadScheduler::start(
            vec![e1, e2],
            TsConfig { workers: 1, aging_rate: 0.0 },
            Arc::clone(&stop),
        );
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
}
