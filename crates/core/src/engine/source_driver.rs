//! Autonomous source threads.
//!
//! Paper §2.1: sources are autonomous — each runs in its own thread, pacing
//! emission to its schedule. A source's *targets* are swappable at runtime
//! (behind an `RwLock`), which is how mode switching re-wires sources
//! without restarting their threads: into a queue (decoupled) or directly
//! into a partition executor (direct interoperability, the paper's Fig. 6
//! setting — where an expensive operator in the source's own thread makes
//! the source fall behind its offered rate).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use hmts_graph::graph::NodeId;
use hmts_obs::trace::{trace_id, NO_PARTITION};
use hmts_obs::{HopKind, Tracer};
use hmts_operators::traits::Source;
use hmts_streams::element::{Element, Message, Punctuation, TraceTag};
use hmts_streams::metrics::TimeSeries;
use hmts_streams::queue::{Batch, StreamQueue};
use hmts_streams::time::{SharedClock, Timestamp};

use crate::checkpoint::CheckpointShared;
use crate::engine::executor::{push_and_wake, Budget, DomainExecutor, ExecConfig, Waker};
use crate::engine::sync::{PauseGate, StopFlag};
use crate::stats::{Arrivals, SharedNodeStats, StatsWriter};

/// Where a source delivers its elements.
pub enum SourceTarget {
    /// Into a decoupling queue (the consuming domain is woken).
    Queue {
        /// The queue.
        queue: Arc<StreamQueue>,
        /// Wakes the consuming domain.
        wake: Option<Arc<dyn Waker>>,
    },
    /// Direct interoperability: the source thread executes the consuming
    /// domain inline (synchronized — several sources may drive one domain).
    Direct {
        /// The consuming domain's executor.
        exec: Arc<Mutex<DomainExecutor>>,
        /// The consuming operator.
        node: NodeId,
        /// Its input port.
        port: usize,
    },
}

/// State shared between a source thread and the engine.
pub struct SourceShared {
    /// The source's node id.
    pub node: NodeId,
    name: String,
    targets: RwLock<Vec<SourceTarget>>,
    timeline: Mutex<TimeSeries>,
    emitted: AtomicU64,
    done: AtomicBool,
}

impl SourceShared {
    /// Creates the shared state for one source.
    pub fn new(node: NodeId, name: &str) -> Arc<SourceShared> {
        Arc::new(SourceShared {
            node,
            name: name.to_string(),
            targets: RwLock::new(Vec::new()),
            timeline: Mutex::new(TimeSeries::new(name.to_string())),
            emitted: AtomicU64::new(0),
            done: AtomicBool::new(false),
        })
    }

    /// The source's name (checkpoint offsets are keyed by it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Seeds the emitted-element counter from a restored checkpoint's
    /// source offset, *before* the source thread starts. The driver reads
    /// this as its starting count, so offsets acked into later checkpoints
    /// stay global (client sequence numbers), not process-local — a second
    /// kill/recover cycle then replays from the right position instead of
    /// duplicating elements the restored state already incorporates.
    pub fn resume_from(&self, offset: u64) {
        self.emitted.store(offset, Ordering::Release);
    }

    /// Replaces the source's targets (mode switch; callers must have paused
    /// the source first).
    pub fn set_targets(&self, targets: Vec<SourceTarget>) {
        *self.targets.write() = targets;
    }

    /// Elements emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Acquire)
    }

    /// Whether the source has delivered everything including end-of-stream.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Snapshot of the source's `(wall time, cumulative emitted)` timeline.
    /// Under direct interoperability this curve *is* the paper's Fig. 6
    /// "input rate over time" measurement: when downstream processing stalls
    /// the source thread, the curve's slope drops below the offered rate.
    pub fn timeline(&self) -> TimeSeries {
        self.timeline.lock().clone()
    }
}

/// Tuple-tracing context of one source: the shared span recorder plus the
/// source's node id, from which sampled elements get their trace ids.
pub struct SourceTrace {
    /// The span recorder (from the engine's `Obs` handle).
    pub tracer: Arc<Tracer>,
    /// The source's node id (high bits of every trace id it assigns).
    pub source: u32,
}

/// Configuration of one source thread.
pub struct SourceDriverConfig {
    /// Sleep/spin until each element's due time (false = emit as fast as
    /// possible, for pure-throughput benchmarks).
    pub pace: bool,
    /// Most elements pulled from the source at once, and so the longest
    /// run (the engine passes its `EngineConfig::batch`).
    pub batch: usize,
    /// Record a timeline point at the end of every run in which the
    /// emitted count passed a multiple of `n` (0 = auto from the source's
    /// size hint).
    pub sample_every: u64,
    /// Emit a watermark each time stream time advances by this much (the
    /// watermark equals the last emitted element's timestamp — valid
    /// because sources emit in timestamp order).
    pub watermark_interval: Option<Duration>,
    /// Per-tuple trace sampling (`None` = tracing off; the emission loop
    /// then never touches trace state).
    pub trace: Option<SourceTrace>,
    /// Watermark-lag SLO gauge: set to `now − watermark` in milliseconds
    /// each time a watermark is emitted (`None` = not reported).
    pub watermark_lag: Option<hmts_obs::Gauge>,
    /// Barrier-checkpoint coordination (`None` = checkpointing off; with
    /// it on, the emission loop pays one relaxed atomic load per run to
    /// poll for a newly requested barrier).
    pub checkpoint: Option<Arc<CheckpointShared>>,
}

impl Default for SourceDriverConfig {
    fn default() -> Self {
        SourceDriverConfig {
            pace: true,
            batch: ExecConfig::default().batch,
            sample_every: 0,
            watermark_interval: None,
            trace: None,
            watermark_lag: None,
            checkpoint: None,
        }
    }
}

/// Sleeps (coarsely) then spins (finely) until `due` on `clock`, returning
/// early when `stop` is raised. Sleeps are capped at 20 ms per round so an
/// abort (or pause) is noticed promptly even when the emission schedule has
/// long gaps.
pub fn pace_until_or_stop(
    clock: &dyn hmts_streams::time::Clock,
    due: Timestamp,
    stop: Option<&StopFlag>,
) {
    loop {
        if stop.is_some_and(|s| s.is_stopped()) {
            return;
        }
        let now = clock.now();
        if now >= due {
            return;
        }
        let gap = due.since(now);
        if gap > Duration::from_micros(500) {
            let chunk = (gap - Duration::from_micros(200)).min(Duration::from_millis(20));
            std::thread::sleep(chunk);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Spawns the thread driving one source.
///
/// The unit of delivery is the *run*: the elements pulled from the source
/// ([`Source::next_batch`], up to `cfg.batch`) that are already due — all of
/// them when unpaced; when paced, after waiting for the first, every one
/// whose due time has passed, so a source slower than its consumers
/// delivers runs of one, each on time. A run is handed to each target in
/// one piece. The pause gate, the stop flag and the checkpoint barrier are
/// looked at between runs, and every punctuation (watermark, barrier,
/// end-of-stream) is a run of its own between two data runs, so it sits in
/// the stream exactly behind the elements counted before it.
#[allow(clippy::too_many_arguments)]
pub fn spawn_source(
    mut source: Box<dyn Source>,
    shared: Arc<SourceShared>,
    clock: SharedClock,
    gate: Arc<PauseGate>,
    stop: Arc<StopFlag>,
    stats: Option<SharedNodeStats>,
    cfg: SourceDriverConfig,
) -> JoinHandle<()> {
    gate.register();
    let name = source.name().to_string();
    std::thread::Builder::new()
        .name(format!("hmts-src-{name}"))
        .spawn(move || {
            let batch = cfg.batch.max(1);
            let sample_every = if cfg.sample_every > 0 {
                cfg.sample_every
            } else {
                (source.size_hint().unwrap_or(0) / 4096).max(1)
            };
            let mut stats = stats.map(|cell| StatsWriter::new(cell, &[true]));
            let mut out = Delivery {
                shared: &shared,
                trace: cfg.trace.as_ref(),
                stop: &stop,
                staged: Batch { run: Vec::with_capacity(batch), puncts: Vec::new() },
                copy: Batch::default(),
            };
            // Start from the restored offset (0 on a fresh run): after
            // `Engine::restore_checkpoint` seeded `resume_from`, the counts
            // acked into checkpoints remain global across process restarts.
            let mut emitted = shared.emitted();
            let mut last_watermark = Timestamp::ZERO;
            // Baseline at the *current* request id so a thread spawned
            // after a checkpoint already finished (plan-switch re-wiring)
            // does not inject a barrier for it retroactively.
            let mut last_barrier = cfg.checkpoint.as_ref().map(|ck| ck.requested()).unwrap_or(0);
            // Pulled and not yet delivered, the next one due at the back.
            let mut pulled: Vec<Element> = Vec::with_capacity(batch);
            let mut exhausted = false;
            loop {
                if pulled.is_empty() {
                    if exhausted {
                        break;
                    }
                    exhausted = !source.next_batch(batch, &mut pulled);
                    pulled.reverse();
                    continue;
                }
                gate.checkpoint();
                if stop.is_stopped() {
                    break;
                }
                // Barrier injection point: one relaxed load per run when
                // checkpointing is on, one `Option` branch when off.
                if let Some(ck) = &cfg.checkpoint {
                    inject_barrier(ck, &mut last_barrier, &mut out, &name, emitted);
                }
                let due_by = if cfg.pace {
                    let first = pulled.last().expect("checked non-empty").ts;
                    pace_until_or_stop(clock.as_ref(), first, Some(&stop));
                    if stop.is_stopped() {
                        break;
                    }
                    clock.now()
                } else {
                    Timestamp::MAX
                };
                // The run ends early behind an element that a watermark
                // has to follow.
                let mut watermark = None;
                while pulled.last().is_some_and(|el| el.ts <= due_by) {
                    let mut el = pulled.pop().expect("just looked at it");
                    let due = el.ts;
                    // A tag that arrived with the element (wire-carried, v2
                    // frames) wins: the tuple's trace began in another
                    // process and must stay on that id. Otherwise,
                    // deterministic 1-in-N sampling keyed off the
                    // source-local sequence number: untraced elements carry
                    // TraceTag::NONE and cost one branch here.
                    if let (false, Some(st)) = (el.trace.is_sampled(), &cfg.trace) {
                        let seq = emitted + out.staged.run.len() as u64;
                        if st.tracer.sampled(seq) {
                            el.trace = TraceTag::new(trace_id(st.source, seq));
                        }
                    }
                    out.staged.run.push(el);
                    if cfg.watermark_interval.is_some_and(|i| due.since(last_watermark) >= i) {
                        watermark = Some(due);
                        break;
                    }
                }
                // The run is booked as it is delivered: in one step, each
                // element one arrival and one output.
                if let (Some(s), Some(run)) = (&mut stats, Arrivals::of(0, &out.staged.run)) {
                    s.observe_run(run, None, 0, run.len as u64);
                }
                let before = emitted;
                emitted += out.staged.run.len() as u64;
                out.deliver();
                shared.emitted.store(emitted, Ordering::Release);
                if let Some(wm) = watermark {
                    last_watermark = wm;
                    out.punctuate(Punctuation::Watermark(wm));
                    if let Some(g) = &cfg.watermark_lag {
                        let lag = clock.now().since(wm);
                        g.set(lag.as_millis().min(i64::MAX as u128) as i64);
                    }
                }
                // At most one point per run, at its end: the curve's points
                // are `(now, delivered by now)`, never interpolated.
                if emitted / sample_every != before / sample_every {
                    shared.timeline.lock().record(clock.now(), emitted as f64);
                }
            }
            // A checkpoint requested while the source was draining its
            // last elements still gets this source's barrier (before EOS),
            // narrowing the window in which a finishing source would
            // otherwise force an alignment timeout.
            if let Some(ck) = &cfg.checkpoint {
                inject_barrier(ck, &mut last_barrier, &mut out, &name, emitted);
            }
            // Final timeline point, then end-of-stream on every target.
            shared.timeline.lock().record(clock.now(), emitted as f64);
            out.punctuate(Punctuation::EndOfStream);
            shared.done.store(true, Ordering::Release);
            gate.deregister();
        })
        .expect("spawn source thread")
}

/// If the coordinator published a new barrier id, injects the barrier
/// into every target and acknowledges with this source's emitted-element
/// count — the replay offset recorded in the checkpoint.
fn inject_barrier(
    ck: &Arc<CheckpointShared>,
    last_barrier: &mut u64,
    out: &mut Delivery<'_>,
    name: &str,
    emitted: u64,
) {
    let id = ck.requested();
    if id == *last_barrier {
        return;
    }
    *last_barrier = id;
    if id == 0 {
        return;
    }
    out.punctuate(Punctuation::Barrier(id));
    ck.ack_source(id, name, emitted);
}

/// The one way anything leaves a source thread: a run of elements — or one
/// punctuation — to every current target.
struct Delivery<'a> {
    shared: &'a SourceShared,
    trace: Option<&'a SourceTrace>,
    stop: &'a Arc<StopFlag>,
    /// The run being gathered, or the punctuation being sent; empty between
    /// two deliveries.
    staged: Batch,
    /// The same once more, for every target but the last (kept, so fan-out
    /// allocates nothing either).
    copy: Batch,
}

impl Delivery<'_> {
    /// Hands what is staged to every target (the targets are read once per
    /// run: a mode switch swaps them while the source is parked between
    /// two). Per target that is one [`push_and_wake`], or one executor lock
    /// and one [`DomainExecutor::inject_batch`] — or, for a punctuation,
    /// one [`DomainExecutor::inject`].
    fn deliver(&mut self) {
        let Delivery { shared, trace, stop, staged, copy } = self;
        if let Some((last, others)) = shared.targets.read().split_last() {
            for target in others {
                copy.run.extend(staged.run.iter().cloned());
                copy.puncts.extend_from_slice(&staged.puncts);
                send(target, copy, *trace, stop);
            }
            send(last, staged, *trace, stop);
        }
        staged.run.clear();
        staged.puncts.clear();
    }

    /// A punctuation is a delivery of its own, between two runs.
    fn punctuate(&mut self, p: Punctuation) {
        debug_assert!(self.staged.is_empty());
        self.staged.push(Message::Punct(p));
        self.deliver();
    }
}

/// Moves `batch` — a run, or a punctuation — into `target`, leaving it
/// empty.
fn send(
    target: &SourceTarget,
    batch: &mut Batch,
    trace: Option<&SourceTrace>,
    stop: &Arc<StopFlag>,
) {
    match target {
        SourceTarget::Queue { queue, wake } => {
            if let Some(st) = trace {
                for el in batch.run.iter().filter(|el| el.trace.is_sampled()) {
                    st.tracer.record_site(
                        el.trace.id(),
                        HopKind::QueueEnter,
                        queue.name(),
                        NO_PARTITION,
                    );
                }
            }
            push_and_wake(queue, wake.as_ref(), batch);
        }
        SourceTarget::Direct { exec, node, port } => {
            // The chain reactions run in this source thread. Afterwards,
            // drain any queues internal to the domain so a multi-VO
            // source-driven domain still makes progress.
            let mut e = exec.lock();
            if !batch.run.is_empty() {
                e.inject_batch(*node, *port, &mut batch.run);
            }
            for (_, p) in batch.puncts.drain(..) {
                e.inject(*node, *port, Message::Punct(p));
            }
            if e.has_work() {
                let budget = Budget { stop: Some(Arc::clone(stop)), ..Budget::default() };
                e.run_slice(&budget);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::executor::{ExecConfig, SlotInit, Target};
    use crate::scheduler::strategy::StrategyKind;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::sink::CollectingSink;
    use hmts_operators::traits::{EosTracker, WatermarkTracker};
    use hmts_streams::time::{ManualClock, SystemClock};
    use hmts_workload::source::VecSource;

    fn shared_clock() -> SharedClock {
        Arc::new(SystemClock::new())
    }

    fn queue_target(q: &Arc<StreamQueue>) -> SourceTarget {
        SourceTarget::Queue { queue: Arc::clone(q), wake: None }
    }

    #[test]
    fn source_pushes_to_queue_and_signals_eos() {
        // Five unpaced elements pulled `batch` at a time are runs of
        // `batch`; asked for a point per element, the timeline gets one
        // per run — at the run's end, holding the count delivered by then
        // — and the final point.
        for (batch, points) in
            [(1, vec![1, 2, 3, 4, 5, 5]), (2, vec![2, 4, 5, 5]), (32, vec![5, 5])]
        {
            let q = StreamQueue::unbounded("q");
            let shared = SourceShared::new(NodeId(0), "s");
            shared.set_targets(vec![queue_target(&q)]);
            let h = spawn_source(
                Box::new(VecSource::counting("s", 5, 1_000_000.0)),
                Arc::clone(&shared),
                shared_clock(),
                Arc::new(PauseGate::new()),
                Arc::new(StopFlag::new()),
                None,
                SourceDriverConfig {
                    pace: false,
                    batch,
                    sample_every: 1,
                    ..SourceDriverConfig::default()
                },
            );
            h.join().unwrap();
            assert_eq!(shared.emitted(), 5);
            assert!(shared.is_done());
            assert_eq!(q.len(), 6); // 5 data + EOS
            let timeline = shared.timeline();
            let counts: Vec<u64> = timeline.samples().iter().map(|&(_, n)| n as u64).collect();
            assert_eq!(counts, points, "batch {batch}");
            assert!(timeline.samples().windows(2).all(|w| w[0].0 <= w[1].0), "time runs forward");
        }
    }

    #[test]
    fn a_sparse_timeline_takes_the_runs_that_cross_a_sample_boundary() {
        // 20 elements in runs of 7, a point every 10: the runs end at 7,
        // 14, 20, and the second and third cross a multiple of ten.
        let q = StreamQueue::unbounded("q");
        let shared = SourceShared::new(NodeId(0), "s");
        shared.set_targets(vec![queue_target(&q)]);
        let h = spawn_source(
            Box::new(VecSource::counting("s", 20, 1_000_000.0)),
            Arc::clone(&shared),
            shared_clock(),
            Arc::new(PauseGate::new()),
            Arc::new(StopFlag::new()),
            None,
            SourceDriverConfig {
                pace: false,
                batch: 7,
                sample_every: 10,
                ..SourceDriverConfig::default()
            },
        );
        h.join().unwrap();
        let counts: Vec<u64> = shared.timeline().samples().iter().map(|&(_, n)| n as u64).collect();
        assert_eq!(counts, [14, 20, 20]);
    }

    #[test]
    fn source_direct_drives_executor_inline() {
        let (sink, handle) = CollectingSink::new("sink");
        let slots = vec![
            SlotInit {
                node: NodeId(1),
                op: Box::new(Filter::new("f", Expr::field(0).lt(Expr::int(3)))),
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
        let exec = Arc::new(Mutex::new(DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        )));
        let shared = SourceShared::new(NodeId(0), "s");
        shared.set_targets(vec![SourceTarget::Direct {
            exec: Arc::clone(&exec),
            node: NodeId(1),
            port: 0,
        }]);
        let gate = Arc::new(PauseGate::new());
        let stop = Arc::new(StopFlag::new());
        let h = spawn_source(
            Box::new(VecSource::counting("s", 5, 1_000_000.0)),
            Arc::clone(&shared),
            shared_clock(),
            gate,
            stop,
            None,
            SourceDriverConfig { pace: false, sample_every: 0, ..SourceDriverConfig::default() },
        );
        h.join().unwrap();
        // Values 0..5, filter keeps < 3.
        assert_eq!(handle.count(), 3);
        assert!(handle.is_done());
        assert!(exec.lock().is_finished());
    }

    #[test]
    fn pacing_respects_due_times() {
        let clock: SharedClock = Arc::new(SystemClock::new());
        let q = StreamQueue::unbounded("q");
        let shared = SourceShared::new(NodeId(0), "s");
        shared.set_targets(vec![SourceTarget::Queue { queue: Arc::clone(&q), wake: None }]);
        // 5 elements at 100 el/s → at least 50 ms.
        let src = VecSource::counting("s", 5, 100.0);
        let gate = Arc::new(PauseGate::new());
        let stop = Arc::new(StopFlag::new());
        let t0 = std::time::Instant::now();
        let h = spawn_source(
            Box::new(src),
            shared,
            clock,
            gate,
            stop,
            None,
            SourceDriverConfig::default(),
        );
        h.join().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn pace_until_handles_past_due_and_manual_clock() {
        let clock = ManualClock::new();
        clock.set(Timestamp::from_secs(10));
        // Due in the past: returns immediately.
        pace_until_or_stop(&clock, Timestamp::from_secs(5), None);
    }

    #[test]
    fn stats_record_offered_rate() {
        let shared = SourceShared::new(NodeId(0), "s");
        shared.set_targets(vec![]);
        let stats = crate::stats::shared_node_stats();
        let gate = Arc::new(PauseGate::new());
        let stop = Arc::new(StopFlag::new());
        let h = spawn_source(
            Box::new(VecSource::counting("s", 100, 1_000_000.0)),
            shared,
            shared_clock(),
            gate,
            stop,
            Some(Arc::clone(&stats)),
            SourceDriverConfig { pace: false, sample_every: 10, ..SourceDriverConfig::default() },
        );
        h.join().unwrap();
        let s = stats.snapshot();
        assert_eq!(s.processed, 100);
        let rate = s.rate().unwrap();
        assert!((rate - 1_000_000.0).abs() < 100_000.0, "rate={rate}");
    }

    #[test]
    fn stop_flag_aborts_emission() {
        let q = StreamQueue::unbounded("q");
        let shared = SourceShared::new(NodeId(0), "s");
        shared.set_targets(vec![SourceTarget::Queue { queue: Arc::clone(&q), wake: None }]);
        let gate = Arc::new(PauseGate::new());
        let stop = Arc::new(StopFlag::new());
        stop.stop();
        let h = spawn_source(
            Box::new(VecSource::counting("s", 1000, 10.0)), // would take 100 s
            Arc::clone(&shared),
            shared_clock(),
            gate,
            stop,
            None,
            SourceDriverConfig::default(),
        );
        h.join().unwrap();
        assert!(shared.is_done()); // EOS still delivered
        assert!(shared.emitted() < 1000);
    }

    /// A sink that notes, per element, how long before its due time it
    /// arrived (zero when on time or late).
    struct Early(SharedClock, Arc<Mutex<Vec<Duration>>>);

    impl hmts_operators::traits::Operator for Early {
        fn name(&self) -> &str {
            "early"
        }
        fn process(
            &mut self,
            _port: usize,
            el: &Element,
            _out: &mut hmts_operators::traits::Output,
        ) -> hmts_streams::error::Result<()> {
            self.1.lock().push(el.ts.since(self.0.now()));
            Ok(())
        }
    }

    #[test]
    fn no_element_is_delivered_before_it_is_due() {
        // 20 000 el/s pulled 32 at a time: a pull holds 1.6 ms of schedule,
        // none of which may go out ahead of its time.
        let clock = shared_clock();
        let early = Arc::new(Mutex::new(Vec::new()));
        let slots = vec![SlotInit::new(
            crate::engine::executor::SlotState::new(
                NodeId(1),
                Box::new(Early(Arc::clone(&clock), Arc::clone(&early))),
            ),
            vec![],
        )];
        let exec = Arc::new(Mutex::new(DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        )));
        let shared = SourceShared::new(NodeId(0), "s");
        shared.set_targets(vec![SourceTarget::Direct { exec, node: NodeId(1), port: 0 }]);
        let h = spawn_source(
            Box::new(VecSource::counting("s", 200, 20_000.0)),
            Arc::clone(&shared),
            clock,
            Arc::new(PauseGate::new()),
            Arc::new(StopFlag::new()),
            None,
            SourceDriverConfig::default(),
        );
        h.join().unwrap();
        let early = early.lock();
        assert_eq!(early.len(), 200);
        assert_eq!(early.iter().max(), Some(&Duration::ZERO), "earliest arrival vs. its due time");
    }

    /// Spins (yielding) until `cond` holds; panics after five seconds.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn pause_and_stop_are_honoured_between_runs_not_between_pulls() {
        // 1 000 el/s, pulled 32 at a time: a paced run is one element, so
        // the source parks — and later stops — within about a millisecond,
        // with most of what it pulled still in hand.
        let q = StreamQueue::unbounded("q");
        let shared = SourceShared::new(NodeId(0), "s");
        shared.set_targets(vec![queue_target(&q)]);
        let (gate, stop) = (Arc::new(PauseGate::new()), Arc::new(StopFlag::new()));
        let h = spawn_source(
            Box::new(VecSource::counting("s", 10_000, 1_000.0)),
            Arc::clone(&shared),
            shared_clock(),
            Arc::clone(&gate),
            Arc::clone(&stop),
            None,
            SourceDriverConfig::default(),
        );
        wait_for("the first elements", || shared.emitted() >= 3);
        gate.pause_and_wait();
        let parked_at = shared.emitted();
        assert!(parked_at < 32, "parked after {parked_at} elements, inside its first pull");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(shared.emitted(), parked_at, "nothing is delivered while parked");
        assert_eq!(q.len() as u64, parked_at);
        gate.resume();
        wait_for("delivery to go on", || shared.emitted() > parked_at);
        stop.stop();
        h.join().unwrap();
        let stopped_at = shared.emitted();
        assert!(stopped_at < 64, "stopped after {stopped_at} elements, within two pulls");
        assert_eq!(q.len() as u64, stopped_at + 1, "what was emitted, then EOS");
        assert!(shared.is_done());
    }

    /// A source that asks for checkpoint 1 once it has handed over `at`
    /// elements — a request that arrives while the driver holds a pulled
    /// batch.
    struct RequestsCheckpoint {
        inner: VecSource,
        handed: usize,
        at: usize,
        ck: Arc<CheckpointShared>,
    }

    impl Source for RequestsCheckpoint {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn next(&mut self) -> Option<(Timestamp, hmts_streams::tuple::Tuple)> {
            self.inner.next()
        }
        fn next_batch(&mut self, max: usize, out: &mut Vec<Element>) -> bool {
            let before = out.len();
            let more = self.inner.next_batch(max, out);
            let handed = self.handed + out.len() - before;
            if self.handed < self.at && handed >= self.at {
                self.ck.begin(1, 1, 0);
            }
            self.handed = handed;
            more
        }
    }

    #[test]
    fn a_barrier_sits_exactly_behind_the_offset_it_acknowledges() {
        for batch in [1, 7, 32] {
            let ck = CheckpointShared::new(hmts_obs::Obs::disabled());
            let q = StreamQueue::unbounded("q");
            let shared = SourceShared::new(NodeId(0), "s");
            shared.set_targets(vec![queue_target(&q)]);
            let source = RequestsCheckpoint {
                inner: VecSource::counting("s", 100, 1_000_000.0),
                handed: 0,
                at: 50,
                ck: Arc::clone(&ck),
            };
            let h = spawn_source(
                Box::new(source),
                Arc::clone(&shared),
                shared_clock(),
                Arc::new(PauseGate::new()),
                Arc::new(StopFlag::new()),
                None,
                SourceDriverConfig {
                    pace: false,
                    batch,
                    checkpoint: Some(Arc::clone(&ck)),
                    ..SourceDriverConfig::default()
                },
            );
            h.join().unwrap();
            let (sources, _) = ck.wait_aligned(1, Duration::ZERO).expect("the source acknowledged");
            let [(name, offset)] = sources.as_slice() else {
                panic!("one acknowledgement, got {sources:?}");
            };
            assert_eq!(name, "s");
            assert!((1..100).contains(offset), "batch {batch}: mid-stream, at {offset}");
            // In the queue: values 0..offset, the barrier, the rest, EOS.
            let msgs = q.drain();
            let barrier_at =
                msgs.iter().position(|m| matches!(m, Message::Punct(Punctuation::Barrier(1))));
            assert_eq!(barrier_at, Some(*offset as usize), "batch {batch}");
            let values: Vec<i64> = msgs
                .iter()
                .filter_map(Message::as_data)
                .map(|el| el.tuple.field(0).as_int().unwrap())
                .collect();
            assert_eq!(values, (0..100).collect::<Vec<_>>(), "batch {batch}");
            assert!(msgs.last().unwrap().is_eos());
        }
    }
}
