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
use hmts_streams::element::{Element, Message, TraceTag};
use hmts_streams::metrics::TimeSeries;
use hmts_streams::queue::StreamQueue;
use hmts_streams::time::{SharedClock, Timestamp};
use hmts_streams::tuple::Tuple;

use crate::checkpoint::CheckpointShared;
use crate::engine::executor::{Budget, DomainExecutor, Waker};
use crate::engine::sync::{PauseGate, StopFlag};
use crate::stats::SharedNodeStats;

/// Where a source delivers its elements.
pub enum SourceTarget {
    /// Into a decoupling queue (the consuming domain is woken).
    Queue {
        /// The queue.
        queue: Arc<StreamQueue>,
        /// Wakes the consuming domain.
        wake: Option<Arc<dyn Waker>>,
        /// The consuming operator's input port (informational).
        port: usize,
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
    /// Record a timeline point every `n` elements (0 = auto from the
    /// source's size hint).
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
    /// it on, the emission loop pays one relaxed atomic load per element
    /// to poll for a newly requested barrier).
    pub checkpoint: Option<Arc<CheckpointShared>>,
}

impl Default for SourceDriverConfig {
    fn default() -> Self {
        SourceDriverConfig {
            pace: true,
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
            let sample_every = if cfg.sample_every > 0 {
                cfg.sample_every
            } else {
                (source.size_hint().unwrap_or(0) / 4096).max(1)
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
            while let Some(element) = source.next_element() {
                let (due, tuple) = (element.ts, element.tuple);
                gate.checkpoint();
                if stop.is_stopped() {
                    break;
                }
                // Barrier injection point: one relaxed load per element
                // when checkpointing is on, one `Option` branch when off.
                if let Some(ck) = &cfg.checkpoint {
                    inject_barrier(ck, &mut last_barrier, &shared, &name, emitted, &stop);
                }
                if cfg.pace {
                    pace_until_or_stop(clock.as_ref(), due, Some(&stop));
                    if stop.is_stopped() {
                        break;
                    }
                }
                if let Some(s) = &stats {
                    s.observe(due, None, 1);
                }
                // A tag that arrived with the element (wire-carried, v2
                // frames) wins: the tuple's trace began in another process
                // and must stay on that id. Otherwise, deterministic 1-in-N
                // sampling keyed off the source-local sequence number:
                // untraced elements carry TraceTag::NONE and cost one
                // branch here.
                let tag = if element.trace.is_sampled() {
                    element.trace
                } else {
                    match &cfg.trace {
                        Some(st) if st.tracer.sampled(emitted) => {
                            TraceTag::new(trace_id(st.source, emitted))
                        }
                        _ => TraceTag::NONE,
                    }
                };
                deliver(&shared, due, tuple, tag, cfg.trace.as_ref(), &stop);
                if let Some(interval) = cfg.watermark_interval {
                    if due.since(last_watermark) >= interval {
                        last_watermark = due;
                        let wm = Message::Punct(hmts_streams::element::Punctuation::Watermark(due));
                        for t in shared.targets.read().iter() {
                            send(t, wm.clone(), None, &stop);
                        }
                        if let Some(g) = &cfg.watermark_lag {
                            let lag = clock.now().since(due);
                            g.set(lag.as_millis().min(i64::MAX as u128) as i64);
                        }
                    }
                }
                emitted += 1;
                shared.emitted.store(emitted, Ordering::Release);
                if emitted % sample_every == 0 {
                    shared.timeline.lock().record(clock.now(), emitted as f64);
                }
            }
            // A checkpoint requested while the source was draining its
            // last elements still gets this source's barrier (before EOS),
            // narrowing the window in which a finishing source would
            // otherwise force an alignment timeout.
            if let Some(ck) = &cfg.checkpoint {
                inject_barrier(ck, &mut last_barrier, &shared, &name, emitted, &stop);
            }
            // Final timeline point, then end-of-stream on every target.
            shared.timeline.lock().record(clock.now(), emitted as f64);
            for t in shared.targets.read().iter() {
                send(t, Message::eos(), None, &stop);
            }
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
    shared: &SourceShared,
    name: &str,
    emitted: u64,
    stop: &Arc<StopFlag>,
) {
    let id = ck.requested();
    if id == *last_barrier {
        return;
    }
    *last_barrier = id;
    if id == 0 {
        return;
    }
    let barrier = Message::Punct(hmts_streams::element::Punctuation::Barrier(id));
    for t in shared.targets.read().iter() {
        send(t, barrier.clone(), None, stop);
    }
    ck.ack_source(id, name, emitted);
}

fn deliver(
    shared: &SourceShared,
    due: Timestamp,
    tuple: Tuple,
    tag: TraceTag,
    trace: Option<&SourceTrace>,
    stop: &Arc<StopFlag>,
) {
    let targets = shared.targets.read();
    let msg = |t: Tuple| Message::Data(Element::new(t, due).with_trace(tag));
    match targets.as_slice() {
        [] => {}
        [only] => send(only, msg(tuple), trace, stop),
        many => {
            for t in many {
                send(t, msg(tuple.clone()), trace, stop);
            }
        }
    }
}

fn send(target: &SourceTarget, msg: Message, trace: Option<&SourceTrace>, stop: &Arc<StopFlag>) {
    match target {
        SourceTarget::Queue { queue, wake, .. } => {
            if let (Some(st), Message::Data(el)) = (trace, &msg) {
                if el.trace.is_sampled() {
                    st.tracer.record_site(
                        el.trace.id(),
                        HopKind::QueueEnter,
                        queue.name(),
                        NO_PARTITION,
                    );
                }
            }
            let _ = queue.push(msg);
            if let Some(w) = wake {
                w.wake();
            }
        }
        SourceTarget::Direct { exec, node, port } => {
            // The chain reaction runs in this source thread. Afterwards,
            // drain any queues internal to the domain so a multi-VO
            // source-driven domain still makes progress.
            let mut e = exec.lock();
            e.inject(*node, *port, msg);
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

    #[test]
    fn source_pushes_to_queue_and_signals_eos() {
        let q = StreamQueue::unbounded("q");
        let shared = SourceShared::new(NodeId(0), "s");
        shared.set_targets(vec![SourceTarget::Queue {
            queue: Arc::clone(&q),
            wake: None,
            port: 0,
        }]);
        let src = VecSource::counting("s", 5, 1_000_000.0);
        let gate = Arc::new(PauseGate::new());
        let stop = Arc::new(StopFlag::new());
        let h = spawn_source(
            Box::new(src),
            Arc::clone(&shared),
            shared_clock(),
            gate,
            stop,
            None,
            SourceDriverConfig { pace: false, sample_every: 1, ..SourceDriverConfig::default() },
        );
        h.join().unwrap();
        assert_eq!(shared.emitted(), 5);
        assert!(shared.is_done());
        assert_eq!(q.len(), 6); // 5 data + EOS
        assert_eq!(shared.timeline().len(), 6); // 5 samples + final
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
        shared.set_targets(vec![SourceTarget::Queue {
            queue: Arc::clone(&q),
            wake: None,
            port: 0,
        }]);
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
        let rate = s.arrivals.rate().unwrap();
        assert!((rate - 1_000_000.0).abs() < 100_000.0, "rate={rate}");
    }

    #[test]
    fn stop_flag_aborts_emission() {
        let q = StreamQueue::unbounded("q");
        let shared = SourceShared::new(NodeId(0), "s");
        shared.set_targets(vec![SourceTarget::Queue {
            queue: Arc::clone(&q),
            wake: None,
            port: 0,
        }]);
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
}
