//! Aligned barrier checkpointing (Chandy–Lamport style) for running
//! queries.
//!
//! A coordinator thread periodically starts a checkpoint by publishing a
//! barrier id that every source thread polls once per emitted element
//! (one relaxed atomic load — the idle cost measured by
//! `benches/micro_obs.rs`). Each source injects
//! [`Punctuation::Barrier`](hmts_streams::element::Punctuation::Barrier)
//! into all of its targets and acknowledges its emitted-element offset;
//! the barrier then flows through queues and DI chains exactly like data
//! (never reordered past it). An operator that has received the barrier
//! on every open input port *aligns*: it snapshots its state (if it is a
//! [`StatefulOperator`](hmts_state::StatefulOperator)), acknowledges,
//! forwards the barrier downstream, and only then replays the input it
//! held back on already-barriered ports.
//!
//! When every live source and operator slot has acknowledged, the
//! coordinator persists a [`Checkpoint`] through [`CheckpointStore`]
//! (atomic temp + fsync + rename, last-K retention) and installs the
//! blobs as the restart baseline used by the supervisor. Alignment that
//! does not converge within [`CheckpointConfig::align_timeout`] (an
//! operator quarantined mid-flight, a source finishing mid-barrier, a
//! plan switch) aborts the attempt — journaled as `checkpoint-abort` —
//! and the next interval simply tries again with fresh liveness counts.
//!
//! Recovery happens at three layers (see `DESIGN.md` §11):
//!
//! 1. **operator restart** — the supervisor's `Restart` verdict restores
//!    the panicking operator from the latest completed checkpoint before
//!    retrying the failed element;
//! 2. **process restart** — [`Engine::recover`](crate::Engine::recover)
//!    rebuilds a whole query from the newest decodable checkpoint on
//!    disk;
//! 3. **client replay** — checkpoints record per-source ingest sequence
//!    numbers, so `hmts-net` resume handshakes direct producers to
//!    replay exactly the elements after the checkpoint.

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use hmts_obs::{Counter, Histogram, Obs, SchedEvent};
use hmts_state::{Checkpoint, CheckpointStore, StateBlob};

use crate::engine::source_driver::SourceShared;
use crate::engine::sync::StopFlag;

/// Checkpointing settings threaded through
/// [`EngineConfig`](crate::EngineConfig).
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding checkpoint files and the manifest.
    pub dir: PathBuf,
    /// Interval between checkpoint attempts.
    pub interval: Duration,
    /// How many completed checkpoints to retain on disk.
    pub retain: usize,
    /// How long the coordinator waits for barrier alignment before
    /// abandoning an attempt.
    pub align_timeout: Duration,
}

impl CheckpointConfig {
    /// A config writing to `dir` with the default cadence (500 ms
    /// interval, 3 retained checkpoints, 10 s alignment timeout).
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            interval: Duration::from_millis(500),
            retain: 3,
            align_timeout: Duration::from_secs(10),
        }
    }

    /// Overrides the checkpoint interval.
    pub fn with_interval(mut self, interval: Duration) -> CheckpointConfig {
        self.interval = interval;
        self
    }
}

/// One checkpoint attempt in flight: who still has to acknowledge and
/// what has been collected so far.
/// A fully aligned cut: per-source ingest offsets plus the named state
/// blobs collected from every stateful operator.
pub type AlignedCut = (Vec<(String, u64)>, Vec<(String, StateBlob)>);

struct Pending {
    id: u64,
    need_sources: usize,
    need_operators: usize,
    sources: Vec<(String, u64)>,
    /// Blobs from stateful operators (stateless slots acknowledge with
    /// no blob — they count toward alignment but carry no state).
    operators: Vec<(String, StateBlob)>,
    acked_operators: usize,
}

impl Pending {
    fn is_complete(&self) -> bool {
        self.sources.len() >= self.need_sources && self.acked_operators >= self.need_operators
    }
}

/// State shared between the coordinator, the source threads, and the
/// domain executors.
///
/// The hot-path contract: a source polls [`requested`](Self::requested)
/// once per run (one relaxed load); an executor slot not currently
/// aligning pays one `Option` branch per message. Everything else —
/// acknowledgements, blob collection, condvar signalling — happens only
/// while a checkpoint is actually in flight.
pub struct CheckpointShared {
    /// The barrier id sources should inject (0 = no checkpoint in
    /// flight). Published by [`begin`](Self::begin) and cleared again when
    /// [`wait_aligned`](Self::wait_aligned) returns, so a source thread
    /// spawned between checkpoints (plan switch, resumed producer) never
    /// sees — and re-injects — the id of a long-finished attempt.
    requested: AtomicU64,
    pending: Mutex<Option<Pending>>,
    aligned: Condvar,
    /// `(id, blobs)` of the most recent *completed* checkpoint, used by
    /// the supervisor's restart path to roll a panicked operator back to
    /// its last consistent state.
    latest: Mutex<(u64, HashMap<String, StateBlob>)>,
    /// Live (not yet closed) operator slots across all executors;
    /// maintained by the executors, read by the coordinator to size the
    /// acknowledgement quorum.
    live_slots: AtomicUsize,
    obs: Obs,
    stall_ns: Histogram,
    snapshots: Counter,
    rollbacks: Counter,
}

impl CheckpointShared {
    /// Creates the shared state; `obs` receives `operator-snapshot`
    /// journal events and the `checkpoint_align_stall_ns` histogram.
    pub fn new(obs: Obs) -> Arc<CheckpointShared> {
        Arc::new(CheckpointShared {
            requested: AtomicU64::new(0),
            pending: Mutex::new(None),
            aligned: Condvar::new(),
            latest: Mutex::new((0, HashMap::new())),
            live_slots: AtomicUsize::new(0),
            stall_ns: obs.histogram("checkpoint_align_stall_ns"),
            snapshots: obs.counter("checkpoint_operator_snapshots"),
            rollbacks: obs.counter("checkpoint_operator_rollbacks"),
            obs,
        })
    }

    /// The barrier id sources should currently inject (0 = none). This is
    /// the poll between two runs — a single relaxed atomic load.
    #[inline]
    pub fn requested(&self) -> u64 {
        self.requested.load(Ordering::Relaxed)
    }

    /// The shared live-operator-slot counter (executors decrement it as
    /// slots close; the engine sets it when wiring is built).
    pub fn live_slots(&self) -> &AtomicUsize {
        &self.live_slots
    }

    /// Starts checkpoint `id`, expecting acknowledgements from
    /// `need_sources` sources and `need_operators` operator slots, then
    /// publishes the barrier id for sources to pick up.
    pub fn begin(&self, id: u64, need_sources: usize, need_operators: usize) {
        *self.pending.lock() = Some(Pending {
            id,
            need_sources,
            need_operators,
            sources: Vec::with_capacity(need_sources),
            operators: Vec::new(),
            acked_operators: 0,
        });
        self.requested.store(id, Ordering::Release);
    }

    /// A source acknowledges barrier `id` after injecting it: `offset` is
    /// the number of elements it emitted *before* the barrier — the exact
    /// replay position for resumed ingest.
    pub fn ack_source(&self, id: u64, source: &str, offset: u64) {
        let mut pending = self.pending.lock();
        if let Some(p) = pending.as_mut() {
            if p.id == id {
                p.sources.push((source.to_string(), offset));
                if p.is_complete() {
                    self.aligned.notify_all();
                }
            }
        }
    }

    /// An operator slot acknowledges barrier `id` after aligning. `blob`
    /// is its snapshot (stateless slots pass `None`); `stall_ns` is how
    /// long input was held back waiting for the barrier on other ports.
    pub fn ack_operator(&self, id: u64, operator: &str, blob: Option<StateBlob>, stall_ns: u64) {
        self.stall_ns.record(stall_ns);
        let mut pending = self.pending.lock();
        let Some(p) = pending.as_mut() else {
            return;
        };
        if p.id != id {
            return;
        }
        p.acked_operators += 1;
        if let Some(blob) = blob {
            self.snapshots.inc();
            self.obs.emit_with(|| SchedEvent::OperatorSnapshot {
                id,
                operator: operator.to_string(),
                bytes: blob.len() as u64,
            });
            p.operators.push((operator.to_string(), blob));
        }
        if p.is_complete() {
            self.aligned.notify_all();
        }
    }

    /// Blocks until checkpoint `id` is fully acknowledged or `timeout`
    /// expires. On success returns the collected source offsets and
    /// operator blobs; on timeout the attempt is cancelled and `None` is
    /// returned. Either way the published barrier id is cleared, so
    /// sources spawned after this attempt start from a quiescent 0 and
    /// never inject a barrier for a finished (or abandoned) checkpoint.
    pub fn wait_aligned(&self, id: u64, timeout: Duration) -> Option<AlignedCut> {
        let result = self.wait_aligned_inner(id, timeout);
        self.requested.store(0, Ordering::Release);
        result
    }

    fn wait_aligned_inner(&self, id: u64, timeout: Duration) -> Option<AlignedCut> {
        let deadline = Instant::now() + timeout;
        let mut pending = self.pending.lock();
        loop {
            match pending.as_ref() {
                Some(p) if p.id == id && p.is_complete() => break,
                Some(p) if p.id == id => {}
                _ => return None,
            }
            if self.aligned.wait_until(&mut pending, deadline).timed_out() {
                let done = pending.as_ref().is_some_and(|p| p.id == id && p.is_complete());
                if !done {
                    *pending = None;
                    return None;
                }
                break;
            }
        }
        let p = pending.take()?;
        Some((p.sources, p.operators))
    }

    /// Installs the blobs of completed checkpoint `id` as the supervisor's
    /// restart baseline.
    pub fn install_latest(&self, id: u64, operators: &[(String, StateBlob)]) {
        let mut latest = self.latest.lock();
        latest.0 = id;
        latest.1.clear();
        for (name, blob) in operators {
            latest.1.insert(name.clone(), blob.clone());
        }
    }

    /// The latest completed checkpoint's blob for `operator` (with the
    /// checkpoint id it belongs to), if any.
    pub fn latest_blob(&self, operator: &str) -> Option<(u64, StateBlob)> {
        let latest = self.latest.lock();
        latest.1.get(operator).map(|b| (latest.0, b.clone()))
    }

    /// Books a supervisor rollback: a restarting `operator` was reset to
    /// its checkpoint-`id` state, discarding everything it processed since
    /// that checkpoint. Journaled so the divergence (downstream observed
    /// elements the rolled-back state no longer reflects, until the
    /// offsets past `id` are replayed) is observable, not silent.
    pub fn note_rollback(&self, operator: &str, id: u64) {
        self.rollbacks.inc();
        self.obs.emit_with(|| SchedEvent::OperatorRollback { id, operator: operator.to_string() });
    }
}

/// Which persisted checkpoint file a [`FaultPlan`](crate::failure::FaultPlan)
/// damages, and how — the fault model behind the corruption-fallback
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointFault {
    /// Flip a byte in the middle of checkpoint `id`'s file (CRC mismatch).
    Corrupt {
        /// The checkpoint id to damage.
        id: u64,
    },
    /// Cut checkpoint `id`'s file to half its length (torn write).
    Truncate {
        /// The checkpoint id to damage.
        id: u64,
    },
}

impl CheckpointFault {
    /// The checkpoint id this fault targets.
    pub fn target_id(&self) -> u64 {
        match self {
            CheckpointFault::Corrupt { id } | CheckpointFault::Truncate { id } => *id,
        }
    }

    /// Applies the fault to the file at `path` (best effort; I/O errors
    /// are reported, not panicked).
    pub fn apply(&self, path: &std::path::Path) -> std::io::Result<()> {
        match self {
            CheckpointFault::Corrupt { .. } => {
                let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
                let len = f.metadata()?.len();
                let mid = len / 2;
                let mut byte = [0u8];
                f.seek(SeekFrom::Start(mid))?;
                f.read_exact(&mut byte)?;
                byte[0] ^= 0xff;
                f.seek(SeekFrom::Start(mid))?;
                f.write_all(&byte)?;
                f.sync_all()
            }
            CheckpointFault::Truncate { .. } => {
                let f = std::fs::OpenOptions::new().write(true).open(path)?;
                let len = f.metadata()?.len();
                f.set_len(len / 2)?;
                f.sync_all()
            }
        }
    }
}

/// Everything the coordinator thread needs, captured at spawn time.
pub(crate) struct CoordinatorCtx {
    pub shared: Arc<CheckpointShared>,
    pub store: CheckpointStore,
    pub interval: Duration,
    pub align_timeout: Duration,
    pub stop: Arc<StopFlag>,
    pub obs: Obs,
    pub sources: Vec<Arc<SourceShared>>,
    pub fault: Option<CheckpointFault>,
}

/// Spawns the checkpoint coordinator thread. It triggers one checkpoint
/// per interval while at least one source is still live, waits for
/// alignment, persists through the store, and journals the outcome.
pub(crate) fn spawn_coordinator(ctx: CoordinatorCtx) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("hmts-checkpoint".into())
        .spawn(move || run_coordinator(ctx))
        .expect("spawn checkpoint coordinator thread")
}

fn run_coordinator(ctx: CoordinatorCtx) {
    let duration_ns = ctx.obs.histogram("checkpoint_duration_ns");
    let bytes_hist = ctx.obs.histogram("checkpoint_bytes");
    let completed = ctx.obs.counter("checkpoint_completed");
    let aborted = ctx.obs.counter("checkpoint_aborted");
    // Gauges the admin `/snapshot` endpoint turns into "checkpoint id/age":
    // the id of the newest durable checkpoint and when (on the obs clock,
    // in ms) it completed.
    let last_id = ctx.obs.gauge("checkpoint.last_id");
    let last_at_ms = ctx.obs.gauge("checkpoint.last_at_ms");
    // Resume numbering after the newest checkpoint already on disk so
    // recovery never reuses (and overwrites) a live id.
    let mut next_id = match ctx.store.latest_id() {
        Ok(Some(id)) => id + 1,
        _ => 1,
    };
    while !ctx.stop.is_stopped() {
        sleep_interruptible(ctx.interval, &ctx.stop);
        if ctx.stop.is_stopped() {
            return;
        }
        let need_sources = ctx.sources.iter().filter(|s| !s.is_done()).count();
        if need_sources == 0 {
            // The streams have ended; nothing left to snapshot.
            continue;
        }
        let need_operators = ctx.shared.live_slots().load(Ordering::Acquire);
        let id = next_id;
        let t0 = Instant::now();
        ctx.obs.emit_with(|| SchedEvent::CheckpointStart { id });
        ctx.shared.begin(id, need_sources, need_operators);
        let Some((sources, operators)) = ctx.shared.wait_aligned(id, ctx.align_timeout) else {
            aborted.inc();
            ctx.obs.emit_with(|| SchedEvent::CheckpointAbort {
                id,
                reason: "alignment timeout".to_string(),
            });
            next_id += 1;
            continue;
        };
        let ckpt = Checkpoint { id, operators, sources };
        match ctx.store.save(&ckpt) {
            Ok(path) => {
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let took = t0.elapsed();
                duration_ns.record_duration(took);
                bytes_hist.record(bytes);
                completed.inc();
                last_id.set(id.min(i64::MAX as u64) as i64);
                last_at_ms.set(ctx.obs.elapsed().as_millis().min(i64::MAX as u128) as i64);
                ctx.obs.emit_with(|| SchedEvent::CheckpointComplete {
                    id,
                    bytes,
                    duration_ms: took.as_millis().min(u64::MAX as u128) as u64,
                });
                ctx.shared.install_latest(ckpt.id, &ckpt.operators);
                // Chaos: damage the file *after* a successful save so the
                // fallback-to-previous-checkpoint path is exercised.
                if let Some(fault) = ctx.fault {
                    if fault.target_id() == id {
                        let _ = fault.apply(&path);
                    }
                }
            }
            Err(e) => {
                aborted.inc();
                ctx.obs.emit_with(|| SchedEvent::CheckpointAbort {
                    id,
                    reason: format!("persist failed: {e}"),
                });
            }
        }
        next_id += 1;
    }
}

/// Sleeps for `total` in short slices so a stop request is noticed
/// within ~20 ms even for long checkpoint intervals.
fn sleep_interruptible(total: Duration, stop: &StopFlag) {
    let deadline = Instant::now() + total;
    while !stop.is_stopped() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_quorum_completes_wait() {
        let ck = CheckpointShared::new(Obs::disabled());
        ck.begin(1, 1, 2);
        assert_eq!(ck.requested(), 1);
        ck.ack_source(1, "src", 42);
        ck.ack_operator(1, "agg", Some(StateBlob::new(1, vec![1, 2, 3])), 10);
        ck.ack_operator(1, "sink", None, 0);
        let (sources, operators) = ck.wait_aligned(1, Duration::from_millis(100)).expect("aligned");
        assert_eq!(sources, vec![("src".to_string(), 42)]);
        assert_eq!(operators.len(), 1);
        assert_eq!(operators[0].0, "agg");
        // The published barrier id is cleared with the attempt, so a
        // source thread spawned later starts from 0 and does not inject a
        // barrier for this finished checkpoint.
        assert_eq!(ck.requested(), 0);
    }

    #[test]
    fn wait_times_out_and_cancels_without_quorum() {
        let ck = CheckpointShared::new(Obs::disabled());
        ck.begin(1, 2, 0);
        ck.ack_source(1, "a", 1);
        assert!(ck.wait_aligned(1, Duration::from_millis(20)).is_none());
        // The attempt was cancelled: its barrier id is withdrawn and late
        // acks are ignored.
        assert_eq!(ck.requested(), 0);
        ck.ack_source(1, "b", 2);
        assert!(ck.wait_aligned(1, Duration::from_millis(20)).is_none());
    }

    #[test]
    fn stale_acks_are_ignored() {
        let ck = CheckpointShared::new(Obs::disabled());
        ck.begin(2, 1, 0);
        ck.ack_source(1, "old", 5); // barrier id from an aborted attempt
        assert!(ck.wait_aligned(2, Duration::from_millis(20)).is_none());
    }

    #[test]
    fn latest_blobs_roundtrip() {
        let ck = CheckpointShared::new(Obs::disabled());
        assert!(ck.latest_blob("agg").is_none());
        ck.install_latest(7, &[("agg".to_string(), StateBlob::new(1, vec![9]))]);
        assert_eq!(ck.latest_blob("agg"), Some((7, StateBlob::new(1, vec![9]))));
        assert!(ck.latest_blob("other").is_none());
    }

    #[test]
    fn checkpoint_fault_corrupts_and_truncates() {
        let dir = std::env::temp_dir().join(format!("hmts-ckfault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("f.bin");
        std::fs::write(&path, vec![0u8; 64]).expect("write");
        CheckpointFault::Corrupt { id: 1 }.apply(&path).expect("corrupt");
        let data = std::fs::read(&path).expect("read");
        assert_eq!(data.len(), 64);
        assert_eq!(data[32], 0xff);
        CheckpointFault::Truncate { id: 1 }.apply(&path).expect("truncate");
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), 32);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
