//! Operator failure: making it happen, and deciding what happens after it.
//!
//! * **Fault injection.** A [`FaultPlan`] names operators and the invocation
//!   at which each fails — a panic or a stall — plus at most one
//!   checkpoint-file fault. It compiles to per-operator
//!   [`OperatorFaultState`] handles that the engine hands to executor slots;
//!   a slot without one pays a single `None` branch per run. A run counts
//!   as one invocation per element, and a fault that fires inside it cuts
//!   it in front of the element it fires on. Invocation counters live in
//!   the shared state, so they **survive operator restarts and plan
//!   switches**: a fault armed for "the 5th invocation, 3 times"
//!   fires on invocations 5, 6 and 7 even if the supervisor restarts the
//!   operator or the engine re-wires it in between. That is what lets tests
//!   drive an operator into quarantine deterministically.
//! * **Supervision.** Executors catch operator panics and ask the query's
//!   [`Supervisor`] for a [`Verdict`] under its [`RestartPolicy`]: restart
//!   with capped exponential backoff and deterministic jitter while failures
//!   stay under `max_restarts` within `window`, then escalate — quarantine
//!   the operator's branch (clean EOS downstream, the query keeps running)
//!   or fail the whole query with [`EngineError::WorkerPanicked`].
//! * **Liveness.** Each executor brackets its chain reactions with a
//!   [`Heartbeat`]; a monitor thread reports an executor stuck inside one
//!   longer than the stall timeout. Heartbeats and the monitor exist only
//!   when observability is enabled, because a stall's only trace is a
//!   counter and a journal event.
//!
//! Every decision is recorded in the scheduler journal (`operator-panic` /
//! `operator-restart` / `operator-quarantine` / `heartbeat-stall`) and in the
//! `supervisor_*` metrics. The executor's side — the unwind boundary,
//! applying a verdict, the restart rollback — is `engine::executor::guard`.
//!
//! [`EngineError::WorkerPanicked`]: crate::engine::EngineError::WorkerPanicked

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hmts_obs::{Obs, SchedEvent};

use crate::checkpoint::CheckpointFault;
use crate::engine::sync::StopFlag;

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// What an injected operator fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the operator call (caught by the executor's unwind
    /// boundary, reported to the supervisor).
    Panic,
    /// Sleep for the given duration before the call, then process
    /// normally — drives heartbeat stall detection.
    Stall(Duration),
}

/// Shared per-operator fault state: which invocation fires, what happens,
/// and how many consecutive invocations it keeps firing for.
///
/// Counters are atomics shared between the executor (which may be
/// restarted or re-wired) and the test that owns the plan, so assertions
/// like "the fault fired exactly twice" are race-free.
#[derive(Debug)]
pub struct OperatorFaultState {
    at: u64,
    kind: FaultKind,
    invocations: AtomicU64,
    remaining: AtomicU64,
    fired: AtomicU64,
}

impl OperatorFaultState {
    /// Total invocations observed (across restarts and re-wirings).
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// How many times the fault actually fired.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Called by the executor before it hands the operator a run of `len`
    /// ≥ 1 elements, which stands for `len` invocations: `Ok(k)` lets the
    /// first `k` through untouched (all of them, or those in front of the
    /// one the fault fires on, which the executor cuts off to come next);
    /// `Err` is the fault, firing on the run's first element. Counts what it
    /// lets through, and one invocation for the element it fires on — a
    /// restart hands that element back, counted again.
    pub(crate) fn on_run(&self, len: usize) -> Result<usize, FaultKind> {
        let len = len as u64;
        // An operator runs on one thread at a time, so nothing counts
        // between this load and the add below.
        let first = self.invocations.load(Ordering::Relaxed) + 1;
        // Fire on consecutive invocations starting at `at` until the
        // budget runs out; a restart retries the same element, so a
        // one-shot fault panics once and the retry passes.
        let spend = |left: u64| left.checked_sub(1);
        let budget = &self.remaining;
        let fires = first >= self.at
            && budget.fetch_update(Ordering::Relaxed, Ordering::Relaxed, spend).is_ok();
        let through = match (fires, first >= self.at) {
            (true, _) => 1,
            (false, true) => len,
            (false, false) => (self.at - first).min(len),
        };
        self.invocations.fetch_add(through, Ordering::Relaxed);
        if !fires {
            return Ok(through as usize);
        }
        self.fired.fetch_add(1, Ordering::Relaxed);
        Err(self.kind)
    }
}

/// A seeded, named collection of operator faults.
///
/// ```
/// use hmts::failure::FaultPlan;
/// let plan = FaultPlan::seeded(42).panic_at("sel_cheap", 100);
/// assert!(plan.operator_state("sel_cheap").is_some());
/// assert!(plan.operator_state("proj").is_none());
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: HashMap<String, Arc<OperatorFaultState>>,
    checkpoint: Option<CheckpointFault>,
}

impl FaultPlan {
    /// An empty plan with the given seed (the seed feeds the supervisor's
    /// backoff jitter — two runs with the same plan are identical).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, faults: HashMap::new(), checkpoint: None }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn add(mut self, operator: &str, at: u64, kind: FaultKind, times: u64) -> FaultPlan {
        self.faults.insert(
            operator.to_string(),
            Arc::new(OperatorFaultState {
                at: at.max(1),
                kind,
                invocations: AtomicU64::new(0),
                remaining: AtomicU64::new(times),
                fired: AtomicU64::new(0),
            }),
        );
        self
    }

    /// Panic once, at the `nth` invocation of `operator` (1-based).
    pub fn panic_at(self, operator: &str, nth: u64) -> FaultPlan {
        self.add(operator, nth, FaultKind::Panic, 1)
    }

    /// Panic on `times` consecutive invocations starting at the `nth` —
    /// with `times > policy.max_restarts` this drives quarantine.
    pub fn panic_repeatedly(self, operator: &str, nth: u64, times: u64) -> FaultPlan {
        self.add(operator, nth, FaultKind::Panic, times)
    }

    /// Stall for `d` at the `nth` invocation of `operator`.
    pub fn stall_at(self, operator: &str, nth: u64, d: Duration) -> FaultPlan {
        self.add(operator, nth, FaultKind::Stall(d), 1)
    }

    /// Flip one byte of the checkpoint file with the given id right after
    /// the coordinator persists it — the CRC catches it on recovery and
    /// the store falls back to the previous complete checkpoint.
    pub fn corrupt_checkpoint(mut self, id: u64) -> FaultPlan {
        self.checkpoint = Some(CheckpointFault::Corrupt { id });
        self
    }

    /// Truncate the checkpoint file with the given id to half its length
    /// right after the coordinator persists it (a torn write).
    pub fn truncate_checkpoint(mut self, id: u64) -> FaultPlan {
        self.checkpoint = Some(CheckpointFault::Truncate { id });
        self
    }

    /// The checkpoint-file fault the plan carries, if any.
    pub fn checkpoint_fault(&self) -> Option<CheckpointFault> {
        self.checkpoint
    }

    /// The shared fault state for `operator`, if the plan targets it.
    pub fn operator_state(&self, operator: &str) -> Option<Arc<OperatorFaultState>> {
        self.faults.get(operator).cloned()
    }
}

// ---------------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------------

/// The jitter fraction of every restart backoff: a delay is drawn from
/// ±20 % of its nominal value.
const BACKOFF_JITTER: f64 = 0.2;

/// SplitMix64 — the small deterministic generator behind backoff jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Capped exponential backoff with deterministic jitter.
///
/// `base * 2^attempt`, capped at `cap`, then multiplied by a jitter factor
/// drawn deterministically from `(seed, attempt)` in
/// `[1 - jitter, 1 + jitter]`. Attempt numbering is 0-based.
pub fn backoff_delay(
    base: Duration,
    cap: Duration,
    attempt: u32,
    jitter: f64,
    seed: u64,
) -> Duration {
    let exp = base.as_secs_f64() * 2f64.powi(attempt.min(32) as i32);
    let capped = exp.min(cap.as_secs_f64());
    let mut s = seed ^ (u64::from(attempt).wrapping_mul(0xa076_1d64_78bd_642f));
    let r = splitmix64(&mut s) as f64 / u64::MAX as f64; // [0, 1]
    let factor = 1.0 + jitter.clamp(0.0, 1.0) * (2.0 * r - 1.0);
    Duration::from_secs_f64((capped * factor).max(0.0))
}

/// What to do once an operator exhausts its restart budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// Close the failing operator's branch with a clean EOS downstream;
    /// the rest of the query keeps running (graceful degradation).
    #[default]
    QuarantineBranch,
    /// Abort the whole query; `Engine::run` returns
    /// `EngineError::WorkerPanicked`.
    FailQuery,
}

/// Per-operator restart policy.
#[derive(Clone, Debug)]
pub struct RestartPolicy {
    /// Restarts granted before escalation: the `max_restarts + 1`-th
    /// failure within `window` quarantines (or fails) the operator.
    pub max_restarts: u32,
    /// Sliding window over which failures are counted.
    pub window: Duration,
    /// First restart's backoff delay (doubles per attempt, ±20 % jitter).
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Escalation behaviour once restarts are exhausted.
    pub degrade: DegradeMode,
}

impl Default for RestartPolicy {
    fn default() -> RestartPolicy {
        RestartPolicy {
            max_restarts: 3,
            window: Duration::from_secs(10),
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            degrade: DegradeMode::QuarantineBranch,
        }
    }
}

/// Supervision settings threaded through [`EngineConfig`].
///
/// [`EngineConfig`]: crate::engine::EngineConfig
#[derive(Clone, Debug, Default)]
pub struct SupervisionConfig {
    /// Restart/quarantine policy applied to all operators.
    pub policy: RestartPolicy,
    /// If set, and observability is enabled, a monitor thread reports
    /// executors stuck inside one chain reaction longer than this.
    pub stall_timeout: Option<Duration>,
}

/// The supervisor's decision after an operator panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Retry the failed element after sleeping `backoff`.
    Restart {
        /// 1-based restart attempt number.
        attempt: u32,
        /// Backoff to sleep before retrying.
        backoff: Duration,
    },
    /// Close the operator's branch with clean EOS; keep the query running.
    Quarantine {
        /// Failures observed within the window at escalation time.
        failures: u32,
    },
    /// Abort the whole query with a typed error.
    Fail,
}

#[derive(Default)]
struct OpRecord {
    failures: VecDeque<Instant>,
    attempts: u32,
    quarantined: bool,
}

/// Central failure bookkeeping shared by all executors of a query.
pub struct Supervisor {
    policy: RestartPolicy,
    seed: u64,
    obs: Obs,
    restarts: hmts_obs::Counter,
    panics: hmts_obs::Counter,
    stalls: hmts_obs::Counter,
    quarantined: hmts_obs::Gauge,
    ops: Mutex<HashMap<String, OpRecord>>,
}

impl Supervisor {
    /// Creates a supervisor with the given policy; `seed` makes backoff
    /// jitter deterministic, `obs` receives journal events and metrics.
    pub fn new(policy: RestartPolicy, seed: u64, obs: Obs) -> Supervisor {
        Supervisor {
            restarts: obs.counter("supervisor_restarts"),
            panics: obs.counter("supervisor_panics"),
            stalls: obs.counter("supervisor_stalls"),
            quarantined: obs.gauge("supervisor_quarantined"),
            policy,
            seed,
            obs,
            ops: Mutex::new(HashMap::new()),
        }
    }

    /// Reports a caught operator panic; returns the restart verdict.
    pub fn on_panic(&self, operator: &str, payload: &str) -> Verdict {
        self.panics.inc();
        self.obs.emit_with(|| SchedEvent::OperatorPanic {
            operator: operator.to_string(),
            payload: payload.to_string(),
        });
        let now = Instant::now();
        let mut ops = self.ops.lock();
        let rec = ops.entry(operator.to_string()).or_default();
        while let Some(front) = rec.failures.front() {
            if now.duration_since(*front) > self.policy.window {
                rec.failures.pop_front();
            } else {
                break;
            }
        }
        rec.failures.push_back(now);
        let failures = rec.failures.len() as u32;
        if failures > self.policy.max_restarts {
            rec.quarantined = true;
            let count = ops.values().filter(|r| r.quarantined).count() as i64;
            drop(ops);
            self.quarantined.set(count);
            match self.policy.degrade {
                DegradeMode::QuarantineBranch => {
                    self.obs.emit_with(|| SchedEvent::OperatorQuarantined {
                        operator: operator.to_string(),
                        failures,
                    });
                    Verdict::Quarantine { failures }
                }
                DegradeMode::FailQuery => Verdict::Fail,
            }
        } else {
            rec.attempts += 1;
            let attempt = rec.attempts;
            drop(ops);
            self.restarts.inc();
            let backoff = backoff_delay(
                self.policy.base_backoff,
                self.policy.max_backoff,
                attempt - 1,
                BACKOFF_JITTER,
                self.seed ^ fxhash(operator),
            );
            self.obs.emit_with(|| SchedEvent::OperatorRestart {
                operator: operator.to_string(),
                attempt,
                backoff_ms: backoff.as_millis().min(u64::MAX as u128) as u64,
            });
            Verdict::Restart { attempt, backoff }
        }
    }

    /// Reports a heartbeat stall in `domain` (one journal event + metric
    /// per excursion).
    pub fn on_stall(&self, domain: &str, idle: Duration) {
        self.stalls.inc();
        self.obs.emit_with(|| SchedEvent::HeartbeatStall {
            domain: domain.to_string(),
            idle_ms: idle.as_millis().min(u64::MAX as u128) as u64,
        });
    }

    /// Total restarts granted so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.get()
    }

    /// Whether `operator` is quarantined.
    pub fn is_quarantined(&self, operator: &str) -> bool {
        self.ops.lock().get(operator).map(|r| r.quarantined).unwrap_or(false)
    }

    /// Names of quarantined operators.
    pub fn quarantined_operators(&self) -> Vec<String> {
        let ops = self.ops.lock();
        let mut out: Vec<String> =
            ops.iter().filter(|(_, r)| r.quarantined).map(|(k, _)| k.clone()).collect();
        out.sort();
        out
    }
}

/// A tiny FNV-style hash to decorrelate per-operator jitter streams.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a `catch_unwind` payload as a readable message.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

/// A per-executor liveness beacon.
///
/// The executor calls [`enter`](Heartbeat::enter) when a chain reaction
/// starts and [`exit`](Heartbeat::exit) when it returns; the stall monitor
/// calls [`stalled_for`](Heartbeat::stalled_for) to detect a chain reaction
/// stuck longer than the stall timeout (an operator spinning or sleeping
/// inside a call). `reported` latches so each excursion is reported once.
pub struct Heartbeat {
    epoch: Instant,
    entered_ns: AtomicU64,
    busy: AtomicBool,
    reported: AtomicBool,
}

impl Default for Heartbeat {
    fn default() -> Heartbeat {
        Heartbeat::new()
    }
}

impl Heartbeat {
    /// A fresh, idle heartbeat.
    pub fn new() -> Heartbeat {
        Heartbeat {
            epoch: Instant::now(),
            entered_ns: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            reported: AtomicBool::new(false),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Marks the start of a chain reaction.
    pub fn enter(&self) {
        self.entered_ns.store(self.now_ns(), Ordering::Relaxed);
        self.reported.store(false, Ordering::Relaxed);
        self.busy.store(true, Ordering::Release);
    }

    /// Marks the end of a chain reaction.
    pub fn exit(&self) {
        self.busy.store(false, Ordering::Release);
    }

    /// If the executor has been inside one chain reaction longer than
    /// `timeout` and this excursion was not reported yet, returns the stuck
    /// duration (and latches the report).
    pub fn stalled_for(&self, timeout: Duration) -> Option<Duration> {
        if !self.busy.load(Ordering::Acquire) {
            return None;
        }
        let stuck = self.now_ns().saturating_sub(self.entered_ns.load(Ordering::Relaxed));
        if stuck < timeout.as_nanos().min(u64::MAX as u128) as u64 {
            return None;
        }
        if self.reported.swap(true, Ordering::Relaxed) {
            return None;
        }
        Some(Duration::from_nanos(stuck))
    }
}

/// The heartbeats of one wiring, one per executor, and the monitor that
/// watches them.
pub(crate) struct StallWatch {
    timeout: Duration,
    supervisor: Arc<Supervisor>,
    heartbeats: Vec<(String, Arc<Heartbeat>)>,
}

impl StallWatch {
    /// A watch if there is a stall to report and someone to see it: a
    /// supervisor, a stall timeout, and enabled observability — the
    /// monitor's only outputs are the `supervisor_stalls` counter and the
    /// `heartbeat-stall` event, both no-ops under `Obs::disabled()`.
    /// Otherwise `None`: no heartbeat, no clock read per chain reaction,
    /// no thread.
    pub(crate) fn new(
        supervisor: Option<&Arc<Supervisor>>,
        cfg: Option<&SupervisionConfig>,
        obs: &Obs,
    ) -> Option<StallWatch> {
        let timeout = cfg?.stall_timeout.filter(|_| obs.is_enabled())?;
        let supervisor = Arc::clone(supervisor?);
        Some(StallWatch { timeout, supervisor, heartbeats: Vec::new() })
    }

    /// A heartbeat for the executor of `domain`, watched once the monitor
    /// is spawned.
    pub(crate) fn heartbeat(&mut self, domain: &str) -> Arc<Heartbeat> {
        let hb = Arc::new(Heartbeat::new());
        self.heartbeats.push((domain.to_string(), Arc::clone(&hb)));
        hb
    }

    /// Spawns the monitor: until `stop` is raised, an executor that sits
    /// inside one chain reaction past the timeout is reported to the
    /// supervisor once per excursion.
    pub(crate) fn spawn(self, stop: Arc<StopFlag>) -> JoinHandle<()> {
        let poll = (self.timeout / 4).max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name("hmts-stall-monitor".into())
            .spawn(move || {
                while !stop.is_stopped() {
                    for (name, hb) in &self.heartbeats {
                        if let Some(stuck) = hb.stalled_for(self.timeout) {
                            self.supervisor.on_stall(name, stuck);
                        }
                    }
                    std::thread::sleep(poll);
                }
            })
            .expect("spawn stall monitor thread")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_fires_at_nth_invocation_once() {
        let plan = FaultPlan::seeded(1).panic_at("f", 3);
        let st = plan.operator_state("f").unwrap();
        // A run of five is cut in front of its third element, which fails.
        assert_eq!(st.on_run(5), Ok(2));
        assert_eq!(st.on_run(3), Err(FaultKind::Panic));
        // The retry of the same element (invocation 4) passes, and the
        // rest of the run with it.
        assert_eq!(st.on_run(3), Ok(3));
        assert_eq!(st.on_run(1), Ok(1));
        assert_eq!(st.fired(), 1);
        assert_eq!(st.invocations(), 7);
    }

    #[test]
    fn repeated_fault_fires_consecutively() {
        let plan = FaultPlan::seeded(1).panic_repeatedly("f", 2, 3);
        let st = plan.operator_state("f").unwrap();
        assert_eq!(st.on_run(1), Ok(1));
        for _ in 0..3 {
            assert_eq!(st.on_run(4), Err(FaultKind::Panic));
        }
        assert_eq!(st.on_run(4), Ok(4));
        assert_eq!(st.fired(), 3);
        assert_eq!(st.invocations(), 8);
    }

    #[test]
    fn stall_fires_as_a_stall() {
        let plan = FaultPlan::seeded(1).stall_at("s", 1, Duration::from_millis(5));
        let st = plan.operator_state("s").unwrap();
        assert_eq!(st.on_run(32), Err(FaultKind::Stall(Duration::from_millis(5))));
        assert_eq!((st.invocations(), st.fired()), (1, 1));
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let d0 = backoff_delay(base, cap, 0, 0.0, 7);
        let d3 = backoff_delay(base, cap, 3, 0.0, 7);
        let d10 = backoff_delay(base, cap, 10, 0.0, 7);
        assert_eq!(d0, base);
        assert_eq!(d3, Duration::from_millis(80));
        assert_eq!(d10, cap);
        // Jitter stays within bounds and is reproducible.
        let j1 = backoff_delay(base, cap, 2, 0.2, 42);
        let j2 = backoff_delay(base, cap, 2, 0.2, 42);
        assert_eq!(j1, j2);
        let nominal = Duration::from_millis(40).as_secs_f64();
        assert!(j1.as_secs_f64() >= nominal * 0.8 - 1e-9);
        assert!(j1.as_secs_f64() <= nominal * 1.2 + 1e-9);
    }

    #[test]
    fn restarts_then_quarantines_after_budget() {
        let policy = RestartPolicy { max_restarts: 2, ..RestartPolicy::default() };
        let sup = Supervisor::new(policy, 7, Obs::disabled());
        assert!(matches!(sup.on_panic("f", "boom"), Verdict::Restart { attempt: 1, .. }));
        assert!(matches!(sup.on_panic("f", "boom"), Verdict::Restart { attempt: 2, .. }));
        assert_eq!(sup.on_panic("f", "boom"), Verdict::Quarantine { failures: 3 });
        assert!(sup.is_quarantined("f"));
        assert_eq!(sup.quarantined_operators(), vec!["f".to_string()]);
        assert_eq!(sup.restarts(), 2);
    }

    #[test]
    fn fail_query_mode_returns_fail() {
        let policy = RestartPolicy {
            max_restarts: 0,
            degrade: DegradeMode::FailQuery,
            ..Default::default()
        };
        let sup = Supervisor::new(policy, 7, Obs::disabled());
        assert_eq!(sup.on_panic("f", "boom"), Verdict::Fail);
    }

    #[test]
    fn failures_outside_window_are_forgotten() {
        let policy = RestartPolicy {
            max_restarts: 1,
            window: Duration::from_millis(30),
            base_backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let sup = Supervisor::new(policy, 7, Obs::disabled());
        assert!(matches!(sup.on_panic("f", "a"), Verdict::Restart { .. }));
        std::thread::sleep(Duration::from_millis(60));
        // The first failure aged out, so this is again within budget.
        assert!(matches!(sup.on_panic("f", "b"), Verdict::Restart { .. }));
    }

    #[test]
    fn backoff_grows_with_attempts() {
        let policy = RestartPolicy {
            max_restarts: 10,
            base_backoff: Duration::from_millis(10),
            ..Default::default()
        };
        let sup = Supervisor::new(policy, 7, Obs::disabled());
        for nominal_ms in [10.0, 20.0] {
            let backoff = match sup.on_panic("f", "x") {
                Verdict::Restart { backoff, .. } => backoff.as_secs_f64() * 1e3,
                v => panic!("unexpected verdict {v:?}"),
            };
            let band = nominal_ms * 0.8 - 1e-6..=nominal_ms * 1.2 + 1e-6;
            assert!(band.contains(&backoff), "{backoff} ms outside ±20 % of {nominal_ms} ms");
        }
    }

    #[test]
    fn supervisor_metrics_appear_in_prometheus_export() {
        let obs = Obs::enabled();
        let policy = RestartPolicy { max_restarts: 1, ..Default::default() };
        let sup = Supervisor::new(policy, 7, obs.clone());
        let _ = sup.on_panic("f", "boom");
        let _ = sup.on_panic("f", "boom");
        let text = hmts_obs::export::prometheus_text(&obs.metrics_snapshot());
        assert!(text.contains("supervisor_restarts_total 1"), "{text}");
        assert!(text.contains("supervisor_panics_total 2"), "{text}");
        assert!(text.contains("supervisor_quarantined 1"), "{text}");
    }

    #[test]
    fn heartbeat_detects_and_latches_stall() {
        let hb = Heartbeat::new();
        assert!(hb.stalled_for(Duration::from_millis(1)).is_none());
        hb.enter();
        std::thread::sleep(Duration::from_millis(20));
        let stuck = hb.stalled_for(Duration::from_millis(5));
        assert!(stuck.is_some());
        assert!(stuck.unwrap() >= Duration::from_millis(5));
        // Latched: the same excursion is reported once.
        assert!(hb.stalled_for(Duration::from_millis(5)).is_none());
        hb.exit();
        assert!(hb.stalled_for(Duration::from_millis(5)).is_none());
        // A new excursion re-arms the report.
        hb.enter();
        std::thread::sleep(Duration::from_millis(20));
        assert!(hb.stalled_for(Duration::from_millis(5)).is_some());
    }

    #[test]
    fn panic_message_extracts_strings() {
        let p = std::panic::catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static message");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 42");
    }

    #[test]
    fn no_stall_watch_without_observability() {
        let sup = Arc::new(Supervisor::new(RestartPolicy::default(), 7, Obs::disabled()));
        let cfg = SupervisionConfig {
            stall_timeout: Some(Duration::from_millis(5)),
            ..SupervisionConfig::default()
        };
        assert!(StallWatch::new(Some(&sup), Some(&cfg), &Obs::disabled()).is_none());
        assert!(StallWatch::new(Some(&sup), Some(&cfg), &Obs::enabled()).is_some());
        assert!(StallWatch::new(None, Some(&cfg), &Obs::enabled()).is_none());
        let no_timeout = SupervisionConfig::default();
        assert!(StallWatch::new(Some(&sup), Some(&no_timeout), &Obs::enabled()).is_none());
    }
}
