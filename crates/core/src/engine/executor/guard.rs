//! The executor's failure code: the unwind boundary around operator
//! callbacks, fault injection, and applying the supervisor's verdict on a
//! caught panic — a restart rolled back to the last checkpoint, a
//! quarantine, or a failure reported upward (see [`crate::failure`]).
//!
//! The core calls [`arm`] before and [`call`] + [`DomainExecutor::settle_run`]
//! around `process_batch` (its cost clock stops in between) — one boundary
//! per run, however many elements it has — and [`DomainExecutor::guarded`]
//! for `on_eos` / `flush` / `on_watermark` / `end_slice`. Without a fault
//! plan, `arm` is one `None` branch; with one, it cuts the run in front of
//! the element the fault fires on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hmts_operators::traits::{Operator, Output};
use hmts_streams::element::Element;
use hmts_streams::error::{Result, StreamError};

use super::DomainExecutor;
use crate::checkpoint::CheckpointShared;
use crate::failure::{
    panic_message, FaultKind, Heartbeat, OperatorFaultState, Supervisor, Verdict,
};

/// How a guarded callback ended: its own result, or the payload of the
/// panic it raised.
pub(super) type Caught = std::thread::Result<Result<()>>;

/// Fault-injection state targeting one slot (see
/// [`crate::failure::FaultPlan`]).
pub(super) type SlotFault = Option<Arc<OperatorFaultState>>;

/// The supervision state of one executor.
#[derive(Default)]
pub(super) struct Guard {
    pub(super) supervisor: Option<Arc<Supervisor>>,
    /// Bracketing every chain reaction, if a stall monitor watches it.
    pub(super) heartbeat: Option<Arc<Heartbeat>>,
    /// Panics that terminated an operator without a restart (no
    /// supervisor, or `DegradeMode::FailQuery`): `(operator, payload)`.
    panics: Vec<(String, String)>,
    /// What [`arm`] cut off the run being processed, to go through behind
    /// what the call leaves of it.
    pub(super) cut: Vec<Element>,
}

/// Before `process_batch` of `run`: counts its elements against the slot's
/// fault plan and returns whether [`call`] has to inject a panic — the
/// fault fires on the first element. Where it fires further back, the run
/// is cut in front of that element and the part cut off moved to `cut`, to
/// go through next. A stall is served right here, ahead of the cost clock,
/// and its element goes through alone. Without a fault plan, one `None`
/// branch.
#[inline]
pub(super) fn arm(fault: &SlotFault, run: &mut Vec<Element>, cut: &mut Vec<Element>) -> bool {
    let through = match fault.as_ref().map(|f| f.on_run(run.len())) {
        None => return false,
        Some(Ok(through)) => through,
        Some(Err(FaultKind::Panic)) => return true,
        Some(Err(FaultKind::Stall(d))) => {
            std::thread::sleep(d);
            1
        }
    };
    if through < run.len() {
        *cut = run.split_off(through);
    }
    false
}

/// Runs one callback of `op` behind the unwind boundary — the only one in
/// the engine — panicking first if `inject_panic`.
///
/// `Box<dyn Operator>` is not `UnwindSafe` because operators hold interior
/// state; `AssertUnwindSafe` is sound here because after a caught panic the
/// operator is either (a) retried — the built-in operators mutate their
/// state only after computing outputs, so a panic mid-call leaves the state
/// as if the call never happened — or (b) quarantined/failed, in which case
/// nothing touches it again.
#[inline]
pub(super) fn call(
    op: &mut dyn Operator,
    out: &mut Output,
    inject_panic: bool,
    f: impl FnOnce(&mut dyn Operator, &mut Output) -> Result<()>,
) -> Caught {
    catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("chaos: injected panic in operator '{}'", op.name());
        }
        f(&mut *op, &mut *out)
    }))
}

/// Rolls a restarting operator back to its last checkpointed state (when
/// checkpointing is on and it has snapshotted before), so a panic that
/// corrupted in-memory state does not leak into the retry. A failed restore
/// keeps the current state — the retry still proceeds.
fn rollback(checkpoint: Option<&CheckpointShared>, op: &mut dyn Operator) {
    let Some(ck) = checkpoint else {
        return;
    };
    let Some((id, blob)) = ck.latest_blob(op.name()) else {
        return;
    };
    if op.stateful().is_some_and(|st| st.restore(blob).is_ok()) {
        // The rollback silently drops everything this operator processed
        // since the checkpoint (nothing replays at this layer), so make the
        // regression observable.
        ck.note_rollback(op.name(), id);
    }
}

impl DomainExecutor {
    /// Drains the operator panics that were not (or could not be)
    /// restarted: `(operator name, panic payload)` pairs.
    pub fn take_panics(&mut self) -> Vec<(String, String)> {
        std::mem::take(&mut self.guard.panics)
    }

    /// Books how a `process_batch` call over the run in `self.current`
    /// ended, and leaves in there what the slot is to be invoked with next:
    /// what the call left of the run, then what [`arm`] cut off it. After a
    /// failure the operator's contract has left the failing element first
    /// in the run and nothing of it in `self.out`: an `Err` is recorded as
    /// the domain's first error and that element dropped; a panic goes to
    /// [`on_panic`](Self::on_panic), which has the element retried or —
    /// having closed the slot behind the outputs of the elements before it —
    /// everything behind it dropped.
    #[inline]
    pub(super) fn settle_run(&mut self, i: usize, caught: Caught) {
        match caught {
            Ok(Ok(())) => self.current.clear(),
            Ok(Err(e)) => {
                self.record_error(e);
                self.current.drain(..1.min(self.current.len()));
            }
            Err(payload) => {
                if !self.on_panic(i, panic_message(payload.as_ref()), true) {
                    self.guard.cut.clear();
                    return self.current.clear();
                }
            }
        }
        if !self.guard.cut.is_empty() {
            self.current.append(&mut self.guard.cut);
        }
    }

    /// [`call`] and the booking of how it ended for the callbacks that
    /// carry no element and are therefore never retried: `on_eos`, `flush`,
    /// `on_watermark`, `end_slice`. On failure what the callback emitted is
    /// discarded, and what was in `self.out` before it kept; an `Err` is
    /// recorded as the domain's first error, a panic goes to
    /// [`on_panic`](Self::on_panic).
    pub(super) fn guarded(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut dyn Operator, &mut Output) -> Result<()>,
    ) {
        let before = self.out.len();
        match call(&mut *self.slots[i].state.op, &mut self.out, false, f) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                self.out.truncate(before);
                self.record_error(e);
            }
            Err(payload) => {
                self.out.truncate(before);
                self.on_panic(i, panic_message(payload.as_ref()), false);
            }
        }
    }

    /// Applies the supervisor's verdict to a panic caught in slot `i` and
    /// returns whether the input that was being processed is to be
    /// delivered again — `retryable` says there is one: only
    /// `process_batch` has something to redeliver. Every panic counts
    /// toward the supervisor's quarantine window; without a supervisor (or
    /// under `FailQuery`) the operator is closed and the panic surfaces via
    /// [`take_panics`](Self::take_panics).
    fn on_panic(&mut self, i: usize, msg: String, retryable: bool) -> bool {
        let operator = self.slots[i].state.op.name().to_string();
        match self.guard.supervisor.as_ref().map(|s| s.on_panic(&operator, &msg)) {
            Some(Verdict::Restart { backoff, .. }) => {
                if retryable {
                    std::thread::sleep(backoff);
                    rollback(self.align.checkpoint.as_deref(), &mut *self.slots[i].state.op);
                }
                // Input order for this operator is preserved: nothing of
                // the failed element was delivered, and it is still ahead
                // of the elements that arrived behind it.
                return retryable;
            }
            Some(Verdict::Quarantine { failures }) => {
                self.record_error(StreamError::Other(format!(
                    "operator '{operator}' quarantined after {failures} failures: {msg}"
                )));
                self.close_slot(i);
            }
            Some(Verdict::Fail) | None => {
                self.guard.panics.push((operator, msg));
                self.close_slot(i);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{contents, data, slot};
    use super::super::{Attach, ExecConfig, Target};
    use super::*;
    use crate::failure::{DegradeMode, RestartPolicy};
    use crate::scheduler::strategy::StrategyKind;
    use hmts_graph::graph::NodeId;
    use hmts_obs::Obs;
    use hmts_streams::element::{Element, Message, Punctuation};
    use hmts_streams::queue::StreamQueue;
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Callback {
        Process,
        OnEos,
        Flush,
        OnWatermark,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mode {
        /// Returns `Err` from every invocation of the callback.
        Err,
        /// Panics in the first invocation of the callback only.
        Panic,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Supervision {
        None,
        Restart,
        Quarantine,
        FailQuery,
    }

    const JUNK: i64 = -1;
    const FLUSHED: i64 = 999;

    /// Passes its input through and emits [`FLUSHED`] at flush time, except
    /// that `failing` emits [`JUNK`] and then fails per `mode` — `process`
    /// only on the value `only_on`, if there is one.
    struct Faulty {
        failing: Callback,
        only_on: Option<i64>,
        mode: Mode,
        failed: bool,
        /// `process` invocations, shared with the test.
        processed: Arc<AtomicUsize>,
        /// Invocations of `failing`, shared with the test.
        invoked: Arc<AtomicUsize>,
    }

    impl Faulty {
        fn maybe_fail(&mut self, here: Callback, out: &mut Output) -> Result<()> {
            if here != self.failing {
                return Ok(());
            }
            self.invoked.fetch_add(1, Ordering::Relaxed);
            out.emit(Tuple::single(JUNK), Timestamp::from_micros(0));
            match self.mode {
                Mode::Err => Err(StreamError::Other(format!("boom in {here:?}"))),
                Mode::Panic if !self.failed => {
                    self.failed = true;
                    panic!("boom in {here:?}");
                }
                Mode::Panic => {
                    out.truncate(out.len() - 1);
                    Ok(())
                }
            }
        }
    }

    impl Operator for Faulty {
        fn name(&self) -> &str {
            "faulty"
        }

        fn process(&mut self, _port: usize, el: &Element, out: &mut Output) -> Result<()> {
            self.processed.fetch_add(1, Ordering::Relaxed);
            if self.only_on.is_none_or(|v| el.tuple.field(0).as_int() == Ok(v)) {
                self.maybe_fail(Callback::Process, out)?;
            }
            out.push(el.clone());
            Ok(())
        }

        fn on_eos(&mut self, _port: usize, out: &mut Output) -> Result<()> {
            self.maybe_fail(Callback::OnEos, out)
        }

        fn flush(&mut self, out: &mut Output) -> Result<()> {
            self.maybe_fail(Callback::Flush, out)?;
            out.emit(Tuple::single(FLUSHED), Timestamp::from_micros(0));
            Ok(())
        }

        fn on_watermark(&mut self, _port: usize, _wm: Timestamp, out: &mut Output) -> Result<()> {
            self.maybe_fail(Callback::OnWatermark, out)
        }
    }

    fn supervisor(supervision: Supervision, obs: &Obs) -> Option<Arc<Supervisor>> {
        let policy = |max_restarts, degrade| RestartPolicy {
            max_restarts,
            degrade,
            base_backoff: Duration::from_micros(1),
            ..RestartPolicy::default()
        };
        match supervision {
            Supervision::None => None,
            Supervision::Restart => Some(policy(3, DegradeMode::QuarantineBranch)),
            Supervision::Quarantine => Some(policy(0, DegradeMode::QuarantineBranch)),
            Supervision::FailQuery => Some(policy(0, DegradeMode::FailQuery)),
        }
        .map(|p| Arc::new(Supervisor::new(p, 7, obs.clone())))
    }

    /// `op` as node 1 in front of a queue, under `supervisor`.
    fn stage(
        op: Faulty,
        supervisor: Option<Arc<Supervisor>>,
    ) -> (DomainExecutor, Arc<StreamQueue>) {
        let q = StreamQueue::unbounded("out");
        let target = Target::Queue { queue: Arc::clone(&q), wake: None };
        let mut exec = DomainExecutor::new(
            "d",
            vec![slot(1, Box::new(op), vec![target])],
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        exec.attach(Attach { supervisor, ..Attach::default() });
        (exec, q)
    }

    /// Every operator callback goes through the same boundary, so a failure
    /// in any of them is booked the same way: outputs discarded, `Err`
    /// recorded as the first error, a panic counted by the supervisor and
    /// answered by its verdict — of which only `process` can be retried —
    /// and downstream still gets each punctuation exactly once, after
    /// whatever a flush emitted.
    #[test]
    fn every_callback_fails_through_the_same_boundary() {
        use Callback::*;
        use Supervision::{FailQuery, Quarantine, Restart};
        for failing in [Process, OnEos, Flush, OnWatermark] {
            for mode in [Mode::Err, Mode::Panic] {
                for supervision in [Supervision::None, Restart, Quarantine, FailQuery] {
                    let case = format!("{failing:?} x {mode:?} x {supervision:?}");
                    let obs = Obs::enabled();
                    let supervisor = supervisor(supervision, &obs);
                    let (processed, invoked) = (Arc::default(), Arc::default());
                    let op = Faulty {
                        failing,
                        only_on: None,
                        mode,
                        failed: false,
                        processed: Arc::clone(&processed),
                        invoked: Arc::clone(&invoked),
                    };
                    let (mut exec, q) = stage(op, supervisor.clone());
                    let watermark = Punctuation::Watermark(Timestamp::from_micros(5));
                    for msg in [data(1, 1), Message::Punct(watermark), data(2, 2), Message::eos()] {
                        exec.inject(NodeId(1), 0, msg);
                    }

                    // A panic the supervisor does not answer with a restart
                    // closes the slot at the failing callback.
                    let panicked = mode == Mode::Panic;
                    let terminal = panicked && supervision != Restart;
                    let expected: &[&str] = match (failing, terminal) {
                        (Process, true) => &["E"],
                        (Process, false) if mode == Mode::Err => &["W", "999", "E"],
                        (OnWatermark, true) => &["1", "E"],
                        (OnEos, true) | (Flush, _) => &["1", "W", "2", "E"],
                        _ => &["1", "W", "2", "999", "E"],
                    };
                    assert_eq!(contents(&q), expected, "{case}: downstream");
                    assert_eq!(exec.live_slots(), 0, "{case}: slot closed");

                    let error = exec.error().map(|e| e.to_string()).unwrap_or_default();
                    match (mode, supervision) {
                        (Mode::Err, _) => assert!(error.contains("boom"), "{case}: {error}"),
                        (_, Quarantine) => {
                            assert!(error.contains("quarantined"), "{case}: {error}")
                        }
                        _ => assert_eq!(error, "", "{case}: no error"),
                    }
                    let unsupervised = matches!(supervision, Supervision::None | FailQuery);
                    let reported = exec.take_panics().len();
                    assert_eq!(reported, usize::from(panicked && unsupervised), "{case}: reported");
                    let counted = obs.counter("supervisor_panics").get();
                    let supervised = panicked && supervisor.is_some();
                    assert_eq!(counted, u64::from(supervised), "{case}: counted in the window");
                    let restarts = supervisor.map_or(0, |s| s.restarts());
                    assert_eq!(restarts, u64::from(panicked && supervision == Restart), "{case}");

                    // Only `process` is ever invoked again for the same input.
                    let retried = failing == Process && panicked && supervision == Restart;
                    let processed = processed.load(Ordering::Relaxed);
                    let inputs_seen = match (failing, terminal) {
                        (Process | OnWatermark, true) => 1,
                        _ => 2,
                    };
                    assert_eq!(processed, inputs_seen + usize::from(retried), "{case}: process");
                    if failing != Process {
                        assert_eq!(invoked.load(Ordering::Relaxed), 1, "{case}: never retried");
                    }
                }
            }
        }
    }

    /// A run goes through `process_batch` behind one boundary, and a failure
    /// at its element *k* is booked as the failure of a run of one is: the
    /// outputs of the elements before *k* are delivered, what *k* had
    /// emitted is not, *k* is skipped (`Err`), retried (a restart) or takes
    /// the slot and the elements behind it down with it — whatever the same
    /// messages injected one by one lead to.
    #[test]
    fn a_failure_inside_a_run_is_the_failure_of_a_run_of_one() {
        use Supervision::{FailQuery, Quarantine, Restart};
        for at in [0usize, 1, 3] {
            for mode in [Mode::Err, Mode::Panic] {
                for supervision in [Supervision::None, Restart, Quarantine, FailQuery] {
                    let case = format!("element {at} x {mode:?} x {supervision:?}");
                    // (downstream, error, reported, counted, restarts, `process` calls)
                    let outcome = |as_a_run: bool| {
                        let obs = Obs::enabled();
                        let supervisor = supervisor(supervision, &obs);
                        let processed = Arc::default();
                        let op = Faulty {
                            failing: Callback::Process,
                            only_on: Some(at as i64),
                            mode,
                            failed: false,
                            processed: Arc::clone(&processed),
                            invoked: Arc::default(),
                        };
                        let (mut exec, q) = stage(op, supervisor.clone());
                        let at_micros = |v: i64| Timestamp::from_micros(v as u64);
                        let mut run: Vec<Element> =
                            (0..4).map(|v| Element::single(v, at_micros(v))).collect();
                        match as_a_run {
                            true => exec.inject_batch(NodeId(1), 0, &mut run),
                            false => run
                                .into_iter()
                                .for_each(|el| exec.inject(NodeId(1), 0, Message::Data(el))),
                        }
                        exec.inject(NodeId(1), 0, Message::eos());
                        assert_eq!(exec.live_slots(), 0, "{case}: slot closed");
                        (
                            contents(&q),
                            exec.error().map(|e| e.to_string()).unwrap_or_default(),
                            exec.take_panics().len(),
                            obs.counter("supervisor_panics").get(),
                            supervisor.map_or(0, |s| s.restarts()),
                            processed.load(Ordering::Relaxed),
                        )
                    };
                    let (run, one_by_one) = (outcome(true), outcome(false));
                    assert_eq!(run, one_by_one, "{case}: as a run / one by one");

                    let (downstream, error, reported, counted, restarts, processed) = run;
                    let passed = |values: &mut dyn Iterator<Item = usize>| {
                        let mut seen: Vec<String> = values.map(|v| v.to_string()).collect();
                        seen.extend(["999".to_string(), "E".to_string()]);
                        seen
                    };
                    let panicked = mode == Mode::Panic;
                    let terminal = panicked && supervision != Restart;
                    let expected = match (mode, terminal) {
                        // The slot is closed without a flush.
                        (_, true) => (0..at).map(|v| v.to_string()).chain(["E".into()]).collect(),
                        (Mode::Err, _) => passed(&mut (0..4).filter(|&v| v != at)),
                        (Mode::Panic, _) => passed(&mut (0..4)),
                    };
                    assert_eq!(downstream, expected, "{case}: downstream");
                    match (mode, supervision) {
                        (Mode::Err, _) => assert!(error.contains("boom"), "{case}: {error}"),
                        (_, Quarantine) => {
                            assert!(error.contains("quarantined"), "{case}: {error}")
                        }
                        _ => assert_eq!(error, "", "{case}: no error"),
                    }
                    let unsupervised = matches!(supervision, Supervision::None | FailQuery);
                    assert_eq!(reported, usize::from(panicked && unsupervised), "{case}");
                    let supervised = !matches!(supervision, Supervision::None);
                    assert_eq!(counted, u64::from(panicked && supervised), "{case}: counted");
                    assert_eq!(restarts, u64::from(panicked && supervision == Restart), "{case}");
                    // Each element once; the failing one again if retried,
                    // and nothing behind it if it was the slot's last.
                    let calls = if terminal { at + 1 } else { 4 + usize::from(panicked) };
                    assert_eq!(processed, calls, "{case}: process calls");
                }
            }
        }
    }

    /// Passes its run on whole and writes down the length of every run it
    /// was handed.
    struct Runs(Arc<parking_lot::Mutex<Vec<usize>>>);

    impl Operator for Runs {
        fn name(&self) -> &str {
            "runs"
        }

        fn process(&mut self, _port: usize, el: &Element, out: &mut Output) -> Result<()> {
            out.push(el.clone());
            Ok(())
        }

        fn process_batch(
            &mut self,
            _port: usize,
            run: &mut Vec<Element>,
            out: &mut Output,
        ) -> Result<()> {
            self.0.lock().push(run.len());
            out.append(run);
            Ok(())
        }
    }

    /// A fault plan cuts a run in front of the element it fires on instead
    /// of taking the run apart: the operator is handed the elements in
    /// front of it as one run, then the retried element with the rest
    /// behind it — and what comes out is what comes out without the fault.
    #[test]
    fn a_fault_plan_cuts_the_run_in_front_of_the_element_it_fires_on() {
        let plan = crate::failure::FaultPlan::seeded(1).panic_at("runs", 40);
        let outcome = |chaos: Option<Arc<OperatorFaultState>>| {
            let obs = Obs::enabled();
            let runs = Arc::default();
            let q = StreamQueue::unbounded("out");
            let target = Target::Queue { queue: Arc::clone(&q), wake: None };
            let mut init = slot(1, Box::new(Runs(Arc::clone(&runs))), vec![target]);
            init.chaos = chaos;
            let mut exec = DomainExecutor::new(
                "d",
                vec![init],
                vec![],
                StrategyKind::Fifo.build(None),
                ExecConfig::default(),
            );
            let supervisor = supervisor(Supervision::Restart, &obs);
            exec.attach(Attach { supervisor, ..Attach::default() });
            let mut run: Vec<Element> =
                (0..64).map(|v| Element::single(v, Timestamp::from_micros(v as u64))).collect();
            exec.inject_batch(NodeId(1), 0, &mut run);
            exec.inject(NodeId(1), 0, Message::eos());
            assert!(exec.error().is_none() && exec.take_panics().is_empty());
            let runs = runs.lock().clone();
            (q.drain(), runs)
        };
        let (reference, whole) = outcome(None);
        assert_eq!(whole, [64]);
        let fault = plan.operator_state("runs").unwrap();
        let (faulted, runs) = outcome(Some(Arc::clone(&fault)));
        assert_eq!(runs, [39, 25], "39 in front of element 40, then it and the rest");
        assert_eq!(faulted, reference, "the same messages, in order");
        assert_eq!((fault.invocations(), fault.fired()), (65, 1));
    }
}
