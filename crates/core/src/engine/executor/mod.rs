//! The domain executor: levels 1 and 2 of the HMTS architecture.
//!
//! A [`DomainExecutor`] owns the operators of one scheduling domain (one or
//! more virtual operators) and their input queues. Execution follows the
//! paper's push-based model (§2.4): input injected at an operator triggers
//! a *chain reaction* through all directly connected successors. Its unit
//! is the *run* — the data messages between two punctuations — which goes
//! through an operator in one call
//! ([`Operator::process_batch`](hmts_operators::traits::Operator::process_batch))
//! and on as one run per out-edge, holding what that edge takes. A run is
//! the unit of depth-first order: the chain reaction is a LIFO work stack
//! of runs and punctuations (no recursion, no borrow gymnastics, no stack
//! overflow on long chains), and an operator's runs go on it in reverse
//! edge order, so the first successor's subtree takes its run whole before
//! the second's. Edges to operators outside the domain's virtual operator
//! go through queues instead, a run as the buffer it is in, waking the
//! consuming domain unless that is this one.
//!
//! The executor's `run_slice` is the level-2 scheduler: a pluggable
//! [`Strategy`] picks which input queue to service next, and a [`Budget`],
//! looked at once per popped batch, bounds the slice so the level-3 thread
//! scheduler can preempt cooperatively. A popped batch always goes through
//! whole. Input a re-wiring carries over has no path of its own: it waits
//! on the chain-reaction stack, which a slice works off before it pops a
//! queue.
//!
//! This file is only that core. What is layered on it lives in one sibling
//! module each, reached through one call per fixed point of the loop:
//! `guard` (the unwind boundary, fault injection, the supervisor's
//! verdicts, the heartbeat a chain reaction beats; the rest of the failure
//! code is [`crate::failure`]), `align`
//! (checkpoint barrier alignment) and `probe` (cost timing, statistics,
//! tracing).

mod align;
mod guard;
mod probe;
mod slot;

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use hmts_graph::graph::NodeId;
use hmts_operators::traits::Output;
use hmts_streams::element::{Element, Message, Punctuation};
use hmts_streams::error::StreamError;
use hmts_streams::queue::{Batch, StreamQueue};
use hmts_streams::time::Timestamp;

use crate::engine::sync::StopFlag;
use crate::scheduler::strategy::{InputSlot, Strategy};

pub use probe::COST_STRIDE;
pub use slot::{Attach, SlotInit, SlotState};

/// Something that can wake a sleeping domain when new input arrives.
pub trait Waker: Send + Sync {
    /// Deliver the wake-up.
    fn wake(&self);

    /// Deliver the wake-up to a consumer the caller waits for next; a
    /// scheduler must not keep it back for the caller's own worker.
    fn wake_now(&self) {
        self.wake();
    }
}

/// Moves `batch` into `queue` and wakes its consumer: the one way a batch
/// enters a queue whose consumer may be asleep. The wake-up also goes out
/// each time a full `Block` queue makes the push wait — a pooled consumer
/// runs only once it is told, and the producer must not wait for room with
/// a part of the batch queued that nobody has been told about; a full
/// queue (the producer waits for room next) wakes with `wake_now`. A closed
/// queue only happens during teardown; the messages are intentionally
/// dropped then.
pub(crate) fn push_and_wake(queue: &StreamQueue, wake: Option<&Arc<dyn Waker>>, batch: &mut Batch) {
    let _ = queue.push_runs(batch, || {
        if let Some(w) = wake {
            if queue.capacity().is_some_and(|c| queue.len() >= c) {
                w.wake_now();
            } else {
                w.wake();
            }
        }
    });
}

/// Where an operator's output goes.
pub enum Target {
    /// Direct interoperability: invoke a successor in the same domain.
    Inline {
        /// The successor operator.
        node: NodeId,
        /// Its input port fed by this edge.
        port: usize,
    },
    /// A boundary queue into another (or the same) domain.
    Queue {
        /// The queue.
        queue: Arc<StreamQueue>,
        /// Wakes the consuming domain after a push (`None` when it is this
        /// domain, which drains its own queues before it goes idle).
        wake: Option<Arc<dyn Waker>>,
    },
}

/// One input queue of a domain, with the edge it implements.
pub struct InputQueue {
    /// The queue.
    pub queue: Arc<StreamQueue>,
    /// The consuming operator.
    pub node: NodeId,
    /// The consuming operator's input port.
    pub port: usize,
    /// Whether end-of-stream has been popped from this queue.
    pub exhausted: bool,
}

/// Execution limits for one `run_slice` call, looked at together once per
/// popped batch, which always goes through whole: a slice overruns a limit
/// by at most one batch.
#[derive(Clone, Default)]
pub struct Budget {
    /// Stop at this instant.
    pub deadline: Option<Instant>,
    /// Stop when this flag is raised (engine shutdown / mode switch).
    pub stop: Option<Arc<StopFlag>>,
    /// Stop when this flag is raised (level-3 cooperative preemption).
    pub yield_flag: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// An unlimited budget (run until idle or finished).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Whether a limit is reached: the flags first, then the clock.
    fn exceeded(&self) -> bool {
        self.stop.as_ref().is_some_and(|s| s.is_stopped())
            || self
                .yield_flag
                .as_ref()
                .is_some_and(|y| y.load(std::sync::atomic::Ordering::Acquire))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Why `run_slice` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All inputs delivered end-of-stream and every operator completed.
    Finished,
    /// No input available right now; wait for a wake-up.
    Idle,
    /// The budget was exhausted with work still pending.
    Budget,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Messages popped per strategy decision.
    pub batch: usize,
    /// Whether to time operator invocations for the runtime cost model:
    /// a slot's first and every [`COST_STRIDE`]-th after it, so at the
    /// default batch three runs in four read no clock. Counts and arrival
    /// gaps are booked once per run, on or off, wherever a slot has a
    /// statistics cell.
    pub measure: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { batch: 32, measure: true }
    }
}

/// A [`Target`] as the loop uses it: an inline successor resolved to its
/// slot, a queue together with its staging buffer.
enum Route {
    /// Direct interoperability into slot `slot` of this executor.
    Inline { slot: usize, port: usize },
    /// An inline target naming a node this domain does not host — a wiring
    /// bug. Whatever is routed here is dropped, and recorded as the
    /// domain's error when that first happens.
    Dangling(NodeId),
    /// A boundary queue.
    Queue {
        queue: Arc<StreamQueue>,
        wake: Option<Arc<dyn Waker>>,
        /// Messages bound for the queue until the next
        /// [`DomainExecutor::flush_staged`], in the queue's shape: the
        /// route's run is handed here whole, by a buffer swap when nothing
        /// is staged yet.
        staged: Batch,
    },
}

/// What the chain-reaction stack carries to a port of a slot.
enum Work {
    /// Data for one `process_batch` call.
    Run(Vec<Element>),
    Punct(Punctuation),
}

impl Work {
    /// Appends this work to `out` as the messages it holds, bound for
    /// `port` of `node` (a remnant of a re-wiring).
    fn into_messages(self, node: NodeId, port: usize, out: &mut Vec<(NodeId, usize, Message)>) {
        match self {
            Work::Run(run) => out.extend(run.into_iter().map(|el| (node, port, Message::Data(el)))),
            Work::Punct(p) => out.push((node, port, Message::Punct(p))),
        }
    }
}

/// Which slot hosts a node: a table indexed by node id (ids are graph
/// indices, so it is as long as the domain's highest id and mostly full).
#[derive(Default)]
struct SlotTable(Vec<Option<usize>>);

impl SlotTable {
    fn of(nodes: impl Iterator<Item = NodeId>) -> SlotTable {
        let mut table = Vec::new();
        for (slot, node) in nodes.enumerate() {
            if table.len() <= node.0 {
                table.resize(node.0 + 1, None);
            }
            table[node.0] = Some(slot);
        }
        SlotTable(table)
    }

    #[inline]
    fn get(&self, node: NodeId) -> Option<usize> {
        self.0.get(node.0).copied().flatten()
    }
}

/// One operator of the domain: its persistent state, its wiring, and what
/// each concern module keeps per slot.
struct Slot {
    /// The part that outlives this wiring (see [`DomainExecutor::extract`]).
    state: SlotState,
    /// Output routing, one entry per out-edge, in graph edge order.
    routes: Vec<Route>,
    fault: guard::SlotFault,
    probe: probe::SlotProbe,
    align: align::SlotAlign,
}

/// The executor of one scheduling domain.
pub struct DomainExecutor {
    name: String,
    slot_of: SlotTable,
    slots: Vec<Slot>,
    inputs: Vec<InputQueue>,
    /// The slot each input feeds, parallel to `inputs`.
    input_slots: Vec<Option<usize>>,
    strategy: Box<dyn Strategy>,
    /// The DI chain-reaction work stack, `(slot, port, work)`: what goes
    /// next is on top. Empty between two slices, except for the input a
    /// re-wiring carried over (see [`carry_in`](Self::carry_in)).
    stack: Vec<(usize, usize, Work)>,
    /// The run the slot being invoked works on; empty between two
    /// invocations. A run popped off `stack` becomes `current`, and the
    /// buffer it replaces goes to `spare`.
    current: Vec<Element>,
    out: Output,
    /// `out`'s route tags while its elements are being routed: swapped
    /// with `out`'s own vector, so a splitter's tags re-use two buffers
    /// for ever.
    route_tags: Vec<u32>,
    /// One run per route of the slot being delivered, indexed by route.
    parts: Vec<Vec<Element>>,
    /// Empty buffers for the runs pushed on `stack`. A run pushed takes
    /// one and a run popped gives one back, so runs moving through the
    /// domain allocate nothing once it has as many as it ever needed.
    spare: Vec<Vec<Element>>,
    /// `(slot, route)` of every non-empty staging buffer, in the order
    /// they were first written.
    dirty: Vec<(usize, usize)>,
    /// The slots without a route — the sinks — which are told when the
    /// executor gives control back (see
    /// [`Operator::end_slice`](hmts_operators::traits::Operator::end_slice)).
    sinks: Vec<usize>,
    /// The strategy's view of the inputs, refilled per decision.
    view: Vec<InputSlot>,
    /// What enters the domain at one port in one go — a batch popped for
    /// a decision, an injected run or message — on its way to
    /// [`feed`](Self::feed) (reused).
    inbox: Batch,
    /// Messages popped per strategy decision.
    batch: usize,
    /// Slots not yet closed.
    live: usize,
    /// First operator error, if any (elements causing errors are dropped).
    error: Option<StreamError>,
    guard: guard::Guard,
    align: align::Align,
    probe: probe::Probe,
}

impl DomainExecutor {
    /// Builds an executor from its slots, input queues, and strategy.
    pub fn new(
        name: impl Into<String>,
        slots: Vec<SlotInit>,
        inputs: Vec<InputQueue>,
        strategy: Box<dyn Strategy>,
        cfg: ExecConfig,
    ) -> DomainExecutor {
        let slot_of = SlotTable::of(slots.iter().map(|s| s.node));
        let slots: Vec<Slot> =
            slots.into_iter().map(|s| s.into_slot(cfg.measure, &slot_of)).collect();
        DomainExecutor {
            name: name.into(),
            live: slots.iter().filter(|s| !s.state.closed).count(),
            sinks: (0..slots.len()).filter(|&i| slots[i].routes.is_empty()).collect(),
            slots,
            input_slots: inputs.iter().map(|q| slot_of.get(q.node)).collect(),
            slot_of,
            inputs,
            strategy,
            stack: Vec::new(),
            current: Vec::new(),
            out: Output::new(),
            route_tags: Vec::new(),
            parts: Vec::new(),
            spare: Vec::new(),
            dirty: Vec::new(),
            view: Vec::new(),
            inbox: Batch::default(),
            batch: cfg.batch.max(1),
            error: None,
            guard: guard::Guard::default(),
            align: align::Align::default(),
            probe: probe::Probe::default(),
        }
    }

    /// Live (not yet closed) slots in this executor.
    pub fn live_slots(&self) -> usize {
        self.live
    }

    /// The domain's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Takes out of `carry` — the input a re-wiring carried over, in the
    /// order it is to go through — what is bound for the nodes this domain
    /// hosts, and puts it on the stack as runs of up to a batch and
    /// punctuations, where the next slice works it off before it pops a
    /// queue. The rest is left for the other domains.
    pub(crate) fn carry_in(&mut self, carry: &mut Vec<(NodeId, usize, Message)>) {
        debug_assert!(self.stack.is_empty(), "carry comes before the first slice");
        let mut work: Vec<(usize, usize, Work)> = Vec::new();
        for (node, port, msg) in std::mem::take(carry) {
            let Some(i) = self.slot_of.get(node) else {
                carry.push((node, port, msg));
                continue;
            };
            match (msg, work.last_mut()) {
                (Message::Data(el), Some((j, p, Work::Run(run))))
                    if (*j, *p) == (i, port) && run.len() < self.batch =>
                {
                    run.push(el)
                }
                (Message::Data(el), _) => work.push((i, port, Work::Run(vec![el]))),
                (Message::Punct(p), _) => work.push((i, port, Work::Punct(p))),
            }
        }
        self.stack.extend(work.into_iter().rev());
    }

    /// Synchronously processes one message through the domain (the DI chain
    /// reaction) and hands what it produced for other domains to their
    /// queues: a batch of one, and — if it is data — a run of one. Like a
    /// slice, it ends by telling the sinks.
    pub fn inject(&mut self, node: NodeId, port: usize, msg: Message) {
        let mut inbox = std::mem::take(&mut self.inbox);
        inbox.push(msg);
        self.inject_inbox(node, port, &mut inbox);
        self.inbox = inbox;
    }

    /// [`inject`](Self::inject) for a run of elements entering at the same
    /// port: it goes through as one run and, being one batch, has one flush
    /// behind it. The run moves through the domain as the buffer it is in;
    /// `run` is handed back empty, holding a buffer the domain had spare.
    /// Used by source-driven execution (punctuations go through `inject`).
    pub fn inject_batch(&mut self, node: NodeId, port: usize, run: &mut Vec<Element>) {
        let mut inbox = std::mem::take(&mut self.inbox);
        std::mem::swap(run, &mut inbox.run);
        self.inject_inbox(node, port, &mut inbox);
        self.inbox = inbox;
    }

    fn inject_inbox(&mut self, node: NodeId, port: usize, inbox: &mut Batch) {
        let slot = self.slot_of.get(node).ok_or(node);
        self.feed(slot, port, inbox);
        self.flush_staged();
        self.end_slice();
    }

    /// Puts `batch` — all bound for `port` of `slot` — through the domain
    /// whole and in order, leaving it empty: the data up to the next
    /// punctuation as one run (a whole run by a buffer swap), the
    /// punctuation behind it in the same chain reaction. Output for queue
    /// targets is only staged; the caller owes a
    /// [`flush_staged`](Self::flush_staged) before it returns control.
    /// Messages for a node the domain does not host (`Err`) are a routing
    /// bug: recorded once and dropped.
    fn feed(&mut self, slot: Result<usize, NodeId>, port: usize, batch: &mut Batch) {
        let Batch { run, puncts } = batch;
        let slot = match slot {
            Ok(i) => i,
            Err(node) => {
                self.record_error(no_slot(node));
                run.clear();
                return puncts.clear();
            }
        };
        debug_assert!(self.stack.is_empty());
        // Elements taken off the front of `run`, punctuations fed.
        let (mut taken, mut next) = (0, 0);
        loop {
            let (until, punct) = match puncts.get(next) {
                Some(&(at, p)) => (at - taken, Some(p)),
                None => (run.len(), None),
            };
            // The punctuation goes under the run, that is behind it.
            if let Some(p) = punct {
                self.stack.push((slot, port, Work::Punct(p)));
                next += 1;
            }
            if until > 0 {
                let mut part = self.spare.pop().unwrap_or_default();
                if until == run.len() {
                    std::mem::swap(run, &mut part);
                } else {
                    part.extend(run.drain(..until));
                }
                self.stack.push((slot, port, Work::Run(part)));
                taken += until;
            } else if punct.is_none() {
                return puncts.clear();
            }
            self.react();
        }
    }

    /// The chain reaction: works off the stack — and what an alignment
    /// completed meanwhile released — until both are used up.
    fn react(&mut self) {
        if let Some(hb) = &self.guard.heartbeat {
            hb.enter();
        }
        loop {
            match self.stack.pop() {
                Some((i, port, Work::Run(run))) => {
                    debug_assert!(self.current.is_empty());
                    let used = std::mem::replace(&mut self.current, run);
                    self.spare.push(used);
                    self.invoke(i, port);
                }
                Some((i, port, Work::Punct(p))) => self.dispatch(i, port, p),
                None if self.align.release(&mut self.stack) => {}
                None => break,
            }
        }
        if let Some(hb) = &self.guard.heartbeat {
            hb.exit();
        }
    }

    /// Delivers punctuation `p` to slot `i` on `port`. A port held by
    /// barrier alignment holds it, a closed slot takes no more input. An
    /// EOS exhausts the input queue of the port it reaches, whether it was
    /// popped from that queue or carried over a re-wiring.
    fn dispatch(&mut self, i: usize, port: usize, p: Punctuation) {
        let slot = &mut self.slots[i];
        if !slot.state.closed && slot.align.holds(port) {
            return slot.align.hold(port, Work::Punct(p));
        }
        if p == Punctuation::EndOfStream {
            for (q, &s) in self.inputs.iter_mut().zip(&self.input_slots) {
                q.exhausted |= s == Some(i) && q.port == port;
            }
        }
        if self.slots[i].state.closed {
            return;
        }
        match p {
            Punctuation::EndOfStream => {
                self.process_eos(i, port);
                // An EOS-closed port counts as aligned; this may
                // complete an alignment waiting on it.
                self.check_alignment(i);
            }
            Punctuation::Watermark(ts) => self.process_watermark(i, port, ts),
            Punctuation::Barrier(id) => self.process_barrier(i, port, id),
        }
    }

    /// The one way data goes through a slot: the run in `self.current`
    /// (left empty), arrived on `port` of slot `i`, in one
    /// [`process_batch`](hmts_operators::traits::Operator::process_batch)
    /// call behind one unwind boundary, booked by the probe in one piece —
    /// and its outputs delivered once. A closed slot drops the run, a port
    /// held by barrier alignment holds it. A fault plan may cut
    /// the run in front of the element it fires on; the part cut off goes
    /// through next.
    ///
    /// A failure at element *k* is settled as a failure of a run of one
    /// always was, and the elements behind *k* go on from there: the contract
    /// of `process_batch` leaves them in the run, *k* first, and the outputs
    /// of the elements before *k* in `out`.
    fn invoke(&mut self, i: usize, port: usize) {
        let DomainExecutor { slots, current: run, .. } = self;
        let slot = &mut slots[i];
        if slot.state.closed {
            return run.clear();
        }
        if slot.align.holds(port) {
            return slot.align.hold(port, Work::Run(std::mem::take(run)));
        }
        while !self.current.is_empty() {
            let DomainExecutor { slots, current: run, out, probe, guard: g, .. } = self;
            let slot = &mut slots[i];
            let inject_panic = guard::arm(&slot.fault, run, &mut g.cut);
            let span = probe.begin(&mut slot.probe, port, run, out);
            let caught = guard::call(&mut *slot.state.op, out, inject_panic, |op, out| {
                op.process_batch(port, run, out)
            });
            probe.end(&mut slot.probe, span, matches!(caught, Ok(Ok(()))), run, out);
            self.settle_run(i, caught);
        }
        self.deliver_outputs(i);
    }

    fn process_eos(&mut self, i: usize, port: usize) {
        // Give the operator a chance to release anything gated on this
        // port's progress (the shard merge's held-back sequences) before
        // the port is booked closed.
        self.guarded(i, |op, out| op.on_eos(port, out));
        let slot = &mut self.slots[i];
        if slot.state.closed {
            return;
        }
        slot.probe.close(port);
        if !slot.state.eos.close(port) {
            return self.deliver_outputs(i);
        }
        // Last port closed: flush, then close — what `on_eos` and `flush`
        // emitted goes out as one run ahead of the EOS. Either callback may
        // have panicked its way to a verdict that already closed the slot.
        self.guarded(i, |op, out| op.flush(out));
        if !self.slots[i].state.closed {
            self.close_slot(i);
        }
    }

    fn process_watermark(&mut self, i: usize, port: usize, ts: Timestamp) {
        let Some(combined) = self.slots[i].state.wm.observe(port, ts) else {
            return;
        };
        // A failing handler does not stop the watermark: it still
        // propagates so downstream state keeps expiring — unless the
        // failure closed the slot, which sent EOS instead.
        self.guarded(i, |op, out| op.on_watermark(port, combined, out));
        if !self.slots[i].state.closed {
            self.forward_punct(i, Punctuation::Watermark(combined));
        }
    }

    /// Closes slot `i`: its successors get whatever it still has pending,
    /// then EOS, so the rest of the query completes even when the slot is
    /// closed by a terminal panic (graceful degradation; the operator's
    /// `flush` is deliberately *not* called then — its state is untrusted).
    fn close_slot(&mut self, i: usize) {
        self.forward_punct(i, Punctuation::EndOfStream);
        self.slots[i].state.closed = true;
        self.live -= 1;
        self.align.slot_closed();
    }

    fn record_error(&mut self, e: StreamError) {
        self.error.get_or_insert(e);
    }

    /// Delivers everything in `self.out` along slot `i`'s routes as one run
    /// per route, in emission order: a stable partition by route tag. An
    /// element tagged with a route (see [`Output::push_routed`]) goes to
    /// the route at the tag's out-edge ordinal, which is its index in
    /// `routes` because both follow graph edge order; an untagged one goes
    /// to every route. The last route that takes every element gets the
    /// output buffer itself, by a swap, and the others clones — so a chain
    /// stretch moves its run without touching an element. A tag naming no
    /// route is recorded once as the domain's error and its element
    /// dropped.
    ///
    /// An inline route's run goes on the stack, in reverse route order, so
    /// route 0's subtree runs whole before route 1's; a queue route's run
    /// is appended to its staging buffer (FIFO, held until the next flush).
    fn deliver_outputs(&mut self, i: usize) {
        let DomainExecutor {
            out, slots, stack, parts, spare, dirty, error, route_tags: tags, ..
        } = self;
        let Slot { routes, state, .. } = &mut slots[i];
        if out.is_empty() || routes.is_empty() {
            return out.clear();
        }
        let n = routes.len();
        if parts.len() < n {
            parts.resize_with(n, Vec::new);
        }
        let parts = &mut parts[..n];
        out.swap_routes(tags);
        let takes_all = |r: usize| tags.iter().all(|&t| t == Output::BROADCAST || t as usize == r);
        if let Some(whole) = (0..n).rev().find(|&r| takes_all(r)) {
            for (r, part) in parts.iter_mut().enumerate() {
                // Only an untagged element reaches a route besides `whole`.
                if r == whole {
                    continue;
                } else if tags.is_empty() {
                    part.extend_from_slice(out.elements());
                } else {
                    let tagged = out.elements().iter().zip(tags.iter());
                    let untagged = tagged.filter(|(_, &t)| t == Output::BROADCAST);
                    part.extend(untagged.map(|(e, _)| e.clone()));
                }
            }
            out.swap_elements(&mut parts[whole]);
        } else {
            for (el, &t) in out.drain().zip(tags.iter()) {
                if t == Output::BROADCAST {
                    let (last, others) = parts.split_last_mut().expect("a route");
                    others.iter_mut().for_each(|part| part.push(el.clone()));
                    last.push(el);
                } else if let Some(part) = parts.get_mut(t as usize) {
                    part.push(el);
                } else {
                    error.get_or_insert_with(|| no_route(state.node, t));
                }
            }
        }
        for (r, (route, part)) in routes.iter_mut().zip(parts).enumerate().rev() {
            if part.is_empty() {
                continue;
            }
            match route {
                Route::Inline { slot, port } => {
                    let run = std::mem::replace(part, spare.pop().unwrap_or_default());
                    stack.push((*slot, *port, Work::Run(run)));
                }
                Route::Queue { staged, .. } => {
                    if staged.is_empty() {
                        dirty.push((i, r));
                    }
                    if staged.run.is_empty() {
                        std::mem::swap(part, &mut staged.run);
                    } else {
                        staged.run.append(part);
                    }
                }
                Route::Dangling(node) => {
                    error.get_or_insert_with(|| no_slot(*node));
                    part.clear();
                }
            }
        }
    }

    /// Sends slot `i`'s pending outputs and then `p` to every successor.
    /// The inline punctuation goes onto the LIFO stack *below* the outputs
    /// (pushed first → popped last) and the queue punctuation *after* them
    /// (FIFO, in the same staging buffer), so successors of either kind see
    /// what a flush or watermark handler emitted before the punctuation
    /// that triggered it, instead of closing first and dropping it.
    fn forward_punct(&mut self, i: usize, p: Punctuation) {
        for route in self.slots[i].routes.iter().rev() {
            match *route {
                Route::Inline { slot, port } => self.stack.push((slot, port, Work::Punct(p))),
                Route::Dangling(node) => {
                    self.error.get_or_insert_with(|| no_slot(node));
                }
                Route::Queue { .. } => {}
            }
        }
        self.deliver_outputs(i);
        for (ri, route) in self.slots[i].routes.iter_mut().enumerate() {
            if let Route::Queue { staged, .. } = route {
                if staged.is_empty() {
                    self.dirty.push((i, ri));
                }
                staged.puncts.push((staged.run.len(), p));
            }
        }
    }

    /// Hands every staged batch to its queue: one [`push_and_wake`] per
    /// queue route written since the last flush. Runs when a popped batch
    /// ends and before `inject` / `run_slice` return, so nobody outside a
    /// slice ever sees output that is neither in the operator nor in the
    /// queue.
    fn flush_staged(&mut self) {
        for (i, ri) in self.dirty.drain(..) {
            if let Route::Queue { queue, wake, staged } = &mut self.slots[i].routes[ri] {
                self.probe.queue_enter(&staged.run, queue);
                push_and_wake(queue, wake.as_ref(), staged);
            }
        }
    }

    /// Tells every open sink that the executor is about to give control
    /// back, so what it held back goes out in one piece: the last thing
    /// `inject` / `inject_batch` / `run_slice` do, whatever the outcome, so
    /// nobody outside a slice ever sees a result that a sink has taken and
    /// not delivered.
    fn end_slice(&mut self) {
        for k in 0..self.sinks.len() {
            let i = self.sinks[k];
            if !self.slots[i].state.closed {
                self.guarded(i, |op, _| {
                    op.end_slice();
                    Ok(())
                });
            }
        }
    }

    /// Whether every input queue has delivered end-of-stream and every
    /// operator has completed.
    pub fn is_finished(&self) -> bool {
        self.stack.is_empty() && self.inputs.iter().all(|q| q.exhausted) && self.live == 0
    }

    /// Whether any input — carried or queued — has work pending right now.
    pub fn has_work(&self) -> bool {
        !self.stack.is_empty() || self.inputs.iter().any(|q| !q.exhausted && !q.queue.is_empty())
    }

    /// Runs the level-2 scheduling loop until the budget is exhausted, the
    /// inputs run dry, or the domain finishes. The unit at the queue
    /// boundary is the batch — one `pop_runs` per decision, one
    /// `push_runs` per written queue target per batch, one look at the
    /// budget per batch — and a popped batch always goes through whole.
    /// Carried input goes first, and counts as the slice's first batch.
    /// The sinks are told once, when the slice ends.
    pub fn run_slice(&mut self, budget: &Budget) -> RunOutcome {
        let mut exceeded = false;
        if !self.stack.is_empty() {
            self.react();
            self.flush_staged();
            exceeded = budget.exceeded();
        }
        let mut inbox = std::mem::take(&mut self.inbox);
        while !exceeded {
            self.view.clear();
            self.view.extend(self.inputs.iter().map(|q| InputSlot {
                consumer: q.node,
                len: if q.exhausted { 0 } else { q.queue.len() },
                head_ts: q.queue.peek_ts(),
            }));
            let Some(i) = self.strategy.select(&self.view) else {
                break;
            };
            let slot = self.input_slots[i].ok_or(self.inputs[i].node);
            self.inputs[i].queue.pop_runs(self.batch, &mut inbox);
            self.probe.queue_exit(&inbox.run, i);
            self.feed(slot, self.inputs[i].port, &mut inbox);
            self.flush_staged();
            exceeded = budget.exceeded();
        }
        self.inbox = inbox;
        self.end_slice();
        self.slice_status()
    }

    fn slice_status(&self) -> RunOutcome {
        if self.is_finished() {
            RunOutcome::Finished
        } else if self.has_work() {
            RunOutcome::Budget
        } else {
            RunOutcome::Idle
        }
    }

    /// The first operator error observed, if any.
    pub fn error(&self) -> Option<&StreamError> {
        self.error.as_ref()
    }

    /// Drains all input queues, returning the in-flight messages together
    /// with their destination, FIFO within each. Called during a mode
    /// switch after producers have stopped.
    pub fn take_input_remnants(&mut self) -> Vec<(NodeId, usize, Message)> {
        // Input held back by an alignment was delivered before anything
        // still to come, so it goes first; then a carry no slice took yet.
        let mut out = Vec::new();
        self.align.take_remnants(&mut self.slots, &mut out);
        for (i, port, work) in self.stack.drain(..).rev() {
            work.into_messages(self.slots[i].state.node, port, &mut out);
        }
        for q in &mut self.inputs {
            for msg in q.queue.drain() {
                out.push((q.node, q.port, msg));
            }
        }
        out
    }

    /// Extracts every slot's resume state, leaving the executor empty (it
    /// may still be referenced by an `Arc` held elsewhere). Called when the
    /// domain is torn down for a mode switch.
    pub fn extract(&mut self) -> Vec<SlotState> {
        debug_assert!(self.dirty.is_empty(), "every slice ends with a flush");
        self.live = 0;
        self.slot_of = SlotTable::default();
        self.input_slots.fill(None);
        self.sinks.clear();
        std::mem::take(&mut self.slots).into_iter().map(|s| s.state).collect()
    }
}

fn no_slot(node: NodeId) -> StreamError {
    StreamError::Other(format!("no slot for node {node}"))
}

fn no_route(node: NodeId, route: u32) -> StreamError {
    StreamError::Other(format!("no out-edge {route} at node {node}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::strategy::StrategyKind;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::sink::CollectingSink;
    use hmts_operators::traits::Operator;
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub(super) fn data(v: i64, us: u64) -> Message {
        Message::data(Tuple::single(v), Timestamp::from_micros(us))
    }

    pub(super) fn slot(node: usize, op: Box<dyn Operator>, targets: Vec<Target>) -> SlotInit {
        SlotInit::new(SlotState::new(NodeId(node), op), targets)
    }

    /// Filter chain 1 -> 2 -> sink 3, all inline (one VO), fed by queue q.
    fn di_chain() -> (DomainExecutor, Arc<StreamQueue>, hmts_operators::sink::SinkHandle) {
        di_chain_popping(ExecConfig::default().batch)
    }

    /// [`di_chain`], popping `batch` messages per decision.
    fn di_chain_popping(
        batch: usize,
    ) -> (DomainExecutor, Arc<StreamQueue>, hmts_operators::sink::SinkHandle) {
        let (sink, handle) = CollectingSink::new("sink");
        let q = StreamQueue::unbounded("in");
        let slots = vec![
            slot(
                1,
                Box::new(Filter::new("f1", Expr::field(0).lt(Expr::int(100)))),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            slot(
                2,
                Box::new(Filter::new("f2", Expr::field(0).gt(Expr::int(10)))),
                vec![Target::Inline { node: NodeId(3), port: 0 }],
            ),
            slot(3, Box::new(sink), vec![]),
        ];
        let inputs =
            vec![InputQueue { queue: Arc::clone(&q), node: NodeId(1), port: 0, exhausted: false }];
        let exec = DomainExecutor::new(
            "d",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig { batch, ..ExecConfig::default() },
        );
        (exec, q, handle)
    }

    /// A budget whose yield flag is raised: a slice does one batch.
    fn raised_yield_flag() -> Budget {
        Budget { yield_flag: Some(Arc::new(AtomicBool::new(true))), ..Budget::default() }
    }

    #[test]
    fn di_chain_reaction_filters_and_collects() {
        let (mut exec, q, handle) = di_chain();
        for (i, v) in [5i64, 50, 500, 11, 99].into_iter().enumerate() {
            q.push(data(v, i as u64)).unwrap();
        }
        q.push(Message::eos()).unwrap();
        let outcome = exec.run_slice(&Budget::unlimited());
        assert_eq!(outcome, RunOutcome::Finished);
        let vals: Vec<i64> =
            handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, vec![50, 11, 99]);
        assert!(handle.is_done());
        assert!(exec.error().is_none());
        assert!(exec.is_finished());
    }

    #[test]
    fn idle_when_no_input_yet() {
        let (mut exec, q, _) = di_chain();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert!(!exec.has_work());
        q.push(data(50, 1)).unwrap();
        assert!(exec.has_work());
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
    }

    #[test]
    fn budget_limits_slice() {
        let (mut exec, q, handle) = di_chain_popping(10);
        for i in 0..100 {
            q.push(data(50, i)).unwrap();
        }
        let budget = raised_yield_flag();
        assert_eq!(exec.run_slice(&budget), RunOutcome::Budget);
        assert_eq!(handle.count(), 10);
        // Remaining work completes on the next slices.
        q.push(Message::eos()).unwrap();
        while exec.run_slice(&budget) != RunOutcome::Finished {}
        assert_eq!(handle.count(), 100);
    }

    #[test]
    fn a_deadline_is_read_once_per_batch() {
        let (mut exec, q, out, _) = queue_stage(pass_all());
        for v in 0..100 {
            q.push(data(v, v as u64)).unwrap();
        }
        // Already over when the slice starts: it still gets its one batch
        // (default `batch = 32`), whole, and not a message of the next.
        let late = Budget { deadline: Some(Instant::now()), ..Budget::default() };
        assert_eq!(exec.run_slice(&late), RunOutcome::Budget);
        assert_eq!((out.len(), q.len()), (32, 68));
        // A raised flag is looked at in the same place, with the clock.
        assert_eq!(exec.run_slice(&raised_yield_flag()), RunOutcome::Budget);
        assert_eq!((out.len(), q.len()), (64, 36));
        assert_eq!(exec.run_slice(&late), RunOutcome::Budget);
        assert_eq!((out.len(), q.len()), (96, 4));
    }

    /// A sink that writes down what it is told, in order: an element's
    /// value, `|` per `end_slice`.
    struct BatchLog(Arc<parking_lot::Mutex<String>>);

    impl Operator for BatchLog {
        fn name(&self) -> &str {
            "log"
        }
        fn process(&mut self, _: usize, el: &Element, _: &mut Output) -> Result<(), StreamError> {
            self.0.lock().push_str(&el.tuple.field(0).as_int()?.to_string());
            Ok(())
        }
        fn end_slice(&mut self) {
            self.0.lock().push('|');
        }
    }

    #[test]
    fn a_sink_hears_the_end_of_every_slice_and_nobody_else_does() {
        // 1 -> sink 2, fed by q. The filter has a successor, so it is never
        // told (its `end_slice` is `BatchLog`'s, and would show in the log).
        let log = Arc::new(parking_lot::Mutex::new(String::new()));
        let q = StreamQueue::unbounded("in");
        let slots = vec![
            slot(1, Box::new(BatchLog(Arc::clone(&log))), vec![]),
            slot(2, pass_all(), vec![Target::Inline { node: NodeId(1), port: 0 }]),
        ];
        let inputs =
            vec![InputQueue { queue: Arc::clone(&q), node: NodeId(2), port: 0, exhausted: false }];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig { batch: 4, ..ExecConfig::default() },
        );
        // Source-driven: every `inject` gives control back.
        exec.inject(NodeId(2), 0, data(1, 1));
        exec.inject(NodeId(2), 0, data(2, 2));
        assert_eq!(*log.lock(), "1|2|");
        // Queue-driven: one call per slice, after its last element, however
        // many batches it popped.
        log.lock().clear();
        for v in 0..6 {
            q.push(data(v, v as u64)).unwrap();
        }
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert_eq!(*log.lock(), "012345|");
        // A checkpoint barrier ends what came before it: what came before
        // the cut is out before the sink acknowledges it.
        log.lock().clear();
        q.push(data(7, 7)).unwrap();
        q.push(Message::Punct(Punctuation::Barrier(1))).unwrap();
        q.push(data(8, 8)).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert_eq!(*log.lock(), "7|8|");
        // A slice its budget cuts short ends with the call all the same.
        log.lock().clear();
        for v in 0..5 {
            q.push(data(v, v as u64)).unwrap();
        }
        assert_eq!(exec.run_slice(&raised_yield_flag()), RunOutcome::Budget);
        assert_eq!(*log.lock(), "0123|");
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert_eq!(*log.lock(), "0123|4|");
        // A closed sink is left alone.
        log.lock().clear();
        q.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        exec.inject(NodeId(2), 0, data(9, 9));
        assert_eq!(*log.lock(), "");
    }

    #[test]
    fn stop_flag_interrupts() {
        let (mut exec, q, handle) = di_chain();
        for i in 0..100 {
            q.push(data(50, i)).unwrap();
        }
        let stop = Arc::new(StopFlag::new());
        stop.stop();
        // The flags are read once per popped batch, like the deadline:
        // raised before the slice starts, the slice still does its first
        // batch of the default 32 — and not a message more.
        let budget = Budget { stop: Some(Arc::clone(&stop)), ..Budget::default() };
        assert_eq!(exec.run_slice(&budget), RunOutcome::Budget);
        assert_eq!((handle.count(), q.len()), (32, 68));
        // A punctuation inside the batch does not cut it.
        let (mut exec, q, handle) = di_chain();
        q.push(data(50, 0)).unwrap();
        q.push(Message::Punct(Punctuation::Watermark(Timestamp::from_micros(1)))).unwrap();
        q.push(data(50, 2)).unwrap();
        q.push(data(50, 3)).unwrap();
        assert_eq!(exec.run_slice(&budget), RunOutcome::Idle);
        assert_eq!((handle.count(), q.len()), (3, 0), "the batch went through whole");
    }

    #[test]
    fn inject_runs_synchronously() {
        let (mut exec, _q, handle) = di_chain();
        exec.inject(NodeId(1), 0, data(42, 1));
        assert_eq!(handle.count(), 1);
        exec.inject(NodeId(1), 0, Message::eos());
        assert!(handle.is_done());
        // The port took EOS, so the input queue feeding it is exhausted
        // too, whichever path brought the EOS.
        assert!(exec.is_finished());
    }

    #[test]
    fn queue_targets_forward_and_wake() {
        let out_q = StreamQueue::unbounded("out");
        let waker = Arc::new(CountWaker::default());
        let slots = vec![slot(
            1,
            Box::new(Filter::new("f", Expr::bool(true))),
            vec![Target::Queue {
                queue: Arc::clone(&out_q),
                wake: Some(Arc::clone(&waker) as Arc<dyn Waker>),
            }],
        )];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        exec.inject(NodeId(1), 0, data(1, 1));
        exec.inject(NodeId(1), 0, data(2, 2));
        exec.inject(NodeId(1), 0, Message::eos());
        assert_eq!(out_q.len(), 3); // two data + EOS
        assert!(waker.0.load(Ordering::Relaxed) >= 3);
        assert!(exec.is_finished()); // no inputs, slot closed
                                     // FIFO order preserved through the queue.
        assert_eq!(out_q.try_pop().unwrap().as_data().unwrap().tuple.field(0).as_int().unwrap(), 1);
    }

    /// A sink that writes `name` and the value of each element it takes
    /// into a log it may share with other taps.
    struct Tap(&'static str, Arc<parking_lot::Mutex<Vec<String>>>);

    impl Operator for Tap {
        fn name(&self) -> &str {
            self.0
        }
        fn process(&mut self, _: usize, el: &Element, _: &mut Output) -> Result<(), StreamError> {
            self.1.lock().push(format!("{}{}", self.0, el.tuple.field(0).as_int()?));
            Ok(())
        }
    }

    /// Routes the value `v` to out-edge `v / 10`.
    struct RoutesByTens;

    impl Operator for RoutesByTens {
        fn name(&self) -> &str {
            "routes-by-tens"
        }
        fn process(&mut self, _: usize, el: &Element, out: &mut Output) -> Result<(), StreamError> {
            out.push_routed((el.tuple.field(0).as_int()? / 10) as u32, el.clone());
            Ok(())
        }
    }

    /// `op` (node 1) -> {tap `a` (node 2), tap `b` (node 3)}, all inline,
    /// the taps writing into one log.
    fn forked_into_taps(
        op: Box<dyn Operator>,
    ) -> (DomainExecutor, Arc<parking_lot::Mutex<Vec<String>>>) {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let targets = vec![
            Target::Inline { node: NodeId(2), port: 0 },
            Target::Inline { node: NodeId(3), port: 0 },
        ];
        let slots = vec![
            slot(1, op, targets),
            slot(2, Box::new(Tap("a", Arc::clone(&log))), vec![]),
            slot(3, Box::new(Tap("b", Arc::clone(&log))), vec![]),
        ];
        let exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        (exec, log)
    }

    fn run_of(values: &[i64]) -> Vec<Element> {
        values.iter().map(|&v| Element::single(v, Timestamp::from_micros(v as u64))).collect()
    }

    #[test]
    fn fanout_delivers_depth_first_to_both_branches() {
        // A run is the unit of depth-first order: branch `a` takes the
        // run whole, in sequence, before branch `b` sees any of it.
        let (mut exec, log) = forked_into_taps(pass_all());
        exec.inject_batch(NodeId(1), 0, &mut run_of(&[1, 2, 3]));
        exec.inject(NodeId(1), 0, data(4, 4));
        assert_eq!(*log.lock(), ["a1", "a2", "a3", "b1", "b2", "b3", "a4", "b4"]);
        exec.inject(NodeId(1), 0, Message::eos());
        assert!(exec.is_finished() && exec.error().is_none());
    }

    #[test]
    fn routed_output_goes_to_inline_routes_as_one_run_each_in_route_order() {
        let (mut exec, log) = forked_into_taps(Box::new(RoutesByTens));
        exec.inject_batch(NodeId(1), 0, &mut run_of(&[1, 11, 2, 12, 3]));
        assert_eq!(*log.lock(), ["a1", "a2", "a3", "b11", "b12"]);
        assert!(exec.error().is_none());
    }

    #[test]
    fn a_route_tag_naming_no_route_is_one_error_and_the_rest_is_delivered() {
        let (mut exec, log) = forked_into_taps(Box::new(RoutesByTens));
        exec.inject_batch(NodeId(1), 0, &mut run_of(&[1, 51, 11, 52]));
        assert_eq!(exec.error(), Some(&StreamError::Other("no out-edge 5 at node n1".into())));
        assert_eq!(*log.lock(), ["a1", "b11"]);
    }

    #[test]
    fn inline_target_outside_the_domain_is_one_error_and_a_dropped_element() {
        // 1 -> {node 9 (not hosted here), sink 2}. The edge is resolved
        // when the executor is built; the error is recorded when the first
        // element is routed along it, and only that copy is dropped.
        let (sink, handle) = CollectingSink::new("s");
        let slots = vec![
            slot(
                1,
                pass_all(),
                vec![
                    Target::Inline { node: NodeId(9), port: 0 },
                    Target::Inline { node: NodeId(2), port: 0 },
                ],
            ),
            slot(2, Box::new(sink), vec![]),
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        assert!(exec.error().is_none(), "nothing was routed yet");
        for v in 0..3 {
            exec.inject(NodeId(1), 0, data(v, v as u64));
        }
        assert_eq!(exec.error(), Some(&StreamError::Other("no slot for node n9".into())));
        assert_eq!(handle.count(), 3, "the hosted branch is served");
        // The same goes for an entry point naming such a node.
        exec.inject(NodeId(7), 0, data(0, 9));
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert_eq!(exec.error(), Some(&StreamError::Other("no slot for node n9".into())));
        exec.inject(NodeId(1), 0, Message::eos());
        assert!(handle.is_done() && exec.is_finished());
    }

    #[test]
    fn eos_waits_for_all_ports() {
        // Binary union 1 <- two queues; sink 2.
        let (sink, handle) = CollectingSink::new("s");
        let qa = StreamQueue::unbounded("a");
        let qb = StreamQueue::unbounded("b");
        let slots = vec![
            slot(
                1,
                Box::new(hmts_operators::union::Union::new("u", 2)),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            slot(2, Box::new(sink), vec![]),
        ];
        let inputs = vec![
            InputQueue { queue: Arc::clone(&qa), node: NodeId(1), port: 0, exhausted: false },
            InputQueue { queue: Arc::clone(&qb), node: NodeId(1), port: 1, exhausted: false },
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        qa.push(data(1, 1)).unwrap();
        qa.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert!(!handle.is_done(), "EOS only on one port");
        qb.push(data(2, 2)).unwrap();
        qb.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        assert!(handle.is_done());
        assert_eq!(handle.count(), 2);
    }

    #[test]
    fn operator_error_is_recorded_and_skipped() {
        let (sink, handle) = CollectingSink::new("s");
        let q = StreamQueue::unbounded("in");
        let slots = vec![
            slot(
                1,
                // References field 5 of single-field tuples → error.
                Box::new(Filter::new("bad", Expr::field(5).lt(Expr::int(1)))),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            slot(2, Box::new(sink), vec![]),
        ];
        let inputs =
            vec![InputQueue { queue: Arc::clone(&q), node: NodeId(1), port: 0, exhausted: false }];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        q.push(data(1, 1)).unwrap();
        q.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        assert!(matches!(exec.error(), Some(StreamError::FieldOutOfBounds { .. })));
        assert_eq!(handle.count(), 0);
        assert!(handle.is_done(), "EOS still flows despite the error");
    }

    #[test]
    fn watermarks_combine_and_expire_state() {
        use hmts_operators::join::SymmetricHashJoin;
        use std::time::Duration;
        let join = SymmetricHashJoin::on_field("j", 0, Duration::from_secs(10));
        let qa = StreamQueue::unbounded("a");
        let qb = StreamQueue::unbounded("b");
        let (sink, _h) = CollectingSink::new("s");
        let slots = vec![
            slot(1, Box::new(join), vec![Target::Inline { node: NodeId(2), port: 0 }]),
            slot(2, Box::new(sink), vec![]),
        ];
        let inputs = vec![
            InputQueue { queue: Arc::clone(&qa), node: NodeId(1), port: 0, exhausted: false },
            InputQueue { queue: Arc::clone(&qb), node: NodeId(1), port: 1, exhausted: false },
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        qa.push(data(1, 0)).unwrap();
        qb.push(data(2, 0)).unwrap();
        // Watermark on only one port does not advance the combined mark.
        qa.push(Message::Punct(Punctuation::Watermark(Timestamp::from_secs(100)))).unwrap();
        exec.run_slice(&Budget::unlimited());
        qb.push(Message::Punct(Punctuation::Watermark(Timestamp::from_secs(100)))).unwrap();
        exec.run_slice(&Budget::unlimited());
        // Combined watermark of 100 s with a 10 s window: both sides empty.
        // (Verified indirectly: no join output for fresh matching data at
        // ts 0 — it would be outside the window anyway; instead check via
        // error-free completion.)
        qa.push(Message::eos()).unwrap();
        qb.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        assert!(exec.error().is_none());
    }

    #[test]
    fn remnants_and_slot_states_extract() {
        let (mut exec, q, _handle) = di_chain();
        q.push(data(50, 1)).unwrap();
        exec.run_slice(&Budget::unlimited());
        q.push(data(60, 2)).unwrap();
        q.push(data(70, 3)).unwrap();
        exec.carry_in(&mut vec![(NodeId(2), 0, data(80, 4))]);
        let remnants = exec.take_input_remnants();
        assert_eq!(remnants.len(), 3);
        assert_eq!(remnants[0].0, NodeId(2)); // the carry first
        assert_eq!(remnants[1].0, NodeId(1));
        let states = exec.extract();
        assert_eq!(states.len(), 3);
        assert!(states.iter().all(|s| !s.closed));
    }

    /// Counts wake-ups.
    #[derive(Default)]
    struct CountWaker(AtomicUsize);

    impl Waker for CountWaker {
        fn wake(&self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Input queue -> `op` (node 1) -> queue `out`, the shape of a GTS
    /// stage, with the default `batch = 32`.
    fn queue_stage(
        op: Box<dyn Operator>,
    ) -> (DomainExecutor, Arc<StreamQueue>, Arc<StreamQueue>, Arc<CountWaker>) {
        let (q, out) = (StreamQueue::unbounded("in"), StreamQueue::unbounded("out"));
        let waker = Arc::new(CountWaker::default());
        let target = Target::Queue {
            queue: Arc::clone(&out),
            wake: Some(Arc::clone(&waker) as Arc<dyn Waker>),
        };
        let inputs =
            vec![InputQueue { queue: Arc::clone(&q), node: NodeId(1), port: 0, exhausted: false }];
        let exec = DomainExecutor::new(
            "d",
            vec![slot(1, op, vec![target])],
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        (exec, q, out, waker)
    }

    fn pass_all() -> Box<dyn Operator> {
        Box::new(Filter::new("f", Expr::bool(true)))
    }

    /// What sits in `q`, in order: data values, `W`/`B`/`E` for watermark,
    /// barrier and end-of-stream.
    pub(super) fn contents(q: &StreamQueue) -> Vec<String> {
        q.drain()
            .into_iter()
            .map(|m| match m {
                Message::Data(el) => el.tuple.field(0).as_int().unwrap().to_string(),
                Message::Punct(Punctuation::Watermark(_)) => "W".into(),
                Message::Punct(Punctuation::Barrier(_)) => "B".into(),
                Message::Punct(Punctuation::EndOfStream) => "E".into(),
            })
            .collect()
    }

    /// `(node, port, message)` as `"<node>:<value or E>"`.
    fn labels(msgs: &[(NodeId, usize, Message)]) -> Vec<String> {
        let label =
            |m: &Message| m.as_data().map_or("E".into(), |el| el.tuple.field(0).to_string());
        msgs.iter().map(|(node, _, m)| format!("{}:{}", node.0, label(m))).collect()
    }

    #[test]
    fn a_carry_for_two_chained_slots_goes_through_downstream_first() {
        // As a GTS wiring leaves it — node 1's input queue holding 50, 60
        // and EOS, the queue to node 2 the older 20, 30 — and as
        // `build_wiring` orders it: the downstream destination first, or
        // node 1's output, reaching node 2 inline, would overtake its
        // carry. Node 9's is another domain's.
        let carry = || {
            vec![
                (NodeId(2), 0, data(20, 1)),
                (NodeId(9), 0, data(99, 1)),
                (NodeId(2), 0, data(30, 2)),
                (NodeId(1), 0, data(50, 3)),
                (NodeId(1), 0, data(60, 4)),
                (NodeId(1), 0, Message::eos()),
            ]
        };
        let (mut exec, q, handle) = di_chain();
        let mut rest = carry();
        exec.carry_in(&mut rest);
        assert_eq!(labels(&rest), ["9:99"]);
        assert!(exec.has_work() && !exec.is_finished());
        // Torn down before its first slice, a domain hands its carry on
        // unchanged.
        let mut handed_on = exec.take_input_remnants();
        assert_eq!(labels(&handed_on), ["2:20", "2:30", "1:50", "1:60", "1:E"]);
        assert!(!exec.has_work());
        // The carried EOS closes node 1's port, and with it the input
        // queue feeding it: nothing more comes from there.
        exec.carry_in(&mut handed_on);
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        let vals: Vec<i64> =
            handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, [20, 30, 50, 60]);
        assert!(handle.is_done() && q.is_empty());
    }

    #[test]
    fn punctuation_mid_batch_keeps_its_place_behind_staged_data() {
        let (mut exec, q, out, waker) = queue_stage(pass_all());
        let input = [
            data(1, 1),
            data(2, 2),
            Message::Punct(Punctuation::Watermark(Timestamp::from_micros(3))),
            data(3, 3),
            Message::Punct(Punctuation::Barrier(1)),
            data(4, 4),
            Message::eos(),
        ];
        for m in input {
            q.push(m).unwrap();
        }
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        // One batch in, one push and one wake-up out.
        assert_eq!(waker.0.load(Ordering::Relaxed), 1);
        assert_eq!(out.metrics().high_water(), 7);
        assert_eq!(contents(&out), ["1", "2", "W", "3", "B", "4", "E"]);
    }

    #[test]
    fn flush_output_is_queued_before_eos() {
        let (mut exec, q, out, _) = queue_stage(Box::new(FlushEmitter { seen: 0 }));
        q.push(data(1, 1)).unwrap();
        q.push(data(2, 2)).unwrap();
        q.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        assert_eq!(contents(&out), ["2", "E"]);
    }

    /// Passes its input through, and panics on the value 3.
    struct PanicsOnThree;

    impl Operator for PanicsOnThree {
        fn name(&self) -> &str {
            "panics-on-3"
        }

        fn process(
            &mut self,
            _port: usize,
            el: &Element,
            out: &mut Output,
        ) -> hmts_streams::error::Result<()> {
            assert_ne!(el.tuple.field(0).as_int()?, 3, "three");
            out.push(el.clone());
            Ok(())
        }
    }

    #[test]
    fn terminal_panic_mid_batch_sends_eos_behind_the_staged_outputs() {
        let (mut exec, q, out, waker) = queue_stage(Box::new(PanicsOnThree));
        for v in 1..=5 {
            q.push(data(v, v as u64)).unwrap();
        }
        // No supervisor: the panic closes the slot; the rest of the batch
        // meets a closed slot.
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert_eq!(exec.live_slots(), 0);
        assert_eq!(exec.take_panics().len(), 1);
        assert_eq!(waker.0.load(Ordering::Relaxed), 1);
        assert_eq!(contents(&out), ["1", "2", "E"]);
    }

    /// Routes a value below 6 to the out-edge `value % 3` and broadcasts
    /// the rest.
    struct RoutesByValue;

    impl Operator for RoutesByValue {
        fn name(&self) -> &str {
            "routes-by-value"
        }

        fn process(
            &mut self,
            _port: usize,
            el: &Element,
            out: &mut Output,
        ) -> hmts_streams::error::Result<()> {
            match el.tuple.field(0).as_int()? {
                v if v < 6 => out.push_routed((v % 3) as u32, el.clone()),
                _ => out.push(el.clone()),
            }
            Ok(())
        }
    }

    #[test]
    fn each_output_reaches_exactly_its_targets_of_either_kind() {
        // 1 -> {queue a, sink 2, queue b}: a routed element reaches its one
        // target, a broadcast one every target once — whichever of them it
        // is finally moved into.
        let (sink, handle) = CollectingSink::new("s");
        let (a, b) = (StreamQueue::unbounded("a"), StreamQueue::unbounded("b"));
        let slots = vec![
            slot(
                1,
                Box::new(RoutesByValue),
                vec![
                    Target::Queue { queue: Arc::clone(&a), wake: None },
                    Target::Inline { node: NodeId(2), port: 0 },
                    Target::Queue { queue: Arc::clone(&b), wake: None },
                ],
            ),
            slot(2, Box::new(sink), vec![]),
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        for v in 0..=7 {
            exec.inject(NodeId(1), 0, data(v, v as u64));
        }
        exec.inject(NodeId(1), 0, Message::eos());
        assert_eq!(contents(&a), ["0", "3", "6", "7", "E"]);
        assert_eq!(contents(&b), ["2", "5", "6", "7", "E"]);
        let sunk: Vec<i64> =
            handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(sunk, [1, 4, 6, 7]);
        assert!(handle.is_done());
    }

    /// Turns the value `v` into three outputs: `10v` for out-edge 0, `10v + 1`
    /// for everyone, `10v + 2` for out-edge 1 — the middle one by `emit`.
    struct RoutedEmitRouted;

    impl Operator for RoutedEmitRouted {
        fn name(&self) -> &str {
            "routed-emit-routed"
        }

        fn process(
            &mut self,
            _port: usize,
            el: &Element,
            out: &mut Output,
        ) -> hmts_streams::error::Result<()> {
            let v = 10 * el.tuple.field(0).as_int()?;
            out.push_routed(0, Element::single(v, el.ts));
            out.emit(Tuple::single(v + 1), el.ts);
            out.push_routed(1, Element::single(v + 2, el.ts));
            Ok(())
        }
    }

    #[test]
    fn an_emitted_tuple_between_two_routed_ones_is_a_broadcast() {
        let (a, b) = (StreamQueue::unbounded("a"), StreamQueue::unbounded("b"));
        let targets = vec![
            Target::Queue { queue: Arc::clone(&a), wake: None },
            Target::Queue { queue: Arc::clone(&b), wake: None },
        ];
        let mut exec = DomainExecutor::new(
            "d",
            vec![slot(1, Box::new(RoutedEmitRouted), targets)],
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        exec.inject(NodeId(1), 0, data(1, 1));
        exec.inject(NodeId(1), 0, data(2, 2));
        assert_eq!(contents(&a), ["10", "11", "20", "21"]);
        assert_eq!(contents(&b), ["11", "12", "21", "22"]);
    }

    /// 1 -> {queue `out` (counted wake-ups), sink 2 (a [`BatchLog`])}.
    fn forked_stage(
    ) -> (DomainExecutor, Arc<StreamQueue>, Arc<CountWaker>, Arc<parking_lot::Mutex<String>>) {
        let out = StreamQueue::unbounded("out");
        let waker = Arc::new(CountWaker::default());
        let log = Arc::new(parking_lot::Mutex::new(String::new()));
        let targets = vec![
            Target::Queue {
                queue: Arc::clone(&out),
                wake: Some(Arc::clone(&waker) as Arc<dyn Waker>),
            },
            Target::Inline { node: NodeId(2), port: 0 },
        ];
        let exec = DomainExecutor::new(
            "d",
            vec![
                slot(1, pass_all(), targets),
                slot(2, Box::new(BatchLog(Arc::clone(&log))), vec![]),
            ],
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        (exec, out, waker, log)
    }

    #[test]
    fn a_batch_injected_is_its_messages_injected_with_one_flush_behind_them() {
        let run = |values: std::ops::RangeInclusive<i64>| -> Vec<Element> {
            values.map(|v| Element::single(v, Timestamp::from_micros(v as u64))).collect()
        };
        let watermark = || Message::Punct(Punctuation::Watermark(Timestamp::from_micros(2)));
        let (mut one_by_one, out_a, wakes_a, log_a) = forked_stage();
        for el in run(1..=2) {
            one_by_one.inject(NodeId(1), 0, Message::Data(el));
        }
        one_by_one.inject(NodeId(1), 0, watermark());
        for el in run(3..=4) {
            one_by_one.inject(NodeId(1), 0, Message::Data(el));
        }
        one_by_one.inject(NodeId(1), 0, Message::eos());
        // Runs go in by `inject_batch`, the punctuations between them by
        // `inject`.
        let (mut batched, out_b, wakes_b, log_b) = forked_stage();
        let mut first = run(1..=2);
        let storage = first.as_ptr();
        batched.inject_batch(NodeId(1), 0, &mut first);
        assert!(first.is_empty() && first.as_ptr() != storage, "handed back another buffer");
        batched.inject(NodeId(1), 0, watermark());
        batched.inject_batch(NodeId(1), 0, &mut run(3..=4));
        batched.inject(NodeId(1), 0, Message::eos());
        // The same messages in the queue, the same elements at the sink in
        // the same order — and the hand-overs once per run instead of per
        // message.
        assert_eq!(contents(&out_a), ["1", "2", "W", "3", "4", "E"]);
        assert_eq!(contents(&out_b), ["1", "2", "W", "3", "4", "E"]);
        assert_eq!(log_a.lock().replace('|', ""), "1234");
        assert_eq!(log_b.lock().replace('|', ""), "1234");
        assert_eq!(wakes_a.0.load(Ordering::Relaxed), 6);
        assert_eq!(wakes_b.0.load(Ordering::Relaxed), 4);
        assert!(one_by_one.is_finished() && batched.is_finished());
        // While the sink is open, the run's one `end_slice` comes last.
        let (mut batched, _, _, log) = forked_stage();
        batched.inject_batch(NodeId(1), 0, &mut run(5..=6));
        assert_eq!(*log.lock(), "56|");
        // A run for a node the domain does not host is one error (and a
        // batch that ended, all the same).
        batched.inject_batch(NodeId(9), 0, &mut run(7..=8));
        assert_eq!(batched.error(), Some(&StreamError::Other("no slot for node n9".into())));
        assert_eq!(*log.lock(), "56||");
    }

    /// An operator whose only output is produced at flush time (the count
    /// of elements it saw).
    struct FlushEmitter {
        seen: i64,
    }

    impl Operator for FlushEmitter {
        fn name(&self) -> &str {
            "flush-emit"
        }

        fn input_arity(&self) -> usize {
            1
        }

        fn process(
            &mut self,
            _port: usize,
            _el: &Element,
            _out: &mut Output,
        ) -> hmts_streams::error::Result<()> {
            self.seen += 1;
            Ok(())
        }

        fn flush(&mut self, out: &mut Output) -> hmts_streams::error::Result<()> {
            out.emit(Tuple::single(self.seen), Timestamp::from_micros(1));
            Ok(())
        }
    }

    /// Emits 1 when a port closes and 2 at flush time.
    struct LastWords;

    impl Operator for LastWords {
        fn name(&self) -> &str {
            "last-words"
        }

        fn process(&mut self, _: usize, _: &Element, _: &mut Output) -> Result<(), StreamError> {
            Ok(())
        }

        fn on_eos(&mut self, _port: usize, out: &mut Output) -> Result<(), StreamError> {
            out.emit(Tuple::single(1), Timestamp::from_micros(1));
            Ok(())
        }

        fn flush(&mut self, out: &mut Output) -> Result<(), StreamError> {
            out.emit(Tuple::single(2), Timestamp::from_micros(2));
            Ok(())
        }
    }

    #[test]
    fn what_on_eos_and_flush_emit_reaches_an_inline_successor_in_that_order_before_eos() {
        // Two callbacks in one dispatch: what `on_eos` and `flush` emitted
        // goes out as one run, and the EOS waits on the stack under it.
        // (Delivered one by one, the EOS went between the two.)
        let (sink, handle) = CollectingSink::new("s");
        let slots = vec![
            slot(1, Box::new(LastWords), vec![Target::Inline { node: NodeId(2), port: 0 }]),
            slot(2, Box::new(sink), vec![]),
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        exec.inject(NodeId(1), 0, Message::eos());
        let vals: Vec<i64> =
            handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, [1, 2]);
        assert!(handle.is_done() && exec.is_finished());
    }

    /// Emits 1 when a port closes; emits 2 at flush time and fails.
    struct LastWordsThenFails;

    impl Operator for LastWordsThenFails {
        fn name(&self) -> &str {
            "last-words-then-fails"
        }

        fn process(&mut self, _: usize, _: &Element, _: &mut Output) -> Result<(), StreamError> {
            Ok(())
        }

        fn on_eos(&mut self, port: usize, out: &mut Output) -> Result<(), StreamError> {
            LastWords.on_eos(port, out)
        }

        fn flush(&mut self, out: &mut Output) -> Result<(), StreamError> {
            LastWords.flush(out)?;
            Err(StreamError::Other("flush failed".into()))
        }
    }

    #[test]
    fn a_failing_flush_takes_back_its_own_output_and_not_what_on_eos_emitted() {
        let (sink, handle) = CollectingSink::new("s");
        let slots = vec![
            slot(
                1,
                Box::new(LastWordsThenFails),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            slot(2, Box::new(sink), vec![]),
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        exec.inject(NodeId(1), 0, Message::eos());
        let vals: Vec<i64> =
            handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, [1]);
        assert_eq!(exec.error(), Some(&StreamError::Other("flush failed".into())));
        assert!(handle.is_done() && exec.is_finished());
    }

    #[test]
    fn flush_output_reaches_inline_successor_before_eos() {
        // Regression: EOS used to be pushed *above* the flush outputs on
        // the LIFO stack, so an inline successor closed first and dropped
        // them.
        let (sink, handle) = CollectingSink::new("s");
        let slots = vec![
            slot(
                1,
                Box::new(FlushEmitter { seen: 0 }),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            slot(2, Box::new(sink), vec![]),
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        exec.inject(NodeId(1), 0, data(1, 1));
        exec.inject(NodeId(1), 0, data(2, 2));
        exec.inject(NodeId(1), 0, Message::eos());
        assert!(handle.is_done());
        let vals: Vec<i64> =
            handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, vec![2], "flush output delivered before the close");
    }
}
