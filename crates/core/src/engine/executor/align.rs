//! Barrier alignment for aligned checkpoints (Chandy–Lamport style; see
//! [`crate::checkpoint`]).
//!
//! Once a port of a slot delivered the barrier, everything after it on that
//! port is parked until the barrier arrives on the remaining ports, so pre-
//! and post-barrier input never mix in the snapshot; a run is parked and
//! replayed as the one entry it is. The core calls in at
//! [`SlotAlign::holds`] (every run and punctuation; one branch when the
//! slot is not aligning), [`DomainExecutor::process_barrier`] (a barrier),
//! [`DomainExecutor::check_alignment`] (a port closed),
//! [`Align::release`] (a chain reaction ran dry), [`Align::slot_closed`]
//! (the live-slot quorum) and [`Align::take_remnants`] (re-wiring).

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use hmts_graph::graph::NodeId;
use hmts_streams::element::{Message, Punctuation};

use super::{DomainExecutor, Slot, Work};
use crate::checkpoint::CheckpointShared;

/// Alignment state of one slot between its first and last barrier for a
/// checkpoint: which ports delivered the barrier, the input held back on
/// those ports, and when alignment started (for the stall metric).
struct AlignState {
    id: u64,
    seen: Vec<bool>,
    held: VecDeque<(usize, Work)>,
    started: Instant,
}

/// What barrier alignment keeps per slot.
#[derive(Default)]
pub(super) struct SlotAlign {
    /// Alignment in progress, if any.
    state: Option<Box<AlignState>>,
    /// Highest checkpoint id this slot has started (or completed) an
    /// alignment for. Barriers at or below it are duplicates from an
    /// aborted attempt and are dropped instead of restarting alignment.
    last: u64,
}

impl SlotAlign {
    /// Hold-back: whether the slot is aligning and `port` already delivered
    /// the barrier, so what follows on it must be [`hold`](Self::hold)-ed
    /// rather than dispatched.
    #[inline]
    pub(super) fn holds(&self, port: usize) -> bool {
        self.state.as_deref().is_some_and(|al| al.seen.get(port) == Some(&true))
    }

    /// Parks `work` until the alignment in progress completes.
    pub(super) fn hold(&mut self, port: usize, work: Work) {
        if let Some(al) = self.state.as_deref_mut() {
            al.held.push_back((port, work));
        }
    }
}

/// The checkpoint state of one executor.
#[derive(Default)]
pub(super) struct Align {
    pub(super) checkpoint: Option<Arc<CheckpointShared>>,
    /// Input released from hold-back, re-delivered once the current chain
    /// reaction (including barrier propagation) completes:
    /// `(slot, port, work)`.
    replay: VecDeque<(usize, usize, Work)>,
}

impl Align {
    /// Moves the replay backlog onto the (empty) chain-reaction `stack`,
    /// oldest on top; returns whether there was any. Only called once the
    /// stack ran dry: the barrier forwarded at alignment has then fully
    /// propagated through the DI chain, so no post-barrier output can
    /// overtake it on the way to a downstream slot.
    #[inline]
    pub(super) fn release(&mut self, stack: &mut Vec<(usize, usize, Work)>) -> bool {
        if self.replay.is_empty() {
            return false;
        }
        stack.extend(self.replay.drain(..).rev());
        true
    }

    /// Books one slot closure in the checkpoint coordinator's alignment
    /// quorum.
    pub(super) fn slot_closed(&self) {
        if let Some(ck) = &self.checkpoint {
            let _ = ck
                .live_slots()
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
        }
    }

    /// In-flight alignment state does not survive a re-wiring: held input
    /// and the replay backlog become ordinary remnants, a run as its
    /// messages (the checkpoint they were parked for is aborted by its
    /// timeout and retried against the new wiring).
    pub(super) fn take_remnants(
        &mut self,
        slots: &mut [Slot],
        out: &mut Vec<(NodeId, usize, Message)>,
    ) {
        for (i, port, work) in std::mem::take(&mut self.replay) {
            work.into_messages(slots[i].state.node, port, out);
        }
        for s in slots {
            if let Some(al) = s.align.state.take() {
                al.held
                    .into_iter()
                    .for_each(|(port, work)| work.into_messages(s.state.node, port, out));
            }
        }
    }
}

impl DomainExecutor {
    /// Handles a barrier arriving at slot `i` on `port`: starts (or joins)
    /// the alignment for checkpoint `id`.
    pub(super) fn process_barrier(&mut self, i: usize, port: usize, id: u64) {
        let slot = &mut self.slots[i];
        match slot.align.state.as_deref_mut() {
            Some(al) if al.id == id => {
                if let Some(seen) = al.seen.get_mut(port) {
                    *seen = true;
                }
            }
            Some(al) if id > al.id => {
                // A barrier from a *newer* checkpoint while an older
                // alignment is still parked: the old attempt was abandoned
                // (coordinator timeout, plan switch). The input held back
                // for it arrived *before* this barrier, so it is
                // pre-barrier for checkpoint `id`: it goes through the
                // operator next, before any alignment state for `id`
                // exists, so its effects land in the new snapshot instead
                // of being re-parked as post-barrier input (which would
                // lose it — the source's acked offset includes it). The
                // barrier goes under it on the stack and re-enters here
                // behind it, unless the backlog terminated the slot (EOS or
                // quarantine; downstream already got its EOS then). A newer
                // barrier parked inside the held backlog re-enters here too
                // and starts its own alignment at the right point.
                let old = slot.align.state.take().expect("matched above");
                self.stack.push((i, port, Work::Punct(Punctuation::Barrier(id))));
                self.stack.extend(old.held.into_iter().rev().map(|(p, work)| (i, p, work)));
                return;
            }
            Some(_) => {
                // A late barrier from an already-superseded (aborted)
                // attempt: drop it. Restarting alignment with an old id
                // would ping-pong the slot between checkpoints.
                return;
            }
            None => {
                if id <= slot.align.last {
                    // Duplicate of an alignment this slot already started
                    // or completed (a straggler path of an aborted
                    // attempt).
                    return;
                }
                let mut seen = vec![false; slot.state.op.input_arity()];
                if let Some(s) = seen.get_mut(port) {
                    *s = true;
                }
                let (held, started) = (VecDeque::new(), Instant::now());
                slot.align.state = Some(Box::new(AlignState { id, seen, held, started }));
                slot.align.last = id;
            }
        }
        self.check_alignment(i);
    }

    /// If slot `i` is aligning and the barrier has arrived on every port
    /// that is still open (EOS-closed ports count as aligned), completes
    /// the alignment: snapshot, acknowledge, forward the barrier, release
    /// held input for replay.
    pub(super) fn check_alignment(&mut self, i: usize) {
        let Slot { state, align, routes, .. } = &mut self.slots[i];
        let Some(al) = align.state.as_deref() else {
            return;
        };
        if state.closed {
            // The slot terminated (quarantine) mid-alignment; its held
            // input is moot — downstream already received EOS.
            align.state = None;
            return;
        }
        if !al.seen.iter().enumerate().all(|(p, seen)| *seen || !state.eos.is_open(p)) {
            return;
        }
        let al = align.state.take().expect("checked above");
        let stall_ns = al.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if routes.is_empty() {
            // A sink's results from before the cut leave before the cut is
            // acknowledged, not at the end of the slice the barrier is in.
            state.op.end_slice();
        }
        let blob = state.op.stateful().map(|s| s.snapshot());
        if let Some(ck) = &self.align.checkpoint {
            ck.ack_operator(al.id, state.op.name(), blob, stall_ns);
        }
        self.forward_punct(i, Punctuation::Barrier(al.id));
        self.align.replay.extend(al.held.into_iter().map(|(port, work)| (i, port, work)));
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{contents, data, slot};
    use super::super::{ExecConfig, Target};
    use super::*;
    use crate::scheduler::strategy::StrategyKind;
    use hmts_streams::element::Element;
    use hmts_streams::queue::StreamQueue;
    use hmts_streams::time::Timestamp;

    /// Binary union 1 -> queue `out`, injected directly. Barriers and data
    /// forwarded by the union land in `out` in delivery order, so tests
    /// can assert exactly what crossed the slot and when.
    fn union_to_queue() -> (DomainExecutor, Arc<StreamQueue>) {
        let out = StreamQueue::unbounded("out");
        let slots = vec![slot(
            1,
            Box::new(hmts_operators::union::Union::new("u", 2)),
            vec![Target::Queue { queue: Arc::clone(&out), wake: None }],
        )];
        let exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        (exec, out)
    }

    fn drain(q: &StreamQueue) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some(m) = q.try_pop() {
            out.push(m);
        }
        out
    }

    fn barrier(id: u64) -> Message {
        Message::Punct(Punctuation::Barrier(id))
    }

    #[test]
    fn newer_barrier_delivers_stale_held_input_pre_barrier() {
        let (mut exec, out) = union_to_queue();
        // Alignment for checkpoint 1 starts on port 0; the next element on
        // that port is held back.
        exec.inject(NodeId(1), 0, barrier(1));
        exec.inject(NodeId(1), 0, data(10, 1));
        exec.inject(NodeId(1), 0, data(11, 1));
        assert_eq!(out.len(), 0, "elements must be parked during alignment");
        // Checkpoint 1 was abandoned (its barrier never reaches port 1);
        // checkpoint 2's barrier arrives instead. The held element predates
        // that barrier, so it must be delivered — in order — *before*
        // checkpoint 2's alignment can park it again.
        exec.inject(NodeId(1), 1, barrier(2));
        exec.inject(NodeId(1), 0, data(20, 2));
        exec.inject(NodeId(1), 0, barrier(2));
        let msgs = drain(&out);
        let vals: Vec<i64> = msgs
            .iter()
            .filter_map(|m| m.as_data())
            .map(|e| e.tuple.field(0).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![10, 11, 20], "held pre-barrier elements must not be lost");
        let barriers: Vec<u64> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::Punct(Punctuation::Barrier(id)) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(barriers, vec![2], "only the completed checkpoint's barrier is forwarded");
        // The held element was processed before the new alignment snapshot
        // point: it must precede the forwarded barrier in the output.
        assert!(matches!(msgs.last(), Some(Message::Punct(Punctuation::Barrier(2)))));
    }

    #[test]
    fn late_barrier_from_aborted_attempt_does_not_restart_alignment() {
        let (mut exec, out) = union_to_queue();
        // Alignment for checkpoint 2 in progress on port 0.
        exec.inject(NodeId(1), 0, barrier(2));
        // A straggler barrier from aborted checkpoint 1 arrives on port 1:
        // it must be dropped, not restart alignment at the old id.
        exec.inject(NodeId(1), 1, barrier(1));
        // Port 1 is still pre-barrier for checkpoint 2: data flows.
        exec.inject(NodeId(1), 1, data(7, 1));
        assert_eq!(out.len(), 1, "port 1 must not be parked by the stale barrier");
        exec.inject(NodeId(1), 1, barrier(2));
        let msgs = drain(&out);
        let barriers: Vec<u64> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::Punct(Punctuation::Barrier(id)) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(barriers, vec![2], "checkpoint 2 completes exactly once; 1 is dropped");
    }

    #[test]
    fn duplicate_barrier_after_completed_alignment_is_ignored() {
        let (mut exec, out) = union_to_queue();
        exec.inject(NodeId(1), 0, barrier(3));
        exec.inject(NodeId(1), 1, barrier(3));
        assert_eq!(drain(&out).len(), 1, "alignment completed, barrier forwarded");
        // A duplicate of the finished checkpoint's barrier (straggler path)
        // must not start a fresh alignment that would park input.
        exec.inject(NodeId(1), 0, barrier(3));
        exec.inject(NodeId(1), 0, data(5, 1));
        let msgs = drain(&out);
        assert_eq!(msgs.len(), 1, "no second barrier forwarded, data not parked");
        assert!(msgs[0].as_data().is_some());
    }

    #[test]
    fn a_run_on_a_held_port_is_replayed_in_order_behind_the_barrier() {
        let (mut exec, out) = union_to_queue();
        exec.inject(NodeId(1), 0, barrier(1));
        let run = |values: std::ops::RangeInclusive<i64>| -> Vec<Element> {
            values.map(|v| Element::single(v, Timestamp::from_micros(v as u64))).collect()
        };
        exec.inject_batch(NodeId(1), 0, &mut run(1..=3));
        exec.inject(NodeId(1), 1, data(4, 4));
        assert_eq!(contents(&out), ["4"], "the run on port 0 is held");
        exec.inject(NodeId(1), 1, barrier(1));
        assert_eq!(contents(&out), ["B", "1", "2", "3"]);
        // A re-wiring in the middle of an alignment finds a held run as its
        // messages.
        exec.inject(NodeId(1), 1, barrier(2));
        exec.inject_batch(NodeId(1), 1, &mut run(5..=6));
        let remnants: Vec<i64> = exec
            .take_input_remnants()
            .into_iter()
            .map(|(_, port, m)| {
                assert_eq!(port, 1);
                m.as_data().unwrap().tuple.field(0).as_int().unwrap()
            })
            .collect();
        assert_eq!(remnants, [5, 6]);
    }
}
