//! The order-restoring merge behind an operator's replicas.

use std::collections::VecDeque;

use hmts_operators::traits::{Operator, Output};
use hmts_state::{StateBlob, StateError, StatefulOperator};
use hmts_streams::element::{Element, SeqKind, SeqTag};
use hmts_streams::error::{Result, StreamError};

/// Restores the splitter's arrival order across N replica streams.
///
/// Every replica output carries a [`SeqTag`], and each port delivers its
/// replica's output in sequence order, so the merge is a sorted merge of
/// FIFO streams that only ever looks at their heads: it holds a cursor
/// (`next_seq`) over the splitter's dense sequence and emits a group only
/// when it is complete *and* every earlier sequence number has been
/// emitted. The result is a deterministic interleaving — byte-identical to
/// what the unsharded operator would have produced — no matter how the
/// scheduler interleaves the replicas.
///
/// A sequence number routed to a crashed-and-quarantined replica would
/// stall the cursor forever; the *dead-shard skip rule* advances past
/// `next_seq` once every port has either closed or progressed beyond it,
/// trading completeness (that data is lost anyway) for liveness.
pub struct OrderedMerge {
    name: String,
    next_seq: u64,
    /// What each port delivered ahead of the cursor, still tagged, in
    /// arrival order — which is sequence order. A port's progress (the
    /// highest sequence number it has shown) is the back of its run:
    /// nothing beyond the cursor is ever released.
    held: Vec<VecDeque<Element>>,
    /// Ports that delivered end-of-stream (not checkpointed: recovery
    /// reopens every port).
    eos: Vec<bool>,
    /// Flush-channel output (tagged [`SeqTag::FLUSH`]) held until
    /// [`flush`](Operator::flush), then emitted in port order for
    /// determinism.
    flush_buf: Vec<Vec<Element>>,
}

/// Sequence number and kind of an element in a port's run.
fn position(held: &Element) -> (u64, SeqKind) {
    held.seq.position().expect("only sequenced elements are held")
}

impl OrderedMerge {
    /// A merge over `n ≥ 1` replica input ports.
    pub fn new(name: impl Into<String>, n: usize) -> OrderedMerge {
        let n = n.max(1);
        OrderedMerge {
            name: name.into(),
            next_seq: 0,
            held: vec![VecDeque::new(); n],
            eos: vec![false; n],
            flush_buf: vec![Vec::new(); n],
        }
    }

    /// Number of sequence groups currently held back.
    pub fn pending_groups(&self) -> usize {
        let mut groups = 0;
        for run in &self.held {
            let mut last = None;
            for e in run {
                let seq = position(e).0;
                groups += usize::from(last != Some(seq));
                last = Some(seq);
            }
        }
        groups
    }

    /// The next sequence number the cursor will release.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The lowest sequence number any port holds.
    fn earliest_held(&self) -> Option<u64> {
        self.held.iter().filter_map(|run| run.front()).map(|head| position(head).0).min()
    }

    /// Emits every releasable group: complete groups at the cursor, and
    /// cursor positions no live port can still supply.
    fn advance(&mut self, out: &mut Output) {
        loop {
            let cursor = self.next_seq;
            let at_cursor = |run: &&mut VecDeque<Element>| {
                run.front().is_some_and(|head| position(head).0 == cursor)
            };
            if let Some(run) = self.held.iter_mut().find(at_cursor) {
                // A run is in sequence order, so its back tells whether the
                // head group is whole: anything but a `more` of the same
                // sequence number ends it.
                let back = run.back().expect("the run has a head");
                if position(back) == (cursor, SeqKind::More) {
                    // The rest is in flight on the same port and will arrive.
                    return;
                }
                release(run, cursor, out);
                self.next_seq += 1;
                continue;
            }
            // Nothing for the cursor yet. Skip only if later data is
            // already waiting AND no open port can still deliver it: each
            // port feeds the merge in sequence order, so a port holding
            // something has passed `next_seq` and will never revisit it,
            // and an open port holding nothing may still deliver it.
            if self.held.iter().zip(&self.eos).any(|(run, dead)| run.is_empty() && !dead) {
                return;
            }
            match self.earliest_held() {
                Some(seq) => self.next_seq = seq,
                None => return,
            }
        }
    }
}

/// Moves the group `seq` off the head of `run` into `out`, untagged (a
/// marker is dropped).
fn release(run: &mut VecDeque<Element>, seq: u64, out: &mut Output) {
    while run.front().is_some_and(|e| position(e).0 == seq) {
        let e = run.pop_front().expect("checked");
        if position(&e).1 != SeqKind::Empty {
            out.push(e.with_seq(SeqTag::NONE));
        }
    }
}

impl Operator for OrderedMerge {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_arity(&self) -> usize {
        self.held.len()
    }

    fn process(&mut self, port: usize, element: &Element, out: &mut Output) -> Result<()> {
        let arity = self.held.len();
        let Some(run) = self.held.get_mut(port) else {
            return Err(StreamError::InvalidPort { port, arity });
        };
        if element.seq == SeqTag::FLUSH {
            self.flush_buf[port].push(element.clone().with_seq(SeqTag::NONE));
            return Ok(());
        }
        let Some((seq, kind)) = element.seq.position() else {
            return Err(StreamError::Other(format!(
                "merge '{}' received an element without a sequence tag",
                self.name
            )));
        };
        if seq < self.next_seq {
            return Err(StreamError::Other(format!(
                "merge '{}' received seq {seq} behind cursor {} (duplicate delivery?)",
                self.name, self.next_seq
            )));
        }
        if run.back().is_some_and(|b| position(b).0 > seq) {
            return Err(StreamError::Other(format!(
                "merge '{}' received seq {seq} out of order on port {port}",
                self.name
            )));
        }
        if seq == self.next_seq && kind != SeqKind::More && run.is_empty() {
            // A whole group at the cursor: straight through.
            if kind == SeqKind::Last {
                out.push(element.clone().with_seq(SeqTag::NONE));
            }
            self.next_seq += 1;
        } else {
            run.push_back(element.clone());
        }
        self.advance(out);
        Ok(())
    }

    fn on_eos(&mut self, port: usize, out: &mut Output) -> Result<()> {
        if let Some(flag) = self.eos.get_mut(port) {
            *flag = true;
        }
        // A dead port may have been the only thing holding the cursor.
        self.advance(out);
        Ok(())
    }

    fn flush(&mut self, out: &mut Output) -> Result<()> {
        // Best effort on shutdown: whatever is still held goes out in
        // sequence order (incomplete groups included — their missing
        // elements can no longer arrive), then the flush channel in port
        // order.
        while let Some(seq) = self.earliest_held() {
            for run in &mut self.held {
                release(run, seq, out);
            }
        }
        for buf in &mut self.flush_buf {
            for e in buf.drain(..) {
                out.push(e);
            }
        }
        Ok(())
    }

    fn selectivity_hint(&self) -> Option<f64> {
        // Markers are dropped; data passes 1:1.
        Some(1.0)
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulOperator> {
        Some(self)
    }
}

/// Snapshot format v2: cursor, flush buffers, and each port's held run as
/// `(tag, element)` pairs — the one place a sequence tag is ever written
/// down. EOS flags are deliberately not persisted — recovery restarts every
/// replica, so all ports reopen. (v1 held in-tuple tags grouped by sequence
/// number; such a blob is refused by the version check.)
const MERGE_STATE_V2: u16 = 2;

impl StatefulOperator for OrderedMerge {
    fn snapshot(&self) -> StateBlob {
        StateBlob::build(MERGE_STATE_V2, |w| {
            w.put_u64(self.next_seq);
            w.put_u32(self.held.len() as u32);
            for buf in &self.flush_buf {
                w.put_u32(buf.len() as u32);
                for e in buf {
                    w.put_element(e);
                }
            }
            for run in &self.held {
                w.put_u32(run.len() as u32);
                for e in run {
                    w.put_u64(e.seq.bits());
                    w.put_element(e);
                }
            }
        })
    }

    fn restore(&mut self, blob: StateBlob) -> std::result::Result<(), StateError> {
        let mut r = blob.reader_for(MERGE_STATE_V2)?;
        let next_seq = r.u64()?;
        let arity = r.u32()? as usize;
        if arity != self.held.len() {
            return Err(StateError::Incompatible("merge arity changed across recovery"));
        }
        // Nothing is sized from a length the blob claims: every buffer
        // grows with the elements actually decoded.
        let mut flush_buf = Vec::new();
        for _ in 0..arity {
            let mut buf = Vec::new();
            for _ in 0..r.len_prefix()? {
                buf.push(r.element()?);
            }
            flush_buf.push(buf);
        }
        let mut held = Vec::new();
        for _ in 0..arity {
            let mut run = VecDeque::new();
            let mut progress = next_seq;
            for _ in 0..r.len_prefix()? {
                let tag = SeqTag::from_bits(r.u64()?).unwrap_or(SeqTag::NONE);
                let Some((seq, _)) = tag.position() else {
                    return Err(StateError::Incompatible("merge holds an element without a tag"));
                };
                if seq < progress {
                    return Err(StateError::Incompatible("merge run out of sequence order"));
                }
                progress = seq;
                run.push_back(r.element()?.with_seq(tag));
            }
            held.push(run);
        }
        r.expect_end()?;
        self.next_seq = next_seq;
        self.flush_buf = flush_buf;
        self.held = held;
        self.eos = vec![false; arity];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;

    fn tagged(v: i64, tag: SeqTag) -> Element {
        let ts = Timestamp::from_micros(tag.position().map_or(0, |(seq, _)| seq));
        Element::single(v, ts).with_seq(tag)
    }

    /// The only (or final) result of sequence number `seq`.
    fn last(v: i64, seq: u64) -> Element {
        tagged(v, SeqTag::new(seq, SeqKind::Last))
    }

    /// A result of `seq` with more to follow.
    fn more(v: i64, seq: u64) -> Element {
        tagged(v, SeqTag::new(seq, SeqKind::More))
    }

    fn marker(seq: u64) -> Element {
        Element::new(Tuple::empty(), Timestamp::from_micros(seq))
            .with_seq(SeqTag::new(seq, SeqKind::Empty))
    }

    /// Drains `out`; everything the merge emits is untagged.
    fn vals(out: &mut Output) -> Vec<i64> {
        out.drain()
            .map(|e| {
                assert!(e.seq.is_none(), "the merge forwarded a tag");
                e.tuple.field(0).as_int().unwrap()
            })
            .collect()
    }

    #[test]
    fn restores_sequence_order_across_ports() {
        let mut m = OrderedMerge::new("m", 2);
        let mut out = Output::new();
        // Seq 1 arrives on port 1 before seq 0 on port 0.
        m.process(1, &last(11, 1), &mut out).unwrap();
        assert!(out.is_empty());
        m.process(0, &last(10, 0), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![10, 11]);
        assert_eq!(m.next_seq(), 2);
    }

    #[test]
    fn markers_unblock_without_emitting() {
        let mut m = OrderedMerge::new("m", 2);
        let mut out = Output::new();
        m.process(1, &last(11, 1), &mut out).unwrap();
        m.process(0, &marker(0), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![11]);
        // Held ahead of the cursor, a marker is dropped the same way.
        m.process(1, &marker(3), &mut out).unwrap();
        m.process(0, &last(12, 2), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![12]);
        assert_eq!((m.next_seq(), m.pending_groups()), (4, 0));
    }

    #[test]
    fn multi_element_groups_wait_for_completion() {
        let mut m = OrderedMerge::new("m", 2);
        let mut out = Output::new();
        m.process(0, &more(1, 0), &mut out).unwrap();
        assert!(out.is_empty(), "half a group must not emit");
        m.process(0, &last(2, 0), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![1, 2]);
        // Likewise ahead of the cursor: the cursor reaching a group whose
        // tail is still in flight waits for it.
        m.process(1, &more(3, 2), &mut out).unwrap();
        m.process(0, &last(9, 1), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![9]);
        assert_eq!(m.next_seq(), 2);
        m.process(1, &more(4, 2), &mut out).unwrap();
        assert!(out.is_empty());
        m.process(1, &last(5, 2), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![3, 4, 5]);
    }

    #[test]
    fn dead_port_skips_lost_sequences() {
        let mut m = OrderedMerge::new("m", 2);
        let mut out = Output::new();
        // Seq 0 was routed to port 0, which dies without delivering it.
        m.process(1, &last(11, 1), &mut out).unwrap();
        assert!(out.is_empty());
        m.on_eos(0, &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![11]);
        assert_eq!(m.next_seq(), 2);
    }

    #[test]
    fn live_port_behind_cursor_blocks_skip() {
        let mut m = OrderedMerge::new("m", 3);
        let mut out = Output::new();
        m.process(1, &last(11, 1), &mut out).unwrap();
        m.on_eos(0, &mut out).unwrap();
        // Port 2 is alive and has shown no progress: seq 0 might still be
        // in flight there, so nothing may be emitted yet.
        assert!(out.is_empty());
        m.process(2, &last(12, 2), &mut out).unwrap();
        // Now every port is past seq 0: release 1 and 2 in order.
        assert_eq!(vals(&mut out), vec![11, 12]);
    }

    #[test]
    fn flush_channel_is_held_until_flush_in_port_order() {
        let mut m = OrderedMerge::new("m", 2);
        let mut out = Output::new();
        m.process(1, &tagged(21, SeqTag::FLUSH), &mut out).unwrap();
        m.process(0, &tagged(20, SeqTag::FLUSH), &mut out).unwrap();
        m.process(0, &last(1, 0), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![1]);
        // Whatever is still held goes first, in sequence order, whole or not.
        m.process(1, &last(4, 3), &mut out).unwrap();
        m.process(0, &more(3, 2), &mut out).unwrap();
        m.flush(&mut out).unwrap();
        assert_eq!(vals(&mut out), vec![3, 4, 20, 21]);
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        let mut m = OrderedMerge::new("m", 2);
        let mut out = Output::new();
        assert!(m.process(5, &last(1, 0), &mut out).is_err());
        // An untagged element.
        assert!(m.process(0, &Element::single(1, Timestamp::ZERO), &mut out).is_err());
        m.process(0, &last(1, 0), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![1]);
        // A tag behind the cursor, and a second `last` for a sequence
        // number already released.
        assert!(m.process(1, &more(2, 0), &mut out).is_err());
        assert!(m.process(0, &last(1, 0), &mut out).is_err());
        // A port going backwards in sequence.
        m.process(0, &last(3, 4), &mut out).unwrap();
        assert!(m.process(0, &last(4, 2), &mut out).is_err());
        assert!(out.is_empty(), "a refused element emits nothing");
        assert_eq!((m.next_seq(), m.pending_groups()), (1, 1));
    }

    #[test]
    fn snapshot_restore_round_trips_held_state() {
        let mut m = OrderedMerge::new("m", 2);
        let mut out = Output::new();
        m.process(1, &last(11, 1), &mut out).unwrap();
        m.process(1, &more(12, 2), &mut out).unwrap();
        m.process(0, &tagged(20, SeqTag::FLUSH), &mut out).unwrap();
        assert!(out.is_empty());
        let blob = m.snapshot();

        let mut fresh = OrderedMerge::new("m", 2);
        fresh.restore(blob).unwrap();
        assert_eq!(fresh.pending_groups(), 2);
        assert_eq!(fresh.next_seq(), 0);
        assert_eq!(fresh.snapshot().payload(), m.snapshot().payload());
        // The restored merge completes exactly like the original would.
        fresh.process(0, &marker(0), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![11]);
        fresh.process(1, &last(13, 2), &mut out).unwrap();
        assert_eq!(vals(&mut out), vec![12, 13]);
        fresh.flush(&mut out).unwrap();
        assert_eq!(vals(&mut out), vec![20]);

        // Arity mismatch is a typed incompatibility.
        let mut wrong = OrderedMerge::new("m", 3);
        assert!(matches!(wrong.restore(m.snapshot()), Err(StateError::Incompatible(_))));
    }

    #[test]
    fn restore_refuses_a_v1_blob_and_runs_no_port_could_have_delivered() {
        let mut m = OrderedMerge::new("m", 1);
        // The format before the out-of-band tag: refused by its version.
        let v1 = StateBlob::build(1, |w| {
            w.put_u64(0);
            w.put_u32(1);
        });
        assert!(matches!(m.restore(v1), Err(StateError::UnsupportedVersion(1))));
        let run_of = |cursor: u64, tags: &[u64]| {
            StateBlob::build(MERGE_STATE_V2, |w| {
                w.put_u64(cursor);
                w.put_u32(1);
                w.put_u32(0);
                w.put_u32(tags.len() as u32);
                for bits in tags {
                    w.put_u64(*bits);
                    w.put_element(&Element::single(1, Timestamp::ZERO));
                }
            })
        };
        let bits = |seq| SeqTag::new(seq, SeqKind::Last).bits();
        for (cursor, tags) in [
            (0, vec![0]),                    // untagged
            (0, vec![SeqTag::FLUSH.bits()]), // the flush channel is not a position
            (0, vec![8]),                    // a sequence number without a kind
            (5, vec![bits(4)]),              // behind the cursor
            (0, vec![bits(3), bits(2)]),     // out of sequence order
        ] {
            let refused = m.restore(run_of(cursor, &tags));
            assert!(matches!(refused, Err(StateError::Incompatible(_))), "{cursor} {tags:?}");
            assert_eq!((m.next_seq(), m.pending_groups()), (0, 0), "a refusal changes nothing");
        }
        m.restore(run_of(2, &[bits(2), bits(5)])).unwrap();
        assert_eq!((m.next_seq(), m.pending_groups()), (2, 2));
    }
}
