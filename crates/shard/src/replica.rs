//! The replica wrapper: one data-parallel copy of the sharded operator.

use hmts_operators::traits::{Operator, Output};
use hmts_state::StatefulOperator;
use hmts_streams::element::{Element, SeqKind, SeqTag};
use hmts_streams::error::{Result, StreamError};
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;

/// Wraps one replica of the sharded operator, translating between the
/// splitter's tagged stream and the groups the merge reassembles.
///
/// Inbound, the inner operator gets the splitter's elements as they are —
/// the unsharded plan's tuples, each with its sequence tag beside it — a
/// whole run in one [`process_batch`](Operator::process_batch). By the
/// operator contract's tags-follow duty its results come back carrying the
/// tag of the input that produced them; outbound, the replica re-tags them
/// `more` … `last` per input, so the merge knows when a sequence group is
/// complete. An input that produced *nothing* still announces itself with
/// an empty-tuple `empty` marker; without it, a filtered-out element would
/// stall the merge's cursor forever.
pub struct ShardReplica {
    name: String,
    inner: Box<dyn Operator>,
    /// What the inner operator emits, before it is re-tagged into `out`.
    scratch: Output,
    /// The sequence tag and timestamp of each input of the run in hand.
    inputs: Vec<(SeqTag, Timestamp)>,
}

impl ShardReplica {
    /// Wraps `inner` as the replica named `name` (conventionally
    /// `base[i]`, minted by [`crate::names::replica`]).
    pub fn new(name: impl Into<String>, inner: Box<dyn Operator>) -> ShardReplica {
        ShardReplica { name: name.into(), inner, scratch: Output::new(), inputs: Vec::new() }
    }

    /// The wrapped operator.
    pub fn inner(&self) -> &dyn Operator {
        &*self.inner
    }

    /// Runs one inner callback into `scratch` and, if it succeeded, moves
    /// the results to `out` on the flush channel: output of a watermark
    /// handler, of `on_eos` or of `flush` has no arrival sequence. (None of the
    /// currently shardable operators emits there — expiry only — so this
    /// is future-proofing, not a hot path.)
    fn off_sequence(
        &mut self,
        out: &mut Output,
        call: impl FnOnce(&mut dyn Operator, &mut Output) -> Result<()>,
    ) -> Result<()> {
        self.scratch.clear();
        call(&mut *self.inner, &mut self.scratch)?;
        for e in self.scratch.drain() {
            out.push(e.with_seq(SeqTag::FLUSH));
        }
        Ok(())
    }
}

/// The error for an input that carries no sequence position.
fn no_tag(replica: &str) -> StreamError {
    StreamError::Other(format!(
        "shard replica '{replica}' received an element without a sequence tag"
    ))
}

/// Moves the results of `inputs` out of `results` into `out`, each tagged
/// with its place in its input's group — `more` … `last` — and an `empty`
/// marker where an input produced nothing. A result belongs to the input
/// whose tag it carries, and the results come in input order. Returns how
/// many results belonged to none of `inputs`; those are dropped.
fn retag(inputs: &[(SeqTag, Timestamp)], results: &mut Output, out: &mut Output) -> usize {
    let mut results = results.drain().peekable();
    for &(tag, ts) in inputs {
        let (seq, _) = tag.position().expect("only positions are noted");
        let of_input = |e: &Element| e.seq == tag;
        let Some(mut result) = results.next_if(of_input) else {
            let marker = Element::new(Tuple::empty(), ts);
            out.push(marker.with_seq(SeqTag::new(seq, SeqKind::Empty)));
            continue;
        };
        while let Some(next) = results.next_if(of_input) {
            let more = std::mem::replace(&mut result, next);
            out.push(more.with_seq(SeqTag::new(seq, SeqKind::More)));
        }
        out.push(result.with_seq(SeqTag::new(seq, SeqKind::Last)));
    }
    results.count()
}

/// What [`ShardReplica::process_batch`] leaves behind, however the inner
/// call ends: the results of the inputs the operator is done with — those
/// no longer in `run` — re-tagged into `out`, then any untagged rest of the
/// run put back behind what the call left of it.
struct Retagged<'a> {
    inputs: &'a mut Vec<(SeqTag, Timestamp)>,
    run: &'a mut Vec<Element>,
    results: &'a mut Output,
    out: &'a mut Output,
    untagged: Vec<Element>,
}

impl Retagged<'_> {
    /// Re-tags the results of the inputs that left the run and forgets
    /// those inputs; returns how many results had no input's tag.
    fn retag(&mut self) -> usize {
        let done = self.inputs.len().saturating_sub(self.run.len());
        let orphans = retag(&self.inputs[..done], self.results, self.out);
        self.inputs.clear();
        orphans
    }
}

impl Drop for Retagged<'_> {
    fn drop(&mut self) {
        self.retag();
        self.run.append(&mut self.untagged);
    }
}

impl Operator for ShardReplica {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_arity(&self) -> usize {
        self.inner.input_arity()
    }

    fn process(&mut self, port: usize, element: &Element, out: &mut Output) -> Result<()> {
        if element.seq.position().is_none() {
            return Err(no_tag(&self.name));
        }
        // All-or-nothing per sequence number: a failed element contributes
        // no partial group at the merge (`scratch` is cleared on entry).
        self.scratch.clear();
        self.inner.process(port, element, &mut self.scratch)?;
        self.scratch.stamp_tags(0, element);
        retag(&[(element.seq, element.ts)], &mut self.scratch, out);
        Ok(())
    }

    /// Hands the inner operator the whole run, still tagged, and re-tags
    /// what comes back from the tags the results carry. A failure keeps the
    /// operator contract's promise: the rest of the run stays in `run`, the
    /// failing element first, and `out` holds the re-tagged results of the
    /// elements before it — an untagged element fails in its turn.
    fn process_batch(
        &mut self,
        port: usize,
        run: &mut Vec<Element>,
        out: &mut Output,
    ) -> Result<()> {
        let ShardReplica { name, inner, scratch, inputs } = self;
        inputs.clear();
        inputs.extend(run.iter().map_while(|e| e.seq.position().map(|_| (e.seq, e.ts))));
        let untagged =
            if inputs.len() < run.len() { run.split_off(inputs.len()) } else { Vec::new() };
        scratch.clear();
        let mut rest = Retagged { inputs, run, results: scratch, out, untagged };
        inner.process_batch(port, rest.run, rest.results)?;
        let orphans = rest.retag();
        if orphans > 0 {
            return Err(StreamError::Other(format!(
                "shard replica '{name}': {orphans} results of '{}' carry no input's sequence tag",
                inner.name()
            )));
        }
        if !rest.untagged.is_empty() {
            return Err(no_tag(name));
        }
        Ok(())
    }

    fn on_watermark(&mut self, port: usize, watermark: Timestamp, out: &mut Output) -> Result<()> {
        self.off_sequence(out, |inner, scratch| inner.on_watermark(port, watermark, scratch))
    }

    fn flush(&mut self, out: &mut Output) -> Result<()> {
        self.off_sequence(out, |inner, scratch| inner.flush(scratch))
    }

    fn on_eos(&mut self, port: usize, out: &mut Output) -> Result<()> {
        self.off_sequence(out, |inner, scratch| inner.on_eos(port, scratch))
    }

    fn end_slice(&mut self) {
        self.inner.end_slice()
    }

    fn cost_hint(&self) -> Option<std::time::Duration> {
        // The wrapper's own share — noting the run, re-tagging what comes
        // back — is part of the about 75 ns a tuple the trio adds to the
        // aggregate it shards (`micro_shard`: `shard_trio_run32` less
        // `aggregate_run32`, one thread, runs of 32): the operator's hint
        // stands for the replica's.
        self.inner.cost_hint()
    }

    fn selectivity_hint(&self) -> Option<f64> {
        // Markers for empty groups push the tagged selectivity to at least
        // one output per input.
        self.inner.selectivity_hint().map(|s| s.max(1.0))
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulOperator> {
        // Checkpoint blobs are keyed by the executor under this wrapper's
        // name (`base[i]`), so each replica's state round-trips
        // independently.
        self.inner.stateful()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use std::time::Duration;

    fn tagged(v: i64, seq: u64) -> Element {
        Element::single(v, Timestamp::from_micros(seq)).with_seq(SeqTag::new(seq, SeqKind::Last))
    }

    /// Emits its input's tuple `field 0` times, as new (untagged) elements.
    struct Repeat;

    impl Operator for Repeat {
        fn name(&self) -> &str {
            "repeat"
        }

        fn process(&mut self, _port: usize, e: &Element, out: &mut Output) -> Result<()> {
            for _ in 0..e.tuple.field(0).as_int()? {
                out.emit(e.tuple.clone(), e.ts);
            }
            Ok(())
        }

        fn flush(&mut self, out: &mut Output) -> Result<()> {
            out.emit(Tuple::single(-1), Timestamp::ZERO);
            Ok(())
        }
    }

    #[test]
    fn a_passing_element_is_its_groups_last_and_a_dropped_one_a_marker() {
        let inner = Filter::new("f", Expr::field(0).lt(Expr::int(5)));
        let mut r = ShardReplica::new("f[0]", Box::new(inner));
        let mut out = Output::new();
        // Passing element: the same payload, tagged as its group's last.
        r.process(0, &tagged(3, 42), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let e = &out.elements()[0];
        assert_eq!(e.tuple, Tuple::single(3));
        assert_eq!(e.seq.position(), Some((42, SeqKind::Last)));
        out.clear();
        // Filtered element: an `empty` marker so the merge never stalls.
        r.process(0, &tagged(9, 43), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let m = &out.elements()[0];
        assert!(m.tuple.is_empty());
        assert_eq!(m.seq.position(), Some((43, SeqKind::Empty)));
        assert_eq!(m.ts, Timestamp::from_micros(43));
    }

    #[test]
    fn groups_are_tagged_more_then_last_and_flush_output_rides_the_flush_channel() {
        let mut r = ShardReplica::new("r[0]", Box::new(Repeat));
        let mut out = Output::new();
        r.process(0, &tagged(3, 7), &mut out).unwrap();
        let kinds: Vec<_> = out.drain().map(|e| e.seq.position().unwrap()).collect();
        assert_eq!(kinds, [(7, SeqKind::More), (7, SeqKind::More), (7, SeqKind::Last)]);
        r.flush(&mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.elements()[0].seq, SeqTag::FLUSH);
        assert_eq!(out.elements()[0].tuple, Tuple::single(-1));
    }

    /// A run in one call comes out as the same groups as its elements one
    /// at a time: `more` … `last`, or a marker for an input with no result.
    #[test]
    fn a_run_is_regrouped_from_the_tags_its_results_carry() {
        let counts = [2, 0, 1, 3, 0, 0, 1];
        let run = || -> Vec<Element> {
            counts.iter().enumerate().map(|(seq, n)| tagged(*n, seq as u64 * 3)).collect()
        };
        let mut one_by_one = ShardReplica::new("r[0]", Box::new(Repeat));
        let mut want = Output::new();
        for e in run() {
            one_by_one.process(0, &e, &mut want).unwrap();
        }
        let mut r = ShardReplica::new("r[0]", Box::new(Repeat));
        let (mut run, mut out) = (run(), Output::new());
        r.process_batch(0, &mut run, &mut out).unwrap();
        assert!(run.is_empty());
        let tags = |out: &Output| -> Vec<_> {
            out.elements().iter().map(|e| (e.tuple.clone(), e.ts, e.seq)).collect()
        };
        assert_eq!(tags(&out), tags(&want));
        use SeqKind::{Empty, Last, More};
        let kinds: Vec<_> = out.elements().iter().map(|e| e.seq.position().unwrap()).collect();
        let expected = [(0, More), (0, Last), (3, Empty), (6, Last), (9, More), (9, More)];
        assert_eq!(kinds[..6], expected);
        assert_eq!(kinds[6..], [(9, Last), (12, Empty), (15, Empty), (18, Last)]);
    }

    #[test]
    fn untagged_input_and_inner_errors_emit_nothing() {
        let inner = Filter::new("f", Expr::field(7).lt(Expr::int(1)));
        let mut r = ShardReplica::new("f[0]", Box::new(inner));
        let mut out = Output::new();
        assert!(r.process(0, &tagged(1, 0), &mut out).is_err());
        assert!(r.process(0, &Element::single(1, Timestamp::ZERO), &mut out).is_err());
        let flush = Element::single(1, Timestamp::ZERO).with_seq(SeqTag::FLUSH);
        assert!(r.process(0, &flush, &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn an_untagged_element_fails_in_its_turn_in_a_run() {
        let inner = Filter::new("f", Expr::field(0).lt(Expr::int(5)));
        let mut r = ShardReplica::new("f[0]", Box::new(inner));
        let untagged = Element::single(2, Timestamp::ZERO);
        let mut run = vec![tagged(1, 0), tagged(9, 1), untagged.clone(), tagged(3, 2)];
        let mut out = Output::new();
        assert!(r.process_batch(0, &mut run, &mut out).is_err());
        // The two before it went through, a result and a marker; it is
        // first in what is left, and the one behind it still tagged.
        let kinds: Vec<_> = out.elements().iter().map(|e| e.seq.position().unwrap()).collect();
        assert_eq!(kinds, [(0, SeqKind::Last), (1, SeqKind::Empty)]);
        assert_eq!(run, [untagged, tagged(3, 2)]);
        assert_eq!(run[1].seq.position(), Some((2, SeqKind::Last)));
    }

    /// Takes a run and emits one new element for it, ignoring the tags.
    struct Untagging;

    impl Operator for Untagging {
        fn name(&self) -> &str {
            "untagging"
        }

        fn process(&mut self, _port: usize, _e: &Element, _out: &mut Output) -> Result<()> {
            Ok(())
        }

        fn process_batch(
            &mut self,
            _port: usize,
            run: &mut Vec<Element>,
            out: &mut Output,
        ) -> Result<()> {
            run.clear();
            out.emit(Tuple::single(0), Timestamp::ZERO);
            Ok(())
        }
    }

    #[test]
    fn a_result_without_its_inputs_tag_is_an_error_not_a_lost_group() {
        let mut r = ShardReplica::new("u[0]", Box::new(Untagging));
        let (mut run, mut out) = (vec![tagged(1, 0)], Output::new());
        let refused = r.process_batch(0, &mut run, &mut out).unwrap_err();
        assert!(refused.to_string().contains("carry no input's sequence tag"), "{refused}");
        // The input is still accounted for at the merge.
        assert_eq!(out.len(), 1);
        assert_eq!(out.elements()[0].seq.position(), Some((0, SeqKind::Empty)));
    }

    #[test]
    fn silent_flush_emits_no_marker_and_hints_delegate() {
        use hmts_operators::aggregate::{AggregateFunction, WindowAggregate};
        let inner = WindowAggregate::new("a", AggregateFunction::Count, Duration::from_secs(1000));
        let mut r = ShardReplica::new("a[0]", Box::new(inner));
        let mut out = Output::new();
        r.process(0, &tagged(1, 0), &mut out).unwrap();
        out.clear();
        r.flush(&mut out).unwrap();
        // The window aggregate emits nothing at flush; no marker either.
        assert!(out.is_empty());
        // Hints delegate; the stateful surface reaches the inner operator.
        assert!(r.stateful().is_some());
        assert_eq!(r.selectivity_hint(), Some(1.0));
        assert_eq!(r.name(), "a[0]");
    }
}
