//! The replica wrapper: one data-parallel copy of the sharded operator.

use hmts_operators::traits::{Operator, Output};
use hmts_state::StatefulOperator;
use hmts_streams::element::{Element, SeqKind, SeqTag};
use hmts_streams::error::{Result, StreamError};
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;

/// Wraps one replica of the sharded operator, translating between the
/// splitter's tagged stream and the inner operator's untagged world.
///
/// Inbound, the inner operator gets an untagged pointer copy of the
/// element — exactly what the unsharded plan would hand it. Outbound, its
/// results leave tagged with the input's sequence number, `more` … `last`,
/// so the merge knows when a sequence group is complete. An input that
/// produced *nothing* still announces itself with an empty-tuple `empty`
/// marker; without it, a filtered-out element would stall the merge's
/// cursor forever.
pub struct ShardReplica {
    name: String,
    inner: Box<dyn Operator>,
    scratch: Output,
}

impl ShardReplica {
    /// Wraps `inner` as the replica named `name` (conventionally
    /// `base[i]`, minted by [`crate::names::replica`]).
    pub fn new(name: impl Into<String>, inner: Box<dyn Operator>) -> ShardReplica {
        ShardReplica { name: name.into(), inner, scratch: Output::new() }
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

impl Operator for ShardReplica {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_arity(&self) -> usize {
        self.inner.input_arity()
    }

    // `process_batch` is the provided loop over `process`: the tags are per
    // element, so the inner operator is handed one element at a time.
    fn process(&mut self, _port: usize, element: &Element, out: &mut Output) -> Result<()> {
        let Some((seq, _)) = element.seq.position() else {
            return Err(StreamError::Other(format!(
                "shard replica '{}' received an element without a sequence tag",
                self.name
            )));
        };
        self.scratch.clear();
        // All-or-nothing per sequence number: a failed element contributes
        // no partial group at the merge (`scratch` is cleared on entry).
        self.inner.process(0, &element.clone().with_seq(SeqTag::NONE), &mut self.scratch)?;
        let results = self.scratch.len();
        if results == 0 {
            let marker = Element::new(Tuple::empty(), element.ts);
            out.push(marker.with_seq(SeqTag::new(seq, SeqKind::Empty)));
        }
        for (i, e) in self.scratch.drain().enumerate() {
            let kind = if i + 1 == results { SeqKind::Last } else { SeqKind::More };
            out.push(e.with_seq(SeqTag::new(seq, kind)));
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
        // The wrapper's own share — a pointer copy in, a tag per result out
        // — is about 40 ns (`shard.split_merge_ns` 143 less the splitter's
        // 35, the merge's 45 and the probe's 24 ns filter): the operator's
        // hint stands for the replica's.
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

    /// Emits its input `field 0` times; refuses a tagged input.
    struct Repeat;

    impl Operator for Repeat {
        fn name(&self) -> &str {
            "repeat"
        }

        fn process(&mut self, _port: usize, e: &Element, out: &mut Output) -> Result<()> {
            if !e.seq.is_none() {
                return Err(StreamError::Other(format!("operator saw tag {:?}", e.seq)));
            }
            for _ in 0..e.tuple.field(0).as_int()? {
                out.push(e.clone());
            }
            Ok(())
        }

        fn flush(&mut self, out: &mut Output) -> Result<()> {
            out.emit(Tuple::single(-1), Timestamp::ZERO);
            Ok(())
        }
    }

    #[test]
    fn hides_the_tag_from_the_operator_and_tags_its_outputs() {
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
