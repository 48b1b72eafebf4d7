//! The hash-partitioning splitter inserted in front of an operator's
//! replicas.

use hmts_operators::expr::Expr;
use hmts_operators::traits::{Operator, Output};
use hmts_state::{StateBlob, StateError, StatefulOperator};
use hmts_streams::element::{Element, SeqKind, SeqTag};
use hmts_streams::error::Result;

use crate::partitioner::HashPartitioner;

/// Routes each element to the replica owning its key, tagging it with a
/// dense arrival sequence number.
///
/// The tag (an out-of-band [`SeqTag`] on a pointer copy of the input) is
/// the whole ordering story: it freezes the splitter's arrival order as
/// *the* canonical interleaving, which the merge restores regardless of how
/// the scheduler interleaves the replicas. The counter is checkpointed
/// state — after recovery the replayed element gets the same sequence
/// number it had in the crashed run, so the merge's cursor and the restored
/// tags stay consistent.
pub struct ShardSplit {
    name: String,
    key: Expr,
    partitioner: HashPartitioner,
    seq: u64,
}

impl ShardSplit {
    /// A splitter routing on `key` over `n` shards.
    pub fn new(name: impl Into<String>, key: Expr, n: usize) -> ShardSplit {
        ShardSplit { name: name.into(), key, partitioner: HashPartitioner::new(n), seq: 0 }
    }

    /// The key expression.
    pub fn key(&self) -> &Expr {
        &self.key
    }

    /// Number of shards routed to.
    pub fn shards(&self) -> usize {
        self.partitioner.shards()
    }

    /// The next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }
}

impl Operator for ShardSplit {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: usize, element: &Element, out: &mut Output) -> Result<()> {
        let shard = self.partitioner.shard_of(&*self.key.eval_ref(&element.tuple)?);
        let tagged = element.clone().with_seq(SeqTag::new(self.seq, SeqKind::Last));
        // The counter advances only after the key evaluated: a failed
        // element produces no sequence gap at the merge.
        self.seq += 1;
        out.push_routed(shard, tagged);
        Ok(())
    }

    fn cost_hint(&self) -> Option<std::time::Duration> {
        // One expression eval, one hash, one pointer copy. Measured: the
        // ledger's span around `agg.split` in traced `keyed_agg_shard2`
        // runs has a median of 60–61 ns, of which 25 are the span's own
        // clock pair (what it reads around a 24 ns filter, less the filter).
        Some(std::time::Duration::from_nanos(35))
    }

    fn selectivity_hint(&self) -> Option<f64> {
        Some(1.0)
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulOperator> {
        Some(self)
    }
}

/// Snapshot format v1: the sequence counter.
const SPLIT_STATE_V1: u16 = 1;

impl StatefulOperator for ShardSplit {
    fn snapshot(&self) -> StateBlob {
        StateBlob::build(SPLIT_STATE_V1, |w| w.put_u64(self.seq))
    }

    fn restore(&mut self, blob: StateBlob) -> std::result::Result<(), StateError> {
        let mut r = blob.reader_for(SPLIT_STATE_V1)?;
        let seq = r.u64()?;
        r.expect_end()?;
        if seq > SeqTag::MAX_SEQ {
            return Err(StateError::Incompatible("split counter beyond the tag's sequence range"));
        }
        self.seq = seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_streams::time::Timestamp;
    use hmts_streams::value::Value;

    fn el(v: i64, micros: u64) -> Element {
        Element::single(v, Timestamp::from_micros(micros))
    }

    #[test]
    fn routes_by_key_and_tags_dense_sequence() {
        let mut s = ShardSplit::new("s", Expr::field(0), 4);
        let mut out = Output::new();
        for i in 0..10 {
            s.process(0, &el(i, i as u64), &mut out).unwrap();
        }
        let routes = out.take_routes();
        let p = HashPartitioner::new(4);
        assert_eq!(routes.len(), 10);
        for (i, e) in out.elements().iter().enumerate() {
            // Route matches the partitioner, the payload is the input's
            // own, the tag is the dense sequence number.
            assert_eq!(routes[i], p.shard_of(&Value::Int(i as i64)));
            assert_eq!(e, &el(i as i64, i as u64));
            assert_eq!(e.seq.position(), Some((i as u64, SeqKind::Last)));
        }
        assert_eq!(s.next_seq(), 10);
    }

    #[test]
    fn key_error_leaves_no_sequence_gap() {
        let mut s = ShardSplit::new("s", Expr::field(5), 2);
        let mut out = Output::new();
        assert!(s.process(0, &el(1, 0), &mut out).is_err());
        assert_eq!(s.next_seq(), 0);
    }

    #[test]
    fn snapshot_restore_preserves_counter() {
        let mut s = ShardSplit::new("s", Expr::field(0), 2);
        let mut out = Output::new();
        for i in 0..7 {
            s.process(0, &el(i, 0), &mut out).unwrap();
        }
        let blob = s.snapshot();
        let mut fresh = ShardSplit::new("s", Expr::field(0), 2);
        fresh.restore(blob).unwrap();
        assert_eq!(fresh.next_seq(), 7);
        assert!(fresh.restore(StateBlob::new(9, Vec::new())).is_err());
        // A counter no tag can carry is refused, not wrapped.
        let beyond = StateBlob::build(SPLIT_STATE_V1, |w| w.put_u64(SeqTag::MAX_SEQ + 1));
        assert!(matches!(fresh.restore(beyond), Err(StateError::Incompatible(_))));
        assert_eq!(fresh.next_seq(), 7);
    }
}
