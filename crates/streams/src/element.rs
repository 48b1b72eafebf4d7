//! Stream elements and the messages that flow along query-graph edges.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::time::Timestamp;
use crate::tuple::Tuple;

/// A per-tuple trace-context tag carried by [`Element`]s.
///
/// `0` means *untraced* (the overwhelmingly common case); any other value
/// is the globally unique trace id of a sampled tuple, assigned at the
/// source and propagated hop by hop through queues and operators. The tag
/// is one `u64` copy per element and one non-zero branch per check, so
/// threading it through the engine costs nothing measurable when tracing
/// is off — the invariant the `hmts-obs` disabled-path tests pin down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceTag(u64);

impl TraceTag {
    /// The untraced tag (the default for every constructed element).
    pub const NONE: TraceTag = TraceTag(0);

    /// A tag carrying the given trace id (`0` is equivalent to
    /// [`TraceTag::NONE`]).
    pub fn new(id: u64) -> TraceTag {
        TraceTag(id)
    }

    /// Whether this element was selected for tracing.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.0 != 0
    }

    /// The trace id (0 when untraced).
    #[inline]
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// Where a replica's output belongs in a sharded operator's arrival order
/// (`hmts-shard`): one word carried *beside* the payload, so tagging and
/// untagging an element copies a pointer instead of the tuple.
///
/// Layout: sequence number in the upper 62 bits, kind in the lower two —
/// `more` (further results of this sequence number follow on this port),
/// `last` (the group is complete) or `empty` (a marker: the input produced
/// nothing). All-zero is *untagged*, all-one is the flush channel (output
/// with no arrival position). The splitter sets the tag; the operator in a
/// replica sees it and, like a trace tag, copies it onto the results of its
/// input (the tags-follow duty of `Operator::process_batch`); the replica
/// sets each result's kind, and the merge reads and clears it. Nothing after
/// the merge sees one, and no codec (checkpoint blobs, wire frames) writes
/// it — only the merge's own snapshot stores the tags of what it holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SeqTag(u64);

/// The kind of a sequenced [`SeqTag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqKind {
    /// More results of the same sequence number follow on this port.
    More = 1,
    /// The last result of its sequence number.
    Last = 2,
    /// A payload-free marker: the sequence number produced no result.
    Empty = 3,
}

impl SeqTag {
    /// Untagged (every element outside a split → merge section).
    pub const NONE: SeqTag = SeqTag(0);

    /// The flush channel: replica output produced outside the per-element
    /// path (`flush`, watermark handlers), which has no arrival position.
    pub const FLUSH: SeqTag = SeqTag(u64::MAX);

    /// The largest sequence number a tag can carry.
    pub const MAX_SEQ: u64 = (1 << 62) - 2;

    /// The tag of sequence number `seq` (at most [`SeqTag::MAX_SEQ`]).
    #[inline]
    pub fn new(seq: u64, kind: SeqKind) -> SeqTag {
        debug_assert!(seq <= Self::MAX_SEQ);
        SeqTag((seq << 2) | kind as u64)
    }

    /// Whether the element is untagged.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Sequence number and kind; `None` for [`SeqTag::NONE`] and
    /// [`SeqTag::FLUSH`].
    #[inline]
    pub fn position(self) -> Option<(u64, SeqKind)> {
        if self == Self::FLUSH {
            return None;
        }
        let kind = match self.0 & 3 {
            1 => SeqKind::More,
            2 => SeqKind::Last,
            3 => SeqKind::Empty,
            _ => return None,
        };
        Some((self.0 >> 2, kind))
    }

    /// The tag as the word the merge's snapshot stores.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The tag stored as `bits`, if that is one.
    pub fn from_bits(bits: u64) -> Option<SeqTag> {
        (bits == 0 || bits & 3 != 0).then_some(SeqTag(bits))
    }
}

/// A data element: a [`Tuple`] payload plus its stream timestamp.
///
/// Timestamps are assigned by sources at emission and drive sliding-window
/// expiration in windowed operators (joins, aggregates).
#[derive(Debug, Clone)]
pub struct Element {
    /// The payload.
    pub tuple: Tuple,
    /// Emission time at the source (stream time, not wall time).
    pub ts: Timestamp,
    /// Trace-context tag (diagnostic metadata; excluded from equality and
    /// hashing so tracing never changes operator semantics — dedup, joins,
    /// and result comparisons see only payload and timestamp).
    pub trace: TraceTag,
    /// Shard sequence tag ([`SeqTag::NONE`] outside a split → merge
    /// section; like `trace`, not part of the element's identity).
    pub seq: SeqTag,
}

// Equality and hashing intentionally ignore `trace` and `seq`: two elements
// with the same payload and timestamp are the same element to every
// operator, whether or not one of them happens to be sampled or is on its
// way through a sharded section.
impl PartialEq for Element {
    fn eq(&self, other: &Element) -> bool {
        self.tuple == other.tuple && self.ts == other.ts
    }
}

impl Eq for Element {}

impl Hash for Element {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.tuple.hash(state);
        self.ts.hash(state);
    }
}

impl Element {
    /// Creates an (untraced) element.
    pub fn new(tuple: Tuple, ts: Timestamp) -> Self {
        Element { tuple, ts, trace: TraceTag::NONE, seq: SeqTag::NONE }
    }

    /// Single-integer element, the workhorse of the paper's synthetic
    /// streams.
    pub fn single(v: i64, ts: Timestamp) -> Self {
        Element::new(Tuple::single(v), ts)
    }

    /// The same element carrying the given trace tag.
    pub fn with_trace(mut self, trace: TraceTag) -> Self {
        self.trace = trace;
        self
    }

    /// The same element carrying the given sequence tag.
    pub fn with_seq(mut self, seq: SeqTag) -> Self {
        self.seq = seq;
        self
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.tuple, self.ts)
    }
}

/// Control signals interleaved with data on an edge.
///
/// The paper (§2.2) observes that the pull-based `hasNext` contract is
/// ambiguous in a DSMS: "no element" can mean *not yet* or *never again*.
/// Its proposed fix — a special element carrying only that information — is
/// exactly a punctuation, which is how the push-based engine here resolves
/// the same question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Punctuation {
    /// The producer of this edge will never send another element.
    EndOfStream,
    /// No element with timestamp below the given watermark will arrive on
    /// this edge anymore. Windowed operators may expire state up to it.
    Watermark(Timestamp),
    /// An aligned-checkpoint barrier carrying its checkpoint id.
    ///
    /// Barriers are injected at sources and forwarded — never reordered
    /// past data — by every operator; a multi-input operator snapshots its
    /// state once the barrier has arrived on all open inputs. Operators
    /// never observe barriers directly: the executor handles alignment and
    /// snapshotting, the same way it owns EOS and watermark bookkeeping.
    Barrier(u64),
}

impl Punctuation {
    /// The timestamp the punctuation carries in a stream (see
    /// [`Message::ts`]).
    pub fn ts(&self) -> Timestamp {
        match self {
            Punctuation::Watermark(t) => *t,
            Punctuation::EndOfStream => Timestamp::MAX,
            Punctuation::Barrier(_) => Timestamp::ZERO,
        }
    }
}

/// A message on a query-graph edge: either data or a punctuation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Message {
    /// A data element.
    Data(Element),
    /// A control punctuation.
    Punct(Punctuation),
}

impl Message {
    /// Shorthand for a data message.
    pub fn data(tuple: Tuple, ts: Timestamp) -> Message {
        Message::Data(Element::new(tuple, ts))
    }

    /// Shorthand for an end-of-stream punctuation.
    pub fn eos() -> Message {
        Message::Punct(Punctuation::EndOfStream)
    }

    /// The element, if this is a data message.
    pub fn as_data(&self) -> Option<&Element> {
        match self {
            Message::Data(e) => Some(e),
            Message::Punct(_) => None,
        }
    }

    /// True iff this is an end-of-stream punctuation.
    pub fn is_eos(&self) -> bool {
        matches!(self, Message::Punct(Punctuation::EndOfStream))
    }

    /// The timestamp carried by the message: the element timestamp for data,
    /// the watermark for watermarks, [`Timestamp::MAX`] for end-of-stream.
    /// Barriers report [`Timestamp::ZERO`] so timestamp-ordered queue
    /// selection drains them promptly, shortening alignment stalls.
    pub fn ts(&self) -> Timestamp {
        match self {
            Message::Data(e) => e.ts,
            Message::Punct(p) => p.ts(),
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Data(e) => write!(f, "{e}"),
            Message::Punct(Punctuation::EndOfStream) => write!(f, "<eos>"),
            Message::Punct(Punctuation::Watermark(t)) => write!(f, "<wm:{t}>"),
            Message::Punct(Punctuation::Barrier(id)) => write!(f, "<barrier:{id}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_construction() {
        let e = Element::single(5, Timestamp::from_secs(1));
        assert_eq!(e.tuple.field(0).as_int().unwrap(), 5);
        assert_eq!(e.ts, Timestamp::from_secs(1));
        assert_eq!(e.to_string(), "(5)@1.000000s");
    }

    /// `Element` is tuple (up to two 24-byte values inline, or a fat `Arc`
    /// pointer), timestamp, trace tag and sequence tag; `Message` hides its
    /// discriminant in the tuple's. Holding two fields inline grew both from
    /// 40 to 72 bytes, and every queue slot, staging buffer and DI stack
    /// entry with them, for no heap block per tuple: on the perf ledger
    /// `chain_di` went from 7.9 to 11.0 M tuples/s (1.39×, ten alternating
    /// pairs on a 2-vCPU host; EXPERIMENTS.md), and `chain_gts` (1.35×) and
    /// `chain_hmts` (1.25×), whose elements cross queues, rose too. A wider
    /// element must pay for itself there.
    #[test]
    fn element_and_message_are_nine_words() {
        assert_eq!(std::mem::size_of::<Tuple>(), 48);
        assert_eq!(std::mem::size_of::<Element>(), 72);
        assert_eq!(std::mem::size_of::<Message>(), 72);
    }

    #[test]
    fn seq_tag_is_out_of_band() {
        let e = Element::single(5, Timestamp::from_secs(1));
        assert!(e.seq.is_none() && e.seq == SeqTag::NONE && e.seq == SeqTag::default());
        let tagged = e.clone().with_seq(SeqTag::new(9, SeqKind::Last));
        // Not part of the element's identity, like the trace tag.
        assert_eq!(tagged, e);
        assert_eq!(tagged.to_string(), e.to_string());
        let hash = |e: &Element| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&tagged), hash(&e));
    }

    #[test]
    fn seq_tag_positions_and_bits() {
        for kind in [SeqKind::More, SeqKind::Last, SeqKind::Empty] {
            for seq in [0, 1, 77, SeqTag::MAX_SEQ] {
                let tag = SeqTag::new(seq, kind);
                assert!(!tag.is_none() && tag != SeqTag::FLUSH);
                assert_eq!(tag.position(), Some((seq, kind)));
                assert_eq!(SeqTag::from_bits(tag.bits()), Some(tag));
            }
        }
        assert_eq!(SeqTag::NONE.position(), None);
        assert_eq!(SeqTag::FLUSH.position(), None);
        assert_eq!(SeqTag::from_bits(0), Some(SeqTag::NONE));
        assert_eq!(SeqTag::from_bits(u64::MAX), Some(SeqTag::FLUSH));
        // A sequence number without a kind is not a tag.
        assert_eq!(SeqTag::from_bits(4), None);
    }

    #[test]
    fn message_accessors() {
        let m = Message::data(Tuple::single(1), Timestamp::from_micros(10));
        assert!(m.as_data().is_some());
        assert!(!m.is_eos());
        assert_eq!(m.ts(), Timestamp::from_micros(10));

        let eos = Message::eos();
        assert!(eos.is_eos());
        assert!(eos.as_data().is_none());
        assert_eq!(eos.ts(), Timestamp::MAX);

        let wm = Message::Punct(Punctuation::Watermark(Timestamp::from_secs(3)));
        assert_eq!(wm.ts(), Timestamp::from_secs(3));
        assert!(!wm.is_eos());

        let barrier = Message::Punct(Punctuation::Barrier(7));
        assert_eq!(barrier.ts(), Timestamp::ZERO);
        assert!(!barrier.is_eos());
        assert!(barrier.as_data().is_none());
    }

    #[test]
    fn message_display() {
        assert_eq!(Message::eos().to_string(), "<eos>");
        assert_eq!(
            Message::Punct(Punctuation::Watermark(Timestamp::from_secs(1))).to_string(),
            "<wm:1.000000s>"
        );
        assert_eq!(Message::Punct(Punctuation::Barrier(3)).to_string(), "<barrier:3>");
    }
}
