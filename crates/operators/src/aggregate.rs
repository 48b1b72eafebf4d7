//! Windowed, optionally grouped aggregation.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use hmts_state::{StateBlob, StateError, StatefulOperator};
use hmts_streams::element::Element;
use hmts_streams::error::{Result, StreamError};
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

use crate::expr::Expr;
use crate::traits::{Operator, Output, RunFront};
use crate::window::WindowBuffer;

/// The aggregate to compute over the live window (per group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFunction {
    /// Number of live elements.
    Count,
    /// Sum of the given field.
    Sum(usize),
    /// Mean of the given field (emitted as `Float`).
    Avg(usize),
    /// Minimum of the given field.
    Min(usize),
    /// Maximum of the given field.
    Max(usize),
}

/// A group's running sum of the field `Sum` and `Avg` fold. While every
/// value folded into the group since it was created is an `Int`, the sum is
/// exact in `i128`, which holds the sum of 2^64 `i64`s, so a retraction
/// never fails; from the first `Float` on, it is an `f64` until the group
/// empties, summed as `Value::add` sums (an `Int` widened to `f64`). A
/// snapshot holds the live elements alone, so a restored group's sum is a
/// float only if one of them is a `Float`.
#[derive(Debug, Clone, Copy)]
enum Acc {
    Int(i128),
    Float(f64),
}

impl Acc {
    /// The sum of `v` alone, or the error of a value that is not a number.
    fn of(v: &Value) -> Result<Acc> {
        match *v {
            Value::Int(i) => Ok(Acc::Int(i.into())),
            Value::Float(f) => Ok(Acc::Float(f)),
            ref other => {
                Err(StreamError::TypeMismatch { expected: "Float", found: other.type_name() })
            }
        }
    }

    fn plus(self, v: Acc) -> Acc {
        match (self, v) {
            (Acc::Int(a), Acc::Int(b)) => Acc::Int(a + b),
            (a, b) => Acc::Float(a.float() + b.float()),
        }
    }

    fn minus(self, v: Acc) -> Acc {
        match (self, v) {
            (Acc::Int(a), Acc::Int(b)) => Acc::Int(a - b),
            (a, b) => Acc::Float(a.float() - b.float()),
        }
    }

    fn float(self) -> f64 {
        match self {
            Acc::Int(i) => i as f64,
            Acc::Float(f) => f,
        }
    }

    /// Whether the sum can be emitted: an `Int` sum must fit in `i64`.
    fn fits(self) -> bool {
        match self {
            Acc::Int(i) => i64::try_from(i).is_ok(),
            Acc::Float(_) => true,
        }
    }

    /// The sum as a result; an `Int` sum must [`fit`](Acc::fits).
    fn value(self) -> Value {
        match self {
            Acc::Int(i) => Value::Int(i as i64),
            Acc::Float(f) => Value::Float(f),
        }
    }
}

/// One live group: its key, its number of live elements and their sum
/// (`Sum`, `Avg`). The multisets of `Min`/`Max` live beside the slab.
#[derive(Debug)]
struct Group {
    key: Value,
    count: u64,
    sum: Acc,
}

/// The group an element belongs to, resolved from `group_by` once.
#[derive(Debug, Clone)]
enum GroupKey {
    /// Ungrouped: every element is in the one `Null` group.
    One,
    /// A plain field, lent out of the tuple.
    Field(usize),
    /// Any other expression, evaluated per element.
    Expr(Expr),
}

impl GroupKey {
    fn read<'a>(&'a self, tuple: &'a Tuple) -> Result<Cow<'a, Value>> {
        match self {
            GroupKey::One => Ok(Cow::Owned(Value::Null)),
            GroupKey::Field(i) => tuple.get(*i).map(Cow::Borrowed),
            GroupKey::Expr(e) => e.eval_ref(tuple),
        }
    }
}

/// The live groups: records in a slab, found by key through `index`, and
/// by slot from every live window element. A freed slot is reused by the
/// next new group; `index` is touched when a group is created or empties.
#[derive(Debug, Default)]
struct Groups {
    slab: Vec<Group>,
    /// `Min`/`Max` only: the multiset of each slot's live values.
    ordered: Vec<BTreeMap<Value, usize>>,
    free: Vec<u32>,
    index: HashMap<Value, u32>,
    /// The slot last found for an `Int` key, on the key's [`line`]: a table
    /// at least twice as long as the slab, looked at before `index`. An
    /// entry counts only if its slot's group has the key, so a stale entry,
    /// or two keys on one line, only miss and go on to the index: keys
    /// crafted to share a line cost a probe each, never a chain.
    ///
    /// [`line`]: Groups::line
    recent: Vec<u32>,
}

impl Groups {
    /// Folds the element `tuple` into its group, creating the group if
    /// there is none, and returns the group's slot; or refuses the element
    /// and changes nothing. A refusal comes before the group is looked up,
    /// except for a sum that would leave `i64`, which only a group that
    /// already holds elements can reach. `bounded` is false for a window
    /// restored from a snapshot: its sums are what they were when it was
    /// written, in `i64` or not.
    ///
    /// Inlined into `fold` (as `fold` into its callers), where the match on
    /// `func` meets the one in `result`: about 7 % of the operator's time in
    /// a `keyed_agg`-shaped loop, where a plain `#[inline]` changed nothing.
    #[inline(always)]
    fn admit(
        &mut self,
        key: &GroupKey,
        func: AggregateFunction,
        tuple: &Tuple,
        bounded: bool,
    ) -> Result<u32> {
        let slot = match func {
            AggregateFunction::Count => self.enter(key.read(tuple)?),
            AggregateFunction::Sum(i) | AggregateFunction::Avg(i) => {
                let field = tuple.get(i)?;
                let key = key.read(tuple)?;
                let v = Acc::of(field)?;
                let slot = self.enter(key);
                let group = &mut self.slab[slot as usize];
                let sum = if group.count == 0 { v } else { group.sum.plus(v) };
                if bounded && !sum.fits() {
                    return Err(StreamError::ArithmeticOverflow);
                }
                group.sum = sum;
                slot
            }
            AggregateFunction::Min(i) | AggregateFunction::Max(i) => {
                let field = tuple.get(i)?;
                let slot = self.enter(key.read(tuple)?);
                if self.ordered.len() <= slot as usize {
                    self.ordered.resize_with(slot as usize + 1, BTreeMap::new);
                }
                *self.ordered[slot as usize].entry(field.clone()).or_insert(0) += 1;
                slot
            }
        };
        self.slab[slot as usize].count += 1;
        Ok(slot)
    }

    /// The slot of `key`'s group, created with no elements if there is none.
    fn enter(&mut self, key: Cow<'_, Value>) -> u32 {
        let Value::Int(k) = *key else { return self.find(key) };
        if let Some(&slot) = self.recent.get(self.line(k)) {
            if self.slab.get(slot as usize).is_some_and(|g| g.key == *key) {
                return slot;
            }
        }
        let slot = self.find(key);
        if self.recent.len() < 2 * self.slab.len() {
            self.recent = vec![0; (2 * self.slab.len()).next_power_of_two()];
        }
        let line = self.line(k);
        self.recent[line] = slot;
        slot
    }

    /// `k`'s entry in `recent`: its low bits, xor the top bits of the rest
    /// of it times 2^64 / φ. A key from 0 up to the table's length keeps its
    /// own line, so small hot keys share a few cache lines, and keys that differ
    /// only above the low bits (multiples of a power of two) are spread
    /// instead of all meeting on one line. Past the table when it is empty.
    fn line(&self, k: i64) -> usize {
        let bits = self.recent.len().trailing_zeros();
        let high = (k as u64).wrapping_shr(bits).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (k as usize & self.recent.len().wrapping_sub(1)) ^ high.wrapping_shr(64 - bits) as usize
    }

    /// `enter` through the index.
    fn find(&mut self, key: Cow<'_, Value>) -> u32 {
        if let Some(&slot) = self.index.get(&*key) {
            return slot;
        }
        let key = key.into_owned();
        let group = Group { key: key.clone(), count: 0, sum: Acc::Int(0) };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = group;
                slot
            }
            None => {
                self.slab.push(group);
                (self.slab.len() - 1) as u32
            }
        };
        self.index.insert(key, slot);
        slot
    }

    /// Takes the element `tuple`'s contribution out of the group in `slot`,
    /// and the group out of the index if that was its last element.
    fn retract(&mut self, slot: u32, func: AggregateFunction, tuple: &Tuple) {
        let group = &mut self.slab[slot as usize];
        group.count -= 1;
        if group.count == 0 {
            return self.release(slot);
        }
        match func {
            AggregateFunction::Count => {}
            AggregateFunction::Sum(i) | AggregateFunction::Avg(i) => {
                let v = Acc::of(tuple.field(i)).expect("a live element holds its number");
                group.sum = group.sum.minus(v);
            }
            AggregateFunction::Min(i) | AggregateFunction::Max(i) => {
                let values = &mut self.ordered[slot as usize];
                let v = tuple.field(i);
                if let Some(n) = values.get_mut(v) {
                    *n -= 1;
                    if *n == 0 {
                        values.remove(v);
                    }
                }
            }
        }
    }

    fn release(&mut self, slot: u32) {
        let group = &mut self.slab[slot as usize];
        self.index.remove(&group.key);
        // What the slot held (a string key, a Min/Max multiset) goes now,
        // not when the slot is next taken.
        group.key = Value::Null;
        if let Some(values) = self.ordered.get_mut(slot as usize) {
            values.clear();
        }
        self.free.push(slot);
    }

    /// The aggregate of the group in `slot`, which holds elements.
    fn result(&self, slot: u32, func: AggregateFunction) -> Value {
        let group = &self.slab[slot as usize];
        match func {
            AggregateFunction::Count => Value::Int(group.count as i64),
            AggregateFunction::Sum(_) => group.sum.value(),
            AggregateFunction::Avg(_) => Value::Float(group.sum.float() / group.count as f64),
            AggregateFunction::Min(_) => {
                self.ordered[slot as usize].keys().next().cloned().unwrap_or(Value::Null)
            }
            AggregateFunction::Max(_) => {
                self.ordered[slot as usize].keys().next_back().cloned().unwrap_or(Value::Null)
            }
        }
    }
}

/// A sliding-window aggregate with optional grouping.
///
/// For every input element the operator (1) expires elements that left the
/// window — retracting their contribution, (2) folds in the new element, and
/// (3) emits the updated aggregate for the element's group:
/// `(group_key, aggregate)` when grouped, `(aggregate,)` otherwise.
///
/// An element is refused (an `Err`, and no trace of it in the state) if
/// the field or the key cannot be read, if `Sum`/`Avg` meet a value that is
/// not a number, or if an `Int` sum of its group's live elements would
/// leave `i64`. Retraction never fails.
///
/// This is the paper's example of an *expensive* operator (§5.1.1): one that
/// should be decoupled from a cheap unary chain by a queue so it cannot
/// stall the chain's throughput.
pub struct WindowAggregate {
    name: String,
    func: AggregateFunction,
    key: GroupKey,
    /// The live elements, each tagged with its group's slot.
    window: WindowBuffer<u32>,
    groups: Groups,
    cost_hint: Option<Duration>,
}

impl WindowAggregate {
    /// An ungrouped sliding-window aggregate.
    pub fn new(name: impl Into<String>, func: AggregateFunction, window: Duration) -> Self {
        WindowAggregate {
            name: name.into(),
            func,
            key: GroupKey::One,
            window: WindowBuffer::new(window),
            groups: Groups::default(),
            cost_hint: None,
        }
    }

    /// Adds a grouping key.
    pub fn group_by(mut self, key: Expr) -> Self {
        self.key = match key {
            Expr::Field(i) => GroupKey::Field(i),
            key => GroupKey::Expr(key),
        };
        self
    }

    /// Attaches an a-priori per-element cost estimate for queue placement.
    pub fn with_cost_hint(mut self, c: Duration) -> Self {
        self.cost_hint = Some(c);
        self
    }

    /// Number of live (non-expired) elements in the window.
    pub fn live_elements(&self) -> usize {
        self.window.len()
    }

    /// Number of currently live groups.
    pub fn live_groups(&self) -> usize {
        self.groups.index.len()
    }

    /// Expires what left the window by `now`, retracting each element's
    /// contribution straight from the group in its slot — no hash, no copy
    /// of it.
    fn expire(&mut self, now: Timestamp) {
        let WindowAggregate { window, groups, func, .. } = self;
        window.expire_with(now, |old, slot| groups.retract(slot, *func, &old.tuple));
    }

    /// Steps (1) and (2) for `element`, which is lent: returns the slot of
    /// its group and the result to emit. The caller puts the element in the
    /// window — a clone or the element itself.
    #[inline(always)]
    fn fold(&mut self, element: &Element) -> Result<(u32, Tuple)> {
        self.expire(element.ts);
        let WindowAggregate { groups, key, func, .. } = self;
        let slot = groups.admit(key, *func, &element.tuple, true)?;
        let agg = groups.result(slot, *func);
        let result = match key {
            GroupKey::One => Tuple::single(agg),
            _ => Tuple::pair(groups.slab[slot as usize].key.clone(), agg),
        };
        Ok((slot, result))
    }
}

impl Operator for WindowAggregate {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, port: usize, element: &Element, out: &mut Output) -> Result<()> {
        if port != 0 {
            return Err(StreamError::InvalidPort { port, arity: 1 });
        }
        let (slot, result) = self.fold(element)?;
        self.window.insert_tagged(element.clone(), slot);
        out.emit(result, element.ts);
        Ok(())
    }

    /// Moves each element into the window instead of cloning it; its result
    /// carries its trace and sequence tags. An element emits only once
    /// everything that can fail for it has succeeded, so a failing element
    /// leaves nothing of itself in `out`.
    fn process_batch(
        &mut self,
        port: usize,
        run: &mut Vec<Element>,
        out: &mut Output,
    ) -> Result<()> {
        if port != 0 {
            return Err(StreamError::InvalidPort { port, arity: 1 });
        }
        let mut rest = RunFront::new(run);
        while let Some(element) = rest.front() {
            let (slot, result) = self.fold(element)?;
            let element = rest.take();
            let Element { ts, trace, seq, .. } = element;
            out.push(Element { tuple: result, ts, trace, seq });
            self.window.insert_tagged(element, slot);
        }
        Ok(())
    }

    fn on_watermark(
        &mut self,
        _port: usize,
        watermark: Timestamp,
        _out: &mut Output,
    ) -> Result<()> {
        self.expire(watermark);
        Ok(())
    }

    fn cost_hint(&self) -> Option<Duration> {
        self.cost_hint
    }

    fn selectivity_hint(&self) -> Option<f64> {
        Some(1.0)
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulOperator> {
        Some(self)
    }

    fn shard_key(&self, _port: usize) -> Option<Expr> {
        // Grouped aggregates partition cleanly on the group key: every
        // element of a group lands on one shard, which then owns that
        // group's whole state. Ungrouped aggregates fold all elements into
        // one state cell and cannot be key-partitioned.
        match &self.key {
            GroupKey::One => None,
            GroupKey::Field(i) => Some(Expr::field(*i)),
            GroupKey::Expr(e) => Some(e.clone()),
        }
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(WindowAggregate {
            name: self.name.clone(),
            func: self.func,
            key: self.key.clone(),
            window: WindowBuffer::new(self.window.extent()),
            groups: Groups::default(),
            cost_hint: self.cost_hint,
        }))
    }
}

/// Snapshot format v1: the live window contents only. Group states are
/// derived — restore rebuilds them by re-folding every live element, so
/// neither the group records nor the slots appear on disk.
const AGGREGATE_STATE_V1: u16 = 1;

impl StatefulOperator for WindowAggregate {
    fn snapshot(&self) -> StateBlob {
        StateBlob::build(AGGREGATE_STATE_V1, |w| self.window.snapshot_into(w))
    }

    fn restore(&mut self, blob: StateBlob) -> std::result::Result<(), StateError> {
        let mut r = blob.reader_for(AGGREGATE_STATE_V1)?;
        let mut window = WindowBuffer::new(self.window.extent());
        let mut groups = Groups::default();
        let (key, func) = (&self.key, self.func);
        // Re-fold the restored window. A refused element means the blob
        // does not fit this operator's configuration.
        window.restore_tagged(&mut r, |e| {
            groups
                .admit(key, func, &e.tuple, false)
                .map_err(|_| StateError::Incompatible("aggregate re-fold failed"))
        })?;
        r.expect_end()?;
        self.window = window;
        self.groups = groups;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(v: i64, secs: u64) -> Element {
        Element::single(v, Timestamp::from_secs(secs))
    }

    fn last_agg(out: &Output) -> Value {
        let e = out.elements().last().unwrap();
        e.tuple.field(e.tuple.arity() - 1).clone()
    }

    #[test]
    fn count_over_window() {
        let mut a = WindowAggregate::new("c", AggregateFunction::Count, Duration::from_secs(10));
        let mut out = Output::new();
        a.process(0, &el(1, 0), &mut out).unwrap();
        assert_eq!(last_agg(&out), Value::Int(1));
        a.process(0, &el(2, 5), &mut out).unwrap();
        assert_eq!(last_agg(&out), Value::Int(2));
        // t=20: both previous elements (t=0, t=5) are outside the 10 s window.
        a.process(0, &el(3, 20), &mut out).unwrap();
        assert_eq!(last_agg(&out), Value::Int(1));
        assert_eq!(a.live_elements(), 1);
    }

    #[test]
    fn sum_keeps_integer_type_and_retracts() {
        let mut a = WindowAggregate::new("s", AggregateFunction::Sum(0), Duration::from_secs(10));
        let mut out = Output::new();
        a.process(0, &el(5, 0), &mut out).unwrap();
        a.process(0, &el(7, 1), &mut out).unwrap();
        assert_eq!(last_agg(&out), Value::Int(12));
        a.process(0, &el(1, 12), &mut out).unwrap(); // 0 expired, 7 kept? no: cutoff=2 → both expired
        assert_eq!(last_agg(&out), Value::Int(1));
    }

    #[test]
    fn avg_emits_float() {
        let mut a = WindowAggregate::new("a", AggregateFunction::Avg(0), Duration::from_secs(100));
        let mut out = Output::new();
        a.process(0, &el(4, 0), &mut out).unwrap();
        a.process(0, &el(8, 1), &mut out).unwrap();
        assert_eq!(last_agg(&out), Value::Float(6.0));
    }

    #[test]
    fn min_max_with_retraction() {
        let mut mn = WindowAggregate::new("mn", AggregateFunction::Min(0), Duration::from_secs(10));
        let mut mx = WindowAggregate::new("mx", AggregateFunction::Max(0), Duration::from_secs(10));
        let mut out = Output::new();
        for (v, t) in [(5, 0), (2, 1), (9, 2)] {
            mn.process(0, &el(v, t), &mut out).unwrap();
        }
        assert_eq!(last_agg(&out), Value::Int(2));
        // Min element (2 at t=1) expires at t=12 (cutoff 2): survivors {9}.
        mn.process(0, &el(7, 12), &mut out).unwrap();
        assert_eq!(last_agg(&out), Value::Int(7));

        out.clear();
        for (v, t) in [(5, 0), (9, 1), (2, 2)] {
            mx.process(0, &el(v, t), &mut out).unwrap();
        }
        assert_eq!(last_agg(&out), Value::Int(9));
        mx.process(0, &el(3, 13), &mut out).unwrap(); // 5,9 expired; {2,3} live? cutoff=3 → 2@2 expired too
        assert_eq!(last_agg(&out), Value::Int(3));
    }

    #[test]
    fn grouped_count_emits_key_and_value() {
        let mut a = WindowAggregate::new("g", AggregateFunction::Count, Duration::from_secs(100))
            .group_by(Expr::field(0).rem(Expr::int(2)));
        let mut out = Output::new();
        a.process(0, &el(1, 0), &mut out).unwrap(); // group 1, count 1
        a.process(0, &el(3, 1), &mut out).unwrap(); // group 1, count 2
        a.process(0, &el(2, 2), &mut out).unwrap(); // group 0, count 1
        let rows: Vec<(i64, i64)> = out
            .elements()
            .iter()
            .map(|e| (e.tuple.field(0).as_int().unwrap(), e.tuple.field(1).as_int().unwrap()))
            .collect();
        assert_eq!(rows, vec![(1, 1), (1, 2), (0, 1)]);
        assert_eq!(a.live_groups(), 2);
    }

    #[test]
    fn empty_groups_are_garbage_collected() {
        let mut a = WindowAggregate::new("g", AggregateFunction::Count, Duration::from_secs(5))
            .group_by(Expr::field(0));
        let mut out = Output::new();
        a.process(0, &el(1, 0), &mut out).unwrap();
        a.process(0, &el(2, 100), &mut out).unwrap();
        assert_eq!(a.live_groups(), 1);
    }

    #[test]
    fn a_freed_slot_is_taken_by_the_next_new_group() {
        let mut a = WindowAggregate::new("g", AggregateFunction::Sum(0), Duration::from_secs(5))
            .group_by(Expr::field(0));
        let mut out = Output::new();
        for (v, t) in [(1, 0), (2, 1), (3, 10), (4, 10), (3, 11)] {
            a.process(0, &el(v, t), &mut out).unwrap();
        }
        // Groups 1 and 2 went at t = 10, and 3 and 4 live in their slots.
        assert_eq!(a.groups.slab.len(), 2);
        assert_eq!(a.live_groups(), 2);
        assert_eq!(last_agg(&out), Value::Int(6));
        let keys: Vec<i64> = out.drain().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(keys, [1, 2, 3, 4, 3]);
    }

    #[test]
    fn keys_on_one_line_and_reused_slots_keep_their_own_sums() {
        // 0, 17, -13 and -8 share an entry of `recent` at every length it
        // takes here, and the groups of 0 and 17 go at t = 10, so -13 and
        // -8 take their slots.
        let mut a = WindowAggregate::new("g", AggregateFunction::Sum(1), Duration::from_secs(5))
            .group_by(Expr::field(0));
        let mut out = Output::new();
        let rows = [(0, 1, 0), (17, 2, 0), (0, 3, 1), (17, 4, 1), (-13, 5, 10), (-8, 6, 10)];
        for (k, v, t) in rows.into_iter().chain([(-13, 7, 11), (-8, 8, 11), (0, 9, 11)]) {
            a.process(0, &Element::new(Tuple::pair(k, v), Timestamp::from_secs(t)), &mut out)
                .unwrap();
        }
        let sums: Vec<(i64, i64)> = out
            .drain()
            .map(|e| (e.tuple.field(0).as_int().unwrap(), e.tuple.field(1).as_int().unwrap()))
            .collect();
        assert_eq!(
            sums,
            [(0, 1), (17, 2), (0, 4), (17, 6), (-13, 5), (-8, 6), (-13, 12), (-8, 14), (0, 9)]
        );
        assert_eq!(a.groups.slab.len(), 3);
        assert_eq!(a.groups.recent.len(), 8);
        assert!([17, -13, -8].iter().all(|&k| a.groups.line(k) == a.groups.line(0)));
    }

    #[test]
    fn int_keys_of_any_stride_spread_over_recent() {
        // 1024 groups fill a table of 2048 lines; keys 2^11 apart would all
        // share one line under their low bits, and keys 0..1024 keep theirs.
        for stride in [0, 1, 8, 11, 16, 32, 40] {
            let mut a = WindowAggregate::new("g", AggregateFunction::Count, Duration::from_secs(5))
                .group_by(Expr::field(0));
            let mut out = Output::new();
            for k in 0..1024i64 {
                a.process(0, &el(k << stride, 0), &mut out).unwrap();
            }
            assert_eq!(a.groups.recent.len(), 2048);
            let mut lines: Vec<usize> = (0..1024).map(|k| a.groups.line(k << stride)).collect();
            lines.sort_unstable();
            lines.dedup();
            assert!(lines.len() > 3 * 1024 / 4, "stride 2^{stride}: {} lines", lines.len());
            if stride == 0 {
                assert!((0..1024).all(|k| a.groups.line(k) == k as usize));
            }
        }
    }

    #[test]
    fn watermark_expires_state() {
        let mut a = WindowAggregate::new("c", AggregateFunction::Count, Duration::from_secs(5));
        let mut out = Output::new();
        a.process(0, &el(1, 0), &mut out).unwrap();
        a.on_watermark(0, Timestamp::from_secs(100), &mut out).unwrap();
        assert_eq!(a.live_elements(), 0);
        assert_eq!(a.live_groups(), 0);
    }

    #[test]
    fn invalid_port_rejected() {
        let mut a = WindowAggregate::new("c", AggregateFunction::Count, Duration::from_secs(5));
        let mut out = Output::new();
        assert!(a.process(1, &el(1, 0), &mut out).is_err());
        let mut run = vec![el(1, 0)];
        assert!(a.process_batch(1, &mut run, &mut out).is_err());
        assert_eq!(run.len(), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn sum_field_out_of_bounds_errors() {
        let mut a = WindowAggregate::new("s", AggregateFunction::Sum(3), Duration::from_secs(5));
        let mut out = Output::new();
        assert!(a.process(0, &el(1, 0), &mut out).is_err());
    }

    #[test]
    fn after_a_failed_fold_the_state_is_that_of_a_stream_without_the_element() {
        let build = || {
            WindowAggregate::new("s", AggregateFunction::Sum(1), Duration::from_secs(100))
                .group_by(Expr::field(0))
        };
        let row = |k: i64, v: Value, t| Element::new(Tuple::pair(k, v), Timestamp::from_secs(t));
        // A non-number and an overflow into a live group, a non-number as
        // the first element of a new one.
        for bad in [
            row(1, Value::from("x"), 1),
            row(1, Value::Int(i64::MAX), 1),
            row(2, Value::from("x"), 1),
        ] {
            let (mut with, mut without) = (build(), build());
            let (mut out_with, mut out_without) = (Output::new(), Output::new());
            for (e, fails) in [
                (row(1, Value::Int(5), 0), false),
                (bad.clone(), true),
                (row(1, Value::Int(7), 2), false),
            ] {
                assert_eq!(with.process(0, &e, &mut out_with).is_err(), fails, "{bad:?}");
                if !fails {
                    without.process(0, &e, &mut out_without).unwrap();
                }
            }
            assert_eq!(out_with.elements(), out_without.elements(), "{bad:?}");
            assert_eq!(last_agg(&out_with), Value::Int(12), "{bad:?}");
            assert_eq!(with.live_groups(), without.live_groups(), "{bad:?}");
            assert_eq!(with.snapshot().payload(), without.snapshot().payload(), "{bad:?}");
            // The group empties with its last element and is collected.
            with.on_watermark(0, Timestamp::from_secs(1_000), &mut out_with).unwrap();
            assert_eq!((with.live_groups(), with.live_elements()), (0, 0), "{bad:?}");
        }
    }

    #[test]
    fn a_retraction_that_leaves_i64_keeps_the_sum_and_refuses_what_would_emit_it() {
        let build = || {
            WindowAggregate::new("s", AggregateFunction::Sum(1), Duration::from_secs(3))
                .group_by(Expr::field(0))
        };
        let row = |v: i64, ms| Element::new(Tuple::pair(1, v), Timestamp::from_millis(ms));
        let (mut a, mut without) = (build(), build());
        let (mut out, mut out_without) = (Output::new(), Output::new());
        for e in [row(-10, 0), row(i64::MAX, 1_000), row(5, 2_000)] {
            a.process(0, &e, &mut out).unwrap();
            without.process(0, &e, &mut out_without).unwrap();
        }
        assert_eq!(last_agg(&out), Value::Int(i64::MAX - 5));
        // -10 expires at 3.5 s: the live sum is i64::MAX + 5, which no
        // element may emit, before and after the retraction alike.
        for ms in [3_500, 3_600] {
            assert_eq!(a.process(0, &row(0, ms), &mut out), Err(StreamError::ArithmeticOverflow));
            assert_eq!(a.live_elements(), 2);
        }
        // i64::MAX expires at 4.5 s and 5 is left.
        let e = row(0, 4_500);
        a.process(0, &e, &mut out).unwrap();
        without.process(0, &e, &mut out_without).unwrap();
        assert_eq!(last_agg(&out), Value::Int(5));
        assert_eq!(out.elements(), out_without.elements());
        assert_eq!(a.snapshot().payload(), without.snapshot().payload());
    }

    #[test]
    fn a_restored_window_keeps_a_live_sum_outside_i64() {
        let build = || WindowAggregate::new("s", AggregateFunction::Sum(0), Duration::from_secs(3));
        let mut a = build();
        let mut out = Output::new();
        for (v, t) in [(-10, 0), (i64::MAX, 1), (5, 2)] {
            a.process(0, &el(v, t), &mut out).unwrap();
        }
        a.on_watermark(0, Timestamp::from_millis(3_500), &mut out).unwrap();
        let mut restored = build();
        restored.restore(a.snapshot()).unwrap();
        let (mut want, mut got) = (Output::new(), Output::new());
        for (v, t) in [(0, 4), (1, 5)] {
            assert_eq!(a.process(0, &el(v, t), &mut want).is_err(), t == 4);
            assert_eq!(restored.process(0, &el(v, t), &mut got).is_err(), t == 4);
        }
        assert_eq!(got.elements(), want.elements());
        assert_eq!(last_agg(&got), Value::Int(6));
    }

    #[test]
    fn a_float_makes_the_sum_a_float_until_the_group_empties() {
        let mut a = WindowAggregate::new("s", AggregateFunction::Sum(0), Duration::from_secs(3));
        let mut out = Output::new();
        let at = |v: Value, t| Element::new(Tuple::single(v), Timestamp::from_secs(t));
        for (v, t) in [(Value::Int(2), 0), (Value::Float(0.5), 1), (Value::Int(3), 2)] {
            a.process(0, &at(v, t), &mut out).unwrap();
        }
        assert_eq!(last_agg(&out), Value::Float(5.5));
        // 2 and 0.5 expire; the sum stays a float while the group lives.
        a.process(0, &at(Value::Int(1), 5), &mut out).unwrap();
        assert_eq!(last_agg(&out), Value::Float(4.0));
        a.process(0, &at(Value::Int(7), 100), &mut out).unwrap();
        assert_eq!(last_agg(&out), Value::Int(7));
    }

    #[test]
    fn a_run_moves_its_elements_and_fails_like_its_elements() {
        let build = || {
            WindowAggregate::new("s", AggregateFunction::Sum(1), Duration::from_secs(3))
                .group_by(Expr::field(0))
        };
        let mut stream: Vec<Element> = (0..12)
            .map(|i| Element::new(Tuple::pair(i % 3, i), Timestamp::from_secs(i as u64)))
            .collect();
        stream[7] = Element::new(Tuple::single(1), Timestamp::from_secs(7));
        let mut reference = build();
        let mut want = Output::new();
        for e in &stream {
            let _ = reference.process(0, e, &mut want);
        }

        let mut a = build();
        let mut run = stream.clone();
        let mut out = Output::new();
        out.emit(Tuple::single(-1), Timestamp::ZERO);
        assert!(a.process_batch(0, &mut run, &mut out).is_err());
        assert_eq!(run, stream[7..], "the failing element first, the rest behind it");
        assert_eq!(out.len(), 8, "what was there and the results of 0..7");
        run.remove(0);
        a.process_batch(0, &mut run, &mut out).unwrap();
        assert!(run.is_empty());
        assert_eq!(out.elements()[1..], *want.elements());
        assert_eq!(a.snapshot().payload(), reference.snapshot().payload());
    }

    /// The v1 blob of a fixed input, byte for byte, as the aggregate wrote
    /// it when groups lived in a map keyed by value: the state layout is
    /// not part of the format.
    #[test]
    fn the_v1_blob_is_pinned_and_a_pinned_blob_restores() {
        const PINNED: &str = "581b00000000000004000000d00700000000000002000000020100000000000000\
            02fdffffffffffffff64190000000000000200000002020000000000000002090000000000000058\
            1b0000000000000200000004010000006b020400000000000000581b000000000000020000000201\
            00000000000000020100000000000000";
        let build = || {
            WindowAggregate::new("g", AggregateFunction::Sum(1), Duration::from_millis(5))
                .group_by(Expr::field(0))
        };
        let row =
            |k: Value, v: Value, t| Element::new(Tuple::pair(k, v), Timestamp::from_micros(t));
        let mut a = build();
        let mut out = Output::new();
        for (k, v, t) in [
            (Value::Int(1), Value::Int(5), 0),
            (Value::from("k"), Value::Float(2.5), 1_000),
            (Value::Int(1), Value::Int(-3), 2_000),
            (Value::Int(2), Value::Int(9), 6_500),
            (Value::from("k"), Value::Int(4), 7_000),
            (Value::Int(1), Value::Int(1), 7_000),
        ] {
            a.process(0, &row(k, v, t), &mut out).unwrap();
        }
        let results: Vec<String> = out.drain().map(|e| e.tuple.to_string()).collect();
        assert_eq!(results, ["(1, 5)", "(k, 2.5)", "(1, 2)", "(2, 9)", "(k, 4)", "(1, -2)"]);
        let hex: String = a.snapshot().payload().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED);

        let bytes: Vec<u8> = (0..PINNED.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PINNED[i..i + 2], 16).unwrap())
            .collect();
        let mut restored = build();
        restored.restore(StateBlob::new(AGGREGATE_STATE_V1, bytes)).unwrap();
        assert_eq!((restored.live_elements(), restored.live_groups()), (4, 3));
        let (mut want, mut got) = (Output::new(), Output::new());
        for e in
            [row(Value::Int(1), Value::Int(10), 7_500), row(Value::from("k"), Value::Int(1), 9_000)]
        {
            a.process(0, &e, &mut want).unwrap();
            restored.process(0, &e, &mut got).unwrap();
        }
        assert_eq!(got.elements(), want.elements());
        assert_eq!(restored.snapshot().payload(), a.snapshot().payload());
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let build = || {
            WindowAggregate::new("g", AggregateFunction::Sum(0), Duration::from_secs(100))
                .group_by(Expr::field(0).rem(Expr::int(2)))
        };
        let mut live = build();
        let mut out = Output::new();
        for (v, t) in [(1, 0), (4, 1), (3, 2)] {
            live.process(0, &el(v, t), &mut out).unwrap();
        }
        let blob = live.snapshot();
        assert_eq!(blob.version(), AGGREGATE_STATE_V1);

        let mut restored = build();
        restored.restore(blob).unwrap();
        assert_eq!(restored.live_elements(), live.live_elements());
        assert_eq!(restored.live_groups(), live.live_groups());

        // Both emit the same aggregates on identical future input.
        let mut out_live = Output::new();
        let mut out_restored = Output::new();
        for (v, t) in [(5, 3), (2, 4)] {
            live.process(0, &el(v, t), &mut out_live).unwrap();
            restored.process(0, &el(v, t), &mut out_restored).unwrap();
        }
        assert_eq!(out_live.elements(), out_restored.elements());

        // Wrong version and corrupt payload are typed errors.
        let mut fresh = build();
        assert!(matches!(
            fresh.restore(StateBlob::new(99, Vec::new())),
            Err(StateError::UnsupportedVersion(99))
        ));
        assert!(fresh.restore(StateBlob::new(AGGREGATE_STATE_V1, vec![1, 2, 3])).is_err());
    }
}
