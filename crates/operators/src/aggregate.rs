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
use crate::traits::{Operator, Output};
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

impl AggregateFunction {
    fn field(&self) -> Option<usize> {
        match self {
            AggregateFunction::Count => None,
            AggregateFunction::Sum(i)
            | AggregateFunction::Avg(i)
            | AggregateFunction::Min(i)
            | AggregateFunction::Max(i) => Some(*i),
        }
    }
}

/// Incrementally maintained state of one group, with the key it is named
/// after.
#[derive(Debug)]
struct GroupState {
    key: Value,
    count: u64,
    /// Running sum for Sum/Avg (kept as a `Value` so integer sums stay
    /// integers).
    sum: Option<Value>,
    /// Multiset of live field values for Min/Max (retraction-capable).
    ordered: BTreeMap<Value, usize>,
}

impl GroupState {
    /// Folds `v` in, or fails and leaves the group as it was: the new sum
    /// is computed before anything changes. A sum starts only from a
    /// number, so a group's sum can always be added to.
    fn add(&mut self, func: AggregateFunction, v: Option<&Value>) -> Result<()> {
        match func {
            AggregateFunction::Count => {}
            AggregateFunction::Sum(_) | AggregateFunction::Avg(_) => {
                let v = v.expect("field extracted for Sum/Avg");
                let sum = match &self.sum {
                    None => v.as_float().map(|_| v.clone())?,
                    Some(s) => s.add(v)?,
                };
                self.sum = Some(sum);
            }
            AggregateFunction::Min(_) | AggregateFunction::Max(_) => {
                let v = v.expect("field extracted for Min/Max");
                *self.ordered.entry(v.clone()).or_insert(0) += 1;
            }
        }
        self.count += 1;
        Ok(())
    }

    fn remove(&mut self, func: AggregateFunction, v: Option<&Value>) -> Result<()> {
        self.count = self.count.saturating_sub(1);
        match func {
            AggregateFunction::Count => {}
            AggregateFunction::Sum(_) | AggregateFunction::Avg(_) => {
                let v = v.expect("field extracted for Sum/Avg");
                if let Some(s) = self.sum.take() {
                    if self.count > 0 {
                        self.sum = Some(s.sub(v)?);
                    }
                }
            }
            AggregateFunction::Min(_) | AggregateFunction::Max(_) => {
                let v = v.expect("field extracted for Min/Max");
                if let Some(n) = self.ordered.get_mut(v) {
                    *n -= 1;
                    if *n == 0 {
                        self.ordered.remove(v);
                    }
                }
            }
        }
        Ok(())
    }

    fn value(&self, func: AggregateFunction) -> Value {
        match func {
            AggregateFunction::Count => Value::Int(self.count as i64),
            AggregateFunction::Sum(_) => self.sum.clone().unwrap_or(Value::Int(0)),
            AggregateFunction::Avg(_) => {
                if self.count == 0 {
                    Value::Null
                } else {
                    let s = self.sum.as_ref().and_then(|v| v.as_float().ok()).unwrap_or(0.0);
                    Value::Float(s / self.count as f64)
                }
            }
            AggregateFunction::Min(_) => self.ordered.keys().next().cloned().unwrap_or(Value::Null),
            AggregateFunction::Max(_) => {
                self.ordered.keys().next_back().cloned().unwrap_or(Value::Null)
            }
        }
    }
}

/// The live groups: states in a slab, found by key through `index`, and by
/// slot from every live window element. A freed slot is reused by the next
/// new group; `index` is touched when a group is created or empties.
#[derive(Debug, Default)]
struct Groups {
    slab: Vec<GroupState>,
    free: Vec<u32>,
    index: HashMap<Value, u32>,
}

impl Groups {
    /// Folds `field` into the group of `key`, creating the group if there
    /// is none, and returns its slot. On an error nothing changed: a group
    /// created for the element goes again.
    fn admit(
        &mut self,
        key: Cow<'_, Value>,
        func: AggregateFunction,
        field: Option<&Value>,
    ) -> Result<u32> {
        let (slot, created) = match self.index.get(&*key) {
            Some(&slot) => (slot, false),
            None => (self.create(key.into_owned()), true),
        };
        let added = self.slab[slot as usize].add(func, field);
        if added.is_err() && created {
            self.release(slot);
        }
        added.map(|()| slot)
    }

    fn create(&mut self, key: Value) -> u32 {
        let group = GroupState { key: key.clone(), count: 0, sum: None, ordered: BTreeMap::new() };
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

    /// Takes `field`'s contribution out of the group in `slot`, and the
    /// group out of the index if that was its last element.
    fn retract(&mut self, slot: u32, func: AggregateFunction, field: Option<&Value>) -> Result<()> {
        let group = &mut self.slab[slot as usize];
        let removed = group.remove(func, field);
        if group.count == 0 {
            self.release(slot);
        }
        removed
    }

    fn release(&mut self, slot: u32) {
        let group = &mut self.slab[slot as usize];
        self.index.remove(&group.key);
        // What the slot held (a string key, a Min/Max multiset) goes now,
        // not when the slot is next taken.
        group.key = Value::Null;
        group.sum = None;
        group.ordered.clear();
        self.free.push(slot);
    }
}

/// A sliding-window aggregate with optional grouping.
///
/// For every input element the operator (1) expires elements that left the
/// window — retracting their contribution, (2) folds in the new element, and
/// (3) emits the updated aggregate for the element's group:
/// `(group_key, aggregate)` when grouped, `(aggregate,)` otherwise.
///
/// This is the paper's example of an *expensive* operator (§5.1.1): one that
/// should be decoupled from a cheap unary chain by a queue so it cannot
/// stall the chain's throughput.
pub struct WindowAggregate {
    name: String,
    func: AggregateFunction,
    group_by: Option<Expr>,
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
            group_by: None,
            window: WindowBuffer::new(window),
            groups: Groups::default(),
            cost_hint: None,
        }
    }

    /// Adds a grouping key.
    pub fn group_by(mut self, key: Expr) -> Self {
        self.group_by = Some(key);
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
    /// of it. Every expired element is retracted; the first error among
    /// them is returned.
    fn expire(&mut self, now: Timestamp) -> Result<()> {
        let WindowAggregate { window, groups, func, .. } = self;
        let mut outcome = Ok(());
        window.expire_with(now, |old, slot| {
            let retracted = field_of(*func, old).and_then(|f| groups.retract(slot, *func, f));
            if outcome.is_ok() {
                outcome = retracted;
            }
        });
        outcome
    }

    /// Steps (1) and (2) for `element`, which is lent: returns the slot of
    /// its group and the result to emit. The caller puts the element in the
    /// window — a clone or the element itself.
    fn fold(&mut self, element: &Element) -> Result<(u32, Tuple)> {
        self.expire(element.ts)?;
        let WindowAggregate { groups, group_by, func, .. } = self;
        let field = field_of(*func, element)?;
        let slot = groups.admit(key_of(group_by, element)?, *func, field)?;
        let group = &groups.slab[slot as usize];
        let agg = group.value(*func);
        let result = match group_by {
            None => Tuple::single(agg),
            Some(_) => Tuple::pair(group.key.clone(), agg),
        };
        Ok((slot, result))
    }
}

/// The field of `e` the aggregate folds, lent out of the tuple.
fn field_of(func: AggregateFunction, e: &Element) -> Result<Option<&Value>> {
    func.field().map(|i| e.tuple.get(i)).transpose()
}

/// The group `e` belongs to: its `group_by` key, lent out of the tuple
/// where the key is a plain field, or the one `Null` group.
fn key_of<'a>(group_by: &'a Option<Expr>, e: &'a Element) -> Result<Cow<'a, Value>> {
    match group_by {
        None => Ok(Cow::Owned(Value::Null)),
        Some(k) => k.eval_ref(&e.tuple),
    }
}

/// A run turned around, so that its next element is the last one and can
/// be popped off and moved. However the loop over it ends — done, `?` or
/// unwind — the drop turns what is left the right way round again: the
/// element that failed first, then the ones behind it.
struct Reversed<'a>(&'a mut Vec<Element>);

impl Drop for Reversed<'_> {
    fn drop(&mut self) {
        self.0.reverse();
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
    /// carries its trace tag. An element emits only once everything that
    /// can fail for it has succeeded, so a failing element leaves nothing of
    /// itself in `out`.
    fn process_batch(
        &mut self,
        port: usize,
        run: &mut Vec<Element>,
        out: &mut Output,
    ) -> Result<()> {
        if port != 0 {
            return Err(StreamError::InvalidPort { port, arity: 1 });
        }
        run.reverse();
        let rest = Reversed(run);
        while let Some(element) = rest.0.last() {
            let (slot, result) = self.fold(element)?;
            let element = rest.0.pop().expect("last checked");
            out.push(Element::new(result, element.ts).with_trace(element.trace));
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
        self.expire(watermark)
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
        self.group_by.clone()
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(WindowAggregate {
            name: self.name.clone(),
            func: self.func,
            group_by: self.group_by.clone(),
            window: WindowBuffer::new(self.window.extent()),
            groups: Groups::default(),
            cost_hint: self.cost_hint,
        }))
    }
}

/// Snapshot format v1: the live window contents only. Group states are
/// derived — restore rebuilds them by re-folding every live element, so
/// neither the `GroupState` internals nor the slots appear on disk.
const AGGREGATE_STATE_V1: u16 = 1;

impl StatefulOperator for WindowAggregate {
    fn snapshot(&self) -> StateBlob {
        StateBlob::build(AGGREGATE_STATE_V1, |w| self.window.snapshot_into(w))
    }

    fn restore(&mut self, blob: StateBlob) -> std::result::Result<(), StateError> {
        let mut r = blob.reader_for(AGGREGATE_STATE_V1)?;
        let mut window = WindowBuffer::new(self.window.extent());
        let mut groups = Groups::default();
        let (group_by, func) = (&self.group_by, self.func);
        // Re-fold the restored window. Evaluation errors here mean the
        // blob does not fit this operator's configuration.
        window.restore_tagged(&mut r, |e| {
            let key = key_of(group_by, e)
                .map_err(|_| StateError::Incompatible("group key not evaluable"))?;
            let field = field_of(func, e)
                .map_err(|_| StateError::Incompatible("aggregate field missing"))?;
            groups
                .admit(key, func, field)
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
