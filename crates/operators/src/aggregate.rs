//! Windowed, optionally grouped aggregation.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
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

/// Incrementally maintained state of one group.
#[derive(Debug, Default)]
struct GroupState {
    count: u64,
    /// Running sum for Sum/Avg (kept as a `Value` so integer sums stay
    /// integers).
    sum: Option<Value>,
    /// Multiset of live field values for Min/Max (retraction-capable).
    ordered: BTreeMap<Value, usize>,
}

impl GroupState {
    fn add(&mut self, func: AggregateFunction, v: Option<&Value>) -> Result<()> {
        self.count += 1;
        match func {
            AggregateFunction::Count => {}
            AggregateFunction::Sum(_) | AggregateFunction::Avg(_) => {
                let v = v.expect("field extracted for Sum/Avg");
                self.sum = Some(match self.sum.take() {
                    None => v.clone(),
                    Some(s) => s.add(v)?,
                });
            }
            AggregateFunction::Min(_) | AggregateFunction::Max(_) => {
                let v = v.expect("field extracted for Min/Max");
                *self.ordered.entry(v.clone()).or_insert(0) += 1;
            }
        }
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

    fn is_empty(&self) -> bool {
        self.count == 0
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
    window: WindowBuffer,
    groups: HashMap<Value, GroupState>,
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
            groups: HashMap::new(),
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
        self.groups.len()
    }

    /// Expires what left the window by `now`, retracting each element's
    /// contribution straight from its group — one hash per element, no copy
    /// of it — and dropping a group with its last element. Every expired
    /// element is retracted; the first error among them is returned.
    fn expire(&mut self, now: Timestamp) -> Result<()> {
        let WindowAggregate { window, groups, group_by, func, .. } = self;
        let mut outcome = Ok(());
        window.expire_with(now, |old| {
            let retracted = retract(groups, group_by, *func, old);
            if outcome.is_ok() {
                outcome = retracted;
            }
        });
        outcome
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

/// Takes `old`'s contribution out of its group, and the group out of
/// `groups` if that was its last element.
fn retract(
    groups: &mut HashMap<Value, GroupState>,
    group_by: &Option<Expr>,
    func: AggregateFunction,
    old: &Element,
) -> Result<()> {
    let key = key_of(group_by, old)?.into_owned();
    if let Entry::Occupied(mut group) = groups.entry(key) {
        group.get_mut().remove(func, field_of(func, old)?)?;
        if group.get().is_empty() {
            group.remove();
        }
    }
    Ok(())
}

impl Operator for WindowAggregate {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, port: usize, element: &Element, out: &mut Output) -> Result<()> {
        if port != 0 {
            return Err(StreamError::InvalidPort { port, arity: 1 });
        }
        // (1) Expire, retracting contributions.
        self.expire(element.ts)?;
        // (2) Fold in the new element: one look-up for its group, which
        // also lends the key the result is named after.
        let WindowAggregate { window, groups, group_by, func, .. } = self;
        let field = field_of(*func, element)?;
        let group = groups.entry(key_of(group_by, element)?.into_owned());
        let named = group_by.as_ref().map(|_| group.key().clone());
        let g = group.or_default();
        g.add(*func, field)?;
        let agg = g.value(*func);
        window.insert(element.clone());
        // (3) Emit the updated aggregate for this group.
        let tuple = match named {
            None => Tuple::new([agg]),
            Some(key) => Tuple::new([key, agg]),
        };
        out.emit(tuple, element.ts);
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
            groups: HashMap::new(),
            cost_hint: self.cost_hint,
        }))
    }
}

/// Snapshot format v1: the live window contents only. Group states are
/// derived — restore rebuilds them by re-folding every live element, so
/// the incremental `GroupState` internals never appear on disk.
const AGGREGATE_STATE_V1: u16 = 1;

impl StatefulOperator for WindowAggregate {
    fn snapshot(&self) -> StateBlob {
        StateBlob::build(AGGREGATE_STATE_V1, |w| self.window.snapshot_into(w))
    }

    fn restore(&mut self, blob: StateBlob) -> std::result::Result<(), StateError> {
        let mut r = blob.reader_for(AGGREGATE_STATE_V1)?;
        self.window.restore_from(&mut r)?;
        r.expect_end()?;
        self.groups.clear();
        let func = self.func;
        // Re-fold the restored window. Evaluation errors here mean the
        // blob does not fit this operator's configuration.
        for e in self.window.iter() {
            let key = key_of(&self.group_by, e)
                .map_err(|_| StateError::Incompatible("group key not evaluable"))?
                .into_owned();
            let field = match func.field() {
                None => None,
                Some(i) => Some(
                    e.tuple
                        .get(i)
                        .map_err(|_| StateError::Incompatible("aggregate field missing"))?
                        .clone(),
                ),
            };
            self.groups
                .entry(key)
                .or_default()
                .add(func, field.as_ref())
                .map_err(|_| StateError::Incompatible("aggregate re-fold failed"))?;
        }
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
    }

    #[test]
    fn sum_field_out_of_bounds_errors() {
        let mut a = WindowAggregate::new("s", AggregateFunction::Sum(3), Duration::from_secs(5));
        let mut out = Output::new();
        assert!(a.process(0, &el(1, 0), &mut out).is_err());
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
