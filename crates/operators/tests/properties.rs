//! Property-based tests of the operator library.

use proptest::prelude::*;
use rand::prelude::*;
use std::time::Duration;

use hmts_operators::aggregate::{AggregateFunction, WindowAggregate};
use hmts_operators::expr::{stable_hash, CmpOp, Expr};
use hmts_operators::filter::Filter;
use hmts_operators::join::{SymmetricHashJoin, SymmetricNestedLoopsJoin};
use hmts_operators::traits::{Operator, Output};
use hmts_operators::window::WindowBuffer;
use hmts_state::StatefulOperator;
use hmts_streams::element::Element;
use hmts_streams::error::StreamError;
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

/// A stream of (key, payload) elements with non-decreasing timestamps.
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<Element>> {
    proptest::collection::vec((0i64..8, 0u64..2_000), 0..max_len).prop_map(|items| {
        let mut ts = 0u64;
        items
            .into_iter()
            .enumerate()
            .map(|(i, (key, gap))| {
                ts += gap;
                Element::new(Tuple::pair(key, i as i64), Timestamp::from_micros(ts))
            })
            .collect()
    })
}

fn run_join<O: Operator>(
    join: &mut O,
    left: &[Element],
    right: &[Element],
) -> Vec<(i64, i64, i64, i64)> {
    // Merge the two streams by timestamp (stable: left first on ties), as
    // an engine executing in arrival order would.
    let mut merged: Vec<(usize, &Element)> =
        left.iter().map(|e| (0usize, e)).chain(right.iter().map(|e| (1usize, e))).collect();
    merged.sort_by_key(|(port, e)| (e.ts, *port));
    let mut out = Output::new();
    let mut results = Vec::new();
    for (port, e) in merged {
        join.process(port, e, &mut out).unwrap();
        for r in out.drain() {
            results.push((
                r.tuple.field(0).as_int().unwrap(),
                r.tuple.field(1).as_int().unwrap(),
                r.tuple.field(2).as_int().unwrap(),
                r.tuple.field(3).as_int().unwrap(),
            ));
        }
    }
    results.sort_unstable();
    results
}

fn reference_join(
    left: &[Element],
    right: &[Element],
    window: Duration,
) -> Vec<(i64, i64, i64, i64)> {
    let mut results = Vec::new();
    for l in left {
        for r in right {
            let (lo, hi) = if l.ts <= r.ts { (l.ts, r.ts) } else { (r.ts, l.ts) };
            if hi.since(lo) <= window && l.tuple.field(0) == r.tuple.field(0) {
                results.push((
                    l.tuple.field(0).as_int().unwrap(),
                    l.tuple.field(1).as_int().unwrap(),
                    r.tuple.field(0).as_int().unwrap(),
                    r.tuple.field(1).as_int().unwrap(),
                ));
            }
        }
    }
    results.sort_unstable();
    results
}

/// The owning evaluator `Expr::eval` was before it lent its operands out:
/// every node clones its way up to a fresh `Value`. The reference the
/// borrowed evaluation has to remain equal to, results and errors alike.
fn owning_eval(e: &Expr, t: &Tuple) -> Result<Value, StreamError> {
    let ev = |e: &Expr| owning_eval(e, t);
    match e {
        Expr::Field(i) => Ok(t.get(*i)?.clone()),
        Expr::Const(v) => Ok(v.clone()),
        Expr::Add(a, b) => ev(a)?.add(&ev(b)?),
        Expr::Sub(a, b) => ev(a)?.sub(&ev(b)?),
        Expr::Mul(a, b) => ev(a)?.mul(&ev(b)?),
        Expr::Div(a, b) => ev(a)?.div(&ev(b)?),
        Expr::Rem(a, b) => ev(a)?.rem(&ev(b)?),
        Expr::Cmp(op, a, b) => {
            let (av, bv) = (ev(a)?, ev(b)?);
            let ord = av.cmp(&bv);
            Ok(Value::Bool(match op {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => ord.is_ne(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            }))
        }
        Expr::And(a, b) => Ok(Value::Bool(ev(a)?.as_bool()? && ev(b)?.as_bool()?)),
        Expr::Or(a, b) => Ok(Value::Bool(ev(a)?.as_bool()? || ev(b)?.as_bool()?)),
        Expr::Not(a) => Ok(Value::Bool(!ev(a)?.as_bool()?)),
        Expr::HashMod(a, m) => Ok(Value::Int((stable_hash(&ev(a)?) % (*m).max(1)) as i64)),
    }
}

/// Any kind of `Value`, weighted toward the ones that meet each other in a
/// comparison or in arithmetic: small integers, and floats including NaN,
/// both zeros and an integer-valued one.
fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..9) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2..=4 => Value::Int(rng.gen_range(-3i64..4)),
        5 => Value::Int([i64::MIN, i64::MAX, 0][rng.gen_range(0..3usize)]),
        6 | 7 => {
            Value::Float([f64::NAN, -0.0, 0.0, 2.0, -1.5, f64::INFINITY][rng.gen_range(0..6usize)])
        }
        _ => Value::from(["", "a", "b"][rng.gen_range(0..3usize)]),
    }
}

/// An expression tree of at most `depth` levels over every `Expr` variant,
/// with extra weight on `$[i] <op> constant` — the shape a `Filter` binds —
/// over every kind of constant. Field indices reach one past any generated
/// tuple's arity, so some leaves are out of range and only a short circuit
/// keeps them from erring.
fn arb_expr(rng: &mut StdRng, depth: u32) -> Expr {
    let leaf = depth <= 1 || rng.gen_bool(0.2);
    let kind = if leaf { rng.gen_range(0..2) } else { rng.gen_range(2..21) };
    let mut sub = || arb_expr(rng, depth - 1);
    match kind {
        17..=20 => {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let (op, field) = (ops[rng.gen_range(0..6usize)], rng.gen_range(0..5usize));
            Expr::Cmp(op, Box::new(Expr::field(field)), Box::new(Expr::Const(arb_value(rng))))
        }
        0 => Expr::field(rng.gen_range(0..5usize)),
        1 => Expr::Const(arb_value(rng)),
        2 => sub().add(sub()),
        3 => sub().sub(sub()),
        4 => sub().mul(sub()),
        5 => sub().div(sub()),
        6 => sub().rem(sub()),
        7 => sub().eq(sub()),
        8 => sub().ne(sub()),
        9 => sub().lt(sub()),
        10 => sub().le(sub()),
        11 => sub().gt(sub()),
        12 => sub().ge(sub()),
        13 => sub().and(sub()),
        14 => sub().or(sub()),
        15 => sub().not(),
        _ => {
            let operand = sub();
            operand.hash_mod(rng.gen_range(0u64..8))
        }
    }
}

/// A `(key, value)` stream for the aggregate: keys 0..6, `Int` values, and
/// one or two elements that are out of the ordinary — no fields, a value
/// that is not a number, or `i64::MAX`, which overflows an `Int` sum it
/// joins and makes a float sum inexact. Half the streams mix `Float`s into
/// the `Int` groups; their values are odd multiples of 0.5, so a sum of
/// them and small integers is exact in `f64` and no float equals an
/// integer. In the other half a key is fed -10, `i64::MAX`, 5, whose live
/// sum leaves `i64` when -10 is retracted first.
fn aggregate_stream(rng: &mut StdRng) -> Vec<Element> {
    let len = rng.gen_range(1..120usize);
    let floats = rng.gen_bool(0.5);
    let mut ts = 0u64;
    let mut stream: Vec<Element> = (0..len)
        .map(|_| {
            ts += rng.gen_range(0..300u64);
            let value = if floats && rng.gen_bool(0.25) {
                Value::Float(rng.gen_range(-50..50i64) as f64 + 0.5)
            } else {
                Value::Int(rng.gen_range(-50..50i64))
            };
            Element::new(Tuple::pair(rng.gen_range(0..6i64), value), Timestamp::from_micros(ts))
        })
        .collect();
    for _ in 0..rng.gen_range(1..3) {
        let at = rng.gen_range(0..stream.len());
        let key = rng.gen_range(0..6i64);
        let row = match rng.gen_range(0..3) {
            0 => Tuple::empty(),
            1 => Tuple::pair(key, "x"),
            _ => Tuple::pair(key, i64::MAX),
        };
        stream[at] = Element::new(row, stream[at].ts);
    }
    if !floats && len >= 4 {
        let at = rng.gen_range(0..len - 3);
        let key = rng.gen_range(0..6i64);
        for (e, v) in stream[at..].iter_mut().zip([-10, i64::MAX, 5]) {
            *e = Element::new(Tuple::pair(key, v), e.ts);
        }
    }
    stream
}

/// What an aggregate must emit for `stream`, element by element, from the
/// live `(key, value)` list alone: the results, the positions of the
/// refused elements, and the number of live groups at the end. Sums are
/// exact, in halves (every generated float is a multiple of 0.5); a sum is
/// emitted as a `Float` if a `Float` joined its group since the group was
/// last empty, and an `Int` one must fit in `i64` or the element is refused.
/// A snapshot keeps only the live elements: after the first `cut` elements
/// a group is a float group if a live element is a `Float`.
fn reference_aggregate(
    func: AggregateFunction,
    grouped: bool,
    window: Duration,
    stream: &[Element],
    cut: usize,
) -> (Vec<Element>, Vec<usize>, usize) {
    let halves = |v: &Value| match *v {
        Value::Int(i) => i128::from(i) * 2,
        Value::Float(f) => (f * 2.0) as i128,
        _ => unreachable!("only numbers are summed"),
    };
    let mut live: Vec<(Timestamp, Value, Value)> = Vec::new();
    let mut float_groups: Vec<Value> = Vec::new();
    let (mut results, mut refused) = (Vec::new(), Vec::new());
    for (at, e) in stream.iter().enumerate() {
        if at == cut {
            float_groups = live
                .iter()
                .filter(|(.., v)| matches!(v, Value::Float(_)))
                .map(|(_, k, _)| k.clone())
                .collect();
        }
        let cutoff = e.ts.saturating_sub(window);
        live.retain(|(ts, ..)| *ts >= cutoff);
        float_groups.retain(|k| live.iter().any(|(_, key, _)| key == k));
        let key = if grouped { e.tuple.get(0).ok().cloned() } else { Some(Value::Null) };
        let field = match func {
            AggregateFunction::Count => Some(Value::Null),
            _ => e.tuple.get(1).ok().cloned(),
        };
        let (Some(key), Some(field)) = (key, field) else {
            refused.push(at);
            continue;
        };
        let mut group: Vec<&Value> =
            live.iter().filter(|(_, k, _)| *k == key).map(|(.., v)| v).collect();
        group.push(&field);
        let count = group.len();
        let agg = match func {
            AggregateFunction::Count => Value::Int(count as i64),
            AggregateFunction::Min(_) => group.iter().min().map(|v| (*v).clone()).unwrap(),
            AggregateFunction::Max(_) => group.iter().max().map(|v| (*v).clone()).unwrap(),
            AggregateFunction::Sum(_) | AggregateFunction::Avg(_) => {
                if !matches!(field, Value::Int(_) | Value::Float(_)) {
                    refused.push(at);
                    continue;
                }
                let sum: i128 = group.iter().map(|v| halves(v)).sum();
                let float = float_groups.contains(&key) || matches!(field, Value::Float(_));
                if !float && i64::try_from(sum / 2).is_err() {
                    refused.push(at);
                    continue;
                }
                match func {
                    AggregateFunction::Sum(_) if float => Value::Float(sum as f64 / 2.0),
                    AggregateFunction::Sum(_) => Value::Int((sum / 2) as i64),
                    _ => Value::Float(sum as f64 / 2.0 / count as f64),
                }
            }
        };
        if matches!(field, Value::Float(_)) && !float_groups.contains(&key) {
            float_groups.push(key.clone());
        }
        let row = if grouped { Tuple::pair(key.clone(), agg) } else { Tuple::single(agg) };
        results.push(Element::new(row, e.ts));
        live.push((e.ts, key, field));
    }
    let mut keys: Vec<&Value> = live.iter().map(|(_, k, _)| k).collect();
    keys.sort();
    keys.dedup();
    (results, refused, keys.len())
}

/// What one way of feeding an aggregate left behind: every result, the
/// positions of the elements it refused, its snapshot at the cut and at the
/// end, and its live group count at the end.
#[derive(Debug, PartialEq)]
struct Fed {
    results: Vec<Element>,
    refused: Vec<usize>,
    blob_at_cut: Vec<u8>,
    blob_at_end: Vec<u8>,
    live_groups: usize,
}

/// Feeds `stream` to a fresh aggregate, skipping each element it refuses
/// and going on behind it; after the first `cut` elements the aggregate is
/// snapshot and the rest goes to a fresh one restored from the blob.
/// `run_len` `None` is per element through `process`; `Some(n)` is runs of
/// `n` through `process_batch`, which must leave a refused element at the
/// head of the run.
fn feed(
    build: &dyn Fn() -> WindowAggregate,
    stream: &[Element],
    cut: usize,
    run_len: Option<usize>,
) -> Fed {
    let mut agg = build();
    let mut out = Output::new();
    let mut refused = Vec::new();
    let mut blob_at_cut = Vec::new();
    for (half, offset) in [(&stream[..cut], 0), (&stream[cut..], cut)] {
        if offset > 0 {
            let blob = agg.snapshot();
            blob_at_cut = blob.payload().to_vec();
            agg = build();
            agg.restore(blob).unwrap();
        }
        match run_len {
            None => {
                for (i, e) in half.iter().enumerate() {
                    if agg.process(0, e, &mut out).is_err() {
                        refused.push(offset + i);
                    }
                }
            }
            Some(n) => {
                for (start, chunk) in (offset..).step_by(n).zip(half.chunks(n)) {
                    let mut run = chunk.to_vec();
                    while agg.process_batch(0, &mut run, &mut out).is_err() {
                        let at = start + chunk.len() - run.len();
                        assert_eq!(run[0], stream[at], "the refused element heads the run");
                        refused.push(at);
                        run.remove(0);
                    }
                    assert!(run.is_empty());
                }
            }
        }
    }
    Fed {
        results: out.drain().collect(),
        refused,
        blob_at_cut,
        blob_at_end: agg.snapshot().payload().to_vec(),
        live_groups: agg.live_groups(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn an_aggregate_run_computes_what_its_elements_compute(case_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let stream = aggregate_stream(&mut rng);
        // The reference sums in exact halves, which a float sum holding
        // `i64::MAX` is not; the run is still checked against its elements.
        let holds = |f: fn(&Value) -> bool| stream.iter().any(|e| e.tuple.get(1).is_ok_and(f));
        let exact = !(holds(|v| matches!(v, Value::Float(_)))
            && holds(|v| *v == Value::Int(i64::MAX)));
        let cut = rng.gen_range(0..=stream.len());
        let window = Duration::from_micros(rng.gen_range(1..1_500));
        let functions = [
            AggregateFunction::Count,
            AggregateFunction::Sum(1),
            AggregateFunction::Avg(1),
            AggregateFunction::Min(1),
            AggregateFunction::Max(1),
        ];
        for func in functions {
            for grouped in [false, true] {
                let build = || {
                    let agg = WindowAggregate::new("agg", func, window);
                    if grouped { agg.group_by(Expr::field(0)) } else { agg }
                };
                let want = feed(&build, &stream, cut, None);
                if exact || !matches!(func, AggregateFunction::Sum(_) | AggregateFunction::Avg(_)) {
                    let (results, refused, live_groups) =
                        reference_aggregate(func, grouped, window, &stream, cut);
                    prop_assert_eq!(
                        (&want.results, &want.refused, want.live_groups),
                        (&results, &refused, live_groups),
                        "case_seed={} func={:?} grouped={}", case_seed, func, grouped
                    );
                }
                for run_len in [1, 7, 32] {
                    prop_assert_eq!(
                        &feed(&build, &stream, cut, Some(run_len)), &want,
                        "case_seed={} func={:?} grouped={} run_len={}",
                        case_seed, func, grouped, run_len
                    );
                }
            }
        }
    }

    #[test]
    fn borrowed_evaluation_is_the_owning_evaluation(case_seed in any::<u64>()) {
        // The vendored proptest does not shrink, so every case is grown
        // from one logged seed: a failure names the seed that replays it.
        let mut rng = StdRng::seed_from_u64(case_seed);
        for _ in 0..64 {
            let expr = arb_expr(&mut rng, 4);
            // A `Filter` binds its predicate: it has to answer what the
            // reference answers, per element and over a run.
            let mut filter = Filter::new("f", expr.clone());
            let run: Vec<Element> = (0..rng.gen_range(1..24u64))
                .map(|at| {
                    let arity = rng.gen_range(0..5usize);
                    let row = Tuple::new((0..arity).map(|_| arb_value(&mut rng)).collect::<Vec<_>>());
                    Element::new(row, Timestamp::from_micros(at))
                })
                .collect();
            let mut verdicts = Vec::new();
            for element in &run {
                let tuple = &element.tuple;
                let want = owning_eval(&expr, tuple);
                prop_assert_eq!(
                    expr.eval(tuple), want.clone(),
                    "eval, case_seed={} expr={} tuple={}", case_seed, expr, tuple
                );
                prop_assert_eq!(
                    expr.eval_ref(tuple).map(|v| v.into_owned()), want.clone(),
                    "eval_ref, case_seed={} expr={} tuple={}", case_seed, expr, tuple
                );
                let verdict = want.and_then(|v| v.as_bool());
                prop_assert_eq!(
                    expr.eval_bool(tuple), verdict.clone(),
                    "eval_bool, case_seed={} expr={} tuple={}", case_seed, expr, tuple
                );
                let mut out = Output::new();
                prop_assert_eq!(
                    filter.process(0, element, &mut out).map(|()| !out.is_empty()), verdict.clone(),
                    "Filter::process, case_seed={} expr={} tuple={}", case_seed, expr, tuple
                );
                verdicts.push(verdict);
            }
            // Positions of the elements that pass, below `end`.
            let passes = |end: usize| -> Vec<u64> {
                (0..end).filter(|&at| verdicts[at] == Ok(true)).map(|at| at as u64).collect()
            };
            // What `out` holds before the run: nothing, or an element it
            // must keep in front.
            let mut out = Output::new();
            let before: Vec<u64> = match rng.gen_bool(0.5) {
                true => Vec::new(),
                false => {
                    out.emit(Tuple::empty(), Timestamp::from_micros(1_000));
                    vec![1_000]
                }
            };
            let positions = |out: &Output| -> Vec<u64> {
                out.elements().iter().map(|e| e.ts.as_micros()).collect()
            };
            let mut rest = run.clone();
            while let Err(e) = filter.process_batch(0, &mut rest, &mut out) {
                let at = run.len() - rest.len();
                prop_assert_eq!(
                    Err(e), verdicts[at].clone(),
                    "the error at {}, case_seed={} expr={}", at, case_seed, expr
                );
                prop_assert_eq!(&rest[0], &run[at], "the failing element heads the rest");
                prop_assert_eq!(
                    positions(&out), [&before[..], &passes(at)[..]].concat(),
                    "the passes before {}, case_seed={} expr={}", at, case_seed, expr
                );
                rest.remove(0);
            }
            prop_assert!(rest.is_empty());
            prop_assert_eq!(
                positions(&out), [&before[..], &passes(run.len())[..]].concat(),
                "Filter::process_batch, case_seed={} expr={}", case_seed, expr
            );
        }
    }

    #[test]
    fn shj_equals_reference(
        left in arb_stream(60),
        right in arb_stream(60),
        window_us in 1u64..5_000,
    ) {
        let window = Duration::from_micros(window_us);
        let mut shj = SymmetricHashJoin::on_field("shj", 0, window);
        prop_assert_eq!(
            run_join(&mut shj, &left, &right),
            reference_join(&left, &right, window)
        );
    }

    #[test]
    fn snj_equals_reference(
        left in arb_stream(40),
        right in arb_stream(40),
        window_us in 1u64..5_000,
    ) {
        let window = Duration::from_micros(window_us);
        let mut snj = SymmetricNestedLoopsJoin::on_field("snj", 0, window);
        prop_assert_eq!(
            run_join(&mut snj, &left, &right),
            reference_join(&left, &right, window)
        );
    }

    #[test]
    fn window_buffer_retains_exactly_the_live_elements(
        gaps in proptest::collection::vec(0u64..500, 1..80),
        extent_us in 1u64..2_000,
    ) {
        let extent = Duration::from_micros(extent_us);
        let mut w = WindowBuffer::new(extent);
        let mut ts = 0u64;
        let mut all = Vec::new();
        for (i, gap) in gaps.iter().enumerate() {
            ts += gap;
            let e = Element::single(i as i64, Timestamp::from_micros(ts));
            all.push(e.clone());
            w.insert(e);
            w.expire(Timestamp::from_micros(ts));
            // Invariant: live elements are exactly those with
            // ts >= now - extent.
            let cutoff = Timestamp::from_micros(ts).saturating_sub(extent);
            let expected: Vec<i64> = all
                .iter()
                .filter(|e| e.ts >= cutoff)
                .map(|e| e.tuple.field(0).as_int().unwrap())
                .collect();
            let live: Vec<i64> =
                w.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
            prop_assert_eq!(live, expected);
        }
    }

    #[test]
    fn windowed_count_matches_naive(
        gaps in proptest::collection::vec(0u64..300, 1..80),
        extent_us in 1u64..1_000,
    ) {
        let extent = Duration::from_micros(extent_us);
        let mut agg = WindowAggregate::new("c", AggregateFunction::Count, extent);
        let mut out = Output::new();
        let mut ts = 0u64;
        let mut history: Vec<u64> = Vec::new();
        for (i, gap) in gaps.iter().enumerate() {
            ts += gap;
            history.push(ts);
            agg.process(0, &Element::single(i as i64, Timestamp::from_micros(ts)), &mut out)
                .unwrap();
            let got = out.drain().next().unwrap().tuple.field(0).as_int().unwrap();
            let cutoff = ts.saturating_sub(extent_us);
            let naive = history.iter().filter(|&&t| t >= cutoff).count() as i64;
            prop_assert_eq!(got, naive, "at ts={}", ts);
        }
    }

    #[test]
    fn windowed_sum_matches_naive(
        items in proptest::collection::vec((0u64..300, -100i64..100), 1..60),
        extent_us in 1u64..1_000,
    ) {
        let extent = Duration::from_micros(extent_us);
        let mut agg = WindowAggregate::new("s", AggregateFunction::Sum(0), extent);
        let mut out = Output::new();
        let mut ts = 0u64;
        let mut history: Vec<(u64, i64)> = Vec::new();
        for (gap, v) in items {
            ts += gap;
            history.push((ts, v));
            agg.process(0, &Element::single(v, Timestamp::from_micros(ts)), &mut out)
                .unwrap();
            let got = out.drain().next().unwrap().tuple.field(0).as_int().unwrap();
            let cutoff = ts.saturating_sub(extent_us);
            let naive: i64 =
                history.iter().filter(|(t, _)| *t >= cutoff).map(|(_, v)| v).sum();
            prop_assert_eq!(got, naive, "at ts={}", ts);
        }
    }

    #[test]
    fn windowed_min_matches_naive(
        items in proptest::collection::vec((0u64..300, -50i64..50), 1..60),
        extent_us in 1u64..800,
    ) {
        let extent = Duration::from_micros(extent_us);
        let mut agg = WindowAggregate::new("m", AggregateFunction::Min(0), extent);
        let mut out = Output::new();
        let mut ts = 0u64;
        let mut history: Vec<(u64, i64)> = Vec::new();
        for (gap, v) in items {
            ts += gap;
            history.push((ts, v));
            agg.process(0, &Element::single(v, Timestamp::from_micros(ts)), &mut out)
                .unwrap();
            let got = out.drain().next().unwrap().tuple.field(0).clone();
            let cutoff = ts.saturating_sub(extent_us);
            let naive = history
                .iter()
                .filter(|(t, _)| *t >= cutoff)
                .map(|(_, v)| *v)
                .min()
                .unwrap();
            prop_assert_eq!(got, Value::Int(naive), "at ts={}", ts);
        }
    }

    #[test]
    fn filter_chain_equals_conjunction(
        values in proptest::collection::vec(-1000i64..1000, 0..100),
        a in -1000i64..1000,
        b in -1000i64..1000,
    ) {
        // The paper's §3.1: a chain of selections behaves as one virtual
        // operator computing their conjunction.
        let mut f1 = Filter::new("f1", Expr::field(0).ge(Expr::int(a)));
        let mut f2 = Filter::new("f2", Expr::field(0).lt(Expr::int(b)));
        let mut conj = Filter::new(
            "conj",
            Expr::field(0).ge(Expr::int(a)).and(Expr::field(0).lt(Expr::int(b))),
        );
        let mut out = Output::new();
        let mut chained = Vec::new();
        let mut direct = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let e = Element::single(v, Timestamp::from_micros(i as u64));
            f1.process(0, &e, &mut out).unwrap();
            let pass1: Vec<Element> = out.drain().collect();
            for e1 in pass1 {
                f2.process(0, &e1, &mut out).unwrap();
                chained.extend(out.drain().map(|e| e.tuple.field(0).as_int().unwrap()));
            }
            conj.process(0, &e, &mut out).unwrap();
            direct.extend(out.drain().map(|e| e.tuple.field(0).as_int().unwrap()));
        }
        prop_assert_eq!(chained, direct);
    }
}
