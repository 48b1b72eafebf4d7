//! Selection (filter) operators.

use std::time::Duration;

use hmts_streams::element::Element;
use hmts_streams::error::Result;
use hmts_streams::value::Value;

use crate::expr::{BoundPredicate, CmpOp, Expr};
use crate::traits::{Operator, Output};

enum Predicate {
    Expr(BoundPredicate),
    Fn(Box<dyn FnMut(&Element) -> bool + Send>),
}

/// A selection σ: passes an element iff its predicate holds.
///
/// Chains of cheap selections are the paper's canonical virtual-operator
/// example (§3.1): placing a queue before each would cost more than the
/// selections themselves.
pub struct Filter {
    name: String,
    predicate: Predicate,
    selectivity_hint: Option<f64>,
    cost_hint: Option<Duration>,
}

impl Filter {
    /// A selection with an expression predicate, bound here once (see
    /// [`BoundPredicate`]).
    pub fn new(name: impl Into<String>, predicate: Expr) -> Filter {
        Filter {
            name: name.into(),
            predicate: Predicate::Expr(BoundPredicate::new(predicate)),
            selectivity_hint: None,
            cost_hint: None,
        }
    }

    /// A selection with an arbitrary Rust predicate (not introspectable but
    /// fully general).
    pub fn from_fn(
        name: impl Into<String>,
        f: impl FnMut(&Element) -> bool + Send + 'static,
    ) -> Filter {
        Filter {
            name: name.into(),
            predicate: Predicate::Fn(Box::new(f)),
            selectivity_hint: None,
            cost_hint: None,
        }
    }

    /// Attaches an a-priori selectivity estimate for queue placement.
    pub fn with_selectivity_hint(mut self, s: f64) -> Filter {
        self.selectivity_hint = Some(s.clamp(0.0, 1.0));
        self
    }

    /// Attaches an a-priori per-element cost estimate for queue placement.
    pub fn with_cost_hint(mut self, c: Duration) -> Filter {
        self.cost_hint = Some(c);
        self
    }

    /// The predicate expression, if this filter was built from one.
    pub fn expr(&self) -> Option<&Expr> {
        match &self.predicate {
            Predicate::Expr(p) => Some(p.expr()),
            Predicate::Fn(_) => None,
        }
    }
}

impl Predicate {
    #[inline]
    fn holds(&mut self, element: &Element) -> Result<bool> {
        match self {
            Predicate::Expr(p) => p.holds(&element.tuple),
            Predicate::Fn(f) => Ok(f(element)),
        }
    }
}

/// A run a [`Filter`] is compacting in place: of its first `decided`
/// elements, the `kept` that passed are at its front, in order, and the
/// ones that failed behind them. The drop settles it, whether the predicate
/// returned, failed or panicked: the passes go to `out` — the whole run at
/// once when it was all decided — the failures go nowhere, and the elements
/// not yet decided stay in `run`.
struct Compacted<'a> {
    run: &'a mut Vec<Element>,
    out: &'a mut Output,
    kept: usize,
    decided: usize,
}

impl Compacted<'_> {
    /// Decides the run element by element, in order, with `decide`.
    fn compact(mut self, mut decide: impl FnMut(&Element) -> Result<bool>) -> Result<()> {
        while let Some(element) = self.run.get(self.decided) {
            if decide(element)? {
                if self.kept != self.decided {
                    self.run.swap(self.kept, self.decided);
                }
                self.kept += 1;
            }
            self.decided += 1;
        }
        Ok(())
    }
}

/// The decision of `$[field] <op> Int` given the compare of an `Int` field
/// with the constant: `compare` for an `Int` field, and what `p` answers —
/// the interpreter's answer or error — for any other value or a missing
/// field.
fn int_or_holds<'p>(
    p: &'p BoundPredicate,
    field: usize,
    compare: impl Fn(i64) -> bool + 'p,
) -> impl FnMut(&Element) -> Result<bool> + 'p {
    move |element| match element.tuple.values().get(field) {
        Some(&Value::Int(v)) => Ok(compare(v)),
        _ => p.holds(&element.tuple),
    }
}

impl Drop for Compacted<'_> {
    fn drop(&mut self) {
        let Compacted { run, out, kept, decided } = self;
        if *decided == run.len() {
            run.truncate(*kept);
            return out.append(run);
        }
        for element in run.drain(..*decided).take(*kept) {
            out.push(element);
        }
    }
}

impl Operator for Filter {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: usize, element: &Element, out: &mut Output) -> Result<()> {
        if self.predicate.holds(element)? {
            out.push(element.clone());
        }
        Ok(())
    }

    /// Filters the run in place: each passing element is swapped forward
    /// behind the ones that passed before it, and when the run is decided
    /// it is handed to `out` whole ([`Output::append`]). A failure at
    /// element *k* leaves *k* first in `run` (see `Compacted`).
    ///
    /// The decision is picked once per run: `$[i] <op> Int` is one typed
    /// compare, its operator fixed outside the loop, which reads an `Int`
    /// field inline and asks [`BoundPredicate::holds`] about any other
    /// value; every other predicate is asked per element.
    fn process_batch(
        &mut self,
        _port: usize,
        run: &mut Vec<Element>,
        out: &mut Output,
    ) -> Result<()> {
        let rest = Compacted { run, out, kept: 0, decided: 0 };
        let p = match &mut self.predicate {
            Predicate::Expr(p) => &*p,
            Predicate::Fn(f) => return rest.compact(|element| Ok(f(element))),
        };
        let Some((field, op, c)) = p.int_comparison() else {
            return rest.compact(|element| p.holds(&element.tuple));
        };
        match op {
            CmpOp::Eq => rest.compact(int_or_holds(p, field, move |v| v == c)),
            CmpOp::Ne => rest.compact(int_or_holds(p, field, move |v| v != c)),
            CmpOp::Lt => rest.compact(int_or_holds(p, field, move |v| v < c)),
            CmpOp::Le => rest.compact(int_or_holds(p, field, move |v| v <= c)),
            CmpOp::Gt => rest.compact(int_or_holds(p, field, move |v| v > c)),
            CmpOp::Ge => rest.compact(int_or_holds(p, field, move |v| v >= c)),
        }
    }

    fn cost_hint(&self) -> Option<Duration> {
        self.cost_hint
    }

    fn selectivity_hint(&self) -> Option<f64> {
        self.selectivity_hint
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        // Fn predicates may carry hidden state (see the every-other test
        // below) and cannot be cloned; expression predicates replicate.
        let predicate = match &self.predicate {
            Predicate::Expr(p) => Predicate::Expr(p.clone()),
            Predicate::Fn(_) => return None,
        };
        Some(Box::new(Filter {
            name: self.name.clone(),
            predicate,
            selectivity_hint: self.selectivity_hint,
            cost_hint: self.cost_hint,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;

    fn run(f: &mut Filter, values: &[i64]) -> Vec<i64> {
        let mut out = Output::new();
        for &v in values {
            f.process(0, &Element::single(v, Timestamp::ZERO), &mut out).unwrap();
        }
        out.drain().map(|e| e.tuple.field(0).as_int().unwrap()).collect()
    }

    #[test]
    fn expr_filter_passes_matching() {
        let mut f = Filter::new("lt5", Expr::field(0).lt(Expr::int(5)));
        assert_eq!(run(&mut f, &[1, 7, 4, 5, 0]), vec![1, 4, 0]);
        assert_eq!(f.name(), "lt5");
        assert!(f.expr().is_some());
    }

    #[test]
    fn fn_filter_works_and_is_stateful() {
        let mut seen = 0;
        let mut f = Filter::from_fn("every_other", move |_| {
            seen += 1;
            seen % 2 == 1
        });
        assert_eq!(run(&mut f, &[10, 11, 12, 13]), vec![10, 12]);
        assert!(f.expr().is_none());
    }

    #[test]
    fn hints_are_exposed() {
        let f = Filter::new("f", Expr::bool(true))
            .with_selectivity_hint(0.25)
            .with_cost_hint(Duration::from_micros(3));
        assert_eq!(f.selectivity_hint(), Some(0.25));
        assert_eq!(f.cost_hint(), Some(Duration::from_micros(3)));
        // Hints clamp out-of-range selectivities.
        let g = Filter::new("g", Expr::bool(true)).with_selectivity_hint(7.0);
        assert_eq!(g.selectivity_hint(), Some(1.0));
    }

    fn ints(elements: &[Element]) -> Vec<i64> {
        elements.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect()
    }

    #[test]
    fn a_run_is_its_elements_in_order() {
        let values: Vec<i64> = (0..150).map(|v| v * 7 % 10).collect();
        let mut one_by_one = Filter::new("lt5", Expr::field(0).lt(Expr::int(5)));
        let want = run(&mut one_by_one, &values);
        let mut f = Filter::new("lt5", Expr::field(0).lt(Expr::int(5)));
        let mut input: Vec<Element> =
            values.iter().map(|&v| Element::single(v, Timestamp::ZERO)).collect();
        let storage = input.as_ptr();
        let mut out = Output::new();
        f.process_batch(0, &mut input, &mut out).unwrap();
        assert!(input.is_empty(), "taken out");
        assert_eq!(out.elements().as_ptr(), storage, "handed over by swapping storage");
        assert_eq!(ints(out.elements()), want);
    }

    #[test]
    fn an_error_at_element_k_leaves_it_first_in_the_run_and_the_passes_before_it_out() {
        // Every element but the `k`-th has the field the predicate reads.
        for k in [0, 1, 3, 70] {
            let mut input: Vec<Element> = (0..80)
                .map(|v| match v == k {
                    true => Element::single(v, Timestamp::ZERO),
                    false => Element::new(Tuple::pair(v, v % 2), Timestamp::ZERO),
                })
                .collect();
            let mut f = Filter::new("odd", Expr::field(1).eq(Expr::int(1)));
            let mut out = Output::new();
            out.emit(Tuple::single(-1), Timestamp::ZERO);
            assert!(f.process_batch(0, &mut input, &mut out).is_err(), "k = {k}");
            assert_eq!(input.len() as i64, 80 - k, "k = {k}: the rest is still there");
            assert_eq!(ints(&input)[0], k, "k = {k}: the failing element first");
            let passed: Vec<i64> =
                std::iter::once(-1).chain((0..k).filter(|v| v % 2 == 1)).collect();
            assert_eq!(ints(out.elements()), passed, "k = {k}: what was there + passes of 0..k");
            // The caller skips it and goes on: the rest comes out the same.
            input.remove(0);
            f.process_batch(0, &mut input, &mut out).unwrap();
            let all: Vec<i64> =
                std::iter::once(-1).chain((0..80).filter(|&v| v != k && v % 2 == 1)).collect();
            assert_eq!(ints(out.elements()), all, "k = {k}");
        }
    }

    #[test]
    fn an_int_comparison_over_a_run_is_the_per_element_answer() {
        // `(i, i % 7 - 3)` rows, but for a `Float`, a `Str`, a `Null` and a
        // row without field 1 at known positions: the typed compare runs
        // between them, the predicate is asked about them, and the short
        // row is an error at its position.
        let row = |i: i64| -> Tuple {
            match i {
                5 => Tuple::pair(i, -0.5),
                12 => Tuple::pair(i, "s"),
                19 => Tuple::pair(i, Value::Null),
                26 => Tuple::single(i),
                _ => Tuple::pair(i, i % 7 - 3),
            }
        };
        let run: Vec<Element> = (0..40).map(|i| Element::new(row(i), Timestamp::ZERO)).collect();
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        for op in ops {
            let expr = Expr::Cmp(op, Box::new(Expr::field(1)), Box::new(Expr::int(0)));
            let mut one_by_one = Filter::new("f", expr.clone());
            let verdicts: Vec<Result<bool>> = run
                .iter()
                .map(|e| {
                    let mut out = Output::new();
                    one_by_one.process(0, e, &mut out).map(|()| !out.is_empty())
                })
                .collect();
            let passes = |end: usize| -> Vec<i64> {
                (0..end as i64).filter(|&at| verdicts[at as usize] == Ok(true)).collect()
            };
            let mut f = Filter::new("f", expr);
            let mut out = Output::new();
            let mut rest = run.clone();
            while let Err(e) = f.process_batch(0, &mut rest, &mut out) {
                let at = run.len() - rest.len();
                assert_eq!((at, Err(e)), (26, verdicts[at].clone()), "{op:?}");
                assert_eq!(rest[0], run[at], "{op:?}: the failing element first");
                assert_eq!(ints(out.elements()), passes(at), "{op:?}: the passes before it");
                rest.remove(0);
            }
            assert!(rest.is_empty(), "{op:?}");
            assert_eq!(ints(out.elements()), passes(run.len()), "{op:?}");
        }
    }

    #[test]
    fn a_panicking_predicate_is_not_asked_twice_about_what_it_decided() {
        // A stateful predicate: passes every other element, panics on 5.
        let mut seen = 0;
        let mut f = Filter::from_fn("every_other", move |e| {
            assert_ne!(e.tuple.field(0).as_int().unwrap(), 5, "five");
            seen += 1;
            seen % 2 == 1
        });
        let mut input: Vec<Element> = (0..8).map(|v| Element::single(v, Timestamp::ZERO)).collect();
        let mut out = Output::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.process_batch(0, &mut input, &mut out)
        }));
        assert!(caught.is_err());
        assert_eq!(ints(&input), [5, 6, 7]);
        assert_eq!(ints(out.elements()), [0, 2, 4]);
        input.remove(0);
        f.process_batch(0, &mut input, &mut out).unwrap();
        assert_eq!(ints(out.elements()), [0, 2, 4, 7], "6 is the sixth it was asked about");
    }

    #[test]
    fn predicate_error_propagates() {
        let mut f = Filter::new("bad", Expr::field(5).lt(Expr::int(1)));
        let mut out = Output::new();
        let e = Element::new(Tuple::single(1), Timestamp::ZERO);
        assert!(f.process(0, &e, &mut out).is_err());
    }
}
