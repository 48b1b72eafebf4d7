//! A small data-driven expression language over tuples.
//!
//! Selections and projections in this framework are *data*, not closures:
//! the experiment harness builds query graphs programmatically (random DAGs,
//! parameter sweeps over selectivities), the placement algorithms print
//! graphs for inspection, and expressions must be `Send` without capturing
//! state. A compact interpreted AST is the general case and covers
//! everything the paper's workloads need; user code that wants arbitrary
//! Rust logic can still use the closure-based `Map`/`Filter::from_fn`
//! operators.
//!
//! One shape is bound instead of interpreted: a [`BoundPredicate`] resolves
//! `$[i] <op> constant` — the predicate of every selection in the
//! workloads — once, into a field read and one comparison. Every other
//! predicate it leaves to [`Expr::eval_bool`].

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};

use hmts_streams::error::Result;
use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

/// Comparison operators for [`Expr::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn apply(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// An expression evaluated against one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The value of tuple field `i`.
    Field(usize),
    /// A constant.
    Const(Value),
    /// Arithmetic: `lhs + rhs` (with `Int`/`Float` coercion).
    Add(Box<Expr>, Box<Expr>),
    /// Arithmetic: `lhs - rhs`.
    Sub(Box<Expr>, Box<Expr>),
    /// Arithmetic: `lhs * rhs`.
    Mul(Box<Expr>, Box<Expr>),
    /// Arithmetic: `lhs / rhs`.
    Div(Box<Expr>, Box<Expr>),
    /// Euclidean remainder `lhs mod rhs` (integers only).
    Rem(Box<Expr>, Box<Expr>),
    /// Comparison producing a boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction (short-circuiting).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (short-circuiting).
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// A stable 64-bit hash of the operand, folded into `[0, modulus)`.
    /// Used for deterministic pseudo-random selections in the experiments.
    HashMod(Box<Expr>, u64),
}

#[allow(clippy::should_implement_trait)] // `add`/`not`/… are AST builders, not arithmetic on Expr
impl Expr {
    /// Field reference.
    pub fn field(i: usize) -> Expr {
        Expr::Field(i)
    }

    /// Integer constant.
    pub fn int(v: i64) -> Expr {
        Expr::Const(Value::Int(v))
    }

    /// Float constant.
    pub fn float(v: f64) -> Expr {
        Expr::Const(Value::Float(v))
    }

    /// String constant.
    pub fn str(v: &str) -> Expr {
        Expr::Const(Value::from(v))
    }

    /// Boolean constant.
    pub fn bool(v: bool) -> Expr {
        Expr::Const(Value::Bool(v))
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// `self mod rhs`.
    pub fn rem(self, rhs: Expr) -> Expr {
        Expr::Rem(Box::new(self), Box::new(rhs))
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// `self <> rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// `NOT self`.
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `hash(self) mod modulus` — a deterministic pseudo-random integer in
    /// `[0, modulus)` derived from the operand.
    pub fn hash_mod(self, modulus: u64) -> Expr {
        Expr::HashMod(Box::new(self), modulus.max(1))
    }

    /// Evaluates the expression against `tuple` into a value of its own.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        self.eval_ref(tuple).map(Cow::into_owned)
    }

    /// Evaluates the expression against `tuple` without copying what is
    /// already there: a field or a constant is lent out, only a computed
    /// result is a new value. For callers that just look at the result — a
    /// comparison, a hash, a map lookup.
    #[inline]
    pub fn eval_ref<'a>(&'a self, tuple: &'a Tuple) -> Result<Cow<'a, Value>> {
        match self {
            Expr::Field(i) => tuple.get(*i).map(Cow::Borrowed),
            Expr::Const(v) => Ok(Cow::Borrowed(v)),
            _ => self.compute(tuple).map(Cow::Owned),
        }
    }

    /// The value of a node that has to build one, from borrowed operands.
    fn compute(&self, tuple: &Tuple) -> Result<Value> {
        match self {
            Expr::Field(i) => tuple.get(*i).cloned(),
            Expr::Const(v) => Ok(v.clone()),
            Expr::Add(a, b) => a.eval_ref(tuple)?.add(&*b.eval_ref(tuple)?),
            Expr::Sub(a, b) => a.eval_ref(tuple)?.sub(&*b.eval_ref(tuple)?),
            Expr::Mul(a, b) => a.eval_ref(tuple)?.mul(&*b.eval_ref(tuple)?),
            Expr::Div(a, b) => a.eval_ref(tuple)?.div(&*b.eval_ref(tuple)?),
            Expr::Rem(a, b) => a.eval_ref(tuple)?.rem(&*b.eval_ref(tuple)?),
            Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(_) => {
                self.eval_bool(tuple).map(Value::Bool)
            }
            // A modulus of 0, which only the bare variant can carry, is 1,
            // as `hash_mod` clamps it.
            Expr::HashMod(a, m) => {
                Ok(Value::Int((stable_hash(&*a.eval_ref(tuple)?) % (*m).max(1)) as i64))
            }
        }
    }

    /// Evaluates as a boolean predicate; non-boolean results are an error.
    /// The boolean connectives and comparisons are answered right here, on
    /// borrowed operands, without ever building a `Value`.
    pub fn eval_bool(&self, tuple: &Tuple) -> Result<bool> {
        match self {
            Expr::Cmp(op, a, b) => {
                let av = a.eval_ref(tuple)?;
                let bv = b.eval_ref(tuple)?;
                Ok(op.apply((*av).cmp(&*bv)))
            }
            Expr::And(a, b) => Ok(a.eval_bool(tuple)? && b.eval_bool(tuple)?),
            Expr::Or(a, b) => Ok(a.eval_bool(tuple)? || b.eval_bool(tuple)?),
            Expr::Not(a) => Ok(!a.eval_bool(tuple)?),
            _ => self.eval_ref(tuple)?.as_bool(),
        }
    }

    /// The highest field index referenced, or `None` for constant
    /// expressions — used to validate expressions against tuple arity at
    /// graph-construction time.
    pub fn max_field(&self) -> Option<usize> {
        match self {
            Expr::Field(i) => Some(*i),
            Expr::Const(_) => None,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Rem(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Cmp(_, a, b) => match (a.max_field(), b.max_field()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
            Expr::Not(a) | Expr::HashMod(a, _) => a.max_field(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Field(i) => write!(f, "$[{i}]"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Rem(a, b) => write!(f, "({a} % {b})"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::HashMod(a, m) => write!(f, "hash({a}) % {m}"),
        }
    }
}

/// A predicate resolved once from its [`Expr`], for a caller that asks it
/// about every element of a stream — a selection.
///
/// `$[i] <op> constant` is bound: a read of field `i` and one comparison,
/// with no box, no `Cow` and no `Result` per node — an `Int` field against
/// an `Int` constant compares two `i64`s, anything else goes through
/// `Value::cmp` as the interpreter does. Every other expression is
/// interpreted by [`Expr::eval_bool`]. Either way the answer, and the error
/// (a field out of range is still `FieldOutOfBounds` for that tuple), is
/// the interpreter's.
#[derive(Debug, Clone)]
pub struct BoundPredicate {
    expr: Expr,
    bound: Bound,
}

#[derive(Debug, Clone)]
enum Bound {
    /// `$[field] <op> constant`.
    FieldCmp { field: usize, op: CmpOp, constant: Value },
    /// Any other shape: the interpreter.
    Interpreted,
}

impl BoundPredicate {
    /// Binds `expr`.
    pub fn new(expr: Expr) -> BoundPredicate {
        let bound = match &expr {
            Expr::Cmp(op, a, b) => match (&**a, &**b) {
                (Expr::Field(i), Expr::Const(c)) => {
                    Bound::FieldCmp { field: *i, op: *op, constant: c.clone() }
                }
                _ => Bound::Interpreted,
            },
            _ => Bound::Interpreted,
        };
        BoundPredicate { expr, bound }
    }

    /// The expression this predicate was bound from.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// `(i, op, c)` if the predicate is `$[i] <op> c` for an `Int` constant
    /// `c`: a caller that decides many tuples can compare an `Int` field
    /// itself, and ask [`holds`](Self::holds) about any other value.
    pub fn int_comparison(&self) -> Option<(usize, CmpOp, i64)> {
        match self.bound {
            Bound::FieldCmp { field, op, constant: Value::Int(c) } => Some((field, op, c)),
            _ => None,
        }
    }

    /// Whether the predicate holds for `tuple`: what
    /// [`Expr::eval_bool`] answers.
    #[inline]
    pub fn holds(&self, tuple: &Tuple) -> Result<bool> {
        match &self.bound {
            Bound::FieldCmp { field, op, constant } => {
                let value = tuple.get(*field)?;
                let ord = match (value, constant) {
                    (Value::Int(v), Value::Int(c)) => v.cmp(c),
                    _ => value.cmp(constant),
                };
                Ok(op.apply(ord))
            }
            Bound::Interpreted => self.expr.eval_bool(tuple),
        }
    }
}

/// A stable (process-independent) 64-bit hash of a value, based on FNV-1a.
/// `std`'s `DefaultHasher` is seeded per process and therefore unsuitable
/// for reproducible experiments.
pub fn stable_hash(v: &Value) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().copied())
    }

    #[test]
    fn field_and_const() {
        let tup = t(&[10, 20]);
        assert_eq!(Expr::field(1).eval(&tup).unwrap(), Value::Int(20));
        assert_eq!(Expr::int(7).eval(&tup).unwrap(), Value::Int(7));
        assert_eq!(Expr::float(2.5).eval(&tup).unwrap(), Value::Float(2.5));
        assert_eq!(Expr::str("x").eval(&tup).unwrap(), Value::from("x"));
        assert!(Expr::field(9).eval(&tup).is_err());
    }

    #[test]
    fn arithmetic() {
        let tup = t(&[10, 3]);
        assert_eq!(Expr::field(0).add(Expr::field(1)).eval(&tup).unwrap(), Value::Int(13));
        assert_eq!(Expr::field(0).sub(Expr::int(4)).eval(&tup).unwrap(), Value::Int(6));
        assert_eq!(Expr::field(0).mul(Expr::int(2)).eval(&tup).unwrap(), Value::Int(20));
        assert_eq!(Expr::field(0).div(Expr::field(1)).eval(&tup).unwrap(), Value::Int(3));
        assert_eq!(Expr::field(0).rem(Expr::field(1)).eval(&tup).unwrap(), Value::Int(1));
        assert_eq!(Expr::field(0).div(Expr::int(0)).eval(&tup), Err(StreamError::DivisionByZero));
    }

    #[test]
    fn comparisons() {
        let tup = t(&[5]);
        assert!(Expr::field(0).lt(Expr::int(6)).eval_bool(&tup).unwrap());
        assert!(Expr::field(0).le(Expr::int(5)).eval_bool(&tup).unwrap());
        assert!(!Expr::field(0).gt(Expr::int(5)).eval_bool(&tup).unwrap());
        assert!(Expr::field(0).ge(Expr::int(5)).eval_bool(&tup).unwrap());
        assert!(Expr::field(0).eq(Expr::int(5)).eval_bool(&tup).unwrap());
        assert!(!Expr::field(0).ne(Expr::int(5)).eval_bool(&tup).unwrap());
    }

    #[test]
    fn cross_type_comparison_uses_total_order() {
        let tup = t(&[5]);
        assert!(Expr::field(0).lt(Expr::float(5.5)).eval_bool(&tup).unwrap());
    }

    #[test]
    fn boolean_logic_short_circuits() {
        let tup = t(&[1]);
        // The right operand would error (field out of bounds) if evaluated.
        let and = Expr::bool(false).and(Expr::field(9).gt(Expr::int(0)));
        assert!(!and.eval_bool(&tup).unwrap());
        let or = Expr::bool(true).or(Expr::field(9).gt(Expr::int(0)));
        assert!(or.eval_bool(&tup).unwrap());
        assert!(!Expr::bool(true).not().eval_bool(&tup).unwrap());
        // Non-short-circuit paths evaluate the right side.
        assert!(Expr::bool(true).and(Expr::field(9).gt(Expr::int(0))).eval(&tup).is_err());
    }

    #[test]
    fn eval_bool_rejects_non_bool() {
        let tup = t(&[1]);
        assert!(matches!(
            Expr::field(0).eval_bool(&tup),
            Err(StreamError::TypeMismatch { expected: "Bool", .. })
        ));
    }

    #[test]
    fn hash_mod_is_stable_and_in_range() {
        let tup = t(&[123_456]);
        let e = Expr::field(0).hash_mod(1000);
        let v1 = e.eval(&tup).unwrap().as_int().unwrap();
        let v2 = e.eval(&tup).unwrap().as_int().unwrap();
        assert_eq!(v1, v2);
        assert!((0..1000).contains(&v1));
        // Different inputs spread across buckets.
        let hits: std::collections::HashSet<i64> = (0..100)
            .map(|i| Expr::field(0).hash_mod(10).eval(&t(&[i])).unwrap().as_int().unwrap())
            .collect();
        assert!(hits.len() > 5, "hash should spread: {hits:?}");
    }

    #[test]
    fn hash_mod_zero_modulus_clamped() {
        let e = Expr::field(0).hash_mod(0);
        assert_eq!(e.eval(&t(&[5])).unwrap(), Value::Int(0));
    }

    #[test]
    fn a_zero_modulus_built_through_the_variant_is_one() {
        let e = Expr::HashMod(Box::new(Expr::field(0)), 0);
        assert_eq!(e.eval(&t(&[5])), Ok(Value::Int(0)));
        assert_eq!(e.to_string(), "hash($[0]) % 0");
    }

    #[test]
    fn max_field_analysis() {
        assert_eq!(Expr::int(1).max_field(), None);
        assert_eq!(Expr::field(3).max_field(), Some(3));
        assert_eq!(Expr::field(1).add(Expr::field(4)).max_field(), Some(4));
        assert_eq!(Expr::field(2).lt(Expr::int(0)).not().max_field(), Some(2));
        assert_eq!(Expr::int(1).add(Expr::int(2)).max_field(), None);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::field(0).add(Expr::int(1)).lt(Expr::int(10));
        assert_eq!(e.to_string(), "(($[0] + 1) < 10)");
        assert_eq!(Expr::field(0).hash_mod(7).to_string(), "hash($[0]) % 7");
        assert_eq!(Expr::bool(true).and(Expr::bool(false)).to_string(), "(true AND false)");
    }

    use hmts_streams::error::StreamError;
}
