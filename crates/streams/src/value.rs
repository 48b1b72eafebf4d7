//! Dynamically typed stream values.
//!
//! Query graphs in this framework are composed at runtime (the paper's
//! experiments re-partition graphs on the fly and generate random DAGs), so
//! stream elements carry a small dynamic value type rather than a static Rust
//! type. This mirrors the original PIPES design, where elements are plain
//! Java objects inspected by operators.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::StreamError;
use crate::shared_str::SharedStr;

/// A single dynamically typed value inside a [`crate::tuple::Tuple`].
///
/// `Value` implements *total* equality, ordering, and hashing — floats are
/// compared by their bit pattern (with all NaNs collapsed to one canonical
/// NaN) so values can be used as hash-join and group-by keys.
///
/// A `Value` is two words. The tag is a whole word (`repr(u64)`), so every
/// payload, a `Bool`'s too, is the second: with a one-byte tag a `Bool` sat
/// at byte 1, and a clone copied a non-string value's bytes 1 to 15 as two
/// overlapping words through the stack, whose reloads stall store
/// forwarding (`micro_tuple`'s `pair_clone_broadcast2` read ≈ 140 ns a
/// tuple in one build, against ≈ 16 with the word tag).
#[derive(Debug, Clone)]
#[repr(u64)]
pub enum Value {
    /// Absent / SQL-NULL-like value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Immutable shared string (cheap to clone between operators), held in
    /// one word so that a `Value` is two.
    Str(SharedStr),
}

impl Value {
    /// Human-readable name of the runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Bool(_) => "Bool",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
        }
    }

    /// Returns the integer payload, or a type-mismatch error.
    pub fn as_int(&self) -> Result<i64, StreamError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(StreamError::TypeMismatch { expected: "Int", found: other.type_name() }),
        }
    }

    /// Returns the boolean payload, or a type-mismatch error.
    #[inline]
    pub fn as_bool(&self) -> Result<bool, StreamError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(StreamError::TypeMismatch { expected: "Bool", found: other.type_name() }),
        }
    }

    /// Returns the value as a float, coercing integers (the usual numeric
    /// widening); errors on non-numeric types.
    pub fn as_float(&self) -> Result<f64, StreamError> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(StreamError::TypeMismatch { expected: "Float", found: other.type_name() }),
        }
    }

    /// Returns the string payload, or a type-mismatch error.
    pub fn as_str(&self) -> Result<&str, StreamError> {
        match self {
            Value::Str(s) => Ok(s.as_str()),
            other => Err(StreamError::TypeMismatch { expected: "Str", found: other.type_name() }),
        }
    }

    /// Rank used to order values of different runtime types; gives `Value` a
    /// total order so heterogeneous columns still sort deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Canonical bit pattern for float comparison/hashing: all NaNs map to
    /// one pattern, and -0.0 maps to +0.0, so `==` agrees with `hash`.
    fn canonical_float_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0.0f64.to_bits()
        } else {
            f.to_bits()
        }
    }

    /// The canonical float value (`Ord` must agree with the canonicalized
    /// `Eq`: without this, `-0.0 == 0.0` but `cmp` would say `Greater`,
    /// breaking ordered-map invariants).
    fn canonical_float(f: f64) -> f64 {
        f64::from_bits(Self::canonical_float_bits(f))
    }

    /// Numeric addition with `Int`/`Float` coercion.
    pub fn add(&self, other: &Value) -> Result<Value, StreamError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                a.checked_add(*b).map(Value::Int).ok_or(StreamError::ArithmeticOverflow)
            }
            _ => Ok(Value::Float(self.as_float()? + other.as_float()?)),
        }
    }

    /// Numeric subtraction with `Int`/`Float` coercion.
    pub fn sub(&self, other: &Value) -> Result<Value, StreamError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                a.checked_sub(*b).map(Value::Int).ok_or(StreamError::ArithmeticOverflow)
            }
            _ => Ok(Value::Float(self.as_float()? - other.as_float()?)),
        }
    }

    /// Numeric multiplication with `Int`/`Float` coercion.
    pub fn mul(&self, other: &Value) -> Result<Value, StreamError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                a.checked_mul(*b).map(Value::Int).ok_or(StreamError::ArithmeticOverflow)
            }
            _ => Ok(Value::Float(self.as_float()? * other.as_float()?)),
        }
    }

    /// Numeric division. Integer division by zero and float division by an
    /// exact zero both report [`StreamError::DivisionByZero`].
    pub fn div(&self, other: &Value) -> Result<Value, StreamError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(StreamError::DivisionByZero)
                } else {
                    a.checked_div(*b).map(Value::Int).ok_or(StreamError::ArithmeticOverflow)
                }
            }
            _ => {
                let d = other.as_float()?;
                if d == 0.0 {
                    Err(StreamError::DivisionByZero)
                } else {
                    Ok(Value::Float(self.as_float()? / d))
                }
            }
        }
    }

    /// Euclidean-style remainder for integers (used by hash-partitioning
    /// predicates in the experiments).
    pub fn rem(&self, other: &Value) -> Result<Value, StreamError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(StreamError::DivisionByZero)
                } else {
                    // Wraps only for `i64::MIN mod -1`, whose exact result 0
                    // is what it returns.
                    Ok(Value::Int(a.wrapping_rem_euclid(*b)))
                }
            }
            _ => Err(StreamError::TypeMismatch {
                expected: "Int",
                found: if matches!(self, Value::Int(_)) {
                    other.type_name()
                } else {
                    self.type_name()
                },
            }),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => {
                Self::canonical_float_bits(*a) == Self::canonical_float_bits(*b)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => {
                Self::canonical_float(*a).total_cmp(&Self::canonical_float(*b))
            }
            // Cross-numeric comparison: compare as floats so Int(1) < Float(1.5).
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(&Self::canonical_float(*b)),
            (Value::Float(a), Value::Int(b)) => Self::canonical_float(*a).total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => Self::canonical_float_bits(*f).hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(SharedStr::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(SharedStr::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "Null");
        assert_eq!(Value::from(true).type_name(), "Bool");
        assert_eq!(Value::from(1i64).type_name(), "Int");
        assert_eq!(Value::from(1.0).type_name(), "Float");
        assert_eq!(Value::from("x").type_name(), "Str");
    }

    #[test]
    fn accessors_and_coercion() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Int(7).as_float().unwrap(), 7.0);
        assert_eq!(Value::Float(2.5).as_float().unwrap(), 2.5);
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::from("abc").as_str().unwrap(), "abc");
        assert!(matches!(
            Value::from("abc").as_int(),
            Err(StreamError::TypeMismatch { expected: "Int", found: "Str" })
        ));
    }

    #[test]
    fn arithmetic_int() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(2).sub(&Value::Int(3)).unwrap(), Value::Int(-1));
        assert_eq!(Value::Int(2).mul(&Value::Int(3)).unwrap(), Value::Int(6));
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(7).rem(&Value::Int(3)).unwrap(), Value::Int(1));
        assert_eq!(Value::Int(-7).rem(&Value::Int(3)).unwrap(), Value::Int(2));
    }

    #[test]
    fn the_remainder_of_the_least_integer_by_minus_one_is_zero() {
        assert_eq!(Value::Int(i64::MIN).rem(&Value::Int(-1)), Ok(Value::Int(0)));
        assert_eq!(Value::Int(i64::MIN).rem(&Value::Int(i64::MIN)), Ok(Value::Int(0)));
    }

    #[test]
    fn arithmetic_mixed_coerces_to_float() {
        assert_eq!(Value::Int(2).add(&Value::Float(0.5)).unwrap(), Value::Float(2.5));
        assert_eq!(Value::Float(1.0).mul(&Value::Int(4)).unwrap(), Value::Float(4.0));
    }

    #[test]
    fn arithmetic_errors() {
        assert_eq!(Value::Int(1).div(&Value::Int(0)), Err(StreamError::DivisionByZero));
        assert_eq!(Value::Float(1.0).div(&Value::Float(0.0)), Err(StreamError::DivisionByZero));
        assert_eq!(Value::Int(1).rem(&Value::Int(0)), Err(StreamError::DivisionByZero));
        assert_eq!(Value::Int(i64::MAX).add(&Value::Int(1)), Err(StreamError::ArithmeticOverflow));
        assert_eq!(Value::Int(i64::MIN).sub(&Value::Int(1)), Err(StreamError::ArithmeticOverflow));
        assert!(Value::from("x").add(&Value::Int(1)).is_err());
    }

    #[test]
    fn float_equality_is_total_and_hash_consistent() {
        let nan1 = Value::Float(f64::NAN);
        let nan2 = Value::Float(f64::from_bits(0x7ff8_0000_0000_0001));
        assert_eq!(nan1, nan2);
        assert_eq!(hash_of(&nan1), hash_of(&nan2));

        let pz = Value::Float(0.0);
        let nz = Value::Float(-0.0);
        assert_eq!(pz, nz);
        assert_eq!(hash_of(&pz), hash_of(&nz));
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = vec![
            Value::from("b"),
            Value::Float(1.5),
            Value::Int(2),
            Value::Null,
            Value::Bool(false),
            Value::from("a"),
            Value::Int(1),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Int(1),
                Value::Float(1.5),
                Value::Int(2),
                Value::from("a"),
                Value::from("b"),
            ]
        );
    }

    #[test]
    fn cross_numeric_comparison() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(2.5) > Value::Int(2));
        assert_eq!(Value::Int(3).cmp(&Value::Float(3.0)), Ordering::Equal);
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::from("hi").to_string(), "hi");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(String::from("s")), Value::from("s"));
    }
}
