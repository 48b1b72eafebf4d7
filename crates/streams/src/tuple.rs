//! Fixed-arity tuples of dynamic [`Value`]s — the payload of stream elements.

use std::fmt;
use std::sync::Arc;

use crate::error::StreamError;
use crate::value::Value;

/// An immutable tuple of [`Value`]s.
///
/// Tuples are shared between operators by reference counting: cloning a
/// `Tuple` copies one pointer, so fan-out in a query graph (the paper's
/// subquery sharing, Fig. 1) does not copy payloads.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Builds a tuple from any collection of values.
    pub fn new<I>(values: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<Value>,
    {
        Tuple { values: values.into_iter().map(Into::into).collect() }
    }

    /// The empty tuple: the payload of a shard replica's `empty` marker.
    /// It allocates nothing — every empty tuple shares one static slice.
    pub fn empty() -> Self {
        Tuple { values: Arc::default() }
    }

    /// Convenience constructor for the single-integer tuples that dominate
    /// the paper's synthetic experiments.
    ///
    /// Here and in [`Tuple::pair`] the fields go from an array straight
    /// into the shared slice: one allocation, no collect.
    pub fn single(v: impl Into<Value>) -> Self {
        Tuple { values: Arc::from([v.into()]) }
    }

    /// Convenience constructor for key/value pair tuples.
    pub fn pair(a: impl Into<Value>, b: impl Into<Value>) -> Self {
        Tuple { values: Arc::from([a.into(), b.into()]) }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Whether the tuple has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow field `index`, with a descriptive error when out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Result<&Value, StreamError> {
        self.values
            .get(index)
            .ok_or(StreamError::FieldOutOfBounds { index, arity: self.values.len() })
    }

    /// Borrow field `index` without the error wrapper; panics if out of
    /// bounds. Use in hot paths where the index was validated at graph
    /// construction time.
    pub fn field(&self, index: usize) -> &Value {
        &self.values[index]
    }

    /// All fields, in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// A new tuple containing the fields at `indices`, in that order
    /// (relational projection, duplicates allowed).
    pub fn project(&self, indices: &[usize]) -> Result<Tuple, StreamError> {
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            out.push(self.get(i)?.clone());
        }
        Ok(Tuple { values: out.into() })
    }

    /// Concatenation of two tuples (used by joins to combine probe and build
    /// sides).
    ///
    /// Two allocations on purpose, here and in [`Tuple::project`]:
    /// collecting straight into the `Arc<[Value]>` saves the `Vec` and
    /// measures slower (EXPERIMENTS.md, "Dead ends worth keeping").
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut out = Vec::with_capacity(self.arity() + other.arity());
        out.extend_from_slice(&self.values);
        out.extend_from_slice(&other.values);
        Tuple { values: out.into() }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tuple{self}")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<V: Into<Value>> FromIterator<V> for Tuple {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Tuple::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::new([Value::Int(1), Value::from("a"), Value::Float(2.0)]);
        assert_eq!(t.arity(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.get(0).unwrap(), &Value::Int(1));
        assert_eq!(t.field(1), &Value::from("a"));
        assert_eq!(t.get(3), Err(StreamError::FieldOutOfBounds { index: 3, arity: 3 }));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(Tuple::empty().arity(), 0);
        assert!(Tuple::empty().is_empty());
        let s = Tuple::single(42);
        assert_eq!(s.arity(), 1);
        assert_eq!(s.field(0), &Value::Int(42));
        let p = Tuple::pair(1, "x");
        assert_eq!(p.values(), &[Value::Int(1), Value::from("x")]);
    }

    #[test]
    fn projection_preserves_order_and_allows_duplicates() {
        let t = Tuple::new([10i64, 20, 30]);
        let p = t.project(&[2, 0, 0]).unwrap();
        assert_eq!(p.values(), &[Value::Int(30), Value::Int(10), Value::Int(10)]);
        // The first offending index is reported, however many valid ones
        // precede it.
        assert_eq!(t.project(&[5]), Err(StreamError::FieldOutOfBounds { index: 5, arity: 3 }));
        assert_eq!(
            t.project(&[1, 3, 9]),
            Err(StreamError::FieldOutOfBounds { index: 3, arity: 3 })
        );
        assert_eq!(t.project(&[]).unwrap(), Tuple::empty());
    }

    #[test]
    fn concat() {
        let a = Tuple::new([1i64, 2]);
        let b = Tuple::new([3i64]);
        assert_eq!(a.concat(&b).values(), &[Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(a.concat(&Tuple::empty()), a);
        assert_eq!(Tuple::empty().concat(&b), b);
    }

    #[test]
    fn clone_is_shallow() {
        let t = Tuple::new([1i64, 2, 3]);
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.values, &c.values));
    }

    #[test]
    fn display_format() {
        assert_eq!(Tuple::new([1i64, 2]).to_string(), "(1, 2)");
        assert_eq!(Tuple::empty().to_string(), "()");
        assert_eq!(format!("{:?}", Tuple::single(5)), "Tuple(5)");
    }

    #[test]
    fn equality_and_hash_usable_as_key() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Tuple::new([1i64, 2]));
        assert!(set.contains(&Tuple::new([1i64, 2])));
        assert!(!set.contains(&Tuple::new([2i64, 1])));
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = vec![1i64, 2, 3].into_iter().collect();
        assert_eq!(t.arity(), 3);
    }
}
