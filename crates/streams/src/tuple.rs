//! Fixed-arity tuples of dynamic [`Value`]s — the payload of stream elements.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::StreamError;
use crate::value::Value;

/// An immutable tuple of [`Value`]s.
///
/// A tuple of up to two fields holds them inline: building, moving and
/// dropping it allocates nothing, so the single-integer and key/value
/// tuples that dominate the paper's experiments cross a thread without a
/// heap block of their own. A wider tuple shares its fields by reference
/// counting: cloning it copies one pointer, so fan-out in a query graph
/// (the paper's subquery sharing, Fig. 1) does not copy payloads.
///
/// Equality, ordering and hashing are those of [`Tuple::values`], whichever
/// way the fields are held.
#[derive(Clone)]
pub struct Tuple(Repr);

/// Where a tuple's fields live. Every constructor holds arity 0–2 inline
/// (`new` trusts its iterator's size hint); the variants are a storage
/// choice and never part of a tuple's identity.
#[derive(Clone)]
enum Repr {
    Two([Value; 2]),
    One(Value),
    Empty,
    Wide(Arc<[Value]>),
}

impl Tuple {
    /// Builds a tuple from any collection of values.
    ///
    /// Up to two values are read into the tuple itself. An iterator that
    /// promises more than two (its `size_hint`) is collected straight into
    /// the shared slice, one allocation for an exact-length one.
    pub fn new<I>(values: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<Value>,
    {
        let mut values = values.into_iter().map(Into::into);
        if values.size_hint().0 > 2 {
            return Tuple(Repr::Wide(values.collect()));
        }
        let Some(a) = values.next() else { return Tuple::empty() };
        let Some(b) = values.next() else { return Tuple(Repr::One(a)) };
        let Some(c) = values.next() else { return Tuple(Repr::Two([a, b])) };
        Tuple(Repr::Wide([a, b, c].into_iter().chain(values).collect()))
    }

    /// The empty tuple: the payload of a shard replica's `empty` marker.
    pub fn empty() -> Self {
        Tuple(Repr::Empty)
    }

    /// Convenience constructor for the single-integer tuples that dominate
    /// the paper's synthetic experiments.
    pub fn single(v: impl Into<Value>) -> Self {
        Tuple(Repr::One(v.into()))
    }

    /// Convenience constructor for key/value pair tuples.
    pub fn pair(a: impl Into<Value>, b: impl Into<Value>) -> Self {
        Tuple(Repr::Two([a.into(), b.into()]))
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Whether the tuple has no fields.
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// Borrow field `index`, with a descriptive error when out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Result<&Value, StreamError> {
        let values = self.values();
        values.get(index).ok_or(StreamError::FieldOutOfBounds { index, arity: values.len() })
    }

    /// Borrow field `index` without the error wrapper; panics if out of
    /// bounds. Use in hot paths where the index was validated at graph
    /// construction time.
    #[inline]
    pub fn field(&self, index: usize) -> &Value {
        &self.values()[index]
    }

    /// All fields, in order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::Two(values) => values,
            Repr::One(value) => std::slice::from_ref(value),
            Repr::Empty => &[],
            Repr::Wide(values) => values,
        }
    }

    /// A new tuple containing the fields at `indices`, in that order
    /// (relational projection, duplicates allowed).
    pub fn project(&self, indices: &[usize]) -> Result<Tuple, StreamError> {
        Ok(match *indices {
            [] => Tuple::empty(),
            [a] => Tuple(Repr::One(self.get(a)?.clone())),
            [a, b] => Tuple(Repr::Two([self.get(a)?.clone(), self.get(b)?.clone()])),
            _ => {
                let mut out = Vec::with_capacity(indices.len());
                for &i in indices {
                    out.push(self.get(i)?.clone());
                }
                Tuple(Repr::Wide(out.into()))
            }
        })
    }

    /// Concatenation of two tuples (used by joins to combine probe and build
    /// sides).
    ///
    /// A wide result costs two allocations on purpose, here and in
    /// [`Tuple::project`]: collecting straight into the `Arc<[Value]>` saves
    /// the `Vec` and measures slower (EXPERIMENTS.md, "Dead ends worth
    /// keeping").
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let (a, b) = (self.values(), other.values());
        match (a, b) {
            (_, []) => self.clone(),
            ([], _) => other.clone(),
            ([x], [y]) => Tuple(Repr::Two([x.clone(), y.clone()])),
            _ => {
                let mut out = Vec::with_capacity(a.len() + b.len());
                out.extend_from_slice(a);
                out.extend_from_slice(b);
                Tuple(Repr::Wide(out.into()))
            }
        }
    }
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Tuple) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state)
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
        for (i, v) in self.values().iter().enumerate() {
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
    fn a_wide_clone_shares_and_a_small_tuple_is_inline() {
        let wide = Tuple::new([1i64, 2, 3]);
        let (Repr::Wide(a), Repr::Wide(b)) = (&wide.0, &wide.clone().0) else {
            panic!("a tuple of three fields is shared");
        };
        assert!(Arc::ptr_eq(a, b));
        // Whichever way a small tuple is built, its fields are inline, and
        // its clone holds copies of them, not of a pointer.
        let small = [
            Tuple::empty(),
            Tuple::new(Vec::<Value>::new()),
            Tuple::single(1),
            Tuple::new(vec![1i64]),
            Tuple::pair(1, "x"),
            Tuple::new(vec![Value::Int(1), Value::from("x")]),
            (0..2i64).filter(|_| true).collect(),
            wide.project(&[2, 0]).unwrap(),
            Tuple::single(1).concat(&Tuple::single(2)),
            wide.project(&[]).unwrap().concat(&Tuple::single(3)),
        ];
        for t in small {
            assert!(!matches!(t.clone().0, Repr::Wide(_)), "{t} is not inline");
        }
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
