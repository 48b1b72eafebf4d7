//! Payload generators for synthetic streams.

use rand::Rng;

use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

/// Generates one field of a synthetic tuple.
#[derive(Debug, Clone)]
pub enum FieldGen {
    /// Uniform integer in `[lo, hi)` — the paper's experiments draw element
    /// values "uniformly distributed in [0, 10^5]" etc.
    UniformInt {
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// Consecutive integers starting at the given value (element ids).
    Sequence {
        /// The next value to emit.
        next: i64,
    },
    /// Always the same value.
    Constant(Value),
}

impl FieldGen {
    /// Uniform integers in `[lo, hi)`.
    pub fn uniform_int(lo: i64, hi: i64) -> FieldGen {
        assert!(lo < hi, "empty integer range");
        FieldGen::UniformInt { lo, hi }
    }

    /// A counter starting at `start`.
    pub fn sequence(start: i64) -> FieldGen {
        FieldGen::Sequence { next: start }
    }

    /// A constant field.
    pub fn constant(v: impl Into<Value>) -> FieldGen {
        FieldGen::Constant(v.into())
    }

    /// Produces the next value.
    pub fn generate(&mut self, rng: &mut impl Rng) -> Value {
        match self {
            FieldGen::UniformInt { lo, hi } => Value::Int(rng.gen_range(*lo..*hi)),
            FieldGen::Sequence { next } => {
                let v = *next;
                *next += 1;
                Value::Int(v)
            }
            FieldGen::Constant(v) => v.clone(),
        }
    }
}

/// Generates whole tuples: one [`FieldGen`] per field.
#[derive(Debug, Clone)]
pub struct TupleGen {
    fields: Vec<FieldGen>,
}

impl TupleGen {
    /// A tuple generator from field generators.
    pub fn new(fields: Vec<FieldGen>) -> TupleGen {
        assert!(!fields.is_empty(), "tuples need at least one field");
        TupleGen { fields }
    }

    /// Single-field tuples of uniform integers — the paper's standard
    /// element shape.
    pub fn uniform_int(lo: i64, hi: i64) -> TupleGen {
        TupleGen::new(vec![FieldGen::uniform_int(lo, hi)])
    }

    /// Produces the next tuple.
    pub fn generate(&mut self, rng: &mut impl Rng) -> Tuple {
        Tuple::new(self.fields.iter_mut().map(|f| f.generate(rng)))
    }

    /// Number of fields per tuple.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_int_stays_in_range() {
        let mut g = FieldGen::uniform_int(10, 20);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = g.generate(&mut rng).as_int().unwrap();
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn uniform_int_covers_range() {
        let mut g = FieldGen::uniform_int(0, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let seen: std::collections::HashSet<i64> =
            (0..200).map(|_| g.generate(&mut rng).as_int().unwrap()).collect();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn sequence_counts_up() {
        let mut g = FieldGen::sequence(5);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(g.generate(&mut rng), Value::Int(5));
        assert_eq!(g.generate(&mut rng), Value::Int(6));
    }

    #[test]
    fn constant_repeats() {
        let mut g = FieldGen::constant("x");
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(g.generate(&mut rng), Value::from("x"));
        assert_eq!(g.generate(&mut rng), Value::from("x"));
    }

    #[test]
    fn tuple_gen_combines_fields() {
        let mut g = TupleGen::new(vec![FieldGen::sequence(0), FieldGen::constant(9)]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(g.arity(), 2);
        let t = g.generate(&mut rng);
        assert_eq!(t.values(), &[Value::Int(0), Value::Int(9)]);
        let t = g.generate(&mut rng);
        assert_eq!(t.values(), &[Value::Int(1), Value::Int(9)]);
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let run = |seed| {
            let mut g = TupleGen::uniform_int(0, 1_000_000);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10).map(|_| g.generate(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "empty integer range")]
    fn empty_range_rejected() {
        FieldGen::uniform_int(5, 5);
    }
}
