//! Synthetic stream sources.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hmts_operators::traits::Source;
use hmts_streams::element::Element;
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;

use crate::arrival::ArrivalProcess;
use crate::values::TupleGen;

/// [`Source::next_batch`] for a source that has all its elements at hand
/// (`next_element` never waits) and counts down what is left in `size_hint`:
/// up to `max` of them at once.
fn fill_from(source: &mut impl Source, max: usize, out: &mut Vec<Element>) -> bool {
    out.extend(std::iter::from_fn(|| source.next_element()).take(max));
    source.size_hint() != Some(0)
}

/// A seeded synthetic source: an [`ArrivalProcess`] decides *when* each
/// element is due, a [`TupleGen`] decides *what* it carries. Fully
/// deterministic for a given seed, so experiments are reproducible and the
/// simulator and the real engine see the identical stream.
pub struct SyntheticSource {
    name: String,
    arrivals: ArrivalProcess,
    values: TupleGen,
    rng: StdRng,
    remaining: u64,
    clock: Timestamp,
}

impl SyntheticSource {
    /// A source emitting `count` elements.
    pub fn new(
        name: impl Into<String>,
        arrivals: ArrivalProcess,
        values: TupleGen,
        count: u64,
        seed: u64,
    ) -> SyntheticSource {
        SyntheticSource {
            name: name.into(),
            arrivals,
            values,
            rng: StdRng::seed_from_u64(seed),
            remaining: count,
            clock: Timestamp::ZERO,
        }
    }
}

impl Source for SyntheticSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next(&mut self) -> Option<(Timestamp, Tuple)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let gap = self.arrivals.next_gap(&mut self.rng);
        self.clock = self.clock.add(gap);
        Some((self.clock, self.values.generate(&mut self.rng)))
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Element>) -> bool {
        fill_from(self, max, out)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

/// A source replaying a fixed schedule of `(due, tuple)` pairs — the
/// workhorse of deterministic engine tests.
pub struct VecSource {
    name: String,
    items: std::vec::IntoIter<(Timestamp, Tuple)>,
    remaining: u64,
}

impl VecSource {
    /// A source replaying `items` in order.
    pub fn new(name: impl Into<String>, items: Vec<(Timestamp, Tuple)>) -> VecSource {
        let remaining = items.len() as u64;
        VecSource { name: name.into(), items: items.into_iter(), remaining }
    }

    /// Single-integer elements at a fixed rate, values `0..count`.
    pub fn counting(name: impl Into<String>, count: u64, rate: f64) -> VecSource {
        let gap = 1.0 / rate;
        let items = (0..count)
            .map(|i| {
                (
                    Timestamp::from_micros(((i + 1) as f64 * gap * 1e6) as u64),
                    Tuple::single(i as i64),
                )
            })
            .collect();
        VecSource::new(name, items)
    }
}

impl Source for VecSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next(&mut self) -> Option<(Timestamp, Tuple)> {
        let item = self.items.next();
        if item.is_some() {
            self.remaining -= 1;
        }
        item
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Element>) -> bool {
        fill_from(self, max, out)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::Phase;
    use crate::values::FieldGen;

    #[test]
    fn synthetic_source_emits_count_elements_with_increasing_due_times() {
        let mut s = SyntheticSource::new(
            "s",
            ArrivalProcess::constant(1000.0),
            TupleGen::uniform_int(0, 100),
            5,
            1,
        );
        assert_eq!(s.size_hint(), Some(5));
        let mut last = Timestamp::ZERO;
        for i in 0..5 {
            let (ts, tuple) = s.next().expect("element");
            assert!(ts > last, "due times increase");
            assert!(tuple.field(0).as_int().unwrap() < 100);
            last = ts;
            assert_eq!(s.size_hint(), Some(4 - i));
        }
        assert!(s.next().is_none());
    }

    #[test]
    fn constant_rate_due_times_are_regular() {
        let mut s = SyntheticSource::new(
            "s",
            ArrivalProcess::constant(100.0),
            TupleGen::uniform_int(0, 10),
            3,
            1,
        );
        let t1 = s.next().unwrap().0;
        let t2 = s.next().unwrap().0;
        let t3 = s.next().unwrap().0;
        assert_eq!(t1, Timestamp::from_millis(10));
        assert_eq!(t2, Timestamp::from_millis(20));
        assert_eq!(t3, Timestamp::from_millis(30));
    }

    #[test]
    fn same_seed_same_stream() {
        let stream = |seed| {
            let mut s = SyntheticSource::new(
                "s",
                ArrivalProcess::poisson(1000.0),
                TupleGen::uniform_int(0, 1_000_000),
                20,
                seed,
            );
            std::iter::from_fn(move || s.next()).collect::<Vec<_>>()
        };
        assert_eq!(stream(9), stream(9));
        assert_ne!(stream(9), stream(10));
    }

    #[test]
    fn bursty_source_respects_phases() {
        let mut s = SyntheticSource::new(
            "s",
            ArrivalProcess::bursty(vec![Phase::new(2, 1000.0), Phase::new(1, 10.0)]),
            TupleGen::new(vec![FieldGen::sequence(0)]),
            3,
            1,
        );
        let times: Vec<Timestamp> = std::iter::from_fn(|| s.next().map(|x| x.0)).collect();
        assert_eq!(times[0], Timestamp::from_millis(1));
        assert_eq!(times[1], Timestamp::from_millis(2));
        assert_eq!(times[2], Timestamp::from_millis(102));
    }

    #[test]
    fn vec_source_replays() {
        let mut s = VecSource::new(
            "v",
            vec![
                (Timestamp::from_secs(1), Tuple::single(10)),
                (Timestamp::from_secs(2), Tuple::single(20)),
            ],
        );
        assert_eq!(s.size_hint(), Some(2));
        assert_eq!(s.next().unwrap().1.field(0).as_int().unwrap(), 10);
        assert_eq!(s.next().unwrap().1.field(0).as_int().unwrap(), 20);
        assert!(s.next().is_none());
        assert_eq!(s.size_hint(), Some(0));
    }

    #[test]
    fn batches_are_the_same_stream_in_pieces_of_at_most_max() {
        let mut whole = VecSource::counting("c", 10, 10.0);
        let expected: Vec<Element> = std::iter::from_fn(|| whole.next_element()).collect();
        let mut s = VecSource::counting("c", 10, 10.0);
        let mut got = Vec::new();
        for (max, len, left) in [(4, 4, 6), (1, 5, 5), (32, 10, 0)] {
            assert_eq!(s.next_batch(max, &mut got), left > 0, "more to come after {len}");
            assert_eq!((got.len(), s.size_hint()), (len, Some(left)));
        }
        assert!(!s.next_batch(4, &mut got), "stays exhausted");
        assert_eq!(got, expected);

        let synthetic = || {
            let values = TupleGen::uniform_int(0, 1_000_000);
            SyntheticSource::new("s", ArrivalProcess::poisson(1000.0), values, 10, 9)
        };
        let (mut whole, mut s) = (synthetic(), synthetic());
        let expected: Vec<Element> = std::iter::from_fn(|| whole.next_element()).collect();
        let mut got = Vec::new();
        assert!(s.next_batch(7, &mut got));
        assert_eq!((got.len(), s.size_hint()), (7, Some(3)));
        assert!(!s.next_batch(7, &mut got));
        assert_eq!(got, expected);
    }

    #[test]
    fn counting_source_shape() {
        let mut s = VecSource::counting("c", 3, 10.0);
        let (t0, v0) = s.next().unwrap();
        assert_eq!(v0.field(0).as_int().unwrap(), 0);
        assert_eq!(t0, Timestamp::from_millis(100));
        let (t1, _) = s.next().unwrap();
        assert_eq!(t1, Timestamp::from_millis(200));
    }
}
