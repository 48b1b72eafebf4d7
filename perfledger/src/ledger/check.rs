//! Output checking: a plain-Rust reference of each query, computed from the
//! generated rows in set-up, and the bench-owned sink that compares the
//! engine's results against it and takes the exact latency samples.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use hmts::operators::traits::{Operator, Output};
use hmts::prelude::{Element, Tuple, Value};
use hmts::streams::error::Result;

use super::clock::LedgerClock;
use super::gen::{Inputs, VALUE_RANGE};
use super::latency::LatencyRecorder;

/// Conditional selectivities of the five selections of the paper's Fig. 7
/// query.
pub const CHAIN_SELECTIVITIES: [f64; 5] = [0.998, 0.996, 0.994, 0.992, 0.990];
/// The keyed workloads' filter passes `value < this`.
pub const KEYED_FILTER_BELOW: i64 = 900_000;
/// Sliding window of the keyed aggregate, in µs of stream time.
pub const KEYED_WINDOW_US: u64 = 8_192;

/// `value < threshold[i]` is selection `i`: the cumulative products of the
/// conditional selectivities, as in `workload::scenarios::fig7_chain`.
pub fn chain_thresholds() -> [i64; 5] {
    let mut cumulative = 1.0;
    CHAIN_SELECTIVITIES.map(|s| {
        cumulative *= s;
        (VALUE_RANGE as f64 * cumulative).round() as i64
    })
}

/// Folds one result into an order-sensitive checksum.
#[inline]
fn fold(checksum: u64, fields: impl Iterator<Item = i64>) -> u64 {
    let mut h = checksum.wrapping_mul(0x0000_0100_0000_01B3) ^ 0x9E37_79B9;
    for f in fields {
        h = (h ^ f as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What a pass must produce.
pub struct Expected {
    pub count: u64,
    /// Order-sensitive checksum over every field of every result.
    pub checksum: u64,
    /// Scheduled due time of the input that produces the `k`-th result
    /// (paced passes): the origin of its latency sample.
    pub due_ns: Option<Arc<[u64]>>,
}

impl Expected {
    fn from_results(results: impl Iterator<Item = (usize, [i64; 2])>, inputs: &Inputs) -> Expected {
        let mut count = 0;
        let mut checksum = 0;
        let mut due = inputs.due_ns.as_ref().map(|_| Vec::new());
        for (input, fields) in results {
            count += 1;
            checksum = fold(checksum, fields.into_iter());
            if let (Some(due), Some(schedule)) = (&mut due, &inputs.due_ns) {
                due.push(schedule[input]);
            }
        }
        Expected { count, checksum, due_ns: due.map(Into::into) }
    }

    /// Reference of the selection chain: the rows passing all five
    /// predicates, in input order.
    pub fn chain(inputs: &Inputs) -> Expected {
        let thresholds = chain_thresholds();
        let passing = inputs
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| thresholds.iter().all(|&t| r[0] < t))
            .map(|(i, r)| (i, *r));
        Expected::from_results(passing, inputs)
    }

    /// Reference of filter → sliding-window `sum(value) group by key`: one
    /// `(key, running sum)` per passing row, a `HashMap` fold with
    /// retraction of the rows that left the window.
    pub fn keyed(inputs: &Inputs) -> Expected {
        let mut window: VecDeque<(u64, i64, i64)> = VecDeque::new();
        let mut groups: HashMap<i64, (u64, i64)> = HashMap::new();
        let mut results = Vec::new();
        for (i, &[key, value]) in inputs.rows.iter().enumerate() {
            if value >= KEYED_FILTER_BELOW {
                continue;
            }
            let ts = inputs.ts_us(i);
            let cutoff = ts.saturating_sub(KEYED_WINDOW_US);
            while let Some(&(old_ts, old_key, old_value)) = window.front() {
                if old_ts >= cutoff {
                    break;
                }
                window.pop_front();
                let g = groups.get_mut(&old_key).expect("live row has a group");
                g.0 -= 1;
                g.1 -= old_value;
                if g.0 == 0 {
                    groups.remove(&old_key);
                }
            }
            let g = groups.entry(key).or_insert((0, 0));
            g.0 += 1;
            g.1 += value;
            results.push((i, [key, g.1]));
            window.push_back((ts, key, value));
        }
        Expected::from_results(results.into_iter(), inputs)
    }
}

/// What the sink (or the subscriber) saw.
#[derive(Default)]
pub struct Observed {
    pub count: u64,
    pub checksum: u64,
    /// End-of-stream reached the sink.
    pub eos: bool,
    /// Results whose fields were not all integers.
    pub malformed: u64,
    /// `sink time − scheduled due time` per result, in arrival order.
    pub latencies: Option<LatencyRecorder>,
}

impl Observed {
    /// Missing, surplus and wrong results against the reference. A checksum
    /// mismatch with the right count cannot be localised and counts once.
    pub fn failures(&self, expected: &Expected) -> u64 {
        let miscount = self.count.abs_diff(expected.count);
        let wrong = u64::from(miscount == 0 && self.checksum != expected.checksum);
        miscount + wrong + self.malformed + u64::from(!self.eos)
    }
}

/// Compares results as they arrive; shared by the in-process sink and the
/// loopback subscriber.
pub struct ResultCheck {
    seen: Observed,
    due_ns: Option<Arc<[u64]>>,
    clock: Arc<LedgerClock>,
}

impl ResultCheck {
    pub fn new(expected: &Expected, clock: Arc<LedgerClock>) -> ResultCheck {
        let latencies =
            expected.due_ns.as_ref().map(|d| LatencyRecorder::with_capacity(d.len() + 1));
        ResultCheck {
            seen: Observed { latencies, ..Observed::default() },
            due_ns: expected.due_ns.clone(),
            clock,
        }
    }

    #[inline]
    pub fn observe(&mut self, tuple: &Tuple) {
        if let (Some(due), Some(lat)) = (&self.due_ns, &mut self.seen.latencies) {
            if let Some(&due) = due.get(self.seen.count as usize) {
                lat.record(self.clock.now_ns().saturating_sub(due));
            }
        }
        let mut ok = true;
        let fields = tuple.values().iter().map(|v| match v {
            Value::Int(i) => *i,
            _ => {
                ok = false;
                0
            }
        });
        self.seen.checksum = fold(self.seen.checksum, fields);
        self.seen.count += 1;
        self.seen.malformed += u64::from(!ok);
    }

    pub fn finish(mut self) -> Observed {
        self.seen.eos = true;
        self.seen
    }
}

/// Where a [`LedgerSink`] leaves its verdict once end-of-stream arrived.
pub type ObservedSlot = Arc<Mutex<Option<Observed>>>;

/// The bench-owned sink of the in-process workloads.
pub struct LedgerSink {
    check: Option<ResultCheck>,
    slot: ObservedSlot,
}

impl LedgerSink {
    pub fn new(expected: &Expected, clock: Arc<LedgerClock>) -> (LedgerSink, ObservedSlot) {
        let slot = ObservedSlot::default();
        (LedgerSink { check: Some(ResultCheck::new(expected, clock)), slot: slot.clone() }, slot)
    }
}

impl Operator for LedgerSink {
    fn name(&self) -> &str {
        "sink"
    }

    fn process(&mut self, _port: usize, element: &Element, _out: &mut Output) -> Result<()> {
        if let Some(check) = &mut self.check {
            check.observe(&element.tuple);
        }
        Ok(())
    }

    /// Called once, after end-of-stream on the sink's only input.
    fn flush(&mut self, _out: &mut Output) -> Result<()> {
        if let Some(check) = self.check.take() {
            *self.slot.lock().expect("sink slot lock poisoned") = Some(check.finish());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_reference_applies_every_threshold() {
        let t = chain_thresholds();
        assert_eq!(t[0], 998_000);
        assert!(t.windows(2).all(|w| w[0] > w[1]));
        let inputs = Inputs {
            rows: vec![[0, 0], [t[4], 1], [t[4] - 1, 2], [999_999, 3]],
            due_ns: Some(vec![10, 20, 30, 40]),
        };
        let e = Expected::chain(&inputs);
        assert_eq!(e.count, 2);
        assert_eq!(e.due_ns.as_deref(), Some(&[10, 30][..]));
    }

    #[test]
    fn keyed_reference_retracts_expired_rows() {
        // Unpaced rows tick 1 µs apart; key 1 at rows 0 and 1, then far
        // enough later that both have left the window.
        let mut rows = vec![[1, 10], [1, 5], [2, KEYED_FILTER_BELOW]];
        rows.resize(KEYED_WINDOW_US as usize + 3, [3, 1]);
        rows.push([1, 7]);
        let inputs = Inputs { rows, due_ns: None };
        let e = Expected::keyed(&inputs);
        assert_eq!(e.count, inputs.rows.len() as u64 - 1, "the filtered row yields nothing");
        let clock = Arc::new(LedgerClock::new());
        let mut check = ResultCheck::new(&e, clock);
        check.observe(&Tuple::pair(1, 10));
        check.observe(&Tuple::pair(1, 15));
        for k in 1..=KEYED_WINDOW_US as i64 {
            check.observe(&Tuple::pair(3, k));
        }
        // Only the final row of key 1 is still live.
        check.observe(&Tuple::pair(1, 7));
        let seen = check.finish();
        assert_eq!(seen.failures(&e), 0);
    }

    #[test]
    fn failures_count_missing_wrong_and_unfinished() {
        let inputs = Inputs::chain(5, 1000, None);
        let e = Expected::chain(&inputs);
        let clock = Arc::new(LedgerClock::new());
        let passing: Vec<[i64; 2]> =
            inputs.rows.iter().filter(|r| r[0] < chain_thresholds()[4]).copied().collect();
        let run = |rows: &[[i64; 2]]| {
            let mut c = ResultCheck::new(&e, clock.clone());
            rows.iter().for_each(|r| c.observe(&Tuple::pair(r[0], r[1])));
            c
        };
        assert_eq!(run(&passing).finish().failures(&e), 0);
        assert_eq!(run(&passing[1..]).finish().failures(&e), 1);
        let mut swapped = passing.clone();
        swapped.swap(0, 1);
        assert_eq!(run(&swapped).finish().failures(&e), 1, "order matters");
        assert_eq!(run(&passing).seen.failures(&e), 1, "no end-of-stream");
    }
}
