//! Exact latency recording: every sample is kept, sorted once, and read by
//! rank — no buckets, so a quantile is a value that was measured.

/// A preallocated array of nanosecond samples.
pub struct LatencyRecorder {
    samples: Vec<u64>,
}

/// A quantile that the sample cannot support.
#[derive(Debug, PartialEq)]
pub struct TooFewSamples {
    pub quantile: f64,
    pub samples: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

impl LatencyRecorder {
    /// A recorder that will not allocate for the first `capacity` samples.
    pub fn with_capacity(capacity: usize) -> LatencyRecorder {
        LatencyRecorder { samples: Vec::with_capacity(capacity) }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sorts the samples; call once, after the run.
    pub fn finish(mut self) -> SortedLatencies {
        self.samples.sort_unstable();
        SortedLatencies { sorted: self.samples }
    }
}

/// The sorted samples of a finished run.
pub struct SortedLatencies {
    sorted: Vec<u64>,
}

impl SortedLatencies {
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    pub fn max(&self) -> Option<u64> {
        self.sorted.last().copied()
    }

    /// The `q`-quantile by the nearest-rank rule (the smallest sample with
    /// at least `q·n` samples at or below it). Refuses a quantile with
    /// fewer than [`MIN_BEYOND`] samples beyond it on the nearer side.
    pub fn quantile(&self, q: f64) -> Result<u64, TooFewSamples> {
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        let beyond = (n.saturating_sub(rank)).min(rank.saturating_sub(1));
        if n == 0 || beyond < MIN_BEYOND {
            return Err(TooFewSamples { quantile: q, samples: n });
        }
        Ok(self.sorted[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::gen::Rng;

    /// Nearest rank the slow way: count, for each candidate, how many
    /// samples are at or below it.
    fn brute_force(samples: &[u64], q: f64) -> u64 {
        let need = (q * samples.len() as f64).ceil() as usize;
        *samples
            .iter()
            .filter(|&&c| samples.iter().filter(|&&s| s <= c).count() >= need.max(1))
            .min()
            .unwrap()
    }

    #[test]
    fn quantiles_match_brute_force() {
        let mut rng = Rng::new(11);
        for n in [21usize, 100, 1000, 2503] {
            let raw: Vec<u64> = (0..n).map(|_| rng.below(5_000)).collect();
            let mut rec = LatencyRecorder::with_capacity(n);
            raw.iter().for_each(|&s| rec.record(s));
            let sorted = rec.finish();
            assert_eq!(sorted.len(), n);
            for q in [0.5, 0.9, 0.99] {
                match sorted.quantile(q) {
                    Ok(v) => assert_eq!(v, brute_force(&raw, q), "n={n} q={q}"),
                    Err(e) => assert!(n - ((q * n as f64).ceil() as usize) < MIN_BEYOND, "{e:?}"),
                }
            }
        }
    }

    #[test]
    fn refuses_unsupported_percentiles() {
        let mut rec = LatencyRecorder::with_capacity(1000);
        (0..1000).for_each(|i| rec.record(i));
        let sorted = rec.finish();
        // p99 of 1000 has exactly 10 samples beyond it; p99.9 has one.
        assert_eq!(sorted.quantile(0.99), Ok(989));
        assert_eq!(sorted.quantile(0.999), Err(TooFewSamples { quantile: 0.999, samples: 1000 }));
        assert!(LatencyRecorder::with_capacity(0).finish().quantile(0.5).is_err());
        let mut few = LatencyRecorder::with_capacity(20);
        (0..20).for_each(|i| few.record(i));
        assert!(few.finish().quantile(0.5).is_err());
    }
}
