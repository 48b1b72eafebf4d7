//! Seeded input generation. Everything a workload feeds the engine is
//! produced here, from `--seed`, during set-up; the engine only ever sees
//! the materialised rows.

use hmts::prelude::{Timestamp, Tuple};

/// SplitMix64: small, fast, and owned by the benchmark so the generated
/// inputs do not change when the workspace's `rand` stand-in does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Derives an independent sub-seed (per phase, per pass) from the run seed.
pub fn sub_seed(seed: u64, phase: u64, pass: u64) -> u64 {
    let mut r = Rng::new(seed ^ phase.wrapping_mul(0xA24B_AED4_963E_E407));
    r.next_u64() ^ pass.wrapping_mul(0x9FB2_1C65_1E98_DF25)
}

/// Zipf(s = 1.0) over `[0, n)` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / k as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// Open-loop Poisson schedule: `n` due times in ns, exponential gaps at
/// `rate` per second, the first one `lead_ns` after the clock is armed.
pub fn poisson_schedule_ns(rng: &mut Rng, n: usize, rate: f64, lead_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate;
    let mut t = lead_ns as f64;
    (0..n)
        .map(|_| {
            t += -rng.unit().ln() * mean_gap_ns;
            t as u64
        })
        .collect()
}

/// The generated input of one pass: plain rows plus, for a paced pass, the
/// schedule they are due on.
pub struct Inputs {
    /// `chain`: `[value, seq]`; `keyed`: `[key, value]`.
    pub rows: Vec<[i64; 2]>,
    /// Scheduled due time of each row on the ledger clock (paced passes).
    pub due_ns: Option<Vec<u64>>,
}

/// Upper end of the uniform `value` column.
pub const VALUE_RANGE: i64 = 1_000_000;
/// Distinct aggregation keys of the keyed workloads.
pub const KEYS: usize = 1024;
/// First due time after the clock is armed: long enough for
/// `Engine::start` to spawn its threads.
pub const SCHEDULE_LEAD_NS: u64 = 20_000_000;

impl Inputs {
    /// Rows of the Fig. 7 chain: `(value uniform in [0, 10^6), seq)`.
    pub fn chain(seed: u64, n: usize, rate: Option<f64>) -> Inputs {
        let mut rng = Rng::new(seed);
        let rows = (0..n).map(|i| [rng.below(VALUE_RANGE as u64) as i64, i as i64]).collect();
        let due_ns = rate.map(|r| poisson_schedule_ns(&mut rng, n, r, SCHEDULE_LEAD_NS));
        Inputs { rows, due_ns }
    }

    /// Rows of the keyed aggregate: `(key Zipf(1.0) over 1024, value)`.
    pub fn keyed(seed: u64, n: usize, rate: Option<f64>) -> Inputs {
        let mut rng = Rng::new(seed);
        let zipf = Zipf::new(KEYS);
        let rows = (0..n)
            .map(|_| [zipf.sample(&mut rng) as i64, rng.below(VALUE_RANGE as u64) as i64])
            .collect();
        let due_ns = rate.map(|r| poisson_schedule_ns(&mut rng, n, r, SCHEDULE_LEAD_NS));
        Inputs { rows, due_ns }
    }

    /// Stream timestamp of row `i` in µs: its due time rounded *up* (the
    /// engine paces on µs, and must not emit before the ns due time), or a
    /// logical 1 µs tick for an unpaced pass.
    pub fn ts_us(&self, i: usize) -> u64 {
        match &self.due_ns {
            Some(due) => due[i].div_ceil(1000),
            None => i as u64 + 1,
        }
    }

    /// The rows as the `(due, tuple)` items a `VecSource` replays.
    pub fn items(&self) -> Vec<(Timestamp, Tuple)> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| (Timestamp::from_micros(self.ts_us(i)), Tuple::pair(r[0], r[1])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::keyed(7, 1000, Some(1e5));
        let b = Inputs::keyed(7, 1000, Some(1e5));
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.due_ns, b.due_ns);
        assert_ne!(a.rows, Inputs::keyed(8, 1000, None).rows);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(KEYS);
        let mut rng = Rng::new(1);
        let mut hits = vec![0u32; KEYS];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        // H(1024) ≈ 7.5, so key 0 draws ≈ 13 % and key 1 half of that.
        assert!((11_000..16_000).contains(&hits[0]), "{}", hits[0]);
        assert!(hits[0] > hits[1] && hits[1] > hits[10]);
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate() {
        let due = poisson_schedule_ns(&mut Rng::new(3), 100_000, 200_000.0, 0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = 100_000.0 / (*due.last().unwrap() as f64 / 1e9);
        assert!((rate - 200_000.0).abs() < 4_000.0, "{rate}");
    }
}
