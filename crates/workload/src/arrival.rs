//! Arrival processes: when does the next element become due?
//!
//! The paper's experimental setup (§6.2) simulates bursty traffic with
//! Poisson-distributed inter-arrival times "analogous to the experimental
//! setup in [Babcock et al., Chain]". The Fig. 9/10 experiment additionally
//! uses a phased schedule alternating between a fast burst rate and a slow
//! trickle; [`ArrivalProcess::Bursty`] reproduces exactly that shape.

use std::time::Duration;

use rand::Rng;

/// One phase of a bursty schedule: `count` elements at `rate` elements/sec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Number of elements emitted in this phase.
    pub count: u64,
    /// Emission rate during the phase (elements/second).
    pub rate: f64,
}

impl Phase {
    /// A phase of `count` elements at `rate` el/s.
    pub fn new(count: u64, rate: f64) -> Phase {
        Phase { count, rate }
    }
}

/// A generator of inter-arrival gaps.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Deterministic gaps of `1/rate`.
    Constant {
        /// Emission rate (elements/second).
        rate: f64,
    },
    /// A Poisson process: exponentially distributed gaps with mean `1/rate`,
    /// sampled by inverse-CDF from uniform randomness.
    Poisson {
        /// Mean emission rate (elements/second).
        rate: f64,
    },
    /// A sequence of constant-rate phases, consumed in order; after the last
    /// phase the schedule keeps the final phase's rate.
    Bursty {
        /// The phases.
        phases: Vec<Phase>,
        /// Index of the current phase (internal state).
        phase: usize,
        /// Elements already emitted in the current phase (internal state).
        emitted_in_phase: u64,
    },
}

impl ArrivalProcess {
    /// Constant-rate arrivals.
    pub fn constant(rate: f64) -> ArrivalProcess {
        assert!(rate > 0.0, "rate must be positive");
        ArrivalProcess::Constant { rate }
    }

    /// Poisson arrivals with the given mean rate.
    pub fn poisson(rate: f64) -> ArrivalProcess {
        assert!(rate > 0.0, "rate must be positive");
        ArrivalProcess::Poisson { rate }
    }

    /// Phased bursty arrivals.
    pub fn bursty(phases: Vec<Phase>) -> ArrivalProcess {
        assert!(!phases.is_empty(), "bursty schedule needs at least one phase");
        assert!(phases.iter().all(|p| p.rate > 0.0), "phase rates must be positive");
        ArrivalProcess::Bursty { phases, phase: 0, emitted_in_phase: 0 }
    }

    /// The gap before the next element. Advances internal phase state.
    pub fn next_gap(&mut self, rng: &mut impl Rng) -> Duration {
        match self {
            ArrivalProcess::Constant { rate } => Duration::from_secs_f64(1.0 / *rate),
            ArrivalProcess::Poisson { rate } => {
                // Inverse CDF of Exp(rate): -ln(1-U)/rate; use 1-U ∈ (0, 1]
                // to avoid ln(0).
                let u: f64 = rng.gen::<f64>();
                Duration::from_secs_f64(-(1.0 - u).max(f64::MIN_POSITIVE).ln() / *rate)
            }
            ArrivalProcess::Bursty { phases, phase, emitted_in_phase } => {
                if *emitted_in_phase >= phases[*phase].count && *phase + 1 < phases.len() {
                    *phase += 1;
                    *emitted_in_phase = 0;
                }
                *emitted_in_phase += 1;
                Duration::from_secs_f64(1.0 / phases[*phase].rate)
            }
        }
    }

    /// Parses a command-line arrival spec:
    ///
    /// * `constant:RATE` — deterministic gaps, `RATE` elements/second
    /// * `poisson:RATE` — Poisson arrivals with mean `RATE`
    /// * `bursty:COUNTxRATE,COUNTxRATE,…` — phased schedule, e.g.
    ///   `bursty:10000x500000,20000x250`
    pub fn parse(spec: &str) -> Result<ArrivalProcess, String> {
        let rate = |s: &str| -> Result<f64, String> {
            let r: f64 = s.parse().map_err(|_| format!("bad rate {s:?}"))?;
            if r > 0.0 && r.is_finite() {
                Ok(r)
            } else {
                Err(format!("rate must be positive and finite, got {s:?}"))
            }
        };
        match spec.split_once(':') {
            Some(("constant", r)) => Ok(ArrivalProcess::constant(rate(r)?)),
            Some(("poisson", r)) => Ok(ArrivalProcess::poisson(rate(r)?)),
            Some(("bursty", phases)) => {
                let phases = phases
                    .split(',')
                    .map(|p| {
                        let (count, r) = p
                            .split_once('x')
                            .ok_or_else(|| format!("bad phase {p:?}, want COUNTxRATE"))?;
                        let count: u64 =
                            count.parse().map_err(|_| format!("bad count {count:?}"))?;
                        Ok(Phase::new(count, rate(r)?))
                    })
                    .collect::<Result<Vec<Phase>, String>>()?;
                if phases.is_empty() {
                    return Err("bursty schedule needs at least one phase".into());
                }
                Ok(ArrivalProcess::bursty(phases))
            }
            _ => Err(format!(
                "bad arrival spec {spec:?}, want constant:RATE, poisson:RATE, or \
                 bursty:COUNTxRATE,…"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_gaps_are_exact() {
        let mut a = ArrivalProcess::constant(1000.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(a.next_gap(&mut rng), Duration::from_millis(1));
        }
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut a = ArrivalProcess::poisson(100.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| a.next_gap(&mut rng).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 0.01).abs() < 0.0005, "mean gap {mean}");
    }

    #[test]
    fn poisson_gaps_vary() {
        let mut a = ArrivalProcess::poisson(10.0);
        let mut rng = StdRng::seed_from_u64(7);
        let gaps: Vec<Duration> = (0..10).map(|_| a.next_gap(&mut rng)).collect();
        assert!(gaps.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn poisson_is_deterministic_under_seed() {
        let sample = |seed| {
            let mut a = ArrivalProcess::poisson(10.0);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5).map(|_| a.next_gap(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(sample(3), sample(3));
        assert_ne!(sample(3), sample(4));
    }

    #[test]
    fn bursty_phases_advance() {
        let mut a = ArrivalProcess::bursty(vec![Phase::new(2, 1000.0), Phase::new(2, 10.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let gaps: Vec<Duration> = (0..5).map(|_| a.next_gap(&mut rng)).collect();
        assert_eq!(gaps[0], Duration::from_millis(1));
        assert_eq!(gaps[1], Duration::from_millis(1));
        assert_eq!(gaps[2], Duration::from_millis(100));
        assert_eq!(gaps[3], Duration::from_millis(100));
        // Past the schedule: keeps the last phase's rate.
        assert_eq!(gaps[4], Duration::from_millis(100));
    }

    #[test]
    fn parse_specs() {
        assert!(matches!(
            ArrivalProcess::parse("constant:1000").unwrap(),
            ArrivalProcess::Constant { rate } if rate == 1000.0
        ));
        assert!(matches!(
            ArrivalProcess::parse("poisson:2.5").unwrap(),
            ArrivalProcess::Poisson { rate } if rate == 2.5
        ));
        let b = ArrivalProcess::parse("bursty:10x100,20x1e3").unwrap();
        let ArrivalProcess::Bursty { phases, .. } = b else { panic!("bursty: {b:?}") };
        assert_eq!(
            phases.iter().map(|p| (p.count, p.rate)).collect::<Vec<_>>(),
            [(10, 100.0), (20, 1e3)]
        );
        for bad in
            ["", "constant", "constant:-1", "constant:nan", "warp:9", "bursty:", "bursty:5y2"]
        {
            assert!(ArrivalProcess::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        ArrivalProcess::constant(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_bursty_rejected() {
        ArrivalProcess::bursty(vec![]);
    }
}
