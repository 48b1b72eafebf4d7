//! How fast the host is right now, against the reference host.
//!
//! The reference host is a 2-vCPU guest, and each of its vCPUs has two
//! speeds: for seconds to minutes at a time one of them, or both, run
//! everything — one thread or five, set-up or steady state — at 0.71×
//! (throughput −29 %, latency and set-up +35–45 %), with no steal time
//! reported. With one slow vCPU a pass is fast or slow by where the
//! scheduler put its driving thread; with both slow, for ten minutes once,
//! every run of four workloads was slow, which alone moved the medians of
//! two sets of ten runs apart by more than any bound the contract allows.
//!
//! So the end-to-end metrics are built to see the engine, not the host:
//! each is the mean over the best quarter of a run's passes (a pass on the
//! fast vCPU), and every pass is preceded by a fixed piece of plain-Rust
//! work, run on all vCPUs at once, that shares no code with the engine. The
//! best quarter of *those* timings says how fast the host's fast state was
//! during the run, and the metrics are reported at reference speed: scaled
//! by it. A change to the engine cannot move the calibration; a change of
//! the host's speed moves both and cancels.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use super::gen::Rng;

/// Nanoseconds the calibration work takes on the reference host in its fast
/// state. Frozen.
pub const REFERENCE_NS: f64 = 1_010_000.0;

const STEPS: u64 = 20_000;
const REPEATS: usize = 5;
/// vCPUs calibrated at once: enough to find the fast one on a small guest.
const MAX_THREADS: usize = 4;

/// A fixed mix of what the engine's hot paths are made of — hashing, small
/// allocations, a FIFO, dependent integer work, reference-counted rows —
/// timed as the fastest of a few repeats, because nothing but interference
/// can make a fixed computation slower.
fn fixed_work_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let started = Instant::now();
        let mut rng = Rng::new(0xC0FFEE);
        let mut sums: HashMap<u64, u64> = HashMap::with_capacity(1024);
        let mut fifo: VecDeque<Arc<[u64; 2]>> = VecDeque::with_capacity(257);
        let mut acc = 0u64;
        for step in 0..STEPS {
            let key = rng.below(1024);
            *sums.entry(key).or_insert(0) += step;
            let row = Arc::new([key, step]);
            fifo.push_back(Arc::clone(&row));
            if fifo.len() > 256 {
                acc ^= fifo.pop_front().map_or(0, |r| r[0] + r[1]);
            }
            acc = acc.wrapping_add(row[1]);
        }
        black_box((acc, sums.len()));
        best = best.min(started.elapsed().as_nanos() as f64);
    }
    best
}

/// Runs the fixed work on every vCPU at the same time (up to
/// [`MAX_THREADS`]) and returns each one's time in nanoseconds.
pub fn calibrate() -> Vec<f64> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_THREADS);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(fixed_work_ns)).collect();
        workers.into_iter().map(|w| w.join().expect("calibration does not panic")).collect()
    })
}
