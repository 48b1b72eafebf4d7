//! The clock every paced pass runs on: handed to the engine as
//! `EngineConfig::clock`, and read in nanoseconds by the bench-owned sink.

use std::sync::OnceLock;
use std::time::Instant;

use hmts::prelude::Timestamp;
use hmts::streams::time::Clock;

/// A monotonic clock whose epoch is set by [`arm`](LedgerClock::arm),
/// immediately before `Engine::start`, so a schedule in clock time does not
/// lose the time engine construction took. Reads 0 until armed.
#[derive(Default)]
pub struct LedgerClock {
    epoch: OnceLock<Instant>,
}

impl LedgerClock {
    pub fn new() -> LedgerClock {
        LedgerClock::default()
    }

    /// Starts the clock; later calls leave the first epoch in place.
    pub fn arm(&self) {
        let _ = self.epoch.set(Instant::now());
    }

    /// Nanoseconds since the clock was armed.
    pub fn now_ns(&self) -> u64 {
        self.epoch.get().map_or(0, |e| e.elapsed().as_nanos() as u64)
    }
}

impl Clock for LedgerClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.now_ns() / 1000)
    }
}
