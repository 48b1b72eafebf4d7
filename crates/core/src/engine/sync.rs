//! Synchronization primitives used by the engine's threads.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::{Condvar, Mutex};

/// A cooperative pause barrier for source threads.
///
/// The engine pauses sources while it re-wires the graph (runtime mode
/// switching, §4.2.2: "interrupting the processing of the graph shortly").
/// Sources call [`PauseGate::checkpoint`] between elements; the engine calls
/// [`PauseGate::pause_and_wait`] to stop them at the next checkpoint and
/// learn when all of them are parked.
#[derive(Debug, Default)]
pub struct PauseGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    paused: bool,
    parked: usize,
    registered: usize,
    finished: usize,
}

impl PauseGate {
    /// A new, open gate.
    pub fn new() -> PauseGate {
        PauseGate::default()
    }

    /// Registers one worker that will call `checkpoint`.
    pub fn register(&self) {
        self.state.lock().registered += 1;
    }

    /// Marks one registered worker as permanently finished (it will no
    /// longer reach checkpoints), so `pause_and_wait` stops counting it.
    pub fn deregister(&self) {
        let mut s = self.state.lock();
        s.finished += 1;
        self.cv.notify_all();
    }

    /// Called by workers between units of work: parks while the gate is
    /// paused.
    pub fn checkpoint(&self) {
        let mut s = self.state.lock();
        if !s.paused {
            return;
        }
        s.parked += 1;
        self.cv.notify_all();
        while s.paused {
            self.cv.wait(&mut s);
        }
        s.parked -= 1;
    }

    /// Pauses the gate and blocks until every live registered worker is
    /// parked (or finished).
    pub fn pause_and_wait(&self) {
        let mut s = self.state.lock();
        s.paused = true;
        while s.parked + s.finished < s.registered {
            self.cv.wait(&mut s);
        }
    }

    /// Reopens the gate, releasing parked workers.
    pub fn resume(&self) {
        let mut s = self.state.lock();
        s.paused = false;
        self.cv.notify_all();
    }

    /// Whether the gate is currently paused.
    pub fn is_paused(&self) -> bool {
        self.state.lock().paused
    }
}

/// A simple shared stop flag.
#[derive(Debug, Default)]
pub struct StopFlag(AtomicBool);

impl StopFlag {
    /// A new, unset flag.
    pub fn new() -> StopFlag {
        StopFlag::default()
    }

    /// Sets the flag.
    pub fn stop(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Clears the flag (a new run after a mode switch).
    pub fn reset(&self) {
        self.0.store(false, Ordering::Release);
    }

    /// Whether the flag is set.
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn pause_gate_parks_and_releases_workers() {
        let g = Arc::new(PauseGate::new());
        g.register();
        let g2 = Arc::clone(&g);
        let h = thread::spawn(move || {
            let mut rounds = 0u32;
            for _ in 0..1000 {
                g2.checkpoint();
                rounds += 1;
                thread::sleep(Duration::from_micros(100));
            }
            g2.deregister();
            rounds
        });
        thread::sleep(Duration::from_millis(5));
        g.pause_and_wait();
        assert!(g.is_paused());
        // Worker is parked now; nothing advances while paused.
        g.resume();
        assert!(!g.is_paused());
        assert_eq!(h.join().unwrap(), 1000);
    }

    #[test]
    fn pause_waits_for_all_workers() {
        let g = Arc::new(PauseGate::new());
        g.register();
        g.register();
        let mk = |g: Arc<PauseGate>| {
            thread::spawn(move || {
                for _ in 0..200 {
                    g.checkpoint();
                    thread::sleep(Duration::from_micros(50));
                }
                g.deregister();
            })
        };
        let h1 = mk(Arc::clone(&g));
        let h2 = mk(Arc::clone(&g));
        g.pause_and_wait();
        g.resume();
        h1.join().unwrap();
        h2.join().unwrap();
    }

    #[test]
    fn pause_accounts_for_finished_workers() {
        let g = Arc::new(PauseGate::new());
        g.register();
        g.deregister();
        // Must not block even though the worker never parks.
        g.pause_and_wait();
        g.resume();
    }

    #[test]
    fn stop_flag_round_trip() {
        let f = StopFlag::new();
        assert!(!f.is_stopped());
        f.stop();
        assert!(f.is_stopped());
        f.reset();
        assert!(!f.is_stopped());
    }
}
