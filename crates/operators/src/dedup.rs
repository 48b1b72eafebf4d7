//! Windowed duplicate elimination.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use hmts_state::{StateBlob, StateError, StatefulOperator};
use hmts_streams::element::Element;
use hmts_streams::error::Result;
use hmts_streams::time::Timestamp;
use hmts_streams::value::Value;

use crate::expr::Expr;
use crate::traits::{Operator, Output};

/// Passes an element only if no element with the same key is live within the
/// sliding window. Used by the intrusion-detection example to suppress
/// repeated alerts for the same flow.
pub struct Dedup {
    name: String,
    key: Expr,
    window: Duration,
    live: HashMap<Value, usize>,
    log: VecDeque<(Timestamp, Value)>,
}

impl Dedup {
    /// A windowed distinct on `key`.
    pub fn new(name: impl Into<String>, key: Expr, window: Duration) -> Dedup {
        Dedup { name: name.into(), key, window, live: HashMap::new(), log: VecDeque::new() }
    }

    fn expire(&mut self, now: Timestamp) {
        let cutoff = now.saturating_sub(self.window);
        while let Some((ts, _)) = self.log.front() {
            if *ts >= cutoff {
                break;
            }
            let (_, key) = self.log.pop_front().expect("front checked");
            if let Entry::Occupied(mut n) = self.live.entry(key) {
                *n.get_mut() -= 1;
                if *n.get() == 0 {
                    n.remove();
                }
            }
        }
    }

    /// Number of distinct keys currently suppressing duplicates.
    pub fn live_keys(&self) -> usize {
        self.live.len()
    }
}

impl Operator for Dedup {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: usize, element: &Element, out: &mut Output) -> Result<()> {
        self.expire(element.ts);
        let key = self.key.eval(&element.tuple)?;
        // Every arrival refreshes the suppression window for its key; the
        // one look-up also tells whether the key was live.
        let seen = match self.live.entry(key.clone()) {
            Entry::Occupied(mut n) => {
                *n.get_mut() += 1;
                true
            }
            Entry::Vacant(slot) => {
                slot.insert(1);
                false
            }
        };
        self.log.push_back((element.ts, key));
        if !seen {
            out.push(element.clone());
        }
        Ok(())
    }

    fn on_watermark(
        &mut self,
        _port: usize,
        watermark: Timestamp,
        _out: &mut Output,
    ) -> Result<()> {
        self.expire(watermark);
        Ok(())
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulOperator> {
        Some(self)
    }

    fn shard_key(&self, _port: usize) -> Option<Expr> {
        // All occurrences of a dedup key must meet in one suppression map.
        Some(self.key.clone())
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(Dedup::new(self.name.clone(), self.key.clone(), self.window)))
    }
}

/// Snapshot format v1: the `(ts, key)` suppression log in arrival order.
/// The `live` counts are derived and rebuilt on restore.
const DEDUP_STATE_V1: u16 = 1;

impl StatefulOperator for Dedup {
    fn snapshot(&self) -> StateBlob {
        StateBlob::build(DEDUP_STATE_V1, |w| {
            w.put_u32(self.log.len() as u32);
            for (ts, key) in &self.log {
                w.put_timestamp(*ts);
                w.put_value(key);
            }
        })
    }

    fn restore(&mut self, blob: StateBlob) -> std::result::Result<(), StateError> {
        let mut r = blob.reader_for(DEDUP_STATE_V1)?;
        let n = r.len_prefix()?;
        let mut log = VecDeque::with_capacity(n.min(1 << 16));
        let mut live: HashMap<Value, usize> = HashMap::new();
        for _ in 0..n {
            let ts = r.timestamp()?;
            let key = r.value()?;
            *live.entry(key.clone()).or_insert(0) += 1;
            log.push_back((ts, key));
        }
        r.expect_end()?;
        self.log = log;
        self.live = live;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(v: i64, secs: u64) -> Element {
        Element::single(v, Timestamp::from_secs(secs))
    }

    #[test]
    fn suppresses_duplicates_within_window() {
        let mut d = Dedup::new("d", Expr::field(0), Duration::from_secs(10));
        let mut out = Output::new();
        d.process(0, &el(1, 0), &mut out).unwrap();
        d.process(0, &el(1, 1), &mut out).unwrap();
        d.process(0, &el(2, 2), &mut out).unwrap();
        let vals: Vec<i64> = out.drain().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2]);
        assert_eq!(d.live_keys(), 2);
    }

    #[test]
    fn key_passes_again_after_expiry() {
        let mut d = Dedup::new("d", Expr::field(0), Duration::from_secs(10));
        let mut out = Output::new();
        d.process(0, &el(1, 0), &mut out).unwrap();
        d.process(0, &el(1, 100), &mut out).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn duplicate_refreshes_suppression() {
        let mut d = Dedup::new("d", Expr::field(0), Duration::from_secs(10));
        let mut out = Output::new();
        d.process(0, &el(1, 0), &mut out).unwrap(); // emitted
        d.process(0, &el(1, 8), &mut out).unwrap(); // suppressed, refreshes
        d.process(0, &el(1, 15), &mut out).unwrap(); // 8 still live (cutoff 5) → suppressed
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn watermark_expires_keys() {
        let mut d = Dedup::new("d", Expr::field(0), Duration::from_secs(10));
        let mut out = Output::new();
        d.process(0, &el(1, 0), &mut out).unwrap();
        d.on_watermark(0, Timestamp::from_secs(100), &mut out).unwrap();
        assert_eq!(d.live_keys(), 0);
    }
}
