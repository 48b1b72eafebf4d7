//! Sliding time-window bookkeeping shared by windowed operators.
//!
//! The paper's joins use "a one minute sliding window" (§6.3): an element is
//! join-able with elements of the opposite stream whose timestamps lie
//! within the window extent of its own. This module provides the buffer that
//! implements those semantics for joins, aggregates, and duplicate
//! elimination.

use std::collections::VecDeque;
use std::time::Duration;

use hmts_state::codec::{BlobReader, BlobWriter, StateError};
use hmts_streams::element::Element;
use hmts_streams::time::Timestamp;

/// A time-ordered buffer of elements with sliding-window expiration.
///
/// Elements are expected to arrive in non-decreasing timestamp order per
/// stream (sources emit in order); mild disorder is tolerated — expiration
/// uses the maximum timestamp seen so far, so a late element can never
/// resurrect expired state.
///
/// Each element may carry a tag `T` that lives and expires with it — an
/// aggregate keeps the slot of the element's group there — and that is
/// never written to a snapshot. Joins use the tag-less `WindowBuffer`.
#[derive(Debug)]
pub struct WindowBuffer<T = ()> {
    extent: Duration,
    buf: VecDeque<(Element, T)>,
    max_ts: Timestamp,
}

impl WindowBuffer {
    /// Inserts an element (kept in arrival order).
    pub fn insert(&mut self, e: Element) {
        self.insert_tagged(e, ());
    }

    /// Replaces the contents from a snapshot written by
    /// [`WindowBuffer::snapshot_into`].
    pub fn restore_from(&mut self, r: &mut BlobReader<'_>) -> Result<(), StateError> {
        self.restore_tagged(r, |_| Ok(()))
    }
}

impl<T> WindowBuffer<T> {
    /// A buffer with the given window extent.
    pub fn new(extent: Duration) -> WindowBuffer<T> {
        WindowBuffer { extent, buf: VecDeque::new(), max_ts: Timestamp::ZERO }
    }

    /// The window extent.
    pub fn extent(&self) -> Duration {
        self.extent
    }

    /// Inserts an element with its tag (kept in arrival order).
    pub fn insert_tagged(&mut self, e: Element, tag: T) {
        self.max_ts = self.max_ts.max(e.ts);
        self.buf.push_back((e, tag));
    }

    /// Expires and discards all elements whose timestamp lies strictly
    /// before `now - extent`; returns how many were removed. An element with
    /// `ts == now - extent` is still alive (closed window boundary, matching
    /// the usual sliding-window definition).
    pub fn expire(&mut self, now: Timestamp) -> usize {
        self.expire_with(now, |_, _| {})
    }

    /// Like [`WindowBuffer::expire`], but hands each expired element and
    /// its tag to a callback (aggregates retract their contribution).
    pub fn expire_with(
        &mut self,
        now: Timestamp,
        mut on_expired: impl FnMut(&Element, T),
    ) -> usize {
        let cutoff = now.saturating_sub(self.extent);
        let mut removed = 0;
        while self.buf.front().is_some_and(|(front, _)| front.ts < cutoff) {
            let (e, tag) = self.buf.pop_front().expect("front checked");
            on_expired(&e, tag);
            removed += 1;
        }
        removed
    }

    /// Live elements, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Element> {
        self.buf.iter().map(|(e, _)| e)
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The largest timestamp ever inserted (drives expiration of the
    /// opposite side in symmetric joins).
    pub fn max_ts(&self) -> Timestamp {
        self.max_ts
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Serializes the live contents (high-water timestamp + elements) into
    /// a checkpoint snapshot. The extent is construction-time
    /// configuration and deliberately not persisted: a restored operator
    /// is rebuilt with the same query, so only runtime state travels.
    pub fn snapshot_into(&self, w: &mut BlobWriter) {
        w.put_timestamp(self.max_ts);
        w.put_u32(self.buf.len() as u32);
        for e in self.iter() {
            w.put_element(e);
        }
    }

    /// Replaces the contents from a snapshot written by
    /// [`WindowBuffer::snapshot_into`], asking `tag` for each restored
    /// element's tag, oldest first. On an error the buffer is unchanged.
    pub fn restore_tagged(
        &mut self,
        r: &mut BlobReader<'_>,
        mut tag: impl FnMut(&Element) -> Result<T, StateError>,
    ) -> Result<(), StateError> {
        let max_ts = r.timestamp()?;
        let n = r.len_prefix()?;
        let mut buf = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let e = r.element()?;
            let t = tag(&e)?;
            buf.push_back((e, t));
        }
        self.buf = buf;
        self.max_ts = max_ts;
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
    fn insert_and_iterate_in_order() {
        let mut w = WindowBuffer::new(Duration::from_secs(10));
        w.insert(el(1, 1));
        w.insert(el(2, 2));
        assert_eq!(w.len(), 2);
        let vals: Vec<i64> = w.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2]);
        assert_eq!(w.max_ts(), Timestamp::from_secs(2));
        assert_eq!(w.extent(), Duration::from_secs(10));
    }

    #[test]
    fn expire_removes_only_stale() {
        let mut w = WindowBuffer::new(Duration::from_secs(60));
        w.insert(el(1, 0));
        w.insert(el(2, 30));
        w.insert(el(3, 61));
        // now=61: cutoff = 1s; element at t=0 expires, t=30 and t=61 stay.
        assert_eq!(w.expire(Timestamp::from_secs(61)), 1);
        assert_eq!(w.len(), 2);
        // Boundary: element exactly at cutoff survives.
        let mut w2 = WindowBuffer::new(Duration::from_secs(10));
        w2.insert(el(1, 5));
        assert_eq!(w2.expire(Timestamp::from_secs(15)), 0);
        assert_eq!(w2.expire(Timestamp::from_micros(15_000_001)), 1);
    }

    #[test]
    fn expire_with_reports_expired_elements() {
        let mut w = WindowBuffer::new(Duration::from_secs(1));
        w.insert(el(1, 0));
        w.insert(el(2, 1));
        let mut gone = Vec::new();
        let n = w.expire_with(Timestamp::from_secs(3), |e, ()| {
            gone.push(e.tuple.field(0).as_int().unwrap())
        });
        assert_eq!(n, 2);
        assert_eq!(gone, vec![1, 2]);
        assert!(w.is_empty());
    }

    #[test]
    fn tags_expire_with_their_elements_and_stay_out_of_snapshots() {
        let mut tagged = WindowBuffer::new(Duration::from_secs(1));
        let mut plain = WindowBuffer::new(Duration::from_secs(1));
        for (v, t) in [(1, 0), (2, 1), (3, 5)] {
            tagged.insert_tagged(el(v, t), v as u32 * 10);
            plain.insert(el(v, t));
        }
        let mut gone = Vec::new();
        assert_eq!(tagged.expire_with(Timestamp::from_secs(3), |_, tag| gone.push(tag)), 2);
        assert_eq!(gone, [10, 20]);
        plain.expire(Timestamp::from_secs(3));
        let bytes = |f: &dyn Fn(&mut BlobWriter)| {
            let mut w = BlobWriter::new();
            f(&mut w);
            w.finish()
        };
        let blob = bytes(&|w| tagged.snapshot_into(w));
        assert_eq!(blob, bytes(&|w| plain.snapshot_into(w)));

        // Restore asks for every element's tag; a refusal leaves it as it was.
        let mut seen = Vec::new();
        tagged
            .restore_tagged(&mut BlobReader::new(&blob), |e| {
                seen.push(e.tuple.field(0).as_int().unwrap());
                Ok(7)
            })
            .unwrap();
        assert_eq!(seen, [3]);
        let refuse = |_: &Element| Err(StateError::Incompatible("no"));
        assert!(tagged.restore_tagged(&mut BlobReader::new(&blob), refuse).is_err());
        let mut tags = Vec::new();
        tagged.expire_with(Timestamp::from_secs(100), |_, tag| tags.push(tag));
        assert_eq!(tags, [7]);
    }

    #[test]
    fn expire_before_window_fills_is_noop() {
        let mut w = WindowBuffer::new(Duration::from_secs(100));
        w.insert(el(1, 5));
        assert_eq!(w.expire(Timestamp::from_secs(10)), 0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut w = WindowBuffer::new(Duration::from_secs(1));
        w.insert(el(1, 0));
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    fn snapshot_round_trip_preserves_contents_and_high_water() {
        let mut w = WindowBuffer::new(Duration::from_secs(60));
        w.insert(el(1, 1));
        w.insert(el(2, 5));
        let mut writer = BlobWriter::new();
        w.snapshot_into(&mut writer);
        let bytes = writer.finish();

        let mut restored = WindowBuffer::new(Duration::from_secs(60));
        restored.insert(el(99, 9)); // overwritten by restore
        let mut r = BlobReader::new(&bytes);
        restored.restore_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.max_ts(), Timestamp::from_secs(5));
        let vals: Vec<i64> = restored.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2]);

        // Truncated snapshots error instead of panicking.
        let mut r = BlobReader::new(&bytes[..bytes.len() - 3]);
        let mut again = WindowBuffer::new(Duration::from_secs(60));
        assert!(again.restore_from(&mut r).is_err());
    }
}
