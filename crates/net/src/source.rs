//! Driving a query graph from a remote ingest queue.

use std::sync::Arc;

use hmts::operators::traits::Source;
use hmts::streams::element::{Element, Punctuation};
use hmts::streams::queue::{Batch, StreamQueue};
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;

/// A [`Source`] that drains an ingest [`StreamQueue`] fed by the network.
///
/// The source takes what waits in the queue as runs ([`StreamQueue::pop_runs`]),
/// so a run the ingest server queued reaches the engine's source driver as
/// the buffer it is in, and a producer blocked on the full queue is released
/// for a run's worth of slots at once rather than once per element. It
/// waits ([`StreamQueue::pop_blocking`]) only while it holds nothing, so it
/// never waits for another message while it holds one, and graphs it drives
/// are clocked entirely by external traffic. The source ends when the
/// ingest server closes the queue (all expected producers finished) or an
/// explicit end-of-stream punctuation is drained; the engine then injects
/// EOS downstream exactly as for a local source. Watermark punctuations are
/// skipped — the engine synthesizes watermarks from element timestamps when
/// [`watermark_interval`] is configured — and so are barriers, which the
/// engine's own checkpoint coordinator injects fresh at the source driver.
/// Elements keep their wire-carried trace tag, so a tuple's cross-process
/// trace stays connected.
///
/// Run remote-fed engines with `pace_sources: false`: elements already
/// arrive paced by the network, and their timestamps belong to the
/// *client's* stream epoch, not the engine clock.
///
/// [`watermark_interval`]: hmts::engine::EngineConfig::watermark_interval
pub struct RemoteSource {
    name: String,
    queue: Arc<StreamQueue>,
    /// Where the punctuations of a take land.
    puncts: Vec<(usize, Punctuation)>,
    /// The stream ended behind the elements taken.
    ended: bool,
}

impl RemoteSource {
    /// A source draining `queue` under the given diagnostic name.
    pub fn new(name: impl Into<String>, queue: Arc<StreamQueue>) -> RemoteSource {
        RemoteSource { name: name.into(), queue, puncts: Vec::new(), ended: false }
    }

    /// The backing queue (for occupancy monitoring).
    pub fn queue(&self) -> &Arc<StreamQueue> {
        &self.queue
    }

    /// Takes up to `max` messages off the queue and appends their elements
    /// to `run` — those before an end-of-stream, which ends the stream —
    /// waiting for one only if `wait` and none is there. Returns how many
    /// messages it took.
    fn take(&mut self, max: usize, run: &mut Vec<Element>, wait: bool) -> usize {
        let mut batch =
            Batch { run: std::mem::take(run), puncts: std::mem::take(&mut self.puncts) };
        let mut took = self.queue.pop_runs(max, &mut batch);
        if took == 0 && wait {
            match self.queue.pop_blocking() {
                Some(msg) => {
                    batch.push(msg);
                    took = 1;
                }
                None => self.ended = true,
            }
        }
        if let Some(&(at, _)) =
            batch.puncts.iter().find(|(_, p)| matches!(p, Punctuation::EndOfStream))
        {
            batch.run.truncate(at);
            self.ended = true;
        }
        batch.puncts.clear();
        (*run, self.puncts) = (batch.run, batch.puncts);
        took
    }
}

impl Source for RemoteSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next(&mut self) -> Option<(Timestamp, Tuple)> {
        self.next_element().map(|e| (e.ts, e.tuple))
    }

    fn next_element(&mut self) -> Option<Element> {
        let mut one = Vec::with_capacity(1);
        self.next_batch(1, &mut one);
        one.pop()
    }

    /// Hands over the runs waiting in the queue, and waits for a message
    /// only while it has appended nothing, so an element never sits in
    /// `out` behind a blocked pop.
    fn next_batch(&mut self, max: usize, out: &mut Vec<Element>) -> bool {
        let before = out.len();
        while !self.ended {
            let room = max - (out.len() - before);
            if room == 0 || self.take(room, out, out.len() == before) == 0 {
                break;
            }
        }
        !self.ended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts::streams::element::Message;

    #[test]
    fn drains_data_skips_watermarks_ends_on_close() {
        let q = StreamQueue::unbounded("r");
        q.push(Message::data(Tuple::single(1), Timestamp::from_micros(10))).unwrap();
        q.push(Message::Punct(Punctuation::Watermark(Timestamp::from_micros(10)))).unwrap();
        q.push(Message::data(Tuple::single(2), Timestamp::from_micros(20))).unwrap();
        q.close();
        let mut s = RemoteSource::new("r", q);
        assert_eq!(s.next().unwrap().1.field(0).as_int().unwrap(), 1);
        assert_eq!(s.next().unwrap().1.field(0).as_int().unwrap(), 2);
        assert!(s.next().is_none());
        assert!(s.next().is_none(), "stays exhausted");
    }

    #[test]
    fn explicit_eos_punctuation_ends_stream() {
        let q = StreamQueue::unbounded("r");
        q.push(Message::data(Tuple::single(1), Timestamp::ZERO)).unwrap();
        q.push(Message::eos()).unwrap();
        q.push(Message::data(Tuple::single(9), Timestamp::ZERO)).unwrap();
        let mut s = RemoteSource::new("r", q);
        assert!(s.next().is_some());
        assert!(s.next().is_none(), "EOS punctuation terminates");
        assert!(s.next().is_none());
    }
    #[test]
    fn takes_in_arrival_order_and_frees_a_blocked_producer_many_slots_at_once() {
        use hmts::streams::queue::BackpressurePolicy;
        let q = StreamQueue::bounded("r", 8, BackpressurePolicy::Block);
        let n = 323;
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..n {
                    q.push(Message::data(Tuple::single(i), Timestamp::from_micros(i as u64)))
                        .unwrap();
                    if i % 7 == 0 {
                        q.push(Message::Punct(Punctuation::Watermark(Timestamp::ZERO))).unwrap();
                    }
                }
                q.close();
            })
        };
        let mut s = RemoteSource::new("r", q);
        let mut got = Vec::new();
        while s.next_batch(64, &mut got) {}
        producer.join().unwrap();
        assert_eq!(values(&got), (0..n).collect::<Vec<_>>());
    }

    fn values(batch: &[Element]) -> Vec<i64> {
        batch.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect()
    }

    #[test]
    fn a_waiting_run_reaches_the_batch_as_the_buffer_it_is_in() {
        let q = StreamQueue::unbounded("r");
        let ts = Timestamp::from_micros;
        // Staged as the ingest server stages a socket read: the run, and a
        // watermark behind it.
        let mut staged = Batch {
            run: (0..32).map(|v| Element::single(v, ts(v as u64))).collect(),
            puncts: vec![(32, Punctuation::Watermark(ts(31)))],
        };
        let buffer = staged.run.as_ptr();
        q.push_runs(&mut staged, || {}).unwrap();
        q.push(Message::data(Tuple::single(32), ts(32))).unwrap();
        let mut s = RemoteSource::new("r", q);
        let mut out = Vec::new();
        assert!(s.next_batch(32, &mut out));
        assert_eq!(out.as_ptr(), buffer, "the ingest server's buffer, not a copy");
        assert_eq!(values(&out), (0..32).collect::<Vec<_>>());
        out.clear();
        assert!(s.next_batch(32, &mut out));
        assert_eq!(values(&out), [32], "the watermark skipped");
    }

    #[test]
    fn a_lone_element_is_handed_over_without_waiting_for_a_second() {
        let q = StreamQueue::unbounded("r");
        q.push(Message::data(Tuple::single(1), Timestamp::ZERO)).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let puller = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut s = RemoteSource::new("r", q);
                let mut batch = Vec::new();
                let more = s.next_batch(32, &mut batch);
                done_tx.send((more, values(&batch))).unwrap();
            })
        };
        // Nothing else ever arrives: a source waiting to fill its batch
        // would sit in `pop_blocking` until the watchdog gives up.
        let got = done_rx.recv_timeout(std::time::Duration::from_secs(1));
        q.close();
        puller.join().unwrap();
        assert_eq!(got, Ok((true, vec![1])));
    }

    #[test]
    fn a_batch_skips_inbound_punctuation_and_ends_behind_the_data_before_an_eos() {
        let q = StreamQueue::unbounded("r");
        let data = |v: i64| Message::data(Tuple::single(v), Timestamp::from_micros(v as u64));
        for msg in [
            data(1),
            Message::Punct(Punctuation::Watermark(Timestamp::from_micros(1))),
            data(2),
            Message::Punct(Punctuation::Barrier(7)),
            data(3),
            data(4),
            Message::eos(),
            data(9),
        ] {
            q.push(msg).unwrap();
        }
        let mut s = RemoteSource::new("r", q);
        let mut batch = Vec::new();
        assert!(s.next_batch(3, &mut batch));
        assert_eq!(values(&batch), [1, 2, 3], "at most `max`, the punctuation skipped");
        assert!(!s.next_batch(3, &mut batch), "the stream ended in this batch");
        assert_eq!(values(&batch), [1, 2, 3, 4], "with the data that preceded the EOS");
        assert!(!s.next_batch(3, &mut batch) && s.next_element().is_none(), "stays ended");
        assert_eq!(batch.len(), 4);
    }
}
