//! Driving a query graph from a remote ingest queue.

use std::sync::Arc;

use hmts::operators::traits::Source;
use hmts::streams::element::{Element, Message, Punctuation};
use hmts::streams::queue::StreamQueue;
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;

/// A [`Source`] that drains an ingest [`StreamQueue`] fed by the network.
///
/// `next` parks on the queue, so a graph driven by a `RemoteSource` is
/// clocked entirely by external traffic. A source that finds messages
/// waiting takes up to [`TAKE`] of them under one lock, so a producer
/// blocked on the full queue is released for that many slots at once
/// rather than once per element, and hands them out one by one or — to the
/// engine's source driver — a batch at a time, without ever waiting for
/// another message while it holds one. The source ends
/// when the ingest server closes the queue (all expected producers
/// finished) or an explicit end-of-stream punctuation is drained; the
/// engine then injects EOS downstream exactly as for a local source.
/// Watermark punctuations are skipped — the engine synthesizes watermarks
/// from element timestamps when [`watermark_interval`] is configured.
///
/// Run remote-fed engines with `pace_sources: false`: elements already
/// arrive paced by the network, and their timestamps belong to the
/// *client's* stream epoch, not the engine clock.
///
/// [`watermark_interval`]: hmts::engine::EngineConfig::watermark_interval
pub struct RemoteSource {
    name: String,
    queue: Arc<StreamQueue>,
    /// Messages taken off the queue and not yet handed out, newest first.
    taken: Vec<Message>,
    done: bool,
}

/// What the next message in arrival order means to the source.
enum Step {
    /// Keep the full element: a wire-carried trace tag must survive into
    /// the engine so the tuple's cross-process trace stays connected.
    Data(Element),
    /// Watermarks are resynthesized by the engine; barriers are injected
    /// fresh by the engine's own checkpoint coordinator at the source
    /// driver, so inbound ones carry no meaning.
    Skip,
    /// The queue was closed and drained, or delivered end-of-stream.
    End,
}

/// Most messages taken off the queue in one go.
const TAKE: usize = 64;

impl RemoteSource {
    /// A source draining `queue` under the given diagnostic name.
    pub fn new(name: impl Into<String>, queue: Arc<StreamQueue>) -> RemoteSource {
        RemoteSource { name: name.into(), queue, taken: Vec::new(), done: false }
    }

    /// The backing queue (for occupancy monitoring).
    pub fn queue(&self) -> &Arc<StreamQueue> {
        &self.queue
    }

    /// The next message in arrival order, waiting for one if none is at
    /// hand; `None` once the queue is closed and drained.
    fn next_message(&mut self) -> Option<Message> {
        if let Some(msg) = self.taken.pop() {
            return Some(msg);
        }
        let first = self.queue.pop_blocking()?;
        self.queue.pop_batch(TAKE - 1, &mut self.taken);
        self.taken.reverse();
        Some(first)
    }

    /// Takes the next message (waiting for one if none is at hand) and
    /// classifies it; stays at [`Step::End`] once the stream ended.
    fn step(&mut self) -> Step {
        if self.done {
            return Step::End;
        }
        match self.next_message() {
            Some(Message::Data(e)) => Step::Data(e),
            Some(Message::Punct(Punctuation::Watermark(_) | Punctuation::Barrier(_))) => Step::Skip,
            Some(Message::Punct(Punctuation::EndOfStream)) | None => {
                self.done = true;
                Step::End
            }
        }
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
        loop {
            match self.step() {
                Step::Data(e) => return Some(e),
                Step::Skip => continue,
                Step::End => return None,
            }
        }
    }

    /// Hands over what is at hand: waits for a message only while it has
    /// neither appended an element nor holds a taken one, so an element
    /// never sits in `out` behind a blocked pop.
    fn next_batch(&mut self, max: usize, out: &mut Vec<Element>) -> bool {
        let before = out.len();
        while out.len() - before < max {
            if self.taken.is_empty() && out.len() > before {
                break;
            }
            match self.step() {
                Step::Data(e) => out.push(e),
                Step::Skip => continue,
                Step::End => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let n = 5 * TAKE as i64 + 3;
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
        let got: Vec<i64> =
            std::iter::from_fn(|| s.next()).map(|(_, t)| t.field(0).as_int().unwrap()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    fn values(batch: &[Element]) -> Vec<i64> {
        batch.iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect()
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
