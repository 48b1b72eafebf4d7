//! Bounded-queue backpressure under concurrency: multiple blocked
//! producers versus one consumer, close-during-push, and the stall
//! accounting used by the network ingest layer.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hmts_streams::element::Message;
use hmts_streams::error::StreamError;
use hmts_streams::queue::{BackpressurePolicy, Batch, StreamQueue};
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;

fn msg(producer: i64, seq: i64) -> Message {
    Message::data(Tuple::pair(producer, seq), Timestamp::from_micros(seq as u64))
}

#[test]
fn concurrent_producers_block_and_lose_nothing() {
    const PRODUCERS: i64 = 4;
    const PER_PRODUCER: i64 = 500;
    let q = StreamQueue::bounded("bp", 4, BackpressurePolicy::Block);

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for seq in 0..PER_PRODUCER {
                    q.push(msg(p, seq)).unwrap();
                }
            })
        })
        .collect();

    // One deliberately slow consumer, so producers spend most of the run
    // blocked on the full queue.
    let mut per_producer_seqs: Vec<Vec<i64>> = vec![Vec::new(); PRODUCERS as usize];
    let mut popped = 0u64;
    while popped < (PRODUCERS * PER_PRODUCER) as u64 {
        if let Some(m) = q.pop_blocking() {
            let t = &m.as_data().unwrap().tuple;
            let p = t.field(0).as_int().unwrap() as usize;
            per_producer_seqs[p].push(t.field(1).as_int().unwrap());
            popped += 1;
            if popped % 200 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
    }
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(q.metrics().enqueued(), (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(q.metrics().dropped(), 0);
    assert_eq!(q.len(), 0);
    // FIFO per producer: each producer's elements arrive in its own send
    // order even though the producers interleave arbitrarily.
    for (p, seqs) in per_producer_seqs.iter().enumerate() {
        assert_eq!(seqs.len(), PER_PRODUCER as usize, "producer {p}");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "producer {p} reordered: {seqs:?}");
    }
    assert!(q.metrics().high_water() <= 4, "bound respected: {}", q.metrics().high_water());
}

#[test]
fn close_wakes_blocked_producers_with_queue_closed() {
    let q = StreamQueue::bounded("bp", 2, BackpressurePolicy::Block);
    q.push(msg(0, 0)).unwrap();
    q.push(msg(0, 1)).unwrap();

    // Several producers all blocked mid-push on the full queue.
    let handles: Vec<_> = (0..3)
        .map(|p| {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(msg(p, 99)))
        })
        .collect();
    // Give them time to actually enter the blocking wait.
    thread::sleep(Duration::from_millis(20));

    // EOS while they block: close must wake all of them with an error
    // rather than leaving them parked forever.
    q.close();
    for h in handles {
        assert_eq!(h.join().unwrap(), Err(StreamError::QueueClosed));
    }
    // The two messages enqueued before the close stay poppable.
    assert!(q.pop_blocking().is_some());
    assert!(q.pop_blocking().is_some());
    assert!(q.pop_blocking().is_none());
    assert_eq!(q.metrics().enqueued(), 2);
}

#[test]
fn close_is_an_idempotent_poison_for_both_sides() {
    // The supervision layer uses close() as the queue's poison: once a
    // branch is quarantined, its queues are closed so producers fail fast
    // and consumers drain what is buffered, then see end-of-stream.
    let q = StreamQueue::unbounded("poison");
    q.push(msg(0, 0)).unwrap();
    q.push(msg(0, 1)).unwrap();

    q.close();
    q.close(); // idempotent: a second close must not panic or reopen

    // Producer side: every push fails fast with the typed error...
    assert_eq!(q.push(msg(0, 2)), Err(StreamError::QueueClosed));
    assert!(matches!(q.push_with_stall(msg(0, 3)), Err(StreamError::QueueClosed)));
    // ...and nothing after the poison is ever observed.
    assert_eq!(q.metrics().enqueued(), 2);

    // Consumer side: the pre-close backlog drains in order, then the
    // closed queue reports end-of-stream (None) forever.
    assert_eq!(q.pop_blocking().unwrap().as_data().unwrap().tuple.field(1).as_int().unwrap(), 0);
    assert_eq!(q.try_pop().unwrap().as_data().unwrap().tuple.field(1).as_int().unwrap(), 1);
    assert!(q.pop_blocking().is_none());
    assert!(q.pop_blocking().is_none(), "closed+drained is terminal");
    assert!(q.is_closed());
}

#[test]
fn lift_bound_releases_blocked_producer() {
    let q = StreamQueue::bounded("bp", 1, BackpressurePolicy::Block);
    q.push(msg(0, 0)).unwrap();
    let pusher = {
        let q = Arc::clone(&q);
        thread::spawn(move || q.push(msg(0, 1)))
    };
    thread::sleep(Duration::from_millis(20));
    assert_eq!(q.len(), 1, "second push must be blocked");
    q.lift_bound();
    assert_eq!(pusher.join().unwrap(), Ok(()));
    assert_eq!(q.len(), 2);
}

#[test]
fn push_with_stall_times_the_block_and_is_zero_on_the_fast_path() {
    let q = StreamQueue::bounded("bp", 1, BackpressurePolicy::Block);
    assert_eq!(q.push_with_stall(msg(0, 0)).unwrap(), Duration::ZERO);

    let stalled = {
        let q = Arc::clone(&q);
        thread::spawn(move || q.push_with_stall(msg(0, 1)))
    };
    thread::sleep(Duration::from_millis(25));
    assert!(q.pop_blocking().is_some());
    let stall = stalled.join().unwrap().unwrap();
    assert!(stall >= Duration::from_millis(10), "measured stall {stall:?}");

    // The same for a batch: what fits goes in untimed, the rest waits.
    assert!(q.pop_blocking().is_some());
    let batch = |seqs: std::ops::Range<i64>| {
        let mut batch = Batch::default();
        seqs.for_each(|seq| batch.push(msg(0, seq)));
        batch
    };
    assert_eq!(q.push_runs(&mut batch(2..3), || {}).unwrap(), Duration::ZERO);
    let stalled = {
        let q = Arc::clone(&q);
        thread::spawn(move || q.push_runs(&mut batch(3..5), || {}))
    };
    thread::sleep(Duration::from_millis(25));
    // Each pop makes room for one more of the batch.
    assert!(q.pop_blocking().is_some() && q.pop_blocking().is_some());
    let stall = stalled.join().unwrap().unwrap();
    assert!(stall >= Duration::from_millis(10), "measured stall {stall:?}");
    assert_eq!(q.len(), 1);
}

#[test]
fn eos_message_during_concurrent_pushes_stays_ordered_per_producer() {
    // A producer that ends its own stream with an EOS punctuation while
    // another producer is still pushing: the queue treats both uniformly.
    let q = StreamQueue::bounded("bp", 2, BackpressurePolicy::Block);
    let a = {
        let q = Arc::clone(&q);
        thread::spawn(move || {
            for seq in 0..50 {
                q.push(msg(0, seq)).unwrap();
            }
            q.push(Message::eos()).unwrap();
        })
    };
    let b = {
        let q = Arc::clone(&q);
        thread::spawn(move || {
            for seq in 0..50 {
                q.push(msg(1, seq)).unwrap();
            }
        })
    };
    let mut data = 0;
    let mut eos = 0;
    let mut last_a = -1;
    for _ in 0..101 {
        match q.pop_blocking().unwrap() {
            Message::Data(e) => {
                data += 1;
                if e.tuple.field(0).as_int().unwrap() == 0 {
                    let seq = e.tuple.field(1).as_int().unwrap();
                    assert!(seq > last_a, "producer 0 reordered");
                    last_a = seq;
                }
            }
            m if m.is_eos() => {
                eos += 1;
                // Producer 0's EOS comes after all of its data.
                assert_eq!(last_a, 49, "EOS overtook producer 0's data");
            }
            _ => {}
        }
    }
    a.join().unwrap();
    b.join().unwrap();
    assert_eq!((data, eos), (100, 1));
    assert_eq!(q.metrics().dropped(), 0);
}
