//! What the wire hop allocates, counted under a global allocator that keeps
//! one counter per thread (so the tests of this binary, and the server's
//! accept thread, do not see each other): decoding a run costs one
//! allocation per tuple and one per string value, and encoding a run costs
//! nothing once the sink's buffer has grown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use hmts::obs::Obs;
use hmts::operators::traits::{Operator, Output};
use hmts::streams::element::{Element, TraceTag};
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;
use hmts::streams::value::Value;
use hmts_net::wire::{encode_frame, Frame, FrameReader};
use hmts_net::{EgressServer, SlowConsumerPolicy, SubscriberClient};

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// thread-local `Cell` with a const initialiser, which neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|a| a.set(0));
    f();
    ALLOCATIONS.with(Cell::get)
}

/// A `Ping`, then one data frame per tuple: `read_frame` takes the ping and
/// with it reads everything behind it into the buffer, so the data frames
/// are all there for `take_data`, which returns how many allocations they
/// cost.
fn take_data_allocations(tuples: &[Tuple]) -> u64 {
    let mut bytes = Vec::new();
    encode_frame(&Frame::Ping { nonce: 1 }, &mut bytes);
    for (i, tuple) in tuples.iter().enumerate() {
        let trace = if i % 7 == 3 { TraceTag::new(i as u64) } else { TraceTag::NONE };
        encode_frame(
            &Frame::Data { ts: Timestamp::from_micros(i as u64), tuple: tuple.clone(), trace },
            &mut bytes,
        );
    }
    assert!(bytes.len() <= hmts_net::wire::READ_BUF, "one read brings the whole stream");
    let mut reader = FrameReader::new(&bytes[..]);
    assert_eq!(reader.read_frame().unwrap(), Some(Frame::Ping { nonce: 1 }));
    let mut run: Vec<Element> = Vec::with_capacity(tuples.len());
    let count = allocations_during(|| {
        assert_eq!(reader.take_data(&mut run), Ok(tuples.len()));
    });
    let decoded: Vec<&Tuple> = run.iter().map(|e| &e.tuple).collect();
    assert_eq!(decoded, tuples.iter().collect::<Vec<_>>());
    assert_eq!(reader.bytes_read(), bytes.len() as u64);
    count
}

#[test]
fn take_data_allocates_once_per_int_tuple() {
    let tuples: Vec<Tuple> = (0..1000i64)
        .map(|i| match i % 4 {
            0 => Tuple::single(i),
            1 => Tuple::pair(i, -i),
            2 => Tuple::new([i, 2 * i, 3 * i]),
            _ => Tuple::new([Value::Int(i), Value::Float(0.5), Value::Bool(true), Value::Null]),
        })
        .collect();
    assert_eq!(take_data_allocations(&tuples), tuples.len() as u64);
}

#[test]
fn a_string_value_costs_one_allocation_more() {
    let tuples: Vec<Tuple> = (0..500i64).map(|i| Tuple::pair(i, format!("k{i}"))).collect();
    assert_eq!(take_data_allocations(&tuples), 2 * tuples.len() as u64);
}

#[test]
fn egress_process_batch_allocates_nothing_per_run() {
    let server =
        EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled()).unwrap();
    let subscriber = SubscriberClient::connect(server.local_addr(), "results").unwrap();
    assert!(server.wait_for_subscribers(1, Duration::from_secs(5)));
    let drain = std::thread::spawn(move || subscriber.collect_all().unwrap().len());

    const RUN: usize = 32;
    const RUNS: usize = 2000;
    let pool: Vec<Element> = (0..RUN as i64)
        .map(|i| {
            let e = Element::new(Tuple::pair(i, 3 * i), Timestamp::from_micros(i as u64));
            e.with_trace(TraceTag::new(if i == 5 { 99 } else { 0 }))
        })
        .collect();
    let mut sink = server.sink("egress");
    let mut out = Output::new();
    let mut run: Vec<Element> = Vec::with_capacity(RUN);
    let mut pass = |sink: &mut hmts_net::EgressSink, run: &mut Vec<Element>| {
        run.extend(pool.iter().cloned());
        sink.process_batch(0, run, &mut out).unwrap();
        assert!(run.is_empty());
        sink.end_slice();
    };
    // Warm-up: the pending buffer reaches the size of a run.
    for _ in 0..4 {
        pass(&mut sink, &mut run);
    }
    let count = allocations_during(|| {
        for _ in 0..RUNS {
            pass(&mut sink, &mut run);
        }
    });
    assert_eq!(count, 0, "allocations for {RUNS} runs of {RUN}");
    sink.flush(&mut out).unwrap();
    assert_eq!(server.tuples_sent(), ((RUNS + 4) * RUN) as u64);
    assert_eq!(drain.join().unwrap(), (RUNS + 4) * RUN);
}
