//! Loopback end-to-end tests: a netgen-shaped client feeds the ingest
//! server, the Fig. 9/10 chain runs under HMTS, and an egress subscriber
//! receives the results — with a bounded ingest queue whose fullness
//! becomes TCP backpressure (stalls) rather than drops.

use std::sync::atomic::Ordering;
use std::time::Duration;

use hmts::prelude::*;
use hmts::workload::scenarios::{fig9_chain_into, Fig9Params};
use hmts_net::{
    run_load, EgressServer, IngestConfig, IngestServer, LoadConfig, SlowConsumerPolicy, StreamSpec,
    SubscriberClient,
};

/// The tentpole acceptance test: ingest → HMTS engine → egress over
/// loopback, results correct and in order, zero tuples dropped despite a
/// small bounded ingest queue.
#[test]
fn loopback_end_to_end_under_hmts() {
    const COUNT: u64 = 3_000;
    // Values in [1, 10^4] so the chain's selections (≤ 9 000, ≤ 2 700)
    // pass a meaningful fraction of a small test stream.
    const RANGE: i64 = 10_000;

    let ingest = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new("bursty")],
        IngestConfig { queue_capacity: Some(64), obs: Obs::disabled(), ..IngestConfig::default() },
    )
    .unwrap();
    let egress =
        EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled()).unwrap();

    // Subscribe before any load flows so no result can be missed.
    let subscriber = SubscriberClient::connect(egress.local_addr(), "results").unwrap();
    assert!(egress.wait_for_subscribers(1, Duration::from_secs(5)));
    let subscriber = std::thread::spawn(move || subscriber.collect_all());

    let chain = fig9_chain_into(
        &Fig9Params { speedup: 50_000.0, ..Fig9Params::default() },
        Box::new(ingest.source("bursty").unwrap()),
        Box::new(egress.sink("egress")),
    );
    let plan = ExecutionPlan::hmts(chain.two_vos(), StrategyKind::Fifo, 2);
    let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
    let mut engine = Engine::with_config(chain.graph, plan, cfg).unwrap();
    engine.start().unwrap();

    let load = LoadConfig::constant("bursty", 1e6, RANGE, COUNT, 42);
    let report = run_load(ingest.local_addr(), &load).unwrap();
    assert_eq!(report.sent, COUNT);
    assert!(report.rtt.samples >= 1, "final barrier ping must be answered");

    let engine_report = engine.wait();
    assert!(engine_report.errors.is_empty(), "{:?}", engine_report.errors);

    // What the query must produce: the client's exact tuple sequence
    // (same seed) through projection [0] and both selections, in order.
    let expected: Vec<i64> = hmts_net::client::expected_tuples(&load)
        .iter()
        .map(|t| t.field(0).as_int().unwrap())
        .filter(|&v| v <= 2_700)
        .collect();
    assert!(expected.len() > 100, "test stream too selective: {}", expected.len());

    let received: Vec<i64> = subscriber
        .join()
        .unwrap()
        .unwrap()
        .iter()
        .filter_map(|m| m.as_data().map(|e| e.tuple.field(0).as_int().unwrap()))
        .collect();
    assert_eq!(received, expected, "results must arrive complete and in order");

    // The bounded ingest queue must not have shed a single tuple: its
    // fullness stalled the socket instead.
    let q = ingest.queue("bursty").unwrap();
    assert_eq!(q.metrics().dropped(), 0);
    assert_eq!(q.metrics().enqueued(), COUNT);
    assert_eq!(ingest.stats().tuples.load(Ordering::Relaxed), COUNT);
    assert!(q.is_closed(), "producer departure ends the stream");
}

/// Backpressure in isolation: a client blasting into a tiny bounded queue
/// with a deliberately slow consumer loses nothing — the connection thread
/// stalls (measurably) instead of dropping.
#[test]
fn bounded_ingest_queue_stalls_instead_of_dropping() {
    use hmts_net::wire::{hello, Frame, FrameWriter};
    use std::net::TcpStream;

    const COUNT: i64 = 1_000;
    let server = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new("s")],
        IngestConfig { queue_capacity: Some(8), obs: Obs::disabled(), ..IngestConfig::default() },
    )
    .unwrap();

    let addr = server.local_addr();
    let producer = std::thread::spawn(move || {
        let mut w = FrameWriter::new(TcpStream::connect(addr).unwrap());
        w.write_frame(&hello("s")).unwrap();
        for i in 0..COUNT {
            w.write_frame(&Frame::Data {
                ts: hmts::streams::time::Timestamp::from_micros(i as u64),
                tuple: hmts::streams::tuple::Tuple::single(i),
                trace: hmts::streams::element::TraceTag::NONE,
            })
            .unwrap();
        }
        w.write_frame(&Frame::Eos).unwrap();
        w.flush().unwrap();
    });

    // Slow consumer: drain with periodic naps so the queue is full most
    // of the time.
    let q = server.queue("s").unwrap();
    let mut got = Vec::new();
    while let Some(m) = q.pop_blocking() {
        if let Some(e) = m.as_data() {
            got.push(e.tuple.field(0).as_int().unwrap());
        }
        if got.len() % 100 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    producer.join().unwrap();

    assert_eq!(got, (0..COUNT).collect::<Vec<_>>(), "all tuples, in order");
    assert_eq!(q.metrics().dropped(), 0);
    assert_eq!(q.metrics().enqueued(), COUNT as u64);
    assert!(
        server.stats().backpressure_stall_ns.load(Ordering::Relaxed) > 0,
        "the connection thread must have measurably stalled on the full queue"
    );
}
