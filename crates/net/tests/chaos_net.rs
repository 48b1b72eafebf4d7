//! Network fault injection: connections cut mid-frame, byte-shredded
//! writes, idle producers, and the full ingest → engine → egress chain
//! recovering from a combined operator panic + connection drop with
//! byte-identical results. The faulty client-side writer lives here too.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmts::prelude::*;
use hmts::workload::scenarios::{fig9_chain_into, Fig9Params};
use hmts_net::wire::{hello, Frame, FrameWriter};
use hmts_net::{
    send_with_resume, EgressServer, IngestConfig, IngestServer, ResumeConfig, SlowConsumerPolicy,
    StreamSpec, SubscriberClient,
};

fn seq_tuples(count: u64) -> Vec<(Timestamp, Tuple)> {
    (0..count).map(|i| (Timestamp::from_micros(i), Tuple::single(i as i64))).collect()
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// A connection cut mid-frame is healed by reconnect + resume: the server
/// sees every element exactly once, in order.
#[test]
fn resume_after_cut_connection_is_exactly_once_in_order() {
    const COUNT: u64 = 500;
    let obs = Obs::enabled();
    let server = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new("s")],
        IngestConfig {
            queue_capacity: None,
            obs: obs.clone(),
            resume: true,
            reconnect_window: Duration::from_secs(10),
            ..IngestConfig::default()
        },
    )
    .unwrap();

    let tuples = seq_tuples(COUNT);
    let mut conn = 0u32;
    let report = send_with_resume(
        server.local_addr(),
        "s",
        &tuples,
        &ResumeConfig { base_backoff: Duration::from_millis(2), ..ResumeConfig::default() },
        |sock| {
            conn += 1;
            if conn == 1 {
                // Writes 1-2 are Hello + Resume; the cut lands mid-stream.
                Box::new(FaultyWriter::new(sock, WriteFault::CutMidWrite { at_write: 100 }))
            } else {
                Box::new(sock) as Box<dyn Write + Send>
            }
        },
    )
    .unwrap();

    assert_eq!(report.connects, 2, "one cut, one successful retry");
    assert_eq!(report.resume_points.len(), 2);
    assert_eq!(report.resume_points[0], 0, "first connection starts from scratch");
    let resumed = report.resume_points[1];
    assert!(resumed > 0 && resumed < COUNT, "second connection resumed mid-stream: {resumed}");

    let q = server.queue("s").unwrap();
    assert!(wait_until(Duration::from_secs(5), || q.is_closed()), "eos closes the stream");
    let mut got = Vec::new();
    while let Some(m) = q.pop_blocking() {
        if let Some(e) = m.as_data() {
            got.push(e.tuple.field(0).as_int().unwrap());
        }
    }
    assert_eq!(got, (0..COUNT as i64).collect::<Vec<_>>(), "exactly once, in order");
    assert_eq!(server.stats().disconnects.load(Ordering::Relaxed), 1);
    assert_eq!(server.stats().resumes.load(Ordering::Relaxed), 2);

    let journal = obs.journal_snapshot();
    assert!(journal.iter().any(|r| r.event.kind() == "net-disconnect"));
    assert!(journal.iter().any(|r| r.event.kind() == "net-reconnect"));
}

/// Byte-shredded writes (1 byte per syscall) exercise every partial-read
/// path in the frame reader; nothing is lost or reordered.
#[test]
fn shredded_writes_reassemble_into_clean_frames() {
    const COUNT: u64 = 50;
    let server = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new("s")],
        IngestConfig { queue_capacity: None, ..IngestConfig::default() },
    )
    .unwrap();

    let tuples = seq_tuples(COUNT);
    let report =
        send_with_resume(server.local_addr(), "s", &tuples, &ResumeConfig::default(), |sock| {
            Box::new(FaultyWriter::new(sock, WriteFault::Shred))
        })
        .unwrap();
    assert_eq!(report.connects, 1, "shredding slows but never kills the connection");

    let q = server.queue("s").unwrap();
    assert!(wait_until(Duration::from_secs(5), || q.is_closed()));
    let mut got = Vec::new();
    while let Some(m) = q.pop_blocking() {
        if let Some(e) = m.as_data() {
            got.push(e.tuple.field(0).as_int().unwrap());
        }
    }
    assert_eq!(got, (0..COUNT as i64).collect::<Vec<_>>());
    assert_eq!(server.stats().decode_errors.load(Ordering::Relaxed), 0);
}

/// A producer that goes silent past the heartbeat timeout is declared dead
/// (journaled, counted) instead of wedging the stream forever.
#[test]
fn heartbeat_timeout_reaps_idle_producer() {
    let obs = Obs::enabled();
    let server = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new("s")],
        IngestConfig {
            queue_capacity: None,
            obs: obs.clone(),
            heartbeat_timeout: Some(Duration::from_millis(50)),
            ..IngestConfig::default()
        },
    )
    .unwrap();

    let sock = TcpStream::connect(server.local_addr()).unwrap();
    let mut w = FrameWriter::new(sock);
    w.write_frame(&hello("s")).unwrap();
    w.write_frame(&Frame::Data {
        ts: Timestamp::ZERO,
        tuple: Tuple::single(1),
        trace: TraceTag::NONE,
    })
    .unwrap();
    w.flush().unwrap();
    // ... and then silence: no Eos, no more data, socket left open.

    let q = server.queue("s").unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || q.is_closed()),
        "silent producer must be timed out"
    );
    assert_eq!(server.stats().disconnects.load(Ordering::Relaxed), 1);
    let journal = obs.journal_snapshot();
    assert!(journal.iter().any(|r| {
        r.event.kind() == "net-disconnect" && format!("{:?}", r.event).contains("heartbeat")
    }));
    drop(w);
}

/// The acceptance scenario: the Fig. 9/10 served chain survives a seeded
/// operator panic *and* an ingest connection cut mid-frame, and still
/// produces byte-identical results.
#[test]
fn served_chain_recovers_from_panic_and_connection_cut() {
    const COUNT: u64 = 3_000;
    const RANGE: i64 = 10_000;

    let obs = Obs::enabled();
    let ingest = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new("bursty")],
        IngestConfig {
            queue_capacity: Some(64),
            obs: obs.clone(),
            resume: true,
            reconnect_window: Duration::from_secs(10),
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let egress = EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, obs.clone()).unwrap();
    let subscriber = SubscriberClient::connect(egress.local_addr(), "results").unwrap();
    assert!(egress.wait_for_subscribers(1, Duration::from_secs(5)));
    let subscriber = std::thread::spawn(move || subscriber.collect_all());

    let chain = fig9_chain_into(
        &Fig9Params { speedup: 50_000.0, ..Fig9Params::default() },
        Box::new(ingest.source("bursty").unwrap()),
        Box::new(egress.sink("egress")),
    );
    let plan = ExecutionPlan::hmts(chain.two_vos(), StrategyKind::Fifo, 2);
    let fault = Arc::new(FaultPlan::seeded(42).panic_at("sel_cheap", 400));
    let cfg = EngineConfig {
        pace_sources: false,
        obs: obs.clone(),
        chaos: Some(Arc::clone(&fault)),
        supervision: Some(SupervisionConfig {
            policy: RestartPolicy {
                base_backoff: Duration::from_millis(1),
                ..RestartPolicy::default()
            },
            ..SupervisionConfig::default()
        }),
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(chain.graph, plan, cfg).unwrap();
    engine.start().unwrap();

    // Deterministic input in [1, RANGE], cut once mid-stream.
    let tuples: Vec<(Timestamp, Tuple)> = (0..COUNT)
        .map(|i| (Timestamp::from_micros(i), Tuple::single((i as i64 * 37) % RANGE + 1)))
        .collect();
    let mut conn = 0u32;
    let send_report = send_with_resume(
        ingest.local_addr(),
        "bursty",
        &tuples,
        &ResumeConfig { base_backoff: Duration::from_millis(2), ..ResumeConfig::default() },
        |sock| {
            conn += 1;
            if conn == 1 {
                Box::new(FaultyWriter::new(sock, WriteFault::CutMidWrite { at_write: 700 }))
            } else {
                Box::new(sock) as Box<dyn Write + Send>
            }
        },
    )
    .unwrap();
    assert_eq!(send_report.connects, 2, "the connection was cut and re-established");

    let engine_report = engine.wait();
    assert!(engine_report.errors.is_empty(), "{:?}", engine_report.errors);
    assert_eq!(fault.operator_state("sel_cheap").unwrap().fired(), 1);

    // Byte-identical recovery: exact expected sequence through the chain
    // (projection to field 0, selections ≤ 9 000 and ≤ 2 700).
    let expected: Vec<i64> =
        tuples.iter().map(|(_, t)| t.field(0).as_int().unwrap()).filter(|&v| v <= 2_700).collect();
    assert!(expected.len() > 100);
    let received: Vec<i64> = subscriber
        .join()
        .unwrap()
        .unwrap()
        .iter()
        .filter_map(|m| m.as_data().map(|e| e.tuple.field(0).as_int().unwrap()))
        .collect();
    assert_eq!(received, expected, "results byte-identical despite panic + cut connection");

    // Zero drops end to end.
    let q = ingest.queue("bursty").unwrap();
    assert_eq!(q.metrics().dropped(), 0);
    assert_eq!(ingest.stats().tuples.load(Ordering::Relaxed), COUNT);

    let journal = obs.journal_snapshot();
    for kind in ["operator-panic", "operator-restart", "net-disconnect", "net-reconnect"] {
        assert!(
            journal.iter().any(|r| r.event.kind() == kind),
            "journal missing {kind}; kinds seen: {:?}",
            journal.iter().map(|r| r.event.kind()).collect::<Vec<_>>()
        );
    }
    let prom = hmts::obs::export::prometheus_text(&obs.metrics_snapshot());
    assert!(prom.contains("supervisor_restarts_total 1"), "{prom}");
    assert!(prom.contains("net_resumes_total"), "{prom}");
}

/// Faults injectable into a client-side socket writer.
#[derive(Clone, Debug)]
enum WriteFault {
    /// On the `at_write`-th write call (1-based), write only half the
    /// buffer, then fail that and every later write with `BrokenPipe` —
    /// models a connection yanked mid-frame.
    CutMidWrite { at_write: u64 },
    /// Split every write into single-byte writes — exercises frame
    /// reassembly from arbitrarily fragmented TCP segments.
    Shred,
}

/// A `Write` adapter that applies a [`WriteFault`] to an inner writer.
#[derive(Debug)]
struct FaultyWriter<W: Write> {
    inner: W,
    fault: WriteFault,
    writes: u64,
    dead: bool,
}

impl<W: Write> FaultyWriter<W> {
    fn new(inner: W, fault: WriteFault) -> FaultyWriter<W> {
        FaultyWriter { inner, fault, writes: 0, dead: false }
    }

    fn cut() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "chaos: connection cut")
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::cut());
        }
        self.writes += 1;
        match self.fault {
            WriteFault::CutMidWrite { at_write } if self.writes >= at_write => {
                self.dead = true;
                let half = buf.len() / 2;
                if half > 0 {
                    self.inner.write_all(&buf[..half])?;
                    let _ = self.inner.flush();
                }
                Err(Self::cut())
            }
            WriteFault::CutMidWrite { .. } => self.inner.write(buf),
            WriteFault::Shred => {
                for b in buf {
                    self.inner.write_all(std::slice::from_ref(b))?;
                }
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(Self::cut());
        }
        self.inner.flush()
    }
}

#[test]
fn cut_mid_write_fails_permanently() {
    let mut w = FaultyWriter::new(Vec::new(), WriteFault::CutMidWrite { at_write: 2 });
    w.write_all(b"abcd").unwrap();
    let err = w.write_all(b"efgh").unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    assert!(w.dead);
    assert!(w.write_all(b"x").is_err());
    // First write intact, second truncated to half.
    assert_eq!(w.inner, b"abcdef".to_vec());
}

#[test]
fn shred_preserves_bytes() {
    let mut w = FaultyWriter::new(Vec::new(), WriteFault::Shred);
    w.write_all(b"hello world").unwrap();
    assert_eq!(w.inner, b"hello world".to_vec());
}
