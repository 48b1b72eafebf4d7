//! `served_loopback`: the chain fed and drained over 127.0.0.1 —
//! sender → `IngestServer` (bounded queue, `Block`) → `RemoteSource` →
//! two-VO HMTS → `EgressSink` → one `SubscriberClient`. The only workload
//! on which the wire codec, ingest backpressure and egress run.

use std::io::BufWriter;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmts::prelude::*;
use hmts_net::wire::{hello, Frame, FrameReader, FrameWriter};
use hmts_net::{
    EgressServer, IngestConfig, IngestServer, SlowConsumerPolicy, StreamSpec, SubscriberClient,
};

use super::check::{Observed, ResultCheck};
use super::clock::LedgerClock;
use super::spans::SpanRecorder;
use super::workloads::{
    boxed_op, boxed_source, chain_graph, partition_names, trace_data, two_vo, verdict, NetCounts,
    PassResult, PassSpec,
};

/// Tuples per ping/pong barrier of the closed loop.
pub const WINDOW: usize = 1024;
/// Capacity of the ingest queue; a full queue stalls the connection thread,
/// which is what turns into TCP backpressure.
pub const INGEST_CAPACITY: usize = 4096;

const STREAM: &str = "in";

/// Sends `frames` on `socket`: closed loop (a barrier every [`WINDOW`]
/// tuples) when `due_ns` is `None`, else open loop on that schedule,
/// flushing whenever it is ahead of it. Ends with a barrier and `Eos`.
/// Returns the barrier round-trip times and how late the sender ran at
/// worst against the schedule.
fn send(
    socket: TcpStream,
    frames: &[Frame],
    due_ns: Option<&[u64]>,
    clock: &LedgerClock,
) -> std::io::Result<(Vec<u64>, u64)> {
    let mut pongs = FrameReader::new(socket.try_clone()?);
    let mut writer = FrameWriter::new(BufWriter::with_capacity(1 << 16, socket));
    let mut rtt_ns = Vec::with_capacity(frames.len() / WINDOW + 1);
    let mut lag_max_ns = 0;
    let mut nonce = 0;
    let mut barrier = |writer: &mut FrameWriter<BufWriter<TcpStream>>| -> std::io::Result<()> {
        nonce += 1;
        let sent = Instant::now();
        writer.write_frame(&Frame::Ping { nonce })?;
        writer.flush()?;
        loop {
            match pongs.read_frame() {
                Ok(Some(Frame::Pong { nonce: n })) if n == nonce => break,
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => {
                    return Err(std::io::Error::other("ingest closed before the barrier's pong"))
                }
            }
        }
        rtt_ns.push(sent.elapsed().as_nanos() as u64);
        Ok(())
    };
    writer.write_frame(&hello(STREAM))?;
    for (i, frame) in frames.iter().enumerate() {
        match due_ns {
            Some(due) => {
                if clock.now_ns() < due[i] {
                    writer.flush()?;
                    while clock.now_ns() < due[i] {
                        std::thread::yield_now();
                    }
                }
                lag_max_ns = lag_max_ns.max(clock.now_ns().saturating_sub(due[i]));
            }
            None if i > 0 && i % WINDOW == 0 => barrier(&mut writer)?,
            None => {}
        }
        writer.write_frame(frame)?;
    }
    barrier(&mut writer)?;
    writer.write_frame(&Frame::Eos)?;
    writer.flush()?;
    writer.get_mut().get_ref().shutdown(std::net::Shutdown::Write)?;
    Ok((rtt_ns, lag_max_ns))
}

pub fn run_pass(spec: PassSpec, host_ns: Vec<f64>) -> PassResult {
    let setup = Instant::now();
    let clock = Arc::new(LedgerClock::new());
    let (inputs, expected) = spec.workload.generate(spec.seed, spec.tuples, spec.load);
    let frames: Vec<Frame> = inputs
        .items()
        .into_iter()
        .map(|(ts, tuple)| Frame::Data { ts, tuple, trace: TraceTag::NONE })
        .collect();
    let rec = spec.traced.then(|| SpanRecorder::new(clock.clone(), spec.tuples));
    let obs = if spec.traced { Obs::enabled() } else { Obs::disabled() };

    let ingest = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new(STREAM)],
        IngestConfig {
            queue_capacity: Some(INGEST_CAPACITY),
            obs: obs.clone(),
            ..IngestConfig::default()
        },
    )
    .expect("bind ingest on loopback");
    let egress = EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, obs.clone())
        .expect("bind egress on loopback");
    let mut subscriber =
        SubscriberClient::connect(egress.local_addr(), "results").expect("subscribe to egress");
    assert!(egress.wait_for_subscribers(1, Duration::from_secs(5)), "subscriber admitted");
    let mut check = ResultCheck::new(&expected, clock.clone());
    let subscriber = std::thread::spawn(move || -> Option<Observed> {
        loop {
            match subscriber.next_message() {
                Ok(Some(Message::Data(e))) => check.observe(&e.tuple),
                Ok(Some(Message::Punct(_))) => {}
                Ok(None) => return Some(check.finish()),
                Err(_) => return None,
            }
        }
    });

    let source = boxed_source(ingest.source(STREAM).expect("stream registered"), rec.as_ref());
    let sink = boxed_op(egress.sink("sink"), rec.as_ref());
    let (graph, selections, sink) = chain_graph(source, sink, rec.as_ref());
    let plan = ExecutionPlan::hmts(two_vo(&selections, sink), StrategyKind::Fifo, 1);
    let partitions = partition_names(&graph, &plan);
    // Remote elements arrive paced by the network, so the engine never
    // paces them itself; the open loop is the sender's.
    let cfg = EngineConfig {
        pace_sources: false,
        clock: Some(clock.clone()),
        obs: obs.clone(),
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(graph, plan, cfg).expect("graph and plan are valid");
    let socket = TcpStream::connect(ingest.local_addr()).expect("connect to ingest");
    socket.set_nodelay(true).expect("set TCP_NODELAY");
    let setup_s = setup.elapsed().as_secs_f64();

    clock.arm();
    let timed = Instant::now();
    engine.start().expect("a fresh engine starts");
    let sent = send(socket, &frames, inputs.due_ns.as_deref(), &clock);
    if sent.is_err() {
        // The connection died mid-stream; end the stream so `wait` returns.
        if let Some(q) = ingest.queue(STREAM) {
            q.close();
        }
    }
    let report = engine.wait();
    let observed = subscriber.join().ok().flatten();
    let wall_s = timed.elapsed().as_secs_f64();

    let stats = ingest.stats();
    let dropped = ingest.queue(STREAM).map_or(0, |q| q.metrics().dropped());
    let verdict = verdict(observed, &expected);
    let failures = verdict.failures
        + dropped
        + stats.decode_errors.load(Ordering::Relaxed)
        + u64::from(sent.is_err())
        + report.errors.len() as u64
        + report.worker_panics.len() as u64;
    let (rtt_ns, source_lag_max_ns) = sent.unwrap_or_default();
    let net = NetCounts {
        ingest_tuples: stats.tuples.load(Ordering::Relaxed),
        ingest_bytes: stats.bytes.load(Ordering::Relaxed),
        ingest_stall_ns: stats.backpressure_stall_ns.load(Ordering::Relaxed),
        egress_tuples: egress.tuples_sent(),
        rtt_ns,
    };
    PassResult {
        spec,
        host_ns,
        setup_s,
        wall_s,
        expected_results: expected.count,
        observed_results: verdict.observed_results,
        failures,
        latencies: verdict.latencies,
        // The ingest queue is the server's, not the engine's, so the
        // report does not count it; every ingested tuple crossed it once.
        transfers: report.total_enqueued + net.ingest_tuples,
        // The sender is the source here and spins to its own schedule.
        source_lag_max_ns,
        net,
        trace: rec.map(|recorder| trace_data(recorder, partitions, &obs)),
    }
}
