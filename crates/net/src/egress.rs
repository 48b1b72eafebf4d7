//! The egress side: a sink operator that serializes query results over
//! framed TCP to any number of subscribers.
//!
//! An [`EgressServer`] accepts subscriber connections (each handshakes
//! with a [`Frame::Hello`]); an [`EgressSink`] placed at the end of a
//! query graph encodes every result element **once** and fans the bytes
//! out to all current subscribers, ending with an `Eos` frame when the
//! query flushes. Under an executor that says when it gives control back
//! ([`Operator::end_slice`]) the frames of one time slice go out in one
//! `write` per subscriber — or sooner, at a punctuation or once
//! `WRITE_CHUNK` (32 KiB) is pending; until the first such call every
//! frame is written as it is produced. A result's `NetSend` hop and its
//! end-to-end latency are taken when its bytes are written, not when they
//! are encoded. What happens when a subscriber cannot keep up is the
//! [`SlowConsumerPolicy`]:
//!
//! * [`Block`](SlowConsumerPolicy::Block) — `write` blocks until the
//!   subscriber drains its socket, propagating backpressure *into the
//!   engine* (the sink operator stalls, its input queue fills, and so on
//!   upstream). No subscriber ever misses a result.
//! * [`Disconnect`](SlowConsumerPolicy::Disconnect) — writes carry a
//!   timeout; a subscriber that stalls longer is dropped and counted in
//!   `net_egress_slow_disconnects_total`, and the query keeps its pace.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use hmts::obs::{HopKind, Obs, SchedEvent, Tracer, NO_PARTITION};
use hmts::operators::traits::{Operator, Output};
use hmts::streams::element::Element;
use hmts::streams::error::Result as StreamResult;
use hmts::streams::time::Timestamp;

use crate::accept::Acceptor;
use crate::wire::{encode_data, encode_frame, Frame, FrameReader};

/// What to do with a subscriber whose socket stays full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowConsumerPolicy {
    /// Block the sink until the subscriber drains — lossless, propagates
    /// backpressure into the engine.
    Block,
    /// Drop subscribers that stall a single write longer than `timeout`.
    Disconnect {
        /// Longest tolerated single-write stall.
        timeout: Duration,
    },
}

struct Subscriber {
    socket: TcpStream,
    peer: SocketAddr,
}

#[derive(Default)]
struct EgressState {
    subscribers: Mutex<Vec<Subscriber>>,
    /// Notified whenever a subscriber is admitted.
    admitted: Condvar,
    tuples: AtomicU64,
    bytes: AtomicU64,
    /// Buffers handed to the subscribers (one `write` per subscriber each).
    writes: AtomicU64,
    slow_disconnects: AtomicU64,
}

/// Accepts result subscribers for an [`EgressSink`] to write to.
pub struct EgressServer {
    policy: SlowConsumerPolicy,
    state: Arc<EgressState>,
    acceptor: Acceptor,
    obs: Obs,
}

impl EgressServer {
    /// Binds the server and starts accepting subscribers (port 0 for an
    /// ephemeral port).
    pub fn bind(
        addr: impl ToSocketAddrs,
        policy: SlowConsumerPolicy,
        obs: Obs,
    ) -> io::Result<EgressServer> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(EgressState::default());
        let shared = Arc::clone(&state);
        let gauge = obs.gauge("net_egress_subscribers");
        // Each `Hello` is read on a thread of its own, so a client that
        // connects and says nothing holds up no other subscriber.
        let acceptor = Acceptor::spawn(listener, "net-egress-accept", move |socket, peer| {
            let state = Arc::clone(&shared);
            let gauge = gauge.clone();
            let _ = std::thread::Builder::new().name("net-egress-hello".into()).spawn(move || {
                if admit(&socket, policy).is_ok() {
                    let mut subscribers = state.subscribers.lock();
                    subscribers.push(Subscriber { socket, peer });
                    gauge.set(subscribers.len() as i64);
                    state.admitted.notify_all();
                }
            });
        })?;
        Ok(EgressServer { policy, state, acceptor, obs })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// Number of currently connected subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.state.subscribers.lock().len()
    }

    /// Blocks until at least `n` subscribers are connected or `timeout`
    /// elapses; returns whether the target was reached. Useful before
    /// starting a query whose first results must not race the subscribers.
    pub fn wait_for_subscribers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut subscribers = self.state.subscribers.lock();
        while subscribers.len() < n {
            if self.state.admitted.wait_until(&mut subscribers, deadline).timed_out() {
                return subscribers.len() >= n;
            }
        }
        true
    }

    /// Total tuples fanned out so far.
    pub fn tuples_sent(&self) -> u64 {
        self.state.tuples.load(Ordering::Relaxed)
    }

    /// Buffers written out so far (one `write` per subscriber each), so
    /// `tuples_sent() / writes_sent()` is the tuples per write.
    pub fn writes_sent(&self) -> u64 {
        self.state.writes.load(Ordering::Relaxed)
    }

    /// Subscribers dropped by the `Disconnect` policy.
    pub fn slow_disconnects(&self) -> u64 {
        self.state.slow_disconnects.load(Ordering::Relaxed)
    }

    /// Creates the sink operator that writes to this server's subscribers.
    pub fn sink(&self, name: impl Into<String>) -> EgressSink {
        let name = name.into();
        EgressSink {
            site: Arc::from(name.as_str()),
            tracer: self.obs.tracer(),
            e2e_latency: self.obs.maybe_histogram(&format!("egress.{name}.e2e_latency_ns")),
            name,
            state: Arc::clone(&self.state),
            policy: self.policy,
            pending: Vec::new(),
            pending_traces: Vec::new(),
            pending_ts: Vec::new(),
            coalesce: false,
            tuples: self.obs.counter("net_egress_tuples"),
            bytes: self.obs.counter("net_egress_bytes"),
            writes: self.obs.counter("net_egress_writes"),
            slow: self.obs.counter("net_egress_slow_disconnects"),
            obs: self.obs.clone(),
        }
    }

    /// Stops accepting new subscribers and joins the accept thread (also
    /// done on drop). Connected subscribers are kept; the sink keeps
    /// writing to them.
    pub fn shutdown(&self) {
        self.acceptor.stop();
    }
}

/// Reads the subscriber's `Hello` and applies socket options for `policy`.
fn admit(socket: &TcpStream, policy: SlowConsumerPolicy) -> io::Result<()> {
    socket.set_nodelay(true)?;
    // A client that sends nothing gives up its reader thread after 2 s.
    socket.set_read_timeout(Some(Duration::from_secs(2)))?;
    // The reader reads ahead and is dropped with what it buffered; a
    // subscriber sends nothing after its `Hello`, so nothing is lost.
    let mut reader = FrameReader::new(socket.try_clone()?);
    match reader.read_frame() {
        Ok(Some(Frame::Hello { .. })) => {}
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "expected hello")),
    }
    socket.set_read_timeout(None)?;
    match policy {
        SlowConsumerPolicy::Block => socket.set_write_timeout(None)?,
        SlowConsumerPolicy::Disconnect { timeout } => socket.set_write_timeout(Some(timeout))?,
    }
    Ok(())
}

/// A sink [`Operator`] that serializes each result element to all current
/// subscribers of its [`EgressServer`]. Emits nothing downstream.
pub struct EgressSink {
    name: String,
    site: Arc<str>,
    tracer: Option<Arc<Tracer>>,
    /// Source-admission → egress latency in nanoseconds (SLO histogram):
    /// how long after its stream timestamp an element left the engine.
    e2e_latency: Option<hmts::obs::Histogram>,
    state: Arc<EgressState>,
    policy: SlowConsumerPolicy,
    /// Encoded frames not yet written.
    pending: Vec<u8>,
    /// The trace ids of the sampled data frames in `pending` (only while a
    /// tracer is attached), whose `NetSend` hops are recorded at the write.
    pending_traces: Vec<u64>,
    /// The stream timestamps of the data frames in `pending` (only while
    /// `e2e_latency` is attached), sampled at the write.
    pending_ts: Vec<Timestamp>,
    /// Whether data frames may wait in `pending` for the end of the slice:
    /// set by the first [`Operator::end_slice`], because only a host that
    /// makes that call will come back for them.
    coalesce: bool,
    tuples: hmts::obs::Counter,
    bytes: hmts::obs::Counter,
    writes: hmts::obs::Counter,
    slow: hmts::obs::Counter,
    obs: Obs,
}

/// Most bytes a sink holds back before it writes without waiting for the
/// end of the slice (a join can answer one input with thousands of results).
const WRITE_CHUNK: usize = 32 * 1024;

impl EgressSink {
    /// Encodes a punctuation frame behind the frames already pending and
    /// writes them all at once.
    fn broadcast(&mut self, frame: &Frame) {
        encode_frame(frame, &mut self.pending);
        self.write_pending();
    }

    /// Encodes `element`'s data frame once, behind the frames already
    /// pending, and notes what its hop and latency need at the write; the
    /// tuple counters are the caller's. The frame waits there for the end
    /// of the slice if one will be announced; under a host that announces
    /// nothing, or with a full chunk, everything pending is written at once.
    fn send(&mut self, element: &Element) {
        encode_data(element.ts, &element.tuple, element.trace, &mut self.pending);
        if element.trace.is_sampled() && self.tracer.is_some() {
            self.pending_traces.push(element.trace.id());
        }
        if self.e2e_latency.is_some() {
            self.pending_ts.push(element.ts);
        }
        if !self.coalesce || self.pending.len() >= WRITE_CHUNK {
            self.write_pending();
        }
    }

    /// Counts `n` tuples sent.
    fn count(&self, n: u64) {
        self.state.tuples.fetch_add(n, Ordering::Relaxed);
        self.tuples.add(n);
    }

    /// Writes the pending bytes to every subscriber, dropping those that
    /// error (and, under `Disconnect`, those that time out); then records
    /// the departures of the data frames among them.
    fn write_pending(&mut self) {
        let mut subs = self.state.subscribers.lock();
        let mut fanout = 0u64;
        subs.retain_mut(|sub| match sub.socket.write_all(&self.pending) {
            Ok(()) => {
                fanout += 1;
                true
            }
            Err(e) => {
                let reason;
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
                    && matches!(self.policy, SlowConsumerPolicy::Disconnect { .. })
                {
                    self.state.slow_disconnects.fetch_add(1, Ordering::Relaxed);
                    self.slow.inc();
                    reason = "slow consumer".to_string();
                    eprintln!("net-egress: dropping slow subscriber {}", sub.peer);
                } else {
                    reason = e.to_string();
                    eprintln!("net-egress: dropping subscriber {}: {e}", sub.peer);
                }
                self.obs.counter("net_egress_disconnects").inc();
                self.obs.emit_with(|| SchedEvent::NetDisconnect {
                    peer: sub.peer.to_string(),
                    reason: reason.clone(),
                });
                false
            }
        });
        drop(subs);
        let sent = fanout * self.pending.len() as u64;
        self.state.bytes.fetch_add(sent, Ordering::Relaxed);
        self.bytes.add(sent);
        self.state.writes.fetch_add(1, Ordering::Relaxed);
        self.writes.inc();
        self.pending.clear();
        if let Some(t) = &self.tracer {
            for id in self.pending_traces.drain(..) {
                t.record(id, HopKind::NetSend, &self.site, NO_PARTITION);
            }
        }
        if let Some(h) = &self.e2e_latency {
            // Stream timestamps are µs offsets on the same clock the obs
            // epoch starts; the difference is admission→egress latency
            // (clamped at 0 against timestamp-domain skew).
            let now_ns = self.obs.elapsed().as_nanos();
            for ts in self.pending_ts.drain(..) {
                let ts_ns = u128::from(ts.as_micros()) * 1_000;
                h.record(now_ns.saturating_sub(ts_ns).min(u128::from(u64::MAX)) as u64);
            }
        }
    }
}

impl Operator for EgressSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: usize, element: &Element, _out: &mut Output) -> StreamResult<()> {
        self.send(element);
        self.count(1);
        Ok(())
    }

    /// The run's frames are encoded straight from its elements, and the
    /// tuple counters move once. Nothing here fails, so the run is simply
    /// emptied at the end.
    fn process_batch(
        &mut self,
        _port: usize,
        run: &mut Vec<Element>,
        _out: &mut Output,
    ) -> StreamResult<()> {
        for element in run.iter() {
            self.send(element);
        }
        self.count(run.len() as u64);
        run.clear();
        Ok(())
    }

    fn on_watermark(
        &mut self,
        _port: usize,
        watermark: Timestamp,
        _out: &mut Output,
    ) -> StreamResult<()> {
        self.broadcast(&Frame::Watermark { ts: watermark });
        Ok(())
    }

    fn flush(&mut self, _out: &mut Output) -> StreamResult<()> {
        self.broadcast(&Frame::Eos);
        for sub in self.state.subscribers.lock().iter_mut() {
            let _ = sub.socket.flush();
        }
        Ok(())
    }

    fn end_slice(&mut self) {
        self.coalesce = true;
        if !self.pending.is_empty() {
            self.write_pending();
        }
    }

    fn cost_hint(&self) -> Option<Duration> {
        // Loopback serialization cost is far below the workloads' operator
        // costs; report a token value so planners treat it as a cheap sink.
        Some(Duration::from_nanos(500))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SubscriberClient;
    use hmts::streams::element::Message;
    use hmts::streams::tuple::Tuple;

    #[test]
    fn sink_fans_out_to_subscribers_in_order_and_eos() {
        let server =
            EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled()).unwrap();
        let mut a = SubscriberClient::connect(server.local_addr(), "results").unwrap();
        let mut b = SubscriberClient::connect(server.local_addr(), "results").unwrap();
        assert!(server.wait_for_subscribers(2, Duration::from_secs(5)));

        let mut sink = server.sink("egress");
        let mut out = Output::new();
        for i in 0..5i64 {
            let e = Element::new(Tuple::single(i), Timestamp::from_micros(i as u64));
            sink.process(0, &e, &mut out).unwrap();
        }
        sink.flush(&mut out).unwrap();

        for client in [&mut a, &mut b] {
            let mut got = Vec::new();
            while let Some(m) = client.next_message().unwrap() {
                if let Message::Data(e) = m {
                    got.push(e.tuple.field(0).as_int().unwrap());
                }
            }
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }
        assert_eq!(server.tuples_sent(), 5);
    }

    #[test]
    fn a_batch_goes_out_in_one_piece_once_its_end_is_announced() {
        use crate::wire::{hello, FrameWriter};
        let server =
            EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled()).unwrap();
        let socket = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = FrameWriter::new(socket.try_clone().unwrap());
        writer.write_frame(&hello("results")).unwrap();
        assert!(server.wait_for_subscribers(1, Duration::from_secs(5)));
        socket.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut reader = FrameReader::new(socket);
        let mut next = move || match reader.read_frame() {
            Ok(Some(Frame::Data { tuple, .. })) => Some(tuple.field(0).as_int().unwrap()),
            Ok(Some(Frame::Watermark { .. })) => Some(-1),
            Ok(other) => panic!("unexpected {other:?}"),
            Err(_) => None, // nothing within the timeout
        };

        let mut sink = server.sink("egress");
        let mut out = Output::new();
        let el = |i: i64| Element::new(Tuple::single(i), Timestamp::from_micros(i as u64));
        // No end of a slice was ever announced: written as produced.
        sink.process(0, &el(1), &mut out).unwrap();
        assert_eq!(next(), Some(1));
        // Announced once, the host will announce the next too: held back.
        sink.end_slice();
        sink.process(0, &el(2), &mut out).unwrap();
        sink.process(0, &el(3), &mut out).unwrap();
        assert_eq!(next(), None);
        sink.end_slice();
        assert_eq!((next(), next(), next()), (Some(2), Some(3), None));
        // A punctuation does not wait, and takes what is pending with it.
        sink.process(0, &el(4), &mut out).unwrap();
        sink.on_watermark(0, Timestamp::from_micros(4), &mut out).unwrap();
        assert_eq!((next(), next()), (Some(4), Some(-1)));
        // Neither does a full chunk.
        let per_frame = {
            let mut buf = Vec::new();
            encode_frame(
                &Frame::Data {
                    ts: Timestamp::ZERO,
                    tuple: Tuple::single(5),
                    trace: Default::default(),
                },
                &mut buf,
            );
            buf.len()
        };
        let fills = WRITE_CHUNK.div_ceil(per_frame) as i64;
        for i in 0..fills {
            sink.process(0, &el(i), &mut out).unwrap();
        }
        for i in 0..fills {
            assert_eq!(next(), Some(i));
        }
        assert_eq!(server.tuples_sent(), 4 + fills as u64);
    }

    #[test]
    fn a_departure_is_recorded_when_its_bytes_are_written() {
        use hmts::obs::{ObsConfig, TraceConfig};
        let obs = Obs::with_config(ObsConfig {
            trace: Some(TraceConfig { sample_every: 1, ..TraceConfig::default() }),
            ..ObsConfig::default()
        });
        let server =
            EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, obs.clone()).unwrap();
        let mut sink = server.sink("egress");
        let histogram = obs.histogram("egress.egress.e2e_latency_ns");
        let sends = || {
            let mut ids: Vec<u64> = obs
                .trace_snapshot()
                .into_iter()
                .filter(|span| span.kind == HopKind::NetSend)
                .map(|span| span.trace_id)
                .collect();
            ids.sort_unstable();
            ids
        };
        let mut out = Output::new();
        // The host has announced a slice's end once, so the run is held.
        sink.end_slice();
        let mut run: Vec<Element> = (1..=32u64)
            .map(|i| {
                Element::new(Tuple::single(i as i64), Timestamp::from_micros(i))
                    .with_trace(hmts::streams::element::TraceTag::new(i))
            })
            .collect();
        sink.process_batch(0, &mut run, &mut out).unwrap();
        assert_eq!((sends(), histogram.count()), (vec![], 0), "nothing has left yet");
        sink.end_slice();
        assert_eq!(sends(), (1..=32).collect::<Vec<u64>>(), "one send per element");
        assert_eq!(histogram.count(), 32, "one latency sample per element");
        assert_eq!(server.writes_sent(), 1);
    }

    #[test]
    fn a_slice_goes_out_in_one_write() {
        use crate::wire::{hello, FrameWriter};
        use hmts::engine::executor::{
            Budget, DomainExecutor, ExecConfig, InputQueue, RunOutcome, SlotInit, SlotState,
        };
        use hmts::graph::graph::NodeId;
        use hmts::streams::queue::StreamQueue;
        use hmts::StrategyKind;

        let server =
            EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled()).unwrap();
        let socket = TcpStream::connect(server.local_addr()).unwrap();
        FrameWriter::new(socket.try_clone().unwrap()).write_frame(&hello("results")).unwrap();
        assert!(server.wait_for_subscribers(1, Duration::from_secs(5)));
        socket.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let mut reader = FrameReader::new(socket);
        let mut next = move || match reader.read_frame() {
            Ok(Some(Frame::Data { tuple, .. })) => Some(tuple.field(0).as_int().unwrap()),
            Ok(other) => panic!("unexpected {other:?}"),
            Err(_) => None, // nothing within the timeout
        };

        let q = StreamQueue::unbounded("in");
        let sink = SlotState::new(NodeId(0), Box::new(server.sink("egress")));
        let mut exec = DomainExecutor::new(
            "d",
            vec![SlotInit::new(sink, vec![])],
            vec![InputQueue { queue: Arc::clone(&q), node: NodeId(0), port: 0, exhausted: false }],
            StrategyKind::Fifo.build(None),
            ExecConfig { batch: 32, ..ExecConfig::default() },
        );
        let el = |i: i64| Element::new(Tuple::single(i), Timestamp::from_micros(i as u64));
        // An idle slice still ends with the call, which the sink has then seen.
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert_eq!(server.writes_sent(), 0);
        // Ten popped batches, one slice, one write — and all of it arrives
        // with nothing pushed afterwards.
        for i in 0..320 {
            q.push(Message::Data(el(i))).unwrap();
        }
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert_eq!((server.tuples_sent(), server.writes_sent()), (320, 1));
        for i in 0..320 {
            assert_eq!(next(), Some(i));
        }
        // A lone element into the idle domain is on the socket when the
        // slice returns, as it always was.
        q.push(Message::Data(el(320))).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert_eq!(server.writes_sent(), 2);
        assert_eq!((next(), next()), (Some(320), None));
    }

    /// What a raw subscriber of a fresh server receives while `drive` runs
    /// a sink: the whole byte stream, up to the server's close, and what
    /// `drive` returns — it is handed a probe of how many bytes have arrived
    /// (once nothing more has for 20 ms).
    fn bytes_received<T>(
        drive: impl FnOnce(&mut EgressSink, &mut dyn FnMut() -> usize) -> T,
    ) -> (Vec<u8>, T) {
        use crate::wire::{hello, FrameWriter};
        use std::io::Read;
        let server =
            EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled()).unwrap();
        let mut socket = TcpStream::connect(server.local_addr()).unwrap();
        FrameWriter::new(socket.try_clone().unwrap()).write_frame(&hello("results")).unwrap();
        assert!(server.wait_for_subscribers(1, Duration::from_secs(5)));
        let received = Arc::new(Mutex::new(Vec::new()));
        let reader = {
            let received = Arc::clone(&received);
            std::thread::spawn(move || {
                let mut chunk = [0u8; 4096];
                while let Ok(n @ 1..) = socket.read(&mut chunk) {
                    received.lock().extend_from_slice(&chunk[..n]);
                }
            })
        };
        let mut arrived = || {
            let mut seen = received.lock().len();
            loop {
                std::thread::sleep(Duration::from_millis(20));
                match received.lock().len() {
                    now if now == seen => return now,
                    now => seen = now,
                }
            }
        };
        let mut sink = server.sink("egress");
        let driven = drive(&mut sink, &mut arrived);
        drop(sink);
        drop(server); // closes the subscriber's socket
        reader.join().unwrap();
        let bytes = std::mem::take(&mut *received.lock());
        (bytes, driven)
    }

    #[test]
    fn a_run_goes_out_as_the_same_bytes_as_its_elements_one_by_one() {
        let el = |i: i64| {
            let e = Element::new(Tuple::pair(i, "v"), Timestamp::from_micros(i as u64));
            e.with_trace(hmts::streams::element::TraceTag::new(if i % 97 == 5 { 7 } else { 0 }))
        };
        // No end of a slice seen yet (written as produced), a run crossing
        // `WRITE_CHUNK` twice with sampled tags in it, a punctuation, a
        // short run, the end of the stream.
        let runs: Vec<Vec<Element>> = vec![
            (0..6).map(el).collect(),
            (6..5000).map(el).collect(),
            (5000..5003).map(el).collect(),
        ];
        assert!(runs[1].len() * 20 > 2 * WRITE_CHUNK);
        // Returns how much had arrived after each run, before its end was
        // announced: what was written as produced, and the full chunks.
        let script = |batched: bool| {
            let runs = runs.clone();
            move |sink: &mut EgressSink, arrived: &mut dyn FnMut() -> usize| {
                let mut out = Output::new();
                let mut before_end = Vec::new();
                for (i, mut run) in runs.into_iter().enumerate() {
                    if batched {
                        sink.process_batch(0, &mut run, &mut out).unwrap();
                        assert!(run.is_empty());
                    } else {
                        for e in &run {
                            sink.process(0, e, &mut out).unwrap();
                        }
                    }
                    before_end.push(arrived());
                    if i == 1 {
                        sink.on_watermark(0, Timestamp::from_micros(5000), &mut out).unwrap();
                    }
                    sink.end_slice();
                }
                sink.flush(&mut out).unwrap();
                before_end
            }
        };
        let (one_by_one, written_one_by_one) = bytes_received(script(false));
        let (batched, written_batched) = bytes_received(script(true));
        assert_eq!(batched.len(), one_by_one.len());
        assert!(batched == one_by_one, "the byte streams differ");
        assert_eq!(written_batched, written_one_by_one);
        // Before any end of a slice was announced, every frame went out.
        let per_frame = |i: i64| {
            let mut buf = Vec::new();
            let e = el(i);
            encode_data(e.ts, &e.tuple, e.trace, &mut buf);
            buf.len()
        };
        assert_eq!(written_batched[0], (0..6).map(per_frame).sum::<usize>());
        assert!(written_batched[1] - written_batched[0] >= 2 * WRITE_CHUNK);
        // And they are the frames of the elements, in order.
        let mut reader = FrameReader::new(&batched[..]);
        let mut data = 0;
        while let Some(frame) = reader.read_frame().unwrap() {
            if let Frame::Data { ts, trace, .. } = frame {
                assert_eq!(ts, Timestamp::from_micros(data));
                assert_eq!(trace.is_sampled(), data % 97 == 5);
                data += 1;
            }
        }
        assert_eq!(data, 5003);
    }

    #[test]
    fn disconnect_policy_drops_stalled_subscriber() {
        let server = EgressServer::bind(
            "127.0.0.1:0",
            SlowConsumerPolicy::Disconnect { timeout: Duration::from_millis(50) },
            Obs::disabled(),
        )
        .unwrap();
        // A subscriber that never reads: its receive window will fill.
        let lazy = SubscriberClient::connect(server.local_addr(), "results").unwrap();
        assert!(server.wait_for_subscribers(1, Duration::from_secs(5)));

        let mut sink = server.sink("egress");
        let mut out = Output::new();
        // A wide tuple fills socket buffers quickly.
        let wide = Tuple::new(vec![String::from_utf8(vec![b'x'; 4096]).unwrap(); 16]);
        for i in 0..2_000u64 {
            let e = Element::new(wide.clone(), Timestamp::from_micros(i));
            sink.process(0, &e, &mut out).unwrap();
            if server.subscriber_count() == 0 {
                break;
            }
        }
        assert_eq!(server.subscriber_count(), 0, "stalled subscriber was dropped");
        assert!(server.slow_disconnects() >= 1);
        drop(lazy);
    }
}
