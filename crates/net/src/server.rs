//! The TCP ingest server: framed client streams in, [`StreamQueue`]s out.
//!
//! Each accepted connection handshakes with a [`Frame::Hello`] naming one
//! of the server's registered streams, then delivers `Data`/`Watermark`
//! frames that are pushed into that stream's bounded queue. The queues use
//! [`BackpressurePolicy::Block`]: when a queue is full the connection
//! thread blocks inside the push, stops reading its socket, the kernel
//! receive buffer fills, and TCP flow control stalls the *sender* — the
//! bounded queue becomes end-to-end backpressure with **zero drops**,
//! instead of load shedding.
//!
//! `Ping` frames are answered with `Pong` on the same connection *after*
//! every preceding frame was pushed, so a pong doubles as a flush barrier:
//! clients measure round-trip time (which inflates under backpressure) and
//! know their data reached the engine's queues.
//!
//! Per-connection and aggregate activity is registered in the `hmts-obs`
//! registry (`net_*` metrics: connections, tuples, bytes, decode errors,
//! backpressure stall time).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use hmts::obs::{Gauge, HopKind, Obs, SchedEvent, NO_PARTITION};
use hmts::streams::element::{Element, Punctuation};
use hmts::streams::queue::{BackpressurePolicy, Batch, StreamQueue};

use crate::accept::Acceptor;
use crate::source::RemoteSource;
use crate::wire::{Frame, FrameReader, FrameWriter, NetError};

/// Declaration of one ingest stream the server accepts.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream name clients put in their `Hello`.
    pub name: String,
    /// Number of producer connections expected to feed this stream. The
    /// stream's queue is closed (end-of-stream) once this many connections
    /// have terminated, so downstream operators can flush deterministically.
    pub producers: usize,
}

impl StreamSpec {
    /// A stream fed by a single producer connection.
    pub fn new(name: impl Into<String>) -> StreamSpec {
        StreamSpec { name: name.into(), producers: 1 }
    }

    /// Sets the number of expected producer connections.
    pub fn with_producers(mut self, producers: usize) -> StreamSpec {
        self.producers = producers.max(1);
        self
    }
}

/// Ingest server configuration.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Bound of each per-stream queue (`None` = unbounded; bounded queues
    /// use [`BackpressurePolicy::Block`], which is the whole point).
    pub queue_capacity: Option<usize>,
    /// Observability registry for the `net_*` metrics.
    pub obs: Obs,
    /// Enables sequence-based resume: a connection that dies without an
    /// explicit `Eos` does **not** count as a finished producer right away.
    /// Instead the server waits [`reconnect_window`](Self::reconnect_window)
    /// for the client to come back, answers its [`Frame::Resume`] with the
    /// number of data elements already received, and the client retransmits
    /// only the lost suffix — no duplicates, no loss.
    pub resume: bool,
    /// Maximum silence tolerated on a connection before it is treated as
    /// dead (enforced via the socket read timeout). `None` waits forever.
    pub heartbeat_timeout: Option<Duration>,
    /// How long after an abrupt disconnect the server keeps the stream open
    /// waiting for the producer to reconnect (resume mode only).
    pub reconnect_window: Duration,
    /// Per-stream ingest offsets recovered from a checkpoint
    /// (`(stream name, elements durably checkpointed)`). Streams listed
    /// here start their `received` counter at the checkpointed value, so a
    /// client's [`Frame::Resume`] after a full process restart is answered
    /// with the checkpointed offset and the client replays exactly the
    /// suffix the restored engine has not yet seen.
    pub initial_offsets: Vec<(String, u64)>,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            queue_capacity: Some(4096),
            obs: Obs::disabled(),
            resume: false,
            heartbeat_timeout: None,
            reconnect_window: Duration::from_secs(5),
            initial_offsets: Vec::new(),
        }
    }
}

/// Aggregate lifetime counters of an [`IngestServer`] (always collected;
/// also mirrored into the obs registry when observability is enabled).
#[derive(Debug, Default)]
pub struct IngestStats {
    /// Currently open connections.
    pub connections_active: AtomicUsize,
    /// Connections accepted over the server's lifetime.
    pub connections_total: AtomicU64,
    /// Data elements pushed into stream queues.
    pub tuples: AtomicU64,
    /// Wire bytes consumed across all connections.
    pub bytes: AtomicU64,
    /// Connections terminated by a malformed frame.
    pub decode_errors: AtomicU64,
    /// Nanoseconds connection threads spent blocked on full queues
    /// (the time TCP backpressure was actively stalling senders).
    pub backpressure_stall_ns: AtomicU64,
    /// Connections rejected at handshake (unknown stream, bad hello).
    pub rejected: AtomicU64,
    /// Connections that ended without an explicit `Eos` (socket error,
    /// heartbeat timeout, or mid-frame cut).
    pub disconnects: AtomicU64,
    /// Successful resume handshakes after a disconnect.
    pub resumes: AtomicU64,
}

struct StreamSlot {
    name: String,
    queue: Arc<StreamQueue>,
    remaining_producers: AtomicUsize,
    tuples: hmts::obs::Counter,
    /// Data elements of this stream durably pushed into the queue — the
    /// sequence number a resuming client restarts from.
    received: AtomicU64,
    /// Bumped whenever a producer connection for this stream completes its
    /// handshake; lets the reconnect-window timer detect that the producer
    /// came back before giving up on it.
    generation: AtomicU64,
    /// Held by the connection thread for the whole frame loop in resume
    /// mode: a resuming connection must not be answered (or push) while
    /// the connection it replaces is still draining its socket buffer —
    /// otherwise the tail the old thread pushes after the `ResumeAck`
    /// would be duplicated by the retransmission.
    pusher: Mutex<()>,
}

/// Per-connection behavior knobs shared with connection threads.
struct ConnOptions {
    resume: bool,
    heartbeat_timeout: Option<Duration>,
    reconnect_window: Duration,
}

/// A multi-client TCP server feeding per-stream [`StreamQueue`]s.
pub struct IngestServer {
    streams: Arc<Vec<StreamSlot>>,
    stats: Arc<IngestStats>,
    acceptor: Acceptor,
}

impl IngestServer {
    /// Binds the server and starts accepting connections for the given
    /// streams. Use port 0 to bind an ephemeral port ([`local_addr`]
    /// reports the actual one).
    ///
    /// [`local_addr`]: IngestServer::local_addr
    pub fn bind(
        addr: impl ToSocketAddrs,
        streams: Vec<StreamSpec>,
        cfg: IngestConfig,
    ) -> io::Result<IngestServer> {
        let listener = TcpListener::bind(addr)?;
        let slots: Vec<StreamSlot> = streams
            .into_iter()
            .map(|s| {
                let queue = match cfg.queue_capacity {
                    Some(cap) => StreamQueue::bounded(
                        format!("ingest:{}", s.name),
                        cap,
                        BackpressurePolicy::Block,
                    ),
                    None => StreamQueue::unbounded(format!("ingest:{}", s.name)),
                };
                let recovered = cfg
                    .initial_offsets
                    .iter()
                    .find(|(n, _)| *n == s.name)
                    .map(|(_, off)| *off)
                    .unwrap_or(0);
                StreamSlot {
                    tuples: cfg.obs.counter(&format!("net_ingest_tuples_{}", s.name)),
                    name: s.name,
                    queue,
                    remaining_producers: AtomicUsize::new(s.producers),
                    received: AtomicU64::new(recovered),
                    generation: AtomicU64::new(0),
                    pusher: Mutex::new(()),
                }
            })
            .collect();
        let opts = Arc::new(ConnOptions {
            resume: cfg.resume,
            heartbeat_timeout: cfg.heartbeat_timeout,
            reconnect_window: cfg.reconnect_window,
        });
        let streams = Arc::new(slots);
        let stats = Arc::new(IngestStats::default());
        let obs = cfg.obs;
        // Arrival-rate SLO gauge: tuples/sec over the window since the last
        // metrics collection (sampler tick or admin scrape).
        if obs.is_enabled() {
            let stats = Arc::clone(&stats);
            let rate = obs.gauge("net_ingest_arrival_rate");
            let last = Mutex::new((std::time::Instant::now(), 0u64));
            obs.add_collector(move || {
                let now = std::time::Instant::now();
                let tuples = stats.tuples.load(Ordering::Relaxed);
                let mut prev = last.lock();
                let dt = now.duration_since(prev.0).as_secs_f64();
                if dt >= 1e-3 {
                    rate.set((((tuples - prev.1) as f64) / dt).round() as i64);
                    *prev = (now, tuples);
                }
            });
        }
        let admit = admitter(Arc::clone(&streams), Arc::clone(&stats), obs, opts);
        let acceptor = Acceptor::spawn(listener, "net-ingest-accept", admit)?;
        Ok(IngestServer { streams, stats, acceptor })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// The queue backing `stream`, if registered.
    pub fn queue(&self, stream: &str) -> Option<Arc<StreamQueue>> {
        self.streams.iter().find(|s| s.name == stream).map(|s| Arc::clone(&s.queue))
    }

    /// A [`RemoteSource`] draining `stream`'s queue, ready to be added to a
    /// query graph.
    pub fn source(&self, stream: &str) -> Option<RemoteSource> {
        self.queue(stream).map(|q| RemoteSource::new(stream, q))
    }

    /// Aggregate lifetime counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Stops accepting new connections and joins the accept thread (also
    /// done on drop). Existing connections keep draining until their
    /// clients finish.
    pub fn shutdown(&self) {
        self.acceptor.stop();
    }
}

/// One open connection in `connections_active` and the `net_connections`
/// gauge, for as long as the value lives: it moves into the connection's
/// thread, and a thread that fails to start drops it with its closure, as
/// one that panics does in unwinding.
struct Open {
    stats: Arc<IngestStats>,
    gauge: Gauge,
}

impl Open {
    fn new(stats: &Arc<IngestStats>, gauge: &Gauge) -> Open {
        stats.connections_active.fetch_add(1, Ordering::Relaxed);
        gauge.add(1);
        Open { stats: Arc::clone(stats), gauge: gauge.clone() }
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        self.stats.connections_active.fetch_sub(1, Ordering::Relaxed);
        self.gauge.add(-1);
    }
}

/// What the accept thread does with each connection: serve it on a thread
/// of its own.
fn admitter(
    streams: Arc<Vec<StreamSlot>>,
    stats: Arc<IngestStats>,
    obs: Obs,
    opts: Arc<ConnOptions>,
) -> impl FnMut(TcpStream, SocketAddr) + Send + 'static {
    let gauge = obs.gauge("net_connections");
    let total = obs.counter("net_connections_accepted");
    let mut conn_id: u64 = 0;
    move |socket, peer| {
        conn_id += 1;
        let id = conn_id;
        let open = Open::new(&stats, &gauge);
        let streams = Arc::clone(&streams);
        let obs = obs.clone();
        let opts = Arc::clone(&opts);
        let spawned =
            std::thread::Builder::new().name(format!("net-ingest-{id}")).spawn(move || {
                let stats = &open.stats;
                if let Err(NetError::Decode(d)) =
                    serve_connection(socket, id, &streams, stats, &obs, &opts)
                {
                    stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    obs.counter("net_decode_errors").inc();
                    eprintln!("net-ingest: {peer} dropped: {d}");
                }
            });
        match spawned {
            Ok(_) => {
                stats.connections_total.fetch_add(1, Ordering::Relaxed);
                total.inc();
            }
            Err(e) => eprintln!("net-ingest: {peer} not served: {e}"),
        }
    }
}

fn serve_connection(
    socket: TcpStream,
    id: u64,
    streams: &Arc<Vec<StreamSlot>>,
    stats: &IngestStats,
    obs: &Obs,
    opts: &Arc<ConnOptions>,
) -> Result<(), NetError> {
    socket.set_nodelay(true)?;
    let peer = socket.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".into());
    if let Some(t) = opts.heartbeat_timeout {
        socket.set_read_timeout(Some(t))?;
    }
    let mut writer = FrameWriter::new(socket.try_clone()?);
    let mut reader = FrameReader::new(socket);

    // The first frame must be a Hello naming a registered stream.
    let slot_idx = match reader.read_frame()? {
        Some(Frame::Hello { stream, .. }) => match streams.iter().position(|s| s.name == stream) {
            Some(i) => i,
            None => {
                stats.rejected.fetch_add(1, Ordering::Relaxed);
                eprintln!("net-ingest: rejected connection for unknown stream {stream:?}");
                return Ok(());
            }
        },
        Some(_) | None => {
            stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    };
    let slot = &streams[slot_idx];
    // Mark this producer generation: a pending reconnect-window timer sees
    // the bump and stands down instead of declaring the producer gone.
    slot.generation.fetch_add(1, Ordering::AcqRel);
    // In resume mode, wait until the connection we replace has fully
    // drained (it exits once it hits the cut in its byte stream); only
    // then is `received` final and a `ResumeAck` duplicate-free.
    let _pusher = opts.resume.then(|| slot.pusher.lock());

    let tracer = obs.tracer();
    let recv_site: Arc<str> = Arc::from(slot.queue.name());
    let conn_tuples = obs.counter(&format!("net_conn{id}_tuples"));
    let conn_bytes = obs.counter(&format!("net_conn{id}_bytes"));
    let tuples = obs.counter("net_ingest_tuples");
    let bytes_ctr = obs.counter("net_ingest_bytes");
    let stall_ctr = obs.counter("net_backpressure_stall_ns");
    let mut accounted: u64 = 0;
    let mut account = |reader: &FrameReader<TcpStream>| {
        let delta = reader.bytes_read() - accounted;
        if delta == 0 {
            return;
        }
        accounted = reader.bytes_read();
        stats.bytes.fetch_add(delta, Ordering::Relaxed);
        bytes_ctr.add(delta);
        conn_bytes.add(delta);
    };

    // Data frames decoded and not yet in the queue, as one run. They go in
    // together — one lock, one wake-up of the source, the run as the buffer
    // it is in — as soon as the next frame is not already in the read
    // buffer (waiting for the socket with decoded data in hand would delay
    // it for as long as the producer pauses), and before anything that is
    // ordered against them: a watermark (which goes in with them, behind
    // the run), a `Ping` (its `Pong` says they are in), a `Resume`, the end
    // of the connection. `false` means the queue closed under us (the
    // engine shut down).
    let mut decoded = Batch::default();
    let recv_hops = |run: &[Element]| {
        let Some(t) = &tracer else { return };
        for e in run {
            if e.trace.is_sampled() {
                t.record(e.trace.id(), HopKind::NetRecv, &recv_site, NO_PARTITION);
            }
        }
    };
    let hand_over = |decoded: &mut Batch| -> bool {
        if decoded.is_empty() {
            return true;
        }
        let n = decoded.run.len() as u64;
        let Ok(stall) = slot.queue.push_runs(decoded, || {}) else {
            return false;
        };
        if !stall.is_zero() {
            let ns = stall.as_nanos().min(u64::MAX as u128) as u64;
            stats.backpressure_stall_ns.fetch_add(ns, Ordering::Relaxed);
            stall_ctr.add(ns);
        }
        stats.tuples.fetch_add(n, Ordering::Relaxed);
        tuples.add(n);
        conn_tuples.add(n);
        slot.tuples.add(n);
        slot.received.fetch_add(n, Ordering::Release);
        true
    };

    // `clean` records whether the producer signalled completion explicitly
    // (an Eos frame, or the queue closing under us because the engine is
    // done) as opposed to the socket dying mid-stream.
    let mut clean = false;
    let result = loop {
        // The run: every whole data frame the last read brought, decoded
        // in one pass. What stops it — a control frame, or a frame the
        // read cut — goes through `read_frame` below.
        let taken = decoded.run.len();
        let run = reader.take_data(&mut decoded.run);
        recv_hops(&decoded.run[taken..]);
        if let Err(e) = run {
            break Err(e.into());
        }
        if !reader.frame_buffered() && !hand_over(&mut decoded) {
            clean = true;
            break Ok(());
        }
        let frame = match reader.read_frame() {
            Ok(Some(f)) => f,
            // EOF at a frame boundary without a preceding Eos: the producer
            // vanished (clean only once it said Eos, handled below).
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
        account(&reader);
        if let Frame::Watermark { ts } = frame {
            decoded.puncts.push((decoded.run.len(), Punctuation::Watermark(ts)));
        }
        if !matches!(frame, Frame::Data { .. }) && !hand_over(&mut decoded) {
            clean = true;
            break Ok(());
        }
        match frame {
            Frame::Data { ts, tuple, trace } => {
                decoded.run.push(Element::new(tuple, ts).with_trace(trace));
                recv_hops(&decoded.run[decoded.run.len() - 1..]);
            }
            Frame::Watermark { .. } => {}
            Frame::Ping { nonce } => {
                writer.write_frame(&Frame::Pong { nonce })?;
                writer.flush()?;
            }
            Frame::Resume { .. } => {
                // A reconnecting producer asks where to restart: answer with
                // the count of data elements already in the queue.
                let seq = slot.received.load(Ordering::Acquire);
                stats.resumes.fetch_add(1, Ordering::Relaxed);
                obs.counter("net_resumes").inc();
                obs.emit_with(|| SchedEvent::NetReconnect {
                    stream: slot.name.clone(),
                    resume_seq: seq,
                });
                writer.write_frame(&Frame::ResumeAck { seq })?;
                writer.flush()?;
            }
            Frame::Eos => {
                clean = true;
                break Ok(());
            }
            // A second Hello, a stray Pong/ResumeAck, or a client-sent
            // barrier (the engine injects its own) is harmless; ignore.
            Frame::Hello { .. }
            | Frame::Pong { .. }
            | Frame::ResumeAck { .. }
            | Frame::Barrier { .. } => {}
        }
    };
    account(&reader);
    // A connection that ended mid-buffer (truncated or malformed frame)
    // still delivered the whole frames before the cut.
    hand_over(&mut decoded);

    if !clean {
        // The socket died without an Eos. Journal it either way; in resume
        // mode, a heartbeat timeout is its own reason string.
        let reason = match &result {
            Ok(()) => "connection closed without eos".to_string(),
            Err(NetError::Io(e))
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                "heartbeat timeout".to_string()
            }
            Err(e) => e.to_string(),
        };
        stats.disconnects.fetch_add(1, Ordering::Relaxed);
        obs.counter("net_disconnects").inc();
        obs.emit_with(|| SchedEvent::NetDisconnect { peer: peer.clone(), reason: reason.clone() });
    }

    if opts.resume && !clean {
        // Grace period: keep the stream open for `reconnect_window`; if no
        // new producer connection shows up (generation unchanged), give up
        // and count this producer as finished so downstream can flush.
        let gen = slot.generation.load(Ordering::Acquire);
        let streams = Arc::clone(streams);
        let window = opts.reconnect_window;
        let _ =
            std::thread::Builder::new().name(format!("net-ingest-window-{id}")).spawn(move || {
                std::thread::sleep(window);
                let slot = &streams[slot_idx];
                if slot.generation.load(Ordering::Acquire) != gen {
                    return; // the producer came back
                }
                // checked_sub: never double-count a producer that a racing
                // reconnect already finished cleanly.
                let prev = slot.remaining_producers.fetch_update(
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    |p| p.checked_sub(1),
                );
                if prev == Ok(1) {
                    slot.queue.close();
                }
            });
    } else {
        // This producer is done: once the last expected producer leaves,
        // close the queue so the remote source sees end-of-stream after
        // draining what is buffered.
        if slot.remaining_producers.fetch_sub(1, Ordering::AcqRel) == 1 {
            slot.queue.close();
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::hello;
    use hmts::streams::element::{Message, TraceTag};
    use hmts::streams::time::Timestamp;
    use hmts::streams::tuple::Tuple;

    fn connect(addr: SocketAddr, stream: &str) -> FrameWriter<TcpStream> {
        let sock = TcpStream::connect(addr).unwrap();
        let mut w = FrameWriter::new(sock);
        w.write_frame(&hello(stream)).unwrap();
        w
    }

    #[test]
    fn ingest_pushes_frames_into_stream_queue() {
        let server =
            IngestServer::bind("127.0.0.1:0", vec![StreamSpec::new("a")], IngestConfig::default())
                .unwrap();
        let mut w = connect(server.local_addr(), "a");
        for i in 0..10i64 {
            w.write_frame(&Frame::Data {
                ts: Timestamp::from_micros(i as u64),
                tuple: Tuple::single(i),
                trace: TraceTag::NONE,
            })
            .unwrap();
        }
        w.write_frame(&Frame::Eos).unwrap();
        drop(w);
        let q = server.queue("a").unwrap();
        let mut got = Vec::new();
        while let Some(m) = q.pop_blocking() {
            got.push(m.as_data().unwrap().tuple.field(0).as_int().unwrap());
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(server.stats().tuples.load(Ordering::Relaxed), 10);
        assert!(server.stats().bytes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn unknown_stream_is_rejected_without_touching_queues() {
        let server =
            IngestServer::bind("127.0.0.1:0", vec![StreamSpec::new("a")], IngestConfig::default())
                .unwrap();
        let mut w = connect(server.local_addr(), "nope");
        // Socket will be closed server-side; writes may fail eventually.
        let _ = w.write_frame(&Frame::Data {
            ts: Timestamp::ZERO,
            tuple: Tuple::single(1),
            trace: TraceTag::NONE,
        });
        drop(w);
        // Wait for the connection to be accepted and its thread to finish.
        while server.stats().connections_total.load(Ordering::Relaxed) < 1
            || server.stats().connections_active.load(Ordering::Relaxed) > 0
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.stats().rejected.load(Ordering::Relaxed), 1);
        assert_eq!(server.queue("a").unwrap().len(), 0);
        assert!(!server.queue("a").unwrap().is_closed());
    }

    #[test]
    fn malformed_frame_counts_decode_error_and_ends_connection() {
        let server =
            IngestServer::bind("127.0.0.1:0", vec![StreamSpec::new("a")], IngestConfig::default())
                .unwrap();
        let sock = TcpStream::connect(server.local_addr()).unwrap();
        let mut w = FrameWriter::new(sock.try_clone().unwrap());
        w.write_frame(&hello("a")).unwrap();
        use std::io::Write as _;
        // A frame with an absurd length prefix.
        (&sock).write_all(&u32::MAX.to_le_bytes()).unwrap();
        drop(w);
        drop(sock);
        while server.stats().connections_total.load(Ordering::Relaxed) < 1
            || server.stats().connections_active.load(Ordering::Relaxed) > 0
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.stats().decode_errors.load(Ordering::Relaxed), 1);
        // Sole producer gone: the stream ends.
        assert!(server.queue("a").unwrap().is_closed());
    }

    #[test]
    fn queue_closes_only_after_all_expected_producers_finish() {
        let server = IngestServer::bind(
            "127.0.0.1:0",
            vec![StreamSpec::new("a").with_producers(2)],
            IngestConfig::default(),
        )
        .unwrap();
        let mut w1 = connect(server.local_addr(), "a");
        let mut w2 = connect(server.local_addr(), "a");
        w1.write_frame(&Frame::Data {
            ts: Timestamp::ZERO,
            tuple: Tuple::single(1),
            trace: TraceTag::NONE,
        })
        .unwrap();
        w1.write_frame(&Frame::Eos).unwrap();
        drop(w1);
        let q = server.queue("a").unwrap();
        while server.stats().connections_active.load(Ordering::Relaxed) > 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!q.is_closed(), "one producer still connected");
        w2.write_frame(&Frame::Data {
            ts: Timestamp::ZERO,
            tuple: Tuple::single(2),
            trace: TraceTag::NONE,
        })
        .unwrap();
        w2.write_frame(&Frame::Eos).unwrap();
        drop(w2);
        while !q.is_closed() {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn ping_answered_with_pong_after_preceding_data() {
        let server =
            IngestServer::bind("127.0.0.1:0", vec![StreamSpec::new("a")], IngestConfig::default())
                .unwrap();
        let sock = TcpStream::connect(server.local_addr()).unwrap();
        let mut w = FrameWriter::new(sock.try_clone().unwrap());
        let mut r = FrameReader::new(sock);
        w.write_frame(&hello("a")).unwrap();
        w.write_frame(&Frame::Data {
            ts: Timestamp::ZERO,
            tuple: Tuple::single(7),
            trace: TraceTag::NONE,
        })
        .unwrap();
        w.write_frame(&Frame::Ping { nonce: 99 }).unwrap();
        assert_eq!(r.read_frame().unwrap(), Some(Frame::Pong { nonce: 99 }));
        // Pong is a barrier: the data frame is already in the queue.
        assert_eq!(server.queue("a").unwrap().len(), 1);
        w.write_frame(&Frame::Eos).unwrap();
    }

    #[test]
    fn control_frames_inside_a_run_keep_their_place() {
        use std::io::Write;
        let server =
            IngestServer::bind("127.0.0.1:0", vec![StreamSpec::new("a")], IngestConfig::default())
                .unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_nodelay(true).unwrap();
        let mut pongs = FrameReader::new(sock.try_clone().unwrap());
        let data = |i: i64| Frame::Data {
            ts: Timestamp::from_micros(i as u64),
            tuple: Tuple::single(i),
            trace: TraceTag::NONE,
        };
        // One segment: three data frames, a ping, two more, a watermark,
        // two more, a second ping.
        let mut frames = vec![hello("a")];
        frames.extend((0..3).map(data));
        frames.push(Frame::Ping { nonce: 1 });
        frames.extend((3..5).map(data));
        frames.push(Frame::Watermark { ts: Timestamp::from_micros(5) });
        frames.extend((5..7).map(data));
        frames.push(Frame::Ping { nonce: 2 });
        let mut bytes = Vec::new();
        frames.iter().for_each(|f| crate::wire::encode_frame(f, &mut bytes));
        sock.write_all(&bytes).unwrap();

        let q = server.queue("a").unwrap();
        assert_eq!(pongs.read_frame().unwrap(), Some(Frame::Pong { nonce: 1 }));
        assert!(q.len() >= 3, "the pong left before the data ahead of it was in: {}", q.len());
        assert_eq!(pongs.read_frame().unwrap(), Some(Frame::Pong { nonce: 2 }));
        assert_eq!(q.len(), 8, "seven elements and the watermark");
        let got: Vec<Message> = std::iter::from_fn(|| q.try_pop()).collect();
        let mut expected: Vec<Message> = (0..5)
            .map(|i| Message::data(Tuple::single(i), Timestamp::from_micros(i as u64)))
            .collect();
        expected.push(Message::Punct(Punctuation::Watermark(Timestamp::from_micros(5))));
        expected.extend(
            (5..7).map(|i| Message::data(Tuple::single(i), Timestamp::from_micros(i as u64))),
        );
        assert_eq!(got, expected);
        crate::wire::FrameWriter::new(sock).write_frame(&Frame::Eos).unwrap();
        assert!(q.pop_blocking().is_none(), "the only producer said eos");
        assert_eq!(server.stats().tuples.load(Ordering::Relaxed), 7);
        assert_eq!(server.stats().bytes.load(Ordering::Relaxed), bytes.len() as u64 + 5);
    }

    #[test]
    fn whole_frames_do_not_wait_for_the_rest_of_a_torn_one() {
        use std::io::Write;
        let server =
            IngestServer::bind("127.0.0.1:0", vec![StreamSpec::new("a")], IngestConfig::default())
                .unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_nodelay(true).unwrap();
        // One segment: the handshake, two whole data frames, and the first
        // five bytes of a third.
        let mut bytes = Vec::new();
        crate::wire::encode_frame(&hello("a"), &mut bytes);
        for i in 0..3i64 {
            crate::wire::encode_frame(
                &Frame::Data {
                    ts: Timestamp::from_micros(i as u64),
                    tuple: Tuple::single(i),
                    trace: TraceTag::NONE,
                },
                &mut bytes,
            );
        }
        let torn = bytes.len() - 5;
        let whole = {
            let mut third = Vec::new();
            crate::wire::encode_frame(
                &Frame::Data {
                    ts: Timestamp::ZERO,
                    tuple: Tuple::single(2),
                    trace: TraceTag::NONE,
                },
                &mut third,
            );
            bytes.len() - third.len()
        };
        assert!(whole < torn, "the cut lies inside the third frame");
        sock.write_all(&bytes[..torn]).unwrap();
        let q = server.queue("a").unwrap();
        // The next message within `limit`, as a value.
        let pop_within = |limit: Duration| {
            let deadline = std::time::Instant::now() + limit;
            loop {
                match q.try_pop() {
                    Some(m) => break Some(m.as_data().unwrap().tuple.field(0).as_int().unwrap()),
                    None if std::time::Instant::now() >= deadline => break None,
                    None => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        };
        let pop = || pop_within(Duration::from_secs(5));
        assert_eq!(pop(), Some(0));
        assert_eq!(pop(), Some(1));
        assert_eq!(pop_within(Duration::from_millis(50)), None, "the third is incomplete");
        assert_eq!(server.stats().tuples.load(Ordering::Relaxed), 2);
        sock.write_all(&bytes[torn..]).unwrap();
        assert_eq!(pop(), Some(2));
        // A connection cut mid-frame still delivered the frames before it.
        let mut tail = bytes[whole..].to_vec();
        tail.extend_from_slice(&bytes[whole..torn]);
        sock.write_all(&tail).unwrap();
        drop(sock);
        assert_eq!(pop(), Some(2));
        assert!(q.pop_blocking().is_none(), "the only producer is gone");
        assert_eq!(server.stats().tuples.load(Ordering::Relaxed), 4);
    }
}
