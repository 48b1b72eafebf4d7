//! Client-side endpoints: a result subscriber and a load-generator that
//! replays [`ArrivalProcess`] traffic shapes against an ingest server.

use std::collections::HashMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hmts::obs::{trace_id, HopKind, Tracer, NO_PARTITION};
use hmts::streams::element::{Element, Message, TraceTag};
use hmts::streams::time::Timestamp;
use hmts::workload::arrival::ArrivalProcess;
use hmts::workload::values::TupleGen;

use crate::wire::{hello, DecodeError, Frame, FrameReader, FrameWriter, NetError};

/// A client that subscribes to an egress server and iterates the result
/// stream until end-of-stream.
pub struct SubscriberClient {
    reader: FrameReader<TcpStream>,
    /// Data elements decoded from the last read and not yet handed out,
    /// newest first.
    run: Vec<Element>,
    /// The malformed frame that ended the run, reported once the run is out.
    failed: Option<DecodeError>,
    done: bool,
}

impl SubscriberClient {
    /// Connects and sends the subscription `Hello` for `stream`.
    pub fn connect(addr: impl ToSocketAddrs, stream: &str) -> Result<SubscriberClient, NetError> {
        let socket = TcpStream::connect(addr)?;
        socket.set_nodelay(true)?;
        let mut writer = FrameWriter::new(socket.try_clone()?);
        writer.write_frame(&hello(stream))?;
        writer.flush()?;
        Ok(SubscriberClient {
            reader: FrameReader::new(socket),
            run: Vec::new(),
            failed: None,
            done: false,
        })
    }

    /// Next result message: `Ok(None)` after `Eos` (or a clean server
    /// close), `Err` on a malformed frame.
    pub fn next_message(&mut self) -> Result<Option<Message>, NetError> {
        if self.done {
            return Ok(None);
        }
        loop {
            if self.run.is_empty() && self.failed.is_none() {
                self.failed = self.reader.take_data(&mut self.run).err();
                self.run.reverse();
            }
            if let Some(el) = self.run.pop() {
                return Ok(Some(Message::Data(el)));
            }
            if let Some(e) = self.failed.take() {
                return Err(e.into());
            }
            // A control frame, or a data frame the last read cut.
            match self.reader.read_frame()? {
                None | Some(Frame::Eos) => {
                    self.done = true;
                    return Ok(None);
                }
                Some(frame) => {
                    if let Some(msg) = frame.into_message() {
                        return Ok(Some(msg));
                    }
                }
            }
        }
    }

    /// Drains the remaining stream into a vector of data/watermark
    /// messages.
    pub fn collect_all(mut self) -> Result<Vec<Message>, NetError> {
        let mut out = Vec::new();
        while let Some(m) = self.next_message()? {
            out.push(m);
        }
        Ok(out)
    }
}

/// Open- vs. closed-loop load generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Open loop: send on the arrival process's schedule regardless of how
    /// fast the server absorbs (backpressure shows up as schedule slip and
    /// inflated RTT).
    Open,
    /// Closed loop: at most `window` unacknowledged tuples in flight; a
    /// `Ping`/`Pong` barrier gates each next window.
    Closed {
        /// In-flight window size (tuples per barrier).
        window: u64,
    },
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Ingest stream to feed.
    pub stream: String,
    /// Inter-arrival process (open-loop pacing; ignored gaps under heavy
    /// backpressure simply accumulate schedule slip).
    pub arrivals: ArrivalProcess,
    /// Tuple payload generator.
    pub gen: TupleGen,
    /// Number of tuples to send.
    pub count: u64,
    /// RNG seed (arrivals and payloads are deterministic given the seed).
    pub seed: u64,
    /// Load mode.
    pub mode: LoadMode,
    /// Issue an RTT `Ping` every this many tuples (0 = only the final
    /// barrier ping).
    pub ping_every: u64,
    /// Client-side trace sampling: stamp every sampled tuple with a wire
    /// trace tag and record its `net-send` hop, so the serve process (and
    /// Perfetto, after merging both span exports) can follow it end to
    /// end. `None` sends untraced v1-identical frames.
    pub trace: Option<LoadTrace>,
    /// Added to every stamped stream timestamp. Stream time is normally
    /// relative to the *client's* start, so a server-side
    /// `egress.*.e2e_latency_ns` reading (taken against the server's obs
    /// epoch) carries a constant client-start − server-epoch skew. An
    /// in-process harness that knows both epochs can pass the difference
    /// here to align them; the default of zero preserves the historical
    /// client-relative stamping.
    pub ts_offset: Duration,
}

/// Trace-sampling half of a [`LoadConfig`].
#[derive(Debug, Clone)]
pub struct LoadTrace {
    /// Recorder for the client's `net-send` hop spans (also decides the
    /// 1-in-N sampling).
    pub tracer: Arc<Tracer>,
    /// Logical source id baked into generated trace ids; give each client
    /// process a distinct one so merged traces cannot collide.
    pub source: u32,
}

impl LoadConfig {
    /// A constant-rate open-loop config with single-int payloads.
    pub fn constant(stream: &str, rate: f64, range: i64, count: u64, seed: u64) -> LoadConfig {
        LoadConfig {
            stream: stream.into(),
            arrivals: ArrivalProcess::constant(rate),
            gen: TupleGen::uniform_int(1, range + 1),
            count,
            seed,
            mode: LoadMode::Open,
            ping_every: 0,
            trace: None,
            ts_offset: Duration::ZERO,
        }
    }

    /// Same config with stamped stream timestamps shifted by `offset`
    /// (epoch alignment for in-process harnesses).
    pub fn with_ts_offset(mut self, offset: Duration) -> LoadConfig {
        self.ts_offset = offset;
        self
    }
}

/// Round-trip-time summary over all `Ping`/`Pong` pairs of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RttSummary {
    /// Number of RTT samples.
    pub samples: usize,
    /// Median RTT.
    pub p50: Duration,
    /// 95th percentile RTT.
    pub p95: Duration,
    /// 99th percentile RTT.
    pub p99: Duration,
    /// Maximum RTT.
    pub max: Duration,
}

impl RttSummary {
    fn from_samples(mut samples: Vec<Duration>) -> RttSummary {
        if samples.is_empty() {
            return RttSummary::default();
        }
        samples.sort_unstable();
        let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        RttSummary {
            samples: samples.len(),
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: *samples.last().unwrap(),
        }
    }
}

/// What a load-generation run achieved.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Tuples sent.
    pub sent: u64,
    /// Wall time from first send to the final acknowledged barrier.
    pub elapsed: Duration,
    /// `sent / elapsed` (tuples per second actually absorbed end-to-end).
    pub achieved_rate: f64,
    /// Ping/pong round-trip percentiles.
    pub rtt: RttSummary,
}

/// Replays `cfg.count` tuples of shaped traffic against the ingest server
/// at `addr`, returning the achieved rate and RTT percentiles.
///
/// The run ends with a `Ping` barrier (so `elapsed` covers every tuple
/// actually reaching the server's queues) followed by an `Eos` frame.
pub fn run_load(addr: impl ToSocketAddrs, cfg: &LoadConfig) -> Result<LoadReport, NetError> {
    let socket = TcpStream::connect(addr)?;
    socket.set_nodelay(true)?;
    let mut writer = FrameWriter::new(socket.try_clone()?);
    writer.write_frame(&hello(&cfg.stream))?;

    // Reader thread: resolves pings into RTT samples and barrier signals.
    let sent_at: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let rtts: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let (pong_tx, pong_rx) = mpsc::channel::<u64>();
    let reader_handle = {
        let sent_at = Arc::clone(&sent_at);
        let rtts = Arc::clone(&rtts);
        let socket = socket.try_clone()?;
        thread::spawn(move || {
            let mut reader = FrameReader::new(socket);
            while let Ok(Some(frame)) = reader.read_frame() {
                if let Frame::Pong { nonce } = frame {
                    if let Some(t0) = sent_at.lock().remove(&nonce) {
                        rtts.lock().push(t0.elapsed());
                    }
                    if pong_tx.send(nonce).is_err() {
                        break;
                    }
                }
            }
        })
    };

    let barrier_wait = Duration::from_secs(60);
    let mut next_nonce: u64 = 0;
    let mut ping = |writer: &mut FrameWriter<TcpStream>| -> Result<u64, NetError> {
        next_nonce += 1;
        sent_at.lock().insert(next_nonce, Instant::now());
        writer.write_frame(&Frame::Ping { nonce: next_nonce })?;
        writer.flush()?;
        Ok(next_nonce)
    };
    let await_pong = |rx: &mpsc::Receiver<u64>, nonce: u64| -> Result<(), NetError> {
        let deadline = Instant::now() + barrier_wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(n) if n >= nonce => return Ok(()),
                Ok(_) => continue,
                Err(_) => {
                    return Err(NetError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "barrier pong not received",
                    )))
                }
            }
        }
    };

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arrivals = cfg.arrivals.clone();
    let mut gen = cfg.gen.clone();
    let send_site: Arc<str> = Arc::from(format!("netgen:{}", cfg.stream).as_str());
    let start = Instant::now();
    let mut due = Duration::ZERO;
    let mut in_window: u64 = 0;
    for i in 0..cfg.count {
        if let LoadMode::Open = cfg.mode {
            due += arrivals.next_gap(&mut rng);
            let elapsed = start.elapsed();
            if due > elapsed {
                thread::sleep(due - elapsed);
            }
        }
        let tuple = gen.generate(&mut rng);
        // Stream time is the scheduled emission instant (plus any epoch
        // alignment the harness asked for).
        let ts =
            Timestamp::from_micros((due + cfg.ts_offset).as_micros().min(u64::MAX as u128) as u64);
        let mut trace = TraceTag::NONE;
        if let Some(tr) = &cfg.trace {
            if tr.tracer.sampled(i) {
                trace = TraceTag::new(trace_id(tr.source, i));
                tr.tracer.record(trace.id(), HopKind::NetSend, &send_site, NO_PARTITION);
            }
        }
        writer.write_frame(&Frame::Data { ts, tuple, trace })?;

        if let LoadMode::Closed { window } = cfg.mode {
            in_window += 1;
            if in_window >= window {
                in_window = 0;
                let nonce = ping(&mut writer)?;
                await_pong(&pong_rx, nonce)?;
            }
        } else if cfg.ping_every > 0 && (i + 1) % cfg.ping_every == 0 {
            ping(&mut writer)?;
        }
    }

    // Final barrier: every tuple above is in the server's queues once the
    // pong comes back.
    let nonce = ping(&mut writer)?;
    await_pong(&pong_rx, nonce)?;
    let elapsed = start.elapsed();

    writer.write_frame(&Frame::Eos)?;
    writer.flush()?;
    drop(writer);
    socket.shutdown(std::net::Shutdown::Write)?;
    let _ = reader_handle.join();

    let rtt = RttSummary::from_samples(std::mem::take(&mut *rtts.lock()));
    Ok(LoadReport {
        sent: cfg.count,
        elapsed,
        achieved_rate: cfg.count as f64 / elapsed.as_secs_f64().max(1e-9),
        rtt,
    })
}

/// Regenerates the exact tuple sequence a [`run_load`] call sends (same
/// seed, same generators) — lets tests recompute expected query results.
pub fn expected_tuples(cfg: &LoadConfig) -> Vec<hmts::streams::tuple::Tuple> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arrivals = cfg.arrivals.clone();
    let mut gen = cfg.gen.clone();
    (0..cfg.count)
        .map(|_| {
            if let LoadMode::Open = cfg.mode {
                let _ = arrivals.next_gap(&mut rng);
            }
            gen.generate(&mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_summary_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = RttSummary::from_samples(samples);
        assert_eq!(s.samples, 100);
        assert_eq!(s.p50, Duration::from_millis(51));
        assert_eq!(s.p95, Duration::from_millis(95));
        assert_eq!(s.max, Duration::from_millis(100));
    }

    #[test]
    fn a_malformed_frame_is_reported_behind_the_run_before_it() {
        use hmts::streams::tuple::Tuple;
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let data = |i: i64| Frame::Data {
                ts: Timestamp::from_micros(i as u64),
                tuple: Tuple::single(i),
                trace: TraceTag::NONE,
            };
            // In one segment: three data frames, one whose value tag is
            // unknown, and a fourth good one behind it.
            let mut bytes = Vec::new();
            (0..3).for_each(|i| crate::wire::encode_frame(&data(i), &mut bytes));
            bytes.extend_from_slice(&12u32.to_le_bytes());
            bytes.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 9]);
            crate::wire::encode_frame(&data(3), &mut bytes);
            sock.write_all(&bytes).unwrap();
            let _ = sock.read_to_end(&mut Vec::new());
        });
        let mut client = SubscriberClient::connect(addr, "out").unwrap();
        for i in 0..3 {
            let msg = client.next_message().unwrap().unwrap();
            assert_eq!(msg.as_data().unwrap().tuple.field(0).as_int().unwrap(), i);
        }
        assert!(
            matches!(client.next_message(), Err(NetError::Decode(DecodeError::UnknownValueTag(9)))),
            "the error, not the frame behind it"
        );
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn expected_tuples_is_deterministic() {
        let cfg = LoadConfig::constant("s", 1e6, 1000, 50, 7);
        assert_eq!(expected_tuples(&cfg), expected_tuples(&cfg));
        assert_eq!(expected_tuples(&cfg).len(), 50);
    }
}
