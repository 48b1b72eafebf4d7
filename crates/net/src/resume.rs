//! Client-side reconnect + resume: retransmit a stream over flaky
//! connections with **no duplicates and no loss**.
//!
//! [`send_with_resume`] sends a fixed sequence of data elements to an
//! [`IngestServer`](crate::server::IngestServer) running in resume mode
//! ([`IngestConfig::resume`](crate::server::IngestConfig::resume)). Every
//! time the connection dies it backs off (capped exponential delay with
//! deterministic jitter, shared with the supervisor via
//! [`hmts::failure::backoff_delay`]), reconnects, and asks the server where
//! to restart with a [`Frame::Resume`]; the server's [`Frame::ResumeAck`]
//! carries the count of elements it already pushed, so the client
//! retransmits exactly the lost suffix.
//!
//! The writer half of each connection can be wrapped (see
//! [`send_with_resume`]'s `wrap` parameter) — the chaos tests wrap it in a
//! fault-injecting writer to cut the connection mid-frame and prove the
//! resume path heals it.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hmts::failure::backoff_delay;
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;

use crate::wire::{hello, Frame, FrameReader, FrameWriter, NetError};

/// Reconnect/backoff policy for [`send_with_resume`].
#[derive(Debug, Clone)]
pub struct ResumeConfig {
    /// First reconnect delay.
    pub base_backoff: Duration,
    /// Cap on the exponential growth.
    pub max_backoff: Duration,
    /// Give up after this many failed connection attempts.
    pub max_attempts: u32,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ResumeConfig {
    fn default() -> ResumeConfig {
        ResumeConfig {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            max_attempts: 10,
            seed: 0x5eed,
        }
    }
}

/// What a [`send_with_resume`] call did, connection by connection.
#[derive(Debug, Default)]
pub struct ResumeReport {
    /// Total connections opened (1 = no fault ever fired).
    pub connects: u32,
    /// The `ResumeAck` sequence received on each connection — i.e. the
    /// index this client resumed sending from.
    pub resume_points: Vec<u64>,
}

/// Sends `tuples` (element `i` carries sequence number `i`) to the ingest
/// server at `addr` for `stream`, transparently reconnecting and resuming
/// on any I/O failure. `wrap` intercepts the write half of every fresh
/// connection (pass `|s| Box::new(s) as Box<dyn Write + Send>` for a plain
/// socket; tests substitute a fault-injecting writer). Ends with an `Eos`
/// frame so the server counts the producer as cleanly finished.
pub fn send_with_resume(
    addr: SocketAddr,
    stream: &str,
    tuples: &[(Timestamp, Tuple)],
    cfg: &ResumeConfig,
    mut wrap: impl FnMut(TcpStream) -> Box<dyn Write + Send>,
) -> Result<ResumeReport, NetError> {
    let mut report = ResumeReport::default();
    let mut attempt: u32 = 0;
    loop {
        if attempt > 0 {
            if attempt >= cfg.max_attempts {
                return Err(NetError::Io(std::io::Error::other(format!(
                    "resume gave up after {attempt} attempts"
                ))));
            }
            std::thread::sleep(backoff_delay(
                cfg.base_backoff,
                cfg.max_backoff,
                attempt - 1,
                0.2,
                cfg.seed,
            ));
        }
        attempt += 1;
        match send_once(addr, stream, tuples, &mut wrap) {
            Ok(resumed_from) => {
                report.connects += 1;
                report.resume_points.push(resumed_from);
                return Ok(report);
            }
            Err(SendOutcome::Fatal(e)) => return Err(e),
            Err(SendOutcome::Retry(resumed_from)) => {
                report.connects += 1;
                if let Some(seq) = resumed_from {
                    report.resume_points.push(seq);
                }
            }
        }
    }
}

enum SendOutcome {
    /// The connection died after resuming from the contained sequence
    /// (`None` if it died before the resume handshake completed).
    Retry(Option<u64>),
    /// Not worth retrying (e.g. protocol violation from the server).
    Fatal(NetError),
}

fn send_once(
    addr: SocketAddr,
    stream: &str,
    tuples: &[(Timestamp, Tuple)],
    wrap: &mut impl FnMut(TcpStream) -> Box<dyn Write + Send>,
) -> Result<u64, SendOutcome> {
    let sock = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return Err(SendOutcome::Retry(None)),
    };
    let read_half = match sock.try_clone() {
        Ok(r) => r,
        Err(e) => return Err(SendOutcome::Fatal(NetError::Io(e))),
    };
    let mut reader = FrameReader::new(read_half);
    let mut writer = FrameWriter::new(wrap(sock));

    let handshake = (|| {
        writer.write_frame(&hello(stream))?;
        writer.write_frame(&Frame::Resume { seq: 0 })?;
        writer.flush()
    })();
    if handshake.is_err() {
        return Err(SendOutcome::Retry(None));
    }
    // The ack tells us how many elements the server already holds.
    let start = loop {
        match reader.read_frame() {
            Ok(Some(Frame::ResumeAck { seq })) => break seq,
            Ok(Some(Frame::Pong { .. })) => continue,
            Ok(Some(other)) => {
                return Err(SendOutcome::Fatal(NetError::Io(std::io::Error::other(format!(
                    "expected resume-ack, got {other:?}"
                )))))
            }
            Ok(None) | Err(_) => return Err(SendOutcome::Retry(None)),
        }
    };
    if start as usize > tuples.len() {
        return Err(SendOutcome::Fatal(NetError::Io(std::io::Error::other(format!(
            "server acked {start} elements, only {} exist",
            tuples.len()
        )))));
    }

    for (ts, tuple) in &tuples[start as usize..] {
        let frame = Frame::Data {
            ts: *ts,
            tuple: tuple.clone(),
            trace: hmts::streams::element::TraceTag::NONE,
        };
        if writer.write_frame(&frame).is_err() {
            return Err(SendOutcome::Retry(Some(start)));
        }
    }
    let finish = (|| {
        writer.write_frame(&Frame::Eos)?;
        writer.flush()
    })();
    if finish.is_err() {
        return Err(SendOutcome::Retry(Some(start)));
    }
    Ok(start)
}
