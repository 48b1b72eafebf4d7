//! The HMTS wire protocol: length-prefixed binary frames over a byte
//! stream.
//!
//! Every frame is `[len: u32 LE][kind: u8][payload]`, where `len` counts
//! the kind byte plus the payload. A connection opens with a [`Frame::Hello`]
//! carrying the protocol magic, a version number, and the name of the
//! stream the connection feeds (ingest) or subscribes to (egress). After
//! the handshake, data and punctuations flow as frames that map one-to-one
//! onto [`Message`]s, so a socket is simply a serialized stream-queue edge:
//!
//! | kind | frame        | payload                                   |
//! |------|--------------|-------------------------------------------|
//! | 1    | `Hello`      | magic `HMTS`, version `u16`, stream name  |
//! | 2    | `Data`       | timestamp `u64` µs, tuple                 |
//! | 3    | `Watermark`  | timestamp `u64` µs                        |
//! | 4    | `Eos`        | —                                         |
//! | 5    | `Ping`       | nonce `u64`                               |
//! | 6    | `Pong`       | nonce `u64`                               |
//! | 7    | `Resume`     | next sequence number `u64`                |
//! | 8    | `ResumeAck`  | next sequence number `u64`                |
//! | 9    | `Barrier`    | checkpoint id `u64`                       |
//! | 10   | `DataTraced` | timestamp `u64` µs, trace id `u64`, tuple |
//!
//! Tuples are a `u16` arity followed by tagged values (0 null, 1 bool,
//! 2 `i64`, 3 `f64` bits, 4 length-prefixed UTF-8): the values, the
//! strings and the integers are [`hmts::streams::codec`]'s encoding, which
//! checkpointed operator state uses too.
//!
//! **Trace context (protocol v2).** A sampled element's `TraceTag` crosses
//! the process boundary as a `DataTraced` frame (kind 10): the v1 `Data`
//! layout plus the 8-byte trace id between timestamp and tuple. Untraced
//! elements — the overwhelmingly common case — still encode as plain
//! `Data`, byte-identical to v1, so carrying trace context costs nothing
//! unless a tuple is actually sampled. Decoders accept both kinds
//! regardless of the peer's handshake version: a v1 peer simply never
//! sends kind 10, and every v1 frame decodes unchanged (`Data` frames get
//! [`TraceTag::NONE`]). The `Hello` check accepts versions
//! [`MIN_VERSION`]`..=`[`VERSION`].
//!
//! Decoding never panics: every malformed input — truncated frame, bad
//! magic, unknown tag, oversized length prefix, trailing bytes — is a
//! [`DecodeError`]. Oversized length prefixes are rejected *before*
//! buffering, so a corrupt peer cannot make the server allocate
//! arbitrarily.
//!
//! **The run path.** A [`FrameReader`] reads its stream in chunks of up to
//! 64 KiB into one buffer of its own, and
//! [`take_data`](FrameReader::take_data) decodes every whole data frame at
//! the front of that buffer straight into a run of [`Element`]s — no read,
//! no copy, no [`Frame`] in between, no allocation for a tuple of up to two
//! fields, one for a wider tuple (plus one per string value). Because it
//! reads ahead, a `FrameReader` owns the read side of
//! its stream: bytes it buffered are gone from the stream for anyone else.
//! On the way out, [`encode_data`] writes a data frame straight from the
//! element's fields.

use std::fmt;
use std::io::{self, Read, Write};

use hmts::streams::codec::{self, put_str, put_u16, put_u64, CodecError, Reader};
use hmts::streams::element::{Element, Message, Punctuation, TraceTag};
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;

/// Protocol magic carried by every [`Frame::Hello`].
pub const MAGIC: [u8; 4] = *b"HMTS";

/// Current protocol version. v2 added the `DataTraced` frame (kind 10)
/// carrying a sampled element's trace id; every v1 frame is still valid v2.
pub const VERSION: u16 = 2;

/// Oldest protocol version peers may still speak in their `Hello`.
pub const MIN_VERSION: u16 = 1;

/// Hard upper bound on the body (kind + payload) of a single frame.
/// Anything larger is rejected as corrupt before buffering.
pub const MAX_FRAME: usize = 1 << 20;

const KIND_HELLO: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_WATERMARK: u8 = 3;
const KIND_EOS: u8 = 4;
const KIND_PING: u8 = 5;
const KIND_PONG: u8 = 6;
const KIND_RESUME: u8 = 7;
const KIND_RESUME_ACK: u8 = 8;
const KIND_BARRIER: u8 = 9;
const KIND_DATA_TRACED: u8 = 10;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection handshake: protocol magic + version + stream name.
    Hello {
        /// Protocol version the peer speaks.
        version: u16,
        /// Stream the connection feeds (ingest) or subscribes to (egress).
        stream: String,
    },
    /// One stream element.
    Data {
        /// Stream timestamp (microseconds since stream epoch).
        ts: Timestamp,
        /// The payload.
        tuple: Tuple,
        /// Trace context: [`TraceTag::NONE`] (encoded as a plain v1 `Data`
        /// frame) or a sampled tuple's trace id (encoded as `DataTraced`).
        trace: TraceTag,
    },
    /// A watermark punctuation.
    Watermark {
        /// No element below this timestamp will follow.
        ts: Timestamp,
    },
    /// End-of-stream punctuation: the sender is done.
    Eos,
    /// Application-level echo request (RTT probes, flush barriers).
    Ping {
        /// Correlates the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Echo reply to a [`Frame::Ping`], sent after all preceding frames
    /// on the connection were processed.
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },
    /// Sent by a reconnecting ingest client after `Hello`: asks the server
    /// how many data elements of this stream it has durably received, so
    /// the client can retransmit exactly the suffix that was lost.
    Resume {
        /// Lowest data sequence number the client can retransmit.
        seq: u64,
    },
    /// The server's answer to [`Frame::Resume`]: the next data sequence
    /// number it expects (i.e. the count of elements already received).
    /// After a process restart this is the *checkpointed* count, so the
    /// client retransmits everything past the last durable checkpoint.
    ResumeAck {
        /// Next expected data sequence number.
        seq: u64,
    },
    /// A checkpoint barrier flowing through an egress subscription: every
    /// element before it belongs to checkpoint `id`'s consistent cut.
    Barrier {
        /// The checkpoint this barrier belongs to.
        id: u64,
    },
}

impl Frame {
    /// The frame for a queue [`Message`] (data, watermark, or EOS).
    pub fn from_message(msg: &Message) -> Frame {
        match msg {
            Message::Data(e) => Frame::Data { ts: e.ts, tuple: e.tuple.clone(), trace: e.trace },
            Message::Punct(Punctuation::Watermark(ts)) => Frame::Watermark { ts: *ts },
            Message::Punct(Punctuation::Barrier(id)) => Frame::Barrier { id: *id },
            Message::Punct(Punctuation::EndOfStream) => Frame::Eos,
        }
    }

    /// The queue [`Message`] this frame carries, if it is a stream frame
    /// (`Data`/`Watermark`/`Eos`; control frames return `None`).
    pub fn into_message(self) -> Option<Message> {
        match self {
            Frame::Data { ts, tuple, trace } => {
                Some(Message::Data(Element::new(tuple, ts).with_trace(trace)))
            }
            Frame::Watermark { ts } => Some(Message::Punct(Punctuation::Watermark(ts))),
            Frame::Barrier { id } => Some(Message::Punct(Punctuation::Barrier(id))),
            Frame::Eos => Some(Message::Punct(Punctuation::EndOfStream)),
            Frame::Hello { .. }
            | Frame::Ping { .. }
            | Frame::Pong { .. }
            | Frame::Resume { .. }
            | Frame::ResumeAck { .. } => None,
        }
    }
}

/// Why a byte sequence is not a valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the frame did.
    UnexpectedEof,
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// A frame body with length zero (there is no kind byte to read).
    EmptyFrame,
    /// The kind byte is not a known frame kind.
    UnknownFrameKind(u8),
    /// A value tag byte is not a known value kind.
    UnknownValueTag(u8),
    /// A `Hello` frame without the protocol magic.
    BadMagic,
    /// A `Hello` frame from a peer speaking an unsupported version.
    UnsupportedVersion(u16),
    /// A string field that is not valid UTF-8.
    BadUtf8,
    /// The frame body continued past its last field.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "input truncated mid-frame"),
            DecodeError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            DecodeError::EmptyFrame => write!(f, "zero-length frame"),
            DecodeError::UnknownFrameKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::UnknownValueTag(t) => write!(f, "unknown value tag {t}"),
            DecodeError::BadMagic => write!(f, "hello frame without HMTS magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::TrailingBytes => write!(f, "frame body has trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<CodecError> for DecodeError {
    #[inline]
    fn from(e: CodecError) -> DecodeError {
        match e {
            // A length beyond the codec's cap is beyond any frame body too.
            CodecError::UnexpectedEof | CodecError::TooLarge(_) => DecodeError::UnexpectedEof,
            CodecError::UnknownTag(t) => DecodeError::UnknownValueTag(t),
            CodecError::BadUtf8 => DecodeError::BadUtf8,
        }
    }
}

/// Appends the full encoding of `frame` (length prefix included) to `buf`.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) {
    let len_pos = open_frame(buf);
    match frame {
        Frame::Hello { version, stream } => {
            buf.push(KIND_HELLO);
            buf.extend_from_slice(&MAGIC);
            put_u16(buf, *version);
            put_str(buf, stream);
        }
        Frame::Data { ts, tuple, trace } => put_data(buf, *ts, tuple, *trace),
        Frame::Eos => buf.push(KIND_EOS),
        Frame::Watermark { ts } => put_control(buf, KIND_WATERMARK, ts.as_micros()),
        Frame::Ping { nonce } => put_control(buf, KIND_PING, *nonce),
        Frame::Pong { nonce } => put_control(buf, KIND_PONG, *nonce),
        Frame::Resume { seq } => put_control(buf, KIND_RESUME, *seq),
        Frame::ResumeAck { seq } => put_control(buf, KIND_RESUME_ACK, *seq),
        Frame::Barrier { id } => put_control(buf, KIND_BARRIER, *id),
    }
    close_frame(buf, len_pos);
}

/// Appends the frame of one data element — what `encode_frame` writes for
/// the [`Frame::Data`] of these fields, without building one.
pub fn encode_data(ts: Timestamp, tuple: &Tuple, trace: TraceTag, buf: &mut Vec<u8>) {
    let len_pos = open_frame(buf);
    put_data(buf, ts, tuple, trace);
    close_frame(buf, len_pos);
}

/// Reserves the length prefix of a frame about to be appended.
#[inline]
fn open_frame(buf: &mut Vec<u8>) -> usize {
    let len_pos = buf.len();
    buf.extend_from_slice(&[0; 4]);
    len_pos
}

/// Fills in the length prefix reserved at `len_pos`.
#[inline]
fn close_frame(buf: &mut [u8], len_pos: usize) {
    let body_len = (buf.len() - len_pos - 4) as u32;
    buf[len_pos..len_pos + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Decodes one frame from the start of `bytes`, returning it and the total
/// number of bytes consumed (length prefix included). Incomplete input is
/// [`DecodeError::UnexpectedEof`]; corrupt input is the specific error.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), DecodeError> {
    if bytes.len() < 4 {
        return Err(DecodeError::UnexpectedEof);
    }
    let body_len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if body_len > MAX_FRAME {
        return Err(DecodeError::FrameTooLarge(body_len));
    }
    if body_len == 0 {
        return Err(DecodeError::EmptyFrame);
    }
    if bytes.len() < 4 + body_len {
        return Err(DecodeError::UnexpectedEof);
    }
    let frame = decode_body(&bytes[4..4 + body_len])?;
    Ok((frame, 4 + body_len))
}

/// Decodes a frame body (the bytes after the length prefix).
pub fn decode_body(body: &[u8]) -> Result<Frame, DecodeError> {
    let mut r = Reader::new(body);
    let kind = r.u8()?;
    let frame = match kind {
        KIND_HELLO => {
            if r.take(MAGIC.len())? != MAGIC {
                return Err(DecodeError::BadMagic);
            }
            let version = r.u16()?;
            if !(MIN_VERSION..=VERSION).contains(&version) {
                return Err(DecodeError::UnsupportedVersion(version));
            }
            Frame::Hello { version, stream: r.str()?.to_owned() }
        }
        KIND_DATA | KIND_DATA_TRACED => {
            let (ts, trace, tuple) = read_data(&mut r, kind)?;
            Frame::Data { ts, tuple, trace }
        }
        KIND_WATERMARK => Frame::Watermark { ts: r.timestamp()? },
        KIND_EOS => Frame::Eos,
        KIND_PING => Frame::Ping { nonce: r.u64()? },
        KIND_PONG => Frame::Pong { nonce: r.u64()? },
        KIND_RESUME => Frame::Resume { seq: r.u64()? },
        KIND_RESUME_ACK => Frame::ResumeAck { seq: r.u64()? },
        KIND_BARRIER => Frame::Barrier { id: r.u64()? },
        other => return Err(DecodeError::UnknownFrameKind(other)),
    };
    body_ends(&r)?;
    Ok(frame)
}

/// Decodes a `Data` or `DataTraced` body straight into its message.
#[inline]
fn decode_data(body: &[u8]) -> Result<Element, DecodeError> {
    let mut r = Reader::new(body);
    let kind = r.u8()?;
    let (ts, trace, tuple) = read_data(&mut r, kind)?;
    body_ends(&r)?;
    Ok(Element::new(tuple, ts).with_trace(trace))
}

/// Whether the body ended with its last field.
#[inline]
fn body_ends(r: &Reader<'_>) -> Result<(), DecodeError> {
    match r.remaining() {
        0 => Ok(()),
        _ => Err(DecodeError::TrailingBytes),
    }
}

/// The payload of a data frame of `kind` (`Data` or `DataTraced`). The
/// `#[inline]`s on this path are measured: without them `take_data` costs
/// about twice as much per frame (`micro_wire`).
#[inline]
fn read_data(r: &mut Reader<'_>, kind: u8) -> Result<(Timestamp, TraceTag, Tuple), DecodeError> {
    let ts = r.timestamp()?;
    let trace = if kind == KIND_DATA_TRACED { TraceTag::new(r.u64()?) } else { TraceTag::NONE };
    let arity = r.u16()? as usize;
    Ok((ts, trace, r.tuple(arity)?))
}

/// The kind byte and payload of a data frame.
#[inline]
fn put_data(buf: &mut Vec<u8>, ts: Timestamp, tuple: &Tuple, trace: TraceTag) {
    if trace.is_sampled() {
        buf.push(KIND_DATA_TRACED);
        codec::put_timestamp(buf, ts);
        put_u64(buf, trace.id());
    } else {
        buf.push(KIND_DATA);
        codec::put_timestamp(buf, ts);
    }
    put_u16(buf, tuple.arity() as u16);
    codec::put_values(buf, tuple.values());
}

/// The kind byte and `u64` payload of a control frame.
fn put_control(buf: &mut Vec<u8>, kind: u8, v: u64) {
    buf.push(kind);
    put_u64(buf, v);
}

/// Errors on a framed connection: transport failures or malformed frames.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer sent a malformed frame.
    Decode(DecodeError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Decode(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> NetError {
        NetError::Decode(e)
    }
}

/// Size of a [`FrameReader`]'s buffer, and so the most it asks its stream
/// for in one read — unless a single frame is longer, when the buffer grows
/// to that frame (at most [`MAX_FRAME`] and its prefix).
pub const READ_BUF: usize = 64 * 1024;

/// Reads frames off a byte stream, tracking the bytes consumed.
///
/// The reader reads ahead into a buffer of its own, so it owns the read
/// side of its stream: whatever it buffered is no longer in the stream.
pub struct FrameReader<R> {
    inner: R,
    /// `buf[start..end]` was read from `inner` and not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    bytes_read: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner, buf: vec![0; READ_BUF], start: 0, end: 0, bytes_read: 0 }
    }

    /// Total bytes of the frames consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Reads the next frame. `Ok(None)` means the stream ended cleanly at a
    /// frame boundary; EOF mid-frame is [`DecodeError::UnexpectedEof`].
    pub fn read_frame(&mut self) -> Result<Option<Frame>, NetError> {
        if !self.fill(4)? {
            return match self.end - self.start {
                0 => Ok(None),
                _ => Err(DecodeError::UnexpectedEof.into()),
            };
        }
        let body_len = self.front_len();
        if body_len > MAX_FRAME {
            return Err(DecodeError::FrameTooLarge(body_len).into());
        }
        if body_len == 0 {
            return Err(DecodeError::EmptyFrame.into());
        }
        if !self.fill(4 + body_len)? {
            return Err(DecodeError::UnexpectedEof.into());
        }
        let body = self.start + 4..self.start + 4 + body_len;
        self.start = body.end;
        self.bytes_read += (4 + body_len) as u64;
        Ok(Some(decode_body(&self.buf[body])?))
    }

    /// Decodes every whole `Data`/`DataTraced` frame at the front of the
    /// buffer into `out`, in order, without reading from the stream, and
    /// returns how many it appended. It stops at the first frame that is not
    /// a data frame or not yet whole — [`read_frame`](Self::read_frame)
    /// takes that one, with every check. A data frame that does not decode
    /// is consumed and its error returned, behind the elements before it.
    pub fn take_data(&mut self, out: &mut Vec<Element>) -> Result<usize, DecodeError> {
        let before = out.len();
        let mut pos = self.start;
        let result = loop {
            let rest = &self.buf[pos..self.end];
            let Some(prefix) = rest.get(..4) else { break Ok(()) };
            let body_len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
            if body_len == 0 || rest.len() - 4 < body_len {
                break Ok(());
            }
            let body = &rest[4..4 + body_len];
            if !matches!(body[0], KIND_DATA | KIND_DATA_TRACED) {
                break Ok(());
            }
            pos += 4 + body_len;
            match decode_data(body) {
                Ok(el) => out.push(el),
                Err(e) => break Err(e),
            }
        };
        self.bytes_read += (pos - self.start) as u64;
        self.start = pos;
        result.map(|()| out.len() - before)
    }

    /// Whether the next frame lies whole in the read buffer, so that
    /// [`read_frame`](Self::read_frame) will return it without waiting for
    /// the stream.
    pub fn frame_buffered(&self) -> bool {
        self.end - self.start >= 4 && self.end - self.start - 4 >= self.front_len()
    }

    /// The body length the prefix at the front of the buffer claims (the
    /// caller saw that four bytes are there).
    fn front_len(&self) -> usize {
        u32::from_le_bytes(self.buf[self.start..self.start + 4].try_into().expect("4 bytes"))
            as usize
    }

    /// Reads until at least `need` unconsumed bytes are buffered, as many
    /// as the reads bring; `false` if the stream ends first. The buffer
    /// grows only when `need` exceeds it, and the callers pass no more
    /// than a checked frame length.
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        if self.end - self.start >= need {
            return Ok(true);
        }
        // What is left unconsumed is the head of one frame; moved to the
        // front, it leaves the rest of the buffer to the read.
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
        while self.end < need {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// Writes frames onto a byte stream, reusing one encode buffer.
pub struct FrameWriter<W> {
    inner: W,
    scratch: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a byte stream.
    pub fn new(inner: W) -> FrameWriter<W> {
        FrameWriter { inner, scratch: Vec::new() }
    }

    /// Encodes and writes one frame.
    pub fn write_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.scratch.clear();
        encode_frame(frame, &mut self.scratch);
        self.inner.write_all(&self.scratch)
    }

    /// Flushes the underlying stream.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// The underlying stream.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

/// The standard handshake frame for `stream`.
pub fn hello(stream: &str) -> Frame {
    Frame::Hello { version: VERSION, stream: stream.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts::streams::codec::TAG_INT;
    use hmts::streams::value::Value;

    fn round_trip(frame: Frame) -> Frame {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let (decoded, consumed) = decode_frame(&buf).expect("decodes");
        assert_eq!(consumed, buf.len());
        decoded
    }

    #[test]
    fn all_frame_kinds_round_trip() {
        let frames = vec![
            hello("sensor-7"),
            Frame::Data {
                ts: Timestamp::from_micros(123_456),
                tuple: Tuple::new(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Int(-42),
                    Value::Float(2.5),
                    Value::from("päyload"),
                ]),
                trace: TraceTag::NONE,
            },
            Frame::Data {
                ts: Timestamp::from_micros(77),
                tuple: Tuple::pair(3, "traced"),
                trace: TraceTag::new(0xDEAD_BEEF),
            },
            Frame::Watermark { ts: Timestamp::from_secs(9) },
            Frame::Eos,
            Frame::Ping { nonce: 7 },
            Frame::Pong { nonce: u64::MAX },
            Frame::Resume { seq: 0 },
            Frame::ResumeAck { seq: 12_345 },
            Frame::Barrier { id: 42 },
        ];
        for f in frames {
            assert_eq!(round_trip(f.clone()), f);
        }
    }

    #[test]
    fn nan_floats_round_trip_bit_exact() {
        let f = Frame::Data {
            ts: Timestamp::ZERO,
            tuple: Tuple::new(vec![Value::Float(f64::NAN), Value::Float(-0.0)]),
            trace: TraceTag::NONE,
        };
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        let (decoded, _) = decode_frame(&buf).unwrap();
        match decoded {
            Frame::Data { tuple, .. } => {
                assert!(matches!(tuple.field(0), Value::Float(x) if x.is_nan()));
                assert!(
                    matches!(tuple.field(1), Value::Float(x) if x.to_bits() == (-0.0f64).to_bits())
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncation_reports_eof_everywhere() {
        for trace in [TraceTag::NONE, TraceTag::new(42)] {
            let mut buf = Vec::new();
            encode_frame(
                &Frame::Data { ts: Timestamp::from_micros(5), tuple: Tuple::pair(1, "abc"), trace },
                &mut buf,
            );
            for cut in 0..buf.len() {
                assert_eq!(
                    decode_frame(&buf[..cut]).unwrap_err(),
                    DecodeError::UnexpectedEof,
                    "cut at {cut} (trace {})",
                    trace.id()
                );
            }
        }
    }

    #[test]
    fn untraced_data_is_byte_identical_to_v1_and_decodes_with_none_tag() {
        // Hand-build the v1 Data layout: kind 2, u64 ts µs, tuple.
        let mut v1 = vec![KIND_DATA];
        v1.extend_from_slice(&123u64.to_le_bytes());
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.push(TAG_INT);
        v1.extend_from_slice(&9i64.to_le_bytes());
        // A v1 peer's frame decodes losslessly, trace tag NONE.
        let decoded = decode_body(&v1).unwrap();
        assert_eq!(
            decoded,
            Frame::Data {
                ts: Timestamp::from_micros(123),
                tuple: Tuple::single(9),
                trace: TraceTag::NONE
            }
        );
        // And the v2 encoder emits exactly those bytes for an untraced
        // element — old decoders keep working against new senders.
        let mut buf = Vec::new();
        encode_frame(&decoded, &mut buf);
        assert_eq!(&buf[4..], &v1[..]);
    }

    #[test]
    fn a_shard_sequence_tag_never_reaches_the_wire() {
        use hmts::streams::element::{SeqKind, SeqTag};
        let plain = Element::new(Tuple::pair(3, "x"), Timestamp::from_micros(9));
        let tagged = plain.clone().with_seq(SeqTag::new(41, SeqKind::Last));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_frame(&Frame::from_message(&Message::Data(plain)), &mut a);
        encode_frame(&Frame::from_message(&Message::Data(tagged.clone())), &mut b);
        assert_eq!(a, b);
        match round_trip(Frame::from_message(&Message::Data(tagged))).into_message() {
            Some(Message::Data(e)) => assert_eq!(e.seq, SeqTag::NONE),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn traced_data_uses_kind_10_and_round_trips() {
        let f = Frame::Data {
            ts: Timestamp::from_micros(55),
            tuple: Tuple::single(1),
            trace: TraceTag::new(0x0100_0000_0007),
        };
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        assert_eq!(buf[4], KIND_DATA_TRACED);
        assert_eq!(round_trip(f.clone()), f);
        // A flipped trace-id byte still decodes structurally (the id is a
        // plain u64), just with a different tag — no panic, no misparse.
        let mut body = buf[4..].to_vec();
        body[9] ^= 0xFF; // first trace-id byte (kind 1 + ts 8)
        match decode_body(&body).unwrap() {
            Frame::Data { trace, tuple, .. } => {
                assert_ne!(trace, TraceTag::new(0x0100_0000_0007));
                assert_eq!(tuple, Tuple::single(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Chopping the frame mid-trace-id is UnexpectedEof, not a panic.
        let short = &body[..12];
        let mut cut = Vec::with_capacity(4 + short.len());
        cut.extend_from_slice(&(short.len() as u32).to_le_bytes());
        cut.extend_from_slice(short);
        assert_eq!(decode_frame(&cut).unwrap_err(), DecodeError::UnexpectedEof);
        // Trailing garbage after the tuple is still caught.
        let mut long = buf[4..].to_vec();
        long.push(0);
        assert_eq!(decode_body(&long).unwrap_err(), DecodeError::TrailingBytes);
    }

    #[test]
    fn corrupt_inputs_rejected_without_panic() {
        // Oversized length prefix.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(matches!(decode_frame(&huge).unwrap_err(), DecodeError::FrameTooLarge(_)));
        // Zero-length body.
        assert_eq!(decode_frame(&0u32.to_le_bytes()).unwrap_err(), DecodeError::EmptyFrame);
        // Unknown frame kind.
        assert_eq!(decode_body(&[99]).unwrap_err(), DecodeError::UnknownFrameKind(99));
        // Unknown value tag inside a tuple.
        let mut body = vec![KIND_DATA];
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.push(200);
        assert_eq!(decode_body(&body).unwrap_err(), DecodeError::UnknownValueTag(200));
        // Trailing garbage.
        let mut buf = Vec::new();
        encode_frame(&Frame::Eos, &mut buf);
        let mut body = buf[4..].to_vec();
        body.push(0);
        assert_eq!(decode_body(&body).unwrap_err(), DecodeError::TrailingBytes);
    }

    #[test]
    fn hello_validates_magic_and_version() {
        let mut buf = Vec::new();
        encode_frame(&hello("s"), &mut buf);
        let mut bad_magic = buf[4..].to_vec();
        bad_magic[1] = b'X';
        assert_eq!(decode_body(&bad_magic).unwrap_err(), DecodeError::BadMagic);
        let mut bad_version = buf[4..].to_vec();
        bad_version[5] = 0xFF;
        assert!(matches!(
            decode_body(&bad_version).unwrap_err(),
            DecodeError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn hello_accepts_the_supported_version_range() {
        let mut buf = Vec::new();
        encode_frame(&hello("s"), &mut buf);
        let set_version = |v: u16| {
            let mut body = buf[4..].to_vec();
            body[5..7].copy_from_slice(&v.to_le_bytes());
            body
        };
        // v1 peers (no trace frames) and v2 peers both handshake fine.
        for v in MIN_VERSION..=VERSION {
            assert_eq!(
                decode_body(&set_version(v)).unwrap(),
                Frame::Hello { version: v, stream: "s".to_string() }
            );
        }
        // Versions outside the range are rejected with the typed error.
        for v in [0, VERSION + 1, u16::MAX] {
            assert_eq!(
                decode_body(&set_version(v)).unwrap_err(),
                DecodeError::UnsupportedVersion(v)
            );
        }
    }

    #[test]
    fn reader_writer_round_trip_and_clean_eof() {
        let mut wire = Vec::new();
        {
            let mut w = FrameWriter::new(&mut wire);
            w.write_frame(&hello("a")).unwrap();
            w.write_frame(&Frame::Data {
                ts: Timestamp::from_micros(1),
                tuple: Tuple::single(10),
                trace: TraceTag::NONE,
            })
            .unwrap();
            w.write_frame(&Frame::Eos).unwrap();
        }
        let mut r = FrameReader::new(&wire[..]);
        assert_eq!(r.read_frame().unwrap(), Some(hello("a")));
        assert!(matches!(r.read_frame().unwrap(), Some(Frame::Data { .. })));
        assert_eq!(r.read_frame().unwrap(), Some(Frame::Eos));
        assert_eq!(r.read_frame().unwrap(), None); // clean EOF
        assert_eq!(r.bytes_read(), wire.len() as u64);
    }

    #[test]
    fn reader_flags_mid_frame_eof() {
        let mut wire = Vec::new();
        let mut w = FrameWriter::new(&mut wire);
        w.write_frame(&Frame::Ping { nonce: 3 }).unwrap();
        let cut = &wire[..wire.len() - 2];
        let mut r = FrameReader::new(cut);
        assert!(matches!(r.read_frame(), Err(NetError::Decode(DecodeError::UnexpectedEof))));
    }

    #[test]
    fn frame_buffered_tells_a_whole_frame_from_a_torn_one() {
        let mut wire = Vec::new();
        encode_frame(&Frame::Ping { nonce: 1 }, &mut wire);
        let one = wire.len();
        encode_frame(&Frame::Ping { nonce: 2 }, &mut wire);
        // Two whole frames and all but the last byte of a third.
        encode_frame(&Frame::Ping { nonce: 3 }, &mut wire);
        let mut r = FrameReader::new(io::BufReader::new(&wire[..wire.len() - 1]));
        assert!(!r.frame_buffered(), "nothing was read yet");
        assert_eq!(r.read_frame().unwrap(), Some(Frame::Ping { nonce: 1 }));
        assert!(r.frame_buffered());
        assert_eq!(r.read_frame().unwrap(), Some(Frame::Ping { nonce: 2 }));
        assert!(!r.frame_buffered(), "{} of {one} bytes", one - 1);
        // Fewer than the four bytes of a length prefix.
        let mut r = FrameReader::new(io::BufReader::new(&wire[..one + 3]));
        assert_eq!(r.read_frame().unwrap(), Some(Frame::Ping { nonce: 1 }));
        assert!(!r.frame_buffered());
    }

    #[test]
    fn message_conversion_is_lossless_for_stream_frames() {
        let msgs = vec![
            Message::data(Tuple::single(5), Timestamp::from_micros(17)),
            Message::Punct(Punctuation::Watermark(Timestamp::from_secs(3))),
            Message::Punct(Punctuation::Barrier(7)),
            Message::eos(),
        ];
        for m in msgs {
            assert_eq!(Frame::from_message(&m).into_message(), Some(m));
        }
        assert_eq!(Frame::Ping { nonce: 1 }.into_message(), None);
    }
}
