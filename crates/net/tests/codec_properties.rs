//! Property-based tests of the wire codec: every encodable frame survives
//! a round trip byte-exactly, no truncated or corrupted input can panic
//! the decoder, and a `FrameReader` — frame by frame or run by run, over a
//! stream that trickles — reads what `decode_frame` reads one frame at a
//! time.

use std::io::{self, Read};

use proptest::prelude::*;

use hmts::streams::element::TraceTag;
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;
use hmts::streams::value::Value;
use hmts_net::wire::{
    decode_frame, encode_frame, DecodeError, Frame, FrameReader, NetError, MAX_FRAME, READ_BUF,
    VERSION,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        // The finite-f64 strategy never yields the specials; cover them
        // explicitly (NaN must survive the wire bit-exactly).
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(-0.0)),
        // Mixed ASCII and multi-byte characters exercise UTF-8 handling.
        "[a-zA-Z0-9_ äßλ語]{0,12}".prop_map(|s| Value::from(s.as_str())),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 0..6).prop_map(Tuple::new)
}

fn arb_trace() -> impl Strategy<Value = TraceTag> {
    prop_oneof![
        // Untraced appears three times: the common case on a real wire.
        Just(TraceTag::NONE),
        Just(TraceTag::NONE),
        Just(TraceTag::NONE),
        (1u64..=u64::MAX).prop_map(TraceTag::new),
    ]
}

fn arb_frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        // Hello must carry the supported version; other versions are
        // rejected by design (covered in the wire unit tests).
        "[a-z0-9_]{0,16}".prop_map(|stream| Frame::Hello { version: VERSION, stream }),
        (any::<u64>(), arb_tuple(), arb_trace()).prop_map(|(ts, tuple, trace)| Frame::Data {
            ts: Timestamp::from_micros(ts),
            tuple,
            trace,
        }),
        any::<u64>().prop_map(|ts| Frame::Watermark { ts: Timestamp::from_micros(ts) }),
        Just(Frame::Eos),
        any::<u64>().prop_map(|nonce| Frame::Ping { nonce }),
        any::<u64>().prop_map(|nonce| Frame::Pong { nonce }),
    ]
    .boxed()
}

/// Byte-level equality survives NaN payloads, where `Frame: PartialEq`
/// (via `f64`) would not.
fn encoding_of(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(frame, &mut buf);
    buf
}

fn has_nan(frame: &Frame) -> bool {
    matches!(frame, Frame::Data { tuple, .. }
        if tuple.values().iter().any(|v| matches!(v, Value::Float(x) if x.is_nan())))
}

/// A connection's worth of frames: mostly data, every control kind.
fn arb_stream() -> impl Strategy<Value = Vec<Frame>> {
    let data = || {
        (any::<u64>(), arb_tuple(), arb_trace()).prop_map(|(ts, tuple, trace)| Frame::Data {
            ts: Timestamp::from_micros(ts),
            tuple,
            trace,
        })
    };
    let frame = prop_oneof![
        arb_frame(),
        data(),
        data(),
        any::<u64>().prop_map(|id| Frame::Barrier { id }),
        any::<u64>().prop_map(|seq| Frame::Resume { seq }),
        any::<u64>().prop_map(|seq| Frame::ResumeAck { seq }),
    ];
    proptest::collection::vec(frame, 0..24)
}

/// A stream that hands out at most the next of `chunks` bytes per read
/// (cycling), and remembers the largest buffer it was asked to fill.
struct Trickle {
    bytes: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    reads: usize,
    largest_request: usize,
}

impl Trickle {
    fn new(bytes: Vec<u8>, chunks: Vec<usize>) -> Trickle {
        Trickle { bytes, pos: 0, chunks, reads: 0, largest_request: 0 }
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.largest_request = self.largest_request.max(buf.len());
        let chunk = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = chunk.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// What a reader made of a byte stream: the frames, each as its encoding
/// (which compares NaN payloads too), the error that ended it, if any, and
/// the bytes it counted.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    frames: Vec<Vec<u8>>,
    error: Option<DecodeError>,
    bytes_read: u64,
}

/// `decode_frame` one frame at a time. A frame that was whole but did not
/// decode counts as read, as it does for a reader.
fn one_at_a_time(bytes: &[u8]) -> Outcome {
    let mut out = Outcome::default();
    let mut pos = 0;
    while pos < bytes.len() {
        match decode_frame(&bytes[pos..]) {
            Ok((frame, n)) => {
                out.frames.push(encoding_of(&frame));
                pos += n;
            }
            Err(e) => {
                let rest = &bytes[pos..];
                if rest.len() >= 4 {
                    let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                    if len != 0 && len <= MAX_FRAME && rest.len() - 4 >= len {
                        pos += 4 + len;
                    }
                }
                out.error = Some(e);
                break;
            }
        }
    }
    out.bytes_read = pos as u64;
    out
}

/// Pushes what `read_frame` returned; `false` once the stream is over.
fn record(out: &mut Outcome, read: Result<Option<Frame>, NetError>) -> bool {
    match read {
        Ok(Some(frame)) => {
            out.frames.push(encoding_of(&frame));
            true
        }
        Ok(None) => false,
        Err(NetError::Decode(e)) => {
            out.error = Some(e);
            false
        }
        Err(NetError::Io(e)) => panic!("the stream does not fail: {e}"),
    }
}

/// A `FrameReader` through `read_frame` only.
fn frame_by_frame(stream: &mut Trickle) -> Outcome {
    let mut reader = FrameReader::new(stream);
    let mut out = Outcome::default();
    while record(&mut out, reader.read_frame()) {}
    out.bytes_read = reader.bytes_read();
    out
}

/// A `FrameReader` the way the ingest server drives it: the run of data
/// frames first, `read_frame` for whatever stops it.
fn by_runs(stream: &mut Trickle) -> Outcome {
    let mut reader = FrameReader::new(stream);
    let mut out = Outcome::default();
    let mut run = Vec::new();
    loop {
        let taken = reader.take_data(&mut run);
        out.frames.extend(
            run.drain(..)
                .map(|e| encoding_of(&Frame::Data { ts: e.ts, tuple: e.tuple, trace: e.trace })),
        );
        if let Err(e) = taken {
            out.error = Some(e);
            break;
        }
        if !record(&mut out, reader.read_frame()) {
            break;
        }
    }
    out.bytes_read = reader.bytes_read();
    out
}

/// Read sizes: mostly a few bytes to a few frames, sometimes everything.
fn arb_chunks() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(prop_oneof![1usize..8, 1usize..300, Just(READ_BUF)], 1..6)
}

proptest! {
    #[test]
    fn round_trip_is_byte_exact(frame in arb_frame()) {
        let bytes = encoding_of(&frame);
        let (decoded, consumed) = decode_frame(&bytes).expect("valid encoding decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(encoding_of(&decoded), bytes);
    }

    #[test]
    fn round_trip_preserves_frame(frame in arb_frame()) {
        prop_assume!(!has_nan(&frame)); // NaN breaks PartialEq, not the codec
        let bytes = encoding_of(&frame);
        let (decoded, _) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn v1_data_frames_decode_losslessly_with_untraced_tag(
        ts in any::<u64>(),
        tuple in arb_tuple(),
    ) {
        // A v1 peer never wrote a trace tag; its Data encoding is exactly
        // what the v2 encoder emits for an untraced element. The v2
        // decoder must accept it and fill in TraceTag::NONE, losing
        // nothing else.
        let ts = Timestamp::from_micros(ts);
        let v1 = encoding_of(&Frame::Data { ts, tuple: tuple.clone(), trace: TraceTag::NONE });
        let (decoded, consumed) = decode_frame(&v1).expect("v1 frame decodes");
        prop_assert_eq!(consumed, v1.len());
        match decoded {
            Frame::Data { ts: dts, tuple: dtuple, trace } => {
                prop_assert_eq!(trace, TraceTag::NONE);
                prop_assert_eq!(dts, ts);
                if !dtuple.values().iter().any(|v| matches!(v, Value::Float(x) if x.is_nan())) {
                    prop_assert_eq!(dtuple, tuple);
                }
            }
            other => prop_assert!(false, "decoded {other:?}, expected Data"),
        }
    }

    #[test]
    fn truncating_the_trace_field_yields_typed_eof(
        ts in any::<u64>(),
        tuple in arb_tuple(),
        id in 1u64..=u64::MAX,
        cut in 0usize..8,
    ) {
        let bytes = encoding_of(&Frame::Data {
            ts: Timestamp::from_micros(ts),
            tuple,
            trace: TraceTag::new(id),
        });
        // Keep kind + timestamp + only `cut` bytes of the new trace-id
        // field, with the length prefix fixed up so the truncation is
        // caught by the body decoder (a typed error), not the framing.
        let body_len = 1 + 8 + cut;
        let mut short = ((body_len as u32).to_le_bytes()).to_vec();
        short.extend_from_slice(&bytes[4..4 + body_len]);
        prop_assert_eq!(decode_frame(&short).unwrap_err(), DecodeError::UnexpectedEof);
    }

    #[test]
    fn every_truncation_is_rejected_without_panic(
        frame in arb_frame(),
        cut in any::<usize>(),
    ) {
        let bytes = encoding_of(&frame);
        let cut = cut % bytes.len(); // 0 <= cut < len: always a strict prefix
        prop_assert_eq!(
            decode_frame(&bytes[..cut]).unwrap_err(),
            DecodeError::UnexpectedEof,
            "cut at {}", cut
        );
    }

    #[test]
    fn corrupted_byte_never_panics(
        frame in arb_frame(),
        pos in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = encoding_of(&frame);
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        // Must return *something* — a decode error, a different valid
        // frame (payload corruption), or UnexpectedEof (length
        // corruption) — but never panic and never read past the buffer.
        let _ = decode_frame(&bytes);
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        if let Ok((frame, consumed)) = decode_frame(&bytes) {
            // Anything accepted must re-encode into exactly what was read.
            prop_assert_eq!(encoding_of(&frame), bytes[..consumed].to_vec());
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation(
        extra in 1u32..=(u32::MAX - MAX_FRAME as u32),
    ) {
        let mut bytes = (MAX_FRAME as u32 + extra).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        prop_assert!(matches!(
            decode_frame(&bytes),
            Err(DecodeError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn a_reader_reads_what_decode_frame_reads(
        frames in arb_stream(),
        chunks in arb_chunks(),
        damage in 0u8..3,
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            encode_frame(f, &mut bytes);
        }
        // Intact, cut short at any byte, or one byte flipped.
        if !bytes.is_empty() {
            let at = at % bytes.len();
            match damage {
                1 => bytes.truncate(at),
                2 => bytes[at] ^= xor,
                _ => {}
            }
        }
        let expected = one_at_a_time(&bytes);
        if damage == 0 {
            prop_assert_eq!(expected.frames.len(), frames.len());
            prop_assert_eq!(&expected.error, &None);
        }
        let framed = frame_by_frame(&mut Trickle::new(bytes.clone(), chunks.clone()));
        prop_assert_eq!(&framed, &expected, "read_frame");
        let runs = by_runs(&mut Trickle::new(bytes, chunks));
        prop_assert_eq!(&runs, &expected, "take_data");
    }

    #[test]
    fn a_hostile_prefix_fails_before_the_buffer_grows(
        frames in arb_stream(),
        chunks in arb_chunks(),
        extra in 1u32..=(u32::MAX - MAX_FRAME as u32),
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            encode_frame(f, &mut bytes);
        }
        bytes.extend_from_slice(&(MAX_FRAME as u32 + extra).to_le_bytes());
        bytes.extend_from_slice(&[KIND_DATA; 64]);
        for path in [frame_by_frame, by_runs] {
            let mut stream = Trickle::new(bytes.clone(), chunks.clone());
            let out = path(&mut stream);
            prop_assert_eq!(out.frames.len(), frames.len());
            prop_assert!(matches!(out.error, Some(DecodeError::FrameTooLarge(_))), "{:?}", out.error);
            prop_assert!(
                stream.largest_request <= READ_BUF,
                "asked for {} bytes at once", stream.largest_request
            );
        }
    }
}

/// The kind byte of a `Data` frame.
const KIND_DATA: u8 = 2;

#[test]
fn a_frame_longer_than_the_buffer_grows_it_to_that_frame() {
    let long = "x".repeat(3 * READ_BUF);
    let frames = [
        Frame::Ping { nonce: 1 },
        Frame::Data {
            ts: Timestamp::from_micros(7),
            tuple: Tuple::pair(1, long.as_str()),
            trace: TraceTag::NONE,
        },
        Frame::Data {
            ts: Timestamp::from_micros(8),
            tuple: Tuple::single(2),
            trace: TraceTag::NONE,
        },
    ];
    let mut bytes = Vec::new();
    frames.iter().for_each(|f| encode_frame(f, &mut bytes));
    let expected = one_at_a_time(&bytes);
    assert_eq!(expected.frames.len(), 3);
    for path in [frame_by_frame, by_runs] {
        let mut stream = Trickle::new(bytes.clone(), vec![READ_BUF, 1000]);
        assert_eq!(path(&mut stream), expected);
        let longest = 4 + 1 + 8 + 2 + 9 + 5 + long.len();
        assert!(stream.largest_request <= longest, "asked for {}", stream.largest_request);
    }
}
