//! The wire format byte for byte: a v2 `DataTraced` frame whose tuple holds
//! one value of each kind, and a `Hello` frame, compared with literal
//! bytes. Peers of other builds read these frames, so any change to these
//! bytes is a protocol change and needs a new version.

use hmts::streams::element::TraceTag;
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;
use hmts::streams::value::Value;
use hmts_net::wire::{decode_frame, encode_frame, hello, Frame};

fn traced() -> Frame {
    Frame::Data {
        ts: Timestamp::from_micros(0x0102),
        tuple: Tuple::new([
            Value::Null,
            Value::Bool(true),
            Value::Int(-2),
            Value::Float(1.5),
            Value::from("hé"),
        ]),
        trace: TraceTag::new(0x0a0b),
    }
}

#[rustfmt::skip]
const TRACED: &[u8] = &[
    // body length u32 (kind byte + payload), kind 10 (`DataTraced`)
    48, 0, 0, 0,
    10,
    // timestamp u64 µs, trace id u64
    0x02, 0x01, 0, 0, 0, 0, 0, 0,
    0x0b, 0x0a, 0, 0, 0, 0, 0, 0,
    // u16 arity
    5, 0,
    // Null: tag 0
    0,
    // Bool(true): tag 1, one byte
    1, 1,
    // Int(-2): tag 2, i64
    2, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    // Float(1.5): tag 3, f64 bits
    3, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f,
    // Str("hé"): tag 4, u32 byte length, UTF-8
    4, 3, 0, 0, 0, b'h', 0xc3, 0xa9,
];

#[rustfmt::skip]
const HELLO: &[u8] = &[
    // body length u32, kind 1 (`Hello`)
    14, 0, 0, 0,
    1,
    // magic, version u16
    b'H', b'M', b'T', b'S',
    2, 0,
    // stream name: u32 byte length, UTF-8
    3, 0, 0, 0, b's', b'-', b'1',
];

#[test]
fn a_traced_data_frame_of_every_value_kind_has_fixed_bytes() {
    let mut buf = Vec::new();
    encode_frame(&traced(), &mut buf);
    assert_eq!(buf, TRACED);
    assert_eq!(decode_frame(TRACED).unwrap(), (traced(), TRACED.len()));
}

#[test]
fn a_hello_frame_has_fixed_bytes() {
    let mut buf = Vec::new();
    encode_frame(&hello("s-1"), &mut buf);
    assert_eq!(buf, HELLO);
    assert_eq!(decode_frame(HELLO).unwrap(), (hello("s-1"), HELLO.len()));
}

/// Lower-case hex of `bytes`.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// An untraced `Data` frame of an inline pair of strings, one of them empty:
/// what a string is held in (one pointer, a block of count, length and
/// bytes) is not in its bytes.
#[test]
fn an_inline_pair_of_strings_has_fixed_bytes() {
    let frame = Frame::Data {
        ts: Timestamp::from_micros(0x0304),
        tuple: Tuple::pair("sensor-7", ""),
        trace: TraceTag::NONE,
    };
    let golden = [
        "1d000000",                   // body length u32
        "02",                         // kind 2 (`Data`)
        "0403000000000000",           // timestamp u64 µs
        "0200",                       // u16 arity
        "040800000073656e736f722d37", // Str("sensor-7")
        "0400000000",                 // Str("")
    ]
    .concat();
    let mut buf = Vec::new();
    encode_frame(&frame, &mut buf);
    assert_eq!(hex(&buf), golden);
    assert_eq!(decode_frame(&buf).unwrap(), (frame, buf.len()));
}
