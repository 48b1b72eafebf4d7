//! The state formats byte for byte: a blob holding one value of each kind,
//! a tuple and an element, and an encoded checkpoint, compared with literal
//! bytes. A checkpoint written by one build must restore in the next, so
//! any change to these bytes is a format change and needs a new version.

use hmts_state::{BlobReader, BlobWriter, Checkpoint, StateBlob};
use hmts_streams::element::Element;
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

fn values() -> [Value; 5] {
    [Value::Null, Value::Bool(true), Value::Int(-2), Value::Float(1.5), Value::from("hé")]
}

fn blob() -> StateBlob {
    StateBlob::build(3, |w| {
        for v in &values() {
            w.put_value(v);
        }
        w.put_tuple(&Tuple::pair(7, "x"));
        w.put_element(&Element::new(Tuple::single(5), Timestamp::from_micros(0x0102)));
    })
}

#[rustfmt::skip]
const BLOB: &[u8] = &[
    // container: payload length u32, version u16, CRC-32 of the payload u32
    69, 0, 0, 0,
    3, 0,
    0xed, 0x1d, 0x96, 0xd6,
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
    // tuple (7, "x"): u32 arity, then the values
    2, 0, 0, 0,
    2, 7, 0, 0, 0, 0, 0, 0, 0,
    4, 1, 0, 0, 0, b'x',
    // element: u64 timestamp in µs, then its tuple (5)
    0x02, 0x01, 0, 0, 0, 0, 0, 0,
    1, 0, 0, 0,
    2, 5, 0, 0, 0, 0, 0, 0, 0,
];

#[test]
fn a_blob_of_every_value_kind_a_tuple_and_an_element_has_fixed_bytes() {
    let mut w = BlobWriter::new();
    blob().encode_into(&mut w);
    assert_eq!(w.finish(), BLOB);

    let mut r = BlobReader::new(BLOB);
    let back = StateBlob::decode_from(&mut r).unwrap();
    r.expect_end().unwrap();
    assert_eq!(back, blob());
    let mut p = back.reader_for(3).unwrap();
    for v in values() {
        assert_eq!(p.value().unwrap(), v);
    }
    assert_eq!(p.tuple().unwrap(), Tuple::pair(7, "x"));
    assert_eq!(
        p.element().unwrap(),
        Element::new(Tuple::single(5), Timestamp::from_micros(0x0102))
    );
    p.expect_end().unwrap();
}

fn checkpoint() -> Checkpoint {
    Checkpoint {
        id: 9,
        operators: vec![("agg".into(), StateBlob::build(1, |w| w.put_u64(0x0a0b)))],
        sources: vec![("in".into(), 12)],
    }
}

#[rustfmt::skip]
const CHECKPOINT: &[u8] = &[
    // magic, version u16, id u64
    b'H', b'M', b'C', b'K',
    1, 0,
    9, 0, 0, 0, 0, 0, 0, 0,
    // sources: u32 count, then (name, u64 offset)
    1, 0, 0, 0,
    2, 0, 0, 0, b'i', b'n',
    12, 0, 0, 0, 0, 0, 0, 0,
    // operators: u32 count, then (name, blob container)
    1, 0, 0, 0,
    3, 0, 0, 0, b'a', b'g', b'g',
    8, 0, 0, 0,
    1, 0,
    0x71, 0x9c, 0x38, 0x9c,
    0x0b, 0x0a, 0, 0, 0, 0, 0, 0,
    // CRC-32 of everything before it
    0x3f, 0xec, 0x2b, 0x56,
];

#[test]
fn an_encoded_checkpoint_has_fixed_bytes() {
    assert_eq!(checkpoint().encode(), CHECKPOINT);
    assert_eq!(Checkpoint::decode(CHECKPOINT).unwrap(), checkpoint());
}

/// Lower-case hex of `bytes`.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A blob of strings — empty, in an inline pair, in an element beside a
/// float: what a string is held in is not in its bytes.
#[test]
fn a_blob_of_strings_has_fixed_bytes() {
    let blob = || {
        StateBlob::build(4, |w| {
            w.put_value(&Value::from(""));
            w.put_tuple(&Tuple::pair("k", "vé"));
            w.put_element(&Element::new(Tuple::pair("key", 1.5), Timestamp::from_micros(0x0102)));
        })
    };
    let golden = [
        "34000000",           // payload length u32
        "0400",               // version u16
        "6cbb496a",           // CRC-32 of the payload
        "0400000000",         // Str("")
        "02000000",           // tuple: u32 arity
        "04010000006b",       // Str("k")
        "040300000076c3a9",   // Str("vé")
        "0201000000000000",   // element: timestamp u64 µs
        "02000000",           // its tuple's u32 arity
        "0403000000",         // Str("key"): tag, length,
        "6b6579",             // UTF-8
        "03000000000000f83f", // Float(1.5)
    ]
    .concat();
    let mut w = BlobWriter::new();
    blob().encode_into(&mut w);
    let bytes = w.finish();
    assert_eq!(hex(&bytes), golden);

    let mut r = BlobReader::new(&bytes);
    let back = StateBlob::decode_from(&mut r).unwrap();
    r.expect_end().unwrap();
    assert_eq!(back, blob());
    let mut p = back.reader_for(4).unwrap();
    assert_eq!(p.value().unwrap(), Value::from(""));
    assert_eq!(p.tuple().unwrap(), Tuple::pair("k", "vé"));
    let element = p.element().unwrap();
    assert_eq!(element, Element::new(Tuple::pair("key", 1.5), Timestamp::from_micros(0x0102)));
    p.expect_end().unwrap();
}
