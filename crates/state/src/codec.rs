//! Binary state codec: a writer/reader pair over the values and tuples of
//! [`hmts_streams::codec`] — the encoding the wire protocol uses too, with
//! tuple arities written as `u32` — plus CRC-32. Decoding never panics:
//! every malformed input maps to a typed [`StateError`].

use std::fmt;

use hmts_streams::codec::{self, CodecError, Reader};
use hmts_streams::element::Element;
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

pub use hmts_streams::codec::MAX_LEN;

/// Typed decode/IO failures. Corrupt state is an error, never a panic.
#[derive(Debug)]
pub enum StateError {
    /// Input ended before the announced length.
    UnexpectedEof,
    /// A container (blob, checkpoint file) did not start with its magic.
    BadMagic,
    /// A container carried a format version this build does not speak.
    UnsupportedVersion(u16),
    /// CRC-32 mismatch: the payload was corrupted at rest or in transit.
    BadCrc {
        /// The checksum stored alongside the payload.
        expected: u32,
        /// The checksum computed over the payload as read.
        found: u32,
    },
    /// An unknown value/field tag.
    UnknownTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeded [`MAX_LEN`].
    TooLarge(usize),
    /// Bytes remained after a complete decode.
    TrailingBytes(usize),
    /// The blob decoded cleanly but does not fit the restoring operator's
    /// configuration (wrong key type, missing field, …).
    Incompatible(&'static str),
    /// Filesystem failure in the checkpoint store.
    Io(std::io::Error),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::UnexpectedEof => write!(f, "unexpected end of state payload"),
            StateError::BadMagic => write!(f, "bad magic (not a checkpoint artifact)"),
            StateError::UnsupportedVersion(v) => write!(f, "unsupported state version {v}"),
            StateError::BadCrc { expected, found } => {
                write!(f, "CRC mismatch: stored {expected:#010x}, computed {found:#010x}")
            }
            StateError::UnknownTag(t) => write!(f, "unknown state tag {t}"),
            StateError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            StateError::TooLarge(n) => write!(f, "length prefix {n} exceeds limit {MAX_LEN}"),
            StateError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            StateError::Incompatible(what) => {
                write!(f, "snapshot incompatible with operator: {what}")
            }
            StateError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<CodecError> for StateError {
    fn from(e: CodecError) -> StateError {
        match e {
            CodecError::UnexpectedEof => StateError::UnexpectedEof,
            CodecError::UnknownTag(t) => StateError::UnknownTag(t),
            CodecError::BadUtf8 => StateError::BadUtf8,
            CodecError::TooLarge(n) => StateError::TooLarge(n),
        }
    }
}

impl From<std::io::Error> for StateError {
    fn from(e: std::io::Error) -> StateError {
        StateError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Append-only little-endian encoder for state payloads: the
/// [`hmts_streams::codec`] encoding, with tuple arities written as `u32`.
#[derive(Debug, Default)]
pub struct BlobWriter {
    buf: Vec<u8>,
}

impl BlobWriter {
    /// An empty writer.
    pub fn new() -> BlobWriter {
        BlobWriter::default()
    }

    /// The encoded bytes so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        codec::put_u16(&mut self.buf, v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        codec::put_u32(&mut self.buf, v);
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        codec::put_u64(&mut self.buf, v);
    }

    /// Writes raw bytes with a `u32` length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a UTF-8 string with a `u32` length prefix.
    pub fn put_str(&mut self, s: &str) {
        codec::put_str(&mut self.buf, s);
    }

    /// Writes a [`Timestamp`] as its microsecond count.
    pub fn put_timestamp(&mut self, t: Timestamp) {
        codec::put_timestamp(&mut self.buf, t);
    }

    /// Writes a tagged dynamic [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        codec::put_value(&mut self.buf, v);
    }

    /// Writes a [`Tuple`] as a `u32` arity and its values.
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.put_u32(t.arity() as u32);
        codec::put_values(&mut self.buf, t.values());
    }

    /// Writes an [`Element`] (timestamp + tuple; trace tags are diagnostic
    /// metadata and deliberately not persisted, and a shard sequence tag
    /// means something only to the merge that holds the element, which
    /// writes it down itself).
    pub fn put_element(&mut self, e: &Element) {
        self.put_timestamp(e.ts);
        self.put_tuple(&e.tuple);
    }
}

/// Bounds-checked little-endian decoder over a state payload: a
/// [`codec::Reader`] whose errors are [`StateError`]s.
#[derive(Debug)]
pub struct BlobReader<'a>(Reader<'a>);

impl<'a> BlobReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> BlobReader<'a> {
        BlobReader(Reader::new(bytes))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.0.remaining()
    }

    /// Errors unless the payload was consumed exactly.
    pub fn expect_end(&self) -> Result<(), StateError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(StateError::TrailingBytes(n)),
        }
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        Ok(self.0.take(n)?)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.0.u8()?)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StateError> {
        Ok(self.0.u16()?)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        Ok(self.0.u32()?)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        Ok(self.0.u64()?)
    }

    /// Reads a `u32` length prefix, bounded by [`MAX_LEN`].
    pub fn len_prefix(&mut self) -> Result<usize, StateError> {
        Ok(self.0.len_prefix()?)
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], StateError> {
        let n = self.len_prefix()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, StateError> {
        Ok(self.0.str()?.to_owned())
    }

    /// Reads a [`Timestamp`].
    pub fn timestamp(&mut self) -> Result<Timestamp, StateError> {
        Ok(self.0.timestamp()?)
    }

    /// Reads a tagged dynamic [`Value`].
    pub fn value(&mut self) -> Result<Value, StateError> {
        Ok(self.0.value()?)
    }

    /// Reads a `u32`-arity [`Tuple`].
    pub fn tuple(&mut self) -> Result<Tuple, StateError> {
        let arity = self.len_prefix()?;
        Ok(self.0.tuple(arity)?)
    }

    /// Reads an [`Element`] (restored untraced and untagged — neither tag
    /// is persisted).
    pub fn element(&mut self) -> Result<Element, StateError> {
        let ts = self.timestamp()?;
        let tuple = self.tuple()?;
        Ok(Element::new(tuple, ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn scalar_round_trip() {
        let mut w = BlobWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_str("héllo");
        w.put_timestamp(Timestamp::from_micros(123));
        let bytes = w.finish();
        let mut r = BlobReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.timestamp().unwrap(), Timestamp::from_micros(123));
        r.expect_end().unwrap();
    }

    #[test]
    fn value_tuple_element_round_trip() {
        let e = Element::new(
            Tuple::new([
                Value::Null,
                Value::Bool(true),
                Value::Int(-9),
                Value::Float(f64::NAN),
                Value::from("s"),
            ]),
            Timestamp::from_secs(3),
        );
        let mut w = BlobWriter::new();
        w.put_element(&e);
        let bytes = w.finish();
        let mut r = BlobReader::new(&bytes);
        let back = r.element().unwrap();
        r.expect_end().unwrap();
        // Canonical-NaN equality from Value makes this a plain comparison.
        assert_eq!(back, e);

        // A sequence tag is not in the blob: same bytes, read back untagged.
        use hmts_streams::element::{SeqKind, SeqTag};
        let mut w = BlobWriter::new();
        w.put_element(&e.clone().with_seq(SeqTag::new(7, SeqKind::More)));
        assert_eq!(w.finish(), bytes);
        assert_eq!(back.seq, SeqTag::NONE);
    }

    #[test]
    fn truncated_and_malformed_inputs_error() {
        let mut r = BlobReader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(StateError::UnexpectedEof)));

        // Length prefix larger than the remaining payload.
        let mut w = BlobWriter::new();
        w.put_u32(100);
        let bytes = w.finish();
        let mut r = BlobReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(StateError::UnexpectedEof)));

        // Unknown value tag.
        let mut r = BlobReader::new(&[9]);
        assert!(matches!(r.value(), Err(StateError::UnknownTag(9))));

        // Invalid UTF-8 in a string.
        let mut w = BlobWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.finish();
        let mut r = BlobReader::new(&bytes);
        assert!(matches!(r.string(), Err(StateError::BadUtf8)));

        // Absurd length prefix is rejected before allocation.
        let huge = u32::MAX.to_le_bytes();
        let mut r = BlobReader::new(&huge);
        assert!(matches!(r.len_prefix(), Err(StateError::TooLarge(_))));

        // Trailing bytes are detected.
        let r = BlobReader::new(&[0]);
        assert!(matches!(r.expect_end(), Err(StateError::TrailingBytes(1))));
    }
}
