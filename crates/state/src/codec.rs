//! Binary state codec: little-endian writer/reader pair, tagged dynamic
//! values, and CRC-32 — the `hmts-net` wire conventions applied to
//! operator state. Decoding never panics: every malformed input maps to a
//! typed [`StateError`].

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use hmts_streams::element::Element;
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

/// Hard cap on any length prefix read while decoding (1 GiB). Corrupt
/// prefixes otherwise turn into unbounded allocations.
pub const MAX_LEN: usize = 1 << 30;

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

// Value tags, mirroring the `hmts-net` wire codec.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Append-only little-endian encoder for state payloads.
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
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes raw bytes with a `u32` length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a UTF-8 string with a `u32` length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes a [`Timestamp`] as its microsecond count.
    pub fn put_timestamp(&mut self, t: Timestamp) {
        self.put_u64(t.as_micros());
    }

    /// Writes a [`Duration`] as whole nanoseconds.
    pub fn put_duration(&mut self, d: Duration) {
        self.put_u64(d.as_nanos() as u64);
    }

    /// Writes a tagged dynamic [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(TAG_NULL),
            Value::Bool(b) => {
                self.put_u8(TAG_BOOL);
                self.put_u8(*b as u8);
            }
            Value::Int(i) => {
                self.put_u8(TAG_INT);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(TAG_FLOAT);
                self.put_f64(*f);
            }
            Value::Str(s) => {
                self.put_u8(TAG_STR);
                self.put_str(s);
            }
        }
    }

    /// Writes a [`Tuple`] as an arity-prefixed value list.
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.put_u32(t.arity() as u32);
        for v in t.values() {
            self.put_value(v);
        }
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

/// Bounds-checked little-endian decoder over a state payload.
#[derive(Debug)]
pub struct BlobReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BlobReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> BlobReader<'a> {
        BlobReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless the payload was consumed exactly.
    pub fn expect_end(&self) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::TrailingBytes(self.remaining()))
        }
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if n > MAX_LEN {
            return Err(StateError::TooLarge(n));
        }
        if self.remaining() < n {
            return Err(StateError::UnexpectedEof);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StateError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StateError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32` length prefix, bounded by [`MAX_LEN`].
    pub fn len_prefix(&mut self) -> Result<usize, StateError> {
        let n = self.u32()? as usize;
        if n > MAX_LEN {
            return Err(StateError::TooLarge(n));
        }
        Ok(n)
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], StateError> {
        let n = self.len_prefix()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, StateError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| StateError::BadUtf8)
    }

    /// Reads a [`Timestamp`].
    pub fn timestamp(&mut self) -> Result<Timestamp, StateError> {
        Ok(Timestamp::from_micros(self.u64()?))
    }

    /// Reads a [`Duration`] stored as whole nanoseconds.
    pub fn duration(&mut self) -> Result<Duration, StateError> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    /// Reads a tagged dynamic [`Value`].
    pub fn value(&mut self) -> Result<Value, StateError> {
        match self.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            TAG_INT => Ok(Value::Int(self.i64()?)),
            TAG_FLOAT => Ok(Value::Float(self.f64()?)),
            TAG_STR => {
                let b = self.bytes()?;
                let s = std::str::from_utf8(b).map_err(|_| StateError::BadUtf8)?;
                Ok(Value::Str(Arc::from(s)))
            }
            other => Err(StateError::UnknownTag(other)),
        }
    }

    /// Reads an arity-prefixed [`Tuple`].
    pub fn tuple(&mut self) -> Result<Tuple, StateError> {
        let arity = self.len_prefix()?;
        let mut values = Vec::with_capacity(arity.min(64));
        for _ in 0..arity {
            values.push(self.value()?);
        }
        Ok(Tuple::new(values))
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
        w.put_i64(-5);
        w.put_f64(2.5);
        w.put_str("héllo");
        w.put_timestamp(Timestamp::from_micros(123));
        w.put_duration(Duration::from_nanos(456));
        let bytes = w.finish();
        let mut r = BlobReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.timestamp().unwrap(), Timestamp::from_micros(123));
        assert_eq!(r.duration().unwrap(), Duration::from_nanos(456));
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
