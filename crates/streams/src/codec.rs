//! The bytes of a tuple: the one encoder and decoder of [`Value`]s that
//! the wire protocol (`hmts-net`) and checkpointed operator state
//! (`hmts-state`) both use.
//!
//! Integers are little-endian and fixed-width; a string is a `u32` byte
//! length followed by UTF-8; a value is a tag byte followed by its body:
//!
//! | tag | value            | body                   |
//! |-----|------------------|------------------------|
//! | 0   | [`Value::Null`]  | —                      |
//! | 1   | [`Value::Bool`]  | one byte, 0 is `false` |
//! | 2   | [`Value::Int`]   | `i64`                  |
//! | 3   | [`Value::Float`] | `f64` bits             |
//! | 4   | [`Value::Str`]   | string                 |
//!
//! A tuple is its arity followed by its values. The arity's width and
//! everything around a tuple — frame kinds, magics, versions, checksums —
//! belong to each format, so this module writes and reads a tuple's values
//! only ([`put_values`], [`Reader::tuple`]).
//!
//! Decoding never panics: malformed input is a [`CodecError`], which each
//! format maps onto its own error type.

use crate::shared_str::SharedStr;
use crate::time::Timestamp;
use crate::tuple::Tuple;
use crate::value::Value;

/// Tag of [`Value::Null`].
pub const TAG_NULL: u8 = 0;
/// Tag of [`Value::Bool`].
pub const TAG_BOOL: u8 = 1;
/// Tag of [`Value::Int`].
pub const TAG_INT: u8 = 2;
/// Tag of [`Value::Float`].
pub const TAG_FLOAT: u8 = 3;
/// Tag of [`Value::Str`].
pub const TAG_STR: u8 = 4;

/// Hard cap on a length read while decoding (1 GiB): a corrupt prefix
/// must not become an unbounded allocation.
pub const MAX_LEN: usize = 1 << 30;

/// Why bytes do not decode. Each format maps it onto its own error type
/// (`hmts-net`'s `DecodeError`, `hmts-state`'s `StateError`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    UnexpectedEof,
    /// A value tag that is none of the five.
    UnknownTag(u8),
    /// A string that is not valid UTF-8.
    BadUtf8,
    /// A length beyond [`MAX_LEN`].
    TooLarge(usize),
}

/// Appends a `u16`, little-endian.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`, little-endian.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a [`Timestamp`] as its microsecond count.
#[inline]
pub fn put_timestamp(buf: &mut Vec<u8>, t: Timestamp) {
    put_u64(buf, t.as_micros());
}

/// Appends a string: `u32` byte length, then UTF-8.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a tagged value.
#[inline]
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(TAG_INT);
            put_u64(buf, *i as u64);
        }
        Value::Float(x) => {
            buf.push(TAG_FLOAT);
            put_u64(buf, x.to_bits());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_str(buf, s);
        }
    }
}

/// Appends a tuple's values — not its arity, whose width is the format's.
#[inline]
pub fn put_values(buf: &mut Vec<u8>, values: &[Value]) {
    for v in values {
        put_value(buf, v);
    }
}

/// A bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

// The `#[inline]`s on the data path are measured, not decoration: without
// them the wire's run decoder (`FrameReader::take_data`) costs about twice
// as much per frame (`micro_wire`).
impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > MAX_LEN {
            return Err(CodecError::TooLarge(n));
        }
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Reads a byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a [`Timestamp`] stored as its microsecond count.
    #[inline]
    pub fn timestamp(&mut self) -> Result<Timestamp, CodecError> {
        self.u64().map(Timestamp::from_micros)
    }

    /// Reads a `u32` length, at most [`MAX_LEN`].
    #[inline]
    pub fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > MAX_LEN {
            return Err(CodecError::TooLarge(n));
        }
        Ok(n)
    }

    /// Reads a string, borrowed from the input.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.len_prefix()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a tagged value.
    #[inline]
    pub fn value(&mut self) -> Result<Value, CodecError> {
        Ok(match self.u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(self.u8()? != 0),
            TAG_INT => Value::Int(self.u64()? as i64),
            TAG_FLOAT => Value::Float(f64::from_bits(self.u64()?)),
            TAG_STR => Value::Str(SharedStr::new(self.str()?)),
            other => return Err(CodecError::UnknownTag(other)),
        })
    }

    /// Reads the values of a tuple of `arity`, which the caller read in
    /// its format's width. Up to two values are decoded into the tuple
    /// itself, with no allocation; more go straight into one shared slice,
    /// which an exact-length iterator sizes up front.
    #[inline]
    pub fn tuple(&mut self, arity: usize) -> Result<Tuple, CodecError> {
        if arity > self.remaining() {
            // Each value takes at least its tag byte, so the claim cannot
            // be met: decode what is there for the error it ends in, and
            // allocate nothing in proportion to the claim.
            for _ in 0..arity {
                self.value()?;
            }
            return Err(CodecError::UnexpectedEof);
        }
        // A failed value stands in as `Null`, and the ones after it are not
        // read; the tuple is then dropped for the error.
        let mut failed = None;
        let tuple = Tuple::new((0..arity).map(|_| {
            if failed.is_some() {
                return Value::Null;
            }
            self.value().unwrap_or_else(|e| {
                failed = Some(e);
                Value::Null
            })
        }));
        match failed {
            None => Ok(tuple),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_arity_beyond_the_input_fails_with_the_first_values_error() {
        // Two whole values, then a bad tag, under a claimed arity of 1000.
        let mut buf = vec![TAG_NULL, TAG_BOOL, 1, 77];
        assert_eq!(Reader::new(&buf).tuple(1000), Err(CodecError::UnknownTag(77)));
        buf.pop();
        assert_eq!(Reader::new(&buf).tuple(1000), Err(CodecError::UnexpectedEof));
        // Within the input, a bad value mid-tuple is the tuple's error.
        buf.extend_from_slice(&[77, TAG_NULL, TAG_NULL]);
        assert_eq!(Reader::new(&buf).tuple(4), Err(CodecError::UnknownTag(77)));
    }
}
