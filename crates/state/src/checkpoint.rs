//! [`Checkpoint`]: a consistent cut of a whole query — operator state
//! blobs plus per-source ingest positions — and its file encoding.

use crate::blob::StateBlob;
use crate::codec::{crc32, BlobReader, BlobWriter, StateError};

/// File magic of an encoded checkpoint (`HMCK`).
pub const MAGIC: [u8; 4] = *b"HMCK";
/// Checkpoint container format version.
pub const VERSION: u16 = 1;

/// One completed aligned checkpoint.
///
/// `sources` records, per source, the number of elements emitted *before*
/// the barrier was injected — the exact position an upstream producer must
/// replay from so the restored operator state and the replayed suffix
/// compose into the uninterrupted stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Coordinator-assigned checkpoint number (monotonic per engine).
    pub id: u64,
    /// `(operator name, state blob)` for every stateful operator that
    /// snapshotted at this barrier.
    pub operators: Vec<(String, StateBlob)>,
    /// `(source name, elements emitted before the barrier)` per source.
    pub sources: Vec<(String, u64)>,
}

impl Checkpoint {
    /// The blob snapshotted by `operator`, if any.
    pub fn operator_blob(&self, operator: &str) -> Option<&StateBlob> {
        self.operators.iter().find(|(n, _)| n == operator).map(|(_, b)| b)
    }

    /// The ingest sequence number recorded for `source`, if any.
    pub fn source_offset(&self, source: &str) -> Option<u64> {
        self.sources.iter().find(|(n, _)| n == source).map(|(_, o)| *o)
    }

    /// Encodes the checkpoint into its self-validating file form:
    /// `[magic][version][id][sources][operator blobs][crc32 of all prior]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BlobWriter::new();
        for b in MAGIC {
            w.put_u8(b);
        }
        w.put_u16(VERSION);
        w.put_u64(self.id);
        w.put_u32(self.sources.len() as u32);
        for (name, offset) in &self.sources {
            w.put_str(name);
            w.put_u64(*offset);
        }
        w.put_u32(self.operators.len() as u32);
        for (name, blob) in &self.operators {
            w.put_str(name);
            blob.encode_into(&mut w);
        }
        let mut bytes = w.finish();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Decodes and fully validates an encoded checkpoint. Any corruption —
    /// bad magic, version, CRC, truncation, trailing garbage — is a typed
    /// error, letting the store fall back to an older complete checkpoint.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, StateError> {
        if bytes.len() < MAGIC.len() + 2 + 4 {
            return Err(StateError::UnexpectedEof);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let expected = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        let found = crc32(body);
        if found != expected {
            return Err(StateError::BadCrc { expected, found });
        }
        let mut r = BlobReader::new(body);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(StateError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(StateError::UnsupportedVersion(version));
        }
        let id = r.u64()?;
        let n_sources = r.len_prefix()?;
        let mut sources = Vec::new();
        for _ in 0..n_sources {
            let name = r.string()?;
            let offset = r.u64()?;
            sources.push((name, offset));
        }
        let n_ops = r.len_prefix()?;
        let mut operators = Vec::new();
        for _ in 0..n_ops {
            let name = r.string()?;
            let blob = StateBlob::decode_from(&mut r)?;
            operators.push((name, blob));
        }
        r.expect_end()?;
        Ok(Checkpoint { id, operators, sources })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            id: 17,
            operators: vec![
                ("agg".into(), StateBlob::build(1, |w| w.put_u64(99))),
                ("dedup".into(), StateBlob::build(2, |w| w.put_str("keys"))),
            ],
            sources: vec![("bursty".into(), 12_345)],
        }
    }

    #[test]
    fn round_trip() {
        let ck = sample();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.source_offset("bursty"), Some(12_345));
        assert!(back.source_offset("other").is_none());
        assert_eq!(back.operator_blob("agg").unwrap().version(), 1);
        assert!(back.operator_blob("nope").is_none());
    }

    #[test]
    fn corruption_truncation_and_bad_magic_error() {
        let bytes = sample().encode();

        let mut flipped = bytes.clone();
        flipped[10] ^= 0xff;
        assert!(matches!(Checkpoint::decode(&flipped), Err(StateError::BadCrc { .. })));

        // Truncation breaks the trailing CRC.
        assert!(Checkpoint::decode(&bytes[..bytes.len() / 2]).is_err());
        assert!(matches!(Checkpoint::decode(&[]), Err(StateError::UnexpectedEof)));

        // A correctly CRC-sealed body that is not a checkpoint fails on
        // magic, not CRC.
        let mut sealed = b"NOPExxxxxx".to_vec();
        let crc = crc32(&sealed);
        sealed.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(Checkpoint::decode(&sealed), Err(StateError::BadMagic)));
    }
}
