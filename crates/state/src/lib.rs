#![warn(missing_docs)]
// Checkpoint files are untrusted input: a torn write, a flipped byte, or a
// hand-edited manifest must surface as a typed `StateError` so recovery can
// fall back to the previous complete checkpoint — never as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! `hmts-state`: aligned-checkpoint state persistence for the HMTS engine.
//!
//! The pieces, bottom-up:
//!
//! * [`codec`] — a length-prefixed binary reader/writer pair following the
//!   `hmts-net` wire conventions (little-endian fixed-width integers,
//!   tagged dynamic values, typed decode errors — corrupt input is an
//!   [`Err`], never a panic) plus a table-driven CRC-32.
//! * [`blob`] — [`StateBlob`], the versioned, CRC-guarded unit of one
//!   operator's serialized state.
//! * [`checkpoint`] — [`Checkpoint`], a consistent cut of a whole query:
//!   one blob per stateful operator plus the per-source ingest sequence
//!   number at which the checkpoint barrier was injected.
//! * [`store`] — [`CheckpointStore`], atomic persistence (temp file +
//!   fsync + rename) under a manifest with last-`K` retention; loading
//!   skips corrupt files and falls back to the previous complete
//!   checkpoint.
//!
//! The runtime side — barrier injection, alignment, and the coordinator —
//! lives in `hmts::engine`; operators implement [`StatefulOperator`] in
//! `hmts-operators`.

pub mod blob;
pub mod checkpoint;
pub mod codec;
pub mod store;

pub use blob::StateBlob;
pub use checkpoint::Checkpoint;
pub use codec::{crc32, BlobReader, BlobWriter, StateError};
pub use store::CheckpointStore;

/// The snapshot/restore contract of a stateful operator.
///
/// `snapshot` must capture everything `restore` needs to make a freshly
/// constructed operator of the same shape behave identically to the
/// snapshotted one on all future input. Blobs are versioned: `restore`
/// must reject (not panic on) blobs of an unknown version or with a
/// malformed payload.
pub trait StatefulOperator {
    /// Serializes the operator's live state.
    fn snapshot(&self) -> StateBlob;

    /// Replaces the operator's state with the snapshotted one.
    ///
    /// On error the operator may be left partially restored and must be
    /// discarded (the caller falls back to cold state or an older
    /// checkpoint).
    fn restore(&mut self, blob: StateBlob) -> Result<(), StateError>;
}
