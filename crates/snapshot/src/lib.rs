//! # cqs-snapshot — crash-recoverable snapshots for summaries and sweeps
//!
//! A dependency-free, versioned, length-framed binary wire format with
//! per-section CRC32 checksums, plus atomic write-temp-then-rename
//! persistence and a typed [`RestoreError`] taxonomy so that every
//! corruption is *detected and reported*, never silently restored.
//!
//! ## Wire format (version 1)
//!
//! ```text
//! header:   magic "CQSS" (4) | version u32 LE | kind [u8;4]
//! section*: tag [u8;4] | payload_len u64 LE | payload | crc32 u32 LE
//! ```
//!
//! The CRC32 (IEEE polynomial) of each section covers its tag, length
//! field, and payload, so truncation, torn writes, bit flips, and
//! swapped sections are all caught before any payload is interpreted.
//! All integers are little-endian; floats travel as `f64::to_bits`, so
//! round-trips are bit-exact and restored sweeps render byte-identical
//! CSV output. See DESIGN.md §5.3 for the full specification.
//!
//! ## Who implements it
//!
//! [`SnapshotWrite`]/[`SnapshotRead`] are implemented here for the GK,
//! greedy-GK, MRL, and CKMS summaries (over `u64` and universe
//! [`Item`](cqs_universe::Item) streams) and for the adversary's live
//! [`StreamState`](cqs_core::StreamState) (summary + arrival tags).
//! `cqs-bench` layers sweep checkpoints on top for `--resume`.
//!
//! ## Atomicity and fallback
//!
//! [`atomic::write_atomic`] is the single sanctioned way to put bytes on
//! disk (the `snapshot-atomicity` lint flags direct `File::create` on
//! checkpoint paths); [`atomic::save_rotating`] keeps the previous good
//! generation as `<file>.prev`, and [`atomic::restore_with_fallback`]
//! degrades gracefully: corrupt latest → previous generation → cold
//! start, with every rejection recorded as a typed event.

pub mod atomic;
mod error;
mod stream;
mod summaries;
mod traits;
mod wire;

pub use error::RestoreError;
pub use traits::{SnapshotItem, SnapshotRead, SnapshotWrite};
pub use wire::{
    crc32, Decoder, Encoder, SnapshotReader, SnapshotWriter, HEADER_LEN, MAGIC, VERSION,
};
