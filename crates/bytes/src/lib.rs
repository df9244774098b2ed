//! `qrio-bytes` — the one byte codec of QRIO.
//!
//! The build environment has no crates.io access, so there is no serde: the
//! journal's on-disk records and the control plane's wire frames are
//! hand-rolled, and this dependency-free leaf is the single place that
//! decides what a value looks like as bytes. The conventions are deliberately
//! boring and fixed so that encode→decode→encode is a byte-identical fixed
//! point:
//!
//! * all integers are little-endian; `usize` travels as a `u64`,
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`/`from_bits`), so
//!   every NaN payload and signed zero survives round-trips,
//! * strings, sequences and maps are length-prefixed with a `u64`,
//! * `Option` and enums are prefixed with a one-byte tag,
//! * structs are their fields in declaration-of-format order, nothing else.
//!
//! # Layers
//!
//! * [`codec`] — [`ByteWriter`]/[`ByteReader`] primitives, [`CodecError`]
//!   the [`crc32`] checksum and the [`fnv1a`] name hash.
//! * [`encode`] — the [`Encode`]/[`Decode`] trait pair, generic impls for
//!   scalars and containers, and the [`codec_struct!`]/[`codec_enum!`]
//!   "derives" that let each type state its format once, beside its
//!   definition.
//! * [`frame`] — [`seal`]/[`open`]: the `prefix ‖ len:u32 ‖ payload ‖
//!   crc32(all before)` frame shared by journal records and wire envelopes.
//!
//! ```
//! use qrio_bytes::{codec_enum, codec_struct, from_bytes, to_bytes};
//!
//! #[derive(Debug, PartialEq)]
//! struct Sample { device: String, depth: Option<u64>, verdict: Verdict }
//! #[derive(Debug, PartialEq)]
//! enum Verdict { Ok, Failed { reason: String } }
//!
//! codec_struct!(Sample { device, depth, verdict });
//! codec_enum!(Verdict { 0 => Ok, 1 => Failed { reason } });
//!
//! let sample = Sample {
//!     device: "ibmq-lima".into(),
//!     depth: Some(3),
//!     verdict: Verdict::Failed { reason: "flap".into() },
//! };
//! assert_eq!(from_bytes::<Sample>(&to_bytes(&sample)).unwrap(), sample);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod encode;
pub mod frame;

pub use codec::{crc32, fnv1a, ByteReader, ByteWriter, CodecError};
pub use encode::{from_bytes, to_bytes, Decode, Encode, Wide32};
pub use frame::{open, payload_len, seal, Frame, FrameError, CRC_BYTES, LEN_BYTES};
