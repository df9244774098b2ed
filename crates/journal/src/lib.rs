//! `qrio-journal` — an append-only write-ahead log with a versioned,
//! length-prefixed, checksummed binary record format.
//!
//! This crate is the durability substrate for the QRIO orchestrator: every
//! acknowledged mutation is framed as a [`Record`] and appended to a
//! [`Journal`] file, and periodic snapshot records bound how much tail must be
//! replayed after a crash. The crate is deliberately *domain-agnostic*: record
//! kinds and payload codecs are defined by the embedding application (see the
//! `durability` module in the `qrio` crate), while this layer owns framing,
//! checksumming, torn-tail detection and file management.
//!
//! # Layers
//!
//! * `qrio-bytes` — the [`ByteWriter`]/[`ByteReader`] primitives, the CRC-32
//!   checksum and the frame shape (`prefix ‖ len ‖ payload ‖ crc32`), shared
//!   with the wire format and re-exported here.
//! * [`wal`] — the on-disk format: file header, record prefix,
//!   [`scan_bytes`] validation with [`TornTail`] reporting, and the
//!   [`Journal`] append handle.
//!
//! # Crash semantics
//!
//! Appends are written through to the OS immediately; [`Journal::sync`]
//! additionally forces them to stable storage. A process crash can therefore
//! leave at most one torn record at the end of the file, which
//! [`Journal::open`] truncates away — exactly the write-ahead-log contract: a
//! record that never finished writing was never acknowledged to a caller.
//! Note that QRIO's virtual-time simulation harness never calls `sync` (a
//! simulated crash is a process-level drop, not a power loss), so power-loss
//! durability in a real deployment requires a `sync` per acknowledgement
//! batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod wal;

pub use error::JournalError;
pub use qrio_bytes::{crc32, fnv1a, ByteReader, ByteWriter, CodecError};
pub use wal::{
    encode_record, header_bytes, looks_like_journal, scan_bytes, scan_file, Journal, Record,
    ScanReport, TornTail, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
