//! # qrio-proto
//!
//! Versioned wire format for QRIO control-plane traffic
//! (reproduction of *Empowering the Quantum Cloud User with QRIO*, IISWC
//! 2024). The orchestrator and every node agent speak exclusively through
//! these messages: [`NodeCommand`]s flow down (bind, run, cancel,
//! recalibrate, cordon, probe), [`NodeReport`]s flow up (job phase
//! transitions, telemetry, calibration revisions, status), and both travel
//! inside a checksummed [`Envelope`] frame.
//!
//! The build environment has no crates.io access, so the codec is
//! hand-rolled on `qrio-bytes`, the one codec the journal uses too:
//! magic/version/length/CRC-32 framing, little-endian integers,
//! `u64`-length-prefixed strings, one-byte enum tags. Decoding never panics —
//! every malformed input maps to a typed [`ProtoError`].
//!
//! ```
//! use qrio_proto::{Envelope, NodeCommand, Payload};
//!
//! let env = Envelope {
//!     seq: 0,
//!     node_id: "ibmq-lima".into(),
//!     virtual_ts: 7,
//!     payload: Payload::Command(NodeCommand::Probe),
//! };
//! let bytes = env.encode();
//! let (decoded, consumed) = Envelope::decode(&bytes).unwrap();
//! assert_eq!(consumed, bytes.len());
//! assert_eq!(decoded, env);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;

pub use qrio_bytes::{crc32, ByteReader, ByteWriter, CodecError};
pub use wire::{
    decode_stream, Envelope, FaultSpec, FrameHeader, NodeCommand, NodeReport, Payload, ProtoError,
    RunPayload, RunVerdict, TelemetryFrame, WireFaultKind, FRAME_CRC_LEN, FRAME_PREFIX_LEN,
    PROTO_MAGIC, PROTO_VERSION,
};
