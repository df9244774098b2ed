//! Control-plane message types and the envelope framing that carries them.
//!
//! Every message travels inside an [`Envelope`] frame — the `qrio-bytes`
//! frame shape that journal records share, under its own prefix:
//!
//! ```text
//! +--------------+---------+---------+------------------+-----------+
//! | magic (8)    | ver u16 | len u32 | payload (len)    | crc32 u32 |
//! | "QRIOPROT"   |         |         |                  |           |
//! +--------------+---------+---------+------------------+-----------+
//! ```
//!
//! The CRC covers everything before it (magic, version, length and payload),
//! so a flipped bit anywhere in the frame is detected. Frames are
//! self-delimiting and may be concatenated into a trace stream; see
//! [`decode_stream`].
//!
//! Decoding never panics: every malformed input maps to a typed
//! [`ProtoError`].

use std::fmt;

use qrio_bytes::{
    codec_enum, codec_struct, from_bytes, open, payload_len, seal, CodecError, Encode, FrameError,
    CRC_BYTES, LEN_BYTES,
};

/// Magic bytes opening every envelope frame.
pub const PROTO_MAGIC: [u8; 8] = *b"QRIOPROT";

/// Version of the wire format emitted by this crate.
pub const PROTO_VERSION: u16 = 1;

/// Bytes before the payload: magic (8) + version (2) + length (4).
pub const FRAME_PREFIX_LEN: usize = MAGIC_VERSION_LEN + LEN_BYTES;

/// Trailing checksum width.
pub const FRAME_CRC_LEN: usize = CRC_BYTES;

/// Bytes of the frame prefix proper: magic (8) + version (2).
const MAGIC_VERSION_LEN: usize = PROTO_MAGIC.len() + 2;

/// Errors surfaced while decoding envelope frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer is shorter than a complete frame.
    Truncated {
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes that were actually available.
        available: usize,
    },
    /// The frame does not open with [`PROTO_MAGIC`].
    BadMagic,
    /// The frame's version is not [`PROTO_VERSION`].
    UnsupportedVersion {
        /// Version found in the frame header.
        found: u16,
        /// Version this crate speaks.
        supported: u16,
    },
    /// The trailing checksum does not match the frame contents.
    CorruptFrame {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the frame bytes.
        computed: u32,
    },
    /// The payload bytes failed structured decoding.
    Payload(CodecError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated frame: needed {needed} bytes, {available} available"
                )
            }
            ProtoError::BadMagic => write!(f, "frame does not start with the QRIOPROT magic"),
            ProtoError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "frame version {found} unsupported (speaking {supported})"
                )
            }
            ProtoError::CorruptFrame { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            ProtoError::Payload(err) => write!(f, "malformed payload: {err}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CodecError> for ProtoError {
    fn from(err: CodecError) -> Self {
        ProtoError::Payload(err)
    }
}

impl From<FrameError> for ProtoError {
    fn from(err: FrameError) -> Self {
        match err {
            FrameError::Truncated { needed, available } => {
                ProtoError::Truncated { needed, available }
            }
            FrameError::Checksum { stored, computed } => {
                ProtoError::CorruptFrame { stored, computed }
            }
        }
    }
}

/// Fault kinds as they travel on the wire, mirroring the cluster's
/// `FaultKind` without depending on it (`qrio-proto` knows no domain crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFaultKind {
    /// A one-off execution failure that succeeds on retry.
    Transient,
    /// The device's calibration drifted; a recalibration fixes it.
    Calibration,
    /// The job ran but blew its latency budget.
    Slow,
    /// The device dropped out mid-run.
    Flap,
}

codec_enum!(WireFaultKind { 0 => Transient, 1 => Calibration, 2 => Slow, 3 => Flap });

impl WireFaultKind {
    /// Every kind, in wire-tag order.
    pub const ALL: [WireFaultKind; 4] = [
        WireFaultKind::Transient,
        WireFaultKind::Calibration,
        WireFaultKind::Slow,
        WireFaultKind::Flap,
    ];

    /// Stable lower-case name, identical to the cluster-side `FaultKind`.
    pub fn name(self) -> &'static str {
        match self {
            WireFaultKind::Transient => "transient",
            WireFaultKind::Calibration => "calibration",
            WireFaultKind::Slow => "slow",
            WireFaultKind::Flap => "flap",
        }
    }
}

/// Fault-injection parameters shipped to an agent in a `Bind` command, so the
/// agent reaches the same pure fault decision the orchestrator would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability of a transient execution fault.
    pub transient_rate: f64,
    /// Probability of a calibration glitch.
    pub calibration_rate: f64,
    /// Probability of a slow-job fault.
    pub slow_rate: f64,
    /// Probability of a device flap.
    pub flap_rate: f64,
}

codec_struct!(FaultSpec {
    seed,
    transient_rate,
    calibration_rate,
    slow_rate,
    flap_rate,
});

/// Everything an agent needs to execute one attempt of one job: the circuit,
/// the image files and the shot budget. Self-contained by design — the agent
/// never reaches back into orchestrator state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPayload {
    /// Job name.
    pub job: String,
    /// Zero-based attempt number (drives the fault decision).
    pub attempt: u32,
    /// Name of the image bundle the files came from.
    pub image_name: String,
    /// The image's files (`path -> contents`), sorted by path.
    pub image_files: Vec<(String, String)>,
    /// The job's circuit as OpenQASM text.
    pub qasm: String,
    /// Number of qubits the job requested.
    pub num_qubits: u64,
    /// Number of shots to execute.
    pub shots: u64,
    /// Worker threads for shot execution (`0` = auto-detect).
    pub threads: u64,
}

codec_struct!(RunPayload {
    job,
    attempt,
    image_name,
    image_files,
    qasm,
    num_qubits,
    shots,
    threads,
});

/// Orchestrator → agent instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeCommand {
    /// Attach (or refresh) the device owned by the agent: backend calibration
    /// as `qrio-backend` spec text, plus the current fault-injection plan.
    Bind {
        /// Backend spec text (`qrio_backend::spec` format).
        backend_spec: String,
        /// Fault-injection parameters; `None` disables injection.
        injector: Option<FaultSpec>,
    },
    /// Execute one attempt of a job.
    Run {
        /// The self-contained work order.
        payload: RunPayload,
    },
    /// Best-effort cancel: drop the named job if it has not started.
    Cancel {
        /// Job name.
        job: String,
        /// Human-readable reason, echoed into agent logs.
        reason: String,
    },
    /// Replace the device calibration with a new backend spec.
    Recalibrate {
        /// Backend spec text (`qrio_backend::spec` format).
        backend_spec: String,
    },
    /// Stop accepting new runs.
    Cordon,
    /// Resume accepting runs.
    Uncordon,
    /// Health probe; the agent answers with [`NodeReport::Status`].
    Probe,
}

codec_enum!(NodeCommand {
    0 => Bind { backend_spec, injector },
    1 => Run { payload },
    2 => Cancel { job, reason },
    3 => Recalibrate { backend_spec },
    4 => Cordon,
    5 => Uncordon,
    6 => Probe,
});

impl NodeCommand {
    /// Stable lower-case name of the command variant.
    pub fn name(&self) -> &'static str {
        match self {
            NodeCommand::Bind { .. } => "bind",
            NodeCommand::Run { .. } => "run",
            NodeCommand::Cancel { .. } => "cancel",
            NodeCommand::Recalibrate { .. } => "recalibrate",
            NodeCommand::Cordon => "cordon",
            NodeCommand::Uncordon => "uncordon",
            NodeCommand::Probe => "probe",
        }
    }
}

/// Outcome of one `Run` command, reported by the agent.
#[derive(Debug, Clone, PartialEq)]
pub enum RunVerdict {
    /// The runner completed; histogram, fidelity and logs attached.
    Succeeded {
        /// Measurement histogram (`bitstring -> count`).
        counts: Vec<(String, u64)>,
        /// Fidelity against the noise-free reference, when computed.
        fidelity: Option<f64>,
        /// Runner log lines.
        logs: Vec<String>,
    },
    /// The runner failed with a human-readable reason.
    Failed {
        /// Failure reason.
        reason: String,
    },
    /// The fault injector fired before the runner started.
    Faulted {
        /// Which fault fired.
        kind: WireFaultKind,
    },
    /// The agent refused the run (unbound device, cancelled job, ...).
    Rejected {
        /// Refusal reason.
        reason: String,
    },
}

codec_enum!(RunVerdict {
    0 => Succeeded { counts, fidelity, logs },
    1 => Failed { reason },
    2 => Faulted { kind },
    3 => Rejected { reason },
});

/// One telemetry sample from an agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryFrame {
    /// Jobs queued on the device.
    pub queue_depth: u64,
    /// Utilization in `[0, 1]`.
    pub utilization: f64,
    /// Health penalty applied by the meta server's ranking.
    pub health_penalty: f64,
}

codec_struct!(TelemetryFrame {
    queue_depth,
    utilization,
    health_penalty,
});

/// Agent → orchestrator reports.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeReport {
    /// A job attempt reached a terminal phase on this device.
    Phase {
        /// Job name.
        job: String,
        /// Attempt number the verdict is for.
        attempt: u32,
        /// What happened.
        verdict: RunVerdict,
    },
    /// Periodic telemetry sample.
    Telemetry {
        /// The sample.
        frame: TelemetryFrame,
    },
    /// Acknowledges a `Bind`/`Recalibrate`: the agent's calibration revision
    /// (bumped every time the backend spec is replaced).
    Calibration {
        /// Monotonic revision counter.
        revision: u64,
    },
    /// Answers a `Probe` (and acknowledges `Cordon`/`Uncordon`/`Cancel`).
    Status {
        /// Whether the agent is refusing new runs.
        cordoned: bool,
        /// Run commands executed so far.
        executed: u64,
        /// Current calibration revision.
        calibration_revision: u64,
    },
}

codec_enum!(NodeReport {
    0 => Phase { job, attempt, verdict },
    1 => Telemetry { frame },
    2 => Calibration { revision },
    3 => Status { cordoned, executed, calibration_revision },
});

impl NodeReport {
    /// Stable lower-case name of the report variant.
    pub fn name(&self) -> &'static str {
        match self {
            NodeReport::Phase { .. } => "phase",
            NodeReport::Telemetry { .. } => "telemetry",
            NodeReport::Calibration { .. } => "calibration",
            NodeReport::Status { .. } => "status",
        }
    }
}

/// Direction-tagged payload of an envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Orchestrator → agent.
    Command(NodeCommand),
    /// Agent → orchestrator.
    Report(NodeReport),
}

codec_enum!(Payload { 0 => Command(command), 1 => Report(report) });

/// One framed control-plane message.
///
/// `seq` is per-node *and* per-direction: the orchestrator numbers the
/// commands it sends each node `0, 1, 2, ...` and each agent independently
/// numbers its reports. A gap in either stream means a message was lost
/// (lint QL0600).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Position in the per-node, per-direction stream.
    pub seq: u64,
    /// Device the message is to (command) or from (report).
    pub node_id: String,
    /// Virtual clock of the sender when the message was emitted.
    pub virtual_ts: u64,
    /// The message itself.
    pub payload: Payload,
}

codec_struct!(Envelope {
    seq,
    node_id,
    virtual_ts,
    payload,
});

impl Envelope {
    /// Encode this envelope as one self-delimiting frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut prefix = [0u8; MAGIC_VERSION_LEN];
        prefix[..PROTO_MAGIC.len()].copy_from_slice(&PROTO_MAGIC);
        prefix[PROTO_MAGIC.len()..].copy_from_slice(&PROTO_VERSION.to_le_bytes());
        seal(&prefix, |w| Encode::encode(self, w))
    }

    /// Decode one envelope from the front of `bytes`.
    ///
    /// Returns the envelope and the number of bytes consumed, so frames can
    /// be peeled off a concatenated stream one at a time.
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a typed [`ProtoError`]; this never
    /// panics.
    pub fn decode(bytes: &[u8]) -> Result<(Envelope, usize), ProtoError> {
        let header = FrameHeader::peek(bytes)?;
        if header.version != PROTO_VERSION {
            return Err(ProtoError::UnsupportedVersion {
                found: header.version,
                supported: PROTO_VERSION,
            });
        }
        let frame = open(bytes, MAGIC_VERSION_LEN)?;
        Ok((from_bytes(frame.payload)?, header.frame_len))
    }
}

/// The fixed-size frame header, readable without decoding the payload.
///
/// Used by stream scanners (and the analyzer's QL06xx lints) to skip over
/// frames whose version they do not speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Wire-format version stored in the frame.
    pub version: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Total frame length (prefix + payload + CRC).
    pub frame_len: usize,
}

impl FrameHeader {
    /// Inspect the frame at the front of `bytes` without validating its
    /// version or checksum.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadMagic`] when the magic is wrong,
    /// [`ProtoError::Truncated`] when fewer bytes are available than the
    /// header (or the declared frame length) requires.
    pub fn peek(bytes: &[u8]) -> Result<FrameHeader, ProtoError> {
        if bytes.len() >= FRAME_PREFIX_LEN && bytes[..PROTO_MAGIC.len()] != PROTO_MAGIC {
            return Err(ProtoError::BadMagic);
        }
        let payload_len = payload_len(bytes, MAGIC_VERSION_LEN)?;
        Ok(FrameHeader {
            version: u16::from_le_bytes([bytes[PROTO_MAGIC.len()], bytes[PROTO_MAGIC.len() + 1]]),
            payload_len,
            frame_len: FRAME_PREFIX_LEN + payload_len + FRAME_CRC_LEN,
        })
    }
}

/// Decode a stream of concatenated envelope frames.
///
/// # Errors
///
/// Fails on the first malformed frame with its typed [`ProtoError`].
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<Envelope>, ProtoError> {
    let mut envelopes = Vec::new();
    let mut cursor = 0;
    while cursor < bytes.len() {
        let (envelope, consumed) = Envelope::decode(&bytes[cursor..])?;
        envelopes.push(envelope);
        cursor += consumed;
    }
    Ok(envelopes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_envelope() -> Envelope {
        Envelope {
            seq: 3,
            node_id: "ibmq-αλμα".into(),
            virtual_ts: 42,
            payload: Payload::Command(NodeCommand::Probe),
        }
    }

    #[test]
    fn frame_layout_is_magic_version_len_payload_crc() {
        let bytes = sample_envelope().encode();
        assert_eq!(&bytes[..8], b"QRIOPROT");
        assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), PROTO_VERSION);
        let len = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]) as usize;
        assert_eq!(bytes.len(), FRAME_PREFIX_LEN + len + FRAME_CRC_LEN);
    }

    #[test]
    fn concatenated_frames_decode_as_a_stream() {
        let mut stream = Vec::new();
        for seq in 0..4u64 {
            let mut env = sample_envelope();
            env.seq = seq;
            stream.extend_from_slice(&env.encode());
        }
        let decoded = decode_stream(&stream).unwrap();
        assert_eq!(decoded.len(), 4);
        assert_eq!(decoded[3].seq, 3);
    }

    #[test]
    fn version_mismatch_is_detected_before_crc() {
        let mut bytes = sample_envelope().encode();
        bytes[8] = 9;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(ProtoError::UnsupportedVersion {
                found: 9,
                supported: PROTO_VERSION
            })
        ));
        // The header peek still works, so scanners can skip the frame.
        let header = FrameHeader::peek(&bytes).unwrap();
        assert_eq!(header.version, 9);
    }

    #[test]
    fn flipped_bits_anywhere_are_typed_errors_never_panics() {
        let bytes = sample_envelope().encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(Envelope::decode(&corrupt).is_err(), "flip at {i}");
        }
    }
}
