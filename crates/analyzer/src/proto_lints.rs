//! Lints over control-plane envelope traces (`qrio-proto` frame streams):
//! the QL06xx family.
//!
//! A trace is the flight recorder of the orchestrator ↔ node-agent
//! conversation: concatenated encoded [`Envelope`] frames in both
//! directions, as recorded by `Qrio::enable_control_trace`. These lints
//! replay the conversation's *bookkeeping* — sequence numbers, bindings,
//! cordon state — without executing anything.
//!
//! * **QL0600** (error) — envelope sequence numbers are per node *and* per
//!   direction and must be dense (`0, 1, 2, ...` from the first frame
//!   observed). A gap means a message was dropped; going backwards means
//!   frames were reordered or duplicated.
//! * **QL0601** (error) — an agent reported a [`NodeReport::Phase`] verdict
//!   for a job the trace never dispatched to that node with a `Run` command:
//!   the report is orphaned, or the trace was truncated at the front.
//! * **QL0602** (warning) — the orchestrator sent a `Run` command to a node
//!   after `Cordon` and before any `Uncordon`. The agent runs it all the
//!   same — cordoning gates *scheduling*, not work already bound — so the
//!   job executes on a device the operator took out of service: usually a
//!   reconcile-loop bug.
//! * **QL0603** (error) — a frame's header declares a wire version this
//!   build does not speak. The frame is skipped (the header is
//!   version-independent) and scanning continues behind it.
//! * **QL0604** (error) — the trace is not a QRIOPROT frame stream at all,
//!   or a frame is corrupt (bad magic, bad checksum, truncated, undecodable
//!   payload). Scanning stops at the first such frame: byte lengths past it
//!   are untrustworthy.
//! * **QL0605** (error) — the orchestrator sent a `Run` command to a node
//!   before the `Phase` report answering that node's previous `Run` (same
//!   job, same attempt). A tick sends every device's `Run` before it waits
//!   for any verdict, so the one thing keeping two runs off a device is that
//!   each is collected before the next is sent: at most one run in flight
//!   per device.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use qrio_proto::{Envelope, FrameHeader, NodeCommand, NodeReport, Payload, ProtoError};

use crate::diag::{Diagnostic, LintCode, Location};

/// Message direction, derived from the envelope payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Direction {
    Command,
    Report,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::Command => "command",
            Direction::Report => "report",
        }
    }
}

/// Lint a control-plane trace's full byte image: a concatenation of encoded
/// envelope frames, both directions interleaved in transport order.
/// `subject` names the trace in the diagnostics (usually its file path).
pub fn lint_envelope_trace_bytes(subject: &str, bytes: &[u8]) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();

    // Decode pass: peel frames off the stream, skipping (and flagging)
    // version-mismatched ones, stopping at corruption.
    let mut envelopes: Vec<Envelope> = Vec::new();
    let mut cursor = 0usize;
    let mut frame_index = 0usize;
    while cursor < bytes.len() {
        let context = format!("frame #{frame_index} at byte {cursor}");
        match Envelope::decode(&bytes[cursor..]) {
            Ok((envelope, consumed)) => {
                envelopes.push(envelope);
                cursor += consumed;
            }
            Err(ProtoError::UnsupportedVersion { found, supported }) => {
                diagnostics.push(Diagnostic::new(
                    LintCode::EnvelopeVersionMismatch,
                    Location::at(subject, &context),
                    format!("frame version {found} (this build speaks {supported})"),
                ));
                // The prefix (magic + version + length) is stable across
                // versions, so the frame can be stepped over.
                match FrameHeader::peek(&bytes[cursor..]) {
                    Ok(header) => cursor += header.frame_len,
                    Err(_) => break,
                }
            }
            Err(err) => {
                diagnostics.push(Diagnostic::new(
                    LintCode::MalformedEnvelopeTrace,
                    Location::at(subject, &context),
                    err.to_string(),
                ));
                break;
            }
        }
        frame_index += 1;
    }

    // Bookkeeping pass over the successfully decoded conversation.
    let mut next_seq: BTreeMap<(String, Direction), u64> = BTreeMap::new();
    let mut dispatched: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut cordoned: BTreeMap<String, bool> = BTreeMap::new();
    let mut in_flight: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for (index, envelope) in envelopes.iter().enumerate() {
        let direction = match &envelope.payload {
            Payload::Command(_) => Direction::Command,
            Payload::Report(_) => Direction::Report,
        };
        let context = format!(
            "envelope #{index} ({} '{}' seq {})",
            direction.name(),
            envelope.node_id,
            envelope.seq
        );

        // QL0600: per-node, per-direction dense sequencing. The first frame
        // observed for a stream sets its base — a trace may legitimately
        // start mid-conversation.
        let key = (envelope.node_id.clone(), direction);
        match next_seq.get(&key) {
            Some(&expected) if envelope.seq != expected => {
                diagnostics.push(Diagnostic::new(
                    LintCode::EnvelopeSeqGap,
                    Location::at(subject, &context),
                    format!(
                        "expected {} seq {expected} for node '{}', found {}",
                        direction.name(),
                        envelope.node_id,
                        envelope.seq
                    ),
                ));
            }
            _ => {}
        }
        next_seq.insert(key, envelope.seq + 1);

        match &envelope.payload {
            Payload::Command(command) => {
                match command {
                    NodeCommand::Run { payload } => {
                        // QL0602 first: the run is recorded as dispatched
                        // either way, since the agent still answers it.
                        if cordoned.get(&envelope.node_id).copied().unwrap_or(false) {
                            diagnostics.push(Diagnostic::new(
                                LintCode::CommandAfterCordon,
                                Location::at(subject, &context),
                                format!(
                                    "Run '{}' sent to cordoned node '{}'",
                                    payload.job, envelope.node_id
                                ),
                            ));
                        }
                        // QL0605: the node's previous run must have been
                        // answered.
                        let run = (payload.job.clone(), payload.attempt);
                        if let Some((job, attempt)) =
                            in_flight.insert(envelope.node_id.clone(), run)
                        {
                            diagnostics.push(Diagnostic::new(
                                LintCode::RunAlreadyInFlight,
                                Location::at(subject, &context),
                                format!(
                                    "Run '{}' sent to node '{}' while Run '{job}' attempt {attempt} is unanswered",
                                    payload.job, envelope.node_id
                                ),
                            ));
                        }
                        dispatched
                            .entry(envelope.node_id.clone())
                            .or_default()
                            .push(payload.job.clone());
                    }
                    NodeCommand::Cordon => {
                        cordoned.insert(envelope.node_id.clone(), true);
                    }
                    NodeCommand::Uncordon => {
                        cordoned.insert(envelope.node_id.clone(), false);
                    }
                    _ => {}
                }
            }
            Payload::Report(NodeReport::Phase { job, attempt, .. }) => {
                let answered = in_flight.get(&envelope.node_id);
                if answered.is_some_and(|(sent, tried)| sent == job && tried == attempt) {
                    in_flight.remove(&envelope.node_id);
                }
                // QL0601: a phase verdict must answer a Run this trace saw.
                let known = dispatched
                    .get(&envelope.node_id)
                    .is_some_and(|jobs| jobs.iter().any(|j| j == job));
                if !known {
                    diagnostics.push(Diagnostic::new(
                        LintCode::ReportForUnboundJob,
                        Location::at(subject, &context),
                        format!(
                            "phase verdict for job '{job}' never dispatched to node '{}'",
                            envelope.node_id
                        ),
                    ));
                }
            }
            Payload::Report(_) => {}
        }
    }

    diagnostics
}

/// [`lint_envelope_trace_bytes`] over a file on disk.
pub fn lint_envelope_trace_file(path: &Path) -> Vec<Diagnostic> {
    let subject = path.display().to_string();
    match fs::read(path) {
        Ok(bytes) => lint_envelope_trace_bytes(&subject, &bytes),
        Err(err) => vec![Diagnostic::new(
            LintCode::MalformedEnvelopeTrace,
            Location::subject(&subject),
            format!("cannot read file: {err}"),
        )],
    }
}

/// Whether a byte prefix looks like a control-plane envelope trace (starts
/// with the `QRIOPROT` frame magic).
pub fn looks_like_envelope_trace(prefix: &[u8]) -> bool {
    prefix.len() >= qrio_proto::PROTO_MAGIC.len()
        && prefix[..qrio_proto::PROTO_MAGIC.len()] == qrio_proto::PROTO_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_proto::RunPayload;

    fn envelope(seq: u64, node: &str, payload: Payload) -> Envelope {
        Envelope {
            seq,
            node_id: node.into(),
            virtual_ts: seq,
            payload,
        }
    }

    fn run_command(seq: u64, node: &str, job: &str) -> Envelope {
        run_attempt(seq, node, job, 1)
    }

    fn run_attempt(seq: u64, node: &str, job: &str, attempt: u32) -> Envelope {
        envelope(
            seq,
            node,
            Payload::Command(NodeCommand::Run {
                payload: RunPayload {
                    job: job.into(),
                    attempt,
                    image_name: "img".into(),
                    image_files: vec![],
                    qasm: String::new(),
                    num_qubits: 2,
                    shots: 8,
                    threads: 1,
                },
            }),
        )
    }

    fn phase_report(seq: u64, node: &str, job: &str) -> Envelope {
        envelope(
            seq,
            node,
            Payload::Report(NodeReport::Phase {
                job: job.into(),
                attempt: 1,
                verdict: qrio_proto::RunVerdict::Failed {
                    reason: "test".into(),
                },
            }),
        )
    }

    fn trace(envelopes: &[Envelope]) -> Vec<u8> {
        envelopes.iter().flat_map(Envelope::encode).collect()
    }

    fn codes(diagnostics: &[Diagnostic]) -> Vec<LintCode> {
        diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_conversation_produces_no_diagnostics() {
        let bytes = trace(&[
            envelope(
                0,
                "alpha",
                Payload::Command(NodeCommand::Bind {
                    backend_spec: "spec".into(),
                    injector: None,
                }),
            ),
            envelope(
                0,
                "alpha",
                Payload::Report(NodeReport::Calibration { revision: 1 }),
            ),
            run_command(1, "alpha", "job-1"),
            phase_report(1, "alpha", "job-1"),
        ]);
        assert!(lint_envelope_trace_bytes("clean", &bytes).is_empty());
    }

    #[test]
    fn seq_gap_fires_per_node_and_direction() {
        // alpha's command stream jumps 0 -> 2; beta interleaving its own
        // dense stream must not mask or trigger anything.
        let bytes = trace(&[
            envelope(0, "alpha", Payload::Command(NodeCommand::Probe)),
            envelope(0, "beta", Payload::Command(NodeCommand::Probe)),
            envelope(2, "alpha", Payload::Command(NodeCommand::Probe)),
            envelope(1, "beta", Payload::Command(NodeCommand::Probe)),
        ]);
        assert_eq!(
            codes(&lint_envelope_trace_bytes("gap", &bytes)),
            vec![LintCode::EnvelopeSeqGap]
        );
    }

    #[test]
    fn orphan_phase_report_fires() {
        // The job ran on beta, but alpha reports it.
        let bytes = trace(&[
            run_command(0, "beta", "job-x"),
            phase_report(0, "alpha", "job-x"),
        ]);
        assert_eq!(
            codes(&lint_envelope_trace_bytes("orphan", &bytes)),
            vec![LintCode::ReportForUnboundJob]
        );
    }

    #[test]
    fn run_after_cordon_warns_until_uncordon() {
        let bytes = trace(&[
            envelope(0, "alpha", Payload::Command(NodeCommand::Cordon)),
            run_command(1, "alpha", "job-a"),
            phase_report(0, "alpha", "job-a"),
            envelope(2, "alpha", Payload::Command(NodeCommand::Uncordon)),
            run_command(3, "alpha", "job-b"),
            phase_report(1, "alpha", "job-b"),
        ]);
        assert_eq!(
            codes(&lint_envelope_trace_bytes("cordon", &bytes)),
            vec![LintCode::CommandAfterCordon]
        );
    }

    #[test]
    fn a_second_run_before_the_first_is_answered_fires_per_node() {
        // Pipelined: alpha and beta each have one run in flight, answered out
        // of order — clean. Then alpha gets a second run before its first is
        // answered — and a phase for another attempt of that job does not
        // answer it.
        let bytes = trace(&[
            run_command(0, "alpha", "job-a"),
            run_command(0, "beta", "job-b"),
            phase_report(0, "beta", "job-b"),
            phase_report(0, "alpha", "job-a"),
            run_attempt(1, "alpha", "job-c", 0),
            phase_report(1, "alpha", "job-c"),
            run_command(2, "alpha", "job-d"),
        ]);
        let diagnostics = lint_envelope_trace_bytes("pipelined", &bytes);
        assert_eq!(codes(&diagnostics), vec![LintCode::RunAlreadyInFlight]);
        assert!(
            diagnostics[0].message.contains("'job-c' attempt 0"),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn version_mismatch_is_flagged_and_stepped_over() {
        let good = envelope(0, "alpha", Payload::Command(NodeCommand::Probe));
        let mut bad = good.encode();
        bad[8] = 0x63; // version u16 LE right after the 8-byte magic
        bad[9] = 0x00;
        let mut bytes = bad;
        bytes.extend(trace(&[good]));
        assert_eq!(
            codes(&lint_envelope_trace_bytes("version", &bytes)),
            vec![LintCode::EnvelopeVersionMismatch]
        );
    }

    #[test]
    fn corruption_stops_the_scan() {
        let mut bytes = trace(&[envelope(0, "alpha", Payload::Command(NodeCommand::Probe))]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // break the CRC
        assert_eq!(
            codes(&lint_envelope_trace_bytes("crc", &bytes)),
            vec![LintCode::MalformedEnvelopeTrace]
        );
        assert_eq!(
            codes(&lint_envelope_trace_bytes("garbage", b"not a trace")),
            vec![LintCode::MalformedEnvelopeTrace]
        );
    }

    #[test]
    fn trace_sniffing_matches_the_frame_magic() {
        assert!(looks_like_envelope_trace(b"QRIOPROT plus anything"));
        assert!(!looks_like_envelope_trace(b"QRIOJRNL"));
        assert!(!looks_like_envelope_trace(b"QR"));
    }
}
