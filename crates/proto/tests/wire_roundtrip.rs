//! Wire-layer round-trip properties: every `NodeCommand`/`NodeReport`
//! variant must survive encode→decode bit-exactly (including unicode device
//! names and max-width telemetry), and corrupted envelopes must fail with
//! typed errors, never panics.

use proptest::prelude::*;

use qrio_proto::{
    decode_stream, Envelope, FaultSpec, NodeCommand, NodeReport, Payload, ProtoError, RunPayload,
    RunVerdict, TelemetryFrame, WireFaultKind, PROTO_VERSION,
};

fn lossy_string(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// One command of each variant, parameterized on fuzzed inputs.
fn all_commands(name: &str, seed: u64, rate_bits: u64, text: &str) -> Vec<NodeCommand> {
    vec![
        NodeCommand::Bind {
            backend_spec: text.to_string(),
            injector: Some(FaultSpec {
                seed,
                transient_rate: f64::from_bits(rate_bits),
                calibration_rate: 0.25,
                slow_rate: -0.0,
                flap_rate: f64::NAN,
            }),
        },
        NodeCommand::Bind {
            backend_spec: String::new(),
            injector: None,
        },
        NodeCommand::Run {
            payload: RunPayload {
                job: name.to_string(),
                attempt: (seed & 0xFFFF_FFFF) as u32,
                image_name: text.to_string(),
                image_files: vec![
                    ("circuit.qasm".to_string(), text.to_string()),
                    (name.to_string(), String::new()),
                ],
                qasm: text.to_string(),
                num_qubits: seed,
                shots: u64::MAX,
                threads: 0,
            },
        },
        NodeCommand::Cancel {
            job: name.to_string(),
            reason: text.to_string(),
        },
        NodeCommand::Recalibrate {
            backend_spec: text.to_string(),
        },
        NodeCommand::Cordon,
        NodeCommand::Uncordon,
        NodeCommand::Probe,
    ]
}

/// One report of each variant, parameterized on fuzzed inputs.
fn all_reports(name: &str, seed: u64, rate_bits: u64, text: &str) -> Vec<NodeReport> {
    let mut reports = vec![
        NodeReport::Phase {
            job: name.to_string(),
            attempt: (seed & 0xFFFF) as u32,
            verdict: RunVerdict::Succeeded {
                counts: vec![("0101".to_string(), u64::MAX), (text.to_string(), 0)],
                fidelity: Some(f64::from_bits(rate_bits)),
                logs: vec![text.to_string(), String::new()],
            },
        },
        NodeReport::Phase {
            job: name.to_string(),
            attempt: 0,
            verdict: RunVerdict::Succeeded {
                counts: vec![],
                fidelity: None,
                logs: vec![],
            },
        },
        NodeReport::Phase {
            job: name.to_string(),
            attempt: u32::MAX,
            verdict: RunVerdict::Failed {
                reason: text.to_string(),
            },
        },
        NodeReport::Phase {
            job: name.to_string(),
            attempt: 1,
            verdict: RunVerdict::Rejected {
                reason: text.to_string(),
            },
        },
        // Max-width telemetry: every field at the edge of its range.
        NodeReport::Telemetry {
            frame: TelemetryFrame {
                queue_depth: u64::MAX,
                utilization: f64::from_bits(rate_bits),
                health_penalty: f64::MAX,
            },
        },
        NodeReport::Calibration { revision: u64::MAX },
        NodeReport::Status {
            cordoned: seed % 2 == 0,
            executed: seed,
            calibration_revision: seed.wrapping_mul(3),
        },
    ];
    for kind in WireFaultKind::ALL {
        reports.push(NodeReport::Phase {
            job: name.to_string(),
            attempt: 2,
            verdict: RunVerdict::Faulted { kind },
        });
    }
    reports
}

fn assert_round_trip(envelope: &Envelope) {
    let bytes = envelope.encode();
    let (decoded, consumed) = Envelope::decode(&bytes).expect("well-formed frame must decode");
    assert_eq!(consumed, bytes.len());
    // Fixed point: re-encoding the decoded envelope is byte-identical. This
    // is deliberately a *byte* comparison, not `PartialEq` — floats travel as
    // bit patterns, so NaN payloads round-trip even though `NaN != NaN`.
    assert_eq!(decoded.encode(), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_variant_round_trips_with_fuzzed_payloads(
        seq in 0u64..=u64::MAX,
        virtual_ts in 0u64..=u64::MAX,
        seed in 0u64..=u64::MAX,
        rate_bits in 0u64..=u64::MAX,
        node_bytes in proptest::collection::vec(0u8..=255, 0..48),
        text_bytes in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        // Lossy UTF-8 exercises multi-byte sequences, replacement chars and
        // embedded NULs — the "unicode device names" requirement.
        let node_id = lossy_string(&node_bytes);
        let text = lossy_string(&text_bytes);

        for command in all_commands(&node_id, seed, rate_bits, &text) {
            assert_round_trip(&Envelope {
                seq,
                node_id: node_id.clone(),
                virtual_ts,
                payload: Payload::Command(command),
            });
        }
        for report in all_reports(&node_id, seed, rate_bits, &text) {
            assert_round_trip(&Envelope {
                seq,
                node_id: node_id.clone(),
                virtual_ts,
                payload: Payload::Report(report),
            });
        }
    }

    #[test]
    fn corrupted_envelopes_give_typed_errors_never_panics(
        flip_byte in 0usize..=4096,
        flip_bit in 0u32..8,
        truncate_at in 0usize..=4096,
    ) {
        let envelope = Envelope {
            seq: 7,
            node_id: "осциллятор-7".into(),
            virtual_ts: 99,
            payload: Payload::Report(NodeReport::Phase {
                job: "shor-2048".into(),
                attempt: 3,
                verdict: RunVerdict::Faulted { kind: WireFaultKind::Flap },
            }),
        };
        let bytes = envelope.encode();

        // Single-bit corruption anywhere in the frame must be detected.
        let mut corrupt = bytes.clone();
        let at = flip_byte % corrupt.len();
        corrupt[at] ^= 1 << flip_bit;
        prop_assert!(Envelope::decode(&corrupt).is_err());

        // Truncation at any point must be a typed error.
        let cut = truncate_at % bytes.len();
        match Envelope::decode(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "truncated frame decoded at cut {}", cut),
        }
    }
}

#[test]
fn unicode_device_names_survive_verbatim() {
    for name in ["ibmq-kawasaki-川崎", "δοκιμή", "🧲-trap", "n\u{0}ul"] {
        let envelope = Envelope {
            seq: 0,
            node_id: name.into(),
            virtual_ts: 0,
            payload: Payload::Command(NodeCommand::Cordon),
        };
        assert_round_trip(&envelope);
        let (decoded, _) = Envelope::decode(&envelope.encode()).unwrap();
        assert_eq!(decoded, envelope);
    }
}

#[test]
fn streams_decode_in_order_and_reject_mid_stream_corruption() {
    let mut stream = Vec::new();
    for seq in 0..5u64 {
        stream.extend_from_slice(
            &Envelope {
                seq,
                node_id: "node-a".into(),
                virtual_ts: seq,
                payload: Payload::Command(NodeCommand::Probe),
            }
            .encode(),
        );
    }
    let decoded = decode_stream(&stream).unwrap();
    assert_eq!(
        decoded.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4]
    );

    // Corrupt a byte inside the third frame: the stream decoder must surface
    // a typed error rather than silently skipping.
    let frame_len = stream.len() / 5;
    stream[2 * frame_len + frame_len / 2] ^= 0xFF;
    assert!(decode_stream(&stream).is_err());
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let mut bytes = Envelope {
        seq: 0,
        node_id: "node-a".into(),
        virtual_ts: 0,
        payload: Payload::Command(NodeCommand::Probe),
    }
    .encode();
    bytes[8] = PROTO_VERSION as u8 + 1;
    bytes[9] = 0;
    assert!(matches!(
        Envelope::decode(&bytes),
        Err(ProtoError::UnsupportedVersion { .. })
    ));
}

/// One frame each of `Bind`, `Run`, `Phase{Succeeded}` and `Telemetry`.
fn golden_envelopes() -> Vec<Envelope> {
    let envelope = |seq: u64, payload: Payload| Envelope {
        seq,
        node_id: "dev-α".into(),
        virtual_ts: 40 + seq,
        payload,
    };
    vec![
        envelope(
            0,
            Payload::Command(NodeCommand::Bind {
                backend_spec: "name = dev\nqubits = 2\n".into(),
                injector: Some(FaultSpec {
                    seed: 7,
                    transient_rate: 0.25,
                    calibration_rate: 0.125,
                    slow_rate: 0.0625,
                    flap_rate: 0.03125,
                }),
            }),
        ),
        envelope(
            1,
            Payload::Command(NodeCommand::Run {
                payload: RunPayload {
                    job: "golden".into(),
                    attempt: 2,
                    image_name: "qrio/golden:latest".into(),
                    image_files: vec![
                        ("circuit.qasm".into(), "OPENQASM 2.0;\n".into()),
                        ("run.py".into(), "run_job()\n".into()),
                    ],
                    qasm: "OPENQASM 2.0;\nqreg q[2];\n".into(),
                    num_qubits: 2,
                    shots: 16,
                    threads: 1,
                },
            }),
        ),
        envelope(
            0,
            Payload::Report(NodeReport::Phase {
                job: "golden".into(),
                attempt: 2,
                verdict: RunVerdict::Succeeded {
                    counts: vec![("00".into(), 9), ("11".into(), 7)],
                    fidelity: Some(0.875),
                    logs: vec!["pulled image".into(), "16 shots".into()],
                },
            }),
        ),
        envelope(
            1,
            Payload::Report(NodeReport::Telemetry {
                frame: TelemetryFrame {
                    queue_depth: 3,
                    utilization: 0.5,
                    health_penalty: 0.25,
                },
            }),
        ),
    ]
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| (b as char).to_digit(16).expect("hex digit") as u8)
        .collect();
    digits
        .chunks(2)
        .map(|pair| pair[0] << 4 | pair[1])
        .collect()
}

/// The round trips above would all survive a self-consistent format change;
/// these frames were captured from the build that introduced
/// `PROTO_VERSION = 1` and must keep encoding and decoding exactly.
#[test]
fn golden_frames_pin_the_wire_format() {
    for (envelope, fixture) in golden_envelopes().iter().zip(GOLDEN_FRAMES) {
        let fixture = unhex(fixture);
        assert_eq!(envelope.encode(), fixture, "{}", envelope.seq);
        let (decoded, consumed) = Envelope::decode(&fixture).unwrap();
        assert_eq!(consumed, fixture.len());
        assert_eq!(&decoded, envelope);
    }
}

const GOLDEN_FRAMES: [&str; 4] = [
    "\
     5152494f50524f54010067000000000000000000000006000000000000006465762dceb1280000000000 \
     0000000016000000000000006e616d65203d206465760a717562697473203d20320a0107000000000000 \
     00000000000000d03f000000000000c03f000000000000b03f000000000000a03fb9fc27f2",
    "\
     5152494f50524f540100d7000000010000000000000006000000000000006465762dceb1290000000000 \
     000000010600000000000000676f6c64656e0200000012000000000000007172696f2f676f6c64656e3a \
     6c617465737402000000000000000c00000000000000636972637569742e7161736d0e00000000000000 \
     4f50454e5141534d20322e303b0a060000000000000072756e2e70790a0000000000000072756e5f6a6f \
     6228290a19000000000000004f50454e5141534d20322e303b0a7172656720715b325d3b0a0200000000 \
     00000010000000000000000100000000000000e2c49fa8",
    "\
     5152494f50524f54010094000000000000000000000006000000000000006465762dceb1280000000000 \
     000001000600000000000000676f6c64656e020000000002000000000000000200000000000000303009 \
     0000000000000002000000000000003131070000000000000001000000000000ec3f0200000000000000 \
     0c0000000000000070756c6c656420696d616765080000000000000031362073686f74732e8d79bf",
    "\
     5152494f50524f54010038000000010000000000000006000000000000006465762dceb1290000000000 \
     000001010300000000000000000000000000e03f000000000000d03f88429f13",
];
