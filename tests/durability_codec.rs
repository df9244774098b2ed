//! Round-trip property tests for the durability codec: every journaled
//! record type must survive encode → decode → encode as a byte-identical
//! fixed point, so a journal written today replays bit-exactly tomorrow.

use proptest::prelude::*;

use qrio::durability::{
    decode_command, decode_record, encode_command_record, events_digest, Command, CommandRecord,
    JournalEntry, SnapshotState, RECORD_COMMAND, RECORD_VERSION,
};
use qrio::{
    BreakerConfig, Cause, DeviceTelemetry, DurabilityConfig, JobEvent, JobId, JobRequestBuilder,
    JobState, ServiceModel,
};
use qrio_backend::{topology, Backend};
use qrio_bytes::{from_bytes, to_bytes};
use qrio_circuit::library;
use qrio_cluster::{
    BackoffPolicy, ClusterError, DeviceRequirements, FaultInjector, FaultKind, ParamValue,
    Resources, RetryOn, RetryPolicy, StrategySpec,
};
use qrio_journal::{encode_record, header_bytes, scan_bytes, scan_file, Record};
use qrio_sim::ParallelConfig;

/// Deterministic splitmix-style generator so every proptest case derives a
/// full value tree from one integer seed.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn arb_string(state: &mut u64, prefix: &str) -> String {
    // Exercise the UTF-8 path: plain ASCII, an accented char and an emoji.
    let decorations = ["", "-é", "-⚛", "-qpu"];
    format!(
        "{prefix}{}{}",
        next(state) % 100,
        decorations[(next(state) % 4) as usize]
    )
}

fn arb_opt_str(state: &mut u64, prefix: &str) -> Option<String> {
    if next(state) % 2 == 0 {
        Some(arb_string(state, prefix))
    } else {
        None
    }
}

fn arb_state(state: &mut u64) -> JobState {
    JobState::ALL[(next(state) % JobState::ALL.len() as u64) as usize]
}

fn arb_error(state: &mut u64) -> ClusterError {
    let job = arb_string(state, "job-");
    match next(state) % 3 {
        0 => ClusterError::InjectedFault {
            job,
            node: arb_string(state, "node-"),
            kind: FaultKind::ALL[(next(state) % 4) as usize],
            attempt: (next(state) % 5) as u32,
        },
        1 => ClusterError::DeadlineExceeded {
            job,
            deadline: next(state) % 1_000,
        },
        _ => ClusterError::ExecutionFailed {
            job,
            reason: arb_string(state, "because "),
        },
    }
}

/// Every kind of cause, or none.
fn arb_cause(state: &mut u64) -> Option<Box<Cause>> {
    let cause = match next(state) % 6 {
        0 => return None,
        1 => Cause::Failed(arb_error(state)),
        2 => Cause::Attempt {
            n: (next(state) % 9) as u32,
            error: arb_error(state),
            backoff: next(state) % 500,
        },
        3 => Cause::BackoffElapsed,
        4 => Cause::Cancelled,
        _ => Cause::Rebound {
            from: arb_string(state, "node-"),
            to: arb_string(state, "node-"),
        },
    };
    Some(Box::new(cause))
}

fn arb_event(state: &mut u64, seq: u64) -> JobEvent {
    JobEvent {
        seq,
        at: next(state) % 1_000,
        job: JobId::new(arb_string(state, "job-")),
        from: if next(state) % 3 == 0 {
            None
        } else {
            Some(arb_state(state))
        },
        to: arb_state(state),
        node: arb_opt_str(state, "node-"),
        cause: arb_cause(state),
    }
}

fn arb_request(state: &mut u64) -> qrio::JobRequest {
    let secret = next(state) % 8;
    let circuit = library::bernstein_vazirani(3, secret).expect("library circuit");
    let mut requirements = DeviceRequirements::none();
    if next(state) % 2 == 0 {
        requirements.min_qubits = Some((next(state) % 16) as usize);
    }
    if next(state) % 2 == 0 {
        requirements.max_two_qubit_error = Some((next(state) % 1000) as f64 / 1000.0);
    }
    if next(state) % 2 == 0 {
        requirements.min_t1_us = Some((next(state) % 500) as f64);
    }
    let mut builder = JobRequestBuilder::new()
        .with_circuit(&circuit)
        .job_name(arb_string(state, "codec-"))
        .image_name(arb_string(state, "img-"))
        .resources(100 + next(state) % 4000, 64 + next(state) % 2048)
        .requirements(requirements)
        .priority((next(state) % 256) as u8)
        .shots(1 + next(state) % 4096)
        .parallelism(ParallelConfig::with_threads((next(state) % 5) as usize));
    builder = match next(state) % 3 {
        0 => builder.fidelity_target((next(state) % 1000) as f64 / 1000.0),
        1 => builder.min_queue(),
        _ => {
            let mut spec = StrategySpec::new(arb_string(state, "strategy-"));
            spec.params.set("target", ParamValue::Float(0.25));
            spec.params.set("width", ParamValue::Int(next(state) % 32));
            spec.params
                .set("note", ParamValue::Text(arb_string(state, "t-")));
            spec.params
                .set("edges", ParamValue::Edges(vec![(0, 1), (1, 2)]));
            builder.strategy(spec)
        }
    };
    builder.build().expect("request builds")
}

/// A snapshot of a small orchestrator: a device, maybe a queued job, maybe
/// a breaker board.
fn arb_snapshot(state: &mut u64) -> Record {
    let mut qrio = qrio::Qrio::new();
    qrio.add_device(Backend::uniform("dev", topology::line(3), 0.002, 0.01))
        .unwrap();
    if next(state) % 2 == 0 {
        // An unregistered strategy name is refused; the snapshot then simply
        // holds no job.
        let _ = qrio.enqueue(&arb_request(state));
    }
    if next(state) % 2 == 0 {
        qrio.configure_breakers(Some(BreakerConfig::default()))
            .unwrap();
    }
    qrio.snapshot_record()
}

fn arb_command(state: &mut u64) -> Command {
    match next(state) % 14 {
        0 => Command::AddDevice {
            spec_text: arb_string(state, "spec body "),
            resources: Resources {
                cpu_millis: next(state) % 10_000,
                memory_mib: next(state) % 65_536,
            },
        },
        1 => Command::Recalibrate {
            spec_text: arb_string(state, "spec body "),
        },
        2 => {
            let n = next(state) % 4;
            Command::Telemetry {
                reports: (0..n)
                    .map(|_| {
                        (
                            arb_string(state, "dev-"),
                            DeviceTelemetry {
                                queue_depth: (next(state) % 64) as usize,
                                utilization: (next(state) % 1000) as f64 / 1000.0,
                                health_penalty: (next(state) % 100) as f64 / 100.0,
                            },
                        )
                    })
                    .collect(),
            }
        }
        3 => Command::Enqueue {
            request: Box::new(arb_request(state)),
        },
        4 => Command::Cancel {
            job: arb_string(state, "job-"),
        },
        5 => Command::Tick,
        6 => Command::ForceAdmit {
            job: arb_string(state, "job-"),
        },
        7 => Command::Schedule {
            job: arb_string(state, "job-"),
        },
        8 => Command::Execute {
            job: arb_string(state, "job-"),
        },
        9 => Command::Rebind {
            job: arb_string(state, "job-"),
            target: arb_string(state, "node-"),
        },
        10 => Command::Cordon {
            node: arb_string(state, "node-"),
        },
        11 => Command::Uncordon {
            node: arb_string(state, "node-"),
        },
        12 => Command::Heal,
        _ => Command::AdvanceTo { now: next(state) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Command records of every shape decode back to themselves, and
    /// re-encoding the decoded value reproduces the original payload byte
    /// for byte.
    #[test]
    fn command_encode_decode_encode_is_identity(seed in 0u64..100_000) {
        let mut state = seed;
        let cmd = CommandRecord {
            command: arb_command(&mut state),
            events_after: next(&mut state) % 10_000,
            digest: next(&mut state),
        };
        let record = cmd.to_record();
        prop_assert_eq!(record.kind, RECORD_COMMAND);
        prop_assert_eq!(record.version, RECORD_VERSION);
        let decoded = decode_command(&record.payload).expect("command decodes");
        prop_assert_eq!(&decoded, &cmd);
        let re_encoded = decoded.to_record();
        prop_assert_eq!(re_encoded.payload, record.payload);
    }

    /// Watch-log event batches — what a snapshot holds and a command
    /// record digests — round-trip exactly, including optional from-states,
    /// nodes and every kind of cause, and non-ASCII text.
    #[test]
    fn event_stream_encode_decode_encode_is_identity(seed in 0u64..100_000) {
        let mut state = seed;
        let events: Vec<JobEvent> = (0..next(&mut state) % 20)
            .map(|seq| arb_event(&mut state, seq))
            .collect();
        let bytes = to_bytes(&events);
        let decoded: Vec<JobEvent> = from_bytes(&bytes).expect("events decode");
        prop_assert_eq!(&decoded, &events);
        prop_assert_eq!(to_bytes(&decoded), bytes);
        prop_assert_eq!(events_digest(&decoded), events_digest(&events));
    }

    /// Decoding a damaged record of any kind — truncated, or with a byte
    /// flipped — is a typed error or a value that re-encodes, never a panic.
    #[test]
    fn truncated_command_payloads_never_panic(seed in 0u64..20_000) {
        let mut state = seed;
        let mut record = match next(&mut state) % 2 {
            0 => encode_command_record(&arb_command(&mut state)),
            _ => arb_snapshot(&mut state),
        };
        if next(&mut state) % 2 == 0 {
            let cut = (next(&mut state) as usize) % (record.payload.len() + 1);
            record.payload.truncate(cut);
        } else if !record.payload.is_empty() {
            let at = (next(&mut state) as usize) % record.payload.len();
            record.payload[at] ^= 1 << (next(&mut state) % 8);
        }
        match decode_record(&record) {
            Err(_) => {}
            Ok(JournalEntry::Command(cmd)) => {
                let again = cmd.to_record();
                prop_assert_eq!(decode_command(&again.payload).expect("re-encodes"), cmd);
            }
            Ok(JournalEntry::Snapshot(snapshot)) => {
                let again = to_bytes(&*snapshot);
                let twice: SnapshotState = from_bytes(&again).expect("re-encodes");
                prop_assert_eq!(to_bytes(&twice), again);
            }
        }
    }
}

/// The empty event batch encodes and has a digest of its own: what the
/// record of a command that changed no job holds.
#[test]
fn empty_event_batch_round_trips() {
    let bytes = to_bytes::<[JobEvent]>(&[]);
    let decoded: Vec<JobEvent> = from_bytes(&bytes).expect("empty batch decodes");
    assert!(decoded.is_empty());
    assert_eq!(to_bytes(&decoded), bytes);
    assert_eq!(events_digest(&[]), qrio_bytes::fnv1a(bytes));
    let tick = encode_command_record(&Command::Tick);
    let decoded = decode_command(&tick.payload).unwrap();
    assert_eq!(
        (decoded.events_after, decoded.digest),
        (0, events_digest(&[]))
    );
}

// ---------------------------------------------------------------------------
// Golden bytes: the round trips above would all survive a self-consistent
// format change. These fixtures were captured from the build that introduced
// `RECORD_VERSION = 6`; a journal written then must decode now. Moving from 5
// changed the version field of every record (and its CRC) and, in the
// snapshot, kept the image as its name alone and dropped the cluster's
// `ImagePushed` and `JobSubmitted` events (3049 → 2004 bytes; the job is
// queued, so it holds no decision to add skipped devices to). Moving from 4
// changed the version field of every record (and its CRC), ended the command
// record with the watch log's length and the digest of its new events (321
// → 337 bytes), dropped the events record (its fixture is now the events'
// encoding, as a snapshot holds them, with a typed cause where the text was)
// and, in the snapshot, a job's separate failure (one tag byte per job:
// 3050 → 3049 bytes). Moving from 3 to 4 replaced the cluster job's phase
// with the node holding its reservation; from 2 to 3 dropped the cluster's
// submission queue, added each node's breaker hold, the lifecycle's service
// state and the service model.
// ---------------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
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

fn golden_enqueue() -> Command {
    Command::Enqueue {
        request: Box::new(qrio::JobRequest {
            job_name: "golden-é".into(),
            image_name: "qrio/golden:1".into(),
            qasm: "OPENQASM 2.0;\nqreg q[2];\n".into(),
            num_qubits: 2,
            resources: Resources {
                cpu_millis: 750,
                memory_mib: 384,
            },
            requirements: DeviceRequirements {
                min_qubits: Some(2),
                max_two_qubit_error: Some(0.05),
                max_readout_error: None,
                min_t1_us: Some(80.0),
                min_t2_us: None,
            },
            strategy: {
                let mut spec = StrategySpec::new("custom");
                spec.params.set("edges", ParamValue::Edges(vec![(0, 1)]));
                spec.params.set("note", ParamValue::Text("t".into()));
                spec.params.set("target", ParamValue::Float(0.9));
                spec.params.set("width", ParamValue::Int(7));
                spec
            },
            priority: 3,
            shots: 256,
            parallel: ParallelConfig::with_threads(2),
            retry: Some(RetryPolicy {
                max_attempts: 3,
                backoff: BackoffPolicy::Exponential {
                    base: 2,
                    max: 32,
                    jitter: true,
                },
                retry_on: RetryOn::faults_only(),
            }),
            deadline: Some(120),
        }),
    }
}

/// The golden enqueue as journaled after two events.
fn golden_enqueue_record() -> CommandRecord {
    CommandRecord {
        command: golden_enqueue(),
        events_after: 2,
        digest: events_digest(&golden_events()),
    }
}

fn golden_events() -> Vec<JobEvent> {
    vec![
        JobEvent {
            seq: 0,
            at: 0,
            job: JobId::new("golden-é"),
            from: None,
            to: JobState::Submitted,
            node: None,
            cause: None,
        },
        JobEvent {
            seq: 1,
            at: 4,
            job: JobId::new("golden-é"),
            from: Some(JobState::Running),
            to: JobState::Retrying,
            node: Some("dev".into()),
            cause: Some(Box::new(Cause::Attempt {
                n: 1,
                error: ClusterError::InjectedFault {
                    job: "golden-é".into(),
                    node: "dev".into(),
                    kind: FaultKind::TransientExecution,
                    attempt: 0,
                },
                backoff: 3,
            })),
        },
    ]
}

/// A durable orchestrator with one device, telemetry, a fault plan, a
/// breaker board and one queued job, and the genesis snapshot record that
/// enabling durability wrote for it.
fn golden_genesis(path: &std::path::Path) -> (qrio::Qrio, Record) {
    let mut qrio = qrio::Qrio::with_config(
        qrio::FidelityRankingConfig {
            shots: 96,
            seed: 23,
            shortfall_weight: 100.0,
        },
        23,
    );
    qrio.add_device(Backend::uniform("dev", topology::line(2), 0.002, 0.01))
        .unwrap();
    qrio.report_telemetry([(
        "dev".to_string(),
        DeviceTelemetry {
            queue_depth: 3,
            utilization: 0.5,
            health_penalty: 0.25,
        },
    )]);
    qrio.configure_faults(Some(FaultInjector {
        seed: 7,
        transient_rate: 0.25,
        calibration_rate: 0.125,
        slow_rate: 0.0625,
        flap_rate: 0.03125,
    }))
    .unwrap();
    qrio.configure_breakers(Some(BreakerConfig::default()))
        .unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&library::ghz(2).unwrap())
        .job_name("golden")
        .min_queue()
        .shots(16)
        .retry_policy(RetryPolicy::fixed(2, 1))
        .deadline(50)
        .build()
        .unwrap();
    let _ = qrio.enqueue(&request).unwrap();

    qrio.enable_durability(path, DurabilityConfig::default())
        .unwrap();
    let mut scan = scan_file(path).unwrap();
    assert_eq!(scan.records.len(), 1, "enabling durability writes genesis");
    (qrio, scan.records.remove(0))
}

/// The one record a journal holding only `fixture` scans to.
fn sole_record(fixture: &[u8]) -> Record {
    let mut journal = header_bytes().to_vec();
    journal.extend_from_slice(fixture);
    let mut scan = scan_bytes(&journal).unwrap();
    assert_eq!((scan.records.len(), scan.torn), (1, None));
    scan.records.remove(0)
}

#[test]
fn golden_records_pin_the_journal_format() {
    let fixture = unhex(GOLDEN_ENQUEUE_RECORD);
    assert_eq!(
        hex(&encode_record(&golden_enqueue_record().to_record())),
        hex(&fixture)
    );
    assert_eq!(
        decode_command(&sole_record(&fixture).payload).unwrap(),
        golden_enqueue_record()
    );

    let fixture = unhex(GOLDEN_EVENTS);
    assert_eq!(hex(&to_bytes(&golden_events())), hex(&fixture));
    let decoded: Vec<JobEvent> = from_bytes(&fixture).unwrap();
    assert_eq!(decoded, golden_events());
    assert_eq!(
        decoded[1].cause.as_deref().unwrap().to_string(),
        "attempt 1 failed: cluster error: attempt 0 of job 'golden-é' on node 'dev' hit \
         injected fault: transient execution error; backing off 3 ticks"
    );

    let dir = std::env::temp_dir().join(format!("qrio-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = unhex(GOLDEN_SNAPSHOT_RECORD);
    let (live, genesis) = golden_genesis(&dir.join("live.qj"));
    assert_eq!(hex(&encode_record(&genesis)), hex(&fixture));
    assert!(matches!(
        decode_record(&sole_record(&fixture)).unwrap(),
        JournalEntry::Snapshot(snapshot) if snapshot.cursor() == 2
    ));
    // A journal holding only the fixture recovers to the live state.
    let mut journal = header_bytes().to_vec();
    journal.extend_from_slice(&fixture);
    let path = dir.join("fixture.qj");
    std::fs::write(&path, journal).unwrap();
    let (recovered, report) = qrio::Qrio::recover(&path).unwrap();
    assert_eq!(report.snapshot_cursor, 2);
    assert_eq!(recovered.describe_state(), live.describe_state());
    assert_eq!(recovered.watch(0), live.watch(0));
    std::fs::remove_dir_all(&dir).ok();
}

const GOLDEN_ENQUEUE_RECORD: &str = "\
    01060046010000030900000000000000676f6c64656e2dc3a90d000000000000007172696f2f676f6c64656e \
    3a3119000000000000004f50454e5141534d20322e303b0a7172656720715b325d3b0a0200000000000000ee \
    020000000000008001000000000000010200000000000000019a9999999999a93f0001000000000000544000 \
    0600000000000000637573746f6d040000000000000005000000000000006564676573030100000000000000 \
    0000000000000000010000000000000004000000000000006e6f746502010000000000000074060000000000 \
    000074617267657400cdccccccccccec3f050000000000000077696474680107000000000000000300010000 \
    0000000002000000000000000103000000000000000102000000000000002000000000000000010101010100 \
    0178000000000000000200000000000000df7647525cec85d736e2e30e";

const GOLDEN_EVENTS: &str = "\
    0200000000000000000000000000000000000000000000000900000000000000676f6c64656e2dc3a9000000 \
    00010000000000000004000000000000000900000000000000676f6c64656e2dc3a901030701030000000000 \
    00006465760101010000000a0900000000000000676f6c64656e2dc3a9030000000000000064657600000000 \
    00000000000300000000000000";

const GOLDEN_SNAPSHOT_RECORD: &str = "\
    030600c907000002000000000000000000000000000000020000000000000000000000000000000000000000 \
    0000000600000000000000676f6c64656e000000000100000000000000000000000000000006000000000000 \
    00676f6c64656e010001000001000000000000000600000000000000676f6c64656e01000000020000000000 \
    0000000000000000000000000000000000000001000000000000000000000000000000000001320000000000 \
    0000010000000000000001000000000000000000000000000000000600000000000000676f6c64656e000000 \
    0000000000000000000000000000000000000000000000000000000000010000000000000008010000000000 \
    0023205152494f206261636b656e642073706563696669636174696f6e0a6e616d65203d206465760a717562 \
    697473203d20320a62617369735f6761746573203d2075312c75322c75332c63780a71756269742030207431 \
    3d3130303030302074323d31303030303020726561646f75745f6572726f723d3020726561646f75745f6c65 \
    6e6774683d3330206572726f725f31713d302e3030320a717562697420312074313d3130303030302074323d \
    31303030303020726561646f75745f6572726f723d3020726561646f75745f6c656e6774683d333020657272 \
    6f725f31713d302e3030320a6564676520302031206572726f723d302e3031206475726174696f6e3d333030 \
    0a080000000000000014000000000000007172696f2e696f2f6176672d31712d6572726f7208000000000000 \
    00302e30303230303014000000000000007172696f2e696f2f6176672d32712d6572726f7208000000000000 \
    00302e30313030303019000000000000007172696f2e696f2f6176672d726561646f75742d6572726f720800 \
    000000000000302e30303030303011000000000000007172696f2e696f2f6176672d74312d75730800000000 \
    0000003130303030302e3011000000000000007172696f2e696f2f6176672d74322d75730800000000000000 \
    3130303030302e3012000000000000007172696f2e696f2f6370752d6d696c6c697304000000000000003430 \
    303012000000000000007172696f2e696f2f6d656d6f72792d6d69620400000000000000383139320e000000 \
    000000007172696f2e696f2f717562697473010000000000000032a00f000000000000002000000000000000 \
    0000000000000000000000000000000000000000000000000001000000000000000600000000000000676f6c \
    64656e12000000000000007172696f2f676f6c64656e3a6c61746573747c000000000000004f50454e514153 \
    4d20322e303b0a696e636c756465202271656c6962312e696e63223b0a7172656720715b325d3b0a63726567 \
    20635b325d3b0a6820715b305d3b0a637820715b305d2c715b315d3b0a6d65617375726520715b305d202d3e \
    20635b305d3b0a6d65617375726520715b315d202d3e20635b315d3b0a0200000000000000f4010000000000 \
    000002000000000000000000000009000000000000006d696e5f717565756500000000000000000010000000 \
    0000000000000000000000000102000000000000000001000000000000000101010101013200000000000000 \
    000000000000000000000000000000000000010000000000000012000000000000007172696f2f676f6c6465 \
    6e3a6c617465737401000000000000000000000000000000010000000000000009000000000000004e6f6465 \
    41646465641d000000000000006e6f6465202764657627206a6f696e65642074686520636c75737465720107 \
    00000000000000000000000000d03f000000000000c03f000000000000b03f000000000000a03f6000000000 \
    000000170000000000000000000000000059400100000000000000080100000000000023205152494f206261 \
    636b656e642073706563696669636174696f6e0a6e616d65203d206465760a717562697473203d20320a6261 \
    7369735f6761746573203d2075312c75322c75332c63780a717562697420302074313d313030303030207432 \
    3d31303030303020726561646f75745f6572726f723d3020726561646f75745f6c656e6774683d3330206572 \
    726f725f31713d302e3030320a717562697420312074313d3130303030302074323d31303030303020726561 \
    646f75745f6572726f723d3020726561646f75745f6c656e6774683d3330206572726f725f31713d302e3030 \
    320a6564676520302031206572726f723d302e3031206475726174696f6e3d3330300a010000000000000001 \
    000000000000000600000000000000676f6c64656e09000000000000006d696e5f7175657565000000000000 \
    0000017c000000000000004f50454e5141534d20322e303b0a696e636c756465202271656c6962312e696e63 \
    223b0a7172656720715b325d3b0a6372656720635b325d3b0a6820715b305d3b0a637820715b305d2c715b31 \
    5d3b0a6d65617375726520715b305d202d3e20635b305d3b0a6d65617375726520715b315d202d3e20635b31 \
    5d3b0a010000000000000003000000000000006465760300000000000000000000000000e03f000000000000 \
    d03f1700000000000000a00f0000000000000020000000000000400000000000000000000000000000000000 \
    000000000000010300000000000000333333333333e33f08000000000000000a000000000000000200000000 \
    00000000000000000000000000000000000000009bb59986";

// ---------------------------------------------------------------------------
// A busy snapshot: the genesis golden above holds one queued job. This one
// holds every store mid-flight. Its length and digest were first captured
// from the last build that wrote snapshots through separate `*State` copies
// of the stores, so the stores' own codecs lay out the same bytes; they
// moved twice since. With `RECORD_VERSION = 3` (100252 → 99694 bytes) the
// cluster stopped writing its submission queue, a node gained its breaker
// hold, the lifecycle store what each device serves and has served, and the
// snapshot the service model. With `RECORD_VERSION = 4` (99694 → 94433
// bytes) a cluster job holds the node of its reservation instead of a phase,
// its logs lose the line each phase change wrote (80 here), and the
// cluster's event log the `JobRequeued` of each retry (6) and the
// `JobCancelled` of each blown deadline (5). With `RECORD_VERSION = 5`
// (94433 → 91117 bytes) a transition's cause is typed where its text was,
// and a failed job's error is kept there alone, not a third time beside it.
// With `RECORD_VERSION = 6` (91117 → 49470 bytes) the registry keeps each
// image's name and no files, the cluster's event log only node events, and
// a scheduling decision its (here empty) skipped devices.
// ---------------------------------------------------------------------------

/// The busy fleet's devices, in name order.
const DEVICES: [&str; 3] = ["alpha", "beta", "gamma"];

/// Three devices under a fault plan with breakers on, telemetry reported.
fn busy_fleet() -> qrio::Qrio {
    let mut qrio = qrio::Qrio::with_config(
        qrio::FidelityRankingConfig {
            shots: 64,
            seed: 11,
            shortfall_weight: 100.0,
        },
        11,
    );
    for (name, (qubits, error)) in DEVICES.into_iter().zip([(6, 0.01), (5, 0.02), (4, 0.03)]) {
        qrio.add_device(Backend::uniform(name, topology::line(qubits), 0.002, error))
            .unwrap();
    }
    qrio.configure_breakers(Some(BreakerConfig {
        consecutive_failures: 3,
        failure_rate: 2.0,
        window: 8,
        open_ticks: 3,
        probe_jobs: 1,
    }))
    .unwrap();
    qrio.configure_faults(Some(FaultInjector {
        seed: 5,
        transient_rate: 0.5,
        calibration_rate: 0.05,
        slow_rate: 0.05,
        flap_rate: 0.05,
    }))
    .unwrap();
    qrio.report_telemetry([(
        "beta".to_string(),
        DeviceTelemetry {
            queue_depth: 2,
            utilization: 0.25,
            health_penalty: 0.125,
        },
    )]);
    qrio
}

/// The `i`-th job of the busy workload: GHZ-3 circuits cycling through the
/// strategies, every other one retryable, every fifth with a deadline.
fn busy_request(i: u64) -> qrio::JobRequest {
    let mut builder = JobRequestBuilder::new()
        .with_circuit(&library::ghz(3).unwrap())
        .job_name(format!("busy-{i:02}"))
        .resources(900, 1024)
        .priority((i % 3) as u8)
        .shots(16);
    builder = match i % 3 {
        0 => builder.min_queue(),
        1 => builder.fidelity_target(0.6),
        _ => builder.weighted(0.6, 1.0, 1.0, 1.0),
    };
    if i % 2 == 0 {
        builder = builder.retry_policy(if i % 4 == 0 {
            RetryPolicy::fixed(2, 1)
        } else {
            RetryPolicy::exponential(4, 6, 40)
        });
    }
    if i % 5 == 0 {
        builder = builder.deadline(6);
    }
    builder.build().unwrap()
}

/// 44 jobs enqueued, ticked to mid-flight with one device cordoned and one
/// job cancelled.
fn busy_orchestrator() -> qrio::Qrio {
    let mut qrio = busy_fleet();
    for i in 0..44 {
        let _ = qrio.enqueue(&busy_request(i)).unwrap();
    }
    for tick in 0..8 {
        qrio.tick();
        if tick == 2 {
            qrio.cordon_device("gamma").unwrap();
            qrio.cancel(&JobId::new("busy-43")).unwrap();
        }
    }
    qrio
}

#[test]
fn busy_snapshot_digest_pins_the_snapshot_format() {
    let qrio = busy_orchestrator();
    let states: Vec<JobState> = (0..44)
        .map(|i| qrio.status(&JobId::new(format!("busy-{i:02}"))).unwrap())
        .collect();
    for wanted in [
        JobState::Queued,
        JobState::Scheduled,
        JobState::Retrying,
        JobState::Succeeded,
        JobState::Failed,
        JobState::Cancelled,
    ] {
        assert!(states.contains(&wanted), "no {wanted} job in {states:?}");
    }
    assert!(!qrio.dead_letters().is_empty(), "no dead letter");
    assert_eq!(
        qrio.cluster().node("gamma").unwrap().status(),
        qrio_cluster::NodeStatus::Cordoned
    );

    let record = qrio.snapshot_record();
    assert_eq!(
        (
            record.payload.len(),
            qrio_bytes::fnv1a(hex(&record.payload))
        ),
        BUSY_SNAPSHOT_LEN_AND_DIGEST
    );
}

const BUSY_SNAPSHOT_LEN_AND_DIGEST: (usize, u64) = (49470, 16662924958488828679);

/// When the earliest timer of the busy workload fires, read off what a user
/// can see of every job and every breaker: a `Retrying` job's status says
/// since when and for how long it backs off, every fifth job ([`busy_request`])
/// expires 6 after its admission while it waits, an `Open` breaker says until
/// when, and under a service `model` a `Running` job is in service since it
/// entered `Running`, for its device's window.
fn earliest_timer_in_sight(qrio: &qrio::Qrio, model: Option<&ServiceModel>) -> Option<u64> {
    let jobs = qrio.cluster().jobs().filter_map(|job| {
        let status = qrio.job_status(&JobId::new(job.name())).ok()?;
        let waits = matches!(status.state, JobState::Queued | JobState::Retrying);
        let deadline = job.spec().deadline.filter(|_| waits);
        let expiry = deadline.map(|deadline| status.history[0].0 + deadline + 1);
        let backoff = (status.state == JobState::Retrying).then(|| {
            let (since, _) = status.history.last().expect("a Retrying job has a history");
            match status.cause.as_deref() {
                Some(Cause::Attempt { backoff, .. }) => since + backoff,
                other => panic!("a backoff is announced, not {other:?}"),
            }
        });
        let in_service = model.filter(|_| status.state == JobState::Running);
        let completion = in_service.map(|model| {
            let (since, _) = status.history.last().expect("a Running job has a history");
            let device = status.node.as_deref().expect("a Running job is bound");
            since + model.window(device, job.spec().shots)
        });
        [expiry, backoff, completion].into_iter().flatten().min()
    });
    let board = qrio.breakers().expect("the busy fleet has breakers");
    let open = DEVICES
        .iter()
        .filter_map(|device| match board.state(device) {
            qrio::BreakerState::Open { until } => Some(until),
            _ => None,
        });
    jobs.chain(open).min()
}

/// The job names a section of [`qrio::Qrio::describe_state`] lists: the
/// lines under `{title} (n):`.
fn described<'s>(state: &'s str, title: &str) -> Vec<&'s str> {
    let lines = state
        .lines()
        .skip_while(|line| !line.starts_with(&format!("{title} (")));
    let listed = lines.skip(1).take_while(|line| line.starts_with("  "));
    listed.map(str::trim).collect()
}

/// A job holds a reservation exactly while it is `Scheduled` or `Running`,
/// on its `status.node`, and every node's allocation is the sum of the
/// reservations that name it; every `Scheduled` job waits in the queue of
/// its device and nowhere else, a `Running` one is the head of its device's queue, in service, every
/// job short of a terminal state is in exactly one of the admission queue, a
/// device queue or a backoff, the earliest armed timer is the earliest in
/// sight, and the snapshot of this state decodes to a value that re-encodes
/// to the same bytes.
fn assert_allocations_and_snapshot_fixed_point(
    qrio: &qrio::Qrio,
    model: Option<&ServiceModel>,
    step: &str,
) {
    // Reservations, against the one job state machine.
    let holder = |job: &qrio_cluster::Job| {
        let status = qrio.job_status(&JobId::new(job.name())).unwrap();
        let bound = matches!(status.state, JobState::Scheduled | JobState::Running);
        status.node.as_deref().filter(|_| bound)
    };
    for job in qrio.cluster().jobs() {
        assert_eq!(
            job.node(),
            holder(job),
            "{step}: {}'s reservation",
            job.name()
        );
    }
    for node in qrio.cluster().nodes() {
        let bound = qrio
            .cluster()
            .jobs()
            .filter(|job| holder(job) == Some(node.name()))
            .fold(Resources::default(), |sum, job| {
                sum.plus(&job.spec().resources)
            });
        assert_eq!(node.allocated(), bound, "{step}: node {}", node.name());
    }
    // Placement: a job is `Scheduled` — or `Running`, in service at the
    // head — if and only if it is exactly once in a device queue, the queue
    // of its `status.node`.
    let nodes = || qrio.cluster().nodes().map(|node| node.name());
    let mut queued: Vec<(&str, &str)> = nodes()
        .flat_map(|device| qrio.device_queue(device).map(move |job| (job, device)))
        .collect();
    queued.sort_unstable();
    let state = |job: &str| qrio.status(&JobId::new(job)).unwrap();
    let mut bound: Vec<(&str, &str)> = qrio
        .cluster()
        .jobs()
        .filter_map(|job| {
            let status = qrio.job_status(&JobId::new(job.name())).ok()?;
            let node = status.node.as_deref().unwrap_or("<unbound>");
            let waits = matches!(status.state, JobState::Scheduled | JobState::Running);
            waits.then_some((job.name(), node))
        })
        .collect();
    bound.sort_unstable();
    assert_eq!(queued, bound, "{step}: queued vs bound (job, device)");
    for device in nodes() {
        let mut queue = qrio.device_queue(device);
        queue.next();
        assert!(
            queue.all(|job| state(job) == JobState::Scheduled),
            "{step}: only the head of {device}'s queue may be in service"
        );
    }
    // Every job short of a terminal state waits in exactly one place: the
    // admission queue, a device queue, or a backoff.
    let described_state = qrio.describe_state();
    let pending = described(&described_state, "pending");
    for job in qrio.cluster().jobs().map(|job| job.name()) {
        if state(job).is_terminal() {
            continue;
        }
        let places = [
            pending.contains(&job),
            queued.iter().any(|(queued, _)| *queued == job),
            state(job) == JobState::Retrying,
        ];
        let count = places.iter().filter(|place| **place).count();
        assert_eq!(
            count,
            1,
            "{step}: {job} ({:?}) waits in {places:?}",
            state(job)
        );
    }
    // The printed count is the length of the stored (and encoded) map: a
    // queue that emptied is gone from it, not kept empty.
    let waited_on = nodes()
        .filter(|device| qrio.device_queue(device).len() > 0)
        .count();
    let printed = format!("device queues ({waited_on}):\n");
    assert!(described_state.contains(&printed), "{step}: {printed}");
    assert_eq!(
        qrio.next_due(),
        earliest_timer_in_sight(qrio, model),
        "{step}"
    );
    let record = qrio.snapshot_record();
    let JournalEntry::Snapshot(snapshot) = decode_record(&record).expect("snapshot decodes") else {
        panic!("{step}: not a snapshot record");
    };
    assert!(to_bytes(&*snapshot) == record.payload, "{step}: re-encode");
}

/// A service model over the busy fleet: a 16-shot job takes 4 on `alpha`
/// and `beta`, and 2 on `gamma`, which runs twice as fast.
fn busy_service() -> ServiceModel {
    ServiceModel {
        base_us: 1_500,
        per_shot_us: 100,
        speeds: [("gamma".to_string(), 2.0)].into(),
    }
}

#[test]
fn allocations_and_snapshots_stay_consistent_under_a_seeded_storm() {
    use qrio::QrioError::Cluster as Refused;
    use qrio_cluster::ClusterError::InjectedFault;
    let (mut cancelled, mut interrupted, mut cut_short) = (0, 0, 0);
    let (mut bound, mut executed, mut moved, mut healed) = (0, 0, 0, 0);
    for seed in 0..6u64 {
        let mut state = seed;
        let mut qrio = busy_fleet();
        // Seeds 0-2 execute jobs the instant they are reached, 3-5 serve
        // them on the clock.
        let model = (seed >= 3).then(busy_service);
        if let Some(model) = &model {
            qrio.configure_service(Some(model.clone())).unwrap();
        }
        let mut enqueued = 0u64;
        for step in 0..90 {
            let roll = next(&mut state) % 12;
            // Any job ever enqueued — or, so that the calls which apply to
            // one state only are not refused every time, the newest (likely
            // still `Queued`) for `schedule`, and one that is waiting on a
            // device, when any is, for `interrupt` / `execute` / `rebind`.
            let waiting: Vec<&str> = DEVICES
                .iter()
                .flat_map(|device| qrio.device_queue(device))
                .collect();
            let any = next(&mut state);
            let pick = match roll {
                7 | 9 | 10 if !waiting.is_empty() => {
                    JobId::new(waiting[(any % waiting.len() as u64) as usize])
                }
                8 => JobId::new(format!("busy-{:02}", enqueued.saturating_sub(1))),
                _ => JobId::new(format!("busy-{:02}", any % enqueued.max(1))),
            };
            let what = match roll {
                0..=2 => {
                    let _ = qrio.enqueue(&busy_request(enqueued)).unwrap();
                    enqueued += 1;
                    "enqueue"
                }
                3 | 4 => {
                    qrio.tick();
                    "tick"
                }
                // Time alone: whatever is due fires, nothing is admitted.
                5 => {
                    qrio.advance_to(qrio.now() + any % 4).unwrap();
                    "advance_to"
                }
                // Refused unless the job is still cancellable / bound.
                6 => {
                    cancelled += usize::from(qrio.cancel(&pick).is_ok());
                    "cancel"
                }
                7 => {
                    // An applied interrupt surfaces as the fault it injects.
                    let in_service = qrio.status(&pick).ok() == Some(JobState::Running);
                    let applied =
                        matches!(qrio.interrupt(&pick), Err(Refused(InjectedFault { .. })));
                    interrupted += usize::from(applied);
                    cut_short += usize::from(applied && in_service);
                    "interrupt"
                }
                // The step calls, by hand beside the loop: refused unless the
                // job is `Queued` (schedule) or `Scheduled` (execute, rebind).
                8 => {
                    bound += usize::from(qrio.schedule(&pick).is_ok());
                    "schedule"
                }
                9 => {
                    // An applied execute moves the job on, whatever it drew.
                    let _ = qrio.execute(&pick);
                    executed += usize::from(qrio.status(&pick).ok() != Some(JobState::Scheduled));
                    "execute"
                }
                10 => {
                    let target = DEVICES[(next(&mut state) % 3) as usize];
                    let from = qrio.job_status(&pick).map(|status| status.node.clone());
                    let applied = qrio.rebind(&pick, target).is_ok();
                    moved += usize::from(applied && from.ok().flatten().as_deref() != Some(target));
                    "rebind"
                }
                // A device an interrupt or a fault flapped comes back, and
                // the jobs still waiting on it keep their reservations.
                _ => {
                    healed += qrio.heal_devices().unwrap().len();
                    "heal"
                }
            };
            assert_allocations_and_snapshot_fixed_point(
                &qrio,
                model.as_ref(),
                &format!("seed {seed} step {step} ({what} {pick})"),
            );
        }
        assert!(enqueued >= 10, "seed {seed} barely enqueued");
    }
    assert!(
        bound > 0 && executed > 0 && moved > 0 && healed > 0,
        "{bound} schedules, {executed} executes, {moved} rebinds, {healed} heals applied"
    );
    assert!(
        cancelled > 0 && interrupted > 0 && cut_short > 0,
        "{cancelled} cancels, {interrupted} interrupts ({cut_short} in service) applied"
    );
}
