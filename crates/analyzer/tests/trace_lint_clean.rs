//! The QL06xx lints over traces the *real* control plane records: a healthy
//! orchestrator run must produce a lint-clean envelope stream — also when its
//! ticks run several devices at once over agent threads — and seeded damage
//! to that stream must be caught.

use qrio::{FidelityRankingConfig, JobRequestBuilder, Qrio, TransportMode};
use qrio_analyzer::{lint_envelope_trace_bytes, LintCode};
use qrio_backend::{topology, Backend};
use qrio_circuit::library;

/// Drive a small workload with trace recording on and hand back the raw
/// envelope stream.
fn recorded_trace() -> Vec<u8> {
    let mut qrio = Qrio::with_config(
        FidelityRankingConfig {
            shots: 96,
            seed: 23,
            shortfall_weight: 100.0,
        },
        23,
    );
    qrio.enable_control_trace();
    qrio.add_device(Backend::uniform("clean", topology::line(8), 0.002, 0.01))
        .unwrap();
    qrio.add_device(Backend::uniform("noisy", topology::line(8), 0.05, 0.35))
        .unwrap();
    for name in ["trace-a", "trace-b", "trace-c"] {
        let bv = library::bernstein_vazirani(4, 0b1011).unwrap();
        let request = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name(name)
            .fidelity_target(0.8)
            .shots(64)
            .build()
            .unwrap();
        let _ = qrio.enqueue(&request).unwrap();
    }
    qrio.run_until_idle();
    qrio.take_control_trace()
}

#[test]
fn healthy_control_plane_trace_is_lint_clean() {
    let trace = recorded_trace();
    assert!(!trace.is_empty(), "trace recording produced no frames");
    let diagnostics = lint_envelope_trace_bytes("live trace", &trace);
    assert!(
        diagnostics.is_empty(),
        "healthy trace raised: {diagnostics:?}"
    );
}

#[test]
fn threaded_ticks_over_several_devices_leave_a_lint_clean_trace() {
    let mut qrio = Qrio::with_config(FidelityRankingConfig::default(), 29);
    qrio.set_transport(TransportMode::Threaded { threads: 2 });
    qrio.enable_control_trace();
    for d in 0..4 {
        let backend = Backend::uniform(format!("qpu-{d}"), topology::line(6), 0.01, 0.02);
        qrio.add_device(backend).unwrap();
    }
    for i in 0..16 {
        let request = JobRequestBuilder::new()
            .with_circuit(&library::ghz(4).unwrap())
            .job_name(format!("spread-{i:02}"))
            .min_queue()
            .shots(32)
            .build()
            .unwrap();
        let _ = qrio.enqueue(&request).unwrap();
    }
    qrio.run_until_idle();
    let trace = qrio.take_control_trace();

    // The ticks did run several devices each: more `Run`s share a tick than
    // there were ticks.
    use qrio_proto::{Envelope, NodeCommand, Payload};
    let mut runs_per_tick = std::collections::BTreeMap::<u64, usize>::new();
    let mut cursor = 0;
    while cursor < trace.len() {
        let (envelope, consumed) = Envelope::decode(&trace[cursor..]).unwrap();
        if matches!(envelope.payload, Payload::Command(NodeCommand::Run { .. })) {
            *runs_per_tick.entry(envelope.virtual_ts).or_default() += 1;
        }
        cursor += consumed;
    }
    assert!(
        runs_per_tick.values().filter(|runs| **runs > 1).count() >= 3,
        "{runs_per_tick:?}"
    );
    let diagnostics = lint_envelope_trace_bytes("threaded trace", &trace);
    assert!(
        diagnostics.is_empty(),
        "threaded trace raised: {diagnostics:?}"
    );
}

#[test]
fn dropping_a_frame_from_a_real_trace_is_detected() {
    let trace = recorded_trace();
    // Remove a frame from the middle of an established per-node stream (the
    // lint tolerates streams that *start* mid-conversation, so the dropped
    // frame must not be a stream's first). Walk the frames, track which
    // (node, direction) pairs have appeared, cut the first repeat.
    use qrio_proto::{Envelope, FrameHeader, Payload};
    use std::collections::BTreeSet;
    let mut seen: BTreeSet<(String, bool)> = BTreeSet::new();
    let mut cursor = 0usize;
    let mut cut: Option<(usize, usize)> = None;
    while cursor < trace.len() {
        let frame_len = FrameHeader::peek(&trace[cursor..]).unwrap().frame_len;
        let (envelope, _) = Envelope::decode(&trace[cursor..]).unwrap();
        let key = (
            envelope.node_id.clone(),
            matches!(envelope.payload, Payload::Command(_)),
        );
        if !seen.insert(key) {
            cut = Some((cursor, frame_len));
            break;
        }
        cursor += frame_len;
    }
    let (offset, frame_len) = cut.expect("trace long enough to repeat a stream");
    let mut damaged = trace[..offset].to_vec();
    damaged.extend_from_slice(&trace[offset + frame_len..]);
    let diagnostics = lint_envelope_trace_bytes("damaged trace", &damaged);
    assert!(
        diagnostics
            .iter()
            .any(|d| d.code == LintCode::EnvelopeSeqGap),
        "dropped frame went unnoticed: {diagnostics:?}"
    );
}
