//! `tick()` sends every device's `Run` before it waits for any verdict, then
//! collects and settles the verdicts in device-name order. These tests pin
//! what that must not change — everything a user or a journal can see is the
//! same under the in-process transport and over one, two or eight agent
//! threads — and the frame order it does change: within a tick, every `Run`
//! goes out before the first `Phase` comes back.

use std::fs;
use std::path::PathBuf;

use qrio::{
    BreakerConfig, DurabilityConfig, FidelityRankingConfig, JobId, JobRequest, JobRequestBuilder,
    Qrio, TransportMode,
};
use qrio_backend::{topology, Backend};
use qrio_circuit::library;
use qrio_cluster::{FaultInjector, RetryPolicy};
use qrio_proto::{Envelope, NodeCommand, NodeReport, Payload};

const DEVICES: usize = 6;
const WAVES: usize = 3;
const WAVE: usize = 24;

const MODES: [TransportMode; 4] = [
    TransportMode::InProc,
    TransportMode::Threaded { threads: 1 },
    TransportMode::Threaded { threads: 2 },
    TransportMode::Threaded { threads: 8 },
];

/// A scratch journal path unique to this test binary and `name`.
fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrio-pipelined-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{name}.qj"))
}

/// Six devices of rising noise under a fault plan, with breakers on.
fn fleet(mode: TransportMode, journal: Option<&PathBuf>) -> Qrio {
    let mut qrio = Qrio::with_config(
        FidelityRankingConfig {
            shots: 48,
            seed: 31,
            shortfall_weight: 100.0,
        },
        31,
    );
    if let Some(path) = journal {
        qrio.enable_durability(path, DurabilityConfig::default())
            .unwrap();
    }
    for d in 0..DEVICES {
        let noise = 0.002 + 0.004 * d as f64;
        let backend = Backend::uniform(format!("qpu-{d}"), topology::line(6), noise, 0.02);
        qrio.add_device(backend).unwrap();
    }
    qrio.configure_faults(Some(FaultInjector {
        seed: 9,
        transient_rate: 0.15,
        calibration_rate: 0.05,
        slow_rate: 0.05,
        flap_rate: 0.03,
    }))
    .unwrap();
    qrio.configure_breakers(Some(BreakerConfig {
        consecutive_failures: 3,
        failure_rate: 2.0,
        window: 8,
        open_ticks: 2,
        probe_jobs: 1,
    }))
    .unwrap();
    qrio.set_transport(mode);
    qrio
}

/// The `i`-th job: GHZ circuits spread by `min_queue`, every fourth ranked
/// by fidelity, all retried on a fixed backoff.
fn request(i: usize) -> JobRequest {
    let builder = JobRequestBuilder::new()
        .with_circuit(&library::ghz(3 + i % 3).unwrap())
        .job_name(format!("wave-{i:03}"))
        .shots(24)
        .retry_policy(RetryPolicy::fixed(3, 1));
    let builder = if i % 4 == 3 {
        builder.fidelity_target(0.8)
    } else {
        builder.min_queue()
    };
    builder.build().unwrap()
}

/// Three waves of 24 jobs, each ticked until the service loop is idle, with
/// a heal sweep after each so flapped devices come back.
fn drive(qrio: &mut Qrio) {
    for wave in 0..WAVES {
        for i in wave * WAVE..(wave + 1) * WAVE {
            let _ = qrio.enqueue(&request(i)).unwrap();
        }
        qrio.run_until_idle();
        qrio.heal_devices().unwrap();
    }
}

/// What a user can see of a finished run: the watch log, the state dump
/// without its transport line, and every job's outcome.
fn observe(qrio: &Qrio) -> (String, String, Vec<String>) {
    let watch = format!("{:#?}", qrio.watch(0));
    let state = qrio
        .describe_state()
        .lines()
        .filter(|line| !line.starts_with("transport ="))
        .collect::<Vec<_>>()
        .join("\n");
    let outcomes = (0..WAVES * WAVE)
        .map(|i| format!("{:?}", qrio.outcome(&JobId::new(format!("wave-{i:03}")))))
        .collect();
    (watch, state, outcomes)
}

/// Decode a recorded control trace into its envelopes, in transport order.
fn envelopes(trace: &[u8]) -> Vec<Envelope> {
    let mut cursor = 0;
    let mut out = Vec::new();
    while cursor < trace.len() {
        let (envelope, consumed) = Envelope::decode(&trace[cursor..]).unwrap();
        out.push(envelope);
        cursor += consumed;
    }
    out
}

#[test]
fn every_transport_sees_the_same_run_and_writes_the_same_journal() {
    let mut reference = None;
    for (index, mode) in MODES.into_iter().enumerate() {
        let path = journal_path(&format!("mode-{index}"));
        let _ = fs::remove_file(&path);
        let mut qrio = fleet(mode, Some(&path));
        drive(&mut qrio);
        let seen = observe(&qrio);
        assert!(qrio.durability_error().is_none(), "{mode:?}");
        drop(qrio);
        let journal = fs::read(&path).unwrap();
        let (recovered, _) = Qrio::recover(&path).unwrap();
        let recovered = (
            recovered.describe_state(),
            format!("{:#?}", recovered.watch(0)),
        );
        let _ = fs::remove_file(&path);
        let run = (seen, journal, recovered);
        match &reference {
            None => {
                let ((watch, state, outcomes), _, _) = &run;
                let succeeded = outcomes.iter().filter(|o| o.starts_with("Ok(")).count();
                let failed = outcomes.len() - succeeded;
                assert!(
                    succeeded > WAVES * WAVE / 2 && failed > 0,
                    "{succeeded} succeeded, {failed} failed: the workload should see both"
                );
                assert!(watch.contains("Retrying"), "no attempt was retried");
                assert!(!state.contains("(0 transitions)"), "no breaker moved");
                reference = Some(run);
            }
            Some(reference) => {
                let ((watch, state, outcomes), journal, recovered) = &run;
                let ((ref_watch, ref_state, ref_outcomes), ref_journal, ref_recovered) = reference;
                assert!(watch == ref_watch, "{mode:?}: watch log differs");
                assert_eq!(state, ref_state, "{mode:?}: describe_state");
                assert_eq!(outcomes, ref_outcomes, "{mode:?}: outcomes");
                assert!(journal == ref_journal, "{mode:?}: journal bytes differ");
                assert_eq!(recovered, ref_recovered, "{mode:?}: recovered state");
            }
        }
    }
}

#[test]
fn in_proc_sends_every_run_of_a_tick_before_its_first_phase() {
    let mut qrio = fleet(TransportMode::InProc, None);
    qrio.enable_control_trace();
    drive(&mut qrio);
    // Every frame of the execution step is stamped with its tick: the
    // agents echo the command's time in their reports.
    let trace = envelopes(&qrio.take_control_trace());
    let mut ticks = std::collections::BTreeMap::<u64, Vec<bool>>::new();
    for envelope in &trace {
        match &envelope.payload {
            Payload::Command(NodeCommand::Run { .. }) => {
                ticks.entry(envelope.virtual_ts).or_default().push(true);
            }
            Payload::Report(NodeReport::Phase { .. }) => {
                ticks.entry(envelope.virtual_ts).or_default().push(false);
            }
            _ => {}
        }
    }
    let mut pipelined = 0;
    for (tick, frames) in &ticks {
        let runs = frames.iter().filter(|run| **run).count();
        assert_eq!(runs * 2, frames.len(), "tick {tick}: a Phase per Run");
        assert!(
            frames[..runs].iter().all(|run| *run),
            "tick {tick}: a Phase came back before the last Run went out: {frames:?}"
        );
        pipelined += usize::from(runs > 1);
    }
    assert!(
        pipelined > WAVES,
        "only {pipelined} ticks ran more than one device"
    );
}
