//! In-crate tests of the orchestrator: the ones that reach past the public
//! API (a dead transport under the control plane, the command-construction
//! counter) live here; the rest pin the facade end to end.

use std::cell::Cell;

use qrio_agent::{NodeAgent, Transport};
use qrio_backend::{topology, Backend};
use qrio_circuit::library;
use qrio_cluster::{ClusterError, DeviceRequirements, FaultInjector, NodeStatus, Resources};
use qrio_meta::{DeviceTelemetry, FidelityRankingConfig};

use super::Qrio;
use crate::breaker::BreakerConfig;
use crate::control::TransportMode;
use crate::error::QrioError;
use crate::lifecycle::{Cause, JobId, JobState};
use crate::visualizer::{JobRequest, JobRequestBuilder, TopologyDesigner};

thread_local! {
    /// How many [`crate::Command`]s this thread has built for a journal —
    /// bumped by `Qrio::journal`, the one place that builds them.
    pub(super) static COMMANDS_BUILT: Cell<usize> = const { Cell::new(0) };
}

fn small_qrio() -> Qrio {
    let mut qrio = Qrio::with_config(
        FidelityRankingConfig {
            shots: 128,
            seed: 5,
            shortfall_weight: 100.0,
        },
        7,
    );
    qrio.add_device(Backend::uniform("clean", topology::line(10), 0.001, 0.01))
        .unwrap();
    qrio.add_device(Backend::uniform("mid", topology::ring(10), 0.02, 0.15))
        .unwrap();
    qrio.add_device(Backend::uniform("noisy", topology::line(10), 0.05, 0.4))
        .unwrap();
    qrio
}

#[test]
fn fidelity_job_end_to_end() {
    let mut qrio = small_qrio();
    let bv = library::bernstein_vazirani(6, 0b101101).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name("bv-e2e")
        .fidelity_target(0.9)
        .shots(256)
        .build()
        .unwrap();
    let outcome = qrio.submit(&request).unwrap();
    assert_eq!(outcome.decision.node, "clean");
    assert!(outcome.achieved_fidelity.unwrap() > 0.8);
    assert!(!outcome.counts.is_empty());
    assert_eq!(qrio.cluster().job("bv-e2e").unwrap().node(), None);
    // The bind line, then the runner's: no line per state.
    let logs = qrio.job_logs("bv-e2e").unwrap();
    assert!(logs[0].starts_with("scheduled on 'clean'"), "{logs:?}");
    assert!(logs.len() > 1 && !logs.iter().any(|line| line.contains("phase")));
    assert_eq!(outcome.logs, logs);
    assert!(qrio.job_logs("missing").is_err());
}

#[test]
fn topology_job_end_to_end_picks_matching_device() {
    let mut qrio = Qrio::with_config(
        FidelityRankingConfig {
            shots: 64,
            seed: 3,
            shortfall_weight: 100.0,
        },
        9,
    );
    qrio.add_device(Backend::uniform("ring-dev", topology::ring(10), 0.01, 0.05))
        .unwrap();
    qrio.add_device(Backend::uniform(
        "tree-dev",
        topology::binary_tree(10),
        0.01,
        0.05,
    ))
    .unwrap();
    qrio.add_device(Backend::uniform("line-dev", topology::line(10), 0.01, 0.05))
        .unwrap();

    let mut designer = TopologyDesigner::new(10);
    for (a, b) in topology::binary_tree(10).edges() {
        designer.connect(a, b).unwrap();
    }
    let request = JobRequestBuilder::new()
        .job_name("topo-e2e")
        .topology(&designer)
        .with_circuit(&library::ghz(10).unwrap())
        .build()
        .unwrap();
    let outcome = qrio.submit(&request).unwrap();
    assert_eq!(outcome.decision.node, "tree-dev");
}

#[test]
fn requirements_can_make_a_job_unschedulable() {
    let mut qrio = small_qrio();
    let ghz = library::ghz(4).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&ghz)
        .job_name("impossible")
        .requirements(DeviceRequirements {
            max_two_qubit_error: Some(0.0001),
            ..DeviceRequirements::default()
        })
        .fidelity_target(0.99)
        .build()
        .unwrap();
    assert!(qrio.submit(&request).is_err());
    assert_eq!(qrio.cluster().job("impossible").unwrap().node(), None);
    // The async view agrees: enqueue succeeded, the job ended Failed.
    assert_eq!(
        qrio.status(&JobId::new("impossible")).unwrap(),
        JobState::Failed
    );
}

#[test]
fn duplicate_devices_are_rejected() {
    let mut qrio = small_qrio();
    assert!(qrio
        .add_device(Backend::uniform("clean", topology::line(4), 0.0, 0.0))
        .is_err());
}

#[test]
fn enqueue_is_non_blocking_and_tick_drives_the_lifecycle() {
    let mut qrio = small_qrio();
    let bv = library::bernstein_vazirani(5, 0b10110).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name("async-job")
        .fidelity_target(0.9)
        .shots(128)
        .build()
        .unwrap();
    let id = qrio.enqueue(&request).unwrap();
    assert_eq!(id.as_str(), "async-job");
    // Nothing has run yet: the job is Queued and holds no reservation.
    assert_eq!(qrio.status(&id).unwrap(), JobState::Queued);
    assert_eq!(qrio.cluster().job("async-job").unwrap().node(), None);
    assert!(qrio.outcome(&id).is_err(), "no outcome before it runs");

    // One tick schedules *and* runs it (admission then execution).
    let report = qrio.tick();
    assert_eq!(report.tick, 1);
    assert_eq!(report.scheduled, vec![id.clone()]);
    assert_eq!(report.completed, vec![id.clone()]);
    assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
    let outcome = qrio.outcome(&id).unwrap();
    assert_eq!(outcome.decision.node, "clean");
    assert!(!outcome.counts.is_empty());

    // The transition history is complete, legal and timestamped.
    let history = &qrio.job_status(&id).unwrap().history;
    let states: Vec<JobState> = history.iter().map(|(_, s)| *s).collect();
    assert_eq!(
        states,
        vec![
            JobState::Submitted,
            JobState::Queued,
            JobState::Scheduled,
            JobState::Running,
            JobState::Succeeded
        ]
    );
    assert_eq!(history[0].0, 0, "enqueued before the first tick");
    assert_eq!(history[4].0, 1, "finished on tick 1");
}

#[test]
fn watch_streams_events_from_any_cursor() {
    let mut qrio = small_qrio();
    let bv = library::bernstein_vazirani(4, 0b1011).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name("watched")
        .fidelity_target(0.9)
        .shots(64)
        .build()
        .unwrap();
    let id = qrio.enqueue(&request).unwrap();
    let first = qrio.watch(0);
    assert_eq!(first.len(), 2, "Submitted + Queued");
    let cursor = first.last().unwrap().seq + 1;
    qrio.run_until_idle();
    let rest = qrio.watch(cursor);
    let states: Vec<JobState> = rest.iter().map(|e| e.to).collect();
    assert_eq!(
        states,
        vec![JobState::Scheduled, JobState::Running, JobState::Succeeded]
    );
    for event in rest {
        assert_eq!(event.job, id);
        assert!(event.from.unwrap().can_transition_to(event.to));
    }
    // Sequences are dense and the cursor never overshoots.
    assert_eq!(
        qrio.watch(0).len() as u64,
        qrio.watch(0).last().unwrap().seq + 1
    );
    assert!(qrio.watch(9999).is_empty());
}

#[test]
fn duplicate_enqueue_is_rejected_without_leaking() {
    let mut qrio = small_qrio();
    let bv = library::bernstein_vazirani(4, 0b1011).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name("dup")
        .fidelity_target(0.9)
        .build()
        .unwrap();
    let _ = qrio.enqueue(&request).unwrap();
    let before_meta = qrio.meta().job_count();
    assert!(matches!(
        qrio.enqueue(&request),
        Err(QrioError::Cluster(ClusterError::DuplicateJob(_)))
    ));
    assert_eq!(qrio.meta().job_count(), before_meta);
    // The original job is unharmed and still runs to completion.
    qrio.run_until_idle();
    assert_eq!(
        qrio.status(&JobId::new("dup")).unwrap(),
        JobState::Succeeded
    );
}

#[test]
fn unknown_job_ids_error_everywhere() {
    let mut qrio = small_qrio();
    let ghost = JobId::new("ghost");
    assert!(matches!(qrio.status(&ghost), Err(QrioError::UnknownJob(_))));
    assert!(qrio.job_status(&ghost).is_err());
    assert!(qrio.outcome(&ghost).is_err());
    assert!(qrio.cancel(&ghost).is_err());
    assert!(qrio.rank_ready(&ghost).is_err());
}

// --- Fault tolerance ----------------------------------------------------------------

use crate::BreakerState;
use qrio_cluster::{FaultKind, RetryPolicy};

/// An injector that faults every attempt with the given kind's rate at 1.
fn always(kind: FaultKind) -> FaultInjector {
    let mut injector = FaultInjector {
        seed: 11,
        ..FaultInjector::default()
    };
    match kind {
        FaultKind::TransientExecution => injector.transient_rate = 1.0,
        FaultKind::CalibrationGlitch => injector.calibration_rate = 1.0,
        FaultKind::SlowJob => injector.slow_rate = 1.0,
        FaultKind::DeviceFlap => injector.flap_rate = 1.0,
    }
    injector
}

fn faulty_request(name: &str, retry: Option<RetryPolicy>, deadline: Option<u64>) -> JobRequest {
    let bv = library::bernstein_vazirani(5, 0b10110).unwrap();
    let mut builder = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name(name)
        .fidelity_target(0.9)
        .shots(64);
    if let Some(policy) = retry {
        builder = builder.retry_policy(policy);
    }
    if let Some(ticks) = deadline {
        builder = builder.deadline(ticks);
    }
    builder.build().unwrap()
}

#[test]
fn injected_fault_retries_then_succeeds_once_faults_clear() {
    let mut qrio = small_qrio();
    qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
        .unwrap();
    let id = qrio
        .enqueue(&faulty_request(
            "flaky",
            Some(RetryPolicy::fixed(5, 2)),
            None,
        ))
        .unwrap();
    let report = qrio.tick();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Retrying);
    assert_eq!(report.retried, vec![id.clone()]);
    assert!(report.completed.is_empty(), "a retrying job is not done");
    assert!(report.made_progress());
    let status = qrio.job_status(&id).unwrap();
    assert!(
        matches!(
            status.cause.as_deref(),
            Some(Cause::Attempt { n: 1, error: ClusterError::InjectedFault { kind, .. }, .. })
                if *kind == FaultKind::TransientExecution
        ),
        "the cause names the fault: {:?}",
        status.cause
    );

    // The fault storm passes; the backoff elapses; the retry succeeds.
    qrio.configure_faults(None).unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
    assert!(qrio.dead_letters().is_empty());
    let states: Vec<JobState> = qrio
        .job_status(&id)
        .unwrap()
        .history
        .iter()
        .map(|(_, s)| *s)
        .collect();
    assert_eq!(
        states,
        vec![
            JobState::Submitted,
            JobState::Queued,
            JobState::Scheduled,
            JobState::Running,
            JobState::Retrying,
            JobState::Queued,
            JobState::Scheduled,
            JobState::Running,
            JobState::Succeeded,
        ]
    );
    // The outcome is a real one: counts from the successful attempt.
    assert!(!qrio.outcome(&id).unwrap().counts.is_empty());
}

/// A transport whose workers are gone: agents register, nothing sends.
#[derive(Debug)]
struct DeadTransport;

impl Transport for DeadTransport {
    fn mode(&self) -> &'static str {
        "dead"
    }
    fn register(&mut self, _agent: NodeAgent) -> Result<(), qrio_agent::AgentError> {
        Ok(())
    }
    fn send(&mut self, _frame: Vec<u8>) -> Result<(), qrio_agent::AgentError> {
        Err(qrio_agent::AgentError::Disconnected)
    }
    fn recv(&mut self, _wait: bool) -> Result<Option<Vec<u8>>, qrio_agent::AgentError> {
        Ok(None)
    }
    fn node_names(&self) -> Vec<String> {
        Vec::new()
    }
}

#[test]
fn wire_failure_releases_the_node_and_is_retried_like_any_failed_attempt() {
    let mut qrio = small_qrio();
    qrio.control.install(Box::new(DeadTransport));
    let id = qrio
        .enqueue(&faulty_request(
            "unplugged",
            Some(RetryPolicy::fixed(3, 1)),
            None,
        ))
        .unwrap();
    qrio.tick();

    // The attempt failed on the wire, and settling it released the job's
    // reservation.
    assert_eq!(qrio.status(&id).unwrap(), JobState::Retrying);
    let cause = qrio.job_status(&id).unwrap().cause.clone().unwrap();
    assert!(cause.to_string().contains("control plane:"), "{cause}");
    assert_eq!(qrio.cluster().job("unplugged").unwrap().node(), None);
    for node in qrio.cluster().nodes() {
        assert_eq!(node.allocated(), Resources::default(), "{}", node.name());
    }

    // On a healthy transport the retry binds once and succeeds.
    qrio.set_transport(TransportMode::InProc);
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
    for node in qrio.cluster().nodes() {
        assert_eq!(node.allocated(), Resources::default(), "{}", node.name());
    }
}

#[test]
fn exhausted_retries_dead_letter_the_job() {
    let mut qrio = small_qrio();
    qrio.configure_faults(Some(always(FaultKind::CalibrationGlitch)))
        .unwrap();
    let id = qrio
        .enqueue(&faulty_request(
            "doomed",
            Some(RetryPolicy::fixed(3, 1)),
            None,
        ))
        .unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
    assert_eq!(qrio.dead_letters(), vec![id.clone()]);
    // Three attempts ran: two Retrying transitions, then the terminal one.
    let retries = qrio
        .watch(0)
        .iter()
        .filter(|e| e.job == id && e.to == JobState::Retrying)
        .count();
    assert_eq!(retries, 2);
    let status = qrio.job_status(&id).unwrap();
    let cause = status.cause.as_deref().unwrap();
    assert!(cause.to_string().contains("calibration glitch"), "{cause}");
}

#[test]
fn faults_without_a_policy_fail_fast_and_skip_the_dead_letter_queue() {
    let mut qrio = small_qrio();
    qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
        .unwrap();
    let id = qrio
        .enqueue(&faulty_request("fragile", None, None))
        .unwrap();
    qrio.tick();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
    assert!(qrio.dead_letters().is_empty(), "no policy, no dead letter");
}

#[test]
fn an_attempts_reasons_name_its_fault_kind_and_a_real_failure_names_none() {
    // The causes of the events that end an attempt, `Running → Retrying`
    // (`Attempt`) and `Running → Failed` (`Failed`): a report counts
    // injected faults from their errors, and their text names the fault.
    fn attempt_causes(qrio: &Qrio, id: &JobId) -> Vec<Cause> {
        let ended = qrio
            .watch(0)
            .iter()
            .filter(|event| event.job == *id && event.from == Some(JobState::Running));
        ended
            .filter_map(|event| event.cause.as_deref().cloned())
            .collect()
    }
    let fault = |cause: &Cause| match cause.error() {
        Some(ClusterError::InjectedFault { kind, .. }) => Some(*kind),
        _ => None,
    };
    let two_attempts = Some(RetryPolicy::fixed(2, 1));
    for kind in FaultKind::ALL {
        let mut qrio = small_qrio();
        qrio.configure_faults(Some(always(kind))).unwrap();
        let id = qrio
            .enqueue(&faulty_request(kind.name(), two_attempts, None))
            .unwrap();
        qrio.run_until_idle();
        let causes = attempt_causes(&qrio, &id);
        assert_eq!(causes.len(), 2, "{kind}: {causes:?}");
        assert!(
            matches!(causes[0], Cause::Attempt { n: 1, .. }),
            "{}",
            causes[0]
        );
        assert!(matches!(causes[1], Cause::Failed(_)), "{}", causes[1]);
        for cause in &causes {
            assert_eq!(fault(cause), Some(kind), "{cause}");
            assert!(cause.to_string().contains(kind.reason()), "{cause}");
        }
    }
    // A min_queue job without a circuit schedules, then fails in the runner.
    let mut qrio = small_qrio();
    let no_circuit = JobRequestBuilder::new()
        .job_name("no-circuit")
        .num_qubits(3)
        .min_queue()
        .retry_policy(RetryPolicy::fixed(2, 1))
        .build()
        .unwrap();
    let id = qrio.enqueue(&no_circuit).unwrap();
    qrio.run_until_idle();
    assert!(matches!(
        qrio.outcome(&id),
        Err(QrioError::Cluster(ClusterError::ExecutionFailed { .. }))
    ));
    let causes = attempt_causes(&qrio, &id);
    assert_eq!(causes.len(), 2, "{causes:?}");
    for cause in &causes {
        assert_eq!(fault(cause), None, "{cause}");
    }
}

#[test]
fn a_deadline_expires_a_job_stuck_in_backoff() {
    let mut qrio = small_qrio();
    qrio.configure_faults(Some(always(FaultKind::SlowJob)))
        .unwrap();
    let id = qrio
        .enqueue(&faulty_request(
            "late",
            Some(RetryPolicy::fixed(5, 100)),
            Some(3),
        ))
        .unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
    let status = qrio.job_status(&id).unwrap();
    assert!(
        matches!(
            status.cause.as_deref(),
            Some(Cause::Failed(ClusterError::DeadlineExceeded { .. }))
        ),
        "cause: {:?}",
        status.cause
    );
    assert!(
        qrio.dead_letters().is_empty(),
        "a blown deadline is not retry exhaustion"
    );
    // The expiry fired on the first tick past the absolute deadline, not
    // after the 100-tick backoff.
    let (at, _) = *qrio.job_status(&id).unwrap().history.last().unwrap();
    assert_eq!(at, 4, "deadline_at = 3, first tick with now > 3 is 4");
}

#[test]
fn deadlines_are_inert_when_the_job_finishes_in_time() {
    let mut qrio = small_qrio();
    let id = qrio
        .enqueue(&faulty_request("prompt", None, Some(50)))
        .unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
}

#[test]
fn breaker_trips_cordon_and_the_tick_timer_probes_and_heals() {
    let mut qrio = Qrio::with_config(
        FidelityRankingConfig {
            shots: 64,
            seed: 5,
            shortfall_weight: 100.0,
        },
        7,
    );
    qrio.add_device(Backend::uniform("solo", topology::line(8), 0.01, 0.05))
        .unwrap();
    qrio.configure_breakers(Some(BreakerConfig {
        consecutive_failures: 2,
        failure_rate: 2.0,
        window: 8,
        open_ticks: 2,
        probe_jobs: 1,
    }))
    .unwrap();
    qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
        .unwrap();

    let a = qrio.enqueue(&faulty_request("burn-a", None, None)).unwrap();
    let b = qrio.enqueue(&faulty_request("burn-b", None, None)).unwrap();
    qrio.tick(); // runs burn-a: failure 1
    qrio.tick(); // runs burn-b: failure 2 → breaker trips at t=2
    assert_eq!(qrio.status(&a).unwrap(), JobState::Failed);
    assert_eq!(qrio.status(&b).unwrap(), JobState::Failed);
    let board = qrio.breakers().unwrap();
    assert_eq!(board.trip_count("solo"), 1);
    assert!(matches!(
        board.state("solo"),
        BreakerState::Open { until: 4 }
    ));
    assert!(
        qrio.cluster().node("solo").unwrap().status() != NodeStatus::Ready,
        "tripped breaker cordons the device"
    );

    // While cordoned, the telemetry overlay reports the full penalty.
    qrio.report_telemetry([(
        "solo".to_string(),
        DeviceTelemetry {
            queue_depth: 0,
            utilization: 0.0,
            health_penalty: 0.0,
        },
    )]);
    let telemetry = qrio.meta().telemetry_for("solo").unwrap();
    assert_eq!(telemetry.health_penalty, 1.0);

    // The storm passes. A queued job waits out the open interval, the
    // timer probes at t=4, and the probe closes the breaker.
    qrio.configure_faults(None).unwrap();
    let c = qrio.enqueue(&faulty_request("after", None, None)).unwrap();
    qrio.tick(); // t=3: still open, job deferred
    assert_eq!(qrio.status(&c).unwrap(), JobState::Queued);
    qrio.tick(); // t=4: probation begins, job schedules and runs
    assert_eq!(qrio.status(&c).unwrap(), JobState::Succeeded);
    assert_eq!(qrio.breakers().unwrap().state("solo"), BreakerState::Closed);
    assert!(qrio.cluster().node("solo").unwrap().status() == NodeStatus::Ready);
}

#[test]
fn interrupt_flaps_a_scheduled_job_and_its_backoff_requeues_it() {
    let mut qrio = small_qrio();
    let id = qrio
        .enqueue(&faulty_request(
            "cut-off",
            Some(RetryPolicy::fixed(3, 1_000)),
            None,
        ))
        .unwrap();
    // Interrupt requires a bound job.
    assert!(matches!(
        qrio.interrupt(&id),
        Err(QrioError::Cluster(ClusterError::PhaseConflict { .. }))
    ));
    qrio.schedule(&id).unwrap();
    let err = qrio.interrupt(&id).unwrap_err();
    assert!(matches!(
        err,
        QrioError::Cluster(ClusterError::InjectedFault {
            kind: FaultKind::DeviceFlap,
            ..
        })
    ));
    assert_eq!(qrio.status(&id).unwrap(), JobState::Retrying);
    // Only a bound or running job can be interrupted.
    assert!(matches!(
        qrio.interrupt(&id),
        Err(QrioError::Cluster(ClusterError::PhaseConflict { .. }))
    ));

    // The backoff horizon is 1000 ticks away; the clock gets there.
    let fired = qrio.advance_to(999).unwrap();
    assert!(fired.requeued.is_empty());
    let fired = qrio.advance_to(1000).unwrap();
    assert_eq!(fired.requeued, std::slice::from_ref(&id));
    assert_eq!(qrio.status(&id).unwrap(), JobState::Queued);

    // The flap marked the device not-ready; heal and finish the retry.
    qrio.heal_devices().unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
}

#[test]
fn retrying_jobs_can_be_cancelled() {
    let mut qrio = small_qrio();
    qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
        .unwrap();
    let id = qrio
        .enqueue(&faulty_request(
            "abandoned",
            Some(RetryPolicy::fixed(5, 1_000)),
            None,
        ))
        .unwrap();
    qrio.tick();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Retrying);
    qrio.cancel(&id).unwrap();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Cancelled);
    assert!(qrio.dead_letters().is_empty());
}

#[test]
fn tick_admission_scores_against_the_device_queues_and_reservations() {
    // Without a service model, what a `tick()` admission scores against is
    // each device's queue and the share of its node that reservations hold:
    // here three jobs bound by hand, two waiting on `clean`, one on `mid`.
    let mut qrio = small_qrio();
    for (name, device) in [("held-0", "clean"), ("held-1", "clean"), ("held-2", "mid")] {
        let id = qrio.enqueue(&faulty_request(name, None, None)).unwrap();
        qrio.schedule(&id).unwrap();
        qrio.rebind(&id, device).unwrap();
    }
    let _ = qrio
        .enqueue(&faulty_request("newcomer", None, None))
        .unwrap();
    let devices = ["clean", "mid", "noisy"];
    let at_admission = devices.map(|device| {
        let node = qrio.cluster().node(device).unwrap();
        (qrio.device_queue(device).count(), node.utilization())
    });
    assert_eq!(at_admission.map(|(depth, _)| depth), [2, 1, 0]);
    assert!(at_admission[0].1 > at_admission[1].1 && at_admission[1].1 > 0.0);
    qrio.tick();
    for (device, (depth, utilization)) in devices.into_iter().zip(at_admission) {
        let telemetry = qrio.meta().telemetry_for(device).unwrap();
        let seen = (telemetry.queue_depth, telemetry.utilization);
        assert_eq!(seen, (depth, utilization), "{device}");
    }
}

#[test]
fn zero_penalty_breakers_leave_scores_and_routing_unchanged() {
    // The same workload with and without an (untripped) breaker board
    // must produce identical decisions — the penalty term is strictly
    // additive over a zero baseline.
    let run = |with_breakers: bool| -> Vec<String> {
        let mut qrio = small_qrio();
        if with_breakers {
            qrio.configure_breakers(Some(BreakerConfig::default()))
                .unwrap();
        }
        let mut nodes = Vec::new();
        for name in ["w1", "w2", "w3"] {
            let id = qrio.enqueue(&faulty_request(name, None, None)).unwrap();
            qrio.run_until_idle();
            nodes.push(qrio.outcome(&id).unwrap().decision.node);
        }
        nodes
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn submit_waits_out_a_retry_backoff_instead_of_forcing_the_job() {
    // A tick that only moves the clock is the progress of a job in backoff,
    // not a stall: the blocking wrapper must not force-admit (and so bind) a
    // `Retrying` job, which skips the backoff and writes an illegal edge.
    let mut qrio = small_qrio();
    qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
        .unwrap();
    let request = faulty_request("patient", Some(RetryPolicy::fixed(3, 3)), None);
    assert!(qrio.submit(&request).is_err());

    let id = JobId::new("patient");
    assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
    assert_eq!(qrio.dead_letters(), vec![id.clone()], "third failure");
    let history = &qrio.job_status(&id).unwrap().history;
    for edge in history.windows(2) {
        assert!(
            edge[0].1.can_transition_to(edge[1].1),
            "illegal edge {edge:?} in {history:?}"
        );
    }
    // Attempts at ticks 1, 4 and 7: each failure at t backs off to t + 3.
    let entered = |state: JobState| -> Vec<u64> {
        let entries = history.iter().filter(|(_, entered)| *entered == state);
        entries.map(|(at, _)| *at).collect()
    };
    assert_eq!(entered(JobState::Retrying), vec![1, 4]);
    assert_eq!(entered(JobState::Queued), vec![0, 4, 7]);
    assert_eq!(entered(JobState::Running), vec![1, 4, 7]);
    assert_eq!(qrio.now(), 7);
}

#[test]
fn a_fixed_point_of_forced_failures_owes_no_tick() {
    // Every device is cordoned: the first tick defers both jobs, the forced
    // verdicts fail them, and with nothing left the driver stops there.
    let mut qrio = small_qrio();
    for device in ["clean", "mid", "noisy"] {
        qrio.cordon_device(device).unwrap();
    }
    let ids: Vec<JobId> = ["stuck-a", "stuck-b"]
        .map(|name| qrio.enqueue(&faulty_request(name, None, None)).unwrap())
        .into();
    let ended = qrio.run_until_idle();
    assert_eq!(ended, ids);
    assert_eq!(qrio.status(&ids[0]).unwrap(), JobState::Failed);
    assert_eq!(qrio.now(), 1, "one tick, then the forced verdicts");
}

#[test]
fn no_command_is_built_without_a_journal() {
    // One round of the calls the benchmark workloads make (plus the rest of
    // a job's life), counted at the one place a `Command` is built.
    fn round(qrio: &mut Qrio, tag: &str) {
        let by_hand = qrio
            .enqueue(&faulty_request(&format!("{tag}-by-hand"), None, None))
            .unwrap();
        qrio.report_telemetry([("clean".to_string(), DeviceTelemetry::default())]);
        qrio.schedule(&by_hand).unwrap();
        qrio.execute(&by_hand).unwrap();
        let looped = qrio
            .enqueue(&faulty_request(&format!("{tag}-looped"), None, None))
            .unwrap();
        qrio.tick();
        assert_eq!(qrio.status(&looped).unwrap(), JobState::Succeeded);
        let dropped = qrio
            .enqueue(&faulty_request(&format!("{tag}-dropped"), None, None))
            .unwrap();
        qrio.cancel(&dropped).unwrap();
        qrio.cordon_device("noisy").unwrap();
        qrio.uncordon_device("noisy").unwrap();
    }
    let built = || COMMANDS_BUILT.with(Cell::get);

    let mut qrio = small_qrio();
    let before = built();
    round(&mut qrio, "plain");
    assert_eq!(built(), before, "a Command was built for no journal");

    // The counter does sit where commands are built: with a journal attached
    // the same round builds exactly the commands the journal then holds.
    let dir = std::env::temp_dir().join(format!("qrio-orchestrator-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("commands-built.qj");
    qrio.enable_durability(&path, crate::DurabilityConfig::default())
        .unwrap();
    round(&mut qrio, "durable");
    assert!(qrio.durability_error().is_none());
    let journaled = qrio_journal::scan_file(&path).unwrap().records;
    let commands = journaled
        .iter()
        .filter(|record| record.kind == crate::durability::RECORD_COMMAND)
        .count();
    assert_eq!(
        commands, 10,
        "enqueue ×3, telemetry, schedule, execute, tick, cancel, cordon, uncordon"
    );
    assert_eq!(built() - before, commands);
    let _ = std::fs::remove_file(&path);
}

// --- The one clock ------------------------------------------------------------------

/// What [`Qrio::next_due`] must equal: the earliest timer found by walking
/// every job and every breaker, which the due-indexes exist not to do.
fn scanned_next_due(qrio: &Qrio) -> Option<u64> {
    let jobs = qrio.lifecycle.jobs.values().flat_map(|tracked| {
        let state = tracked.status.state;
        let backoff = (state == JobState::Retrying).then_some(tracked.not_before);
        let waits = matches!(state, JobState::Queued | JobState::Retrying);
        let deadline = tracked.deadline_at.filter(|_| waits);
        [backoff, deadline.map(|at| at + 1)]
    });
    let breakers = qrio.breakers.iter().flat_map(|board| {
        board.breakers.values().map(|breaker| match breaker.state {
            BreakerState::Open { until } => Some(until),
            _ => None,
        })
    });
    jobs.chain(breakers).flatten().min()
}

/// Three jobs flapped off three devices at t=0, every flap tripping its
/// device's breaker (open until 4): `short` backs off until 2, `long` until
/// 6, and `doomed` until 9 under a deadline of 4 — it expires at 5.
fn timer_fixture() -> Qrio {
    let mut qrio = small_qrio();
    qrio.configure_breakers(Some(BreakerConfig {
        consecutive_failures: 1,
        failure_rate: 2.0,
        window: 4,
        open_ticks: 4,
        probe_jobs: 1,
    }))
    .unwrap();
    assert_eq!(qrio.next_due(), None, "nothing armed yet");
    for (name, delay, deadline) in [
        ("short", 2, None),
        ("long", 6, None),
        ("doomed", 9, Some(4)),
    ] {
        let policy = Some(RetryPolicy::fixed(3, delay));
        let id = qrio
            .enqueue(&faulty_request(name, policy, deadline))
            .unwrap();
        qrio.schedule(&id).unwrap();
        qrio.interrupt(&id).unwrap_err();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Retrying);
        assert_eq!(qrio.next_due(), scanned_next_due(&qrio), "after {name}");
    }
    assert_eq!(qrio.breakers().unwrap().total_trips(), 3);
    qrio
}

/// The timer events of a run, in order: `(at, who, what)` for every breaker
/// that began probing, every deadline expiry and every elapsed backoff.
fn timer_events(qrio: &Qrio) -> Vec<(u64, String, &'static str)> {
    let probing = qrio
        .breakers()
        .unwrap()
        .events()
        .iter()
        .filter_map(|event| {
            let timer = event.reason.starts_with("open interval elapsed");
            timer.then(|| (event.at, event.device.clone(), "probing"))
        });
    let jobs = qrio.watch(0).iter().filter_map(|event| {
        let what = match event.cause.as_deref()? {
            Cause::BackoffElapsed => "requeued",
            Cause::Failed(ClusterError::DeadlineExceeded { .. }) => "expired",
            _ => return None,
        };
        Some((event.at, event.job.to_string(), what))
    });
    probing.chain(jobs).collect()
}

#[test]
fn ticking_and_advancing_fire_the_same_timers_in_the_same_order() {
    let (mut ticked, mut advanced) = (timer_fixture(), timer_fixture());
    let mut by_tick = crate::TickReport::default();
    for _ in 0..6 {
        let report = ticked.tick();
        by_tick.probing.extend(report.probing);
        by_tick.expired.extend(report.expired);
        by_tick.requeued.extend(report.requeued);
        assert_eq!(ticked.next_due(), scanned_next_due(&ticked));
    }
    let at_once = advanced.advance_to(6).unwrap();
    assert_eq!(at_once.tick, 6);
    assert_eq!(advanced.now(), 6);
    assert_eq!(at_once.probing, ["clean", "mid", "noisy"]);
    assert_eq!(at_once.expired, [JobId::new("doomed")]);
    assert_eq!(at_once.requeued, [JobId::new("short"), JobId::new("long")]);
    assert_eq!(
        (by_tick.probing, by_tick.expired, by_tick.requeued),
        (at_once.probing, at_once.expired, at_once.requeued)
    );
    // Each timer fired at its own time, whichever way the clock got there.
    let fired = timer_events(&advanced);
    assert_eq!(fired, timer_events(&ticked));
    let times: Vec<u64> = fired.iter().map(|(at, _, _)| *at).collect();
    assert_eq!(times, [4, 4, 4, 2, 5, 6], "three breakers, then the jobs");
    // Only `tick()` admits what a timer re-queued.
    assert_eq!(
        ticked.status(&JobId::new("short")).unwrap(),
        JobState::Succeeded
    );
    assert_eq!(
        advanced.status(&JobId::new("short")).unwrap(),
        JobState::Queued
    );

    // Nothing is due twice.
    let again = advanced.advance_to(6).unwrap();
    let nothing = crate::TickReport {
        tick: 6,
        ..crate::TickReport::default()
    };
    assert_eq!(again, nothing);
}

#[test]
fn next_due_names_the_earliest_timer_of_any_kind() {
    let mut qrio = timer_fixture();
    // A backoff, the breakers, the deadline, the other backoff, nothing.
    for due in [2, 4, 5, 6] {
        assert_eq!(qrio.next_due(), Some(due));
        assert_eq!(qrio.next_due(), scanned_next_due(&qrio));
        // One short of it fires nothing.
        let early = qrio.advance_to(due - 1).unwrap();
        assert!(early.probing.is_empty() && early.expired.is_empty() && early.requeued.is_empty());
        qrio.advance_to(due).unwrap();
    }
    assert_eq!(qrio.next_due(), None);
    assert_eq!(scanned_next_due(&qrio), None);
    // A cancelled backoff is disarmed with its job.
    let mut qrio = timer_fixture();
    qrio.cancel(&JobId::new("short")).unwrap();
    assert_eq!(qrio.next_due(), Some(4));
    assert_eq!(qrio.next_due(), scanned_next_due(&qrio));
}

#[test]
fn the_clock_does_not_run_backwards() {
    let mut qrio = timer_fixture();
    qrio.advance_to(3).unwrap();
    let before = qrio.snapshot_record();
    assert_eq!(
        qrio.advance_to(2),
        Err(QrioError::ClockBehind { now: 2, clock: 3 })
    );
    assert!(
        qrio.snapshot_record() == before,
        "a refused move changed state"
    );
    assert_eq!(qrio.now(), 3);
}
