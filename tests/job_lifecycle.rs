//! Integration tests for the non-blocking job lifecycle API: enqueue /
//! tick / cancel / watch semantics, batch priorities, terminal-failure
//! cleanup, deterministic replays, and a property test that every observed
//! transition sequence is legal in the [`JobState`] machine.

use proptest::prelude::*;

use qrio::{JobId, JobRequest, JobRequestBuilder, JobState, Qrio, QrioError};
use qrio_backend::{topology, Backend};
use qrio_circuit::library;
use qrio_cluster::{ClusterError, DeviceRequirements, FaultInjector, Resources, RetryPolicy};
use qrio_meta::FidelityRankingConfig;

fn fast_qrio() -> Qrio {
    Qrio::with_config(
        FidelityRankingConfig {
            shots: 48,
            seed: 21,
            shortfall_weight: 100.0,
        },
        21,
    )
}

fn two_device_qrio() -> Qrio {
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("alpha", topology::line(8), 0.005, 0.02))
        .unwrap();
    qrio.add_device(Backend::uniform("beta", topology::line(8), 0.02, 0.1))
        .unwrap();
    qrio
}

fn fidelity_request(name: &str, qubits: usize, priority: u8) -> JobRequest {
    let circuit = library::ghz(qubits).unwrap();
    JobRequestBuilder::new()
        .with_circuit(&circuit)
        .job_name(name)
        .fidelity_target(0.9)
        .shots(32)
        .priority(priority)
        .build()
        .unwrap()
}

// --- Cancellation ------------------------------------------------------------------------

#[test]
fn cancel_while_queued_is_clean_and_final() {
    let mut qrio = two_device_qrio();
    let id = qrio.enqueue(&fidelity_request("early-out", 4, 0)).unwrap();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Queued);

    qrio.cancel(&id).unwrap();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Cancelled);
    assert_eq!(qrio.cluster().job("early-out").unwrap().node(), None);
    // Terminal cleanup: metadata and image are garbage-collected.
    assert!(qrio.meta().job_metadata("early-out").is_none());
    assert!(!qrio.cluster().registry().contains("qrio/early-out:latest"));
    // The outcome is a typed cancellation error.
    assert!(matches!(qrio.outcome(&id), Err(QrioError::JobCancelled(_))));
    // Cancelling again errors deterministically (never a silent rewrite).
    assert!(matches!(
        qrio.cancel(&id),
        Err(QrioError::Cluster(ClusterError::PhaseConflict { .. }))
    ));
    // A tick later the job is still Cancelled and nothing ran.
    let report = qrio.tick();
    assert!(report.is_idle());
    assert_eq!(qrio.status(&id).unwrap(), JobState::Cancelled);
}

#[test]
fn cancel_while_scheduled_releases_the_binding() {
    let mut qrio = two_device_qrio();
    let id = qrio.enqueue(&fidelity_request("bound", 4, 0)).unwrap();
    let decision = qrio.schedule(&id).unwrap();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Scheduled);
    let bound_node = decision.node.clone();
    assert_ne!(
        qrio.cluster().node(&bound_node).unwrap().allocated(),
        Resources::default()
    );

    qrio.cancel(&id).unwrap();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Cancelled);
    assert_eq!(
        qrio.cluster().node(&bound_node).unwrap().allocated(),
        Resources::default(),
        "cancellation returns the reserved resources"
    );
    // Executing a cancelled job errors deterministically.
    assert!(matches!(
        qrio.execute(&id),
        Err(QrioError::Cluster(ClusterError::PhaseConflict { .. }))
    ));
    // The watch event names the device whose binding was released.
    assert!(qrio.watch(0).iter().any(|event| {
        event.to == JobState::Cancelled && event.node.as_deref() == Some(bound_node.as_str())
    }));
}

#[test]
fn the_service_loop_runs_a_job_bound_by_hand() {
    // `schedule` binds outside `tick()` admission; the job waits in its
    // device's queue all the same, so the loop sees unsettled work, runs it
    // and releases its allocation.
    let mut qrio = two_device_qrio();
    let id = qrio.enqueue(&fidelity_request("by-hand", 4, 0)).unwrap();
    let node = qrio.schedule(&id).unwrap().node;
    assert_eq!(qrio.run_until_idle(), vec![id.clone()]);
    assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
    assert_eq!(
        qrio.cluster().node(&node).unwrap().allocated(),
        Resources::default(),
        "the run released what the binding reserved"
    );
}

#[test]
fn submit_never_force_fails_other_queued_jobs() {
    let mut qrio = two_device_qrio();
    // A job only 'alpha' can satisfy, enqueued while 'alpha' is cordoned:
    // it must wait, not fail.
    let circuit = library::ghz(3).unwrap();
    let picky = JobRequestBuilder::new()
        .with_circuit(&circuit)
        .job_name("waits-for-alpha")
        .fidelity_target(0.9)
        .requirements(DeviceRequirements {
            max_two_qubit_error: Some(0.05),
            ..DeviceRequirements::default()
        })
        .shots(32)
        .build()
        .unwrap();
    let waiting = qrio.enqueue(&picky).unwrap();
    qrio.cluster_mut().node_mut("alpha").unwrap().cordon();

    // A blocking submit of an unrelated job completes on the other device
    // and leaves the waiting job untouched.
    let outcome = qrio.submit(&fidelity_request("blocking", 3, 0)).unwrap();
    assert_eq!(outcome.decision.node, "beta");
    assert_eq!(
        qrio.status(&waiting).unwrap(),
        JobState::Queued,
        "submit() must not force-fail jobs it did not enqueue"
    );

    // Once the cordon lifts, the service loop schedules it as usual.
    qrio.cluster_mut().node_mut("alpha").unwrap().uncordon();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&waiting).unwrap(), JobState::Succeeded);
    assert_eq!(
        qrio.job_status(&waiting).unwrap().node.as_deref(),
        Some("alpha")
    );
}

#[test]
fn cancel_after_running_errors_deterministically() {
    let mut qrio = two_device_qrio();
    let id = qrio.enqueue(&fidelity_request("too-late", 4, 0)).unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
    for _ in 0..2 {
        // Same call, same typed error, every time.
        assert!(matches!(
            qrio.cancel(&id),
            Err(QrioError::Cluster(ClusterError::PhaseConflict { .. }))
        ));
    }
    assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
    assert!(qrio.outcome(&id).is_ok(), "results survive cancel attempts");
}

// --- Batch submission with mixed priorities ----------------------------------------------

#[test]
fn batches_drain_by_priority_then_submission_order() {
    let mut qrio = fast_qrio();
    // One device, so admission order is directly observable as the device's
    // FIFO execution order.
    qrio.add_device(Backend::uniform("solo", topology::line(8), 0.005, 0.02))
        .unwrap();
    let requests = vec![
        fidelity_request("a-low", 3, 0),
        fidelity_request("b-high", 3, 2),
        fidelity_request("c-mid", 3, 1),
        fidelity_request("d-high", 3, 2),
        fidelity_request("e-low", 3, 0),
    ];
    let ids: Vec<JobId> = qrio
        .enqueue_all(&requests)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(ids.len(), 5);

    // The first tick admits everything (the device has capacity for all
    // five) in priority-desc, FIFO-within-priority order.
    let report = qrio.tick();
    let scheduled: Vec<&str> = report.scheduled.iter().map(JobId::as_str).collect();
    assert_eq!(
        scheduled,
        vec!["b-high", "d-high", "c-mid", "a-low", "e-low"]
    );

    // Execution drains the device queue one job per tick in that order.
    qrio.run_until_idle();
    let completion_order: Vec<String> = qrio
        .watch(0)
        .iter()
        .filter(|event| event.to == JobState::Succeeded)
        .map(|event| event.job.to_string())
        .collect();
    assert_eq!(
        completion_order,
        vec!["b-high", "d-high", "c-mid", "a-low", "e-low"]
    );
    for id in &ids {
        assert_eq!(qrio.status(id).unwrap(), JobState::Succeeded);
    }
}

#[test]
fn batch_rejections_do_not_abort_the_rest() {
    let mut qrio = two_device_qrio();
    let requests = vec![
        fidelity_request("ok-1", 3, 0),
        fidelity_request("ok-1", 3, 0), // duplicate name: rejected
        fidelity_request("ok-2", 3, 0),
    ];
    let results = qrio.enqueue_all(&requests);
    assert!(results[0].is_ok());
    assert!(matches!(
        results[1],
        Err(QrioError::Cluster(ClusterError::DuplicateJob(_)))
    ));
    assert!(results[2].is_ok());
    qrio.run_until_idle();
    assert_eq!(
        qrio.status(&JobId::new("ok-2")).unwrap(),
        JobState::Succeeded
    );
}

// --- Rebinding ---------------------------------------------------------------------------

/// A node that flaps under one job and is healed keeps the reservation of
/// the job still waiting on it: its allocation is the sum of the
/// reservations that name it, before and after the heal.
#[test]
fn healing_a_flapped_device_keeps_the_reservations_of_its_waiting_jobs() {
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("solo", topology::line(8), 0.005, 0.02))
        .unwrap();
    let ids: Vec<JobId> = ["flapped", "waiting"]
        .into_iter()
        .map(|name| qrio.enqueue(&fidelity_request(name, 3, 0)).unwrap())
        .collect();
    for id in &ids {
        qrio.schedule(id).unwrap();
    }
    let reserved = |qrio: &Qrio| {
        let holders = qrio
            .cluster()
            .jobs()
            .filter(|job| job.node() == Some("solo"));
        holders.fold(Resources::default(), |sum, job| {
            sum.plus(&job.spec().resources)
        })
    };
    let allocated = |qrio: &Qrio| qrio.cluster().node("solo").unwrap().allocated();
    assert!(
        qrio.interrupt(&ids[0]).is_err(),
        "an interrupt is a device flap"
    );
    assert_eq!(qrio.status(&ids[1]).unwrap(), JobState::Scheduled);
    assert_eq!(allocated(&qrio), reserved(&qrio));
    assert_eq!(qrio.heal_devices().unwrap(), ["solo"]);
    assert_eq!(
        allocated(&qrio),
        reserved(&qrio),
        "the heal kept the waiter's"
    );
    assert_ne!(reserved(&qrio), Resources::default());
    // The waiter runs and gives its reservation back.
    qrio.run_until_idle();
    assert_eq!(qrio.status(&ids[1]).unwrap(), JobState::Succeeded);
    assert_eq!(allocated(&qrio), Resources::default());
}

#[test]
fn rebind_moves_the_outcome_with_the_job() {
    let mut qrio = two_device_qrio();
    let id = qrio.enqueue(&fidelity_request("migrant", 4, 0)).unwrap();
    let decision = qrio.schedule(&id).unwrap();
    assert_eq!(decision.node, "alpha", "the cleaner device wins initially");

    // A vendor-side migration onto the other (ranked) candidate.
    qrio.rebind(&id, "beta").unwrap();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Scheduled);
    assert_eq!(qrio.job_status(&id).unwrap().node.as_deref(), Some("beta"));
    // Rebinding onto the current device is a no-op.
    qrio.rebind(&id, "beta").unwrap();

    qrio.execute(&id).unwrap();
    let outcome = qrio.outcome(&id).unwrap();
    assert_eq!(
        outcome.decision.node, "beta",
        "the outcome reports the device that actually ran the job"
    );
    // The score follows the node within the original candidate ranking.
    let beta_score = outcome
        .decision
        .candidates
        .iter()
        .find(|(name, _)| name == "beta")
        .map(|(_, score)| *score)
        .unwrap();
    assert_eq!(outcome.decision.score, beta_score);
    // The watch log shows the rebind arc with its cause.
    assert!(qrio.watch(0).iter().any(|event| {
        event.from == Some(JobState::Scheduled)
            && event.to == JobState::Scheduled
            && event
                .cause
                .as_deref()
                .is_some_and(|c| c.to_string() == "rebound from 'alpha' to 'beta'")
    }));
}

// --- Unschedulable jobs ------------------------------------------------------------------

#[test]
fn unschedulable_jobs_end_failed_not_an_enqueue_error() {
    let mut qrio = two_device_qrio();
    // Too many qubits for any device in the fleet.
    let oversized = fidelity_request("too-big", 16, 0);
    let id = qrio.enqueue(&oversized).expect("enqueue itself succeeds");
    assert_eq!(qrio.status(&id).unwrap(), JobState::Queued);
    let terminal = qrio.run_until_idle();
    assert_eq!(terminal, vec![id.clone()]);
    assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
    let status = qrio.job_status(&id).unwrap();
    let cause = status.cause.as_deref().unwrap();
    assert!(cause.to_string().contains("unschedulable"), "{cause}");
    // The outcome carries the same unschedulable error the blocking submit
    // would have returned.
    assert!(matches!(
        qrio.outcome(&id),
        Err(QrioError::Cluster(ClusterError::Unschedulable { .. }))
    ));

    // Impossible device requirements behave identically.
    let circuit = library::ghz(4).unwrap();
    let impossible = JobRequestBuilder::new()
        .with_circuit(&circuit)
        .job_name("impossible-req")
        .fidelity_target(0.9)
        .requirements(DeviceRequirements {
            max_two_qubit_error: Some(1e-9),
            ..DeviceRequirements::default()
        })
        .build()
        .unwrap();
    let id = qrio.enqueue(&impossible).unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
}

#[test]
fn jobs_waiting_on_busy_resources_defer_instead_of_failing() {
    let mut qrio = fast_qrio();
    // A node that can hold exactly two default-sized (500 mCPU / 512 MiB)
    // jobs at a time.
    qrio.add_device_with_resources(
        Backend::uniform("narrow", topology::line(8), 0.005, 0.02),
        Resources::new(1100, 1100),
    )
    .unwrap();
    let first = qrio.enqueue(&fidelity_request("fills-1", 3, 0)).unwrap();
    let second = qrio.enqueue(&fidelity_request("fills-2", 3, 0)).unwrap();
    let third = qrio.enqueue(&fidelity_request("waits", 3, 0)).unwrap();

    // Tick 1: the first two bind and fill the node; the third defers. Only
    // one job executes per device per tick, so the second keeps its
    // reservation into the next cycle.
    let report = qrio.tick();
    assert_eq!(report.scheduled, vec![first.clone(), second.clone()]);
    assert_eq!(report.deferred, vec![third.clone()]);
    assert_eq!(report.completed, vec![first.clone()]);
    assert_eq!(
        qrio.status(&third).unwrap(),
        JobState::Queued,
        "a transient resource shortage is not a terminal failure"
    );
    // Ticking on drains the queue, freeing the node for the third.
    let terminal = qrio.run_until_idle();
    assert!(terminal.contains(&third));
    for id in [&first, &second, &third] {
        assert_eq!(qrio.status(id).unwrap(), JobState::Succeeded);
    }
}

// --- Terminal-failure cleanup (resource-leak regression) ---------------------------------

#[test]
fn failed_submissions_do_not_leak_metadata_or_images() {
    let mut qrio = two_device_qrio();

    // 1. Unschedulable job: metadata and image are garbage-collected once
    //    the failure is terminal.
    let id = qrio
        .enqueue(&fidelity_request("leak-sched", 16, 0))
        .unwrap();
    assert!(qrio.meta().job_metadata("leak-sched").is_some());
    assert!(qrio.cluster().registry().contains("qrio/leak-sched:latest"));
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
    assert!(
        qrio.meta().job_metadata("leak-sched").is_none(),
        "meta server must not keep metadata of terminally-failed jobs"
    );
    assert!(
        !qrio.cluster().registry().contains("qrio/leak-sched:latest"),
        "registry must not keep images of terminally-failed jobs"
    );
    // The cluster job record survives as queryable history, holding nothing.
    assert_eq!(qrio.cluster().job("leak-sched").unwrap().node(), None);

    // 2. Execution failure: a min_queue job without a circuit schedules
    //    fine but fails in the runner; its artifacts are collected too.
    let no_circuit = JobRequestBuilder::new()
        .job_name("leak-exec")
        .num_qubits(3)
        .min_queue()
        .build()
        .unwrap();
    let id = qrio.enqueue(&no_circuit).unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
    assert!(matches!(
        qrio.outcome(&id),
        Err(QrioError::Cluster(ClusterError::ExecutionFailed { .. }))
    ));
    assert!(qrio.meta().job_metadata("leak-exec").is_none());
    assert!(!qrio.cluster().registry().contains("qrio/leak-exec:latest"));

    // 3. Successful jobs keep their metadata and image: results, logs and
    //    re-scores stay available.
    let id = qrio.enqueue(&fidelity_request("keeper", 4, 0)).unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
    assert!(qrio.meta().job_metadata("keeper").is_some());
    assert!(qrio.cluster().registry().contains("qrio/keeper:latest"));

    // 4. The meta server's store contains exactly the live jobs.
    assert_eq!(qrio.meta().job_names(), vec!["keeper"]);
}

#[test]
fn rejected_enqueue_rolls_back_the_upload() {
    let mut qrio = two_device_qrio();
    // An invalid strategy reference fails validation at upload time and
    // leaves nothing behind.
    let circuit = library::ghz(3).unwrap();
    let bad = JobRequestBuilder::new()
        .with_circuit(&circuit)
        .job_name("never-was")
        .strategy(qrio_cluster::StrategySpec::new("no-such-strategy"))
        .build()
        .unwrap();
    assert!(qrio.enqueue(&bad).is_err());
    assert!(qrio.meta().job_metadata("never-was").is_none());
    assert!(!qrio.cluster().registry().contains("qrio/never-was:latest"));
    assert!(qrio.cluster().job("never-was").is_none());
    assert_eq!(qrio.meta().job_count(), 0);
}

/// Pins the beyond-the-end watch contract: a cursor at or past the log end
/// returns an empty slice — never a panic, never a typed error. Pollers that
/// raced ahead (or persisted a cursor from a longer-lived log) keep polling.
#[test]
fn watch_cursors_beyond_the_log_end_return_empty() {
    let mut qrio = two_device_qrio();
    assert!(qrio.watch(0).is_empty());
    assert!(qrio.watch(u64::MAX).is_empty());

    let id = qrio.enqueue(&fidelity_request("w-end", 3, 0)).unwrap();
    qrio.run_until_idle();
    drop(id);
    let len = qrio.watch(0).len() as u64;
    assert!(len > 0);
    assert_eq!(qrio.watch(len - 1).len(), 1);
    assert!(qrio.watch(len).is_empty());
    assert!(qrio.watch(len + 1).is_empty());
    assert!(qrio.watch(u64::MAX).is_empty());
}

// --- Determinism pins (watch streams, listings, replays) ---------------------------------

/// Render the full watch log into comparable lines.
fn watch_lines(qrio: &Qrio) -> Vec<String> {
    qrio.watch(0)
        .iter()
        .map(|e| {
            format!(
                "{}@{} {:?}->{:?} node={:?} reason={:?}",
                e.job,
                e.at,
                e.from,
                e.to,
                e.node,
                e.cause.as_deref().map(ToString::to_string)
            )
        })
        .collect()
}

#[test]
fn watch_streams_and_listings_replay_byte_identically() {
    let run = || {
        let mut qrio = two_device_qrio();
        let batch = vec![
            fidelity_request("r-1", 3, 1),
            fidelity_request("r-2", 4, 0),
            fidelity_request("r-3", 16, 2), // unschedulable
            fidelity_request("r-4", 3, 1),
        ];
        let ids: Vec<JobId> = qrio
            .enqueue_all(&batch)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        qrio.cancel(&ids[3]).unwrap();
        qrio.run_until_idle();
        (
            watch_lines(&qrio),
            qrio.cluster()
                .jobs()
                .map(|j| j.name().to_string())
                .collect::<Vec<_>>(),
            qrio.meta()
                .job_names()
                .into_iter()
                .map(str::to_string)
                .collect::<Vec<_>>(),
            qrio.cluster().registry().image_names().len(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same inputs, same streams, same listings");

    // Listings iterate in sorted order — never insertion or hash order.
    let (_, job_names, meta_names, _) = first;
    let mut sorted = job_names.clone();
    sorted.sort();
    assert_eq!(job_names, sorted);
    let mut sorted = meta_names.clone();
    sorted.sort();
    assert_eq!(meta_names, sorted);
}

// --- One path from job to device ---------------------------------------------------------

/// A 2-qubit circuit that measures `|00⟩`, or `|11⟩` when `flip`ped.
fn two_qubit_request(name: &str, flip: bool) -> JobRequest {
    let gates = if flip { "x q[0];\nx q[1];\n" } else { "" };
    let qasm = format!(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n{gates}\
         measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    );
    JobRequestBuilder::new()
        .with_qasm(qasm)
        .unwrap()
        .job_name(name)
        .image_name("qrio/shared:latest")
        .min_queue()
        .shots(64)
        .build()
        .unwrap()
}

/// Images are replaced by name on push, so the image two jobs share holds
/// the later job's circuit; each job still runs the circuit of its own spec.
#[test]
fn two_jobs_sharing_an_image_name_each_run_their_own_circuit() {
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("clean", topology::line(2), 0.0, 0.0))
        .unwrap();
    let a = qrio.enqueue(&two_qubit_request("a-zeros", false)).unwrap();
    let b = qrio.enqueue(&two_qubit_request("b-ones", true)).unwrap();
    qrio.run_until_idle();
    for (id, expected) in [(&a, "00"), (&b, "11")] {
        let counts = qrio.outcome(id).unwrap().counts;
        assert_eq!(counts, vec![(expected.to_string(), 64)], "job {id}");
    }
}

/// An image is the job's spec rendered again, not a store of circuits: a
/// job submitted without a circuit fails for want of one, even when a later
/// job pushed an image of the same name that holds a circuit.
#[test]
fn a_circuit_less_job_sharing_an_image_name_fails_for_want_of_a_circuit() {
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("clean", topology::line(3), 0.0, 0.0))
        .unwrap();
    let circuit_less = JobRequestBuilder::new()
        .job_name("no-circuit")
        .image_name("qrio/shared-ghz:latest")
        .num_qubits(3)
        .min_queue()
        .build()
        .unwrap();
    let ghz = JobRequestBuilder::new()
        .with_circuit(&library::ghz(3).unwrap())
        .job_name("ghz")
        .image_name("qrio/shared-ghz:latest")
        .min_queue()
        .build()
        .unwrap();
    let lonely = qrio.enqueue(&circuit_less).unwrap();
    let ghz = qrio.enqueue(&ghz).unwrap();
    qrio.run_until_idle();

    assert_eq!(qrio.status(&lonely).unwrap(), JobState::Failed);
    let Err(QrioError::Cluster(ClusterError::ExecutionFailed { job, reason })) =
        qrio.outcome(&lonely)
    else {
        panic!("{:?}", qrio.outcome(&lonely));
    };
    assert_eq!(job, "no-circuit");
    assert!(reason.contains("no circuit"), "{reason}");
    assert_eq!(qrio.status(&ghz).unwrap(), JobState::Succeeded);
    assert_eq!(
        qrio.outcome(&ghz).unwrap().counts.len(),
        2,
        "|000> and |111>"
    );
}

/// Every frame that crosses the control plane during a fixed script — the
/// `Bind`s, a clean run, a recalibration and a cordon, then a run that
/// faults and is retried — with the frames' bytes pinned by length and
/// digest. Command order and `RunPayload` contents cannot drift unnoticed.
#[test]
fn control_trace_digest_pins_the_wire_bytes_of_a_fixed_script() {
    let mut qrio = fast_qrio();
    qrio.enable_control_trace();
    qrio.add_device(Backend::uniform("alpha", topology::line(8), 0.005, 0.02))
        .unwrap();
    qrio.add_device(Backend::uniform("beta", topology::line(8), 0.02, 0.1))
        .unwrap();

    let clean = qrio.enqueue(&fidelity_request("clean", 4, 0)).unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&clean).unwrap(), JobState::Succeeded);

    qrio.recalibrate_device(Backend::uniform("alpha", topology::line(8), 0.01, 0.04))
        .unwrap();
    qrio.cordon_device("beta").unwrap();

    qrio.configure_faults(Some(FaultInjector {
        transient_rate: 1.0,
        ..FaultInjector::new(5)
    }))
    .unwrap();
    let circuit = library::ghz(3).unwrap();
    let retried = JobRequestBuilder::new()
        .with_circuit(&circuit)
        .job_name("retried")
        .fidelity_target(0.9)
        .shots(32)
        .retry_policy(RetryPolicy::fixed(3, 1))
        .build()
        .unwrap();
    let retried = qrio.enqueue(&retried).unwrap();
    qrio.tick();
    assert_eq!(qrio.status(&retried).unwrap(), JobState::Retrying);
    qrio.configure_faults(None).unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&retried).unwrap(), JobState::Succeeded);

    let trace = qrio.take_control_trace();
    let hex: String = trace.iter().map(|byte| format!("{byte:02x}")).collect();
    assert_eq!(
        (trace.len(), qrio_bytes::fnv1a(&hex)),
        CONTROL_TRACE_LEN_AND_DIGEST
    );
}

const CONTROL_TRACE_LEN_AND_DIGEST: (usize, u64) = (12133, 12344309489119712723);

// --- Property test: observed transitions are always legal --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random workloads — mixed priorities, oversized (unschedulable) jobs,
    /// cancellations at arbitrary points, interleaved ticks — never produce
    /// a transition outside the documented state machine, and every job
    /// reaches exactly one terminal state.
    #[test]
    fn observed_transition_sequences_are_legal(
        priorities in proptest::collection::vec(0u8..4, 1..6),
        cancel_mask in 0u32..64,
        oversize_mask in 0u32..64,
        ticks_between in 0usize..3,
    ) {
        let mut qrio = two_device_qrio();
        let mut ids = Vec::new();
        for (i, &priority) in priorities.iter().enumerate() {
            let oversized = (oversize_mask >> i) & 1 == 1;
            let qubits = if oversized { 16 } else { 3 };
            let id = qrio
                .enqueue(&fidelity_request(&format!("p-{i}"), qubits, priority))
                .unwrap();
            if (cancel_mask >> i) & 1 == 1 {
                // May or may not be legal depending on interleaved ticks;
                // either way the state machine must stay consistent.
                let _ = qrio.cancel(&id);
            }
            for _ in 0..ticks_between {
                qrio.tick();
            }
            ids.push(id);
        }
        qrio.run_until_idle();

        for id in &ids {
            let status = qrio.job_status(id).unwrap();
            prop_assert!(
                status.state.is_terminal(),
                "job {id} ended in non-terminal {:?}",
                status.state
            );
            let history = &status.history;
            prop_assert_eq!(history.first().map(|(_, s)| *s), Some(JobState::Submitted));
            prop_assert_eq!(history.last().map(|(_, s)| *s), Some(status.state));
            for window in history.windows(2) {
                let (at_a, from) = window[0];
                let (at_b, to) = window[1];
                prop_assert!(
                    from.can_transition_to(to),
                    "job {id}: illegal transition {from:?} -> {to:?}"
                );
                prop_assert!(at_a <= at_b, "job {id}: time ran backwards");
            }
        }
        // The global watch log agrees with the per-job histories.
        for event in qrio.watch(0) {
            match event.from {
                None => prop_assert_eq!(event.to, JobState::Submitted),
                Some(from) => prop_assert!(from.can_transition_to(event.to)),
            }
        }
        // Sequences are dense: a watch cursor can never miss an event.
        for (idx, event) in qrio.watch(0).iter().enumerate() {
            prop_assert_eq!(event.seq, idx as u64);
        }
    }
}
