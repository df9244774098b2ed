//! The service model through the public API alone: devices serve their
//! queues on the orchestrator's clock, waiting jobs move when a device drifts
//! or is cordoned, and a device's vendor cordon and its breaker's hold are
//! two reasons that lift separately.

use qrio::{
    BreakerConfig, BreakerState, FidelityRankingConfig, JobId, JobRequest, JobRequestBuilder,
    JobState, Qrio, QrioError, ServiceModel,
};
use qrio_backend::{topology, Backend};
use qrio_circuit::library;
use qrio_cluster::{ClusterError, NodeStatus};

/// Three ten-qubit devices, best to worst: `clean`, `mid`, `noisy`.
fn three_devices() -> Qrio {
    let mut qrio = Qrio::with_config(
        FidelityRankingConfig {
            shots: 128,
            seed: 5,
            shortfall_weight: 100.0,
        },
        7,
    );
    for backend in [
        Backend::uniform("clean", topology::line(10), 0.001, 0.01),
        Backend::uniform("mid", topology::ring(10), 0.02, 0.15),
        Backend::uniform("noisy", topology::line(10), 0.05, 0.4),
    ] {
        qrio.add_device(backend).unwrap();
    }
    qrio
}

/// A 64-shot BV-5 job that asks for fidelity, so every device but a
/// drifted one ranks `clean` best.
fn request(name: &str) -> JobRequest {
    JobRequestBuilder::new()
        .with_circuit(&library::bernstein_vazirani(5, 0b10110).unwrap())
        .job_name(name)
        .fidelity_target(0.9)
        .shots(64)
        .build()
        .unwrap()
}

/// [`three_devices`] serving on the clock: a 64-shot job takes 8 on `mid`
/// and `noisy`, and 4 on `clean`, which runs twice as fast.
fn served() -> (Qrio, ServiceModel) {
    let mut qrio = three_devices();
    let model = ServiceModel {
        base_us: 1_000,
        per_shot_us: 100,
        speeds: [("clean".to_string(), 2.0)].into(),
    };
    qrio.configure_service(Some(model.clone())).unwrap();
    (qrio, model)
}

/// Enqueue and schedule one job per name.
fn bind_all(qrio: &mut Qrio, names: &[&str]) -> Vec<JobId> {
    let ids: Vec<JobId> = names
        .iter()
        .map(|name| qrio.enqueue(&request(name)).unwrap())
        .collect();
    for id in &ids {
        qrio.schedule(id).unwrap();
    }
    ids
}

/// When the next window closes, read off what a user sees: each `Running`
/// job is in service since it entered `Running`, for its device's window.
fn window_in_sight(qrio: &Qrio, model: &ServiceModel) -> Option<u64> {
    let running = qrio.cluster().jobs().filter_map(|job| {
        let status = qrio.job_status(&JobId::new(job.name())).ok()?;
        let (since, state) = *status.history.last()?;
        let device = status.node.as_deref()?;
        (state == JobState::Running).then(|| since + model.window(device, job.spec().shots))
    });
    running.min()
}

fn queue(qrio: &Qrio, device: &str) -> Vec<String> {
    qrio.device_queue(device).map(str::to_string).collect()
}

#[test]
fn devices_serve_on_the_clock_and_waiting_jobs_move() {
    let (mut qrio, model) = served();
    let ids = bind_all(&mut qrio, &["first", "second", "third"]);
    // All three rank `clean` best: the first is in service, two wait.
    assert_eq!(queue(&qrio, "clean"), ["first", "second", "third"]);
    assert_eq!(qrio.status(&ids[0]).unwrap(), JobState::Running);
    assert_eq!(qrio.status(&ids[1]).unwrap(), JobState::Scheduled);
    assert_eq!(qrio.next_due(), Some(4));
    assert_eq!(qrio.next_due(), window_in_sight(&qrio, &model));

    // A drift makes `clean` the worst device: the waiting jobs move to
    // `mid`, where the first of them starts at once. The job in service
    // stays.
    qrio.advance_to(1).unwrap();
    let drifted = Backend::uniform("clean", topology::line(10), 0.05, 0.5);
    qrio.recalibrate_device(drifted).unwrap();
    assert_eq!(queue(&qrio, "clean"), ["first"]);
    assert_eq!(queue(&qrio, "mid"), ["second", "third"]);
    assert_eq!(qrio.status(&ids[1]).unwrap(), JobState::Running);
    assert_eq!(qrio.next_due(), window_in_sight(&qrio, &model));

    // Cordoning `mid` drains its waiting job; the one in service finishes.
    qrio.advance_to(2).unwrap();
    qrio.cordon_device("mid").unwrap();
    assert_eq!(queue(&qrio, "mid"), ["second"]);
    let third = qrio.job_status(&ids[2]).unwrap();
    assert!(!matches!(third.node.as_deref(), Some("mid") | None));
    assert_eq!(qrio.next_due(), window_in_sight(&qrio, &model));

    let fired = qrio.advance_to(100).unwrap();
    assert_eq!(fired.completed.len(), 3);
    assert_eq!(qrio.next_due(), None);
    for id in &ids {
        let status = qrio.job_status(id).unwrap();
        assert_eq!(status.state, JobState::Succeeded, "{id}");
        let entered = |state| status.history.iter().rev().find(|(_, s)| *s == state);
        let (started, _) = entered(JobState::Running).unwrap();
        let (ended, _) = entered(JobState::Succeeded).unwrap();
        let window = model.window(status.node.as_deref().unwrap(), 64);
        assert_eq!(started + window, *ended, "{id}");
    }
    let history = |id: &JobId| qrio.job_status(id).unwrap().history.clone();
    assert_eq!(history(&ids[0])[3], (0, JobState::Running));
    // Bound, rebound, then started at the drift.
    assert_eq!(history(&ids[1])[4], (1, JobState::Running));
}

#[test]
fn the_driver_stops_at_work_no_device_will_serve() {
    let (mut qrio, _) = served();
    let ids = bind_all(&mut qrio, &["served", "left"]);
    // Nowhere to flee: the waiting job stays on cordoned `clean`.
    for device in ["mid", "noisy", "clean"] {
        qrio.cordon_device(device).unwrap();
    }
    qrio.run_until_idle();
    assert_eq!(qrio.status(&ids[0]).unwrap(), JobState::Succeeded);
    assert_eq!(qrio.status(&ids[1]).unwrap(), JobState::Scheduled);
    assert_eq!(qrio.next_due(), None);
    // Once `clean` serves again, the driver finishes the job.
    qrio.uncordon_device("clean").unwrap();
    assert_eq!(qrio.status(&ids[1]).unwrap(), JobState::Running);
    qrio.run_until_idle();
    assert_eq!(qrio.status(&ids[1]).unwrap(), JobState::Succeeded);
}

/// A job whose interrupt trips its device's breaker (open until 10) while
/// an outage cordons the device: the device's name.
fn outage_on_a_tripped_device(qrio: &mut Qrio) -> String {
    qrio.configure_breakers(Some(BreakerConfig {
        consecutive_failures: 1,
        failure_rate: 2.0,
        window: 4,
        open_ticks: 10,
        probe_jobs: 1,
    }))
    .unwrap();
    let id = bind_all(qrio, &["cut"]).remove(0);
    qrio.interrupt(&id).unwrap_err();
    let device = qrio.job_status(&id).unwrap().node.clone().unwrap();
    qrio.cordon_device(&device).unwrap();
    assert!(matches!(
        qrio.breakers().unwrap().state(&device),
        BreakerState::Open { until: 10 }
    ));
    device
}

fn status(qrio: &Qrio, device: &str) -> NodeStatus {
    qrio.cluster().node(device).unwrap().status()
}

#[test]
fn an_outage_that_ends_inside_an_open_interval_leaves_the_device_held() {
    let mut qrio = three_devices();
    let device = outage_on_a_tripped_device(&mut qrio);
    qrio.advance_to(5).unwrap();
    qrio.uncordon_device(&device).unwrap();
    assert_eq!(
        status(&qrio, &device),
        NodeStatus::Cordoned,
        "the breaker holds it"
    );
    qrio.advance_to(10).unwrap();
    assert_eq!(status(&qrio, &device), NodeStatus::Ready, "probation");
}

#[test]
fn a_probe_during_an_outage_leaves_the_device_cordoned() {
    let mut qrio = three_devices();
    let device = outage_on_a_tripped_device(&mut qrio);
    let fired = qrio.advance_to(10).unwrap();
    assert_eq!(fired.probing, std::slice::from_ref(&device));
    assert_eq!(
        status(&qrio, &device),
        NodeStatus::Cordoned,
        "the outage holds it"
    );
    qrio.uncordon_device(&device).unwrap();
    assert_eq!(status(&qrio, &device), NodeStatus::Ready);
}

#[test]
fn a_rebind_of_the_job_in_service_is_refused_and_changes_nothing() {
    let (mut qrio, _) = served();
    let ids = bind_all(&mut qrio, &["in-service", "behind"]);
    let (serving, waiting) = (&ids[0], &ids[1]);
    assert_eq!(qrio.status(serving).unwrap(), JobState::Running);
    assert_eq!(qrio.status(waiting).unwrap(), JobState::Scheduled);
    let devices = ["clean", "mid", "noisy"];
    let seen = |qrio: &Qrio| {
        let queues = devices.map(|device| qrio.device_queue(device).collect::<Vec<_>>().join(","));
        let allocated = devices.map(|device| qrio.cluster().node(device).unwrap().allocated());
        (qrio.watch(0).len(), queues, allocated)
    };
    let before = seen(&qrio);
    // Away, or onto the device serving it: the cluster cannot tell the job
    // in service from one that waits, so `Qrio` refuses it by its state.
    for target in ["mid", "clean"] {
        let refused = ClusterError::PhaseConflict {
            job: "in-service".into(),
            action: "rebind".into(),
            phase: "Running".into(),
        };
        let err = qrio.rebind(serving, target).unwrap_err();
        assert_eq!(err, QrioError::Cluster(refused), "{target}");
        assert_eq!(seen(&qrio), before, "{target}");
    }
    // The job waiting behind it still moves.
    qrio.rebind(waiting, "mid").unwrap();
    assert_eq!(qrio.device_queue("mid").collect::<Vec<_>>(), ["behind"]);
}
