//! The scheduling cycle is written once — feasibility on the node, score and
//! sort in the meta server, bind in the cluster — and first binding and
//! re-ranking both run it. These tests pin what that buys: a ranking that
//! survives scores no comparator can order, a re-ranking that only proposes
//! devices binding would accept, and job-level scoring errors reported as
//! the one cause they are.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use qrio::{JobId, JobRequestBuilder, JobState, Qrio};
use qrio_backend::{topology, Backend};
use qrio_circuit::{library, Circuit};
use qrio_cluster::{DeviceRequirements, Resources, StrategyParams, StrategySpec};
use qrio_meta::{DeviceTelemetry, JobContext, MetaError, RankingStrategy, Score};

/// A strategy computed from the device's index (`dev-07` → 7).
#[derive(Debug)]
struct ByIndex {
    name: &'static str,
    score: fn(usize) -> Result<f64, MetaError>,
}

impl RankingStrategy for ByIndex {
    fn name(&self) -> &str {
        self.name
    }

    fn validate(&self, _: &StrategyParams, _: Option<&Circuit>) -> Result<(), MetaError> {
        Ok(())
    }

    fn score(&self, _: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
        let index = backend.name()[4..].parse().expect("devices are dev-NN");
        Ok(Score::new(backend.name(), (self.score)(index)?))
    }
}

fn qrio_with(strategy: ByIndex, devices: usize) -> Qrio {
    let mut qrio = Qrio::new();
    qrio.register_strategy(Arc::new(strategy)).unwrap();
    for i in 0..devices {
        let name = format!("dev-{i:02}");
        qrio.add_device(Backend::uniform(name, topology::line(4), 0.01, 0.05))
            .unwrap();
    }
    qrio
}

fn enqueue_named(qrio: &mut Qrio, job: &str, strategy: &str) -> JobId {
    let request = JobRequestBuilder::new()
        .with_circuit(&library::ghz(3).unwrap())
        .job_name(job)
        .strategy(StrategySpec::new(strategy))
        .build()
        .unwrap();
    qrio.enqueue(&request).unwrap()
}

#[test]
fn nan_scores_are_skipped_not_sorted() {
    // Every third device scores NaN; the rest repeat five values, so the
    // finite ones also tie and must fall back to the device name.
    let strategy = ByIndex {
        name: "third-nan",
        score: |i| Ok(if i % 3 == 0 { f64::NAN } else { (i % 5) as f64 }),
    };
    let mut qrio = qrio_with(strategy, 21);
    let id = enqueue_named(&mut qrio, "nan-job", "third-nan");
    let decision = qrio.schedule(&id).unwrap();

    assert_eq!(decision.candidates.len(), 14);
    assert!(decision.candidates.iter().all(|(_, s)| s.is_finite()));
    let mut sorted = decision.candidates.clone();
    sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    assert_eq!(decision.candidates, sorted);
    assert_eq!(decision.node, "dev-05", "lowest finite score, then name");
    assert_eq!(decision.score, 0.0);
    assert_eq!(qrio.status(&id).unwrap(), JobState::Scheduled);

    // The seven NaN devices were skipped, each with the typed reason.
    assert_eq!(decision.skipped.len(), 7);
    let reason = MetaError::NonFiniteScore {
        device: "dev-00".into(),
        score: f64::NAN,
    };
    assert_eq!(decision.skipped[0], ("dev-00".into(), reason.to_string()));

    // The meta server's whole-fleet ranking is the same loop, so the same
    // order.
    let all = qrio.meta().score_all("nan-job").unwrap();
    let all: Vec<(String, f64)> = all.into_iter().map(|s| (s.device, s.value)).collect();
    assert_eq!(all, decision.candidates);
}

#[test]
fn job_level_score_errors_fail_the_job_once_with_the_cause() {
    let strategy = ByIndex {
        name: "bad-params",
        score: |_| Err(MetaError::InvalidMetadata("window must be positive".into())),
    };
    let mut qrio = qrio_with(strategy, 3);
    let id = enqueue_named(&mut qrio, "doomed", "bad-params");
    let err = qrio.schedule(&id).unwrap_err();
    let cause = "invalid job metadata: window must be positive";
    assert!(err.to_string().contains(cause), "{err}");

    assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
    let recorded = qrio.job_status(&id).unwrap().cause.clone().unwrap();
    assert!(recorded.to_string().contains(cause), "{recorded}");
    assert_eq!(qrio.outcome(&id).unwrap_err(), err);
    // The job holds no reservation, and no device is blamed for it: the
    // only record of the failure is the job's cause.
    assert_eq!(qrio.cluster().job("doomed").unwrap().node(), None);
    let kinds = qrio.cluster().events().iter().map(|e| e.kind.as_str());
    assert!(kinds.into_iter().all(|kind| kind == "NodeAdded"));
}

#[test]
fn reranking_never_proposes_a_device_binding_would_reject() {
    let mut qrio = Qrio::new();
    let one_job = Resources::new(1000, 1024);
    let clean = Backend::uniform("clean", topology::line(6), 0.001, 0.01);
    let noisy = Backend::uniform("noisy", topology::line(6), 0.03, 0.3);
    qrio.add_device_with_resources(clean, one_job).unwrap();
    qrio.add_device_with_resources(noisy, Resources::new(8000, 16384))
        .unwrap();
    let ids: Vec<JobId> = ["first", "second"]
        .iter()
        .map(|name| {
            let request = JobRequestBuilder::new()
                .with_circuit(&library::ghz(4).unwrap())
                .job_name(*name)
                .resources(one_job.cpu_millis, one_job.memory_mib)
                .fidelity_target(0.9)
                .build()
                .unwrap();
            qrio.enqueue(&request).unwrap()
        })
        .collect();
    assert_eq!(qrio.schedule(&ids[0]).unwrap().node, "clean");
    assert_eq!(qrio.schedule(&ids[1]).unwrap().node, "noisy");

    // 'clean' is full: it is no candidate for the job that is not on it...
    let second = qrio.rank_ready(&ids[1]).unwrap();
    assert!(second.iter().all(|(device, _)| device != "clean"));
    // ...so acting on the ranking cannot be rejected...
    qrio.rebind(&ids[1], &second[0].0).unwrap();
    // ...while the job that fills it still ranks it: what a job already
    // holds on a device counts as free for that job.
    let first = qrio.rank_ready(&ids[0]).unwrap();
    assert_eq!(first[0].0, "clean");
    assert_eq!(first.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the fleet, its load and the job: the candidates a fresh
    /// binding records are the ranking `rank_ready` returned for that job
    /// immediately before — and when one finds nothing, so does the other.
    #[test]
    fn a_fresh_binding_takes_the_candidates_rank_ready_just_returned(
        fleet_size in 1usize..5,
        qubits in vec(2usize..9, 4..5),
        error_milli in vec(1u64..400, 4..5),
        capacity_units in vec(1u64..4, 4..5),
        queue_depth in vec(0usize..3, 4..5),
        cordoned in 0usize..8,
        job_qubits in 2usize..7,
        job_units in 1u64..3,
        max_error_milli in 50u64..500,
    ) {
        let mut qrio = Qrio::new();
        for i in 0..fleet_size {
            let error = error_milli[i] as f64 / 1000.0;
            let backend = Backend::uniform(format!("dev-{i}"), topology::line(qubits[i]), 0.01, error);
            let capacity = Resources::new(1000 * capacity_units[i], 1024 * capacity_units[i]);
            qrio.add_device_with_resources(backend, capacity).unwrap();
        }
        if cordoned < fleet_size {
            qrio.cordon_device(&format!("dev-{cordoned}")).unwrap();
        }
        qrio.report_telemetry((0..fleet_size).map(|i| {
            let telemetry = DeviceTelemetry { queue_depth: queue_depth[i], ..DeviceTelemetry::default() };
            (format!("dev-{i}"), telemetry)
        }));
        let request = |name: &str| {
            JobRequestBuilder::new()
                .with_circuit(&library::ghz(job_qubits).unwrap())
                .job_name(name)
                .resources(1000 * job_units, 1024 * job_units)
                .requirements(DeviceRequirements {
                    max_two_qubit_error: Some(max_error_milli as f64 / 1000.0),
                    ..DeviceRequirements::default()
                })
                .min_queue()
                .build()
                .unwrap()
        };
        // An earlier tenant takes its share of whichever device ranks best.
        let occupant = qrio.enqueue(&request("occupant")).unwrap();
        let _ = qrio.schedule(&occupant);

        let id = qrio.enqueue(&request("job")).unwrap();
        let ranked = qrio.rank_ready(&id);
        let bound = qrio.schedule(&id);
        match (ranked, bound) {
            (Ok(ranked), Ok(decision)) => prop_assert_eq!(ranked, decision.candidates),
            (Err(_), Err(_)) => {}
            (ranked, bound) => prop_assert!(false, "{ranked:?} vs {bound:?}"),
        }
    }
}
