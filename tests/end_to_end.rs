//! End-to-end integration tests: the full QRIO pipeline from job request to
//! executed result, spanning every crate in the workspace.

use qrio::{JobId, JobRequestBuilder, JobState, Qrio, TopologyDesigner};
use qrio_backend::{fleet::FleetConfig, topology, Backend};
use qrio_circuit::library;
use qrio_cluster::DeviceRequirements;
use qrio_meta::FidelityRankingConfig;

fn fast_qrio() -> Qrio {
    Qrio::with_config(
        FidelityRankingConfig {
            shots: 96,
            seed: 13,
            shortfall_weight: 100.0,
        },
        13,
    )
}

#[test]
fn fidelity_job_runs_on_the_best_device_of_a_generated_fleet() {
    let mut qrio = fast_qrio();
    let fleet = qrio_backend::fleet::generate_fleet(&FleetConfig::small(), 5).unwrap();
    let fleet_size = fleet.len();
    qrio.add_fleet(fleet).unwrap();
    assert_eq!(qrio.cluster().node_count(), fleet_size);

    let bv = library::bernstein_vazirani(5, 0b11010).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name("e2e-bv")
        .fidelity_target(0.9)
        .shots(128)
        .build()
        .unwrap();
    let outcome = qrio.submit(&request).unwrap();

    // The chosen device is the best-ranked candidate and the job succeeded.
    assert_eq!(outcome.decision.candidates[0].0, outcome.decision.node);
    assert_eq!(
        qrio.status(&JobId::new("e2e-bv")).unwrap(),
        JobState::Succeeded
    );
    assert!(!outcome.counts.is_empty());
    assert!(outcome.achieved_fidelity.is_some());
    // The full lifecycle is in the watch log, the push and the pull in the
    // registry's counters; the cluster's log holds the fleet joining.
    let states: Vec<JobState> = qrio.watch(0).iter().map(|e| e.to).collect();
    use JobState::*;
    assert_eq!(states, [Submitted, Queued, Scheduled, Running, Succeeded]);
    let registry = qrio.cluster().registry();
    assert_eq!((registry.push_count(), registry.pull_count()), (1, 1));
    let kinds = qrio.cluster().events().iter().map(|e| e.kind.as_str());
    assert!(kinds.into_iter().all(|kind| kind == "NodeAdded"));
    assert_eq!(qrio.cluster().events().len(), fleet_size);
}

#[test]
fn topology_job_selects_the_matching_device_end_to_end() {
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform(
        "tree-dev",
        topology::binary_tree(10),
        0.01,
        0.05,
    ))
    .unwrap();
    qrio.add_device(Backend::uniform("ring-dev", topology::ring(10), 0.01, 0.05))
        .unwrap();
    qrio.add_device(Backend::uniform("line-dev", topology::line(10), 0.01, 0.05))
        .unwrap();

    let mut designer = TopologyDesigner::new(10);
    for (a, b) in topology::binary_tree(10).edges() {
        designer.connect(a, b).unwrap();
    }
    let request = JobRequestBuilder::new()
        .with_circuit(&library::ghz(10).unwrap())
        .job_name("e2e-topology")
        .topology(&designer)
        .shots(128)
        .build()
        .unwrap();
    let outcome = qrio.submit(&request).unwrap();
    assert_eq!(outcome.decision.node, "tree-dev");
}

#[test]
fn user_requirements_flow_through_filtering() {
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("good", topology::line(8), 0.005, 0.02))
        .unwrap();
    qrio.add_device(Backend::uniform("bad", topology::line(8), 0.05, 0.5))
        .unwrap();

    let ghz = library::ghz(4).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&ghz)
        .job_name("e2e-filtered")
        .requirements(DeviceRequirements {
            max_two_qubit_error: Some(0.1),
            ..DeviceRequirements::default()
        })
        .fidelity_target(0.9)
        .shots(96)
        .build()
        .unwrap();
    let outcome = qrio.submit(&request).unwrap();
    assert_eq!(outcome.decision.node, "good");
    // The noisy device was filtered before ranking, not merely out-scored.
    assert!(outcome
        .decision
        .filtered_out
        .iter()
        .any(|(node, _)| node == "bad"));
    assert_eq!(outcome.decision.candidates.len(), 1);
}

#[test]
fn failed_scheduling_leaves_a_terminal_job_and_no_allocation() {
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("only", topology::line(4), 0.02, 0.2))
        .unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&library::ghz(12).unwrap())
        .job_name("too-big")
        .fidelity_target(0.9)
        .build()
        .unwrap();
    assert!(qrio.submit(&request).is_err());
    assert_eq!(
        qrio.status(&JobId::new("too-big")).unwrap(),
        JobState::Failed
    );
    assert_eq!(qrio.cluster().job("too-big").unwrap().node(), None);
    assert_eq!(
        qrio.cluster().node("only").unwrap().allocated(),
        qrio_cluster::Resources::new(0, 0)
    );
}

#[test]
fn multiple_jobs_share_the_cluster_sequentially() {
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("dev-a", topology::grid(2, 3), 0.005, 0.03))
        .unwrap();
    qrio.add_device(Backend::uniform("dev-b", topology::ring(8), 0.02, 0.15))
        .unwrap();

    for (i, circuit) in [
        library::ghz(3).unwrap(),
        library::repetition_code_encoder(4).unwrap(),
    ]
    .iter()
    .enumerate()
    {
        let request = JobRequestBuilder::new()
            .with_circuit(circuit)
            .job_name(format!("multi-{i}"))
            .fidelity_target(0.8)
            .shots(96)
            .build()
            .unwrap();
        let outcome = qrio.submit(&request).unwrap();
        let id = JobId::new(format!("multi-{i}"));
        assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
        assert!(!outcome.counts.is_empty());
    }
    assert_eq!(qrio.cluster().jobs().count(), 2);
}
