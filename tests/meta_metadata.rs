//! Table 1: the metadata sent to the QRIO Meta Server depends on the option
//! the user chose (fidelity vs. topology vs. any other registered strategy),
//! and scoring dispatches through the strategy registry by name.

use qrio_backend::{topology, Backend};
use qrio_circuit::{library, qasm};
use qrio_cluster::{strategy_names, StrategySpec};
use qrio_meta::MetaServer;

fn meta_with_devices() -> MetaServer {
    let mut meta = MetaServer::new();
    meta.register_backend(Backend::uniform("dev-a", topology::line(8), 0.01, 0.05));
    meta.register_backend(Backend::uniform("dev-b", topology::ring(8), 0.01, 0.05));
    meta
}

#[test]
fn fidelity_option_stores_fidelity_number_and_original_circuit() {
    let mut meta = meta_with_devices();
    let circuit = library::grover(3, 2).unwrap();
    meta.upload_job_metadata(
        "grover-job",
        &StrategySpec::fidelity(0.85),
        Some(&qasm::to_qasm(&circuit)),
    )
    .unwrap();
    let record = meta.job_metadata("grover-job").unwrap();
    assert_eq!(record.strategy_name(), "fidelity");
    assert!((record.params().get_f64("target").unwrap() - 0.85).abs() < 1e-12);
    let stored = record.circuit().unwrap();
    assert_eq!(stored.num_qubits(), 3);
    assert_eq!(stored.count_ops(), circuit.count_ops());
    // Scoring such a job produces a fidelity score with a canary breakdown.
    let score = meta.score("grover-job", "dev-a").unwrap();
    assert!(score.detail("canary_fidelity").is_some());
}

#[test]
fn topology_option_stores_the_topology_circuit_only() {
    let mut meta = meta_with_devices();
    let topo = library::topology_circuit(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
    // The canvas upload: the topology circuit itself, no parameters.
    let canvas = StrategySpec::new(strategy_names::TOPOLOGY);
    meta.upload_job_metadata("topo-job", &canvas, Some(&qasm::to_qasm(&topo)))
        .unwrap();
    let record = meta.job_metadata("topo-job").unwrap();
    assert_eq!(record.strategy_name(), "topology");
    assert!(record.params().is_empty());
    let stored = record.circuit().unwrap();
    assert_eq!(stored.interaction_graph(), topo.interaction_graph());
    assert_eq!(stored.two_qubit_gate_count(), 4);
    let score = meta.score("topo-job", "dev-b").unwrap();
    assert!(score.detail("exact_embedding").is_some());
}

#[test]
fn strategy_dispatch_follows_the_stored_metadata() {
    // "checks the database if a fidelity threshold exists for the job. If so,
    //  that job is scored using a Fidelity Ranking strategy, and if not it is
    //  scored using a Topology Ranking strategy." (§3.4) — generalized: the
    //  stored strategy *name* selects the registry plugin.
    let mut meta = meta_with_devices();
    let circuit = library::repetition_code_encoder(4).unwrap();
    meta.upload_job_metadata(
        "job-1",
        &StrategySpec::fidelity(0.9),
        Some(&qasm::to_qasm(&circuit)),
    )
    .unwrap();
    meta.upload_job_metadata("job-2", &StrategySpec::topology(&[(0, 1), (1, 2)], 3), None)
        .unwrap();
    assert_eq!(
        meta.job_metadata("job-1").unwrap().strategy_name(),
        "fidelity"
    );
    assert_eq!(
        meta.job_metadata("job-2").unwrap().strategy_name(),
        "topology"
    );
    for device in ["dev-a", "dev-b"] {
        let fidelity = meta.score("job-1", device).unwrap();
        assert_eq!(fidelity.device, device);
        assert!(fidelity.detail("canary_fidelity").is_some());
        let topology = meta.score("job-2", device).unwrap();
        assert!(topology.detail("exact_embedding").is_some());
    }
}

#[test]
fn every_builtin_strategy_is_selectable_by_name() {
    let mut meta = meta_with_devices();
    assert_eq!(
        meta.registry().names(),
        vec!["fidelity", "min_queue", "topology", "weighted"]
    );
    let circuit = library::bernstein_vazirani(4, 0b1001).unwrap();
    let text = qasm::to_qasm(&circuit);
    meta.upload_job_metadata("f", &StrategySpec::fidelity(0.9), Some(&text))
        .unwrap();
    meta.upload_job_metadata("t", &StrategySpec::topology(&[(0, 1), (1, 2)], 3), None)
        .unwrap();
    meta.upload_job_metadata(
        "w",
        &StrategySpec::weighted(0.9, 1.0, 5.0, 1.0),
        Some(&text),
    )
    .unwrap();
    meta.upload_job_metadata("q", &StrategySpec::min_queue(), None)
        .unwrap();
    for job in ["f", "t", "w", "q"] {
        let ranked = meta.score_all(job).unwrap();
        assert_eq!(ranked.len(), 2, "job '{job}' scores on both devices");
    }
}

#[test]
fn meta_server_holds_a_copy_of_every_vendor_backend() {
    let meta = meta_with_devices();
    assert_eq!(meta.device_count(), 2);
    assert_eq!(meta.device_names(), vec!["dev-a", "dev-b"]);
    let backend = meta.backend("dev-a").unwrap();
    assert_eq!(backend.num_qubits(), 8);
    assert!(backend.basis_gates().contains("cx"));
}
