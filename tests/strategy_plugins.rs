//! Integration tests for the open ranking interface: all four built-in
//! strategies — fidelity, topology, weighted multi-objective and min-queue —
//! plus a user-defined plugin, each driven through the same
//! `JobRequest` → scheduler → decision path.

use std::sync::Arc;

use qrio::{JobId, JobRequestBuilder, JobState, Qrio, TopologyDesigner};
use qrio_backend::{topology, Backend};
use qrio_circuit::{library, Circuit};
use qrio_cluster::{StrategyParams, StrategySpec};
use qrio_meta::{
    DeviceTelemetry, FidelityRankingConfig, JobContext, MetaError, RankingStrategy, Score,
};

fn fast_qrio() -> Qrio {
    Qrio::with_config(
        FidelityRankingConfig {
            shots: 96,
            seed: 19,
            shortfall_weight: 100.0,
        },
        19,
    )
}

#[test]
fn fidelity_strategy_end_to_end() {
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("clean", topology::line(8), 0.002, 0.01))
        .unwrap();
    qrio.add_device(Backend::uniform("noisy", topology::line(8), 0.05, 0.35))
        .unwrap();
    let bv = library::bernstein_vazirani(5, 0b10011).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name("fidelity-e2e")
        .fidelity_target(0.9)
        .shots(128)
        .build()
        .unwrap();
    assert_eq!(request.strategy.name, "fidelity");
    let outcome = qrio.submit(&request).unwrap();
    assert_eq!(outcome.decision.node, "clean");
    assert_eq!(
        qrio.status(&JobId::new("fidelity-e2e")).unwrap(),
        JobState::Succeeded
    );
}

#[test]
fn topology_strategy_end_to_end() {
    let mut qrio = fast_qrio();
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
        .with_circuit(&library::ghz(10).unwrap())
        .job_name("topology-e2e")
        .topology(&designer)
        .shots(96)
        .build()
        .unwrap();
    assert_eq!(request.strategy.name, "topology");
    assert_eq!(request.strategy.params.get_u64("qubits"), Some(10));
    let outcome = qrio.submit(&request).unwrap();
    assert_eq!(outcome.decision.node, "tree-dev");
}

#[test]
fn weighted_strategy_diverts_from_a_busy_device_end_to_end() {
    // Two identical devices; dev-a is kept busy by a long-running job, so the
    // weighted strategy must send the next job to dev-b even though raw
    // fidelity scores tie.
    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("dev-a", topology::line(8), 0.005, 0.02))
        .unwrap();
    qrio.add_device(Backend::uniform("dev-b", topology::line(8), 0.005, 0.02))
        .unwrap();

    let bv = library::bernstein_vazirani(4, 0b1011).unwrap();
    // Occupy dev-a's classical resources (a long-running tenant). The
    // orchestrator refreshes telemetry on every submit, so occupying the node
    // is enough for the weighted strategy to see the load.
    let occupant_resources = qrio_cluster::Resources::new(3000, 6000);
    assert!(qrio
        .cluster_mut()
        .node_mut("dev-a")
        .unwrap()
        .allocate(&occupant_resources));

    let request = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name("weighted-e2e")
        .weighted(0.9, 1.0, 5.0, 50.0)
        .shots(96)
        .build()
        .unwrap();
    assert_eq!(request.strategy.name, "weighted");
    let outcome = qrio.submit(&request).unwrap();
    assert_eq!(
        outcome.decision.node, "dev-b",
        "utilization must steer the weighted strategy away from the busy node"
    );
    assert_eq!(
        qrio.status(&JobId::new("weighted-e2e")).unwrap(),
        JobState::Succeeded
    );
}

#[test]
fn min_queue_strategy_end_to_end() {
    let mut qrio = fast_qrio();
    // min_queue ignores calibration entirely: the noisy-but-idle device wins
    // once the clean device is occupied.
    qrio.add_device(Backend::uniform("clean", topology::line(8), 0.002, 0.01))
        .unwrap();
    qrio.add_device(Backend::uniform("noisy", topology::line(8), 0.03, 0.2))
        .unwrap();
    let bv = library::bernstein_vazirani(4, 0b1100).unwrap();

    // Without load, the tie-break picks the lexicographically-first device.
    let idle_request = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name("mq-idle")
        .min_queue()
        .shots(96)
        .build()
        .unwrap();
    assert_eq!(idle_request.strategy.name, "min_queue");
    let idle_outcome = qrio.submit(&idle_request).unwrap();
    assert_eq!(idle_outcome.decision.node, "clean");

    // Occupy the clean device; the next min-queue job must divert.
    assert!(qrio
        .cluster_mut()
        .node_mut("clean")
        .unwrap()
        .allocate(&qrio_cluster::Resources::new(2000, 4000)));
    let busy_request = JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name("mq-busy")
        .min_queue()
        .shots(96)
        .build()
        .unwrap();
    let busy_outcome = qrio.submit(&busy_request).unwrap();
    assert_eq!(busy_outcome.decision.node, "noisy");
}

#[test]
fn custom_strategy_runs_end_to_end_on_the_two_device_fleet() {
    /// "Fewest two-qubit gates after transpile", as in the
    /// `custom_strategy` example.
    #[derive(Debug)]
    struct FewestTwoQubitGates;

    impl RankingStrategy for FewestTwoQubitGates {
        fn name(&self) -> &str {
            "fewest-2q-gates"
        }

        fn validate(
            &self,
            _params: &StrategyParams,
            circuit: Option<&Circuit>,
        ) -> Result<(), MetaError> {
            circuit
                .map(|_| ())
                .ok_or_else(|| MetaError::InvalidMetadata("a circuit is required".into()))
        }

        fn score(&self, job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
            let circuit = job.circuit.expect("validated at upload");
            let transpiled = qrio_transpiler::transpile(circuit, backend)?;
            Ok(Score::new(
                backend.name(),
                transpiled.circuit.two_qubit_gate_count() as f64,
            ))
        }
    }

    let mut qrio = fast_qrio();
    qrio.add_device(Backend::uniform("ring-dev", topology::ring(8), 0.01, 0.05))
        .unwrap();
    qrio.add_device(Backend::uniform("line-dev", topology::line(8), 0.01, 0.05))
        .unwrap();
    qrio.register_strategy(Arc::new(FewestTwoQubitGates))
        .unwrap();
    // Duplicate registration fails loudly.
    assert!(qrio
        .register_strategy(Arc::new(FewestTwoQubitGates))
        .is_err());

    let ring_circuit = library::topology_circuit(8, &topology::ring(8).edges()).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&ring_circuit)
        .job_name("custom-e2e")
        .strategy(StrategySpec::new("fewest-2q-gates"))
        .shots(96)
        .build()
        .unwrap();
    let outcome = qrio.submit(&request).unwrap();
    assert_eq!(outcome.decision.node, "ring-dev");
    assert_eq!(
        qrio.status(&JobId::new("custom-e2e")).unwrap(),
        JobState::Succeeded
    );
    // An unregistered strategy name is rejected at submission.
    let bad = JobRequestBuilder::new()
        .with_circuit(&ring_circuit)
        .job_name("ghost")
        .strategy(StrategySpec::new("never-registered"))
        .build()
        .unwrap();
    assert!(qrio.submit(&bad).is_err());
}

#[test]
fn scheduler_tie_break_is_independent_of_fleet_order() {
    // Regression test for the (score, device_name) ordering: identical twins
    // produce identical scores; the service's ranking must come out the same
    // whichever order the devices were added in.
    let twin_a = Backend::uniform("twin-a", topology::line(8), 0.01, 0.05);
    let twin_b = Backend::uniform("twin-b", topology::line(8), 0.01, 0.05);
    let mut winners = Vec::new();
    for fleet in [
        vec![twin_a.clone(), twin_b.clone()],
        vec![twin_b.clone(), twin_a.clone()],
    ] {
        let mut qrio = fast_qrio();
        qrio.add_fleet(fleet).unwrap();
        // min_queue with no telemetry scores exactly 0.0 on both devices — a
        // guaranteed tie.
        let request = JobRequestBuilder::new()
            .job_name("tie")
            .num_qubits(1)
            .min_queue()
            .build()
            .unwrap();
        let id = qrio.enqueue(&request).unwrap();
        let ranked = qrio.rank_ready(&id).unwrap();
        assert_eq!(ranked[0].1, ranked[1].1);
        winners.push(ranked[0].0.clone());
        // score_all shares the same deterministic ordering.
        let ranked = qrio.meta().score_all("tie").unwrap();
        assert_eq!(ranked[0].device, "twin-a");
        // Telemetry breaks the tie the other way.
        qrio.report_telemetry([(
            "twin-a".to_string(),
            DeviceTelemetry {
                queue_depth: 2,
                utilization: 0.5,
                health_penalty: 0.0,
            },
        )]);
        let reranked = qrio.rank_ready(&id).unwrap();
        assert_eq!(reranked[0].0, "twin-b");
    }
    assert_eq!(winners, vec!["twin-a", "twin-a"]);
}
