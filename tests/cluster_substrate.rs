//! Integration tests for the Kubernetes-like substrate working together with
//! the master server artifacts: images, YAML specs, node lifecycle and one
//! node running a queue of jobs.

use qrio::master_server::{render_image, ImageBundle};
use qrio::{containerize, ControlPlane, JobRequestBuilder, SimJobRunner};
use qrio_agent::NodeAgent;
use qrio_backend::{spec as backend_spec, topology, Backend};
use qrio_circuit::library;
use qrio_cluster::{yaml, Cluster, ClusterError, Node, Resources, ScheduleDecision};
use qrio_meta::MetaServer;
use qrio_proto::NodeCommand;
use qrio_scheduler::QrioScheduler;

fn node(name: &str, qubits: usize, err: f64) -> Node {
    Node::from_backend(
        Backend::uniform(name, topology::grid(2, qubits.div_ceil(2)), 0.01, err),
        Resources::new(4000, 8192),
    )
}

/// One scheduling cycle over the substrate, as the orchestrator runs it: a
/// meta server holding the nodes' backends and the job's metadata scores the
/// nodes that can host the job, and the cluster binds the best.
fn schedule(cluster: &mut Cluster, job_name: &str) -> ScheduleDecision {
    let mut meta = MetaServer::new();
    for node in cluster.nodes() {
        meta.register_backend(node.backend().clone());
    }
    let job = cluster.job(job_name).unwrap();
    let spec = job.spec();
    meta.upload_job_metadata(job_name, &spec.strategy, Some(&spec.qasm))
        .unwrap();
    let cycle = QrioScheduler::new(&meta)
        .cycle(job, cluster.nodes())
        .unwrap();
    assert!(cycle.skipped.is_empty());
    cluster
        .bind_job(job_name, cycle.ranking, cycle.rejected, Vec::new())
        .unwrap()
}

/// Bind `job_name` to `node` directly, for tests that only need a
/// `Scheduled` job.
fn bind(cluster: &mut Cluster, job_name: &str, node: &str) {
    cluster
        .bind_job(
            job_name,
            vec![(node.to_string(), 0.0)],
            Vec::new(),
            Vec::new(),
        )
        .unwrap();
}

/// A control plane with one agent per node of `cluster`, each with a real
/// runner and bound to its node's calibration — the device side the
/// orchestrator stands up, over the bare substrate.
fn control_plane(cluster: &Cluster, seed: u64) -> ControlPlane {
    let mut control = ControlPlane::new_in_proc();
    for node in cluster.nodes() {
        let runner = Box::new(SimJobRunner::new(seed));
        control
            .register_agent(NodeAgent::new(node.name(), runner))
            .unwrap();
        let bind = NodeCommand::Bind {
            backend_spec: backend_spec::to_spec(node.backend()),
            injector: None,
        };
        control.send_command(node.name(), 0, bind).unwrap();
    }
    control.drain();
    control
}

/// One attempt of a `Scheduled` job: started in the cluster, run by the
/// bound node's agent across the wire, settled back into the cluster.
fn attempt_over_the_wire(
    cluster: &mut Cluster,
    control: &mut ControlPlane,
    job_name: &str,
) -> Result<(), ClusterError> {
    let (order, spec) = cluster.prepare_run(job_name, 0)?;
    let verdict = control.run(&order, spec, 0);
    cluster.settle_run(&order, verdict)
}

fn containerized_request(name: &str, qubits: usize) -> (qrio_cluster::JobSpec, ImageBundle) {
    let circuit = library::ghz(qubits).unwrap();
    let request = JobRequestBuilder::new()
        .with_circuit(&circuit)
        .job_name(name)
        .fidelity_target(0.8)
        .shots(96)
        .build()
        .unwrap();
    let job = containerize(&request).unwrap();
    (job.spec, job.image)
}

#[test]
fn master_server_artifacts_run_on_the_cluster() {
    let mut cluster = Cluster::new();
    cluster.add_node(node("quiet", 6, 0.02)).unwrap();
    cluster.add_node(node("loud", 6, 0.4)).unwrap();

    let (spec, image) = containerized_request("ghz-cluster", 4);
    // The YAML document the master server writes round-trips.
    let yaml_text = yaml::to_yaml(&spec);
    let parsed = yaml::from_yaml(&yaml_text).unwrap();
    assert_eq!(parsed.name, spec.name);
    assert_eq!(parsed.num_qubits, spec.num_qubits);

    cluster.push_image(image.name());
    cluster.submit_job(spec).unwrap();
    let decision = schedule(&mut cluster, "ghz-cluster");
    assert_eq!(decision.node, "quiet");
    let mut control = control_plane(&cluster, 3);
    attempt_over_the_wire(&mut cluster, &mut control, "ghz-cluster").unwrap();
    let job = cluster.job("ghz-cluster").unwrap();
    assert_eq!(job.node(), None, "the settled attempt released its node");
    assert!(job.achieved_fidelity().unwrap() > 0.5);
    assert!(job.logs().iter().any(|l| l.contains("transpiled")));
}

#[test]
fn node_failure_heal_and_reschedule() {
    let mut cluster = Cluster::new();
    cluster.add_node(node("alpha", 6, 0.05)).unwrap();
    cluster.add_node(node("beta", 6, 0.02)).unwrap();

    // Beta (the better device) goes down: jobs land on alpha.
    cluster.node_mut("beta").unwrap().mark_not_ready();
    let (spec, image) = containerized_request("failover-job", 4);
    cluster.push_image(image.name());
    cluster.submit_job(spec).unwrap();
    let decision = schedule(&mut cluster, "failover-job");
    assert_eq!(decision.node, "alpha");
    assert!(decision
        .filtered_out
        .iter()
        .any(|(n, reason)| n == "beta" && reason.contains("not ready")));

    // Self-healing brings beta back and the next job prefers it again.
    assert_eq!(cluster.heal_nodes(), vec!["beta"]);
    let (spec2, image2) = containerized_request("post-heal-job", 4);
    cluster.push_image(image2.name());
    cluster.submit_job(spec2).unwrap();
    let decision2 = schedule(&mut cluster, "post-heal-job");
    assert_eq!(decision2.node, "beta");
}

#[test]
fn fifo_queue_runs_every_job_with_the_real_runner() {
    let mut cluster = Cluster::new();
    cluster.add_node(node("only-node", 6, 0.05)).unwrap();
    let queue: Vec<String> = (0..3).map(|i| format!("queued-{i}")).collect();
    for name in &queue {
        let (spec, image) = containerized_request(name, 3);
        cluster.push_image(image.name());
        cluster.submit_job(spec).unwrap();
    }
    let mut control = control_plane(&cluster, 9);
    // Drain from the head, in submission order: each job holds no
    // reservation until it is bound, then runs on the one node.
    for (i, head) in queue.iter().enumerate() {
        for waiting in &queue[i..] {
            assert_eq!(cluster.job(waiting).unwrap().node(), None, "{waiting}");
        }
        bind(&mut cluster, head, "only-node");
        attempt_over_the_wire(&mut cluster, &mut control, head).unwrap();
    }
    for i in 0..3 {
        let job = cluster.job(&format!("queued-{i}")).unwrap();
        assert!(!job.result_counts().is_empty(), "job {i} did not finish");
    }
    // Node resources fully released after the queue drained.
    assert_eq!(
        cluster.node("only-node").unwrap().allocated(),
        Resources::new(0, 0)
    );
}

#[test]
fn registry_tracks_pushes_and_pulls() {
    let mut cluster = Cluster::new();
    cluster.add_node(node("n", 4, 0.05)).unwrap();
    let (spec, image) = containerized_request("registry-job", 3);
    assert_eq!(
        image.files().count(),
        4,
        "circuit, runner, requirements, Dockerfile"
    );
    // The registry keeps the name; the files are the spec's, rendered again.
    assert_eq!(render_image(&spec), image);
    cluster.push_image(image.name());
    assert!(cluster.registry().contains(&spec.image));
    cluster.submit_job(spec).unwrap();
    bind(&mut cluster, "registry-job", "n");
    let mut control = control_plane(&cluster, 1);
    attempt_over_the_wire(&mut cluster, &mut control, "registry-job").unwrap();
    assert_eq!(cluster.registry().pull_count(), 1);
}

/// Determinism audit pin: every user-visible listing of the cluster and the
/// meta server iterates in sorted (BTree) order, independent of insertion
/// order — the property batch draining, watch streams and bulk operations
/// rely on. If a store ever regresses to a hash-ordered map, this test
/// catches it.
#[test]
fn listings_iterate_in_sorted_order_regardless_of_insertion_order() {
    let insertion_orders = [
        vec!["zeta", "alpha", "mid"],
        vec!["mid", "zeta", "alpha"],
        vec!["alpha", "mid", "zeta"],
    ];
    for order in &insertion_orders {
        let mut cluster = Cluster::new();
        let mut meta = qrio_meta::MetaServer::new();
        for name in order {
            cluster.add_node(node(name, 6, 0.02)).unwrap();
            meta.register_backend(Backend::uniform(*name, topology::line(6), 0.01, 0.02));
            let (spec, image) = containerized_request(&format!("job-{name}"), 4);
            cluster.push_image(image.name());
            cluster.submit_job(spec).unwrap();
        }
        let node_names: Vec<&str> = cluster.nodes().map(|n| n.name()).collect();
        assert_eq!(node_names, vec!["alpha", "mid", "zeta"]);
        let job_names: Vec<&str> = cluster.jobs().map(|j| j.name()).collect();
        assert_eq!(job_names, vec!["job-alpha", "job-mid", "job-zeta"]);
        assert_eq!(
            cluster.registry().image_names(),
            vec![
                "qrio/job-alpha:latest",
                "qrio/job-mid:latest",
                "qrio/job-zeta:latest"
            ]
        );
        assert_eq!(meta.device_names(), vec!["alpha", "mid", "zeta"]);
    }
}
