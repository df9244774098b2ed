//! Vendor / cluster-administrator perspective: define devices with the
//! `backend.spec` text format, cordon and heal nodes, drain a queue of jobs
//! (the multi-job mode the paper lists as future work), then read the two
//! logs: the cluster's node events and the jobs' transitions
//! (`Qrio::watch`).
//!
//! Run with: `cargo run --example cluster_admin`

use qrio::{JobRequestBuilder, Qrio};
use qrio_backend::{spec, topology, Backend};
use qrio_circuit::library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut qrio = Qrio::new();

    // Vendors describe devices as backend.spec files (the paper's backend.py).
    let handwritten_spec = spec::to_spec(&Backend::uniform(
        "lab-device-a",
        topology::heavy_square(9),
        0.01,
        0.06,
    ));
    println!("--- vendor backend.spec for lab-device-a ---\n{handwritten_spec}");
    let device_a = spec::from_spec(&handwritten_spec)?;
    qrio.add_device(device_a)?;
    qrio.add_device(Backend::uniform(
        "lab-device-b",
        topology::grid(3, 3),
        0.02,
        0.1,
    ))?;
    qrio.add_device(Backend::uniform(
        "lab-device-c",
        topology::ring(12),
        0.03,
        0.2,
    ))?;

    // A node fails; Kubernetes-style self-healing restarts it.
    qrio.cluster_mut()
        .node_mut("lab-device-c")
        .unwrap()
        .mark_not_ready();
    let healed = qrio.cluster_mut().heal_nodes();
    println!("healed nodes: {healed:?}");

    // Cordon a node for maintenance: the scheduler will skip it.
    qrio.cluster_mut()
        .node_mut("lab-device-b")
        .unwrap()
        .cordon();

    // Submit a couple of jobs through the normal user path.
    for (i, n) in [4usize, 5].iter().enumerate() {
        let request = JobRequestBuilder::new()
            .with_circuit(&library::ghz(*n)?)
            .job_name(format!("ghz-{i}"))
            .fidelity_target(0.85)
            .shots(256)
            .build()?;
        let outcome = qrio.submit(&request)?;
        println!("job ghz-{i} ran on {}", outcome.decision.node);
    }

    // Queue a batch without blocking and let the service loop drain it:
    // the 12-qubit job only fits the ring device, the others go wherever
    // the meta server ranks best among the uncordoned nodes.
    let mut batch = Vec::new();
    for (i, n) in [3usize, 12, 6].iter().enumerate() {
        let request = JobRequestBuilder::new()
            .with_circuit(&library::ghz(*n)?)
            .job_name(format!("batch-{i}"))
            .fidelity_target(0.8)
            .shots(128)
            .build()?;
        batch.push(qrio.enqueue(&request)?);
    }
    let finished = qrio.run_until_idle();
    println!("queue drained: {} additional jobs", finished.len());
    for id in &batch {
        let node = qrio.job_status(id)?.node.clone().unwrap_or_default();
        println!("  {id}: {} on {node}", qrio.status(id)?);
    }

    // The audit trail: what happened to the nodes, then to the jobs.
    println!("\n--- node events ---");
    for event in qrio.cluster().events() {
        println!("{:<16} {}", event.kind, event.message);
    }
    println!("\n--- job transitions ---");
    for event in qrio.watch(0) {
        let from = event
            .from
            .map_or("-".to_string(), |state| state.to_string());
        let (to, node) = (event.to.to_string(), event.node.as_deref().unwrap_or("-"));
        print!(
            "{:>3} {:<8} {from:>9} -> {to:<9} {node}",
            event.seq, event.job
        );
        match &event.cause {
            Some(cause) => println!(" ({cause})"),
            None => println!(),
        }
    }
    let registry = qrio.cluster().registry();
    println!(
        "\nregistry: {} images, {} pushes, {} pulls",
        registry.image_names().len(),
        registry.push_count(),
        registry.pull_count()
    );
    Ok(())
}
