//! Criterion bench: filter-stage throughput over the full 100-device fleet —
//! the cheap stage whose whole purpose is to save the expensive ranking work
//! (§4.5 / Fig. 10). What is timed is the service's own filter,
//! `Node::rejection`, over the nodes of a `Qrio` holding the paper fleet.

use criterion::{criterion_group, criterion_main, Criterion};

use qrio::experiments::paper_fig10_thresholds;
use qrio::{JobRequestBuilder, Qrio};
use qrio_backend::fleet::paper_fleet;
use qrio_cluster::{DeviceRequirements, Job};

/// Enqueue a one-qubit job bounded by `requirements` and return its name.
fn enqueue(qrio: &mut Qrio, name: &str, requirements: DeviceRequirements) -> String {
    let request = JobRequestBuilder::new()
        .job_name(name)
        .num_qubits(1)
        .requirements(requirements)
        .min_queue()
        .build()
        .unwrap();
    qrio.enqueue(&request).unwrap().to_string()
}

/// How many of the service's nodes can host `job`.
fn feasible(qrio: &Qrio, job: &Job) -> usize {
    qrio.cluster()
        .nodes()
        .filter(|node| node.rejection(job).is_none())
        .count()
}

fn bench_filtering(c: &mut Criterion) {
    let mut qrio = Qrio::new();
    qrio.add_fleet(paper_fleet().unwrap()).unwrap();
    let tight = enqueue(
        &mut qrio,
        "tight",
        DeviceRequirements {
            min_qubits: Some(50),
            max_two_qubit_error: Some(0.2),
            max_readout_error: Some(0.1),
            min_t1_us: Some(100_000.0),
            min_t2_us: Some(100_000.0),
        },
    );
    let loose = enqueue(
        &mut qrio,
        "loose",
        DeviceRequirements {
            max_two_qubit_error: Some(0.68),
            ..DeviceRequirements::default()
        },
    );
    let sweep: Vec<String> = paper_fig10_thresholds()
        .into_iter()
        .enumerate()
        .map(|(i, threshold)| {
            let bound = DeviceRequirements {
                max_two_qubit_error: Some(threshold),
                ..DeviceRequirements::default()
            };
            enqueue(&mut qrio, &format!("sweep-{i}"), bound)
        })
        .collect();
    let cluster = qrio.cluster();
    let job = |name: &str| cluster.job(name).unwrap();

    let mut group = c.benchmark_group("filtering");
    group.bench_function("tight_bounds_100_devices", |b| {
        b.iter(|| feasible(&qrio, job(&tight)))
    });
    group.bench_function("loose_bounds_100_devices", |b| {
        b.iter(|| feasible(&qrio, job(&loose)))
    });
    group.bench_function("fig10_threshold_sweep", |b| {
        b.iter(|| {
            sweep
                .iter()
                .map(|name| feasible(&qrio, job(name)))
                .collect::<Vec<usize>>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_filtering);
criterion_main!(benches);
