//! Criterion bench: meta-server scoring latency (the per-device cost of the
//! ranking stage) for both cacheable strategies, as a function of device
//! size.
//!
//! The meta server memoizes these scores per device and job content, so two
//! costs are timed apart: `*_cold` is the evaluation itself (the canary or
//! the embedding search, what a first-seen content pays), `*_shared` is a
//! second job with the same content scored through the server (a memo hit).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qrio_backend::{topology, Backend};
use qrio_circuit::{library, qasm};
use qrio_cluster::StrategySpec;
use qrio_meta::{evaluate_fidelity, evaluate_topology, FidelityRankingConfig, MetaServer};

fn bench_scoring(c: &mut Criterion) {
    let circuit = library::bernstein_vazirani(6, 0b101101).unwrap();
    let edges = [(0, 1), (1, 2), (2, 3)];
    let request = library::topology_circuit(4, &edges).unwrap();
    let fidelity = StrategySpec::fidelity(0.9);
    let topology = StrategySpec::topology(&edges, 4);
    let config = FidelityRankingConfig {
        shots: 128,
        seed: 1,
        shortfall_weight: 100.0,
    };

    let mut group = c.benchmark_group("meta_server_scoring");
    group.sample_size(10);
    for &device_size in &[10usize, 27, 50] {
        let backend = Backend::uniform(
            format!("bench-{device_size}"),
            topology::heavy_hex(device_size),
            0.01,
            0.05,
        );
        let mut meta = MetaServer::with_config(config);
        meta.register_backend(backend.clone());
        let text = qasm::to_qasm(&circuit);
        let device = backend.name().to_string();
        // The first job of each content fills the memo; the second shares it.
        for job in ["fidelity-first", "fidelity-shared"] {
            meta.upload_job_metadata(job, &fidelity, Some(&text))
                .unwrap();
        }
        for job in ["topology-first", "topology-shared"] {
            meta.upload_job_metadata(job, &topology, None).unwrap();
        }
        meta.score("fidelity-first", &device).unwrap();
        meta.score("topology-first", &device).unwrap();

        group.bench_with_input(
            BenchmarkId::new("fidelity_cold", device_size),
            &backend,
            |b, backend| b.iter(|| evaluate_fidelity(&circuit, 0.9, backend, &config).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("fidelity_shared", device_size),
            &device,
            |b, device| b.iter(|| meta.score("fidelity-shared", device).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("topology_cold", device_size),
            &backend,
            |b, backend| b.iter(|| evaluate_topology(&request, backend).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("topology_shared", device_size),
            &device,
            |b, device| b.iter(|| meta.score("topology-shared", device).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
