//! Criterion bench: meta-server scoring latency (the per-device cost of the
//! ranking stage) for both strategies, as a function of device size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qrio_backend::{topology, Backend};
use qrio_circuit::{library, qasm};
use qrio_cluster::StrategySpec;
use qrio_meta::{FidelityRankingConfig, MetaServer};

fn bench_scoring(c: &mut Criterion) {
    let circuit = library::bernstein_vazirani(6, 0b101101).unwrap();
    let fidelity = StrategySpec::fidelity(0.9);
    let topology = StrategySpec::topology(&[(0, 1), (1, 2), (2, 3)], 4);

    let mut group = c.benchmark_group("meta_server_scoring");
    group.sample_size(10);
    for &device_size in &[10usize, 27, 50] {
        let backend = Backend::uniform(
            format!("bench-{device_size}"),
            topology::heavy_hex(device_size),
            0.01,
            0.05,
        );
        let mut meta = MetaServer::with_config(FidelityRankingConfig {
            shots: 128,
            seed: 1,
            shortfall_weight: 100.0,
        });
        meta.register_backend(backend);
        meta.upload_job_metadata("fidelity-job", &fidelity, Some(&qasm::to_qasm(&circuit)))
            .unwrap();
        meta.upload_job_metadata("topology-job", &topology, None)
            .unwrap();
        let device = format!("bench-{device_size}");

        group.bench_with_input(
            BenchmarkId::new("fidelity", device_size),
            &device,
            |b, device| b.iter(|| meta.score("fidelity-job", device).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("topology", device_size),
            &device,
            |b, device| b.iter(|| meta.score("topology-job", device).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
