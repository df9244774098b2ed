//! Integration tests for the QRIO scheduler as the service runs it, against
//! generated fleets: filtering, ranking, and comparison with the random and
//! oracle baselines.

use qrio::{FidelityRankingConfig, JobRequest, JobRequestBuilder, Qrio, QrioError};
use qrio_backend::fleet::{generate_fleet, FleetConfig};
use qrio_backend::{topology, Backend};
use qrio_circuit::{library, Circuit};
use qrio_cluster::{DeviceRequirements, StrategySpec};
use qrio_scheduler::{achieved_fidelity, oracle_select, RandomScheduler, SchedulerError};

fn small_fleet() -> Vec<Backend> {
    generate_fleet(&FleetConfig::small(), 9).unwrap()
}

fn service_for(fleet: &[Backend]) -> Qrio {
    // 256 canary shots: enough precision for the pick to track the oracle on
    // the small fleet (96 was borderline and flaky across RNG streams).
    let mut qrio = Qrio::with_config(
        FidelityRankingConfig {
            shots: 256,
            seed: 17,
            shortfall_weight: 100.0,
        },
        17,
    );
    qrio.add_fleet(fleet.iter().cloned()).unwrap();
    qrio
}

/// A job asking for the highest fidelity the fleet offers `circuit`.
fn fidelity_job(name: &str, circuit: &Circuit) -> JobRequest {
    JobRequestBuilder::new()
        .with_circuit(circuit)
        .job_name(name)
        .fidelity_target(1.0)
        .build()
        .unwrap()
}

/// A one-qubit job bounded by `requirements`, ranked by queue alone.
fn bounded_job(name: &str, requirements: DeviceRequirements) -> JobRequest {
    JobRequestBuilder::new()
        .job_name(name)
        .num_qubits(1)
        .requirements(requirements)
        .min_queue()
        .build()
        .unwrap()
}

/// Enqueue `request` and return the service's ranking for it, best first;
/// empty when no device passes the job's bounds.
fn ranked(qrio: &mut Qrio, request: &JobRequest) -> Vec<(String, f64)> {
    let id = qrio.enqueue(request).unwrap();
    match qrio.rank_ready(&id) {
        Ok(ranked) => ranked,
        Err(QrioError::Scheduler(SchedulerError::NoDeviceAfterFiltering { .. })) => Vec::new(),
        Err(err) => panic!("ranking {id} failed: {err}"),
    }
}

#[test]
fn qrio_beats_the_random_scheduler_on_achieved_fidelity() {
    let fleet = small_fleet();
    let mut qrio = service_for(&fleet);
    let circuit = library::repetition_code_encoder(5).unwrap();
    let ranked = ranked(&mut qrio, &fidelity_job("rep-job", &circuit));
    let qrio_backend = fleet.iter().find(|b| b.name() == ranked[0].0).unwrap();
    let qrio_fidelity = achieved_fidelity(&circuit, qrio_backend, 128, 3).unwrap();

    // Average fidelity over several random choices.
    let runnable: Vec<&Backend> = fleet
        .iter()
        .filter(|b| achieved_fidelity(&circuit, b, 64, 3).is_ok())
        .collect();
    let mut random = RandomScheduler::new(29);
    let mut total = 0.0;
    let draws = 8;
    for _ in 0..draws {
        let pick = random.pick(&runnable).unwrap();
        total += achieved_fidelity(&circuit, pick, 128, 3).unwrap();
    }
    let random_fidelity = total / f64::from(draws);
    assert!(
        qrio_fidelity + 1e-9 >= random_fidelity,
        "QRIO ({qrio_fidelity:.3}) should not be worse than random ({random_fidelity:.3}) on average"
    );
}

#[test]
fn qrio_choice_tracks_the_oracle_choice() {
    let fleet = small_fleet();
    let mut qrio = service_for(&fleet);
    let circuit = library::bernstein_vazirani(6, 0b110011).unwrap();
    let ranked = ranked(&mut qrio, &fidelity_job("bv-job", &circuit));
    let oracle = oracle_select(&circuit, &fleet, 128, 5).unwrap();

    let qrio_backend = fleet.iter().find(|b| b.name() == ranked[0].0).unwrap();
    let qrio_fidelity = achieved_fidelity(&circuit, qrio_backend, 128, 5).unwrap();
    // The Clifford choice should reach a large fraction of the oracle's fidelity.
    assert!(
        qrio_fidelity >= oracle.best_fidelity * 0.7,
        "clifford choice {qrio_fidelity:.3} vs oracle {:.3}",
        oracle.best_fidelity
    );
    // And should be at least as good as the fleet median.
    assert!(qrio_fidelity + 0.1 >= oracle.median_fidelity());
}

#[test]
fn filtering_respects_every_bound_on_the_paper_fleet_subset() {
    let fleet = small_fleet();
    let req = DeviceRequirements {
        min_qubits: Some(10),
        max_two_qubit_error: Some(0.45),
        max_readout_error: Some(0.2),
        min_t1_us: Some(50_000.0),
        min_t2_us: Some(50_000.0),
    };
    let mut qrio = service_for(&fleet);
    let survivors = ranked(&mut qrio, &bounded_job("bounded", req));
    assert!(!survivors.is_empty(), "some device meets every bound");
    for (device, _) in &survivors {
        let backend = qrio.cluster().node(device).unwrap().backend();
        assert!(backend.num_qubits() >= 10);
        assert!(backend.avg_two_qubit_error() <= 0.45);
        assert!(backend.avg_readout_error() <= 0.2);
        assert!(backend.avg_t1_us() >= 50_000.0);
        assert!(backend.avg_t2_us() >= 50_000.0);
    }
}

#[test]
fn tighter_filters_shrink_the_shortlist_monotonically() {
    let mut qrio = service_for(&small_fleet());
    let mut previous = usize::MAX;
    for (i, threshold) in [0.7, 0.5, 0.3, 0.2, 0.1, 0.05].into_iter().enumerate() {
        let req = DeviceRequirements {
            max_two_qubit_error: Some(threshold),
            ..DeviceRequirements::default()
        };
        let count = ranked(&mut qrio, &bounded_job(&format!("bound-{i}"), req)).len();
        assert!(count <= previous, "count must shrink as the bound tightens");
        previous = count;
    }
}

#[test]
fn topology_scheduling_prefers_denser_devices_for_dense_requests() {
    // A fully-connected 4-qubit request against one dense and one sparse
    // device with equal error rates.
    let devices = vec![
        Backend::uniform("dense", topology::fully_connected(6), 0.01, 0.05),
        Backend::uniform("sparse", topology::line(6), 0.01, 0.05),
    ];
    let mut qrio = service_for(&devices);
    let request = JobRequestBuilder::new()
        .job_name("dense-req")
        .num_qubits(4)
        .strategy(StrategySpec::topology(
            &topology::fully_connected(4).edges(),
            4,
        ))
        .build()
        .unwrap();
    let ranked = ranked(&mut qrio, &request);
    assert_eq!(ranked[0].0, "dense");
}
