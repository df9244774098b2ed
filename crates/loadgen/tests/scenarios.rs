//! Scenario-level behaviour of the workload simulator: determinism,
//! scheduler fairness under load, drift-driven re-ranking and outage
//! survival.

mod common;

use qrio_loadgen::{run_scenario, run_scenario_with_log, Scenario};

/// A congested three-device fleet: identical arrival streams for every
/// tenant, service times sized so the offered load exceeds fleet capacity
/// and queues must form.
fn congested_scenario(strategies: &[(&str, &str)]) -> Scenario {
    let mut yaml = String::from(
        "scenario: congested\n\
         seed: 1234\n\
         durationMs: 12000\n\
         maxJobs: 180\n\
         serviceBaseUs: 150000\n\
         servicePerShotUs: 2000\n\
         canaryShots: 16\n\
         fleet:\n\
           - device: alpha\n\
             topology: line\n\
             qubits: 8\n\
             twoQubitError: 0.008\n\
             readoutError: 0.01\n\
           - device: beta\n\
             topology: ring\n\
             qubits: 8\n\
             twoQubitError: 0.02\n\
             readoutError: 0.02\n\
           - device: gamma\n\
             topology: line\n\
             qubits: 8\n\
             twoQubitError: 0.04\n\
             readoutError: 0.04\n\
         tenants:\n",
    );
    for (tenant, strategy) in strategies {
        yaml.push_str(&format!(
            "  - tenant: {tenant}\n\
             \x20   strategy: {strategy}\n\
             \x20   target: 0.85\n\
             \x20   circuit: bv\n\
             \x20   qubits: 5\n\
             \x20   shots: 32\n\
             \x20   arrival: poisson\n\
             \x20   ratePerSec: 5.0\n"
        ));
    }
    Scenario::from_yaml(&yaml).unwrap()
}

#[test]
fn same_seed_runs_are_byte_identical_through_drift_and_outage() {
    let scenario = Scenario::from_yaml(
        "scenario: det\n\
         seed: 77\n\
         durationMs: 8000\n\
         maxJobs: 80\n\
         serviceBaseUs: 100000\n\
         canaryShots: 16\n\
         fleet:\n\
           - device: a\n\
             qubits: 6\n\
           - device: b\n\
             qubits: 6\n\
             twoQubitError: 0.03\n\
         tenants:\n\
           - tenant: t1\n\
             strategy: fidelity\n\
             circuit: bv\n\
             qubits: 4\n\
             shots: 16\n\
             ratePerSec: 6.0\n\
           - tenant: t2\n\
             strategy: min_queue\n\
             circuit: ghz\n\
             qubits: 4\n\
             shots: 16\n\
             arrival: bursty\n\
             ratePerSec: 3.0\n\
             burstMultiplier: 6.0\n\
         events:\n\
           - atMs: 2000\n\
             kind: outage\n\
             device: a\n\
             downMs: 2000\n\
           - atMs: 4000\n\
             kind: drift\n\
             device: a\n\
             errorFactor: 10.0\n",
    )
    .unwrap();
    let (first, log) = run_scenario_with_log(&scenario).unwrap();
    let second = run_scenario(&scenario).unwrap();
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "same-seed runs must be byte-identical"
    );
    assert!(first.completed > 0);
    assert_eq!(first.drift_events, 1);
    assert_eq!(first.outage_events, 1);
    common::assert_consistent(&first, &log);
    // A different seed changes the workload (and therefore the report).
    let mut reseeded = scenario;
    reseeded.seed = 78;
    let third = run_scenario(&reseeded).unwrap();
    assert_ne!(first.to_json(), third.to_json());
}

/// Satellite: in a congested fleet no tenant starves, and the load-aware
/// `min_queue` strategy beats load-blind `fidelity` on p95 latency — the
/// fidelity tenants all chase the same cleanest device while their queue
/// grows.
#[test]
fn min_queue_beats_fidelity_on_p95_latency_and_nobody_starves() {
    let report = run_scenario(&congested_scenario(&[
        ("fid-a", "fidelity"),
        ("fid-b", "fidelity"),
        ("queue-c", "min_queue"),
    ]))
    .unwrap();

    // The fleet was genuinely congested: some device queued several jobs.
    let peak = report
        .devices
        .values()
        .map(|d| d.peak_queue_depth)
        .max()
        .unwrap();
    assert!(peak >= 4, "scenario must produce contention, peak {peak}");

    // No tenant starves: every stream completes every job it submitted
    // (queues drain in virtual time; nothing is silently dropped), and every
    // tenant makes real progress.
    for (tenant, stats) in &report.tenants {
        assert!(
            stats.submitted > 20,
            "{tenant} submitted {}",
            stats.submitted
        );
        assert_eq!(
            stats.completed + stats.rejected,
            stats.submitted,
            "{tenant} lost jobs"
        );
        assert_eq!(stats.rejected, 0, "{tenant} was rejected under plain load");
        assert!(stats.throughput_per_sec > 0.0, "{tenant} starved");
    }

    // The load-aware strategy wins on tail latency against both fidelity
    // tenants.
    let queue_p95 = report.tenants["queue-c"].p95_latency_ms;
    for fid in ["fid-a", "fid-b"] {
        let fid_p95 = report.tenants[fid].p95_latency_ms;
        assert!(
            queue_p95 < fid_p95,
            "min_queue p95 {queue_p95} ms must beat {fid} p95 {fid_p95} ms"
        );
    }
}

/// Drift re-ranking: when the device every fidelity job piles onto drifts to
/// terrible calibration, waiting jobs migrate off it and later executions
/// happen under the drifted noise model (lower achieved fidelity).
#[test]
fn calibration_drift_triggers_migrations_and_degrades_fidelity() {
    // The two devices are far enough apart (0.004 vs 0.06 two-qubit error)
    // that the 64-shot canary ranks them decisively: before the drift every
    // job chooses 'clean'; the drift (factor 60) inverts the ordering.
    let base = "\
scenario: drift
seed: 5
durationMs: 10000
maxJobs: 120
serviceBaseUs: 200000
canaryShots: 64
fleet:
  - device: clean
    qubits: 6
    twoQubitError: 0.004
    readoutError: 0.005
  - device: backup
    qubits: 6
    twoQubitError: 0.06
    readoutError: 0.04
tenants:
  - tenant: alice
    strategy: fidelity
    target: 0.9
    circuit: bv
    qubits: 4
    shots: 32
    ratePerSec: 8.0
";
    let calm = Scenario::from_yaml(base).unwrap();
    let drifted = Scenario::from_yaml(&format!(
        "{base}events:\n  - atMs: 3000\n    kind: drift\n    device: clean\n    errorFactor: 60.0\n"
    ))
    .unwrap();

    let calm_report = run_scenario(&calm).unwrap();
    let drift_report = run_scenario(&drifted).unwrap();

    assert_eq!(calm_report.migrations, 0, "nothing migrates without events");
    assert!(
        drift_report.migrations > 0,
        "drift must push waiting jobs off the degraded device"
    );
    assert_eq!(drift_report.drift_events, 1);
    // Re-ranking the same (job, device) pairs after the drift produces cache
    // hits for the cacheable fidelity strategy.
    assert!(drift_report.cache_hits > 0, "re-ranking must hit the cache");
    // Executions after the drift run under the degraded noise model.
    let calm_f = calm_report.tenants["alice"].mean_fidelity;
    let drift_f = drift_report.tenants["alice"].mean_fidelity;
    assert!(
        drift_f < calm_f - 0.02,
        "drift must degrade mean fidelity ({drift_f} vs {calm_f})"
    );
}

/// Outages cordon the device, flee its waiting queue, and the cloud still
/// drains every job.
#[test]
fn outages_migrate_waiting_jobs_and_everything_drains() {
    let scenario = Scenario::from_yaml(
        "scenario: outage\n\
         seed: 13\n\
         durationMs: 10000\n\
         maxJobs: 100\n\
         serviceBaseUs: 250000\n\
         canaryShots: 16\n\
         fleet:\n\
           - device: primary\n\
             qubits: 6\n\
             twoQubitError: 0.005\n\
           - device: standby\n\
             qubits: 6\n\
             twoQubitError: 0.03\n\
         tenants:\n\
           - tenant: solo\n\
             strategy: fidelity\n\
             target: 0.9\n\
             circuit: bv\n\
             qubits: 4\n\
             shots: 32\n\
             ratePerSec: 8.0\n\
         events:\n\
           - atMs: 2000\n\
             kind: outage\n\
             device: primary\n\
             downMs: 4000\n",
    )
    .unwrap();
    let report = run_scenario(&scenario).unwrap();
    assert_eq!(report.outage_events, 1);
    assert!(
        report.migrations > 0,
        "the cordoned device's waiting queue must flee"
    );
    assert_eq!(
        report.completed + report.rejected + report.execution_failures,
        report.submitted,
        "every job drains even through the outage"
    );
    assert!(
        report.devices["standby"].completed > 0,
        "standby absorbed load"
    );
    assert!(report.completed > 0);
}

// --- Kill-and-restart durability ----------------------------------------------------------

#[test]
fn kill_restart_storm_is_certified_by_the_watch_log_auditor() {
    use qrio_analyzer::{audit_watch_log, AuditOptions};
    use qrio_loadgen::{run_kill_restart_with_log, KillRestartScenario};

    let scenario = KillRestartScenario {
        seed: 4242,
        jobs: 80,
        crash_after_jobs: 55,
        snapshot_every: 8,
        ..KillRestartScenario::default()
    };
    let dir = std::env::temp_dir().join(format!("qrio-loadgen-audit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("certified.qj");

    let (report, log) = run_kill_restart_with_log(&scenario, &path).unwrap();
    assert!(report.holds(), "durability contract violated:\n{report}");
    assert_eq!(report.jobs_lost, 0);
    assert_eq!(report.double_executed, 0);
    // Recovery started from a mid-storm snapshot, not the genesis.
    assert!(report.journal_snapshots >= 2, "{report}");
    assert!(report.recovery.snapshot_cursor > 0, "{report}");

    // The spliced pre-crash + post-recovery stream must satisfy every watch
    // invariant the analyzer knows: dense sequences, legal transitions, one
    // Running entry per job, terminal states final.
    let diagnostics = audit_watch_log(&log, AuditOptions::default());
    assert!(
        diagnostics.is_empty(),
        "auditor flagged the spliced stream: {diagnostics:?}"
    );
}

// --- The simulator paths the flagship's circuits take -------------------------------------

/// Every circuit the flagship scenario ranks or runs must be on the
/// simulator's one-pass paths: a canary is scored on six devices per job and
/// a job runs once per attempt, so one that falls back to per-shot replay is
/// paid for thousands of times a round — and nothing else notices, because
/// replay returns the same bytes. For every tenant circuit × device this
/// takes the two routes the system takes (the meta server's deflated canary,
/// the agent's execution transpile) and requires the Pauli-frame path to
/// accept the circuit and to return what replay returns.
#[test]
fn every_flagship_circuit_is_frame_eligible_on_every_device() {
    use qrio_circuit::qasm;
    use qrio_sim::{run_with_noise_path, ExecutionPath, NoiseModel, ParallelConfig};
    use qrio_transpiler::{deflate, transpile};

    let scenario = Scenario::from_yaml(include_str!("../../../scenarios/cloud.yaml")).unwrap();
    let mut checked = 0;
    for tenant in &scenario.tenants {
        for index in [0, 1, 7, 450] {
            let circuit = tenant.circuit_for(index).unwrap();
            assert!(circuit.measurement_count() > 0 && circuit.is_clifford());
            // What the agent is sent, and what the meta server is given.
            let sent = qasm::parse_qasm(&qasm::to_qasm(&circuit)).unwrap();
            for device in &scenario.fleet {
                let backend = device.backend();
                let canary = transpile(&circuit.to_clifford(), &backend).unwrap();
                let execution = transpile(&sent, &backend).unwrap();
                for (routed, shots) in [
                    (canary.circuit.to_clifford(), scenario.canary_shots),
                    (execution.circuit, tenant.shots),
                ] {
                    let deflated = deflate(&routed, &backend).unwrap();
                    let noise = NoiseModel::from_backend(&deflated.backend);
                    let run = |path| {
                        let serial = ParallelConfig::serial();
                        run_with_noise_path(&deflated.circuit, &noise, shots, index, &serial, path)
                    };
                    let frame = run(ExecutionPath::Frame).unwrap_or_else(|e| {
                        panic!(
                            "{}'s job {index} on {} left the frame path: {e}",
                            tenant.name, device.name
                        )
                    });
                    assert_eq!(frame, run(ExecutionPath::Replay).unwrap());
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 4 * 4 * 6 * 2);
}

/// The canary scorer, the baselines and the runner get their ideal and noisy
/// halves from one `run_paired` instead of two runs. On every tenant circuit
/// × device, route as above, and in both seed orders the system uses — the
/// canary's (ideal at `seed`, noisy a stride up) and the runner's (noisy at
/// `seed`, ideal a stride up) — the pair must be the two runs: both
/// histograms, and the fidelity to the last bit.
#[test]
fn paired_run_equals_two_runs() {
    use qrio_circuit::qasm;
    use qrio_sim::{
        run_ideal_parallel, run_paired, run_with_noise_parallel, NoiseModel, ParallelConfig,
        SEED_STREAM_STRIDE,
    };
    use qrio_transpiler::{deflate, transpile};

    let scenario = Scenario::from_yaml(include_str!("../../../scenarios/cloud.yaml")).unwrap();
    let serial = ParallelConfig::serial();
    let mut checked = 0;
    for tenant in &scenario.tenants {
        for index in [0, 1, 7, 450] {
            let circuit = tenant.circuit_for(index).unwrap();
            let sent = qasm::parse_qasm(&qasm::to_qasm(&circuit)).unwrap();
            for (position, device) in (0u64..).zip(&scenario.fleet) {
                let backend = device.backend();
                let canary = transpile(&circuit.to_clifford(), &backend).unwrap();
                let execution = transpile(&sent, &backend).unwrap();
                for (routed, shots) in [
                    (canary.circuit.to_clifford(), scenario.canary_shots),
                    (execution.circuit, tenant.shots),
                ] {
                    let deflated = deflate(&routed, &backend).unwrap();
                    let circuit = &deflated.circuit;
                    let noise = NoiseModel::from_backend(&deflated.backend);
                    let seed = index * 1000 + position;
                    let (up, down) = (seed.wrapping_add(SEED_STREAM_STRIDE), seed);
                    for (ideal_seed, noisy_seed) in [(down, up), (up, down)] {
                        let (ideal, noisy) =
                            run_paired(circuit, &noise, shots, ideal_seed, noisy_seed, &serial)
                                .unwrap();
                        let alone = (
                            run_ideal_parallel(circuit, shots, ideal_seed, &serial).unwrap(),
                            run_with_noise_parallel(circuit, &noise, shots, noisy_seed, &serial)
                                .unwrap(),
                        );
                        let what = format!("{}'s job {index} on {}", tenant.name, device.name);
                        assert_eq!((&ideal, &noisy), (&alone.0, &alone.1), "{what}");
                        assert_eq!(
                            ideal.hellinger_fidelity(&noisy).to_bits(),
                            alone.0.hellinger_fidelity(&alone.1).to_bits(),
                            "{what}"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 4 * 4 * 6 * 2 * 2);
}

/// The meta server memoizes a fidelity or topology score per device and job
/// *content* (strategy, parameters, circuit), not per job, so a job whose
/// circuit another job already submitted is scored from the memo. That is
/// exact only if nothing else goes into the score: for the flagship's
/// fidelity and topology tenants, on every device of its fleet, a server
/// whose memo other jobs warmed must return each job the score a cold server
/// holding that job alone computes — value and every detail to the bit —
/// and again after a device is recalibrated.
#[test]
fn a_memoized_score_is_the_score_a_cold_server_computes() {
    use std::collections::BTreeSet;

    use qrio_backend::Backend;
    use qrio_circuit::qasm;
    use qrio_loadgen::TenantStrategy;
    use qrio_meta::{FidelityRankingConfig, MetaServer, Score};

    let scenario = Scenario::from_yaml(include_str!("../../../scenarios/cloud.yaml")).unwrap();
    // What the load generator's meta server is configured with.
    let config = FidelityRankingConfig {
        shots: scenario.canary_shots,
        seed: scenario.seed ^ 0xCA11_AB1E,
        shortfall_weight: 100.0,
    };
    let server = |fleet: &[Backend]| {
        let mut server = MetaServer::with_config(config);
        for backend in fleet {
            server.register_backend(backend.clone());
        }
        server
    };
    let bits = |score: &Score| {
        let details: Vec<(String, u64)> = score
            .details
            .iter()
            .map(|(key, value)| (key.clone(), value.to_bits()))
            .collect();
        (score.device.clone(), score.value.to_bits(), details)
    };
    let tenants: Vec<_> = scenario
        .tenants
        .iter()
        .filter(|t| {
            matches!(
                t.strategy,
                TenantStrategy::Fidelity { .. } | TenantStrategy::Topology
            )
        })
        .collect();
    assert_eq!(tenants.len(), 2, "alice (fidelity) and dave (topology)");

    let mut fleet: Vec<Backend> = scenario.fleet.iter().map(|d| d.backend()).collect();
    let mut warm = server(&fleet);
    let mut contents = BTreeSet::new();
    let (mut lookups, mut misses) = (0, 0);
    for round in 0..2 {
        if round == 1 {
            // Recalibrate the first device, as a drift event does.
            let spec = &scenario.fleet[0];
            let drifted = qrio_loadgen::DeviceSpec {
                two_qubit_error: spec.two_qubit_error * 2.0,
                readout_error: spec.readout_error * 2.0,
                ..spec.clone()
            };
            fleet[0] = drifted.backend();
            warm.register_backend(fleet[0].clone());
            // Every content seen so far misses once more, on that device.
            misses += contents.len();
        }
        // Jobs 0 and 32 of alice share a Bernstein-Vazirani secret, and
        // dave's jobs are all one GHZ circuit.
        for tenant in &tenants {
            for index in [0, 1, 2, 31, 32, 450] {
                let job = format!("{}-{index}-{round}", tenant.name);
                let spec = tenant.strategy.strategy_spec();
                let text = qasm::to_qasm(&tenant.circuit_for(index).unwrap());
                warm.upload_job_metadata(&job, &spec, Some(&text)).unwrap();
                let mut cold = server(&fleet);
                cold.upload_job_metadata(&job, &spec, Some(&text)).unwrap();
                if contents.insert((tenant.name.clone(), text)) {
                    misses += fleet.len();
                }
                for backend in &fleet {
                    let device = backend.name();
                    let (memo, fresh) = (warm.score(&job, device), cold.score(&job, device));
                    let what = format!("{job} on {device}");
                    assert_eq!(
                        bits(&memo.expect(&what)),
                        bits(&fresh.expect(&what)),
                        "{what}"
                    );
                    lookups += 1;
                }
            }
        }
    }
    let stats = warm.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        ((lookups - misses) as u64, misses as u64)
    );
    assert_eq!(stats.entries, contents.len() * fleet.len());
    assert!(stats.hits > stats.misses, "{stats:?}");
}
