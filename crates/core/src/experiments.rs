//! Experiment harness: reusable implementations of the paper's evaluation
//! scenarios (§4), shared by the `qrio-bench` figure binaries and the
//! integration tests.
//!
//! QRIO's choices in every figure are the service's decisions: each
//! experiment stands up a [`Qrio`] holding the figure's fleet, enqueues the
//! user's job through [`JobRequestBuilder`] and reads the ranking the
//! service would bind from ([`Qrio::rank_ready`]) — the same cycle that
//! schedules every job. The oracle and random schedulers stay outside the
//! service: they are the baselines QRIO is compared to.
//!
//! Each function reproduces one table or figure:
//!
//! * [`fig6_default_topologies`] — average score decrease of the QRIO
//!   scheduler over the random scheduler for the five default topologies.
//! * [`fig7_fidelity`] — achieved fidelity per benchmark circuit for the
//!   Oracle, Clifford (QRIO) and Random schedulers plus the fleet average and
//!   median.
//! * [`fig9_topology_choice`] — the user-drawn tree topology against three
//!   equal-error 10-qubit devices (tree / ring / line).
//! * [`fig10_filtering`] — number of devices the service ranks as the
//!   user's maximum two-qubit error is swept.
//!
//! The 100-device fleet itself (Table 2) comes from
//! [`qrio_backend::fleet::paper_fleet`].

use qrio_backend::{topology, Backend, DefaultTopology};
use qrio_circuit::{library, Circuit};
use qrio_cluster::DeviceRequirements;
use qrio_meta::FidelityRankingConfig;
use qrio_scheduler::{achieved_fidelity, oracle_select, RandomScheduler, SchedulerError};

use crate::error::QrioError;
use crate::orchestrator::Qrio;
use crate::visualizer::{JobRequest, JobRequestBuilder, TopologyDesigner};

/// A service holding `fleet`, scoring fidelity canaries under `ranking`.
fn service(fleet: &[Backend], ranking: FidelityRankingConfig) -> Result<Qrio, QrioError> {
    let mut qrio = Qrio::with_config(ranking, ranking.seed);
    qrio.add_fleet(fleet.iter().cloned())?;
    Ok(qrio)
}

/// Enqueue `request` and return the service's ranking for it, best (lowest
/// score) first: the devices it would bind the job to, before it binds.
fn ranking(qrio: &mut Qrio, request: &JobRequest) -> Result<Vec<(String, f64)>, QrioError> {
    let id = qrio.enqueue(request)?;
    qrio.rank_ready(&id)
}

/// Parameters shared by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Shots per simulation.
    pub shots: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Repetitions of the random baseline (the paper uses 25 for Fig. 6 and
    /// 50 for Fig. 9).
    pub repetitions: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            shots: 256,
            seed: 0x51D0,
            repetitions: 25,
        }
    }
}

// ---------------------------------------------------------------------------
// Fig. 6 — default topologies: QRIO scheduler vs. random scheduler
// ---------------------------------------------------------------------------

/// One row of the Fig. 6 result: a default topology and the average amount by
/// which the random scheduler's score exceeds QRIO's.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Default topology name (grid, line, ring, heavy_square, fully_connected).
    pub topology: String,
    /// Score of the device chosen by the QRIO scheduler (lower is better).
    pub qrio_score: f64,
    /// Mean score of the devices chosen by the random scheduler.
    pub random_mean_score: f64,
    /// `random_mean_score - qrio_score` — the quantity Fig. 6 plots.
    pub average_decrease: f64,
    /// Number of fleet devices that could be scored for this topology.
    pub scored_devices: usize,
}

/// Run the Fig. 6 experiment on `fleet`.
///
/// For every default topology the QRIO scheduler's choice (lowest topology
/// score across the fleet) is compared against `config.repetitions` draws of
/// the random scheduler; the reported value is the average score decrease.
///
/// # Errors
///
/// Returns an error if the service rejects a topology job or can score no
/// device for it.
pub fn fig6_default_topologies(
    fleet: &[Backend],
    config: &ExperimentConfig,
) -> Result<Vec<Fig6Row>, QrioError> {
    let mut qrio = service(fleet, FidelityRankingConfig::default())?;
    let mut rows = Vec::new();
    for default in DefaultTopology::ALL {
        let request = JobRequestBuilder::new()
            .job_name(format!("fig6-{}", default.name()))
            .topology(&TopologyDesigner::from_default(default))
            .build()?;
        let ranked = ranking(&mut qrio, &request)?;
        let qrio_score = ranked[0].1;
        // Random scheduler: uniform over the scoreable devices.
        let scoreable: Vec<&Backend> = fleet
            .iter()
            .filter(|b| ranked.iter().any(|(device, _)| device == b.name()))
            .collect();
        let mut random = RandomScheduler::new(config.seed ^ default.num_qubits() as u64);
        let mut random_total = 0.0;
        for _ in 0..config.repetitions.max(1) {
            let pick = random.pick(&scoreable)?;
            let score = ranked
                .iter()
                .find(|(device, _)| device == pick.name())
                .map(|&(_, score)| score)
                .unwrap_or(qrio_score);
            random_total += score;
        }
        let random_mean_score = random_total / config.repetitions.max(1) as f64;
        rows.push(Fig6Row {
            topology: default.name().to_string(),
            qrio_score,
            random_mean_score,
            average_decrease: random_mean_score - qrio_score,
            scored_devices: ranked.len(),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Fig. 7 — achieved fidelity per benchmark circuit
// ---------------------------------------------------------------------------

/// The benchmark circuits of §4.3, by paper name.
///
/// # Errors
///
/// Never fails for the built-in parameters; the `Result` mirrors the library
/// constructors.
pub fn paper_benchmark_circuits() -> Result<Vec<(String, Circuit)>, QrioError> {
    Ok(vec![
        (
            "Bv".to_string(),
            library::bernstein_vazirani(10, 0b1011001101)?,
        ),
        ("Hsp".to_string(), library::hidden_subgroup(4)?),
        ("Rep".to_string(), library::repetition_code_encoder(5)?),
        ("Grover".to_string(), library::grover(3, 5)?),
        ("Circ".to_string(), library::random_circuit(7, 4, 0x0C1)?),
        (
            "Circ_2".to_string(),
            library::random_circuit_with_cx_count(8, 12, 0x0C2)?,
        ),
    ])
}

/// One row of the Fig. 7 result: the fidelity each scheduling policy achieves
/// for one benchmark circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Circuit name (Bv, Hsp, Rep, Grover, Circ, Circ_2).
    pub circuit: String,
    /// Fidelity on the device picked by the oracle scheduler.
    pub oracle: f64,
    /// Fidelity on the device picked by QRIO's Clifford-canary scheduler.
    pub clifford: f64,
    /// Fidelity on the device picked by the random scheduler.
    pub random: f64,
    /// Mean fidelity across all devices that can run the circuit.
    pub average: f64,
    /// Median fidelity across all devices that can run the circuit.
    pub median: f64,
    /// Device chosen by the Clifford strategy.
    pub clifford_device: String,
    /// Device chosen by the oracle.
    pub oracle_device: String,
}

/// Run the Fig. 7 experiment for one circuit on `fleet`.
///
/// # Errors
///
/// Returns an error when no device can run the circuit.
pub fn fig7_for_circuit(
    name: &str,
    circuit: &Circuit,
    fleet: &[Backend],
    config: &ExperimentConfig,
) -> Result<Fig7Row, QrioError> {
    // Oracle: exact simulation of the original circuit on every device.
    let oracle = oracle_select(circuit, fleet, config.shots, config.seed)?;

    // Clifford (QRIO): the service ranks devices with the canary strategy,
    // then we measure the fidelity the *original* circuit achieves on its
    // choice.
    let mut qrio = service(
        fleet,
        FidelityRankingConfig {
            shots: config.shots,
            seed: config.seed,
            shortfall_weight: 100.0,
        },
    )?;
    let request = JobRequestBuilder::new()
        .with_circuit(circuit)
        .job_name(format!("fig7-{name}"))
        .fidelity_target(1.0)
        .build()?;
    let clifford_device = ranking(&mut qrio, &request)?.swap_remove(0).0;
    let clifford_backend = fleet
        .iter()
        .find(|b| b.name() == clifford_device)
        .expect("ranked device comes from the fleet");
    let clifford = achieved_fidelity(circuit, clifford_backend, config.shots, config.seed)?;

    // Random scheduler: mean fidelity over `repetitions` random draws among
    // the devices that can run the circuit.
    let runnable: Vec<&Backend> = fleet
        .iter()
        .filter(|b| oracle.fidelity_on(b.name()).is_some())
        .collect();
    let mut random = RandomScheduler::new(config.seed ^ 0xF167);
    let mut random_total = 0.0;
    let draws = config.repetitions.max(1);
    for _ in 0..draws {
        let pick = random.pick(&runnable)?;
        random_total += oracle.fidelity_on(pick.name()).unwrap_or(0.0);
    }

    Ok(Fig7Row {
        circuit: name.to_string(),
        oracle: oracle.best_fidelity,
        clifford,
        random: random_total / draws as f64,
        average: oracle.average_fidelity(),
        median: oracle.median_fidelity(),
        clifford_device,
        oracle_device: oracle.best_device,
    })
}

/// Run the Fig. 7 experiment for every benchmark circuit.
///
/// # Errors
///
/// Propagates per-circuit failures.
pub fn fig7_fidelity(
    fleet: &[Backend],
    config: &ExperimentConfig,
) -> Result<Vec<Fig7Row>, QrioError> {
    let mut rows = Vec::new();
    for (name, circuit) in paper_benchmark_circuits()? {
        rows.push(fig7_for_circuit(&name, &circuit, fleet, config)?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Fig. 8/9 — user-drawn topology against tree/ring/line devices
// ---------------------------------------------------------------------------

/// Result of the Fig. 9 use case.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// Names of the three candidate devices.
    pub devices: Vec<String>,
    /// Device selected in each repetition (the paper repeats 50 times).
    pub selections: Vec<String>,
    /// The device expected to win (the tree-shaped one).
    pub expected: String,
}

impl Fig9Result {
    /// Whether every repetition selected the expected (tree) device.
    pub fn always_selected_expected(&self) -> bool {
        !self.selections.is_empty() && self.selections.iter().all(|s| s == &self.expected)
    }
}

/// Build the three 10-qubit candidate devices of Fig. 9 (tree, ring, line)
/// with identical calibration, as the paper equalises everything but topology.
pub fn fig9_devices() -> Vec<Backend> {
    vec![
        Backend::uniform("device-1-tree", topology::binary_tree(10), 0.01, 0.05),
        Backend::uniform("device-2-ring", topology::ring(10), 0.01, 0.05),
        Backend::uniform("device-3-line", topology::line(10), 0.01, 0.05),
    ]
}

/// Run the Fig. 9 experiment: a user-drawn tree-like topology scored against
/// the three candidate devices, repeated `config.repetitions` times.
///
/// # Errors
///
/// Returns an error if the service rejects the topology job or can score no
/// device for it.
pub fn fig9_topology_choice(config: &ExperimentConfig) -> Result<Fig9Result, QrioError> {
    let devices = fig9_devices();
    let mut qrio = service(&devices, FidelityRankingConfig::default())?;
    let mut designer = TopologyDesigner::new(10);
    for (a, b) in topology::binary_tree(10).edges() {
        designer.connect(a, b)?;
    }
    let request = JobRequestBuilder::new()
        .job_name("fig9-user-topology")
        .topology(&designer)
        .build()?;
    let id = qrio.enqueue(&request)?;
    let mut selections = Vec::with_capacity(config.repetitions.max(1));
    for _ in 0..config.repetitions.max(1) {
        selections.push(qrio.rank_ready(&id)?.swap_remove(0).0);
    }
    Ok(Fig9Result {
        devices: devices.iter().map(|b| b.name().to_string()).collect(),
        selections,
        expected: "device-1-tree".to_string(),
    })
}

// ---------------------------------------------------------------------------
// Fig. 10 — filtering sweep
// ---------------------------------------------------------------------------

/// The ten maximum two-qubit error rates the paper sweeps in Fig. 10
/// (0.07 → 0.68).
pub fn paper_fig10_thresholds() -> Vec<f64> {
    vec![
        0.07, 0.147, 0.214, 0.280, 0.347, 0.414, 0.480, 0.547, 0.613, 0.680,
    ]
}

/// Run the Fig. 10 experiment: for each of the paper's ten thresholds, the
/// number of fleet devices the service ranks for a job that bounds the
/// maximum two-qubit error rate by it.
///
/// # Errors
///
/// Returns an error if the service rejects a job or fails it for any reason
/// other than no device passing the bound.
pub fn fig10_filtering(fleet: &[Backend]) -> Result<Vec<(f64, usize)>, QrioError> {
    let mut qrio = service(fleet, FidelityRankingConfig::default())?;
    let mut sweep = Vec::new();
    for (i, threshold) in paper_fig10_thresholds().into_iter().enumerate() {
        let request = JobRequestBuilder::new()
            .job_name(format!("fig10-{i}"))
            .num_qubits(1)
            .requirements(DeviceRequirements {
                max_two_qubit_error: Some(threshold),
                ..DeviceRequirements::default()
            })
            .min_queue()
            .build()?;
        let passing = match ranking(&mut qrio, &request) {
            Ok(ranked) => ranked.len(),
            Err(QrioError::Scheduler(SchedulerError::NoDeviceAfterFiltering { .. })) => 0,
            Err(err) => return Err(err),
        };
        sweep.push((threshold, passing));
    }
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::fleet::{generate_fleet, FleetConfig};

    fn small_fleet() -> Vec<Backend> {
        generate_fleet(&FleetConfig::small(), 3).unwrap()
    }

    fn fast_config() -> ExperimentConfig {
        ExperimentConfig {
            shots: 96,
            seed: 11,
            repetitions: 5,
        }
    }

    #[test]
    fn fig6_qrio_never_loses_to_random() {
        let fleet = small_fleet();
        let rows = fig6_default_topologies(&fleet, &fast_config()).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.average_decrease >= -1e-9,
                "{}: QRIO must beat random on average",
                row.topology
            );
            assert!(row.scored_devices > 0);
        }
    }

    #[test]
    fn fig7_clifford_tracks_oracle_on_a_small_fleet() {
        let fleet = small_fleet();
        let config = fast_config();
        let circuit = library::repetition_code_encoder(5).unwrap();
        let row = fig7_for_circuit("Rep", &circuit, &fleet, &config).unwrap();
        assert!(
            row.oracle >= row.clifford - 0.15,
            "oracle should be at least as good as clifford"
        );
        assert!(
            row.clifford >= row.average - 0.2,
            "clifford should not be much worse than the fleet average"
        );
        assert!((0.0..=1.0).contains(&row.random));
        assert!((0.0..=1.0).contains(&row.median));
    }

    #[test]
    fn fig9_always_picks_the_tree_device() {
        let config = ExperimentConfig {
            repetitions: 10,
            ..fast_config()
        };
        let result = fig9_topology_choice(&config).unwrap();
        assert_eq!(result.selections.len(), 10);
        assert!(
            result.always_selected_expected(),
            "selections: {:?}",
            result.selections
        );
        assert_eq!(result.devices.len(), 3);
    }

    #[test]
    fn fig10_counts_grow_with_threshold() {
        let fleet = small_fleet();
        let sweep = fig10_filtering(&fleet).unwrap();
        assert_eq!(sweep.len(), 10);
        for window in sweep.windows(2) {
            assert!(window[0].1 <= window[1].1);
        }
        assert_eq!(sweep.last().unwrap().1, fleet.len());
    }

    #[test]
    fn benchmark_circuit_list_matches_the_paper() {
        let circuits = paper_benchmark_circuits().unwrap();
        let names: Vec<&str> = circuits.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Bv", "Hsp", "Rep", "Grover", "Circ", "Circ_2"]);
        let by_name: std::collections::BTreeMap<&str, &Circuit> =
            circuits.iter().map(|(n, c)| (n.as_str(), c)).collect();
        assert_eq!(by_name["Bv"].num_qubits(), 10);
        assert_eq!(by_name["Hsp"].num_qubits(), 4);
        assert_eq!(by_name["Rep"].num_qubits(), 5);
        assert_eq!(by_name["Grover"].num_qubits(), 3);
        assert_eq!(by_name["Circ"].num_qubits(), 7);
        assert_eq!(by_name["Circ_2"].num_qubits(), 8);
        assert_eq!(by_name["Circ_2"].two_qubit_gate_count(), 12);
    }
}
