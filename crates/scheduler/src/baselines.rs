//! Baseline schedulers used in the paper's evaluation (§4.2 / §4.3): the
//! random scheduler and the oracle scheduler, plus the achieved-fidelity
//! measurement shared by Fig. 7.

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qrio_backend::Backend;
use qrio_circuit::Circuit;
use qrio_sim::{executor, NoiseModel, ParallelConfig};
use qrio_transpiler::{deflate, transpile};

use crate::error::SchedulerError;

/// The random scheduler baseline: picks a device uniformly at random from the
/// filtered list, ignoring scores entirely (§4.2).
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// A random scheduler seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Pick one device name uniformly at random.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulerError::EmptyFleet`] when `candidates` is empty.
    pub fn pick<'a>(&mut self, candidates: &[&'a Backend]) -> Result<&'a Backend, SchedulerError> {
        if candidates.is_empty() {
            return Err(SchedulerError::EmptyFleet);
        }
        let index = self.rng.gen_range(0..candidates.len());
        Ok(candidates[index])
    }
}

/// Measure the fidelity a circuit actually achieves on a backend: transpile
/// the *original* circuit to the device, deflate to the active qubits, run it
/// noise-free (the recorded "correct output" of the oracle definition) and
/// under the device noise model, and compare with Hellinger fidelity.
///
/// # Errors
///
/// Returns an error if the circuit cannot be transpiled or simulated (e.g. a
/// non-Clifford circuit wider than the statevector limit).
pub fn achieved_fidelity(
    circuit: &Circuit,
    backend: &Backend,
    shots: u64,
    seed: u64,
) -> Result<f64, SchedulerError> {
    let prepared = if circuit.measurement_count() > 0 {
        Cow::Borrowed(circuit)
    } else {
        let mut measured = circuit.clone();
        let _ = measured.measure_all();
        Cow::Owned(measured)
    };
    let transpiled = transpile(&prepared, backend)?;
    let deflated = deflate(&transpiled.circuit, backend)?;
    let noise = NoiseModel::from_backend(&deflated.backend);
    // One preparation, two halves; the noisy half runs a full seed stride
    // away so the two sharded executions never share an RNG stream.
    let (ideal, noisy) = executor::run_paired(
        &deflated.circuit,
        &noise,
        shots,
        seed,
        seed.wrapping_add(qrio_sim::SEED_STREAM_STRIDE),
        &ParallelConfig::default(),
    )?;
    Ok(ideal.hellinger_fidelity(&noisy))
}

/// The per-device outcome of an oracle evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleEntry {
    /// Device name.
    pub device: String,
    /// Fidelity the original circuit achieves on that device.
    pub fidelity: f64,
}

/// The result of running the oracle scheduler over a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleOutcome {
    /// The device with the highest achieved fidelity.
    pub best_device: String,
    /// The fidelity achieved on the best device.
    pub best_fidelity: f64,
    /// Per-device fidelities for every device that could run the circuit.
    pub entries: Vec<OracleEntry>,
}

impl OracleOutcome {
    /// Mean fidelity across the evaluated devices (the "Average" bar of Fig. 7).
    pub fn average_fidelity(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().map(|e| e.fidelity).sum::<f64>() / self.entries.len() as f64
    }

    /// Median fidelity across the evaluated devices (the "Median" bar of Fig. 7).
    pub fn median_fidelity(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let mut fidelities: Vec<f64> = self.entries.iter().map(|e| e.fidelity).collect();
        fidelities.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mid = fidelities.len() / 2;
        if fidelities.len() % 2 == 1 {
            fidelities[mid]
        } else {
            (fidelities[mid - 1] + fidelities[mid]) / 2.0
        }
    }

    /// The fidelity achieved on a specific device, if it was evaluated.
    pub fn fidelity_on(&self, device: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.device == device)
            .map(|e| e.fidelity)
    }
}

/// The oracle scheduler: score every device with the *original* circuit (not
/// the Clifford canary) using exact noise-free simulation as ground truth, and
/// pick the device with the highest fidelity. This requires knowing the
/// correct answer ahead of scheduling, which is why it is an oracle rather
/// than a deployable policy (§4.3).
///
/// # Errors
///
/// Returns an error if no device in `fleet` can run the circuit.
pub fn oracle_select(
    circuit: &Circuit,
    fleet: &[Backend],
    shots: u64,
    seed: u64,
) -> Result<OracleOutcome, SchedulerError> {
    let mut entries = Vec::new();
    for backend in fleet {
        match achieved_fidelity(circuit, backend, shots, seed) {
            Ok(fidelity) => entries.push(OracleEntry {
                device: backend.name().to_string(),
                fidelity,
            }),
            Err(SchedulerError::Transpiler(_)) | Err(SchedulerError::Simulator(_)) => continue,
            Err(other) => return Err(other),
        }
    }
    let best = entries
        .iter()
        .max_by(|a, b| {
            a.fidelity
                .partial_cmp(&b.fidelity)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .cloned()
        .ok_or(SchedulerError::EmptyFleet)?;
    Ok(OracleOutcome {
        best_device: best.device,
        best_fidelity: best.fidelity,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::topology;
    use qrio_circuit::library;

    fn fleet() -> Vec<Backend> {
        vec![
            Backend::uniform("clean", topology::line(10), 0.001, 0.005),
            Backend::uniform("mid", topology::ring(10), 0.02, 0.15),
            Backend::uniform("noisy", topology::line(10), 0.05, 0.4),
        ]
    }

    #[test]
    fn random_scheduler_is_seeded_and_uniformish() {
        let fleet = fleet();
        let refs: Vec<&Backend> = fleet.iter().collect();
        let mut a = RandomScheduler::new(5);
        let mut b = RandomScheduler::new(5);
        for _ in 0..10 {
            assert_eq!(a.pick(&refs).unwrap().name(), b.pick(&refs).unwrap().name());
        }
        // All devices get picked eventually.
        let mut seen = std::collections::BTreeSet::new();
        let mut rs = RandomScheduler::new(1);
        for _ in 0..100 {
            seen.insert(rs.pick(&refs).unwrap().name().to_string());
        }
        assert_eq!(seen.len(), 3);
        let mut empty = RandomScheduler::new(0);
        assert!(empty.pick(&[]).is_err());
    }

    #[test]
    fn achieved_fidelity_orders_devices_by_noise() {
        let circuit = library::bernstein_vazirani(5, 0b10101).unwrap();
        let fleet = fleet();
        let f_clean = achieved_fidelity(&circuit, &fleet[0], 256, 3).unwrap();
        let f_noisy = achieved_fidelity(&circuit, &fleet[2], 256, 3).unwrap();
        assert!(
            f_clean > 0.9,
            "clean device should achieve high fidelity: {f_clean}"
        );
        assert!(f_clean > f_noisy);
    }

    #[test]
    fn oracle_picks_the_cleanest_device() {
        let circuit = library::grover(3, 5).unwrap();
        let fleet = fleet();
        let outcome = oracle_select(&circuit, &fleet, 256, 7).unwrap();
        assert_eq!(outcome.best_device, "clean");
        assert_eq!(outcome.entries.len(), 3);
        assert!(outcome.best_fidelity >= outcome.average_fidelity());
        assert!(outcome.best_fidelity >= outcome.median_fidelity());
        assert!(outcome.fidelity_on("noisy").unwrap() <= outcome.best_fidelity);
        assert_eq!(outcome.fidelity_on("missing"), None);
    }

    #[test]
    fn oracle_skips_devices_that_cannot_run_the_circuit() {
        let circuit = library::ghz(8).unwrap();
        let mut fleet = fleet();
        fleet.push(Backend::uniform("tiny", topology::line(2), 0.0, 0.0));
        let outcome = oracle_select(&circuit, &fleet, 128, 1).unwrap();
        assert!(outcome.entries.iter().all(|e| e.device != "tiny"));
    }

    #[test]
    fn oracle_on_empty_fleet_errors() {
        let circuit = library::ghz(3).unwrap();
        assert!(matches!(
            oracle_select(&circuit, &[], 64, 0),
            Err(SchedulerError::EmptyFleet)
        ));
    }

    #[test]
    fn median_and_average_statistics() {
        let outcome = OracleOutcome {
            best_device: "a".into(),
            best_fidelity: 0.9,
            entries: vec![
                OracleEntry {
                    device: "a".into(),
                    fidelity: 0.9,
                },
                OracleEntry {
                    device: "b".into(),
                    fidelity: 0.5,
                },
                OracleEntry {
                    device: "c".into(),
                    fidelity: 0.1,
                },
                OracleEntry {
                    device: "d".into(),
                    fidelity: 0.3,
                },
            ],
        };
        assert!((outcome.average_fidelity() - 0.45).abs() < 1e-12);
        assert!((outcome.median_fidelity() - 0.4).abs() < 1e-12);
    }
}
