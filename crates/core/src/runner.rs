//! The in-process job runner: the Rust equivalent of the generated Python
//! script that executes inside each job container (§3.3).
//!
//! When a job lands on a node, the runner reads the circuit from the
//! container image, transpiles it to the node's backend, executes it under the
//! backend's noise model, and reports the histogram, achieved fidelity and a
//! transcript of what it did (the job logs the visualizer later shows).

use qrio_backend::Backend;
use qrio_bytes::fnv1a;
use qrio_circuit::qasm;
use qrio_cluster::{ExecutionOutcome, ImageBundle, JobRunner, JobSpec};
use qrio_sim::{executor, NoiseModel, ParallelConfig, SEED_STREAM_STRIDE};
use qrio_transpiler::{deflate, transpile};

use crate::master_server::CIRCUIT_FILE;

/// Executes jobs by simulating them on the node's backend.
#[derive(Debug, Clone, Copy)]
pub struct SimJobRunner {
    /// Seed mixed into every execution for reproducibility.
    pub seed: u64,
}

impl SimJobRunner {
    /// A runner with the given base seed.
    pub fn new(seed: u64) -> Self {
        SimJobRunner { seed }
    }
}

impl Default for SimJobRunner {
    fn default() -> Self {
        SimJobRunner { seed: 0x51D0 }
    }
}

impl JobRunner for SimJobRunner {
    fn run(
        &self,
        spec: &JobSpec,
        image: &ImageBundle,
        backend: &Backend,
    ) -> Result<ExecutionOutcome, String> {
        let mut logs = Vec::new();
        // 1. Read the circuit from the container image (fall back to the spec
        //    payload, which the master server also includes).
        let qasm_text = image
            .file(CIRCUIT_FILE)
            .map(str::to_string)
            .filter(|text| !text.is_empty())
            .or_else(|| {
                if spec.qasm.is_empty() {
                    None
                } else {
                    Some(spec.qasm.clone())
                }
            })
            .ok_or_else(|| format!("image '{}' contains no circuit", image.name()))?;
        let circuit =
            qasm::parse_qasm(&qasm_text).map_err(|e| format!("cannot parse circuit: {e}"))?;
        let mut circuit = circuit;
        if circuit.measurement_count() == 0 {
            circuit.measure_all().map_err(|e| e.to_string())?;
        }
        logs.push(format!(
            "loaded circuit '{}' with {} qubits, {} two-qubit gates",
            spec.name,
            circuit.num_qubits(),
            circuit.two_qubit_gate_count()
        ));

        // 2. Transpile to the node's backend.
        let transpiled =
            transpile(&circuit, backend).map_err(|e| format!("transpilation failed: {e}"))?;
        logs.push(format!(
            "transpiled to backend '{}': {} swaps inserted, depth {}",
            backend.name(),
            transpiled.swaps_inserted,
            transpiled.circuit.depth()
        ));

        // 3. Execute under the backend noise model (deflated to active qubits).
        let deflated =
            deflate(&transpiled.circuit, backend).map_err(|e| format!("deflation failed: {e}"))?;
        let noise = NoiseModel::from_backend(&deflated.backend);
        let seed = self.seed ^ fnv1a(&spec.name) ^ fnv1a(backend.name());
        let parallel = ParallelConfig::with_threads(spec.threads);
        let noisy = executor::run_with_noise_parallel(
            &deflated.circuit,
            &noise,
            spec.shots,
            seed,
            &parallel,
        )
        .map_err(|e| format!("execution failed: {e}"))?;
        // 4. Noise-free reference for the achieved fidelity, when tractable.
        // Runs a full seed stride away so it never shares a shard RNG stream
        // with the noisy run.
        let fidelity = executor::run_ideal_parallel(
            &deflated.circuit,
            spec.shots,
            seed.wrapping_add(SEED_STREAM_STRIDE),
            &parallel,
        )
        .ok()
        .map(|ideal| ideal.hellinger_fidelity(&noisy));
        logs.push(format!(
            "executed {} shots on '{}'",
            spec.shots,
            backend.name()
        ));
        if let Some(f) = fidelity {
            logs.push(format!(
                "achieved fidelity {f:.4} against the noise-free reference"
            ));
        }

        let counts: Vec<(String, u64)> = noisy
            .iter()
            .map(|(outcome, count)| (noisy.bitstring(outcome), count))
            .collect();
        Ok(ExecutionOutcome {
            counts,
            fidelity,
            logs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::topology;
    use qrio_circuit::library;
    use qrio_cluster::{DeviceRequirements, Resources, StrategySpec};

    fn spec_and_image(shots: u64) -> (JobSpec, ImageBundle) {
        let bv = library::bernstein_vazirani(5, 0b10110).unwrap();
        let qasm_text = qasm::to_qasm(&bv);
        let mut image = ImageBundle::new("qrio/bv:test");
        image.add_file(CIRCUIT_FILE, qasm_text.clone());
        let spec = JobSpec {
            name: "bv-runner".into(),
            image: "qrio/bv:test".into(),
            qasm: qasm_text,
            num_qubits: 5,
            resources: Resources::new(100, 128),
            requirements: DeviceRequirements::none(),
            strategy: StrategySpec::fidelity(0.9),
            priority: 0,
            shots,
            threads: 0,
            retry: None,
            deadline: None,
        };
        (spec, image)
    }

    #[test]
    fn runner_executes_and_reports_fidelity() {
        let (spec, image) = spec_and_image(512);
        let backend = Backend::uniform("clean", topology::line(8), 0.0, 0.0);
        let outcome = SimJobRunner::new(1).run(&spec, &image, &backend).unwrap();
        assert!(!outcome.counts.is_empty());
        assert!(outcome.fidelity.unwrap() > 0.95);
        assert!(outcome.logs.iter().any(|l| l.contains("transpiled")));
        // The dominant outcome is the BV secret (bit-reversed rendering).
        let top = outcome.counts.iter().max_by_key(|(_, c)| *c).unwrap();
        assert_eq!(top.0, "10110");
    }

    #[test]
    fn noisy_backend_reduces_fidelity() {
        let (spec, image) = spec_and_image(256);
        let clean = Backend::uniform("clean", topology::line(8), 0.0, 0.0);
        let noisy = Backend::uniform("noisy", topology::line(8), 0.05, 0.3);
        let runner = SimJobRunner::new(2);
        let f_clean = runner.run(&spec, &image, &clean).unwrap().fidelity.unwrap();
        let f_noisy = runner.run(&spec, &image, &noisy).unwrap().fidelity.unwrap();
        assert!(f_clean > f_noisy);
    }

    #[test]
    fn missing_or_bad_circuit_is_an_error() {
        let (mut spec, _) = spec_and_image(64);
        spec.qasm.clear();
        let empty_image = ImageBundle::new("empty");
        let backend = Backend::uniform("dev", topology::line(5), 0.0, 0.0);
        assert!(SimJobRunner::new(0)
            .run(&spec, &empty_image, &backend)
            .is_err());

        let mut bad_image = ImageBundle::new("bad");
        bad_image.add_file(CIRCUIT_FILE, "garbage $");
        assert!(SimJobRunner::new(0)
            .run(&spec, &bad_image, &backend)
            .is_err());
    }

    #[test]
    fn oversized_circuits_fail_cleanly() {
        let (spec, image) = spec_and_image(64);
        let tiny = Backend::uniform("tiny", topology::line(2), 0.0, 0.0);
        let err = SimJobRunner::new(0).run(&spec, &image, &tiny).unwrap_err();
        assert!(err.contains("transpilation failed"));
    }
}
