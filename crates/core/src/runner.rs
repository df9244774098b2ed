//! The in-process job runner: the Rust equivalent of the generated Python
//! script that executes inside each job container (§3.3).
//!
//! When a job lands on a node, the runner takes the job's circuit from the
//! `Run` payload the node agent decoded, transpiles it to the node's backend,
//! executes it under the backend's noise model, and reports the histogram,
//! achieved fidelity and a transcript of what it did (the job logs the
//! visualizer later shows).
//!
//! The circuit is the payload's `qasm`, the job's own spec; the image files
//! beside it are rendered from that same spec, so they hold nothing else to
//! fall back on. A job submitted without a circuit fails here.

use qrio_agent::JobRunner;
use qrio_backend::Backend;
use qrio_bytes::fnv1a;
use qrio_circuit::qasm;
use qrio_cluster::ExecutionOutcome;
use qrio_proto::RunPayload;
use qrio_sim::{executor, NoiseModel, ParallelConfig, SEED_STREAM_STRIDE};
use qrio_transpiler::{deflate, transpile};

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
    fn run(&self, run: &RunPayload, backend: &Backend) -> Result<ExecutionOutcome, String> {
        let mut logs = Vec::new();
        // 1. The job's own circuit, from its spec.
        if run.qasm.is_empty() {
            return Err("the job carries no circuit to run".to_string());
        }
        let circuit =
            qasm::parse_qasm(&run.qasm).map_err(|e| format!("cannot parse circuit: {e}"))?;
        let mut circuit = circuit;
        if circuit.measurement_count() == 0 {
            circuit.measure_all().map_err(|e| e.to_string())?;
        }
        logs.push(format!(
            "loaded circuit '{}' with {} qubits, {} two-qubit gates",
            run.job,
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

        // 3. Execute under the backend noise model (deflated to active qubits)
        //    and, from the same preparation, the noise-free reference for the
        //    achieved fidelity, a full seed stride away so it never shares a
        //    shard RNG stream with the noisy run.
        let deflated =
            deflate(&transpiled.circuit, backend).map_err(|e| format!("deflation failed: {e}"))?;
        let noise = NoiseModel::from_backend(&deflated.backend);
        let seed = self.seed ^ fnv1a(&run.job) ^ fnv1a(backend.name());
        let threads = usize::try_from(run.threads).unwrap_or(usize::MAX);
        let parallel = ParallelConfig::with_threads(threads);
        let (ideal, noisy) = executor::run_paired(
            &deflated.circuit,
            &noise,
            run.shots,
            seed.wrapping_add(SEED_STREAM_STRIDE),
            seed,
            &parallel,
        )
        .map_err(|e| format!("execution failed: {e}"))?;
        // 4. Always known: the ideal half can fail only where the noisy half does.
        let fidelity = Some(ideal.hellinger_fidelity(&noisy));
        logs.push(format!(
            "executed {} shots on '{}'",
            run.shots,
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
    use crate::master_server::CIRCUIT_FILE;
    use qrio_backend::topology;
    use qrio_circuit::library;

    /// A 5-qubit Bernstein–Vazirani attempt as the wire carries it: the
    /// circuit in the spec's `qasm` and again in the image.
    fn bv_run(shots: u64) -> RunPayload {
        let bv = library::bernstein_vazirani(5, 0b10110).unwrap();
        let qasm_text = qasm::to_qasm(&bv);
        RunPayload {
            job: "bv-runner".into(),
            attempt: 0,
            image_name: "qrio/bv:test".into(),
            image_files: vec![(CIRCUIT_FILE.into(), qasm_text.clone())],
            qasm: qasm_text,
            num_qubits: 5,
            shots,
            threads: 0,
        }
    }

    #[test]
    fn runner_executes_and_reports_fidelity() {
        let backend = Backend::uniform("clean", topology::line(8), 0.0, 0.0);
        let outcome = SimJobRunner::new(1).run(&bv_run(512), &backend).unwrap();
        assert!(!outcome.counts.is_empty());
        assert!(outcome.fidelity.unwrap() > 0.95);
        assert!(outcome.logs.iter().any(|l| l.contains("transpiled")));
        // The dominant outcome is the BV secret (bit-reversed rendering).
        let top = outcome.counts.iter().max_by_key(|(_, c)| *c).unwrap();
        assert_eq!(top.0, "10110");
    }

    #[test]
    fn noisy_backend_reduces_fidelity() {
        let run = bv_run(256);
        let clean = Backend::uniform("clean", topology::line(8), 0.0, 0.0);
        let noisy = Backend::uniform("noisy", topology::line(8), 0.05, 0.3);
        let runner = SimJobRunner::new(2);
        let f_clean = runner.run(&run, &clean).unwrap().fidelity.unwrap();
        let f_noisy = runner.run(&run, &noisy).unwrap().fidelity.unwrap();
        assert!(f_clean > f_noisy);
    }

    #[test]
    fn missing_or_bad_circuit_is_an_error() {
        let backend = Backend::uniform("dev", topology::line(5), 0.0, 0.0);
        let mut run = bv_run(64);
        // A spec without a circuit is an error, whatever the image holds:
        // the image's circuit is no fallback.
        run.qasm.clear();
        let err = SimJobRunner::new(0).run(&run, &backend).unwrap_err();
        assert!(err.contains("no circuit"), "{err}");
        // A bad one fails to parse.
        run.qasm = "garbage $".into();
        let err = SimJobRunner::new(0).run(&run, &backend).unwrap_err();
        assert!(err.starts_with("cannot parse circuit"), "{err}");
    }

    #[test]
    fn oversized_circuits_fail_cleanly() {
        let tiny = Backend::uniform("tiny", topology::line(2), 0.0, 0.0);
        let err = SimJobRunner::new(0).run(&bv_run(64), &tiny).unwrap_err();
        assert!(err.contains("transpilation failed"));
    }
}
