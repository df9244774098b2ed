//! The circuits the system actually simulates are transpiled: routed onto a
//! device, fused, and (for a canary) deflated to the active qubits. They end
//! with the optimizer's fused `u3` on an idle qubit *after* the measurement
//! block, a shape no hand-built test circuit has. These tests hold the
//! one-pass paths to per-shot replay on that shape, and pin which of the two
//! eligibility rules each engine follows.

use qrio_backend::{topology, Backend, CouplingMap};
use qrio_circuit::{library, Circuit, Gate};
use qrio_sim::executor::{forces_replay, select_engine, Engine};
use qrio_sim::{run_ideal, run_with_noise_path, ExecutionPath, NoiseModel, ParallelConfig};
use qrio_transpiler::{deflate, transpile};

/// One device per topology family of `scenarios/cloud.yaml`.
fn fleet() -> Vec<Backend> {
    let device = |name: &str, map: CouplingMap| Backend::uniform(name, map, 0.004, 0.03);
    vec![
        device("grid", topology::grid(3, 4)),
        device("tree", topology::binary_tree(15)),
        device("line", topology::line(12)),
        device("ring", topology::ring(12)),
        device("star", topology::star(10)),
    ]
}

/// Whether a gate follows a measurement in program order — the shape under
/// test, and what the dense engine's rule (but not the stabilizer's) rejects.
fn has_work_after_a_measurement(circuit: &Circuit) -> bool {
    let instructions = circuit.instructions();
    let first = instructions.iter().position(|i| i.gate == Gate::Measure);
    first.is_some_and(|first| instructions[first..].iter().any(|i| !i.gate.is_directive()))
}

#[test]
fn transpiled_and_deflated_circuits_take_the_one_pass_paths_and_match_replay() {
    let mut logical = Vec::new();
    for seed in 0..6 {
        logical.push(library::random_clifford_circuit(6, 6, seed).unwrap());
        logical.push(library::random_clifford_circuit(8, 3, 100 + seed).unwrap());
    }
    for secret in 1..32 {
        logical.push(library::bernstein_vazirani(5, secret).unwrap());
    }
    let serial = ParallelConfig::serial();
    let (mut compared, mut with_late_work) = (0, 0);
    for backend in fleet() {
        for circuit in &logical {
            // The canary's route through `canary_fidelity_on_backend`: snap,
            // transpile, snap again; run as transpiled and as deflated.
            let physical = transpile(&circuit.to_clifford(), &backend)
                .unwrap()
                .circuit
                .to_clifford();
            let deflated = deflate(&physical, &backend).unwrap();
            for (circuit, device) in [
                (&physical, &backend),
                (&deflated.circuit, &deflated.backend),
            ] {
                assert_eq!(forces_replay(circuit), None, "{}", circuit.name());
                with_late_work += usize::from(has_work_after_a_measurement(circuit));
                let ideal = NoiseModel::ideal(circuit.num_qubits());
                for noise in [NoiseModel::from_backend(device), ideal] {
                    for shots in [1, 33, 130] {
                        let seed = 7 + compared;
                        let run =
                            |path| run_with_noise_path(circuit, &noise, shots, seed, &serial, path);
                        assert_eq!(
                            run(ExecutionPath::Auto).unwrap(),
                            run(ExecutionPath::Replay).unwrap(),
                            "{} on {}, {shots} shots, ideal {}",
                            circuit.name(),
                            device.name(),
                            noise.is_ideal()
                        );
                        compared += 1;
                    }
                }
            }
        }
    }
    assert_eq!(compared, 5 * 43 * 2 * 2 * 3);
    // The shape is the common one, not a corner of the corpus.
    assert!(with_late_work * 2 > 5 * 43 * 2, "{with_late_work}");
}

/// `transpile(qft(3), line(5))`: non-Clifford, with a fused `u3` on another
/// qubit after the first measurement.
fn routed_qft() -> Circuit {
    let backend = Backend::uniform("line", topology::line(5), 0.004, 0.03);
    transpile(&library::qft(3).unwrap(), &backend)
        .unwrap()
        .circuit
}

#[test]
fn dense_fast_path_rule_is_frozen() {
    // The statevector engine's ideal fast path draws one number a shot where
    // replay draws one per measured qubit, so *which* circuits take it is in
    // every committed histogram. This circuit is terminal by the stabilizer
    // engine's per-qubit rule and not by the dense engine's program-order
    // rule; the constant is the histogram of the commit before the
    // stabilizer rule was relaxed. If it moves, `fig7_fidelity` and the
    // `bench_recovery` journal move with it.
    let circuit = routed_qft();
    assert_eq!(select_engine(&circuit).unwrap(), Engine::Statevector);
    assert!(has_work_after_a_measurement(&circuit));
    assert_eq!(forces_replay(&circuit), None);
    let counts = run_ideal(&circuit, 256, 11).unwrap();
    let text: String = counts.iter().map(|(o, c)| format!("{o}:{c};")).collect();
    assert_eq!(qrio_bytes::fnv1a(&text), ROUTED_QFT_DIGEST);
}

const ROUTED_QFT_DIGEST: u64 = 0x1e75_035b_76f5_6158;

#[test]
fn the_same_circuits_clifford_canary_is_terminal_for_the_stabilizer_engine() {
    let backend = Backend::uniform("line", topology::line(5), 0.004, 0.03);
    let canary = transpile(&library::qft(3).unwrap().to_clifford(), &backend)
        .unwrap()
        .circuit
        .to_clifford();
    assert_eq!(select_engine(&canary).unwrap(), Engine::Stabilizer);
    assert!(has_work_after_a_measurement(&canary));
    assert_eq!(forces_replay(&canary), None);
}
