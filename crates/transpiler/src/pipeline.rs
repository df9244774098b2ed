//! The end-to-end transpilation pipeline.
//!
//! Mirrors the Qiskit flow the paper describes (§2.3): placement on physical
//! qubits, routing on the restricted topology, translation to basis gates and
//! physical circuit optimization. The generated runner script in the paper's
//! master server performs exactly this step before executing a job on its
//! assigned node.

use qrio_backend::{Backend, BasisGates, CouplingMap};
use qrio_circuit::Circuit;

use crate::error::TranspilerError;
use crate::layout::{select_layout, Layout, LayoutStrategy};
use crate::optimization::optimize_instructions;
use crate::rebuild;
use crate::routing::{route, RoutingStrategy};
use crate::translation::{translate_instructions, unroll};

/// Options controlling the transpilation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TranspileOptions {
    /// How to pick the initial layout.
    pub layout: LayoutStrategy,
    /// Which router to use.
    pub routing: RoutingStrategy,
    /// Whether to run the optimization passes after translation.
    pub skip_optimization: bool,
}

/// The routing target a circuit was transpiled against: a snapshot of the
/// device constraints (width, coupling map, basis) the pipeline enforced.
///
/// Emitting this alongside the circuit lets downstream consumers — most
/// importantly the `qrio-analyzer` routed-circuit lints — verify the output
/// against the *actual* target instead of re-guessing which device was meant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTarget {
    /// Name of the device the circuit was routed for.
    pub device: String,
    /// Number of physical qubits on the device.
    pub num_qubits: usize,
    /// The coupling map routing enforced adjacency against.
    pub coupling_map: CouplingMap,
    /// The native gate set translation targeted.
    pub basis_gates: BasisGates,
}

impl RoutingTarget {
    /// Snapshot the routing-relevant constraints of a backend.
    pub fn from_backend(backend: &Backend) -> Self {
        RoutingTarget {
            device: backend.name().to_string(),
            num_qubits: backend.num_qubits(),
            coupling_map: backend.coupling_map().clone(),
            basis_gates: backend.basis_gates().clone(),
        }
    }
}

/// The result of transpiling a circuit for a device.
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The executable circuit, expressed over the device's physical qubits in
    /// the device's native basis.
    pub circuit: Circuit,
    /// The initial layout chosen for the circuit.
    pub initial_layout: Layout,
    /// Final virtual→physical mapping after routing.
    pub final_mapping: Vec<usize>,
    /// Number of SWAPs the router inserted (before basis translation).
    pub swaps_inserted: usize,
    /// The device constraints the circuit was routed and translated for.
    pub target: RoutingTarget,
}

impl TranspileResult {
    /// Expected success probability of the transpiled circuit on `backend`,
    /// estimated as the product of per-gate and per-readout success
    /// probabilities — the same analytic estimate Mapomatic-style scoring
    /// uses.
    pub fn estimated_success_probability(&self, backend: &Backend) -> f64 {
        let mut success: f64 = 1.0;
        for inst in self.circuit.instructions() {
            match inst.gate {
                qrio_circuit::Gate::Measure => {
                    success *= 1.0 - backend.qubit(inst.qubits[0]).readout_error;
                }
                qrio_circuit::Gate::Barrier | qrio_circuit::Gate::Reset => {}
                ref gate if gate.is_two_qubit() => {
                    success *=
                        1.0 - backend.two_qubit_error_or_default(inst.qubits[0], inst.qubits[1]);
                }
                _ => {
                    success *= 1.0 - backend.qubit(inst.qubits[0]).single_qubit_error;
                }
            }
        }
        success.clamp(0.0, 1.0)
    }
}

/// Transpile `circuit` for `backend` with default options.
///
/// # Errors
///
/// Returns an error if the circuit does not fit the device, routing fails, or
/// a gate cannot be expressed in the device basis.
pub fn transpile(circuit: &Circuit, backend: &Backend) -> Result<TranspileResult, TranspilerError> {
    transpile_with_options(circuit, backend, TranspileOptions::default())
}

/// Transpile `circuit` for `backend` with explicit options.
///
/// # Errors
///
/// Returns an error if the circuit does not fit the device, routing fails, or
/// a gate cannot be expressed in the device basis.
pub fn transpile_with_options(
    circuit: &Circuit,
    backend: &Backend,
    options: TranspileOptions,
) -> Result<TranspileResult, TranspilerError> {
    // Reduce >2-qubit gates first: the router only guarantees adjacency for
    // two-qubit gates, and layout should see the true interaction graph.
    let unrolled = unroll(circuit)?;
    let initial_layout = select_layout(&unrolled, backend, options.layout)?;
    let routed = route(&unrolled, backend, &initial_layout, options.routing)?;
    // From here on one instruction buffer moves through the passes; it becomes
    // a circuit again once, at the end.
    let mut instructions =
        translate_instructions(routed.circuit.into_instructions(), backend.basis_gates())?;
    if !options.skip_optimization {
        instructions = optimize_instructions(instructions, backend.num_qubits());
    }
    Ok(TranspileResult {
        circuit: rebuild(circuit, backend.num_qubits(), instructions)?,
        initial_layout,
        final_mapping: routed.final_mapping,
        swaps_inserted: routed.swaps_inserted,
        target: RoutingTarget::from_backend(backend),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::{fleet, topology};
    use qrio_circuit::library;
    use qrio_sim::run_ideal;

    #[test]
    fn transpiled_circuits_respect_device_constraints() {
        let circuit = library::random_circuit(6, 5, 2).unwrap();
        let backend = Backend::uniform("ring", topology::ring(10), 0.01, 0.05);
        let result = transpile(&circuit, &backend).unwrap();
        for inst in result.circuit.instructions() {
            if inst.is_two_qubit_gate() {
                assert!(backend
                    .coupling_map()
                    .has_edge(inst.qubits[0], inst.qubits[1]));
            }
            if !inst.gate.is_directive() {
                assert!(backend.basis_gates().contains(inst.gate.name()));
            }
        }
        assert_eq!(result.circuit.num_qubits(), backend.num_qubits());
    }

    #[test]
    fn transpiled_bv_still_finds_the_secret() {
        let secret = 0b10110u64;
        let circuit = library::bernstein_vazirani_with_ancilla(5, secret).unwrap();
        let backend = Backend::uniform("line", topology::line(8), 0.0, 0.0);
        let result = transpile(&circuit, &backend).unwrap();
        let counts = run_ideal(&result.circuit, 1024, 4).unwrap();
        assert_eq!(counts.most_frequent(), Some(secret));
    }

    #[test]
    fn transpiled_ghz_preserves_distribution_on_paper_fleet_device() {
        let circuit = library::ghz(4).unwrap();
        let fleet = fleet::generate_fleet(&fleet::FleetConfig::small(), 3).unwrap();
        let backend = &fleet[0];
        let result = transpile(&circuit, backend).unwrap();
        // Run without noise: the routed+translated circuit must still be GHZ.
        let counts = run_ideal(&result.circuit, 1024, 9).unwrap();
        // Reconstruct the two GHZ outcomes over classical bits 0..4.
        let all_ones = 0b1111u64;
        let p = counts.probability(0) + counts.probability(all_ones);
        assert!(p > 0.99, "GHZ structure lost: {counts}");
    }

    #[test]
    fn options_control_optimization() {
        let circuit = library::random_circuit(4, 4, 7).unwrap();
        let backend = Backend::uniform("grid", topology::grid(2, 3), 0.01, 0.02);
        let optimized = transpile(&circuit, &backend).unwrap();
        let raw = transpile_with_options(
            &circuit,
            &backend,
            TranspileOptions {
                skip_optimization: true,
                ..TranspileOptions::default()
            },
        )
        .unwrap();
        assert!(optimized.circuit.len() <= raw.circuit.len());
    }

    #[test]
    fn success_probability_estimate_is_in_range_and_monotone() {
        let circuit = library::ghz(4).unwrap();
        let good = Backend::uniform("good", topology::line(4), 0.001, 0.005);
        let bad = Backend::uniform("bad", topology::line(4), 0.05, 0.3);
        let good_result = transpile(&circuit, &good).unwrap();
        let bad_result = transpile(&circuit, &bad).unwrap();
        let pg = good_result.estimated_success_probability(&good);
        let pb = bad_result.estimated_success_probability(&bad);
        assert!((0.0..=1.0).contains(&pg));
        assert!((0.0..=1.0).contains(&pb));
        assert!(pg > pb);
    }

    #[test]
    fn result_carries_the_routing_target() {
        let circuit = library::ghz(4).unwrap();
        let backend = Backend::uniform("ring", topology::ring(6), 0.01, 0.05);
        let result = transpile(&circuit, &backend).unwrap();
        assert_eq!(result.target, RoutingTarget::from_backend(&backend));
        assert_eq!(result.target.device, "ring");
        assert_eq!(result.target.num_qubits, 6);
        assert!(result.target.coupling_map.has_edge(0, 1));
        assert!(result.target.basis_gates.contains("cx"));
    }

    #[test]
    fn circuit_larger_than_device_fails() {
        let circuit = library::ghz(12).unwrap();
        let backend = Backend::uniform("small", topology::line(5), 0.0, 0.0);
        assert!(matches!(
            transpile(&circuit, &backend),
            Err(TranspilerError::CircuitTooLarge { .. })
        ));
    }
}
