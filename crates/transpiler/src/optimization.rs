//! Physical-circuit optimization passes (the "Virtual/Physical Circuit
//! Optimization" steps of §2.3): single-qubit gate fusion and CX cancellation.
//!
//! The fidelity ranking transpiles a canary per candidate device per decision,
//! so this runs on the scheduler's hot path: the rounds work over two
//! instruction buffers that swap and build no circuit of their own. Every
//! report and digest sits on the exact gates that come out, angles to the last
//! bit; the `#[cfg(test)]` `reference` module keeps the whole-circuit passes
//! this replaced, and the tests hold the two bit-identical.

use qrio_circuit::{Circuit, Gate, Instruction};
use qrio_sim::{single_qubit_matrix, Complex64};

use crate::error::TranspilerError;
use crate::rebuild;

/// Angles below this magnitude are treated as zero when dropping identities.
const ANGLE_EPSILON: f64 = 1e-9;

/// Run the optimization pipeline: fuse runs of single-qubit gates into a
/// single `u1`/`u3`, cancel adjacent identical CX pairs, and drop identity
/// rotations.
///
/// A round is those three steps in that order. Rounds repeat until one
/// returns what it was given (compared with `==`, so `-0.0 == 0.0`) — and the
/// *later* of the two equal rounds is returned — or until four have run. Four
/// is a cap, not a fixed point: a few circuits (36 of 2400 flagship canary
/// transpiles) still change in a fifth round, so `optimize(optimize(c))` can
/// differ from `optimize(c)`. Every routed-circuit digest sits on the cap; it
/// goes with the next deliberate re-baseline (ROADMAP item 3).
///
/// # Errors
///
/// Returns an error if the optimised instructions cannot be rebuilt into a
/// circuit (cannot occur: no step invents an operand).
pub fn optimize(circuit: &Circuit) -> Result<Circuit, TranspilerError> {
    let optimized = optimize_instructions(circuit.instructions().to_vec(), circuit.num_qubits());
    rebuild(circuit, circuit.num_qubits(), optimized)
}

/// [`optimize`] over a bare instruction list on `num_qubits` qubits: the
/// rounds run over two buffers that swap, so a round allocates no circuit.
pub(crate) fn optimize_instructions(
    mut current: Vec<Instruction>,
    num_qubits: usize,
) -> Vec<Instruction> {
    let mut next = Vec::with_capacity(current.len());
    let mut pending = vec![None; num_qubits.max(1)];
    let mut skip = Vec::new();
    for _ in 0..MAX_ROUNDS {
        fuse_single_qubit_runs(&current, &mut next, &mut pending);
        mark_cancelling_pairs(&next, &mut skip);
        let mut marks = skip.iter();
        next.retain(|inst| {
            let cancelled = marks.next().is_some_and(|&mark| mark);
            !cancelled && !is_identity(&inst.gate)
        });
        let unchanged = next == current;
        std::mem::swap(&mut current, &mut next);
        if unchanged {
            break;
        }
    }
    current
}

/// How many rounds [`optimize`] runs at most.
const MAX_ROUNDS: usize = 4;

type Matrix = [[Complex64; 2]; 2];

/// Fuse maximal runs of single-qubit unitaries on the same qubit into one
/// `u3` gate (or `u1` when the run is diagonal): `input` is rewritten into
/// `out`. `pending` holds the accumulated unitary per qubit; it comes in and
/// goes out all `None`.
fn fuse_single_qubit_runs(
    input: &[Instruction],
    out: &mut Vec<Instruction>,
    pending: &mut [Option<Matrix>],
) {
    fn flush(out: &mut Vec<Instruction>, pending: &mut [Option<Matrix>], q: usize) {
        if let Some(gate) = pending[q].take().and_then(|matrix| matrix_to_gate(&matrix)) {
            out.push(Instruction::new(gate, vec![q]));
        }
    }

    out.clear();
    for inst in input {
        if let Some(matrix) = fusable_matrix(&inst.gate) {
            let q = inst.qubits[0];
            let acc = pending[q].unwrap_or(IDENTITY);
            pending[q] = Some(matmul(&matrix, &acc));
        } else {
            for &q in &inst.qubits {
                flush(out, pending, q);
            }
            out.push(inst.clone());
        }
    }
    for q in 0..pending.len() {
        flush(out, pending, q);
    }
}

/// The matrix of a single-qubit unitary the fuser absorbs, `None` for
/// everything else (directives, wider gates).
fn fusable_matrix(gate: &Gate) -> Option<Matrix> {
    if gate.num_qubits() == 1 && !gate.is_directive() {
        single_qubit_matrix(gate)
    } else {
        None
    }
}

/// Mark immediately-adjacent identical CX gates (and adjacent CZ / SWAP pairs
/// in either operand order) for removal: `skip[i]` says instruction `i` goes.
fn mark_cancelling_pairs(instructions: &[Instruction], skip: &mut Vec<bool>) {
    skip.clear();
    skip.resize(instructions.len(), false);
    for i in 0..instructions.len() {
        let inst = &instructions[i];
        if skip[i] || !matches!(inst.gate, Gate::CX | Gate::CZ | Gate::Swap) {
            continue;
        }
        // The next live instruction touching either qubit: the pair cancels
        // only when nothing in between touched them and that instruction is
        // exactly the inverse gate.
        let partner = (i + 1..instructions.len()).find(|&j| {
            !skip[j]
                && instructions[j]
                    .qubits
                    .iter()
                    .any(|q| inst.qubits.contains(q))
        });
        if let Some(j) = partner {
            let other = &instructions[j];
            let same = other.gate == inst.gate
                && (other.qubits == inst.qubits
                    || (matches!(inst.gate, Gate::CZ | Gate::Swap)
                        && other.qubits.len() == 2
                        && other.qubits[0] == inst.qubits[1]
                        && other.qubits[1] == inst.qubits[0]));
            if same && other.qubits.iter().all(|q| inst.qubits.contains(q)) {
                skip[i] = true;
                skip[j] = true;
            }
        }
    }
}

/// Whether a gate is numerically the identity (a zero-angle rotation).
fn is_identity(gate: &Gate) -> bool {
    match *gate {
        Gate::I => true,
        Gate::RZ(t) | Gate::RX(t) | Gate::RY(t) | Gate::U1(t) | Gate::CP(t) | Gate::CRZ(t) => {
            t.abs() < ANGLE_EPSILON
        }
        Gate::U3(t, p, l) => {
            t.abs() < ANGLE_EPSILON && p.abs() < ANGLE_EPSILON && l.abs() < ANGLE_EPSILON
        }
        _ => false,
    }
}

const IDENTITY: Matrix = [
    [Complex64::ONE, Complex64::ZERO],
    [Complex64::ZERO, Complex64::ONE],
];

/// `a · b` for 2×2 complex matrices.
fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = [[Complex64::ZERO; 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

/// Convert a 2×2 unitary back into a `u1`/`u3` gate (up to global phase), or
/// `None` if it is the identity.
fn matrix_to_gate(matrix: &Matrix) -> Option<Gate> {
    let (theta, phi, lambda) = zyz_angles(matrix);
    if theta.abs() < ANGLE_EPSILON {
        let total = phi + lambda;
        if normalized_angle(total).abs() < ANGLE_EPSILON {
            return None;
        }
        return Some(Gate::U1(normalized_angle(total)));
    }
    Some(Gate::U3(
        theta,
        normalized_angle(phi),
        normalized_angle(lambda),
    ))
}

/// Extract `u3(θ, φ, λ)` angles (up to global phase) from a 2×2 unitary.
fn zyz_angles(matrix: &Matrix) -> (f64, f64, f64) {
    let u00 = matrix[0][0];
    let u01 = matrix[0][1];
    let u10 = matrix[1][0];
    let u11 = matrix[1][1];
    let arg = |z: Complex64| z.im.atan2(z.re);
    let theta = 2.0 * u10.abs().atan2(u00.abs());
    if u00.abs() > 1e-12 {
        let gamma = arg(u00);
        let phi = if u10.abs() > 1e-12 {
            arg(u10) - gamma
        } else {
            0.0
        };
        let lambda = if u11.abs() > 1e-12 {
            arg(u11) - gamma - phi
        } else if u01.abs() > 1e-12 {
            arg(-u01) - gamma
        } else {
            0.0
        };
        (theta, phi, lambda)
    } else {
        // theta == pi: only φ − λ matters; put everything into φ.
        let phi = arg(u10) - arg(-u01);
        (theta, phi, 0.0)
    }
}

/// Map an angle into `(-π, π]`.
fn normalized_angle(theta: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut a = theta % two_pi;
    if a > std::f64::consts::PI {
        a -= two_pi;
    } else if a <= -std::f64::consts::PI {
        a += two_pi;
    }
    a
}

/// The three whole-circuit passes and the loop over them as they were before
/// `optimize` ran over two instruction buffers: each pass rebuilds a named
/// `Circuit` through the range-checking `push`. Kept as the reference the
/// production rounds must reproduce bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    /// The optimised circuit and how many rounds ran.
    pub fn optimize(circuit: &Circuit) -> Result<(Circuit, usize), TranspilerError> {
        let mut current = circuit.clone();
        for round in 1..=MAX_ROUNDS {
            let fused = fuse_single_qubit_runs(&current)?;
            let cancelled = cancel_adjacent_cx(&fused)?;
            let cleaned = drop_identities(&cancelled)?;
            if cleaned == current {
                return Ok((cleaned, round));
            }
            current = cleaned;
        }
        Ok((current, MAX_ROUNDS))
    }

    fn like(circuit: &Circuit) -> Circuit {
        Circuit::with_name(
            circuit.name().to_string(),
            circuit.num_qubits(),
            circuit.num_clbits(),
        )
    }

    pub fn fuse_single_qubit_runs(circuit: &Circuit) -> Result<Circuit, TranspilerError> {
        let mut out = like(circuit);
        let mut pending: Vec<Option<Matrix>> = vec![None; circuit.num_qubits().max(1)];

        let flush = |out: &mut Circuit,
                     pending: &mut Vec<Option<Matrix>>,
                     q: usize|
         -> Result<(), TranspilerError> {
            if let Some(matrix) = pending[q].take() {
                if let Some(gate) = matrix_to_gate(&matrix) {
                    out.append(gate, &[q])?;
                }
            }
            Ok(())
        };

        for inst in circuit.instructions() {
            if let Some(matrix) = fusable_matrix(&inst.gate) {
                let q = inst.qubits[0];
                let acc = pending[q].unwrap_or(IDENTITY);
                pending[q] = Some(matmul(&matrix, &acc));
            } else {
                for &q in &inst.qubits {
                    flush(&mut out, &mut pending, q)?;
                }
                out.push(inst.clone())?;
            }
        }
        for q in 0..circuit.num_qubits() {
            flush(&mut out, &mut pending, q)?;
        }
        Ok(out)
    }

    pub fn cancel_adjacent_cx(circuit: &Circuit) -> Result<Circuit, TranspilerError> {
        let mut out = like(circuit);
        let instructions = circuit.instructions();
        let mut skip = vec![false; instructions.len()];
        for i in 0..instructions.len() {
            if skip[i] {
                continue;
            }
            let inst = &instructions[i];
            if matches!(inst.gate, Gate::CX | Gate::CZ | Gate::Swap) {
                // Look ahead for the next instruction touching either qubit.
                let mut j = i + 1;
                while j < instructions.len() {
                    let other = &instructions[j];
                    if skip[j] {
                        j += 1;
                        continue;
                    }
                    let overlaps = other.qubits.iter().any(|q| inst.qubits.contains(q));
                    if overlaps {
                        let same = other.gate == inst.gate
                            && (other.qubits == inst.qubits
                                || (matches!(inst.gate, Gate::CZ | Gate::Swap)
                                    && other.qubits.len() == 2
                                    && other.qubits[0] == inst.qubits[1]
                                    && other.qubits[1] == inst.qubits[0]));
                        if same && other.qubits.iter().all(|q| inst.qubits.contains(q)) {
                            skip[i] = true;
                            skip[j] = true;
                        }
                        break;
                    }
                    j += 1;
                }
            }
            if !skip[i] {
                out.push(inst.clone())?;
            }
        }
        Ok(out)
    }

    pub fn drop_identities(circuit: &Circuit) -> Result<Circuit, TranspilerError> {
        let mut out = like(circuit);
        for inst in circuit.instructions() {
            if !is_identity(&inst.gate) {
                out.push(inst.clone())?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, bits};
    use crate::pipeline::{transpile, transpile_with_options, TranspileOptions};
    use proptest::prelude::*;
    use qrio_backend::{topology, Backend};
    use qrio_circuit::library;
    use qrio_sim::run_ideal;

    fn assert_equivalent(original: &Circuit, optimized: &Circuit) {
        let a = run_ideal(original, 3000, 23).unwrap();
        let b = run_ideal(optimized, 3000, 23).unwrap();
        let fidelity = a.hellinger_fidelity(&b);
        assert!(
            fidelity > 0.97,
            "optimization changed semantics: fidelity {fidelity}"
        );
    }

    #[test]
    fn fuses_runs_of_single_qubit_gates() {
        let mut circuit = Circuit::new(1, 1);
        circuit.h(0).unwrap();
        circuit.t(0).unwrap();
        circuit.h(0).unwrap();
        circuit.s(0).unwrap();
        circuit.measure(0, 0).unwrap();
        let optimized = optimize(&circuit).unwrap();
        let unitary_count = optimized.len() - optimized.measurement_count();
        assert_eq!(
            unitary_count, 1,
            "expected a single fused gate: {optimized}"
        );
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn adjacent_cx_pairs_cancel() {
        let mut circuit = Circuit::new(2, 2);
        circuit.h(0).unwrap();
        circuit.cx(0, 1).unwrap();
        circuit.cx(0, 1).unwrap();
        circuit.measure_all().unwrap();
        let optimized = optimize(&circuit).unwrap();
        assert_eq!(optimized.two_qubit_gate_count(), 0);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn cx_pairs_with_interposed_gates_do_not_cancel() {
        let mut circuit = Circuit::new(2, 2);
        circuit.cx(0, 1).unwrap();
        circuit.x(1).unwrap();
        circuit.cx(0, 1).unwrap();
        circuit.measure_all().unwrap();
        let optimized = optimize(&circuit).unwrap();
        assert_eq!(optimized.two_qubit_gate_count(), 2);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn reversed_cz_and_swap_cancel() {
        let mut circuit = Circuit::new(2, 2);
        circuit.cz(0, 1).unwrap();
        circuit.cz(1, 0).unwrap();
        circuit.swap(0, 1).unwrap();
        circuit.swap(1, 0).unwrap();
        circuit.h(0).unwrap();
        circuit.measure_all().unwrap();
        let optimized = optimize(&circuit).unwrap();
        assert_eq!(optimized.two_qubit_gate_count(), 0);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn identity_rotations_are_dropped() {
        let mut circuit = Circuit::new(1, 1);
        circuit.rz(0.0, 0).unwrap();
        circuit.append(Gate::I, &[0]).unwrap();
        circuit.u3(0.0, 0.0, 0.0, 0).unwrap();
        circuit.measure(0, 0).unwrap();
        let optimized = optimize(&circuit).unwrap();
        assert_eq!(optimized.len(), 1);
    }

    #[test]
    fn optimizing_random_circuits_preserves_semantics_and_reduces_depth() {
        for seed in [1u64, 2, 3] {
            let circuit = library::random_circuit(4, 6, seed).unwrap();
            let optimized = optimize(&circuit).unwrap();
            assert!(optimized.depth() <= circuit.depth());
            assert_equivalent(&circuit, &optimized);
        }
    }

    #[test]
    fn bv_survives_optimization() {
        let circuit = library::bernstein_vazirani(6, 0b101101).unwrap();
        let optimized = optimize(&circuit).unwrap();
        let counts = run_ideal(&optimized, 512, 1).unwrap();
        assert_eq!(counts.most_frequent(), Some(0b101101));
    }

    #[test]
    fn zyz_reconstruction_matches_original_matrix() {
        for gate in [
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::RX(0.37),
            Gate::RY(1.2),
            Gate::RZ(2.4),
            Gate::U3(0.7, 0.3, -1.1),
        ] {
            let matrix = single_qubit_matrix(&gate).unwrap();
            let rebuilt_gate = matrix_to_gate(&matrix).unwrap_or(Gate::I);
            let rebuilt = single_qubit_matrix(&rebuilt_gate).unwrap();
            // Compare up to global phase: U† V should be proportional to identity.
            let mut udag = [[Complex64::ZERO; 2]; 2];
            for i in 0..2 {
                for j in 0..2 {
                    udag[i][j] = matrix[j][i].conj();
                }
            }
            let product = matmul(&udag, &rebuilt);
            let off_diag = product[0][1].abs() + product[1][0].abs();
            assert!(off_diag < 1e-6, "gate {gate:?}: off-diagonal {off_diag}");
            let phase_diff = (product[0][0] - product[1][1]).abs();
            assert!(
                phase_diff < 1e-6,
                "gate {gate:?}: diagonal mismatch {phase_diff}"
            );
        }
    }

    /// What the optimizer is fed in production: routed and translated.
    fn translated_for(circuit: &Circuit, backend: &Backend) -> Circuit {
        let options = TranspileOptions {
            skip_optimization: true,
            ..TranspileOptions::default()
        };
        transpile_with_options(circuit, backend, options)
            .unwrap()
            .circuit
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The rounds over two swapping buffers return what the three
        /// whole-circuit passes returned, to the last bit of every angle —
        /// on what the optimizer is fed in production (routed and translated)
        /// and on the raw circuit, whose gates are not all basis gates.
        #[test]
        fn optimize_is_bit_identical_to_the_whole_circuit_passes(
            family in 0usize..corpus::FAMILIES,
            qubits in 2usize..=7,
            depth in 1usize..=6,
            seed in 0u64..100_000,
            target in 0usize..corpus::TARGETS,
        ) {
            let circuit = corpus::circuit(family, qubits, depth, seed);
            let translated = translated_for(&circuit, &corpus::targets()[target]);
            for input in [&translated, &circuit] {
                let (expected, _) = reference::optimize(input).unwrap();
                prop_assert_eq!(bits(&optimize(input).unwrap()), bits(&expected));
            }
            // `transpile` moves the same buffer through the same rounds.
            let whole = transpile(&circuit, &corpus::targets()[target]).unwrap();
            let (expected, _) = reference::optimize(&translated).unwrap();
            prop_assert_eq!(bits(&whole.circuit), bits(&expected));
        }
    }

    /// The stop rule compares rounds with `f64` `==`, under which
    /// `-0.0 == 0.0`, and returns the *later* round: a `u3(θ, φ, -0.0)` that a
    /// round reproduces as `u3(θ, φ, 0.0)` ends the loop and comes back with
    /// the sign bit cleared. Returning the earlier buffer "because they are
    /// equal" would move one bit of a routed circuit's QASM text.
    #[test]
    fn a_negative_zero_angle_comes_back_positive_as_before() {
        let mut circuit = Circuit::new(1, 1);
        circuit
            .u3(1.570_796_326_794_896_8, std::f64::consts::PI, -0.0, 0)
            .unwrap();
        circuit.measure(0, 0).unwrap();
        let (expected, rounds) = reference::optimize(&circuit).unwrap();
        assert_eq!(rounds, 1, "the first round already equals its input");
        let optimized = optimize(&circuit).unwrap();
        assert_eq!(optimized, circuit, "equal under ==");
        assert_ne!(bits(&optimized), bits(&circuit), "but not the same bits");
        assert_eq!(bits(&optimized), bits(&expected));
        let Gate::U3(_, _, lambda) = optimized.instructions()[0].gate else {
            panic!("a u3 stays a u3: {optimized}");
        };
        assert_eq!(lambda.to_bits(), 0.0f64.to_bits());
    }

    /// `optimize` stops after four rounds whether or not the fourth changed
    /// anything, so its result need not be a fixed point: on `dogwood` (the
    /// flagship's 12-qubit ring) this canary comes out of `transpile` with 96
    /// instructions and a second `optimize` still finds one to remove. Lifting
    /// the cap moves every routed-circuit digest, so it waits for a deliberate
    /// re-baseline; until then this pins what the code does. GHZ and BV reach
    /// a fixed point well inside the cap.
    #[test]
    fn four_rounds_is_a_cap_not_a_fixed_point() {
        let dogwood = Backend::uniform("dogwood", topology::ring(12), 0.002, 0.025)
            .with_uniform_readout_error(0.03);
        let canary = library::random_clifford_circuit(6, 6, 67).unwrap();
        let translated = translated_for(&canary, &dogwood);
        let (_, rounds) = reference::optimize(&translated).unwrap();
        assert_eq!(rounds, MAX_ROUNDS);
        let once = transpile(&canary, &dogwood).unwrap().circuit;
        assert_eq!(once.len(), 96);
        let twice = optimize(&once).unwrap();
        assert_eq!(twice.len(), 95);

        for stable in [
            library::ghz(6).unwrap(),
            library::bernstein_vazirani(5, 0b10110).unwrap(),
        ] {
            let once = transpile(&stable, &dogwood).unwrap().circuit;
            assert_eq!(bits(&optimize(&once).unwrap()), bits(&once));
        }
    }
}
