//! Basis translation: rewriting every gate into the device's native gate set
//! (the "Translation to Basis Gates" step of §2.3).
//!
//! The paper's fleet is defined over the IBM-style `{u1, u2, u3, cx}` basis
//! (Table 2); this pass decomposes every supported gate into that basis.

use std::borrow::Cow;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

use qrio_backend::BasisGates;
use qrio_circuit::{Circuit, Gate, Instruction};

use crate::error::TranspilerError;
use crate::rebuild;

/// Translate `circuit` so that every unitary gate is native in `basis`.
///
/// Gates already in the basis pass through untouched; measurements, resets and
/// barriers are always kept.
///
/// # Errors
///
/// Returns [`TranspilerError::TranslationFailed`] if a gate has no known
/// decomposition into the requested basis.
pub fn translate_to_basis(
    circuit: &Circuit,
    basis: &BasisGates,
) -> Result<Circuit, TranspilerError> {
    let translated = translate_instructions(circuit.instructions().to_vec(), basis)?;
    rebuild(circuit, circuit.num_qubits(), translated)
}

/// [`translate_to_basis`] over a bare instruction list: what is already native
/// (and every directive) is moved, not copied.
pub(crate) fn translate_instructions(
    instructions: Vec<Instruction>,
    basis: &BasisGates,
) -> Result<Vec<Instruction>, TranspilerError> {
    let mut out = Vec::with_capacity(instructions.len());
    for inst in instructions {
        if inst.gate.is_directive() || basis.contains(inst.gate.name()) {
            out.push(inst);
        } else {
            decompose(&inst.gate, &inst.qubits, basis, &mut out)?;
        }
    }
    Ok(out)
}

/// Unroll every gate acting on three or more qubits (currently [`Gate::CCX`])
/// into one- and two-qubit gates, leaving everything else untouched.
///
/// This mirrors Qiskit's `Unroll3qOrMore` pass and must run before layout and
/// routing: the router only guarantees adjacency for two-qubit gates, so any
/// wider gate has to be reduced to the two-qubit level first or its
/// decomposition would land on uncoupled pairs.
///
/// # Errors
///
/// Returns an error only if circuit reconstruction fails (qubit out of range),
/// which cannot happen for circuits validated on construction.
pub fn unroll_multi_qubit_gates(circuit: &Circuit) -> Result<Circuit, TranspilerError> {
    Ok(unroll(circuit)?.into_owned())
}

/// [`unroll_multi_qubit_gates`] that lends the circuit back when it holds
/// nothing wider than two qubits (every flagship circuit).
pub(crate) fn unroll(circuit: &Circuit) -> Result<Cow<'_, Circuit>, TranspilerError> {
    let is_wide = |inst: &Instruction| inst.gate == Gate::CCX;
    if !circuit.instructions().iter().any(is_wide) {
        return Ok(Cow::Borrowed(circuit));
    }
    let mut out = Vec::with_capacity(circuit.len());
    for inst in circuit.instructions() {
        if is_wide(inst) {
            out.extend(ccx_unrolled(inst.qubits[0], inst.qubits[1], inst.qubits[2]));
        } else {
            out.push(inst.clone());
        }
    }
    rebuild(circuit, circuit.num_qubits(), out).map(Cow::Owned)
}

fn one(gate: Gate, q: usize) -> Instruction {
    Instruction::new(gate, vec![q])
}

fn two(gate: Gate, a: usize, b: usize) -> Instruction {
    Instruction::new(gate, vec![a, b])
}

/// The standard 6-CX Toffoli decomposition over `{h, t, tdg, cx}` — the single
/// source of truth for CCX, shared by [`unroll_multi_qubit_gates`] and
/// [`translate_to_basis`].
fn ccx_unrolled(a: usize, b: usize, c: usize) -> Vec<Instruction> {
    vec![
        one(Gate::H, c),
        two(Gate::CX, b, c),
        one(Gate::Tdg, c),
        two(Gate::CX, a, c),
        one(Gate::T, c),
        two(Gate::CX, b, c),
        one(Gate::Tdg, c),
        two(Gate::CX, a, c),
        one(Gate::T, b),
        one(Gate::T, c),
        one(Gate::H, c),
        two(Gate::CX, a, b),
        one(Gate::T, a),
        one(Gate::Tdg, b),
        two(Gate::CX, a, b),
    ]
}

/// Decompose a single gate into basis instructions, appended to `out`.
fn decompose(
    gate: &Gate,
    qubits: &[usize],
    basis: &BasisGates,
    out: &mut Vec<Instruction>,
) -> Result<(), TranspilerError> {
    let unsupported = || TranspilerError::TranslationFailed {
        gate: gate.name().to_string(),
    };
    if !basis.contains("cx") || !basis.contains("u3") {
        // The built-in decompositions target the IBM basis of the paper.
        return Err(unsupported());
    }
    let q0 = qubits.first().copied().unwrap_or(0);
    let start = out.len();
    match *gate {
        Gate::I => {}
        Gate::X => out.push(one(Gate::U3(PI, 0.0, PI), q0)),
        Gate::Y => out.push(one(Gate::U3(PI, FRAC_PI_2, FRAC_PI_2), q0)),
        Gate::Z => out.push(one(Gate::U1(PI), q0)),
        Gate::H => out.push(one(Gate::U2(0.0, PI), q0)),
        Gate::S => out.push(one(Gate::U1(FRAC_PI_2), q0)),
        Gate::Sdg => out.push(one(Gate::U1(-FRAC_PI_2), q0)),
        Gate::T => out.push(one(Gate::U1(FRAC_PI_4), q0)),
        Gate::Tdg => out.push(one(Gate::U1(-FRAC_PI_4), q0)),
        Gate::SX => out.push(one(Gate::U3(FRAC_PI_2, -FRAC_PI_2, FRAC_PI_2), q0)),
        Gate::RX(theta) => out.push(one(Gate::U3(theta, -FRAC_PI_2, FRAC_PI_2), q0)),
        Gate::RY(theta) => out.push(one(Gate::U3(theta, 0.0, 0.0), q0)),
        Gate::RZ(theta) => out.push(one(Gate::U1(theta), q0)),
        Gate::U1(theta) => out.push(one(Gate::U1(theta), q0)),
        Gate::U2(phi, lambda) => out.push(one(Gate::U2(phi, lambda), q0)),
        Gate::U3(theta, phi, lambda) => out.push(one(Gate::U3(theta, phi, lambda), q0)),
        Gate::CX => out.push(two(Gate::CX, qubits[0], qubits[1])),
        Gate::CZ => {
            let (c, t) = (qubits[0], qubits[1]);
            out.extend([
                one(Gate::U2(0.0, PI), t),
                two(Gate::CX, c, t),
                one(Gate::U2(0.0, PI), t),
            ]);
        }
        Gate::CY => {
            let (c, t) = (qubits[0], qubits[1]);
            out.extend([
                one(Gate::U1(-FRAC_PI_2), t),
                two(Gate::CX, c, t),
                one(Gate::U1(FRAC_PI_2), t),
            ]);
        }
        Gate::Swap => {
            let (a, b) = (qubits[0], qubits[1]);
            out.extend([
                two(Gate::CX, a, b),
                two(Gate::CX, b, a),
                two(Gate::CX, a, b),
            ]);
        }
        Gate::CP(lambda) => {
            let (c, t) = (qubits[0], qubits[1]);
            out.extend([
                one(Gate::U1(lambda / 2.0), c),
                two(Gate::CX, c, t),
                one(Gate::U1(-lambda / 2.0), t),
                two(Gate::CX, c, t),
                one(Gate::U1(lambda / 2.0), t),
            ]);
        }
        Gate::CRZ(lambda) => {
            let (c, t) = (qubits[0], qubits[1]);
            out.extend([
                one(Gate::U1(lambda / 2.0), t),
                two(Gate::CX, c, t),
                one(Gate::U1(-lambda / 2.0), t),
                two(Gate::CX, c, t),
            ]);
        }
        Gate::CCX => {
            // Delegate to the shared unrolled form, then translate each of its
            // named gates (h/t/tdg) into the basis.
            for inst in ccx_unrolled(qubits[0], qubits[1], qubits[2]) {
                if basis.contains(inst.gate.name()) {
                    out.push(inst);
                } else {
                    decompose(&inst.gate, &inst.qubits, basis, out)?;
                }
            }
        }
        Gate::Measure | Gate::Reset | Gate::Barrier => {}
    }
    // Final sanity check: every emitted gate must be native.
    if out[start..]
        .iter()
        .any(|step| !basis.contains(step.gate.name()))
    {
        return Err(unsupported());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, bits};
    use qrio_circuit::library;
    use qrio_sim::run_ideal;

    /// `unroll_multi_qubit_gates` as it was before it lent the circuit back:
    /// every instruction re-appended to a new circuit.
    fn unroll_by_appending(circuit: &Circuit) -> Result<Circuit, TranspilerError> {
        let mut out = Circuit::with_name(
            circuit.name().to_string(),
            circuit.num_qubits(),
            circuit.num_clbits(),
        );
        for inst in circuit.instructions() {
            match inst.gate {
                Gate::Measure => out.measure(inst.qubits[0], inst.clbits[0])?,
                Gate::Barrier => out.barrier(&inst.qubits)?,
                Gate::CCX => {
                    for step in ccx_unrolled(inst.qubits[0], inst.qubits[1], inst.qubits[2]) {
                        out.append(step.gate, &step.qubits)?;
                    }
                }
                gate => out.append(gate, &inst.qubits)?,
            }
        }
        Ok(out)
    }

    /// `translate_to_basis` as it was before it moved native instructions:
    /// every instruction, native or decomposed, re-appended to a new circuit.
    fn translate_by_appending(
        circuit: &Circuit,
        basis: &BasisGates,
    ) -> Result<Circuit, TranspilerError> {
        let mut out = Circuit::with_name(
            circuit.name().to_string(),
            circuit.num_qubits(),
            circuit.num_clbits(),
        );
        for inst in circuit.instructions() {
            match inst.gate {
                Gate::Measure => out.measure(inst.qubits[0], inst.clbits[0])?,
                Gate::Barrier => out.barrier(&inst.qubits)?,
                Gate::Reset => out.append(Gate::Reset, &inst.qubits)?,
                gate if basis.contains(gate.name()) => out.append(gate, &inst.qubits)?,
                gate => {
                    let mut steps = Vec::new();
                    decompose(&gate, &inst.qubits, basis, &mut steps)?;
                    for step in steps {
                        out.append(step.gate, &step.qubits)?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Toffolis between other gates, a barrier, a reset and controlled phases:
    /// what the library families of the corpus do not contain.
    fn ccx_circuit() -> Circuit {
        let mut circuit = Circuit::new(4, 4);
        circuit.h(0).unwrap();
        circuit.ccx(0, 1, 2).unwrap();
        circuit.barrier(&[]).unwrap();
        circuit.append(Gate::CP(0.9), &[0, 3]).unwrap();
        circuit.ccx(3, 2, 0).unwrap();
        circuit.reset(1).unwrap();
        circuit.append(Gate::CRZ(-1.3), &[1, 2]).unwrap();
        circuit.swap(0, 3).unwrap();
        circuit.measure_all().unwrap();
        circuit
    }

    #[test]
    fn unroll_and_translate_emit_what_re_appending_emitted() {
        let basis = BasisGates::ibm_default();
        let mut circuits = vec![ccx_circuit(), library::grover(3, 5).unwrap()];
        for family in 0..corpus::FAMILIES {
            for (qubits, depth, seed) in [(2, 1, 0), (4, 3, 11), (5, 6, 67), (7, 4, 99)] {
                circuits.push(corpus::circuit(family, qubits, depth, seed));
            }
        }
        for circuit in &circuits {
            let unrolled = unroll_multi_qubit_gates(circuit).unwrap();
            assert_eq!(
                bits(&unrolled),
                bits(&unroll_by_appending(circuit).unwrap())
            );
            for input in [circuit, &unrolled] {
                assert_eq!(
                    bits(&translate_to_basis(input, &basis).unwrap()),
                    bits(&translate_by_appending(input, &basis).unwrap())
                );
            }
        }
    }

    #[test]
    fn unroll_lends_back_a_circuit_without_wide_gates() {
        let narrow = library::ghz(5).unwrap();
        assert!(matches!(unroll(&narrow).unwrap(), Cow::Borrowed(_)));
        assert!(matches!(unroll(&ccx_circuit()).unwrap(), Cow::Owned(_)));
    }

    fn assert_equivalent(original: &Circuit, translated: &Circuit) {
        let a = run_ideal(original, 3000, 17).unwrap();
        let b = run_ideal(translated, 3000, 17).unwrap();
        let fidelity = a.hellinger_fidelity(&b);
        assert!(
            fidelity > 0.97,
            "translation changed semantics: fidelity {fidelity}"
        );
    }

    #[test]
    fn translated_circuits_only_use_basis_gates() {
        let basis = BasisGates::ibm_default();
        let circuit = library::random_circuit(5, 6, 3).unwrap();
        let translated = translate_to_basis(&circuit, &basis).unwrap();
        for inst in translated.instructions() {
            if inst.gate.is_directive() {
                continue;
            }
            assert!(
                basis.contains(inst.gate.name()),
                "non-native gate {:?}",
                inst.gate
            );
        }
    }

    #[test]
    fn named_gates_preserve_semantics() {
        let basis = BasisGates::ibm_default();
        let mut circuit = Circuit::new(3, 3);
        circuit.h(0).unwrap();
        circuit.s(1).unwrap();
        circuit.tdg(2).unwrap();
        circuit.y(1).unwrap();
        circuit.cz(0, 1).unwrap();
        circuit.swap(1, 2).unwrap();
        circuit.cx(0, 2).unwrap();
        circuit.measure_all().unwrap();
        let translated = translate_to_basis(&circuit, &basis).unwrap();
        assert_equivalent(&circuit, &translated);
    }

    #[test]
    fn toffoli_and_controlled_phases_preserve_semantics() {
        let basis = BasisGates::ibm_default();
        let mut circuit = Circuit::new(3, 3);
        circuit.x(0).unwrap();
        circuit.x(1).unwrap();
        circuit.ccx(0, 1, 2).unwrap();
        circuit.append(Gate::CP(0.9), &[0, 2]).unwrap();
        circuit.append(Gate::CRZ(1.3), &[1, 2]).unwrap();
        circuit.measure_all().unwrap();
        let translated = translate_to_basis(&circuit, &basis).unwrap();
        assert_equivalent(&circuit, &translated);
        assert!(translated.count_ops().contains_key("cx"));
        assert!(!translated.count_ops().contains_key("ccx"));
    }

    #[test]
    fn unroll_preserves_toffoli_semantics() {
        let mut circuit = Circuit::new(3, 3);
        circuit.x(0).unwrap();
        circuit.x(1).unwrap();
        circuit.ccx(0, 1, 2).unwrap();
        circuit.ccx(1, 2, 0).unwrap();
        circuit.h(1).unwrap();
        circuit.measure_all().unwrap();
        let unrolled = unroll_multi_qubit_gates(&circuit).unwrap();
        assert!(unrolled
            .instructions()
            .iter()
            .all(|inst| inst.qubits.len() <= 2));
        assert!(!unrolled.count_ops().contains_key("ccx"));
        assert_equivalent(&circuit, &unrolled);
    }

    #[test]
    fn grover_translates_and_runs() {
        let basis = BasisGates::ibm_default();
        let circuit = library::grover(3, 6).unwrap();
        let translated = translate_to_basis(&circuit, &basis).unwrap();
        let counts = run_ideal(&translated, 2048, 5).unwrap();
        assert_eq!(counts.most_frequent(), Some(6));
    }

    #[test]
    fn non_ibm_basis_is_rejected() {
        let basis = BasisGates::new(["rz", "sx", "cz"]);
        let mut circuit = Circuit::new(1, 0);
        circuit.h(0).unwrap();
        assert!(matches!(
            translate_to_basis(&circuit, &basis),
            Err(TranspilerError::TranslationFailed { .. })
        ));
    }

    #[test]
    fn measurements_and_barriers_survive() {
        let basis = BasisGates::ibm_default();
        let mut circuit = Circuit::new(2, 2);
        circuit.h(0).unwrap();
        circuit.barrier(&[]).unwrap();
        circuit.measure_all().unwrap();
        let translated = translate_to_basis(&circuit, &basis).unwrap();
        assert_eq!(translated.measurement_count(), 2);
        assert!(translated.count_ops().contains_key("u2"));
    }
}
