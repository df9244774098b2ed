//! The [`Circuit`] type: QRIO's circuit intermediate representation.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::CircuitError;
use crate::gate::Gate;

/// One gate application: a [`Gate`] plus the qubits (and classical bits) it
/// acts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The gate being applied.
    pub gate: Gate,
    /// Qubit operands, in gate order (control(s) first).
    pub qubits: Vec<usize>,
    /// Classical bit operands (only used by measurements).
    pub clbits: Vec<usize>,
}

impl Instruction {
    /// Create a purely-quantum instruction.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        Instruction {
            gate,
            qubits,
            clbits: Vec::new(),
        }
    }

    /// Whether the instruction is a two-qubit unitary gate.
    pub fn is_two_qubit_gate(&self) -> bool {
        self.gate.is_two_qubit() && !self.gate.is_directive()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qubits: Vec<String> = self.qubits.iter().map(|q| format!("q[{q}]")).collect();
        write!(f, "{} {}", self.gate, qubits.join(","))?;
        if !self.clbits.is_empty() {
            let clbits: Vec<String> = self.clbits.iter().map(|c| format!("c[{c}]")).collect();
            write!(f, " -> {}", clbits.join(","))?;
        }
        Ok(())
    }
}

/// A quantum circuit over a single quantum register and a single classical
/// register, mirroring the flat QASM files users submit to QRIO.
///
/// # Examples
///
/// ```
/// use qrio_circuit::Circuit;
///
/// # fn main() -> Result<(), qrio_circuit::CircuitError> {
/// let mut bell = Circuit::new(2, 2);
/// bell.h(0)?;
/// bell.cx(0, 1)?;
/// bell.measure_all()?;
/// assert_eq!(bell.num_qubits(), 2);
/// assert_eq!(bell.two_qubit_gate_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    name: String,
    num_qubits: usize,
    num_clbits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Create an empty circuit with `num_qubits` qubits and `num_clbits`
    /// classical bits.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit {
            name: String::from("circuit"),
            num_qubits,
            num_clbits,
            instructions: Vec::new(),
        }
    }

    /// Create an empty named circuit.
    pub fn with_name(name: impl Into<String>, num_qubits: usize, num_clbits: usize) -> Self {
        Circuit {
            name: name.into(),
            num_qubits,
            num_clbits,
            instructions: Vec::new(),
        }
    }

    /// Build a circuit around an instruction list a pass already produced,
    /// validating every operand once (what [`Circuit::push`] checks per
    /// instruction) instead of re-appending gate by gate.
    ///
    /// # Errors
    ///
    /// Returns an error if any operand is out of range or a qubit is repeated
    /// within one instruction.
    pub fn from_instructions(
        name: impl Into<String>,
        num_qubits: usize,
        num_clbits: usize,
        instructions: Vec<Instruction>,
    ) -> Result<Self, CircuitError> {
        let mut circuit = Circuit::with_name(name, num_qubits, num_clbits);
        for instruction in &instructions {
            circuit.check_qubits(&instruction.qubits)?;
            circuit.check_clbits(&instruction.clbits)?;
        }
        circuit.instructions = instructions;
        Ok(circuit)
    }

    /// Give up the instruction list, in program order — the inverse of
    /// [`Circuit::from_instructions`], for passes that rewrite it in place.
    pub fn into_instructions(self) -> Vec<Instruction> {
        self.instructions
    }

    /// The circuit's name (used as the default job name in QRIO).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The instruction list, in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions (including barriers and measurements).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the circuit contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    fn check_qubits(&self, qubits: &[usize]) -> Result<(), CircuitError> {
        for &q in qubits {
            if q >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        for (i, &a) in qubits.iter().enumerate() {
            for &b in &qubits[i + 1..] {
                if a == b {
                    return Err(CircuitError::DuplicateQubit { qubit: a });
                }
            }
        }
        Ok(())
    }

    fn check_clbits(&self, clbits: &[usize]) -> Result<(), CircuitError> {
        for &c in clbits {
            if c >= self.num_clbits {
                return Err(CircuitError::ClbitOutOfRange {
                    clbit: c,
                    num_clbits: self.num_clbits,
                });
            }
        }
        Ok(())
    }

    /// Append a gate acting on `qubits`.
    ///
    /// # Errors
    ///
    /// Returns an error if a qubit index is out of range, a qubit is repeated,
    /// or the operand count does not match the gate arity.
    pub fn append(&mut self, gate: Gate, qubits: &[usize]) -> Result<(), CircuitError> {
        let arity = gate.num_qubits();
        if arity != 0 && qubits.len() != arity {
            return Err(CircuitError::ArityMismatch {
                gate: gate.name().to_string(),
                expected: arity,
                actual: qubits.len(),
            });
        }
        if gate == Gate::Barrier && qubits.is_empty() {
            return Err(CircuitError::ArityMismatch {
                gate: "barrier".to_string(),
                expected: 1,
                actual: 0,
            });
        }
        self.check_qubits(qubits)?;
        self.instructions
            .push(Instruction::new(gate, qubits.to_vec()));
        Ok(())
    }

    /// Append an already-constructed instruction, validating its operands.
    ///
    /// # Errors
    ///
    /// Returns an error if any operand is out of range.
    pub fn push(&mut self, instruction: Instruction) -> Result<(), CircuitError> {
        self.check_qubits(&instruction.qubits)?;
        self.check_clbits(&instruction.clbits)?;
        self.instructions.push(instruction);
        Ok(())
    }

    // --- Named-gate convenience builders -------------------------------------------------

    /// Apply a Hadamard gate.
    pub fn h(&mut self, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::H, &[q])
    }

    /// Apply a Pauli-X gate.
    pub fn x(&mut self, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::X, &[q])
    }

    /// Apply a Pauli-Y gate.
    pub fn y(&mut self, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::Y, &[q])
    }

    /// Apply a Pauli-Z gate.
    pub fn z(&mut self, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::Z, &[q])
    }

    /// Apply an S gate.
    pub fn s(&mut self, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::S, &[q])
    }

    /// Apply an S-dagger gate.
    pub fn sdg(&mut self, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::Sdg, &[q])
    }

    /// Apply a T gate.
    pub fn t(&mut self, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::T, &[q])
    }

    /// Apply a T-dagger gate.
    pub fn tdg(&mut self, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::Tdg, &[q])
    }

    /// Apply an RX rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::RX(theta), &[q])
    }

    /// Apply an RY rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::RY(theta), &[q])
    }

    /// Apply an RZ rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::RZ(theta), &[q])
    }

    /// Apply a `u1` basis gate.
    pub fn u1(&mut self, lambda: f64, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::U1(lambda), &[q])
    }

    /// Apply a `u2` basis gate.
    pub fn u2(&mut self, phi: f64, lambda: f64, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::U2(phi, lambda), &[q])
    }

    /// Apply a `u3` basis gate.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::U3(theta, phi, lambda), &[q])
    }

    /// Apply a CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> Result<(), CircuitError> {
        self.append(Gate::CX, &[control, target])
    }

    /// Apply a controlled-Z gate.
    pub fn cz(&mut self, control: usize, target: usize) -> Result<(), CircuitError> {
        self.append(Gate::CZ, &[control, target])
    }

    /// Apply a SWAP gate.
    pub fn swap(&mut self, a: usize, b: usize) -> Result<(), CircuitError> {
        self.append(Gate::Swap, &[a, b])
    }

    /// Apply a Toffoli gate.
    pub fn ccx(&mut self, c0: usize, c1: usize, target: usize) -> Result<(), CircuitError> {
        self.append(Gate::CCX, &[c0, c1, target])
    }

    /// Apply a barrier over the given qubits.
    pub fn barrier(&mut self, qubits: &[usize]) -> Result<(), CircuitError> {
        if qubits.is_empty() {
            let all: Vec<usize> = (0..self.num_qubits).collect();
            self.check_qubits(&all)?;
            self.instructions.push(Instruction::new(Gate::Barrier, all));
            return Ok(());
        }
        self.check_qubits(qubits)?;
        self.instructions
            .push(Instruction::new(Gate::Barrier, qubits.to_vec()));
        Ok(())
    }

    /// Measure qubit `q` into classical bit `c`.
    pub fn measure(&mut self, q: usize, c: usize) -> Result<(), CircuitError> {
        self.check_qubits(&[q])?;
        self.check_clbits(&[c])?;
        self.instructions.push(Instruction {
            gate: Gate::Measure,
            qubits: vec![q],
            clbits: vec![c],
        });
        Ok(())
    }

    /// Measure every qubit `i` into classical bit `i`, growing the classical
    /// register if needed.
    pub fn measure_all(&mut self) -> Result<(), CircuitError> {
        if self.num_clbits < self.num_qubits {
            self.num_clbits = self.num_qubits;
        }
        for q in 0..self.num_qubits {
            self.measure(q, q)?;
        }
        Ok(())
    }

    /// Reset a qubit to |0>.
    pub fn reset(&mut self, q: usize) -> Result<(), CircuitError> {
        self.append(Gate::Reset, &[q])
    }

    // --- Analysis ------------------------------------------------------------------------

    /// Gate counts keyed by gate name (barriers excluded).
    pub fn count_ops(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for inst in &self.instructions {
            if inst.gate == Gate::Barrier {
                continue;
            }
            *counts.entry(inst.gate.name().to_string()).or_insert(0) += 1;
        }
        counts
    }

    /// Number of two-qubit unitary gates (the dominant error contributors).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.is_two_qubit_gate())
            .count()
    }

    /// Number of measurement operations.
    pub fn measurement_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate == Gate::Measure)
            .count()
    }

    /// Circuit depth: the length of the longest qubit-dependency chain,
    /// counting unitary gates and measurements but not barriers.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits.max(1)];
        let mut max_depth = 0;
        for inst in &self.instructions {
            if inst.gate == Gate::Barrier {
                // Barriers synchronise their operands without adding depth.
                let m = inst.qubits.iter().map(|&q| level[q]).max().unwrap_or(0);
                for &q in &inst.qubits {
                    level[q] = m;
                }
                continue;
            }
            let m = inst.qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &inst.qubits {
                level[q] = m;
            }
            max_depth = max_depth.max(m);
        }
        max_depth
    }

    /// The set of qubits touched by at least one non-barrier instruction.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_qubits];
        for inst in &self.instructions {
            if inst.gate == Gate::Barrier {
                continue;
            }
            for &q in &inst.qubits {
                used[q] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(q, _)| q)
            .collect()
    }

    /// Undirected interaction graph: one edge per pair of qubits that share a
    /// two-qubit gate, with multiplicities collapsed.
    pub fn interaction_graph(&self) -> Vec<(usize, usize)> {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for inst in &self.instructions {
            if inst.is_two_qubit_gate() {
                let (a, b) = (
                    inst.qubits[0].min(inst.qubits[1]),
                    inst.qubits[0].max(inst.qubits[1]),
                );
                if !edges.contains(&(a, b)) {
                    edges.push((a, b));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    /// Interaction multigraph: edge -> number of two-qubit gates on that pair.
    pub fn interaction_counts(&self) -> BTreeMap<(usize, usize), usize> {
        let mut counts = BTreeMap::new();
        for inst in &self.instructions {
            if inst.is_two_qubit_gate() {
                let key = (
                    inst.qubits[0].min(inst.qubits[1]),
                    inst.qubits[0].max(inst.qubits[1]),
                );
                *counts.entry(key).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Whether every gate in the circuit is a Clifford operation.
    pub fn is_clifford(&self) -> bool {
        self.instructions.iter().all(|i| i.gate.is_clifford())
    }

    /// Build the *Clifford canary* version of this circuit (paper §3.4.1):
    /// every non-Clifford gate is snapped to its nearest Clifford equivalent
    /// while the two-qubit gate structure is preserved exactly.
    pub fn to_clifford(&self) -> Circuit {
        let mut canary = Circuit::with_name(
            format!("{}_clifford_canary", self.name),
            self.num_qubits,
            self.num_clbits,
        );
        for inst in &self.instructions {
            let gate = match inst.gate {
                // Toffoli is not Clifford; retain its entangling structure with
                // a pair of CX gates between control/target pairs.
                Gate::CCX => {
                    canary.instructions.push(Instruction::new(
                        Gate::CX,
                        vec![inst.qubits[0], inst.qubits[2]],
                    ));
                    canary.instructions.push(Instruction::new(
                        Gate::CX,
                        vec![inst.qubits[1], inst.qubits[2]],
                    ));
                    continue;
                }
                g => g.to_clifford(),
            };
            canary.instructions.push(Instruction {
                gate,
                qubits: inst.qubits.clone(),
                clbits: inst.clbits.clone(),
            });
        }
        canary
    }

    /// Remove all measurement and barrier instructions, returning the unitary
    /// part of the circuit.
    pub fn without_measurements(&self) -> Circuit {
        let mut out = self.clone();
        out.instructions
            .retain(|i| i.gate != Gate::Measure && i.gate != Gate::Barrier);
        out
    }

    /// Whether the circuit ends with a measurement on every active qubit.
    pub fn has_measurements(&self) -> bool {
        self.measurement_count() > 0
    }

    /// Append `other` to this circuit (qubit-for-qubit).
    ///
    /// # Errors
    ///
    /// Returns an error if `other` uses more qubits or classical bits than this
    /// circuit provides.
    pub fn compose(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        if other.num_qubits > self.num_qubits {
            return Err(CircuitError::QubitOutOfRange {
                qubit: other.num_qubits - 1,
                num_qubits: self.num_qubits,
            });
        }
        if other.num_clbits > self.num_clbits {
            return Err(CircuitError::ClbitOutOfRange {
                clbit: other.num_clbits.saturating_sub(1),
                num_clbits: self.num_clbits,
            });
        }
        self.instructions.extend(other.instructions.iter().cloned());
        Ok(())
    }

    /// Return a new circuit with qubits relabelled through `mapping`
    /// (`mapping[virtual] = physical`). The output circuit has `new_size`
    /// qubits.
    ///
    /// # Errors
    ///
    /// Returns an error if the mapping is too short or maps outside
    /// `new_size`.
    pub fn remap_qubits(
        &self,
        mapping: &[usize],
        new_size: usize,
    ) -> Result<Circuit, CircuitError> {
        if mapping.len() < self.num_qubits {
            return Err(CircuitError::InvalidParameter(format!(
                "mapping of length {} cannot relabel {} qubits",
                mapping.len(),
                self.num_qubits
            )));
        }
        let mut out = Circuit::with_name(self.name.clone(), new_size, self.num_clbits);
        for inst in &self.instructions {
            let qubits: Vec<usize> = inst.qubits.iter().map(|&q| mapping[q]).collect();
            for &q in &qubits {
                if q >= new_size {
                    return Err(CircuitError::QubitOutOfRange {
                        qubit: q,
                        num_qubits: new_size,
                    });
                }
            }
            out.instructions.push(Instruction {
                gate: inst.gate,
                qubits,
                clbits: inst.clbits.clone(),
            });
        }
        Ok(out)
    }

    /// The inverse circuit (measurements and barriers are dropped).
    pub fn inverse(&self) -> Circuit {
        let mut out = Circuit::with_name(
            format!("{}_dg", self.name),
            self.num_qubits,
            self.num_clbits,
        );
        for inst in self.instructions.iter().rev() {
            if inst.gate.is_directive() {
                continue;
            }
            out.instructions
                .push(Instruction::new(inst.gate.inverse(), inst.qubits.clone()));
        }
        out
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Circuit '{}' ({} qubits, {} clbits, depth {})",
            self.name,
            self.num_qubits,
            self.num_clbits,
            self.depth()
        )?;
        for inst in &self.instructions {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(0).unwrap();
        c.cx(0, 1).unwrap();
        c.measure_all().unwrap();
        c
    }

    #[test]
    fn build_and_count() {
        let c = bell();
        assert_eq!(c.len(), 4);
        assert_eq!(c.two_qubit_gate_count(), 1);
        assert_eq!(c.measurement_count(), 2);
        assert_eq!(c.count_ops().get("h"), Some(&1));
        assert_eq!(c.count_ops().get("cx"), Some(&1));
    }

    #[test]
    fn depth_computation() {
        let mut c = Circuit::new(3, 0);
        c.h(0).unwrap();
        c.h(1).unwrap();
        c.cx(0, 1).unwrap();
        c.cx(1, 2).unwrap();
        assert_eq!(c.depth(), 3);
        let empty = Circuit::new(2, 0);
        assert_eq!(empty.depth(), 0);
    }

    #[test]
    fn barrier_synchronises_but_adds_no_depth() {
        // The barrier itself contributes no layer...
        let mut c = Circuit::new(2, 0);
        c.h(0).unwrap();
        c.barrier(&[]).unwrap();
        c.h(0).unwrap();
        assert_eq!(c.depth(), 2);
        // ...but it does synchronise qubits across it.
        let mut c = Circuit::new(2, 0);
        c.h(0).unwrap();
        c.barrier(&[]).unwrap();
        c.h(1).unwrap();
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut c = Circuit::new(2, 1);
        assert!(c.h(2).is_err());
        assert!(c.cx(0, 5).is_err());
        assert!(c.measure(0, 3).is_err());
        assert!(c.cx(1, 1).is_err());
    }

    #[test]
    fn from_instructions_round_trips_and_validates() {
        let c = bell();
        let rebuilt =
            Circuit::from_instructions(c.name(), 2, 2, c.clone().into_instructions()).unwrap();
        assert_eq!(rebuilt, c);
        let gate = |qubits: Vec<usize>| vec![Instruction::new(Gate::CX, qubits)];
        assert!(matches!(
            Circuit::from_instructions("c", 2, 0, gate(vec![0, 2])),
            Err(CircuitError::QubitOutOfRange { qubit: 2, .. })
        ));
        assert!(matches!(
            Circuit::from_instructions("c", 2, 0, gate(vec![1, 1])),
            Err(CircuitError::DuplicateQubit { qubit: 1 })
        ));
        // The measurements of `bell` write classical bits 0 and 1.
        assert!(matches!(
            Circuit::from_instructions("c", 2, 1, c.into_instructions()),
            Err(CircuitError::ClbitOutOfRange { clbit: 1, .. })
        ));
    }

    #[test]
    fn arity_is_checked() {
        let mut c = Circuit::new(3, 0);
        assert!(c.append(Gate::CX, &[0]).is_err());
        assert!(c.append(Gate::H, &[0, 1]).is_err());
    }

    #[test]
    fn interaction_graph_dedups() {
        let mut c = Circuit::new(3, 0);
        c.cx(0, 1).unwrap();
        c.cx(1, 0).unwrap();
        c.cx(1, 2).unwrap();
        assert_eq!(c.interaction_graph(), vec![(0, 1), (1, 2)]);
        assert_eq!(c.interaction_counts()[&(0, 1)], 2);
    }

    #[test]
    fn clifford_canary_preserves_structure() {
        let mut c = Circuit::new(2, 2);
        c.h(0).unwrap();
        c.t(0).unwrap();
        c.rz(0.3, 1).unwrap();
        c.cx(0, 1).unwrap();
        c.measure_all().unwrap();
        assert!(!c.is_clifford());
        let canary = c.to_clifford();
        assert!(canary.is_clifford());
        assert_eq!(canary.two_qubit_gate_count(), c.two_qubit_gate_count());
        assert_eq!(canary.measurement_count(), c.measurement_count());
    }

    #[test]
    fn ccx_canary_keeps_entanglement() {
        let mut c = Circuit::new(3, 0);
        c.ccx(0, 1, 2).unwrap();
        let canary = c.to_clifford();
        assert!(canary.is_clifford());
        assert_eq!(canary.two_qubit_gate_count(), 2);
    }

    #[test]
    fn remap_qubits_relabels() {
        let mut c = Circuit::new(2, 2);
        c.h(0).unwrap();
        c.cx(0, 1).unwrap();
        let mapped = c.remap_qubits(&[3, 1], 4).unwrap();
        assert_eq!(mapped.num_qubits(), 4);
        assert_eq!(mapped.instructions()[1].qubits, vec![3, 1]);
        assert!(c.remap_qubits(&[0], 4).is_err());
        assert!(c.remap_qubits(&[5, 1], 4).is_err());
    }

    #[test]
    fn compose_appends() {
        let mut a = Circuit::new(2, 2);
        a.h(0).unwrap();
        let b = bell();
        a.compose(&b).unwrap();
        assert_eq!(a.len(), 1 + b.len());
        let small = Circuit::new(1, 0);
        let mut tiny = small.clone();
        assert!(tiny.compose(&b).is_err());
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(1, 0);
        c.s(0).unwrap();
        c.t(0).unwrap();
        let inv = c.inverse();
        assert_eq!(inv.instructions()[0].gate, Gate::Tdg);
        assert_eq!(inv.instructions()[1].gate, Gate::Sdg);
    }

    #[test]
    fn active_qubits_ignores_idle() {
        let mut c = Circuit::new(5, 0);
        c.h(1).unwrap();
        c.cx(1, 3).unwrap();
        assert_eq!(c.active_qubits(), vec![1, 3]);
    }

    #[test]
    fn measure_all_grows_clbits() {
        let mut c = Circuit::new(3, 0);
        c.h(0).unwrap();
        c.measure_all().unwrap();
        assert_eq!(c.num_clbits(), 3);
        assert_eq!(c.measurement_count(), 3);
    }

    #[test]
    fn without_measurements_strips() {
        let c = bell();
        let u = c.without_measurements();
        assert_eq!(u.measurement_count(), 0);
        assert_eq!(u.len(), 2);
        assert!(c.has_measurements());
        assert!(!u.has_measurements());
    }
}
