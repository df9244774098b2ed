//! Circuit lints over the gate-level IR: structural mistakes a job would
//! otherwise only reveal at execution time (or worse, silently).
//!
//! Two stages exist because the same circuit is "right" in different ways at
//! different pipeline points. A *logical* circuit (as the user submitted it)
//! should use every declared qubit and not operate on measured qubits; a
//! *routed* circuit (transpiler output) must additionally respect the target
//! device's coupling map, basis gates and qubit count — the exact property
//! the seed's CCX-on-uncoupled-pairs bug violated.

use qrio_backend::{Backend, BasisGates, CouplingMap};
use qrio_circuit::{Circuit, Gate};
use qrio_sim::executor::forces_replay;
use qrio_transpiler::TranspileResult;

use crate::diag::{Diagnostic, LintCode, Location};

/// Which simulation engine a circuit is destined for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineHint {
    /// The stabilizer engine: only Clifford circuits are representable.
    Stabilizer,
    /// The dense statevector engine: any circuit.
    Statevector,
}

/// A view of the device a routed circuit targets — either borrowed straight
/// from a [`Backend`] or from the routing metadata a [`TranspileResult`]
/// carries, so the uncoupled-pair lint verifies against the *actual* routing
/// target instead of re-deriving one.
#[derive(Debug, Clone, Copy)]
pub struct TargetView<'a> {
    /// Device name, for messages.
    pub device: &'a str,
    /// Physical qubit count.
    pub num_qubits: usize,
    /// The device's qubit-connectivity graph.
    pub coupling_map: &'a CouplingMap,
    /// The device's native gate set.
    pub basis_gates: &'a BasisGates,
}

impl<'a> TargetView<'a> {
    /// View a backend as a routing target.
    pub fn from_backend(backend: &'a Backend) -> Self {
        TargetView {
            device: backend.name(),
            num_qubits: backend.num_qubits(),
            coupling_map: backend.coupling_map(),
            basis_gates: backend.basis_gates(),
        }
    }

    /// View the routing metadata of a transpile result as a target.
    pub fn from_transpile_result(result: &'a TranspileResult) -> Self {
        TargetView {
            device: &result.target.device,
            num_qubits: result.target.num_qubits,
            coupling_map: &result.target.coupling_map,
            basis_gates: &result.target.basis_gates,
        }
    }
}

fn instruction_context(index: usize, gate: &Gate, qubits: &[usize]) -> String {
    let qubit_list = qubits
        .iter()
        .map(|q| format!("q{q}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("instruction {index}: {} {qubit_list}", gate.name())
}

/// Lint a circuit as the user wrote it (pre-layout): dead qubits, operations
/// after terminal measurement, and missing measurements.
pub fn lint_logical_circuit(circuit: &Circuit, name: &str) -> Vec<Diagnostic> {
    let subject = format!("circuit '{name}'");
    let mut diagnostics = Vec::new();

    // QL0005: declared qubits no instruction (barriers aside) ever touches.
    let mut touched = vec![false; circuit.num_qubits()];
    for inst in circuit.instructions() {
        if inst.gate == Gate::Barrier {
            continue;
        }
        for &q in &inst.qubits {
            if let Some(flag) = touched.get_mut(q) {
                *flag = true;
            }
        }
    }
    for (qubit, touched) in touched.iter().enumerate() {
        if !touched {
            diagnostics.push(Diagnostic::new(
                LintCode::DeadQubit,
                Location::subject(&subject),
                format!(
                    "qubit q{qubit} is declared but never used; the dead width \
                     inflates device filtering and scheduling"
                ),
            ));
        }
    }

    // QL0006: gates on a qubit after its measurement, with no reset between.
    let mut measured = vec![false; circuit.num_qubits()];
    for (index, inst) in circuit.instructions().iter().enumerate() {
        match inst.gate {
            Gate::Barrier => continue,
            Gate::Measure => {
                for &q in &inst.qubits {
                    if let Some(flag) = measured.get_mut(q) {
                        *flag = true;
                    }
                }
                continue;
            }
            Gate::Reset => {
                for &q in &inst.qubits {
                    if let Some(flag) = measured.get_mut(q) {
                        *flag = false;
                    }
                }
                continue;
            }
            _ => {}
        }
        for &q in &inst.qubits {
            if measured.get(q).copied().unwrap_or(false) {
                diagnostics.push(Diagnostic::new(
                    LintCode::GateAfterMeasurement,
                    Location::at(
                        &subject,
                        instruction_context(index, &inst.gate, &inst.qubits),
                    ),
                    format!(
                        "q{q} was already measured; operations past a terminal \
                         measurement never affect the recorded outcome"
                    ),
                ));
            }
        }
    }

    // QL0007: nothing is ever measured, so sampling produces no data.
    if circuit.measurement_count() == 0 {
        diagnostics.push(Diagnostic::new(
            LintCode::NoMeasurements,
            Location::subject(&subject),
            "circuit has no measurements; every shot yields an empty record",
        ));
    }

    diagnostics
}

/// Lint a routed circuit against its target device: coupling, basis and
/// width — the invariants the transpiler must have established.
pub fn lint_routed_circuit(
    circuit: &Circuit,
    name: &str,
    target: TargetView<'_>,
) -> Vec<Diagnostic> {
    let subject = format!("circuit '{name}' on device '{}'", target.device);
    let mut diagnostics = Vec::new();

    // QL0003: the circuit does not fit on the device at all.
    if circuit.num_qubits() > target.num_qubits {
        diagnostics.push(Diagnostic::new(
            LintCode::WidthExceedsCapacity,
            Location::subject(&subject),
            format!(
                "circuit uses {} qubits but device '{}' has {}",
                circuit.num_qubits(),
                target.device,
                target.num_qubits
            ),
        ));
    }

    for (index, inst) in circuit.instructions().iter().enumerate() {
        if inst.gate == Gate::Barrier {
            continue;
        }
        // QL0001: two-qubit gates must land on coupled physical pairs.
        if inst.is_two_qubit_gate() {
            let (a, b) = (inst.qubits[0], inst.qubits[1]);
            if !target.coupling_map.has_edge(a, b) {
                diagnostics.push(Diagnostic::new(
                    LintCode::UncoupledTwoQubitGate,
                    Location::at(
                        &subject,
                        instruction_context(index, &inst.gate, &inst.qubits),
                    ),
                    format!(
                        "device '{}' has no coupling between q{a} and q{b}",
                        target.device
                    ),
                ));
            }
        }
        // QL0002: every gate must be expressible on the device.
        if !inst.gate.is_directive() && !target.basis_gates.contains(inst.gate.name()) {
            diagnostics.push(Diagnostic::new(
                LintCode::GateOutsideBasis,
                Location::at(
                    &subject,
                    instruction_context(index, &inst.gate, &inst.qubits),
                ),
                format!(
                    "gate '{}' is not in the basis of device '{}'",
                    inst.gate.name(),
                    target.device
                ),
            ));
        }
    }

    diagnostics
}

/// Lint a transpile result against the routing metadata it carries.
pub fn lint_transpile_result(result: &TranspileResult, name: &str) -> Vec<Diagnostic> {
    lint_routed_circuit(
        &result.circuit,
        name,
        TargetView::from_transpile_result(result),
    )
}

/// Lint a circuit against the engine it is bound for (QL0004): the stabilizer
/// engine only represents Clifford circuits, so a `T` gate bound for it will
/// be rejected (or force a silent statevector fallback) at execution time.
pub fn lint_engine_fit(circuit: &Circuit, name: &str, engine: EngineHint) -> Vec<Diagnostic> {
    if engine != EngineHint::Stabilizer {
        return Vec::new();
    }
    let subject = format!("circuit '{name}'");
    let offenders: Vec<(usize, String)> = circuit
        .instructions()
        .iter()
        .enumerate()
        .filter(|(_, inst)| {
            !matches!(inst.gate, Gate::Measure | Gate::Reset | Gate::Barrier)
                && !inst.gate.is_clifford()
        })
        .map(|(index, inst)| (index, inst.gate.name().to_string()))
        .collect();
    let Some((first_index, first_gate)) = offenders.first().cloned() else {
        return Vec::new();
    };
    vec![Diagnostic::new(
        LintCode::NonCliffordForStabilizer,
        Location::at(&subject, format!("instruction {first_index}: {first_gate}")),
        format!(
            "{} non-Clifford gate(s) (first: '{first_gate}') in a circuit bound \
             for the stabilizer engine; it needs the statevector engine",
            offenders.len()
        ),
    )]
}

/// Lint a Clifford circuit's simulator-path fit (QL0008): a reset anywhere,
/// or an operation on a qubit that was already measured, makes the circuit
/// ineligible for the batched Pauli-frame path, so the executor falls back to
/// per-shot replay — typically an order of magnitude slower. Work on *other*
/// qubits after a measurement is not flagged: the measurement commutes with
/// it and stays terminal. The rule is the simulator's own
/// ([`qrio_sim::executor::forces_replay`], the predicate its executor
/// branches on); this lint reports the instruction it returns. Only the first
/// offending instruction is reported; fixing it may reveal later ones.
pub fn lint_simulation_path(circuit: &Circuit, name: &str) -> Vec<Diagnostic> {
    let Some((index, inst)) = forces_replay(circuit) else {
        return Vec::new();
    };
    let message = if inst.gate == Gate::Reset {
        "reset forces the simulator off the batched Pauli-frame \
         path onto per-shot replay"
            .to_string()
    } else {
        format!(
            "'{}' on a qubit that was already measured makes that \
             measurement mid-circuit, forcing per-shot replay instead of \
             the batched Pauli-frame path",
            inst.gate.name()
        )
    };
    vec![Diagnostic::new(
        LintCode::MidCircuitForcesReplay,
        Location::at(
            format!("circuit '{name}'"),
            instruction_context(index, &inst.gate, &inst.qubits),
        ),
        message,
    )]
}

/// Lint a circuit's width against a whole fleet (QL0003): flags circuits no
/// declared device could ever host, the earliest-possible rejection point.
pub fn lint_width_against_fleet(
    circuit_width: usize,
    fleet: &[Backend],
    subject: &str,
) -> Vec<Diagnostic> {
    let largest = fleet.iter().map(Backend::num_qubits).max().unwrap_or(0);
    if fleet.is_empty() || circuit_width <= largest {
        return Vec::new();
    }
    vec![Diagnostic::new(
        LintCode::WidthExceedsCapacity,
        Location::subject(subject),
        format!(
            "circuit uses {circuit_width} qubits but the largest fleet device \
             has {largest}; no device can ever host this job"
        ),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::topology;
    use qrio_circuit::library;

    fn line_backend(n: usize) -> Backend {
        Backend::uniform("line", topology::line(n), 0.01, 0.02)
    }

    #[test]
    fn uncoupled_cx_is_flagged() {
        let mut circuit = Circuit::new(5, 5);
        circuit.h(0).unwrap();
        circuit.cx(0, 4).unwrap(); // line(5) couples only neighbors
        circuit.measure_all().unwrap();
        let backend = line_backend(5);
        let diags = lint_routed_circuit(&circuit, "bad-cx", TargetView::from_backend(&backend));
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::UncoupledTwoQubitGate));
    }

    #[test]
    fn coupled_circuit_is_clean_of_coupling_lints() {
        let mut circuit = Circuit::new(3, 3);
        circuit.h(0).unwrap();
        circuit.cx(0, 1).unwrap();
        circuit.cx(1, 2).unwrap();
        circuit.measure_all().unwrap();
        let backend = line_backend(3);
        let diags = lint_routed_circuit(&circuit, "ok", TargetView::from_backend(&backend));
        assert!(!diags
            .iter()
            .any(|d| d.code == LintCode::UncoupledTwoQubitGate));
    }

    #[test]
    fn gate_outside_basis_is_flagged() {
        let mut circuit = Circuit::new(2, 2);
        circuit.t(0).unwrap(); // 't' is not in the default uniform basis? it is — use ccx via swap
        circuit.swap(0, 1).unwrap();
        circuit.measure_all().unwrap();
        let backend = line_backend(2);
        let diags = lint_routed_circuit(&circuit, "raw", TargetView::from_backend(&backend));
        // The default basis excludes swap (it must be decomposed), so the
        // lint fires for the swap even though 't' may be representable.
        if !backend.basis_gates().contains("swap") {
            assert!(diags.iter().any(|d| d.code == LintCode::GateOutsideBasis));
        }
    }

    #[test]
    fn width_lints_fire_for_small_devices_and_fleets() {
        let circuit = library::ghz(8).unwrap();
        let backend = line_backend(5);
        let diags = lint_routed_circuit(&circuit, "ghz-8", TargetView::from_backend(&backend));
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::WidthExceedsCapacity));
        let fleet = vec![line_backend(5), line_backend(6)];
        let diags = lint_width_against_fleet(8, &fleet, "job 'ghz-8'");
        assert_eq!(diags.len(), 1);
        assert!(lint_width_against_fleet(6, &fleet, "job").is_empty());
    }

    #[test]
    fn dead_qubits_and_missing_measurements_are_flagged() {
        let mut circuit = Circuit::new(4, 4);
        circuit.h(0).unwrap();
        circuit.cx(0, 1).unwrap();
        let diags = lint_logical_circuit(&circuit, "partial");
        let dead = diags
            .iter()
            .filter(|d| d.code == LintCode::DeadQubit)
            .count();
        assert_eq!(dead, 2, "q2 and q3 are dead");
        assert!(diags.iter().any(|d| d.code == LintCode::NoMeasurements));
    }

    #[test]
    fn gate_after_measurement_is_flagged_and_reset_clears_it() {
        let mut circuit = Circuit::new(2, 2);
        circuit.h(0).unwrap();
        circuit.measure(0, 0).unwrap();
        circuit.x(0).unwrap(); // dead operation
        circuit.measure(1, 1).unwrap();
        let diags = lint_logical_circuit(&circuit, "post-measure");
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::GateAfterMeasurement));

        let mut with_reset = Circuit::new(1, 1);
        with_reset.h(0).unwrap();
        with_reset.measure(0, 0).unwrap();
        with_reset.reset(0).unwrap();
        with_reset.x(0).unwrap();
        let diags = lint_logical_circuit(&with_reset, "reset-reuse");
        assert!(!diags
            .iter()
            .any(|d| d.code == LintCode::GateAfterMeasurement));
    }

    #[test]
    fn mid_circuit_reset_and_measure_force_replay() {
        // A reset anywhere forces replay, even if measurements are terminal.
        let mut with_reset = Circuit::new(2, 2);
        with_reset.h(0).unwrap();
        with_reset.reset(0).unwrap();
        with_reset.measure_all().unwrap();
        let diags = lint_simulation_path(&with_reset, "reset");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::MidCircuitForcesReplay);

        // A gate on a measured qubit makes that measurement mid-circuit.
        let mut mid_measure = Circuit::new(2, 2);
        mid_measure.h(0).unwrap();
        mid_measure.measure(0, 0).unwrap();
        mid_measure.cx(0, 1).unwrap();
        mid_measure.measure(1, 1).unwrap();
        let diags = lint_simulation_path(&mid_measure, "mid-measure");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::MidCircuitForcesReplay);
        assert!(diags[0]
            .message
            .contains("'cx' on a qubit that was already measured"));

        // A gate on another qubit after a measurement does not: this is how
        // every transpiled circuit ends.
        let mut late_work = Circuit::new(2, 2);
        late_work.h(0).unwrap();
        late_work.measure(0, 0).unwrap();
        late_work.x(1).unwrap();
        late_work.measure(1, 1).unwrap();
        assert!(lint_simulation_path(&late_work, "late-work").is_empty());

        // Terminal measurements (even followed by more measurements or
        // barriers) stay on the frame path.
        let mut terminal = Circuit::new(2, 2);
        terminal.h(0).unwrap();
        terminal.cx(0, 1).unwrap();
        terminal.measure(0, 0).unwrap();
        terminal.barrier(&[]).unwrap();
        terminal.measure(1, 1).unwrap();
        assert!(lint_simulation_path(&terminal, "terminal").is_empty());
    }

    #[test]
    fn library_circuits_are_logically_clean() {
        for (name, circuit) in [
            ("bv", library::bernstein_vazirani(5, 0b10110).unwrap()),
            ("ghz", library::ghz(6).unwrap()),
            ("qft", library::qft(4).unwrap()),
        ] {
            let diags = lint_logical_circuit(&circuit, name);
            assert!(diags.is_empty(), "{name}: {diags:?}");
        }
    }

    #[test]
    fn stabilizer_engine_fit() {
        let clifford = library::ghz(4).unwrap();
        assert!(lint_engine_fit(&clifford, "ghz", EngineHint::Stabilizer).is_empty());
        let mut t_circuit = Circuit::new(2, 2);
        t_circuit.h(0).unwrap();
        t_circuit.t(0).unwrap();
        t_circuit.cx(0, 1).unwrap();
        t_circuit.measure_all().unwrap();
        let diags = lint_engine_fit(&t_circuit, "t-job", EngineHint::Stabilizer);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::NonCliffordForStabilizer);
        assert!(lint_engine_fit(&t_circuit, "t-job", EngineHint::Statevector).is_empty());
    }

    #[test]
    fn transpiled_library_circuit_is_lint_clean_via_metadata() {
        let circuit = library::bernstein_vazirani_with_ancilla(4, 0b1010).unwrap();
        let backend = Backend::uniform("grid", topology::grid(2, 3), 0.01, 0.02);
        let result = qrio_transpiler::transpile(&circuit, &backend).unwrap();
        assert!(lint_transpile_result(&result, "bv").is_empty());
    }
}
