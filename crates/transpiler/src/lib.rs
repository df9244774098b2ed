//! # qrio-transpiler
//!
//! Quantum transpilation for the QRIO quantum-cloud orchestrator
//! (reproduction of *Empowering the Quantum Cloud User with QRIO*, IISWC 2024).
//!
//! Every job QRIO schedules is transpiled to its assigned device before
//! execution (§3.3): the generated runner reads the node's backend, adapts the
//! user's QASM circuit to the device's connectivity and native gates, and then
//! runs it. This crate implements that pipeline, mirroring the Qiskit flow the
//! paper describes in §2.3:
//!
//! * [`layout`] — placement of virtual qubits on physical qubits (trivial and
//!   error/connectivity-aware dense strategies),
//! * [`routing`] — SWAP insertion on the restricted topology (shortest-path
//!   and SABRE-style heuristics),
//! * [`translation`] — decomposition into the device basis (`u1,u2,u3,cx` for
//!   the paper's fleet),
//! * [`optimization`] — single-qubit fusion, CX cancellation and identity
//!   removal,
//! * [`transpile`] / [`transpile_with_options`] — the end-to-end pipeline.
//!
//! # Examples
//!
//! ```
//! use qrio_backend::{topology, Backend};
//! use qrio_circuit::library;
//! use qrio_transpiler::transpile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = library::ghz(4)?;
//! let backend = Backend::uniform("demo", topology::line(6), 0.01, 0.05);
//! let result = transpile(&circuit, &backend)?;
//! assert!(result.circuit.two_qubit_gate_count() >= circuit.two_qubit_gate_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qrio_circuit::{Circuit, Instruction};

pub mod deflate;
mod error;
pub mod layout;
pub mod optimization;
pub mod pipeline;
pub mod routing;
pub mod translation;

pub use deflate::{deflate, DeflatedCircuit};
pub use error::TranspilerError;
pub use layout::{select_layout, Layout, LayoutStrategy};
pub use pipeline::{
    transpile, transpile_with_options, RoutingTarget, TranspileOptions, TranspileResult,
};
pub use routing::{route, RoutedCircuit, RoutingStrategy};
pub use translation::{translate_to_basis, unroll_multi_qubit_gates};

/// What a pass hands back: `like`'s name and classical register around the
/// `instructions` it produced for `num_qubits` qubits, operands validated once.
pub(crate) fn rebuild(
    like: &Circuit,
    num_qubits: usize,
    instructions: Vec<Instruction>,
) -> Result<Circuit, TranspilerError> {
    Ok(Circuit::from_instructions(
        like.name(),
        num_qubits,
        like.num_clbits(),
        instructions,
    )?)
}

/// What the bit-exact tests of the passes run over: the circuit families and
/// device shapes behind `routed_circuits_digest_is_pinned`, plus non-Clifford
/// angles, and a comparison that does not let `-0.0` pass for `0.0`.
#[cfg(test)]
pub(crate) mod corpus {
    use qrio_backend::{topology, Backend};
    use qrio_circuit::{library, Circuit};

    /// Circuit families [`circuit`] draws from.
    pub const FAMILIES: usize = 5;
    /// Devices in [`targets`].
    pub const TARGETS: usize = 4;

    /// One circuit of family `family % FAMILIES` on `qubits` (2..=7) qubits.
    pub fn circuit(family: usize, qubits: usize, depth: usize, seed: u64) -> Circuit {
        match family % FAMILIES {
            0 => library::random_circuit(qubits, depth, seed),
            1 => library::random_clifford_circuit(qubits, depth, seed),
            2 => library::qft(qubits),
            3 => library::ghz(qubits),
            _ => library::bernstein_vazirani(qubits, seed % (1 << qubits)),
        }
        .expect("the corpus asks for valid sizes")
    }

    /// Line, ring, grid and heavy-square devices of 8–9 qubits.
    pub fn targets() -> [Backend; TARGETS] {
        [
            Backend::uniform("line", topology::line(8), 0.01, 0.05),
            Backend::uniform("ring", topology::ring(8), 0.01, 0.05),
            Backend::uniform("grid", topology::grid(3, 3), 0.01, 0.05),
            Backend::uniform("heavy", topology::heavy_square(9), 0.01, 0.05),
        ]
    }

    /// Gate name, the bits of every angle, qubit and classical operands.
    type InstructionBits = (&'static str, Vec<u64>, Vec<usize>, Vec<usize>);

    /// Everything `==` on circuits compares — name, widths, gate kinds,
    /// operands — with every angle as its bits.
    pub fn bits(circuit: &Circuit) -> (String, usize, usize, Vec<InstructionBits>) {
        let instructions = circuit
            .instructions()
            .iter()
            .map(|inst| {
                let angles = inst.gate.params().iter().map(|a| a.to_bits()).collect();
                (
                    inst.gate.name(),
                    angles,
                    inst.qubits.clone(),
                    inst.clbits.clone(),
                )
            })
            .collect();
        (
            circuit.name().to_string(),
            circuit.num_qubits(),
            circuit.num_clbits(),
            instructions,
        )
    }
}
