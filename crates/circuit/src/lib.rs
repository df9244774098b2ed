//! # qrio-circuit
//!
//! Quantum circuit toolkit for the QRIO quantum-cloud orchestrator
//! (reproduction of *Empowering the Quantum Cloud User with QRIO*, IISWC 2024).
//!
//! This crate provides everything QRIO needs to represent and manipulate the
//! quantum programs users submit:
//!
//! * a gate-level circuit IR ([`Circuit`], [`Gate`], [`Instruction`]),
//! * an OpenQASM 2.0 parser and writer ([`qasm`]) — jobs enter QRIO as QASM
//!   files and are shipped to nodes as QASM text,
//! * the benchmark circuit [`library`] used in the paper's evaluation
//!   (Bernstein–Vazirani, Grover, HSP, repetition code, random circuits) and
//!   the *topology circuit* construction used for topology-based scheduling,
//!   and
//! * Clifford-canary construction ([`Circuit::to_clifford`]) for the
//!   fidelity-ranking strategy.
//!
//! # Examples
//!
//! ```
//! use qrio_circuit::{library, qasm};
//!
//! # fn main() -> Result<(), qrio_circuit::CircuitError> {
//! // Build the 10-qubit Bernstein–Vazirani benchmark and ship it as QASM.
//! let bv = library::bernstein_vazirani(10, 0b1101101011)?;
//! let text = qasm::to_qasm(&bv);
//! let parsed = qasm::parse_qasm(&text)?;
//! assert_eq!(parsed.num_qubits(), 10);
//!
//! // Build its Clifford canary for fidelity ranking.
//! let canary = bv.to_clifford();
//! assert!(canary.is_clifford());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod error;
mod gate;
pub mod library;
pub mod qasm;

pub use circuit::{Circuit, Instruction};
pub use error::CircuitError;
pub use gate::{snap_half_pi, snap_pi, Gate, CLIFFORD_ANGLE_TOLERANCE};
