//! # qrio-sim
//!
//! Quantum-device simulation for the QRIO quantum-cloud orchestrator
//! (reproduction of *Empowering the Quantum Cloud User with QRIO*, IISWC 2024).
//!
//! QRIO's evaluation runs entirely against simulated devices, and its
//! fidelity-ranking strategy depends on scalable classical simulation of
//! Clifford canary circuits. This crate provides both simulation engines and
//! the noise machinery that turns a backend's calibration data into an
//! executable error model:
//!
//! * [`StateVector`] — dense, exact simulation of arbitrary circuits (the
//!   Oracle baseline of §4.3), limited to a modest qubit count.
//! * [`StabilizerSimulator`] — Aaronson–Gottesman CHP tableau simulation of
//!   Clifford circuits (the Gottesman–Knill path behind Clifford canaries).
//!   Its module also holds the one table that decomposes a Clifford gate and
//!   the one computational-basis collapse; the Pauli-frame planner calls
//!   both rather than mirroring them.
//! * [`NoiseModel`] — per-qubit/per-edge depolarizing Pauli errors plus
//!   readout flips, derived from a [`qrio_backend::Backend`]. One rule says
//!   where a gate can fault and one function draws each site and each
//!   readout flip, for replay and for the Pauli-frame path alike.
//! * [`executor`] — shot execution with automatic engine selection,
//!   Pauli-frame batched shots for Clifford circuits, noisy or ideal
//!   ([`FramePlan`]), the statevector engine's ideal sampling fast path, one
//!   per-shot replay walker over both engines for everything else,
//!   deterministic sharded parallel execution ([`ParallelConfig`]), the
//!   paired ideal + noisy run a fidelity estimate needs, prepared once
//!   ([`run_paired`]), and the [`executor::fidelity_on_backend`] helper that
//!   compares the two halves with Hellinger fidelity. A circuit without measurements is measured as if
//!   `measure_all` had been appended, on every path.
//! * [`Counts`] — outcome histograms and distribution metrics.
//!
//! # Examples
//!
//! ```
//! use qrio_backend::{topology, Backend};
//! use qrio_circuit::library;
//! use qrio_sim::executor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = library::ghz(4)?;
//! let backend = Backend::uniform("demo", topology::line(4), 0.01, 0.05);
//! let fidelity = executor::fidelity_on_backend(&circuit, &backend, 512, 7)?;
//! assert!(fidelity > 0.0 && fidelity <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod counts;
mod error;
pub mod executor;
pub mod frame;
mod noise;
mod stabilizer;
mod statevector;

pub use complex::Complex64;
pub use counts::Counts;
pub use error::SimulatorError;
pub use executor::{
    run_ideal, run_ideal_parallel, run_on_backend, run_on_backend_parallel, run_paired,
    run_with_noise, run_with_noise_parallel, run_with_noise_path, Engine, ExecutionPath,
    ParallelConfig, DEFAULT_SHOTS, SEED_STREAM_STRIDE,
};
pub use frame::FramePlan;
pub use noise::{NoiseModel, PauliError};
pub use stabilizer::StabilizerSimulator;
pub use statevector::{
    fuse_circuit, single_qubit_matrix, u3_matrix, CumulativeDistribution, FusedOp, StateVector,
    MAX_STATEVECTOR_QUBITS,
};
