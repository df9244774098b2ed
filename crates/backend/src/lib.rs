//! # qrio-backend
//!
//! Quantum device modelling for the QRIO quantum-cloud orchestrator
//! (reproduction of *Empowering the Quantum Cloud User with QRIO*, IISWC 2024).
//!
//! A QRIO cluster node is a quantum device plus classical capacity. This crate
//! models that device exactly as the paper requires vendors to describe it
//! (§3.1): a coupling map, per-qubit T1/T2/readout calibration, per-edge
//! two-qubit gate errors and a basis gate set.
//!
//! * [`CouplingMap`] — the qubit-connectivity graph with BFS distances and
//!   path queries used by the transpiler and Mapomatic-style scoring.
//! * [`topology`] — standard shapes (line, ring, grid, heavy-square, tree,
//!   fully-connected) and the bounded-degree random generator behind the
//!   evaluation fleet.
//! * [`Backend`], [`QubitProperties`], [`TwoQubitGateProperties`],
//!   [`BasisGates`] — the device description itself.
//! * [`spec`] — the plain-text `backend.spec` vendor file format (the Rust
//!   equivalent of the paper's `backend.py`).
//! * [`reader`] — the one reader of lines, fields and typed, line-numbered
//!   values under `backend.spec`, the job YAML and the scenario YAML.
//! * [`fleet`] — the Table-2 fleet generator producing the 100 simulated
//!   devices used throughout the evaluation.
//! * [`NodeLabels`] — the summary labels QRIO attaches to cluster nodes for
//!   filter-stage scheduling.
//!
//! # Examples
//!
//! ```
//! use qrio_backend::{fleet, NodeLabels};
//!
//! # fn main() -> Result<(), qrio_backend::BackendError> {
//! let devices = fleet::paper_fleet()?;
//! assert_eq!(devices.len(), 100);
//! let labels = NodeLabels::from_backend(&devices[0], 4000, 8192);
//! assert!(labels.num_qubits >= 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod error;
pub mod fleet;
mod graph;
mod labels;
mod properties;
pub mod reader;
pub mod spec;
pub mod topology;

pub use backend::{Backend, BasisGates};
pub use error::BackendError;
pub use fleet::{generate_fleet, paper_fleet, FleetConfig};
pub use graph::CouplingMap;
pub use labels::NodeLabels;
pub use properties::{QubitProperties, TwoQubitGateProperties};
pub use topology::DefaultTopology;
