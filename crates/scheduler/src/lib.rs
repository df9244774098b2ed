//! # qrio-scheduler
//!
//! The QRIO scheduler (reproduction of *Empowering the Quantum Cloud User
//! with QRIO*, IISWC 2024, §3.5) and the baselines the paper compares it to.
//!
//! Scheduling a quantum job is one two-stage cycle ([`QrioScheduler`]):
//!
//! 1. **Filtering** — devices that cannot host the job are removed: over
//!    cluster nodes, `Node::rejection` (ready, classical resources, qubit
//!    count, the user's bounds); over a bare fleet ([`filter`]), the user's
//!    bounds on qubit count, average two-qubit error, readout error or T1/T2
//!    alone (evaluated in Fig. 10).
//! 2. **Ranking** — each shortlisted device is scored by the QRIO Meta
//!    Server through the job's registered ranking-strategy plugin
//!    (Clifford-canary fidelity, Mapomatic topology similarity, weighted
//!    multi-objective, min-queue, or any user-defined strategy) and ordered
//!    there (`MetaServer::rank`): the lowest score wins, ties break on
//!    device name, a device the strategy cannot score is skipped.
//!
//! [`baselines`] provides the comparison points of the evaluation: the random
//! scheduler (Fig. 6/7) and the oracle scheduler that scores devices with the
//! original circuit and exact simulation (Fig. 7), plus the fleet-wide
//! average/median fidelity statistics.
//!
//! # Examples
//!
//! ```
//! use qrio_backend::{topology, Backend};
//! use qrio_circuit::{library, qasm};
//! use qrio_cluster::DeviceRequirements;
//! use qrio_meta::MetaServer;
//! use qrio_scheduler::QrioScheduler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fleet = vec![
//!     Backend::uniform("clean", topology::line(8), 0.001, 0.01),
//!     Backend::uniform("noisy", topology::line(8), 0.05, 0.4),
//! ];
//! let mut meta = MetaServer::new();
//! for device in &fleet {
//!     meta.register_backend(device.clone());
//! }
//! let bv = library::bernstein_vazirani(5, 0b10101)?;
//! meta.upload_fidelity_metadata("bv-job", 0.9, &qasm::to_qasm(&bv))?;
//!
//! let scheduler = QrioScheduler::new(&meta);
//! let (ranked, shortlisted) = scheduler.rank("bv-job", &fleet, &DeviceRequirements::none())?;
//! assert_eq!(ranked[0].0, "clean");
//! assert_eq!(shortlisted, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod error;
pub mod filter;
mod qrio_scheduler;

pub use baselines::{
    achieved_fidelity, oracle_select, OracleEntry, OracleOutcome, RandomScheduler,
};
pub use error::SchedulerError;
pub use filter::{
    filter_backends, filter_backends_report, paper_fig10_thresholds, two_qubit_error_sweep,
    FilterReport,
};
pub use qrio_scheduler::{Cycle, QrioScheduler};
