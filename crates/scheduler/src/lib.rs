//! # qrio-scheduler
//!
//! The QRIO scheduler (reproduction of *Empowering the Quantum Cloud User
//! with QRIO*, IISWC 2024, §3.5) and the baselines the paper compares it to.
//!
//! Scheduling a quantum job is one two-stage cycle ([`QrioScheduler`]):
//!
//! 1. **Filtering** — devices that cannot host the job are removed, each
//!    node saying why (`Node::rejection`): not ready, short of classical
//!    resources, too few qubits, or outside the user's bounds on qubit
//!    count, average two-qubit error, readout error or T1/T2 (evaluated in
//!    Fig. 10).
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
//! The cycle runs inside the service, `qrio::Qrio`: a job enqueued there is
//! ranked over the nodes that can host it.
//!
//! ```
//! use qrio::{JobRequestBuilder, Qrio};
//! use qrio_backend::{topology, Backend};
//! use qrio_circuit::library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut qrio = Qrio::new();
//! qrio.add_device(Backend::uniform("clean", topology::line(8), 0.001, 0.01))?;
//! qrio.add_device(Backend::uniform("noisy", topology::line(8), 0.05, 0.4))?;
//! qrio.add_device(Backend::uniform("tiny", topology::line(2), 0.0, 0.0))?;
//!
//! let bv = library::bernstein_vazirani(5, 0b10101)?;
//! let request = JobRequestBuilder::new()
//!     .with_circuit(&bv)
//!     .job_name("bv-job")
//!     .fidelity_target(0.9)
//!     .build()?;
//! let id = qrio.enqueue(&request)?;
//!
//! // Filtered out: the 2-qubit device. Ranked: the other two, best first.
//! let ranked = qrio.rank_ready(&id)?;
//! assert_eq!(ranked.len(), 2);
//! assert_eq!(ranked[0].0, "clean");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod error;
mod qrio_scheduler;

pub use baselines::{
    achieved_fidelity, oracle_select, OracleEntry, OracleOutcome, RandomScheduler,
};
pub use error::SchedulerError;
pub use qrio_scheduler::{Cycle, QrioScheduler};
