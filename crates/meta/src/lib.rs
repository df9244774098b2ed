//! # qrio-meta
//!
//! The QRIO Meta Server (reproduction of *Empowering the Quantum Cloud User
//! with QRIO*, IISWC 2024, §3.4).
//!
//! The meta server is the scoring brain of QRIO: it stores a copy of every
//! vendor backend, keeps the per-job metadata the visualizer uploads
//! (Table 1), and answers the scheduler's score requests by dispatching to a
//! **ranking-strategy plugin** resolved by name in its [`StrategyRegistry`].
//! Strategy is an open extension point — implement [`RankingStrategy`] and
//! call [`MetaServer::register_strategy`] — rather than a closed enum. Four
//! strategies ship built in:
//!
//! * [`FidelityStrategy`] (`"fidelity"`) — Clifford-canary evaluation against
//!   a user-supplied fidelity target (Gottesman–Knill makes the noise-free
//!   reference tractable at any circuit size), from [`fidelity_ranking`],
//! * [`TopologyStrategy`] (`"topology"`) — Mapomatic-style scoring of the
//!   requested interaction topology against each device's coupling map, from
//!   [`topology_ranking`],
//! * [`WeightedStrategy`] (`"weighted"`) — a multi-objective blend of the
//!   canary-fidelity score with live queue depth and classical utilization
//!   reported by the control plane as [`DeviceTelemetry`],
//! * [`MinQueueStrategy`] (`"min_queue"`) — a queue-time-only baseline.
//!
//! Scores are "lower is better" throughout, matching the paper's convention;
//! equal scores order by device name so rankings are deterministic. The
//! fidelity and topology scores are memoized per device and job *content*
//! (strategy, parameters, circuit), so jobs that submit the same circuit
//! share one canary or embedding search per device calibration.
//!
//! # Examples
//!
//! ```
//! use qrio_backend::{topology, Backend};
//! use qrio_circuit::{library, qasm};
//! use qrio_cluster::StrategySpec;
//! use qrio_meta::MetaServer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut meta = MetaServer::new();
//! meta.register_backend(Backend::uniform("clean", topology::line(6), 0.0, 0.0));
//! meta.register_backend(Backend::uniform("noisy", topology::line(6), 0.05, 0.3));
//!
//! let bv = library::bernstein_vazirani(5, 0b10101)?;
//! let fidelity = StrategySpec::fidelity(0.95);
//! meta.upload_job_metadata("bv-job", &fidelity, Some(&qasm::to_qasm(&bv)))?;
//! let ranked = meta.score_all("bv-job")?;
//! assert_eq!(ranked[0].device, "clean");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
mod error;
pub mod fidelity_ranking;
mod server;
mod strategy;
pub mod topology_ranking;

pub use builtin::{
    builtin_registry, requires_circuit, FidelityStrategy, MinQueueStrategy, TopologyStrategy,
    WeightedStrategy,
};
pub use error::MetaError;
pub use fidelity_ranking::{
    canary_fidelity_on_backend, evaluate_fidelity, FidelityEvaluation, FidelityRankingConfig,
};
pub use server::{CacheStats, JobRecord, MetaServer, Ranking};
pub use strategy::{DeviceTelemetry, JobContext, RankingStrategy, Score, StrategyRegistry};
pub use topology_ranking::{evaluate_topology, topology_circuit, TopologyEvaluation};
