//! # qrio
//!
//! An open-source **Quantum Resource Infrastructure Orchestrator** — a Rust
//! reproduction of *Empowering the Quantum Cloud User with QRIO* (IISWC 2024).
//!
//! QRIO lets a quantum-cloud user submit a job (a QASM circuit) together with
//! a ranking strategy of their choice — a fidelity requirement, a desired
//! device topology, a weighted multi-objective blend, a min-queue baseline,
//! or any user-registered [`qrio_meta::RankingStrategy`] — plus optional
//! bounds on device characteristics, and automatically selects and executes
//! the job on the most suitable device of a heterogeneous fleet.
//!
//! This crate is the facade that wires the substrates together:
//!
//! * [`visualizer`] — the job-submission form and topology-drawing canvas
//!   (§3.2 of the paper),
//! * [`master_server`] — job containerization, image push and Job YAML
//!   generation (§3.3),
//! * [`SimJobRunner`] — the per-node executor that transpiles and runs the
//!   circuit on its assigned device (the generated runner script of §3.3):
//!   the [`qrio_agent::JobRunner`] every node agent is stood up with, fed the
//!   `Run` payload its agent decoded,
//! * [`Qrio`] — the end-to-end orchestrator over the Kubernetes-like cluster
//!   substrate, the meta server and the scheduler, exposing a non-blocking
//!   job lifecycle ([`Qrio::enqueue`] → [`Qrio::tick`] → [`Qrio::outcome`])
//!   with typed states and watch events ([`lifecycle`]),
//! * [`durability`] — opt-in crash recovery: every mutation is journaled to
//!   a `qrio-journal` write-ahead log before it is acknowledged
//!   ([`Qrio::enable_durability`]), and [`Qrio::recover`] rebuilds the exact
//!   pre-crash orchestrator from snapshot + replay,
//! * [`experiments`] — the harness that regenerates every table and figure of
//!   the paper's evaluation (§4).
//!
//! # Examples
//!
//! ```
//! use qrio::{JobRequestBuilder, Qrio};
//! use qrio_backend::{topology, Backend};
//! use qrio_circuit::library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Vendor: stand up a two-device cloud.
//! let mut qrio = Qrio::new();
//! qrio.add_device(Backend::uniform("clean", topology::line(8), 0.001, 0.01))?;
//! qrio.add_device(Backend::uniform("noisy", topology::line(8), 0.05, 0.4))?;
//!
//! // User: submit a Bernstein–Vazirani job with a fidelity requirement.
//! let bv = library::bernstein_vazirani(5, 0b10110)?;
//! let request = JobRequestBuilder::new()
//!     .with_circuit(&bv)
//!     .job_name("bv-demo")
//!     .fidelity_target(0.9)
//!     .shots(256)
//!     .build()?;
//! let outcome = qrio.submit(&request)?;
//! assert_eq!(outcome.decision.node, "clean");
//!
//! // The same pipeline, non-blocking: enqueue returns a JobId immediately,
//! // the service loop drives the typed state machine, and the outcome is
//! // read back once the job is terminal.
//! let async_request = JobRequestBuilder::new()
//!     .with_circuit(&bv)
//!     .job_name("bv-async")
//!     .fidelity_target(0.9)
//!     .shots(256)
//!     .build()?;
//! let id = qrio.enqueue(&async_request)?;
//! assert_eq!(qrio.status(&id)?, qrio::JobState::Queued);
//! qrio.run_until_idle();
//! assert_eq!(qrio.status(&id)?, qrio::JobState::Succeeded);
//! assert_eq!(qrio.outcome(&id)?.decision.node, "clean");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod control;
pub mod durability;
mod error;
pub mod experiments;
pub mod lifecycle;
pub mod master_server;
mod orchestrator;
mod runner;
pub mod visualizer;

pub use breaker::{BreakerAction, BreakerBoard, BreakerConfig, BreakerEvent, BreakerState};
pub use control::{ControlPlane, ObservedNode, TransportMode};
pub use durability::{
    Command, DurabilityConfig, DurabilityError, RecoveryReport, ReplayCheckpoint,
};
pub use error::QrioError;
pub use lifecycle::{Cause, JobEvent, JobId, JobState, JobStatus, ServiceModel, TickReport};
pub use master_server::{containerize, ContainerizedJob};
pub use orchestrator::{AdmissionGate, JobOutcome, Qrio};
pub use qrio_meta::{DeviceTelemetry, FidelityRankingConfig};
pub use runner::SimJobRunner;
pub use visualizer::{JobRequest, JobRequestBuilder, TopologyDesigner};
