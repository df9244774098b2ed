//! # qrio-cluster
//!
//! Kubernetes-like cluster substrate for the QRIO quantum-cloud orchestrator
//! (reproduction of *Empowering the Quantum Cloud User with QRIO*, IISWC 2024).
//!
//! The paper builds QRIO on Kubernetes: every quantum device is a labelled
//! worker node, jobs are containerized circuits described by a YAML spec, and
//! the scheduler is a filter → score → bind plugin pipeline. This crate
//! provides an in-process substrate with the same shape, so the scheduler code
//! the paper evaluates runs against an API equivalent to the one it targets:
//!
//! * [`Node`] — a quantum device plus classical capacity, labelled with the
//!   §3.1 properties, with cordon / failure / self-healing restart support,
//!   and the scheduler's one feasibility rule ([`Node::rejection`]: ready,
//!   resource fit, qubit count, device-requirement bounds).
//! * [`JobSpec`], [`Job`], [`yaml`] — job objects with device-requirement
//!   bounds, an open [`StrategySpec`] (ranking strategy by name with typed
//!   [`StrategyParams`]), the node holding each job's reservation, and logs.
//! * [`ImageRegistry`] — the simulated Docker Hub the master server pushes
//!   job containers to: the names of the pushed images and the push / pull
//!   counters (an image's files are rendered from its job's spec).
//! * [`Cluster`] — the control plane: node/job stores, the bind stage of
//!   the scheduling cycle ([`Cluster::bind_job`]), the two ends of an
//!   execution attempt ([`Cluster::prepare_run`] starts it and lends out the
//!   spec that describes it, [`Cluster::settle_run`] applies the device's
//!   [`AttemptVerdict`]; the device in between belongs to `qrio-agent`), a
//!   node event log.
//! * [`FaultInjector`], [`FaultKind`], [`RetryPolicy`] — the deterministic
//!   typed fault plan node agents consult before every execution attempt,
//!   plus the per-job retry/backoff policies the orchestrator's
//!   fault-tolerant lifecycle runs.
//!
//! # Examples
//!
//! ```
//! use qrio_backend::{topology, Backend};
//! use qrio_cluster::{Cluster, Node, Resources};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cluster = Cluster::new();
//! let backend = Backend::uniform("dev-a", topology::line(5), 0.01, 0.05);
//! cluster.add_node(Node::from_backend(backend, Resources::new(4000, 8192)))?;
//! assert_eq!(cluster.ready_nodes().count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod error;
mod fault;
mod job;
mod node;
mod registry;
mod resources;
pub mod yaml;

pub use cluster::{
    AttemptVerdict, Cluster, ClusterEvent, ExecutionOutcome, ScheduleDecision, WorkOrder,
};
pub use error::ClusterError;
pub use fault::{BackoffPolicy, FaultInjector, FaultKind, RetryOn, RetryPolicy};
pub use job::{
    strategy_names, DeviceRequirements, Job, JobSpec, ParamValue, StrategyParams, StrategySpec,
};
pub use node::{Node, NodeStatus};
pub use registry::ImageRegistry;
pub use resources::Resources;
