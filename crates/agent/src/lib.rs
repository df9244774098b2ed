//! # qrio-agent
//!
//! Node agents for the QRIO control plane (reproduction of *Empowering the
//! Quantum Cloud User with QRIO*, IISWC 2024). A [`NodeAgent`] is one
//! device's worker: it holds a replica of the device calibration and the
//! fault-injection plan (both shipped in `Bind` commands), executes `Run`
//! commands with its [`JobRunner`] — which sees the decoded
//! [`qrio_proto::RunPayload`] and the bound backend, nothing else — and
//! answers every command with exactly one report. This is the one path from
//! a job to a device: whether an attempt is dropped as cancelled, refused as
//! unbound, faulted by the plan or handed to the runner is decided in
//! [`NodeAgent`], in that order, and nowhere else.
//!
//! Agents never touch orchestrator state — all traffic is encoded
//! [`qrio_proto::Envelope`] frames crossing a [`Transport`]:
//!
//! | transport            | where agents run        | determinism                          |
//! |----------------------|-------------------------|--------------------------------------|
//! | [`InProcTransport`]  | the caller's thread     | fully deterministic in virtual time  |
//! | [`ChannelTransport`] | real `std::thread`s     | final reports byte-identical for any |
//! |                      | over `mpsc` channels    | worker count (agents are pure)       |
//!
//! ```
//! use qrio_agent::{InProcTransport, JobRunner, NodeAgent, Transport};
//! use qrio_cluster::ExecutionOutcome;
//! use qrio_proto::{Envelope, NodeCommand, Payload, RunPayload};
//!
//! #[derive(Debug)]
//! struct NullRunner;
//! impl JobRunner for NullRunner {
//!     fn run(
//!         &self,
//!         _run: &RunPayload,
//!         _backend: &qrio_backend::Backend,
//!     ) -> Result<ExecutionOutcome, String> {
//!         Err("not a real device".into())
//!     }
//! }
//!
//! let mut transport = InProcTransport::new();
//! transport.register(NodeAgent::new("dev-a", Box::new(NullRunner))).unwrap();
//! let probe = Envelope {
//!     seq: 0,
//!     node_id: "dev-a".into(),
//!     virtual_ts: 0,
//!     payload: Payload::Command(NodeCommand::Probe),
//! };
//! transport.send(probe.encode()).unwrap();
//! let reply = transport.recv(true).unwrap().expect("probe is answered");
//! assert!(Envelope::decode(&reply).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod error;
pub mod transport;

pub use agent::{
    fault_kind_from_wire, fault_kind_to_wire, fault_spec_to_wire, JobRunner, NodeAgent,
};
pub use error::AgentError;
pub use transport::{ChannelTransport, InProcTransport, Transport};
