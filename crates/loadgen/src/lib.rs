//! # qrio-loadgen
//!
//! A deterministic, cloud-scale workload simulator for QRIO: a virtual-time
//! discrete-event engine that drives the **full** stack — meta-server
//! ranking → QRIO scheduler → cluster queues → simulated execution — with
//! thousands of jobs from configurable multi-tenant arrival processes, while
//! injecting calibration drift and backend outages mid-run.
//!
//! Real quantum clouds see diurnal load swings, bursty batch submissions and
//! week-scale calibration drift; QRIO's promise is user-customizable job
//! steering *under that contention*. This crate supplies the contention: a
//! [`Scenario`] describes a fleet, a set of tenants (circuit family, ranking
//! strategy, arrival process) and a timeline of drift/outage events;
//! [`run_scenario`] replays it in virtual time (no wall clock anywhere) and
//! returns a [`CloudReport`] with per-tenant throughput and p50/p95 latency,
//! per-device utilization, a fidelity-vs-load curve and the meta server's
//! strategy-cache hit rate. The whole run is a pure function of the scenario
//! seed, so `BENCH_cloud.json` is byte-identical across same-seed runs and
//! scenario outcomes are assertable in tests.
//!
//! # Example
//!
//! ```
//! use qrio_loadgen::{run_scenario, Scenario};
//!
//! let scenario = Scenario::from_yaml(
//!     "scenario: doc\n\
//!      seed: 7\n\
//!      durationMs: 3000\n\
//!      maxJobs: 40\n\
//!      fleet:\n\
//!        - device: alpha\n\
//!          qubits: 6\n\
//!        - device: beta\n\
//!          qubits: 6\n\
//!          twoQubitError: 0.05\n\
//!      tenants:\n\
//!        - tenant: alice\n\
//!          strategy: min_queue\n\
//!          circuit: ghz\n\
//!          qubits: 4\n\
//!          shots: 16\n\
//!          ratePerSec: 10.0\n",
//! )
//! .unwrap();
//! let report = run_scenario(&scenario).unwrap();
//! assert!(report.completed > 0);
//! // Same seed, same bytes.
//! assert_eq!(report.to_json(), run_scenario(&scenario).unwrap().to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
mod engine;
mod error;
pub mod killrestart;
pub mod metrics;
pub mod scenario;

pub use arrival::{ArrivalProcess, ArrivalSampler};
pub use engine::{run_scenario, run_scenario_with_log, run_scenario_with_transport};
pub use error::LoadgenError;
pub use killrestart::{
    run_kill_restart, run_kill_restart_with_log, KillRestartReport, KillRestartScenario,
};
pub use metrics::{ChaosStats, CloudReport, DeviceStats, LoadBucket, TenantStats};
pub use scenario::{
    DeviceSpec, Scenario, ScenarioEvent, TenantSpec, TenantStrategy, TopologyKind, WorkloadCircuit,
};
