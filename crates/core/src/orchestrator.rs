//! The end-to-end QRIO orchestrator: visualizer → master server → meta server
//! → scheduler → cluster execution → logs (the full workflow of §3), exposed
//! as a **non-blocking job lifecycle**.
//!
//! # The lifecycle API
//!
//! [`Qrio::enqueue`] returns a [`JobId`] as soon as the job's metadata is
//! uploaded and its container pushed — nothing has been scheduled yet. A
//! deterministic service loop ([`Qrio::tick`] / [`Qrio::run_until_idle`])
//! then drains the admission queue in priority order (FIFO within a
//! priority), binds each job to a device via filter + meta-server ranking,
//! and executes one job per device per tick. Every transition is appended to
//! a watch log ([`Qrio::watch`]) and queryable per job ([`Qrio::status`],
//! [`Qrio::outcome`], [`Qrio::job_logs`]). [`Qrio::cancel`] withdraws a job
//! that has not started running.
//!
//! The blocking [`Qrio::submit`] of earlier revisions is still here, now a
//! thin lifecycle wrapper: `enqueue`, tick until *that* job is terminal,
//! `outcome` — other queued work advances alongside, but only the submitted
//! job is ever force-failed on its account.
//!
//! # One clock
//!
//! There is one virtual clock ([`Qrio::now`]) and one set of timers on it:
//! retry backoffs, deadlines, the open intervals of circuit breakers and,
//! under a service model, the service windows of devices. [`Qrio::tick`]
//! moves the clock by one; a caller that keeps time itself moves it with
//! [`Qrio::advance_to`] and asks [`Qrio::next_due`] when it next has to.
//! Either way the timers that are due fire, from one body. The clock has no
//! unit: delays, deadlines and `open_ticks` are in whatever unit it is
//! advanced in — ticks under the service loop, virtual milliseconds under
//! `qrio-loadgen`.
//!
//! # Service time
//!
//! Without a service model a bound job runs the instant [`Qrio::tick`] or
//! [`Qrio::execute`] reaches it. [`Qrio::configure_service`] installs one
//! ([`ServiceModel`](crate::ServiceModel): a per-job base, a per-shot time
//! and each device's speed), and from then on `Qrio` decides *when* each
//! device serves: an idle device in service starts the head of its queue
//! ([`Qrio::device_queue`]) — the job enters `Running` and stays at the head
//! — and the job is dispatched and settled when its window closes, on the
//! way of [`Qrio::advance_to`], after the breakers, deadlines and backoffs
//! due at that time, in device-name order; a retry re-queued there is bound
//! at once. Under the model, telemetry is what the model says each device
//! carries, [`Qrio::recalibrate_device`] moves every waiting job whose best
//! device changed, and a device that is cordoned or whose breaker trips
//! sheds its waiting jobs to the rest of the fleet. A load generator is then
//! an adapter: it enqueues and schedules arrivals, recalibrates, interrupts
//! and cordons, and moves the clock. The step calls — [`Qrio::schedule`],
//! [`Qrio::execute`], [`Qrio::rank_ready`], [`Qrio::rebind`],
//! [`Qrio::report_telemetry`] — stay public for callers that take the steps
//! themselves; they and `tick()` work on the same per-device FIFOs: a job is
//! `Scheduled` exactly while it waits in the queue of the device it is bound
//! to, whoever bound it.
//!
//! # Map
//!
//! [`Qrio`] is one type whose `impl` is split by concern over child modules,
//! so its fields stay private to this file and its children:
//!
//! * this file — the struct, [`JobOutcome`], [`AdmissionGate`], the
//!   constructors and the read accessors (`device_queue` among them);
//! * `fleet` — devices and what is done to them: `add_device*`, `add_fleet`,
//!   `recalibrate_device`, `cordon_device` / `uncordon_device`,
//!   `heal_devices`, `configure_faults`, `configure_breakers`,
//!   `configure_service` and the migration of waiting jobs it enables,
//!   `report_telemetry` and the telemetry refresh, the transport
//!   (`set_transport`, `observed_nodes`, the control trace) and the node
//!   agents behind it;
//! * `admission` — a job's way in and the user's view of it: `enqueue`,
//!   `enqueue_all`, `cancel`, `status`, `job_status`, `outcome`, `watch`, and
//!   the admission verdicts of the service loop (regular and forced);
//! * `reconcile` — everything that moves a job afterwards: `tick`,
//!   `advance_to` and the timers under both, `next_due`,
//!   `run_until_idle`, `submit`, the step calls (`schedule`, `execute`,
//!   `interrupt`, `rebind`, `rank_ready`), a device's service (start,
//!   completion), the execution attempt over the control plane, its
//!   settlement, retry and deadline;
//! * `recovery` — the journal: `enable_durability` … `snapshot_record`, the
//!   one place a [`Command`](crate::Command) is written, `recover*`,
//!   `replay_to` and `describe_state`.
//!
//! # The journaling rule
//!
//! Every mutation is one public call with one body, and that body ends by
//! journaling its [`Command`](crate::Command) — built only when a journal is
//! attached. Recovery replays a command by issuing the same call again with
//! the journal detached. When a call is journaled:
//!
//! | rule | calls |
//! |------|-------|
//! | on success — a failure changed nothing | `add_device*`, `recalibrate_device`, `cordon_device`, `uncordon_device`, `enqueue`, `cancel` |
//! | on attempt, unless the id is unknown — a failed attempt may still move the job or refresh telemetry | `schedule`, `execute`, `interrupt`, `rebind` |
//! | always | `tick`, `report_telemetry`, `heal_devices`, `configure_faults`, `configure_breakers`, `configure_service`; `advance_to` unless refused — it moves the clock even when nothing is due |
//! | when it did something | the forced admission of `run_until_idle` / `submit` (`Queued` stragglers only) |
//!
//! What a service model does inside these calls — a service started, a
//! window closed, a waiting job moved, telemetry refreshed — belongs to the
//! call and is replayed with it; nothing happens outside a journaled call.
//!
//! `tick`, `report_telemetry` and the forced admission cannot return a
//! journal failure; it poisons durability instead
//! ([`Qrio::durability_error`]).

use std::fmt;
use std::sync::Arc;

use qrio_backend::Backend;
use qrio_cluster::{Cluster, FaultInjector, Resources, ScheduleDecision};
use qrio_meta::{FidelityRankingConfig, MetaServer, RankingStrategy};

use crate::breaker::BreakerBoard;
use crate::control::ControlPlane;
use crate::durability::Durability;
use crate::error::QrioError;
use crate::lifecycle::{JobId, LifecycleStore, ServiceModel};
use crate::runner::SimJobRunner;
use crate::visualizer::JobRequest;

mod admission;
mod fleet;
mod reconcile;
mod recovery;

/// The outcome of one job that ran to completion through the QRIO pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The scheduling decision (chosen node, score, candidates).
    pub decision: ScheduleDecision,
    /// Result histogram (`bitstring -> count`).
    pub counts: Vec<(String, u64)>,
    /// Fidelity achieved against the noise-free reference, when computed.
    pub achieved_fidelity: Option<f64>,
    /// The job's logs: the line of each binding (`scheduled on ...`) and
    /// rebinding (`rebound from ...`), then the runner's lines of the
    /// attempt that succeeded. Where the job went is the watch log's to say
    /// ([`Qrio::watch`]); no line per state is kept here.
    pub logs: Vec<String>,
}

/// A pre-admission check consulted by [`Qrio::enqueue`] before any state is
/// created for the request.
///
/// The gate sees the full request plus a snapshot of every registered device
/// (cordoned or not — admission asks "could this ever run", not "can it run
/// now"). Returning `Err` rejects the request with
/// [`QrioError::AdmissionRejected`]; nothing is uploaded, containerized or
/// queued in that case.
///
/// The `qrio-analyzer` crate ships a lint-based implementation; custom gates
/// (quota checks, policy enforcement) implement this trait directly.
pub trait AdmissionGate: fmt::Debug {
    /// Check one request against the registered fleet. `Err(reason)` rejects.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the request must not be admitted.
    fn check(&self, request: &JobRequest, fleet: &[Backend]) -> Result<(), String>;
}

/// The QRIO orchestrator, owning the cluster, the meta server and the job
/// lifecycle store.
#[derive(Debug)]
pub struct Qrio {
    cluster: Cluster,
    meta: MetaServer,
    runner: SimJobRunner,
    default_node_resources: Resources,
    lifecycle: LifecycleStore,
    admission_gate: Option<Box<dyn AdmissionGate>>,
    durability: Option<Durability>,
    breakers: Option<BreakerBoard>,
    service: Option<ServiceModel>,
    control: ControlPlane,
}

impl Qrio {
    /// A QRIO deployment with no nodes and default configuration.
    pub fn new() -> Self {
        Qrio::with_config(FidelityRankingConfig::default(), 0x51D0)
    }

    /// A QRIO deployment with a custom scoring configuration and runner seed.
    pub fn with_config(fidelity_config: FidelityRankingConfig, seed: u64) -> Self {
        Qrio {
            cluster: Cluster::new(),
            meta: MetaServer::with_config(fidelity_config),
            runner: SimJobRunner::new(seed),
            default_node_resources: Resources::new(4000, 8192),
            lifecycle: LifecycleStore::default(),
            admission_gate: None,
            durability: None,
            breakers: None,
            service: None,
            control: ControlPlane::new_in_proc(),
        }
    }

    /// Install a pre-admission gate: every subsequent [`Qrio::enqueue`] runs
    /// it before creating any state, and a rejection surfaces as
    /// [`QrioError::AdmissionRejected`]. Replaces any previous gate.
    pub fn set_admission_gate(&mut self, gate: Box<dyn AdmissionGate>) {
        self.admission_gate = Some(gate);
    }

    /// Remove the admission gate, restoring unchecked admission.
    pub fn clear_admission_gate(&mut self) {
        self.admission_gate = None;
    }

    /// Register a user-defined ranking strategy with the meta server, making
    /// it selectable by name from any [`JobRequest`].
    ///
    /// # Errors
    ///
    /// Returns an error when a strategy with the same name already exists.
    pub fn register_strategy(
        &mut self,
        strategy: Arc<dyn RankingStrategy>,
    ) -> Result<(), QrioError> {
        Ok(self.meta.register_strategy(strategy)?)
    }

    /// Read-only access to the cluster (nodes, jobs, events).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the cluster for vendor operations.
    ///
    /// Mutations made through this escape hatch are **not journaled**: with
    /// durability enabled they are invisible to crash recovery. Prefer the
    /// journaled wrappers ([`Qrio::cordon_device`], [`Qrio::uncordon_device`],
    /// [`Qrio::heal_devices`], [`Qrio::recalibrate_device`]) when the change
    /// must survive a restart.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Read-only access to the meta server.
    pub fn meta(&self) -> &MetaServer {
        &self.meta
    }

    /// The currently-installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.cluster.fault_injector()
    }

    /// The circuit-breaker board, when breakers are configured.
    pub fn breakers(&self) -> Option<&BreakerBoard> {
        self.breakers.as_ref()
    }

    /// The dead-letter queue: ids of jobs whose retry policy was exhausted,
    /// oldest first. Jobs that fail without a retry policy (or on a
    /// non-retryable failure class) are plain failures, not dead letters.
    pub fn dead_letters(&self) -> Vec<JobId> {
        self.lifecycle
            .dead_letters
            .iter()
            .map(|name| JobId::new(name.as_str()))
            .collect()
    }

    /// The jobs bound to `device` and waiting for it, next to run first. A
    /// job is `Scheduled` exactly while it is in here, in the queue of the
    /// device it is bound to, whoever bound it ([`Qrio::tick`] admission or
    /// [`Qrio::schedule`]); [`Qrio::rebind`] moves it to the tail of the
    /// target's queue. Under a service model the head may be the job the
    /// device is serving, `Running` until its attempt settles. Empty for an
    /// idle or unknown device.
    pub fn device_queue(&self, device: &str) -> impl ExactSizeIterator<Item = &str> {
        let queue = self.lifecycle.device_queues.get(device);
        let names = queue.map(|queue| queue.iter()).unwrap_or_default();
        names.map(String::as_str)
    }

    /// What the one virtual clock reads: every watch-log and breaker event is
    /// stamped with it and every timer is armed from it. [`Qrio::tick`] moves
    /// it by one and [`Qrio::advance_to`] to the time it is given, so it
    /// counts tick cycles under the service loop and virtual milliseconds
    /// under a simulator that advances in them.
    pub fn now(&self) -> u64 {
        self.lifecycle.clock
    }

    /// Fetch the logs of a previously-submitted job (what the visualizer's
    /// "check logs" button shows, §3.2).
    ///
    /// # Errors
    ///
    /// Returns an error if no such job exists.
    pub fn job_logs(&self, job_name: &str) -> Result<&[String], QrioError> {
        Ok(self.cluster.job_logs(job_name)?)
    }
}

impl Default for Qrio {
    fn default() -> Self {
        Qrio::new()
    }
}

#[cfg(test)]
mod tests;
