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
//! # Simulator primitives
//!
//! Virtual-time simulators (e.g. `qrio-loadgen`) need to decide *when* each
//! lifecycle step happens instead of delegating to `tick()`. For them the
//! individual steps are public: [`Qrio::schedule`] binds one queued job
//! against the most recently reported telemetry ([`Qrio::report_telemetry`]),
//! [`Qrio::execute`] runs one bound job, [`Qrio::rank_ready`] re-ranks a job
//! over the currently-ready fleet, [`Qrio::rebind`] migrates a waiting job,
//! and [`Qrio::recalibrate_device`] applies a calibration refresh to the
//! meta server and the cluster in one step.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use qrio_agent::{fault_spec_to_wire, ChannelTransport, InProcTransport, NodeAgent, Transport};
use qrio_backend::{spec as backend_spec, Backend};
use qrio_bytes::{ByteWriter, Encode};
use qrio_cluster::{
    AttemptVerdict, Cluster, ClusterError, FaultInjector, Node, NodeStatus, Resources,
    ScheduleDecision,
};
use qrio_journal::{scan_file, Journal, Record};
use qrio_meta::{DeviceTelemetry, FidelityRankingConfig, MetaServer, RankingStrategy};
use qrio_proto::NodeCommand;
use qrio_scheduler::QrioScheduler;

use crate::breaker::{BreakerAction, BreakerBoard, BreakerConfig};
use crate::control::{ControlPlane, ObservedNode, TransportMode};
use crate::durability::{
    self, Command, Durability, DurabilityConfig, DurabilityError, JournalEntry, RecoveryReport,
    ReplayCheckpoint, SnapshotState, RECORD_SNAPSHOT, RECORD_VERSION,
};
use crate::error::QrioError;
use crate::lifecycle::{JobEvent, JobId, JobState, JobStatus, LifecycleStore, TickReport};
use crate::master_server::containerize;
use crate::runner::SimJobRunner;
use crate::visualizer::JobRequest;

/// The outcome of one job that ran to completion through the QRIO pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The scheduling decision (chosen node, score, candidates).
    pub decision: ScheduleDecision,
    /// Result histogram (`bitstring -> count`).
    pub counts: Vec<(String, u64)>,
    /// Fidelity achieved against the noise-free reference, when computed.
    pub achieved_fidelity: Option<f64>,
    /// The job's execution logs.
    pub logs: Vec<String>,
}

/// How an admission attempt for one queued job ended.
enum Admitted {
    /// Bound to a device.
    Scheduled(String),
    /// No device can host the job right now; it stays `Queued`.
    Deferred,
    /// Terminal failure (unschedulable, or every candidate failed scoring).
    Failed,
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
    control: ControlPlane,
}

/// The latest snapshot whose cursor does not exceed `at_most`, with its
/// record index. Cursors only grow along the journal, so the search runs from
/// the back and decodes no more snapshots than it must.
fn latest_snapshot(
    records: &[Record],
    at_most: u64,
) -> Result<(usize, SnapshotState), DurabilityError> {
    for (index, record) in records.iter().enumerate().rev() {
        if record.kind != RECORD_SNAPSHOT {
            continue;
        }
        if let JournalEntry::Snapshot(snapshot) = durability::decode_record(record)? {
            if snapshot.cursor <= at_most {
                return Ok((index, *snapshot));
            }
        }
    }
    Err(DurabilityError::NoSnapshot)
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

    /// Register a quantum device: adds a labelled node to the cluster and a
    /// copy of the backend to the meta server (the vendor workflow of §3.1).
    ///
    /// # Errors
    ///
    /// Returns an error if a node with the same name already exists.
    pub fn add_device(&mut self, backend: Backend) -> Result<(), QrioError> {
        let resources = self.default_node_resources;
        self.add_device_with_resources(backend, resources)
    }

    /// Register a quantum device whose node gets a custom classical capacity
    /// (simulators typically want effectively-unbounded nodes so that queue
    /// depth, not classical fit, is the binding constraint).
    ///
    /// # Errors
    ///
    /// Returns an error if a node with the same name already exists.
    pub fn add_device_with_resources(
        &mut self,
        backend: Backend,
        resources: Resources,
    ) -> Result<(), QrioError> {
        let spec_text = backend_spec::to_spec(&backend);
        self.add_device_unjournaled(backend, resources)?;
        self.journal_command(Command::AddDevice {
            spec_text,
            resources,
        })?;
        Ok(())
    }

    /// The registration itself, free of journaling. A duplicate name is
    /// rejected before any state changes, so a failed registration leaves
    /// both the meta server and the cluster untouched.
    fn add_device_unjournaled(
        &mut self,
        backend: Backend,
        resources: Resources,
    ) -> Result<(), QrioError> {
        if self.cluster.node(backend.name()).is_some() {
            return Err(QrioError::Cluster(ClusterError::DuplicateNode(
                backend.name().to_string(),
            )));
        }
        let name = backend.name().to_string();
        self.meta.register_backend(backend.clone());
        self.cluster
            .add_node(Node::from_backend(backend, resources))?;
        self.bind_agent(&name, true);
        self.control.drain();
        Ok(())
    }

    /// Ship a node's calibration and the current fault plan to its agent in
    /// a `Bind` command. A `fresh` agent is first stood up on the transport
    /// and, knowing nothing yet, is also told when its node is cordoned.
    /// Transport sends only fail when the workers are torn down, so failures
    /// here are ignored rather than surfaced to the vendor API; the caller
    /// drains the acknowledgements.
    fn bind_agent(&mut self, name: &str, fresh: bool) {
        let node = self.cluster.node(name).expect("callers name a node");
        let backend_spec = backend_spec::to_spec(node.backend());
        let cordoned = node.status() == NodeStatus::Cordoned;
        let injector = self.cluster.fault_injector().map(fault_spec_to_wire);
        let clock = self.lifecycle.clock;
        if fresh {
            let _ = self
                .control
                .register_agent(NodeAgent::new(name, Box::new(self.runner)));
        }
        let _ = self.control.send_command(
            name,
            clock,
            NodeCommand::Bind {
                backend_spec,
                injector,
            },
        );
        if fresh && cordoned {
            let _ = self.control.send_command(name, clock, NodeCommand::Cordon);
        }
    }

    /// [`Qrio::bind_agent`] for every node, in name order: a fault plan
    /// rebroadcast to the agents there are, or (`fresh`) every agent stood up
    /// anew — when the transport is swapped and when an orchestrator is
    /// rebuilt from a snapshot.
    fn bind_agents(&mut self, fresh: bool) {
        let names: Vec<String> = self.cluster.nodes().map(|n| n.name().to_string()).collect();
        for name in names {
            self.bind_agent(&name, fresh);
        }
        self.control.drain();
    }

    /// Register every device of a fleet.
    ///
    /// # Errors
    ///
    /// Returns an error on the first duplicate device name.
    pub fn add_fleet(&mut self, fleet: impl IntoIterator<Item = Backend>) -> Result<(), QrioError> {
        for backend in fleet {
            self.add_device(backend)?;
        }
        Ok(())
    }

    /// Apply a calibration refresh (or drift) to a registered device: the
    /// meta server gets the new backend under a bumped calibration revision
    /// (invalidating memoized scores) and the cluster node's labels are
    /// recomputed from it.
    ///
    /// # Errors
    ///
    /// Returns an error if no node carries the backend's name.
    pub fn recalibrate_device(&mut self, backend: Backend) -> Result<(), QrioError> {
        let spec_text = backend_spec::to_spec(&backend);
        self.recalibrate_unjournaled(backend)?;
        self.journal_command(Command::Recalibrate { spec_text })?;
        Ok(())
    }

    /// The calibration refresh itself, free of journaling. The node is
    /// looked up before the meta server is touched, so an unknown device
    /// leaves no state behind.
    fn recalibrate_unjournaled(&mut self, backend: Backend) -> Result<(), QrioError> {
        if self.cluster.node(backend.name()).is_none() {
            return Err(QrioError::Cluster(ClusterError::UnknownNode(
                backend.name().to_string(),
            )));
        }
        let name = backend.name().to_string();
        let spec_text = backend_spec::to_spec(&backend);
        self.meta.register_backend(backend.clone());
        self.cluster.update_node_backend(backend)?;
        let _ = self.control.send_command(
            &name,
            self.lifecycle.clock,
            NodeCommand::Recalibrate {
                backend_spec: spec_text,
            },
        );
        self.control.drain();
        Ok(())
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

    /// Cordon a device's node: it stops accepting new bindings until
    /// uncordoned. Journaled when durability is enabled.
    ///
    /// # Errors
    ///
    /// Returns an error when no such node exists, or when the journal append
    /// fails.
    pub fn cordon_device(&mut self, name: &str) -> Result<(), QrioError> {
        self.set_cordon_unjournaled(name, true)?;
        self.journal_command(Command::Cordon {
            node: name.to_string(),
        })?;
        Ok(())
    }

    /// Cordon or uncordon the node and tell its agent, free of journaling —
    /// the one body behind [`Qrio::cordon_device`], [`Qrio::uncordon_device`]
    /// and their replay, so a recovered agent's cordon flag matches the
    /// crashed instance's.
    fn set_cordon_unjournaled(&mut self, name: &str, cordoned: bool) -> Result<(), QrioError> {
        let node = self
            .cluster
            .node_mut(name)
            .ok_or_else(|| QrioError::Cluster(ClusterError::UnknownNode(name.to_string())))?;
        let command = if cordoned {
            node.cordon();
            NodeCommand::Cordon
        } else {
            node.uncordon();
            NodeCommand::Uncordon
        };
        let _ = self
            .control
            .send_command(name, self.lifecycle.clock, command);
        self.control.drain();
        Ok(())
    }

    /// Lift a device's cordon, making its node schedulable again. Journaled
    /// when durability is enabled.
    ///
    /// # Errors
    ///
    /// Returns an error when no such node exists, or when the journal append
    /// fails.
    pub fn uncordon_device(&mut self, name: &str) -> Result<(), QrioError> {
        self.set_cordon_unjournaled(name, false)?;
        self.journal_command(Command::Uncordon {
            node: name.to_string(),
        })?;
        Ok(())
    }

    /// Restart every `NotReady` node (the cluster's self-healing sweep),
    /// returning the names of the restarted nodes. Journaled when durability
    /// is enabled.
    ///
    /// # Errors
    ///
    /// Returns an error only when the journal append fails; the restarts
    /// themselves are infallible.
    pub fn heal_devices(&mut self) -> Result<Vec<String>, QrioError> {
        let healed = self.heal_unjournaled();
        self.journal_command(Command::Heal)?;
        Ok(healed)
    }

    /// The self-healing sweep itself, free of journaling.
    fn heal_unjournaled(&mut self) -> Vec<String> {
        self.cluster.heal_nodes()
    }

    // --- Fault tolerance -----------------------------------------------------------------

    /// Install (or, with `None`, remove) the cluster's deterministic fault
    /// injector. Every execution attempt consults it; an injected fault
    /// fails the attempt with [`ClusterError::InjectedFault`] and flows
    /// through the job's retry policy like any real failure. Journaled, so
    /// recovery replays the exact same faults.
    ///
    /// # Errors
    ///
    /// Returns an error only when the journal append fails.
    pub fn configure_faults(&mut self, injector: Option<FaultInjector>) -> Result<(), QrioError> {
        self.configure_faults_unjournaled(injector);
        self.journal_command(Command::ConfigureFaults { injector })?;
        Ok(())
    }

    /// Install the injector and rebroadcast every node's `Bind` so each
    /// agent's fault-plan replica matches: the agent draws the injected-fault
    /// verdict for the attempts it runs, and both sides evaluate the same
    /// pure decision function.
    fn configure_faults_unjournaled(&mut self, injector: Option<FaultInjector>) {
        self.cluster.set_fault_injector(injector);
        self.bind_agents(false);
    }

    /// The currently-installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.cluster.fault_injector()
    }

    /// Install (or, with `None`, remove) per-device circuit breakers. A
    /// fresh board starts with every breaker closed; from then on every
    /// execution outcome feeds it, a trip cordons the device, and probation
    /// uncordons it. Journaled, so recovery replays every trip.
    ///
    /// # Errors
    ///
    /// Returns an error only when the journal append fails.
    pub fn configure_breakers(&mut self, config: Option<BreakerConfig>) -> Result<(), QrioError> {
        self.configure_breakers_unjournaled(config);
        self.journal_command(Command::ConfigureBreakers { config })?;
        Ok(())
    }

    /// Install a fresh breaker board (or none), free of journaling.
    fn configure_breakers_unjournaled(&mut self, config: Option<BreakerConfig>) {
        self.breakers = config.map(BreakerBoard::new);
    }

    /// The circuit-breaker board, when breakers are configured.
    pub fn breakers(&self) -> Option<&BreakerBoard> {
        self.breakers.as_ref()
    }

    // --- Control plane -------------------------------------------------------------------

    /// Swap the control-plane transport, rebuilding every node's agent on
    /// the new one. [`TransportMode::InProc`] (the default) runs agents in
    /// this thread, deterministically; [`TransportMode::Threaded`] moves
    /// them onto real worker threads over `mpsc` channels. Agents are pure
    /// functions of their per-node command streams, so final results are
    /// byte-identical in every mode and at every thread count.
    pub fn set_transport(&mut self, mode: TransportMode) {
        let transport: Box<dyn Transport> = match mode {
            TransportMode::InProc => Box::new(InProcTransport::new()),
            TransportMode::Threaded { threads } => Box::new(ChannelTransport::new(threads)),
        };
        self.control.install(transport, mode);
        self.bind_agents(true);
    }

    /// The active control-plane transport mode.
    pub fn transport_mode(&self) -> TransportMode {
        self.control.mode()
    }

    /// Short name of the active transport (`"in-proc"` / `"threaded"`).
    pub fn transport_mode_name(&self) -> &'static str {
        self.control.mode_name()
    }

    /// The observed-state table of the reconcile loop: the last decoded
    /// [`qrio_proto::NodeReport`] per node, as drained off the transport.
    pub fn observed_nodes(&self) -> &std::collections::BTreeMap<String, ObservedNode> {
        self.control.observed()
    }

    /// The desired-state table of the reconcile loop: for every device with
    /// queued bindings, the job that should run on the next cycle.
    pub fn desired_bindings(&self) -> Vec<(String, String)> {
        self.plan_executions()
    }

    /// Start recording every control-plane frame (both directions) into an
    /// in-memory trace of concatenated encoded envelopes — the input format
    /// of the `qrio-lint` envelope lints.
    pub fn enable_control_trace(&mut self) {
        self.control.enable_trace();
    }

    /// Take the recorded control-plane trace, leaving recording enabled.
    pub fn take_control_trace(&mut self) -> Vec<u8> {
        self.control.take_trace()
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

    /// Read-only access to the meta server.
    pub fn meta(&self) -> &MetaServer {
        &self.meta
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

    /// Report load telemetry for a set of devices to the meta server, so
    /// telemetry-aware strategies (`weighted`, `min_queue`) score against
    /// these numbers on the next [`Qrio::schedule`] call.
    ///
    /// [`Qrio::tick`] refreshes telemetry from the cluster registry itself;
    /// this hook exists for virtual-time simulators whose queue model — not
    /// the cluster's bound-job count — is the truth about device load.
    pub fn report_telemetry(
        &mut self,
        reports: impl IntoIterator<Item = (String, DeviceTelemetry)>,
    ) {
        let reports: Vec<(String, DeviceTelemetry)> = reports.into_iter().collect();
        self.report_telemetry_unjournaled(reports.iter().cloned());
        // Infallible signature: a journal failure poisons durability (see
        // `Qrio::durability_error`) instead of surfacing here. The journal
        // carries the *raw* reports; the breaker overlay is re-derived on
        // replay so it can never drift from the board's state.
        let _ = self.journal_command(Command::Telemetry { reports });
    }

    /// Apply telemetry reports, overlaying each device's circuit-breaker
    /// health penalty (when breakers are configured) before the meta server
    /// stores them. Shared by the public path and journal replay so both
    /// derive the identical overlay.
    fn report_telemetry_unjournaled(
        &mut self,
        reports: impl IntoIterator<Item = (String, DeviceTelemetry)>,
    ) {
        let overlaid: Vec<(String, DeviceTelemetry)> = reports
            .into_iter()
            .map(|(device, mut telemetry)| {
                if let Some(board) = &self.breakers {
                    telemetry.health_penalty = board.health_penalty(&device);
                }
                (device, telemetry)
            })
            .collect();
        self.meta.update_telemetry_bulk(overlaid);
    }

    /// Report the current per-node load (queue depth, classical utilization)
    /// from the cluster registry to the meta server. Runs automatically
    /// before every `tick()` admission decision.
    fn sync_telemetry(&mut self) {
        for (device, load) in self.cluster.node_loads() {
            let health_penalty = self
                .breakers
                .as_ref()
                .map_or(0.0, |board| board.health_penalty(&device));
            self.meta.update_telemetry(
                device,
                DeviceTelemetry {
                    queue_depth: load.active_jobs,
                    utilization: load.utilization(),
                    health_penalty,
                },
            );
        }
    }

    // --- Non-blocking lifecycle ----------------------------------------------------------

    /// Submit a job without blocking: upload its metadata to the meta server
    /// (strategy validation runs here), containerize it, push the image and
    /// admit the job to the scheduling queue. Returns as soon as the job is
    /// `Queued`; nothing has been scheduled or executed yet — drive the
    /// lifecycle with [`Qrio::tick`] / [`Qrio::run_until_idle`] and read the
    /// result with [`Qrio::outcome`].
    ///
    /// A job that later turns out to be unschedulable ends in
    /// [`JobState::Failed`] (observable via [`Qrio::status`]) — that is not
    /// an error of `enqueue` itself.
    ///
    /// # Errors
    ///
    /// Returns an error when the request is rejected up front: a duplicate
    /// job name, strategy validation failure, or an inconsistent request. No
    /// metadata or image is retained in that case.
    pub fn enqueue(&mut self, request: &JobRequest) -> Result<JobId, QrioError> {
        let id = self.enqueue_unjournaled(request)?;
        // Only successful admissions are journaled: every failure path above
        // rolls back fully, so replaying the successes alone reproduces the
        // exact state — and rejected requests never burden recovery.
        self.journal_command(Command::Enqueue {
            request: Box::new(request.clone()),
        })?;
        Ok(id)
    }

    fn enqueue_unjournaled(&mut self, request: &JobRequest) -> Result<JobId, QrioError> {
        if self.cluster.job(&request.job_name).is_some() {
            return Err(QrioError::Cluster(ClusterError::DuplicateJob(
                request.job_name.clone(),
            )));
        }
        // 0. Optional pre-admission gate: reject doomed requests before any
        //    metadata, image or lifecycle state exists for them.
        if let Some(gate) = &self.admission_gate {
            let fleet: Vec<Backend> = self.cluster.nodes().map(|n| n.backend().clone()).collect();
            if let Err(reason) = gate.check(request, &fleet) {
                return Err(QrioError::AdmissionRejected {
                    job: request.job_name.clone(),
                    reason,
                });
            }
        }
        // 1. Visualizer → meta server: upload the job metadata (Table 1,
        //    generalized): the strategy reference plus the circuit when one
        //    was provided. The strategy's own validation hook runs here.
        let qasm_text = (!request.qasm.is_empty()).then_some(request.qasm.as_str());
        self.meta
            .upload_job_metadata(&request.job_name, &request.strategy, qasm_text)?;

        // 2. Visualizer → master server: containerize and create the job
        //    spec. A failure here must not leak the metadata uploaded above.
        let containerized = match containerize(request) {
            Ok(containerized) => containerized,
            Err(err) => {
                self.meta.remove_job_metadata(&request.job_name);
                return Err(err);
            }
        };
        let image_name = containerized.image.name().to_string();
        self.cluster.push_image(containerized.image);
        // Currently unreachable (submit_job only fails on DuplicateJob,
        // pre-checked above) — kept as rollback defense in case the
        // cluster's submission surface grows more failure modes.
        if let Err(err) = self.cluster.submit_job(containerized.spec) {
            self.meta.remove_job_metadata(&request.job_name);
            self.remove_image_if_unreferenced(&image_name, &request.job_name);
            return Err(err.into());
        }

        // 3. Lifecycle bookkeeping: Submitted → Queued, admission queue.
        //    The deadline is anchored to the admission clock here.
        self.lifecycle
            .admit_new(&request.job_name, request.priority, request.deadline);
        Ok(JobId::new(&request.job_name))
    }

    /// Enqueue a whole batch, returning one result per request in order.
    /// A rejected request (duplicate name, invalid strategy...) does not
    /// abort the rest of the batch.
    pub fn enqueue_all<'r>(
        &mut self,
        requests: impl IntoIterator<Item = &'r JobRequest>,
    ) -> Vec<Result<JobId, QrioError>> {
        requests.into_iter().map(|r| self.enqueue(r)).collect()
    }

    /// Cancel a job that has not started running.
    ///
    /// `Queued` jobs leave the admission queue; `Scheduled` jobs release
    /// their device binding and reserved resources; `Retrying` jobs are
    /// withdrawn mid-backoff. Either way the job ends in
    /// [`JobState::Cancelled`] and its metadata and image are garbage-
    /// collected.
    ///
    /// # Errors
    ///
    /// Deterministically returns [`ClusterError::PhaseConflict`] (wrapped)
    /// for jobs that are `Running` or already terminal — cancellation never
    /// rewrites history — and an unknown-job error for ids never enqueued.
    pub fn cancel(&mut self, id: &JobId) -> Result<(), QrioError> {
        self.cancel_unjournaled(id)?;
        // Failed cancellations mutate nothing, so only successes are
        // journaled.
        self.journal_command(Command::Cancel {
            job: id.to_string(),
        })?;
        Ok(())
    }

    fn cancel_unjournaled(&mut self, id: &JobId) -> Result<(), QrioError> {
        let status = self.job_status(id)?;
        let state = status.state;
        // The event names the device whose binding the cancellation frees
        // (None for jobs cancelled before they were bound).
        let node = status.node.clone();
        match state {
            // A Retrying job is cancellable mid-backoff: its cluster record
            // is back in `Pending` (requeued at the retry decision), so the
            // cluster's Pending arm handles it.
            JobState::Queued | JobState::Scheduled | JobState::Retrying => {
                self.cluster.cancel_job(id.as_str(), "cancelled by user")?;
                self.lifecycle.remove_pending(id.as_str());
                self.lifecycle.remove_from_device_queues(id.as_str());
                self.lifecycle.record(
                    id.as_str(),
                    JobState::Cancelled,
                    node,
                    Some("cancelled by user".to_string()),
                );
                self.cleanup_terminal(id.as_str());
                Ok(())
            }
            other => Err(QrioError::Cluster(ClusterError::PhaseConflict {
                job: id.to_string(),
                action: "cancel".to_string(),
                phase: other.to_string(),
            })),
        }
    }

    /// The current lifecycle state of a job.
    ///
    /// # Errors
    ///
    /// Returns an error for ids that were never enqueued.
    pub fn status(&self, id: &JobId) -> Result<JobState, QrioError> {
        Ok(self.job_status(id)?.state)
    }

    /// The full status snapshot of a job: state, node, reason, priority and
    /// the timestamped transition history.
    ///
    /// # Errors
    ///
    /// Returns an error for ids that were never enqueued.
    pub fn job_status(&self, id: &JobId) -> Result<&JobStatus, QrioError> {
        self.lifecycle
            .jobs
            .get(id.as_str())
            .map(|tracked| &tracked.status)
            .ok_or_else(|| QrioError::UnknownJob(id.to_string()))
    }

    /// The outcome of a job that ran to completion.
    ///
    /// # Errors
    ///
    /// For a `Failed` job this returns the original failure (the same error
    /// the blocking `submit` would have surfaced); for a `Cancelled` job a
    /// [`QrioError::JobCancelled`]; for a job still in flight a
    /// [`QrioError::JobNotFinished`].
    pub fn outcome(&self, id: &JobId) -> Result<JobOutcome, QrioError> {
        let tracked = self
            .lifecycle
            .jobs
            .get(id.as_str())
            .ok_or_else(|| QrioError::UnknownJob(id.to_string()))?;
        match tracked.status.state {
            JobState::Succeeded => {
                let job = self
                    .cluster
                    .job(id.as_str())
                    .expect("succeeded jobs stay in the cluster store");
                Ok(JobOutcome {
                    decision: tracked
                        .decision
                        .clone()
                        .expect("succeeded jobs were scheduled"),
                    counts: job.result_counts().to_vec(),
                    achieved_fidelity: job.achieved_fidelity(),
                    logs: job.logs().to_vec(),
                })
            }
            JobState::Cancelled => Err(QrioError::JobCancelled(id.to_string())),
            JobState::Failed => Err(tracked.failure.clone().unwrap_or_else(|| {
                QrioError::Cluster(ClusterError::ExecutionFailed {
                    job: id.to_string(),
                    reason: tracked
                        .status
                        .reason
                        .clone()
                        .unwrap_or_else(|| "job failed".to_string()),
                })
            })),
            _ => Err(QrioError::JobNotFinished(id.to_string())),
        }
    }

    /// The watch log from `cursor` onward — every [`JobEvent`] with
    /// `seq >= cursor`, in order. Pass `0` for the full history; pass the
    /// previous `last.seq + 1` (or the running event count) to resume
    /// without missing or duplicating events, Kubernetes-watch style.
    ///
    /// # Beyond-the-end cursors
    ///
    /// A cursor at or past the end of the log is **not** an error: it is
    /// clamped to the log length and yields an empty slice. `watch(len)`,
    /// `watch(len + 1)` and `watch(u64::MAX)` all return `&[]` — so a poller
    /// that resumes from `last.seq + 1` reads "no new events yet" rather
    /// than panicking when nothing happened between polls. This contract is
    /// pinned by a test and will not change to a typed error.
    pub fn watch(&self, cursor: u64) -> &[JobEvent] {
        let start = (cursor as usize).min(self.lifecycle.events.len());
        &self.lifecycle.events[start..]
    }

    /// The virtual timestamp of the service loop: how many [`Qrio::tick`]
    /// cycles have run.
    pub fn now(&self) -> u64 {
        self.lifecycle.clock
    }

    // --- Service loop --------------------------------------------------------------------

    /// Run one deterministic service cycle.
    ///
    /// 1. **Admission**: the queue drains in priority order (FIFO within a
    ///    priority; ties never depend on map iteration order). Each job is
    ///    bound via filter + meta-server ranking against fresh cluster
    ///    telemetry. Jobs no device can host *right now* stay `Queued`; jobs
    ///    no device could *ever* host end `Failed`.
    /// 2. **Execution**: each device (in name order) runs the head of its
    ///    queue to completion.
    pub fn tick(&mut self) -> TickReport {
        let report = self.tick_unjournaled();
        // Infallible signature: a journal failure poisons durability (see
        // `Qrio::durability_error`) instead of surfacing here.
        let _ = self.journal_command(Command::Tick);
        report
    }

    fn tick_unjournaled(&mut self) -> TickReport {
        self.lifecycle.clock += 1;
        let mut report = TickReport {
            tick: self.lifecycle.clock,
            ..TickReport::default()
        };
        // Circuit breakers: every Open breaker whose timer expired moves to
        // HalfOpen and its device is uncordoned for probation.
        if let Some(board) = self.breakers.as_mut() {
            for device in board.tick(self.lifecycle.clock) {
                if let Some(node) = self.cluster.node_mut(&device) {
                    node.uncordon();
                }
            }
        }
        // Deadline expiry: Queued / Retrying jobs past their deadline fail
        // with DeadlineExceeded before anything else happens this cycle —
        // the deadline dominates an elapsed backoff.
        for name in self.expired_deadline_jobs() {
            self.expire_deadline(&name);
            report.expired.push(JobId::new(&name));
        }
        // Retry promotion: Retrying jobs whose backoff elapsed re-enter the
        // admission queue with a fresh admission sequence.
        for name in self.due_retry_jobs() {
            let priority = self.lifecycle.jobs[&name].status.priority;
            self.lifecycle.record(
                &name,
                JobState::Queued,
                None,
                Some("backoff elapsed; re-queued for retry".to_string()),
            );
            self.lifecycle.enqueue_pending(&name, priority);
        }
        // Admission.
        for name in self.lifecycle.pending_in_order() {
            match self.admit_and_bind(&name, false) {
                Admitted::Scheduled(_) => report.scheduled.push(JobId::new(&name)),
                Admitted::Deferred => report.deferred.push(JobId::new(&name)),
                Admitted::Failed => report.failed.push(JobId::new(&name)),
            }
        }
        // Execution, as a reconcile step: diff the desired-state table (the
        // head of every device queue is the binding that *should* run now)
        // against the observed per-node reports, then emit one `Run` command
        // per planned pair — one job per device per tick, device-name order.
        for (device, name) in self.plan_executions() {
            let popped = self
                .lifecycle
                .device_queues
                .get_mut(&device)
                .and_then(|queue| queue.pop_front());
            debug_assert_eq!(popped.as_deref(), Some(name.as_str()));
            let _ = self.execute_bound(&name);
            let bucket = match self.lifecycle.jobs[&name].status.state {
                JobState::Retrying => &mut report.retried,
                _ => &mut report.completed,
            };
            bucket.push(JobId::new(&name));
        }
        self.lifecycle
            .device_queues
            .retain(|_, queue| !queue.is_empty());
        // Fold any still-unread reports (fire-and-forget acknowledgements,
        // telemetry) into the observed table. With real worker threads these
        // may lag the commands that caused them; this is where stale
        // observations converge.
        self.control.drain();
        report
    }

    /// The reconcile diff: the next `(device, job)` pair to dispatch for
    /// every device, in name order. Desired state is the head of each device
    /// queue; a device whose last observed report shows an unfinished run is
    /// skipped until its phase report lands (with the blocking round-trip
    /// dispatch below this never triggers, but the plan stays correct for
    /// transports that acknowledge asynchronously).
    fn plan_executions(&self) -> Vec<(String, String)> {
        self.lifecycle
            .device_queues
            .iter()
            .filter_map(|(device, queue)| {
                let job = queue.front()?;
                Some((device.clone(), job.clone()))
            })
            .collect()
    }

    /// Queued / Retrying jobs whose absolute deadline has passed, in name
    /// order (deterministic: `lifecycle.jobs` is a sorted map).
    fn expired_deadline_jobs(&self) -> Vec<String> {
        let now = self.lifecycle.clock;
        self.lifecycle
            .jobs
            .iter()
            .filter(|(_, tracked)| {
                matches!(tracked.status.state, JobState::Queued | JobState::Retrying)
                    && tracked.deadline_at.is_some_and(|at| now > at)
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Retrying jobs whose backoff horizon has been reached, in name order.
    fn due_retry_jobs(&self) -> Vec<String> {
        let now = self.lifecycle.clock;
        self.lifecycle
            .jobs
            .iter()
            .filter(|(_, tracked)| {
                tracked.status.state == JobState::Retrying && tracked.not_before <= now
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Terminally fail a Queued / Retrying job whose deadline passed.
    fn expire_deadline(&mut self, name: &str) {
        let tracked = &self.lifecycle.jobs[name];
        let deadline = tracked.deadline_at.expect("expired jobs carry a deadline");
        let node = tracked.status.node.clone();
        let err = QrioError::Cluster(ClusterError::DeadlineExceeded {
            job: name.to_string(),
            deadline,
        });
        // The cluster job is `Pending` in both source states (Queued before
        // scheduling; Retrying jobs were requeued at the retry decision) —
        // withdraw it so the cluster queue and logs agree.
        let _ = self
            .cluster
            .cancel_job(name, format!("deadline exceeded at t={deadline}"));
        self.lifecycle.remove_pending(name);
        self.lifecycle.remove_from_device_queues(name);
        self.lifecycle
            .record(name, JobState::Failed, node, Some(err.to_string()));
        if let Some(tracked) = self.lifecycle.jobs.get_mut(name) {
            tracked.failure = Some(err);
        }
        self.cleanup_terminal(name);
    }

    /// Tick until every enqueued job reached a terminal state. When a cycle
    /// makes no progress (jobs deferred forever — e.g. waiting on a device
    /// that stays cordoned), the stragglers are deterministically failed
    /// rather than spinning. Returns the ids of the jobs that reached a
    /// terminal state during this call, in event order.
    pub fn run_until_idle(&mut self) -> Vec<JobId> {
        let first_new_event = self.lifecycle.events.len();
        let mut force_next = false;
        while self.lifecycle.has_pending()
            || self.lifecycle.has_bound_work()
            || self.lifecycle.has_waiting_retries()
        {
            if force_next {
                // Fixed point: nothing scheduled, ran or failed last cycle.
                // Force an admission verdict for every straggler: either it
                // schedules after all, or the cluster records why it cannot.
                // (Jobs waiting out a retry backoff are not stragglers —
                // ticking the clock forward is exactly their progress.)
                for name in self.lifecycle.pending_in_order() {
                    let _ = self.force_admit(&name);
                }
                if self.lifecycle.has_pending()
                    && !self.lifecycle.has_bound_work()
                    && !self.lifecycle.has_waiting_retries()
                {
                    break; // Defensive: nothing more can change.
                }
            }
            let report = self.tick();
            force_next = !report.made_progress();
        }
        self.lifecycle.events[first_new_event..]
            .iter()
            .filter(|event| event.to.is_terminal())
            .map(|event| event.job.clone())
            .collect()
    }

    /// A forced admission verdict for one straggler, journaled so recovery
    /// replays the fixed-point arms of `run_until_idle` / `submit` exactly.
    fn force_admit(&mut self, name: &str) -> Admitted {
        let verdict = self.admit_and_bind(name, true);
        // Infallible signature: a journal failure poisons durability.
        let _ = self.journal_command(Command::ForceAdmit {
            job: name.to_string(),
        });
        verdict
    }

    /// Admit one queued job and, when it schedules, append it to the tail
    /// of its device's execution queue — the single bookkeeping path every
    /// service-loop admission (regular or forced) goes through.
    fn admit_and_bind(&mut self, name: &str, force: bool) -> Admitted {
        let verdict = self.admit(name, force);
        if let Admitted::Scheduled(device) = &verdict {
            self.lifecycle
                .device_queues
                .entry(device.clone())
                .or_default()
                .push_back(name.to_string());
        }
        verdict
    }

    /// Decide admission for one queued job. With `force`, a job that would
    /// be deferred is pushed through the scheduler anyway so it reaches a
    /// recorded verdict.
    fn admit(&mut self, name: &str, force: bool) -> Admitted {
        let job = self
            .cluster
            .job(name)
            .expect("queued jobs exist in the cluster store");
        let feasible_now = self
            .cluster
            .nodes()
            .any(|node| node.rejection(job).is_none());
        if !feasible_now && !force {
            // Resources may free up or a cordon may lift: stay Queued unless
            // no node could ever host the job. "Ever" is the scheduler's own
            // feasibility rule asked of a pristine (idle, uncordoned) replica
            // of each node, so the Deferred/Failed split cannot drift from it.
            let could_ever = self.cluster.nodes().any(|node| {
                let pristine = Node::from_backend(node.backend().clone(), node.capacity());
                pristine.rejection(job).is_none()
            });
            if could_ever {
                return Admitted::Deferred;
            }
        }
        self.sync_telemetry();
        match self.schedule_queued(name) {
            Ok(decision) => Admitted::Scheduled(decision.node),
            // A rejected binding is transient (schedule_queued left the job
            // Queued): report it as deferred, not failed, so the service
            // loop retries instead of mislabelling a live job.
            Err(QrioError::Cluster(ClusterError::BindingRejected { .. })) => Admitted::Deferred,
            Err(_) => Admitted::Failed,
        }
    }

    // --- Lifecycle primitives (also public for virtual-time simulators) ------------------

    /// Bind one `Queued` job to a device: filter the fleet, rank the
    /// survivors through the meta server, reserve resources on the winner.
    ///
    /// Unlike [`Qrio::tick`], this primitive does **not** refresh telemetry
    /// from the cluster registry first — it scores against whatever
    /// [`Qrio::report_telemetry`] last reported, which is exactly what
    /// virtual-time simulators need. A job bound through this primitive is
    /// the caller's to run (via [`Qrio::execute`]) — the `tick()` service
    /// loop only executes jobs it admitted itself.
    ///
    /// # Errors
    ///
    /// Returns an error when the job is not `Queued`, or when scheduling
    /// fails. An unschedulable job ends `Failed` (terminal); a job whose
    /// binding was rejected for transient resource reasons stays `Queued`.
    pub fn schedule(&mut self, id: &JobId) -> Result<ScheduleDecision, QrioError> {
        let result = self.schedule_unjournaled(id);
        // A scheduling attempt on a known job mutates state even when it
        // fails (Failed transitions, cluster filter events), so the command
        // is journaled on attempt — only unknown-job lookups (pure no-ops)
        // are skipped.
        if !matches!(result, Err(QrioError::UnknownJob(_))) {
            self.journal_command(Command::Schedule {
                job: id.to_string(),
            })?;
        }
        result
    }

    fn schedule_unjournaled(&mut self, id: &JobId) -> Result<ScheduleDecision, QrioError> {
        match self.status(id)? {
            JobState::Queued => self.schedule_queued(id.as_str()),
            other => Err(QrioError::Cluster(ClusterError::PhaseConflict {
                job: id.to_string(),
                action: "schedule".to_string(),
                phase: other.to_string(),
            })),
        }
    }

    /// Execute one `Scheduled` job on its bound device, driving it through
    /// `Running` to `Succeeded` or `Failed`.
    ///
    /// # Errors
    ///
    /// Returns an error when the job is not `Scheduled`, or propagates the
    /// execution failure (the job then ends `Failed`).
    pub fn execute(&mut self, id: &JobId) -> Result<(), QrioError> {
        let result = self.execute_unjournaled(id);
        // Same journaling rule as `schedule`: failed executions still drive
        // the job to `Failed`, so attempts on known jobs are journaled.
        if !matches!(result, Err(QrioError::UnknownJob(_))) {
            self.journal_command(Command::Execute {
                job: id.to_string(),
            })?;
        }
        result
    }

    fn execute_unjournaled(&mut self, id: &JobId) -> Result<(), QrioError> {
        match self.status(id)? {
            JobState::Scheduled => {
                self.lifecycle.remove_from_device_queues(id.as_str());
                self.execute_bound(id.as_str())
            }
            other => Err(QrioError::Cluster(ClusterError::PhaseConflict {
                job: id.to_string(),
                action: "execute".to_string(),
                phase: other.to_string(),
            })),
        }
    }

    /// Interrupt a `Scheduled` job whose device died under it: the job
    /// passes through `Running` straight into a device-flap fault without
    /// the runner being invoked, then flows through its retry policy like
    /// any other failure. Virtual-time simulators call this when an outage
    /// lands on a device with a job mid-execution, so the work is visibly
    /// lost (and retried) instead of silently completing.
    ///
    /// # Errors
    ///
    /// Always errs on success: the interrupt surfaces as
    /// [`ClusterError::InjectedFault`] (wrapped). Unknown ids and jobs not
    /// `Scheduled` report a phase conflict instead.
    pub fn interrupt(&mut self, id: &JobId) -> Result<(), QrioError> {
        let result = self.interrupt_unjournaled(id);
        // Same journaling rule as `execute`: the interrupt mutates state
        // whenever the job exists, so attempts on known jobs are journaled.
        if !matches!(result, Err(QrioError::UnknownJob(_))) {
            self.journal_command(Command::Interrupt {
                job: id.to_string(),
            })?;
        }
        result
    }

    fn interrupt_unjournaled(&mut self, id: &JobId) -> Result<(), QrioError> {
        match self.status(id)? {
            JobState::Scheduled => {
                let name = id.as_str();
                self.lifecycle.remove_from_device_queues(name);
                let node = self
                    .lifecycle
                    .jobs
                    .get(name)
                    .and_then(|tracked| tracked.status.node.clone());
                self.lifecycle
                    .record(name, JobState::Running, node.clone(), None);
                let attempt = self.lifecycle.jobs.get(name).map_or(0, |t| t.attempt);
                let result = self.cluster.interrupt_job(name, attempt);
                self.settle_execution(name, node, result)
            }
            other => Err(QrioError::Cluster(ClusterError::PhaseConflict {
                job: id.to_string(),
                action: "interrupt".to_string(),
                phase: other.to_string(),
            })),
        }
    }

    /// Promote a `Retrying` job straight to `Queued`, ignoring its backoff
    /// horizon — the retry primitive of virtual-time simulators, which own
    /// the backoff timing themselves (they model it in wall-clock
    /// milliseconds, not service-loop ticks) and never call [`Qrio::tick`].
    ///
    /// # Errors
    ///
    /// Returns a phase conflict for jobs not in `Retrying`, an unknown-job
    /// error for ids never enqueued, or the journal failure.
    pub fn kick_retry(&mut self, id: &JobId) -> Result<(), QrioError> {
        let result = self.kick_retry_unjournaled(id);
        if result.is_ok() {
            self.journal_command(Command::KickRetry {
                job: id.to_string(),
            })?;
        }
        result
    }

    fn kick_retry_unjournaled(&mut self, id: &JobId) -> Result<(), QrioError> {
        match self.status(id)? {
            JobState::Retrying => {
                let name = id.as_str();
                let priority = self.lifecycle.jobs[name].status.priority;
                self.lifecycle.record(
                    name,
                    JobState::Queued,
                    None,
                    Some("retry kicked; re-queued".to_string()),
                );
                self.lifecycle.enqueue_pending(name, priority);
                Ok(())
            }
            other => Err(QrioError::Cluster(ClusterError::PhaseConflict {
                job: id.to_string(),
                action: "kick_retry".to_string(),
                phase: other.to_string(),
            })),
        }
    }

    /// Force a device's `Open` circuit breaker into probation now,
    /// uncordoning the device — the breaker primitive of virtual-time
    /// simulators, which never call [`Qrio::tick`] (whose timer would
    /// otherwise probe automatically). Returns whether probation began
    /// (`false` when breakers are off or the breaker was not `Open`).
    ///
    /// # Errors
    ///
    /// Returns an error only when the journal append fails.
    pub fn probe_device(&mut self, device: &str) -> Result<bool, QrioError> {
        let probing = self.probe_device_unjournaled(device);
        if probing {
            self.journal_command(Command::Probe {
                device: device.to_string(),
            })?;
        }
        Ok(probing)
    }

    fn probe_device_unjournaled(&mut self, device: &str) -> bool {
        let Some(board) = self.breakers.as_mut() else {
            return false;
        };
        if board.force_probe(device, self.lifecycle.clock) {
            if let Some(node) = self.cluster.node_mut(device) {
                node.uncordon();
            }
            // Ask the agent for a fresh status frame so the observed table
            // reflects the probed node.
            let _ = self
                .control
                .send_command(device, self.lifecycle.clock, NodeCommand::Probe);
            self.control.drain();
            true
        } else {
            false
        }
    }

    /// Re-rank a job over the nodes that can host it now, best (lowest
    /// score) first — the migration primitive: compare the fresh ranking
    /// against the job's current binding and [`Qrio::rebind`] when it
    /// improved. This is the scheduling cycle [`Qrio::schedule`] binds from,
    /// so every device it names would accept the job; what the job already
    /// holds on its current device counts as free there.
    ///
    /// # Errors
    ///
    /// An unknown id, a job-level meta-server error (e.g. the job's metadata
    /// is gone), or — when no device ranks — the reason: nothing feasible, or
    /// the error of a device that could not be scored.
    pub fn rank_ready(&self, id: &JobId) -> Result<Vec<(String, f64)>, QrioError> {
        let job = self
            .cluster
            .job(id.as_str())
            .ok_or_else(|| QrioError::UnknownJob(id.to_string()))?;
        let cycle = QrioScheduler::new(&self.meta).cycle(job, self.cluster.nodes())?;
        Ok(cycle.ranked(id.as_str())?)
    }

    /// Move a `Scheduled` (bound but not yet running) job to another device,
    /// releasing resources on the old node and reserving them on the new
    /// one. Rebinding a `Scheduled` job onto its current device is a no-op.
    /// The job stays `Scheduled`; the move is recorded in the watch log.
    ///
    /// # Errors
    ///
    /// Propagates the cluster's rebind errors (unknown job or node, wrong
    /// phase — including a same-device rebind of a job that is no longer
    /// `Scheduled` — target full); the original binding survives an error.
    pub fn rebind(&mut self, id: &JobId, target: &str) -> Result<(), QrioError> {
        let result = self.rebind_unjournaled(id, target);
        // Rebind attempts on known jobs may log cluster events even when
        // rejected, so they are journaled on attempt like `schedule`.
        if !matches!(result, Err(QrioError::UnknownJob(_))) {
            self.journal_command(Command::Rebind {
                job: id.to_string(),
                target: target.to_string(),
            })?;
        }
        result
    }

    fn rebind_unjournaled(&mut self, id: &JobId, target: &str) -> Result<(), QrioError> {
        let status = self.job_status(id)?;
        let from = status
            .node
            .clone()
            .unwrap_or_else(|| "<unbound>".to_string());
        // The no-op arc exists only for jobs that are actually rebindable;
        // anything else falls through so the cluster reports the phase
        // conflict instead of a silent Ok.
        if status.state == JobState::Scheduled && from == target {
            return Ok(());
        }
        self.cluster.rebind_job(id.as_str(), target)?;
        // Keep the tick()-loop queues consistent: the job leaves its old
        // device queue and joins the tail of the new one.
        let was_queued = self
            .lifecycle
            .device_queues
            .values()
            .any(|queue| queue.iter().any(|name| name == id.as_str()));
        self.lifecycle.remove_from_device_queues(id.as_str());
        if was_queued {
            self.lifecycle
                .device_queues
                .entry(target.to_string())
                .or_default()
                .push_back(id.as_str().to_string());
        }
        // The stored decision must follow the job: outcome() reports the
        // device that will actually run it. The candidate list keeps
        // documenting the original scheduling cycle; the score moves with
        // the node when that cycle ranked the target. A forced migration
        // outside the original ranking has no comparable score — infinity
        // marks it (sorting last under lower-is-better) without poisoning
        // the derived `PartialEq` the way NaN would.
        if let Some(decision) = self
            .lifecycle
            .jobs
            .get_mut(id.as_str())
            .and_then(|tracked| tracked.decision.as_mut())
        {
            decision.node = target.to_string();
            decision.score = decision
                .candidates
                .iter()
                .find(|(name, _)| name == target)
                .map_or(f64::INFINITY, |(_, score)| *score);
        }
        self.lifecycle.record(
            id.as_str(),
            JobState::Scheduled,
            Some(target.to_string()),
            Some(format!("rebound from '{from}' to '{target}'")),
        );
        Ok(())
    }

    /// Schedule a job known to be `Queued`: run the scheduling cycle, hand
    /// what it found to the cluster to bind, and update lifecycle state.
    fn schedule_queued(&mut self, name: &str) -> Result<ScheduleDecision, QrioError> {
        let job = self
            .cluster
            .job(name)
            .expect("queued jobs exist in the cluster store");
        let bound = match QrioScheduler::new(&self.meta).cycle(job, self.cluster.nodes()) {
            Ok(cycle) => {
                let skipped: Vec<(String, String)> = cycle
                    .skipped
                    .into_iter()
                    .map(|(device, err)| (device, err.to_string()))
                    .collect();
                self.cluster
                    .bind_job(name, cycle.ranking, cycle.rejected, &skipped)
            }
            // Job-level: no device was at fault, so none is blamed.
            Err(err) => Err(self.cluster.fail_unschedulable(name, err.to_string())),
        };
        match bound {
            Ok(decision) => {
                self.lifecycle.remove_pending(name);
                self.lifecycle
                    .record(name, JobState::Scheduled, Some(decision.node.clone()), None);
                if let Some(tracked) = self.lifecycle.jobs.get_mut(name) {
                    tracked.decision = Some(decision.clone());
                }
                Ok(decision)
            }
            Err(err @ ClusterError::BindingRejected { .. }) => {
                // Transient: the resources were claimed during scoring. The
                // job stays Queued and may be rescheduled later.
                Err(err.into())
            }
            Err(err) => {
                let qerr: QrioError = err.into();
                self.lifecycle.remove_pending(name);
                self.lifecycle
                    .record(name, JobState::Failed, None, Some(qerr.to_string()));
                if let Some(tracked) = self.lifecycle.jobs.get_mut(name) {
                    tracked.failure = Some(qerr.clone());
                }
                self.cleanup_terminal(name);
                Err(qerr)
            }
        }
    }

    /// Run a job known to be `Scheduled` (already removed from any device
    /// queue), updating lifecycle state. The attempt number passed to the
    /// cluster makes injected-fault decisions attempt-aware, so a retried
    /// job can draw a different verdict than its first run.
    fn execute_bound(&mut self, name: &str) -> Result<(), QrioError> {
        let node = self
            .lifecycle
            .jobs
            .get(name)
            .and_then(|tracked| tracked.status.node.clone());
        self.lifecycle
            .record(name, JobState::Running, node.clone(), None);
        let attempt = self.lifecycle.jobs.get(name).map_or(0, |t| t.attempt);
        let result = self.dispatch_attempt(name, attempt);
        self.settle_execution(name, node, result)
    }

    /// One execution attempt over the control plane: prepare the work order
    /// locally (phase check, image pull, `JobStarted`), ship it to the
    /// node's agent as an encoded `Run` envelope across the transport, block
    /// for the matching `Phase` report, and settle the verdict back into the
    /// cluster. The agent holds the fault-plan replica, so injected-fault
    /// verdicts are drawn device-side from the same pure decision function.
    ///
    /// A transport failure is settled like any failed attempt — the job is
    /// `Running` in the cluster by then, and only settling releases the node
    /// and keeps the cluster phase in step with the lifecycle state.
    fn dispatch_attempt(&mut self, name: &str, attempt: u32) -> Result<(), ClusterError> {
        let order = self.cluster.prepare_run(name, attempt)?;
        let verdict = match self.control.run(&order, self.lifecycle.clock) {
            Ok(verdict) => verdict,
            Err(ClusterError::ExecutionFailed { reason, .. }) => AttemptVerdict::Failed(reason),
            Err(other) => AttemptVerdict::Failed(other.to_string()),
        };
        self.cluster.settle_run(&order, verdict)
    }

    /// Fold one execution outcome into the lifecycle: feed the device's
    /// circuit breaker, then either record success, enter `Retrying` with a
    /// backoff horizon, or fail terminally (routing exhausted retry
    /// policies to the dead-letter queue). Shared by [`Qrio::execute`] /
    /// `tick()` execution and by [`Qrio::interrupt`].
    fn settle_execution(
        &mut self,
        name: &str,
        node: Option<String>,
        result: Result<(), ClusterError>,
    ) -> Result<(), QrioError> {
        // Every outcome on a device feeds its breaker; a trip cordons the
        // device so the scheduler steers around it.
        if let (Some(board), Some(device)) = (self.breakers.as_mut(), node.as_deref()) {
            let action = board.record_outcome(device, result.is_err(), self.lifecycle.clock);
            match action {
                Some(BreakerAction::Cordon) => {
                    if let Some(node) = self.cluster.node_mut(device) {
                        node.cordon();
                    }
                }
                Some(BreakerAction::Uncordon) => {
                    if let Some(node) = self.cluster.node_mut(device) {
                        node.uncordon();
                    }
                }
                None => {}
            }
        }
        match result {
            Ok(()) => {
                if let Some(tracked) = self.lifecycle.jobs.get_mut(name) {
                    tracked.attempt += 1;
                }
                self.lifecycle.record(name, JobState::Succeeded, node, None);
                Ok(())
            }
            Err(err) => {
                let policy = self.cluster.job(name).and_then(|job| job.spec().retry);
                let consumed = self.lifecycle.jobs.get(name).map_or(0, |t| t.attempt) + 1;
                if let Some(tracked) = self.lifecycle.jobs.get_mut(name) {
                    tracked.attempt = consumed;
                }
                let retryable = policy.is_some_and(|policy| {
                    consumed < policy.max_attempts && policy.retry_on.matches(&err)
                });
                let qerr: QrioError = err.into();
                if retryable {
                    let policy = policy.expect("retryable implies a policy");
                    // Backoff is a pure function of (seed, job, attempt) —
                    // byte-identical on journal replay. At least one tick so
                    // the job never re-queues within the same cycle.
                    let delay = policy
                        .backoff
                        .delay(self.runner.seed, name, consumed)
                        .max(1);
                    let not_before = self.lifecycle.clock + delay;
                    if let Some(tracked) = self.lifecycle.jobs.get_mut(name) {
                        tracked.not_before = not_before;
                    }
                    self.lifecycle.record(
                        name,
                        JobState::Retrying,
                        node,
                        Some(format!(
                            "attempt {consumed} failed: {qerr}; backing off {delay} ticks"
                        )),
                    );
                    // The cluster job goes back to Pending now; the
                    // lifecycle gate (Retrying until not_before) decides
                    // when it may actually re-bind.
                    let _ = self.cluster.requeue_job(name);
                } else {
                    self.lifecycle
                        .record(name, JobState::Failed, node, Some(qerr.to_string()));
                    if let Some(tracked) = self.lifecycle.jobs.get_mut(name) {
                        tracked.failure = Some(qerr.clone());
                    }
                    // A job that consumed every allowed attempt is a dead
                    // letter; one that failed on a non-retryable class (or
                    // had no policy) is a plain failure.
                    if policy.is_some_and(|policy| consumed >= policy.max_attempts) {
                        self.lifecycle.dead_letters.push(name.to_string());
                    }
                    self.cleanup_terminal(name);
                }
                Err(qerr)
            }
        }
    }

    /// Garbage-collect the artifacts of a job that reached a terminal
    /// failure or cancellation: its metadata leaves the meta server and its
    /// image leaves the registry (unless another live job still references
    /// the same image). The cluster's job record — phase, logs — survives as
    /// the queryable history.
    fn cleanup_terminal(&mut self, name: &str) {
        self.meta.remove_job_metadata(name);
        if let Some(image) = self.cluster.job(name).map(|job| job.spec().image.clone()) {
            self.remove_image_if_unreferenced(&image, name);
        }
    }

    /// Remove `image` from the registry unless a different non-terminal job
    /// still references it.
    fn remove_image_if_unreferenced(&mut self, image: &str, except_job: &str) {
        let referenced = self.cluster.jobs().any(|job| {
            job.name() != except_job && !job.phase().is_terminal() && job.spec().image == image
        });
        if !referenced {
            self.cluster.remove_image(image);
        }
    }

    // --- Durability ----------------------------------------------------------------------

    /// Turn on crash recovery: create a write-ahead journal at `path`
    /// (truncating any previous file there), write a genesis snapshot of the
    /// current state, and from now on journal every mutation before it is
    /// acknowledged. Recover later with [`Qrio::recover`].
    ///
    /// Custom ranking strategies and admission gates are live trait objects
    /// and are **not** journaled — deployments that install them must
    /// re-install them through [`Qrio::recover_with`]'s setup hook.
    ///
    /// # Errors
    ///
    /// Returns an error when durability is already enabled or when the
    /// journal file cannot be created or written.
    pub fn enable_durability(
        &mut self,
        path: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<(), QrioError> {
        if self.durability.is_some() {
            return Err(QrioError::InvalidRequest(
                "durability is already enabled".into(),
            ));
        }
        let journal = Journal::create(path.as_ref()).map_err(DurabilityError::Journal)?;
        self.durability = Some(Durability::new(
            journal,
            config.snapshot_every,
            config.sync_every_n_commands,
            config.compact_above_bytes,
            self.lifecycle.events.len() as u64,
        ));
        self.write_snapshot()?;
        Ok(())
    }

    /// Detach the journal, returning to in-memory-only operation. Returns
    /// the sticky durability error when the journal had already failed.
    /// The journal file is left on disk and stays recoverable up to the
    /// last successfully journaled command.
    pub fn disable_durability(&mut self) -> Option<DurabilityError> {
        self.durability
            .take()
            .and_then(|durability| durability.error().cloned())
    }

    /// Whether durability is enabled (and the journal has not been
    /// detached).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The sticky journal failure, if any. Infallible journaled operations
    /// ([`Qrio::tick`], [`Qrio::report_telemetry`]) cannot surface a journal
    /// error through their signatures — they poison durability instead, and
    /// this accessor is how a durable deployment notices.
    pub fn durability_error(&self) -> Option<&DurabilityError> {
        self.durability.as_ref().and_then(Durability::error)
    }

    /// Force the journal's bytes down to the storage device (`fdatasync`).
    /// Appends are write-through to the OS on every command, which survives
    /// process crashes; syncing additionally survives power loss. Virtual-
    /// time simulations typically never call this.
    ///
    /// # Errors
    ///
    /// Returns the sticky durability error, or the sync failure.
    pub fn sync_journal(&mut self) -> Result<(), QrioError> {
        match self.durability.as_mut() {
            Some(durability) => Ok(durability.sync()?),
            None => Ok(()),
        }
    }

    /// Write a snapshot record now, regardless of the configured cadence.
    ///
    /// # Errors
    ///
    /// Returns the sticky durability error, or the append failure.
    pub fn snapshot_now(&mut self) -> Result<(), QrioError> {
        self.write_snapshot()?;
        Ok(())
    }

    /// The snapshot record [`Qrio::snapshot_now`] would append: the full
    /// orchestrator state, encoded. Lets tools and tests obtain a well-formed
    /// snapshot without a journal file.
    ///
    /// Writes the fields of [`SnapshotState`], in its order, straight from
    /// the live stores: nothing is copied to be encoded.
    pub fn snapshot_record(&self) -> Record {
        let durability = self.durability.as_ref();
        let mut w = ByteWriter::new();
        (self.lifecycle.events.len() as u64).encode(&mut w);
        self.lifecycle.encode(&mut w);
        self.cluster.encode(&mut w);
        self.meta.encode(&mut w);
        self.runner.seed.encode(&mut w);
        self.default_node_resources.encode(&mut w);
        durability
            .map_or(0, Durability::snapshot_every)
            .encode(&mut w);
        durability.map_or(0, Durability::sync_every).encode(&mut w);
        durability
            .map_or(0, Durability::compact_above)
            .encode(&mut w);
        self.breakers.encode(&mut w);
        Record::new(RECORD_SNAPSHOT, RECORD_VERSION, w.into_bytes())
    }

    /// Journal one command plus the watch-log events it produced, then write
    /// a snapshot when the cadence says one is due. A no-op without
    /// durability.
    fn journal_command(&mut self, cmd: Command) -> Result<(), QrioError> {
        let Some(durability) = self.durability.as_mut() else {
            return Ok(());
        };
        durability.log_command(&cmd, &self.lifecycle.events)?;
        if durability.snapshot_due() {
            self.write_snapshot()?;
        }
        Ok(())
    }

    fn write_snapshot(&mut self) -> Result<(), DurabilityError> {
        if self.durability.is_none() {
            return Ok(());
        }
        let snapshot = self.snapshot_record();
        self.durability
            .as_mut()
            .expect("checked above")
            .log_snapshot(&snapshot)
    }

    /// Rebuild an orchestrator from a decoded snapshot. No journal is
    /// attached yet; the caller wires that after replay.
    fn from_snapshot(snapshot: SnapshotState) -> Self {
        let mut qrio = Qrio {
            cluster: snapshot.cluster,
            meta: snapshot.meta,
            runner: SimJobRunner::new(snapshot.runner_seed),
            default_node_resources: snapshot.default_node_resources,
            lifecycle: snapshot.lifecycle,
            admission_gate: None,
            durability: None,
            breakers: snapshot.breakers,
            control: ControlPlane::new_in_proc(),
        };
        // Snapshots carry no agent state: agents are pure functions of their
        // command streams, so rebuilding them from the restored cluster and
        // re-binding calibration + fault plan reproduces them exactly.
        qrio.bind_agents(true);
        qrio
    }

    /// Re-apply one journaled command during recovery. Results are
    /// deliberately ignored: the original run journaled the command after
    /// observing the same deterministic outcome, and the event-history
    /// verification after replay catches any true divergence.
    fn apply_command(&mut self, cmd: Command) -> Result<(), DurabilityError> {
        match cmd {
            Command::AddDevice {
                spec_text,
                resources,
            } => {
                let backend = backend_spec::from_spec(&spec_text)
                    .map_err(|err| DurabilityError::Malformed(format!("backend spec: {err}")))?;
                let _ = self.add_device_unjournaled(backend, resources);
            }
            Command::Recalibrate { spec_text } => {
                let backend = backend_spec::from_spec(&spec_text)
                    .map_err(|err| DurabilityError::Malformed(format!("backend spec: {err}")))?;
                let _ = self.recalibrate_unjournaled(backend);
            }
            Command::Telemetry { reports } => {
                self.report_telemetry_unjournaled(reports);
            }
            Command::Enqueue { request } => {
                let _ = self.enqueue_unjournaled(&request);
            }
            Command::Cancel { job } => {
                let _ = self.cancel_unjournaled(&JobId::new(&job));
            }
            Command::Tick => {
                let _ = self.tick_unjournaled();
            }
            Command::ForceAdmit { job } => {
                let _ = self.admit_and_bind(&job, true);
            }
            Command::Schedule { job } => {
                let _ = self.schedule_unjournaled(&JobId::new(&job));
            }
            Command::Execute { job } => {
                let _ = self.execute_unjournaled(&JobId::new(&job));
            }
            Command::Rebind { job, target } => {
                let _ = self.rebind_unjournaled(&JobId::new(&job), &target);
            }
            Command::Cordon { node } => {
                let _ = self.set_cordon_unjournaled(&node, true);
            }
            Command::Uncordon { node } => {
                let _ = self.set_cordon_unjournaled(&node, false);
            }
            Command::Heal => {
                let _ = self.heal_unjournaled();
            }
            Command::ConfigureFaults { injector } => {
                self.configure_faults_unjournaled(injector);
            }
            Command::ConfigureBreakers { config } => {
                self.configure_breakers_unjournaled(config);
            }
            Command::KickRetry { job } => {
                let _ = self.kick_retry_unjournaled(&JobId::new(&job));
            }
            Command::Interrupt { job } => {
                let _ = self.interrupt_unjournaled(&JobId::new(&job));
            }
            Command::Probe { device } => {
                let _ = self.probe_device_unjournaled(&device);
            }
        }
        Ok(())
    }

    /// Recover an orchestrator from a journal written by
    /// [`Qrio::enable_durability`]: truncate any torn tail, restore the last
    /// snapshot, replay the command tail, verify the replayed history
    /// against the journaled events, and re-attach the journal so the
    /// recovered instance keeps journaling where the crashed one stopped.
    ///
    /// The returned [`RecoveryReport`] is deterministic: recovering the same
    /// journal twice renders byte-identical reports.
    ///
    /// # Errors
    ///
    /// Returns an error when the file is not a journal, holds no snapshot,
    /// contains records this build cannot decode, or when replay fails to
    /// reproduce the journaled event history.
    pub fn recover(path: impl AsRef<Path>) -> Result<(Qrio, RecoveryReport), QrioError> {
        Qrio::recover_with(path, |_| Ok(()))
    }

    /// [`Qrio::recover`] with a setup hook that runs after the snapshot is
    /// restored and **before** the command tail is replayed. Use it to
    /// re-register custom ranking strategies (and re-install admission
    /// gates) that journaled jobs reference — they are live trait objects
    /// the journal cannot carry.
    ///
    /// # Errors
    ///
    /// As [`Qrio::recover`], plus any error the hook returns.
    pub fn recover_with(
        path: impl AsRef<Path>,
        setup: impl FnOnce(&mut Qrio) -> Result<(), QrioError>,
    ) -> Result<(Qrio, RecoveryReport), QrioError> {
        let (journal, scan) = Journal::open(path.as_ref()).map_err(DurabilityError::Journal)?;
        let (snapshot_index, snapshot) = latest_snapshot(&scan.records, u64::MAX)?;
        let cursor = snapshot.cursor;
        let snapshot_every = snapshot.snapshot_every;
        let sync_every = snapshot.sync_every;
        let compact_above = snapshot.compact_above;
        let mut qrio = Qrio::from_snapshot(snapshot);
        setup(&mut qrio)?;

        // Replay the command tail, collecting the journaled events alongside.
        let mut commands_replayed: u64 = 0;
        let mut tail_bytes: u64 = 0;
        let mut journaled_tail: Vec<JobEvent> = Vec::new();
        for record in &scan.records[snapshot_index + 1..] {
            tail_bytes += record.framed_len();
            match durability::decode_record(record)? {
                JournalEntry::Command(cmd) => {
                    qrio.apply_command(cmd)?;
                    commands_replayed += 1;
                }
                JournalEntry::Events(events) => journaled_tail.extend(events),
                // `snapshot_index` is the last snapshot: the tail holds none.
                JournalEntry::Snapshot(_) => {}
            }
        }

        // Verify: replay must regenerate the journaled history exactly. The
        // journal may run *short* (events lost with a torn tail before their
        // command's acknowledgement was journaled never existed, and events
        // regenerated past the journaled prefix are healed below) but never
        // long or different.
        let regenerated = &qrio.lifecycle.events[cursor as usize..];
        if journaled_tail.len() > regenerated.len() {
            return Err(QrioError::Durability(DurabilityError::ReplayDivergence(
                format!(
                    "journal holds {} post-snapshot events but replay regenerated only {}",
                    journaled_tail.len(),
                    regenerated.len()
                ),
            )));
        }
        for (journaled, regenerated) in journaled_tail.iter().zip(regenerated.iter()) {
            if journaled != regenerated {
                return Err(QrioError::Durability(DurabilityError::ReplayDivergence(
                    format!(
                        "event seq {} replayed differently from the journal",
                        journaled.seq
                    ),
                )));
            }
        }
        let events_healed = (regenerated.len() - journaled_tail.len()) as u64;

        // Re-attach the journal: it already holds everything up to the
        // journaled prefix; heal the regenerated-but-unjournaled tail so the
        // on-disk history is whole again.
        let mut durability = Durability::new(
            journal,
            snapshot_every,
            sync_every,
            compact_above,
            cursor + journaled_tail.len() as u64,
        );
        durability.resume_cadence(
            commands_replayed,
            tail_bytes,
            scan.records[snapshot_index].framed_len(),
        );
        if events_healed > 0 {
            durability.append_event_tail(&qrio.lifecycle.events)?;
        }
        let report = RecoveryReport {
            snapshot_cursor: cursor,
            commands_replayed,
            events_journaled: journaled_tail.len() as u64,
            events_regenerated: regenerated.len() as u64,
            events_healed,
            torn_tail: scan.torn.as_ref().map(|torn| (torn.offset, torn.trailing)),
            jobs: qrio.lifecycle.jobs.len() as u64,
            terminal_jobs: qrio
                .lifecycle
                .jobs
                .values()
                .filter(|tracked| tracked.status.state.is_terminal())
                .count() as u64,
        };
        qrio.durability = Some(durability);
        Ok((qrio, report))
    }

    /// Time-travel inspection: rebuild the orchestrator state as of a
    /// watch-log cursor, without attaching durability to the result.
    ///
    /// Starts from the latest journaled snapshot at or before `cursor` and
    /// replays commands until the watch log reaches it. Commands are atomic,
    /// so replay stops at the first command boundary `>=` the target (the
    /// [`ReplayCheckpoint`] records where it actually landed); a cursor past
    /// the journal's end replays everything. The returned instance is a
    /// read-only replica of history — it is live and can be driven forward,
    /// but nothing it does is journaled.
    ///
    /// # Errors
    ///
    /// As [`Qrio::recover`], plus [`DurabilityError::NoSnapshot`] when every
    /// journaled snapshot lies *after* the requested cursor (compaction may
    /// have dropped the history that covered it).
    pub fn replay_to(
        path: impl AsRef<Path>,
        cursor: u64,
    ) -> Result<(Qrio, ReplayCheckpoint), QrioError> {
        // Read-only: unlike `Journal::open`, scanning leaves a torn tail in
        // place for `recover` to deal with.
        let scan = scan_file(path.as_ref()).map_err(DurabilityError::Journal)?;

        let (snapshot_index, snapshot) = latest_snapshot(&scan.records, cursor)?;
        let snapshot_cursor = snapshot.cursor;

        let mut qrio = Qrio::from_snapshot(snapshot);
        let mut commands_replayed: u64 = 0;
        for record in &scan.records[snapshot_index + 1..] {
            if qrio.lifecycle.events.len() as u64 >= cursor {
                break;
            }
            // Event acknowledgements and later snapshots carry no state
            // transitions of their own — replay regenerates the events.
            if let JournalEntry::Command(cmd) = durability::decode_record(record)? {
                qrio.apply_command(cmd)?;
                commands_replayed += 1;
            }
        }

        let checkpoint = ReplayCheckpoint {
            target_cursor: cursor,
            snapshot_cursor,
            commands_replayed,
            reached_cursor: qrio.lifecycle.events.len() as u64,
        };
        Ok((qrio, checkpoint))
    }

    /// A deterministic, human-readable dump of the reconstructed state:
    /// clock, transport, the jobs table, scheduler queues, dead letters and
    /// the breaker board. The backbone of `qrio-lint --replay-to`, and
    /// byte-reproducible for identical states — diffable across replays.
    pub fn describe_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "clock     = {}", self.lifecycle.clock);
        let _ = writeln!(out, "transport = {}", self.transport_mode_name());
        let _ = writeln!(out, "events    = {}", self.lifecycle.events.len());

        let _ = writeln!(out, "jobs ({}):", self.lifecycle.jobs.len());
        for (name, tracked) in &self.lifecycle.jobs {
            let node = tracked
                .status
                .node
                .as_deref()
                .or(tracked.decision.as_ref().map(|d| d.node.as_str()))
                .unwrap_or("-");
            let _ = writeln!(
                out,
                "  {name}: {:?} prio={} attempt={} node={node}",
                tracked.status.state, tracked.status.priority, tracked.attempt
            );
        }

        let pending = self.lifecycle.pending_in_order();
        let _ = writeln!(out, "pending ({}):", pending.len());
        for name in &pending {
            let _ = writeln!(out, "  {name}");
        }

        let _ = writeln!(
            out,
            "device queues ({}):",
            self.lifecycle.device_queues.len()
        );
        for (device, queue) in &self.lifecycle.device_queues {
            let jobs: Vec<&str> = queue.iter().map(String::as_str).collect();
            let _ = writeln!(out, "  {device}: [{}]", jobs.join(", "));
        }

        let _ = writeln!(out, "dead letters ({}):", self.lifecycle.dead_letters.len());
        for name in &self.lifecycle.dead_letters {
            let _ = writeln!(out, "  {name}");
        }

        match self.breakers() {
            None => {
                let _ = writeln!(out, "breakers: disabled");
            }
            Some(board) => {
                let _ = writeln!(out, "breakers ({} transitions):", board.events().len());
                for device in board.breakers.keys() {
                    let _ = writeln!(
                        out,
                        "  {device}: {} trips={}",
                        board.state(device).name(),
                        board.trip_count(device)
                    );
                }
            }
        }
        out
    }

    // --- Blocking compatibility wrapper --------------------------------------------------

    /// Submit a job request and drive it to completion — the blocking
    /// convenience wrapper over the lifecycle API: [`Qrio::enqueue`], then
    /// [`Qrio::tick`] until *this* job is terminal, then [`Qrio::outcome`].
    ///
    /// Other queued work naturally advances while the loop runs (it shares
    /// the cluster), but only the submitted job is ever force-failed when
    /// it cannot make progress — jobs someone else enqueued are left
    /// `Queued` for their owner's service loop.
    ///
    /// # Errors
    ///
    /// Returns an error if any stage fails (no matching devices, execution
    /// failure, ...). The job object in the cluster records the failure too.
    pub fn submit(&mut self, request: &JobRequest) -> Result<JobOutcome, QrioError> {
        let id = self.enqueue(request)?;
        let mut stalled = false;
        while !self.status(&id)?.is_terminal() {
            let report = self.tick();
            if report.made_progress() {
                stalled = false;
                continue;
            }
            if stalled {
                break; // Defensive: a forced verdict changed nothing.
            }
            stalled = true;
            // Fixed point with this job still queued: force its admission
            // verdict (schedule after all, or a recorded failure).
            let _ = self.force_admit(id.as_str());
        }
        self.outcome(&id)
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
mod tests {
    use super::*;
    use crate::visualizer::{JobRequestBuilder, TopologyDesigner};
    use qrio_backend::topology;
    use qrio_circuit::library;
    use qrio_cluster::{DeviceRequirements, JobPhase};

    fn small_qrio() -> Qrio {
        let mut qrio = Qrio::with_config(
            FidelityRankingConfig {
                shots: 128,
                seed: 5,
                shortfall_weight: 100.0,
            },
            7,
        );
        qrio.add_device(Backend::uniform("clean", topology::line(10), 0.001, 0.01))
            .unwrap();
        qrio.add_device(Backend::uniform("mid", topology::ring(10), 0.02, 0.15))
            .unwrap();
        qrio.add_device(Backend::uniform("noisy", topology::line(10), 0.05, 0.4))
            .unwrap();
        qrio
    }

    #[test]
    fn fidelity_job_end_to_end() {
        let mut qrio = small_qrio();
        let bv = library::bernstein_vazirani(6, 0b101101).unwrap();
        let request = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("bv-e2e")
            .fidelity_target(0.9)
            .shots(256)
            .build()
            .unwrap();
        let outcome = qrio.submit(&request).unwrap();
        assert_eq!(outcome.decision.node, "clean");
        assert!(outcome.achieved_fidelity.unwrap() > 0.8);
        assert!(!outcome.counts.is_empty());
        assert!(matches!(
            qrio.cluster().job("bv-e2e").unwrap().phase(),
            JobPhase::Succeeded { .. }
        ));
        assert!(!qrio.job_logs("bv-e2e").unwrap().is_empty());
        assert!(qrio.job_logs("missing").is_err());
    }

    #[test]
    fn topology_job_end_to_end_picks_matching_device() {
        let mut qrio = Qrio::with_config(
            FidelityRankingConfig {
                shots: 64,
                seed: 3,
                shortfall_weight: 100.0,
            },
            9,
        );
        qrio.add_device(Backend::uniform("ring-dev", topology::ring(10), 0.01, 0.05))
            .unwrap();
        qrio.add_device(Backend::uniform(
            "tree-dev",
            topology::binary_tree(10),
            0.01,
            0.05,
        ))
        .unwrap();
        qrio.add_device(Backend::uniform("line-dev", topology::line(10), 0.01, 0.05))
            .unwrap();

        let mut designer = TopologyDesigner::new(10);
        for (a, b) in topology::binary_tree(10).edges() {
            designer.connect(a, b).unwrap();
        }
        let request = JobRequestBuilder::new()
            .job_name("topo-e2e")
            .topology(&designer)
            .with_circuit(&library::ghz(10).unwrap())
            .build()
            .unwrap();
        let outcome = qrio.submit(&request).unwrap();
        assert_eq!(outcome.decision.node, "tree-dev");
    }

    #[test]
    fn requirements_can_make_a_job_unschedulable() {
        let mut qrio = small_qrio();
        let ghz = library::ghz(4).unwrap();
        let request = JobRequestBuilder::new()
            .with_circuit(&ghz)
            .job_name("impossible")
            .requirements(DeviceRequirements {
                max_two_qubit_error: Some(0.0001),
                ..DeviceRequirements::default()
            })
            .fidelity_target(0.99)
            .build()
            .unwrap();
        assert!(qrio.submit(&request).is_err());
        assert!(qrio
            .cluster()
            .job("impossible")
            .unwrap()
            .phase()
            .is_terminal());
        // The async view agrees: enqueue succeeded, the job ended Failed.
        assert_eq!(
            qrio.status(&JobId::new("impossible")).unwrap(),
            JobState::Failed
        );
    }

    #[test]
    fn duplicate_devices_are_rejected() {
        let mut qrio = small_qrio();
        assert!(qrio
            .add_device(Backend::uniform("clean", topology::line(4), 0.0, 0.0))
            .is_err());
    }

    #[test]
    fn enqueue_is_non_blocking_and_tick_drives_the_lifecycle() {
        let mut qrio = small_qrio();
        let bv = library::bernstein_vazirani(5, 0b10110).unwrap();
        let request = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("async-job")
            .fidelity_target(0.9)
            .shots(128)
            .build()
            .unwrap();
        let id = qrio.enqueue(&request).unwrap();
        assert_eq!(id.as_str(), "async-job");
        // Nothing has run yet: the job is Queued, the cluster job Pending.
        assert_eq!(qrio.status(&id).unwrap(), JobState::Queued);
        assert!(matches!(
            qrio.cluster().job("async-job").unwrap().phase(),
            JobPhase::Pending
        ));
        assert!(qrio.outcome(&id).is_err(), "no outcome before it runs");

        // One tick schedules *and* runs it (admission then execution).
        let report = qrio.tick();
        assert_eq!(report.tick, 1);
        assert_eq!(report.scheduled, vec![id.clone()]);
        assert_eq!(report.completed, vec![id.clone()]);
        assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
        let outcome = qrio.outcome(&id).unwrap();
        assert_eq!(outcome.decision.node, "clean");
        assert!(!outcome.counts.is_empty());

        // The transition history is complete, legal and timestamped.
        let history = &qrio.job_status(&id).unwrap().history;
        let states: Vec<JobState> = history.iter().map(|(_, s)| *s).collect();
        assert_eq!(
            states,
            vec![
                JobState::Submitted,
                JobState::Queued,
                JobState::Scheduled,
                JobState::Running,
                JobState::Succeeded
            ]
        );
        assert_eq!(history[0].0, 0, "enqueued before the first tick");
        assert_eq!(history[4].0, 1, "finished on tick 1");
    }

    #[test]
    fn watch_streams_events_from_any_cursor() {
        let mut qrio = small_qrio();
        let bv = library::bernstein_vazirani(4, 0b1011).unwrap();
        let request = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("watched")
            .fidelity_target(0.9)
            .shots(64)
            .build()
            .unwrap();
        let id = qrio.enqueue(&request).unwrap();
        let first = qrio.watch(0);
        assert_eq!(first.len(), 2, "Submitted + Queued");
        let cursor = first.last().unwrap().seq + 1;
        qrio.run_until_idle();
        let rest = qrio.watch(cursor);
        let states: Vec<JobState> = rest.iter().map(|e| e.to).collect();
        assert_eq!(
            states,
            vec![JobState::Scheduled, JobState::Running, JobState::Succeeded]
        );
        for event in rest {
            assert_eq!(event.job, id);
            assert!(event.from.unwrap().can_transition_to(event.to));
        }
        // Sequences are dense and the cursor never overshoots.
        assert_eq!(
            qrio.watch(0).len() as u64,
            qrio.watch(0).last().unwrap().seq + 1
        );
        assert!(qrio.watch(9999).is_empty());
    }

    #[test]
    fn duplicate_enqueue_is_rejected_without_leaking() {
        let mut qrio = small_qrio();
        let bv = library::bernstein_vazirani(4, 0b1011).unwrap();
        let request = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("dup")
            .fidelity_target(0.9)
            .build()
            .unwrap();
        let _ = qrio.enqueue(&request).unwrap();
        let before_meta = qrio.meta().job_count();
        assert!(matches!(
            qrio.enqueue(&request),
            Err(QrioError::Cluster(ClusterError::DuplicateJob(_)))
        ));
        assert_eq!(qrio.meta().job_count(), before_meta);
        // The original job is unharmed and still runs to completion.
        qrio.run_until_idle();
        assert_eq!(
            qrio.status(&JobId::new("dup")).unwrap(),
            JobState::Succeeded
        );
    }

    #[test]
    fn unknown_job_ids_error_everywhere() {
        let mut qrio = small_qrio();
        let ghost = JobId::new("ghost");
        assert!(matches!(qrio.status(&ghost), Err(QrioError::UnknownJob(_))));
        assert!(qrio.job_status(&ghost).is_err());
        assert!(qrio.outcome(&ghost).is_err());
        assert!(qrio.cancel(&ghost).is_err());
        assert!(qrio.rank_ready(&ghost).is_err());
    }

    // --- Fault tolerance ----------------------------------------------------------------

    use crate::BreakerState;
    use qrio_cluster::{FaultKind, RetryPolicy};

    /// An injector that faults every attempt with the given kind's rate at 1.
    fn always(kind: FaultKind) -> FaultInjector {
        let mut injector = FaultInjector {
            seed: 11,
            ..FaultInjector::default()
        };
        match kind {
            FaultKind::TransientExecution => injector.transient_rate = 1.0,
            FaultKind::CalibrationGlitch => injector.calibration_rate = 1.0,
            FaultKind::SlowJob => injector.slow_rate = 1.0,
            FaultKind::DeviceFlap => injector.flap_rate = 1.0,
        }
        injector
    }

    fn faulty_request(name: &str, retry: Option<RetryPolicy>, deadline: Option<u64>) -> JobRequest {
        let bv = library::bernstein_vazirani(5, 0b10110).unwrap();
        let mut builder = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name(name)
            .fidelity_target(0.9)
            .shots(64);
        if let Some(policy) = retry {
            builder = builder.retry_policy(policy);
        }
        if let Some(ticks) = deadline {
            builder = builder.deadline(ticks);
        }
        builder.build().unwrap()
    }

    #[test]
    fn injected_fault_retries_then_succeeds_once_faults_clear() {
        let mut qrio = small_qrio();
        qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
            .unwrap();
        let id = qrio
            .enqueue(&faulty_request(
                "flaky",
                Some(RetryPolicy::fixed(5, 2)),
                None,
            ))
            .unwrap();
        let report = qrio.tick();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Retrying);
        assert_eq!(report.retried, vec![id.clone()]);
        assert!(report.completed.is_empty(), "a retrying job is not done");
        assert!(report.made_progress());
        let status = qrio.job_status(&id).unwrap();
        assert!(
            status.reason.as_deref().unwrap().contains("transient"),
            "reason names the fault: {:?}",
            status.reason
        );

        // The fault storm passes; the backoff elapses; the retry succeeds.
        qrio.configure_faults(None).unwrap();
        qrio.run_until_idle();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
        assert!(qrio.dead_letters().is_empty());
        let states: Vec<JobState> = qrio
            .job_status(&id)
            .unwrap()
            .history
            .iter()
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(
            states,
            vec![
                JobState::Submitted,
                JobState::Queued,
                JobState::Scheduled,
                JobState::Running,
                JobState::Retrying,
                JobState::Queued,
                JobState::Scheduled,
                JobState::Running,
                JobState::Succeeded,
            ]
        );
        // The outcome is a real one: counts from the successful attempt.
        assert!(!qrio.outcome(&id).unwrap().counts.is_empty());
    }

    /// A transport whose workers are gone: agents register, nothing sends.
    #[derive(Debug)]
    struct DeadTransport;

    impl Transport for DeadTransport {
        fn mode(&self) -> &'static str {
            "dead"
        }
        fn register(&mut self, _agent: NodeAgent) -> Result<(), qrio_agent::AgentError> {
            Ok(())
        }
        fn send(&mut self, _frame: Vec<u8>) -> Result<(), qrio_agent::AgentError> {
            Err(qrio_agent::AgentError::Disconnected)
        }
        fn recv(&mut self, _wait: bool) -> Result<Option<Vec<u8>>, qrio_agent::AgentError> {
            Ok(None)
        }
        fn node_names(&self) -> Vec<String> {
            Vec::new()
        }
    }

    #[test]
    fn wire_failure_releases_the_node_and_is_retried_like_any_failed_attempt() {
        let mut qrio = small_qrio();
        qrio.control
            .install(Box::new(DeadTransport), TransportMode::InProc);
        let id = qrio
            .enqueue(&faulty_request(
                "unplugged",
                Some(RetryPolicy::fixed(3, 1)),
                None,
            ))
            .unwrap();
        qrio.tick();

        // The attempt failed on the wire, and both job tables say so.
        assert_eq!(qrio.status(&id).unwrap(), JobState::Retrying);
        let reason = qrio.job_status(&id).unwrap().reason.clone().unwrap();
        assert!(reason.contains("control plane:"), "{reason}");
        assert_eq!(
            qrio.cluster().job("unplugged").unwrap().phase(),
            &JobPhase::Pending
        );
        for node in qrio.cluster().nodes() {
            assert_eq!(node.allocated(), Resources::default(), "{}", node.name());
        }

        // On a healthy transport the retry binds once and succeeds.
        qrio.set_transport(TransportMode::InProc);
        qrio.run_until_idle();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
        for node in qrio.cluster().nodes() {
            assert_eq!(node.allocated(), Resources::default(), "{}", node.name());
        }
    }

    #[test]
    fn exhausted_retries_dead_letter_the_job() {
        let mut qrio = small_qrio();
        qrio.configure_faults(Some(always(FaultKind::CalibrationGlitch)))
            .unwrap();
        let id = qrio
            .enqueue(&faulty_request(
                "doomed",
                Some(RetryPolicy::fixed(3, 1)),
                None,
            ))
            .unwrap();
        qrio.run_until_idle();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
        assert_eq!(qrio.dead_letters(), vec![id.clone()]);
        // Three attempts ran: two Retrying transitions, then the terminal one.
        let retries = qrio
            .watch(0)
            .iter()
            .filter(|e| e.job == id && e.to == JobState::Retrying)
            .count();
        assert_eq!(retries, 2);
        let status = qrio.job_status(&id).unwrap();
        assert!(status
            .reason
            .as_deref()
            .unwrap()
            .contains("calibration glitch"));
    }

    #[test]
    fn faults_without_a_policy_fail_fast_and_skip_the_dead_letter_queue() {
        let mut qrio = small_qrio();
        qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
            .unwrap();
        let id = qrio
            .enqueue(&faulty_request("fragile", None, None))
            .unwrap();
        qrio.tick();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
        assert!(qrio.dead_letters().is_empty(), "no policy, no dead letter");
    }

    #[test]
    fn a_deadline_expires_a_job_stuck_in_backoff() {
        let mut qrio = small_qrio();
        qrio.configure_faults(Some(always(FaultKind::SlowJob)))
            .unwrap();
        let id = qrio
            .enqueue(&faulty_request(
                "late",
                Some(RetryPolicy::fixed(5, 100)),
                Some(3),
            ))
            .unwrap();
        qrio.run_until_idle();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
        let status = qrio.job_status(&id).unwrap();
        assert!(
            status.reason.as_deref().unwrap().contains("deadline"),
            "reason: {:?}",
            status.reason
        );
        assert!(
            qrio.dead_letters().is_empty(),
            "a blown deadline is not retry exhaustion"
        );
        // The expiry fired on the first tick past the absolute deadline, not
        // after the 100-tick backoff.
        let (at, _) = *qrio.job_status(&id).unwrap().history.last().unwrap();
        assert_eq!(at, 4, "deadline_at = 3, first tick with now > 3 is 4");
    }

    #[test]
    fn deadlines_are_inert_when_the_job_finishes_in_time() {
        let mut qrio = small_qrio();
        let id = qrio
            .enqueue(&faulty_request("prompt", None, Some(50)))
            .unwrap();
        qrio.run_until_idle();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
    }

    #[test]
    fn breaker_trips_cordon_and_the_tick_timer_probes_and_heals() {
        let mut qrio = Qrio::with_config(
            FidelityRankingConfig {
                shots: 64,
                seed: 5,
                shortfall_weight: 100.0,
            },
            7,
        );
        qrio.add_device(Backend::uniform("solo", topology::line(8), 0.01, 0.05))
            .unwrap();
        qrio.configure_breakers(Some(BreakerConfig {
            consecutive_failures: 2,
            failure_rate: 2.0,
            window: 8,
            open_ticks: 2,
            probe_jobs: 1,
        }))
        .unwrap();
        qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
            .unwrap();

        let a = qrio.enqueue(&faulty_request("burn-a", None, None)).unwrap();
        let b = qrio.enqueue(&faulty_request("burn-b", None, None)).unwrap();
        qrio.tick(); // runs burn-a: failure 1
        qrio.tick(); // runs burn-b: failure 2 → breaker trips at t=2
        assert_eq!(qrio.status(&a).unwrap(), JobState::Failed);
        assert_eq!(qrio.status(&b).unwrap(), JobState::Failed);
        let board = qrio.breakers().unwrap();
        assert_eq!(board.trip_count("solo"), 1);
        assert!(matches!(
            board.state("solo"),
            BreakerState::Open { until: 4 }
        ));
        assert!(
            qrio.cluster().node("solo").unwrap().status() != NodeStatus::Ready,
            "tripped breaker cordons the device"
        );

        // While cordoned, the telemetry overlay reports the full penalty.
        qrio.report_telemetry([(
            "solo".to_string(),
            DeviceTelemetry {
                queue_depth: 0,
                utilization: 0.0,
                health_penalty: 0.0,
            },
        )]);
        let telemetry = qrio.meta().telemetry_for("solo").unwrap();
        assert_eq!(telemetry.health_penalty, 1.0);

        // The storm passes. A queued job waits out the open interval, the
        // timer probes at t=4, and the probe closes the breaker.
        qrio.configure_faults(None).unwrap();
        let c = qrio.enqueue(&faulty_request("after", None, None)).unwrap();
        qrio.tick(); // t=3: still open, job deferred
        assert_eq!(qrio.status(&c).unwrap(), JobState::Queued);
        qrio.tick(); // t=4: probation begins, job schedules and runs
        assert_eq!(qrio.status(&c).unwrap(), JobState::Succeeded);
        assert_eq!(qrio.breakers().unwrap().state("solo"), BreakerState::Closed);
        assert!(qrio.cluster().node("solo").unwrap().status() == NodeStatus::Ready);
    }

    #[test]
    fn probe_device_forces_probation_without_ticking() {
        let mut qrio = small_qrio();
        qrio.configure_breakers(Some(BreakerConfig {
            consecutive_failures: 1,
            failure_rate: 2.0,
            window: 4,
            open_ticks: 1_000_000,
            probe_jobs: 1,
        }))
        .unwrap();
        qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
            .unwrap();
        let id = qrio
            .enqueue(&faulty_request("one-shot", None, None))
            .unwrap();
        qrio.tick();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Failed);
        let device = qrio.job_status(&id).unwrap().node.clone().unwrap();
        assert!(matches!(
            qrio.breakers().unwrap().state(&device),
            BreakerState::Open { .. }
        ));
        assert!(qrio.probe_device(&device).unwrap());
        assert_eq!(
            qrio.breakers().unwrap().state(&device),
            BreakerState::HalfOpen { successes: 0 }
        );
        assert!(qrio.cluster().node(&device).unwrap().status() == NodeStatus::Ready);
        // Probing a breaker that is not open reports false.
        assert!(!qrio.probe_device(&device).unwrap());
        assert!(!qrio.probe_device("no-such-device").unwrap());
    }

    #[test]
    fn interrupt_flaps_a_scheduled_job_and_kick_retry_requeues_it() {
        let mut qrio = small_qrio();
        let id = qrio
            .enqueue(&faulty_request(
                "cut-off",
                Some(RetryPolicy::fixed(3, 1_000)),
                None,
            ))
            .unwrap();
        // Interrupt requires a bound job.
        assert!(matches!(
            qrio.interrupt(&id),
            Err(QrioError::Cluster(ClusterError::PhaseConflict { .. }))
        ));
        qrio.schedule(&id).unwrap();
        let err = qrio.interrupt(&id).unwrap_err();
        assert!(matches!(
            err,
            QrioError::Cluster(ClusterError::InjectedFault {
                kind: FaultKind::DeviceFlap,
                ..
            })
        ));
        assert_eq!(qrio.status(&id).unwrap(), JobState::Retrying);

        // The backoff horizon is 1000 ticks away; kick_retry skips it.
        qrio.kick_retry(&id).unwrap();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Queued);
        assert!(matches!(
            qrio.kick_retry(&id),
            Err(QrioError::Cluster(ClusterError::PhaseConflict { .. }))
        ));

        // The flap marked the device not-ready; heal and finish the retry.
        qrio.heal_devices().unwrap();
        qrio.run_until_idle();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Succeeded);
    }

    #[test]
    fn retrying_jobs_can_be_cancelled() {
        let mut qrio = small_qrio();
        qrio.configure_faults(Some(always(FaultKind::TransientExecution)))
            .unwrap();
        let id = qrio
            .enqueue(&faulty_request(
                "abandoned",
                Some(RetryPolicy::fixed(5, 1_000)),
                None,
            ))
            .unwrap();
        qrio.tick();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Retrying);
        qrio.cancel(&id).unwrap();
        assert_eq!(qrio.status(&id).unwrap(), JobState::Cancelled);
        assert!(qrio.dead_letters().is_empty());
    }

    #[test]
    fn zero_penalty_breakers_leave_scores_and_routing_unchanged() {
        // The same workload with and without an (untripped) breaker board
        // must produce identical decisions — the penalty term is strictly
        // additive over a zero baseline.
        let run = |with_breakers: bool| -> Vec<String> {
            let mut qrio = small_qrio();
            if with_breakers {
                qrio.configure_breakers(Some(BreakerConfig::default()))
                    .unwrap();
            }
            let mut nodes = Vec::new();
            for name in ["w1", "w2", "w3"] {
                let id = qrio.enqueue(&faulty_request(name, None, None)).unwrap();
                qrio.run_until_idle();
                nodes.push(qrio.outcome(&id).unwrap().decision.node);
            }
            nodes
        };
        assert_eq!(run(false), run(true));
    }
}
