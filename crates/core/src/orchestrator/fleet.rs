//! The fleet side of [`Qrio`]: devices and what vendors and breakers do to
//! them, how long they serve and where their waiting jobs go when that
//! changes, the telemetry reported about them, and the transport and node
//! agents that stand for them on the control plane.

use std::collections::BTreeMap;

use qrio_agent::{fault_spec_to_wire, ChannelTransport, InProcTransport, NodeAgent, Transport};
use qrio_backend::{spec as backend_spec, Backend};
use qrio_cluster::{ClusterError, FaultInjector, Node, NodeStatus, Resources};
use qrio_meta::DeviceTelemetry;
use qrio_proto::NodeCommand;

use super::Qrio;
use crate::breaker::{BreakerBoard, BreakerConfig};
use crate::control::{ObservedNode, TransportMode};
use crate::durability::Command;
use crate::error::QrioError;
use crate::lifecycle::{JobId, ServiceModel};

/// How much better (lower) a waiting job's best score must be than its
/// current device's before a recalibration moves it: hysteresis against
/// churn on near-ties.
const MIGRATION_EPSILON: f64 = 1e-9;

impl Qrio {
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
    /// A duplicate name is rejected before any state changes, so a failed
    /// registration leaves both the meta server and the cluster untouched.
    ///
    /// # Errors
    ///
    /// Returns an error if a node with the same name already exists.
    pub fn add_device_with_resources(
        &mut self,
        backend: Backend,
        resources: Resources,
    ) -> Result<(), QrioError> {
        let name = backend.name().to_string();
        if self.cluster.node(&name).is_some() {
            return Err(ClusterError::DuplicateNode(name).into());
        }
        // Rendered before the backend moves into its node.
        let spec_text = backend_spec::to_spec(&backend);
        self.meta.register_backend(backend.clone());
        self.cluster
            .add_node(Node::from_backend(backend, resources))?;
        self.bind_agent(&name, true);
        self.control.drain();
        self.journal(|| Command::AddDevice {
            spec_text,
            resources,
        })
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
    pub(super) fn bind_agents(&mut self, fresh: bool) {
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
    /// (dropping the device's memoized scores), the cluster node's labels are
    /// recomputed from it and the node's agent is sent the new calibration.
    /// Under a service model every waiting job is then re-ranked, and moves
    /// where it now scores better ([`Qrio::configure_service`]).
    ///
    /// The node is looked up before the meta server is touched, so an unknown
    /// device leaves no state behind.
    ///
    /// # Errors
    ///
    /// Returns an error if no node carries the backend's name.
    pub fn recalibrate_device(&mut self, backend: Backend) -> Result<(), QrioError> {
        let name = backend.name().to_string();
        if self.cluster.node(&name).is_none() {
            return Err(ClusterError::UnknownNode(name).into());
        }
        let spec_text = backend_spec::to_spec(&backend);
        self.meta.register_backend(backend.clone());
        self.cluster.update_node_backend(backend)?;
        let backend_spec = spec_text.clone();
        self.tell_agent(&name, NodeCommand::Recalibrate { backend_spec });
        self.migrate_waiting(None);
        self.journal(|| Command::Recalibrate { spec_text })
    }

    /// Cordon a device's node: it stops accepting new bindings until
    /// uncordoned, and under a service model it starts no job and its
    /// waiting jobs flee to any device that takes them. Journaled when
    /// durability is enabled.
    ///
    /// # Errors
    ///
    /// Returns an error when no such node exists, or when the journal append
    /// fails.
    pub fn cordon_device(&mut self, name: &str) -> Result<(), QrioError> {
        self.set_cordon(name, true)
    }

    /// Lift a device's cordon, making its node schedulable again; under a
    /// service model it starts the head of its queue. Journaled when
    /// durability is enabled.
    ///
    /// # Errors
    ///
    /// Returns an error when no such node exists, or when the journal append
    /// fails.
    pub fn uncordon_device(&mut self, name: &str) -> Result<(), QrioError> {
        self.set_cordon(name, false)
    }

    /// Cordon or uncordon the node and tell its agent — the one body of
    /// [`Qrio::cordon_device`] and [`Qrio::uncordon_device`], live and
    /// replayed, so a recovered agent's cordon flag matches the crashed
    /// instance's.
    fn set_cordon(&mut self, name: &str, cordoned: bool) -> Result<(), QrioError> {
        let Some(node) = self.cluster.node_mut(name) else {
            return Err(ClusterError::UnknownNode(name.to_string()).into());
        };
        let node_name = || name.to_string();
        if cordoned {
            node.cordon();
            self.tell_agent(name, NodeCommand::Cordon);
            self.migrate_waiting(Some(name));
            self.journal(|| Command::Cordon { node: node_name() })
        } else {
            node.uncordon();
            self.tell_agent(name, NodeCommand::Uncordon);
            self.serve(name);
            self.journal(|| Command::Uncordon { node: node_name() })
        }
    }

    /// Send one command to a node's agent and fold its acknowledgement into
    /// the observed table. A send only fails when the transport's workers
    /// are torn down; like [`Qrio::bind_agent`], that is not surfaced to the
    /// vendor API.
    fn tell_agent(&mut self, name: &str, command: NodeCommand) {
        let _ = self
            .control
            .send_command(name, self.lifecycle.clock, command);
        self.control.drain();
    }

    /// Set or lift a circuit breaker's hold on its device — all a breaker's
    /// verdict does: the agent is not told, the orchestrator alone steers
    /// work around a held device. The hold is a reason of its own beside the
    /// vendor's cordon, so a probe does not end an outage and an outage's end
    /// does not end an open interval.
    pub(super) fn hold_for_breaker(&mut self, name: &str, held: bool) {
        if let Some(node) = self.cluster.node_mut(name) {
            node.hold_for_breaker(held);
        }
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
        let healed = self.cluster.heal_nodes();
        self.journal(|| Command::Heal)?;
        Ok(healed)
    }

    // --- Fault tolerance -----------------------------------------------------------------

    /// Install (or, with `None`, remove) the cluster's deterministic fault
    /// injector. Every execution attempt consults it; an injected fault
    /// fails the attempt with [`ClusterError::InjectedFault`] and flows
    /// through the job's retry policy like any real failure. Journaled, so
    /// recovery replays the exact same faults.
    ///
    /// Every node's `Bind` is rebroadcast so each agent's fault-plan replica
    /// matches: the agent draws the injected-fault verdict for the attempts
    /// it runs, and both sides evaluate the same pure decision function.
    ///
    /// # Errors
    ///
    /// Returns an error only when the journal append fails.
    pub fn configure_faults(&mut self, injector: Option<FaultInjector>) -> Result<(), QrioError> {
        self.cluster.set_fault_injector(injector);
        self.bind_agents(false);
        self.journal(|| Command::ConfigureFaults { injector })
    }

    /// Install (or, with `None`, remove) per-device circuit breakers. A
    /// fresh board starts with every breaker closed; from then on every
    /// execution outcome feeds it, a trip cordons the device, and probation
    /// — `open_ticks` later on the clock, in the unit the clock is advanced
    /// in — uncordons it. Journaled, so recovery replays every trip.
    ///
    /// # Errors
    ///
    /// Returns an error only when the journal append fails.
    pub fn configure_breakers(&mut self, config: Option<BreakerConfig>) -> Result<(), QrioError> {
        self.breakers = config.map(BreakerBoard::new);
        self.journal(|| Command::ConfigureBreakers { config })
    }

    /// Install (or, with `None`, remove) the service model: how long each
    /// device takes over a job. Under one, a device serves its queue on the
    /// clock — the head enters `Running` when the device is idle and in
    /// service, stays at the head of the queue, and is dispatched, settled
    /// and followed by the next when its window closes on the way of
    /// [`Qrio::advance_to`] — and telemetry is the model's: depth, each
    /// queue with its job in service, and utilization, the fraction of the
    /// clock spent serving. A recalibration re-ranks every waiting job, and a
    /// device that is cordoned or whose breaker trips sheds its waiting jobs
    /// to the rest of the fleet. Without one, jobs run the instant
    /// [`Qrio::tick`] or [`Qrio::execute`] reaches them. A window already
    /// open keeps its end either way. Journaled.
    ///
    /// # Errors
    ///
    /// Returns an error only when the journal append fails.
    pub fn configure_service(&mut self, model: Option<ServiceModel>) -> Result<(), QrioError> {
        self.service.clone_from(&model);
        self.serve_all();
        self.journal(|| Command::ConfigureService { model })
    }

    /// Whether `device` is out of service: cordoned by its vendor (or an
    /// outage) or held by its breaker. It takes no new binding, and under a
    /// service model starts no job.
    pub(super) fn out_of_service(&self, device: &str) -> bool {
        self.cluster.node(device).is_some_and(Node::is_cordoned)
    }

    /// Under a service model, the waiting jobs of `device` flee when it is
    /// out of service — its breaker tripped, or it was cordoned while it
    /// served.
    pub(super) fn flee(&mut self, device: Option<String>) {
        if let Some(device) = device.filter(|device| self.out_of_service(device)) {
            self.migrate_waiting(Some(&device));
        }
    }

    /// Under a service model, move waiting jobs — those of `only`'s queue,
    /// or of every queue — whose best device is another one now. The head a
    /// device is serving stays. A job on a device out of service leaves for
    /// any device that takes it; elsewhere a score better by more than
    /// [`MIGRATION_EPSILON`] is required. Each job is decided against
    /// telemetry refreshed after the previous move, so a fleeing queue
    /// spreads over the fleet instead of herding onto whichever device
    /// looked emptiest before the sweep.
    pub(super) fn migrate_waiting(&mut self, only: Option<&str>) {
        // Moves change no node's status: with none ready, nowhere to go.
        if self.service.is_none() || self.cluster.ready_nodes().next().is_none() {
            return;
        }
        let queues = self.lifecycle.device_queues.iter();
        let swept = queues.filter(|(device, _)| only.map_or(true, |only| only == *device));
        let candidates: Vec<(String, String, bool)> = swept
            .flat_map(|(device, queue)| {
                let in_service = usize::from(self.lifecycle.serving.contains_key(device));
                let fleeing = self.out_of_service(device);
                let waiting = queue.iter().skip(in_service);
                waiting.map(move |job| (device.clone(), job.clone(), fleeing))
            })
            .collect();
        for (device, job, fleeing) in candidates {
            self.refresh_telemetry(false);
            let id = JobId::new(job);
            let ranked = self.rank_ready(&id).unwrap_or_default();
            let Some((best, best_score)) = ranked.first().cloned() else {
                continue;
            };
            let current = ranked.iter().find(|(name, _)| *name == device);
            // A current device that no longer ranks at all (cordoned, or
            // un-scoreable after drift) is left only when fleeing.
            let improves = current.map_or(fleeing, |(_, score)| {
                best_score + MIGRATION_EPSILON < *score
            });
            if best != device && (fleeing || improves) {
                let _ = self.move_binding(&id, &best);
            }
        }
    }

    // --- Telemetry -----------------------------------------------------------------------

    /// Report load telemetry for a set of devices to the meta server, so
    /// telemetry-aware strategies (`weighted`, `min_queue`) score against
    /// these numbers on the next [`Qrio::schedule`] call.
    ///
    /// [`Qrio::tick`] admission refreshes telemetry from the device queues
    /// itself, and so does every decision under a service model; this hook
    /// exists for callers that take the step calls themselves and whose own
    /// model of the fleet is the truth about device load.
    pub fn report_telemetry(
        &mut self,
        reports: impl IntoIterator<Item = (String, DeviceTelemetry)>,
    ) {
        if self.durability.is_none() {
            return self.store_telemetry(reports);
        }
        // The journal carries the *raw* reports; the breaker overlay is
        // re-derived on replay so it can never drift from the board's state.
        let reports: Vec<(String, DeviceTelemetry)> = reports.into_iter().collect();
        self.store_telemetry(reports.iter().cloned());
        // Infallible signature: a journal failure poisons durability (see
        // `Qrio::durability_error`) instead of surfacing here.
        let _ = self.journal(|| Command::Telemetry { reports });
    }

    /// Refresh the meta server's telemetry before a scheduling decision —
    /// under a service model always, without one only for a `tick()`
    /// admission; otherwise what [`Qrio::report_telemetry`] last reported
    /// stands. Depth is each device's queue ([`Qrio::device_queue`], a job
    /// in service included); utilization is the model's busy fraction, or
    /// without a model the share of the node's classical capacity its
    /// reservations hold. Only journaled calls refresh it, so replay does
    /// too.
    pub(super) fn refresh_telemetry(&mut self, admission: bool) {
        if self.service.is_none() && !admission {
            return;
        }
        let loads: Vec<(String, DeviceTelemetry)> = self
            .cluster
            .nodes()
            .map(|node| {
                let device = node.name();
                let utilization = match self.service {
                    Some(_) => self.lifecycle.busy_fraction(device),
                    None => node.utilization(),
                };
                let queue_depth = self.device_queue(device).len();
                let telemetry = DeviceTelemetry {
                    queue_depth,
                    utilization,
                    health_penalty: 0.0,
                };
                (device.to_string(), telemetry)
            })
            .collect();
        self.store_telemetry(loads);
    }

    /// Hand telemetry to the meta server under the breaker overlay: with
    /// breakers configured, a device's health penalty is its breaker's,
    /// whatever the report said. The one overlay of reported, cluster-derived
    /// and replayed telemetry.
    fn store_telemetry(&mut self, reports: impl IntoIterator<Item = (String, DeviceTelemetry)>) {
        let breakers = self.breakers.as_ref();
        let overlaid = reports.into_iter().map(|(device, mut telemetry)| {
            if let Some(board) = breakers {
                telemetry.health_penalty = board.health_penalty(&device);
            }
            (device, telemetry)
        });
        self.meta.update_telemetry_bulk(overlaid);
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
        self.control.install(transport);
        self.bind_agents(true);
    }

    /// Short name of the active transport (`"in-proc"` / `"threaded"`).
    pub fn transport_mode_name(&self) -> &'static str {
        self.control.mode_name()
    }

    /// The observed-state table of the reconcile loop: the last decoded
    /// [`qrio_proto::NodeReport`] per node, as drained off the transport.
    pub fn observed_nodes(&self) -> &BTreeMap<String, ObservedNode> {
        self.control.observed()
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
}
