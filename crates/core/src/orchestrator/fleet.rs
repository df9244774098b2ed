//! The fleet side of [`Qrio`]: devices and what vendors and breakers do to
//! them, the telemetry reported about them, and the transport and node
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
    /// (invalidating memoized scores), the cluster node's labels are
    /// recomputed from it and the node's agent is sent the new calibration.
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
        self.journal(|| Command::Recalibrate { spec_text })
    }

    /// Cordon a device's node: it stops accepting new bindings until
    /// uncordoned. Journaled when durability is enabled.
    ///
    /// # Errors
    ///
    /// Returns an error when no such node exists, or when the journal append
    /// fails.
    pub fn cordon_device(&mut self, name: &str) -> Result<(), QrioError> {
        self.set_cordon(name, true)
    }

    /// Lift a device's cordon, making its node schedulable again. Journaled
    /// when durability is enabled.
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
        if !self.mark_cordon(name, cordoned) {
            return Err(ClusterError::UnknownNode(name.to_string()).into());
        }
        let command = if cordoned {
            NodeCommand::Cordon
        } else {
            NodeCommand::Uncordon
        };
        self.tell_agent(name, command);
        self.journal(|| {
            let node = name.to_string();
            if cordoned {
                Command::Cordon { node }
            } else {
                Command::Uncordon { node }
            }
        })
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

    /// Set or lift the cordon in the cluster's node table, returning whether
    /// there is such a node. This is all a circuit breaker's verdict does:
    /// the agent is not told, the orchestrator alone steers work around a
    /// breaker-cordoned device.
    pub(super) fn mark_cordon(&mut self, name: &str, cordoned: bool) -> bool {
        let Some(node) = self.cluster.node_mut(name) else {
            return false;
        };
        if cordoned {
            node.cordon();
        } else {
            node.uncordon();
        }
        true
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

    /// Force a device's `Open` circuit breaker into probation now,
    /// uncordoning the device, without waiting for its open interval to
    /// elapse on the clock ([`Qrio::tick`] and [`Qrio::advance_to`] begin
    /// probation on time by themselves; nothing but tests calls this any
    /// more). Returns whether probation began (`false` when breakers are off
    /// or the breaker was not `Open`).
    ///
    /// # Errors
    ///
    /// Returns an error only when the journal append fails.
    pub fn probe_device(&mut self, device: &str) -> Result<bool, QrioError> {
        let clock = self.lifecycle.clock;
        let probing = self
            .breakers
            .as_mut()
            .is_some_and(|board| board.force_probe(device, clock));
        if probing {
            self.mark_cordon(device, false);
            // Ask the agent for a fresh status frame so the observed table
            // reflects the probed node.
            self.tell_agent(device, NodeCommand::Probe);
            self.journal(|| Command::Probe {
                device: device.to_string(),
            })?;
        }
        Ok(probing)
    }

    // --- Telemetry -----------------------------------------------------------------------

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

    /// Report the current per-node load (queue depth, classical utilization)
    /// from the cluster registry to the meta server. Runs automatically
    /// before every `tick()` admission decision.
    pub(super) fn sync_telemetry(&mut self) {
        let loads = self.cluster.node_loads();
        self.store_telemetry(loads.into_iter().map(|(device, load)| {
            let telemetry = DeviceTelemetry {
                queue_depth: load.active_jobs,
                utilization: load.utilization(),
                health_penalty: 0.0,
            };
            (device, telemetry)
        }));
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
