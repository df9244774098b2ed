//! The cluster control plane: node registry, job store, image registry,
//! reservations, job execution and the node event log.
//!
//! This is the Kubernetes-shaped substrate QRIO is built on (§3.1): nodes are
//! quantum devices labelled with their properties, jobs are containerized
//! quantum circuits, the scheduler's filter → score cycle ends in
//! [`Cluster::bind_job`], and a bound job's attempt is started here
//! ([`Cluster::prepare_run`]), executed by the node's agent, and settled
//! here again ([`Cluster::settle_run`]).
//!
//! The cluster owns resources, not job state: a job holds a reservation on
//! one node ([`Job::node`]) from its binding until its attempt settles or it
//! is cancelled, so a node's `allocated()` is the sum of the reservations
//! that name it. Which of its states a job is in — and so which call applies
//! to it — is decided by the caller's job state machine (`qrio`'s
//! lifecycle), and no call here checks it.
//!
//! Nor does the cluster keep a record of what happened to a job: the
//! caller's watch log has every transition, the job's own log lines what ran
//! where, the registry's counters every push and pull, and a
//! [`ScheduleDecision`] what the scheduling cycle filtered out and skipped.
//! The cluster's event log is a node log ([`ClusterEvent`] names its five
//! kinds).

use std::collections::BTreeMap;

use qrio_backend::Backend;
use qrio_bytes::{codec_struct, ByteReader, ByteWriter, CodecError, Decode, Encode};

use crate::error::ClusterError;
use crate::fault::{FaultInjector, FaultKind};
use crate::job::{Job, JobSpec};
use crate::node::{Node, NodeStatus};
use crate::registry::ImageRegistry;
use crate::resources::Resources;

/// One entry in the cluster's event log: something that happened to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEvent {
    /// Event kind: `NodeAdded`, `NodeRemoved`, `NodeRestarted`,
    /// `NodeCalibrated` or `NodeFlapped`.
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

codec_struct!(ClusterEvent { kind, message });

/// A name-keyed map is stored as the sequence of its values, in name order:
/// every value carries its own name.
fn encode_values<T: Encode>(map: &BTreeMap<String, T>, w: &mut ByteWriter) {
    w.put_usize(map.len());
    for value in map.values() {
        value.encode(w);
    }
}

/// The inverse of [`encode_values`]: each decoded value is keyed by `name`.
fn decode_keyed<T: Decode>(
    r: &mut ByteReader<'_>,
    name: impl Fn(&T) -> &str,
) -> Result<BTreeMap<String, T>, CodecError> {
    let values = Vec::<T>::decode(r)?;
    Ok(values
        .into_iter()
        .map(|value| (name(&value).to_string(), value))
        .collect())
}

/// The outcome of running a job on a node, produced by the node agent's
/// runner.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// Histogram of measurement outcomes (`bitstring -> count`).
    pub counts: Vec<(String, u64)>,
    /// Fidelity against the noise-free reference, when the runner computes it.
    pub fidelity: Option<f64>,
    /// Runner log lines (transpilation summary, shot counts, ...).
    pub logs: Vec<String>,
}

/// The receipt of a started attempt, produced by [`Cluster::prepare_run`]
/// and redeemed by [`Cluster::settle_run`]: which job runs where, which
/// attempt it is, and the classical resources settling releases.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkOrder {
    /// Job name.
    pub job: String,
    /// Node the job is bound to.
    pub node: String,
    /// Zero-based attempt number (drives the fault decision).
    pub attempt: u32,
    /// What the job holds on the node while it runs.
    pub resources: Resources,
}

/// The device side's verdict on one prepared attempt, applied with
/// [`Cluster::settle_run`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptVerdict {
    /// The runner completed successfully.
    Completed(ExecutionOutcome),
    /// The runner failed with a human-readable reason.
    Failed(String),
    /// The fault injector fired before the runner started.
    Faulted(FaultKind),
}

/// The decision produced by one scheduling cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDecision {
    /// Job that was scheduled.
    pub job: String,
    /// Node chosen for the job.
    pub node: String,
    /// Winning score (lower is better).
    pub score: f64,
    /// All scored candidates `(node, score)`, sorted best-first.
    pub candidates: Vec<(String, f64)>,
    /// Nodes rejected during filtering, with the rejecting stage and reason.
    pub filtered_out: Vec<(String, String)>,
    /// Feasible nodes the ranking strategy could not score, with the reason.
    pub skipped: Vec<(String, String)>,
}

codec_struct!(ScheduleDecision {
    job,
    node,
    score,
    candidates,
    filtered_out,
    skipped,
});

/// The QRIO cluster: nodes, jobs, image names and node events.
#[derive(Default)]
pub struct Cluster {
    nodes: BTreeMap<String, Node>,
    jobs: BTreeMap<String, Job>,
    registry: ImageRegistry,
    events: Vec<ClusterEvent>,
    /// Deterministic fault injector consulted by every execution attempt.
    fault_injector: Option<FaultInjector>,
}

// Nodes, jobs, the registry (names and counters), the node event log and
// the fault injector, verbatim: decoding re-records no event and resets no
// counter.
impl Encode for Cluster {
    fn encode(&self, w: &mut ByteWriter) {
        encode_values(&self.nodes, w);
        encode_values(&self.jobs, w);
        self.registry.encode(w);
        self.events.encode(w);
        self.fault_injector.encode(w);
    }
}

impl Decode for Cluster {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Cluster {
            nodes: decode_keyed(r, Node::name)?,
            jobs: decode_keyed(r, Job::name)?,
            registry: Decode::decode(r)?,
            events: Decode::decode(r)?,
            fault_injector: Decode::decode(r)?,
        })
    }
}

impl Cluster {
    /// An empty cluster.
    pub fn new() -> Self {
        Cluster::default()
    }

    /// Install (or, with `None`, remove) the deterministic fault injector.
    /// The cluster only stores the plan: the orchestrator ships it to the
    /// node agents, which consult it before every execution attempt.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.fault_injector = injector;
    }

    /// The installed fault injector, when any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault_injector.as_ref()
    }

    fn record(&mut self, kind: &str, message: impl Into<String>) {
        self.events.push(ClusterEvent {
            kind: kind.to_string(),
            message: message.into(),
        });
    }

    // --- Nodes ---------------------------------------------------------------------------

    /// Register a node.
    ///
    /// # Errors
    ///
    /// Returns an error if a node with the same name already exists.
    pub fn add_node(&mut self, node: Node) -> Result<(), ClusterError> {
        if self.nodes.contains_key(node.name()) {
            return Err(ClusterError::DuplicateNode(node.name().to_string()));
        }
        self.record(
            "NodeAdded",
            format!("node '{}' joined the cluster", node.name()),
        );
        self.nodes.insert(node.name().to_string(), node);
        Ok(())
    }

    /// Remove a node.
    ///
    /// # Errors
    ///
    /// Returns an error if the node does not exist.
    pub fn remove_node(&mut self, name: &str) -> Result<Node, ClusterError> {
        let node = self
            .nodes
            .remove(name)
            .ok_or_else(|| ClusterError::UnknownNode(name.to_string()))?;
        self.record("NodeRemoved", format!("node '{name}' left the cluster"));
        Ok(node)
    }

    /// Look up a node by name.
    pub fn node(&self, name: &str) -> Option<&Node> {
        self.nodes.get(name)
    }

    /// Mutable access to a node (vendor operations: cordon, restart, labels).
    pub fn node_mut(&mut self, name: &str) -> Option<&mut Node> {
        self.nodes.get_mut(name)
    }

    /// All nodes, in name order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes currently able to accept work.
    pub fn ready_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .values()
            .filter(|n| n.status() == NodeStatus::Ready)
    }

    /// Restart every node that is `NotReady` — the self-healing loop QRIO gets
    /// from Kubernetes. Returns the names of restarted nodes.
    pub fn heal_nodes(&mut self) -> Vec<String> {
        let mut healed = Vec::new();
        for node in self.nodes.values_mut() {
            if node.status() == NodeStatus::NotReady {
                node.restart();
                healed.push(node.name().to_string());
            }
        }
        for name in &healed {
            self.record("NodeRestarted", format!("node '{name}' was restarted"));
        }
        healed
    }

    // --- Images --------------------------------------------------------------------------

    /// The image registry (read-only).
    pub fn registry(&self) -> &ImageRegistry {
        &self.registry
    }

    /// Push an image, by name, to the cluster's registry.
    pub fn push_image(&mut self, name: impl Into<String>) {
        self.registry.push(name);
    }

    /// Remove an image from the cluster's registry — the garbage-collection
    /// hook the orchestrator runs when a job reaches a terminal failure and
    /// its container will never be pulled. Returns whether it existed.
    pub fn remove_image(&mut self, name: &str) -> bool {
        self.registry.remove(name)
    }

    // --- Jobs ----------------------------------------------------------------------------

    /// Submit a job for scheduling: it waits `Pending` until a scheduling
    /// cycle binds it.
    ///
    /// # Errors
    ///
    /// Returns an error if a job with the same name already exists.
    pub fn submit_job(&mut self, spec: JobSpec) -> Result<(), ClusterError> {
        if self.jobs.contains_key(&spec.name) {
            return Err(ClusterError::DuplicateJob(spec.name.clone()));
        }
        self.jobs.insert(spec.name.clone(), Job::new(spec));
        Ok(())
    }

    /// Look up a job by name.
    pub fn job(&self, name: &str) -> Option<&Job> {
        self.jobs.get(name)
    }

    /// All jobs, in name order.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    fn job_mut(&mut self, name: &str) -> Result<&mut Job, ClusterError> {
        self.jobs
            .get_mut(name)
            .ok_or_else(|| ClusterError::UnknownJob(name.to_string()))
    }

    /// Logs of a job (what the visualizer's "check logs" button returns).
    ///
    /// # Errors
    ///
    /// Returns an error if the job does not exist.
    pub fn job_logs(&self, name: &str) -> Result<&[String], ClusterError> {
        self.jobs
            .get(name)
            .map(|j| j.logs())
            .ok_or_else(|| ClusterError::UnknownJob(name.to_string()))
    }

    /// The node event log, in chronological order.
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    // --- Scheduling ----------------------------------------------------------------------

    /// Bind `job_name` to the best-ranked node of a finished scheduling cycle
    /// — the "bind" stage of §3.5. The cycle itself runs outside the cluster
    /// (feasibility per [`Node::rejection`], scores from the meta server);
    /// reserves the job's resources on `ranking[0]` (the ranking is
    /// best-first), which then holds its reservation ([`Job::node`]), and
    /// returns what the cycle found: the `rejected` nodes as
    /// [`ScheduleDecision::filtered_out`], the `skipped` ones as
    /// [`ScheduleDecision::skipped`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Unschedulable`] when the ranking is empty,
    /// [`ClusterError::UnknownJob`] / [`ClusterError::UnknownNode`] for names
    /// the cluster does not hold, and [`ClusterError::BindingRejected`] when
    /// the winner can no longer take the job's resources. No job is touched
    /// in any error case.
    pub fn bind_job(
        &mut self,
        job_name: &str,
        ranking: Vec<(String, f64)>,
        rejected: Vec<(String, String)>,
        skipped: Vec<(String, String)>,
    ) -> Result<ScheduleDecision, ClusterError> {
        let resources = self
            .jobs
            .get(job_name)
            .map(|j| j.spec().resources)
            .ok_or_else(|| ClusterError::UnknownJob(job_name.to_string()))?;
        let Some((winner, score)) = ranking.first().cloned() else {
            let reason = if skipped.is_empty() {
                "no node passed the filtering stage"
            } else {
                "no feasible node could be scored by plugin 'QrioMetaRanking'"
            };
            return Err(ClusterError::Unschedulable {
                job: job_name.to_string(),
                reason: reason.to_string(),
            });
        };
        let node = self
            .nodes
            .get_mut(&winner)
            .ok_or_else(|| ClusterError::UnknownNode(winner.clone()))?;
        if !node.allocate(&resources) {
            return Err(ClusterError::BindingRejected {
                job: job_name.to_string(),
                node: winner,
                reason: "resources were claimed by another job during scoring".into(),
            });
        }
        let job = self.job_mut(job_name)?;
        job.node = Some(winner.clone());
        job.log(format!(
            "scheduled on '{winner}' with score {score:.4} by plugin 'QrioMetaRanking'"
        ));
        Ok(ScheduleDecision {
            job: job_name.to_string(),
            node: winner,
            score,
            candidates: ranking,
            filtered_out: rejected,
            skipped,
        })
    }

    /// Replace the backend of an existing node after a calibration refresh or
    /// drift event, recomputing its QRIO labels. The node keeps its name,
    /// capacity, allocations and status.
    ///
    /// # Errors
    ///
    /// Returns an error if the node does not exist or the backend's name does
    /// not match the node's.
    pub fn update_node_backend(&mut self, backend: Backend) -> Result<(), ClusterError> {
        let name = backend.name().to_string();
        let node = self
            .nodes
            .get_mut(&name)
            .ok_or_else(|| ClusterError::UnknownNode(name.clone()))?;
        node.set_backend(backend);
        self.record(
            "NodeCalibrated",
            format!("node '{name}' received new calibration data"),
        );
        Ok(())
    }

    /// Move the reservation a job holds to another node — the migration
    /// primitive load-aware schedulers use when calibration drift or an
    /// outage makes the original binding a bad idea. Resources are released
    /// on the old node and reserved on the new one. Moving a reservation
    /// onto the node that holds it is a no-op.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown jobs or nodes, a job that holds no
    /// reservation, or when the target node cannot accept the job's resource
    /// request; in every error case the original reservation is left
    /// untouched.
    pub fn rebind_job(&mut self, job_name: &str, target: &str) -> Result<(), ClusterError> {
        let job = self.job_mut(job_name)?;
        let resources = job.spec().resources;
        let Some(from) = job.node.clone() else {
            return Err(ClusterError::BindingRejected {
                job: job_name.to_string(),
                node: target.to_string(),
                reason: "the job holds no reservation to move".into(),
            });
        };
        if from == target {
            return Ok(());
        }
        let target_node = self
            .nodes
            .get_mut(target)
            .ok_or_else(|| ClusterError::UnknownNode(target.to_string()))?;
        if !target_node.allocate(&resources) {
            return Err(ClusterError::BindingRejected {
                job: job_name.to_string(),
                node: target.to_string(),
                reason: "target node cannot accept the job's resource request".into(),
            });
        }
        if let Some(old) = self.nodes.get_mut(&from) {
            old.release(&resources);
        }
        let job = self.job_mut(job_name)?;
        job.node = Some(target.to_string());
        job.log(format!("rebound from '{from}' to '{target}'"));
        Ok(())
    }

    /// Release the reservation a job holds, if any — how a cancelled job
    /// ends, and an attempt that never reached its device (its image or its
    /// node gone); [`Cluster::settle_run`] releases the reservation of one
    /// that did. Which jobs may be cancelled is the caller's to decide.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownJob`] for unknown jobs.
    pub fn release_job(&mut self, job_name: &str) -> Result<(), ClusterError> {
        let job = self.job_mut(job_name)?;
        let resources = job.spec().resources;
        if let Some(node) = job.node.take().and_then(|node| self.nodes.get_mut(&node)) {
            node.release(&resources);
        }
        Ok(())
    }

    /// The orchestrator half of starting an execution attempt: pull the
    /// job's image from the registry and verify the node holding its
    /// reservation exists.
    ///
    /// Returns the [`WorkOrder`] to settle later, with the job's spec on
    /// loan — what the caller describes the attempt from, at once or, for a
    /// device that serves a while, later with [`Cluster::lend_run`]. The
    /// device half — cancellation and binding checks, the fault decision,
    /// the runner — happens on the node's agent, and its verdict is applied
    /// with [`Cluster::settle_run`].
    ///
    /// # Errors
    ///
    /// Returns an error if the job is unknown or holds no reservation, the
    /// image is missing, or the reserved node is gone. A failed pull still
    /// counts as a pull.
    pub fn prepare_run(
        &mut self,
        job_name: &str,
        attempt: u32,
    ) -> Result<(WorkOrder, &JobSpec), ClusterError> {
        let job = self
            .jobs
            .get(job_name)
            .ok_or_else(|| ClusterError::UnknownJob(job_name.to_string()))?;
        let node = reserved_node(job)?;
        self.registry.pull(&job.spec().image)?;
        if !self.nodes.contains_key(&node) {
            return Err(ClusterError::UnknownNode(node));
        }
        self.lend_run(job_name, attempt)
    }

    /// What an attempt of a job that holds a reservation describes itself
    /// from: its [`WorkOrder`], with the job's spec on loan.
    ///
    /// # Errors
    ///
    /// Returns an error if the job is unknown or holds no reservation, or its
    /// image is gone from the registry.
    pub fn lend_run(
        &self,
        job_name: &str,
        attempt: u32,
    ) -> Result<(WorkOrder, &JobSpec), ClusterError> {
        let job = self
            .jobs
            .get(job_name)
            .ok_or_else(|| ClusterError::UnknownJob(job_name.to_string()))?;
        let spec = job.spec();
        let order = WorkOrder {
            job: job_name.to_string(),
            node: reserved_node(job)?,
            attempt,
            resources: spec.resources,
        };
        self.registry.require(&spec.image)?;
        Ok((order, spec))
    }

    /// Apply the device-side verdict of a prepared attempt: release the
    /// order's reservation, clear the job's, and keep a completed run's
    /// result and log lines. An injected fault is reported with its typed
    /// reason; a [`FaultKind::DeviceFlap`] additionally marks the node
    /// `NotReady` (self-healing restarts it later) and records `NodeFlapped`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownJob`] for an order naming a job the cluster
    /// does not hold (nothing is released then),
    /// [`ClusterError::ExecutionFailed`] for failed runs and
    /// [`ClusterError::InjectedFault`] for faulted ones.
    pub fn settle_run(
        &mut self,
        order: &WorkOrder,
        verdict: AttemptVerdict,
    ) -> Result<(), ClusterError> {
        let (job_name, node_name, attempt) = (&order.job, &order.node, order.attempt);
        let flapped = verdict == AttemptVerdict::Faulted(FaultKind::DeviceFlap);
        let job = self.job_mut(job_name)?;
        job.node = None;
        let result = match verdict {
            AttemptVerdict::Completed(outcome) => {
                for line in outcome.logs {
                    job.log(line);
                }
                job.set_result(outcome.counts, outcome.fidelity);
                Ok(())
            }
            AttemptVerdict::Failed(reason) => Err(ClusterError::ExecutionFailed {
                job: job_name.clone(),
                reason,
            }),
            AttemptVerdict::Faulted(kind) => Err(ClusterError::InjectedFault {
                job: job_name.clone(),
                node: node_name.clone(),
                kind,
                attempt,
            }),
        };
        if let Some(node) = self.nodes.get_mut(node_name) {
            node.release(&order.resources);
            if flapped {
                node.mark_not_ready();
            }
        }
        if flapped {
            self.record(
                "NodeFlapped",
                format!("node '{node_name}' flapped while running job '{job_name}'"),
            );
        }
        result
    }

    /// Interrupt a job whose device died under it: its attempt settles
    /// straight into a [`FaultKind::DeviceFlap`] failure (reservation
    /// released, node marked `NotReady`) without the runner ever being
    /// invoked. Virtual-time drivers use this when an outage lands on a
    /// device with a job mid-execution.
    ///
    /// # Errors
    ///
    /// Always errs on success: the applied interrupt surfaces as
    /// [`ClusterError::InjectedFault`] with [`FaultKind::DeviceFlap`], like
    /// any other injected fault. Otherwise the errors of
    /// [`Cluster::lend_run`].
    pub fn interrupt_job(&mut self, job_name: &str, attempt: u32) -> Result<(), ClusterError> {
        let order = self.lend_run(job_name, attempt)?.0;
        self.settle_run(&order, AttemptVerdict::Faulted(FaultKind::DeviceFlap))
    }
}

/// The node holding `job`'s reservation, which every attempt needs.
fn reserved_node(job: &Job) -> Result<String, ClusterError> {
    job.node
        .clone()
        .ok_or_else(|| ClusterError::ExecutionFailed {
            job: job.name().to_string(),
            reason: "the job holds no reservation on any node".into(),
        })
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("jobs", &self.jobs.len())
            .field("events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DeviceRequirements, StrategySpec};
    use crate::resources::Resources;
    use qrio_backend::topology;
    use qrio_bytes::{from_bytes, to_bytes};

    /// One attempt of `job` as the orchestrator makes it, with the device's
    /// answer supplied: `prepare_run`, then `settle_run(verdict)`.
    fn attempt(
        cluster: &mut Cluster,
        job: &str,
        verdict: AttemptVerdict,
    ) -> Result<(), ClusterError> {
        let (order, _) = cluster.prepare_run(job, 0)?;
        cluster.settle_run(&order, verdict)
    }

    /// An attempt the device completes.
    fn run(cluster: &mut Cluster, job: &str) -> Result<(), ClusterError> {
        let outcome = ExecutionOutcome {
            counts: vec![("0000".into(), 64)],
            fidelity: Some(1.0),
            logs: vec![format!("ran {job}")],
        };
        attempt(cluster, job, AttemptVerdict::Completed(outcome))
    }

    /// An attempt the device's runner fails.
    fn crash(cluster: &mut Cluster, job: &str) -> Result<(), ClusterError> {
        attempt(
            cluster,
            job,
            AttemptVerdict::Failed("simulated runner crash".into()),
        )
    }

    fn make_node(name: &str, qubits: usize, err: f64) -> Node {
        Node::from_backend(
            Backend::uniform(name, topology::line(qubits), 0.01, err),
            Resources::new(4000, 8192),
        )
    }

    fn make_spec(name: &str, qubits: usize) -> JobSpec {
        JobSpec {
            name: name.into(),
            image: format!("qrio/{name}:latest"),
            qasm: "OPENQASM 2.0;".into(),
            num_qubits: qubits,
            resources: Resources::new(1000, 1024),
            requirements: DeviceRequirements::none(),
            strategy: StrategySpec::fidelity(0.9),
            priority: 0,
            shots: 64,
            threads: 0,
            retry: None,
            deadline: None,
        }
    }

    fn cluster_with_nodes() -> Cluster {
        let mut cluster = Cluster::new();
        cluster.add_node(make_node("noisy", 8, 0.3)).unwrap();
        cluster.add_node(make_node("quiet", 8, 0.02)).unwrap();
        cluster.add_node(make_node("tiny", 2, 0.01)).unwrap();
        cluster
    }

    /// Bind `job` to `node` with a one-entry ranking, for tests that only
    /// need a `Scheduled` job.
    fn bind(cluster: &mut Cluster, job: &str, node: &str) -> ScheduleDecision {
        cluster
            .bind_job(job, vec![(node.to_string(), 0.0)], Vec::new(), Vec::new())
            .unwrap()
    }

    /// One whole cycle over the cluster's own nodes: filter, score by average
    /// two-qubit error (where the scheduler crate asks the meta server), bind.
    fn schedule(cluster: &mut Cluster, job_name: &str) -> Result<ScheduleDecision, ClusterError> {
        let job = cluster.job(job_name).unwrap();
        let mut ranking = Vec::new();
        let mut rejected = Vec::new();
        for node in cluster.nodes() {
            let name = node.name().to_string();
            match node.rejection(job) {
                Some(reason) => rejected.push((name, reason)),
                None => ranking.push((name, node.backend().avg_two_qubit_error())),
            }
        }
        ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
        cluster.bind_job(job_name, ranking, rejected, Vec::new())
    }

    fn push_image_for(cluster: &mut Cluster, spec: &JobSpec) {
        cluster.push_image(spec.image.clone());
    }

    #[test]
    fn node_management() {
        let mut cluster = cluster_with_nodes();
        assert_eq!(cluster.node_count(), 3);
        assert!(cluster.add_node(make_node("quiet", 3, 0.1)).is_err());
        assert!(cluster.node("quiet").is_some());
        cluster.remove_node("tiny").unwrap();
        assert!(cluster.remove_node("tiny").is_err());
        assert_eq!(cluster.node_count(), 2);
        assert!(cluster.events().iter().any(|e| e.kind == "NodeAdded"));
    }

    #[test]
    fn schedule_prefers_lowest_score_and_filters_small_devices() {
        let mut cluster = cluster_with_nodes();
        let spec = make_spec("job-a", 5);
        push_image_for(&mut cluster, &spec);
        cluster.submit_job(spec).unwrap();
        let decision = schedule(&mut cluster, "job-a").unwrap();
        assert_eq!(decision.node, "quiet");
        assert_eq!(decision.candidates.len(), 2);
        assert_eq!(decision.filtered_out.len(), 1);
        let (node, reason) = &decision.filtered_out[0];
        assert_eq!(node, "tiny");
        assert!(reason.contains("QubitCount"), "{reason}");
        assert_eq!(cluster.job("job-a").unwrap().node(), Some("quiet"));
        // Resources were reserved on the chosen node.
        assert_eq!(
            cluster.node("quiet").unwrap().allocated(),
            Resources::new(1000, 1024)
        );
    }

    #[test]
    fn unschedulable_job_holds_no_reservation() {
        let mut cluster = cluster_with_nodes();
        let spec = make_spec("huge", 50);
        cluster.submit_job(spec).unwrap();
        let err = schedule(&mut cluster, "huge").unwrap_err();
        assert_eq!(
            err,
            ClusterError::Unschedulable {
                job: "huge".into(),
                reason: "no node passed the filtering stage".into()
            }
        );
        // The job is left as it was: no reservation, no log line, and the
        // node log holds the three nodes joining and nothing else.
        let job = cluster.job("huge").unwrap();
        assert_eq!((job.node(), job.logs().len()), (None, 0));
        let kinds: Vec<&str> = cluster.events().iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["NodeAdded"; 3]);
    }

    #[test]
    fn run_job_executes_and_records_results() {
        let mut cluster = cluster_with_nodes();
        let spec = make_spec("job-run", 4);
        push_image_for(&mut cluster, &spec);
        cluster.submit_job(spec).unwrap();
        bind(&mut cluster, "job-run", "quiet");
        run(&mut cluster, "job-run").unwrap();
        let job = cluster.job("job-run").unwrap();
        assert_eq!(job.node(), None, "settling clears the reservation");
        assert_eq!(job.result_counts()[0].1, 64);
        // The bind line and the runner's lines, nothing else.
        assert_eq!(job.logs().len(), 2);
        assert!(job.logs()[1].contains("ran job-run"));
        // Resources released after completion.
        assert_eq!(
            cluster.node("quiet").unwrap().allocated(),
            Resources::default()
        );
        // The job's record is its own: the node log did not grow.
        assert_eq!(cluster.events().len(), 3);
    }

    #[test]
    fn failing_runner_marks_job_failed_and_releases_resources() {
        let mut cluster = cluster_with_nodes();
        let spec = make_spec("job-fail", 4);
        push_image_for(&mut cluster, &spec);
        cluster.submit_job(spec).unwrap();
        bind(&mut cluster, "job-fail", "quiet");
        assert!(crash(&mut cluster, "job-fail").is_err());
        assert_eq!(cluster.job("job-fail").unwrap().node(), None);
        assert_eq!(
            cluster.node("quiet").unwrap().allocated(),
            Resources::default()
        );
        // A settled attempt leaves nothing held: a retry binds afresh.
        bind(&mut cluster, "job-fail", "quiet");
        run(&mut cluster, "job-fail").unwrap();
    }

    #[test]
    fn settling_an_unknown_job_releases_nothing() {
        let mut cluster = cluster_with_nodes();
        submit_and_schedule(&mut cluster, "held");
        let order = WorkOrder {
            job: "ghost".into(),
            node: "quiet".into(),
            attempt: 0,
            resources: Resources::new(1000, 1024),
        };
        for verdict in [
            AttemptVerdict::Failed("lost".into()),
            AttemptVerdict::Faulted(FaultKind::DeviceFlap),
        ] {
            assert_eq!(
                cluster.settle_run(&order, verdict),
                Err(ClusterError::UnknownJob("ghost".into()))
            );
        }
        let quiet = cluster.node("quiet").unwrap();
        assert_eq!(quiet.allocated(), Resources::new(1000, 1024));
        assert_eq!(quiet.status(), NodeStatus::Ready);
        assert_eq!(cluster.job("held").unwrap().node(), Some("quiet"));
    }

    #[test]
    fn run_requires_scheduling_and_image() {
        let mut cluster = cluster_with_nodes();
        let spec = make_spec("job-x", 4);
        cluster.submit_job(spec).unwrap();
        // Not scheduled yet.
        assert!(run(&mut cluster, "job-x").is_err());
        bind(&mut cluster, "job-x", "quiet");
        // Image was never pushed.
        assert!(matches!(
            run(&mut cluster, "job-x"),
            Err(ClusterError::ImageNotFound(_))
        ));
        assert!(run(&mut cluster, "unknown").is_err());
    }

    #[test]
    fn node_load_tracks_bound_jobs_and_utilization() {
        let mut cluster = cluster_with_nodes();
        let holding = |cluster: &Cluster, node: &str| {
            let on = |job: &&Job| job.node() == Some(node);
            cluster.jobs().filter(on).count()
        };
        assert_eq!(holding(&cluster, "quiet"), 0);
        assert_eq!(cluster.node("quiet").unwrap().utilization(), 0.0);

        let spec = make_spec("load-job", 4);
        push_image_for(&mut cluster, &spec);
        cluster.submit_job(spec).unwrap();
        bind(&mut cluster, "load-job", "quiet");
        assert_eq!(holding(&cluster, "quiet"), 1);
        // CPU is the dominant resource: 1000 of 4000 millis, 1024 of 8192 MiB.
        assert_eq!(cluster.node("quiet").unwrap().utilization(), 0.25);

        run(&mut cluster, "load-job").unwrap();
        assert_eq!(holding(&cluster, "quiet"), 0);
        assert_eq!(cluster.node("quiet").unwrap().utilization(), 0.0);
    }

    #[test]
    fn self_healing_restarts_failed_nodes() {
        let mut cluster = cluster_with_nodes();
        cluster.node_mut("noisy").unwrap().mark_not_ready();
        assert_eq!(cluster.ready_nodes().count(), 2);
        let healed = cluster.heal_nodes();
        assert_eq!(healed, vec!["noisy"]);
        assert_eq!(cluster.ready_nodes().count(), 3);
        assert_eq!(cluster.node("noisy").unwrap().restart_count(), 1);
    }

    #[test]
    fn rebind_moves_scheduled_jobs_and_their_resources() {
        let mut cluster = cluster_with_nodes();
        let spec = make_spec("mover", 4);
        push_image_for(&mut cluster, &spec);
        cluster.submit_job(spec).unwrap();
        bind(&mut cluster, "mover", "quiet");
        assert_eq!(cluster.job("mover").unwrap().node(), Some("quiet"));

        cluster.rebind_job("mover", "noisy").unwrap();
        assert_eq!(cluster.job("mover").unwrap().node(), Some("noisy"));
        assert_eq!(
            cluster.node("quiet").unwrap().allocated(),
            Resources::default()
        );
        assert_eq!(
            cluster.node("noisy").unwrap().allocated(),
            Resources::new(1000, 1024)
        );
        let logs = cluster.job_logs("mover").unwrap();
        assert_eq!(logs.last().unwrap(), "rebound from 'quiet' to 'noisy'");
        // Rebinding onto the current node is a no-op.
        cluster.rebind_job("mover", "noisy").unwrap();
        assert_eq!(cluster.job_logs("mover").unwrap().len(), 2);
        // The migrated job still runs to completion on the new node.
        run(&mut cluster, "mover").unwrap();
        assert_eq!(cluster.job("mover").unwrap().result_counts()[0].1, 64);
        assert_eq!(
            cluster.node("noisy").unwrap().allocated(),
            Resources::default()
        );
    }

    #[test]
    fn rebind_rejects_bad_targets_and_phases() {
        let mut cluster = cluster_with_nodes();
        let spec = make_spec("stuck", 4);
        push_image_for(&mut cluster, &spec);
        cluster.submit_job(spec).unwrap();
        // A job that holds no reservation has none to move.
        assert!(matches!(
            cluster.rebind_job("stuck", "noisy"),
            Err(ClusterError::BindingRejected { .. })
        ));
        bind(&mut cluster, "stuck", "quiet");
        assert!(matches!(
            cluster.rebind_job("stuck", "missing"),
            Err(ClusterError::UnknownNode(_))
        ));
        assert!(matches!(
            cluster.rebind_job("ghost", "noisy"),
            Err(ClusterError::UnknownJob(_))
        ));
        // A full target node rejects the rebind and the old binding survives.
        let mut hog = make_spec("hog", 4);
        hog.resources = Resources::new(4000, 8192);
        push_image_for(&mut cluster, &hog);
        cluster.submit_job(hog).unwrap();
        // The hog does not fit next to 'stuck', and binding says so.
        assert!(matches!(
            cluster.bind_job("hog", vec![("quiet".into(), 0.0)], Vec::new(), Vec::new()),
            Err(ClusterError::BindingRejected { .. })
        ));
        bind(&mut cluster, "hog", "noisy");
        let err = cluster.rebind_job("stuck", "noisy");
        assert!(matches!(err, Err(ClusterError::BindingRejected { .. })));
        assert_eq!(cluster.job("stuck").unwrap().node(), Some("quiet"));
    }

    #[test]
    fn update_node_backend_refreshes_calibration_labels() {
        let mut cluster = cluster_with_nodes();
        let before = cluster.node("quiet").unwrap().node_labels();
        assert!((before.avg_two_qubit_error - 0.02).abs() < 1e-12);
        let drifted = Backend::uniform("quiet", topology::line(8), 0.01, 0.3);
        cluster.update_node_backend(drifted).unwrap();
        let after = cluster.node("quiet").unwrap().node_labels();
        assert!((after.avg_two_qubit_error - 0.3).abs() < 1e-12);
        assert!(cluster.events().iter().any(|e| e.kind == "NodeCalibrated"));
        // Unknown nodes are rejected.
        let stranger = Backend::uniform("stranger", topology::line(4), 0.0, 0.0);
        assert!(matches!(
            cluster.update_node_backend(stranger),
            Err(ClusterError::UnknownNode(_))
        ));
    }

    #[test]
    fn cancel_dequeues_pending_and_releases_scheduled_resources() {
        let mut cluster = cluster_with_nodes();
        // Unbound: the job is withdrawn before any binding.
        let pending = make_spec("cancel-pending", 4);
        push_image_for(&mut cluster, &pending);
        cluster.submit_job(pending).unwrap();
        cluster.release_job("cancel-pending").unwrap();
        assert_eq!(cluster.job("cancel-pending").unwrap().node(), None);

        // Bound: cancellation releases the node's reserved resources.
        let scheduled = make_spec("cancel-scheduled", 4);
        push_image_for(&mut cluster, &scheduled);
        cluster.submit_job(scheduled).unwrap();
        bind(&mut cluster, "cancel-scheduled", "quiet");
        assert_eq!(
            cluster.node("quiet").unwrap().allocated(),
            Resources::new(1000, 1024)
        );
        cluster.release_job("cancel-scheduled").unwrap();
        assert_eq!(cluster.job("cancel-scheduled").unwrap().node(), None);
        assert_eq!(
            cluster.node("quiet").unwrap().allocated(),
            Resources::default()
        );
        // A cancelled job holds nothing to run on, and a second cancel
        // releases nothing.
        assert!(run(&mut cluster, "cancel-scheduled").is_err());
        cluster.release_job("cancel-scheduled").unwrap();
        assert_eq!(
            cluster.node("quiet").unwrap().allocated(),
            Resources::default()
        );
        assert!(matches!(
            cluster.release_job("ghost"),
            Err(ClusterError::UnknownJob(_))
        ));
    }

    #[test]
    fn remove_image_garbage_collects_the_registry() {
        let mut cluster = cluster_with_nodes();
        let spec = make_spec("gc-job", 4);
        push_image_for(&mut cluster, &spec);
        assert!(cluster.registry().contains(&spec.image));
        assert!(cluster.remove_image(&spec.image));
        assert!(!cluster.registry().contains(&spec.image));
        // Removing a missing image is a no-op.
        assert!(!cluster.remove_image("nope"));
    }

    #[test]
    fn export_and_restore_round_trip_exactly() {
        let mut cluster = cluster_with_nodes();
        // Mixed state: a succeeded job, a scheduled (bound) job, a pending
        // job, a cordoned node, a restarted node, a custom label and live
        // registry counters.
        let done = make_spec("done", 4);
        push_image_for(&mut cluster, &done);
        cluster.submit_job(done).unwrap();
        bind(&mut cluster, "done", "quiet");
        run(&mut cluster, "done").unwrap();

        let bound = make_spec("bound", 4);
        push_image_for(&mut cluster, &bound);
        cluster.submit_job(bound).unwrap();
        bind(&mut cluster, "bound", "quiet");

        let waiting = make_spec("waiting", 4);
        cluster.submit_job(waiting).unwrap();

        cluster.node_mut("tiny").unwrap().cordon();
        cluster.node_mut("noisy").unwrap().mark_not_ready();
        cluster.heal_nodes();
        cluster
            .node_mut("noisy")
            .unwrap()
            .set_label("vendor", "umich");

        let bytes = to_bytes(&cluster);
        let restored: Cluster = from_bytes(&bytes).unwrap();

        // Decoding is a fixed point: the restored cluster encodes to the
        // same bytes.
        assert_eq!(to_bytes(&restored), bytes);
        assert_eq!(restored.job_logs("done"), cluster.job_logs("done"));
        // Live behaviour survives: reservations, bound resources and
        // counters are intact.
        assert_eq!(restored.job("waiting").unwrap().node(), None);
        assert_eq!(restored.job("bound").unwrap().node(), Some("quiet"));
        assert_eq!(
            restored.node("quiet").unwrap().allocated(),
            Resources::new(1000, 1024)
        );
        assert_eq!(restored.node("noisy").unwrap().restart_count(), 1);
        assert_eq!(
            restored.node("tiny").unwrap().status(),
            NodeStatus::Cordoned
        );
        assert_eq!(
            restored.node("noisy").unwrap().labels().get("vendor"),
            Some(&"umich".to_string())
        );
        assert_eq!(
            restored.registry().pull_count(),
            cluster.registry().pull_count()
        );
        assert_eq!(restored.events().len(), cluster.events().len());
    }

    #[test]
    fn duplicate_jobs_rejected_and_logs_accessible() {
        let mut cluster = cluster_with_nodes();
        let spec = make_spec("dup", 3);
        cluster.submit_job(spec.clone()).unwrap();
        assert!(cluster.submit_job(spec).is_err());
        assert!(cluster.job_logs("dup").unwrap().is_empty());
        assert!(cluster.job_logs("missing").is_err());
    }

    fn submit_and_schedule(cluster: &mut Cluster, name: &str) {
        let spec = make_spec(name, 4);
        push_image_for(cluster, &spec);
        cluster.submit_job(spec).unwrap();
        bind(cluster, name, "quiet");
    }

    #[test]
    fn injected_fault_fails_job_and_releases_resources() {
        let mut cluster = cluster_with_nodes();
        let injector = FaultInjector {
            transient_rate: 1.0,
            ..FaultInjector::new(11)
        };
        cluster.set_fault_injector(Some(injector));
        submit_and_schedule(&mut cluster, "doomed");
        // The agent holding the plan's replica draws this before its runner.
        let kind = injector.decide("doomed", "quiet", 0).unwrap();
        let err = attempt(&mut cluster, "doomed", AttemptVerdict::Faulted(kind)).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::InjectedFault {
                kind: FaultKind::TransientExecution,
                attempt: 0,
                ..
            }
        ));
        assert_eq!(cluster.job("doomed").unwrap().node(), None);
        // Resources released; the node did not flap.
        assert_eq!(
            cluster.node("quiet").unwrap().allocated(),
            Resources::default()
        );
        assert!(cluster.events().iter().all(|e| e.kind == "NodeAdded"));
    }

    #[test]
    fn fault_decisions_are_deterministic_per_attempt() {
        let injector = FaultInjector {
            transient_rate: 0.3,
            calibration_rate: 0.2,
            ..FaultInjector::new(99)
        };
        for attempt in 0..32 {
            assert_eq!(
                injector.decide("job", "node", attempt),
                injector.decide("job", "node", attempt)
            );
        }
        // Some attempt escapes the injector: a retry loop can make progress.
        assert!((0..32).any(|a| injector.decide("job", "node", a).is_none()));
    }

    #[test]
    fn device_flap_marks_node_not_ready_and_heals() {
        let mut cluster = cluster_with_nodes();
        let injector = FaultInjector {
            flap_rate: 1.0,
            ..FaultInjector::new(3)
        };
        cluster.set_fault_injector(Some(injector));
        submit_and_schedule(&mut cluster, "flappy");
        let kind = injector.decide("flappy", "quiet", 0).unwrap();
        let err = attempt(&mut cluster, "flappy", AttemptVerdict::Faulted(kind)).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::InjectedFault {
                kind: FaultKind::DeviceFlap,
                ..
            }
        ));
        assert_eq!(
            cluster.node("quiet").unwrap().status(),
            NodeStatus::NotReady
        );
        assert!(cluster.events().iter().any(|e| e.kind == "NodeFlapped"));
        cluster.heal_nodes();
        assert_eq!(cluster.node("quiet").unwrap().status(), NodeStatus::Ready);
    }

    #[test]
    fn interrupt_turns_scheduled_job_into_flap_fault() {
        let mut cluster = cluster_with_nodes();
        submit_and_schedule(&mut cluster, "cut-short");
        let err = cluster.interrupt_job("cut-short", 2).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::InjectedFault {
                kind: FaultKind::DeviceFlap,
                attempt: 2,
                ..
            }
        ));
        assert_eq!(cluster.job("cut-short").unwrap().node(), None);
        assert_eq!(
            cluster.node("quiet").unwrap().allocated(),
            Resources::default()
        );
        // A job that holds no reservation cannot be interrupted.
        assert!(cluster.interrupt_job("cut-short", 3).is_err());
        assert!(cluster.interrupt_job("missing", 0).is_err());
    }

    #[test]
    fn fault_injector_survives_state_export() {
        let mut cluster = cluster_with_nodes();
        let injector = FaultInjector {
            transient_rate: 0.25,
            slow_rate: 0.1,
            ..FaultInjector::new(7)
        };
        cluster.set_fault_injector(Some(injector));
        let restored: Cluster = from_bytes(&to_bytes(&cluster)).unwrap();
        assert_eq!(restored.fault_injector(), Some(&injector));
    }
}
