//! Cluster nodes: one quantum device plus classical capacity per node.

use std::collections::BTreeMap;
use std::fmt;

use qrio_backend::{Backend, NodeLabels};
use qrio_bytes::{codec_enum, codec_struct};

use crate::job::{DeviceRequirements, Job};
use crate::resources::Resources;

/// Health of a cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeStatus {
    /// The node is accepting jobs.
    #[default]
    Ready,
    /// The node is down; QRIO (like Kubernetes) will restart it.
    NotReady,
    /// The node has been cordoned — by the vendor, or held by its circuit
    /// breaker — and accepts no new jobs.
    Cordoned,
}

codec_enum!(NodeStatus { 0 => Ready, 1 => NotReady, 2 => Cordoned });

/// A QRIO worker node: a quantum device, its vendor-provided backend spec, the
/// Kubernetes-style labels derived from it, and classical capacity (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    backend: Backend,
    labels: BTreeMap<String, String>,
    capacity: Resources,
    allocated: Resources,
    /// Health and the vendor's cordon (an outage is one).
    status: NodeStatus,
    /// Whether the node's circuit breaker holds it out of service: a second
    /// reason beside `status`, so neither lifts the other's cordon.
    breaker_hold: bool,
    restart_count: u64,
}

// Decoding restores the label map (custom labels included), the live
// allocations, the health status, the breaker hold and the restart counter
// verbatim: no label is rederived and no counter reset, unlike
// `Node::from_backend`.
codec_struct!(Node {
    backend,
    labels,
    capacity,
    allocated,
    status,
    breaker_hold,
    restart_count,
});

impl Node {
    /// Create a node from a backend with the given classical capacity.
    ///
    /// The node name is the backend name, and the QRIO labels of §3.1 are
    /// attached automatically.
    pub fn from_backend(backend: Backend, capacity: Resources) -> Self {
        let labels = NodeLabels::from_backend(&backend, capacity.cpu_millis, capacity.memory_mib)
            .to_string_map();
        Node {
            backend,
            labels,
            capacity,
            allocated: Resources::default(),
            status: NodeStatus::Ready,
            breaker_hold: false,
            restart_count: 0,
        }
    }

    /// The node name (equals the device name).
    pub fn name(&self) -> &str {
        self.backend.name()
    }

    /// The quantum device hosted by this node.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Kubernetes-style string labels.
    pub fn labels(&self) -> &BTreeMap<String, String> {
        &self.labels
    }

    /// Structured view of the QRIO labels.
    pub fn node_labels(&self) -> NodeLabels {
        NodeLabels::from_string_map(&self.labels)
    }

    /// Attach or overwrite a label.
    pub fn set_label(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.labels.insert(key.into(), value.into());
    }

    /// Total classical capacity.
    pub fn capacity(&self) -> Resources {
        self.capacity
    }

    /// Classical resources currently allocated to running jobs.
    pub fn allocated(&self) -> Resources {
        self.allocated
    }

    /// The dominant fraction of the node's classical capacity its
    /// reservations hold — the larger of CPU and memory, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let ratio = |used: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                used as f64 / total as f64
            }
        };
        let (used, total) = (self.allocated, self.capacity);
        let cpu = ratio(used.cpu_millis, total.cpu_millis);
        cpu.max(ratio(used.memory_mib, total.memory_mib))
    }

    /// Classical resources still available.
    pub fn available(&self) -> Resources {
        self.capacity.remaining(&self.allocated)
    }

    /// Current health status: `Cordoned` for a healthy node that its vendor
    /// cordoned or its breaker holds.
    pub fn status(&self) -> NodeStatus {
        match self.status {
            NodeStatus::Ready if self.breaker_hold => NodeStatus::Cordoned,
            status => status,
        }
    }

    /// Whether the node is out of service: cordoned by its vendor or held by
    /// its breaker, whatever its health. It takes no new job, and starts
    /// none of the ones bound to it.
    pub fn is_cordoned(&self) -> bool {
        self.status == NodeStatus::Cordoned || self.breaker_hold
    }

    /// Whether the node can accept a job with the given resource request.
    pub fn can_accept(&self, request: &Resources) -> bool {
        self.status() == NodeStatus::Ready && self.available().can_fit(request)
    }

    /// Why this node cannot host `job` right now, or `None` when it can:
    /// the node is Ready, has room for the job's classical request, has the
    /// qubits, and its labels meet the job's device bounds. This is the one
    /// feasibility rule of the scheduling cycle (the "Filtering" stage of
    /// §3.5), shared by first binding and re-ranking: resources the job
    /// already holds on this node count as free, so a bound job's own node
    /// stays a candidate for it.
    pub fn rejection(&self, job: &Job) -> Option<String> {
        if self.status() != NodeStatus::Ready {
            return Some("node not ready".to_string());
        }
        let spec = job.spec();
        let mut available = self.available();
        if job.node() == Some(self.name()) {
            available = available.plus(&spec.resources);
        }
        if !available.can_fit(&spec.resources) {
            return Some(format!(
                "ResourceFit: insufficient classical resources: need {}, available {available}",
                spec.resources
            ));
        }
        let qubits = self.backend.num_qubits();
        if qubits < spec.num_qubits {
            return Some(format!(
                "QubitCount: device has {qubits} qubits, job needs {}",
                spec.num_qubits
            ));
        }
        // Most jobs ask for no device bound: parse the labels only for one
        // that does.
        if spec.requirements == DeviceRequirements::none() {
            return None;
        }
        let labels = self.node_labels();
        if !spec.requirements.is_satisfied_by(&labels) {
            return Some(format!(
                "DeviceRequirements: node labels ({labels}) do not satisfy the requested device bounds"
            ));
        }
        None
    }

    /// Reserve resources for a job. Returns `false` (and reserves nothing) if
    /// the node cannot accept the request.
    pub fn allocate(&mut self, request: &Resources) -> bool {
        if !self.can_accept(request) {
            return false;
        }
        self.allocated = self.allocated.plus(request);
        true
    }

    /// Release resources when a job finishes.
    pub fn release(&mut self, request: &Resources) {
        self.allocated = self.allocated.remaining(request);
    }

    /// Replace the node's backend after a calibration refresh (or drift
    /// event), recomputing the derived QRIO labels. Custom labels attached
    /// with [`Node::set_label`] are preserved; the `qrio.io/*` labels are
    /// overwritten from the new calibration.
    pub fn set_backend(&mut self, backend: Backend) {
        let labels =
            NodeLabels::from_backend(&backend, self.capacity.cpu_millis, self.capacity.memory_mib)
                .to_string_map();
        for (key, value) in labels {
            self.labels.insert(key, value);
        }
        self.backend = backend;
    }

    /// Mark the node as failed (self-healing will restart it).
    pub fn mark_not_ready(&mut self) {
        self.status = NodeStatus::NotReady;
    }

    /// Restart the node: it returns to `Ready`, incrementing the restart
    /// counter — the self-healing behaviour the paper gets from Kubernetes
    /// (§3.1). Its allocations stay: the jobs waiting on it still hold their
    /// reservations.
    pub fn restart(&mut self) {
        self.status = NodeStatus::Ready;
        self.restart_count += 1;
    }

    /// Cordon the node so no new jobs are scheduled on it.
    pub fn cordon(&mut self) {
        self.status = NodeStatus::Cordoned;
    }

    /// Lift the vendor's cordon. A breaker hold stays.
    pub fn uncordon(&mut self) {
        if self.status == NodeStatus::Cordoned {
            self.status = NodeStatus::Ready;
        }
    }

    /// Set or lift the breaker's hold. The vendor's cordon stays. A node
    /// that went down is the breaker's once it trips: probation, not a
    /// restart, returns it to service.
    pub fn hold_for_breaker(&mut self, held: bool) {
        if held && self.status == NodeStatus::NotReady {
            self.status = NodeStatus::Ready;
        }
        self.breaker_hold = held;
    }

    /// How many times the node has been restarted.
    pub fn restart_count(&self) -> u64 {
        self.restart_count
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Node '{}' [{:?}]: {} qubits, {} available",
            self.name(),
            self.status(),
            self.backend.num_qubits(),
            self.available()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DeviceRequirements, JobSpec, StrategySpec};
    use qrio_backend::topology;

    fn node() -> Node {
        let backend = Backend::uniform("dev-a", topology::line(5), 0.01, 0.05);
        Node::from_backend(backend, Resources::new(4000, 8192))
    }

    fn job(qubits: usize) -> Job {
        Job::new(JobSpec {
            name: "test".into(),
            image: "img".into(),
            qasm: String::new(),
            num_qubits: qubits,
            resources: Resources::new(1000, 1024),
            requirements: DeviceRequirements {
                max_two_qubit_error: Some(0.1),
                ..DeviceRequirements::default()
            },
            strategy: StrategySpec::fidelity(0.9),
            priority: 0,
            shots: 128,
            threads: 0,
            retry: None,
            deadline: None,
        })
    }

    #[test]
    fn resource_fit_filter() {
        let mut n = node();
        let mut j = job(3);
        assert_eq!(n.rejection(&j), None);
        n.allocate(&Resources::new(4000, 8192));
        let reason = n.rejection(&j).unwrap();
        assert!(reason.starts_with("ResourceFit: "), "{reason}");
        assert!(reason.ends_with("available 0m CPU / 0 MiB"), "{reason}");
        // What the job itself holds on this node counts as free; a binding
        // elsewhere does not.
        n.release(&Resources::new(1000, 1024));
        n.allocate(&Resources::new(1000, 1024));
        j.node = Some("dev-a".into());
        assert_eq!(n.rejection(&j), None);
        j.node = Some("elsewhere".into());
        assert!(n.rejection(&j).is_some());
        // Not-ready nodes are rejected before anything else is looked at.
        n.cordon();
        assert_eq!(n.rejection(&job(3)).as_deref(), Some("node not ready"));
    }

    #[test]
    fn qubit_count_filter() {
        let n = node();
        assert_eq!(n.rejection(&job(5)), None);
        assert_eq!(
            n.rejection(&job(6)).as_deref(),
            Some("QubitCount: device has 5 qubits, job needs 6")
        );
    }

    #[test]
    fn device_requirements_filter() {
        let bad = Node::from_backend(
            Backend::uniform("bad", topology::line(5), 0.01, 0.5),
            Resources::new(4000, 8192),
        );
        assert_eq!(node().rejection(&job(3)), None);
        let reason = bad.rejection(&job(3)).unwrap();
        assert!(reason.starts_with("DeviceRequirements: node labels ("));
        // A job that asks for no bound passes whatever the labels say.
        let unbounded = Job::new(JobSpec {
            requirements: DeviceRequirements::none(),
            ..job(3).spec().clone()
        });
        assert_eq!(bad.rejection(&unbounded), None);
    }

    #[test]
    fn labels_are_attached() {
        let n = node();
        assert_eq!(n.name(), "dev-a");
        assert_eq!(
            n.labels().get("qrio.io/qubits").map(String::as_str),
            Some("5")
        );
        assert_eq!(n.node_labels().num_qubits, 5);
        assert_eq!(n.node_labels().cpu_millis, 4000);
    }

    #[test]
    fn allocation_lifecycle() {
        let mut n = node();
        let req = Resources::new(2000, 4096);
        assert!(n.can_accept(&req));
        assert_eq!(n.utilization(), 0.0);
        assert!(n.allocate(&req));
        assert_eq!(n.available(), Resources::new(2000, 4096));
        assert_eq!(n.utilization(), 0.5);
        assert!(n.allocate(&Resources::new(1000, 0)));
        assert_eq!(n.utilization(), 0.75, "the dominant resource counts");
        n.release(&Resources::new(1000, 0));
        // A second identical job fits exactly; a third does not.
        assert!(n.allocate(&req));
        assert!(!n.allocate(&req));
        n.release(&req);
        assert!(n.can_accept(&req));
    }

    #[test]
    fn failure_and_restart() {
        let mut n = node();
        let waiting = Resources::new(1000, 1024);
        n.allocate(&waiting);
        n.mark_not_ready();
        assert_eq!(n.status(), NodeStatus::NotReady);
        assert!(!n.can_accept(&Resources::new(1, 1)));
        n.restart();
        assert_eq!(n.status(), NodeStatus::Ready);
        // The reservation outlives the restart: its job still waits here.
        assert_eq!(n.allocated(), waiting);
        assert_eq!(n.restart_count(), 1);
        n.release(&waiting);
        assert_eq!(n.allocated(), Resources::default());
    }

    #[test]
    fn cordon_blocks_scheduling() {
        let mut n = node();
        n.cordon();
        assert!(!n.can_accept(&Resources::new(1, 1)));
        n.uncordon();
        assert!(n.can_accept(&Resources::new(1, 1)));
    }

    #[test]
    fn a_vendor_cordon_and_a_breaker_hold_lift_separately() {
        let mut n = node();
        let free = |n: &Node| {
            (
                n.status(),
                n.is_cordoned(),
                n.can_accept(&Resources::new(1, 1)),
            )
        };
        n.hold_for_breaker(true);
        n.cordon();
        n.uncordon();
        assert_eq!(free(&n), (NodeStatus::Cordoned, true, false), "still held");
        n.cordon();
        n.hold_for_breaker(false);
        assert_eq!(
            free(&n),
            (NodeStatus::Cordoned, true, false),
            "still cordoned"
        );
        n.uncordon();
        assert_eq!(free(&n), (NodeStatus::Ready, false, true));
        // A held node that went down reports its health; it is held all the
        // same, and stays down when the hold lifts.
        n.hold_for_breaker(true);
        n.mark_not_ready();
        assert_eq!(free(&n), (NodeStatus::NotReady, true, false));
        n.hold_for_breaker(false);
        assert_eq!(free(&n), (NodeStatus::NotReady, false, false));
        // A trip takes a node that is down into the hold: when it lifts,
        // the node serves again.
        n.hold_for_breaker(true);
        assert_eq!(free(&n), (NodeStatus::Cordoned, true, false));
        n.hold_for_breaker(false);
        assert_eq!(free(&n), (NodeStatus::Ready, false, true));
    }

    #[test]
    fn custom_labels() {
        let mut n = node();
        n.set_label("vendor", "umich");
        assert_eq!(n.labels().get("vendor").map(String::as_str), Some("umich"));
        assert!(n.to_string().contains("dev-a"));
    }
}
