//! Quantum jobs: specifications, device requirements, reservations and logs.

use std::collections::BTreeMap;
use std::fmt;

use qrio_backend::NodeLabels;
use qrio_bytes::{codec_enum, codec_struct};

use crate::fault::RetryPolicy;
use crate::resources::Resources;

/// User-specified bounds on device characteristics (§3.1/§3.2): the filter
/// stage of the QRIO scheduler compares these against node labels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceRequirements {
    /// Minimum number of qubits (usually the circuit width).
    pub min_qubits: Option<usize>,
    /// Maximum tolerated average two-qubit gate error.
    pub max_two_qubit_error: Option<f64>,
    /// Maximum tolerated average readout error.
    pub max_readout_error: Option<f64>,
    /// Minimum average T1 (µs).
    pub min_t1_us: Option<f64>,
    /// Minimum average T2 (µs).
    pub min_t2_us: Option<f64>,
}

codec_struct!(DeviceRequirements {
    min_qubits,
    max_two_qubit_error,
    max_readout_error,
    min_t1_us,
    min_t2_us,
});

impl DeviceRequirements {
    /// No constraints at all.
    pub fn none() -> Self {
        DeviceRequirements::default()
    }

    /// Whether a node with the given labels satisfies every requested bound.
    pub fn is_satisfied_by(&self, labels: &NodeLabels) -> bool {
        self.rejection(labels).is_none()
    }

    /// The first requested bound `labels` violates, as a human-readable
    /// reason; `None` when every bound holds (bounds are inclusive).
    pub fn rejection(&self, labels: &NodeLabels) -> Option<String> {
        if let Some(min_qubits) = self.min_qubits {
            if labels.num_qubits < min_qubits {
                return Some(format!(
                    "{} qubits < required {min_qubits}",
                    labels.num_qubits
                ));
            }
        }
        if let Some(max_err) = self.max_two_qubit_error {
            if labels.avg_two_qubit_error > max_err {
                return Some(format!(
                    "avg 2q error {:.4} > allowed {max_err:.4}",
                    labels.avg_two_qubit_error
                ));
            }
        }
        if let Some(max_ro) = self.max_readout_error {
            if labels.avg_readout_error > max_ro {
                return Some(format!(
                    "avg readout error {:.4} > allowed {max_ro:.4}",
                    labels.avg_readout_error
                ));
            }
        }
        if let Some(min_t1) = self.min_t1_us {
            if labels.avg_t1_us < min_t1 {
                return Some(format!(
                    "avg T1 {:.0}us < required {min_t1:.0}us",
                    labels.avg_t1_us
                ));
            }
        }
        if let Some(min_t2) = self.min_t2_us {
            if labels.avg_t2_us < min_t2 {
                return Some(format!(
                    "avg T2 {:.0}us < required {min_t2:.0}us",
                    labels.avg_t2_us
                ));
            }
        }
        None
    }
}

/// One typed parameter value of a ranking strategy.
///
/// Strategy parameters travel with the job spec (and its YAML rendering), so
/// they are restricted to a small set of serializable shapes rather than
/// arbitrary Rust values.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A floating-point parameter (e.g. a fidelity target or a weight).
    Float(f64),
    /// An unsigned integer parameter (e.g. a qubit count).
    Int(u64),
    /// A free-form text parameter.
    Text(String),
    /// An undirected edge list over the job's qubits (e.g. a requested
    /// interaction topology).
    Edges(Vec<(usize, usize)>),
}

codec_enum!(ParamValue {
    0 => Float(value),
    1 => Int(value),
    2 => Text(value),
    3 => Edges(edges),
});

/// The typed parameter bag of a [`StrategySpec`]: ordered `name -> value`
/// pairs that a ranking strategy interprets. The cluster substrate attaches no
/// semantics to the keys; validation belongs to the strategy implementation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StrategyParams {
    values: BTreeMap<String, ParamValue>,
}

codec_struct!(StrategyParams { values });

impl StrategyParams {
    /// An empty parameter bag.
    pub fn new() -> Self {
        StrategyParams::default()
    }

    /// Insert (or overwrite) a parameter.
    pub fn set(&mut self, key: impl Into<String>, value: ParamValue) -> &mut Self {
        self.values.insert(key.into(), value);
        self
    }

    /// Look up a raw parameter value.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.values.get(key)
    }

    /// Look up a float parameter; integers are widened to floats.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.values.get(key) {
            Some(ParamValue::Float(v)) => Some(*v),
            Some(ParamValue::Int(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// Look up an integer parameter.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.values.get(key) {
            Some(ParamValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Look up a text parameter.
    pub fn get_text(&self, key: &str) -> Option<&str> {
        match self.values.get(key) {
            Some(ParamValue::Text(v)) => Some(v),
            _ => None,
        }
    }

    /// Look up an edge-list parameter.
    pub fn get_edges(&self, key: &str) -> Option<&[(usize, usize)]> {
        match self.values.get(key) {
            Some(ParamValue::Edges(v)) => Some(v),
            _ => None,
        }
    }

    /// Iterate over the parameters in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Which ranking strategy the user selected for the job (the final step of the
/// visualizer form, §3.2), referenced **by name** with typed parameters.
///
/// This replaces the old closed `SelectionStrategy` enum: the cluster only
/// transports the strategy name and its parameters; the semantics live in the
/// `RankingStrategy` implementation registered under that name in the meta
/// server's strategy registry. New policies therefore need no changes in this
/// crate.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategySpec {
    /// Registry name of the ranking strategy (e.g. `"fidelity"`).
    pub name: String,
    /// Typed parameters interpreted by the strategy.
    pub params: StrategyParams,
}

codec_struct!(StrategySpec { name, params });

impl StrategySpec {
    /// A strategy reference with no parameters.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        StrategySpec {
            name: name.into(),
            params: StrategyParams::new(),
        }
    }

    /// Builder-style: attach a parameter.
    #[must_use]
    pub fn with_param(mut self, key: impl Into<String>, value: ParamValue) -> Self {
        self.params.set(key, value);
        self
    }

    /// Builder-style: attach a float parameter.
    #[must_use]
    pub fn with_float(self, key: impl Into<String>, value: f64) -> Self {
        self.with_param(key, ParamValue::Float(value))
    }

    /// Convenience constructor for the built-in Clifford-canary fidelity
    /// strategy (`"fidelity"`, parameter `target`). The name is merely a
    /// well-known registry key; this crate attaches no semantics to it.
    #[must_use]
    pub fn fidelity(target: f64) -> Self {
        StrategySpec::new(strategy_names::FIDELITY).with_float(strategy_names::PARAM_TARGET, target)
    }

    /// Convenience constructor for the built-in topology-matching strategy
    /// (`"topology"`, parameters `edges` and `qubits`).
    #[must_use]
    pub fn topology(edges: &[(usize, usize)], num_qubits: usize) -> Self {
        StrategySpec::new(strategy_names::TOPOLOGY)
            .with_param(
                strategy_names::PARAM_EDGES,
                ParamValue::Edges(edges.to_vec()),
            )
            .with_param(
                strategy_names::PARAM_QUBITS,
                ParamValue::Int(num_qubits as u64),
            )
    }

    /// Convenience constructor for the built-in weighted multi-objective
    /// strategy (`"weighted"`): canary-fidelity score blended with queue depth
    /// and classical utilization.
    #[must_use]
    pub fn weighted(
        target: f64,
        fidelity_weight: f64,
        queue_weight: f64,
        utilization_weight: f64,
    ) -> Self {
        StrategySpec::new(strategy_names::WEIGHTED)
            .with_float(strategy_names::PARAM_TARGET, target)
            .with_float(strategy_names::PARAM_FIDELITY_WEIGHT, fidelity_weight)
            .with_float(strategy_names::PARAM_QUEUE_WEIGHT, queue_weight)
            .with_float(strategy_names::PARAM_UTILIZATION_WEIGHT, utilization_weight)
    }

    /// Convenience constructor for the built-in min-queue-time baseline
    /// strategy (`"min_queue"`, no parameters).
    #[must_use]
    pub fn min_queue() -> Self {
        StrategySpec::new(strategy_names::MIN_QUEUE)
    }
}

/// Well-known strategy and parameter names used by the convenience
/// constructors. The default registry in `qrio-meta` registers strategies
/// under exactly these names; user-defined strategies pick their own.
pub mod strategy_names {
    /// Clifford-canary fidelity ranking (§3.4.1).
    pub const FIDELITY: &str = "fidelity";
    /// Topology-similarity ranking (§3.4.2).
    pub const TOPOLOGY: &str = "topology";
    /// Weighted multi-objective ranking (fidelity + queue + utilization).
    pub const WEIGHTED: &str = "weighted";
    /// Min-queue-time baseline ranking.
    pub const MIN_QUEUE: &str = "min_queue";
    /// Fidelity target in `[0, 1]`.
    pub const PARAM_TARGET: &str = "target";
    /// Requested interaction edges.
    pub const PARAM_EDGES: &str = "edges";
    /// Number of qubits the requested topology spans.
    pub const PARAM_QUBITS: &str = "qubits";
    /// Weight of the fidelity component in the weighted strategy.
    pub const PARAM_FIDELITY_WEIGHT: &str = "fidelity_weight";
    /// Weight of the queue-depth component in the weighted strategy.
    pub const PARAM_QUEUE_WEIGHT: &str = "queue_weight";
    /// Weight of the utilization component in the weighted strategy.
    pub const PARAM_UTILIZATION_WEIGHT: &str = "utilization_weight";
}

/// A job specification — the Rust equivalent of the Job YAML the master
/// server writes for the Kubernetes scheduler (§3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job name.
    pub name: String,
    /// Docker image name holding the job's files (simulated registry).
    pub image: String,
    /// The user's circuit as OpenQASM text.
    pub qasm: String,
    /// Number of qubits the job needs.
    pub num_qubits: usize,
    /// Classical resources requested.
    pub resources: Resources,
    /// Device-characteristic bounds for the filtering stage.
    pub requirements: DeviceRequirements,
    /// Ranking strategy reference (registry name plus typed parameters).
    pub strategy: StrategySpec,
    /// Scheduling priority: higher values are admitted first by batch
    /// service loops; jobs with equal priority drain in submission order.
    pub priority: u8,
    /// Number of shots to execute.
    pub shots: u64,
    /// Worker threads for shot execution on the node (`0` = auto-detect).
    /// Thread count never changes results — shot RNG shards are derived from
    /// the shot count alone — so this is purely a latency knob.
    pub threads: usize,
    /// Optional retry policy: how failed execution attempts are retried.
    /// `None` means every failure is terminal on the first attempt.
    pub retry: Option<RetryPolicy>,
    /// Optional virtual-time deadline (ticks after admission). A job still
    /// non-terminal when the deadline passes fails with `DeadlineExceeded`.
    pub deadline: Option<u64>,
}

codec_struct!(JobSpec {
    name,
    image,
    qasm,
    num_qubits,
    resources,
    requirements,
    strategy,
    priority,
    shots,
    threads,
    retry,
    deadline,
});

/// A job tracked by the cluster: its spec, the node holding its classical
/// reservation, its logs and result summary. Where the job is in its
/// lifecycle is not the cluster's to say: `qrio`'s job state machine owns
/// that.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    spec: JobSpec,
    /// The node holding the job's reservation, from its binding until its
    /// attempt settles or it is cancelled.
    pub(crate) node: Option<String>,
    logs: Vec<String>,
    /// Histogram of measurement outcomes (`bitstring -> count`) once finished.
    result_counts: Vec<(String, u64)>,
    /// Fidelity achieved against the noise-free reference, when computed.
    achieved_fidelity: Option<f64>,
}

codec_struct!(Job {
    spec,
    node,
    logs,
    result_counts,
    achieved_fidelity,
});

impl Job {
    /// Wrap a spec into a job that holds no reservation yet.
    pub fn new(spec: JobSpec) -> Self {
        Job {
            spec,
            node: None,
            logs: Vec::new(),
            result_counts: Vec::new(),
            achieved_fidelity: None,
        }
    }

    /// The job specification.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The job name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The node holding the job's classical reservation: set by
    /// [`Cluster::bind_job`](crate::Cluster::bind_job) and
    /// [`Cluster::rebind_job`](crate::Cluster::rebind_job), cleared when its
    /// attempt settles or it is cancelled.
    pub fn node(&self) -> Option<&str> {
        self.node.as_deref()
    }

    /// Execution logs, in order (the logs the visualizer shows, §3.2).
    pub fn logs(&self) -> &[String] {
        &self.logs
    }

    /// Result histogram, once the job has succeeded.
    pub fn result_counts(&self) -> &[(String, u64)] {
        &self.result_counts
    }

    /// Fidelity achieved against the noise-free reference, when computed.
    pub fn achieved_fidelity(&self) -> Option<f64> {
        self.achieved_fidelity
    }

    /// Append a log line.
    pub fn log(&mut self, line: impl Into<String>) {
        self.logs.push(line.into());
    }

    /// Record the execution result.
    pub fn set_result(&mut self, counts: Vec<(String, u64)>, fidelity: Option<f64>) {
        self.result_counts = counts;
        self.achieved_fidelity = fidelity;
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.node {
            Some(node) => write!(f, "Job '{}' on '{node}'", self.spec.name),
            None => write!(f, "Job '{}'", self.spec.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(qubits: usize, two_q: f64, readout: f64, t1: f64) -> NodeLabels {
        NodeLabels {
            num_qubits: qubits,
            avg_two_qubit_error: two_q,
            avg_single_qubit_error: 0.01,
            avg_t1_us: t1,
            avg_t2_us: t1,
            avg_readout_error: readout,
            cpu_millis: 4000,
            memory_mib: 8192,
        }
    }

    #[test]
    fn requirements_filtering() {
        let req = DeviceRequirements {
            min_qubits: Some(10),
            max_two_qubit_error: Some(0.1),
            max_readout_error: Some(0.1),
            min_t1_us: Some(100.0),
            min_t2_us: None,
        };
        assert!(req.is_satisfied_by(&labels(20, 0.05, 0.05, 1000.0)));
        assert!(!req.is_satisfied_by(&labels(5, 0.05, 0.05, 1000.0)));
        assert!(!req.is_satisfied_by(&labels(20, 0.5, 0.05, 1000.0)));
        assert!(!req.is_satisfied_by(&labels(20, 0.05, 0.5, 1000.0)));
        assert!(!req.is_satisfied_by(&labels(20, 0.05, 0.05, 10.0)));
        assert!(DeviceRequirements::none().is_satisfied_by(&labels(1, 0.9, 0.9, 1.0)));

        // Every bound, inclusive, with the reason it rejects by.
        let req = DeviceRequirements {
            min_t2_us: Some(200.0),
            ..req
        };
        assert_eq!(req.rejection(&labels(10, 0.1, 0.1, 200.0)), None);
        for (labels, reason) in [
            (labels(5, 0.05, 0.05, 1000.0), "5 qubits < required 10"),
            (
                labels(20, 0.5, 0.05, 1000.0),
                "avg 2q error 0.5000 > allowed 0.1000",
            ),
            (
                labels(20, 0.05, 0.5, 1000.0),
                "avg readout error 0.5000 > allowed 0.1000",
            ),
            (labels(20, 0.05, 0.05, 10.0), "avg T1 10us < required 100us"),
            (
                labels(20, 0.05, 0.05, 150.0),
                "avg T2 150us < required 200us",
            ),
            // Several violations: the first bound in field order.
            (labels(5, 0.5, 0.5, 10.0), "5 qubits < required 10"),
        ] {
            assert_eq!(req.rejection(&labels).as_deref(), Some(reason));
        }
    }

    #[test]
    fn job_lifecycle_and_logs() {
        let spec = JobSpec {
            name: "bv-job".into(),
            image: "qrio/bv:latest".into(),
            qasm: "OPENQASM 2.0;".into(),
            num_qubits: 10,
            resources: Resources::new(500, 512),
            requirements: DeviceRequirements::none(),
            strategy: StrategySpec::fidelity(0.9),
            priority: 0,
            shots: 1024,
            threads: 0,
            retry: None,
            deadline: None,
        };
        let mut job = Job::new(spec);
        assert_eq!(job.node(), None);
        job.node = Some("dev-a".into());
        assert_eq!(job.node(), Some("dev-a"));
        assert!(job.to_string().ends_with("on 'dev-a'"));
        job.log("transpiling circuit");
        job.set_result(vec![("1011".into(), 900), ("0000".into(), 124)], Some(0.88));
        assert_eq!(job.result_counts().len(), 2);
        assert_eq!(job.achieved_fidelity(), Some(0.88));
        assert!(job.logs().iter().any(|l| l.contains("transpiling")));
        assert!(job.to_string().contains("bv-job"));
    }

    #[test]
    fn strategy_spec_params_are_typed_and_open() {
        let spec = StrategySpec::new("my-custom-policy")
            .with_float("alpha", 0.5)
            .with_param("rounds", ParamValue::Int(3))
            .with_param("mode", ParamValue::Text("strict".into()))
            .with_param("edges", ParamValue::Edges(vec![(0, 1), (1, 2)]));
        assert_eq!(spec.name, "my-custom-policy");
        assert_eq!(spec.params.len(), 4);
        assert_eq!(spec.params.get_f64("alpha"), Some(0.5));
        assert_eq!(spec.params.get_u64("rounds"), Some(3));
        // Integers widen to floats, but not the reverse.
        assert_eq!(spec.params.get_f64("rounds"), Some(3.0));
        assert_eq!(spec.params.get_u64("alpha"), None);
        assert_eq!(spec.params.get_text("mode"), Some("strict"));
        assert_eq!(spec.params.get_edges("edges"), Some(&[(0, 1), (1, 2)][..]));
        assert_eq!(spec.params.get("missing"), None);
        assert!(!spec.params.is_empty());
        assert!(StrategyParams::new().is_empty());
    }

    #[test]
    fn builtin_convenience_constructors_use_well_known_names() {
        let fidelity = StrategySpec::fidelity(0.9);
        assert_eq!(fidelity.name, strategy_names::FIDELITY);
        assert_eq!(
            fidelity.params.get_f64(strategy_names::PARAM_TARGET),
            Some(0.9)
        );

        let topology = StrategySpec::topology(&[(0, 1)], 2);
        assert_eq!(topology.name, strategy_names::TOPOLOGY);
        assert_eq!(
            topology.params.get_edges(strategy_names::PARAM_EDGES),
            Some(&[(0, 1)][..])
        );
        assert_eq!(
            topology.params.get_u64(strategy_names::PARAM_QUBITS),
            Some(2)
        );

        let weighted = StrategySpec::weighted(0.8, 1.0, 2.0, 3.0);
        assert_eq!(weighted.name, strategy_names::WEIGHTED);
        assert_eq!(
            weighted.params.get_f64(strategy_names::PARAM_QUEUE_WEIGHT),
            Some(2.0)
        );

        assert_eq!(StrategySpec::min_queue().name, strategy_names::MIN_QUEUE);
    }
}
