//! The QRIO Visualizer model (§3.2).
//!
//! The paper's visualizer is a React web application; its role in the system
//! is to collect the user's inputs through a three-step form — job details,
//! requested device characteristics, and the fidelity-or-topology strategy —
//! and to upload the resulting metadata to the meta server and master server
//! (Table 1). This module models that workflow as a typed builder, including
//! the topology-drawing canvas (edges between qubits → topology circuit).

use qrio_bytes::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use qrio_circuit::{library, qasm, Circuit};
use qrio_cluster::{strategy_names, DeviceRequirements, Resources, RetryPolicy, StrategySpec};
use qrio_sim::ParallelConfig;

use crate::error::QrioError;

/// The topology-drawing canvas: the user places `num_qubits` qubits and draws
/// edges between them (figure 4f of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopologyDesigner {
    num_qubits: usize,
    edges: Vec<(usize, usize)>,
}

impl TopologyDesigner {
    /// A canvas with `num_qubits` qubits and no edges.
    pub fn new(num_qubits: usize) -> Self {
        TopologyDesigner {
            num_qubits,
            edges: Vec::new(),
        }
    }

    /// Pre-populate the canvas with one of the default topologies offered by
    /// the visualizer (grid, line, ring, heavy-square, fully-connected).
    pub fn from_default(default: qrio_backend::DefaultTopology) -> Self {
        TopologyDesigner {
            num_qubits: default.num_qubits(),
            edges: default.edges(),
        }
    }

    /// Draw an edge between two qubits.
    ///
    /// # Errors
    ///
    /// Returns an error for self-loops or out-of-range qubits.
    pub fn connect(&mut self, a: usize, b: usize) -> Result<&mut Self, QrioError> {
        if a == b {
            return Err(QrioError::InvalidRequest(format!(
                "cannot connect qubit {a} to itself"
            )));
        }
        if a >= self.num_qubits || b >= self.num_qubits {
            return Err(QrioError::InvalidRequest(format!(
                "edge ({a},{b}) is outside the {}-qubit canvas",
                self.num_qubits
            )));
        }
        let key = (a.min(b), a.max(b));
        if !self.edges.contains(&key) {
            self.edges.push(key);
        }
        Ok(self)
    }

    /// The drawn edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of qubits on the canvas.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Convert the drawing into the *topology circuit* uploaded to the meta
    /// server: one CNOT per drawn edge (§3.2).
    ///
    /// # Errors
    ///
    /// Returns an error if the canvas is empty.
    pub fn to_topology_circuit(&self) -> Result<Circuit, QrioError> {
        if self.num_qubits == 0 {
            return Err(QrioError::InvalidRequest(
                "the topology canvas has no qubits".into(),
            ));
        }
        Ok(library::topology_circuit(self.num_qubits, &self.edges)?)
    }
}

/// A fully-assembled job request, ready to hand to the master server.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Job name (step 1 of the form).
    pub job_name: String,
    /// Docker image name for the job container (step 1).
    pub image_name: String,
    /// The user's circuit as QASM text (chosen on the front page).
    pub qasm: String,
    /// Number of qubits the job needs (step 1).
    pub num_qubits: usize,
    /// Classical resource request (step 1).
    pub resources: Resources,
    /// Requested device characteristics (step 2).
    pub requirements: DeviceRequirements,
    /// Ranking strategy chosen by name, with typed parameters (step 3). Any
    /// strategy registered in the meta server's registry is valid here —
    /// built-in or user-defined.
    pub strategy: StrategySpec,
    /// Scheduling priority: jobs with a higher priority are admitted to the
    /// cluster first by the service loop; equal priorities drain in
    /// submission order (step 1, defaults to `0`).
    pub priority: u8,
    /// Shots to execute.
    pub shots: u64,
    /// Worker-thread configuration for shot execution on the node. Purely a
    /// latency knob: results are bit-reproducible across thread counts.
    pub parallel: ParallelConfig,
    /// Optional retry policy: how many execution attempts are allowed, the
    /// backoff between them and which failure classes are retryable.
    /// `None` means every failure is terminal on the first attempt.
    pub retry: Option<RetryPolicy>,
    /// Optional deadline on the orchestrator's clock, counted from admission
    /// in the unit the clock is advanced in. A job still waiting (`Queued` or
    /// backing off) when it passes fails with `DeadlineExceeded`.
    pub deadline: Option<u64>,
}

/// The journal stores `parallel` as its thread count; every other field is
/// itself, in declaration order.
impl Encode for JobRequest {
    fn encode(&self, w: &mut ByteWriter) {
        self.job_name.encode(w);
        self.image_name.encode(w);
        self.qasm.encode(w);
        self.num_qubits.encode(w);
        self.resources.encode(w);
        self.requirements.encode(w);
        self.strategy.encode(w);
        self.priority.encode(w);
        self.shots.encode(w);
        self.parallel.threads().encode(w);
        self.retry.encode(w);
        self.deadline.encode(w);
    }
}

impl Decode for JobRequest {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(JobRequest {
            job_name: Decode::decode(r)?,
            image_name: Decode::decode(r)?,
            qasm: Decode::decode(r)?,
            num_qubits: Decode::decode(r)?,
            resources: Decode::decode(r)?,
            requirements: Decode::decode(r)?,
            strategy: Decode::decode(r)?,
            priority: Decode::decode(r)?,
            shots: Decode::decode(r)?,
            parallel: ParallelConfig::with_threads(Decode::decode(r)?),
            retry: Decode::decode(r)?,
            deadline: Decode::decode(r)?,
        })
    }
}

/// Builder modelling the visualizer's three-step job submission form.
#[derive(Debug, Clone, Default)]
pub struct JobRequestBuilder {
    job_name: Option<String>,
    image_name: Option<String>,
    qasm: Option<String>,
    num_qubits: Option<usize>,
    resources: Resources,
    requirements: DeviceRequirements,
    strategy: Option<StrategySpec>,
    priority: u8,
    shots: u64,
    parallel: ParallelConfig,
    retry: Option<RetryPolicy>,
    deadline: Option<u64>,
}

impl JobRequestBuilder {
    /// Start an empty form.
    pub fn new() -> Self {
        JobRequestBuilder {
            shots: 1024,
            resources: Resources::new(500, 512),
            ..Default::default()
        }
    }

    /// Step 0: choose the circuit as a QASM file. The qubit count is inferred
    /// from the circuit unless overridden later.
    ///
    /// # Errors
    ///
    /// Returns an error if the QASM does not parse.
    pub fn with_qasm(mut self, qasm_text: impl Into<String>) -> Result<Self, QrioError> {
        let text = qasm_text.into();
        let circuit = qasm::parse_qasm(&text)?;
        if self.num_qubits.is_none() {
            self.num_qubits = Some(circuit.num_qubits());
        }
        self.qasm = Some(text);
        Ok(self)
    }

    /// Step 0 (alternative): choose an in-memory circuit; it is serialized to
    /// QASM exactly as a file upload would be.
    #[must_use]
    pub fn with_circuit(mut self, circuit: &Circuit) -> Self {
        self.qasm = Some(qasm::to_qasm(circuit));
        if self.num_qubits.is_none() {
            self.num_qubits = Some(circuit.num_qubits());
        }
        self
    }

    /// Step 1: job name.
    #[must_use]
    pub fn job_name(mut self, name: impl Into<String>) -> Self {
        self.job_name = Some(name.into());
        self
    }

    /// Step 1: docker image name.
    #[must_use]
    pub fn image_name(mut self, name: impl Into<String>) -> Self {
        self.image_name = Some(name.into());
        self
    }

    /// Step 1: override the number of qubits.
    #[must_use]
    pub fn num_qubits(mut self, qubits: usize) -> Self {
        self.num_qubits = Some(qubits);
        self
    }

    /// Step 1: CPU (millicores) and memory (MiB) request.
    #[must_use]
    pub fn resources(mut self, cpu_millis: u64, memory_mib: u64) -> Self {
        self.resources = Resources::new(cpu_millis, memory_mib);
        self
    }

    /// Number of shots to execute (defaults to 1024).
    #[must_use]
    pub fn shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Step 1: scheduling priority (defaults to `0`). Higher-priority jobs
    /// are admitted to the cluster first when a batch is queued; jobs with
    /// equal priority keep their submission order.
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Worker-thread configuration for shot execution (defaults to
    /// [`ParallelConfig::auto`]). Thread count never changes results — shot
    /// RNG shards depend only on the shot count — so this is purely a
    /// latency knob.
    #[must_use]
    pub fn parallelism(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Step 2: requested device characteristics.
    #[must_use]
    pub fn requirements(mut self, requirements: DeviceRequirements) -> Self {
        self.requirements = requirements;
        self
    }

    /// Step 1 (optional): retry policy for failed execution attempts —
    /// maximum attempts, backoff shape and the retryable failure classes.
    /// Without one, the first failure is terminal.
    #[must_use]
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Step 1 (optional): a deadline on the orchestrator's clock, counted
    /// from admission in the unit the clock is advanced in (ticks under
    /// `Qrio::tick`, virtual ms under a simulator's `Qrio::advance_to`). A
    /// job still waiting when the deadline passes fails with
    /// `DeadlineExceeded` — even mid-backoff between retries.
    #[must_use]
    pub fn deadline(mut self, ticks: u64) -> Self {
        self.deadline = Some(ticks);
        self
    }

    /// Step 3 (option A): fidelity requirement between 0 and 1 — sugar for
    /// the built-in `"fidelity"` strategy.
    #[must_use]
    pub fn fidelity_target(mut self, fidelity: f64) -> Self {
        self.strategy = Some(StrategySpec::fidelity(fidelity));
        self
    }

    /// Step 3 (option B): topology requirement from the drawing canvas —
    /// sugar for the built-in `"topology"` strategy.
    #[must_use]
    pub fn topology(mut self, designer: &TopologyDesigner) -> Self {
        self.strategy = Some(StrategySpec::topology(
            designer.edges(),
            designer.num_qubits(),
        ));
        if self.num_qubits.is_none() {
            self.num_qubits = Some(designer.num_qubits());
        }
        self
    }

    /// Step 3 (option C): the built-in `"weighted"` multi-objective strategy —
    /// canary-fidelity score blended with live queue depth and utilization.
    #[must_use]
    pub fn weighted(mut self, target: f64, fidelity_w: f64, queue_w: f64, util_w: f64) -> Self {
        self.strategy = Some(StrategySpec::weighted(target, fidelity_w, queue_w, util_w));
        self
    }

    /// Step 3 (option D): the built-in `"min_queue"` baseline — pick the
    /// least-loaded device regardless of calibration.
    #[must_use]
    pub fn min_queue(mut self) -> Self {
        self.strategy = Some(StrategySpec::min_queue());
        self
    }

    /// Step 3 (fully general): any strategy by registry name with typed
    /// parameters — the extension point for user-defined ranking plugins.
    /// Parameter validation runs in the meta server when the job is submitted.
    #[must_use]
    pub fn strategy(mut self, strategy: StrategySpec) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Finish the form and produce the job request.
    ///
    /// # Errors
    ///
    /// Returns an error if a mandatory field is missing or inconsistent
    /// (no circuit for a fidelity job, fidelity outside `[0, 1]`, ...).
    pub fn build(self) -> Result<JobRequest, QrioError> {
        let job_name = self
            .job_name
            .ok_or_else(|| QrioError::InvalidRequest("job name is required".into()))?;
        let strategy = self
            .strategy
            .ok_or_else(|| QrioError::InvalidRequest("choose a ranking strategy".into()))?;
        if strategy.name.is_empty() {
            return Err(QrioError::InvalidRequest(
                "the strategy name must not be empty".into(),
            ));
        }
        // Structural checks for the well-known built-ins; user-defined
        // strategies validate their own parameters in the meta server's
        // registry at submission time.
        let circuit_required = qrio_meta::requires_circuit(&strategy.name);
        if circuit_required {
            if let Some(f) = strategy.params.get_f64(strategy_names::PARAM_TARGET) {
                if !(0.0..=1.0).contains(&f) {
                    return Err(QrioError::InvalidRequest(format!(
                        "fidelity {f} must be between 0 and 1"
                    )));
                }
            }
        }
        let qasm = match self.qasm {
            Some(text) => text,
            None if circuit_required => {
                return Err(QrioError::InvalidRequest(format!(
                    "a circuit (QASM) is required for '{}' scheduling",
                    strategy.name
                )))
            }
            None => String::new(),
        };
        let num_qubits = self
            .num_qubits
            .ok_or_else(|| QrioError::InvalidRequest("number of qubits is required".into()))?;
        if num_qubits == 0 {
            return Err(QrioError::InvalidRequest(
                "number of qubits must be at least 1".into(),
            ));
        }
        let image_name = self
            .image_name
            .unwrap_or_else(|| format!("qrio/{job_name}:latest"));
        if self.shots == 0 {
            return Err(QrioError::InvalidRequest("shots must be at least 1".into()));
        }
        if let Some(policy) = &self.retry {
            if policy.max_attempts == 0 {
                return Err(QrioError::InvalidRequest(
                    "retry max_attempts must be at least 1 (the first attempt counts)".into(),
                ));
            }
        }
        if self.deadline == Some(0) {
            return Err(QrioError::InvalidRequest(
                "a deadline of 0 ticks would expire before the first cycle".into(),
            ));
        }
        Ok(JobRequest {
            job_name,
            image_name,
            qasm,
            num_qubits,
            resources: self.resources,
            requirements: self.requirements,
            strategy,
            priority: self.priority,
            shots: self.shots,
            parallel: self.parallel,
            retry: self.retry,
            deadline: self.deadline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::DefaultTopology;
    use qrio_circuit::library;

    #[test]
    fn fidelity_request_from_qasm() {
        let bv = library::bernstein_vazirani(5, 0b10101).unwrap();
        let request = JobRequestBuilder::new()
            .with_qasm(qasm::to_qasm(&bv))
            .unwrap()
            .job_name("bv-job")
            .resources(1000, 2048)
            .fidelity_target(0.92)
            .build()
            .unwrap();
        assert_eq!(request.job_name, "bv-job");
        assert_eq!(request.num_qubits, 5);
        assert_eq!(request.image_name, "qrio/bv-job:latest");
        assert_eq!(request.strategy.name, "fidelity");
        assert_eq!(request.strategy.params.get_f64("target"), Some(0.92));
    }

    #[test]
    fn topology_request_from_designer() {
        let mut designer = TopologyDesigner::new(4);
        designer
            .connect(0, 1)
            .unwrap()
            .connect(1, 2)
            .unwrap()
            .connect(2, 3)
            .unwrap();
        assert_eq!(designer.edges().len(), 3);
        let topo = designer.to_topology_circuit().unwrap();
        assert_eq!(topo.two_qubit_gate_count(), 3);
        let request = JobRequestBuilder::new()
            .job_name("topo-job")
            .topology(&designer)
            .build()
            .unwrap();
        assert_eq!(request.num_qubits, 4);
        assert_eq!(request.strategy.name, "topology");
        assert_eq!(
            request.strategy.params.get_edges("edges").map(<[_]>::len),
            Some(3)
        );
        assert_eq!(request.strategy.params.get_u64("qubits"), Some(4));
    }

    #[test]
    fn weighted_min_queue_and_custom_strategies_build() {
        let bv = library::bernstein_vazirani(4, 0b1010).unwrap();
        let weighted = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("w")
            .weighted(0.9, 1.0, 5.0, 1.0)
            .build()
            .unwrap();
        assert_eq!(weighted.strategy.name, "weighted");
        assert_eq!(weighted.strategy.params.get_f64("queue_weight"), Some(5.0));

        let min_queue = JobRequestBuilder::new()
            .job_name("q")
            .num_qubits(3)
            .min_queue()
            .build()
            .unwrap();
        assert_eq!(min_queue.strategy.name, "min_queue");
        assert!(min_queue.qasm.is_empty(), "min_queue needs no circuit");

        let custom = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("c")
            .strategy(StrategySpec::new("fewest-2q-gates").with_float("penalty", 2.0))
            .build()
            .unwrap();
        assert_eq!(custom.strategy.name, "fewest-2q-gates");
        assert_eq!(custom.strategy.params.get_f64("penalty"), Some(2.0));

        // A weighted job without a circuit is structurally invalid.
        assert!(JobRequestBuilder::new()
            .job_name("w2")
            .num_qubits(3)
            .weighted(0.9, 1.0, 1.0, 1.0)
            .build()
            .is_err());
        // An empty strategy name is rejected.
        assert!(JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("e")
            .strategy(StrategySpec::new(""))
            .build()
            .is_err());
    }

    #[test]
    fn parallelism_rides_through_the_builder() {
        let bv = library::bernstein_vazirani(3, 0b101).unwrap();
        let default_request = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("p-default")
            .fidelity_target(0.9)
            .build()
            .unwrap();
        assert_eq!(default_request.parallel, ParallelConfig::auto());
        let pinned = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("p-pinned")
            .fidelity_target(0.9)
            .parallelism(ParallelConfig::with_threads(4))
            .build()
            .unwrap();
        assert_eq!(pinned.parallel.threads(), 4);
    }

    #[test]
    fn priority_rides_through_the_builder() {
        let bv = library::bernstein_vazirani(3, 0b101).unwrap();
        let default_request = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("prio-default")
            .fidelity_target(0.9)
            .build()
            .unwrap();
        assert_eq!(default_request.priority, 0);
        let urgent = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("prio-urgent")
            .fidelity_target(0.9)
            .priority(200)
            .build()
            .unwrap();
        assert_eq!(urgent.priority, 200);
    }

    #[test]
    fn retry_and_deadline_ride_through_the_builder() {
        use qrio_cluster::{BackoffPolicy, RetryOn};
        let bv = library::bernstein_vazirani(3, 0b101).unwrap();
        let plain = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("plain")
            .fidelity_target(0.9)
            .build()
            .unwrap();
        assert_eq!(plain.retry, None);
        assert_eq!(plain.deadline, None);

        let tenacious = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("tenacious")
            .fidelity_target(0.9)
            .retry_policy(RetryPolicy::exponential(4, 2, 16))
            .deadline(100)
            .build()
            .unwrap();
        let policy = tenacious.retry.unwrap();
        assert_eq!(policy.max_attempts, 4);
        assert!(matches!(
            policy.backoff,
            BackoffPolicy::Exponential {
                base: 2,
                max: 16,
                ..
            }
        ));
        assert_eq!(policy.retry_on, RetryOn::all());
        assert_eq!(tenacious.deadline, Some(100));

        // Degenerate policies are rejected at the form.
        assert!(JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("zero-attempts")
            .fidelity_target(0.9)
            .retry_policy(RetryPolicy::fixed(0, 1))
            .build()
            .is_err());
        assert!(JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("zero-deadline")
            .fidelity_target(0.9)
            .deadline(0)
            .build()
            .is_err());
    }

    #[test]
    fn default_topologies_prepopulate_the_canvas() {
        let designer = TopologyDesigner::from_default(DefaultTopology::Ring7);
        assert_eq!(designer.num_qubits(), 7);
        assert_eq!(designer.edges().len(), 7);
        assert!(designer.to_topology_circuit().is_ok());
    }

    #[test]
    fn designer_validates_edges() {
        let mut designer = TopologyDesigner::new(3);
        assert!(designer.connect(0, 0).is_err());
        assert!(designer.connect(0, 7).is_err());
        designer.connect(0, 1).unwrap();
        designer.connect(1, 0).unwrap();
        assert_eq!(designer.edges().len(), 1);
        assert!(TopologyDesigner::new(0).to_topology_circuit().is_err());
    }

    #[test]
    fn builder_rejects_incomplete_or_invalid_forms() {
        let bv = library::bernstein_vazirani(3, 0b101).unwrap();
        // Missing strategy.
        assert!(JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("x")
            .build()
            .is_err());
        // Missing name.
        assert!(JobRequestBuilder::new()
            .with_circuit(&bv)
            .fidelity_target(0.9)
            .build()
            .is_err());
        // Fidelity without circuit.
        assert!(JobRequestBuilder::new()
            .job_name("x")
            .num_qubits(3)
            .fidelity_target(0.9)
            .build()
            .is_err());
        // Out-of-range fidelity.
        assert!(JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("x")
            .fidelity_target(1.4)
            .build()
            .is_err());
        // Zero shots.
        assert!(JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("x")
            .fidelity_target(0.9)
            .shots(0)
            .build()
            .is_err());
        // Bad QASM.
        assert!(JobRequestBuilder::new()
            .with_qasm("this is not qasm $")
            .is_err());
    }
}
