//! The QRIO Master Server (§3.3).
//!
//! The master server containerizes a job — the user's QASM file, a generated
//! runner script, a `requirements.txt` and a Dockerfile — pushes the image to
//! the registry, writes the Job YAML specification, and hands the job to the
//! cluster for scheduling.
//!
//! Each of the four files is a function of the job's [`JobSpec`], so an
//! image is stored once, as the spec: the registry keeps only its name, and
//! [`render_image`] renders the files whenever they are shipped — by
//! [`containerize`], and by [`crate::ControlPlane::send_run`] for every
//! attempt's `Run` payload.

use qrio_cluster::JobSpec;

use crate::error::QrioError;
use crate::visualizer::JobRequest;

/// The files the master server places in every job container, mirroring the
/// directory layout described in §3.3.
pub const CIRCUIT_FILE: &str = "circuit.qasm";
/// Generated runner script file name.
pub const RUNNER_FILE: &str = "run.py";
/// Python dependency list file name.
pub const REQUIREMENTS_FILE: &str = "requirements.txt";
/// Dockerfile name.
pub const DOCKERFILE: &str = "Dockerfile";

/// A container image: a name and its text files, in path order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageBundle {
    pub(crate) name: String,
    pub(crate) files: Vec<(String, String)>,
}

impl ImageBundle {
    /// The image name (e.g. `qrio/bv-job:latest`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read a file from the image.
    pub fn file(&self, path: &str) -> Option<&str> {
        self.files()
            .find(|(name, _)| *name == path)
            .map(|(_, contents)| contents)
    }

    /// Iterate over `(path, contents)` pairs in path order.
    pub fn files(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// The image of a job, rendered from its spec: the image named
/// `spec.image`, holding the job's circuit, its runner script, the
/// requirements and the Dockerfile.
pub fn render_image(spec: &JobSpec) -> ImageBundle {
    // In path order: upper case sorts before lower case.
    let files = [
        (DOCKERFILE, dockerfile(&spec.image)),
        (CIRCUIT_FILE, spec.qasm.clone()),
        (REQUIREMENTS_FILE, requirements_txt()),
        (RUNNER_FILE, generate_runner_script(spec)),
    ];
    ImageBundle {
        name: spec.image.clone(),
        files: files
            .into_iter()
            .map(|(path, contents)| (path.to_string(), contents))
            .collect(),
    }
}

/// The artifacts produced by containerizing one job.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerizedJob {
    /// The container image pushed to the registry, by name: its files are
    /// [`render_image`] of `spec`.
    pub image: ImageBundle,
    /// The job specification for the scheduler.
    pub spec: JobSpec,
    /// The YAML rendering of the specification.
    pub yaml: String,
}

/// Containerize a job request: build the job spec, its image and its YAML
/// document.
///
/// # Errors
///
/// Returns an error if the request is internally inconsistent (currently only
/// when a circuit-scoring built-in strategy is used without a circuit
/// payload; user-defined strategies validate in the meta server registry).
pub fn containerize(request: &JobRequest) -> Result<ContainerizedJob, QrioError> {
    if qrio_meta::requires_circuit(&request.strategy.name) && request.qasm.is_empty() {
        return Err(QrioError::InvalidRequest(format!(
            "'{}'-ranked jobs must include the circuit QASM",
            request.strategy.name
        )));
    }
    let spec = JobSpec {
        name: request.job_name.clone(),
        image: request.image_name.clone(),
        qasm: request.qasm.clone(),
        num_qubits: request.num_qubits,
        resources: request.resources,
        requirements: request.requirements,
        strategy: request.strategy.clone(),
        priority: request.priority,
        shots: request.shots,
        threads: request.parallel.threads(),
        retry: request.retry,
        deadline: request.deadline,
    };
    let yaml = qrio_cluster::yaml::to_yaml(&spec);
    let image = render_image(&spec);
    Ok(ContainerizedJob { image, spec, yaml })
}

/// The generated runner script. In the paper this is a Python script that
/// reads the node's `backend.py`, transpiles the QASM circuit to that backend
/// and executes it; here the script is documentation of the same steps — the
/// actual execution is performed by the in-process [`SimJobRunner`]
/// (`crate::runner::SimJobRunner`), which follows this script line for line.
fn generate_runner_script(spec: &JobSpec) -> String {
    format!(
        r#"# Auto-generated by the QRIO master server for job '{name}'.
# Steps performed on the assigned node:
#   1. load the node's vendor backend description (backend.spec)
#   2. parse {circuit} shipped in this container
#   3. transpile the circuit to the backend (layout, routing, basis, optimize)
#   4. execute {shots} shots under the backend noise model
#   5. write the histogram and logs back to the QRIO master server
from qrio import run_job

run_job(circuit_file="{circuit}", shots={shots})
"#,
        name = spec.name,
        circuit = CIRCUIT_FILE,
        shots = spec.shots,
    )
}

fn requirements_txt() -> String {
    // The dependency list of §3.3.
    [
        "qiskit",
        "qiskit-aer",
        "matplotlib",
        "qiskit_ibmq_provider",
        "qiskit_ibm_runtime",
    ]
    .join("\n")
}

fn dockerfile(image_name: &str) -> String {
    format!(
        "FROM python:3.11-slim\n# image: {image_name}\nWORKDIR /job\nCOPY . /job\nRUN pip install -r {REQUIREMENTS_FILE}\nCMD [\"python\", \"{RUNNER_FILE}\"]\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visualizer::{JobRequestBuilder, TopologyDesigner};
    use qrio_circuit::library;

    fn fidelity_request() -> JobRequest {
        let bv = library::bernstein_vazirani(5, 0b11011).unwrap();
        JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("bv-job")
            .image_name("qrio/bv:1")
            .fidelity_target(0.9)
            .shots(512)
            .build()
            .unwrap()
    }

    #[test]
    fn containerized_job_has_all_four_files() {
        let job = containerize(&fidelity_request()).unwrap();
        let paths: Vec<&str> = job.image.files().map(|(path, _)| path).collect();
        assert_eq!(
            paths,
            [DOCKERFILE, CIRCUIT_FILE, REQUIREMENTS_FILE, RUNNER_FILE],
            "four files, in path order"
        );
        assert_eq!(job.image.name(), "qrio/bv:1");
        assert_eq!(job.image.file("missing"), None);
        assert!(job.image.file(CIRCUIT_FILE).unwrap().contains("OPENQASM"));
        assert!(job.image.file(RUNNER_FILE).unwrap().contains("shots=512"));
        assert!(job
            .image
            .file(REQUIREMENTS_FILE)
            .unwrap()
            .contains("qiskit"));
        assert!(job
            .image
            .file(DOCKERFILE)
            .unwrap()
            .starts_with("FROM python"));
    }

    #[test]
    fn bundle_helpers() {
        let job = containerize(&fidelity_request()).unwrap();
        let image = render_image(&job.spec);
        assert_eq!(image, job.image, "rendering again gives the same image");
        assert_eq!(image.name(), "qrio/bv:1");
        assert_eq!(image.file(CIRCUIT_FILE), Some(job.spec.qasm.as_str()));
        assert_eq!(image.file("missing"), None);
        let paths: Vec<&str> = image.files().map(|(path, _)| path).collect();
        assert!(paths.windows(2).all(|w| w[0] < w[1]), "path order");
    }

    #[test]
    fn spec_and_yaml_match_the_request() {
        let request = fidelity_request();
        let job = containerize(&request).unwrap();
        assert_eq!(job.spec.name, "bv-job");
        assert_eq!(job.spec.image, "qrio/bv:1");
        assert_eq!(job.spec.num_qubits, 5);
        assert_eq!(job.spec.threads, 0, "auto parallelism by default");
        assert!(job.yaml.contains("name: bv-job"));
        assert!(job.yaml.contains("strategy: fidelity"));

        // A pinned worker count flows into the spec and its YAML.
        let mut pinned = fidelity_request();
        pinned.parallel = qrio_sim::ParallelConfig::with_threads(6);
        let job = containerize(&pinned).unwrap();
        assert_eq!(job.spec.threads, 6);
        assert!(job.yaml.contains("threads: 6"));
        // The YAML parses back into an equivalent (circuit-less) spec.
        let parsed = qrio_cluster::yaml::from_yaml(&job.yaml).unwrap();
        assert_eq!(parsed.name, job.spec.name);
        assert_eq!(parsed.num_qubits, job.spec.num_qubits);
    }

    #[test]
    fn topology_jobs_containerize_without_a_circuit() {
        let mut designer = TopologyDesigner::new(3);
        designer.connect(0, 1).unwrap().connect(1, 2).unwrap();
        let request = JobRequestBuilder::new()
            .job_name("topo")
            .topology(&designer)
            .build()
            .unwrap();
        let job = containerize(&request).unwrap();
        assert!(job.yaml.contains("strategy: topology"));
        assert_eq!(job.image.file(CIRCUIT_FILE), Some(""));
    }

    #[test]
    fn fidelity_without_circuit_is_rejected() {
        // Construct an inconsistent request by hand.
        let mut request = fidelity_request();
        request.qasm.clear();
        assert!(containerize(&request).is_err());
    }
}
