//! The per-device worker: owns one device's calibration replica and runner,
//! and turns `NodeCommand` envelopes into `NodeReport` envelopes.

use std::collections::BTreeSet;
use std::fmt;

use qrio_backend::{spec as backend_spec, Backend};
use qrio_cluster::{ExecutionOutcome, FaultInjector, FaultKind};
use qrio_proto::{
    Envelope, FaultSpec, NodeCommand, NodeReport, Payload, RunPayload, RunVerdict, WireFaultKind,
};

use crate::error::AgentError;

/// Executes one attempt on a node's quantum device — the role of the
/// generated runner script inside the job container (§3.3). The agent stays
/// agnostic of *how* circuits are simulated; the orchestrator crate brings
/// the implementation.
pub trait JobRunner {
    /// Run the attempt `run` describes on `backend`. The payload is all a
    /// runner ever learns about a job: it is what crossed the wire.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when execution fails.
    fn run(&self, run: &RunPayload, backend: &Backend) -> Result<ExecutionOutcome, String>;
}

/// Convert a cluster-side fault kind to its wire twin.
pub fn fault_kind_to_wire(kind: FaultKind) -> WireFaultKind {
    match kind {
        FaultKind::TransientExecution => WireFaultKind::Transient,
        FaultKind::CalibrationGlitch => WireFaultKind::Calibration,
        FaultKind::SlowJob => WireFaultKind::Slow,
        FaultKind::DeviceFlap => WireFaultKind::Flap,
    }
}

/// Convert a wire fault kind back to the cluster-side enum.
pub fn fault_kind_from_wire(kind: WireFaultKind) -> FaultKind {
    match kind {
        WireFaultKind::Transient => FaultKind::TransientExecution,
        WireFaultKind::Calibration => FaultKind::CalibrationGlitch,
        WireFaultKind::Slow => FaultKind::SlowJob,
        WireFaultKind::Flap => FaultKind::DeviceFlap,
    }
}

/// Convert the cluster's fault-injection plan to its wire form.
pub fn fault_spec_to_wire(injector: &FaultInjector) -> FaultSpec {
    FaultSpec {
        seed: injector.seed,
        transient_rate: injector.transient_rate,
        calibration_rate: injector.calibration_rate,
        slow_rate: injector.slow_rate,
        flap_rate: injector.flap_rate,
    }
}

fn fault_spec_from_wire(spec: &FaultSpec) -> FaultInjector {
    FaultInjector {
        seed: spec.seed,
        transient_rate: spec.transient_rate,
        calibration_rate: spec.calibration_rate,
        slow_rate: spec.slow_rate,
        flap_rate: spec.flap_rate,
    }
}

/// One device's worker process: holds a replica of the device calibration
/// (shipped as backend spec text in `Bind`/`Recalibrate` commands), a replica
/// of the fault-injection plan, and the job runner that executes circuits.
///
/// The agent is deliberately stateless about the *cluster*: it never sees
/// queues, bindings or breaker state. Everything a `Run` needs arrives in
/// the self-contained [`RunPayload`], and everything the orchestrator needs
/// back travels in the returned reports. Because the runner and the fault
/// decision are pure functions of their inputs, an agent replica computes
/// bit-identical results to an in-process call — which is what keeps the
/// benches byte-identical across transports.
///
/// Protocol invariant: **every command yields exactly one report** (`Run` →
/// `Phase`, `Bind`/`Recalibrate` → `Calibration`, everything else →
/// `Status`), so transports can account for in-flight round trips without
/// inspecting payloads.
pub struct NodeAgent {
    node_id: String,
    runner: Box<dyn JobRunner + Send>,
    backend: Option<Backend>,
    injector: Option<FaultInjector>,
    calibration_revision: u64,
    cordoned: bool,
    executed: u64,
    cancelled: BTreeSet<String>,
    report_seq: u64,
}

impl fmt::Debug for NodeAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeAgent")
            .field("node_id", &self.node_id)
            .field("bound", &self.backend.is_some())
            .field("calibration_revision", &self.calibration_revision)
            .field("cordoned", &self.cordoned)
            .field("executed", &self.executed)
            .field("report_seq", &self.report_seq)
            .finish()
    }
}

impl NodeAgent {
    /// A fresh, unbound agent for `node_id` executing circuits with `runner`.
    pub fn new(node_id: impl Into<String>, runner: Box<dyn JobRunner + Send>) -> Self {
        NodeAgent {
            node_id: node_id.into(),
            runner,
            backend: None,
            injector: None,
            calibration_revision: 0,
            cordoned: false,
            executed: 0,
            cancelled: BTreeSet::new(),
            report_seq: 0,
        }
    }

    /// The device this agent owns.
    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    /// Current calibration revision (bumped on every successful
    /// `Bind`/`Recalibrate`).
    pub fn calibration_revision(&self) -> u64 {
        self.calibration_revision
    }

    /// Decode one command frame and answer with encoded report frames.
    ///
    /// # Errors
    ///
    /// Fails with a typed [`AgentError`] when the frame does not decode or is
    /// addressed to a different node.
    pub fn handle_frame(&mut self, frame: &[u8]) -> Result<Vec<Vec<u8>>, AgentError> {
        let (envelope, _) = Envelope::decode(frame)?;
        if envelope.node_id != self.node_id {
            return Err(AgentError::UnknownNode {
                node: envelope.node_id,
            });
        }
        Ok(self
            .handle(&envelope)
            .into_iter()
            .map(|reply| reply.encode())
            .collect())
    }

    /// Process one decoded envelope and produce the reply reports.
    ///
    /// Report envelopes carry this agent's own `seq` stream and echo the
    /// command's `virtual_ts`, so replies are deterministic functions of the
    /// command stream regardless of which thread the agent runs on.
    pub fn handle(&mut self, envelope: &Envelope) -> Vec<Envelope> {
        let command = match &envelope.payload {
            Payload::Command(command) => command,
            // Agents only consume commands; a misdirected report is dropped
            // after an advisory status reply so round-trip accounting holds.
            Payload::Report(_) => {
                let status = self.status_report();
                return vec![self.reply(envelope.virtual_ts, status)];
            }
        };
        let report = match command {
            NodeCommand::Bind {
                backend_spec,
                injector,
            } => {
                self.injector = injector.as_ref().map(fault_spec_from_wire);
                self.apply_calibration(backend_spec)
            }
            NodeCommand::Recalibrate { backend_spec } => self.apply_calibration(backend_spec),
            NodeCommand::Run { payload } => NodeReport::Phase {
                job: payload.job.clone(),
                attempt: payload.attempt,
                verdict: self.run(payload),
            },
            NodeCommand::Cancel { job, reason: _ } => {
                self.cancelled.insert(job.clone());
                self.status_report()
            }
            NodeCommand::Cordon => {
                self.cordoned = true;
                self.status_report()
            }
            NodeCommand::Uncordon => {
                self.cordoned = false;
                self.status_report()
            }
            NodeCommand::Probe => self.status_report(),
        };
        vec![self.reply(envelope.virtual_ts, report)]
    }

    fn apply_calibration(&mut self, spec_text: &str) -> NodeReport {
        if let Ok(backend) = backend_spec::from_spec(spec_text) {
            self.backend = Some(backend);
            self.calibration_revision += 1;
        } else {
            // An unparseable spec leaves the device unbound; subsequent runs
            // are rejected rather than executed against stale calibration.
            self.backend = None;
        }
        NodeReport::Calibration {
            revision: self.calibration_revision,
        }
    }

    /// Execute one attempt — the one place the order of an attempt is
    /// written: a cancelled job is dropped, an unbound device refuses, then
    /// the fault decision (a pure function of `(job, node, attempt)` and the
    /// injector seed), then the runner.
    fn run(&mut self, payload: &RunPayload) -> RunVerdict {
        self.executed += 1;
        if self.cancelled.remove(&payload.job) {
            return RunVerdict::Rejected {
                reason: format!("job '{}' was cancelled before it started", payload.job),
            };
        }
        let Some(backend) = &self.backend else {
            return RunVerdict::Rejected {
                reason: format!("node '{}' has no bound calibration", self.node_id),
            };
        };
        if let Some(kind) = self
            .injector
            .and_then(|injector| injector.decide(&payload.job, &self.node_id, payload.attempt))
        {
            return RunVerdict::Faulted {
                kind: fault_kind_to_wire(kind),
            };
        }

        // Note: a cordoned agent still runs — cordoning gates *scheduling*
        // (the orchestrator's cluster substrate), not work already bound.

        match self.runner.run(payload, backend) {
            Ok(outcome) => RunVerdict::Succeeded {
                counts: outcome.counts,
                fidelity: outcome.fidelity,
                logs: outcome.logs,
            },
            Err(reason) => RunVerdict::Failed { reason },
        }
    }

    fn status_report(&self) -> NodeReport {
        NodeReport::Status {
            cordoned: self.cordoned,
            executed: self.executed,
            calibration_revision: self.calibration_revision,
        }
    }

    fn reply(&mut self, virtual_ts: u64, report: NodeReport) -> Envelope {
        let seq = self.report_seq;
        self.report_seq += 1;
        Envelope {
            seq,
            node_id: self.node_id.clone(),
            virtual_ts,
            payload: Payload::Report(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct EchoRunner;

    impl JobRunner for EchoRunner {
        fn run(&self, run: &RunPayload, backend: &Backend) -> Result<ExecutionOutcome, String> {
            Ok(ExecutionOutcome {
                counts: vec![("0".into(), run.shots)],
                fidelity: None,
                logs: vec![format!(
                    "{} files on {}",
                    run.image_files.len(),
                    backend.name()
                )],
            })
        }
    }

    /// A runner no test may reach: everything an agent decides before the
    /// runner must be decided without it.
    #[derive(Debug)]
    struct UnreachableRunner;

    impl JobRunner for UnreachableRunner {
        fn run(&self, run: &RunPayload, _: &Backend) -> Result<ExecutionOutcome, String> {
            panic!("the runner was called for job '{}'", run.job)
        }
    }

    fn run_command(job: &str) -> NodeCommand {
        NodeCommand::Run {
            payload: RunPayload {
                job: job.into(),
                attempt: 0,
                image_name: "img".into(),
                image_files: vec![],
                qasm: String::new(),
                num_qubits: 1,
                shots: 8,
                threads: 0,
            },
        }
    }

    /// The verdict of the one `Phase` report in `replies`.
    fn verdict(replies: &[Envelope]) -> &RunVerdict {
        match replies {
            [Envelope {
                payload: Payload::Report(NodeReport::Phase { verdict, .. }),
                ..
            }] => verdict,
            other => panic!("unexpected replies: {other:?}"),
        }
    }

    fn command(node: &str, seq: u64, command: NodeCommand) -> Envelope {
        Envelope {
            seq,
            node_id: node.into(),
            virtual_ts: 5,
            payload: Payload::Command(command),
        }
    }

    fn bind_spec() -> String {
        let backend =
            qrio_backend::Backend::uniform("dev-α", qrio_backend::topology::line(3), 0.01, 0.02);
        backend_spec::to_spec(&backend)
    }

    #[test]
    fn unbound_runs_are_rejected_and_bind_enables_execution() {
        let mut agent = NodeAgent::new("dev-α", Box::new(EchoRunner));
        let replies = agent.handle(&command("dev-α", 0, run_command("j1")));
        assert!(matches!(verdict(&replies), RunVerdict::Rejected { .. }));

        let replies = agent.handle(&command(
            "dev-α",
            1,
            NodeCommand::Bind {
                backend_spec: bind_spec(),
                injector: None,
            },
        ));
        assert!(matches!(
            replies[0].payload,
            Payload::Report(NodeReport::Calibration { revision: 1 })
        ));

        let replies = agent.handle(&command("dev-α", 2, run_command("j1")));
        assert!(matches!(verdict(&replies), RunVerdict::Succeeded { .. }));
        // Report seqs are dense per agent.
        assert_eq!(replies[0].seq, 2);
    }

    #[test]
    fn cancel_drops_the_next_run_and_frames_round_trip() {
        let mut agent = NodeAgent::new("dev-α", Box::new(EchoRunner));
        agent.handle(&command(
            "dev-α",
            0,
            NodeCommand::Bind {
                backend_spec: bind_spec(),
                injector: None,
            },
        ));
        agent.handle(&command(
            "dev-α",
            1,
            NodeCommand::Cancel {
                job: "j1".into(),
                reason: "user interrupt".into(),
            },
        ));
        let frame = command("dev-α", 2, run_command("j1")).encode();
        let replies = agent.handle_frame(&frame).unwrap();
        let (reply, _) = Envelope::decode(&replies[0]).unwrap();
        assert!(matches!(verdict(&[reply]), RunVerdict::Rejected { .. }));
    }

    #[test]
    fn faults_and_rejections_are_decided_before_the_runner() {
        let mut agent = NodeAgent::new("dev-α", Box::new(UnreachableRunner));
        // Unbound: refused.
        let replies = agent.handle(&command("dev-α", 0, run_command("j1")));
        assert!(matches!(verdict(&replies), RunVerdict::Rejected { .. }));

        // Bound under a plan that faults every attempt: the replica decides.
        agent.handle(&command(
            "dev-α",
            1,
            NodeCommand::Bind {
                backend_spec: bind_spec(),
                injector: Some(fault_spec_to_wire(&FaultInjector {
                    transient_rate: 1.0,
                    ..FaultInjector::new(7)
                })),
            },
        ));
        let replies = agent.handle(&command("dev-α", 2, run_command("j1")));
        assert_eq!(
            verdict(&replies),
            &RunVerdict::Faulted {
                kind: WireFaultKind::Transient
            }
        );

        // Cancelled: dropped, even though the plan would have faulted it.
        agent.handle(&command(
            "dev-α",
            3,
            NodeCommand::Cancel {
                job: "j2".into(),
                reason: "user interrupt".into(),
            },
        ));
        let replies = agent.handle(&command("dev-α", 4, run_command("j2")));
        match verdict(&replies) {
            RunVerdict::Rejected { reason } => assert!(reason.contains("cancelled"), "{reason}"),
            other => panic!("unexpected verdict: {other:?}"),
        }
    }

    #[test]
    fn frames_for_other_nodes_are_a_typed_error() {
        let mut agent = NodeAgent::new("dev-α", Box::new(EchoRunner));
        let frame = command("dev-β", 0, NodeCommand::Probe).encode();
        assert!(matches!(
            agent.handle_frame(&frame),
            Err(AgentError::UnknownNode { .. })
        ));
    }
}
