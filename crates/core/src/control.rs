//! The orchestrator side of the networked control plane.
//!
//! [`ControlPlane`] is the only path between the reconcile loop and the
//! devices: every piece of device work is encoded as a versioned
//! [`qrio_proto::Envelope`], crosses a [`qrio_agent::Transport`], and comes
//! back as a [`qrio_proto::NodeReport`]. The orchestrator fills the one
//! description of an attempt, the [`RunPayload`] ([`ControlPlane::send_run`]);
//! the node agent decodes it and hands it to its runner as it is. Two tables
//! sit on either side of the wire:
//!
//! * the **desired state** lives in the lifecycle device queues (job →
//!   binding, owned by the orchestrator) — each tick dispatches the head of
//!   every queue, and
//! * the **observed state** lives here — the last decoded report per node,
//!   folded in as report envelopes are drained off the transport. Nothing
//!   plans from it: a tick sends every device's `Run` before it waits for
//!   any verdict, then collects each one ([`ControlPlane::await_phase`])
//!   before the tick ends, so no run is unfinished when the next tick plans
//!   and no device ever has two in flight.
//!
//! A `Phase` report that arrives while the orchestrator waits for another
//! node's is kept in that node's slot, keyed by `(job, attempt)`, until its
//! own turn comes. With [`InProcTransport`] every command is answered
//! synchronously, so the observed table is always current. With
//! [`qrio_agent::ChannelTransport`] the devices run side by side on worker
//! threads and fire-and-forget acknowledgements may lag; they converge when
//! the next wait or end-of-tick [`ControlPlane::drain`] pulls them in.

use std::collections::BTreeMap;
use std::fmt;

use qrio_agent::{AgentError, InProcTransport, NodeAgent, Transport};
use qrio_cluster::{AttemptVerdict, ExecutionOutcome, JobSpec, WorkOrder};
use qrio_proto::{Envelope, NodeCommand, NodeReport, Payload, RunPayload, RunVerdict};

use crate::master_server::{render_image, ImageBundle};

/// Which transport carries control-plane frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Agents run in the orchestrator's thread; fully deterministic.
    InProc,
    /// Agents run on real worker threads over `mpsc` channels.
    Threaded {
        /// Number of worker threads (clamped to at least one).
        threads: usize,
    },
}

/// The last report observed from one node, with the envelope bookkeeping
/// needed to detect stale or out-of-order data.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedNode {
    /// Report-direction sequence number of the envelope.
    pub seq: u64,
    /// Virtual timestamp the agent echoed (the tick the command was sent).
    pub virtual_ts: u64,
    /// The decoded report payload.
    pub report: NodeReport,
}

/// The orchestrator's endpoint of the control plane: per-node command
/// sequence counters, the observed-state table, and the transport itself.
pub struct ControlPlane {
    transport: Box<dyn Transport>,
    command_seq: BTreeMap<String, u64>,
    observed: BTreeMap<String, ObservedNode>,
    /// Per node, the `(job, attempt)` of its last `Run` and that attempt's
    /// verdict, from when it is read off the transport (or the send fails)
    /// until [`ControlPlane::await_phase`] takes it.
    verdicts: BTreeMap<String, (String, u32, AttemptVerdict)>,
    trace: Option<Vec<u8>>,
}

impl fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlPlane")
            .field("mode", &self.transport.mode())
            .field("nodes", &self.transport.node_names())
            .field("observed", &self.observed)
            .finish()
    }
}

impl ControlPlane {
    /// A control plane over the default deterministic in-process transport.
    pub fn new_in_proc() -> Self {
        ControlPlane {
            transport: Box::new(InProcTransport::new()),
            command_seq: BTreeMap::new(),
            observed: BTreeMap::new(),
            verdicts: BTreeMap::new(),
            trace: None,
        }
    }

    /// Replace the transport. All agents and sequence counters are dropped;
    /// the caller re-registers agents for every node afterwards.
    pub fn install(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
        self.command_seq.clear();
        self.observed.clear();
        self.verdicts.clear();
    }

    /// Short name of the active transport (`"in-proc"` / `"threaded"`).
    pub fn mode_name(&self) -> &'static str {
        self.transport.mode()
    }

    /// Start recording every frame crossing the transport (both directions)
    /// into an in-memory trace, for the `qrio-lint` envelope lints.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Take the recorded trace (concatenated encoded envelopes), leaving
    /// recording enabled.
    pub fn take_trace(&mut self) -> Vec<u8> {
        match self.trace.as_mut() {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// The observed-state table: last decoded report per node.
    pub fn observed(&self) -> &BTreeMap<String, ObservedNode> {
        &self.observed
    }

    /// Hand a freshly built agent to the transport.
    ///
    /// # Errors
    ///
    /// Fails when the transport's workers are gone.
    pub fn register_agent(&mut self, agent: NodeAgent) -> Result<(), AgentError> {
        self.transport.register(agent)
    }

    /// Encode and send one command to `node`, stamping the next per-node
    /// sequence number and the current virtual time.
    ///
    /// # Errors
    ///
    /// Fails when the node is unknown to the transport or its workers are
    /// gone.
    pub fn send_command(
        &mut self,
        node: &str,
        virtual_ts: u64,
        command: NodeCommand,
    ) -> Result<(), AgentError> {
        let seq = self.command_seq.entry(node.to_string()).or_insert(0);
        let envelope = Envelope {
            seq: *seq,
            node_id: node.to_string(),
            virtual_ts,
            payload: Payload::Command(command),
        };
        *seq += 1;
        let frame = envelope.encode();
        if let Some(trace) = self.trace.as_mut() {
            trace.extend_from_slice(&frame);
        }
        self.transport.send(frame)
    }

    /// Pull the next report off the transport and fold it into the observed
    /// table; a `Phase` verdict is also kept in its node's slot until
    /// [`ControlPlane::await_phase`] collects it. `wait` blocks only while a
    /// command is still unanswered; an idle transport yields `Ok(false)`
    /// immediately, and `Ok(true)` says a frame was read.
    ///
    /// # Errors
    ///
    /// Fails when the transport's workers are gone or a frame is corrupt.
    pub fn pump(&mut self, wait: bool) -> Result<bool, AgentError> {
        let Some(frame) = self.transport.recv(wait)? else {
            return Ok(false);
        };
        if let Some(trace) = self.trace.as_mut() {
            trace.extend_from_slice(&frame);
        }
        let (envelope, _) = Envelope::decode(&frame)?;
        let Payload::Report(report) = envelope.payload else {
            return Ok(true);
        };
        let observed = ObservedNode {
            seq: envelope.seq,
            virtual_ts: envelope.virtual_ts,
            report: report.clone(),
        };
        self.observed.insert(envelope.node_id.clone(), observed);
        if let NodeReport::Phase {
            job,
            attempt,
            verdict,
        } = report
        {
            let kept = (job, attempt, attempt_verdict(verdict));
            self.verdicts.insert(envelope.node_id, kept);
        }
        Ok(true)
    }

    /// Drain all immediately available reports into the observed table.
    /// In threaded mode acknowledgements lag the commands that caused them;
    /// this is the convergence point where stale observations catch up.
    pub fn drain(&mut self) {
        while let Ok(true) = self.pump(false) {}
    }

    /// Execute one attempt over the wire: [`ControlPlane::send_run`], then
    /// [`ControlPlane::await_phase`] — a round trip, for callers that make
    /// one attempt at a time.
    pub fn run(&mut self, order: &WorkOrder, spec: &JobSpec, now: u64) -> AttemptVerdict {
        self.send_run(order, spec, now);
        self.await_phase(order)
    }

    /// Describe one attempt in a `Run` command and send it to the order's
    /// node, without waiting for its verdict. The [`RunPayload`] built here
    /// from the borrowed spec — the job's image rendered from it
    /// ([`render_image`]) — is the one description of an attempt, and its
    /// strings the one copy made of them before encoding.
    ///
    /// The protocol itself cannot fail an attempt (rejections travel inside
    /// the verdict); a transport failure is one — `Failed("control plane:
    /// …")`, kept in the node's slot like a report and settled like any
    /// other verdict.
    pub fn send_run(&mut self, order: &WorkOrder, spec: &JobSpec, now: u64) {
        let ImageBundle { name, files } = render_image(spec);
        let payload = RunPayload {
            job: order.job.clone(),
            attempt: order.attempt,
            image_name: name,
            image_files: files,
            qasm: spec.qasm.clone(),
            num_qubits: spec.num_qubits as u64,
            shots: spec.shots,
            threads: spec.threads as u64,
        };
        if let Err(err) = self.send_command(&order.node, now, NodeCommand::Run { payload }) {
            let failed = (order.job.clone(), order.attempt, wire_error(err));
            self.verdicts.insert(order.node.clone(), failed);
        }
    }

    /// Wait for the verdict of the attempt `order` describes, whose `Run`
    /// [`ControlPlane::send_run`] sent: it may already be in the node's slot
    /// — read while another node's was awaited — or is pumped off the
    /// transport now (acknowledgements and other nodes' verdicts are folded
    /// in along the way). A `Phase` for another attempt is skipped; a
    /// transport that fails or goes idle before the verdict arrives is a
    /// `Failed("control plane: …")` verdict.
    pub fn await_phase(&mut self, order: &WorkOrder) -> AttemptVerdict {
        loop {
            if let Some((job, attempt, verdict)) = self.verdicts.remove(&order.node) {
                if job == order.job && attempt == order.attempt {
                    return verdict;
                }
                continue; // a stale phase report from a previous attempt
            }
            match self.pump(true) {
                Ok(true) => {}
                Ok(false) => return wire_error(AgentError::Disconnected),
                Err(err) => return wire_error(err),
            }
        }
    }
}

/// A transport failure, as the verdict of the attempt it struck.
fn wire_error(err: AgentError) -> AttemptVerdict {
    AttemptVerdict::Failed(format!("control plane: {err}"))
}

/// The cluster's reading of an agent's verdict.
fn attempt_verdict(verdict: RunVerdict) -> AttemptVerdict {
    match verdict {
        RunVerdict::Succeeded {
            counts,
            fidelity,
            logs,
        } => AttemptVerdict::Completed(ExecutionOutcome {
            counts,
            fidelity,
            logs,
        }),
        RunVerdict::Failed { reason } => AttemptVerdict::Failed(reason),
        RunVerdict::Faulted { kind } => {
            AttemptVerdict::Faulted(qrio_agent::fault_kind_from_wire(kind))
        }
        RunVerdict::Rejected { reason } => {
            AttemptVerdict::Failed(format!("rejected by node agent: {reason}"))
        }
    }
}

impl Default for ControlPlane {
    fn default() -> Self {
        ControlPlane::new_in_proc()
    }
}
