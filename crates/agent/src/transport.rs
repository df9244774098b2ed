//! The transport seam between the orchestrator and its node agents.
//!
//! Both implementations carry **encoded** [`qrio_proto::Envelope`] frames, so
//! the full encode→decode path is exercised no matter which mode is active.
//! A command frame is decoded once, at `send` — where a malformed frame or an
//! unknown node is a typed error in both modes — and the decoded envelope is
//! what reaches [`NodeAgent::handle`]:
//!
//! * [`InProcTransport`] — agents live in the caller's thread and process
//!   each frame synchronously at `send` time. Fully deterministic in virtual
//!   time; the default for every bench.
//! * [`ChannelTransport`] — agents live on real `std::thread` workers
//!   (round-robin by registration order) and frames travel over `mpsc`
//!   channels. Reports may lag commands, but because agents are pure
//!   functions of their per-node command streams, final results are
//!   byte-identical for any worker count.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::mpsc;
use std::thread::JoinHandle;

use qrio_proto::Envelope;

use crate::agent::NodeAgent;
use crate::error::AgentError;

/// A bidirectional frame pipe between the orchestrator and its agents.
///
/// `send` carries one encoded command envelope toward the node it names;
/// `recv` yields encoded report envelopes as they become available. The
/// agent protocol guarantees one report per command, so callers can await
/// replies by counting.
pub trait Transport: fmt::Debug {
    /// Short mode name (`"in-proc"` / `"threaded"`), for logs and reports.
    fn mode(&self) -> &'static str;

    /// Hand a new agent to the transport.
    ///
    /// # Errors
    ///
    /// Fails when the transport's workers are gone.
    fn register(&mut self, agent: NodeAgent) -> Result<(), AgentError>;

    /// Deliver one encoded command envelope to the node it is addressed to.
    ///
    /// # Errors
    ///
    /// Fails when the frame is malformed, names an unregistered node, or the
    /// transport's workers are gone.
    fn send(&mut self, frame: Vec<u8>) -> Result<(), AgentError>;

    /// Fetch the next encoded report envelope.
    ///
    /// Returns `Ok(None)` when nothing is pending. With `wait = true` the
    /// call blocks until a report arrives, provided at least one command is
    /// still unanswered (it never blocks on an idle transport).
    ///
    /// # Errors
    ///
    /// Fails when the transport's workers are gone.
    fn recv(&mut self, wait: bool) -> Result<Option<Vec<u8>>, AgentError>;

    /// Names of all registered nodes, sorted.
    fn node_names(&self) -> Vec<String>;
}

/// Deterministic single-thread transport: every `send` runs the target agent
/// to completion and queues its reports.
#[derive(Debug, Default)]
pub struct InProcTransport {
    agents: BTreeMap<String, NodeAgent>,
    inbox: VecDeque<Vec<u8>>,
}

impl InProcTransport {
    /// An empty transport with no agents.
    pub fn new() -> Self {
        InProcTransport::default()
    }
}

impl Transport for InProcTransport {
    fn mode(&self) -> &'static str {
        "in-proc"
    }

    fn register(&mut self, agent: NodeAgent) -> Result<(), AgentError> {
        self.agents.insert(agent.node_id().to_string(), agent);
        Ok(())
    }

    fn send(&mut self, frame: Vec<u8>) -> Result<(), AgentError> {
        let (envelope, _) = Envelope::decode(&frame)?;
        let agent = self
            .agents
            .get_mut(&envelope.node_id)
            .ok_or(AgentError::UnknownNode {
                node: envelope.node_id.clone(),
            })?;
        let replies = agent.handle(&envelope);
        self.inbox
            .extend(replies.iter().map(|reply| reply.encode()));
        Ok(())
    }

    fn recv(&mut self, _wait: bool) -> Result<Option<Vec<u8>>, AgentError> {
        Ok(self.inbox.pop_front())
    }

    fn node_names(&self) -> Vec<String> {
        self.agents.keys().cloned().collect()
    }
}

enum WorkerMsg {
    Attach(Box<NodeAgent>),
    /// A decoded command for an agent attached to this worker earlier.
    Command(Envelope),
    Shutdown,
}

struct Worker {
    tx: mpsc::Sender<WorkerMsg>,
    handle: Option<JoinHandle<()>>,
}

/// Threaded transport: agents are partitioned round-robin over real worker
/// threads and frames cross `mpsc` channels in both directions.
pub struct ChannelTransport {
    workers: Vec<Worker>,
    assignment: BTreeMap<String, usize>,
    next_worker: usize,
    report_rx: mpsc::Receiver<Vec<u8>>,
    in_flight: u64,
}

impl fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("workers", &self.workers.len())
            .field("assignment", &self.assignment)
            .field("in_flight", &self.in_flight)
            .finish()
    }
}

fn worker_loop(rx: mpsc::Receiver<WorkerMsg>, tx: mpsc::Sender<Vec<u8>>) {
    let mut agents: BTreeMap<String, NodeAgent> = BTreeMap::new();
    while let Ok(message) = rx.recv() {
        match message {
            WorkerMsg::Attach(agent) => {
                agents.insert(agent.node_id().to_string(), *agent);
            }
            WorkerMsg::Command(envelope) => {
                let replies = match agents.get_mut(&envelope.node_id) {
                    Some(agent) => agent.handle(&envelope),
                    None => Vec::new(),
                };
                for reply in replies {
                    if tx.send(reply.encode()).is_err() {
                        return;
                    }
                }
            }
            WorkerMsg::Shutdown => return,
        }
    }
}

impl ChannelTransport {
    /// Spawn `threads` worker threads (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (report_tx, report_rx) = mpsc::channel();
        let workers = (0..threads)
            .map(|_| {
                let (tx, rx) = mpsc::channel();
                let report_tx = report_tx.clone();
                let handle = std::thread::spawn(move || worker_loop(rx, report_tx));
                Worker {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        ChannelTransport {
            workers,
            assignment: BTreeMap::new(),
            next_worker: 0,
            report_rx,
            in_flight: 0,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }
}

impl Transport for ChannelTransport {
    fn mode(&self) -> &'static str {
        "threaded"
    }

    fn register(&mut self, agent: NodeAgent) -> Result<(), AgentError> {
        let index = self.next_worker % self.workers.len();
        self.next_worker += 1;
        self.assignment.insert(agent.node_id().to_string(), index);
        self.workers[index]
            .tx
            .send(WorkerMsg::Attach(Box::new(agent)))
            .map_err(|_| AgentError::Disconnected)
    }

    fn send(&mut self, frame: Vec<u8>) -> Result<(), AgentError> {
        let (envelope, _) = Envelope::decode(&frame)?;
        let index = *self
            .assignment
            .get(&envelope.node_id)
            .ok_or(AgentError::UnknownNode {
                node: envelope.node_id.clone(),
            })?;
        self.workers[index]
            .tx
            .send(WorkerMsg::Command(envelope))
            .map_err(|_| AgentError::Disconnected)?;
        self.in_flight += 1;
        Ok(())
    }

    fn recv(&mut self, wait: bool) -> Result<Option<Vec<u8>>, AgentError> {
        if self.in_flight == 0 {
            return Ok(None);
        }
        if wait {
            let frame = self
                .report_rx
                .recv()
                .map_err(|_| AgentError::Disconnected)?;
            self.in_flight -= 1;
            return Ok(Some(frame));
        }
        match self.report_rx.try_recv() {
            Ok(frame) => {
                self.in_flight -= 1;
                Ok(Some(frame))
            }
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(AgentError::Disconnected),
        }
    }

    fn node_names(&self) -> Vec<String> {
        self.assignment.keys().cloned().collect()
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        for worker in &self.workers {
            let _ = worker.tx.send(WorkerMsg::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::JobRunner;
    use qrio_cluster::ExecutionOutcome;
    use qrio_proto::{NodeCommand, NodeReport, Payload, RunPayload};

    #[derive(Debug)]
    struct NullRunner;

    impl JobRunner for NullRunner {
        fn run(
            &self,
            _run: &RunPayload,
            _backend: &qrio_backend::Backend,
        ) -> Result<ExecutionOutcome, String> {
            Err("no device".into())
        }
    }

    fn probe(node: &str, seq: u64) -> Vec<u8> {
        Envelope {
            seq,
            node_id: node.into(),
            virtual_ts: 0,
            payload: Payload::Command(NodeCommand::Probe),
        }
        .encode()
    }

    fn drive(transport: &mut dyn Transport) {
        for node in ["a", "b", "c"] {
            transport
                .register(NodeAgent::new(node, Box::new(NullRunner)))
                .unwrap();
        }
        for (seq, node) in ["a", "b", "c", "a"].iter().enumerate() {
            transport.send(probe(node, seq as u64 / 3)).unwrap();
        }
        let mut statuses = 0;
        while let Some(frame) = transport.recv(true).unwrap() {
            let (envelope, _) = Envelope::decode(&frame).unwrap();
            assert!(matches!(
                envelope.payload,
                Payload::Report(NodeReport::Status { .. })
            ));
            statuses += 1;
            if statuses == 4 {
                break;
            }
        }
        assert_eq!(statuses, 4);
        // Idle transports never block.
        assert_eq!(transport.recv(true).unwrap(), None);
    }

    #[test]
    fn in_proc_round_trips_probes() {
        drive(&mut InProcTransport::new());
    }

    #[test]
    fn threaded_round_trips_probes_at_various_widths() {
        for threads in [1, 2, 8] {
            drive(&mut ChannelTransport::new(threads));
        }
    }

    #[test]
    fn unknown_nodes_are_typed_errors_in_both_modes() {
        let mut in_proc = InProcTransport::new();
        assert!(matches!(
            in_proc.send(probe("ghost", 0)),
            Err(AgentError::UnknownNode { .. })
        ));
        let mut threaded = ChannelTransport::new(2);
        assert!(matches!(
            threaded.send(probe("ghost", 0)),
            Err(AgentError::UnknownNode { .. })
        ));
    }
}
