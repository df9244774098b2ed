//! Error types for the cluster substrate.

use std::error::Error;
use std::fmt;

use qrio_bytes::{codec_enum, Wide32};

use crate::fault::FaultKind;

/// Errors produced by the cluster control plane, registry and executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A node with the given name already exists.
    DuplicateNode(String),
    /// No node with the given name exists.
    UnknownNode(String),
    /// A job with the given name already exists.
    DuplicateJob(String),
    /// No job with the given name exists.
    UnknownJob(String),
    /// No image with the given name exists in the registry.
    ImageNotFound(String),
    /// The job cannot be bound to the requested node.
    BindingRejected {
        /// Job name.
        job: String,
        /// Node name.
        node: String,
        /// Why the binding was rejected.
        reason: String,
    },
    /// No node passed the scheduling filters.
    Unschedulable {
        /// Job name.
        job: String,
        /// Why the job could not be scheduled.
        reason: String,
    },
    /// A job spec document could not be parsed.
    SpecParse {
        /// 1-based line number.
        line: usize,
        /// Description of the failure.
        message: String,
    },
    /// The node executor failed to run a job.
    ExecutionFailed {
        /// Job name.
        job: String,
        /// Failure description.
        reason: String,
    },
    /// A lifecycle action (cancel, rebind, run...) is not legal in the job's
    /// current phase.
    PhaseConflict {
        /// Job name.
        job: String,
        /// The action that was attempted.
        action: String,
        /// The phase the job was actually in, rendered for diagnostics.
        phase: String,
    },
    /// The fault injector fired during an execution attempt.
    InjectedFault {
        /// Job name.
        job: String,
        /// Node the attempt ran on.
        node: String,
        /// Which typed fault fired.
        kind: FaultKind,
        /// The (0-based) execution attempt that faulted.
        attempt: u32,
    },
    /// The job blew its virtual-time deadline before reaching a terminal
    /// state.
    DeadlineExceeded {
        /// Job name.
        job: String,
        /// The absolute virtual time the deadline expired at.
        deadline: u64,
    },
}

codec_enum!(ClusterError {
    0 => DuplicateNode(name),
    1 => UnknownNode(name),
    2 => DuplicateJob(name),
    3 => UnknownJob(name),
    4 => ImageNotFound(name),
    5 => BindingRejected { job, node, reason },
    6 => Unschedulable { job, reason },
    7 => SpecParse { line, message },
    8 => ExecutionFailed { job, reason },
    9 => PhaseConflict { job, action, phase },
    10 => InjectedFault { job, node, kind, attempt as Wide32 },
    11 => DeadlineExceeded { job, deadline },
});

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::DuplicateNode(name) => write!(f, "node '{name}' already exists"),
            ClusterError::UnknownNode(name) => write!(f, "unknown node '{name}'"),
            ClusterError::DuplicateJob(name) => write!(f, "job '{name}' already exists"),
            ClusterError::UnknownJob(name) => write!(f, "unknown job '{name}'"),
            ClusterError::ImageNotFound(name) => write!(f, "image '{name}' not found in registry"),
            ClusterError::BindingRejected { job, node, reason } => {
                write!(f, "cannot bind job '{job}' to node '{node}': {reason}")
            }
            ClusterError::Unschedulable { job, reason } => {
                write!(f, "job '{job}' is unschedulable: {reason}")
            }
            ClusterError::SpecParse { line, message } => {
                write!(f, "job spec parse error at line {line}: {message}")
            }
            ClusterError::ExecutionFailed { job, reason } => {
                write!(f, "execution of job '{job}' failed: {reason}")
            }
            ClusterError::PhaseConflict { job, action, phase } => {
                write!(f, "cannot {action} job '{job}' in phase {phase}")
            }
            ClusterError::InjectedFault {
                job,
                node,
                kind,
                attempt,
            } => {
                write!(
                    f,
                    "attempt {attempt} of job '{job}' on node '{node}' hit {}",
                    kind.reason()
                )
            }
            ClusterError::DeadlineExceeded { job, deadline } => {
                write!(f, "job '{job}' exceeded its deadline at t={deadline}")
            }
        }
    }
}

impl Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ClusterError::UnknownNode("n1".into())
            .to_string()
            .contains("n1"));
        let e = ClusterError::BindingRejected {
            job: "j".into(),
            node: "n".into(),
            reason: "full".into(),
        };
        assert!(e.to_string().contains("full"));
        let e = ClusterError::PhaseConflict {
            job: "j".into(),
            action: "cancel".into(),
            phase: "Running".into(),
        };
        assert!(e.to_string().contains("cancel"));
        assert!(e.to_string().contains("Running"));
        let e = ClusterError::InjectedFault {
            job: "j".into(),
            node: "n".into(),
            kind: FaultKind::CalibrationGlitch,
            attempt: 2,
        };
        assert!(e.to_string().contains("attempt 2"));
        assert!(e.to_string().contains("calibration glitch"));
        let e = ClusterError::DeadlineExceeded {
            job: "late".into(),
            deadline: 40,
        };
        assert!(e.to_string().contains("late"));
        assert!(e.to_string().contains("t=40"));
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<ClusterError>();
    }
}
