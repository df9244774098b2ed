//! Error type for the QRIO orchestrator.

use std::error::Error;
use std::fmt;

use qrio_circuit::CircuitError;
use qrio_cluster::ClusterError;
use qrio_meta::MetaError;
use qrio_scheduler::SchedulerError;

use crate::durability::DurabilityError;

/// Errors surfaced by the end-to-end QRIO orchestrator.
#[derive(Debug, Clone, PartialEq)]
pub enum QrioError {
    /// The job request was incomplete or inconsistent.
    InvalidRequest(String),
    /// The user's circuit failed to parse or build.
    Circuit(CircuitError),
    /// The cluster substrate reported an error.
    Cluster(ClusterError),
    /// The meta server reported an error.
    Meta(MetaError),
    /// The scheduler reported an error.
    Scheduler(SchedulerError),
    /// An installed [`crate::AdmissionGate`] rejected the request before any
    /// metadata or image was created.
    AdmissionRejected {
        /// The job name from the request.
        job: String,
        /// The gate's explanation (e.g. rendered lint diagnostics).
        reason: String,
    },
    /// No job with the given id was ever enqueued.
    UnknownJob(String),
    /// The job has not reached a terminal state yet, so it has no outcome.
    JobNotFinished(String),
    /// The job was cancelled before it ran, so it has no outcome.
    JobCancelled(String),
    /// [`crate::Qrio::advance_to`] was given a time before the clock's: time
    /// does not run backwards, and nothing changed.
    ClockBehind {
        /// The time asked for.
        now: u64,
        /// What the clock reads ([`crate::Qrio::now`]).
        clock: u64,
    },
    /// The durability layer (journal, snapshot codec or recovery replay)
    /// failed. Once a journal write fails the error is sticky: every
    /// subsequent journaled operation reports it until durability is
    /// disabled, so in-memory state can never silently outrun the log.
    Durability(DurabilityError),
}

impl fmt::Display for QrioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QrioError::InvalidRequest(msg) => write!(f, "invalid job request: {msg}"),
            QrioError::Circuit(err) => write!(f, "circuit error: {err}"),
            QrioError::Cluster(err) => write!(f, "cluster error: {err}"),
            QrioError::Meta(err) => write!(f, "meta server error: {err}"),
            QrioError::Scheduler(err) => write!(f, "scheduler error: {err}"),
            QrioError::AdmissionRejected { job, reason } => {
                write!(f, "job '{job}' rejected by the admission gate: {reason}")
            }
            QrioError::UnknownJob(id) => write!(f, "no job was enqueued under id '{id}'"),
            QrioError::JobNotFinished(id) => {
                write!(f, "job '{id}' has not reached a terminal state yet")
            }
            QrioError::JobCancelled(id) => write!(f, "job '{id}' was cancelled"),
            QrioError::ClockBehind { now, clock } => {
                write!(f, "cannot move the clock back from {clock} to {now}")
            }
            QrioError::Durability(err) => write!(f, "durability error: {err}"),
        }
    }
}

impl Error for QrioError {}

impl From<CircuitError> for QrioError {
    fn from(err: CircuitError) -> Self {
        QrioError::Circuit(err)
    }
}

impl From<ClusterError> for QrioError {
    fn from(err: ClusterError) -> Self {
        QrioError::Cluster(err)
    }
}

impl From<MetaError> for QrioError {
    fn from(err: MetaError) -> Self {
        QrioError::Meta(err)
    }
}

impl From<SchedulerError> for QrioError {
    fn from(err: SchedulerError) -> Self {
        QrioError::Scheduler(err)
    }
}

impl From<DurabilityError> for QrioError {
    fn from(err: DurabilityError) -> Self {
        QrioError::Durability(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: QrioError = CircuitError::DuplicateQubit { qubit: 0 }.into();
        assert!(e.to_string().contains("circuit"));
        let e: QrioError = ClusterError::UnknownNode("n".into()).into();
        assert!(e.to_string().contains("cluster"));
        assert!(QrioError::InvalidRequest("missing circuit".into())
            .to_string()
            .contains("missing"));
        assert!(QrioError::UnknownJob("j1".into())
            .to_string()
            .contains("j1"));
        assert!(QrioError::JobNotFinished("j2".into())
            .to_string()
            .contains("terminal"));
        assert!(QrioError::JobCancelled("j3".into())
            .to_string()
            .contains("cancelled"));
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<QrioError>();
    }
}
