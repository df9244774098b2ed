//! A job's way into [`Qrio`] and the user's view of it afterwards: enqueue
//! and cancel, the status / outcome / watch queries, and the admission
//! verdicts (regular and forced) of the service loop.

use qrio_backend::Backend;
use qrio_cluster::{ClusterError, Node};

use super::{JobOutcome, Qrio};
use crate::durability::Command;
use crate::error::QrioError;
use crate::lifecycle::{Cause, JobEvent, JobId, JobState, JobStatus, TickReport, Tracked};
use crate::master_server::job_spec;
use crate::visualizer::JobRequest;

/// How an admission attempt for one queued job ended.
pub(super) enum Admitted {
    /// Bound to a device.
    Scheduled,
    /// No device can host the job right now; it stays `Queued`.
    Deferred,
    /// Terminal failure (unschedulable, or every candidate failed scoring).
    Failed,
}

impl Admitted {
    /// The list of a cycle's report this verdict goes in.
    pub(super) fn file(self, report: &mut TickReport) -> &mut Vec<JobId> {
        match self {
            Admitted::Scheduled => &mut report.scheduled,
            Admitted::Deferred => &mut report.deferred,
            Admitted::Failed => &mut report.failed,
        }
    }
}

/// The error of an `action` that does not apply to a job in `state`.
pub(super) fn phase_conflict(id: &JobId, action: &str, state: JobState) -> QrioError {
    QrioError::Cluster(ClusterError::PhaseConflict {
        job: id.to_string(),
        action: action.to_string(),
        phase: state.to_string(),
    })
}

impl Qrio {
    /// Submit a job without blocking: upload its metadata to the meta server
    /// (strategy validation runs here), build its job spec, push its image
    /// by name and admit the job to the scheduling queue. Returns as soon as the job is
    /// `Queued`; nothing has been scheduled or executed yet — drive the
    /// lifecycle with [`Qrio::tick`] / [`Qrio::run_until_idle`] and read the
    /// result with [`Qrio::outcome`].
    ///
    /// A job that later turns out to be unschedulable ends in
    /// [`JobState::Failed`] (observable via [`Qrio::status`]) — that is not
    /// an error of `enqueue` itself.
    ///
    /// # Errors
    ///
    /// Returns an error when the request is rejected up front: a duplicate
    /// job name, strategy validation failure, or an inconsistent request. No
    /// metadata or image is retained in that case.
    pub fn enqueue(&mut self, request: &JobRequest) -> Result<JobId, QrioError> {
        if self.cluster.job(&request.job_name).is_some() {
            return Err(ClusterError::DuplicateJob(request.job_name.clone()).into());
        }
        // 0. Optional pre-admission gate: reject doomed requests before any
        //    metadata, image or lifecycle state exists for them.
        if let Some(gate) = &self.admission_gate {
            let fleet: Vec<Backend> = self.cluster.nodes().map(|n| n.backend().clone()).collect();
            if let Err(reason) = gate.check(request, &fleet) {
                return Err(QrioError::AdmissionRejected {
                    job: request.job_name.clone(),
                    reason,
                });
            }
        }
        // 1. Visualizer → meta server: upload the job metadata (Table 1,
        //    generalized): the strategy reference plus the circuit when one
        //    was provided. The strategy's own validation hook runs here.
        let qasm_text = (!request.qasm.is_empty()).then_some(request.qasm.as_str());
        self.meta
            .upload_job_metadata(&request.job_name, &request.strategy, qasm_text)?;

        // 2. Visualizer → master server: create the job spec and push its
        //    image, by name. A failure here must not leak the metadata
        //    uploaded above.
        let spec = match job_spec(request) {
            Ok(spec) => spec,
            Err(err) => {
                self.meta.remove_job_metadata(&request.job_name);
                return Err(err);
            }
        };
        let image_name = spec.image.clone();
        self.cluster.push_image(image_name.clone());
        // Currently unreachable (submit_job only fails on DuplicateJob,
        // pre-checked above) — kept as rollback defense in case the
        // cluster's submission surface grows more failure modes.
        if let Err(err) = self.cluster.submit_job(spec) {
            self.meta.remove_job_metadata(&request.job_name);
            self.remove_image_if_unreferenced(&image_name, &request.job_name);
            return Err(err.into());
        }

        // 3. Lifecycle bookkeeping: Submitted → Queued, admission queue.
        //    The deadline is anchored to the admission clock here.
        self.lifecycle
            .admit_new(&request.job_name, request.priority, request.deadline);
        // Only successful admissions are journaled: every failure path above
        // rolls back fully, so replaying the successes alone reproduces the
        // exact state — and rejected requests never burden recovery.
        self.journal(|| Command::Enqueue {
            request: Box::new(request.clone()),
        })?;
        Ok(JobId::new(&request.job_name))
    }

    /// Enqueue a whole batch, returning one result per request in order.
    /// A rejected request (duplicate name, invalid strategy...) does not
    /// abort the rest of the batch.
    pub fn enqueue_all<'r>(
        &mut self,
        requests: impl IntoIterator<Item = &'r JobRequest>,
    ) -> Vec<Result<JobId, QrioError>> {
        requests.into_iter().map(|r| self.enqueue(r)).collect()
    }

    /// Cancel a job that has not started running.
    ///
    /// `Queued` jobs leave the admission queue; `Scheduled` jobs release
    /// their device binding and reserved resources; `Retrying` jobs are
    /// withdrawn mid-backoff. Either way the job ends in
    /// [`JobState::Cancelled`] and its metadata and image are garbage-
    /// collected.
    ///
    /// # Errors
    ///
    /// Deterministically returns [`ClusterError::PhaseConflict`] (wrapped)
    /// for jobs that are `Running` or already terminal — cancellation never
    /// rewrites history — and an unknown-job error for ids never enqueued.
    pub fn cancel(&mut self, id: &JobId) -> Result<(), QrioError> {
        let status = self.job_status(id)?;
        // The lifecycle decides what may be cancelled; the cluster only
        // releases the reservation a `Scheduled` job holds.
        if !matches!(
            status.state,
            JobState::Queued | JobState::Scheduled | JobState::Retrying
        ) {
            return Err(phase_conflict(id, "cancel", status.state));
        }
        // The event names the device whose binding the cancellation frees
        // (None for jobs cancelled before they were bound).
        let node = status.node.clone();
        let bound = status.state == JobState::Scheduled;
        self.cluster.release_job(id.as_str())?;
        if bound {
            self.lifecycle.leave_device_queue(id.as_str());
        } else {
            self.lifecycle.remove_pending(id.as_str());
        }
        self.lifecycle.record(
            id.as_str(),
            JobState::Cancelled,
            node,
            Some(Cause::Cancelled),
        );
        self.cleanup_terminal(id.as_str());
        // Failed cancellations mutate nothing, so only successes are
        // journaled.
        self.journal(|| Command::Cancel {
            job: id.to_string(),
        })
    }

    /// The current lifecycle state of a job.
    ///
    /// # Errors
    ///
    /// Returns an error for ids that were never enqueued.
    pub fn status(&self, id: &JobId) -> Result<JobState, QrioError> {
        Ok(self.job_status(id)?.state)
    }

    /// `Ok` when the job is in the one state `action` applies to.
    ///
    /// # Errors
    ///
    /// The phase conflict `action` reports for any other state, or the
    /// unknown-job error.
    pub(super) fn require_state(
        &self,
        id: &JobId,
        action: &str,
        wanted: JobState,
    ) -> Result<(), QrioError> {
        match self.status(id)? {
            state if state == wanted => Ok(()),
            other => Err(phase_conflict(id, action, other)),
        }
    }

    /// The full status snapshot of a job: state, node, cause, priority and
    /// the timestamped transition history.
    ///
    /// # Errors
    ///
    /// Returns an error for ids that were never enqueued.
    pub fn job_status(&self, id: &JobId) -> Result<&JobStatus, QrioError> {
        Ok(&self.tracked(id)?.status)
    }

    /// Everything the lifecycle store holds about a job.
    fn tracked(&self, id: &JobId) -> Result<&Tracked, QrioError> {
        self.lifecycle
            .jobs
            .get(id.as_str())
            .ok_or_else(|| QrioError::UnknownJob(id.to_string()))
    }

    /// The outcome of a job that ran to completion.
    ///
    /// # Errors
    ///
    /// For a `Failed` job this returns the cluster error its cause holds
    /// (the same error the blocking `submit` would have surfaced); for a
    /// `Cancelled` job a [`QrioError::JobCancelled`]; for a job still in
    /// flight a [`QrioError::JobNotFinished`].
    pub fn outcome(&self, id: &JobId) -> Result<JobOutcome, QrioError> {
        let tracked = self.tracked(id)?;
        let status = &tracked.status;
        match (status.state, status.cause.as_deref()) {
            (JobState::Succeeded, _) => {
                let job = self
                    .cluster
                    .job(id.as_str())
                    .expect("succeeded jobs stay in the cluster store");
                Ok(JobOutcome {
                    decision: tracked
                        .decision
                        .clone()
                        .expect("succeeded jobs were scheduled"),
                    counts: job.result_counts().to_vec(),
                    achieved_fidelity: job.achieved_fidelity(),
                    logs: job.logs().to_vec(),
                })
            }
            (JobState::Cancelled, _) => Err(QrioError::JobCancelled(id.to_string())),
            // `fail_job` is the one way into `Failed`, and it records why.
            (JobState::Failed, Some(Cause::Failed(err))) => Err(err.clone().into()),
            _ => Err(QrioError::JobNotFinished(id.to_string())),
        }
    }

    /// The watch log from `cursor` onward — every [`JobEvent`] with
    /// `seq >= cursor`, in order. Pass `0` for the full history; pass the
    /// previous `last.seq + 1` (or the running event count) to resume
    /// without missing or duplicating events, Kubernetes-watch style.
    ///
    /// # Beyond-the-end cursors
    ///
    /// A cursor at or past the end of the log is **not** an error: it is
    /// clamped to the log length and yields an empty slice. `watch(len)`,
    /// `watch(len + 1)` and `watch(u64::MAX)` all return `&[]` — so a poller
    /// that resumes from `last.seq + 1` reads "no new events yet" rather
    /// than panicking when nothing happened between polls. This contract is
    /// pinned by a test and will not change to a typed error.
    pub fn watch(&self, cursor: u64) -> &[JobEvent] {
        let start = (cursor as usize).min(self.lifecycle.events.len());
        &self.lifecycle.events[start..]
    }

    // --- Admission verdicts --------------------------------------------------------------

    /// A forced admission verdict for one straggler, journaled so recovery
    /// replays the fixed-point arm of `run_until_idle` / `submit` exactly.
    /// Only a `Queued` job can be forced: any other name — one a journal made
    /// up, a job that has moved on — is a no-op that journals nothing.
    pub(super) fn force_admit(&mut self, name: &str) {
        if self.lifecycle.state(name) != Some(JobState::Queued) {
            return;
        }
        self.admit_and_bind(name, true);
        // Infallible signature: a journal failure poisons durability.
        let _ = self.journal(|| Command::ForceAdmit {
            job: name.to_string(),
        });
    }

    /// Decide admission for one queued job — the single path every
    /// service-loop admission (regular or forced, and a retry re-queued under
    /// a service model) goes through; a job that schedules joins its device's
    /// queue in [`Qrio::schedule_queued`]. With `force`, a job that would be
    /// deferred is pushed through the scheduler anyway so it reaches a
    /// recorded verdict.
    pub(super) fn admit_and_bind(&mut self, name: &str, force: bool) -> Admitted {
        let job = self
            .cluster
            .job(name)
            .expect("queued jobs exist in the cluster store");
        let feasible_now = self
            .cluster
            .nodes()
            .any(|node| node.rejection(job).is_none());
        if !feasible_now && !force {
            // Resources may free up or a cordon may lift: stay Queued unless
            // no node could ever host the job. "Ever" is the scheduler's own
            // feasibility rule asked of a pristine (idle, uncordoned) replica
            // of each node, so the Deferred/Failed split cannot drift from it.
            let could_ever = self.cluster.nodes().any(|node| {
                let pristine = Node::from_backend(node.backend().clone(), node.capacity());
                pristine.rejection(job).is_none()
            });
            if could_ever {
                return Admitted::Deferred;
            }
        }
        self.refresh_telemetry(true);
        match self.schedule_queued(name) {
            Ok(_) => Admitted::Scheduled,
            // A rejected binding is transient (schedule_queued left the job
            // Queued): report it as deferred, not failed, so the service
            // loop retries instead of mislabelling a live job.
            Err(QrioError::Cluster(ClusterError::BindingRejected { .. })) => Admitted::Deferred,
            Err(_) => Admitted::Failed,
        }
    }
}
