//! Everything that moves an admitted job: the `tick()` service cycle and its
//! fixed-point drivers, the one clock's timers under `tick()` and
//! `advance_to` — service completions among them —, the step calls, the
//! execution attempt over the control plane, and how its outcome settles
//! into success, a retry, or a terminal failure.

use qrio_cluster::{ClusterError, ScheduleDecision};
use qrio_scheduler::QrioScheduler;

use super::admission::phase_conflict;
use super::{JobOutcome, Qrio};
use crate::breaker::BreakerAction;
use crate::durability::Command;
use crate::error::QrioError;
use crate::lifecycle::{due_by, Cause, JobId, JobState, TickReport};
use crate::visualizer::JobRequest;

/// How an attempt of a bound job reaches its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// A round trip made now ([`Qrio::execute`]): the image is pulled, the
    /// `Run` sent and its verdict awaited.
    RoundTrip,
    /// The `Run` went out in this tick's dispatch pass: the image is pulled
    /// and the verdict collected.
    Sent,
    /// A service window closed: the image was pulled when service began; the
    /// `Run` is sent and its verdict awaited.
    Served,
    /// The device flapped under the job: no `Run` at all
    /// ([`Qrio::interrupt`]).
    Interrupted,
}

impl Qrio {
    // --- Service loop --------------------------------------------------------------------

    /// Run one deterministic service cycle: the clock moves by one, every
    /// timer due at the new reading fires (as under [`Qrio::advance_to`]),
    /// then
    ///
    /// 1. **Admission**: the queue drains in priority order (FIFO within a
    ///    priority; ties never depend on map iteration order). Each job is
    ///    bound via filter + meta-server ranking against fresh telemetry.
    ///    Jobs no device can host *right now* stay `Queued`; jobs no device
    ///    could *ever* host end `Failed`.
    /// 2. **Execution**, in two passes over the head of every device queue
    ///    (device-name order): the first sends each head's `Run` without
    ///    waiting, so the devices work side by side; the second collects
    ///    each verdict and settles it, in the same order, while the devices
    ///    still at work finish. Every run sent is settled before the tick
    ///    ends, and what each device runs is exactly what a run to
    ///    completion, device by device, would have run.
    ///
    /// Under a service model ([`Qrio::configure_service`]) the cycle is
    /// admission on top of `advance_to(now + 1)`: each timer fires at its own
    /// time, devices serve their queues over the model's windows instead of
    /// step 2, and one left idle by an interrupt starts its head.
    pub fn tick(&mut self) -> TickReport {
        let mut report = TickReport::default();
        let now = self.lifecycle.clock + 1;
        if self.service.is_none() {
            self.lifecycle.clock = now;
        }
        self.fire_timers(now, &mut report);
        // Admission.
        for name in self.lifecycle.pending_in_order() {
            let admitted = self.admit_and_bind(&name, false);
            admitted.file(&mut report).push(JobId::new(name));
        }
        self.serve_all();
        // Execution: the head of every device queue is the binding that
        // *should* run now — one job per device per tick, device-name order.
        // Every head's `Run` goes out first; then each verdict is collected
        // and settled in the same order. No settle sends a command or touches
        // another head's job, image or node, so the events and each agent's
        // command stream are those of one round trip after another. (Under a
        // service model nothing is planned: the devices serve by themselves.)
        let heads = self.plan_executions();
        for name in &heads {
            self.send_attempt(name);
        }
        for name in heads {
            let _ = self.make_attempt(&name, Reach::Sent);
            self.file_settled(&mut report, name);
        }
        // Fold any still-unread reports (fire-and-forget acknowledgements,
        // telemetry) into the observed table. With real worker threads these
        // may lag the commands that caused them; this is where stale
        // observations converge.
        self.control.drain();
        // Infallible signature: a journal failure poisons durability (see
        // `Qrio::durability_error`) instead of surfacing here.
        let _ = self.journal(|| Command::Tick);
        report
    }

    /// The next job to dispatch for every device, in device-name order: the
    /// head of each device queue. The observed per-node reports are not
    /// consulted — a tick collects every `Run` it sent before it ends, so no
    /// device has an unfinished run when a tick plans.
    fn plan_executions(&self) -> Vec<String> {
        let queues = self.lifecycle.device_queues.values();
        let heads = queues.filter_map(|queue| queue.front().cloned());
        heads.filter(|_| self.service.is_none()).collect()
    }

    /// Move the clock to `now` and fire every timer due by then — the whole of
    /// time for a caller that keeps its own (a simulator advancing in virtual
    /// milliseconds), where [`Qrio::tick`] moves the clock by one and then
    /// admits and executes as well. The clock has no unit of its own: backoff
    /// delays, deadlines and [`BreakerConfig::open_ticks`](crate::BreakerConfig)
    /// are in whatever unit the caller advances in. Timers fire in the order
    /// of their due time, each at that time, and within one time in the
    /// order of [`Qrio::tick`]: breakers `Open` → `HalfOpen` (device
    /// uncordoned), deadlines of `Queued` / `Retrying` jobs, elapsed
    /// backoffs re-queued, and — under a service model — the windows that
    /// closed, in device-name order. What fired comes back in the report's
    /// `probing`, `expired` and `requeued`; a re-queued job waits in the
    /// admission queue for [`Qrio::schedule`] or the next [`Qrio::tick`].
    ///
    /// Under a service model ([`Qrio::configure_service`]) a re-queued job
    /// is bound right there (`scheduled`, or `failed` when no device will
    /// take it), a device whose breaker began probing starts its head, and
    /// each closed window settles its job's attempt (`completed`, or
    /// `retried`) before the device starts the next.
    ///
    /// # Errors
    ///
    /// [`QrioError::ClockBehind`] for a `now` before [`Qrio::now`] — nothing
    /// changed — or the journal failure.
    pub fn advance_to(&mut self, now: u64) -> Result<TickReport, QrioError> {
        let clock = self.lifecycle.clock;
        if now < clock {
            return Err(QrioError::ClockBehind { now, clock });
        }
        let mut report = TickReport::default();
        self.fire_timers(now, &mut report);
        self.journal(|| Command::AdvanceTo { now })?;
        Ok(report)
    }

    /// When the earliest armed timer fires: a backoff horizon, the first
    /// reading past a deadline, an `Open` breaker's `until`, or the end of a
    /// job's service window. `None` when nothing is armed. A time at or
    /// before [`Qrio::now`] fires on the next [`Qrio::advance_to`], whatever
    /// it is given.
    pub fn next_due(&self) -> Option<u64> {
        let timers = [
            self.breakers.as_ref().and_then(|board| board.open.first()),
            self.lifecycle.deadlines.first(),
            self.lifecycle.backoffs.first(),
            self.lifecycle.completions.first(),
        ];
        timers.into_iter().flatten().map(|(at, _)| *at).min()
    }

    /// The one timer body, under [`Qrio::tick`] (which has already moved the
    /// clock to `now`, so everything due fires there) and
    /// [`Qrio::advance_to`] (which has not: the clock steps through the due
    /// times on its way to `now`).
    fn fire_timers(&mut self, now: u64, report: &mut TickReport) {
        while let Some(due) = self.next_due().filter(|due| *due <= now) {
            let at = self.lifecycle.clock.max(due);
            self.lifecycle.clock = at;
            // Circuit breakers: every Open breaker whose interval elapsed
            // moves to HalfOpen and lifts its hold on its device, for
            // probation.
            let probing = self.breakers.as_mut().map(|board| board.tick(at));
            for device in probing.unwrap_or_default() {
                self.hold_for_breaker(&device, false);
                self.serve(&device);
                report.probing.push(device);
            }
            // Deadline expiry: Queued / Retrying jobs past their deadline
            // fail with DeadlineExceeded before anything else happens — the
            // deadline dominates an elapsed backoff.
            for name in due_by(&self.lifecycle.deadlines, at) {
                self.expire_deadline(&name);
                report.expired.push(JobId::new(name));
            }
            // Retry promotion: Retrying jobs whose backoff elapsed re-enter
            // the admission queue with a fresh admission sequence — and,
            // under a service model, are bound again at once.
            let requeued = due_by(&self.lifecycle.backoffs, at);
            for name in &requeued {
                let cause = Some(Cause::BackoffElapsed);
                let tracked = self.lifecycle.record(name, JobState::Queued, None, cause);
                let priority = tracked.status.priority;
                self.lifecycle.enqueue_pending(name, priority);
                report.requeued.push(JobId::new(name));
            }
            for name in requeued {
                if self.service.is_some() {
                    let admitted = self.admit_and_bind(&name, true);
                    admitted.file(report).push(JobId::new(name));
                }
            }
            // Service windows that closed, in device-name order.
            for device in due_by(&self.lifecycle.completions, at) {
                self.complete_service(&device, report);
            }
        }
        self.lifecycle.clock = now;
        report.tick = now;
    }

    /// Terminally fail a Queued / Retrying job whose deadline passed.
    fn expire_deadline(&mut self, name: &str) {
        let tracked = self.lifecycle.jobs.get(name);
        let Some(deadline) = tracked.and_then(|tracked| tracked.deadline_at) else {
            return;
        };
        let node = tracked.and_then(|tracked| tracked.status.node.clone());
        // Neither source state holds a reservation: nothing to release.
        self.lifecycle.remove_pending(name);
        let err = ClusterError::DeadlineExceeded {
            job: name.to_string(),
            deadline,
        };
        self.fail_job(name, node, err);
    }

    /// The terminal failure of a job, whatever ended it (a blown deadline,
    /// an unschedulable request, an execution nobody will retry): `Failed`
    /// is recorded with the error as its cause — the one record of it, which
    /// [`Qrio::outcome`] returns — and the job's artifacts are
    /// garbage-collected.
    fn fail_job(&mut self, name: &str, node: Option<String>, err: ClusterError) {
        let cause = Some(Cause::Failed(err));
        self.lifecycle.record(name, JobState::Failed, node, cause);
        self.cleanup_terminal(name);
    }

    /// Tick until every enqueued job reached a terminal state. When a cycle
    /// makes no progress (jobs deferred forever — e.g. waiting on a device
    /// that stays cordoned), the stragglers are deterministically failed
    /// rather than spinning. Returns the ids of the jobs that reached a
    /// terminal state during this call, in event order.
    pub fn run_until_idle(&mut self) -> Vec<JobId> {
        let first_new_event = self.lifecycle.events.len();
        self.drive(None);
        self.lifecycle.events[first_new_event..]
            .iter()
            .filter(|event| event.to.is_terminal())
            .map(|event| event.job.clone())
            .collect()
    }

    /// Submit a job request and drive it to completion — the blocking
    /// convenience wrapper over the lifecycle API: [`Qrio::enqueue`], then
    /// [`Qrio::tick`] until *this* job is terminal, then [`Qrio::outcome`].
    ///
    /// Other queued work naturally advances while the loop runs (it shares
    /// the cluster), but only the submitted job is ever force-failed when
    /// it cannot make progress — jobs someone else enqueued are left
    /// `Queued` for their owner's service loop. A retry backoff is waited
    /// out, not cut short: ticks that only move the clock are its progress.
    ///
    /// # Errors
    ///
    /// Returns an error if any stage fails (no matching devices, execution
    /// failure, ...). The job object in the cluster records the failure too.
    pub fn submit(&mut self, request: &JobRequest) -> Result<JobOutcome, QrioError> {
        let id = self.enqueue(request)?;
        self.drive(Some(&id));
        self.outcome(&id)
    }

    /// The fixed-point driver under [`Qrio::run_until_idle`] (every job) and
    /// [`Qrio::submit`] (`own`: that job alone): tick while the scope has
    /// unsettled work, and when a cycle made no progress, force the scope's
    /// stragglers to a verdict before the next one.
    fn drive(&mut self, own: Option<&JobId>) {
        let mut force_next = false;
        while self.unsettled(own) {
            if force_next {
                // Fixed point: nothing scheduled, ran or failed last cycle.
                // Force an admission verdict for every straggler: either it
                // schedules after all, or the cluster records why it cannot.
                // (Jobs waiting out a retry backoff are not stragglers —
                // ticking the clock forward is exactly their progress.)
                for name in self.lifecycle.pending_in_order() {
                    if own.map_or(true, |id| id.as_str() == name) {
                        self.force_admit(&name);
                    }
                }
                // Nothing more can change: without a service model, what is
                // left is pending with nothing bound or backing off; with
                // one, no timer is armed — nothing is in service, so what is
                // left waits on devices that do not serve.
                let idle =
                    !self.lifecycle.has_bound_work() && !self.lifecycle.has_waiting_retries();
                let stuck = match self.service {
                    Some(_) => self.next_due().is_none(),
                    None => self.lifecycle.has_pending() && idle,
                };
                // Or the forced verdicts settled the scope: no tick is owed.
                if stuck || !self.unsettled(own) {
                    break;
                }
            }
            let report = self.tick();
            force_next = !report.made_progress();
        }
    }

    /// Whether the driver's scope still has work the service loop can move:
    /// the one job short of a terminal state, or anything queued, bound or
    /// backing off.
    fn unsettled(&self, own: Option<&JobId>) -> bool {
        match own {
            Some(id) => self
                .lifecycle
                .state(id.as_str())
                .is_some_and(|state| !state.is_terminal()),
            None => {
                self.lifecycle.has_pending()
                    || self.lifecycle.has_bound_work()
                    || self.lifecycle.has_waiting_retries()
            }
        }
    }

    // --- Lifecycle primitives (also public for virtual-time simulators) ------------------

    /// Journal a step call made on a job. An attempt on a known job mutates
    /// state even when it fails (`Failed` transitions, cluster filter and
    /// rebind events), so the command is journaled whatever the attempt
    /// returned — only unknown-job lookups (pure no-ops) are skipped.
    fn journal_attempt<T>(
        &mut self,
        result: Result<T, QrioError>,
        command: impl FnOnce() -> Command,
    ) -> Result<T, QrioError> {
        if !matches!(result, Err(QrioError::UnknownJob(_))) {
            self.journal(command)?;
        }
        result
    }

    /// Bind one `Queued` job to a device: filter the fleet, rank the
    /// survivors through the meta server, reserve resources on the winner.
    ///
    /// Unlike [`Qrio::tick`], this primitive does **not** refresh telemetry
    /// from the device queues first — it scores against whatever
    /// [`Qrio::report_telemetry`] last reported, or, under a service model,
    /// against the load the model says each device carries. A bound job joins
    /// the tail of its device's queue ([`Qrio::device_queue`]); under a
    /// service model an idle device starts it at once, otherwise
    /// [`Qrio::execute`] it yourself or let [`Qrio::tick`] reach it.
    ///
    /// # Errors
    ///
    /// Returns an error when the job is not `Queued`, or when scheduling
    /// fails. An unschedulable job ends `Failed` (terminal); a job whose
    /// binding was rejected for transient resource reasons stays `Queued`.
    pub fn schedule(&mut self, id: &JobId) -> Result<ScheduleDecision, QrioError> {
        let result = self
            .require_state(id, "schedule", JobState::Queued)
            .and_then(|()| {
                self.refresh_telemetry(false);
                self.schedule_queued(id.as_str())
            });
        self.journal_attempt(result, || Command::Schedule {
            job: id.to_string(),
        })
    }

    /// Execute one `Scheduled` job on its bound device, driving it through
    /// `Running` to `Succeeded` or `Failed`.
    ///
    /// # Errors
    ///
    /// Returns an error when the job is not `Scheduled`, or propagates the
    /// execution failure (the job then ends `Failed`).
    pub fn execute(&mut self, id: &JobId) -> Result<(), QrioError> {
        let result = self
            .require_state(id, "execute", JobState::Scheduled)
            .and_then(|()| self.make_attempt(id.as_str(), Reach::RoundTrip));
        self.journal_attempt(result, || Command::Execute {
            job: id.to_string(),
        })
    }

    /// Interrupt a job whose device died under it: a `Scheduled` job passes
    /// through `Running`, the job a device is serving (`Running`) has its
    /// window cut short, and either goes straight into a device-flap fault
    /// without the runner being invoked, then flows through its retry policy
    /// like any other failure. Virtual-time simulators call this when an
    /// outage lands on a device with a job mid-execution, so the work is
    /// visibly lost (and retried) instead of silently completing. The device
    /// does not start its next job here: cordon it, or it starts when a job
    /// next joins it, it is uncordoned or the next [`Qrio::tick`].
    ///
    /// # Errors
    ///
    /// Always errs on success: the interrupt surfaces as
    /// [`ClusterError::InjectedFault`] (wrapped). A job in any other state
    /// reports a phase conflict instead, and an id never enqueued
    /// [`QrioError::UnknownJob`].
    pub fn interrupt(&mut self, id: &JobId) -> Result<(), QrioError> {
        let result = match self.status(id) {
            Ok(JobState::Scheduled | JobState::Running) => {
                self.make_attempt(id.as_str(), Reach::Interrupted)
            }
            Ok(state) => Err(phase_conflict(id, "interrupt", state)),
            Err(err) => Err(err),
        };
        self.journal_attempt(result, || Command::Interrupt {
            job: id.to_string(),
        })
    }

    /// Re-rank a job over the nodes that can host it now, best (lowest
    /// score) first — the migration primitive: compare the fresh ranking
    /// against the job's current binding and [`Qrio::rebind`] when it
    /// improved. This is the scheduling cycle [`Qrio::schedule`] binds from,
    /// so every device it names would accept the job; what the job already
    /// holds on its current device counts as free there.
    ///
    /// # Errors
    ///
    /// An unknown id, a job-level meta-server error (e.g. the job's metadata
    /// is gone), or — when no device ranks — the reason: nothing feasible, or
    /// the error of a device that could not be scored.
    pub fn rank_ready(&self, id: &JobId) -> Result<Vec<(String, f64)>, QrioError> {
        let job = self
            .cluster
            .job(id.as_str())
            .ok_or_else(|| QrioError::UnknownJob(id.to_string()))?;
        let cycle = QrioScheduler::new(&self.meta).cycle(job, self.cluster.nodes())?;
        Ok(cycle.ranked(id.as_str())?)
    }

    /// Move a `Scheduled` (bound but not yet running) job to another device,
    /// releasing resources on the old node and reserving them on the new
    /// one. Rebinding a `Scheduled` job onto its current device is a no-op.
    /// The job stays `Scheduled`; the move is recorded in the watch log.
    ///
    /// # Errors
    ///
    /// [`ClusterError::PhaseConflict`] (wrapped) for a job that is not
    /// `Scheduled`, whatever the target: the job a device is serving holds a
    /// reservation like a waiting one, so its state is what refuses it.
    /// [`QrioError::UnknownJob`] for an id never enqueued, and the cluster's
    /// errors for an unknown or full target. The original binding survives
    /// every error, and no watch event is recorded.
    pub fn rebind(&mut self, id: &JobId, target: &str) -> Result<(), QrioError> {
        let result = self.move_binding(id, target);
        self.journal_attempt(result, || Command::Rebind {
            job: id.to_string(),
            target: target.to_string(),
        })
    }

    /// The move itself; [`Qrio::rebind`] journals the attempt whatever this
    /// returned.
    pub(super) fn move_binding(&mut self, id: &JobId, target: &str) -> Result<(), QrioError> {
        self.require_state(id, "rebind", JobState::Scheduled)?;
        let from = self.job_status(id)?.node.clone().unwrap_or_default();
        if from == target {
            return Ok(());
        }
        self.cluster.rebind_job(id.as_str(), target)?;
        // The job leaves its old device's queue and joins the tail of the
        // new one.
        self.lifecycle.leave_device_queue(id.as_str());
        self.lifecycle.join_device_queue(target, id.as_str());
        // The stored decision must follow the job: outcome() reports the
        // device that will actually run it. The candidate list keeps
        // documenting the original scheduling cycle; the score moves with
        // the node when that cycle ranked the target. A forced migration
        // outside the original ranking has no comparable score — infinity
        // marks it (sorting last under lower-is-better) without poisoning
        // the derived `PartialEq` the way NaN would.
        if let Some(decision) = self
            .lifecycle
            .jobs
            .get_mut(id.as_str())
            .and_then(|tracked| tracked.decision.as_mut())
        {
            decision.node = target.to_string();
            decision.score = decision
                .candidates
                .iter()
                .find(|(name, _)| name == target)
                .map_or(f64::INFINITY, |(_, score)| *score);
        }
        let to = target.to_string();
        let cause = Cause::Rebound {
            from,
            to: to.clone(),
        };
        self.lifecycle
            .record(id.as_str(), JobState::Scheduled, Some(to), Some(cause));
        self.serve(target);
        Ok(())
    }

    /// Schedule a job known to be `Queued`: run the scheduling cycle, hand
    /// what it found to the cluster to bind, and update lifecycle state — the
    /// one place a binding is recorded, so the one place a job joins its
    /// device's queue ([`Qrio::tick`] admission, the forced verdict, a retry
    /// re-queued under a service model and [`Qrio::schedule`] all bind
    /// here).
    pub(super) fn schedule_queued(&mut self, name: &str) -> Result<ScheduleDecision, QrioError> {
        let job = self
            .cluster
            .job(name)
            .ok_or_else(|| QrioError::UnknownJob(name.to_string()))?;
        let bound = match QrioScheduler::new(&self.meta).cycle(job, self.cluster.nodes()) {
            Ok(cycle) => {
                let skipped: Vec<(String, String)> = cycle
                    .skipped
                    .into_iter()
                    .map(|(device, err)| (device, err.to_string()))
                    .collect();
                self.cluster
                    .bind_job(name, cycle.ranking, cycle.rejected, skipped)
            }
            // Job-level: no device was at fault, so none is blamed.
            Err(err) => Err(ClusterError::Unschedulable {
                job: name.to_string(),
                reason: err.to_string(),
            }),
        };
        match bound {
            Ok(decision) => {
                self.lifecycle.remove_pending(name);
                self.lifecycle.join_device_queue(&decision.node, name);
                let node = Some(decision.node.clone());
                self.lifecycle
                    .record(name, JobState::Scheduled, node, None)
                    .decision = Some(decision.clone());
                self.serve(&decision.node);
                Ok(decision)
            }
            Err(err @ ClusterError::BindingRejected { .. }) => {
                // Transient: the resources were claimed during scoring. The
                // job stays Queued and may be rescheduled later.
                Err(err.into())
            }
            Err(err) => {
                self.lifecycle.remove_pending(name);
                self.fail_job(name, None, err.clone());
                Err(err.into())
            }
        }
    }

    // --- Execution -----------------------------------------------------------------------

    /// One attempt of a job known to be `Scheduled`: enter `Running`, make
    /// the attempt, settle what it returned. The attempt is an execution on
    /// the node's agent — a round trip now, or the collection of the `Run`
    /// this tick's dispatch pass sent — or, when [`Reach::Interrupted`], the
    /// device flap that kept it from happening, or cut it short for the job
    /// a device is serving, whose window closes now. The attempt number
    /// passed to the cluster makes injected-fault decisions attempt-aware, so
    /// a retried job can draw a different verdict than its first run.
    fn make_attempt(&mut self, name: &str, reach: Reach) -> Result<(), QrioError> {
        let (node, attempt) = self.binding(name);
        if self.lifecycle.state(name) == Some(JobState::Running) {
            self.lifecycle
                .end_service(node.as_deref().unwrap_or_default());
        } else {
            self.lifecycle
                .record(name, JobState::Running, node.clone(), None);
        }
        let result = self.dispatch(name, attempt, reach);
        self.settle_execution(name, node, attempt, result)
    }

    /// The dispatch pass of a tick's execution step: describe the attempt of
    /// `name` from what the cluster lends out — no pull, no event — and send
    /// its `Run` without waiting for the verdict. An attempt `prepare_run`
    /// will refuse (the image or the node is gone) is not sent: it fails in
    /// the collect pass before anything reaches a device, as it would in a
    /// round trip.
    fn send_attempt(&mut self, name: &str) {
        let attempt = self.lifecycle.jobs.get(name).map_or(0, |job| job.attempt);
        let Ok((order, spec)) = self.cluster.lend_run(name, attempt) else {
            return;
        };
        if self.cluster.node(&order.node).is_some() {
            let now = self.lifecycle.clock;
            self.control.send_run(&order, spec, now);
        }
    }

    /// Where a job is bound and how many attempts it has consumed.
    fn binding(&self, name: &str) -> (Option<String>, u32) {
        let tracked = self.lifecycle.jobs.get(name);
        let node = tracked.and_then(|tracked| tracked.status.node.clone());
        (node, tracked.map_or(0, |tracked| tracked.attempt))
    }

    /// Under a service model, start the head of `device`'s queue when the
    /// device is idle and in service: the job enters `Running` now, its
    /// image is pulled ([`Cluster::prepare_run`](qrio_cluster::Cluster::prepare_run)),
    /// and it stays at the head of the queue until its window closes
    /// ([`Qrio::advance_to`]) or it is interrupted.
    pub(super) fn serve(&mut self, device: &str) {
        let Some(model) = &self.service else {
            return;
        };
        if self.lifecycle.serving.contains_key(device) || self.out_of_service(device) {
            return;
        }
        let queue = self.lifecycle.device_queues.get(device);
        let Some(name) = queue.and_then(|queue| queue.front()).cloned() else {
            return;
        };
        let shots = self.cluster.job(&name).map_or(1, |job| job.spec().shots);
        let window = model.window(device, shots);
        let until = self.lifecycle.clock.saturating_add(window);
        let (node, attempt) = self.binding(&name);
        self.lifecycle
            .record(&name, JobState::Running, node.clone(), None);
        match self.cluster.prepare_run(&name, attempt).map(|_| ()) {
            Ok(()) => self.lifecycle.begin_service(device, until),
            // The image or the node is gone: the attempt fails now, and the
            // next head gets its turn.
            Err(err) => {
                let _ = self.settle_execution(&name, node, attempt, Err(err));
                self.serve(device);
            }
        }
    }

    /// `device`'s service window closed: its job is dispatched to the node's
    /// agent and settled now — so a drift during the window still degrades
    /// it — and the device serves its next head.
    fn complete_service(&mut self, device: &str, report: &mut TickReport) {
        let Some(name) = self.lifecycle.end_service(device) else {
            return;
        };
        let (node, attempt) = self.binding(&name);
        let result = self.dispatch(&name, attempt, Reach::Served);
        let _ = self.settle_execution(&name, node, attempt, result);
        self.file_settled(report, name);
        self.serve(device);
    }

    /// Put a job whose attempt just settled in the report: `retried` when it
    /// backs off, `completed` otherwise.
    fn file_settled(&self, report: &mut TickReport, name: String) {
        let bucket = match self.lifecycle.state(&name) {
            Some(JobState::Retrying) => &mut report.retried,
            _ => &mut report.completed,
        };
        bucket.push(JobId::new(name));
    }

    /// [`Qrio::serve`] every device with a queue.
    pub(super) fn serve_all(&mut self) {
        let devices: Vec<String> = self.lifecycle.device_queues.keys().cloned().collect();
        devices.iter().for_each(|device| self.serve(device));
    }

    /// One execution attempt over the control plane: start it in the
    /// cluster (image pull) unless that happened when its service began, get
    /// the verdict of the node's agent — sending the `Run` now, described
    /// from the spec the cluster lends out, unless the dispatch pass already
    /// did — and settle it back into the cluster. The agent holds the fault-plan replica, so injected-fault
    /// verdicts are drawn device-side from the same pure decision function.
    /// An interrupt settles a device flap with no agent in between.
    ///
    /// A transport failure comes back as a failed verdict and is settled like
    /// any other.
    fn dispatch(&mut self, name: &str, attempt: u32, reach: Reach) -> Result<(), ClusterError> {
        let (order, spec) = match reach {
            Reach::Interrupted => return self.cluster.interrupt_job(name, attempt),
            Reach::Served => self.cluster.lend_run(name, attempt)?,
            Reach::RoundTrip | Reach::Sent => self.cluster.prepare_run(name, attempt)?,
        };
        let verdict = match reach {
            Reach::Sent => self.control.await_phase(&order),
            _ => self.control.run(&order, spec, self.lifecycle.clock),
        };
        self.cluster.settle_run(&order, verdict)
    }

    /// The end of an attempt, however it was made: the job leaves its
    /// device's queue and gives up its reservation (`settle_run` released it
    /// already, unless the attempt never reached the device because its
    /// image or node was gone), and the outcome of its `attempt` feeds the
    /// device's circuit breaker, then either records success, enters
    /// `Retrying` with a backoff horizon, or fails terminally (routing
    /// exhausted retry policies to the dead-letter queue). Under a service
    /// model, a device out of service now — its breaker tripped on this very
    /// attempt — has its waiting jobs flee.
    fn settle_execution(
        &mut self,
        name: &str,
        node: Option<String>,
        attempt: u32,
        result: Result<(), ClusterError>,
    ) -> Result<(), QrioError> {
        self.lifecycle.leave_device_queue(name);
        let _ = self.cluster.release_job(name);
        let (now, consumed, device) = (self.lifecycle.clock, attempt + 1, node.clone());
        // Every outcome on a device feeds its breaker; a trip holds the
        // device out of service so the scheduler steers around it.
        if let (Some(board), Some(device)) = (self.breakers.as_mut(), node.as_deref()) {
            if let Some(action) = board.record_outcome(device, result.is_err(), now) {
                self.hold_for_breaker(device, action == BreakerAction::Cordon);
            }
        }
        if let Some(tracked) = self.lifecycle.jobs.get_mut(name) {
            tracked.attempt = consumed;
        }
        let Err(err) = result else {
            self.lifecycle.record(name, JobState::Succeeded, node, None);
            self.flee(device);
            return Ok(());
        };
        let policy = self.cluster.job(name).and_then(|job| job.spec().retry);
        let retry =
            policy.filter(|policy| consumed < policy.max_attempts && policy.retry_on.matches(&err));
        let outcome = QrioError::from(err.clone());
        if let Some(policy) = retry {
            // Backoff is a pure function of (seed, job, attempt) —
            // byte-identical on journal replay. At least one tick so
            // the job never re-queues within the same cycle.
            let delay = policy
                .backoff
                .delay(self.runner.seed, name, consumed)
                .max(1);
            let cause = Cause::Attempt {
                n: consumed,
                error: err,
                backoff: delay,
            };
            self.lifecycle
                .record(name, JobState::Retrying, node, Some(cause))
                .not_before = now + delay;
            self.lifecycle
                .backoffs
                .insert((now + delay, name.to_string()));
        } else {
            // A job that consumed every allowed attempt is a dead
            // letter; one that failed on a non-retryable class (or
            // had no policy) is a plain failure.
            if policy.is_some_and(|policy| consumed >= policy.max_attempts) {
                self.lifecycle.dead_letters.push(name.to_string());
            }
            self.fail_job(name, node, err);
        }
        self.flee(device);
        Err(outcome)
    }

    /// Garbage-collect the artifacts of a job that reached a terminal
    /// failure or cancellation: its metadata leaves the meta server and its
    /// image leaves the registry (unless another live job still references
    /// the same image). The cluster's job record — spec, logs — survives for
    /// [`Qrio::job_logs`], and the lifecycle's for [`Qrio::job_status`].
    pub(super) fn cleanup_terminal(&mut self, name: &str) {
        self.meta.remove_job_metadata(name);
        if let Some(image) = self.cluster.job(name).map(|job| job.spec().image.clone()) {
            self.remove_image_if_unreferenced(&image, name);
        }
    }

    /// Remove `image` from the registry unless a different job short of a
    /// terminal state still references it.
    pub(super) fn remove_image_if_unreferenced(&mut self, image: &str, except_job: &str) {
        let live = |name: &str| self.lifecycle.state(name).is_some_and(|s| !s.is_terminal());
        let referenced = self
            .cluster
            .jobs()
            .any(|job| job.name() != except_job && job.spec().image == image && live(job.name()));
        if !referenced {
            self.cluster.remove_image(image);
        }
    }
}

#[cfg(test)]
mod tests {
    //! An attempt that never reached its device — its image or its node gone
    //! — still ends with the job's reservation released.

    use qrio_backend::{topology, Backend};
    use qrio_circuit::library;
    use qrio_cluster::Resources;
    use qrio_meta::FidelityRankingConfig;

    use super::Qrio;
    use crate::lifecycle::{JobId, JobState, ServiceModel};
    use crate::visualizer::JobRequestBuilder;

    /// Two devices and one job, bound by hand so it waits for the next tick
    /// — or, under a service `model`, is in service at once.
    fn bound(model: Option<ServiceModel>) -> (Qrio, JobId) {
        let config = FidelityRankingConfig {
            shots: 32,
            seed: 3,
            shortfall_weight: 100.0,
        };
        let mut qrio = Qrio::with_config(config, 3);
        for (name, error) in [("clean", 0.01), ("noisy", 0.2)] {
            let backend = Backend::uniform(name, topology::line(4), 0.001, error);
            qrio.add_device(backend).unwrap();
        }
        qrio.configure_service(model).unwrap();
        let request = JobRequestBuilder::new()
            .with_circuit(&library::ghz(3).unwrap())
            .job_name("stranded")
            .min_queue()
            .shots(16)
            .build()
            .unwrap();
        let id = qrio.enqueue(&request).unwrap();
        qrio.schedule(&id).unwrap();
        (qrio, id)
    }

    fn remove_image(qrio: &mut Qrio, id: &JobId) {
        let image = qrio.cluster.job(id.as_str()).unwrap().spec().image.clone();
        assert!(qrio.cluster.remove_image(&image));
    }

    fn assert_released(qrio: &Qrio, id: &JobId) {
        assert_eq!(qrio.status(id).unwrap(), JobState::Failed);
        assert_eq!(qrio.cluster.job(id.as_str()).unwrap().node(), None);
        for node in qrio.cluster.nodes() {
            assert_eq!(node.allocated(), Resources::default(), "{}", node.name());
        }
    }

    #[test]
    fn a_tick_whose_head_lost_its_image_releases_the_reservation() {
        let (mut qrio, id) = bound(None);
        remove_image(&mut qrio, &id);
        qrio.tick();
        assert_released(&qrio, &id);
    }

    #[test]
    fn a_tick_whose_head_lost_its_node_releases_the_reservation() {
        let (mut qrio, id) = bound(None);
        let node = qrio.job_status(&id).unwrap().node.clone().unwrap();
        qrio.cluster.remove_node(&node).unwrap();
        qrio.tick();
        assert_released(&qrio, &id);
        assert!(qrio.device_queue(&node).next().is_none());
    }

    #[test]
    fn a_window_that_closes_on_a_lost_image_releases_the_reservation() {
        let model = ServiceModel {
            base_us: 1_000,
            per_shot_us: 0,
            speeds: Default::default(),
        };
        let (mut qrio, id) = bound(Some(model));
        assert_eq!(qrio.status(&id).unwrap(), JobState::Running);
        remove_image(&mut qrio, &id);
        let due = qrio.next_due().unwrap();
        qrio.advance_to(due).unwrap();
        assert_released(&qrio, &id);
    }
}
