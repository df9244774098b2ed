//! The typed job lifecycle: ids, states, watch events and per-job status.
//!
//! The paper's QRIO workflow (§3.2–3.3) is asynchronous — a user submits a
//! job through the visualizer, the job is containerized and queued, the
//! scheduler binds it to a device later, and the user comes back to check
//! logs. This module gives that workflow a typed surface: every job is
//! identified by a [`JobId`], advances through the [`JobState`] machine
//!
//! ```text
//! Submitted → Queued → Scheduled → Running → Succeeded
//!                ↑  │       │          │ └──────→ Failed
//!                │  │       └→ Cancelled
//!                │  └→ Failed / Cancelled
//!                └─ Retrying ←─ Running   (backoff, then re-admission)
//!                       └→ Failed / Cancelled
//! ```
//!
//! and every transition is appended to a Kubernetes-style watch log of
//! [`JobEvent`]s carrying the virtual timestamp, the node involved and the
//! transition's typed [`Cause`]. [`crate::Qrio`] owns the store; this module
//! owns the types and the bookkeeping invariants.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use qrio_bytes::{
    codec_enum, codec_struct, ByteReader, ByteWriter, CodecError, Decode, Encode, Wide32,
};
use qrio_cluster::{ClusterError, ScheduleDecision};

/// The identity of one enqueued job — returned by [`crate::Qrio::enqueue`]
/// and accepted by every lifecycle query ([`crate::Qrio::status`],
/// [`crate::Qrio::outcome`], [`crate::Qrio::cancel`], ...).
///
/// A `JobId` wraps the unique job name from the request, so deterministic
/// callers (tests, simulators) can also reconstruct one with [`JobId::new`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[must_use = "a JobId is the only handle to the enqueued job's lifecycle"]
pub struct JobId(String);

/// A job id travels as the job's name.
impl Encode for JobId {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.0);
    }
}

impl Decode for JobId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.take_str().map(JobId)
    }
}

impl JobId {
    /// The id of the job with the given (unique) name.
    pub fn new(name: impl Into<String>) -> Self {
        JobId(name.into())
    }

    /// The underlying job name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for JobId {
    fn from(name: &str) -> Self {
        JobId::new(name)
    }
}

impl From<String> for JobId {
    fn from(name: String) -> Self {
        JobId(name)
    }
}

/// One state of the job lifecycle.
///
/// States are flat (no payload) so they can be compared, stored in
/// transition histories and checked against the legality table
/// ([`JobState::can_transition_to`]); the node and cause of the current
/// state live in [`JobStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobState {
    /// Metadata uploaded and the job containerized; not yet admitted.
    Submitted,
    /// Waiting in the admission queue for a scheduling cycle.
    Queued,
    /// Bound to a device, waiting for its turn on that device's queue.
    Scheduled,
    /// Executing on its device.
    Running,
    /// A retryable failure is waiting out its backoff before re-admission.
    Retrying,
    /// Finished successfully; results and logs are available.
    Succeeded,
    /// Reached a terminal failure (unschedulable, execution error, ...).
    Failed,
    /// Cancelled by the user before it started running.
    Cancelled,
}

codec_enum!(JobState {
    0 => Submitted,
    1 => Queued,
    2 => Scheduled,
    3 => Running,
    4 => Succeeded,
    5 => Failed,
    6 => Cancelled,
    7 => Retrying,
});

impl JobState {
    /// Every state, in lifecycle order.
    pub const ALL: [JobState; 8] = [
        JobState::Submitted,
        JobState::Queued,
        JobState::Scheduled,
        JobState::Running,
        JobState::Retrying,
        JobState::Succeeded,
        JobState::Failed,
        JobState::Cancelled,
    ];

    /// Whether the state is terminal (no further transitions are legal).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Succeeded | JobState::Failed | JobState::Cancelled
        )
    }

    /// The legality table of the state machine: whether a transition from
    /// `self` to `next` may ever be observed.
    ///
    /// `Scheduled → Scheduled` is the rebinding arc (a waiting job migrates
    /// to another device after calibration drift or an outage).
    /// `Running → Retrying → Queued` is the retry arc: a retryable failure
    /// waits out its backoff in `Retrying`, then re-enters the admission
    /// queue. A job in `Retrying` may still be cancelled, or fail outright
    /// when its deadline expires mid-backoff.
    pub fn can_transition_to(self, next: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, next),
            (Submitted, Queued)
                | (Queued, Scheduled)
                | (Queued, Failed)
                | (Queued, Cancelled)
                | (Scheduled, Scheduled)
                | (Scheduled, Running)
                | (Scheduled, Cancelled)
                | (Running, Succeeded)
                | (Running, Failed)
                | (Running, Retrying)
                | (Retrying, Queued)
                | (Retrying, Failed)
                | (Retrying, Cancelled)
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The states are plain identifiers, so Debug and Display coincide.
        write!(f, "{self:?}")
    }
}

/// Why a job transitioned: what a cloud user reads to learn why it waited,
/// moved or failed. Its `Display` is the reason text the watch log shows.
#[derive(Debug, Clone, PartialEq)]
pub enum Cause {
    /// The job failed for good, with this error — the one
    /// [`crate::Qrio::outcome`] returns.
    Failed(ClusterError),
    /// Attempt `n` failed with `error` and the job's retry policy backs it
    /// off for `backoff` clock units before it re-queues.
    Attempt {
        /// The attempt that failed (1 for the first run).
        n: u32,
        /// What ended it.
        error: ClusterError,
        /// How long the job waits in `Retrying`.
        backoff: u64,
    },
    /// The backoff elapsed: the job is back in the admission queue.
    BackoffElapsed,
    /// The user cancelled the job.
    Cancelled,
    /// The job moved from the device `from` to the device `to`.
    Rebound {
        /// The device the job was bound to.
        from: String,
        /// The device it is bound to now.
        to: String,
    },
}

codec_enum!(Cause {
    0 => Failed(error),
    1 => Attempt { n, error, backoff },
    2 => BackoffElapsed,
    3 => Cancelled,
    4 => Rebound { from, to },
});

impl Cause {
    /// The error a failure or a failed attempt carries.
    pub fn error(&self) -> Option<&ClusterError> {
        match self {
            Cause::Failed(error) | Cause::Attempt { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cause::Failed(error) => write!(f, "cluster error: {error}"),
            Cause::Attempt { n, error, backoff } => write!(
                f,
                "attempt {n} failed: cluster error: {error}; backing off {backoff} ticks"
            ),
            Cause::BackoffElapsed => f.write_str("backoff elapsed; re-queued for retry"),
            Cause::Cancelled => f.write_str("cancelled by user"),
            Cause::Rebound { from, to } => write!(f, "rebound from '{from}' to '{to}'"),
        }
    }
}

/// One entry of the watch log: a job transitioned between states at a
/// virtual timestamp, possibly bound to a node and carrying a cause.
///
/// Events are totally ordered by `seq` (their index in the log), so
/// [`crate::Qrio::watch`] resumes from any cursor without missing or
/// duplicating entries — the resourceVersion idiom of a Kubernetes watch.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEvent {
    /// Position of the event in the log (0-based, dense).
    pub seq: u64,
    /// Virtual timestamp: what [`crate::Qrio::now`] read when the transition
    /// happened (`0` before the clock first moved).
    pub at: u64,
    /// The job that transitioned.
    pub job: JobId,
    /// State before the transition; `None` for the initial `Submitted` event.
    pub from: Option<JobState>,
    /// State after the transition.
    pub to: JobState,
    /// Node involved (bound, executing, or previously bound), when any.
    pub node: Option<String>,
    /// Why the transition happened (a failure, a retry's backoff, a
    /// cancellation, a move); `None` for unremarkable progress. Boxed, so an
    /// event without one costs a pointer.
    pub cause: Option<Box<Cause>>,
}

codec_struct!(JobEvent {
    seq,
    at,
    job,
    from,
    to,
    node,
    cause,
});

/// A point-in-time snapshot of one job's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Current state.
    pub state: JobState,
    /// Device the job is (or was last) bound to, when any.
    pub node: Option<String>,
    /// Cause of the latest transition, when any: for a `Failed` job, the
    /// error that failed it.
    pub cause: Option<Box<Cause>>,
    /// Scheduling priority from the request (higher is more urgent).
    pub priority: u8,
    /// Every state the job has entered, with its virtual timestamp.
    pub history: Vec<(u64, JobState)>,
}

codec_struct!(JobStatus {
    state,
    node,
    cause,
    priority,
    history,
});

/// What one [`crate::Qrio::tick`] service cycle did, or — the timer fields
/// alone — what one [`crate::Qrio::advance_to`] fired.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickReport {
    /// The clock after the call.
    pub tick: u64,
    /// Devices whose `Open` breaker's interval elapsed: now `HalfOpen` and
    /// uncordoned for probation.
    pub probing: Vec<String>,
    /// Jobs whose retry backoff elapsed: `Retrying` → `Queued`, back in the
    /// admission queue.
    pub requeued: Vec<JobId>,
    /// Jobs admitted and bound to a device this cycle.
    pub scheduled: Vec<JobId>,
    /// Jobs left in the admission queue because no device can host them
    /// *right now* (busy resources, cordoned nodes) but one may later.
    pub deferred: Vec<JobId>,
    /// Jobs that reached `Failed` during admission (no device can ever host
    /// them, or every candidate failed scoring).
    pub failed: Vec<JobId>,
    /// Jobs executed to a terminal state this cycle (one per device).
    pub completed: Vec<JobId>,
    /// Jobs whose execution failed retryably this cycle: they entered
    /// `Retrying` and will re-queue once their backoff elapses.
    pub retried: Vec<JobId>,
    /// Jobs that blew their deadline this cycle and failed with
    /// `DeadlineExceeded` (from `Queued` or mid-backoff in `Retrying`).
    pub expired: Vec<JobId>,
}

impl TickReport {
    /// Whether the cycle changed any job's state. A report of only deferred
    /// jobs means the loop is at a fixed point: without external changes
    /// (completions freeing resources happen *within* a tick) another tick
    /// would do exactly the same. `probing` and `requeued` do not count: a
    /// re-queued job is this same cycle's `scheduled`, `deferred` or `failed`.
    pub fn made_progress(&self) -> bool {
        !(self.scheduled.is_empty()
            && self.failed.is_empty()
            && self.completed.is_empty()
            && self.retried.is_empty()
            && self.expired.is_empty())
    }

    /// Whether the cycle found nothing at all to do.
    pub fn is_idle(&self) -> bool {
        !self.made_progress() && self.deferred.is_empty()
    }
}

/// Internal per-job record: the public status (whose cause holds a failed
/// job's error) plus the scheduling decision `outcome()` reports.
#[derive(Debug, Clone)]
pub(crate) struct Tracked {
    pub(crate) status: JobStatus,
    pub(crate) decision: Option<ScheduleDecision>,
    /// Execution attempts already consumed (0 before the first run).
    pub(crate) attempt: u32,
    /// Earliest clock reading at which a `Retrying` job may re-queue (its
    /// backoff horizon, in the unit the caller advances the clock in);
    /// meaningless outside `Retrying`.
    pub(crate) not_before: u64,
    /// Absolute virtual-time deadline (`admission clock + spec.deadline`),
    /// when the request carried one.
    pub(crate) deadline_at: Option<u64>,
}

impl Tracked {
    /// When the job expires if it stays in `state`: the first clock reading
    /// past its deadline, for a job that has one and waits (for the scheduler
    /// or for its backoff).
    fn expiry(&self, state: JobState) -> Option<u64> {
        let waits = matches!(state, JobState::Queued | JobState::Retrying);
        let deadline = self.deadline_at.filter(|_| waits);
        deadline.and_then(|at| at.checked_add(1))
    }
}

codec_struct!(Tracked {
    status,
    decision,
    attempt as Wide32,
    not_before,
    deadline_at,
});

/// How long a device serves a job, in the unit the clock is advanced in
/// (virtual milliseconds under a simulator): `base_us + shots × per_shot_us`
/// virtual microseconds at speed 1.0, divided by the device's speed, rounded
/// up to whole milliseconds and never under one. Installed with
/// [`crate::Qrio::configure_service`]; without one a job runs the instant it
/// is executed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceModel {
    /// Fixed per-job overhead, in virtual µs at speed 1.0.
    pub base_us: u64,
    /// Additional time per shot, in virtual µs at speed 1.0.
    pub per_shot_us: u64,
    /// Each device's speed divisor, positive; a device without an entry runs
    /// at 1.0.
    pub speeds: BTreeMap<String, f64>,
}

codec_struct!(ServiceModel {
    base_us,
    per_shot_us,
    speeds
});

impl ServiceModel {
    /// How long `device` serves a job of `shots` shots.
    pub fn window(&self, device: &str, shots: u64) -> u64 {
        let speed = self.speeds.get(device).copied().unwrap_or(1.0);
        let per_shot = shots.saturating_mul(self.per_shot_us);
        let service_us = self.base_us.saturating_add(per_shot);
        ((service_us as f64 / speed / 1000.0).ceil() as u64).max(1)
    }
}

/// The armed timers of one kind as sorted `(firing time, name)` pairs: the
/// earliest is the first entry and what is due is a prefix, so neither firing
/// timers nor [`crate::Qrio::next_due`] walks the jobs or the fleet. Derived
/// state — never encoded, rebuilt on decode from the records it indexes.
pub(crate) type DueIndex = BTreeSet<(u64, String)>;

/// Whose timer fires at or before `now`, in name order (the order the scans
/// this index replaced produced, which every journal holds).
pub(crate) fn due_by(index: &DueIndex, now: u64) -> Vec<String> {
    let due = index.iter().take_while(|(at, _)| *at <= now);
    let mut names: Vec<String> = due.map(|(_, name)| name.clone()).collect();
    names.sort_unstable();
    names
}

/// The lifecycle store owned by [`crate::Qrio`]: job records, the watch log,
/// the admission queue, the per-device execution queues and what each device
/// is serving.
#[derive(Debug, Clone, Default)]
pub(crate) struct LifecycleStore {
    /// The one virtual clock: [`crate::Qrio::tick`] moves it by one,
    /// [`crate::Qrio::advance_to`] to wherever its caller's time stands.
    pub(crate) clock: u64,
    /// The watch log, append-only; `seq` equals the index.
    pub(crate) events: Vec<JobEvent>,
    /// Per-job records, keyed by job name (sorted, so bulk listings are
    /// deterministic).
    pub(crate) jobs: BTreeMap<String, Tracked>,
    /// Monotonic admission sequence: the FIFO tie-break within a priority.
    /// `pub(crate)` so durability snapshots can persist and restore it.
    pub(crate) admit_seq: u64,
    /// Admission queue entries `(priority, admit_seq, job name)`, kept
    /// sorted in draining order (priority descending, sequence ascending)
    /// on insert, so every tick reads it without re-sorting. `pub(crate)`
    /// for durability snapshots.
    pub(crate) pending: Vec<(u8, u64, String)>,
    /// Bound jobs waiting for their device, FIFO per device: a job is
    /// `Scheduled` if and only if its name is exactly once in here, in the
    /// queue of its `status.node`, and a job in service stays at the head of
    /// its device's queue until its attempt settles. A queue that empties is
    /// removed.
    pub(crate) device_queues: BTreeMap<String, VecDeque<String>>,
    /// Dead-letter queue: names of jobs whose retry policy was exhausted,
    /// in the order they were routed here. `pub(crate)` for durability
    /// snapshots.
    pub(crate) dead_letters: Vec<String>,
    /// When each `Retrying` job's backoff elapses (its `not_before`): armed
    /// by the retry decision, disarmed by [`LifecycleStore::record`].
    pub(crate) backoffs: DueIndex,
    /// When each `Queued` / `Retrying` job under a deadline expires
    /// (`deadline_at + 1`: the first reading past it).
    pub(crate) deadlines: DueIndex,
    /// The devices serving the head of their queue (it is `Running`), with
    /// its window: `(since, until)`.
    pub(crate) serving: BTreeMap<String, (u64, u64)>,
    /// What each device has served so far: the windows that closed, in
    /// full, and the interrupted ones up to the interrupt.
    pub(crate) busy: BTreeMap<String, u64>,
    /// When each device's job in service completes (its `until`).
    pub(crate) completions: DueIndex,
}

impl Encode for LifecycleStore {
    fn encode(&self, w: &mut ByteWriter) {
        self.clock.encode(w);
        self.events.encode(w);
        self.jobs.encode(w);
        self.admit_seq.encode(w);
        self.pending.encode(w);
        self.device_queues.encode(w);
        self.dead_letters.encode(w);
        self.serving.encode(w);
        self.busy.encode(w);
    }
}

impl Decode for LifecycleStore {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut store = LifecycleStore {
            clock: Decode::decode(r)?,
            events: Decode::decode(r)?,
            jobs: Decode::decode(r)?,
            admit_seq: Decode::decode(r)?,
            pending: Decode::decode(r)?,
            device_queues: Decode::decode(r)?,
            dead_letters: Decode::decode(r)?,
            backoffs: DueIndex::default(),
            deadlines: DueIndex::default(),
            serving: Decode::decode(r)?,
            busy: Decode::decode(r)?,
            completions: DueIndex::default(),
        };
        for (device, (_, until)) in &store.serving {
            store.completions.insert((*until, device.clone()));
        }
        for (name, tracked) in &store.jobs {
            if tracked.status.state == JobState::Retrying {
                store.backoffs.insert((tracked.not_before, name.clone()));
            }
            if let Some(expiry) = tracked.expiry(tracked.status.state) {
                store.deadlines.insert((expiry, name.clone()));
            }
        }
        Ok(store)
    }
}

impl LifecycleStore {
    /// Register a freshly-submitted job and admit it to the queue, emitting
    /// the `Submitted` and `Queued` events. A request deadline is anchored
    /// to the admission clock: `deadline_at = clock + deadline`.
    pub(crate) fn admit_new(&mut self, name: &str, priority: u8, deadline: Option<u64>) {
        self.jobs.insert(
            name.to_string(),
            Tracked {
                status: JobStatus {
                    state: JobState::Submitted,
                    node: None,
                    cause: None,
                    priority,
                    history: Vec::new(),
                },
                decision: None,
                attempt: 0,
                not_before: 0,
                deadline_at: deadline.map(|d| self.clock.saturating_add(d)),
            },
        );
        self.record(name, JobState::Submitted, None, None);
        self.record(name, JobState::Queued, None, None);
        self.enqueue_pending(name, priority);
    }

    /// Insert a job into the admission queue at its draining position with a
    /// fresh admission sequence. Equal-priority jobs append (their sequence
    /// is the largest so far), so the common case is O(1); a higher-priority
    /// job shifts past the lower-priority tail. Used both at first admission
    /// and when a `Retrying` job re-queues after its backoff.
    pub(crate) fn enqueue_pending(&mut self, name: &str, priority: u8) {
        let seq = self.admit_seq;
        self.admit_seq += 1;
        let key = (std::cmp::Reverse(priority), seq);
        let position = self
            .pending
            .partition_point(|(p, s, _)| (std::cmp::Reverse(*p), *s) < key);
        self.pending
            .insert(position, (priority, seq, name.to_string()));
    }

    /// Append a transition to the watch log and fold it into the job's
    /// status. The caller guarantees legality (debug-asserted here) and gets
    /// the job's record back, to attach what the transition produced (the
    /// decision, the backoff horizon).
    pub(crate) fn record(
        &mut self,
        name: &str,
        to: JobState,
        node: Option<String>,
        cause: Option<Cause>,
    ) -> &mut Tracked {
        let tracked = self.jobs.get_mut(name).expect("recorded jobs are tracked");
        let from = tracked.status.history.last().map(|(_, state)| *state);
        debug_assert!(
            from.map_or(true, |from| from.can_transition_to(to)),
            "illegal transition {from:?} -> {to:?} for job '{name}'"
        );
        // The due-indexes follow the job in and out of the states they index.
        if from == Some(JobState::Retrying) {
            self.backoffs
                .remove(&(tracked.not_before, name.to_string()));
        }
        match (
            from.and_then(|from| tracked.expiry(from)),
            tracked.expiry(to),
        ) {
            (None, Some(expiry)) => self.deadlines.insert((expiry, name.to_string())),
            (Some(expiry), None) => self.deadlines.remove(&(expiry, name.to_string())),
            _ => false,
        };
        tracked.status.state = to;
        if node.is_some() {
            tracked.status.node.clone_from(&node);
        }
        let cause = cause.map(Box::new);
        tracked.status.cause.clone_from(&cause);
        tracked.status.history.push((self.clock, to));
        let seq = self.events.len() as u64;
        self.events.push(JobEvent {
            seq,
            at: self.clock,
            job: JobId::new(name),
            from,
            to,
            node,
            cause,
        });
        tracked
    }

    /// The current state of a job, by name; `None` for names never admitted.
    pub(crate) fn state(&self, name: &str) -> Option<JobState> {
        self.jobs.get(name).map(|tracked| tracked.status.state)
    }

    /// The admission queue in draining order: priority descending, then
    /// admission sequence ascending — a deterministic total order,
    /// maintained on insert.
    pub(crate) fn pending_in_order(&self) -> Vec<String> {
        self.pending
            .iter()
            .map(|(_, _, name)| name.clone())
            .collect()
    }

    /// Whether any job is waiting for admission.
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Drop a job from the admission queue (scheduled, failed or cancelled).
    pub(crate) fn remove_pending(&mut self, name: &str) {
        self.pending.retain(|(_, _, queued)| queued != name);
    }

    /// Append a freshly bound job to the tail of `device`'s queue — the one
    /// push behind "a job is `Scheduled` iff it is exactly once in the queue
    /// of its `status.node`".
    pub(crate) fn join_device_queue(&mut self, device: &str, name: &str) {
        self.device_queues
            .entry(device.to_string())
            .or_default()
            .push_back(name.to_string());
    }

    /// Take a `Scheduled` job out of the queue of the device it is bound to
    /// (it is about to run, move or be cancelled), pruning the queue when it
    /// empties. Only that one queue is looked at, head first: the head is
    /// what `tick()`, `execute` and `interrupt` take.
    pub(crate) fn leave_device_queue(&mut self, name: &str) {
        let tracked = self.jobs.get(name);
        let Some(device) = tracked.and_then(|tracked| tracked.status.node.as_deref()) else {
            return;
        };
        let Some(queue) = self.device_queues.get_mut(device) else {
            return;
        };
        if let Some(at) = queue.iter().position(|queued| queued == name) {
            queue.remove(at);
        }
        if queue.is_empty() {
            self.device_queues.remove(device);
        }
    }

    /// The head of `device`'s queue goes into service until `until`.
    pub(crate) fn begin_service(&mut self, device: &str, until: u64) {
        self.serving.insert(device.to_string(), (self.clock, until));
        self.completions.insert((until, device.to_string()));
    }

    /// `device`'s window closes now, whether it elapsed or was cut short:
    /// what it served is added to the device's busy time. Returns the job in
    /// service, which is still the head of the device's queue.
    pub(crate) fn end_service(&mut self, device: &str) -> Option<String> {
        let (since, until) = self.serving.remove(device)?;
        self.completions.remove(&(until, device.to_string()));
        *self.busy.entry(device.to_string()).or_insert(0) += self.clock - since;
        self.device_queues.get(device)?.front().cloned()
    }

    /// How busy `device` has been under a service model: the fraction of the
    /// clock it spent serving, the elapsed part of the window in service
    /// included.
    pub(crate) fn busy_fraction(&self, device: &str) -> f64 {
        let served = self.busy.get(device).copied().unwrap_or(0);
        let elapsed = self
            .serving
            .get(device)
            .map_or(0, |(since, _)| self.clock - since);
        let utilization = (served + elapsed) as f64 / self.clock.max(1) as f64;
        utilization.min(1.0)
    }

    /// Whether any device queue still holds work (an empty queue is pruned,
    /// never kept).
    pub(crate) fn has_bound_work(&self) -> bool {
        !self.device_queues.is_empty()
    }

    /// Whether any job is sitting in `Retrying`, waiting out its backoff.
    pub(crate) fn has_waiting_retries(&self) -> bool {
        !self.backoffs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_wrap_names() {
        let id = JobId::new("bv-7");
        assert_eq!(id.as_str(), "bv-7");
        assert_eq!(id.to_string(), "bv-7");
        assert_eq!(JobId::from("bv-7"), id);
        assert_eq!(JobId::from(String::from("bv-7")), id);
    }

    #[test]
    fn terminal_states_allow_no_transitions() {
        for state in JobState::ALL {
            if state.is_terminal() {
                for next in JobState::ALL {
                    assert!(
                        !state.can_transition_to(next),
                        "{state} is terminal but allows -> {next}"
                    );
                }
            }
        }
        assert!(JobState::Succeeded.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn legality_table_matches_the_documented_machine() {
        use JobState::*;
        assert!(Submitted.can_transition_to(Queued));
        assert!(Queued.can_transition_to(Scheduled));
        assert!(Queued.can_transition_to(Failed));
        assert!(Queued.can_transition_to(Cancelled));
        assert!(Scheduled.can_transition_to(Scheduled), "rebind arc");
        assert!(Scheduled.can_transition_to(Running));
        assert!(Scheduled.can_transition_to(Cancelled));
        assert!(Running.can_transition_to(Succeeded));
        assert!(Running.can_transition_to(Failed));
        // The retry arcs: a retryable failure backs off in Retrying, then
        // re-queues; mid-backoff it may still be cancelled or expire.
        assert!(Running.can_transition_to(Retrying));
        assert!(Retrying.can_transition_to(Queued));
        assert!(Retrying.can_transition_to(Failed));
        assert!(Retrying.can_transition_to(Cancelled));
        // A few forbidden arcs that bugs would most plausibly introduce.
        assert!(!Submitted.can_transition_to(Running));
        assert!(!Queued.can_transition_to(Running));
        assert!(!Running.can_transition_to(Cancelled));
        assert!(!Running.can_transition_to(Queued));
        assert!(!Succeeded.can_transition_to(Failed));
        assert!(!Retrying.can_transition_to(Running), "must re-queue first");
        assert!(!Retrying.can_transition_to(Scheduled));
        assert!(!Queued.can_transition_to(Retrying));
        // A bound job can only fail *through* Running — failing a Scheduled
        // job without an execution attempt is outside the machine.
        assert!(!Scheduled.can_transition_to(Failed));
    }

    #[test]
    fn pending_drains_by_priority_then_fifo() {
        let mut store = LifecycleStore::default();
        store.admit_new("low-first", 1, None);
        store.admit_new("high", 9, None);
        store.admit_new("low-second", 1, None);
        store.admit_new("mid", 5, None);
        assert_eq!(
            store.pending_in_order(),
            vec!["high", "mid", "low-first", "low-second"]
        );
        store.remove_pending("mid");
        assert_eq!(
            store.pending_in_order(),
            vec!["high", "low-first", "low-second"]
        );
    }

    #[test]
    fn events_are_densely_sequenced() {
        let mut store = LifecycleStore::default();
        store.admit_new("a", 0, None);
        store.admit_new("b", 0, None);
        for (idx, event) in store.events.iter().enumerate() {
            assert_eq!(event.seq, idx as u64);
        }
        assert_eq!(store.events.len(), 4, "Submitted + Queued per job");
        assert_eq!(store.events[0].from, None);
        assert_eq!(store.events[0].to, JobState::Submitted);
        assert_eq!(store.events[1].from, Some(JobState::Submitted));
        assert_eq!(store.events[1].to, JobState::Queued);
    }

    #[test]
    fn an_event_without_a_cause_carries_a_pointer_for_it() {
        // The watch log holds every transition, so its entry stays small:
        // 96 bytes while the reason was an `Option<String>`.
        assert_eq!(std::mem::size_of::<Option<Box<Cause>>>(), 8);
        assert_eq!(std::mem::size_of::<JobEvent>(), 80);
        let cause = Cause::Rebound {
            from: "a".into(),
            to: "b".into(),
        };
        assert_eq!(cause.to_string(), "rebound from 'a' to 'b'");
        assert_eq!(cause.error(), None);
    }

    #[test]
    fn tick_report_progress_semantics() {
        let mut report = TickReport::default();
        assert!(report.is_idle());
        assert!(!report.made_progress());
        report.deferred.push(JobId::new("waiting"));
        assert!(!report.made_progress(), "deferral alone is a fixed point");
        assert!(!report.is_idle());
        report.scheduled.push(JobId::new("bound"));
        assert!(report.made_progress());
    }
}
