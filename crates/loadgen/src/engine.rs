//! The virtual-time discrete-event engine: drives the full QRIO stack
//! through the orchestrator's **public job-lifecycle API** — non-blocking
//! enqueue → telemetry-aware scheduling → per-device queues → simulated
//! execution — with multi-tenant arrival streams, calibration drift and
//! outages.
//!
//! # Model
//!
//! Virtual time is an integer millisecond clock; the engine never reads the
//! wall clock. Events (job arrivals, job completions, drift, outage
//! start/end) live in a binary heap ordered by `(time, sequence)`, so the
//! processing order is a pure function of the scenario and its seed.
//!
//! There is **one clock**, the orchestrator's: every popped event first
//! moves it to the event's time with [`Qrio::advance_to`], so every watch-log
//! and breaker event is stamped in virtual ms, and the tenants' retry
//! backoffs, their deadlines and the breakers' open intervals are the
//! orchestrator's own timers, in ms because that is the unit the clock is
//! advanced in. The engine keeps none of them: it acts on what `advance_to`
//! reports fired (a probing device starts its next job, an expired job is
//! counted, a re-queued job is bound again) and keeps one `Wake` event at
//! [`Qrio::next_due`] so the clock reaches each timer on time. The tie rule
//! follows: **timers due at a millisecond fire before any other event of
//! that millisecond**, whatever the events' sequence numbers — a retry whose
//! backoff ends at `t` binds before a job arriving at `t`.
//!
//! Each arrival runs the *real* submission path, via [`Qrio::enqueue`]:
//! metadata upload to the meta server (strategy validation included),
//! containerization through the master server, image push and job
//! submission. The engine then reports its virtual device load (queue depth
//! read from the orchestrator's device queue, busy fraction from its own
//! service model) through [`Qrio::report_telemetry`] and binds the job with
//! the lifecycle primitive [`Qrio::schedule`] — the same filter + meta-rank
//! cycle the service loop runs — which puts it at the tail of the chosen
//! device's queue. The engine keeps no queue of its own: it reads
//! [`Qrio::device_queue`] and adds only *time*. Each device serves the head
//! of its queue, one job at a time, for
//! `(serviceBaseUs + shots·servicePerShotUs) / speed`; when that window
//! elapses the engine calls [`Qrio::execute`], which takes the job off the
//! queue, transpiles and simulates the circuit under the device's *current*
//! (possibly drifted) noise model — so calibration drift degrades the
//! fidelity of jobs executed after the drift, producing a real
//! fidelity-vs-load signal.
//!
//! Drift events rewrite the device's calibration through
//! [`Qrio::recalibrate_device`] (bumping the calibration revision, which
//! invalidates memoized scores), then re-rank every *waiting* job with
//! [`Qrio::rank_ready`]; jobs whose best device changed migrate via
//! [`Qrio::rebind`] (to the tail of the target's queue). Outages interrupt
//! the in-flight job, cordon the node and force-migrate its waiting queue; a
//! tripped breaker cordons the node itself and its queue flees the same way.
//! Whether a device serves is the node's one cordon bit, which outages and
//! breakers both write (the last writer wins, as under [`Qrio::tick`]).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use qrio::{
    DeviceTelemetry, FidelityRankingConfig, JobId, JobRequestBuilder, JobState, Qrio, QrioError,
    TickReport,
};
use qrio_backend::Backend;
use qrio_cluster::{ClusterError, FaultInjector, FaultKind, NodeStatus, Resources};
use qrio_journal::fnv1a;

use crate::arrival::ArrivalSampler;
use crate::error::LoadgenError;
use crate::metrics::{
    fidelity_vs_load, tenant_stats, ChaosStats, CloudReport, DeviceStats, JobSample,
};
use crate::scenario::{Scenario, ScenarioEvent};

/// Classical resources requested per simulated job (tiny, so queue depth —
/// not the classical-resource fit — is the binding constraint, as on real
/// quantum clouds).
const JOB_RESOURCES: (u64, u64) = (10, 16);

/// Classical node capacity (effectively unbounded relative to
/// [`JOB_RESOURCES`]).
const NODE_RESOURCES: (u64, u64) = (1 << 30, 1 << 30);

/// Minimum score improvement before a drift re-ranking migrates a waiting
/// job (hysteresis against churn on near-ties).
const MIGRATION_EPSILON: f64 = 1e-9;

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    /// The next arrival of one tenant's stream.
    Arrival { tenant: usize },
    /// `job`, in flight on `device`, finishes its service window. Stale once
    /// the job was interrupted by an outage — the device is idle or the head
    /// of its queue is another job, and the event is ignored.
    Completion { device: String, job: String },
    /// A drift, outage or fault-rate event of the scenario's timeline
    /// (`index` into `Scenario::events`, so every `f64` is read back
    /// without quantization).
    Timeline { index: usize },
    /// An outage ends.
    OutageEnd { device: String },
    /// The orchestrator's earliest timer is due: nothing to do but move the
    /// clock there, which every event does. Stale (skipped) once
    /// [`Qrio::next_due`] moved away from its time.
    Wake,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The service model of one device: *when* it serves. *What* it serves is
/// the orchestrator's queue for the device ([`Qrio::device_queue`]).
#[derive(Debug, Default)]
struct DeviceSim {
    /// When the in-flight job started; while this is `Some`, that job is the
    /// head of the device's queue (nothing but its own `execute` or
    /// `interrupt` takes a head, and both clear this first).
    busy_since: Option<u64>,
    /// Accumulated busy time (ms).
    busy_ms: u64,
    /// Largest queue length observed (waiting + in-flight).
    peak_queue: usize,
    /// Jobs completed.
    completed: u64,
    /// Service-speed divisor from the scenario.
    speed: f64,
}

/// Engine-side bookkeeping for one job.
#[derive(Debug, Clone)]
struct JobTrack {
    tenant: String,
    queue_depth_at_bind: usize,
    migrated: bool,
}

/// Run `scenario` to completion and produce its [`CloudReport`].
///
/// Arrivals stop at the scenario horizon (or job cap); queued work then
/// drains, so the report's makespan can exceed the horizon. The report is a
/// pure function of the scenario (including its seed) — calling this twice
/// yields byte-identical [`CloudReport::to_json`] documents.
///
/// # Errors
///
/// Returns an error when the scenario is invalid or the QRIO stack rejects
/// the workload wholesale (e.g. a tenant strategy failing validation on
/// every job).
pub fn run_scenario(scenario: &Scenario) -> Result<CloudReport, LoadgenError> {
    run_scenario_with_log(scenario).map(|(report, _)| report)
}

/// Like [`run_scenario`], but also return the orchestrator's full watch log —
/// every [`qrio::JobEvent`] the run emitted, in sequence order. Auditing the
/// log (see `qrio-analyzer`) end-to-end checks the orchestrator's lifecycle
/// bookkeeping over a whole cloud-scale run.
///
/// # Errors
///
/// Same failure modes as [`run_scenario`].
pub fn run_scenario_with_log(
    scenario: &Scenario,
) -> Result<(CloudReport, Vec<qrio::JobEvent>), LoadgenError> {
    scenario.validate()?;
    let mut engine = Engine::new(scenario)?;
    engine.run()?;
    let log = engine.qrio.watch(0).to_vec();
    Ok((engine.into_report(), log))
}

/// Like [`run_scenario`], but with an explicit control-plane transport:
/// [`qrio::TransportMode::InProc`] reproduces [`run_scenario`] exactly, and
/// [`qrio::TransportMode::Threaded`] moves the node agents onto real worker
/// threads. Agents are pure functions of their per-node command streams, so
/// the report is byte-identical in every mode and at every thread count.
///
/// # Errors
///
/// Same failure modes as [`run_scenario`].
pub fn run_scenario_with_transport(
    scenario: &Scenario,
    mode: qrio::TransportMode,
) -> Result<CloudReport, LoadgenError> {
    scenario.validate()?;
    let mut engine = Engine::new(scenario)?;
    engine.qrio.set_transport(mode);
    engine.run()?;
    Ok(engine.into_report())
}

struct Engine<'s> {
    scenario: &'s Scenario,
    /// The QRIO deployment under test, driven exclusively through its public
    /// lifecycle API.
    qrio: Qrio,
    samplers: Vec<ArrivalSampler>,
    tenant_job_counters: Vec<u64>,
    devices: BTreeMap<String, DeviceSim>,
    heap: BinaryHeap<Event>,
    next_seq: u64,
    /// The time of the one live `Wake` on the heap: [`Qrio::next_due`] as of
    /// the last event.
    wake: Option<u64>,
    submitted: u64,
    submitted_by_tenant: BTreeMap<String, u64>,
    rejected_by_tenant: BTreeMap<String, u64>,
    samples: Vec<JobSample>,
    jobs: BTreeMap<String, JobTrack>,
    rejected: u64,
    execution_failures: u64,
    migrations: u64,
    drift_events: u64,
    outage_events: u64,
    chaos: ChaosStats,
}

impl<'s> Engine<'s> {
    fn new(scenario: &'s Scenario) -> Result<Self, LoadgenError> {
        let mut qrio = Qrio::with_config(
            FidelityRankingConfig {
                shots: scenario.canary_shots.max(1),
                seed: scenario.seed ^ 0xCA11_AB1E,
                shortfall_weight: 100.0,
            },
            scenario.seed ^ 0x51D0_C10D,
        );
        let mut devices = BTreeMap::new();
        for spec in &scenario.fleet {
            qrio.add_device_with_resources(
                spec.backend(),
                Resources::new(NODE_RESOURCES.0, NODE_RESOURCES.1),
            )
            .map_err(|e| LoadgenError::Engine(format!("cannot add node: {e}")))?;
            devices.insert(
                spec.name.clone(),
                DeviceSim {
                    speed: spec.speed,
                    ..DeviceSim::default()
                },
            );
        }
        let samplers = scenario
            .tenants
            .iter()
            .map(|t| ArrivalSampler::new(t.arrival, scenario.seed ^ fnv1a(&t.name)))
            .collect();
        qrio.configure_breakers(scenario.breakers)
            .map_err(|e| LoadgenError::Engine(format!("cannot configure breakers: {e}")))?;
        Ok(Engine {
            scenario,
            qrio,
            samplers,
            tenant_job_counters: vec![0; scenario.tenants.len()],
            devices,
            heap: BinaryHeap::new(),
            next_seq: 0,
            wake: None,
            submitted: 0,
            submitted_by_tenant: BTreeMap::new(),
            rejected_by_tenant: BTreeMap::new(),
            samples: Vec::new(),
            jobs: BTreeMap::new(),
            rejected: 0,
            execution_failures: 0,
            migrations: 0,
            drift_events: 0,
            outage_events: 0,
            chaos: ChaosStats::default(),
        })
    }

    fn push_event(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Play the scenario out: every event of the timeline, in order, until
    /// the heap is empty.
    fn run(&mut self) -> Result<(), LoadgenError> {
        // Seed the timeline: one first arrival per tenant, plus the scenario's
        // drift / outage / fault-rate events.
        for tenant in 0..self.scenario.tenants.len() {
            let gap = self.samplers[tenant].next_gap_ms(0);
            if gap < self.scenario.duration_ms {
                self.push_event(gap, EventKind::Arrival { tenant });
            }
        }
        let scenario = self.scenario;
        for (index, event) in scenario.events.iter().enumerate() {
            self.push_event(event.at_ms(), EventKind::Timeline { index });
        }

        while let Some(event) = self.heap.pop() {
            if event.kind == EventKind::Wake && self.wake != Some(event.time) {
                continue;
            }
            let fired = self
                .qrio
                .advance_to(event.time)
                .map_err(|e| LoadgenError::Engine(format!("cannot advance the clock: {e}")))?;
            self.on_timers(fired);
            match event.kind {
                EventKind::Arrival { tenant } => self.on_arrival(tenant)?,
                EventKind::Completion { device, job } => self.on_completion(&device, &job),
                EventKind::Timeline { index } => match &scenario.events[index] {
                    ScenarioEvent::Drift {
                        device,
                        error_factor,
                        ..
                    } => self.on_drift(device, *error_factor)?,
                    ScenarioEvent::Outage {
                        device, down_ms, ..
                    } => self.on_outage_start(device, *down_ms),
                    ScenarioEvent::Faults {
                        transient_rate,
                        calibration_rate,
                        slow_rate,
                        flap_rate,
                        ..
                    } => self.on_fault_rates(
                        *transient_rate,
                        *calibration_rate,
                        *slow_rate,
                        *flap_rate,
                    ),
                },
                EventKind::OutageEnd { device } => self.on_outage_end(&device),
                EventKind::Wake => {}
            }
            // A timer armed for a time already reached (an open interval of
            // zero) fires at the present.
            let due = self.qrio.next_due().map(|due| due.max(event.time));
            if due != self.wake {
                self.wake = due;
                if let Some(due) = due {
                    self.push_event(due, EventKind::Wake);
                }
            }
        }
        Ok(())
    }

    // --- Arrivals ------------------------------------------------------------------------

    fn on_arrival(&mut self, tenant_idx: usize) -> Result<(), LoadgenError> {
        let under_cap = self.scenario.max_jobs == 0 || self.submitted < self.scenario.max_jobs;
        let now = self.qrio.now();
        if now >= self.scenario.duration_ms || !under_cap {
            return Ok(()); // The stream ends; no follow-up arrival.
        }
        // Schedule the tenant's next arrival first, so a submission error
        // cannot silence the stream.
        let next = now + self.samplers[tenant_idx].next_gap_ms(now);
        if next < self.scenario.duration_ms {
            self.push_event(next, EventKind::Arrival { tenant: tenant_idx });
        }
        self.submit_job(tenant_idx)
    }

    fn submit_job(&mut self, tenant_idx: usize) -> Result<(), LoadgenError> {
        // Decouple the scenario borrow from `self` so the tenant reference
        // survives the `&mut self` calls below.
        let scenario = self.scenario;
        let tenant = &scenario.tenants[tenant_idx];
        let index = self.tenant_job_counters[tenant_idx];
        self.tenant_job_counters[tenant_idx] += 1;
        let job_name = format!("{}-{index}", tenant.name);
        let circuit = tenant.circuit_for(index)?;
        let strategy = tenant.strategy.strategy_spec();

        let mut builder = JobRequestBuilder::new()
            .with_circuit(&circuit)
            .job_name(&job_name)
            .image_name(format!("qrio/{}:{index}", tenant.name))
            .strategy(strategy.clone())
            .shots(tenant.shots)
            .resources(JOB_RESOURCES.0, JOB_RESOURCES.1);
        if let Some(retry) = tenant.retry {
            builder = builder.retry_policy(retry);
        }
        if let Some(deadline_ms) = tenant.deadline_ms {
            builder = builder.deadline(deadline_ms);
        }
        let request = builder
            .build()
            .map_err(|e| LoadgenError::Engine(format!("cannot build request: {e}")))?;

        // 1. Non-blocking submission through the public lifecycle API:
        //    metadata upload (validation included), containerization, image
        //    push — the job comes back `Queued`.
        let job_id = self
            .qrio
            .enqueue(&request)
            .map_err(|e| LoadgenError::Engine(format!("enqueue failed: {e}")))?;

        self.submitted += 1;
        *self
            .submitted_by_tenant
            .entry(tenant.name.clone())
            .or_insert(0) += 1;

        // 2. Scheduling cycle, then the chosen device's virtual queue. A job
        //    no eligible device can host (outage window, oversized circuit,
        //    ...) ends `Failed`.
        let track = JobTrack {
            tenant: tenant.name.clone(),
            queue_depth_at_bind: 0,
            migrated: false,
        };
        if !self.bind(&job_id, Some(track)) {
            self.rejected += 1;
            *self
                .rejected_by_tenant
                .entry(tenant.name.clone())
                .or_insert(0) += 1;
        }
        Ok(())
    }

    /// One scheduling cycle for a `Queued` job, first submission and retry
    /// alike: report the virtual-time telemetry, bind via filter + meta-rank
    /// (which puts the job at the tail of its device's queue), note the
    /// queue depth the job met there — in `fresh`, the track of a job bound
    /// for the first time, or in the one a retried job already has — and
    /// start it when the device is idle. `false` when `schedule` found no
    /// device and settled the job `Failed` (terminal); the caller counts it.
    fn bind(&mut self, job_id: &JobId, fresh: Option<JobTrack>) -> bool {
        let reports = self.telemetry_snapshot();
        self.qrio.report_telemetry(reports);
        let Ok(decision) = self.qrio.schedule(job_id) else {
            return false;
        };
        if let Some(track) = fresh {
            self.jobs.insert(job_id.to_string(), track);
        }
        if let Some(track) = self.jobs.get_mut(job_id.as_str()) {
            // Everything ahead of the job in the queue it just joined.
            track.queue_depth_at_bind = self.qrio.device_queue(&decision.node).len() - 1;
        }
        self.joined(&decision.node);
        true
    }

    /// The service model of `device`.
    fn sim(&mut self, device: &str) -> &mut DeviceSim {
        self.devices
            .get_mut(device)
            .expect("bindings and validated scenario events name fleet devices only")
    }

    /// Whether `device` is out of service: in an outage window or behind an
    /// `Open` breaker — the node's cordon bit, which both of them write.
    fn cordoned(&self, device: &str) -> bool {
        let node = self.qrio.cluster().node(device);
        node.is_some_and(|node| node.status() == NodeStatus::Cordoned)
    }

    /// A job joined the tail of `device`'s queue (bound or migrated there):
    /// note the occupancy and start the job when the device is idle.
    fn joined(&mut self, device: &str) {
        let occupancy = self.qrio.device_queue(device).len();
        let sim = self.sim(device);
        sim.peak_queue = sim.peak_queue.max(occupancy);
        self.start_next(device);
    }

    /// Put the head of `device`'s queue in flight, when the device is idle,
    /// serving and has one.
    fn start_next(&mut self, device: &str) {
        let sim = self.sim(device);
        if sim.busy_since.is_some() || self.cordoned(device) {
            return;
        }
        let speed = self.sim(device).speed;
        let Some(job) = self.qrio.device_queue(device).next() else {
            return;
        };
        let shots = self.qrio.cluster().job(job).map_or(1, |j| j.spec().shots);
        let service_us =
            self.scenario.service_base_us + shots.saturating_mul(self.scenario.service_per_shot_us);
        let service_ms = ((service_us as f64 / speed / 1000.0).ceil() as u64).max(1);
        let completion = EventKind::Completion {
            device: device.to_string(),
            job: job.to_string(),
        };
        // Busy time is charged as it elapses (at completion, and pro rata in
        // telemetry), not up front.
        let now = self.qrio.now();
        self.push_event(now + service_ms, completion);
        self.sim(device).busy_since = Some(now);
    }

    // --- Completions ---------------------------------------------------------------------

    fn on_completion(&mut self, device: &str, job: &str) {
        // Stale event: the job was interrupted (outage) before its window
        // elapsed, so the device is idle or serving another head.
        if self.qrio.device_queue(device).next() != Some(job) {
            return;
        }
        let now = self.qrio.now();
        let sim = self.sim(device);
        let Some(start_ms) = sim.busy_since.take() else {
            return;
        };
        sim.busy_ms += now - start_ms;
        // Execute the container on the node: transpile + simulate under the
        // device's *current* (possibly drifted) noise model. The fault
        // injector (if configured) is consulted inside this call.
        match self.qrio.execute(&JobId::new(job)) {
            Ok(()) => {
                self.sim(device).completed += 1;
                let track = self
                    .jobs
                    .get(job)
                    .expect("a job is tracked from its first bind on");
                let ran = self.qrio.cluster().job(job);
                let status = self.qrio.job_status(&JobId::new(job)).ok();
                let submitted = status.and_then(|status| status.history.first());
                self.samples.push(JobSample {
                    tenant: track.tenant.clone(),
                    device: device.to_string(),
                    arrival_ms: submitted.map_or(0, |(at, _)| *at),
                    start_ms,
                    completion_ms: now,
                    queue_depth_at_bind: track.queue_depth_at_bind,
                    fidelity: ran.and_then(|j| j.achieved_fidelity()),
                    migrated: track.migrated,
                });
            }
            Err(error) => self.handle_failed_attempt(job, &error),
        }
        // Cordoned by its own job's outcome: that tripped the device's
        // breaker. The waiting queue flees to the healthy fleet; the
        // orchestrator's timer ends the open interval.
        if self.cordoned(device) {
            self.rerank_waiting(Some(device));
        }
        self.start_next(device);
    }

    // --- Fault handling ------------------------------------------------------------------

    /// Account for one failed execution attempt of `job_name`: the injected
    /// fault it drew, and — unless the orchestrator parked the job in
    /// `Retrying`, to re-queue it when its backoff elapses — the terminal
    /// failure.
    fn handle_failed_attempt(&mut self, job_name: &str, error: &QrioError) {
        if let QrioError::Cluster(ClusterError::InjectedFault { kind, .. }) = error {
            let injected = match kind {
                FaultKind::TransientExecution => &mut self.chaos.injected_transient,
                FaultKind::CalibrationGlitch => &mut self.chaos.injected_calibration,
                FaultKind::SlowJob => &mut self.chaos.injected_slow,
                FaultKind::DeviceFlap => &mut self.chaos.injected_flap,
            };
            *injected += 1;
        }
        if self.qrio.status(&JobId::new(job_name)).ok() != Some(JobState::Retrying) {
            self.execution_failures += 1;
        }
    }

    /// What the orchestrator's timers did on the way to this event's time: a
    /// breaker's open interval ended (the device, uncordoned on probation,
    /// serves again), a job waiting out a backoff ran past its deadline, a
    /// backoff elapsed (the job is `Queued` again: re-run the scheduling
    /// cycle — the original device may be cordoned by now).
    fn on_timers(&mut self, fired: TickReport) {
        for device in &fired.probing {
            self.chaos.breaker_probes += 1;
            self.start_next(device);
        }
        self.chaos.deadline_cancelled += fired.expired.len() as u64;
        for job_id in &fired.requeued {
            self.chaos.retries += 1;
            if !self.bind(job_id, None) {
                self.execution_failures += 1;
            }
        }
    }

    /// A `faults` timeline event: swap the cluster's fault injector for one
    /// with the new rates (or remove it entirely when all rates are zero).
    fn on_fault_rates(&mut self, transient: f64, calibration: f64, slow: f64, flap: f64) {
        let injector = if transient + calibration + slow + flap == 0.0 {
            None
        } else {
            Some(FaultInjector {
                transient_rate: transient,
                calibration_rate: calibration,
                slow_rate: slow,
                flap_rate: flap,
                ..FaultInjector::new(self.scenario.fault_seed)
            })
        };
        self.qrio
            .configure_faults(injector)
            .expect("fault injector reconfiguration is infallible on a live cluster");
    }

    // --- Telemetry -----------------------------------------------------------------------

    /// Snapshot the current queue depth and utilization of every device —
    /// the live signal `weighted` and `min_queue` react to, fed to the meta
    /// server via [`Qrio::report_telemetry`]. The queue depth is the length
    /// of the orchestrator's queue for the device (waiting + in-flight);
    /// utilization is the device's busy fraction of elapsed virtual time,
    /// with the in-flight job charged only for the portion that has
    /// actually elapsed.
    fn telemetry_snapshot(&self) -> Vec<(String, DeviceTelemetry)> {
        let now = self.qrio.now();
        self.devices
            .iter()
            .map(|(name, sim)| {
                let queue_depth = self.qrio.device_queue(name).len();
                let in_flight_ms = sim.busy_since.map_or(0, |start| now - start);
                let utilization = if now == 0 {
                    0.0
                } else {
                    ((sim.busy_ms + in_flight_ms) as f64 / now as f64).min(1.0)
                };
                (
                    name.clone(),
                    DeviceTelemetry {
                        queue_depth,
                        utilization,
                        health_penalty: 0.0,
                    },
                )
            })
            .collect()
    }

    // --- Drift ---------------------------------------------------------------------------

    fn on_drift(&mut self, device: &str, factor: f64) -> Result<(), LoadgenError> {
        self.drift_events += 1;
        let Some(backend) = self.qrio.meta().backend(device).cloned() else {
            return Ok(());
        };
        let drifted = drift_backend(&backend, factor)?;
        // New calibration revision in the meta server (memoized scores
        // against the old calibration are invalidated implicitly) plus
        // recomputed node labels in the cluster, in one public call.
        self.qrio
            .recalibrate_device(drifted)
            .map_err(|e| LoadgenError::Engine(format!("drift update failed: {e}")))?;
        self.rerank_waiting(None);
        Ok(())
    }

    // --- Outages -------------------------------------------------------------------------

    fn on_outage_start(&mut self, device: &str, down_ms: u64) {
        self.outage_events += 1;
        // A device dying mid-shot kills the in-flight job's attempt: surface
        // it through the orchestrator as an injected device-flap fault (it
        // may retry, per its policy) instead of letting its completion event
        // silently succeed later. Interrupt *before* cordoning so the
        // outage-end uncordon restores the node cleanly.
        let head = self.qrio.device_queue(device).next().map(str::to_string);
        let now = self.qrio.now();
        let sim = self.sim(device);
        if let (Some(start_ms), Some(job_name)) = (sim.busy_since.take(), head) {
            sim.busy_ms += now - start_ms;
            self.chaos.interrupted += 1;
            // Interrupting a `Scheduled` job always fails the attempt.
            if let Err(error) = self.qrio.interrupt(&JobId::new(&job_name)) {
                self.handle_failed_attempt(&job_name, &error);
            }
        }
        // Journaled and told to the node's agent, like any vendor's cordon.
        let _ = self.qrio.cordon_device(device);
        self.push_event(
            now + down_ms.max(1),
            EventKind::OutageEnd {
                device: device.to_string(),
            },
        );
        // Waiting jobs flee to the healthy part of the fleet.
        self.rerank_waiting(Some(device));
    }

    fn on_outage_end(&mut self, device: &str) {
        let _ = self.qrio.uncordon_device(device);
        self.start_next(device);
    }

    // --- Re-ranking / migration ----------------------------------------------------------

    /// Re-rank waiting jobs (every queue's, less the head a busy device has
    /// in flight) through [`Qrio::rank_ready`] and migrate the ones whose
    /// best device changed. `only` restricts the sweep to one device's queue
    /// (outages); `None` sweeps every queue (drift).
    ///
    /// Jobs on a cordoned device migrate whenever *any* eligible device
    /// exists; elsewhere a strictly better score is required. Each job is
    /// decided against telemetry refreshed after the previous migration, so
    /// a fleeing queue spreads over the healthy fleet instead of herding
    /// onto whichever device looked emptiest in one stale snapshot.
    fn rerank_waiting(&mut self, only: Option<&str>) {
        // Node readiness cannot change while the sweep runs (migrations move
        // jobs, not node status): with nothing ready there is nowhere to go.
        if self.qrio.cluster().ready_nodes().next().is_none() {
            return;
        }
        // Snapshot the candidates first (device name order, FIFO within a
        // queue); migrations below mutate the queues being considered.
        let candidates: Vec<(String, String, bool)> = self
            .devices
            .iter()
            .filter(|(device, _)| only.map_or(true, |o| o == device.as_str()))
            .flat_map(|(device, sim)| {
                let in_flight = usize::from(sim.busy_since.is_some());
                let waiting = self.qrio.device_queue(device).skip(in_flight);
                let fleeing = self.cordoned(device);
                waiting.map(move |job| (device.clone(), job.to_string(), fleeing))
            })
            .collect();
        for (device, job_name, fleeing) in candidates {
            // Fresh telemetry per decision: earlier migrations in this sweep
            // already changed queue depths.
            let reports = self.telemetry_snapshot();
            self.qrio.report_telemetry(reports);
            let job_id = JobId::new(&job_name);
            let Ok(ranked) = self.qrio.rank_ready(&job_id) else {
                continue;
            };
            let (best_device, best_score) = ranked[0].clone();
            if best_device == device {
                continue;
            }
            let current_score = ranked
                .iter()
                .find(|(name, _)| name == &device)
                .map(|(_, score)| *score);
            let improves = match current_score {
                Some(current) => best_score + MIGRATION_EPSILON < current,
                // The current device no longer ranks at all (cordoned or
                // un-scoreable after drift): leave unless fleeing.
                None => fleeing,
            };
            if !(fleeing || improves) {
                continue;
            }
            // `rebind` moves the job to the tail of the target's queue.
            if self.qrio.rebind(&job_id, &best_device).is_err() {
                continue;
            }
            if let Some(track) = self.jobs.get_mut(&job_name) {
                track.migrated = true;
            }
            self.migrations += 1;
            self.joined(&best_device);
        }
    }

    // --- Report --------------------------------------------------------------------------

    fn into_report(self) -> CloudReport {
        let makespan = self.qrio.now();
        let tenants = tenant_stats(
            &self.samples,
            &self.submitted_by_tenant,
            &self.rejected_by_tenant,
            makespan,
        );
        let devices = self
            .devices
            .iter()
            .map(|(name, sim)| {
                (
                    name.clone(),
                    DeviceStats {
                        completed: sim.completed,
                        busy_ms: sim.busy_ms,
                        utilization: if makespan == 0 {
                            0.0
                        } else {
                            (sim.busy_ms as f64 / makespan as f64).min(1.0)
                        },
                        peak_queue_depth: sim.peak_queue,
                    },
                )
            })
            .collect();
        let cache = self.qrio.meta().cache_stats();
        let chaos = if self.scenario.has_chaos() {
            let mut chaos = self.chaos.clone();
            chaos.dead_lettered = self.qrio.dead_letters().len() as u64;
            chaos.breaker_trips = self.qrio.breakers().map_or(0, |board| board.total_trips());
            chaos.goodput_per_sec = if makespan == 0 {
                0.0
            } else {
                self.samples.len() as f64 / (makespan as f64 / 1000.0)
            };
            Some(chaos)
        } else {
            None
        };
        CloudReport {
            benchmark: "bench_cloud".to_string(),
            scenario: self.scenario.name.clone(),
            seed: self.scenario.seed,
            duration_ms: self.scenario.duration_ms,
            makespan_ms: makespan,
            submitted: self.submitted,
            completed: self.samples.len() as u64,
            rejected: self.rejected,
            execution_failures: self.execution_failures,
            migrations: self.migrations,
            drift_events: self.drift_events,
            outage_events: self.outage_events,
            tenants,
            devices,
            fidelity_vs_load: fidelity_vs_load(&self.samples),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_hit_rate: cache.hit_rate(),
            chaos,
        }
    }
}

/// Scale every error rate of `backend` by `factor` (clamping to valid
/// probabilities) and shorten T1/T2 accordingly — the week-scale calibration
/// drift real fleets exhibit, compressed to one instant.
fn drift_backend(backend: &Backend, factor: f64) -> Result<Backend, LoadgenError> {
    let mut qubit_properties = backend.qubits().to_vec();
    for props in &mut qubit_properties {
        props.single_qubit_error = (props.single_qubit_error * factor).clamp(0.0, 0.5);
        props.readout_error = (props.readout_error * factor).clamp(0.0, 0.5);
        props.t1_us = (props.t1_us / factor).max(1.0);
        props.t2_us = (props.t2_us / factor).max(1.0);
    }
    let mut two_qubit_gates = backend.two_qubit_gates().clone();
    for gate in two_qubit_gates.values_mut() {
        gate.error = (gate.error * factor).clamp(0.0, 0.9);
    }
    Backend::new(
        backend.name(),
        backend.coupling_map().clone(),
        qubit_properties,
        two_qubit_gates,
        backend.basis_gates().clone(),
    )
    .map_err(|e| LoadgenError::Engine(format!("cannot build drifted backend: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::topology;

    #[test]
    fn events_pop_in_time_then_sequence_order() {
        let mut heap = BinaryHeap::new();
        let kind = |d: &str| EventKind::Completion {
            device: d.into(),
            job: "j".into(),
        };
        heap.push(Event {
            time: 5,
            seq: 1,
            kind: kind("b"),
        });
        heap.push(Event {
            time: 5,
            seq: 0,
            kind: kind("a"),
        });
        heap.push(Event {
            time: 1,
            seq: 2,
            kind: kind("c"),
        });
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(order, vec![(1, 2), (5, 0), (5, 1)]);
    }

    #[test]
    fn drifted_backends_are_strictly_noisier() {
        let backend =
            Backend::uniform("d", topology::line(5), 0.01, 0.05).with_uniform_readout_error(0.02);
        let drifted = drift_backend(&backend, 4.0).unwrap();
        assert!((drifted.avg_two_qubit_error() - 0.2).abs() < 1e-12);
        assert!((drifted.avg_readout_error() - 0.08).abs() < 1e-12);
        assert!(drifted.avg_t1_us() < backend.avg_t1_us());
        // Factors below one model recalibration improving the device.
        let repaired = drift_backend(&drifted, 0.25).unwrap();
        assert!((repaired.avg_two_qubit_error() - 0.05).abs() < 1e-12);
        // Extreme factors stay within valid probability ranges.
        let fried = drift_backend(&backend, 1e6).unwrap();
        assert!(fried.avg_two_qubit_error() <= 0.9);
        assert!(fried.avg_readout_error() <= 0.5);
    }

    #[test]
    fn outage_interrupts_in_flight_job_instead_of_completing_it() {
        // One device, one job whose 600 ms service window straddles an
        // outage at 100 ms. Without the interrupt path the stale completion
        // event at 600 ms would silently mark the job successful.
        let scenario = Scenario::from_yaml(
            "scenario: interrupt\n\
             seed: 5\n\
             durationMs: 1000\n\
             maxJobs: 1\n\
             serviceBaseUs: 600000\n\
             fleet:\n\
               - device: solo\n\
                 qubits: 6\n\
             tenants:\n\
               - tenant: alice\n\
                 strategy: min_queue\n\
                 circuit: ghz\n\
                 qubits: 4\n\
                 shots: 16\n\
                 ratePerSec: 1000.0\n\
             events:\n\
               - kind: outage\n\
                 atMs: 100\n\
                 device: solo\n\
                 downMs: 100\n",
        )
        .unwrap();
        let (report, log) = run_scenario_with_log(&scenario).unwrap();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.completed, 0, "interrupted job must not complete");
        assert_eq!(report.execution_failures, 1);
        // No retry policy: the interrupt surfaces as a terminal failure whose
        // reason names the injected device flap.
        let failed_reason = log
            .iter()
            .find(|e| e.to == qrio::JobState::Failed)
            .and_then(|e| e.reason.clone())
            .expect("interrupted job emits a Failed event with a reason");
        assert!(
            failed_reason.contains("flapped"),
            "reason should name the flap fault, got: {failed_reason}"
        );
    }

    #[test]
    fn outage_holds_the_waiter_until_the_device_is_back() {
        // Two jobs on one device, 600 ms each, both bound before the outage
        // at 100 ms: the first is in flight (the head of the queue), the
        // second waits behind it and has nowhere to flee to.
        let scenario = Scenario::from_yaml(
            "scenario: hold\n\
             seed: 5\n\
             durationMs: 1000\n\
             maxJobs: 2\n\
             serviceBaseUs: 600000\n\
             servicePerShotUs: 0\n\
             fleet:\n\
               - device: solo\n\
                 qubits: 6\n\
             tenants:\n\
               - tenant: alice\n\
                 strategy: min_queue\n\
                 circuit: ghz\n\
                 qubits: 4\n\
                 shots: 16\n\
                 ratePerSec: 1000.0\n\
             events:\n\
               - kind: outage\n\
                 atMs: 100\n\
                 device: solo\n\
                 downMs: 100\n",
        )
        .unwrap();
        let (report, log) = run_scenario_with_log(&scenario).unwrap();
        assert_eq!((report.submitted, report.rejected), (2, 0));
        // The interrupted head left the queue for good (no retry policy)...
        assert_eq!((report.completed, report.execution_failures), (1, 1));
        let ended: Vec<_> = log.iter().filter(|e| e.to.is_terminal()).collect();
        assert_eq!(ended[0].job.as_str(), "alice-0");
        assert_eq!(ended[0].to, qrio::JobState::Failed);
        assert_eq!(ended[1].job.as_str(), "alice-1");
        assert_eq!(ended[1].to, qrio::JobState::Succeeded);
        // ...and the waiter was started by `OutageEnd` at 200 ms, not by the
        // interrupt at 100 ms: its 600 ms window closes at 800.
        assert_eq!(report.makespan_ms, 800);
        let solo = &report.devices["solo"];
        assert_eq!(solo.completed, 1);
        assert_eq!(solo.peak_queue_depth, 2, "in-flight head + one waiter");
    }

    #[test]
    fn a_breaker_tripped_by_an_outage_probes_on_time_and_every_stamp_is_virtual_ms() {
        // Two 600 ms jobs on one device whose breaker trips on a single
        // failure. The outage at 100 ms interrupts the head: that failure
        // trips the breaker, open for 500 ms — as long as the outage lasts.
        let scenario = Scenario::from_yaml(
            "scenario: trip\n\
             seed: 5\n\
             durationMs: 1000\n\
             maxJobs: 2\n\
             serviceBaseUs: 600000\n\
             servicePerShotUs: 0\n\
             breakers: on\n\
             breakerConsecutiveFailures: 1\n\
             breakerOpenMs: 500\n\
             breakerProbeJobs: 1\n\
             fleet:\n\
               - device: solo\n\
                 qubits: 6\n\
             tenants:\n\
               - tenant: alice\n\
                 strategy: min_queue\n\
                 circuit: ghz\n\
                 qubits: 4\n\
                 shots: 16\n\
                 ratePerSec: 1000.0\n\
             events:\n\
               - kind: outage\n\
                 atMs: 100\n\
                 device: solo\n\
                 downMs: 500\n",
        )
        .unwrap();
        let mut engine = Engine::new(&scenario).unwrap();
        engine.run().unwrap();

        // The trip is noticed when it happens, not at the device's next
        // completion: probation begins exactly `breakerOpenMs` after it.
        let transitions: Vec<(u64, &str, &str)> = engine
            .qrio
            .breakers()
            .unwrap()
            .events()
            .iter()
            .map(|event| (event.at, event.from.name(), event.to.name()))
            .collect();
        assert_eq!(
            transitions,
            [
                (100, "closed", "open"),
                (600, "open", "half-open"),
                (1200, "half-open", "closed"),
            ]
        );
        assert_eq!(engine.chaos.breaker_probes, 1);
        // Nothing started on the device while its breaker was open: the
        // waiter's 600 ms window runs from the probe at 600 to 1200, and the
        // watch log is stamped with the virtual ms of each transition.
        let log = engine.qrio.watch(0);
        let stamps = |job: &str| -> Vec<(u64, JobState)> {
            let of_job = log.iter().filter(|event| event.job.as_str() == job);
            of_job.map(|event| (event.at, event.to)).collect()
        };
        let arrived = |job: &str| stamps(job)[0].0;
        assert!(0 < arrived("alice-0") && arrived("alice-0") <= arrived("alice-1"));
        assert!(arrived("alice-1") < 100);
        use JobState::*;
        let t = arrived("alice-0");
        assert_eq!(
            stamps("alice-0"),
            [
                (t, Submitted),
                (t, Queued),
                (t, Scheduled),
                (100, Running),
                (100, Failed)
            ]
        );
        let t = arrived("alice-1");
        assert_eq!(
            stamps("alice-1"),
            [
                (t, Submitted),
                (t, Queued),
                (t, Scheduled),
                (1200, Running),
                (1200, Succeeded)
            ]
        );
        assert!(log.windows(2).all(|pair| pair[0].at <= pair[1].at));
        assert_eq!(engine.qrio.now(), 1200);
        let report = engine.into_report();
        assert_eq!(report.makespan_ms, 1200);
        assert_eq!((report.completed, report.execution_failures), (1, 1));
    }

    #[test]
    fn chaos_scenario_retries_through_faults_and_reports_deterministically() {
        // 100% transient faults until 300 ms, then a clean window: every job
        // needs at least one retry, yet all of them eventually complete.
        let yaml = "scenario: chaos-smoke\n\
             seed: 11\n\
             durationMs: 400\n\
             maxJobs: 3\n\
             serviceBaseUs: 50000\n\
             fleet:\n\
               - device: solo\n\
                 qubits: 6\n\
             tenants:\n\
               - tenant: alice\n\
                 strategy: min_queue\n\
                 circuit: ghz\n\
                 qubits: 4\n\
                 shots: 16\n\
                 ratePerSec: 50.0\n\
                 retryMaxAttempts: 10\n\
                 retryDelayMs: 20\n\
             events:\n\
               - kind: faults\n\
                 atMs: 0\n\
                 transientRate: 1.0\n\
               - kind: faults\n\
                 atMs: 300\n";
        let scenario = Scenario::from_yaml(yaml).unwrap();
        let report = run_scenario(&scenario).unwrap();
        assert_eq!(report.completed, report.submitted);
        assert_eq!(report.execution_failures, 0);
        let chaos = report.chaos.as_ref().expect("retry tenants imply chaos");
        assert!(chaos.retries > 0, "100% fault rate must force retries");
        assert!(chaos.injected_transient > 0);
        assert_eq!(chaos.dead_lettered, 0);
        // Byte-determinism: the whole chaos pipeline is seed-pure.
        let again = run_scenario(&scenario).unwrap();
        assert_eq!(report.to_json(), again.to_json());
    }
}
