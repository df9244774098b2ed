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
//! Each arrival runs the *real* submission path, via [`Qrio::enqueue`]:
//! metadata upload to the meta server (strategy validation included),
//! containerization through the master server, image push and job
//! submission. The engine then reports its virtual device load (queue depth
//! and busy fraction from its own queues) through
//! [`Qrio::report_telemetry`] and binds the job with the lifecycle
//! primitive [`Qrio::schedule`] — the same filter + meta-rank cycle the
//! service loop runs. The chosen device's queue is then simulated in
//! virtual time: each device executes one job at a time; its service time
//! is `(serviceBaseUs + shots·servicePerShotUs) / speed`. When a job
//! reaches the head of the queue, the engine calls [`Qrio::execute`], which
//! transpiles and simulates the circuit under the device's *current*
//! (possibly drifted) noise model — so calibration drift degrades the
//! fidelity of jobs executed after the drift, producing a real
//! fidelity-vs-load signal.
//!
//! Drift events rewrite the device's calibration through
//! [`Qrio::recalibrate_device`] (bumping the calibration revision, which
//! invalidates memoized scores), then re-rank every *waiting* job with
//! [`Qrio::rank_ready`]; jobs whose best device changed migrate via
//! [`Qrio::rebind`]. Outages cordon the node and force-migrate its waiting
//! queue (the in-flight job finishes its window).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use qrio::{
    BreakerConfig, BreakerState, DeviceTelemetry, FidelityRankingConfig, JobId, JobRequestBuilder,
    JobState, Qrio, QrioError,
};
use qrio_backend::Backend;
use qrio_cluster::{ClusterError, FaultInjector, FaultKind, Resources, RetryPolicy};
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
    /// the job was interrupted by an outage — `job` no longer matches the
    /// device's `busy_with`, and the event is ignored.
    Completion { device: String, job: String },
    /// A calibration-drift event (`index` into `Scenario::events`, so the
    /// exact `f64` factor is read back without quantization).
    Drift { index: usize },
    /// An outage begins.
    OutageStart { device: String, down_ms: u64 },
    /// An outage ends.
    OutageEnd { device: String },
    /// A `faults` timeline event reconfigures the fault injector (`index`
    /// into `Scenario::events`, so rates are read back exactly).
    FaultRates { index: usize },
    /// `job`'s backoff elapsed: kick the retry and re-bind it.
    Retry { job: String },
    /// A tripped breaker's open window elapsed: probe `device`.
    Probe { device: String },
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

/// The virtual queue state of one device.
#[derive(Debug, Default)]
struct DeviceSim {
    /// Waiting job names, FIFO.
    queue: VecDeque<String>,
    /// The in-flight job, if any.
    busy_with: Option<String>,
    /// Accumulated busy time (ms).
    busy_ms: u64,
    /// Largest queue length observed (waiting + in-flight).
    peak_queue: usize,
    /// Jobs completed.
    completed: u64,
    /// Service-speed divisor from the scenario.
    speed: f64,
    /// Whether the device is inside an outage window.
    cordoned: bool,
}

/// Engine-side bookkeeping for one job.
#[derive(Debug, Clone)]
struct JobTrack {
    tenant: String,
    /// Index into `Scenario::tenants`, for the retry/deadline spec.
    tenant_idx: usize,
    arrival_ms: u64,
    queue_depth_at_bind: usize,
    migrated: bool,
    /// Failed execution attempts so far (drives the backoff schedule).
    attempts: u32,
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
    Engine::new(scenario)?.run()
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
    engine.run().map(|(report, _)| report)
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
    now: u64,
    makespan: u64,
    submitted: u64,
    submitted_by_tenant: BTreeMap<String, u64>,
    rejected_by_tenant: BTreeMap<String, u64>,
    samples: Vec<JobSample>,
    jobs: BTreeMap<String, JobTrack>,
    start_times: BTreeMap<String, u64>,
    rejected: u64,
    execution_failures: u64,
    migrations: u64,
    drift_events: u64,
    outage_events: u64,
    chaos: ChaosStats,
    /// Devices with a breaker probe already on the heap (dedupes probes
    /// across the failures that accumulate while a breaker is open).
    probe_pending: BTreeSet<String>,
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
        if let Some(breakers) = &scenario.breakers {
            qrio.configure_breakers(Some(BreakerConfig {
                consecutive_failures: breakers.consecutive_failures,
                failure_rate: breakers.failure_rate,
                window: breakers.window,
                // The orchestrator's tick clock never advances here — the
                // engine paces probes itself, in virtual ms, via
                // `Qrio::probe_device`.
                open_ticks: breakers.open_ms,
                probe_jobs: breakers.probe_jobs,
            }))
            .map_err(|e| LoadgenError::Engine(format!("cannot configure breakers: {e}")))?;
        }
        Ok(Engine {
            scenario,
            qrio,
            samplers,
            tenant_job_counters: vec![0; scenario.tenants.len()],
            devices,
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            makespan: 0,
            submitted: 0,
            submitted_by_tenant: BTreeMap::new(),
            rejected_by_tenant: BTreeMap::new(),
            samples: Vec::new(),
            jobs: BTreeMap::new(),
            start_times: BTreeMap::new(),
            rejected: 0,
            execution_failures: 0,
            migrations: 0,
            drift_events: 0,
            outage_events: 0,
            chaos: ChaosStats::default(),
            probe_pending: BTreeSet::new(),
        })
    }

    fn push_event(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    fn run(mut self) -> Result<(CloudReport, Vec<qrio::JobEvent>), LoadgenError> {
        // Seed the timeline: one first arrival per tenant, plus the scenario's
        // drift/outage events.
        for tenant in 0..self.scenario.tenants.len() {
            let gap = self.samplers[tenant].next_gap_ms(0);
            if gap < self.scenario.duration_ms {
                self.push_event(gap, EventKind::Arrival { tenant });
            }
        }
        let scenario = self.scenario;
        for (index, event) in scenario.events.iter().enumerate() {
            match event.clone() {
                ScenarioEvent::Drift { at_ms, .. } => {
                    self.push_event(at_ms, EventKind::Drift { index })
                }
                ScenarioEvent::Outage {
                    at_ms,
                    device,
                    down_ms,
                } => self.push_event(at_ms, EventKind::OutageStart { device, down_ms }),
                ScenarioEvent::Faults { at_ms, .. } => {
                    self.push_event(at_ms, EventKind::FaultRates { index })
                }
            }
        }

        while let Some(event) = self.heap.pop() {
            self.now = event.time;
            self.makespan = self.makespan.max(event.time);
            match event.kind {
                EventKind::Arrival { tenant } => self.on_arrival(tenant)?,
                EventKind::Completion { device, job } => self.on_completion(&device, &job)?,
                EventKind::Drift { index } => {
                    let ScenarioEvent::Drift {
                        device,
                        error_factor,
                        ..
                    } = &scenario.events[index]
                    else {
                        unreachable!("drift events index only Drift entries");
                    };
                    self.on_drift(device, *error_factor)?;
                }
                EventKind::OutageStart { device, down_ms } => {
                    self.on_outage_start(&device, down_ms)
                }
                EventKind::OutageEnd { device } => self.on_outage_end(&device),
                EventKind::FaultRates { index } => {
                    let ScenarioEvent::Faults {
                        transient_rate,
                        calibration_rate,
                        slow_rate,
                        flap_rate,
                        ..
                    } = &scenario.events[index]
                    else {
                        unreachable!("fault-rate events index only Faults entries");
                    };
                    self.on_fault_rates(*transient_rate, *calibration_rate, *slow_rate, *flap_rate);
                }
                EventKind::Retry { job } => self.on_retry(&job),
                EventKind::Probe { device } => self.on_probe(&device),
            }
        }

        let log = self.qrio.watch(0).to_vec();
        Ok((self.into_report(), log))
    }

    // --- Arrivals ------------------------------------------------------------------------

    fn on_arrival(&mut self, tenant_idx: usize) -> Result<(), LoadgenError> {
        let under_cap = self.scenario.max_jobs == 0 || self.submitted < self.scenario.max_jobs;
        if self.now >= self.scenario.duration_ms || !under_cap {
            return Ok(()); // The stream ends; no follow-up arrival.
        }
        // Schedule the tenant's next arrival first, so a submission error
        // cannot silence the stream.
        let gap = self.samplers[tenant_idx].next_gap_ms(self.now);
        let next = self.now + gap;
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
        if let Some(retry) = &tenant.retry {
            // The orchestrator only needs to know *how many* attempts are
            // allowed (so failures land in `Retrying`, not `Failed`); the
            // engine paces the backoff itself, in virtual ms, via `Retry`
            // events — the orchestrator's tick-based delay never elapses
            // because the engine never ticks.
            builder = builder.retry_policy(RetryPolicy::fixed(retry.max_attempts, 1));
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
            tenant_idx,
            arrival_ms: self.now,
            queue_depth_at_bind: 0,
            migrated: false,
            attempts: 0,
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
    /// alike: report the virtual-queue telemetry, bind via filter +
    /// meta-rank, note the queue depth the job met at its device — in
    /// `fresh`, the track of a job bound for the first time, or in the one a
    /// retried job already has — and enter that device's virtual queue.
    /// `false` when `schedule` found no device and settled the job `Failed`
    /// (terminal); the caller counts it.
    fn bind(&mut self, job_id: &JobId, fresh: Option<JobTrack>) -> bool {
        let reports = self.telemetry_snapshot();
        self.qrio.report_telemetry(reports);
        let Ok(decision) = self.qrio.schedule(job_id) else {
            return false;
        };
        let device = decision.node;
        let sim = self
            .devices
            .get(&device)
            .expect("scheduler only binds to registered devices");
        let depth = sim.queue.len() + usize::from(sim.busy_with.is_some());
        let job_name = job_id.to_string();
        if let Some(track) = fresh {
            self.jobs.insert(job_name.clone(), track);
        }
        if let Some(track) = self.jobs.get_mut(&job_name) {
            track.queue_depth_at_bind = depth;
        }
        self.enqueue(&device, job_name);
        true
    }

    /// Put a bound job at the tail of a device's virtual queue, starting it
    /// immediately when the device is idle.
    fn enqueue(&mut self, device: &str, job_name: String) {
        let sim = self.devices.get_mut(device).expect("device exists");
        sim.queue.push_back(job_name);
        let occupancy = sim.queue.len() + usize::from(sim.busy_with.is_some());
        sim.peak_queue = sim.peak_queue.max(occupancy);
        if sim.busy_with.is_none() && !sim.cordoned {
            self.start_next(device);
        }
    }

    /// Start the next waiting job on an idle device.
    fn start_next(&mut self, device: &str) {
        let shots = {
            let sim = self.devices.get_mut(device).expect("device exists");
            debug_assert!(sim.busy_with.is_none());
            let Some(job_name) = sim.queue.pop_front() else {
                return;
            };
            sim.busy_with = Some(job_name.clone());
            let shots = self
                .qrio
                .cluster()
                .job(&job_name)
                .map(|j| j.spec().shots)
                .unwrap_or(1);
            self.start_times.insert(job_name, self.now);
            shots
        };
        let sim = self.devices.get_mut(device).expect("device exists");
        let service_us =
            self.scenario.service_base_us + shots.saturating_mul(self.scenario.service_per_shot_us);
        let service_ms = ((service_us as f64 / sim.speed / 1000.0).ceil() as u64).max(1);
        // Busy time is charged as it elapses (at completion, and pro rata in
        // telemetry), not up front.
        let finish = self.now + service_ms;
        let job = self
            .devices
            .get(device)
            .and_then(|sim| sim.busy_with.clone())
            .expect("start_next just set busy_with");
        self.push_event(
            finish,
            EventKind::Completion {
                device: device.to_string(),
                job,
            },
        );
    }

    // --- Completions ---------------------------------------------------------------------

    fn on_completion(&mut self, device: &str, job: &str) -> Result<(), LoadgenError> {
        {
            let sim = self.devices.get_mut(device).expect("device exists");
            // Stale event: the job was interrupted (outage) before its window
            // elapsed, so the device is busy with something else (or idle).
            if sim.busy_with.as_deref() != Some(job) {
                return Ok(());
            }
            sim.busy_with = None;
        }
        let job_name = job.to_string();
        // Execute the container on the node: transpile + simulate under the
        // device's *current* (possibly drifted) noise model. The fault
        // injector (if configured) is consulted inside this call.
        let run = self.qrio.execute(&JobId::new(&job_name));
        let fidelity = match &run {
            Ok(()) => self
                .qrio
                .cluster()
                .job(&job_name)
                .and_then(|j| j.achieved_fidelity()),
            Err(_) => None,
        };
        let track = self
            .jobs
            .get(&job_name)
            .expect("completed jobs were tracked at bind time")
            .clone();
        let start_ms = self
            .start_times
            .remove(&job_name)
            .expect("started jobs have a start time");
        {
            let sim = self.devices.get_mut(device).expect("device exists");
            sim.busy_ms += self.now - start_ms;
        }
        match run {
            Ok(()) => {
                let sim = self.devices.get_mut(device).expect("device exists");
                sim.completed += 1;
                self.samples.push(JobSample {
                    tenant: track.tenant,
                    device: device.to_string(),
                    arrival_ms: track.arrival_ms,
                    start_ms,
                    completion_ms: self.now,
                    queue_depth_at_bind: track.queue_depth_at_bind,
                    fidelity,
                    migrated: track.migrated,
                });
            }
            Err(error) => self.handle_failed_attempt(&job_name, &error),
        }
        self.note_breaker_state(device);
        let sim = self.devices.get_mut(device).expect("device exists");
        if !sim.cordoned && sim.busy_with.is_none() && !sim.queue.is_empty() {
            self.start_next(device);
        }
        Ok(())
    }

    // --- Fault handling ------------------------------------------------------------------

    /// Account for one failed execution attempt of `job_name`. When the
    /// orchestrator parked the job in `Retrying`, schedule the engine-paced
    /// retry (or cancel it when the backoff would blow the tenant deadline);
    /// otherwise the failure is terminal.
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
        let job_id = JobId::new(job_name);
        let retrying = self
            .qrio
            .job_status(&job_id)
            .map(|status| status.state == JobState::Retrying)
            .unwrap_or(false);
        if !retrying {
            self.execution_failures += 1;
            return;
        }
        let (attempts, tenant_idx) = {
            let track = self
                .jobs
                .get_mut(job_name)
                .expect("failed jobs were tracked at bind time");
            track.attempts += 1;
            (track.attempts, track.tenant_idx)
        };
        let tenant = &self.scenario.tenants[tenant_idx];
        let backoff = tenant
            .retry
            .as_ref()
            .expect("jobs only enter Retrying when the tenant set a retry policy")
            .backoff
            .delay(0, "", attempts)
            .max(1);
        let arrival = self.jobs[job_name].arrival_ms;
        let misses_deadline = tenant
            .deadline_ms
            .is_some_and(|deadline| self.now + backoff > arrival.saturating_add(deadline));
        if misses_deadline {
            // Retrying would land past the tenant's deadline: give up now
            // rather than burn a doomed attempt.
            let _ = self.qrio.cancel(&job_id);
            self.chaos.deadline_cancelled += 1;
            return;
        }
        self.push_event(
            self.now + backoff,
            EventKind::Retry {
                job: job_name.to_string(),
            },
        );
    }

    /// A retry backoff elapsed: move the job back to `Queued` and re-run the
    /// scheduling cycle (the original device may be cordoned by now).
    fn on_retry(&mut self, job: &str) {
        let job_id = JobId::new(job);
        if self.qrio.kick_retry(&job_id).is_err() {
            // Cancelled (deadline) or otherwise settled in the meantime.
            return;
        }
        self.chaos.retries += 1;
        if !self.bind(&job_id, None) {
            self.execution_failures += 1;
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

    /// A breaker's open window elapsed: probe the device. A successful probe
    /// transition (open → half-open) lifts the engine-side pause so queued
    /// work flows again while the breaker counts its probe jobs.
    fn on_probe(&mut self, device: &str) {
        self.probe_pending.remove(device);
        self.chaos.breaker_probes += 1;
        if self.qrio.probe_device(device).unwrap_or(false) {
            if let Some(sim) = self.devices.get_mut(device) {
                sim.cordoned = false;
                if sim.busy_with.is_none() && !sim.queue.is_empty() {
                    self.start_next(device);
                }
            }
        }
    }

    /// After an execution outcome, mirror the breaker's verdict into the
    /// engine's virtual queues: an `Open` breaker pauses the device (its
    /// waiting queue flees to the healthy fleet) and schedules exactly one
    /// probe for when the open window elapses.
    fn note_breaker_state(&mut self, device: &str) {
        let open = matches!(
            self.qrio.breakers().map(|board| board.state(device)),
            Some(BreakerState::Open { .. })
        );
        if !open || self.probe_pending.contains(device) {
            return;
        }
        let open_ms = self
            .scenario
            .breakers
            .as_ref()
            .map_or(1, |b| b.open_ms.max(1));
        self.probe_pending.insert(device.to_string());
        self.push_event(
            self.now + open_ms,
            EventKind::Probe {
                device: device.to_string(),
            },
        );
        if let Some(sim) = self.devices.get_mut(device) {
            sim.cordoned = true;
        }
        self.rerank_waiting(Some(device));
    }

    // --- Telemetry -----------------------------------------------------------------------

    /// Snapshot the current queue depth and utilization of every virtual
    /// device — the live signal `weighted` and `min_queue` react to, fed to
    /// the meta server via [`Qrio::report_telemetry`]. The reported queue
    /// depth equals what the cluster counts as bound jobs (waiting +
    /// in-flight); utilization is the device's busy fraction of elapsed
    /// virtual time, with the in-flight job charged only for the portion
    /// that has actually elapsed.
    fn telemetry_snapshot(&self) -> Vec<(String, DeviceTelemetry)> {
        self.devices
            .iter()
            .map(|(name, sim)| {
                let queue_depth = sim.queue.len() + usize::from(sim.busy_with.is_some());
                let in_flight_ms = sim
                    .busy_with
                    .as_ref()
                    .and_then(|job| self.start_times.get(job))
                    .map_or(0, |&start| self.now - start);
                let utilization = if self.now == 0 {
                    0.0
                } else {
                    ((sim.busy_ms + in_flight_ms) as f64 / self.now as f64).min(1.0)
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
        let in_flight = self
            .devices
            .get_mut(device)
            .and_then(|sim| sim.busy_with.take());
        if let Some(job_name) = in_flight {
            let start_ms = self
                .start_times
                .remove(&job_name)
                .expect("started jobs have a start time");
            let sim = self.devices.get_mut(device).expect("device exists");
            sim.busy_ms += self.now - start_ms;
            self.chaos.interrupted += 1;
            let error = self
                .qrio
                .interrupt(&JobId::new(&job_name))
                .expect_err("interrupting a scheduled job always fails the attempt");
            self.handle_failed_attempt(&job_name, &error);
        }
        if let Some(node) = self.qrio.cluster_mut().node_mut(device) {
            node.cordon();
        }
        if let Some(sim) = self.devices.get_mut(device) {
            sim.cordoned = true;
        }
        self.push_event(
            self.now + down_ms.max(1),
            EventKind::OutageEnd {
                device: device.to_string(),
            },
        );
        // Waiting jobs flee to the healthy part of the fleet; the in-flight
        // job finishes its window.
        self.rerank_waiting(Some(device));
    }

    fn on_outage_end(&mut self, device: &str) {
        if let Some(node) = self.qrio.cluster_mut().node_mut(device) {
            node.uncordon();
        }
        if let Some(sim) = self.devices.get_mut(device) {
            sim.cordoned = false;
            if sim.busy_with.is_none() && !sim.queue.is_empty() {
                self.start_next(device);
            }
        }
    }

    // --- Re-ranking / migration ----------------------------------------------------------

    /// Re-rank waiting jobs through [`Qrio::rank_ready`] and migrate the
    /// ones whose best device changed. `only` restricts the sweep to one
    /// device's queue (outages); `None` sweeps every queue (drift).
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
                sim.queue
                    .iter()
                    .map(|job| (device.clone(), job.clone(), sim.cordoned))
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
            if self.qrio.rebind(&job_id, &best_device).is_err() {
                continue;
            }
            let from_sim = self.devices.get_mut(&device).expect("device exists");
            from_sim.queue.retain(|name| name != &job_name);
            if let Some(track) = self.jobs.get_mut(&job_name) {
                track.migrated = true;
            }
            self.migrations += 1;
            self.enqueue(&best_device, job_name);
        }
    }

    // --- Report --------------------------------------------------------------------------

    fn into_report(self) -> CloudReport {
        let makespan = self.makespan;
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
