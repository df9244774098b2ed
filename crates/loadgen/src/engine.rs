//! The virtual-time discrete-event engine: drives the full QRIO stack
//! through the orchestrator's **public job-lifecycle API** — non-blocking
//! enqueue → telemetry-aware scheduling → per-device queues → simulated
//! execution — with multi-tenant arrival streams, calibration drift and
//! outages.
//!
//! # Model
//!
//! Virtual time is an integer millisecond clock; the engine never reads the
//! wall clock. Events (job arrivals, drift, outage start/end, fault-rate
//! changes) live in a binary heap ordered by `(time, sequence)`, so the
//! processing order is a pure function of the scenario and its seed.
//!
//! The engine is an adapter over one service model, the orchestrator's: it
//! installs the scenario's `serviceBaseUs`, `servicePerShotUs` and per-device
//! `speed` with [`Qrio::configure_service`], and from then on *when* a device
//! serves is [`Qrio`]'s. Each device serves the head of its queue, one job at
//! a time, for `(serviceBaseUs + shots·servicePerShotUs) / speed`; the job is
//! `Running` from the start of that window and is executed — transpiled and
//! simulated under the device's *current*, possibly drifted, noise model — at
//! its end, so calibration drift degrades the fidelity of jobs that finish
//! after it, producing a real fidelity-vs-load signal.
//!
//! There is **one clock**, the orchestrator's: every popped event first
//! moves it to the event's time with [`Qrio::advance_to`], which fires what
//! is due on the way — breaker probes, deadlines, retry backoffs (a re-queued
//! retry is bound again right there), then the service windows that close,
//! in device-name order — so every watch-log and breaker event is stamped in
//! virtual ms. The engine keeps one `Wake` event at [`Qrio::next_due`] so the
//! clock reaches each of them on time. The tie rule follows: **what is due
//! at a millisecond happens before any other event of that millisecond** — a
//! retry whose backoff ends at `t` binds, and a job whose window closes at
//! `t` completes, before a job arriving at `t` is bound.
//!
//! What is left to the engine is the scenario:
//!
//! * an arrival runs the *real* submission path, [`Qrio::enqueue`] (metadata
//!   upload with strategy validation, containerization, image push), then
//!   [`Qrio::schedule`] — the filter + meta-rank cycle, against the load the
//!   service model says each device carries — which puts the job at the tail
//!   of the chosen device's queue;
//! * a drift rewrites the device's calibration with
//!   [`Qrio::recalibrate_device`], which re-ranks every waiting job and
//!   migrates the ones whose best device changed;
//! * an outage interrupts the job in service ([`Qrio::interrupt`]) and
//!   cordons the device ([`Qrio::cordon_device`]), whose waiting jobs flee;
//!   [`Qrio::uncordon_device`] ends it, and the device serves again;
//! * a fault-rate change swaps the fault injector.
//!
//! The engine keeps no record of the run beside the orchestrator's. The
//! report is one fold over the finished run's record,
//! [`CloudReport::from_log`]: its watch log, read once in order, and what
//! the finished [`Qrio`] holds. The one thing the record cannot say — which
//! device flaps were an outage's — is the engine's one counter.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qrio::{FidelityRankingConfig, JobId, JobRequestBuilder, JobState, Qrio, ServiceModel};
use qrio_backend::Backend;
use qrio_cluster::{FaultInjector, Resources};
use qrio_journal::fnv1a;

use crate::arrival::ArrivalSampler;
use crate::error::LoadgenError;
use crate::metrics::{job_name, CloudReport};
use crate::scenario::{Scenario, ScenarioEvent};

/// Classical resources requested per simulated job (tiny, so queue depth —
/// not the classical-resource fit — is the binding constraint, as on real
/// quantum clouds).
const JOB_RESOURCES: (u64, u64) = (10, 16);

/// Classical node capacity (effectively unbounded relative to
/// [`JOB_RESOURCES`]).
const NODE_RESOURCES: (u64, u64) = (1 << 30, 1 << 30);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// The next arrival of one tenant's stream.
    Arrival { tenant: usize },
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

/// An event of the timeline: `(time, sequence, kind)`. The heap pops the
/// earliest `(time, sequence)` first; sequences are unique, so the kind
/// never decides.
type Event = Reverse<(u64, u64, EventKind)>;

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
    Ok((engine.report(), log))
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
    Ok(engine.report())
}

struct Engine<'s> {
    scenario: &'s Scenario,
    /// The QRIO deployment under test, driven exclusively through its public
    /// lifecycle API.
    qrio: Qrio,
    samplers: Vec<ArrivalSampler>,
    tenant_job_counters: Vec<u64>,
    heap: BinaryHeap<Event>,
    next_seq: u64,
    /// The time of the one live `Wake` on the heap: [`Qrio::next_due`] as of
    /// the last event.
    wake: Option<u64>,
    /// Jobs in service an outage interrupted.
    interrupted: u64,
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
        for spec in &scenario.fleet {
            qrio.add_device_with_resources(
                spec.backend(),
                Resources::new(NODE_RESOURCES.0, NODE_RESOURCES.1),
            )
            .map_err(|e| LoadgenError::Engine(format!("cannot add node: {e}")))?;
        }
        let samplers = scenario
            .tenants
            .iter()
            .map(|t| ArrivalSampler::new(t.arrival, scenario.seed ^ fnv1a(&t.name)))
            .collect();
        qrio.configure_breakers(scenario.breakers)
            .map_err(|e| LoadgenError::Engine(format!("cannot configure breakers: {e}")))?;
        let speeds = scenario
            .fleet
            .iter()
            .map(|spec| (spec.name.clone(), spec.speed));
        let model = ServiceModel {
            base_us: scenario.service_base_us,
            per_shot_us: scenario.service_per_shot_us,
            speeds: speeds.collect(),
        };
        qrio.configure_service(Some(model))
            .map_err(|e| LoadgenError::Engine(format!("cannot configure service: {e}")))?;
        Ok(Engine {
            scenario,
            qrio,
            samplers,
            tenant_job_counters: vec![0; scenario.tenants.len()],
            heap: BinaryHeap::new(),
            next_seq: 0,
            wake: None,
            interrupted: 0,
        })
    }

    /// The finished run's report: [`CloudReport::from_log`].
    fn report(&self) -> CloudReport {
        CloudReport::from_log(self.scenario, &self.qrio, self.interrupted)
    }

    fn push_event(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq, kind)));
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

        while let Some(Reverse((time, _, kind))) = self.heap.pop() {
            if kind == EventKind::Wake && self.wake != Some(time) {
                continue;
            }
            self.qrio
                .advance_to(time)
                .map_err(|e| LoadgenError::Engine(format!("cannot advance the clock: {e}")))?;
            match kind {
                EventKind::Arrival { tenant } => self.on_arrival(tenant)?,
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
                    )?,
                },
                EventKind::OutageEnd { device } => {
                    let _ = self.qrio.uncordon_device(&device);
                }
                EventKind::Wake => {}
            }
            // A timer armed for a time already reached (an open interval of
            // zero) fires at the present.
            let due = self.qrio.next_due().map(|due| due.max(time));
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
        // Every job numbered was enqueued: a failure in between ends the run.
        let submitted: u64 = self.tenant_job_counters.iter().sum();
        let under_cap = self.scenario.max_jobs == 0 || submitted < self.scenario.max_jobs;
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
        let job_name = job_name(&tenant.name, index);
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

        // 2. Scheduling cycle, then the chosen device's queue. A job no
        //    eligible device can host (outage window, oversized circuit,
        //    ...) ends `Failed`, never bound: the report counts it rejected.
        let _ = self.qrio.schedule(&job_id);
        Ok(())
    }

    // --- Faults, drift and outages --------------------------------------------------------

    /// A `faults` timeline event: swap the cluster's fault injector for one
    /// with the new rates (or remove it entirely when all rates are zero).
    fn on_fault_rates(
        &mut self,
        transient: f64,
        calibration: f64,
        slow: f64,
        flap: f64,
    ) -> Result<(), LoadgenError> {
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
            .map_err(|e| LoadgenError::Engine(format!("cannot configure faults: {e}")))
    }

    fn on_drift(&mut self, device: &str, factor: f64) -> Result<(), LoadgenError> {
        let Some(backend) = self.qrio.meta().backend(device).cloned() else {
            return Ok(());
        };
        let drifted = drift_backend(&backend, factor)?;
        // New calibration revision in the meta server (the scores memoized
        // against the old calibration are dropped), recomputed
        // node labels in the cluster and the waiting jobs re-ranked, in one
        // public call.
        self.qrio
            .recalibrate_device(drifted)
            .map_err(|e| LoadgenError::Engine(format!("drift update failed: {e}")))
    }

    fn on_outage_start(&mut self, device: &str, down_ms: u64) {
        // A device dying mid-shot kills the attempt in service: surface it
        // through the orchestrator as an injected device-flap fault (it may
        // retry, per its policy) instead of letting its window silently
        // close later. Interrupt *before* cordoning so the outage-end
        // uncordon restores the node cleanly.
        let head = self.qrio.device_queue(device).next().map(JobId::new);
        if let Some(job) = head.filter(|job| self.qrio.status(job).ok() == Some(JobState::Running))
        {
            self.interrupted += 1;
            let _ = self.qrio.interrupt(&job);
        }
        // Journaled and told to the node's agent, like any vendor's cordon;
        // the waiting jobs flee to the healthy part of the fleet.
        let _ = self.qrio.cordon_device(device);
        let end = self.qrio.now() + down_ms.max(1);
        let device = device.to_string();
        self.push_event(end, EventKind::OutageEnd { device });
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
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let kind = |d: &str| EventKind::OutageEnd { device: d.into() };
        // Sequence 1 sorts before 0 by kind alone: the sequence decides.
        heap.push(Reverse((5, 1, kind("a"))));
        heap.push(Reverse((5, 0, kind("b"))));
        heap.push(Reverse((1, 2, kind("c"))));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse((time, seq, _))| (time, seq))
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
        // outage at 100 ms. Without the interrupt path the window would
        // close at 600 ms and silently mark the job successful.
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
        // cause is the injected device flap.
        let failed = log
            .iter()
            .find(|e| e.to == qrio::JobState::Failed)
            .and_then(|e| e.cause.as_deref())
            .expect("interrupted job emits a Failed event with a cause");
        assert!(
            matches!(
                failed.error(),
                Some(qrio_cluster::ClusterError::InjectedFault {
                    kind: qrio_cluster::FaultKind::DeviceFlap,
                    ..
                })
            ),
            "the cause should be the flap fault, got: {failed}"
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
        let waiter: Vec<(u64, JobState)> = log
            .iter()
            .filter(|event| event.job.as_str() == "alice-1" && event.at >= 100)
            .map(|event| (event.at, event.to))
            .collect();
        use JobState::*;
        assert_eq!(waiter, [(200, Running), (800, Succeeded)]);
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
        let report = engine.report();
        let chaos = report.chaos.as_ref().expect("breakers imply chaos");
        assert_eq!((chaos.breaker_probes, chaos.breaker_trips), (1, 1));
        assert_eq!((chaos.interrupted, chaos.injected_flap), (1, 1));
        // Nothing started on the device while its breaker was open: the
        // waiter's 600 ms window runs from the probe (and the outage's end)
        // at 600 to 1200, and the watch log is stamped with the virtual ms of
        // each transition — `Running` when service starts, the end when the
        // window closes or is cut short.
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
                (t, Running),
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
                (600, Running),
                (1200, Succeeded)
            ]
        );
        assert!(log.windows(2).all(|pair| pair[0].at <= pair[1].at));
        assert_eq!(engine.qrio.now(), 1200);
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
