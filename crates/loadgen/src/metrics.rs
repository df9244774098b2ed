//! Workload metrics: the [`CloudReport`] of a finished run — per-tenant
//! latency percentiles, per-device utilization, the fidelity-vs-load curve —
//! and its deterministic `BENCH_cloud.json` rendering.
//!
//! The report is one fold over the finished run's record:
//! `CloudReport::from_log` makes one in-order pass over the orchestrator's
//! watch log — whose typed causes name each injected fault and each blown
//! deadline — and reads the rest off the finished [`Qrio`]: each success's
//! achieved fidelity, the dead letters, the breaker board, the strategy
//! cache and the clock. Nothing else keeps a
//! ledger of the run.
//!
//! Everything here is computed from virtual-time integers and seeded
//! simulations, and rendered with fixed-precision formatting over ordered
//! (`BTreeMap`) containers — so a scenario's report is **byte-identical**
//! across runs with the same seed, and tests can assert on the rendered
//! JSON directly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use qrio::{BreakerBoard, BreakerEvent, BreakerState, Cause, JobEvent, JobState, Qrio};
use qrio_cluster::{ClusterError, FaultKind};

use crate::scenario::{Scenario, ScenarioEvent};

/// The name of `tenant`'s `index`-th job, `{tenant}-{index}`: the report
/// reads a job's tenant back from it with [`tenant_of`].
pub(crate) fn job_name(tenant: &str, index: u64) -> String {
    format!("{tenant}-{index}")
}

/// The tenant that owns a job named by [`job_name`].
fn tenant_of(job: &str) -> &str {
    job.rsplit_once('-').map_or(job, |(tenant, _)| tenant)
}

/// One submitted job as the watch log shows it; a success becomes a sample.
#[derive(Debug, Clone, PartialEq, Default)]
struct JobSample<'a> {
    /// Owning tenant.
    tenant: &'a str,
    /// Device the job is bound to or ran on; empty while it never was bound.
    device: &'a str,
    /// Virtual arrival instant (ms).
    arrival_ms: u64,
    /// Virtual start of the job's last attempt (ms).
    start_ms: u64,
    /// Virtual completion instant (ms).
    completion_ms: u64,
    /// Jobs already queued or running on the chosen device at the job's last
    /// bind — the load it experienced (a retry's re-bind overwrites it).
    queue_depth_at_bind: usize,
    /// Fidelity achieved against the noise-free reference, when computed.
    fidelity: Option<f64>,
}

impl JobSample<'_> {
    /// Queueing delay: arrival to the start of the last attempt (ms), so a
    /// retried job's earlier attempts and backoffs count as waiting.
    fn wait_ms(&self) -> u64 {
        self.start_ms.saturating_sub(self.arrival_ms)
    }

    /// End-to-end sojourn time: arrival to completion (ms).
    fn latency_ms(&self) -> u64 {
        self.completion_ms.saturating_sub(self.arrival_ms)
    }
}

/// One device as the fold goes: its queue and its totals so far (busy time
/// is every attempt from `Running` to its end; utilization waits for the
/// makespan).
#[derive(Debug, Default)]
struct DeviceSim {
    /// Jobs in its queue, the one in service included.
    queued: usize,
    stats: DeviceStats,
}

impl DeviceSim {
    /// A job joined the tail of the queue (bound or migrated here).
    fn join(&mut self) {
        self.queued += 1;
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queued);
    }
}

/// What one in-order pass over a watch log adds up to.
#[derive(Debug, Default)]
struct Tally<'a> {
    /// Every submitted job, by name.
    jobs: BTreeMap<&'a str, JobSample<'a>>,
    /// Every device of the fleet, and any other a job was bound to.
    devices: BTreeMap<&'a str, DeviceSim>,
    /// The jobs that succeeded, in the order they did.
    samples: Vec<JobSample<'a>>,
    /// Jobs bound at some point that then failed, not by a deadline.
    execution_failures: u64,
    /// `Scheduled → Scheduled` events.
    migrations: u64,
    /// Injected faults, retries and blown deadlines; the rest stays zero.
    chaos: ChaosStats,
}

impl<'a> Tally<'a> {
    /// Fold `log`, event by event: a submission starts the job's sample; a
    /// bind notes the depth the job met and joins the queue, a migration
    /// moves it, a bound job's cancellation leaves it; `Running` starts an
    /// attempt, and the attempt's end leaves the queue, charges the device
    /// the time served, counts the injected fault its cause holds and — for
    /// a success — records the sample with the `fidelity` it achieved. A
    /// retry's re-queue counts, and a failure is a blown deadline or, for a
    /// job once bound, an execution failure; one never bound is a
    /// rejection, which its sample's empty device says.
    fn fold(
        log: &'a [JobEvent],
        fleet: impl IntoIterator<Item = &'a str>,
        fidelity: impl Fn(&str) -> Option<f64>,
    ) -> Self {
        let mut tally = Tally::default();
        let devices = fleet.into_iter().map(|name| (name, DeviceSim::default()));
        tally.devices.extend(devices);
        for event in log {
            let name = event.job.as_str();
            let Some(from) = event.from else {
                let sample = JobSample {
                    tenant: tenant_of(name),
                    arrival_ms: event.at,
                    ..JobSample::default()
                };
                tally.jobs.insert(name, sample);
                continue;
            };
            let Some(job) = tally.jobs.get_mut(name) else {
                continue;
            };
            if (from, event.to) == (JobState::Retrying, JobState::Queued) {
                tally.chaos.retries += 1;
            }
            let error = event.cause.as_deref().and_then(Cause::error);
            if event.to == JobState::Failed {
                if matches!(error, Some(ClusterError::DeadlineExceeded { .. })) {
                    tally.chaos.deadline_cancelled += 1;
                } else if !job.device.is_empty() {
                    tally.execution_failures += 1;
                }
            }
            // Every event of a bound job names its device; the others change
            // no device.
            let Some(node) = event.node.as_deref() else {
                continue;
            };
            let device = tally.devices.entry(node).or_default();
            match (from, event.to) {
                (JobState::Queued, JobState::Scheduled) => {
                    job.queue_depth_at_bind = device.queued;
                    device.join();
                    job.device = node;
                }
                (JobState::Scheduled, JobState::Scheduled) => {
                    device.join();
                    let from = std::mem::replace(&mut job.device, node);
                    tally.devices.entry(from).or_default().queued -= 1;
                    tally.migrations += 1;
                }
                (JobState::Scheduled, JobState::Cancelled) => device.queued -= 1,
                (_, JobState::Running) => job.start_ms = event.at,
                (JobState::Running, to) => {
                    device.queued -= 1;
                    device.stats.busy_ms += event.at - job.start_ms;
                    if let Some(ClusterError::InjectedFault { kind, .. }) = error {
                        *tally.chaos.injected(*kind) += 1;
                    }
                    if to == JobState::Succeeded {
                        device.stats.completed += 1;
                        job.fidelity = fidelity(name);
                        job.completion_ms = event.at;
                        tally.samples.push(job.clone());
                    }
                }
                _ => {}
            }
        }
        tally
    }
}

/// Nearest-rank percentile of a sorted slice (`q` in `[0, 1]`); `0` for an
/// empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregate statistics for one tenant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantStats {
    /// Jobs the tenant submitted.
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs rejected at scheduling time (no eligible device).
    pub rejected: u64,
    /// Completed jobs per virtual second of makespan.
    pub throughput_per_sec: f64,
    /// Median queueing delay (ms).
    pub p50_wait_ms: u64,
    /// 95th-percentile queueing delay (ms).
    pub p95_wait_ms: u64,
    /// Median end-to-end latency (ms).
    pub p50_latency_ms: u64,
    /// 95th-percentile end-to-end latency (ms).
    pub p95_latency_ms: u64,
    /// Mean achieved fidelity over completed jobs that report one.
    pub mean_fidelity: f64,
}

/// Aggregate statistics for one device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceStats {
    /// Jobs the device completed.
    pub completed: u64,
    /// Total busy time (virtual ms).
    pub busy_ms: u64,
    /// Busy time divided by makespan.
    pub utilization: f64,
    /// Largest queue observed behind the device.
    pub peak_queue_depth: usize,
}

/// Mean fidelity and latency of jobs that were bound at a given queue depth —
/// one point of the fidelity-vs-load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBucket {
    /// Queue depth at bind time (the last bucket pools `>= POOLED_DEPTH`).
    pub queue_depth: usize,
    /// Jobs in the bucket.
    pub jobs: u64,
    /// Mean achieved fidelity of the bucket's jobs.
    pub mean_fidelity: f64,
    /// Mean end-to-end latency (ms) of the bucket's jobs.
    pub mean_latency_ms: f64,
}

/// Queue depths at or above this value pool into one bucket.
pub const POOLED_DEPTH: usize = 5;

/// Fault-tolerance statistics of one chaos run. Only present (and only
/// rendered into the JSON report) when the scenario actually exercises the
/// fault machinery — chaos-free reports keep their exact previous shape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosStats {
    /// Injected transient execution errors.
    pub injected_transient: u64,
    /// Injected calibration glitches.
    pub injected_calibration: u64,
    /// Injected hung/slow jobs.
    pub injected_slow: u64,
    /// Injected device flaps (fault injector and outage interrupts).
    pub injected_flap: u64,
    /// Retry attempts actually re-submitted after backoff.
    pub retries: u64,
    /// Jobs interrupted mid-execution by a device outage.
    pub interrupted: u64,
    /// Jobs that expired: still waiting out a backoff when the orchestrator's
    /// clock passed their deadline (the field name is the report's key).
    pub deadline_cancelled: u64,
    /// Jobs that exhausted their retry budget and were dead-lettered.
    pub dead_lettered: u64,
    /// Circuit-breaker trips across the fleet.
    pub breaker_trips: u64,
    /// Circuit-breaker probes issued after open windows elapsed.
    pub breaker_probes: u64,
    /// Successfully completed jobs per virtual second of makespan — the
    /// goodput that survives the configured fault schedule.
    pub goodput_per_sec: f64,
}

impl ChaosStats {
    /// The counter of injected faults of `kind`.
    fn injected(&mut self, kind: FaultKind) -> &mut u64 {
        match kind {
            FaultKind::TransientExecution => &mut self.injected_transient,
            FaultKind::CalibrationGlitch => &mut self.injected_calibration,
            FaultKind::SlowJob => &mut self.injected_slow,
            FaultKind::DeviceFlap => &mut self.injected_flap,
        }
    }
}

/// The full report of one scenario run — everything `BENCH_cloud.json`
/// serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudReport {
    /// Benchmark name rendered into the report (`bench_cloud`,
    /// `bench_chaos`).
    pub benchmark: String,
    /// Scenario name.
    pub scenario: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Configured arrival horizon (ms).
    pub duration_ms: u64,
    /// Instant the last event fired (ms) — queued work drains past the
    /// horizon.
    pub makespan_ms: u64,
    /// Total jobs submitted.
    pub submitted: u64,
    /// Total jobs completed.
    pub completed: u64,
    /// Total jobs rejected at scheduling time.
    pub rejected: u64,
    /// Total jobs whose execution failed on the node.
    pub execution_failures: u64,
    /// Migrations: `Scheduled → Scheduled` events, each a waiting job moved
    /// to another device by drift or outage re-ranking. A job that moves
    /// twice counts twice.
    pub migrations: u64,
    /// Calibration-drift events applied.
    pub drift_events: u64,
    /// Outage events applied.
    pub outage_events: u64,
    /// Per-tenant statistics, in tenant order.
    pub tenants: BTreeMap<String, TenantStats>,
    /// Per-device statistics, in device order.
    pub devices: BTreeMap<String, DeviceStats>,
    /// Fidelity-vs-load curve over queue depth at bind time.
    pub fidelity_vs_load: Vec<LoadBucket>,
    /// Strategy-cache hits in the meta server.
    pub cache_hits: u64,
    /// Strategy-cache misses in the meta server.
    pub cache_misses: u64,
    /// Strategy-cache hit rate.
    pub cache_hit_rate: f64,
    /// Fault-tolerance statistics (`None` for chaos-free scenarios, which
    /// keeps their JSON byte-identical to pre-chaos builds).
    pub chaos: Option<ChaosStats>,
}

/// Build per-tenant stats: every submitted job counts, as rejected when it
/// was never bound, and the samples (completed jobs, in completion order)
/// give the percentiles and the mean fidelity.
fn tenant_stats<'a>(
    jobs: impl IntoIterator<Item = &'a JobSample<'a>>,
    samples: &[JobSample<'a>],
    makespan_ms: u64,
) -> BTreeMap<String, TenantStats> {
    let mut stats: BTreeMap<&str, TenantStats> = BTreeMap::new();
    for job in jobs {
        let entry = stats.entry(job.tenant).or_default();
        entry.submitted += 1;
        entry.rejected += u64::from(job.device.is_empty());
    }
    let mut by_tenant: BTreeMap<&str, Vec<&JobSample<'_>>> = BTreeMap::new();
    for sample in samples {
        by_tenant.entry(sample.tenant).or_default().push(sample);
    }
    for (tenant, samples) in by_tenant {
        let entry = stats.entry(tenant).or_default();
        entry.completed = samples.len() as u64;
        (entry.p50_wait_ms, entry.p95_wait_ms) = p50_p95(samples.iter().map(|s| s.wait_ms()));
        let latencies = samples.iter().map(|s| s.latency_ms());
        (entry.p50_latency_ms, entry.p95_latency_ms) = p50_p95(latencies);
        let fidelities: Vec<f64> = samples.iter().filter_map(|s| s.fidelity).collect();
        if !fidelities.is_empty() {
            let sum = fidelities.iter().fold(0.0, |sum, f| sum + f);
            entry.mean_fidelity = sum / fidelities.len() as f64;
        }
    }
    let makespan_s = makespan_ms.max(1) as f64 / 1000.0;
    let stats = stats.into_iter().map(|(tenant, mut entry)| {
        entry.throughput_per_sec = entry.completed as f64 / makespan_s;
        (tenant.to_string(), entry)
    });
    stats.collect()
}

/// The median and 95th percentile of `values`.
fn p50_p95(values: impl Iterator<Item = u64>) -> (u64, u64) {
    let mut sorted: Vec<u64> = values.collect();
    sorted.sort_unstable();
    (percentile(&sorted, 0.50), percentile(&sorted, 0.95))
}

/// Build the fidelity-vs-load curve: bucket completed jobs by queue depth at
/// bind time (pooling depths `>= POOLED_DEPTH`).
fn fidelity_vs_load(samples: &[JobSample<'_>]) -> Vec<LoadBucket> {
    let mut buckets: BTreeMap<usize, (u64, f64, u64, f64)> = BTreeMap::new();
    for sample in samples {
        let depth = sample.queue_depth_at_bind.min(POOLED_DEPTH);
        let slot = buckets.entry(depth).or_default();
        slot.2 += 1;
        slot.3 += sample.latency_ms() as f64;
        if let Some(f) = sample.fidelity {
            slot.0 += 1;
            slot.1 += f;
        }
    }
    buckets
        .into_iter()
        .map(|(depth, (f_n, f_sum, jobs, lat_sum))| LoadBucket {
            queue_depth: depth,
            jobs,
            mean_fidelity: if f_n > 0 { f_sum / f_n as f64 } else { 0.0 },
            mean_latency_ms: if jobs > 0 { lat_sum / jobs as f64 } else { 0.0 },
        })
        .collect()
}

/// Render a float with six decimals — enough precision for the report while
/// keeping the rendering locale-free and byte-stable.
fn f6(value: f64) -> String {
    format!("{value:.6}")
}

/// Escape a name for use inside a JSON string literal (scenario, tenant and
/// device names come from user-authored YAML and may contain quotes,
/// backslashes or control characters).
fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl CloudReport {
    /// The report of a finished run of `scenario`: one in-order pass over
    /// `qrio`'s watch log (a failure whose cause is a blown deadline is not
    /// an execution failure), plus what the finished orchestrator holds —
    /// each success's achieved fidelity, the dead letters, the breaker
    /// board's trips and its `Open → HalfOpen` probes, the strategy cache,
    /// and the clock, which is the makespan. Drift and outage counts are the
    /// scenario's own events, all of which a run applies. `interrupted`
    /// counts the jobs in service an outage cut short: that device flap
    /// leaves the log entries an injected one does, so only the caller that
    /// caused it can tell them apart.
    ///
    /// Samples are taken in the order of their `Succeeded` events, so every
    /// mean sums its floats in that order.
    pub(crate) fn from_log(scenario: &Scenario, qrio: &Qrio, interrupted: u64) -> CloudReport {
        let fleet = scenario.fleet.iter().map(|spec| spec.name.as_str());
        let fidelity = |job: &str| qrio.cluster().job(job)?.achieved_fidelity();
        let tally = Tally::fold(qrio.watch(0), fleet, fidelity);
        let makespan = qrio.now();
        let tenants = tenant_stats(tally.jobs.values(), &tally.samples, makespan);
        let mut devices = BTreeMap::new();
        for (name, DeviceSim { mut stats, .. }) in tally.devices {
            stats.utilization = (stats.busy_ms as f64 / makespan.max(1) as f64).min(1.0);
            devices.insert(name.to_string(), stats);
        }
        let events = |kind: fn(&ScenarioEvent) -> bool| {
            scenario.events.iter().filter(|event| kind(event)).count() as u64
        };
        let completed = tally.samples.len() as u64;
        // A breaker only ever enters `HalfOpen` from `Open`: each is a probe.
        let probing = |event: &&BreakerEvent| matches!(event.to, BreakerState::HalfOpen { .. });
        let probes = |board: &BreakerBoard| board.events().iter().filter(probing).count() as u64;
        let board = qrio.breakers();
        let chaos = scenario.has_chaos().then(|| ChaosStats {
            interrupted,
            dead_lettered: qrio.dead_letters().len() as u64,
            breaker_trips: board.map_or(0, BreakerBoard::total_trips),
            breaker_probes: board.map_or(0, probes),
            goodput_per_sec: completed as f64 / (makespan.max(1) as f64 / 1000.0),
            ..tally.chaos.clone()
        });
        let cache = qrio.meta().cache_stats();
        CloudReport {
            benchmark: "bench_cloud".to_string(),
            scenario: scenario.name.clone(),
            seed: scenario.seed,
            duration_ms: scenario.duration_ms,
            makespan_ms: makespan,
            submitted: tally.jobs.len() as u64,
            completed,
            rejected: tenants.values().map(|tenant| tenant.rejected).sum(),
            execution_failures: tally.execution_failures,
            migrations: tally.migrations,
            drift_events: events(|event| matches!(event, ScenarioEvent::Drift { .. })),
            outage_events: events(|event| matches!(event, ScenarioEvent::Outage { .. })),
            tenants,
            devices,
            fidelity_vs_load: fidelity_vs_load(&tally.samples),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_hit_rate: cache.hit_rate(),
            chaos,
        }
    }

    /// Render the report as the `BENCH_cloud.json` document. The rendering is
    /// deterministic: ordered maps, fixed float precision, no timestamps.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"benchmark\": \"{}\",",
            escape_json(&self.benchmark)
        );
        let _ = writeln!(out, "  \"scenario\": \"{}\",", escape_json(&self.scenario));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"duration_ms\": {},", self.duration_ms);
        let _ = writeln!(out, "  \"makespan_ms\": {},", self.makespan_ms);
        out.push_str("  \"jobs\": {\n");
        let _ = writeln!(out, "    \"submitted\": {},", self.submitted);
        let _ = writeln!(out, "    \"completed\": {},", self.completed);
        let _ = writeln!(out, "    \"rejected\": {},", self.rejected);
        let _ = writeln!(
            out,
            "    \"execution_failures\": {},",
            self.execution_failures
        );
        let _ = writeln!(out, "    \"migrations\": {}", self.migrations);
        out.push_str("  },\n");
        out.push_str("  \"events\": {\n");
        let _ = writeln!(out, "    \"drift\": {},", self.drift_events);
        let _ = writeln!(out, "    \"outage\": {}", self.outage_events);
        out.push_str("  },\n");

        if let Some(chaos) = &self.chaos {
            out.push_str("  \"chaos\": {\n");
            out.push_str("    \"injected\": {\n");
            let _ = writeln!(out, "      \"transient\": {},", chaos.injected_transient);
            let _ = writeln!(
                out,
                "      \"calibration\": {},",
                chaos.injected_calibration
            );
            let _ = writeln!(out, "      \"slow\": {},", chaos.injected_slow);
            let _ = writeln!(out, "      \"flap\": {}", chaos.injected_flap);
            out.push_str("    },\n");
            let _ = writeln!(out, "    \"retries\": {},", chaos.retries);
            let _ = writeln!(out, "    \"interrupted\": {},", chaos.interrupted);
            let _ = writeln!(
                out,
                "    \"deadline_cancelled\": {},",
                chaos.deadline_cancelled
            );
            let _ = writeln!(out, "    \"dead_lettered\": {},", chaos.dead_lettered);
            let _ = writeln!(out, "    \"breaker_trips\": {},", chaos.breaker_trips);
            let _ = writeln!(out, "    \"breaker_probes\": {},", chaos.breaker_probes);
            let _ = writeln!(
                out,
                "    \"goodput_per_sec\": {}",
                f6(chaos.goodput_per_sec)
            );
            out.push_str("  },\n");
        }

        out.push_str("  \"tenants\": {\n");
        let last = self.tenants.len();
        for (index, (tenant, stats)) in self.tenants.iter().enumerate() {
            let _ = writeln!(out, "    \"{}\": {{", escape_json(tenant));
            let _ = writeln!(out, "      \"submitted\": {},", stats.submitted);
            let _ = writeln!(out, "      \"completed\": {},", stats.completed);
            let _ = writeln!(out, "      \"rejected\": {},", stats.rejected);
            let _ = writeln!(
                out,
                "      \"throughput_per_sec\": {},",
                f6(stats.throughput_per_sec)
            );
            let _ = writeln!(out, "      \"p50_wait_ms\": {},", stats.p50_wait_ms);
            let _ = writeln!(out, "      \"p95_wait_ms\": {},", stats.p95_wait_ms);
            let _ = writeln!(out, "      \"p50_latency_ms\": {},", stats.p50_latency_ms);
            let _ = writeln!(out, "      \"p95_latency_ms\": {},", stats.p95_latency_ms);
            let _ = writeln!(out, "      \"mean_fidelity\": {}", f6(stats.mean_fidelity));
            let comma = if index + 1 == last { "" } else { "," };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  },\n");

        out.push_str("  \"devices\": {\n");
        let last = self.devices.len();
        for (index, (device, stats)) in self.devices.iter().enumerate() {
            let _ = writeln!(out, "    \"{}\": {{", escape_json(device));
            let _ = writeln!(out, "      \"completed\": {},", stats.completed);
            let _ = writeln!(out, "      \"busy_ms\": {},", stats.busy_ms);
            let _ = writeln!(out, "      \"utilization\": {},", f6(stats.utilization));
            let _ = writeln!(
                out,
                "      \"peak_queue_depth\": {}",
                stats.peak_queue_depth
            );
            let comma = if index + 1 == last { "" } else { "," };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  },\n");

        out.push_str("  \"fidelity_vs_load\": [\n");
        let last = self.fidelity_vs_load.len();
        for (index, bucket) in self.fidelity_vs_load.iter().enumerate() {
            let depth = if bucket.queue_depth >= POOLED_DEPTH {
                format!("\"{}+\"", POOLED_DEPTH)
            } else {
                format!("\"{}\"", bucket.queue_depth)
            };
            let comma = if index + 1 == last { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"queue_depth\": {depth}, \"jobs\": {}, \"mean_fidelity\": {}, \"mean_latency_ms\": {}}}{comma}",
                bucket.jobs,
                f6(bucket.mean_fidelity),
                f6(bucket.mean_latency_ms)
            );
        }
        out.push_str("  ],\n");

        out.push_str("  \"strategy_cache\": {\n");
        let _ = writeln!(out, "    \"hits\": {},", self.cache_hits);
        let _ = writeln!(out, "    \"misses\": {},", self.cache_misses);
        let _ = writeln!(out, "    \"hit_rate\": {}", f6(self.cache_hit_rate));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tenant: &str, arrival: u64, start: u64, done: u64, depth: usize) -> JobSample<'_> {
        JobSample {
            tenant,
            device: "dev",
            arrival_ms: arrival,
            start_ms: start,
            completion_ms: done,
            queue_depth_at_bind: depth,
            fidelity: Some(0.9),
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&values, 0.50), 50);
        assert_eq!(percentile(&values, 0.95), 95);
        assert_eq!(percentile(&values, 1.0), 100);
        assert_eq!(percentile(&values, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.95), 7);
    }

    #[test]
    fn tenant_stats_aggregate_latencies_and_fidelity() {
        let samples = vec![
            sample("a", 0, 10, 110, 1),
            sample("a", 0, 0, 50, 0),
            sample("b", 5, 5, 25, 0),
        ];
        // Three jobs of `a`, one never bound; one of `b`.
        let unbound = JobSample {
            tenant: "a",
            ..JobSample::default()
        };
        let stats = tenant_stats(samples.iter().chain([&unbound]), &samples, 1000);
        let a = &stats["a"];
        assert_eq!(a.submitted, 3);
        assert_eq!(a.completed, 2);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.p50_wait_ms, 0);
        assert_eq!(a.p95_wait_ms, 10);
        assert_eq!(a.p50_latency_ms, 50);
        assert_eq!(a.p95_latency_ms, 110);
        assert!((a.mean_fidelity - 0.9).abs() < 1e-12);
        assert!((a.throughput_per_sec - 2.0).abs() < 1e-12);
        assert_eq!(stats["b"].completed, 1);
    }

    #[test]
    fn load_buckets_pool_deep_queues() {
        let samples = vec![
            sample("a", 0, 0, 10, 0),
            sample("a", 0, 0, 20, 1),
            sample("a", 0, 0, 30, 9),
            sample("a", 0, 0, 40, 7),
        ];
        let curve = fidelity_vs_load(&samples);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].queue_depth, 0);
        assert_eq!(curve[2].queue_depth, POOLED_DEPTH);
        assert_eq!(curve[2].jobs, 2);
        assert!((curve[2].mean_latency_ms - 35.0).abs() < 1e-12);
    }

    #[test]
    fn names_are_json_escaped() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("back\\slash"), "back\\\\slash");
        assert_eq!(escape_json("nl\nnl"), "nl\\nnl");
        assert_eq!(escape_json("bell\u{7}"), "bell\\u0007");
        // End to end: a report whose names need escaping still renders
        // balanced JSON with no raw quotes inside string literals.
        let mut samples = vec![sample("ten\"ant", 0, 0, 10, 0)];
        samples[0].device = "dev\\ice";
        let report = CloudReport {
            benchmark: "bench_cloud".into(),
            scenario: "sce\"nario".into(),
            seed: 1,
            duration_ms: 10,
            makespan_ms: 10,
            submitted: 1,
            completed: 1,
            rejected: 0,
            execution_failures: 0,
            migrations: 0,
            drift_events: 0,
            outage_events: 0,
            tenants: tenant_stats(&samples, &samples, 10),
            devices: BTreeMap::from([("dev\\ice".to_string(), DeviceStats::default())]),
            fidelity_vs_load: vec![],
            cache_hits: 0,
            cache_misses: 0,
            cache_hit_rate: 0.0,
            chaos: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"sce\\\"nario\""));
        assert!(json.contains("\"ten\\\"ant\""));
        assert!(json.contains("\"dev\\\\ice\""));
    }

    #[test]
    fn report_rendering_is_deterministic_and_json_shaped() {
        let samples = vec![sample("a", 0, 0, 10, 0)];
        let report = CloudReport {
            benchmark: "bench_cloud".into(),
            scenario: "unit".into(),
            seed: 1,
            duration_ms: 100,
            makespan_ms: 120,
            submitted: 1,
            completed: 1,
            rejected: 0,
            execution_failures: 0,
            migrations: 0,
            drift_events: 1,
            outage_events: 0,
            tenants: tenant_stats(&samples, &samples, 120),
            devices: BTreeMap::from([(
                "dev".to_string(),
                DeviceStats {
                    completed: 1,
                    busy_ms: 10,
                    utilization: 10.0 / 120.0,
                    peak_queue_depth: 1,
                },
            )]),
            fidelity_vs_load: fidelity_vs_load(&samples),
            cache_hits: 2,
            cache_misses: 4,
            cache_hit_rate: 2.0 / 6.0,
            chaos: None,
        };
        let a = report.to_json();
        let b = report.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"benchmark\": \"bench_cloud\""));
        assert!(a.contains("\"p95_latency_ms\": 10,"));
        assert!(a.contains("\"hit_rate\": 0.333333"));
        // Chaos-free reports carry no chaos block at all.
        assert!(!a.contains("\"chaos\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn chaos_stats_render_as_their_own_block() {
        let samples = vec![sample("a", 0, 0, 10, 0)];
        let report = CloudReport {
            benchmark: "bench_chaos".into(),
            scenario: "storm".into(),
            seed: 3,
            duration_ms: 100,
            makespan_ms: 120,
            submitted: 1,
            completed: 1,
            rejected: 0,
            execution_failures: 0,
            migrations: 0,
            drift_events: 0,
            outage_events: 1,
            tenants: tenant_stats(&samples, &samples, 120),
            devices: BTreeMap::new(),
            fidelity_vs_load: fidelity_vs_load(&samples),
            cache_hits: 0,
            cache_misses: 1,
            cache_hit_rate: 0.0,
            chaos: Some(ChaosStats {
                injected_transient: 4,
                injected_flap: 2,
                retries: 5,
                interrupted: 2,
                deadline_cancelled: 1,
                dead_lettered: 1,
                breaker_trips: 1,
                breaker_probes: 1,
                goodput_per_sec: 1.0 / 0.12,
                ..ChaosStats::default()
            }),
        };
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"bench_chaos\""));
        assert!(json.contains("\"chaos\": {"));
        assert!(json.contains("\"transient\": 4,"));
        assert!(json.contains("\"dead_lettered\": 1,"));
        assert!(json.contains("\"goodput_per_sec\": 8.333333"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json, report.clone().to_json());
    }

    // --- The fold, over hand-built logs --------------------------------------------------

    use qrio::JobId;
    use JobState::*;

    /// A watch-log event; `from` `None` is a submission, `node` `""` none.
    fn ev(at: u64, job: &str, from: Option<JobState>, to: JobState, node: &str) -> JobEvent {
        JobEvent {
            seq: 0,
            at,
            job: JobId::new(job),
            from,
            to,
            node: (!node.is_empty()).then(|| node.to_string()),
            cause: None,
        }
    }

    /// The failure of `job`'s first attempt on `x` with an injected `kind`.
    fn injected(job: &str, kind: FaultKind) -> ClusterError {
        ClusterError::InjectedFault {
            job: job.to_string(),
            node: "x".to_string(),
            kind,
            attempt: 0,
        }
    }

    /// `job` submitted at `at` and bound to `node` at once.
    fn bound(at: u64, job: &str, node: &str) -> [JobEvent; 3] {
        [
            ev(at, job, None, Submitted, ""),
            ev(at, job, Some(Submitted), Queued, ""),
            ev(at, job, Some(Queued), Scheduled, node),
        ]
    }

    /// Fold `log` over the fleet `x`, `y`: every success at fidelity 0.5.
    fn fold(log: &[JobEvent]) -> Tally<'_> {
        Tally::fold(log, ["x", "y"], |_| Some(0.5))
    }

    #[test]
    fn a_jobs_tenant_is_read_back_from_its_name() {
        for tenant in ["alice", "fid-a", "a-1-b"] {
            assert_eq!(tenant_of(&job_name(tenant, 17)), tenant);
        }
    }

    #[test]
    fn a_migration_moves_queue_membership_and_counts_once_per_rebind() {
        let mut log = Vec::new();
        log.extend(bound(0, "t-0", "x"));
        log.extend(bound(0, "t-1", "x"));
        log.push(ev(2, "t-1", Some(Scheduled), Scheduled, "y"));
        log.push(ev(3, "t-1", Some(Scheduled), Scheduled, "x"));
        log.extend(bound(4, "t-2", "y"));
        let tally = fold(&log);
        // One job, two moves: two migrations.
        assert_eq!(tally.migrations, 2);
        assert_eq!(tally.jobs["t-1"].device, "x");
        let (x, y) = (&tally.devices["x"], &tally.devices["y"]);
        assert_eq!((x.queued, x.stats.peak_queue_depth), (2, 2));
        assert_eq!((y.queued, y.stats.peak_queue_depth), (1, 1));
        // t-1 left y before t-2 was bound there.
        assert_eq!(tally.jobs["t-2"].queue_depth_at_bind, 0);
    }

    #[test]
    fn a_retrys_rebind_overwrites_the_depth_it_met() {
        let mut log = Vec::new();
        log.extend(bound(0, "t-0", "x"));
        log.push(ev(0, "t-0", Some(Scheduled), Running, "x"));
        log.extend(bound(0, "t-1", "y"));
        log.push(ev(0, "t-1", Some(Scheduled), Running, "y"));
        let mut failed = ev(10, "t-0", Some(Running), Retrying, "x");
        failed.cause = Some(Box::new(Cause::Attempt {
            n: 1,
            error: injected("t-0", FaultKind::TransientExecution),
            backoff: 5,
        }));
        log.push(failed);
        log.push(ev(15, "t-0", Some(Retrying), Queued, ""));
        log.push(ev(15, "t-0", Some(Queued), Scheduled, "y"));
        log.push(ev(30, "t-1", Some(Running), Succeeded, "y"));
        log.push(ev(30, "t-0", Some(Scheduled), Running, "y"));
        log.push(ev(40, "t-0", Some(Running), Succeeded, "y"));
        let tally = fold(&log);
        let order: Vec<usize> = tally
            .samples
            .iter()
            .map(|s| s.queue_depth_at_bind)
            .collect();
        // Samples in the order of their `Succeeded` events; t-0 met t-1 in
        // service on y, not the empty x of its first bind.
        assert_eq!(order, [0, 1]);
        let retried = &tally.samples[1];
        assert_eq!(
            (retried.device, retried.wait_ms(), retried.latency_ms()),
            ("y", 30, 40)
        );
        assert_eq!(
            (
                tally.devices["x"].stats.busy_ms,
                tally.devices["y"].stats.busy_ms
            ),
            (10, 40)
        );
        assert_eq!(
            (tally.chaos.retries, tally.chaos.injected_transient),
            (1, 1)
        );
        assert_eq!(tally.execution_failures, 0);
    }

    #[test]
    fn an_interrupt_within_one_millisecond_charges_no_busy_time() {
        let mut log = Vec::new();
        log.extend(bound(0, "t-0", "x"));
        log.push(ev(5, "t-0", Some(Scheduled), Running, "x"));
        let mut flapped = ev(5, "t-0", Some(Running), Failed, "x");
        let flap = injected("t-0", FaultKind::DeviceFlap);
        flapped.cause = Some(Box::new(Cause::Failed(flap)));
        log.push(flapped);
        // Two jobs never bound: one blows its deadline, one is rejected.
        for job in ["late-0", "none-0"] {
            log.push(ev(6, job, None, Submitted, ""));
            log.push(ev(6, job, Some(Submitted), Queued, ""));
            log.push(ev(7, job, Some(Queued), Failed, ""));
        }
        let expired = ClusterError::DeadlineExceeded {
            job: "late-0".to_string(),
            deadline: 6,
        };
        let late = log.len() - 4;
        log[late].cause = Some(Box::new(Cause::Failed(expired)));
        let tally = Tally::fold(&log, ["x"], |_| None);
        let x = &tally.devices["x"];
        assert_eq!((x.queued, x.stats.peak_queue_depth), (0, 1));
        assert_eq!((x.stats.busy_ms, x.stats.completed), (0, 0));
        assert_eq!(tally.execution_failures, 1);
        assert_eq!(tally.chaos.injected_flap, 1);
        assert_eq!(tally.chaos.deadline_cancelled, 1);
        assert!(tally.samples.is_empty());
        assert_eq!(tally.jobs["none-0"].device, "");
    }

    #[test]
    fn a_cancelled_binding_leaves_its_devices_queue() {
        let mut log = Vec::new();
        log.extend(bound(0, "t-0", "x"));
        log.extend(bound(0, "t-1", "x"));
        log.push(ev(1, "t-0", Some(Scheduled), Cancelled, "x"));
        log.extend(bound(2, "t-2", "x"));
        let tally = fold(&log);
        assert_eq!(tally.jobs["t-1"].queue_depth_at_bind, 1);
        assert_eq!(tally.jobs["t-2"].queue_depth_at_bind, 1);
        let x = &tally.devices["x"];
        assert_eq!((x.queued, x.stats.peak_queue_depth), (2, 2));
    }
}
