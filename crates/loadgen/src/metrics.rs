//! Workload metrics: per-tenant latency percentiles, per-device utilization,
//! fidelity-vs-load curves and the deterministic `BENCH_cloud.json` report.
//!
//! Everything here is computed from virtual-time integers and seeded
//! simulations, and rendered with fixed-precision formatting over ordered
//! (`BTreeMap`) containers — so a scenario's report is **byte-identical**
//! across runs with the same seed, and tests can assert on the rendered
//! JSON directly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One finished (or rejected) job as observed by the engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobSample {
    /// Owning tenant.
    pub tenant: String,
    /// Device that executed the job (empty for rejected jobs).
    pub device: String,
    /// Virtual arrival instant (ms).
    pub arrival_ms: u64,
    /// Virtual execution start (ms).
    pub start_ms: u64,
    /// Virtual completion instant (ms).
    pub completion_ms: u64,
    /// Jobs already queued or running on the chosen device at bind time —
    /// the load the job experienced.
    pub queue_depth_at_bind: usize,
    /// Fidelity achieved against the noise-free reference, when computed.
    pub fidelity: Option<f64>,
    /// Whether the job was migrated after its original binding.
    pub migrated: bool,
}

impl JobSample {
    /// Queueing delay: bind-to-start wait (ms).
    pub fn wait_ms(&self) -> u64 {
        self.start_ms.saturating_sub(self.arrival_ms)
    }

    /// End-to-end sojourn time: arrival to completion (ms).
    pub fn latency_ms(&self) -> u64 {
        self.completion_ms.saturating_sub(self.arrival_ms)
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
    /// Jobs migrated between devices by drift/outage re-ranking.
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

/// Build per-tenant stats from samples (completed jobs only) plus the
/// submitted/rejected counters the engine tracked.
pub fn tenant_stats(
    samples: &[JobSample],
    submitted: &BTreeMap<String, u64>,
    rejected: &BTreeMap<String, u64>,
    makespan_ms: u64,
) -> BTreeMap<String, TenantStats> {
    let mut stats: BTreeMap<String, TenantStats> = BTreeMap::new();
    for (tenant, &count) in submitted {
        stats.entry(tenant.clone()).or_default().submitted = count;
    }
    for (tenant, &count) in rejected {
        stats.entry(tenant.clone()).or_default().rejected = count;
    }
    let mut waits: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut latencies: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut fidelity_sums: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for sample in samples {
        let entry = stats.entry(sample.tenant.clone()).or_default();
        entry.completed += 1;
        waits
            .entry(&sample.tenant)
            .or_default()
            .push(sample.wait_ms());
        latencies
            .entry(&sample.tenant)
            .or_default()
            .push(sample.latency_ms());
        if let Some(f) = sample.fidelity {
            let slot = fidelity_sums.entry(&sample.tenant).or_default();
            slot.0 += f;
            slot.1 += 1;
        }
    }
    let makespan_s = (makespan_ms.max(1)) as f64 / 1000.0;
    for (tenant, entry) in &mut stats {
        if let Some(w) = waits.get_mut(tenant.as_str()) {
            w.sort_unstable();
            entry.p50_wait_ms = percentile(w, 0.50);
            entry.p95_wait_ms = percentile(w, 0.95);
        }
        if let Some(l) = latencies.get_mut(tenant.as_str()) {
            l.sort_unstable();
            entry.p50_latency_ms = percentile(l, 0.50);
            entry.p95_latency_ms = percentile(l, 0.95);
        }
        if let Some(&(sum, n)) = fidelity_sums.get(tenant.as_str()) {
            if n > 0 {
                entry.mean_fidelity = sum / n as f64;
            }
        }
        entry.throughput_per_sec = entry.completed as f64 / makespan_s;
    }
    stats
}

/// Build the fidelity-vs-load curve: bucket completed jobs by queue depth at
/// bind time (pooling depths `>= POOLED_DEPTH`).
pub fn fidelity_vs_load(samples: &[JobSample]) -> Vec<LoadBucket> {
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

    fn sample(tenant: &str, arrival: u64, start: u64, done: u64, depth: usize) -> JobSample {
        JobSample {
            tenant: tenant.into(),
            device: "dev".into(),
            arrival_ms: arrival,
            start_ms: start,
            completion_ms: done,
            queue_depth_at_bind: depth,
            fidelity: Some(0.9),
            migrated: false,
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
        let mut submitted = BTreeMap::new();
        submitted.insert("a".to_string(), 3u64);
        submitted.insert("b".to_string(), 1u64);
        let mut rejected = BTreeMap::new();
        rejected.insert("a".to_string(), 1u64);
        let stats = tenant_stats(&samples, &submitted, &rejected, 1000);
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
        samples[0].device = "dev\\ice".into();
        let mut submitted = BTreeMap::new();
        submitted.insert("ten\"ant".to_string(), 1u64);
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
            tenants: tenant_stats(&samples, &submitted, &BTreeMap::new(), 10),
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
        let mut submitted = BTreeMap::new();
        submitted.insert("a".to_string(), 1u64);
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
            tenants: tenant_stats(&samples, &submitted, &BTreeMap::new(), 120),
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
        let mut submitted = BTreeMap::new();
        submitted.insert("a".to_string(), 1u64);
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
            tenants: tenant_stats(&samples, &submitted, &BTreeMap::new(), 120),
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
}
