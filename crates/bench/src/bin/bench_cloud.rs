//! `bench_cloud` — the cloud-contention workload benchmark behind
//! `BENCH_cloud.json`.
//!
//! Replays a [`qrio_loadgen`] scenario (thousands of jobs, several tenants,
//! calibration drift and outages) through the full QRIO stack in virtual
//! time, **twice**, asserts the two reports are byte-identical (the
//! determinism contract every scaling PR benchmarks against), and writes the
//! report.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrio-bench --release --bin bench_cloud [-- --smoke]
//!     [--scenario PATH] [--out PATH] [--transport in-proc|threaded]
//!     [--threads N]
//! ```
//!
//! `--smoke` switches to the embedded 30-virtual-second CI scenario;
//! `--scenario` loads a custom YAML; `--out` overrides the default
//! `BENCH_cloud.json` output path. `--transport` picks the control-plane
//! transport (default `in-proc`); `--threads` sets the worker count for
//! `--transport threaded`. Reports are byte-identical across transports and
//! thread counts — CI compares them.

use qrio::TransportMode;
use qrio_bench::{print_table, CLOUD_SCENARIO, SMOKE_SCENARIO};
use qrio_loadgen::{run_scenario_with_transport, CloudReport, Scenario};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_cloud.json".to_string());
    let scenario_text = match args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
    {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read scenario '{path}': {e}")),
        None if smoke => SMOKE_SCENARIO.to_string(),
        None => CLOUD_SCENARIO.to_string(),
    };

    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--threads takes a number"))
        .unwrap_or(2);
    let mode = match args
        .iter()
        .position(|a| a == "--transport")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None | Some("in-proc") => TransportMode::InProc,
        Some("threaded") => TransportMode::Threaded { threads },
        Some(other) => panic!("unknown transport '{other}' (in-proc | threaded)"),
    };

    let scenario = Scenario::from_yaml(&scenario_text).expect("scenario parses");
    println!(
        "bench_cloud: scenario '{}' (seed {}, {} devices, {} tenants, {} events, transport {})",
        scenario.name,
        scenario.seed,
        scenario.fleet.len(),
        scenario.tenants.len(),
        scenario.events.len(),
        match mode {
            TransportMode::InProc => "in-proc".to_string(),
            TransportMode::Threaded { threads } => format!("threaded x{threads}"),
        }
    );

    // Two full runs with the same seed: the reports must match byte for byte.
    let wall = std::time::Instant::now();
    let report = run_scenario_with_transport(&scenario, mode).expect("scenario runs");
    let first_secs = wall.elapsed().as_secs_f64();
    let replay = run_scenario_with_transport(&scenario, mode).expect("scenario replays");
    let json = report.to_json();
    assert_eq!(
        json,
        replay.to_json(),
        "same-seed runs must produce byte-identical reports"
    );
    println!(
        "determinism: two same-seed runs produced byte-identical reports \
         ({} bytes, first run {first_secs:.1}s wall)",
        json.len()
    );

    summarize(&report);

    std::fs::write(&out_path, &json).expect("cannot write BENCH_cloud.json");
    println!("wrote {out_path}");

    // Acceptance floors for the flagship scenario; CI smoke skips the volume
    // floor but keeps the structural ones.
    assert!(
        report.drift_events >= 1,
        "scenario must include a drift event"
    );
    assert!(
        report.tenants.len() >= 3,
        "scenario must include >= 3 tenants"
    );
    assert!(report.completed > 0, "no jobs completed");
    if !smoke {
        assert!(
            report.submitted >= 2000,
            "flagship scenario must submit >= 2000 jobs, got {}",
            report.submitted
        );
    }
    let drained = report.completed + report.rejected + report.execution_failures;
    assert_eq!(
        drained, report.submitted,
        "every submitted job must drain by the end of the run"
    );
}

fn summarize(report: &CloudReport) {
    let rows: Vec<(String, String)> = report
        .tenants
        .iter()
        .map(|(tenant, stats)| {
            (
                tenant.clone(),
                format!(
                    "{} done, p95 {} ms, F {:.3}",
                    stats.completed, stats.p95_latency_ms, stats.mean_fidelity
                ),
            )
        })
        .collect();
    print_table(
        &format!(
            "bench_cloud: {} jobs over {:.1} virtual s ({} migrations, cache hit rate {:.2})",
            report.completed,
            report.makespan_ms as f64 / 1000.0,
            report.migrations,
            report.cache_hit_rate
        ),
        ("tenant", "throughput / latency"),
        &rows,
    );
    let device_rows: Vec<(String, String)> = report
        .devices
        .iter()
        .map(|(device, stats)| {
            (
                device.clone(),
                format!(
                    "{} done, util {:.2}, peak queue {}",
                    stats.completed, stats.utilization, stats.peak_queue_depth
                ),
            )
        })
        .collect();
    print_table("devices", ("device", "load"), &device_rows);
    let curve: Vec<(String, String)> = report
        .fidelity_vs_load
        .iter()
        .map(|bucket| {
            (
                format!("queue depth {}", bucket.queue_depth),
                format!("{} jobs, F {:.3}", bucket.jobs, bucket.mean_fidelity),
            )
        })
        .collect();
    print_table("fidelity vs load", ("load", "fidelity"), &curve);
}
