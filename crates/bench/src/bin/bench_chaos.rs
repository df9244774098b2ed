//! `bench_chaos` — the fault-tolerance workload benchmark behind
//! `BENCH_chaos.json`.
//!
//! Replays the chaos scenario (injected faults on a calm / storm / recovery
//! timeline, armed circuit breakers, retrying tenants, a mid-storm outage)
//! through the full QRIO stack in virtual time, **twice**, asserts the two
//! reports are byte-identical — fault injection, retry backoff and breaker
//! trips are all pure functions of the scenario seeds — and writes the
//! report with its `chaos` block (retries, dead letters, breaker trips,
//! goodput).
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrio-bench --release --bin bench_chaos [-- --smoke]
//!     [--scenario PATH] [--out PATH]
//! ```
//!
//! `--smoke` is accepted for CI symmetry with `bench_cloud`; the embedded
//! chaos scenario is already CI-sized, so both modes run it.

use qrio_bench::{print_table, CHAOS_SCENARIO};
use qrio_loadgen::{run_scenario_with_log, ChaosStats, CloudReport, Scenario};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());
    let scenario_text = match args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
    {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read scenario '{path}': {e}")),
        None => CHAOS_SCENARIO.to_string(),
    };

    let scenario = Scenario::from_yaml(&scenario_text).expect("scenario parses");
    assert!(
        scenario.has_chaos(),
        "bench_chaos needs a scenario with retries, breakers or fault events"
    );
    println!(
        "bench_chaos: scenario '{}' (seed {}, fault seed {}, {} devices, {} tenants, {} events)",
        scenario.name,
        scenario.seed,
        scenario.fault_seed,
        scenario.fleet.len(),
        scenario.tenants.len(),
        scenario.events.len()
    );

    // Two full runs with the same seeds: fault decisions, retry schedules
    // and breaker trips must replay byte for byte.
    let wall = std::time::Instant::now();
    let (mut report, log) = run_scenario_with_log(&scenario).expect("scenario runs");
    let first_secs = wall.elapsed().as_secs_f64();
    let (mut replay, _) = run_scenario_with_log(&scenario).expect("scenario replays");
    report.benchmark = "bench_chaos".to_string();
    replay.benchmark = "bench_chaos".to_string();
    let json = report.to_json();
    assert_eq!(
        json,
        replay.to_json(),
        "same-seed chaos runs must produce byte-identical reports"
    );
    println!(
        "determinism: two same-seed runs produced byte-identical reports \
         ({} bytes, first run {first_secs:.1}s wall)",
        json.len()
    );

    // The watch log of a chaotic run must still satisfy every lifecycle
    // invariant — including the retry-aware ones (attempt counters climb by
    // one, nothing moves after a terminal state, re-running requires an
    // intervening Retrying).
    let diagnostics = qrio_analyzer::audit_watch_log(&log, qrio_analyzer::AuditOptions::default());
    assert!(
        diagnostics.is_empty(),
        "auditor flagged the chaos watch log: {diagnostics:?}"
    );
    println!("audited {} watch events: clean", log.len());

    summarize(&report);

    std::fs::write(&out_path, &json).expect("cannot write BENCH_chaos.json");
    println!("wrote {out_path}");

    // Acceptance floors: the storm must actually bite (faults, retries,
    // breaker trips all observed) and the run must still drain fully.
    let chaos = report.chaos.as_ref().expect("chaos scenarios report chaos");
    let injected = chaos.injected_transient
        + chaos.injected_calibration
        + chaos.injected_slow
        + chaos.injected_flap;
    assert!(injected > 0, "no faults were injected");
    assert!(chaos.retries > 0, "no retries happened");
    assert!(report.completed > 0, "no jobs completed");
    let drained =
        report.completed + report.rejected + report.execution_failures + chaos.deadline_cancelled;
    assert_eq!(
        drained, report.submitted,
        "every submitted job must drain: completed, rejected, terminally \
         failed, or deadline-cancelled"
    );
}

fn summarize(report: &CloudReport) {
    let chaos: &ChaosStats = report.chaos.as_ref().expect("chaos block");
    let rows = vec![
        (
            "injected faults".to_string(),
            format!(
                "{} transient / {} calibration / {} slow / {} flap",
                chaos.injected_transient,
                chaos.injected_calibration,
                chaos.injected_slow,
                chaos.injected_flap
            ),
        ),
        ("retries".to_string(), chaos.retries.to_string()),
        (
            "outage interrupts".to_string(),
            chaos.interrupted.to_string(),
        ),
        (
            "deadline cancels".to_string(),
            chaos.deadline_cancelled.to_string(),
        ),
        ("dead letters".to_string(), chaos.dead_lettered.to_string()),
        (
            "breaker trips / probes".to_string(),
            format!("{} / {}", chaos.breaker_trips, chaos.breaker_probes),
        ),
        (
            "goodput".to_string(),
            format!("{:.2} jobs/s", chaos.goodput_per_sec),
        ),
    ];
    print_table(
        &format!(
            "bench_chaos: {} of {} jobs completed over {:.1} virtual s \
             ({} terminal failures)",
            report.completed,
            report.submitted,
            report.makespan_ms as f64 / 1000.0,
            report.execution_failures
        ),
        ("fault-tolerance", "observed"),
        &rows,
    );
    let tenant_rows: Vec<(String, String)> = report
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
    print_table("tenants", ("tenant", "throughput / latency"), &tenant_rows);
}
