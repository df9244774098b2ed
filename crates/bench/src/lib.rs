//! # qrio-bench
//!
//! Benchmark harness for the QRIO reproduction: one binary per table/figure of
//! the paper's evaluation (run with `cargo run -p qrio-bench --release --bin
//! <name>`) plus Criterion micro-benchmarks (`cargo bench`).
//!
//! This library crate hosts the workloads the report binaries run — so a
//! test can rebuild a committed report through the same calls — and small
//! output helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qrio_loadgen::KillRestartScenario;

/// The flagship cloud scenario behind `BENCH_cloud.json` (≥ 2000 jobs, 4
/// tenants, outage + two drifts).
pub const CLOUD_SCENARIO: &str = include_str!("../../../scenarios/cloud.yaml");

/// The CI smoke scenario behind `baselines/BENCH_cloud_smoke.json` (30
/// virtual seconds, 3 tenants, outage + drift).
pub const SMOKE_SCENARIO: &str = include_str!("../../../scenarios/cloud_smoke.yaml");

/// The chaos scenario behind `BENCH_chaos.json`: 60 virtual seconds, 3
/// tenants (fixed backoff, exponential backoff under a deadline, fail-fast
/// control), breaker board armed, faults ramping calm -> storm -> recovery
/// with an outage inside the storm.
pub const CHAOS_SCENARIO: &str = include_str!("../../../scenarios/chaos.yaml");

/// The value of the numeric flag `name` in `args`, or `default`.
///
/// # Panics
///
/// On a value that is not a number.
pub fn flag_u64(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|e| panic!("bad {name}: {e}")))
        .unwrap_or(default)
}

/// The kill-and-restart storm `bench_recovery` runs, its defaults overridden
/// by any `--seed`, `--jobs`, `--crash-after`, `--fault-permille` or
/// `--retry-attempts` in `args`. Faults, retries and breakers are on unless
/// both of the last two are 0.
pub fn recovery_scenario(args: &[String]) -> KillRestartScenario {
    let fault_permille = flag_u64(args, "--fault-permille", 250) as u32;
    let retry_attempts = flag_u64(args, "--retry-attempts", 4) as u32;
    KillRestartScenario {
        name: "bench-recovery".into(),
        seed: flag_u64(args, "--seed", 20240),
        jobs: flag_u64(args, "--jobs", 120),
        crash_after_jobs: flag_u64(args, "--crash-after", 75),
        fault_permille,
        retry_max_attempts: retry_attempts,
        breakers: retry_attempts > 0 || fault_permille > 0,
        ..KillRestartScenario::default()
    }
}

/// Print a two-column table with a title, matching the plain-text rendering
/// used in `EXPERIMENTS.md`.
pub fn print_table(title: &str, headers: (&str, &str), rows: &[(String, String)]) {
    println!("\n== {title} ==");
    println!("{:<36} {:>18}", headers.0, headers.1);
    println!("{}", "-".repeat(56));
    for (left, right) in rows {
        println!("{left:<36} {right:>18}");
    }
}

/// Format a float with three decimal places (the precision used throughout the
/// experiment output).
pub fn fmt3(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt3_rounds() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt3(0.0), "0.000");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("demo", ("k", "v"), &[("a".into(), "1".into())]);
    }
}
