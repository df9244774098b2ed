//! Property test: a chaotic run is a pure function of its scenario.
//!
//! For arbitrary fault rates, retry policies (fixed and exponential backoff),
//! deadlines and seeds, running the same scenario twice must produce
//! byte-identical JSON reports — fault injection, retry schedules, breaker
//! trips and deadline cancellations all replay exactly. Every sampled run is
//! also held to the chaos drain invariant (submitted jobs end completed,
//! rejected, terminally failed, or deadline-cancelled), its report must agree
//! with itself and with its watch log, and the log must pass the analyzer's
//! retry-aware lifecycle audit.

mod common;

use proptest::prelude::*;

use qrio_analyzer::{audit_watch_log, AuditOptions};
use qrio_loadgen::{run_scenario_with_log, Scenario};

/// A small two-device, two-tenant chaos scenario from sampled knobs: one
/// retrying tenant (optionally under a deadline) and one fail-fast control
/// tenant, with a mid-run fault burst that calms back down.
#[allow(clippy::too_many_arguments)]
fn chaos_yaml(
    seed: u64,
    fault_seed: u64,
    transient_permille: u64,
    flap_permille: u64,
    attempts: u32,
    backoff_ms: u64,
    exponential: bool,
    deadline_ms: Option<u64>,
) -> String {
    let backoff = if exponential {
        format!(
            "    retryBackoff: exponential\n\
             \x20   retryDelayMs: {backoff_ms}\n\
             \x20   retryMaxDelayMs: {}\n",
            backoff_ms * 8
        )
    } else {
        format!(
            "    retryBackoff: fixed\n\
             \x20   retryDelayMs: {backoff_ms}\n"
        )
    };
    let deadline = deadline_ms
        .map(|d| format!("    deadlineMs: {d}\n"))
        .unwrap_or_default();
    format!(
        "scenario: chaos-prop\n\
         seed: {seed}\n\
         faultSeed: {fault_seed}\n\
         durationMs: 5000\n\
         maxJobs: 40\n\
         serviceBaseUs: 120000\n\
         servicePerShotUs: 1500\n\
         canaryShots: 8\n\
         breakers: on\n\
         breakerConsecutiveFailures: 3\n\
         breakerFailureRate: 0.6\n\
         breakerWindow: 6\n\
         breakerOpenMs: 800\n\
         breakerProbeJobs: 2\n\
         fleet:\n\
         \x20 - device: alpha\n\
         \x20   topology: line\n\
         \x20   qubits: 8\n\
         \x20   twoQubitError: 0.01\n\
         \x20   readoutError: 0.02\n\
         \x20 - device: beta\n\
         \x20   topology: ring\n\
         \x20   qubits: 8\n\
         \x20   twoQubitError: 0.02\n\
         \x20   readoutError: 0.03\n\
         tenants:\n\
         \x20 - tenant: patient\n\
         \x20   strategy: min_queue\n\
         \x20   circuit: ghz\n\
         \x20   qubits: 4\n\
         \x20   shots: 16\n\
         \x20   arrival: poisson\n\
         \x20   ratePerSec: 5.0\n\
         \x20   retryMaxAttempts: {attempts}\n\
         {backoff}\
         {deadline}\
         \x20 - tenant: failfast\n\
         \x20   strategy: fidelity\n\
         \x20   target: 0.8\n\
         \x20   circuit: bv\n\
         \x20   qubits: 4\n\
         \x20   shots: 16\n\
         \x20   arrival: poisson\n\
         \x20   ratePerSec: 3.0\n\
         events:\n\
         \x20 - atMs: 0\n\
         \x20   kind: faults\n\
         \x20   transientRate: {t0}\n\
         \x20 - atMs: 1000\n\
         \x20   kind: faults\n\
         \x20   transientRate: {t1}\n\
         \x20   flapRate: {f1}\n\
         \x20 - atMs: 3500\n\
         \x20   kind: faults\n\
         \x20   transientRate: {t0}\n",
        t0 = transient_permille as f64 / 4000.0,
        t1 = transient_permille as f64 / 1000.0,
        f1 = flap_permille as f64 / 1000.0,
    )
}

proptest! {
    // Each case is a full double simulation; a small deterministic sample
    // keeps the suite fast while still sweeping seeds, rates, both backoff
    // shapes and deadlines.
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn chaotic_runs_are_byte_deterministic(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        transient_permille in 50u64..=500,
        flap_permille in 0u64..=150,
        attempts in 1u32..=5,
        backoff_ms in 20u64..=400,
        selector in 0u64..4,
        deadline_ms in 1500u64..=6000,
    ) {
        // Raw-integer selectors, as the vendored proptest only samples
        // integer ranges: low bit picks the backoff shape, high bit arms
        // the deadline.
        let exponential = selector & 1 == 1;
        let deadline = (selector & 2 == 2).then_some(deadline_ms);
        let yaml = chaos_yaml(
            seed,
            fault_seed,
            transient_permille,
            flap_permille,
            attempts,
            backoff_ms,
            exponential,
            deadline,
        );
        let scenario = Scenario::from_yaml(&yaml).expect("generated scenario parses");
        prop_assert!(scenario.has_chaos());

        let (report, log) = run_scenario_with_log(&scenario).expect("scenario runs");
        let (replay, replay_log) = run_scenario_with_log(&scenario).expect("scenario replays");
        prop_assert_eq!(
            report.to_json(),
            replay.to_json(),
            "same-seed chaos runs diverged"
        );
        prop_assert_eq!(log.len(), replay_log.len());

        let chaos = report.chaos.as_ref().expect("chaos scenario reports chaos");
        let drained = report.completed
            + report.rejected
            + report.execution_failures
            + chaos.deadline_cancelled;
        prop_assert_eq!(drained, report.submitted, "run did not drain");
        common::assert_consistent(&report, &log);

        let diagnostics = audit_watch_log(&log, AuditOptions::default());
        prop_assert!(
            diagnostics.is_empty(),
            "auditor flagged the chaos watch log: {:?}",
            diagnostics
        );
    }
}
