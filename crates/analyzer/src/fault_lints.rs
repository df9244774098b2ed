//! Fault-tolerance configuration lints (QL05xx): retry policies that can
//! never run, backoff schedules that outlive their deadline, chaos scenarios
//! whose fault rates saturate, and circuit-breaker thresholds that are
//! inverted or degenerate.
//!
//! These are the knobs PR 8's fault-injection stack added — a `RetryPolicy`
//! with `max_attempts: 0`, a saturated `faults` timeline or a breaker that
//! trips on zero failures all parse and build fine, then quietly guarantee
//! the run can never make progress. Linting them at admission time turns a
//! confusing all-dead-letter run into a one-line diagnostic.

use qrio::BreakerConfig;
use qrio_cluster::RetryPolicy;
use qrio_loadgen::{Scenario, ScenarioEvent};

use crate::diag::{Diagnostic, LintCode, Location};

/// Lint a retry policy, optionally against the job's deadline (QL0500,
/// QL0501).
///
/// `deadline` is the job's relative deadline in service-loop ticks (the same
/// unit the policy's backoff delays use).
pub fn lint_retry_policy(
    policy: &RetryPolicy,
    deadline: Option<u64>,
    subject: &str,
) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    if policy.max_attempts == 0 {
        diagnostics.push(Diagnostic::new(
            LintCode::RetryNeverRuns,
            Location::subject(subject),
            "retry policy allows 0 attempts: the job fails before its first execution",
        ));
        // With zero attempts the deadline comparison below is meaningless.
        return diagnostics;
    }
    if let Some(deadline) = deadline {
        let worst = policy.worst_case_backoff();
        if worst > deadline {
            diagnostics.push(Diagnostic::new(
                LintCode::BackoffOutlivesDeadline,
                Location::subject(subject),
                format!(
                    "worst-case cumulative backoff is {worst} ticks against a deadline of \
                     {deadline} ticks: late retry attempts expire before they can run"
                ),
            ));
        }
    }
    diagnostics
}

/// Lint a circuit-breaker configuration (QL0503): thresholds that are
/// inverted or degenerate make the breaker either trip constantly or never
/// recover.
pub fn lint_breaker_config(config: &BreakerConfig, subject: &str) -> Vec<Diagnostic> {
    let mut problems = Vec::new();
    if config.consecutive_failures == 0 {
        problems.push("consecutiveFailures is 0 (the breaker trips on a healthy device)");
    }
    if config.window == 0 {
        problems.push("window is 0 (the failure-rate trip has no sample to judge)");
    }
    if !(config.failure_rate > 0.0 && config.failure_rate <= 1.0) {
        problems.push("failureRate is outside (0, 1]");
    }
    if config.open_ticks == 0 {
        problems.push("openTicks is 0 (the breaker re-probes immediately, defeating the cooldown)");
    }
    if config.probe_jobs == 0 {
        problems.push("probeJobs is 0 (a half-open breaker closes without evidence)");
    }
    problems
        .into_iter()
        .map(|problem| {
            Diagnostic::new(
                LintCode::BreakerThresholdsInverted,
                Location::subject(subject),
                problem,
            )
        })
        .collect()
}

/// Lint the chaos surface of a parsed scenario (QL0501, QL0502, QL0503):
/// saturated `faults` events, tenant backoff schedules that blow the tenant
/// deadline, and inverted breaker settings.
pub fn lint_chaos_scenario(scenario: &Scenario) -> Vec<Diagnostic> {
    let subject = format!("scenario '{}'", scenario.name);
    let mut diagnostics = Vec::new();

    // QL0502: a fault-rate total at or past 1.0 means `decide` always picks
    // some fault — every attempt fails, retries burn out, and the run ends
    // all dead letters.
    for (index, event) in scenario.events.iter().enumerate() {
        let ScenarioEvent::Faults {
            transient_rate,
            calibration_rate,
            slow_rate,
            flap_rate,
            ..
        } = event
        else {
            continue;
        };
        let total = transient_rate + calibration_rate + slow_rate + flap_rate;
        if total >= 1.0 {
            diagnostics.push(Diagnostic::new(
                LintCode::FaultRateSaturated,
                Location::at(&subject, format!("event #{index} (faults)")),
                format!(
                    "fault rates sum to {total:.2}: every execution attempt fails until a later \
                     faults event lowers them"
                ),
            ));
        }
    }

    // QL0501: tenant backoffs and deadlines are in virtual ms; if the
    // worst-case cumulative backoff alone exceeds the tenant deadline, the
    // later retry slots exist only on paper.
    for tenant in &scenario.tenants {
        let (Some(retry), Some(deadline)) = (&tenant.retry, tenant.deadline_ms) else {
            continue;
        };
        let worst: u64 = (1..retry.max_attempts)
            .map(|attempt| retry.backoff.delay(0, "", attempt))
            .fold(0, u64::saturating_add);
        if worst > deadline {
            diagnostics.push(Diagnostic::new(
                LintCode::BackoffOutlivesDeadline,
                Location::at(&subject, format!("tenant '{}'", tenant.name)),
                format!(
                    "worst-case cumulative backoff is {worst} ms against a deadline of \
                     {deadline} ms: late retry attempts expire before they can run"
                ),
            ));
        }
    }

    // QL0503: breaker settings.
    if let Some(breakers) = &scenario.breakers {
        diagnostics.extend(lint_breaker_config(
            breakers,
            &format!("{subject}: breakers"),
        ));
    }

    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_attempt_policies_are_flagged() {
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::fixed(1, 5)
        };
        let diags = lint_retry_policy(&policy, None, "job 'x'");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::RetryNeverRuns);
        assert!(lint_retry_policy(&RetryPolicy::fixed(3, 5), None, "job 'x'").is_empty());
    }

    #[test]
    fn backoff_past_the_deadline_is_flagged() {
        // 4 attempts x 10-tick delays = 30 ticks of worst-case backoff.
        let policy = RetryPolicy::fixed(4, 10);
        let diags = lint_retry_policy(&policy, Some(20), "job 'slow'");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::BackoffOutlivesDeadline);
        assert!(lint_retry_policy(&policy, Some(30), "job 'ok'").is_empty());
    }

    #[test]
    fn inverted_breaker_thresholds_are_enumerated() {
        let broken = BreakerConfig {
            consecutive_failures: 0,
            failure_rate: 1.5,
            window: 0,
            open_ticks: 0,
            probe_jobs: 0,
        };
        let diags = lint_breaker_config(&broken, "breakers");
        assert_eq!(diags.len(), 5);
        assert!(diags
            .iter()
            .all(|d| d.code == LintCode::BreakerThresholdsInverted));
        assert!(lint_breaker_config(&BreakerConfig::default(), "breakers").is_empty());
    }

    #[test]
    fn saturated_fault_rates_and_doomed_deadlines_are_flagged() {
        let scenario = Scenario::from_yaml(
            "scenario: doomed\n\
             seed: 1\n\
             durationMs: 1000\n\
             breakers: on\n\
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
                 ratePerSec: 1.0\n\
                 retryMaxAttempts: 5\n\
                 retryDelayMs: 100\n\
                 deadlineMs: 150\n\
             events:\n\
               - kind: faults\n\
                 atMs: 0\n\
                 transientRate: 0.6\n\
                 flapRate: 0.5\n",
        )
        .unwrap();
        let diags = lint_chaos_scenario(&scenario);
        assert!(diags.iter().any(|d| d.code == LintCode::FaultRateSaturated));
        // 4 backoffs x 100 ms = 400 ms > the 150 ms deadline.
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::BackoffOutlivesDeadline));
        // Valid breaker settings stay quiet even when enabled.
        assert!(!diags
            .iter()
            .any(|d| d.code == LintCode::BreakerThresholdsInverted));
    }

    #[test]
    fn a_clean_chaos_scenario_lints_clean() {
        let scenario = Scenario::from_yaml(
            "scenario: fine\n\
             seed: 1\n\
             durationMs: 1000\n\
             fleet:\n\
               - device: solo\n\
                 qubits: 6\n\
             tenants:\n\
               - tenant: alice\n\
                 strategy: min_queue\n\
                 circuit: ghz\n\
                 qubits: 4\n\
                 shots: 16\n\
                 ratePerSec: 1.0\n\
                 retryMaxAttempts: 3\n\
                 retryDelayMs: 50\n\
                 deadlineMs: 5000\n\
             events:\n\
               - kind: faults\n\
                 atMs: 0\n\
                 transientRate: 0.2\n",
        )
        .unwrap();
        assert!(lint_chaos_scenario(&scenario).is_empty());
    }
}
