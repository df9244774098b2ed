//! The watch-log auditor: replay a [`JobEvent`] stream and assert the
//! invariants the orchestrator promises its watchers.
//!
//! [`qrio::Qrio::watch`] exposes a Kubernetes-style event log; everything a
//! client can know about job lifecycles flows through it. Auditing a full run
//! (e.g. a loadgen scenario) therefore end-to-end checks the orchestrator's
//! bookkeeping: sequence numbers are dense from zero (QL0301), each job's
//! events chain correctly (`from` equals the previous `to`, QL0302), every
//! observed transition is in the legality table (QL0303), no job is left
//! non-terminal at the end of a drained run (QL0304), no job re-enters
//! `Running` without an intervening `Retrying` decision (QL0305), retry
//! attempt counters climb by exactly one per `Retrying` event (QL0306),
//! nothing happens to a job after it reaches a terminal state (QL0307), the
//! `at` stamps never run backwards along the log (QL0308) and no retry
//! re-queues before the backoff its `Retrying` event announced has elapsed
//! (QL0309) — the one clock behind every stamp only moves forward, and the
//! backoff timer is armed from it.

use std::collections::BTreeMap;

use qrio::{Cause, JobEvent, JobState};

use crate::diag::{Diagnostic, LintCode, Location};

/// Options controlling the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOptions {
    /// Require every observed job to end in a terminal state — set for runs
    /// that drained to completion, unset for mid-run snapshots.
    pub require_terminal: bool,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            require_terminal: true,
        }
    }
}

/// Replay `events` and report every invariant violation.
pub fn audit_watch_log(events: &[JobEvent], options: AuditOptions) -> Vec<Diagnostic> {
    let subject = format!("watch log ({} events)", events.len());
    let mut diagnostics = Vec::new();

    // QL0301: seq must equal the event's index (dense from zero).
    for (index, event) in events.iter().enumerate() {
        if event.seq != index as u64 {
            diagnostics.push(Diagnostic::new(
                LintCode::NonDenseSequence,
                Location::at(&subject, format!("event #{index}")),
                format!("expected seq {index}, found {}", event.seq),
            ));
        }
    }

    // Per-job replay.
    let mut last_state: BTreeMap<&str, JobState> = BTreeMap::new();
    // Whether the job may (re-)enter Running: true initially, consumed by a
    // Running entry, restored by a Retrying decision.
    let mut may_run: BTreeMap<&str, bool> = BTreeMap::new();
    let mut last_attempt: BTreeMap<&str, u32> = BTreeMap::new();
    // When the backoff a job's latest Retrying event announced elapses.
    let mut not_before: BTreeMap<&str, u64> = BTreeMap::new();
    let mut clock = 0;
    for event in events {
        let job = event.job.as_str();
        let previous = last_state.get(job).copied();

        // QL0308: the stamps are readings of one clock that only moves
        // forward.
        if event.at < clock {
            diagnostics.push(Diagnostic::new(
                LintCode::TimeRanBackwards,
                Location::at(&subject, format!("seq {}", event.seq)),
                format!("stamped at {}, after an event stamped at {clock}", event.at),
            ));
        }
        clock = clock.max(event.at);

        // QL0307: terminal states are final — any further event for the job
        // means the orchestrator kept mutating settled work.
        if previous.is_some_and(|state| state.is_terminal()) {
            diagnostics.push(Diagnostic::new(
                LintCode::EventAfterTerminal,
                Location::at(&subject, format!("seq {} (job '{job}')", event.seq)),
                format!(
                    "job already settled in {} but a later event moves it to {}",
                    previous.expect("checked above"),
                    event.to
                ),
            ));
        }

        // QL0302: the event's `from` must equal the job's previous `to`
        // (None for the very first event of the job, which must be the
        // Submitted entry).
        let chain_ok = match (previous, event.from) {
            (None, None) => event.to == JobState::Submitted,
            (Some(last), Some(from)) => last == from,
            _ => false,
        };
        if !chain_ok {
            diagnostics.push(Diagnostic::new(
                LintCode::BrokenEventChain,
                Location::at(&subject, format!("seq {} (job '{job}')", event.seq)),
                format!(
                    "event claims {:?} -> {}, but the job's previous state was {:?}",
                    event.from, event.to, previous
                ),
            ));
        }

        // QL0303: the observed transition must be legal.
        if let Some(from) = event.from {
            if !from.can_transition_to(event.to) {
                diagnostics.push(Diagnostic::new(
                    LintCode::IllegalTransition,
                    Location::at(&subject, format!("seq {} (job '{job}')", event.seq)),
                    format!(
                        "transition {from} -> {} is outside the legality table",
                        event.to
                    ),
                ));
            }
        }

        // QL0305: each Running entry must be "paid for" — the first one by
        // admission, every later one by an intervening Retrying decision.
        // (A retried job legitimately runs again; a *silent* re-run is the
        // double-execution bug this lint exists to catch.)
        if event.to == JobState::Running {
            let allowed = may_run.entry(job).or_insert(true);
            if !*allowed {
                diagnostics.push(Diagnostic::new(
                    LintCode::DoubleRunning,
                    Location::at(&subject, format!("seq {} (job '{job}')", event.seq)),
                    "job re-entered Running without an intervening Retrying decision".to_string(),
                ));
            }
            *allowed = false;
        }
        if event.to == JobState::Retrying {
            may_run.insert(job, true);

            // QL0306: the orchestrator's cause of each Retrying event names
            // the attempt that failed; it must climb by exactly one per
            // retry decision (monotone, gapless), or the backoff schedule
            // and dead-letter accounting disagree with reality.
            if let Some(Cause::Attempt { n, backoff, .. }) = event.cause.as_deref() {
                let expected = last_attempt.get(job).copied().unwrap_or(0) + 1;
                if *n != expected {
                    diagnostics.push(Diagnostic::new(
                        LintCode::NonMonotoneAttempts,
                        Location::at(&subject, format!("seq {} (job '{job}')", event.seq)),
                        format!(
                            "expected attempt {expected}, but the Retrying cause says attempt {n}"
                        ),
                    ));
                }
                last_attempt.insert(job, *n);
                not_before.insert(job, event.at.saturating_add(*backoff));
            }
        }

        // QL0309: "backoff elapsed" must be true of the announced backoff.
        // (A cancel or a deadline may end a backoff early; neither says it
        // elapsed.)
        let elapsed = matches!(event.cause.as_deref(), Some(Cause::BackoffElapsed));
        if event.from == Some(JobState::Retrying) && elapsed {
            let due = not_before.get(job).copied().unwrap_or(0);
            if event.at < due {
                diagnostics.push(Diagnostic::new(
                    LintCode::BackoffCutShort,
                    Location::at(&subject, format!("seq {} (job '{job}')", event.seq)),
                    format!(
                        "re-queued at {} as \"backoff elapsed\", but the backoff announced runs until {due}",
                        event.at
                    ),
                ));
            }
        }

        last_state.insert(job, event.to);
    }

    // QL0304: at the end of a drained run, no job may be left behind.
    if options.require_terminal {
        for (job, state) in &last_state {
            if !state.is_terminal() {
                diagnostics.push(Diagnostic::new(
                    LintCode::JobLost,
                    Location::at(&subject, format!("job '{job}'")),
                    format!("job's last observed state is {state}, not a terminal state"),
                ));
            }
        }
    }

    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio::JobId;

    fn event(seq: u64, job: &str, from: Option<JobState>, to: JobState) -> JobEvent {
        JobEvent {
            seq,
            at: 0,
            job: JobId::new(job),
            from,
            to,
            node: None,
            cause: None,
        }
    }

    fn healthy_log() -> Vec<JobEvent> {
        use JobState::*;
        vec![
            event(0, "a", None, Submitted),
            event(1, "a", Some(Submitted), Queued),
            event(2, "b", None, Submitted),
            event(3, "b", Some(Submitted), Queued),
            event(4, "a", Some(Queued), Scheduled),
            event(5, "a", Some(Scheduled), Running),
            event(6, "a", Some(Running), Succeeded),
            event(7, "b", Some(Queued), Failed),
        ]
    }

    #[test]
    fn a_healthy_log_audits_clean() {
        assert!(audit_watch_log(&healthy_log(), AuditOptions::default()).is_empty());
    }

    #[test]
    fn sparse_sequence_numbers_are_flagged() {
        let mut log = healthy_log();
        log[3].seq = 30;
        let diags = audit_watch_log(&log, AuditOptions::default());
        assert!(diags.iter().any(|d| d.code == LintCode::NonDenseSequence));
    }

    #[test]
    fn broken_chains_are_flagged() {
        use JobState::*;
        let log = vec![
            event(0, "a", None, Submitted),
            event(1, "a", Some(Queued), Scheduled), // skipped the Queued entry
        ];
        let diags = audit_watch_log(
            &log,
            AuditOptions {
                require_terminal: false,
            },
        );
        assert!(diags.iter().any(|d| d.code == LintCode::BrokenEventChain));
    }

    #[test]
    fn illegal_transitions_are_flagged() {
        use JobState::*;
        let log = vec![
            event(0, "a", None, Submitted),
            event(1, "a", Some(Submitted), Queued),
            event(2, "a", Some(Queued), Running), // skips Scheduled: illegal
        ];
        let diags = audit_watch_log(
            &log,
            AuditOptions {
                require_terminal: false,
            },
        );
        assert!(diags.iter().any(|d| d.code == LintCode::IllegalTransition));
    }

    #[test]
    fn lost_jobs_are_flagged_only_when_required() {
        use JobState::*;
        let log = vec![
            event(0, "a", None, Submitted),
            event(1, "a", Some(Submitted), Queued),
        ];
        let strict = audit_watch_log(&log, AuditOptions::default());
        assert!(strict.iter().any(|d| d.code == LintCode::JobLost));
        let lax = audit_watch_log(
            &log,
            AuditOptions {
                require_terminal: false,
            },
        );
        assert!(!lax.iter().any(|d| d.code == LintCode::JobLost));
    }

    #[test]
    fn double_running_is_flagged() {
        use JobState::*;
        // Craft a log whose individual arcs are legal-looking via the rebind
        // path but which runs the job twice (from-states forged to match).
        let log = vec![
            event(0, "a", None, Submitted),
            event(1, "a", Some(Submitted), Queued),
            event(2, "a", Some(Queued), Scheduled),
            event(3, "a", Some(Scheduled), Running),
            event(4, "a", Some(Running), Succeeded),
            event(5, "a", Some(Scheduled), Running), // forged second run
        ];
        let diags = audit_watch_log(
            &log,
            AuditOptions {
                require_terminal: false,
            },
        );
        assert!(diags.iter().any(|d| d.code == LintCode::DoubleRunning));
    }

    fn retry_event(seq: u64, job: &str, from: JobState, to: JobState, cause: Cause) -> JobEvent {
        JobEvent {
            cause: Some(Box::new(cause)),
            ..event(seq, job, Some(from), to)
        }
    }

    /// Attempt `n` failed and backs off `backoff`.
    fn attempt(n: u32, backoff: u64) -> Cause {
        Cause::Attempt {
            n,
            error: qrio_cluster::ClusterError::ExecutionFailed {
                job: "a".into(),
                reason: "boom".into(),
            },
            backoff,
        }
    }

    /// A full, legal retry loop: run, fail into Retrying, requeue, run
    /// again, succeed.
    fn retry_log(first: Cause, second: Cause) -> Vec<JobEvent> {
        use JobState::*;
        vec![
            event(0, "a", None, Submitted),
            event(1, "a", Some(Submitted), Queued),
            event(2, "a", Some(Queued), Scheduled),
            event(3, "a", Some(Scheduled), Running),
            retry_event(4, "a", Running, Retrying, first),
            event(5, "a", Some(Retrying), Queued),
            event(6, "a", Some(Queued), Scheduled),
            event(7, "a", Some(Scheduled), Running),
            retry_event(8, "a", Running, Retrying, second),
            event(9, "a", Some(Retrying), Queued),
            event(10, "a", Some(Queued), Scheduled),
            event(11, "a", Some(Scheduled), Running),
            event(12, "a", Some(Running), Succeeded),
        ]
    }

    #[test]
    fn retried_jobs_may_rerun_and_audit_clean() {
        let log = retry_log(attempt(1, 4), attempt(2, 8));
        assert!(audit_watch_log(&log, AuditOptions::default()).is_empty());
    }

    #[test]
    fn non_monotone_attempt_counters_are_flagged() {
        // The second Retrying claims attempt 5; after attempt 1, only
        // attempt 2 is coherent.
        let log = retry_log(attempt(1, 4), attempt(5, 8));
        let diags = audit_watch_log(&log, AuditOptions::default());
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::NonMonotoneAttempts));
        // Causes without the counter skip the check rather than misfire.
        let opaque = retry_log(Cause::Cancelled, Cause::Cancelled);
        assert!(audit_watch_log(&opaque, AuditOptions::default()).is_empty());
    }

    #[test]
    fn stamps_running_backwards_and_backoffs_cut_short_are_flagged() {
        // Attempt 1 fails at t=10 and announces 4, attempt 2 at t=20 and
        // announces 8; both re-queue on the dot.
        let mut log = retry_log(attempt(1, 4), attempt(2, 8));
        for (seq, at) in [0, 0, 1, 10, 10, 14, 14, 20, 20, 28, 28, 30, 30]
            .into_iter()
            .enumerate()
        {
            log[seq].at = at;
        }
        for requeue in [5, 9] {
            log[requeue].cause = Some(Box::new(Cause::BackoffElapsed));
        }
        assert!(audit_watch_log(&log, AuditOptions::default()).is_empty());

        let codes = |log: &[JobEvent]| -> Vec<LintCode> {
            let diags = audit_watch_log(log, AuditOptions::default());
            diags.iter().map(|d| d.code).collect()
        };
        let mut early = log.clone();
        early[9].at = 27;
        assert_eq!(codes(&early), [LintCode::BackoffCutShort]);
        // The same early re-queue under any other cause is someone's
        // decision, not a timer's claim.
        early[9].cause = None;
        assert!(codes(&early).is_empty());
        let mut rewound = log.clone();
        rewound[11].at = 27;
        assert_eq!(codes(&rewound), [LintCode::TimeRanBackwards]);
    }

    #[test]
    fn events_after_a_terminal_state_are_flagged() {
        use JobState::*;
        let log = vec![
            event(0, "a", None, Submitted),
            event(1, "a", Some(Submitted), Queued),
            event(2, "a", Some(Queued), Failed),
            event(3, "a", Some(Failed), Queued), // zombie revival
        ];
        let diags = audit_watch_log(
            &log,
            AuditOptions {
                require_terminal: false,
            },
        );
        assert!(diags.iter().any(|d| d.code == LintCode::EventAfterTerminal));
    }
}
