//! End-to-end lifecycle audit: replay the watch log of a full `cloud_smoke`
//! loadgen run through the auditor. A clean audit proves the orchestrator's
//! bookkeeping over thousands of real transitions — dense sequence numbers,
//! correctly chained per-job events, only legal transitions, no job lost, no
//! double execution.

use qrio_analyzer::{audit_watch_log, AuditOptions};
use qrio_loadgen::{run_scenario_with_log, Scenario};

#[test]
fn cloud_smoke_watch_log_audits_clean() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/cloud_smoke.yaml"
    );
    let text = std::fs::read_to_string(path).expect("shipped scenario");
    let scenario = Scenario::from_yaml(&text).expect("shipped scenario parses");
    let (report, log) = run_scenario_with_log(&scenario).expect("scenario runs");
    assert!(report.completed > 0, "the run did no work");
    assert!(
        log.len() as u64 >= 4 * report.completed,
        "each completed job emits at least Submitted/Queued/Scheduled/Running/terminal"
    );
    let diags = audit_watch_log(&log, AuditOptions::default());
    assert!(
        diags.is_empty(),
        "watch-log audit found violations: {diags:#?}"
    );
}

/// The blocking wrapper over the same lifecycle: a job `submit` carries
/// through two backoffs into the dead-letter queue leaves a log the auditor
/// accepts. (It once forced the job out of `Retrying` at the first tick that
/// only moved the clock — an edge QL0303 rejects.)
#[test]
fn a_submit_that_waits_out_its_backoffs_audits_clean() {
    use qrio::{JobRequestBuilder, Qrio};
    use qrio_backend::{topology, Backend};
    use qrio_cluster::{FaultInjector, RetryPolicy};

    let mut qrio = Qrio::new();
    qrio.add_device(Backend::uniform("solo", topology::line(5), 0.01, 0.05))
        .expect("fresh name");
    let storm = FaultInjector {
        seed: 11,
        transient_rate: 1.0,
        ..FaultInjector::default()
    };
    qrio.configure_faults(Some(storm)).expect("no journal");
    let request = JobRequestBuilder::new()
        .with_circuit(&qrio_circuit::library::ghz(3).expect("ghz"))
        .job_name("patient")
        .min_queue()
        .shots(16)
        .retry_policy(RetryPolicy::fixed(3, 3))
        .build()
        .expect("request");
    assert!(qrio.submit(&request).is_err(), "every attempt is faulted");
    let diags = audit_watch_log(qrio.watch(0), AuditOptions::default());
    assert!(
        diags.is_empty(),
        "watch-log audit found violations: {diags:#?}"
    );
}
