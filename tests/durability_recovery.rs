//! Crash-recovery integration tests: enable durability, mutate, "crash" (drop
//! the orchestrator), recover from the journal and verify the rebuilt
//! instance matches the pre-crash one exactly — then keep working with it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use qrio::durability::{
    decode_command, events_digest, snapshot_cursor, CommandRecord, DurabilityError, RECORD_COMMAND,
    RECORD_SNAPSHOT,
};
use qrio::{
    Command, DeviceTelemetry, DurabilityConfig, FidelityRankingConfig, JobRequestBuilder, JobState,
    Qrio, QrioError,
};
use qrio_backend::{topology, Backend};
use qrio_circuit::{library, Circuit};
use qrio_cluster::{StrategyParams, StrategySpec};
use qrio_meta::{JobContext, MetaError, RankingStrategy, Score};

/// A scratch journal path unique to this test binary and test name.
fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrio-recovery-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{name}.qj"))
}

/// Framed sizes of the journal's records of one kind, in file order.
fn framed_sizes(path: &Path, kind: u8) -> Vec<u64> {
    let scan = qrio_journal::scan_file(path).expect("journal scans");
    assert!(scan.torn.is_none(), "journal has a torn tail");
    scan.records
        .iter()
        .filter(|record| record.kind == kind)
        .map(qrio_journal::Record::framed_len)
        .collect()
}

/// How many snapshot records the journal holds, genesis included.
fn snapshot_count(path: &Path) -> usize {
    framed_sizes(path, RECORD_SNAPSHOT).len()
}

fn seeded_qrio() -> Qrio {
    Qrio::with_config(
        FidelityRankingConfig {
            shots: 96,
            seed: 23,
            shortfall_weight: 100.0,
        },
        23,
    )
}

fn two_device_fleet(qrio: &mut Qrio) {
    qrio.add_device(Backend::uniform("clean", topology::line(8), 0.002, 0.01))
        .unwrap();
    qrio.add_device(Backend::uniform("noisy", topology::line(8), 0.05, 0.35))
        .unwrap();
}

fn bv_request(name: &str) -> qrio::JobRequest {
    let bv = library::bernstein_vazirani(4, 0b1011).unwrap();
    JobRequestBuilder::new()
        .with_circuit(&bv)
        .job_name(name)
        .fidelity_target(0.8)
        .shots(64)
        .build()
        .unwrap()
}

#[test]
fn recovery_restores_exact_pre_crash_state_and_resumes() {
    let path = journal_path("exact-state");
    let (pre_events, pre_statuses, pre_now);
    {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(
            &path,
            DurabilityConfig {
                snapshot_every: 3,
                ..DurabilityConfig::default()
            },
        )
        .unwrap();
        two_device_fleet(&mut qrio);
        let ids: Vec<_> = ["dur-a", "dur-b", "dur-c"]
            .iter()
            .map(|name| qrio.enqueue(&bv_request(name)).unwrap())
            .collect();
        qrio.report_telemetry([(
            "noisy".to_string(),
            DeviceTelemetry {
                queue_depth: 3,
                utilization: 0.5,
                health_penalty: 0.0,
            },
        )]);
        // The cadence alone stops after the first automatic snapshot here
        // (two devices' spec text outweigh this short log), so take the one
        // recovery is to start from: telemetry and queued jobs are restored,
        // the tick and the cancel below are replayed.
        qrio.snapshot_now().unwrap();
        // One service cycle: some jobs finish, at least one stays in flight,
        // so the crash lands mid-workload.
        qrio.tick();
        qrio.cancel(&ids[2]).ok();
        assert!(qrio.durability_error().is_none());

        pre_events = qrio.watch(0).to_vec();
        pre_statuses = ids
            .iter()
            .map(|id| (id.clone(), qrio.job_status(id).unwrap().clone()))
            .collect::<Vec<_>>();
        pre_now = qrio.now();
        // Crash: drop without any orderly shutdown.
    }

    assert!(snapshot_count(&path) >= 3, "genesis, cadence, explicit");
    let (mut recovered, report) = Qrio::recover(&path).unwrap();
    assert!(report.snapshot_cursor > 0, "recovered from the genesis");
    assert!(report.commands_replayed > 0, "nothing left to replay");
    assert_eq!(recovered.watch(0), &pre_events[..]);
    for (id, status) in &pre_statuses {
        assert_eq!(recovered.job_status(id).unwrap(), status);
    }
    assert_eq!(recovered.now(), pre_now);
    assert!(recovered.is_durable());
    assert_eq!(report.torn_tail, None);
    assert_eq!(
        report.snapshot_cursor + report.events_regenerated,
        pre_events.len() as u64,
        "every event is the snapshot's or a replayed command's"
    );
    assert_eq!(report.jobs, pre_statuses.len() as u64);

    // The recovered instance is live: finish the workload.
    recovered.run_until_idle();
    for (id, _) in &pre_statuses {
        assert!(recovered.status(id).unwrap().is_terminal());
    }
}

/// A cordon is state the node agent holds too: whether recovery restores it
/// from a snapshot (`clean`, re-sent when agents are rebuilt) or replays it
/// from the command tail (`noisy`), the recovered agent reports the flag the
/// crashed instance's agent held — and an uncordon is replayed as well.
#[test]
fn cordons_reach_the_agents_of_a_recovered_instance() {
    let path = journal_path("agent-cordon");
    let observed_cordon = |qrio: &Qrio, node: &str| match &qrio.observed_nodes()[node].report {
        qrio_proto::NodeReport::Status { cordoned, .. } => Some(*cordoned),
        _ => None,
    };
    let pre_state;
    {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(&path, DurabilityConfig::default())
            .unwrap();
        two_device_fleet(&mut qrio);
        qrio.add_device(Backend::uniform("spare", topology::line(8), 0.01, 0.05))
            .unwrap();
        qrio.cordon_device("clean").unwrap();
        qrio.snapshot_now().unwrap();
        qrio.cordon_device("noisy").unwrap();
        qrio.cordon_device("spare").unwrap();
        qrio.uncordon_device("spare").unwrap();
        for (node, cordoned) in [("clean", true), ("noisy", true), ("spare", false)] {
            assert_eq!(observed_cordon(&qrio, node), Some(cordoned), "live {node}");
        }
        pre_state = qrio.describe_state();
    }
    let (recovered, report) = Qrio::recover(&path).unwrap();
    assert_eq!(report.commands_replayed, 3);
    assert_eq!(recovered.describe_state(), pre_state);
    for (node, cordoned) in [("clean", true), ("noisy", true), ("spare", false)] {
        assert_eq!(
            observed_cordon(&recovered, node),
            Some(cordoned),
            "recovered {node}"
        );
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn recovering_the_same_journal_twice_is_byte_deterministic() {
    let path = journal_path("deterministic");
    {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(&path, DurabilityConfig::default())
            .unwrap();
        two_device_fleet(&mut qrio);
        for name in ["det-a", "det-b"] {
            let _ = qrio.enqueue(&bv_request(name)).unwrap();
        }
        qrio.tick();
    }
    let (first, first_report) = Qrio::recover(&path).unwrap();
    let (second, second_report) = Qrio::recover(&path).unwrap();
    assert_eq!(first_report, second_report);
    assert_eq!(first_report.to_string(), second_report.to_string());
    assert_eq!(first.watch(0), second.watch(0));
}

#[test]
fn torn_tail_is_truncated_and_recovery_keeps_the_acknowledged_prefix() {
    let path = journal_path("torn-tail");
    let pre_jobs: Vec<String>;
    {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(&path, DurabilityConfig::default())
            .unwrap();
        two_device_fleet(&mut qrio);
        for name in ["torn-a", "torn-b", "torn-c"] {
            let _ = qrio.enqueue(&bv_request(name)).unwrap();
        }
        qrio.tick();
        pre_jobs = qrio.watch(0).iter().map(|e| e.job.to_string()).collect();
    }

    // Tear the last few bytes off, as a crash mid-write would.
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

    let (mut recovered, report) = Qrio::recover(&path).unwrap();
    assert!(report.torn_tail.is_some(), "truncation must be reported");
    // Every job the torn journal still knows was a real pre-crash job —
    // the tear can only lose the unacknowledged tail, never invent state.
    for event in recovered.watch(0) {
        assert!(pre_jobs.contains(&event.job.to_string()));
    }
    // And the recovered instance keeps journaling: drive it to completion.
    recovered.run_until_idle();
    assert!(recovered.durability_error().is_none());
}

/// Ranks devices by name length — exists only to prove the re-registration
/// hook runs before replay.
#[derive(Debug)]
struct NameLength;

impl RankingStrategy for NameLength {
    fn name(&self) -> &str {
        "name-length"
    }

    fn validate(
        &self,
        _params: &StrategyParams,
        _circuit: Option<&Circuit>,
    ) -> Result<(), MetaError> {
        Ok(())
    }

    fn score(&self, _job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
        Ok(Score::new(backend.name(), backend.name().len() as f64))
    }
}

#[test]
fn custom_strategies_need_the_recover_with_hook() {
    let path = journal_path("custom-strategy");
    {
        let mut qrio = seeded_qrio();
        qrio.register_strategy(Arc::new(NameLength)).unwrap();
        qrio.enable_durability(&path, DurabilityConfig::default())
            .unwrap();
        two_device_fleet(&mut qrio);
        let bv = library::bernstein_vazirani(4, 0b0110).unwrap();
        let request = JobRequestBuilder::new()
            .with_circuit(&bv)
            .job_name("custom-job")
            .strategy(StrategySpec::new("name-length"))
            .shots(64)
            .build()
            .unwrap();
        let _ = qrio.enqueue(&request).unwrap();
    }

    // Without the hook the journaled enqueue cannot replay (the strategy is a
    // live trait object the journal does not carry) — a typed divergence.
    match Qrio::recover(&path) {
        Err(QrioError::Durability(DurabilityError::ReplayDivergence(_))) => {}
        other => panic!("expected replay divergence, got {other:?}"),
    }

    // With the hook, replay sees the strategy and the job completes.
    let (mut recovered, _) =
        Qrio::recover_with(&path, |qrio| qrio.register_strategy(Arc::new(NameLength))).unwrap();
    let id = qrio::JobId::new("custom-job");
    assert_eq!(recovered.status(&id).unwrap(), JobState::Queued);
    recovered.run_until_idle();
    assert_eq!(recovered.status(&id).unwrap(), JobState::Succeeded);
}

/// A hook that changes what the journal says the crashed instance ran with —
/// here the fault rates — makes replay draw other verdicts than the journaled
/// run did: a typed divergence, not a quietly different history.
#[test]
fn a_recovery_hook_that_changes_the_fault_rates_diverges() {
    use qrio_cluster::{FaultInjector, RetryPolicy};

    let path = journal_path("hook-fault-rates");
    {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(&path, DurabilityConfig::default())
            .unwrap();
        two_device_fleet(&mut qrio);
        qrio.configure_faults(Some(FaultInjector {
            seed: 5,
            transient_rate: 1.0,
            ..FaultInjector::default()
        }))
        .unwrap();
        let request = JobRequestBuilder::new()
            .with_circuit(&library::bernstein_vazirani(4, 0b1001).unwrap())
            .job_name("faulted")
            .fidelity_target(0.8)
            .shots(64)
            .retry_policy(RetryPolicy::fixed(3, 1))
            .build()
            .unwrap();
        let _ = qrio.enqueue(&request).unwrap();
        qrio.snapshot_now().unwrap();
        for _ in 0..4 {
            qrio.tick();
        }
        assert!(qrio.durability_error().is_none());
    }

    // The journaled run failed every attempt; the hook clears the faults, so
    // the replayed first attempt succeeds.
    let calm = |qrio: &mut Qrio| qrio.configure_faults(None);
    match Qrio::recover_with(&path, calm) {
        Err(QrioError::Durability(DurabilityError::ReplayDivergence(detail))) => {
            assert!(
                detail.starts_with("command 0 after the snapshot"),
                "{detail}"
            );
        }
        other => panic!("expected replay divergence, got {other:?}"),
    }
    // The journal itself is sound: without the hook it recovers.
    let (recovered, _) = Qrio::recover(&path).unwrap();
    assert_eq!(
        recovered.status(&qrio::JobId::new("faulted")).unwrap(),
        JobState::Failed
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn journals_without_a_snapshot_or_with_garbage_are_typed_errors() {
    // Header-only journal: structurally valid, but nothing to recover from.
    let path = journal_path("no-snapshot");
    drop(qrio_journal::Journal::create(&path).unwrap());
    match Qrio::recover(&path) {
        Err(QrioError::Durability(DurabilityError::NoSnapshot)) => {}
        other => panic!("expected NoSnapshot, got {other:?}"),
    }

    // Not a journal at all.
    let garbage = journal_path("garbage");
    fs::write(&garbage, b"this is not a journal").unwrap();
    match Qrio::recover(&garbage) {
        Err(QrioError::Durability(DurabilityError::Journal(_))) => {}
        other => panic!("expected a journal error, got {other:?}"),
    }
}

#[test]
fn durability_lifecycle_guards() {
    let path = journal_path("guards");
    let mut qrio = seeded_qrio();
    assert!(!qrio.is_durable());
    assert_eq!(qrio.disable_durability(), None);
    qrio.enable_durability(&path, DurabilityConfig::default())
        .unwrap();
    assert!(qrio.is_durable());
    // Double-enable is rejected without clobbering the active journal.
    match qrio.enable_durability(&path, DurabilityConfig::default()) {
        Err(QrioError::InvalidRequest(_)) => {}
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    qrio.sync_journal().unwrap();
    qrio.snapshot_now().unwrap();
    assert_eq!(qrio.disable_durability(), None);
    assert!(!qrio.is_durable());

    // Enabling at an impossible path surfaces the journal error.
    let dir = std::env::temp_dir();
    match qrio.enable_durability(&dir, DurabilityConfig::default()) {
        Err(QrioError::Durability(DurabilityError::Journal(_))) => {}
        other => panic!("expected a journal error, got {other:?}"),
    }
    assert!(!qrio.is_durable());
}

#[test]
fn batched_sync_recovery_loses_no_acknowledged_jobs() {
    // `sync_every_n_commands` batches the expensive fsync, but every command
    // is still flushed to the OS before it is acknowledged — so a process
    // crash (drop without shutdown) must never lose an acknowledged job, no
    // matter where in the sync batch it lands.
    for jobs in 1..=6u32 {
        let path = journal_path(&format!("batched-sync-{jobs}"));
        let ids: Vec<qrio::JobId>;
        {
            let mut qrio = seeded_qrio();
            qrio.enable_durability(
                &path,
                DurabilityConfig {
                    snapshot_every: 1_000,
                    sync_every_n_commands: 4,
                    compact_above_bytes: 0,
                },
            )
            .unwrap();
            two_device_fleet(&mut qrio);
            ids = (0..jobs)
                .map(|i| {
                    qrio.enqueue(&bv_request(&format!("ack-{jobs}-{i}")))
                        .unwrap()
                })
                .collect();
            qrio.tick();
            assert!(qrio.durability_error().is_none());
            // Crash mid-batch: no disable_durability, no final sync.
        }
        let (recovered, _) = Qrio::recover(&path).unwrap();
        for id in &ids {
            assert!(
                recovered.job_status(id).is_ok(),
                "job {id} was acknowledged before the crash but lost on recovery \
                 (jobs={jobs}, sync_every_n_commands=4)"
            );
        }
    }
}

#[test]
fn faulted_workload_recovers_retries_dead_letters_and_breakers_exactly() {
    use qrio::BreakerConfig;
    use qrio_cluster::{FaultInjector, RetryPolicy};

    let path = journal_path("fault-recovery");
    let (pre_events, pre_dead, pre_board, pre_now, pre_outcome);
    let exhausted = qrio::JobId::new("retry-exhaust");
    {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(
            &path,
            DurabilityConfig {
                snapshot_every: 5,
                sync_every_n_commands: 3,
                compact_above_bytes: 0,
            },
        )
        .unwrap();
        two_device_fleet(&mut qrio);
        qrio.configure_breakers(Some(BreakerConfig {
            consecutive_failures: 2,
            failure_rate: 2.0,
            window: 8,
            open_ticks: 4,
            probe_jobs: 1,
        }))
        .unwrap();
        qrio.configure_faults(Some(FaultInjector {
            seed: 77,
            transient_rate: 1.0,
            ..FaultInjector::default()
        }))
        .unwrap();
        // One job retries its way to the dead-letter queue; two more fail
        // fast and trip breakers; one sits in backoff when the crash hits.
        let _ = qrio
            .enqueue(
                &JobRequestBuilder::new()
                    .with_circuit(&library::bernstein_vazirani(4, 0b1011).unwrap())
                    .job_name("retry-exhaust")
                    .fidelity_target(0.8)
                    .shots(64)
                    .retry_policy(RetryPolicy::fixed(2, 1))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        for name in ["fast-fail-a", "fast-fail-b"] {
            let _ = qrio.enqueue(&bv_request(name)).unwrap();
        }
        let _ = qrio
            .enqueue(
                &JobRequestBuilder::new()
                    .with_circuit(&library::bernstein_vazirani(4, 0b0101).unwrap())
                    .job_name("in-backoff")
                    .fidelity_target(0.8)
                    .shots(64)
                    .retry_policy(RetryPolicy::exponential(6, 50, 400))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        for tick in 0..8 {
            qrio.tick();
            if tick == 3 {
                // Recovery is to start mid-storm: breakers tripped, a job in
                // backoff, attempts counted. The cadence no longer puts a
                // snapshot here by itself.
                qrio.snapshot_now().unwrap();
            }
        }
        assert!(qrio.durability_error().is_none());
        assert!(
            !qrio.dead_letters().is_empty(),
            "the exhausted job must be dead-lettered before the crash"
        );
        pre_events = qrio.watch(0).to_vec();
        pre_dead = qrio.dead_letters();
        pre_board = qrio.breakers().cloned();
        pre_now = qrio.now();
        pre_outcome = qrio.outcome(&exhausted).unwrap_err();
        assert!(
            matches!(
                pre_outcome,
                QrioError::Cluster(qrio_cluster::ClusterError::InjectedFault { .. })
            ),
            "{pre_outcome}"
        );
        // Crash.
    }

    assert!(snapshot_count(&path) >= 3, "genesis, cadence, explicit");
    let (mut recovered, report) = Qrio::recover(&path).unwrap();
    assert!(report.snapshot_cursor > 0, "recovered from the genesis");
    assert!(report.commands_replayed > 0, "nothing left to replay");
    assert_eq!(recovered.watch(0), &pre_events[..]);
    assert_eq!(recovered.dead_letters(), pre_dead);
    assert_eq!(recovered.breakers().cloned(), pre_board);
    assert_eq!(recovered.now(), pre_now);
    // A failed job's error is its cause: the same typed error after recovery.
    assert_eq!(recovered.outcome(&exhausted).unwrap_err(), pre_outcome);

    // The recovered instance carries the fault configuration too: clearing
    // it lets the backed-off job finish on a live retry.
    recovered.configure_faults(None).unwrap();
    recovered.run_until_idle();
    assert_eq!(
        recovered.status(&qrio::JobId::new("in-backoff")).unwrap(),
        JobState::Succeeded
    );
    assert!(recovered.durability_error().is_none());
}

/// A small job that skips the fidelity canaries, for tests that need many.
fn small_request(name: &str) -> qrio::JobRequest {
    JobRequestBuilder::new()
        .with_circuit(&library::ghz(3).unwrap())
        .job_name(name)
        .min_queue()
        .shots(16)
        .build()
        .unwrap()
}

#[test]
fn superseded_snapshots_never_outweigh_the_log() {
    // The amortised rule's guarantee, in exact byte counts: every snapshot
    // but the last has been superseded, and together they may not outweigh
    // the command records they summarise.
    let path = journal_path("amortised");
    let mut qrio = seeded_qrio();
    qrio.enable_durability(&path, DurabilityConfig::default())
        .unwrap();
    two_device_fleet(&mut qrio);
    for i in 0..320 {
        let id = qrio.enqueue(&small_request(&format!("small-{i}"))).unwrap();
        qrio.schedule(&id).unwrap();
        qrio.execute(&id).unwrap();
    }
    assert!(qrio.durability_error().is_none());
    drop(qrio);

    let snapshots = framed_sizes(&path, RECORD_SNAPSHOT);
    assert!(
        snapshots.len() >= 3,
        "only {} snapshots: the rule was never exercised",
        snapshots.len()
    );
    let superseded: u64 = snapshots[..snapshots.len() - 1].iter().sum();
    let log: u64 = framed_sizes(&path, RECORD_COMMAND).iter().sum();
    assert!(
        superseded <= log,
        "{} superseded snapshots hold {superseded} B around {log} B of log",
        snapshots.len() - 1
    );
}

#[test]
fn snapshot_cadence_survives_recovery() {
    // One command stream, run uninterrupted and run with crashes between
    // snapshots: both must snapshot at the same watch-log cursors, because
    // recovery restores the cadence counters from the journal it scanned.
    // With compaction on, the snapshot recovered from is the first record.
    let last_snapshot = |path: &Path| {
        let scan = qrio_journal::scan_file(path).unwrap();
        let record = scan
            .records
            .iter()
            .rev()
            .find(|r| r.kind == RECORD_SNAPSHOT);
        snapshot_cursor(&record.expect("a snapshot").payload).unwrap()
    };
    let run = |name: &str, compact_above_bytes: u64, crash_after: &[usize]| {
        let path = journal_path(name);
        let mut qrio = seeded_qrio();
        qrio.enable_durability(
            &path,
            DurabilityConfig {
                snapshot_every: 16,
                compact_above_bytes,
                ..DurabilityConfig::default()
            },
        )
        .unwrap();
        two_device_fleet(&mut qrio);
        let mut cursors = vec![last_snapshot(&path)];
        for command in 0..180 {
            let id = qrio::JobId::new(format!("cad-{}", command / 3));
            match command % 3 {
                0 => drop(qrio.enqueue(&small_request(id.as_str())).unwrap()),
                1 => drop(qrio.schedule(&id).unwrap()),
                _ => qrio.execute(&id).unwrap(),
            }
            let at = last_snapshot(&path);
            if cursors.last() != Some(&at) {
                cursors.push(at);
            }
            if crash_after.contains(&command) {
                drop(qrio);
                let (recovered, report) = Qrio::recover(&path).unwrap();
                assert!(report.commands_replayed > 0, "crash on a boundary");
                qrio = recovered;
            }
        }
        assert!(qrio.durability_error().is_none());
        drop(qrio);
        (cursors, fs::read(&path).unwrap())
    };

    // One crash before the first automatic snapshot (the command floor
    // decides it), two before the second (the log has to outgrow the first;
    // both byte counters matter), two after.
    let crashes = [4, 22, 61, 120, 149];
    for (mode, compact_above_bytes) in [("full", 0), ("compacted", 1)] {
        let (steady, steady_bytes) = run(&format!("cadence-{mode}"), compact_above_bytes, &[]);
        let (crashed, crashed_bytes) = run(
            &format!("cadence-{mode}-crashed"),
            compact_above_bytes,
            &crashes,
        );
        assert!(steady.len() >= 3, "{mode}: snapshots at {steady:?} only");
        assert_eq!(steady, crashed, "{mode}: crashes moved the snapshots");
        assert!(
            steady_bytes == crashed_bytes,
            "{mode}: same snapshots, different journal bytes"
        );
    }
}

#[test]
fn durability_does_not_change_behavior() {
    let run = |durable: bool| {
        let path = journal_path("behavior-parity");
        let mut qrio = seeded_qrio();
        if durable {
            qrio.enable_durability(
                &path,
                DurabilityConfig {
                    snapshot_every: 2,
                    ..DurabilityConfig::default()
                },
            )
            .unwrap();
        }
        two_device_fleet(&mut qrio);
        for name in ["par-a", "par-b", "par-c"] {
            let _ = qrio.enqueue(&bv_request(name)).unwrap();
        }
        qrio.run_until_idle();
        (
            qrio.watch(0).to_vec(),
            qrio.now(),
            qrio.outcome(&qrio::JobId::new("par-a"))
                .unwrap()
                .decision
                .node,
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn compacted_journal_recovers_identically_to_uncompacted() {
    // Run the same seeded workload twice: once journaling everything forever,
    // once with aggressive compaction (every snapshot triggers a rewrite).
    // Replaying the compacted journal must reconstruct the exact same state as
    // replaying the full one — compaction may only drop bytes that no longer
    // influence recovery.
    let run = |compact_above_bytes: u64, path: &PathBuf| {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(
            path,
            DurabilityConfig {
                snapshot_every: 2,
                compact_above_bytes,
                ..DurabilityConfig::default()
            },
        )
        .unwrap();
        two_device_fleet(&mut qrio);
        let ids: Vec<_> = ["cmp-a", "cmp-b", "cmp-c", "cmp-d"]
            .iter()
            .map(|name| qrio.enqueue(&bv_request(name)).unwrap())
            .collect();
        // Compaction runs when a snapshot is written; the cadence writes
        // none past the fleet registration on a log this short, so take one
        // with the queue full and leave the drain as the tail to replay.
        qrio.snapshot_now().unwrap();
        qrio.run_until_idle();
        assert!(qrio.durability_error().is_none());
        ids
        // Crash: drop without shutdown.
    };

    let full_path = journal_path("compact-equiv-full");
    let compact_path = journal_path("compact-equiv-compacted");
    let ids = run(0, &full_path);
    let same_ids = run(1, &compact_path);
    assert_eq!(ids, same_ids);

    // The full journal keeps every snapshot; the compacted one starts at the
    // last snapshot written.
    assert!(
        snapshot_count(&full_path) >= 3,
        "genesis, cadence, explicit"
    );
    assert_eq!(snapshot_count(&compact_path), 1);

    // Compaction actually reclaimed space on disk.
    let full_len = fs::metadata(&full_path).unwrap().len();
    let compact_len = fs::metadata(&compact_path).unwrap().len();
    assert!(
        compact_len < full_len,
        "compacted journal ({compact_len} bytes) should be smaller than the \
         uncompacted one ({full_len} bytes)"
    );

    // Both journals recover to the same live state.
    let (full, _) = Qrio::recover(&full_path).unwrap();
    let (compacted, _) = Qrio::recover(&compact_path).unwrap();
    assert_eq!(full.watch(0), compacted.watch(0));
    assert_eq!(full.now(), compacted.now());
    for id in &ids {
        assert_eq!(
            full.job_status(id).unwrap(),
            compacted.job_status(id).unwrap()
        );
        assert_eq!(full.outcome(id).unwrap(), compacted.outcome(id).unwrap());
    }
    assert_eq!(full.dead_letters(), compacted.dead_letters());
}

#[test]
fn replay_to_reconstructs_every_intermediate_prefix() {
    // Time-travel replay: for every cursor in the journal's history, the
    // reconstructed watch log must be an exact prefix of the full history,
    // and the checkpoint must land on the first command boundary at or
    // after the target.
    let path = journal_path("replay-to");
    {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(
            &path,
            DurabilityConfig {
                snapshot_every: 3,
                ..DurabilityConfig::default()
            },
        )
        .unwrap();
        two_device_fleet(&mut qrio);
        for name in ["tt-a", "tt-b", "tt-c"] {
            let _ = qrio.enqueue(&bv_request(name)).unwrap();
        }
        // A mid-history snapshot the cadence no longer takes by itself, so
        // that cursors past it have a later snapshot to start from.
        qrio.tick();
        qrio.snapshot_now().unwrap();
        qrio.run_until_idle();
    }

    assert!(snapshot_count(&path) >= 3, "genesis, cadence, explicit");
    let (full, _) = Qrio::recover(&path).unwrap();
    let history = full.watch(0).to_vec();
    assert!(history.len() > 4, "fixture needs a non-trivial history");

    let mut started_from = BTreeSet::new();
    for cursor in 0..=(history.len() as u64 + 3) {
        let (replica, checkpoint) = Qrio::replay_to(&path, cursor).unwrap();
        assert_eq!(checkpoint.target_cursor, cursor);
        assert!(checkpoint.snapshot_cursor <= cursor);
        started_from.insert(checkpoint.snapshot_cursor);
        assert!(
            checkpoint.reached_cursor >= cursor.min(history.len() as u64),
            "cursor {cursor}: replay stopped early at {}",
            checkpoint.reached_cursor
        );
        assert_eq!(checkpoint.reached_cursor as usize, replica.watch(0).len());
        assert_eq!(
            replica.watch(0),
            &history[..checkpoint.reached_cursor as usize],
            "cursor {cursor}: replayed history diverges from the full log"
        );
        // The replica is an inspection copy: nothing it does is journaled.
        assert!(!replica.is_durable());
    }

    assert!(
        started_from.len() >= 3,
        "replay started from snapshot cursors {started_from:?} only"
    );

    // Replaying to the end reconstructs the terminal state exactly.
    let (at_end, _) = Qrio::replay_to(&path, history.len() as u64).unwrap();
    assert_eq!(at_end.describe_state(), full.describe_state());
}

#[test]
fn replay_to_leaves_a_torn_journal_untouched() {
    // The time-travel inspector is read-only: a torn tail is `recover`'s to
    // truncate, not the inspector's.
    let path = journal_path("replay-to-read-only");
    {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(&path, DurabilityConfig::default())
            .unwrap();
        two_device_fleet(&mut qrio);
        let _ = qrio.enqueue(&bv_request("ro-a")).unwrap();
        qrio.run_until_idle();
    }
    let mut torn = fs::read(&path).unwrap();
    torn.extend_from_slice(b"\x01\x02\x00\xff\xff garbage from a crash mid-append");
    fs::write(&path, &torn).unwrap();

    let (replica, checkpoint) = Qrio::replay_to(&path, u64::MAX).unwrap();
    assert_eq!(checkpoint.reached_cursor as usize, replica.watch(0).len());
    assert_eq!(
        fs::read(&path).unwrap(),
        torn,
        "replay_to must not modify the journal it inspects"
    );

    // Recovery still truncates — that is its documented job.
    let (recovered, report) = Qrio::recover(&path).unwrap();
    assert!(report.torn_tail.is_some());
    assert_eq!(recovered.watch(0), replica.watch(0));
    assert!(fs::read(&path).unwrap().len() < torn.len());
}

/// The tag of a command's variant in [`Command`]'s codec. Exhaustive on
/// purpose: a new variant does not compile until it is listed here, and
/// `every_command_variant_is_recovered` then fails until its script issues it.
fn variant_tag(command: &Command) -> u8 {
    match command {
        Command::AddDevice { .. } => 0,
        Command::Recalibrate { .. } => 1,
        Command::Telemetry { .. } => 2,
        Command::Enqueue { .. } => 3,
        Command::Cancel { .. } => 4,
        Command::Tick => 5,
        Command::ForceAdmit { .. } => 6,
        Command::Schedule { .. } => 7,
        Command::Execute { .. } => 8,
        Command::Rebind { .. } => 9,
        Command::Cordon { .. } => 10,
        Command::Uncordon { .. } => 11,
        Command::Heal => 12,
        Command::ConfigureFaults { .. } => 13,
        Command::ConfigureBreakers { .. } => 14,
        Command::Interrupt { .. } => 16,
        Command::AdvanceTo { .. } => 18,
        Command::ConfigureService { .. } => 19,
    }
}

/// The tags [`variant_tag`] lists: 15 and 17 are retired.
const COMMAND_TAGS: [u8; 18] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 18, 19];

/// A service model over [`two_device_fleet`]: a 64-shot job takes 46 on
/// `noisy` and 23 on `clean`, which runs twice as fast.
fn two_device_service() -> qrio::ServiceModel {
    qrio::ServiceModel {
        base_us: 20_000,
        per_shot_us: 400,
        speeds: [("clean".to_string(), 2.0)].into(),
    }
}

/// One step of [`every_command_script`]: a public call on the orchestrator.
type Step = Box<dyn Fn(&mut Qrio)>;

/// One public call per step, between them every journaled command: a job is
/// bound, flapped, backs off, rebound and run by hand; one is cancelled; one
/// is force-failed against a cordoned fleet; one retries into the
/// dead-letter queue under an injected storm; one waits past its deadline
/// while only the clock moves; then, under a service model, one is cut short
/// in service — its device's breaker trips and the job waiting behind it
/// flees — and both finish on the clock. Results are ignored where the call
/// errs by design (`interrupt`) — the states are compared, not the returns.
fn every_command_script() -> Vec<Step> {
    use qrio::BreakerConfig;
    use qrio_cluster::{FaultInjector, RetryPolicy};

    fn retrying_request(name: &str, policy: RetryPolicy) -> qrio::JobRequest {
        JobRequestBuilder::new()
            .with_circuit(&library::bernstein_vazirani(4, 0b1011).unwrap())
            .job_name(name)
            .fidelity_target(0.8)
            .shots(64)
            .retry_policy(policy)
            .build()
            .unwrap()
    }
    let id = qrio::JobId::new;
    vec![
        Box::new(two_device_fleet),
        Box::new(|q| {
            q.configure_breakers(Some(BreakerConfig {
                consecutive_failures: 1,
                failure_rate: 2.0,
                window: 4,
                open_ticks: 500,
                probe_jobs: 1,
            }))
            .unwrap();
        }),
        Box::new(|q| {
            let request = retrying_request("by-hand", RetryPolicy::fixed(3, 1_000));
            drop(q.enqueue(&request).unwrap());
        }),
        Box::new(|q| {
            q.report_telemetry([(
                "noisy".to_string(),
                DeviceTelemetry {
                    queue_depth: 2,
                    utilization: 0.25,
                    health_penalty: 0.0,
                },
            )]);
        }),
        Box::new(move |q| drop(q.schedule(&id("by-hand")).unwrap())),
        // The flap trips the device's breaker (one failure suffices).
        Box::new(move |q| drop(q.interrupt(&id("by-hand")).unwrap_err())),
        Box::new(|q| drop(q.heal_devices().unwrap())),
        // The breaker probes at +500, the backoff re-queues at +1000.
        Box::new(move |q| {
            let fired = q.advance_to(q.now() + 1_000).unwrap();
            assert_eq!(fired.probing.len(), 1, "the flapped device probes");
            assert_eq!(fired.requeued, [id("by-hand")]);
        }),
        Box::new(|q| {
            q.recalibrate_device(Backend::uniform("noisy", topology::line(8), 0.04, 0.3))
                .unwrap();
        }),
        Box::new(move |q| drop(q.schedule(&id("by-hand")).unwrap())),
        Box::new(move |q| {
            let bound = q.job_status(&id("by-hand")).unwrap().node.clone().unwrap();
            let other = if bound == "clean" { "noisy" } else { "clean" };
            q.rebind(&id("by-hand"), other).unwrap();
        }),
        Box::new(move |q| q.execute(&id("by-hand")).unwrap()),
        Box::new(|q| drop(q.enqueue(&bv_request("withdrawn")).unwrap())),
        Box::new(move |q| q.cancel(&id("withdrawn")).unwrap()),
        Box::new(|q| q.cordon_device("clean").unwrap()),
        Box::new(|q| q.cordon_device("noisy").unwrap()),
        // Nothing can host it now: a no-progress tick, then a forced verdict.
        Box::new(|q| drop(q.enqueue(&bv_request("stranded")).unwrap())),
        Box::new(|q| drop(q.run_until_idle())),
        Box::new(|q| q.uncordon_device("clean").unwrap()),
        Box::new(|q| {
            q.configure_faults(Some(FaultInjector {
                seed: 5,
                transient_rate: 1.0,
                ..FaultInjector::default()
            }))
            .unwrap();
        }),
        Box::new(|q| {
            let request = retrying_request("doomed", RetryPolicy::fixed(2, 2));
            drop(q.enqueue(&request).unwrap());
        }),
        Box::new(|q| drop(q.run_until_idle())),
        Box::new(|q| q.configure_faults(None).unwrap()),
        Box::new(|q| {
            let request = JobRequestBuilder::new()
                .with_circuit(&library::bernstein_vazirani(4, 0b1011).unwrap())
                .job_name("overdue")
                .fidelity_target(0.8)
                .deadline(5)
                .build()
                .unwrap();
            drop(q.enqueue(&request).unwrap());
        }),
        // Nobody schedules it: the deadline timer fires on the way.
        Box::new(move |q| {
            let fired = q.advance_to(q.now() + 10).unwrap();
            assert_eq!(fired.expired, [id("overdue")]);
        }),
        // The storm tripped `clean`'s breaker: wait out its open interval.
        Box::new(|q| drop(q.advance_to(q.now() + 500).unwrap())),
        Box::new(|q| q.uncordon_device("noisy").unwrap()),
        Box::new(|q| q.configure_service(Some(two_device_service())).unwrap()),
        Box::new(|q| {
            let request = retrying_request("served", RetryPolicy::fixed(2, 5));
            drop(q.enqueue(&request).unwrap());
        }),
        Box::new(move |q| drop(q.schedule(&id("served")).unwrap())),
        Box::new(|q| drop(q.enqueue(&bv_request("behind")).unwrap())),
        Box::new(move |q| drop(q.schedule(&id("behind")).unwrap())),
        Box::new(move |q| {
            let device = q.job_status(&id("served")).unwrap().node.clone().unwrap();
            assert_eq!(
                q.device_queue(&device).collect::<Vec<_>>(),
                ["served", "behind"]
            );
            drop(q.interrupt(&id("served")).unwrap_err());
            // The flap tripped the device's breaker: `behind` fled and runs.
            let status = q.job_status(&id("behind")).unwrap();
            assert_ne!(status.node.as_deref(), Some(device.as_str()));
            assert_eq!(status.state, JobState::Running);
        }),
        Box::new(move |q| {
            let fired = q.advance_to(q.now() + 100).unwrap();
            assert_eq!(fired.requeued, [id("served")]);
            assert_eq!(fired.completed, [id("behind"), id("served")]);
        }),
    ]
}

#[test]
fn every_command_variant_is_recovered() {
    // Only the genesis snapshot is ever written, so each recovery replays the
    // whole command history so far — and the last one replays all of it.
    let run = |name: &str, crash_after: &[usize]| {
        let path = journal_path(name);
        let mut qrio = seeded_qrio();
        let config = DurabilityConfig {
            snapshot_every: 0,
            ..DurabilityConfig::default()
        };
        qrio.enable_durability(&path, config).unwrap();
        for (step, call) in every_command_script().iter().enumerate() {
            call(&mut qrio);
            if crash_after.contains(&step) {
                drop(qrio);
                qrio = Qrio::recover(&path).unwrap().0;
            }
        }
        assert!(qrio.durability_error().is_none());
        (qrio.describe_state(), qrio.snapshot_record().payload, path)
    };

    let steps = every_command_script().len();
    let (steady_state, steady_snapshot, path) = run("every-command", &[]);
    // After every step (each call then runs on a recovered instance), and at
    // a few, so state also has to survive several calls in memory between
    // two recoveries.
    let crashes = [
        ("every-step", (0..steps).collect()),
        ("some-steps", vec![5, 11, 18, steps - 1]),
    ];
    for (name, crash_after) in &crashes {
        let (state, snapshot, _) = run(&format!("every-command-{name}"), crash_after);
        assert_eq!(state, steady_state, "{name}: crashes moved the state");
        assert!(
            snapshot == steady_snapshot,
            "{name}: same description, different snapshot bytes"
        );
    }

    // The run exercised the states the script is written to reach.
    for (job, state) in [
        ("by-hand", JobState::Succeeded),
        ("withdrawn", JobState::Cancelled),
        ("stranded", JobState::Failed),
        ("doomed", JobState::Failed),
        ("overdue", JobState::Failed),
        ("served", JobState::Succeeded),
        ("behind", JobState::Succeeded),
    ] {
        assert!(
            steady_state.contains(&format!("  {job}: {state:?} ")),
            "{job} is not {state:?} in:\n{steady_state}"
        );
    }

    // Every variant is in the journal, after its only snapshot.
    let scan = qrio_journal::scan_file(&path).unwrap();
    assert_eq!(scan.records[0].kind, RECORD_SNAPSHOT);
    assert_eq!(snapshot_count(&path), 1);
    let journaled: BTreeSet<u8> = scan
        .records
        .iter()
        .filter(|record| record.kind == RECORD_COMMAND)
        .map(|record| variant_tag(&decode_command(&record.payload).unwrap().command))
        .collect();
    let missing: Vec<u8> = COMMAND_TAGS
        .into_iter()
        .filter(|tag| !journaled.contains(tag))
        .collect();
    assert!(
        missing.is_empty(),
        "the script never journals the command tags {missing:?}"
    );
    let (recovered, report) = Qrio::recover(&path).unwrap();
    assert_eq!(
        report.commands_replayed,
        framed_sizes(&path, RECORD_COMMAND).len() as u64
    );
    assert_eq!(recovered.describe_state(), steady_state);
}

#[test]
fn a_forced_admission_the_journal_made_up_replays_as_a_no_op() {
    // `ForceAdmit` is only ever journaled for a `Queued` straggler. A journal
    // that is CRC-valid but names a job nobody enqueued, or one that has long
    // finished, must neither panic recovery nor re-bind settled work.
    let mut qrio = seeded_qrio();
    two_device_fleet(&mut qrio);
    let done = qrio.enqueue(&bv_request("done")).unwrap();
    qrio.run_until_idle();
    assert_eq!(qrio.status(&done).unwrap(), JobState::Succeeded);
    let state = qrio.describe_state();

    let path = journal_path("made-up-force-admit");
    let mut journal = qrio_journal::Journal::create(&path).unwrap();
    journal.append(&qrio.snapshot_record()).unwrap();
    for job in ["ghost", "done"] {
        let record = CommandRecord {
            command: Command::ForceAdmit { job: job.into() },
            events_after: qrio.watch(0).len() as u64,
            digest: events_digest(&[]),
        };
        journal.append(&record.to_record()).unwrap();
    }
    journal.flush().unwrap();
    drop(journal);

    let (recovered, report) = Qrio::recover(&path).unwrap();
    assert_eq!(report.commands_replayed, 2);
    assert_eq!(report.events_regenerated, 0);
    assert_eq!(recovered.describe_state(), state);
    assert_eq!(recovered.status(&done).unwrap(), JobState::Succeeded);
}

#[test]
fn a_crash_mid_service_recovers_the_window_and_completes_the_job_once() {
    // A job enters service on `clean` at t=0 for 23; the instance crashes at
    // t=10, in the middle of the window. The recovered one has the same
    // timer armed, and its window closes once, at 23, as it would have.
    let path = journal_path("mid-service");
    let script = |qrio: &mut Qrio| {
        two_device_fleet(qrio);
        qrio.configure_service(Some(two_device_service())).unwrap();
        let id = qrio.enqueue(&bv_request("in-service")).unwrap();
        qrio.schedule(&id).unwrap();
        qrio.advance_to(10).unwrap();
    };
    let (crashed_due, crashed_state);
    {
        let mut qrio = seeded_qrio();
        qrio.enable_durability(&path, DurabilityConfig::default())
            .unwrap();
        script(&mut qrio);
        assert_eq!(
            qrio.status(&"in-service".into()).unwrap(),
            JobState::Running
        );
        crashed_due = qrio.next_due();
        crashed_state = qrio.describe_state();
    }
    assert_eq!(crashed_due, Some(23));
    let (mut recovered, _) = Qrio::recover(&path).unwrap();
    assert_eq!(recovered.next_due(), crashed_due);
    assert_eq!(recovered.describe_state(), crashed_state);

    let mut uninterrupted = seeded_qrio();
    let journal = journal_path("mid-service-uninterrupted");
    uninterrupted
        .enable_durability(&journal, DurabilityConfig::default())
        .unwrap();
    script(&mut uninterrupted);
    for qrio in [&mut recovered, &mut uninterrupted] {
        let fired = qrio.advance_to(40).unwrap();
        assert_eq!(fired.completed, ["in-service".into()]);
        assert_eq!(qrio.next_due(), None);
    }
    let history = |qrio: &Qrio| {
        qrio.job_status(&"in-service".into())
            .unwrap()
            .history
            .clone()
    };
    assert_eq!(history(&recovered), history(&uninterrupted));
    let ran: Vec<(u64, JobState)> = history(&recovered).into_iter().skip(3).collect();
    assert_eq!(ran, [(0, JobState::Running), (23, JobState::Succeeded)]);
    assert_eq!(recovered.watch(0), uninterrupted.watch(0));
    assert_eq!(recovered.describe_state(), uninterrupted.describe_state());
    assert!(recovered.snapshot_record().payload == uninterrupted.snapshot_record().payload);
}

#[test]
fn a_journal_of_an_older_record_version_is_refused() {
    // A journal written before `RECORD_VERSION` 4: its snapshot is refused by
    // kind and version, not misread.
    let path = journal_path("version-3");
    let mut qrio = seeded_qrio();
    two_device_fleet(&mut qrio);
    let current = qrio.snapshot_record();
    let older = qrio_journal::Record::new(RECORD_SNAPSHOT, 3, current.payload);
    let mut journal = qrio_journal::Journal::create(&path).unwrap();
    journal.append(&older).unwrap();
    journal.flush().unwrap();
    drop(journal);
    let refused = DurabilityError::UnsupportedRecord {
        kind: RECORD_SNAPSHOT,
        version: 3,
    };
    assert!(matches!(
        Qrio::recover(&path),
        Err(QrioError::Durability(err)) if err == refused
    ));
}
