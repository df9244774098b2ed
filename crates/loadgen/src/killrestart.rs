//! The kill-and-restart scenario archetype: crash the orchestrator in the
//! middle of a seeded job storm and prove the durability layer loses
//! nothing.
//!
//! The run is split by a simulated `kill -9`: a durable [`Qrio`] is stood up
//! over a fresh journal, a seeded storm of enqueues / ticks / cancellations
//! is driven against it, and at a configured point the instance is dropped
//! with no orderly shutdown whatsoever. A second instance is then rebuilt
//! from the journal alone with [`Qrio::recover`], the *same* deterministic
//! storm generator resumes where it stopped, and the workload drains to
//! completion.
//!
//! The report certifies the two properties a durable job store owes its
//! users:
//!
//! * **no job lost** — every job whose enqueue was acknowledged before the
//!   crash is present in the recovered store, and
//! * **no job double-executed** — across the spliced pre-crash +
//!   post-recovery watch log, no job enters `Running` twice.
//!
//! Everything is a pure function of the scenario seed, so two runs over the
//! same configuration render byte-identical reports — CI diffs them.

use std::fmt;
use std::path::Path;

use qrio::durability::RECORD_SNAPSHOT;
use qrio::{
    BreakerConfig, DurabilityConfig, FidelityRankingConfig, JobEvent, JobId, JobRequest,
    JobRequestBuilder, JobState, Qrio, RecoveryReport,
};
use qrio_backend::{topology, Backend};
use qrio_circuit::library;
use qrio_cluster::{FaultInjector, RetryPolicy};

use crate::error::LoadgenError;

/// Configuration of one kill-and-restart storm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillRestartScenario {
    /// Scenario name, echoed in the report.
    pub name: String,
    /// Master seed: fleet noise, circuit mix, priorities and the cancel
    /// pattern all derive from it.
    pub seed: u64,
    /// Fleet size (line-topology devices with seed-derived noise).
    pub devices: usize,
    /// Total jobs across both phases.
    pub jobs: u64,
    /// The crash point: the orchestrator is killed right after this many
    /// jobs have been acknowledged. Clamped to `jobs`.
    pub crash_after_jobs: u64,
    /// Run one service cycle ([`Qrio::tick`]) after every N enqueues, so the
    /// crash lands over a mix of terminal, running and queued jobs.
    pub tick_every: u64,
    /// Snapshot floor handed to [`Qrio::enable_durability`]: at least this
    /// many commands between automatic snapshots (the log must also have
    /// outgrown the previous snapshot). Small values let a short storm write
    /// several — see [`KillRestartReport::journal_snapshots`].
    pub snapshot_every: u64,
    /// Shots per job.
    pub shots: u64,
    /// Injected fault rate in per-mille (0 disables), split between
    /// transient faults and device flaps so the storm also exercises the
    /// breakers. Integer so the scenario stays `Eq`/hashable.
    pub fault_permille: u32,
    /// Attempts allowed per storm job (0 = no retry policy).
    pub retry_max_attempts: u32,
    /// Fixed backoff between attempts, in service-loop ticks.
    pub retry_backoff_ticks: u64,
    /// Arm per-device circuit breakers (default thresholds) for the run.
    pub breakers: bool,
}

impl Default for KillRestartScenario {
    fn default() -> Self {
        KillRestartScenario {
            name: "kill-restart".into(),
            seed: 7,
            devices: 3,
            jobs: 60,
            crash_after_jobs: 40,
            tick_every: 4,
            snapshot_every: 16,
            shots: 32,
            fault_permille: 0,
            retry_max_attempts: 0,
            retry_backoff_ticks: 2,
            breakers: false,
        }
    }
}

/// What one kill-and-restart run observed, plus its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct KillRestartReport {
    /// Scenario name.
    pub name: String,
    /// Scenario seed.
    pub seed: u64,
    /// Jobs acknowledged before the crash.
    pub pre_crash_jobs: u64,
    /// Jobs submitted after recovery.
    pub post_crash_jobs: u64,
    /// Cancellations issued before the crash.
    pub cancelled_requests: u64,
    /// The recovery's own report (snapshot cursor, replayed commands, ...).
    pub recovery: RecoveryReport,
    /// Acknowledged pre-crash jobs missing from the recovered store. A
    /// durable store must report zero.
    pub jobs_lost: u64,
    /// Jobs that re-entered `Running` without an intervening `Retrying`
    /// decision across the spliced watch log — i.e. genuinely executed
    /// twice. A durable store must report zero.
    pub double_executed: u64,
    /// Jobs that took at least one retry (count of distinct jobs with a
    /// `Retrying` event in the spliced log).
    pub retried_jobs: u64,
    /// Jobs that exhausted their retry policy (the dead-letter queue of the
    /// recovered instance after the final drain).
    pub dead_letters: u64,
    /// Terminal tallies over the full run: `(succeeded, failed, cancelled)`.
    pub terminal: (u64, u64, u64),
    /// Jobs not terminal after the final drain (must be zero).
    pub unfinished: u64,
    /// Total watch-log events across both phases.
    pub events_total: u64,
    /// Snapshot records in the journal after the final drain, genesis
    /// included. Recovery from a mid-storm snapshot is only exercised when
    /// the journal holds more than the genesis one.
    pub journal_snapshots: u64,
}

impl KillRestartReport {
    /// Whether the run proves the durability contract: nothing lost, nothing
    /// double-executed, everything drained.
    pub fn holds(&self) -> bool {
        self.jobs_lost == 0 && self.double_executed == 0 && self.unfinished == 0
    }
}

impl fmt::Display for KillRestartReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kill-restart report '{}'", self.name)?;
        writeln!(f, "  seed               = {}", self.seed)?;
        writeln!(f, "  pre_crash_jobs     = {}", self.pre_crash_jobs)?;
        writeln!(f, "  post_crash_jobs    = {}", self.post_crash_jobs)?;
        writeln!(f, "  cancelled_requests = {}", self.cancelled_requests)?;
        for line in self.recovery.to_string().lines() {
            writeln!(f, "  {line}")?;
        }
        writeln!(f, "  jobs_lost          = {}", self.jobs_lost)?;
        writeln!(f, "  double_executed    = {}", self.double_executed)?;
        writeln!(f, "  retried_jobs       = {}", self.retried_jobs)?;
        writeln!(f, "  dead_letters       = {}", self.dead_letters)?;
        writeln!(
            f,
            "  terminal           = {} succeeded / {} failed / {} cancelled",
            self.terminal.0, self.terminal.1, self.terminal.2
        )?;
        writeln!(f, "  unfinished         = {}", self.unfinished)?;
        writeln!(f, "  events_total       = {}", self.events_total)?;
        writeln!(f, "  journal_snapshots  = {}", self.journal_snapshots)?;
        write!(
            f,
            "  verdict            = {}",
            if self.holds() { "PASS" } else { "FAIL" }
        )
    }
}

/// The seeded storm generator. Its state is plain driver-side data, so it
/// survives the simulated kill trivially — mirroring a client that keeps
/// submitting after the service restarts.
struct Storm {
    state: u64,
    shots: u64,
    retry: Option<RetryPolicy>,
}

impl Storm {
    fn new(seed: u64, shots: u64, retry: Option<RetryPolicy>) -> Self {
        Storm {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            shots,
            retry,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn request(&mut self, index: u64) -> Result<JobRequest, LoadgenError> {
        let circuit = match self.next() % 3 {
            0 => library::ghz(3 + (self.next() % 3) as usize),
            1 => library::bernstein_vazirani(4, self.next() % 16),
            _ => library::qft(3 + (self.next() % 2) as usize),
        }
        .map_err(|e| LoadgenError::Engine(format!("cannot build storm circuit: {e}")))?;
        let mut builder = JobRequestBuilder::new()
            .with_circuit(&circuit)
            .job_name(format!("storm-{index}"))
            .image_name(format!("qrio/storm:{index}"))
            .priority((self.next() % 3) as u8)
            .shots(self.shots);
        if let Some(policy) = &self.retry {
            builder = builder.retry_policy(*policy);
        }
        let builder = if self.next() % 2 == 0 {
            builder.fidelity_target(0.75)
        } else {
            builder.min_queue()
        };
        builder
            .build()
            .map_err(|e| LoadgenError::Engine(format!("cannot build storm request: {e}")))
    }

    /// Every 9th decision cancels the job right after acknowledgement.
    fn should_cancel(&mut self) -> bool {
        self.next() % 9 == 0
    }
}

fn storm_fleet(scenario: &KillRestartScenario, qrio: &mut Qrio) -> Result<(), LoadgenError> {
    for d in 0..scenario.devices.max(1) {
        let noise = 0.004 + 0.012 * d as f64;
        let readout = 0.01 + 0.02 * d as f64;
        qrio.add_device(
            Backend::uniform(format!("qpu-{d}"), topology::line(8), noise, 0.05)
                .with_uniform_readout_error(readout),
        )
        .map_err(|e| LoadgenError::Engine(format!("cannot add storm device: {e}")))?;
    }
    Ok(())
}

/// Drive one enqueue (plus its cadenced tick and optional cancel) against a
/// live orchestrator. Returns the acknowledged job id.
fn storm_step(
    qrio: &mut Qrio,
    storm: &mut Storm,
    scenario: &KillRestartScenario,
    index: u64,
    cancelled: &mut u64,
) -> Result<JobId, LoadgenError> {
    let request = storm.request(index)?;
    let id = qrio
        .enqueue(&request)
        .map_err(|e| LoadgenError::Engine(format!("storm enqueue failed: {e}")))?;
    if storm.should_cancel() {
        // Racing a cancel against the service loop is part of the storm; a
        // job that already ran simply reports a terminal-state error.
        if qrio.cancel(&id).is_ok() {
            *cancelled += 1;
        }
    }
    if scenario.tick_every > 0 && (index + 1) % scenario.tick_every == 0 {
        qrio.tick();
        // The self-healing sweep real deployments run: flapped (`NotReady`)
        // nodes restart; breaker-cordoned nodes stay down until their
        // probation passes. Journaled, so recovery replays the same sweep.
        qrio.heal_devices()
            .map_err(|e| LoadgenError::Engine(format!("heal sweep failed: {e}")))?;
    }
    Ok(id)
}

/// Run the kill-and-restart scenario over a journal at `journal_path` and
/// return its report. See the module docs for the phases.
///
/// # Errors
///
/// Returns an error when the storm cannot be driven (invalid scenario,
/// journal IO failure) or when recovery itself fails — both distinct from a
/// `FAIL` verdict, which means recovery *succeeded* but broke the contract.
pub fn run_kill_restart(
    scenario: &KillRestartScenario,
    journal_path: &Path,
) -> Result<KillRestartReport, LoadgenError> {
    run_kill_restart_with_log(scenario, journal_path).map(|(report, _)| report)
}

/// Like [`run_kill_restart`], but also return the spliced pre-crash +
/// post-recovery watch log for external auditing (see `qrio-analyzer`).
///
/// # Errors
///
/// Same failure modes as [`run_kill_restart`].
pub fn run_kill_restart_with_log(
    scenario: &KillRestartScenario,
    journal_path: &Path,
) -> Result<(KillRestartReport, Vec<JobEvent>), LoadgenError> {
    let crash_after = scenario.crash_after_jobs.min(scenario.jobs);
    let retry = (scenario.retry_max_attempts > 0).then(|| {
        RetryPolicy::fixed(
            scenario.retry_max_attempts,
            scenario.retry_backoff_ticks.max(1),
        )
    });
    let mut storm = Storm::new(scenario.seed, scenario.shots.max(1), retry);
    let mut cancelled_requests = 0u64;
    let mut acknowledged: Vec<JobId> = Vec::new();

    // --- Phase one: the doomed instance ------------------------------------
    let armed_at_crash = {
        let mut qrio = Qrio::with_config(
            FidelityRankingConfig {
                shots: 16,
                seed: scenario.seed ^ 0xCA11_AB1E,
                shortfall_weight: 100.0,
            },
            scenario.seed ^ 0x51D0_C10D,
        );
        qrio.enable_durability(
            journal_path,
            DurabilityConfig {
                snapshot_every: scenario.snapshot_every,
                ..DurabilityConfig::default()
            },
        )
        .map_err(|e| LoadgenError::Engine(format!("cannot enable durability: {e}")))?;
        storm_fleet(scenario, &mut qrio)?;
        // Chaos knobs, both journaled: recovery replays the same injector
        // (same seed, same decisions) and the same breaker thresholds.
        if scenario.fault_permille > 0 {
            let rate = f64::from(scenario.fault_permille.min(1000)) / 1000.0;
            qrio.configure_faults(Some(FaultInjector {
                transient_rate: rate / 2.0,
                flap_rate: rate / 2.0,
                ..FaultInjector::new(scenario.seed ^ 0xFA_17)
            }))
            .map_err(|e| LoadgenError::Engine(format!("cannot configure faults: {e}")))?;
        }
        if scenario.breakers {
            qrio.configure_breakers(Some(BreakerConfig::default()))
                .map_err(|e| LoadgenError::Engine(format!("cannot configure breakers: {e}")))?;
        }
        for index in 0..crash_after {
            let id = storm_step(
                &mut qrio,
                &mut storm,
                scenario,
                index,
                &mut cancelled_requests,
            )?;
            acknowledged.push(id);
        }
        if let Some(err) = qrio.durability_error() {
            return Err(LoadgenError::Engine(format!(
                "journal poisoned before the crash: {err}"
            )));
        }
        // kill -9: drop with queued, running and finished jobs in flight.
        qrio.next_due()
    };

    // --- Phase two: recover and resume -------------------------------------
    let (mut qrio, recovery) = Qrio::recover(journal_path)
        .map_err(|e| LoadgenError::Engine(format!("recovery failed: {e}")))?;

    // The due-indexes are in no snapshot: recovery rebuilds them, and only
    // this says it rebuilt the ones the crashed instance had.
    if qrio.next_due() != armed_at_crash {
        return Err(LoadgenError::Engine(format!(
            "recovered with the next timer due at {:?}, the crashed instance had {armed_at_crash:?}",
            qrio.next_due()
        )));
    }

    let jobs_lost = acknowledged
        .iter()
        .filter(|id| qrio.job_status(id).is_err())
        .count() as u64;

    for index in crash_after..scenario.jobs {
        let id = storm_step(
            &mut qrio,
            &mut storm,
            scenario,
            index,
            &mut cancelled_requests,
        )?;
        acknowledged.push(id);
    }
    qrio.run_until_idle();
    if let Some(err) = qrio.durability_error() {
        return Err(LoadgenError::Engine(format!(
            "journal poisoned after recovery: {err}"
        )));
    }

    // --- Verification over the spliced log ----------------------------------
    let log = qrio.watch(0).to_vec();
    // Retry-aware double-execution check: every Running entry must be paid
    // for — the first by admission, later ones by an intervening Retrying
    // decision. A silent re-run (the actual double-execution bug) has no
    // Retrying event between its Running entries.
    let mut may_run: std::collections::BTreeMap<&str, bool> = std::collections::BTreeMap::new();
    let mut violators: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    let mut retried: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for event in &log {
        match event.to {
            JobState::Running => {
                let allowed = may_run.entry(event.job.as_str()).or_insert(true);
                if !*allowed {
                    violators.insert(event.job.as_str());
                }
                *allowed = false;
            }
            JobState::Retrying => {
                may_run.insert(event.job.as_str(), true);
                retried.insert(event.job.as_str());
            }
            _ => {}
        }
    }
    let double_executed = violators.len() as u64;
    let retried_jobs = retried.len() as u64;
    let dead_letters = qrio.dead_letters().len() as u64;

    let mut terminal = (0u64, 0u64, 0u64);
    let mut unfinished = 0u64;
    for id in &acknowledged {
        match qrio.status(id) {
            Ok(JobState::Succeeded) => terminal.0 += 1,
            Ok(JobState::Failed) => terminal.1 += 1,
            Ok(JobState::Cancelled) => terminal.2 += 1,
            Ok(_) => unfinished += 1,
            Err(_) => {} // already counted in jobs_lost
        }
    }

    let journal_snapshots = qrio_journal::scan_file(journal_path)
        .map_err(|e| LoadgenError::Engine(format!("cannot scan the journal: {e}")))?
        .records
        .iter()
        .filter(|record| record.kind == RECORD_SNAPSHOT)
        .count() as u64;

    let report = KillRestartReport {
        name: scenario.name.clone(),
        seed: scenario.seed,
        pre_crash_jobs: crash_after,
        post_crash_jobs: scenario.jobs - crash_after,
        cancelled_requests,
        recovery,
        jobs_lost,
        double_executed,
        retried_jobs,
        dead_letters,
        terminal,
        unfinished,
        events_total: log.len() as u64,
        journal_snapshots,
    };
    Ok((report, log))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qrio-killrestart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(format!("{name}.qj"))
    }

    #[test]
    fn default_storm_holds_the_contract() {
        let scenario = KillRestartScenario::default();
        let path = scratch("default");
        let report = run_kill_restart(&scenario, &path).unwrap();
        assert!(report.holds(), "contract violated:\n{report}");
        assert_eq!(report.jobs_lost, 0);
        assert_eq!(report.double_executed, 0);
        assert_eq!(
            report.pre_crash_jobs + report.post_crash_jobs,
            scenario.jobs
        );
        assert!(report.events_total > 0);
        // The crash must land past a mid-storm snapshot, or recovery only
        // ever replays from the genesis.
        assert!(report.journal_snapshots >= 2, "{report}");
        assert!(report.recovery.snapshot_cursor > 0, "{report}");
    }

    #[test]
    fn reports_are_byte_deterministic() {
        let scenario = KillRestartScenario {
            seed: 99,
            jobs: 30,
            crash_after_jobs: 17,
            ..KillRestartScenario::default()
        };
        let a = run_kill_restart(&scenario, &scratch("det-a")).unwrap();
        let b = run_kill_restart(&scenario, &scratch("det-b")).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn chaotic_storm_with_retries_and_breakers_holds_the_contract() {
        // A third of attempts hit injected faults (transient + flap), every
        // job may retry, breakers are armed — and the crash still lands over
        // a mix of states including jobs parked mid-backoff in `Retrying`.
        let scenario = KillRestartScenario {
            name: "kill-restart-chaos".into(),
            seed: 21,
            jobs: 60,
            crash_after_jobs: 35,
            fault_permille: 330,
            retry_max_attempts: 4,
            retry_backoff_ticks: 3,
            breakers: true,
            ..KillRestartScenario::default()
        };
        let (report, log) = run_kill_restart_with_log(&scenario, &scratch("chaos")).unwrap();
        assert!(report.holds(), "contract violated:\n{report}");
        assert!(
            report.retried_jobs > 0,
            "a 33% fault rate must force retries:\n{report}"
        );
        assert!(
            log.iter().any(|e| e.to == JobState::Retrying),
            "spliced log should show Retrying transitions"
        );
        // Recovery replays the same injector decisions and retry schedule:
        // the whole run is still byte-deterministic.
        let again = run_kill_restart(&scenario, &scratch("chaos-b")).unwrap();
        assert_eq!(report, again);
        assert_eq!(report.to_string(), again.to_string());
    }

    #[test]
    fn crash_at_the_very_start_and_end_are_fine() {
        for (name, crash_after) in [("start", 0), ("end", 12)] {
            let scenario = KillRestartScenario {
                jobs: 12,
                crash_after_jobs: crash_after,
                ..KillRestartScenario::default()
            };
            let report = run_kill_restart(&scenario, &scratch(name)).unwrap();
            assert!(report.holds(), "contract violated:\n{report}");
        }
    }
}
