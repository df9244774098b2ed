//! The five workloads. Each is a closed loop with one client and runs as
//! *rounds*: a round sets the system up from nothing (timed as set-up), then
//! pushes a fixed number of jobs through public functions only (the measured
//! window). A run repeats rounds until `--seconds` of window time have
//! passed and reports medians over them.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use qrio::{DurabilityConfig, JobId, JobRequest, JobState, Qrio, TransportMode};
use qrio_analyzer::{audit_watch_log, AuditOptions};
use qrio_loadgen::run_scenario_with_transport;

use crate::inputs::{self, Mix};
use crate::stats::Digest;
use crate::trace::{Family, Span, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CloudFlagship,
    RankMix,
    ExecInproc,
    TickThreaded,
    DurableExec,
}

/// Jobs enqueued between two drains of the service loop in `tick_threaded`.
const WAVE: usize = 24;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CloudFlagship,
        Workload::RankMix,
        Workload::ExecInproc,
        Workload::TickThreaded,
        Workload::DurableExec,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CloudFlagship => "cloud_flagship",
            Workload::RankMix => "rank_mix",
            Workload::ExecInproc => "exec_inproc",
            Workload::TickThreaded => "tick_threaded",
            Workload::DurableExec => "durable_exec",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs per round, frozen so that a round's window lasts about three
    /// seconds on the two-core machine the baseline was taken on.
    /// `cloud_flagship` submits what the scenario generates (3148 jobs at
    /// seed 42); the cap only applies to `--smoke`.
    pub fn jobs_per_round(self) -> usize {
        match self {
            Workload::CloudFlagship => 0,
            Workload::RankMix => 1500,
            Workload::ExecInproc => 15000,
            Workload::TickThreaded => 8000,
            Workload::DurableExec => 1500,
        }
    }

    /// Jobs per round under `--smoke`: a twentieth.
    pub fn smoke_jobs_per_round(self) -> usize {
        match self {
            Workload::CloudFlagship => 3148 / 20,
            other => other.jobs_per_round() / 20,
        }
    }

    /// Jobs of the warm-up that is part of a round's set-up: a twentieth of
    /// the round.
    fn warm_up_jobs(self, jobs: usize) -> usize {
        match (self, jobs) {
            (Workload::CloudFlagship, 0) => 100,
            _ => jobs / 20,
        }
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Round start to start of the measured window.
    pub setup_s: f64,
    /// The measured window.
    pub wall_s: f64,
    pub attempted: usize,
    pub succeeded: usize,
    /// Per job, start of `enqueue` to the return of the call that bound it;
    /// ascending, like `sojourn_us`.
    pub decision_us: Vec<f64>,
    /// Per job, start of `enqueue` to the return of the call that made it
    /// terminal.
    pub sojourn_us: Vec<f64>,
    /// Hash over each job's bound device, terminal state and histogram
    /// (for `cloud_flagship`, over the report's bytes).
    pub digest: u64,
    pub spans: Vec<Span>,
    /// Counts and timings of single layers taken around the window.
    pub extras: BTreeMap<&'static str, f64>,
    /// Correctness gates this round failed.
    pub gate_failures: Vec<String>,
}

/// How to run one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpec<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// Jobs in the window; for `cloud_flagship` a cap on the scenario's own
    /// arrivals (0 = no cap).
    pub jobs: usize,
    pub traced: bool,
    /// Where a durable round may put its journal.
    pub tmp: &'a Path,
}

/// The shape of a round, apart from its size.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Flagship,
    Primitives { mix: Mix, durable: bool },
    Ticks { mode: TransportMode },
}

pub fn run_round(spec: RoundSpec<'_>) -> Result<Round, String> {
    let shape = match spec.workload {
        Workload::CloudFlagship => Shape::Flagship,
        Workload::RankMix => Shape::Primitives {
            mix: Mix::FourTenants,
            durable: false,
        },
        Workload::ExecInproc => Shape::Primitives {
            mix: Mix::BobOnly,
            durable: false,
        },
        Workload::DurableExec => Shape::Primitives {
            mix: Mix::BobOnly,
            durable: true,
        },
        Workload::TickThreaded => Shape::Ticks {
            mode: TransportMode::Threaded { threads: 2 },
        },
    };
    warmed_round(spec, shape)
}

/// `tick_threaded`'s stream over the in-process transport: the reference its
/// digest must equal, and the base of `agent.transport_overhead_share`.
pub fn tick_reference_round(spec: RoundSpec<'_>) -> Result<Round, String> {
    let mode = TransportMode::InProc;
    warmed_round(spec, Shape::Ticks { mode })
}

/// `durable_exec`'s stream without a journal: the base of
/// `core.durability.journal_share`.
pub fn durable_reference_round(spec: RoundSpec<'_>) -> Result<Round, String> {
    let (mix, durable) = (Mix::BobOnly, false);
    warmed_round(spec, Shape::Primitives { mix, durable })
}

/// Set-up starts with a warm-up — a twentieth of the round on a deployment
/// of its own, thrown away — so that the window does not pay for cold
/// caches, first-touch page faults or a cold journal directory, and so that
/// set-up time is long enough to compare between commits.
fn warmed_round(spec: RoundSpec<'_>, shape: Shape) -> Result<Round, String> {
    let setup = Instant::now();
    let warm_up = RoundSpec {
        jobs: spec.workload.warm_up_jobs(spec.jobs),
        traced: false,
        ..spec
    };
    if warm_up.jobs > 0 {
        shaped_round(warm_up, shape, Instant::now())?;
    }
    let mut round = shaped_round(spec, shape, setup)?;
    round.decision_us.sort_by(f64::total_cmp);
    round.sojourn_us.sort_by(f64::total_cmp);
    Ok(round)
}

fn shaped_round(spec: RoundSpec<'_>, shape: Shape, setup: Instant) -> Result<Round, String> {
    match shape {
        Shape::Flagship => flagship_round(spec, setup),
        Shape::Primitives { mix, durable } => primitives_round(spec, mix, durable, setup),
        Shape::Ticks { mode } => tick_round(spec, mode, setup),
    }
}

// --- cloud_flagship ------------------------------------------------------------------------

/// The scenario runs under its committed seed whatever `--seed` says: its
/// arrival processes are so seed-sensitive (2810 to 3394 jobs, 20 to 435
/// migrations over seven seeds tried) that jobs/s moves by a tenth between
/// seeds, which would hide any regression smaller than that. In exchange the
/// report is compared with the committed `BENCH_cloud.json` on every run.
fn flagship_round(spec: RoundSpec<'_>, setup: Instant) -> Result<Round, String> {
    let mut scenario = inputs::committed_scenario()?;
    scenario.max_jobs = spec.jobs as u64;
    let mut tracer = Tracer::new(spec.traced, 1);
    let setup_s = setup.elapsed().as_secs_f64();

    tracer.start_window();
    let window = Instant::now();
    let report = tracer
        .time(Family::RunScenario, 0, || {
            run_scenario_with_transport(&scenario, TransportMode::InProc)
        })
        .map_err(|e| format!("scenario failed: {e}"))?;
    let wall_s = window.elapsed().as_secs_f64();

    let json = report.to_json();
    let mut digest = Digest::new();
    digest.text(&json);
    let mut round = Round {
        setup_s,
        wall_s,
        attempted: report.submitted as usize,
        succeeded: report.completed as usize,
        digest: digest.value(),
        spans: tracer.into_spans(),
        ..Round::default()
    };
    // The engine is a black box: the only per-job host latency it shows is
    // the window divided by the jobs (in a closed loop with one client that
    // is the mean sojourn), and it does not separate decision from execution.
    let per_job_us = wall_s * 1e6 / report.completed.max(1) as f64;
    round.decision_us.push(per_job_us);
    round.sojourn_us.push(per_job_us);
    round
        .extras
        .insert("meta.cache.hit_rate", report.cache_hit_rate);
    if spec.jobs == 0 {
        let committed = std::fs::read_to_string("BENCH_cloud.json")
            .map_err(|e| format!("cannot read BENCH_cloud.json: {e}"))?;
        if committed != json {
            round
                .gate_failures
                .push("report differs from the committed BENCH_cloud.json".to_string());
        }
    }
    Ok(round)
}

// --- rank_mix, exec_inproc, durable_exec ---------------------------------------------------

/// Lifecycle primitives per job: `enqueue` → `report_telemetry` → `schedule`
/// → `execute`. With `durable`, every command is journaled and the window
/// ends with `Qrio::recover` on the journal the run wrote.
fn primitives_round(
    spec: RoundSpec<'_>,
    mix: Mix,
    durable: bool,
    setup: Instant,
) -> Result<Round, String> {
    let scenario = inputs::load_scenario(spec.seed)?;
    let mut generated = inputs::generate(&scenario, mix, spec.jobs, spec.seed)?;
    let requests = generated.requests;
    let mut qrio = inputs::new_qrio(&scenario)?;
    let journal = spec.tmp.join("journal.wal");
    if durable {
        qrio.enable_durability(&journal, DurabilityConfig::default())
            .map_err(|e| format!("cannot enable durability: {e}"))?;
    }
    let mut tracer = Tracer::new(spec.traced, 4 * requests.len() + 1);
    let mut round = Round {
        attempted: requests.len(),
        decision_us: Vec::with_capacity(requests.len()),
        sojourn_us: Vec::with_capacity(requests.len()),
        ..Round::default()
    };
    round.setup_s = setup.elapsed().as_secs_f64();

    tracer.start_window();
    let window = Instant::now();
    for (i, (request, telemetry)) in requests
        .iter()
        .zip(generated.telemetry.drain(..))
        .enumerate()
    {
        let start = Instant::now();
        let Ok(id) = tracer.time(Family::Enqueue, i, || qrio.enqueue(request)) else {
            continue;
        };
        tracer.time(Family::ReportTelemetry, i, || {
            qrio.report_telemetry(telemetry)
        });
        let bound = tracer.time(Family::Schedule, i, || qrio.schedule(&id));
        let decided = Instant::now();
        if bound.is_err() {
            continue;
        }
        let ran = tracer.time(Family::Execute, i, || qrio.execute(&id));
        let done = Instant::now();
        round
            .decision_us
            .push((decided - start).as_nanos() as f64 / 1e3);
        if ran.is_ok() {
            round
                .sojourn_us
                .push((done - start).as_nanos() as f64 / 1e3);
        }
    }
    let mut wall_s = window.elapsed().as_secs_f64();

    (round.digest, round.succeeded) = decision_digest(&qrio, &requests);
    let cache = qrio.meta().cache_stats();
    round.extras.insert("meta.cache.hit_rate", cache.hit_rate());
    if durable {
        if let Some(err) = qrio.durability_error() {
            round.gate_failures.push(format!("journal failed: {err}"));
        }
        let live_state = qrio.describe_state();
        drop(qrio);
        let journal_bytes = file_len(&journal)?;
        let recovering = Instant::now();
        let recovered = tracer.time(Family::Recover, 0, || Qrio::recover(&journal));
        let recover_s = recovering.elapsed().as_secs_f64();
        wall_s += recover_s;
        let (mut recovered, _report) = recovered.map_err(|e| format!("recovery failed: {e}"))?;
        if recovered.describe_state() != live_state {
            round
                .gate_failures
                .push("recovered describe_state() differs from the live one".to_string());
        }
        let findings = audit_watch_log(recovered.watch(0), AuditOptions::default());
        if let Some(first) = findings.first() {
            round.gate_failures.push(format!(
                "audit_watch_log: {} findings, first: {first:?}",
                findings.len()
            ));
        }
        round.extras.insert("recover_s", recover_s);
        round.extras.insert(
            "journal_bytes_per_job",
            journal_bytes as f64 / requests.len().max(1) as f64,
        );
        if spec.traced {
            let snapshotting = Instant::now();
            recovered
                .snapshot_now()
                .map_err(|e| format!("snapshot failed: {e}"))?;
            round.extras.insert(
                "core.durability.snapshot_ms_at_end",
                snapshotting.elapsed().as_secs_f64() * 1e3,
            );
            drop(recovered);
            round.extras.insert(
                "core.durability.snapshot_bytes_at_end",
                (file_len(&journal)? - journal_bytes) as f64,
            );
        }
        std::fs::remove_file(&journal).map_err(|e| format!("cannot remove journal: {e}"))?;
    }
    round.wall_s = wall_s;
    round.spans = tracer.into_spans();
    Ok(round)
}

// --- tick_threaded -------------------------------------------------------------------------

/// The service loop: enqueue a wave of bob's jobs, `tick()` until a cycle
/// makes no progress, repeat.
fn tick_round(spec: RoundSpec<'_>, mode: TransportMode, setup: Instant) -> Result<Round, String> {
    let scenario = inputs::load_scenario(spec.seed)?;
    let requests = inputs::generate(&scenario, Mix::BobOnly, spec.jobs, spec.seed)?.requests;
    let mut qrio = inputs::new_qrio(&scenario)?;
    qrio.set_transport(mode);
    let position: HashMap<&str, usize> = requests
        .iter()
        .enumerate()
        .map(|(i, request)| (request.job_name.as_str(), i))
        .collect();
    let mut enqueued_at = vec![Instant::now(); requests.len()];
    let mut tracer = Tracer::new(spec.traced, 2 * requests.len() + 1);
    let mut round = Round {
        attempted: requests.len(),
        decision_us: Vec::with_capacity(requests.len()),
        sojourn_us: Vec::with_capacity(requests.len()),
        ..Round::default()
    };
    round.setup_s = setup.elapsed().as_secs_f64();

    let mut ticks = 0usize;
    tracer.start_window();
    let window = Instant::now();
    for (wave, chunk) in requests.chunks(WAVE).enumerate() {
        for (offset, request) in chunk.iter().enumerate() {
            let i = wave * WAVE + offset;
            enqueued_at[i] = Instant::now();
            // A refused job stays out of the queue and is counted as failed
            // by the digest pass.
            let _ = tracer.time(Family::Enqueue, i, || qrio.enqueue(request));
        }
        loop {
            let report = tracer.time(Family::Tick, wave, || qrio.tick());
            let returned = Instant::now();
            ticks += 1;
            let since = |id: &JobId| {
                let i = position[id.as_str()];
                (returned - enqueued_at[i]).as_nanos() as f64 / 1e3
            };
            round.decision_us.extend(report.scheduled.iter().map(since));
            round.sojourn_us.extend(report.completed.iter().map(since));
            if !report.made_progress() {
                break;
            }
        }
    }
    round.wall_s = window.elapsed().as_secs_f64();

    (round.digest, round.succeeded) = decision_digest(&qrio, &requests);
    let cache = qrio.meta().cache_stats();
    round.extras.insert("meta.cache.hit_rate", cache.hit_rate());
    round.extras.insert("ticks", ticks as f64);
    round.spans = tracer.into_spans();
    Ok(round)
}

// --- shared --------------------------------------------------------------------------------

/// Hash each job's terminal state, bound device and counts histogram, in
/// submission order; also count the jobs that succeeded.
fn decision_digest(qrio: &Qrio, requests: &[JobRequest]) -> (u64, usize) {
    let mut digest = Digest::new();
    let mut succeeded = 0;
    for request in requests {
        let id = JobId::new(&request.job_name);
        digest.text(&request.job_name);
        match qrio.status(&id) {
            Ok(state) => digest.text(&state.to_string()),
            Err(_) => digest.text("never admitted"),
        }
        if let Ok(outcome) = qrio.outcome(&id) {
            debug_assert_eq!(qrio.status(&id).ok(), Some(JobState::Succeeded));
            succeeded += 1;
            digest.text(&outcome.decision.node);
            for (bits, count) in &outcome.counts {
                digest.text(bits);
                digest.number(*count);
            }
        }
    }
    (digest.value(), succeeded)
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|meta| meta.len())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rounds read the scenario relative to the checkout root; `cargo test`
    /// starts in the package directory. No other test depends on the working
    /// directory.
    fn spec(workload: Workload, seed: u64, jobs: usize) -> RoundSpec<'static> {
        static AT_ROOT: std::sync::Once = std::sync::Once::new();
        AT_ROOT.call_once(|| {
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
            std::env::set_current_dir(root).expect("the checkout root exists");
        });
        RoundSpec {
            workload,
            seed,
            jobs,
            traced: false,
            tmp: Path::new("unused: no durable round here"),
        }
    }

    #[test]
    fn digest_repeats_for_a_seed_whether_traced_or_not_and_moves_with_the_seed() {
        let first = run_round(spec(Workload::RankMix, 42, 40)).unwrap();
        let again = run_round(RoundSpec {
            traced: true,
            ..spec(Workload::RankMix, 42, 40)
        })
        .unwrap();
        assert_eq!(first.succeeded, 40);
        assert_eq!(first.digest, again.digest);
        assert!(first.spans.is_empty());
        assert_eq!(again.spans.len(), 4 * 40);
        let other = run_round(spec(Workload::RankMix, 7, 40)).unwrap();
        assert_ne!(first.digest, other.digest);
    }

    #[test]
    fn threaded_ticks_decide_what_in_process_ticks_decide() {
        let threaded = run_round(spec(Workload::TickThreaded, 42, 2 * WAVE)).unwrap();
        let in_proc = tick_reference_round(spec(Workload::TickThreaded, 42, 2 * WAVE)).unwrap();
        assert_eq!(threaded.succeeded, 2 * WAVE);
        assert_eq!(threaded.digest, in_proc.digest);
        assert_eq!(threaded.sojourn_us.len(), 2 * WAVE);
    }
}
