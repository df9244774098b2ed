//! `qrio-lint`: the command-line front end of `qrio-analyzer`.
//!
//! Runs every pass family over a set of scenario files plus the shipped
//! circuit corpus, prints compiler-style diagnostics, and optionally writes a
//! JSON artifact for CI.
//!
//! ```text
//! qrio-lint [--json PATH] [--deny-warnings] [--self-check]
//!           [--replay-to CURSOR JOURNAL] [PATH...]
//! ```
//!
//! `PATH` entries are scenario YAML files, durability journals (`.qj`
//! files, or any file starting with the `QRIOJRNL` magic), control-plane
//! envelope traces (`.qtrace` files, or the `QRIOPROT` magic) or
//! directories of them (default: `scenarios/`). `--replay-to CURSOR` turns
//! the linter into a time-travel inspector: it replays one journal up to a
//! watch-log cursor and prints the reconstructed orchestrator state.
//! Exit status: `0` clean, `1` findings, `2`
//! operational error (unreadable path, bad flag). `--self-check` instead
//! runs seeded fixture violations and verifies each expected lint code
//! fires — a self-test that the analyzer still catches what it claims to
//! catch.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qrio_analyzer::{
    audit_watch_log, lint_breaker_config, lint_chaos_scenario, lint_engine_fit,
    lint_envelope_trace_bytes, lint_envelope_trace_file, lint_journal_bytes, lint_journal_file,
    lint_logical_circuit, lint_requirements, lint_retry_policy, lint_routed_circuit, lint_scenario,
    lint_simulation_path, lint_transpile_result, looks_like_envelope_trace,
    verify_job_state_machine, AuditOptions, Diagnostic, EngineHint, LintCode, Location, Report,
    TargetView,
};
use qrio_backend::{topology, Backend};
use qrio_circuit::{library, Circuit};
use qrio_cluster::{DeviceRequirements, RetryPolicy};
use qrio_loadgen::{Scenario, WorkloadCircuit};
use qrio_meta::{builtin_registry, FidelityRankingConfig, StrategyRegistry};
use qrio_transpiler::transpile;

/// Parsed command line.
struct Options {
    json_path: Option<PathBuf>,
    deny_warnings: bool,
    self_check: bool,
    replay_to: Option<u64>,
    paths: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        json_path: None,
        deny_warnings: false,
        self_check: false,
        replay_to: None,
        paths: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => {
                let path = iter.next().ok_or("--json needs a file path")?;
                options.json_path = Some(PathBuf::from(path));
            }
            "--deny-warnings" => options.deny_warnings = true,
            "--self-check" => options.self_check = true,
            "--replay-to" => {
                let cursor = iter.next().ok_or("--replay-to needs a watch-log cursor")?;
                options.replay_to = Some(
                    cursor
                        .parse()
                        .map_err(|e| format!("--replay-to: bad cursor '{cursor}': {e}"))?,
                );
            }
            "--help" | "-h" => {
                return Err("usage: qrio-lint [--json PATH] [--deny-warnings] \
                            [--self-check] [--replay-to CURSOR JOURNAL] [PATH...]"
                    .into())
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            path => options.paths.push(PathBuf::from(path)),
        }
    }
    if options.paths.is_empty() {
        options.paths.push(PathBuf::from("scenarios"));
    }
    Ok(options)
}

/// Expand files/directories into a sorted list of lintable files: scenario
/// YAML, durability journals (`.qj`) and envelope traces (`.qtrace`).
fn collect_scenarios(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            let entries = fs::read_dir(path)
                .map_err(|e| format!("cannot read directory '{}': {e}", path.display()))?;
            for entry in entries {
                let entry = entry
                    .map_err(|e| format!("'{}': {e}", path.display()))?
                    .path();
                let is_lintable = entry.extension().is_some_and(|ext| {
                    ext == "yaml" || ext == "yml" || ext == "qj" || ext == "qtrace"
                });
                if entry.is_file() && is_lintable {
                    files.push(entry);
                }
            }
        } else if path.is_file() {
            files.push(path.clone());
        } else {
            return Err(format!("no such file or directory: '{}'", path.display()));
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

/// Read a file's 8-byte magic prefix, if it has one.
fn magic_prefix(path: &Path) -> Option<[u8; 8]> {
    let mut magic = [0u8; 8];
    std::io::Read::read_exact(&mut fs::File::open(path).ok()?, &mut magic).ok()?;
    Some(magic)
}

/// Whether a file should be linted as a durability journal: by extension,
/// or by sniffing the `QRIOJRNL` magic for extensionless artifacts.
fn is_journal_file(path: &Path) -> bool {
    path.extension().is_some_and(|ext| ext == "qj")
        || magic_prefix(path).is_some_and(|magic| qrio_journal::looks_like_journal(&magic))
}

/// Whether a file should be linted as a control-plane envelope trace: by
/// extension, or by sniffing the `QRIOPROT` frame magic.
fn is_trace_file(path: &Path) -> bool {
    path.extension().is_some_and(|ext| ext == "qtrace")
        || magic_prefix(path).is_some_and(|magic| looks_like_envelope_trace(&magic))
}

/// The engine a tenant's circuit family runs on in the simulator.
fn engine_hint(circuit: WorkloadCircuit) -> EngineHint {
    match circuit {
        // Grover circuits are non-Clifford by construction.
        WorkloadCircuit::Grover => EngineHint::Statevector,
        WorkloadCircuit::Bv | WorkloadCircuit::Ghz | WorkloadCircuit::RandomClifford => {
            EngineHint::Stabilizer
        }
    }
}

/// Lint one scenario file end to end: parse, spec lints, then each tenant's
/// representative circuit both logically and transpiled onto every fleet
/// device that can host it.
fn lint_scenario_file(path: &Path, registry: &StrategyRegistry, report: &mut Report) {
    let subject = path.display().to_string();
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            report.push(Diagnostic::new(
                LintCode::ScenarioInvalid,
                Location::subject(&subject),
                format!("cannot read file: {e}"),
            ));
            return;
        }
    };
    let scenario = match Scenario::from_yaml(&text) {
        Ok(scenario) => scenario,
        Err(e) => {
            report.push(Diagnostic::new(
                LintCode::ScenarioInvalid,
                Location::subject(&subject),
                e.to_string(),
            ));
            return;
        }
    };

    report.extend(lint_scenario(&scenario, registry));
    report.extend(lint_chaos_scenario(&scenario));

    for tenant in &scenario.tenants {
        // Job #0 is representative: the family and width are fixed per
        // tenant, only secrets/marks/seeds vary across the stream.
        let Ok(circuit) = tenant.circuit_for(0) else {
            continue; // from_yaml validated this already
        };
        let name = format!("{}/{}", scenario.name, tenant.name);
        report.extend(lint_logical_circuit(&circuit, &name));
        report.extend(lint_simulation_path(&circuit, &name));
        report.extend(lint_engine_fit(
            &circuit,
            &name,
            engine_hint(tenant.circuit),
        ));
        for device in &scenario.fleet {
            if device.qubits < tenant.qubits {
                continue;
            }
            let backend = device.backend();
            match transpile(&circuit, &backend) {
                Ok(result) => report.extend(lint_transpile_result(&result, &name)),
                Err(e) => report.push(Diagnostic::new(
                    LintCode::ScenarioInvalid,
                    Location::at(&subject, format!("tenant '{}'", tenant.name)),
                    format!("transpilation for device '{}' failed: {e}", device.name),
                )),
            }
        }
    }
}

/// Lint the shipped figure/benchmark circuit corpus: every library circuit
/// the experiments use, transpiled onto a small heterogeneous fleet, must be
/// routed-lint clean — the regression net for the CCX-on-uncoupled-pairs bug
/// class.
fn lint_circuit_corpus(report: &mut Report) {
    let corpus: Vec<(&str, Circuit)> = vec![
        (
            "bv_10110",
            library::bernstein_vazirani_with_ancilla(5, 0b10110).expect("library circuit"),
        ),
        ("ghz_6", library::ghz(6).expect("library circuit")),
        ("qft_4", library::qft(4).expect("library circuit")),
        ("grover_3", library::grover(3, 5).expect("library circuit")),
        (
            "clifford_6x6",
            library::random_clifford_circuit(6, 6, 7).expect("library circuit"),
        ),
    ];
    let fleet = [
        Backend::uniform("lint-line", topology::line(8), 0.001, 0.01),
        Backend::uniform("lint-grid", topology::grid(3, 3), 0.002, 0.02),
        Backend::uniform("lint-ring", topology::ring(8), 0.004, 0.04),
    ];
    for (name, circuit) in &corpus {
        report.extend(lint_logical_circuit(circuit, name));
        report.extend(lint_simulation_path(circuit, name));
        for backend in &fleet {
            match transpile(circuit, backend) {
                Ok(result) => report.extend(lint_transpile_result(&result, name)),
                Err(e) => report.push(Diagnostic::new(
                    LintCode::ScenarioInvalid,
                    Location::subject(format!("circuit corpus '{name}'")),
                    format!("transpilation for device '{}' failed: {e}", backend.name()),
                )),
            }
        }
    }
}

/// Run seeded violations and check each expected code fires. Returns the
/// failures (empty = the analyzer still catches everything it claims to).
fn self_check() -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |label: &str, code: LintCode, diagnostics: Vec<Diagnostic>| {
        let fired = diagnostics.iter().any(|d| d.code == code);
        let status = if fired { "ok" } else { "MISSED" };
        println!("self-check: {label:<38} {} ... {status}", code.code());
        if !fired {
            failures.push(format!("{label}: expected {} to fire", code.code()));
        }
    };

    // 1. A CX across an uncoupled pair on a line device.
    let mut uncoupled = Circuit::new(5, 5);
    uncoupled.h(0).expect("fixture");
    uncoupled.cx(0, 4).expect("fixture");
    uncoupled.measure_all().expect("fixture");
    let line = Backend::uniform("line-5", topology::line(5), 0.01, 0.02);
    expect(
        "uncoupled CX on line device",
        LintCode::UncoupledTwoQubitGate,
        lint_routed_circuit(&uncoupled, "uncoupled-cx", TargetView::from_backend(&line)),
    );

    // 2. A T gate in a circuit bound for the stabilizer engine.
    let mut t_circuit = Circuit::new(2, 2);
    t_circuit.h(0).expect("fixture");
    t_circuit.t(0).expect("fixture");
    t_circuit.cx(0, 1).expect("fixture");
    t_circuit.measure_all().expect("fixture");
    expect(
        "T gate bound for stabilizer engine",
        LintCode::NonCliffordForStabilizer,
        lint_engine_fit(&t_circuit, "t-job", EngineHint::Stabilizer),
    );

    // 2b. A mid-circuit reset that forces the simulator off the Pauli-frame
    // path onto per-shot replay.
    let mut mid_reset = Circuit::new(2, 2);
    mid_reset.x(0).expect("fixture");
    mid_reset.reset(0).expect("fixture");
    mid_reset.h(0).expect("fixture");
    mid_reset.measure_all().expect("fixture");
    expect(
        "mid-circuit reset forcing replay",
        LintCode::MidCircuitForcesReplay,
        lint_simulation_path(&mid_reset, "mid-reset"),
    );

    // 3. A scenario event after the arrival horizon.
    let late_event = "scenario: self-check\n\
                      seed: 1\n\
                      durationMs: 3000\n\
                      maxJobs: 10\n\
                      fleet:\n\
                      - device: alpha\n\
                      \x20 qubits: 6\n\
                      tenants:\n\
                      - tenant: t\n\
                      \x20 strategy: min_queue\n\
                      \x20 circuit: ghz\n\
                      \x20 qubits: 4\n\
                      \x20 shots: 16\n\
                      \x20 ratePerSec: 1.0\n\
                      events:\n\
                      - atMs: 5000\n\
                      \x20 kind: outage\n\
                      \x20 device: alpha\n\
                      \x20 downMs: 100\n";
    let registry = builtin_registry(FidelityRankingConfig::default());
    let horizon_diags = match Scenario::from_yaml(late_event) {
        Ok(scenario) => lint_scenario(&scenario, &registry),
        // An unparsable fixture yields no diagnostics, so the expectation
        // below fails and reports the miss.
        Err(_) => Vec::new(),
    };
    expect(
        "scenario event beyond the horizon",
        LintCode::EventOutsideHorizon,
        horizon_diags,
    );

    // 4. Requirements no fleet device satisfies.
    let fleet = [
        Backend::uniform("small-a", topology::line(5), 0.01, 0.05),
        Backend::uniform("small-b", topology::line(8), 0.02, 0.10),
    ];
    let requirements = DeviceRequirements {
        min_qubits: Some(40),
        ..DeviceRequirements::default()
    };
    expect(
        "unsatisfiable device requirements",
        LintCode::UnsatisfiableRequirements,
        lint_requirements(&requirements, &fleet, "job 'picky'"),
    );

    // 5. The watch-log auditor rejects a log that loses a job.
    let truncated = {
        use qrio::{JobEvent, JobId, JobState};
        vec![JobEvent {
            seq: 0,
            at: 0,
            job: JobId::new("lost-job"),
            from: None,
            to: JobState::Submitted,
            node: None,
            cause: None,
        }]
    };
    expect(
        "watch log losing a non-terminal job",
        LintCode::JobLost,
        audit_watch_log(&truncated, AuditOptions::default()),
    );

    // 5b. The auditor's time rule: a retry that announces a backoff of 8 at
    // t=10 and claims it elapsed at t=12, and one stamped before it failed.
    {
        use qrio::{Cause, JobEvent, JobId, JobState};
        use qrio_cluster::ClusterError;
        let requeued_at = |at: u64| {
            let event = |seq, at, from, to, cause| JobEvent {
                seq,
                at,
                job: JobId::new("timed-job"),
                from: Some(from),
                to,
                node: None,
                cause: Some(Box::new(cause)),
            };
            let failed = Cause::Attempt {
                n: 1,
                error: ClusterError::ExecutionFailed {
                    job: "timed-job".into(),
                    reason: "boom".into(),
                },
                backoff: 8,
            };
            let requeued = Cause::BackoffElapsed;
            let log = [
                event(0, 10, JobState::Running, JobState::Retrying, failed),
                event(1, at, JobState::Retrying, JobState::Queued, requeued),
            ];
            audit_watch_log(&log, AuditOptions::default())
        };
        expect(
            "watch log re-queueing mid-backoff",
            LintCode::BackoffCutShort,
            requeued_at(12),
        );
        expect(
            "watch log stamped backwards",
            LintCode::TimeRanBackwards,
            requeued_at(9),
        );
    }

    // 6-9. The durability-journal family, over hand-built byte fixtures.
    {
        use qrio::durability::{CommandRecord, RECORD_COMMAND};
        use qrio::Command;
        use qrio_journal::{encode_record, header_bytes, Record};

        // A tick that left one event in the watch log.
        let tick = CommandRecord {
            command: Command::Tick,
            events_after: 1,
            digest: 0,
        }
        .to_record();
        let journal = |records: &[Record]| {
            let mut bytes = header_bytes().to_vec();
            for record in records {
                bytes.extend(encode_record(record));
            }
            bytes
        };

        let mut torn = journal(std::slice::from_ref(&tick));
        torn.truncate(torn.len() - 2);
        expect(
            "journal with a torn tail record",
            LintCode::TornTailRecord,
            lint_journal_bytes("self-check torn", &torn),
        );

        // A well-formed snapshot whose cursor claims 999 events.
        let mut liar = qrio::Qrio::new().snapshot_record();
        liar.payload[..8].copy_from_slice(&999u64.to_le_bytes());
        expect(
            "snapshot ahead of the log head",
            LintCode::SnapshotBeyondLogHead,
            lint_journal_bytes(
                "self-check liar-snapshot",
                &journal(&[tick.clone(), liar.clone()]),
            ),
        );

        // The same snapshot with an honest cursor and half its body missing:
        // the cursor alone reads fine, recovery would fail.
        let mut gutted = liar;
        gutted.payload[..8].copy_from_slice(&1u64.to_le_bytes());
        gutted.payload.truncate(gutted.payload.len() / 2);
        expect(
            "snapshot whose body does not decode",
            LintCode::MalformedJournal,
            lint_journal_bytes("self-check gutted-snapshot", &journal(&[tick, gutted])),
        );

        let future = Record::new(RECORD_COMMAND, 9, vec![0]);
        expect(
            "record from a future codec version",
            LintCode::RecordVersionMismatch,
            lint_journal_bytes("self-check future-record", &journal(&[future])),
        );

        expect(
            "file without the journal magic",
            LintCode::MalformedJournal,
            lint_journal_bytes("self-check garbage", b"not a journal at all"),
        );
    }

    // 10-14. The control-plane envelope-trace family, over hand-built frame
    // streams.
    {
        use qrio_proto::{Envelope, NodeCommand, NodeReport, Payload, RunVerdict};

        let envelope = |seq: u64, node: &str, payload: Payload| Envelope {
            seq,
            node_id: node.to_string(),
            virtual_ts: seq,
            payload,
        };
        let trace = |envelopes: &[Envelope]| -> Vec<u8> {
            envelopes.iter().flat_map(Envelope::encode).collect()
        };

        expect(
            "envelope stream skipping a seq",
            LintCode::EnvelopeSeqGap,
            lint_envelope_trace_bytes(
                "self-check seq-gap",
                &trace(&[
                    envelope(0, "alpha", Payload::Command(NodeCommand::Probe)),
                    envelope(2, "alpha", Payload::Command(NodeCommand::Probe)),
                ]),
            ),
        );

        expect(
            "phase report for an undispatched job",
            LintCode::ReportForUnboundJob,
            lint_envelope_trace_bytes(
                "self-check orphan-report",
                &trace(&[envelope(
                    0,
                    "alpha",
                    Payload::Report(NodeReport::Phase {
                        job: "ghost".into(),
                        attempt: 1,
                        verdict: RunVerdict::Failed {
                            reason: "fixture".into(),
                        },
                    }),
                )]),
            ),
        );

        let run = qrio_proto::RunPayload {
            job: "late-job".into(),
            attempt: 1,
            image_name: "img".into(),
            image_files: Vec::new(),
            qasm: String::new(),
            num_qubits: 2,
            shots: 8,
            threads: 1,
        };
        let resent = Payload::Command(NodeCommand::Run {
            payload: run.clone(),
        });
        expect(
            "run sent while another is in flight",
            LintCode::RunAlreadyInFlight,
            lint_envelope_trace_bytes(
                "self-check run-in-flight",
                &trace(&[
                    envelope(0, "alpha", resent.clone()),
                    envelope(1, "alpha", resent),
                ]),
            ),
        );

        expect(
            "run command sent after cordon",
            LintCode::CommandAfterCordon,
            lint_envelope_trace_bytes(
                "self-check cordoned-run",
                &trace(&[
                    envelope(0, "alpha", Payload::Command(NodeCommand::Cordon)),
                    envelope(
                        1,
                        "alpha",
                        Payload::Command(NodeCommand::Run { payload: run }),
                    ),
                ]),
            ),
        );

        let mut future = envelope(0, "alpha", Payload::Command(NodeCommand::Probe)).encode();
        future[8] = 0x2a; // version u16 LE sits right after the 8-byte magic
        future[9] = 0x00;
        expect(
            "envelope from a future wire version",
            LintCode::EnvelopeVersionMismatch,
            lint_envelope_trace_bytes("self-check future-envelope", &future),
        );

        expect(
            "file without the frame magic",
            LintCode::MalformedEnvelopeTrace,
            lint_envelope_trace_bytes("self-check trace-garbage", b"not a trace at all"),
        );
    }

    // 15-18. The fault-tolerance configuration family.
    {
        use qrio::BreakerConfig;

        let zero_attempts = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::fixed(1, 5)
        };
        expect(
            "retry policy with zero attempts",
            LintCode::RetryNeverRuns,
            lint_retry_policy(&zero_attempts, None, "self-check zero-retry"),
        );

        // 4 attempts x 50-tick delays = 150 ticks of backoff vs a deadline
        // of 100.
        expect(
            "backoff schedule outliving the deadline",
            LintCode::BackoffOutlivesDeadline,
            lint_retry_policy(
                &RetryPolicy::fixed(4, 50),
                Some(100),
                "self-check doomed-backoff",
            ),
        );

        let saturated = "scenario: self-check-chaos\n\
                         seed: 1\n\
                         durationMs: 1000\n\
                         maxJobs: 5\n\
                         fleet:\n\
                         - device: alpha\n\
                         \x20 qubits: 6\n\
                         tenants:\n\
                         - tenant: t\n\
                         \x20 strategy: min_queue\n\
                         \x20 circuit: ghz\n\
                         \x20 qubits: 4\n\
                         \x20 shots: 16\n\
                         \x20 ratePerSec: 1.0\n\
                         events:\n\
                         - kind: faults\n\
                         \x20 atMs: 0\n\
                         \x20 transientRate: 0.7\n\
                         \x20 flapRate: 0.4\n";
        let saturated_diags = match Scenario::from_yaml(saturated) {
            Ok(scenario) => lint_chaos_scenario(&scenario),
            Err(_) => Vec::new(),
        };
        expect(
            "chaos fault rates summing past 1.0",
            LintCode::FaultRateSaturated,
            saturated_diags,
        );

        let inverted = BreakerConfig {
            consecutive_failures: 0,
            failure_rate: 0.0,
            ..BreakerConfig::default()
        };
        expect(
            "inverted circuit-breaker thresholds",
            LintCode::BreakerThresholdsInverted,
            lint_breaker_config(&inverted, "self-check inverted-breaker"),
        );
    }

    failures
}

/// `--replay-to CURSOR JOURNAL`: the time-travel inspector. Replays the
/// journal up to the watch-log cursor and prints the reconstructed
/// lifecycle/scheduler state — deterministic output, diffable across runs.
fn replay_inspect(paths: &[PathBuf], cursor: u64) -> ExitCode {
    let [path] = paths else {
        eprintln!("qrio-lint: --replay-to needs exactly one journal path");
        return ExitCode::from(2);
    };
    if !path.is_file() || !is_journal_file(path) {
        eprintln!(
            "qrio-lint: --replay-to: '{}' is not a durability journal",
            path.display()
        );
        return ExitCode::from(2);
    }
    match qrio::Qrio::replay_to(path, cursor) {
        Ok((qrio, checkpoint)) => {
            println!("{} @ cursor {cursor}", path.display());
            println!("{checkpoint}");
            print!("{}", qrio.describe_state());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qrio-lint: --replay-to: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("qrio-lint: {message}");
            return ExitCode::from(2);
        }
    };

    if options.self_check {
        let failures = self_check();
        return if failures.is_empty() {
            println!("self-check: all seeded violations detected");
            ExitCode::SUCCESS
        } else {
            for failure in &failures {
                eprintln!("qrio-lint: self-check failed: {failure}");
            }
            ExitCode::from(2)
        };
    }

    if let Some(cursor) = options.replay_to {
        return replay_inspect(&options.paths, cursor);
    }

    let files = match collect_scenarios(&options.paths) {
        Ok(files) => files,
        Err(message) => {
            eprintln!("qrio-lint: {message}");
            return ExitCode::from(2);
        }
    };

    let registry = builtin_registry(FidelityRankingConfig::default());
    let mut report = Report::new();

    // The state machine is part of every run: the lifecycle contract must
    // hold no matter which scenarios are being linted.
    report.extend(verify_job_state_machine().diagnostics);
    lint_circuit_corpus(&mut report);
    for file in &files {
        if is_journal_file(file) {
            report.extend(lint_journal_file(file));
        } else if is_trace_file(file) {
            report.extend(lint_envelope_trace_file(file));
        } else {
            lint_scenario_file(file, &registry, &mut report);
        }
    }

    print!("{}", report.render_human());
    println!(
        "linted {} file(s) (scenarios, journals and traces) and the builtin circuit corpus",
        files.len()
    );

    if let Some(json_path) = &options.json_path {
        if let Err(e) = fs::write(json_path, report.to_json()) {
            eprintln!("qrio-lint: cannot write '{}': {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    if report.fails(options.deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
