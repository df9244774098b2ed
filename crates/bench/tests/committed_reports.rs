//! The committed reports, rebuilt: the chaos report, the in-proc smoke
//! report, the recovery report and its journal, and the outputs of the
//! fig6 / fig7 / fig9 / fig10 / table2 binaries must come out of the same calls the binaries make byte for byte
//! as they are committed. A change that moves one of them shows here as a
//! diff of a committed file.
//!
//! The text of every transition's cause in the chaos and recovery-storm
//! watch logs is pinned by one digest: it is what a cloud user reads to
//! learn why a job waited, moved or failed.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use qrio::JobEvent;
use qrio::TransportMode;
use qrio_bench::{recovery_scenario, CHAOS_SCENARIO, SMOKE_SCENARIO};
use qrio_bytes::fnv1a;
use qrio_loadgen::{run_kill_restart_with_log, run_scenario_with_log};
use qrio_loadgen::{run_scenario_with_transport, KillRestartReport, Scenario};

const CHAOS_JSON: &str = include_str!("../../../BENCH_chaos.json");
const SMOKE_JSON: &str = include_str!("../../../baselines/BENCH_cloud_smoke.json");
const RECOVERY_TXT: &str = include_str!("../../../baselines/BENCH_recovery.txt");
const RECOVERY_JOURNAL: &str = include_str!("../../../baselines/bench_recovery_journal.txt");
const FIG6_TXT: &str = include_str!("../../../baselines/fig6_default_topologies.txt");
const FIG7_TXT: &str = include_str!("../../../baselines/fig7_fidelity.txt");
const FIG9_TXT: &str = include_str!("../../../baselines/fig9_topology_choice.txt");
const FIG10_TXT: &str = include_str!("../../../baselines/fig10_filtering.txt");
const TABLE2_TXT: &str = include_str!("../../../baselines/table2_fleet.txt");

/// fnv1a over every rendered cause of the chaos watch log, then of the
/// recovery storm's, each followed by a newline. The causes render the text
/// the untyped reasons held (0xe898_1b7f_ec51_b8de over the same runs); the
/// value moved once since, when a healed node kept the reservations of the
/// jobs waiting on it and the recovery storm bound later jobs elsewhere.
const REASONS_DIGEST: u64 = 0x9e9a_ca1b_6196_94c7;

/// `bench_chaos`'s run: its report as JSON, and its watch log.
fn chaos() -> &'static (String, Vec<JobEvent>) {
    static RUN: OnceLock<(String, Vec<JobEvent>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let scenario = Scenario::from_yaml(CHAOS_SCENARIO).expect("scenario parses");
        let (mut report, log) = run_scenario_with_log(&scenario).expect("scenario runs");
        report.benchmark = "bench_chaos".to_string();
        (report.to_json(), log)
    })
}

/// `bench_recovery`'s run at its defaults: its report, the spliced watch
/// log, and the journal it wrote.
fn recovery() -> &'static (KillRestartReport, Vec<JobEvent>, Vec<u8>) {
    static RUN: OnceLock<(KillRestartReport, Vec<JobEvent>, Vec<u8>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("qrio-committed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path: PathBuf = dir.join("bench_recovery.qj");
        let (report, log) =
            run_kill_restart_with_log(&recovery_scenario(&[]), &path).expect("storm runs");
        let journal = std::fs::read(&path).expect("journal reads");
        let _ = std::fs::remove_dir_all(&dir);
        (report, log, journal)
    })
}

#[test]
fn the_chaos_report_is_the_committed_one() {
    assert_eq!(chaos().0, CHAOS_JSON);
}

#[test]
fn the_in_proc_smoke_report_is_the_committed_baseline() {
    let scenario = Scenario::from_yaml(SMOKE_SCENARIO).expect("scenario parses");
    let report = run_scenario_with_transport(&scenario, TransportMode::InProc).expect("runs");
    assert_eq!(report.to_json(), SMOKE_JSON);
}

#[test]
fn the_recovery_report_is_the_committed_one() {
    let (report, _, _) = recovery();
    assert_eq!(format!("{report}\n"), RECOVERY_TXT);
}

#[test]
fn the_recovery_journal_is_the_committed_length_and_digest() {
    let (_, _, journal) = recovery();
    let rendered = format!(
        "bytes = {}\nfnv1a = {:#018x}\n",
        journal.len(),
        fnv1a(journal)
    );
    assert_eq!(rendered, RECOVERY_JOURNAL);
}

#[test]
fn every_rendered_reason_is_the_committed_text() {
    let mut text = String::new();
    for event in chaos().1.iter().chain(&recovery().1) {
        if let Some(cause) = &event.cause {
            text.push_str(&cause.to_string());
            text.push('\n');
        }
    }
    assert_eq!(fnv1a(&text), REASONS_DIGEST, "{:#018x}", fnv1a(&text));
}

#[test]
fn the_figure_and_table_outputs_are_the_committed_ones() {
    for (binary, committed) in [
        (env!("CARGO_BIN_EXE_fig6_default_topologies"), FIG6_TXT),
        (env!("CARGO_BIN_EXE_fig7_fidelity"), FIG7_TXT),
        (env!("CARGO_BIN_EXE_fig9_topology_choice"), FIG9_TXT),
        (env!("CARGO_BIN_EXE_fig10_filtering"), FIG10_TXT),
        (env!("CARGO_BIN_EXE_table2_fleet"), TABLE2_TXT),
    ] {
        let output = Command::new(binary).output().expect("figure binary runs");
        assert!(output.status.success(), "{binary} failed");
        assert_eq!(
            String::from_utf8_lossy(&output.stdout),
            committed,
            "{binary}"
        );
    }
}
