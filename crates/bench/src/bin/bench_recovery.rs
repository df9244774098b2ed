//! `bench_recovery` — the kill-and-restart durability benchmark.
//!
//! Runs the [`qrio_loadgen::killrestart`] storm: a durable orchestrator is
//! crashed mid-workload (`kill -9` semantics — the instance is dropped with
//! queued, running and finished jobs in flight), rebuilt from its journal
//! alone, and driven to completion. The report certifies that no
//! acknowledged job was lost and no job was executed twice, and the spliced
//! pre-crash + post-recovery watch log is audited against every lifecycle
//! invariant `qrio-analyzer` knows.
//!
//! The report is a pure function of the seed: CI runs this binary twice and
//! `cmp`s the two report files byte for byte.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrio-bench --release --bin bench_recovery --
//!     [--seed N] [--jobs N] [--crash-after N] [--fault-permille N]
//!     [--retry-attempts N] [--journal PATH] [--out PATH]
//! ```
//!
//! The storm runs with fault injection, per-job retry policies and armed
//! circuit breakers by default (disable with `--fault-permille 0
//! --retry-attempts 0`), so the crash lands over jobs parked mid-backoff in
//! `Retrying` and recovery must replay the same retry schedule.

use std::path::PathBuf;

use qrio_analyzer::{audit_watch_log, AuditOptions};
use qrio_bench::recovery_scenario;
use qrio_loadgen::run_kill_restart_with_log;

fn flag_path(args: &[String], name: &str, default: &str) -> PathBuf {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(default))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scenario = recovery_scenario(&args);
    let journal_path = flag_path(&args, "--journal", "bench_recovery.qj");
    let out_path = flag_path(&args, "--out", "BENCH_recovery.txt");

    println!(
        "bench_recovery: seed {}, {} jobs, crash after {}, {}permille faults, \
         {} attempts, breakers {}, journal {}",
        scenario.seed,
        scenario.jobs,
        scenario.crash_after_jobs,
        scenario.fault_permille,
        scenario.retry_max_attempts,
        if scenario.breakers { "on" } else { "off" },
        journal_path.display()
    );

    let wall = std::time::Instant::now();
    let (report, log) =
        run_kill_restart_with_log(&scenario, &journal_path).expect("kill-restart storm runs");
    let elapsed = wall.elapsed();

    let diagnostics = audit_watch_log(&log, AuditOptions::default());
    assert!(
        diagnostics.is_empty(),
        "auditor flagged the spliced watch log: {diagnostics:?}"
    );
    assert!(report.holds(), "durability contract violated:\n{report}");
    assert!(
        report.journal_snapshots >= 3 && report.recovery.snapshot_cursor > 0,
        "the storm no longer recovers from a mid-storm snapshot:\n{report}"
    );

    println!("{report}");
    println!("audited {} events: clean ({:.1?} wall)", log.len(), elapsed);

    // The written report carries no wall-clock data, so two runs over the
    // same seed produce byte-identical files.
    let mut rendered = report.to_string();
    rendered.push('\n');
    std::fs::write(&out_path, rendered)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out_path.display()));
    println!("wrote {}", out_path.display());
}
