//! `bench_e2e` — QRIO's wall-clock benchmark, timed from outside.
//!
//! ```text
//! bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--dump PATH]
//! ```
//!
//! One process runs one workload. Untraced (`--trace 0`) it reports the
//! end-to-end metrics of `BENCHMARK.json`; traced (`--trace 1`) it reports
//! the per-layer ones, from spans around every facade call plus a replay of
//! the workload's requests through each layer in isolation. The last line of
//! standard output is the result as one JSON object. See `README.md`.

mod inputs;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Family;
use workloads::{Round, RoundSpec, Workload};

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("decision_p50_us", "us"),
    ("decision_p95_us", "us"),
    ("sojourn_p50_us", "us"),
    ("sojourn_p95_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run, with their units. A layer the
/// workload never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    // Facade spans: together with `bench.unattributed_share` their shares
    // sum to the window.
    ("core.enqueue.calls", "count"),
    ("core.enqueue.busy_ms", "ms"),
    ("core.enqueue.share", "ratio"),
    ("core.enqueue.p50_us", "us"),
    ("core.enqueue.p99_us", "us"),
    ("core.enqueue.growth", "ratio"),
    ("core.report_telemetry.busy_ms", "ms"),
    ("core.report_telemetry.share", "ratio"),
    ("core.schedule.calls", "count"),
    ("core.schedule.busy_ms", "ms"),
    ("core.schedule.share", "ratio"),
    ("core.schedule.p50_us", "us"),
    ("core.schedule.p99_us", "us"),
    ("core.execute.calls", "count"),
    ("core.execute.busy_ms", "ms"),
    ("core.execute.share", "ratio"),
    ("core.execute.p50_us", "us"),
    ("core.execute.p99_us", "us"),
    ("core.tick.calls", "count"),
    ("core.tick.busy_ms", "ms"),
    ("core.tick.share", "ratio"),
    ("core.tick.p50_us", "us"),
    ("core.tick.p99_us", "us"),
    ("core.tick.growth", "ratio"),
    ("core.tick.jobs_per_tick", "jobs/tick"),
    ("core.recover.busy_ms", "ms"),
    ("loadgen.run_scenario.busy_ms", "ms"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    // What one workload alone can report, so not end-to-end metrics.
    ("ticks_per_s", "ticks/s"),
    ("recover_s", "s"),
    ("journal_bytes_per_job", "B/job"),
    // Single layers, around the window or in the replay after it.
    ("meta.cache.hit_rate", "ratio"),
    ("agent.transport_overhead_share", "ratio"),
    ("core.durability.journal_share", "ratio"),
    ("core.durability.snapshot_ms_at_end", "ms"),
    ("core.durability.snapshot_bytes_at_end", "B"),
    ("core.master_server.containerize.p50_us", "us"),
    ("circuit.parse_qasm.p50_us", "us"),
    ("meta.upload_job_metadata.p50_us", "us"),
    ("meta.score_all.fidelity.p50_us", "us"),
    ("meta.score_all.weighted.p50_us", "us"),
    ("meta.score_all.topology.p50_us", "us"),
    ("meta.score_all.min_queue.p50_us", "us"),
    ("meta.canary_fidelity.p50_us", "us"),
    ("scheduler.rank.p50_us", "us"),
    ("transpiler.transpile.p50_us", "us"),
    ("sim.run_on_backend.p50_us", "us"),
    ("proto.encode_run.p50_us", "us"),
    ("proto.decode_run.p50_us", "us"),
    ("proto.run_frame_bytes", "B"),
    ("proto.phase_frame_bytes", "B"),
    ("proto.wire_bytes_per_job", "B/job"),
    ("agent.handle_run_frame.p50_us", "us"),
    ("journal.append.p50_us", "us"),
    ("journal.scan_mb_per_s", "MB/s"),
    ("journal.records", "count"),
    ("journal.bytes_total", "B"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    dump: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut dump = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (one of: {})", known.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let parsed: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&parsed) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => smoke = true,
            "--dump" => dump = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload NAME is required")?,
        seed,
        // A smoke run is one round (two when traced) however short.
        seconds: seconds.unwrap_or(if smoke { 0.0 } else { 20.0 }),
        traced,
        smoke,
        dump,
    })
}

/// A scratch directory beside the executable (inside the build directory, so
/// inside the checkout and git-ignored), removed when the run ends — also
/// when it ends by a panic.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join(format!("bench_e2e-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The median over `rounds` of a per-round figure.
fn median_of(rounds: &[&Round], figure: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(|round| figure(round)).collect::<Vec<_>>())
}

fn end_to_end(rounds: &[&Round]) -> Result<Vec<(String, f64)>, String> {
    let values = [
        median_of(rounds, |r| r.setup_s),
        median_of(rounds, |r| r.succeeded as f64 / r.wall_s),
        median_of(rounds, |r| stats::tail(&r.decision_us, 50.0)),
        median_of(rounds, |r| stats::tail(&r.decision_us, 95.0)),
        median_of(rounds, |r| stats::tail(&r.sojourn_us, 50.0)),
        median_of(rounds, |r| stats::tail(&r.sojourn_us, 95.0)),
        peak_rss_mb()?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, _), value)| (name.to_string(), value))
        .collect())
}

/// The per-layer metrics of a traced run: facade spans of the traced rounds,
/// the harness's own overhead, single-layer figures taken around the window,
/// and the layer replay.
fn per_layer(
    args: &Args,
    untraced: &[&Round],
    traced: &[&Round],
    reference: Option<&Round>,
    replayed: BTreeMap<&'static str, f64>,
) -> Vec<(String, f64)> {
    let mut out: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| (name.to_string(), 0.0))
        .collect();
    let summaries = |family: Family| -> Vec<trace::FamilySummary> {
        traced
            .iter()
            .map(|round| trace::summarise(&round.spans, family, round.wall_s))
            .collect()
    };
    let med = |values: Vec<f64>| stats::median(&values);
    for family in Family::ALL {
        let rounds = summaries(family);
        let name = family.name();
        let mut put = |suffix: &str, figure: fn(&trace::FamilySummary) -> f64| {
            let key = format!("{name}.{suffix}");
            if out.contains_key(&key) {
                out.insert(key, med(rounds.iter().map(figure).collect()));
            }
        };
        put("calls", |s| s.calls as f64);
        put("busy_ms", |s| s.busy_ms);
        put("share", |s| s.share);
        put("p50_us", |s| s.p50_us);
        put("p99_us", |s| s.p99_us);
        put("growth", |s| s.growth);
    }
    let mut put = |key: &str, value: f64| {
        debug_assert!(out.contains_key(key), "{key} is not a per-layer metric");
        out.insert(key.to_string(), value);
    };
    put(
        "bench.unattributed_share",
        median_of(traced, |r| trace::unattributed_share(&r.spans, r.wall_s)),
    );
    // Round 2i ran untraced and round 2i + 1 traced, one after the other:
    // the ratio within a pair is not moved by a machine that drifts between
    // pairs.
    let pair_overheads: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(plain, spanned)| spanned.wall_s / plain.wall_s - 1.0)
        .collect();
    put("bench.trace_overhead_share", stats::median(&pair_overheads));
    let all: Vec<&Round> = untraced.iter().chain(traced).copied().collect();
    for key in [
        "meta.cache.hit_rate",
        "recover_s",
        "journal_bytes_per_job",
        "core.durability.snapshot_ms_at_end",
        "core.durability.snapshot_bytes_at_end",
    ] {
        let seen: Vec<f64> = all
            .iter()
            .filter_map(|r| r.extras.get(key).copied())
            .collect();
        put(key, stats::median(&seen));
    }
    if args.workload == Workload::TickThreaded {
        put(
            "ticks_per_s",
            median_of(&all, |r| r.extras["ticks"] / r.wall_s),
        );
        put(
            "core.tick.jobs_per_tick",
            median_of(&all, |r| r.succeeded as f64 / r.extras["ticks"]),
        );
    }
    if let Some(reference) = reference {
        // Per job, so that a reference of another size would still compare.
        let per_job = |r: &Round| r.wall_s / r.attempted.max(1) as f64;
        let ratio = median_of(untraced, per_job) / per_job(reference);
        match args.workload {
            Workload::TickThreaded => put("agent.transport_overhead_share", ratio - 1.0),
            Workload::DurableExec => put("core.durability.journal_share", 1.0 - 1.0 / ratio),
            _ => {}
        }
    }
    for (key, value) in replayed {
        put(key, value);
    }
    out.into_iter().collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|&&(known, _)| known == name)
        .map_or("", |&(_, unit)| unit)
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let tmp = TempDir::create()?;
    let jobs = if args.smoke {
        args.workload.smoke_jobs_per_round()
    } else {
        args.workload.jobs_per_round()
    };
    let spec = RoundSpec {
        workload: args.workload,
        seed: args.seed,
        jobs,
        traced: false,
        tmp: &tmp.0,
    };
    println!(
        "bench_e2e: workload {} seed {} jobs/round {} traced {} ({} cores)",
        args.workload.name(),
        args.seed,
        if jobs == 0 {
            "scenario".to_string()
        } else {
            jobs.to_string()
        },
        args.traced,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // Rounds until `--seconds` of window time have passed. An untraced run
    // makes at least three, so that its medians mean something. A traced run
    // alternates untraced and traced rounds, so that the two are compared
    // under the same conditions, and makes at least one of each.
    let least = match (args.smoke, args.traced) {
        (true, false) => 1,
        (_, true) => 2,
        (false, false) => 3,
    };
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut window_s = 0.0;
    while rounds.len() < least || window_s < args.seconds {
        let traced = args.traced && rounds.len() % 2 == 1;
        let round = workloads::run_round(RoundSpec { traced, ..spec })?;
        window_s += round.wall_s;
        rounds.push((traced, round));
    }

    // Reference rounds, outside the measured rounds: the same stream over
    // the other transport (its digest is a gate) or without the journal.
    let reference = match args.workload {
        Workload::TickThreaded => Some(workloads::tick_reference_round(spec)?),
        Workload::DurableExec if args.traced => Some(workloads::durable_reference_round(spec)?),
        _ => None,
    };

    let mut failures: Vec<String> = Vec::new();
    for (i, (_, round)) in rounds.iter().enumerate() {
        failures.extend(
            round
                .gate_failures
                .iter()
                .map(|f| format!("round {i}: {f}")),
        );
        if round.digest != rounds[0].1.digest {
            failures.push(format!(
                "round {i}: decision_digest {:016x} differs from round 0's {:016x}",
                round.digest, rounds[0].1.digest
            ));
        }
    }
    if let (Workload::TickThreaded, Some(reference)) = (args.workload, &reference) {
        if reference.digest != rounds[0].1.digest {
            failures.push(format!(
                "in-proc decision_digest {:016x} differs from threaded {:016x}",
                reference.digest, rounds[0].1.digest
            ));
        }
    }
    let attempted: usize = rounds.iter().map(|(_, r)| r.attempted).sum();
    let succeeded: usize = rounds.iter().map(|(_, r)| r.succeeded).sum();
    let failed = attempted - succeeded;

    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let metrics = if args.traced {
        let replayed = replay::run(args.workload, args.seed, args.smoke, &tmp.0)?;
        per_layer(args, &untraced, &traced, reference.as_ref(), replayed)
    } else {
        end_to_end(&untraced)?
    };
    if let Some((name, value)) = metrics.iter().find(|(_, value)| !value.is_finite()) {
        return Err(format!("metric {name} is not a number: {value}"));
    }
    // An empty sum is -0.0; print it as 0.
    let metrics: Vec<(String, f64)> = metrics.into_iter().map(|(n, v)| (n, v + 0.0)).collect();

    if let Some(path) = &args.dump {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let io = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
        use std::io::Write as _;
        writeln!(out, "round\tspan\trequest\tstart_ns\tdur_ns").map_err(io)?;
        for (i, (_, round)) in rounds.iter().enumerate() {
            trace::dump(&mut out, i, &round.spans).map_err(io)?;
        }
        out.flush().map_err(io)?;
    }

    println!(
        "rounds {} ({} traced), window {window_s:.3} s, decision_digest {:016x}",
        rounds.len(),
        traced.len(),
        rounds[0].1.digest
    );
    for (i, (traced, round)) in rounds.iter().enumerate() {
        println!(
            "round {i}{}: setup {:.3} s, window {:.3} s, {} of {} jobs succeeded, \
             decision p50 {:.1} p95 {:.1} us, sojourn p50 {:.1} p95 {:.1} us",
            if *traced { " (traced)" } else { "" },
            round.setup_s,
            round.wall_s,
            round.succeeded,
            round.attempted,
            stats::tail(&round.decision_us, 50.0),
            stats::tail(&round.decision_us, 95.0),
            stats::tail(&round.sojourn_us, 50.0),
            stats::tail(&round.sojourn_us, 95.0),
        );
    }
    for (name, value) in &metrics {
        println!("{name} = {value} {}", unit_of(name));
    }
    println!(
        "failed_share = {} ratio ({failed} of {attempted} jobs)",
        if failures.is_empty() {
            failed as f64 / attempted.max(1) as f64
        } else {
            1.0
        }
    );
    for failure in &failures {
        eprintln!("GATE FAILED: {failure}");
    }
    let correct = failures.is_empty() && failed == 0;
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` inside the array that follows `"<key>":` in
    /// `BENCHMARK.json`.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\":")).expect("key present");
        let array = &json[start..];
        let array = &array[..array.find(']').expect("array closes")];
        array
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_binary_reports() {
        let json = include_str!("../../BENCHMARK.json");
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names_under(json, "workloads"), workloads);
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|&(name, _)| name).collect();
        assert_eq!(names_under(json, "end_to_end"), end_to_end);
        let mut per_layer: Vec<&str> = PER_LAYER.iter().map(|&(name, _)| name).collect();
        per_layer.sort_unstable();
        let mut listed = names_under(json, "per_layer");
        listed.sort_unstable();
        assert_eq!(listed, per_layer);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is listed with unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("setup_s".to_string(), 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
