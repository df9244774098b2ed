//! Layer replay: after the measured rounds of a traced run, the workload's
//! first requests are pushed through each layer's public function in
//! isolation, one timing per call. Every layer is replayed on every
//! workload; a layer the requests never reach (no fidelity-ranked job in
//! bob's stream, say) reports 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use qrio::durability::{encode_command_record, Command};
use qrio::{JobRequest, SimJobRunner};
use qrio_agent::NodeAgent;
use qrio_backend::{spec as backend_spec, Backend};
use qrio_circuit::{qasm, Circuit};
use qrio_cluster::strategy_names;
use qrio_journal::Journal;
use qrio_loadgen::Scenario;
use qrio_meta::{canary_fidelity_on_backend, MetaServer};
use qrio_proto::{Envelope, NodeCommand, Payload, RunPayload};
use qrio_scheduler::QrioScheduler;
use qrio_transpiler::{deflate, transpile};

use crate::inputs::{self, Mix};
use crate::stats;
use crate::workloads::Workload;

/// Requests replayed per layer, at most.
const REQUESTS: usize = 2000;
/// A layer stops early once it has this many samples and has used its time.
const LEAST_SAMPLES: usize = 30;
const LAYER_BUDGET: Duration = Duration::from_millis(200);
/// Jobs run with the control trace on, for the exact wire-byte count.
const WIRE_JOBS: usize = 100;

/// Median time of `call` over `items`, in µs; 0 when there are none.
fn p50_us<T>(items: &[T], mut call: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(items.len());
    for item in items {
        let timer = Instant::now();
        call(item);
        samples.push(timer.elapsed().as_nanos() as f64 / 1e3);
        if samples.len() >= LEAST_SAMPLES && started.elapsed() > LAYER_BUDGET {
            break;
        }
    }
    stats::median(&samples)
}

/// A request with what the deeper layers take as input, prepared untimed.
struct Prepared<'r> {
    request: &'r JobRequest,
    /// The circuit as the node's runner sees it (measured).
    circuit: Circuit,
    /// The device this request is replayed against.
    backend: &'r Backend,
}

fn meta_for(scenario: &Scenario, fleet: &[Backend]) -> MetaServer {
    let mut meta = MetaServer::with_config(inputs::ranking_config(scenario));
    for backend in fleet {
        meta.register_backend(backend.clone());
    }
    meta
}

fn upload(meta: &mut MetaServer, request: &JobRequest) -> Result<(), String> {
    meta.upload_job_metadata(&request.job_name, &request.strategy, Some(&request.qasm))
        .map_err(|e| format!("replay upload failed: {e}"))
}

fn run_envelope(request: &JobRequest, node: &str, seq: u64) -> Result<Envelope, String> {
    let job = qrio::containerize(request).map_err(|e| format!("replay containerize: {e}"))?;
    Ok(Envelope {
        seq,
        node_id: node.to_string(),
        virtual_ts: 0,
        payload: Payload::Command(NodeCommand::Run {
            payload: RunPayload {
                job: job.spec.name.clone(),
                attempt: 0,
                image_name: job.image.name().to_string(),
                image_files: job
                    .image
                    .files()
                    .map(|(path, contents)| (path.to_string(), contents.to_string()))
                    .collect(),
                qasm: job.spec.qasm.clone(),
                num_qubits: job.spec.num_qubits as u64,
                shots: job.spec.shots,
                threads: job.spec.threads as u64,
            },
        }),
    })
}

pub fn run(
    workload: Workload,
    seed: u64,
    smoke: bool,
    tmp: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let scenario = inputs::load_scenario(seed)?;
    let mix = match workload {
        Workload::CloudFlagship | Workload::RankMix => Mix::FourTenants,
        Workload::ExecInproc | Workload::TickThreaded | Workload::DurableExec => Mix::BobOnly,
    };
    let count = if smoke { REQUESTS / 20 } else { REQUESTS };
    let requests = inputs::generate(&scenario, mix, count, seed)?.requests;
    let fleet: Vec<Backend> = scenario.fleet.iter().map(|spec| spec.backend()).collect();
    let config = inputs::ranking_config(&scenario);
    let mut out = BTreeMap::new();

    // Visualizer → master server, and the QASM reader both ends use.
    out.insert(
        "core.master_server.containerize.p50_us",
        p50_us(&requests, |r| {
            black_box(qrio::containerize(r).ok());
        }),
    );
    out.insert(
        "circuit.parse_qasm.p50_us",
        p50_us(&requests, |r| {
            black_box(qasm::parse_qasm(&r.qasm).ok());
        }),
    );

    // Meta server: metadata upload, then first-time scoring per strategy.
    let mut meta = meta_for(&scenario, &fleet);
    out.insert(
        "meta.upload_job_metadata.p50_us",
        p50_us(&requests, |r| {
            black_box(upload(&mut meta, r).ok());
        }),
    );
    for (metric, strategy) in [
        ("meta.score_all.fidelity.p50_us", strategy_names::FIDELITY),
        ("meta.score_all.weighted.p50_us", strategy_names::WEIGHTED),
        ("meta.score_all.topology.p50_us", strategy_names::TOPOLOGY),
        ("meta.score_all.min_queue.p50_us", strategy_names::MIN_QUEUE),
    ] {
        let ranked: Vec<&JobRequest> = requests
            .iter()
            .filter(|r| r.strategy.name == strategy)
            .collect();
        out.insert(
            metric,
            p50_us(&ranked, |r| {
                black_box(meta.score_all(&r.job_name).ok());
            }),
        );
    }
    // Filter + rank on a meta server that has scored nothing yet.
    let fresh = {
        let mut fresh = meta_for(&scenario, &fleet);
        for request in &requests {
            upload(&mut fresh, request)?;
        }
        fresh
    };
    let scheduler = QrioScheduler::new(&fresh);
    out.insert(
        "scheduler.rank.p50_us",
        p50_us(&requests, |r| {
            black_box(scheduler.rank(&r.job_name, &fleet, &r.requirements).ok());
        }),
    );

    // The node's side: canary, transpile, simulate.
    let prepared: Vec<Prepared<'_>> = requests
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let mut circuit =
                qasm::parse_qasm(&request.qasm).map_err(|e| format!("replay parse: {e}"))?;
            if circuit.measurement_count() == 0 {
                circuit.measure_all().map_err(|e| e.to_string())?;
            }
            Ok(Prepared {
                request,
                circuit,
                backend: &fleet[i % fleet.len()],
            })
        })
        .collect::<Result<_, String>>()?;
    out.insert(
        "meta.canary_fidelity.p50_us",
        p50_us(&prepared, |p| {
            black_box(canary_fidelity_on_backend(&p.circuit, p.backend, &config).ok());
        }),
    );
    out.insert(
        "transpiler.transpile.p50_us",
        p50_us(&prepared, |p| {
            black_box(transpile(&p.circuit, p.backend).ok());
        }),
    );
    let physical: Vec<(qrio_transpiler::DeflatedCircuit, u64)> = prepared
        .iter()
        .take(REQUESTS / 4)
        .map(|p| {
            let transpiled =
                transpile(&p.circuit, p.backend).map_err(|e| format!("replay transpile: {e}"))?;
            let deflated = deflate(&transpiled.circuit, p.backend)
                .map_err(|e| format!("replay deflate: {e}"))?;
            Ok((deflated, p.request.shots))
        })
        .collect::<Result<_, String>>()?;
    out.insert(
        "sim.run_on_backend.p50_us",
        p50_us(&physical, |(deflated, shots)| {
            black_box(
                qrio_sim::run_on_backend(&deflated.circuit, &deflated.backend, *shots, seed).ok(),
            );
        }),
    );

    // The wire: one `Run` frame per request, to the device it is replayed on.
    let envelopes: Vec<Envelope> = prepared
        .iter()
        .enumerate()
        .map(|(i, p)| run_envelope(p.request, p.backend.name(), i as u64))
        .collect::<Result<_, String>>()?;
    out.insert(
        "proto.encode_run.p50_us",
        p50_us(&envelopes, |e| {
            black_box(e.encode());
        }),
    );
    let frames: Vec<Vec<u8>> = envelopes.iter().map(Envelope::encode).collect();
    out.insert(
        "proto.decode_run.p50_us",
        p50_us(&frames, |f| {
            black_box(Envelope::decode(f).ok());
        }),
    );
    let frame_lens: Vec<f64> = frames.iter().map(|f| f.len() as f64).collect();
    out.insert("proto.run_frame_bytes", stats::median(&frame_lens));

    // One agent per device, bound as the orchestrator binds it.
    let mut agents: BTreeMap<&str, NodeAgent> = BTreeMap::new();
    for backend in &fleet {
        let runner = SimJobRunner::new(inputs::runner_seed(&scenario));
        let mut agent = NodeAgent::new(backend.name(), Box::new(runner));
        let bind = Envelope {
            seq: 0,
            node_id: backend.name().to_string(),
            virtual_ts: 0,
            payload: Payload::Command(NodeCommand::Bind {
                backend_spec: backend_spec::to_spec(backend),
                injector: None,
            }),
        };
        agent
            .handle_frame(&bind.encode())
            .map_err(|e| format!("replay bind: {e}"))?;
        agents.insert(backend.name(), agent);
    }
    // Reply sizes per handled frame. How many frames the time budget lets
    // through varies from run to run; the first `LEAST_SAMPLES` always are.
    let mut phase_lens: Vec<Vec<f64>> = Vec::new();
    let addressed: Vec<(&str, &Vec<u8>)> = prepared
        .iter()
        .map(|p| p.backend.name())
        .zip(&frames)
        .collect();
    out.insert(
        "agent.handle_run_frame.p50_us",
        p50_us(&addressed, |(node, frame)| {
            let agent = agents.get_mut(node).expect("one agent per device");
            if let Ok(replies) = agent.handle_frame(frame) {
                phase_lens.push(replies.iter().map(|reply| reply.len() as f64).collect());
            }
        }),
    );
    phase_lens.truncate(LEAST_SAMPLES);
    out.insert(
        "proto.phase_frame_bytes",
        stats::median(&phase_lens.concat()),
    );

    // Exact wire volume: a few jobs through the real control plane with its
    // frame trace on (the `Bind`s happen before the trace starts).
    let wire_jobs = requests.len().min(WIRE_JOBS);
    let mut traced = inputs::new_qrio(&scenario)?;
    traced.enable_control_trace();
    for request in &requests[..wire_jobs] {
        let id = traced.enqueue(request).map_err(|e| e.to_string())?;
        traced.schedule(&id).map_err(|e| e.to_string())?;
        traced.execute(&id).map_err(|e| e.to_string())?;
    }
    out.insert(
        "proto.wire_bytes_per_job",
        traced.take_control_trace().len() as f64 / wire_jobs.max(1) as f64,
    );

    // The journal: append one `Enqueue` command record per request, then
    // scan the file back.
    let path = tmp.join("replay.wal");
    let records: Vec<qrio_journal::Record> = requests
        .iter()
        .map(|request| {
            encode_command_record(&Command::Enqueue {
                request: Box::new(request.clone()),
            })
        })
        .collect();
    let mut journal = Journal::create(&path).map_err(|e| format!("replay journal: {e}"))?;
    let mut appended = 0usize;
    out.insert(
        "journal.append.p50_us",
        p50_us(&records, |record| {
            if journal.append(record).is_ok() {
                appended += 1;
            }
        }),
    );
    journal
        .flush()
        .map_err(|e| format!("replay journal: {e}"))?;
    let bytes = journal
        .byte_len()
        .map_err(|e| format!("replay journal: {e}"))?;
    drop(journal);
    let mut scans = Vec::new();
    let mut scanned = 0usize;
    for _ in 0..5 {
        let timer = Instant::now();
        let report = qrio_journal::scan_file(&path).map_err(|e| format!("replay scan: {e}"))?;
        scans.push(bytes as f64 / 1e6 / timer.elapsed().as_secs_f64());
        scanned = report.records.len();
    }
    std::fs::remove_file(&path).map_err(|e| format!("cannot remove replay journal: {e}"))?;
    if scanned != appended {
        return Err(format!(
            "replay journal: appended {appended} records, scanned {scanned}"
        ));
    }
    out.insert("journal.scan_mb_per_s", stats::median(&scans));
    out.insert("journal.records", scanned as f64);
    out.insert("journal.bytes_total", bytes as f64);
    Ok(out)
}
