//! `bench_sim` — the simulation hot-path benchmark behind `BENCH_sim.json`.
//!
//! Measures the rebuilt `qrio-sim` execution engine against the seed
//! implementation (kept verbatim in [`naive`]): the Clifford-canary shot
//! loop, ideal statevector sampling, stabilizer gate throughput, the noisy
//! Monte-Carlo path, a transpiled canary as the meta server scores it,
//! pattern-graph dedup and the VF2 embedding search. Every
//! metric records a baseline number, a current number and the speedup, so
//! this PR and every future one has before/after evidence.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrio-bench --release --bin bench_sim [-- --smoke] [--out PATH] [--canary PATH]
//! ```
//!
//! `--smoke` shrinks iteration counts for CI; `--out` overrides the default
//! `BENCH_sim.json` output path. `--canary PATH` skips the timing loops and
//! instead runs two noisy Clifford canaries — the hand-built 20-qubit one
//! and a transpiled, deflated one — each once on the Pauli-frame path at
//! 1/2/8 threads plus the forced replay path, asserts all four histograms are
//! identical, and writes the counts to `PATH` — CI runs this twice and
//! `cmp`s the files to pin byte-reproducibility.

use std::fmt::Write as _;
use std::time::Instant;

use qrio_backend::topology;
use qrio_circuit::{library, Circuit, Gate};
use qrio_layout::{find_embeddings, PatternGraph, SearchOptions};
use qrio_loadgen::Scenario;
use qrio_sim::{
    run_ideal_parallel, run_paired, run_with_noise_parallel, run_with_noise_path, Counts,
    ExecutionPath, NoiseModel, ParallelConfig, StabilizerSimulator, StateVector,
    SEED_STREAM_STRIDE,
};
use qrio_transpiler::{deflate, transpile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seed (pre-optimisation) implementations, kept verbatim so the
/// baseline is measured on the same machine in the same process — not
/// copied from a stale lab notebook.
mod naive {
    use qrio_circuit::{Circuit, Gate};
    use qrio_sim::{Complex64, NoiseModel};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// The seed `Vec<Vec<bool>>` CHP tableau (boolean rows, per-qubit phase
    /// lookup), exactly as shipped before the bit-packed rebuild.
    pub struct Tableau {
        n: usize,
        x: Vec<Vec<bool>>,
        z: Vec<Vec<bool>>,
        r: Vec<bool>,
    }

    impl Tableau {
        pub fn new(num_qubits: usize) -> Self {
            let n = num_qubits;
            let rows = 2 * n + 1;
            let mut x = vec![vec![false; n]; rows];
            let mut z = vec![vec![false; n]; rows];
            let r = vec![false; rows];
            for i in 0..n {
                x[i][i] = true;
                z[n + i][i] = true;
            }
            Tableau { n, x, z, r }
        }

        fn h(&mut self, a: usize) {
            for i in 0..2 * self.n {
                let (xi, zi) = (self.x[i][a], self.z[i][a]);
                self.r[i] ^= xi && zi;
                self.x[i][a] = zi;
                self.z[i][a] = xi;
            }
        }

        fn s(&mut self, a: usize) {
            for i in 0..2 * self.n {
                let (xi, zi) = (self.x[i][a], self.z[i][a]);
                self.r[i] ^= xi && zi;
                self.z[i][a] = zi ^ xi;
            }
        }

        fn cx(&mut self, a: usize, b: usize) {
            for i in 0..2 * self.n {
                let (xia, zia) = (self.x[i][a], self.z[i][a]);
                let (xib, zib) = (self.x[i][b], self.z[i][b]);
                self.r[i] ^= xia && zib && (xib ^ zia ^ true);
                self.x[i][b] = xib ^ xia;
                self.z[i][a] = zia ^ zib;
            }
        }

        fn x_gate(&mut self, a: usize) {
            for i in 0..2 * self.n {
                self.r[i] ^= self.z[i][a];
            }
        }

        fn z_gate(&mut self, a: usize) {
            for i in 0..2 * self.n {
                self.r[i] ^= self.x[i][a];
            }
        }

        /// Apply one gate from the set the benchmark circuits use.
        pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
            match *gate {
                Gate::H => self.h(qubits[0]),
                Gate::S => self.s(qubits[0]),
                Gate::X => self.x_gate(qubits[0]),
                Gate::Y => {
                    self.z_gate(qubits[0]);
                    self.x_gate(qubits[0]);
                }
                Gate::Z => self.z_gate(qubits[0]),
                Gate::CX => self.cx(qubits[0], qubits[1]),
                ref g => panic!("naive tableau: unsupported benchmark gate {g:?}"),
            }
        }

        fn rowsum(&mut self, h: usize, i: usize) {
            let mut phase: i32 = i32::from(self.r[h]) * 2 + i32::from(self.r[i]) * 2;
            for j in 0..self.n {
                phase += g(self.x[i][j], self.z[i][j], self.x[h][j], self.z[h][j]);
            }
            self.r[h] = phase.rem_euclid(4) == 2;
            for j in 0..self.n {
                self.x[h][j] ^= self.x[i][j];
                self.z[h][j] ^= self.z[i][j];
            }
        }

        pub fn measure(&mut self, a: usize, rng: &mut StdRng) -> bool {
            let n = self.n;
            let mut p = None;
            for i in n..2 * n {
                if self.x[i][a] {
                    p = Some(i);
                    break;
                }
            }
            if let Some(p) = p {
                for i in 0..2 * n {
                    if i != p && self.x[i][a] {
                        self.rowsum(i, p);
                    }
                }
                self.x[p - n] = self.x[p].clone();
                self.z[p - n] = self.z[p].clone();
                self.r[p - n] = self.r[p];
                for j in 0..n {
                    self.x[p][j] = false;
                    self.z[p][j] = false;
                }
                self.z[p][a] = true;
                let outcome = rng.gen_bool(0.5);
                self.r[p] = outcome;
                outcome
            } else {
                let scratch = 2 * n;
                for j in 0..n {
                    self.x[scratch][j] = false;
                    self.z[scratch][j] = false;
                }
                self.r[scratch] = false;
                for i in 0..n {
                    if self.x[i][a] {
                        self.rowsum(scratch, i + n);
                    }
                }
                self.r[scratch]
            }
        }
    }

    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => i32::from(z2) - i32::from(x2),
            (true, false) => i32::from(z2) * (2 * i32::from(x2) - 1),
            (false, true) => i32::from(x2) * (1 - 2 * i32::from(z2)),
        }
    }

    /// The seed shot loop: rebuild the tableau and replay the whole circuit
    /// for every shot (the old `run_stabilizer_shot`, ideal-noise case).
    pub fn stabilizer_shot_loop(circuit: &Circuit, shots: u64, rng: &mut StdRng) -> u64 {
        let mut acc = 0u64;
        for _ in 0..shots {
            let mut sim = Tableau::new(circuit.num_qubits());
            let mut outcome = 0u64;
            for inst in circuit.instructions() {
                match inst.gate {
                    Gate::Barrier => {}
                    Gate::Measure => {
                        if sim.measure(inst.qubits[0], rng) {
                            outcome |= 1 << inst.clbits[0];
                        }
                    }
                    ref gate => sim.apply_gate(gate, &inst.qubits),
                }
            }
            acc ^= outcome;
        }
        acc
    }

    /// The seed noisy shot loop: replay with Pauli-error injection.
    pub fn noisy_stabilizer_shot_loop(
        circuit: &Circuit,
        noise: &NoiseModel,
        shots: u64,
        rng: &mut StdRng,
    ) -> u64 {
        let mut acc = 0u64;
        for _ in 0..shots {
            let mut sim = Tableau::new(circuit.num_qubits());
            let mut outcome = 0u64;
            for inst in circuit.instructions() {
                match inst.gate {
                    Gate::Barrier => {}
                    Gate::Measure => {
                        let raw = sim.measure(inst.qubits[0], rng);
                        if noise.flip_readout(inst.qubits[0], raw, rng) {
                            outcome |= 1 << inst.clbits[0];
                        }
                    }
                    ref gate => {
                        sim.apply_gate(gate, &inst.qubits);
                        for (q, pauli) in noise.sample_gate_errors(gate, &inst.qubits, rng) {
                            sim.apply_gate(&pauli.gate(), &[q]);
                        }
                    }
                }
            }
            acc ^= outcome;
        }
        acc
    }

    /// The seed statevector sampler: O(2^n) linear scan per draw.
    pub fn linear_scan_sample(amplitudes: &[Complex64], rng: &mut StdRng) -> u64 {
        let draw: f64 = rng.gen();
        let mut cumulative = 0.0;
        for (index, amp) in amplitudes.iter().enumerate() {
            cumulative += amp.norm_sqr();
            if draw < cumulative {
                return index as u64;
            }
        }
        (amplitudes.len() - 1) as u64
    }

    /// The seed O(E²) pattern-edge dedup (`Vec::contains` per edge).
    pub fn quadratic_edge_dedup(num_vertices: usize, edges: &[(usize, usize)]) -> usize {
        let mut cleaned: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in edges {
            if a == b || a >= num_vertices || b >= num_vertices {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if cleaned.contains(&key) {
                continue;
            }
            cleaned.push(key);
        }
        cleaned.len()
    }
}

/// One measured metric: baseline vs current in units/second (or seconds).
struct Metric {
    name: &'static str,
    unit: &'static str,
    baseline: f64,
    current: f64,
    note: &'static str,
}

impl Metric {
    fn speedup(&self) -> f64 {
        if self.baseline > 0.0 {
            self.current / self.baseline
        } else {
            0.0
        }
    }
}

/// Time `op` `reps` times and return the best (minimum) duration in seconds.
fn best_of<F: FnMut()>(reps: u32, mut op: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        op();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn statevector_circuit(qubits: usize) -> Circuit {
    // Entangled, non-uniform and non-Clifford: GHZ core plus rotations.
    let mut circuit = library::ghz(qubits).unwrap().without_measurements();
    circuit.append(Gate::T, &[0]).unwrap();
    circuit.append(Gate::RY(0.4), &[qubits / 2]).unwrap();
    circuit.append(Gate::H, &[qubits - 1]).unwrap();
    circuit
}

/// A fusion-friendly dense circuit: per-layer Euler-angle runs on every wire
/// (three 1q gates that collapse to one matrix) plus CZ·CP diagonal chains
/// (two 2q gates that collapse to one phase table).
fn fusion_circuit(qubits: usize, layers: usize) -> Circuit {
    let mut circuit = Circuit::new(qubits, 0);
    for layer in 0..layers {
        for q in 0..qubits {
            let theta = 0.1 + 0.05 * (layer * qubits + q) as f64;
            circuit.rz(theta, q).unwrap();
            circuit.rx(0.7, q).unwrap();
            circuit.rz(0.3, q).unwrap();
        }
        for q in 0..qubits - 1 {
            circuit.cz(q, q + 1).unwrap();
            circuit.append(Gate::CP(0.25), &[q, q + 1]).unwrap();
        }
    }
    circuit
}

/// The canary the meta server scores most often in `scenarios/cloud.yaml`:
/// carol's first circuit, snapped, transpiled to `cedar`'s line, snapped
/// again and deflated to the active qubits — with the fused `u3` on an idle
/// qubit after the measurement block that every transpiled circuit ends
/// with — and the deflated device's noise model.
fn transpiled_canary() -> (Circuit, NoiseModel) {
    let scenario = Scenario::from_yaml(include_str!("../../../../scenarios/cloud.yaml")).unwrap();
    let carol = scenario.tenants.iter().find(|t| t.name == "carol").unwrap();
    let cedar = scenario.fleet.iter().find(|d| d.name == "cedar").unwrap();
    let backend = cedar.backend();
    let logical = carol.circuit_for(0).unwrap().to_clifford();
    let physical = transpile(&logical, &backend).unwrap().circuit.to_clifford();
    let deflated = deflate(&physical, &backend).unwrap();
    let noise = NoiseModel::from_backend(&deflated.backend);
    (deflated.circuit, noise)
}

/// Run `circuit` under `noise` on forced replay and on the Pauli-frame path
/// at 1/2/8 threads, assert the four histograms are identical and return it.
fn frame_checked_counts(circuit: &Circuit, noise: &NoiseModel, shots: u64, seed: u64) -> Counts {
    let run = |threads: usize, path: ExecutionPath| {
        let parallel = ParallelConfig::with_threads(threads);
        run_with_noise_path(circuit, noise, shots, seed, &parallel, path).unwrap()
    };
    let replay = run(1, ExecutionPath::Replay);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            run(threads, ExecutionPath::Frame),
            replay,
            "canary: frame path at {threads} threads diverged from serial replay"
        );
    }
    replay
}

/// The `"counts": {…}` member of the canary file, at `indent`.
fn write_counts(json: &mut String, indent: &str, counts: &Counts) {
    let entries: Vec<(u64, u64)> = counts.iter().collect();
    let _ = writeln!(json, "{indent}\"counts\": {{");
    for (index, (outcome, count)) in entries.iter().enumerate() {
        let comma = if index + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(json, "{indent}  \"{outcome}\": {count}{comma}");
    }
}

/// `--canary PATH`: deterministic noisy-canary runs, no timing. Asserts the
/// Pauli-frame path at 1/2/8 threads and the forced replay path all produce
/// the same histogram, for the hand-built canary and for the transpiled one,
/// then writes the counts as JSON for CI to diff. The hand-built canary's
/// members come first and are written as they always were, so a file from an
/// older build is, but for its closing two lines, a prefix of this one.
fn run_canary(path: &str) {
    let canary = library::random_clifford_circuit(20, 8, 7).unwrap();
    let noise = NoiseModel::uniform(20, 0.01, 0.05, 0.02);
    let (shots, seed) = (1024u64, 13u64);
    let counts = frame_checked_counts(&canary, &noise, shots, seed);
    let (transpiled, transpiled_noise) = transpiled_canary();
    let transpiled_counts = frame_checked_counts(&transpiled, &transpiled_noise, shots, seed);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"canary\": \"noisy_clifford_20q_depth8\",");
    let _ = writeln!(json, "  \"shots\": {shots},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    write_counts(&mut json, "  ", &counts);
    json.push_str("  },\n  \"transpiled_canary\": {\n");
    let _ = writeln!(json, "    \"canary\": \"carol_0_on_cedar_deflated\",");
    write_counts(&mut json, "    ", &transpiled_counts);
    json.push_str("    }\n  }\n}\n");
    std::fs::write(path, &json).expect("cannot write canary output");
    println!(
        "canary: {} + {} distinct outcomes over {shots} shots each, frame path byte-identical \
         to replay across 1/2/8 threads; wrote {path}",
        counts.iter().count(),
        transpiled_counts.iter().count()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--canary") {
        let path = args.get(i + 1).expect("--canary requires an output path");
        run_canary(path);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let reps: u32 = if smoke { 2 } else { 5 };
    let shots: u64 = 1024;
    let sv_qubits: usize = 20;
    let sv_draws: u64 = if smoke { 256 } else { 1024 };

    let mut metrics: Vec<Metric> = Vec::new();

    // --- 1. Clifford-canary shot loop (stabilizer, 1024 shots) -----------------------------
    let canary = library::random_clifford_circuit(20, 8, 7).unwrap();
    let baseline_secs = best_of(reps, || {
        let mut rng = StdRng::seed_from_u64(3);
        std::hint::black_box(naive::stabilizer_shot_loop(&canary, shots, &mut rng));
    });
    let current_secs = best_of(reps, || {
        std::hint::black_box(
            run_ideal_parallel(&canary, shots, 3, &ParallelConfig::auto()).unwrap(),
        );
    });
    let serial_secs = best_of(reps, || {
        std::hint::black_box(
            run_ideal_parallel(&canary, shots, 3, &ParallelConfig::serial()).unwrap(),
        );
    });
    metrics.push(Metric {
        name: "stabilizer_canary_shots_per_sec",
        unit: "shots/s",
        baseline: shots as f64 / baseline_secs,
        current: shots as f64 / current_secs,
        note: "20q depth-8 Clifford canary, 1024 shots; baseline replays the \
               circuit per shot on the seed Vec<bool> tableau",
    });
    metrics.push(Metric {
        name: "stabilizer_canary_shots_per_sec_serial",
        unit: "shots/s",
        baseline: shots as f64 / baseline_secs,
        current: shots as f64 / serial_secs,
        note: "same workload pinned to one thread (the ideal Pauli-frame plan, \
               built once a run, no parallelism)",
    });

    // --- 2. Ideal statevector sampling at 20 qubits ----------------------------------------
    let sv_circuit = statevector_circuit(sv_qubits);
    let mut state = StateVector::new(sv_qubits).unwrap();
    state.apply_circuit(&sv_circuit).unwrap();
    let amplitudes: Vec<qrio_sim::Complex64> = (0..1usize << sv_qubits)
        .map(|i| state.amplitude(i))
        .collect();
    let baseline_secs = best_of(reps, || {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..sv_draws {
            std::hint::black_box(naive::linear_scan_sample(&amplitudes, &mut rng));
        }
    });
    // Current path includes building the cumulative table (amortised over the
    // draw loop, exactly as the executor fast path does it).
    let current_secs = best_of(reps, || {
        let table = state.cumulative_distribution();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..sv_draws {
            std::hint::black_box(table.sample(&mut rng));
        }
    });
    metrics.push(Metric {
        name: "statevector_sampling_20q_samples_per_sec",
        unit: "samples/s",
        baseline: sv_draws as f64 / baseline_secs,
        current: sv_draws as f64 / current_secs,
        note: "20-qubit ideal terminal sampling; baseline linear-scans 2^20 \
               amplitudes per draw, current builds the cumulative table once \
               (cost included) and binary-searches per draw",
    });

    // --- 3. End-to-end ideal statevector execution at 20 qubits ----------------------------
    let mut measured = sv_circuit.clone();
    measured.measure_all().unwrap();
    let e2e_shots = if smoke { 256 } else { 1024 };
    let current_secs = best_of(reps, || {
        std::hint::black_box(
            run_ideal_parallel(&measured, e2e_shots, 5, &ParallelConfig::auto()).unwrap(),
        );
    });
    // Baseline = state build (shared) + naive per-shot linear scans.
    let build_secs = best_of(reps, || {
        let mut sv = StateVector::new(sv_qubits).unwrap();
        sv.apply_circuit(&sv_circuit).unwrap();
        std::hint::black_box(&sv);
    });
    let scan_secs = best_of(reps, || {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..e2e_shots {
            std::hint::black_box(naive::linear_scan_sample(&amplitudes, &mut rng));
        }
    });
    metrics.push(Metric {
        name: "statevector_run_ideal_20q_shots_per_sec",
        unit: "shots/s",
        baseline: e2e_shots as f64 / (build_secs + scan_secs),
        current: e2e_shots as f64 / current_secs,
        note: "full run_ideal at 20 qubits (state build + sampling)",
    });

    // --- 4. Stabilizer gate throughput ------------------------------------------------------
    let big = library::random_clifford_circuit(100, 40, 11).unwrap();
    let gates = big
        .instructions()
        .iter()
        .filter(|i| !matches!(i.gate, Gate::Measure | Gate::Barrier))
        .count();
    let baseline_secs = best_of(reps, || {
        let mut sim = naive::Tableau::new(100);
        for inst in big.instructions() {
            if matches!(inst.gate, Gate::Measure | Gate::Barrier) {
                continue;
            }
            sim.apply_gate(&inst.gate, &inst.qubits);
        }
        std::hint::black_box(&sim);
    });
    let current_secs = best_of(reps, || {
        let mut sim = StabilizerSimulator::new(100);
        sim.apply_circuit(&big).unwrap();
        std::hint::black_box(&sim);
    });
    metrics.push(Metric {
        name: "stabilizer_gate_throughput_gates_per_sec",
        unit: "gates/s",
        baseline: gates as f64 / baseline_secs,
        current: gates as f64 / current_secs,
        note: "100-qubit depth-40 Clifford circuit applied to a fresh tableau",
    });

    // --- 5. Noisy stabilizer path ----------------------------------------------------------
    let noise = NoiseModel::uniform(20, 0.01, 0.05, 0.02);
    let baseline_secs = best_of(reps, || {
        let mut rng = StdRng::seed_from_u64(13);
        std::hint::black_box(naive::noisy_stabilizer_shot_loop(
            &canary, &noise, shots, &mut rng,
        ));
    });
    let current_secs = best_of(reps, || {
        std::hint::black_box(
            run_with_noise_parallel(&canary, &noise, shots, 13, &ParallelConfig::auto()).unwrap(),
        );
    });
    metrics.push(Metric {
        name: "noisy_stabilizer_shots_per_sec",
        unit: "shots/s",
        baseline: shots as f64 / baseline_secs,
        current: shots as f64 / current_secs,
        note: "Monte-Carlo noise on the Pauli-frame path: ideal tableau built \
               once, each shot propagates an n-qubit X/Z frame in O(n*depth) \
               word ops and replays nothing; byte-identical to per-shot replay",
    });

    // --- 5a. A transpiled canary, as the meta server scores it ------------------------------
    let (transpiled, transpiled_noise) = transpiled_canary();
    let ideal = NoiseModel::ideal(transpiled.num_qubits());
    let scores: u64 = if smoke { 50 } else { 500 };
    let serial = ParallelConfig::serial();
    let shots_per_sec = |score: &dyn Fn(u64, u64)| {
        let secs = best_of(reps, || {
            for seed in 0..scores {
                score(seed, seed + SEED_STREAM_STRIDE);
            }
        });
        (64 * scores) as f64 / secs
    };
    let replay = |noise: &NoiseModel, seed: u64| {
        let path = ExecutionPath::Replay;
        std::hint::black_box(
            run_with_noise_path(&transpiled, noise, 32, seed, &serial, path).unwrap(),
        );
    };
    metrics.push(Metric {
        name: "transpiled_canary_shots_per_sec",
        unit: "shots/s",
        baseline: shots_per_sec(&|ideal_seed, noisy_seed| {
            replay(&ideal, ideal_seed);
            replay(&transpiled_noise, noisy_seed);
        }),
        current: shots_per_sec(&|ideal_seed, noisy_seed| {
            let noise = &transpiled_noise;
            let pair = run_paired(&transpiled, noise, 32, ideal_seed, noisy_seed, &serial);
            std::hint::black_box(pair.unwrap());
        }),
        note: "carol's 6q circuit transpiled to cedar's line and deflated, scored \
               as the meta server does: one run_paired, 32 ideal + 32 noisy \
               shots from one plan, serial, set-up included; baseline forces \
               two per-shot replay runs, which every transpiled circuit used to \
               fall back to",
    });

    // --- 5b. Statevector gate fusion --------------------------------------------------------
    let fusion = fusion_circuit(16, 6);
    let fusion_gates = fusion.instructions().len();
    let baseline_secs = best_of(reps, || {
        let mut sv = StateVector::new(16).unwrap();
        for inst in fusion.instructions() {
            sv.apply_gate(&inst.gate, &inst.qubits).unwrap();
        }
        std::hint::black_box(&sv);
    });
    let current_secs = best_of(reps, || {
        let mut sv = StateVector::new(16).unwrap();
        sv.apply_circuit(&fusion).unwrap();
        std::hint::black_box(&sv);
    });
    metrics.push(Metric {
        name: "statevector_fusion_gates_per_sec",
        unit: "gates/s",
        baseline: fusion_gates as f64 / baseline_secs,
        current: fusion_gates as f64 / current_secs,
        note: "16q dense circuit of Euler-angle runs and CZ*CP chains; baseline \
               applies each gate as its own pass, current fuses adjacent 1q \
               gates into one 2x2 matrix and commuting diagonal pairs into one \
               phase table (fusion cost included)",
    });

    // --- 6. Pattern-graph dedup + VF2 embedding search --------------------------------------
    let n = if smoke { 80 } else { 140 };
    let mut dense_edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            dense_edges.push((a, b));
            dense_edges.push((b, a));
        }
    }
    let baseline_secs = best_of(reps, || {
        std::hint::black_box(naive::quadratic_edge_dedup(n, &dense_edges));
    });
    let current_secs = best_of(reps, || {
        std::hint::black_box(PatternGraph::new(n, &dense_edges));
    });
    metrics.push(Metric {
        name: "pattern_graph_dedup_edges_per_sec",
        unit: "edges/s",
        baseline: dense_edges.len() as f64 / baseline_secs,
        current: dense_edges.len() as f64 / current_secs,
        note: "dense fully-connected pattern, every edge in both orientations; \
               baseline is the seed O(E^2) Vec::contains scan",
    });

    let pattern = PatternGraph::new(8, &topology::ring(8).edges());
    let device = topology::grid(6, 6);
    let embed_secs = best_of(reps, || {
        std::hint::black_box(find_embeddings(&pattern, &device, SearchOptions::default()));
    });
    metrics.push(Metric {
        name: "embedding_search_seconds",
        unit: "s",
        baseline: embed_secs,
        current: embed_secs,
        note: "ring-8 into grid-6x6, default search budget (tracking metric, \
               search algorithm unchanged this PR)",
    });

    // --- Report -----------------------------------------------------------------------------
    let threads = ParallelConfig::auto().effective_threads();
    println!(
        "bench_sim ({} mode, auto = {} threads)",
        if smoke { "smoke" } else { "full" },
        threads
    );
    let rows: Vec<(String, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                format!(
                    "{:.0} -> {:.0} {} ({:.1}x)",
                    m.baseline,
                    m.current,
                    m.unit,
                    m.speedup()
                ),
            )
        })
        .collect();
    for (name, value) in &rows {
        println!("  {name:<44} {value}");
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"bench_sim\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"auto_threads\": {threads},");
    let _ = writeln!(json, "  \"shots\": {shots},");
    let _ = writeln!(
        json,
        "  \"baseline\": \"seed implementations (Vec<bool> tableau replay, O(2^n) \
         linear-scan sampling, O(E^2) dedup) measured in-process\","
    );
    json.push_str("  \"metrics\": {\n");
    for (index, metric) in metrics.iter().enumerate() {
        let _ = writeln!(json, "    \"{}\": {{", metric.name);
        let _ = writeln!(json, "      \"unit\": \"{}\",", metric.unit);
        let _ = writeln!(json, "      \"baseline\": {:.3},", metric.baseline);
        let _ = writeln!(json, "      \"current\": {:.3},", metric.current);
        let _ = writeln!(json, "      \"speedup\": {:.3},", metric.speedup());
        let _ = writeln!(json, "      \"note\": \"{}\"", metric.note);
        let comma = if index + 1 == metrics.len() { "" } else { "," };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("cannot write BENCH_sim.json");
    println!("wrote {out_path}");

    // Self-check the acceptance thresholds so CI fails loudly on regression.
    let canary_speedup = metrics[0].speedup();
    let sampling_speedup = metrics
        .iter()
        .find(|m| m.name == "statevector_sampling_20q_samples_per_sec")
        .map(Metric::speedup)
        .unwrap_or(0.0);
    let noisy_speedup = metrics
        .iter()
        .find(|m| m.name == "noisy_stabilizer_shots_per_sec")
        .map(Metric::speedup)
        .unwrap_or(0.0);
    if !smoke {
        assert!(
            canary_speedup >= 10.0,
            "Clifford-canary shot loop speedup {canary_speedup:.1}x is below the 10x floor"
        );
        assert!(
            sampling_speedup >= 5.0,
            "statevector sampling speedup {sampling_speedup:.1}x is below the 5x floor"
        );
        assert!(
            noisy_speedup >= 10.0,
            "noisy stabilizer (Pauli-frame) speedup {noisy_speedup:.1}x is below the 10x floor"
        );
    }
}
