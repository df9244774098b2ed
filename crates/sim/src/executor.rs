//! Circuit execution: shot sampling on ideal or noisy simulated devices.
//!
//! The executor plays the role of Qiskit Aer in the paper's stack: given a
//! circuit (and optionally a backend-derived [`NoiseModel`]), produce
//! measurement [`Counts`]. It automatically picks the stabilizer engine for
//! Clifford circuits (scalable, used for the Clifford canaries) and the dense
//! statevector engine otherwise (exact, used by the Oracle baseline).
//!
//! # Throughput
//!
//! Three layers of optimisation keep the shot loop fast:
//!
//! * **Pauli-frame batched shots for Clifford circuits.** The stabilizer
//!   engine has two paths, the plan and replay. When the circuit is Clifford
//!   with terminal measurements, noisy or ideal, a [`FramePlan`] compiles the
//!   ideal tableau, the symbolic collapse of every measurement and the noise
//!   sites once; each shot then propagates only an n-qubit Pauli frame (two
//!   `u64` masks per 64 qubits) and draws from the RNG in the exact order of
//!   the replay path — byte-identical histograms, orders of magnitude less
//!   work. Under an ideal model a shot draws one coin per random outcome and
//!   nothing else, as a tableau collapsed afresh per shot would. A circuit
//!   the plan cannot take (below, or more than 64 random outcomes) is
//!   replayed.
//!
//!   "Terminal" is a property of the qubit, not of the program text: for the
//!   stabilizer engine a measurement is terminal when nothing but a barrier
//!   or another measurement touches its qubit afterwards ([`forces_replay`]
//!   names the first instruction that breaks this; the analyzer reports it
//!   as lint QL0008). A transpiled circuit routinely ends with a fused `u3`
//!   on an idle qubit *after* the measurement block; that measurement
//!   commutes with the gate, so the circuit stays on the one-pass paths. A
//!   `Reset`, or work on a measured qubit, falls back to per-shot replay.
//! * **The statevector engine's ideal fast path.** When the noise model is
//!   ideal and nothing but measurements and barriers follows the first
//!   measurement, the circuit is applied **once** and each shot samples a
//!   precomputed [`CumulativeDistribution`] by binary search (O(n) per shot
//!   instead of O(2^n)). It keeps this stricter program-order rule
//!   (`measurements_end_the_program`), because there the rule decides how
//!   many numbers a shot draws.
//! * **Deterministic parallel shards.** Shots are split into fixed-size
//!   shards; shard `s` runs on its own `StdRng` seeded with
//!   `seed + s`, and shard histograms merge commutatively. The shard
//!   structure depends only on the shot count — never on the thread count —
//!   so a run is bit-reproducible whether it executes on 1 thread or 16.
//!   [`ParallelConfig`] selects the worker count; the default uses the
//!   machine's available parallelism (capped) with `std::thread::scope`.
//!
//! Everything else is per-shot replay, and there is one walker for it:
//! `replay_shot` drives either engine through the two calls it needs (apply a
//! gate, measure a qubit), so gate noise, reset (measure, then X if set, then
//! the reset pulse's own error) and readout flips are written once and cannot
//! differ between the stabilizer and the statevector engine. On every path a
//! circuit without measurements is measured exactly as if `measure_all` had
//! been appended: qubit `q` into bit `q`, readout noise included.
//!
//! A run is two steps: a private *prepare* (the checks, the engine, the mode
//! above, built once) and a private *sample* (the sharded shot loop, the one
//! loop every mode runs in). A fidelity estimate needs a circuit twice,
//! noise-free and noisy; [`run_paired`] prepares it once and samples both
//! halves, the ideal one from the noisy plan with its noise taken out. Because
//! consecutive seeds own consecutive shard streams, the two seeds of a pair
//! should be [`SEED_STREAM_STRIDE`] apart rather than 1, so the pair never
//! shares a shard stream.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use qrio_backend::Backend;
use qrio_circuit::{Circuit, Gate, Instruction};

use crate::counts::Counts;
use crate::error::SimulatorError;
use crate::frame::FramePlan;
use crate::noise::NoiseModel;
use crate::stabilizer::StabilizerSimulator;
use crate::statevector::{CumulativeDistribution, StateVector, MAX_STATEVECTOR_QUBITS};

/// Default number of shots used across the experiments when the caller does
/// not specify one.
pub const DEFAULT_SHOTS: u64 = 1024;

/// Shots per execution shard. Each shard owns an independent RNG stream
/// seeded `seed + shard_index`, so the histogram depends only on `(circuit,
/// noise, shots, seed)` — not on how shards are spread over threads.
const SHARD_SHOTS: u64 = 64;

/// Seed offset callers should use to separate *paired* runs (e.g. the ideal
/// and noisy halves of a fidelity estimate). Shard `s` of a run seeds its RNG
/// with `seed + s`; two runs whose base seeds differ by less than the shard
/// count would share shard streams. `SEED_STREAM_STRIDE` leaves room for
/// ~2^32 shards (≈ 274 billion shots) per run.
pub const SEED_STREAM_STRIDE: u64 = 1 << 32;

/// Largest worker count [`ParallelConfig::auto`] will pick on big machines.
const MAX_AUTO_THREADS: usize = 8;

/// Hard ceiling on explicit worker counts. Job specs travel as YAML, so a
/// typo'd (or hostile) `threads: 100000` must not translate into an attempt
/// to spawn 100 000 OS threads on the node.
const MAX_THREADS: usize = 64;

/// Memory budget for the statevector *replay* path, in amplitudes: each
/// worker owns a full `2^n` state there, so workers are additionally capped
/// to `MAX_REPLAY_AMPLITUDES >> n` (≈ 512 MiB of `Complex64` total).
const MAX_REPLAY_AMPLITUDES: usize = 1 << 25;

/// Worker-thread configuration for shot execution.
///
/// The thread count changes *wall-clock time only*: results are
/// bit-reproducible across any thread count at a fixed seed, because the
/// RNG shard structure is derived from the shot count alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Requested worker threads; `0` means auto-detect.
    threads: usize,
}

impl ParallelConfig {
    /// Auto-detect: use the machine's available parallelism, capped at 8.
    pub fn auto() -> Self {
        ParallelConfig { threads: 0 }
    }

    /// Single-threaded execution (still sharded, so results match any other
    /// thread count).
    pub fn serial() -> Self {
        ParallelConfig { threads: 1 }
    }

    /// An explicit worker count; `0` behaves like [`ParallelConfig::auto`].
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads }
    }

    /// The raw configured value (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The concrete worker count this configuration resolves to. Explicit
    /// counts are clamped to a hard ceiling of 64, since specs arrive as
    /// YAML and a runaway `threads:` value must not exhaust the node.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(MAX_AUTO_THREADS),
            n => n.min(MAX_THREADS),
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::auto()
    }
}

/// Which simulation engine executed a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// CHP stabilizer tableau (Clifford-only, scales to hundreds of qubits).
    Stabilizer,
    /// Dense statevector (any gate set, limited qubit count).
    Statevector,
}

/// Select the engine for a circuit: stabilizer when the circuit is Clifford,
/// statevector otherwise.
///
/// # Errors
///
/// Returns an error if the circuit is non-Clifford **and** too large for the
/// statevector engine.
pub fn select_engine(circuit: &Circuit) -> Result<Engine, SimulatorError> {
    if circuit.is_clifford() {
        Ok(Engine::Stabilizer)
    } else if circuit.num_qubits() <= MAX_STATEVECTOR_QUBITS {
        Ok(Engine::Statevector)
    } else {
        Err(SimulatorError::TooManyQubits {
            requested: circuit.num_qubits(),
            limit: MAX_STATEVECTOR_QUBITS,
        })
    }
}

/// Run a circuit without noise, with the default [`ParallelConfig`].
///
/// # Errors
///
/// Returns an error for unsupported circuits (non-Clifford beyond the
/// statevector limit) or zero shots.
pub fn run_ideal(circuit: &Circuit, shots: u64, seed: u64) -> Result<Counts, SimulatorError> {
    run_ideal_parallel(circuit, shots, seed, &ParallelConfig::default())
}

/// Run a circuit without noise under an explicit [`ParallelConfig`].
///
/// # Errors
///
/// Returns an error for unsupported circuits or zero shots.
pub fn run_ideal_parallel(
    circuit: &Circuit,
    shots: u64,
    seed: u64,
    parallel: &ParallelConfig,
) -> Result<Counts, SimulatorError> {
    run_with_noise_parallel(
        circuit,
        &NoiseModel::ideal(circuit.num_qubits()),
        shots,
        seed,
        parallel,
    )
}

/// Run a circuit with a noise model derived from `backend`, with the default
/// [`ParallelConfig`].
///
/// The circuit is expected to already be expressed over the backend's physical
/// qubits (i.e. transpiled); un-calibrated qubit pairs fall back to the
/// device-average two-qubit error.
///
/// # Errors
///
/// Returns an error for unsupported circuits or zero shots.
pub fn run_on_backend(
    circuit: &Circuit,
    backend: &Backend,
    shots: u64,
    seed: u64,
) -> Result<Counts, SimulatorError> {
    run_with_noise(circuit, &NoiseModel::from_backend(backend), shots, seed)
}

/// Run a circuit with a backend-derived noise model under an explicit
/// [`ParallelConfig`].
///
/// # Errors
///
/// Returns an error for unsupported circuits or zero shots.
pub fn run_on_backend_parallel(
    circuit: &Circuit,
    backend: &Backend,
    shots: u64,
    seed: u64,
    parallel: &ParallelConfig,
) -> Result<Counts, SimulatorError> {
    run_with_noise_parallel(
        circuit,
        &NoiseModel::from_backend(backend),
        shots,
        seed,
        parallel,
    )
}

/// Run a circuit under an explicit noise model, with the default
/// [`ParallelConfig`].
///
/// # Errors
///
/// Returns an error for unsupported circuits or zero shots.
pub fn run_with_noise(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    seed: u64,
) -> Result<Counts, SimulatorError> {
    run_with_noise_parallel(circuit, noise, shots, seed, &ParallelConfig::default())
}

/// Which per-shot strategy [`run_with_noise_path`] should use for a
/// stabilizer-engine circuit. The paths are byte-identical where they
/// overlap — [`ExecutionPath::Frame`] and [`ExecutionPath::Replay`] draw from
/// the RNG in the same order — so forcing one is only useful for
/// differential testing and benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionPath {
    /// Pick automatically: the Pauli-frame path when eligible (noisy or
    /// ideal), the statevector engine's ideal fast path, else per-shot
    /// replay.
    #[default]
    Auto,
    /// Force per-shot replay (full tableau / statevector rebuild per shot).
    Replay,
    /// Force the Pauli-frame batched-shot path. Errors when the circuit is
    /// not frame-eligible (non-Clifford, a reset or work on a measured qubit,
    /// or more than 64 random-outcome measurements).
    Frame,
}

/// The per-run execution mode, prepared once and shared by every shard.
enum Prepared {
    /// Clifford circuit whose measurements are terminal, noisy or ideal:
    /// propagate an n-qubit Pauli frame per shot through a precompiled
    /// [`FramePlan`] (byte-identical to replay, orders of magnitude faster).
    StabilizerFrame(FramePlan),
    /// General stabilizer path: replay the circuit per shot (what
    /// [`forces_replay`] names, or >64 random-outcome measurements).
    StabilizerReplay,
    /// Ideal terminal-measurement dense circuit: sample the precomputed
    /// cumulative distribution per shot.
    StatevectorFast {
        table: CumulativeDistribution,
        mapping: Vec<(usize, usize)>,
    },
    /// General statevector path: replay the circuit per shot.
    StatevectorReplay,
}

/// Run a circuit under an explicit noise model and [`ParallelConfig`].
///
/// Shots are split into fixed-size shards; shard `s` draws from
/// `StdRng::seed_from_u64(seed + s)` and shard histograms are merged
/// commutatively, so the result is identical for every thread count.
///
/// # Errors
///
/// Returns an error for unsupported circuits or zero shots. When several
/// shards fail, the error of the lowest-numbered shard is returned
/// (deterministic regardless of scheduling).
pub fn run_with_noise_parallel(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    seed: u64,
    parallel: &ParallelConfig,
) -> Result<Counts, SimulatorError> {
    run_with_noise_path(circuit, noise, shots, seed, parallel, ExecutionPath::Auto)
}

/// [`run_with_noise_parallel`] with an explicit [`ExecutionPath`], for
/// differential testing and benchmarking of the per-shot strategies.
///
/// # Errors
///
/// As [`run_with_noise_parallel`]; additionally, [`ExecutionPath::Frame`]
/// errors when the circuit is not frame-eligible.
pub fn run_with_noise_path(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    seed: u64,
    parallel: &ParallelConfig,
    path: ExecutionPath,
) -> Result<Counts, SimulatorError> {
    let prepared = prepare(circuit, noise, shots, path)?;
    sample(circuit, noise, &prepared, shots, seed, parallel)
}

/// Run a circuit twice from one preparation: noise-free at `ideal_seed` and
/// under `noise` at `noisy_seed`, returning `(ideal, noisy)` — the pair a
/// fidelity estimate compares. Each half is byte-identical to its own run
/// ([`run_with_noise_parallel`] under [`NoiseModel::ideal`] at `ideal_seed`,
/// under `noise` at `noisy_seed`); a frame-eligible circuit builds its
/// [`FramePlan`] once and samples the ideal half from the same plan with the
/// noise taken out. Separate the seeds by [`SEED_STREAM_STRIDE`].
///
/// # Errors
///
/// Returns an error for unsupported circuits or zero shots. The two halves
/// refuse the same circuits; the error returned is the noisy half's.
pub fn run_paired(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    ideal_seed: u64,
    noisy_seed: u64,
    parallel: &ParallelConfig,
) -> Result<(Counts, Counts), SimulatorError> {
    let ideal_model = NoiseModel::ideal(circuit.num_qubits());
    let noisy = prepare(circuit, noise, shots, ExecutionPath::Auto)?;
    let ideal = match &noisy {
        Prepared::StabilizerFrame(plan) => Prepared::StabilizerFrame(plan.without_noise()),
        // Frame eligibility does not depend on the noise model.
        Prepared::StabilizerReplay => Prepared::StabilizerReplay,
        Prepared::StatevectorFast { .. } | Prepared::StatevectorReplay => {
            prepare(circuit, &ideal_model, shots, ExecutionPath::Auto)?
        }
    };
    let noisy = sample(circuit, noise, &noisy, shots, noisy_seed, parallel)?;
    let ideal = sample(circuit, &ideal_model, &ideal, shots, ideal_seed, parallel)?;
    Ok((ideal, noisy))
}

/// The checks and the per-run work of a run: shot count and outcome
/// register, engine, then the mode `path` and `noise` call for.
fn prepare(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    path: ExecutionPath,
) -> Result<Prepared, SimulatorError> {
    if shots == 0 {
        return Err(SimulatorError::InvalidParameter(
            "shots must be >= 1".into(),
        ));
    }
    validate_outcome_register(circuit)?;
    Ok(match select_engine(circuit)? {
        Engine::Stabilizer => match path {
            ExecutionPath::Replay => Prepared::StabilizerReplay,
            ExecutionPath::Auto | ExecutionPath::Frame => match FramePlan::build(circuit, noise)? {
                Some(plan) => Prepared::StabilizerFrame(plan),
                None if path == ExecutionPath::Frame => {
                    return Err(SimulatorError::Unsupported(
                        "circuit is not eligible for the Pauli-frame path \
                             (reset, work on a measured qubit, or >64 random measurements)"
                            .into(),
                    ));
                }
                None => Prepared::StabilizerReplay,
            },
        },
        Engine::Statevector
            if path == ExecutionPath::Auto
                && noise.is_ideal()
                && measurements_end_the_program(circuit) =>
        {
            let mut state = StateVector::new(circuit.num_qubits())?;
            state.apply_circuit(circuit)?;
            Prepared::StatevectorFast {
                table: state.cumulative_distribution(),
                mapping: measurement_mapping(circuit),
            }
        }
        Engine::Statevector if path == ExecutionPath::Frame => {
            return Err(SimulatorError::Unsupported(
                "the Pauli-frame path requires the stabilizer engine (Clifford circuit)".into(),
            ));
        }
        Engine::Statevector => Prepared::StatevectorReplay,
    })
}

/// The one shot loop: `shots` shots of a prepared run, sharded and seeded
/// from `seed` (see [`run_with_noise_parallel`]).
fn sample(
    circuit: &Circuit,
    noise: &NoiseModel,
    prepared: &Prepared,
    shots: u64,
    seed: u64,
    parallel: &ParallelConfig,
) -> Result<Counts, SimulatorError> {
    let num_bits = effective_num_bits(circuit);
    let shard_count = shots.div_ceil(SHARD_SHOTS);
    let run_shard = |shard: u64| -> Result<Counts, SimulatorError> {
        let first = shard * SHARD_SHOTS;
        let shard_shots = SHARD_SHOTS.min(shots - first);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(shard));
        let mut counts = Counts::new(num_bits);
        let mut frame_scratch = match prepared {
            Prepared::StabilizerFrame(plan) => plan.scratch(),
            _ => Vec::new(),
        };
        for _ in 0..shard_shots {
            let outcome = match prepared {
                Prepared::StabilizerFrame(plan) => plan.run_shot(&mut rng, &mut frame_scratch),
                Prepared::StabilizerReplay => replay_shot(
                    StabilizerSimulator::new(circuit.num_qubits()),
                    circuit,
                    noise,
                    &mut rng,
                )?,
                Prepared::StatevectorFast { table, mapping } => {
                    map_outcome(table.sample(&mut rng), mapping)
                }
                Prepared::StatevectorReplay => replay_shot(
                    StateVector::new(circuit.num_qubits())?,
                    circuit,
                    noise,
                    &mut rng,
                )?,
            };
            counts.record(outcome);
        }
        Ok(counts)
    };

    // The statevector replay path allocates one full 2^n state per worker;
    // bound the aggregate footprint so eight 24-qubit replays cannot pile up
    // 2 GiB where the serial loop used 256 MiB.
    let memory_cap = match prepared {
        Prepared::StatevectorReplay => (MAX_REPLAY_AMPLITUDES >> circuit.num_qubits()).max(1),
        _ => usize::MAX,
    };
    // One shard can only ever use one worker, so do not ask the OS how many
    // there are (`available_parallelism` is a syscall plus cgroup file reads).
    let threads = if shard_count > 1 {
        parallel.effective_threads()
    } else {
        1
    };
    let workers = threads.max(1).min(shard_count as usize).min(memory_cap);
    let results: Vec<Result<Counts, SimulatorError>> = if workers <= 1 {
        (0..shard_count).map(run_shard).collect()
    } else {
        let next = AtomicU64::new(0);
        let run_shard = &run_shard;
        let mut slots: Vec<Option<Result<Counts, SimulatorError>>> = Vec::new();
        slots.resize_with(shard_count as usize, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let shard = next.fetch_add(1, Ordering::Relaxed);
                            if shard >= shard_count {
                                break;
                            }
                            local.push((shard, run_shard(shard)));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                let batch = handle.join().expect("shard worker panicked");
                for (shard, result) in batch {
                    slots[shard as usize] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every shard index was claimed by a worker"))
            .collect()
    };

    let mut counts = Counts::new(num_bits);
    for result in results {
        counts.merge(&result?);
    }
    Ok(counts)
}

/// The classical register width used for recorded outcomes.
fn effective_num_bits(circuit: &Circuit) -> usize {
    if circuit.measurement_count() > 0 {
        circuit.num_clbits().max(1)
    } else {
        circuit.num_qubits().max(1)
    }
}

/// Measurement map `qubit -> clbit`; when the circuit has no measurements,
/// every qubit is implicitly measured into the same-numbered bit, exactly as
/// if `measure_all` had been appended.
pub(crate) fn measurement_mapping(circuit: &Circuit) -> Vec<(usize, usize)> {
    let mut mapping = Vec::new();
    for inst in circuit.instructions() {
        if inst.gate == Gate::Measure {
            mapping.push((inst.qubits[0], inst.clbits[0]));
        }
    }
    if mapping.is_empty() {
        mapping = (0..circuit.num_qubits()).map(|q| (q, q)).collect();
    }
    mapping
}

fn map_outcome(basis_state: u64, mapping: &[(usize, usize)]) -> u64 {
    let mut outcome = 0u64;
    for &(qubit, clbit) in mapping {
        record_bit(&mut outcome, clbit, (basis_state >> qubit) & 1 == 1);
    }
    outcome
}

/// The one write into the outcome register, on every path: a later
/// measurement into the same classical bit replaces the earlier value.
pub(crate) fn record_bit(outcome: &mut u64, clbit: usize, bit: bool) {
    if bit {
        *outcome |= 1 << clbit;
    } else {
        *outcome &= !(1 << clbit);
    }
}

/// Width of the packed `u64` outcome register every shot loop writes into.
const OUTCOME_REGISTER_BITS: usize = 64;

/// Reject circuits whose outcomes cannot be packed into the 64-bit outcome
/// register: an explicit measurement into classical bit ≥ 64, or a
/// measurement-free circuit (implicitly measured qubit-per-bit) wider than
/// 64 qubits. Validated up front so the shot loops never evaluate
/// `1 << bit` with `bit >= 64` — a panic in debug builds and a silent wrap
/// in release builds.
fn validate_outcome_register(circuit: &Circuit) -> Result<(), SimulatorError> {
    let mut any_measure = false;
    for inst in circuit.instructions() {
        if inst.gate == Gate::Measure {
            any_measure = true;
            if inst.clbits[0] >= OUTCOME_REGISTER_BITS {
                return Err(SimulatorError::ClassicalBitOutOfRange {
                    bit: inst.clbits[0],
                    limit: OUTCOME_REGISTER_BITS,
                });
            }
        }
    }
    if !any_measure && circuit.num_qubits() > OUTCOME_REGISTER_BITS {
        return Err(SimulatorError::ClassicalBitOutOfRange {
            bit: circuit.num_qubits() - 1,
            limit: OUTCOME_REGISTER_BITS,
        });
    }
    Ok(())
}

/// The first instruction that forces a Clifford circuit off the one-pass
/// Pauli-frame path onto per-shot replay: a `Reset` anywhere, or any
/// operation other than a barrier or another measurement on a qubit that has
/// already been measured, which makes that measurement mid-circuit. `None`
/// means every measurement is terminal: a measurement commutes with every
/// later gate that does not touch its qubit, so work on *other* qubits after
/// it — the idle-qubit `u3` a transpiled circuit ends with — forces nothing.
/// This is the structural half of frame eligibility, written once — only
/// [`FramePlan::build`] branches on it, the analyzer's `QL0008` names what it
/// returns; the other half is that the circuit is Clifford with at most 64
/// random-outcome measurements.
pub fn forces_replay(circuit: &Circuit) -> Option<(usize, &Instruction)> {
    let mut measured = vec![false; circuit.num_qubits()];
    for (index, inst) in circuit.instructions().iter().enumerate() {
        match inst.gate {
            Gate::Measure => measured[inst.qubits[0]] = true,
            Gate::Reset => return Some((index, inst)),
            Gate::Barrier => {}
            _ if inst.qubits.iter().any(|&q| measured[q]) => return Some((index, inst)),
            _ => {}
        }
    }
    None
}

/// The statevector engine's ideal fast path is taken only when no `Reset`
/// occurs and nothing but barriers and measurements follows the first
/// measurement *in program order*. It may not follow [`forces_replay`]'s
/// per-qubit rule: the fast path draws one number a shot where replay draws
/// one per measured qubit, so which circuits take it decides every histogram
/// byte of every committed report (`dense_fast_path_rule_is_frozen` pins it).
fn measurements_end_the_program(circuit: &Circuit) -> bool {
    let gates = circuit.instructions().iter().map(|inst| inst.gate);
    let no_reset = gates.clone().all(|gate| gate != Gate::Reset);
    let mut from_first_measure = gates.skip_while(|gate| *gate != Gate::Measure);
    no_reset && from_first_measure.all(|gate| gate.is_directive())
}

/// What [`replay_shot`] needs of an engine: apply a gate, measure a qubit.
trait ShotEngine {
    fn gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimulatorError>;
    fn measure(&mut self, qubit: usize, rng: &mut StdRng) -> bool;
}

impl ShotEngine for StabilizerSimulator {
    #[inline]
    fn gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimulatorError> {
        self.apply_gate(gate, qubits)
    }
    #[inline]
    fn measure(&mut self, qubit: usize, rng: &mut StdRng) -> bool {
        StabilizerSimulator::measure(self, qubit, rng)
    }
}

impl ShotEngine for StateVector {
    #[inline]
    fn gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimulatorError> {
        self.apply_gate(gate, qubits)
    }
    #[inline]
    fn measure(&mut self, qubit: usize, rng: &mut StdRng) -> bool {
        self.measure_qubit(qubit, rng)
    }
}

/// The one per-shot walker: replay `circuit` on a fresh `engine`, injecting
/// `noise` after every gate and reset and flipping every readout. A circuit
/// without measurements is measured exactly as if `measure_all` had been
/// appended — qubit-per-bit, readout noise included — on either engine.
fn replay_shot<E: ShotEngine>(
    mut engine: E,
    circuit: &Circuit,
    noise: &NoiseModel,
    rng: &mut StdRng,
) -> Result<u64, SimulatorError> {
    let mut outcome = 0u64;
    let mut measure = |engine: &mut E, rng: &mut StdRng, qubit: usize, clbit: usize| {
        let raw = engine.measure(qubit, rng);
        record_bit(&mut outcome, clbit, noise.flip_readout(qubit, raw, rng));
    };
    let mut any_measure = false;
    for inst in circuit.instructions() {
        match inst.gate {
            Gate::Barrier => {}
            Gate::Measure => {
                any_measure = true;
                measure(&mut engine, rng, inst.qubits[0], inst.clbits[0]);
            }
            Gate::Reset => {
                // The internal collapse is not a classical readout, so no
                // readout flip — but the reset pulse itself carries the
                // qubit's single-qubit error (see `sample_reset_error`).
                if engine.measure(inst.qubits[0], rng) {
                    engine.gate(&Gate::X, &[inst.qubits[0]])?;
                }
                if let Some(pauli) = noise.sample_reset_error(inst.qubits[0], rng) {
                    engine.gate(&pauli.gate(), &[inst.qubits[0]])?;
                }
            }
            ref gate => {
                engine.gate(gate, &inst.qubits)?;
                for (q, pauli) in noise.sample_gate_errors(gate, &inst.qubits, rng) {
                    engine.gate(&pauli.gate(), &[q])?;
                }
            }
        }
    }
    if !any_measure {
        for q in 0..circuit.num_qubits() {
            measure(&mut engine, rng, q, q);
        }
    }
    Ok(outcome)
}

/// Convenience wrapper: fidelity of a circuit on a noisy backend relative to
/// its own noise-free execution, measured as Hellinger fidelity between the
/// two output distributions, from one [`run_paired`]. The noisy half runs
/// [`SEED_STREAM_STRIDE`] away from the ideal half so the two runs never
/// share a shard RNG stream.
///
/// # Errors
///
/// Propagates simulator errors from either run.
pub fn fidelity_on_backend(
    circuit: &Circuit,
    backend: &Backend,
    shots: u64,
    seed: u64,
) -> Result<f64, SimulatorError> {
    let (ideal, noisy) = run_paired(
        circuit,
        &NoiseModel::from_backend(backend),
        shots,
        seed,
        seed.wrapping_add(SEED_STREAM_STRIDE),
        &ParallelConfig::default(),
    )?;
    Ok(ideal.hellinger_fidelity(&noisy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::topology;
    use qrio_circuit::library;

    #[test]
    fn ideal_bv_returns_secret() {
        let secret = 0b1011001101u64;
        let circuit = library::bernstein_vazirani(10, secret).unwrap();
        let counts = run_ideal(&circuit, 256, 1).unwrap();
        assert_eq!(counts.most_frequent(), Some(secret));
        assert!((counts.success_probability(secret) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_grover_favours_marked_element() {
        let circuit = library::grover(3, 5).unwrap();
        let counts = run_ideal(&circuit, 2048, 2).unwrap();
        assert_eq!(counts.most_frequent(), Some(5));
        assert!(counts.success_probability(5) > 0.5);
    }

    #[test]
    fn ideal_ghz_is_bimodal() {
        let circuit = library::ghz(5).unwrap();
        let counts = run_ideal(&circuit, 1000, 3).unwrap();
        let all_ones = (1u64 << 5) - 1;
        let p = counts.probability(0) + counts.probability(all_ones);
        assert!(p > 0.999);
        assert!(counts.probability(0) > 0.35);
    }

    #[test]
    fn engine_selection() {
        let clifford = library::random_clifford_circuit(40, 4, 0).unwrap();
        assert_eq!(select_engine(&clifford).unwrap(), Engine::Stabilizer);
        let small = library::random_circuit(5, 3, 0).unwrap();
        assert_eq!(select_engine(&small).unwrap(), Engine::Statevector);
        let huge = library::random_circuit(30, 2, 0).unwrap();
        assert!(select_engine(&huge).is_err());
    }

    #[test]
    fn zero_shots_is_rejected() {
        let circuit = library::ghz(2).unwrap();
        assert!(run_ideal(&circuit, 0, 0).is_err());
    }

    #[test]
    fn noise_degrades_fidelity() {
        let circuit = library::ghz(4).unwrap();
        let noisy_backend = Backend::uniform("noisy", topology::line(4), 0.05, 0.2);
        let clean_backend = Backend::uniform("clean", topology::line(4), 0.0, 0.0);
        let f_noisy = fidelity_on_backend(&circuit, &noisy_backend, 512, 7).unwrap();
        let f_clean = fidelity_on_backend(&circuit, &clean_backend, 512, 7).unwrap();
        assert!(f_clean > 0.98, "clean fidelity was {f_clean}");
        assert!(
            f_noisy < f_clean,
            "noise should reduce fidelity ({f_noisy} vs {f_clean})"
        );
    }

    #[test]
    fn readout_noise_alone_flips_bits() {
        let mut circuit = Circuit::new(2, 2);
        circuit.measure_all().unwrap();
        let noise = NoiseModel::uniform(2, 0.0, 0.0, 1.0);
        let counts = run_with_noise(&circuit, &noise, 64, 5).unwrap();
        // Every readout is flipped, so we always observe |11>.
        assert_eq!(counts.get(0b11), 64);
    }

    #[test]
    fn clifford_and_statevector_agree_on_clifford_circuits() {
        // The repetition encoder is Clifford; force the statevector engine by
        // adding a harmless non-Clifford phase on an idle path.
        let clifford = library::repetition_code_encoder(4).unwrap();
        let counts_stab = run_ideal(&clifford, 4000, 11).unwrap();

        let mut nonclifford = library::repetition_code_encoder(4)
            .unwrap()
            .without_measurements();
        nonclifford.t(0).unwrap();
        nonclifford.tdg(0).unwrap();
        nonclifford.measure_all().unwrap();
        let counts_sv = run_ideal(&nonclifford, 4000, 11).unwrap();

        let fidelity = counts_stab.hellinger_fidelity(&counts_sv);
        assert!(fidelity > 0.98, "engines disagree: {fidelity}");
    }

    #[test]
    fn circuits_without_measurements_measure_everything() {
        let mut circuit = Circuit::new(3, 0);
        circuit.x(1).unwrap();
        let counts = run_ideal(&circuit, 16, 0).unwrap();
        assert_eq!(counts.most_frequent(), Some(0b010));
        let mut nonclifford = Circuit::new(2, 0);
        nonclifford.t(0).unwrap();
        nonclifford.x(1).unwrap();
        let counts = run_ideal(&nonclifford, 16, 0).unwrap();
        assert_eq!(counts.most_frequent(), Some(0b10));
    }

    #[test]
    fn a_circuit_without_measurements_runs_as_if_measure_all_were_appended() {
        // The two-line reproduction: certain readout flips reach both bits
        // on either engine (the statevector walker used to skip them).
        let flip_all = NoiseModel::uniform(2, 0.0, 0.0, 1.0);
        let mut clifford = Circuit::new(2, 0);
        clifford.x(0).unwrap();
        let mut dense = clifford.clone();
        dense.t(0).unwrap();
        for circuit in [&clifford, &dense] {
            let counts = run_with_noise(circuit, &flip_all, 32, 0).unwrap();
            assert_eq!(counts.iter().collect::<Vec<_>>(), [(0b10, 32)]);
        }

        // Histogram for histogram, on every path that accepts the circuit.
        let clifford = library::random_clifford_circuit(4, 3, 5)
            .unwrap()
            .without_measurements();
        let mut dense = clifford.clone();
        dense.t(2).unwrap();
        dense.h(2).unwrap();
        let mut cases = Vec::new();
        for base in [clifford, dense] {
            let mut with_reset = base.clone();
            with_reset.reset(1).unwrap();
            with_reset.h(1).unwrap();
            cases.extend([base, with_reset]);
        }
        let serial = ParallelConfig::serial();
        for implicit in &cases {
            let mut explicit = implicit.clone();
            explicit.measure_all().unwrap();
            for noise in [
                NoiseModel::ideal(4),
                NoiseModel::uniform(4, 0.01, 0.02, 0.3),
            ] {
                let mut compared = 0;
                for path in [
                    ExecutionPath::Auto,
                    ExecutionPath::Replay,
                    ExecutionPath::Frame,
                ] {
                    let run = |c: &Circuit| run_with_noise_path(c, &noise, 300, 9, &serial, path);
                    match (run(implicit), run(&explicit)) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "{path:?} diverged on {}", implicit.name());
                            compared += 1;
                        }
                        // Frame refuses both or neither.
                        (Err(_), Err(_)) => assert_eq!(path, ExecutionPath::Frame),
                        (a, b) => panic!("{path:?}: {a:?} vs {b:?}"),
                    }
                }
                assert!(compared >= 2);
            }
        }
    }

    #[test]
    fn reset_in_the_middle_works() {
        let mut circuit = Circuit::new(1, 1);
        circuit.x(0).unwrap();
        circuit.reset(0).unwrap();
        circuit.measure(0, 0).unwrap();
        let counts = run_ideal(&circuit, 32, 4).unwrap();
        assert_eq!(counts.get(0), 32);
        // Same for a non-Clifford variant.
        let mut circuit = Circuit::new(1, 1);
        circuit.t(0).unwrap();
        circuit.x(0).unwrap();
        circuit.reset(0).unwrap();
        circuit.measure(0, 0).unwrap();
        let counts = run_ideal(&circuit, 32, 4).unwrap();
        assert_eq!(counts.get(0), 32);
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let circuit = library::random_circuit(5, 4, 9).unwrap();
        let noise = NoiseModel::uniform(5, 0.02, 0.05, 0.02);
        let a = run_with_noise(&circuit, &noise, 200, 21).unwrap();
        let b = run_with_noise(&circuit, &noise, 200, 21).unwrap();
        assert_eq!(a, b);
        let c = run_with_noise(&circuit, &noise, 200, 22).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let clifford = library::random_clifford_circuit(12, 5, 3).unwrap();
        let noise = NoiseModel::uniform(12, 0.01, 0.05, 0.02);
        let serial =
            run_with_noise_parallel(&clifford, &noise, 600, 17, &ParallelConfig::serial()).unwrap();
        for threads in [2, 4, 8] {
            let parallel = run_with_noise_parallel(
                &clifford,
                &noise,
                600,
                17,
                &ParallelConfig::with_threads(threads),
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads={threads} diverged");
        }
    }

    #[test]
    fn parallel_config_resolves_threads() {
        assert_eq!(ParallelConfig::serial().effective_threads(), 1);
        assert_eq!(ParallelConfig::with_threads(3).effective_threads(), 3);
        assert_eq!(ParallelConfig::with_threads(3).threads(), 3);
        assert!(ParallelConfig::auto().effective_threads() >= 1);
        assert_eq!(ParallelConfig::default(), ParallelConfig::auto());
        // A hostile/typo'd YAML thread count is clamped, not obeyed.
        assert_eq!(
            ParallelConfig::with_threads(100_000).effective_threads(),
            64
        );
    }

    #[test]
    fn hostile_thread_counts_still_run_and_reproduce() {
        let circuit = library::ghz(4).unwrap();
        let sane = run_ideal_parallel(&circuit, 200, 7, &ParallelConfig::serial()).unwrap();
        let wild =
            run_ideal_parallel(&circuit, 200, 7, &ParallelConfig::with_threads(100_000)).unwrap();
        assert_eq!(sane, wild);
    }

    #[test]
    fn reset_carries_single_qubit_noise_in_both_engines() {
        // Regression: reset used to be the only silently ideal operation in
        // a noisy circuit. With a certain single-qubit error, the reset
        // pulse faults with X/Y/Z uniformly, so outcomes are no longer
        // always |0>.
        let mut clifford = Circuit::new(1, 1);
        clifford.reset(0).unwrap();
        clifford.measure(0, 0).unwrap();
        let noisy = NoiseModel::uniform(1, 1.0, 0.0, 0.0);
        let counts = run_with_noise(&clifford, &noisy, 600, 41).unwrap();
        // X and Y faults (2/3 of draws) flip the reset qubit.
        assert!(
            counts.get(1) > 300,
            "stabilizer reset stayed ideal: {counts:?}"
        );
        let counts = run_with_noise(&clifford, &NoiseModel::ideal(1), 64, 41).unwrap();
        assert_eq!(counts.get(0), 64);

        // Same through the statevector engine (forced by a T·T† identity).
        let mut dense = Circuit::new(1, 1);
        dense.t(0).unwrap();
        dense.tdg(0).unwrap();
        dense.reset(0).unwrap();
        dense.measure(0, 0).unwrap();
        let counts = run_with_noise(&dense, &noisy, 600, 43).unwrap();
        assert!(
            counts.get(1) > 150,
            "statevector reset stayed ideal: {counts:?}"
        );
        let counts = run_with_noise(&dense, &NoiseModel::ideal(1), 64, 43).unwrap();
        assert_eq!(counts.get(0), 64);
    }

    #[test]
    fn classical_bits_beyond_outcome_register_are_rejected() {
        // Explicit measurement into bit 65 would shift past the u64 register.
        let mut wide = Circuit::new(70, 70);
        wide.h(0).unwrap();
        wide.measure(65, 65).unwrap();
        assert!(matches!(
            run_ideal(&wide, 16, 0),
            Err(SimulatorError::ClassicalBitOutOfRange { bit: 65, limit: 64 })
        ));

        // Measurement-free circuits implicitly measure every qubit.
        let mut implicit = Circuit::new(70, 0);
        implicit.x(0).unwrap();
        assert!(matches!(
            run_ideal(&implicit, 16, 0),
            Err(SimulatorError::ClassicalBitOutOfRange { bit: 69, limit: 64 })
        ));

        // A wide circuit measuring into low classical bits is fine.
        let mut ok = Circuit::new(70, 2);
        ok.h(0).unwrap();
        ok.cx(0, 69).unwrap();
        ok.measure(0, 0).unwrap();
        ok.measure(69, 1).unwrap();
        let counts = run_ideal(&ok, 64, 1).unwrap();
        assert_eq!(counts.get(0b00) + counts.get(0b11), 64);
    }

    #[test]
    fn forced_frame_path_rejects_ineligible_circuits() {
        let mut mid = Circuit::new(1, 1);
        mid.x(0).unwrap();
        mid.reset(0).unwrap();
        mid.measure(0, 0).unwrap();
        let noise = NoiseModel::uniform(1, 0.01, 0.0, 0.0);
        assert!(matches!(
            run_with_noise_path(
                &mid,
                &noise,
                16,
                0,
                &ParallelConfig::serial(),
                ExecutionPath::Frame
            ),
            Err(SimulatorError::Unsupported(_))
        ));
        // Auto falls back to replay and still runs.
        assert!(run_with_noise_path(
            &mid,
            &noise,
            16,
            0,
            &ParallelConfig::serial(),
            ExecutionPath::Auto
        )
        .is_ok());
    }

    #[test]
    fn a_reused_classical_bit_keeps_the_later_write_on_every_path() {
        // q0 reads 1, q1 reads 0, both into c0: the later write wins. The
        // ideal fast paths used to OR the two bits together.
        let mut clifford = Circuit::new(2, 1);
        clifford.x(0).unwrap();
        let mut dense = clifford.clone();
        dense.t(1).unwrap();
        for circuit in [&mut clifford, &mut dense] {
            circuit.measure(0, 0).unwrap();
            circuit.measure(1, 0).unwrap();
            let run = |path| {
                let (ideal, serial) = (NoiseModel::ideal(2), ParallelConfig::serial());
                run_with_noise_path(circuit, &ideal, 32, 0, &serial, path).unwrap()
            };
            let replay = run(ExecutionPath::Replay);
            assert_eq!(replay.iter().collect::<Vec<_>>(), [(0, 32)]);
            let engine = select_engine(circuit).unwrap();
            assert_eq!(run(ExecutionPath::Auto), replay, "{engine:?}");
        }
    }

    #[test]
    fn only_work_on_a_measured_qubit_forces_replay() {
        let mut circuit = Circuit::new(3, 3);
        circuit.h(0).unwrap();
        circuit.measure(0, 0).unwrap();
        circuit.cx(1, 2).unwrap(); // other qubits: nothing forced
        circuit.barrier(&[]).unwrap();
        circuit.measure(0, 1).unwrap(); // a repeated measure neither
        assert_eq!(forces_replay(&circuit), None);
        // ... while the dense engine's program-order rule already says no.
        assert!(!measurements_end_the_program(&circuit));

        circuit.measure(1, 2).unwrap();
        circuit.cx(2, 1).unwrap();
        let (index, inst) = forces_replay(&circuit).expect("q1 was measured");
        assert_eq!((index, inst.gate), (6, Gate::CX));

        let mut reset = Circuit::new(2, 2);
        reset.reset(1).unwrap();
        reset.measure_all().unwrap();
        assert_eq!(forces_replay(&reset).map(|(index, _)| index), Some(0));
        assert!(!measurements_end_the_program(&reset));
    }

    /// The stabilizer engine's ideal fast path before the plan took ideal
    /// circuits too, in the executor's shards: apply the circuit once, then
    /// per shot clone the tableau and measure it in `measurement_mapping`
    /// order.
    fn tableau_clone_reference(circuit: &Circuit, shots: u64, seed: u64) -> Counts {
        use rand::SeedableRng;
        let mut tableau = StabilizerSimulator::new(circuit.num_qubits());
        tableau.apply_circuit(circuit).unwrap();
        let mapping = measurement_mapping(circuit);
        let mut counts = Counts::new(effective_num_bits(circuit));
        for shard in 0..shots.div_ceil(SHARD_SHOTS) {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(shard));
            for _ in 0..SHARD_SHOTS.min(shots - shard * SHARD_SHOTS) {
                let mut sim = tableau.clone();
                let mut outcome = 0u64;
                for &(qubit, clbit) in &mapping {
                    record_bit(&mut outcome, clbit, sim.measure(qubit, &mut rng));
                }
                counts.record(outcome);
            }
        }
        counts
    }

    #[test]
    fn ideal_clifford_runs_match_the_tableau_clone() {
        let mut circuits = Vec::new();
        for n in 1..=20 {
            let circuit = library::random_clifford_circuit(n, 4, n as u64).unwrap();
            // Measured twice: the second round is determined by the first.
            let mut twice = circuit.clone();
            twice.measure_all().unwrap();
            let implicit = circuit.without_measurements();
            circuits.extend([circuit, twice, implicit]);
        }
        // Seventy random outcomes into eight reused bits: over the plan's
        // 64 coins, so Auto replays, which draws what the clone drew.
        let mut wide = Circuit::new(70, 8);
        for q in 0..70 {
            wide.h(q).unwrap();
        }
        wide.cx(0, 69).unwrap();
        for q in 0..70 {
            wide.measure(q, q % 8).unwrap();
        }
        assert!(FramePlan::build(&wide, &NoiseModel::ideal(70))
            .unwrap()
            .is_none());
        circuits.push(wide);

        for (index, circuit) in circuits.iter().enumerate() {
            let (shots, seed) = (150 + index as u64, 40 + index as u64);
            let reference = tableau_clone_reference(circuit, shots, seed);
            for threads in [1, 2, 8] {
                let parallel = ParallelConfig::with_threads(threads);
                let auto = run_ideal_parallel(circuit, shots, seed, &parallel).unwrap();
                assert_eq!(auto, reference, "{} at {threads} threads", circuit.name());
            }
        }
    }

    #[test]
    fn fast_path_and_replay_agree_for_ideal_terminal_circuits() {
        // Force the replay path with a unit readout-error-free noise model
        // that is *not* structurally ideal? There is none — instead compare
        // the fast path against the replay path via a mid-circuit barrier
        // variant that still replays: an explicit Reset at the start keeps
        // semantics (|0> -> |0>) but disables the fast path.
        let mut fast = library::ghz(6).unwrap().without_measurements();
        fast.measure_all().unwrap();
        let mut replay = Circuit::new(6, 6);
        replay.reset(0).unwrap();
        let ghz = library::ghz(6).unwrap().without_measurements();
        for inst in ghz.instructions() {
            replay.append(inst.gate, &inst.qubits).unwrap();
        }
        replay.measure_all().unwrap();
        let counts_fast = run_ideal(&fast, 4000, 29).unwrap();
        let counts_replay = run_ideal(&replay, 4000, 31).unwrap();
        let fidelity = counts_fast.hellinger_fidelity(&counts_replay);
        assert!(fidelity > 0.98, "paths disagree: {fidelity}");
    }
}
