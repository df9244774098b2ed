//! Cross-engine equivalence: random Clifford circuits must produce
//! statistically identical `Counts` on the packed stabilizer engine and the
//! dense statevector engine.
//!
//! The stabilizer run samples the circuit as-is (Clifford → CHP tableau
//! engine); the statevector run appends a `T·T†` identity so the engine
//! selector is forced onto the dense path without changing the state. Both
//! histograms are then tested with a pooled chi-square against the *exact*
//! distribution computed from the statevector amplitudes, and against each
//! other via Hellinger fidelity. Seeds are fixed, so a failure means an
//! engine is biased — never flake.

use proptest::prelude::*;

use qrio_circuit::{library, Circuit};
use qrio_sim::executor::{forces_replay, select_engine, Engine};
use qrio_sim::{
    run_ideal, run_with_noise_parallel, run_with_noise_path, Counts, ExecutionPath, FramePlan,
    NoiseModel, ParallelConfig, StateVector,
};

/// Exact outcome distribution of a measurement-free circuit, from the dense
/// amplitudes.
fn exact_probabilities(circuit: &Circuit) -> Vec<f64> {
    let mut sv = StateVector::new(circuit.num_qubits()).unwrap();
    sv.apply_circuit(circuit).unwrap();
    sv.probabilities()
}

/// Pooled chi-square of `counts` against `probabilities` (expected counts
/// below 5 pool into one bucket). Returns `(statistic, degrees_of_freedom)`.
fn chi_square(counts: &Counts, probabilities: &[f64]) -> (f64, f64) {
    let shots = counts.total() as f64;
    let mut statistic = 0.0;
    let mut pooled_expected = 0.0;
    let mut pooled_observed = 0.0;
    let mut buckets = 0usize;
    for (index, &p) in probabilities.iter().enumerate() {
        let expected = p * shots;
        let observed = counts.get(index as u64) as f64;
        if expected < 5.0 {
            pooled_expected += expected;
            pooled_observed += observed;
        } else {
            let diff = observed - expected;
            statistic += diff * diff / expected;
            buckets += 1;
        }
    }
    if pooled_expected > 0.0 {
        let diff = pooled_observed - pooled_expected;
        statistic += diff * diff / pooled_expected.max(1e-9);
        buckets += 1;
    }
    (statistic, buckets.saturating_sub(1) as f64)
}

/// Generous chi-square critical bound at p ≈ 0.001 for df <= ~128.
fn critical(df: f64) -> f64 {
    df + 4.0 * (2.0 * df).sqrt() + 10.0
}

/// Two-sample pooled chi-square: are `a` and `b` draws from one distribution?
/// Under H0 the expected count in a bucket is the pooled frequency scaled by
/// each sample's size; buckets whose smaller expectation is below 5 pool.
/// Returns `(statistic, degrees_of_freedom)`.
fn two_sample_chi_square(a: &Counts, b: &Counts) -> (f64, f64) {
    let na = a.total() as f64;
    let nb = b.total() as f64;
    let mut outcomes: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    outcomes.extend(a.iter().map(|(outcome, _)| outcome));
    outcomes.extend(b.iter().map(|(outcome, _)| outcome));
    let mut statistic = 0.0;
    let mut buckets = 0usize;
    let (mut pool_oa, mut pool_ob, mut pool_ea, mut pool_eb) = (0.0, 0.0, 0.0, 0.0);
    for outcome in outcomes {
        let oa = a.get(outcome) as f64;
        let ob = b.get(outcome) as f64;
        let pooled = (oa + ob) / (na + nb);
        let (ea, eb) = (pooled * na, pooled * nb);
        if ea.min(eb) < 5.0 {
            pool_oa += oa;
            pool_ob += ob;
            pool_ea += ea;
            pool_eb += eb;
        } else {
            statistic += (oa - ea).powi(2) / ea + (ob - eb).powi(2) / eb;
            buckets += 1;
        }
    }
    if pool_ea + pool_eb > 0.0 {
        statistic += (pool_oa - pool_ea).powi(2) / pool_ea.max(1e-9)
            + (pool_ob - pool_eb).powi(2) / pool_eb.max(1e-9);
        buckets += 1;
    }
    (statistic, buckets.saturating_sub(1) as f64)
}

/// The statevector twin of a Clifford circuit: same unitary, but with a
/// `T·T†` identity prepended so `select_engine` picks the dense path.
fn statevector_twin(clifford: &Circuit) -> Circuit {
    let mut twin = Circuit::new(clifford.num_qubits(), clifford.num_qubits());
    twin.t(0).unwrap();
    twin.tdg(0).unwrap();
    for inst in clifford.instructions() {
        twin.append(inst.gate, &inst.qubits).unwrap();
    }
    twin.measure_all().unwrap();
    twin
}

#[test]
fn random_clifford_circuits_agree_across_engines() {
    let shots = 20_000u64;
    for seed in [3u64, 17, 42] {
        let clifford = library::random_clifford_circuit(6, 8, seed)
            .unwrap()
            .without_measurements();
        let exact = exact_probabilities(&clifford);

        let mut measured = clifford.clone();
        measured.measure_all().unwrap();
        assert_eq!(select_engine(&measured).unwrap(), Engine::Stabilizer);
        let stabilizer = run_ideal(&measured, shots, 1000 + seed).unwrap();

        let twin = statevector_twin(&clifford);
        assert_eq!(select_engine(&twin).unwrap(), Engine::Statevector);
        let statevector = run_ideal(&twin, shots, 2000 + seed).unwrap();

        // Each engine matches the exact distribution...
        for (label, counts) in [("stabilizer", &stabilizer), ("statevector", &statevector)] {
            let (statistic, df) = chi_square(counts, &exact);
            assert!(
                statistic < critical(df),
                "seed {seed}: {label} chi-square {statistic:.1} exceeds {:.1} (df {df})",
                critical(df)
            );
            assert_eq!(counts.total(), shots);
        }
        // ...and therefore each other.
        let fidelity = stabilizer.hellinger_fidelity(&statevector);
        assert!(
            fidelity > 0.99,
            "seed {seed}: engines disagree, Hellinger fidelity {fidelity}"
        );
        // Supports match exactly: any outcome one engine emits has nonzero
        // exact probability (Clifford supports are exact, so a single stray
        // outcome is an engine bug, not noise).
        for (label, counts) in [("stabilizer", &stabilizer), ("statevector", &statevector)] {
            for (outcome, _) in counts.iter() {
                assert!(
                    exact[outcome as usize] > 1e-12,
                    "seed {seed}: {label} emitted impossible outcome {outcome:b}"
                );
            }
        }
    }
}

#[test]
fn engines_agree_on_structured_clifford_families() {
    // GHZ and the repetition encoder exercise entangling structure the
    // random sweep may miss at low depth.
    let shots = 16_000u64;
    for (label, circuit) in [
        ("ghz", library::ghz(7).unwrap().without_measurements()),
        (
            "repetition",
            library::repetition_code_encoder(5)
                .unwrap()
                .without_measurements(),
        ),
    ] {
        let exact = exact_probabilities(&circuit);
        let mut measured = circuit.clone();
        measured.measure_all().unwrap();
        let stabilizer = run_ideal(&measured, shots, 7).unwrap();
        let statevector = run_ideal(&statevector_twin(&circuit), shots, 11).unwrap();
        for (engine, counts) in [("stabilizer", &stabilizer), ("statevector", &statevector)] {
            let (statistic, df) = chi_square(counts, &exact);
            assert!(
                statistic < critical(df),
                "{label}/{engine}: chi-square {statistic:.1} over {:.1}",
                critical(df)
            );
        }
        let fidelity = stabilizer.hellinger_fidelity(&statevector);
        assert!(fidelity > 0.99, "{label}: engines disagree ({fidelity})");
    }
}

#[test]
fn frame_path_is_byte_identical_to_replay_under_noise() {
    // The Pauli-frame path mirrors the replay path's RNG draw order exactly,
    // so with identical seeds the histograms must be *equal*, not merely
    // statistically close — across every thread count.
    let shots = 4_000u64;
    for seed in [5u64, 21] {
        let mut circuit = library::random_clifford_circuit(8, 6, seed)
            .unwrap()
            .without_measurements();
        circuit.measure_all().unwrap();
        let noise = NoiseModel::uniform(8, 0.02, 0.05, 0.03);

        let replay = run_with_noise_path(
            &circuit,
            &noise,
            shots,
            900 + seed,
            &ParallelConfig::serial(),
            ExecutionPath::Replay,
        )
        .unwrap();
        for threads in [1usize, 2, 8] {
            let frame = run_with_noise_path(
                &circuit,
                &noise,
                shots,
                900 + seed,
                &ParallelConfig::with_threads(threads),
                ExecutionPath::Frame,
            )
            .unwrap();
            assert_eq!(
                frame, replay,
                "seed {seed}: frame path at {threads} threads diverged from serial replay"
            );
        }
        // Auto selects the frame path for this circuit and must agree too.
        let auto = run_with_noise_parallel(
            &circuit,
            &noise,
            shots,
            900 + seed,
            &ParallelConfig::serial(),
        )
        .unwrap();
        assert_eq!(auto, replay, "seed {seed}: auto path diverged from replay");
    }
}

#[test]
fn noisy_frame_matches_replay_and_statevector_monte_carlo() {
    // Three-way agreement under a *noisy* model: the frame path, the replay
    // path, and a statevector Monte Carlo twin all sample the same physical
    // distribution. The noise model has zero single-qubit gate error so the
    // twin's T·T† prefix adds no extra noise sites or RNG draws.
    let shots = 12_000u64;
    for seed in [3u64, 17] {
        let mut circuit = library::random_clifford_circuit(6, 8, seed)
            .unwrap()
            .without_measurements();
        let twin = statevector_twin(&circuit);
        circuit.measure_all().unwrap();
        let noise = NoiseModel::uniform(6, 0.0, 0.08, 0.02);

        let frame = run_with_noise_path(
            &circuit,
            &noise,
            shots,
            1000 + seed,
            &ParallelConfig::serial(),
            ExecutionPath::Frame,
        )
        .unwrap();
        let replay = run_with_noise_path(
            &circuit,
            &noise,
            shots,
            3000 + seed,
            &ParallelConfig::serial(),
            ExecutionPath::Replay,
        )
        .unwrap();
        assert_eq!(select_engine(&twin).unwrap(), Engine::Statevector);
        let statevector =
            run_with_noise_parallel(&twin, &noise, shots, 2000 + seed, &ParallelConfig::serial())
                .unwrap();

        for (label, other) in [("replay", &replay), ("statevector", &statevector)] {
            let (statistic, df) = two_sample_chi_square(&frame, other);
            assert!(
                statistic < critical(df),
                "seed {seed}: frame vs {label} chi-square {statistic:.1} exceeds {:.1} (df {df})",
                critical(df)
            );
            let fidelity = frame.hellinger_fidelity(other);
            assert!(
                fidelity > 0.99,
                "seed {seed}: frame vs {label} Hellinger fidelity {fidelity}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At zero noise the frame path and replay path share not just a
    /// distribution but every byte: both consume the measurement-coin RNG in
    /// the same order, so the histograms must be identical for any Clifford
    /// circuit.
    #[test]
    fn frame_path_matches_replay_bit_for_bit_at_zero_noise(
        qubits in 2usize..12,
        depth in 1usize..9,
        circuit_seed in 0u64..1_000_000,
        seed in 0u64..1_000_000,
    ) {
        let mut circuit = library::random_clifford_circuit(qubits, depth, circuit_seed)
            .unwrap()
            .without_measurements();
        circuit.measure_all().unwrap();
        let noise = NoiseModel::ideal(qubits);
        let shots = 192u64; // three shards

        let frame = run_with_noise_path(
            &circuit,
            &noise,
            shots,
            seed,
            &ParallelConfig::serial(),
            ExecutionPath::Frame,
        )
        .unwrap();
        let replay = run_with_noise_path(
            &circuit,
            &noise,
            shots,
            seed,
            &ParallelConfig::serial(),
            ExecutionPath::Replay,
        )
        .unwrap();
        prop_assert_eq!(frame, replay);
    }
    /// Measurements need not be last: each qubit is measured somewhere after
    /// its own last gate, among gates (and noise sites) on other qubits, and
    /// the frame path still matches replay byte for byte — ops are drawn in
    /// instruction order. One gate on a measured qubit ends eligibility.
    #[test]
    fn interleaved_measurements_keep_frame_equal_to_replay(
        qubits in 2usize..9,
        depth in 1usize..7,
        circuit_seed in 0u64..1_000_000,
        places in proptest::collection::vec(0usize..1_000, 9..10),
        seed in 0u64..1_000_000,
    ) {
        let gates = library::random_clifford_circuit(qubits, depth, circuit_seed)
            .unwrap()
            .without_measurements();
        let gates = gates.instructions();
        // Qubit q may be measured before instruction `at` for any `at` past
        // its last gate; `places` picks one.
        let mut measure_before = vec![Vec::new(); gates.len() + 1];
        for (q, place) in places.iter().enumerate().take(qubits) {
            let last_gate = gates.iter().rposition(|i| i.qubits.contains(&q));
            let free_from = last_gate.map_or(0, |i| i + 1);
            measure_before[free_from + place % (gates.len() + 1 - free_from)].push(q);
        }
        let mut circuit = Circuit::new(qubits, qubits);
        for (at, measured) in measure_before.iter().enumerate() {
            for &q in measured {
                circuit.measure(q, q).unwrap();
            }
            if let Some(inst) = gates.get(at) {
                circuit.append(inst.gate, &inst.qubits).unwrap();
            }
        }
        prop_assert_eq!(forces_replay(&circuit), None);

        let noise = NoiseModel::uniform(qubits, 0.02, 0.05, 0.03);
        let run = |circuit: &Circuit, path| {
            run_with_noise_path(circuit, &noise, 130, seed, &ParallelConfig::serial(), path)
        };
        prop_assert_eq!(
            run(&circuit, ExecutionPath::Frame).unwrap(),
            run(&circuit, ExecutionPath::Replay).unwrap()
        );

        circuit.h(places[0] % qubits).unwrap();
        prop_assert!(FramePlan::build(&circuit, &noise).unwrap().is_none());
        prop_assert!(run(&circuit, ExecutionPath::Frame).is_err());
    }
}
